//! Virtual database states: base database + pending updates.
//!
//! When checking whether transaction `Ti` can ground, its body atoms must be
//! evaluated against the database **as modified by the updates of
//! `T0..Ti-1`** under their chosen groundings (Definition 3.1). `Overlay`
//! provides that view without copying the base: per-relation insert/delete
//! deltas with a journal for cheap backtracking.
//!
//! Deltas are keyed by interned [`RelationId`]s (dense vector index — no
//! string hashing anywhere on the search's per-node path), and candidate
//! enumeration **streams**: [`Overlay::stream`] yields one visible tuple at
//! a time from an index-narrowed base cursor chained with the overlay
//! insert set, instead of materializing a `Vec` per search node.

use std::collections::BTreeSet;
use std::ops::Bound;

use qdb_storage::{Database, RelationId, Table, TableCursor, Tuple, Value, WriteOp};

use crate::error::SolverError;
use crate::Result;

/// One journal entry (how to undo an applied op). Relations are interned
/// ids, so journaling is copy-only apart from the tuple refcount.
#[derive(Debug, Clone)]
enum Undo {
    /// Remove `tuple` from the insert set of the relation.
    UnInsert { rid: RelationId, tuple: Tuple },
    /// Remove `tuple` from the delete set of the relation.
    UnDelete { rid: RelationId, tuple: Tuple },
    /// Re-add `tuple` to the delete set (an insert cancelled the delete).
    ReDelete { rid: RelationId, tuple: Tuple },
    /// Re-add `tuple` to the insert set (a delete cancelled the insert).
    ReInsert { rid: RelationId, tuple: Tuple },
    /// The op was a no-op (delete of an absent tuple).
    Noop,
}

/// A rollback point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverlayMark(usize);

/// Per-relation insert/delete deltas.
#[derive(Debug, Default, Clone)]
struct OverlayRel {
    inserts: BTreeSet<Tuple>,
    deletes: BTreeSet<Tuple>,
}

/// Insert/delete deltas on top of a base [`Database`], keyed by interned
/// relation id.
#[derive(Debug, Default, Clone)]
pub struct Overlay {
    rels: Vec<OverlayRel>,
    journal: Vec<Undo>,
}

impl Overlay {
    /// Empty overlay (view = base).
    pub fn new() -> Self {
        Overlay::default()
    }

    fn rel(&self, rid: RelationId) -> Option<&OverlayRel> {
        self.rels.get(rid.index())
    }

    fn rel_mut(&mut self, rid: RelationId) -> &mut OverlayRel {
        if rid.index() >= self.rels.len() {
            self.rels.resize_with(rid.index() + 1, OverlayRel::default);
        }
        &mut self.rels[rid.index()]
    }

    /// Is `tuple` visible in `base + self`? (String-keyed convenience —
    /// resolves once; hot paths use [`Overlay::visible_id`].)
    pub fn visible(&self, base: &Database, relation: &str, tuple: &Tuple) -> bool {
        base.try_resolve(relation)
            .is_some_and(|rid| self.visible_id(base, rid, tuple))
    }

    /// Is `tuple` visible in `base + self`?
    pub fn visible_id(&self, base: &Database, rid: RelationId, tuple: &Tuple) -> bool {
        if let Some(rel) = self.rel(rid) {
            if rel.inserts.contains(tuple) {
                return true;
            }
            if rel.deletes.contains(tuple) {
                return false;
            }
        }
        base.contains_id(rid, tuple)
    }

    /// Is `tuple` in the relation's overlay delete set?
    pub fn is_deleted(&self, rid: RelationId, tuple: &Tuple) -> bool {
        self.rel(rid).is_some_and(|r| r.deletes.contains(tuple))
    }

    /// Does the relation have any overlay deletes?
    pub fn has_deletes(&self, rid: RelationId) -> bool {
        self.rel(rid).is_some_and(|r| !r.deletes.is_empty())
    }

    /// The smallest overlay insert of `rid` strictly greater than `after`
    /// (`None` = from the start) that matches `bound`. Resumable-cursor
    /// primitive behind [`CandidateIter`]: because it re-seeks by value, it
    /// stays correct even though the insert set may have been mutated and
    /// restored between calls.
    fn next_insert(
        &self,
        rid: RelationId,
        after: Option<&Tuple>,
        bound: &[Option<Value>],
    ) -> Option<Tuple> {
        let rel = self.rel(rid)?;
        let start: Bound<&Tuple> = match after {
            Some(t) => Bound::Excluded(t),
            None => Bound::Unbounded,
        };
        rel.inserts
            .range((start, Bound::Unbounded))
            .find(|t| Table::matches(t, bound))
            .cloned()
    }

    /// All visible tuples of `relation` matching the column constraints
    /// `bound` (`Some(v)` pins a column), **materialized**. Base rows come
    /// first (in key order), then overlay inserts (in tuple order) —
    /// deterministic.
    ///
    /// This is the reference implementation the streaming
    /// [`Overlay::stream`] is property-tested against; the solver's hot
    /// path never calls it. Every call counts itself in
    /// `stats.candidate_vecs`, which is how "zero materializations on the
    /// fast path" stays a *checkable* claim rather than a vacuous one.
    pub fn candidates(
        &self,
        base: &Database,
        relation: &str,
        bound: &[Option<Value>],
        stats: &mut crate::stats::SolverStats,
    ) -> Result<Vec<Tuple>> {
        stats.candidate_vecs += 1;
        let rid = base.resolve(relation).map_err(SolverError::Storage)?;
        let table = base.table_by_id(rid);
        check_arity(table, relation, bound)?;
        let empty = BTreeSet::new();
        let (deleted, inserts) = match self.rel(rid) {
            Some(rel) => (&rel.deletes, &rel.inserts),
            None => (&empty, &empty),
        };
        let mut out: Vec<Tuple> = table
            .select(bound)
            .filter(|t| !deleted.contains(*t))
            .cloned()
            .collect();
        out.extend(inserts.iter().filter(|t| Table::matches(t, bound)).cloned());
        Ok(out)
    }

    /// Open a **streaming** candidate cursor over the visible tuples of
    /// `rid` matching `bound`: an index-narrowed base cursor with overlay
    /// deletes filtered in place, chained with the overlay insert set.
    /// Yields exactly the sequence [`Overlay::candidates`] would
    /// materialize, one refcount-bump [`Tuple`] at a time — zero per-node
    /// vectors.
    ///
    /// The cursor borrows the *base* only; the overlay is passed to each
    /// [`CandidateIter::next`] call, so the caller may mutate (and restore)
    /// the overlay between pulls — which is exactly what the backtracking
    /// search does.
    pub fn stream<'a>(
        &self,
        base: &'a Database,
        rid: RelationId,
        bound: Vec<Option<Value>>,
    ) -> Result<CandidateIter<'a>> {
        let table = base.table_by_id(rid);
        check_arity(table, base.relation_name(rid), &bound)?;
        let cursor = table.cursor(&bound);
        let index_backed = cursor.is_index_backed();
        Ok(CandidateIter {
            rid,
            base: cursor,
            base_done: false,
            last_insert: None,
            index_backed,
            bound,
        })
    }

    /// Count of visible tuples matching `bound`, saturating at `cap`
    /// (used by the dynamic atom ordering to pick the most constrained
    /// atom first; beyond the cap relative order no longer matters).
    pub fn count_up_to(
        &self,
        base: &Database,
        relation: &str,
        bound: &[Option<Value>],
        cap: usize,
    ) -> Result<usize> {
        let rid = base.resolve(relation).map_err(SolverError::Storage)?;
        self.count_up_to_id(base, rid, bound, cap).map(|(n, _)| n)
    }

    /// Count of visible tuples matching `bound` (saturating at `cap`) plus
    /// whether the base portion was answered from an index. When the
    /// relation has no overlay deletes, the base count comes from
    /// [`Table::count_up_to`] — an index bucket length when a single bound
    /// column is indexed, no row iteration at all.
    pub fn count_up_to_id(
        &self,
        base: &Database,
        rid: RelationId,
        bound: &[Option<Value>],
        cap: usize,
    ) -> Result<(usize, bool)> {
        let table = base.table_by_id(rid);
        check_arity(table, base.relation_name(rid), bound)?;
        let rel = self.rel(rid);
        let (mut n, index_backed) = match rel {
            Some(r) if !r.deletes.is_empty() => {
                let cursor = table.cursor(bound);
                let index_backed = cursor.is_index_backed();
                let n = cursor
                    .filter(|t| Table::matches(t, bound) && !r.deletes.contains(*t))
                    .take(cap)
                    .count();
                (n, index_backed)
            }
            _ => table.count_up_to(bound, cap),
        };
        if n < cap {
            if let Some(r) = rel {
                n += r
                    .inserts
                    .iter()
                    .filter(|t| Table::matches(t, bound))
                    .take(cap - n)
                    .count();
            }
        }
        Ok((n, index_backed))
    }

    /// Exact count of visible tuples matching `bound`.
    pub fn count(&self, base: &Database, relation: &str, bound: &[Option<Value>]) -> Result<usize> {
        self.count_up_to(base, relation, bound, usize::MAX)
    }

    /// Apply a write op on the virtual state (resolves the relation name
    /// once; hot paths use [`Overlay::apply_id`]).
    ///
    /// * insert of a visible tuple → `Err` — set semantics make the
    ///   grounding that produced this op inconsistent, the caller
    ///   backtracks;
    /// * insert that re-creates a deleted tuple → cancels the delete;
    /// * delete of an overlay-inserted tuple → cancels the insert;
    /// * delete of an absent tuple → journaled no-op (blind deletes are
    ///   silent no-ops in SQL, and the Lemma 3.4 proof never relies on a
    ///   deleted tuple having existed).
    pub fn apply(&mut self, base: &Database, op: &WriteOp) -> Result<bool> {
        let rid = base.resolve(op.relation()).map_err(SolverError::Storage)?;
        self.apply_id(base, rid, op.is_insert(), op.tuple())
    }

    /// Apply one update on the virtual state, by interned relation id. See
    /// [`Overlay::apply`] for the semantics.
    pub fn apply_id(
        &mut self,
        base: &Database,
        rid: RelationId,
        insert: bool,
        tuple: &Tuple,
    ) -> Result<bool> {
        if insert {
            if self.visible_id(base, rid, tuple) {
                return Err(SolverError::CacheInconsistent(format!(
                    "insert of visible tuple {}{tuple}",
                    base.relation_name(rid)
                )));
            }
            let rel = self.rel_mut(rid);
            if rel.deletes.remove(tuple) {
                self.journal.push(Undo::ReDelete {
                    rid,
                    tuple: tuple.clone(),
                });
            } else {
                rel.inserts.insert(tuple.clone());
                self.journal.push(Undo::UnInsert {
                    rid,
                    tuple: tuple.clone(),
                });
            }
            Ok(true)
        } else {
            let rel = self.rel_mut(rid);
            if rel.inserts.remove(tuple) {
                self.journal.push(Undo::ReInsert {
                    rid,
                    tuple: tuple.clone(),
                });
                Ok(true)
            } else if base.contains_id(rid, tuple) && !rel.deletes.contains(tuple) {
                rel.deletes.insert(tuple.clone());
                self.journal.push(Undo::UnDelete {
                    rid,
                    tuple: tuple.clone(),
                });
                Ok(true)
            } else {
                self.journal.push(Undo::Noop);
                Ok(false)
            }
        }
    }

    /// Apply an op, treating an insert-conflict as a soft failure (`false`)
    /// rather than an error, and rolling nothing back. Used by the search,
    /// which backtracks on `false`.
    pub fn try_apply(&mut self, base: &Database, op: &WriteOp) -> bool {
        match base.try_resolve(op.relation()) {
            Some(rid) => self.try_apply_id(base, rid, op.is_insert(), op.tuple()),
            None => false,
        }
    }

    /// [`Overlay::try_apply`] by interned relation id.
    pub fn try_apply_id(
        &mut self,
        base: &Database,
        rid: RelationId,
        insert: bool,
        tuple: &Tuple,
    ) -> bool {
        if insert && self.visible_id(base, rid, tuple) {
            return false;
        }
        // Cannot fail for deletes or non-conflicting inserts.
        self.apply_id(base, rid, insert, tuple)
            .expect("conflict pre-checked");
        true
    }

    /// Current rollback point.
    pub fn mark(&self) -> OverlayMark {
        OverlayMark(self.journal.len())
    }

    /// Undo every op applied since `mark`.
    pub fn rollback(&mut self, mark: OverlayMark) {
        while self.journal.len() > mark.0 {
            match self.journal.pop().expect("journal non-empty") {
                Undo::UnInsert { rid, tuple } => {
                    self.rels[rid.index()].inserts.remove(&tuple);
                }
                Undo::UnDelete { rid, tuple } => {
                    self.rels[rid.index()].deletes.remove(&tuple);
                }
                Undo::ReDelete { rid, tuple } => {
                    self.rels[rid.index()].deletes.insert(tuple);
                }
                Undo::ReInsert { rid, tuple } => {
                    self.rels[rid.index()].inserts.insert(tuple);
                }
                Undo::Noop => {}
            }
        }
    }

    /// Number of journaled operations.
    pub fn journal_len(&self) -> usize {
        self.journal.len()
    }

    /// Do two overlays describe the same virtual-state deltas (journal
    /// history ignored)? Used by debug assertions that validate cached
    /// overlays against freshly built ones.
    pub fn same_deltas(&self, other: &Overlay) -> bool {
        let longest = self.rels.len().max(other.rels.len());
        let empty = OverlayRel::default();
        (0..longest).all(|i| {
            let a = self.rels.get(i).unwrap_or(&empty);
            let b = other.rels.get(i).unwrap_or(&empty);
            a.inserts == b.inserts && a.deletes == b.deletes
        })
    }

    /// Re-express the deltas against `base + ops` instead of `base`,
    /// leaving the virtual state unchanged — used when a grounding makes
    /// `ops` real while the overlay's state stays the admission state of
    /// the pending transactions that remain. `ops` must apply cleanly to
    /// `base` in order (the tuple a later op touches is decided by that
    /// op). Only the tuples `ops` touch can change their delta entry, so
    /// this costs O(ops), not O(overlay). The journal describes history
    /// relative to the old base and is dropped: marks taken before a
    /// rebase are invalid.
    pub fn rebase(&mut self, base: &Database, ops: &[WriteOp]) -> Result<()> {
        // Base membership after `ops`, per touched tuple: the last op wins.
        let mut after: std::collections::BTreeMap<(RelationId, &Tuple), bool> =
            std::collections::BTreeMap::new();
        for op in ops {
            let rid = base.resolve(op.relation()).map_err(SolverError::Storage)?;
            after.insert((rid, op.tuple()), op.is_insert());
        }
        for ((rid, tuple), in_new_base) in after {
            let visible = self.visible_id(base, rid, tuple);
            let rel = self.rel_mut(rid);
            rel.inserts.remove(tuple);
            rel.deletes.remove(tuple);
            if visible && !in_new_base {
                rel.inserts.insert(tuple.clone());
            } else if !visible && in_new_base {
                rel.deletes.insert(tuple.clone());
            }
        }
        self.journal.clear();
        Ok(())
    }

    /// Materialize the overlay into the base database (used when grounding
    /// is final rather than speculative). Consumes the overlay.
    pub fn commit_into(self, base: &mut Database) -> Result<()> {
        for (i, rel) in self.rels.iter().enumerate() {
            let rid = rid_at(i);
            for t in &rel.deletes {
                base.delete_id(rid, t)?;
            }
            for t in &rel.inserts {
                base.insert_id(rid, t.clone())?;
            }
        }
        Ok(())
    }
}

/// Reconstruct a [`RelationId`] from a dense index (the overlay's vector
/// position mirrors the database's id space).
fn rid_at(index: usize) -> RelationId {
    // The only way indexes enter the overlay is through RelationIds the
    // database handed out, so a round-trip through the public resolve API
    // is not needed; the id space is dense by construction.
    RelationId::from_index(index)
}

fn check_arity(table: &Table, relation: &str, bound: &[Option<Value>]) -> Result<()> {
    if bound.len() != table.schema().arity() {
        return Err(SolverError::Storage(
            qdb_storage::StorageError::ArityMismatch {
                relation: relation.to_string(),
                expected: table.schema().arity(),
                got: bound.len(),
            },
        ));
    }
    Ok(())
}

/// Streaming candidate cursor — see [`Overlay::stream`].
///
/// Not a [`std::iter::Iterator`]: each pull takes the overlay by shared
/// reference so the search can hold the cursor open across overlay
/// mutations that it rolls back before the next pull.
#[derive(Debug)]
pub struct CandidateIter<'a> {
    rid: RelationId,
    bound: Vec<Option<Value>>,
    base: TableCursor<'a>,
    base_done: bool,
    last_insert: Option<Tuple>,
    index_backed: bool,
}

impl<'a> CandidateIter<'a> {
    /// The next visible candidate, or `None` when exhausted.
    pub fn next(&mut self, overlay: &Overlay) -> Option<Tuple> {
        if !self.base_done {
            for row in self.base.by_ref() {
                if Table::matches(row, &self.bound) && !overlay.is_deleted(self.rid, row) {
                    return Some(row.clone());
                }
            }
            self.base_done = true;
        }
        let next = overlay.next_insert(self.rid, self.last_insert.as_ref(), &self.bound)?;
        self.last_insert = Some(next.clone());
        Some(next)
    }

    /// Was the base portion narrowed by a secondary index?
    pub fn is_index_backed(&self) -> bool {
        self.index_backed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdb_storage::{tuple, Schema, ValueType};

    fn base() -> Database {
        let mut db = Database::new();
        db.create_table(Schema::new(
            "A",
            vec![("flight", ValueType::Int), ("seat", ValueType::Str)],
        ))
        .unwrap();
        db.insert("A", tuple![1, "1A"]).unwrap();
        db.insert("A", tuple![1, "1B"]).unwrap();
        db
    }

    #[test]
    fn visibility_tracks_deltas() {
        let db = base();
        let mut ov = Overlay::new();
        assert!(ov.visible(&db, "A", &tuple![1, "1A"]));
        ov.apply(&db, &WriteOp::delete("A", tuple![1, "1A"]))
            .unwrap();
        assert!(!ov.visible(&db, "A", &tuple![1, "1A"]));
        ov.apply(&db, &WriteOp::insert("A", tuple![2, "9Z"]))
            .unwrap();
        assert!(ov.visible(&db, "A", &tuple![2, "9Z"]));
        assert!(!db.contains("A", &tuple![2, "9Z"])); // base untouched
    }

    #[test]
    fn insert_conflict_detected() {
        let db = base();
        let mut ov = Overlay::new();
        assert!(ov
            .apply(&db, &WriteOp::insert("A", tuple![1, "1A"]))
            .is_err());
        assert!(!ov.try_apply(&db, &WriteOp::insert("A", tuple![1, "1A"])));
        // Deleting first clears the way.
        ov.apply(&db, &WriteOp::delete("A", tuple![1, "1A"]))
            .unwrap();
        assert!(ov.try_apply(&db, &WriteOp::insert("A", tuple![1, "1A"])));
        assert!(ov.visible(&db, "A", &tuple![1, "1A"]));
    }

    #[test]
    fn delete_of_absent_is_noop() {
        let db = base();
        let mut ov = Overlay::new();
        assert!(!ov
            .apply(&db, &WriteOp::delete("A", tuple![9, "XX"]))
            .unwrap());
    }

    #[test]
    fn candidates_merge_base_and_overlay() {
        let db = base();
        let mut ov = Overlay::new();
        ov.apply(&db, &WriteOp::delete("A", tuple![1, "1A"]))
            .unwrap();
        ov.apply(&db, &WriteOp::insert("A", tuple![1, "1C"]))
            .unwrap();
        let bound = vec![Some(Value::from(1)), None];
        let cands = ov
            .candidates(&db, "A", &bound, &mut Default::default())
            .unwrap();
        let seats: Vec<&str> = cands.iter().map(|t| t[1].as_str().unwrap()).collect();
        assert_eq!(seats, vec!["1B", "1C"]);
        assert_eq!(ov.count(&db, "A", &bound).unwrap(), 2);
    }

    #[test]
    fn stream_yields_exactly_the_materialized_sequence() {
        let db = base();
        let mut ov = Overlay::new();
        ov.apply(&db, &WriteOp::delete("A", tuple![1, "1A"]))
            .unwrap();
        ov.apply(&db, &WriteOp::insert("A", tuple![1, "1C"]))
            .unwrap();
        ov.apply(&db, &WriteOp::insert("A", tuple![2, "2A"]))
            .unwrap();
        for bound in [
            vec![Some(Value::from(1)), None],
            vec![None, None],
            vec![None, Some(Value::from("1C"))],
            vec![Some(Value::from(9)), None],
        ] {
            let rid = db.resolve("A").unwrap();
            let expect = ov
                .candidates(&db, "A", &bound, &mut Default::default())
                .unwrap();
            let mut iter = ov.stream(&db, rid, bound.clone()).unwrap();
            let mut got = Vec::new();
            while let Some(t) = iter.next(&ov) {
                got.push(t);
            }
            assert_eq!(got, expect, "bound={bound:?}");
        }
    }

    #[test]
    fn stream_survives_rolled_back_mutation_between_pulls() {
        // The search mutates the overlay between pulls and rolls back
        // before pulling again; the stream must continue the original
        // sequence.
        let db = base();
        let mut ov = Overlay::new();
        ov.apply(&db, &WriteOp::insert("A", tuple![3, "3A"]))
            .unwrap();
        ov.apply(&db, &WriteOp::insert("A", tuple![4, "4A"]))
            .unwrap();
        let rid = db.resolve("A").unwrap();
        let expect = ov
            .candidates(&db, "A", &[None, None], &mut Default::default())
            .unwrap();
        let mut iter = ov.stream(&db, rid, vec![None, None]).unwrap();
        let mut got = Vec::new();
        while let Some(t) = iter.next(&ov) {
            got.push(t.clone());
            // Speculative mutation + rollback, like a deeper search level.
            let mark = ov.mark();
            let _ = ov.try_apply(&db, &WriteOp::delete("A", tuple![4, "4A"]));
            let _ = ov.try_apply(&db, &WriteOp::insert("A", tuple![5, "5A"]));
            ov.rollback(mark);
        }
        assert_eq!(got, expect);
    }

    #[test]
    fn count_up_to_id_reports_index_backing() {
        let mut db = base();
        let rid = db.resolve("A").unwrap();
        let bound = vec![Some(Value::from(1)), None];
        let ov = Overlay::new();
        assert_eq!(ov.count_up_to_id(&db, rid, &bound, 10).unwrap(), (2, false));
        db.table_mut("A").unwrap().create_index(0).unwrap();
        assert_eq!(ov.count_up_to_id(&db, rid, &bound, 10).unwrap(), (2, true));
        // Overlay deletes force the streaming slow path.
        let mut ov = Overlay::new();
        ov.apply(&db, &WriteOp::delete("A", tuple![1, "1A"]))
            .unwrap();
        assert_eq!(ov.count_up_to_id(&db, rid, &bound, 10).unwrap(), (1, true));
    }

    #[test]
    fn rollback_restores_exact_state() {
        let db = base();
        let mut ov = Overlay::new();
        ov.apply(&db, &WriteOp::delete("A", tuple![1, "1A"]))
            .unwrap();
        let mark = ov.mark();
        ov.apply(&db, &WriteOp::insert("A", tuple![1, "1A"]))
            .unwrap(); // cancels delete
        ov.apply(&db, &WriteOp::insert("A", tuple![3, "3C"]))
            .unwrap();
        ov.apply(&db, &WriteOp::delete("A", tuple![1, "1B"]))
            .unwrap();
        ov.apply(&db, &WriteOp::delete("A", tuple![3, "3C"]))
            .unwrap(); // cancels insert
        assert!(ov.visible(&db, "A", &tuple![1, "1A"]));
        ov.rollback(mark);
        assert!(!ov.visible(&db, "A", &tuple![1, "1A"]));
        assert!(ov.visible(&db, "A", &tuple![1, "1B"]));
        assert!(!ov.visible(&db, "A", &tuple![3, "3C"]));
        assert_eq!(ov.journal_len(), 1);
    }

    #[test]
    fn commit_into_materializes() {
        let mut db = base();
        let mut ov = Overlay::new();
        ov.apply(&db, &WriteOp::delete("A", tuple![1, "1A"]))
            .unwrap();
        ov.apply(&db, &WriteOp::insert("A", tuple![7, "7A"]))
            .unwrap();
        ov.commit_into(&mut db).unwrap();
        assert!(!db.contains("A", &tuple![1, "1A"]));
        assert!(db.contains("A", &tuple![7, "7A"]));
    }

    #[test]
    fn rebase_matches_a_fresh_overlay_over_the_new_base() {
        let db = base();
        // A grounded group's ops, then the remaining pending ops — one of
        // which re-inserts the tuple the group deletes.
        let group = [
            WriteOp::delete("A", tuple![1, "1A"]),
            WriteOp::insert("A", tuple![2, "2A"]),
            WriteOp::delete("A", tuple![2, "2A"]),
            WriteOp::insert("A", tuple![3, "3A"]),
        ];
        let rest = [
            WriteOp::delete("A", tuple![1, "1B"]),
            WriteOp::insert("A", tuple![1, "1A"]),
            WriteOp::delete("A", tuple![3, "3A"]),
            WriteOp::insert("A", tuple![4, "4A"]),
        ];
        let mut ov = Overlay::new();
        for op in group.iter().chain(&rest) {
            ov.apply(&db, op).unwrap();
        }
        ov.rebase(&db, &group).unwrap();
        assert_eq!(ov.journal_len(), 0);

        let mut grounded = db.clone();
        for op in &group {
            grounded.apply(op).unwrap();
        }
        let mut fresh = Overlay::new();
        for op in &rest {
            fresh.apply(&grounded, op).unwrap();
        }
        assert!(ov.same_deltas(&fresh));
        for t in [
            tuple![1, "1A"],
            tuple![1, "1B"],
            tuple![2, "2A"],
            tuple![3, "3A"],
            tuple![4, "4A"],
        ] {
            assert_eq!(
                ov.visible(&grounded, "A", &t),
                fresh.visible(&grounded, "A", &t)
            );
        }
    }

    #[test]
    fn insert_after_delete_then_commit() {
        // Regression shape: delete + re-insert of the same tuple must net
        // out to "present" after commit.
        let mut db = base();
        let mut ov = Overlay::new();
        ov.apply(&db, &WriteOp::delete("A", tuple![1, "1A"]))
            .unwrap();
        ov.apply(&db, &WriteOp::insert("A", tuple![1, "1A"]))
            .unwrap();
        ov.commit_into(&mut db).unwrap();
        assert!(db.contains("A", &tuple![1, "1A"]));
    }
}
