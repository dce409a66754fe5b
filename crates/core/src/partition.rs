//! Independence partitioning (§4 "Quantum State").
//!
//! *"Some resource transactions are totally independent of each other,
//! i.e., there is no unification possible between them … The system
//! partitions the resource transactions accordingly into independent sets
//! and maintains a separate composed transaction body for each set."*
//!
//! Two transactions are dependent when any atom of one may denote the same
//! tuple as any atom of the other (same relation, no clashing constants —
//! the conservative `may_overlap` test). A new transaction that overlaps
//! several partitions forces them to merge (the paper's window-seat /
//! aisle-seat example).

use std::collections::BTreeMap;
use std::sync::Arc;

use qdb_logic::{Atom, ResourceTransaction, Term, Var};
use qdb_solver::CachedSolution;

use crate::txn::PendingTxn;

/// One independent set of pending transactions plus its cached solution.
///
/// ```
/// use qdb_core::Partition;
/// use qdb_core::partition::transactions_overlap;
/// use qdb_logic::parse_transaction;
///
/// let booking = |flight: i64, name: &str| {
///     parse_transaction(&format!(
///         "-Available({flight}, s), +Bookings('{name}', {flight}, s) \
///          :-1 Available({flight}, s)"
///     ))
///     .unwrap()
/// };
/// // Bookings on different flights never unify: they are independent and
/// // would live in separate partitions (§4 "Quantum State").
/// assert!(!transactions_overlap(&booking(1, "Mickey"), &booking(2, "Donald")));
///
/// let p = Partition::new();
/// assert!(p.is_empty());
/// // An empty partition overlaps nothing.
/// assert!(!p.overlaps(&booking(1, "Mickey")));
/// // Its footprint is the overlap summary the sharded engine's registry
/// // keeps outside the partition lock.
/// assert!(!p.footprint().overlaps_txn(&booking(1, "Mickey")));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Partition {
    /// Pending transactions in arrival order.
    pub txns: Vec<PendingTxn>,
    /// One known-consistent grounding, parallel to `txns`.
    pub cache: CachedSolution,
    /// Alternative cached groundings (§4's multi-solution strategy; see
    /// [`crate::QuantumDbConfig::cache_solutions`]). Invalidated whenever
    /// the partition or the base database changes shape.
    pub extras: Vec<CachedSolution>,
    /// The admission overlay: `cache`'s pending updates pre-applied as a
    /// virtual state, so a cache-extension admission solves the newcomer
    /// in O(1) instead of re-grounding all pending updates (O(n) per
    /// submit). Strictly an acceleration of `cache` — it MUST be cleared
    /// (via [`Partition::invalidate_solution_caches`]) whenever
    /// `cache.valuations` changes in any way other than appending the
    /// newcomer the overlay solve itself admitted, or a front-move
    /// grounding that installs the plan's rebased overlay (the residue's
    /// verified virtual state over the post-grounding base); admission
    /// rebuilds it lazily, and debug builds assert it matches a fresh
    /// rebuild.
    pub(crate) overlay_cache: Option<qdb_solver::Overlay>,
}

impl Partition {
    /// Empty partition.
    pub fn new() -> Self {
        Partition::default()
    }

    /// Number of pending transactions.
    pub fn len(&self) -> usize {
        self.txns.len()
    }

    /// True when no transactions are pending.
    pub fn is_empty(&self) -> bool {
        self.txns.is_empty()
    }

    /// Transaction references in arrival order (the shape the solver
    /// APIs take).
    pub fn txn_refs(&self) -> Vec<&ResourceTransaction> {
        self.txns.iter().map(|p| &p.txn).collect()
    }

    /// Could `txn` interact with this partition? Conservative unifiability
    /// check across all atoms (body and updates) of both sides.
    pub fn overlaps(&self, txn: &ResourceTransaction) -> bool {
        self.txns.iter().any(|p| transactions_overlap(&p.txn, txn))
    }

    /// Merge `other` into `self`, keeping global arrival order. Because
    /// partitions are independent (no unifiable atoms), the union of their
    /// cached groundings remains consistent; entries are interleaved to
    /// stay parallel with the transaction order.
    pub fn merge(&mut self, other: Partition) {
        let mut txns = Vec::with_capacity(self.len() + other.len());
        let mut cache = Vec::with_capacity(self.len() + other.len());
        let mut a = std::mem::take(&mut self.txns)
            .into_iter()
            .zip(std::mem::take(&mut self.cache.valuations))
            .peekable();
        let mut b = other
            .txns
            .into_iter()
            .zip(other.cache.valuations)
            .peekable();
        loop {
            let take_a = match (a.peek(), b.peek()) {
                (Some((ta, _)), Some((tb, _))) => ta.id < tb.id,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            let (t, v) = if take_a {
                a.next().expect("peeked")
            } else {
                b.next().expect("peeked")
            };
            txns.push(t);
            cache.push(v);
        }
        self.txns = txns;
        self.cache = CachedSolution { valuations: cache };
        // Alternative solutions are positional and the admission overlay
        // mirrors the pre-merge valuation list; a merge invalidates both.
        self.invalidate_solution_caches();
    }

    /// Drop everything derived from `cache.valuations`: the alternative
    /// solutions and the admission overlay. Must be called whenever the
    /// cached valuations are replaced (grounding, blind-write
    /// revalidation, merges, re-solves).
    pub(crate) fn invalidate_solution_caches(&mut self) {
        self.extras.clear();
        self.overlay_cache = None;
    }

    /// Position of a transaction by id.
    pub fn position(&self, id: u64) -> Option<usize> {
        self.txns.iter().position(|p| p.id == id)
    }

    /// Remove the transaction at `index`, returning it and its cached
    /// grounding.
    pub fn remove(&mut self, index: usize) -> (PendingTxn, qdb_logic::Valuation) {
        let txn = self.txns.remove(index);
        let val = self.cache.remove(index);
        (txn, val)
    }

    /// A copy of the pending transactions and their cached solution,
    /// without what is derived from them (alternatives, admission
    /// overlay) — for readers and scratch planning, which use neither.
    pub fn clone_pending(&self) -> Partition {
        Partition {
            txns: self.txns.clone(),
            cache: self.cache.clone(),
            ..Partition::default()
        }
    }

    /// Overlap summary of this partition's current contents.
    pub fn footprint(&self) -> Footprint {
        let mut fp = Footprint::default();
        for pt in &self.txns {
            fp.absorb_txn(&pt.txn);
        }
        fp
    }
}

/// A partition's overlap summary: the atoms of its pending transactions,
/// split into update atoms and body atoms, as counted multisets.
///
/// The sharded engine keeps one `Footprint` per partition in its registry,
/// *outside* the partition's lock, so overlap scans (which partitions
/// could a new transaction, read or write interact with?) never block on a
/// partition that is busy solving. The registry maintains the invariant
/// that a partition's published footprint is a superset of the atoms of
/// every transaction that will ever enter the partition, so a scan that
/// sees no overlap can safely skip the partition without locking it.
///
/// Each atom is stored with its variables erased — relation, arity and
/// the constant at each position are all that [`Atom::may_overlap`] looks
/// at — and counted, so the same shape from many transactions is one
/// entry. Counting is what makes the summary *maintainable*: admission
/// adds the newcomer's atoms ([`Footprint::absorb_txn`]), grounding and
/// refusal take theirs back out ([`Footprint::retire`]), and a
/// published footprint equals, as a multiset, the one rebuilt from its
/// partition's contents ([`Partition::footprint`]) — never rebuilt on the
/// hot path.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Footprint {
    /// Atoms written (inserted or deleted) by the pending transactions.
    update_atoms: BTreeMap<ErasedAtom, usize>,
    /// Body (read) atoms of the pending transactions.
    body_atoms: BTreeMap<ErasedAtom, usize>,
}

/// An atom with every variable replaced by one shared placeholder: the
/// part of an atom [`Atom::may_overlap`] depends on, usable as a map key.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ErasedAtom(Atom);

/// The variable every erased position holds.
fn placeholder() -> Term {
    static PLACEHOLDER: std::sync::OnceLock<Var> = std::sync::OnceLock::new();
    Term::Var(PLACEHOLDER.get_or_init(|| Var::new(u32::MAX, "_")).clone())
}

impl ErasedAtom {
    fn of(atom: &Atom) -> Self {
        ErasedAtom(Atom {
            relation: Arc::clone(&atom.relation),
            terms: atom
                .terms
                .iter()
                .map(|t| match t {
                    Term::Var(_) => placeholder(),
                    Term::Const(c) => Term::Const(c.clone()),
                })
                .collect(),
        })
    }
}

impl Ord for ErasedAtom {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (&self.0.relation, &self.0.terms).cmp(&(&other.0.relation, &other.0.terms))
    }
}

impl PartialOrd for ErasedAtom {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

fn count_in<'a>(map: &mut BTreeMap<ErasedAtom, usize>, atoms: impl Iterator<Item = &'a Atom>) {
    for atom in atoms {
        *map.entry(ErasedAtom::of(atom)).or_insert(0) += 1;
    }
}

/// Does any key of `map` may-overlap `atom`? Only keys that can are
/// scanned: keys sort by relation, then terms, with the placeholder before
/// every constant, so those of `atom`'s relation are one range — narrowed,
/// when `atom` starts with a constant `c`, to the keys starting with the
/// placeholder or with `c`. [`Atom::may_overlap`] decides each one.
fn any_overlaps(map: &BTreeMap<ErasedAtom, usize>, atom: &Atom) -> bool {
    let scan = |first: Option<Term>| {
        let from = ErasedAtom(Atom {
            relation: Arc::clone(&atom.relation),
            terms: first.iter().cloned().collect(),
        });
        map.range(from..)
            .map(|(k, _)| &k.0)
            .take_while(|k| {
                k.relation == atom.relation
                    && (first.is_none() || k.terms.first() == first.as_ref())
            })
            .any(|k| k.may_overlap(atom))
    };
    match atom.terms.first() {
        Some(c @ Term::Const(_)) => scan(Some(placeholder())) || scan(Some(c.clone())),
        _ => scan(None),
    }
}

fn merge_counts(into: &mut BTreeMap<ErasedAtom, usize>, mut from: BTreeMap<ErasedAtom, usize>) {
    if from.len() > into.len() {
        std::mem::swap(into, &mut from);
    }
    for (key, n) in from {
        *into.entry(key).or_insert(0) += n;
    }
}

impl Footprint {
    /// The footprint of a single transaction.
    pub fn of_txn(txn: &ResourceTransaction) -> Self {
        let mut fp = Footprint::default();
        fp.absorb_txn(txn);
        fp
    }

    /// Add one transaction's atoms.
    pub fn absorb_txn(&mut self, txn: &ResourceTransaction) {
        count_in(&mut self.update_atoms, txn.updates.iter().map(|u| &u.atom));
        count_in(&mut self.body_atoms, txn.body.iter().map(|b| &b.atom));
    }

    /// Merge another footprint in (partition merge). Costs the size of
    /// the smaller of the two.
    pub fn absorb(&mut self, other: Footprint) {
        merge_counts(&mut self.update_atoms, other.update_atoms);
        merge_counts(&mut self.body_atoms, other.body_atoms);
    }

    /// Take another footprint's atoms back out (its transactions were
    /// grounded or refused); every one must be counted here.
    pub fn retire(&mut self, other: &Footprint) {
        for (map, from) in [
            (&mut self.update_atoms, &other.update_atoms),
            (&mut self.body_atoms, &other.body_atoms),
        ] {
            for (key, &n) in from {
                let have = map
                    .get_mut(key)
                    .expect("retired atom was counted into the footprint");
                *have -= n;
                if *have == 0 {
                    map.remove(key);
                }
            }
        }
    }

    /// Could `txn` be dependent on the summarized partition? Mirrors
    /// [`transactions_overlap`]: a write/read or write/write conflict —
    /// an update atom of one side may-overlapping any atom of the other.
    pub fn overlaps_txn(&self, txn: &ResourceTransaction) -> bool {
        all_atoms(txn).any(|ta| any_overlaps(&self.update_atoms, ta))
            || txn.updates.iter().any(|u| self.touched_by_write(&u.atom))
    }

    /// Could answering a query over `atoms` observe the summarized pending
    /// updates? Mirrors [`crate::read::read_affects`]: query atoms against
    /// update atoms only. Also the relevance test for PEEK/POSSIBLE
    /// overlays — a partition whose updates cannot unify with any query
    /// atom cannot change the query's answer in any possible world.
    pub fn touched_by_query(&self, atoms: &[Atom]) -> bool {
        atoms.iter().any(|qa| any_overlaps(&self.update_atoms, qa))
    }

    /// Could a blind write of `atom` (a fully-constant tuple) interact
    /// with the summarized partition? Conservative over *all* atoms, like
    /// the engine's write-admission check.
    pub fn touched_by_write(&self, atom: &Atom) -> bool {
        any_overlaps(&self.update_atoms, atom) || any_overlaps(&self.body_atoms, atom)
    }
}

/// Conservative dependence test between two transactions.
///
/// Dependence requires a potential **write/read or write/write** conflict:
/// an *update* atom of one side may-overlapping any atom of the other.
/// Body atoms over relations neither transaction writes (e.g. the shared
/// read-only `Adjacent` table) unify freely without creating dependence —
/// this is what lets the system "correctly identify the independence of
/// queries between different flights" (§5.3) even though every booking
/// reads the same adjacency relation.
pub fn transactions_overlap(a: &ResourceTransaction, b: &ResourceTransaction) -> bool {
    let updates_vs_atoms = |x: &ResourceTransaction, y: &ResourceTransaction| {
        x.updates
            .iter()
            .any(|u| all_atoms(y).any(|ya| u.atom.may_overlap(ya)))
    };
    updates_vs_atoms(a, b) || updates_vs_atoms(b, a)
}

fn all_atoms(t: &ResourceTransaction) -> impl Iterator<Item = &Atom> + '_ {
    t.body
        .iter()
        .map(|b| &b.atom)
        .chain(t.updates.iter().map(|u| &u.atom))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdb_logic::parse_transaction;
    use qdb_logic::Valuation;

    fn book_flight(f: i64, name: &str) -> ResourceTransaction {
        parse_transaction(&format!(
            "-Available({f}, s), +Bookings('{name}', {f}, s) :-1 Available({f}, s)"
        ))
        .unwrap()
    }

    #[test]
    fn different_flights_are_independent() {
        let t1 = book_flight(1, "M");
        let t2 = book_flight(2, "D");
        assert!(!transactions_overlap(&t1, &t2));
        // Unconstrained flight overlaps both.
        let t3 = parse_transaction("-Available(f, s), +Bookings('G', f, s) :-1 Available(f, s)")
            .unwrap();
        assert!(transactions_overlap(&t1, &t3));
        assert!(transactions_overlap(&t2, &t3));
    }

    #[test]
    fn partition_overlap_and_position() {
        let mut p = Partition::new();
        p.txns.push(PendingTxn::new(4, book_flight(1, "M")));
        p.cache.valuations.push(Valuation::new());
        assert!(p.overlaps(&book_flight(1, "D")));
        assert!(!p.overlaps(&book_flight(2, "D")));
        assert_eq!(p.position(4), Some(0));
        assert_eq!(p.position(9), None);
    }

    #[test]
    fn merge_preserves_arrival_order() {
        let mut p1 = Partition::new();
        let mut p2 = Partition::new();
        for id in [1u64, 5, 7] {
            p1.txns.push(PendingTxn::new(id, book_flight(1, "A")));
            p1.cache.valuations.push(Valuation::new());
        }
        for id in [2u64, 3, 9] {
            p2.txns.push(PendingTxn::new(id, book_flight(2, "B")));
            p2.cache.valuations.push(Valuation::new());
        }
        p1.merge(p2);
        let ids: Vec<u64> = p1.txns.iter().map(|t| t.id).collect();
        assert_eq!(ids, vec![1, 2, 3, 5, 7, 9]);
        assert_eq!(p1.cache.len(), 6);
    }

    #[test]
    fn footprint_mirrors_partition_overlap() {
        let mut p = Partition::new();
        p.txns.push(PendingTxn::new(1, book_flight(1, "M")));
        p.cache.valuations.push(Valuation::new());
        let fp = p.footprint();
        // Same answers as the exact partition-contents tests.
        assert!(fp.overlaps_txn(&book_flight(1, "D")));
        assert!(!fp.overlaps_txn(&book_flight(2, "D")));
        let q = qdb_logic::parse_query("Bookings('M', f, s)").unwrap();
        assert!(fp.touched_by_query(&q.atoms));
        let other = qdb_logic::parse_query("Bookings('D', f, s)").unwrap();
        assert!(!fp.touched_by_query(&other.atoms));
        // A write onto the read side (Available) touches; an unrelated
        // constant tuple does not.
        let avail = Atom::new(
            "Available",
            vec![
                qdb_logic::Term::Const(1i64.into()),
                qdb_logic::Term::Const("1A".into()),
            ],
        );
        assert!(fp.touched_by_write(&avail));
        let unrelated = Atom::new("Hotels", vec![qdb_logic::Term::Const(9i64.into())]);
        assert!(!fp.touched_by_write(&unrelated));
        // Merged footprints cover both sides.
        let mut merged = fp.clone();
        merged.absorb(Footprint::of_txn(&book_flight(2, "D")));
        assert!(merged.overlaps_txn(&book_flight(2, "X")));
    }

    #[test]
    fn footprint_counts_erased_atoms() {
        // Two bookings on flight 1 share the `Available(1, _)` shape: one
        // entry counted twice, whatever their variables are named.
        let a = book_flight(1, "M");
        let b = book_flight(1, "D");
        let mut fp = Footprint::of_txn(&a);
        fp.absorb_txn(&b);
        let mut both = Footprint::of_txn(&b);
        both.absorb(Footprint::of_txn(&a));
        assert_eq!(fp, both, "multiset equality ignores arrival order");
        // Retiring one keeps the shared shape alive for the other.
        fp.retire(&Footprint::of_txn(&a));
        assert_eq!(fp, Footprint::of_txn(&b));
        assert!(fp.overlaps_txn(&book_flight(1, "X")));
        let q = qdb_logic::parse_query("Bookings('M', f, s)").unwrap();
        assert!(!fp.touched_by_query(&q.atoms));
        // Retiring a whole footprint empties it.
        fp.retire(&Footprint::of_txn(&b));
        assert_eq!(fp, Footprint::default());
        assert!(!fp.overlaps_txn(&book_flight(1, "X")));
    }

    #[test]
    fn footprint_answers_match_brute_force_scans() {
        // Atoms mix variables and constants in every position (the first
        // one included, which the key ranges are narrowed on), over two
        // relations and two arities.
        let mut state = 7u64;
        let mut pick = |n: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % n
        };
        let term = |vars: &[&str], pick: &mut dyn FnMut(u64) -> u64| -> String {
            match pick(5) {
                0 => "1".into(),
                1 => "2".into(),
                2 => "'a'".into(),
                _ => vars[pick(vars.len() as u64) as usize].to_string(),
            }
        };
        let atom = |vars: &[&str], pick: &mut dyn FnMut(u64) -> u64| -> String {
            let rel = ["R", "S"][pick(2) as usize];
            let arity = 1 + pick(2) as usize;
            let terms: Vec<String> = (0..arity).map(|_| term(vars, pick)).collect();
            format!("{rel}({})", terms.join(", "))
        };
        for _ in 0..60 {
            let mut txns = Vec::new();
            for _ in 0..1 + pick(4) {
                let body = atom(&["x", "y"], &mut pick);
                let body_vars: Vec<&str> = ["x", "y"]
                    .into_iter()
                    .filter(|v| body.contains(v))
                    .collect();
                let vars = if body_vars.is_empty() {
                    vec!["1"]
                } else {
                    body_vars
                };
                let upd = atom(&vars, &mut pick);
                let sign = if pick(2) == 0 { '+' } else { '-' };
                txns.push(parse_transaction(&format!("{sign}{upd} :-1 {body}")).unwrap());
            }
            let mut fp = Footprint::default();
            for t in &txns {
                fp.absorb_txn(t);
            }
            for _ in 0..20 {
                let body = atom(&["u", "w"], &mut pick);
                let probe = parse_transaction(&format!("+{body} :-1 {body}")).unwrap();
                assert_eq!(
                    fp.overlaps_txn(&probe),
                    txns.iter().any(|t| transactions_overlap(t, &probe)),
                    "overlaps_txn: {probe:?}"
                );
                let q = qdb_logic::parse_query(&atom(&["u", "w"], &mut pick)).unwrap();
                assert_eq!(
                    fp.touched_by_query(&q.atoms),
                    txns.iter().any(|t| crate::read::read_affects(t, &q.atoms)),
                    "touched_by_query: {q:?}"
                );
                let w = &q.atoms[0];
                assert_eq!(
                    fp.touched_by_write(w),
                    txns.iter().any(|t| all_atoms(t).any(|a| a.may_overlap(w))),
                    "touched_by_write: {w:?}"
                );
            }
        }
    }

    #[test]
    fn remove_keeps_cache_parallel() {
        let mut p = Partition::new();
        for id in [1u64, 2] {
            p.txns.push(PendingTxn::new(id, book_flight(1, "A")));
            p.cache.valuations.push(Valuation::new());
        }
        let (t, _v) = p.remove(0);
        assert_eq!(t.id, 1);
        assert_eq!(p.len(), 1);
        assert_eq!(p.cache.len(), 1);
    }
}
