//! The consistent-grounding search.
//!
//! Given a base database and an ordered sequence of transaction specs, find
//! one valuation per transaction such that, executing the sequence in
//! order, every spec'd body atom grounds on the then-current virtual state
//! and every update applies without violating set semantics. This is the
//! operational reading of Definition 3.1, and (by Theorem 3.5) equivalent
//! to satisfiability of the composed body formula — the equivalence is
//! cross-checked by property tests against a brute-force formula oracle.
//!
//! The inner loop is allocation-lean and index-driven: relation names are
//! resolved to interned [`RelationId`]s once per solve, candidates are
//! pulled through the streaming [`crate::CandidateIter`] (no per-node
//! `Vec`), and the dynamic atom ordering reads index bucket lengths where
//! an index serves the bound column.

use std::borrow::Borrow;

use qdb_logic::{Atom, Term, UpdateKind, Valuation, Var};
use qdb_storage::{Database, RelationId, Tuple, Value, WriteOp};

use crate::error::SolverError;
use crate::overlay::Overlay;
use crate::spec::{Solution, TxnSpec};
use crate::stats::SolverStats;
use crate::Result;

/// Which body atom the search branches on next.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AtomOrder {
    /// Dynamically pick the unmatched atom with the fewest candidates —
    /// the default, analogous to a decent join order.
    #[default]
    MostConstrained,
    /// Left-to-right in body order — mimics the fixed join order of the
    /// paper's monolithic LIMIT-1 queries (kept for the ablation bench;
    /// MySQL's `optimizer_search_depth` troubles in §5.3 are exactly the
    /// cost of getting this ordering wrong).
    Static,
}

/// Search resource bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchLimits {
    /// Maximum candidate tuples tried across one `solve` call.
    pub max_nodes: u64,
}

impl Default for SearchLimits {
    fn default() -> Self {
        SearchLimits {
            max_nodes: 10_000_000,
        }
    }
}

/// The grounding solver. Holds configuration and cumulative statistics;
/// all search state lives on the stack of each call.
#[derive(Debug, Default, Clone)]
pub struct Solver {
    /// Atom ordering strategy.
    pub order: AtomOrder,
    /// Resource bounds.
    pub limits: SearchLimits,
    /// Tie-break seed for [`AtomOrder::MostConstrained`]: when two
    /// unmatched atoms have the same candidate count, `0` (the default)
    /// keeps the first in body order — bit-identical to the historical
    /// behavior — while any other value breaks the tie by a seeded hash.
    /// Every run is deterministic either way; the seed only *selects*
    /// which deterministic exploration order a run gets, so simulation
    /// sweeps can vary search-order decisions per seed and still replay
    /// any run exactly.
    pub seed: u64,
    stats: SolverStats,
    /// Observability handle: when set, `solve_in`, `verify` and
    /// `enumerate_one` record their wall time as
    /// [`qdb_obs::Phase::Solve`].
    obs: Option<std::sync::Arc<qdb_obs::Obs>>,
}

/// One splitmix64 mixing round — the tie-break hash for seeded atom
/// ordering (same finalizer the workload RNG uses).
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-spec relation ids, resolved once per solver entry point: one id per
/// [`TxnSpec::atoms`] entry, one `(is_insert, id)` per update atom.
struct ResolvedSpec {
    atom_rids: Vec<RelationId>,
    updates: Vec<(bool, RelationId)>,
}

fn resolve_specs(base: &Database, specs: &[TxnSpec<'_>]) -> Result<Vec<ResolvedSpec>> {
    specs
        .iter()
        .map(|spec| {
            let atom_rids = spec
                .atoms()
                .iter()
                .map(|a| base.resolve(&a.relation).map_err(SolverError::Storage))
                .collect::<Result<Vec<_>>>()?;
            let updates = spec
                .txn
                .updates
                .iter()
                .map(|u| {
                    base.resolve(&u.atom.relation)
                        .map(|rid| (u.kind == UpdateKind::Insert, rid))
                        .map_err(SolverError::Storage)
                })
                .collect::<Result<Vec<_>>>()?;
            Ok(ResolvedSpec { atom_rids, updates })
        })
        .collect()
}

impl Solver {
    /// Solver with the given strategy and default limits.
    pub fn new(order: AtomOrder) -> Self {
        Solver {
            order,
            ..Solver::default()
        }
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> &SolverStats {
        &self.stats
    }

    /// Reset statistics.
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Install the observability handle search timings feed into.
    pub fn set_obs(&mut self, obs: Option<std::sync::Arc<qdb_obs::Obs>>) {
        self.obs = obs;
    }

    /// Run `f` and record its wall time as [`qdb_obs::Phase::Solve`].
    fn timed<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        let t0 = self.obs.is_some().then(std::time::Instant::now);
        let r = f(self);
        if let (Some(obs), Some(t0)) = (self.obs.as_ref(), t0) {
            obs.phase(qdb_obs::Phase::Solve, t0.elapsed());
        }
        r
    }

    /// Find a consistent grounding for `specs` executed in order on
    /// `base + pre_ops`. `pre_ops` (the already-fixed updates of a cached
    /// solution) must apply cleanly — a conflict there is an internal
    /// error, not a search failure.
    pub fn solve(
        &mut self,
        base: &Database,
        pre_ops: &[WriteOp],
        specs: &[TxnSpec<'_>],
    ) -> Result<Option<Solution>> {
        let mut overlay = Overlay::new();
        for op in pre_ops {
            overlay.apply(base, op)?;
        }
        self.solve_in(base, &mut overlay, specs)
    }

    /// [`Solver::solve`] against a caller-provided virtual state. On
    /// success the overlay is left with the solution's updates **applied**
    /// (the caller may keep it as the post-admission virtual state); on
    /// an unsatisfiable search it is rolled back to its entry state; after
    /// an error (e.g. the node limit) its contents are unspecified and
    /// must be discarded.
    pub fn solve_in(
        &mut self,
        base: &Database,
        overlay: &mut Overlay,
        specs: &[TxnSpec<'_>],
    ) -> Result<Option<Solution>> {
        self.timed(|s| s.solve_in_inner(base, overlay, specs))
    }

    fn solve_in_inner(
        &mut self,
        base: &Database,
        overlay: &mut Overlay,
        specs: &[TxnSpec<'_>],
    ) -> Result<Option<Solution>> {
        let resolved = resolve_specs(base, specs)?;
        let mut ctx = Ctx {
            base,
            specs,
            resolved: &resolved,
            order: self.order,
            seed: self.seed,
            max_nodes: self.limits.max_nodes,
            nodes: 0,
            stats: &mut self.stats,
            collect_first: None,
        };
        let mut valuations = Vec::with_capacity(specs.len());
        let found = ctx.solve_txn(0, overlay, &mut valuations);
        let nodes = ctx.nodes;
        self.stats.nodes += nodes;
        self.stats.solves += 1;
        match found? {
            true => Ok(Some(Solution { valuations })),
            false => {
                self.stats.unsat += 1;
                Ok(None)
            }
        }
    }

    /// Check that `valuations` is (still) a consistent grounding for
    /// `specs` on `base + pre_ops`. Much cheaper than solving; used to
    /// revalidate cached solutions after reads, writes and reorderings.
    pub fn verify(
        &mut self,
        base: &Database,
        pre_ops: &[WriteOp],
        specs: &[TxnSpec<'_>],
        valuations: &[Valuation],
    ) -> Result<bool> {
        self.timed(|s| {
            let mut overlay = Overlay::new();
            for op in pre_ops {
                overlay.apply(base, op)?;
            }
            s.verify_in_inner(base, &mut overlay, specs, valuations)
        })
    }

    /// [`Solver::verify`] against a caller-provided virtual state. On
    /// success the overlay is left with every spec's updates **applied**
    /// under its valuation (the caller may keep it as the verified
    /// virtual state); after a failed check its contents are unspecified
    /// and must be discarded.
    pub fn verify_in<V: Borrow<Valuation>>(
        &mut self,
        base: &Database,
        overlay: &mut Overlay,
        specs: &[TxnSpec<'_>],
        valuations: &[V],
    ) -> Result<bool> {
        self.timed(|s| s.verify_in_inner(base, overlay, specs, valuations))
    }

    fn verify_in_inner<V: Borrow<Valuation>>(
        &mut self,
        base: &Database,
        overlay: &mut Overlay,
        specs: &[TxnSpec<'_>],
        valuations: &[V],
    ) -> Result<bool> {
        self.stats.verifies += 1;
        if specs.len() != valuations.len() {
            self.stats.verify_failures += 1;
            return Ok(false);
        }
        let resolved = resolve_specs(base, specs)?;
        for ((spec, val), rspec) in specs.iter().zip(valuations).zip(&resolved) {
            let val = val.borrow();
            for (atom, &rid) in spec.atoms().iter().zip(&rspec.atom_rids) {
                let tuple = match atom.ground(val) {
                    Ok(t) => t,
                    Err(_) => {
                        self.stats.verify_failures += 1;
                        return Ok(false); // valuation doesn't even cover the atom
                    }
                };
                if !overlay.visible_id(base, rid, &tuple) {
                    self.stats.verify_failures += 1;
                    return Ok(false);
                }
            }
            for (u, &(insert, rid)) in spec.txn.updates.iter().zip(&rspec.updates) {
                let tuple = u.atom.ground(val)?;
                if !overlay.try_apply_id(base, rid, insert, &tuple) {
                    self.stats.verify_failures += 1;
                    return Ok(false);
                }
            }
        }
        Ok(true)
    }

    /// Enumerate up to `max` distinct groundings of a *single* spec on
    /// `base + pre_ops` (each one's updates must apply cleanly). Used by
    /// grounding heuristics that score alternatives before fixing one.
    pub fn enumerate_one(
        &mut self,
        base: &Database,
        pre_ops: &[WriteOp],
        spec: &TxnSpec<'_>,
        max: usize,
    ) -> Result<Vec<Valuation>> {
        self.timed(|s| s.enumerate_one_inner(base, pre_ops, spec, max))
    }

    fn enumerate_one_inner(
        &mut self,
        base: &Database,
        pre_ops: &[WriteOp],
        spec: &TxnSpec<'_>,
        max: usize,
    ) -> Result<Vec<Valuation>> {
        let mut overlay = Overlay::new();
        for op in pre_ops {
            overlay.apply(base, op)?;
        }
        let specs = std::slice::from_ref(spec);
        let resolved = resolve_specs(base, specs)?;
        let mut collected = Vec::new();
        let mut ctx = Ctx {
            base,
            specs,
            resolved: &resolved,
            order: self.order,
            seed: self.seed,
            max_nodes: self.limits.max_nodes,
            nodes: 0,
            stats: &mut self.stats,
            collect_first: Some((max, &mut collected)),
        };
        let mut valuations = Vec::with_capacity(1);
        // In collect mode solve_txn never reports success; it fills the
        // collector until exhaustion or `max`.
        let res = ctx.solve_txn(0, &mut overlay, &mut valuations);
        let nodes = ctx.nodes;
        self.stats.nodes += nodes;
        res?;
        self.stats.enumerated += collected.len() as u64;
        // Deduplicate while preserving discovery order.
        let mut seen = std::collections::BTreeSet::new();
        collected.retain(|v| seen.insert(v.clone()));
        Ok(collected)
    }
}

struct Ctx<'a, 'c> {
    base: &'a Database,
    specs: &'a [TxnSpec<'a>],
    resolved: &'a [ResolvedSpec],
    order: AtomOrder,
    seed: u64,
    max_nodes: u64,
    /// Nodes expanded by *this* call (the limit is per-call; cumulative
    /// stats absorb it afterwards).
    nodes: u64,
    stats: &'c mut SolverStats,
    /// When set, collect up to N valuations of spec 0 instead of solving
    /// the whole sequence.
    collect_first: Option<(usize, &'c mut Vec<Valuation>)>,
}

impl<'a, 'c> Ctx<'a, 'c> {
    fn solve_txn(
        &mut self,
        i: usize,
        overlay: &mut Overlay,
        out: &mut Vec<Valuation>,
    ) -> Result<bool> {
        if i == self.specs.len() {
            return Ok(self.collect_first.is_none());
        }
        let atoms = self.specs[i].atoms();
        let mut used = vec![false; atoms.len()];
        let mut val = Valuation::new();
        self.solve_atoms(i, &atoms, &mut used, &mut val, overlay, out)
    }

    #[allow(clippy::too_many_arguments)]
    fn solve_atoms(
        &mut self,
        i: usize,
        atoms: &[&Atom],
        used: &mut [bool],
        val: &mut Valuation,
        overlay: &mut Overlay,
        out: &mut Vec<Valuation>,
    ) -> Result<bool> {
        if used.iter().all(|&u| u) {
            return self.complete_txn(i, val, overlay, out);
        }
        let (idx, bound) = self.pick_atom(i, atoms, used, val, overlay)?;
        let atom = atoms[idx];
        let rid = self.resolved[i].atom_rids[idx];
        let mut candidates = overlay.stream(self.base, rid, bound)?;
        if candidates.is_index_backed() {
            self.stats.index_lookups += 1;
        } else {
            self.stats.scan_lookups += 1;
        }
        used[idx] = true;
        while let Some(tuple) = candidates.next(overlay) {
            self.nodes += 1;
            self.stats.candidates_streamed += 1;
            if self.nodes > self.max_nodes {
                return Err(SolverError::LimitExceeded { nodes: self.nodes });
            }
            if let Some(newly) = match_atom(atom, &tuple, val) {
                let done = self.solve_atoms(i, atoms, used, val, overlay, out)?;
                for v in &newly {
                    val.unbind(v);
                }
                if done {
                    used[idx] = false;
                    return Ok(true);
                }
            }
        }
        used[idx] = false;
        Ok(false)
    }

    /// All atoms of txn `i` are matched: apply its updates and move on.
    /// Updates are grounded straight into id-based overlay ops — no
    /// [`WriteOp`] (and no relation-string clone) is materialized.
    fn complete_txn(
        &mut self,
        i: usize,
        val: &mut Valuation,
        overlay: &mut Overlay,
        out: &mut Vec<Valuation>,
    ) -> Result<bool> {
        let mark = overlay.mark();
        let spec = &self.specs[i];
        for (u, &(insert, rid)) in spec.txn.updates.iter().zip(&self.resolved[i].updates) {
            let tuple = u.atom.ground(val)?;
            if !overlay.try_apply_id(self.base, rid, insert, &tuple) {
                overlay.rollback(mark);
                return Ok(false); // set-semantics conflict: backtrack
            }
        }
        if let Some((max, collected)) = &mut self.collect_first {
            collected.push(val.clone());
            let full = collected.len() >= *max;
            overlay.rollback(mark);
            // `true` stops the search; in collect mode that means "quota
            // reached".
            return Ok(full);
        }
        out.push(val.clone());
        if self.solve_txn(i + 1, overlay, out)? {
            return Ok(true);
        }
        out.pop();
        overlay.rollback(mark);
        Ok(false)
    }

    /// Choose the next atom to branch on and return it with its bound
    /// columns (computed once, reused by the candidate stream).
    fn pick_atom(
        &mut self,
        i: usize,
        atoms: &[&Atom],
        used: &[bool],
        val: &Valuation,
        overlay: &Overlay,
    ) -> Result<(usize, Vec<Option<Value>>)> {
        let remaining = used.iter().filter(|&&u| !u).count();
        if remaining == 1 || self.order == AtomOrder::Static {
            let idx = used
                .iter()
                .position(|&u| !u)
                .expect("at least one unused atom");
            return Ok((idx, bound_columns(atoms[idx], val)));
        }
        // Saturating count: beyond 32 candidates the relative order of
        // atoms no longer changes the search usefully.
        const ORDER_CAP: usize = 32;
        let mut best: Option<(usize, usize, Vec<Option<Value>>)> = None;
        for (idx, atom) in atoms.iter().enumerate() {
            if used[idx] {
                continue;
            }
            let bound = bound_columns(atom, val);
            let rid = self.resolved[i].atom_rids[idx];
            let (n, index_backed) = overlay.count_up_to_id(self.base, rid, &bound, ORDER_CAP)?;
            // Classify index vs scan only for bound-column lookups — a
            // fully unbound count is an O(1) length read, neither.
            if bound.iter().any(Option::is_some) {
                if index_backed {
                    self.stats.index_lookups += 1;
                } else {
                    self.stats.scan_lookups += 1;
                }
            }
            // Strictly fewer candidates always wins. On an exact tie the
            // unseeded solver keeps the earlier atom (body order); a
            // non-zero seed instead hashes (seed, atom index) so different
            // seeds deterministically explore different orders.
            let replace = match best.as_ref() {
                None => true,
                Some((bi, bn, _)) => {
                    n < *bn
                        || (n == *bn
                            && self.seed != 0
                            && mix64(self.seed ^ idx as u64) > mix64(self.seed ^ *bi as u64))
                }
            };
            if replace {
                best = Some((idx, n, bound));
            }
            if n == 0 {
                break; // dead branch — pick it and fail fast
            }
        }
        let (idx, _, bound) = best.expect("at least one unused atom");
        Ok((idx, bound))
    }
}

/// Column constraints of `atom` under a partial valuation.
fn bound_columns(atom: &Atom, val: &Valuation) -> Vec<Option<Value>> {
    atom.terms
        .iter()
        .map(|t| match t {
            Term::Const(c) => Some(c.clone()),
            Term::Var(v) => val.get(v).cloned(),
        })
        .collect()
}

/// Try to extend `val` so `atom` matches `tuple`; returns newly bound vars
/// (for undo) or `None` on mismatch.
fn match_atom(atom: &Atom, tuple: &Tuple, val: &mut Valuation) -> Option<Vec<Var>> {
    debug_assert_eq!(atom.arity(), tuple.arity());
    let mut newly: Vec<Var> = Vec::new();
    for (term, value) in atom.terms.iter().zip(tuple.iter()) {
        let ok = match term {
            Term::Const(c) => c == value,
            Term::Var(v) => match val.get(v) {
                Some(existing) => existing == value,
                None => {
                    val.bind(v.clone(), value.clone());
                    newly.push(v.clone());
                    true
                }
            },
        };
        if !ok {
            for v in &newly {
                val.unbind(v);
            }
            return None;
        }
    }
    Some(newly)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdb_logic::parse_transaction;
    use qdb_storage::{tuple, Schema, ValueType};

    /// One flight (1) with seats 1A..1C available; Goofy already booked 1B
    /// on flight 1. Adjacency 1A-1B, 1B-1C (both directions).
    fn travel_db() -> Database {
        let mut db = Database::new();
        db.create_table(Schema::new(
            "Available",
            vec![("flight", ValueType::Int), ("seat", ValueType::Str)],
        ))
        .unwrap();
        db.create_table(Schema::new(
            "Bookings",
            vec![
                ("name", ValueType::Str),
                ("flight", ValueType::Int),
                ("seat", ValueType::Str),
            ],
        ))
        .unwrap();
        db.create_table(Schema::new(
            "Adjacent",
            vec![("s1", ValueType::Str), ("s2", ValueType::Str)],
        ))
        .unwrap();
        for s in ["1A", "1B", "1C"] {
            db.insert("Available", tuple![1, s]).unwrap();
        }
        db.insert("Bookings", tuple!["Goofy", 1, "1B"]).unwrap();
        for (a, b) in [("1A", "1B"), ("1B", "1A"), ("1B", "1C"), ("1C", "1B")] {
            db.insert("Adjacent", tuple![a, b]).unwrap();
        }
        db
    }

    fn book(name: &str) -> qdb_logic::ResourceTransaction {
        parse_transaction(&format!(
            "-Available(f, s), +Bookings('{name}', f, s) :-1 Available(f, s)"
        ))
        .unwrap()
    }

    #[test]
    fn single_txn_solves() {
        let db = travel_db();
        let t = book("Mickey");
        let mut solver = Solver::default();
        let sol = solver
            .solve(&db, &[], &[TxnSpec::required_only(&t)])
            .unwrap()
            .unwrap();
        assert_eq!(sol.valuations.len(), 1);
        // The solution grounds the update into valid ops.
        let ops = sol.write_ops(&[&t]).unwrap();
        assert_eq!(ops.len(), 2);
        assert_eq!(solver.stats().solves, 1);
        assert_eq!(solver.stats().unsat, 0);
        // The fast path streams candidates; nothing was materialized.
        assert!(solver.stats().candidates_streamed >= 1);
        assert_eq!(solver.stats().candidate_vecs, 0);
    }

    #[test]
    fn sequence_respects_earlier_deletes() {
        // Three bookings fit (three seats); a fourth cannot.
        let db = travel_db();
        let txns: Vec<_> = ["M", "D", "P", "Q"].iter().map(|n| book(n)).collect();
        let mut solver = Solver::default();
        let specs3: Vec<TxnSpec> = txns[..3].iter().map(TxnSpec::required_only).collect();
        assert!(solver.solve(&db, &[], &specs3).unwrap().is_some());
        let specs4: Vec<TxnSpec> = txns.iter().map(TxnSpec::required_only).collect();
        assert!(solver.solve(&db, &[], &specs4).unwrap().is_none());
        assert_eq!(solver.stats().unsat, 1);
    }

    #[test]
    fn body_can_ground_on_earlier_insert() {
        // T1 books Mickey; T2's body requires a Bookings tuple for Mickey —
        // only satisfiable via T1's pending insert (Lemma 3.4, insert case).
        let db = travel_db();
        let t1 = book("Mickey");
        let t2 = parse_transaction("+Confirmed(s) :-1 Bookings('Mickey', f, s)").unwrap();
        let mut db = db;
        db.create_table(Schema::new("Confirmed", vec![("seat", ValueType::Str)]))
            .unwrap();
        let mut solver = Solver::default();
        let specs = [TxnSpec::required_only(&t1), TxnSpec::required_only(&t2)];
        let sol = solver.solve(&db, &[], &specs).unwrap().unwrap();
        // T2's seat must equal T1's chosen seat.
        let s1 = t1.vars()[1].clone();
        let s2 = t2.vars()[1].clone();
        assert_eq!(sol.valuations[0].get(&s1), sol.valuations[1].get(&s2));
    }

    #[test]
    fn body_cannot_ground_on_earlier_delete() {
        // T1 deletes the ONLY seat (flight fixed, seat fixed); T2 needs it.
        let db = travel_db();
        let t1 = parse_transaction(
            "-Available(f, s), +Bookings('M', f, s) :-1 Available(f, s), Pin(f, s)",
        )
        .unwrap();
        let mut db = db;
        db.create_table(Schema::new(
            "Pin",
            vec![("flight", ValueType::Int), ("seat", ValueType::Str)],
        ))
        .unwrap();
        db.insert("Pin", tuple![1, "1A"]).unwrap(); // forces T1 onto 1A
        let t2 = parse_transaction("+X(f, s) :-1 Available(f, s), Pin(f, s)").unwrap();
        db.create_table(Schema::new(
            "X",
            vec![("flight", ValueType::Int), ("seat", ValueType::Str)],
        ))
        .unwrap();
        let mut solver = Solver::default();
        let specs = [TxnSpec::required_only(&t1), TxnSpec::required_only(&t2)];
        assert!(solver.solve(&db, &[], &specs).unwrap().is_none());
        // Reversed order: T2 reads 1A before T1 deletes it — satisfiable.
        let specs = [TxnSpec::required_only(&t2), TxnSpec::required_only(&t1)];
        assert!(solver.solve(&db, &[], &specs).unwrap().is_some());
    }

    #[test]
    fn duplicate_inserts_conflict() {
        // Both transactions want to insert Flag(1) — set semantics forbids.
        let mut db = Database::new();
        db.create_table(Schema::new("A", vec![("x", ValueType::Int)]))
            .unwrap();
        db.create_table(Schema::new("Flag", vec![("x", ValueType::Int)]))
            .unwrap();
        db.insert("A", tuple![1]).unwrap();
        let t = parse_transaction("+Flag(x) :-1 A(x)").unwrap();
        let t2 = t.clone();
        let mut solver = Solver::default();
        let specs = [TxnSpec::required_only(&t), TxnSpec::required_only(&t2)];
        assert!(solver.solve(&db, &[], &specs).unwrap().is_none());
        // With a second A-tuple there is room for both.
        db.insert("A", tuple![2]).unwrap();
        assert!(solver.solve(&db, &[], &specs).unwrap().is_some());
    }

    #[test]
    fn promoted_optionals_constrain() {
        let db = travel_db();
        // Mickey wants a seat adjacent to Goofy's (optional atoms).
        let t = parse_transaction(
            "-Available(f, s), +Bookings('Mickey', f, s) :-1 \
             Available(f, s), Bookings('Goofy', f, s2)?, Adjacent(s, s2)?",
        )
        .unwrap();
        let mut solver = Solver::default();
        let sol = solver
            .solve(&db, &[], &[TxnSpec::with_promoted(&t, vec![1, 2])])
            .unwrap()
            .unwrap();
        let s = t.vars()[1].clone();
        let seat = sol.valuations[0]
            .get(&s)
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();
        assert!(
            seat == "1A" || seat == "1C",
            "must sit next to 1B, got {seat}"
        );
    }

    #[test]
    fn pre_ops_shift_the_base_state() {
        let db = travel_db();
        let t = book("Mickey");
        let pre = vec![
            WriteOp::delete("Available", tuple![1, "1A"]),
            WriteOp::delete("Available", tuple![1, "1B"]),
            WriteOp::delete("Available", tuple![1, "1C"]),
        ];
        let mut solver = Solver::default();
        assert!(solver
            .solve(&db, &pre, &[TxnSpec::required_only(&t)])
            .unwrap()
            .is_none());
    }

    #[test]
    fn verify_accepts_solver_output_and_rejects_tampering() {
        let db = travel_db();
        let t1 = book("Mickey");
        let t2 = book("Donald");
        let specs = [TxnSpec::required_only(&t1), TxnSpec::required_only(&t2)];
        let mut solver = Solver::default();
        let sol = solver.solve(&db, &[], &specs).unwrap().unwrap();
        assert!(solver.verify(&db, &[], &specs, &sol.valuations).unwrap());
        // Tamper: point both transactions at the same seat.
        let mut bad = sol.valuations.clone();
        bad[1] = bad[0].clone();
        // (var ids differ across txns, so translate: rebind t2's vars to
        // t1's values)
        let v1 = &sol.valuations[0];
        let mut forged = Valuation::new();
        for (var, _) in sol.valuations[1].iter() {
            // find same-named var in t1's valuation
            let same = v1.iter().find(|(w, _)| w.name() == var.name()).unwrap();
            forged.bind(var.clone(), same.1.clone());
        }
        bad[1] = forged;
        assert!(!solver.verify(&db, &[], &specs, &bad).unwrap());
        assert_eq!(solver.stats().verify_failures, 1);
        // Wrong length also fails fast.
        assert!(!solver
            .verify(&db, &[], &specs, &sol.valuations[..1])
            .unwrap());
    }

    #[test]
    fn enumerate_lists_all_groundings() {
        let db = travel_db();
        let t = book("Mickey");
        let mut solver = Solver::default();
        let all = solver
            .enumerate_one(&db, &[], &TxnSpec::required_only(&t), 100)
            .unwrap();
        assert_eq!(all.len(), 3, "three available seats");
        let capped = solver
            .enumerate_one(&db, &[], &TxnSpec::required_only(&t), 2)
            .unwrap();
        assert_eq!(capped.len(), 2);
    }

    #[test]
    fn node_limit_is_enforced() {
        let db = travel_db();
        let t = book("Mickey");
        let mut solver = Solver::default();
        solver.limits.max_nodes = 1;
        let t2 = book("Donald");
        let specs = [TxnSpec::required_only(&t), TxnSpec::required_only(&t2)];
        assert!(matches!(
            solver.solve(&db, &[], &specs),
            Err(SolverError::LimitExceeded { .. })
        ));
    }

    #[test]
    fn static_and_dynamic_order_agree_on_satisfiability() {
        let db = travel_db();
        let txns: Vec<_> = (0..3).map(|i| book(&format!("U{i}"))).collect();
        let specs: Vec<TxnSpec> = txns.iter().map(TxnSpec::required_only).collect();
        let mut dynamic = Solver::new(AtomOrder::MostConstrained);
        let mut fixed = Solver::new(AtomOrder::Static);
        assert_eq!(
            dynamic.solve(&db, &[], &specs).unwrap().is_some(),
            fixed.solve(&db, &[], &specs).unwrap().is_some()
        );
    }

    #[test]
    fn indexed_base_reports_index_backed_lookups() {
        let mut db = travel_db();
        db.table_mut("Available").unwrap().create_index(0).unwrap();
        // Flight bound by a constant → the stream rides the index.
        let t = parse_transaction("-Available(1, s), +Bookings('M', 1, s) :-1 Available(1, s)")
            .unwrap();
        let mut solver = Solver::default();
        assert!(solver
            .solve(&db, &[], &[TxnSpec::required_only(&t)])
            .unwrap()
            .is_some());
        assert!(solver.stats().index_lookups > 0);
        assert_eq!(solver.stats().candidate_vecs, 0);
    }

    #[test]
    fn seeded_tie_breaks_are_deterministic_and_agree_on_satisfiability() {
        // Two body atoms with equal candidate counts force the dynamic
        // ordering onto its tie-break path on every node.
        let mut db = Database::new();
        db.create_table(Schema::new("A", vec![("x", ValueType::Int)]))
            .unwrap();
        db.create_table(Schema::new("B", vec![("y", ValueType::Int)]))
            .unwrap();
        db.create_table(Schema::new(
            "Out",
            vec![("x", ValueType::Int), ("y", ValueType::Int)],
        ))
        .unwrap();
        for v in [1, 2, 3] {
            db.insert("A", tuple![v]).unwrap();
            db.insert("B", tuple![10 + v]).unwrap();
        }
        let t = parse_transaction("+Out(x, y) :-1 A(x), B(y)").unwrap();
        let spec = TxnSpec::required_only(&t);
        let enumerate = |seed: u64| {
            let mut solver = Solver {
                seed,
                ..Default::default()
            };
            solver.enumerate_one(&db, &[], &spec, 100).unwrap()
        };
        // Any seed is self-consistent, seed 0 included; every seed agrees
        // on the full solution *set* (order may differ).
        for seed in [0, 1, 0xC1DE] {
            assert_eq!(enumerate(seed), enumerate(seed), "seed {seed} replays");
            let mut sorted = enumerate(seed);
            sorted.sort();
            let mut base = enumerate(0);
            base.sort();
            assert_eq!(sorted, base, "seed {seed} finds the same set");
        }
    }

    #[test]
    fn unknown_relation_is_a_storage_error() {
        let db = travel_db();
        let t = parse_transaction("+Ghost(x) :-1 Available(x, s)").unwrap();
        let mut solver = Solver::default();
        let err = solver
            .solve(&db, &[], &[TxnSpec::required_only(&t)])
            .unwrap_err();
        assert!(matches!(
            err,
            SolverError::Storage(qdb_storage::StorageError::NoSuchTable(_))
        ));
    }
}
