//! The quantum database engine (`QuantumDb`).
//!
//! State = extensional [`Database`] + partitions of pending resource
//! transactions + per-partition solution caches + a WAL. See the crate
//! docs for the operation semantics and the paper mapping.

use std::collections::BTreeSet;

use qdb_logic::codec::encode_transaction;
use qdb_logic::{Atom, Formula, ParsedQuery, ResourceTransaction, Valuation, Var, VarGen};
use qdb_solver::{CachedSolution, Solver, SolverStats, TxnSpec};
use qdb_storage::{ConjunctiveQuery, Database, LogRecord, Schema, Tuple, Wal, WriteOp};

use crate::config::QuantumDbConfig;
use crate::entangle::coordination_partners;

use crate::ground::GroundReason;
use crate::metrics::{Event, Metrics};
use crate::partition::Partition;
use crate::shard::SharedQuantumDb;
use crate::txn::{PendingTxn, TxnId};
use crate::Result;

/// Result of submitting a resource transaction.
///
/// `Committed` carries the §2 guarantee: *"the transaction will never need
/// to be rolled back"* — a suitable resource exists now and the engine will
/// keep it existing until the value assignment is fixed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// Admitted: at least one possible world satisfies all pending
    /// transactions including this one.
    Committed {
        /// Engine-assigned transaction id.
        id: TxnId,
    },
    /// Refused: admission would empty the set of possible worlds
    /// (Definition 3.1's ∅ state, which normal execution must avoid).
    Aborted,
}

impl SubmitOutcome {
    /// The id, when committed.
    pub fn id(&self) -> Option<TxnId> {
        match self {
            SubmitOutcome::Committed { id } => Some(*id),
            SubmitOutcome::Aborted => None,
        }
    }

    /// Did the transaction commit?
    pub fn is_committed(&self) -> bool {
        matches!(self, SubmitOutcome::Committed { .. })
    }
}

/// The quantum database engine. Single-threaded core; see
/// [`SharedQuantumDb`] for a thread-safe handle.
pub struct QuantumDb {
    pub(crate) db: Database,
    pub(crate) partitions: std::collections::BTreeMap<u64, Partition>,
    pub(crate) next_partition_id: u64,
    pub(crate) next_txn_id: TxnId,
    pub(crate) vargen: VarGen,
    pub(crate) solver: Solver,
    pub(crate) wal: Wal,
    pub(crate) config: QuantumDbConfig,
    pub(crate) metrics: Metrics,
    pub(crate) obs: std::sync::Arc<qdb_obs::Obs>,
}

impl std::fmt::Debug for QuantumDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QuantumDb")
            .field("tables", &self.db.tables().count())
            .field("rows", &self.db.total_rows())
            .field("partitions", &self.partitions.len())
            .field("pending", &self.pending_count())
            .field("next_txn_id", &self.next_txn_id)
            .finish_non_exhaustive()
    }
}

impl QuantumDb {
    /// New engine over an in-memory WAL.
    pub fn new(config: QuantumDbConfig) -> Result<Self> {
        Ok(Self::with_wal(config, Wal::in_memory()))
    }

    /// New engine over a caller-provided WAL (e.g. file-backed).
    pub fn with_wal(config: QuantumDbConfig, mut wal: Wal) -> Self {
        let obs = std::sync::Arc::new(qdb_obs::Obs::new());
        obs.set_slow_threshold_us(config.slow_op_threshold_us);
        wal.set_obs(Some(obs.clone()));
        let mut solver = Solver::new(config.solver_order);
        solver.limits = config.search_limits;
        solver.seed = config.seed;
        solver.set_obs(Some(obs.clone()));
        QuantumDb {
            db: Database::new(),
            partitions: std::collections::BTreeMap::new(),
            next_partition_id: 0,
            next_txn_id: 0,
            vargen: VarGen::new(),
            solver,
            wal,
            config,
            metrics: Metrics::default(),
            obs,
        }
    }

    // -- DDL & loading ------------------------------------------------------

    /// Create a table (logged).
    pub fn create_table(&mut self, schema: Schema) -> Result<()> {
        self.db.create_table(schema.clone())?;
        self.wal.append(&LogRecord::CreateTable(schema))?;
        Ok(())
    }

    /// Create a secondary index (logged).
    pub fn create_index(&mut self, relation: &str, column: usize) -> Result<()> {
        self.db.table_mut(relation)?.create_index(column)?;
        self.wal.append(&LogRecord::CreateIndex {
            relation: relation.to_string(),
            column: column as u32,
        })?;
        Ok(())
    }

    /// Insert a batch of rows. With no pending transactions this is a fast
    /// path (plain inserts); otherwise each row goes through the
    /// write-admission check.
    pub fn bulk_insert(&mut self, relation: &str, tuples: Vec<Tuple>) -> Result<usize> {
        let mut applied = 0;
        if self.pending_count() == 0 {
            for t in tuples {
                if self.db.insert(relation, t.clone())? {
                    self.wal
                        .append(&LogRecord::Write(WriteOp::insert(relation, t)))?;
                    applied += 1;
                }
            }
        } else {
            for t in tuples {
                if self.write(WriteOp::insert(relation, t))? {
                    applied += 1;
                }
            }
        }
        self.maybe_promote_indexes();
        Ok(applied)
    }

    /// Promote columns the access-pattern tracker flagged as hot into
    /// secondary indexes, logging each promotion (recovery rebuilds them).
    /// See [`crate::QuantumDbConfig::auto_index_threshold`].
    ///
    /// Best-effort by design: it runs *after* the enclosing operation has
    /// committed and been logged, so a promotion failure (a WAL drain I/O
    /// error) must not be reported as failure of that operation. Nothing
    /// is *wrong* after swallowing it either — an index is a rebuildable
    /// acceleration, so if the `CreateIndex` append fails (and per
    /// [`Wal::append`]'s contract is rolled out of the log), the worst
    /// case is a recovered engine that serves correct scans until the
    /// tracker's votes re-accumulate and promote again.
    pub(crate) fn maybe_promote_indexes(&mut self) {
        let threshold = self.config.auto_index_threshold;
        if threshold == 0 {
            return;
        }
        for (relation, column) in collect_hot_columns(&self.db, threshold) {
            let created = self
                .db
                .table_mut(&relation)
                .and_then(|t| t.create_index(column));
            if created.is_err() {
                continue; // unreachable for tracker-produced columns
            }
            let _ = self.wal.append(&LogRecord::CreateIndex {
                relation,
                column: column as u32,
            });
            self.metrics.indexes_auto_created += 1;
        }
    }

    // -- Resource transactions ---------------------------------------------

    /// Submit a resource transaction (§3.2.1).
    ///
    /// The body is checked for a consistent grounding given all pending
    /// transactions it may interact with; on success the transaction
    /// commits *without* assigning values (it becomes pending), the WAL
    /// records it for durability, coordination partners are grounded if
    /// configured (§5.1), and the `k` bound is enforced (§4).
    pub fn submit(&mut self, txn: &ResourceTransaction) -> Result<SubmitOutcome> {
        self.metrics.submitted += 1;
        txn.validate()?;
        self.validate_schema(txn)?;
        let freshened = txn.freshen(&mut self.vargen);
        let id = self.next_txn_id;

        let Some(pid) = self.admit(id, freshened)? else {
            self.metrics.aborted += 1;
            if self.config.record_events {
                self.metrics.events.push(Event::Aborted);
            }
            return Ok(SubmitOutcome::Aborted);
        };
        self.next_txn_id += 1;
        self.metrics.committed += 1;
        if self.config.record_events {
            self.metrics.events.push(Event::Committed(id));
        }

        // §5.1: entangled resource transactions are grounded as soon as
        // both coordination partners are in the system.
        if self.config.ground_on_partner_arrival {
            let partition = self
                .partitions
                .get(&pid)
                .expect("admit returned live partition");
            let new_txn = &partition
                .txns
                .iter()
                .find(|p| p.id == id)
                .expect("just admitted")
                .txn;
            let mut partners =
                coordination_partners(new_txn, partition.txns.iter().filter(|p| p.id != id));
            if !partners.is_empty() {
                partners.push(id);
                self.ground_set(pid, &partners, GroundReason::Partner)?;
            }
        }

        // §4: bound the composed body size.
        self.enforce_k(pid)?;
        // Table 1 counts a transaction as pending until its partner
        // arrives, so the high-water mark is sampled after partner
        // grounding and k-enforcement settle.
        let total_pending = self.pending_count() as u64;
        self.metrics.max_pending = self.metrics.max_pending.max(total_pending);
        self.maybe_promote_indexes();
        Ok(SubmitOutcome::Committed { id })
    }

    /// Admission: find the partitions the transaction may interact with,
    /// check the invariant over their union + the newcomer, and (only on
    /// success) merge and install. Returns the hosting partition id.
    pub(crate) fn admit(&mut self, id: TxnId, txn: ResourceTransaction) -> Result<Option<u64>> {
        self.admit_inner(id, txn, true)
    }

    /// Re-admit a transaction during recovery: same checks and placement,
    /// but no WAL record (its `PendingAdd` is already in the log).
    pub(crate) fn admit_recovered(&mut self, id: TxnId, txn: ResourceTransaction) -> Result<bool> {
        Ok(self.admit_inner(id, txn, false)?.is_some())
    }

    fn admit_inner(
        &mut self,
        id: TxnId,
        txn: ResourceTransaction,
        log: bool,
    ) -> Result<Option<u64>> {
        let targets: Vec<u64> = if self.config.partitioning {
            self.partitions
                .iter()
                .filter(|(_, p)| p.overlaps(&txn))
                .map(|(&k, _)| k)
                .collect()
        } else {
            self.partitions.keys().copied().collect()
        };

        // The admission overlay is only reusable for a single unmerged
        // target; taking it needs a mutable borrow, so do it first.
        let cached_overlay = if targets.len() == 1 {
            self.partitions
                .get_mut(&targets[0])
                .and_then(|p| p.overlay_cache.take())
        } else {
            None
        };
        // Merged view in arrival order, without touching the partitions.
        let mut merged: Vec<(&PendingTxn, &Valuation)> = Vec::new();
        for t in &targets {
            let p = &self.partitions[t];
            debug_assert_eq!(p.txns.len(), p.cache.len());
            merged.extend(p.txns.iter().zip(p.cache.valuations.iter()));
        }
        merged.sort_by_key(|(p, _)| p.id);
        // Multi-solution cache (§4 discussion) alternatives are positional
        // per partition, so they are only usable for a single target.
        let extras: &[CachedSolution] = if targets.len() == 1 {
            &self.partitions[&targets[0]].extras
        } else {
            &[]
        };

        let t_plan = std::time::Instant::now();
        let decision = plan_admission(
            &mut self.solver,
            &self.db,
            &self.config,
            &merged,
            extras,
            cached_overlay,
            &txn,
        )?;
        self.obs.phase(qdb_obs::Phase::Plan, t_plan.elapsed());
        let plan = match decision {
            AdmitDecision::Admitted(plan) => plan,
            AdmitDecision::Refused(overlay) => {
                // Refusal leaves the partitions untouched (no merge in
                // this engine): restore the still-valid memo to its
                // single owner.
                if targets.len() == 1 {
                    if let Some(p) = self.partitions.get_mut(&targets[0]) {
                        p.overlay_cache = overlay;
                    }
                }
                return Ok(None);
            }
        };
        match plan.path {
            AdmitPath::Extension => self.metrics.cache_extensions += 1,
            AdmitPath::ExtraHit => self.metrics.cache_extra_hits += 1,
            AdmitPath::FullResolve => self.metrics.cache_full_resolves += 1,
        }

        // Install: destructively merge target partitions, append newcomer.
        let t_apply = std::time::Instant::now();
        if targets.len() > 1 {
            self.metrics.partition_merges += 1;
            if self.config.record_events {
                self.metrics.events.push(Event::PartitionsMerged {
                    before: self.partitions.len(),
                });
            }
        }
        let mut host = Partition::new();
        for t in &targets {
            let p = self.partitions.remove(t).expect("target partition present");
            host.merge(p);
        }
        // Durability: log the pending transaction *after* the
        // satisfiability check, *before* acknowledging commit (§4).
        if log {
            self.wal.append(&LogRecord::PendingAdd {
                id,
                payload: encode_transaction(&txn),
            })?;
        }
        host.txns.push(PendingTxn::new(id, txn));
        plan.cache.apply_to(&mut host.cache);
        host.extras = plan.extras;
        host.overlay_cache = plan.overlay;
        debug_assert_eq!(host.txns.len(), host.cache.len());
        let pid = self.next_partition_id;
        self.next_partition_id += 1;
        self.partitions.insert(pid, host);
        self.obs.phase(qdb_obs::Phase::Apply, t_apply.elapsed());
        Ok(Some(pid))
    }

    /// Ground the oldest pending transactions of `pid` until the partition
    /// is within the `k` bound.
    pub(crate) fn enforce_k(&mut self, pid: u64) -> Result<()> {
        loop {
            let Some(p) = self.partitions.get(&pid) else {
                return Ok(()); // fully grounded and removed
            };
            if p.len() <= self.config.k {
                return Ok(());
            }
            let oldest = p.txns[0].id;
            self.ground_set(pid, &[oldest], GroundReason::KBound)?;
        }
    }

    // -- Reads ---------------------------------------------------------------

    /// Read with full collapse semantics (§3.2.2, option 3 — the paper's
    /// default): pending transactions whose updates unify with the query
    /// are grounded first; then the query is answered from the
    /// extensional state, giving ordinary read-repeatability guarantees.
    pub fn read(&mut self, atoms: &[Atom], limit: Option<usize>) -> Result<Vec<Valuation>> {
        self.metrics.reads += 1;
        // Conservative unification-based read check (grounding may expose
        // further overlaps, so loop to a fixed point).
        while let Some((pid, id)) = self.read_check_target(atoms) {
            let partition = &self.partitions[&pid];
            let target = partition
                .txns
                .iter()
                .find(|p| p.id == id)
                .expect("read check returned live txn");
            // Pull in coordination partners so a read does not needlessly
            // split a pair that could still coordinate.
            let mut ids =
                coordination_partners(&target.txn, partition.txns.iter().filter(|p| p.id != id));
            ids.push(id);
            self.ground_set(pid, &ids, GroundReason::Read)?;
        }
        self.eval_query(atoms, limit)
    }

    /// Parse-and-read convenience over [`QuantumDb::read`].
    pub fn query(&mut self, text: &str) -> Result<Vec<Valuation>> {
        let parsed = qdb_logic::parse_query(text)?;
        self.read(&parsed.atoms, None)
    }

    /// Read the query against a parsed representation (gives access to the
    /// query's variables for interpreting results).
    pub fn read_parsed(
        &mut self,
        parsed: &ParsedQuery,
        limit: Option<usize>,
    ) -> Result<Vec<Valuation>> {
        self.read(&parsed.atoms, limit)
    }

    /// Peek semantics (§3.2.2, option 2): answer the query against *one*
    /// possible world — the cached solution — without fixing anything.
    /// The returned values carry no stability guarantee.
    ///
    /// The world is never materialized: the cached pending updates are
    /// composed over the base as a [`qdb_storage::DeltaView`] (O(pending),
    /// zero database clones) and the query evaluates through the view.
    pub fn read_peek(&mut self, atoms: &[Atom], limit: Option<usize>) -> Result<Vec<Valuation>> {
        self.metrics.reads_peek += 1;
        let mut view = qdb_storage::DeltaView::new(&self.db);
        for p in self.partitions.values() {
            let refs = p.txn_refs();
            for op in p.cache.pending_ops(&refs)? {
                view.apply(&op).map_err(crate::EngineError::Storage)?;
            }
        }
        eval_on(&view, atoms, limit)
    }

    /// All-possible-values semantics (§3.2.2, option 1): enumerate possible
    /// worlds (bounded, as deltas over the base) and return the distinct
    /// answer sets across them. Exposes the uncertainty to the caller.
    pub fn read_possible(
        &mut self,
        atoms: &[Atom],
        world_bound: usize,
    ) -> Result<Vec<Vec<Valuation>>> {
        self.metrics.reads_possible += 1;
        let mut pending: Vec<&PendingTxn> = self
            .partitions
            .values()
            .flat_map(|p| p.txns.iter())
            .collect();
        pending.sort_by_key(|p| p.id);
        let txns: Vec<&ResourceTransaction> = pending.iter().map(|p| &p.txn).collect();
        let t_enum = std::time::Instant::now();
        let worlds =
            crate::worlds::enumerate_worlds_seeded(&self.db, &txns, world_bound, self.config.seed)?;
        self.obs.phase(qdb_obs::Phase::WorldEnum, t_enum.elapsed());
        self.metrics.worlds_enumerated += worlds.enumerated;
        self.metrics.world_dedup_hits += worlds.dedup_hits;
        let mut distinct: BTreeSet<Vec<Valuation>> = BTreeSet::new();
        for w in &worlds.worlds {
            distinct.insert(eval_on(&w.view(&self.db)?, atoms, None)?);
        }
        Ok(distinct.into_iter().collect())
    }

    fn read_check_target(&self, atoms: &[Atom]) -> Option<(u64, TxnId)> {
        for (&pid, p) in &self.partitions {
            for pt in &p.txns {
                if pt
                    .txn
                    .updates
                    .iter()
                    .any(|u| atoms.iter().any(|qa| qa.may_overlap(&u.atom)))
                {
                    return Some((pid, pt.id));
                }
            }
        }
        None
    }

    fn eval_query(&self, atoms: &[Atom], limit: Option<usize>) -> Result<Vec<Valuation>> {
        eval_on(&self.db, atoms, limit)
    }

    // -- Writes ---------------------------------------------------------------

    /// A blind non-resource write (§3.2.2 "Writes"). Returns `Ok(true)`
    /// when applied; `Ok(false)` when rejected because it would leave some
    /// pending transaction without a consistent grounding.
    pub fn write(&mut self, op: WriteOp) -> Result<bool> {
        let as_atom = Atom::new(
            op.relation(),
            op.tuple()
                .iter()
                .map(|v| qdb_logic::Term::Const(v.clone()))
                .collect(),
        );
        // Partitions whose pending state the write could interact with.
        let affected: Vec<u64> = self
            .partitions
            .iter()
            .filter(|(_, p)| {
                p.txns.iter().any(|pt| {
                    pt.txn
                        .body
                        .iter()
                        .map(|b| &b.atom)
                        .chain(pt.txn.updates.iter().map(|u| &u.atom))
                        .any(|a| a.may_overlap(&as_atom))
                })
            })
            .map(|(&k, _)| k)
            .collect();

        let changed = self.db.apply(&op)?;
        if affected.is_empty() {
            if changed {
                self.wal.append(&LogRecord::Write(op))?;
                self.metrics.writes_applied += 1;
            }
            self.maybe_promote_indexes();
            return Ok(true);
        }

        // Re-validate every affected partition against the new base.
        let mut new_caches: Vec<(u64, Option<CachedSolution>)> = Vec::new();
        let mut ok = true;
        for pid in &affected {
            let p = &self.partitions[pid];
            let refs = p.txn_refs();
            if p.cache.verify(&mut self.solver, &self.db, &refs)? {
                new_caches.push((*pid, None)); // cache still good
                continue;
            }
            match CachedSolution::resolve(&mut self.solver, &self.db, &refs)? {
                Some(cache) => new_caches.push((*pid, Some(cache))),
                None => {
                    ok = false;
                    break;
                }
            }
        }
        if !ok {
            // Undo and reject.
            if changed {
                self.db.apply(&op.inverse())?;
            }
            self.metrics.writes_rejected += 1;
            if self.config.record_events {
                self.metrics.events.push(Event::WriteRejected);
            }
            return Ok(false);
        }
        for (pid, cache) in new_caches {
            let p = self
                .partitions
                .get_mut(&pid)
                .expect("affected partition present");
            // The base changed under this partition: alternatives and the
            // admission overlay are no longer known-good.
            p.invalidate_solution_caches();
            if let Some(c) = cache {
                p.cache = c;
            }
        }
        if changed {
            self.wal.append(&LogRecord::Write(op))?;
            self.metrics.writes_applied += 1;
        }
        self.maybe_promote_indexes();
        Ok(true)
    }

    // -- Grounding ------------------------------------------------------------

    /// Explicitly ground one pending transaction (application-directed
    /// collapse). Returns `false` when the id is not pending.
    pub fn ground(&mut self, id: TxnId) -> Result<bool> {
        let Some((pid, _)) = self.find_txn(id) else {
            return Ok(false);
        };
        self.ground_set(pid, &[id], GroundReason::Explicit)?;
        Ok(true)
    }

    /// Ground everything — collapse the quantum state entirely.
    #[allow(clippy::while_let_loop)] // two fallible bindings per iteration
    pub fn ground_all(&mut self) -> Result<()> {
        let pids: Vec<u64> = self.partitions.keys().copied().collect();
        for pid in pids {
            loop {
                let Some(p) = self.partitions.get(&pid) else {
                    break;
                };
                let Some(head) = p.txns.first() else {
                    break;
                };
                let head_id = head.id;
                self.ground_set(pid, &[head_id], GroundReason::Explicit)?;
            }
        }
        Ok(())
    }

    // -- Introspection ----------------------------------------------------------

    /// The extensional database (tuples fixed so far).
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Engine configuration.
    pub fn config(&self) -> &QuantumDbConfig {
        &self.config
    }

    /// Engine metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Observability handle: latency histograms, the flight recorder and
    /// the slow-op log. The WAL and the solver share this handle, so every
    /// layer records into the same sinks.
    pub fn obs(&self) -> &std::sync::Arc<qdb_obs::Obs> {
        &self.obs
    }

    /// Latency profile snapshot — per statement class and per engine phase
    /// (the `SHOW PROFILE` payload).
    pub fn profile(&self) -> qdb_obs::ProfileReport {
        self.obs.profile()
    }

    /// Engine metrics with the solver hot-path counters folded in (the
    /// live [`SolverStats`] mirror into the `solver_*` fields; `SHOW
    /// METRICS` reports this view), plus the live database clone count
    /// (`db_clones` — the delta-view read paths keep it at zero).
    pub fn metrics_snapshot(&self) -> Metrics {
        let mut m = self.metrics.clone();
        let s = self.solver.stats();
        m.solver_nodes = s.nodes;
        m.solver_candidates_streamed = s.candidates_streamed;
        m.solver_index_lookups = s.index_lookups;
        m.solver_scan_lookups = s.scan_lookups;
        m.solver_candidate_vecs = s.candidate_vecs;
        m.db_clones = self.db.clone_count();
        m
    }

    /// Reset metrics (between experiment phases). Still-pending
    /// transactions are commits the new epoch inherits, so `committed`
    /// (and the `max_pending` high-water mark) restart at the pending
    /// count — keeping `committed − grounded_total` equal to the pending
    /// count, the invariant the shared handle's
    /// [`SharedQuantumDb::metrics_with_pending`] preserves (and
    /// [`QuantumDb::into_shared`] seeds its counters from here).
    ///
    /// [`SharedQuantumDb::metrics_with_pending`]: crate::SharedQuantumDb::metrics_with_pending
    pub fn reset_metrics(&mut self) {
        self.metrics.reset();
        self.metrics.committed = self.pending_count() as u64;
        self.metrics.max_pending = self.metrics.committed;
        self.solver.reset_stats();
        // Histograms open the same fresh epoch as the counters, keeping
        // "per-class histogram count == statement counter" true per epoch.
        self.obs.reset();
    }

    /// Solver statistics.
    pub fn solver_stats(&self) -> &SolverStats {
        self.solver.stats()
    }

    /// Number of pending (committed, unground) transactions.
    pub fn pending_count(&self) -> usize {
        self.partitions.values().map(Partition::len).sum()
    }

    /// Ids of pending transactions in arrival order.
    pub fn pending_ids(&self) -> Vec<TxnId> {
        let mut ids: Vec<TxnId> = self
            .partitions
            .values()
            .flat_map(|p| p.txns.iter().map(|t| t.id))
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Number of independent partitions.
    pub fn partition_count(&self) -> usize {
        self.partitions.len()
    }

    /// The composed body formula (Theorem 3.5) of the partition hosting
    /// transaction `id` — diagnostics for "what does the quantum state
    /// look like".
    pub fn composed_body(&self, id: TxnId) -> Option<Formula> {
        let (pid, _) = self.find_txn(id)?;
        let refs = self.partitions[&pid].txn_refs();
        Some(qdb_logic::compose_renamed(&refs))
    }

    /// Size of the WAL in bytes.
    pub fn wal_size(&self) -> u64 {
        self.wal.size_bytes()
    }

    /// Highest transaction id assigned so far (0 when none yet).
    pub fn last_txn_id(&self) -> TxnId {
        self.next_txn_id.saturating_sub(1)
    }

    /// Raw WAL image (crash-recovery tests snapshot this to simulate a
    /// machine failure at an arbitrary point).
    pub fn wal_image(&mut self) -> Vec<u8> {
        self.wal
            .sink_mut()
            .read_all()
            .expect("in-memory sinks cannot fail; file sinks report I/O errors on read")
    }

    /// Append a checkpoint marker to the WAL and drain the group-commit
    /// buffer to the sink.
    pub fn checkpoint(&mut self) -> Result<()> {
        self.wal.append(&LogRecord::Checkpoint)?;
        self.wal.sync()?;
        Ok(())
    }

    /// Promote into the thread-safe, partition-sharded shared handle.
    pub fn into_shared(self) -> SharedQuantumDb {
        SharedQuantumDb::from_engine(self)
    }

    pub(crate) fn find_txn(&self, id: TxnId) -> Option<(u64, usize)> {
        for (&pid, p) in &self.partitions {
            if let Some(pos) = p.position(id) {
                return Some((pid, pos));
            }
        }
        None
    }

    fn validate_schema(&self, txn: &ResourceTransaction) -> Result<()> {
        crate::shard::validate_schema_on(&self.db, txn)
    }
}

/// Columns the access-pattern tracker flags for promotion, across all
/// tables (shared by the single-threaded and the sharded engine).
pub(crate) fn collect_hot_columns(db: &Database, threshold: u32) -> Vec<(String, usize)> {
    db.tables()
        .flat_map(|t| {
            let relation = t.schema().relation().to_string();
            t.hot_unindexed_columns(threshold)
                .into_iter()
                .map(move |c| (relation.clone(), c))
        })
        .collect()
}

/// Evaluate a conjunctive query (logic atoms) against a tuple view — the
/// concrete database or a delta view of a possible world.
pub(crate) fn eval_on<V: qdb_storage::TupleView + ?Sized>(
    view: &V,
    atoms: &[Atom],
    limit: Option<usize>,
) -> Result<Vec<Valuation>> {
    let empty = Valuation::new();
    let patterns = atoms.iter().map(|a| a.to_pattern(&empty)).collect();
    let mut q = ConjunctiveQuery::new(patterns);
    if let Some(l) = limit {
        q = q.with_limit(l);
    }
    let out = q.eval(view)?;
    // Map numeric binding ids back to logic variables.
    let mut by_id: std::collections::BTreeMap<u32, Var> = std::collections::BTreeMap::new();
    for a in atoms {
        for v in a.vars() {
            by_id.entry(v.id()).or_insert_with(|| v.clone());
        }
    }
    Ok(out
        .bindings
        .into_iter()
        .map(|b| {
            b.into_iter()
                .map(|(id, value)| (by_id[&id].clone(), value))
                .collect()
        })
        .collect())
}

/// Admission path taken by [`plan_admission`] (drives the cache metrics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AdmitPath {
    /// The merged cached solution extended to cover the newcomer.
    Extension,
    /// An *alternative* cached solution rescued the admission after the
    /// primary failed to extend (multi-solution cache, §4 discussion).
    ExtraHit,
    /// A full re-solve of the merged sequence was needed.
    FullResolve,
}

/// A successful admission plan: how the merged partition's cached
/// valuations change, opportunistic alternative solutions, and which cache
/// path succeeded.
///
/// Planning is **pure** (reads the database and the merged partition view,
/// mutates nothing), so the sharded engine can run it under a shared
/// base-state read lock — concurrent admissions into disjoint partitions
/// solve in parallel.
#[derive(Debug)]
pub(crate) struct AdmitPlan {
    /// The host partition's new cached valuations.
    pub cache: CacheUpdate,
    /// Alternative cached solutions for the host partition.
    pub extras: Vec<CachedSolution>,
    /// Which admission path succeeded.
    pub path: AdmitPath,
    /// The admission overlay for the host partition: the virtual state of
    /// the new cache with the newcomer's updates applied. `Some` only on
    /// the extension fast path (other paths replace earlier valuations,
    /// so the next admission rebuilds it).
    pub overlay: Option<qdb_solver::Overlay>,
}

/// How an admission changes the merged partition's cached valuations
/// (merged arrival order, newcomer last).
#[derive(Debug)]
pub(crate) enum CacheUpdate {
    /// The merged cached solution stands; append the newcomer's valuation.
    Extend(Valuation),
    /// Replace every valuation (alternative hit or full re-solve).
    Replace(Vec<Valuation>),
}

impl CacheUpdate {
    /// Install into the merged partition's cache, which must still hold
    /// the valuations the plan was made against.
    pub(crate) fn apply_to(self, cache: &mut CachedSolution) {
        match self {
            CacheUpdate::Extend(v) => cache.valuations.push(v),
            CacheUpdate::Replace(vals) => cache.valuations = vals,
        }
    }
}

/// Outcome of [`plan_admission`].
#[derive(Debug)]
pub(crate) enum AdmitDecision {
    /// The newcomer admits; install this plan.
    Admitted(AdmitPlan),
    /// The newcomer is refused. Carries the admission overlay when the
    /// fast path built or reused one — the refused search rolled it back
    /// to the cached solution's virtual state, and the partition's
    /// valuations are unchanged, so the caller restores it as the memo
    /// (a refusal must not reset the O(newcomer) fast path to an
    /// O(pending) rebuild).
    Refused(Option<qdb_solver::Overlay>),
}

/// Build the virtual state of the merged cached solution: every pending
/// update grounded under its cached valuation, applied in arrival order.
fn build_admission_overlay(
    db: &Database,
    merged: &[(&PendingTxn, &Valuation)],
) -> Result<qdb_solver::Overlay> {
    use qdb_logic::UpdateKind;
    let mut overlay = qdb_solver::Overlay::new();
    for (p, v) in merged {
        for u in &p.txn.updates {
            let rid = db
                .resolve(&u.atom.relation)
                .map_err(qdb_solver::SolverError::Storage)?;
            let tuple = u.atom.ground(v).map_err(qdb_solver::SolverError::Logic)?;
            // A cached solution's updates must apply cleanly; a conflict
            // here means the cache is inconsistent, exactly as when the
            // ops were threaded through `Solver::solve`'s `pre_ops`.
            overlay
                .apply_id(db, rid, u.kind == UpdateKind::Insert, &tuple)
                .map_err(crate::EngineError::from)?;
        }
    }
    Ok(overlay)
}

/// Plan admitting `txn` against the merged view of its target partitions:
/// check the invariant over the union + the newcomer (cache extension
/// first, then alternatives, then a full re-solve) and compute the new
/// cache state. `merged` must be sorted by transaction id (arrival order);
/// `extras` are the alternative cached solutions of the *single* target
/// partition (pass `&[]` for zero or several targets — alternatives are
/// positional and do not survive merges), and `cached_overlay` is that
/// partition's memoized admission overlay (pass `None` to rebuild).
pub(crate) fn plan_admission(
    solver: &mut Solver,
    db: &Database,
    config: &QuantumDbConfig,
    merged: &[(&PendingTxn, &Valuation)],
    extras: &[CachedSolution],
    cached_overlay: Option<qdb_solver::Overlay>,
    txn: &ResourceTransaction,
) -> Result<AdmitDecision> {
    let newcomer = |sol: qdb_solver::Solution| -> Valuation {
        sol.valuations.into_iter().next().expect("one spec")
    };
    let mut admitted: Option<CacheUpdate> = None;
    let mut admitted_pre_ops: Option<Vec<WriteOp>> = None;
    let mut out_overlay: Option<qdb_solver::Overlay> = None;
    let mut refused_overlay: Option<qdb_solver::Overlay> = None;
    let mut path = AdmitPath::FullResolve;
    if config.use_solution_cache && config.cache_solutions <= 1 {
        // Extend the (merged) cached solution with the newcomer only,
        // against the memoized admission overlay — O(newcomer), not
        // O(pending). A fresh overlay is built when the cache was
        // invalidated (or the partitions just merged).
        let mut overlay = match cached_overlay {
            Some(overlay) => {
                #[cfg(debug_assertions)]
                debug_assert!(
                    overlay.same_deltas(&build_admission_overlay(db, merged)?),
                    "stale admission overlay: an invalidation site was missed"
                );
                overlay
            }
            None => build_admission_overlay(db, merged)?,
        };
        match solver.solve_in(db, &mut overlay, &[TxnSpec::required_only(txn)])? {
            Some(sol) => {
                admitted = Some(CacheUpdate::Extend(newcomer(sol)));
                // `solve_in` left the newcomer's updates applied: the
                // overlay is already the post-admission virtual state.
                out_overlay = Some(overlay);
                path = AdmitPath::Extension;
            }
            None => {
                // The unsat search rolled the overlay back to the cached
                // solution's virtual state — keep it for the refusal path.
                refused_overlay = Some(overlay);
                // Before a full re-solve, try each alternative cached
                // solution (none exist when `cache_solutions <= 1`, but
                // stale shapes are skipped defensively).
                for extra in extras {
                    if extra.len() != merged.len() {
                        continue; // stale shape
                    }
                    let Some(alt_ops) = alt_pre_ops(merged, extra) else {
                        continue;
                    };
                    if let Some(sol) = solver.solve(db, &alt_ops, &[TxnSpec::required_only(txn)])? {
                        let mut vals = extra.valuations.clone();
                        vals.extend(sol.valuations);
                        admitted = Some(CacheUpdate::Replace(vals));
                        path = AdmitPath::ExtraHit;
                        break;
                    }
                }
            }
        }
    } else if config.use_solution_cache {
        // Multi-solution configuration: the pre-op list is needed for
        // stocking alternatives, so take the materializing path.
        let mut pre_ops = Vec::with_capacity(merged.len() * 2);
        for (p, v) in merged {
            pre_ops.extend(p.txn.write_ops(v)?);
        }
        if let Some(sol) = solver.solve(db, &pre_ops, &[TxnSpec::required_only(txn)])? {
            admitted = Some(CacheUpdate::Extend(newcomer(sol)));
            admitted_pre_ops = Some(pre_ops);
            path = AdmitPath::Extension;
        } else {
            // Before a full re-solve, try each alternative cached solution.
            for extra in extras {
                if extra.len() != merged.len() {
                    continue; // stale shape
                }
                let Some(alt_ops) = alt_pre_ops(merged, extra) else {
                    continue;
                };
                if let Some(sol) = solver.solve(db, &alt_ops, &[TxnSpec::required_only(txn)])? {
                    let mut vals = extra.valuations.clone();
                    vals.extend(sol.valuations);
                    admitted = Some(CacheUpdate::Replace(vals));
                    admitted_pre_ops = Some(alt_ops);
                    path = AdmitPath::ExtraHit;
                    break;
                }
            }
        }
    }
    if admitted.is_none() {
        // Full re-solve of the whole (merged + newcomer) sequence.
        let mut specs: Vec<TxnSpec> = merged
            .iter()
            .map(|(p, _)| TxnSpec::required_only(&p.txn))
            .collect();
        specs.push(TxnSpec::required_only(txn));
        if let Some(sol) = solver.solve(db, &[], &specs)? {
            admitted = Some(CacheUpdate::Replace(sol.valuations));
            path = AdmitPath::FullResolve;
        }
    }
    let Some(cache) = admitted else {
        return Ok(AdmitDecision::Refused(refused_overlay));
    };
    // Opportunistically stock alternative solutions: same prefix,
    // different groundings of the newcomer (cheap diversity where it
    // matters most — the §4 "background process" idea folded into the
    // admission path).
    let mut plan_extras = Vec::new();
    if config.cache_solutions > 1 {
        if let Some(pre_ops) = admitted_pre_ops {
            let alts = solver.enumerate_one(
                db,
                &pre_ops,
                &TxnSpec::required_only(txn),
                config.cache_solutions,
            )?;
            // Alternatives keep the admitted prefix and swap the newcomer.
            let (prefix, chosen): (Vec<Valuation>, &Valuation) = match &cache {
                CacheUpdate::Extend(new) => {
                    (merged.iter().map(|(_, v)| (*v).clone()).collect(), new)
                }
                CacheUpdate::Replace(vals) => {
                    let (last, head) = vals.split_last().expect("newcomer valuation present");
                    (head.to_vec(), last)
                }
            };
            for alt in alts {
                if &alt == chosen || plan_extras.len() + 1 >= config.cache_solutions {
                    continue;
                }
                let mut vals = prefix.clone();
                vals.push(alt);
                plan_extras.push(CachedSolution { valuations: vals });
            }
        }
    }
    Ok(AdmitDecision::Admitted(AdmitPlan {
        cache,
        extras: plan_extras,
        path,
        overlay: out_overlay,
    }))
}

/// Ground the merged pending updates under an *alternative* cached
/// solution; `None` when any update fails to ground (stale alternative).
fn alt_pre_ops(
    merged: &[(&PendingTxn, &Valuation)],
    extra: &CachedSolution,
) -> Option<Vec<WriteOp>> {
    let mut alt_ops = Vec::with_capacity(merged.len() * 2);
    for ((p, _), v) in merged.iter().zip(&extra.valuations) {
        match p.txn.write_ops(v) {
            Ok(ops) => alt_ops.extend(ops),
            Err(_) => return None,
        }
    }
    Some(alt_ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdb_logic::parse_transaction;
    use qdb_storage::{tuple, ValueType};

    fn seat_engine(seats: &[&str]) -> QuantumDb {
        let mut qdb = QuantumDb::new(QuantumDbConfig::default()).unwrap();
        qdb.create_table(Schema::new(
            "Available",
            vec![("flight", ValueType::Int), ("seat", ValueType::Str)],
        ))
        .unwrap();
        qdb.create_table(Schema::new(
            "Bookings",
            vec![
                ("name", ValueType::Str),
                ("flight", ValueType::Int),
                ("seat", ValueType::Str),
            ],
        ))
        .unwrap();
        for s in seats {
            qdb.bulk_insert("Available", vec![tuple![1, *s]]).unwrap();
        }
        qdb
    }

    fn book(name: &str) -> ResourceTransaction {
        parse_transaction(&format!(
            "-Available(1, s), +Bookings('{name}', 1, s) :-1 Available(1, s)"
        ))
        .unwrap()
    }

    #[test]
    fn refused_admission_keeps_the_partition_overlay_memo() {
        let mut qdb = seat_engine(&["1A", "1B"]);
        assert!(qdb.submit(&book("U1")).unwrap().is_committed());
        assert!(qdb.submit(&book("U2")).unwrap().is_committed());
        let memo_present =
            |qdb: &QuantumDb| qdb.partitions.values().any(|p| p.overlay_cache.is_some());
        assert!(memo_present(&qdb), "extension path installs the memo");
        // Capacity exhausted: the third booking is refused — and must not
        // cost the partition its memo (the next admission would otherwise
        // rebuild at O(depth)).
        assert!(!qdb.submit(&book("U3")).unwrap().is_committed());
        assert!(
            memo_present(&qdb),
            "a refusal must restore the rolled-back admission overlay"
        );
        // The preserved memo is still correct: freeing a seat admits the
        // next booking via extension (debug builds also assert the memo
        // against a fresh rebuild inside plan_admission).
        qdb.write(WriteOp::insert("Available", tuple![1, "1C"]))
            .unwrap();
        let ext_before = qdb.metrics().cache_extensions;
        assert!(qdb.submit(&book("U4")).unwrap().is_committed());
        assert_eq!(qdb.metrics().cache_extensions, ext_before + 1);
    }

    #[test]
    fn admission_overlay_survives_partner_and_k_grounding() {
        let seats: Vec<String> = (0..8).map(|i| format!("1{i}")).collect();
        let seats: Vec<&str> = seats.iter().map(String::as_str).collect();
        let mut qdb = seat_engine(&seats);
        qdb.config.k = 3;
        let entangled = |me: &str, partner: &str| {
            parse_transaction(&format!(
                "-Available(1, s), +Bookings('{me}', 1, s) :-1 \
                 Available(1, s), Bookings('{partner}', 1, s2)?"
            ))
            .unwrap()
        };
        let memo = |qdb: &QuantumDb| qdb.partitions.values().all(|p| p.overlay_cache.is_some());
        assert!(qdb.submit(&entangled("A", "B")).unwrap().is_committed());
        assert!(qdb.submit(&book("U1")).unwrap().is_committed());
        // B's arrival grounds the pair; the residue keeps its memo.
        assert!(qdb.submit(&entangled("B", "A")).unwrap().is_committed());
        assert_eq!(qdb.metrics().grounded_by_partner, 2);
        assert!(memo(&qdb), "partner grounding must rebase the overlay");
        for u in ["U2", "U3", "U4"] {
            assert!(qdb.submit(&book(u)).unwrap().is_committed());
        }
        assert!(qdb.metrics().grounded_by_k > 0);
        assert!(memo(&qdb), "k-bound grounding must rebase the overlay");
        // Every admission extended the cached solution (debug builds also
        // check each reused overlay against a fresh rebuild).
        assert_eq!(qdb.metrics().cache_extensions, qdb.metrics().committed);
    }
}
