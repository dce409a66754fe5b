//! What the three workloads share: engine set-up, the round loop, the
//! per-run recorder, counter snapshots and metric assembly.

use std::collections::BTreeMap;
use std::time::Instant;

use qdb_core::{Metrics, QuantumDb, QuantumDbConfig, SharedQuantumDb};
use qdb_obs::{SpanEvent, PHASES, PHASE_COUNT};
use qdb_solver::SolverStats;
use qdb_storage::Value;
use qdb_workload::flights::{install, FlightsConfig};

use crate::spans::{self, Tracer};
use crate::stats;

/// Statement classes the per-layer metrics break time down by (the
/// engine's `Statement::kind` names) and the short names used in metric
/// names.
pub const CLASSES: [(&str, &str); 3] = [
    ("SELECT … CHOOSE 1", "book"),
    ("SELECT", "read"),
    ("GROUND ALL", "ground_all"),
];

/// One set-up takes 2–12 ms, too short to carry a metric alone, so a
/// `setup_s` sample is the mean set-up time over a batch of set-ups that
/// together take at least `SETUP_BATCH_S`. The host's speed shifts over
/// seconds, so the samples are spread over the run, one batch every
/// `SETUP_EVERY_S`, rather than taken all at once.
const SETUP_BATCH_S: f64 = 0.05;
const SETUP_EVERY_S: f64 = 1.0;

/// A fresh engine with the shipped default configuration (in-memory WAL,
/// 64 KiB group-commit drain, observability on) holding `flights`.
pub fn engine(flights: &FlightsConfig) -> SharedQuantumDb {
    let mut qdb = QuantumDb::new(QuantumDbConfig::default()).expect("default config is valid");
    install(&mut qdb, flights).expect("flight schema installs");
    qdb.into_shared()
}

/// Positional parameters of `qdb_workload::runner::BOOKING_SQL`.
pub fn booking_params(user: &str, partner: &str, flight: i64) -> [Value; 6] {
    let f = Value::from(flight);
    [
        f.clone(),
        Value::from(partner),
        f.clone(),
        f.clone(),
        Value::from(user),
        f,
    ]
}

/// Per-round input seed: the same run seed always yields the same rounds.
pub fn round_seed(seed: u64, round: u64) -> u64 {
    let mut z = seed ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Engine counters at one instant: `metrics()`, `solver_stats()` and the
/// sums behind `profile()`.
#[derive(Debug, Clone, Default)]
pub struct Snap {
    pub m: Metrics,
    pub solver: SolverStats,
    pub phase_ns: [u64; PHASE_COUNT],
    pub class: BTreeMap<&'static str, (u64, u64)>,
}

impl Snap {
    pub fn of(db: &SharedQuantumDb) -> Snap {
        let obs = db.obs();
        Snap {
            m: db.metrics(),
            solver: db.solver_stats(),
            phase_ns: std::array::from_fn(|i| obs.phase_histogram(PHASES[i]).snapshot().sum),
            class: CLASSES
                .iter()
                .map(|(c, _)| {
                    let s = obs.class_histogram(c).snapshot();
                    (*c, (s.count, s.sum))
                })
                .collect(),
        }
    }
}

macro_rules! counters {
    ($($f:ident),* $(,)?) => {
        /// Counter deltas over measured rounds (per-layer metrics).
        #[derive(Debug, Clone, Default)]
        pub struct Counters {
            $(pub $f: u64,)*
            /// Parser entries over each round's whole engine life (set-up
            /// included), summed over rounds.
            pub parses: u64,
            /// High-water marks (max over rounds, not deltas).
            pub max_pending: u64,
            /// `solver_stats()` deltas.
            pub solver_nodes: u64,
            pub solver_index_lookups: u64,
            pub solver_scan_lookups: u64,
            pub db_clones: u64,
            pub phase_ns: [u64; PHASE_COUNT],
            pub class: BTreeMap<&'static str, (u64, u64)>,
            /// Server traffic (wire workload only).
            pub frames: u64,
            pub bytes_in: u64,
            pub bytes_out: u64,
            pub outbox_full_stalls: u64,
        }

        impl Counters {
            /// Add the change from `a` to `b`.
            pub fn add_delta(&mut self, a: &Snap, b: &Snap) {
                $(self.$f += b.m.$f - a.m.$f;)*
                self.max_pending = self.max_pending.max(b.m.max_pending);
                self.solver_nodes += b.solver.nodes - a.solver.nodes;
                self.solver_index_lookups += b.solver.index_lookups - a.solver.index_lookups;
                self.solver_scan_lookups += b.solver.scan_lookups - a.solver.scan_lookups;
                self.db_clones = self.db_clones.max(b.m.db_clones);
                for i in 0..PHASE_COUNT {
                    self.phase_ns[i] += b.phase_ns[i] - a.phase_ns[i];
                }
                for (c, (n1, s1)) in &b.class {
                    let (n0, s0) = a.class.get(c).copied().unwrap_or_default();
                    let e = self.class.entry(c).or_default();
                    e.0 += n1 - n0;
                    e.1 += s1 - s0;
                }
            }
        }
    };
}

counters!(
    submitted,
    grounded_by_read,
    grounded_by_k,
    grounded_by_partner,
    cache_extensions,
    cache_extra_hits,
    cache_full_resolves,
    partition_merges,
    indexes_auto_created,
);

/// Everything one run records. The timed runs fill only the latency
/// samples and phase totals; the traced run also fills `counters`, the
/// engine events and the tracer.
#[derive(Debug, Default)]
pub struct Ctx {
    /// Client-observed latency samples (µs) per operation kind.
    pub lat: BTreeMap<&'static str, Vec<f32>>,
    pub setup_s: Vec<f64>,
    pub ground_all_ms: Vec<f64>,
    pub recover_s: Vec<f64>,
    pub replay_s: Vec<f64>,
    pub bind_us: Vec<f64>,
    /// Operations attempted and time spent in the operation loops.
    pub ops: u64,
    pub op_s: f64,
    /// Operations of untimed passes (counted as attempted only).
    pub untimed_ops: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub wal_bytes: u64,
    pub coordinated: u64,
    pub coordination_max: u64,
    pub rounds: u64,
    /// Throughput of each measured round.
    pub round_ops_per_s: Vec<f64>,
    /// Peak resident memory after the warm-up round.
    pub peak_rss_mb: f64,
    pub counters: Counters,
    /// Traced run only.
    pub tracer: Option<Tracer>,
    pub attribution: spans::Attribution,
    pub incomplete_windows: u64,
    pub encode_ns: Vec<f64>,
    pub decode_ns: Vec<f64>,
}

impl Ctx {
    /// Latency samples of one kind, widened for the statistics.
    pub fn latencies(&self, kind: &str) -> Vec<f64> {
        self.lat
            .get(kind)
            .map(|v| v.iter().map(|&x| f64::from(x)).collect())
            .unwrap_or_default()
    }

    pub fn traced() -> Ctx {
        Ctx {
            tracer: Some(Tracer::default()),
            ..Ctx::default()
        }
    }

    pub fn tracing(&self) -> bool {
        self.tracer.is_some()
    }

    /// Record an output check; a failed one fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    pub fn sample(&mut self, kind: &'static str, start: Instant) {
        self.lat
            .entry(kind)
            .or_default()
            .push(start.elapsed().as_secs_f32() * 1e6);
    }

    /// Fold the outcome of an untimed pass (warm-up): its failures still
    /// fail the run.
    pub fn absorb_failures(&mut self, other: Ctx) {
        self.untimed_ops += other.ops;
        self.failed += other.failed;
        self.failures.extend(other.failures);
    }

    /// Collect the engine's flight-recorder events of one embedded
    /// statement that began at `since_ns`.
    pub fn collect_events(&mut self, db: &SharedQuantumDb, since_ns: u64) -> Vec<SpanEvent> {
        let (events, complete) = spans::events_since(db.obs(), since_ns);
        if complete {
            self.attribution.add(&events);
        } else {
            self.incomplete_windows += 1;
        }
        events
    }

    /// Traced-run bookkeeping of one embedded statement: the benchmark's
    /// span tree (`op.<kind>`, split into `logic.bind` and `core.run` at
    /// `ns[1]`) plus the engine's own events nested under `core.run`.
    pub fn trace_op(&mut self, db: &SharedQuantumDb, kind: &str, ns: [u64; 3]) {
        let op = Some(self.ops);
        let events = self.collect_events(db, ns[0]);
        if ns[1] > ns[0] {
            self.bind_us.push((ns[1] - ns[0]) as f64 / 1e3);
        }
        let tr = self.tracer.as_mut().expect("tracing is on");
        let root = tr.record(op, None, &format!("op.{kind}"), ns[0], ns[2]);
        if ns[1] > ns[0] {
            tr.record(op, Some(root), "logic.bind", ns[0], ns[1]);
        }
        let run = tr.record(op, Some(root), "core.run", ns[1], ns[2]);
        tr.record_engine(op, Some(run), &events);
    }

    pub fn add_coordination(
        &mut self,
        db: &SharedQuantumDb,
        pairs: &[qdb_workload::entangled::Pair],
        rows: usize,
    ) {
        let c = db.with_database(|d| qdb_workload::metrics::coordination_stats(d, pairs, rows));
        self.coordinated += c.coordinated_users as u64;
        self.coordination_max += c.max_possible as u64;
    }
}

/// One workload: how to set up a fresh system, and one round of fixed
/// work on it.
pub trait Workload {
    type Env;
    fn setup(&self) -> Self::Env;
    fn round(&self, env: Self::Env, seed: u64, ctx: &mut Ctx);
}

/// Run `w`: an untimed warm-up round, then measured rounds until `seconds`
/// have passed, with a batch of timed set-ups every `SETUP_EVERY_S`. With
/// `trace`, the measured rounds alternate between untraced (`timed`, the
/// tracing-overhead baseline) and traced, so both see the same drift of
/// the host's speed. Returns `(timed, traced)`.
pub fn drive<W: Workload>(w: &W, seed: u64, seconds: f64, trace: bool) -> (Ctx, Option<Ctx>) {
    let mut timed = Ctx::default();
    let mut warm = Ctx::default();
    w.round(w.setup(), round_seed(seed, u64::MAX), &mut warm);
    timed.absorb_failures(warm);
    // One set-up plus one full round: the program's own high-water mark,
    // before the measured phase's latency samples (which grow with the
    // number of operations completed) take memory of their own.
    timed.peak_rss_mb = peak_rss_mb();
    let mut traced = trace.then(Ctx::traced);
    let t0 = Instant::now();
    let mut next_setup = 0.0;
    let mut r = 0;
    while r < 2 || t0.elapsed().as_secs_f64() < seconds {
        let env = if t0.elapsed().as_secs_f64() >= next_setup {
            next_setup += SETUP_EVERY_S;
            timed_setups(w, &mut timed.setup_s)
        } else {
            w.setup()
        };
        let ctx = match traced.as_mut() {
            Some(tr) if r % 2 == 1 => tr,
            _ => &mut timed,
        };
        let (ops0, op_s0) = (ctx.ops, ctx.op_s);
        w.round(env, round_seed(seed, r), ctx);
        ctx.round_ops_per_s
            .push((ctx.ops - ops0) as f64 / (ctx.op_s - op_s0));
        ctx.rounds += 1;
        r += 1;
    }
    (timed, traced)
}

/// Set up `w` repeatedly until the set-ups took `SETUP_BATCH_S` in all;
/// record their mean time and return the last one's system.
fn timed_setups<W: Workload>(w: &W, samples: &mut Vec<f64>) -> W::Env {
    let (mut total, mut n) = (0.0, 0u32);
    loop {
        let t = Instant::now();
        let env = w.setup();
        total += t.elapsed().as_secs_f64();
        n += 1;
        if total >= SETUP_BATCH_S {
            samples.push(total / f64::from(n));
            return env;
        }
    }
}

/// Peak resident set of this process (VmHWM), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count behind the value, when it is a statistic of samples.
    pub n: Option<usize>,
}

fn put(out: &mut Vec<Metric>, name: &str, value: f64, unit: &'static str, n: Option<usize>) {
    out.push(Metric {
        name: name.to_string(),
        value,
        unit,
        n,
    });
}

/// Add a percentile of `samples` when there are enough samples for it.
fn pct(out: &mut Vec<Metric>, name: &str, samples: &[f64], p: f64, unit: &'static str) {
    let enough = p <= 0.5 || samples.len() >= stats::samples_needed(p);
    if let (true, Some(v)) = (enough, stats::percentile(samples, p)) {
        put(out, name, v, unit, Some(samples.len()));
    }
}

/// The end-to-end metrics of a timed run (only those that apply).
pub fn end_to_end(ctx: &Ctx) -> Vec<Metric> {
    let mut out = Vec::new();
    let lat = |k: &str| ctx.latencies(k);
    pct(&mut out, "setup_s", &ctx.setup_s, 0.5, "s");
    if ctx.op_s > 0.0 {
        put(
            &mut out,
            "ops_per_s",
            ctx.ops as f64 / ctx.op_s,
            "1/s",
            Some(ctx.ops as usize),
        );
    }
    pct(&mut out, "book_p50_us", &lat("book"), 0.5, "us");
    pct(&mut out, "book_p90_us", &lat("book"), 0.9, "us");
    pct(&mut out, "book_p99_us", &lat("book"), 0.99, "us");
    pct(&mut out, "peek_p50_us", &lat("peek"), 0.5, "us");
    pct(&mut out, "peek_p90_us", &lat("peek"), 0.9, "us");
    pct(&mut out, "peek_p99_us", &lat("peek"), 0.99, "us");
    pct(&mut out, "possible_p50_us", &lat("possible"), 0.5, "us");
    pct(&mut out, "collapse_p50_us", &lat("collapse"), 0.5, "us");
    pct(&mut out, "scan_p50_us", &lat("scan"), 0.5, "us");
    pct(&mut out, "ground_all_ms", &ctx.ground_all_ms, 0.5, "ms");
    pct(&mut out, "recover_s", &ctx.recover_s, 0.5, "s");
    if ctx.ops > 0 {
        put(
            &mut out,
            "wal_bytes_per_op",
            ctx.wal_bytes as f64 / ctx.ops as f64,
            "B/op",
            Some(ctx.ops as usize),
        );
    }
    put(&mut out, "peak_rss_mb", ctx.peak_rss_mb, "MiB", None);
    if ctx.coordination_max > 0 {
        put(
            &mut out,
            "coordination_pct",
            100.0 * ctx.coordinated as f64 / ctx.coordination_max as f64,
            "%",
            Some(ctx.coordination_max as usize),
        );
    }
    let attempted = ctx.ops + ctx.untimed_ops;
    put(
        &mut out,
        "failed_frac",
        ctx.failed as f64 / attempted.max(1) as f64,
        "frac",
        Some(attempted as usize),
    );
    out
}

/// The per-layer metrics of a traced run. `untraced` holds the untraced
/// rounds that alternated with the traced ones (for the tracing overhead).
pub fn per_layer(ctx: &Ctx, untraced: &Ctx, parse_us: f64, wire: bool) -> Vec<Metric> {
    let c = &ctx.counters;
    let mut out = Vec::new();
    let ms = |ns: u64| ns as f64 / 1e6;
    let frac = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let phase = |p: qdb_obs::Phase| c.phase_ns[p as usize];
    let spans::Attribution {
        classes: attr,
        seen,
        attributed,
    } = &ctx.attribution;
    let (seen, attributed) = (*seen, *attributed);

    put(&mut out, "logic.parse_us", parse_us, "us", None);
    if let Some(v) = stats::mean(&ctx.bind_us) {
        put(&mut out, "logic.bind_us", v, "us", Some(ctx.bind_us.len()));
    }
    put(
        &mut out,
        "logic.parses",
        c.parses as f64 / ctx.rounds.max(1) as f64,
        "count",
        Some(ctx.rounds as usize),
    );

    put(
        &mut out,
        "solver.solve_ms",
        ms(phase(qdb_obs::Phase::Solve)),
        "ms",
        None,
    );
    put(
        &mut out,
        "solver.nodes_per_book",
        frac(c.solver_nodes, c.submitted),
        "count",
        Some(c.submitted as usize),
    );
    put(
        &mut out,
        "solver.cache_hit_frac",
        frac(c.cache_extensions + c.cache_extra_hits, c.submitted),
        "frac",
        Some(c.submitted as usize),
    );
    put(
        &mut out,
        "solver.full_resolves",
        c.cache_full_resolves as f64,
        "count",
        None,
    );
    put(
        &mut out,
        "solver.index_lookup_frac",
        frac(
            c.solver_index_lookups,
            c.solver_index_lookups + c.solver_scan_lookups,
        ),
        "frac",
        None,
    );

    for (class, short) in CLASSES {
        let (n, sum) = c.class.get(class).copied().unwrap_or_default();
        if n > 0 {
            put(
                &mut out,
                &format!("core.exec_us.{short}"),
                sum as f64 / n as f64 / 1e3,
                "us",
                Some(n as usize),
            );
        }
    }
    let plan_self: u64 = attr.values().map(|a| a.plan_self_ns).sum();
    put(
        &mut out,
        "core.plan_self_ms",
        ms(plan_self),
        "ms",
        Some(attributed as usize),
    );
    put(
        &mut out,
        "core.apply_ms",
        ms(phase(qdb_obs::Phase::Apply)),
        "ms",
        None,
    );
    put(
        &mut out,
        "core.world_enum_ms",
        ms(phase(qdb_obs::Phase::WorldEnum)),
        "ms",
        None,
    );
    put(
        &mut out,
        "core.base_lock_wait_ms",
        ms(phase(qdb_obs::Phase::BaseLockWait)),
        "ms",
        None,
    );
    put(
        &mut out,
        "core.partition_lock_wait_ms",
        ms(phase(qdb_obs::Phase::PartitionLockWait)),
        "ms",
        None,
    );
    put(
        &mut out,
        "core.grounded_by_read",
        c.grounded_by_read as f64,
        "count",
        None,
    );
    put(
        &mut out,
        "core.grounded_by_k",
        c.grounded_by_k as f64,
        "count",
        None,
    );
    put(
        &mut out,
        "core.grounded_by_partner",
        c.grounded_by_partner as f64,
        "count",
        None,
    );
    put(
        &mut out,
        "core.partition_merges",
        c.partition_merges as f64,
        "count",
        None,
    );
    put(
        &mut out,
        "core.max_pending",
        c.max_pending as f64,
        "count",
        None,
    );
    put(
        &mut out,
        "core.db_clones",
        c.db_clones as f64,
        "count",
        None,
    );
    if let (Some(rec), Some(rep)) = (stats::median(&ctx.recover_s), stats::median(&ctx.replay_s)) {
        put(
            &mut out,
            "core.readmit_s",
            rec - rep,
            "s",
            Some(ctx.recover_s.len()),
        );
    }
    for (class, short) in CLASSES {
        if let Some(v) = attr.get(class).and_then(|a| a.unattributed_us()) {
            put(
                &mut out,
                &format!("core.unattributed_us.{short}"),
                v,
                "us",
                Some(attr[class].ops as usize),
            );
        }
    }
    put(
        &mut out,
        "core.attributed_frac",
        frac(attributed, seen + ctx.incomplete_windows),
        "frac",
        Some((seen + ctx.incomplete_windows) as usize),
    );

    put(
        &mut out,
        "storage.wal_append_ms",
        ms(phase(qdb_obs::Phase::WalAppend)),
        "ms",
        None,
    );
    put(
        &mut out,
        "storage.wal_flush_ms",
        ms(phase(qdb_obs::Phase::WalFlush)),
        "ms",
        None,
    );
    if let Some(v) = stats::median(&ctx.replay_s) {
        put(
            &mut out,
            "storage.replay_s",
            v,
            "s",
            Some(ctx.replay_s.len()),
        );
    }
    put(
        &mut out,
        "storage.indexes_auto_created",
        c.indexes_auto_created as f64,
        "count",
        None,
    );

    let ops = ctx.ops.max(1) as f64;
    put(
        &mut out,
        "server.frames_per_op",
        c.frames as f64 / ops,
        "count",
        Some(ctx.ops as usize),
    );
    put(
        &mut out,
        "server.bytes_in_per_op",
        c.bytes_in as f64 / ops,
        "B/op",
        Some(ctx.ops as usize),
    );
    put(
        &mut out,
        "server.bytes_out_per_op",
        c.bytes_out as f64 / ops,
        "B/op",
        Some(ctx.ops as usize),
    );
    put(
        &mut out,
        "server.outbox_full_stalls",
        c.outbox_full_stalls as f64,
        "count",
        None,
    );
    if wire {
        for (class, short, kinds) in [
            (CLASSES[0].0, "book", &["book"][..]),
            (CLASSES[1].0, "read", &["peek", "possible"][..]),
        ] {
            let rtt: Vec<f64> = kinds.iter().flat_map(|k| ctx.latencies(k)).collect();
            let (n, sum) = c.class.get(class).copied().unwrap_or_default();
            if let (Some(m), true) = (stats::mean(&rtt), n > 0) {
                let exec_us = sum as f64 / n as f64 / 1e3;
                put(
                    &mut out,
                    &format!("server.overhead_us.{short}"),
                    m - exec_us,
                    "us",
                    Some(rtt.len()),
                );
            }
        }
        if let Some(v) = stats::median(&ctx.encode_ns) {
            put(
                &mut out,
                "client.encode_ns",
                v,
                "ns",
                Some(ctx.encode_ns.len()),
            );
        }
        if let Some(v) = stats::median(&ctx.decode_ns) {
            put(
                &mut out,
                "client.decode_ns",
                v,
                "ns",
                Some(ctx.decode_ns.len()),
            );
        }
    }

    // Median per-round throughput of each kind of round.
    let rounds =
        |c: &Ctx| stats::median(&c.round_ops_per_s).map(|v| (v, Some(c.round_ops_per_s.len())));
    if let (Some((traced, nt)), Some((untraced, nu))) = (rounds(ctx), rounds(untraced)) {
        put(&mut out, "trace.ops_per_s_traced", traced, "1/s", nt);
        put(&mut out, "trace.ops_per_s_untraced", untraced, "1/s", nu);
        put(
            &mut out,
            "trace.overhead_pct",
            100.0 * (1.0 - traced / untraced),
            "%",
            None,
        );
    }
    out
}

/// Per-call times (ns) of `f` over `reps` passes across `inputs`.
pub fn time_calls<T>(inputs: &[T], reps: usize, mut f: impl FnMut(&T)) -> Vec<f64> {
    let mut out = Vec::with_capacity(inputs.len() * reps);
    for _ in 0..reps {
        for x in inputs {
            let t = Instant::now();
            f(x);
            out.push(t.elapsed().as_nanos() as f64);
        }
    }
    out
}

/// Mean time (µs) of `qdb_logic::parse_statement` over the statement
/// texts a workload prepares: the median of 200 timed passes.
pub fn parse_us(texts: &[&str]) -> f64 {
    let passes: Vec<f64> = (0..200)
        .map(|_| {
            let t = Instant::now();
            for s in texts {
                let parsed = qdb_logic::parse_statement(s).expect("benchmark SQL parses");
                std::hint::black_box(parsed);
            }
            t.elapsed().as_secs_f64() * 1e6 / texts.len() as f64
        })
        .collect();
    stats::median(&passes).expect("200 passes")
}

/// End-of-round checks and accounting shared by the embedded workloads:
/// after a final `GROUND ALL` nothing is pending and every commit was
/// grounded; no read cloned the database; only the prepared statements
/// were parsed.
pub fn finish_round(
    db: &SharedQuantumDb,
    ctx: &mut Ctx,
    before: Option<Snap>,
    wal0: u64,
    prepared: u64,
) {
    let (m, pending) = db.metrics_with_pending();
    ctx.check(pending == 0, || {
        format!("{pending} still pending after GROUND ALL")
    });
    ctx.check(m.committed == m.grounded_total(), || {
        format!(
            "committed {} != grounded {}",
            m.committed,
            m.grounded_total()
        )
    });
    ctx.check(m.db_clones == 0, || {
        format!("{} database clones", m.db_clones)
    });
    ctx.check(m.parses == prepared, || {
        format!("{} parses for {prepared} prepared statements", m.parses)
    });
    ctx.wal_bytes += db.wal_size() - wal0;
    if let Some(before) = before {
        let after = Snap::of(db);
        ctx.counters.add_delta(&before, &after);
        ctx.counters.parses += m.parses;
    }
}
