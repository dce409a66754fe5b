//! `qdbench`: the repository benchmark. See `README.md` beside this crate.
//!
//! ```text
//! cargo run --release --manifest-path qdbench/Cargo.toml -- \
//!     --workload <book_pending|wire_read_mostly|collapse_mixed|all> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Prints a human-readable table, then as its last line one JSON object
//! `{"correct", "attempted", "failed", "metrics"}` holding the gated
//! end-to-end metrics (`--trace 0`) or per-layer metrics (`--trace 1`).
//! Exits non-zero when any output check fails.

mod book_pending;
mod collapse_mixed;
mod common;
mod spans;
mod stats;
mod wire_read_mostly;

use std::process::ExitCode;

use common::{drive, end_to_end, parse_us, per_layer, Ctx, Metric};

const WORKLOADS: [&str; 3] = [
    book_pending::NAME,
    wire_read_mostly::NAME,
    collapse_mixed::NAME,
];

/// End-to-end metrics every workload reports; these are the ones
/// `BENCHMARK.json` gates.
const END_TO_END: [&str; 7] = [
    "setup_s",
    "ops_per_s",
    "book_p50_us",
    "book_p99_us",
    "wal_bytes_per_op",
    "peak_rss_mb",
    "coordination_pct",
];

/// Per-layer metrics every workload's traced run reports (`BENCHMARK.json`
/// `per_layer`).
const PER_LAYER: [&str; 26] = [
    "logic.parse_us",
    "logic.parses",
    "solver.solve_ms",
    "solver.nodes_per_book",
    "solver.cache_hit_frac",
    "solver.full_resolves",
    "solver.index_lookup_frac",
    "core.exec_us.book",
    "core.plan_self_ms",
    "core.apply_ms",
    "core.base_lock_wait_ms",
    "core.partition_lock_wait_ms",
    "core.grounded_by_read",
    "core.grounded_by_k",
    "core.grounded_by_partner",
    "core.partition_merges",
    "core.max_pending",
    "core.db_clones",
    "core.unattributed_us.book",
    "storage.wal_append_ms",
    "storage.wal_flush_ms",
    "storage.indexes_auto_created",
    "server.frames_per_op",
    "server.bytes_in_per_op",
    "server.bytes_out_per_op",
    "server.outbox_full_stalls",
];

const USAGE: &str = "usage: qdbench --workload <book_pending|wire_read_mostly|collapse_mixed|all> \
                     [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(&args)
    }
}

/// Run every workload, each in a fresh process of its own.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut ok = true;
    for w in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status()
            .expect("workload process starts");
        ok &= status.success();
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_one(args: &Args) -> ExitCode {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (timed, traced, statements): (Ctx, Option<Ctx>, &[&str]) = match args.workload.as_str() {
        book_pending::NAME => {
            let (t, tr) = drive(
                &book_pending::BookPending,
                args.seed,
                args.seconds,
                args.trace,
            );
            (t, tr, &book_pending::STATEMENTS)
        }
        wire_read_mostly::NAME => {
            let w = wire_read_mostly::WireReadMostly { workers: nproc };
            let (t, tr) = drive(&w, args.seed, args.seconds, args.trace);
            (t, tr, &wire_read_mostly::STATEMENTS)
        }
        collapse_mixed::NAME => {
            let (t, tr) = drive(
                &collapse_mixed::CollapseMixed,
                args.seed,
                args.seconds,
                args.trace,
            );
            (t, tr, &collapse_mixed::STATEMENTS)
        }
        _ => unreachable!("workload names are validated"),
    };
    let e2e = end_to_end(&timed);
    let wire = args.workload == wire_read_mostly::NAME;
    let layer = traced
        .as_ref()
        .map(|tr| per_layer(tr, &timed, parse_us(statements), wire));

    println!(
        "qdbench workload={} seed={} seconds={} trace={} nproc={nproc} rounds={} \
         config=default wal=in_memory group_commit_drain={}B obs=on loop=closed",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        timed.rounds + traced.as_ref().map_or(0, |t| t.rounds),
        qdb_storage::Wal::DEFAULT_GROUP_LIMIT,
    );
    print_table("end-to-end", &e2e, &END_TO_END);
    if let Some(layer) = &layer {
        print_table("per-layer (traced rounds)", layer, &PER_LAYER);
    }
    let runs: Vec<&Ctx> = std::iter::once(&timed).chain(traced.as_ref()).collect();
    for f in runs.iter().flat_map(|c| &c.failures) {
        println!("check failed: {f}");
    }
    if let Some(tr) = traced.as_ref().and_then(|t| t.tracer.as_ref()) {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        match tr.write_jsonl(&path) {
            Ok(()) => {
                let (kept, dropped) = tr.counts();
                println!(
                    "spans: {kept} written to {} ({dropped} more recorded past the cap, not kept)",
                    path.display()
                );
            }
            Err(e) => println!("spans: could not write {}: {e}", path.display()),
        }
    }

    let attempted: u64 = runs.iter().map(|c| c.ops + c.untimed_ops).sum();
    let failed: u64 = runs.iter().map(|c| c.failed).sum();
    let (list, names): (&[Metric], &[&str]) = match &layer {
        Some(l) => (l, &PER_LAYER),
        None => (&e2e, &END_TO_END),
    };
    let mut fields = Vec::new();
    for name in names {
        let Some(m) = list.iter().find(|m| m.name == *name) else {
            eprintln!("metric {name} was not measured on {}", args.workload);
            return ExitCode::from(3);
        };
        fields.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0,
        attempted.max(1),
        failed,
        fields.join(", ")
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_table(title: &str, list: &[Metric], gated: &[&str]) {
    println!("-- {title} (* = in BENCHMARK.json)");
    println!(
        "  {:<32} {:>16} {:<6} {:>9}",
        "metric", "value", "unit", "samples"
    );
    for m in list {
        let mark = if gated.contains(&m.name.as_str()) {
            '*'
        } else {
            ' '
        };
        let n = m.n.map_or_else(String::new, |n| n.to_string());
        println!(
            "{mark} {:<32} {:>16.4} {:<6} {:>9}",
            m.name, m.value, m.unit, n
        );
    }
}
