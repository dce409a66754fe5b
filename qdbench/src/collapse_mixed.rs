//! `collapse_mixed`: embedded reads that write.
//!
//! One thread drives a `SharedQuantumDb`. Random-order entangled bookings
//! are interleaved with one collapsing point read (`READ_SQL`) of a user
//! already booked in the same epoch; one read in 100, at a random place,
//! is a whole-table scan (`SCAN_SQL`) instead. An epoch is 48 pairs whose
//! partners arrive in random order, and it ends with `GROUND ALL`. Reads
//! ground the bookings they touch before the partner arrives, so
//! coordination falls and read-induced grounding, storage point lookups
//! and scans dominate.

use std::time::Instant;

use qdb_core::{Prepared, Response, SharedQuantumDb};
use qdb_obs::now_ns;
use qdb_storage::Value;
use qdb_workload::flights::FlightsConfig;
use qdb_workload::orders::{arrange, ArrivalOrder};
use qdb_workload::rng::{SliceRandom, StdRng};
use qdb_workload::runner::{BOOKING_SQL, READ_SQL, SCAN_SQL};
use qdb_workload::{make_pairs, Pair, Request};

use crate::common::{booking_params, engine, finish_round, Ctx, Snap, Workload};

pub const NAME: &str = "collapse_mixed";

/// 4 flights of 50 rows (150 seats), 60 pairs per flight: 480 bookings
/// and as many reads per round, in 5 epochs. With 12 flights the same
/// code drifted by 26% between two sessions, past the bound; with 4, by
/// at most 24% across four (see `evidence/README.md`).
const FLIGHTS: FlightsConfig = FlightsConfig {
    flights: 4,
    rows_per_flight: 50,
};
const PAIRS_PER_FLIGHT: usize = 60;
/// Pairs per epoch (96 bookings, 96 reads of which one is a scan).
const EPOCH_PAIRS: usize = 48;

pub const STATEMENTS: [&str; 4] = [BOOKING_SQL, READ_SQL, SCAN_SQL, "GROUND ALL"];

pub struct CollapseMixed;

pub struct Env {
    db: SharedQuantumDb,
    book: Prepared,
    read: Prepared,
    scan: Prepared,
    ground_all: Prepared,
}

impl Workload for CollapseMixed {
    type Env = Env;

    fn setup(&self) -> Env {
        let db = engine(&FLIGHTS);
        let session = db.session();
        let prep = |sql: &str| session.prepare(sql).expect("benchmark SQL prepares");
        Env {
            book: prep(STATEMENTS[0]),
            read: prep(STATEMENTS[1]),
            scan: prep(STATEMENTS[2]),
            ground_all: prep(STATEMENTS[3]),
            db,
        }
    }

    fn round(&self, env: Env, seed: u64, ctx: &mut Ctx) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pairs = make_pairs(&FLIGHTS, PAIRS_PER_FLIGHT);
        let epochs = epochs(&pairs, &mut rng);
        let before = ctx.tracing().then(|| Snap::of(&env.db));
        let wal0 = env.db.wal_size();
        let mut booked = 0usize;
        let t_loop = Instant::now();
        for epoch in &epochs {
            let scan_at = rng.gen_range(0..epoch.len());
            for (i, r) in epoch.iter().enumerate() {
                let t_op = Instant::now();
                let ns0 = now_ns();
                let bound = env
                    .book
                    .bind(&booking_params(&r.user, &r.partner, r.flight));
                let ns1 = now_ns();
                let res = bound.and_then(|b| b.run());
                ctx.sample("book", t_op);
                if ctx.tracing() {
                    ctx.trace_op(&env.db, "book", [ns0, ns1, now_ns()]);
                }
                ctx.ops += 1;
                ctx.check(matches!(res, Ok(Response::Committed(_))), || {
                    format!("booking of {} not committed: {res:?}", r.user)
                });
                booked += 1;

                if i == scan_at {
                    let t_op = Instant::now();
                    let ns0 = now_ns();
                    let res = env.scan.run();
                    ctx.sample("scan", t_op);
                    if ctx.tracing() {
                        ctx.trace_op(&env.db, "scan", [ns0, ns0, now_ns()]);
                    }
                    ctx.ops += 1;
                    let rows = res.as_ref().ok().and_then(|r| r.rows()).map(<[_]>::len);
                    ctx.check(rows == Some(booked), || {
                        format!("scan of {booked} bookings returned {rows:?} rows")
                    });
                } else {
                    // A booked user of this epoch: their booking may still
                    // be pending, so the read may have to ground it.
                    let user = &epoch[rng.gen_range(0..i + 1)].user;
                    let t_op = Instant::now();
                    let ns0 = now_ns();
                    let bound = env.read.bind(&[Value::from(user.as_str())]);
                    let ns1 = now_ns();
                    let res = bound.and_then(|b| b.run());
                    ctx.sample("collapse", t_op);
                    if ctx.tracing() {
                        ctx.trace_op(&env.db, "collapse", [ns0, ns1, now_ns()]);
                    }
                    ctx.ops += 1;
                    let rows = res.as_ref().ok().and_then(|r| r.rows()).map(<[_]>::len);
                    ctx.check(rows == Some(1), || {
                        format!("collapsing read of booked {user} returned {rows:?} rows")
                    });
                }
            }
            ground_all(&env, ctx);
        }
        ctx.op_s += t_loop.elapsed().as_secs_f64();
        finish_round(&env.db, ctx, before, wal0, STATEMENTS.len() as u64);
        ctx.add_coordination(&env.db, &pairs, FLIGHTS.rows_per_flight);
    }
}

/// Split the round's pairs into epochs of `EPOCH_PAIRS` random pairs
/// (drawn across all flights); within an epoch both partners of every
/// pair book, in random order.
fn epochs(pairs: &[Pair], rng: &mut StdRng) -> Vec<Vec<Request>> {
    let mut order: Vec<&Pair> = pairs.iter().collect();
    order.shuffle(rng);
    order
        .chunks(EPOCH_PAIRS)
        .map(|chunk| {
            let owned: Vec<Pair> = chunk.iter().map(|p| (*p).clone()).collect();
            arrange(
                &owned,
                ArrivalOrder::Random {
                    seed: rng.next_u64(),
                },
            )
        })
        .collect()
}

/// End an epoch: `GROUND ALL`, then nothing may remain pending.
fn ground_all(env: &Env, ctx: &mut Ctx) {
    let pending = env.db.pending_count();
    let t = Instant::now();
    let ns0 = now_ns();
    let res = env.ground_all.run();
    let dt = t.elapsed().as_secs_f64();
    if ctx.tracing() {
        ctx.trace_op(&env.db, "ground_all", [ns0, ns0, now_ns()]);
    }
    ctx.ops += 1;
    ctx.ground_all_ms.push(dt * 1e3);
    ctx.check(
        matches!(res, Ok(Response::Grounded(n)) if n == pending),
        || format!("GROUND ALL of {pending} pending answered {res:?}"),
    );
    let left = env.db.pending_count();
    ctx.check(left == 0, || format!("{left} pending after GROUND ALL"));
}
