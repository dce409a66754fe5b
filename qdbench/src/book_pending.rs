//! `book_pending`: embedded admission under growing pending sets.
//!
//! One thread drives a `SharedQuantumDb`. Entangled bookings arrive in
//! random order across several flights; in half of the pairs one partner
//! never books, so each flight's pending set grows to the `k` bound and
//! the oldest are grounded by it. A round ends by crash-recovering a copy
//! of the engine from its WAL image, checking the copy against the live
//! engine, and then running one large `GROUND ALL` on the live engine.

use std::time::Instant;

use qdb_core::{
    world_fingerprint, Prepared, QuantumDb, QuantumDbConfig, Response, SharedQuantumDb,
};
use qdb_obs::now_ns;
use qdb_storage::wal::MemorySink;
use qdb_storage::Wal;
use qdb_workload::flights::FlightsConfig;
use qdb_workload::rng::{SliceRandom, StdRng};
use qdb_workload::runner::BOOKING_SQL;
use qdb_workload::{make_pairs, Request};

use crate::common::{booking_params, engine, finish_round, Ctx, Snap, Workload};

pub const NAME: &str = "book_pending";

/// 4 flights of 110 rows (330 seats); 150 pairs per flight, half of them
/// with a partner who never books: 225 bookings per flight, 900 per round,
/// and each flight's pending set held at k = 61. Four flights keep the
/// engine's working set inside one core's private cache: with 16 the
/// timings followed the shared cache's other tenants and swung by a
/// quarter between sessions (see `evidence/README.md`).
const FLIGHTS: FlightsConfig = FlightsConfig {
    flights: 4,
    rows_per_flight: 110,
};
const PAIRS_PER_FLIGHT: usize = 150;

pub const STATEMENTS: [&str; 2] = [BOOKING_SQL, "GROUND ALL"];

pub struct BookPending;

pub struct Env {
    db: SharedQuantumDb,
    book: Prepared,
    ground_all: Prepared,
}

impl Workload for BookPending {
    type Env = Env;

    fn setup(&self) -> Env {
        let db = engine(&FLIGHTS);
        let session = db.session();
        let book = session
            .prepare(STATEMENTS[0])
            .expect("booking SQL prepares");
        let ground_all = session.prepare(STATEMENTS[1]).expect("GROUND ALL prepares");
        Env {
            db,
            book,
            ground_all,
        }
    }

    fn round(&self, env: Env, seed: u64, ctx: &mut Ctx) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pairs = make_pairs(&FLIGHTS, PAIRS_PER_FLIGHT);
        let mut order: Vec<usize> = (0..pairs.len()).collect();
        order.shuffle(&mut rng);
        let (no_show, complete) = order.split_at(pairs.len() / 2);
        let mut requests: Vec<Request> = Vec::with_capacity(pairs.len() * 3 / 2);
        for &i in complete {
            let p = &pairs[i];
            requests.push(request(&p.a, &p.b, p.flight));
            requests.push(request(&p.b, &p.a, p.flight));
        }
        for &i in no_show {
            let p = &pairs[i];
            if rng.next_u64() & 1 == 0 {
                requests.push(request(&p.a, &p.b, p.flight));
            } else {
                requests.push(request(&p.b, &p.a, p.flight));
            }
        }
        requests.shuffle(&mut rng);
        let complete_pairs: Vec<_> = complete.iter().map(|&i| pairs[i].clone()).collect();

        let before = ctx.tracing().then(|| Snap::of(&env.db));
        let wal0 = env.db.wal_size();
        let t_loop = Instant::now();
        for r in &requests {
            let t0 = Instant::now();
            let ns0 = now_ns();
            let bound = env
                .book
                .bind(&booking_params(&r.user, &r.partner, r.flight));
            let ns1 = now_ns();
            let res = bound.and_then(|b| b.run());
            ctx.sample("book", t0);
            if ctx.tracing() {
                ctx.trace_op(&env.db, "book", [ns0, ns1, now_ns()]);
            }
            ctx.ops += 1;
            ctx.check(matches!(res, Ok(Response::Committed(_))), || {
                format!(
                    "booking of {} on flight {} not committed: {res:?}",
                    r.user, r.flight
                )
            });
        }
        ctx.op_s += t_loop.elapsed().as_secs_f64();

        // Crash point: the WAL image before grounding. Recover a copy and
        // hold it against the live engine.
        let image = env.db.wal_image();
        let live_pending = env.db.pending_ids();
        let live_world = env.db.with_database(world_fingerprint);
        let wal = || Wal::with_sink(Box::new(MemorySink::from_bytes(image.clone())));
        let replay_wal = wal();
        let t = Instant::now();
        let ns0 = now_ns();
        let replayed = qdb_storage::recover(&replay_wal);
        let ns1 = now_ns();
        ctx.replay_s.push(t.elapsed().as_secs_f64());
        ctx.check(replayed.is_ok(), || {
            format!("WAL replay failed: {replayed:?}")
        });
        let recover_wal = wal();
        let t = Instant::now();
        let ns2 = now_ns();
        let recovered = QuantumDb::recover(recover_wal, QuantumDbConfig::default());
        let ns3 = now_ns();
        ctx.recover_s.push(t.elapsed().as_secs_f64());
        if let Some(tr) = ctx.tracer.as_mut() {
            let op = Some(ctx.ops);
            tr.record(op, None, "storage.recover", ns0, ns1);
            tr.record(op, None, "core.recover", ns2, ns3);
        }
        match recovered {
            Ok(rec) => {
                let same_pending = rec.pending_ids() == live_pending;
                ctx.check(same_pending, || {
                    format!(
                        "recovered pending set differs: {} recovered vs {} live",
                        rec.pending_count(),
                        live_pending.len()
                    )
                });
                let same_world = world_fingerprint(rec.database()) == live_world;
                ctx.check(same_world, || {
                    "recovered world fingerprint differs".to_string()
                });
            }
            Err(e) => ctx.check(false, || format!("recovery failed: {e}")),
        }
        drop(replayed);

        let pending = env.db.pending_count();
        let t = Instant::now();
        let ns0 = now_ns();
        let res = env.ground_all.run();
        let dt = t.elapsed().as_secs_f64();
        if ctx.tracing() {
            ctx.trace_op(&env.db, "ground_all", [ns0, ns0, now_ns()]);
        }
        ctx.ops += 1;
        ctx.op_s += dt;
        ctx.ground_all_ms.push(dt * 1e3);
        ctx.check(
            matches!(res, Ok(Response::Grounded(n)) if n == pending),
            || format!("GROUND ALL of {pending} pending answered {res:?}"),
        );
        finish_round(&env.db, ctx, before, wal0, STATEMENTS.len() as u64);
        ctx.add_coordination(&env.db, &complete_pairs, FLIGHTS.rows_per_flight);
    }
}

fn request(user: &str, partner: &str, flight: i64) -> Request {
    Request {
        user: user.to_string(),
        partner: partner.to_string(),
        flight,
    }
}
