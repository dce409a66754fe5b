//! `wire_read_mostly`: the client, server and wire codec under a
//! read-mostly closed loop.
//!
//! An in-process `qdb-server` on loopback runs as many executors as the
//! host has cores. Two client connections, one thread each, split the
//! flights between them (`DisjointFlights` routing) and each runs a closed
//! loop: a booking whose partner arrives at most two bookings later (so
//! bookings stay cheap), then three `SELECT PEEK` re-checks — every 8th
//! read is a `SELECT POSSIBLE` instead. Reads never write.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use qdb_client::{Connection, RemotePrepared};
use qdb_core::wire::{self, Reply, Request as WireRequest};
use qdb_core::Response;
use qdb_obs::{now_ns, Obs, SpanEvent};
use qdb_server::{Server, ServerHandle};
use qdb_storage::Value;
use qdb_workload::flights::FlightsConfig;
use qdb_workload::rng::{SliceRandom, StdRng};
use qdb_workload::runner::{BOOKING_SQL, PEEK_SQL, POSSIBLE_SQL};
use qdb_workload::{make_pairs, Pair, Request};

use crate::common::{booking_params, engine, round_seed, time_calls, Ctx, Snap, Workload};

pub const NAME: &str = "wire_read_mostly";

/// 40 flights of 50 rows (150 seats), 70 pairs per flight: 5 600 bookings
/// and 16 800 reads per round, split over the connections by flight.
const FLIGHTS: FlightsConfig = FlightsConfig {
    flights: 40,
    rows_per_flight: 50,
};
const PAIRS_PER_FLIGHT: usize = 70;
const CONNECTIONS: usize = 2;
const READS_PER_BOOKING: usize = 3;
const POSSIBLE_EVERY: usize = 8;

pub const STATEMENTS: [&str; 3] = [BOOKING_SQL, PEEK_SQL, POSSIBLE_SQL];

pub struct WireReadMostly {
    /// Server executors: the host's core count.
    pub workers: usize,
}

pub struct Env {
    server: ServerHandle,
    clients: Vec<Client>,
}

struct Client {
    conn: Connection,
    book: RemotePrepared,
    peek: RemotePrepared,
    possible: RemotePrepared,
}

/// What one client thread observed.
#[derive(Default)]
struct ClientOut {
    /// `(kind, start_ns, end_ns, latency_us)` per operation.
    ops: Vec<(&'static str, u64, u64, f64)>,
    failed: u64,
    failures: Vec<String>,
    /// One reply of each read kind, for the codec timing.
    peek_reply: Option<Response>,
    possible_reply: Option<Response>,
}

impl Workload for WireReadMostly {
    type Env = Env;

    fn setup(&self) -> Env {
        let server = Server::spawn_with_db("127.0.0.1:0", self.workers, engine(&FLIGHTS))
            .expect("loopback server starts");
        let clients = (0..CONNECTIONS)
            .map(|_| {
                let mut conn = Connection::connect(server.addr()).expect("client connects");
                let mut prep = |sql: &str| conn.prepare(sql).expect("benchmark SQL prepares");
                let (book, peek, possible) = (
                    prep(STATEMENTS[0]),
                    prep(STATEMENTS[1]),
                    prep(STATEMENTS[2]),
                );
                Client {
                    conn,
                    book,
                    peek,
                    possible,
                }
            })
            .collect();
        Env { server, clients }
    }

    fn round(&self, mut env: Env, seed: u64, ctx: &mut Ctx) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pairs = make_pairs(&FLIGHTS, PAIRS_PER_FLIGHT);
        let streams: Vec<Vec<Request>> = (0..CONNECTIONS)
            .map(|c| {
                let mut mine: Vec<&Pair> = pairs
                    .iter()
                    .filter(|p| p.flight as usize % CONNECTIONS == c)
                    .collect();
                mine.shuffle(&mut rng);
                partners_close(&mine, &mut rng)
            })
            .collect();

        let db = env.server.db().clone();
        let tracing = ctx.tracing();
        let before = tracing.then(|| Snap::of(&db));
        let (_, stats0) = env.clients[0]
            .conn
            .server_stats()
            .expect("SHOW METRICS answers");
        let wal0 = db.wal_size();
        let stop = AtomicBool::new(false);
        let t_loop = Instant::now();
        let (outs, wall, events) = std::thread::scope(|s| {
            let poller = tracing.then(|| s.spawn(|| poll_events(db.obs(), &stop)));
            let threads: Vec<_> = env
                .clients
                .iter_mut()
                .zip(&streams)
                .enumerate()
                .map(|(c, (client, stream))| {
                    let seed = round_seed(seed, c as u64);
                    s.spawn(move || run_client(client, stream, seed))
                })
                .collect();
            let outs: Vec<ClientOut> = threads
                .into_iter()
                .map(|t| t.join().expect("client thread finishes"))
                .collect();
            let wall = t_loop.elapsed().as_secs_f64();
            stop.store(true, Ordering::SeqCst);
            let events = poller.map(|p| p.join().expect("event poller finishes"));
            (outs, wall, events)
        });
        ctx.op_s += wall;

        let (m, stats1) = env.clients[0]
            .conn
            .server_stats()
            .expect("SHOW METRICS answers");
        let mut client_spans: Vec<Vec<(u64, u64, u64, u64)>> = Vec::new();
        for out in &outs {
            let mut spans = Vec::new();
            for &(kind, ns0, ns1, us) in &out.ops {
                ctx.lat.entry(kind).or_default().push(us as f32);
                if let Some(tr) = ctx.tracer.as_mut() {
                    let id = tr.record(
                        Some(ctx.ops),
                        None,
                        &format!("client.bind_run.{kind}"),
                        ns0,
                        ns1,
                    );
                    spans.push((ns0, ns1, id, ctx.ops));
                }
                ctx.ops += 1;
            }
            client_spans.push(spans);
            ctx.failed += out.failed;
            ctx.failures.extend(out.failures.iter().cloned());
        }

        // The prepared statements plus the `SHOW METRICS` text, which the
        // connection's statement cache parses once.
        let prepared = (STATEMENTS.len() * CONNECTIONS) as u64 + 1;
        ctx.check(m.parses == prepared, || {
            format!("{} parses for {prepared} prepared statements", m.parses)
        });
        ctx.check(m.db_clones == 0, || {
            format!("{} database clones", m.db_clones)
        });
        let (_, pending) = db.metrics_with_pending();
        ctx.check(pending == 0 && m.committed == m.grounded_total(), || {
            format!(
                "{pending} pending, {} committed vs {} grounded",
                m.committed,
                m.grounded_total()
            )
        });
        ctx.wal_bytes += db.wal_size() - wal0;
        ctx.add_coordination(&db, &pairs, FLIGHTS.rows_per_flight);

        if let Some(before) = before {
            let after = Snap::of(&db);
            let c = &mut ctx.counters;
            c.add_delta(&before, &after);
            c.parses += m.parses;
            // Less the one SHOW METRICS frame that closed the round.
            c.frames += stats1.frames_decoded - stats0.frames_decoded - 1;
            c.bytes_in += stats1.bytes_in - stats0.bytes_in;
            c.bytes_out += stats1.bytes_out - stats0.bytes_out;
            c.outbox_full_stalls += stats1.outbox_full_stalls - stats0.outbox_full_stalls;
            let (events, lost) = events.unwrap_or_default();
            ctx.incomplete_windows += lost;
            trace_engine(ctx, &events, &client_spans);
            ctx.attribution.add(&events);
            codec_timings(ctx, &outs, &streams);
        }
        for client in env.clients.drain(..) {
            drop(client);
        }
        env.server.shutdown();
    }
}

/// Order one client's pairs so each partner books at most two bookings
/// after the first: `a1 [b1] a2 [b1|b2] …`.
fn partners_close(pairs: &[&Pair], rng: &mut StdRng) -> Vec<Request> {
    let req = |u: &str, p: &str, f: i64| Request {
        user: u.to_string(),
        partner: p.to_string(),
        flight: f,
    };
    let mut out = Vec::with_capacity(pairs.len() * 2);
    let mut held: Option<Request> = None;
    for p in pairs {
        let (first, second) = if rng.next_u64() & 1 == 0 {
            (req(&p.a, &p.b, p.flight), req(&p.b, &p.a, p.flight))
        } else {
            (req(&p.b, &p.a, p.flight), req(&p.a, &p.b, p.flight))
        };
        out.push(first);
        out.extend(held.take());
        if rng.next_u64() & 1 == 0 {
            out.push(second);
        } else {
            held = Some(second);
        }
    }
    out.extend(held);
    out
}

fn run_client(client: &mut Client, stream: &[Request], seed: u64) -> ClientOut {
    let Client {
        conn,
        book,
        peek,
        possible,
    } = client;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = ClientOut::default();
    let mut booked: Vec<&str> = Vec::with_capacity(stream.len());
    let mut reads = 0usize;
    let fail = |out: &mut ClientOut, what: String| {
        out.failed += 1;
        if out.failures.len() < 20 {
            out.failures.push(what);
        }
    };
    for r in stream {
        let params = booking_params(&r.user, &r.partner, r.flight);
        let t = Instant::now();
        let ns0 = now_ns();
        let res = conn.bind_run(book, &params);
        out.ops
            .push(("book", ns0, now_ns(), t.elapsed().as_secs_f64() * 1e6));
        if !matches!(res, Ok(Response::Committed(_))) {
            fail(
                &mut out,
                format!("booking of {} not committed: {res:?}", r.user),
            );
        }
        booked.push(&r.user);
        for j in 0..READS_PER_BOOKING {
            let user = if j == 0 {
                &r.user
            } else {
                booked[rng.gen_range(0..booked.len())]
            };
            reads += 1;
            let is_possible = reads.is_multiple_of(POSSIBLE_EVERY);
            let (stmt, kind) = if is_possible {
                (&*possible, "possible")
            } else {
                (&*peek, "peek")
            };
            let t = Instant::now();
            let ns0 = now_ns();
            let res = conn.bind_run(stmt, &[Value::from(user)]);
            out.ops
                .push((kind, ns0, now_ns(), t.elapsed().as_secs_f64() * 1e6));
            let ok = match (&res, is_possible) {
                (Ok(Response::Worlds(w)), true) => !w.is_empty(),
                (Ok(Response::Rows(rows)), false) => rows.len() <= 1,
                _ => false,
            };
            if !ok {
                fail(&mut out, format!("{kind} of {user} answered {res:?}"));
            }
            let slot = if is_possible {
                &mut out.possible_reply
            } else {
                &mut out.peek_reply
            };
            if slot.is_none() {
                *slot = res.ok();
            }
        }
    }
    out
}

/// Poll the server engine's flight recorder until `stop`, returning every
/// distinct event seen and how many polls may have missed events (no
/// overlap with the previous poll).
fn poll_events(obs: &Obs, stop: &AtomicBool) -> (Vec<SpanEvent>, u64) {
    let key = |e: &SpanEvent| (e.ts_ns, e.kind, e.dur_ns, e.txn_id, e.partition_id);
    let mut seen = BTreeSet::new();
    let mut out = Vec::new();
    let mut lost = 0;
    loop {
        let done = stop.load(Ordering::SeqCst);
        let batch = obs.events(obs.ring_capacity());
        let fresh: Vec<SpanEvent> = batch
            .iter()
            .filter(|e| !seen.contains(&key(e)))
            .copied()
            .collect();
        if !out.is_empty() && fresh.len() == batch.len() && batch.len() == obs.ring_capacity() {
            lost += 1;
        }
        for e in fresh {
            seen.insert(key(&e));
            out.push(e);
        }
        if done {
            return (out, lost);
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Nest the server's statement events under the client span that alone
/// contains them, and each phase event under the statement that alone
/// contains it; anything ambiguous is recorded without a parent.
fn trace_engine(ctx: &mut Ctx, events: &[SpanEvent], client_spans: &[Vec<(u64, u64, u64, u64)>]) {
    let tr = ctx.tracer.as_mut().expect("tracing is on");
    let inside = |lo: u64, hi: u64, e: &SpanEvent| lo <= e.ts_ns && e.ts_ns + e.dur_ns <= hi;
    let mut roots: Vec<&SpanEvent> = events
        .iter()
        .filter(|e| e.kind >= qdb_obs::STMT_CODE_BASE)
        .collect();
    roots.sort_by_key(|e| e.ts_ns);
    let mut groups: Vec<Vec<SpanEvent>> = roots.iter().map(|r| vec![**r]).collect();
    let mut orphans = Vec::new();
    for e in events.iter().filter(|e| e.kind < qdb_obs::STMT_CODE_BASE) {
        // Two executors: a phase can only lie in one of the last few
        // statements that started before it.
        let end = roots.partition_point(|r| r.ts_ns <= e.ts_ns);
        let holders: Vec<usize> = (end.saturating_sub(4)..end)
            .filter(|&i| inside(roots[i].ts_ns, roots[i].ts_ns + roots[i].dur_ns, e))
            .collect();
        match holders[..] {
            [i] => groups[i].push(*e),
            _ => orphans.push(*e),
        }
    }
    for group in &groups {
        let root = &group[0];
        let holders: Vec<(u64, u64)> = client_spans
            .iter()
            .filter_map(|spans| {
                let i = spans.partition_point(|s| s.0 <= root.ts_ns);
                let s = spans.get(i.checked_sub(1)?)?;
                inside(s.0, s.1, root).then_some((s.2, s.3))
            })
            .collect();
        match holders[..] {
            [(parent, op)] => tr.record_engine(Some(op), Some(parent), group),
            _ => tr.record_engine(None, None, group),
        }
    }
    tr.record_engine(None, None, &orphans);
}

/// Client-side codec cost: `wire::encode_request` on this round's
/// BIND/RUN requests and `wire::decode_reply` on its reply shapes.
fn codec_timings(ctx: &mut Ctx, outs: &[ClientOut], streams: &[Vec<Request>]) {
    let mut requests: Vec<WireRequest> = Vec::new();
    for r in streams.iter().flatten().take(64) {
        requests.push(WireRequest::Bind {
            stmt: 0,
            bound: 1,
            params: booking_params(&r.user, &r.partner, r.flight).to_vec(),
        });
        requests.push(WireRequest::Bind {
            stmt: 1,
            bound: 2,
            params: vec![Value::from(r.user.as_str())],
        });
        requests.push(WireRequest::Run { bound: 1 });
    }
    ctx.encode_ns.extend(time_calls(&requests, 20, |r| {
        drop(std::hint::black_box(wire::encode_request(7, r)))
    }));
    let mut replies = vec![
        Reply::Bound { bound: 1 },
        Reply::Engine(Response::Committed(42)),
    ];
    for out in outs {
        replies.extend(
            out.peek_reply
                .iter()
                .chain(&out.possible_reply)
                .cloned()
                .map(Reply::Engine),
        );
    }
    let frames: Vec<wire::Frame> = replies
        .iter()
        .map(|r| wire::parse_frame(&wire::encode_reply(7, r)).expect("encoded reply parses"))
        .collect();
    ctx.decode_ns.extend(time_calls(&frames, 200, |f| {
        drop(std::hint::black_box(wire::decode_reply(f)));
    }));
}
