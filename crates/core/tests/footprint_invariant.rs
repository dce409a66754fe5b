//! Randomized check of the sharded engine's registry bookkeeping.
//!
//! Every registered partition footprint is maintained incrementally:
//! admission counts the newcomer's atoms in, grounding and refusal take
//! them back out, merges add footprints together. This test drives random
//! statement sequences through [`SharedQuantumDb`] — submits (refusals
//! and multi-partition merges included), explicit `GROUND`, collapsing
//! reads, blind writes and `GROUND ALL` — and after every step holds each
//! registered footprint against the one rebuilt from its partition's
//! contents: equal as counted multisets, and giving the same answer to
//! every `overlaps_txn`, `touched_by_query` and `touched_by_write` probe.

use qdb_core::{Footprint, QuantumDb, QuantumDbConfig, SharedQuantumDb};
use qdb_logic::{parse_query, parse_transaction, Atom, ResourceTransaction, Term};
use qdb_storage::{tuple, Schema, ValueType, WriteOp};

/// Splitmix64 — the same deterministic generator idiom the workload crate
/// uses; only self-consistency per seed matters here.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

const FLIGHTS: i64 = 3;
const SEATS: [&str; 3] = ["A", "B", "C"];
const USERS: usize = 8;

fn engine(k: usize) -> SharedQuantumDb {
    let mut qdb = QuantumDb::new(QuantumDbConfig::with_k(k)).unwrap();
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
    for f in 1..=FLIGHTS {
        for s in &SEATS[..2] {
            qdb.bulk_insert("Available", vec![tuple![f, *s]]).unwrap();
        }
    }
    qdb.into_shared()
}

/// A booking for user `u`: on a fixed flight, or on any flight (which
/// overlaps every flight's partition and merges them), optionally
/// entangled with partner `p` on the same flight.
fn booking(rng: &mut Rng) -> ResourceTransaction {
    let u = rng.below(USERS);
    let flight = if rng.below(6) == 0 {
        "f".to_string()
    } else {
        (1 + rng.below(FLIGHTS as usize)).to_string()
    };
    let partner = if rng.below(2) == 0 {
        format!(", Bookings('u{}', {flight}, s2)?", rng.below(USERS))
    } else {
        String::new()
    };
    parse_transaction(&format!(
        "-Available({flight}, s), +Bookings('u{u}', {flight}, s) :-1 Available({flight}, s){partner}"
    ))
    .unwrap()
}

fn seat_op(rng: &mut Rng) -> WriteOp {
    let t = tuple![
        1 + rng.below(FLIGHTS as usize) as i64,
        SEATS[rng.below(SEATS.len())]
    ];
    if rng.below(2) == 0 {
        WriteOp::insert("Available", t)
    } else {
        WriteOp::delete("Available", t)
    }
}

fn query(rng: &mut Rng) -> Vec<Atom> {
    let text = match rng.below(3) {
        0 => format!("Bookings('u{}', f, s)", rng.below(USERS)),
        1 => format!("Available({}, s)", 1 + rng.below(FLIGHTS as usize)),
        _ => format!("Bookings(n, {}, s)", 1 + rng.below(FLIGHTS as usize)),
    };
    parse_query(&text).unwrap().atoms
}

fn const_atom(op: &WriteOp) -> Atom {
    Atom::new(
        op.relation(),
        op.tuple().iter().map(|v| Term::Const(v.clone())).collect(),
    )
}

fn check(db: &SharedQuantumDb, rng: &mut Rng, seed: u64, step: usize) {
    let audit = db.registered_footprints();
    assert_eq!(audit.len(), db.partition_count());
    for (registered, rebuilt) in &audit {
        assert_eq!(
            registered, rebuilt,
            "seed {seed} step {step}: registered footprint drifted"
        );
        assert_probes_agree(registered, rebuilt, rng, seed, step);
    }
}

fn assert_probes_agree(a: &Footprint, b: &Footprint, rng: &mut Rng, seed: u64, step: usize) {
    for _ in 0..8 {
        let txn = booking(rng);
        assert_eq!(
            a.overlaps_txn(&txn),
            b.overlaps_txn(&txn),
            "seed {seed} step {step}: overlaps_txn"
        );
        let q = query(rng);
        assert_eq!(
            a.touched_by_query(&q),
            b.touched_by_query(&q),
            "seed {seed} step {step}: touched_by_query"
        );
        let w = const_atom(&seat_op(rng));
        assert_eq!(
            a.touched_by_write(&w),
            b.touched_by_write(&w),
            "seed {seed} step {step}: touched_by_write"
        );
    }
}

#[test]
fn registered_footprints_match_partition_contents() {
    let mut refusals = 0;
    let mut merges = 0;
    for seed in 0..24u64 {
        let mut rng = Rng(seed);
        let db = engine(2 + rng.below(4));
        for step in 0..120 {
            match rng.below(20) {
                0..=10 => {
                    db.submit(&booking(&mut rng)).unwrap();
                }
                11 | 12 => {
                    let ids = db.pending_ids();
                    if !ids.is_empty() {
                        db.ground(ids[rng.below(ids.len())]).unwrap();
                    }
                }
                13 | 14 => {
                    db.read(&query(&mut rng), None).unwrap();
                }
                15..=17 => {
                    db.write(seat_op(&mut rng)).unwrap();
                }
                18 => {
                    db.ground_all().unwrap();
                }
                _ => {
                    db.checkpoint().unwrap();
                }
            }
            check(&db, &mut rng, seed, step);
        }
        let m = db.metrics();
        refusals += m.aborted;
        merges += m.partition_merges;
    }
    // The mix really exercised the paths the bookkeeping must survive.
    assert!(refusals > 0, "no submit was refused");
    assert!(merges > 0, "no submit merged partitions");
}
