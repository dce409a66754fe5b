//! Golden run digests: the simulator's determinism witness, pinned.
//!
//! A run's `digest` folds its whole client-visible history and final
//! database state, so it changes whenever any statement outcome, chosen
//! grounding, refusal or recovered state changes. Pinning it for seeds
//! 1–10 on the single-threaded and the sharded engine (smoke config,
//! crash injection on) turns "this change is a pure refactor or
//! optimisation" into a checked statement: such a change must leave every
//! constant below untouched.
//!
//! A change that alters engine behaviour on purpose updates these
//! constants and records why in `CHANGES.md`.

use qdb_sim::{run_seed, EngineKind, SimConfig};

const SINGLE: [u64; 10] = [
    0x150f96fe9e7997f4,
    0x6daf65fd3feb83d6,
    0x3399317c1cd4f4b7,
    0xba16030128884352,
    0x133663124d1be399,
    0x54168bc8619d676a,
    0x608d3c45170646bc,
    0x5dcfa59e34e7d927,
    0x7f0206ba26535e0a,
    0x02ddbc786a9d0e2e,
];

const SHARDED: [u64; 10] = [
    0x13b692d5d0a29559,
    0x11fd61a394f60880,
    0x972fd64c812da4eb,
    0xba16030128884352,
    0x54b4ae729a432162,
    0x60d9160a1e20e907,
    0xe8f3e133a0b83534,
    0x5dcfa59e34e7d927,
    0xac62583a09e0e140,
    0x09d4928a47330bd9,
];

fn check(engine: EngineKind, golden: &[u64; 10]) {
    let cfg = SimConfig::smoke(engine);
    let got: Vec<u64> = (1..=10u64)
        .map(|seed| {
            let r = run_seed(seed, &cfg);
            assert!(
                r.violation.is_none(),
                "{engine:?} seed {seed}: {:?}",
                r.violation
            );
            r.digest
        })
        .collect();
    let formatted: Vec<String> = got.iter().map(|d| format!("0x{d:016x}")).collect();
    assert_eq!(
        got.as_slice(),
        golden.as_slice(),
        "{engine:?} digests moved; got [{}]",
        formatted.join(", ")
    );
}

#[test]
fn single_engine_digests_are_pinned() {
    check(EngineKind::Single, &SINGLE);
}

#[test]
fn sharded_engine_digests_are_pinned() {
    check(EngineKind::Sharded, &SHARDED);
}
