//! A `faults` request reads its fault-free steps from a process-wide
//! trajectory. This file holds a single test, so its first requests
//! really meet a cold memo (each integration-test file is its own
//! process): the six default `faults` requests run from two threads at
//! once, then again on the warm memo, and every artifact must equal the
//! digest `golden_served_artifacts.rs` pins for it.

use std::thread;

use wmpt_fault::Scenario;
use wmpt_obs::json::s;
use wmpt_par::ParPool;
use wmpt_serve::{
    canonical_hash, hash_hex, run_request, SimRequest, DEFAULT_FAULT_ITERS, DEFAULT_FAULT_SEED,
};

/// `(report, metrics)` digests of each scenario's default request, as
/// pinned in `golden_served_artifacts.rs`.
const PINS: [(Scenario, &str, &str); 6] = [
    (
        Scenario::SingleLink,
        "ce67b7fccc0cdb7bb5f3b8f575637bb4",
        "ceeeb6f5d6894468351ab18add14f60f",
    ),
    (
        Scenario::DeadWorker,
        "d74c2207d18fa6f7c08ca2bd47471790",
        "6e2b05bfb2d68f8908cd88cfb1b0fa96",
    ),
    (
        Scenario::BitFlip,
        "942d167de9518568f6fdccd5fcfc9e1f",
        "ba69a3bbeb83b88d95224613cf7cb026",
    ),
    (
        Scenario::Straggler,
        "23c172748cf74f6f3473afc2e5e215ec",
        "4f908a24e0475214652fce55b3278eb7",
    ),
    (
        Scenario::HostFlap,
        "26a0ef0fcc983b73342fe6a1e21aecb8",
        "4f908a24e0475214652fce55b3278eb7",
    ),
    (
        Scenario::Chaos,
        "029b602e8890240d62e59f990709b3f6",
        "dc9904769613d144330d02b39c18071b",
    ),
];

/// Runs every scenario's default request and checks its digests.
fn run_all(who: &str) {
    for (sc, report, metrics) in PINS {
        let req = SimRequest::faults(sc.name(), DEFAULT_FAULT_SEED, DEFAULT_FAULT_ITERS).unwrap();
        let res = run_request(&req, &ParPool::serial()).expect("request runs");
        let digest = |t: &str| hash_hex(canonical_hash(&s(t)));
        assert_eq!(digest(&res.report), report, "{who}: {sc} report");
        assert_eq!(
            digest(res.metrics.as_deref().expect("metrics artifact")),
            metrics,
            "{who}: {sc} metrics"
        );
        assert!(res.trace.is_none() && res.svg.is_none(), "{who}: {sc}");
    }
}

#[test]
fn cold_concurrent_and_warm_faults_requests_serve_the_pinned_bytes() {
    assert_eq!(PINS.map(|(sc, ..)| sc), Scenario::ALL);
    thread::scope(|scope| {
        let a = scope.spawn(|| run_all("cold, thread a"));
        let b = scope.spawn(|| run_all("cold, thread b"));
        a.join().expect("thread a");
        b.join().expect("thread b");
    });
    run_all("warm");
}
