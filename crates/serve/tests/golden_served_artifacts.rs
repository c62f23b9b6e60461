//! Pins the exact bytes of every artifact the server serves for one
//! request per execution path: a layer sweep, a single-config layer, a
//! single-config network (per-layer streaming), a two-config network
//! sweep, a host plan, an auto-searched plan, two flit-level `noc`
//! sweeps and a `faults` run of every scenario. Each artifact is reduced to its `canonical_hash` digest, so
//! any change to a report, trace, metrics document or SVG timeline — one
//! byte anywhere — fails here. A refactor of the simulation stack must
//! leave every digest as it is; a deliberate change to the output
//! updates them in the same commit. Layer and network requests also run
//! unobserved, and that report must hash to the same pinned digest:
//! observing a run never changes what it reports.

use wmpt_fault::Scenario;
use wmpt_obs::json::s;
use wmpt_obs::{Logger, Observer};
use wmpt_par::ParPool;
use wmpt_serve::{
    canonical_hash, hash_hex, run_request, run_request_with, SimRequest, DEFAULT_FAULT_ITERS,
    DEFAULT_FAULT_SEED,
};

fn digest(text: &str) -> String {
    hash_hex(canonical_hash(&s(text)))
}

/// `(artifact, digest)` for every artifact the request produces, in
/// report, trace, metrics, svg order; absent artifacts are skipped.
fn digests(req: &SimRequest) -> Vec<(&'static str, String)> {
    let res = run_request(req, &ParPool::new(2)).expect("request runs");
    [
        ("report", Some(res.report)),
        ("trace", res.trace),
        ("metrics", res.metrics),
        ("svg", res.svg),
    ]
    .into_iter()
    .filter_map(|(name, text)| text.map(|t| (name, digest(&t))))
    .collect()
}

fn check(req: SimRequest, expect: &[(&str, &str)]) {
    let got = digests(&req);
    let got: Vec<(&str, &str)> = got.iter().map(|(n, d)| (*n, d.as_str())).collect();
    assert_eq!(got, expect, "artifact digests of {req:?}");
    if matches!(req, SimRequest::Layer { .. } | SimRequest::Network { .. }) {
        let pool = ParPool::new(2);
        let log = Logger::disabled();
        let report = run_request_with(&req, &pool, &mut Observer::new(), &mut None, &log, false)
            .expect("unobserved request runs");
        assert_eq!(
            ("report", digest(&report).as_str()),
            expect[0],
            "unobserved report digest of {req:?}"
        );
    }
}

#[test]
fn layer_sweep_artifacts_are_pinned() {
    check(
        SimRequest::layer("Late-2", "all").unwrap(),
        &[
            ("report", "7bee93adbb794868e403617a741fcf7f"),
            ("trace", "9d72134d2a9a3bc040a968011b6918bf"),
            ("metrics", "e158621123be14b53cee5faf6895e0ea"),
            ("svg", "744ca515f65b7e8551c78eb7e691085a"),
        ],
    );
}

#[test]
fn single_config_layer_artifacts_are_pinned() {
    check(
        SimRequest::layer("Early", "w_mp++").unwrap(),
        &[
            ("report", "3d28f8a192f5c1130e2fdb61d3e91e98"),
            ("trace", "957f62891046f7a2f669fde7d73889b9"),
            ("metrics", "93f74adad13cb6c664a3d193d0db8f25"),
            ("svg", "d8efa27f53e068ee90d99c4121b0ba45"),
        ],
    );
}

#[test]
fn per_layer_network_artifacts_are_pinned() {
    check(
        SimRequest::network("wrn", "w_mp++").unwrap(),
        &[
            ("report", "4685c9ff3e832e73adf6cb1d3a953614"),
            ("trace", "3e0e904f74b220d591ef08a7bb3dc7fe"),
            ("metrics", "f282cc8ff7ae2224f18c760992bdbaf3"),
            ("svg", "b273377788442b1669116e11bc0b70cd"),
        ],
    );
}

#[test]
fn network_sweep_artifacts_are_pinned() {
    check(
        SimRequest::Network {
            network: "table2".to_string(),
            configs: vec!["w_dp".to_string(), "w_mp++".to_string()],
        },
        &[
            ("report", "4eee054ed0e8c6b748bc310e348c0848"),
            ("trace", "f9b83bb2bc82e237800eeff04d7ea714"),
            ("metrics", "c0a970318bba9bb782cae96d4565a718"),
            ("svg", "f9bd003316fb2fd3d3c5a880f97b6cb0"),
        ],
    );
}

#[test]
fn host_plan_report_is_pinned() {
    check(
        SimRequest::plan("wrn", "w_mp++").unwrap(),
        &[("report", "755587692bd35633376cce6fbe8ea404")],
    );
}

#[test]
fn auto_plan_artifacts_are_pinned() {
    check(
        SimRequest::plan_auto("table2").unwrap(),
        &[
            ("report", "74413cc9c0580b07ab104f8ae9f7f4e0"),
            ("metrics", "814edd7f0aa24430ce44122959f25673"),
        ],
    );
}

#[test]
fn ring_noc_report_is_pinned() {
    check(
        SimRequest::noc("ring", "uniform").unwrap(),
        &[("report", "273b5deab4453972ae678fcab69d6999")],
    );
}

#[test]
fn fbfly_noc_report_is_pinned() {
    check(
        SimRequest::noc("fbfly", "hotspot").unwrap(),
        &[("report", "b044878baeb3926ba45e3dad196d5dac")],
    );
}

#[test]
fn faults_artifacts_are_pinned() {
    let expect: [(Scenario, [(&str, &str); 2]); 6] = [
        (
            Scenario::SingleLink,
            [
                ("report", "ce67b7fccc0cdb7bb5f3b8f575637bb4"),
                ("metrics", "ceeeb6f5d6894468351ab18add14f60f"),
            ],
        ),
        (
            Scenario::DeadWorker,
            [
                ("report", "d74c2207d18fa6f7c08ca2bd47471790"),
                ("metrics", "6e2b05bfb2d68f8908cd88cfb1b0fa96"),
            ],
        ),
        (
            Scenario::BitFlip,
            [
                ("report", "942d167de9518568f6fdccd5fcfc9e1f"),
                ("metrics", "ba69a3bbeb83b88d95224613cf7cb026"),
            ],
        ),
        (
            Scenario::Straggler,
            [
                ("report", "23c172748cf74f6f3473afc2e5e215ec"),
                ("metrics", "4f908a24e0475214652fce55b3278eb7"),
            ],
        ),
        (
            Scenario::HostFlap,
            [
                ("report", "26a0ef0fcc983b73342fe6a1e21aecb8"),
                ("metrics", "4f908a24e0475214652fce55b3278eb7"),
            ],
        ),
        (
            Scenario::Chaos,
            [
                ("report", "029b602e8890240d62e59f990709b3f6"),
                ("metrics", "dc9904769613d144330d02b39c18071b"),
            ],
        ),
    ];
    assert_eq!(expect.map(|(sc, _)| sc), Scenario::ALL);
    for (sc, digests) in expect {
        check(
            SimRequest::faults(sc.name(), DEFAULT_FAULT_SEED, DEFAULT_FAULT_ITERS).unwrap(),
            &digests,
        );
    }
}
