//! Pins the exact bytes of every artifact the server serves for one
//! request per execution path: a layer sweep, a single-config layer, a
//! single-config network (per-layer streaming), a two-config network
//! sweep, a host plan and an auto-searched plan. Each artifact is
//! reduced to its `canonical_hash` digest, so any change to a report,
//! trace, metrics document or SVG timeline — one byte anywhere — fails
//! here. A refactor of the simulation stack must leave every digest as
//! it is; a deliberate change to the output updates them in the same
//! commit.

use wmpt_obs::json::s;
use wmpt_par::ParPool;
use wmpt_serve::{canonical_hash, hash_hex, run_request, SimRequest};

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
    .filter_map(|(name, text)| text.map(|t| (name, hash_hex(canonical_hash(&s(&t))))))
    .collect()
}

fn check(req: SimRequest, expect: &[(&str, &str)]) {
    let got = digests(&req);
    let got: Vec<(&str, &str)> = got.iter().map(|(n, d)| (*n, d.as_str())).collect();
    assert_eq!(got, expect, "artifact digests of {req:?}");
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
