//! `mpt_sim` exit-code contract: good invocations exit 0, unknown
//! subcommands/flags/values exit nonzero with a usage message — so CI
//! scripts and shell pipelines can trust `$?`.

use std::process::{Command, Output};

fn mpt_sim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mpt_sim"))
        .args(args)
        .output()
        .expect("spawn mpt_sim")
}

fn assert_rejected(args: &[&str]) {
    let out = mpt_sim(args);
    assert!(
        !out.status.success(),
        "{args:?} should fail but exited 0:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("usage:"),
        "{args:?} stderr lacks usage:\n{err}"
    );
}

#[test]
fn unknown_subcommands_and_flags_exit_nonzero() {
    assert_rejected(&[]);
    assert_rejected(&["bogus", "a", "b"]);
    assert_rejected(&["layer", "Late-2", "w_mp++", "--bogus", "x"]);
    assert_rejected(&["layer", "NoSuchLayer", "w_mp++"]);
    assert_rejected(&["layer", "Late-2", "not_a_config"]);
    assert_rejected(&["faults"]);
    assert_rejected(&["faults", "--scenario", "nope"]);
    assert_rejected(&["faults", "--scenario", "single-link", "--seed", "NaN"]);
    assert_rejected(&["faults", "--scenario", "single-link", "--iters", "0"]);
    assert_rejected(&["faults", "--scenario", "single-link", "--iters", "1025"]);
    assert_rejected(&["faults", "--scenario", "single-link", "--frobnicate", "1"]);
    // Obs sinks only apply to layer/network; silently ignoring them on
    // other commands used to mask typos.
    assert_rejected(&["noc", "fbfly", "uniform", "--trace-out", "/tmp/t.json"]);
    assert_rejected(&["plan", "wrn", "w_mp++", "--metrics-out", "/tmp/m.json"]);
    // A flag missing its value is also an error, not a silent default.
    assert_rejected(&["layer", "Late-2", "w_mp++", "--trace-out"]);
    assert_rejected(&["faults", "--scenario"]);
    // --log-level values are validated, and the flag is scoped like the
    // other obs sinks (serve parses its own copy).
    assert_rejected(&["layer", "Late-2", "w_mp++", "--log-level", "loud"]);
    assert_rejected(&["layer", "Late-2", "w_mp++", "--log-level"]);
    assert_rejected(&["noc", "fbfly", "uniform", "--log-level", "info"]);
    assert_rejected(&["serve", "--log-level", "chatty"]);
}

#[test]
fn faults_smoke_run_exits_zero_with_recovery_metrics() {
    let out = mpt_sim(&["faults", "--scenario", "single-link", "--seed", "7"]);
    assert!(
        out.status.success(),
        "faults run failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    let summary = text
        .lines()
        .find(|l| l.starts_with("resilience:"))
        .unwrap_or_else(|| panic!("no resilience summary line:\n{text}"));
    for needle in [
        "scenario=single-link",
        "seed=7",
        "rollbacks=1",
        "bit_identical=true",
    ] {
        assert!(
            summary.contains(needle),
            "summary lacks {needle}: {summary}"
        );
    }
    assert!(
        !summary.contains("rollbacks=0") && !summary.contains("recoveries=0"),
        "recovery metrics must be nonzero: {summary}"
    );
    assert!(
        text.contains("fault.events_injected"),
        "metric table missing"
    );
}

#[test]
fn noc_sweep_still_exits_zero() {
    let out = mpt_sim(&["noc", "ring", "neighbor"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("flit-level sweep"));
}
