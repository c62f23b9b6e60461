//! Smoke test: every paper experiment runs end to end through the
//! workspace facade and produces the markers EXPERIMENTS.md documents.
//!
//! (The experiment *content* is tested inside `wmpt-bench`; this test
//! pins the registry and the cross-crate wiring.)

#[test]
fn all_experiments_run_and_mention_their_figures() {
    let markers: &[(&str, &str)] = &[
        ("tables", "Table I"),
        ("fig01", "Figure 1"),
        ("fig06", "Figure 6"),
        ("fig07", "Figure 7"),
        ("fig12", "Figure 12"),
        ("fig14", "Figure 14"),
        ("fig15", "Figure 15"),
        ("fig16", "Figure 16"),
        ("fig17", "Figure 17"),
        ("fig18", "Figure 18"),
        ("scalability", "strong scaling"),
        ("comm_breakdown", "Communication breakdown"),
        ("resilience", "Resilience"),
        ("par_speedup", "host-parallel speedup"),
        ("kernels", "GEMM roofline"),
        ("serve_load", "serve load"),
        ("plan_search", "auto-searched plans"),
    ];
    let registry = wmpt_bench::all_experiments();
    assert_eq!(registry.len(), markers.len());
    for (name, marker) in markers {
        let (_, runner) = registry
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("experiment {name} missing"));
        let out = runner().table;
        assert!(
            out.contains(marker),
            "{name}: output lacks '{marker}'\n{out}"
        );
        assert!(
            out.lines().count() >= 3,
            "{name}: suspiciously short output"
        );
    }
}

#[test]
fn headline_numbers_are_reported() {
    let fig15 = wmpt_bench::fig15::run();
    assert!(
        fig15.contains("headline"),
        "fig15 must report the w_mp++ headline"
    );
    let fig17 = wmpt_bench::fig17::run();
    assert!(
        fig17.contains("8-GPU"),
        "fig17 must compare against the GPU system"
    );
    let fig18 = wmpt_bench::fig18::run();
    assert!(
        fig18.contains("perf/W"),
        "fig18 must report performance per watt"
    );
}
