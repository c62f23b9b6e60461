//! End-to-end cache-correctness differential over the HTTP boundary:
//! the memoized (warm) response for every artifact endpoint must be
//! byte-identical to the cold run's artifacts, and both must equal a
//! direct in-process [`run_request`] — under a single-threaded pool and
//! a 4-way pool alike. This pins the serving layer to the simulator's
//! bit-exactness contract: caching may never change a byte, and neither
//! may the worker parallelism behind the server.

use wmpt_par::ParPool;
use wmpt_serve::{hash_hex, http_request, run_request, ServeConfig, Server, SimRequest};

const ARTIFACTS: [&str; 4] = ["report", "metrics", "trace", "svg"];

fn submit(addr: &str, req: &SimRequest) -> wmpt_serve::Response {
    let body = req.to_json().render();
    http_request(addr, "POST", "/api/v1/jobs?wait=1", body.as_bytes()).expect("submit")
}

fn fetch_artifacts(addr: &str, req: &SimRequest) -> Vec<String> {
    let id = hash_hex(req.cache_key());
    ARTIFACTS
        .iter()
        .map(|a| {
            let resp =
                http_request(addr, "GET", &format!("/api/v1/jobs/{id}/{a}"), b"").expect("fetch");
            assert_eq!(resp.status, 200, "{a}");
            resp.text().to_string()
        })
        .collect()
}

#[test]
fn warm_artifacts_are_byte_identical_to_cold_under_jobs_1_and_4() {
    let req = SimRequest::layer("Mid-1", "all").expect("layer request");
    let mut per_jobs: Vec<Vec<String>> = Vec::new();
    for jobs in [1usize, 4] {
        let server = Server::bind(
            "127.0.0.1:0",
            ServeConfig {
                jobs,
                ..ServeConfig::default()
            },
        )
        .expect("bind");
        let addr = server.addr().to_string();

        let cold = submit(&addr, &req);
        assert_eq!(cold.status, 200);
        assert!(cold.text().contains("\"cached\":false"), "{}", cold.text());
        let cold_arts = fetch_artifacts(&addr, &req);

        // The served cold artifacts equal a direct in-process run on an
        // identically sized pool.
        let direct = run_request(&req, &ParPool::new(jobs)).expect("direct run");
        assert_eq!(cold_arts[0], direct.report, "report (jobs={jobs})");
        assert_eq!(
            Some(cold_arts[1].as_str()),
            direct.metrics.as_deref(),
            "metrics (jobs={jobs})"
        );
        assert_eq!(
            Some(cold_arts[2].as_str()),
            direct.trace.as_deref(),
            "trace (jobs={jobs})"
        );
        assert_eq!(
            Some(cold_arts[3].as_str()),
            direct.svg.as_deref(),
            "svg (jobs={jobs})"
        );

        let warm = submit(&addr, &req);
        assert_eq!(warm.status, 200);
        assert!(warm.text().contains("\"cached\":true"), "{}", warm.text());
        let warm_arts = fetch_artifacts(&addr, &req);
        assert_eq!(cold_arts, warm_arts, "warm bytes differ (jobs={jobs})");

        per_jobs.push(cold_arts);
        server.shutdown();
    }
    // Determinism across worker counts: jobs=1 and jobs=4 produce the
    // same bytes for every artifact (the PR-3 contract, over HTTP).
    assert_eq!(per_jobs[0], per_jobs[1], "jobs=1 vs jobs=4 bytes differ");
}

#[test]
fn served_trace_feeds_the_analyze_endpoint() {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let addr = server.addr().to_string();

    let layer = SimRequest::layer("Late-2", "w_mp").expect("layer request");
    assert_eq!(submit(&addr, &layer).status, 200);
    let id = hash_hex(layer.cache_key());
    let trace =
        http_request(&addr, "GET", &format!("/api/v1/jobs/{id}/trace"), b"").expect("fetch trace");
    assert_eq!(trace.status, 200);

    // Round-trip: the served chrome trace is a valid analyze input.
    let analyze = SimRequest::analyze(&trace.text()).expect("analyze request");
    let resp = submit(&addr, &analyze);
    assert_eq!(resp.status, 200, "{}", resp.text());
    let aid = hash_hex(analyze.cache_key());
    let report = http_request(&addr, "GET", &format!("/api/v1/jobs/{aid}/report"), b"")
        .expect("fetch analysis");
    assert_eq!(report.status, 200);
    assert!(
        report.text().contains("critical"),
        "analysis lacks critical-path section:\n{}",
        report.text()
    );
    let svg =
        http_request(&addr, "GET", &format!("/api/v1/jobs/{aid}/svg"), b"").expect("fetch svg");
    assert_eq!(svg.status, 200);
    assert!(svg.text().starts_with("<svg"), "not an svg document");
    server.shutdown();
}

#[test]
fn pause_resume_cycle_completes_queued_work() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            queue_depth: 4,
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let addr = server.addr().to_string();
    server.pause();
    for config in ["d_dp", "w_dp", "w_mp", "w_mp+"] {
        let req = SimRequest::plan("wrn", config).expect("plan");
        let resp = http_request(
            &addr,
            "POST",
            "/api/v1/jobs",
            req.to_json().render().as_bytes(),
        )
        .expect("submit");
        assert_eq!(resp.status, 202, "{}", resp.text());
    }
    // Queue full: a fifth distinct job bounces with 429.
    let fifth = SimRequest::plan("wrn", "w_mp*").expect("plan");
    let resp = http_request(
        &addr,
        "POST",
        "/api/v1/jobs",
        fifth.to_json().render().as_bytes(),
    )
    .expect("submit");
    assert_eq!(resp.status, 429, "{}", resp.text());

    server.resume();
    // After resume, waiting on a queued request drains it to Done.
    let req = SimRequest::plan("wrn", "d_dp").expect("plan");
    let resp = submit(&addr, &req);
    assert_eq!(resp.status, 200, "{}", resp.text());
    let report = server.shutdown();
    assert!(
        report.fully_drained(),
        "jobs left unfinished: {:?}",
        report.jobs
    );
}

#[test]
fn auto_plan_and_ring_noc_jobs_serve_end_to_end() {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let addr = server.addr().to_string();

    // The once-deadlocking ring/uniform sweep completes over HTTP now
    // that the flit simulator uses dateline virtual channels.
    let ring = SimRequest::noc("ring", "uniform").expect("noc request");
    let resp = submit(&addr, &ring);
    assert_eq!(resp.status, 200, "{}", resp.text());

    // The auto-search job kind: report carries the plan table and the
    // oracle line; the metrics artifact carries the opt.* counters.
    let auto = SimRequest::plan_auto("table2").expect("plan_auto request");
    let resp = submit(&addr, &auto);
    assert_eq!(resp.status, 200, "{}", resp.text());
    let id = hash_hex(auto.cache_key());
    let report = http_request(&addr, "GET", &format!("/api/v1/jobs/{id}/report"), b"")
        .expect("fetch report");
    assert_eq!(report.status, 200);
    assert!(
        report.text().contains("auto plan: Table-II"),
        "{}",
        report.text()
    );
    assert!(report.text().contains("oracle:"), "{}", report.text());
    let metrics = http_request(&addr, "GET", &format!("/api/v1/jobs/{id}/metrics"), b"")
        .expect("fetch metrics");
    assert_eq!(metrics.status, 200);
    assert!(
        metrics.text().contains("opt.configs_evaluated"),
        "{}",
        metrics.text()
    );

    // Byte-identical to a direct in-process run, as for every kind.
    let direct = run_request(&auto, &ParPool::new(1)).expect("direct run");
    assert_eq!(report.text(), direct.report);
    let served_metrics = metrics.text().to_string();
    assert_eq!(Some(served_metrics.as_str()), direct.metrics.as_deref());
    server.shutdown();
}

#[test]
fn deeply_nested_body_is_rejected_and_the_server_stays_up() {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let addr = server.addr().to_string();
    let body = "[".repeat(1 << 20);
    let resp = http_request(&addr, "POST", "/api/v1/jobs", body.as_bytes()).expect("submit");
    assert_eq!(resp.status, 400, "{}", resp.text());
    let health = http_request(&addr, "GET", "/api/v1/healthz", b"").expect("healthz");
    assert_eq!(health.status, 200);
    server.shutdown();
}
