//! End-to-end observability contract of the server: the lifecycle
//! trace's exact stage attribution (stages tile each request span, the
//! job span nests inside its submitting request), the Prometheus
//! exposition of the `serve.*` registry, the enriched `/healthz`
//! snapshot, request-id propagation into response headers and log
//! events, and the flamegraph/SVG renderings of the served trace.

use wmpt_obs::json::{self, Value};
use wmpt_obs::{Level, Logger, Span, Tracer};
use wmpt_serve::{http_request, Response, ServeConfig, Server, SimRequest};

/// Submits `req` with `?wait=1`. `http_request` reads to EOF, and the
/// server closes the connection only after it pushes the submission's
/// lifecycle record, so once this returns the request is in
/// `/api/v1/trace`.
fn submit(addr: &str, req: &SimRequest) -> Response {
    let body = req.to_json().render();
    http_request(addr, "POST", "/api/v1/jobs?wait=1", body.as_bytes()).expect("submit")
}

fn fetch(addr: &str, path: &str) -> wmpt_serve::Response {
    http_request(addr, "GET", path, b"").expect("fetch")
}

/// The lifecycle contract: stage spans are contiguous and tile the
/// outer span exactly (no tolerance), per track.
fn assert_exact_attribution(trace: &Tracer, track_name: &str, stage_names: &[&str]) -> Vec<Span> {
    let idx = trace
        .tracks()
        .iter()
        .position(|t| t == track_name)
        .unwrap_or_else(|| panic!("no track {track_name:?} in {:?}", trace.tracks()));
    let spans: Vec<&Span> = trace
        .spans()
        .iter()
        .filter(|sp| sp.track.index() == idx)
        .collect();
    let outers: Vec<Span> = spans
        .iter()
        .filter(|sp| sp.cat == "request")
        .map(|sp| (*sp).clone())
        .collect();
    assert!(!outers.is_empty(), "no outer spans on {track_name}");
    for outer in &outers {
        let rid = outer
            .name
            .rsplit_once("#r")
            .expect("request-id suffix")
            .1
            .to_string();
        assert!(rid.bytes().all(|b| b.is_ascii_digit()), "{}", outer.name);
        // This record's stages: the serve-category spans inside the
        // outer interval (request ids keep concurrent records apart on
        // shared worker tracks; here records never overlap in time).
        let stages: Vec<&&Span> = spans
            .iter()
            .filter(|sp| sp.cat == "serve" && sp.start >= outer.start && sp.end <= outer.end)
            .collect();
        assert_eq!(
            stages.len(),
            stage_names.len(),
            "stage count for {}",
            outer.name
        );
        let mut cursor = outer.start;
        for (stage, expect) in stages.iter().zip(stage_names) {
            assert_eq!(stage.name, *expect, "stage order for {}", outer.name);
            assert_eq!(
                stage.start, cursor,
                "stage {} not contiguous in {}",
                stage.name, outer.name
            );
            cursor = stage.end;
        }
        assert_eq!(cursor, outer.end, "stages do not tile {}", outer.name);
        let stage_sum: u64 = stages.iter().map(|sp| sp.cycles()).sum();
        assert_eq!(
            stage_sum,
            outer.cycles(),
            "stage durations must sum to request latency exactly ({})",
            outer.name
        );
    }
    outers
}

#[test]
fn lifecycle_trace_attributes_every_microsecond_of_a_request() {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let addr = server.addr().to_string();
    let req = SimRequest::plan("wrn", "w_mp++").expect("plan");
    let cold = submit(&addr, &req);
    assert_eq!(cold.status, 200);
    assert!(!cold.request_id.is_empty(), "no X-Request-Id header");
    let warm = submit(&addr, &req);
    assert_eq!(warm.status, 200);
    assert_ne!(
        cold.request_id, warm.request_id,
        "request ids must be distinct per connection"
    );

    let resp = fetch(&addr, "/api/v1/trace");
    assert_eq!(resp.status, 200);
    let doc = json::parse(&resp.text()).expect("chrome trace JSON");
    let trace = Tracer::from_chrome_trace(&doc).expect("reparse");

    let executed = assert_exact_attribution(
        &trace,
        "executed",
        &["parse", "cache_lookup", "wait", "respond"],
    );
    assert_eq!(executed.len(), 1);
    let hit =
        assert_exact_attribution(&trace, "hit", &["parse", "cache_lookup", "wait", "respond"]);
    assert_eq!(hit.len(), 1);

    // The executed job left a queue_wait + execute pair on a worker
    // track, nested inside the submitting request's span.
    let worker_track = trace
        .tracks()
        .iter()
        .find(|t| t.starts_with("worker"))
        .expect("worker track")
        .clone();
    let jobs = assert_exact_attribution(&trace, &worker_track, &["queue_wait", "execute"]);
    assert_eq!(jobs.len(), 1);
    assert!(jobs[0].name.contains(".job#r"), "{}", jobs[0].name);
    let outer = &executed[0];
    assert!(
        jobs[0].start >= outer.start && jobs[0].end <= outer.end,
        "job span [{}, {}) escapes its request span [{}, {})",
        jobs[0].start,
        jobs[0].end,
        outer.start,
        outer.end
    );
    // Same request id on the request span and its job span.
    let rid = outer.name.rsplit_once("#r").expect("rid").1;
    assert!(jobs[0].name.ends_with(&format!("#r{rid}")));

    // The same trace renders as a timeline SVG and folds into
    // collapsed stacks whose frames aggregate across requests.
    let svg = fetch(&addr, "/api/v1/trace?format=svg");
    assert_eq!(svg.status, 200);
    assert!(svg.text().starts_with("<svg"), "not an svg timeline");
    let flame = fetch(&addr, "/api/v1/trace?format=flame");
    assert_eq!(flame.status, 200);
    assert!(
        flame
            .text()
            .lines()
            .any(|l| l.starts_with("executed;plan;")),
        "collapsed stacks lack executed;plan frames:\n{}",
        flame.text()
    );
    let fsvg = fetch(&addr, "/api/v1/trace?format=flamesvg");
    assert_eq!(fsvg.status, 200);
    assert!(fsvg.text().starts_with("<svg"), "not a flamegraph svg");
    assert_eq!(fetch(&addr, "/api/v1/trace?format=nope").status, 400);
    server.shutdown();
}

#[test]
fn prometheus_exposition_renders_counters_and_histograms() {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let addr = server.addr().to_string();
    let req = SimRequest::plan("wrn", "w_mp").expect("plan");
    assert_eq!(submit(&addr, &req).status, 200);
    assert_eq!(submit(&addr, &req).status, 200);

    let resp = fetch(&addr, "/api/v1/metrics?format=prom");
    assert_eq!(resp.status, 200);
    assert_eq!(
        resp.content_type,
        "text/plain; version=0.0.4; charset=utf-8"
    );
    let text = resp.text();
    assert!(
        text.contains("wmpt_serve_requests_total 2"),
        "missing request counter:\n{text}"
    );
    assert!(text.contains("wmpt_serve_cache_hits_total 1"), "{text}");
    assert!(text.contains("wmpt_serve_jobs_executed_total 1"), "{text}");
    assert!(
        text.contains("# TYPE wmpt_serve_cache_bytes gauge"),
        "{text}"
    );
    // Histogram exposition: cumulative buckets ending in +Inf whose
    // final count equals the _count series.
    assert!(
        text.contains("# TYPE wmpt_serve_latency_us histogram"),
        "{text}"
    );
    assert!(
        text.contains("wmpt_serve_latency_us_bucket{le=\"+Inf\"} 1"),
        "{text}"
    );
    assert!(text.contains("wmpt_serve_latency_us_count 1"), "{text}");
    assert!(
        text.contains("wmpt_serve_queue_wait_us_count 1"),
        "queue-wait histogram missing:\n{text}"
    );
    // The JSON view still works and agrees on the counters.
    let js = fetch(&addr, "/api/v1/metrics");
    assert_eq!(js.status, 200);
    let doc = json::parse(&js.text()).expect("metrics JSON");
    let counters = doc.get("counters").expect("counters");
    assert_eq!(
        counters.get("serve.requests").and_then(Value::as_f64),
        Some(2.0)
    );
    server.shutdown();
}

#[test]
fn healthz_reports_cache_uptime_and_rolling_percentiles() {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let addr = server.addr().to_string();
    let req = SimRequest::plan("wrn", "d_dp").expect("plan");
    assert_eq!(submit(&addr, &req).status, 200);

    let resp = fetch(&addr, "/api/v1/healthz");
    assert_eq!(resp.status, 200);
    let doc = json::parse(&resp.text()).expect("healthz JSON");
    assert_eq!(doc.get("ok"), Some(&Value::Bool(true)));
    assert!(doc.get("cache_bytes").and_then(Value::as_f64).unwrap() > 0.0);
    assert_eq!(doc.get("jobs_executed").and_then(Value::as_f64), Some(1.0));
    assert!(doc.get("uptime_s").and_then(Value::as_f64).unwrap() >= 0.0);
    let lat = doc.get("latency_us").expect("latency summary");
    assert_eq!(lat.get("count").and_then(Value::as_f64), Some(1.0));
    let p50 = lat.get("p50").and_then(Value::as_f64).expect("p50");
    let p99 = lat.get("p99").and_then(Value::as_f64).expect("p99");
    assert!(p50 > 0.0 && p99 >= p50, "p50={p50} p99={p99}");
    let qw = doc.get("queue_wait_us").expect("queue-wait summary");
    assert_eq!(qw.get("count").and_then(Value::as_f64), Some(1.0));
    let tr = doc.get("trace").expect("trace summary");
    // One executed request record + one job record, nothing dropped.
    assert_eq!(tr.get("records").and_then(Value::as_f64), Some(2.0));
    assert_eq!(tr.get("dropped").and_then(Value::as_f64), Some(0.0));
    server.shutdown();
}

#[test]
fn structured_log_carries_request_ids_through_the_whole_lifecycle() {
    let (log, buf) = Logger::buffer(Level::Debug);
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            log,
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let addr = server.addr().to_string();
    let req = SimRequest::plan("wrn", "w_dp").expect("plan");
    let cold = submit(&addr, &req);
    assert_eq!(cold.status, 200);
    let rid = cold.request_id.clone();
    assert!(rid.starts_with('r'), "request id {rid:?}");
    // A malformed body logs a warn-level reject with its own id.
    let bad = http_request(&addr, "POST", "/api/v1/jobs", b"not json").expect("submit");
    assert_eq!(bad.status, 400);
    server.shutdown();

    let lines = buf.lines();
    let events: Vec<Value> = lines
        .iter()
        .map(|l| json::parse(l).unwrap_or_else(|e| panic!("non-JSON log line {l:?}: {e}")))
        .collect();
    let by_event = |name: &str| -> Vec<&Value> {
        events
            .iter()
            .filter(|v| v.get("event").and_then(Value::as_str) == Some(name))
            .collect()
    };
    assert_eq!(by_event("serve_start").len(), 1);
    assert_eq!(by_event("shutdown").len(), 1);
    let submits = by_event("submit");
    assert_eq!(submits.len(), 1);
    assert_eq!(
        submits[0].get("req").and_then(Value::as_str),
        Some(rid.as_str()),
        "submit event must carry the response's X-Request-Id"
    );
    assert_eq!(
        submits[0].get("outcome").and_then(Value::as_str),
        Some("miss")
    );
    // The worker's dequeue and job_done events carry the *same* id —
    // propagation from HTTP accept through execution.
    for name in ["dequeue", "job_done"] {
        let evs = by_event(name);
        assert_eq!(evs.len(), 1, "{name}");
        assert_eq!(
            evs[0].get("req").and_then(Value::as_str),
            Some(rid.as_str()),
            "{name} lost the request id"
        );
    }
    let rejects = by_event("reject");
    assert_eq!(rejects.len(), 1);
    assert_eq!(
        rejects[0].get("level").and_then(Value::as_str),
        Some("warn")
    );
    // Timestamps are monotone non-decreasing (single writer).
    let ts: Vec<f64> = events
        .iter()
        .filter_map(|v| v.get("t_us").and_then(Value::as_f64))
        .collect();
    assert!(ts.windows(2).all(|w| w[0] <= w[1]), "{ts:?}");
}

#[test]
fn trace_ring_is_bounded_and_reports_drops() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            trace_cap: 3,
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let addr = server.addr().to_string();
    let req = SimRequest::plan("wrn", "w_mp+").expect("plan");
    // 1 executed + 1 job + 4 hits = 6 records through a cap-3 ring.
    for _ in 0..5 {
        assert_eq!(submit(&addr, &req).status, 200);
    }
    let doc = json::parse(&fetch(&addr, "/api/v1/healthz").text()).expect("healthz");
    let tr = doc.get("trace").expect("trace summary");
    assert_eq!(tr.get("records").and_then(Value::as_f64), Some(3.0));
    assert_eq!(tr.get("total").and_then(Value::as_f64), Some(6.0));
    assert_eq!(tr.get("dropped").and_then(Value::as_f64), Some(3.0));
    let resp = fetch(&addr, "/api/v1/trace");
    let trace = Tracer::from_chrome_trace(&json::parse(&resp.text()).expect("doc")).expect("parse");
    let outers = trace.spans().iter().filter(|s| s.cat == "request").count();
    assert_eq!(outers, 3, "ring must retain exactly trace_cap records");
    server.shutdown();
}
