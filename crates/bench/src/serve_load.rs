//! Seeded load generator for the memoized simulation server
//! (`BENCH_serve.json`).
//!
//! Boots an in-process [`wmpt_serve::Server`] on a loopback port, drives
//! a fixed ten-request workload through one cold round (every request
//! a cache miss that executes the simulation) and [`WARM_ROUNDS`] warm
//! rounds (every request answered from the content-addressed cache),
//! and reports client-observed latency percentiles, throughput, and the
//! cold-vs-warm split. The request mix and submission order are fixed,
//! so every counter in the report is deterministic; only the latency
//! figures vary with the host. A direct in-process run of one workload
//! request is diffed byte-for-byte against the served artifact
//! (`warm_identical`), extending the determinism contract across the
//! HTTP boundary. The server's lifecycle trace is fetched after the
//! warm rounds and audited (`lifecycle`): the span counts per outcome
//! track are deterministic, and every record's stages must tile its
//! extent exactly — queue wait and execution time are fully attributed.

use std::time::Instant;

use wmpt_obs::json::{num, obj, parse, s, Value};
use wmpt_obs::{MetricKey, Tracer};
use wmpt_par::ParPool;
use wmpt_serve::{http_request, run_request, ServeConfig, Server, SimRequest};

use crate::Output;

/// Warm submission rounds over the whole workload after the cold round.
pub const WARM_ROUNDS: usize = 2;

/// The fixed workload: the five Table II layer sweeps, the WRN-40-10
/// network sweep, two flit-level NoC sweeps (including the ring, whose
/// uniform-traffic deadlock is fixed by dateline virtual channels),
/// one fixed-config schedule plan, and one auto-searched plan — ten
/// distinct requests spanning every cacheable job kind.
pub fn workload() -> Vec<SimRequest> {
    let mut reqs: Vec<SimRequest> = ["Early", "Mid-1", "Mid-2", "Late-1", "Late-2"]
        .iter()
        .map(|l| SimRequest::layer(l, "all").expect("table II layer"))
        .collect();
    reqs.push(SimRequest::network("wrn", "all").expect("network"));
    reqs.push(SimRequest::noc("ring", "uniform").expect("noc"));
    reqs.push(SimRequest::noc("fbfly", "neighbor").expect("noc"));
    reqs.push(SimRequest::plan("wrn", "w_mp++").expect("plan"));
    reqs.push(SimRequest::plan_auto("table2").expect("plan_auto"));
    reqs
}

/// Nearest-rank percentile of an ascending-sorted sample.
pub fn percentile(sorted_us: &[f64], q: f64) -> f64 {
    assert!(!sorted_us.is_empty());
    let rank = (q * sorted_us.len() as f64).ceil() as usize;
    sorted_us[rank.clamp(1, sorted_us.len()) - 1]
}

/// One measured round: per-request latencies and the wall-clock of the
/// whole round.
struct Round {
    latencies_us: Vec<f64>,
    wall_s: f64,
}

fn drive(addr: &str, reqs: &[SimRequest], expect_cached: bool) -> Round {
    let t0 = Instant::now();
    let mut latencies_us = Vec::with_capacity(reqs.len());
    for req in reqs {
        let body = req.to_json().render();
        let t = Instant::now();
        let resp =
            http_request(addr, "POST", "/api/v1/jobs?wait=1", body.as_bytes()).expect("submit");
        latencies_us.push(t.elapsed().as_secs_f64() * 1e6);
        assert_eq!(resp.status, 200, "{}", resp.text());
        let want = format!("\"cached\":{expect_cached}");
        assert!(resp.text().contains(&want), "{}", resp.text());
    }
    Round {
        latencies_us,
        wall_s: t0.elapsed().as_secs_f64(),
    }
}

/// Audits the server's lifecycle trace: counts outer request spans per
/// outcome track and worker-side job records, and checks that every
/// record's stages exactly tile its extent (each stage starts where the
/// previous one ended, and the stage durations sum to the outer span's
/// latency — no unattributed microseconds).
fn lifecycle_obj(trace: &Tracer) -> Value {
    let outers: Vec<_> = trace
        .spans()
        .iter()
        .filter(|s| s.cat == "request")
        .collect();
    let on = |track: &str| {
        outers
            .iter()
            .filter(|s| trace.track_name(s.track) == track)
            .count()
    };
    let jobs = outers
        .iter()
        .filter(|s| trace.track_name(s.track).starts_with("worker"))
        .count();
    let queue_waits = trace
        .spans()
        .iter()
        .filter(|s| s.cat == "serve" && s.name == "queue_wait")
        .count();
    // Each record is exported as its outer `request` span followed by
    // its `serve` stages in order, so group sequentially — concurrent
    // requests on the same outcome track can overlap in time, which
    // rules out matching stages to outers by containment alone.
    let mut attribution_ok = true;
    let mut outer: Option<&wmpt_obs::Span> = None;
    let mut cursor = 0;
    let mut sum = 0;
    let close = |outer: Option<&wmpt_obs::Span>, cursor: u64, sum: u64, ok: &mut bool| {
        if let Some(o) = outer {
            *ok &= cursor == o.start + o.cycles() && sum == o.cycles();
        }
    };
    for s in trace.spans() {
        match s.cat.as_str() {
            "request" => {
                close(outer, cursor, sum, &mut attribution_ok);
                outer = Some(s);
                cursor = s.start;
                sum = 0;
            }
            "serve" => {
                attribution_ok &= outer.is_some_and(|o| o.track == s.track) && s.start == cursor;
                cursor = s.start + s.cycles();
                sum += s.cycles();
            }
            _ => {}
        }
    }
    close(outer, cursor, sum, &mut attribution_ok);
    attribution_ok &= !outers.is_empty();
    obj(vec![
        ("requests", num(outers.len() as f64 - jobs as f64)),
        ("executed", num(on("executed") as f64)),
        ("hits", num(on("hit") as f64)),
        ("jobs", num(jobs as f64)),
        ("queue_waits", num(queue_waits as f64)),
        ("attribution_ok", Value::Bool(attribution_ok)),
    ])
}

fn phase_obj(rounds: &[Round]) -> Value {
    let mut all: Vec<f64> = rounds.iter().flat_map(|r| r.latencies_us.clone()).collect();
    all.sort_by(f64::total_cmp);
    let wall: f64 = rounds.iter().map(|r| r.wall_s).sum();
    obj(vec![
        ("count", num(all.len() as f64)),
        ("p50_us", num(percentile(&all, 0.50))),
        ("p95_us", num(percentile(&all, 0.95))),
        ("p99_us", num(percentile(&all, 0.99))),
        ("throughput_rps", num(all.len() as f64 / wall)),
    ])
}

/// Runs the load generator against a fresh server and builds the report.
pub fn serve_report() -> Value {
    let reqs = workload();
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let addr = server.addr().to_string();

    let cold = drive(&addr, &reqs, false);
    let warm: Vec<Round> = (0..WARM_ROUNDS)
        .map(|_| drive(&addr, &reqs, true))
        .collect();

    // Queue-wait attribution: every one of the 30 submissions (and the
    // 10 worker-side job records) must account for its full latency as
    // contiguous lifecycle stages.
    let traced = http_request(&addr, "GET", "/api/v1/trace", b"").expect("fetch trace");
    assert_eq!(traced.status, 200, "{}", traced.text());
    let doc = parse(&traced.text()).expect("trace is valid JSON");
    let lifecycle = lifecycle_obj(&Tracer::from_chrome_trace(&doc).expect("chrome trace"));

    // Cross-boundary determinism: the served artifact must be
    // byte-identical to a direct in-process run of the same request.
    let probe = &reqs[reqs.len() - 1];
    let direct = run_request(probe, &ParPool::new(1)).expect("direct run");
    let id = wmpt_serve::hash_hex(probe.cache_key());
    let served = http_request(&addr, "GET", &format!("/api/v1/jobs/{id}/report"), b"")
        .expect("fetch report");
    let warm_identical = served.status == 200 && served.text() == direct.report;

    let metrics = server.shutdown().metrics;
    let counter = |k: MetricKey| num(metrics.counter(k) as f64);

    let cold_obj = phase_obj(std::slice::from_ref(&cold));
    let warm_obj = phase_obj(&warm);
    let p50 = |v: &Value| v.get("p50_us").and_then(Value::as_f64).unwrap();
    let warm_speedup_p50 = p50(&cold_obj) / p50(&warm_obj);

    obj(vec![
        (
            "workload",
            s("5 table-II layer sweeps + wrn network + ring/fbfly noc + wrn plan + table2 auto-plan"),
        ),
        ("distinct", num(reqs.len() as f64)),
        ("warm_rounds", num(WARM_ROUNDS as f64)),
        ("warm_identical", Value::Bool(warm_identical)),
        (
            "counters",
            obj(vec![
                ("requests", counter(MetricKey::ServeRequests)),
                ("cache_hits", counter(MetricKey::ServeCacheHits)),
                ("cache_misses", counter(MetricKey::ServeCacheMisses)),
                ("jobs_executed", counter(MetricKey::ServeJobsExecuted)),
                ("evictions", counter(MetricKey::ServeCacheEvictions)),
                ("coalesced", counter(MetricKey::ServeCoalesced)),
                (
                    "rejected_overload",
                    counter(MetricKey::ServeRejectedOverload),
                ),
            ]),
        ),
        ("lifecycle", lifecycle),
        ("cold", cold_obj),
        ("warm", warm_obj),
        ("warm_speedup_p50", num(warm_speedup_p50)),
    ])
}

/// Renders a report as the experiment's table.
fn render(report: &Value) -> String {
    let mut out = String::new();
    out.push_str("serve load: cold (miss+execute) vs warm (memoized) over HTTP\n");
    out.push_str(&crate::row(
        "phase",
        &["count", "p50_us", "p95_us", "p99_us", "rps"]
            .iter()
            .map(|h| h.to_string())
            .collect::<Vec<_>>(),
    ));
    for phase in ["cold", "warm"] {
        let p = report.get(phase).unwrap();
        let cell = |k: &str| p.get(k).and_then(Value::as_f64).unwrap();
        out.push_str(&crate::row(
            phase,
            &[
                format!("{}", cell("count")),
                crate::f(cell("p50_us")),
                crate::f(cell("p95_us")),
                crate::f(cell("p99_us")),
                crate::f(cell("throughput_rps")),
            ],
        ));
    }
    let c = report.get("counters").unwrap();
    let n = |k: &str| c.get(k).and_then(Value::as_f64).unwrap();
    out.push_str(&format!(
        "requests: {} (hits {}, misses {}, executed {}, evicted {}, rejected {})\n",
        n("requests"),
        n("cache_hits"),
        n("cache_misses"),
        n("jobs_executed"),
        n("evictions"),
        n("rejected_overload"),
    ));
    let speedup = report
        .get("warm_speedup_p50")
        .and_then(Value::as_f64)
        .unwrap();
    let identical = matches!(report.get("warm_identical"), Some(Value::Bool(true)));
    out.push_str(&format!(
        "warm p50 speedup over cold: {}x; served artifact byte-identical to direct run: {identical}\n",
        crate::f(speedup)
    ));
    let l = report.get("lifecycle").unwrap();
    let ln = |k: &str| l.get(k).and_then(Value::as_f64).unwrap();
    let attributed = matches!(l.get("attribution_ok"), Some(&Value::Bool(true)));
    out.push_str(&format!(
        "lifecycle trace: {} request spans ({} executed, {} hit), {} job records, \
         {} queue waits; exact stage attribution: {attributed}\n",
        ln("requests"),
        ln("executed"),
        ln("hits"),
        ln("jobs"),
        ln("queue_waits"),
    ));
    out
}

/// Runs the load generator and returns the table with its
/// `BENCH_serve.json` report.
pub fn run() -> Output {
    Output::snapshot("BENCH_serve.json", serve_report(), render)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmpt_obs::json::parse;

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.50), 2.0);
        assert_eq!(percentile(&v, 0.95), 4.0);
        assert_eq!(percentile(&v, 0.25), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn workload_is_ten_distinct_requests() {
        let reqs = workload();
        assert_eq!(reqs.len(), 10);
        let mut keys: Vec<u128> = reqs.iter().map(SimRequest::cache_key).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 10, "cache keys must be distinct");
    }

    #[test]
    fn report_counters_are_deterministic_and_warm_hits_the_cache() {
        let v = serve_report();
        let back = parse(&v.render()).expect("report is valid JSON");
        let c = back.get("counters").expect("counters");
        let n = |k: &str| c.get(k).and_then(Value::as_f64).unwrap();
        assert_eq!(n("requests"), (10 * (1 + WARM_ROUNDS)) as f64);
        assert_eq!(n("cache_misses"), 10.0);
        assert_eq!(n("jobs_executed"), 10.0);
        assert_eq!(n("cache_hits"), (10 * WARM_ROUNDS) as f64);
        assert_eq!(n("evictions"), 0.0);
        assert_eq!(n("coalesced"), 0.0);
        assert_eq!(n("rejected_overload"), 0.0);
        assert_eq!(back.get("warm_identical"), Some(&Value::Bool(true)));
        let l = back.get("lifecycle").expect("lifecycle");
        let ln = |k: &str| l.get(k).and_then(Value::as_f64).unwrap();
        assert_eq!(ln("requests"), (10 * (1 + WARM_ROUNDS)) as f64);
        assert_eq!(ln("executed"), 10.0);
        assert_eq!(ln("hits"), (10 * WARM_ROUNDS) as f64);
        assert_eq!(ln("jobs"), 10.0);
        assert_eq!(ln("queue_waits"), 10.0);
        assert_eq!(
            l.get("attribution_ok"),
            Some(&Value::Bool(true)),
            "lifecycle stages must exactly tile every request span"
        );
        let speedup = back
            .get("warm_speedup_p50")
            .and_then(Value::as_f64)
            .expect("speedup");
        assert!(speedup > 1.0, "warm p50 not faster than cold: {speedup}x");
    }
}
