//! `serve_miss`: an in-process `wmpt_serve::Server` driven over real
//! loopback sockets by closed-loop clients.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::Duration;

use wmpt_obs::json::{self, Value};
use wmpt_obs::Tracer;
use wmpt_par::ParPool;
use wmpt_serve::{hash_hex, http_request, run_request, ServeConfig, Server, SimRequest};

use crate::drive::{closed_loop, Phase};
use crate::gen::serve_miss_deck;
use crate::host;
use crate::rng::Rng;
use crate::spans::SpanLog;
use crate::stats::{tail, LatencyHist};
use crate::{Metrics, Rig};

/// Closed-loop clients: one per host thread.
pub const CLIENTS: usize = 2;
/// Longest `serve_miss` deck a run can consume.
const MISS_DECK_LEN: usize = 9000;
/// Stream requests whose report bytes feed the `serve_miss` digest.
pub const DIGEST_OPS: usize = 100;
/// Served results compared byte for byte with a direct `run_request`.
const SAMPLE_CHECKS: usize = 3;
/// The four artifact endpoints of a job.
const ARTIFACTS: [&str; 4] = ["report", "metrics", "trace", "svg"];
/// Lifecycle records kept for the traced run (at least its operations).
const TRACED_CAP: usize = 1 << 20;

fn bind(traced: bool) -> Result<Server, String> {
    let mut config = ServeConfig {
        cache_bytes: MISS_CACHE_BYTES,
        ..ServeConfig::default()
    };
    if traced {
        config.trace_cap = TRACED_CAP;
    }
    Server::bind("127.0.0.1:0", config).map_err(|e| format!("bind: {e}"))
}

/// POSTs `body` with `?wait=1`; checks a `200` for job `id` with the
/// expected `cached` flag.
fn submit(addr: &str, body: &[u8], id: &str, cached: bool) -> Result<(), String> {
    let resp = http_request(addr, "POST", "/api/v1/jobs?wait=1", body)?;
    if resp.status != 200 {
        return Err(format!("status {}: {}", resp.status, resp.text().trim()));
    }
    let v = json::parse(&resp.text()).map_err(|e| format!("reply: {e}"))?;
    let ok = v.get("status").and_then(Value::as_str) == Some("done")
        && v.get("cached") == Some(&Value::Bool(cached))
        && v.get("job").and_then(Value::as_str) == Some(id);
    if ok {
        Ok(())
    } else {
        Err(format!(
            "unexpected reply {} (want cached={cached})",
            resp.text().trim()
        ))
    }
}

fn get(addr: &str, path: &str) -> Result<Vec<u8>, String> {
    let resp = http_request(addr, "GET", path, b"")?;
    if resp.status == 200 {
        Ok(resp.body)
    } else {
        Err(format!("GET {path}: status {}", resp.status))
    }
}

fn artifact(addr: &str, id: &str, name: &str) -> Result<Vec<u8>, String> {
    get(addr, &format!("/api/v1/jobs/{id}/{name}"))
}

/// The server's `serve.*` counters.
fn counters(addr: &str) -> Result<Value, String> {
    let body = get(addr, "/api/v1/metrics")?;
    let v = json::parse(&String::from_utf8_lossy(&body)).map_err(|e| e.to_string())?;
    v.get("counters").cloned().ok_or("no counters".to_string())
}

fn counter(c: &Value, name: &str) -> u64 {
    c.get(name).and_then(Value::as_u64).unwrap_or(0)
}

/// A job's artifacts as `(endpoint, bytes)`.
type Artifacts = Vec<(&'static str, Vec<u8>)>;

/// Every artifact served job `id` has.
fn fetch_artifacts(addr: &str, id: &str) -> Result<Artifacts, String> {
    let mut out = Vec::new();
    for name in ARTIFACTS {
        let resp = http_request(addr, "GET", &format!("/api/v1/jobs/{id}/{name}"), b"")?;
        match resp.status {
            200 => out.push((name, resp.body)),
            404 => {}
            s => return Err(format!("GET {name} of {id}: status {s}")),
        }
    }
    Ok(out)
}

/// Compares a served job's artifacts with a direct `run_request` of the
/// same request, byte for byte.
fn equals_direct(req: &SimRequest, served: &Artifacts) -> Result<(), String> {
    let direct = run_request(req, &ParPool::new(1))?;
    let want: Vec<(&str, &[u8])> = ARTIFACTS
        .iter()
        .filter_map(|&n| direct.artifact(n).map(|(body, _)| (n, body.as_bytes())))
        .collect();
    let got: Vec<(&str, &[u8])> = served.iter().map(|(n, b)| (*n, b.as_slice())).collect();
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "served artifacts of {} differ from a direct run_request",
            req.to_json().render()
        ))
    }
}

/// FNV-1a/64 over the given byte strings, each length-prefixed.
pub fn digest<'a>(parts: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for p in parts {
        for b in (p.len() as u64).to_le_bytes().iter().chain(p) {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Samples the process thread count until stopped.
struct ThreadSampler {
    stop: AtomicBool,
    peak: Mutex<f64>,
}

impl ThreadSampler {
    fn run_during<R>(f: impl FnOnce() -> R) -> (R, f64) {
        let sampler = ThreadSampler {
            stop: AtomicBool::new(false),
            peak: Mutex::new(host::threads()),
        };
        let r = thread::scope(|scope| {
            scope.spawn(|| {
                while !sampler.stop.load(Ordering::Relaxed) {
                    let n = host::threads();
                    let mut p = sampler.peak.lock().expect("peak lock");
                    *p = p.max(n);
                    drop(p);
                    thread::sleep(Duration::from_millis(2));
                }
            });
            let r = f();
            sampler.stop.store(true, Ordering::Relaxed);
            r
        });
        (r, sampler.peak.into_inner().expect("peak lock"))
    }
}

/// The server layer's per-layer metrics: lifecycle stage means from
/// `GET /api/v1/trace`, counter deltas from `/api/v1/metrics`, the thread
/// high-water mark and the client-side p99.
fn serve_layer_metrics(
    addr: &str,
    before: &Value,
    threads_peak: f64,
    lat: &LatencyHist,
    m: &mut Metrics,
) -> Result<(), String> {
    let doc = json::parse(&String::from_utf8_lossy(&get(addr, "/api/v1/trace")?))
        .map_err(|e| format!("trace: {e}"))?;
    let t = Tracer::from_chrome_trace(&doc)?;
    let after = counters(addr)?;
    let delta = |name: &str| counter(&after, name).saturating_sub(counter(before, name)) as f64;

    // Stage spans by name; request spans (client-facing, `name#r<id>`)
    // and job spans (on `worker<i>` tracks) keyed by request id.
    let rid = |name: &str| name.rsplit_once('#').map_or("", |(_, r)| r).to_string();
    let ms = |sp: &wmpt_obs::Span| sp.cycles() as f64 / 1e3;
    let mut stage: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut outer = Vec::new();
    let mut execute = HashMap::new();
    for sp in t.spans() {
        let on_worker = t.track_name(sp.track).starts_with("worker");
        if sp.cat == "serve" {
            stage.entry(sp.name.clone()).or_default().push(ms(sp));
        } else if !on_worker {
            outer.push((rid(&sp.name), ms(sp)));
        } else {
            // A job's execute stage ends where the job span ends.
            let exec = t
                .spans()
                .iter()
                .find(|e| e.track == sp.track && e.name == "execute" && e.end == sp.end)
                .map_or(0.0, ms);
            execute.insert(rid(&sp.name), exec);
        }
    }
    // Means, not medians: the server's lifecycle clock ticks in whole
    // microseconds, so a median would read the same integer every run.
    let mean = |v: Option<&Vec<f64>>| {
        v.filter(|v| !v.is_empty())
            .map_or(0.0, |v| v.iter().sum::<f64>() / v.len() as f64)
    };
    for (name, key) in [
        ("serve.parse_ms", "parse"),
        ("serve.cache_lookup_ms", "cache_lookup"),
        ("serve.respond_ms", "respond"),
        ("serve.queue_wait_ms", "queue_wait"),
        ("serve.execute_ms", "execute"),
    ] {
        m.put(name, mean(stage.get(key)), "ms");
    }
    let overhead: Vec<f64> = outer
        .iter()
        .map(|(rid, ms)| ms - execute.get(rid).copied().unwrap_or(0.0))
        .collect();
    m.put("serve.overhead_ms", mean(Some(&overhead)), "ms");
    let submissions = delta("serve.requests");
    m.put(
        "serve.hit_ratio",
        if submissions > 0.0 {
            delta("serve.cache_hits") / submissions
        } else {
            0.0
        },
        "frac",
    );
    m.put(
        "serve.rejected",
        delta("serve.rejected_overload") + delta("serve.rejected_shutdown"),
        "count",
    );
    m.put("serve.coalesced", delta("serve.coalesced"), "count");
    m.put("serve.evictions", delta("serve.cache_evictions"), "count");
    m.put("serve.threads_peak", threads_peak, "count");
    // A probe too short for ten samples beyond p99 reports its maximum.
    let p99 = tail(lat, 0.99).map_or_else(|_| lat.quantile(1.0), |q| q.value);
    m.put("serve.latency_p99_ms", p99, "ms");
    Ok(())
}

/// `serve_miss`: every submission is a distinct request, so each one is
/// a cache miss executed (observed, rendered, cached) by a worker. The
/// cache budget is small enough to fill early in a run, so the cache is
/// evicting for most of the timed phase and peak memory measures the
/// server at a full cache, not how many results a run completed.
pub struct MissRig {
    server: Server,
    addr: String,
    deck: Vec<SimRequest>,
    bodies: Vec<Vec<u8>>,
    ids: Vec<String>,
    /// Deck index of the next submission.
    cursor: usize,
    /// Deck indices whose artifacts are compared with a direct run.
    sampled: Vec<usize>,
    /// Artifacts fetched right after completion (before any eviction):
    /// the report of each of the first [`DIGEST_OPS`] submissions, every
    /// artifact of the sampled ones.
    captured: Mutex<BTreeMap<usize, Artifacts>>,
    before: Value,
    threads_peak: f64,
    lat: LatencyHist,
}

/// `serve_miss` cache budget.
const MISS_CACHE_BYTES: usize = 8 << 20;

/// Set-up submissions: two-config layer sweeps, a shape the deck never
/// generates, so warming up never turns a deck submission into a hit.
fn miss_warmup() -> Vec<SimRequest> {
    [
        ("Early", "d_dp", "w_dp"),
        ("Mid-1", "w_mp", "w_mp+"),
        ("Mid-2", "w_mp*", "w_mp++"),
        ("Late-1", "d_dp", "w_mp++"),
    ]
    .iter()
    .map(|(l, a, b)| SimRequest::Layer {
        layer: l.to_string(),
        configs: vec![a.to_string(), b.to_string()],
    })
    .collect()
}

impl MissRig {
    pub fn setup(seed: u64, traced: bool) -> Result<MissRig, String> {
        let server = bind(traced)?;
        let addr = server.addr().to_string();
        let deck = serve_miss_deck(seed, MISS_DECK_LEN);
        let bodies = deck
            .iter()
            .map(|r| r.to_json().render().into_bytes())
            .collect();
        let ids = deck.iter().map(|r| hash_hex(r.cache_key())).collect();
        let mut rng = Rng::new(seed ^ 0x5a);
        for req in miss_warmup() {
            let body = req.to_json().render().into_bytes();
            submit(&addr, &body, &hash_hex(req.cache_key()), false)?;
        }
        let before = counters(&addr)?;
        Ok(MissRig {
            server,
            addr,
            deck,
            bodies,
            ids,
            cursor: 0,
            sampled: (0..SAMPLE_CHECKS).map(|_| rng.below(DIGEST_OPS)).collect(),
            captured: Mutex::new(BTreeMap::new()),
            before,
            threads_peak: 0.0,
            lat: LatencyHist::default(),
        })
    }

    fn op(&self, j: usize) -> Result<(), String> {
        submit(&self.addr, &self.bodies[j], &self.ids[j], false)?;
        let got = if self.sampled.contains(&j) {
            fetch_artifacts(&self.addr, &self.ids[j])?
        } else if j < DIGEST_OPS {
            vec![("report", artifact(&self.addr, &self.ids[j], "report")?)]
        } else {
            return Ok(());
        };
        self.captured.lock().expect("capture lock").insert(j, got);
        Ok(())
    }
}

impl Rig for MissRig {
    fn phase(&mut self, seconds: f64, max_ops: usize, spans: Option<&SpanLog>) -> Phase {
        let base = self.cursor;
        let limit = max_ops.min(self.deck.len() - base);
        let op = |client: usize, i: usize| {
            let j = base + i;
            match spans {
                Some(log) => log.time(
                    &format!("client{client}"),
                    "serve",
                    self.deck[j].kind(),
                    || self.op(j),
                ),
                None => self.op(j),
            }
        };
        // The thread sampler polls `/proc`; only the traced run needs it.
        let phase = if spans.is_some() {
            let (phase, peak) =
                ThreadSampler::run_during(|| closed_loop(CLIENTS, seconds, limit, op));
            self.threads_peak = self.threads_peak.max(peak);
            phase
        } else {
            closed_loop(CLIENTS, seconds, limit, op)
        };
        self.cursor += phase.attempted;
        self.lat.merge(&phase.lat);
        phase
    }

    fn finish(
        self: Box<Self>,
        phase: &mut Phase,
        info: &mut Vec<(String, String)>,
        layer: Option<(&mut Metrics, &SpanLog)>,
    ) {
        let rig = *self;
        let submitted = (rig.cursor + miss_warmup().len()) as u64;
        match counters(&rig.addr) {
            Ok(c) => {
                let (miss, hit) = (
                    counter(&c, "serve.cache_misses"),
                    counter(&c, "serve.cache_hits"),
                );
                info.push((
                    "cache_misses".into(),
                    format!("{miss} of {submitted} submissions"),
                ));
                if miss != submitted || hit != 0 {
                    phase.fail(format!("cache_misses {miss} / cache_hits {hit} for {submitted} distinct submissions"));
                }
            }
            Err(e) => phase.fail(format!("metrics: {e}")),
        }
        let captured = rig.captured.into_inner().expect("capture lock");
        for &j in rig.sampled.iter().filter(|&&j| j < rig.cursor) {
            if let Err(e) = equals_direct(&rig.deck[j], &captured[&j]) {
                phase.fail(e);
            }
        }
        let reports: Vec<&[u8]> = captured
            .values()
            .filter_map(|arts| arts.iter().find(|(n, _)| *n == "report"))
            .map(|(_, body)| body.as_slice())
            .collect();
        info.push((
            "report_digest".into(),
            format!(
                "{:016x} over the first {} requests",
                digest(reports.iter().copied()),
                reports.len()
            ),
        ));
        if let Some((m, _)) = layer {
            if let Err(e) =
                serve_layer_metrics(&rig.addr, &rig.before, rig.threads_peak, &rig.lat, m)
            {
                phase.fail(format!("serve layer metrics: {e}"));
            }
        }
        rig.server.shutdown();
    }
}

/// Serve-layer metrics for a workload that does not drive the server: a
/// fixed 40-submission `serve_miss` probe.
pub fn probe(seed: u64, spans: &SpanLog, m: &mut Metrics) -> Result<(), String> {
    let mut rig = Box::new(MissRig::setup(seed, true)?);
    let mut phase = rig.phase(f64::INFINITY, 40, Some(spans));
    let mut info = Vec::new();
    rig.finish(&mut phase, &mut info, Some((m, spans)));
    match phase.failures.first() {
        Some(e) => Err(e.clone()),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warmup_never_collides_with_the_deck() {
        let warm: Vec<u128> = miss_warmup().iter().map(SimRequest::cache_key).collect();
        for seed in [1, 7] {
            assert!(serve_miss_deck(seed, MISS_DECK_LEN)
                .iter()
                .all(|r| !warm.contains(&r.cache_key())));
        }
    }

    /// The `report_digest` a `serve_miss` run of seed 1 prints, from direct
    /// calls: any change to a simulated statistic (or to the report text)
    /// of the first [`DIGEST_OPS`] requests changes it. The run itself
    /// checks served ≡ direct on a seeded sample.
    #[test]
    fn serve_miss_report_digest_is_pinned() {
        let pool = ParPool::new(1);
        let reports: Vec<String> = serve_miss_deck(1, DIGEST_OPS)
            .iter()
            .map(|r| {
                let res = run_request(r, &pool).expect("request runs");
                res.artifact("report").expect("a report").0.to_string()
            })
            .collect();
        let d = digest(reports.iter().map(|r| r.as_bytes()));
        assert_eq!(format!("{d:016x}"), "e2b3f4bdb13d3e38");
    }

    #[test]
    fn digest_separates_parts() {
        assert_ne!(
            digest([b"ab".as_slice(), b"c"]),
            digest([b"a".as_slice(), b"bc"])
        );
        assert_eq!(digest([b"x".as_slice()]), digest([b"x".as_slice()]));
    }
}
