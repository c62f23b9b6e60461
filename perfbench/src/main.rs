//! The winograd-mpt benchmark: three workloads driven from outside
//! through the crates' public APIs, end-to-end metrics from an untraced
//! run, per-layer metrics from a traced one.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve_miss|sim_cli|train_mpt> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run prints its metrics with units and sample counts, runs its
//! correctness checks, writes a report (with provenance) and, when
//! traced, a Chrome trace under `perfbench/out/`, and ends its standard
//! output with one JSON line:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`.
//! See `perfbench/README.md` for the workloads and metrics.

mod drive;
mod gen;
mod host;
mod replay;
mod rng;
mod serve;
mod sim;
mod spans;
mod stats;
mod train;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use wmpt_obs::json::{num, obj, s, Value};

use drive::Phase;
use spans::SpanLog;
use stats::{median, tail, Quantile};

/// Named metrics with units, in name order.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_string(), (value, unit));
    }
}

/// A workload after set-up: timed phases, then checks.
pub trait Rig {
    /// Runs the closed loop for `seconds` or `max_ops` operations,
    /// recording harness spans when `spans` is given.
    fn phase(&mut self, seconds: f64, max_ops: usize, spans: Option<&SpanLog>) -> Phase;
    /// Post-run correctness checks (each failure counts as a failed
    /// operation), notes for the log, per-layer metrics when traced;
    /// releases the rig's threads.
    fn finish(
        self: Box<Self>,
        phase: &mut Phase,
        info: &mut Vec<(String, String)>,
        layer: Option<(&mut Metrics, &SpanLog)>,
    );
}

const WORKLOADS: [&str; 3] = ["serve_miss", "sim_cli", "train_mpt"];
/// Every end-to-end metric an untraced run reports.
const END_TO_END: [&str; 5] = [
    "setup_s",
    "ops_per_s",
    "latency_p50_ms",
    "latency_p90_ms",
    "peak_rss_mib",
];
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 15;

/// Every per-layer metric a traced run reports.
pub const PER_LAYER: [&str; 45] = [
    "serve.parse_ms",
    "serve.cache_lookup_ms",
    "serve.respond_ms",
    "serve.overhead_ms",
    "serve.queue_wait_ms",
    "serve.execute_ms",
    "serve.hit_ratio",
    "serve.rejected",
    "serve.coalesced",
    "serve.evictions",
    "serve.threads_peak",
    "serve.latency_p99_ms",
    "core.simulate_ms",
    "core.observe_ms",
    "core.observe_overhead_x",
    "obs.trace_render_ms",
    "analyze.svg_ms",
    "obs.metrics_render_ms",
    "obs.spans",
    "obs.trace_bytes",
    "core.observe_ns_per_span",
    "serve.unattributed_ms",
    "noc.sweep_ms",
    "opt.plan_auto_ms",
    "core.network_plain_ms",
    "fault.train_ms",
    "core.sim_cycles_per_host_s",
    "trainer.step_ms",
    "winograd.fprop_ms",
    "winograd.bprop_ms",
    "winograd.wgrad_ms",
    "trainer.mpt_wgrad_ms",
    "trainer.mpt_overhead_x",
    "winograd.tf_in_ms",
    "winograd.tf_out_ms",
    "winograd.tf_dy_ms",
    "winograd.tf_dx_ms",
    "tensor.gemm_ms",
    "tensor.gemm_flops",
    "tensor.gemm_gflops",
    "tensor.gemm_frac_peak",
    "par.dispatch_us",
    "par.efficiency",
    "trace_overhead_frac",
    "trace.harness_spans",
];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let bad = || format!("bad value '{value}' for {flag}\n{}", usage());
        match flag.as_str() {
            "--workload" => {
                workload = Some(*WORKLOADS.iter().find(|w| *w == value).ok_or_else(bad)?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    let missing = |f: &str| format!("missing {f}\n{}", usage());
    Ok(Args {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
    })
}

fn setup(workload: &str, seed: u64, traced: bool) -> Result<Box<dyn Rig>, String> {
    Ok(match workload {
        "serve_miss" => Box::new(serve::MissRig::setup(seed, traced)?),
        "sim_cli" => Box::new(sim::SimRig::setup(seed)?),
        "train_mpt" => Box::new(train::TrainRig::setup(seed)?),
        other => unreachable!("workload {other} was validated"),
    })
}

/// What a run prints and records.
struct Outcome {
    metrics: Metrics,
    phase: Phase,
    info: Vec<(String, String)>,
    /// Extra per-metric notes for the log (sample counts, spreads).
    notes: BTreeMap<String, String>,
}

fn quantile_note(q: &Quantile) -> String {
    format!("n={}, {} beyond", q.n, q.beyond)
}

/// Untraced run: `SETUPS` set-ups (the last one is kept), one timed
/// phase, checks.
fn untraced(a: &Args) -> Result<Outcome, String> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut kept: Option<Box<dyn Rig>> = None;
    for _ in 0..SETUPS {
        if let Some(old) = kept.take() {
            old.finish(&mut Phase::default(), &mut Vec::new(), None);
        }
        let t0 = Instant::now();
        kept = Some(setup(a.workload, a.seed, false)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut rig = kept.expect("at least one set-up");
    let ticks0 = host::cpu_ticks();
    let mut phase = rig.phase(a.seconds, usize::MAX, None);
    let ticks1 = host::cpu_ticks();
    let steal = (ticks1.0 - ticks0.0) as f64 / (ticks1.1 - ticks0.1).max(1) as f64;
    let mut info = Vec::new();
    let p50 = tail(&phase.lat, 0.5)?;
    let p90 = tail(&phase.lat, 0.9)?;
    rig.finish(&mut phase, &mut info, None);
    let mut m = Metrics::default();
    let mut notes = BTreeMap::new();
    m.put("setup_s", median(&setup_s), "s");
    notes.insert(
        "setup_s".into(),
        format!(
            "median of {SETUPS} set-ups {:?}",
            setup_s
                .iter()
                .map(|x| (x * 1e4).round() / 1e4)
                .collect::<Vec<_>>()
        ),
    );
    m.put("ops_per_s", phase.ops_per_s(), "1/s");
    // Whole one-second windows only: the last is cut short by the deadline.
    let windows: Vec<f64> = phase.per_second[..phase.per_second.len().saturating_sub(1)]
        .iter()
        .map(|&n| n as f64)
        .collect();
    let window_note = if windows.is_empty() {
        String::new()
    } else {
        format!(
            "; 1-s windows min {} median {} max {}",
            windows.iter().copied().fold(f64::INFINITY, f64::min),
            median(&windows),
            windows.iter().copied().fold(0.0, f64::max)
        )
    };
    notes.insert(
        "ops_per_s".into(),
        format!(
            "{} ops in {:.3} s{window_note}; host CPU steal {:.1} %",
            phase.attempted,
            phase.elapsed_s,
            steal * 100.0
        ),
    );
    m.put("latency_p50_ms", p50.value, "ms");
    notes.insert("latency_p50_ms".into(), quantile_note(&p50));
    m.put("latency_p90_ms", p90.value, "ms");
    notes.insert("latency_p90_ms".into(), quantile_note(&p90));
    m.put("peak_rss_mib", host::peak_rss_mib(), "MiB");
    notes.insert("peak_rss_mib".into(), "VmHWM of this process".into());
    Ok(Outcome {
        metrics: m,
        phase,
        info,
        notes,
    })
}

/// Traced run: one set-up, an untraced half and a traced half of the
/// time (their throughput ratio is the tracing overhead), then the
/// per-layer probes of every layer this workload does not drive itself.
fn traced(a: &Args) -> Result<Outcome, String> {
    let spans = SpanLog::new();
    let mut rig = setup(a.workload, a.seed, true)?;
    let plain = rig.phase(a.seconds / 2.0, usize::MAX, None);
    let mut phase = rig.phase(a.seconds / 2.0, usize::MAX, Some(&spans));
    let (plain_rate, traced_rate) = (plain.ops_per_s(), phase.ops_per_s());
    phase.attempted += plain.attempted;
    phase.failed += plain.failed;
    phase.failures.extend(plain.failures);
    let mut m = Metrics::default();
    let mut info = Vec::new();
    rig.finish(&mut phase, &mut info, Some((&mut m, &spans)));
    if a.workload != "serve_miss" {
        serve::probe(a.seed, &spans, &mut m)?;
    }
    if a.workload != "sim_cli" {
        sim::probe(a.seed, &spans, &mut m)?;
    }
    replay::layer_metrics(a.seed, &spans, &mut m)?;
    train::layer_metrics(a.seed, &spans, &mut m)?;
    m.put(
        "trace_overhead_frac",
        1.0 - traced_rate / plain_rate,
        "frac",
    );

    let tracer = spans.to_tracer();
    m.put("trace.harness_spans", tracer.spans().len() as f64, "count");
    let path = host::out_dir().join(format!("{}-seed{}.trace.json", a.workload, a.seed));
    std::fs::write(&path, tracer.chrome_trace().render())
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    info.push(("chrome_trace".into(), path.display().to_string()));
    let mut notes = BTreeMap::new();
    notes.insert(
        "trace_overhead_frac".into(),
        format!(
            "{:.2} ops/s untraced vs {:.2} traced",
            plain_rate, traced_rate
        ),
    );
    Ok(Outcome {
        metrics: m,
        phase,
        info,
        notes,
    })
}

/// `{"value": v, "unit": u}` with every digit of `v`.
fn metric_json(value: f64, unit: &str) -> String {
    format!("{{\"value\":{value:?},\"unit\":{}}}", s(unit).render())
}

fn run(a: &Args) -> Result<bool, String> {
    std::fs::create_dir_all(host::out_dir())
        .map_err(|e| format!("create {}: {e}", host::out_dir().display()))?;
    let prov = host::provenance(a.seed);
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        a.workload,
        a.seed,
        a.seconds,
        u8::from(a.trace)
    );
    println!("provenance {}", prov.render());
    let out = if a.trace { traced(a)? } else { untraced(a)? };
    let expected: Vec<&str> = if a.trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.to_vec()
    };
    let names: Vec<&str> = out.metrics.0.keys().map(String::as_str).collect();
    let mut sorted = expected.clone();
    sorted.sort_unstable();
    if names != sorted {
        return Err(format!("metric set {names:?} != expected {sorted:?}"));
    }
    if let Some((name, _)) = out.metrics.0.iter().find(|(_, (v, _))| !v.is_finite()) {
        return Err(format!("metric {name} is not a finite number"));
    }

    let ph = &out.phase;
    let failed_frac = ph.failed as f64 / ph.attempted.max(1) as f64;
    for name in &expected {
        let (v, unit) = out.metrics.0[*name];
        let note = out
            .notes
            .get(*name)
            .map_or(String::new(), |n| format!("  ({n})"));
        println!("  {name:<28} {v:>14.4} {unit}{note}");
    }
    println!(
        "  {:<28} {:>14.4} frac  ({} failed of {} attempted)",
        "failed_frac", failed_frac, ph.failed, ph.attempted
    );
    for f in &ph.failures {
        println!("  FAILED: {f}");
    }
    if ph.exhausted {
        println!("  NOTE: the input stream ran out before the time did");
    }
    for (k, v) in &out.info {
        println!("  {k}: {v}");
    }
    let correct = ph.failed == 0;

    let report = obj(vec![
        ("workload", s(a.workload)),
        ("seed", num(a.seed as f64)),
        ("seconds", num(a.seconds)),
        ("trace", Value::Bool(a.trace)),
        ("provenance", prov),
        ("correct", Value::Bool(correct)),
        ("attempted", num(ph.attempted as f64)),
        ("failed", num(ph.failed as f64)),
        ("failed_frac", num(failed_frac)),
        (
            "failures",
            Value::Arr(ph.failures.iter().map(|f| s(f)).collect()),
        ),
        (
            "metrics",
            Value::Obj(
                out.metrics
                    .0
                    .iter()
                    .map(|(k, (v, u))| {
                        let mut members = vec![("value", num(*v)), ("unit", s(u))];
                        if let Some(n) = out.notes.get(k) {
                            members.push(("note", s(n)));
                        }
                        (k.clone(), obj(members))
                    })
                    .collect(),
            ),
        ),
        (
            "info",
            Value::Obj(out.info.iter().map(|(k, v)| (k.clone(), s(v))).collect()),
        ),
    ]);
    let path = host::out_dir().join(format!(
        "{}-seed{}-trace{}.json",
        a.workload,
        a.seed,
        u8::from(a.trace)
    ));
    std::fs::write(&path, report.render() + "\n")
        .map_err(|e| format!("write {}: {e}", path.display()))?;

    let metrics: Vec<String> = expected
        .iter()
        .map(|name| {
            let (v, unit) = out.metrics.0[*name];
            format!("{}:{}", s(name).render(), metric_json(v, unit))
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        ph.attempted,
        ph.failed,
        metrics.join(",")
    );
    Ok(correct)
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("perfbench: refusing to measure a debug build; use --release");
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmpt_obs::json::parse;

    /// Benchmark runners read metric names from `BENCHMARK.json`; they must be
    /// exactly the ones a run prints, in the same order.
    #[test]
    fn benchmark_json_lists_every_metric() {
        let path = host::repo_dir().join("BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        let doc = parse(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Value::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(Value::as_str)
                        .expect("name")
                        .to_string()
                })
                .collect()
        };
        assert_eq!(names("end_to_end"), END_TO_END);
        assert_eq!(names("per_layer"), PER_LAYER);
        // Workloads too unsteady to gate on run by hand only (README.md).
        let listed = names("workloads");
        assert!(!listed.is_empty());
        assert!(listed.iter().all(|w| WORKLOADS.contains(&w.as_str())));
    }
}
