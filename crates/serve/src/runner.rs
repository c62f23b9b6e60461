//! Executing a [`SimRequest`]: the one code path behind both the
//! `mpt_sim` CLI and the HTTP server.
//!
//! Every report here is built as a `String` whose bytes are exactly
//! what the CLI prints — the CLI does `print!("{report}")`, the server
//! caches the same string, and the differential tests compare the two
//! with `==`. Heartbeat/progress lines are pacing, not content: they go
//! through the caller's [`Logger`] at `info` level via
//! [`Logger::raw`], byte-for-byte what they always were on stderr (the
//! CLI's default logger writes raw lines verbatim), silenceable with
//! `--log-level warn`. The server passes no heartbeat.

use std::fmt::Write as _;

use crate::request::{find_network, SimRequest};
use crate::result::SimResult;
use wmpt_analyze::{timeline_svg, Analysis};
use wmpt_core::{
    simulate_layer, simulate_layer_observed, simulate_network, simulate_network_observed,
    simulate_network_observed_with, Heartbeat, SystemConfig, SystemModel,
};
use wmpt_fault::{demo_dataset, train_resilient, FaultPlan, GridShape, ResilienceConfig, Scenario};
use wmpt_models::{table2_layers, ConvLayerSpec};
use wmpt_noc::{latency_throughput_sweep, LinkKind, Topology, TrafficPattern};
use wmpt_obs::{json, Level, Logger, MetricShards, Observer, SpanSink, Tracer};
use wmpt_par::ParPool;

fn find_layer(name: &str) -> Option<ConvLayerSpec> {
    table2_layers().into_iter().find(|l| l.name == name)
}

fn parse_config(s: &str) -> Option<SystemConfig> {
    SystemConfig::all().into_iter().find(|c| c.abbrev() == s)
}

/// Resolves validated config abbreviations back to [`SystemConfig`]s.
/// A [`SimRequest`] only holds abbreviations that validate, so failure
/// here is a logic error, not bad input.
fn resolve_configs(abbrevs: &[String]) -> Vec<SystemConfig> {
    abbrevs
        .iter()
        .map(|a| parse_config(a).expect("SimRequest configs are pre-validated"))
        .collect()
}

/// Ticks the heartbeat (if any) and emits due lines verbatim through
/// the logger at `info` level.
fn beat<S: SpanSink>(hb: &mut Option<Heartbeat>, unit: &str, sink: &S, log: &Logger) {
    if let Some(hb) = hb {
        if let Some(line) = hb.tick(unit, sink) {
            log.raw(Level::Info, &line);
        }
    }
}

/// Runs one observed simulation per config on the pool, each into its
/// own private in-memory `Observer`, then merges: metrics fold through
/// [`MetricShards`] in shard-index order, and traces concatenate in
/// config order with each appended past the layers already recorded
/// ([`SpanSink::append_offset`]). The merged `obs` is therefore
/// identical for every `--jobs` value — parallel sweeps keep their
/// sinks, including streaming ones, which drain each config's scratch
/// trace as it lands. The heartbeat ticks once per merged config, on
/// the main thread, so progress lines are deterministic too.
fn observed_sweep<S: SpanSink, R: Send>(
    pool: &ParPool,
    n: usize,
    obs: &mut Observer<S>,
    hb: &mut Option<Heartbeat>,
    log: &Logger,
    sim: impl Fn(usize, &mut Observer) -> R + Sync,
) -> Vec<R> {
    let shards = MetricShards::new(n);
    let runs = pool.map_indexed(n, |i| {
        let mut o = Observer::new();
        let r = sim(i, &mut o);
        shards.record(i, |reg| reg.merge(&o.metrics));
        (r, o.trace)
    });
    let mut results = Vec::with_capacity(n);
    for (r, trace) in runs {
        let offset = obs.trace.category_cycles("layer");
        obs.trace.append_offset(&trace, offset);
        results.push(r);
        beat(hb, "config", &obs.trace, log);
    }
    obs.metrics.merge(&shards.merge());
    results
}

fn layer_report<S: SpanSink>(
    name: &str,
    cfgs: &[SystemConfig],
    observed: bool,
    obs: &mut Observer<S>,
    hb: &mut Option<Heartbeat>,
    log: &Logger,
    pool: &ParPool,
) -> Result<String, String> {
    let Some(layer) = find_layer(name) else {
        return Err(format!("unknown layer '{name}'"));
    };
    let model = SystemModel::paper();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{layer}  (p = {}, batch = {})",
        model.workers, model.batch
    );
    let _ = writeln!(
        out,
        "{:<8} {:>12} {:>12} {:>12} {:>10} {:>12}",
        "config", "fwd cycles", "bwd cycles", "energy (mJ)", "power (W)", "cluster"
    );
    let results = if observed {
        if cfgs.len() == 1 {
            // Single config streams straight into the caller's sink.
            let r = simulate_layer_observed(&model, &layer, cfgs[0], obs);
            beat(hb, "config", &obs.trace, log);
            vec![r]
        } else {
            observed_sweep(pool, cfgs.len(), obs, hb, log, |i, o| {
                simulate_layer_observed(&model, &layer, cfgs[i], o)
            })
        }
    } else {
        pool.map_indexed(cfgs.len(), |i| simulate_layer(&model, &layer, cfgs[i]))
    };
    for (&sys, r) in cfgs.iter().zip(&results) {
        let e = r.total_energy();
        let _ = writeln!(
            out,
            "{:<8} {:>12.0} {:>12.0} {:>12.2} {:>10.0} {:>12}",
            sys.abbrev(),
            r.forward.cycles,
            r.backward.cycles,
            e.total_j() * 1e3,
            e.average_power_w(r.total_cycles()),
            r.cluster.to_string()
        );
    }
    if let Some(hb) = hb {
        log.raw(Level::Info, &hb.line("config", &obs.trace));
    }
    Ok(out)
}

fn network_report<S: SpanSink>(
    name: &str,
    cfgs: &[SystemConfig],
    observed: bool,
    obs: &mut Observer<S>,
    hb: &mut Option<Heartbeat>,
    log: &Logger,
    pool: &ParPool,
) -> Result<String, String> {
    let Some(net) = find_network(name) else {
        return Err(format!("unknown network '{name}'"));
    };
    let model = SystemModel::paper_fp16();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} ({} conv layers, {:.1}M params)",
        net.name,
        net.layers.len(),
        net.param_count() as f64 / 1e6
    );
    let _ = writeln!(
        out,
        "{:<8} {:>14} {:>12} {:>10} {:>24}",
        "config", "cycles/iter", "images/s", "power (W)", "organization mix"
    );
    let per_layer = observed && cfgs.len() == 1;
    let results = if per_layer {
        // Single config streams end to end, with a heartbeat per layer.
        let r = simulate_network_observed_with(&model, &net, cfgs[0], obs, |_, _, o| {
            if let Some(hb) = hb.as_mut() {
                if let Some(line) = hb.tick("layer", &o.trace) {
                    log.raw(Level::Info, &line);
                }
            }
        });
        vec![r]
    } else if observed {
        observed_sweep(pool, cfgs.len(), obs, hb, log, |i, o| {
            simulate_network_observed(&model, &net, cfgs[i], o)
        })
    } else {
        pool.map_indexed(cfgs.len(), |i| simulate_network(&model, &net, cfgs[i]))
    };
    for (&sys, r) in cfgs.iter().zip(&results) {
        let mix = r
            .config_histogram()
            .iter()
            .map(|(k, n)| format!("{k}x{n}"))
            .collect::<Vec<_>>()
            .join(" ");
        let _ = writeln!(
            out,
            "{:<8} {:>14.0} {:>12.0} {:>10.0} {:>24}",
            sys.abbrev(),
            r.total_cycles(),
            r.images_per_second(model.batch),
            r.average_power_w(),
            mix
        );
    }
    if let Some(hb) = hb {
        let unit = if per_layer { "layer" } else { "config" };
        log.raw(Level::Info, &hb.line(unit, &obs.trace));
    }
    Ok(out)
}

fn noc_report(topo_name: &str, pattern_name: &str) -> Result<String, String> {
    let topo = match topo_name {
        "ring" => Topology::ring(16, LinkKind::FullX2),
        "fbfly" => Topology::flattened_butterfly(4, 4, LinkKind::Narrow),
        other => return Err(format!("unknown topology '{other}'")),
    };
    let pattern = match pattern_name {
        "uniform" => TrafficPattern::UniformRandom,
        "transpose" => TrafficPattern::Transpose,
        "neighbor" => TrafficPattern::NeighborRing,
        "hotspot" => TrafficPattern::Hotspot,
        other => return Err(format!("unknown traffic pattern '{other}'")),
    };
    let mut out = String::new();
    let _ = writeln!(out, "flit-level sweep: {topo_name} / {pattern_name}");
    let _ = writeln!(
        out,
        "{:>16} {:>16} {:>18}",
        "offered B/cy/node", "mean latency (cy)", "throughput (B/cy)"
    );
    let pts = latency_throughput_sweep(&topo, pattern, 256, &[1000, 100, 30, 15, 8], 1);
    for p in pts {
        let _ = writeln!(
            out,
            "{:>16.3} {:>16.1} {:>18.1}",
            p.offered, p.latency, p.throughput
        );
    }
    Ok(out)
}

fn plan_report(name: &str, cfg: &str) -> Result<String, String> {
    let Some(net) = find_network(name) else {
        return Err(format!("unknown network '{name}'"));
    };
    let Some(sys) = parse_config(cfg) else {
        return Err(format!("unknown config '{cfg}'"));
    };
    let model = SystemModel::paper_fp16();
    let plan = simulate_network(&model, &net, sys);
    let mut out = plan.render();
    let _ = writeln!(
        out,
        "total {:.0} cycles/iter; {:.0}% of communication is weight collectives",
        plan.total_cycles(),
        100.0 * plan.collective_fraction()
    );
    Ok(out)
}

/// Auto-searches a per-layer parallelism plan (`wmpt-opt` DP over the
/// `(N_g, N_c)` × batch-split × pipelining space), renders it next to
/// the paper's three fixed configurations costed under the same
/// objective, and cross-validates the plan's collectives against the
/// event-driven packet simulator. Search-effort counters (`opt.*`)
/// merge into `metrics_into` so CLI sinks and the server's metrics
/// artifact both see them. A plan the event simulator contradicts is
/// an error, not a report.
fn plan_auto_report(
    name: &str,
    metrics_into: &mut wmpt_obs::MetricRegistry,
) -> Result<String, String> {
    let Some(net) = find_network(name) else {
        return Err(format!("unknown network '{name}'"));
    };
    let model = SystemModel::paper_fp16();
    let sys = SystemConfig::WMpPD;
    let cfg = wmpt_opt::PlannerConfig::default();
    let mut cache = wmpt_opt::EvalCache::new();
    let plan = wmpt_opt::auto_search(&model, sys, &net, &cfg, &mut cache);
    let mut out = plan.render();
    for cluster in wmpt_noc::ClusterConfig::paper_configs() {
        let fixed = wmpt_opt::fixed_plan_layers(
            &model,
            sys,
            &net.name,
            &net.layers,
            cluster,
            &cfg,
            &mut cache,
        );
        let _ = writeln!(
            out,
            "fixed ({:>2},{:>3}): {:>14.0} cycles ({:+.1}% vs auto)",
            cluster.n_g,
            cluster.n_c,
            fixed.total_cycles,
            100.0 * (fixed.total_cycles / plan.total_cycles - 1.0)
        );
    }
    let report = wmpt_opt::validate_plan(&model, sys, &net.layers, &plan, &mut cache);
    let _ = writeln!(
        out,
        "oracle: {} collective(s) event-validated, {} skipped, worst sim/model {:.3} \
         (bounds [{}, {}))",
        report.checks.len(),
        report.skipped,
        report.worst_ratio(),
        wmpt_opt::ORACLE_RATIO_LO,
        wmpt_opt::ORACLE_RATIO_HI,
    );
    if !report.all_within_bounds() {
        return Err(format!(
            "auto plan for '{name}' failed event-simulator validation \
             (worst sim/model ratio {:.3})",
            report.worst_ratio()
        ));
    }
    // Deterministic counters only: the search wall-clock would break
    // the served-artifact byte-identity contract.
    let mut stats = cache.stats;
    stats.search_ms = 0.0;
    stats.record(metrics_into);
    Ok(out)
}

/// Runs a seeded fault scenario through the resilient functional trainer
/// and returns the greppable recovery summary. The fault run's own
/// metric registry merges into `metrics_into` so CLI sinks and the
/// server's metrics artifact both see it.
fn faults_report(
    scenario: &str,
    seed: u64,
    iters: usize,
    metrics_into: &mut wmpt_obs::MetricRegistry,
) -> Result<String, String> {
    let Some(sc) = Scenario::parse(scenario) else {
        return Err(format!("unknown scenario '{scenario}'"));
    };
    let shape = GridShape::small();
    let cfg = ResilienceConfig::small(iters);
    let (x, t) = demo_dataset(77, 8);
    let plan = FaultPlan::scenario(sc, shape, seed, cfg.horizon());
    let mut net = wmpt_core::WinogradNet::new(55, 2, &[4], true);
    let mut obs = Observer::new();
    let report = train_resilient(&mut net, &x, &t, shape, &plan, &cfg, &mut obs)
        .map_err(|e| format!("resilient run failed: {e}"))?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "fault scenario '{sc}' (seed {seed}) on an 8-worker grid, {iters} iterations"
    );
    for (cycle, ev) in plan.events() {
        let _ = writeln!(out, "  @{cycle:>8}  {ev}");
    }
    let _ = writeln!(out, "\n{}", obs.metrics.render_table());
    let identical = report.final_checkpoint == report.fault_free_checkpoint;
    let _ = writeln!(
        out,
        "resilience: scenario={sc} seed={seed} rollbacks={} replayed={} recoveries={} \
         recovery_cycles={} stall_cycles={} slowdown={:.3}x bit_identical={identical}",
        report.rollbacks,
        report.replayed_iterations,
        report.events_injected,
        report.recovery_cycles,
        report.stall_cycles,
        report.slowdown(),
    );
    metrics_into.merge(&obs.metrics);
    Ok(out)
}

/// Parses an embedded chrome-trace document and analyzes it. Returns
/// the reconstructed tracer (for SVG rendering) and the text report —
/// the same bytes `mpt_sim analyze --trace-in <chrome file>` prints.
pub fn analyze_trace_text(text: &str) -> Result<(Tracer, String), String> {
    let doc = json::parse(text).map_err(|e| format!("trace: {e}"))?;
    if doc.get("traceEvents").is_none() {
        return Err("trace: not a chrome-trace document (no traceEvents)".to_string());
    }
    let trace = Tracer::from_chrome_trace(&doc).map_err(|e| format!("trace: {e}"))?;
    let report = Analysis::of_trace(&trace).render();
    Ok((trace, report))
}

/// Executes a request against the caller's observer, heartbeat, and
/// logger, returning the report text. This is the CLI's path: the
/// caller owns the sink (possibly streaming), decides `observed`, and
/// prints the returned report verbatim. Heartbeat lines flow through
/// `log` at `info` level; pass [`Logger::disabled`] (or no heartbeat)
/// for silence.
pub fn run_request_with<S: SpanSink>(
    req: &SimRequest,
    pool: &ParPool,
    obs: &mut Observer<S>,
    hb: &mut Option<Heartbeat>,
    log: &Logger,
    observed: bool,
) -> Result<String, String> {
    match req {
        SimRequest::Layer { layer, configs } => layer_report(
            layer,
            &resolve_configs(configs),
            observed,
            obs,
            hb,
            log,
            pool,
        ),
        SimRequest::Network { network, configs } => network_report(
            network,
            &resolve_configs(configs),
            observed,
            obs,
            hb,
            log,
            pool,
        ),
        SimRequest::Noc { topo, pattern } => noc_report(topo, pattern),
        SimRequest::Plan { network, config } => plan_report(network, config),
        SimRequest::PlanAuto { network } => plan_auto_report(network, &mut obs.metrics),
        SimRequest::Faults {
            scenario,
            seed,
            iters,
        } => faults_report(scenario, *seed, *iters, &mut obs.metrics),
        SimRequest::Analyze { trace } => analyze_trace_text(trace).map(|(_, report)| report),
    }
}

/// Executes a request into a fresh observer and packages every artifact
/// the request kind produces, as exact bytes:
///
/// - `report` is what the CLI prints to stdout,
/// - `trace` matches `--trace-out` (chrome document, no trailing
///   newline),
/// - `metrics` matches `--metrics-out` (registry JSON plus a trailing
///   newline),
/// - `svg` matches `analyze --svg-out` of the same trace.
///
/// This is the server's path, and what the content-addressed cache
/// stores.
pub fn run_request(req: &SimRequest, pool: &ParPool) -> Result<SimResult, String> {
    match req {
        SimRequest::Layer { .. } | SimRequest::Network { .. } => {
            let mut obs = Observer::new();
            let mut hb = None;
            let report = run_request_with(req, pool, &mut obs, &mut hb, &Logger::disabled(), true)?;
            Ok(SimResult {
                report,
                metrics: Some(obs.metrics.to_json().render() + "\n"),
                trace: Some(obs.trace.chrome_trace().render()),
                svg: Some(timeline_svg(&obs.trace)),
            })
        }
        SimRequest::Noc { topo, pattern } => Ok(SimResult {
            report: noc_report(topo, pattern)?,
            ..SimResult::default()
        }),
        SimRequest::Plan { network, config } => Ok(SimResult {
            report: plan_report(network, config)?,
            ..SimResult::default()
        }),
        SimRequest::PlanAuto { network } => {
            let mut metrics = wmpt_obs::MetricRegistry::new();
            let report = plan_auto_report(network, &mut metrics)?;
            Ok(SimResult {
                report,
                metrics: Some(metrics.to_json().render() + "\n"),
                ..SimResult::default()
            })
        }
        SimRequest::Faults {
            scenario,
            seed,
            iters,
        } => {
            let mut metrics = wmpt_obs::MetricRegistry::new();
            let report = faults_report(scenario, *seed, *iters, &mut metrics)?;
            Ok(SimResult {
                report,
                metrics: Some(metrics.to_json().render() + "\n"),
                ..SimResult::default()
            })
        }
        SimRequest::Analyze { trace } => {
            let (tracer, report) = analyze_trace_text(trace)?;
            Ok(SimResult {
                report,
                svg: Some(timeline_svg(&tracer)),
                ..SimResult::default()
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> ParPool {
        ParPool::new(2)
    }

    #[test]
    fn layer_report_has_one_row_per_config() {
        let req = SimRequest::layer("Late-2", "all").unwrap();
        let res = run_request(&req, &pool()).unwrap();
        // Header + column line + six config rows.
        assert_eq!(res.report.lines().count(), 8);
        assert!(res.trace.is_some() && res.metrics.is_some() && res.svg.is_some());
        assert!(res.metrics.as_deref().unwrap().ends_with('\n'));
        assert!(!res.trace.as_deref().unwrap().ends_with('\n'));
    }

    #[test]
    fn results_are_deterministic_across_pools() {
        let req = SimRequest::layer("Mid-2", "all").unwrap();
        let a = run_request(&req, &ParPool::new(1)).unwrap();
        let b = run_request(&req, &ParPool::new(4)).unwrap();
        assert_eq!(a, b, "artifacts must be bit-identical for any --jobs");
    }

    #[test]
    fn noc_and_plan_produce_report_only() {
        let res = run_request(&SimRequest::noc("fbfly", "neighbor").unwrap(), &pool()).unwrap();
        assert!(res.report.starts_with("flit-level sweep: fbfly / neighbor"));
        assert!(res.trace.is_none() && res.metrics.is_none() && res.svg.is_none());
        let res = run_request(&SimRequest::plan("wrn", "w_mp++").unwrap(), &pool()).unwrap();
        assert!(res.report.contains("total "));
        assert!(res.trace.is_none());
    }

    #[test]
    fn analyze_round_trips_a_simulated_trace() {
        let layer = run_request(&SimRequest::layer("Early", "w_mp").unwrap(), &pool()).unwrap();
        let trace_doc = layer.trace.unwrap();
        let req = SimRequest::analyze(&trace_doc).unwrap();
        let res = run_request(&req, &pool()).unwrap();
        assert!(!res.report.is_empty());
        assert!(res.svg.as_deref().unwrap().starts_with("<svg"));
        assert!(run_request(&SimRequest::analyze("{}").unwrap(), &pool()).is_err());
    }
}
