//! The observed-simulation stack under `serve_miss`, taken apart: the
//! first layer/network requests of the `serve_miss` deck replayed through
//! direct calls, one span per stage the server's worker runs.

use std::hint::black_box as keep;

use wmpt_analyze::timeline_svg;
use wmpt_core::{
    simulate_layer, simulate_layer_observed, simulate_network, simulate_network_observed,
    SystemConfig, SystemModel,
};
use wmpt_models::table2_layers;
use wmpt_obs::Observer;
use wmpt_par::ParPool;
use wmpt_serve::{find_network, run_request, SimRequest};

use crate::gen::serve_miss_deck;
use crate::spans::SpanLog;
use crate::Metrics;

/// Requests replayed.
const REPLAY: usize = 12;

fn configs(abbrevs: &[String]) -> Vec<SystemConfig> {
    abbrevs
        .iter()
        .map(|a| {
            SystemConfig::all()
                .into_iter()
                .find(|c| c.abbrev() == a)
                .expect("generated configs are valid")
        })
        .collect()
}

/// Simulates `req` for every config, plain (`observe = None`) or into
/// one observer the way the server's worker does: a single config
/// streams straight into it, a sweep observes each config privately and
/// appends the traces in config order.
fn simulate(req: &SimRequest, observe: Option<&mut Observer>) {
    let sim_one = |i: usize, cfgs: &[SystemConfig], o: Option<&mut Observer>| match req {
        SimRequest::Layer { layer, .. } => {
            let spec = table2_layers()
                .into_iter()
                .find(|l| &l.name == layer)
                .expect("layer");
            let model = SystemModel::paper();
            match o {
                Some(o) => {
                    keep(simulate_layer_observed(&model, &spec, cfgs[i], o));
                }
                None => {
                    keep(simulate_layer(&model, &spec, cfgs[i]));
                }
            }
        }
        SimRequest::Network { network, .. } => {
            let net = find_network(network).expect("network");
            let model = SystemModel::paper_fp16();
            match o {
                Some(o) => {
                    keep(simulate_network_observed(&model, &net, cfgs[i], o));
                }
                None => {
                    keep(simulate_network(&model, &net, cfgs[i]));
                }
            }
        }
        _ => unreachable!("only layer and network requests are replayed"),
    };
    let cfgs = match req {
        SimRequest::Layer { configs: c, .. } | SimRequest::Network { configs: c, .. } => configs(c),
        _ => unreachable!("only layer and network requests are replayed"),
    };
    match observe {
        None => (0..cfgs.len()).for_each(|i| sim_one(i, &cfgs, None)),
        Some(obs) if cfgs.len() == 1 => sim_one(0, &cfgs, Some(obs)),
        Some(obs) => {
            for i in 0..cfgs.len() {
                let mut o = Observer::new();
                sim_one(i, &cfgs, Some(&mut o));
                let offset = obs.trace.category_cycles("layer");
                obs.trace.append_offset(&o.trace, offset);
                obs.metrics.merge(&o.metrics);
            }
        }
    }
}

pub fn layer_metrics(seed: u64, spans: &SpanLog, m: &mut Metrics) -> Result<(), String> {
    let deck = serve_miss_deck(seed, 400);
    let reqs: Vec<&SimRequest> = deck
        .iter()
        .filter(|r| matches!(r, SimRequest::Layer { .. } | SimRequest::Network { .. }))
        .take(REPLAY)
        .collect();
    let pool = ParPool::new(1);
    let track = "replay";
    let (mut plain, mut observed, mut trace_ms, mut svg_ms, mut metrics_ms) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    let (mut served, mut n_spans, mut bytes) = (0.0, 0usize, 0usize);
    for req in &reqs {
        let t = |cat, name: &str, f: &mut dyn FnMut()| {
            let start = spans.now_ns();
            f();
            let end = spans.now_ns();
            spans.record(track, cat, name, start, end);
            (end - start) as f64 / 1e6
        };
        plain += t("core", "simulate", &mut || simulate(req, None));
        let mut obs = Observer::new();
        observed += t("core", "simulate_observed", &mut || {
            simulate(req, Some(&mut obs))
        });
        let (mut trace, mut svg, mut metrics) = (String::new(), String::new(), String::new());
        trace_ms += t("obs", "trace_render", &mut || {
            trace = obs.trace.chrome_trace().render()
        });
        svg_ms += t("analyze", "svg", &mut || svg = timeline_svg(&obs.trace));
        metrics_ms += t("obs", "metrics_render", &mut || {
            metrics = obs.metrics.to_json().render() + "\n"
        });
        let mut result = Err(String::new());
        served += t("serve", "run_request", &mut || {
            result = run_request(req, &pool)
        });
        let result = result?;
        // The replay must be the computation the worker runs.
        if result.trace.as_deref() != Some(trace.as_str())
            || result.svg.as_deref() != Some(svg.as_str())
            || result.metrics.as_deref() != Some(metrics.as_str())
        {
            return Err(format!(
                "replay of {} diverges from run_request",
                req.to_json().render()
            ));
        }
        n_spans += obs.trace.spans().len();
        bytes += trace.len();
    }
    let n = reqs.len() as f64;
    m.put("core.simulate_ms", plain / n, "ms");
    m.put("core.observe_ms", (observed - plain) / n, "ms");
    m.put("core.observe_overhead_x", observed / plain, "x");
    m.put("obs.trace_render_ms", trace_ms / n, "ms");
    m.put("analyze.svg_ms", svg_ms / n, "ms");
    m.put("obs.metrics_render_ms", metrics_ms / n, "ms");
    m.put("obs.spans", n_spans as f64 / n, "count");
    m.put("obs.trace_bytes", bytes as f64 / n, "bytes");
    m.put(
        "core.observe_ns_per_span",
        (observed - plain) * 1e6 / n_spans as f64,
        "ns",
    );
    m.put(
        "serve.unattributed_ms",
        (served - observed - trace_ms - svg_ms - metrics_ms) / n,
        "ms",
    );
    Ok(())
}
