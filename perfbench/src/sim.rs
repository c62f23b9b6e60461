//! `sim_cli`: one caller running the `mpt_sim` command path
//! (`run_request_with`, unobserved) directly — no server, no cache.

use std::collections::HashMap;
use std::sync::Mutex;

use wmpt_core::{simulate_network, SystemModel};
use wmpt_obs::{Logger, Observer};
use wmpt_par::ParPool;
use wmpt_serve::{find_network, run_request_with, SimRequest};

use crate::drive::{closed_loop, Phase};
use crate::gen::sim_cli_stream;
use crate::serve::{digest, DIGEST_OPS};
use crate::spans::SpanLog;
use crate::stats::median;
use crate::{host, Metrics, Rig};

/// Longest stream a run can consume.
const STREAM_LEN: usize = 4000;
/// One block of the stream: the probe size for other workloads.
pub const BLOCK_OPS: usize = 30;

/// The span (category, name) a request kind is timed under.
fn span_of(req: &SimRequest) -> (&'static str, &'static str) {
    match req {
        SimRequest::Noc { .. } => ("noc", "sweep"),
        SimRequest::PlanAuto { .. } => ("opt", "plan_auto"),
        SimRequest::Network { .. } => ("core", "network_plain"),
        SimRequest::Faults { .. } => ("fault", "train"),
        _ => ("core", "other"),
    }
}

/// What every report of a kind must contain.
fn check_report(req: &SimRequest, report: &str) -> Result<(), String> {
    let lines = report.lines().count();
    let ok = match req {
        SimRequest::Noc { .. } => lines == 7,
        SimRequest::PlanAuto { .. } => report.contains("oracle: "),
        SimRequest::Network { configs, .. } => lines == configs.len() + 2,
        SimRequest::Faults { scenario, .. } => {
            let keeps_grid = !matches!(scenario.as_str(), "dead-worker" | "chaos");
            report.contains("resilience: ")
                && (!keeps_grid || report.contains("bit_identical=true"))
        }
        _ => !report.is_empty(),
    };
    if ok {
        Ok(())
    } else {
        Err(format!("malformed {} report", req.kind()))
    }
}

pub struct SimRig {
    stream: Vec<SimRequest>,
    pool: ParPool,
    cursor: usize,
    /// Digest of each key's first report: repeats must match it.
    first: Mutex<HashMap<u128, u64>>,
    /// Report digests of the first [`DIGEST_OPS`] stream positions.
    head: Mutex<Vec<(usize, u64)>>,
    /// `(network, host ms)` of each traced network sweep.
    net_ms: Mutex<Vec<(String, f64)>>,
}

impl SimRig {
    pub fn setup(seed: u64) -> Result<SimRig, String> {
        let rig = SimRig {
            stream: sim_cli_stream(seed, STREAM_LEN),
            pool: ParPool::new(host::nproc()),
            cursor: 0,
            first: Mutex::new(HashMap::new()),
            head: Mutex::new(Vec::new()),
            net_ms: Mutex::new(Vec::new()),
        };
        // Warm-up: one call of each kind, the same for every seed.
        for req in [
            SimRequest::noc("ring", "uniform"),
            SimRequest::plan_auto("vgg16"),
            SimRequest::network("table2", "all"),
            SimRequest::faults("single-link", 7, 6),
        ] {
            rig.call(&req?)?;
        }
        Ok(rig)
    }

    fn call(&self, req: &SimRequest) -> Result<String, String> {
        let mut obs = Observer::new();
        let report = run_request_with(
            req,
            &self.pool,
            &mut obs,
            &mut None,
            &Logger::disabled(),
            false,
        )?;
        check_report(req, &report)?;
        Ok(report)
    }

    fn op(&self, j: usize, spans: Option<(&SpanLog, usize)>) -> Result<(), String> {
        let req = &self.stream[j];
        let report = match spans {
            Some((log, client)) => {
                let (cat, name) = span_of(req);
                let start = log.now_ns();
                let r = self.call(req);
                let end = log.now_ns();
                log.record(&format!("client{client}"), cat, name, start, end);
                if let SimRequest::Network { network, .. } = req {
                    let ms = (end - start) as f64 / 1e6;
                    self.net_ms
                        .lock()
                        .expect("lock")
                        .push((network.clone(), ms));
                }
                r
            }
            None => self.call(req),
        }?;
        let d = digest([report.as_bytes()]);
        let first = *self
            .first
            .lock()
            .expect("lock")
            .entry(req.cache_key())
            .or_insert(d);
        if first != d {
            return Err(format!("{} report changed between repeats", req.kind()));
        }
        if j < DIGEST_OPS {
            self.head.lock().expect("lock").push((j, d));
        }
        Ok(())
    }
}

impl Rig for SimRig {
    fn phase(&mut self, seconds: f64, max_ops: usize, spans: Option<&SpanLog>) -> Phase {
        let base = self.cursor;
        let limit = max_ops.min(self.stream.len() - base);
        let phase = closed_loop(1, seconds, limit, |client, i| {
            self.op(base + i, spans.map(|s| (s, client)))
        });
        self.cursor += phase.attempted;
        phase
    }

    fn finish(
        self: Box<Self>,
        _phase: &mut Phase,
        info: &mut Vec<(String, String)>,
        layer: Option<(&mut Metrics, &SpanLog)>,
    ) {
        let mut head = self.head.into_inner().expect("lock");
        head.sort_unstable();
        let bytes: Vec<[u8; 8]> = head.iter().map(|(_, d)| d.to_le_bytes()).collect();
        info.push((
            "report_digest".into(),
            format!(
                "{:016x} over the first {} requests",
                digest(bytes.iter().map(|b| b.as_slice())),
                head.len()
            ),
        ));
        if let Some((m, spans)) = layer {
            sim_layer_metrics(&self.net_ms.into_inner().expect("lock"), spans, m);
        }
    }
}

/// Per-kind medians of the traced calls, and simulated cycles per host
/// second of the plain network sweeps.
fn sim_layer_metrics(net_ms: &[(String, f64)], spans: &SpanLog, m: &mut Metrics) {
    for (metric, cat, name) in [
        ("noc.sweep_ms", "noc", "sweep"),
        ("opt.plan_auto_ms", "opt", "plan_auto"),
        ("core.network_plain_ms", "core", "network_plain"),
        ("fault.train_ms", "fault", "train"),
    ] {
        let d = spans.durations_ms(cat, name);
        m.put(metric, if d.is_empty() { 0.0 } else { median(&d) }, "ms");
    }
    let model = SystemModel::paper_fp16();
    let mut cycles: HashMap<&str, f64> = HashMap::new();
    let (mut total_cycles, mut total_s) = (0.0, 0.0);
    for (net, ms) in net_ms {
        let c = *cycles.entry(net).or_insert_with(|| {
            let n = find_network(net).expect("known network");
            wmpt_core::SystemConfig::all()
                .iter()
                .map(|&sys| simulate_network(&model, &n, sys).total_cycles())
                .sum()
        });
        total_cycles += c;
        total_s += ms / 1e3;
    }
    m.put(
        "core.sim_cycles_per_host_s",
        if total_s > 0.0 {
            total_cycles / total_s
        } else {
            0.0
        },
        "cycles/s",
    );
}

/// Simulator-layer metrics for a workload that does not drive them: one
/// block of the `sim_cli` stream.
pub fn probe(seed: u64, spans: &SpanLog, m: &mut Metrics) -> Result<(), String> {
    let mut rig = Box::new(SimRig::setup(seed)?);
    let mut phase = rig.phase(f64::INFINITY, BLOCK_OPS, Some(spans));
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

    /// The `report_digest` a `sim_cli` run of seed 1 prints: any change to
    /// a simulated statistic (or to the report text) of the first
    /// [`DIGEST_OPS`] requests changes it.
    #[test]
    fn sim_cli_report_digest_is_pinned() {
        let rig = SimRig::setup(1).expect("set-up");
        let bytes: Vec<[u8; 8]> = rig.stream[..DIGEST_OPS]
            .iter()
            .map(|r| digest([rig.call(r).expect("request runs").as_bytes()]).to_le_bytes())
            .collect();
        let d = digest(bytes.iter().map(|b| b.as_slice()));
        assert_eq!(format!("{d:016x}"), "be39e0be3b92b9b7");
    }
}
