//! Full-system execution model: one training iteration of a convolution
//! layer on `p` NDP workers under a Table IV system configuration
//! (the engine behind Figures 15–18).
//!
//! Per phase, the model composes:
//!
//! * local compute from `wmpt-ndp` (systolic GEMMs, vector transforms,
//!   activations, SGD update),
//! * communication from `wmpt-noc` (tile scatter/gather on the cluster
//!   fabric, pipelined weight collectives on the group rings),
//! * energy from `wmpt-energy` (compute/SRAM/DRAM per worker, link energy
//!   from enabled bandwidth × wall-clock time — idle links burn power).
//!
//! Compute and communication overlap via double buffering, so a phase
//! costs `max(compute, communication)` — the same overlap the paper's
//! control unit arranges with its task graph.

use wmpt_energy::EnergyBreakdown;
use wmpt_energy::EnergyParams;
use wmpt_ndp::{
    elementwise, gemm, transform_2d, winograd_elementwise_gemms, NdpParams, WorkerCost,
};
use wmpt_noc::{ring_collective_cycles, tile_transfer_phase, ClusterConfig, NocParams};
use wmpt_obs::TrafficClass;

use crate::config::{PredictionSavings, SystemConfig};
use wmpt_models::ConvLayerSpec;

/// The simulated system: worker count, physical arrangement, batch, and
/// all component parameters.
#[derive(Debug, Clone, Copy)]
pub struct SystemModel {
    /// Total NDP workers `p`.
    pub workers: usize,
    /// Workers per physical group ring (16 in the paper's Fig 9).
    pub group_size: usize,
    /// Total batch size (256 throughout the paper).
    pub batch: usize,
    /// Network parameters.
    pub noc: NocParams,
    /// NDP worker parameters.
    pub ndp: NdpParams,
    /// Energy constants.
    pub energy: EnergyParams,
    /// Tile-transfer savings applied when prediction is enabled.
    pub savings: PredictionSavings,
    /// Bits per element of the prediction pre-pass (6-bit 2-D / 5-bit 1-D
    /// are folded into one average here).
    pub prediction_bits: u32,
}

impl SystemModel {
    /// The paper's layer-wise evaluation system: 256 FP32 workers,
    /// batch 256.
    pub fn paper() -> Self {
        Self {
            workers: 256,
            group_size: 16,
            batch: 256,
            noc: NocParams::paper(),
            ndp: NdpParams::paper_fp32(),
            energy: EnergyParams::paper(),
            savings: PredictionSavings::paper(),
            prediction_bits: 6,
        }
    }

    /// The entire-CNN evaluation system (FP16 96×96 arrays, §VII-C).
    pub fn paper_fp16() -> Self {
        Self {
            ndp: NdpParams::paper_fp16(),
            ..Self::paper()
        }
    }

    /// A single-worker reference system (the Fig 17 baseline).
    pub fn single_worker() -> Self {
        Self {
            workers: 1,
            group_size: 1,
            ..Self::paper_fp16()
        }
    }

    /// Collective-ring bandwidth in bytes/cycle for a system config: the
    /// data-parallel baselines bond all four full-width links into rings;
    /// MPT keeps half the I/O for the tile fabric (§VII-A).
    pub fn ring_bandwidth(&self, sys: SystemConfig) -> f64 {
        if sys.uses_mpt() {
            60.0
        } else {
            120.0
        }
    }

    /// Enabled per-worker link bandwidth (sum over directions, bytes per
    /// cycle) during the forward pass; unused links are turned off
    /// (§VII-A energy methodology) down to minimal host connectivity.
    pub fn enabled_link_bw_fwd(&self, sys: SystemConfig, cfg: ClusterConfig) -> f64 {
        if sys.uses_mpt() && cfg.n_g > 1 {
            120.0 // 6 narrow links x 2 directions x 10 B/c
        } else {
            60.0 // one full link pair kept up for host connectivity
        }
    }

    /// Enabled per-worker link bandwidth during the backward pass
    /// (bprop + updateGrad): collective rings come up, and MPT keeps the
    /// tile fabric up too.
    pub fn enabled_link_bw_bwd(&self, sys: SystemConfig, cfg: ClusterConfig) -> f64 {
        if sys.uses_mpt() {
            if cfg.n_g > 1 {
                120.0 + 120.0 // narrow fabric + two bonded full rings
            } else {
                120.0 // two bonded full rings
            }
        } else {
            240.0 // four full rings x 2 directions
        }
    }
}

/// Time and energy of one phase (system-wide).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PhaseResult {
    /// Phase duration in cycles.
    pub cycles: f64,
    /// Local compute cycles (before overlap with communication).
    pub compute_cycles: f64,
    /// Communication cycles (before overlap).
    pub comm_cycles: f64,
    /// System-wide energy.
    pub energy: EnergyBreakdown,
}

/// The weight collective a layer runs in its backward pass, as the
/// execution model charged it. The planner's differential validation
/// (`wmpt-opt`) rebuilds exactly this collective on the event simulator
/// and bounds the analytical/event ratio; the observed entry points
/// record its counters from these fields.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollectiveParams {
    /// Message bytes each ring member contributes (`|W|/N_g`).
    pub msg_bytes: u64,
    /// Ring membership count.
    pub ring_len: usize,
    /// Ring link bandwidth, bytes/cycle.
    pub bandwidth: f64,
    /// Host-stitching latency added per hop.
    pub extra_hop_latency: u64,
    /// Closed-form completion cycles charged to the layer.
    pub cycles: f64,
}

/// Result of simulating one layer's training iteration.
#[derive(Debug, Clone)]
pub struct LayerResult {
    /// Layer name.
    pub layer: String,
    /// The worker organization used.
    pub cluster: ClusterConfig,
    /// Transform `(m, t)` if Winograd ran, `None` for direct convolution.
    pub transform: Option<(usize, usize)>,
    /// Forward pass (fprop).
    pub forward: PhaseResult,
    /// Backward pass (bprop + updateGrad).
    pub backward: PhaseResult,
    /// The weight collective of the backward pass; its `cycles` are the
    /// collective portion of the backward communication.
    pub collective: CollectiveParams,
    /// Tile-transfer portion of the communication, fwd + bwd (cycles).
    pub tile_comm_cycles: f64,
    /// Per-stage breakdown, read by [`crate::observe`].
    pub(crate) detail: ExecDetail,
}

impl LayerResult {
    /// Total iteration cycles.
    pub fn total_cycles(&self) -> f64 {
        self.forward.cycles + self.backward.cycles
    }

    /// Total iteration energy.
    pub fn total_energy(&self) -> EnergyBreakdown {
        self.forward.energy.add(&self.backward.energy)
    }
}

/// One tile-transfer sub-phase of a layer, for observation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CommPhase {
    /// Traffic class (scatter or gather).
    pub class: TrafficClass,
    /// Phase duration in cycles.
    pub cycles: f64,
    /// Payload bytes actually moved cluster-wide (post-savings).
    pub payload_bytes: u64,
}

/// Per-stage/per-phase breakdown collected while executing a layer and
/// carried on its [`LayerResult`], used by [`crate::observe`] to emit
/// spans and metrics. Cheap to build (a few small vectors next to the
/// topology allocations the execution already makes) and never exposed
/// publicly.
#[derive(Debug, Clone, Default)]
pub(crate) struct ExecDetail {
    /// Forward NDP stages `(name, busy cycles)` in dataflow order.
    pub fwd_stages: Vec<(&'static str, f64)>,
    /// Backward NDP stages `(name, busy cycles)` in dataflow order.
    pub bwd_stages: Vec<(&'static str, f64)>,
    /// Forward tile-transfer sub-phases in order.
    pub fwd_comm: Vec<CommPhase>,
    /// Backward tile-transfer sub-phases in order.
    pub bwd_comm: Vec<CommPhase>,
    /// Per-worker forward local cost.
    pub fwd_cost: WorkerCost,
    /// Per-worker backward local cost.
    pub bwd_cost: WorkerCost,
    /// Cluster-wide tile bytes moved in the forward pass (post-savings).
    pub tile_bytes_fwd_total: u64,
    /// Gather bytes avoided by activation prediction (fwd + bwd).
    pub tile_bytes_saved_gather: u64,
    /// Scatter bytes avoided by zero-skipping (fwd + bwd).
    pub tile_bytes_saved_scatter: u64,
}

/// Simulates one layer under `sys`, letting dynamic clustering pick the
/// best worker organization when the config allows it (the paper assumes
/// the optimal per-layer reorganization, §IV footnote).
pub fn simulate_layer(
    model: &SystemModel,
    layer: &ConvLayerSpec,
    sys: SystemConfig,
) -> LayerResult {
    let mut best: Option<LayerResult> = None;
    for cfg in sys.candidate_configs(model.workers) {
        let r = simulate_layer_with(model, layer, sys, cfg);
        if best
            .as_ref()
            .is_none_or(|b| r.total_cycles() < b.total_cycles())
        {
            best = Some(r);
        }
    }
    best.expect("candidate_configs is never empty")
}

/// Simulates one layer under an explicit worker organization.
pub fn simulate_layer_with(
    model: &SystemModel,
    layer: &ConvLayerSpec,
    sys: SystemConfig,
    cfg: ClusterConfig,
) -> LayerResult {
    let tf = if layer.winograd_friendly() {
        sys.transform_for(layer.r, cfg.n_g)
    } else {
        None
    };
    match tf {
        Some(tf) => winograd_layer_exec(model, layer, sys, cfg, tf.m(), tf.t()),
        None => direct_layer_exec(model, layer, sys),
    }
}

/// The weight collective of `msg_bytes` per member around the rings of
/// `cfg`, stitched through the host where a ring spans physical groups.
fn weight_collective(
    model: &SystemModel,
    sys: SystemConfig,
    cfg: ClusterConfig,
    msg_bytes: u64,
) -> CollectiveParams {
    let extra_hop_latency =
        cfg.host_traversals(model.group_size) as u64 * 2 * model.noc.hop_latency()
            / cfg.ring_len().max(1) as u64;
    let bandwidth = model.ring_bandwidth(sys);
    CollectiveParams {
        msg_bytes,
        ring_len: cfg.ring_len(),
        bandwidth,
        extra_hop_latency,
        cycles: ring_collective_cycles(
            msg_bytes,
            cfg.ring_len(),
            bandwidth,
            &model.noc,
            extra_hop_latency,
        ),
    }
}

/// Direct convolution under data parallelism (`d_dp`, and any layer that
/// cannot run in the Winograd domain).
fn direct_layer_exec(model: &SystemModel, layer: &ConvLayerSpec, sys: SystemConfig) -> LayerResult {
    let p = model.workers as u64;
    let cfg = ClusterConfig::data_parallel(model.workers);
    let b_local = (model.batch as u64).div_ceil(p);
    let pixels = b_local * (layer.h * layer.w) as u64;
    let k = (layer.in_chans * layer.r * layer.r) as u64;
    let j = layer.out_chans as u64;
    let i_rr = k;

    // fprop: implicit GEMM over output pixels.
    let g_f = gemm(&model.ndp, pixels, k, j, 0.5);
    let relu = elementwise(&model.ndp, pixels * j);
    let mut fwd_cost = WorkerCost::default().with_gemm(&g_f).with_vector(&relu);
    // Direct convolution enjoys full on-chip input reuse (overlapping
    // windows via line buffers): each operand touches DRAM once per phase
    // (the Fig 1 accounting). Weights are fully replicated on every
    // worker under data parallelism.
    let x_share = layer.input_bytes(model.batch) / p;
    let y_share = layer.output_bytes(model.batch) / p;
    fwd_cost.dram_bytes = x_share + layer.spatial_weight_bytes() + y_share;

    // bprop + updateGrad.
    let g_b = gemm(
        &model.ndp,
        pixels,
        (layer.out_chans * layer.r * layer.r) as u64,
        layer.in_chans as u64,
        0.5,
    );
    let g_u = gemm(&model.ndp, i_rr, pixels, j, 0.5);
    let relu_b = elementwise(&model.ndp, pixels * layer.in_chans as u64);
    let upd = elementwise(&model.ndp, layer.params());
    let mut bwd_cost = WorkerCost::default()
        .with_gemm(&g_b)
        .with_gemm(&g_u)
        .with_vector(&relu_b)
        .with_vector(&upd);
    // bprop: dy + w + dx; updateGrad: x + dy + dw (+ weight write-back).
    bwd_cost.dram_bytes = (y_share + layer.spatial_weight_bytes() + x_share)
        + (x_share + y_share + 2 * layer.spatial_weight_bytes());

    // Weight collective around the stitched full ring of all workers.
    let collective = weight_collective(model, sys, cfg, layer.spatial_weight_bytes());

    let detail = ExecDetail {
        fwd_stages: vec![("gemm_f", g_f.cycles as f64), ("relu", relu.cycles as f64)],
        bwd_stages: vec![
            ("gemm_b", g_b.cycles as f64),
            ("gemm_u", g_u.cycles as f64),
            ("relu_b", relu_b.cycles as f64),
            ("upd", upd.cycles as f64),
        ],
        fwd_cost,
        bwd_cost,
        ..ExecDetail::default()
    };
    assemble(model, layer, sys, cfg, None, 0.0, 0.0, collective, detail)
}

/// Winograd execution under MPT (or single-group data parallelism).
fn winograd_layer_exec(
    model: &SystemModel,
    layer: &ConvLayerSpec,
    sys: SystemConfig,
    cfg: ClusterConfig,
    m: usize,
    t: usize,
) -> LayerResult {
    let (n_g, n_c) = (cfg.n_g as u64, cfg.n_c as u64);
    let b = model.batch as u64;
    let tpi = layer.tiles_per_image(m);
    let i = layer.in_chans as u64;
    let j = layer.out_chans as u64;
    let t2 = (t * t) as u64;
    let elems_pw = t2.div_ceil(n_g);
    let tiles_cluster = b.div_ceil(n_c) * tpi;

    let one_d = cfg.uses_one_d_transfer(t);
    let pred = sys.uses_prediction();
    let s_gather = if pred {
        model.savings.gather_for(cfg, t)
    } else {
        0.0
    };
    let s_scatter = if pred {
        model.savings.scatter_for(cfg, t)
    } else {
        0.0
    };
    // Winograd-domain join (FractalNet modified join): branch outputs are
    // joined before the inverse transform, halving this layer's gather and
    // inverse-transform work.
    let join_factor = if layer.joins_after > 0 { 0.5 } else { 1.0 };

    // ---- forward ----
    // Input transform: each worker transforms its share of the cluster's
    // spatial tiles; in the 1-D regime the second half runs at the
    // destination — total work is one full 2-D transform either way.
    let tf_in = transform_2d(&model.ndp, tiles_cluster * i / n_g.min(t2), t);
    let g_f = winograd_elementwise_gemms(&model.ndp, elems_pw, tiles_cluster, i, j);
    let tf_out = transform_2d(
        &model.ndp,
        ((tiles_cluster * j / n_g.min(t2)) as f64 * join_factor) as u64,
        t,
    );
    let relu = elementwise(
        &model.ndp,
        b.div_ceil(n_c) * (layer.h * layer.w) as u64 * j / n_g,
    );
    // Per-phase Winograd weight reads from DRAM (each worker stores only
    // its group's |W|/N_g share — the paper's DRAM-energy advantage) and
    // the Fig 1 accounting for feature data: spatial maps touch DRAM
    // once, Winograd-domain tiles are written after the transform and
    // read back for the GEMM (2x each way). Shares are per worker.
    let w_share = layer.winograd_weight_bytes(t) / n_g;
    let p_all = n_g * n_c;
    let x_share = layer.input_bytes(model.batch) / p_all;
    let y_share = layer.output_bytes(model.batch) / p_all;
    let xt_share = layer.input_tile_bytes(model.batch, m, t) / p_all;
    let yt_share = layer.output_tile_bytes(model.batch, m, t) / p_all;
    let mut fwd_cost = WorkerCost::default()
        .with_vector(&tf_in)
        .with_gemm(&g_f)
        .with_vector(&tf_out)
        .with_vector(&relu);
    fwd_cost.dram_bytes = x_share + 2 * xt_share + w_share + 2 * yt_share + y_share;

    // Forward communication: scatter X then gather Y inside each cluster.
    let mut detail = ExecDetail::default();
    let fwd_comm = if n_g > 1 {
        let cluster = cfg
            .cluster_topology()
            .expect("n_g > 1 has a cluster fabric");
        let x_bytes = layer.input_tile_bytes(model.batch, m, t) / n_c;
        let y_bytes = layer.output_tile_bytes(model.batch, m, t) / n_c;
        let gather_factor = if one_d { m as f64 / t as f64 } else { 1.0 };
        let pred_overhead = if pred {
            model.prediction_bits as f64 / 32.0
        } else {
            0.0
        };
        let scatter_v = x_bytes as f64 * (1.0 - s_scatter);
        let gather_v =
            y_bytes as f64 * gather_factor * join_factor * (1.0 - s_gather + pred_overhead);
        let ph_s = tile_transfer_phase(&cluster, &model.noc, scatter_v as u64, cfg.n_g);
        let ph_g = tile_transfer_phase(&cluster, &model.noc, gather_v as u64, cfg.n_g);
        detail.fwd_comm = vec![
            CommPhase {
                class: TrafficClass::TileScatter,
                cycles: ph_s.cycles,
                payload_bytes: scatter_v as u64,
            },
            CommPhase {
                class: TrafficClass::TileGather,
                cycles: ph_g.cycles,
                payload_bytes: gather_v as u64,
            },
        ];
        detail.tile_bytes_fwd_total = (scatter_v + gather_v) as u64;
        detail.tile_bytes_saved_scatter += (x_bytes as f64 * s_scatter) as u64;
        detail.tile_bytes_saved_gather +=
            (y_bytes as f64 * gather_factor * join_factor * s_gather) as u64;
        ph_s.cycles + ph_g.cycles
    } else {
        0.0
    };

    // ---- backward (bprop + updateGrad) ----
    let tf_dy = transform_2d(&model.ndp, tiles_cluster * j / n_g.min(t2), t);
    let g_b = winograd_elementwise_gemms(&model.ndp, elems_pw, tiles_cluster, j, i);
    let tf_dx = transform_2d(&model.ndp, tiles_cluster * i / n_g.min(t2), t);
    let relu_b = elementwise(
        &model.ndp,
        b.div_ceil(n_c) * (layer.h * layer.w) as u64 * i / n_g,
    );
    let g_u = gemm(&model.ndp, i, tiles_cluster, j, 0.5);
    let g_u = wmpt_ndp::GemmCost {
        cycles: g_u.cycles * elems_pw,
        compute_cycles: g_u.compute_cycles * elems_pw,
        dram_cycles: g_u.dram_cycles * elems_pw,
        macs: g_u.macs * elems_pw,
        dram_bytes: g_u.dram_bytes * elems_pw,
        sram_bytes: g_u.sram_bytes * elems_pw,
    };
    let upd = elementwise(
        &model.ndp,
        (layer.in_chans * layer.out_chans) as u64 * t2 / n_g,
    );
    let mut bwd_cost = WorkerCost::default()
        .with_vector(&tf_dy)
        .with_gemm(&g_b)
        .with_vector(&tf_dx)
        .with_vector(&relu_b)
        .with_gemm(&g_u)
        .with_vector(&upd);
    // bprop: dy + 2dY + W + 2dX + dx; updateGrad: X + dY re-read,
    // gradient written and weights updated in place.
    bwd_cost.dram_bytes = (y_share + 2 * yt_share + w_share + 2 * xt_share + x_share)
        + (xt_share + yt_share + 3 * w_share);

    let bwd_tile_comm = if n_g > 1 {
        let cluster = cfg
            .cluster_topology()
            .expect("n_g > 1 has a cluster fabric");
        let dy_bytes = layer.output_tile_bytes(model.batch, m, t) / n_c;
        let dx_bytes = layer.input_tile_bytes(model.batch, m, t) / n_c;
        let gather_factor = if one_d { m as f64 / t as f64 } else { 1.0 };
        // dY is ReLU-masked (sparse): zero-skip applies to its scatter.
        let scatter_v = dy_bytes as f64 * (1.0 - s_scatter);
        let gather_v = dx_bytes as f64 * gather_factor;
        let ph_s = tile_transfer_phase(&cluster, &model.noc, scatter_v as u64, cfg.n_g);
        let ph_g = tile_transfer_phase(&cluster, &model.noc, gather_v as u64, cfg.n_g);
        detail.bwd_comm = vec![
            CommPhase {
                class: TrafficClass::TileScatter,
                cycles: ph_s.cycles,
                payload_bytes: scatter_v as u64,
            },
            CommPhase {
                class: TrafficClass::TileGather,
                cycles: ph_g.cycles,
                payload_bytes: gather_v as u64,
            },
        ];
        detail.tile_bytes_saved_scatter += (dy_bytes as f64 * s_scatter) as u64;
        ph_s.cycles + ph_g.cycles
    } else {
        0.0
    };

    // Weight collective. MPT updates Winograd-domain weights, so each
    // group ring reduces |W|/N_g; the w_dp baseline updates *spatial*
    // weights (Table IV: "update w"), transforming Gᵀ∂W G locally before
    // the collective, so it moves only |w|.
    let coll_msg = if sys.uses_mpt() {
        layer.winograd_weight_bytes(t) / n_g
    } else {
        layer.spatial_weight_bytes()
    };
    let collective = weight_collective(model, sys, cfg, coll_msg);
    // Reduce-block adds for the incoming gradient chunks.
    bwd_cost.vector_ops += (coll_msg / 4) * 2;

    detail.fwd_stages = vec![
        ("tf_in", tf_in.cycles as f64),
        ("gemm_f", g_f.cycles as f64),
        ("tf_out", tf_out.cycles as f64),
        ("relu", relu.cycles as f64),
    ];
    detail.bwd_stages = vec![
        ("tf_dy", tf_dy.cycles as f64),
        ("gemm_b", g_b.cycles as f64),
        ("tf_dx", tf_dx.cycles as f64),
        ("relu_b", relu_b.cycles as f64),
        ("gemm_u", g_u.cycles as f64),
        ("upd", upd.cycles as f64),
    ];
    detail.fwd_cost = fwd_cost;
    detail.bwd_cost = bwd_cost;

    assemble(
        model,
        layer,
        sys,
        cfg,
        Some((m, t)),
        fwd_comm,
        bwd_tile_comm,
        collective,
        detail,
    )
}

/// Combines the local costs of `detail` and the communication into
/// phase results with compute/communication overlap and link energy.
#[allow(clippy::too_many_arguments)]
fn assemble(
    model: &SystemModel,
    layer: &ConvLayerSpec,
    sys: SystemConfig,
    cfg: ClusterConfig,
    transform: Option<(usize, usize)>,
    fwd_comm: f64,
    bwd_tile_comm: f64,
    collective: CollectiveParams,
    detail: ExecDetail,
) -> LayerResult {
    let bwd_comm = bwd_tile_comm + collective.cycles;
    let worker = wmpt_ndp::NdpWorker::new(model.ndp);
    let p = model.workers as f64;
    let fwd_compute = detail.fwd_cost.pipelined_cycles(&model.ndp) as f64;
    let bwd_compute = detail.bwd_cost.pipelined_cycles(&model.ndp) as f64;

    let fwd_cycles = fwd_compute.max(fwd_comm);
    let mut fwd_energy = worker.energy(&detail.fwd_cost, &model.energy).scale(p);
    fwd_energy.link_j = model
        .energy
        .link_energy_j(model.enabled_link_bw_fwd(sys, cfg) * p, fwd_cycles);

    let bwd_cycles = bwd_compute.max(bwd_comm);
    let mut bwd_energy = worker.energy(&detail.bwd_cost, &model.energy).scale(p);
    bwd_energy.link_j = model
        .energy
        .link_energy_j(model.enabled_link_bw_bwd(sys, cfg) * p, bwd_cycles);

    LayerResult {
        layer: layer.name.clone(),
        cluster: cfg,
        transform,
        collective,
        tile_comm_cycles: fwd_comm + bwd_tile_comm,
        forward: PhaseResult {
            cycles: fwd_cycles,
            compute_cycles: fwd_compute,
            comm_cycles: fwd_comm,
            energy: fwd_energy,
        },
        backward: PhaseResult {
            cycles: bwd_cycles,
            compute_cycles: bwd_compute,
            comm_cycles: bwd_comm,
            energy: bwd_energy,
        },
        detail,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmpt_models::table2_layers;

    fn model() -> SystemModel {
        SystemModel::paper()
    }

    fn layer(idx: usize) -> ConvLayerSpec {
        table2_layers().remove(idx)
    }

    #[test]
    fn winograd_dp_beats_direct_dp_on_compute() {
        // Mid and Late layers are compute-bound, so Winograd's MAC
        // reduction shows directly. The Early layer is DRAM-bound under
        // Winograd (Fig 1's 4.4x data-access increase), so it is only
        // required not to get much worse.
        // The Mid layers have enough tiles per worker to keep the array
        // busy AND are compute-bound: Winograd's MAC cut shows directly.
        let m = model();
        for idx in [1usize, 2] {
            let l = layer(idx);
            let d = simulate_layer(&m, &l, SystemConfig::DDp);
            let w = simulate_layer(&m, &l, SystemConfig::WDp);
            assert!(
                w.forward.compute_cycles < d.forward.compute_cycles,
                "{}: wino fwd {} vs direct {}",
                l.name,
                w.forward.compute_cycles,
                d.forward.compute_cycles
            );
        }
        // Early (DRAM-bound under Winograd, Fig 1) and Late (systolic
        // starvation at one image per worker) may break even but must not
        // regress badly; and the backward pass with its collective always
        // favours the smaller spatial weights of w_dp at worst mildly.
        for idx in [0usize, 3, 4] {
            let l = layer(idx);
            let d = simulate_layer(&m, &l, SystemConfig::DDp);
            let w = simulate_layer(&m, &l, SystemConfig::WDp);
            assert!(
                w.forward.compute_cycles < 4.5 * d.forward.compute_cycles,
                "{}: wino fwd {} vs direct {}",
                l.name,
                w.forward.compute_cycles,
                d.forward.compute_cycles
            );
        }
    }

    #[test]
    fn late_layers_prefer_mpt() {
        // Fig 15: Late layers gain the most from MPT because the weight
        // collective dominates data-parallel training.
        let m = model();
        let late = layer(4);
        let dp = simulate_layer(&m, &late, SystemConfig::WDp);
        let mp = simulate_layer(&m, &late, SystemConfig::WMpP);
        assert!(
            mp.total_cycles() < dp.total_cycles(),
            "mp {} vs dp {}",
            mp.total_cycles(),
            dp.total_cycles()
        );
    }

    #[test]
    fn early_layers_hurt_under_plain_mpt() {
        // Fig 15: the Early layer is slower under fixed (16,16) MPT than
        // under data parallelism (massive tile transfer).
        let m = model();
        let early = layer(0);
        let dp = simulate_layer(&m, &early, SystemConfig::WDp);
        let mp = simulate_layer(&m, &early, SystemConfig::WMp);
        assert!(
            mp.total_cycles() > dp.total_cycles(),
            "mp {} vs dp {}",
            mp.total_cycles(),
            dp.total_cycles()
        );
    }

    #[test]
    fn dynamic_clustering_rescues_early_layers() {
        let m = model();
        let early = layer(0);
        let mp = simulate_layer(&m, &early, SystemConfig::WMp);
        let mpd = simulate_layer(&m, &early, SystemConfig::WMpD);
        assert!(mpd.total_cycles() <= mp.total_cycles());
        // Dynamic clustering should fall back to (1, 256) for the Early
        // layer (§VII-B).
        assert_eq!(mpd.cluster, ClusterConfig::new(1, 256));
    }

    #[test]
    fn prediction_reduces_mpt_time_or_keeps_it() {
        let m = model();
        for idx in [2usize, 3, 4] {
            let l = layer(idx);
            let mp = simulate_layer(&m, &l, SystemConfig::WMp);
            let mpp = simulate_layer(&m, &l, SystemConfig::WMpP);
            assert!(
                mpp.total_cycles() <= mp.total_cycles() * 1.001,
                "{}: {} vs {}",
                l.name,
                mpp.total_cycles(),
                mp.total_cycles()
            );
        }
    }

    #[test]
    fn full_proposal_beats_baseline_overall() {
        // Fig 15 headline: w_mp++ is ~2-3x faster than w_dp on average.
        let m = model();
        let mut dp_total = 0.0;
        let mut full_total = 0.0;
        for l in table2_layers() {
            dp_total += simulate_layer(&m, &l, SystemConfig::WDp).total_cycles();
            full_total += simulate_layer(&m, &l, SystemConfig::WMpPD).total_cycles();
        }
        let speedup = dp_total / full_total;
        assert!(speedup > 1.3, "overall speedup {speedup}");
    }

    #[test]
    fn mpt_reduces_per_worker_weight_dram_traffic() {
        // The paper's DRAM-energy argument: MPT partitions weights, DP
        // duplicates them.
        let m = model();
        let late = layer(4);
        let dp = simulate_layer(&m, &late, SystemConfig::WDp);
        let mp = simulate_layer(&m, &late, SystemConfig::WMp);
        assert!(mp.total_energy().dram_j < dp.total_energy().dram_j);
    }

    #[test]
    fn single_worker_has_no_communication() {
        let m = SystemModel::single_worker();
        let l = layer(2);
        let r = simulate_layer(&m, &l, SystemConfig::WDp);
        assert_eq!(r.forward.comm_cycles, 0.0);
        assert_eq!(r.backward.comm_cycles, 0.0);
    }

    #[test]
    fn comm_breakdown_sums_consistently() {
        let m = model();
        let r = simulate_layer(&m, &layer(4), SystemConfig::WMp);
        assert!(r.collective.cycles > 0.0);
        assert!(r.tile_comm_cycles > 0.0);
        // fwd comm is pure tile transfer; bwd comm = tiles + collective.
        let total_comm = r.forward.comm_cycles + r.backward.comm_cycles;
        wmpt_check::assert_approx_eq!(
            r.collective.cycles + r.tile_comm_cycles,
            total_comm,
            wmpt_check::Tol::F32_TIGHT
        );
        // Data parallelism has no tile component at all.
        let dp = simulate_layer(&m, &layer(4), SystemConfig::WDp);
        assert_eq!(dp.tile_comm_cycles, 0.0);
        assert!(dp.collective.cycles > 0.0);
    }

    #[test]
    fn energy_components_all_positive() {
        let m = model();
        let r = simulate_layer(&m, &layer(2), SystemConfig::WMpPD);
        let e = r.total_energy();
        assert!(e.compute_j > 0.0 && e.sram_j > 0.0 && e.dram_j > 0.0 && e.link_j > 0.0);
    }
}
