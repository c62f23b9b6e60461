//! `train_mpt`: repeated MPT-distributed training steps of a multi-stage
//! F(2×2, 3×3) Winograd net on the host thread pool, plus the per-layer
//! probes of the trainer stack on the step's own shapes.

use std::hint::black_box as keep;
use std::sync::Mutex;

use wmpt_core::{reduced_gradient_distributed_par, WinogradNet};
use wmpt_noc::ClusterConfig;
use wmpt_par::ParPool;
use wmpt_tensor::{gemm_f32_par, DataGen, Shape4, Tensor4};
use wmpt_winograd::{
    elementwise_gemm_bprop_par, elementwise_gemm_par, from_winograd_output_par,
    input_grad_to_spatial_par, output_grad_to_winograd_par, to_winograd_input_par,
};

use crate::drive::{closed_loop, Phase};
use crate::spans::SpanLog;
use crate::stats::median;
use crate::{host, Metrics, Rig};

/// Input channels, image side, batch, stage widths.
const IN_CHANS: usize = 8;
const SIDE: usize = 16;
const BATCH: usize = 8;
const WIDTHS: [usize; 2] = [16, 32];
/// The MPT grid: `N_g` element groups × `N_c` clusters, both > 1.
const GRID: (usize, usize) = (4, 2);
/// Small enough that the loss falls steadily and no ReLU layer dies.
const LR: f32 = 0.001;
/// Steps per epoch: the net restarts from its initial weights every
/// `EPOCH` steps, so every step has a reference loss.
pub const EPOCH: usize = 8;
/// Repetitions of each per-layer probe (median reported).
const REPS: usize = 5;

fn grid() -> ClusterConfig {
    ClusterConfig::new(GRID.0, GRID.1)
}

/// The seeded batch: two classes, shifted means, targets ±1.
fn batch(seed: u64) -> (Tensor4, Vec<f32>) {
    let mut g = DataGen::new(seed ^ 0xba7c);
    let mut x = g.normal_tensor(Shape4::new(BATCH, IN_CHANS, SIDE, SIDE), 0.0, 1.0);
    let targets: Vec<f32> = (0..BATCH)
        .map(|b| if b % 2 == 0 { 1.0 } else { -1.0 })
        .collect();
    for (b, t) in targets.iter().enumerate() {
        for c in 0..IN_CHANS {
            for h in 0..SIDE {
                for w in 0..SIDE {
                    x[(b, c, h, w)] += 0.3 * t;
                }
            }
        }
    }
    (x, targets)
}

pub struct TrainRig {
    net0: WinogradNet,
    net: Mutex<WinogradNet>,
    x: Tensor4,
    targets: Vec<f32>,
    /// Losses of one epoch replayed on one thread at set-up.
    reference: Vec<f64>,
    pool: ParPool,
    cursor: usize,
}

impl TrainRig {
    pub fn setup(seed: u64) -> Result<TrainRig, String> {
        let (x, targets) = batch(seed);
        let net0 = WinogradNet::new(seed ^ 0x7e1, IN_CHANS, &WIDTHS, true);
        let serial = ParPool::serial();
        let mut net = net0.clone();
        let reference: Vec<f64> = (0..EPOCH)
            .map(|_| net.train_step_with(&x, &targets, LR, Some(grid()), &serial))
            .collect();
        if !reference.iter().all(|l| l.is_finite()) || reference[EPOCH - 1] >= reference[0] {
            return Err(format!("reference epoch does not converge: {reference:?}"));
        }
        let rig = TrainRig {
            net: Mutex::new(net0.clone()),
            net0,
            x,
            targets,
            reference,
            pool: ParPool::new(host::nproc()),
            cursor: 0,
        };
        // Warm-up: one pooled step on a scratch copy.
        let warm =
            rig.net0
                .clone()
                .train_step_with(&rig.x, &rig.targets, LR, Some(grid()), &rig.pool);
        if warm.to_bits() != rig.reference[0].to_bits() {
            return Err(format!(
                "pooled loss {warm} != one-thread loss {}",
                rig.reference[0]
            ));
        }
        Ok(rig)
    }

    fn op(&self, j: usize) -> Result<(), String> {
        let mut net = self.net.lock().expect("net lock");
        let step = j % EPOCH;
        if step == 0 {
            net.clone_from(&self.net0);
        }
        let loss = net.train_step_with(&self.x, &self.targets, LR, Some(grid()), &self.pool);
        let want = self.reference[step];
        if loss.to_bits() == want.to_bits() && loss.is_finite() {
            Ok(())
        } else {
            Err(format!("step {j}: loss {loss} != one-thread replay {want}"))
        }
    }
}

impl Rig for TrainRig {
    fn phase(&mut self, seconds: f64, max_ops: usize, spans: Option<&SpanLog>) -> Phase {
        let base = self.cursor;
        let phase = closed_loop(1, seconds, max_ops, |client, i| match spans {
            Some(log) => log.time(&format!("client{client}"), "trainer", "step", || {
                self.op(base + i)
            }),
            None => self.op(base + i),
        });
        self.cursor += phase.attempted;
        phase
    }

    fn finish(
        self: Box<Self>,
        _phase: &mut Phase,
        info: &mut Vec<(String, String)>,
        _layer: Option<(&mut Metrics, &SpanLog)>,
    ) {
        info.push((
            "epoch_loss".into(),
            format!(
                "{:.6} -> {:.6} over {EPOCH} steps, bit-equal to the one-thread replay",
                self.reference[0],
                self.reference[EPOCH - 1]
            ),
        ));
    }
}

/// Median wall-clock (ms) of `REPS` runs of `f`, each recorded as a span.
fn timed(spans: &SpanLog, cat: &'static str, name: &str, mut f: impl FnMut()) -> f64 {
    for _ in 0..REPS {
        spans.time("probe", cat, name, &mut f);
    }
    let d = spans.durations_ms(cat, name);
    median(&d[d.len() - REPS..])
}

/// Trainer-stack metrics, measured through the pool-taking calls on the
/// shapes of one `train_mpt` step.
pub fn layer_metrics(seed: u64, spans: &SpanLog, m: &mut Metrics) -> Result<(), String> {
    let (x, targets) = batch(seed);
    let net0 = WinogradNet::new(seed ^ 0x7e1, IN_CHANS, &WIDTHS, true);
    let jobs = host::nproc();
    let pool = ParPool::new(jobs);
    let serial = ParPool::serial();
    let step = |pool: &ParPool, g: Option<ClusterConfig>, name: &str| {
        let mut net = net0.clone();
        timed(spans, "trainer", name, || {
            keep(net.train_step_with(&x, &targets, LR, g, pool));
        })
    };
    let step_ms = step(&pool, Some(grid()), "step_pool");
    let grid_serial = step(&serial, Some(grid()), "step_grid_serial");
    let central_serial = step(&serial, None, "step_central_serial");
    m.put("trainer.step_ms", step_ms, "ms");
    m.put("trainer.mpt_overhead_x", grid_serial / central_serial, "x");
    m.put(
        "par.efficiency",
        grid_serial / (step_ms * jobs as f64),
        "frac",
    );

    // Each stage's input and output-gradient shapes; the values are
    // seeded noise (the kernels' cost does not depend on them).
    let mut g = DataGen::new(seed ^ 0x5ad);
    let (mut side, mut chans) = (SIDE, IN_CHANS);
    let mut sums = [0.0f64; 10];
    let (mut flops, mut gemm_ms) = (0.0, 0.0);
    for (k, st) in net0.stages().iter().enumerate() {
        let conv = &st.conv;
        let tf = conv.transform();
        let out_chans = conv.weights().out_chans;
        let xin = g.normal_tensor(Shape4::new(BATCH, chans, side, side), 0.0, 1.0);
        let dy = g.normal_tensor(Shape4::new(BATCH, out_chans, side, side), 0.0, 1.0);
        let wx = to_winograd_input_par(&pool, &xin, tf);
        let wy = elementwise_gemm_par(&pool, &wx, conv.weights());
        let wdy = output_grad_to_winograd_par(&pool, &dy, tf);
        let wdx = elementwise_gemm_bprop_par(&pool, &wdy, conv.weights());
        let name = |what: &str| format!("{what}.stage{k}");
        let probes: [(&'static str, String, &mut dyn FnMut()); 10] = [
            ("winograd", name("fprop"), &mut || {
                keep(conv.fprop_par(&pool, &xin));
            }),
            ("winograd", name("bprop"), &mut || {
                keep(conv.bprop_par(&pool, &dy));
            }),
            ("winograd", name("wgrad"), &mut || {
                keep(conv.update_grad_par(&pool, &xin, &dy));
            }),
            ("trainer", name("mpt_wgrad"), &mut || {
                keep(reduced_gradient_distributed_par(
                    &pool,
                    conv,
                    grid(),
                    &xin,
                    &dy,
                ));
            }),
            ("winograd", name("tf_in"), &mut || {
                keep(to_winograd_input_par(&pool, &xin, tf));
            }),
            ("winograd", name("tf_out"), &mut || {
                keep(from_winograd_output_par(&pool, &wy, tf, dy.shape()));
            }),
            ("winograd", name("tf_dy"), &mut || {
                keep(output_grad_to_winograd_par(&pool, &dy, tf));
            }),
            ("winograd", name("tf_dx"), &mut || {
                keep(input_grad_to_spatial_par(&pool, &wdx, tf, xin.shape()));
            }),
            ("tensor", name("gemm"), &mut || {
                // The element-wise GEMMs of one forward pass.
                let mut out = vec![0.0f32; wx.tiles * out_chans];
                for e in 0..wx.elems {
                    gemm_f32_par(
                        &pool,
                        wx.elem_matrix(e),
                        wx.tiles,
                        wx.chans,
                        conv.weights().elem_matrix(e),
                        out_chans,
                        &mut out,
                        false,
                        false,
                    );
                }
                keep(&out);
            }),
            ("par", name("dispatch"), &mut || {
                for _ in 0..100 {
                    keep(pool.map_indexed(jobs, |i| i));
                }
            }),
        ];
        for (i, (cat, n, f)) in probes.into_iter().enumerate() {
            sums[i] += timed(spans, cat, &n, f);
        }
        flops += (2 * wx.elems * wx.tiles * wx.chans * out_chans) as f64;
        gemm_ms = sums[8];
        side /= 2;
        chans = out_chans;
    }
    for (i, metric) in [
        "winograd.fprop_ms",
        "winograd.bprop_ms",
        "winograd.wgrad_ms",
        "trainer.mpt_wgrad_ms",
        "winograd.tf_in_ms",
        "winograd.tf_out_ms",
        "winograd.tf_dy_ms",
        "winograd.tf_dx_ms",
    ]
    .into_iter()
    .enumerate()
    {
        m.put(metric, sums[i], "ms");
    }
    let gflops = flops / (gemm_ms * 1e6);
    m.put("tensor.gemm_ms", gemm_ms, "ms");
    m.put("tensor.gemm_flops", flops, "count");
    m.put("tensor.gemm_gflops", gflops, "GFLOP/s");
    let peak = spans.time(
        "probe",
        "tensor",
        "measured_peak",
        wmpt_bench::kernels::measured_peak_gflops,
    );
    m.put("tensor.gemm_frac_peak", gflops / peak, "frac");
    // 100 dispatches per probe, two stages: µs per dispatch.
    m.put(
        "par.dispatch_us",
        sums[9] / (100.0 * WIDTHS.len() as f64) * 1e3,
        "us",
    );
    Ok(())
}
