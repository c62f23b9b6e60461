//! Functional MPT trainer: the *numerics* of multi-dimensional parallel
//! training, executed with the actual partitioning of batch (across
//! clusters) and tile elements (across groups), and verified against
//! centralized single-worker training.
//!
//! This ties the architecture model to real math: intra-tile parallelism
//! is only exploitable because the element-wise GEMMs are independent
//! (§III-A), the per-group weight-gradient reduction is only sufficient
//! because gradients never cross element boundaries (§III-B), activation
//! prediction must not change any output (§V), and the modified join must
//! equal the spatial join (Fig 14). Each of those claims is a test here.

use wmpt_noc::ClusterConfig;
use wmpt_par::ParPool;
use wmpt_predict::{predict_tensor, ActivationPredictor, PredictMode};
use wmpt_tensor::{Shape4, Tensor4};
use wmpt_winograd::{
    elementwise_gemm_wgrad_par, from_winograd_output_par, output_grad_to_winograd_par, relu,
    to_winograd_input_par, WgTensor, WgWeights, WinogradLayer,
};

/// Returns the group that owns tile element `e` under `n_g` groups
/// (contiguous block partition; with `F(2×2,3×3)` and 16 groups each
/// group owns exactly one element, with 4 groups each owns one line).
pub fn elem_owner(e: usize, t2: usize, n_g: usize) -> usize {
    assert!(e < t2, "element {e} out of range for T²={t2}");
    let per = t2.div_ceil(n_g);
    (e / per).min(n_g - 1)
}

/// The group-ring-reduced Winograd-domain weight gradient, computed with
/// the MPT partitioning: worker `(g, c)` contributes its batch chunk's
/// partial gradient for its group's elements; sums run within groups
/// only.
///
/// `x` and `dy` are transformed once, on the whole batch. Cluster `c`'s
/// tiles are one contiguous row range of every element matrix, so each
/// worker reads its share of the shared Winograd-domain operands in
/// place. [`elementwise_gemm_wgrad_par`] then fans out over the `T²`
/// elements; each element's `N_c` cluster GEMMs are summed in ascending
/// `c`, the order in which the owning group's ring reduction visits its
/// clusters. An element belongs to exactly one group, so no sum ever
/// crosses a group, and the result is the same for any `N_g` and any
/// job count.
///
/// # Panics
///
/// Panics if the batch is not divisible by `N_c`.
pub fn reduced_gradient_distributed_par(
    pool: &ParPool,
    layer: &WinogradLayer,
    cfg: ClusterConfig,
    x: &Tensor4,
    dy: &Tensor4,
) -> WgWeights {
    let n = x.shape().n;
    assert_eq!(
        n % cfg.n_c,
        0,
        "batch {n} must divide across {} clusters",
        cfg.n_c
    );
    let tf = layer.transform();
    let wx = to_winograd_input_par(pool, x, tf);
    let wdy = output_grad_to_winograd_par(pool, dy, tf);
    elementwise_gemm_wgrad_par(pool, &wx, &wdy, cfg.n_c)
}

/// Distributed `updateGrad` + SGD step: worker `(g, c)` produces the
/// partial Winograd-domain weight gradient for its elements from its
/// batch chunk; gradients are ring-reduced *within each group* (across
/// the `N_c` clusters) — never across groups — and applied (gradient via
/// [`reduced_gradient_distributed_par`]; the same bits for any job count).
///
/// Bit-exact across `N_g`: how the elements split into groups changes no
/// bit, and at `N_c = 1` the step equals the centralized
/// `layer.update_grad_par(pool, x, dy); layer.apply_grad(...)` bit for
/// bit. Across `N_c` it is not: each element's gradient becomes a sum of
/// `N_c` per-cluster f32 results instead of one f64 sum rounded once,
/// so results agree to f32 rounding only.
///
/// # Panics
///
/// Panics if the batch is not divisible by `N_c`.
pub fn train_step_distributed_par(
    pool: &ParPool,
    layer: &mut WinogradLayer,
    cfg: ClusterConfig,
    x: &Tensor4,
    dy: &Tensor4,
    lr: f32,
) {
    let total = reduced_gradient_distributed_par(pool, layer, cfg, x, dy);
    layer.apply_grad(&total, lr);
}

/// The modified join of Fig 14: the (linear) mean of FractalNet branches
/// computed in the Winograd domain, with a single inverse transform —
/// exactly equal to joining after individual inverse transforms.
///
/// # Panics
///
/// Panics if the branches disagree in shape or the list is empty.
pub fn winograd_join(branches: &[&WgTensor]) -> WgTensor {
    assert!(!branches.is_empty(), "join needs at least one branch");
    let first = branches[0];
    let mut out = WgTensor::zeros(first.elems, first.tiles, first.chans);
    for b in branches {
        assert_eq!(
            (b.elems, b.tiles, b.chans),
            (first.elems, first.tiles, first.chans),
            "join branches must agree in shape"
        );
        for (o, v) in out.data.iter_mut().zip(&b.data) {
            *o += v;
        }
    }
    let scale = 1.0 / branches.len() as f32;
    for o in &mut out.data {
        *o *= scale;
    }
    out
}

/// Gathers, inverse-transforms and ReLUs a Winograd-domain output with
/// activation prediction applied: tiles predicted dead are *not gathered*
/// and their neurons are set to zero directly. Because the predictor is
/// conservative, the result equals the unpredicted path exactly.
pub fn gather_with_prediction(
    y: &WgTensor,
    predictor: &ActivationPredictor,
    mode: PredictMode,
    out_shape: Shape4,
) -> (Tensor4, u64) {
    let tf = predictor.transform();
    let full = from_winograd_output_par(&ParPool::serial(), y, tf, out_shape);
    let mut out = relu(&full);
    let dead = predict_tensor(y, predictor, mode).dead_tiles;
    let tl = wmpt_winograd::Tiling::new(tf, out_shape.h, out_shape.w);
    let tpi = tl.tiles_per_image();
    let m = tf.m();
    let mut skipped_bytes = 0u64;
    for (at, _) in dead.iter().enumerate().filter(|(_, d)| **d) {
        let (tile, j) = (at / y.chans, at % y.chans);
        let (b, ty, tx) = (tile / tpi, tile % tpi / tl.tiles_w, tile % tl.tiles_w);
        skipped_bytes += (y.elems * 4) as u64;
        // The destination writes zeros without receiving the tile;
        // assert-equivalent because prediction is conservative (every
        // neuron was <= 0).
        for oy in ty * m..((ty + 1) * m).min(out_shape.h) {
            for ox in tx * m..((tx + 1) * m).min(out_shape.w) {
                out[(b, j, oy, ox)] = 0.0;
            }
        }
    }
    (out, skipped_bytes)
}

/// Picks the training grid for a degraded worker pool: like
/// [`wmpt_noc::degraded_configs`], `N_g` ranges over the paper's
/// supported powers of 4 up to `T²`, but `N_c` additionally respects the
/// functional trainer's divisibility constraint (`batch % N_c == 0`) by
/// shrinking to the largest batch divisor that fits the survivors.
/// Picks the candidate keeping the most workers busy; ties go to more
/// groups (smaller collectives). `None` only when no worker survives.
pub fn degraded_grid(alive: usize, t2: usize, batch: usize) -> Option<ClusterConfig> {
    let mut best: Option<ClusterConfig> = None;
    let mut n_g = 1;
    while n_g <= t2 {
        if n_g <= alive && batch >= 1 {
            let cap = (alive / n_g).min(batch);
            if let Some(n_c) = (1..=cap).filter(|c| batch.is_multiple_of(*c)).max() {
                let cand = ClusterConfig::new(n_g, n_c);
                if best.is_none_or(|b| (cand.workers(), cand.n_g) > (b.workers(), b.n_g)) {
                    best = Some(cand);
                }
            }
        }
        n_g *= 4;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmpt_predict::QuantizerConfig;
    use wmpt_tensor::ops::gemm_f32_par;
    use wmpt_tensor::DataGen;
    use wmpt_winograd::{elementwise_gemm_par, WinogradTransform};

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn degraded_grid_respects_batch_divisibility() {
        // Full 256-worker grid, batch 256: the (16,16) organization wins.
        assert_eq!(
            degraded_grid(256, 16, 256),
            Some(ClusterConfig::new(16, 16))
        );
        // One worker dead: (16, 15) oversubscribes nothing but 15 does
        // not divide 256, so N_c shrinks to the largest divisor <= 15.
        let g = degraded_grid(255, 16, 256).expect("grid exists");
        assert_eq!(g, ClusterConfig::new(16, 8));
        assert!(256 % g.n_c == 0 && g.workers() <= 255);
        // Tiny survivor pool: falls back to data parallelism.
        assert_eq!(degraded_grid(3, 16, 8), Some(ClusterConfig::new(1, 2)));
        // No survivors: no grid.
        assert_eq!(degraded_grid(0, 16, 8), None);
    }

    fn setup(seed: u64, batch: usize) -> (WinogradLayer, Tensor4, Tensor4) {
        let mut g = DataGen::new(seed);
        let w = g.he_weights(Shape4::new(4, 3, 3, 3));
        let layer = WinogradLayer::from_spatial(WinogradTransform::f2x2_3x3(), &w);
        let x = g.normal_tensor(Shape4::new(batch, 3, 6, 6), 0.0, 1.0);
        let dy = g.normal_tensor(Shape4::new(batch, 4, 6, 6), 0.0, 1.0);
        (layer, x, dy)
    }

    #[test]
    fn elem_owner_partitions_completely() {
        for n_g in [1usize, 2, 4, 8, 16] {
            let mut counts = vec![0usize; n_g];
            for e in 0..16 {
                counts[elem_owner(e, 16, n_g)] += 1;
            }
            assert_eq!(counts.iter().sum::<usize>(), 16);
            assert!(counts.iter().all(|&c| c == 16 / n_g));
        }
    }

    #[test]
    fn forward_partition_blocks_match_worker_gemms() {
        // MPT's forward is the centralized `fprop_par`: worker (g, c)'s
        // share of it (its cluster's tile rows x its group's elements) is
        // one block of the batched forward GEMM over the shared
        // transformed input, and equals the worker's own GEMM bit for bit.
        let (layer, x, _) = setup(1, 8);
        let serial = ParPool::serial();
        let tf = layer.transform();
        let w = layer.weights();
        let s = x.shape();
        let wx = to_winograd_input_par(&serial, &x, tf);
        let (t2, i_ch, j_ch) = (wx.elems, s.c, w.out_chans);
        for jobs in [1usize, 2, 7] {
            let wy = elementwise_gemm_par(&ParPool::new(jobs), &wx, w);
            for cfg in [
                ClusterConfig::new(16, 1),
                ClusterConfig::new(4, 2),
                ClusterConfig::new(1, 8),
                ClusterConfig::new(8, 4),
            ] {
                let chunk = s.n / cfg.n_c;
                let rows = wx.tiles / cfg.n_c;
                let img = i_ch * s.h * s.w;
                for c in 0..cfg.n_c {
                    // The worker's own transform of its images is its row
                    // range of the shared one.
                    let xc = Tensor4::from_vec(
                        Shape4::new(chunk, i_ch, s.h, s.w),
                        x.as_slice()[c * chunk * img..(c + 1) * chunk * img].to_vec(),
                    );
                    let wxc = to_winograd_input_par(&serial, &xc, tf);
                    for g in 0..cfg.n_g {
                        for e in (0..t2).filter(|e| elem_owner(*e, t2, cfg.n_g) == g) {
                            let xin = &wx.elem_matrix(e)[c * rows * i_ch..(c + 1) * rows * i_ch];
                            assert_eq!(bits(wxc.elem_matrix(e)), bits(xin), "{cfg} input c={c}");
                            let mut own = vec![0.0f32; rows * j_ch];
                            gemm_f32_par(
                                &serial,
                                xin,
                                rows,
                                i_ch,
                                w.elem_matrix(e),
                                j_ch,
                                &mut own,
                                false,
                                false,
                            );
                            let block = &wy.elem_matrix(e)[c * rows * j_ch..(c + 1) * rows * j_ch];
                            assert_eq!(
                                bits(&own),
                                bits(block),
                                "{cfg} worker ({g}, {c}) element {e} jobs={jobs}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn distributed_train_step_matches_centralized() {
        let (layer, x, dy) = setup(2, 8);
        let pool = ParPool::serial();
        let mut central = layer.clone();
        let grad = central.update_grad_par(&pool, &x, &dy);
        central.apply_grad(&grad, 0.01);
        let step = |cfg| {
            let mut dist = layer.clone();
            train_step_distributed_par(&pool, &mut dist, cfg, &x, &dy, 0.01);
            dist.weights().data.clone()
        };

        // One cluster: the centralized step, bit for bit.
        assert_eq!(
            bits(&step(ClusterConfig::new(16, 1))),
            bits(&central.weights().data)
        );
        // Bit-exact across N_g at a fixed N_c ...
        let two = bits(&step(ClusterConfig::new(1, 2)));
        for n_g in [4, 16] {
            assert_eq!(two, bits(&step(ClusterConfig::new(n_g, 2))), "N_g={n_g}");
        }
        // ... and within per-cluster f32 rounding across N_c.
        for cfg in [ClusterConfig::new(4, 2), ClusterConfig::new(1, 4)] {
            wmpt_check::assert_slices_approx_eq!(
                &step(cfg),
                &central.weights().data,
                wmpt_check::Tol::CLUSTER_SUM_F32,
                "{cfg}"
            );
        }
    }

    #[test]
    fn several_distributed_steps_track_centralized_training() {
        let (layer, x, _) = setup(3, 4);
        let mut g = DataGen::new(99);
        let target = g.normal_tensor(Shape4::new(4, 4, 6, 6), 0.0, 1.0);
        let mut central = layer.clone();
        let mut dist = layer;
        let cfg = ClusterConfig::new(4, 2);
        let pool = ParPool::serial();
        // Small, stable learning rate: the comparison is about the
        // *partitioning*, not about SGD dynamics amplifying FP noise.
        let lr = 0.002;
        for _ in 0..4 {
            let yc = central.fprop_par(&pool, &x);
            let mut dyc = yc.clone();
            for (d, t) in dyc.as_mut_slice().iter_mut().zip(target.as_slice()) {
                *d -= t;
            }
            let grad = central.update_grad_par(&pool, &x, &dyc);
            central.apply_grad(&grad, lr);

            let yd = dist.fprop_par(&pool, &x);
            let mut dyd = yd.clone();
            for (d, t) in dyd.as_mut_slice().iter_mut().zip(target.as_slice()) {
                *d -= t;
            }
            train_step_distributed_par(&pool, &mut dist, cfg, &x, &dyd, lr);
        }
        let scale = central
            .weights()
            .data
            .iter()
            .fold(0.0f32, |a, v| a.max(v.abs()))
            .max(1.0);
        let diff: f32 = dist
            .weights()
            .data
            .iter()
            .zip(&central.weights().data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max);
        assert!(
            diff / scale < 1e-2,
            "training trajectories diverged: {diff} (scale {scale})"
        );
    }

    #[test]
    fn winograd_join_equals_spatial_join() {
        // Fig 14: joining (mean) in the Winograd domain then inverse-
        // transforming once == inverse-transforming each branch and
        // joining spatially.
        let tf = WinogradTransform::f2x2_3x3();
        let mut g = DataGen::new(4);
        let shape = Shape4::new(2, 3, 6, 6);
        let a_sp = g.normal_tensor(shape, 0.0, 1.0);
        let b_sp = g.normal_tensor(shape, 0.0, 1.0);
        // Build Winograd-domain branches via the adjoint map.
        let pool = ParPool::serial();
        let a = output_grad_to_winograd_par(&pool, &a_sp, &tf);
        let b = output_grad_to_winograd_par(&pool, &b_sp, &tf);
        let joined = winograd_join(&[&a, &b]);
        let spatial_of = |w: &WgTensor| from_winograd_output_par(&pool, w, &tf, shape);
        let mut expect = spatial_of(&a);
        expect.add_assign(&spatial_of(&b));
        expect.scale(0.5);
        let got = spatial_of(&joined);
        assert!(got.max_abs_diff(&expect) < 1e-4);
    }

    #[test]
    fn prediction_gather_is_lossless_and_saves_traffic() {
        let tf = WinogradTransform::f2x2_3x3();
        let mut g = DataGen::new(5);
        let shape = Shape4::new(4, 8, 8, 8);
        // Bias neurons negative so many tiles are dead.
        let y_sp = g.normal_tensor(shape, -1.0, 1.0);
        let pool = ParPool::serial();
        let y = output_grad_to_winograd_par(&pool, &y_sp, &tf);
        let sigma = wmpt_predict::sigma_of(&y.data);
        let predictor = ActivationPredictor::new(tf.clone(), QuantizerConfig::new(64, 4), sigma);
        let (with_pred, skipped) = gather_with_prediction(&y, &predictor, PredictMode::TwoD, shape);
        let full = relu(&from_winograd_output_par(&pool, &y, &tf, shape));
        assert_eq!(
            with_pred.max_abs_diff(&full),
            0.0,
            "prediction changed an output"
        );
        assert!(skipped > 0, "no traffic was saved");
    }
}
