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
use wmpt_predict::{ActivationPredictor, PredictMode};
use wmpt_tensor::ops::gemm_f32_par;
use wmpt_tensor::{Shape4, Tensor4};
use wmpt_winograd::{
    from_winograd_output_par, output_grad_to_winograd_par, relu, to_winograd_input_par, WgTensor,
    WgWeights, WinogradLayer,
};

/// Returns the group that owns tile element `e` under `n_g` groups
/// (contiguous block partition; with `F(2×2,3×3)` and 16 groups each
/// group owns exactly one element, with 4 groups each owns one line).
pub fn elem_owner(e: usize, t2: usize, n_g: usize) -> usize {
    assert!(e < t2, "element {e} out of range for T²={t2}");
    let per = t2.div_ceil(n_g);
    (e / per).min(n_g - 1)
}

/// Extracts a contiguous batch slice `[start, start+len)`.
///
/// # Panics
///
/// Panics if the range exceeds the batch.
pub fn slice_batch(x: &Tensor4, start: usize, len: usize) -> Tensor4 {
    let s = x.shape();
    assert!(start + len <= s.n, "batch slice out of range");
    let mut out = Tensor4::zeros(Shape4::new(len, s.c, s.h, s.w));
    for b in 0..len {
        for c in 0..s.c {
            for h in 0..s.h {
                for w in 0..s.w {
                    out[(b, c, h, w)] = x[(start + b, c, h, w)];
                }
            }
        }
    }
    out
}

/// Computes cluster `c`'s share of the distributed forward pass (its
/// `chunk` images, all `N_g` group workers) into the cluster's contiguous
/// NCHW output region. One cluster is independent of every other — the
/// unit of fan-out of [`fprop_distributed_par`]. A cluster's workers run
/// on the thread that claimed it.
fn fprop_cluster_into(
    layer: &WinogradLayer,
    cfg: ClusterConfig,
    x: &Tensor4,
    c: usize,
    chunk: usize,
    region: &mut [f32],
) {
    let serial = ParPool::serial();
    let tf = layer.transform();
    let s = x.shape();
    let w = layer.weights();
    let t2 = tf.t() * tf.t();
    let xc = slice_batch(x, c * chunk, chunk);
    // Tile scattering: every worker of cluster c receives its group's
    // elements of the transformed input.
    let wx = to_winograd_input_par(&serial, &xc, tf);
    let mut wy = WgTensor::zeros(t2, wx.tiles, w.out_chans);
    for g in 0..cfg.n_g {
        // Worker (g, c): for each element group g owns, one batched GEMM
        // over the cluster's whole tile set (`Y_e = X_e · W_e`). The
        // blocked kernel reduces each output in the same ascending-`i`
        // f64 order as the scalar loop it replaced — bit-identical.
        for e in (0..t2).filter(|e| elem_owner(*e, t2, cfg.n_g) == g) {
            gemm_f32_par(
                &serial,
                wx.elem_matrix(e),
                wx.tiles,
                wx.chans,
                w.elem_matrix(e),
                w.out_chans,
                wy.elem_matrix_mut(e),
                false,
                false,
            );
        }
    }
    // Tile gathering + inverse transform at each tile's home worker.
    let yc = from_winograd_output_par(&serial, &wy, tf, Shape4::new(chunk, w.out_chans, s.h, s.w));
    region.copy_from_slice(yc.as_slice());
}

/// Distributed forward propagation under a worker grid: the batch splits
/// across `N_c` clusters and tile elements across `N_g` groups; worker
/// `(g, c)` computes only the element-GEMMs its group owns, on its
/// cluster's tiles, using only its group's weight shard.
///
/// Numerically identical to the centralized `layer.fprop_par(pool, x)` —
/// the property that makes MPT exact rather than approximate. The `N_c`
/// logical clusters map onto host threads (each cluster's batch chunk is
/// an independent work unit writing a disjoint contiguous output region),
/// so the bits are the same for any job count.
///
/// # Panics
///
/// Panics if the batch is not divisible by `N_c`.
pub fn fprop_distributed_par(
    pool: &ParPool,
    layer: &WinogradLayer,
    cfg: ClusterConfig,
    x: &Tensor4,
) -> Tensor4 {
    let s = x.shape();
    assert_eq!(
        s.n % cfg.n_c,
        0,
        "batch {} must divide across {} clusters",
        s.n,
        cfg.n_c
    );
    let chunk = s.n / cfg.n_c;
    let out_shape = Shape4::new(s.n, layer.weights().out_chans, s.h, s.w);
    let mut out = Tensor4::zeros(out_shape);
    let stride = chunk * out_shape.c * s.h * s.w;
    pool.for_each_chunk_mut(out.as_mut_slice(), stride, |c, region| {
        fprop_cluster_into(layer, cfg, x, c, chunk, region);
    });
    out
}

/// Accumulates worker `(g, c)`'s partial Winograd-domain weight gradient
/// (its batch chunk, its group's elements) into `out`. The independent
/// work unit of the `updateGrad` phase, run on the thread that claimed it.
#[allow(clippy::too_many_arguments)]
fn worker_partial_grad_into(
    layer: &WinogradLayer,
    cfg: ClusterConfig,
    x: &Tensor4,
    dy: &Tensor4,
    g: usize,
    c: usize,
    chunk: usize,
    out: &mut WgWeights,
) {
    let serial = ParPool::serial();
    let tf = layer.transform();
    let t2 = tf.t() * tf.t();
    let (i_ch, j_ch) = (layer.weights().in_chans, layer.weights().out_chans);
    let xc = slice_batch(x, c * chunk, chunk);
    let dyc = slice_batch(dy, c * chunk, chunk);
    let wx = to_winograd_input_par(&serial, &xc, tf);
    let wdy = output_grad_to_winograd_par(&serial, &dyc, tf);
    // Per owned element, one batched GEMM over the chunk's whole tile set
    // (`∇W_e = X_eᵀ · ∂Y_e`) into a scratch matrix, then accumulate. The
    // kernel reduces each entry in the same ascending-`tile` f64 order as
    // the scalar loop it replaced, and `acc as f32` then `+=` matches the
    // old accumulate exactly — bit-identical.
    let mut dwm = vec![0.0f32; i_ch * j_ch];
    for e in (0..t2).filter(|e| elem_owner(*e, t2, cfg.n_g) == g) {
        gemm_f32_par(
            &serial,
            wx.elem_matrix(e),
            wx.tiles,
            wx.chans,
            wdy.elem_matrix(e),
            j_ch,
            &mut dwm,
            true,
            false,
        );
        let base = out.index(e, 0, 0);
        for (o, v) in out.data[base..base + i_ch * j_ch].iter_mut().zip(&dwm) {
            *o += v;
        }
    }
}

/// The group-ring-reduced Winograd-domain weight gradient, computed with
/// the MPT partitioning: worker `(g, c)` contributes its batch chunk's
/// partial gradient for its group's elements; sums run within groups
/// only.
///
/// All `N_g × N_c` logical workers fan out across the pool, each producing
/// its partial gradient; the partials merge in worker order `(g, c)` —
/// the order each group's ring reduction visits its `N_c` clusters — so
/// the result is the same for any job count. (A worker's unowned entries
/// stay `+0.0`, and adding `+0.0` never changes the bits of a running sum
/// that started at `+0.0`.)
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
    let s = x.shape();
    assert_eq!(
        s.n % cfg.n_c,
        0,
        "batch {} must divide across {} clusters",
        s.n,
        cfg.n_c
    );
    let chunk = s.n / cfg.n_c;
    let t2 = layer.transform().t() * layer.transform().t();
    let (i_ch, j_ch) = (layer.weights().in_chans, layer.weights().out_chans);
    let partials = pool.map_indexed(cfg.n_g * cfg.n_c, |wk| {
        let (g, c) = (wk / cfg.n_c, wk % cfg.n_c);
        let mut p = WgWeights::zeros(t2, i_ch, j_ch);
        worker_partial_grad_into(layer, cfg, x, dy, g, c, chunk, &mut p);
        p
    });
    let mut total = WgWeights::zeros(t2, i_ch, j_ch);
    for p in &partials {
        for (t, v) in total.data.iter_mut().zip(&p.data) {
            *t += v;
        }
    }
    total
}

/// Distributed `updateGrad` + SGD step: worker `(g, c)` produces the
/// partial Winograd-domain weight gradient for its elements from its
/// batch chunk; gradients are ring-reduced *within each group* (across
/// the `N_c` clusters) — never across groups — and applied (gradient via
/// [`reduced_gradient_distributed_par`]; the same bits for any job count).
///
/// Numerically identical to centralized
/// `layer.update_grad_par(pool, x, dy); layer.apply_grad(...)`.
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

/// Distributed momentum-SGD step: the optimizer state is partitioned
/// exactly like the weights (each group keeps velocity for its own
/// elements, §III-B), so momentum adds **no communication**; the result
/// matches a centralized momentum step.
///
/// # Panics
///
/// Panics if the batch is not divisible by `N_c`.
pub fn train_step_distributed_momentum(
    layer: &mut WinogradLayer,
    cfg: ClusterConfig,
    opt: &mut wmpt_winograd::MomentumSgd,
    x: &Tensor4,
    dy: &Tensor4,
) {
    let grad = reduced_gradient_distributed_par(&ParPool::serial(), layer, cfg, x, dy);
    let t2 = layer.transform().t() * layer.transform().t();
    // Each group applies the update to its own elements only; jointly
    // they cover all of them.
    for g in 0..cfg.n_g {
        opt.step_elements(layer.weights_mut(), &grad, |e| {
            elem_owner(e, t2, cfg.n_g) == g
        });
    }
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
    let mut skipped_bytes = 0u64;
    let tl = wmpt_winograd::Tiling::new(tf, out_shape.h, out_shape.w);
    let tpi = tl.tiles_per_image();
    let m = tf.m();
    for b in 0..out_shape.n {
        for j in 0..out_shape.c {
            for ty in 0..tl.tiles_h {
                for tx in 0..tl.tiles_w {
                    let tile_idx = b * tpi + ty * tl.tiles_w + tx;
                    let vals = y.gather_tile(tile_idx, j);
                    let pred = predictor.predict(&vals, mode);
                    if pred.tile_dead {
                        skipped_bytes += (vals.len() * 4) as u64;
                        // The destination writes zeros without receiving
                        // the tile; assert-equivalent because prediction is
                        // conservative (every neuron was <= 0).
                        for u in 0..m {
                            let oy = ty * m + u;
                            if oy >= out_shape.h {
                                break;
                            }
                            for v in 0..m {
                                let ox = tx * m + v;
                                if ox >= out_shape.w {
                                    break;
                                }
                                out[(b, j, oy, ox)] = 0.0;
                            }
                        }
                    }
                }
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
    use wmpt_tensor::DataGen;
    use wmpt_winograd::WinogradTransform;

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
    fn distributed_fprop_matches_centralized() {
        let (layer, x, _) = setup(1, 8);
        let pool = ParPool::serial();
        let reference = layer.fprop_par(&pool, &x);
        for cfg in [
            ClusterConfig::new(1, 8),
            ClusterConfig::new(4, 2),
            ClusterConfig::new(16, 1),
            ClusterConfig::new(8, 4),
        ] {
            if x.shape().n % cfg.n_c != 0 {
                continue;
            }
            let dist = fprop_distributed_par(&pool, &layer, cfg, &x);
            let diff = dist.max_abs_diff(&reference);
            assert!(diff < 1e-4, "{cfg}: diff {diff}");
        }
    }

    #[test]
    fn distributed_train_step_matches_centralized() {
        let (layer, x, dy) = setup(2, 8);
        let pool = ParPool::serial();
        let mut central = layer.clone();
        let grad = central.update_grad_par(&pool, &x, &dy);
        central.apply_grad(&grad, 0.01);

        for cfg in [
            ClusterConfig::new(4, 2),
            ClusterConfig::new(16, 1),
            ClusterConfig::new(1, 4),
        ] {
            let mut dist = layer.clone();
            train_step_distributed_par(&pool, &mut dist, cfg, &x, &dy, 0.01);
            let diff: f32 = dist
                .weights()
                .data
                .iter()
                .zip(&central.weights().data)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f32::max);
            assert!(diff < 1e-3, "{cfg}: weight diff {diff}");
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

            let yd = fprop_distributed_par(&pool, &dist, cfg, &x);
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
    fn distributed_momentum_matches_centralized() {
        use wmpt_winograd::MomentumSgd;
        let (layer, x, dy) = setup(12, 8);
        let t2 = 16;
        let (i_ch, j_ch) = (layer.weights().in_chans, layer.weights().out_chans);

        let mut central = layer.clone();
        let mut opt_c = MomentumSgd::new(t2, i_ch, j_ch, 0.01, 0.9);
        let mut dist = layer.clone();
        let mut opt_d = MomentumSgd::new(t2, i_ch, j_ch, 0.01, 0.9);
        let cfg = ClusterConfig::new(4, 2);

        for _ in 0..3 {
            let g = central.update_grad_par(&ParPool::serial(), &x, &dy);
            opt_c.step(central.weights_mut(), &g);
            train_step_distributed_momentum(&mut dist, cfg, &mut opt_d, &x, &dy);
        }
        let diff: f32 = dist
            .weights()
            .data
            .iter()
            .zip(&central.weights().data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max);
        assert!(diff < 1e-3, "momentum trajectories diverged: {diff}");
        // The velocity state matches too, element for element.
        let vdiff: f32 = opt_d
            .velocity()
            .data
            .iter()
            .zip(&opt_c.velocity().data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max);
        assert!(vdiff < 1e-3, "velocity state diverged: {vdiff}");
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
