//! A multi-layer functional CNN built from Winograd layers, trainable
//! end to end both centralized and MPT-distributed — the "whole network"
//! counterpart of [`crate::trainer`]'s single-layer verification.
//!
//! The network is a sequence of stages (`Winograd conv → ReLU
//! [→ 2×2 pool]`) with a mean-pool + linear readout, exactly the layer
//! mix the paper's vector unit supports (§VI-B). Distributed training
//! applies the MPT partitioning *per layer* and is verified to match
//! centralized SGD step for step.

use std::fmt;

use wmpt_noc::ClusterConfig;
use wmpt_par::ParPool;
use wmpt_predict::{ActivationPredictor, PredictMode, QuantizerConfig};
use wmpt_tensor::ops::PackedB;
use wmpt_tensor::{DataGen, Shape4, Tensor4};
use wmpt_winograd::{
    elementwise_gemm_bprop_into, elementwise_gemm_into, elementwise_gemm_par,
    elementwise_gemm_wgrad_into, from_winograd_output_into, input_grad_to_spatial_into,
    output_grad_to_winograd_into, relu_backward_into, relu_into, to_winograd_input_into,
    to_winograd_input_par, Pool2x2, PoolKind, WgTensor, WgWeights, WinogradLayer,
    WinogradTransform,
};

use crate::trainer::gather_with_prediction;

/// One conv stage of the network.
#[derive(Debug, Clone)]
pub struct Stage {
    /// The Winograd conv layer.
    pub conv: WinogradLayer,
    /// Optional pooling after the ReLU.
    pub pool: Option<Pool2x2>,
}

/// A small sequential CNN of Winograd layers with a linear readout.
///
/// The net owns the buffers of its training step (activations,
/// Winograd-domain tensors, gradients, packed weight panels), sized on
/// the first step and reused by every later one, so a warm step
/// allocates nothing. A [`Clone`] starts with no buffers;
/// [`Clone::clone_from`] copies the stages and the readout and keeps the
/// target's buffers.
pub struct WinogradNet {
    stages: Vec<Stage>,
    /// Readout weights over the mean-pooled final feature vector.
    readout: Vec<f32>,
    /// The training step's buffers (empty until the first step).
    ws: StepWorkspace,
}

impl Clone for WinogradNet {
    fn clone(&self) -> Self {
        Self {
            stages: self.stages.clone(),
            readout: self.readout.clone(),
            ws: StepWorkspace::default(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.stages.clone_from(&source.stages);
        self.readout.clone_from(&source.readout);
    }
}

impl fmt::Debug for WinogradNet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WinogradNet")
            .field("stages", &self.stages)
            .field("readout", &self.readout)
            .finish_non_exhaustive()
    }
}

/// The buffers of one training step, sized for one input shape and
/// architecture on first use. Each stage keeps what its backward pass
/// reads. The transients are shared by all stages, in one buffer sized
/// for the stage that needs most at once: its front holds the element
/// GEMM's output before the inverse transform (forward) or the output
/// gradient's transform (backward), and before either, a pooling stage's
/// post-ReLU map (recomputed in backward for the max routing); its back
/// holds a pooling stage's pre-ReLU gradient and then the bprop element
/// GEMM's output.
#[derive(Default)]
struct StepWorkspace {
    /// The input shape the buffers are sized for.
    input: Option<Shape4>,
    stages: Vec<StageBuffers>,
    /// The shared transients (see above).
    wg: Vec<f32>,
    /// Gradient w.r.t. a stage's output (a non-pooling stage's pre-ReLU
    /// gradient too).
    dout: Vec<f32>,
    /// One packed weight panel set per tile element.
    packed: Vec<PackedB>,
    /// Per-image scores and their loss gradients.
    scores: Vec<f32>,
    dscore: Vec<f32>,
    /// Readout weight gradient.
    d_readout: Vec<f32>,
}

/// What one stage's backward pass reads, plus its weight gradient.
struct StageBuffers {
    /// Output tile size of the stage's transform.
    m: usize,
    /// Whether the stage pools.
    pooled: bool,
    /// Winograd-domain input: the forward's transform, reused by the
    /// weight gradient.
    wx: WgTensor,
    /// Pre-ReLU conv output.
    pre: Tensor4,
    /// The stage output (pooled, or post-ReLU without pooling): the next
    /// stage's input, or the features.
    out: Tensor4,
    /// Winograd-domain weight gradient.
    grad: WgWeights,
}

impl StageBuffers {
    /// Length of the front of [`StepWorkspace::wg`] this stage uses: its
    /// element-GEMM output, or its conv map if that were longer.
    fn front(&self) -> usize {
        (self.wx.elems * self.wx.tiles * self.grad.out_chans).max(self.pre.shape().len())
    }
}

impl StepWorkspace {
    /// Whether the buffers are sized for `stages` on inputs of shape `x`.
    fn fits(&self, stages: &[Stage], x: Shape4) -> bool {
        self.input == Some(x)
            && self.stages.len() == stages.len()
            && self.stages.iter().zip(stages).all(|(b, st)| {
                let w = st.conv.weights();
                b.m == st.conv.transform().m()
                    && (b.grad.elems, b.grad.in_chans, b.grad.out_chans)
                        == (w.elems, w.in_chans, w.out_chans)
                    && b.pooled == st.pool.is_some()
            })
    }

    /// Buffers for `stages` on inputs of shape `x`.
    fn sized_for(stages: &[Stage], x: Shape4) -> Self {
        let mut ws = StepWorkspace {
            input: Some(x),
            ..StepWorkspace::default()
        };
        let (mut wg, mut dout) = (0, 0);
        let mut s = x;
        for (k, st) in stages.iter().enumerate() {
            let w = st.conv.weights();
            let wx = WgTensor::for_map(st.conv.transform(), s);
            let conv = Shape4::new(s.n, w.out_chans, s.h, s.w);
            let out = st.pool.map_or(conv, |p| p.output_shape(conv));
            let b = StageBuffers {
                m: st.conv.transform().m(),
                pooled: st.pool.is_some(),
                pre: Tensor4::zeros(conv),
                out: Tensor4::zeros(out),
                grad: WgWeights::zeros(w.elems, w.in_chans, w.out_chans),
                wx,
            };
            // The back: a pooling stage's pre-ReLU gradient, then the
            // input gradient handed to the stage before.
            let d_pre = if b.pooled { conv.len() } else { 0 };
            let wdx = if k > 0 { b.wx.data.len() } else { 0 };
            wg = wg.max(b.front() + d_pre.max(wdx));
            dout = dout.max(out.len());
            ws.stages.push(b);
            s = out;
        }
        ws.wg = vec![0.0; wg];
        ws.dout = vec![0.0; dout];
        ws.scores = vec![0.0; x.n];
        ws.dscore = vec![0.0; x.n];
        ws.d_readout = vec![0.0; s.c];
        ws
    }
}

/// Mean-pooled channel features dotted with the readout weights, one
/// score per image into `out`.
fn score_into(readout: &[f32], features: &Tensor4, out: &mut [f32]) {
    let s = features.shape();
    let per = (s.h * s.w) as f32;
    for (b, score) in out.iter_mut().enumerate() {
        let mut acc = 0.0f32;
        for c in 0..s.c {
            let mut m = 0.0f32;
            for h in 0..s.h {
                for w in 0..s.w {
                    m += features[(b, c, h, w)];
                }
            }
            acc += readout[c] * m / per;
        }
        *score = acc;
    }
}

impl WinogradNet {
    /// Builds a net of `widths.len()` stages (`widths[k]` output channels)
    /// over `in_chans` inputs, pooling after every stage, with seeded He
    /// initialization.
    pub fn new(seed: u64, in_chans: usize, widths: &[usize], pool: bool) -> Self {
        let mut g = DataGen::new(seed);
        let tf = WinogradTransform::f2x2_3x3();
        let mut stages = Vec::with_capacity(widths.len());
        let mut prev = in_chans;
        for &w in widths {
            let weights = g.he_weights(Shape4::new(w, prev, 3, 3));
            stages.push(Stage {
                conv: WinogradLayer::from_spatial(tf.clone(), &weights),
                pool: pool.then(|| Pool2x2::new(PoolKind::Max)),
            });
            prev = w;
        }
        let readout = (0..prev).map(|_| g.normal(0.0, 0.3) as f32).collect();
        Self::from_parts(stages, readout)
    }

    /// Number of conv stages.
    pub fn depth(&self) -> usize {
        self.stages.len()
    }

    /// The conv stages, in order.
    pub fn stages(&self) -> &[Stage] {
        &self.stages
    }

    /// Mutable access to the conv stages (fault injection flips weight
    /// bits through this; ordinary training should not need it).
    pub fn stages_mut(&mut self) -> &mut [Stage] {
        &mut self.stages
    }

    /// The readout weights over the mean-pooled final features.
    pub fn readout(&self) -> &[f32] {
        &self.readout
    }

    /// Rebuilds a net from parts (checkpoint restore).
    ///
    /// # Panics
    ///
    /// Panics if there are no stages or the readout width does not match
    /// the last stage's output channels.
    pub fn from_parts(stages: Vec<Stage>, readout: Vec<f32>) -> Self {
        assert!(!stages.is_empty(), "net needs at least one stage");
        let last = stages.last().expect("nonempty").conv.weights().out_chans;
        assert_eq!(readout.len(), last, "readout width must match last stage");
        Self {
            stages,
            readout,
            ws: StepWorkspace::default(),
        }
    }

    /// Forward pass over a host thread pool, each conv's phases fanned out
    /// across `pool`; returns the per-image scores. The activations stay
    /// in the net's step buffers. The bits are the same for any job count.
    /// MPT runs the same forward: worker `(g, c)`'s share of a conv is one
    /// block (its cluster's tiles × its group's elements) of the batched
    /// element GEMM, so the partitioning changes no bit.
    pub fn forward_with(&mut self, x: &Tensor4, pool: &ParPool) -> &[f32] {
        if !self.ws.fits(&self.stages, x.shape()) {
            self.ws = StepWorkspace::sized_for(&self.stages, x.shape());
        }
        let ws = &mut self.ws;
        for (k, st) in self.stages.iter().enumerate() {
            let (done, rest) = ws.stages.split_at_mut(k);
            let input = done.last().map_or(x, |b| &b.out);
            let b = &mut rest[0];
            let tf = st.conv.transform();
            let (w, tiles) = (st.conv.weights(), b.wx.tiles);
            to_winograd_input_into(pool, input.as_slice(), input.shape(), tf, &mut b.wx.data);
            let wy = &mut ws.wg[..w.elems * tiles * w.out_chans];
            elementwise_gemm_into(pool, &b.wx.data, tiles, w, &mut ws.packed, wy);
            let conv = b.pre.shape();
            from_winograd_output_into(pool, wy, tf, conv, b.pre.as_mut_slice());
            match &st.pool {
                Some(p) => {
                    let post = &mut ws.wg[..conv.len()];
                    relu_into(b.pre.as_slice(), post);
                    p.forward_into(post, conv, b.out.as_mut_slice());
                }
                None => relu_into(b.pre.as_slice(), b.out.as_mut_slice()),
            }
        }
        let features = &ws.stages.last().expect("nonempty").out;
        score_into(&self.readout, features, &mut ws.scores);
        &ws.scores
    }

    /// One SGD step on MSE(score, target); returns the batch loss.
    /// `grid = None` trains centralized, `Some(cfg)` reduces every conv's
    /// weight gradient MPT-style: per element, the sum of the `N_c`
    /// clusters' partial gradients in ascending cluster order (see
    /// [`crate::reduced_gradient_distributed_par`]). The forward and
    /// input-gradient phases are the same for both, and `N_g` changes
    /// no bit. Each conv's input and output gradient are transformed once
    /// per step: the forward's transform feeds the weight gradient, and
    /// one transform of the output gradient feeds both the input and the
    /// weight gradient. The forward, input-gradient and weight-gradient
    /// phases all fan out across `pool`; the bits are the same for any
    /// job count. Every phase writes into the net's step buffers, so a
    /// step on the input shape of the last one allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `targets.len()` differs from the batch size, or if the
    /// batch does not divide across the grid's `N_c` clusters.
    pub fn train_step_with(
        &mut self,
        x: &Tensor4,
        targets: &[f32],
        lr: f32,
        grid: Option<ClusterConfig>,
        pool: &ParPool,
    ) -> f64 {
        let n_c = grid.map_or(1, |cfg| cfg.n_c);
        let batch = x.shape().n;
        assert_eq!(
            batch % n_c,
            0,
            "batch {batch} must divide across {n_c} clusters"
        );
        self.forward_with(x, pool);
        let Self {
            stages,
            readout,
            ws,
        } = self;
        let features = &ws.stages.last().expect("nonempty").out;
        let s = features.shape();
        assert_eq!(targets.len(), s.n, "target count must match batch");
        let per = (s.h * s.w) as f32;
        let n = s.n as f32;

        // dL/dscore and loss.
        let mut loss = 0.0f64;
        for ((d, sc), t) in ws.dscore.iter_mut().zip(&ws.scores).zip(targets) {
            let e = sc - t;
            loss += 0.5 * (e as f64).powi(2);
            *d = e / n;
        }
        loss /= s.n as f64;

        // Readout gradient + gradient into the feature map.
        ws.d_readout.fill(0.0);
        let plane = s.h * s.w;
        let dfeat = &mut ws.dout[..s.len()];
        for b in 0..s.n {
            for c in 0..s.c {
                let mut m = 0.0f32;
                for h in 0..s.h {
                    for w in 0..s.w {
                        m += features[(b, c, h, w)];
                    }
                }
                ws.d_readout[c] += ws.dscore[b] * m / per;
                let g = ws.dscore[b] * readout[c] / per;
                dfeat[(b * s.c + c) * plane..][..plane].fill(g);
            }
        }

        // Backward through the stages; `dout` holds the gradient w.r.t.
        // stage `k`'s output.
        for k in (0..stages.len()).rev() {
            let st = &mut stages[k];
            let in_shape = (k > 0).then(|| ws.stages[k - 1].out.shape());
            let b = &mut ws.stages[k];
            let conv = b.pre.shape();
            let (front, back) = ws.wg.split_at_mut(b.front());
            let d_pre = match &st.pool {
                Some(p) => {
                    let post = &mut front[..conv.len()];
                    relu_into(b.pre.as_slice(), post);
                    let d = &mut back[..conv.len()];
                    p.backward_into(post, conv, &ws.dout[..b.out.shape().len()], d);
                    d
                }
                None => &mut ws.dout[..conv.len()],
            };
            relu_backward_into(b.pre.as_slice(), d_pre);
            let tf = st.conv.transform();
            let tiles = b.wx.tiles;
            let wdy = &mut front[..b.wx.elems * tiles * conv.c];
            output_grad_to_winograd_into(pool, d_pre, conv, tf, wdy);
            // Input gradient for the next (earlier) stage, through the
            // weights before this step's update.
            if let Some(in_shape) = in_shape {
                let wdx = &mut back[..b.wx.data.len()];
                let w = st.conv.weights();
                elementwise_gemm_bprop_into(pool, wdy, tiles, w, &mut ws.packed, wdx);
                let dx = &mut ws.dout[..in_shape.len()];
                input_grad_to_spatial_into(pool, wdx, tf, in_shape, dx);
            }
            elementwise_gemm_wgrad_into(pool, &b.wx.data, wdy, tiles, n_c, &mut b.grad);
            st.conv.apply_grad(&b.grad, lr);
        }
        for (w, g) in readout.iter_mut().zip(&ws.d_readout) {
            *w -= lr * g;
        }
        loss
    }

    /// Prediction-gated inference: every conv's tile gathering skips the
    /// tiles the conservative predictor marks dead (paper §V in the
    /// training loop). Returns the per-image scores and the bytes of tile
    /// gathering saved — and is exactly equal to the plain forward pass,
    /// which the tests assert.
    pub fn scores_with_prediction(&self, x: &Tensor4, levels: u32) -> (Vec<f32>, u64) {
        let serial = ParPool::serial();
        let mut cur = x.clone();
        let mut saved = 0u64;
        for st in &self.stages {
            let tf = st.conv.transform().clone();
            let wx = to_winograd_input_par(&serial, &cur, &tf);
            let wy = elementwise_gemm_par(&serial, &wx, st.conv.weights());
            let s = cur.shape();
            let out_shape = Shape4::new(s.n, st.conv.weights().out_chans, s.h, s.w);
            let sigma = wmpt_predict::sigma_of(&wy.data);
            let predictor = ActivationPredictor::new(tf, QuantizerConfig::new(levels, 4), sigma);
            let (post, skipped) =
                gather_with_prediction(&wy, &predictor, PredictMode::TwoD, out_shape);
            saved += skipped;
            cur = match &st.pool {
                Some(p) => p.forward(&post),
                None => post,
            };
        }
        let mut scores = vec![0.0; cur.shape().n];
        score_into(&self.readout, &cur, &mut scores);
        (scores, saved)
    }

    /// Maximum absolute weight difference to another net of identical
    /// architecture.
    ///
    /// # Panics
    ///
    /// Panics if architectures differ.
    pub fn max_weight_diff(&self, other: &WinogradNet) -> f32 {
        assert_eq!(
            self.stages.len(),
            other.stages.len(),
            "architecture mismatch"
        );
        let mut d = 0.0f32;
        for (a, b) in self.stages.iter().zip(&other.stages) {
            for (x, y) in a.conv.weights().data.iter().zip(&b.conv.weights().data) {
                d = d.max((x - y).abs());
            }
        }
        for (x, y) in self.readout.iter().zip(&other.readout) {
            d = d.max((x - y).abs());
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset(seed: u64, n: usize) -> (Tensor4, Vec<f32>) {
        let mut g = DataGen::new(seed);
        let mut x = Tensor4::zeros(Shape4::new(n, 2, 8, 8));
        let mut t = Vec::with_capacity(n);
        for b in 0..n {
            let cls = if b % 2 == 0 { 1.0f32 } else { -1.0 };
            t.push(cls);
            for c in 0..2 {
                for h in 0..8 {
                    for w in 0..8 {
                        x[(b, c, h, w)] = g.normal(0.3 * cls as f64, 1.0) as f32;
                    }
                }
            }
        }
        (x, t)
    }

    #[test]
    fn forward_shapes_flow_through_pooling() {
        let mut net = WinogradNet::new(1, 2, &[4, 6], true);
        let (x, _) = dataset(2, 4);
        assert_eq!(net.forward_with(&x, &ParPool::serial()).len(), 4);
        // 8x8 -> conv -> pool 4x4 -> conv -> pool 2x2.
        let features = &net.ws.stages.last().expect("two stages").out;
        assert_eq!(features.shape(), Shape4::new(4, 6, 2, 2));
    }

    #[test]
    fn training_reduces_loss() {
        let mut net = WinogradNet::new(3, 2, &[4], true);
        let (x, t) = dataset(4, 8);
        let pool = ParPool::serial();
        let first = net.train_step_with(&x, &t, 0.2, None, &pool);
        let mut last = first;
        for _ in 0..10 {
            last = net.train_step_with(&x, &t, 0.2, None, &pool);
        }
        assert!(last < first * 0.9, "loss {first} -> {last}");
    }

    #[test]
    fn distributed_training_matches_centralized_deep() {
        let (x, t) = dataset(5, 8);
        let mut central = WinogradNet::new(6, 2, &[4, 4], false);
        let mut dist = central.clone();
        let grid = ClusterConfig::new(4, 2);
        let pool = ParPool::serial();
        for _ in 0..4 {
            let lc = central.train_step_with(&x, &t, 0.05, None, &pool);
            let ld = dist.train_step_with(&x, &t, 0.05, Some(grid), &pool);
            wmpt_check::assert_approx_eq!(lc, ld, wmpt_check::Tol::CONV_F32, "loss");
        }
        wmpt_check::assert_approx_eq!(
            central.max_weight_diff(&dist),
            0.0f32,
            wmpt_check::Tol::CLUSTER_SUM_F32,
            "weights diverged"
        );
    }

    #[test]
    fn distributed_grid_shapes_all_work() {
        let (x, t) = dataset(7, 8);
        let pool = ParPool::serial();
        let reference = {
            let mut n = WinogradNet::new(8, 2, &[4], true);
            n.train_step_with(&x, &t, 0.05, None, &pool);
            n
        };
        for grid in [
            ClusterConfig::new(16, 1),
            ClusterConfig::new(2, 4),
            ClusterConfig::new(1, 8),
        ] {
            let mut n = WinogradNet::new(8, 2, &[4], true);
            n.train_step_with(&x, &t, 0.05, Some(grid), &pool);
            wmpt_check::assert_approx_eq!(
                n.max_weight_diff(&reference),
                0.0f32,
                wmpt_check::Tol::CLUSTER_SUM_F32,
                "{grid}"
            );
        }
    }

    #[test]
    fn prediction_gated_inference_is_exact_and_saves_traffic() {
        let mut net = WinogradNet::new(11, 2, &[4, 4], true);
        let (x, _) = dataset(12, 8);
        // Plain forward: scores after ReLU chain.
        let plain = net.forward_with(&x, &ParPool::serial()).to_vec();
        let (gated, saved) = net.scores_with_prediction(&x, 64);
        for (a, b) in plain.iter().zip(&gated) {
            assert_eq!(a, b, "prediction changed an output score");
        }
        assert!(saved > 0, "no gathering was skipped");
    }

    #[test]
    #[should_panic(expected = "target count")]
    fn target_length_validated() {
        let mut net = WinogradNet::new(9, 2, &[4], false);
        let (x, _) = dataset(10, 4);
        let _ = net.train_step_with(&x, &[1.0], 0.1, None, &ParPool::serial());
    }
}
