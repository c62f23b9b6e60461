//! A multi-layer functional CNN built from Winograd layers, trainable
//! end to end both centralized and MPT-distributed — the "whole network"
//! counterpart of [`crate::trainer`]'s single-layer verification.
//!
//! The network is a sequence of stages (`Winograd conv → ReLU
//! [→ 2×2 pool]`) with a mean-pool + linear readout, exactly the layer
//! mix the paper's vector unit supports (§VI-B). Distributed training
//! applies the MPT partitioning *per layer* and is verified to match
//! centralized SGD step for step.

use wmpt_noc::ClusterConfig;
use wmpt_par::ParPool;
use wmpt_predict::{ActivationPredictor, PredictMode, QuantizerConfig};
use wmpt_tensor::{DataGen, Shape4, Tensor4};
use wmpt_winograd::{
    elementwise_gemm_par, elementwise_gemm_wgrad_par, output_grad_to_winograd_par, relu,
    relu_backward, to_winograd_input_par, Pool2x2, PoolKind, WgTensor, WinogradLayer,
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
#[derive(Debug, Clone)]
pub struct WinogradNet {
    stages: Vec<Stage>,
    /// Readout weights over the mean-pooled final feature vector.
    readout: Vec<f32>,
}

/// Cached activations of one forward pass (needed for backward).
#[derive(Debug)]
pub struct Activations {
    /// Winograd-domain input of each stage: the forward's transform,
    /// reused by the weight-gradient phase.
    wg_inputs: Vec<WgTensor>,
    /// Pre-ReLU conv outputs of each stage.
    pre_relu: Vec<Tensor4>,
    /// Post-ReLU (pre-pool) outputs of each stage.
    post_relu: Vec<Tensor4>,
    /// Final feature map.
    features: Tensor4,
    /// Per-image scores.
    pub scores: Vec<f32>,
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
        Self { stages, readout }
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
        Self { stages, readout }
    }

    /// Forward pass over a host thread pool, each conv's phases fanned out
    /// across `pool`; the bits are the same for any job count. MPT runs
    /// the same forward: worker `(g, c)`'s share of a conv is one block
    /// (its cluster's tiles × its group's elements) of the batched element
    /// GEMM, so the partitioning changes no bit.
    pub fn forward_with(&self, x: &Tensor4, pool: &ParPool) -> Activations {
        let mut wg_inputs = Vec::with_capacity(self.stages.len());
        let mut pre_relu = Vec::with_capacity(self.stages.len());
        let mut post_relu = Vec::with_capacity(self.stages.len());
        let mut cur = x.clone();
        for st in &self.stages {
            let wx = to_winograd_input_par(pool, &cur, st.conv.transform());
            let pre = st.conv.fprop_wg_par(pool, &wx, cur.shape());
            wg_inputs.push(wx);
            let post = relu(&pre);
            pre_relu.push(pre);
            post_relu.push(post.clone());
            cur = match &st.pool {
                Some(p) => p.forward(&post),
                None => post,
            };
        }
        let scores = self.score(&cur);
        Activations {
            wg_inputs,
            pre_relu,
            post_relu,
            features: cur,
            scores,
        }
    }

    /// Mean-pooled channel features dotted with the readout weights.
    fn score(&self, features: &Tensor4) -> Vec<f32> {
        let s = features.shape();
        let per = (s.h * s.w) as f32;
        (0..s.n)
            .map(|b| {
                let mut acc = 0.0f32;
                for c in 0..s.c {
                    let mut m = 0.0f32;
                    for h in 0..s.h {
                        for w in 0..s.w {
                            m += features[(b, c, h, w)];
                        }
                    }
                    acc += self.readout[c] * m / per;
                }
                acc
            })
            .collect()
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
    /// job count.
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
        let acts = self.forward_with(x, pool);
        let s = acts.features.shape();
        assert_eq!(targets.len(), s.n, "target count must match batch");
        let per = (s.h * s.w) as f32;
        let n = s.n as f32;

        // dL/dscore and loss.
        let mut loss = 0.0f64;
        let dscore: Vec<f32> = acts
            .scores
            .iter()
            .zip(targets)
            .map(|(sc, t)| {
                let e = sc - t;
                loss += 0.5 * (e as f64).powi(2);
                e / n
            })
            .collect();
        loss /= s.n as f64;

        // Readout gradient + gradient into the feature map.
        let mut d_readout = vec![0.0f32; self.readout.len()];
        let mut dfeat = Tensor4::zeros(s);
        for b in 0..s.n {
            for c in 0..s.c {
                let mut m = 0.0f32;
                for h in 0..s.h {
                    for w in 0..s.w {
                        m += acts.features[(b, c, h, w)];
                    }
                }
                d_readout[c] += dscore[b] * m / per;
                let g = dscore[b] * self.readout[c] / per;
                for h in 0..s.h {
                    for w in 0..s.w {
                        dfeat[(b, c, h, w)] = g;
                    }
                }
            }
        }

        // Backward through the stages.
        let mut dcur = dfeat;
        for k in (0..self.stages.len()).rev() {
            let st = &mut self.stages[k];
            let d_post = match &st.pool {
                Some(p) => p.backward(&acts.post_relu[k], &dcur),
                None => dcur,
            };
            let d_pre = relu_backward(&acts.pre_relu[k], &d_post);
            let wdy = output_grad_to_winograd_par(pool, &d_pre, st.conv.transform());
            // Input gradient for the next (earlier) stage, through the
            // weights before this step's update.
            let dx = (k > 0).then(|| st.conv.bprop_wg_par(pool, &wdy, d_pre.shape()));
            let g = elementwise_gemm_wgrad_par(pool, &acts.wg_inputs[k], &wdy, n_c);
            st.conv.apply_grad(&g, lr);
            let Some(dx) = dx else { break };
            dcur = dx;
        }
        for (w, g) in self.readout.iter_mut().zip(&d_readout) {
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
        (self.score(&cur), saved)
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
        let net = WinogradNet::new(1, 2, &[4, 6], true);
        let (x, _) = dataset(2, 4);
        let acts = net.forward_with(&x, &ParPool::serial());
        // 8x8 -> conv -> pool 4x4 -> conv -> pool 2x2.
        assert_eq!(acts.features.shape(), Shape4::new(4, 6, 2, 2));
        assert_eq!(acts.scores.len(), 4);
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
        let net = WinogradNet::new(11, 2, &[4, 4], true);
        let (x, _) = dataset(12, 8);
        // Plain forward: scores after ReLU chain.
        let plain = net.forward_with(&x, &ParPool::serial()).scores;
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
