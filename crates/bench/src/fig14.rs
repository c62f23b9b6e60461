//! Figure 14: the modified (Winograd-domain) join trains identically to
//! the standard spatial join.
//!
//! The paper trained FractalNet on CIFAR-10 for 250 epochs and found the
//! same validation accuracy. We substitute a miniature two-branch
//! fractal cell trained on synthetic two-class data (DESIGN.md
//! substitution 2): because the join (mean) is linear and the modified
//! join only moves it before the inverse transform, the two variants are
//! mathematically identical — and the experiment shows bit-equal
//! accuracy trajectories while the model genuinely learns.

use wmpt_core::winograd_join;
use wmpt_par::ParPool;
use wmpt_tensor::{DataGen, Shape4, Tensor4};
use wmpt_winograd::{
    elementwise_gemm_par, from_winograd_output_par, relu, relu_backward, to_winograd_input_par,
    WinogradLayer, WinogradTransform,
};

/// Join style under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinStyle {
    /// Inverse-transform each branch, join (mean) spatially.
    Spatial,
    /// Join in the Winograd domain, inverse-transform once (Fig 14(a)).
    Winograd,
}

/// A two-branch fractal cell: `relu(mean(convA(x), convB(x)))` pooled to
/// a scalar score, trained with MSE against ±1 class targets.
#[derive(Debug, Clone)]
pub struct FractalCell {
    conv_a: WinogradLayer,
    conv_b: WinogradLayer,
    style: JoinStyle,
}

impl FractalCell {
    /// Fresh cell with He-initialized weights (seeded).
    pub fn new(seed: u64, style: JoinStyle) -> Self {
        let mut g = DataGen::new(seed);
        let tf = WinogradTransform::f2x2_3x3();
        let wa = g.he_weights(Shape4::new(2, 2, 3, 3));
        let wb = g.he_weights(Shape4::new(2, 2, 3, 3));
        Self {
            conv_a: WinogradLayer::from_spatial(tf.clone(), &wa),
            conv_b: WinogradLayer::from_spatial(tf, &wb),
            style,
        }
    }

    /// Forward pass producing the joined pre-activation feature map.
    pub fn forward(&self, x: &Tensor4) -> Tensor4 {
        let pool = ParPool::serial();
        match self.style {
            JoinStyle::Spatial => {
                let mut a = self.conv_a.fprop_par(&pool, x);
                let b = self.conv_b.fprop_par(&pool, x);
                a.add_assign(&b);
                a.scale(0.5);
                a
            }
            JoinStyle::Winograd => {
                let tf = self.conv_a.transform();
                let wx = to_winograd_input_par(&pool, x, tf);
                let ya = elementwise_gemm_par(&pool, &wx, self.conv_a.weights());
                let yb = elementwise_gemm_par(&pool, &wx, self.conv_b.weights());
                let joined = winograd_join(&[&ya, &yb]);
                let s = x.shape();
                from_winograd_output_par(&pool, &joined, tf, Shape4::new(s.n, 2, s.h, s.w))
            }
        }
    }

    /// Mean-pooled scalar score per image of the ReLU'd join.
    pub fn scores(&self, x: &Tensor4) -> Vec<f32> {
        let z = relu(&self.forward(x));
        let s = z.shape();
        let per = (s.c * s.h * s.w) as f32;
        (0..s.n)
            .map(|b| {
                let mut acc = 0.0f32;
                for c in 0..s.c {
                    for h in 0..s.h {
                        for w in 0..s.w {
                            acc += z[(b, c, h, w)];
                        }
                    }
                }
                acc / per
            })
            .collect()
    }

    /// One SGD step on MSE(score, target).
    pub fn train_step(&mut self, x: &Tensor4, targets: &[f32], lr: f32) {
        let pre = self.forward(x);
        let z = relu(&pre);
        let s = z.shape();
        let per = (s.c * s.h * s.w) as f32;
        // dL/dz for L = mean_b (score_b - t_b)^2, score = mean(z).
        let mut dz = Tensor4::zeros(s);
        for b in 0..s.n {
            let mut score = 0.0f32;
            for c in 0..s.c {
                for h in 0..s.h {
                    for w in 0..s.w {
                        score += z[(b, c, h, w)];
                    }
                }
            }
            score /= per;
            let g = 2.0 * (score - targets[b]) / (s.n as f32 * per);
            for c in 0..s.c {
                for h in 0..s.h {
                    for w in 0..s.w {
                        dz[(b, c, h, w)] = g;
                    }
                }
            }
        }
        let dpre = relu_backward(&pre, &dz);
        // Join is a mean: each branch receives half the gradient.
        let mut dbranch = dpre;
        dbranch.scale(0.5);
        let pool = ParPool::serial();
        let ga = self.conv_a.update_grad_par(&pool, x, &dbranch);
        let gb = self.conv_b.update_grad_par(&pool, x, &dbranch);
        self.conv_a.apply_grad(&ga, lr);
        self.conv_b.apply_grad(&gb, lr);
    }
}

/// Synthetic two-class dataset: class +1 images have positive mean.
pub fn dataset(seed: u64, n: usize) -> (Tensor4, Vec<f32>) {
    let mut g = DataGen::new(seed);
    let mut x = Tensor4::zeros(Shape4::new(n, 2, 8, 8));
    let mut t = Vec::with_capacity(n);
    for b in 0..n {
        let cls = if b % 2 == 0 { 1.0f32 } else { -1.0 };
        t.push(cls);
        for c in 0..2 {
            for h in 0..8 {
                for w in 0..8 {
                    x[(b, c, h, w)] = g.normal(0.25 * cls as f64, 1.0) as f32;
                }
            }
        }
    }
    (x, t)
}

/// Accuracy of thresholded scores (scores for class −1 images should be
/// smaller than for class +1; threshold at the midpoint of class means).
pub fn accuracy(scores: &[f32], targets: &[f32]) -> f64 {
    let pos: Vec<f32> = scores
        .iter()
        .zip(targets)
        .filter(|(_, t)| **t > 0.0)
        .map(|(s, _)| *s)
        .collect();
    let neg: Vec<f32> = scores
        .iter()
        .zip(targets)
        .filter(|(_, t)| **t < 0.0)
        .map(|(s, _)| *s)
        .collect();
    let mp = pos.iter().sum::<f32>() / pos.len().max(1) as f32;
    let mn = neg.iter().sum::<f32>() / neg.len().max(1) as f32;
    let thr = (mp + mn) / 2.0;
    let correct = scores
        .iter()
        .zip(targets)
        .filter(|(s, t)| (**s > thr) == (**t > 0.0))
        .count();
    correct as f64 / scores.len() as f64
}

/// Mean-squared error of scores against targets.
pub fn mse(scores: &[f32], targets: &[f32]) -> f64 {
    scores
        .iter()
        .zip(targets)
        .map(|(s, t)| ((s - t) as f64).powi(2))
        .sum::<f64>()
        / scores.len().max(1) as f64
}

/// Trains both variants and returns per-epoch accuracies
/// `(spatial, winograd)`.
pub fn train_both(epochs: usize) -> Vec<(f64, f64)> {
    let (x, t) = dataset(1, 32);
    let (xe, te) = dataset(2, 32);
    let mut spatial = FractalCell::new(42, JoinStyle::Spatial);
    let mut wino = FractalCell::new(42, JoinStyle::Winograd);
    let mut curve = Vec::with_capacity(epochs);
    for _ in 0..epochs {
        spatial.train_step(&x, &t, 0.3);
        wino.train_step(&x, &t, 0.3);
        curve.push((
            accuracy(&spatial.scores(&xe), &te),
            accuracy(&wino.scores(&xe), &te),
        ));
    }
    curve
}

/// Runs the experiment and returns the printed figure data.
pub fn run() -> String {
    let mut out = String::new();
    out.push_str("== Figure 14: standard vs modified (Winograd-domain) join ==\n");
    out.push_str(&crate::row(
        "epoch",
        &["spatial join", "modified join"].map(String::from),
    ));
    for (e, (a, b)) in train_both(10).iter().enumerate() {
        out.push_str(&crate::row(
            &(e + 1).to_string(),
            &[format!("{a:.3}"), format!("{b:.3}")],
        ));
    }
    out.push_str("modified join matches the spatial join at every epoch (same validation accuracy, paper Fig 14(b))\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_styles_are_numerically_identical() {
        let (x, _) = dataset(3, 8);
        let a = FractalCell::new(7, JoinStyle::Spatial);
        let b = FractalCell::new(7, JoinStyle::Winograd);
        let d = a.forward(&x).max_abs_diff(&b.forward(&x));
        assert!(d < 1e-4, "forward diff {d}");
    }

    #[test]
    fn training_curves_match() {
        for (a, b) in train_both(6) {
            assert!((a - b).abs() < 1e-9, "accuracy diverged: {a} vs {b}");
        }
    }

    #[test]
    fn the_model_actually_learns() {
        let curve = train_both(10);
        let last = curve.last().expect("nonempty");
        assert!(last.0 > 0.85, "final accuracy {} too low", last.0);
    }

    #[test]
    fn output_mentions_both_columns() {
        let out = run();
        assert!(out.contains("spatial join"));
        assert!(out.contains("modified join"));
    }
}
