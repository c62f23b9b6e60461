//! Numerical-stability analysis of Winograd transforms (paper §II-B:
//! "as weight/tile size grow, numerical instability can grow and impact
//! accuracy"; ref. \[31\] improves the transform matrices).
//!
//! Two measures:
//!
//! * a static amplification factor — the product of the 1-norms of the
//!   transform matrices bounds how much input/weight error can grow;
//! * an empirical FP32 error measurement against an f64 direct
//!   convolution reference.
//!
//! Both grow steeply with `m` at fixed `r`, reproducing the reason the
//! paper stays at `F(2×2)`/`F(4×4)` tiles — and the reason MPT's
//! extension to larger tiles is gated on better transforms (ref. \[31\]).

use wmpt_tensor::{DataGen, Matrix};

use crate::transform::WinogradTransform;

/// One-norm (max absolute column sum) of a matrix.
fn one_norm(m: &Matrix) -> f64 {
    let mut best = 0.0f64;
    for c in 0..m.cols() {
        let mut s = 0.0;
        for r in 0..m.rows() {
            s += m[(r, c)].abs();
        }
        best = best.max(s);
    }
    best
}

/// Static amplification bound of a 2-D transform: `‖Aᵀ‖₁ ‖G‖₁ ‖Bᵀ‖₁`
/// squared (two 1-D passes per operand).
pub fn amplification_factor(tf: &WinogradTransform) -> f64 {
    let a = one_norm(tf.a_t());
    let g = one_norm(tf.g());
    let b = one_norm(tf.b_t());
    (a * g * b).powi(2)
}

/// Empirical relative FP32 error of a transform: random tiles/filters,
/// Winograd 2-D result vs an f64 direct correlation.
pub fn empirical_error(tf: &WinogradTransform, trials: usize, seed: u64) -> f64 {
    let mut gen = DataGen::new(seed);
    let t = tf.t();
    let m = tf.m();
    let r = tf.r();
    let mut worst = 0.0f64;
    for _ in 0..trials {
        let x: Vec<f32> = (0..t * t).map(|_| gen.normal(0.0, 1.0) as f32).collect();
        let w: Vec<f32> = (0..r * r).map(|_| gen.normal(0.0, 0.3) as f32).collect();
        let wx = tf.input_2d(&x);
        let ww = tf.weight_2d(&w);
        let prod: Vec<f32> = wx.iter().zip(&ww).map(|(a, b)| a * b).collect();
        let y = tf.inverse_2d(&prod);
        // f64 reference.
        let mut scale = 0.0f64;
        let mut err = 0.0f64;
        for oy in 0..m {
            for ox in 0..m {
                let mut s = 0.0f64;
                for ky in 0..r {
                    for kx in 0..r {
                        s += x[(oy + ky) * t + ox + kx] as f64 * w[ky * r + kx] as f64;
                    }
                }
                scale = scale.max(s.abs());
                err = err.max((y[oy * m + ox] as f64 - s).abs());
            }
        }
        if scale > 1e-6 {
            worst = worst.max(err / scale);
        }
    }
    worst
}

/// A stability report row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StabilityPoint {
    /// Output tile size `m`.
    pub m: usize,
    /// Static amplification bound.
    pub amplification: f64,
    /// Measured worst relative FP32 error.
    pub relative_error: f64,
}

/// Sweeps `F(m, 3)` for `m` in `ms` and reports stability.
///
/// # Panics
///
/// Panics if a transform cannot be constructed.
pub fn stability_sweep(ms: &[usize], trials: usize, seed: u64) -> Vec<StabilityPoint> {
    ms.iter()
        .map(|&m| {
            let tf = WinogradTransform::cook_toom(m, 3).unwrap_or_else(|e| panic!("F({m},3): {e}"));
            StabilityPoint {
                m,
                amplification: amplification_factor(&tf),
                relative_error: empirical_error(&tf, trials, seed),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amplification_grows_with_tile_size() {
        let pts = stability_sweep(&[2, 4, 6], 50, 1);
        assert!(pts[1].amplification > pts[0].amplification);
        assert!(pts[2].amplification > pts[1].amplification);
    }

    #[test]
    fn empirical_error_grows_with_tile_size() {
        let pts = stability_sweep(&[2, 6], 200, 2);
        assert!(
            pts[1].relative_error > pts[0].relative_error,
            "F(6,3) err {} should exceed F(2,3) err {}",
            pts[1].relative_error,
            pts[0].relative_error
        );
    }

    #[test]
    fn papers_transforms_are_accurate_enough() {
        // The tile sizes the paper uses stay well below 1e-3 relative
        // error in FP32 — the regime where cuDNN enables Winograd.
        for tf in [WinogradTransform::f2x2_3x3(), WinogradTransform::f4x4_3x3()] {
            let e = empirical_error(&tf, 300, 3);
            assert!(e < 1e-3, "{tf}: relative error {e}");
        }
    }

    #[test]
    fn amplification_is_at_least_one() {
        for m in [2usize, 4] {
            let tf = WinogradTransform::cook_toom(m, 3).expect("constructible");
            assert!(amplification_factor(&tf) >= 1.0);
        }
    }
}
