//! Direct (spatial-domain) convolution — the reference implementation and
//! the paper's `d_dp` baseline.
//!
//! Convolution here is cross-correlation with "same" zero padding and
//! stride 1, matching the paper's layers (odd kernels, unchanged spatial
//! size). All three training phases of §II-A are provided:
//! fprop (Eq. before §II-B), bprop, and updateGrad.

use wmpt_tensor::{Shape4, Tensor4};

/// Direct convolution operator for `(J, I, r, r)` weights, "same" padding.
///
/// # Examples
///
/// ```
/// use wmpt_winograd::DirectConv;
/// use wmpt_tensor::{DataGen, Shape4};
///
/// let conv = DirectConv::new(3);
/// let mut g = DataGen::new(0);
/// let x = g.normal_tensor(Shape4::new(1, 2, 8, 8), 0.0, 1.0);
/// let w = g.he_weights(Shape4::new(4, 2, 3, 3));
/// let y = conv.fprop(&x, &w);
/// assert_eq!(y.shape(), Shape4::new(1, 4, 8, 8));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirectConv {
    r: usize,
    pad: usize,
}

impl DirectConv {
    /// Creates a direct convolution for odd kernel size `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is even or zero.
    pub fn new(r: usize) -> Self {
        assert!(
            r % 2 == 1 && r > 0,
            "same-padding direct conv requires odd r"
        );
        Self {
            r,
            pad: (r - 1) / 2,
        }
    }

    /// Kernel size.
    pub fn r(&self) -> usize {
        self.r
    }

    /// Forward propagation: `y[b,j] = Σ_i x[b,i] ⋆ w[j,i]`.
    ///
    /// # Panics
    ///
    /// Panics if channel counts or kernel sizes disagree.
    pub fn fprop(&self, x: &Tensor4, w: &Tensor4) -> Tensor4 {
        let xs = x.shape();
        let ws = w.shape();
        assert_eq!(ws.c, xs.c, "weight in-channels must match input channels");
        assert_eq!((ws.h, ws.w), (self.r, self.r), "kernel size mismatch");
        let out_shape = Shape4::new(xs.n, ws.n, xs.h, xs.w);
        let mut y = Tensor4::zeros(out_shape);
        let p = self.pad as isize;
        for b in 0..xs.n {
            for j in 0..ws.n {
                for oy in 0..xs.h {
                    for ox in 0..xs.w {
                        let mut acc = 0.0f64;
                        for i in 0..xs.c {
                            for ky in 0..self.r {
                                for kx in 0..self.r {
                                    let v = x.get_padded(
                                        b,
                                        i,
                                        oy as isize + ky as isize - p,
                                        ox as isize + kx as isize - p,
                                    );
                                    acc += v as f64 * w[(j, i, ky, kx)] as f64;
                                }
                            }
                        }
                        y[(b, j, oy, ox)] = acc as f32;
                    }
                }
            }
        }
        y
    }

    /// Backward propagation: input gradient
    /// `∂x[b,i] = Σ_j ∂y[b,j] ⋆ flip(w[j,i])`.
    ///
    /// # Panics
    ///
    /// Panics if channel counts or kernel sizes disagree.
    pub fn bprop(&self, dy: &Tensor4, w: &Tensor4) -> Tensor4 {
        let ds = dy.shape();
        let ws = w.shape();
        assert_eq!(ws.n, ds.c, "weight out-channels must match dy channels");
        assert_eq!((ws.h, ws.w), (self.r, self.r), "kernel size mismatch");
        let out_shape = Shape4::new(ds.n, ws.c, ds.h, ds.w);
        let mut dx = Tensor4::zeros(out_shape);
        let p = self.pad as isize;
        let r1 = self.r - 1;
        for b in 0..ds.n {
            for i in 0..ws.c {
                for sy in 0..ds.h {
                    for sx in 0..ds.w {
                        let mut acc = 0.0f64;
                        for j in 0..ws.n {
                            for ky in 0..self.r {
                                for kx in 0..self.r {
                                    // correlation of dy with spatially flipped w
                                    let v = dy.get_padded(
                                        b,
                                        j,
                                        sy as isize + ky as isize - p,
                                        sx as isize + kx as isize - p,
                                    );
                                    acc += v as f64 * w[(j, i, r1 - ky, r1 - kx)] as f64;
                                }
                            }
                        }
                        dx[(b, i, sy, sx)] = acc as f32;
                    }
                }
            }
        }
        dx
    }

    /// Weight-gradient phase:
    /// `∂w[j,i,ky,kx] = Σ_b Σ_p ∂y[b,j,p] · x[b,i,p+k-pad]`.
    ///
    /// # Panics
    ///
    /// Panics if batch sizes or spatial sizes disagree.
    pub fn update_grad(&self, x: &Tensor4, dy: &Tensor4) -> Tensor4 {
        let xs = x.shape();
        let ds = dy.shape();
        assert_eq!(xs.n, ds.n, "batch mismatch");
        assert_eq!((xs.h, xs.w), (ds.h, ds.w), "spatial mismatch");
        let mut dw = Tensor4::zeros(Shape4::new(ds.c, xs.c, self.r, self.r));
        let p = self.pad as isize;
        for j in 0..ds.c {
            for i in 0..xs.c {
                for ky in 0..self.r {
                    for kx in 0..self.r {
                        let mut acc = 0.0f64;
                        for b in 0..xs.n {
                            for oy in 0..ds.h {
                                for ox in 0..ds.w {
                                    let v = x.get_padded(
                                        b,
                                        i,
                                        oy as isize + ky as isize - p,
                                        ox as isize + kx as isize - p,
                                    );
                                    acc += dy[(b, j, oy, ox)] as f64 * v as f64;
                                }
                            }
                        }
                        dw[(j, i, ky, kx)] = acc as f32;
                    }
                }
            }
        }
        dw
    }
}

/// Rectified linear unit applied element-wise, returning a new tensor.
pub fn relu(x: &Tensor4) -> Tensor4 {
    let mut y = x.clone();
    y.map_inplace(|v| v.max(0.0));
    y
}

/// Derivative mask of ReLU at `x` applied to `dy`: `dy ⊙ [x > 0]`.
///
/// # Panics
///
/// Panics if shapes differ.
pub fn relu_backward(x: &Tensor4, dy: &Tensor4) -> Tensor4 {
    assert_eq!(x.shape(), dy.shape(), "relu_backward shape mismatch");
    let mut dx = dy.clone();
    // A select, not a branch: the sign of `x` is data, and a branch on it
    // mispredicts about once per element on fresh activations.
    for (d, v) in dx.as_mut_slice().iter_mut().zip(x.as_slice()) {
        *d = if *v <= 0.0 { 0.0 } else { *d };
    }
    dx
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmpt_tensor::DataGen;

    #[test]
    fn identity_kernel_is_noop() {
        let conv = DirectConv::new(3);
        let mut g = DataGen::new(1);
        let x = g.normal_tensor(Shape4::new(1, 2, 5, 5), 0.0, 1.0);
        let mut w = Tensor4::zeros(Shape4::new(2, 2, 3, 3));
        w[(0, 0, 1, 1)] = 1.0;
        w[(1, 1, 1, 1)] = 1.0;
        let y = conv.fprop(&x, &w);
        assert!(y.max_abs_diff(&x) < 1e-6);
    }

    #[test]
    fn shift_kernel_shifts() {
        let conv = DirectConv::new(3);
        let mut x = Tensor4::zeros(Shape4::new(1, 1, 4, 4));
        x[(0, 0, 2, 2)] = 1.0;
        // kernel with 1 at (0,0): y[p] = x[p-1] (shift down-right)
        let mut w = Tensor4::zeros(Shape4::new(1, 1, 3, 3));
        w[(0, 0, 0, 0)] = 1.0;
        let y = conv.fprop(&x, &w);
        assert_eq!(y[(0, 0, 3, 3)], 1.0);
        assert_eq!(y[(0, 0, 2, 2)], 0.0);
    }

    #[test]
    fn bprop_is_adjoint_of_fprop() {
        // <fprop(x), dy> == <x, bprop(dy)> for any x, dy (linearity in x).
        let conv = DirectConv::new(3);
        let mut g = DataGen::new(2);
        let x = g.normal_tensor(Shape4::new(2, 3, 6, 6), 0.0, 1.0);
        let w = g.he_weights(Shape4::new(4, 3, 3, 3));
        let dy = g.normal_tensor(Shape4::new(2, 4, 6, 6), 0.0, 1.0);
        let lhs: f64 = conv
            .fprop(&x, &w)
            .as_slice()
            .iter()
            .zip(dy.as_slice())
            .map(|(a, b)| (*a as f64) * (*b as f64))
            .sum();
        let rhs: f64 = x
            .as_slice()
            .iter()
            .zip(conv.bprop(&dy, &w).as_slice())
            .map(|(a, b)| (*a as f64) * (*b as f64))
            .sum();
        wmpt_check::assert_approx_eq!(lhs, rhs, wmpt_check::Tol::CONV_F32);
    }

    #[test]
    fn update_grad_matches_finite_difference() {
        let conv = DirectConv::new(3);
        let mut g = DataGen::new(3);
        let x = g.normal_tensor(Shape4::new(1, 2, 4, 4), 0.0, 1.0);
        let mut w = g.he_weights(Shape4::new(2, 2, 3, 3));
        let dy = g.normal_tensor(Shape4::new(1, 2, 4, 4), 0.0, 1.0);
        let dw = conv.update_grad(&x, &dy);
        // loss L = <fprop(x,w), dy>; dL/dw == update_grad.
        let eps = 1e-2f32;
        for probe in [(0usize, 0usize, 0usize, 0usize), (1, 1, 2, 2), (0, 1, 1, 0)] {
            let base = w[probe];
            w[probe] = base + eps;
            let lp: f64 = conv
                .fprop(&x, &w)
                .as_slice()
                .iter()
                .zip(dy.as_slice())
                .map(|(a, b)| (*a as f64) * (*b as f64))
                .sum();
            w[probe] = base - eps;
            let lm: f64 = conv
                .fprop(&x, &w)
                .as_slice()
                .iter()
                .zip(dy.as_slice())
                .map(|(a, b)| (*a as f64) * (*b as f64))
                .sum();
            w[probe] = base;
            let fd = ((lp - lm) / (2.0 * eps as f64)) as f32;
            // Central finite difference: O(eps^2) truncation dominates.
            wmpt_check::assert_approx_eq!(dw[probe], fd, wmpt_check::Tol::abs(2e-2), "{probe:?}");
        }
    }

    #[test]
    fn relu_and_backward() {
        let x = Tensor4::from_vec(Shape4::new(1, 1, 2, 2), vec![-1.0, 0.0, 2.0, -3.0]);
        let y = relu(&x);
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0, 0.0]);
        let dy = Tensor4::from_vec(Shape4::new(1, 1, 2, 2), vec![1.0, 1.0, 1.0, 1.0]);
        let dx = relu_backward(&x, &dy);
        assert_eq!(dx.as_slice(), &[0.0, 0.0, 1.0, 0.0]);

        // Special inputs: `x <= 0.0` is false for NaN, so NaN keeps `dy`,
        // and true for −0.0, so −0.0 zeroes it; the result is +0.0 either
        // way a zero is written.
        let tiny = f32::from_bits(1); // smallest positive subnormal
        let x = Tensor4::from_vec(
            Shape4::new(1, 1, 2, 4),
            vec![
                f32::NAN,
                -0.0,
                0.0,
                f32::INFINITY,
                f32::NEG_INFINITY,
                tiny,
                -tiny,
                1.0,
            ],
        );
        let dy = Tensor4::from_vec(
            Shape4::new(1, 1, 2, 4),
            vec![-2.5, -2.5, 3.0, -4.0, 5.0, 6.0, -7.0, -0.0],
        );
        let dx = relu_backward(&x, &dy);
        let bits: Vec<u32> = dx.as_slice().iter().map(|v| v.to_bits()).collect();
        let want: Vec<u32> = [-2.5f32, 0.0, 0.0, -4.0, 0.0, 6.0, 0.0, -0.0]
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(bits, want);
    }

    #[test]
    #[should_panic(expected = "odd r")]
    fn even_kernel_rejected() {
        let _ = DirectConv::new(4);
    }
}
