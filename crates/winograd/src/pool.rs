//! Pooling layers (paper §VI-B: the vector processor handles "activation
//! (ReLU), pooling, and simple addition between feature maps").
//!
//! Max pooling and average pooling with 2×2 windows / stride 2 — the
//! standard downsampling in the evaluated CNNs — with exact backward
//! passes for the functional trainer.

use wmpt_tensor::{Shape4, Tensor4};

/// Pooling flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolKind {
    /// Maximum over the window.
    Max,
    /// Mean over the window.
    Avg,
}

/// A 2×2 / stride-2 pooling layer.
///
/// # Examples
///
/// ```
/// use wmpt_winograd::{Pool2x2, PoolKind};
/// use wmpt_tensor::{Shape4, Tensor4};
///
/// let x = Tensor4::from_vec(Shape4::new(1, 1, 2, 2), vec![1.0, 5.0, 3.0, 2.0]);
/// let y = Pool2x2::new(PoolKind::Max).forward(&x);
/// assert_eq!(y.as_slice(), &[5.0]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool2x2 {
    kind: PoolKind,
}

impl Pool2x2 {
    /// Creates a pooling layer.
    pub fn new(kind: PoolKind) -> Self {
        Self { kind }
    }

    /// The flavour.
    pub fn kind(&self) -> PoolKind {
        self.kind
    }

    /// Output shape for an input shape.
    ///
    /// # Panics
    ///
    /// Panics if the spatial dimensions are not even (the evaluated CNNs
    /// only pool even maps).
    pub fn output_shape(&self, s: Shape4) -> Shape4 {
        assert!(
            s.h.is_multiple_of(2) && s.w.is_multiple_of(2),
            "2x2 pooling needs even spatial dims"
        );
        Shape4::new(s.n, s.c, s.h / 2, s.w / 2)
    }

    /// Forward pass: the allocating form of [`Self::forward_into`].
    pub fn forward(&self, x: &Tensor4) -> Tensor4 {
        let mut y = Tensor4::zeros(self.output_shape(x.shape()));
        self.forward_into(x.as_slice(), x.shape(), y.as_mut_slice());
        y
    }

    /// Forward pass of the NCHW map `x` of shape `s` into `y` (NCHW, the
    /// pooled shape), writing every value.
    ///
    /// # Panics
    ///
    /// Panics if `x` or `y` does not have the length its shape implies.
    pub fn forward_into(&self, x: &[f32], s: Shape4, y: &mut [f32]) {
        let os = self.output_shape(s);
        assert_eq!(x.len(), s.len(), "pool input length mismatch");
        assert_eq!(y.len(), os.len(), "pooled output length mismatch");
        for (plane, out) in y.chunks_exact_mut((os.h * os.w).max(1)).enumerate() {
            let at = |h: usize, w: usize| x[(plane * s.h + h) * s.w + w];
            for (o, v) in out.iter_mut().enumerate() {
                let (oy, ox) = (o / os.w, o % os.w);
                let vals = [
                    at(2 * oy, 2 * ox),
                    at(2 * oy, 2 * ox + 1),
                    at(2 * oy + 1, 2 * ox),
                    at(2 * oy + 1, 2 * ox + 1),
                ];
                *v = match self.kind {
                    PoolKind::Max => vals.iter().copied().fold(f32::MIN, f32::max),
                    PoolKind::Avg => vals.iter().sum::<f32>() / 4.0,
                };
            }
        }
    }

    /// Backward pass: routes `dy` to the max location (max pooling) or
    /// spreads it evenly (average pooling). Needs the forward input for
    /// max routing. The allocating form of [`Self::backward_into`].
    ///
    /// # Panics
    ///
    /// Panics if shapes are inconsistent.
    pub fn backward(&self, x: &Tensor4, dy: &Tensor4) -> Tensor4 {
        assert_eq!(
            dy.shape(),
            self.output_shape(x.shape()),
            "dy must have the pooled shape"
        );
        let mut dx = Tensor4::zeros(x.shape());
        self.backward_into(x.as_slice(), x.shape(), dy.as_slice(), dx.as_mut_slice());
        dx
    }

    /// Backward pass at the NCHW map `x` of shape `s` into `dx` (NCHW,
    /// shape `s`): `dx` is zeroed, then every pooled gradient of `dy`
    /// accumulates into its window.
    ///
    /// # Panics
    ///
    /// Panics if `x` or `dx` does not have the length of `s`, or `dy` the
    /// pooled length.
    pub fn backward_into(&self, x: &[f32], s: Shape4, dy: &[f32], dx: &mut [f32]) {
        let os = self.output_shape(s);
        assert_eq!(x.len(), s.len(), "pool input length mismatch");
        assert_eq!(dy.len(), os.len(), "dy must have the pooled shape");
        assert_eq!(dx.len(), s.len(), "dx must have the input shape");
        dx.fill(0.0);
        for (plane, grads) in dy.chunks_exact((os.h * os.w).max(1)).enumerate() {
            let at = |h: usize, w: usize| (plane * s.h + h) * s.w + w;
            for (o, &g) in grads.iter().enumerate() {
                let (oy, ox) = (o / os.w, o % os.w);
                match self.kind {
                    PoolKind::Avg => {
                        for (u, v) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                            dx[at(2 * oy + u, 2 * ox + v)] += g / 4.0;
                        }
                    }
                    PoolKind::Max => {
                        let mut best = (0usize, 0usize);
                        let mut best_v = f32::MIN;
                        for (u, v) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                            let val = x[at(2 * oy + u, 2 * ox + v)];
                            if val > best_v {
                                best_v = val;
                                best = (u, v);
                            }
                        }
                        dx[at(2 * oy + best.0, 2 * ox + best.1)] += g;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmpt_tensor::DataGen;

    #[test]
    fn max_pool_selects_maxima() {
        let x = Tensor4::from_vec(
            Shape4::new(1, 1, 4, 4),
            vec![
                1.0, 2.0, 0.0, -1.0, //
                3.0, 4.0, -2.0, -3.0, //
                0.5, 0.5, 9.0, 8.0, //
                0.5, 0.5, 7.0, 6.0,
            ],
        );
        let y = Pool2x2::new(PoolKind::Max).forward(&x);
        assert_eq!(y.as_slice(), &[4.0, 0.0, 0.5, 9.0]);
    }

    #[test]
    fn avg_pool_averages() {
        let x = Tensor4::from_vec(Shape4::new(1, 1, 2, 2), vec![1.0, 2.0, 3.0, 6.0]);
        let y = Pool2x2::new(PoolKind::Avg).forward(&x);
        assert_eq!(y.as_slice(), &[3.0]);
    }

    #[test]
    fn output_shape_halves_spatial() {
        let p = Pool2x2::new(PoolKind::Max);
        assert_eq!(
            p.output_shape(Shape4::new(2, 3, 8, 6)),
            Shape4::new(2, 3, 4, 3)
        );
    }

    #[test]
    #[should_panic(expected = "even spatial")]
    fn odd_maps_rejected() {
        let p = Pool2x2::new(PoolKind::Max);
        let _ = p.output_shape(Shape4::new(1, 1, 7, 8));
    }

    #[test]
    fn max_backward_routes_to_argmax() {
        let x = Tensor4::from_vec(Shape4::new(1, 1, 2, 2), vec![1.0, 5.0, 3.0, 2.0]);
        let dy = Tensor4::from_vec(Shape4::new(1, 1, 1, 1), vec![10.0]);
        let dx = Pool2x2::new(PoolKind::Max).backward(&x, &dy);
        assert_eq!(dx.as_slice(), &[0.0, 10.0, 0.0, 0.0]);
    }

    #[test]
    fn avg_backward_spreads_evenly() {
        let x = Tensor4::zeros(Shape4::new(1, 1, 2, 2));
        let dy = Tensor4::from_vec(Shape4::new(1, 1, 1, 1), vec![8.0]);
        let dx = Pool2x2::new(PoolKind::Avg).backward(&x, &dy);
        assert_eq!(dx.as_slice(), &[2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn pool_gradients_pass_finite_difference() {
        let mut g = DataGen::new(3);
        let x = g.normal_tensor(Shape4::new(1, 2, 4, 4), 0.0, 1.0);
        let dy = g.normal_tensor(Shape4::new(1, 2, 2, 2), 0.0, 1.0);
        for kind in [PoolKind::Max, PoolKind::Avg] {
            let p = Pool2x2::new(kind);
            let dx = p.backward(&x, &dy);
            let eps = 1e-3f32;
            let mut xp = x.clone();
            for probe in [(0usize, 0usize, 0usize, 0usize), (0, 1, 3, 2), (0, 0, 2, 1)] {
                let base = x[probe];
                xp[probe] = base + eps;
                let lp: f64 = p
                    .forward(&xp)
                    .as_slice()
                    .iter()
                    .zip(dy.as_slice())
                    .map(|(a, b)| (*a as f64) * (*b as f64))
                    .sum();
                xp[probe] = base - eps;
                let lm: f64 = p
                    .forward(&xp)
                    .as_slice()
                    .iter()
                    .zip(dy.as_slice())
                    .map(|(a, b)| (*a as f64) * (*b as f64))
                    .sum();
                xp[probe] = base;
                let fd = ((lp - lm) / (2.0 * eps as f64)) as f32;
                wmpt_check::assert_approx_eq!(
                    dx[probe],
                    fd,
                    wmpt_check::Tol::abs(1e-2),
                    "{kind:?} {probe:?}"
                );
            }
        }
    }
}
