//! Winograd (Cook–Toom) transform construction and application.
//!
//! A 2-D Winograd convolution `F(m×m, r×r)` computes an `m×m` output tile
//! from a `T×T` input tile (`T = m + r - 1`) as
//!
//! ```text
//! y = Aᵀ [ (G w Gᵀ) ⊙ (Bᵀ x B) ] A          (paper Eq. 1)
//! ```
//!
//! This module provides the coefficient matrices `Aᵀ`, `G`, `Bᵀ` both as
//! the hard-coded Lavin–Gray constants the paper uses (`F(2×2,3×3)`,
//! `F(4×4,3×3)`) and through a general [Cook–Toom
//! generator](WinogradTransform::cook_toom) that works for any `(m, r)` —
//! including the `F(2×2,5×5)` and `F(2,3)` variants of §VII. The generator
//! builds `Aᵀ` and `G` from Vandermonde evaluation at distinct
//! interpolation points and recovers `Bᵀ` by solving the bilinear
//! correctness system in the least-squares sense (the system is consistent
//! by the Cook–Toom theorem; construction fails loudly if the residual is
//! not numerically zero).
//!
//! # Channel lanes
//!
//! Every 2-D application is one *sandwich* `M · X · Mᵀ`, computed by a
//! single kernel over `lanes` independent tiles at once. The tiles are
//! interleaved with the lane as the innermost, contiguous axis: input
//! element `(k, j)` of lane `l` lives at `x[(k·n + j)·lanes + l]` and
//! output element `(i, j)` at `out[(i·rows + j)·lanes + l]`. The tiling
//! kernels make the lanes a whole tile row's channels, so one call
//! transforms every channel of every tile in the row, and the lane loops
//! are plain slice loops the compiler vectorises.
//!
//! Each lane runs the same scalar f64 arithmetic in the same order for any
//! `lanes`: `tmp = M·X` starts from `0.0` and adds `M[i,k]·X[k,j]` over
//! ascending `k`, skipping zero coefficients; `out = tmp·Mᵀ` starts from
//! `0.0` and adds `tmp[i,k]·M[j,k]` over ascending `k` with no skipping,
//! then rounds to f32 once. Lanes never mix and the coefficient matrices
//! (with their transposes, built once at construction) are the same for
//! every lane, so a tile's output bits — signed zeros included — do not
//! depend on how many tiles share the call. The `Vec`-returning
//! `*_2d` forms are the `lanes = 1` case of the same kernel.

use std::fmt;

use wmpt_tensor::Matrix;

/// Error raised when a transform cannot be constructed.
#[derive(Debug, Clone, PartialEq)]
pub struct TransformBuildError {
    what: String,
}

impl fmt::Display for TransformBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot build Winograd transform: {}", self.what)
    }
}

impl std::error::Error for TransformBuildError {}

/// The coefficient matrices of a Winograd transform `F(m, r)`.
///
/// One instance describes both the 1-D transform (length-`m` output from a
/// length-`T` input) and, by nesting, the 2-D transform `F(m×m, r×r)`.
///
/// # Examples
///
/// ```
/// use wmpt_winograd::WinogradTransform;
///
/// let tf = WinogradTransform::f2x2_3x3();
/// assert_eq!((tf.m(), tf.r(), tf.t()), (2, 3, 4));
///
/// // Correlation of d = [1,2,3,4] with g = [1,1,1]:
/// let out = tf.correlate_1d(&[1.0, 2.0, 3.0, 4.0], &[1.0, 1.0, 1.0]);
/// assert!((out[0] - 6.0).abs() < 1e-5);
/// assert!((out[1] - 9.0).abs() < 1e-5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WinogradTransform {
    m: usize,
    r: usize,
    /// Inverse transform, `m × T`.
    a_t: Matrix,
    /// Weight transform, `T × r`.
    g: Matrix,
    /// Input transform, `T × T`.
    b_t: Matrix,
    /// `A` (`T × m`), the coefficients of the inverse transform's gradient.
    a: Matrix,
    /// `B` (`T × T`), the coefficients of the input transform's gradient.
    b: Matrix,
    /// `Gᵀ` (`r × T`), the coefficients of the weight transform's gradient.
    g_t: Matrix,
}

/// Reusable f64 workspace of the lane kernel
/// ([`WinogradTransform::input_lanes`] and friends). Keep one per thread
/// and pass it to every call: once it has grown to the largest tile it
/// sees, the kernel allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct TileScratch {
    /// `M·X`, `rows × n × lanes`.
    tmp: Vec<f64>,
    /// One output element's f64 sums, `lanes` long.
    acc: Vec<f64>,
}

impl WinogradTransform {
    /// Assembles a transform from its three coefficient matrices and
    /// precomputes the transposes the gradient forms apply.
    fn from_matrices(m: usize, r: usize, a_t: Matrix, g: Matrix, b_t: Matrix) -> Self {
        Self {
            m,
            r,
            a: a_t.transpose(),
            b: b_t.transpose(),
            g_t: g.transpose(),
            a_t,
            g,
            b_t,
        }
    }

    /// Output tile size `m` (per dimension).
    pub fn m(&self) -> usize {
        self.m
    }

    /// Weight (filter) size `r` (per dimension).
    pub fn r(&self) -> usize {
        self.r
    }

    /// Input tile size `T = m + r - 1` (per dimension).
    pub fn t(&self) -> usize {
        self.m + self.r - 1
    }

    /// The inverse-transform matrix `Aᵀ` (`m × T`).
    pub fn a_t(&self) -> &Matrix {
        &self.a_t
    }

    /// The weight-transform matrix `G` (`T × r`).
    pub fn g(&self) -> &Matrix {
        &self.g
    }

    /// The input-transform matrix `Bᵀ` (`T × T`).
    pub fn b_t(&self) -> &Matrix {
        &self.b_t
    }

    /// The Lavin–Gray `F(2×2, 3×3)` transform (tile size 4×4) used by the
    /// paper's multi-group MPT configurations.
    pub fn f2x2_3x3() -> Self {
        let a_t = Matrix::from_rows(&[&[1.0, 1.0, 1.0, 0.0], &[0.0, 1.0, -1.0, -1.0]]);
        let g = Matrix::from_rows(&[
            &[1.0, 0.0, 0.0],
            &[0.5, 0.5, 0.5],
            &[0.5, -0.5, 0.5],
            &[0.0, 0.0, 1.0],
        ]);
        let b_t = Matrix::from_rows(&[
            &[1.0, 0.0, -1.0, 0.0],
            &[0.0, 1.0, 1.0, 0.0],
            &[0.0, -1.0, 1.0, 0.0],
            &[0.0, 1.0, 0.0, -1.0],
        ]);
        Self::from_matrices(2, 3, a_t, g, b_t)
    }

    /// The Lavin–Gray `F(4×4, 3×3)` transform (tile size 6×6) used by the
    /// paper's single-group configuration to further cut computation.
    pub fn f4x4_3x3() -> Self {
        let a_t = Matrix::from_rows(&[
            &[1.0, 1.0, 1.0, 1.0, 1.0, 0.0],
            &[0.0, 1.0, -1.0, 2.0, -2.0, 0.0],
            &[0.0, 1.0, 1.0, 4.0, 4.0, 0.0],
            &[0.0, 1.0, -1.0, 8.0, -8.0, 1.0],
        ]);
        let g = Matrix::from_rows(&[
            &[0.25, 0.0, 0.0],
            &[-1.0 / 6.0, -1.0 / 6.0, -1.0 / 6.0],
            &[-1.0 / 6.0, 1.0 / 6.0, -1.0 / 6.0],
            &[1.0 / 24.0, 1.0 / 12.0, 1.0 / 6.0],
            &[1.0 / 24.0, -1.0 / 12.0, 1.0 / 6.0],
            &[0.0, 0.0, 1.0],
        ]);
        let b_t = Matrix::from_rows(&[
            &[4.0, 0.0, -5.0, 0.0, 1.0, 0.0],
            &[0.0, -4.0, -4.0, 1.0, 1.0, 0.0],
            &[0.0, 4.0, -4.0, -1.0, 1.0, 0.0],
            &[0.0, -2.0, -1.0, 2.0, 1.0, 0.0],
            &[0.0, 2.0, -1.0, -2.0, 1.0, 0.0],
            &[0.0, 4.0, 0.0, -5.0, 0.0, 1.0],
        ]);
        Self::from_matrices(4, 3, a_t, g, b_t)
    }

    /// `F(2×2, 5×5)` (tile size 6×6), used by the paper's §VII-B study of
    /// 5×5 weights. Generated by Cook–Toom with the standard point set.
    ///
    /// # Panics
    ///
    /// Never panics for these fixed parameters (covered by tests).
    pub fn f2x2_5x5() -> Self {
        Self::cook_toom(2, 5).expect("F(2,5) construction is well defined")
    }

    /// `F(2, 3)` as a 1-D transform (tile size 4×1) for 3×1 weights (§VII-B).
    /// Identical matrices to [`Self::f2x2_3x3`]; provided for clarity at
    /// call sites that apply it one-dimensionally.
    pub fn f2_3() -> Self {
        Self::f2x2_3x3()
    }

    /// Builds `F(m, r)` by Cook–Toom interpolation with the default point
    /// set `0, 1, -1, 2, -2, 1/2, -1/2, 4, -4, …` (plus the point at
    /// infinity).
    ///
    /// # Errors
    ///
    /// Returns [`TransformBuildError`] if `m < 1`, `r < 1`, or the
    /// correctness system cannot be solved to numerical precision.
    pub fn cook_toom(m: usize, r: usize) -> Result<Self, TransformBuildError> {
        let t = m + r - 1;
        if m == 0 || r == 0 {
            return Err(TransformBuildError {
                what: "m and r must be >= 1".into(),
            });
        }
        let points = default_points(t - 1);
        Self::cook_toom_with_points(m, r, &points)
    }

    /// Builds `F(m, r)` from caller-supplied finite interpolation points
    /// (the point at infinity is always appended). `points.len()` must be
    /// `m + r - 2`.
    ///
    /// # Errors
    ///
    /// Returns [`TransformBuildError`] when the point count is wrong, the
    /// points are not distinct, or the recovered `Bᵀ` does not satisfy the
    /// Winograd identity to `1e-6`.
    pub fn cook_toom_with_points(
        m: usize,
        r: usize,
        points: &[f64],
    ) -> Result<Self, TransformBuildError> {
        let t = m + r - 1;
        if points.len() != t - 1 {
            return Err(TransformBuildError {
                what: format!(
                    "need {} finite points for F({m},{r}), got {}",
                    t - 1,
                    points.len()
                ),
            });
        }
        for (i, a) in points.iter().enumerate() {
            for b in &points[i + 1..] {
                if (a - b).abs() < 1e-12 {
                    return Err(TransformBuildError {
                        what: "interpolation points must be distinct".into(),
                    });
                }
            }
        }

        // Aᵀ: evaluation of the output polynomial at each point (powers
        // 0..m-1); the infinity point contributes the highest coefficient.
        let mut a_t = Matrix::zeros(m, t);
        for (i, p) in points.iter().enumerate() {
            let mut pw = 1.0;
            for j in 0..m {
                a_t[(j, i)] = pw;
                pw *= p;
            }
        }
        a_t[(m - 1, t - 1)] = 1.0;

        // G: evaluation of the filter polynomial scaled by the Lagrange
        // normalizer Nᵢ = Π_{j≠i}(pᵢ - pⱼ).
        let mut g = Matrix::zeros(t, r);
        for (i, p) in points.iter().enumerate() {
            let mut n_i = 1.0;
            for (j, q) in points.iter().enumerate() {
                if i != j {
                    n_i *= p - q;
                }
            }
            let mut pw = 1.0;
            for k in 0..r {
                g[(i, k)] = pw / n_i;
                pw *= p;
            }
        }
        g[(t - 1, r - 1)] = 1.0;

        // Recover Bᵀ column by column from the bilinear correctness
        // condition: for basis inputs d = e_s and filters g = e_k,
        //   Σ_i Aᵀ[j,i] · G[i,k] · Bᵀ[i,s] = δ_{j+k,s}.
        let mut sys = Matrix::zeros(m * r, t);
        for j in 0..m {
            for k in 0..r {
                for i in 0..t {
                    sys[(j * r + k, i)] = a_t[(j, i)] * g[(i, k)];
                }
            }
        }
        let mut b_t = Matrix::zeros(t, t);
        for s in 0..t {
            let mut rhs = vec![0.0; m * r];
            for j in 0..m {
                for k in 0..r {
                    if j + k == s {
                        rhs[j * r + k] = 1.0;
                    }
                }
            }
            let col = sys.lstsq(&rhs).map_err(|e| TransformBuildError {
                what: format!("B recovery failed: {e}"),
            })?;
            for i in 0..t {
                b_t[(i, s)] = snap(col[i]);
            }
        }

        let tf = Self::from_matrices(m, r, a_t, g, b_t);
        let resid = tf.identity_residual();
        if resid > 1e-6 {
            return Err(TransformBuildError {
                what: format!("Winograd identity residual too large: {resid:e}"),
            });
        }
        Ok(tf)
    }

    /// Maximum absolute deviation of `Aᵀ[(G e_k) ⊙ (Bᵀ e_s)]` from the exact
    /// 1-D correlation over all basis pairs — zero (to FP precision) for a
    /// valid transform.
    pub fn identity_residual(&self) -> f64 {
        let (m, r, t) = (self.m, self.r, self.t());
        let mut worst = 0.0f64;
        for s in 0..t {
            for k in 0..r {
                let mut d = vec![0.0; t];
                d[s] = 1.0;
                let mut g = vec![0.0; r];
                g[k] = 1.0;
                let bd = self.b_t.matvec(&d);
                let gg = self.g.matvec(&g);
                let prod: Vec<f64> = bd.iter().zip(&gg).map(|(a, b)| a * b).collect();
                let y = self.a_t.matvec(&prod);
                for (j, yj) in y.iter().enumerate().take(m) {
                    let expect = if j + k == s { 1.0 } else { 0.0 };
                    worst = worst.max((yj - expect).abs());
                }
            }
        }
        worst
    }

    // ---- 1-D applications (f32 data, f64 accumulation) ----

    /// 1-D weight transform `G·w` (`r` values → `T` values).
    ///
    /// # Panics
    ///
    /// Panics if `w.len() != r`.
    pub fn weight_1d(&self, w: &[f32]) -> Vec<f32> {
        assert_eq!(w.len(), self.r, "weight_1d expects r values");
        apply(&self.g, w)
    }

    /// 1-D input transform `Bᵀ·d` (`T` values → `T` values).
    ///
    /// # Panics
    ///
    /// Panics if `d.len() != T`.
    pub fn input_1d(&self, d: &[f32]) -> Vec<f32> {
        assert_eq!(d.len(), self.t(), "input_1d expects T values");
        apply(&self.b_t, d)
    }

    /// 1-D inverse transform `Aᵀ·Y` (`T` values → `m` values).
    ///
    /// # Panics
    ///
    /// Panics if `y.len() != T`.
    pub fn inverse_1d(&self, y: &[f32]) -> Vec<f32> {
        assert_eq!(y.len(), self.t(), "inverse_1d expects T values");
        apply(&self.a_t, y)
    }

    /// Full 1-D Winograd correlation of a length-`T` signal with a
    /// length-`r` filter, producing `m` outputs. Reference for tests.
    ///
    /// # Panics
    ///
    /// Panics on wrong input lengths.
    pub fn correlate_1d(&self, d: &[f32], g: &[f32]) -> Vec<f32> {
        let gd = self.weight_1d(g);
        let bd = self.input_1d(d);
        let prod: Vec<f32> = gd.iter().zip(&bd).map(|(a, b)| a * b).collect();
        self.inverse_1d(&prod)
    }

    // ---- 2-D applications on row-major square tiles ----

    /// 2-D weight transform `G w Gᵀ` (`r×r` → `T×T`).
    ///
    /// # Panics
    ///
    /// Panics if `w.len() != r*r`.
    pub fn weight_2d(&self, w: &[f32]) -> Vec<f32> {
        one_lane(&self.g, w)
    }

    /// 2-D input transform `Bᵀ x B` (`T×T` → `T×T`).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != T*T`.
    pub fn input_2d(&self, x: &[f32]) -> Vec<f32> {
        one_lane(&self.b_t, x)
    }

    /// 2-D inverse transform `Aᵀ Y A` (`T×T` → `m×m`).
    ///
    /// # Panics
    ///
    /// Panics if `y.len() != T*T`.
    pub fn inverse_2d(&self, y: &[f32]) -> Vec<f32> {
        one_lane(&self.a_t, y)
    }

    /// Gradient of the 2-D inverse transform: pushes an `m×m` output-tile
    /// gradient back to the `T×T` Winograd domain (`A ∂y Aᵀ`).
    ///
    /// # Panics
    ///
    /// Panics if `dy.len() != m*m`.
    pub fn inverse_2d_grad(&self, dy: &[f32]) -> Vec<f32> {
        one_lane(&self.a, dy)
    }

    /// Gradient of the 2-D input transform: pushes a `T×T` Winograd-domain
    /// input gradient back to the spatial tile (`B ∂X Bᵀ`).
    ///
    /// # Panics
    ///
    /// Panics if `dx.len() != T*T`.
    pub fn input_2d_grad(&self, dx: &[f32]) -> Vec<f32> {
        one_lane(&self.b, dx)
    }

    /// Maps a Winograd-domain weight gradient (`T×T`) to the spatial weight
    /// gradient (`r×r`): `Gᵀ ∂W G` (chain rule through `W = G w Gᵀ`).
    ///
    /// # Panics
    ///
    /// Panics if `dw.len() != T*T`.
    pub fn weight_2d_grad(&self, dw: &[f32]) -> Vec<f32> {
        one_lane(&self.g_t, dw)
    }

    // ---- the same applications on `lanes` interleaved tiles ----

    /// [`Self::weight_2d`] of `lanes` interleaved `r×r` filters into
    /// `lanes` interleaved `T×T` tiles (layout in the module docs).
    ///
    /// # Panics
    ///
    /// Panics if `w.len() != r*r*lanes` or `out.len() != T*T*lanes`.
    pub fn weight_lanes(
        &self,
        w: &[f32],
        lanes: usize,
        scratch: &mut TileScratch,
        out: &mut [f32],
    ) {
        sandwich_lanes(&self.g, w, lanes, scratch, out);
    }

    /// [`Self::input_2d`] of `lanes` interleaved `T×T` tiles.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` or `out.len()` is not `T*T*lanes`.
    pub fn input_lanes(&self, x: &[f32], lanes: usize, scratch: &mut TileScratch, out: &mut [f32]) {
        sandwich_lanes(&self.b_t, x, lanes, scratch, out);
    }

    /// [`Self::inverse_2d`] of `lanes` interleaved `T×T` tiles into
    /// `lanes` interleaved `m×m` tiles.
    ///
    /// # Panics
    ///
    /// Panics if `y.len() != T*T*lanes` or `out.len() != m*m*lanes`.
    pub fn inverse_lanes(
        &self,
        y: &[f32],
        lanes: usize,
        scratch: &mut TileScratch,
        out: &mut [f32],
    ) {
        sandwich_lanes(&self.a_t, y, lanes, scratch, out);
    }

    /// [`Self::inverse_2d_grad`] of `lanes` interleaved `m×m` tiles into
    /// `lanes` interleaved `T×T` tiles.
    ///
    /// # Panics
    ///
    /// Panics if `dy.len() != m*m*lanes` or `out.len() != T*T*lanes`.
    pub fn inverse_grad_lanes(
        &self,
        dy: &[f32],
        lanes: usize,
        scratch: &mut TileScratch,
        out: &mut [f32],
    ) {
        sandwich_lanes(&self.a, dy, lanes, scratch, out);
    }

    /// [`Self::input_2d_grad`] of `lanes` interleaved `T×T` tiles.
    ///
    /// # Panics
    ///
    /// Panics if `dx.len()` or `out.len()` is not `T*T*lanes`.
    pub fn input_grad_lanes(
        &self,
        dx: &[f32],
        lanes: usize,
        scratch: &mut TileScratch,
        out: &mut [f32],
    ) {
        sandwich_lanes(&self.b, dx, lanes, scratch, out);
    }

    /// [`Self::weight_2d_grad`] of `lanes` interleaved `T×T` tiles into
    /// `lanes` interleaved `r×r` filters.
    ///
    /// # Panics
    ///
    /// Panics if `dw.len() != T*T*lanes` or `out.len() != r*r*lanes`.
    pub fn weight_grad_lanes(
        &self,
        dw: &[f32],
        lanes: usize,
        scratch: &mut TileScratch,
        out: &mut [f32],
    ) {
        sandwich_lanes(&self.g_t, dw, lanes, scratch, out);
    }

    /// Theoretical multiplication reduction of the 2-D transform versus
    /// direct convolution: `(m·r)² / T²` (e.g. 4× for `F(4×4,3×3)` in 1-D,
    /// `2.25×` for `F(2×2,3×3)` in 2-D... computed exactly here).
    pub fn mul_reduction_2d(&self) -> f64 {
        let t = self.t() as f64;
        let m = self.m as f64;
        let r = self.r as f64;
        (m * m * r * r) / (t * t)
    }
}

impl fmt::Display for WinogradTransform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "F({0}x{0}, {1}x{1}) [T={2}]", self.m, self.r, self.t())
    }
}

/// The conventional Cook–Toom point sequence: 0, ±1, ±2, ±1/2, ±4, ±1/4 …
/// Magnitudes alternate powers of two and their reciprocals to keep the
/// Vandermonde system well conditioned.
fn default_points(n: usize) -> Vec<f64> {
    let mut pts = Vec::with_capacity(n);
    pts.push(0.0);
    let mags = [1.0, 2.0, 0.5, 4.0, 0.25, 8.0, 0.125, 16.0, 0.0625];
    'outer: for mag in mags {
        for sign in [1.0, -1.0] {
            if pts.len() >= n {
                break 'outer;
            }
            pts.push(sign * mag);
        }
    }
    assert!(
        pts.len() >= n,
        "default point table exhausted (transform too large)"
    );
    pts.truncate(n);
    pts
}

/// Snaps a solver output to the nearest small rational (denominator
/// dividing 5040) when it is within 1e-8, removing numerical fuzz from
/// generated matrices.
fn snap(v: f64) -> f64 {
    const DEN: f64 = 5040.0;
    let scaled = v * DEN;
    let near = scaled.round();
    if (scaled - near).abs() < 1e-6 * DEN.max(scaled.abs()) && (scaled - near).abs() < 1e-4 {
        near / DEN
    } else {
        v
    }
}

/// `mat · v` with f32 I/O and f64 accumulation.
fn apply(mat: &Matrix, v: &[f32]) -> Vec<f32> {
    (0..mat.rows())
        .map(|i| {
            mat.row(i)
                .iter()
                .zip(v)
                .map(|(a, b)| a * *b as f64)
                .sum::<f64>() as f32
        })
        .collect()
}

/// The `lanes = 1` sandwich `M · X · Mᵀ` into a fresh `Vec`.
fn one_lane(m: &Matrix, x: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0f32; m.rows() * m.rows()];
    sandwich_lanes(m, x, 1, &mut TileScratch::default(), &mut out);
    out
}

/// Computes `M · X · Mᵀ` for `lanes` interleaved tiles at once, where `M`
/// is `rows×n`, `X` is `n×n` f32 (`x[(k·n + j)·lanes + l]`) and the result
/// is `rows×rows` f32 (`out[(i·rows + j)·lanes + l]`). Per lane the f64
/// arithmetic and its order are fixed (module docs), so the bits do not
/// depend on `lanes`.
fn sandwich_lanes(m: &Matrix, x: &[f32], lanes: usize, scratch: &mut TileScratch, out: &mut [f32]) {
    let (rows, n) = (m.rows(), m.cols());
    let coef = m.as_slice();
    assert_eq!(
        x.len(),
        n * n * lanes,
        "tile input must hold n*n*lanes values"
    );
    assert_eq!(
        out.len(),
        rows * rows * lanes,
        "tile output must hold rows*rows*lanes values"
    );
    let TileScratch { tmp, acc } = scratch;
    // tmp = M * X (rows x n x lanes); row k of X is one contiguous run.
    let run = n * lanes;
    tmp.clear();
    tmp.resize(rows * run, 0.0);
    for i in 0..rows {
        let tmp_i = &mut tmp[i * run..(i + 1) * run];
        for k in 0..n {
            let a = coef[i * n + k];
            if a == 0.0 {
                continue;
            }
            for (t, v) in tmp_i.iter_mut().zip(&x[k * run..(k + 1) * run]) {
                *t += a * *v as f64;
            }
        }
    }
    // out = tmp * Mᵀ (rows x rows x lanes)
    acc.resize(lanes, 0.0);
    for i in 0..rows {
        for j in 0..rows {
            acc.fill(0.0);
            for k in 0..n {
                let c = coef[j * n + k];
                let at = (i * n + k) * lanes;
                for (s, t) in acc.iter_mut().zip(&tmp[at..at + lanes]) {
                    *s += t * c;
                }
            }
            let at = (i * rows + j) * lanes;
            for (o, s) in out[at..at + lanes].iter_mut().zip(acc.iter()) {
                *o = *s as f32;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmpt_check::Tol;

    /// Direct 1-D valid correlation reference.
    fn corr_1d(d: &[f32], g: &[f32]) -> Vec<f32> {
        let m = d.len() - g.len() + 1;
        (0..m)
            .map(|i| g.iter().enumerate().map(|(k, gk)| d[i + k] * gk).sum())
            .collect()
    }

    fn check_1d(tf: &WinogradTransform, tol: Tol) {
        let t = tf.t();
        let d: Vec<f32> = (0..t).map(|i| (i as f32 * 0.7 - 1.3).sin()).collect();
        let g: Vec<f32> = (0..tf.r()).map(|i| (i as f32 * 1.1 + 0.2).cos()).collect();
        let got = tf.correlate_1d(&d, &g);
        let want = corr_1d(&d, &g);
        for (a, b) in got.iter().zip(&want) {
            wmpt_check::assert_approx_eq!(*a, *b, tol, "{tf}");
        }
    }

    #[test]
    fn lavin_f2x2_3x3_computes_correlation() {
        check_1d(&WinogradTransform::f2x2_3x3(), Tol::WINOGRAD_F32);
    }

    #[test]
    fn lavin_f4x4_3x3_computes_correlation() {
        check_1d(&WinogradTransform::f4x4_3x3(), Tol::CONV_F32);
    }

    #[test]
    fn lavin_matrices_have_zero_identity_residual() {
        assert!(WinogradTransform::f2x2_3x3().identity_residual() < 1e-12);
        assert!(WinogradTransform::f4x4_3x3().identity_residual() < 1e-12);
    }

    #[test]
    fn cook_toom_reproduces_known_sizes() {
        for (m, r) in [(2, 3), (4, 3), (2, 5), (3, 3), (6, 3), (4, 5), (2, 7)] {
            let tf =
                WinogradTransform::cook_toom(m, r).unwrap_or_else(|e| panic!("F({m},{r}): {e}"));
            assert_eq!(tf.t(), m + r - 1);
            assert!(tf.identity_residual() < 1e-6, "F({m},{r}) residual");
            check_1d(&tf, Tol::CONV_WIDE_F32);
        }
    }

    #[test]
    fn f2x2_5x5_has_tile_size_6() {
        let tf = WinogradTransform::f2x2_5x5();
        assert_eq!(tf.t(), 6);
        check_1d(&tf, Tol::CONV_F32);
    }

    #[test]
    fn cook_toom_rejects_bad_inputs() {
        assert!(WinogradTransform::cook_toom_with_points(2, 3, &[0.0, 1.0]).is_err());
        assert!(WinogradTransform::cook_toom_with_points(2, 3, &[0.0, 1.0, 1.0]).is_err());
    }

    #[test]
    fn weight_2d_shape_and_linearity() {
        let tf = WinogradTransform::f2x2_3x3();
        let w: Vec<f32> = (0..9).map(|i| i as f32 * 0.1).collect();
        let tw = tf.weight_2d(&w);
        assert_eq!(tw.len(), 16);
        // Linearity: transform(2w) = 2 transform(w)
        let w2: Vec<f32> = w.iter().map(|v| 2.0 * v).collect();
        let tw2 = tf.weight_2d(&w2);
        for (a, b) in tw.iter().zip(&tw2) {
            wmpt_check::assert_approx_eq!(2.0 * a, *b, Tol::F32_TIGHT);
        }
    }

    #[test]
    fn full_2d_pipeline_matches_direct_correlation() {
        for tf in [
            WinogradTransform::f2x2_3x3(),
            WinogradTransform::f4x4_3x3(),
            WinogradTransform::f2x2_5x5(),
        ] {
            let t = tf.t();
            let m = tf.m();
            let r = tf.r();
            let x: Vec<f32> = (0..t * t)
                .map(|i| ((i * 7 % 11) as f32 - 5.0) * 0.3)
                .collect();
            let w: Vec<f32> = (0..r * r)
                .map(|i| ((i * 5 % 7) as f32 - 3.0) * 0.2)
                .collect();
            let wx = tf.input_2d(&x);
            let ww = tf.weight_2d(&w);
            let prod: Vec<f32> = wx.iter().zip(&ww).map(|(a, b)| a * b).collect();
            let y = tf.inverse_2d(&prod);
            assert_eq!(y.len(), m * m);
            // Direct 2-D valid correlation.
            for oy in 0..m {
                for ox in 0..m {
                    let mut s = 0.0f32;
                    for ky in 0..r {
                        for kx in 0..r {
                            s += x[(oy + ky) * t + ox + kx] * w[ky * r + kx];
                        }
                    }
                    let got = y[oy * m + ox];
                    wmpt_check::assert_approx_eq!(got, s, Tol::CONV_WIDE_F32, "{tf} @({oy},{ox})");
                }
            }
        }
    }

    #[test]
    fn inverse_grad_is_transpose_of_inverse() {
        // <A^T Y A, dy> == <Y, A dy A^T> for all Y, dy (adjoint property).
        let tf = WinogradTransform::f2x2_3x3();
        let t = tf.t();
        let m = tf.m();
        let y: Vec<f32> = (0..t * t).map(|i| (i as f32).sin()).collect();
        let dy: Vec<f32> = (0..m * m).map(|i| (i as f32 + 0.5).cos()).collect();
        let fwd = tf.inverse_2d(&y);
        let bwd = tf.inverse_2d_grad(&dy);
        let lhs: f32 = fwd.iter().zip(&dy).map(|(a, b)| a * b).sum();
        let rhs: f32 = y.iter().zip(&bwd).map(|(a, b)| a * b).sum();
        wmpt_check::assert_approx_eq!(lhs, rhs, Tol::CONV_F32);
    }

    #[test]
    fn input_grad_is_transpose_of_input() {
        let tf = WinogradTransform::f4x4_3x3();
        let t = tf.t();
        let x: Vec<f32> = (0..t * t).map(|i| (i as f32 * 0.3).sin()).collect();
        let dx: Vec<f32> = (0..t * t).map(|i| (i as f32 * 0.7).cos()).collect();
        let lhs: f32 = tf.input_2d(&x).iter().zip(&dx).map(|(a, b)| a * b).sum();
        let rhs: f32 = x
            .iter()
            .zip(&tf.input_2d_grad(&dx))
            .map(|(a, b)| a * b)
            .sum();
        wmpt_check::assert_approx_eq!(lhs, rhs, Tol::CONV_F32);
    }

    #[test]
    fn weight_grad_is_transpose_of_weight_transform() {
        let tf = WinogradTransform::f2x2_3x3();
        let t = tf.t();
        let r = tf.r();
        let w: Vec<f32> = (0..r * r).map(|i| (i as f32 * 0.9).sin()).collect();
        let dw: Vec<f32> = (0..t * t).map(|i| (i as f32 * 0.4).cos()).collect();
        let lhs: f32 = tf.weight_2d(&w).iter().zip(&dw).map(|(a, b)| a * b).sum();
        let rhs: f32 = w
            .iter()
            .zip(&tf.weight_2d_grad(&dw))
            .map(|(a, b)| a * b)
            .sum();
        wmpt_check::assert_approx_eq!(lhs, rhs, Tol::CONV_F32);
    }

    #[test]
    fn mul_reduction_matches_theory() {
        // F(2x2,3x3): 36 muls direct vs 16 -> 2.25x
        let tf = WinogradTransform::f2x2_3x3();
        wmpt_check::assert_approx_eq!(tf.mul_reduction_2d(), 2.25, Tol::F64_TIGHT);
        // F(4x4,3x3): 144 vs 36 -> 4x
        let tf = WinogradTransform::f4x4_3x3();
        wmpt_check::assert_approx_eq!(tf.mul_reduction_2d(), 4.0, Tol::F64_TIGHT);
    }

    #[test]
    fn display_formats_signature() {
        assert_eq!(
            WinogradTransform::f2x2_3x3().to_string(),
            "F(2x2, 3x3) [T=4]"
        );
    }
}
