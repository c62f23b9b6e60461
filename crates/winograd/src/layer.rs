//! Winograd-transformed convolution and the *Winograd layer*.
//!
//! Two training styles from the paper's Figure 2:
//!
//! * [`WinogradConv`] — Fig 2(a): weights live in the *spatial* domain and
//!   are transformed on the fly; `updateGrad` produces spatial `∂w`
//!   (`Gᵀ ∂W G`). This is the `w_dp` baseline.
//! * [`WinogradLayer`] — Fig 2(b), ref. \[29\]: weights are *resident in the
//!   Winograd domain* and updated there, which is what makes MPT's
//!   group-partitioned weight storage possible (each group only ever
//!   touches its own tile elements `W_(u,v)`).

use std::cell::RefCell;

use wmpt_par::ParPool;
use wmpt_tensor::ops::{gemm_f32_into, gemm_f32_packed_rows, pack_b_into, PackedB, GEMM_ROW_CHUNK};
use wmpt_tensor::{Shape4, Tensor4};

use crate::tiling::{
    from_winograd_output_par, input_grad_to_spatial_par, output_grad_to_winograd_par,
    to_winograd_input_par, weights_to_winograd, WgTensor, WgWeights,
};
use crate::transform::TileScratch;
use crate::WinogradTransform;

/// Distributes the batched element-wise GEMM across the pool in global
/// [`GEMM_ROW_CHUNK`]-row bands over the *whole* output `out` (all `T²`
/// element matrices of `tiles × n` concatenated), against per-element
/// pre-packed `B` panels; `a` holds the `T²` element matrices of
/// `tiles × chans`.
///
/// Chunk boundaries depend only on the output shape — never the element
/// grid — so a band may straddle element boundaries; each band dispatches
/// its sub-range of rows per element against that element's packed
/// panels. One pool scope per call (instead of one per element) and one
/// packing pass per element (shared by every band) keep the dispatch
/// overhead independent of `T²`. Every output element still runs the
/// blocked kernel's reference reduction order, so each element matrix is
/// bit-identical to [`gemm_f32_ref`](wmpt_tensor::ops::gemm_f32_ref) on
/// that element, for any job count.
fn batched_elem_gemm(
    pool: &ParPool,
    a: &[f32],
    tiles: usize,
    chans: usize,
    packed: &[PackedB],
    out: &mut [f32],
) {
    let n = packed.first().map_or(0, |p| p.n);
    let elem = tiles * chans;
    pool.for_each_chunk_mut(out, GEMM_ROW_CHUNK * n, |ci, band| {
        let mut row = ci * GEMM_ROW_CHUNK;
        let end = row + band.len() / n;
        let mut off = 0;
        while row < end {
            let e = row / tiles;
            let local = row % tiles;
            let take = (tiles - local).min(end - row);
            gemm_f32_packed_rows(
                &a[e * elem..(e + 1) * elem],
                tiles,
                chans,
                false,
                &packed[e],
                &mut band[off * n..(off + take) * n],
                local,
            );
            row += take;
            off += take;
        }
    });
}

/// Packs every element matrix of `w` (transposed when `tw`) into the
/// first `T²` entries of `packed`, growing it when it is shorter.
fn pack_elems<'p>(packed: &'p mut Vec<PackedB>, w: &WgWeights, tw: bool) -> &'p [PackedB] {
    if packed.len() < w.elems {
        packed.resize_with(w.elems, PackedB::default);
    }
    let (k, n) = if tw {
        (w.out_chans, w.in_chans)
    } else {
        (w.in_chans, w.out_chans)
    };
    for (e, bp) in packed[..w.elems].iter_mut().enumerate() {
        pack_b_into(bp, w.elem_matrix(e), k, n, tw);
    }
    &packed[..w.elems]
}

/// Element-wise batched GEMM over tile elements: `Y_e = X_e · W_e` for
/// every `e ∈ 0..T²` (the paper's Eq. 2). `X_e` is `tiles × I`, `W_e` is
/// `I × J`, `Y_e` is `tiles × J`: the allocating form of
/// [`elementwise_gemm_into`].
///
/// # Panics
///
/// Panics if element counts or channel counts disagree.
pub fn elementwise_gemm_par(pool: &ParPool, x: &WgTensor, w: &WgWeights) -> WgTensor {
    assert_eq!(x.elems, w.elems, "tile-element count mismatch");
    assert_eq!(x.chans, w.in_chans, "channel mismatch");
    let mut out = WgTensor::zeros(x.elems, x.tiles, w.out_chans);
    elementwise_gemm_into(pool, &x.data, x.tiles, w, &mut Vec::new(), &mut out.data);
    out
}

/// `Y_e = X_e · W_e` for every element `e` of `w`, with `x` and `out` the
/// element-major matrices of `tiles` rows (as in [`WgTensor::data`]),
/// writing every value of `out`. The weights are packed into `packed`
/// (reused across calls), and the `T²` element GEMMs run as one batched
/// fat GEMM: the concatenated output fans out across the pool in fixed
/// global row bands, all `T²` elements in one pool scope. The bits are
/// the same for any job count.
///
/// # Panics
///
/// Panics if `x` or `out` does not have the length `tiles` and `w` imply.
pub fn elementwise_gemm_into(
    pool: &ParPool,
    x: &[f32],
    tiles: usize,
    w: &WgWeights,
    packed: &mut Vec<PackedB>,
    out: &mut [f32],
) {
    assert_eq!(
        x.len(),
        w.elems * tiles * w.in_chans,
        "input length mismatch"
    );
    assert_eq!(
        out.len(),
        w.elems * tiles * w.out_chans,
        "output length mismatch"
    );
    let packed = pack_elems(packed, w, false);
    batched_elem_gemm(pool, x, tiles, w.in_chans, packed, out);
}

/// Element-wise `∂X_e = ∂Y_e · W_eᵀ`: the allocating form of
/// [`elementwise_gemm_bprop_into`].
///
/// # Panics
///
/// Panics if element counts or channel counts disagree.
pub fn elementwise_gemm_bprop_par(pool: &ParPool, dy: &WgTensor, w: &WgWeights) -> WgTensor {
    assert_eq!(dy.elems, w.elems, "tile-element count mismatch");
    assert_eq!(dy.chans, w.out_chans, "channel mismatch");
    let mut out = WgTensor::zeros(dy.elems, dy.tiles, w.in_chans);
    elementwise_gemm_bprop_into(pool, &dy.data, dy.tiles, w, &mut Vec::new(), &mut out.data);
    out
}

/// `∂X_e = ∂Y_e · W_eᵀ` for every element `e` of `w` (same batched
/// contract as [`elementwise_gemm_into`]; the weights are packed
/// transposed).
///
/// # Panics
///
/// Panics if `dy` or `out` does not have the length `tiles` and `w` imply.
pub fn elementwise_gemm_bprop_into(
    pool: &ParPool,
    dy: &[f32],
    tiles: usize,
    w: &WgWeights,
    packed: &mut Vec<PackedB>,
    out: &mut [f32],
) {
    assert_eq!(
        dy.len(),
        w.elems * tiles * w.out_chans,
        "input length mismatch"
    );
    assert_eq!(
        out.len(),
        w.elems * tiles * w.in_chans,
        "output length mismatch"
    );
    // dX (tiles x I) = dY (tiles x J) * W^T (J x I): pack W_e transposed.
    let packed = pack_elems(packed, w, true);
    batched_elem_gemm(pool, dy, tiles, w.out_chans, packed, out);
}

/// Per-thread buffers of the weight-gradient GEMMs: a later cluster's
/// partial sum and the packed `∂Y` panels.
#[derive(Default)]
struct WgradScratch {
    part: Vec<f32>,
    packed: PackedB,
}

thread_local! {
    static WGRAD: RefCell<WgradScratch> = RefCell::new(WgradScratch::default());
}

/// Element-wise weight gradient `∇W_e = Σ_c X_e[c]ᵀ · ∂Y_e[c]` of the
/// `updateGrad` phase over `n_c` clusters: the allocating form of
/// [`elementwise_gemm_wgrad_into`].
///
/// # Panics
///
/// Panics if element or tile counts disagree, or if the tiles do not
/// divide into `n_c` clusters.
pub fn elementwise_gemm_wgrad_par(
    pool: &ParPool,
    x: &WgTensor,
    dy: &WgTensor,
    n_c: usize,
) -> WgWeights {
    assert_eq!(x.elems, dy.elems, "tile-element count mismatch");
    assert_eq!(x.tiles, dy.tiles, "tile count mismatch");
    let mut dw = WgWeights::zeros(x.elems, x.chans, dy.chans);
    elementwise_gemm_wgrad_into(pool, &x.data, &dy.data, x.tiles, n_c, &mut dw);
    dw
}

/// Element-wise weight gradient `∇W_e = Σ_c X_e[c]ᵀ · ∂Y_e[c]` into `dw`
/// (every value written), with `x` and `dy` the element-major matrices
/// of `tiles` rows and the tile rows split into `n_c` equal contiguous
/// clusters (`X_e[c]` is cluster `c`'s rows of `X_e`).
///
/// The `T²` elements fan out across the pool, one `I × J` output chunk
/// each. Within an element, the `n_c` cluster GEMMs run on the claiming
/// thread, and their f32 results are summed in ascending `c`: the
/// order in which each MPT group's ring reduction visits its clusters.
/// Cluster `0` writes the total directly, so `n_c = 1` is the
/// centralized gradient, bit-identical to
/// [`gemm_f32_ref`](wmpt_tensor::ops::gemm_f32_ref) on each element. The
/// bits are the same for any job count.
///
/// # Panics
///
/// Panics if `x` or `dy` does not have the length `tiles` and `dw`
/// imply, or if the tiles do not divide into `n_c` clusters.
pub fn elementwise_gemm_wgrad_into(
    pool: &ParPool,
    x: &[f32],
    dy: &[f32],
    tiles: usize,
    n_c: usize,
    dw: &mut WgWeights,
) {
    let (i_ch, j_ch) = (dw.in_chans, dw.out_chans);
    assert_eq!(x.len(), dw.elems * tiles * i_ch, "input length mismatch");
    assert_eq!(
        dy.len(),
        dw.elems * tiles * j_ch,
        "gradient length mismatch"
    );
    assert!(
        n_c > 0 && tiles.is_multiple_of(n_c),
        "{tiles} tiles must divide across {n_c} clusters"
    );
    let rows = tiles / n_c;
    pool.for_each_chunk_mut(&mut dw.data, (i_ch * j_ch).max(1), |e, total| {
        let serial = ParPool::serial();
        let xe = &x[e * tiles * i_ch..(e + 1) * tiles * i_ch];
        let dye = &dy[e * tiles * j_ch..(e + 1) * tiles * j_ch];
        WGRAD.with(|scratch| {
            let WgradScratch { part, packed } = &mut *scratch.borrow_mut();
            if n_c > 1 && part.len() < total.len() {
                part.resize(total.len(), 0.0);
            }
            let part = &mut part[..if n_c > 1 { total.len() } else { 0 }];
            for c in 0..n_c {
                // dW[c] (I x J) = X[c]^T (I x rows) * dY[c] (rows x J).
                let xc = &xe[c * rows * i_ch..(c + 1) * rows * i_ch];
                let dyc = &dye[c * rows * j_ch..(c + 1) * rows * j_ch];
                let out = if c == 0 { &mut *total } else { &mut *part };
                gemm_f32_into(&serial, xc, rows, i_ch, dyc, j_ch, out, true, false, packed);
                if c > 0 {
                    for (t, p) in total.iter_mut().zip(part.iter()) {
                        *t += p;
                    }
                }
            }
        });
    });
}

/// Winograd convolution with spatial-domain weights (paper Fig 2(a)).
///
/// # Examples
///
/// ```
/// use wmpt_winograd::{WinogradConv, WinogradTransform};
/// use wmpt_tensor::{DataGen, Shape4};
///
/// let conv = WinogradConv::new(WinogradTransform::f2x2_3x3());
/// let mut g = DataGen::new(0);
/// let x = g.normal_tensor(Shape4::new(1, 2, 8, 8), 0.0, 1.0);
/// let w = g.he_weights(Shape4::new(4, 2, 3, 3));
/// let y = conv.fprop(&x, &w);
/// assert_eq!(y.shape(), Shape4::new(1, 4, 8, 8));
/// ```
#[derive(Debug, Clone)]
pub struct WinogradConv {
    tf: WinogradTransform,
}

impl WinogradConv {
    /// Creates the operator for a given transform.
    pub fn new(tf: WinogradTransform) -> Self {
        Self { tf }
    }

    /// The underlying transform.
    pub fn transform(&self) -> &WinogradTransform {
        &self.tf
    }

    /// Forward propagation (same semantics as [`crate::DirectConv::fprop`]),
    /// on the caller's thread.
    pub fn fprop(&self, x: &Tensor4, w: &Tensor4) -> Tensor4 {
        let pool = ParPool::serial();
        let wx = to_winograd_input_par(&pool, x, &self.tf);
        let ww = weights_to_winograd(w, &self.tf);
        let wy = elementwise_gemm_par(&pool, &wx, &ww);
        let out_shape = Shape4::new(x.shape().n, w.shape().n, x.shape().h, x.shape().w);
        from_winograd_output_par(&pool, &wy, &self.tf, out_shape)
    }

    /// Backward propagation: exact gradient of [`Self::fprop`] w.r.t. `x`.
    pub fn bprop(&self, dy: &Tensor4, w: &Tensor4) -> Tensor4 {
        let pool = ParPool::serial();
        let wdy = output_grad_to_winograd_par(&pool, dy, &self.tf);
        let ww = weights_to_winograd(w, &self.tf);
        let wdx = elementwise_gemm_bprop_par(&pool, &wdy, &ww);
        let in_shape = Shape4::new(dy.shape().n, w.shape().c, dy.shape().h, dy.shape().w);
        input_grad_to_spatial_par(&pool, &wdx, &self.tf, in_shape)
    }

    /// Weight-gradient phase producing a *spatial* `∂w` (chain rule
    /// `∂w = Gᵀ ∂W G` applied per filter).
    pub fn update_grad(&self, x: &Tensor4, dy: &Tensor4) -> Tensor4 {
        let pool = ParPool::serial();
        let wx = to_winograd_input_par(&pool, x, &self.tf);
        let wdy = output_grad_to_winograd_par(&pool, dy, &self.tf);
        let dw_wg = elementwise_gemm_wgrad_par(&pool, &wx, &wdy, 1);
        let (r, elems) = (self.tf.r(), dw_wg.elems);
        let (jn, inc) = (dw_wg.out_chans, dw_wg.in_chans);
        let mut dw = Tensor4::zeros(Shape4::new(jn, inc, r, r));
        // Lanes are the J filters of one input channel.
        let mut buf = vec![0.0f32; elems * jn];
        let mut sp = vec![0.0f32; r * r * jn];
        let mut scratch = TileScratch::default();
        for i in 0..inc {
            for e in 0..elems {
                let at = (e * inc + i) * jn;
                buf[e * jn..(e + 1) * jn].copy_from_slice(&dw_wg.data[at..at + jn]);
            }
            self.tf.weight_grad_lanes(&buf, jn, &mut scratch, &mut sp);
            for j in 0..jn {
                for uv in 0..r * r {
                    dw[(j, i, uv / r, uv % r)] = sp[uv * jn + j];
                }
            }
        }
        dw
    }
}

/// The *Winograd layer*: weights resident and updated in the Winograd
/// domain (paper Fig 2(b), ref. \[29\]).
///
/// Because the layer's forward map is exactly
/// `y = Aᵀ[(X ⊙ W)]A` with `W` free parameters (not tied to a spatial
/// `w`), its gradients stay element-wise separable — the property MPT
/// exploits to confine weight-gradient reduction within groups.
///
/// # Examples
///
/// ```
/// use wmpt_par::ParPool;
/// use wmpt_winograd::{WinogradLayer, WinogradTransform};
/// use wmpt_tensor::{DataGen, Shape4};
///
/// let mut g = DataGen::new(0);
/// let w = g.he_weights(Shape4::new(4, 2, 3, 3));
/// let layer = WinogradLayer::from_spatial(WinogradTransform::f2x2_3x3(), &w);
/// let x = g.normal_tensor(Shape4::new(1, 2, 8, 8), 0.0, 1.0);
/// let y = layer.fprop_par(&ParPool::serial(), &x);
/// assert_eq!(y.shape(), Shape4::new(1, 4, 8, 8));
/// ```
#[derive(Debug, Clone)]
pub struct WinogradLayer {
    tf: WinogradTransform,
    weights: WgWeights,
}

impl WinogradLayer {
    /// Initializes the layer by transforming spatial weights `(J, I, r, r)`.
    ///
    /// # Panics
    ///
    /// Panics if the kernel size does not match the transform.
    pub fn from_spatial(tf: WinogradTransform, w: &Tensor4) -> Self {
        let weights = weights_to_winograd(w, &tf);
        Self { tf, weights }
    }

    /// Creates the layer from existing Winograd-domain weights.
    ///
    /// # Panics
    ///
    /// Panics if `weights.elems != T²`.
    pub fn from_winograd(tf: WinogradTransform, weights: WgWeights) -> Self {
        assert_eq!(weights.elems, tf.t() * tf.t(), "element count mismatch");
        Self { tf, weights }
    }

    /// The transform in use.
    pub fn transform(&self) -> &WinogradTransform {
        &self.tf
    }

    /// The Winograd-domain weights.
    pub fn weights(&self) -> &WgWeights {
        &self.weights
    }

    /// Mutable access to the weights (used by the distributed trainer to
    /// install reduced gradients).
    pub fn weights_mut(&mut self) -> &mut WgWeights {
        &mut self.weights
    }

    /// Applies an SGD step directly in the Winograd domain.
    ///
    /// # Panics
    ///
    /// Panics if gradient shape differs from the weights.
    pub fn apply_grad(&mut self, grad: &WgWeights, lr: f32) {
        self.weights.sgd_step(grad, lr);
    }

    /// Forward propagation: tile extraction, the per-element GEMMs and the
    /// inverse transform each fan out across `pool`. The bits are the same
    /// for any job count (the `wmpt-par` determinism contract).
    pub fn fprop_par(&self, pool: &ParPool, x: &Tensor4) -> Tensor4 {
        let wx = to_winograd_input_par(pool, x, &self.tf);
        let wy = elementwise_gemm_par(pool, &wx, &self.weights);
        let out_shape = Shape4::new(
            x.shape().n,
            self.weights.out_chans,
            x.shape().h,
            x.shape().w,
        );
        from_winograd_output_par(pool, &wy, &self.tf, out_shape)
    }

    /// Backward propagation: the exact gradient of [`Self::fprop_par`]
    /// w.r.t. `x` (same determinism contract).
    pub fn bprop_par(&self, pool: &ParPool, dy: &Tensor4) -> Tensor4 {
        let wdy = output_grad_to_winograd_par(pool, dy, &self.tf);
        let wdx = elementwise_gemm_bprop_par(pool, &wdy, &self.weights);
        let s = dy.shape();
        let in_shape = Shape4::new(s.n, self.weights.in_chans, s.h, s.w);
        input_grad_to_spatial_par(pool, &wdx, &self.tf, in_shape)
    }

    /// Winograd-domain weight gradient `∇W_e = X_eᵀ ∂Y_e` over the whole
    /// batch: the one-cluster case of [`elementwise_gemm_wgrad_par`]
    /// (same determinism contract).
    pub fn update_grad_par(&self, pool: &ParPool, x: &Tensor4, dy: &Tensor4) -> WgWeights {
        let wx = to_winograd_input_par(pool, x, &self.tf);
        let wdy = output_grad_to_winograd_par(pool, dy, &self.tf);
        elementwise_gemm_wgrad_par(pool, &wx, &wdy, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tiling::{from_winograd_output_par, to_winograd_input_par};
    use crate::DirectConv;
    use wmpt_tensor::ops::gemm_f32_ref;
    use wmpt_tensor::DataGen;

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|v| v.to_bits()).collect()
    }

    fn setup(seed: u64) -> (Tensor4, Tensor4, Tensor4) {
        let mut g = DataGen::new(seed);
        let x = g.normal_tensor(Shape4::new(2, 3, 8, 8), 0.0, 1.0);
        let w = g.he_weights(Shape4::new(4, 3, 3, 3));
        let dy = g.normal_tensor(Shape4::new(2, 4, 8, 8), 0.0, 1.0);
        (x, w, dy)
    }

    #[test]
    fn winograd_fprop_matches_direct_f2x2() {
        let (x, w, _) = setup(1);
        let direct = DirectConv::new(3).fprop(&x, &w);
        let wino = WinogradConv::new(WinogradTransform::f2x2_3x3()).fprop(&x, &w);
        assert!(
            wino.max_abs_diff(&direct) < 1e-4,
            "diff {}",
            wino.max_abs_diff(&direct)
        );
    }

    #[test]
    fn winograd_fprop_matches_direct_f4x4() {
        let (x, w, _) = setup(2);
        let direct = DirectConv::new(3).fprop(&x, &w);
        let wino = WinogradConv::new(WinogradTransform::f4x4_3x3()).fprop(&x, &w);
        assert!(
            wino.max_abs_diff(&direct) < 1e-3,
            "diff {}",
            wino.max_abs_diff(&direct)
        );
    }

    #[test]
    fn winograd_fprop_matches_direct_f2x2_5x5() {
        let mut g = DataGen::new(3);
        let x = g.normal_tensor(Shape4::new(1, 2, 8, 8), 0.0, 1.0);
        let w = g.he_weights(Shape4::new(3, 2, 5, 5));
        let direct = DirectConv::new(5).fprop(&x, &w);
        let wino = WinogradConv::new(WinogradTransform::f2x2_5x5()).fprop(&x, &w);
        assert!(
            wino.max_abs_diff(&direct) < 1e-3,
            "diff {}",
            wino.max_abs_diff(&direct)
        );
    }

    #[test]
    fn winograd_bprop_matches_direct() {
        let (_, w, dy) = setup(4);
        let direct = DirectConv::new(3).bprop(&dy, &w);
        let wino = WinogradConv::new(WinogradTransform::f2x2_3x3()).bprop(&dy, &w);
        assert!(
            wino.max_abs_diff(&direct) < 1e-3,
            "diff {}",
            wino.max_abs_diff(&direct)
        );
    }

    #[test]
    fn winograd_update_grad_matches_direct() {
        let (x, _, dy) = setup(5);
        let direct = DirectConv::new(3).update_grad(&x, &dy);
        let wino = WinogradConv::new(WinogradTransform::f2x2_3x3()).update_grad(&x, &dy);
        // accumulate over batch*positions -> use relative tolerance
        let scale = direct.max_abs().max(1.0);
        assert!(
            wino.max_abs_diff(&direct) / scale < 1e-3,
            "diff {}",
            wino.max_abs_diff(&direct)
        );
    }

    #[test]
    fn winograd_layer_fprop_matches_winograd_conv() {
        let (x, w, _) = setup(6);
        let conv = WinogradConv::new(WinogradTransform::f2x2_3x3());
        let layer = WinogradLayer::from_spatial(WinogradTransform::f2x2_3x3(), &w);
        let y = layer.fprop_par(&ParPool::serial(), &x);
        assert!(y.max_abs_diff(&conv.fprop(&x, &w)) < 1e-6);
    }

    #[test]
    fn winograd_layer_gradcheck_weights() {
        // Finite-difference check of dL/dW in the Winograd domain,
        // L = <fprop(x), dy>.
        let mut g = DataGen::new(7);
        let x = g.normal_tensor(Shape4::new(1, 2, 4, 4), 0.0, 1.0);
        let w = g.he_weights(Shape4::new(2, 2, 3, 3));
        let dy = g.normal_tensor(Shape4::new(1, 2, 4, 4), 0.0, 1.0);
        let mut layer = WinogradLayer::from_spatial(WinogradTransform::f2x2_3x3(), &w);
        let pool = ParPool::serial();
        let grad = layer.update_grad_par(&pool, &x, &dy);
        let eps = 1e-2f32;
        for probe in [0usize, 7, 23, grad.data.len() - 1] {
            let base = layer.weights.data[probe];
            layer.weights.data[probe] = base + eps;
            let lp: f64 = layer
                .fprop_par(&pool, &x)
                .as_slice()
                .iter()
                .zip(dy.as_slice())
                .map(|(a, b)| (*a as f64) * (*b as f64))
                .sum();
            layer.weights.data[probe] = base - eps;
            let lm: f64 = layer
                .fprop_par(&pool, &x)
                .as_slice()
                .iter()
                .zip(dy.as_slice())
                .map(|(a, b)| (*a as f64) * (*b as f64))
                .sum();
            layer.weights.data[probe] = base;
            let fd = ((lp - lm) / (2.0 * eps as f64)) as f32;
            wmpt_check::assert_approx_eq!(
                grad.data[probe],
                fd,
                wmpt_check::Tol::abs(2e-2),
                "elem {probe}"
            );
        }
    }

    #[test]
    fn winograd_layer_gradcheck_input() {
        let mut g = DataGen::new(8);
        let x = g.normal_tensor(Shape4::new(1, 2, 4, 4), 0.0, 1.0);
        let w = g.he_weights(Shape4::new(2, 2, 3, 3));
        let dy = g.normal_tensor(Shape4::new(1, 2, 4, 4), 0.0, 1.0);
        let layer = WinogradLayer::from_spatial(WinogradTransform::f2x2_3x3(), &w);
        let pool = ParPool::serial();
        let dx = layer.bprop_par(&pool, &dy);
        let eps = 1e-2f32;
        let mut xp = x.clone();
        for probe in [(0usize, 0usize, 0usize, 0usize), (0, 1, 2, 3), (0, 0, 3, 3)] {
            let base = x[probe];
            xp[probe] = base + eps;
            let lp: f64 = layer
                .fprop_par(&pool, &xp)
                .as_slice()
                .iter()
                .zip(dy.as_slice())
                .map(|(a, b)| (*a as f64) * (*b as f64))
                .sum();
            xp[probe] = base - eps;
            let lm: f64 = layer
                .fprop_par(&pool, &xp)
                .as_slice()
                .iter()
                .zip(dy.as_slice())
                .map(|(a, b)| (*a as f64) * (*b as f64))
                .sum();
            xp[probe] = base;
            let fd = ((lp - lm) / (2.0 * eps as f64)) as f32;
            wmpt_check::assert_approx_eq!(dx[probe], fd, wmpt_check::Tol::abs(2e-2), "{probe:?}");
        }
    }

    #[test]
    fn element_gemms_are_bit_identical_to_reference() {
        // Every element GEMM of every batched form, at jobs ∈ {1, 2, 7},
        // against the frozen naive kernel run on that element alone.
        let mut g = DataGen::new(13);
        let tf = WinogradTransform::f2x2_3x3();
        let x = g.normal_tensor(Shape4::new(3, 3, 9, 9), 0.0, 1.0);
        let w = weights_to_winograd(&g.he_weights(Shape4::new(5, 3, 3, 3)), &tf);
        let wx = to_winograd_input_par(&ParPool::serial(), &x, &tf);
        let (tiles, i_ch, j_ch) = (wx.tiles, w.in_chans, w.out_chans);
        let mut dy = WgTensor::zeros(wx.elems, tiles, j_ch);
        for v in &mut dy.data {
            *v = g.normal(0.0, 1.0) as f32;
        }
        for jobs in [1usize, 2, 7] {
            let pool = ParPool::new(jobs);
            let y = elementwise_gemm_par(&pool, &wx, &w);
            let dx = elementwise_gemm_bprop_par(&pool, &dy, &w);
            let dw = elementwise_gemm_wgrad_par(&pool, &wx, &dy, 1);
            for e in 0..wx.elems {
                let mut want = vec![0.0f32; tiles * j_ch];
                gemm_f32_ref(
                    wx.elem_matrix(e),
                    tiles,
                    i_ch,
                    w.elem_matrix(e),
                    j_ch,
                    &mut want,
                    false,
                    false,
                );
                assert_eq!(
                    bits(&want),
                    bits(y.elem_matrix(e)),
                    "fprop e={e} jobs={jobs}"
                );
                let mut want = vec![0.0f32; tiles * i_ch];
                gemm_f32_ref(
                    dy.elem_matrix(e),
                    tiles,
                    j_ch,
                    w.elem_matrix(e),
                    i_ch,
                    &mut want,
                    false,
                    true,
                );
                assert_eq!(
                    bits(&want),
                    bits(dx.elem_matrix(e)),
                    "bprop e={e} jobs={jobs}"
                );
                let mut want = vec![0.0f32; i_ch * j_ch];
                gemm_f32_ref(
                    wx.elem_matrix(e),
                    tiles,
                    i_ch,
                    dy.elem_matrix(e),
                    j_ch,
                    &mut want,
                    true,
                    false,
                );
                assert_eq!(
                    bits(&want),
                    bits(dw.elem_matrix(e)),
                    "wgrad e={e} jobs={jobs}"
                );
            }
        }
    }

    #[test]
    fn parallel_layer_phases_are_bit_identical_to_serial() {
        // fprop/bprop/updateGrad under jobs ∈ {1, 2, 7} must equal the
        // one-thread pool bit for bit, and the one-thread forward pass
        // must equal its stages composed around the reference GEMM.
        let mut g = DataGen::new(12);
        let x = g.normal_tensor(Shape4::new(3, 3, 9, 9), 0.0, 1.0);
        let w = g.he_weights(Shape4::new(4, 3, 3, 3));
        let dy = g.normal_tensor(Shape4::new(3, 4, 9, 9), 0.0, 1.0);
        let layer = WinogradLayer::from_spatial(WinogradTransform::f2x2_3x3(), &w);
        let serial = ParPool::serial();
        let y0 = layer.fprop_par(&serial, &x);
        let dx0 = bits(layer.bprop_par(&serial, &dy).as_slice());
        let dw0 = bits(&layer.update_grad_par(&serial, &x, &dy).data);

        let tf = layer.transform();
        let ww = layer.weights();
        let wx = to_winograd_input_par(&serial, &x, tf);
        let mut wy = WgTensor::zeros(wx.elems, wx.tiles, ww.out_chans);
        for e in 0..wx.elems {
            let (a, b) = (wx.elem_matrix(e), ww.elem_matrix(e));
            gemm_f32_ref(
                a,
                wx.tiles,
                wx.chans,
                b,
                ww.out_chans,
                wy.elem_matrix_mut(e),
                false,
                false,
            );
        }
        let composed = from_winograd_output_par(&serial, &wy, tf, y0.shape());
        assert_eq!(
            bits(composed.as_slice()),
            bits(y0.as_slice()),
            "fprop vs reference GEMM"
        );

        let y0 = bits(y0.as_slice());
        for jobs in [1usize, 2, 7] {
            let pool = ParPool::new(jobs);
            let y = bits(layer.fprop_par(&pool, &x).as_slice());
            let dx = bits(layer.bprop_par(&pool, &dy).as_slice());
            let dw = bits(&layer.update_grad_par(&pool, &x, &dy).data);
            assert_eq!(y0, y, "fprop diverged at jobs={jobs}");
            assert_eq!(dx0, dx, "bprop diverged at jobs={jobs}");
            assert_eq!(dw0, dw, "update_grad diverged at jobs={jobs}");
        }
    }

    #[test]
    fn sgd_in_winograd_domain_reduces_loss() {
        // One SGD step on L = 0.5*||fprop(x) - target||^2 must reduce L.
        let mut g = DataGen::new(9);
        let x = g.normal_tensor(Shape4::new(1, 2, 4, 4), 0.0, 1.0);
        let w = g.he_weights(Shape4::new(2, 2, 3, 3));
        let target = g.normal_tensor(Shape4::new(1, 2, 4, 4), 0.0, 1.0);
        let mut layer = WinogradLayer::from_spatial(WinogradTransform::f2x2_3x3(), &w);
        let pool = ParPool::serial();
        let loss = |l: &WinogradLayer| -> f64 {
            l.fprop_par(&pool, &x)
                .as_slice()
                .iter()
                .zip(target.as_slice())
                .map(|(a, b)| 0.5 * ((a - b) as f64).powi(2))
                .sum()
        };
        let l0 = loss(&layer);
        let y = layer.fprop_par(&pool, &x);
        let mut dy = y.clone();
        for (d, t) in dy.as_mut_slice().iter_mut().zip(target.as_slice()) {
            *d -= t;
        }
        let grad = layer.update_grad_par(&pool, &x, &dy);
        layer.apply_grad(&grad, 0.01);
        let l1 = loss(&layer);
        assert!(l1 < l0, "loss did not decrease: {l0} -> {l1}");
    }
}
