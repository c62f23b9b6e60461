//! Tile extraction/assembly between spatial feature maps and the Winograd
//! domain.
//!
//! A spatial `H×W` feature map is cut into `⌈H/m⌉ × ⌈W/m⌉` overlapping
//! input tiles of size `T×T` (`T = m + r - 1`, stride `m`, zero padding
//! `(r-1)/2` for "same" convolution). After the 2-D input transform, data
//! lives in a [`WgTensor`]: an element-major layout where all values of
//! tile element `(u, v)` form one `tiles × channels` matrix — exactly the
//! `T²` independent GEMMs of the paper's Eq. 2 and the unit of intra-tile
//! parallelism that MPT distributes across groups.
//!
//! The four tiling kernels work one tile row at a time, all tiles and
//! channels of the row at once: lane `tx·chans + c` holds channel `c` of
//! tile `(ty, tx)`, so a row has `tiles_w·chans` lanes. They gather the
//! row's `T²` (or `m²`) positions as contiguous lane runs, make one call
//! to the lane kernel of [`crate::transform`], and move each position's
//! run to or from its destination: a row's tiles are consecutive in a
//! [`WgTensor`], so on that side each run is one copy. Per image they
//! allocate three buffers, never one per row or tile.

use wmpt_par::ParPool;
use wmpt_tensor::{Shape4, Tensor4};

use crate::transform::TileScratch;
use crate::WinogradTransform;

/// Tiling geometry for one layer ("same" padding, stride 1).
///
/// # Examples
///
/// ```
/// use wmpt_winograd::{Tiling, WinogradTransform};
///
/// let tf = WinogradTransform::f2x2_3x3();
/// let tl = Tiling::new(&tf, 8, 8);
/// assert_eq!((tl.tiles_h, tl.tiles_w), (4, 4));
/// assert_eq!(tl.tiles_per_image(), 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tiling {
    /// Output tile size per dimension (`m`).
    pub m: usize,
    /// Input tile size per dimension (`T`).
    pub t: usize,
    /// Zero padding applied on each border (`(r-1)/2`).
    pub pad: usize,
    /// Feature-map height.
    pub h: usize,
    /// Feature-map width.
    pub w: usize,
    /// Number of tile rows.
    pub tiles_h: usize,
    /// Number of tile columns.
    pub tiles_w: usize,
}

impl Tiling {
    /// Computes the tiling of an `h×w` feature map under `tf`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is even (the paper's layers all use odd kernels with
    /// "same" padding) or if `h`/`w` is zero.
    pub fn new(tf: &WinogradTransform, h: usize, w: usize) -> Self {
        assert!(tf.r() % 2 == 1, "same-padding tiling requires odd r");
        assert!(h > 0 && w > 0, "feature map must be non-empty");
        let m = tf.m();
        Self {
            m,
            t: tf.t(),
            pad: (tf.r() - 1) / 2,
            h,
            w,
            tiles_h: h.div_ceil(m),
            tiles_w: w.div_ceil(m),
        }
    }

    /// Tiles per image (`tiles_h × tiles_w` — the paper's `t`).
    pub fn tiles_per_image(&self) -> usize {
        self.tiles_h * self.tiles_w
    }

    /// Top-left spatial coordinate (may be negative: padding) of input tile
    /// `(ty, tx)`.
    pub fn tile_origin(&self, ty: usize, tx: usize) -> (isize, isize) {
        (
            (ty * self.m) as isize - self.pad as isize,
            (tx * self.m) as isize - self.pad as isize,
        )
    }
}

/// Winograd-domain tensor: `elems = T²` independent `tiles × chans`
/// matrices stored contiguously, `data[(e * tiles + tile) * chans + c]`.
///
/// `tiles` counts tiles across the whole batch (`B · tiles_per_image`).
/// The tiling kernels move a tile's channels as whole contiguous runs and
/// do not use [`Self::gather_tile`]/[`Self::scatter_tile`]; those
/// one-channel accessors serve per-tile readers (the activation
/// predictor's `predict_tensor` and its statistics) and the tests'
/// frozen oracles.
#[derive(Debug, Clone, PartialEq)]
pub struct WgTensor {
    /// Number of tile elements (`T²`).
    pub elems: usize,
    /// Total number of tiles across the batch.
    pub tiles: usize,
    /// Number of channels.
    pub chans: usize,
    /// Element-major storage.
    pub data: Vec<f32>,
}

impl WgTensor {
    /// Creates a zeroed Winograd-domain tensor.
    pub fn zeros(elems: usize, tiles: usize, chans: usize) -> Self {
        Self {
            elems,
            tiles,
            chans,
            data: vec![0.0; elems * tiles * chans],
        }
    }

    /// Linear index of `(elem, tile, chan)`.
    #[inline]
    pub fn index(&self, e: usize, tile: usize, c: usize) -> usize {
        debug_assert!(e < self.elems && tile < self.tiles && c < self.chans);
        (e * self.tiles + tile) * self.chans + c
    }

    /// The `tiles × chans` matrix of element `e`, as a slice.
    pub fn elem_matrix(&self, e: usize) -> &[f32] {
        &self.data[e * self.tiles * self.chans..(e + 1) * self.tiles * self.chans]
    }

    /// Mutable view of element `e`'s matrix.
    pub fn elem_matrix_mut(&mut self, e: usize) -> &mut [f32] {
        &mut self.data[e * self.tiles * self.chans..(e + 1) * self.tiles * self.chans]
    }

    /// Gathers the full `T²`-element tile `tile` of channel `c`.
    pub fn gather_tile(&self, tile: usize, c: usize) -> Vec<f32> {
        (0..self.elems)
            .map(|e| self.data[self.index(e, tile, c)])
            .collect()
    }

    /// Scatters a full tile back into element-major storage.
    ///
    /// # Panics
    ///
    /// Panics if `vals.len() != elems`.
    pub fn scatter_tile(&mut self, tile: usize, c: usize, vals: &[f32]) {
        assert_eq!(vals.len(), self.elems);
        for (e, v) in vals.iter().enumerate() {
            let i = self.index(e, tile, c);
            self.data[i] = *v;
        }
    }

    /// Size in bytes (`f32` storage) — the paper's `|Tiles|` for traffic
    /// accounting.
    pub fn bytes(&self) -> usize {
        self.data.len() * 4
    }
}

/// Winograd-domain weights: `elems = T²` independent `in_chans × out_chans`
/// matrices, `data[(e * in_chans + i) * out_chans + j]`.
#[derive(Debug, Clone, PartialEq)]
pub struct WgWeights {
    /// Number of tile elements (`T²`).
    pub elems: usize,
    /// Input channels `I`.
    pub in_chans: usize,
    /// Output channels `J`.
    pub out_chans: usize,
    /// Element-major storage.
    pub data: Vec<f32>,
}

impl WgWeights {
    /// Creates zeroed Winograd-domain weights.
    pub fn zeros(elems: usize, in_chans: usize, out_chans: usize) -> Self {
        Self {
            elems,
            in_chans,
            out_chans,
            data: vec![0.0; elems * in_chans * out_chans],
        }
    }

    /// Linear index of `(elem, in_chan, out_chan)`.
    #[inline]
    pub fn index(&self, e: usize, i: usize, j: usize) -> usize {
        debug_assert!(e < self.elems && i < self.in_chans && j < self.out_chans);
        (e * self.in_chans + i) * self.out_chans + j
    }

    /// The `I × J` matrix of element `e`.
    pub fn elem_matrix(&self, e: usize) -> &[f32] {
        let n = self.in_chans * self.out_chans;
        &self.data[e * n..(e + 1) * n]
    }

    /// Mutable view of element `e`'s matrix.
    pub fn elem_matrix_mut(&mut self, e: usize) -> &mut [f32] {
        let n = self.in_chans * self.out_chans;
        &mut self.data[e * n..(e + 1) * n]
    }

    /// Size in bytes — the paper's `|W|` (Winograd-domain weight size).
    pub fn bytes(&self) -> usize {
        self.data.len() * 4
    }

    /// In-place SGD step `W -= lr * grad`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn sgd_step(&mut self, grad: &WgWeights, lr: f32) {
        assert_eq!(
            (self.elems, self.in_chans, self.out_chans),
            (grad.elems, grad.in_chans, grad.out_chans),
            "weight/grad shape mismatch"
        );
        for (w, g) in self.data.iter_mut().zip(&grad.data) {
            *w -= lr * g;
        }
    }
}

/// Builds an element-major tensor of `images × tl.tiles_per_image()`
/// tiles image by image across the pool. Image `b`'s tiles of element
/// `e` form one contiguous `tiles_per_image × chans` run, so every image
/// owns `T²` disjoint runs and `fill(b, runs)` writes them in place: the
/// value of local tile `tile`, channel `c`, element `e` goes to
/// `runs[e][tile * chans + c]`. Which thread fills an image changes no
/// bit.
fn fill_per_image<F>(pool: &ParPool, tl: &Tiling, images: usize, chans: usize, fill: F) -> WgTensor
where
    F: Fn(usize, &mut [&mut [f32]]) + Sync,
{
    let tpi = tl.tiles_per_image();
    let mut out = WgTensor::zeros(tl.t * tl.t, images * tpi, chans);
    let mut runs: Vec<Vec<&mut [f32]>> = (0..images)
        .map(|_| Vec::with_capacity(tl.t * tl.t))
        .collect();
    // Runs come in (element, image) order.
    for (i, run) in out.data.chunks_mut((tpi * chans).max(1)).enumerate() {
        runs[i % images].push(run);
    }
    pool.for_each_chunk_mut(&mut runs, 1, |b, img| fill(b, &mut img[0]));
    out
}

/// Where each tile's `k×k` spatial window sits in an NCHW image of
/// `chans × h × w`: tile `(ty, tx)`'s window starts at
/// `(ty·m − off, tx·m − off)` — the input tile (`k = T`, `off = pad`) or
/// the output tile (`k = m`, `off = 0`).
struct Windows {
    m: usize,
    k: usize,
    off: usize,
    chans: usize,
    h: usize,
    w: usize,
    tiles_w: usize,
}

impl Windows {
    /// The `T×T` input tiles of a map of `shape` (padding included).
    fn input(tl: &Tiling, shape: Shape4) -> Self {
        Self::new(tl, tl.t, tl.pad, shape)
    }

    /// The `m×m` output tiles of a map of `shape` (edge tiles cropped).
    fn output(tl: &Tiling, shape: Shape4) -> Self {
        Self::new(tl, tl.m, 0, shape)
    }

    fn new(tl: &Tiling, k: usize, off: usize, shape: Shape4) -> Self {
        Self {
            m: tl.m,
            k,
            off,
            chans: shape.c,
            h: shape.h,
            w: shape.w,
            tiles_w: tl.tiles_w,
        }
    }

    /// Lanes of one tile row: `tiles_w·chans`.
    fn lanes(&self) -> usize {
        self.tiles_w * self.chans
    }

    /// Calls `f(u·k + v, at)` for every position `(u, v)` of tile
    /// `(ty, tx)`'s window in row-major order, with `at = y·w + x` the
    /// position's offset in a channel plane, or `None` where it falls
    /// outside the map. Padding is decided once per position, for all
    /// channels.
    fn for_each<F: FnMut(usize, Option<usize>)>(&self, ty: usize, tx: usize, mut f: F) {
        let oy = (ty * self.m) as isize - self.off as isize;
        let ox = (tx * self.m) as isize - self.off as isize;
        for u in 0..self.k {
            let y = oy + u as isize;
            let row_in = y >= 0 && (y as usize) < self.h;
            for v in 0..self.k {
                let x = ox + v as isize;
                let inside = row_in && x >= 0 && (x as usize) < self.w;
                f(
                    u * self.k + v,
                    inside.then(|| y as usize * self.w + x as usize),
                );
            }
        }
    }

    /// Gathers the windows of tile row `ty` of `img` in row-lane layout,
    /// `out[(u·k + v)·lanes + tx·chans + c]`; positions outside the map
    /// read `0.0`.
    fn gather_row(&self, img: &[f32], ty: usize, out: &mut [f32]) {
        let (chans, plane, lanes) = (self.chans, self.h * self.w, self.lanes());
        for tx in 0..self.tiles_w {
            self.for_each(ty, tx, |uv, at| {
                let lane = &mut out[uv * lanes + tx * chans..][..chans];
                match at {
                    Some(at) => {
                        for (c, l) in lane.iter_mut().enumerate() {
                            *l = img[c * plane + at];
                        }
                    }
                    None => lane.fill(0.0),
                }
            });
        }
    }
}

/// Gathers, transforms and stores every tile row of image `b` of `src`
/// into the image's element runs (see [`fill_per_image`]) — the per-image
/// work unit of [`to_winograd_input_par`], [`output_grad_to_winograd_par`]
/// and [`to_spatial_tiles`].
fn image_windows_into<T>(
    src: &Tensor4,
    b: usize,
    win: &Windows,
    tl: &Tiling,
    transform: T,
    runs: &mut [&mut [f32]],
) where
    T: Fn(&[f32], usize, &mut TileScratch, &mut [f32]),
{
    let lanes = win.lanes();
    let len = win.chans * win.h * win.w;
    let img = &src.as_slice()[b * len..(b + 1) * len];
    let mut row = vec![0.0f32; win.k * win.k * lanes];
    let mut wg = vec![0.0f32; tl.t * tl.t * lanes];
    let mut scratch = TileScratch::default();
    for ty in 0..tl.tiles_h {
        win.gather_row(img, ty, &mut row);
        transform(&row, lanes, &mut scratch, &mut wg);
        let at = ty * lanes;
        for (e, run) in runs.iter_mut().enumerate() {
            run[at..at + lanes].copy_from_slice(&wg[e * lanes..(e + 1) * lanes]);
        }
    }
}

/// Transforms every tile row of image `b` of `wg` and combines each
/// result position into the image's contiguous NCHW slice `img` through
/// `put` (positions outside the map are dropped). Tiles are combined in
/// `(ty, tx)` order, so every location combines its contributions in a
/// fixed order — the per-image work unit of [`from_winograd_output_par`]
/// and [`input_grad_to_spatial_par`].
fn image_tiles_into<T, P>(
    wg: &WgTensor,
    b: usize,
    win: &Windows,
    tl: &Tiling,
    transform: T,
    put: P,
    img: &mut [f32],
) where
    T: Fn(&[f32], usize, &mut TileScratch, &mut [f32]),
    P: Fn(&mut f32, f32),
{
    let (chans, plane, lanes) = (wg.chans, win.h * win.w, win.lanes());
    let tpi = tl.tiles_per_image();
    let mut row = vec![0.0f32; wg.elems * lanes];
    let mut sp = vec![0.0f32; win.k * win.k * lanes];
    let mut scratch = TileScratch::default();
    for ty in 0..tl.tiles_h {
        let first = (b * tpi + ty * tl.tiles_w) * chans;
        for e in 0..wg.elems {
            let at = e * wg.tiles * chans + first;
            row[e * lanes..(e + 1) * lanes].copy_from_slice(&wg.data[at..at + lanes]);
        }
        transform(&row, lanes, &mut scratch, &mut sp);
        for tx in 0..tl.tiles_w {
            win.for_each(ty, tx, |uv, at| {
                if let Some(at) = at {
                    let vals = &sp[uv * lanes + tx * chans..][..chans];
                    for (c, v) in vals.iter().enumerate() {
                        put(&mut img[c * plane + at], *v);
                    }
                }
            });
        }
    }
}

/// Transforms a spatial feature map into the Winograd domain
/// (tile extraction + 2-D input transform, `Bᵀ x B` per tile). Images are
/// extracted and transformed independently across the pool, each writing
/// its own tiles of the batch-wide element-major tensor; the bits are the
/// same for any job count.
pub fn to_winograd_input_par(pool: &ParPool, x: &Tensor4, tf: &WinogradTransform) -> WgTensor {
    let s = x.shape();
    let tl = Tiling::new(tf, s.h, s.w);
    let win = Windows::input(&tl, s);
    fill_per_image(pool, &tl, s.n, s.c, |b, runs| {
        image_windows_into(
            x,
            b,
            &win,
            &tl,
            |x, l, s, o| tf.input_lanes(x, l, s, o),
            runs,
        )
    })
}

/// Extracts *untransformed* spatial tiles in the same element-major layout
/// (used by the zero-skip analysis of `wmpt-predict`, which counts zeros
/// in the half-transformed lines `Bᵀ x` of these tiles): the gather of
/// [`to_winograd_input_par`] with a copy in place of the transform.
pub fn to_spatial_tiles(x: &Tensor4, tf: &WinogradTransform) -> WgTensor {
    let s = x.shape();
    let tl = Tiling::new(tf, s.h, s.w);
    let win = Windows::input(&tl, s);
    fill_per_image(&ParPool::serial(), &tl, s.n, s.c, |b, runs| {
        image_windows_into(x, b, &win, &tl, |x, _, _, o| o.copy_from_slice(x), runs)
    })
}

/// Transforms spatial weights `(J, I, r, r)` into Winograd-domain weights
/// (`G w Gᵀ` per filter; the lanes are the `J` filters of one input
/// channel).
pub fn weights_to_winograd(w: &Tensor4, tf: &WinogradTransform) -> WgWeights {
    let s = w.shape();
    assert_eq!(s.h, tf.r(), "weight height must equal r");
    assert_eq!(s.w, tf.r(), "weight width must equal r");
    let (t, r) = (tf.t(), tf.r());
    let (jn, inc) = (s.n, s.c);
    let mut out = WgWeights::zeros(t * t, inc, jn);
    let mut wbuf = vec![0.0f32; r * r * jn];
    let mut tw = vec![0.0f32; t * t * jn];
    let mut scratch = TileScratch::default();
    for i in 0..inc {
        for j in 0..jn {
            for uv in 0..r * r {
                wbuf[uv * jn + j] = w[(j, i, uv / r, uv % r)];
            }
        }
        tf.weight_lanes(&wbuf, jn, &mut scratch, &mut tw);
        for e in 0..t * t {
            let at = (e * inc + i) * jn;
            out.data[at..at + jn].copy_from_slice(&tw[e * jn..(e + 1) * jn]);
        }
    }
    out
}

/// Inverse-transforms a Winograd-domain output (`tiles × J` per element)
/// back to a spatial feature map of shape `out_shape` (`Aᵀ Y A` per tile +
/// tile assembly; edge tiles are cropped). Each image writes a disjoint
/// contiguous NCHW slice, fanned out across the pool; the bits are the
/// same for any job count.
///
/// # Panics
///
/// Panics if the tile geometry of `y` does not match `out_shape` under `tf`.
pub fn from_winograd_output_par(
    pool: &ParPool,
    y: &WgTensor,
    tf: &WinogradTransform,
    out_shape: Shape4,
) -> Tensor4 {
    let tl = Tiling::new(tf, out_shape.h, out_shape.w);
    let tpi = tl.tiles_per_image();
    assert_eq!(y.tiles, out_shape.n * tpi, "tile count mismatch");
    assert_eq!(y.chans, out_shape.c, "channel count mismatch");
    assert_eq!(y.elems, tl.t * tl.t, "element count mismatch");
    let mut out = Tensor4::zeros(out_shape);
    let win = Windows::output(&tl, out_shape);
    let stride = out_shape.c * out_shape.h * out_shape.w;
    pool.for_each_chunk_mut(out.as_mut_slice(), stride, |b, img| {
        image_tiles_into(
            y,
            b,
            &win,
            &tl,
            |x, l, s, o| tf.inverse_lanes(x, l, s, o),
            |d, v| *d = v,
            img,
        );
    });
    out
}

/// Pushes a spatial output gradient into the Winograd domain (`A ∂y Aᵀ`
/// per tile — the adjoint of [`from_winograd_output_par`]). Images fan
/// out across the pool, each writing its own tiles; the bits are the
/// same for any job count.
pub fn output_grad_to_winograd_par(
    pool: &ParPool,
    dy: &Tensor4,
    tf: &WinogradTransform,
) -> WgTensor {
    let s = dy.shape();
    let tl = Tiling::new(tf, s.h, s.w);
    let win = Windows::output(&tl, s);
    fill_per_image(pool, &tl, s.n, s.c, |b, runs| {
        image_windows_into(
            dy,
            b,
            &win,
            &tl,
            |x, l, s, o| tf.inverse_grad_lanes(x, l, s, o),
            runs,
        )
    })
}

/// Pushes a Winograd-domain input gradient back to the spatial domain
/// (`B ∂X Bᵀ` per tile + overlapped accumulation — the adjoint of
/// [`to_winograd_input_par`]). Tiles only ever overlap within one image,
/// so each image's overlapped accumulation stays on one thread, in a
/// fixed `(ty, tx)` addition order; images fan out across the pool into
/// disjoint NCHW slices, so the bits are the same for any job count.
///
/// # Panics
///
/// Panics if the tile geometry of `dx` does not match `in_shape` under `tf`.
pub fn input_grad_to_spatial_par(
    pool: &ParPool,
    dx: &WgTensor,
    tf: &WinogradTransform,
    in_shape: Shape4,
) -> Tensor4 {
    let tl = Tiling::new(tf, in_shape.h, in_shape.w);
    let tpi = tl.tiles_per_image();
    assert_eq!(dx.tiles, in_shape.n * tpi, "tile count mismatch");
    assert_eq!(dx.chans, in_shape.c, "channel count mismatch");
    let mut out = Tensor4::zeros(in_shape);
    let win = Windows::input(&tl, in_shape);
    let stride = in_shape.c * in_shape.h * in_shape.w;
    pool.for_each_chunk_mut(out.as_mut_slice(), stride, |b, img| {
        image_tiles_into(
            dx,
            b,
            &win,
            &tl,
            |x, l, s, o| tf.input_grad_lanes(x, l, s, o),
            |d, v| *d += v,
            img,
        );
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmpt_tensor::DataGen;

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn tiling_counts_round_up() {
        let tf = WinogradTransform::f2x2_3x3();
        let tl = Tiling::new(&tf, 7, 9);
        assert_eq!((tl.tiles_h, tl.tiles_w), (4, 5));
        assert_eq!(tl.pad, 1);
        assert_eq!(tl.tile_origin(0, 0), (-1, -1));
        assert_eq!(tl.tile_origin(1, 2), (1, 3));
    }

    #[test]
    fn wg_tensor_gather_scatter_round_trip() {
        let mut wg = WgTensor::zeros(4, 3, 2);
        let tile = [1.0, 2.0, 3.0, 4.0];
        wg.scatter_tile(2, 1, &tile);
        assert_eq!(wg.gather_tile(2, 1), tile.to_vec());
        assert_eq!(wg.gather_tile(0, 0), vec![0.0; 4]);
        assert_eq!(wg.bytes(), 4 * 3 * 2 * 4);
    }

    #[test]
    fn winograd_input_round_trip_through_identity_weights() {
        // With w = delta kernel (identity convolution), fprop must return x.
        let tf = WinogradTransform::f2x2_3x3();
        let mut gen = DataGen::new(11);
        let shape = Shape4::new(2, 3, 6, 6);
        let x = gen.normal_tensor(shape, 0.0, 1.0);

        // delta kernel: w[j,i,1,1] = 1 iff i == j
        let mut w = Tensor4::zeros(Shape4::new(3, 3, 3, 3));
        for c in 0..3 {
            w[(c, c, 1, 1)] = 1.0;
        }
        let pool = ParPool::serial();
        let wx = to_winograd_input_par(&pool, &x, &tf);
        let ww = weights_to_winograd(&w, &tf);
        // Element-wise GEMM: y_e = x_e * w_e
        let mut y = WgTensor::zeros(wx.elems, wx.tiles, 3);
        for e in 0..wx.elems {
            for tile in 0..wx.tiles {
                for j in 0..3 {
                    let mut s = 0.0f32;
                    for i in 0..3 {
                        s += wx.data[wx.index(e, tile, i)] * ww.data[ww.index(e, i, j)];
                    }
                    let idx = y.index(e, tile, j);
                    y.data[idx] = s;
                }
            }
        }
        let back = from_winograd_output_par(&pool, &y, &tf, shape);
        assert!(
            back.max_abs_diff(&x) < 1e-4,
            "diff {}",
            back.max_abs_diff(&x)
        );
    }

    #[test]
    fn output_grad_adjoint_property() {
        // <from_winograd_output_par(Y), dy> == <Y, output_grad_to_winograd_par(dy)>
        let pool = ParPool::serial();
        let tf = WinogradTransform::f2x2_3x3();
        let mut gen = DataGen::new(5);
        let shape = Shape4::new(1, 2, 5, 5); // non-divisible: exercises cropping
        let tl = Tiling::new(&tf, 5, 5);
        let tiles = shape.n * tl.tiles_per_image();
        let mut y = WgTensor::zeros(16, tiles, 2);
        for v in &mut y.data {
            *v = gen.normal(0.0, 1.0) as f32;
        }
        let dy = gen.normal_tensor(shape, 0.0, 1.0);
        let fwd = from_winograd_output_par(&pool, &y, &tf, shape);
        let bwd = output_grad_to_winograd_par(&pool, &dy, &tf);
        let lhs: f64 = fwd
            .as_slice()
            .iter()
            .zip(dy.as_slice())
            .map(|(a, b)| (*a as f64) * (*b as f64))
            .sum();
        let rhs: f64 = y
            .data
            .iter()
            .zip(&bwd.data)
            .map(|(a, b)| (*a as f64) * (*b as f64))
            .sum();
        wmpt_check::assert_approx_eq!(lhs, rhs, wmpt_check::Tol::CONV_F32);
    }

    #[test]
    fn input_grad_adjoint_property() {
        // <to_winograd_input_par(x), dX> == <x, input_grad_to_spatial_par(dX)>
        let pool = ParPool::serial();
        let tf = WinogradTransform::f4x4_3x3();
        let mut gen = DataGen::new(6);
        let shape = Shape4::new(1, 2, 7, 7);
        let x = gen.normal_tensor(shape, 0.0, 1.0);
        let tl = Tiling::new(&tf, 7, 7);
        let tiles = shape.n * tl.tiles_per_image();
        let mut dxw = WgTensor::zeros(36, tiles, 2);
        for v in &mut dxw.data {
            *v = gen.normal(0.0, 1.0) as f32;
        }
        let fwd = to_winograd_input_par(&pool, &x, &tf);
        let bwd = input_grad_to_spatial_par(&pool, &dxw, &tf, shape);
        let lhs: f64 = fwd
            .data
            .iter()
            .zip(&dxw.data)
            .map(|(a, b)| (*a as f64) * (*b as f64))
            .sum();
        let rhs: f64 = x
            .as_slice()
            .iter()
            .zip(bwd.as_slice())
            .map(|(a, b)| (*a as f64) * (*b as f64))
            .sum();
        wmpt_check::assert_approx_eq!(lhs, rhs, wmpt_check::Tol::CONV_WIDE_F32);
    }

    #[test]
    fn transforms_are_bit_identical_for_any_jobs() {
        // All four transforms at jobs ∈ {1, 2, 7} against the one-thread
        // pool; odd sizes crop the edge tiles, batch 3 gives every job
        // count a different image split.
        let tf = WinogradTransform::f2x2_3x3();
        let mut gen = DataGen::new(17);
        let shape = Shape4::new(3, 2, 7, 5);
        let x = gen.normal_tensor(shape, 0.0, 1.0);
        let serial = ParPool::serial();
        let wx0 = to_winograd_input_par(&serial, &x, &tf);
        let y0 = from_winograd_output_par(&serial, &wx0, &tf, shape);
        let wdy0 = output_grad_to_winograd_par(&serial, &x, &tf);
        let dx0 = input_grad_to_spatial_par(&serial, &wx0, &tf, shape);
        for jobs in [1usize, 2, 7] {
            let pool = ParPool::new(jobs);
            let wx = to_winograd_input_par(&pool, &x, &tf);
            assert_eq!(bits(&wx0.data), bits(&wx.data), "input tf, jobs={jobs}");
            let y = from_winograd_output_par(&pool, &wx0, &tf, shape);
            assert_eq!(
                bits(y0.as_slice()),
                bits(y.as_slice()),
                "inverse tf, jobs={jobs}"
            );
            let wdy = output_grad_to_winograd_par(&pool, &x, &tf);
            assert_eq!(
                bits(&wdy0.data),
                bits(&wdy.data),
                "output-grad tf, jobs={jobs}"
            );
            let dx = input_grad_to_spatial_par(&pool, &wx0, &tf, shape);
            assert_eq!(
                bits(dx0.as_slice()),
                bits(dx.as_slice()),
                "input-grad tf, jobs={jobs}"
            );
        }
    }

    #[test]
    fn weights_sgd_step_moves_toward_negative_gradient() {
        let mut w = WgWeights::zeros(4, 2, 2);
        let mut g = WgWeights::zeros(4, 2, 2);
        g.data[5] = 2.0;
        w.sgd_step(&g, 0.5);
        assert_eq!(w.data[5], -1.0);
        assert!(w.data.iter().enumerate().all(|(i, &v)| i == 5 || v == 0.0));
    }
}
