//! Zero-skipping of input-tile scattering (paper §V-B) and the
//! activation-map bookkeeping shared between source and destination
//! workers (paper §VI-C).
//!
//! Post-ReLU feature maps are sparse. During tile *scattering* the source
//! worker omits zero values and the destination refills them from a shared
//! activation map. How many zeros survive depends on where the transform
//! runs:
//!
//! * the 16-group (2-D) configuration scatters fully transformed tiles
//!   (`Bᵀ x B`), whose dense coefficient mixing destroys most zeros;
//! * the 4-group (1-D) configuration scatters half-transformed lines
//!   (`Bᵀ x`), which preserves zero *columns* — hence the paper's larger
//!   64.7 % (1-D) vs 39.3 % (2-D) scatter savings.

use wmpt_par::ParPool;
use wmpt_tensor::Tensor4;
use wmpt_winograd::{to_spatial_tiles, to_winograd_input_par, WinogradTransform};

/// A bitmap over the values of a tile payload: `true` marks values that
/// are transferred, `false` marks skipped (zero or predicted-dead) values.
///
/// This models the "activation map of input and output tiles" the paper's
/// communication units exchange; [`Self::payload_bytes`] is what the
/// packing DMA actually puts on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActivationMap {
    kept: Vec<bool>,
}

impl ActivationMap {
    /// Builds the map for a value slice, keeping non-zero entries.
    pub fn from_values(vals: &[f32]) -> Self {
        Self {
            kept: vals.iter().map(|v| *v != 0.0).collect(),
        }
    }

    /// Number of entries kept.
    pub fn kept_count(&self) -> usize {
        self.kept.iter().filter(|k| **k).count()
    }

    /// Total entries covered.
    pub fn len(&self) -> usize {
        self.kept.len()
    }

    /// `true` if the map covers no entries.
    pub fn is_empty(&self) -> bool {
        self.kept.is_empty()
    }

    /// Fraction of entries skipped.
    pub fn skip_fraction(&self) -> f64 {
        if self.kept.is_empty() {
            return 0.0;
        }
        1.0 - self.kept_count() as f64 / self.kept.len() as f64
    }

    /// Bytes on the wire for an `f32` payload packed by this map, including
    /// the 1-bit-per-entry map itself.
    pub fn payload_bytes(&self) -> usize {
        self.kept_count() * 4 + self.kept.len().div_ceil(8)
    }

    /// Packs a value slice according to the map (the pointer-register
    /// packing of Fig 13(b)).
    ///
    /// # Panics
    ///
    /// Panics if `vals.len() != self.len()`.
    pub fn pack(&self, vals: &[f32]) -> Vec<f32> {
        assert_eq!(vals.len(), self.kept.len(), "pack length mismatch");
        vals.iter()
            .zip(&self.kept)
            .filter_map(|(v, k)| if *k { Some(*v) } else { None })
            .collect()
    }

    /// Unpacks on the receiving side, refilling skipped entries with zero.
    ///
    /// # Panics
    ///
    /// Panics if `packed.len() != self.kept_count()`.
    pub fn unpack(&self, packed: &[f32]) -> Vec<f32> {
        assert_eq!(packed.len(), self.kept_count(), "unpack length mismatch");
        let mut it = packed.iter();
        self.kept
            .iter()
            .map(|k| {
                if *k {
                    *it.next().expect("length checked")
                } else {
                    0.0
                }
            })
            .collect()
    }
}

/// Zero fraction of the fully 2-D-transformed input tiles (`Bᵀ x B`) —
/// the scatter payload of the 16-group configuration. Counts the zeros of
/// the very tensor MPT scatters, [`to_winograd_input_par`].
pub fn scatter_zero_fraction_2d(x: &Tensor4, tf: &WinogradTransform) -> f64 {
    let wx = to_winograd_input_par(&ParPool::serial(), x, tf);
    let zeros = wx.data.iter().filter(|v| **v == 0.0).count();
    fraction(zeros, wx.data.len())
}

/// Zero fraction of half-transformed input lines (`Bᵀ x`, 1-D only) — the
/// scatter payload of the 4-group configuration. Value `(i, j)` of a
/// tile's `Z = Bᵀ x` mixes column `j` of `x` only: one f64 sum over `k`
/// in ascending order, tested against zero in f64, for every (tile,
/// channel) of the spatial tiles' element runs at once.
pub fn scatter_zero_fraction_1d(x: &Tensor4, tf: &WinogradTransform) -> f64 {
    let sp = to_spatial_tiles(x, tf);
    let (t, b_t) = (tf.t(), tf.b_t());
    let mut zeros = 0usize;
    for j in 0..t {
        let cols: Vec<&[f32]> = (0..t).map(|k| sp.elem_matrix(k * t + j)).collect();
        for i in 0..t {
            let coeffs = b_t.row(i);
            zeros += (0..sp.tiles * sp.chans)
                .filter(|&at| {
                    let s = (0..t).fold(0.0f64, |s, k| s + coeffs[k] * cols[k][at] as f64);
                    s == 0.0
                })
                .count();
        }
    }
    fraction(zeros, sp.data.len())
}

/// `zeros / total`, or zero for an empty map.
fn fraction(zeros: usize, total: usize) -> f64 {
    if total == 0 {
        0.0
    } else {
        zeros as f64 / total as f64
    }
}

/// Zero fraction of the raw spatial feature map (upper bound on what any
/// scatter scheme can skip).
pub fn spatial_zero_fraction(x: &Tensor4) -> f64 {
    x.zero_fraction()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmpt_tensor::{DataGen, Shape4};
    use wmpt_winograd::relu;

    fn post_relu_map(seed: u64) -> Tensor4 {
        let mut g = DataGen::new(seed);
        relu(&g.normal_tensor(Shape4::new(2, 4, 12, 12), 0.0, 1.0))
    }

    #[test]
    fn activation_map_round_trip() {
        let vals = vec![0.0, 1.5, 0.0, -2.0, 0.0, 3.0];
        let map = ActivationMap::from_values(&vals);
        assert_eq!(map.kept_count(), 3);
        wmpt_check::assert_approx_eq!(map.skip_fraction(), 0.5, wmpt_check::Tol::F64_TIGHT);
        let packed = map.pack(&vals);
        assert_eq!(packed, vec![1.5, -2.0, 3.0]);
        assert_eq!(map.unpack(&packed), vals);
    }

    #[test]
    fn payload_bytes_include_bitmap() {
        let vals = vec![0.0; 16];
        let map = ActivationMap::from_values(&vals);
        assert_eq!(map.payload_bytes(), 2); // 0 values + 16-bit map
        let vals = vec![1.0; 16];
        let map = ActivationMap::from_values(&vals);
        assert_eq!(map.payload_bytes(), 64 + 2);
    }

    #[test]
    fn relu_input_is_roughly_half_zero() {
        let x = post_relu_map(1);
        let z = spatial_zero_fraction(&x);
        assert!((0.35..0.65).contains(&z), "zero fraction {z}");
    }

    #[test]
    fn one_d_preserves_more_zeros_than_two_d() {
        let x = post_relu_map(2);
        let tf = WinogradTransform::f2x2_3x3();
        let z1 = scatter_zero_fraction_1d(&x, &tf);
        let z2 = scatter_zero_fraction_2d(&x, &tf);
        assert!(z1 >= z2, "1-D {z1} should be >= 2-D {z2}");
        assert!(z1 > 0.0, "some zeros must survive the 1-D transform");
    }

    #[test]
    fn dense_input_has_no_skippable_zeros() {
        let mut g = DataGen::new(3);
        let x = g.uniform_tensor(Shape4::new(1, 1, 8, 8), 0.5, 1.0);
        // interior is dense; only padding-born zeros appear in transforms
        assert_eq!(spatial_zero_fraction(&x), 0.0);
        let tf = WinogradTransform::f2x2_3x3();
        let z2 = scatter_zero_fraction_2d(&x, &tf);
        assert!(z2 < 0.5);
    }
}
