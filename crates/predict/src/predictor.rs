//! Conservative activation prediction (paper §V, Fig 11).
//!
//! Before a source worker ships the *real* values of an output tile during
//! tile gathering, it sends quantized values; the destination worker
//! inverse-transforms both the quantized estimates and their quantization
//! resolutions to bound every spatial neuron from above. A tile (or line)
//! whose neurons are **certainly** ReLU-dead is never gathered.
//!
//! Two flows, selected by how much of a tile a group owns (§V-A):
//!
//! * **2-D predict** (`N_g` large, e.g. 16 groups × 1 element): the source
//!   quantizes raw Winograd-domain elements; the destination propagates
//!   intervals through *both* 1-D inverse transforms. Error accumulates
//!   across two passes.
//! * **1-D predict** (`N_g` small, e.g. 4 groups × 1 line): the source
//!   holds complete tile lines, applies the first 1-D inverse transform on
//!   *real* values (`Z = Y·A`), then quantizes. The destination only
//!   propagates intervals through the remaining 1-D transform (`y = Aᵀ·Z`),
//!   halving error accumulation — which is why the paper's 1-D predict is
//!   more accurate at fewer bits.
//!
//! The prediction is *sound*: no false negatives (an activated neuron is
//! never predicted dead). This is property-tested in this crate and relied
//! on by the system simulation for its accuracy-neutral traffic savings.

use wmpt_winograd::WinogradTransform;

use crate::bounds::IntervalMat;
use crate::quantize::NonUniformQuantizer;

/// Which prediction flow runs (paper Fig 11).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PredictMode {
    /// Quantize raw tile elements; destination does both 1-D transforms on
    /// intervals.
    TwoD,
    /// Source applies the first 1-D inverse transform on real values, then
    /// quantizes; destination does one interval transform.
    OneD,
}

/// Result of predicting one output tile.
#[derive(Debug, Clone, PartialEq)]
pub struct TilePrediction {
    /// Output tile rows (`m`).
    pub m: usize,
    /// Conservative upper bound for each spatial neuron (`m × m`).
    pub upper: Vec<f32>,
    /// Conservative lower bound for each spatial neuron (`m × m`).
    pub lower: Vec<f32>,
    /// `true` if all `m²` neurons are certainly dead (tile skippable).
    pub tile_dead: bool,
    /// Per-row deadness (`m` entries; line-granularity skipping).
    pub rows_dead: Vec<bool>,
}

impl TilePrediction {
    /// Number of dead rows.
    pub fn dead_row_count(&self) -> usize {
        self.rows_dead.iter().filter(|d| **d).count()
    }
}

/// The activation predictor: a transform plus a quantizer.
///
/// # Examples
///
/// ```
/// use wmpt_predict::{ActivationPredictor, PredictMode, QuantizerConfig};
/// use wmpt_winograd::WinogradTransform;
///
/// let tf = WinogradTransform::f2x2_3x3();
/// let p = ActivationPredictor::new(tf, QuantizerConfig::new(64, 4), 1.0);
/// // A strongly negative Winograd-domain tile is predicted dead.
/// let tile = vec![-5.0f32; 16];
/// let pred = p.predict(&tile, PredictMode::TwoD);
/// let actual = p.actual(&tile);
/// for (u, a) in pred.upper.iter().zip(&actual) {
///     assert!(u >= a); // bound is conservative
/// }
/// ```
#[derive(Debug, Clone)]
pub struct ActivationPredictor {
    tf: WinogradTransform,
    quantizer: NonUniformQuantizer,
    /// Per-output-column quantizers for the 1-D flow. The half-transformed
    /// values `Z[:, j] = Y · A[:, j]` have standard deviation
    /// `σ · ‖Aᵀ row j‖₂` for i.i.d. tile values, and the paper sizes the
    /// step by the σ of the real values actually being quantized.
    one_d_quantizers: Vec<NonUniformQuantizer>,
}

impl ActivationPredictor {
    /// Creates a predictor; `sigma` is the standard deviation of the
    /// Winograd-domain values being quantized (measured upstream).
    pub fn new(tf: WinogradTransform, config: crate::QuantizerConfig, sigma: f64) -> Self {
        let one_d_quantizers = (0..tf.m())
            .map(|j| {
                let norm = tf.a_t().row(j).iter().map(|c| c * c).sum::<f64>().sqrt();
                NonUniformQuantizer::new(config, sigma * norm.max(1e-9))
            })
            .collect();
        Self {
            tf,
            quantizer: NonUniformQuantizer::new(config, sigma),
            one_d_quantizers,
        }
    }

    /// The underlying quantizer.
    pub fn quantizer(&self) -> &NonUniformQuantizer {
        &self.quantizer
    }

    /// The transform in use.
    pub fn transform(&self) -> &WinogradTransform {
        &self.tf
    }

    /// Exact spatial neurons of a Winograd-domain output tile
    /// (`T×T` → `m×m`), for comparison against predictions.
    ///
    /// # Panics
    ///
    /// Panics if `tile.len() != T²`.
    pub fn actual(&self, tile: &[f32]) -> Vec<f32> {
        self.tf.inverse_2d(tile)
    }

    /// Predicts the spatial neurons of one Winograd-domain output tile
    /// (`T×T`, row-major) under the given flow.
    ///
    /// # Panics
    ///
    /// Panics if `tile.len() != T²`.
    pub fn predict(&self, tile: &[f32], mode: PredictMode) -> TilePrediction {
        self.predict_with_bias(tile, mode, 0.0)
    }

    /// [`Self::predict`] for a layer with a channel bias: the destination
    /// adds `bias` to every spatial neuron after the inverse transform
    /// (before ReLU). The bias is exact, so it shifts both bounds —
    /// soundness is preserved.
    ///
    /// # Panics
    ///
    /// Panics if `tile.len() != T²`.
    pub fn predict_with_bias(&self, tile: &[f32], mode: PredictMode, bias: f32) -> TilePrediction {
        let t = self.tf.t();
        assert_eq!(tile.len(), t * t, "tile must be T*T");
        let a_t = self.tf.a_t();
        let interval = match mode {
            PredictMode::TwoD => {
                // Source: quantize raw elements.
                let (lo, hi) = self.quantizer.quantize_all(tile);
                let iv = IntervalMat::from_bounds(t, t, lo, hi);
                // Destination: y = A^T * Y * A, both passes on intervals.
                iv.lmul(a_t).rmul_t(a_t)
            }
            PredictMode::OneD => {
                // Source: Z = Y * A on real values (per line, local).
                let m = self.tf.m();
                let mut z = vec![0.0f32; t * m];
                for row in 0..t {
                    let line = &tile[row * t..(row + 1) * t];
                    // z[row, j] = sum_k line[k] * A[k, j] = sum_k line[k] * A^T[j, k]
                    for j in 0..m {
                        let s: f64 = line
                            .iter()
                            .zip(a_t.row(j))
                            .map(|(v, c)| *v as f64 * c)
                            .sum();
                        z[row * m + j] = s as f32;
                    }
                }
                // Quantize Z column-wise with σ-matched quantizers, then
                // destination: y = A^T * Z on intervals.
                let mut lo = vec![0.0f32; t * m];
                let mut hi = vec![0.0f32; t * m];
                for row in 0..t {
                    for j in 0..m {
                        let q = self.one_d_quantizers[j].quantize(z[row * m + j]);
                        lo[row * m + j] = q.lo;
                        hi[row * m + j] = q.hi;
                    }
                }
                IntervalMat::from_bounds(t, m, lo, hi).lmul(a_t)
            }
        };
        let mut interval = interval;
        if bias != 0.0 {
            for v in &mut interval.lo {
                *v += bias;
            }
            for v in &mut interval.hi {
                *v += bias;
            }
        }
        let tile_dead = interval.certainly_negative();
        let rows_dead = interval.rows_certainly_negative();
        TilePrediction {
            m: self.tf.m(),
            upper: interval.hi,
            lower: interval.lo,
            tile_dead,
            rows_dead,
        }
    }
}

/// Batched prediction over a whole Winograd-domain output tensor — what a
/// worker's P2P unit computes for every tile it is about to gather.
#[derive(Debug, Clone)]
pub struct TensorPrediction {
    /// `tiles × chans` flags: tile fully dead (row-major by tile, then
    /// channel).
    pub dead_tiles: Vec<bool>,
    /// `tiles × chans × m` flags: output-tile row dead.
    pub dead_lines: Vec<bool>,
    /// Output rows per tile (`m`).
    pub m: usize,
    /// Channels per tile index.
    pub chans: usize,
}

impl TensorPrediction {
    /// Fraction of (tile, channel) pairs predicted fully dead.
    pub fn dead_tile_fraction(&self) -> f64 {
        if self.dead_tiles.is_empty() {
            return 0.0;
        }
        self.dead_tiles.iter().filter(|d| **d).count() as f64 / self.dead_tiles.len() as f64
    }

    /// Fraction of output lines predicted dead.
    pub fn dead_line_fraction(&self) -> f64 {
        if self.dead_lines.is_empty() {
            return 0.0;
        }
        self.dead_lines.iter().filter(|d| **d).count() as f64 / self.dead_lines.len() as f64
    }
}

/// Runs the predictor over every (tile, channel) pair of `y`.
pub fn predict_tensor(
    y: &wmpt_winograd::WgTensor,
    predictor: &ActivationPredictor,
    mode: PredictMode,
) -> TensorPrediction {
    let m = predictor.transform().m();
    let mut dead_tiles = Vec::with_capacity(y.tiles * y.chans);
    let mut dead_lines = Vec::with_capacity(y.tiles * y.chans * m);
    let mut vals = vec![0.0; y.elems];
    for tile in 0..y.tiles {
        for c in 0..y.chans {
            read_tile(y, tile, c, &mut vals);
            let pred = predictor.predict(&vals, mode);
            dead_tiles.push(pred.tile_dead);
            dead_lines.extend_from_slice(&pred.rows_dead);
        }
    }
    TensorPrediction {
        dead_tiles,
        dead_lines,
        m,
        chans: y.chans,
    }
}

/// Copies the `T²` elements of tile `tile`, channel `c` of `y` into
/// `buf`: the one buffer a per-tile walk reuses for every pair.
pub(crate) fn read_tile(y: &wmpt_winograd::WgTensor, tile: usize, c: usize, buf: &mut [f32]) {
    for (e, v) in buf.iter_mut().enumerate() {
        *v = y.data[y.index(e, tile, c)];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QuantizerConfig;
    use wmpt_tensor::DataGen;

    fn predictor(levels: u32, regions: u32) -> ActivationPredictor {
        ActivationPredictor::new(
            WinogradTransform::f2x2_3x3(),
            QuantizerConfig::new(levels, regions),
            1.0,
        )
    }

    fn random_tile(gen: &mut DataGen, n: usize, sigma: f64) -> Vec<f32> {
        (0..n).map(|_| gen.normal(0.0, sigma) as f32).collect()
    }

    #[test]
    fn bounds_contain_actual_2d() {
        let p = predictor(64, 4);
        let mut g = DataGen::new(1);
        for _ in 0..500 {
            let tile = random_tile(&mut g, 16, 1.0);
            let pred = p.predict(&tile, PredictMode::TwoD);
            let actual = p.actual(&tile);
            for (i, a) in actual.iter().enumerate() {
                assert!(
                    pred.lower[i] <= *a + 1e-4 && *a - 1e-4 <= pred.upper[i],
                    "neuron {i}: {a} outside [{}, {}]",
                    pred.lower[i],
                    pred.upper[i]
                );
            }
        }
    }

    #[test]
    fn bounds_contain_actual_1d() {
        let p = predictor(32, 4);
        let mut g = DataGen::new(2);
        for _ in 0..500 {
            let tile = random_tile(&mut g, 16, 1.0);
            let pred = p.predict(&tile, PredictMode::OneD);
            let actual = p.actual(&tile);
            for (i, a) in actual.iter().enumerate() {
                assert!(
                    pred.lower[i] <= *a + 1e-4 && *a - 1e-4 <= pred.upper[i],
                    "neuron {i}: {a} outside [{}, {}]",
                    pred.lower[i],
                    pred.upper[i]
                );
            }
        }
    }

    #[test]
    fn no_false_negatives_even_with_overflow() {
        // Large sigma mismatch forces overflow handling.
        let p = predictor(16, 2);
        let mut g = DataGen::new(3);
        for _ in 0..500 {
            let tile = random_tile(&mut g, 16, 10.0); // quantizer sized for sigma=1
            for mode in [PredictMode::TwoD, PredictMode::OneD] {
                let pred = p.predict(&tile, mode);
                let actual = p.actual(&tile);
                if pred.tile_dead {
                    assert!(actual.iter().all(|&v| v <= 1e-4), "false negative");
                }
                for (row, dead) in pred.rows_dead.iter().enumerate() {
                    if *dead {
                        assert!(actual[row * 2..row * 2 + 2].iter().all(|&v| v <= 1e-4));
                    }
                }
            }
        }
    }

    #[test]
    fn one_d_bounds_tighter_than_two_d() {
        // Same bit budget: 1-D predict accumulates less error.
        let p = predictor(32, 4);
        let mut g = DataGen::new(4);
        let mut w1 = 0.0f64;
        let mut w2 = 0.0f64;
        for _ in 0..200 {
            let tile = random_tile(&mut g, 16, 1.0);
            let p1 = p.predict(&tile, PredictMode::OneD);
            let p2 = p.predict(&tile, PredictMode::TwoD);
            w1 += p1
                .upper
                .iter()
                .zip(&p1.lower)
                .map(|(h, l)| (h - l) as f64)
                .sum::<f64>();
            w2 += p2
                .upper
                .iter()
                .zip(&p2.lower)
                .map(|(h, l)| (h - l) as f64)
                .sum::<f64>();
        }
        assert!(w1 < w2, "1-D width {w1} should beat 2-D width {w2}");
    }

    #[test]
    fn strongly_negative_tiles_predicted_dead() {
        let p = predictor(64, 4);
        // inverse transform of constant tile c: A^T (c J) A; for F(2,3) the
        // row sums of A^T are (3, -1) -> some neurons positive for c<0, so
        // build a tile whose *neurons* are strongly negative instead:
        // use the forward route: pick spatial neurons -10 and map back.
        let tf = WinogradTransform::f2x2_3x3();
        let dy = vec![-10.0f32; 4];
        let tile = tf.inverse_2d_grad(&dy); // A * dy * A^T: a T*T tile whose inverse is strongly negative
        let pred = p.predict(&tile, PredictMode::TwoD);
        let actual = p.actual(&tile);
        assert!(actual.iter().all(|&v| v < 0.0));
        assert!(pred.tile_dead, "upper bounds: {:?}", pred.upper);
    }

    #[test]
    fn more_levels_improve_prediction_rate() {
        let mut g = DataGen::new(5);
        let tiles: Vec<Vec<f32>> = (0..400).map(|_| random_tile(&mut g, 16, 1.0)).collect();
        let rate = |levels: u32| -> usize {
            let p = predictor(levels, 4);
            tiles
                .iter()
                .filter(|t| p.predict(t, PredictMode::TwoD).tile_dead)
                .count()
        };
        assert!(
            rate(128) >= rate(16),
            "finer quantization should not predict fewer dead tiles"
        );
    }
    #[test]
    fn bias_shifts_bounds_soundly() {
        let p = predictor(64, 4);
        let mut g = DataGen::new(11);
        for _ in 0..200 {
            let tile = random_tile(&mut g, 16, 1.0);
            for bias in [-2.0f32, -0.5, 0.5] {
                let pred = p.predict_with_bias(&tile, PredictMode::TwoD, bias);
                let actual: Vec<f32> = p.actual(&tile).iter().map(|v| v + bias).collect();
                for (i, a) in actual.iter().enumerate() {
                    assert!(
                        pred.lower[i] - 1e-4 <= *a && *a <= pred.upper[i] + 1e-4,
                        "bias {bias}, neuron {i}: {a} outside [{}, {}]",
                        pred.lower[i],
                        pred.upper[i]
                    );
                }
                if pred.tile_dead {
                    assert!(actual.iter().all(|&v| v <= 1e-4));
                }
            }
        }
    }

    #[test]
    fn negative_bias_predicts_more_dead_tiles() {
        let p = predictor(64, 4);
        let mut g = DataGen::new(12);
        let tiles: Vec<Vec<f32>> = (0..300).map(|_| random_tile(&mut g, 16, 1.0)).collect();
        let dead = |bias: f32| {
            tiles
                .iter()
                .filter(|t| p.predict_with_bias(t, PredictMode::TwoD, bias).tile_dead)
                .count()
        };
        assert!(dead(-1.5) > dead(0.0));
        assert!(dead(0.0) >= dead(1.5));
    }
    #[test]
    fn tensor_prediction_matches_per_tile_calls() {
        use wmpt_winograd::WgTensor;
        let p = predictor(64, 4);
        let mut g = DataGen::new(21);
        let mut y = WgTensor::zeros(16, 6, 3);
        for v in &mut y.data {
            *v = g.normal(-0.5, 1.0) as f32;
        }
        let tp = super::predict_tensor(&y, &p, PredictMode::TwoD);
        assert_eq!(tp.dead_tiles.len(), 18);
        assert_eq!(tp.dead_lines.len(), 18 * 2);
        for tile in 0..6 {
            for c in 0..3 {
                let single = p.predict(&y.gather_tile(tile, c), PredictMode::TwoD);
                assert_eq!(tp.dead_tiles[tile * 3 + c], single.tile_dead);
            }
        }
        assert!(tp.dead_tile_fraction() <= tp.dead_line_fraction() + 1e-12);
    }
}
