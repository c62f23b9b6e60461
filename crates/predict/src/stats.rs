//! Measurement of activation-prediction quality and tile-transfer savings
//! (inputs to Fig 12 and the §V-B traffic-reduction numbers).

use wmpt_winograd::{WgTensor, WinogradTransform};

use crate::predictor::{read_tile, ActivationPredictor, PredictMode};
use crate::quantize::{sigma_of, QuantizerConfig};

/// Dead-tile / dead-line ratios, actual vs predicted.
///
/// "Actual" ratios are computed from the real inverse-transformed neurons
/// and are the dotted upper-limit lines of the paper's Fig 12; "predicted"
/// ratios are what the conservative predictor achieves and are always
/// `≤ actual` (soundness).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictionStats {
    /// Fraction of (tile, channel) pairs whose neurons are all ReLU-dead.
    pub actual_dead_tiles: f64,
    /// Fraction predicted dead at tile granularity.
    pub predicted_dead_tiles: f64,
    /// Fraction of output-tile rows (lines) that are all ReLU-dead.
    pub actual_dead_lines: f64,
    /// Fraction predicted dead at line granularity.
    pub predicted_dead_lines: f64,
}

impl PredictionStats {
    /// Tile-gathering traffic reduction at tile granularity (2-D predict
    /// flow skips whole tiles).
    pub fn gather_savings_tiles(&self) -> f64 {
        self.predicted_dead_tiles
    }

    /// Tile-gathering traffic reduction at line granularity (1-D predict
    /// flow skips lines).
    pub fn gather_savings_lines(&self) -> f64 {
        self.predicted_dead_lines
    }
}

/// Measures prediction quality over every (tile, output-channel) pair of a
/// Winograd-domain output tensor `y` (pre-inverse-transform, i.e. what the
/// workers hold right before tile gathering).
///
/// The quantizer is sized from the measured `σ` of `y` itself, mirroring
/// the paper's use of the data's standard deviation.
pub fn measure(
    y: &WgTensor,
    tf: &WinogradTransform,
    config: QuantizerConfig,
    mode: PredictMode,
) -> PredictionStats {
    let sigma = sigma_of(&y.data);
    let predictor = ActivationPredictor::new(tf.clone(), config, sigma);
    let m = tf.m();
    let mut tiles_total = 0usize;
    let mut tiles_dead_actual = 0usize;
    let mut tiles_dead_pred = 0usize;
    let mut lines_total = 0usize;
    let mut lines_dead_actual = 0usize;
    let mut lines_dead_pred = 0usize;

    let mut vals = vec![0.0; y.elems];
    for tile in 0..y.tiles {
        for c in 0..y.chans {
            read_tile(y, tile, c, &mut vals);
            let actual = predictor.actual(&vals);
            let pred = predictor.predict(&vals, mode);

            tiles_total += 1;
            let a_dead = actual.iter().all(|&v| v <= 0.0);
            if a_dead {
                tiles_dead_actual += 1;
            }
            if pred.tile_dead {
                tiles_dead_pred += 1;
                debug_assert!(a_dead, "predictor produced a false negative");
            }
            for row in 0..m {
                lines_total += 1;
                let row_dead = actual[row * m..(row + 1) * m].iter().all(|&v| v <= 0.0);
                if row_dead {
                    lines_dead_actual += 1;
                }
                if pred.rows_dead[row] {
                    lines_dead_pred += 1;
                    debug_assert!(row_dead, "predictor produced a false-negative line");
                }
            }
        }
    }

    let f = |n: usize, d: usize| if d == 0 { 0.0 } else { n as f64 / d as f64 };
    PredictionStats {
        actual_dead_tiles: f(tiles_dead_actual, tiles_total),
        predicted_dead_tiles: f(tiles_dead_pred, tiles_total),
        actual_dead_lines: f(lines_dead_actual, lines_total),
        predicted_dead_lines: f(lines_dead_pred, lines_total),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmpt_par::ParPool;
    use wmpt_tensor::{DataGen, Shape4};
    use wmpt_winograd::{output_grad_to_winograd_par, WinogradTransform};

    /// Builds Winograd-domain output tiles whose spatial neurons have a
    /// controlled negative bias, so a known fraction of tiles is dead.
    fn synthetic_outputs(seed: u64, bias: f64) -> WgTensor {
        let tf = WinogradTransform::f2x2_3x3();
        let mut g = DataGen::new(seed);
        // Draw spatial neurons with negative mean, then map them to the
        // Winograd domain with the adjoint (a linear bijection-ish map that
        // preserves "which tiles are dead" through actual()).
        let y = g.normal_tensor(Shape4::new(4, 8, 8, 8), bias, 1.0);
        output_grad_to_winograd_par(&ParPool::serial(), &y, &tf)
    }

    #[test]
    fn predicted_never_exceeds_actual() {
        let tf = WinogradTransform::f2x2_3x3();
        let y = synthetic_outputs(1, -1.0);
        for mode in [PredictMode::TwoD, PredictMode::OneD] {
            let s = measure(&y, &tf, QuantizerConfig::new(64, 4), mode);
            assert!(s.predicted_dead_tiles <= s.actual_dead_tiles + 1e-12);
            assert!(s.predicted_dead_lines <= s.actual_dead_lines + 1e-12);
        }
    }

    #[test]
    fn negative_bias_yields_many_dead_tiles() {
        let tf = WinogradTransform::f2x2_3x3();
        let y = synthetic_outputs(2, -2.0);
        let s = measure(&y, &tf, QuantizerConfig::new(64, 4), PredictMode::TwoD);
        assert!(s.actual_dead_tiles > 0.5, "actual {}", s.actual_dead_tiles);
        assert!(
            s.predicted_dead_tiles > 0.2,
            "predicted {}",
            s.predicted_dead_tiles
        );
    }

    #[test]
    fn one_d_predicts_more_lines_than_two_d_at_same_bits() {
        let tf = WinogradTransform::f2x2_3x3();
        let y = synthetic_outputs(3, -0.8);
        let s1 = measure(&y, &tf, QuantizerConfig::new(32, 4), PredictMode::OneD);
        let s2 = measure(&y, &tf, QuantizerConfig::new(32, 4), PredictMode::TwoD);
        assert!(
            s1.predicted_dead_lines >= s2.predicted_dead_lines,
            "1-D {} vs 2-D {}",
            s1.predicted_dead_lines,
            s2.predicted_dead_lines
        );
    }

    #[test]
    fn lines_die_more_often_than_tiles() {
        let tf = WinogradTransform::f2x2_3x3();
        let y = synthetic_outputs(4, -0.5);
        let s = measure(&y, &tf, QuantizerConfig::new(64, 4), PredictMode::TwoD);
        assert!(s.actual_dead_lines >= s.actual_dead_tiles);
    }

    #[test]
    fn savings_accessors_mirror_fields() {
        let s = PredictionStats {
            actual_dead_tiles: 0.5,
            predicted_dead_tiles: 0.34,
            actual_dead_lines: 0.9,
            predicted_dead_lines: 0.78,
        };
        assert_eq!(s.gather_savings_tiles(), 0.34);
        assert_eq!(s.gather_savings_lines(), 0.78);
    }
}
