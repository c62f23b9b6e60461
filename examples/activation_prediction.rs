//! Activation prediction end to end: quantize Winograd-domain outputs,
//! bound every spatial neuron conservatively, skip the provably dead
//! tiles during gathering — and verify the network's outputs are
//! bit-identical to the unpredicted path.
//!
//! ```text
//! cargo run --example activation_prediction
//! ```

use winograd_mpt::core::gather_with_prediction;
use winograd_mpt::predict::{sigma_of, ActivationPredictor, PredictMode, QuantizerConfig};
use winograd_mpt::tensor::{DataGen, Shape4};
use winograd_mpt::winograd::{
    elementwise_gemm_par, from_winograd_output_par, relu, to_winograd_input_par,
    weights_to_winograd, WinogradTransform,
};
use wmpt_par::ParPool;

fn main() {
    let tf = WinogradTransform::f2x2_3x3();
    let mut gen = DataGen::new(3);
    let pool = ParPool::serial();

    // A conv layer's Winograd-domain outputs right before tile gathering.
    let x = relu(&gen.normal_tensor(Shape4::new(4, 16, 16, 16), 0.0, 1.0));
    let w = gen.he_weights(Shape4::new(16, 16, 3, 3));
    let wx = to_winograd_input_par(&pool, &x, &tf);
    let ww = weights_to_winograd(&w, &tf);
    let y = elementwise_gemm_par(&pool, &wx, &ww);
    let out_shape = Shape4::new(4, 16, 16, 16);

    let sigma = sigma_of(&y.data);
    println!(
        "Winograd-domain output sigma: {sigma:.3} ({} values)",
        y.data.len()
    );

    for (levels, mode, name) in [
        (64u32, PredictMode::TwoD, "2-D predict, 6-bit"),
        (32u32, PredictMode::OneD, "1-D predict, 5-bit"),
    ] {
        let predictor =
            ActivationPredictor::new(tf.clone(), QuantizerConfig::new(levels, 4), sigma);
        let (predicted, skipped) = gather_with_prediction(&y, &predictor, mode, out_shape);
        let full = relu(&from_winograd_output_par(&pool, &y, &tf, out_shape));
        let diff = predicted.max_abs_diff(&full);
        let total = y.bytes() as f64;
        println!(
            "{name}: skipped {:.1}% of tile-gather bytes, output max |diff| = {diff:.1e}",
            100.0 * skipped as f64 / total
        );
        assert_eq!(diff, 0.0, "prediction must be lossless");
    }
    println!("activation prediction saved traffic without changing a single output value.");
}
