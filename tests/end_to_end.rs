//! Cross-crate integration tests: the numerical pipeline (transforms →
//! convolution → distributed training → prediction) and the system
//! pipeline (models → exec → energy) working together.

use winograd_mpt::core::{
    fprop_distributed_par, gather_with_prediction, simulate_layer, simulate_network,
    train_step_distributed_par, SystemConfig, SystemModel,
};
use winograd_mpt::models::{table2_layers, wrn_40_10};
use winograd_mpt::noc::ClusterConfig;
use winograd_mpt::predict::{sigma_of, ActivationPredictor, PredictMode, QuantizerConfig};
use winograd_mpt::tensor::{DataGen, Shape4};
use winograd_mpt::winograd::{
    elementwise_gemm_par, from_winograd_output_par, relu, to_winograd_input_par,
    weights_to_winograd, DirectConv, WinogradLayer, WinogradTransform,
};
use wmpt_par::ParPool;

/// The full numerical story in one test: a Winograd layer distributed
/// MPT-style trains exactly like a centralized direct-convolution-checked
/// layer, and activation prediction changes nothing.
#[test]
fn mpt_numerics_end_to_end() {
    let mut gen = DataGen::new(2018);
    let x = gen.normal_tensor(Shape4::new(4, 3, 8, 8), 0.0, 1.0);
    let w = gen.he_weights(Shape4::new(6, 3, 3, 3));
    let dy = gen.normal_tensor(Shape4::new(4, 6, 8, 8), 0.0, 1.0);
    let tf = WinogradTransform::f2x2_3x3();
    let pool = ParPool::serial();

    // 1. Winograd forward == direct forward.
    let direct = DirectConv::new(3).fprop(&x, &w);
    let layer = WinogradLayer::from_spatial(tf.clone(), &w);
    assert!(layer.fprop_par(&pool, &x).max_abs_diff(&direct) < 1e-4);

    // 2. Distributed == centralized, for every paper grid shape that
    // divides this batch.
    for grid in [
        ClusterConfig::new(16, 1),
        ClusterConfig::new(4, 4),
        ClusterConfig::new(1, 4),
    ] {
        let dist = fprop_distributed_par(&pool, &layer, grid, &x);
        assert!(dist.max_abs_diff(&direct) < 1e-4, "grid {grid}");

        let mut central = layer.clone();
        let g = central.update_grad_par(&pool, &x, &dy);
        central.apply_grad(&g, 0.01);
        let mut distributed = layer.clone();
        train_step_distributed_par(&pool, &mut distributed, grid, &x, &dy, 0.01);
        let diff = distributed
            .weights()
            .data
            .iter()
            .zip(&central.weights().data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(diff < 1e-3, "grid {grid}: weight diff {diff}");
    }

    // 3. Prediction-gated gathering is lossless.
    let wx = to_winograd_input_par(&pool, &relu(&x), &tf);
    let ww = weights_to_winograd(&w, &tf);
    let y = elementwise_gemm_par(&pool, &wx, &ww);
    let shape = Shape4::new(4, 6, 8, 8);
    let predictor =
        ActivationPredictor::new(tf.clone(), QuantizerConfig::new(64, 4), sigma_of(&y.data));
    let (gated, _) = gather_with_prediction(&y, &predictor, PredictMode::TwoD, shape);
    let full = relu(&from_winograd_output_par(&pool, &y, &tf, shape));
    assert_eq!(gated.max_abs_diff(&full), 0.0);
}

/// The headline system claims, asserted through the public facade.
#[test]
fn system_headline_claims() {
    let model = SystemModel::paper();
    let layers = table2_layers();

    // Late layers: the full proposal wins by a wide margin.
    let dp = simulate_layer(&model, &layers[4], SystemConfig::WDp);
    let full = simulate_layer(&model, &layers[4], SystemConfig::WMpPD);
    assert!(dp.total_cycles() / full.total_cycles() > 2.0);

    // Early layers: dynamic clustering never loses to the baseline.
    let dp0 = simulate_layer(&model, &layers[0], SystemConfig::WDp);
    let full0 = simulate_layer(&model, &layers[0], SystemConfig::WMpPD);
    assert!(full0.total_cycles() <= dp0.total_cycles() * 1.001);

    // Energy: MPT cuts DRAM energy on weight-heavy layers.
    assert!(full.total_energy().dram_j < dp.total_energy().dram_j);
}

/// Whole-network simulation stays consistent across system configs.
#[test]
fn network_simulation_is_ordered() {
    let model = SystemModel::paper_fp16();
    let net = wrn_40_10();
    let dp = simulate_network(&model, &net, SystemConfig::WDp).total_cycles();
    let mp = simulate_network(&model, &net, SystemConfig::WMp).total_cycles();
    let mpd = simulate_network(&model, &net, SystemConfig::WMpD).total_cycles();
    let mppd = simulate_network(&model, &net, SystemConfig::WMpPD).total_cycles();
    // Dynamic clustering can only improve on fixed MPT (it may pick it).
    assert!(mpd <= mp * 1.001, "dynamic {mpd} vs fixed {mp}");
    // The full proposal is the best MPT variant and beats the baseline.
    assert!(mppd <= mpd * 1.001);
    assert!(mppd < dp);
}

/// Direct conv gradients validate the whole Winograd gradient chain: the
/// spatial weight gradient recovered from a Winograd-domain gradient
/// matches the direct computation.
#[test]
fn gradient_chain_consistency() {
    let mut gen = DataGen::new(7);
    let x = gen.normal_tensor(Shape4::new(2, 3, 6, 6), 0.0, 1.0);
    let _w = gen.he_weights(Shape4::new(4, 3, 3, 3));
    let dy = gen.normal_tensor(Shape4::new(2, 4, 6, 6), 0.0, 1.0);
    let direct_dw = DirectConv::new(3).update_grad(&x, &dy);
    let wino_dw = winograd_mpt::winograd::WinogradConv::new(WinogradTransform::f4x4_3x3())
        .update_grad(&x, &dy);
    let scale = direct_dw.max_abs().max(1.0);
    assert!(wino_dw.max_abs_diff(&direct_dw) / scale < 1e-3);
}
