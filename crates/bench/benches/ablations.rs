//! Ablation benches for the design choices DESIGN.md calls out:
//! collective chunk size, dynamic clustering on/off, quantizer geometry,
//! the 1-D-transform-at-source optimization, and the single-group
//! transform choice (F(2×2) vs F(4×4)). Each bench prints the ablation's
//! outcome once, then times the underlying evaluation.

use std::hint::black_box;
use wmpt_bench::timing::bench;

use wmpt_core::{simulate_layer, SystemConfig, SystemModel};
use wmpt_models::table2_layers;
use wmpt_noc::{estimate_comm, ring_collective_cycles, ClusterConfig, NocParams};
use wmpt_predict::{measure, PredictMode, QuantizerConfig};

/// Chunk-size ablation: the paper picked 256 B chunks "to reduce packet
/// overhead"; smaller chunks pay more headers, larger ones lengthen the
/// pipeline fill.
fn ablate_chunk_size() {
    for chunk in [64usize, 128, 256, 512, 1024] {
        let params = NocParams {
            collective_chunk_bytes: chunk,
            ..NocParams::paper()
        };
        let cycles = ring_collective_cycles(8 << 20, 16, 60.0, &params, 0);
        println!("chunk {chunk:>5} B -> ring collective {cycles:.0} cycles");
        bench(&format!("ablation_chunk_size/{chunk}"), || {
            ring_collective_cycles(black_box(8 << 20), 16, 60.0, &params, 0)
        });
    }
}

/// Dynamic clustering on/off per layer (Fig 15's w_mp vs w_mp*).
fn ablate_dynamic_clustering() {
    let model = SystemModel::paper();
    for l in table2_layers() {
        let fixed = simulate_layer(&model, &l, SystemConfig::WMp).total_cycles();
        let dynamic = simulate_layer(&model, &l, SystemConfig::WMpD).total_cycles();
        println!(
            "{:<8} fixed (16,16): {fixed:.0} cy, dynamic: {dynamic:.0} cy ({:.2}x)",
            l.name,
            fixed / dynamic
        );
        bench(&format!("ablation_dynamic_clustering/{}", l.name), || {
            simulate_layer(&model, black_box(&l), SystemConfig::WMpD)
        });
    }
}

/// Quantizer geometry sweep (Fig 12's design space).
fn ablate_quantizer() {
    let (y, _, tf) = wmpt_bench::fig12::synthetic_outputs(99);
    for regions in [1u32, 2, 4, 8] {
        let cfg = QuantizerConfig::new(64, regions);
        let s = measure(&y, &tf, cfg, PredictMode::TwoD);
        println!(
            "regions {regions}: predicted dead tiles {:.3} (actual {:.3})",
            s.predicted_dead_tiles, s.actual_dead_tiles
        );
        bench(&format!("ablation_quantizer/{regions}"), || {
            measure(black_box(&y), &tf, cfg, PredictMode::TwoD)
        });
    }
}

/// The (4, 64) configuration's 1-D-transform-at-source optimization
/// (§IV): gather volume factor m/T vs 1.
fn ablate_one_d_transfer() {
    let params = NocParams::paper();
    let cfg = ClusterConfig::new(4, 64);
    let layer = &table2_layers()[2];
    let tiles = layer.input_tile_bytes(256, 2, 4) + layer.output_tile_bytes(256, 2, 4);
    let with = estimate_comm(
        cfg,
        &params,
        layer.winograd_weight_bytes(4),
        (tiles as f64 * cfg.tile_volume_factor(2, 4)) as u64,
        60.0,
        16,
    );
    let without = estimate_comm(
        cfg,
        &params,
        layer.winograd_weight_bytes(4),
        tiles,
        60.0,
        16,
    );
    println!(
        "1-D at source on {}: tile comm {:.0} -> {:.0} cycles ({:.2}x)",
        layer.name,
        without.tile_cycles,
        with.tile_cycles,
        without.tile_cycles / with.tile_cycles
    );
    bench("ablation_one_d_transfer", || {
        estimate_comm(
            black_box(cfg),
            &params,
            layer.winograd_weight_bytes(4),
            (tiles as f64 * cfg.tile_volume_factor(2, 4)) as u64,
            60.0,
            16,
        )
    });
}

/// Single-group transform choice: F(4×4,3×3) (the paper's pick for
/// compute) vs F(2×2,3×3) at the data-parallel configuration.
fn ablate_single_group_transform() {
    let model = SystemModel::paper();
    for l in [&table2_layers()[0], &table2_layers()[4]] {
        // The config machinery picks F(4,3) at n_g == 1; quantify the MAC
        // difference of the alternative directly.
        let macs_f43 = l.winograd_macs(256, 4, 6);
        let macs_f23 = l.winograd_macs(256, 2, 4);
        println!(
            "{:<8} GEMM MACs: F(4x4) {:.2}G vs F(2x2) {:.2}G ({:.2}x more for F(2x2))",
            l.name,
            macs_f43 as f64 / 1e9,
            macs_f23 as f64 / 1e9,
            macs_f23 as f64 / macs_f43 as f64
        );
        bench(
            &format!("ablation_single_group_transform/{}", l.name),
            || simulate_layer(&model, black_box(l), SystemConfig::WDp),
        );
    }
}

/// Collective algorithm choice: pipelined reduce+broadcast (the paper's
/// §VI-C scheme) vs NCCL-style reduce-scatter + all-gather.
fn ablate_collective_algorithm() {
    let p = NocParams::paper();
    for (name, msg) in [
        ("late_layer_16MiB", 16u64 << 20),
        ("small_1MiB", 1u64 << 20),
    ] {
        let rb = wmpt_noc::ring_collective_cycles(msg, 16, 60.0, &p, 0);
        let ar = wmpt_noc::ring_allreduce_cycles(msg, 16, 60.0, &p, 0);
        println!("{name}: reduce+broadcast {rb:.0} cy, reduce-scatter+all-gather {ar:.0} cy");
    }
    bench("ablation_collective_algorithm", || {
        wmpt_noc::best_ring_collective_cycles(black_box(16u64 << 20), 16, 60.0, &p, 0)
    });
}

/// Measured-vs-paper prediction savings driving the full system model:
/// the loop closure from our own Fig 12 measurement into Fig 15.
fn ablate_measured_savings() {
    use wmpt_core::PredictionSavings;
    let (y, x, tf) = wmpt_bench::fig12::synthetic_outputs(2018);
    let s2 = measure(&y, &tf, QuantizerConfig::new(64, 4), PredictMode::TwoD);
    let s1 = measure(&y, &tf, QuantizerConfig::new(32, 4), PredictMode::OneD);
    let measured = PredictionSavings::from_measurement(
        s2.gather_savings_tiles(),
        s1.gather_savings_lines(),
        wmpt_predict::scatter_zero_fraction_2d(&x, &tf),
        wmpt_predict::scatter_zero_fraction_1d(&x, &tf),
    );
    let layer = &table2_layers()[4];
    let paper_model = SystemModel::paper();
    let measured_model = SystemModel {
        savings: measured,
        ..SystemModel::paper()
    };
    let t_paper = simulate_layer(&paper_model, layer, SystemConfig::WMpPD).total_cycles();
    let t_meas = simulate_layer(&measured_model, layer, SystemConfig::WMpPD).total_cycles();
    println!(
        "Late-2 w_mp++: paper savings {t_paper:.0} cy, our measured savings {t_meas:.0} cy ({:+.1}%)",
        100.0 * (t_meas - t_paper) / t_paper
    );
    bench("ablation_measured_savings", || {
        simulate_layer(black_box(&measured_model), layer, SystemConfig::WMpPD)
    });
}

/// Prediction under the larger F(4x4,3x3) tile: more neurons per tile
/// makes whole-tile deadness rarer, but line granularity recovers much
/// of it — why the paper predicts on F(2x2) tiles.
fn ablate_prediction_tile_size() {
    use wmpt_par::ParPool;
    use wmpt_tensor::{DataGen, Shape4};
    use wmpt_winograd::{
        elementwise_gemm_par, relu, to_winograd_input_par, weights_to_winograd, WinogradTransform,
    };
    let pool = ParPool::serial();
    let mut done_once = false;
    for (name, tf) in [
        ("F(2,3)", WinogradTransform::f2x2_3x3()),
        ("F(4,3)", WinogradTransform::f4x4_3x3()),
    ] {
        let mut g = DataGen::new(5);
        let x = relu(&g.normal_tensor(Shape4::new(4, 8, 16, 16), -0.4, 1.0));
        let mut w = g.he_weights(Shape4::new(8, 8, 3, 3));
        w.map_inplace(|v| v - 0.02);
        let wx = to_winograd_input_par(&pool, &x, &tf);
        let y = elementwise_gemm_par(&pool, &wx, &weights_to_winograd(&w, &tf));
        let s = measure(&y, &tf, QuantizerConfig::new(64, 4), PredictMode::TwoD);
        println!(
            "{name}: predicted dead tiles {:.3} (actual {:.3}), dead lines {:.3}",
            s.predicted_dead_tiles, s.actual_dead_tiles, s.predicted_dead_lines
        );
        if !done_once {
            bench("ablation_prediction_tile_size", || {
                measure(
                    black_box(&y),
                    &tf,
                    QuantizerConfig::new(64, 4),
                    PredictMode::TwoD,
                )
            });
            done_once = true;
        }
    }
}

fn main() {
    ablate_chunk_size();
    ablate_dynamic_clustering();
    ablate_quantizer();
    ablate_one_d_transfer();
    ablate_single_group_transform();
    ablate_collective_algorithm();
    ablate_measured_savings();
    ablate_prediction_tile_size();
}
