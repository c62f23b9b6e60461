//! Microbenchmarks of the core kernels: Winograd transforms, quantization
//! and prediction, the functional element-wise GEMM, and the network
//! simulators. Plain harness (`wmpt_bench::timing`); run with
//! `cargo bench -p wmpt-bench --bench kernels`.

use std::hint::black_box;
use wmpt_bench::timing::bench;

use wmpt_core::{simulate_layer, SystemConfig, SystemModel};
use wmpt_models::table2_layers;

use wmpt_noc::{
    bottleneck_phase, ring_collective_cycles, simulate_ring_reduce_broadcast, tile_transfer_phase,
    ClusterConfig, LinkKind, NocParams, PacketNetwork, Topology,
};
use wmpt_par::ParPool;
use wmpt_predict::{ActivationPredictor, PredictMode, QuantizerConfig};
use wmpt_tensor::{DataGen, Shape4};
use wmpt_winograd::{
    elementwise_gemm_par, from_winograd_output_par, input_grad_to_spatial_par,
    output_grad_to_winograd_par, to_winograd_input_par, weights_to_winograd, DirectConv,
    WinogradConv, WinogradTransform,
};

fn bench_transforms() {
    for (name, tf) in [
        ("F(2,3)", WinogradTransform::f2x2_3x3()),
        ("F(4,3)", WinogradTransform::f4x4_3x3()),
        ("F(2,5)", WinogradTransform::f2x2_5x5()),
    ] {
        let t = tf.t();
        let tile: Vec<f32> = (0..t * t).map(|i| (i as f32 * 0.37).sin()).collect();
        let w: Vec<f32> = (0..tf.r() * tf.r())
            .map(|i| (i as f32 * 0.21).cos())
            .collect();
        bench(&format!("transform_2d/input/{name}"), || {
            tf.input_2d(black_box(&tile))
        });
        bench(&format!("transform_2d/weight/{name}"), || {
            tf.weight_2d(black_box(&w))
        });
        bench(&format!("transform_2d/inverse/{name}"), || {
            tf.inverse_2d(black_box(&tile))
        });
    }

    // The four tiling kernels on the shape of the `train_mpt` benchmark's
    // first stage (batch 8, 8 channels, 16×16), on one thread.
    let tf = WinogradTransform::f2x2_3x3();
    let shape = Shape4::new(8, 8, 16, 16);
    let x = DataGen::new(3).normal_tensor(shape, 0.0, 1.0);
    let pool = ParPool::serial();
    let wx = to_winograd_input_par(&pool, &x, &tf);
    bench("transform_tiles/input/F(2,3)", || {
        to_winograd_input_par(&pool, black_box(&x), &tf)
    });
    bench("transform_tiles/inverse/F(2,3)", || {
        from_winograd_output_par(&pool, black_box(&wx), &tf, shape)
    });
    bench("transform_tiles/output_grad/F(2,3)", || {
        output_grad_to_winograd_par(&pool, black_box(&x), &tf)
    });
    bench("transform_tiles/input_grad/F(2,3)", || {
        input_grad_to_spatial_par(&pool, black_box(&wx), &tf, shape)
    });
}

fn bench_conv() {
    let mut gen = DataGen::new(1);
    let x = gen.normal_tensor(Shape4::new(2, 8, 16, 16), 0.0, 1.0);
    let w = gen.he_weights(Shape4::new(8, 8, 3, 3));
    let direct = DirectConv::new(3);
    bench("conv_fprop_2x8x16x16/direct", || {
        direct.fprop(black_box(&x), black_box(&w))
    });
    let wino2 = WinogradConv::new(WinogradTransform::f2x2_3x3());
    bench("conv_fprop_2x8x16x16/winograd_f2x2", || {
        wino2.fprop(black_box(&x), black_box(&w))
    });
    let wino4 = WinogradConv::new(WinogradTransform::f4x4_3x3());
    bench("conv_fprop_2x8x16x16/winograd_f4x4", || {
        wino4.fprop(black_box(&x), black_box(&w))
    });
}

fn bench_elementwise_gemm() {
    let tf = WinogradTransform::f2x2_3x3();
    let mut gen = DataGen::new(2);
    let x = gen.normal_tensor(Shape4::new(4, 16, 16, 16), 0.0, 1.0);
    let w = gen.he_weights(Shape4::new(16, 16, 3, 3));
    let pool = ParPool::serial();
    let wx = to_winograd_input_par(&pool, &x, &tf);
    let ww = weights_to_winograd(&w, &tf);
    bench("elementwise_gemm_16x16ch_256tiles", || {
        elementwise_gemm_par(&pool, black_box(&wx), black_box(&ww))
    });
}

fn bench_prediction() {
    let p = ActivationPredictor::new(
        WinogradTransform::f2x2_3x3(),
        QuantizerConfig::new(64, 4),
        1.0,
    );
    let tile: Vec<f32> = (0..16).map(|i| ((i * 13 % 7) as f32 - 3.0) * 0.4).collect();
    bench("activation_prediction/2d_predict", || {
        p.predict(black_box(&tile), PredictMode::TwoD)
    });
    bench("activation_prediction/1d_predict", || {
        p.predict(black_box(&tile), PredictMode::OneD)
    });
    bench("activation_prediction/quantize", || {
        p.quantizer().quantize(black_box(0.37f32))
    });
}

fn bench_network() {
    let params = NocParams::paper();
    bench("noc/ring_collective_closed_form", || {
        ring_collective_cycles(black_box(1 << 20), 16, 60.0, &params, 0)
    });
    bench("noc/ring_collective_event_sim_64KiB", || {
        let topo = Topology::ring(16, LinkKind::FullX2);
        let mut net = PacketNetwork::new(topo, params);
        let ring: Vec<usize> = (0..16).collect();
        simulate_ring_reduce_broadcast(&mut net, &ring, 64 * 1024, 0)
    });
    let topo = Topology::flattened_butterfly(4, 4, LinkKind::Narrow);
    let flows: Vec<(usize, usize, u64)> = (0..16)
        .flat_map(|i| {
            (0..16)
                .filter(move |j| *j != i)
                .map(move |j| (i, j, 4096u64))
        })
        .collect();
    bench("noc/fbfly_bottleneck_phase", || {
        bottleneck_phase(black_box(&topo), &params, black_box(&flows), 64)
    });
    // The per-candidate cost of the layer model: one tile scatter or
    // gather on the memoized 16-group cluster fabric, then a whole layer.
    let cluster = ClusterConfig::new(16, 16)
        .cluster_topology()
        .expect("16 groups have a fabric");
    bench("noc/tile_transfer_phase_fbfly16", || {
        tile_transfer_phase(black_box(&cluster), &params, black_box(16 << 20), 16)
    });
    let model = SystemModel::paper();
    let late2 = table2_layers()
        .into_iter()
        .find(|l| l.name == "Late-2")
        .expect("Table II has Late-2");
    bench("core/simulate_layer_late2_w_mp++", || {
        simulate_layer(&model, black_box(&late2), SystemConfig::WMpPD)
    });
    bench(
        "noc/mct_topology_build_257_nodes",
        wmpt_noc::MemoryCentricNetwork::paper_256,
    );
}

fn main() {
    bench_transforms();
    bench_conv();
    bench_elementwise_gemm();
    bench_prediction();
    bench_network();
}
