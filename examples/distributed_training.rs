//! Functional multi-dimensional parallel training: runs real SGD steps of
//! a Winograd layer with the batch split across clusters and tile
//! elements split across groups, and checks the result against
//! centralized training every step.
//!
//! ```text
//! cargo run --example distributed_training
//! ```

use winograd_mpt::core::{fprop_distributed_par, train_step_distributed_par};
use winograd_mpt::noc::ClusterConfig;
use winograd_mpt::tensor::{DataGen, Shape4};
use winograd_mpt::winograd::{WinogradLayer, WinogradTransform};
use wmpt_par::ParPool;

fn main() {
    let mut gen = DataGen::new(7);
    let w0 = gen.he_weights(Shape4::new(8, 4, 3, 3));
    let x = gen.normal_tensor(Shape4::new(8, 4, 10, 10), 0.0, 1.0);
    let target = gen.normal_tensor(Shape4::new(8, 8, 10, 10), 0.0, 1.0);

    let tf = WinogradTransform::f2x2_3x3();
    let mut central = WinogradLayer::from_spatial(tf.clone(), &w0);
    let mut dist = central.clone();
    // 4 groups (tile lines) x 2 clusters (batch halves) = 8 logical
    // workers, the same partitioning the 256-worker system uses.
    let grid = ClusterConfig::new(4, 2);
    let pool = ParPool::serial();

    println!("training a Winograd layer, centralized vs MPT-distributed ({grid}):");
    for step in 0..8 {
        // Centralized step.
        let y = central.fprop_par(&pool, &x);
        let mut dy = y.clone();
        let n = dy.shape().len() as f32;
        for (d, t) in dy.as_mut_slice().iter_mut().zip(target.as_slice()) {
            *d = (*d - t) / n; // mean-squared-error gradient
        }
        let loss: f64 = dy
            .as_slice()
            .iter()
            .map(|v| 0.5 * (*v as f64 * n as f64).powi(2))
            .sum::<f64>()
            / n as f64;
        let g = central.update_grad_par(&pool, &x, &dy);
        central.apply_grad(&g, 0.05);

        // Distributed step: same math, partitioned execution.
        let yd = fprop_distributed_par(&pool, &dist, grid, &x);
        let mut dyd = yd.clone();
        for (d, t) in dyd.as_mut_slice().iter_mut().zip(target.as_slice()) {
            *d = (*d - t) / n;
        }
        train_step_distributed_par(&pool, &mut dist, grid, &x, &dyd, 0.05);

        let wdiff: f32 = dist
            .weights()
            .data
            .iter()
            .zip(&central.weights().data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max);
        println!("  step {step}: mse {loss:>9.4}, max |w_dist - w_central| = {wdiff:.2e}");
        assert!(
            wdiff < 1e-2,
            "distributed training diverged from centralized"
        );
    }
    println!("distributed MPT training matches centralized SGD step for step.");
}
