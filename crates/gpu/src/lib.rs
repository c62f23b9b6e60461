//! The multi-GPU baseline: an NVIDIA DGX-1 with eight V100 GPUs
//! (paper §VII-C, Figures 17–18).
//!
//! The paper *measured* a real DGX-1 (TensorFlow 1.4 + cuDNN 7 Winograd
//! kernels + NCCL ring all-reduce over six NVLink rings, FP16 tensor
//! cores). This crate substitutes an analytical roofline calibrated with
//! public peak numbers (DESIGN.md substitution 3): per-GPU compute
//! efficiency saturates with per-GPU batch, and synchronous data-parallel
//! training adds a ring all-reduce of the weight gradients whose cost is
//! nearly independent of GPU count — which is exactly what produces the
//! paper's sub-linear scaling at fixed total batch.
//!
//! # Example
//!
//! ```
//! use wmpt_gpu::{DgxSystem, GpuParams};
//! use wmpt_models::wrn_40_10;
//!
//! let dgx = DgxSystem::new(GpuParams::v100());
//! let net = wrn_40_10();
//! let t1 = dgx.iteration_seconds(&net, 256, 1);
//! let t8 = dgx.iteration_seconds(&net, 256, 8);
//! let speedup = t1 / t8;
//! assert!(speedup > 2.0 && speedup < 8.0); // sub-linear
//! ```

#![forbid(unsafe_code)]

use wmpt_models::Network;

/// V100 + NVLink parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuParams {
    /// Peak FP16 tensor-core throughput per GPU, FLOP/s.
    pub peak_flops: f64,
    /// Best-case achieved fraction of peak on conv training kernels.
    pub max_efficiency: f64,
    /// Per-GPU batch size at which efficiency reaches half of
    /// `max_efficiency` (Michaelis–Menten-style saturation).
    pub batch_half_sat: f64,
    /// NCCL ring bandwidth per ring, bytes/s.
    pub ring_bandwidth: f64,
    /// Number of independent NCCL rings (6 NVLinks on V100).
    pub rings: usize,
    /// Gradient element size, bytes (FP16 = 2).
    pub grad_bytes_per_param: f64,
    /// Board power per GPU, watts.
    pub power_w: f64,
    /// Fraction of the all-reduce hidden behind backward compute
    /// (0 = fully exposed, the TensorFlow-1.4 behaviour the paper
    /// measured; NCCL overlap in later stacks pushes this toward ~0.5).
    pub comm_overlap: f64,
}

impl GpuParams {
    /// Tesla V100 (SXM2) in a DGX-1.
    pub const fn v100() -> Self {
        Self {
            peak_flops: 125.0e12,
            max_efficiency: 0.40,
            batch_half_sat: 12.0,
            ring_bandwidth: 25.0e9,
            rings: 6,
            grad_bytes_per_param: 2.0,
            power_w: 300.0,
            comm_overlap: 0.0,
        }
    }

    /// V100 with partial compute/communication overlap (a tuned stack).
    pub const fn v100_overlapped() -> Self {
        let mut p = Self::v100();
        p.comm_overlap = 0.5;
        p
    }
}

impl Default for GpuParams {
    fn default() -> Self {
        Self::v100()
    }
}

/// The DGX-1 system model.
#[derive(Debug, Clone, Copy)]
pub struct DgxSystem {
    params: GpuParams,
}

impl DgxSystem {
    /// Creates a system with the given GPU parameters.
    pub fn new(params: GpuParams) -> Self {
        Self { params }
    }

    /// The GPU parameters.
    pub fn params(&self) -> &GpuParams {
        &self.params
    }

    /// Achieved per-GPU efficiency at a given per-GPU batch size — small
    /// batches underutilize the tensor cores, which is what erodes strong
    /// scaling at fixed total batch.
    pub fn efficiency(&self, per_gpu_batch: f64) -> f64 {
        self.params.max_efficiency * per_gpu_batch / (per_gpu_batch + self.params.batch_half_sat)
    }

    /// Compute seconds of one training iteration: forward + backward ≈ 3×
    /// the forward MACs, 2 FLOPs per MAC.
    pub fn compute_seconds(&self, net: &Network, batch: usize, n_gpus: usize) -> f64 {
        assert!(n_gpus >= 1, "need at least one GPU");
        let per_gpu_batch = batch as f64 / n_gpus as f64;
        let flops = 3.0 * 2.0 * net.forward_macs(batch) as f64 / n_gpus as f64;
        flops / (self.params.peak_flops * self.efficiency(per_gpu_batch))
    }

    /// All-reduce seconds for the weight gradients with NCCL's pipelined
    /// ring: `2 (n−1)/n · bytes / aggregate ring bandwidth`.
    pub fn allreduce_seconds(&self, net: &Network, n_gpus: usize) -> f64 {
        if n_gpus <= 1 {
            return 0.0;
        }
        let bytes = net.param_count() as f64 * self.params.grad_bytes_per_param;
        let bw = self.params.ring_bandwidth * self.params.rings as f64;
        2.0 * (n_gpus as f64 - 1.0) / n_gpus as f64 * bytes / bw
    }

    /// One synchronous-SGD iteration: compute plus the *exposed* part of
    /// the all-reduce (`comm_overlap` of it hides behind backward
    /// compute; the paper's TensorFlow-1.4 baseline exposes all of it).
    pub fn iteration_seconds(&self, net: &Network, batch: usize, n_gpus: usize) -> f64 {
        let comm = self.allreduce_seconds(net, n_gpus);
        let hidden =
            (comm * self.params.comm_overlap).min(self.compute_seconds(net, batch, n_gpus) * 0.5);
        self.compute_seconds(net, batch, n_gpus) + comm - hidden
    }

    /// Training throughput, images/second.
    pub fn images_per_second(&self, net: &Network, batch: usize, n_gpus: usize) -> f64 {
        batch as f64 / self.iteration_seconds(net, batch, n_gpus)
    }

    /// System power at `n_gpus`, watts.
    pub fn power_w(&self, n_gpus: usize) -> f64 {
        n_gpus as f64 * self.params.power_w
    }

    /// Sweeps total batch sizes and returns `(batch, images/sec)` with the
    /// best throughput (Fig 18's unconstrained-batch baseline).
    pub fn best_batch(&self, net: &Network, n_gpus: usize, batches: &[usize]) -> (usize, f64) {
        assert!(!batches.is_empty(), "need at least one batch size");
        batches
            .iter()
            .map(|&b| (b, self.images_per_second(net, b, n_gpus)))
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("throughput is finite"))
            .expect("batches nonempty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmpt_models::{fractalnet, wrn_40_10};

    fn dgx() -> DgxSystem {
        DgxSystem::new(GpuParams::v100())
    }

    #[test]
    fn efficiency_saturates_with_batch() {
        let d = dgx();
        assert!(d.efficiency(4.0) < d.efficiency(32.0));
        assert!(d.efficiency(1024.0) <= GpuParams::v100().max_efficiency);
        let half = d.efficiency(GpuParams::v100().batch_half_sat);
        assert!((half - GpuParams::v100().max_efficiency / 2.0).abs() < 1e-12);
    }

    #[test]
    fn fixed_batch_scaling_is_sublinear() {
        let d = dgx();
        let net = wrn_40_10();
        let t1 = d.iteration_seconds(&net, 256, 1);
        let t2 = d.iteration_seconds(&net, 256, 2);
        let t4 = d.iteration_seconds(&net, 256, 4);
        let t8 = d.iteration_seconds(&net, 256, 8);
        assert!(
            t1 > t2 && t2 > t4 && t4 > t8,
            "more GPUs must not slow down"
        );
        let s8 = t1 / t8;
        assert!(s8 < 7.0, "8-GPU speedup {s8} should be clearly sub-linear");
        assert!(s8 > 2.0, "8 GPUs should still help ({s8})");
    }

    #[test]
    fn allreduce_time_nearly_constant_in_gpu_count() {
        let d = dgx();
        let net = fractalnet();
        let a2 = d.allreduce_seconds(&net, 2);
        let a8 = d.allreduce_seconds(&net, 8);
        assert!(a8 < 2.0 * a2);
        assert_eq!(d.allreduce_seconds(&net, 1), 0.0);
    }

    #[test]
    fn bigger_models_communicate_longer() {
        let d = dgx();
        assert!(d.allreduce_seconds(&fractalnet(), 8) > d.allreduce_seconds(&wrn_40_10(), 8));
    }

    #[test]
    fn larger_batch_improves_throughput() {
        let d = dgx();
        let net = wrn_40_10();
        let small = d.images_per_second(&net, 256, 8);
        let big = d.images_per_second(&net, 2048, 8);
        assert!(big > small, "batch 2048 {big} vs 256 {small}");
        let (best, _) = d.best_batch(&net, 8, &[256, 512, 1024, 2048, 4096]);
        assert!(best >= 2048, "best batch {best} should be large");
    }

    #[test]
    fn overlap_improves_but_does_not_erase_the_gap() {
        let plain = DgxSystem::new(GpuParams::v100());
        let tuned = DgxSystem::new(GpuParams::v100_overlapped());
        let net = fractalnet();
        let t_plain = plain.iteration_seconds(&net, 256, 8);
        let t_tuned = tuned.iteration_seconds(&net, 256, 8);
        assert!(t_tuned < t_plain, "overlap must help");
        // ... but scaling stays sub-linear: comm is only partly hidden.
        let s8 = tuned.iteration_seconds(&net, 256, 1) / t_tuned;
        assert!(s8 < 7.5, "8-GPU speedup with overlap {s8}");
    }

    #[test]
    fn power_scales_with_gpus() {
        let d = dgx();
        assert_eq!(d.power_w(8), 2400.0);
        // The paper compares 256 NDP workers at similar power to 8 GPUs
        // (1800-2600 W).
        assert!((1800.0..2600.0).contains(&d.power_w(8)));
    }
}
