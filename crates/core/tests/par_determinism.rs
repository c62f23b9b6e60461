//! The bit-exactness gate for the host-parallel runtime: every phase of
//! the Winograd layer and a multi-step functional MPT training run must
//! produce **byte-identical** results for `jobs ∈ {1, 2, 7}` — equal to
//! the one-thread pool, and for whole runs equal to frozen digests. f32
//! values are compared as their IEEE-754 bit patterns, reusing the
//! `core::checkpoint` rendering (which serializes weights as `to_bits()`
//! integers) for whole-net state.

use wmpt_core::{
    checkpoint_net, fprop_distributed_par, reduced_gradient_distributed_par, WinogradNet,
};
use wmpt_noc::ClusterConfig;
use wmpt_par::ParPool;
use wmpt_tensor::{DataGen, Shape4, Tensor4};
use wmpt_winograd::{WinogradLayer, WinogradTransform};

const JOBS: [usize; 3] = [1, 2, 7];

fn bits(t: &[f32]) -> Vec<u32> {
    t.iter().map(|v| v.to_bits()).collect()
}

fn bits64(t: &[f64]) -> Vec<u64> {
    t.iter().map(|v| v.to_bits()).collect()
}

fn layer_setup() -> (WinogradLayer, Tensor4, Tensor4) {
    let mut g = DataGen::new(41);
    let w = g.he_weights(Shape4::new(4, 3, 3, 3));
    let layer = WinogradLayer::from_spatial(WinogradTransform::f2x2_3x3(), &w);
    let x = g.normal_tensor(Shape4::new(8, 3, 8, 8), 0.0, 1.0);
    let dy = g.normal_tensor(Shape4::new(8, 4, 8, 8), 0.0, 1.0);
    (layer, x, dy)
}

#[test]
fn layer_phases_bit_identical_across_jobs() {
    let (layer, x, dy) = layer_setup();
    let serial = ParPool::serial();
    let y0 = bits(layer.fprop_par(&serial, &x).as_slice());
    let dx0 = bits(layer.bprop_par(&serial, &dy).as_slice());
    let dw0 = bits(&layer.update_grad_par(&serial, &x, &dy).data);
    for jobs in JOBS {
        let pool = ParPool::new(jobs);
        assert_eq!(
            y0,
            bits(layer.fprop_par(&pool, &x).as_slice()),
            "fprop diverged at jobs={jobs}"
        );
        assert_eq!(
            dx0,
            bits(layer.bprop_par(&pool, &dy).as_slice()),
            "bprop diverged at jobs={jobs}"
        );
        assert_eq!(
            dw0,
            bits(&layer.update_grad_par(&pool, &x, &dy).data),
            "updateGrad diverged at jobs={jobs}"
        );
    }
}

#[test]
fn distributed_phases_bit_identical_across_jobs() {
    let (layer, x, dy) = layer_setup();
    let serial = ParPool::serial();
    for cfg in [ClusterConfig::new(4, 2), ClusterConfig::new(16, 1)] {
        let y0 = bits(fprop_distributed_par(&serial, &layer, cfg, &x).as_slice());
        let g0 = bits(&reduced_gradient_distributed_par(&serial, &layer, cfg, &x, &dy).data);
        for jobs in JOBS {
            let pool = ParPool::new(jobs);
            assert_eq!(
                y0,
                bits(fprop_distributed_par(&pool, &layer, cfg, &x).as_slice()),
                "{cfg}: distributed fprop diverged at jobs={jobs}"
            );
            assert_eq!(
                g0,
                bits(&reduced_gradient_distributed_par(&pool, &layer, cfg, &x, &dy).data),
                "{cfg}: reduced gradient diverged at jobs={jobs}"
            );
        }
    }
}

/// Trains a fresh net for 3 steps under `jobs` host threads — MPT on
/// `grid`, or centralized for `None` — and renders the final checkpoint
/// (f32-as-bits JSON) plus the per-step losses.
fn train_3_steps(jobs: usize, grid: Option<ClusterConfig>) -> (String, Vec<f64>) {
    let mut g = DataGen::new(42);
    let x = g.normal_tensor(Shape4::new(8, 2, 8, 8), 0.0, 1.0);
    let targets: Vec<f32> = (0..8)
        .map(|b| if b % 2 == 0 { 1.0 } else { -1.0 })
        .collect();
    let mut net = WinogradNet::new(7, 2, &[4, 4], false);
    let pool = ParPool::new(jobs);
    let mut losses = Vec::new();
    for _ in 0..3 {
        losses.push(net.train_step_with(&x, &targets, 0.05, grid, &pool));
    }
    (checkpoint_net(3, &net).render(), losses)
}

#[test]
fn three_step_mpt_training_checkpoints_byte_identical_across_jobs() {
    let grid = ClusterConfig::new(4, 2);
    let (reference, ref_losses) = train_3_steps(1, Some(grid));
    for jobs in JOBS {
        let (ckpt, losses) = train_3_steps(jobs, Some(grid));
        assert_eq!(
            reference, ckpt,
            "checkpoint rendering diverged at jobs={jobs}"
        );
        assert_eq!(
            bits64(&ref_losses),
            bits64(&losses),
            "losses diverged at jobs={jobs}"
        );
    }
}

#[test]
fn three_step_mpt_checkpoints_byte_identical_through_batched_gemm_path() {
    // Single-group grid: every worker owns all 16 tile elements, so each
    // training phase runs the full batched element-GEMM path (the
    // blocked, panel-packed kernel over every (ξ,ν) point of its whole
    // batch chunk) rather than the element-sliced dispatch of the
    // grouped grid above. Checkpoints must still be byte-identical at
    // every jobs count.
    let grid = ClusterConfig::new(1, 2);
    let (reference, ref_losses) = train_3_steps(1, Some(grid));
    for jobs in JOBS {
        let (ckpt, losses) = train_3_steps(jobs, Some(grid));
        assert_eq!(
            reference, ckpt,
            "checkpoint rendering diverged at jobs={jobs}"
        );
        assert_eq!(
            bits64(&ref_losses),
            bits64(&losses),
            "losses diverged at jobs={jobs}"
        );
    }
}

/// 64-bit FNV-1a over `bytes`, as 16 hex digits.
fn fnv1a_hex(bytes: &[u8]) -> String {
    let h = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    format!("{h:016x}")
}

/// Digest of a 3-step run: the checkpoint rendering followed by each
/// loss's IEEE-754 bits (little-endian).
fn run_digest(jobs: usize, grid: Option<ClusterConfig>) -> String {
    let (ckpt, losses) = train_3_steps(jobs, grid);
    let mut bytes = ckpt.into_bytes();
    for l in losses {
        bytes.extend_from_slice(&l.to_bits().to_le_bytes());
    }
    fnv1a_hex(&bytes)
}

#[test]
fn three_step_runs_match_pinned_digests() {
    // Frozen numbers: any change to the arithmetic of the layer phases,
    // the element GEMMs, the tiling transforms or the MPT trainer moves
    // at least one of these, at every job count. The two grids share a
    // digest because MPT is exact: with the same `N_c`, how the tile
    // elements split into groups changes no bit.
    for (grid, pinned) in [
        (Some(ClusterConfig::new(4, 2)), "5f57d9a7c5c85928"),
        (Some(ClusterConfig::new(1, 2)), "5f57d9a7c5c85928"),
        (None, "05ebf1779c8c9d1d"),
    ] {
        for jobs in JOBS {
            assert_eq!(
                run_digest(jobs, grid),
                pinned,
                "grid {grid:?} diverged from its pinned digest at jobs={jobs}"
            );
        }
    }
}
