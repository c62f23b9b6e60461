//! Allocation budget of a warm training step: once a net has trained on
//! an input shape, a `WinogradNet::train_step_with` on that shape makes
//! at most [`BUDGET`] heap allocations, on one thread and on a 2-job
//! pool. Checked for the fault-scenario net and a `train_mpt`-shaped net.
//!
//! This is its own test binary because it installs a counting global
//! allocator, and it has one `#[test]` so no other test allocates while
//! a step is counted. The `unsafe impl GlobalAlloc` only forwards to
//! [`System`]; it is the one `unsafe` outside `wmpt-par` and
//! `wmpt-tensor`, and it is test-only.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use wmpt_core::WinogradNet;
use wmpt_noc::ClusterConfig;
use wmpt_par::ParPool;
use wmpt_tensor::{DataGen, Shape4, Tensor4};

/// Heap allocations (including reallocations) since the process started.
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is an atomic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Most allocations a warm step may make.
const BUDGET: usize = 10;
/// Steps run before counting, so every thread's scratch has grown.
const WARM_UP: usize = 10;
/// Steps counted, each against the budget.
const COUNTED: usize = 5;

/// A seeded two-class batch of `batch` images, `chans × side × side`.
fn batch(seed: u64, batch: usize, chans: usize, side: usize) -> (Tensor4, Vec<f32>) {
    let mut g = DataGen::new(seed);
    let x = g.normal_tensor(Shape4::new(batch, chans, side, side), 0.0, 1.0);
    let targets = (0..batch)
        .map(|b| if b % 2 == 0 { 1.0 } else { -1.0 })
        .collect();
    (x, targets)
}

/// The allocations of each of [`COUNTED`] warm steps of `net`.
fn warm_step_allocs(
    mut net: WinogradNet,
    x: &Tensor4,
    targets: &[f32],
    lr: f32,
    pool: &ParPool,
) -> Vec<usize> {
    let grid = Some(ClusterConfig::new(4, 2));
    for _ in 0..WARM_UP {
        net.train_step_with(x, targets, lr, grid, pool);
    }
    (0..COUNTED)
        .map(|_| {
            let before = ALLOCS.load(Ordering::SeqCst);
            let loss = net.train_step_with(x, targets, lr, grid, pool);
            let made = ALLOCS.load(Ordering::SeqCst) - before;
            assert!(loss.is_finite());
            made
        })
        .collect()
}

#[test]
fn warm_training_steps_stay_within_the_allocation_budget() {
    let fault = batch(77, 8, 2, 8);
    let mpt = batch(5, 8, 8, 16);
    for jobs in [1, 2] {
        let pool = ParPool::new(jobs);
        let cases = [
            (
                "fault net (2 -> 4, 8x8)",
                WinogradNet::new(55, 2, &[4], true),
                &fault,
                0.1,
            ),
            (
                "train_mpt net (8 -> 16 -> 32, 16x16)",
                WinogradNet::new(7, 8, &[16, 32], true),
                &mpt,
                0.001,
            ),
        ];
        for (name, net, (x, targets), lr) in cases {
            let allocs = warm_step_allocs(net, x, targets, lr, &pool);
            assert!(
                allocs.iter().all(|&a| a <= BUDGET),
                "{name}, jobs={jobs}: warm steps made {allocs:?} allocations (budget {BUDGET})"
            );
        }
    }
}
