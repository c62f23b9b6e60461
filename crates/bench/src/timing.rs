//! Minimal wall-clock benchmark harness (`std::time::Instant` only).
//!
//! The workspace builds hermetically, so Criterion is substituted with
//! this module (see `DESIGN.md`): each bench target under `benches/` is a
//! plain `harness = false` binary calling [`bench()`]. No statistics beyond
//! a trimmed mean — good enough to compare kernels and catch order-of-
//! magnitude regressions, not for microarchitectural claims.

use std::hint::black_box;
use std::time::Instant;

/// Target wall-clock time per measurement, in nanoseconds (~50 ms).
const TARGET_NS: u128 = 50_000_000;

/// Times `f`, printing `name: <per-iter time> (<iters> iters)`.
///
/// Calibrates the iteration count so the measured region runs for roughly
/// 50 ms, then reports mean time per iteration. The closure's result is
/// passed through [`black_box`] so the work is not optimized away.
pub fn bench<R>(name: &str, mut f: impl FnMut() -> R) {
    // Calibration: run once, then scale to the time target.
    let t0 = Instant::now();
    black_box(f());
    let once_ns = t0.elapsed().as_nanos().max(1);
    let iters = (TARGET_NS / once_ns).clamp(1, 1_000_000) as u64;

    let t1 = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    let per_iter = t1.elapsed().as_nanos() as f64 / iters as f64;
    println!("{name:<48} {:>12}/iter ({iters} iters)", fmt_ns(per_iter));
}

/// Formats a nanosecond quantity with a readable unit.
fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} us", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_and_does_not_panic() {
        bench("noop", || 1 + 1);
    }

    #[test]
    fn ns_formatting_picks_units() {
        assert_eq!(fmt_ns(12.0), "12 ns");
        assert_eq!(fmt_ns(1_500.0), "1.50 us");
        assert_eq!(fmt_ns(2_500_000.0), "2.50 ms");
        assert_eq!(fmt_ns(3_000_000_000.0), "3.00 s");
    }
}
