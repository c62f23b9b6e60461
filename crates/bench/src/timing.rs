//! Minimal wall-clock benchmark harness (`std::time::Instant` only).
//!
//! The workspace builds hermetically, so Criterion is substituted with
//! this module (see `DESIGN.md`): each bench target under `benches/` is a
//! plain `harness = false` binary calling [`bench()`]. Each benchmark
//! times [`BATCHES`] batches of a calibrated iteration count and prints
//! the median time per iteration with the interquartile range across
//! batches, so one run shows how far its own number can be trusted on a
//! noisy host. Good enough to compare kernels and catch regressions, not
//! for microarchitectural claims.

use std::hint::black_box;
use std::time::Instant;

/// Target wall-clock time per batch, in nanoseconds (~10 ms).
const TARGET_NS: u128 = 10_000_000;

/// Timed batches per benchmark (odd, so the median is one batch).
pub const BATCHES: usize = 11;

/// Times `f`, printing
/// `name: <median per-iter time>/iter ±<IQR> (<batches>×<iters> iters)`.
///
/// Calibrates the iteration count so one batch runs for roughly 10 ms,
/// then times [`BATCHES`] batches and reports the median and the
/// interquartile range of their per-iteration times. The closure's
/// result is passed through [`black_box`] so the work is not optimized
/// away.
pub fn bench<R>(name: &str, mut f: impl FnMut() -> R) {
    // Calibration: run once, then scale to the time target.
    let t0 = Instant::now();
    black_box(f());
    let once_ns = t0.elapsed().as_nanos().max(1);
    let iters = (TARGET_NS / once_ns).clamp(1, 1_000_000) as u64;

    let mut per_iter: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    println!("{}", summary_line(name, &mut per_iter, iters));
}

/// The printed line for per-iteration batch times `per_iter` (sorted in
/// place) of `iters` iterations each.
fn summary_line(name: &str, per_iter: &mut [f64], iters: u64) -> String {
    per_iter.sort_by(f64::total_cmp);
    let iqr = quantile(per_iter, 0.75) - quantile(per_iter, 0.25);
    format!(
        "{name:<48} {:>12}/iter ±{:>10} ({}×{iters} iters)",
        fmt_ns(quantile(per_iter, 0.5)),
        fmt_ns(iqr),
        per_iter.len()
    )
}

/// Linearly interpolated quantile `p ∈ [0, 1]` of non-empty sorted data.
fn quantile(sorted: &[f64], p: f64) -> f64 {
    let x = p * (sorted.len() - 1) as f64;
    let (i, frac) = (x.floor() as usize, x.fract());
    let next = sorted[(i + 1).min(sorted.len() - 1)];
    sorted[i] + (next - sorted[i]) * frac
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

    #[test]
    fn summary_line_prints_median_and_iqr() {
        // Eleven batches, unsorted: median 1.50 us, quartiles at 1.25 us
        // and 1.75 us (indices 2.5 and 7.5), so the IQR is 500 ns.
        let mut batches: Vec<f64> = [9, 0, 8, 1, 7, 2, 6, 3, 5, 4, 10]
            .iter()
            .map(|&k| 1_000.0 + 100.0 * f64::from(k))
            .collect();
        assert_eq!(
            summary_line("kernel/x", &mut batches, 640),
            format!(
                "{:<48} {:>12}/iter ±{:>10} (11×640 iters)",
                "kernel/x", "1.50 us", "500 ns"
            )
        );
    }
}
