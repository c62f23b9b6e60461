//! Percentiles with their sample counts.
//!
//! A percentile is only reported together with how many samples it
//! rests on, and a tail percentile with fewer than [`MIN_BEYOND`]
//! samples beyond it is an error rather than a number: with fewer, the
//! "tail" is one or two requests and does not repeat from run to run.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of ascending `sorted` (`0 < q <= 1`): the
/// smallest sample with at least `q` of the samples at or below it.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples (nearest rank, like every other
/// percentile here).
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// Latency samples in bounded memory: log-spaced bins 0.1 % wide from
/// 100 ns to beyond 1000 s. Memory does not grow with the number of
/// operations, so the harness's own footprint does not leak into
/// `peak_rss_mib` as throughput changes; percentiles interpolate within
/// a bin, so they are accurate to 0.1 % — far inside run-to-run noise.
#[derive(Debug, Clone)]
pub struct LatencyHist {
    counts: Vec<u64>,
    n: usize,
}

const BIN_RATIO: f64 = 1.001;
const MIN_MS: f64 = 1e-4;
const BINS: usize = 24_000;

impl Default for LatencyHist {
    fn default() -> Self {
        LatencyHist {
            counts: vec![0; BINS],
            n: 0,
        }
    }
}

impl LatencyHist {
    pub fn record(&mut self, ms: f64) {
        let b = ((ms / MIN_MS).ln() / BIN_RATIO.ln()).floor();
        self.counts[(b.max(0.0) as usize).min(BINS - 1)] += 1;
        self.n += 1;
    }

    pub fn merge(&mut self, other: &LatencyHist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    /// Samples recorded.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Nearest-rank percentile (`0 < q <= 1`), placed geometrically
    /// within its bin by the rank's position among the bin's samples.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(self.n > 0, "percentile of no samples");
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n as u64);
        let mut below = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            if below + c >= rank {
                let frac = (rank - below) as f64 - 0.5;
                return MIN_MS * BIN_RATIO.powf(b as f64 + frac / c as f64);
            }
            below += c;
        }
        unreachable!("rank {rank} within {} samples", self.n)
    }
}

/// One percentile with its sample count and the number of samples
/// strictly beyond its rank.
#[derive(Debug, Clone, Copy)]
pub struct Quantile {
    pub value: f64,
    pub n: usize,
    pub beyond: usize,
}

/// The percentile `q` of `h`, or an error when fewer than [`MIN_BEYOND`]
/// samples lie beyond its rank.
pub fn tail(h: &LatencyHist, q: f64) -> Result<Quantile, String> {
    let n = h.len();
    let rank = (q * n as f64).ceil() as usize;
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{} needs at least {MIN_BEYOND} samples beyond it; {n} samples leave {beyond}",
            q * 100.0
        ));
    }
    Ok(Quantile {
        value: h.quantile(q),
        n,
        beyond,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[3.0], 0.5), 3.0);
        assert_eq!(percentile(&[1.0, 2.0], 0.5), 1.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    fn hist(samples: impl IntoIterator<Item = f64>) -> LatencyHist {
        let mut h = LatencyHist::default();
        samples.into_iter().for_each(|x| h.record(x));
        h
    }

    #[test]
    fn histogram_percentiles_are_within_a_bin_of_nearest_rank() {
        let h = hist((1..=100).map(f64::from));
        for (q, want) in [(0.5, 50.0), (0.9, 90.0), (0.99, 99.0), (1.0, 100.0)] {
            let got = h.quantile(q);
            assert!((got / want - 1.0).abs() < 1e-3, "p{q}: {got} vs {want}");
        }
        let mut merged = hist([0.2, 0.3]);
        merged.merge(&hist([0.1]));
        assert_eq!(merged.len(), 3);
        assert!((merged.quantile(0.5) / 0.2 - 1.0).abs() < 1e-3);
        // Out-of-range samples land in the edge bins instead of panicking.
        assert_eq!(hist([0.0, 1e12]).len(), 2);
    }

    #[test]
    fn tail_counts_samples_beyond_and_refuses_thin_tails() {
        let h = hist((1..=100).map(f64::from));
        let p90 = tail(&h, 0.9).expect("100 samples leave 10 beyond p90");
        assert_eq!((p90.n, p90.beyond), (100, 10));
        assert!((p90.value / 90.0 - 1.0).abs() < 1e-3);
        assert!(
            tail(&hist((1..100).map(f64::from)), 0.9).is_err(),
            "99 samples leave 9 beyond p90"
        );
        assert!(tail(&LatencyHist::default(), 0.5).is_err());
        assert_eq!(tail(&h, 0.5).expect("median").beyond, 50);
    }
}
