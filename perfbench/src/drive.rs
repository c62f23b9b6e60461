//! The closed-loop load generator: `clients` threads, each sending its next
//! operation only after the previous one completed, until the time is up
//! or the input stream is exhausted.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::stats::LatencyHist;

/// What one timed phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Latency (ms) of every operation that succeeded.
    pub lat: LatencyHist,
    /// Operations started.
    pub attempted: usize,
    /// Operations that failed, were refused, or failed a check.
    pub failed: usize,
    /// First few failure messages, for the log.
    pub failures: Vec<String>,
    /// Start of the phase to the end of its last operation.
    pub elapsed_s: f64,
    /// True when the input stream ran out before the time did.
    pub exhausted: bool,
    /// Operations completed in each whole second of the phase.
    pub per_second: Vec<u64>,
}

impl Phase {
    /// Completed operations per second.
    pub fn ops_per_s(&self) -> f64 {
        self.attempted as f64 / self.elapsed_s
    }

    /// Counts a check outside any single operation as one failed
    /// operation.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(msg);
        }
    }
}

/// Runs `op(client, i)` for `i = 0, 1, ...` (each index once, handed
/// out in order) on `clients` threads for `seconds`, or until
/// `max_ops` operations have started.
pub fn closed_loop<F>(clients: usize, seconds: f64, max_ops: usize, op: F) -> Phase
where
    F: Fn(usize, usize) -> Result<(), String> + Sync,
{
    let next = AtomicUsize::new(0);
    let phase = Mutex::new(Phase::default());
    let deadline = Duration::try_from_secs_f64(seconds).unwrap_or(Duration::MAX);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for client in 0..clients {
            let (next, phase, op) = (&next, &phase, &op);
            scope.spawn(move || {
                let mut lat = LatencyHist::default();
                let mut errors = Vec::new();
                let mut per_second: Vec<u64> = Vec::new();
                while start.elapsed() < deadline {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= max_ops {
                        break;
                    }
                    let t0 = Instant::now();
                    match op(client, i) {
                        Ok(()) => lat.record(t0.elapsed().as_secs_f64() * 1e3),
                        Err(e) => errors.push(format!("op {i}: {e}")),
                    }
                    let sec = start.elapsed().as_secs() as usize;
                    if per_second.len() <= sec {
                        per_second.resize(sec + 1, 0);
                    }
                    per_second[sec] += 1;
                }
                let end = start.elapsed().as_secs_f64();
                let mut p = phase.lock().expect("phase lock");
                p.attempted += lat.len() + errors.len();
                p.lat.merge(&lat);
                for e in errors {
                    p.fail(e);
                }
                p.elapsed_s = p.elapsed_s.max(end);
                if p.per_second.len() < per_second.len() {
                    p.per_second.resize(per_second.len(), 0);
                }
                for (a, b) in p.per_second.iter_mut().zip(&per_second) {
                    *a += b;
                }
            });
        }
    });
    let mut p = phase.into_inner().expect("phase lock");
    p.exhausted = next.load(Ordering::Relaxed) >= max_ops;
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_index_runs_once_and_failures_are_counted() {
        let seen = Mutex::new(Vec::new());
        let p = closed_loop(2, 10.0, 50, |_, i| {
            seen.lock().unwrap().push(i);
            if i % 10 == 0 {
                Err("boom".to_string())
            } else {
                Ok(())
            }
        });
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable();
        assert_eq!(seen, (0..50).collect::<Vec<_>>());
        assert_eq!((p.attempted, p.failed, p.lat.len()), (50, 5, 45));
        assert!(p.exhausted);
    }
}
