//! The helper crew's thread lifetime, read from the kernel. This is the
//! only test in its binary, so no other test starts or ends threads while
//! it counts them.

#![cfg(target_os = "linux")]

use std::time::{Duration, Instant};
use wmpt_par::ParPool;

/// The `Threads:` count of `/proc/self/status`.
fn threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .expect("read /proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("a Threads: line")
}

/// Waits for the count to reach `want`: a joined thread has exited, but
/// the kernel may drop it from the count a moment later.
fn settles_at(want: usize) -> bool {
    let deadline = Instant::now() + Duration::from_secs(5);
    while threads() != want {
        if Instant::now() > deadline {
            return false;
        }
        std::thread::yield_now();
    }
    true
}

#[test]
fn crew_threads_live_exactly_as_long_as_the_pool() {
    let baseline = threads();

    for pool in [ParPool::serial(), ParPool::new(1)] {
        assert_eq!(pool.map_indexed(64, |i| i).len(), 64);
        assert_eq!(threads(), baseline, "a one-job pool starts no thread");
    }

    let pool = ParPool::new(4);
    assert_eq!(threads(), baseline + 3, "jobs - 1 helpers");
    for _ in 0..100 {
        assert_eq!(pool.map_indexed(64, |i| i).len(), 64);
    }
    assert_eq!(threads(), baseline + 3, "dispatch spawns nothing");

    let clone = pool.clone();
    drop(pool);
    assert_eq!(threads(), baseline + 3, "a live clone keeps the crew");
    assert_eq!(clone.map_indexed(8, |i| i), (0..8).collect::<Vec<_>>());

    drop(clone);
    assert!(
        settles_at(baseline),
        "dropping the last handle joins the helpers: {} threads, baseline {baseline}",
        threads()
    );
}
