//! Deterministic host-parallel execution for the `winograd-mpt` workspace.
//!
//! The paper's whole premise is that Winograd training decomposes into
//! independent work units — batch chunks across `N_c` clusters, tile
//! elements across `N_g` groups — yet the reproduction long executed every
//! one of them on a single host thread. This crate supplies the missing
//! substrate: a thread pool ([`ParPool`]) with *chunked* map/reduce
//! primitives whose results are **bit-identical for any job count**.
//!
//! # The determinism contract
//!
//! Two rules make `f32` results independent of `jobs`:
//!
//! 1. **Chunk boundaries are fixed by the input length** (and an explicit
//!    chunk size), never by the thread count. Changing `jobs` changes only
//!    *which thread* computes a chunk, not *what* any chunk computes.
//! 2. **Partial results merge in chunk-index order.** Floating-point
//!    addition is not associative, so the merge walks chunks `0, 1, 2, …`
//!    regardless of completion order. Threads race for chunks through an
//!    atomic cursor (load balancing), but the reduction sequence is a pure
//!    function of the input.
//!
//! The rule built on it throughout the workspace: every host kernel has
//! **one** implementation, and it takes a `&ParPool`. Its bits depend on
//! the input alone, so `jobs = 1, 2, 7, …` all render identical
//! checkpoints; a caller that wants one thread passes
//! [`ParPool::serial`], which runs every primitive inline. There is no
//! second, serial body to keep in sync.
//!
//! # The helper crew
//!
//! Like the paper's NDP workers, which exist before a phase is dispatched
//! to them, a pool's threads are long-lived: [`ParPool::new`]`(jobs)`
//! starts `jobs − 1` parked helper threads (`wmpt-par-<i>`), and every
//! primitive runs on the **caller plus those helpers**, so no call spawns
//! a thread. A dispatch publishes one borrowed claim loop to the crew,
//! runs it on the caller, then retracts it and waits for every helper
//! that took it. Helpers that wake after the retraction find nothing to
//! do, so the caller never waits for a wake-up. A dispatch that finds the
//! crew busy — a nested call from inside a task, or a second thread
//! sharing the pool — runs inline on its own thread; by the contract
//! above its bits are the same. A panic on a helper is caught and
//! re-raised on the caller, and the pool stays usable.
//!
//! No dependencies and no global state. Lending a borrowed closure to
//! long-lived threads takes exactly one `unsafe` lifetime erasure, in
//! `ParPool::broadcast`, whose `SAFETY` argument rests on that wait.
//!
//! # Examples
//!
//! ```
//! use wmpt_par::ParPool;
//!
//! let xs: Vec<f32> = (0..10_000).map(|i| (i as f32).sin()).collect();
//! let serial = ParPool::serial();
//! let wide = ParPool::new(7);
//! let sum = |pool: &ParPool| {
//!     pool.reduce_ordered(
//!         &xs,
//!         1024,
//!         |_, chunk| chunk.iter().sum::<f32>(),
//!         |a, b| a + b,
//!     )
//!     .unwrap()
//! };
//! // Bit-identical, not merely approximately equal.
//! assert_eq!(sum(&serial).to_bits(), sum(&wide).to_bits());
//! ```

#![deny(unsafe_code)]

use std::any::Any;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, TryLockError};
use std::thread::{self, JoinHandle};

/// Number of jobs to use when the user asks for "all of the machine":
/// [`std::thread::available_parallelism`], or 1 if it cannot be queried.
pub fn available_jobs() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// A unit of work lent to the crew for the duration of one dispatch.
type Work = &'static (dyn Fn() + Sync);

/// A caught panic payload.
type Payload = Box<dyn Any + Send>;

/// What the caller and the helpers share, under `Crew::state`.
#[derive(Default)]
struct State {
    /// Bumped once per dispatch, so a helper runs each dispatch at most once.
    epoch: u64,
    /// The published work; `None` once the caller has retracted it.
    work: Option<Work>,
    /// Helpers currently running `work`.
    running: usize,
    /// The first helper panic of the current dispatch.
    panic: Option<Payload>,
    shutdown: bool,
}

/// The long-lived helper threads behind every clone of one [`ParPool`].
struct Crew {
    state: Mutex<State>,
    /// Wakes parked helpers: new work or shutdown.
    wake: Condvar,
    /// Wakes the dispatching caller: `running` reached zero.
    idle: Condvar,
    /// Held for a whole dispatch; a dispatch that cannot take it runs inline.
    gate: Mutex<()>,
}

impl Crew {
    /// No user code runs under this lock and every update leaves `State`
    /// valid, so a poisoned lock still holds consistent data.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn helper_loop(&self) {
        let mut seen = 0;
        loop {
            let work = {
                let mut st = self.lock();
                while !st.shutdown && st.epoch == seen {
                    st = self.wake.wait(st).unwrap_or_else(PoisonError::into_inner);
                }
                if st.shutdown {
                    return;
                }
                seen = st.epoch;
                let Some(work) = st.work else { continue };
                st.running += 1;
                work
            };
            let result = panic::catch_unwind(AssertUnwindSafe(work));
            let mut st = self.lock();
            if let Err(payload) = result {
                st.panic.get_or_insert(payload);
            }
            st.running -= 1;
            if st.running == 0 {
                self.idle.notify_all();
            }
        }
    }

    /// Withdraws the published work and waits until no helper runs it;
    /// returns the first helper panic. Idempotent.
    fn retract(&self) -> Option<Payload> {
        let mut st = self.lock();
        st.work = None;
        while st.running > 0 {
            st = self.idle.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        st.panic.take()
    }
}

/// Retracts on drop, so a dispatch whose own share panics still waits out
/// every helper before the borrowed work goes out of scope.
struct Retract<'a>(&'a Crew);

impl Drop for Retract<'_> {
    fn drop(&mut self) {
        // The caller is already unwinding with its own panic.
        drop(self.0.retract());
    }
}

/// Owns the crew's threads: dropping the last [`ParPool`] handle shuts
/// the crew down and joins every helper.
struct CrewHandle {
    crew: Arc<Crew>,
    helpers: Vec<JoinHandle<()>>,
}

impl Drop for CrewHandle {
    fn drop(&mut self) {
        self.crew.lock().shutdown = true;
        self.crew.wake.notify_all();
        for h in self.helpers.drain(..) {
            // Helpers catch every panic of the work they run.
            let _ = h.join();
        }
    }
}

/// A thread pool with deterministic chunked map/reduce.
///
/// `ParPool::new(jobs)` starts `jobs − 1` long-lived helper threads that
/// park between calls; each primitive runs on the caller plus those
/// helpers, and closures borrow the caller's data with no `'static`
/// bounds. The handle is cheap to [`Clone`]: clones share one crew, and
/// dropping the last one joins it. Work is handed out chunk-by-chunk
/// through an atomic cursor (so a straggler chunk does not idle the other
/// threads), while results are always assembled in chunk order — see the
/// crate docs for the determinism contract. A call made while the crew is
/// busy with another (a nested call from inside a task, or a concurrent
/// call from another thread) runs inline on its own thread, with the
/// same bits.
#[derive(Clone)]
pub struct ParPool {
    jobs: usize,
    /// `None` for a one-job pool, which runs everything inline.
    crew: Option<Arc<CrewHandle>>,
}

impl ParPool {
    /// Creates a pool of `jobs` threads: the caller plus `jobs − 1`
    /// long-lived helpers started here; `jobs = 0` means
    /// [`available_jobs`]. If the system refuses a helper thread, the
    /// pool runs with the helpers it got — the results are the same.
    pub fn new(jobs: usize) -> Self {
        let jobs = if jobs == 0 { available_jobs() } else { jobs };
        if jobs == 1 {
            return Self::serial();
        }
        let crew = Arc::new(Crew {
            state: Mutex::new(State::default()),
            wake: Condvar::new(),
            idle: Condvar::new(),
            gate: Mutex::new(()),
        });
        let helpers = (1..jobs)
            .filter_map(|i| {
                let crew = Arc::clone(&crew);
                thread::Builder::new()
                    .name(format!("wmpt-par-{i}"))
                    .spawn(move || crew.helper_loop())
                    .ok()
            })
            .collect();
        Self {
            jobs,
            crew: Some(Arc::new(CrewHandle { crew, helpers })),
        }
    }

    /// A single-job pool: every primitive runs inline on the caller's
    /// thread, and no thread is ever started.
    pub fn serial() -> Self {
        Self {
            jobs: 1,
            crew: None,
        }
    }

    /// The number of jobs this pool uses.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Runs `work` on the caller and on every helper that wakes before
    /// the caller's own run returns, and returns once none of them is
    /// still running it. `work` must be a claim loop that returns when
    /// nothing is left to claim. A helper panic is re-raised here.
    fn broadcast(&self, work: &(dyn Fn() + Sync + '_)) {
        let Some(CrewHandle { crew, .. }) = self.crew.as_deref() else {
            return work();
        };
        let gate = match crew.gate.try_lock() {
            Ok(gate) => gate,
            // A previous dispatch's own share panicked; the gate guards no data.
            Err(TryLockError::Poisoned(gate)) => gate.into_inner(),
            // The crew is busy (nested or concurrent dispatch): run inline.
            Err(TryLockError::WouldBlock) => return work(),
        };
        let retract = Retract(crew);
        #[allow(unsafe_code)]
        // SAFETY: only lifetimes are erased; the pointee is unchanged. A
        // helper copies `work` out of `State` and counts itself in
        // `running` under one lock acquisition, and touches it only until
        // it decrements `running` again. `Crew::retract` clears `work` and
        // waits for `running == 0` before this function returns — on the
        // normal path explicitly, and on unwind from the caller's own
        // share through the `Retract` guard above — so no helper can reach
        // `work` after the borrow it came from ends.
        let erased: Work = unsafe { std::mem::transmute::<&(dyn Fn() + Sync + '_), Work>(work) };
        {
            let mut st = crew.lock();
            st.epoch += 1;
            st.work = Some(erased);
        }
        crew.wake.notify_all();
        work();
        let helper_panic = crew.retract();
        drop(retract);
        drop(gate);
        if let Some(payload) = helper_panic {
            panic::resume_unwind(payload);
        }
    }

    /// Runs `f(0), f(1), …, f(n-1)` across the pool and returns the
    /// results **in index order**. Indices are claimed through an atomic
    /// cursor, so slow tasks do not serialize the rest.
    pub fn map_indexed<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if self.jobs.min(n) <= 1 {
            return (0..n).map(f).collect();
        }
        let cursor = AtomicUsize::new(0);
        let done = Mutex::new(Vec::with_capacity(n));
        self.broadcast(&|| {
            let mut mine = Vec::new();
            loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                mine.push((i, f(i)));
            }
            done.lock()
                .expect("no panic while holding results")
                .extend(mine);
        });
        let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
        for (i, r) in done.into_inner().expect("no panic while holding results") {
            slots[i] = Some(r);
        }
        slots
            .into_iter()
            .map(|s| s.expect("every claimed index completed"))
            .collect()
    }

    /// Splits `items` into `⌈len/chunk⌉` contiguous chunks — boundaries
    /// fixed by `items.len()` and `chunk` alone — maps each chunk with
    /// `f(chunk_index, chunk)`, and returns the per-chunk results in
    /// index order.
    pub fn map_chunks<T, R, F>(&self, items: &[T], chunk: usize, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &[T]) -> R + Sync,
    {
        let chunk = chunk.max(1);
        let n = items.len().div_ceil(chunk);
        self.map_indexed(n, |i| {
            let lo = i * chunk;
            let hi = (lo + chunk).min(items.len());
            f(i, &items[lo..hi])
        })
    }

    /// [`ParPool::map_chunks`] followed by a left fold of the partial
    /// results **in chunk-index order** — the deterministic reduction:
    /// `merge(merge(r0, r1), r2) …` independent of which thread finished
    /// first. `None` only when `items` is empty.
    pub fn reduce_ordered<T, R, F, M>(
        &self,
        items: &[T],
        chunk: usize,
        map: F,
        merge: M,
    ) -> Option<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &[T]) -> R + Sync,
        M: FnMut(R, R) -> R,
    {
        self.map_chunks(items, chunk, map).into_iter().reduce(merge)
    }

    /// Splits a mutable slice into `⌈len/chunk⌉` disjoint contiguous
    /// chunks and runs `f(chunk_index, chunk)` on each across the pool.
    /// Because the chunks are disjoint `&mut` borrows handed out by
    /// `chunks_mut`, no two threads ever alias — writers parallelize
    /// without locks on the data itself.
    pub fn for_each_chunk_mut<T, F>(&self, items: &mut [T], chunk: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        let chunk = chunk.max(1);
        if self.jobs.min(items.len().div_ceil(chunk)) <= 1 {
            for (i, c) in items.chunks_mut(chunk).enumerate() {
                f(i, c);
            }
            return;
        }
        let queue = Mutex::new(items.chunks_mut(chunk).enumerate());
        self.broadcast(&|| loop {
            let next = queue
                .lock()
                .expect("no panic while holding the queue")
                .next();
            match next {
                Some((i, c)) => f(i, c),
                None => break,
            }
        });
    }
}

impl Default for ParPool {
    /// Defaults to [`available_jobs`].
    fn default() -> Self {
        Self::new(0)
    }
}

impl fmt::Debug for ParPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ParPool").field("jobs", &self.jobs).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;
    use std::time::Duration;

    fn panic_message(payload: &Payload) -> &str {
        payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("")
    }

    #[test]
    fn zero_jobs_means_available_parallelism() {
        assert_eq!(ParPool::new(0).jobs(), available_jobs());
        assert_eq!(ParPool::default().jobs(), available_jobs());
        assert_eq!(ParPool::serial().jobs(), 1);
        assert_eq!(ParPool::new(5).jobs(), 5);
    }

    #[test]
    fn map_indexed_returns_in_order() {
        for jobs in [1, 2, 3, 8] {
            let pool = ParPool::new(jobs);
            let out = pool.map_indexed(17, |i| i * i);
            assert_eq!(out, (0..17).map(|i| i * i).collect::<Vec<_>>());
        }
        assert!(ParPool::new(4).map_indexed(0, |i| i).is_empty());
    }

    #[test]
    fn chunk_boundaries_depend_only_on_input() {
        let items: Vec<u32> = (0..100).collect();
        for jobs in [1, 2, 7] {
            let pool = ParPool::new(jobs);
            let spans = pool.map_chunks(&items, 16, |i, c| (i, c[0], c.len()));
            assert_eq!(spans.len(), 7);
            for (i, first, len) in &spans {
                assert_eq!(*first as usize, i * 16);
                assert_eq!(*len, if *i == 6 { 4 } else { 16 });
            }
        }
    }

    #[test]
    fn reduce_ordered_is_bit_identical_across_jobs() {
        // A sum that is sensitive to association order: merging in
        // completion order would (occasionally) flip low bits.
        let xs: Vec<f32> = (0..50_000)
            .map(|i| {
                ((i * 2654435761u64 as usize) as f32).sqrt() * if i % 3 == 0 { -1.0 } else { 1e-4 }
            })
            .collect();
        let sum = |jobs: usize| {
            ParPool::new(jobs)
                .reduce_ordered(&xs, 777, |_, c| c.iter().sum::<f32>(), |a, b| a + b)
                .unwrap()
                .to_bits()
        };
        let reference = sum(1);
        for jobs in [2, 3, 7, 16] {
            assert_eq!(sum(jobs), reference, "jobs={jobs} diverged");
        }
    }

    #[test]
    fn reduce_ordered_empty_is_none() {
        let pool = ParPool::new(4);
        let none: Option<f32> =
            pool.reduce_ordered(&[] as &[f32], 8, |_, c| c.iter().sum(), |a, b| a + b);
        assert!(none.is_none());
    }

    #[test]
    fn for_each_chunk_mut_covers_every_chunk_once() {
        for jobs in [1, 2, 7] {
            let mut data = vec![0u32; 103];
            ParPool::new(jobs).for_each_chunk_mut(&mut data, 10, |i, c| {
                for v in c.iter_mut() {
                    *v += 1 + i as u32;
                }
            });
            for (k, v) in data.iter().enumerate() {
                assert_eq!(*v, 1 + (k / 10) as u32, "slot {k} under jobs={jobs}");
            }
        }
    }

    #[test]
    fn oversubscribed_pool_still_completes() {
        // More jobs than chunks: extra workers find the cursor exhausted.
        let out = ParPool::new(32).map_chunks(&[1, 2, 3], 2, |_, c| c.iter().sum::<i32>());
        assert_eq!(out, vec![3, 3]);
    }

    #[test]
    fn load_imbalance_does_not_reorder_results() {
        // Chunk 0 is much slower than the rest; results must still come
        // back in index order.
        let pool = ParPool::new(4);
        let out = pool.map_indexed(8, |i| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            i
        });
        assert_eq!(out, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn helper_panic_reaches_caller_and_pool_stays_usable() {
        let pool = ParPool::new(2);
        let caller = thread::current().id();
        let squares: Vec<usize> = (0..100).map(|i| i * i).collect();
        for round in 0..50 {
            // Each task waits for the other, so the caller and the helper
            // each run one: the panic is the helper's.
            let barrier = Barrier::new(2);
            let payload = panic::catch_unwind(AssertUnwindSafe(|| {
                pool.map_indexed(2, |i| {
                    barrier.wait();
                    assert!(thread::current().id() == caller, "helper boom {round}");
                    i
                })
            }))
            .expect_err("the helper's panic reaches the caller");
            assert_eq!(panic_message(&payload), format!("helper boom {round}"));
            assert_eq!(pool.map_indexed(100, |i| i * i), squares);
            let mut data = vec![0u32; 40];
            pool.for_each_chunk_mut(&mut data, 3, |i, c| c.fill(i as u32));
            assert!(data.iter().enumerate().all(|(k, &v)| v == (k / 3) as u32));
        }
    }

    #[test]
    fn caller_panic_still_waits_for_helpers() {
        let pool = ParPool::new(2);
        let caller = thread::current().id();
        for _ in 0..5 {
            let mut data = vec![0u32; 2];
            let barrier = Barrier::new(2);
            let payload = panic::catch_unwind(AssertUnwindSafe(|| {
                pool.for_each_chunk_mut(&mut data, 1, |_, c| {
                    barrier.wait();
                    if thread::current().id() == caller {
                        panic!("caller boom");
                    }
                    // A slow helper: it writes into the borrowed slice
                    // well after the caller's share has panicked.
                    thread::sleep(Duration::from_millis(20));
                    c[0] = 7;
                });
            }))
            .expect_err("the caller's own panic propagates");
            assert_eq!(panic_message(&payload), "caller boom");
            // The dispatch returned only after the helper's write landed.
            let mut written = data.clone();
            written.sort_unstable();
            assert_eq!(written, [0, 7]);
        }
        assert_eq!(pool.map_indexed(9, |i| i + 1), (1..10).collect::<Vec<_>>());
    }

    #[test]
    fn nested_dispatch_runs_inline_and_is_bit_identical() {
        let xs: Vec<f32> = (0..8 * 1000)
            .map(|i| (i as f32 * 0.37).sin() * 1e3)
            .collect();
        let nested = |pool: &ParPool| {
            pool.map_indexed(8, |i| {
                pool.reduce_ordered(
                    &xs[i * 1000..(i + 1) * 1000],
                    97,
                    |_, c| c.iter().sum::<f32>(),
                    |a, b| a + b,
                )
                .expect("non-empty")
                .to_bits()
            })
        };
        let reference = nested(&ParPool::serial());
        for jobs in [2, 3, 7] {
            assert_eq!(nested(&ParPool::new(jobs)), reference, "jobs={jobs}");
        }
    }

    #[test]
    fn concurrent_dispatch_on_one_shared_pool() {
        let pool = ParPool::new(3);
        let want: Vec<usize> = (0..257).map(|i| i * 3).collect();
        let start = Barrier::new(4);
        thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    start.wait();
                    for _ in 0..200 {
                        assert_eq!(pool.map_indexed(257, |i| i * 3), want);
                    }
                });
            }
        });
    }

    #[test]
    fn back_to_back_dispatches() {
        let pool = ParPool::new(2);
        let mut data = vec![0u32; 64];
        for _ in 0..20_000 {
            pool.for_each_chunk_mut(&mut data, 8, |_, c| {
                for v in c {
                    *v += 1;
                }
            });
        }
        assert!(data.iter().all(|&v| v == 20_000));
    }
}
