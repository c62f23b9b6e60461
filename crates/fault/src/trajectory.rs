//! Fault-free training trajectories, each computed once per process.
//!
//! A resilient run issues exactly the fault-free run's SGD steps until a
//! worker loss remaps the grid, and after it the fault-free steps of the
//! new grid from the checkpoint the rollback restores: link-downs and bit
//! flips roll back and replay on the same grid, which reproduces the same
//! steps bit for bit. Such a trajectory is a pure function of the net it
//! starts from, the batch, the learning rate and the grid, so runs that
//! share those — every served `faults` request trains the same net on the
//! same batch — share one trajectory, held in a process-wide memo in the
//! style of `ClusterConfig::cluster_topology`.
//!
//! * **Key.** The rendered starting checkpoint, the bits of the inputs
//!   and targets, the bits of the learning rate, and the grid. A key may
//!   start at any checkpoint, on any grid; the checkpoint text carries its
//!   iteration. A lookup compares the whole key. Two nets that render the
//!   same checkpoint train bit-identically: the checkpoint is what a
//!   rollback restores, and rollback replays are bit-exact.
//! * **Contents.** Per step: the net's stages and readout after it, its
//!   loss, and its checkpoint, rendered on first use.
//! * **Bound.** At most [`MAX_TRAJECTORIES`] keys; a new key evicts the
//!   least recently used one. A trajectory grows lazily to the largest
//!   number of steps a run of its key asked for, and no further. The six
//!   default served scenarios (6 iterations, a checkpoint every 2) need
//!   four keys over any plan seed: the initial net on `(4 Ng, 2 Nc)`, and
//!   the checkpoints of iterations 0, 2 and 4 on the `(4 Ng, 1 Nc)` grid a
//!   worker loss remaps to.

use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use wmpt_core::{checkpoint_net, WinogradNet};
use wmpt_noc::ClusterConfig;
use wmpt_par::ParPool;
use wmpt_tensor::{Shape4, Tensor4};

/// Keys the process-wide memo keeps; the least recently used goes first.
pub(crate) const MAX_TRAJECTORIES: usize = 4;

/// What a fault-free trajectory is a function of, as a run passes it in.
pub(crate) struct Inputs<'a> {
    /// `checkpoint_net(start, net).render()` of the starting net.
    pub checkpoint: &'a str,
    /// The iteration of that checkpoint.
    pub start: usize,
    pub x: &'a Tensor4,
    pub targets: &'a [f32],
    pub lr: f32,
    pub grid: ClusterConfig,
}

/// The owned copy of [`Inputs`] a trajectory is stored under.
struct Key {
    checkpoint: String,
    shape: Shape4,
    x: Vec<u32>,
    targets: Vec<u32>,
    lr: u32,
    grid: ClusterConfig,
}

impl Key {
    fn of(inp: &Inputs) -> Self {
        Key {
            checkpoint: inp.checkpoint.to_owned(),
            shape: inp.x.shape(),
            x: inp.x.as_slice().iter().map(|v| v.to_bits()).collect(),
            targets: inp.targets.iter().map(|v| v.to_bits()).collect(),
            lr: inp.lr.to_bits(),
            grid: inp.grid,
        }
    }

    fn matches(&self, inp: &Inputs) -> bool {
        let same_bits = |a: &[u32], b: &[f32]| a.iter().copied().eq(b.iter().map(|v| v.to_bits()));
        self.lr == inp.lr.to_bits()
            && self.grid == inp.grid
            && self.shape == inp.x.shape()
            && same_bits(&self.targets, inp.targets)
            && same_bits(&self.x, inp.x.as_slice())
            && self.checkpoint == inp.checkpoint
    }
}

/// The net at iteration `iter` of a trajectory.
struct State {
    iter: u64,
    /// Stages and readout only: a clone carries no step buffers.
    net: WinogradNet,
    /// `checkpoint_net(iter, &net).render()`, rendered on first use.
    checkpoint: OnceLock<String>,
}

impl State {
    fn checkpoint(&self) -> &str {
        self.checkpoint
            .get_or_init(|| checkpoint_net(self.iter, &self.net).render())
    }
}

/// The steps of one key's trajectory recorded so far.
struct Steps {
    /// `states[k]`: the net after `k` steps; `states[0]` is the starting net.
    states: Vec<Arc<State>>,
    /// `losses[k]`: the loss of step `k + 1`.
    losses: Vec<f64>,
    /// The net that takes the next step; it owns the step buffers.
    work: WinogradNet,
}

impl Steps {
    fn extend_to(&mut self, iters: usize, inp: &Inputs) {
        if self.losses.len() >= iters {
            return;
        }
        // Restart from the last recorded state: a step that panicked part
        // way may have left `work` half updated, never a recorded state.
        self.work
            .clone_from(&self.states.last().expect("initial state").net);
        while self.losses.len() < iters {
            let loss = self.work.train_step_with(
                inp.x,
                inp.targets,
                inp.lr,
                Some(inp.grid),
                &ParPool::serial(),
            );
            #[cfg(test)]
            tests::STEPS_TRAINED.with(|n| n.set(n.get() + 1));
            self.states.push(Arc::new(State {
                iter: self.states[0].iter + self.states.len() as u64,
                net: self.work.clone(),
                checkpoint: OnceLock::new(),
            }));
            self.losses.push(loss);
        }
    }
}

struct Trajectory {
    key: Key,
    steps: Mutex<Steps>,
}

impl Trajectory {
    fn new(inp: &Inputs, net: &WinogradNet) -> Self {
        let start = State {
            iter: inp.start as u64,
            net: net.clone(),
            checkpoint: OnceLock::from(inp.checkpoint.to_owned()),
        };
        Trajectory {
            key: Key::of(inp),
            steps: Mutex::new(Steps {
                states: vec![Arc::new(start)],
                losses: Vec::new(),
                work: net.clone(),
            }),
        }
    }

    /// The first `iters` steps, computing the ones nobody asked for yet.
    /// Concurrent callers of one key take turns; the later ones find the
    /// steps done.
    fn prefix(&self, iters: usize, inp: &Inputs) -> FaultFree {
        // Every update pushes one finished step, and an extension restarts
        // from the last one, so a guard recovered from a poisoned lock
        // still sees a valid trajectory.
        let mut steps = self.steps.lock().unwrap_or_else(PoisonError::into_inner);
        steps.extend_to(iters, inp);
        FaultFree {
            states: steps.states[..=iters].to_vec(),
            losses: steps.losses[..iters].to_vec(),
        }
    }
}

/// The memoized trajectories, least recently used first.
#[derive(Default)]
struct Memo {
    entries: Vec<Arc<Trajectory>>,
}

impl Memo {
    /// The trajectory of `inp`, created from `net` on a miss, and marked
    /// most recently used.
    fn trajectory(&mut self, inp: &Inputs, net: &WinogradNet) -> Arc<Trajectory> {
        let traj = match self.entries.iter().position(|t| t.key.matches(inp)) {
            Some(i) => self.entries.remove(i),
            None => Arc::new(Trajectory::new(inp, net)),
        };
        self.entries.push(Arc::clone(&traj));
        if self.entries.len() > MAX_TRAJECTORIES {
            self.entries.remove(0);
        }
        traj
    }
}

/// The process-wide memo.
#[cfg(not(test))]
fn memo() -> &'static Mutex<Memo> {
    static MEMO: OnceLock<Mutex<Memo>> = OnceLock::new();
    MEMO.get_or_init(Mutex::default)
}

/// Unit tests run on parallel threads, so each thread gets its own memo:
/// a test that counts trained steps sees only its own keys.
#[cfg(test)]
fn memo() -> &'static Mutex<Memo> {
    thread_local!(static MEMO: &'static Mutex<Memo> = Box::leak(Box::default()));
    MEMO.with(|m| *m)
}

/// The first `iters` fault-free steps of `net` (whose rendered
/// checkpoint is `inp.checkpoint`) on `inp`, from the process-wide memo.
pub(crate) fn fault_free(inp: &Inputs, net: &WinogradNet, iters: usize) -> FaultFree {
    // Every update removes or pushes one finished entry, so a guard
    // recovered from a poisoned lock still sees a valid list.
    let traj = memo()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .trajectory(inp, net);
    traj.prefix(iters, inp)
}

/// A fault-free run's first `iters` steps, as [`fault_free`] returns them;
/// step `k` counts from the trajectory's start.
pub(crate) struct FaultFree {
    states: Vec<Arc<State>>,
    losses: Vec<f64>,
}

impl FaultFree {
    /// The loss of step `k + 1`.
    pub fn loss(&self, k: usize) -> f64 {
        self.losses[k]
    }

    /// The net after `k` steps.
    pub fn net(&self, k: usize) -> &WinogradNet {
        &self.states[k].net
    }

    /// `checkpoint_net(start + k, ..).render()` of the net after `k` steps.
    pub fn checkpoint(&self, k: usize) -> &str {
        self.states[k].checkpoint()
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use super::*;
    use crate::plan::{FaultPlan, GridShape, Scenario};
    use crate::recovery::{demo_dataset, train_resilient, ResilienceConfig};
    use wmpt_obs::Observer;

    thread_local! {
        /// Steps `Steps::extend_to` trained on this thread.
        pub(super) static STEPS_TRAINED: Cell<u64> = const { Cell::new(0) };
    }

    fn inputs<'a>(ckpt: &'a str, x: &'a Tensor4, t: &'a [f32], lr: f32) -> Inputs<'a> {
        Inputs {
            checkpoint: ckpt,
            start: 0,
            x,
            targets: t,
            lr,
            grid: ClusterConfig::new(4, 2),
        }
    }

    #[test]
    fn memo_keeps_the_most_recently_used_keys() {
        let (x, t) = demo_dataset(3, 8);
        let net = WinogradNet::new(3, 2, &[4], true);
        let ckpt = checkpoint_net(0, &net).render();
        // One learning rate per key: a full memo, and one more.
        let cap = MAX_TRAJECTORIES;
        let lrs: Vec<f32> = (1..=cap + 1).map(|i| i as f32 / 10.0).collect();
        let mut memo = Memo::default();
        let first: Vec<_> = lrs[..cap]
            .iter()
            .map(|&lr| memo.trajectory(&inputs(&ckpt, &x, &t, lr), &net))
            .collect();
        // A hit returns the stored trajectory and makes it most recent.
        let again = memo.trajectory(&inputs(&ckpt, &x, &t, lrs[0]), &net);
        assert!(Arc::ptr_eq(&again, &first[0]));
        // One key past the cap evicts the least recently used: lrs[1].
        memo.trajectory(&inputs(&ckpt, &x, &t, lrs[cap]), &net);
        assert_eq!(memo.entries.len(), cap);
        let lr_bits: Vec<u32> = memo.entries.iter().map(|e| e.key.lr).collect();
        let want: Vec<u32> = lrs[2..cap]
            .iter()
            .chain([&lrs[0], &lrs[cap]])
            .map(|lr| lr.to_bits())
            .collect();
        assert_eq!(lr_bits, want);
        let back = memo.trajectory(&inputs(&ckpt, &x, &t, lrs[1]), &net);
        assert!(!Arc::ptr_eq(&back, &first[1]), "evicted key was rebuilt");
    }

    #[test]
    fn default_requests_fit_the_memo_bound() {
        // The served `faults` request: its net, batch and config.
        let (x, t) = demo_dataset(77, 8);
        let cfg = ResilienceConfig::small(6);
        let shape = GridShape::small();
        let pass = || {
            let before = STEPS_TRAINED.with(Cell::get);
            for sc in Scenario::ALL {
                for seed in 0..64 {
                    let plan = FaultPlan::scenario(sc, shape, seed, cfg.horizon());
                    let mut net = WinogradNet::new(55, 2, &[4], true);
                    let mut obs = Observer::new();
                    train_resilient(&mut net, &x, &t, shape, &plan, &cfg, &mut obs)
                        .unwrap_or_else(|e| panic!("{sc} seed {seed}: {e}"));
                }
            }
            STEPS_TRAINED.with(Cell::get) - before
        };
        assert!(pass() > 0, "the first pass fills the memo");
        assert_eq!(pass(), 0, "a warm pass trains no step");
        // No key was evicted, so the memo holds every key the runs used.
        let keys = memo().lock().unwrap().entries.len();
        assert_eq!(keys, 4, "keys of the default requests");
    }

    #[test]
    fn trajectory_grows_to_the_largest_iters_requested() {
        let (x, t) = demo_dataset(4, 8);
        let net = WinogradNet::new(4, 2, &[4], true);
        let ckpt = checkpoint_net(0, &net).render();
        let inp = inputs(&ckpt, &x, &t, 0.1);
        let traj = Trajectory::new(&inp, &net);
        let lens = |traj: &Trajectory| {
            let s = traj.steps.lock().unwrap();
            (s.states.len(), s.losses.len())
        };
        for (iters, recorded) in [(3, 3), (5, 5), (2, 5), (5, 5)] {
            let got = traj.prefix(iters, &inp);
            assert_eq!((got.states.len(), got.losses.len()), (iters + 1, iters));
            assert_eq!(
                lens(&traj),
                (recorded + 1, recorded),
                "after asking for {iters}"
            );
        }
    }

    #[test]
    fn poisoned_trajectory_still_serves_exact_steps() {
        let (x, t) = demo_dataset(5, 8);
        let net = WinogradNet::new(5, 2, &[4], true);
        let ckpt = checkpoint_net(0, &net).render();
        let inp = inputs(&ckpt, &x, &t, 0.1);
        let traj = Trajectory::new(&inp, &net);
        traj.prefix(2, &inp);
        std::thread::scope(|s| {
            let held = s.spawn(|| {
                let _guard = traj.steps.lock().unwrap();
                panic!("poison the trajectory");
            });
            assert!(held.join().is_err());
        });
        assert!(traj.steps.is_poisoned());
        let got = traj.prefix(4, &inp);
        let mut direct = net.clone();
        for k in 0..4 {
            let loss = direct.train_step_with(&x, &t, 0.1, Some(inp.grid), &ParPool::serial());
            assert_eq!(
                got.loss(k).to_bits(),
                loss.to_bits(),
                "loss of step {}",
                k + 1
            );
            assert_eq!(
                got.checkpoint(k + 1),
                checkpoint_net(k as u64 + 1, &direct).render()
            );
        }
    }
}
