//! The fault-free training trajectory, computed once per process.
//!
//! Up to its first disruptive event (link-down, worker-down, bit-flip), a
//! resilient run issues exactly the fault-free run's SGD steps, and it
//! reports the fault-free run's final checkpoint. Both are a pure
//! function of the initial net, the batch, the learning rate and the
//! grid, so runs that share those — every served `faults` request trains
//! the same net on the same batch — share one trajectory, held in a
//! process-wide memo in the style of `ClusterConfig::cluster_topology`.
//!
//! * **Key.** The rendered initial checkpoint, the bits of the inputs and
//!   targets, the bits of the learning rate, and the grid. A lookup
//!   compares the whole key. Two nets that render the same checkpoint
//!   train bit-identically: the checkpoint is what a rollback restores,
//!   and rollback replays are bit-exact.
//! * **Contents.** Per step: the net's stages and readout after it, its
//!   loss, and its checkpoint, rendered on first use.
//! * **Bound.** At most [`MAX_TRAJECTORIES`] keys; a new key evicts the
//!   least recently used one. A trajectory grows lazily to the largest
//!   `iters` a run of its key asked for, and no further.

use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use wmpt_core::{checkpoint_net, WinogradNet};
use wmpt_noc::ClusterConfig;
use wmpt_par::ParPool;
use wmpt_tensor::{Shape4, Tensor4};

/// Keys the process-wide memo keeps; the least recently used goes first.
pub(crate) const MAX_TRAJECTORIES: usize = 4;

/// What a fault-free trajectory is a function of, as a run passes it in.
pub(crate) struct Inputs<'a> {
    /// `checkpoint_net(0, net).render()` of the initial net.
    pub checkpoint: &'a str,
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

/// The net after `iter` fault-free steps.
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
    /// `states[k]`: the net after `k` steps; `states[0]` is the initial net.
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
            self.states.push(Arc::new(State {
                iter: self.states.len() as u64,
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
            iter: 0,
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

/// The first `iters` fault-free steps of `net` (whose rendered
/// checkpoint is `inp.checkpoint`) on `inp`, from the process-wide memo.
pub(crate) fn fault_free(inp: &Inputs, net: &WinogradNet, iters: usize) -> FaultFree {
    static MEMO: OnceLock<Mutex<Memo>> = OnceLock::new();
    // Every update removes or pushes one finished entry, so a guard
    // recovered from a poisoned lock still sees a valid list.
    let traj = MEMO
        .get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .trajectory(inp, net);
    traj.prefix(iters, inp)
}

/// A fault-free run's first `iters` steps, as [`fault_free`] returns them.
pub(crate) struct FaultFree {
    states: Vec<Arc<State>>,
    losses: Vec<f64>,
}

impl FaultFree {
    /// The loss of step `it + 1` (the step of iteration `it`).
    pub fn loss(&self, it: usize) -> f64 {
        self.losses[it]
    }

    /// The net after `k` steps.
    pub fn net(&self, k: usize) -> &WinogradNet {
        &self.states[k].net
    }

    /// `checkpoint_net(k, ..).render()` of the net after `k` steps.
    pub fn checkpoint(&self, k: usize) -> &str {
        self.states[k].checkpoint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::demo_dataset;

    fn inputs<'a>(ckpt: &'a str, x: &'a Tensor4, t: &'a [f32], lr: f32) -> Inputs<'a> {
        Inputs {
            checkpoint: ckpt,
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
        let lrs = [0.1f32, 0.2, 0.3, 0.4, 0.5];
        let mut memo = Memo::default();
        let first: Vec<_> = lrs
            .iter()
            .take(MAX_TRAJECTORIES)
            .map(|&lr| memo.trajectory(&inputs(&ckpt, &x, &t, lr), &net))
            .collect();
        // A hit returns the stored trajectory and makes it most recent.
        let again = memo.trajectory(&inputs(&ckpt, &x, &t, lrs[0]), &net);
        assert!(Arc::ptr_eq(&again, &first[0]));
        // One key past the cap evicts the least recently used: lrs[1].
        memo.trajectory(&inputs(&ckpt, &x, &t, lrs[4]), &net);
        assert_eq!(memo.entries.len(), MAX_TRAJECTORIES);
        let lr_bits: Vec<u32> = memo.entries.iter().map(|e| e.key.lr).collect();
        assert_eq!(lr_bits, [lrs[2], lrs[3], lrs[0], lrs[4]].map(f32::to_bits));
        let back = memo.trajectory(&inputs(&ckpt, &x, &t, lrs[1]), &net);
        assert!(!Arc::ptr_eq(&back, &first[1]), "evicted key was rebuilt");
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
