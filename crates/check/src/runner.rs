//! The property runner: case loop, failure shrinking, env-var replay.
//!
//! ```text
//! check("my_property", |c| { let n = c.size(1, 99); assert!(n < 100) });
//! ```
//!
//! On failure the runner shrinks the recorded choice sequence (see the
//! crate's `shrink` module) and panics with a report naming both the
//! seed and the minimal choices, e.g.
//!
//! ```text
//! wmpt-check: property `my_property` failed (case 17 of 64)
//!   rerun all cases:  WMPT_CHECK_SEED=0x57c0ffee cargo test my_property
//!   replay minimal:   WMPT_CHECK_REPLAY='my_property:3,0,12' cargo test my_property
//! ```
//!
//! Environment variables (all optional):
//!
//! * `WMPT_CHECK_SEED` — base seed (decimal or `0x…` hex) for every
//!   property in the run; each property further mixes in a hash of its
//!   name so streams stay unrelated.
//! * `WMPT_CHECK_CASES` — per-property case budget override.
//! * `WMPT_CHECK_REPLAY` — `name:c1,c2,…`: replay exactly that choice
//!   sequence for property `name` (other properties run normally). The
//!   replayed case is bit-identical to the original failure.

use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

use crate::case::Case;
use crate::shrink::shrink;
use crate::source::Source;

/// Default per-property case budget (raise in CI via `WMPT_CHECK_CASES`).
pub const DEFAULT_CASES: usize = 64;

/// Default base seed — fixed so plain `cargo test` runs are reproducible.
pub const DEFAULT_SEED: u64 = 0x57_4d50_5443_4845; // "WMPTCHE"

/// Runner configuration. [`Config::from_env`] is what [`check`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Config {
    /// Number of random cases to run.
    pub cases: usize,
    /// Base seed (mixed with the property name).
    pub seed: u64,
    /// Maximum shrink replays after the first failure.
    pub max_shrink_attempts: usize,
    /// Maximum choices one case may draw before it is rejected.
    pub max_choices: usize,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            cases: DEFAULT_CASES,
            seed: DEFAULT_SEED,
            max_shrink_attempts: 2000,
            max_choices: 8192,
        }
    }
}

impl Config {
    /// Default config with `WMPT_CHECK_CASES` / `WMPT_CHECK_SEED` applied.
    pub fn from_env() -> Self {
        let mut cfg = Self::default();
        if let Some(c) = env_usize("WMPT_CHECK_CASES") {
            cfg.cases = c.max(1);
        }
        if let Some(s) = env_u64("WMPT_CHECK_SEED") {
            cfg.seed = s;
        }
        cfg
    }
}

/// A shrunk property failure, as data (what [`check`] formats and panics
/// with; returned directly by [`run_check`] for harness self-tests).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Failure {
    /// Property name.
    pub name: String,
    /// Index of the first failing case.
    pub case_index: usize,
    /// Base seed of the run (the `WMPT_CHECK_SEED` to reproduce it).
    pub seed: u64,
    /// Choice sequence of the original (unshrunk) failure.
    pub original_choices: Vec<u64>,
    /// Minimal shrunk choice sequence (the `WMPT_CHECK_REPLAY` payload).
    pub choices: Vec<u64>,
    /// Panic message of the minimal case.
    pub message: String,
    /// Shrink replays spent.
    pub shrink_attempts: usize,
}

impl Failure {
    /// The `WMPT_CHECK_REPLAY` value that reproduces the minimal case.
    pub fn replay_var(&self) -> String {
        let csv: Vec<String> = self.choices.iter().map(u64::to_string).collect();
        format!("{}:{}", self.name, csv.join(","))
    }

    fn report(&self) -> String {
        format!(
            "wmpt-check: property `{}` failed (case {} of run seed {:#x})\n  \
             original: {} choices; minimal: {} choices after {} shrink attempts\n  \
             minimal failure: {}\n  \
             rerun all cases:  WMPT_CHECK_SEED={:#x} cargo test {}\n  \
             replay minimal:   WMPT_CHECK_REPLAY='{}' cargo test {}",
            self.name,
            self.case_index,
            self.seed,
            self.original_choices.len(),
            self.choices.len(),
            self.shrink_attempts,
            self.message,
            self.seed,
            self.name,
            self.replay_var(),
            self.name,
        )
    }
}

/// Runs a property under the env-derived [`Config`]; panics with a replay
/// report on failure. Properties fail by panicking (plain `assert!` /
/// `assert_approx_eq!` work).
pub fn check(name: &str, prop: impl Fn(&mut Case)) {
    check_with(name, Config::from_env(), prop);
}

/// [`check`] with an explicit config (env `WMPT_CHECK_REPLAY` still
/// honoured).
pub fn check_with(name: &str, config: Config, prop: impl Fn(&mut Case)) {
    if let Some(failure) = run_check(name, config, prop) {
        panic!("{}", failure.report());
    }
}

/// Core runner, returning the shrunk failure instead of panicking — the
/// hook the harness's own self-tests (and the CI meta-check) use to prove
/// that shrinking converges and replay is bit-identical.
pub fn run_check(name: &str, config: Config, prop: impl Fn(&mut Case)) -> Option<Failure> {
    install_quiet_hook();

    // Explicit replay request: run that one sequence, loudly, no shrink.
    if let Some(choices) = replay_request(name) {
        let outcome = run_once(&prop, Source::replay(&choices, config.max_choices), false);
        match outcome {
            Outcome::Fail { record, message } => {
                return Some(Failure {
                    name: name.to_string(),
                    case_index: 0,
                    seed: config.seed,
                    original_choices: choices,
                    choices: record,
                    message,
                    shrink_attempts: 0,
                });
            }
            Outcome::Pass => {
                eprintln!(
                    "wmpt-check: replay of `{name}` passed ({} choices)",
                    choices.len()
                );
                return None;
            }
            Outcome::Invalid => {
                panic!("wmpt-check: WMPT_CHECK_REPLAY for `{name}` is not a valid case (overrun)");
            }
        }
    }

    let property_seed = config.seed ^ fnv1a(name.as_bytes());
    let mut seeder = wmpt_tensor::Rng64::new(property_seed);
    for case_index in 0..config.cases {
        let case_seed = seeder.next_u64();
        let outcome = run_once(&prop, Source::random(case_seed, config.max_choices), true);
        let (original, first_message) = match outcome {
            Outcome::Pass | Outcome::Invalid => continue,
            Outcome::Fail { record, message } => (record, message),
        };

        // Shrink: a candidate is interesting when its replay still fails.
        let interesting = |cand: &[u64]| {
            matches!(
                run_once(&prop, Source::replay(cand, config.max_choices), true),
                Outcome::Fail { .. }
            )
        };
        let (minimal, shrink_attempts) =
            shrink(original.clone(), interesting, config.max_shrink_attempts);

        // Re-run the minimal case once more to (a) capture its message and
        // (b) trim the record to the choices actually consumed.
        let (choices, message) =
            match run_once(&prop, Source::replay(&minimal, config.max_choices), true) {
                Outcome::Fail { record, message } => (record, message),
                // Can't happen (shrink only keeps failing candidates), but
                // fall back to the original failure rather than hiding it.
                _ => (original.clone(), first_message),
            };

        return Some(Failure {
            name: name.to_string(),
            case_index,
            seed: config.seed,
            original_choices: original,
            choices,
            message,
            shrink_attempts,
        });
    }
    None
}

enum Outcome {
    Pass,
    Invalid,
    Fail { record: Vec<u64>, message: String },
}

fn run_once(prop: &impl Fn(&mut Case), mut source: Source, quiet: bool) -> Outcome {
    let result = {
        let _guard = QuietGuard::set(quiet);
        panic::catch_unwind(AssertUnwindSafe(|| {
            let mut case = Case::new(&mut source);
            prop(&mut case);
        }))
    };
    if source.is_invalid() {
        // Replay overran or hit the choice limit: not a real case, even if
        // the property tripped on the filler zeros.
        return Outcome::Invalid;
    }
    match result {
        Ok(()) => Outcome::Pass,
        Err(payload) => Outcome::Fail {
            record: source.record().to_vec(),
            message: payload_message(payload),
        },
    }
}

fn payload_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

// ---- quiet panic hook ---------------------------------------------------
//
// Shrinking replays the property hundreds of times, and every failing
// replay panics; without intervention each panic prints a backtrace
// banner. A process-wide chained hook consults a thread-local flag so
// only this thread's intentional replays are silenced.

thread_local! {
    static QUIET: Cell<bool> = const { Cell::new(false) };
}

struct QuietGuard {
    prev: bool,
}

impl QuietGuard {
    fn set(quiet: bool) -> Self {
        let prev = QUIET.with(|q| q.replace(quiet));
        Self { prev }
    }
}

impl Drop for QuietGuard {
    fn drop(&mut self) {
        let prev = self.prev;
        QUIET.with(|q| q.set(prev));
    }
}

fn install_quiet_hook() {
    static INIT: Once = Once::new();
    INIT.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !QUIET.with(Cell::get) {
                prev(info);
            }
        }));
    });
}

// ---- env helpers --------------------------------------------------------

fn env_u64(name: &str) -> Option<u64> {
    let raw = std::env::var(name).ok()?;
    let raw = raw.trim();
    let parsed = if let Some(hex) = raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16)
    } else {
        raw.parse()
    };
    match parsed {
        Ok(v) => Some(v),
        Err(_) => {
            eprintln!("wmpt-check: ignoring unparseable {name}={raw:?}");
            None
        }
    }
}

fn env_usize(name: &str) -> Option<usize> {
    env_u64(name).map(|v| v as usize)
}

fn replay_request(name: &str) -> Option<Vec<u64>> {
    let raw = std::env::var("WMPT_CHECK_REPLAY").ok()?;
    let (for_name, csv) = raw.split_once(':')?;
    if for_name != name {
        return None;
    }
    let choices: Result<Vec<u64>, _> = csv
        .split(',')
        .filter(|s| !s.trim().is_empty())
        .map(|s| s.trim().parse())
        .collect();
    match choices {
        Ok(c) => Some(c),
        Err(e) => panic!("wmpt-check: bad WMPT_CHECK_REPLAY choice list: {e}"),
    }
}

/// FNV-1a, used to give each property an unrelated stream under one base
/// seed.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_returns_none() {
        let r = run_check("always_passes", Config::default(), |c| {
            let n = c.size(0, 100);
            assert!(n <= 100);
        });
        assert!(r.is_none());
    }

    #[test]
    fn failing_property_shrinks_and_reports() {
        let f = run_check("fails_at_ten", Config::default(), |c| {
            let n = c.size(0, 1000);
            assert!(n < 10, "n = {n} reached 10");
        })
        .expect("must fail");
        // Minimal witness is exactly the boundary value.
        assert_eq!(f.choices, vec![10]);
        assert!(f.message.contains("n = 10"), "{}", f.message);
        assert!(f.replay_var().starts_with("fails_at_ten:10"));
    }

    #[test]
    fn different_seeds_visit_different_cases() {
        let collect = |seed: u64| {
            let vals = std::cell::RefCell::new(Vec::new());
            let r = run_check(
                "collector",
                Config {
                    cases: 8,
                    seed,
                    ..Config::default()
                },
                |c| {
                    vals.borrow_mut().push(c.size(0, 1_000_000));
                },
            );
            assert!(r.is_none());
            vals.into_inner()
        };
        assert_ne!(collect(1), collect(2));
        assert_eq!(collect(3), collect(3));
    }

    #[test]
    fn check_with_panics_with_replay_line() {
        let err = panic::catch_unwind(|| {
            check_with("doomed", Config::default(), |c| {
                let v = c.size(5, 50);
                assert!(v == usize::MAX, "always fails, v = {v}");
            });
        })
        .unwrap_err();
        let msg = payload_message(err);
        assert!(
            msg.contains("wmpt-check: property `doomed` failed"),
            "{msg}"
        );
        assert!(msg.contains("WMPT_CHECK_REPLAY='doomed:"), "{msg}");
        assert!(msg.contains("WMPT_CHECK_SEED="), "{msg}");
    }

    #[test]
    fn multi_value_failure_shrinks_all_coordinates() {
        // Fails when a*b >= 100 — minimal witnesses have both factors
        // small; greedy minimization fixes one coordinate then the other.
        let f = run_check("product", Config::default(), |c| {
            let a = c.size(0, 1000);
            let b = c.size(0, 1000);
            assert!(a * b < 100, "{a} * {b} >= 100");
        })
        .expect("must fail");
        assert_eq!(f.choices.len(), 2);
        let (a, b) = (f.choices[0], f.choices[1]);
        assert!(a * b >= 100, "shrunk case must still fail");
        // Each coordinate is individually minimal for the other.
        assert!((a - 1) * b < 100, "a not minimal: {a} x {b}");
        assert!(a * (b - 1) < 100, "b not minimal: {a} x {b}");
    }
}
