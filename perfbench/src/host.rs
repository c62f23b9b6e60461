//! Process and host facts: memory high-water mark, thread count, and the
//! provenance stamped on every run.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use wmpt_obs::json::{num, obj, s, Value};

/// A `kB` field of `/proc/self/status` (e.g. `VmHWM`), or `Threads`.
fn status_field(name: &str) -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
}

/// Peak resident set of this process, MiB.
pub fn peak_rss_mib() -> f64 {
    status_field("VmHWM").map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Live threads of this process.
pub fn threads() -> f64 {
    status_field("Threads").unwrap_or(f64::NAN)
}

/// `(steal, total)` CPU ticks of the whole host so far (`/proc/stat`):
/// time the hypervisor gave this machine's CPUs to someone else.
pub fn cpu_ticks() -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = text
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (
        fields.get(7).copied().unwrap_or(0),
        fields.iter().take(8).sum(),
    )
}

pub fn nproc() -> usize {
    wmpt_par::available_jobs()
}

/// First line of a command's stdout; `unknown` when it cannot run. The
/// child is always waited for.
fn command_line(program: &str, args: &[&str]) -> String {
    let mut cmd = Command::new(program);
    // Never report the commit of a repository enclosing the checkout.
    if let Some(outer) = repo_dir().parent() {
        cmd.env("GIT_CEILING_DIRECTORIES", outer);
    }
    cmd.args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find_map(|l| l.strip_prefix("model name")?.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The root of the checkout this benchmark was built in.
pub fn repo_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    dir.canonicalize().unwrap_or(dir)
}

/// Where runs write their reports and traces.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

pub fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// Build profile, host threads, commit, toolchain, CPU and seed.
pub fn provenance(seed: u64) -> Value {
    let repo = repo_dir();
    let repo = repo.to_string_lossy();
    obj(vec![
        ("profile", s(profile())),
        ("nproc", num(nproc() as f64)),
        (
            "commit",
            s(&command_line("git", &["-C", &repo, "rev-parse", "HEAD"])),
        ),
        ("rustc", s(&command_line("rustc", &["--version"]))),
        ("cpu", s(&cpu_model())),
        ("seed", num(seed as f64)),
    ])
}
