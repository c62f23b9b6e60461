//! Runs the paper-reproduction experiments and prints their tables.
//!
//! ```text
//! cargo run -p wmpt-bench --release --bin experiments            # all
//! cargo run -p wmpt-bench --release --bin experiments fig15 fig17
//! cargo run -p wmpt-bench --release --bin experiments --list
//! cargo run -p wmpt-bench --release --bin experiments --obs     # BENCH_obs.json
//! cargo run -p wmpt-bench --release --bin experiments --jobs 4  # host threads
//! cargo run -p wmpt-bench --release --bin experiments --progress # heartbeat
//! cargo run -p wmpt-bench --release --bin experiments --gate    # perf gate
//! cargo run -p wmpt-bench --release --bin experiments --bless   # new baselines
//! ```
//!
//! `--gate` recomputes the `BENCH_obs.json`/`BENCH_par.json`/
//! `BENCH_serve.json`/`BENCH_plan.json`/`BENCH_kernels.json` reports
//! in-memory and grades them against the committed `baselines/`; any
//! metric outside its tolerance band exits non-zero. `--bless` rewrites
//! the baselines from fresh reports after an intentional perf change.
//!
//! `--jobs N` runs the selected experiments on `N` host worker threads
//! via the deterministic `wmpt-par` runtime (`0` or omitted = the host's
//! available parallelism). Output stays in submission order regardless of
//! completion order, and every experiment is itself bit-identical across
//! jobs values, so the printed tables never depend on `N`. A footer
//! reports per-experiment host wall-clock ms alongside the simulated
//! cycle counts in the tables.
//!
//! `--progress[=N]` (off by default) prints a `[progress]` heartbeat
//! line to stderr every N completed experiments, plus a final summary.
//! Experiments aggregate many independent simulations, so the heartbeat
//! counts completed experiments; the simulated-cycle fields read zero
//! here and are live on `mpt_sim` runs, where a span sink is attached.
//! Lines print in submission order — deterministic for any `--jobs`.

#![forbid(unsafe_code)]

use std::env;
use std::time::Instant;

use wmpt_core::Heartbeat;
use wmpt_obs::json::Value;
use wmpt_obs::{MetricKey, MetricRegistry, Tracer};
use wmpt_par::{available_jobs, ParPool};

/// Extracts `--jobs N` (0 = auto) and returns the worker-thread count.
fn parse_jobs(args: &mut Vec<String>) -> usize {
    let Some(i) = args.iter().position(|a| a == "--jobs") else {
        return available_jobs();
    };
    if i + 1 >= args.len() {
        eprintln!("--jobs needs a value");
        std::process::exit(2);
    }
    let v = args.remove(i + 1);
    args.remove(i);
    match v.parse::<usize>() {
        Ok(0) => available_jobs(),
        Ok(n) => n,
        Err(_) => {
            eprintln!("--jobs must be a non-negative integer");
            std::process::exit(2);
        }
    }
}

/// Extracts `--progress` / `--progress=N`; `Some(n)` = report every `n`
/// completed experiments.
fn parse_progress(args: &mut Vec<String>) -> Option<u64> {
    let i = args
        .iter()
        .position(|a| a == "--progress" || a.starts_with("--progress="))?;
    let flag = args.remove(i);
    match flag.strip_prefix("--progress=") {
        None => Some(1),
        Some(v) => match v.parse::<u64>() {
            Ok(n) => Some(n),
            Err(_) => {
                eprintln!("--progress=N needs a non-negative integer");
                std::process::exit(2);
            }
        },
    }
}

/// Writes a measured report into the working directory as one JSON line.
fn write_snapshot(file: &str, report: &Value) -> std::io::Result<()> {
    std::fs::write(file, report.render() + "\n")
}

fn main() {
    let mut args: Vec<String> = env::args().skip(1).collect();
    // The perf gate and its blessing tool run before anything else: they
    // own the process outcome and take no further arguments.
    if args.iter().any(|a| a == "--gate") {
        let dir = std::path::Path::new(wmpt_bench::gate::BASELINE_DIR);
        match wmpt_bench::gate::run_gate(dir) {
            Ok(outcome) => {
                print!("{}", outcome.text);
                if outcome.passed {
                    println!("perf gate: PASS");
                } else {
                    println!(
                        "perf gate: FAIL — see rows above; bless intentional changes with --bless"
                    );
                    std::process::exit(1);
                }
            }
            Err(e) => {
                eprintln!("perf gate could not run: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    if args.iter().any(|a| a == "--bless") {
        let dir = std::path::Path::new(wmpt_bench::gate::BASELINE_DIR);
        let written = wmpt_bench::gate::bless(dir).unwrap_or_else(|e| {
            eprintln!("bless failed: {e}");
            std::process::exit(1);
        });
        for p in written {
            eprintln!("wrote {}", p.display());
        }
        return;
    }
    let jobs = parse_jobs(&mut args);
    let progress = parse_progress(&mut args);
    if let Some(i) = args.iter().position(|a| a == "--tsv") {
        args.remove(i);
        let dir = std::path::Path::new("results");
        for t in wmpt_bench::all_tsv_tables() {
            let path = t.write_to(dir).expect("results/ must be writable");
            eprintln!("wrote {}", path.display());
        }
    }
    // The observability report rides along with every full run (and can
    // be requested alone with --obs): a fixed VGG-like layer at
    // (N_g, N_c) = (4, 4), per-phase cycle rollup + metric registry.
    let obs_only = if let Some(i) = args.iter().position(|a| a == "--obs") {
        args.remove(i);
        true
    } else {
        false
    };
    if obs_only || args.is_empty() {
        let report = wmpt_bench::obs_report::obs_report();
        write_snapshot("BENCH_obs.json", &report).expect("BENCH_obs.json must be writable");
        eprintln!("wrote BENCH_obs.json");
        if obs_only {
            return;
        }
    }
    let registry = wmpt_bench::all_experiments();
    if args.iter().any(|a| a == "--list") {
        for (name, _) in &registry {
            println!("{name}");
        }
        return;
    }
    let selected: Vec<&wmpt_bench::Experiment> = if args.is_empty() {
        registry.iter().collect()
    } else {
        let sel: Vec<_> = registry
            .iter()
            .filter(|(n, _)| args.iter().any(|a| a == n))
            .collect();
        if sel.is_empty() {
            eprintln!("unknown experiment(s) {args:?}; use --list");
            std::process::exit(1);
        }
        sel
    };
    // Run experiments concurrently; results print in submission order.
    let pool = ParPool::new(jobs);
    let timed: Vec<(f64, wmpt_bench::Output)> = pool.map_indexed(selected.len(), |i| {
        let (_, runner) = *selected[i];
        let t0 = Instant::now();
        let out = runner();
        (t0.elapsed().as_secs_f64() * 1e3, out)
    });
    // The heartbeat ticks per completed experiment in submission order;
    // no span sink is attached at this level, so the simulated-state
    // fields of the line read zero (see the module docs).
    let mut hb = progress.map(Heartbeat::new);
    let pulse = Tracer::new();
    for ((name, _), (ms, out)) in selected.iter().zip(&timed) {
        // The snapshot is the report the table was rendered from.
        if let Some((file, report)) = &out.snapshot {
            match write_snapshot(file, report) {
                Ok(()) => eprintln!("wrote {file}"),
                Err(e) => eprintln!("could not write {file}: {e}"),
            }
        }
        println!("################ {name} ################");
        println!("{}", out.table);
        println!("[{name}: {ms:.1} ms host wall-clock]\n");
        if let Some(hb) = hb.as_mut() {
            if let Some(line) = hb.tick("experiment", &pulse) {
                eprintln!("{line}");
            }
        }
    }
    if let Some(hb) = &hb {
        eprintln!("{}", hb.line("experiment", &pulse));
    }
    let mut metrics = MetricRegistry::new();
    for (ms, _) in &timed {
        metrics.observe(MetricKey::HistExperimentHostMs, *ms);
    }
    metrics.set_gauge(MetricKey::ParJobs, pool.jobs() as f64);
    if let Some(h) = metrics.histogram(MetricKey::HistExperimentHostMs) {
        println!(
            "ran {} experiment(s) in {:.1} ms of host work on {} thread(s) \
             (mean {:.1} ms, max {:.1} ms)",
            h.count,
            h.sum,
            pool.jobs(),
            h.mean(),
            h.max,
        );
    }
}
