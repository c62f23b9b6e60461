//! Sink-enabled parallel sweeps, the `mpt_sim analyze` subcommand, and
//! the `experiments --gate` perf-regression contract — exercised through
//! the real binaries so exit codes and written artifacts are the ones
//! CI sees.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use wmpt_analyze::{flatten_numbers, Analysis, Baseline};
use wmpt_bench::gate::perturb_baseline;
use wmpt_obs::{json, SpanSink, StreamingTracer, Tracer};

fn mpt_sim(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mpt_sim"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("spawn mpt_sim")
}

fn experiments(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("spawn experiments")
}

/// Fresh scratch directory, unique per test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wmpt_cli_{name}_{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// The `[progress]` heartbeat lines of a run's stderr, in order.
fn progress_lines(out: &Output) -> Vec<String> {
    String::from_utf8_lossy(&out.stderr)
        .lines()
        .filter(|l| l.starts_with("[progress]"))
        .map(str::to_string)
        .collect()
}

#[test]
fn parallel_sweep_with_sinks_is_bit_identical_to_serial() {
    let dir = scratch("par_sinks");
    for sweep in [["layer", "Late-2", "all"], ["network", "wrn", "all"]] {
        for (jobs, tag) in [("1", "a"), ("4", "b")] {
            let mut args = sweep.to_vec();
            let (trace, metrics) = (format!("t_{tag}.json"), format!("m_{tag}.json"));
            args.extend([
                "--jobs",
                jobs,
                "--trace-out",
                &trace,
                "--metrics-out",
                &metrics,
            ]);
            let out = mpt_sim(&dir, &args);
            assert!(
                out.status.success(),
                "{sweep:?} --jobs {jobs} run failed:\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            fs::write(dir.join(format!("out_{tag}.txt")), &out.stdout).unwrap();
        }
        for file in ["t", "m", "out"] {
            let a = fs::read(dir.join(format!(
                "{file}_a.{}",
                if file == "out" { "txt" } else { "json" }
            )))
            .unwrap();
            let b = fs::read(dir.join(format!(
                "{file}_b.{}",
                if file == "out" { "txt" } else { "json" }
            )))
            .unwrap();
            assert_eq!(
                a, b,
                "{sweep:?}: {file} differs between --jobs 1 and --jobs 4"
            );
        }
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn streaming_jsonl_is_bit_identical_across_jobs_and_reassembles_chrome() {
    let dir = scratch("stream_sinks");
    // In-memory reference export of the same sweep.
    let out = mpt_sim(&dir, &["layer", "Late-2", "all", "--trace-out", "mem.json"]);
    assert!(out.status.success());
    for (jobs, tag) in [("1", "a"), ("4", "b")] {
        let out = mpt_sim(
            &dir,
            &[
                "layer",
                "Late-2",
                "all",
                "--jobs",
                jobs,
                "--trace-jsonl",
                &format!("t_{tag}.jsonl"),
                "--trace-out",
                &format!("c_{tag}.json"),
                "--metrics-out",
                &format!("m_{tag}.json"),
                "--trace-budget",
                "4096",
            ],
        );
        assert!(
            out.status.success(),
            "streaming --jobs {jobs} run failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    // The streamed artifacts are bit-identical for any --jobs ...
    for file in ["t_a.jsonl", "c_a.json", "m_a.json"] {
        let a = fs::read(dir.join(file)).unwrap();
        let b = fs::read(dir.join(file.replace("_a", "_b"))).unwrap();
        assert_eq!(a, b, "{file} differs between --jobs 1 and --jobs 4");
    }
    // ... and the reassembled chrome document is byte-identical to the
    // in-memory export of the same sweep.
    assert_eq!(
        fs::read(dir.join("c_a.json")).unwrap(),
        fs::read(dir.join("mem.json")).unwrap(),
        "streamed chrome differs from the in-memory export"
    );
    // The metrics carry the sink's self-metrics, and the peak pending
    // buffer stayed inside the requested budget.
    let doc = json::parse(&fs::read_to_string(dir.join("m_a.json")).unwrap()).unwrap();
    let flat = flatten_numbers(&doc);
    let get = |needle: &str| -> f64 {
        *flat
            .iter()
            .find(|(k, _)| k.contains(needle))
            .unwrap_or_else(|| panic!("metrics missing {needle}"))
            .1
    };
    assert!(get("obs.spans_emitted") > 0.0);
    assert!(get("obs.flushes") >= 1.0);
    assert!(get("obs.peak_buffer_bytes") <= 4096.0);
    assert_eq!(get("obs.truncated_spans"), 0.0);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn analyze_streams_jsonl_and_matches_the_chrome_report() {
    let dir = scratch("analyze_jsonl");
    let out = mpt_sim(
        &dir,
        &[
            "layer",
            "Late-2",
            "all",
            "--trace-jsonl",
            "t.jsonl",
            "--trace-out",
            "t.json",
        ],
    );
    assert!(out.status.success());
    let jsonl = mpt_sim(&dir, &["analyze", "--trace-in", "t.jsonl"]);
    assert!(
        jsonl.status.success(),
        "jsonl analyze failed:\n{}",
        String::from_utf8_lossy(&jsonl.stderr)
    );
    let chrome = mpt_sim(&dir, &["analyze", "--trace-in", "t.json"]);
    assert!(chrome.status.success());
    let text = stdout(&jsonl);
    assert!(text.contains("critical path:"), "no critical path:\n{text}");
    assert_eq!(
        text,
        stdout(&chrome),
        "streaming and batch analyze reports diverge"
    );
    // SVG rendering reconstructs the trace from the JSONL too.
    let out = mpt_sim(
        &dir,
        &["analyze", "--trace-in", "t.jsonl", "--svg-out", "t.svg"],
    );
    assert!(out.status.success());
    assert!(fs::read_to_string(dir.join("t.svg"))
        .expect("svg written")
        .starts_with("<svg"));
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn analyze_falls_back_to_batch_for_a_non_epoch_ordered_jsonl() {
    let dir = scratch("analyze_late_span");
    let mut sink = StreamingTracer::create(&dir.join("late.jsonl"), 0).expect("create jsonl");
    let iter = sink.track("iter");
    let w = sink.track("worker0");
    let n = sink.track("noc");
    sink.span(iter, "layer", "forward", 0, 100);
    sink.span(w, "ndp", "gemm_f", 0, 80);
    // This window finalizes the epoch boundary at cycle 100 ...
    sink.span(iter, "layer", "forward", 100, 200);
    sink.span(w, "ndp", "gemm_f", 100, 190);
    // ... which this transfer starts before.
    sink.span(n, "noc", "tile_gather", 90, 150);
    sink.finalize_chrome(&dir.join("late.json"))
        .expect("finalize");

    let jsonl = mpt_sim(&dir, &["analyze", "--trace-in", "late.jsonl"]);
    let err = String::from_utf8_lossy(&jsonl.stderr);
    assert!(jsonl.status.success(), "jsonl analyze failed:\n{err}");
    assert!(
        err.contains("re-reading in batch mode"),
        "no fallback note:\n{err}"
    );
    let chrome = mpt_sim(&dir, &["analyze", "--trace-in", "late.json"]);
    assert!(chrome.status.success());
    let text = stdout(&jsonl);
    assert!(text.contains("critical path: 200 cycles"), "{text}");
    assert_eq!(
        text,
        stdout(&chrome),
        "fallback report diverges from chrome"
    );
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn progress_heartbeat_is_deterministic_and_off_by_default() {
    let dir = scratch("progress");
    let run = |jobs: &str| -> (String, Vec<String>) {
        let out = mpt_sim(
            &dir,
            &["layer", "Late-2", "all", "--progress", "--jobs", jobs],
        );
        assert!(out.status.success());
        (stdout(&out), progress_lines(&out))
    };
    let (out1, prog1) = run("1");
    let (out4, prog4) = run("4");
    assert_eq!(prog1, prog4, "progress lines depend on --jobs");
    assert_eq!(out1, out4);
    // Six config ticks plus the final summary, read off simulated state.
    assert_eq!(prog1.len(), 7, "unexpected heartbeat count: {prog1:?}");
    assert!(prog1[0].contains("cycles=") && prog1[0].contains("bottleneck="));
    assert!(prog1.last().unwrap().starts_with("[progress] config 6 "));
    // --progress=N thins the stream: ticks at 3 and 6, plus the summary.
    let out = mpt_sim(&dir, &["layer", "Late-2", "all", "--progress=3"]);
    assert!(out.status.success());
    assert_eq!(progress_lines(&out).len(), 3);
    // Off by default.
    let out = mpt_sim(&dir, &["layer", "Late-2", "all"]);
    assert!(out.status.success());
    assert!(progress_lines(&out).is_empty(), "heartbeat must be opt-in");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn experiments_progress_ticks_per_experiment() {
    let dir = scratch("exp_progress");
    let out = experiments(&dir, &["fig01", "--progress"]);
    assert!(
        out.status.success(),
        "experiments --progress failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines = progress_lines(&out);
    // One tick for the single experiment plus the final summary.
    assert_eq!(lines.len(), 2, "unexpected heartbeat count: {lines:?}");
    assert!(lines[0].starts_with("[progress] experiment 1 "));
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn analyze_reports_critical_path_and_gates_against_a_baseline() {
    let dir = scratch("analyze");
    let run = mpt_sim(
        &dir,
        &["layer", "Late-2", "w_mp++", "--trace-out", "trace.json"],
    );
    assert!(run.status.success());

    // Plain analyze: report on stdout, SVG + text report on disk.
    let out = mpt_sim(
        &dir,
        &[
            "analyze",
            "--trace-in",
            "trace.json",
            "--svg-out",
            "timeline.svg",
            "--report-out",
            "report.txt",
        ],
    );
    assert!(
        out.status.success(),
        "analyze failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout(&out);
    assert!(text.contains("critical path:"), "no critical path:\n{text}");
    assert!(text.contains("utilization over"), "no utilization:\n{text}");
    let svg = fs::read_to_string(dir.join("timeline.svg")).expect("svg written");
    assert!(svg.starts_with("<svg"));
    assert_eq!(
        fs::read_to_string(dir.join("report.txt")).expect("report written"),
        text,
        "--report-out must capture exactly the printed report"
    );

    // An exact baseline built from the same trace passes ...
    let doc = json::parse(&fs::read_to_string(dir.join("trace.json")).unwrap()).unwrap();
    let trace = Tracer::from_chrome_trace(&doc).unwrap();
    let base = Baseline::from_metrics("trace", &Analysis::of_trace(&trace).metrics(), 0.0);
    let base_path = dir.join("baseline.json");
    fs::write(&base_path, base.to_json().render()).unwrap();
    let out = mpt_sim(
        &dir,
        &[
            "analyze",
            "--trace-in",
            "trace.json",
            "--baseline",
            "baseline.json",
        ],
    );
    assert!(
        out.status.success(),
        "exact baseline failed:\n{}",
        stdout(&out)
    );
    assert!(stdout(&out).contains(": pass =="));

    // ... and a perturbed one trips the gate with exit 1.
    let doc = json::parse(&fs::read_to_string(&base_path).unwrap()).unwrap();
    let bad = perturb_baseline(&doc, "critpath.total_cycles", 1.5).expect("key exists");
    fs::write(&base_path, bad.render()).unwrap();
    let out = mpt_sim(
        &dir,
        &[
            "analyze",
            "--trace-in",
            "trace.json",
            "--baseline",
            "baseline.json",
        ],
    );
    assert_eq!(out.status.code(), Some(1), "perturbed baseline must exit 1");
    assert!(stdout(&out).contains("FAIL"));
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn analyze_rejects_bad_invocations() {
    let dir = scratch("analyze_bad");
    // Missing the required input is a usage error (exit 2) ...
    let out = mpt_sim(&dir, &["analyze"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
    let out = mpt_sim(&dir, &["analyze", "--trace-in", "t.json", "--bogus", "x"]);
    assert_eq!(out.status.code(), Some(2));
    // ... while an unreadable or malformed trace is a runtime error (1).
    let out = mpt_sim(&dir, &["analyze", "--trace-in", "no_such.json"]);
    assert_eq!(out.status.code(), Some(1));
    fs::write(dir.join("garbage.json"), "{not json").unwrap();
    let out = mpt_sim(&dir, &["analyze", "--trace-in", "garbage.json"]);
    assert_eq!(out.status.code(), Some(1));
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn experiments_gate_blesses_passes_then_trips_on_perturbation() {
    let dir = scratch("gate");
    let out = experiments(&dir, &["--bless"]);
    assert!(
        out.status.success(),
        "bless failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let obs_base = dir.join("baselines").join("BENCH_obs.baseline.json");
    assert!(obs_base.is_file(), "bless must write the obs baseline");

    let out = experiments(&dir, &["--gate"]);
    assert!(out.status.success(), "clean gate failed:\n{}", stdout(&out));
    assert!(stdout(&out).contains("perf gate: PASS"));

    let doc = json::parse(&fs::read_to_string(&obs_base).unwrap()).unwrap();
    let bad = perturb_baseline(&doc, "total_cycles", 1.5).expect("key exists");
    fs::write(&obs_base, bad.render()).unwrap();
    let out = experiments(&dir, &["--gate"]);
    assert_eq!(out.status.code(), Some(1), "perturbed gate must exit 1");
    assert!(stdout(&out).contains("perf gate: FAIL"));
    fs::remove_dir_all(&dir).ok();
}
