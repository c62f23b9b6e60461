//! `mpt-sim` — command-line front end to the full-system simulator.
//!
//! ```text
//! mpt-sim layer Late-2 w_mp++          # one Table II layer, one config
//! mpt-sim layer Mid-2 all              # ... under all six configs
//! mpt-sim network fractalnet w_mp++    # a whole CNN
//! mpt-sim noc fbfly uniform            # latency/throughput sweep
//! mpt-sim plan wrn w_mp++              # the host's per-layer plan
//! mpt-sim faults --scenario single-link --seed 7   # resilient training
//!                                      # under an injected fault
//!
//! mpt-sim layer Late-2 w_mp++ --trace-out trace.json --metrics-out m.json
//! mpt-sim network wrn w_mp++ --trace-jsonl t.jsonl --trace-budget 4096
//! mpt-sim analyze --trace-in t.jsonl --svg-out timeline.svg
//! mpt-sim serve --port 7878            # the same simulator over HTTP
//! ```
//!
//! Every command except `analyze` and `serve` is parsed into a
//! `wmpt_serve::SimRequest` and executed through the shared
//! `run_request_with` runner — the same entry point the HTTP server
//! uses — so a shell invocation and a curl body are interchangeable
//! descriptions of the same deterministic computation.
//!
//! `--trace-out <path>` writes a Chrome `trace_event` JSON of the
//! simulated iteration (open in `chrome://tracing` or Perfetto) and
//! prints the per-phase rollup; `--metrics-out <path>` writes the metric
//! registry. Both apply to the `layer` and `network` commands.
//!
//! `--trace-jsonl <path>` streams spans to line-delimited chrome events
//! as they close instead of holding them all in memory, keeping at most
//! `--trace-budget <bytes>` (default 64 KiB) of pending output buffered.
//! With `--trace-out` alongside, the chrome document is reassembled from
//! the JSONL at exit — byte-identical to the in-memory export. The
//! sink's self-metrics (`obs.spans_emitted`, `obs.flushes`,
//! `obs.peak_buffer_bytes`, `obs.truncated_spans`) land in
//! `--metrics-out`. The streaming path skips the per-phase rollup table
//! (it would require retaining every span).
//!
//! `--progress[=N]` (layer/network, off by default) prints a heartbeat
//! line to stderr every N completed units — per layer for a
//! single-config `network` run, per configuration for sweeps — plus a
//! final summary. Lines read iteration count, simulated cycles, the
//! dominating span category, and the sink's buffer footprint entirely
//! off simulated state, so they are deterministic for any `--jobs`.
//!
//! `analyze` re-parses a `--trace-out` or `--trace-jsonl` file
//! (auto-detected) and prints the derived critical-path attribution and
//! utilization report; JSONL inputs are analyzed in one streaming pass
//! with O(open-spans) memory, falling back to batch re-reading when the
//! stream is not epoch-ordered. `--svg-out` renders a self-contained
//! timeline, `--report-out` saves the text report, and `--baseline
//! <file>` grades the analysis metrics against a committed baseline,
//! exiting non-zero on regression.
//!
//! `serve` starts the `wmpt-serve` HTTP server on `127.0.0.1` and
//! blocks: `POST /api/v1/jobs` with a `SimRequest` JSON body submits a
//! job to a bounded queue (`--queue-depth`, 429 when full), results
//! memoize in a content-addressed cache (`--cache-bytes`), and
//! `GET /api/v1/jobs/<id>/{report,metrics,trace,svg}` fetches artifacts
//! byte-identical to what the equivalent CLI invocation writes.
//!
//! `--jobs <n>` simulates the configs of a `layer <l> all` /
//! `network <n> all` sweep on `n` host threads via the deterministic
//! `wmpt-par` runtime (`0` or omitted = available parallelism); rows
//! print in config order and are bit-identical for any `n` — including
//! with sinks: the configs simulate on the pool and then record into
//! the sinks in config order, so the written files match a serial run
//! byte-for-byte.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::env;
use std::fs::File;
use std::io::ErrorKind;
use std::path::PathBuf;
use std::process::exit;

use wmpt_analyze::{analyze_jsonl, collapsed_stacks, flame_svg, timeline_svg, Analysis, Baseline};
use wmpt_core::Heartbeat;
use wmpt_fault::Scenario;
use wmpt_obs::{
    detect_format, json, read_trace_auto, Level, Logger, Observer, StreamingTracer, TraceFormat,
};
use wmpt_par::{available_jobs, ParPool};
use wmpt_serve::{
    run_request_with, ServeConfig, Server, SimRequest, DEFAULT_FAULT_ITERS, DEFAULT_FAULT_SEED,
};

/// Pending-output byte budget of `--trace-jsonl` when `--trace-budget`
/// is not given.
const DEFAULT_TRACE_BUDGET: usize = 64 * 1024;

fn usage() -> ! {
    eprintln!(
        "usage:\n  mpt-sim layer <Early|Mid-1|Mid-2|Late-1|Late-2> <config|all>\n  \
         mpt-sim network <table2|wrn|resnet34|fractalnet|vgg16> <config|all>\n  \
         mpt-sim plan <table2|wrn|resnet34|fractalnet|vgg16> <config>\n  \
         mpt-sim plan <table2|wrn|resnet34|fractalnet|vgg16> --auto\n  \
         mpt-sim noc <ring|fbfly> <uniform|transpose|neighbor|hotspot>\n  \
         mpt-sim faults --scenario <name> [--seed <u64>] [--iters <n>]\n  \
         mpt-sim analyze --trace-in <file> [--baseline <file>]\n  \
         mpt-sim serve [--port <n>] [--queue-depth <n>] [--cache-bytes <n>]\n\n\
         options (layer/network): --trace-out <file>  Chrome trace_event JSON\n\
         \x20                     --trace-jsonl <file> stream spans to JSONL\n\
         \x20                     --trace-budget <n>   pending bytes for JSONL\n\
         \x20                     --metrics-out <file> metric registry JSON\n\
         \x20                     --progress[=N]       heartbeat to stderr\n\
         \x20                     --jobs <n>           host threads (0 = auto)\n\
         \x20                     --log-level <l>      off|error|warn|info|debug (default info)\n\
         options (analyze):       --trace-in <file>    trace (chrome or JSONL)\n\
         \x20                     --baseline <file>    gate against bands\n\
         \x20                     --svg-out <file>     timeline SVG\n\
         \x20                     --report-out <file>  text report\n\
         \x20                     --flame-out <file>   collapsed flamegraph stacks\n\
         \x20                     --flame-svg <file>   flamegraph SVG\n\
         options (serve):         --port <n>           listen port (0 = ephemeral)\n\
         \x20                     --queue-depth <n>    pending jobs before 429\n\
         \x20                     --cache-bytes <n>    result cache byte budget\n\
         \x20                     --workers <n>        job worker threads\n\
         \x20                     --jobs <n>           per-job host threads\n\
         \x20                     --trace-cap <n>      lifecycle records retained\n\
         \x20                     --log-level <l>      structured JSONL log level\n\n\
         configs: d_dp w_dp w_mp w_mp+ w_mp* w_mp++\n\
         scenarios: single-link dead-worker bit-flip straggler host-flap chaos"
    );
    exit(2);
}

/// Rejects leftover `--flags` the command does not understand, so a typo
/// fails loudly (exit 2) instead of being silently dropped.
fn reject_unknown_flags(args: &[String]) {
    if let Some(flag) = args.iter().find(|a| a.starts_with("--")) {
        eprintln!("unknown option: {flag}");
        usage();
    }
}

/// Observation sinks and progress reporting requested on the command
/// line.
#[derive(Default)]
struct ObsArgs {
    trace_out: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    trace_jsonl: Option<PathBuf>,
    trace_budget: Option<usize>,
    progress: Option<u64>,
    log_level: Option<Level>,
}

/// Extracts `--jobs N` (0 = auto) and returns the worker-thread count.
fn extract_jobs(args: &mut Vec<String>) -> usize {
    let Some(i) = args.iter().position(|a| a == "--jobs") else {
        return available_jobs();
    };
    if i + 1 >= args.len() {
        usage();
    }
    let v = args.remove(i + 1);
    args.remove(i);
    match v.parse::<usize>() {
        Ok(0) => available_jobs(),
        Ok(n) => n,
        Err(_) => {
            eprintln!("--jobs must be a non-negative integer");
            usage();
        }
    }
}

/// Extracts `--auto` (the `plan` command's auto-search mode).
fn extract_auto(args: &mut Vec<String>) -> bool {
    let Some(i) = args.iter().position(|a| a == "--auto") else {
        return false;
    };
    args.remove(i);
    true
}

impl ObsArgs {
    fn enabled(&self) -> bool {
        self.trace_out.is_some() || self.metrics_out.is_some() || self.trace_jsonl.is_some()
    }

    fn budget(&self) -> usize {
        self.trace_budget.unwrap_or(DEFAULT_TRACE_BUDGET)
    }

    /// Extracts the sink and progress flags from `args`.
    fn extract(args: &mut Vec<String>) -> ObsArgs {
        let mut out = ObsArgs::default();
        for (flag, slot) in [
            ("--trace-out", 0usize),
            ("--metrics-out", 1),
            ("--trace-jsonl", 2),
        ] {
            if let Some(i) = args.iter().position(|a| a == flag) {
                if i + 1 >= args.len() {
                    usage();
                }
                let v = PathBuf::from(args.remove(i + 1));
                args.remove(i);
                match slot {
                    0 => out.trace_out = Some(v),
                    1 => out.metrics_out = Some(v),
                    _ => out.trace_jsonl = Some(v),
                }
            }
        }
        if let Some(i) = args.iter().position(|a| a == "--trace-budget") {
            if i + 1 >= args.len() {
                usage();
            }
            let v = args.remove(i + 1);
            args.remove(i);
            out.trace_budget = match v.parse::<usize>() {
                Ok(n) => Some(n),
                Err(_) => {
                    eprintln!("--trace-budget must be a byte count");
                    usage();
                }
            };
        }
        out.progress = extract_progress(args);
        out.log_level = extract_log_level(args);
        if out.trace_budget.is_some() && out.trace_jsonl.is_none() {
            eprintln!("--trace-budget only applies with --trace-jsonl");
            usage();
        }
        out
    }

    /// Writes the requested in-memory sinks and prints the rollup table.
    fn finish(&self, obs: &Observer) {
        if let Some(path) = &self.trace_out {
            obs.trace
                .write_chrome_trace(path)
                .expect("trace path must be writable");
            eprintln!("wrote {}", path.display());
            println!("\nper-phase rollup:\n{}", obs.trace.rollup_table());
        }
        if let Some(path) = &self.metrics_out {
            std::fs::write(path, obs.metrics.to_json().render() + "\n")
                .expect("metrics path must be writable");
            eprintln!("wrote {}", path.display());
        }
    }

    /// Finalizes the streaming sink: auto-closes open spans into the
    /// JSONL, optionally reassembles the chrome document (`--trace-out`,
    /// byte-identical to the in-memory export), and accounts the sink's
    /// self-metrics before `--metrics-out` is written.
    fn finish_streaming(&self, obs: Observer<StreamingTracer<File>>) {
        let Observer { trace, mut metrics } = obs;
        let jsonl = self
            .trace_jsonl
            .as_ref()
            .expect("streaming finish requires --trace-jsonl");
        let stats = match &self.trace_out {
            Some(chrome) => trace.finalize_chrome(chrome),
            None => trace.finalize(),
        }
        .expect("trace path must be writable");
        stats.record(&mut metrics);
        eprintln!("wrote {}", jsonl.display());
        if let Some(chrome) = &self.trace_out {
            eprintln!("wrote {}", chrome.display());
        }
        if let Some(path) = &self.metrics_out {
            std::fs::write(path, metrics.to_json().render() + "\n")
                .expect("metrics path must be writable");
            eprintln!("wrote {}", path.display());
        }
    }
}

/// Extracts `--log-level <off|error|warn|info|debug>`.
fn extract_log_level(args: &mut Vec<String>) -> Option<Level> {
    let i = args.iter().position(|a| a == "--log-level")?;
    if i + 1 >= args.len() {
        usage();
    }
    let v = args.remove(i + 1);
    args.remove(i);
    match Level::parse(&v) {
        Some(l) => Some(l),
        None => {
            eprintln!("--log-level must be one of off, error, warn, info, debug");
            usage();
        }
    }
}

/// Extracts `--progress` / `--progress=N`; `Some(n)` = report every `n`
/// completed units.
fn extract_progress(args: &mut Vec<String>) -> Option<u64> {
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
                usage();
            }
        },
    }
}

/// Executes a request on the shared runner, printing the report to
/// stdout — the report string's bytes are exactly what the pre-`serve`
/// CLI printed inline.
fn run_and_print<S: wmpt_obs::SpanSink>(
    req: &SimRequest,
    pool: &ParPool,
    obs: &mut Observer<S>,
    hb: &mut Option<Heartbeat>,
    log: &Logger,
    observed: bool,
) {
    match run_request_with(req, pool, obs, hb, log, observed) {
        Ok(report) => print!("{report}"),
        Err(e) => {
            eprintln!("{e}");
            exit(1);
        }
    }
}

/// Parses `faults` flags (which the obs sinks do not apply to) into a
/// request.
fn faults_request(args: &[String]) -> SimRequest {
    let mut scenario: Option<String> = None;
    let mut seed: u64 = DEFAULT_FAULT_SEED;
    let mut iters: usize = DEFAULT_FAULT_ITERS;
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| -> &str {
            if i + 1 >= args.len() {
                eprintln!("{} needs a value", args[i]);
                usage();
            }
            &args[i + 1]
        };
        match args[i].as_str() {
            "--scenario" => {
                let v = value(i);
                if Scenario::parse(v).is_none() {
                    eprintln!("unknown scenario: {v}");
                    usage();
                }
                scenario = Some(v.to_string());
                i += 2;
            }
            "--seed" => {
                seed = match value(i).parse() {
                    Ok(s) => s,
                    Err(_) => {
                        eprintln!("--seed must be a u64");
                        usage();
                    }
                };
                i += 2;
            }
            "--iters" => {
                iters = match value(i).parse() {
                    Ok(n) if n > 0 => n,
                    _ => {
                        eprintln!("--iters must be a positive integer");
                        usage();
                    }
                };
                i += 2;
            }
            other => {
                eprintln!("unknown option: {other}");
                usage();
            }
        }
    }
    let Some(sc) = scenario else {
        eprintln!("faults requires --scenario");
        usage();
    };
    SimRequest::faults(&sc, seed, iters).unwrap_or_else(|e| {
        eprintln!("{e}");
        usage();
    })
}

/// Re-parses a `--trace-out` (chrome) or `--trace-jsonl` (streaming)
/// file — the format is sniffed from the first line — prints the derived
/// critical-path and utilization report, and optionally renders the SVG
/// timeline, saves the text report, or grades the metrics against a
/// baseline (non-zero exit on regression). JSONL inputs go through the
/// single-pass streaming analyzer; if the event stream is not
/// epoch-ordered, analysis falls back to reconstructing the full trace
/// in memory — the reports are identical either way.
fn run_analyze(args: &[String]) {
    let mut trace_in: Option<PathBuf> = None;
    let mut baseline: Option<PathBuf> = None;
    let mut svg_out: Option<PathBuf> = None;
    let mut report_out: Option<PathBuf> = None;
    let mut flame_out: Option<PathBuf> = None;
    let mut flame_svg_out: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| -> &str {
            if i + 1 >= args.len() {
                eprintln!("{} needs a value", args[i]);
                usage();
            }
            &args[i + 1]
        };
        let slot = match args[i].as_str() {
            "--trace-in" => &mut trace_in,
            "--baseline" => &mut baseline,
            "--svg-out" => &mut svg_out,
            "--report-out" => &mut report_out,
            "--flame-out" => &mut flame_out,
            "--flame-svg" => &mut flame_svg_out,
            other => {
                eprintln!("unknown option: {other}");
                usage();
            }
        };
        *slot = Some(PathBuf::from(value(i)));
        i += 2;
    }
    let Some(path) = trace_in else {
        eprintln!("analyze requires --trace-in");
        usage();
    };
    let fail = |msg: String| -> ! {
        eprintln!("{}: {msg}", path.display());
        exit(1);
    };
    let batch = || -> (BTreeMap<String, f64>, String) {
        let trace = read_trace_auto(&path).unwrap_or_else(|e| fail(e.to_string()));
        let a = Analysis::of_trace(&trace);
        (a.metrics(), a.render())
    };
    let format = detect_format(&path).unwrap_or_else(|e| fail(e.to_string()));
    let (metrics, rendered) = match format {
        TraceFormat::Chrome => batch(),
        TraceFormat::Jsonl => match analyze_jsonl(&path) {
            Ok(sa) => (sa.metrics(), sa.render()),
            Err(e) if e.kind() == ErrorKind::InvalidData => {
                eprintln!("{}: {e}; re-reading in batch mode", path.display());
                batch()
            }
            Err(e) => fail(e.to_string()),
        },
    };
    print!("{rendered}");
    if let Some(p) = &report_out {
        std::fs::write(p, &rendered).expect("report path must be writable");
        eprintln!("wrote {}", p.display());
    }
    if svg_out.is_some() || flame_out.is_some() || flame_svg_out.is_some() {
        // One re-read serves every rendering; the flamegraph fold works
        // on simulator traces and server lifecycle traces alike.
        let trace = read_trace_auto(&path).unwrap_or_else(|e| fail(e.to_string()));
        if let Some(p) = &svg_out {
            std::fs::write(p, timeline_svg(&trace)).expect("svg path must be writable");
            eprintln!("wrote {}", p.display());
        }
        if let Some(p) = &flame_out {
            std::fs::write(p, collapsed_stacks(&trace)).expect("flame path must be writable");
            eprintln!("wrote {}", p.display());
        }
        if let Some(p) = &flame_svg_out {
            std::fs::write(p, flame_svg(&trace)).expect("flame svg path must be writable");
            eprintln!("wrote {}", p.display());
        }
    }
    if let Some(p) = &baseline {
        let read = |e: String| -> ! {
            eprintln!("{}: {e}", p.display());
            exit(1);
        };
        let text = std::fs::read_to_string(p).unwrap_or_else(|e| read(format!("cannot read: {e}")));
        let doc = json::parse(&text).unwrap_or_else(|e| read(e.to_string()));
        let base = Baseline::from_json(&doc).unwrap_or_else(|e| read(e));
        let report = base.compare(&metrics);
        println!(
            "\n== analyze vs {}: {} ==",
            p.display(),
            report.worst().name()
        );
        print!("{}", report.render_table(false));
        if !report.passed() {
            exit(1);
        }
    }
}

/// Parses `serve` flags and blocks forever serving the job API.
fn run_serve(args: &[String]) {
    let mut port: u16 = 7878;
    let mut config = ServeConfig::default();
    // The server logs structured JSONL to stderr at info by default —
    // `--log-level off` for the old silent behavior.
    let mut log_level = Level::Info;
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| -> &str {
            if i + 1 >= args.len() {
                eprintln!("{} needs a value", args[i]);
                usage();
            }
            &args[i + 1]
        };
        match args[i].as_str() {
            "--port" => {
                port = match value(i).parse() {
                    Ok(p) => p,
                    Err(_) => {
                        eprintln!("--port must be a port number");
                        usage();
                    }
                };
            }
            "--queue-depth" => {
                config.queue_depth = match value(i).parse() {
                    Ok(n) if n > 0 => n,
                    _ => {
                        eprintln!("--queue-depth must be a positive integer");
                        usage();
                    }
                };
            }
            "--cache-bytes" => {
                config.cache_bytes = match value(i).parse() {
                    Ok(n) => n,
                    Err(_) => {
                        eprintln!("--cache-bytes must be a byte count");
                        usage();
                    }
                };
            }
            "--workers" => {
                config.workers = match value(i).parse() {
                    Ok(n) if n > 0 => n,
                    _ => {
                        eprintln!("--workers must be a positive integer");
                        usage();
                    }
                };
            }
            "--jobs" => {
                config.jobs = match value(i).parse::<usize>() {
                    Ok(0) => available_jobs(),
                    Ok(n) => n,
                    Err(_) => {
                        eprintln!("--jobs must be a non-negative integer");
                        usage();
                    }
                };
            }
            "--trace-cap" => {
                config.trace_cap = match value(i).parse() {
                    Ok(n) if n > 0 => n,
                    _ => {
                        eprintln!("--trace-cap must be a positive integer");
                        usage();
                    }
                };
            }
            "--log-level" => {
                log_level = match Level::parse(value(i)) {
                    Some(l) => l,
                    None => {
                        eprintln!("--log-level must be one of off, error, warn, info, debug");
                        usage();
                    }
                };
            }
            other => {
                eprintln!("unknown option: {other}");
                usage();
            }
        }
        i += 2;
    }
    config.log = Logger::stderr(log_level);
    let server = Server::bind(&format!("127.0.0.1:{port}"), config).unwrap_or_else(|e| {
        eprintln!("cannot bind 127.0.0.1:{port}: {e}");
        exit(1);
    });
    // Goes to stdout so scripts can scrape the resolved ephemeral port.
    println!("serving on http://{}", server.addr());
    loop {
        std::thread::park();
    }
}

fn main() {
    let mut args: Vec<String> = env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("faults") => {
            // `faults` owns its flags; the obs sinks do not apply to it.
            let req = faults_request(&args[1..]);
            let mut obs = Observer::new();
            run_and_print(
                &req,
                &ParPool::new(1),
                &mut obs,
                &mut None,
                &Logger::disabled(),
                false,
            );
            return;
        }
        Some("analyze") => {
            // so does `analyze` — it consumes artifacts instead of making them.
            run_analyze(&args[1..]);
            return;
        }
        Some("serve") => {
            // ... and `serve`, which exposes every other command over HTTP.
            run_serve(&args[1..]);
            return;
        }
        _ => {}
    }
    let obs_args = ObsArgs::extract(&mut args);
    let pool = ParPool::new(extract_jobs(&mut args));
    let auto = extract_auto(&mut args);
    if auto && args.first().map(String::as_str) != Some("plan") {
        eprintln!("--auto only applies to 'plan'");
        usage();
    }
    if (obs_args.enabled() || obs_args.progress.is_some() || obs_args.log_level.is_some())
        && !matches!(args.first().map(String::as_str), Some("layer" | "network"))
    {
        eprintln!(
            "--trace-out/--trace-jsonl/--metrics-out/--progress/--log-level only apply to \
             'layer' and 'network' (serve has its own --log-level)"
        );
        usage();
    }
    reject_unknown_flags(&args);
    match args.as_slice() {
        [cmd, a, b] if cmd == "layer" || cmd == "network" => {
            let req = if cmd == "layer" {
                SimRequest::layer(a, b)
            } else {
                SimRequest::network(a, b)
            };
            let Ok(req) = req else { usage() };
            let mut hb = obs_args.progress.map(Heartbeat::new);
            // Heartbeat lines route through the logger at info; the
            // default keeps their bytes on stderr exactly as before,
            // `--log-level warn`/`off` silences them.
            let log = Logger::stderr(obs_args.log_level.unwrap_or(Level::Info));
            if let Some(jsonl) = &obs_args.trace_jsonl {
                let sink = StreamingTracer::create(jsonl, obs_args.budget())
                    .expect("jsonl path must be writable");
                let mut obs = Observer::with_trace(sink);
                run_and_print(&req, &pool, &mut obs, &mut hb, &log, true);
                obs_args.finish_streaming(obs);
            } else {
                let observed = obs_args.enabled() || hb.is_some();
                let mut obs = Observer::new();
                run_and_print(&req, &pool, &mut obs, &mut hb, &log, observed);
                obs_args.finish(&obs);
            }
        }
        [cmd, a, b] if cmd == "noc" => {
            let Ok(req) = SimRequest::noc(a, b) else {
                usage()
            };
            run_and_print(
                &req,
                &pool,
                &mut Observer::new(),
                &mut None,
                &Logger::disabled(),
                false,
            );
        }
        [cmd, a, b] if cmd == "plan" && !auto => {
            let Ok(req) = SimRequest::plan(a, b) else {
                usage()
            };
            run_and_print(
                &req,
                &pool,
                &mut Observer::new(),
                &mut None,
                &Logger::disabled(),
                false,
            );
        }
        [cmd, a] if cmd == "plan" && auto => {
            let Ok(req) = SimRequest::plan_auto(a) else {
                usage()
            };
            run_and_print(
                &req,
                &pool,
                &mut Observer::new(),
                &mut None,
                &Logger::disabled(),
                false,
            );
        }
        _ => usage(),
    }
}
