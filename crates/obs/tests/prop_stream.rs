//! Streaming-sink equivalence properties on the `wmpt-check` harness:
//! for random span layouts — including still-open spans, sub-traces
//! appended while spans are open, and the `--jobs` sweep concatenation
//! path — a [`StreamingTracer`] finalized into a chrome-trace document
//! is byte-identical to the in-memory [`Tracer`] export, re-parses into
//! the same tracer, agrees with it on the running queries, and never
//! buffers more than its byte budget.
//!
//! Failures shrink toward the fewest operations and the smallest cycle
//! values, and replay via `WMPT_CHECK_REPLAY`.

use std::path::PathBuf;

use wmpt_check::{check, Case};
use wmpt_obs::{json, SpanSink, StreamingTracer, Tracer, TrackId};

const TRACKS: [&str; 4] = ["worker0", "worker1", "noc", "iter"];
const CATS: [&str; 5] = ["ndp", "noc", "collective", "layer", "dram"];
const NAMES: [&str; 4] = ["fwd.gemm", "scatter", "reduce", "stall"];
const BUDGETS: [usize; 5] = [0, 1, 48, 256, 4096];

/// One recorded operation, replayable into any [`SpanSink`].
enum Op {
    Span(usize, &'static str, &'static str, u64, u64),
    Begin(usize, &'static str, &'static str, u64),
    End(usize, u64),
    Append(Tracer, u64),
}

/// A random operation script over `n_tracks` tracks: closed spans,
/// begin/end pairs whose tail may stay open (exercising auto-close), and
/// closed sub-traces appended at an offset while spans are still open.
fn random_script(c: &mut Case) -> (usize, Vec<Op>) {
    let n_tracks = c.size(1, TRACKS.len());
    let idx: Vec<usize> = (0..n_tracks).collect();
    let mut open: Vec<Vec<u64>> = vec![Vec::new(); n_tracks];
    let mut ops = Vec::new();
    for _ in 0..c.size(0, 24) {
        let t = *c.pick(&idx);
        let cat = *c.pick(&CATS);
        let name = *c.pick(&NAMES);
        let start = c.u64_in(0, 1_000_000_000);
        let dur = c.u64_in(0, 2_000_000);
        if !open[t].is_empty() && c.bool() {
            // Close the innermost open span at or after its start.
            let s = open[t].pop().expect("non-empty");
            ops.push(Op::End(t, s + dur));
        } else if c.ratio() < 0.15 {
            ops.push(Op::Append(random_subtrace(c), start));
        } else if c.bool() {
            ops.push(Op::Span(t, cat, name, start, start + dur));
        } else {
            open[t].push(start);
            ops.push(Op::Begin(t, cat, name, start));
        }
    }
    (n_tracks, ops)
}

/// Replays a script into a sink, registering the tracks first (exactly
/// what instrumented simulation code does).
fn apply<S: SpanSink>(n_tracks: usize, ops: &[Op], sink: &mut S) {
    let ids: Vec<TrackId> = TRACKS[..n_tracks].iter().map(|n| sink.track(n)).collect();
    for op in ops {
        match op {
            &Op::Span(t, cat, name, start, end) => sink.span(ids[t], cat, name, start, end),
            &Op::Begin(t, cat, name, start) => sink.begin(ids[t], cat, name, start),
            &Op::End(t, end) => sink.end(ids[t], end),
            Op::Append(sub, offset) => sink.append_offset(sub, *offset),
        }
    }
}

/// What a script leaves behind, worked out from the script alone: the
/// number of spans still open and the latest timestamp (every `end`
/// lies at or after its `begin`, so that is the maximum over all times
/// the script names).
fn script_tail(ops: &[Op]) -> (usize, u64) {
    let (mut open, mut last) = (0usize, 0u64);
    for op in ops {
        match op {
            &Op::Span(.., end) => last = last.max(end),
            &Op::Begin(.., start) => {
                open += 1;
                last = last.max(start);
            }
            &Op::End(_, end) => {
                open -= 1;
                last = last.max(end);
            }
            Op::Append(sub, offset) => {
                let end = sub.spans().iter().map(|sp| sp.end + offset).max();
                last = last.max(end.unwrap_or(0));
            }
        }
    }
    (open, last)
}

/// Per-test scratch directory (cases reuse the files; create truncates).
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wmpt_prop_stream_{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// The in-memory tracer as the chrome export round-trips it (auto-close
/// applied) — the reference a streamed trace must reproduce exactly.
fn exported(mem: &Tracer) -> Tracer {
    let doc = json::parse(&mem.chrome_trace().render()).expect("valid JSON");
    Tracer::from_chrome_trace(&doc).expect("in-memory export re-parses")
}

#[test]
fn streamed_chrome_export_is_byte_identical_for_random_layouts() {
    let dir = scratch("layouts");
    check(
        "streamed_chrome_export_is_byte_identical_for_random_layouts",
        |c| {
            let (n_tracks, ops) = random_script(c);
            let budget = *c.pick(&BUDGETS);
            let jsonl = dir.join("t.jsonl");
            let chrome_s = dir.join("t_stream.json");
            let chrome_m = dir.join("t_mem.json");

            let mut mem = Tracer::new();
            apply(n_tracks, &ops, &mut mem);
            let mut s = StreamingTracer::create(&jsonl, budget).expect("create jsonl");
            apply(n_tracks, &ops, &mut s);

            // Both sinks agree with each other, and with the script, on
            // every running query.
            let (open, last) = script_tail(&ops);
            assert_eq!(SpanSink::open_spans(&s), open, "stream open spans");
            assert_eq!(mem.open_spans(), open, "in-memory open spans");
            assert_eq!(s.last_timestamp(), last, "stream last timestamp");
            assert_eq!(mem.last_timestamp(), last, "in-memory last timestamp");
            for cat in CATS {
                let closed: u64 = mem
                    .spans()
                    .iter()
                    .filter(|sp| sp.cat == cat)
                    .map(|sp| sp.cycles())
                    .sum();
                assert_eq!(mem.category_cycles(cat), closed, "in-memory '{cat}' cycles");
                assert_eq!(
                    SpanSink::category_cycles(&s, cat),
                    closed,
                    "stream '{cat}' cycles"
                );
            }
            let open = open as u64;
            let stats = s.finalize_chrome(&chrome_s).expect("finalize");
            mem.write_chrome_trace(&chrome_m).expect("in-memory export");

            let a = std::fs::read(&chrome_s).expect("stream bytes");
            let b = std::fs::read(&chrome_m).expect("mem bytes");
            assert_eq!(a, b, "chrome exports diverge");
            assert!(
                stats.peak_buffer_bytes <= budget,
                "peak {} exceeds budget {budget}",
                stats.peak_buffer_bytes
            );
            assert_eq!(stats.truncated_spans, open, "auto-close accounting");

            // The streamed document re-parses into the same tracer the
            // in-memory export round-trips to.
            let doc = json::parse(&String::from_utf8(a).expect("utf8")).expect("valid JSON");
            let back = Tracer::from_chrome_trace(&doc).expect("streamed export re-parses");
            let expect = exported(&mem);
            assert_eq!(back.tracks(), expect.tracks(), "tracks diverge");
            assert_eq!(back.spans(), expect.spans(), "spans diverge");
        },
    );
}

/// A random sub-trace of only closed spans, as one sweep config's
/// scratch observer would produce.
fn random_subtrace(c: &mut Case) -> Tracer {
    let mut t = Tracer::new();
    let n_tracks = c.size(1, TRACKS.len());
    let ids: Vec<_> = TRACKS[..n_tracks].iter().map(|n| t.track(n)).collect();
    for _ in 0..c.size(0, 10) {
        let track = *c.pick(&ids);
        let cat = *c.pick(&CATS);
        let name = *c.pick(&NAMES);
        let start = c.u64_in(0, 1_000_000);
        let dur = c.u64_in(0, 100_000);
        t.span(track, cat, name, start, start + dur);
    }
    t
}

#[test]
fn jobs_concatenation_streams_identically_to_in_memory_merge() {
    let dir = scratch("concat");
    check(
        "jobs_concatenation_streams_identically_to_in_memory_merge",
        |c| {
            // Per-config scratch tracers merge into the main sink in config
            // order, each offset past the `layer` cycles already recorded —
            // how perfbench's replay concatenates a sweep's traces.
            let subs: Vec<Tracer> = (0..c.size(1, 4)).map(|_| random_subtrace(c)).collect();
            let budget = *c.pick(&BUDGETS);
            let jsonl = dir.join("t.jsonl");
            let chrome_s = dir.join("t_stream.json");
            let chrome_m = dir.join("t_mem.json");

            let mut mem = Tracer::new();
            let mut s = StreamingTracer::create(&jsonl, budget).expect("create jsonl");
            for sub in &subs {
                let off = mem.category_cycles("layer");
                assert_eq!(off, SpanSink::category_cycles(&s, "layer"), "offsets agree");
                mem.append_offset(sub, off);
                SpanSink::append_offset(&mut s, sub, off);
            }
            let stats = s.finalize_chrome(&chrome_s).expect("finalize");
            mem.write_chrome_trace(&chrome_m).expect("in-memory export");

            let a = std::fs::read(&chrome_s).expect("stream bytes");
            let b = std::fs::read(&chrome_m).expect("mem bytes");
            assert_eq!(a, b, "chrome exports diverge");
            assert!(stats.peak_buffer_bytes <= budget);

            // Closed-span merges reproduce the in-memory tracer itself.
            let doc = json::parse(&String::from_utf8(a).expect("utf8")).expect("valid JSON");
            let back = Tracer::from_chrome_trace(&doc).expect("streamed export re-parses");
            assert_eq!(back.tracks(), mem.tracks(), "tracks diverge");
            assert_eq!(back.spans(), mem.spans(), "spans diverge");
        },
    );
}
