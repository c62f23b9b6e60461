//! Analyzer properties on the `wmpt-check` harness, over random
//! epoch-structured traces (back-to-back layer windows with arbitrary
//! worker/NoC/collective spans inside each, including window-overflowing
//! tails, zero-length spans, spans before the first window, and traces
//! with no layer windows at all):
//!
//! * the single-pass JSONL analyzer produces exactly the batch
//!   [`Analysis`] — same flat metrics, same rendered report;
//! * both agree with a per-cycle brute-force oracle, also on the same
//!   spans in shuffled order, which batch must accept and streaming may
//!   only reject.
//!
//! Failures shrink toward the fewest epochs/spans and the smallest
//! cycle values, and replay via `WMPT_CHECK_REPLAY`.

use std::collections::BTreeMap;
use std::io::ErrorKind;
use std::path::{Path, PathBuf};

use wmpt_analyze::{analyze_jsonl, Analysis, Category};
use wmpt_check::{check, Case};
use wmpt_obs::{SpanSink, StreamingTracer, Tracer};

/// A random trace shaped like the simulator's output: each layer's
/// `layer forward`/`layer backward` pair lands first, then that layer's
/// subsystem spans, so the JSONL stream is epoch-ordered by
/// construction. With small probability the layer windows are omitted
/// entirely, exercising the whole-extent fallback domain. Sometimes the
/// first window opens late, after a span that starts before it. Phase
/// lengths are drawn from `1..=phase_max` cycles.
fn random_epoch_tracer(c: &mut Case, phase_max: u64) -> Tracer {
    let mut t = Tracer::new();
    let iter = t.track("iter");
    let w0 = t.track("worker0");
    let noc = t.track("noc");
    let coll = t.track("collective");
    let tracks = [w0, noc, coll];
    // No `layer` here: random layer spans would not be epoch-shaped.
    let cats = ["ndp", "noc", "collective", "dram", "idle"];
    let names = ["gemm", "scatter", "reduce", "stall", "noc_idle"];
    let with_layers = c.ratio() > 0.1;
    let mut base = 0u64;
    if c.ratio() > 0.7 {
        // A span before the first window (outside the domain when there
        // are windows), possibly reaching into it.
        base = c.u64_in(1, phase_max);
        let start = c.u64_in(0, base - 1);
        let end = start + c.u64_in(1, base + phase_max);
        let track = *c.pick(&tracks);
        let cat = *c.pick(&cats);
        t.span(track, cat, "pre", start, end);
    }
    for _ in 0..c.size(1, 5) {
        let fwd = c.u64_in(1, phase_max);
        let total = fwd + c.u64_in(1, phase_max);
        if with_layers {
            t.span(iter, "layer", "forward", base, base + fwd);
            t.span(iter, "layer", "backward", base + fwd, base + total);
        }
        for _ in 0..c.size(0, 8) {
            let track = *c.pick(&tracks);
            let cat = *c.pick(&cats);
            let name = *c.pick(&names);
            let start = base + c.u64_in(0, total - 1);
            let dur = c.u64_in(0, total); // tails may overflow the window
            t.span(track, cat, name, start, start + dur);
        }
        base += total;
    }
    t
}

#[test]
fn streaming_jsonl_analysis_matches_batch() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("wmpt_prop_stream_analyze_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    check("streaming_jsonl_analysis_matches_batch", |c| {
        let t = random_epoch_tracer(c, 5_000);
        let jsonl = dir.join("t.jsonl");
        let mut s = StreamingTracer::create(&jsonl, 256).expect("create jsonl");
        SpanSink::append_offset(&mut s, &t, 0);
        s.finalize().expect("finalize");

        let streamed = analyze_jsonl(&jsonl).expect("epoch-ordered stream analyzes");
        let batch = Analysis::of_trace(&t);
        assert_eq!(streamed.metrics(), batch.metrics(), "flat metrics diverge");
        assert_eq!(
            streamed.render(),
            batch.render(),
            "rendered reports diverge"
        );
    });
}

/// The same tracks and spans with the spans in a random order: no
/// longer epoch-ordered in general.
fn shuffled(c: &mut Case, t: &Tracer) -> Tracer {
    let mut spans = t.spans().to_vec();
    for i in (1..spans.len()).rev() {
        spans.swap(i, c.u64_in(0, i as u64) as usize);
    }
    let mut out = Tracer::new();
    let ids: Vec<_> = t.tracks().iter().map(|name| out.track(name)).collect();
    for sp in spans {
        out.span(ids[sp.track.index()], &sp.cat, &sp.name, sp.start, sp.end);
    }
    out
}

/// What the oracle derives, in the analyzer's own terms.
#[derive(Debug, PartialEq)]
struct Expected {
    attribution: BTreeMap<Category, u64>,
    total: u64,
    segment_count: usize,
    /// `util.*` metrics: `util.grid` and `util.<track>` per work track.
    util: BTreeMap<String, f64>,
}

/// Brute force, one cycle at a time. The domain is every cycle some
/// `layer` window covers (every cycle some span covers, when there is no
/// window). A domain cycle belongs to the last-recorded covering work
/// span of the highest category, or to `(untraced)` dram stall; a
/// segment is a run of consecutive domain cycles with the same category
/// and span name. A track with any work span is busy in each domain
/// cycle one of its work spans covers.
fn oracle(t: &Tracer) -> Expected {
    let spans = t.spans();
    let has_layer = spans.iter().any(|s| s.cat == "layer");
    let is_work = |cat: &str| cat != "layer" && cat != "idle";
    let extent = spans.iter().map(|s| s.end).max().unwrap_or(0);
    let mut attribution: BTreeMap<Category, u64> = Category::ALL.iter().map(|&c| (c, 0)).collect();
    let (mut total, mut segment_count) = (0, 0);
    let mut busy = vec![0u64; t.tracks().len()];
    let mut last: Option<(u64, Category, &str)> = None;
    for cyc in 0..extent {
        let covering = spans.iter().filter(|s| s.start <= cyc && cyc < s.end);
        if !covering.clone().any(|s| !has_layer || s.cat == "layer") {
            continue;
        }
        total += 1;
        let (cat, name) = covering
            .clone()
            .filter_map(|s| Some((Category::from_span_cat(&s.cat)?, s.name.as_str())))
            .max_by_key(|&(cat, _)| cat)
            .unwrap_or((Category::DramStall, "(untraced)"));
        *attribution.get_mut(&cat).expect("seeded") += 1;
        if last != Some((cyc.wrapping_sub(1), cat, name)) {
            segment_count += 1;
        }
        last = Some((cyc, cat, name));
        let mut hit = vec![false; busy.len()];
        for s in covering.filter(|s| is_work(&s.cat)) {
            hit[s.track.index()] = true;
        }
        for (b, h) in busy.iter_mut().zip(hit) {
            *b += u64::from(h);
        }
    }
    let mut util = BTreeMap::new();
    let mut utils = Vec::new();
    for (tid, name) in t.tracks().iter().enumerate() {
        if spans
            .iter()
            .any(|s| s.track.index() == tid && is_work(&s.cat))
        {
            let u = if total > 0 {
                busy[tid] as f64 / total as f64
            } else {
                0.0
            };
            util.insert(format!("util.{name}"), u);
            utils.push(u);
        }
    }
    let grid = if utils.is_empty() {
        0.0
    } else {
        utils.iter().sum::<f64>() / utils.len() as f64
    };
    util.insert("util.grid".to_string(), grid);
    Expected {
        attribution,
        total,
        segment_count,
        util,
    }
}

fn observed(a: &Analysis) -> Expected {
    Expected {
        attribution: a.critical_path.attribution.clone(),
        total: a.critical_path.total,
        segment_count: a.critical_path.segment_count,
        util: a
            .metrics()
            .into_iter()
            .filter(|(k, _)| k.starts_with("util."))
            .collect(),
    }
}

/// Writes `t` as JSONL and analyzes it in one pass; `None` when the
/// stream is rejected as not epoch-ordered.
fn streamed(t: &Tracer, jsonl: &Path) -> Option<Analysis> {
    let mut s = StreamingTracer::create(jsonl, 256).expect("create jsonl");
    SpanSink::append_offset(&mut s, t, 0);
    s.finalize().expect("finalize");
    match analyze_jsonl(jsonl) {
        Ok(a) => Some(a),
        Err(e) if e.kind() == ErrorKind::InvalidData => None,
        Err(e) => panic!("reading {}: {e}", jsonl.display()),
    }
}

#[test]
fn analysis_matches_per_cycle_oracle() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("wmpt_prop_oracle_analyze_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let jsonl = dir.join("oracle.jsonl");
    check("analysis_matches_per_cycle_oracle", |c| {
        let ordered = random_epoch_tracer(c, 300);
        let want = oracle(&ordered);
        assert_eq!(observed(&Analysis::of_trace(&ordered)), want, "batch");
        let a = streamed(&ordered, &jsonl).expect("epoch-ordered stream analyzes");
        assert_eq!(observed(&a), want, "streaming");

        let mixed = shuffled(c, &ordered);
        let want = oracle(&mixed);
        assert_eq!(
            observed(&Analysis::of_trace(&mixed)),
            want,
            "batch, shuffled"
        );
        if let Some(a) = streamed(&mixed, &jsonl) {
            assert_eq!(observed(&a), want, "streaming, shuffled");
        }
    });
    std::fs::remove_dir_all(&dir).ok();
}
