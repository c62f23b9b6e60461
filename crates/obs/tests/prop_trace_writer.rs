//! Chrome-event writer properties on the `wmpt-check` harness: every
//! producer of trace bytes — [`Tracer::chrome_trace`], the
//! [`StreamingTracer`] JSONL lines, [`StreamingTracer::finalize_chrome`]
//! and [`jsonl_to_chrome`] — writes exactly the bytes a frozen oracle
//! renders for the same span history.
//!
//! The oracle builds each event as a [`json::Value`] tree and renders
//! it with a frozen copy of the crate's old JSON writer, the way the
//! export worked before events were written straight into their output
//! buffer. Names and categories carry JSON
//! escapes (`"`, `\`, every control character below 0x20), non-ASCII
//! text and markup characters; cycle counts reach past 9e15, where
//! `write_num` switches from its integer to its float branch. Scripts
//! include zero-length spans and spans left open for auto-close.
//!
//! Failures shrink toward the fewest operations, the shortest names and
//! the smallest cycle values, and replay via `WMPT_CHECK_REPLAY`.

use std::fmt::Write as _;
use std::path::PathBuf;

use wmpt_check::{check, Case};
use wmpt_obs::json::{self, Value};
use wmpt_obs::trace::Span;
use wmpt_obs::{jsonl_to_chrome, SpanSink, StreamingTracer, Tracer, TrackId};

/// Oracle: the `ph:"M"` `thread_name` event naming a track.
fn track_meta_event(tid: usize, name: &str) -> Value {
    json::obj(vec![
        ("ph", json::s("M")),
        ("name", json::s("thread_name")),
        ("pid", json::num(0.0)),
        ("tid", json::num(tid as f64)),
        ("args", json::obj(vec![("name", json::s(name))])),
    ])
}

/// Oracle: the `ph:"X"` complete event of one span.
fn span_complete_event(sp: &Span) -> Value {
    json::obj(vec![
        ("ph", json::s("X")),
        ("name", json::s(&sp.name)),
        ("cat", json::s(&sp.cat)),
        ("pid", json::num(0.0)),
        ("tid", json::num(sp.track.index() as f64)),
        ("ts", json::num(sp.start as f64 / 1000.0)),
        ("dur", json::num(sp.cycles() as f64 / 1000.0)),
        (
            "args",
            json::obj(vec![
                ("start_cycle", json::num(sp.start as f64)),
                ("cycles", json::num(sp.cycles() as f64)),
            ]),
        ),
    ])
}

/// Oracle: the compact JSON text of a value, as the crate rendered it
/// before events were written directly (a frozen copy, so a change to
/// the crate's number or string writer cannot move the oracle too).
fn render(v: &Value) -> String {
    let mut out = String::new();
    write_value(v, &mut out);
    out
}

fn write_value(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(n) => write_num(*n, out),
        Value::Str(s) => write_str(s, out),
        Value::Arr(a) => {
            out.push('[');
            for (i, v) in a.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(v, out);
            }
            out.push(']');
        }
        Value::Obj(m) => {
            out.push('{');
            for (i, (k, v)) in m.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_str(k, out);
                out.push(':');
                write_value(v, out);
            }
            out.push('}');
        }
    }
}

fn write_num(n: f64, out: &mut String) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n == n.trunc() && n.abs() < 9.0e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_str(v: &str, out: &mut String) {
    out.push('"');
    for c in v.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Characters names are drawn from: JSON escapes, every control
/// character, non-ASCII text and XML markup.
fn alphabet() -> Vec<char> {
    let mut chars: Vec<char> = (0u8..0x20).map(char::from).collect();
    chars.extend([
        '"', '\\', '/', '<', '>', '&', '\u{7f}', 'é', 'ß', '中', '🦀',
    ]);
    chars.extend("abcxyz019._# ".chars());
    chars
}

fn random_name(c: &mut Case, alphabet: &[char]) -> String {
    (0..c.size(0, 6)).map(|_| *c.pick(alphabet)).collect()
}

/// A cycle count: small, in the span range of real traces, or past the
/// 9e15 bound of the integer branch (kept under 2^62 so that `start +
/// duration` and its re-parsed form stay inside `u64`).
fn random_cycles(c: &mut Case) -> u64 {
    match c.size(0, 2) {
        0 => c.u64_in(0, 2_000),
        1 => c.u64_in(0, 2_000_000_000),
        _ => c.u64_in(8_999_999_999_999_000, 1 << 62),
    }
}

/// One recorded operation. Tracks are named by their `tid`, their
/// position among the distinct names registered so far.
enum Op {
    Track(String),
    Span(usize, String, String, u64, u64),
    Begin(usize, String, String, u64),
    End(usize, u64),
}

/// A random script: track registrations (repeated names included),
/// closed spans (zero-length ones included), and begin/end pairs whose
/// tail may stay open.
fn random_script(c: &mut Case) -> Vec<Op> {
    let alphabet = alphabet();
    let mut names: Vec<String> = Vec::new();
    let mut open: Vec<Vec<u64>> = Vec::new();
    let mut ops = Vec::new();
    for _ in 0..c.size(0, 20) {
        let op = c.size(0, 9);
        if names.is_empty() || op == 0 {
            let name = if !names.is_empty() && c.bool() {
                c.pick(&names).clone()
            } else {
                random_name(c, &alphabet)
            };
            if !names.contains(&name) {
                names.push(name.clone());
                open.push(Vec::new());
            }
            ops.push(Op::Track(name));
            continue;
        }
        let tid = c.size(0, names.len() - 1);
        let cat = random_name(c, &alphabet);
        let name = random_name(c, &alphabet);
        let start = random_cycles(c);
        let dur = if c.size(0, 3) == 0 {
            0
        } else {
            random_cycles(c)
        };
        if op <= 2 && !open[tid].is_empty() {
            let start = open[tid].pop().expect("open span");
            ops.push(Op::End(tid, start + dur));
        } else if op <= 5 {
            open[tid].push(start);
            ops.push(Op::Begin(tid, cat, name, start));
        } else {
            ops.push(Op::Span(tid, cat, name, start, start + dur));
        }
    }
    ops
}

/// Replays a script into a sink.
fn apply<S: SpanSink>(ops: &[Op], sink: &mut S) {
    let mut ids: Vec<TrackId> = Vec::new();
    for op in ops {
        match op {
            Op::Track(name) => {
                let id = sink.track(name);
                if id.index() == ids.len() {
                    ids.push(id);
                }
            }
            Op::Span(t, cat, name, start, end) => sink.span(ids[*t], cat, name, *start, *end),
            Op::Begin(t, cat, name, start) => sink.begin(ids[*t], cat, name, *start),
            Op::End(t, end) => sink.end(ids[*t], *end),
        }
    }
}

/// The oracle's model of a sink that took a script: the bytes each
/// producer must write.
struct Model {
    tracks: Vec<String>,
    /// Each track's handle, in `tid` order.
    ids: Vec<TrackId>,
    /// Per track, the open spans' `(cat, name, start)`, innermost last.
    open: Vec<Vec<(String, String, u64)>>,
    spans: Vec<Span>,
    last: u64,
    /// Every JSONL line a streaming sink writes while recording.
    jsonl: String,
}

impl Model {
    fn of(ops: &[Op]) -> Model {
        let mut m = Model {
            tracks: Vec::new(),
            ids: Vec::new(),
            open: Vec::new(),
            spans: Vec::new(),
            last: 0,
            jsonl: String::new(),
        };
        let mut handles = Tracer::new();
        for op in ops {
            match op {
                Op::Track(name) => {
                    if !m.tracks.contains(name) {
                        m.line(&track_meta_event(m.tracks.len(), name));
                        m.tracks.push(name.clone());
                        m.open.push(Vec::new());
                        // `TrackId` has no public constructor; a tracer
                        // registering the same distinct names hands out
                        // the same handles.
                        m.ids.push(handles.track(name));
                    }
                }
                Op::Span(t, cat, name, start, end) => m.close(m.ids[*t], cat, name, *start, *end),
                Op::Begin(t, cat, name, start) => {
                    m.last = m.last.max(*start);
                    m.open[*t].push((cat.clone(), name.clone(), *start));
                }
                Op::End(t, end) => {
                    let (cat, name, start) = m.open[*t].pop().expect("open span");
                    m.close(m.ids[*t], &cat, &name, start, *end);
                }
            }
        }
        m
    }

    fn close(&mut self, track: TrackId, cat: &str, name: &str, start: u64, end: u64) {
        let sp = Span {
            track,
            cat: cat.to_string(),
            name: name.to_string(),
            start,
            end,
        };
        self.last = self.last.max(end);
        self.line(&span_complete_event(&sp));
        self.spans.push(sp);
    }

    fn line(&mut self, event: &Value) {
        self.jsonl.push_str(&render(event));
        self.jsonl.push('\n');
    }

    /// Open spans closed at the last timestamp: tracks in `tid` order,
    /// innermost span first.
    fn auto_closed(&self) -> Vec<Span> {
        let mut out = Vec::new();
        for (tid, stack) in self.open.iter().enumerate() {
            let track = self.ids[tid];
            for (cat, name, start) in stack.iter().rev() {
                out.push(Span {
                    track,
                    cat: cat.clone(),
                    name: name.clone(),
                    start: *start,
                    end: self.last,
                });
            }
        }
        out
    }

    /// The JSONL a finished streaming sink holds: every line written
    /// while recording plus the auto-closed tail.
    fn finished_jsonl(&self) -> String {
        let mut out = self.jsonl.clone();
        for sp in self.auto_closed() {
            out.push_str(&render(&span_complete_event(&sp)));
            out.push('\n');
        }
        out
    }

    /// The chrome-trace document: tracks in `tid` order, then closed
    /// spans in recording order, then the auto-closed ones.
    fn chrome(&self) -> String {
        let mut events: Vec<Value> = self
            .tracks
            .iter()
            .enumerate()
            .map(|(tid, name)| track_meta_event(tid, name))
            .collect();
        events.extend(self.spans.iter().map(span_complete_event));
        events.extend(self.auto_closed().iter().map(span_complete_event));
        render(&json::obj(vec![
            ("traceEvents", Value::Arr(events)),
            ("displayTimeUnit", json::s("ns")),
        ]))
    }
}

/// Per-test scratch directory (cases reuse the files; create truncates).
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "wmpt_prop_trace_writer_{name}_{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn in_memory_export_and_streamed_lines_match_the_oracle() {
    check(
        "in_memory_export_and_streamed_lines_match_the_oracle",
        |c| {
            let ops = random_script(c);
            let budget = *c.pick(&[0usize, 1, 64, 512, 1 << 16]);
            let model = Model::of(&ops);

            let mut mem = Tracer::new();
            apply(&ops, &mut mem);
            assert_eq!(mem.chrome_trace().render(), model.chrome(), "chrome_trace");

            let mut stream = StreamingTracer::with_writer(Vec::new(), budget);
            apply(&ops, &mut stream);
            let (bytes, stats) = stream.finish().expect("in-memory writer");
            let lines = String::from_utf8(bytes).expect("utf8");
            assert_eq!(lines, model.finished_jsonl(), "streamed JSONL lines");
            assert!(stats.peak_buffer_bytes <= budget, "budget");
        },
    );
}

#[test]
fn chrome_files_of_every_writer_match_the_oracle() {
    let dir = scratch("files");
    check("chrome_files_of_every_writer_match_the_oracle", |c| {
        let ops = random_script(c);
        let budget = *c.pick(&[0usize, 64, 1 << 16]);
        let model = Model::of(&ops);
        let oracle = model.chrome();
        let jsonl = dir.join("t.jsonl");
        let in_memory = dir.join("in_memory.json");
        let finalized = dir.join("finalized.json");
        let converted = dir.join("converted.json");

        let mut mem = Tracer::new();
        apply(&ops, &mut mem);
        mem.write_chrome_trace(&in_memory)
            .expect("write_chrome_trace");
        let mut stream = StreamingTracer::create(&jsonl, budget).expect("create jsonl");
        apply(&ops, &mut stream);
        stream.finalize_chrome(&finalized).expect("finalize_chrome");
        jsonl_to_chrome(&jsonl, &converted).expect("jsonl_to_chrome");

        let read = |p: &PathBuf| std::fs::read_to_string(p).expect("read");
        assert_eq!(read(&jsonl), model.finished_jsonl(), "JSONL file");
        assert_eq!(read(&in_memory), oracle, "write_chrome_trace");
        assert_eq!(read(&finalized), oracle, "finalize_chrome");
        assert_eq!(read(&converted), oracle, "jsonl_to_chrome");
    });
    std::fs::remove_dir_all(&dir).ok();
}
