//! Span-based event tracing on the simulator's virtual clock, with Chrome
//! `trace_event` export.
//!
//! A [`Tracer`] records `(track, category, name, start, end)` spans where
//! times are virtual [`Time`] cycles (1 cycle = 1 ns at the 1 GHz clock,
//! so the exported `ts`/`dur` microsecond fields are cycles / 1000 and the
//! file opens directly in `chrome://tracing` / Perfetto with correct
//! relative scale). Tracks map to Chrome threads; each worker, the NoC,
//! and the iteration rollup get their own track.

use crate::json::{self, Value};
use std::collections::BTreeMap;
use wmpt_sim::Time;

/// Handle to a named track (a Chrome `tid`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TrackId(usize);

impl TrackId {
    /// The track's position in registration order (its Chrome `tid`).
    pub fn index(self) -> usize {
        self.0
    }

    pub(crate) fn new(index: usize) -> Self {
        TrackId(index)
    }
}

/// One completed span on a track.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Which track the span lives on.
    pub track: TrackId,
    /// Category (Chrome `cat`), e.g. `"ndp"`, `"noc"`, `"collective"`,
    /// `"layer"`.
    pub cat: String,
    /// Human-readable name (Chrome `name`), e.g. `"fwd.gemm"`.
    pub name: String,
    /// Start cycle (inclusive).
    pub start: Time,
    /// End cycle (exclusive); `end >= start`.
    pub end: Time,
}

impl Span {
    /// Span duration in cycles.
    pub fn cycles(&self) -> Time {
        self.end - self.start
    }
}

/// A span opened by `begin` and not yet closed.
#[derive(Debug, Clone)]
struct OpenSpan {
    cat: String,
    name: String,
    start: Time,
}

/// The span book both sinks keep: track names, per-track open-span
/// stacks, per-category cycle sums and the latest timestamp seen. Each
/// recording rule lives here once; a sink adds only what it does with a
/// new track and with each closed [`Span`].
#[derive(Debug, Clone, Default)]
pub(crate) struct SpanBook {
    tracks: Vec<String>,
    open: Vec<Vec<OpenSpan>>,
    cat_cycles: BTreeMap<String, Time>,
    /// Max over closed ends and begun starts. A begun span closes at or
    /// after its start, so this equals the max over closed ends and the
    /// starts of spans still open.
    last: Time,
}

impl SpanBook {
    /// Registers (or looks up) a track by name; `true` when it is new.
    pub(crate) fn track(&mut self, name: &str) -> (TrackId, bool) {
        if let Some(i) = self.tracks.iter().position(|t| t == name) {
            return (TrackId(i), false);
        }
        self.tracks.push(name.to_string());
        self.open.push(Vec::new());
        (TrackId(self.tracks.len() - 1), true)
    }

    /// Accounts one finished span and hands it back to the sink.
    ///
    /// # Panics
    ///
    /// Panics if `end < start` or the track is unknown.
    pub(crate) fn close(
        &mut self,
        track: TrackId,
        cat: String,
        name: String,
        start: Time,
        end: Time,
    ) -> Span {
        assert!(end >= start, "span '{name}' ends before it starts");
        assert!(track.0 < self.tracks.len(), "unknown track");
        match self.cat_cycles.get_mut(&cat) {
            Some(sum) => *sum += end - start,
            None => {
                self.cat_cycles.insert(cat.clone(), end - start);
            }
        }
        self.last = self.last.max(end);
        Span {
            track,
            cat,
            name,
            start,
            end,
        }
    }

    pub(crate) fn begin(&mut self, track: TrackId, cat: &str, name: &str, start: Time) {
        assert!(track.0 < self.tracks.len(), "unknown track");
        self.last = self.last.max(start);
        self.open[track.0].push(OpenSpan {
            cat: cat.to_string(),
            name: name.to_string(),
            start,
        });
    }

    /// Closes the innermost open span on `track` at `end`.
    pub(crate) fn end(&mut self, track: TrackId, end: Time) -> Span {
        let open = self.open[track.0]
            .pop()
            .expect("end() without matching begin()");
        self.close(track, open.cat, open.name, open.start, end)
    }

    pub(crate) fn open_spans(&self) -> usize {
        self.open.iter().map(Vec::len).sum()
    }

    pub(crate) fn category_cycles(&self, cat: &str) -> Time {
        self.cat_cycles.get(cat).copied().unwrap_or(0)
    }

    pub(crate) fn last_timestamp(&self) -> Time {
        self.last
    }

    pub(crate) fn tracks(&self) -> &[String] {
        &self.tracks
    }

    /// Every still-open span, closed by the crate's auto-close rule (see
    /// the crate docs, "Span sinks"). The book itself is untouched.
    pub(crate) fn auto_closed(&self) -> impl Iterator<Item = Span> + '_ {
        self.open.iter().enumerate().flat_map(move |(tid, stack)| {
            stack.iter().rev().map(move |o| Span {
                track: TrackId(tid),
                cat: o.cat.clone(),
                name: o.name.clone(),
                start: o.start,
                end: self.last,
            })
        })
    }
}

/// Appends the `ph:"M"` `thread_name` metadata event naming track
/// `tid`, as compact JSON.
///
/// With [`write_span_event`], the one writer of trace events: the
/// in-memory export, the streaming sink's lines and the JSONL-to-chrome
/// conversion all call it, so every path writes byte-identical events.
pub(crate) fn write_track_event(tid: usize, name: &str, out: &mut String) {
    out.push_str(r#"{"ph":"M","name":"thread_name","pid":0,"tid":"#);
    json::write_num(tid as f64, out);
    out.push_str(r#","args":{"name":"#);
    json::write_str(name, out);
    out.push_str("}}");
}

/// Appends the `ph:"X"` complete event of one span, as compact JSON.
/// `ts`/`dur` are microseconds (cycles / 1000); the exact cycle payload
/// rides in `args` so traces re-parse bit-exactly.
pub(crate) fn write_span_event(sp: &Span, out: &mut String) {
    out.push_str(r#"{"ph":"X","name":"#);
    json::write_str(&sp.name, out);
    out.push_str(r#","cat":"#);
    json::write_str(&sp.cat, out);
    out.push_str(r#","pid":0,"tid":"#);
    json::write_num(sp.track.0 as f64, out);
    out.push_str(r#","ts":"#);
    json::write_num(sp.start as f64 / 1000.0, out);
    out.push_str(r#","dur":"#);
    json::write_num(sp.cycles() as f64 / 1000.0, out);
    out.push_str(r#","args":{"start_cycle":"#);
    json::write_num(sp.start as f64, out);
    out.push_str(r#","cycles":"#);
    json::write_num(sp.cycles() as f64, out);
    out.push_str("}}");
}

/// The head and tail around a chrome-trace document's comma-separated
/// events.
pub(crate) const CHROME_HEAD: &str = r#"{"traceEvents":["#;
pub(crate) const CHROME_TAIL: &str = r#"],"displayTimeUnit":"ns"}"#;

/// A tracer's Chrome `trace_event` document, borrowed from the tracer
/// and written straight into its output buffer by
/// [`ChromeTrace::render`]. Returned by [`Tracer::chrome_trace`].
#[derive(Debug, Clone, Copy)]
pub struct ChromeTrace<'a> {
    tracer: &'a Tracer,
}

impl ChromeTrace<'_> {
    /// The document as compact JSON text (no trailing newline):
    /// `{"traceEvents":[...],"displayTimeUnit":"ns"}`.
    pub fn render(&self) -> String {
        let t = self.tracer;
        // Event framing is ~110 bytes a span and ~70 a track on top of
        // the names, which `span_bytes` counts.
        let mut out = String::with_capacity(
            CHROME_HEAD.len()
                + CHROME_TAIL.len()
                + t.span_bytes
                + 110 * t.spans.len()
                + 70 * t.tracks().len(),
        );
        out.push_str(CHROME_HEAD);
        for (tid, name) in t.tracks().iter().enumerate() {
            write_track_event(tid, name, &mut out);
            out.push(',');
        }
        for sp in &t.spans {
            write_span_event(sp, &mut out);
            out.push(',');
        }
        for sp in t.book.auto_closed() {
            write_span_event(&sp, &mut out);
            out.push(',');
        }
        if out.ends_with(',') {
            out.pop();
        }
        out.push_str(CHROME_TAIL);
        out
    }
}

/// One decoded chrome-trace event, the unit both the JSONL stream and
/// the in-memory document are made of.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A `thread_name` metadata event registering track `tid`.
    Track {
        /// Chrome `tid` (track registration index).
        tid: usize,
        /// Track name.
        name: String,
    },
    /// A complete (`ph:"X"`) span event.
    Span {
        /// Chrome `tid` the span lives on.
        tid: usize,
        /// Span category.
        cat: String,
        /// Span name.
        name: String,
        /// Start cycle (exact, from `args.start_cycle` or `ts`).
        start: Time,
        /// End cycle (exclusive).
        end: Time,
    },
}

/// Decodes one chrome-trace event object. Returns `Ok(None)` for event
/// kinds this crate does not emit (foreign `ph` values), so consumers
/// can skip them the way [`Tracer::from_chrome_trace`] does.
pub fn parse_trace_event(e: &Value) -> Result<Option<TraceEvent>, String> {
    match e.get("ph").and_then(Value::as_str) {
        Some("M") => {
            if e.get("name").and_then(Value::as_str) != Some("thread_name") {
                return Ok(None);
            }
            let tid = e
                .get("tid")
                .and_then(Value::as_u64)
                .ok_or("metadata event without numeric 'tid'")? as usize;
            let name = e
                .get("args")
                .and_then(|a| a.get("name"))
                .and_then(Value::as_str)
                .ok_or("thread_name event without args.name")?;
            Ok(Some(TraceEvent::Track {
                tid,
                name: name.to_string(),
            }))
        }
        Some("X") => {
            let tid = e
                .get("tid")
                .and_then(Value::as_u64)
                .ok_or("complete event without numeric 'tid'")? as usize;
            let name = e
                .get("name")
                .and_then(Value::as_str)
                .ok_or("complete event without 'name'")?;
            let cat = e.get("cat").and_then(Value::as_str).unwrap_or("");
            let exact = |key: &str, us_key: &str| -> Result<Time, String> {
                if let Some(v) = e
                    .get("args")
                    .and_then(|a| a.get(key))
                    .and_then(Value::as_u64)
                {
                    return Ok(v);
                }
                e.get(us_key)
                    .and_then(Value::as_f64)
                    .map(|us| (us * 1000.0).round() as Time)
                    .ok_or(format!("complete event without '{us_key}'"))
            };
            let start = exact("start_cycle", "ts")?;
            let end = start
                .checked_add(exact("cycles", "dur")?)
                .ok_or_else(|| format!("span '{name}' ends past the last cycle"))?;
            Ok(Some(TraceEvent::Span {
                tid,
                cat: cat.to_string(),
                name: name.to_string(),
                start,
                end,
            }))
        }
        _ => Ok(None),
    }
}

/// The span-recording surface shared by the in-memory [`Tracer`] and the
/// bounded-memory [`crate::StreamingTracer`].
///
/// Instrumented code (`*_observed` entry points, sweep drivers) is
/// generic over this trait, so the same call sites can record into an
/// all-in-RAM trace or flush spans to disk as they close. The trait
/// deliberately exposes only what emitters need — recording plus the
/// cheap running queries (`category_cycles`, `open_spans`,
/// `buffer_bytes`) that sweep layout and progress reporting rely on.
pub trait SpanSink {
    /// Registers (or looks up) a track by name. See [`Tracer::track`].
    fn track(&mut self, name: &str) -> TrackId;
    /// Records a completed span. See [`Tracer::span`].
    fn span(&mut self, track: TrackId, cat: &str, name: &str, start: Time, end: Time);
    /// Opens a span; closed by the matching [`SpanSink::end`].
    fn begin(&mut self, track: TrackId, cat: &str, name: &str, start: Time);
    /// Closes the most recently opened span on `track`.
    fn end(&mut self, track: TrackId, end: Time);
    /// Number of open (unclosed) spans across all tracks.
    fn open_spans(&self) -> usize;
    /// Running total of cycles recorded under `cat` (closed spans only).
    fn category_cycles(&self, cat: &str) -> Time;
    /// Appends every track and span of an in-memory tracer, shifting
    /// span times by `offset` cycles. Tracks are matched (or registered)
    /// by name in `other`'s registration order, so appending per-run
    /// tracers in run order reproduces the trace a single serial sink
    /// would have recorded with runs laid back to back.
    ///
    /// Edge semantics, relied on by multi-grid trace concatenation:
    ///
    /// * An empty `other` (no tracks) is a complete no-op.
    /// * `other`'s tracks are registered even when they carry no spans —
    ///   a grid that stayed idle still contributes its track layout.
    /// * Track names shared between `self` and `other` merge onto one
    ///   track (spans interleave on it); names unique to `other` are
    ///   appended after `self`'s existing tracks in `other`'s
    ///   registration order.
    /// * `other`'s open (unclosed) spans are *not* carried over — only
    ///   completed spans move; close them (or let the export auto-close
    ///   them) on the source tracer first.
    fn append_offset(&mut self, other: &Tracer, offset: Time) {
        let map: Vec<TrackId> = other.tracks().iter().map(|n| self.track(n)).collect();
        for sp in other.spans() {
            self.span(
                map[sp.track.0],
                &sp.cat,
                &sp.name,
                sp.start + offset,
                sp.end + offset,
            );
        }
    }
    /// Bytes of span data currently resident in host memory. For the
    /// in-memory tracer this grows with every span; a streaming sink
    /// keeps it under its configured budget.
    fn buffer_bytes(&self) -> usize;
}

/// Records spans against named tracks and exports Chrome-trace JSON.
///
/// Spans can be recorded directly with [`Tracer::span`] or bracketed with
/// [`Tracer::begin`]/[`Tracer::end`], which nest per track (ends close the
/// most recent open span, stack-wise).
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    book: SpanBook,
    spans: Vec<Span>,
    span_bytes: usize,
}

/// Deterministic per-span memory estimate used by
/// [`SpanSink::buffer_bytes`] for the in-memory tracer: the variable
/// string payload plus a fixed 24-byte slot for track/start/end.
pub(crate) fn span_mem_bytes(cat: &str, name: &str) -> usize {
    cat.len() + name.len() + 24
}

impl Tracer {
    /// An empty tracer with no tracks.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a track (Chrome thread) and returns its handle.
    /// Re-registering an existing name returns the original handle.
    pub fn track(&mut self, name: &str) -> TrackId {
        self.book.track(name).0
    }

    /// Records a completed span.
    ///
    /// # Panics
    ///
    /// Panics if `end < start` or the track is unknown.
    pub fn span(&mut self, track: TrackId, cat: &str, name: &str, start: Time, end: Time) {
        let sp = self.book.close(track, cat.into(), name.into(), start, end);
        self.push(sp);
    }

    /// Opens a span at `start`; closed by the matching [`Tracer::end`].
    /// Opens nest per track.
    pub fn begin(&mut self, track: TrackId, cat: &str, name: &str, start: Time) {
        self.book.begin(track, cat, name, start);
    }

    /// Closes the most recently opened span on `track` at `end`.
    ///
    /// # Panics
    ///
    /// Panics if no span is open on the track or `end` precedes its start.
    pub fn end(&mut self, track: TrackId, end: Time) {
        let sp = self.book.end(track, end);
        self.push(sp);
    }

    fn push(&mut self, sp: Span) {
        self.span_bytes += span_mem_bytes(&sp.cat, &sp.name);
        self.spans.push(sp);
    }

    /// Number of open (unclosed) spans across all tracks.
    pub fn open_spans(&self) -> usize {
        self.book.open_spans()
    }

    /// All completed spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Name of a track.
    pub fn track_name(&self, track: TrackId) -> &str {
        &self.book.tracks()[track.0]
    }

    /// All registered track names, in registration (`tid`) order.
    pub fn tracks(&self) -> &[String] {
        self.book.tracks()
    }

    /// The latest timestamp the tracer has seen: the maximum over closed
    /// spans' ends and open spans' starts (0 for an empty tracer). This
    /// is where [`Tracer::chrome_trace`] auto-closes still-open spans.
    pub fn last_timestamp(&self) -> Time {
        self.book.last_timestamp()
    }

    /// The Chrome `trace_event` document:
    /// `{"traceEvents": [...], "displayTimeUnit": "ns"}` with one `ph:"M"`
    /// `thread_name` metadata event per track and one `ph:"X"` complete
    /// event per span. `ts`/`dur` are microseconds (cycles / 1000).
    /// Nothing is built until [`ChromeTrace::render`] writes the text.
    ///
    /// Spans still open (unbalanced [`Tracer::begin`]) are
    /// [auto-closed](crate#span-sinks) in the export — the document is
    /// always internally consistent instead of silently dropping them.
    /// Callers that care should check [`Tracer::open_spans`] first and
    /// account the count as `obs.truncated_spans`.
    pub fn chrome_trace(&self) -> ChromeTrace<'_> {
        ChromeTrace { tracer: self }
    }

    /// Writes [`Tracer::chrome_trace`] to `path`.
    pub fn write_chrome_trace(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.chrome_trace().render())
    }

    /// Rebuilds a tracer from a [`Tracer::chrome_trace`] document.
    ///
    /// Track names come from the `ph:"M"` `thread_name` metadata events
    /// (registered in ascending `tid` order, which is the original
    /// registration order); spans come from the `ph:"X"` complete events
    /// in document order. Cycle times are read from the exact
    /// `args.start_cycle` / `args.cycles` payloads when present, falling
    /// back to the microsecond `ts` / `dur` fields (× 1000) — so a trace
    /// produced by this crate round-trips bit-exactly.
    pub fn from_chrome_trace(doc: &Value) -> Result<Tracer, String> {
        let mut events = doc
            .get("traceEvents")
            .and_then(Value::as_arr)
            .ok_or("missing 'traceEvents' array")?
            .iter()
            .filter_map(|e| parse_trace_event(e).transpose())
            .collect::<Result<Vec<_>, _>>()?;
        // Tracks first, in tid order; the sort is stable, so spans keep
        // document order.
        events.sort_by_key(|ev| match ev {
            TraceEvent::Track { tid, .. } => (0, *tid),
            TraceEvent::Span { .. } => (1, 0),
        });
        replay(events.into_iter().map(Ok))
    }

    /// Appends every track and span of `other`, shifting span times by
    /// `offset` cycles. See [`SpanSink::append_offset`].
    pub fn append_offset(&mut self, other: &Tracer, offset: Time) {
        SpanSink::append_offset(self, other, offset)
    }

    /// Total cycles per `(category, name)`, with span counts, sorted by
    /// category then name.
    pub fn rollup(&self) -> BTreeMap<(String, String), (u64, Time)> {
        let mut out: BTreeMap<(String, String), (u64, Time)> = BTreeMap::new();
        for sp in &self.spans {
            let slot = out
                .entry((sp.cat.clone(), sp.name.clone()))
                .or_insert((0, 0));
            slot.0 += 1;
            slot.1 += sp.cycles();
        }
        out
    }

    /// Sum of cycles over spans of one category. Maintained as a running
    /// total, so the per-layer `category_cycles("layer")` base queries of
    /// network sweeps cost O(log categories) instead of O(spans).
    pub fn category_cycles(&self, cat: &str) -> Time {
        self.book.category_cycles(cat)
    }

    /// Exact per-span-duration percentiles for every `(category, name)`
    /// pair: `(p50, p95, p99)` in cycles, computed from the sorted span
    /// durations (sample of rank `ceil(q * n)`).
    pub fn duration_percentiles(&self) -> BTreeMap<(String, String), (Time, Time, Time)> {
        let mut durs: BTreeMap<(String, String), Vec<Time>> = BTreeMap::new();
        for sp in &self.spans {
            durs.entry((sp.cat.clone(), sp.name.clone()))
                .or_default()
                .push(sp.cycles());
        }
        durs.into_iter()
            .map(|(k, mut v)| {
                v.sort_unstable();
                let at = |q: f64| {
                    let rank = (q * v.len() as f64).ceil().max(1.0) as usize;
                    v[rank - 1]
                };
                (k, (at(0.50), at(0.95), at(0.99)))
            })
            .collect()
    }

    /// Plain-text per-phase rollup table:
    ///
    /// ```text
    /// cat         name          spans       cycles   share      p50      p95      p99
    /// layer       fwd               1       12,340   41.2%   12,340   12,340   12,340
    /// ```
    ///
    /// `share` is relative to total cycles of the span's category, so
    /// categories that tile the timeline (like `layer`) sum to 100%.
    /// `p50`/`p95`/`p99` are exact percentiles over the individual span
    /// durations of the row (see [`Tracer::duration_percentiles`]).
    pub fn rollup_table(&self) -> String {
        let rollup = self.rollup();
        let pct = self.duration_percentiles();
        let mut cat_totals: BTreeMap<&str, Time> = BTreeMap::new();
        for ((cat, _), (_, cycles)) in &rollup {
            *cat_totals.entry(cat.as_str()).or_insert(0) += cycles;
        }
        let name_w = rollup
            .keys()
            .map(|(_, n)| n.len())
            .chain(std::iter::once(4))
            .max()
            .unwrap_or(4);
        let cat_w = rollup
            .keys()
            .map(|(c, _)| c.len())
            .chain(std::iter::once(3))
            .max()
            .unwrap_or(3);
        let mut out = format!(
            "{:<cat_w$}  {:<name_w$}  {:>7}  {:>14}  {:>6}  {:>12}  {:>12}  {:>12}\n",
            "cat", "name", "spans", "cycles", "share", "p50", "p95", "p99"
        );
        for ((cat, name), (count, cycles)) in &rollup {
            let total = cat_totals[cat.as_str()].max(1);
            let (p50, p95, p99) = pct[&(cat.clone(), name.clone())];
            out.push_str(&format!(
                "{:<cat_w$}  {:<name_w$}  {:>7}  {:>14}  {:>5.1}%  {:>12}  {:>12}  {:>12}\n",
                cat,
                name,
                count,
                cycles,
                100.0 * *cycles as f64 / total as f64,
                p50,
                p95,
                p99
            ));
        }
        out
    }
}

impl SpanSink for Tracer {
    fn track(&mut self, name: &str) -> TrackId {
        Tracer::track(self, name)
    }
    fn span(&mut self, track: TrackId, cat: &str, name: &str, start: Time, end: Time) {
        Tracer::span(self, track, cat, name, start, end)
    }
    fn begin(&mut self, track: TrackId, cat: &str, name: &str, start: Time) {
        Tracer::begin(self, track, cat, name, start)
    }
    fn end(&mut self, track: TrackId, end: Time) {
        Tracer::end(self, track, end)
    }
    fn open_spans(&self) -> usize {
        Tracer::open_spans(self)
    }
    fn category_cycles(&self, cat: &str) -> Time {
        Tracer::category_cycles(self, cat)
    }
    fn buffer_bytes(&self) -> usize {
        self.span_bytes
    }
}

/// Rebuilds a [`Tracer`] from decoded [`TraceEvent`]s: the one replay
/// behind [`Tracer::from_chrome_trace`] and [`crate::read_trace_auto`].
/// Each `tid` may be registered once, and every span must sit on a
/// registered `tid`.
pub(crate) fn replay(
    events: impl IntoIterator<Item = Result<TraceEvent, String>>,
) -> Result<Tracer, String> {
    let mut trace = Tracer::new();
    let mut by_tid = BTreeMap::new();
    for ev in events {
        match ev? {
            TraceEvent::Track { tid, name } => {
                if by_tid.insert(tid, trace.track(&name)).is_some() {
                    return Err(format!("duplicate track registration for tid {tid}"));
                }
            }
            TraceEvent::Span {
                tid,
                cat,
                name,
                start,
                end,
            } => {
                let track = *by_tid
                    .get(&tid)
                    .ok_or_else(|| format!("span on unregistered tid {tid}"))?;
                let sp = trace.book.close(track, cat, name, start, end);
                trace.push(sp);
            }
        }
    }
    Ok(trace)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn spans_record_and_roll_up() {
        let mut t = Tracer::new();
        let w0 = t.track("worker0");
        t.span(w0, "ndp", "gemm", 0, 100);
        t.span(w0, "ndp", "gemm", 100, 150);
        t.span(w0, "noc", "scatter", 150, 200);
        let rollup = t.rollup();
        assert_eq!(rollup[&("ndp".to_string(), "gemm".to_string())], (2, 150));
        assert_eq!(rollup[&("noc".to_string(), "scatter".to_string())], (1, 50));
        assert_eq!(t.category_cycles("ndp"), 150);
    }

    #[test]
    fn begin_end_nest_per_track() {
        let mut t = Tracer::new();
        let w = t.track("w");
        t.begin(w, "layer", "outer", 0);
        t.begin(w, "ndp", "inner", 10);
        t.end(w, 20); // closes inner
        assert_eq!(t.open_spans(), 1);
        t.end(w, 100); // closes outer
        assert_eq!(t.open_spans(), 0);
        let spans = t.spans();
        assert_eq!(spans[0].name, "inner");
        assert_eq!((spans[0].start, spans[0].end), (10, 20));
        assert_eq!(spans[1].name, "outer");
        assert_eq!((spans[1].start, spans[1].end), (0, 100));
    }

    #[test]
    fn track_registration_is_idempotent() {
        let mut t = Tracer::new();
        let a = t.track("noc");
        let b = t.track("noc");
        assert_eq!(a, b);
        assert_eq!(t.track_name(a), "noc");
    }

    #[test]
    fn chrome_trace_has_metadata_and_complete_events() {
        let mut t = Tracer::new();
        let w = t.track("worker0");
        t.span(w, "ndp", "gemm", 1000, 3000);
        let text = t.chrome_trace().render();
        let doc = crate::json::parse(&text).expect("parse");
        let events = doc
            .get("traceEvents")
            .and_then(Value::as_arr)
            .expect("traceEvents");
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("ph").and_then(Value::as_str), Some("M"));
        let x = &events[1];
        assert_eq!(x.get("ph").and_then(Value::as_str), Some("X"));
        assert_eq!(x.get("cat").and_then(Value::as_str), Some("ndp"));
        assert_eq!(x.get("ts").and_then(Value::as_f64), Some(1.0));
        assert_eq!(x.get("dur").and_then(Value::as_f64), Some(2.0));
        // The document round-trips through our own parser.
        assert_eq!(doc.render(), text);
    }

    #[test]
    fn rollup_table_shares_sum_per_category() {
        let mut t = Tracer::new();
        let iter = t.track("iter");
        t.span(iter, "layer", "fwd", 0, 600);
        t.span(iter, "layer", "bwd", 600, 1000);
        let table = t.rollup_table();
        assert!(table.contains("60.0%"), "table:\n{table}");
        assert!(table.contains("40.0%"), "table:\n{table}");
    }

    #[test]
    fn duration_percentiles_are_exact() {
        let mut t = Tracer::new();
        let w = t.track("w");
        let mut at = 0;
        for d in [10u64, 20, 30, 40, 100] {
            t.span(w, "ndp", "gemm", at, at + d);
            at += d;
        }
        let pct = t.duration_percentiles();
        let (p50, p95, p99) = pct[&("ndp".to_string(), "gemm".to_string())];
        assert_eq!(p50, 30); // rank ceil(0.5*5) = 3rd of [10,20,30,40,100]
        assert_eq!(p95, 100);
        assert_eq!(p99, 100);
        let table = t.rollup_table();
        assert!(table.contains("p95"), "table:\n{table}");
    }

    #[test]
    #[should_panic(expected = "ends before it starts")]
    fn rejects_negative_spans() {
        let mut t = Tracer::new();
        let w = t.track("w");
        t.span(w, "ndp", "oops", 10, 5);
    }

    #[test]
    fn from_chrome_trace_round_trips_exactly() {
        let mut t = Tracer::new();
        let w0 = t.track("worker0");
        let noc = t.track("noc");
        // Sub-microsecond span: ts/dur lose precision, args carry cycles.
        t.span(w0, "ndp", "gemm", 3, 7);
        t.span(noc, "noc", "scatter", 7, 1_000_007);
        t.span(w0, "ndp", "vector", 7, 7); // zero-length survives too
                                           // Through a full render → parse text cycle.
        let doc = crate::json::parse(&t.chrome_trace().render()).expect("parse");
        let back = Tracer::from_chrome_trace(&doc).expect("reparse");
        assert_eq!(back.tracks(), t.tracks());
        assert_eq!(back.spans(), t.spans());
    }

    /// One `thread_name` event, as the writer renders it.
    pub(crate) fn track_line(tid: usize, name: &str) -> String {
        let mut out = String::new();
        write_track_event(tid, name, &mut out);
        out
    }

    /// A span on tid 0 at `start_cycle = u64::MAX` lasting 5 cycles: its
    /// end does not fit in a cycle count.
    pub(crate) const OVERFLOW_SPAN: &str = r#"{"ph":"X","name":"gemm","cat":"ndp","tid":0,"ts":0,"dur":0,"args":{"start_cycle":18446744073709551615,"cycles":5}}"#;

    #[test]
    fn from_chrome_trace_rejects_malformed_documents() {
        let reject = |events: &[String], why: &str| {
            let text = format!("{{\"traceEvents\":[{}]}}", events.join(","));
            let doc = crate::json::parse(&text).expect("valid JSON");
            let err = Tracer::from_chrome_trace(&doc).expect_err(why);
            assert!(err.contains(why), "{err}");
        };
        assert!(Tracer::from_chrome_trace(&crate::json::obj(vec![])).is_err());
        let span = r#"{"ph":"X","tid":0,"name":"gemm","ts":0,"dur":1}"#.to_string();
        reject(std::slice::from_ref(&span), "unregistered tid 0");
        // Two registrations of one tid used to leave a phantom track.
        reject(
            &[track_line(0, "a"), track_line(0, "b"), span],
            "duplicate track registration for tid 0",
        );
        // An end past u64::MAX used to overflow (debug) or wrap into an
        // "ends before it starts" panic (release).
        reject(
            &[track_line(0, "a"), OVERFLOW_SPAN.to_string()],
            "ends past the last cycle",
        );
    }

    #[test]
    fn chrome_trace_auto_closes_open_spans_at_last_timestamp() {
        // Regression: exporting with open spans used to silently drop
        // them, producing a trace inconsistent with open_spans() > 0.
        let mut t = Tracer::new();
        let w = t.track("worker0");
        t.span(w, "ndp", "gemm", 0, 100);
        t.begin(w, "layer", "fwd", 0);
        t.begin(w, "ndp", "vector", 40);
        assert_eq!(t.open_spans(), 2);
        assert_eq!(t.last_timestamp(), 100);

        let doc = crate::json::parse(&t.chrome_trace().render()).expect("parse");
        let back = Tracer::from_chrome_trace(&doc).expect("reparse");
        // Both open spans appear, closed at the last timestamp, innermost
        // first (the order matching end() calls would have produced).
        assert_eq!(back.spans().len(), 3);
        assert_eq!(back.spans()[1].name, "vector");
        assert_eq!((back.spans()[1].start, back.spans()[1].end), (40, 100));
        assert_eq!(back.spans()[2].name, "fwd");
        assert_eq!((back.spans()[2].start, back.spans()[2].end), (0, 100));
        // The source tracer is untouched: spans stay open for the caller
        // to account as obs.truncated_spans.
        assert_eq!(t.open_spans(), 2);
        assert_eq!(t.spans().len(), 1);
    }

    #[test]
    fn last_timestamp_covers_open_only_tracers() {
        let mut t = Tracer::new();
        assert_eq!(t.last_timestamp(), 0);
        let w = t.track("w");
        t.begin(w, "layer", "fwd", 70);
        assert_eq!(t.last_timestamp(), 70);
        // An open span with no closed spans exports as zero-length at its
        // own start.
        let doc = crate::json::parse(&t.chrome_trace().render()).expect("parse");
        let back = Tracer::from_chrome_trace(&doc).expect("reparse");
        assert_eq!((back.spans()[0].start, back.spans()[0].end), (70, 70));
    }

    #[test]
    fn append_offset_empty_other_is_noop() {
        let mut t = Tracer::new();
        let w = t.track("worker0");
        t.span(w, "ndp", "gemm", 0, 10);
        let before_tracks = t.tracks().to_vec();
        let before_spans = t.spans().to_vec();
        t.append_offset(&Tracer::new(), 999);
        assert_eq!(t.tracks(), &before_tracks[..]);
        assert_eq!(t.spans(), &before_spans[..]);
    }

    #[test]
    fn append_offset_registers_spanless_tracks() {
        // A grid that stayed idle still contributes its track layout.
        let mut other = Tracer::new();
        other.track("worker0");
        other.track("noc");
        let mut t = Tracer::new();
        t.append_offset(&other, 0);
        assert_eq!(t.tracks(), ["worker0", "noc"]);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn append_offset_merges_shared_names_appends_unique() {
        let mut t = Tracer::new();
        let w = t.track("worker0");
        t.span(w, "ndp", "gemm", 0, 10);

        let mut other = Tracer::new();
        let d = other.track("dram0");
        let w2 = other.track("worker0"); // shared name, later position
        other.span(w2, "ndp", "gemm", 0, 5);
        other.span(d, "dram", "stall", 1, 3);

        t.append_offset(&other, 100);
        // Shared "worker0" merged onto tid 0; unique "dram0" appended.
        assert_eq!(t.tracks(), ["worker0", "dram0"]);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(
            (spans[1].track, spans[1].start, spans[1].end),
            (w, 100, 105)
        );
        assert_eq!(spans[2].track.index(), 1);
        assert_eq!((spans[2].start, spans[2].end), (101, 103));
    }

    #[test]
    fn append_offset_ignores_open_spans() {
        let mut other = Tracer::new();
        let w = other.track("worker0");
        other.span(w, "ndp", "gemm", 0, 10);
        other.begin(w, "layer", "fwd", 0);
        let mut t = Tracer::new();
        t.append_offset(&other, 0);
        assert_eq!(t.spans().len(), 1);
        assert_eq!(t.open_spans(), 0);
    }

    #[test]
    fn buffer_bytes_grows_with_spans() {
        let mut t = Tracer::new();
        assert_eq!(SpanSink::buffer_bytes(&t), 0);
        let w = t.track("worker0");
        t.span(w, "ndp", "gemm", 0, 10);
        assert_eq!(SpanSink::buffer_bytes(&t), span_mem_bytes("ndp", "gemm"));
        t.span(w, "ndp", "gemm", 10, 20);
        assert_eq!(
            SpanSink::buffer_bytes(&t),
            2 * span_mem_bytes("ndp", "gemm")
        );
    }

    #[test]
    fn append_offset_reproduces_serial_layout() {
        // Recording runs A then B on one tracer must equal recording them
        // on separate tracers and appending B at A's extent.
        let mut serial = Tracer::new();
        let w = serial.track("worker0");
        serial.span(w, "ndp", "gemm", 0, 100);
        let n = serial.track("noc");
        serial.span(n, "noc", "scatter", 50, 120);
        serial.span(w, "ndp", "gemm", 120, 200);
        serial.span(n, "noc", "gather", 150, 170);

        let mut a = Tracer::new();
        let w = a.track("worker0");
        a.span(w, "ndp", "gemm", 0, 100);
        let n = a.track("noc");
        a.span(n, "noc", "scatter", 50, 120);
        let mut b = Tracer::new();
        let w = b.track("worker0");
        b.span(w, "ndp", "gemm", 0, 80);
        let n = b.track("noc");
        b.span(n, "noc", "gather", 30, 50);

        let mut merged = Tracer::new();
        merged.append_offset(&a, 0);
        merged.append_offset(&b, 120);
        assert_eq!(merged.tracks(), serial.tracks());
        assert_eq!(merged.spans(), serial.spans());
    }
}
