//! Bounded-memory streaming span sink: flushes closed spans to
//! line-delimited chrome-trace events (JSONL) as they complete.
//!
//! The in-memory [`Tracer`] holds every span until export — fine for one
//! grid, unbounded for multi-rack sweeps and long `mpt_serve`-style jobs.
//! [`StreamingTracer`] implements the same [`SpanSink`] surface but keeps
//! only O(open-spans) state plus a pending-output buffer capped by a
//! configurable byte budget; each line of its output is the *exact*
//! compact rendering of the event the in-memory path would have put in
//! its `traceEvents` array, so [`jsonl_to_chrome`] can reassemble a
//! chrome-trace file byte-identical to [`Tracer::write_chrome_trace`].
//!
//! Format (one JSON object per line, no blank lines):
//!
//! ```text
//! {"ph":"M","name":"thread_name","pid":0,"tid":0,"args":{"name":"iter"}}
//! {"ph":"X","name":"fwd","cat":"layer","pid":0,"tid":0,"ts":0,"dur":1.2,"args":{...}}
//! ```
//!
//! `ph:"M"` lines appear at track-registration time (so they can
//! interleave with spans); [`jsonl_to_chrome`] hoists them to the front
//! in `tid` order, which is exactly where [`Tracer::chrome_trace`] puts
//! them. The sink reports its own behaviour via [`StreamStats`] /
//! [`StreamingTracer::record_self_metrics`] (`obs.spans_emitted`,
//! `obs.flushes`, `obs.peak_buffer_bytes`, `obs.truncated_spans`).
//!
//! Both sinks keep one span book — the same private code for track
//! registration, open-span stacks, category sums, the last timestamp and
//! the [auto-close rule](crate#span-sinks) — so they cannot disagree on
//! what the trace says. The sinks differ only in what they do with a new
//! track (this one writes its `ph:"M"` line at once) and with a closed
//! span (this one renders it through the budgeted buffer).

use crate::json;
use crate::metrics::{MetricKey, MetricRegistry};
use crate::trace::{
    parse_trace_event, replay, write_span_event, write_track_event, Span, SpanBook, SpanSink,
    TraceEvent, Tracer, TrackId, CHROME_HEAD, CHROME_TAIL,
};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use wmpt_sim::Time;

/// Self-metrics of one streaming sink, readable at any time via
/// [`StreamingTracer::stats`] and returned by `finalize`/`finish`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamStats {
    /// Complete (`ph:"X"`) events written, including auto-closed ones.
    pub spans_emitted: u64,
    /// Times pending output was handed to the writer (buffer flushes
    /// plus direct writes of lines larger than the budget).
    pub flushes: u64,
    /// Peak bytes the pending-output buffer ever held; stays ≤ the
    /// configured budget.
    pub peak_buffer_bytes: usize,
    /// Spans still open at finalize, auto-closed at the last timestamp.
    pub truncated_spans: u64,
}

impl StreamStats {
    /// Accounts these stats into a registry under the `obs.*` keys.
    pub fn record(&self, metrics: &mut MetricRegistry) {
        metrics.inc(MetricKey::ObsSpansEmitted, self.spans_emitted);
        metrics.inc(MetricKey::ObsFlushes, self.flushes);
        metrics.set_gauge(MetricKey::ObsPeakBufferBytes, self.peak_buffer_bytes as f64);
        metrics.inc(MetricKey::ObsTruncatedSpans, self.truncated_spans);
    }
}

/// A [`SpanSink`] that writes closed spans to JSONL under a byte budget.
///
/// Construct with [`StreamingTracer::create`] (file-backed, enables
/// [`StreamingTracer::finalize_chrome`]) or
/// [`StreamingTracer::with_writer`] (any writer, e.g. `Vec<u8>` in
/// tests). Dropping without `finalize`/`finish` loses buffered lines —
/// the type is deliberately explicit about its end of life.
///
/// I/O errors are sticky: recording never panics on a failed write; the
/// first error is stored and surfaced by `finish`/`finalize`.
pub struct StreamingTracer<W: Write> {
    out: W,
    path: Option<PathBuf>,
    budget: usize,
    buf: String,
    /// The event being emitted, written in place and reused per line.
    line: String,
    book: SpanBook,
    stats: StreamStats,
    io_error: Option<io::Error>,
}

impl<W: Write> std::fmt::Debug for StreamingTracer<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamingTracer")
            .field("path", &self.path)
            .field("budget", &self.budget)
            .field("tracks", &self.book.tracks().len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl StreamingTracer<File> {
    /// Creates (truncates) `path` and streams JSONL into it under
    /// `budget` pending bytes.
    pub fn create(path: &Path, budget: usize) -> io::Result<Self> {
        let file = File::create(path)?;
        let mut t = Self::with_writer(file, budget);
        t.path = Some(path.to_path_buf());
        Ok(t)
    }

    /// Auto-closes open spans, flushes, and closes the JSONL file.
    pub fn finalize(self) -> io::Result<StreamStats> {
        let (_, stats) = self.finish()?;
        Ok(stats)
    }

    /// [`StreamingTracer::finalize`], then converts the JSONL into a
    /// chrome-trace document at `chrome_path` — byte-identical to what
    /// [`Tracer::write_chrome_trace`] would have produced for the same
    /// span history.
    pub fn finalize_chrome(self, chrome_path: &Path) -> io::Result<StreamStats> {
        let jsonl = self
            .path
            .clone()
            .expect("finalize_chrome requires a create()-constructed sink");
        let stats = self.finalize()?;
        jsonl_to_chrome(&jsonl, chrome_path)?;
        Ok(stats)
    }
}

impl<W: Write> StreamingTracer<W> {
    /// Streams JSONL into `out`, holding at most `budget` pending bytes
    /// (a zero budget degenerates to one write per line).
    pub fn with_writer(out: W, budget: usize) -> Self {
        StreamingTracer {
            out,
            path: None,
            budget,
            buf: String::new(),
            line: String::new(),
            book: SpanBook::default(),
            stats: StreamStats::default(),
            io_error: None,
        }
    }

    /// Current self-metrics (peak buffer, flushes, spans emitted so far).
    pub fn stats(&self) -> StreamStats {
        self.stats
    }

    /// Accounts current self-metrics into `metrics` under `obs.*` keys.
    /// Usually called on the stats returned by `finalize` instead, which
    /// include the auto-close tail.
    pub fn record_self_metrics(&self, metrics: &mut MetricRegistry) {
        self.stats.record(metrics);
    }

    /// The latest timestamp seen (max over closed ends and open starts),
    /// where `finish` auto-closes.
    pub fn last_timestamp(&self) -> Time {
        self.book.last_timestamp()
    }

    /// [Auto-closes](crate#span-sinks) still-open spans at
    /// [`StreamingTracer::last_timestamp`], counts them as truncated,
    /// flushes everything, and returns the writer and final stats. The
    /// first I/O error from anywhere in the sink's life is returned here.
    pub fn finish(mut self) -> io::Result<(W, StreamStats)> {
        let book = std::mem::take(&mut self.book);
        for sp in book.auto_closed() {
            self.emit_span(&sp);
            self.stats.truncated_spans += 1;
        }
        self.flush_buf();
        if let Err(e) = self.out.flush() {
            self.io_error.get_or_insert(e);
        }
        match self.io_error.take() {
            Some(e) => Err(e),
            None => Ok((self.out, self.stats)),
        }
    }

    fn emit_span(&mut self, sp: &Span) {
        self.line.clear();
        write_span_event(sp, &mut self.line);
        self.emit_line();
        self.stats.spans_emitted += 1;
    }

    /// Emits the event in `self.line` as one JSONL line.
    fn emit_line(&mut self) {
        // Flush-before-append keeps the pending buffer strictly within
        // budget; a single line larger than the whole budget bypasses
        // the buffer entirely.
        if !self.buf.is_empty() && self.buf.len() + self.line.len() + 1 > self.budget {
            self.flush_buf();
        }
        if self.line.len() + 1 > self.budget {
            self.stats.flushes += 1;
            let r = self
                .out
                .write_all(self.line.as_bytes())
                .and_then(|()| self.out.write_all(b"\n"));
            if let Err(e) = r {
                self.io_error.get_or_insert(e);
            }
            return;
        }
        self.buf.push_str(&self.line);
        self.buf.push('\n');
        self.stats.peak_buffer_bytes = self.stats.peak_buffer_bytes.max(self.buf.len());
    }

    fn flush_buf(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        self.stats.flushes += 1;
        if let Err(e) = self.out.write_all(self.buf.as_bytes()) {
            self.io_error.get_or_insert(e);
        }
        self.buf.clear();
    }
}

impl<W: Write> SpanSink for StreamingTracer<W> {
    fn track(&mut self, name: &str) -> TrackId {
        let (track, new) = self.book.track(name);
        if new {
            self.line.clear();
            write_track_event(track.index(), name, &mut self.line);
            self.emit_line();
        }
        track
    }

    fn span(&mut self, track: TrackId, cat: &str, name: &str, start: Time, end: Time) {
        let sp = self.book.close(track, cat.into(), name.into(), start, end);
        self.emit_span(&sp);
    }

    fn begin(&mut self, track: TrackId, cat: &str, name: &str, start: Time) {
        self.book.begin(track, cat, name, start);
    }

    fn end(&mut self, track: TrackId, end: Time) {
        let sp = self.book.end(track, end);
        self.emit_span(&sp);
    }

    fn open_spans(&self) -> usize {
        self.book.open_spans()
    }

    fn category_cycles(&self, cat: &str) -> Time {
        self.book.category_cycles(cat)
    }

    fn buffer_bytes(&self) -> usize {
        self.buf.len()
    }
}

fn invalid(e: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

/// Decodes one JSONL line into a [`TraceEvent`]; `Ok(None)` for blank
/// lines and event kinds this crate does not emit.
pub fn parse_jsonl_line(line: &str) -> io::Result<Option<TraceEvent>> {
    if line.trim().is_empty() {
        return Ok(None);
    }
    let v = json::parse(line).map_err(invalid)?;
    parse_trace_event(&v).map_err(invalid)
}

/// Streaming iterator over the [`TraceEvent`]s of a JSONL trace.
/// Memory use is one line at a time.
pub struct JsonlEvents<R: BufRead> {
    lines: io::Lines<R>,
}

impl<R: BufRead> Iterator for JsonlEvents<R> {
    type Item = io::Result<TraceEvent>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            match self.lines.next()? {
                Err(e) => return Some(Err(e)),
                Ok(line) => match parse_jsonl_line(&line) {
                    Err(e) => return Some(Err(e)),
                    Ok(Some(ev)) => return Some(Ok(ev)),
                    Ok(None) => continue,
                },
            }
        }
    }
}

/// Opens a JSONL trace for streaming event iteration.
pub fn jsonl_events(path: &Path) -> io::Result<JsonlEvents<BufReader<File>>> {
    Ok(JsonlEvents {
        lines: BufReader::new(File::open(path)?).lines(),
    })
}

/// The two on-disk trace formats `analyze` accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// A chrome-trace document: `{"traceEvents":[...],...}`.
    Chrome,
    /// Line-delimited chrome events from [`StreamingTracer`].
    Jsonl,
}

/// Sniffs whether `path` holds a chrome-trace document or streaming
/// JSONL, from the first line (a chrome document renders on one line
/// whose object has a `traceEvents` member; JSONL lines are individual
/// events carrying `ph`).
pub fn detect_format(path: &Path) -> io::Result<TraceFormat> {
    let mut first = String::new();
    BufReader::new(File::open(path)?).read_line(&mut first)?;
    let v = json::parse(first.trim_end()).map_err(invalid)?;
    if v.get("traceEvents").is_some() {
        Ok(TraceFormat::Chrome)
    } else if v.get("ph").is_some() {
        Ok(TraceFormat::Jsonl)
    } else {
        Err(invalid("neither a chrome-trace document nor JSONL events"))
    }
}

/// Converts a [`StreamingTracer`] JSONL file into a chrome-trace
/// document at `chrome`, byte-identical to [`Tracer::write_chrome_trace`]
/// for the same span history.
///
/// Two streaming passes, so memory stays O(tracks): pass 1 collects the
/// `ph:"M"` track registrations (hoisted to the front of `traceEvents`
/// in `tid` order, where the in-memory export puts them); pass 2
/// re-renders each `ph:"X"` event in order. Spans referencing a `tid`
/// with no registration are an error, and so is a second registration
/// of one `tid`.
pub fn jsonl_to_chrome(jsonl: &Path, chrome: &Path) -> io::Result<()> {
    let mut tracks: BTreeMap<usize, String> = BTreeMap::new();
    for ev in jsonl_events(jsonl)? {
        if let TraceEvent::Track { tid, name } = ev? {
            if tracks.insert(tid, name).is_some() {
                return Err(invalid(format!(
                    "duplicate track registration for tid {tid}"
                )));
            }
        }
    }

    let mut w = BufWriter::new(File::create(chrome)?);
    w.write_all(CHROME_HEAD.as_bytes())?;
    // Each event is written into `text` behind its separator, then
    // copied out; the first event has none.
    let mut text = String::new();
    let mut sep = "";
    for (tid, name) in &tracks {
        text.clear();
        text.push_str(std::mem::replace(&mut sep, ","));
        write_track_event(*tid, name, &mut text);
        w.write_all(text.as_bytes())?;
    }
    for ev in jsonl_events(jsonl)? {
        if let TraceEvent::Span {
            tid,
            cat,
            name,
            start,
            end,
        } = ev?
        {
            if !tracks.contains_key(&tid) {
                return Err(invalid(format!("span on unregistered tid {tid}")));
            }
            let sp = Span {
                track: TrackId::new(tid),
                cat,
                name,
                start,
                end,
            };
            text.clear();
            text.push_str(std::mem::replace(&mut sep, ","));
            write_span_event(&sp, &mut text);
            w.write_all(text.as_bytes())?;
        }
    }
    w.write_all(CHROME_TAIL.as_bytes())?;
    w.flush()
}

/// Reads a trace in either on-disk format back into an in-memory
/// [`Tracer`] (JSONL is auto-closed already, so no open spans survive).
pub fn read_trace_auto(path: &Path) -> io::Result<Tracer> {
    match detect_format(path)? {
        TraceFormat::Chrome => {
            let text = std::fs::read_to_string(path)?;
            let doc = json::parse(&text).map_err(invalid)?;
            Tracer::from_chrome_trace(&doc).map_err(invalid)
        }
        TraceFormat::Jsonl => {
            replay(jsonl_events(path)?.map(|ev| ev.map_err(|e| e.to_string()))).map_err(invalid)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive<S: SpanSink>(sink: &mut S) {
        let iter = sink.track("iter");
        let w0 = sink.track("worker0");
        sink.span(iter, "layer", "fwd", 0, 600);
        sink.begin(w0, "ndp", "gemm", 10);
        sink.end(w0, 200);
        sink.span(w0, "noc", "scatter", 200, 450);
        sink.span(iter, "layer", "bwd", 600, 1400);
        sink.span(w0, "ndp", "gemm", 700, 1400);
    }

    #[test]
    fn jsonl_lines_match_in_memory_events() {
        let mut mem = Tracer::new();
        drive(&mut mem);
        let mut s = StreamingTracer::with_writer(Vec::new(), 4096);
        drive(&mut s);
        assert_eq!(s.category_cycles("layer"), mem.category_cycles("layer"));
        assert_eq!(s.category_cycles("ndp"), mem.category_cycles("ndp"));
        let (bytes, stats) = s.finish().expect("finish");
        assert_eq!(stats.spans_emitted, 5);
        assert_eq!(stats.truncated_spans, 0);
        let text = String::from_utf8(bytes).expect("utf8");
        let doc = crate::json::parse(&mem.chrome_trace().render()).expect("parse");
        let events = doc
            .get("traceEvents")
            .and_then(crate::json::Value::as_arr)
            .unwrap();
        // Every JSONL line is an exact render of one in-memory event
        // (M lines interleave at registration time, X lines in order).
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), events.len());
        let mut rendered: Vec<String> = events.iter().map(|e| e.render()).collect();
        let mut sorted_lines: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
        rendered.sort();
        sorted_lines.sort();
        assert_eq!(sorted_lines, rendered);
    }

    #[test]
    fn finalize_chrome_is_byte_identical_to_in_memory_export() {
        let dir = std::env::temp_dir().join(format!("wmpt_stream_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let jsonl = dir.join("t.jsonl");
        let chrome_s = dir.join("t_stream.json");
        let chrome_m = dir.join("t_mem.json");

        let mut s = StreamingTracer::create(&jsonl, 64).expect("create");
        drive(&mut s);
        let stats = s.finalize_chrome(&chrome_s).expect("finalize");
        let mut mem = Tracer::new();
        drive(&mut mem);
        mem.write_chrome_trace(&chrome_m).expect("write");

        let a = std::fs::read(&chrome_s).expect("stream bytes");
        let b = std::fs::read(&chrome_m).expect("mem bytes");
        assert_eq!(a, b, "chrome exports diverge");
        assert!(
            stats.peak_buffer_bytes <= 64,
            "peak {}",
            stats.peak_buffer_bytes
        );
        assert!(stats.flushes > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn finish_auto_closes_like_the_in_memory_export() {
        let mut mem = Tracer::new();
        let w = mem.track("w");
        mem.span(w, "ndp", "gemm", 0, 100);
        mem.begin(w, "layer", "fwd", 0);
        mem.begin(w, "ndp", "vector", 40);

        let mut s = StreamingTracer::with_writer(Vec::new(), 4096);
        let w = SpanSink::track(&mut s, "w");
        SpanSink::span(&mut s, w, "ndp", "gemm", 0, 100);
        SpanSink::begin(&mut s, w, "layer", "fwd", 0);
        SpanSink::begin(&mut s, w, "ndp", "vector", 40);
        assert_eq!(SpanSink::open_spans(&s), 2);
        let (bytes, stats) = s.finish().expect("finish");
        assert_eq!(stats.truncated_spans, 2);

        // Reparse the JSONL; spans must equal the in-memory auto-close.
        let text = String::from_utf8(bytes).expect("utf8");
        let back = {
            let dir = std::env::temp_dir().join(format!("wmpt_stream_ac_{}", std::process::id()));
            std::fs::create_dir_all(&dir).expect("scratch dir");
            let p = dir.join("t.jsonl");
            std::fs::write(&p, &text).expect("write");
            let t = read_trace_auto(&p).expect("read");
            std::fs::remove_dir_all(&dir).ok();
            t
        };
        let doc = crate::json::parse(&mem.chrome_trace().render()).expect("parse");
        let expect = Tracer::from_chrome_trace(&doc).expect("reparse");
        assert_eq!(back.spans(), expect.spans());
        assert_eq!(back.tracks(), expect.tracks());
    }

    #[test]
    fn zero_budget_writes_every_line_directly() {
        let mut s = StreamingTracer::with_writer(Vec::new(), 0);
        drive(&mut s);
        let (bytes, stats) = s.finish().expect("finish");
        assert_eq!(stats.peak_buffer_bytes, 0);
        // 2 track lines + 5 span lines, each its own write.
        assert_eq!(stats.flushes, 7);
        assert_eq!(String::from_utf8(bytes).unwrap().lines().count(), 7);
    }

    #[test]
    fn append_offset_matches_tracer_semantics() {
        let mut a = Tracer::new();
        let w = a.track("worker0");
        a.span(w, "ndp", "gemm", 0, 100);
        a.track("idle"); // spanless track must still register
        let mut b = Tracer::new();
        let w = b.track("worker0");
        b.span(w, "ndp", "gemm", 0, 80);

        let mut mem = Tracer::new();
        mem.append_offset(&a, 0);
        mem.append_offset(&b, 100);

        let mut s = StreamingTracer::with_writer(Vec::new(), 4096);
        SpanSink::append_offset(&mut s, &a, 0);
        SpanSink::append_offset(&mut s, &b, 100);
        let (bytes, _) = s.finish().expect("finish");

        let dir = std::env::temp_dir().join(format!("wmpt_stream_ao_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let p = dir.join("t.jsonl");
        std::fs::write(&p, &bytes).expect("write");
        let back = read_trace_auto(&p).expect("read");
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(back.tracks(), mem.tracks());
        assert_eq!(back.spans(), mem.spans());
    }

    #[test]
    fn detect_format_distinguishes_chrome_and_jsonl() {
        let dir = std::env::temp_dir().join(format!("wmpt_stream_df_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let chrome = dir.join("c.json");
        let jsonl = dir.join("s.jsonl");
        let mut mem = Tracer::new();
        let w = mem.track("w");
        mem.span(w, "ndp", "gemm", 0, 10);
        mem.write_chrome_trace(&chrome).expect("write");
        let mut s = StreamingTracer::create(&jsonl, 128).expect("create");
        drive(&mut s);
        s.finalize().expect("finalize");
        assert_eq!(detect_format(&chrome).expect("chrome"), TraceFormat::Chrome);
        assert_eq!(detect_format(&jsonl).expect("jsonl"), TraceFormat::Jsonl);
        // Both read back through the auto-detecting reader.
        assert_eq!(read_trace_auto(&chrome).expect("read").spans(), mem.spans());
        assert_eq!(read_trace_auto(&jsonl).expect("read").spans().len(), 5);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn jsonl_readers_reject_duplicate_tids_and_overflowing_spans() {
        use crate::trace::tests::{track_line, OVERFLOW_SPAN};
        let dir = std::env::temp_dir().join(format!("wmpt_stream_bad_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let (jsonl, chrome) = (dir.join("t.jsonl"), dir.join("t.json"));
        let span = r#"{"ph":"X","name":"gemm","cat":"ndp","tid":0,"ts":0,"dur":1}"#;
        let cases = [
            (
                vec![track_line(0, "a"), track_line(0, "b"), span.into()],
                "duplicate",
            ),
            (
                vec![track_line(0, "a"), OVERFLOW_SPAN.into()],
                "ends past the last cycle",
            ),
        ];
        for (lines, why) in cases {
            std::fs::write(&jsonl, lines.join("\n")).expect("write");
            for err in [
                read_trace_auto(&jsonl).expect_err(why),
                jsonl_to_chrome(&jsonl, &chrome).expect_err(why),
            ] {
                assert_eq!(err.kind(), io::ErrorKind::InvalidData);
                assert!(err.to_string().contains(why), "{err}");
            }
        }
        assert!(parse_jsonl_line(OVERFLOW_SPAN).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stats_record_into_metrics() {
        let stats = StreamStats {
            spans_emitted: 7,
            flushes: 3,
            peak_buffer_bytes: 512,
            truncated_spans: 1,
        };
        let mut m = MetricRegistry::new();
        stats.record(&mut m);
        assert_eq!(m.counter(MetricKey::ObsSpansEmitted), 7);
        assert_eq!(m.counter(MetricKey::ObsFlushes), 3);
        assert_eq!(m.gauge(MetricKey::ObsPeakBufferBytes), Some(512.0));
        assert_eq!(m.counter(MetricKey::ObsTruncatedSpans), 1);
    }
}
