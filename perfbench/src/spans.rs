//! Harness-side spans: wall-clock intervals recorded around the calls
//! the benchmark makes into each crate, kept in memory and exported at
//! the end as a `wmpt_obs::Tracer` (time unit: ns, so the Chrome `ts`
//! fields read as µs). Per-layer metrics are computed from these spans,
//! so the numbers and the flamegraph describe the same intervals.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use wmpt_obs::Tracer;

#[derive(Debug, Clone)]
struct Raw {
    track: String,
    cat: &'static str,
    name: String,
    start_ns: u64,
    end_ns: u64,
}

/// Thread-safe span recorder shared by the client threads.
pub struct SpanLog {
    epoch: Instant,
    spans: Mutex<Vec<Raw>>,
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn record(&self, track: &str, cat: &'static str, name: &str, start_ns: u64, end_ns: u64) {
        self.spans.lock().expect("span log lock").push(Raw {
            track: track.to_string(),
            cat,
            name: name.to_string(),
            start_ns,
            end_ns,
        });
    }

    /// Runs `f` inside a span `cat/name` on `track`.
    pub fn time<R>(&self, track: &str, cat: &'static str, name: &str, f: impl FnOnce() -> R) -> R {
        let start = self.now_ns();
        let r = f();
        self.record(track, cat, name, start, self.now_ns());
        r
    }

    /// Durations (ms) of every span `cat/name`, in recording order.
    pub fn durations_ms(&self, cat: &str, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span log lock")
            .iter()
            .filter(|s| s.cat == cat && s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// The recorded spans as a tracer (span names `cat.name`, so the
    /// flamegraph names the layer), sorted by start.
    pub fn to_tracer(&self) -> Tracer {
        let mut spans = self.spans.lock().expect("span log lock").clone();
        spans.sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.end_ns)));
        let mut t = Tracer::new();
        let mut ids = BTreeMap::new();
        for s in &spans {
            let id = *ids
                .entry(s.track.clone())
                .or_insert_with(|| t.track(&s.track));
            t.span(
                id,
                s.cat,
                &format!("{}.{}", s.cat, s.name),
                s.start_ns,
                s.end_ns,
            );
        }
        t
    }
}
