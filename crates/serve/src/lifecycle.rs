//! Request-lifecycle tracing for the server: every submission (and the
//! job it spawns) becomes a span tree on the server's own wall clock,
//! bounded in memory and exportable at `GET /api/v1/trace` in the same
//! Chrome `trace_event` format the simulator emits — so the existing
//! `analyze` timeline/flamegraph tooling works on server traces
//! unchanged.
//!
//! ## Shape
//!
//! Each record is one *outer* span (category `request`) plus its
//! contiguous *stage* spans (category `serve`). Submissions land on a
//! track named after their outcome (`executed`, `hit`, `coalesced`,
//! `queued`, `rejected`, `error`); executed jobs land on their worker's
//! track (`worker0`, `worker1`, ...). Span names carry the request id
//! as a `#r<n>` suffix (`layer#r12`, `layer.job#r12`) so the timeline
//! stays navigable per request, while the flamegraph exporter strips
//! the suffix to aggregate identical stacks across requests.
//!
//! ## Exact attribution, by construction
//!
//! Stage boundaries are *shared* timestamps: each stage starts at the
//! previous stage's end, the first starts at the outer span's start and
//! the last ends at its end. Stage durations therefore sum to the outer
//! span's extent exactly — no tolerance windows — which is what lets
//! `serve_load` assert queue-wait attribution deterministically. The
//! same holds for jobs: `queue_wait` (enqueue → dequeue) and `execute`
//! (dequeue → terminal) tile the job span, and the job span nests
//! inside its submitting request's span (enqueued after the cache
//! lookup began, terminal before the wait stage ended).
//!
//! ## Bounded memory
//!
//! The trace keeps the newest [`LifecycleTrace::cap`] records in a ring;
//! older records are dropped oldest-first and counted, so a long-lived
//! server exposes its recent history at a fixed memory ceiling and the
//! export says how much scrolled off.

use std::collections::VecDeque;

use wmpt_obs::Tracer;

/// Default record capacity of the server's lifecycle ring.
pub const DEFAULT_TRACE_CAP: usize = 256;

/// One stage of a record: a named interval inside the outer span.
#[derive(Debug, Clone)]
pub struct Stage {
    /// Stage name (`parse`, `cache_lookup`, `wait`, `respond`,
    /// `queue_wait`, `execute`).
    pub name: &'static str,
    /// Start, µs since the server's epoch.
    pub start_us: u64,
    /// End, µs since the server's epoch.
    pub end_us: u64,
}

/// One request's (or job's) complete lifecycle: the outer span plus its
/// contiguous stages.
#[derive(Debug, Clone)]
pub struct LifeRecord {
    /// Outcome track (`executed`, `hit`, ...) or worker track
    /// (`worker0`, ...).
    pub track: String,
    /// Outer span name, `<kind>#r<rid>` or `<kind>.job#r<rid>`.
    pub name: String,
    /// Outer span start, µs since the server's epoch.
    pub start_us: u64,
    /// Outer span end, µs since the server's epoch.
    pub end_us: u64,
    /// Contiguous stage spans tiling `[start_us, end_us)`.
    pub stages: Vec<Stage>,
}

/// Bounded ring of [`LifeRecord`]s with drop accounting.
#[derive(Debug)]
pub struct LifecycleTrace {
    cap: usize,
    records: VecDeque<LifeRecord>,
    dropped: u64,
    total: u64,
}

impl LifecycleTrace {
    /// A ring retaining the newest `cap` records (clamped to ≥ 1).
    pub fn new(cap: usize) -> LifecycleTrace {
        LifecycleTrace {
            cap: cap.max(1),
            records: VecDeque::new(),
            dropped: 0,
            total: 0,
        }
    }

    /// The retention capacity.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Records currently retained.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records pushed over the server's lifetime (retained + dropped).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Records dropped oldest-first to hold the capacity.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Appends a record, evicting the oldest when full.
    pub fn push(&mut self, record: LifeRecord) {
        if self.records.len() == self.cap {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back(record);
        self.total += 1;
    }

    /// The retained records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &LifeRecord> {
        self.records.iter()
    }

    /// Materializes the retained records as a [`Tracer`] (time unit:
    /// µs since the server epoch), ready for Chrome export, the SVG
    /// timeline, or the flamegraph fold.
    pub fn to_tracer(&self) -> Tracer {
        let mut t = Tracer::new();
        for rec in &self.records {
            let track = t.track(&rec.track);
            t.span(track, "request", &rec.name, rec.start_us, rec.end_us);
            for st in &rec.stages {
                t.span(track, "serve", st.name, st.start_us, st.end_us);
            }
        }
        t
    }
}

impl Default for LifecycleTrace {
    fn default() -> Self {
        LifecycleTrace::new(DEFAULT_TRACE_CAP)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(track: &str, name: &str, start: u64, end: u64) -> LifeRecord {
        LifeRecord {
            track: track.to_string(),
            name: name.to_string(),
            start_us: start,
            end_us: end,
            stages: vec![
                Stage {
                    name: "parse",
                    start_us: start,
                    end_us: start + 1,
                },
                Stage {
                    name: "respond",
                    start_us: start + 1,
                    end_us: end,
                },
            ],
        }
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut lt = LifecycleTrace::new(2);
        lt.push(rec("hit", "plan#r0", 0, 10));
        lt.push(rec("hit", "plan#r1", 10, 20));
        lt.push(rec("hit", "plan#r2", 20, 30));
        assert_eq!(lt.len(), 2);
        assert_eq!(lt.total(), 3);
        assert_eq!(lt.dropped(), 1);
        let names: Vec<&str> = lt.records().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["plan#r1", "plan#r2"]);
    }

    #[test]
    fn to_tracer_emits_outer_and_stage_spans_per_track() {
        let mut lt = LifecycleTrace::new(8);
        lt.push(rec("executed", "layer#r0", 0, 100));
        lt.push(rec("executed", "layer#r1", 100, 200));
        lt.push(rec("worker0", "layer.job#r0", 5, 90));
        let t = lt.to_tracer();
        assert_eq!(t.tracks(), ["executed", "worker0"]);
        // 3 outer + 2 stages each.
        assert_eq!(t.spans().len(), 9);
        let outers = t.spans().iter().filter(|s| s.cat == "request").count();
        assert_eq!(outers, 3);
        // Stages tile the outer span exactly.
        for r in lt.records() {
            let sum: u64 = r.stages.iter().map(|s| s.end_us - s.start_us).sum();
            assert_eq!(sum, r.end_us - r.start_us);
        }
    }

    #[test]
    fn chrome_round_trip_preserves_spans() {
        let mut lt = LifecycleTrace::new(4);
        lt.push(rec("hit", "plan#r7", 3, 40));
        let t = lt.to_tracer();
        let doc = wmpt_obs::json::parse(&t.chrome_trace().render()).expect("parse");
        let back = Tracer::from_chrome_trace(&doc).expect("reparse");
        assert_eq!(back.spans().len(), t.spans().len());
        assert_eq!(back.tracks(), t.tracks());
    }

    #[test]
    fn zero_cap_is_clamped() {
        let mut lt = LifecycleTrace::new(0);
        lt.push(rec("hit", "plan#r0", 0, 1));
        assert_eq!(lt.len(), 1);
        assert_eq!(lt.cap(), 1);
    }
}
