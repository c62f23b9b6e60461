//! Observability for the MPT simulation stack: a typed metric registry,
//! span tracing on the simulator's virtual clock, and Chrome-trace export.
//!
//! The simulation crates (`wmpt-noc`, `wmpt-ndp`, `wmpt-core`) expose
//! `record_*` functions that read a finished result into a span sink
//! and a [`MetricRegistry`]; the plain simulation entry points stay
//! untouched, so observability is zero-cost when not requested — no
//! flags checked on the hot path.
//!
//! Three pieces:
//!
//! * [`MetricRegistry`] — counters/gauges/histograms keyed by the typed
//!   [`MetricKey`] enum. Plain values, no global state; merge per-worker
//!   registries upward, serialize to JSON, parse back.
//! * [`Tracer`] — records `(track, category, name, start, end)` spans in
//!   virtual cycles and exports Chrome `trace_event` JSON (open in
//!   `chrome://tracing` or Perfetto) plus a plain-text per-phase rollup.
//!   Both it and the bounded-memory [`StreamingTracer`] (JSONL to disk
//!   under a byte budget, see [`stream`]) implement [`SpanSink`], the
//!   recording surface instrumented code is generic over.
//! * [`json`] — a minimal JSON writer/parser; the workspace builds
//!   hermetically, so this substitutes for `serde_json` (see DESIGN.md).
//!
//! # Span sinks
//!
//! [`Tracer`] and [`StreamingTracer`] share one private span book: track
//! registration by name, per-track `begin`/`end` stacks, per-category
//! cycle sums, the last timestamp, and the one check that a span does not
//! end before it starts. The in-memory sink pushes each closed [`Span`]
//! into a `Vec`; the streaming sink renders it to a JSONL line at once.
//! [`SpanSink::append_offset`] is written once, on top of `track` and
//! `span`.
//!
//! Every trace byte comes from one event writer: a private pair of
//! functions that append a track's `thread_name` event and a span's
//! complete event, as compact JSON, straight into the caller's buffer.
//! [`ChromeTrace::render`] (what [`Tracer::chrome_trace`] returns), the
//! streaming sink's JSONL lines and [`jsonl_to_chrome`] all call it, so
//! they cannot disagree on a byte. [`json::Value`] trees are for parsing
//! traces back and for small documents, never for writing events.
//!
//! Spans still open when a trace is exported ([`Tracer::chrome_trace`])
//! or finished ([`StreamingTracer::finish`]) are *auto-closed*: each is
//! closed at the last timestamp (the maximum over closed ends and open
//! starts), per track in registration order, innermost first — the order
//! repeated `end()` calls would have produced.
//!
//! The readers ([`Tracer::from_chrome_trace`] and [`read_trace_auto`]
//! on either format) rebuild a [`Tracer`] through one replay, which
//! rejects a span on an unregistered `tid` and a second registration of
//! one `tid`; [`jsonl_to_chrome`] applies the same two rules.
//!
//! # Metric keys
//!
//! Every key is documented on its [`MetricKey`] variant; the serialized
//! names (and what increments them) are:
//!
//! | key | kind | meaning |
//! |-----|------|---------|
//! | `noc.flits_injected.<tc>` | counter | 16 B flits entering the network per [`TrafficClass`] |
//! | `noc.flits_delivered.<tc>` | counter | flits arriving at their destination per class |
//! | `noc.packets_injected.<tc>` | counter | packets (payload + 8 B header) per class |
//! | `noc.bytes_on_wire.<tc>` | counter | payload+header bytes per class, once per packet |
//! | `tile.bytes_fwd_total` | counter | forward gather bytes before prediction |
//! | `tile.bytes_saved_gather` | counter | bytes skipped by activation prediction |
//! | `tile.bytes_saved_scatter` | counter | bytes skipped by zero-skip on backward |
//! | `ndp.systolic_macs` | counter | MACs executed by systolic arrays |
//! | `ndp.systolic_busy_cycles` | counter | systolic busy cycles |
//! | `ndp.vector_busy_cycles` | counter | vector-unit busy cycles |
//! | `ndp.systolic_utilization` | gauge | systolic utilization over the layer |
//! | `ndp.vector_utilization` | gauge | vector utilization over the layer |
//! | `ndp.dram_bytes` | counter | DRAM↔SRAM traffic |
//! | `ndp.sram_bytes` | counter | SRAM↔compute traffic |
//! | `ndp.dram_row_hits` | counter | FR-FCFS row-buffer hits |
//! | `ndp.dram_row_misses` | counter | row misses (activate+precharge) |
//! | `coll.reduce_cycles` | counter | ring reduce cycles |
//! | `coll.broadcast_cycles` | counter | ring broadcast cycles |
//! | `coll.total_cycles` | counter | collective cycles charged to the layer |
//! | `sim.events_pushed` | counter | events pushed into event queues |
//! | `sim.events_popped` | counter | events popped from event queues |
//! | `exec.compute_cycles` | counter | compute cycles over simulated phases |
//! | `exec.comm_cycles` | counter | communication cycles over simulated phases |
//! | `exec.total_cycles` | counter | end-to-end cycles |
//! | `fault.events_injected` | counter | fault events injected from a `FaultPlan` |
//! | `fault.links_failed` | counter | links failed permanently |
//! | `fault.workers_lost` | counter | workers lost permanently |
//! | `fault.bit_flips_detected` | counter | DRAM bit flips detected and repaired |
//! | `fault.reroutes` | counter | collective rings re-formed around failures |
//! | `fault.extra_ring_hops` | counter | hop-count penalty of rerouted rings |
//! | `fault.checkpoints` | counter | trainer checkpoints taken |
//! | `fault.rollbacks` | counter | rollbacks to the last checkpoint |
//! | `fault.replayed_iterations` | counter | iterations replayed after a rollback |
//! | `fault.recovery_cycles` | counter | cycles spent on detect/restore/replay |
//! | `par.jobs` | gauge | host worker threads (`--jobs`) the run executed with |
//! | `opt.configs_evaluated` | counter | cost-model evaluations executed by the auto-search |
//! | `opt.memo_hits` | counter | evaluations answered from the canonical-hash memo |
//! | `opt.memo_misses` | counter | evaluations that missed the memo |
//! | `opt.dp_states` | counter | DP states expanded (layer × decision pairs) |
//! | `hist.opt_search_ms` | histogram | host wall-clock ms per auto-search |
//! | `obs.spans_emitted` | counter | spans written out by a streaming sink |
//! | `obs.flushes` | counter | pending-buffer flushes of a streaming sink |
//! | `obs.peak_buffer_bytes` | gauge | peak pending bytes held by a streaming sink (≤ budget) |
//! | `obs.truncated_spans` | counter | open spans auto-closed at export/finalize |
//! | `serve.requests` | counter | job submissions received by the HTTP server |
//! | `serve.cache_hits` | counter | submissions answered from the result cache |
//! | `serve.cache_misses` | counter | submissions that enqueued an execution |
//! | `serve.cache_evictions` | counter | results evicted by the LRU byte budget |
//! | `serve.coalesced` | counter | submissions attached to an identical in-flight job |
//! | `serve.rejected_overload` | counter | submissions bounced with 429 (queue full) |
//! | `serve.rejected_shutdown` | counter | submissions bounced with 503 (draining) |
//! | `serve.jobs_executed` | counter | jobs actually run by a worker |
//! | `serve.cache_bytes` | gauge | resident bytes in the result cache |
//! | `hist.serve_latency_us` | histogram | µs per executed job (dequeue to terminal) |
//! | `hist.serve_queue_depth` | histogram | queue depth sampled at each submission |
//! | `hist.serve_queue_wait_us` | histogram | µs an executed job waited in the queue |
//! | `hist.tile_pair_bytes` | histogram | bytes per tile-transfer (src, dst) pair |
//! | `hist.phase_cycles` | histogram | cycles per simulated phase |
//! | `hist.recovery_cycles` | histogram | cycles per fault-recovery episode |
//! | `hist.experiment_host_ms` | histogram | host wall-clock ms per experiment |
//!
//! # Example
//!
//! ```
//! use wmpt_obs::{MetricKey, Observer, TrafficClass};
//!
//! let mut obs = Observer::new();
//! let worker = obs.trace.track("worker0");
//! obs.trace.span(worker, "ndp", "fwd.gemm", 0, 1200);
//! obs.metrics.inc(MetricKey::FlitsInjected(TrafficClass::TileScatter), 64);
//!
//! let text = obs.trace.chrome_trace().render(); // loadable in chrome://tracing
//! let doc = wmpt_obs::json::parse(&text).expect("valid JSON");
//! assert!(doc.get("traceEvents").is_some());
//! assert!(obs.metrics.render_table().contains("noc.flits_injected.tile_scatter"));
//! ```

#![forbid(unsafe_code)]

pub mod hash;
pub mod json;
pub mod log;
pub mod metrics;
pub mod prom;
pub mod stream;
pub mod trace;
pub mod window;

pub use log::{Level, LogBuffer, Logger};
pub use metrics::{Histogram, MetricKey, MetricRegistry, TrafficClass};
pub use prom::render_prometheus;
pub use stream::{
    detect_format, jsonl_events, jsonl_to_chrome, read_trace_auto, StreamStats, StreamingTracer,
    TraceFormat,
};
pub use trace::{parse_trace_event, ChromeTrace, Span, SpanSink, TraceEvent, Tracer, TrackId};
pub use window::RollingWindow;

/// A metric registry and a span sink bundled together — the single
/// handle instrumented code threads through `*_observed` entry points.
///
/// The sink defaults to the in-memory [`Tracer`]; plain `Observer` keeps
/// working everywhere. Pair with a [`StreamingTracer`] (via
/// [`Observer::with_trace`]) to stream spans to disk under a byte
/// budget instead of holding them all in RAM.
#[derive(Debug, Clone, Default)]
pub struct Observer<S: SpanSink = Tracer> {
    /// Counters, gauges, histograms for this run.
    pub metrics: MetricRegistry,
    /// Span sink on the virtual clock.
    pub trace: S,
}

impl Observer {
    /// An empty observer recording into an in-memory [`Tracer`].
    pub fn new() -> Self {
        Self::default()
    }
}

impl<S: SpanSink> Observer<S> {
    /// An observer recording spans into `trace` (e.g. a
    /// [`StreamingTracer`]) with a fresh metric registry.
    pub fn with_trace(trace: S) -> Self {
        Observer {
            metrics: MetricRegistry::new(),
            trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observer_bundles_metrics_and_trace() {
        let mut obs = Observer::new();
        obs.metrics.inc(MetricKey::TotalCycles, 500);
        let t = obs.trace.track("iter");
        obs.trace.span(t, "layer", "fwd", 0, 500);
        assert_eq!(obs.metrics.counter(MetricKey::TotalCycles), 500);
        assert_eq!(obs.trace.category_cycles("layer"), 500);
    }
}
