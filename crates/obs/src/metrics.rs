//! Typed metric registry: counters, gauges, and histograms keyed by
//! [`MetricKey`].
//!
//! Every metric the simulation stack emits is named by a typed key rather
//! than a free-form string, so instrumentation sites cannot silently
//! diverge from the consumers (tables, JSON export, tests). Registries are
//! plain values — no global state — and merge associatively, so per-worker
//! or per-layer registries can be combined into a run-level one.

use crate::json::{self, Value};
use std::collections::BTreeMap;

/// Traffic class of NoC metrics: which logical flow the bytes belong to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TrafficClass {
    /// Forward-pass all-to-all distributing input tiles to clusters.
    TileScatter,
    /// Backward-pass all-to-all collecting dX tiles from clusters.
    TileGather,
    /// Ring reduce phase of the weight-gradient collective.
    Reduce,
    /// Ring broadcast phase of the updated-weight collective.
    Broadcast,
}

impl TrafficClass {
    /// All traffic classes, in serialization order.
    pub const ALL: [TrafficClass; 4] = [
        TrafficClass::TileScatter,
        TrafficClass::TileGather,
        TrafficClass::Reduce,
        TrafficClass::Broadcast,
    ];

    /// Stable lower-snake name used in serialized keys.
    pub fn name(self) -> &'static str {
        match self {
            TrafficClass::TileScatter => "tile_scatter",
            TrafficClass::TileGather => "tile_gather",
            TrafficClass::Reduce => "reduce",
            TrafficClass::Broadcast => "broadcast",
        }
    }
}

/// A typed metric name. See each variant for meaning and units.
///
/// Keys serialize to stable dotted strings (e.g.
/// `noc.flits_injected.tile_scatter`); [`MetricKey::parse`] inverts
/// [`MetricKey::name`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MetricKey {
    // --- NoC (counter, unless noted) ---
    /// Flits injected into the network for a traffic class
    /// (16-byte flits of the paper's narrow links).
    FlitsInjected(TrafficClass),
    /// Flits delivered to their destination for a traffic class.
    /// Equals [`MetricKey::FlitsInjected`] per class in the lossless model.
    FlitsDelivered(TrafficClass),
    /// Packets (payload + 8 B header) injected for a traffic class.
    PacketsInjected(TrafficClass),
    /// Payload + header bytes crossing links for a traffic class,
    /// counted once per packet (not per hop).
    BytesOnWire(TrafficClass),

    // --- Tile transfer (counter) ---
    /// Tile bytes that would move in the forward gather without
    /// activation prediction.
    TileBytesFwdTotal,
    /// Tile bytes actually skipped in the forward gather because the
    /// predictor marked the output tile dead (prediction savings).
    TileBytesSavedGather,
    /// Tile bytes actually skipped in the backward scatter because the
    /// stored activation tile was all-zero (zero-skip savings).
    TileBytesSavedScatter,

    // --- NDP worker (counter, unless noted) ---
    /// Multiply-accumulates executed by systolic arrays.
    SystolicMacs,
    /// Cycles systolic arrays spent busy.
    SystolicBusyCycles,
    /// Cycles vector units spent busy (transforms, ReLU, weight update).
    VectorBusyCycles,
    /// Gauge: systolic-array utilization in `[0, 1]` over the layer.
    SystolicUtilization,
    /// Gauge: vector-unit utilization in `[0, 1]` over the layer.
    VectorUtilization,
    /// Bytes moved between DRAM and the NDP SRAM buffers.
    DramBytes,
    /// Bytes moved between SRAM buffers and compute units.
    SramBytes,
    /// DRAM accesses that hit an open row (FR-FCFS row-buffer hit).
    DramRowHits,
    /// DRAM accesses that required activate + precharge (row miss).
    DramRowMisses,

    // --- Collectives (counter) ---
    /// Cycles of the ring reduce half of the gradient collective.
    CollectiveReduceCycles,
    /// Cycles of the ring broadcast half of the weight collective.
    CollectiveBroadcastCycles,
    /// Total collective cycles charged to the layer (reduce + broadcast,
    /// after overlap with backward compute).
    CollectiveCycles,

    // --- Simulation kernel (counter) ---
    /// Events pushed into discrete-event queues.
    SimEventsPushed,
    /// Events popped from discrete-event queues.
    SimEventsPopped,

    // --- Execution rollup (counter) ---
    /// Compute cycles summed over simulated phases.
    ComputeCycles,
    /// Communication cycles summed over simulated phases.
    CommCycles,
    /// End-to-end cycles of the simulated iteration/layer.
    TotalCycles,

    // --- Fault injection & recovery (counter, see `wmpt-fault`) ---
    /// Fault events injected from a `FaultPlan` (all kinds).
    FaultEventsInjected,
    /// Physical links failed permanently.
    FaultLinksFailed,
    /// Workers lost permanently.
    FaultWorkersLost,
    /// Transient DRAM bit flips detected (and repaired by rollback).
    FaultBitFlipsDetected,
    /// Collective rings re-formed around failed links/nodes.
    FaultReroutes,
    /// Extra ring hops accumulated by rerouted collectives (the
    /// documented hop-count penalty of degraded routing).
    FaultExtraRingHops,
    /// Trainer checkpoints taken.
    FaultCheckpoints,
    /// Rollbacks to the last checkpoint.
    FaultRollbacks,
    /// Iterations replayed after a rollback.
    FaultReplayedIterations,
    /// Cycles spent detecting faults, restoring state, and replaying.
    FaultRecoveryCycles,

    // --- Host-parallel runtime (`wmpt-par`) ---
    /// Gauge: host worker threads (`--jobs`) the run executed with.
    ParJobs,

    // --- Serving tier (`wmpt-serve`, counter unless noted) ---
    /// HTTP job submissions accepted for consideration (everything that
    /// reached the submit handler, whatever the outcome).
    ServeRequests,
    /// Submissions answered straight from the content-addressed result
    /// cache (the simulator is deterministic, so a hit is exact).
    ServeCacheHits,
    /// Submissions that missed the cache and were enqueued.
    ServeCacheMisses,
    /// Cached results evicted to keep the cache inside its byte budget.
    ServeCacheEvictions,
    /// Submissions coalesced onto an identical in-flight job
    /// (single-flight deduplication; neither a hit nor a new job).
    ServeCoalesced,
    /// Submissions rejected with HTTP 429 because the bounded job queue
    /// was full (backpressure).
    ServeRejectedOverload,
    /// Submissions rejected with HTTP 503 because the server was
    /// draining for shutdown.
    ServeRejectedShutdown,
    /// Jobs a worker actually executed (completed or failed).
    ServeJobsExecuted,
    /// Executed jobs that panicked; each ended `failed`, and its worker
    /// went on serving.
    ServeJobPanics,
    /// Gauge: resident bytes of the result cache after the last insert
    /// or eviction.
    ServeCacheBytes,

    // --- Parallelism auto-search (`wmpt-opt`, counter unless noted) ---
    /// Closed-form cost-model evaluations actually executed (memo
    /// misses that ran `simulate_layer_with`).
    OptConfigsEvaluated,
    /// Cost-model evaluations answered from the canonical-hash memo.
    OptMemoHits,
    /// Cost-model evaluations that missed the memo.
    OptMemoMisses,
    /// Dynamic-programming states expanded (layer × decision pairs).
    OptDpStates,

    // --- Observability self-metrics (streaming sink, see `trace`) ---
    /// Spans written out (as JSONL complete events) by a streaming sink.
    ObsSpansEmitted,
    /// Times a streaming sink flushed its pending buffer to the writer.
    ObsFlushes,
    /// Gauge: peak bytes of pending JSONL a streaming sink held in
    /// memory — bounded by the sink's configured byte budget.
    ObsPeakBufferBytes,
    /// Open (unclosed) spans auto-closed at export/finalize time; a
    /// nonzero value means the trace tail was synthesized.
    ObsTruncatedSpans,

    // --- Histograms ---
    /// Histogram: bytes per (source, destination) tile-transfer pair.
    HistTilePairBytes,
    /// Histogram: cycles per simulated phase.
    HistPhaseCycles,
    /// Histogram: cycles per fault-recovery episode.
    HistRecoveryCycles,
    /// Histogram: host wall-clock milliseconds per experiment.
    HistExperimentHostMs,
    /// Histogram: end-to-end microseconds per served request (submit to
    /// terminal state), the p50/p95/p99 source of `BENCH_serve.json`.
    HistServeLatencyUs,
    /// Histogram: job-queue depth sampled at every submission.
    HistServeQueueDepth,
    /// Histogram: microseconds an executed job spent queued before a
    /// worker dequeued it (the server's queue-wait attribution source).
    HistServeQueueWaitUs,
    /// Histogram: host wall-clock milliseconds per auto-search.
    HistOptSearchMs,
}

impl MetricKey {
    /// Every key, with each parameterized key expanded over
    /// [`TrafficClass::ALL`]. Serialization order.
    pub fn all() -> Vec<MetricKey> {
        let mut keys = Vec::new();
        for tc in TrafficClass::ALL {
            keys.push(MetricKey::FlitsInjected(tc));
        }
        for tc in TrafficClass::ALL {
            keys.push(MetricKey::FlitsDelivered(tc));
        }
        for tc in TrafficClass::ALL {
            keys.push(MetricKey::PacketsInjected(tc));
        }
        for tc in TrafficClass::ALL {
            keys.push(MetricKey::BytesOnWire(tc));
        }
        keys.extend([
            MetricKey::TileBytesFwdTotal,
            MetricKey::TileBytesSavedGather,
            MetricKey::TileBytesSavedScatter,
            MetricKey::SystolicMacs,
            MetricKey::SystolicBusyCycles,
            MetricKey::VectorBusyCycles,
            MetricKey::SystolicUtilization,
            MetricKey::VectorUtilization,
            MetricKey::DramBytes,
            MetricKey::SramBytes,
            MetricKey::DramRowHits,
            MetricKey::DramRowMisses,
            MetricKey::CollectiveReduceCycles,
            MetricKey::CollectiveBroadcastCycles,
            MetricKey::CollectiveCycles,
            MetricKey::SimEventsPushed,
            MetricKey::SimEventsPopped,
            MetricKey::ComputeCycles,
            MetricKey::CommCycles,
            MetricKey::TotalCycles,
            MetricKey::FaultEventsInjected,
            MetricKey::FaultLinksFailed,
            MetricKey::FaultWorkersLost,
            MetricKey::FaultBitFlipsDetected,
            MetricKey::FaultReroutes,
            MetricKey::FaultExtraRingHops,
            MetricKey::FaultCheckpoints,
            MetricKey::FaultRollbacks,
            MetricKey::FaultReplayedIterations,
            MetricKey::FaultRecoveryCycles,
            MetricKey::ParJobs,
            MetricKey::ServeRequests,
            MetricKey::ServeCacheHits,
            MetricKey::ServeCacheMisses,
            MetricKey::ServeCacheEvictions,
            MetricKey::ServeCoalesced,
            MetricKey::ServeRejectedOverload,
            MetricKey::ServeRejectedShutdown,
            MetricKey::ServeJobsExecuted,
            MetricKey::ServeJobPanics,
            MetricKey::ServeCacheBytes,
            MetricKey::OptConfigsEvaluated,
            MetricKey::OptMemoHits,
            MetricKey::OptMemoMisses,
            MetricKey::OptDpStates,
            MetricKey::ObsSpansEmitted,
            MetricKey::ObsFlushes,
            MetricKey::ObsPeakBufferBytes,
            MetricKey::ObsTruncatedSpans,
            MetricKey::HistTilePairBytes,
            MetricKey::HistPhaseCycles,
            MetricKey::HistRecoveryCycles,
            MetricKey::HistExperimentHostMs,
            MetricKey::HistServeLatencyUs,
            MetricKey::HistServeQueueDepth,
            MetricKey::HistServeQueueWaitUs,
            MetricKey::HistOptSearchMs,
        ]);
        keys
    }

    /// Stable dotted string name, the serialized form of the key.
    pub fn name(self) -> String {
        match self {
            MetricKey::FlitsInjected(tc) => format!("noc.flits_injected.{}", tc.name()),
            MetricKey::FlitsDelivered(tc) => format!("noc.flits_delivered.{}", tc.name()),
            MetricKey::PacketsInjected(tc) => format!("noc.packets_injected.{}", tc.name()),
            MetricKey::BytesOnWire(tc) => format!("noc.bytes_on_wire.{}", tc.name()),
            MetricKey::TileBytesFwdTotal => "tile.bytes_fwd_total".to_string(),
            MetricKey::TileBytesSavedGather => "tile.bytes_saved_gather".to_string(),
            MetricKey::TileBytesSavedScatter => "tile.bytes_saved_scatter".to_string(),
            MetricKey::SystolicMacs => "ndp.systolic_macs".to_string(),
            MetricKey::SystolicBusyCycles => "ndp.systolic_busy_cycles".to_string(),
            MetricKey::VectorBusyCycles => "ndp.vector_busy_cycles".to_string(),
            MetricKey::SystolicUtilization => "ndp.systolic_utilization".to_string(),
            MetricKey::VectorUtilization => "ndp.vector_utilization".to_string(),
            MetricKey::DramBytes => "ndp.dram_bytes".to_string(),
            MetricKey::SramBytes => "ndp.sram_bytes".to_string(),
            MetricKey::DramRowHits => "ndp.dram_row_hits".to_string(),
            MetricKey::DramRowMisses => "ndp.dram_row_misses".to_string(),
            MetricKey::CollectiveReduceCycles => "coll.reduce_cycles".to_string(),
            MetricKey::CollectiveBroadcastCycles => "coll.broadcast_cycles".to_string(),
            MetricKey::CollectiveCycles => "coll.total_cycles".to_string(),
            MetricKey::SimEventsPushed => "sim.events_pushed".to_string(),
            MetricKey::SimEventsPopped => "sim.events_popped".to_string(),
            MetricKey::ComputeCycles => "exec.compute_cycles".to_string(),
            MetricKey::CommCycles => "exec.comm_cycles".to_string(),
            MetricKey::TotalCycles => "exec.total_cycles".to_string(),
            MetricKey::FaultEventsInjected => "fault.events_injected".to_string(),
            MetricKey::FaultLinksFailed => "fault.links_failed".to_string(),
            MetricKey::FaultWorkersLost => "fault.workers_lost".to_string(),
            MetricKey::FaultBitFlipsDetected => "fault.bit_flips_detected".to_string(),
            MetricKey::FaultReroutes => "fault.reroutes".to_string(),
            MetricKey::FaultExtraRingHops => "fault.extra_ring_hops".to_string(),
            MetricKey::FaultCheckpoints => "fault.checkpoints".to_string(),
            MetricKey::FaultRollbacks => "fault.rollbacks".to_string(),
            MetricKey::FaultReplayedIterations => "fault.replayed_iterations".to_string(),
            MetricKey::FaultRecoveryCycles => "fault.recovery_cycles".to_string(),
            MetricKey::ParJobs => "par.jobs".to_string(),
            MetricKey::ServeRequests => "serve.requests".to_string(),
            MetricKey::ServeCacheHits => "serve.cache_hits".to_string(),
            MetricKey::ServeCacheMisses => "serve.cache_misses".to_string(),
            MetricKey::ServeCacheEvictions => "serve.cache_evictions".to_string(),
            MetricKey::ServeCoalesced => "serve.coalesced".to_string(),
            MetricKey::ServeRejectedOverload => "serve.rejected_overload".to_string(),
            MetricKey::ServeRejectedShutdown => "serve.rejected_shutdown".to_string(),
            MetricKey::ServeJobsExecuted => "serve.jobs_executed".to_string(),
            MetricKey::ServeJobPanics => "serve.job_panics".to_string(),
            MetricKey::ServeCacheBytes => "serve.cache_bytes".to_string(),
            MetricKey::OptConfigsEvaluated => "opt.configs_evaluated".to_string(),
            MetricKey::OptMemoHits => "opt.memo_hits".to_string(),
            MetricKey::OptMemoMisses => "opt.memo_misses".to_string(),
            MetricKey::OptDpStates => "opt.dp_states".to_string(),
            MetricKey::ObsSpansEmitted => "obs.spans_emitted".to_string(),
            MetricKey::ObsFlushes => "obs.flushes".to_string(),
            MetricKey::ObsPeakBufferBytes => "obs.peak_buffer_bytes".to_string(),
            MetricKey::ObsTruncatedSpans => "obs.truncated_spans".to_string(),
            MetricKey::HistTilePairBytes => "hist.tile_pair_bytes".to_string(),
            MetricKey::HistPhaseCycles => "hist.phase_cycles".to_string(),
            MetricKey::HistRecoveryCycles => "hist.recovery_cycles".to_string(),
            MetricKey::HistExperimentHostMs => "hist.experiment_host_ms".to_string(),
            MetricKey::HistServeLatencyUs => "hist.serve_latency_us".to_string(),
            MetricKey::HistServeQueueDepth => "hist.serve_queue_depth".to_string(),
            MetricKey::HistServeQueueWaitUs => "hist.serve_queue_wait_us".to_string(),
            MetricKey::HistOptSearchMs => "hist.opt_search_ms".to_string(),
        }
    }

    /// Inverse of [`MetricKey::name`]; `None` for unknown names.
    pub fn parse(name: &str) -> Option<MetricKey> {
        MetricKey::all().into_iter().find(|k| k.name() == name)
    }
}

/// A histogram with power-of-two buckets plus count/sum/min/max.
///
/// Bucket `i` counts samples in `[2^i, 2^(i+1))`; bucket 0 also takes
/// samples below 1. Merging adds bucket-wise, so registries combine
/// without losing distribution shape.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Number of samples observed.
    pub count: u64,
    /// Sum of samples.
    pub sum: f64,
    /// Smallest sample (0 when empty).
    pub min: f64,
    /// Largest sample (0 when empty).
    pub max: f64,
    /// Power-of-two buckets; index = floor(log2(sample)) clamped to 0..64.
    pub buckets: [u64; 64],
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            count: 0,
            sum: 0.0,
            min: 0.0,
            max: 0.0,
            buckets: [0; 64],
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample (negative samples are clamped to 0).
    pub fn observe(&mut self, sample: f64) {
        let sample = sample.max(0.0);
        if self.count == 0 {
            self.min = sample;
            self.max = sample;
        } else {
            self.min = self.min.min(sample);
            self.max = self.max.max(sample);
        }
        self.count += 1;
        self.sum += sample;
        self.buckets[Self::bucket_index(sample)] += 1;
    }

    fn bucket_index(sample: f64) -> usize {
        if sample < 1.0 {
            0
        } else {
            (sample.log2().floor() as usize).min(63)
        }
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Estimated value at quantile `q` in `[0, 1]` (0 when empty).
    ///
    /// Edge cases are defined without bucket interpolation: an empty
    /// histogram returns 0; `q <= 0` (and NaN `q`) returns `min`;
    /// `q >= 1` returns `max`; a single sample — or any histogram whose
    /// samples are all equal — returns that exact value. Otherwise walks
    /// the power-of-two buckets to the one holding the sample of rank
    /// `ceil(q * count)` and interpolates linearly inside it, then clamps
    /// to the exact `[min, max]` observed — so any quantile is within one
    /// bucket width (a factor of 2) of the true sample value.
    pub fn percentile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        if q.is_nan() || q <= 0.0 {
            return self.min;
        }
        if q >= 1.0 {
            return self.max;
        }
        if self.count == 1 || self.min == self.max {
            return self.min;
        }
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut below = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if below + c >= rank {
                let lo = if i == 0 { 0.0 } else { 2f64.powi(i as i32) };
                let hi = 2f64.powi(i as i32 + 1);
                let frac = (rank - below) as f64 / c as f64;
                return (lo + frac * (hi - lo)).clamp(self.min, self.max);
            }
            below += c;
        }
        self.max
    }

    /// Adds every sample of `other` into `self`, bucket-wise.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (b, ob) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += ob;
        }
    }
}

/// A registry of counters, gauges, and histograms.
///
/// Plain value type — create one per simulation (or per worker) and
/// [`MetricRegistry::merge`] upward. Serializes to/from JSON with stable
/// key names, so emitted metric files round-trip.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricRegistry {
    counters: BTreeMap<MetricKey, u64>,
    gauges: BTreeMap<MetricKey, f64>,
    histograms: BTreeMap<MetricKey, Histogram>,
}

impl MetricRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `by` to counter `key`.
    pub fn inc(&mut self, key: MetricKey, by: u64) {
        *self.counters.entry(key).or_insert(0) += by;
    }

    /// Current value of counter `key` (0 if never incremented).
    pub fn counter(&self, key: MetricKey) -> u64 {
        self.counters.get(&key).copied().unwrap_or(0)
    }

    /// Sets gauge `key` to `value` (last write wins).
    pub fn set_gauge(&mut self, key: MetricKey, value: f64) {
        self.gauges.insert(key, value);
    }

    /// Current value of gauge `key`, if ever set.
    pub fn gauge(&self, key: MetricKey) -> Option<f64> {
        self.gauges.get(&key).copied()
    }

    /// Records `sample` into histogram `key`.
    pub fn observe(&mut self, key: MetricKey, sample: f64) {
        self.histograms.entry(key).or_default().observe(sample);
    }

    /// Histogram under `key`, if any sample was recorded.
    pub fn histogram(&self, key: MetricKey) -> Option<&Histogram> {
        self.histograms.get(&key)
    }

    /// Every recorded counter, in stable key order (Prometheus export
    /// and table rendering walk the registry through these).
    pub fn counters_iter(&self) -> impl Iterator<Item = (MetricKey, u64)> + '_ {
        self.counters.iter().map(|(k, v)| (*k, *v))
    }

    /// Every set gauge, in stable key order.
    pub fn gauges_iter(&self) -> impl Iterator<Item = (MetricKey, f64)> + '_ {
        self.gauges.iter().map(|(k, v)| (*k, *v))
    }

    /// Every recorded histogram, in stable key order.
    pub fn histograms_iter(&self) -> impl Iterator<Item = (MetricKey, &Histogram)> + '_ {
        self.histograms.iter().map(|(k, h)| (*k, h))
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Folds `other` into `self`: counters add, histograms merge
    /// bucket-wise, gauges take the larger magnitude reading (so a
    /// merged utilization reflects the busiest participant).
    pub fn merge(&mut self, other: &MetricRegistry) {
        for (k, v) in &other.counters {
            *self.counters.entry(*k).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            let slot = self.gauges.entry(*k).or_insert(*v);
            if v.abs() > slot.abs() {
                *slot = *v;
            }
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(*k).or_default().merge(h);
        }
    }

    /// Serializes to a JSON object:
    /// `{"counters": {...}, "gauges": {...}, "histograms": {...}}`.
    pub fn to_json(&self) -> Value {
        let counters = Value::Obj(
            self.counters
                .iter()
                .map(|(k, v)| (k.name(), Value::Num(*v as f64)))
                .collect(),
        );
        let gauges = Value::Obj(
            self.gauges
                .iter()
                .map(|(k, v)| (k.name(), Value::Num(*v)))
                .collect(),
        );
        let histograms = Value::Obj(
            self.histograms
                .iter()
                .map(|(k, h)| {
                    let nonzero: Vec<Value> = h
                        .buckets
                        .iter()
                        .enumerate()
                        .filter(|(_, c)| **c > 0)
                        .map(|(i, c)| Value::Arr(vec![Value::Num(i as f64), Value::Num(*c as f64)]))
                        .collect();
                    (
                        k.name(),
                        json::obj(vec![
                            ("count", Value::Num(h.count as f64)),
                            ("sum", Value::Num(h.sum)),
                            ("min", Value::Num(h.min)),
                            ("max", Value::Num(h.max)),
                            ("buckets", Value::Arr(nonzero)),
                        ]),
                    )
                })
                .collect(),
        );
        json::obj(vec![
            ("counters", counters),
            ("gauges", gauges),
            ("histograms", histograms),
        ])
    }

    /// Parses a registry back from [`MetricRegistry::to_json`] output.
    /// Unknown keys or malformed shapes are errors.
    pub fn from_json(v: &Value) -> Result<MetricRegistry, String> {
        let mut reg = MetricRegistry::new();
        let section = |name: &str| -> Result<Vec<(String, Value)>, String> {
            match v.get(name) {
                Some(Value::Obj(m)) => Ok(m.clone()),
                Some(_) => Err(format!("'{name}' is not an object")),
                None => Err(format!("missing '{name}'")),
            }
        };
        for (name, val) in section("counters")? {
            let key = MetricKey::parse(&name).ok_or(format!("unknown counter '{name}'"))?;
            let n = val
                .as_u64()
                .ok_or(format!("counter '{name}' is not a count"))?;
            reg.inc(key, n);
        }
        for (name, val) in section("gauges")? {
            let key = MetricKey::parse(&name).ok_or(format!("unknown gauge '{name}'"))?;
            let n = val
                .as_f64()
                .ok_or(format!("gauge '{name}' is not a number"))?;
            reg.set_gauge(key, n);
        }
        for (name, val) in section("histograms")? {
            let key = MetricKey::parse(&name).ok_or(format!("unknown histogram '{name}'"))?;
            let mut h = Histogram::new();
            let field = |f: &str| -> Result<f64, String> {
                val.get(f)
                    .and_then(Value::as_f64)
                    .ok_or(format!("histogram '{name}' missing '{f}'"))
            };
            h.count = field("count")? as u64;
            h.sum = field("sum")?;
            h.min = field("min")?;
            h.max = field("max")?;
            let buckets = val
                .get("buckets")
                .and_then(Value::as_arr)
                .ok_or(format!("histogram '{name}' missing 'buckets'"))?;
            for pair in buckets {
                let pair = pair
                    .as_arr()
                    .ok_or("bucket entry is not a pair".to_string())?;
                if pair.len() != 2 {
                    return Err("bucket entry is not a pair".to_string());
                }
                let idx = pair[0].as_u64().ok_or("bucket index".to_string())? as usize;
                let count = pair[1].as_u64().ok_or("bucket count".to_string())?;
                if idx >= h.buckets.len() {
                    return Err(format!("bucket index {idx} out of range"));
                }
                h.buckets[idx] = count;
            }
            reg.histograms.insert(key, h);
        }
        Ok(reg)
    }

    /// Plain-text table of every recorded metric, one per line, for
    /// terminal output.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let width = self
            .counters
            .keys()
            .chain(self.gauges.keys())
            .chain(self.histograms.keys())
            .map(|k| k.name().len())
            .max()
            .unwrap_or(0);
        for (k, v) in &self.counters {
            out.push_str(&format!("{:<width$}  {v}\n", k.name()));
        }
        for (k, v) in &self.gauges {
            out.push_str(&format!("{:<width$}  {v:.4}\n", k.name()));
        }
        for (k, h) in &self.histograms {
            out.push_str(&format!(
                "{:<width$}  n={} mean={:.1} min={} max={} p50={:.1} p95={:.1} p99={:.1}\n",
                k.name(),
                h.count,
                h.mean(),
                h.min,
                h.max,
                h.percentile(0.50),
                h.percentile(0.95),
                h.percentile(0.99),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_names_are_unique_and_parse_back() {
        let keys = MetricKey::all();
        let mut seen = std::collections::HashSet::new();
        for k in &keys {
            assert!(seen.insert(k.name()), "duplicate name {}", k.name());
            assert_eq!(MetricKey::parse(&k.name()), Some(*k));
        }
        assert_eq!(MetricKey::parse("noc.bogus"), None);
    }

    #[test]
    fn counters_accumulate() {
        let mut r = MetricRegistry::new();
        r.inc(MetricKey::SystolicMacs, 10);
        r.inc(MetricKey::SystolicMacs, 5);
        assert_eq!(r.counter(MetricKey::SystolicMacs), 15);
        assert_eq!(r.counter(MetricKey::DramBytes), 0);
    }

    #[test]
    fn merge_adds_counters_and_buckets() {
        let mut a = MetricRegistry::new();
        let mut b = MetricRegistry::new();
        a.inc(MetricKey::DramRowHits, 3);
        b.inc(MetricKey::DramRowHits, 4);
        b.inc(MetricKey::DramRowMisses, 1);
        a.set_gauge(MetricKey::SystolicUtilization, 0.5);
        b.set_gauge(MetricKey::SystolicUtilization, 0.9);
        a.observe(MetricKey::HistPhaseCycles, 100.0);
        b.observe(MetricKey::HistPhaseCycles, 300.0);
        a.merge(&b);
        assert_eq!(a.counter(MetricKey::DramRowHits), 7);
        assert_eq!(a.counter(MetricKey::DramRowMisses), 1);
        assert_eq!(a.gauge(MetricKey::SystolicUtilization), Some(0.9));
        let h = a.histogram(MetricKey::HistPhaseCycles).expect("histogram");
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 400.0);
        assert_eq!(h.min, 100.0);
        assert_eq!(h.max, 300.0);
    }

    #[test]
    fn json_round_trip_preserves_registry() {
        let mut r = MetricRegistry::new();
        for tc in TrafficClass::ALL {
            r.inc(MetricKey::FlitsInjected(tc), 11);
            r.inc(MetricKey::FlitsDelivered(tc), 11);
        }
        r.inc(MetricKey::TileBytesSavedGather, 4096);
        r.set_gauge(MetricKey::VectorUtilization, 0.25);
        r.observe(MetricKey::HistTilePairBytes, 64.0);
        r.observe(MetricKey::HistTilePairBytes, 130.0);
        let text = r.to_json().render();
        let back =
            MetricRegistry::from_json(&crate::json::parse(&text).expect("parse")).expect("decode");
        assert_eq!(back, r);
    }

    #[test]
    fn from_json_rejects_unknown_keys() {
        let text = r#"{"counters":{"made.up":1},"gauges":{},"histograms":{}}"#;
        let v = crate::json::parse(text).expect("parse");
        assert!(MetricRegistry::from_json(&v).is_err());
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let mut h = Histogram::new();
        h.observe(0.0); // bucket 0
        h.observe(1.0); // bucket 0
        h.observe(2.0); // bucket 1
        h.observe(1000.0); // bucket 9
        assert_eq!(h.buckets[0], 2);
        assert_eq!(h.buckets[1], 1);
        assert_eq!(h.buckets[9], 1);
        assert_eq!(h.count, 4);
    }

    #[test]
    fn percentiles_track_the_distribution() {
        let mut h = Histogram::new();
        for v in 1..=100 {
            h.observe(v as f64);
        }
        // Bucketed estimates are within one power-of-two bucket of truth.
        let p50 = h.percentile(0.50);
        assert!((32.0..=64.0).contains(&p50), "p50 = {p50}");
        let p95 = h.percentile(0.95);
        assert!((64.0..=100.0).contains(&p95), "p95 = {p95}");
        let p99 = h.percentile(0.99);
        assert!((64.0..=100.0).contains(&p99), "p99 = {p99}");
        // Extremes clamp to the exact observed range.
        assert_eq!(h.percentile(0.0), 1.0);
        assert_eq!(h.percentile(1.0), 100.0);
        assert!(h.percentile(0.5) >= h.percentile(0.1));
        assert!(h.percentile(0.99) >= h.percentile(0.5));
    }

    #[test]
    fn percentile_of_empty_and_singleton() {
        let h = Histogram::new();
        for q in [-1.0, 0.0, 0.5, 1.0, 2.0, f64::NAN] {
            assert_eq!(h.percentile(q), 0.0);
        }
        let mut h = Histogram::new();
        h.observe(42.0);
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(h.percentile(q), 42.0, "q = {q}");
        }
    }

    #[test]
    fn percentile_edge_quantiles_and_degenerate_inputs() {
        let mut h = Histogram::new();
        h.observe(7.0);
        h.observe(7.0);
        h.observe(7.0);
        // All-equal samples: every quantile is the exact value, not a
        // bucket-interpolated estimate.
        for q in [0.0, 0.3, 0.5, 0.9, 1.0] {
            assert_eq!(h.percentile(q), 7.0, "q = {q}");
        }
        let mut h = Histogram::new();
        h.observe(3.0);
        h.observe(100.0);
        // Out-of-range and non-finite q resolve to the observed extremes.
        assert_eq!(h.percentile(-0.5), 3.0);
        assert_eq!(h.percentile(0.0), 3.0);
        assert_eq!(h.percentile(1.0), 100.0);
        assert_eq!(h.percentile(7.5), 100.0);
        assert_eq!(h.percentile(f64::NAN), 3.0);
        assert_eq!(h.percentile(f64::INFINITY), 100.0);
    }

    #[test]
    fn table_includes_percentiles() {
        let mut r = MetricRegistry::new();
        r.observe(MetricKey::HistRecoveryCycles, 10.0);
        let table = r.render_table();
        assert!(table.contains("hist.recovery_cycles"));
        assert!(table.contains("p50="));
        assert!(table.contains("p99="));
    }

    #[test]
    fn table_lists_every_metric() {
        let mut r = MetricRegistry::new();
        r.inc(MetricKey::CollectiveCycles, 7);
        r.set_gauge(MetricKey::SystolicUtilization, 0.75);
        r.observe(MetricKey::HistPhaseCycles, 42.0);
        let table = r.render_table();
        assert!(table.contains("coll.total_cycles"));
        assert!(table.contains("ndp.systolic_utilization"));
        assert!(table.contains("hist.phase_cycles"));
    }
}
