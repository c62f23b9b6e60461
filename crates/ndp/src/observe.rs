//! Export of worker-local activity into the [`wmpt_obs`] metric registry.
//!
//! The worker model is cost-based (it returns totals, not event streams),
//! so observation is a pure fold: a [`WorkerCost`] or a [`Dram`] is mapped
//! into counters and gauges after the fact. This keeps the hot path free
//! of any instrumentation — recording is opt-in and zero-cost when unused.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock, PoisonError};

use wmpt_obs::{MetricKey, MetricRegistry};
use wmpt_sim::Time;

use crate::dram::{Dram, DramConfig};
use crate::params::NdpParams;
use crate::worker::WorkerCost;

/// Records a worker-phase cost into `reg`: systolic MACs and busy cycles,
/// vector busy cycles, DRAM/SRAM traffic.
pub fn record_worker_cost(reg: &mut MetricRegistry, cost: &WorkerCost) {
    reg.inc(MetricKey::SystolicMacs, cost.macs);
    reg.inc(MetricKey::SystolicBusyCycles, cost.systolic_cycles);
    reg.inc(MetricKey::VectorBusyCycles, cost.vector_cycles);
    reg.inc(MetricKey::DramBytes, cost.dram_bytes);
    reg.inc(MetricKey::SramBytes, cost.sram_bytes);
}

/// Sets the systolic/vector utilization gauges for a phase that spanned
/// `elapsed` cycles (accumulated busy cycles over wall-clock cycles).
pub fn record_utilization(
    reg: &mut MetricRegistry,
    params: &NdpParams,
    cost: &WorkerCost,
    elapsed: Time,
) {
    let _ = params;
    if elapsed == 0 {
        return;
    }
    reg.set_gauge(
        MetricKey::SystolicUtilization,
        cost.systolic_cycles as f64 / elapsed as f64,
    );
    reg.set_gauge(
        MetricKey::VectorUtilization,
        cost.vector_cycles as f64 / elapsed as f64,
    );
}

/// Cycles a phase spends stalled on DRAM: the amount by which the DRAM
/// stream outruns the compute pipelines in the pipelined cost model
/// ([`WorkerCost::pipelined_cycles`] = max(systolic, vector, dram)).
/// Zero when the phase is compute-bound.
pub fn dram_stall_cycles(params: &NdpParams, cost: &WorkerCost) -> Time {
    cost.dram_cycles(params)
        .saturating_sub(cost.systolic_cycles.max(cost.vector_cycles))
}

/// Records a detailed-DRAM-model run: row-buffer hits and misses.
pub fn record_dram(reg: &mut MetricRegistry, dram: &Dram) {
    reg.inc(MetricKey::DramRowHits, dram.row_hits());
    reg.inc(MetricKey::DramRowMisses, dram.row_misses());
}

/// Bytes of a phase's traffic streamed through the detailed model by
/// [`record_dram_profile`]; larger phases are profiled on this prefix.
const DRAM_PROFILE_SAMPLE_CAP: u64 = 256 * 1024;

/// Streams a byte sample through a fresh detailed FR-FCFS model of
/// `config` and records scaled row-hit/miss counters for a phase that
/// actually moved `total_bytes`. The sample is capped so observation
/// stays cheap even for multi-GiB phases; hit/miss *ratios* are
/// scale-free for streaming traffic, so the scaled counts remain
/// representative.
pub fn record_dram_profile(reg: &mut MetricRegistry, config: DramConfig, total_bytes: u64) {
    if total_bytes == 0 {
        return;
    }
    let sample = total_bytes.min(DRAM_PROFILE_SAMPLE_CAP);
    let (hits, misses) = stream_row_profile(config, sample);
    let scale = total_bytes as f64 / sample as f64;
    reg.inc(MetricKey::DramRowHits, (hits as f64 * scale).round() as u64);
    reg.inc(
        MetricKey::DramRowMisses,
        (misses as f64 * scale).round() as u64,
    );
}

/// Row-buffer `(hits, misses)` of [`Dram::stream_cycles`]`(bytes)` on a
/// fresh model of `config`.
///
/// A fresh model starts with every row closed and streams from address
/// 0, so the counts are a pure function of the configuration and the
/// burst count — the memo key. Every observed layer profiles the same
/// capped sample, so the process-wide memo turns all but the first run
/// per configuration into a lookup; keys are bounded by the cap's burst
/// count per configuration.
fn stream_row_profile(config: DramConfig, bytes: u64) -> (u64, u64) {
    type Memo = Mutex<HashMap<(DramConfig, u64), (u64, u64)>>;
    static MEMO: OnceLock<Memo> = OnceLock::new();
    let key = (config, bytes.div_ceil(config.burst_bytes as u64));
    // Every update is one insert of a finished value, so a guard
    // recovered from a poisoned lock still sees a valid map.
    let memo = || {
        MEMO.get_or_init(Memo::default)
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    };
    if let Some(&profile) = memo().get(&key) {
        return profile;
    }
    // Computed outside the lock: racing threads derive the same value.
    let mut dram = Dram::new(config);
    dram.stream_cycles(bytes);
    let profile = (dram.row_hits(), dram.row_misses());
    memo().insert(key, profile);
    profile
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::systolic::gemm;

    #[test]
    fn worker_cost_maps_to_counters() {
        let p = NdpParams::paper_fp32();
        let c = WorkerCost::default().with_gemm(&gemm(&p, 256, 128, 256, 0.5));
        let mut reg = MetricRegistry::new();
        record_worker_cost(&mut reg, &c);
        assert_eq!(reg.counter(MetricKey::SystolicMacs), c.macs);
        assert_eq!(
            reg.counter(MetricKey::SystolicBusyCycles),
            c.systolic_cycles
        );
        assert_eq!(reg.counter(MetricKey::DramBytes), c.dram_bytes);
    }

    #[test]
    fn utilization_gauges_are_fractions() {
        let p = NdpParams::paper_fp32();
        let c = WorkerCost {
            systolic_cycles: 80,
            vector_cycles: 20,
            ..Default::default()
        };
        let mut reg = MetricRegistry::new();
        record_utilization(&mut reg, &p, &c, 100);
        assert_eq!(reg.gauge(MetricKey::SystolicUtilization), Some(0.8));
        assert_eq!(reg.gauge(MetricKey::VectorUtilization), Some(0.2));
    }

    #[test]
    fn dram_stall_is_excess_over_compute() {
        let p = NdpParams::paper_fp32();
        let mut c = WorkerCost {
            systolic_cycles: 100,
            vector_cycles: 40,
            ..Default::default()
        };
        // No DRAM traffic: compute-bound, no stall.
        c.dram_bytes = 0;
        assert_eq!(dram_stall_cycles(&p, &c), 0);
        // Enough traffic that the stream dominates: stall is the overhang,
        // and pipelined = compute + stall.
        c.dram_bytes = 1_000_000;
        let stall = dram_stall_cycles(&p, &c);
        assert_eq!(c.dram_cycles(&p), 100 + stall);
        assert_eq!(c.pipelined_cycles(&p), 100 + stall);
    }

    #[test]
    fn dram_profile_scales_sample_to_total() {
        let mut reg = MetricRegistry::new();
        record_dram_profile(&mut reg, DramConfig::hmc(), 4 << 20);
        let hits = reg.counter(MetricKey::DramRowHits);
        let misses = reg.counter(MetricKey::DramRowMisses);
        // Scaled totals approximate one burst per burst_bytes of traffic.
        let bursts = (4u64 << 20) / 32;
        let total = hits + misses;
        assert!(
            total.abs_diff(bursts) * 20 < bursts,
            "scaled {total} vs expected {bursts}"
        );
        assert!(hits > misses);
    }

    /// A non-HMC geometry: fewer, wider vaults with larger bursts and a
    /// narrower scheduling window, so the memo is exercised on a key
    /// whose burst rounding and row layout differ from the default.
    fn narrow_config() -> DramConfig {
        DramConfig {
            vaults: 4,
            banks_per_vault: 4,
            row_bytes: 512,
            burst_bytes: 64,
            burst_cycles: 3,
            act_cycles: 10,
            pre_cycles: 12,
            cas_cycles: 9,
            scheduler_window: 8,
        }
    }

    /// The profile recorded by [`record_dram_profile`] without the memo:
    /// a fresh model streams the capped sample and the counts scale up.
    fn reference_profile(config: DramConfig, total_bytes: u64) -> (u64, u64) {
        let sample = total_bytes.min(DRAM_PROFILE_SAMPLE_CAP);
        let mut dram = Dram::new(config);
        dram.stream_cycles(sample);
        if total_bytes == 0 {
            return (0, 0);
        }
        let scale = total_bytes as f64 / sample as f64;
        (
            (dram.row_hits() as f64 * scale).round() as u64,
            (dram.row_misses() as f64 * scale).round() as u64,
        )
    }

    #[test]
    fn memoised_profile_is_bit_exact_against_a_fresh_model() {
        let cap = DRAM_PROFILE_SAMPLE_CAP;
        let sizes = [0, 1, 31, 32, 33, 4096, cap - 1, cap, cap + 1, 4 << 30];
        for config in [DramConfig::hmc(), narrow_config()] {
            for &bytes in &sizes {
                let expect = reference_profile(config, bytes);
                // Twice: the first call may fill the memo, the second
                // must be served from it with the same counts.
                for pass in ["cold", "warm"] {
                    let mut reg = MetricRegistry::new();
                    record_dram_profile(&mut reg, config, bytes);
                    let got = (
                        reg.counter(MetricKey::DramRowHits),
                        reg.counter(MetricKey::DramRowMisses),
                    );
                    assert_eq!(got, expect, "{pass} {bytes} B on {config:?}");
                }
                let sample = bytes.min(cap);
                let mut dram = Dram::new(config);
                dram.stream_cycles(sample);
                assert_eq!(
                    stream_row_profile(config, sample),
                    (dram.row_hits(), dram.row_misses()),
                    "raw sample {sample} B on {config:?}"
                );
            }
        }
    }
}
