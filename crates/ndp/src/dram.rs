//! 3-D-stacked (HMC-style) DRAM model with vaults, banks, row buffers and
//! an FR-FCFS scheduler (paper Table III: "HMC org. scheduler: FR-FCFS",
//! 320 GB/s).
//!
//! The coarse bandwidth/latency roofline used by the execution model is
//! the steady-state limit of this detailed model; tests here verify that
//! streaming access patterns actually reach the advertised bandwidth
//! while pathological (row-thrashing) patterns do not — the property that
//! justifies the roofline for the bulk-sequential traffic CNN training
//! generates.

use std::collections::VecDeque;

use wmpt_sim::Time;

/// HMC-style memory geometry and timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DramConfig {
    /// Number of vaults (independent channels through TSVs).
    pub vaults: usize,
    /// Banks per vault.
    pub banks_per_vault: usize,
    /// Row-buffer (page) size in bytes.
    pub row_bytes: usize,
    /// Burst granularity in bytes (one request = one burst).
    pub burst_bytes: usize,
    /// Cycles to transfer one burst over a vault's TSV bus.
    pub burst_cycles: Time,
    /// Row activation latency (tRCD-ish), cycles.
    pub act_cycles: Time,
    /// Precharge latency (tRP-ish), cycles.
    pub pre_cycles: Time,
    /// Column access latency on a row hit (tCL-ish), cycles.
    pub cas_cycles: Time,
    /// FR-FCFS scheduling window: how many queued requests the controller
    /// considers for reordering (real controllers are finite; this also
    /// bounds simulation cost to O(n·window)).
    pub scheduler_window: usize,
}

impl DramConfig {
    /// An HMC-like stack: 16 vaults × 8 banks, 256 B rows, 32 B bursts.
    /// Peak bandwidth = vaults × burst_bytes / burst_cycles
    /// = 16 × 32 / 1.6 = 320 B/cycle, matching Table III.
    pub const fn hmc() -> Self {
        Self {
            vaults: 16,
            banks_per_vault: 8,
            row_bytes: 256,
            burst_bytes: 32,
            burst_cycles: 2, // integer approximation; peak 256 B/cycle
            act_cycles: 14,
            pre_cycles: 14,
            cas_cycles: 11,
            scheduler_window: 32,
        }
    }

    /// Peak bandwidth in bytes/cycle.
    pub fn peak_bandwidth(&self) -> f64 {
        self.vaults as f64 * self.burst_bytes as f64 / self.burst_cycles as f64
    }
}

impl Default for DramConfig {
    fn default() -> Self {
        Self::hmc()
    }
}

/// A memory request (one burst).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramRequest {
    /// Byte address.
    pub addr: u64,
    /// Arrival cycle at the controller.
    pub arrive: Time,
}

#[derive(Debug, Clone, Copy)]
struct Bank {
    open_row: Option<u64>,
    ready_at: Time,
}

/// The vault controller bank state plus a FIFO of pending requests.
#[derive(Debug)]
struct Vault {
    banks: Vec<Bank>,
    queue: VecDeque<(DramRequest, usize)>, // (request, original index)
    bus_free: Time,
}

/// An FR-FCFS DRAM subsystem: requests to open rows are served before
/// older requests that need an activation.
#[derive(Debug)]
pub struct Dram {
    config: DramConfig,
    vaults: Vec<Vault>,
    served: u64,
    row_hits: u64,
    row_misses: u64,
}

impl Dram {
    /// Creates an idle memory subsystem.
    pub fn new(config: DramConfig) -> Self {
        let vaults = (0..config.vaults)
            .map(|_| Vault {
                banks: vec![
                    Bank {
                        open_row: None,
                        ready_at: 0
                    };
                    config.banks_per_vault
                ],
                queue: VecDeque::new(),
                bus_free: 0,
            })
            .collect();
        Self {
            config,
            vaults,
            served: 0,
            row_hits: 0,
            row_misses: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    fn map(&self, addr: u64) -> (usize, usize, u64) {
        // Address interleaving: bursts stripe across vaults, then banks,
        // then rows — the layout that maximizes streaming bandwidth.
        let burst = addr / self.config.burst_bytes as u64;
        let vault = (burst % self.config.vaults as u64) as usize;
        let per_vault = burst / self.config.vaults as u64;
        let bursts_per_row = (self.config.row_bytes / self.config.burst_bytes) as u64;
        let bank = ((per_vault / bursts_per_row) % self.config.banks_per_vault as u64) as usize;
        let row = per_vault / bursts_per_row / self.config.banks_per_vault as u64;
        (vault, bank, row)
    }

    /// Services a batch of requests with FR-FCFS scheduling; returns the
    /// completion cycle of each request (same order as `requests`).
    pub fn service(&mut self, requests: &[DramRequest]) -> Vec<Time> {
        let mut completions = vec![0; requests.len()];
        for (i, r) in requests.iter().enumerate() {
            let (v, _, _) = self.map(r.addr);
            self.vaults[v].queue.push_back((*r, i));
        }
        let cfg = self.config;
        for v in &mut self.vaults {
            while !v.queue.is_empty() {
                // FR-FCFS: among all pending requests, issue the one with
                // the earliest feasible start (arrival + bank readiness);
                // row hits win ties over misses, FIFO order breaks the
                // rest. This lets one bank activate while another streams
                // row hits — the overlap that reaches peak bandwidth.
                let window = cfg.scheduler_window.min(v.queue.len());
                let pick_qi = (0..window)
                    .min_by_key(|&qi| {
                        let (r, _) = v.queue[qi];
                        let (vv, b, row) = map_of(&cfg, r.addr);
                        debug_assert_eq!(vv, vault_index(&cfg, r.addr));
                        let start = r.arrive.max(v.banks[b].ready_at);
                        let miss = (v.banks[b].open_row != Some(row)) as u64;
                        (start, miss, qi)
                    })
                    .expect("queue nonempty");
                let (r, orig) = v.queue.remove(pick_qi).expect("index valid");
                let (_, b, row) = map_of(&cfg, r.addr);
                let bank = &mut v.banks[b];
                let start = r.arrive.max(bank.ready_at);
                // Latency delays the data return; occupancy is how long
                // the bank is unavailable — row hits pipeline at the
                // burst interval (tCCD) even though CAS latency is long.
                let (latency, occupancy) = match bank.open_row {
                    Some(open) if open == row => {
                        self.row_hits += 1;
                        (cfg.cas_cycles, cfg.burst_cycles)
                    }
                    Some(_) => {
                        self.row_misses += 1;
                        (
                            cfg.pre_cycles + cfg.act_cycles + cfg.cas_cycles,
                            cfg.pre_cycles + cfg.act_cycles + cfg.burst_cycles,
                        )
                    }
                    None => {
                        self.row_misses += 1;
                        (
                            cfg.act_cycles + cfg.cas_cycles,
                            cfg.act_cycles + cfg.burst_cycles,
                        )
                    }
                };
                bank.open_row = Some(row);
                bank.ready_at = start + occupancy;
                let data_start = (start + latency).max(v.bus_free);
                let done = data_start + cfg.burst_cycles;
                v.bus_free = done;
                completions[orig] = done;
                self.served += 1;
            }
        }
        completions
    }

    /// Convenience: time to stream `bytes` sequentially starting at
    /// address 0, arriving back-to-back.
    pub fn stream_cycles(&mut self, bytes: u64) -> Time {
        let n = bytes.div_ceil(self.config.burst_bytes as u64);
        let reqs: Vec<DramRequest> = (0..n)
            .map(|i| DramRequest {
                addr: i * self.config.burst_bytes as u64,
                arrive: 0,
            })
            .collect();
        self.service(&reqs).into_iter().max().unwrap_or(0)
    }

    /// Requests served so far.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Row-buffer hits (request to an already-open row) — observability
    /// counter, exported as `ndp.dram_row_hits`.
    pub fn row_hits(&self) -> u64 {
        self.row_hits
    }

    /// Row-buffer misses (conflict precharge+activate or cold activate) —
    /// observability counter, exported as `ndp.dram_row_misses`.
    pub fn row_misses(&self) -> u64 {
        self.row_misses
    }
}

fn vault_index(cfg: &DramConfig, addr: u64) -> usize {
    ((addr / cfg.burst_bytes as u64) % cfg.vaults as u64) as usize
}

fn map_of(cfg: &DramConfig, addr: u64) -> (usize, usize, u64) {
    let burst = addr / cfg.burst_bytes as u64;
    let vault = (burst % cfg.vaults as u64) as usize;
    let per_vault = burst / cfg.vaults as u64;
    let bursts_per_row = (cfg.row_bytes / cfg.burst_bytes) as u64;
    let bank = ((per_vault / bursts_per_row) % cfg.banks_per_vault as u64) as usize;
    let row = per_vault / bursts_per_row / cfg.banks_per_vault as u64;
    (vault, bank, row)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_bandwidth_matches_table_iii_scale() {
        let c = DramConfig::hmc();
        // 16 x 32 / 2 = 256 B/cycle — the integer-cycle approximation of
        // the 320 GB/s part (the roofline model uses 320 directly).
        assert_eq!(c.peak_bandwidth(), 256.0);
    }

    #[test]
    fn streaming_reaches_most_of_peak() {
        let mut d = Dram::new(DramConfig::hmc());
        let bytes = 1u64 << 20; // 1 MiB
        let t = d.stream_cycles(bytes);
        let achieved = bytes as f64 / t as f64;
        let peak = d.config().peak_bandwidth();
        assert!(
            achieved > 0.8 * peak,
            "streaming achieved {achieved:.0} B/cy of peak {peak:.0}"
        );
    }

    #[test]
    fn row_thrashing_is_much_slower() {
        let cfg = DramConfig::hmc();
        let mut d = Dram::new(cfg);
        // Hit a single vault and alternate rows in one bank: worst case.
        let row_span = (cfg.row_bytes * cfg.banks_per_vault * cfg.vaults) as u64;
        let reqs: Vec<DramRequest> = (0..256)
            .map(|i| DramRequest {
                addr: (i % 2) * row_span * 64,
                arrive: 0,
            })
            .collect();
        let thrash = *d.service(&reqs).iter().max().expect("nonempty");
        let mut d2 = Dram::new(cfg);
        let stream = d2.stream_cycles(256 * cfg.burst_bytes as u64);
        assert!(
            thrash > 3 * stream,
            "thrashing {thrash} should be much slower than streaming {stream}"
        );
    }

    #[test]
    fn fr_fcfs_prefers_open_rows() {
        let cfg = DramConfig::hmc();
        let mut d = Dram::new(cfg);
        let row_span = (cfg.row_bytes * cfg.banks_per_vault * cfg.vaults) as u64;
        // Request A opens row 0; B needs row 1 (older), C hits row 0.
        let reqs = vec![
            DramRequest { addr: 0, arrive: 0 },
            DramRequest {
                addr: row_span * 64,
                arrive: 1,
            },
            DramRequest {
                addr: cfg.burst_bytes as u64 * cfg.vaults as u64,
                arrive: 2,
            },
        ];
        let done = d.service(&reqs);
        // C (row hit) completes before B (row miss) despite arriving later.
        assert!(
            done[2] < done[1],
            "row hit {} should beat row miss {}",
            done[2],
            done[1]
        );
    }

    #[test]
    fn vault_parallelism_scales_bandwidth() {
        // Same burst count confined to one vault vs striped over all.
        let cfg = DramConfig::hmc();
        let mut striped = Dram::new(cfg);
        let t_striped = striped.stream_cycles(4096 * 16);
        let mut single = Dram::new(cfg);
        let stride = (cfg.burst_bytes * cfg.vaults) as u64;
        let reqs: Vec<DramRequest> = (0..4096 / cfg.burst_bytes as u64 * 16)
            .map(|i| DramRequest {
                addr: i * stride,
                arrive: 0,
            })
            .collect();
        let t_single = *single.service(&reqs).iter().max().expect("nonempty");
        assert!(
            t_single > 8 * t_striped,
            "single-vault {t_single} vs striped {t_striped}"
        );
    }

    #[test]
    fn completions_cover_all_requests() {
        let mut d = Dram::new(DramConfig::hmc());
        let reqs: Vec<DramRequest> = (0..100)
            .map(|i| DramRequest {
                addr: i * 32,
                arrive: i,
            })
            .collect();
        let done = d.service(&reqs);
        assert_eq!(done.len(), 100);
        assert!(done.iter().all(|&t| t > 0));
        assert_eq!(d.served(), 100);
    }

    #[test]
    fn row_counters_partition_served_requests() {
        let mut d = Dram::new(DramConfig::hmc());
        d.stream_cycles(1 << 16);
        assert_eq!(d.row_hits() + d.row_misses(), d.served());
        // Streaming is row-friendly: mostly hits.
        assert!(
            d.row_hits() > 4 * d.row_misses(),
            "streaming should mostly hit: {} hits vs {} misses",
            d.row_hits(),
            d.row_misses()
        );
        // Thrashing flips the ratio — submit one request at a time so
        // FR-FCFS cannot batch same-row requests out of the conflict.
        let cfg = DramConfig::hmc();
        let mut t = Dram::new(cfg);
        let row_span = (cfg.row_bytes * cfg.banks_per_vault * cfg.vaults) as u64;
        for i in 0..64u64 {
            t.service(&[DramRequest {
                addr: (i % 2) * row_span * 64,
                arrive: 0,
            }]);
        }
        assert!(t.row_misses() > t.row_hits());
    }
}
