//! Energy accounting for the NDP system (paper §VII-A, Fig 15's energy
//! bars).
//!
//! Four components, as in the paper: **compute** (FP MAC energy: 0.9 pJ
//! FP32 add, 3.7 pJ FP32 mul, the paper's stated constants), **SRAM**
//! (on-chip buffers), **DRAM** (3-D-stacked access over TSVs — no
//! off-chip SerDes crossing), and **link** (high-speed serial I/O, which
//! burns power *while enabled* even when idle — the effect that makes
//! shorter execution time save link energy in the paper).
//!
//! DRAM/SRAM/link constants are CACTI-class approximations documented in
//! `DESIGN.md` (substitution 6); the figures depend on their ratios, not
//! their absolute values.
//!
//! # Examples
//!
//! ```
//! use wmpt_energy::{EnergyBreakdown, EnergyParams};
//!
//! let p = EnergyParams::paper();
//! let mut e = EnergyBreakdown::default();
//! e.compute_j += p.mac_energy_j(1_000_000);      // 1M FP32 MACs
//! e.dram_j += p.dram_energy_j(4096);             // 4 KiB access
//! assert!(e.total_j() > 0.0);
//! ```

#![forbid(unsafe_code)]

/// Energy constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyParams {
    /// FP32 add energy, joules (0.9 pJ, paper §VII-A).
    pub fp32_add_j: f64,
    /// FP32 multiply energy, joules (3.7 pJ, paper §VII-A).
    pub fp32_mul_j: f64,
    /// FP16 multiply energy, joules (used by the entire-CNN evaluation's
    /// FP16×FP16+FP32 MACs, §VII-C).
    pub fp16_mul_j: f64,
    /// SRAM access energy per bit, joules.
    pub sram_j_per_bit: f64,
    /// 3-D-stacked DRAM access energy per bit, joules.
    pub dram_j_per_bit: f64,
    /// Serial link transport energy per bit at peak, joules. Links burn
    /// `bandwidth × this` while enabled regardless of utilization.
    pub link_j_per_bit: f64,
}

impl EnergyParams {
    /// The constants used throughout the reproduction.
    pub const fn paper() -> Self {
        Self {
            fp32_add_j: 0.9e-12,
            fp32_mul_j: 3.7e-12,
            fp16_mul_j: 1.1e-12,
            sram_j_per_bit: 0.11e-12,
            dram_j_per_bit: 3.7e-12,
            link_j_per_bit: 2.0e-12,
        }
    }

    /// Energy of `n` FP32 multiply-accumulates.
    pub fn mac_energy_j(&self, n: u64) -> f64 {
        n as f64 * (self.fp32_add_j + self.fp32_mul_j)
    }

    /// Energy of `n` FP16-multiply / FP32-add MACs.
    pub fn mac16_energy_j(&self, n: u64) -> f64 {
        n as f64 * (self.fp32_add_j + self.fp16_mul_j)
    }

    /// Energy of `n` FP32 additions (reduce blocks, vector adds).
    pub fn add_energy_j(&self, n: u64) -> f64 {
        n as f64 * self.fp32_add_j
    }

    /// DRAM access energy for `bytes`.
    pub fn dram_energy_j(&self, bytes: u64) -> f64 {
        bytes as f64 * 8.0 * self.dram_j_per_bit
    }

    /// SRAM access energy for `bytes`.
    pub fn sram_energy_j(&self, bytes: u64) -> f64 {
        bytes as f64 * 8.0 * self.sram_j_per_bit
    }

    /// Power of an enabled link direction with peak bandwidth
    /// `bytes_per_cycle` (= GB/s at the 1 GHz clock), in watts. Always-on
    /// SerDes: this is charged for wall-clock time, not for bytes moved.
    pub fn link_power_w(&self, bytes_per_cycle: f64) -> f64 {
        // bytes/cycle * 1e9 cycles/s * 8 bits * J/bit
        bytes_per_cycle * 1.0e9 * 8.0 * self.link_j_per_bit
    }

    /// Link energy of `enabled_bw` (sum of enabled directed bandwidths in
    /// bytes/cycle) held on for `cycles` of the 1 GHz clock.
    pub fn link_energy_j(&self, enabled_bw: f64, cycles: f64) -> f64 {
        self.link_power_w(enabled_bw) * cycles * 1.0e-9
    }
}

impl Default for EnergyParams {
    fn default() -> Self {
        Self::paper()
    }
}

/// Energy split by the paper's four factors.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// Compute-unit energy, joules.
    pub compute_j: f64,
    /// SRAM access energy, joules.
    pub sram_j: f64,
    /// DRAM access energy, joules.
    pub dram_j: f64,
    /// Memory-centric-network link energy, joules.
    pub link_j: f64,
}

impl EnergyBreakdown {
    /// Sum of all components.
    pub fn total_j(&self) -> f64 {
        self.compute_j + self.sram_j + self.dram_j + self.link_j
    }

    /// Component-wise sum.
    pub fn add(&self, other: &EnergyBreakdown) -> EnergyBreakdown {
        EnergyBreakdown {
            compute_j: self.compute_j + other.compute_j,
            sram_j: self.sram_j + other.sram_j,
            dram_j: self.dram_j + other.dram_j,
            link_j: self.link_j + other.link_j,
        }
    }

    /// Scales every component (e.g. per-worker → whole system).
    pub fn scale(&self, s: f64) -> EnergyBreakdown {
        EnergyBreakdown {
            compute_j: self.compute_j * s,
            sram_j: self.sram_j * s,
            dram_j: self.dram_j * s,
            link_j: self.link_j * s,
        }
    }

    /// Average power over `cycles` of the 1 GHz clock, watts.
    pub fn average_power_w(&self, cycles: f64) -> f64 {
        if cycles <= 0.0 {
            0.0
        } else {
            self.total_j() / (cycles * 1.0e-9)
        }
    }
}

impl std::iter::Sum for EnergyBreakdown {
    /// Component-wise sum over an iterator — plan-level energy is the
    /// sum of its layers' breakdowns (left fold, so the result is
    /// bit-deterministic for a given iteration order).
    fn sum<I: Iterator<Item = EnergyBreakdown>>(iter: I) -> Self {
        iter.fold(EnergyBreakdown::default(), |acc, e| acc.add(&e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_is_component_wise_fold() {
        let parts = [
            EnergyBreakdown {
                compute_j: 1.0,
                sram_j: 2.0,
                dram_j: 3.0,
                link_j: 4.0,
            },
            EnergyBreakdown {
                compute_j: 0.5,
                sram_j: 0.25,
                dram_j: 0.125,
                link_j: 0.0625,
            },
        ];
        let total: EnergyBreakdown = parts.iter().copied().sum();
        assert_eq!(total, parts[0].add(&parts[1]));
        let empty: EnergyBreakdown = std::iter::empty().sum();
        assert_eq!(empty, EnergyBreakdown::default());
    }

    #[test]
    fn paper_constants() {
        let p = EnergyParams::paper();
        assert_eq!(p.fp32_add_j, 0.9e-12);
        assert_eq!(p.fp32_mul_j, 3.7e-12);
        // One MAC = one mul + one add.
        assert!((p.mac_energy_j(1) - 4.6e-12).abs() < 1e-20);
        assert!(p.mac16_energy_j(1) < p.mac_energy_j(1));
    }

    #[test]
    fn dram_costs_more_than_sram_per_bit() {
        let p = EnergyParams::paper();
        assert!(p.dram_energy_j(100) > p.sram_energy_j(100));
    }

    #[test]
    fn link_power_matches_hand_calc() {
        let p = EnergyParams::paper();
        // 30 GB/s * 8 bits * 2 pJ/bit = 0.48 W.
        assert!((p.link_power_w(30.0) - 0.48).abs() < 1e-12);
        // 1e6 cycles = 1 ms -> 0.48 mJ.
        assert!((p.link_energy_j(30.0, 1.0e6) - 0.48e-3).abs() < 1e-12);
    }

    #[test]
    fn link_energy_scales_with_time_not_bytes() {
        let p = EnergyParams::paper();
        let short = p.link_energy_j(60.0, 1000.0);
        let long = p.link_energy_j(60.0, 3000.0);
        assert!((long / short - 3.0).abs() < 1e-9);
    }

    #[test]
    fn breakdown_arithmetic() {
        let a = EnergyBreakdown {
            compute_j: 1.0,
            sram_j: 2.0,
            dram_j: 3.0,
            link_j: 4.0,
        };
        assert_eq!(a.total_j(), 10.0);
        let b = a.add(&a);
        assert_eq!(b.total_j(), 20.0);
        let c = a.scale(0.5);
        assert_eq!(c.total_j(), 5.0);
    }

    #[test]
    fn average_power() {
        let e = EnergyBreakdown {
            compute_j: 1.0,
            ..Default::default()
        };
        // 1 J over 1e9 cycles (1 s) = 1 W.
        assert!((e.average_power_w(1.0e9) - 1.0).abs() < 1e-12);
        assert_eq!(e.average_power_w(0.0), 0.0);
    }
}
