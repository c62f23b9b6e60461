//! One NDP worker's local cost: systolic array + vector unit + DRAM,
//! composed into time and energy (paper Fig 13(a)). Tile transfer and
//! collectives are priced by the `wmpt-noc` crate.

use wmpt_energy::{EnergyBreakdown, EnergyParams};
use wmpt_sim::Time;

use crate::params::{MacPrecision, NdpParams};
use crate::systolic::GemmCost;
use crate::vector::VectorCost;

/// Aggregated local cost of a worker's share of one phase (before
/// communication, which the `wmpt-noc` crate times).
///
/// The systolic array, the vector unit and the DRAM/DMA engine are
/// *different resources*: within a phase their work pipelines across
/// tiles (the double-buffered task graph of §VI-A), so the phase's local
/// time is the maximum of the per-resource totals
/// ([`Self::pipelined_cycles`]), not their sum.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WorkerCost {
    /// Total systolic-array busy cycles.
    pub systolic_cycles: Time,
    /// Total vector-unit busy cycles.
    pub vector_cycles: Time,
    /// MACs retired on the systolic array.
    pub macs: u64,
    /// Scalar ops on the vector unit and reduce blocks.
    pub vector_ops: u64,
    /// DRAM traffic in bytes.
    pub dram_bytes: u64,
    /// SRAM traffic in bytes.
    pub sram_bytes: u64,
}

impl WorkerCost {
    /// Adds a GEMM cost.
    pub fn with_gemm(mut self, g: &GemmCost) -> Self {
        self.systolic_cycles += g.compute_cycles;
        self.macs += g.macs;
        self.dram_bytes += g.dram_bytes;
        self.sram_bytes += g.sram_bytes;
        self
    }

    /// Adds a vector cost.
    pub fn with_vector(mut self, v: &VectorCost) -> Self {
        self.vector_cycles += v.cycles;
        self.vector_ops += v.ops;
        self.dram_bytes += v.dram_bytes;
        self.sram_bytes += v.sram_bytes;
        self
    }

    /// Component-wise sum.
    pub fn add(&self, o: &WorkerCost) -> WorkerCost {
        WorkerCost {
            systolic_cycles: self.systolic_cycles + o.systolic_cycles,
            vector_cycles: self.vector_cycles + o.vector_cycles,
            macs: self.macs + o.macs,
            vector_ops: self.vector_ops + o.vector_ops,
            dram_bytes: self.dram_bytes + o.dram_bytes,
            sram_bytes: self.sram_bytes + o.sram_bytes,
        }
    }

    /// DRAM streaming cycles at the worker's bandwidth.
    pub fn dram_cycles(&self, params: &NdpParams) -> Time {
        if self.dram_bytes == 0 {
            return 0;
        }
        (self.dram_bytes as f64 / params.dram_bytes_per_cycle).ceil() as Time + params.dram_latency
    }

    /// Phase-local execution time with systolic/vector/DMA pipelining —
    /// the bottleneck resource sets the pace.
    pub fn pipelined_cycles(&self, params: &NdpParams) -> Time {
        self.systolic_cycles
            .max(self.vector_cycles)
            .max(self.dram_cycles(params))
    }

    /// Converts the cost into its energy breakdown on a worker with
    /// `params`. Link energy is accounted at the system level (it depends
    /// on wall-clock time and enabled links, not on one worker's
    /// activity).
    pub fn energy(&self, params: &NdpParams, ep: &EnergyParams) -> EnergyBreakdown {
        let compute_j = match params.precision {
            MacPrecision::Fp32 => ep.mac_energy_j(self.macs),
            MacPrecision::Fp16 => ep.mac16_energy_j(self.macs),
        } + ep.add_energy_j(self.vector_ops);
        EnergyBreakdown {
            compute_j,
            sram_j: ep.sram_energy_j(self.sram_bytes),
            dram_j: ep.dram_energy_j(self.dram_bytes),
            link_j: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::systolic::gemm;
    use crate::vector::elementwise;

    #[test]
    fn cost_composition_accumulates() {
        let p = NdpParams::paper_fp32();
        let g = gemm(&p, 256, 128, 256, 0.5);
        let v = elementwise(&p, 10_000);
        let c = WorkerCost::default().with_gemm(&g).with_vector(&v);
        assert_eq!(c.systolic_cycles, g.compute_cycles);
        assert_eq!(c.vector_cycles, v.cycles);
        assert_eq!(c.macs, g.macs);
        assert_eq!(c.vector_ops, v.ops);
        assert_eq!(c.dram_bytes, g.dram_bytes + v.dram_bytes);
    }

    #[test]
    fn pipelined_time_is_bottleneck_resource() {
        let p = NdpParams::paper_fp32();
        let c = WorkerCost {
            systolic_cycles: 100,
            vector_cycles: 300,
            dram_bytes: 3200, // 10 cycles + latency
            ..Default::default()
        };
        assert_eq!(c.pipelined_cycles(&p), 300);
        let c2 = WorkerCost {
            systolic_cycles: 1000,
            ..c
        };
        assert_eq!(c2.pipelined_cycles(&p), 1000);
    }

    #[test]
    fn dram_cycles_zero_when_no_traffic() {
        let p = NdpParams::paper_fp32();
        assert_eq!(WorkerCost::default().dram_cycles(&p), 0);
        assert_eq!(WorkerCost::default().pipelined_cycles(&p), 0);
    }

    #[test]
    fn energy_components_track_traffic() {
        let p = NdpParams::paper_fp32();
        let ep = EnergyParams::paper();
        let g = gemm(&p, 512, 512, 512, 0.5);
        let c = WorkerCost::default().with_gemm(&g);
        let e = c.energy(&p, &ep);
        assert!(e.compute_j > 0.0 && e.dram_j > 0.0 && e.sram_j > 0.0);
        assert_eq!(e.link_j, 0.0);
        // 512^3 MACs at 4.6 pJ.
        let expect = 512.0f64.powi(3) * 4.6e-12;
        assert!((e.compute_j - expect).abs() / expect < 1e-9);
    }

    #[test]
    fn fp16_worker_spends_less_compute_energy() {
        let ep = EnergyParams::paper();
        let c = WorkerCost {
            macs: 1_000_000,
            ..Default::default()
        };
        let e32 = c.energy(&NdpParams::paper_fp32(), &ep);
        let e16 = c.energy(&NdpParams::paper_fp16(), &ep);
        assert!(e16.compute_j < e32.compute_j);
    }

    #[test]
    fn add_sums_all_fields() {
        let a = WorkerCost {
            systolic_cycles: 1,
            vector_cycles: 6,
            macs: 2,
            vector_ops: 3,
            dram_bytes: 4,
            sram_bytes: 5,
        };
        let b = a.add(&a);
        assert_eq!(b.systolic_cycles, 2);
        assert_eq!(b.vector_cycles, 12);
        assert_eq!(b.sram_bytes, 10);
    }
}
