//! NDP hardware parameters (paper §VI, Table III).

/// Arithmetic precision of the systolic MAC array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MacPrecision {
    /// 64×64 FP32 array (layer-wise evaluation, §VI-B).
    Fp32,
    /// 96×96 FP16-multiply/FP32-add array with similar area and power
    /// (entire-CNN evaluation, §VII-C footnote).
    Fp16,
}

/// Configuration of one NDP worker's logic layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NdpParams {
    /// Systolic array rows (= columns; the paper's arrays are square).
    pub systolic_dim: usize,
    /// MAC precision.
    pub precision: MacPrecision,
    /// Logic/router clock, Hz (1 GHz; time unit of the whole simulation).
    pub clock_hz: f64,
    /// 3-D-stacked DRAM bandwidth, bytes per cycle (320 GB/s).
    pub dram_bytes_per_cycle: f64,
    /// DRAM access latency, cycles.
    pub dram_latency: u64,
    /// Each of the two double-buffered systolic input buffers, bytes
    /// (512 KiB ×2 = 2 MiB total with double buffering).
    pub input_buffer_bytes: usize,
    /// Systolic output buffer, bytes (128 KiB).
    pub output_buffer_bytes: usize,
    /// Vector-processor lanes (elements per cycle for streaming ops);
    /// the paper notes scratchpads "can support wide vector processing
    /// units efficiently".
    pub vector_lanes: usize,
}

impl NdpParams {
    /// The paper's FP32 configuration (layer-wise evaluation).
    pub const fn paper_fp32() -> Self {
        Self {
            systolic_dim: 64,
            precision: MacPrecision::Fp32,
            clock_hz: 1.0e9,
            dram_bytes_per_cycle: 320.0,
            dram_latency: 50,
            input_buffer_bytes: 512 * 1024,
            output_buffer_bytes: 128 * 1024,
            vector_lanes: 256,
        }
    }

    /// The paper's FP16 configuration (entire-CNN evaluation): a 96×96
    /// array with FP16 multipliers at similar area/power.
    pub const fn paper_fp16() -> Self {
        let mut p = Self::paper_fp32();
        p.systolic_dim = 96;
        p.precision = MacPrecision::Fp16;
        p
    }

    /// MACs retired per cycle at full utilization.
    pub const fn macs_per_cycle(&self) -> u64 {
        (self.systolic_dim * self.systolic_dim) as u64
    }

    /// Streaming input bandwidth the array demands in the worst case
    /// (one side of the array refilled from DRAM every cycle), bytes per
    /// cycle — the paper's 256 GB/s sizing argument for 64×64 FP32.
    pub fn worst_case_stream_bytes_per_cycle(&self) -> f64 {
        let elem = match self.precision {
            MacPrecision::Fp32 => 4.0,
            MacPrecision::Fp16 => 2.0,
        };
        self.systolic_dim as f64 * elem
    }
}

impl Default for NdpParams {
    fn default() -> Self {
        Self::paper_fp32()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fp32_array_streams_within_dram_bandwidth() {
        let p = NdpParams::paper_fp32();
        // 64 lanes x 4 B = 256 B/cycle = 256 GB/s <= 320 GB/s (paper's
        // balance argument).
        assert_eq!(p.worst_case_stream_bytes_per_cycle(), 256.0);
        assert!(p.worst_case_stream_bytes_per_cycle() <= p.dram_bytes_per_cycle);
    }

    #[test]
    fn fp16_array_has_similar_throughput_budget() {
        let p = NdpParams::paper_fp16();
        // 96 lanes x 2 B = 192 B/cycle, still within DRAM bandwidth.
        assert_eq!(p.worst_case_stream_bytes_per_cycle(), 192.0);
        assert_eq!(p.macs_per_cycle(), 96 * 96);
    }

    #[test]
    fn macs_per_cycle_is_array_area() {
        assert_eq!(NdpParams::paper_fp32().macs_per_cycle(), 4096);
    }
}
