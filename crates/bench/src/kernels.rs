//! GEMM-kernel roofline snapshot (`BENCH_kernels.json`).
//!
//! Times the blocked, panel-packed GEMM microkernel (the body of
//! `gemm_f32_par`) against the naive reference on the five Table-II element-wise GEMM
//! shapes at `F(2×2, 3×3)` — per layer, `m = (H/2)·(W/2)` tiles,
//! `k = I`, `n = J` — and reports GFLOP/s next to a measured compute
//! peak (the same `MR × NR` register tile run on register-resident
//! operands, the ceiling the blocked kernel is chasing).
//!
//! The machine-independent keys — shapes, per-shape and total FLOP
//! counts, rep count, and the blocked-vs-reference `bit_identical`
//! verdict — are gated through `baselines/BENCH_kernels.baseline.json`;
//! every wall-clock-derived key (ms, GFLOP/s, speedups, peak) is
//! deliberately not gated, mirroring the `BENCH_par.json` rule.

use std::hint::black_box;
use std::time::Instant;

use wmpt_models::table2_layers;
use wmpt_obs::json::{num, obj, s, Value};
use wmpt_tensor::ops::{gemm_f32_packed_rows, gemm_f32_ref, pack_b, MR, NR};
use wmpt_tensor::DataGen;

use crate::Output;

/// Timed repetitions per shape and kernel; the best (minimum) is
/// reported.
const REPS: usize = 3;

/// Output tile edge of `F(2×2, 3×3)` — Table-II GEMM `m` is the tile
/// count `(H/2)·(W/2)` at this tiling.
const OUT_TILE: usize = 2;

/// One Table-II GEMM shape: `m × k · k × n`, plus its FLOP count.
pub struct GemmShape {
    /// Table-II layer name.
    pub layer: String,
    /// Rows: Winograd tiles of one image.
    pub m: usize,
    /// Inner dimension: input channels `I`.
    pub k: usize,
    /// Columns: output channels `J`.
    pub n: usize,
}

impl GemmShape {
    /// Multiply-adds counted as two FLOPs each.
    pub fn flops(&self) -> usize {
        2 * self.m * self.k * self.n
    }
}

/// The five Table-II element-wise GEMM shapes at `F(2×2, 3×3)`, batch 1.
pub fn table2_gemm_shapes() -> Vec<GemmShape> {
    table2_layers()
        .iter()
        .map(|l| GemmShape {
            layer: l.name.clone(),
            m: l.h.div_ceil(OUT_TILE) * l.w.div_ceil(OUT_TILE),
            k: l.in_chans,
            n: l.out_chans,
        })
        .collect()
}

/// Best-of-`reps` wall-clock of `f`, in milliseconds.
fn best_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Measures the compute ceiling the microkernel is chasing: the exact
/// `MR × NR` register-tile loop body run over an L1-resident packed
/// panel — no packing, no accumulator-strip traffic, no writeback. The
/// full kernel can only approach this from below, so `frac_peak ≤ 1`
/// measures how much of the microkernel's own throughput survives the
/// memory hierarchy.
pub fn measured_peak_gflops() -> f64 {
    const KB: usize = 256;
    // The peak figure is wall-clock (never gated), so debug builds may
    // run a shorter sweep without affecting any blessed key.
    const ROUNDS: usize = if cfg!(debug_assertions) { 100 } else { 2_000 };

    // The register tile lives in a function local so it stays in
    // registers across the whole sweep, exactly as in the microkernel.
    fn tile_rounds(ap: &[f32], bp: &[f32], rounds: usize) -> f64 {
        let mut t = [[0.0f64; NR]; MR];
        for _ in 0..rounds {
            for l in 0..KB {
                let av = &ap[l * MR..l * MR + MR];
                let bv = &bp[l * NR..l * NR + NR];
                let mut bw = [0.0f64; NR];
                for (w, &v) in bw.iter_mut().zip(bv) {
                    *w = v as f64;
                }
                for (i, row) in t.iter_mut().enumerate() {
                    let aw = av[i] as f64;
                    for (slot, &v) in row.iter_mut().zip(&bw) {
                        *slot += aw * v;
                    }
                }
            }
        }
        t.iter().flatten().sum()
    }

    let ap = black_box(vec![1.000_000_1f32; KB * MR]);
    let bp = black_box(vec![0.999_999_9f32; KB * NR]);
    // One warm-up, then best-of-REPS.
    black_box(tile_rounds(&ap, &bp, ROUNDS));
    let ms = best_ms(REPS, || {
        black_box(tile_rounds(&ap, &bp, ROUNDS));
    });
    let flops = (2 * MR * NR * KB * ROUNDS) as f64;
    flops / (ms * 1e6)
}

/// One measured shape: reference and blocked timings plus the
/// bit-identity verdict between them.
struct Point {
    shape: GemmShape,
    ref_ms: f64,
    blocked_ms: f64,
    identical: bool,
}

fn measure(reps: usize, shape: GemmShape) -> Point {
    let (m, k, n) = (shape.m, shape.k, shape.n);
    let mut g = DataGen::new(41);
    let a: Vec<f32> = (0..m * k).map(|_| g.normal(0.0, 1.0) as f32).collect();
    let b: Vec<f32> = (0..k * n).map(|_| g.normal(0.0, 1.0) as f32).collect();
    let mut out_ref = vec![0.0f32; m * n];
    let mut out_blk = vec![0.0f32; m * n];
    let ref_ms = best_ms(reps, || {
        gemm_f32_ref(&a, m, k, &b, n, &mut out_ref, false, false);
    });
    // Packing is part of the blocked kernel's cost: time it inside.
    let blocked_ms = best_ms(reps, || {
        let bp = pack_b(&b, k, n, false);
        gemm_f32_packed_rows(&a, m, k, false, &bp, &mut out_blk, 0);
    });
    let identical = out_ref
        .iter()
        .zip(&out_blk)
        .all(|(x, y)| x.to_bits() == y.to_bits());
    Point {
        shape,
        ref_ms,
        blocked_ms,
        identical,
    }
}

/// Runs the shape sweep with `reps` timed repetitions and builds the
/// report as a JSON value. [`run`] uses `REPS`; tests may pass fewer —
/// the machine-independent keys do not depend on it (only the recorded
/// `reps` field itself changes).
pub fn kernels_report_with(reps: usize) -> Value {
    let peak = measured_peak_gflops();
    let points: Vec<Point> = table2_gemm_shapes()
        .into_iter()
        .map(|sh| measure(reps, sh))
        .collect();
    let bit_identical = points.iter().all(|p| p.identical);
    let total_flops: usize = points.iter().map(|p| p.shape.flops()).sum();
    let rows: Vec<Value> = points
        .iter()
        .map(|p| {
            let flops = p.shape.flops() as f64;
            let blocked_gflops = flops / (p.blocked_ms * 1e6);
            obj(vec![
                ("layer", s(&p.shape.layer)),
                ("m", num(p.shape.m as f64)),
                ("k", num(p.shape.k as f64)),
                ("n", num(p.shape.n as f64)),
                ("flops", num(flops)),
                ("ref_ms", num(p.ref_ms)),
                ("blocked_ms", num(p.blocked_ms)),
                ("ref_gflops", num(flops / (p.ref_ms * 1e6))),
                ("blocked_gflops", num(blocked_gflops)),
                ("speedup", num(p.ref_ms / p.blocked_ms)),
                ("frac_peak", num(blocked_gflops / peak)),
            ])
        })
        .collect();
    obj(vec![
        (
            "workload",
            s("Table-II elementwise GEMM shapes, F(2x2,3x3), batch 1"),
        ),
        ("batch", num(1.0)),
        ("reps", num(reps as f64)),
        ("bit_identical", Value::Bool(bit_identical)),
        ("total_flops", num(total_flops as f64)),
        ("peak_gflops", num(peak)),
        ("rows", Value::Arr(rows)),
    ])
}

/// Runs the sweep at the standard `REPS` (the configuration the gate
/// baseline is blessed from).
pub fn kernels_report() -> Value {
    kernels_report_with(REPS)
}

/// Renders a report as the experiment's table.
fn render(report: &Value) -> String {
    let mut out = String::new();
    out.push_str("GEMM roofline: Table-II shapes, blocked kernel vs naive reference\n");
    out.push_str(&crate::row(
        "layer (m x k x n)",
        &["ref GF/s", "blk GF/s", "speedup", "frac peak"]
            .iter()
            .map(|h| h.to_string())
            .collect::<Vec<_>>(),
    ));
    for r in report.get("rows").and_then(Value::as_arr).unwrap() {
        let cell = |k: &str| r.get(k).and_then(Value::as_f64).unwrap();
        let layer = match r.get("layer") {
            Some(Value::Str(name)) => name.clone(),
            _ => "?".into(),
        };
        out.push_str(&crate::row(
            &format!("{layer} {}x{}x{}", cell("m"), cell("k"), cell("n")),
            &[
                crate::f(cell("ref_gflops")),
                crate::f(cell("blocked_gflops")),
                crate::f(cell("speedup")),
                crate::f(cell("frac_peak")),
            ],
        ));
    }
    let peak = report.get("peak_gflops").and_then(Value::as_f64).unwrap();
    let identical = matches!(report.get("bit_identical"), Some(Value::Bool(true)));
    out.push_str(&format!(
        "measured register-tile peak: {} GFLOP/s; blocked ≡ reference bitwise: {identical}\n",
        crate::f(peak)
    ));
    out
}

/// Runs the sweep and returns the table with its `BENCH_kernels.json`
/// report.
pub fn run() -> Output {
    Output::snapshot("BENCH_kernels.json", kernels_report(), render)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::kernels_gate_metrics;
    use wmpt_obs::json::parse;

    #[test]
    fn shapes_match_table2_at_f2x2() {
        let shapes = table2_gemm_shapes();
        assert_eq!(shapes.len(), 5);
        // Early: 112x112 maps -> 56*56 tiles of 64 -> 64 channels.
        assert_eq!(
            (shapes[0].m, shapes[0].k, shapes[0].n),
            (56 * 56, 64, 64),
            "Early"
        );
        // Late-2: 7x7 maps pad to 4x4 tiles of 512 -> 512 channels.
        assert_eq!(
            (shapes[4].m, shapes[4].k, shapes[4].n),
            (4 * 4, 512, 512),
            "Late-2"
        );
    }

    #[test]
    fn report_round_trips_and_blocked_matches_reference() {
        let v = kernels_report_with(1);
        let back = parse(&v.render()).expect("report is valid JSON");
        assert_eq!(back.get("bit_identical"), Some(&Value::Bool(true)));
        let rows = back.get("rows").and_then(Value::as_arr).expect("rows");
        assert_eq!(rows.len(), 5);
        for r in rows {
            let cell = |k: &str| r.get(k).and_then(Value::as_f64).expect(k);
            assert_eq!(cell("flops"), 2.0 * cell("m") * cell("k") * cell("n"));
            assert!(cell("ref_ms") > 0.0);
            assert!(cell("blocked_ms") > 0.0);
        }
    }

    #[test]
    fn roofline_machine_independent_keys_are_deterministic() {
        // Two full runs must agree on every gated key — GFLOP counts,
        // shapes, flop totals — with only wall-clock keys exempt
        // (the satellite determinism gate, mirroring the par-report rule).
        let a = kernels_gate_metrics(&kernels_report_with(1));
        let b = kernels_gate_metrics(&kernels_report_with(1));
        assert!(!a.is_empty(), "no gated keys");
        assert_eq!(a, b, "machine-independent keys diverged between runs");
        for key in a.keys() {
            assert!(
                !key.ends_with("_ms") && !key.ends_with("gflops"),
                "wall-clock key {key} leaked into the gate"
            );
        }
        // Shape keys must be present for every row.
        for i in 0..5 {
            for leaf in ["m", "k", "n", "flops"] {
                assert!(
                    a.contains_key(&format!("rows.{i}.{leaf}")),
                    "rows.{i}.{leaf}"
                );
            }
        }
        assert!(a.contains_key("bit_identical"));
        assert!(a.contains_key("total_flops"));
    }
}
