//! Host-parallel speedup snapshot (`BENCH_par.json`).
//!
//! Times a fixed seeded Winograd layer — one fprop + bprop + updateGrad
//! pass — under the `wmpt-par` runtime at jobs = 1, 2, 4, and the host's
//! available parallelism, and reports wall-clock ms, speedup over
//! jobs = 1, and parallel efficiency (speedup / jobs). The fixed
//! workload makes the file diffable across commits, and a bit-pattern
//! checksum of every output confirms the determinism contract: all jobs
//! values must produce byte-identical f32 results.

use std::time::Instant;

use wmpt_obs::json::{num, obj, s, Value};
use wmpt_par::{available_jobs, ParPool};
use wmpt_tensor::{DataGen, Shape4, Tensor4};
use wmpt_winograd::{WinogradLayer, WinogradTransform};

use crate::Output;

/// Timed repetitions per jobs value; the best (minimum) is reported.
const REPS: usize = 3;

/// The fixed seeded workload: a 16-image batch through an 8→8-channel
/// 3×3 layer on 24×24 maps (1 728 Winograd tiles per pass).
pub fn workload() -> (WinogradLayer, Tensor4, Tensor4) {
    let mut g = DataGen::new(97);
    let w = g.he_weights(Shape4::new(8, 8, 3, 3));
    let layer = WinogradLayer::from_spatial(WinogradTransform::f2x2_3x3(), &w);
    let x = g.normal_tensor(Shape4::new(16, 8, 24, 24), 0.0, 1.0);
    let dy = g.normal_tensor(Shape4::new(16, 8, 24, 24), 0.0, 1.0);
    (layer, x, dy)
}

/// The jobs ladder: 1, 2, 4, and the host's available parallelism,
/// deduplicated and ascending.
pub fn jobs_ladder() -> Vec<usize> {
    let mut ladder = vec![1, 2, 4, available_jobs()];
    ladder.sort_unstable();
    ladder.dedup();
    ladder
}

/// One measured point: best-of-[`REPS`] wall-clock plus a bit-pattern
/// checksum of every output tensor (order-sensitive wrapping fold).
struct Point {
    jobs: usize,
    ms: f64,
    checksum: u64,
}

fn bit_checksum(slices: &[&[f32]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for sl in slices {
        for v in *sl {
            h = h.rotate_left(5) ^ u64::from(v.to_bits());
        }
    }
    h
}

fn measure(jobs: usize, layer: &WinogradLayer, x: &Tensor4, dy: &Tensor4) -> Point {
    let pool = ParPool::new(jobs);
    let mut best = f64::INFINITY;
    let mut checksum = 0;
    for rep in 0..REPS {
        let t0 = Instant::now();
        let y = layer.fprop_par(&pool, x);
        let dx = layer.bprop_par(&pool, dy);
        let dw = layer.update_grad_par(&pool, x, dy);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        best = best.min(ms);
        if rep == 0 {
            checksum = bit_checksum(&[y.as_slice(), dx.as_slice(), &dw.data]);
        }
    }
    Point {
        jobs,
        ms: best,
        checksum,
    }
}

/// Runs the ladder and builds the report as a JSON value.
pub fn par_report() -> Value {
    let (layer, x, dy) = workload();
    let points: Vec<Point> = jobs_ladder()
        .into_iter()
        .map(|j| measure(j, &layer, &x, &dy))
        .collect();
    let base = points[0].ms;
    let bit_identical = points.iter().all(|p| p.checksum == points[0].checksum);
    let rows: Vec<Value> = points
        .iter()
        .map(|p| {
            let speedup = base / p.ms;
            obj(vec![
                ("jobs", num(p.jobs as f64)),
                ("ms", num(p.ms)),
                ("speedup", num(speedup)),
                ("efficiency", num(speedup / p.jobs as f64)),
            ])
        })
        .collect();
    obj(vec![
        (
            "workload",
            s("winograd fprop+bprop+updateGrad b16 c8->8 24x24"),
        ),
        ("reps", num(REPS as f64)),
        ("host_threads", num(available_jobs() as f64)),
        ("bit_identical", Value::Bool(bit_identical)),
        ("rows", Value::Arr(rows)),
    ])
}

/// Renders a report as the experiment's table.
fn render(report: &Value) -> String {
    let mut out = String::new();
    out.push_str("host-parallel speedup: fixed Winograd layer, fprop+bprop+updateGrad\n");
    out.push_str(&crate::row(
        "jobs",
        &["ms", "speedup", "efficiency"]
            .iter()
            .map(|h| h.to_string())
            .collect::<Vec<_>>(),
    ));
    for r in report.get("rows").and_then(Value::as_arr).unwrap() {
        let cell = |k: &str| r.get(k).and_then(Value::as_f64).unwrap();
        out.push_str(&crate::row(
            &format!("{}", cell("jobs")),
            &[
                crate::f(cell("ms")),
                crate::f(cell("speedup")),
                crate::f(cell("efficiency")),
            ],
        ));
    }
    let host = report.get("host_threads").and_then(Value::as_f64).unwrap();
    let identical = matches!(report.get("bit_identical"), Some(Value::Bool(true)));
    out.push_str(&format!(
        "host threads available: {host}; outputs bit-identical across jobs: {identical}\n"
    ));
    out
}

/// Runs the ladder and returns the table with its `BENCH_par.json`
/// report.
pub fn run() -> Output {
    Output::snapshot("BENCH_par.json", par_report(), render)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmpt_obs::json::parse;

    #[test]
    fn report_round_trips_and_outputs_are_bit_identical() {
        let v = par_report();
        let back = parse(&v.render()).expect("report is valid JSON");
        assert_eq!(back.get("bit_identical"), Some(&Value::Bool(true)));
        let rows = back.get("rows").and_then(Value::as_arr).expect("rows");
        assert!(!rows.is_empty());
        // jobs = 1 is the speedup baseline by definition.
        let first = &rows[0];
        assert_eq!(first.get("jobs").and_then(Value::as_f64), Some(1.0));
        assert_eq!(first.get("speedup").and_then(Value::as_f64), Some(1.0));
        for r in rows {
            let ms = r.get("ms").and_then(Value::as_f64).expect("ms");
            assert!(ms > 0.0);
            let sp = r.get("speedup").and_then(Value::as_f64).expect("speedup");
            let eff = r.get("efficiency").and_then(Value::as_f64).expect("eff");
            let jobs = r.get("jobs").and_then(Value::as_f64).expect("jobs");
            assert!((eff - sp / jobs).abs() < 1e-12);
        }
    }

    #[test]
    fn ladder_starts_at_one_and_is_strictly_ascending() {
        let ladder = jobs_ladder();
        assert_eq!(ladder[0], 1);
        assert!(ladder.windows(2).all(|w| w[0] < w[1]));
        assert!(ladder.contains(&available_jobs()));
    }
}
