//! Kernel-correctness battery for the blocked, panel-packed GEMM:
//! random shapes × `{ta, tb}` × jobs ∈ {1, 2, 7} against the retained
//! naive reference kernel.
//!
//! Two regimes, matching the contract in `tensor::ops`:
//!
//! * **Same reduction order ⇒ bit-exact.** The blocked kernel reduces
//!   every output element with one f64 accumulator in ascending `l`
//!   order — exactly the reference — so the blocked band kernel and
//!   `gemm_f32_par` at every job count must agree with the reference to
//!   the bit on every shape.
//! * **Different reduction order ⇒ `Tol::F32_TIGHT` only.** Against an
//!   oracle that sums in *descending* `l` order (a floating-point
//!   reordering the kernel is free of, but an LLM-grade reminder of why
//!   the order is frozen), only a tolerance holds.
//!
//! Cases run on the `wmpt-check` harness; failures shrink toward the
//! smallest diverging shape.

use wmpt_check::{check, Tol};
use wmpt_par::ParPool;
use wmpt_tensor::ops::{
    gemm_f32_packed_rows, gemm_f32_par, gemm_f32_ref, pack_b, GEMM_ROW_CHUNK, KC, MR, NR,
};

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// f64 oracle summing in *descending* `l` order — same math, different
/// floating-point reduction order.
#[allow(clippy::too_many_arguments)]
fn gemm_descending_order(
    a: &[f32],
    ac: usize,
    b: &[f32],
    k: usize,
    n: usize,
    out: &mut [f32],
    ta: bool,
    tb: bool,
) {
    let m = out.len() / n;
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f64;
            for l in (0..k).rev() {
                let av = if ta { a[l * ac + i] } else { a[i * ac + l] };
                let bv = if tb { b[j * k + l] } else { b[l * n + j] };
                acc += av as f64 * bv as f64;
            }
            out[i * n + j] = acc as f32;
        }
    }
}

#[test]
fn blocked_gemm_bit_identical_to_reference_for_random_shapes() {
    check(
        "blocked_gemm_bit_identical_to_reference_for_random_shapes",
        |c| {
            // Spread shapes across the microkernel/block edges: m past the
            // row-chunk boundary, k past a KC crossing on occasion.
            let m = c.size(1, 2 * GEMM_ROW_CHUNK + 3);
            let k = if c.bool() {
                c.size(1, 24)
            } else {
                c.size(KC - 2, KC + 5)
            };
            let n = c.size(1, 3 * NR + 1);
            let ta = c.bool();
            let tb = c.bool();
            let a = c.vec_pm(m * k, 2.0);
            let b = c.vec_pm(k * n, 2.0);
            let (ar, ac) = if ta { (k, m) } else { (m, k) };

            let mut reference = vec![0.0f32; m * n];
            gemm_f32_ref(&a, ar, ac, &b, n, &mut reference, ta, tb);

            // The packed-rows entry point on the whole product, one band.
            let bp = pack_b(&b, k, n, tb);
            let mut blocked = vec![0.0f32; m * n];
            gemm_f32_packed_rows(&a, ar, ac, ta, &bp, &mut blocked, 0);
            assert_eq!(
                bits(&reference),
                bits(&blocked),
                "blocked {m}x{k}x{n} ta={ta} tb={tb}"
            );

            // The banded entry point (the blocked kernel on every shape)
            // at every gated jobs value, one job included.
            for jobs in [1usize, 2, 7] {
                let pool = ParPool::new(jobs);
                let mut par = vec![0.0f32; m * n];
                gemm_f32_par(&pool, &a, ar, ac, &b, n, &mut par, ta, tb);
                assert_eq!(
                    bits(&reference),
                    bits(&par),
                    "par {m}x{k}x{n} ta={ta} tb={tb} jobs={jobs}"
                );
            }
        },
    );
}

#[test]
fn blocked_gemm_matches_reordered_oracle_within_f32_tight() {
    check(
        "blocked_gemm_matches_reordered_oracle_within_f32_tight",
        |c| {
            // When the reduction order differs, bit-equality is forfeited
            // (that is *why* the kernel freezes the order); only the
            // tolerance contract survives. Multiples of MR keep the f64
            // sums short enough that F32_TIGHT is a sound band.
            let m = c.size(1, 4) * MR;
            let k = c.size(1, 32);
            let n = c.size(1, 2) * NR;
            let ta = c.bool();
            let tb = c.bool();
            let a = c.vec_pm(m * k, 1.0);
            let b = c.vec_pm(k * n, 1.0);
            let (ar, ac) = if ta { (k, m) } else { (m, k) };

            let bp = pack_b(&b, k, n, tb);
            let mut blocked = vec![0.0f32; m * n];
            gemm_f32_packed_rows(&a, ar, ac, ta, &bp, &mut blocked, 0);

            let mut reordered = vec![0.0f32; m * n];
            gemm_descending_order(&a, ac, &b, k, n, &mut reordered, ta, tb);
            for (idx, (x, y)) in blocked.iter().zip(&reordered).enumerate() {
                wmpt_check::assert_approx_eq!(
                    *x,
                    *y,
                    Tol::F32_TIGHT,
                    "{m}x{k}x{n} ta={ta} tb={tb} elem {idx}"
                );
            }
        },
    );
}
