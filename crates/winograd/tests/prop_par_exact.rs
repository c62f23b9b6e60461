//! Bit-exactness property: every pool-taking kernel produces the same
//! bits for *any* job count — the wmpt-par contract (chunk boundaries
//! fixed by tensor shape, identical arithmetic per chunk) checked over
//! randomized shapes instead of the hand-picked cases in the unit tests.
//! GEMM results, each element GEMM included, are held to the frozen
//! naive kernel `gemm_f32_ref`; layer phases to the one-thread pool.
//!
//! Cases run on the `wmpt-check` harness; a failing configuration shrinks
//! toward the smallest shape/job count that still diverges.

use wmpt_check::check;
use wmpt_par::ParPool;
use wmpt_tensor::ops::{gemm_f32_par, gemm_f32_ref};
use wmpt_tensor::Shape4;
use wmpt_winograd::{
    elementwise_gemm_bprop_par, elementwise_gemm_par, elementwise_gemm_wgrad_par,
    to_winograd_input_par, weights_to_winograd, WinogradLayer, WinogradTransform,
};

const JOBS: [usize; 3] = [1, 2, 7];

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// `gemm_f32_ref` into a fresh `m × n` buffer.
fn reference(a: &[f32], ar: usize, ac: usize, b: &[f32], n: usize, ta: bool, tb: bool) -> Vec<u32> {
    let m = if ta { ac } else { ar };
    let mut out = vec![0.0f32; m * n];
    gemm_f32_ref(a, ar, ac, b, n, &mut out, ta, tb);
    bits(&out)
}

#[test]
fn elementwise_gemms_are_bit_identical_for_any_jobs() {
    check("elementwise_gemms_are_bit_identical_for_any_jobs", |c| {
        let tf = WinogradTransform::f2x2_3x3();
        let shape = c.shape4((1, 2), (1, 3), (4, 10), (4, 10));
        let j = c.size(1, 4);
        let x = c.tensor_seeded(shape, 0.0, 1.0);
        let w = c.weights_seeded(Shape4::new(j, shape.c, 3, 3));
        let wx = to_winograd_input_par(&ParPool::serial(), &x, &tf);
        let ww = weights_to_winograd(&w, &tf);
        let (tiles, i_ch) = (wx.tiles, wx.chans);
        for jobs in JOBS {
            let pool = ParPool::new(jobs);
            let y = elementwise_gemm_par(&pool, &wx, &ww);
            let dx = elementwise_gemm_bprop_par(&pool, &y, &ww);
            let dw = elementwise_gemm_wgrad_par(&pool, &wx, &y, 1);
            for e in 0..wx.elems {
                let (xe, we, ye) = (wx.elem_matrix(e), ww.elem_matrix(e), y.elem_matrix(e));
                assert_eq!(
                    reference(xe, tiles, i_ch, we, j, false, false),
                    bits(ye),
                    "fprop gemm e={e}, jobs={jobs}"
                );
                assert_eq!(
                    reference(ye, tiles, j, we, i_ch, false, true),
                    bits(dx.elem_matrix(e)),
                    "bprop gemm e={e}, jobs={jobs}"
                );
                assert_eq!(
                    reference(xe, tiles, i_ch, ye, j, true, false),
                    bits(dw.elem_matrix(e)),
                    "wgrad gemm e={e}, jobs={jobs}"
                );
            }
        }
    });
}

#[test]
fn layer_par_phases_are_bit_identical_for_any_jobs() {
    check("layer_par_phases_are_bit_identical_for_any_jobs", |c| {
        let tf = if c.bool() {
            WinogradTransform::f4x4_3x3()
        } else {
            WinogradTransform::f2x2_3x3()
        };
        let shape = c.shape4((1, 2), (1, 2), (4, 8), (4, 8));
        let j = c.size(1, 3);
        let x = c.tensor_seeded(shape, 0.0, 1.0);
        let w = c.weights_seeded(Shape4::new(j, shape.c, 3, 3));
        let layer = WinogradLayer::from_spatial(tf, &w);
        let dy = c.tensor_seeded(Shape4::new(shape.n, j, shape.h, shape.w), 0.0, 1.0);

        let serial = ParPool::serial();
        let y = bits(layer.fprop_par(&serial, &x).as_slice());
        let dx = bits(layer.bprop_par(&serial, &dy).as_slice());
        let dw = bits(&layer.update_grad_par(&serial, &x, &dy).data);
        for jobs in JOBS {
            let pool = ParPool::new(jobs);
            assert_eq!(
                y,
                bits(layer.fprop_par(&pool, &x).as_slice()),
                "fprop, jobs={jobs}"
            );
            assert_eq!(
                dx,
                bits(layer.bprop_par(&pool, &dy).as_slice()),
                "bprop, jobs={jobs}"
            );
            assert_eq!(
                dw,
                bits(&layer.update_grad_par(&pool, &x, &dy).data),
                "updateGrad, jobs={jobs}"
            );
        }
    });
}

#[test]
fn gemm_f32_par_bit_identical_for_random_shapes() {
    check("gemm_f32_par_bit_identical_for_random_shapes", |c| {
        let m = c.size(1, 12);
        let k = c.size(1, 12);
        let n = c.size(1, 12);
        let jobs = c.size(1, 7);
        let ta = c.bool();
        let tb = c.bool();
        let a = c.vec_pm(m * k, 2.0);
        let b = c.vec_pm(k * n, 2.0);
        let (ar, ac) = if ta { (k, m) } else { (m, k) };
        let mut par = vec![0.0f32; m * n];
        let pool = ParPool::new(jobs);
        gemm_f32_par(&pool, &a, ar, ac, &b, n, &mut par, ta, tb);
        assert_eq!(
            reference(&a, ar, ac, &b, n, ta, tb),
            bits(&par),
            "gemm {m}x{k}x{n} ta={ta} tb={tb} jobs={jobs}"
        );
    });
}
