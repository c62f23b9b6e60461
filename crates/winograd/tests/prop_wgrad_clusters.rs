//! Cluster-reduction property of the weight-gradient kernel: with the
//! tile rows split into `N_c` equal clusters, `elementwise_gemm_wgrad_par`
//! must equal, per tile element and bit for bit, the ascending-`c` f32 sum
//! of the frozen naive kernel `gemm_f32_ref` run on each cluster's rows —
//! and at `N_c = 1`, the plain per-element reference — for any job count.
//!
//! Shapes cover both element counts of the 3×3 transforms (`T ∈ {4, 6}`)
//! and cluster GEMMs on either side of the blocked kernel's size cutoff.

use wmpt_check::check;
use wmpt_par::ParPool;
use wmpt_tensor::ops::gemm_f32_ref;
use wmpt_tensor::Shape4;
use wmpt_winograd::{elementwise_gemm_wgrad_par, WgTensor};

const JOBS: [usize; 3] = [1, 2, 7];

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// A seeded-normal element-major tensor.
fn wg(c: &mut wmpt_check::Case, elems: usize, tiles: usize, chans: usize) -> WgTensor {
    let data = c
        .tensor_seeded(Shape4::new(elems, tiles, chans, 1), 0.0, 1.0)
        .into_vec();
    WgTensor {
        elems,
        tiles,
        chans,
        data,
    }
}

/// `X_e[rows]ᵀ · ∂Y_e[rows]` through the reference kernel.
fn cluster_ref(x: &WgTensor, dy: &WgTensor, e: usize, rows: std::ops::Range<usize>) -> Vec<f32> {
    let (i_ch, j_ch) = (x.chans, dy.chans);
    let n = rows.len();
    let xe = &x.elem_matrix(e)[rows.start * i_ch..rows.end * i_ch];
    let dye = &dy.elem_matrix(e)[rows.start * j_ch..rows.end * j_ch];
    let mut out = vec![0.0f32; i_ch * j_ch];
    gemm_f32_ref(xe, n, i_ch, dye, j_ch, &mut out, true, false);
    out
}

#[test]
fn wgrad_kernel_is_the_cluster_ordered_sum_of_reference_gemms() {
    check(
        "wgrad_kernel_is_the_cluster_ordered_sum_of_reference_gemms",
        |c| {
            let t = *c.pick(&[4usize, 6]);
            let elems = t * t;
            let n_c = c.size(1, 4);
            // Batch = N_c × images per cluster; every image has the same
            // tile count, so the clusters are equal row ranges.
            let images = n_c * c.size(1, 3);
            let tiles = images * c.size(1, 9);
            let (i_ch, j_ch) = (c.size(1, 20), c.size(1, 20));
            let x = wg(c, elems, tiles, i_ch);
            let dy = wg(c, elems, tiles, j_ch);
            let rows = tiles / n_c;

            let mut clustered = Vec::with_capacity(elems);
            let mut plain = Vec::with_capacity(elems);
            for e in 0..elems {
                let mut total = cluster_ref(&x, &dy, e, 0..rows);
                for k in 1..n_c {
                    let part = cluster_ref(&x, &dy, e, k * rows..(k + 1) * rows);
                    for (acc, p) in total.iter_mut().zip(&part) {
                        *acc += p;
                    }
                }
                clustered.push(bits(&total));
                plain.push(bits(&cluster_ref(&x, &dy, e, 0..tiles)));
            }

            for jobs in JOBS {
                let pool = ParPool::new(jobs);
                let dw = elementwise_gemm_wgrad_par(&pool, &x, &dy, n_c);
                let dw1 = elementwise_gemm_wgrad_par(&pool, &x, &dy, 1);
                for e in 0..elems {
                    assert_eq!(
                        clustered[e],
                        bits(dw.elem_matrix(e)),
                        "T={t} N_c={n_c} e={e} jobs={jobs}"
                    );
                    assert_eq!(
                        plain[e],
                        bits(dw1.elem_matrix(e)),
                        "T={t} N_c=1 e={e} jobs={jobs}"
                    );
                }
            }
        },
    );
}
