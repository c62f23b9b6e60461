//! Frozen-reference property: the channel-lane tiling kernels are held
//! **bitwise** to the scalar path they replaced — one `sandwich` call per
//! (tile, channel) with fresh buffers, spatial tiles read through
//! `get_padded` and Winograd-domain tiles through `gather_tile`. That path
//! is frozen here as the oracle, the `gemm_f32_ref` pattern: the slow form
//! whose arithmetic order is plain to read pins the bits of the fast one.
//!
//! Cases draw F(2,3), F(4,3) or F(2,5); odd and edge-cropped maps, 1–11
//! high and 1–40 wide; batch 1–3; 1–17 channels (no multiple of a vector
//! width is special); and jobs 1, 2 and 7. Inputs carry exact
//! `+0.0`/`−0.0`, ReLU-style sparsity and, in some cases, infinities or
//! two magnitudes 2⁶⁰ apart. `0·∞` is NaN, so a kernel that skips zero
//! products diverges. With values of one magnitude the integer-coefficient
//! transforms sum exactly in f64 in any order; mixing `{1, 3, 4, 5}·2³⁰`
//! with `{1, 3, 4, 5}·2⁻³⁰` makes large terms cancel exactly while small
//! ones are absorbed or not depending on when they are added, so a kernel
//! that reorders a sum diverges too. NaN payloads are not part of the
//! contract (IEEE 754 leaves open which NaN an operation returns), so
//! every NaN compares as one value.

use wmpt_check::{check, Case};
use wmpt_par::ParPool;
use wmpt_tensor::{Matrix, Rng64, Shape4, Tensor4};
use wmpt_winograd::{
    elementwise_gemm_wgrad_par, from_winograd_output_par, input_grad_to_spatial_par,
    output_grad_to_winograd_par, to_winograd_input_par, weights_to_winograd, Tiling, WgTensor,
    WgWeights, WinogradConv, WinogradTransform,
};

const JOBS: [usize; 3] = [1, 2, 7];

/// Bit patterns with every NaN mapped to one value.
fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter()
        .map(|x| if x.is_nan() { u32::MAX } else { x.to_bits() })
        .collect()
}

/// The frozen per-tile kernel: `M · X · Mᵀ`, `X` `n×n`, `M` `rows×n`.
fn sandwich(m: &Matrix, x: &[f32], n: usize) -> Vec<f32> {
    let rows = m.rows();
    let mut tmp = vec![0.0f64; rows * n];
    for i in 0..rows {
        for k in 0..n {
            let a = m.row(i)[k];
            if a == 0.0 {
                continue;
            }
            for j in 0..n {
                tmp[i * n + j] += a * x[k * n + j] as f64;
            }
        }
    }
    let mut out = vec![0.0f32; rows * rows];
    for i in 0..rows {
        for j in 0..rows {
            let mut s = 0.0f64;
            for k in 0..n {
                s += tmp[i * n + k] * m.row(j)[k];
            }
            out[i * rows + j] = s as f32;
        }
    }
    out
}

fn ref_input(x: &Tensor4, tf: &WinogradTransform) -> WgTensor {
    let s = x.shape();
    let tl = Tiling::new(tf, s.h, s.w);
    let (t, tpi) = (tl.t, tl.tiles_per_image());
    let mut out = WgTensor::zeros(t * t, s.n * tpi, s.c);
    let mut tile = vec![0.0f32; t * t];
    for b in 0..s.n {
        for c in 0..s.c {
            for ty in 0..tl.tiles_h {
                for tx in 0..tl.tiles_w {
                    let (oy, ox) = tl.tile_origin(ty, tx);
                    for u in 0..t {
                        for v in 0..t {
                            tile[u * t + v] = x.get_padded(b, c, oy + u as isize, ox + v as isize);
                        }
                    }
                    out.scatter_tile(
                        b * tpi + ty * tl.tiles_w + tx,
                        c,
                        &sandwich(tf.b_t(), &tile, t),
                    );
                }
            }
        }
    }
    out
}

fn ref_output_grad(dy: &Tensor4, tf: &WinogradTransform) -> WgTensor {
    let s = dy.shape();
    let tl = Tiling::new(tf, s.h, s.w);
    let (t, m, tpi) = (tl.t, tl.m, tl.tiles_per_image());
    let mut out = WgTensor::zeros(t * t, s.n * tpi, s.c);
    for b in 0..s.n {
        for j in 0..s.c {
            for ty in 0..tl.tiles_h {
                for tx in 0..tl.tiles_w {
                    let mut buf = vec![0.0f32; m * m];
                    for u in 0..m {
                        for v in 0..m {
                            let (oy, ox) = (ty * m + u, tx * m + v);
                            if oy < s.h && ox < s.w {
                                buf[u * m + v] = dy[(b, j, oy, ox)];
                            }
                        }
                    }
                    let wg = sandwich(&tf.a_t().transpose(), &buf, m);
                    out.scatter_tile(b * tpi + ty * tl.tiles_w + tx, j, &wg);
                }
            }
        }
    }
    out
}

fn ref_inverse(y: &WgTensor, tf: &WinogradTransform, shape: Shape4) -> Tensor4 {
    let tl = Tiling::new(tf, shape.h, shape.w);
    let (t, m, tpi) = (tl.t, tl.m, tl.tiles_per_image());
    let mut out = Tensor4::zeros(shape);
    for b in 0..shape.n {
        for j in 0..shape.c {
            for ty in 0..tl.tiles_h {
                for tx in 0..tl.tiles_w {
                    let full = y.gather_tile(b * tpi + ty * tl.tiles_w + tx, j);
                    let sp = sandwich(tf.a_t(), &full, t);
                    for u in 0..m {
                        for v in 0..m {
                            let (oy, ox) = (ty * m + u, tx * m + v);
                            if oy < shape.h && ox < shape.w {
                                out[(b, j, oy, ox)] = sp[u * m + v];
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

fn ref_input_grad(dx: &WgTensor, tf: &WinogradTransform, shape: Shape4) -> Tensor4 {
    let tl = Tiling::new(tf, shape.h, shape.w);
    let (t, tpi) = (tl.t, tl.tiles_per_image());
    let mut out = Tensor4::zeros(shape);
    for b in 0..shape.n {
        for c in 0..shape.c {
            for ty in 0..tl.tiles_h {
                for tx in 0..tl.tiles_w {
                    let full = dx.gather_tile(b * tpi + ty * tl.tiles_w + tx, c);
                    let sp = sandwich(&tf.b_t().transpose(), &full, t);
                    let (oy, ox) = tl.tile_origin(ty, tx);
                    for u in 0..t {
                        for v in 0..t {
                            let (y, x) = (oy + u as isize, ox + v as isize);
                            if y >= 0 && x >= 0 && (y as usize) < shape.h && (x as usize) < shape.w
                            {
                                out[(b, c, y as usize, x as usize)] += sp[u * t + v];
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

fn ref_weights(w: &Tensor4, tf: &WinogradTransform) -> WgWeights {
    let s = w.shape();
    let (t, r) = (tf.t(), tf.r());
    let mut out = WgWeights::zeros(t * t, s.c, s.n);
    for j in 0..s.n {
        for i in 0..s.c {
            let wbuf: Vec<f32> = (0..r * r).map(|uv| w[(j, i, uv / r, uv % r)]).collect();
            for (e, v) in sandwich(tf.g(), &wbuf, r).into_iter().enumerate() {
                let at = out.index(e, i, j);
                out.data[at] = v;
            }
        }
    }
    out
}

/// `Gᵀ ∂W G` per filter of a Winograd-domain weight gradient.
fn ref_weight_grad(dw: &WgWeights, tf: &WinogradTransform) -> Tensor4 {
    let (t, r) = (tf.t(), tf.r());
    let mut out = Tensor4::zeros(Shape4::new(dw.out_chans, dw.in_chans, r, r));
    for j in 0..dw.out_chans {
        for i in 0..dw.in_chans {
            let buf: Vec<f32> = (0..t * t).map(|e| dw.data[dw.index(e, i, j)]).collect();
            let sp = sandwich(&tf.g().transpose(), &buf, t);
            for uv in 0..r * r {
                out[(j, i, uv / r, uv % r)] = sp[uv];
            }
        }
    }
    out
}

fn transform(c: &mut Case) -> WinogradTransform {
    match c.size(0, 2) {
        0 => WinogradTransform::f2x2_3x3(),
        1 => WinogradTransform::f4x4_3x3(),
        _ => WinogradTransform::f2x2_5x5(),
    }
}

/// A seeded normal tensor salted with exact zeros of both signs, ReLU
/// sparsity (every negative becomes `+0.0`) and, when drawn, ±∞ or
/// magnitudes `{1, 3, 4, 5}·2^±30` in place of the normal ones.
fn salted(c: &mut Case, shape: Shape4) -> Tensor4 {
    let mut t = c.tensor_seeded(shape, 0.0, 1.0);
    let relu = c.bool();
    let zeros = c.ratio() * 0.5;
    let infs = c.bool();
    let wide = c.bool();
    let mut rng = Rng64::new(c.seed());
    for v in t.as_mut_slice() {
        if relu && *v < 0.0 {
            *v = 0.0;
        }
        if wide {
            let scale = if rng.next_bool() {
                2f32.powi(30)
            } else {
                2f32.powi(-30)
            };
            *v = v.signum() * [1.0, 3.0, 4.0, 5.0][rng.index(4)] * scale;
        }
        let roll = rng.next_f64();
        let sign = if rng.next_bool() { 1.0 } else { -1.0 };
        if roll < zeros {
            *v = sign * 0.0;
        } else if infs && roll > 0.98 {
            *v = sign * f32::INFINITY;
        }
    }
    t
}

/// A Winograd-domain tensor of `elems × tiles × chans` with the values of
/// a salted tensor.
fn salted_wg(c: &mut Case, elems: usize, tiles: usize, chans: usize) -> WgTensor {
    let mut wg = WgTensor::zeros(elems, tiles, chans);
    let src = salted(c, Shape4::new(1, 1, 1, wg.data.len()));
    wg.data.copy_from_slice(src.as_slice());
    wg
}

#[test]
fn tiling_kernels_match_the_frozen_per_tile_path_bitwise() {
    check(
        "tiling_kernels_match_the_frozen_per_tile_path_bitwise",
        |c| {
            let tf = transform(c);
            // Up to 40 wide: a tile row then has up to 20·17 = 340 lanes,
            // past the 64–128 of a training step's rows, and most lane
            // counts are no multiple of a vector width.
            let shape = c.shape4((1, 3), (1, 17), (1, 11), (1, 40));
            let tl = Tiling::new(&tf, shape.h, shape.w);
            let tiles = shape.n * tl.tiles_per_image();
            let x = salted(c, shape);
            let y = salted_wg(c, tl.t * tl.t, tiles, shape.c);

            let want_in = bits(&ref_input(&x, &tf).data);
            let want_dy = bits(&ref_output_grad(&x, &tf).data);
            let want_out = bits(ref_inverse(&y, &tf, shape).as_slice());
            let want_dx = bits(ref_input_grad(&y, &tf, shape).as_slice());
            for jobs in JOBS {
                let pool = ParPool::new(jobs);
                let got = to_winograd_input_par(&pool, &x, &tf);
                assert_eq!(want_in, bits(&got.data), "input, jobs={jobs}");
                let got = output_grad_to_winograd_par(&pool, &x, &tf);
                assert_eq!(want_dy, bits(&got.data), "output grad, jobs={jobs}");
                let got = from_winograd_output_par(&pool, &y, &tf, shape);
                assert_eq!(want_out, bits(got.as_slice()), "inverse, jobs={jobs}");
                let got = input_grad_to_spatial_par(&pool, &y, &tf, shape);
                assert_eq!(want_dx, bits(got.as_slice()), "input grad, jobs={jobs}");
            }
        },
    );
}

#[test]
fn weight_transforms_match_the_frozen_per_filter_path_bitwise() {
    check(
        "weight_transforms_match_the_frozen_per_filter_path_bitwise",
        |c| {
            let tf = transform(c);
            let r = tf.r();
            let wshape = c.shape4((1, 17), (1, 4), (r, r), (r, r));
            let w = salted(c, wshape);
            assert_eq!(
                bits(&ref_weights(&w, &tf).data),
                bits(&weights_to_winograd(&w, &tf).data),
                "G w Gᵀ"
            );

            // `WinogradConv::update_grad` = frozen transforms, the element
            // GEMM, then `Gᵀ ∂W G` per filter.
            let shape = c.shape4((1, 2), (w.shape().c, w.shape().c), (1, 9), (1, 9));
            let x = salted(c, shape);
            let dy = salted(c, Shape4::new(shape.n, w.shape().n, shape.h, shape.w));
            let serial = ParPool::serial();
            let dw_wg = elementwise_gemm_wgrad_par(
                &serial,
                &ref_input(&x, &tf),
                &ref_output_grad(&dy, &tf),
                1,
            );
            assert_eq!(
                bits(ref_weight_grad(&dw_wg, &tf).as_slice()),
                bits(WinogradConv::new(tf).update_grad(&x, &dy).as_slice()),
                "Gᵀ ∂W G"
            );
        },
    );
}
