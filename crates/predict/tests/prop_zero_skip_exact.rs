//! Frozen-reference property: the zero-skip fractions are held
//! **bitwise** (as f64) to the per-(tile, channel) path they replaced.
//! That path is frozen here as the oracle: every spatial tile read
//! through `get_padded`, then `input_2d` per tile and channel for the
//! 2-D payload `Bᵀ x B`, and an f64 sum over every `k` in ascending
//! order per value of `Bᵀ x` for the 1-D payload.
//!
//! Cases draw F(2,3), F(4,3) or F(2,5); maps whose sides are often not a
//! multiple of `m`, so edge tiles are cropped and padded; batch 1–2;
//! 1–9 channels. Inputs carry ReLU sparsity, exact `+0.0`/`−0.0` and, in
//! some cases, infinities: `0·∞` is NaN, so a 1-D sum that skips a zero
//! coefficient counts a zero the oracle does not.

use wmpt_check::{check, Case};
use wmpt_predict::{scatter_zero_fraction_1d, scatter_zero_fraction_2d};
use wmpt_tensor::{Rng64, Shape4, Tensor4};
use wmpt_winograd::{Tiling, WinogradTransform};

/// Every `T×T` spatial tile of `x`, per (image, channel, tile row, tile
/// column), read through `get_padded`.
fn ref_tiles(x: &Tensor4, tf: &WinogradTransform) -> Vec<Vec<f32>> {
    let s = x.shape();
    let tl = Tiling::new(tf, s.h, s.w);
    let t = tl.t;
    let mut tiles = Vec::new();
    for b in 0..s.n {
        for c in 0..s.c {
            for ty in 0..tl.tiles_h {
                for tx in 0..tl.tiles_w {
                    let (oy, ox) = tl.tile_origin(ty, tx);
                    let tile = (0..t * t)
                        .map(|uv| {
                            let (u, v) = ((uv / t) as isize, (uv % t) as isize);
                            x.get_padded(b, c, oy + u, ox + v)
                        })
                        .collect();
                    tiles.push(tile);
                }
            }
        }
    }
    tiles
}

fn fraction(zeros: usize, total: usize) -> f64 {
    if total == 0 {
        0.0
    } else {
        zeros as f64 / total as f64
    }
}

/// Zero fraction of `Bᵀ x B`, one `input_2d` per (tile, channel).
fn ref_fraction_2d(x: &Tensor4, tf: &WinogradTransform) -> f64 {
    let (mut zeros, mut total) = (0, 0);
    for tile in ref_tiles(x, tf) {
        let tx = tf.input_2d(&tile);
        zeros += tx.iter().filter(|v| **v == 0.0).count();
        total += tx.len();
    }
    fraction(zeros, total)
}

/// Zero fraction of `Bᵀ x`: value `(i, j)` is the f64 sum over every `k`
/// of `Bᵀ[i][k]·x[k][j]`, ascending `k`.
fn ref_fraction_1d(x: &Tensor4, tf: &WinogradTransform) -> f64 {
    let (t, b_t) = (tf.t(), tf.b_t());
    let (mut zeros, mut total) = (0, 0);
    for tile in ref_tiles(x, tf) {
        for j in 0..t {
            for i in 0..t {
                let mut s = 0.0f64;
                for k in 0..t {
                    s += b_t.row(i)[k] * tile[k * t + j] as f64;
                }
                if s == 0.0 {
                    zeros += 1;
                }
                total += 1;
            }
        }
    }
    fraction(zeros, total)
}

fn transform(c: &mut Case) -> WinogradTransform {
    match c.size(0, 2) {
        0 => WinogradTransform::f2x2_3x3(),
        1 => WinogradTransform::f4x4_3x3(),
        _ => WinogradTransform::f2x2_5x5(),
    }
}

/// A post-ReLU-like map: a seeded normal tensor (negatives become `+0.0`
/// when ReLU is drawn), salted with exact zeros of both signs and, when
/// drawn, ±∞.
fn activations(c: &mut Case, shape: Shape4) -> Tensor4 {
    let mut t = c.tensor_seeded(shape, 0.0, 1.0);
    let relu = c.bool();
    let zeros = c.ratio() * 0.5;
    let infs = c.bool();
    let mut rng = Rng64::new(c.seed());
    for v in t.as_mut_slice() {
        if relu && *v < 0.0 {
            *v = 0.0;
        }
        let roll = rng.next_f64();
        let sign = if rng.next_bool() { 1.0 } else { -1.0 };
        if roll < zeros {
            *v = sign * 0.0;
        } else if infs && roll > 0.97 {
            *v = sign * f32::INFINITY;
        }
    }
    t
}

#[test]
fn zero_skip_fractions_match_the_frozen_per_tile_path_bitwise() {
    check(
        "zero_skip_fractions_match_the_frozen_per_tile_path_bitwise",
        |c| {
            let tf = transform(c);
            let shape = c.shape4((1, 2), (1, 9), (1, 11), (1, 11));
            let x = activations(c, shape);
            assert_eq!(
                ref_fraction_2d(&x, &tf).to_bits(),
                scatter_zero_fraction_2d(&x, &tf).to_bits(),
                "2-D {shape:?}"
            );
            assert_eq!(
                ref_fraction_1d(&x, &tf).to_bits(),
                scatter_zero_fraction_1d(&x, &tf).to_bits(),
                "1-D {shape:?}"
            );
        },
    );
}
