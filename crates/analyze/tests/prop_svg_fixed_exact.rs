//! `write_fixed`, the SVG writers' number formatter, writes exactly the
//! bytes of `format!("{v:.p$}")`: on plot-range coordinates, exact
//! decimal ties (k / 2^j), the whole exponent range down to subnormals,
//! integers at and past 2^53, and negative values and `-0.0` (which it
//! hands to `format!` itself). Random draws run on the `wmpt-check`
//! harness; the tie and boundary sweeps are exhaustive.

use wmpt_analyze::svg::write_fixed;
use wmpt_check::{check, Case};

/// Asserts `write_fixed(v, p)` equals `format!` for every `p` given.
fn assert_exact(v: f64, ps: impl IntoIterator<Item = usize>) {
    for p in ps {
        let mut out = String::from("<");
        write_fixed(v, p, &mut out);
        assert_eq!(
            out,
            format!("<{v:.p$}"),
            "v = {v:e} (bits {:#018x}), p = {p}",
            v.to_bits()
        );
    }
}

#[test]
fn plot_range_values_match_format() {
    check("plot_range_values_match_format", |c| {
        // Timeline and flamegraph coordinates, widths and percentages.
        let v = c.f64_in(0.0, 2_000.0);
        assert_exact(v, 0..=2);
        // A span position as timeline_svg computes it.
        let extent = c.u64_in(1, 1 << 40) as f64;
        let start = c.u64_in(0, 1 << 40) as f64;
        assert_exact(100.0 + start / extent * 960.0, 0..=2);
    });
}

#[test]
fn dyadic_ties_round_half_to_even() {
    // k / 2^j for j ≤ 4 holds every tie of p ≤ 2 decimals in range.
    for j in 0..=4 {
        for k in 0..20_000u32 {
            assert_exact(f64::from(k) / f64::from(1u32 << j), 0..=2);
        }
    }
    check("dyadic_ties_round_half_to_even", |c| {
        let j = c.u64_in(0, 60) as i32;
        let k = c.u64_in(0, 1 << 53);
        assert_exact(k as f64 * 2f64.powi(-j), 0..=2);
    });
}

/// A uniformly random non-negative `f64` bit pattern, NaN and infinity
/// included.
fn random_positive_bits(c: &mut Case) -> f64 {
    f64::from_bits(c.u64_in(0, u64::MAX >> 1))
}

#[test]
fn wide_exponents_and_subnormals_match_format() {
    for v in [
        0.0,
        f64::MIN_POSITIVE,
        f64::MIN_POSITIVE / 2.0,
        f64::from_bits(1),
        f64::EPSILON,
        0.5 - f64::EPSILON / 4.0,
        0.005,
        0.015,
        0.045,
        f64::MAX,
        f64::INFINITY,
        f64::NAN,
    ] {
        assert_exact(v, 0..=20);
    }
    check("wide_exponents_and_subnormals_match_format", |c| {
        assert_exact(random_positive_bits(c), 0..=2);
        let subnormal = f64::from_bits(c.u64_in(0, (1 << 52) - 1));
        assert_exact(subnormal, 0..=2);
        let e = c.u64_in(0, 140) as i32 - 70;
        assert_exact(c.f64_in(1.0, 2.0) * 2f64.powi(e), 0..=2);
        assert_exact(c.f64_in(0.0, 1_000.0), 3..=20);
    });
}

#[test]
fn integers_at_and_past_2_pow_53_match_format() {
    for shift in 50..=70 {
        let base = 2f64.powi(shift);
        for d in -4i32..=4 {
            assert_exact(base + f64::from(d) * 2f64.powi(shift - 52), 0..=2);
        }
    }
    check("integers_at_and_past_2_pow_53_match_format", |c| {
        let v = c.u64_in(1 << 53, u64::MAX) as f64;
        assert_exact(v, 0..=2);
        assert_exact(v * 2f64.powi(c.u64_in(0, 80) as i32), 0..=2);
    });
}

#[test]
fn negatives_and_negative_zero_match_format() {
    assert_exact(-0.0, 0..=3);
    assert_exact(-0.004, 0..=3);
    assert_exact(f64::NEG_INFINITY, 0..=2);
    check("negatives_and_negative_zero_match_format", |c| {
        assert_exact(-random_positive_bits(c), 0..=2);
        assert_exact(-c.f64_in(0.0, 2_000.0), 0..=2);
    });
}
