//! Shared floating-point tolerances for the whole workspace.
//!
//! Every differential oracle in the repo compares an optimized
//! implementation against a reference, and before this module existed each
//! test file hand-rolled its own `assert!((a - b).abs() < EPS)` with its
//! own `EPS`. This module centralizes the comparison ([`approx_eq_f32`] /
//! [`approx_eq_f64`]: absolute + relative + ULP criteria) and names the
//! tolerance classes the workspace actually needs, so a test states *why*
//! it tolerates error ("one Winograd transform's worth") instead of a bare
//! magic number.

/// A tolerance: values compare equal when **any** enabled criterion holds
/// (absolute difference, relative difference, or ULP distance).
///
/// # Examples
///
/// ```
/// use wmpt_check::{approx_eq_f32, Tol};
///
/// assert!(approx_eq_f32(1.0, 1.0 + 1e-7, Tol::F32_TIGHT));
/// assert!(!approx_eq_f32(1.0, 1.01, Tol::F32_TIGHT));
/// assert!(approx_eq_f32(1e6, 1e6 * (1.0 + 1e-5), Tol::rel(1e-4)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tol {
    /// Absolute-difference criterion; `0.0` disables it.
    pub abs: f64,
    /// Relative criterion, scaled by `max(|a|, |b|)`; `0.0` disables it.
    pub rel: f64,
    /// ULP-distance criterion (units in the precision being compared);
    /// `0` disables it.
    pub ulps: u64,
}

impl Tol {
    /// Tolerance with both absolute and relative slack.
    pub const fn new(abs: f64, rel: f64) -> Self {
        Self { abs, rel, ulps: 0 }
    }

    /// Absolute-only tolerance.
    pub const fn abs(abs: f64) -> Self {
        Self::new(abs, 0.0)
    }

    /// Relative-only tolerance.
    pub const fn rel(rel: f64) -> Self {
        Self::new(0.0, rel)
    }

    /// ULP-only tolerance.
    pub const fn ulps(ulps: u64) -> Self {
        Self {
            abs: 0.0,
            rel: 0.0,
            ulps,
        }
    }

    /// Bitwise equality (modulo `+0.0 == -0.0`); NaN never compares equal.
    pub const EXACT: Tol = Tol::new(0.0, 0.0);

    /// A few f32 rounding steps: single arithmetic ops, f64-accumulated
    /// sums rounded once to f32.
    pub const F32_TIGHT: Tol = Tol::new(1e-6, 1e-6);

    /// One 2-D Winograd transform application (a `T²`-term fused
    /// multiply-add chain in f64, rounded to f32 at the boundary).
    pub const WINOGRAD_F32: Tol = Tol::new(1e-5, 1e-5);

    /// A full Winograd-vs-direct convolution differential: channel
    /// reduction plus forward + inverse transforms in f32 storage.
    pub const CONV_F32: Tol = Tol::new(1e-4, 1e-4);

    /// Large-tile (`T ≥ 6`) transforms, whose coefficient amplification
    /// (§VII stability) legitimately costs ~1 decimal digit over
    /// [`Tol::CONV_F32`].
    pub const CONV_WIDE_F32: Tol = Tol::new(2e-3, 2e-3);

    /// MPT-distributed vs centralized weights after a few SGD steps: the
    /// distributed gradient sums `N_c` per-cluster f32 results where the
    /// centralized one rounds a single f64 sum, so the two differ by f32
    /// rounding of the gradient scaled by the learning rate. Absolute
    /// only, at the `1e-3` the trainer tests have always allowed.
    pub const CLUSTER_SUM_F32: Tol = Tol::abs(1e-3);

    /// f64 linear-algebra identities (residuals of exactly-representable
    /// systems).
    pub const F64_TIGHT: Tol = Tol::new(1e-12, 1e-12);

    /// f64 least-squares / solver outputs.
    pub const F64_SOLVE: Tol = Tol::new(1e-9, 1e-9);
}

/// ULP distance between two finite `f32`s (monotone bit-space metric;
/// `u64::MAX` for NaN or infinite inputs).
pub fn ulp_diff_f32(a: f32, b: f32) -> u64 {
    if !a.is_finite() || !b.is_finite() {
        return u64::MAX;
    }
    let to_ordered = |x: f32| -> i64 {
        let bits = x.to_bits() as i32;
        (if bits < 0 {
            i32::MIN.wrapping_sub(bits)
        } else {
            bits
        }) as i64
    };
    to_ordered(a).abs_diff(to_ordered(b))
}

/// ULP distance between two finite `f64`s (`u64::MAX` for NaN/inf).
pub fn ulp_diff_f64(a: f64, b: f64) -> u64 {
    if !a.is_finite() || !b.is_finite() {
        return u64::MAX;
    }
    let to_ordered = |x: f64| -> i128 {
        let bits = x.to_bits() as i64;
        (if bits < 0 {
            i64::MIN.wrapping_sub(bits)
        } else {
            bits
        }) as i128
    };
    let d = to_ordered(a) - to_ordered(b);
    d.unsigned_abs().min(u64::MAX as u128) as u64
}

fn approx_eq_inner(a: f64, b: f64, ulps: u64, tol: Tol) -> bool {
    if a == b {
        return true;
    }
    if a.is_nan() || b.is_nan() {
        return false;
    }
    let d = (a - b).abs();
    d <= tol.abs || d <= tol.rel * a.abs().max(b.abs()) || (tol.ulps > 0 && ulps <= tol.ulps)
}

/// Whether two `f32`s are equal under `tol` (ULPs counted in f32 units).
pub fn approx_eq_f32(a: f32, b: f32, tol: Tol) -> bool {
    approx_eq_inner(a as f64, b as f64, ulp_diff_f32(a, b), tol)
}

/// Whether two `f64`s are equal under `tol` (ULPs counted in f64 units).
pub fn approx_eq_f64(a: f64, b: f64, tol: Tol) -> bool {
    approx_eq_inner(a, b, ulp_diff_f64(a, b), tol)
}

/// Largest absolute element-wise difference between two slices.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(
        a.len(),
        b.len(),
        "length mismatch: {} vs {}",
        a.len(),
        b.len()
    );
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f32::max)
}

/// Checks two slices element-wise under `tol`; `Err` names the first
/// offending index.
///
/// # Errors
///
/// Returns a description of the first mismatch (or a length mismatch).
pub fn slices_approx_eq_f32(a: &[f32], b: &[f32], tol: Tol) -> Result<(), String> {
    if a.len() != b.len() {
        return Err(format!("length mismatch: {} vs {}", a.len(), b.len()));
    }
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        if !approx_eq_f32(*x, *y, tol) {
            return Err(format!(
                "element {i}: {x} vs {y} (diff {:e}, tol {tol:?})",
                (x - y).abs()
            ));
        }
    }
    Ok(())
}

/// Asserts `approx_eq_f64(a as f64, b as f64, tol)`; accepts `f32` or
/// `f64` operands (the widening cast is exact).
#[macro_export]
macro_rules! assert_approx_eq {
    ($a:expr, $b:expr, $tol:expr $(,)?) => {{
        let (a, b): (f64, f64) = (f64::from($a), f64::from($b));
        assert!(
            $crate::approx_eq_f64(a, b, $tol),
            "approx_eq failed: {} = {a:?} vs {} = {b:?} (diff {:e}, tol {:?})",
            stringify!($a),
            stringify!($b),
            (a - b).abs(),
            $tol
        );
    }};
    ($a:expr, $b:expr, $tol:expr, $($arg:tt)+) => {{
        let (a, b): (f64, f64) = (f64::from($a), f64::from($b));
        assert!(
            $crate::approx_eq_f64(a, b, $tol),
            "approx_eq failed: {a:?} vs {b:?} (diff {:e}, tol {:?}): {}",
            (a - b).abs(),
            $tol,
            format_args!($($arg)+)
        );
    }};
}

/// Asserts two `f32` slices agree element-wise under `tol`.
#[macro_export]
macro_rules! assert_slices_approx_eq {
    ($a:expr, $b:expr, $tol:expr $(,)?) => {{
        if let Err(why) = $crate::slices_approx_eq_f32($a, $b, $tol) {
            panic!(
                "slices_approx_eq failed: {} vs {}: {why}",
                stringify!($a),
                stringify!($b)
            );
        }
    }};
    ($a:expr, $b:expr, $tol:expr, $($arg:tt)+) => {{
        if let Err(why) = $crate::slices_approx_eq_f32($a, $b, $tol) {
            panic!("slices_approx_eq failed: {why}: {}", format_args!($($arg)+));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_tol_is_bitwise() {
        assert!(approx_eq_f32(1.5, 1.5, Tol::EXACT));
        assert!(approx_eq_f32(0.0, -0.0, Tol::EXACT));
        assert!(!approx_eq_f32(1.5, 1.5000001, Tol::EXACT));
        assert!(!approx_eq_f32(f32::NAN, f32::NAN, Tol::EXACT));
    }

    #[test]
    fn relative_criterion_scales() {
        let tol = Tol::rel(1e-5);
        assert!(approx_eq_f32(1e8, 1e8 + 500.0, tol));
        assert!(!approx_eq_f32(1.0, 1.001, tol));
    }

    #[test]
    fn ulp_distance_counts_representable_steps() {
        assert_eq!(ulp_diff_f32(1.0, 1.0), 0);
        assert_eq!(ulp_diff_f32(1.0, f32::from_bits(1.0f32.to_bits() + 3)), 3);
        // Across zero: the two smallest subnormals straddle ±0.
        assert_eq!(ulp_diff_f32(f32::from_bits(1), -f32::from_bits(1)), 2);
        assert_eq!(ulp_diff_f32(f32::NAN, 1.0), u64::MAX);
        assert_eq!(ulp_diff_f64(1.0, f64::from_bits(1.0f64.to_bits() + 7)), 7);
    }

    #[test]
    fn ulps_tolerance_accepts_neighbours() {
        let a = 1.0f32;
        let b = f32::from_bits(a.to_bits() + 2);
        assert!(approx_eq_f32(a, b, Tol::ulps(2)));
        assert!(!approx_eq_f32(a, b, Tol::ulps(1)));
    }

    #[test]
    fn slice_checks_name_the_offender() {
        let a = [1.0f32, 2.0, 3.0];
        let b = [1.0f32, 2.5, 3.0];
        let err = slices_approx_eq_f32(&a, &b, Tol::F32_TIGHT).unwrap_err();
        assert!(err.contains("element 1"), "{err}");
        assert_eq!(max_abs_diff(&a, &b), 0.5);
        assert!(slices_approx_eq_f32(&a, &a, Tol::EXACT).is_ok());
    }

    #[test]
    fn macros_pass_and_fail() {
        assert_approx_eq!(1.0f32, 1.0f32 + 1e-7, Tol::F32_TIGHT);
        assert_approx_eq!(2.0f64, 2.0 + 1e-13, Tol::F64_TIGHT, "context {}", 42);
        let r = std::panic::catch_unwind(|| {
            assert_approx_eq!(1.0f32, 2.0f32, Tol::F32_TIGHT);
        });
        assert!(r.is_err());
    }
}
