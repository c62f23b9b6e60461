//! Case generators: typed values drawn from the choice stream.
//!
//! Every generator is a deterministic function of the [`Source`] stream
//! and is written so that *smaller choices mean simpler values* — sizes
//! shrink toward their lower bound, floats toward `lo` (or `0.0` for the
//! symmetric variants), booleans toward `false`, tensors toward all-zero.
//! The greedy shrinker exploits exactly this monotonicity.

use crate::source::Source;
use wmpt_tensor::{DataGen, Shape4, Tensor4};

/// One generated test case. Borrowed mutably by the property under test;
/// all value draws go through it.
pub struct Case<'a> {
    src: &'a mut Source,
}

/// Abstract ring-plus-chords topology description (the NoC crates turn it
/// into a concrete `Topology`; kept abstract here so `wmpt-check` stays at
/// the bottom of the dependency graph).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopoSpec {
    /// Node count.
    pub n: usize,
    /// Extra chord endpoints, each `< n` (self-chords already filtered).
    pub chords: Vec<(usize, usize)>,
}

/// Abstract fault-plan description (scenario index into the consuming
/// crate's scenario table, plus the seed/horizon that make plans
/// deterministic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlanSpec {
    /// Index into the consumer's ordered scenario list.
    pub scenario_index: usize,
    /// Plan seed.
    pub seed: u64,
    /// Plan horizon in cycles.
    pub horizon: u64,
}

impl<'a> Case<'a> {
    /// Wraps a [`Source`] (the runner does this for you; public so tests
    /// can replay a recorded case by hand).
    pub fn new(src: &'a mut Source) -> Self {
        Self { src }
    }

    /// Raw inclusive-bound draw (see [`Source::draw`]).
    pub fn draw(&mut self, bound: u64) -> u64 {
        self.src.draw(bound)
    }

    /// Whether the case has gone invalid (replay overrun); generators
    /// return zeros/minimums from that point on.
    pub fn invalid(&self) -> bool {
        self.src.is_invalid()
    }

    /// Integer in `[lo, hi]`, shrinking toward `lo`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn size(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo <= hi, "empty size range [{lo}, {hi}]");
        lo + self.draw((hi - lo) as u64) as usize
    }

    /// `u64` in `[lo, hi]`, shrinking toward `lo`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn u64_in(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range [{lo}, {hi}]");
        lo + self.draw(hi - lo)
    }

    /// Full-range `u64` (for seeding nested deterministic generators),
    /// shrinking toward 0.
    pub fn seed(&mut self) -> u64 {
        self.draw(u64::MAX)
    }

    /// Boolean, shrinking toward `false`.
    pub fn bool(&mut self) -> bool {
        self.draw(1) == 1
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits, shrinking toward 0.
    pub fn ratio(&mut self) -> f64 {
        self.draw((1u64 << 53) - 1) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`, shrinking toward `lo`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + (hi - lo) * self.ratio()
    }

    /// Uniform `f32` in `[lo, hi)`, shrinking toward `lo`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn f32_in(&mut self, lo: f32, hi: f32) -> f32 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        let v = lo + ((hi - lo) as f64 * self.ratio()) as f32;
        if v >= hi {
            hi - (hi - lo) * f32::EPSILON
        } else {
            v
        }
    }

    /// Symmetric `f32` in `[-max, max]`, shrinking toward `+0.0`
    /// (magnitude first, then sign).
    ///
    /// # Panics
    ///
    /// Panics if `max <= 0`.
    pub fn f32_pm(&mut self, max: f32) -> f32 {
        let mag = self.f32_in(0.0, max);
        if self.bool() {
            -mag
        } else {
            mag
        }
    }

    /// One element of a slice, shrinking toward the first.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn pick<'t, T>(&mut self, items: &'t [T]) -> &'t T {
        assert!(!items.is_empty(), "cannot pick from an empty slice");
        &items[self.size(0, items.len() - 1)]
    }

    /// `len` symmetric `f32`s in `[-max, max]`, shrinking toward zeros.
    pub fn vec_pm(&mut self, len: usize, max: f32) -> Vec<f32> {
        (0..len).map(|_| self.f32_pm(max)).collect()
    }

    /// Shape with each dimension drawn from its own inclusive range.
    pub fn shape4(
        &mut self,
        n: (usize, usize),
        c: (usize, usize),
        h: (usize, usize),
        w: (usize, usize),
    ) -> Shape4 {
        Shape4::new(
            self.size(n.0, n.1),
            self.size(c.0, c.1),
            self.size(h.0, h.1),
            self.size(w.0, w.1),
        )
    }

    /// Tensor with every element drawn per-choice from `[-max, max]`
    /// (shrinks element-wise toward zero). Costs `2·len` choices — use for
    /// small tensors where shrink quality matters.
    pub fn tensor_pm(&mut self, shape: Shape4, max: f32) -> Tensor4 {
        let data = self.vec_pm(shape.len(), max);
        Tensor4::from_vec(shape, data)
    }

    /// Large normal tensor from a single drawn seed through [`DataGen`]
    /// (one choice total; shrinks by minimizing the seed, not the
    /// elements).
    pub fn tensor_seeded(&mut self, shape: Shape4, mean: f64, sigma: f64) -> Tensor4 {
        DataGen::new(self.seed()).normal_tensor(shape, mean, sigma)
    }

    /// He-initialized weight tensor from a single drawn seed.
    pub fn weights_seeded(&mut self, shape: Shape4) -> Tensor4 {
        DataGen::new(self.seed()).he_weights(shape)
    }

    /// Ring-plus-chords topology spec with `n ∈ [n_lo, n_hi]` nodes and up
    /// to `max_chords` chords (self-chords dropped). Shrinks toward the
    /// bare `n_lo`-ring.
    ///
    /// # Panics
    ///
    /// Panics if `n_lo < 3` (a ring needs three nodes) or `n_lo > n_hi`.
    pub fn topo_spec(&mut self, n_lo: usize, n_hi: usize, max_chords: usize) -> TopoSpec {
        assert!(n_lo >= 3, "a ring topology needs at least 3 nodes");
        let n = self.size(n_lo, n_hi);
        let count = self.size(0, max_chords);
        let chords = (0..count)
            .map(|_| (self.size(0, n - 1), self.size(0, n - 1)))
            .filter(|(a, b)| a != b)
            .collect();
        TopoSpec { n, chords }
    }

    /// Fault-plan spec: scenario index below `scenarios`, deterministic
    /// seed, horizon in `[h_lo, h_hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `scenarios == 0` or `h_lo > h_hi`.
    pub fn fault_spec(&mut self, scenarios: usize, h_lo: u64, h_hi: u64) -> FaultPlanSpec {
        assert!(scenarios > 0, "need at least one scenario");
        FaultPlanSpec {
            scenario_index: self.size(0, scenarios - 1),
            seed: self.seed(),
            horizon: self.u64_in(h_lo, h_hi),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_case<R>(seed: u64, f: impl FnOnce(&mut Case) -> R) -> R {
        let mut src = Source::random(seed, 4096);
        let mut case = Case::new(&mut src);
        f(&mut case)
    }

    #[test]
    fn sizes_and_floats_respect_bounds() {
        with_case(1, |c| {
            for _ in 0..200 {
                let s = c.size(3, 9);
                assert!((3..=9).contains(&s));
                let f = c.f32_in(-1.5, 2.5);
                assert!((-1.5..2.5).contains(&f));
                let p = c.f32_pm(0.5);
                assert!(p.abs() <= 0.5);
                let r = c.ratio();
                assert!((0.0..1.0).contains(&r));
            }
        });
    }

    #[test]
    fn replayed_case_rebuilds_identical_values() {
        let build = |c: &mut Case| {
            let shape = c.shape4((1, 2), (1, 3), (2, 6), (2, 6));
            let t = c.tensor_pm(shape, 1.0);
            let s = c.tensor_seeded(Shape4::new(1, 1, 4, 4), 0.0, 1.0);
            (t, s)
        };
        let (choices, a) = {
            let mut src = Source::random(99, 4096);
            let v = build(&mut Case::new(&mut src));
            (src.record().to_vec(), v)
        };
        let mut src = Source::replay(&choices, 4096);
        let b = build(&mut Case::new(&mut src));
        assert!(!src.is_invalid());
        assert_eq!(a.0.as_slice(), b.0.as_slice(), "bit-identical tensors");
        assert_eq!(a.1.as_slice(), b.1.as_slice(), "bit-identical seeded");
    }

    #[test]
    fn all_zero_choices_give_minimal_values() {
        let zeros = vec![0u64; 64];
        let mut src = Source::replay(&zeros, 4096);
        let mut c = Case::new(&mut src);
        assert_eq!(c.size(2, 7), 2);
        assert!(!c.bool());
        assert_eq!(c.f32_pm(3.0), 0.0);
        assert_eq!(c.f32_in(1.0, 2.0), 1.0);
        let spec = c.topo_spec(3, 11, 4);
        assert_eq!(
            spec,
            TopoSpec {
                n: 3,
                chords: vec![]
            }
        );
    }

    #[test]
    fn topo_spec_chords_stay_in_range() {
        with_case(5, |c| {
            for _ in 0..50 {
                let spec = c.topo_spec(3, 12, 6);
                for &(a, b) in &spec.chords {
                    assert!(a < spec.n && b < spec.n && a != b);
                }
            }
        });
    }

    #[test]
    fn fault_spec_in_range() {
        with_case(6, |c| {
            for _ in 0..50 {
                let s = c.fault_spec(6, 100, 1000);
                assert!(s.scenario_index < 6);
                assert!((100..=1000).contains(&s.horizon));
            }
        });
    }
}
