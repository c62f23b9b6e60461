//! Critical-path attribution over a span trace.
//!
//! The observed simulators tile every iteration's `[0, total_cycles)`
//! window with `layer`-category phase spans and lay subsystem activity
//! (NDP stages, tile transfers, collectives, DRAM stalls) inside those
//! windows. The critical path re-derives the paper's attribution claims
//! from that layout: every cycle of the iteration window is charged to
//! exactly one [`Category`], picking the *most blocking* subsystem
//! wherever activities overlap — a collective serializes the whole grid,
//! a tile transfer serializes a cluster, a DRAM stall serializes one
//! worker's pipeline, and NDP compute is the default owner of the
//! window. Among covering spans of the same category, the last-recorded
//! one claims the cycle. In-window cycles no work span covers are charged
//! to [`Category::DramStall`] (named `(untraced)`), so they cannot
//! inflate compute share. The result is a gapless segment chain whose
//! total equals the simulated cycle count exactly and whose per-category
//! attribution sums to 100%. [`crate::Analyzer`] computes it.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use wmpt_sim::Time;

/// Subsystem a critical-path cycle is attributed to, ordered by how much
/// of the machine the subsystem serializes when it is the blocker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Category {
    /// NDP compute (systolic/vector stages) — the default owner.
    Ndp,
    /// DRAM stream overhanging compute in a worker pipeline.
    DramStall,
    /// Tile scatter/gather on the NoC.
    TileComm,
    /// Grid-wide weight collective (reduce + broadcast).
    Collective,
}

impl Category {
    /// Every category, in ascending blocking priority.
    pub const ALL: [Category; 4] = [
        Category::Ndp,
        Category::DramStall,
        Category::TileComm,
        Category::Collective,
    ];

    /// Serialized name, used in reports and baseline metric keys.
    pub fn name(self) -> &'static str {
        match self {
            Category::Ndp => "ndp",
            Category::DramStall => "dram_stall",
            Category::TileComm => "tile_comm",
            Category::Collective => "collective",
        }
    }

    /// Maps a span category string (the Chrome `cat` field emitted by the
    /// observed simulators) to an attribution category. `layer` windows
    /// and explicit `idle` filler are structure, not work — they map to
    /// `None`.
    pub fn from_span_cat(cat: &str) -> Option<Category> {
        match cat {
            "ndp" => Some(Category::Ndp),
            "dram" => Some(Category::DramStall),
            "noc" => Some(Category::TileComm),
            "collective" => Some(Category::Collective),
            _ => None,
        }
    }
}

/// The critical path: a gapless chain of categorized segments covering
/// the iteration domain, kept as its per-category totals and length.
#[derive(Debug, Clone, Default)]
pub struct CriticalPath {
    /// Cycles charged to each category. Every category is present (zeros
    /// included) and the values sum to [`CriticalPath::total`] exactly.
    pub attribution: BTreeMap<Category, Time>,
    /// Total cycles covered — the `layer`-window extent of the trace.
    pub total: Time,
    /// Number of segments: maximal runs of cycles claimed by the same
    /// category and span name.
    pub segment_count: usize,
}

impl CriticalPath {
    /// Flat metric view for baseline gating: `critpath.total_cycles`,
    /// `critpath.cycles.<category>` and `critpath.share.<category>`.
    pub fn metrics(&self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        out.insert("critpath.total_cycles".to_string(), self.total as f64);
        let denom = self.total.max(1) as f64;
        for (cat, cycles) in &self.attribution {
            out.insert(format!("critpath.cycles.{}", cat.name()), *cycles as f64);
            out.insert(
                format!("critpath.share.{}", cat.name()),
                *cycles as f64 / denom,
            );
        }
        out
    }

    /// Deterministic text table of the per-category attribution.
    pub fn render_table(&self) -> String {
        let denom = self.total.max(1) as f64;
        let mut out = String::new();
        let _ = writeln!(out, "critical path: {} cycles", self.total);
        let mut cats: Vec<_> = self.attribution.iter().map(|(c, t)| (*c, *t)).collect();
        cats.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        for (cat, cycles) in cats {
            let _ = writeln!(
                out,
                "  {:<12} {:>14} cycles  {:>5.1}%",
                cat.name(),
                cycles,
                cycles as f64 / denom * 100.0
            );
        }
        let _ = writeln!(out, "  segments: {}", self.segment_count);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Analysis;
    use wmpt_obs::Tracer;

    fn path(t: &Tracer) -> CriticalPath {
        Analysis::of_trace(t).critical_path
    }

    fn trace() -> Tracer {
        // One 100-cycle layer window: ndp tiles it, a noc transfer covers
        // [10, 40), a collective [40, 60), a dram stall [80, 100).
        let mut t = Tracer::new();
        let iter = t.track("iter");
        t.span(iter, "layer", "forward", 0, 100);
        let w = t.track("worker0");
        t.span(w, "ndp", "gemm_f", 0, 100);
        let n = t.track("noc");
        t.span(n, "noc", "tile_scatter", 10, 40);
        let c = t.track("collective");
        t.span(c, "collective", "reduce", 40, 60);
        let d = t.track("dram0");
        t.span(d, "dram", "stall", 80, 100);
        t
    }

    #[test]
    fn attribution_prefers_the_most_blocking_subsystem() {
        let cp = path(&trace());
        assert_eq!(cp.total, 100);
        let attr = &cp.attribution;
        assert_eq!(attr[&Category::TileComm], 30);
        assert_eq!(attr[&Category::Collective], 20);
        assert_eq!(attr[&Category::DramStall], 20);
        assert_eq!(attr[&Category::Ndp], 30);
        assert_eq!(attr.values().sum::<Time>(), cp.total);
        // Adjacent same-attribution slices merged: ndp, noc, coll, ndp, dram.
        assert_eq!(cp.segment_count, 5);
    }

    #[test]
    fn last_recorded_span_wins_ties() {
        // Last-wins: "b" claims [0, 50), the second "a" claims [50, 100)
        // — two segments. Earliest-wins would give one "a" segment.
        let mut t = Tracer::new();
        let iter = t.track("iter");
        t.span(iter, "layer", "forward", 0, 100);
        let w = t.track("worker0");
        t.span(w, "ndp", "a", 0, 100);
        t.span(w, "ndp", "b", 0, 100);
        t.span(w, "ndp", "a", 50, 100);
        let cp = path(&t);
        assert_eq!(cp.segment_count, 2);
        assert_eq!(cp.attribution[&Category::Ndp], 100);
    }

    #[test]
    fn spans_outside_the_layer_window_are_clipped() {
        let mut t = Tracer::new();
        let iter = t.track("iter");
        t.span(iter, "layer", "forward", 0, 50);
        let n = t.track("noc");
        t.span(n, "noc", "tile_gather", 30, 90); // overflows the window
        let cp = path(&t);
        assert_eq!(cp.total, 50);
        assert_eq!(cp.attribution[&Category::TileComm], 20);
    }

    #[test]
    fn untraced_window_cycles_count_as_stall() {
        let mut t = Tracer::new();
        let iter = t.track("iter");
        t.span(iter, "layer", "forward", 0, 40);
        let w = t.track("worker0");
        t.span(w, "ndp", "gemm_f", 0, 25);
        let cp = path(&t);
        assert_eq!(cp.attribution[&Category::DramStall], 15);
        assert_eq!(cp.segment_count, 2);
    }

    #[test]
    fn idle_filler_is_not_work() {
        let mut t = Tracer::new();
        let iter = t.track("iter");
        t.span(iter, "layer", "forward", 0, 40);
        let w = t.track("worker0");
        t.span(w, "ndp", "gemm_f", 0, 40);
        let n = t.track("noc");
        t.span(n, "idle", "noc_idle", 0, 40);
        let cp = path(&t);
        assert_eq!(cp.attribution[&Category::Ndp], 40);
        assert_eq!(cp.attribution[&Category::TileComm], 0);
    }

    #[test]
    fn empty_trace_yields_empty_path() {
        let cp = path(&Tracer::new());
        assert_eq!(cp.total, 0);
        assert_eq!(cp.segment_count, 0);
        assert!(cp.metrics()["critpath.total_cycles"] == 0.0);
    }

    #[test]
    fn metrics_shares_sum_to_one() {
        let m = path(&trace()).metrics();
        let share: f64 = Category::ALL
            .iter()
            .map(|c| m[&format!("critpath.share.{}", c.name())])
            .sum();
        assert!((share - 1.0).abs() < 1e-12, "shares sum to {share}");
    }
}
