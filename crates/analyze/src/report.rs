//! Utilization and bottleneck reporting over a span trace.
//!
//! Complements [`crate::critpath`]: where the critical path charges each
//! cycle to one blocking subsystem, the utilization report looks at each
//! track independently — how busy was every worker / the NoC / the
//! collective engine over the iteration domain, and which individual
//! spans dominate. [`crate::Analyzer`] fills it in. All output is
//! deterministic (stable ordering, fixed number formatting), so reports
//! diff cleanly across runs.

use std::fmt::Write as _;

use wmpt_sim::Time;

/// Busy/idle accounting for one track.
#[derive(Debug, Clone, PartialEq)]
pub struct TrackUtilization {
    /// Track name (Chrome thread).
    pub track: String,
    /// Cycles covered by at least one non-`idle`, non-`layer` span,
    /// clipped to the analysis domain.
    pub busy: Time,
    /// Domain cycles not covered: `domain - busy`.
    pub idle: Time,
    /// `busy / (busy + idle)`; 0 for an empty domain.
    pub utilization: f64,
}

/// One heavy span, for the top-k bottleneck list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bottleneck {
    /// Track the span lives on.
    pub track: String,
    /// Span category.
    pub cat: String,
    /// Span name.
    pub name: String,
    /// Start cycle.
    pub start: Time,
    /// Span length in cycles.
    pub cycles: Time,
}

/// Per-track utilization plus the top-k heaviest work spans.
#[derive(Debug, Clone, Default)]
pub struct UtilizationReport {
    /// One entry per track, in track-registration order. The `iter`
    /// track (layer windows) is skipped — it is busy by construction.
    pub tracks: Vec<TrackUtilization>,
    /// Heaviest work spans, longest first.
    pub bottlenecks: Vec<Bottleneck>,
    /// Total cycles of the analysis domain.
    pub domain: Time,
    /// Mean utilization over reported tracks (the grid-level figure).
    pub grid_utilization: f64,
}

impl UtilizationReport {
    /// Flat metric view for baseline gating: `util.grid` plus
    /// `util.<track>` per reported track.
    pub fn metrics(&self) -> std::collections::BTreeMap<String, f64> {
        let mut out = std::collections::BTreeMap::new();
        out.insert("util.grid".to_string(), self.grid_utilization);
        for t in &self.tracks {
            out.insert(format!("util.{}", t.track), t.utilization);
        }
        out
    }

    /// Deterministic text rendering of the full report.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "utilization over {} domain cycles (grid {:.1}%)",
            self.domain,
            self.grid_utilization * 100.0
        );
        let _ = writeln!(
            out,
            "  {:<12} {:>14} {:>14} {:>7}",
            "track", "busy", "idle", "util"
        );
        for t in &self.tracks {
            let _ = writeln!(
                out,
                "  {:<12} {:>14} {:>14} {:>6.1}%",
                t.track,
                t.busy,
                t.idle,
                t.utilization * 100.0
            );
        }
        let _ = writeln!(out, "top {} spans:", self.bottlenecks.len());
        for b in &self.bottlenecks {
            let _ = writeln!(
                out,
                "  {:>14} cycles  {:<12} {:<12} {} @ {}",
                b.cycles, b.track, b.cat, b.name, b.start
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::Analysis;
    use wmpt_obs::Tracer;

    fn trace() -> Tracer {
        let mut t = Tracer::new();
        let iter = t.track("iter");
        t.span(iter, "layer", "forward", 0, 100);
        let w = t.track("worker0");
        t.span(w, "ndp", "gemm_f", 0, 80);
        let n = t.track("noc");
        t.span(n, "noc", "tile_scatter", 0, 30);
        t.span(n, "idle", "noc_idle", 30, 100);
        t
    }

    #[test]
    fn busy_idle_and_utilization_reconcile() {
        let r = Analysis::of_trace(&trace()).utilization;
        assert_eq!(r.domain, 100);
        let w = r.tracks.iter().find(|t| t.track == "worker0").expect("w0");
        assert_eq!((w.busy, w.idle), (80, 20));
        let n = r.tracks.iter().find(|t| t.track == "noc").expect("noc");
        assert_eq!((n.busy, n.idle), (30, 70));
        assert!((n.utilization - 0.3).abs() < 1e-12);
        // `iter` holds only layer windows — excluded from utilization.
        assert!(r.tracks.iter().all(|t| t.track != "iter"));
        assert!((r.grid_utilization - 0.55).abs() < 1e-12);
    }

    #[test]
    fn overlapping_spans_do_not_double_count() {
        let mut t = Tracer::new();
        let iter = t.track("iter");
        t.span(iter, "layer", "forward", 0, 100);
        let w = t.track("worker0");
        t.span(w, "ndp", "a", 0, 60);
        t.span(w, "ndp", "b", 40, 80);
        let r = Analysis::of_trace(&t).utilization;
        assert_eq!(r.tracks[0].busy, 80);
    }

    #[test]
    fn rendering_is_stable() {
        let a = Analysis::of_trace(&trace()).utilization.render_table();
        let b = Analysis::of_trace(&trace()).utilization.render_table();
        assert_eq!(a, b);
        assert!(a.contains("worker0"));
        assert!(a.contains("top 2 spans:"));
    }
}
