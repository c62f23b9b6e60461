//! Derived analytics over MPT simulation traces: the analysis pass
//! between "simulate" and "report".
//!
//! `wmpt-obs` records what happened — spans on the virtual clock,
//! metric counters, Chrome-trace files. This crate turns those artifacts
//! into the paper's claims and guards them:
//!
//! * [`critpath`] — critical-path attribution: charge every cycle of
//!   the iteration window to the most blocking subsystem
//!   (`ndp`/`dram_stall`/`tile_comm`/`collective`); the chain's total
//!   equals the simulated cycle count exactly and attribution sums to
//!   100%.
//! * [`report`] — per-track busy/idle utilization, grid utilization,
//!   top-k bottleneck spans, deterministic text tables.
//! * [`stream`] — the [`Analyzer`] that computes both in one pass over
//!   a trace-event stream, finalizing a chunk at each epoch boundary
//!   with O(open-window) memory. [`analyze_jsonl`] feeds it a JSONL
//!   file; [`Analysis::of_trace`] feeds it an in-memory [`Tracer`] as
//!   one chunk.
//! * [`svg`] — a self-contained SVG timeline of the trace (no deps, no
//!   scripts), for CI artifacts and eyeballing.
//! * [`flame`] — collapsed-stack flamegraph export
//!   (`frame;frame <value>` lines plus a self-contained icicle SVG),
//!   recovering nesting by per-track span containment; works on
//!   simulator traces and the server's request-lifecycle traces alike.
//! * [`baseline`] — committed perf expectations with tolerance bands and
//!   a pass/warn/fail comparison API; `experiments --gate` exits
//!   non-zero on regression.
//!
//! [`Analysis::of_trace`] analyzes a live [`Tracer`] or one re-parsed
//! from a Chrome-trace file via `Tracer::from_chrome_trace`.
//!
//! # Example
//!
//! ```
//! use wmpt_analyze::{Analysis, Analyzer, Category, TOP_K};
//! use wmpt_obs::{TraceEvent, Tracer};
//!
//! let mut t = Tracer::new();
//! let iter = t.track("iter");
//! t.span(iter, "layer", "forward", 0, 100);
//! let noc = t.track("noc");
//! t.span(noc, "noc", "tile_scatter", 0, 30);
//!
//! let a = Analysis::of_trace(&t);
//! assert_eq!(a.critical_path.total, 100);
//! assert_eq!(a.critical_path.attribution[&Category::TileComm], 30);
//! assert!(a.metrics().contains_key("critpath.share.tile_comm"));
//!
//! // The same trace as an event stream, e.g. read back from JSONL.
//! let mut an = Analyzer::new(TOP_K);
//! for (tid, name) in t.tracks().iter().enumerate() {
//!     an.event(&TraceEvent::Track { tid, name: name.clone() })?;
//! }
//! for sp in t.spans() {
//!     an.event(&TraceEvent::Span {
//!         tid: sp.track.index(),
//!         cat: sp.cat.clone(),
//!         name: sp.name.clone(),
//!         start: sp.start,
//!         end: sp.end,
//!     })?;
//! }
//! assert_eq!(an.finish().render(), a.render());
//! # Ok::<(), String>(())
//! ```

#![forbid(unsafe_code)]

pub mod baseline;
pub mod critpath;
pub mod flame;
pub mod report;
pub mod stream;
pub mod svg;

pub use baseline::{flatten_numbers, Band, Baseline, CompareReport, CompareRow, Status};
pub use critpath::{Category, CriticalPath};
pub use flame::{collapsed_stacks, flame_svg};
pub use report::{Bottleneck, TrackUtilization, UtilizationReport};
pub use stream::{analyze_jsonl, Analyzer};
pub use svg::timeline_svg;

use std::collections::BTreeMap;

use wmpt_obs::Tracer;

/// How many bottleneck spans [`Analysis::of_trace`] keeps.
pub const TOP_K: usize = 10;

/// A complete trace analysis: critical path plus utilization report,
/// as [`Analyzer::finish`] returns it.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Critical path with category attribution.
    pub critical_path: CriticalPath,
    /// Per-track utilization and top-k bottlenecks.
    pub utilization: UtilizationReport,
}

impl Analysis {
    /// Analyzes an in-memory trace (top-[`TOP_K`] bottlenecks): every
    /// span goes into one [`Analyzer`] chunk, so any span order works.
    pub fn of_trace(trace: &Tracer) -> Analysis {
        let mut an = Analyzer::new(TOP_K);
        for name in trace.tracks() {
            an.register_track(name);
        }
        for sp in trace.spans() {
            an.admit(sp.track.index(), &sp.cat, &sp.name, sp.start, sp.end);
        }
        an.finish()
    }

    /// The combined flat metric view (`critpath.*` + `util.*`), the key
    /// space `mpt_sim analyze --baseline` gates on.
    pub fn metrics(&self) -> BTreeMap<String, f64> {
        let mut out = self.critical_path.metrics();
        out.extend(self.utilization.metrics());
        out
    }

    /// The full deterministic text report.
    pub fn render(&self) -> String {
        format!(
            "{}\n{}",
            self.critical_path.render_table(),
            self.utilization.render_table()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analysis_bundles_both_views() {
        let mut t = Tracer::new();
        let iter = t.track("iter");
        t.span(iter, "layer", "forward", 0, 200);
        let w = t.track("worker0");
        t.span(w, "ndp", "gemm_f", 0, 200);
        let a = Analysis::of_trace(&t);
        assert_eq!(a.critical_path.total, 200);
        assert_eq!(a.utilization.domain, 200);
        let m = a.metrics();
        assert_eq!(m["critpath.total_cycles"], 200.0);
        assert_eq!(m["util.worker0"], 1.0);
        let text = a.render();
        assert!(text.contains("critical path"));
        assert!(text.contains("utilization"));
    }
}
