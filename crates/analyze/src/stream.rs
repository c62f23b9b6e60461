//! The trace analyzer: critical-path attribution, per-track busy time
//! and top-k bottlenecks in one pass.
//!
//! [`Analyzer`] consumes [`TraceEvent`]s one at a time — e.g. straight
//! off a `StreamingTracer` JSONL file — while holding only the spans of
//! the current epoch (O(open-window), not O(all-spans)). Batch analysis
//! ([`crate::Analysis::of_trace`]) is the same analyzer fed every
//! in-memory span and finished as a single chunk, so it needs no epoch
//! order.
//!
//! # Epochs
//!
//! The observed simulators emit each layer's spans in a block that opens
//! with the layer's `layer`-category window span, and every span of
//! layer *j* starts at or after that window's start. The analyzer
//! exploits this: a `layer` span arriving after non-`layer` spans marks
//! an epoch boundary *B* — every event still to come starts at or after
//! *B*, so the analysis of `[processed, B)` is final. Each boundary
//! finalizes a chunk (critical-path attribution, per-track busy time)
//! and drops spans that end at or before it. The invariant is checked,
//! not assumed: an event starting before the finalized frontier makes
//! [`Analyzer::event`] return an error, and callers (the `analyze` CLI)
//! fall back to batch analysis. Traces with no `layer` spans at all
//! buffer until [`Analyzer::finish`] and use the extent of all spans as
//! their domain.
//!
//! Any chunking gives the same result as one chunk: a cycle's owner
//! depends only on the spans covering it, all of which have arrived
//! before its chunk is finalized; busy time is an interval-union length,
//! additive over any partition of the timeline; and a segment still
//! growing at a chunk boundary is carried into the next chunk.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::Path;

use wmpt_obs::{jsonl_events, TraceEvent};
use wmpt_sim::Time;

use crate::critpath::{Category, CriticalPath};
use crate::report::{Bottleneck, TrackUtilization, UtilizationReport};
use crate::Analysis;

/// A buffered span of the current epoch.
#[derive(Debug, Clone)]
struct PendSpan {
    tid: usize,
    cat: String,
    name: String,
    start: Time,
    end: Time,
}

/// Merges intervals into a sorted, disjoint interval set.
fn interval_union(mut iv: Vec<(Time, Time)>) -> Vec<(Time, Time)> {
    iv.retain(|(s, e)| e > s);
    iv.sort_unstable();
    let mut out: Vec<(Time, Time)> = Vec::new();
    for (s, e) in iv {
        match out.last_mut() {
            Some((_, le)) if s <= *le => *le = (*le).max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

/// Length of the intersection of two sorted, disjoint interval sets.
fn overlap(a: &[(Time, Time)], b: &[(Time, Time)]) -> Time {
    let (mut i, mut j, mut sum) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        let (s, e) = (a[i].0.max(b[j].0), a[i].1.min(b[j].1));
        sum += e.saturating_sub(s);
        if a[i].1 < b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    sum
}

/// Ordering of the bottleneck list: heaviest first, then earliest start,
/// then track and name.
fn bottleneck_order(a: &Bottleneck, b: &Bottleneck) -> Ordering {
    b.cycles
        .cmp(&a.cycles)
        .then(a.start.cmp(&b.start))
        .then(a.track.cmp(&b.track))
        .then(a.name.cmp(&b.name))
}

/// Incremental trace analyzer; feed [`TraceEvent`]s in recorded order,
/// then [`Analyzer::finish`].
#[derive(Debug, Clone, Default)]
pub struct Analyzer {
    top_k: usize,
    tracks: Vec<String>,
    any_work: Vec<bool>,
    busy: Vec<Time>,
    pending: Vec<PendSpan>,
    /// Everything before this cycle is finalized.
    processed: Time,
    saw_layer: bool,
    /// The last span admitted was not a `layer` window, so the next
    /// `layer` window opens an epoch.
    prev_non_layer: bool,
    path: CriticalPath,
    /// `(end, category, name)` of the segment still growing at the
    /// finalized frontier.
    open_seg: Option<(Time, Category, String)>,
    bottlenecks: Vec<Bottleneck>,
}

impl Analyzer {
    /// An analyzer keeping the `top_k` heaviest spans.
    pub fn new(top_k: usize) -> Analyzer {
        Analyzer {
            top_k,
            path: CriticalPath {
                attribution: Category::ALL.iter().map(|&c| (c, 0)).collect(),
                ..Default::default()
            },
            ..Default::default()
        }
    }

    /// Consumes one event. Errors on a non-dense or repeated track
    /// registration, a span on an unregistered track, or a span starting before the
    /// finalized frontier (a trace that is not epoch-ordered — use the
    /// batch path for those).
    pub fn event(&mut self, ev: &TraceEvent) -> Result<(), String> {
        match ev {
            TraceEvent::Track { tid, name } => match tid.cmp(&self.tracks.len()) {
                Ordering::Less => Err(format!("tid {tid} registered twice")),
                Ordering::Equal => {
                    self.register_track(name);
                    Ok(())
                }
                Ordering::Greater => Err(format!(
                    "non-dense track registration: tid {tid} after {} tracks",
                    self.tracks.len()
                )),
            },
            TraceEvent::Span {
                tid,
                cat,
                name,
                start,
                end,
            } => {
                if *tid >= self.tracks.len() {
                    return Err(format!("span on unregistered tid {tid}"));
                }
                if *start < self.processed {
                    return Err(format!(
                        "span '{name}' starts at {start}, before the finalized \
                         frontier {} — trace is not epoch-ordered",
                        self.processed
                    ));
                }
                let is_layer = cat == "layer";
                if is_layer {
                    // Set before the boundary: the chunk it finalizes
                    // belongs to a trace with windows, so its domain is
                    // its windows only, as in one chunk.
                    self.saw_layer = true;
                    if self.prev_non_layer {
                        self.finalize_to(*start);
                    }
                }
                self.prev_non_layer = !is_layer;
                self.admit(*tid, cat, name, *start, *end);
                Ok(())
            }
        }
    }

    /// Registers the next track (`tid == tracks.len()`).
    pub(crate) fn register_track(&mut self, name: &str) {
        self.tracks.push(name.to_string());
        self.any_work.push(false);
        self.busy.push(0);
    }

    /// Buffers a span on a registered track for the next chunk.
    pub(crate) fn admit(&mut self, tid: usize, cat: &str, name: &str, start: Time, end: Time) {
        if cat == "layer" {
            self.saw_layer = true;
        } else if cat != "idle" {
            self.any_work[tid] = true;
            if end > start {
                self.push_bottleneck(Bottleneck {
                    track: self.tracks[tid].clone(),
                    cat: cat.to_string(),
                    name: name.to_string(),
                    start,
                    cycles: end - start,
                });
            }
        }
        self.pending.push(PendSpan {
            tid,
            cat: cat.to_string(),
            name: name.to_string(),
            start,
            end,
        });
    }

    /// Inserts into the sorted top-k list; on a full tie the span
    /// admitted earlier stays ahead.
    fn push_bottleneck(&mut self, b: Bottleneck) {
        let at = self
            .bottlenecks
            .partition_point(|x| bottleneck_order(x, &b) != Ordering::Greater);
        if at < self.top_k {
            self.bottlenecks.insert(at, b);
            self.bottlenecks.truncate(self.top_k);
        }
    }

    /// Finalizes `[processed, upto)` against the pending spans and drops
    /// spans that cannot cover anything at or after `upto`. The chunk's
    /// domain is the union of its `layer` windows, or of all its spans
    /// when the trace has no `layer` window.
    fn finalize_to(&mut self, upto: Time) {
        if upto <= self.processed {
            return;
        }
        let domain = interval_union(
            self.pending
                .iter()
                .filter(|s| !self.saw_layer || s.cat == "layer")
                .map(|s| (s.start.max(self.processed), s.end.min(upto)))
                .collect(),
        );
        self.process_chunk(&domain);
        self.processed = upto;
        self.pending.retain(|s| s.end > upto);
    }

    /// Attributes one chunk over its sorted, disjoint `domain`.
    fn process_chunk(&mut self, domain: &[(Time, Time)]) {
        let (Some(&(lo, _)), Some(&(_, hi))) = (domain.first(), domain.last()) else {
            return;
        };
        self.path.total += domain.iter().map(|(s, e)| e - s).sum::<Time>();

        // Per-track busy: union length of work intervals ∩ domain.
        let mut per_track: BTreeMap<usize, Vec<(Time, Time)>> = BTreeMap::new();
        for sp in &self.pending {
            if sp.cat != "idle" && sp.cat != "layer" {
                per_track
                    .entry(sp.tid)
                    .or_default()
                    .push((sp.start, sp.end));
            }
        }
        for (tid, iv) in per_track {
            self.busy[tid] += overlap(&interval_union(iv), domain);
        }

        // Critical path: sweep the elementary intervals between
        // consecutive span/domain boundaries, keeping the covering work
        // spans ordered by (category, admission index). The last entry
        // owns the interval: the highest category wins, and among equals
        // the last-admitted span.
        let pending = std::mem::take(&mut self.pending);
        let mut starts: Vec<(Time, (Category, usize))> = Vec::new();
        let mut ends: Vec<(Time, (Category, usize))> = Vec::new();
        let mut cuts: Vec<Time> = domain.iter().flat_map(|&(s, e)| [s, e]).collect();
        for (i, sp) in pending.iter().enumerate() {
            let Some(cat) = Category::from_span_cat(&sp.cat) else {
                continue;
            };
            let (s, e) = (sp.start.max(lo), sp.end.min(hi));
            if e > s {
                starts.push((s, (cat, i)));
                ends.push((e, (cat, i)));
                cuts.extend([s, e]);
            }
        }
        starts.sort_unstable();
        ends.sort_unstable();
        cuts.sort_unstable();
        cuts.dedup();
        let mut covering: BTreeSet<(Category, usize)> = BTreeSet::new();
        let (mut si, mut ei, mut di) = (0, 0, 0);
        for pair in cuts.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            while let Some(&(_, key)) = starts.get(si).filter(|(s, _)| *s <= a) {
                covering.insert(key);
                si += 1;
            }
            while let Some(&(_, key)) = ends.get(ei).filter(|(e, _)| *e <= a) {
                covering.remove(&key);
                ei += 1;
            }
            while domain[di].1 <= a {
                di += 1;
            }
            if a < domain[di].0 {
                continue;
            }
            match covering.last() {
                Some(&(cat, i)) => self.push_segment(a, b, cat, &pending[i].name),
                None => self.push_segment(a, b, Category::DramStall, "(untraced)"),
            }
        }
        self.pending = pending;
    }

    /// Charges `[start, end)` to `cat`, extending the open segment when
    /// it abuts with the same category and name.
    fn push_segment(&mut self, start: Time, end: Time, cat: Category, name: &str) {
        *self
            .path
            .attribution
            .get_mut(&cat)
            .expect("all categories seeded") += end - start;
        if let Some((open_end, open_cat, open_name)) = &mut self.open_seg {
            if *open_end == start && *open_cat == cat && open_name == name {
                *open_end = end;
                return;
            }
            self.path.segment_count += 1;
        }
        self.open_seg = Some((end, cat, name.to_string()));
    }

    /// Finalizes the remaining pending spans and builds the reports.
    pub fn finish(mut self) -> Analysis {
        let extent = self.pending.iter().map(|s| s.end).max().unwrap_or(0);
        self.finalize_to(extent);
        if self.open_seg.take().is_some() {
            self.path.segment_count += 1;
        }

        let total = self.path.total;
        let mut tracks: Vec<TrackUtilization> = Vec::new();
        for (tid, name) in self.tracks.iter().enumerate() {
            if !self.any_work[tid] {
                continue;
            }
            let busy = self.busy[tid];
            tracks.push(TrackUtilization {
                track: name.clone(),
                busy,
                idle: total.saturating_sub(busy),
                utilization: if total > 0 {
                    busy as f64 / total as f64
                } else {
                    0.0
                },
            });
        }
        let grid_utilization = if tracks.is_empty() {
            0.0
        } else {
            tracks.iter().map(|t| t.utilization).sum::<f64>() / tracks.len() as f64
        };
        Analysis {
            critical_path: self.path,
            utilization: UtilizationReport {
                tracks,
                bottlenecks: self.bottlenecks,
                domain: total,
                grid_utilization,
            },
        }
    }
}

/// Streams a JSONL trace file through an [`Analyzer`]
/// (top-[`crate::TOP_K`] bottlenecks). Epoch-order violations surface as
/// `InvalidData` errors; callers can fall back to batch analysis.
pub fn analyze_jsonl(path: &Path) -> io::Result<Analysis> {
    let mut an = Analyzer::new(crate::TOP_K);
    for ev in jsonl_events(path)? {
        an.event(&ev?)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    }
    Ok(an.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmpt_obs::Tracer;

    /// Replays an in-memory tracer through [`Analyzer::event`], in the
    /// order the events would appear on a JSONL stream. Returns the
    /// analysis and the peak number of buffered spans.
    fn stream_of(trace: &Tracer, top_k: usize) -> (Analysis, usize) {
        let mut an = Analyzer::new(top_k);
        for (tid, name) in trace.tracks().iter().enumerate() {
            an.event(&TraceEvent::Track {
                tid,
                name: name.clone(),
            })
            .expect("track");
        }
        let mut peak = 0;
        for sp in trace.spans() {
            an.event(&TraceEvent::Span {
                tid: sp.track.index(),
                cat: sp.cat.clone(),
                name: sp.name.clone(),
                start: sp.start,
                end: sp.end,
            })
            .expect("span");
            peak = peak.max(an.pending.len());
        }
        (an.finish(), peak)
    }

    /// Epoch chunks against one chunk: same metrics, report and segment
    /// count.
    fn assert_chunks_match_one_chunk(trace: &Tracer) -> usize {
        let one = Analysis::of_trace(trace);
        let (chunked, peak) = stream_of(trace, crate::TOP_K);
        assert_eq!(chunked.metrics(), one.metrics(), "metrics diverge");
        assert_eq!(chunked.render(), one.render(), "report diverges");
        assert_eq!(
            chunked.critical_path.segment_count,
            one.critical_path.segment_count
        );
        peak
    }

    fn epoch_trace() -> Tracer {
        // Two layers, each opening with its layer window; dram/noc tails
        // overflow into the next epoch.
        let mut t = Tracer::new();
        let iter = t.track("iter");
        let w0 = t.track("worker0");
        let noc = t.track("noc");
        let d0 = t.track("dram0");
        t.span(iter, "layer", "fwd", 0, 100);
        t.span(iter, "layer", "bwd", 100, 220);
        t.span(w0, "ndp", "gemm_f", 0, 90);
        t.span(noc, "noc", "tile_scatter", 10, 40);
        t.span(d0, "dram", "stall", 80, 130); // tail past the next base
        t.span(iter, "layer", "fwd", 220, 320);
        t.span(iter, "layer", "bwd", 320, 460);
        t.span(w0, "ndp", "gemm_f", 220, 400);
        t.span(noc, "collective", "reduce", 400, 460);
        t
    }

    #[test]
    fn epoch_chunks_match_one_chunk() {
        let peak = assert_chunks_match_one_chunk(&epoch_trace());
        // The whole point: the second epoch finalized the first, so the
        // analyzer never held all 9 spans at once.
        assert!(peak < 9, "no chunking happened: peak {peak}");
    }

    #[test]
    fn chunks_match_one_chunk_without_layer_spans() {
        let mut t = Tracer::new();
        let w = t.track("worker0");
        t.span(w, "ndp", "gemm", 10, 60);
        t.span(w, "noc", "scatter", 30, 90);
        assert_chunks_match_one_chunk(&t);
    }

    #[test]
    fn chunks_match_one_chunk_with_work_before_the_first_window() {
        // The first window's boundary finalizes [0, 10), which holds no
        // window: the pre-window span lies outside the domain.
        let mut t = Tracer::new();
        let iter = t.track("iter");
        let w = t.track("worker0");
        t.span(w, "ndp", "pre", 0, 10);
        t.span(iter, "layer", "fwd", 10, 20);
        t.span(w, "ndp", "g", 10, 20);
        assert_chunks_match_one_chunk(&t);
        let (a, _) = stream_of(&t, crate::TOP_K);
        assert_eq!(a.critical_path.total, 10);
        assert_eq!(a.critical_path.segment_count, 1);
    }

    #[test]
    fn chunks_match_one_chunk_on_empty_trace() {
        assert_chunks_match_one_chunk(&Tracer::new());
    }

    #[test]
    fn chunks_match_one_chunk_with_untraced_gaps_and_idle() {
        let mut t = Tracer::new();
        let iter = t.track("iter");
        let w = t.track("worker0");
        let n = t.track("noc");
        t.span(iter, "layer", "fwd", 0, 50);
        t.span(w, "ndp", "gemm", 0, 20); // gap [20, 50) is untraced
        t.span(n, "idle", "noc_idle", 0, 50);
        t.span(iter, "layer", "fwd", 50, 120);
        t.span(w, "ndp", "gemm", 50, 120);
        assert_chunks_match_one_chunk(&t);
    }

    #[test]
    fn bottlenecks_are_sorted_and_capped() {
        let mut t = Tracer::new();
        let iter = t.track("iter");
        let w = t.track("worker0");
        let n = t.track("noc");
        t.span(iter, "layer", "fwd", 0, 1000);
        t.span(n, "idle", "noc_idle", 0, 1000); // idle is never a bottleneck
        t.span(n, "noc", "scatter", 500, 520);
        // Many equal-length spans: the boundary of the top-k is a tie,
        // broken by earliest start.
        for i in (0..30u64).rev() {
            t.span(w, "ndp", &format!("s{i}"), i * 10, i * 10 + 7);
        }
        let names = |top_k: usize| -> Vec<String> {
            let (a, _) = stream_of(&t, top_k);
            a.utilization
                .bottlenecks
                .into_iter()
                .map(|b| b.name)
                .collect()
        };
        assert_eq!(names(1), ["scatter"]);
        assert_eq!(names(4), ["scatter", "s0", "s1", "s2"]);
        assert!(names(0).is_empty());
    }

    #[test]
    fn rejects_non_epoch_ordered_traces() {
        let mut an = Analyzer::new(4);
        an.event(&TraceEvent::Track {
            tid: 0,
            name: "iter".into(),
        })
        .unwrap();
        an.event(&TraceEvent::Span {
            tid: 0,
            cat: "layer".into(),
            name: "fwd".into(),
            start: 0,
            end: 100,
        })
        .unwrap();
        an.event(&TraceEvent::Span {
            tid: 0,
            cat: "ndp".into(),
            name: "gemm".into(),
            start: 50,
            end: 80,
        })
        .unwrap();
        // New epoch at 100 finalizes [0, 100) ...
        an.event(&TraceEvent::Span {
            tid: 0,
            cat: "layer".into(),
            name: "fwd".into(),
            start: 100,
            end: 200,
        })
        .unwrap();
        // ... so a span reaching back before 100 must be rejected.
        let err = an
            .event(&TraceEvent::Span {
                tid: 0,
                cat: "ndp".into(),
                name: "late".into(),
                start: 90,
                end: 120,
            })
            .expect_err("late span");
        assert!(err.contains("not epoch-ordered"), "{err}");
    }

    #[test]
    fn rejects_malformed_registrations() {
        let mut an = Analyzer::new(4);
        assert!(an
            .event(&TraceEvent::Span {
                tid: 3,
                cat: "ndp".into(),
                name: "x".into(),
                start: 0,
                end: 1,
            })
            .is_err());
        assert!(an
            .event(&TraceEvent::Track {
                tid: 5,
                name: "gap".into(),
            })
            .is_err());
        an.event(&TraceEvent::Track {
            tid: 0,
            name: "iter".into(),
        })
        .unwrap();
        // A second registration of one tid is rejected even under the
        // same name, as every `wmpt_obs` reader rejects it.
        for name in ["other", "iter"] {
            assert!(an
                .event(&TraceEvent::Track {
                    tid: 0,
                    name: name.into(),
                })
                .is_err());
        }
    }

    #[test]
    fn large_layerless_trace_is_one_chunk() {
        // 100 000 spans with no layer window: the domain is the union of
        // all spans, analyzed in one chunk. Spans overlap in pairs; the
        // gap after every pair leaves the domain.
        let mut t = Tracer::new();
        let w = t.track("worker0");
        let n = t.track("noc");
        for i in 0..50_000u64 {
            let base = i * 100;
            t.span(w, "ndp", "gemm", base, base + 60);
            t.span(n, "noc", "scatter", base + 40, base + 80);
        }
        let a = Analysis::of_trace(&t);
        let cp = &a.critical_path;
        assert_eq!(cp.total, 50_000 * 80);
        assert_eq!(cp.attribution.values().sum::<Time>(), cp.total);
        assert_eq!(cp.attribution[&Category::Ndp], 50_000 * 40);
        assert_eq!(cp.attribution[&Category::TileComm], 50_000 * 40);
        assert_eq!(cp.segment_count, 100_000);
    }
}
