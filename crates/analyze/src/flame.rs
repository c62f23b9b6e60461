//! Collapsed-stack flamegraph export of a span trace.
//!
//! A trace — simulator or server-lifecycle — becomes the standard
//! semicolon-separated stack format (`frame;frame;frame <value>`, one
//! line per unique stack, values in the trace's own time unit), the
//! input `flamegraph.pl` and speedscope both accept. Nesting is
//! recovered *by containment per track*: a span whose `[start, end)`
//! interval lies inside another span on the same track is its child;
//! the value attributed to each stack is the parent's **self** time
//! (its cycles minus its direct children's), so leaf-heavy traces stay
//! honest and totals add up.
//!
//! Server lifecycle traces embed the request id in span names
//! (`layer#r12`) so the timeline stays navigable; here that suffix is
//! stripped (`layer`), which is what lets ten requests aggregate into
//! one `executed;layer;queue_wait` tower instead of ten singleton
//! stacks.
//!
//! [`flame_svg`] renders the same aggregation as a self-contained
//! icicle SVG (root at the top), in the spirit of
//! [`timeline_svg`](crate::timeline_svg): no scripts, no external
//! refs, deterministic bytes.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use wmpt_obs::trace::Span;
use wmpt_obs::Tracer;

use crate::svg::SvgWriter;

/// Strips a trailing `#r<digits>` request-id suffix so per-request
/// spans aggregate across requests.
fn normalize(name: &str) -> &str {
    if let Some((base, tag)) = name.rsplit_once("#r") {
        if !tag.is_empty() && tag.bytes().all(|b| b.is_ascii_digit()) {
            return base;
        }
    }
    name
}

/// One frame on the containment stack while sweeping a track.
struct Frame {
    name: String,
    end: u64,
    cycles: u64,
    child_cycles: u64,
}

/// Aggregates one track's spans into `stacks` by containment nesting.
fn fold_track(track_name: &str, mut spans: Vec<&Span>, stacks: &mut BTreeMap<String, u64>) {
    // Parents first: by start ascending, then longest first, then
    // insertion order (sort is stable) for identical intervals.
    spans.sort_by(|a, b| a.start.cmp(&b.start).then(b.end.cmp(&a.end)));
    let mut stack: Vec<Frame> = Vec::new();
    let mut emit = |stack: &[Frame], f: &Frame| {
        let self_cycles = f.cycles.saturating_sub(f.child_cycles);
        if self_cycles == 0 {
            return;
        }
        let mut path = String::from(track_name);
        for anc in stack {
            path.push(';');
            path.push_str(&anc.name);
        }
        path.push(';');
        path.push_str(&f.name);
        *stacks.entry(path).or_insert(0) += self_cycles;
    };
    for sp in spans {
        // Pop every frame that does not fully contain this span. Sorted
        // by start, a frame can only fail containment on its right edge;
        // partially overlapping spans become siblings, never children.
        while let Some(top) = stack.last() {
            if top.end >= sp.end {
                break;
            }
            let f = stack.pop().expect("stack non-empty");
            emit(&stack, &f);
            if let Some(parent) = stack.last_mut() {
                parent.child_cycles += f.cycles;
            }
        }
        stack.push(Frame {
            name: normalize(&sp.name).to_string(),
            end: sp.end,
            cycles: sp.cycles(),
            child_cycles: 0,
        });
    }
    while let Some(f) = stack.pop() {
        emit(&stack, &f);
        if let Some(parent) = stack.last_mut() {
            parent.child_cycles += f.cycles;
        }
    }
}

/// Renders the trace as collapsed stacks: one `frames <value>` line per
/// unique stack, lexicographically sorted (deterministic bytes). The
/// root frame of every stack is the track name.
pub fn collapsed_stacks(trace: &Tracer) -> String {
    let mut stacks: BTreeMap<String, u64> = BTreeMap::new();
    for (idx, track_name) in trace.tracks().iter().enumerate() {
        let spans: Vec<&Span> = trace
            .spans()
            .iter()
            .filter(|s| s.track.index() == idx && s.cycles() > 0)
            .collect();
        fold_track(track_name, spans, &mut stacks);
    }
    let mut out = String::new();
    for (path, value) in &stacks {
        let _ = writeln!(out, "{path} {value}");
    }
    out
}

/// A node of the aggregated frame tree behind [`flame_svg`]. `value` is
/// inclusive (self plus descendants).
#[derive(Default)]
struct Node {
    value: u64,
    children: BTreeMap<String, Node>,
}

fn build_tree(collapsed: &str) -> Node {
    let mut root = Node::default();
    for line in collapsed.lines() {
        let Some((path, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let Ok(value) = value.parse::<u64>() else {
            continue;
        };
        root.value += value;
        let mut node = &mut root;
        for frame in path.split(';') {
            node = node.children.entry(frame.to_string()).or_default();
            node.value += value;
        }
    }
    root
}

/// Deterministic fill color for a frame name: a warm flame palette
/// indexed by a tiny FNV-style hash.
fn flame_color(name: &str) -> &'static str {
    const PALETTE: [&str; 8] = [
        "#e4593b", "#e87443", "#ec8d4b", "#f0a553", "#f4bc5b", "#d96a35", "#e05a50", "#f2994a",
    ];
    let mut h: u64 = 0xcbf29ce484222325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    PALETTE[(h % PALETTE.len() as u64) as usize]
}

const FLAME_W: f64 = 1000.0;
const FLAME_ROW_H: f64 = 17.0;
const FLAME_MARGIN: f64 = 8.0;

fn depth_of(node: &Node) -> usize {
    1 + node.children.values().map(depth_of).max().unwrap_or(0)
}

fn draw(w: &mut SvgWriter, node: &Node, label: &str, x: f64, width: f64, depth: usize, total: u64) {
    let y = FLAME_MARGIN + depth as f64 * FLAME_ROW_H;
    let pct = 100.0 * node.value as f64 / total.max(1) as f64;
    w.lit(r##"<rect x=""##)
        .fixed(x, 2)
        .lit(r##"" y=""##)
        .fixed(y, 1)
        .lit(r##"" width=""##)
        .fixed(width, 2)
        .lit(r##"" height=""##)
        .fixed(FLAME_ROW_H, 1)
        .lit(r##"" fill=""##)
        .lit(flame_color(label))
        .lit(r##"" stroke="#ffffff" stroke-width="0.5"><title>"##)
        .text(label)
        .lit(" — ")
        .int(node.value)
        .lit(" (")
        .fixed(pct, 1)
        .lit("%)</title></rect>\n");
    // Label only frames wide enough to hold any text.
    if width >= 40.0 {
        let chars = (width / 7.0) as usize;
        let shown = label
            .char_indices()
            .nth(chars)
            .map_or(label, |(i, _)| &label[..i]);
        w.lit(r##"<text x=""##)
            .fixed(x + 3.0, 2)
            .lit(r##"" y=""##)
            .fixed(y + FLAME_ROW_H * 0.72, 1)
            .lit(r##"" fill="#3b1f00">"##)
            .text(shown)
            .lit("</text>\n");
    }
    let mut cx = x;
    for (name, child) in &node.children {
        let cw = width * child.value as f64 / node.value.max(1) as f64;
        draw(w, child, name, cx, cw, depth + 1, total);
        cx += cw;
    }
}

/// Renders the trace as a self-contained icicle flamegraph SVG (root
/// row on top, children below, widths proportional to inclusive time).
pub fn flame_svg(trace: &Tracer) -> String {
    let collapsed = collapsed_stacks(trace);
    let root = build_tree(&collapsed);
    let depth = if root.children.is_empty() {
        1
    } else {
        depth_of(&root) - 1
    };
    let width = FLAME_W + 2.0 * FLAME_MARGIN;
    let height = FLAME_MARGIN * 2.0 + (depth as f64 + 1.0) * FLAME_ROW_H + 14.0;
    let mut w = SvgWriter::begin(width, height, 10, 400 + 300 * collapsed.lines().count());
    let mut cx = FLAME_MARGIN;
    for (name, child) in &root.children {
        let cw = FLAME_W * child.value as f64 / root.value.max(1) as f64;
        draw(&mut w, child, name, cx, cw, 0, root.value);
        cx += cw;
    }
    w.lit(r##"<text x=""##)
        .fixed(FLAME_MARGIN, 0)
        .lit(r##"" y=""##)
        .fixed(height - FLAME_MARGIN, 1)
        .lit(r##"" fill="#666666">"##)
        .int(root.value)
        .lit(" total</text>\n");
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_id_suffixes_are_stripped() {
        assert_eq!(normalize("layer#r12"), "layer");
        assert_eq!(normalize("layer.job#r3"), "layer.job");
        assert_eq!(normalize("fwd.gemm"), "fwd.gemm");
        assert_eq!(normalize("x#rash"), "x#rash");
        assert_eq!(normalize("x#r"), "x#r");
    }

    #[test]
    fn containment_nests_and_self_time_excludes_children() {
        let mut t = Tracer::new();
        let w = t.track("worker0");
        t.span(w, "request", "layer#r1", 0, 100);
        t.span(w, "serve", "queue_wait", 0, 30);
        t.span(w, "serve", "execute", 30, 90);
        let out = collapsed_stacks(&t);
        assert!(out.contains("worker0;layer;queue_wait 30\n"), "{out}");
        assert!(out.contains("worker0;layer;execute 60\n"), "{out}");
        // Parent self time: 100 - 30 - 60 = 10.
        assert!(out.contains("worker0;layer 10\n"), "{out}");
    }

    #[test]
    fn identical_stacks_aggregate_across_requests() {
        let mut t = Tracer::new();
        let w = t.track("executed");
        for r in 0..3u64 {
            let base = r * 1000;
            t.span(w, "request", &format!("plan#r{r}"), base, base + 100);
            t.span(w, "serve", "parse", base, base + 40);
        }
        let out = collapsed_stacks(&t);
        assert!(out.contains("executed;plan;parse 120\n"), "{out}");
        assert!(out.contains("executed;plan 180\n"), "{out}");
        assert_eq!(out.lines().count(), 2, "{out}");
    }

    #[test]
    fn partial_overlap_becomes_a_sibling_not_a_child() {
        let mut t = Tracer::new();
        let w = t.track("tr");
        t.span(w, "c", "a", 0, 50);
        t.span(w, "c", "b", 40, 80);
        let out = collapsed_stacks(&t);
        assert!(out.contains("tr;a 50\n"), "{out}");
        assert!(out.contains("tr;b 40\n"), "{out}");
    }

    #[test]
    fn zero_length_spans_and_empty_traces_are_fine() {
        let mut t = Tracer::new();
        let w = t.track("tr");
        t.span(w, "c", "zero", 5, 5);
        assert_eq!(collapsed_stacks(&t), "");
        assert_eq!(collapsed_stacks(&Tracer::new()), "");
        let svg = flame_svg(&Tracer::new());
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
    }

    #[test]
    fn flame_svg_is_deterministic_and_self_contained() {
        let mut t = Tracer::new();
        let w = t.track("worker0");
        t.span(w, "request", "layer#r1", 0, 100);
        t.span(w, "serve", "execute", 10, 90);
        let a = flame_svg(&t);
        assert_eq!(a, flame_svg(&t));
        assert!(a.contains("execute"));
        assert_eq!(
            a.matches("http://").count(),
            1,
            "no external refs beyond the xmlns declaration"
        );
    }

    #[test]
    fn simulator_traces_fold_too() {
        // A shape like the real obs trace: layer spans on one track,
        // unit busy spans on others — no nesting across tracks.
        let mut t = Tracer::new();
        let iter = t.track("iter");
        t.span(iter, "layer", "forward", 0, 100);
        let w = t.track("worker0");
        t.span(w, "ndp", "fwd.gemm", 0, 60);
        let out = collapsed_stacks(&t);
        assert!(out.contains("iter;forward 100\n"), "{out}");
        assert!(out.contains("worker0;fwd.gemm 60\n"), "{out}");
    }
}
