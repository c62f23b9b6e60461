//! Byte pins of both SVG renderings of one fixed multi-track trace.
//!
//! [`timeline_svg`] and [`flame_svg`] write every coordinate through
//! one fixed-point number writer and every label through one XML
//! escape; these digests hold the documents to the bytes of the
//! `format!`-based renderers they replaced. A moved digest means the
//! SVG output changed.

use wmpt_analyze::{flame_svg, timeline_svg};
use wmpt_obs::hash::{canonical_hash, hash_hex};
use wmpt_obs::json;
use wmpt_obs::Tracer;

/// Four tracks with nested, overlapping, zero-length and odd-length
/// spans, request-id suffixes and names that need escaping.
fn fixed_trace() -> Tracer {
    let mut t = Tracer::new();
    let iter = t.track("iter");
    let w0 = t.track("worker<0>");
    let w1 = t.track("worker&1");
    let noc = t.track("noc");
    t.span(iter, "layer", "forward", 0, 37_558);
    t.span(iter, "layer", "backward", 37_558, 115_399);
    t.span(w0, "request", "layer#r12", 0, 90_001);
    t.span(w0, "ndp", "fwd.gemm<f32>", 3, 20_003);
    t.span(w0, "ndp", "fwd.gemm<f32>", 20_003, 37_001);
    t.span(w0, "dram", "stall & wait", 37_001, 37_002);
    t.span(w0, "ndp", "bwd.gemm", 40_000, 89_999);
    t.span(w1, "ndp", "fwd.gemm<f32>", 7, 19_999);
    t.span(w1, "collective", "reduce", 19_999, 19_999);
    t.span(w1, "idle", "idle", 20_000, 40_000);
    t.span(w1, "mystery", "a \"quoted\" name", 40_001, 115_399);
    t.span(noc, "noc", "scatter", 1, 12_345);
    t.span(noc, "noc", "scatter", 12_340, 30_000);
    t.span(noc, "noc", "gather", 100_000, 115_398);
    t.span(noc, "noc", "gather#r3", 100_001, 100_002);
    t
}

fn digest(svg: &str) -> String {
    hash_hex(canonical_hash(&json::s(svg)))
}

#[test]
fn timeline_svg_bytes_are_pinned() {
    let svg = timeline_svg(&fixed_trace());
    assert_eq!(
        digest(&svg),
        "91fe61366f8ebaab6ca5af599e7b2a0c",
        "timeline_svg:\n{svg}"
    );
}

#[test]
fn flame_svg_bytes_are_pinned() {
    let svg = flame_svg(&fixed_trace());
    assert_eq!(
        digest(&svg),
        "97761f60034f6a5fbee98521d4225cf0",
        "flame_svg:\n{svg}"
    );
}

#[test]
fn empty_trace_svgs_are_pinned() {
    let t = Tracer::new();
    assert_eq!(
        digest(&timeline_svg(&t)),
        "74b6637a070e0ce7155c800120be7d90",
        "timeline_svg"
    );
    assert_eq!(
        digest(&flame_svg(&t)),
        "3eeefa776a3644c0e99a3daeed57bc53",
        "flame_svg"
    );
}
