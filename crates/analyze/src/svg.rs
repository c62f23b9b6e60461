//! Self-contained SVG timeline rendering of a span trace.
//!
//! No dependencies, no scripts, no external fonts — a single `<svg>`
//! element with one row per track and one `<rect>` per span, colored by
//! span category. The output is deterministic for a given trace (stable
//! ordering, fixed-precision coordinates), so committed artifacts diff
//! cleanly.

use std::fmt::Write as _;

use wmpt_obs::Tracer;

/// Drawing constants: row geometry and the fixed category palette.
const ROW_H: f64 = 22.0;
const ROW_GAP: f64 = 6.0;
const LABEL_W: f64 = 90.0;
const PLOT_W: f64 = 960.0;
const MARGIN: f64 = 10.0;

/// Fill color for a span category. Unknown categories get a neutral
/// gray, the explicit `idle` filler a faint one.
fn color(cat: &str) -> &'static str {
    match cat {
        "ndp" => "#4e79a7",
        "noc" => "#f28e2b",
        "collective" => "#e15759",
        "dram" => "#76b7b2",
        "layer" => "#bab0ac",
        "idle" => "#eeeeee",
        _ => "#9c9c9c",
    }
}

/// Renders the trace as a standalone SVG document.
///
/// Each track becomes a labelled row; span x-positions scale the full
/// trace extent onto a fixed-width plot. Zero-length spans are skipped.
pub fn timeline_svg(trace: &Tracer) -> String {
    let spans = trace.spans();
    let t0 = spans.iter().map(|s| s.start).min().unwrap_or(0);
    let t1 = spans.iter().map(|s| s.end).max().unwrap_or(0);
    let extent = (t1 - t0).max(1) as f64;
    let n_rows = trace.tracks().len().max(1);
    let width = MARGIN * 2.0 + LABEL_W + PLOT_W;
    let height = MARGIN * 2.0 + n_rows as f64 * (ROW_H + ROW_GAP) + 16.0;

    let mut w = SvgWriter::begin(width, height, 11, 400 + 160 * n_rows + 170 * spans.len());
    for (row, name) in trace.tracks().iter().enumerate() {
        let y = MARGIN + row as f64 * (ROW_H + ROW_GAP);
        w.lit(r##"<text x=""##)
            .fixed(MARGIN, 0)
            .lit(r##"" y=""##)
            .fixed(y + ROW_H * 0.7, 1)
            .lit(r##"" fill="#333333">"##)
            .text(name)
            .lit("</text>\n");
        w.lit(r##"<rect x=""##)
            .fixed(MARGIN + LABEL_W, 1)
            .lit(r##"" y=""##)
            .fixed(y, 1)
            .lit(r##"" width=""##)
            .fixed(PLOT_W, 1)
            .lit(r##"" height=""##)
            .fixed(ROW_H, 1)
            .lit("\" fill=\"#f7f7f7\"/>\n");
    }
    for sp in spans {
        if sp.end == sp.start {
            continue;
        }
        let row = sp.track.index();
        let y = MARGIN + row as f64 * (ROW_H + ROW_GAP);
        let x = MARGIN + LABEL_W + (sp.start - t0) as f64 / extent * PLOT_W;
        let width = ((sp.end - sp.start) as f64 / extent * PLOT_W).max(0.5);
        w.lit(r##"<rect x=""##)
            .fixed(x, 2)
            .lit(r##"" y=""##)
            .fixed(y, 1)
            .lit(r##"" width=""##)
            .fixed(width, 2)
            .lit(r##"" height=""##)
            .fixed(ROW_H, 1)
            .lit(r##"" fill=""##)
            .lit(color(&sp.cat))
            .lit(r##""><title>"##)
            .text(&sp.name)
            .lit(" [")
            .int(sp.start)
            .lit(" ")
            .int(sp.end)
            .lit(") ")
            .int(sp.end - sp.start)
            .lit(" cycles</title></rect>\n");
    }
    w.lit(r##"<text x=""##)
        .fixed(MARGIN + LABEL_W, 1)
        .lit(r##"" y=""##)
        .fixed(height - MARGIN, 1)
        .lit(r##"" fill="#666666">"##)
        .int(t0)
        .lit(" .. ")
        .int(t1)
        .lit(" cycles</text>\n");
    w.finish()
}

/// An SVG document written straight into one buffer: literals, numbers
/// through [`write_fixed`] and escaped text, with no intermediate
/// strings. Both [`timeline_svg`] and [`crate::flame_svg`] write
/// through it.
pub(crate) struct SvgWriter {
    out: String,
}

impl SvgWriter {
    /// Starts a `width` × `height` document in a monospace font of
    /// `font_size` px on a white background, with room for `capacity`
    /// bytes.
    pub(crate) fn begin(width: f64, height: f64, font_size: u64, capacity: usize) -> Self {
        let mut w = SvgWriter {
            out: String::with_capacity(capacity),
        };
        w.lit(r##"<svg xmlns="http://www.w3.org/2000/svg" width=""##)
            .fixed(width, 0)
            .lit(r##"" height=""##)
            .fixed(height, 0)
            .lit(r##"" font-family="monospace" font-size=""##)
            .int(font_size)
            .lit("\">\n<rect x=\"0\" y=\"0\" width=\"")
            .fixed(width, 0)
            .lit(r##"" height=""##)
            .fixed(height, 0)
            .lit("\" fill=\"#ffffff\"/>\n");
        w
    }

    /// Appends markup verbatim.
    pub(crate) fn lit(&mut self, s: &str) -> &mut Self {
        self.out.push_str(s);
        self
    }

    /// Appends `v` with `p` decimals (see [`write_fixed`]).
    pub(crate) fn fixed(&mut self, v: f64, p: usize) -> &mut Self {
        write_fixed(v, p, &mut self.out);
        self
    }

    /// Appends an integer in decimal.
    pub(crate) fn int(&mut self, v: u64) -> &mut Self {
        push_digits(v, 1, &mut self.out);
        self
    }

    /// Appends text with the XML markup characters `&`, `<` and `>`
    /// escaped.
    pub(crate) fn text(&mut self, s: &str) -> &mut Self {
        let mut run = 0;
        for (i, b) in s.bytes().enumerate() {
            let esc = match b {
                b'&' => "&amp;",
                b'<' => "&lt;",
                b'>' => "&gt;",
                _ => continue,
            };
            // An ASCII byte, so `i` is a char boundary.
            self.out.push_str(&s[run..i]);
            self.out.push_str(esc);
            run = i + 1;
        }
        self.out.push_str(&s[run..]);
        self
    }

    /// Closes the document and returns its text.
    pub(crate) fn finish(mut self) -> String {
        self.out.push_str("</svg>\n");
        self.out
    }
}

/// Most decimals [`write_fixed`] renders without falling back: the
/// scaled mantissa `m · 10^p` (`m < 2^53`) then stays below 2^117.
const MAX_EXACT_DECIMALS: usize = 19;

/// Appends `v` with exactly `p` digits after the decimal point — the
/// bytes `format!("{v:.p$}")` writes — computed in integers.
///
/// A finite `v ≥ 0` is `m · 2^e` for an integer mantissa `m < 2^53`, so
/// `v · 10^p = (m · 10^p) · 2^e`. The product is exact in a `u128`; a
/// shift by `e` leaves the integer part of the scaled value, and the
/// bits shifted out round it half to even, as `format!` rounds exact
/// ties. Negative values (and `-0.0`), non-finite values, `p` above 19
/// and scaled values of 2^64 or more fall back to `format!`.
pub fn write_fixed(v: f64, p: usize, out: &mut String) {
    match scaled(v, p) {
        Some(q) => {
            let unit = 10u64.pow(p as u32);
            push_digits(q / unit, 1, out);
            if p > 0 {
                out.push('.');
                push_digits(q % unit, p, out);
            }
        }
        None => {
            let _ = write!(out, "{v:.p$}");
        }
    }
}

/// `v · 10^p` rounded half to even, when [`write_fixed`] renders it
/// exactly (see there); `None` otherwise.
fn scaled(v: f64, p: usize) -> Option<u64> {
    if !v.is_finite() || v.is_sign_negative() || p > MAX_EXACT_DECIMALS {
        return None;
    }
    let bits = v.to_bits();
    let biased = ((bits >> 52) & 0x7ff) as i32;
    let frac = bits & ((1 << 52) - 1);
    // Subnormals have no implicit leading one and the lowest exponent.
    let (m, e) = if biased == 0 {
        (frac, -1074)
    } else {
        (frac | 1 << 52, biased - 1075)
    };
    let n = u128::from(m) * 10u128.pow(p as u32);
    let q = if e >= 0 {
        // An integer, unless it leaves the `u128` (then it is far past
        // the `u64` below as well).
        n.checked_mul(1u128.checked_shl(e as u32)?)?
    } else if e <= -128 {
        // `n < 2^117` is below half of `2^128`: rounds to zero.
        0
    } else {
        let s = (-e) as u32;
        let q = n >> s;
        let rem = n & ((1u128 << s) - 1);
        let half = 1u128 << (s - 1);
        if rem > half || (rem == half && q & 1 == 1) {
            q + 1
        } else {
            q
        }
    };
    u64::try_from(q).ok()
}

/// Appends `x` in decimal, left-padded with zeros to `min_len` digits.
fn push_digits(mut x: u64, min_len: usize, out: &mut String) {
    let mut buf = [b'0'; 20];
    let mut i = buf.len();
    while x > 0 {
        i -= 1;
        buf[i] = b'0' + (x % 10) as u8;
        x /= 10;
    }
    i = i.min(buf.len() - min_len);
    out.push_str(std::str::from_utf8(&buf[i..]).expect("ASCII digits"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn svg_is_self_contained_and_deterministic() {
        let mut t = Tracer::new();
        let w = t.track("worker0");
        t.span(w, "ndp", "gemm<f>", 0, 100);
        let n = t.track("noc");
        t.span(n, "noc", "scatter", 20, 60);
        let a = timeline_svg(&t);
        assert_eq!(a, timeline_svg(&t));
        assert!(a.starts_with("<svg "));
        assert!(a.trim_end().ends_with("</svg>"));
        assert!(a.contains("gemm&lt;f&gt;"));
        assert!(a.contains("#4e79a7"));
        let refs = a.matches("http://").count();
        assert_eq!(refs, 1, "no external refs beyond the xmlns declaration");
    }

    #[test]
    fn empty_trace_renders_a_valid_shell() {
        let svg = timeline_svg(&Tracer::new());
        assert!(svg.starts_with("<svg "));
        assert!(svg.trim_end().ends_with("</svg>"));
    }
}
