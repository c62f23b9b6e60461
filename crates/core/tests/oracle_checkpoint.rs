//! Differential oracle: checkpoint serialization is a lossless,
//! fixed-point round trip for *randomized* trainer states — arbitrary
//! architectures and adversarial weight bit patterns (`-0.0`, subnormals,
//! huge magnitudes) — not just the hand-built nets of the deterministic
//! round-trip tests.
//!
//! Cases run on the `wmpt-check` harness; a failing state shrinks toward
//! the smallest architecture and simplest weights that still break the
//! round trip.

use wmpt_check::{check, Case};
use wmpt_core::{checkpoint_net, restore_net, WinogradNet};
use wmpt_obs::json;

fn weights_bits(net: &WinogradNet) -> Vec<u32> {
    let mut out = Vec::new();
    for st in net.stages() {
        out.extend(st.conv.weights().data.iter().map(|w| w.to_bits()));
    }
    out.extend(net.readout().iter().map(|w| w.to_bits()));
    out
}

/// Adversarial f32: ordinary values plus the bit patterns JSON encoders
/// typically lose (`-0.0`, subnormals, extremes).
fn nasty_f32(c: &mut Case) -> f32 {
    match c.size(0, 4) {
        0 => c.f32_pm(10.0),
        1 => -0.0,
        2 => f32::from_bits(c.size(1, 100) as u32), // subnormal
        3 => f32::MAX,
        _ => f32::MIN_POSITIVE,
    }
}

#[test]
fn net_checkpoint_roundtrip_is_lossless_and_fixed_point() {
    check(
        "net_checkpoint_roundtrip_is_lossless_and_fixed_point",
        |c| {
            let widths: Vec<usize> = (0..c.size(1, 3)).map(|_| c.size(1, 5)).collect();
            let in_chans = c.size(1, 3);
            let pool = c.bool();
            let iter = c.u64_in(0, 1_000_000);
            let mut net = WinogradNet::new(c.seed(), in_chans, &widths, pool);
            // Overwrite a few weights with adversarial bit patterns.
            for _ in 0..c.size(0, 8) {
                let stage = c.size(0, net.stages().len() - 1);
                let v = nasty_f32(c);
                let data = &mut net.stages_mut()[stage].conv.weights_mut().data;
                let i = c.size(0, data.len() - 1);
                data[i] = v;
            }
            let text = checkpoint_net(iter, &net).render();
            let (back_iter, back) =
                restore_net(&json::parse(&text).expect("parse")).expect("restore");
            assert_eq!(back_iter, iter, "iteration lost");
            assert_eq!(
                weights_bits(&net),
                weights_bits(&back),
                "weights not bit-identical (widths = {widths:?})"
            );
            // Render ∘ restore is a fixed point: the document reproduces
            // byte-for-byte.
            assert_eq!(
                checkpoint_net(iter, &back).render(),
                text,
                "render not a fixed point (widths = {widths:?})"
            );
        },
    );
}

#[test]
fn restore_rejects_truncated_documents() {
    check("restore_rejects_truncated_documents", |c| {
        let net = WinogradNet::new(c.seed(), 1, &[2], false);
        let text = checkpoint_net(1, &net).render();
        // Truncating anywhere inside the document must yield a parse or
        // restore error, never a silently different net.
        let cut = c.size(1, text.len() - 1);
        match json::parse(&text[..cut]) {
            Err(_) => {}
            Ok(v) => {
                assert!(
                    restore_net(&v).is_err(),
                    "truncated checkpoint restored silently at byte {cut}"
                );
            }
        }
    });
}
