//! Checkpoint round-trip guarantees: trainer state → JSON → trainer
//! state is lossless, and a run resumed from a mid-epoch checkpoint
//! matches the uninterrupted run step for step, bit for bit.

use wmpt_core::{checkpoint_net, restore_net, WinogradNet};
use wmpt_noc::ClusterConfig;
use wmpt_obs::json;
use wmpt_par::ParPool;
use wmpt_tensor::{DataGen, Shape4, Tensor4};

fn dataset(seed: u64, n: usize) -> (Tensor4, Vec<f32>) {
    let mut g = DataGen::new(seed);
    let mut x = Tensor4::zeros(Shape4::new(n, 2, 8, 8));
    let mut t = Vec::with_capacity(n);
    for b in 0..n {
        let cls = if b % 2 == 0 { 1.0f32 } else { -1.0 };
        t.push(cls);
        for c in 0..2 {
            for h in 0..8 {
                for w in 0..8 {
                    x[(b, c, h, w)] = g.normal(0.3 * cls as f64, 1.0) as f32;
                }
            }
        }
    }
    (x, t)
}

fn weights_bits(net: &WinogradNet) -> Vec<u32> {
    let mut out = Vec::new();
    for st in net.stages() {
        out.extend(st.conv.weights().data.iter().map(|w| w.to_bits()));
    }
    out.extend(net.readout().iter().map(|w| w.to_bits()));
    out
}

#[test]
fn trained_state_round_trips_losslessly() {
    let (x, t) = dataset(21, 8);
    let mut net = WinogradNet::new(33, 2, &[4, 6], true);
    for _ in 0..3 {
        net.train_step_with(&x, &t, 0.1, None, &ParPool::serial());
    }
    let text = checkpoint_net(3, &net).render();
    let (iter, back) = restore_net(&json::parse(&text).expect("parse")).expect("restore");
    assert_eq!(iter, 3);
    assert_eq!(weights_bits(&net), weights_bits(&back), "bits changed");
    // Serializing the restored state reproduces the byte-identical
    // document — the round trip is a fixed point.
    assert_eq!(checkpoint_net(3, &back).render(), text);
}

#[test]
fn resume_mid_epoch_matches_uninterrupted_run() {
    let (x, t) = dataset(22, 8);
    let grid = ClusterConfig::new(4, 2);
    let total = 8usize;
    let stop = 3usize; // "crash" after 3 of 8 iterations
    let pool = ParPool::serial();

    // Uninterrupted reference run, recording per-step losses.
    let mut reference = WinogradNet::new(44, 2, &[4], true);
    let mut ref_losses = Vec::new();
    for _ in 0..total {
        ref_losses.push(reference.train_step_with(&x, &t, 0.1, Some(grid), &pool));
    }

    // Interrupted run: checkpoint at `stop`, discard the trainer, resume
    // from the serialized text alone.
    let mut first_half = WinogradNet::new(44, 2, &[4], true);
    let mut resumed_losses = Vec::new();
    for _ in 0..stop {
        resumed_losses.push(first_half.train_step_with(&x, &t, 0.1, Some(grid), &pool));
    }
    let saved = checkpoint_net(stop as u64, &first_half).render();
    drop(first_half);
    let (iter, mut resumed) = restore_net(&json::parse(&saved).expect("parse")).expect("restore");
    for _ in iter as usize..total {
        resumed_losses.push(resumed.train_step_with(&x, &t, 0.1, Some(grid), &pool));
    }

    // Step-for-step equality: identical f64 losses (not approximately —
    // the same computation on bit-identical state).
    assert_eq!(resumed_losses.len(), ref_losses.len());
    for (i, (a, b)) in ref_losses.iter().zip(&resumed_losses).enumerate() {
        assert!(
            a.to_bits() == b.to_bits(),
            "loss diverged at step {i}: {a} vs {b}"
        );
    }
    assert_eq!(
        weights_bits(&reference),
        weights_bits(&resumed),
        "final weights diverged"
    );
}
