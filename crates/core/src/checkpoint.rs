//! Bit-exact checkpoint/rollback for the functional MPT trainer.
//!
//! Resilient execution (see `wmpt-fault`) needs to restore a trainer to
//! an earlier iteration and replay — and the replayed run must be
//! *bit-identical* to an uninterrupted one, or the fault-recovery
//! guarantee degrades to "approximately the same model". JSON's decimal
//! floats would round-trip every finite `f32` except `-0.0` (our writer
//! renders integer-valued numbers as integers, dropping the sign); to be
//! exact for every value including `-0.0` and NaN payloads, weights are
//! serialized as their IEEE-754 bit patterns (`f32::to_bits`, a `u32`,
//! always an exact JSON integer). The Winograd transform itself is not
//! serialized — only its `(m, r)` signature — and is rebuilt from the
//! same constructors, which are deterministic.

use crate::net_trainer::{Stage, WinogradNet};
use wmpt_obs::json::{self, Value};
use wmpt_winograd::{Pool2x2, PoolKind, WgWeights, WinogradLayer, WinogradTransform};

fn bits(x: f32) -> Value {
    Value::Num(x.to_bits() as f64)
}

fn bits_arr(xs: &[f32]) -> Value {
    Value::Arr(xs.iter().map(|x| bits(*x)).collect())
}

fn f32_back(v: &Value, what: &str) -> Result<f32, String> {
    v.as_u64()
        .and_then(|b| u32::try_from(b).ok())
        .map(f32::from_bits)
        .ok_or_else(|| format!("{what}: not an f32 bit pattern"))
}

fn f32s_back(v: &Value, what: &str) -> Result<Vec<f32>, String> {
    v.as_arr()
        .ok_or_else(|| format!("{what}: not an array"))?
        .iter()
        .map(|x| f32_back(x, what))
        .collect()
}

fn usize_field(v: &Value, what: &str) -> Result<usize, String> {
    v.get(what)
        .and_then(Value::as_u64)
        .map(|n| n as usize)
        .ok_or_else(|| format!("missing '{what}'"))
}

fn wg_to_json(w: &WgWeights) -> Value {
    json::obj(vec![
        ("elems", json::num(w.elems as f64)),
        ("in_chans", json::num(w.in_chans as f64)),
        ("out_chans", json::num(w.out_chans as f64)),
        ("data", bits_arr(&w.data)),
    ])
}

fn wg_from_json(v: &Value) -> Result<WgWeights, String> {
    let elems = usize_field(v, "elems")?;
    let in_chans = usize_field(v, "in_chans")?;
    let out_chans = usize_field(v, "out_chans")?;
    let data = f32s_back(v.get("data").ok_or("missing 'data'")?, "data")?;
    if data.len() != elems * in_chans * out_chans {
        return Err(format!(
            "weight data length {} does not match geometry {elems}x{in_chans}x{out_chans}",
            data.len()
        ));
    }
    let mut w = WgWeights::zeros(elems, in_chans, out_chans);
    w.data = data;
    Ok(w)
}

fn transform_for(m: usize, r: usize) -> Result<WinogradTransform, String> {
    // The named constructors must be used where they apply: their
    // hand-picked interpolation points differ from the generic generator,
    // and restore must rebuild the *same* matrices the trainer ran with.
    match (m, r) {
        (2, 3) => Ok(WinogradTransform::f2x2_3x3()),
        (4, 3) => Ok(WinogradTransform::f4x4_3x3()),
        (2, 5) => Ok(WinogradTransform::f2x2_5x5()),
        _ => WinogradTransform::cook_toom(m, r).map_err(|e| format!("F({m},{r}): {e:?}")),
    }
}

fn pool_to_json(pool: &Option<Pool2x2>) -> Value {
    match pool.as_ref().map(Pool2x2::kind) {
        Some(PoolKind::Max) => json::s("max"),
        Some(PoolKind::Avg) => json::s("avg"),
        None => Value::Null,
    }
}

fn pool_from_json(v: &Value) -> Result<Option<Pool2x2>, String> {
    match v {
        Value::Null => Ok(None),
        Value::Str(s) if s == "max" => Ok(Some(Pool2x2::new(PoolKind::Max))),
        Value::Str(s) if s == "avg" => Ok(Some(Pool2x2::new(PoolKind::Avg))),
        other => Err(format!("unknown pool kind {other:?}")),
    }
}

/// Serializes a [`WinogradNet`] at iteration `iter` to a JSON checkpoint.
///
/// # Panics
///
/// Panics if stages use different Winograd transforms (the trainer never
/// builds such a net).
pub fn checkpoint_net(iter: u64, net: &WinogradNet) -> Value {
    let tf = net.stages()[0].conv.transform();
    let (m, r) = (tf.m(), tf.r());
    for st in net.stages() {
        assert_eq!(
            (st.conv.transform().m(), st.conv.transform().r()),
            (m, r),
            "stages must share one transform"
        );
    }
    let stages: Vec<Value> = net
        .stages()
        .iter()
        .map(|st| {
            json::obj(vec![
                ("pool", pool_to_json(&st.pool)),
                ("weights", wg_to_json(st.conv.weights())),
            ])
        })
        .collect();
    json::obj(vec![
        ("kind", json::s("wmpt-net-checkpoint")),
        ("version", json::num(1.0)),
        ("iter", json::num(iter as f64)),
        ("m", json::num(m as f64)),
        ("r", json::num(r as f64)),
        ("stages", Value::Arr(stages)),
        ("readout", bits_arr(net.readout())),
    ])
}

/// Restores a net checkpoint: the exact inverse of [`checkpoint_net`].
pub fn restore_net(v: &Value) -> Result<(u64, WinogradNet), String> {
    if v.get("kind").and_then(Value::as_str) != Some("wmpt-net-checkpoint") {
        return Err("not a wmpt-net-checkpoint".to_string());
    }
    let iter = v
        .get("iter")
        .and_then(Value::as_u64)
        .ok_or("missing 'iter'")?;
    let (m, r) = (usize_field(v, "m")?, usize_field(v, "r")?);
    let stage_vals = v
        .get("stages")
        .and_then(Value::as_arr)
        .ok_or("missing 'stages'")?;
    let mut stages = Vec::with_capacity(stage_vals.len());
    for sv in stage_vals {
        let weights = wg_from_json(sv.get("weights").ok_or("stage missing 'weights'")?)?;
        let pool = pool_from_json(sv.get("pool").ok_or("stage missing 'pool'")?)?;
        stages.push(Stage {
            conv: WinogradLayer::from_winograd(transform_for(m, r)?, weights),
            pool,
        });
    }
    let readout = f32s_back(v.get("readout").ok_or("missing 'readout'")?, "readout")?;
    if stages.is_empty() {
        return Err("checkpoint has no stages".to_string());
    }
    Ok((iter, WinogradNet::from_parts(stages, readout)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn net_checkpoint_round_trips_bitwise() {
        let net = WinogradNet::new(9, 2, &[4, 6], true);
        let text = checkpoint_net(17, &net).render();
        let (iter, back) = restore_net(&json::parse(&text).expect("parse")).expect("restore");
        assert_eq!(iter, 17);
        assert_eq!(back.depth(), net.depth());
        for (a, b) in net.stages().iter().zip(back.stages()) {
            assert_eq!(a.conv.weights().data, b.conv.weights().data);
            assert_eq!(
                a.pool.as_ref().map(Pool2x2::kind),
                b.pool.as_ref().map(Pool2x2::kind)
            );
        }
        assert_eq!(net.readout(), back.readout());
        // Re-serializing the restored net reproduces the same document.
        assert_eq!(checkpoint_net(17, &back).render(), text);
    }

    #[test]
    fn special_float_values_survive() {
        let mut net = WinogradNet::new(3, 2, &[4], false);
        net.stages_mut()[0].conv.weights_mut().data[0] = -0.0;
        net.stages_mut()[0].conv.weights_mut().data[1] = f32::NAN;
        net.stages_mut()[0].conv.weights_mut().data[2] = f32::MIN_POSITIVE / 2.0; // subnormal
        let text = checkpoint_net(0, &net).render();
        let (_, back) = restore_net(&json::parse(&text).expect("parse")).expect("restore");
        let d = &back.stages()[0].conv.weights().data;
        assert_eq!(d[0].to_bits(), (-0.0f32).to_bits());
        assert_eq!(d[1].to_bits(), f32::NAN.to_bits());
        assert_eq!(d[2].to_bits(), (f32::MIN_POSITIVE / 2.0).to_bits());
    }

    #[test]
    fn restore_rejects_wrong_kind() {
        let v = json::obj(vec![("kind", json::s("something-else"))]);
        assert!(restore_net(&v).is_err());
    }

    #[test]
    fn restore_rejects_torn_data() {
        let net = WinogradNet::new(1, 2, &[4], false);
        let text = checkpoint_net(0, &net).render();
        // Truncate one weight array entry by corrupting the geometry.
        let tampered = text.replacen("\"elems\":16", "\"elems\":15", 1);
        let v = json::parse(&tampered).expect("parse");
        assert!(restore_net(&v).is_err());
    }
}
