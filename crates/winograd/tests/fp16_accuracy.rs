//! FP16 numerics of the Winograd pipeline (paper §VII-C: the entire-CNN
//! evaluation runs FP16 multiplies with FP32 accumulation on both the
//! GPU tensor cores and the 96×96 NDP array).
//!
//! These tests quantize operands to binary16 before the Winograd
//! pipeline and check accuracy stays in the regime where cuDNN enables
//! FP16 Winograd kernels.

use wmpt_par::ParPool;
use wmpt_tensor::{quantize_tensor_f16, DataGen, Shape4};
use wmpt_winograd::{DirectConv, WinogradConv, WinogradTransform};

#[test]
fn fp16_winograd_tracks_fp32_direct() {
    let mut g = DataGen::new(1);
    let mut x = g.normal_tensor(Shape4::new(2, 8, 12, 12), 0.0, 1.0);
    let mut w = g.he_weights(Shape4::new(8, 8, 3, 3));
    let reference = DirectConv::new(3).fprop(&x, &w); // FP32 reference

    quantize_tensor_f16(&mut x);
    quantize_tensor_f16(&mut w);
    let wino16 = WinogradConv::new(WinogradTransform::f2x2_3x3()).fprop(&x, &w);

    let scale = reference.max_abs().max(1.0);
    let rel = wino16.max_abs_diff(&reference) / scale;
    assert!(rel < 5e-3, "fp16 winograd relative error {rel}");
}

#[test]
fn fp16_error_larger_for_bigger_tiles() {
    // F(4x4,3x3) amplifies quantization noise more than F(2x2,3x3):
    // the stability effect that keeps the paper at small tiles, now under
    // FP16 inputs.
    let mut g = DataGen::new(2);
    let mut x = g.normal_tensor(Shape4::new(2, 8, 12, 12), 0.0, 1.0);
    let mut w = g.he_weights(Shape4::new(8, 8, 3, 3));
    quantize_tensor_f16(&mut x);
    quantize_tensor_f16(&mut w);
    // Reference over the SAME quantized operands isolates the
    // transform-induced error from the shared input-quantization noise.
    let reference = DirectConv::new(3).fprop(&x, &w);

    let e2 = WinogradConv::new(WinogradTransform::f2x2_3x3())
        .fprop(&x, &w)
        .max_abs_diff(&reference);
    let e6 = WinogradConv::new(WinogradTransform::cook_toom(6, 3).expect("F(6,3) constructible"))
        .fprop(&x, &w)
        .max_abs_diff(&reference);
    assert!(e6 > e2, "F(6,3) err {e6} should exceed F(2,3) err {e2}");
}

#[test]
fn fp16_gradients_remain_usable() {
    // One training step under FP16 operand quantization still moves the
    // loss in the right direction.
    let mut g = DataGen::new(3);
    let mut x = g.normal_tensor(Shape4::new(2, 4, 8, 8), 0.0, 1.0);
    quantize_tensor_f16(&mut x);
    let mut w = g.he_weights(Shape4::new(4, 4, 3, 3));
    quantize_tensor_f16(&mut w);
    let target = g.normal_tensor(Shape4::new(2, 4, 8, 8), 0.0, 1.0);
    let mut layer = wmpt_winograd::WinogradLayer::from_spatial(WinogradTransform::f2x2_3x3(), &w);
    let pool = ParPool::serial();
    let loss = |l: &wmpt_winograd::WinogradLayer| -> f64 {
        l.fprop_par(&pool, &x)
            .as_slice()
            .iter()
            .zip(target.as_slice())
            .map(|(a, b)| 0.5 * ((a - b) as f64).powi(2))
            .sum()
    };
    let before = loss(&layer);
    let y = layer.fprop_par(&pool, &x);
    let mut dy = y;
    for (d, t) in dy.as_mut_slice().iter_mut().zip(target.as_slice()) {
        *d -= t;
    }
    quantize_tensor_f16(&mut dy); // fp16 gradients on the wire
    let grad = layer.update_grad_par(&pool, &x, &dy);
    layer.apply_grad(&grad, 0.002);
    let after = loss(&layer);
    assert!(after < before, "loss {before} -> {after}");
}
