//! Non-convolution neural-network operators: activations, pooling, normalization,
//! fully-connected layers, and softmax.
//!
//! Max pooling, global average pooling and the prepared linear layer
//! additionally offer `_into` variants that read a [`TensorView`] and write a
//! [`TensorViewMut`] (every element of which is overwritten, and nothing past
//! it), so arena-backed forward passes allocate nothing.

use crate::conv::valid_out_range;
use crate::engine::{self, PreparedGemmB};
use crate::error::{Result, TensorError};
use crate::shape::{Pool2dParams, Shape};
use crate::tensor::Tensor;
use crate::view::{validate_into, TensorView, TensorViewMut};

/// Rectified linear unit, elementwise.
pub fn relu(input: &Tensor) -> Tensor {
    input.map(|x| x.max(0.0))
}

/// Rectified linear unit applied in place (the allocation-free variant the model zoo
/// uses between fused conv layers).
pub fn relu_in_place(input: &mut Tensor) {
    input.map_inplace(|x| x.max(0.0));
}

/// ReLU6 (used by MobileNetV2), elementwise.
pub fn relu6(input: &Tensor) -> Tensor {
    input.map(|x| x.clamp(0.0, 6.0))
}

/// ReLU6 applied in place.
pub fn relu6_in_place(input: &mut Tensor) {
    input.map_inplace(|x| x.clamp(0.0, 6.0));
}

/// Fused residual merge: `out = max(out + skip, 0)` in one pass over the data (the
/// tail of every ResNet block; fusing saves a full read-modify-write sweep).
///
/// # Errors
/// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
pub fn add_relu_in_place(out: &mut Tensor, skip: &Tensor) -> Result<()> {
    if out.shape() != skip.shape() {
        return Err(TensorError::ShapeMismatch {
            left: out.shape().as_array().to_vec(),
            right: skip.shape().as_array().to_vec(),
            op: "add_relu_in_place",
        });
    }
    for (o, &s) in out.as_mut_slice().iter_mut().zip(skip.as_slice()) {
        *o = (*o + s).max(0.0);
    }
    Ok(())
}

/// Inference-mode batch normalization.
///
/// `mean`, `var`, `gamma`, and `beta` must each have one entry per channel.
///
/// # Errors
/// Returns [`TensorError::LengthMismatch`] if any parameter vector does not match the
/// channel count.
pub fn batch_norm(
    input: &Tensor,
    mean: &[f32],
    var: &[f32],
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
) -> Result<Tensor> {
    let c = input.shape().c;
    for (name, v) in [("mean", mean), ("var", var), ("gamma", gamma), ("beta", beta)] {
        if v.len() != c {
            let _ = name;
            return Err(TensorError::LengthMismatch { expected: c, actual: v.len() });
        }
    }
    let shape = input.shape();
    let mut out = Tensor::zeros(shape);
    for n in 0..shape.n {
        for ch in 0..c {
            let scale = gamma[ch] / (var[ch] + eps).sqrt();
            let shift = beta[ch] - mean[ch] * scale;
            let src = input.plane(n, ch);
            let dst = out.plane_mut(n, ch);
            for (d, &s) in dst.iter_mut().zip(src) {
                *d = s * scale + shift;
            }
        }
    }
    Ok(out)
}

/// Max pooling over square windows.
///
/// # Errors
/// Returns an error if the window does not fit in the padded input.
pub fn max_pool2d(input: &Tensor, params: &Pool2dParams) -> Result<Tensor> {
    let mut out = Tensor::zeros(params.output_shape(input.shape())?);
    pool2d_into(input.into(), params, PoolKind::Max, (&mut out).into())?;
    Ok(out)
}

/// [`max_pool2d`] writing into a caller-provided tensor (fully overwritten).
///
/// # Errors
/// Returns an error if the window does not fit, or `out` has the wrong shape.
pub fn max_pool2d_into<'a>(
    input: impl Into<TensorView<'a>>,
    params: &Pool2dParams,
    out: impl Into<TensorViewMut<'a>>,
) -> Result<()> {
    pool2d_into(input.into(), params, PoolKind::Max, out.into())
}

/// Average pooling over square windows (zero padding contributes to the divisor only when
/// inside the image, matching common framework semantics `count_include_pad = false`).
///
/// # Errors
/// Returns an error if the window does not fit in the padded input.
pub fn avg_pool2d(input: &Tensor, params: &Pool2dParams) -> Result<Tensor> {
    let mut out = Tensor::zeros(params.output_shape(input.shape())?);
    pool2d_into(input.into(), params, PoolKind::Avg, (&mut out).into())?;
    Ok(out)
}

#[derive(Clone, Copy)]
enum PoolKind {
    Max,
    Avg,
}

fn pool2d_into(
    input: TensorView<'_>,
    params: &Pool2dParams,
    kind: PoolKind,
    mut out: TensorViewMut<'_>,
) -> Result<()> {
    let ishape = input.shape();
    let oshape = params.output_shape(ishape)?;
    validate_into("pool", oshape, out.shape(), None)?;
    // Outputs whose whole window lies inside the image: valid for the first
    // tap and for the last. Max pooling fills those a row at a time; the
    // border, and average pooling, take the general per-output loop.
    let interior = |extent: usize, out_extent: usize| {
        let (lo, _) = valid_out_range(extent, out_extent, 0, params.stride, params.padding);
        let (_, hi) =
            valid_out_range(extent, out_extent, params.kernel - 1, params.stride, params.padding);
        lo.min(hi)..hi
    };
    let (fast_rows, fast_cols) = match kind {
        PoolKind::Max => (interior(ishape.h, oshape.h), interior(ishape.w, oshape.w)),
        PoolKind::Avg => (0..0, 0..0),
    };
    for n in 0..ishape.n {
        for c in 0..ishape.c {
            let plane = input.plane(n, c);
            let dst = out.plane_mut(n, c);
            for (oh, row) in dst.chunks_exact_mut(oshape.w).enumerate() {
                let fast = if fast_rows.contains(&oh) { fast_cols.clone() } else { 0..0 };
                if !fast.is_empty() {
                    max_pool_interior_row(
                        plane,
                        ishape.w,
                        params,
                        oh,
                        fast.start,
                        &mut row[fast.clone()],
                    );
                }
                for ow in (0..fast.start).chain(fast.end..oshape.w) {
                    row[ow] = pool_window(plane, ishape, params, kind, oh, ow);
                }
            }
        }
    }
    Ok(())
}

/// Max pooling of output columns `ow0..ow0 + acc.len()` of output row `oh`,
/// all of whose windows lie inside the image: each tap is one sweep over the
/// whole run. Every output still sees its taps in `(kh, kw)` order, so the
/// result is bitwise the [`pool_window`] one (`-0.0` and NaN included).
fn max_pool_interior_row(
    plane: &[f32],
    width: usize,
    params: &Pool2dParams,
    oh: usize,
    ow0: usize,
    acc: &mut [f32],
) {
    acc.fill(f32::NEG_INFINITY);
    for kh in 0..params.kernel {
        let ih = oh * params.stride + kh - params.padding;
        let src_row = &plane[ih * width..(ih + 1) * width];
        for kw in 0..params.kernel {
            let taps = &src_row[ow0 * params.stride + kw - params.padding..];
            if params.stride == 2 {
                // The stem pool's stride. Whole pairs vectorize as a
                // deinterleave (`step_by` does not); the last tap may have no
                // partner, so it goes alone.
                let (last, body) = acc.split_last_mut().expect("non-empty run");
                *last = last.max(taps[2 * body.len()]);
                for (a, pair) in body.iter_mut().zip(taps.chunks_exact(2)) {
                    *a = a.max(pair[0]);
                }
            } else {
                for (a, &v) in acc.iter_mut().zip(taps.iter().step_by(params.stride)) {
                    *a = a.max(v);
                }
            }
        }
    }
}

/// One pooled output by the general loop: every tap bounds-checked, applied
/// in `(kh, kw)` order; a window that sees no pixel yields 0.
fn pool_window(
    plane: &[f32],
    ishape: Shape,
    params: &Pool2dParams,
    kind: PoolKind,
    oh: usize,
    ow: usize,
) -> f32 {
    let pad = params.padding as isize;
    let mut acc = match kind {
        PoolKind::Max => f32::NEG_INFINITY,
        PoolKind::Avg => 0.0,
    };
    let mut count = 0usize;
    for kh in 0..params.kernel {
        let ih = (oh * params.stride + kh) as isize - pad;
        if ih < 0 || ih >= ishape.h as isize {
            continue;
        }
        for kw in 0..params.kernel {
            let iw = (ow * params.stride + kw) as isize - pad;
            if iw < 0 || iw >= ishape.w as isize {
                continue;
            }
            let v = plane[ih as usize * ishape.w + iw as usize];
            match kind {
                PoolKind::Max => acc = acc.max(v),
                PoolKind::Avg => acc += v,
            }
            count += 1;
        }
    }
    match kind {
        _ if count == 0 => 0.0,
        PoolKind::Max => acc,
        PoolKind::Avg => acc / count as f32,
    }
}

/// Global average pooling: reduces each channel plane to a single value, producing an
/// `N × C × 1 × 1` tensor. This is what makes ResNet-style models resolution-agnostic.
pub fn global_avg_pool(input: &Tensor) -> Tensor {
    let ishape = input.shape();
    let mut out = Tensor::zeros(Shape::new(ishape.n, ishape.c, 1, 1));
    global_avg_pool_into(input, &mut out).expect("freshly shaped output");
    out
}

/// [`global_avg_pool`] writing into a caller-provided `N × C × 1 × 1` tensor
/// (fully overwritten).
///
/// # Errors
/// Returns an error if `out` has the wrong shape.
pub fn global_avg_pool_into<'a>(
    input: impl Into<TensorView<'a>>,
    out: impl Into<TensorViewMut<'a>>,
) -> Result<()> {
    let (input, mut out) = (input.into(), out.into());
    let ishape = input.shape();
    validate_into("global_avg_pool", Shape::new(ishape.n, ishape.c, 1, 1), out.shape(), None)?;
    let area = (ishape.h * ishape.w).max(1) as f32;
    for (index, mean) in out.as_mut_slice().iter_mut().enumerate() {
        let sum: f32 = input.plane(index / ishape.c, index % ishape.c).iter().sum();
        *mean = sum / area;
    }
    Ok(())
}

/// Fully-connected (linear) layer: `out[n][o] = Σ_i in[n][i] * weight[o][i] + bias[o]`.
///
/// The input must have spatial extent `1 × 1` (i.e. already globally pooled); `weight` is an
/// `out_features × in_features` row-major matrix.
///
/// # Errors
/// Returns an error if the input is not `N × C × 1 × 1`, or if the weight/bias sizes do not
/// match.
pub fn linear(
    input: &Tensor,
    weight: &[f32],
    bias: Option<&[f32]>,
    out_features: usize,
) -> Result<Tensor> {
    let ishape = input.shape();
    if ishape.h != 1 || ishape.w != 1 {
        return Err(TensorError::ShapeMismatch {
            left: ishape.as_array().to_vec(),
            right: vec![ishape.n, ishape.c, 1, 1],
            op: "linear input",
        });
    }
    let in_features = ishape.c;
    if weight.len() != out_features * in_features {
        return Err(TensorError::LengthMismatch {
            expected: out_features * in_features,
            actual: weight.len(),
        });
    }
    if let Some(b) = bias {
        if b.len() != out_features {
            return Err(TensorError::LengthMismatch { expected: out_features, actual: b.len() });
        }
    }
    let mut out = Tensor::zeros(Shape::new(ishape.n, out_features, 1, 1));
    for n in 0..ishape.n {
        for o in 0..out_features {
            let mut acc = bias.map_or(0.0, |b| b[o]);
            let wrow = &weight[o * in_features..(o + 1) * in_features];
            for (i, &wv) in wrow.iter().enumerate() {
                acc += input.get(n, i, 0, 0) * wv;
            }
            out.set(n, o, 0, 0, acc);
        }
    }
    Ok(out)
}

/// Fully-connected layer against a weight matrix prepacked once into GEMM
/// right-operand panels (`Wᵀ`, [`PreparedGemmB::prepare_transposed`]): the
/// batched features are the GEMM left operand, so the forward runs on the
/// packed microkernel with no per-call weight packing.
///
/// The engine reduction is KC-blocked vector arithmetic, so results agree with
/// the scalar [`linear`] only to floating-point reassociation (≤ ~1e-4 at
/// unit scale), not bitwise.
///
/// # Errors
/// Returns an error if the input is not `N × C × 1 × 1`, its feature count does
/// not match the packed weights, or the bias length is wrong.
pub fn linear_prepared(
    input: &Tensor,
    weight: &PreparedGemmB,
    bias: Option<&[f32]>,
) -> Result<Tensor> {
    let mut out = Tensor::zeros(Shape::new(input.shape().n, weight.cols(), 1, 1));
    linear_prepared_into(input, weight, bias, &mut out)?;
    Ok(out)
}

/// [`linear_prepared`] writing into a caller-provided `N × O × 1 × 1` tensor
/// (fully overwritten).
///
/// # Errors
/// See [`linear_prepared`]; additionally errors if `out` has the wrong shape.
pub fn linear_prepared_into<'a>(
    input: impl Into<TensorView<'a>>,
    weight: &PreparedGemmB,
    bias: Option<&[f32]>,
    out: impl Into<TensorViewMut<'a>>,
) -> Result<()> {
    let (input, mut out) = (input.into(), out.into());
    let ishape = input.shape();
    let (k, out_features) = (weight.k(), weight.cols());
    if ishape.h != 1 || ishape.w != 1 || ishape.c != k {
        return Err(TensorError::ShapeMismatch {
            left: ishape.as_array().to_vec(),
            right: vec![ishape.n, k, 1, 1],
            op: "linear_prepared input",
        });
    }
    validate_into("linear_prepared", Shape::new(ishape.n, out_features, 1, 1), out.shape(), None)?;
    if let Some(b) = bias {
        if b.len() != out_features {
            return Err(TensorError::LengthMismatch { expected: out_features, actual: b.len() });
        }
    }
    engine::packed_gemm_strided(
        engine::GemmLhs::Rows { data: input.as_slice(), lda: k },
        0,
        ishape.n,
        k,
        weight.panels(),
        out_features,
        out.as_mut_slice(),
        out_features,
        0,
        engine::WriteMode::Overwrite { epilogue: engine::Epilogue::with_bias(None) },
    );
    if let Some(b) = bias {
        // The engine's bias is per *row* (batch element); the linear bias is per
        // column (output feature), so it is added in a tiny second sweep.
        let data = out.as_mut_slice();
        for n in 0..ishape.n {
            for (o, &bv) in data[n * out_features..(n + 1) * out_features].iter_mut().zip(b) {
                *o += bv;
            }
        }
    }
    Ok(())
}

/// Numerically-stable softmax over the channel dimension of an `N × C × 1 × 1` tensor.
///
/// # Errors
/// Returns an error if the input has spatial extent other than `1 × 1`.
pub fn softmax(input: &Tensor) -> Result<Tensor> {
    let ishape = input.shape();
    if ishape.h != 1 || ishape.w != 1 {
        return Err(TensorError::ShapeMismatch {
            left: ishape.as_array().to_vec(),
            right: vec![ishape.n, ishape.c, 1, 1],
            op: "softmax input",
        });
    }
    let mut out = Tensor::zeros(ishape);
    for n in 0..ishape.n {
        let mut maxv = f32::NEG_INFINITY;
        for c in 0..ishape.c {
            maxv = maxv.max(input.get(n, c, 0, 0));
        }
        let mut denom = 0.0;
        for c in 0..ishape.c {
            denom += (input.get(n, c, 0, 0) - maxv).exp();
        }
        for c in 0..ishape.c {
            out.set(n, c, 0, 0, (input.get(n, c, 0, 0) - maxv).exp() / denom);
        }
    }
    Ok(out)
}

/// Sigmoid activation, elementwise (used by the multi-label scale model head).
pub fn sigmoid(input: &Tensor) -> Tensor {
    input.map(|x| 1.0 / (1.0 + (-x).exp()))
}

/// Max pooling by [`pool_window`] alone — the loop the interior fast path must
/// reproduce bit for bit.
#[cfg(test)]
pub(crate) fn max_pool2d_general(input: &Tensor, params: &Pool2dParams) -> Result<Tensor> {
    let ishape = input.shape();
    let oshape = params.output_shape(ishape)?;
    Ok(Tensor::from_fn(oshape, |n, c, oh, ow| {
        pool_window(input.plane(n, c), ishape, params, PoolKind::Max, oh, ow)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_and_relu6() {
        let t = Tensor::from_vec(Shape::new(1, 1, 1, 4), vec![-1.0, 0.5, 3.0, 9.0]).unwrap();
        assert_eq!(relu(&t).as_slice(), &[0.0, 0.5, 3.0, 9.0]);
        assert_eq!(relu6(&t).as_slice(), &[0.0, 0.5, 3.0, 6.0]);
    }

    #[test]
    fn batch_norm_normalizes() {
        let input = Tensor::from_fn(Shape::new(1, 2, 2, 2), |_, c, _, _| c as f32 * 10.0 + 5.0);
        let out =
            batch_norm(&input, &[5.0, 15.0], &[1.0, 1.0], &[1.0, 2.0], &[0.0, 1.0], 1e-5).unwrap();
        // channel 0: (5-5)/1*1+0 = 0; channel 1: (15-15)/1*2+1 = 1.
        assert!(out.plane(0, 0).iter().all(|x| x.abs() < 1e-3));
        assert!(out.plane(0, 1).iter().all(|x| (x - 1.0).abs() < 1e-3));
    }

    #[test]
    fn batch_norm_validates_lengths() {
        let input = Tensor::zeros(Shape::new(1, 3, 2, 2));
        assert!(batch_norm(&input, &[0.0; 2], &[1.0; 3], &[1.0; 3], &[0.0; 3], 1e-5).is_err());
        assert!(batch_norm(&input, &[0.0; 3], &[1.0; 3], &[1.0; 3], &[0.0; 2], 1e-5).is_err());
    }

    #[test]
    fn max_pool_picks_maximum() {
        let input = Tensor::from_fn(Shape::new(1, 1, 4, 4), |_, _, h, w| (h * 4 + w) as f32);
        let out = max_pool2d(&input, &Pool2dParams::new(2, 2, 0)).unwrap();
        assert_eq!(out.shape(), Shape::new(1, 1, 2, 2));
        assert_eq!(out.as_slice(), &[5.0, 7.0, 13.0, 15.0]);
    }

    #[test]
    fn max_pool_stem_shape_matches_general_loop_bitwise() {
        // The ResNet stem pool (3×3, stride 2, pad 1) over odd and even extents:
        // border rows/columns take the general loop, the interior the fast
        // path, and the seam between them must not show.
        for (h, w) in [(112usize, 112usize), (57, 85), (3, 3), (2, 9)] {
            let mut input = Tensor::random_uniform(Shape::new(2, 3, h, w), 1.0, (h * w) as u64);
            for (i, v) in input.as_mut_slice().iter_mut().enumerate() {
                match i % 11 {
                    0 => *v = -0.0,
                    5 => *v = 0.0,
                    _ => {}
                }
            }
            let params = Pool2dParams::new(3, 2, 1);
            let fast = max_pool2d(&input, &params).unwrap();
            let general = max_pool2d_general(&input, &params).unwrap();
            let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&fast), bits(&general), "{h}×{w}");
        }
    }

    #[test]
    fn avg_pool_excludes_padding_from_divisor() {
        let input = Tensor::ones(Shape::new(1, 1, 2, 2));
        let out = avg_pool2d(&input, &Pool2dParams::new(3, 1, 1)).unwrap();
        // Every window only ever sees ones, so excluding padded cells keeps the average 1.
        assert!(out.as_slice().iter().all(|&x| (x - 1.0).abs() < 1e-6));
    }

    #[test]
    fn pooling_window_validation() {
        let input = Tensor::ones(Shape::new(1, 1, 2, 2));
        assert!(max_pool2d(&input, &Pool2dParams::new(5, 1, 0)).is_err());
    }

    #[test]
    fn global_avg_pool_reduces_planes() {
        let input = Tensor::from_fn(Shape::new(2, 3, 4, 4), |n, c, _, _| (n + c) as f32);
        let out = global_avg_pool(&input);
        assert_eq!(out.shape(), Shape::new(2, 3, 1, 1));
        assert!((out.get(1, 2, 0, 0) - 3.0).abs() < 1e-6);
    }

    #[test]
    fn linear_layer() {
        let input = Tensor::from_vec(Shape::new(1, 3, 1, 1), vec![1.0, 2.0, 3.0]).unwrap();
        let weight = vec![1.0, 0.0, 0.0, 0.0, 1.0, 1.0];
        let out = linear(&input, &weight, Some(&[0.5, -0.5]), 2).unwrap();
        assert_eq!(out.as_slice(), &[1.5, 4.5]);
        // Non-pooled input rejected.
        let spatial = Tensor::zeros(Shape::new(1, 3, 2, 2));
        assert!(linear(&spatial, &weight, None, 2).is_err());
        // Wrong weight length rejected.
        assert!(linear(&input, &weight[..4], None, 2).is_err());
        assert!(linear(&input, &weight, Some(&[0.0; 3]), 2).is_err());
    }

    #[test]
    fn softmax_sums_to_one_and_is_stable() {
        let input = Tensor::from_vec(Shape::new(1, 3, 1, 1), vec![1000.0, 1001.0, 1002.0]).unwrap();
        let out = softmax(&input).unwrap();
        let sum: f32 = out.as_slice().iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
        assert!(!out.has_non_finite());
        assert!(out.get(0, 2, 0, 0) > out.get(0, 0, 0, 0));
        assert!(softmax(&Tensor::zeros(Shape::new(1, 3, 2, 2))).is_err());
    }

    #[test]
    fn sigmoid_bounds() {
        let input = Tensor::from_vec(Shape::new(1, 1, 1, 3), vec![-100.0, 0.0, 100.0]).unwrap();
        let out = sigmoid(&input);
        assert!(out.get(0, 0, 0, 0) < 1e-6);
        assert!((out.get(0, 0, 0, 1) - 0.5).abs() < 1e-6);
        assert!(out.get(0, 0, 0, 2) > 1.0 - 1e-6);
    }
}
