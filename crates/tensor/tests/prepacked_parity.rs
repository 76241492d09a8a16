//! Parity suite for the prepacked + fused execution stage.
//!
//! Pins the PR's two core contracts:
//!
//! * **Prepacked weights are pure data movement** — a [`PreparedLayer`] forward
//!   is bitwise identical to the pack-per-call `conv2d_with_algo` path for every
//!   engine algorithm, at every thread count (CI re-runs this suite under
//!   `RESCNN_THREADS=1,2,4`).
//! * **Fused epilogues reassociate nothing** — executing the block tail
//!   (residual add + activation) inside the kernel's output write is bitwise
//!   identical to the separate `add_relu_in_place`-style passes.
//! * **The panels are the weights** — a prepared layer keeps no second f32
//!   copy, so `PreparedGemmA::unpack_into` must invert `prepare` bit for bit
//!   and `PreparedLayer::weight()` must return the tensor the layer was built
//!   from.

use rescnn_tensor::{
    add_relu_in_place, conv2d_with_algo, global_avg_pool, global_avg_pool_into, linear,
    linear_prepared, linear_prepared_into, max_pool2d, max_pool2d_into, relu6_in_place,
    relu_in_place, Conv2dParams, ConvAlgo, ConvEpilogue, FusedActivation, Pool2dParams,
    PreparedGemmA, PreparedGemmB, PreparedLayer, Shape, Tensor, TensorViewMut,
};

fn sample(params: &Conv2dParams, res: usize, seed: u64) -> (Tensor, Tensor, Vec<f32>) {
    let input = Tensor::random_uniform(Shape::chw(params.in_channels, res, res), 1.0, seed);
    let weight = Tensor::random_uniform(
        Shape::new(
            params.out_channels,
            params.in_channels / params.groups,
            params.kernel,
            params.kernel,
        ),
        0.5,
        seed ^ 0xF00D,
    );
    let bias: Vec<f32> = (0..params.out_channels).map(|i| (i as f32 - 3.0) * 0.17).collect();
    (input, weight, bias)
}

/// Every engine algorithm: prepared forward must equal the unprepared path
/// bitwise (packing is data movement, never arithmetic).
#[test]
fn prepared_layers_match_unpacked_paths_bitwise() {
    let cases = [
        (Conv2dParams::new(13, 21, 3, 1, 1), ConvAlgo::Im2colPacked, 33usize),
        (Conv2dParams::new(9, 17, 5, 2, 2), ConvAlgo::Im2colPacked, 27),
        (Conv2dParams::new(16, 24, 1, 1, 0), ConvAlgo::Gemm1x1, 19),
        (Conv2dParams::new(8, 12, 1, 1, 0).with_groups(4), ConvAlgo::Gemm1x1, 15),
        (Conv2dParams::depthwise(11, 3, 1, 1), ConvAlgo::Depthwise, 23),
        // Depthwise shape forced onto the GEMM path: no panels are prepacked
        // for depthwise-dispatched layers, so this exercises the raw-weight
        // fallback inside the prepared layer.
        (Conv2dParams::depthwise(11, 3, 1, 1), ConvAlgo::Im2colPacked, 23),
        (Conv2dParams::new(7, 10, 3, 1, 1), ConvAlgo::Winograd, 18),
    ];
    for (params, algo, res) in cases {
        let (input, weight, bias) = sample(&params, res, 42 + res as u64);
        let unpacked = conv2d_with_algo(&input, &weight, Some(&bias), &params, algo).unwrap();
        let prepared = PreparedLayer::new(weight, Some(bias), params).unwrap();
        let mut out = Tensor::zeros(params.output_shape(input.shape()).unwrap());
        prepared.forward_with_algo_into(&input, algo, ConvEpilogue::default(), &mut out).unwrap();
        assert_eq!(
            unpacked.as_slice(),
            out.as_slice(),
            "prepacked {algo} diverged from the unpacked path for {params:?}"
        );
        if ConvAlgo::Depthwise.supports(&params) {
            // Depthwise layers skip GEMM panel prepacking entirely.
            assert_eq!(prepared.prepacked_bytes(), 0);
        } else {
            assert!(prepared.prepacked_bytes() > 0);
        }
    }
}

/// The fused epilogue (residual + ReLU in the kernel's output write) must be
/// bitwise identical to conv followed by the separate `add_relu_in_place` pass,
/// for every algorithm a bottleneck tail can dispatch to.
#[test]
fn fused_residual_tails_match_separate_passes_bitwise() {
    let cases = [
        (Conv2dParams::new(12, 18, 1, 1, 0), ConvAlgo::Gemm1x1, 21usize),
        (Conv2dParams::new(6, 14, 3, 1, 1), ConvAlgo::Im2colPacked, 24),
        (Conv2dParams::new(6, 14, 3, 1, 1), ConvAlgo::Winograd, 24),
        (Conv2dParams::depthwise(10, 3, 1, 1), ConvAlgo::Depthwise, 17),
        (Conv2dParams::new(5, 8, 3, 1, 1), ConvAlgo::Direct, 12),
    ];
    for (params, algo, res) in cases {
        let (input, weight, bias) = sample(&params, res, 7 + res as u64);
        let oshape = params.output_shape(input.shape()).unwrap();
        let skip = Tensor::random_uniform(oshape, 1.0, 99);

        let mut separate = conv2d_with_algo(&input, &weight, Some(&bias), &params, algo).unwrap();
        add_relu_in_place(&mut separate, &skip).unwrap();

        let prepared = PreparedLayer::new(weight, Some(bias), params).unwrap();
        let mut fused = Tensor::zeros(oshape);
        prepared
            .forward_with_algo_into(
                &input,
                algo,
                ConvEpilogue::activation(FusedActivation::Relu).with_residual(&skip),
                &mut fused,
            )
            .unwrap();
        assert_eq!(
            separate.as_slice(),
            fused.as_slice(),
            "fused residual tail diverged for {algo} {params:?}"
        );
    }
}

/// Fused activations without a residual must also match the separate in-place
/// activation sweeps bitwise.
#[test]
fn fused_activations_match_separate_passes_bitwise() {
    for (act, algo) in [
        (FusedActivation::Relu, ConvAlgo::Gemm1x1),
        (FusedActivation::Relu6, ConvAlgo::Im2colPacked),
        (FusedActivation::Relu6, ConvAlgo::Depthwise),
    ] {
        let params = match algo {
            ConvAlgo::Gemm1x1 => Conv2dParams::new(10, 16, 1, 1, 0),
            ConvAlgo::Depthwise => Conv2dParams::depthwise(9, 3, 2, 1),
            _ => Conv2dParams::new(8, 12, 3, 2, 1),
        };
        let (input, weight, bias) = sample(&params, 22, 5);
        let mut separate = conv2d_with_algo(&input, &weight, Some(&bias), &params, algo).unwrap();
        match act {
            FusedActivation::Relu => relu_in_place(&mut separate),
            FusedActivation::Relu6 => relu6_in_place(&mut separate),
            FusedActivation::None => {}
        }
        let prepared = PreparedLayer::new(weight, Some(bias), params).unwrap();
        let mut fused = Tensor::zeros(separate.shape());
        prepared
            .forward_with_algo_into(&input, algo, ConvEpilogue::activation(act), &mut fused)
            .unwrap();
        assert_eq!(separate.as_slice(), fused.as_slice(), "{algo} fused {act:?} diverged");
    }
}

/// Runs `kernel` into a view over the front of a longer all-NaN buffer, as an
/// arena slot holds stale values: it must write the view exactly — `fresh`'s
/// bits (computed into a zeroed tensor) and nothing past the view.
fn assert_overwrites_exactly(what: &str, fresh: &Tensor, kernel: impl FnOnce(TensorViewMut<'_>)) {
    let len = fresh.shape().volume();
    let mut buffer = vec![f32::NAN; len + 37];
    kernel(TensorViewMut::new(fresh.shape(), &mut buffer[..len]).unwrap());
    assert_eq!(bits(&buffer[..len]), bits(fresh.as_slice()), "{what} left stale contents");
    assert!(buffer[len..].iter().all(|x| x.is_nan()), "{what} wrote past its view");
}

/// Stale output buffers must produce the same bits as fresh zeroed ones: every
/// `_into` kernel overwrites its full output view and nothing beyond it. Each
/// arm with and without a residual, at batch 1 and 3, then the pools and the
/// prepared classifier.
#[test]
fn arena_backed_outputs_match_fresh_buffers_bitwise() {
    let dense = Conv2dParams::new(6, 9, 3, 1, 1);
    let arms = [
        (ConvAlgo::Im2colPacked, Conv2dParams::new(6, 9, 3, 2, 1)),
        (ConvAlgo::Gemm1x1, Conv2dParams::new(14, 10, 1, 1, 0)),
        (ConvAlgo::Depthwise, Conv2dParams::depthwise(9, 3, 1, 1)),
        (ConvAlgo::Winograd, dense),
        (ConvAlgo::WinogradF4, dense),
        (ConvAlgo::Int8, dense),
        (ConvAlgo::Direct, dense),
    ];
    for (algo, params) in arms {
        let (_, weight, bias) = sample(&params, 1, 11);
        let prepared = PreparedLayer::new(weight, Some(bias), params).unwrap();
        for batch in [1usize, 3] {
            let input =
                Tensor::random_uniform(Shape::new(batch, params.in_channels, 13, 13), 1.0, 5);
            let oshape = params.output_shape(input.shape()).unwrap();
            let skip = Tensor::random_uniform(oshape, 1.0, 6);
            for epilogue in [ConvEpilogue::activation(FusedActivation::Relu), relu_tail(&skip)] {
                let run = |out: TensorViewMut<'_>| {
                    prepared.forward_with_algo_into(&input, algo, epilogue, out).unwrap()
                };
                let mut fresh = Tensor::zeros(oshape);
                run((&mut fresh).into());
                let residual = epilogue.residual.is_some();
                assert_overwrites_exactly(&format!("{algo} ×{batch} {residual}"), &fresh, run);
            }
        }
    }
    let input = Tensor::random_uniform(Shape::new(3, 5, 9, 9), 1.0, 7);
    let pool = Pool2dParams::new(3, 2, 1);
    assert_overwrites_exactly("max pool", &max_pool2d(&input, &pool).unwrap(), |out| {
        max_pool2d_into(&input, &pool, out).unwrap()
    });
    assert_overwrites_exactly("global average pool", &global_avg_pool(&input), |out| {
        global_avg_pool_into(&input, out).unwrap()
    });
    let features = global_avg_pool(&input);
    let w = Tensor::random_uniform(Shape::new(1, 1, 4, 5), 0.4, 8).into_vec();
    let (packed, bias) = (PreparedGemmB::prepare_transposed(&w, 4, 5), [0.1, -0.2, 0.3, 0.0]);
    let logits = linear_prepared(&features, &packed, Some(&bias)).unwrap();
    assert_overwrites_exactly("classifier", &logits, |out| {
        linear_prepared_into(&features, &packed, Some(&bias), out).unwrap()
    });
}

/// The prepacked linear layer agrees with the scalar reference within
/// reassociation tolerance and is self-consistent across batches.
#[test]
fn prepared_linear_matches_reference() {
    let (n, in_features, out_features) = (5usize, 37usize, 12usize);
    let input = Tensor::random_uniform(Shape::new(n, in_features, 1, 1), 1.0, 3);
    let w = Tensor::random_uniform(Shape::new(1, 1, out_features, in_features), 0.4, 4).into_vec();
    let bias: Vec<f32> = (0..out_features).map(|i| i as f32 * 0.05 - 0.3).collect();

    let reference = linear(&input, &w, Some(&bias), out_features).unwrap();
    let packed = PreparedGemmB::prepare_transposed(&w, out_features, in_features);
    let fast = linear_prepared(&input, &packed, Some(&bias)).unwrap();
    assert_eq!(fast.shape(), reference.shape());
    assert!(reference.max_abs_diff(&fast).unwrap() < 1e-4);

    // Wrong feature count is rejected.
    let bad = Tensor::zeros(Shape::new(1, in_features + 1, 1, 1));
    assert!(linear_prepared(&bad, &packed, None).is_err());
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Unpack ∘ prepare is the identity on bit patterns: row counts on and off the
/// `MR = 6` grid, shared dimensions of a 1×1, 3×3 and 7×7 kernel over odd
/// channel counts, a leading dimension wider than `k`, and values (`-0.0`, a
/// NaN payload, a subnormal) that any arithmetic on the way would disturb.
#[test]
fn unpacking_prepared_panels_restores_the_rows_bitwise() {
    for rows in [1usize, 5, 6, 7, 12, 13, 64] {
        for k in [1usize, 9, 3 * 49, 5 * 9 + 2] {
            for lda in [k, k + 3] {
                let mut a: Vec<f32> =
                    (0..rows * lda).map(|i| ((i * 37) % 101) as f32 * 0.03 - 1.5).collect();
                a[0] = -0.0;
                a[(rows - 1) * lda + k - 1] = f32::from_bits(0x7fc0_1234);
                a[(rows / 2) * lda] = f32::from_bits(1);
                let prepared = PreparedGemmA::prepare(&a, lda, rows, k);
                let mut restored = vec![7.0f32; rows * k];
                prepared.unpack_into(&mut restored);
                for r in 0..rows {
                    assert_eq!(
                        bits(&restored[r * k..(r + 1) * k]),
                        bits(&a[r * lda..r * lda + k]),
                        "row {r} of {rows}×{k} (lda {lda})"
                    );
                }
            }
        }
    }
}

/// `weight()` hands back the construction tensor: dense layers with output
/// channels off the `MR` grid at kernels 1/3/7, grouped layers (every group
/// has its own panels, each with a ragged tail tile) and a depthwise layer
/// (which keeps the raw tensor and lends it out).
#[test]
fn prepared_layer_weight_equals_the_tensor_it_was_built_from() {
    let cases = [
        Conv2dParams::new(5, 7, 1, 1, 0),
        Conv2dParams::new(13, 21, 3, 1, 1),
        Conv2dParams::new(3, 64, 7, 2, 3),
        Conv2dParams::new(12, 20, 3, 1, 1).with_groups(4),
        Conv2dParams::new(8, 12, 1, 1, 0).with_groups(4),
        Conv2dParams::new(6, 14, 7, 2, 3).with_groups(2),
        Conv2dParams::depthwise(11, 3, 1, 1),
    ];
    for params in cases {
        let (_, mut weight, bias) = sample(&params, 9, 5 + params.kernel as u64);
        weight.as_mut_slice()[0] = -0.0;
        let prepared = PreparedLayer::new(weight.clone(), Some(bias), params).unwrap();
        let restored = prepared.weight();
        assert_eq!(restored.shape(), weight.shape(), "{params:?}");
        assert_eq!(bits(restored.as_slice()), bits(weight.as_slice()), "{params:?}");
    }
}

/// A residual + ReLU block tail.
fn relu_tail(skip: &Tensor) -> ConvEpilogue<'_> {
    ConvEpilogue::activation(FusedActivation::Relu).with_residual(skip)
}

/// Image `n` of a batch tensor, as a one-image tensor.
fn image(batch: &Tensor, n: usize) -> Tensor {
    let s = batch.shape();
    let len = s.c * s.h * s.w;
    Tensor::from_vec(
        Shape::new(1, s.c, s.h, s.w),
        batch.as_slice()[n * len..(n + 1) * len].to_vec(),
    )
    .unwrap()
}

/// The GEMM-lowered arms fold a batch's images into their GEMM columns: a
/// panel (1×1, im2col) or a Winograd chunk may span several images. Each
/// column still accumulates alone, so an N-image call with a residual + ReLU
/// epilogue must equal the N one-image calls bitwise. The shapes cover maps
/// whose pixels fill less than one panel (4×4, 5×5 and 7×7 outputs, so one
/// panel spans several images), pixel counts that are not a multiple of the
/// panel width, a shared dimension longer than one KC slice (the residual
/// lands on the last slice), grouped 1×1, the strided im2col shapes (7×7/2
/// stem, 3×3/2, 1×1/2), and Winograd chunks whose tile rows cross an image
/// boundary mid-chunk (F(2×2): 20 tiles per row → 11-row chunks over 5-row
/// images; F(4×4): 28 tiles per row → 8-row chunks over 5-row images). CI
/// runs it at 1, 2 and 4 threads.
#[test]
fn batch_folded_gemm_arms_match_per_image_outputs_bitwise() {
    let cases = [
        (Conv2dParams::new(40, 24, 1, 1, 0), ConvAlgo::Gemm1x1, (4usize, 4usize)),
        (Conv2dParams::new(12, 18, 1, 1, 0), ConvAlgo::Gemm1x1, (7, 7)),
        (Conv2dParams::new(8, 12, 1, 1, 0).with_groups(2), ConvAlgo::Gemm1x1, (5, 5)),
        (Conv2dParams::new(3, 16, 7, 2, 3), ConvAlgo::Im2colPacked, (14, 14)),
        (Conv2dParams::new(10, 16, 3, 2, 1), ConvAlgo::Im2colPacked, (8, 8)),
        (Conv2dParams::new(12, 20, 1, 2, 0), ConvAlgo::Im2colPacked, (14, 14)),
        (Conv2dParams::new(32, 12, 3, 1, 1), ConvAlgo::Im2colPacked, (4, 4)),
        (Conv2dParams::new(6, 10, 3, 1, 1), ConvAlgo::Im2colPacked, (5, 7)),
        (Conv2dParams::new(6, 10, 3, 1, 1), ConvAlgo::Winograd, (10, 40)),
        (Conv2dParams::new(6, 10, 3, 1, 1), ConvAlgo::Winograd, (7, 7)),
        (Conv2dParams::new(5, 9, 3, 1, 1), ConvAlgo::WinogradF4, (20, 112)),
        (Conv2dParams::new(5, 9, 3, 1, 1), ConvAlgo::WinogradF4, (4, 4)),
        // Over a million MACs per image: under more than one thread these
        // split their rows (Winograd: their chunks) across the pool.
        (Conv2dParams::new(128, 96, 1, 1, 0), ConvAlgo::Gemm1x1, (7, 7)),
        (Conv2dParams::new(64, 48, 3, 1, 1), ConvAlgo::Im2colPacked, (7, 7)),
        (Conv2dParams::new(16, 24, 3, 1, 1), ConvAlgo::Winograd, (10, 40)),
    ];
    for (params, algo, (h, w)) in cases {
        let (_, weight, bias) = sample(&params, h, 3 + (h * w) as u64);
        let prepared = PreparedLayer::new(weight, Some(bias), params).unwrap();
        for images in [2usize, 3, 5] {
            let input = Tensor::random_uniform(
                Shape::new(images, params.in_channels, h, w),
                1.0,
                (images * h * w) as u64,
            );
            let oshape = params.output_shape(input.shape()).unwrap();
            let skip = Tensor::random_uniform(oshape, 1.0, 77 + images as u64);
            let mut batched = Tensor::zeros(oshape);
            prepared.forward_with_algo_into(&input, algo, relu_tail(&skip), &mut batched).unwrap();
            for n in 0..images {
                let skip_n = image(&skip, n);
                let mut single = Tensor::zeros(skip_n.shape());
                prepared
                    .forward_with_algo_into(
                        &image(&input, n),
                        algo,
                        relu_tail(&skip_n),
                        &mut single,
                    )
                    .unwrap();
                assert_eq!(
                    bits(image(&batched, n).as_slice()),
                    bits(single.as_slice()),
                    "{algo} {params:?} at {h}×{w}: image {n} of {images} differs from its own call"
                );
            }
        }
    }
}
