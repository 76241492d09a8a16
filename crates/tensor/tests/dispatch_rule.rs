//! The default-dispatch rule for dense 3×3 stride-1 layers, spelled out.
//!
//! `select_algo` sends a Winograd-eligible layer to a Winograd arm exactly when
//! the layer's output offers at least `WINOGRAD_MIN_TILES` tiles of that arm —
//! F(4×4) up to `WINOGRAD_F4_MAX_IN_CHANNELS` input channels, F(2×2) above — and
//! to packed im2col otherwise. The rule is a pure function of the shape (no host
//! constant enters it), so this table holds on every ISA tier and every thread
//! count; CI re-runs it under `RESCNN_THREADS=1,2,4` with the parity suites.
//!
//! Only thread-local dispatch state (an `EngineContext` pin) is touched here,
//! so the tests need no cross-test lock. A network's measured table of arms
//! sits between the pin and this rule in `rescnn-models`' `Network::conv_arm`,
//! whose precedence is pinned by
//! `nn::tests::conv_arm_takes_the_pin_then_the_table_then_the_rule`.

use rescnn_tensor::{
    planned_conv_algo, select_algo, winograd_f4_unit_error, Conv2dParams, ConvAlgo, EngineContext,
    Shape, WINOGRAD_F4_MAX_IN_CHANNELS, WINOGRAD_F4_TOLERANCE, WINOGRAD_MIN_TILES,
};

use ConvAlgo::{Im2colPacked as Packed, Winograd as F2, WinogradF4 as F4};

/// Stage widths of the 3×3 stride-1 layers of ResNet-18 (both convolutions of
/// every basic block but the strided first one) and ResNet-50 (the middle
/// convolution of every bottleneck but the strided first one): `C → C` at the
/// stage's extent.
const STAGE_CHANNELS: [usize; 4] = [64, 128, 256, 512];

/// Per ladder rung: the c2..c5 stage extents the 7×7/2 stem and 3×3/2 max pool
/// leave, and the arm the rule picks for `STAGE_CHANNELS[i]` at that extent.
const LADDER: [(usize, [usize; 4], [ConvAlgo; 4]); 5] = [
    // 112²: 49 F4 tiles at c2; c3 has 16 F4 tiles, c4 16 and c5 4 F2 tiles.
    (112, [28, 14, 7, 4], [F4, Packed, Packed, Packed]),
    // 168²: c3 reaches 36 F4 tiles and c4 36 F2 tiles; c5 has 9.
    (168, [42, 21, 11, 6], [F4, F4, F2, Packed]),
    // 224²: c4 49 F2 tiles; c5 (7² → 16 tiles) stays on im2col.
    (224, [56, 28, 14, 7], [F4, F4, F2, Packed]),
    // 336² and 448²: c5 reaches 36 and 49 F2 tiles.
    (336, [84, 42, 21, 11], [F4, F4, F2, F2]),
    (448, [112, 56, 28, 14], [F4, F4, F2, F2]),
];

fn stage_layer(channels: usize, extent: usize) -> (Conv2dParams, Shape) {
    (Conv2dParams::new(channels, channels, 3, 1, 1), Shape::chw(channels, extent, extent))
}

#[test]
fn rule_table_over_resnet_ladder_shapes() {
    for (resolution, extents, expected) in LADDER {
        // The extents really are what the stem and pool leave at this rung.
        let stem = Conv2dParams::new(3, 64, 7, 2, 3).output_extent(resolution).unwrap();
        let mut extent = Conv2dParams::new(64, 64, 3, 2, 1).output_extent(stem).unwrap();
        for ((channels, listed), arm) in STAGE_CHANNELS.into_iter().zip(extents).zip(expected) {
            assert_eq!(extent, listed, "stage extent of {channels} channels at {resolution}²");
            let (params, input) = stage_layer(channels, extent);
            assert_eq!(
                select_algo(&params, input),
                arm,
                "{channels}→{channels} 3×3 s1 @{extent}² (rung {resolution}²)"
            );
            // The next stage opens with a stride-2 3×3 in both families:
            // bottleneck `C→C` at this extent, basic block `C→2C`. Untouched.
            for out in [channels, 2 * channels] {
                let strided = Conv2dParams::new(channels, out, 3, 2, 1);
                assert_eq!(select_algo(&strided, input), Packed, "{strided:?} @{extent}²");
            }
            extent = Conv2dParams::new(channels, channels, 3, 2, 1).output_extent(extent).unwrap();
        }
    }
}

#[test]
fn ineligible_shapes_keep_their_arms() {
    let at = |c: usize| Shape::chw(c, 56, 56);
    // The 7×7 stem and a 5×5 stride-1 layer: not 3×3.
    assert_eq!(select_algo(&Conv2dParams::new(3, 64, 7, 2, 3), Shape::chw(3, 224, 224)), Packed);
    assert_eq!(select_algo(&Conv2dParams::new(64, 64, 5, 1, 2), at(64)), Packed);
    // Grouped 3×3 stride-1 (ResNeXt-style): Winograd needs dense groups.
    assert_eq!(select_algo(&Conv2dParams::new(64, 64, 3, 1, 1).with_groups(32), at(64)), Packed);
    assert_eq!(select_algo(&Conv2dParams::new(64, 128, 3, 1, 1).with_groups(2), at(64)), Packed);
    // Depthwise 3×3 stride-1 (MobileNetV2), including the one-channel case
    // that is both "dense" and depthwise.
    assert_eq!(select_algo(&Conv2dParams::depthwise(96, 3, 1, 1), at(96)), ConvAlgo::Depthwise);
    assert_eq!(select_algo(&Conv2dParams::depthwise(1, 3, 1, 1), at(1)), ConvAlgo::Depthwise);
    // Pointwise layers.
    assert_eq!(select_algo(&Conv2dParams::new(64, 256, 1, 1, 0), at(64)), ConvAlgo::Gemm1x1);
    assert_eq!(select_algo(&Conv2dParams::new(64, 256, 1, 2, 0), at(64)), Packed);
}

#[test]
fn rule_counts_output_tiles_of_the_chosen_arm() {
    let pick = |channels: usize, h: usize, w: usize, pad: usize| {
        let params = Conv2dParams::new(channels, channels, 3, 1, pad);
        select_algo(&params, Shape::chw(channels, h, w))
    };
    assert_eq!(WINOGRAD_MIN_TILES, 32);
    assert_eq!(WINOGRAD_F4_MAX_IN_CHANNELS, 128);
    // Narrow layers count ⌈oh/4⌉·⌈ow/4⌉.
    assert_eq!(pick(64, 21, 21, 1), F4); // 6·6 = 36
    assert_eq!(pick(64, 20, 20, 1), Packed); // 5·5 = 25
    assert_eq!(pick(64, 16, 32, 1), F4); // 4·8 = 32
    assert_eq!(pick(64, 16, 29, 1), F4); // 4·⌈29/4⌉ = 32
    assert_eq!(pick(64, 16, 28, 1), Packed); // 4·7 = 28
                                             // The *output* extent counts: pad 0 shrinks 22² to 20².
    assert_eq!(pick(64, 23, 23, 0), F4);
    assert_eq!(pick(64, 22, 22, 0), Packed);
    // Wide layers count ⌈oh/2⌉·⌈ow/2⌉ and never take F(4×4), however large.
    assert_eq!(pick(256, 11, 11, 1), F2); // 6·6 = 36
    assert_eq!(pick(256, 10, 10, 1), Packed); // 5·5 = 25
    assert_eq!(pick(256, 8, 16, 1), F2); // 4·8 = 32
    assert_eq!(pick(512, 112, 112, 1), F2);
    // The width boundary sits on the input channels.
    assert_eq!(pick(128, 28, 28, 1), F4);
    assert_eq!(pick(129, 28, 28, 1), F2);
    assert_eq!(
        select_algo(&Conv2dParams::new(128, 512, 3, 1, 1), Shape::chw(128, 28, 28)),
        F4,
        "the output width does not enter the rule"
    );
    // A window that does not fit is not the rule's to reject.
    assert_eq!(pick(64, 1, 1, 0), Packed);
}

#[test]
fn calibration_and_overrides_outrank_the_rule() {
    let (params, input) = stage_layer(64, 56);
    assert_eq!(select_algo(&params, input), F4);
    // The documented A/B pin: the pre-rule behaviour for a whole scope.
    let pinned = EngineContext::new().with_algo(Packed);
    assert_eq!(pinned.scope(|| planned_conv_algo(&params, input)), Packed);
    assert_eq!(planned_conv_algo(&params, input), F4);
}

/// Unit error the default may spend on F(4×4): the rule admits it only up to
/// 128 input channels, where the probe tops out at 2.7 × 10⁻⁴ (128→128 @56²)
/// — a fifth of `WINOGRAD_F4_TOLERANCE` with margin. A rule change that lets
/// deeper reductions reach F(4×4) by default trips this before it trips the
/// tolerance.
const DEFAULT_F4_UNIT_ERROR_BOUND: f32 = 4e-4;

#[test]
fn rule_chosen_f4_shapes_stay_well_inside_the_tolerance() {
    const { assert!(DEFAULT_F4_UNIT_ERROR_BOUND * 4.0 < WINOGRAD_F4_TOLERANCE) };
    let mut probed = Vec::new();
    for (_, extents, expected) in LADDER {
        for ((channels, extent), arm) in STAGE_CHANNELS.into_iter().zip(extents).zip(expected) {
            if arm != F4 || probed.contains(&(channels, extent)) {
                continue;
            }
            probed.push((channels, extent));
            let (params, input) = stage_layer(channels, extent);
            let err = winograd_f4_unit_error(&params, input).unwrap();
            println!("default F4 {channels}→{channels}@{extent}²: unit error {err:.3e}");
            assert!(
                err > 0.0 && err <= DEFAULT_F4_UNIT_ERROR_BOUND,
                "F(4×4) is the default for {channels}→{channels}@{extent}² but its unit error \
                 {err:e} left the pinned {DEFAULT_F4_UNIT_ERROR_BOUND:e}"
            );
        }
    }
    assert_eq!(probed.len(), 9, "every F4 cell of the table was probed once");
}
