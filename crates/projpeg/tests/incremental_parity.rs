//! The incremental decoder's contract: after `k` scans, [`ProgressiveDecoder::frame`] is
//! bitwise identical to from-scratch [`ProgressiveImage::decode`]`(k)` — for every prefix
//! of every scan plan, every quality, and awkward (non-multiple-of-8, tiny) dimensions,
//! whether the decoder got there one scan at a time or in multi-scan jumps.

use rescnn_imaging::{render_scene, Image, SceneSpec};
use rescnn_projpeg::{CodecError, ProgressiveImage, ScanBand, ScanPlan};

/// Asserts bit-level equality (plain `==` on `Image` compares `f32`s, which would let
/// `-0.0 == +0.0` slip through).
fn assert_frames_bitwise_equal(incremental: &Image, scratch: &Image, context: &str) {
    assert_eq!(incremental.dimensions(), scratch.dimensions(), "{context}: dimensions");
    for (i, (a, b)) in incremental.as_planar().iter().zip(scratch.as_planar()).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{context}: sample {i} differs ({a} vs {b})");
    }
}

fn check_all_prefixes(image: &Image, quality: u8, plan: ScanPlan, context: &str) {
    let encoded = ProgressiveImage::encode(image, quality, plan).unwrap();
    let mut decoder = encoded.progressive_decoder().unwrap();
    assert_frames_bitwise_equal(
        decoder.frame(),
        &encoded.decode(0).unwrap(),
        &format!("{context}, 0 scans"),
    );
    for scans in 1..=encoded.num_scans() {
        decoder.advance().unwrap();
        assert_eq!(decoder.scans_applied(), scans);
        assert_frames_bitwise_equal(
            decoder.frame(),
            &encoded.decode(scans).unwrap(),
            &format!("{context}, {scans} scans"),
        );
    }
    assert_eq!(decoder.remaining_scans(), 0);
    check_all_jumps(&encoded, context);
}

/// Every way of reaching `j` scans through one stop at `i` (`0 <= i <= j`, so the
/// no-op, the single jump from the zero-scan frame and the scan-by-scan step are all
/// among them), then one plain `advance()` on top: a multi-scan `advance_to` rebuilds each
/// touched block once, and must land on the frames a from-scratch decode gives.
fn check_all_jumps(encoded: &ProgressiveImage, context: &str) {
    let scans = encoded.num_scans();
    let scratch: Vec<Image> = (0..=scans).map(|k| encoded.decode(k).unwrap()).collect();
    for i in 0..=scans {
        for j in i..=scans {
            let context = format!("{context}, jump 0 -> {i} -> {j}");
            let mut decoder = encoded.progressive_decoder().unwrap();
            assert_frames_bitwise_equal(decoder.advance_to(i).unwrap(), &scratch[i], &context);
            assert_frames_bitwise_equal(decoder.advance_to(j).unwrap(), &scratch[j], &context);
            assert_eq!(decoder.scans_applied(), j, "{context}");
            if j < scans {
                let stepped = decoder.advance().unwrap();
                assert_frames_bitwise_equal(stepped, &scratch[j + 1], &format!("{context} + 1"));
            }
        }
    }
}

fn scene(width: usize, height: usize, detail: f64, seed: u64) -> Image {
    render_scene(
        &SceneSpec::new(width, height, 11)
            .with_detail(detail)
            .with_object_scale(0.6)
            .with_seed(seed),
    )
    .unwrap()
}

#[test]
fn standard_plan_matches_for_every_prefix() {
    for (quality, detail) in [(40u8, 0.2), (85, 0.6), (95, 0.9)] {
        let img = scene(72, 56, detail, 3);
        check_all_prefixes(&img, quality, ScanPlan::standard(), &format!("q{quality}"));
    }
}

#[test]
fn custom_plans_match_for_every_prefix() {
    let plans = [
        ScanPlan::new(vec![ScanBand::new(0, 0), ScanBand::new(1, 63)]).unwrap(),
        ScanPlan::new(vec![
            ScanBand::new(0, 0),
            ScanBand::new(1, 2),
            ScanBand::new(3, 9),
            ScanBand::new(10, 35),
            ScanBand::new(36, 62),
            ScanBand::new(63, 63),
        ])
        .unwrap(),
    ];
    let img = scene(64, 64, 0.7, 9);
    for (i, plan) in plans.into_iter().enumerate() {
        check_all_prefixes(&img, 80, plan, &format!("plan {i}"));
    }
}

#[test]
fn awkward_dimensions_match_for_every_prefix() {
    for (w, h) in [(37usize, 29usize), (8, 8), (9, 17), (120, 41)] {
        let img = scene(w, h, 0.5, 7);
        check_all_prefixes(&img, 88, ScanPlan::standard(), &format!("{w}x{h}"));
    }
}

/// Storage-sized streams, whose edge blocks are partial on both axes: a Cars-like image at
/// the dataset's mean natural size (699×482), encoded at the pipeline's quality, and an
/// odd-sized one. Their early prefixes are mostly blocks with no AC level or with all
/// levels in the top-left 4×4 corner, so both reduced reconstructions run at the edges.
#[test]
fn storage_sized_streams_match_for_every_prefix() {
    let cars = render_scene(
        &SceneSpec::new(699, 482, 11)
            .with_detail(0.4)
            .with_object_scale(0.55)
            .with_background(0.3)
            .with_seed(21),
    )
    .unwrap();
    check_all_prefixes(&cars, 90, ScanPlan::standard(), "cars 699x482");
    let odd = scene(661, 497, 0.8, 13);
    check_all_prefixes(&odd, 75, ScanPlan::standard(), "661x497");
}

#[test]
fn advance_to_matches_and_rejects_rewind() {
    let img = scene(48, 40, 0.5, 5);
    let encoded = ProgressiveImage::encode(&img, 85, ScanPlan::standard()).unwrap();
    let mut decoder = encoded.progressive_decoder().unwrap();
    decoder.advance_to(3).unwrap();
    assert_frames_bitwise_equal(decoder.frame(), &encoded.decode(3).unwrap(), "advance_to(3)");
    // No-op re-request is fine; rewinding and overshooting are errors.
    decoder.advance_to(3).unwrap();
    assert!(matches!(
        decoder.advance_to(1),
        Err(CodecError::CannotRewind { applied: 3, requested: 1 })
    ));
    assert!(matches!(
        decoder.advance_to(9),
        Err(CodecError::ScanOutOfRange { requested: 9, available: 5 })
    ));
    let frame = decoder.advance_to(5).unwrap().clone();
    assert_frames_bitwise_equal(&frame, &encoded.decode(5).unwrap(), "advance_to(5)");
    assert!(matches!(decoder.advance(), Err(CodecError::ScanOutOfRange { .. })));
    assert_frames_bitwise_equal(&decoder.into_frame(), &frame, "into_frame");
}

#[test]
fn decoder_accessors_and_debug() {
    let img = scene(40, 32, 0.4, 2);
    let encoded = ProgressiveImage::encode(&img, 75, ScanPlan::standard()).unwrap();
    let mut decoder = encoded.progressive_decoder().unwrap();
    assert_eq!(decoder.scans_applied(), 0);
    assert_eq!(decoder.remaining_scans(), 5);
    assert!(std::ptr::eq(decoder.image(), &encoded));
    decoder.advance().unwrap();
    let debug = format!("{decoder:?}");
    assert!(debug.contains("scans_applied: 1"), "{debug}");
}
