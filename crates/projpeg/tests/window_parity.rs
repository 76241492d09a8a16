//! The window decoder's contract: a decoder opened at a pixel window holds exactly the
//! window, and after `k` scans its frame is bitwise `crop(decode(k), window)` — for every
//! prefix and every jump, over random images, qualities, scan plans and windows (single
//! pixels, windows whose edges cut through blocks, windows on the right or bottom edge,
//! centre crops and the whole image). The whole-image window is the plain decoder.
//!
//! Each case is drawn from one `u64` seed; a failing case prints it. Seeds that once
//! failed go into `REGRESSION_SEEDS`.

use proptest::prelude::*;
use rescnn_imaging::{crop, render_scene, CropRatio, CropWindow, Image, SceneSpec};
use rescnn_projpeg::{CodecError, ProgressiveImage, ScanBand, ScanPlan};

/// Seeds of cases that failed once; each is re-checked on every run.
///
/// * `0x52bb_1c10_486a_7154`: a 13 × 1 window at `(12, 2)` of a 31 × 3 image, whose
///   edges cut through blocks on both axes. It failed against three deliberately broken
///   copies of the refresh (mutation checks): a run clipped at the window's left edge
///   but copied from the block's first column, the last partial block column skipped,
///   and the first partial block row skipped.
const REGRESSION_SEEDS: [u64; 1] = [0x52bb_1c10_486a_7154];

/// SplitMix64: the case generator, so one seed names one whole case.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `lo..=hi`.
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo + 1) as u64) as usize
    }
}

/// A valid plan: the DC band, then one to six contiguous AC bands ending at 63.
fn random_plan(draw: &mut Draw) -> ScanPlan {
    let ac_bands = draw.range(1, 6);
    let mut cuts: Vec<usize> = (1..ac_bands).map(|_| draw.range(1, 62)).collect();
    cuts.sort_unstable();
    cuts.dedup();
    let mut bands = vec![ScanBand::new(0, 0)];
    let mut start = 1;
    for cut in cuts.into_iter().chain([63]) {
        bands.push(ScanBand::new(start, cut));
        start = cut + 1;
    }
    ScanPlan::new(bands).unwrap()
}

/// A window of one of five kinds: a single pixel, any rectangle, a rectangle on the
/// right or bottom edge, a centre crop, or the whole image.
fn random_window(draw: &mut Draw, width: usize, height: usize) -> CropWindow {
    let span = |draw: &mut Draw, extent: usize| {
        let start = draw.range(0, extent - 1);
        (start, draw.range(1, extent - start))
    };
    match draw.range(0, 4) {
        0 => CropWindow {
            x0: draw.range(0, width - 1),
            y0: draw.range(0, height - 1),
            width: 1,
            height: 1,
        },
        1 => {
            let ((x0, w), (y0, h)) = (span(draw, width), span(draw, height));
            CropWindow { x0, y0, width: w, height: h }
        }
        2 => {
            let ((x0, w), (y0, h)) = (span(draw, width), span(draw, height));
            if draw.range(0, 1) == 0 {
                CropWindow { x0, y0, width: width - x0, height: h }
            } else {
                CropWindow { x0, y0, width: w, height: height - y0 }
            }
        }
        3 => {
            let area = CropRatio::PAPER_SET[draw.range(0, 3)];
            CropRatio::new(area).unwrap().window(width, height)
        }
        _ => CropWindow::whole(width, height),
    }
}

fn bits(image: &Image) -> Vec<u32> {
    image.as_planar().iter().map(|v| v.to_bits()).collect()
}

fn check_frame(frame: &Image, expected: &Image, context: &str) -> Result<(), String> {
    if frame.dimensions() != expected.dimensions() || bits(frame) != bits(expected) {
        return Err(format!("{context}: frame differs from the cropped from-scratch decode"));
    }
    Ok(())
}

/// One random case: every prefix (scan by scan) and every jump `0 -> i -> j` of a
/// window decoder against the crops of from-scratch decodes.
fn check(seed: u64) -> Result<(), String> {
    let mut draw = Draw(seed);
    let (width, height) = (draw.range(1, 48), draw.range(1, 48));
    let detail = draw.range(0, 10) as f64 / 10.0;
    let image = render_scene(
        &SceneSpec::new(width, height, 11)
            .with_detail(detail)
            .with_object_scale(0.6)
            .with_seed(draw.next()),
    )
    .map_err(|e| e.to_string())?;
    let quality = draw.range(1, 100) as u8;
    let encoded = ProgressiveImage::encode(&image, quality, random_plan(&mut draw))
        .map_err(|e| e.to_string())?;
    let window = random_window(&mut draw, width, height);
    let context = format!("seed {seed:#x}: {width}x{height} q{quality}, window {window:?}");

    let scans = encoded.num_scans();
    let decoded: Vec<Image> = (0..=scans).map(|k| encoded.decode(k).unwrap()).collect();
    let expected: Vec<Image> = decoded
        .iter()
        .map(|frame| crop(frame, window.x0, window.y0, window.width, window.height).unwrap())
        .collect();

    let mut decoder = encoded.window_decoder(window).map_err(|e| e.to_string())?;
    check_frame(decoder.frame(), &expected[0], &format!("{context}, 0 scans"))?;
    for (k, expected) in expected.iter().enumerate().skip(1) {
        let frame = decoder.advance().map_err(|e| e.to_string())?;
        check_frame(frame, expected, &format!("{context}, {k} scans"))?;
    }
    for i in 0..=scans {
        for j in i..=scans {
            let mut decoder = encoded.window_decoder(window).unwrap();
            let jump = format!("{context}, jump 0 -> {i} -> {j}");
            check_frame(decoder.advance_to(i).unwrap(), &expected[i], &jump)?;
            check_frame(decoder.advance_to(j).unwrap(), &expected[j], &jump)?;
        }
    }

    // The whole-image window is the plain decoder, and both are `decode(k)`.
    let mut whole = encoded.window_decoder(CropWindow::whole(width, height)).unwrap();
    let mut plain = encoded.progressive_decoder().unwrap();
    for (k, decoded) in decoded.iter().enumerate().skip(1) {
        let frame = whole.advance().unwrap();
        check_frame(frame, decoded, &format!("{context}, whole window, {k} scans"))?;
        check_frame(plain.advance().unwrap(), frame, &format!("{context}, plain, {k} scans"))?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn window_decoders_match_cropped_decodes(seed in 0u64..u64::MAX) {
        let outcome = check(seed);
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    }
}

#[test]
fn regression_seeds_match_cropped_decodes() {
    for seed in REGRESSION_SEEDS {
        check(seed).unwrap();
    }
}

#[test]
fn windows_outside_the_image_are_rejected() {
    let image = render_scene(&SceneSpec::new(20, 12, 11)).unwrap();
    let encoded = ProgressiveImage::encode(&image, 80, ScanPlan::standard()).unwrap();
    for window in [
        CropWindow { x0: 0, y0: 0, width: 0, height: 4 },
        CropWindow { x0: 3, y0: 2, width: 4, height: 0 },
        CropWindow { x0: 17, y0: 0, width: 4, height: 4 },
        CropWindow { x0: 0, y0: 9, width: 4, height: 4 },
        CropWindow::whole(21, 12),
    ] {
        assert!(
            matches!(encoded.window_decoder(window), Err(CodecError::Imaging(_))),
            "{window:?}"
        );
    }
    let corner = CropWindow { x0: 19, y0: 11, width: 1, height: 1 };
    let mut decoder = encoded.window_decoder(corner).unwrap();
    assert_eq!(decoder.advance_to(5).unwrap().dimensions(), (1, 1));
    assert!(format!("{decoder:?}").contains("window"));
}
