//! Decoder robustness under corrupt input: every truncated or bit-flipped
//! stream must decode to `Ok` or a typed [`CodecError`] — never a panic, and
//! never an out-of-bounds access. Serving-layer fault isolation
//! (`rescnn-core`'s schedulers) relies on this contract to turn a bad stream
//! into a per-request error record.

use std::panic::{catch_unwind, AssertUnwindSafe};

use rescnn_imaging::{render_scene, SceneSpec};
use rescnn_projpeg::{ProgressiveImage, ScanPlan};

/// Deterministic splitmix64, so the fuzz corpus is identical on every run and
/// every host.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }
}

fn encoded_fixture(seed: u64, quality: u8) -> ProgressiveImage {
    let image = render_scene(
        &SceneSpec::new(64, 48, 7).with_detail(0.7).with_object_scale(0.6).with_seed(seed),
    )
    .unwrap();
    ProgressiveImage::encode(&image, quality, ScanPlan::standard()).unwrap()
}

/// Exercises every decode surface of a (possibly corrupt) stream and asserts
/// none of them panics. Returns how many surfaces decoded cleanly.
fn decode_never_panics(stream: &ProgressiveImage, context: &str) -> usize {
    let mut clean = 0usize;
    // From-scratch decode of every prefix.
    for scans in 0..=stream.num_scans() {
        let outcome = catch_unwind(AssertUnwindSafe(|| stream.decode(scans)));
        match outcome {
            Ok(Ok(_)) => clean += 1,
            Ok(Err(_)) => {}
            Err(_) => panic!("{context}: decode({scans}) panicked"),
        }
    }
    // Incremental walk through every scan: how far it got, the frame it last returned,
    // and the error that stopped it.
    let walked = catch_unwind(AssertUnwindSafe(|| {
        let mut decoder = stream.progressive_decoder().ok()?;
        let mut last_frame = decoder.frame().clone();
        for applied in 0..stream.num_scans() {
            match decoder.advance() {
                Ok(frame) => last_frame = frame.clone(),
                Err(error) => return Some((applied, last_frame, Some(error))),
            }
        }
        Some((stream.num_scans(), last_frame, None))
    }));
    let Ok(walked) = walked else { panic!("{context}: incremental decode panicked") };
    let Some((applied, last_frame, stopped_by)) = walked else { return clean };
    // Multi-scan jumps 0 -> i -> j decode the same scans in the same order, so they stop
    // at the same scan with the same error — or land on the same frame.
    for i in 0..=stream.num_scans() {
        for j in i..=stream.num_scans() {
            let jumped = catch_unwind(AssertUnwindSafe(|| {
                let mut decoder = stream.progressive_decoder().unwrap();
                decoder.advance_to(i)?;
                decoder.advance_to(j).cloned()
            }));
            let Ok(jumped) = jumped else { panic!("{context}: advance_to({i}, {j}) panicked") };
            match jumped {
                Ok(frame) => {
                    assert!(j <= applied, "{context}: advance_to({i}, {j}) passed a bad scan");
                    if j == applied {
                        assert!(frame == last_frame, "{context}: advance_to({i}, {j}) frame");
                    }
                }
                Err(error) => {
                    assert!(j > applied, "{context}: advance_to({i}, {j}) failed early");
                    assert_eq!(Some(error), stopped_by, "{context}: advance_to({i}, {j})");
                }
            }
        }
    }
    clean + applied
}

#[test]
fn truncated_streams_error_or_decode_but_never_panic() {
    let mut rng = SplitMix64(0x7e57_0001);
    for quality in [40u8, 85, 95] {
        let encoded = encoded_fixture(11, quality);
        for case in 0..40 {
            let scan = rng.below(encoded.num_scans() as u64) as usize;
            let keep = rng.below(64) as usize;
            let corrupt = encoded.with_truncated_scan(scan, keep);
            decode_never_panics(&corrupt, &format!("q{quality} case{case} trunc s{scan} k{keep}"));
        }
    }
}

#[test]
fn bit_flipped_streams_error_or_decode_but_never_panic() {
    let mut rng = SplitMix64(0x7e57_0002);
    for quality in [40u8, 85, 95] {
        let encoded = encoded_fixture(23, quality);
        for case in 0..60 {
            let scan = rng.below(encoded.num_scans() as u64) as usize;
            let byte = rng.below(4096) as usize;
            let bit = rng.below(8) as u8;
            let corrupt = encoded.with_bit_flip(scan, byte, bit);
            decode_never_panics(
                &corrupt,
                &format!("q{quality} case{case} flip s{scan} b{byte}.{bit}"),
            );
        }
    }
}

#[test]
fn compound_corruption_never_panics() {
    // Truncation *and* bit flips stacked on the same stream, including a
    // stream truncated to zero bytes in its first scan.
    let mut rng = SplitMix64(0x7e57_0003);
    let encoded = encoded_fixture(31, 85);
    for case in 0..40 {
        let mut corrupt = encoded.with_truncated_scan(
            rng.below(encoded.num_scans() as u64) as usize,
            rng.below(32) as usize,
        );
        for _ in 0..3 {
            corrupt = corrupt.with_bit_flip(
                rng.below(encoded.num_scans() as u64) as usize,
                rng.below(2048) as usize,
                rng.below(8) as u8,
            );
        }
        decode_never_panics(&corrupt, &format!("compound case{case}"));
    }
    let empty_first = encoded.with_truncated_scan(0, 0);
    decode_never_panics(&empty_first, "first scan truncated to nothing");
}

#[test]
fn pristine_streams_still_decode_fully() {
    // The harness itself must count a healthy stream as fully clean — guards
    // against the fuzzers passing vacuously.
    let encoded = encoded_fixture(47, 85);
    let clean = decode_never_panics(&encoded, "pristine");
    assert_eq!(clean, 2 * encoded.num_scans() + 1, "all prefixes and the full walk decode");
}

#[test]
fn corruption_injectors_are_deterministic_and_bounded() {
    let encoded = encoded_fixture(53, 85);
    let a = encoded.with_bit_flip(1, 17, 3);
    let b = encoded.with_bit_flip(1, 17, 3);
    assert_eq!(a.scan_bytes(), b.scan_bytes(), "injection must be deterministic");
    // Out-of-range indices clamp (modulo) instead of panicking.
    let wrapped = encoded.with_bit_flip(usize::MAX, usize::MAX, 255);
    let truncated = encoded.with_truncated_scan(usize::MAX, usize::MAX);
    assert_eq!(truncated.scan_bytes(), encoded.scan_bytes(), "over-long keep is a no-op");
    drop(wrapped);
}
