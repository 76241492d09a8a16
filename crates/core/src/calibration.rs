//! Storage calibration (§V of the paper).
//!
//! Given a calibration set of progressively encoded images, [`CalibrationCurves`] records,
//! for every sample and every candidate resolution, how reconstruction quality (SSIM
//! against the ground-truth resize) and cumulative bytes read grow with the number of
//! scans. [`StorageCalibrator`] then binary-searches, per resolution, the minimal SSIM
//! threshold whose induced read policy loses at most 0.05 % accuracy — exactly the
//! procedure the paper describes (binary search over `[0.94, 1.0]`, terminating at a step
//! of 1e-4). The result is a [`StoragePolicy`] mapping resolutions to thresholds.

use std::borrow::Cow;
use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use rescnn_data::{Dataset, DatasetKind, Sample};
use rescnn_imaging::{
    crop_and_resize_cow, resize_cow, CropRatio, Filter, Image, SsimConfig, SsimReference,
};
use rescnn_models::ModelKind;
use rescnn_oracle::{AccuracyOracle, EvalContext};
use rescnn_projpeg::{ProgressiveDecoder, ProgressiveImage, ScanPlan};
use rescnn_tensor::num_threads;
use rescnn_tensor::parallel::parallel_map_indexed;

use crate::error::{CoreError, Result};
use crate::scan_index::IndexedRung;

/// Quality/read-size of one (sample, resolution, scan-count) point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScanPoint {
    /// Number of scans read.
    pub scans: usize,
    /// Fraction of the full file read.
    pub read_fraction: f64,
    /// SSIM of the decoded, cropped, resized image against the ground-truth resize.
    pub ssim: f64,
}

/// The per-resolution scan curves of one sample.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SampleCurve {
    /// Points for 1..=num_scans scans, in order.
    pub points: Vec<ScanPoint>,
}

impl SampleCurve {
    /// The first (cheapest) point whose SSIM reaches `threshold`, or the final point if
    /// none does (read everything). `None` only for an empty curve — curves built by
    /// [`CalibrationCurves::compute`]/[`CalibrationCurves::sample_curves`] always carry
    /// at least one point, but `points` is public, so a hand-built empty curve surfaces
    /// here as an absent value rather than a panic.
    pub fn point_for_threshold(&self, threshold: f64) -> Option<ScanPoint> {
        for p in &self.points {
            if p.ssim >= threshold {
                return Some(*p);
            }
        }
        self.points.last().copied()
    }
}

/// Precomputed quality/read-size curves for a calibration set.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CalibrationCurves {
    /// Dataset family of the calibration samples.
    pub dataset: DatasetKind,
    /// Backbone model being calibrated for.
    pub model: ModelKind,
    /// Crop ratio applied before resizing.
    pub crop: CropRatio,
    /// Candidate resolutions, in order.
    pub resolutions: Vec<usize>,
    /// The calibration samples (metadata only; pixels are regenerated on demand).
    samples: Vec<Sample>,
    /// `curves[res_idx][sample_idx]`.
    curves: Vec<Vec<SampleCurve>>,
}

impl CalibrationCurves {
    /// Renders, encodes, and measures every sample of `dataset` at every resolution.
    ///
    /// `encode_quality` is the progressive encoder's quality factor (the paper transcodes
    /// existing JPEGs; 90 is a representative archival quality).
    ///
    /// Samples are measured in parallel over the persistent engine worker pool
    /// ([`parallel_map_indexed`], bounded by the caller's
    /// [`EngineContext`](rescnn_tensor::EngineContext) /
    /// [`num_threads`]). Each sample's measurement is independent and deterministic and
    /// the results fold in sample order, so the output is identical for every thread
    /// budget (the first failing sample in dataset order is the one reported).
    ///
    /// # Errors
    /// Returns an error if the dataset is empty or any render/encode/decode step fails.
    pub fn compute(
        dataset: &Dataset,
        model: ModelKind,
        crop: CropRatio,
        resolutions: &[usize],
        encode_quality: u8,
    ) -> Result<Self> {
        if dataset.is_empty() {
            return Err(CoreError::EmptyDataset);
        }
        if resolutions.is_empty() {
            return Err(CoreError::InvalidConfig { reason: "no resolutions".into() });
        }
        let per_sample = parallel_map_indexed(dataset.len(), num_threads(), |index| {
            let sample = &dataset[index];
            let original = sample.render()?;
            let encoded =
                ProgressiveImage::encode(&original, encode_quality, ScanPlan::standard())?;
            Self::sample_curves(&original, &encoded, crop, resolutions)
        });
        let mut curves = vec![Vec::with_capacity(dataset.len()); resolutions.len()];
        for outcome in per_sample {
            for (res_idx, curve) in outcome?.into_iter().enumerate() {
                curves[res_idx].push(curve);
            }
        }
        Ok(CalibrationCurves {
            dataset: dataset.kind(),
            model,
            crop,
            resolutions: resolutions.to_vec(),
            samples: dataset.samples().to_vec(),
            curves,
        })
    }

    /// Computes the per-resolution scan curves for one already-encoded image.
    ///
    /// Scan prefixes are decoded incrementally through one [`ProgressiveDecoder`] — O(S)
    /// total decode work for S scans instead of the O(S²) of from-scratch decoding every
    /// prefix — opened at the crop's window, so each frame is bitwise
    /// `center_crop(encoded.decode(scans), crop)` (the decoder's pinned invariant) and
    /// resizing it is bitwise `crop_and_resize_cow` of the whole frame. Each
    /// resolution's ground-truth reference is lifted into a persistent
    /// [`SsimReference`], so the reference-side SSIM state (luma plane and `Σx`/`Σx²`
    /// integral rows) is built once per reference frame and amortized across all scan
    /// prefixes instead of being rebuilt per prefix; `SsimReference::score` is bitwise
    /// identical to plain `ssim`, so the curves still match the from-scratch computation
    /// exactly.
    ///
    /// # Errors
    /// Returns an error if decoding or resizing fails.
    pub fn sample_curves(
        original: &Image,
        encoded: &ProgressiveImage,
        crop: CropRatio,
        resolutions: &[usize],
    ) -> Result<Vec<SampleCurve>> {
        // Ground-truth reference at each resolution comes from the original pixels.
        let references: Vec<SsimReference> = resolutions
            .iter()
            .map(|&res| {
                let reference = crop_and_resize_cow(original, crop, res)?;
                Ok(SsimReference::new(&reference, SsimConfig::default())?)
            })
            .collect::<Result<_>>()?;
        let mut out: Vec<SampleCurve> =
            resolutions.iter().map(|_| SampleCurve { points: Vec::new() }).collect();
        let mut decoder = crop_decoder(encoded, crop)?;
        for scans in 1..=encoded.num_scans() {
            let window = decoder.advance()?;
            let read_fraction = encoded.read_fraction(scans);
            for (res_idx, &res) in resolutions.iter().enumerate() {
                let presented = present(window, res)?;
                let quality = references[res_idx].score(&presented)?;
                out[res_idx].points.push(ScanPoint { scans, read_fraction, ssim: quality });
            }
        }
        Ok(out)
    }

    /// Number of calibration samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the calibration set is empty (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The calibration samples.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// The curve of one sample at one resolution index.
    pub fn curve(&self, res_idx: usize, sample_idx: usize) -> &SampleCurve {
        &self.curves[res_idx][sample_idx]
    }

    /// Accuracy and mean read fraction when every sample is read up to the first scan that
    /// reaches `threshold` SSIM at resolution `resolutions[res_idx]`.
    pub fn accuracy_at_threshold(
        &self,
        oracle: &AccuracyOracle,
        res_idx: usize,
        threshold: f64,
    ) -> (f64, f64) {
        let res = self.resolutions[res_idx];
        let mut correct = 0usize;
        let mut read = 0.0f64;
        let mut scored = 0usize;
        for (sample, curve) in self.samples.iter().zip(&self.curves[res_idx]) {
            // Empty curves (impossible via `compute`, representable by hand) are
            // skipped rather than panicking on a missing last point.
            let Some(point) = curve.point_for_threshold(threshold) else { continue };
            scored += 1;
            read += point.read_fraction;
            let ctx = EvalContext {
                model: self.model,
                dataset: self.dataset,
                resolution: res,
                crop: self.crop,
                quality: point.ssim,
            };
            correct += usize::from(oracle.is_correct(sample, &ctx));
        }
        let n = scored.max(1) as f64;
        (correct as f64 / n, read / n)
    }

    /// Accuracy when every sample is read in full (all scans, quality 1.0).
    pub fn full_read_accuracy(&self, oracle: &AccuracyOracle, res_idx: usize) -> f64 {
        let res = self.resolutions[res_idx];
        let ctx = EvalContext::full_quality(self.model, self.dataset, res, self.crop);
        oracle.accuracy(self.samples.iter(), &ctx)
    }

    /// Sweeps SSIM thresholds and reports `(mean read fraction, accuracy change)` pairs —
    /// the data behind Figure 6. `steps` thresholds are sampled uniformly in
    /// `[min_threshold, 1.0]`.
    pub fn read_size_sweep(
        &self,
        oracle: &AccuracyOracle,
        res_idx: usize,
        min_threshold: f64,
        steps: usize,
    ) -> Vec<(f64, f64)> {
        let full = self.full_read_accuracy(oracle, res_idx);
        let steps = steps.max(2);
        (0..steps)
            .map(|i| {
                let threshold =
                    min_threshold + (1.0 - min_threshold) * i as f64 / (steps - 1) as f64;
                let (acc, read) = self.accuracy_at_threshold(oracle, res_idx, threshold);
                (read, (acc - full) * 100.0)
            })
            .collect()
    }
}

/// A decoder of the centre window `crop` keeps of `encoded`: it reconstructs only the
/// blocks that window touches, and after `k` scans its frame is bitwise
/// `center_crop(encoded.decode(k), crop)`.
pub(crate) fn crop_decoder(
    encoded: &ProgressiveImage,
    crop: CropRatio,
) -> Result<ProgressiveDecoder<'_>> {
    Ok(encoded.window_decoder(crop.window(encoded.width(), encoded.height()))?)
}

/// A crop window as the backbone is given it at `res × res`: bitwise
/// `crop_and_resize_cow` of the frame the window was cut from, which resizes the same
/// window in place (borrowed when it already has the extent).
pub(crate) fn present(window: &Image, res: usize) -> Result<Cow<'_, Image>> {
    Ok(resize_cow(window, res, res, Filter::Bilinear)?)
}

/// One forward pass over the scan prefixes of a stored image, presenting each prefix
/// (centre-cropped and resized) at whatever resolutions the storage decisions ask for and
/// scoring it against the original.
///
/// This is the early-exit complement to the full [`CalibrationCurves::sample_curves`]: a
/// storage decision only needs the point the policy would select, so a walk decodes
/// exactly as deep as the deepest prefix any of its decisions looks at — through one
/// [`ProgressiveDecoder`], each scan entropy-decoded once. It runs wherever the original
/// is in hand: in [`ingest`](crate::DynamicResolutionPipeline::ingest), which walks every
/// rung into a stream's scan index; in `plan` / `evaluate`, which have just rendered the
/// sample; and in the first read of a stream not yet indexed. Indexed reads never walk.
///
/// The decoder is opened at the crop's window, so it reconstructs only the blocks the
/// crop keeps and every frame it yields is already the window. A *retaining* walk keeps
/// the window of every prefix it decodes, so a second decision (the chosen resolution's,
/// after the preview's) scores the early prefixes from those windows and only then
/// advances the same decoder. A non-retaining walk holds no copies and can only move
/// forward, which is all a single decision needs. Either way a presented prefix is
/// bitwise `crop_and_resize_cow(encoded.decode(scans), crop, res)`: the decoder's frames
/// are bitwise `center_crop(decode(scans), crop)`, and resizing that copy is what
/// `crop_and_resize_cow` computes in place.
pub(crate) struct PrefixWalk<'a> {
    /// Decodes the crop's window only.
    decoder: ProgressiveDecoder<'a>,
    crop: CropRatio,
    /// `windows[k - 1]` is the crop window of the `k`-scan prefix, for every prefix the
    /// decoder has passed; `None` when the walk does not retain.
    windows: Option<Vec<Image>>,
}

impl<'a> PrefixWalk<'a> {
    /// Starts a walk at zero scans applied.
    ///
    /// # Errors
    /// Returns an error if the stored quality factor is invalid.
    pub(crate) fn new(
        encoded: &'a ProgressiveImage,
        crop: CropRatio,
        retain: bool,
    ) -> Result<Self> {
        let decoder = crop_decoder(encoded, crop)?;
        Ok(PrefixWalk { decoder, crop, windows: retain.then(Vec::new) })
    }

    /// The `scans`-scan prefix as the backbone would be given it at `res`, decoding
    /// forward as far as needed.
    fn present(&mut self, scans: usize, res: usize) -> Result<Cow<'_, Image>> {
        let Some(windows) = &mut self.windows else {
            let window = self.decoder.advance_to(scans)?;
            return present(window, res);
        };
        while windows.len() < scans {
            windows.push(self.decoder.advance()?.clone());
        }
        present(&windows[scans - 1], res)
    }

    /// The cheapest [`ScanPoint`] whose SSIM at `res` reaches `threshold` — or the final
    /// point when no threshold is given or it is never met — together with the presented
    /// image at that point.
    ///
    /// With a threshold the prefixes are scored one scan at a time from the first and the
    /// walk stops at the first sufficient one (identical to `point_for_threshold` on the
    /// full curve, which also returns the *first* sufficient point); with no threshold
    /// (read-all) only the final prefix is scored.
    ///
    /// The reference arrives as a persistent [`SsimReference`] so its integral state is
    /// shared across every prefix scored against it; `SsimReference::score` is bitwise
    /// identical to plain `ssim`.
    pub(crate) fn cheapest_sufficient_point(
        &mut self,
        reference: &SsimReference,
        res: usize,
        threshold: Option<f64>,
    ) -> Result<(ScanPoint, Image)> {
        let encoded = self.decoder.image();
        let num_scans = encoded.num_scans();
        let mut scans = if threshold.is_some() { 1 } else { num_scans };
        loop {
            let presented = self.present(scans, res)?;
            let ssim = reference.score(&presented)?;
            if scans >= num_scans || threshold.is_some_and(|threshold| ssim >= threshold) {
                let point = ScanPoint { scans, read_fraction: encoded.read_fraction(scans), ssim };
                return Ok((point, presented.into_owned()));
            }
            scans += 1;
        }
    }

    /// SSIM at `res` of the `scans`-scan prefix against `reference`: the quality actually
    /// presented to the backbone when the preview stage read deeper into the file than the
    /// chosen resolution's own sufficient point.
    fn quality_at_scans(
        &mut self,
        reference: &SsimReference,
        res: usize,
        scans: usize,
    ) -> Result<f64> {
        let presented = self.present(scans, res)?;
        Ok(reference.score(&presented)?)
    }

    /// The one producer of scan-index entries: the storage decision for `res`, scored
    /// against `original` — the cheapest point sufficient for `threshold` and, where the
    /// preview stage's read of `preview_scans` scans is deeper than it, the SSIM of that
    /// deeper prefix (which is then what the backbone sees).
    pub(crate) fn measure_rung(
        &mut self,
        original: &Image,
        res: usize,
        threshold: Option<f64>,
        preview_scans: usize,
    ) -> Result<IndexedRung> {
        let reference = crop_and_resize_cow(original, self.crop, res)?;
        let reference = SsimReference::new(&reference, SsimConfig::default())?;
        let (point, _) = self.cheapest_sufficient_point(&reference, res, threshold)?;
        let preview_depth_ssim = if preview_scans > point.scans {
            Some(self.quality_at_scans(&reference, res, preview_scans)?)
        } else {
            None
        };
        Ok(IndexedRung { point, preview_depth_ssim })
    }
}

/// A calibrated storage policy: the minimal SSIM threshold per resolution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoragePolicy {
    thresholds: BTreeMap<usize, f64>,
}

impl StoragePolicy {
    /// The trivial policy that always reads the entire file.
    pub fn read_all() -> Self {
        StoragePolicy { thresholds: BTreeMap::new() }
    }

    /// Builds a policy from explicit thresholds.
    pub fn from_thresholds(thresholds: BTreeMap<usize, f64>) -> Self {
        StoragePolicy { thresholds }
    }

    /// The SSIM threshold for a resolution, if one was calibrated.
    pub fn threshold_for(&self, resolution: usize) -> Option<f64> {
        self.thresholds.get(&resolution).copied()
    }

    /// All calibrated thresholds.
    pub fn thresholds(&self) -> &BTreeMap<usize, f64> {
        &self.thresholds
    }

    /// Whether the policy always reads everything.
    pub fn is_read_all(&self) -> bool {
        self.thresholds.is_empty()
    }

    /// Decides how many scans to read for an encoded image at `resolution`, returning the
    /// scan count, the fraction of the file read, and the achieved SSIM.
    ///
    /// This is the ingest-time decision of §V: it measures quality against the original
    /// image, which whoever stores the image has in hand and a reader does not. It is one
    /// rung of what [`DynamicResolutionPipeline::ingest`](crate::DynamicResolutionPipeline::ingest)
    /// records for a stream at every rung — a [`ScanIndex`](crate::ScanIndex), the same
    /// search on the same walk — after which reading the stream
    /// ([`plan_with_storage`](crate::DynamicResolutionPipeline::plan_with_storage)) is a
    /// lookup of this point and a decode of its `scans`, with no original and no SSIM. The
    /// search early-exits: it decodes incrementally and stops at the first sufficient
    /// prefix instead of computing the full curve, returning exactly the point
    /// `point_for_threshold` would pick from it.
    ///
    /// # Errors
    /// Returns an error if decoding or resizing fails.
    pub fn scans_for(
        &self,
        original: &Image,
        encoded: &ProgressiveImage,
        crop: CropRatio,
        resolution: usize,
    ) -> Result<ScanPoint> {
        let threshold = self.threshold_for(resolution);
        let mut walk = PrefixWalk::new(encoded, crop, false)?;
        Ok(walk.measure_rung(original, resolution, threshold, 0)?.point)
    }
}

/// The calibration search (§V).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StorageCalibrator {
    /// Maximum tolerated accuracy loss (paper: 0.05 %, i.e. 0.0005).
    pub accuracy_budget: f64,
    /// Lower end of the searched SSIM interval (paper: 0.94).
    pub min_threshold: f64,
    /// Binary-search termination step (paper: 1e-4).
    pub min_step: f64,
}

impl Default for StorageCalibrator {
    fn default() -> Self {
        StorageCalibrator { accuracy_budget: 0.0005, min_threshold: 0.94, min_step: 1e-4 }
    }
}

impl StorageCalibrator {
    /// Binary-searches the minimal acceptable SSIM threshold for one resolution.
    pub fn calibrate_resolution(
        &self,
        curves: &CalibrationCurves,
        oracle: &AccuracyOracle,
        res_idx: usize,
    ) -> f64 {
        let full = curves.full_read_accuracy(oracle, res_idx);
        let acceptable = |threshold: f64| {
            let (acc, _) = curves.accuracy_at_threshold(oracle, res_idx, threshold);
            full - acc <= self.accuracy_budget
        };
        // If even the lowest threshold is acceptable, use it.
        if acceptable(self.min_threshold) {
            return self.min_threshold;
        }
        let mut lo = self.min_threshold;
        let mut hi = 1.0f64;
        while hi - lo > self.min_step {
            let mid = 0.5 * (lo + hi);
            if acceptable(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        hi
    }

    /// Calibrates every resolution in the curves, producing a [`StoragePolicy`].
    pub fn calibrate(&self, curves: &CalibrationCurves, oracle: &AccuracyOracle) -> StoragePolicy {
        let mut thresholds = BTreeMap::new();
        for (res_idx, &res) in curves.resolutions.iter().enumerate() {
            thresholds.insert(res, self.calibrate_resolution(curves, oracle, res_idx));
        }
        StoragePolicy { thresholds }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescnn_data::DatasetSpec;
    use rescnn_imaging::ssim;

    fn small_curves() -> CalibrationCurves {
        let dataset = DatasetSpec::cars_like().with_len(12).with_max_dimension(96).build(3);
        CalibrationCurves::compute(
            &dataset,
            ModelKind::ResNet18,
            CropRatio::new(0.75).unwrap(),
            &[112, 224],
            88,
        )
        .unwrap()
    }

    #[test]
    fn curves_are_monotone_in_scans() {
        let curves = small_curves();
        assert_eq!(curves.len(), 12);
        assert!(!curves.is_empty());
        assert_eq!(curves.samples().len(), 12);
        for res_idx in 0..2 {
            for sample_idx in 0..curves.len() {
                let curve = curves.curve(res_idx, sample_idx);
                assert_eq!(curve.points.len(), 5);
                for pair in curve.points.windows(2) {
                    assert!(pair[1].read_fraction >= pair[0].read_fraction);
                    assert!(pair[1].ssim >= pair[0].ssim - 0.03, "quality regressed: {pair:?}");
                }
                let last = curve.points.last().unwrap();
                assert!((last.read_fraction - 1.0).abs() < 1e-9);
                assert!(last.ssim > 0.8);
            }
        }
    }

    #[test]
    fn threshold_lookup_selects_cheapest_sufficient_point() {
        let curves = small_curves();
        let curve = curves.curve(1, 0);
        let relaxed = curve.point_for_threshold(0.0).unwrap();
        assert_eq!(relaxed.scans, 1);
        let strict = curve.point_for_threshold(2.0).unwrap();
        assert_eq!(strict.scans, 5);
        let mid = curve.point_for_threshold(curve.points[2].ssim).unwrap();
        assert!(mid.scans <= 3);
        // An empty (hand-built) curve yields no point instead of panicking.
        assert_eq!(SampleCurve { points: vec![] }.point_for_threshold(0.5), None);
    }

    #[test]
    fn accuracy_at_threshold_is_monotone_and_bounded() {
        let curves = small_curves();
        let oracle = AccuracyOracle::new(0);
        let full = curves.full_read_accuracy(&oracle, 1);
        let (acc_hi, read_hi) = curves.accuracy_at_threshold(&oracle, 1, 0.999);
        let (acc_lo, read_lo) = curves.accuracy_at_threshold(&oracle, 1, 0.5);
        assert!(acc_hi >= acc_lo);
        assert!(read_hi >= read_lo);
        assert!(acc_hi <= full + 1e-9);
        assert!((0.0..=1.0).contains(&read_lo));
    }

    #[test]
    fn calibration_respects_the_accuracy_budget() {
        let curves = small_curves();
        let oracle = AccuracyOracle::new(0);
        let calibrator = StorageCalibrator::default();
        let policy = calibrator.calibrate(&curves, &oracle);
        assert!(!policy.is_read_all());
        for (res_idx, &res) in curves.resolutions.iter().enumerate() {
            let threshold = policy.threshold_for(res).unwrap();
            assert!((0.94..=1.0).contains(&threshold));
            let full = curves.full_read_accuracy(&oracle, res_idx);
            let (acc, read) = curves.accuracy_at_threshold(&oracle, res_idx, threshold);
            assert!(full - acc <= calibrator.accuracy_budget + 1e-9);
            assert!(read <= 1.0);
        }
    }

    #[test]
    fn read_size_sweep_shape() {
        let curves = small_curves();
        let oracle = AccuracyOracle::new(0);
        let sweep = curves.read_size_sweep(&oracle, 0, 0.5, 8);
        assert_eq!(sweep.len(), 8);
        // Accuracy change is never positive (reading less cannot beat reading everything)
        // and read fraction stays in (0, 1].
        for (read, change) in &sweep {
            assert!(*read > 0.0 && *read <= 1.0);
            assert!(*change <= 1e-9);
        }
        // The strictest threshold reads the most data.
        assert!(sweep.last().unwrap().0 >= sweep.first().unwrap().0);
    }

    #[test]
    fn sample_curves_match_from_scratch_decoding() {
        // The incremental decoder inside `sample_curves` must reproduce the original
        // from-scratch computation bitwise: decode(k) for every prefix, crop + resize,
        // SSIM against the reference resize.
        let dataset = DatasetSpec::cars_like().with_len(2).with_max_dimension(96).build(17);
        let crop = CropRatio::new(0.75).unwrap();
        let resolutions = [112usize, 224];
        for sample in &dataset {
            let original = sample.render().unwrap();
            let encoded = sample.encode_progressive(88).unwrap();
            let fast =
                CalibrationCurves::sample_curves(&original, &encoded, crop, &resolutions).unwrap();
            for (res_idx, &res) in resolutions.iter().enumerate() {
                let reference = rescnn_imaging::crop_and_resize(&original, crop, res).unwrap();
                for scans in 1..=encoded.num_scans() {
                    let decoded = encoded.decode(scans).unwrap();
                    let presented = rescnn_imaging::crop_and_resize(&decoded, crop, res).unwrap();
                    let expected = ssim(&reference, &presented).unwrap();
                    let point = fast[res_idx].points[scans - 1];
                    assert_eq!(point.scans, scans);
                    assert_eq!(
                        point.ssim.to_bits(),
                        expected.to_bits(),
                        "res {res} scan {scans}: {} vs {expected}",
                        point.ssim
                    );
                    assert_eq!(point.read_fraction, encoded.read_fraction(scans));
                }
            }
        }
    }

    #[test]
    fn compute_is_identical_across_thread_budgets() {
        // The per-sample fan-out over the worker pool must never change results: each
        // sample's measurement is independent and folds in dataset order.
        use rescnn_tensor::EngineContext;
        let dataset = DatasetSpec::cars_like().with_len(9).with_max_dimension(80).build(5);
        let crop = CropRatio::new(0.75).unwrap();
        let build = |threads: usize| {
            EngineContext::new().with_threads(threads).scope(|| {
                CalibrationCurves::compute(&dataset, ModelKind::ResNet18, crop, &[112, 168], 85)
                    .unwrap()
            })
        };
        let baseline = build(1);
        for threads in [2usize, 4] {
            let parallel = build(threads);
            assert_eq!(parallel.resolutions, baseline.resolutions);
            for res_idx in 0..baseline.resolutions.len() {
                for sample_idx in 0..baseline.len() {
                    assert_eq!(
                        parallel.curve(res_idx, sample_idx),
                        baseline.curve(res_idx, sample_idx),
                        "threads={threads} res_idx={res_idx} sample={sample_idx}"
                    );
                }
            }
        }
    }

    #[test]
    fn storage_policy_scans_for_matches_thresholds() {
        let dataset = DatasetSpec::imagenet_like().with_len(1).with_max_dimension(96).build(8);
        let sample = &dataset[0];
        let original = sample.render().unwrap();
        let encoded = sample.encode_progressive(88).unwrap();
        let crop = CropRatio::new(0.75).unwrap();
        let read_all = StoragePolicy::read_all();
        assert!(read_all.is_read_all());
        let all = read_all.scans_for(&original, &encoded, crop, 224).unwrap();
        assert_eq!(all.scans, encoded.num_scans());
        let mut thresholds = BTreeMap::new();
        thresholds.insert(224usize, 0.0f64);
        let lax = StoragePolicy::from_thresholds(thresholds);
        assert_eq!(lax.thresholds().len(), 1);
        let cheap = lax.scans_for(&original, &encoded, crop, 224).unwrap();
        assert_eq!(cheap.scans, 1);
        assert!(cheap.read_fraction < all.read_fraction);
        // Un-calibrated resolution falls back to reading everything.
        let fallback = lax.scans_for(&original, &encoded, crop, 112).unwrap();
        assert_eq!(fallback.scans, encoded.num_scans());
    }

    #[test]
    fn empty_inputs_are_rejected() {
        let empty = DatasetSpec::imagenet_like().with_len(0).build(0);
        assert!(matches!(
            CalibrationCurves::compute(&empty, ModelKind::ResNet18, CropRatio::full(), &[112], 90),
            Err(CoreError::EmptyDataset)
        ));
        let tiny = DatasetSpec::imagenet_like().with_len(1).with_max_dimension(48).build(0);
        assert!(CalibrationCurves::compute(&tiny, ModelKind::ResNet18, CropRatio::full(), &[], 90)
            .is_err());
    }
}
