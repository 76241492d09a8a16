//! The dynamic-resolution inference pipeline (Figure 4) and its evaluation harness.
//!
//! Storage holds progressively encoded images. For each image the pipeline first reads the
//! scans its storage policy prescribes for the 112 × 112 preview, runs the scale model on
//! that preview, picks the backbone resolution predicted most likely to be correct, reads
//! any additional scans the chosen resolution requires, and finally runs the backbone.
//! Accuracy is judged by the calibrated oracle on exactly what was decoded; compute cost
//! is accounted in FLOPs of the backbone at the chosen resolution plus the scale model.
//!
//! How many scans a resolution needs is decided by scoring decoded prefixes against the
//! original image, which only the side that stores an image has: that is
//! [`DynamicResolutionPipeline::ingest`], and its result is the stream's
//! [`ScanIndex`](crate::ScanIndex). Reading a stored stream
//! ([`DynamicResolutionPipeline::plan_with_storage`]) takes the stream and the index.
//! [`plan`](DynamicResolutionPipeline::plan) and
//! [`evaluate`](DynamicResolutionPipeline::evaluate) render and encode the sample
//! themselves, so they have the original and walk it directly.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};

use rescnn_data::{Dataset, DatasetKind, Sample};
use rescnn_imaging::{crop_and_resize_cow, CropRatio, Image, SsimConfig, SsimReference};
use rescnn_models::ModelKind;
use rescnn_oracle::{AccuracyOracle, EvalContext};
use rescnn_projpeg::{ProgressiveImage, ScanPlan};
use rescnn_tensor::EngineContext;

use crate::calibration::{crop_decoder, present, PrefixWalk, ScanPoint, StoragePolicy};
use crate::error::{CoreError, Result};
use crate::features::extract_features;
use crate::scale_model::ScaleModel;
use crate::scan_index::{IndexedRung, ScanIndex, ScanIndexStore};

/// Configuration of a dynamic-resolution deployment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Backbone model family.
    pub backbone: ModelKind,
    /// Dataset family the backbone serves.
    pub dataset: DatasetKind,
    /// Candidate inference resolutions.
    pub resolutions: Vec<usize>,
    /// Centre-crop ratio applied at inference time.
    pub crop: CropRatio,
    /// Progressive-encoding quality factor of the stored images.
    pub encode_quality: u8,
    /// Storage policy (calibrated SSIM thresholds per resolution, or read-all).
    pub storage: StoragePolicy,
    /// Model family used for the scale model's cost accounting (MobileNetV2 in the paper).
    pub scale_model_kind: ModelKind,
    /// Worker threads the tensor engine may use for this pipeline's kernels (`None`
    /// keeps the engine's current setting: `RESCNN_THREADS` or the host's available
    /// parallelism). Applied as a scoped [`EngineContext`] per call — never as
    /// process-global state — so pipelines with different settings can serve
    /// concurrently without racing.
    pub engine_threads: Option<usize>,
}

impl PipelineConfig {
    /// A configuration with the paper's defaults: seven candidate resolutions, 75 % crop,
    /// quality-90 storage, read-all policy, MobileNetV2 scale model.
    pub fn new(backbone: ModelKind, dataset: DatasetKind) -> Self {
        PipelineConfig {
            backbone,
            dataset,
            resolutions: vec![112, 168, 224, 280, 336, 392, 448],
            crop: CropRatio::new(0.75).expect("0.75 is a valid crop ratio"),
            encode_quality: 90,
            storage: StoragePolicy::read_all(),
            scale_model_kind: ModelKind::MobileNetV2,
            engine_threads: None,
        }
    }

    /// Sets the crop ratio.
    pub fn with_crop(mut self, crop: CropRatio) -> Self {
        self.crop = crop;
        self
    }

    /// Sets the storage policy.
    pub fn with_storage(mut self, storage: StoragePolicy) -> Self {
        self.storage = storage;
        self
    }

    /// Sets the candidate resolutions.
    pub fn with_resolutions(mut self, resolutions: Vec<usize>) -> Self {
        self.resolutions = resolutions;
        self
    }

    /// Bounds the tensor engine's kernel parallelism for this pipeline's calls
    /// (scoped per call via [`EngineContext`]; does not mutate process state).
    pub fn with_engine_threads(mut self, threads: usize) -> Self {
        self.engine_threads = Some(threads.max(1));
        self
    }

    /// The scoped engine configuration this pipeline installs around kernel-bearing
    /// calls.
    pub fn engine_context(&self) -> EngineContext {
        match self.engine_threads {
            Some(threads) => EngineContext::new().with_threads(threads),
            None => EngineContext::new(),
        }
    }
}

/// The outcome of one dynamic-resolution inference.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InferenceRecord {
    /// Sample identifier.
    pub sample_id: u64,
    /// Resolution the scale model chose.
    pub chosen_resolution: usize,
    /// Scans actually read from storage.
    pub scans_read: usize,
    /// Bytes actually read from storage.
    pub bytes_read: u64,
    /// Full encoded size of the image.
    pub total_bytes: u64,
    /// SSIM quality of what the backbone saw (vs. the ground-truth resize).
    pub quality: f64,
    /// Whether the backbone classified the image correctly.
    pub correct: bool,
    /// Backbone compute cost at the chosen resolution, in GFLOPs (paper convention).
    pub backbone_gflops: f64,
    /// Scale-model compute cost, in GFLOPs.
    pub scale_gflops: f64,
}

impl InferenceRecord {
    /// Fraction of the stored file that was read.
    pub fn read_fraction(&self) -> f64 {
        if self.total_bytes == 0 {
            1.0
        } else {
            self.bytes_read as f64 / self.total_bytes as f64
        }
    }

    /// Total compute cost (scale model + backbone) in GFLOPs.
    pub fn total_gflops(&self) -> f64 {
        self.backbone_gflops + self.scale_gflops
    }
}

/// Aggregate results of evaluating a pipeline (or a static baseline) over a dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineReport {
    /// Human-readable label ("dynamic", "static-224", …).
    pub label: String,
    /// Top-1 accuracy.
    pub accuracy: f64,
    /// Mean compute cost per image in GFLOPs.
    pub mean_gflops: f64,
    /// Mean fraction of stored bytes read per image.
    pub mean_read_fraction: f64,
    /// Mean bytes read per image (0 when byte accounting was skipped).
    pub mean_bytes_read: f64,
    /// How often each resolution was chosen.
    pub resolution_histogram: BTreeMap<usize, usize>,
    /// Number of samples evaluated.
    pub num_samples: usize,
}

impl PipelineReport {
    /// Folds per-sample records into the aggregate report, accumulating in
    /// iteration order. Both the sequential [`DynamicResolutionPipeline::evaluate`]
    /// and the serving core build their reports through this one fold, which is
    /// what makes their "identical results" guarantee structural rather than two
    /// loops kept in sync by hand.
    pub(crate) fn from_records<'r>(
        label: String,
        records: impl IntoIterator<Item = &'r InferenceRecord>,
    ) -> Self {
        let mut n = 0usize;
        let mut correct = 0usize;
        let mut gflops = 0.0;
        let mut read_fraction = 0.0;
        let mut bytes = 0.0;
        let mut histogram: BTreeMap<usize, usize> = BTreeMap::new();
        for record in records {
            n += 1;
            correct += usize::from(record.correct);
            gflops += record.total_gflops();
            read_fraction += record.read_fraction();
            bytes += record.bytes_read as f64;
            *histogram.entry(record.chosen_resolution).or_insert(0) += 1;
        }
        Self::from_parts(label, correct, gflops, read_fraction, bytes, histogram, n)
    }

    fn from_parts(
        label: String,
        correct: usize,
        gflops: f64,
        read_fraction: f64,
        bytes: f64,
        histogram: BTreeMap<usize, usize>,
        n: usize,
    ) -> Self {
        let nf = n.max(1) as f64;
        PipelineReport {
            label,
            accuracy: correct as f64 / nf,
            mean_gflops: gflops / nf,
            mean_read_fraction: read_fraction / nf,
            mean_bytes_read: bytes / nf,
            resolution_histogram: histogram,
            num_samples: n,
        }
    }
}

/// The committed outcome of inference stage 1 (preview read + scale-model choice),
/// carrying the storage decisions forward into [`DynamicResolutionPipeline::execute`].
///
/// Splitting planning from execution is what makes resolution-bucketed batch
/// serving possible: a scheduler plans a whole queue, groups the plans by
/// [`chosen_resolution`](Self::chosen_resolution), and executes each bucket as a
/// batch (see [`BatchScheduler`](crate::BatchScheduler)).
///
/// The plan carries exactly the points the execute stage consults — the preview
/// read, the chosen resolution's sufficient point, and the quality at the deeper
/// of the two — rather than full quality/read curves for every candidate
/// resolution: the planner computes curves lazily and early-exits at the storage
/// policy's thresholds, so points it never needed are never measured.
#[derive(Debug, Clone)]
pub struct InferencePlan {
    /// Resolution the scale model chose for the backbone pass.
    pub chosen_resolution: usize,
    /// The progressively encoded image (storage state).
    pub(crate) encoded: ProgressiveImage,
    /// Scans/quality the preview stage already read.
    pub(crate) preview_point: ScanPoint,
    /// The storage policy's point for the chosen resolution.
    pub(crate) chosen_point: ScanPoint,
    /// Scans the whole inference reads: the deeper of preview and chosen point.
    pub(crate) scans_read: usize,
    /// SSIM at the chosen resolution after `scans_read` scans — what the backbone sees.
    pub(crate) quality: f64,
}

impl InferencePlan {
    /// SSIM of what the backbone will see at the planned resolution — the
    /// delivered quality the SLO scheduler's degradation floor is checked
    /// against.
    pub fn quality(&self) -> f64 {
        self.quality
    }

    /// Scans the inference will read from storage.
    pub fn scans_read(&self) -> usize {
        self.scans_read
    }
}

/// The storage side of an [`InferencePlan`] — every field but the stream itself — so a
/// planner can settle it while it still borrows the stream.
#[derive(Debug, Clone, Copy)]
struct StorageRead {
    chosen_resolution: usize,
    preview_point: ScanPoint,
    chosen_point: ScanPoint,
    scans_read: usize,
    quality: f64,
}

impl StorageRead {
    /// The read that serves `resolution` after a preview read of `preview_point`, given
    /// the rung's measurements; `None` if they do not cover a preview read that deep.
    fn new(preview_point: ScanPoint, resolution: usize, rung: IndexedRung) -> Option<Self> {
        let (scans_read, quality) = rung.delivered(preview_point.scans)?;
        Some(StorageRead {
            chosen_resolution: resolution,
            preview_point,
            chosen_point: rung.point,
            scans_read,
            quality,
        })
    }

    fn of(self, encoded: ProgressiveImage) -> InferencePlan {
        InferencePlan {
            chosen_resolution: self.chosen_resolution,
            encoded,
            preview_point: self.preview_point,
            chosen_point: self.chosen_point,
            scans_read: self.scans_read,
            quality: self.quality,
        }
    }
}

/// The dynamic-resolution pipeline.
#[derive(Debug, Clone)]
pub struct DynamicResolutionPipeline {
    config: PipelineConfig,
    scale_model: ScaleModel,
    oracle: AccuracyOracle,
    backbone_gflops: BTreeMap<usize, f64>,
    scale_gflops: f64,
    /// Scan indexes of the stored streams this pipeline has ingested or planned, by
    /// content address (shared across clones; see
    /// [`DynamicResolutionPipeline::ingest`]).
    scan_index: Arc<Mutex<ScanIndexStore>>,
}

/// Streams a pipeline keeps a [`ScanIndex`] for (a few hundred bytes each) before the
/// oldest-inserted one is evicted.
const SCAN_INDEX_CAPACITY: usize = 4096;

impl DynamicResolutionPipeline {
    /// Assembles a pipeline from its parts.
    ///
    /// # Errors
    /// Returns an error if the configuration has no candidate resolutions, the scale
    /// model can choose a resolution that is not one of them, or the FLOP accounting
    /// fails.
    pub fn new(
        config: PipelineConfig,
        scale_model: ScaleModel,
        oracle: AccuracyOracle,
    ) -> Result<Self> {
        if config.resolutions.is_empty() {
            return Err(CoreError::InvalidConfig { reason: "no candidate resolutions".into() });
        }
        // Plans are served, priced and degraded on the ladder: every rung the scale
        // model can choose must be on it.
        let ladder = &config.resolutions;
        if let Some(rung) = scale_model.resolutions().iter().find(|r| !ladder.contains(r)) {
            let reason = format!("scale model rung {rung} is not on the ladder {ladder:?}");
            return Err(CoreError::InvalidConfig { reason });
        }
        let backbone_arch = config.backbone.arch(config.dataset.num_classes());
        let mut backbone_gflops = BTreeMap::new();
        for &res in &config.resolutions {
            backbone_gflops.insert(res, backbone_arch.gflops(res)?);
        }
        let scale_arch = config.scale_model_kind.arch(config.dataset.num_classes());
        let scale_gflops = scale_arch.gflops(scale_model.preview_resolution())?;
        Ok(DynamicResolutionPipeline {
            config,
            scale_model,
            oracle,
            backbone_gflops,
            scale_gflops,
            scan_index: Arc::new(Mutex::new(ScanIndexStore::new(SCAN_INDEX_CAPACITY))),
        })
    }

    /// The same pipeline over an empty scan-index store of another capacity.
    #[cfg(test)]
    pub(crate) fn with_scan_index_capacity(mut self, capacity: usize) -> Self {
        self.scan_index = Arc::new(Mutex::new(ScanIndexStore::new(capacity)));
        self
    }

    /// Planned peak-live activation bytes of one backbone forward at
    /// `resolution`, from the backbone architecture's arena plan
    /// ([`rescnn_models::ArchSpec::arena_plan`]; no weights are built). The
    /// figure depends only on the backbone and the resolution: not on the
    /// thread budget, the dispatch state or which caller asks first.
    ///
    /// This is the per-request memory figure a memory-budgeted admission
    /// controller charges: the measured arena high-water mark of a real
    /// forward never exceeds it (`ActivationArena::peak_live_bytes` is pinned
    /// against it in `rescnn-models`' tests).
    ///
    /// # Errors
    /// Returns an error if the resolution is too small for the backbone's
    /// downsampling schedule.
    pub fn arena_peak_bytes(&self, resolution: usize) -> Result<usize> {
        let arch = self.config.backbone.arch(self.config.dataset.num_classes());
        let plan =
            arch.arena_plan(rescnn_tensor::Shape::chw(3, resolution, resolution)).map_err(|e| {
                CoreError::InvalidConfig { reason: format!("arena plan at {resolution}: {e}") }
            })?;
        Ok(plan.peak_live_bytes)
    }

    /// The configuration in use.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// The scoped engine configuration installed around this pipeline's
    /// kernel-bearing calls ([`infer`](Self::infer), [`plan`](Self::plan),
    /// [`execute`](Self::execute)). Construction never mutates process-global
    /// engine state, so pipelines with different thread budgets coexist safely.
    pub fn engine_context(&self) -> EngineContext {
        self.config.engine_context()
    }

    /// Compute cost of the scale model per image, in GFLOPs.
    pub fn scale_model_gflops(&self) -> f64 {
        self.scale_gflops
    }

    /// Backbone compute cost at a candidate resolution, in GFLOPs.
    pub fn backbone_gflops(&self, resolution: usize) -> Option<f64> {
        self.backbone_gflops.get(&resolution).copied()
    }

    /// Runs the full dynamic pipeline on one sample, inside this pipeline's
    /// [`EngineContext`] scope.
    ///
    /// # Errors
    /// Returns an error if rendering, encoding, decoding, or feature extraction fails.
    pub fn infer(&self, sample: &Sample) -> Result<InferenceRecord> {
        self.config.engine_context().scope(|| {
            let plan = self.plan_unscoped(sample)?;
            self.execute_unscoped(sample, &plan)
        })
    }

    /// Stage 1 of an inference: reads the preview scans, runs the scale model, and
    /// commits to a backbone resolution. The returned plan carries the decoded
    /// state forward so [`execute`](Self::execute) never repeats storage work —
    /// and so a batch scheduler can group plans by resolution before executing.
    ///
    /// # Errors
    /// Returns an error if rendering, encoding, decoding, or feature extraction fails.
    pub fn plan(&self, sample: &Sample) -> Result<InferencePlan> {
        self.config.engine_context().scope(|| self.plan_unscoped(sample))
    }

    /// Stages 2–3 of an inference: reads whatever extra scans the planned
    /// resolution requires and judges backbone correctness on exactly what was
    /// decoded. `sample` must be the one the plan was produced from.
    ///
    /// # Errors
    /// Returns an error if decoding fails.
    pub fn execute(&self, sample: &Sample, plan: &InferencePlan) -> Result<InferenceRecord> {
        self.config.engine_context().scope(|| self.execute_unscoped(sample, plan))
    }

    /// [`plan`](Self::plan) without installing the pipeline's engine context —
    /// for callers (the serving core) that manage their own thread budget.
    ///
    /// The planner decodes incrementally and early-exits at the storage policy's
    /// thresholds: the preview walk stops at the first sufficient scan prefix and
    /// its presented image is fed straight to the scale model (no second decode of
    /// the same prefix), and only the *chosen* resolution's point is measured —
    /// never the full curve of every candidate. The resulting records are
    /// identical to computing full curves and looking the points up afterwards,
    /// because `point_for_threshold` selects exactly the first sufficient point.
    pub(crate) fn plan_unscoped(&self, sample: &Sample) -> Result<InferencePlan> {
        let original = sample.render()?;
        let encoded =
            ProgressiveImage::encode(&original, self.config.encode_quality, ScanPlan::standard())?;
        let (read, _) = self.plan_from_parts(&original, &encoded)?;
        Ok(read.of(encoded))
    }

    /// [`plan`](Self::plan) over a caller-supplied storage state instead of
    /// re-encoding the rendered sample: the path by which externally stored —
    /// possibly corrupt or truncated — progressive streams reach the decoder.
    /// A stream error surfaces as [`CoreError::Codec`]; the serving layers
    /// isolate it to the one request that carried the bad stream.
    ///
    /// This is the *read* half of §V. How deep to read is an ingest-time decision,
    /// kept per stream in a [`ScanIndex`]; a stream the pipeline has an index for —
    /// [`ingest`](Self::ingest)ed ahead of time, or planned before — is planned
    /// from the stream and the index alone: look up the preview rung, decode that
    /// many scans, run the scale model, look up the chosen rung, advance the same
    /// decoder to the depth the inference reads. No render of the sample, no SSIM.
    ///
    /// A stream met for the first time has no index yet. Its plan is made the way
    /// `plan` makes one — render the sample and walk the scan prefixes, scoring
    /// each against the original until the policy's threshold is met — and what
    /// that walk measured (the preview rung and the chosen one) is recorded, so
    /// the first read costs one walking plan plus one digest of the stream and
    /// every later one is indexed. Either way the plan is the same, bit for bit:
    /// the index holds nothing but the walk's own results, keyed by the stream's
    /// content address, so it can neither go stale nor follow a damaged copy.
    ///
    /// # Errors
    /// Returns an error if rendering, decoding, or feature extraction fails.
    pub fn plan_with_storage(
        &self,
        sample: &Sample,
        encoded: ProgressiveImage,
    ) -> Result<InferencePlan> {
        self.config.engine_context().scope(|| self.plan_with_storage_unscoped(sample, encoded))
    }

    /// [`plan_with_storage`](Self::plan_with_storage) without installing the
    /// pipeline's engine context.
    pub(crate) fn plan_with_storage_unscoped(
        &self,
        sample: &Sample,
        encoded: ProgressiveImage,
    ) -> Result<InferencePlan> {
        let digest = encoded.digest();
        if let Some(index) = self.indexed(digest, sample) {
            // The frame is what an execute stage that runs the backbone will consume;
            // the oracle-judged one needs only the plan.
            if let Some((read, _frame)) = self.plan_indexed(&encoded, &index)? {
                return Ok(read.of(encoded));
            }
        }
        self.plan_walking(sample, encoded, digest)
    }

    /// The first-sight read: the walking plan, whose measurements — the preview rung and
    /// the chosen one — go on record under the stream's `digest`.
    fn plan_walking(
        &self,
        sample: &Sample,
        encoded: ProgressiveImage,
        digest: u128,
    ) -> Result<InferencePlan> {
        let original = sample.render()?;
        let (read, measured) = self.plan_from_parts(&original, &encoded)?;
        self.record(digest, sample, measured);
        Ok(read.of(encoded))
    }

    /// The index this pipeline holds for the stream with this digest, measured against
    /// `sample`'s scene.
    fn indexed(&self, digest: u128, sample: &Sample) -> Option<Arc<ScanIndex>> {
        // Every update leaves the store valid, so a poisoned lock is still usable.
        self.scan_index.lock().unwrap_or_else(|e| e.into_inner()).get(digest, &sample.scene)
    }

    fn record(
        &self,
        digest: u128,
        sample: &Sample,
        rungs: impl IntoIterator<Item = (usize, IndexedRung)>,
    ) {
        let mut store = self.scan_index.lock().unwrap_or_else(|e| e.into_inner());
        store.record(digest, &sample.scene, rungs);
    }

    /// Measures a stored stream at every rung a read can ask for — the preview
    /// resolution, the scale model's candidates and the configured ladder — while
    /// the original is in hand, and records the resulting [`ScanIndex`] under the
    /// stream's content address: §V's ingest. Every later
    /// [`plan_with_storage`](Self::plan_with_storage) of these bytes (with this
    /// sample), and every degradation of such a plan down the ladder, is then a
    /// lookup and a decode.
    ///
    /// Ingesting is optional — a read of a stream never ingested walks it and
    /// records what it measured — and changes no plan: the index is built by the
    /// walking planner's own search (one retaining walk over the stream, each rung
    /// scored from the first scan up to its threshold), so reads before and after
    /// it agree bit for bit. The returned index says how many scans, and what
    /// fraction of the file, each rung reads.
    ///
    /// # Errors
    /// Returns an error if rendering, decoding, or resizing fails — a stream damaged
    /// in a scan that any rung reads fails here, even if the reads it actually gets
    /// stop short of the damage. Nothing is recorded then, and those reads go on
    /// walking the stream as if it had never been offered.
    pub fn ingest(&self, sample: &Sample, encoded: &ProgressiveImage) -> Result<ScanIndex> {
        self.config.engine_context().scope(|| {
            let original = sample.render()?;
            let preview_res = self.scale_model.preview_resolution();
            let retain = !self.config.storage.is_read_all();
            let mut walk = PrefixWalk::new(encoded, self.config.crop, retain)?;
            let storage = &self.config.storage;
            // The preview first, as in a plan: how deep it reads is an input of the rest.
            let preview =
                walk.measure_rung(&original, preview_res, storage.threshold_for(preview_res), 0)?;
            let depth = preview.point.scans;
            let mut rungs = vec![(preview_res, preview)];
            for resolution in self.config.resolutions.iter().copied().collect::<BTreeSet<usize>>() {
                if resolution != preview_res {
                    let threshold = storage.threshold_for(resolution);
                    rungs.push((
                        resolution,
                        walk.measure_rung(&original, resolution, threshold, depth)?,
                    ));
                }
            }
            self.record(encoded.digest(), sample, rungs.iter().copied());
            Ok(rungs.into_iter().collect())
        })
    }

    /// The planning body shared by the render-and-encode path and the first-sight read
    /// of caller-supplied storage: the walking planner, with the original in hand.
    /// Returns the plan's storage side and the two rungs — the preview's and the chosen
    /// one — as it measured them.
    fn plan_from_parts(
        &self,
        original: &Image,
        encoded: &ProgressiveImage,
    ) -> Result<(StorageRead, [(usize, IndexedRung); 2])> {
        let crop = self.config.crop;
        let preview_res = self.scale_model.preview_resolution();

        // Stage 1a: read the preview's scans (early-exiting at its threshold) and run
        // the scale model on the frame that walk already presented. The ground-truth
        // reference is lifted into a persistent SsimReference, so its integral state is
        // built once and shared by every prefix the walk scores. Under a thresholded
        // policy the walk retains the prefixes it decodes: stage 1b's search starts over
        // from the first scan, and scores them again at another resolution.
        let preview_reference = crop_and_resize_cow(original, crop, preview_res)?;
        let preview_reference = SsimReference::new(&preview_reference, SsimConfig::default())?;
        let mut walk = PrefixWalk::new(encoded, crop, !self.config.storage.is_read_all())?;
        let (preview_point, preview_image) = walk.cheapest_sufficient_point(
            &preview_reference,
            preview_res,
            self.config.storage.threshold_for(preview_res),
        )?;
        let features = extract_features(&preview_image)?;
        let chosen_resolution = self.scale_model.choose_resolution(&features);

        // Stage 1b: the storage decision for the chosen resolution, and the quality of
        // the deepest prefix the inference will actually read — on the same walk, so no
        // scan is entropy-decoded twice.
        let preview = IndexedRung { point: preview_point, preview_depth_ssim: None };
        let chosen = if chosen_resolution == preview_res {
            preview
        } else {
            let threshold = self.config.storage.threshold_for(chosen_resolution);
            walk.measure_rung(original, chosen_resolution, threshold, preview_point.scans)?
        };
        let read = StorageRead::new(preview_point, chosen_resolution, chosen)
            .expect("the rung was measured against this preview read");
        Ok((read, [(preview_res, preview), (chosen_resolution, chosen)]))
    }

    /// The reference-free read: plans `encoded` from its [`ScanIndex`] alone — no
    /// sample, no original image, no SSIM — and returns with the plan's storage side
    /// the frame the read presents to the backbone, bitwise
    /// `crop_and_resize(encoded.decode(scans_read), crop, chosen_resolution)`. The
    /// walking planner materialises that frame as a by-product of scoring it; here only
    /// the scoring is gone. One decoder serves both stages, and since it knows its
    /// depth each jump reconstructs a touched block once.
    ///
    /// `None` when the index lacks a rung the read turns out to need.
    fn plan_indexed(
        &self,
        encoded: &ProgressiveImage,
        index: &ScanIndex,
    ) -> Result<Option<(StorageRead, Image)>> {
        let crop = self.config.crop;
        let preview_res = self.scale_model.preview_resolution();
        let Some(preview) = index.rung(preview_res) else { return Ok(None) };
        let mut decoder = crop_decoder(encoded, crop)?;
        let preview_image = present(decoder.advance_to(preview.point.scans)?, preview_res)?;
        let features = extract_features(&preview_image)?;
        let chosen_resolution = self.scale_model.choose_resolution(&features);
        let Some(read) = index
            .rung(chosen_resolution)
            .and_then(|rung| StorageRead::new(preview.point, chosen_resolution, rung))
        else {
            return Ok(None);
        };
        let presented = if chosen_resolution == preview_res {
            preview_image.into_owned()
        } else {
            drop(preview_image);
            present(decoder.advance_to(read.scans_read)?, chosen_resolution)?.into_owned()
        };
        Ok(Some((read, presented)))
    }

    /// Re-plans an already-planned request at a different backbone resolution,
    /// reusing the plan's storage state and preview read — the SLO scheduler's
    /// degradation ladder (`slo` module). The returned plan is bitwise identical
    /// to what planning would have produced had the scale model chosen
    /// `resolution` in the first place.
    ///
    /// With the rung on the stream's index this is a lookup plus the one decode
    /// that reads the rung's frame. Otherwise the storage decision re-runs the
    /// same `cheapest_sufficient_point` walk over the same encoded scans against
    /// the rendered original (the incremental decoder's invariant makes every
    /// scored frame identical to a from-scratch decode) and goes on record.
    ///
    /// # Errors
    /// Returns an error if rendering or decoding fails.
    pub(crate) fn replan_at(
        &self,
        sample: &Sample,
        plan: &InferencePlan,
        resolution: usize,
    ) -> Result<InferencePlan> {
        if resolution == plan.chosen_resolution {
            return Ok(plan.clone());
        }
        let crop = self.config.crop;
        let digest = plan.encoded.digest();
        let indexed = self
            .indexed(digest, sample)
            .and_then(|index| index.rung(resolution))
            .and_then(|rung| StorageRead::new(plan.preview_point, resolution, rung));
        let read = match indexed {
            Some(read) => {
                // The read itself — the frame this rung's execution consumes — which the
                // walk below makes as a by-product of scoring it.
                let mut decoder = crop_decoder(&plan.encoded, crop)?;
                present(decoder.advance_to(read.scans_read)?, resolution)?;
                read
            }
            None => {
                let original = sample.render()?;
                let mut walk = PrefixWalk::new(&plan.encoded, crop, false)?;
                let threshold = self.config.storage.threshold_for(resolution);
                let depth = plan.preview_point.scans;
                let rung = walk.measure_rung(&original, resolution, threshold, depth)?;
                self.record(digest, sample, [(resolution, rung)]);
                StorageRead::new(plan.preview_point, resolution, rung)
                    .expect("the rung was measured against this preview read")
            }
        };
        Ok(read.of(plan.encoded.clone()))
    }

    /// [`execute`](Self::execute) without installing the pipeline's engine context.
    pub(crate) fn execute_unscoped(
        &self,
        sample: &Sample,
        plan: &InferencePlan,
    ) -> Result<InferenceRecord> {
        let chosen_resolution = plan.chosen_resolution;
        let backbone_gflops =
            self.backbone_gflops.get(&chosen_resolution).copied().ok_or_else(|| {
                CoreError::InvalidConfig {
                    reason: format!("plan resolution {chosen_resolution} is not on the ladder"),
                }
            })?;

        // Stage 2: charge for whatever extra data the chosen resolution required.
        let scans_read = plan.preview_point.scans.max(plan.chosen_point.scans);
        debug_assert_eq!(scans_read, plan.scans_read);
        let bytes_read = plan.encoded.cumulative_bytes(scans_read);

        // Stage 3: backbone correctness on exactly what was decoded.
        let ctx = EvalContext {
            model: self.config.backbone,
            dataset: self.config.dataset,
            resolution: chosen_resolution,
            crop: self.config.crop,
            quality: plan.quality,
        };
        let correct = self.oracle.is_correct(sample, &ctx);

        Ok(InferenceRecord {
            sample_id: sample.id,
            chosen_resolution,
            scans_read,
            bytes_read,
            total_bytes: plan.encoded.total_bytes(),
            quality: plan.quality,
            correct,
            backbone_gflops,
            scale_gflops: self.scale_gflops,
        })
    }

    /// Evaluates the dynamic pipeline over a dataset.
    ///
    /// # Errors
    /// Returns an error if the dataset is empty or any per-sample step fails.
    pub fn evaluate(&self, dataset: &Dataset) -> Result<PipelineReport> {
        if dataset.is_empty() {
            return Err(CoreError::EmptyDataset);
        }
        let mut records = Vec::with_capacity(dataset.len());
        for sample in dataset {
            records.push(self.infer(sample)?);
        }
        Ok(PipelineReport::from_records("dynamic".to_string(), &records))
    }

    /// Evaluates a *static* baseline at a fixed resolution.
    ///
    /// With `use_storage_policy = false` the baseline reads every byte (quality 1.0) and
    /// no pixels need to be rendered, making large sweeps cheap. With `true`, images are
    /// rendered, encoded, and read according to the calibrated thresholds — the
    /// "Calibrated" columns of Tables III/IV.
    ///
    /// # Errors
    /// Returns an error if the dataset is empty, the resolution is unknown to the FLOP
    /// table, or any per-sample step fails.
    pub fn evaluate_static(
        &self,
        dataset: &Dataset,
        resolution: usize,
        use_storage_policy: bool,
    ) -> Result<PipelineReport> {
        if dataset.is_empty() {
            return Err(CoreError::EmptyDataset);
        }
        let backbone_gflops = self.backbone_gflops.get(&resolution).copied().ok_or_else(|| {
            CoreError::InvalidConfig {
                reason: format!("resolution {resolution} is not a configured candidate"),
            }
        })?;
        let mut correct = 0usize;
        let mut read_fraction_total = 0.0;
        let mut bytes_total = 0.0;
        let mut histogram: BTreeMap<usize, usize> = BTreeMap::new();
        *histogram.entry(resolution).or_insert(0) += dataset.len();

        for sample in dataset {
            let (quality, read_fraction, bytes) =
                if use_storage_policy && !self.config.storage.is_read_all() {
                    let original = sample.render()?;
                    let encoded = ProgressiveImage::encode(
                        &original,
                        self.config.encode_quality,
                        ScanPlan::standard(),
                    )?;
                    let point = self.config.storage.scans_for(
                        &original,
                        &encoded,
                        self.config.crop,
                        resolution,
                    )?;
                    (point.ssim, point.read_fraction, encoded.cumulative_bytes(point.scans) as f64)
                } else {
                    (1.0, 1.0, 0.0)
                };
            let ctx = EvalContext {
                model: self.config.backbone,
                dataset: self.config.dataset,
                resolution,
                crop: self.config.crop,
                quality,
            };
            correct += usize::from(self.oracle.is_correct(sample, &ctx));
            read_fraction_total += read_fraction;
            bytes_total += bytes;
        }
        let label = if use_storage_policy {
            format!("static-{resolution}-calibrated")
        } else {
            format!("static-{resolution}")
        };
        Ok(PipelineReport::from_parts(
            label,
            correct,
            backbone_gflops * dataset.len() as f64,
            read_fraction_total,
            bytes_total,
            histogram,
            dataset.len(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale_model::{ScaleModelConfig, ScaleModelTrainer};
    use rescnn_data::DatasetSpec;

    fn build_pipeline(crop: f64, resolutions: Vec<usize>) -> DynamicResolutionPipeline {
        let config =
            ScaleModelConfig { resolutions: resolutions.clone(), epochs: 30, ..Default::default() };
        let trainer = ScaleModelTrainer::new(config, ModelKind::ResNet18, DatasetKind::CarsLike);
        let train = DatasetSpec::cars_like().with_len(60).with_max_dimension(96).build(1);
        let scale_model = trainer.train(&train, 3).unwrap();
        let pipeline_config = PipelineConfig::new(ModelKind::ResNet18, DatasetKind::CarsLike)
            .with_crop(CropRatio::new(crop).unwrap())
            .with_resolutions(resolutions);
        DynamicResolutionPipeline::new(pipeline_config, scale_model, AccuracyOracle::new(77))
            .unwrap()
    }

    #[test]
    fn pipeline_construction_validates_config() {
        let config =
            ScaleModelConfig { resolutions: vec![112, 224], epochs: 5, ..Default::default() };
        let trainer = ScaleModelTrainer::new(config, ModelKind::ResNet18, DatasetKind::CarsLike);
        let train = DatasetSpec::cars_like().with_len(12).with_max_dimension(64).build(1);
        let scale_model = trainer.train(&train, 2).unwrap();
        let bad = PipelineConfig::new(ModelKind::ResNet18, DatasetKind::CarsLike)
            .with_resolutions(vec![]);
        assert!(DynamicResolutionPipeline::new(bad, scale_model, AccuracyOracle::new(0)).is_err());
    }

    #[test]
    fn pipeline_rejects_scale_model_rungs_off_the_ladder() {
        let config =
            ScaleModelConfig { resolutions: vec![112, 224, 336], epochs: 5, ..Default::default() };
        let trainer = ScaleModelTrainer::new(config, ModelKind::ResNet18, DatasetKind::CarsLike);
        let train = DatasetSpec::cars_like().with_len(12).with_max_dimension(64).build(1);
        let scale_model = trainer.train(&train, 2).unwrap();
        let short = PipelineConfig::new(ModelKind::ResNet18, DatasetKind::CarsLike)
            .with_resolutions(vec![112, 224]);
        match DynamicResolutionPipeline::new(short, scale_model.clone(), AccuracyOracle::new(0)) {
            Err(CoreError::InvalidConfig { reason }) => {
                assert!(reason.contains("336"), "the error must name the rung: {reason}")
            }
            other => panic!("expected InvalidConfig, got {:?}", other.map(|_| ())),
        }
        // A ladder holding every scale-model rung, and more, is fine.
        let wider = PipelineConfig::new(ModelKind::ResNet18, DatasetKind::CarsLike)
            .with_resolutions(vec![112, 168, 224, 336]);
        assert!(DynamicResolutionPipeline::new(wider, scale_model, AccuracyOracle::new(0)).is_ok());
    }

    #[test]
    fn inference_record_is_well_formed() {
        let pipeline = build_pipeline(0.56, vec![112, 224, 336]);
        let data = DatasetSpec::cars_like().with_len(4).with_max_dimension(96).build(50);
        for sample in &data {
            let record = pipeline.infer(sample).unwrap();
            assert!(pipeline.config().resolutions.contains(&record.chosen_resolution));
            assert!(record.scans_read >= 1 && record.scans_read <= 5);
            assert!(record.bytes_read <= record.total_bytes);
            assert!((0.0..=1.0).contains(&record.quality) || record.quality > 0.99);
            assert!(record.read_fraction() <= 1.0);
            assert!(record.total_gflops() > record.backbone_gflops);
            assert!(record.scale_gflops < 0.2, "scale model must be cheap");
        }
    }

    #[test]
    fn dynamic_beats_worst_static_and_tracks_best_static() {
        let pipeline = build_pipeline(0.56, vec![112, 224, 336]);
        let test = DatasetSpec::cars_like().with_len(40).with_max_dimension(96).build(123);
        let dynamic = pipeline.evaluate(&test).unwrap();
        let statics: Vec<PipelineReport> = [112usize, 224, 336]
            .iter()
            .map(|&r| pipeline.evaluate_static(&test, r, false).unwrap())
            .collect();
        let best = statics.iter().map(|r| r.accuracy).fold(0.0, f64::max);
        let worst = statics.iter().map(|r| r.accuracy).fold(1.0, f64::min);
        assert!(dynamic.accuracy >= worst, "dynamic {} vs worst {}", dynamic.accuracy, worst);
        assert!(
            dynamic.accuracy >= best - 0.12,
            "dynamic {} should be near the best static {}",
            dynamic.accuracy,
            best
        );
        // Average compute cost must be below always running the largest resolution.
        assert!(dynamic.mean_gflops < statics.last().unwrap().mean_gflops);
        assert_eq!(dynamic.num_samples, 40);
        assert_eq!(
            dynamic.resolution_histogram.values().sum::<usize>(),
            40,
            "every sample must pick a resolution"
        );
    }

    #[test]
    fn static_reports_have_expected_shape() {
        let pipeline = build_pipeline(0.75, vec![112, 224, 336]);
        let test = DatasetSpec::cars_like().with_len(25).with_max_dimension(64).build(7);
        let low = pipeline.evaluate_static(&test, 112, false).unwrap();
        let high = pipeline.evaluate_static(&test, 336, false).unwrap();
        assert!(high.accuracy >= low.accuracy, "at 75% crop more resolution helps");
        assert!(high.mean_gflops > low.mean_gflops);
        assert_eq!(low.label, "static-112");
        assert!((low.mean_read_fraction - 1.0).abs() < 1e-12);
        assert!(pipeline.evaluate_static(&test, 999, false).is_err());
    }

    #[test]
    fn empty_dataset_is_rejected() {
        let pipeline = build_pipeline(0.75, vec![112, 224]);
        let empty = DatasetSpec::cars_like().with_len(0).build(0);
        assert!(matches!(pipeline.evaluate(&empty), Err(CoreError::EmptyDataset)));
        assert!(matches!(
            pipeline.evaluate_static(&empty, 112, false),
            Err(CoreError::EmptyDataset)
        ));
    }

    #[test]
    fn engine_threads_are_scoped_not_global() {
        // Regression: `with_engine_threads` used to leak into a process-global via
        // `set_num_threads` in `DynamicResolutionPipeline::new`, so two pipelines
        // with different settings raced (last constructor won for both).
        let config =
            ScaleModelConfig { resolutions: vec![112, 224], epochs: 5, ..Default::default() };
        let trainer = ScaleModelTrainer::new(config, ModelKind::ResNet18, DatasetKind::CarsLike);
        let train = DatasetSpec::cars_like().with_len(12).with_max_dimension(64).build(1);
        let scale_model = trainer.train(&train, 2).unwrap();

        let global_before = rescnn_tensor::num_threads();
        let narrow = DynamicResolutionPipeline::new(
            PipelineConfig::new(ModelKind::ResNet18, DatasetKind::CarsLike).with_engine_threads(1),
            scale_model.clone(),
            AccuracyOracle::new(1),
        )
        .unwrap();
        let wide = DynamicResolutionPipeline::new(
            PipelineConfig::new(ModelKind::ResNet18, DatasetKind::CarsLike).with_engine_threads(3),
            scale_model,
            AccuracyOracle::new(1),
        )
        .unwrap();
        assert_eq!(
            rescnn_tensor::num_threads(),
            global_before,
            "pipeline construction must not mutate the process-global thread count"
        );

        // Each pipeline sees its own budget inside its scope; they don't clobber
        // each other regardless of construction or use order.
        assert_eq!(narrow.engine_context().scope(rescnn_tensor::num_threads), 1);
        assert_eq!(wide.engine_context().scope(rescnn_tensor::num_threads), 3);
        assert_eq!(narrow.engine_context().scope(rescnn_tensor::num_threads), 1);

        // Both pipelines still infer correctly (and identically — thread budget
        // must never change results).
        let data = DatasetSpec::cars_like().with_len(3).with_max_dimension(64).build(9);
        for sample in &data {
            let a = narrow.infer(sample).unwrap();
            let b = wide.infer(sample).unwrap();
            assert_eq!(a, b, "thread budget must not affect inference results");
        }
        assert_eq!(rescnn_tensor::num_threads(), global_before);
    }

    #[test]
    fn plan_execute_split_matches_monolithic_infer() {
        let pipeline = build_pipeline(0.56, vec![112, 224, 336]);
        let data = DatasetSpec::cars_like().with_len(5).with_max_dimension(96).build(33);
        for sample in &data {
            let plan = pipeline.plan(sample).unwrap();
            assert!(pipeline.config().resolutions.contains(&plan.chosen_resolution));
            let staged = pipeline.execute(sample, &plan).unwrap();
            let monolithic = pipeline.infer(sample).unwrap();
            assert_eq!(staged, monolithic, "plan+execute must equal infer exactly");
        }
    }

    #[test]
    fn early_exit_plan_matches_full_curve_semantics() {
        // The planner stops measuring a resolution at its first sufficient scan prefix.
        // That early exit must reproduce exactly what the original implementation got by
        // computing full curves for every candidate resolution and looking points up
        // afterwards — including the case where the preview stage read deeper into the
        // file than the chosen resolution's own sufficient point.
        use crate::calibration::{CalibrationCurves, StoragePolicy};
        use std::collections::BTreeMap;

        let resolutions = vec![112usize, 224, 336];
        let mut thresholds = BTreeMap::new();
        for &res in &resolutions {
            thresholds.insert(res, 0.97f64);
        }
        let config =
            ScaleModelConfig { resolutions: resolutions.clone(), epochs: 30, ..Default::default() };
        let trainer = ScaleModelTrainer::new(config, ModelKind::ResNet18, DatasetKind::CarsLike);
        let train = DatasetSpec::cars_like().with_len(60).with_max_dimension(96).build(1);
        let scale_model = trainer.train(&train, 3).unwrap();
        let pipeline_config = PipelineConfig::new(ModelKind::ResNet18, DatasetKind::CarsLike)
            .with_crop(CropRatio::new(0.56).unwrap())
            .with_resolutions(resolutions)
            .with_storage(StoragePolicy::from_thresholds(thresholds));
        let pipeline =
            DynamicResolutionPipeline::new(pipeline_config, scale_model, AccuracyOracle::new(77))
                .unwrap();

        let data = DatasetSpec::cars_like().with_len(8).with_max_dimension(96).build(41);
        for sample in &data {
            let record = pipeline.infer(sample).unwrap();

            // Reconstruct the pre-early-exit semantics from full curves.
            let crop = pipeline.config().crop;
            let preview_res = 112usize;
            let original = sample.render().unwrap();
            let encoded = sample.encode_progressive(pipeline.config().encode_quality).unwrap();
            let mut all_res = vec![preview_res];
            all_res.extend(pipeline.config().resolutions.iter().copied());
            all_res.dedup();
            let curves =
                CalibrationCurves::sample_curves(&original, &encoded, crop, &all_res).unwrap();
            let point_for = |res: usize| {
                let idx = all_res.iter().position(|&r| r == res).unwrap();
                match pipeline.config().storage.threshold_for(res) {
                    Some(t) => curves[idx].point_for_threshold(t).unwrap(),
                    None => *curves[idx].points.last().unwrap(),
                }
            };
            let preview_point = point_for(preview_res);
            let chosen_point = point_for(record.chosen_resolution);
            let scans_read = preview_point.scans.max(chosen_point.scans);
            let chosen_idx = all_res.iter().position(|&r| r == record.chosen_resolution).unwrap();
            let quality = curves[chosen_idx].points[scans_read - 1].ssim;

            assert_eq!(record.scans_read, scans_read, "sample {}", sample.id);
            assert_eq!(record.quality.to_bits(), quality.to_bits(), "sample {}", sample.id);
            assert_eq!(record.bytes_read, encoded.cumulative_bytes(scans_read));
        }
    }

    /// The planner this one replaced, kept as its reference: the preview walk and the
    /// chosen resolution's threshold walk each run their own `ProgressiveDecoder`, so the
    /// early scans are decoded twice and no prefix is retained.
    mod two_pass {
        use super::*;
        use rescnn_imaging::{CropRatio, Image};
        use rescnn_projpeg::ProgressiveDecoder;

        fn cheapest_sufficient_point(
            decoder: &mut ProgressiveDecoder<'_>,
            reference: &SsimReference,
            crop: CropRatio,
            res: usize,
            threshold: Option<f64>,
        ) -> Result<(ScanPoint, Image)> {
            let encoded = decoder.image();
            let num_scans = encoded.num_scans();
            match threshold {
                Some(threshold) => loop {
                    let scans = decoder.scans_applied() + 1;
                    let frame = decoder.advance()?;
                    let presented = crop_and_resize_cow(frame, crop, res)?;
                    let ssim = reference.score(&presented)?;
                    let point =
                        ScanPoint { scans, read_fraction: encoded.read_fraction(scans), ssim };
                    if ssim >= threshold || scans == num_scans {
                        return Ok((point, presented.into_owned()));
                    }
                },
                None => {
                    let frame = decoder.advance_to(num_scans)?;
                    let presented = crop_and_resize_cow(frame, crop, res)?;
                    let point = ScanPoint {
                        scans: num_scans,
                        read_fraction: encoded.read_fraction(num_scans),
                        ssim: reference.score(&presented)?,
                    };
                    Ok((point, presented.into_owned()))
                }
            }
        }

        pub(super) fn plan(
            pipeline: &DynamicResolutionPipeline,
            sample: &Sample,
            encoded: ProgressiveImage,
        ) -> Result<InferencePlan> {
            let original = sample.render()?;
            let crop = pipeline.config.crop;
            let storage = &pipeline.config.storage;
            let preview_res = pipeline.scale_model.preview_resolution();
            let num_scans = encoded.num_scans();

            let preview_reference = crop_and_resize_cow(&original, crop, preview_res)?;
            let preview_reference = SsimReference::new(&preview_reference, SsimConfig::default())?;
            let mut decoder = encoded.progressive_decoder()?;
            let (preview_point, preview_image) = cheapest_sufficient_point(
                &mut decoder,
                &preview_reference,
                crop,
                preview_res,
                storage.threshold_for(preview_res),
            )?;
            let features = extract_features(&preview_image)?;
            let chosen_resolution = pipeline.scale_model.choose_resolution(&features);

            let (chosen_point, scans_read, quality) = if chosen_resolution == preview_res {
                (preview_point, preview_point.scans, preview_point.ssim)
            } else {
                let chosen_reference = crop_and_resize_cow(&original, crop, chosen_resolution)?;
                let chosen_reference =
                    SsimReference::new(&chosen_reference, SsimConfig::default())?;
                match storage.threshold_for(chosen_resolution) {
                    None => {
                        let (point, _) = cheapest_sufficient_point(
                            &mut decoder,
                            &chosen_reference,
                            crop,
                            chosen_resolution,
                            None,
                        )?;
                        (point, preview_point.scans.max(num_scans), point.ssim)
                    }
                    Some(threshold) => {
                        let mut chosen_decoder = encoded.progressive_decoder()?;
                        let (point, _) = cheapest_sufficient_point(
                            &mut chosen_decoder,
                            &chosen_reference,
                            crop,
                            chosen_resolution,
                            Some(threshold),
                        )?;
                        let scans_read = preview_point.scans.max(point.scans);
                        let quality = if scans_read == point.scans {
                            point.ssim
                        } else {
                            let frame = decoder.advance_to(scans_read)?;
                            let presented = crop_and_resize_cow(frame, crop, chosen_resolution)?;
                            chosen_reference.score(&presented)?
                        };
                        (point, scans_read, quality)
                    }
                }
            };
            Ok(InferencePlan {
                chosen_resolution,
                encoded,
                preview_point,
                chosen_point,
                scans_read,
                quality,
            })
        }

        /// The walking `replan_at` as it stood before reads were indexed: the rung's own
        /// threshold walk on a fresh decoder, then the deeper prefix the preview paid for.
        pub(super) fn replan(
            pipeline: &DynamicResolutionPipeline,
            sample: &Sample,
            plan: &InferencePlan,
            resolution: usize,
        ) -> Result<InferencePlan> {
            let crop = pipeline.config.crop;
            let original = sample.render()?;
            let reference = crop_and_resize_cow(&original, crop, resolution)?;
            let reference = SsimReference::new(&reference, SsimConfig::default())?;
            let mut decoder = plan.encoded.progressive_decoder()?;
            let (chosen_point, _) = cheapest_sufficient_point(
                &mut decoder,
                &reference,
                crop,
                resolution,
                pipeline.config.storage.threshold_for(resolution),
            )?;
            let scans_read = plan.preview_point.scans.max(chosen_point.scans);
            let quality = if scans_read == chosen_point.scans {
                chosen_point.ssim
            } else {
                let frame = decoder.advance_to(scans_read)?;
                reference.score(&*crop_and_resize_cow(frame, crop, resolution)?)?
            };
            Ok(InferencePlan {
                chosen_resolution: resolution,
                encoded: plan.encoded.clone(),
                preview_point: plan.preview_point,
                chosen_point,
                scans_read,
                quality,
            })
        }
    }

    /// Field-by-field, bitwise plan equality (`f64`s by bit pattern).
    fn assert_plans_identical(new: &InferencePlan, reference: &InferencePlan, context: &str) {
        let point_bits = |p: &ScanPoint| (p.scans, p.read_fraction.to_bits(), p.ssim.to_bits());
        assert_eq!(new.chosen_resolution, reference.chosen_resolution, "{context}: resolution");
        assert_eq!(
            point_bits(&new.preview_point),
            point_bits(&reference.preview_point),
            "{context}: preview point"
        );
        assert_eq!(
            point_bits(&new.chosen_point),
            point_bits(&reference.chosen_point),
            "{context}: chosen point"
        );
        assert_eq!(new.scans_read, reference.scans_read, "{context}: scans read");
        assert_eq!(new.quality.to_bits(), reference.quality.to_bits(), "{context}: quality");
        assert!(new.encoded == reference.encoded, "{context}: stream");
    }

    /// The frame an indexed read presents is, bit for bit, the from-scratch decode of the
    /// prefix the plan reads, cropped and resized to the plan's rung.
    fn assert_presents_the_planned_read(frame: &Image, plan: &InferencePlan, crop: CropRatio) {
        let decoded = plan.encoded.decode(plan.scans_read).unwrap();
        let expected =
            rescnn_imaging::crop_and_resize(&decoded, crop, plan.chosen_resolution).unwrap();
        assert_eq!(frame.dimensions(), expected.dimensions());
        let bits =
            |image: &Image| image.as_planar().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert!(bits(frame) == bits(&expected), "presented frame differs from decode + resize");
    }

    /// A small ladder keeps the debug-build SSIMs cheap; the preview rung is its lowest.
    const SMALL_LADDER: [usize; 3] = [64, 96, 128];

    fn thresholds(values: &[(usize, f64)]) -> StoragePolicy {
        StoragePolicy::from_thresholds(values.iter().copied().collect::<BTreeMap<_, _>>())
    }

    /// A scale model over [`SMALL_LADDER`] that spreads `pool` over the ladder: fitted to
    /// say that sample k is classified correctly at rung k mod 3 only.
    fn spread_scale_model(pool: &Dataset, crop: CropRatio) -> ScaleModel {
        use crate::scale_model::TrainingExample;
        let config = ScaleModelConfig {
            resolutions: SMALL_LADDER.to_vec(),
            preview_resolution: SMALL_LADDER[0],
            epochs: 200,
            ..Default::default()
        };
        let examples: Vec<TrainingExample> = pool
            .iter()
            .enumerate()
            .map(|(k, sample)| {
                let preview = crop_and_resize_cow(&sample.render().unwrap(), crop, SMALL_LADDER[0])
                    .unwrap()
                    .into_owned();
                TrainingExample {
                    features: extract_features(&preview).unwrap(),
                    labels: (0..3).map(|rung| rung == k % 3).collect(),
                }
            })
            .collect();
        ScaleModel::train(&config, &examples).unwrap()
    }

    /// A Cars-like pool of `len` small images, their stored streams, and a pipeline over
    /// [`SMALL_LADDER`] that reads them under `storage`.
    fn small_deployment(
        len: usize,
        storage: StoragePolicy,
    ) -> (Dataset, Vec<ProgressiveImage>, DynamicResolutionPipeline) {
        let crop = CropRatio::new(0.56).unwrap();
        let pool = DatasetSpec::cars_like().with_len(len).with_max_dimension(72).build(123);
        let config = PipelineConfig::new(ModelKind::ResNet18, DatasetKind::CarsLike)
            .with_crop(crop)
            .with_resolutions(SMALL_LADDER.to_vec())
            .with_storage(storage);
        let streams =
            pool.iter().map(|s| s.encode_progressive(config.encode_quality).unwrap()).collect();
        let scale_model = spread_scale_model(&pool, crop);
        let pipeline =
            DynamicResolutionPipeline::new(config, scale_model, AccuracyOracle::new(77)).unwrap();
        (pool, streams, pipeline)
    }

    /// Plans (or plan errors) agree: field by field, or the same `CoreError`.
    fn assert_outcomes_identical(
        new: Result<InferencePlan>,
        reference: Result<InferencePlan>,
        context: &str,
    ) {
        match (new, reference) {
            (Ok(new), Ok(reference)) => assert_plans_identical(&new, &reference, context),
            (new, reference) => {
                assert_eq!(new.map(|_| ()).err(), reference.map(|_| ()).err(), "{context}")
            }
        }
    }

    #[test]
    fn one_pass_planner_matches_the_two_pass_reference() {
        use crate::calibration::{CalibrationCurves, StorageCalibrator};
        use std::cmp::Ordering::{Equal, Greater, Less};

        let resolutions = SMALL_LADDER.to_vec();
        let crop = CropRatio::new(0.56).unwrap();
        // How deep the preview walk went relative to the chosen resolution's own point,
        // over everything planned below: [preview == chosen, shallower, equal, deeper].
        let mut coverage = [0usize; 4];

        for (kind, spec) in [
            (DatasetKind::CarsLike, DatasetSpec::cars_like()),
            (DatasetKind::ImageNetLike, DatasetSpec::imagenet_like()),
        ] {
            let pool = spec.with_len(6).with_max_dimension(72).build(123);
            let scale_model = spread_scale_model(&pool, crop);
            let oracle = AccuracyOracle::new(77);
            let curves =
                CalibrationCurves::compute(&pool, ModelKind::ResNet18, crop, &resolutions, 90)
                    .unwrap();
            let calibrated = StorageCalibrator::default().calibrate(&curves, &oracle);
            let policies = [
                ("read-all", StoragePolicy::read_all()),
                ("calibrated", calibrated),
                // No prefix reaches an SSIM of 2: every walk runs to the last scan.
                ("unreachable", thresholds(&[(64, 2.0), (96, 2.0), (128, 2.0)])),
                // A demanding preview over lenient backbones, and the reverse.
                ("deep-preview", thresholds(&[(64, 0.995), (96, 0.90), (128, 0.90)])),
                ("deep-chosen", thresholds(&[(64, 0.90), (96, 0.995), (128, 0.995)])),
                // Mixed policies: a rung without a threshold is read in full.
                ("preview-unthresholded", thresholds(&[(96, 0.95), (128, 0.95)])),
                ("preview-only", thresholds(&[(64, 0.95)])),
            ];
            for (label, storage) in policies {
                let pipeline_config = PipelineConfig::new(ModelKind::ResNet18, kind)
                    .with_crop(crop)
                    .with_resolutions(resolutions.clone())
                    .with_storage(storage);
                let pipeline =
                    DynamicResolutionPipeline::new(pipeline_config, scale_model.clone(), oracle)
                        .unwrap();
                for sample in &pool {
                    let context = format!("{kind:?} {label} sample {}", sample.id);
                    let encoded =
                        sample.encode_progressive(pipeline.config().encode_quality).unwrap();
                    let plan = pipeline.plan_with_storage(sample, encoded.clone()).unwrap();
                    let reference = two_pass::plan(&pipeline, sample, encoded.clone()).unwrap();
                    assert_plans_identical(&plan, &reference, &context);

                    let relation = match plan.preview_point.scans.cmp(&plan.chosen_point.scans) {
                        _ if plan.chosen_resolution == 64 => 0,
                        Less => 1,
                        Equal => 2,
                        Greater => 3,
                    };
                    coverage[relation] += 1;

                    // That first sight walked the stream and indexed what it measured:
                    // the second read is the reference-free one — given the stream and
                    // the index, nothing else — and changes nothing.
                    let again = pipeline.plan_with_storage(sample, encoded.clone()).unwrap();
                    assert_plans_identical(&again, &reference, &format!("{context} warm"));
                    let index = pipeline.indexed(encoded.digest(), sample).expect("indexed");
                    let (read, frame) = pipeline.plan_indexed(&encoded, &index).unwrap().unwrap();
                    assert_plans_identical(&read.of(encoded.clone()), &reference, &context);
                    assert_presents_the_planned_read(&frame, &reference, crop);

                    // The degradation ladder: the first re-plan at a rung walks it (as
                    // `replan_at` always used to, unless the rung is the preview's and so
                    // already on the index), the second looks it up.
                    let lower = resolutions.iter().filter(|&&r| r < plan.chosen_resolution);
                    for &rung in lower.clone() {
                        let context = format!("{context} @{rung}");
                        let expected = two_pass::replan(&pipeline, sample, &reference, rung);
                        let expected = expected.unwrap();
                        let walked = pipeline.replan_at(sample, &plan, rung).unwrap();
                        assert_plans_identical(&walked, &expected, &context);
                        let index = pipeline.indexed(encoded.digest(), sample).unwrap();
                        assert!(index.rung(rung).is_some(), "{context}: not recorded");
                        let looked_up = pipeline.replan_at(sample, &again, rung).unwrap();
                        assert_plans_identical(&looked_up, &expected, &format!("{context} warm"));
                    }

                    // Ingest ahead of any read (a pipeline of its own, so nothing above
                    // is on its index): every rung is measured up front, and the plan and
                    // every degradation of it are lookups from the first request on.
                    let ingested = pipeline.clone().with_scan_index_capacity(8);
                    let index = ingested.ingest(sample, &encoded).unwrap();
                    assert_eq!(index.points().map(|(r, _)| r).collect::<Vec<_>>(), resolutions);
                    assert_eq!(*ingested.indexed(encoded.digest(), sample).unwrap(), index);
                    let (read, frame) = ingested.plan_indexed(&encoded, &index).unwrap().unwrap();
                    assert_plans_identical(&read.of(encoded.clone()), &reference, &context);
                    assert_presents_the_planned_read(&frame, &reference, crop);
                    let planned = ingested.plan_with_storage(sample, encoded.clone()).unwrap();
                    assert_plans_identical(&planned, &reference, &format!("{context} ingested"));
                    for &rung in lower {
                        let context = format!("{context} ingested @{rung}");
                        let expected = two_pass::replan(&pipeline, sample, &reference, rung);
                        let lowered = ingested.replan_at(sample, &planned, rung).unwrap();
                        assert_plans_identical(&lowered, &expected.unwrap(), &context);
                    }
                    assert_eq!(*ingested.indexed(encoded.digest(), sample).unwrap(), index);

                    // Damaged streams fail (or decode) the same way, scan for scan.
                    let id = sample.id as usize;
                    for (what, damaged) in [
                        ("flip", encoded.with_bit_flip(id, 20 + 7 * id, id as u8)),
                        ("truncated", encoded.with_truncated_scan(id, 17 + id % 24)),
                    ] {
                        let new = pipeline.plan_with_storage(sample, damaged.clone());
                        let old = two_pass::plan(&pipeline, sample, damaged);
                        assert_outcomes_identical(new, old, &format!("{context} {what}"));
                    }
                }
            }
        }
        assert!(
            coverage.iter().all(|&hits| hits >= 5),
            "every relation of preview depth to chosen depth must be exercised, got {coverage:?}"
        );
    }

    #[test]
    fn an_index_is_never_trusted_across_bytes() {
        // The preview and the middle rung are lenient; the top rung is never satisfied, so
        // it — and with it any ingest — reads every scan.
        let storage = thresholds(&[(64, 0.90), (96, 0.90), (128, 2.0)]);
        let (pool, streams, pipeline) = small_deployment(6, storage);
        let last = streams[0].num_scans() - 1;
        let mut short_reads = 0;
        for (id, (sample, pristine)) in pool.iter().zip(&streams).enumerate() {
            let context = format!("sample {id}");
            let fresh = || pipeline.clone().with_scan_index_capacity(8);

            // With the pristine stream ingested, its damaged copies — clones of the very
            // value that was indexed — are strangers: each plans, or fails, exactly as
            // the walking reference does on the damaged bytes.
            let ingested = fresh();
            ingested.ingest(sample, pristine).unwrap();
            for (what, damaged) in [
                ("flip", pristine.with_bit_flip(0, 40 + 11 * id, id as u8)),
                ("late flip", pristine.with_bit_flip(id, 20 + 7 * id, id as u8)),
                ("truncated", pristine.with_truncated_scan(0, 17 + id)),
                ("late truncated", pristine.with_truncated_scan(1 + id % last, 17 + id)),
            ] {
                assert!(ingested.indexed(damaged.digest(), sample).is_none(), "{context} {what}");
                let expected = two_pass::plan(&pipeline, sample, damaged.clone());
                for sight in ["first", "second"] {
                    let planned = ingested.plan_with_storage(sample, damaged.clone());
                    let context = format!("{context} {what}, {sight} sight");
                    assert_outcomes_identical(planned, expected.clone(), &context);
                }
            }

            // Damage in the last scan alone: ingest reads that far, fails with the
            // walk's error and records nothing. A read that stops short of the damage
            // must still plan exactly as it always has — at first sight and from the
            // index that sight leaves behind.
            let damaged = pristine.with_truncated_scan(last, 17 + id);
            let stream_error = damaged.decode(damaged.num_scans()).unwrap_err();
            let ingested = fresh();
            assert_eq!(ingested.ingest(sample, &damaged).err(), Some(stream_error.into()));
            assert!(ingested.indexed(damaged.digest(), sample).is_none(), "{context}");
            let expected = two_pass::plan(&pipeline, sample, damaged.clone());
            short_reads += usize::from(expected.is_ok());
            for sight in ["first", "second"] {
                let planned = ingested.plan_with_storage(sample, damaged.clone());
                let context = format!("{context} damaged tail, {sight} sight");
                assert_outcomes_identical(planned, expected.clone(), &context);
            }
            let indexed = ingested.indexed(damaged.digest(), sample).is_some();
            assert_eq!(indexed, expected.is_ok(), "{context}: only a plan that succeeds records");
        }
        assert!(short_reads >= 2, "some reads must stop short of the damaged tail");

        // Sample ids repeat across datasets (they count up from the build seed). The same
        // bytes offered with another dataset's sample of the same id are scored against
        // another original: neither sample ever sees what was measured for the other.
        let others = DatasetSpec::imagenet_like().with_len(1).with_max_dimension(72).build(123);
        let (ours, theirs, stream) = (&pool[0], &others[0], &streams[0]);
        assert!(ours.id == theirs.id && ours.scene != theirs.scene);
        pipeline.ingest(ours, stream).unwrap();
        let expected_ours = two_pass::plan(&pipeline, ours, stream.clone()).unwrap();
        let expected_theirs = two_pass::plan(&pipeline, theirs, stream.clone()).unwrap();
        assert_ne!(expected_ours.quality.to_bits(), expected_theirs.quality.to_bits());
        for (sample, expected) in
            [(theirs, &expected_theirs), (ours, &expected_ours), (theirs, &expected_theirs)]
        {
            for sight in ["first", "second"] {
                let planned = pipeline.plan_with_storage(sample, stream.clone()).unwrap();
                assert_plans_identical(&planned, expected, &format!("shared id, {sight} sight"));
            }
        }
    }

    #[test]
    fn the_scan_index_changes_time_never_values() {
        use crate::{
            BatchOptions, BatchScheduler, ResolutionLatencyModel, ServerConfig, ServerRequest,
            SloOptions, SloReport, SloRequest, SloScheduler, SloServer,
        };

        let storage = thresholds(&[(64, 0.95), (96, 0.90), (128, 0.995)]);
        let (pool, mut streams, pipeline) = small_deployment(9, storage);
        // One request in the mix carries a stream damaged where every read meets it.
        streams[4] = streams[4].with_truncated_scan(0, 9);

        // Three states of the store: empty, never holding more than the last stream
        // planned, and holding every rung of every healthy stream ahead of time.
        let cold = || pipeline.clone().with_scan_index_capacity(SCAN_INDEX_CAPACITY);
        let tiny = pipeline.clone().with_scan_index_capacity(1);
        let warm = cold();
        for (k, (sample, stream)) in pool.iter().zip(&streams).enumerate() {
            assert_eq!(warm.ingest(sample, stream).is_err(), k == 4);
        }

        let drain = |pipeline: &DynamicResolutionPipeline, threads: usize| {
            let mut scheduler =
                BatchScheduler::new(pipeline, BatchOptions::default().with_threads(threads));
            for (sample, stream) in pool.iter().zip(&streams) {
                scheduler.submit_with_storage(sample, stream.clone());
            }
            let served = scheduler.run().unwrap();
            (served.report, served.errors)
        };
        // Deadlines tight enough that the ladder walk degrades some requests (re-plans
        // at lower rungs, bounded by an SSIM floor) and sheds others.
        let latency = ResolutionLatencyModel::from_estimates([(64, 5.0), (96, 12.0), (128, 30.0)]);
        let options = |threads: usize| {
            SloOptions::default()
                .with_latency_model(latency.clone())
                .with_ssim_floor(0.95)
                .with_batch(BatchOptions::default().with_threads(threads))
        };
        let timeless = |mut report: SloReport| {
            report.wall_seconds = 0.0;
            report
        };
        let slo = |pipeline: &DynamicResolutionPipeline, threads: usize| {
            let mut scheduler = SloScheduler::new(pipeline, options(threads));
            for (k, (sample, stream)) in pool.iter().zip(&streams).enumerate() {
                let arrival = (k / 3) as f64 * 20.0;
                let request = SloRequest::new(sample, arrival, arrival + 18.0);
                scheduler.submit(request.with_storage(stream.clone()));
            }
            timeless(scheduler.run().unwrap())
        };

        // A live server's recorded run, to replay under every store.
        let live = {
            let config = ServerConfig::default().with_options(options(2)).with_record(true);
            let mut server = SloServer::start(Arc::new(cold()), config).unwrap();
            let stream = server.completions().unwrap();
            let consumer = std::thread::spawn(move || stream.count());
            for (k, (sample, stored)) in pool.iter().zip(&streams).enumerate() {
                let slack = [60_000.0, 35.0, 14.0][k % 3];
                let request = ServerRequest::new(Arc::new(sample.clone()), slack);
                server.submit(request.with_storage(stored.clone())).unwrap();
            }
            let report = server.join().unwrap();
            assert_eq!(consumer.join().unwrap(), pool.len());
            let trace = report.trace.expect("a recording run carries its trace");
            assert!(trace.replayable());
            trace
        };
        let replay = |pipeline: &DynamicResolutionPipeline, threads: usize| {
            let mut scheduler = SloScheduler::new(pipeline, options(threads));
            for (sample, stream) in pool.iter().zip(&streams) {
                // Placeholder stamps: replay takes every stamp from the trace.
                scheduler.submit(SloRequest::new(sample, 0.0, 1.0).with_storage(stream.clone()));
            }
            let (report, replayed) = scheduler.replay(&live).unwrap();
            assert_eq!(replayed.decisions, live.decisions);
            timeless(report)
        };

        let expected_slo = slo(&cold(), 1);
        assert!(expected_slo.degraded > 0 && expected_slo.shed > 0 && expected_slo.faulted == 1);
        for threads in [1usize, 2, 4] {
            let expected_drain = drain(&cold(), threads);
            assert_eq!(expected_drain.1.len(), 1, "the damaged stream is the one error");
            let expected_slo = SloReport { threads, ..expected_slo.clone() };
            let expected_replay = replay(&cold(), threads);
            // Twice each: the second pass of `tiny` finds at most the last stream of the
            // first, the second pass of `warm` what the first left as it found it.
            for pass in 0..2 {
                for (state, pipeline) in [("capacity 1", &tiny), ("warm", &warm)] {
                    let context = format!("{state}, pass {pass}, {threads} threads");
                    assert_eq!(drain(pipeline, threads), expected_drain, "{context}: drain");
                    assert_eq!(slo(pipeline, threads), expected_slo, "{context}: slo");
                    assert_eq!(replay(pipeline, threads), expected_replay, "{context}: replay");
                }
            }
        }
        let held = |pipeline: &DynamicResolutionPipeline| pipeline.scan_index.lock().unwrap().len();
        assert_eq!((held(&tiny), held(&warm)), (1, pool.len() - 1));
    }

    #[test]
    fn concurrent_first_sights_record_equal_entries() {
        let (pool, streams, pipeline) = small_deployment(3, thresholds(&[(64, 0.95), (96, 0.9)]));
        for (sample, stream) in pool.iter().zip(&streams) {
            let digest = stream.digest();
            let alone = pipeline.clone().with_scan_index_capacity(8);
            let expected = alone.plan_walking(sample, stream.clone(), digest).unwrap();
            let expected_index = alone.indexed(digest, sample).unwrap();

            // Both workers are past the lookup — each has found nothing — before either
            // records: the barrier holds them at the walk, which is where a miss leads.
            let shared = pipeline.clone().with_scan_index_capacity(8);
            let barrier = std::sync::Barrier::new(2);
            let plans = std::thread::scope(|scope| {
                let workers = [(); 2].map(|()| {
                    scope.spawn(|| {
                        assert!(shared.indexed(digest, sample).is_none());
                        barrier.wait();
                        shared.plan_walking(sample, stream.clone(), digest).unwrap()
                    })
                });
                workers.map(|worker| worker.join().unwrap())
            });
            for plan in &plans {
                assert_plans_identical(plan, &expected, "concurrent first sight");
            }
            assert_eq!(shared.indexed(digest, sample).unwrap(), expected_index);
            assert_eq!(shared.scan_index.lock().unwrap().len(), 1);
        }
    }

    #[test]
    fn gflops_accounting_matches_architectures() {
        let pipeline = build_pipeline(0.75, vec![112, 224]);
        let r18 = ModelKind::ResNet18.arch(DatasetKind::CarsLike.num_classes());
        assert!((pipeline.backbone_gflops(224).unwrap() - r18.gflops(224).unwrap()).abs() < 1e-9);
        assert!(pipeline.backbone_gflops(999).is_none());
        let mb2 = ModelKind::MobileNetV2.arch(DatasetKind::CarsLike.num_classes());
        assert!((pipeline.scale_model_gflops() - mb2.gflops(112).unwrap()).abs() < 1e-9);
    }
}
