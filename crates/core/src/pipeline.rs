//! The dynamic-resolution inference pipeline (Figure 4) and its evaluation harness.
//!
//! Storage holds progressively encoded images. For each image the pipeline first reads the
//! scans its storage policy prescribes for the 112 × 112 preview, runs the scale model on
//! that preview, picks the backbone resolution predicted most likely to be correct, reads
//! any additional scans the chosen resolution requires, and finally runs the backbone.
//! Accuracy is judged by the calibrated oracle on exactly what was decoded; compute cost
//! is accounted in FLOPs of the backbone at the chosen resolution plus the scale model.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};

use rescnn_data::{Dataset, DatasetKind, Sample};
use rescnn_imaging::{crop_and_resize_cow, CropRatio, SsimConfig, SsimReference};
use rescnn_models::ModelKind;
use rescnn_oracle::{AccuracyOracle, EvalContext};
use rescnn_projpeg::{ProgressiveImage, ScanPlan};
use rescnn_tensor::{
    algo_calibration_generation, AlgoCalibration, ConvAlgo, ConvShapeKey, EngineContext,
};

use crate::calibration::{PrefixWalk, ScanPoint, StoragePolicy};
use crate::error::{CoreError, Result};
use crate::features::extract_features;
use crate::scale_model::ScaleModel;

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
    /// Path to a persisted convolution-dispatch calibration (written by
    /// `rescnn_hwsim::CalibratedCostModel::save`). When set, pipeline
    /// construction loads it and installs the measured-fastest-algorithm table
    /// via [`install_conv_calibration`], so serving starts warm with the
    /// dispatch defaults wall-clock sweeps picked on this host. Unlike thread
    /// budgets, the table is deliberately process-wide: it supplies *default*
    /// choices only (scoped/global overrides and uncalibrated shapes are
    /// unaffected), so concurrent pipelines cannot disagree about it.
    pub conv_calibration: Option<String>,
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
            conv_calibration: None,
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

    /// Warm-starts convolution dispatch from a persisted calibration file (see
    /// [`PipelineConfig::conv_calibration`]).
    pub fn with_conv_calibration(mut self, path: impl Into<String>) -> Self {
        self.conv_calibration = Some(path.into());
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
    /// and the batch scheduler build their reports through this one fold, which is
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

/// Loads a convolution-dispatch calibration persisted by
/// `rescnn_hwsim::CalibratedCostModel::save` and installs its
/// measured-fastest-algorithm table process-wide
/// ([`rescnn_tensor::install_algo_calibration`]), returning the number of
/// calibrated layer shapes.
///
/// Serving deployments run the measured sweep offline (see
/// `examples/kernel_tuning.rs`), persist it, and point
/// [`PipelineConfig::with_conv_calibration`] at the file so every pipeline in
/// the process starts warm. Explicit algorithm overrides and shapes absent from
/// the table are unaffected.
///
/// What [`install_conv_calibration`] accomplished: how much of the file this
/// build could use, and what it had to leave behind.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationInstall {
    /// Calibrated layer shapes now steering default dispatch.
    pub shapes: usize,
    /// Persisted entries skipped because their algorithm names are unknown to
    /// this build (a file written by a newer engine). The load still succeeds;
    /// callers surface these as [`PipelineWarning::CalibrationEntriesSkipped`].
    pub skipped: Vec<rescnn_hwsim::SkippedCalibration>,
}

/// Loads a convolution-dispatch calibration persisted by
/// `rescnn_hwsim::CalibratedCostModel::save` and installs its
/// measured-fastest-algorithm table process-wide
/// ([`rescnn_tensor::install_algo_calibration`]), returning the number of
/// calibrated layer shapes along with any entries the load skipped.
///
/// Serving deployments run the measured sweep offline (see
/// `examples/kernel_tuning.rs`), persist it, and point
/// [`PipelineConfig::with_conv_calibration`] at the file so every pipeline in
/// the process starts warm. Explicit algorithm overrides and shapes absent from
/// the table are unaffected. Entries whose algorithm name this build does not
/// recognize are skipped (and reported), not fatal: a calibration file from a
/// newer engine still warm-starts every arm this build has.
///
/// # Errors
/// Returns [`CoreError::InvalidConfig`] if the file cannot be read or parsed.
pub fn install_conv_calibration(path: &str) -> Result<CalibrationInstall> {
    let model = rescnn_hwsim::CalibratedCostModel::load(path, rescnn_hwsim::CpuProfile::host())
        .map_err(|e| CoreError::InvalidConfig {
            reason: format!("conv calibration {path}: {e}"),
        })?;
    let table = model.dispatch_table();
    let shapes = table.len();
    rescnn_tensor::install_algo_calibration(Some(table));
    Ok(CalibrationInstall { shapes, skipped: model.skipped_entries().to_vec() })
}

/// Cached per-resolution bucket dispatch tables — keyed by `(resolution,
/// int8)`, each tagged with the process-wide calibration generation it was
/// resolved under.
type BucketDispatchCache = BTreeMap<(usize, bool), (u64, Arc<AlgoCalibration>)>;

/// A non-fatal condition recorded during pipeline construction: the pipeline
/// is fully usable, but degraded from what the configuration asked for.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum PipelineWarning {
    /// A configured conv-calibration file could not be loaded (missing,
    /// truncated, corrupt). The pipeline fell back to the analytic cost model
    /// instead of failing construction — a stale warm-start file must never
    /// take serving down.
    CalibrationLoadFailed {
        /// The configured calibration path.
        path: String,
        /// Why the load failed.
        reason: String,
    },
    /// A conv-calibration file loaded, but some of its entries named kernel
    /// algorithms this build does not have (the file came from a newer
    /// engine). Every entry this build understands was installed; the named
    /// arm simply contributes nothing to dispatch.
    CalibrationEntriesSkipped {
        /// The configured calibration path.
        path: String,
        /// The unrecognized algorithm name.
        algo: String,
        /// How many persisted entries carried that name.
        lines: usize,
    },
}

impl std::fmt::Display for PipelineWarning {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineWarning::CalibrationLoadFailed { path, reason } => write!(
                f,
                "conv calibration {path} failed to load ({reason}); using the analytic cost model"
            ),
            PipelineWarning::CalibrationEntriesSkipped { path, algo, lines } => write!(
                f,
                "conv calibration {path}: skipped {lines} entr{} for unknown algorithm \
                 {algo:?}; remaining entries installed",
                if *lines == 1 { "y" } else { "ies" }
            ),
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
    /// Per-resolution-bucket conv-dispatch tables, resolved lazily and tagged
    /// with the calibration generation they were derived from (shared across
    /// pipeline clones; see [`DynamicResolutionPipeline::bucket_dispatch`]).
    bucket_dispatch: Arc<Mutex<BucketDispatchCache>>,
    /// Planned peak-live activation bytes per resolution, computed lazily from
    /// `Network::arena_plan` (shared across clones; see
    /// [`DynamicResolutionPipeline::arena_peak_bytes`]).
    arena_peaks: Arc<Mutex<BTreeMap<usize, usize>>>,
    /// Non-fatal degradations recorded at construction.
    warnings: Vec<PipelineWarning>,
}

impl DynamicResolutionPipeline {
    /// Assembles a pipeline from its parts.
    ///
    /// # Errors
    /// Returns an error if the configuration has no candidate resolutions or the FLOP
    /// accounting fails.
    pub fn new(
        config: PipelineConfig,
        scale_model: ScaleModel,
        oracle: AccuracyOracle,
    ) -> Result<Self> {
        if config.resolutions.is_empty() {
            return Err(CoreError::InvalidConfig { reason: "no candidate resolutions".into() });
        }
        // A bad warm-start calibration file degrades to the analytic cost
        // model with a recorded warning — it must not fail construction.
        let mut warnings = Vec::new();
        if let Some(path) = &config.conv_calibration {
            match install_conv_calibration(path) {
                Ok(install) => {
                    // Aggregate skips per unknown algorithm name: one warning
                    // per foreign arm, not one per persisted line.
                    let mut by_algo: BTreeMap<&str, usize> = BTreeMap::new();
                    for entry in &install.skipped {
                        *by_algo.entry(entry.algo.as_str()).or_insert(0) += 1;
                    }
                    for (algo, lines) in by_algo {
                        warnings.push(PipelineWarning::CalibrationEntriesSkipped {
                            path: path.clone(),
                            algo: algo.to_string(),
                            lines,
                        });
                    }
                }
                Err(error) => {
                    warnings.push(PipelineWarning::CalibrationLoadFailed {
                        path: path.clone(),
                        reason: error.to_string(),
                    });
                }
            }
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
            bucket_dispatch: Arc::new(Mutex::new(BucketDispatchCache::new())),
            arena_peaks: Arc::new(Mutex::new(BTreeMap::new())),
            warnings,
        })
    }

    /// Non-fatal degradations recorded while the pipeline was constructed
    /// (e.g. an unreadable calibration warm-start file). Empty in the healthy
    /// case.
    pub fn warnings(&self) -> &[PipelineWarning] {
        &self.warnings
    }

    /// Planned peak-live activation bytes of one backbone forward at
    /// `resolution`, from `Network::arena_plan`'s liveness simulation
    /// (computed once per resolution, cached across pipeline clones).
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
        let mut cache = self.arena_peaks.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(&bytes) = cache.get(&resolution) {
            return Ok(bytes);
        }
        let network = rescnn_models::Network::new(
            self.config.backbone,
            self.config.dataset.num_classes(),
            0, // weights do not affect the arena plan
        );
        let plan =
            network.arena_plan(rescnn_tensor::Shape::chw(3, resolution, resolution)).map_err(
                |e| CoreError::InvalidConfig { reason: format!("arena plan at {resolution}: {e}") },
            )?;
        cache.insert(resolution, plan.peak_live_bytes);
        Ok(plan.peak_live_bytes)
    }

    /// The per-shape convolution dispatch table for one resolution bucket:
    /// every conv layer of the backbone at `resolution`, resolved through
    /// [`rescnn_tensor::select_algo`] **once** and cached — instead of per
    /// layer per request inside the bucket. The cache is shared across
    /// pipeline clones and invalidated automatically when a new process-wide
    /// calibration table is installed (e.g. by a sweep-once-on-boot run
    /// finishing).
    ///
    /// The batch scheduler installs the returned table as a scoped calibration
    /// ([`rescnn_tensor::with_algo_calibration_scope`]) around each bucket's
    /// execution. Because the entries are exactly what dispatch would have
    /// resolved anyway, this never changes results — it removes the per-call
    /// calibration lock from the bucket's hot path.
    pub fn bucket_dispatch(&self, resolution: usize) -> Arc<AlgoCalibration> {
        self.bucket_dispatch_impl(resolution, false)
    }

    /// The quantized variant of [`bucket_dispatch`](Self::bucket_dispatch):
    /// the same per-shape table with every int8-eligible convolution
    /// overridden onto [`ConvAlgo::Int8`] (grouped/depthwise shapes keep
    /// their f32 kernels — the arm cannot run them). The SLO scheduler scopes
    /// this table around a precision-demoted bucket's execution; it never
    /// leaks into f32 buckets or process-wide state.
    pub fn bucket_dispatch_int8(&self, resolution: usize) -> Arc<AlgoCalibration> {
        self.bucket_dispatch_impl(resolution, true)
    }

    fn bucket_dispatch_impl(&self, resolution: usize, int8: bool) -> Arc<AlgoCalibration> {
        let generation = algo_calibration_generation();
        let mut cache = self.bucket_dispatch.lock().unwrap_or_else(|e| e.into_inner());
        if let Some((cached_generation, table)) = cache.get(&(resolution, int8)) {
            if *cached_generation == generation {
                return Arc::clone(table);
            }
        }
        let mut table = AlgoCalibration::new();
        let arch = self.config.backbone.arch(self.config.dataset.num_classes());
        if let Ok(layers) = arch.conv_layers(resolution) {
            for layer in layers {
                // `select_algo` (not `planned_conv_algo`): explicit overrides
                // must stay dynamic — baking a caller's scoped override into
                // the cached table would outlive its scope.
                let algo = if int8 && ConvAlgo::Int8.supports(&layer.params) {
                    ConvAlgo::Int8
                } else {
                    rescnn_tensor::select_algo(&layer.params, layer.input)
                };
                table.set(ConvShapeKey::new(layer.params, layer.input), algo);
            }
        }
        let table = Arc::new(table);
        cache.insert((resolution, int8), (generation, Arc::clone(&table)));
        table
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
    /// for callers (the batch scheduler) that manage their own thread budget.
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
        self.plan_from_parts(&original, encoded)
    }

    /// [`plan`](Self::plan) over a caller-supplied storage state instead of
    /// re-encoding the rendered sample: the path by which externally stored —
    /// possibly corrupt or truncated — progressive streams reach the decoder.
    /// A stream error surfaces as [`CoreError::Codec`]; the serving layers
    /// isolate it to the one request that carried the bad stream.
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
        let original = sample.render()?;
        self.plan_from_parts(&original, encoded)
    }

    /// The planning body shared by the render-and-encode and caller-supplied
    /// storage paths.
    fn plan_from_parts(
        &self,
        original: &rescnn_imaging::Image,
        encoded: ProgressiveImage,
    ) -> Result<InferencePlan> {
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
        let mut walk = PrefixWalk::new(&encoded, crop, !self.config.storage.is_read_all())?;
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
        let (chosen_point, scans_read, quality) = if chosen_resolution == preview_res {
            (preview_point, preview_point.scans, preview_point.ssim)
        } else {
            let chosen_reference = crop_and_resize_cow(original, crop, chosen_resolution)?;
            let chosen_reference = SsimReference::new(&chosen_reference, SsimConfig::default())?;
            let threshold = self.config.storage.threshold_for(chosen_resolution);
            let (point, _) =
                walk.cheapest_sufficient_point(&chosen_reference, chosen_resolution, threshold)?;
            let scans_read = preview_point.scans.max(point.scans);
            let quality = if scans_read == point.scans {
                point.ssim
            } else {
                // The preview read deeper than the chosen resolution needs: the backbone
                // sees the deeper prefix.
                walk.quality_at_scans(&chosen_reference, chosen_resolution, scans_read)?
            };
            (point, scans_read, quality)
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

    /// Re-plans an already-planned request at a different backbone resolution,
    /// reusing the plan's storage state and preview read — the SLO scheduler's
    /// degradation ladder (`slo` module). The returned plan is bitwise identical
    /// to what planning would have produced had the scale model chosen
    /// `resolution` in the first place: the storage decision re-runs the same
    /// `cheapest_sufficient_point` walk over the same encoded scans, and the
    /// incremental decoder's invariant makes every scored frame identical to a
    /// from-scratch decode.
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
        let original = sample.render()?;
        let encoded = plan.encoded.clone();
        let reference = crop_and_resize_cow(&original, crop, resolution)?;
        let reference = SsimReference::new(&reference, SsimConfig::default())?;
        let mut walk = PrefixWalk::new(&encoded, crop, false)?;
        let (chosen_point, _) = walk.cheapest_sufficient_point(
            &reference,
            resolution,
            self.config.storage.threshold_for(resolution),
        )?;
        let scans_read = plan.preview_point.scans.max(chosen_point.scans);
        let quality = if scans_read == chosen_point.scans {
            chosen_point.ssim
        } else {
            // The walk sits at `chosen_point.scans` < `scans_read`; score the deeper
            // prefix the preview stage already paid for.
            walk.quality_at_scans(&reference, resolution, scans_read)?
        };
        Ok(InferencePlan {
            chosen_resolution: resolution,
            encoded,
            preview_point: plan.preview_point,
            chosen_point,
            scans_read,
            quality,
        })
    }

    /// [`execute`](Self::execute) without installing the pipeline's engine context.
    pub(crate) fn execute_unscoped(
        &self,
        sample: &Sample,
        plan: &InferencePlan,
    ) -> Result<InferenceRecord> {
        let chosen_resolution = plan.chosen_resolution;

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
            backbone_gflops: self.backbone_gflops.get(&chosen_resolution).copied().unwrap_or(0.0),
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

    #[test]
    fn one_pass_planner_matches_the_two_pass_reference() {
        use crate::calibration::{CalibrationCurves, StorageCalibrator};
        use crate::scale_model::{ScaleModel, TrainingExample};
        use std::cmp::Ordering::{Equal, Greater, Less};

        // A small ladder keeps the debug-build SSIMs cheap; the preview rung is its lowest.
        let resolutions = vec![64usize, 96, 128];
        let crop = CropRatio::new(0.56).unwrap();
        let thresholds = |values: &[(usize, f64)]| {
            StoragePolicy::from_thresholds(values.iter().copied().collect::<BTreeMap<_, _>>())
        };
        // How deep the preview walk went relative to the chosen resolution's own point,
        // over everything planned below: [preview == chosen, shallower, equal, deeper].
        let mut coverage = [0usize; 4];

        for (kind, spec) in [
            (DatasetKind::CarsLike, DatasetSpec::cars_like()),
            (DatasetKind::ImageNetLike, DatasetSpec::imagenet_like()),
        ] {
            let pool = spec.with_len(6).with_max_dimension(72).build(123);
            // A scale model that spreads the pool over the ladder: fitted to say that
            // sample k is classified correctly at rung k mod 3 only.
            let config = ScaleModelConfig {
                resolutions: resolutions.clone(),
                preview_resolution: 64,
                epochs: 200,
                ..Default::default()
            };
            let examples: Vec<TrainingExample> = pool
                .iter()
                .enumerate()
                .map(|(k, sample)| {
                    let preview = crop_and_resize_cow(&sample.render().unwrap(), crop, 64)
                        .unwrap()
                        .into_owned();
                    TrainingExample {
                        features: extract_features(&preview).unwrap(),
                        labels: (0..3).map(|rung| rung == k % 3).collect(),
                    }
                })
                .collect();
            let scale_model = ScaleModel::train(&config, &examples).unwrap();
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

                    // The degradation ladder re-plans from either plan identically.
                    for &rung in resolutions.iter().filter(|&&r| r < plan.chosen_resolution) {
                        let lowered = pipeline.replan_at(sample, &plan, rung).unwrap();
                        let expected = pipeline.replan_at(sample, &reference, rung).unwrap();
                        assert_plans_identical(&lowered, &expected, &format!("{context} @{rung}"));
                    }

                    // Damaged streams fail (or decode) the same way, scan for scan.
                    let id = sample.id as usize;
                    for (what, damaged) in [
                        ("flip", encoded.with_bit_flip(id, 20 + 7 * id, id as u8)),
                        ("truncated", encoded.with_truncated_scan(id, 17 + id % 24)),
                    ] {
                        let new = pipeline.plan_with_storage(sample, damaged.clone());
                        let old = two_pass::plan(&pipeline, sample, damaged);
                        match (new, old) {
                            (Ok(new), Ok(old)) => {
                                assert_plans_identical(&new, &old, &format!("{context} {what}"));
                            }
                            (new, old) => assert_eq!(
                                new.map(|_| ()).err(),
                                old.map(|_| ()).err(),
                                "{context} {what}"
                            ),
                        }
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
    fn conv_calibration_warm_start_installs_table() {
        // A pipeline configured with a persisted calibration installs it at
        // construction; an unloadable file degrades to the analytic cost model
        // with a typed warning instead of failing construction.
        let _guard = crate::test_sync::calibration_lock();
        use rescnn_hwsim::{CalibratedCostModel, CpuProfile};
        use rescnn_models::ConvLayerShape;
        use rescnn_tensor::{Conv2dParams, ConvAlgo, ConvShapeKey, Shape};

        let missing = PipelineConfig::new(ModelKind::ResNet18, DatasetKind::CarsLike)
            .with_conv_calibration("/nonexistent/rescnn-calibration.txt");
        let config =
            ScaleModelConfig { resolutions: vec![112, 224], epochs: 5, ..Default::default() };
        let trainer = ScaleModelTrainer::new(config, ModelKind::ResNet18, DatasetKind::CarsLike);
        let train = DatasetSpec::cars_like().with_len(12).with_max_dimension(64).build(1);
        let scale_model = trainer.train(&train, 2).unwrap();
        let degraded =
            DynamicResolutionPipeline::new(missing, scale_model.clone(), AccuracyOracle::new(0))
                .expect("a missing calibration degrades, it does not fail construction");
        assert_eq!(degraded.warnings().len(), 1);
        let PipelineWarning::CalibrationLoadFailed { path, .. } = &degraded.warnings()[0] else {
            panic!("expected a load-failure warning, got {:?}", degraded.warnings()[0]);
        };
        assert_eq!(path, "/nonexistent/rescnn-calibration.txt");
        assert!(
            degraded.warnings()[0].to_string().contains("analytic cost model"),
            "the warning must say what the pipeline fell back to"
        );
        // The degraded pipeline still serves inference.
        let probe = DatasetSpec::cars_like().with_len(1).with_max_dimension(64).build(9);
        degraded.infer(&probe[0]).expect("degraded pipeline must still serve");

        // A calibration file that was written and then truncated mid-byte (a
        // crash during persist) degrades the same way.
        let truncated_path =
            std::env::temp_dir().join(format!("rescnn-core-truncated-{}.txt", std::process::id()));
        {
            let mut probe_model = CalibratedCostModel::new(CpuProfile::host());
            probe_model.record(
                &ConvLayerShape {
                    params: Conv2dParams::new(13, 13, 3, 1, 1),
                    input: Shape::chw(13, 37, 37),
                },
                ConvAlgo::Winograd,
                1.0e-3,
            );
            probe_model.save(&truncated_path).unwrap();
            // Tear the final record line (never just the trailing newline).
            let bytes = std::fs::read(&truncated_path).unwrap();
            std::fs::write(&truncated_path, &bytes[..bytes.len() - 5]).unwrap();
        }
        let torn = PipelineConfig::new(ModelKind::ResNet18, DatasetKind::CarsLike)
            .with_conv_calibration(truncated_path.to_string_lossy().to_string());
        let torn =
            DynamicResolutionPipeline::new(torn, scale_model.clone(), AccuracyOracle::new(0))
                .expect("a truncated calibration degrades, it does not fail construction");
        assert_eq!(torn.warnings().len(), 1, "truncated file must warn exactly once");
        std::fs::remove_file(&truncated_path).ok();

        // Calibrate an exotic shape no test network uses, so the installed
        // table cannot perturb any other test's dispatch decisions.
        let layer = ConvLayerShape {
            params: Conv2dParams::new(13, 13, 3, 1, 1),
            input: Shape::chw(13, 37, 37),
        };
        let mut model = CalibratedCostModel::new(CpuProfile::host());
        model.record(&layer, ConvAlgo::Winograd, 1.0e-3);
        model.record(&layer, ConvAlgo::Im2colPacked, 2.0e-3);
        let path =
            std::env::temp_dir().join(format!("rescnn-core-warmstart-{}.txt", std::process::id()));
        model.save(&path).unwrap();

        let warm = PipelineConfig::new(ModelKind::ResNet18, DatasetKind::CarsLike)
            .with_conv_calibration(path.to_string_lossy().to_string());
        let pipeline =
            DynamicResolutionPipeline::new(warm, scale_model, AccuracyOracle::new(0)).unwrap();
        assert!(pipeline.warnings().is_empty(), "a loadable calibration must not warn");
        assert!(pipeline.config().conv_calibration.is_some());
        let table = rescnn_tensor::installed_algo_calibration().expect("table installed");
        let key = ConvShapeKey::new(layer.params, layer.input);
        assert_eq!(table.get(&key), Some(ConvAlgo::Winograd));
        assert_eq!(
            rescnn_tensor::select_algo(&layer.params, layer.input),
            ConvAlgo::Winograd,
            "dispatch must pick the measured-fastest algorithm for calibrated shapes"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn forward_compatible_calibration_warns_but_installs() {
        // A calibration file from a newer engine build — carrying an arm this
        // build lacks — must still install every entry it understands, with a
        // typed warning naming the foreign arm and how many lines it lost.
        let _guard = crate::test_sync::calibration_lock();
        let path =
            std::env::temp_dir().join(format!("rescnn-core-future-{}.txt", std::process::id()));
        std::fs::write(
            &path,
            "rescnn-conv-calibration v1\n\
             measure 13 13 3 1 1 1 37 37 im2col_packed 2e-3\n\
             measure 13 13 3 1 1 1 37 37 int4_packed 1e-3\n\
             measure 13 13 3 1 1 1 41 41 int4_packed 1e-3\n",
        )
        .unwrap();

        let config =
            ScaleModelConfig { resolutions: vec![112, 224], epochs: 5, ..Default::default() };
        let trainer = ScaleModelTrainer::new(config, ModelKind::ResNet18, DatasetKind::CarsLike);
        let train = DatasetSpec::cars_like().with_len(12).with_max_dimension(64).build(1);
        let scale_model = trainer.train(&train, 2).unwrap();
        let warm = PipelineConfig::new(ModelKind::ResNet18, DatasetKind::CarsLike)
            .with_conv_calibration(path.to_string_lossy().to_string());
        let pipeline =
            DynamicResolutionPipeline::new(warm, scale_model, AccuracyOracle::new(0)).unwrap();
        std::fs::remove_file(&path).ok();

        assert_eq!(
            pipeline.warnings(),
            &[PipelineWarning::CalibrationEntriesSkipped {
                path: path.to_string_lossy().to_string(),
                algo: "int4_packed".into(),
                lines: 2,
            }]
        );
        assert!(pipeline.warnings()[0].to_string().contains("int4_packed"));
        // The entry this build understands really did install.
        let table = rescnn_tensor::installed_algo_calibration().expect("table installed");
        use rescnn_tensor::{Conv2dParams, ConvAlgo, ConvShapeKey, Shape};
        let key = ConvShapeKey::new(Conv2dParams::new(13, 13, 3, 1, 1), Shape::chw(13, 37, 37));
        assert_eq!(table.get(&key), Some(ConvAlgo::Im2colPacked));
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
