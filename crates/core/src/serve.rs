//! Batched serving: resolution-bucketed drains of queued inference requests
//! over the persistent engine worker pool.
//!
//! The paper's thesis is that resolution is the dominant lever on CNN serving
//! cost; a production deployment therefore sees *mixed-resolution* traffic — the
//! scale model sends easy images to 112² and hard ones to 448². The
//! [`BatchScheduler`] drains such a queue through the crate's one serving loop,
//! the SLO admission core (`slo.rs`), with every request at arrival 0 and no
//! deadline: the core **plans** every request (preview read + scale model,
//! data-parallel across requests), **admits** each plan at its own resolution,
//! and **executes** each resolution bucket in batches of at most
//! [`max_batch`](BatchOptions::max_batch), splitting the thread budget between
//! sample-level and kernel-level parallelism with [`split_parallelism`].
//!
//! The drain reports per-bucket latency/throughput ([`BucketStats`]) plus an
//! aggregate [`PipelineReport`] that is *identical* — bitwise, including float
//! accumulation order — to the sequential
//! [`evaluate`](DynamicResolutionPipeline::evaluate), because records are folded
//! in submission order whatever the bucketing did.
//!
//! # Fault isolation
//!
//! A serving queue is multi-tenant: one request carrying a truncated or
//! bit-flipped progressive stream (see
//! [`BatchScheduler::submit_with_storage`]), or one whose stage panics, must
//! never take the rest of its batch down. Each request's plan and execute
//! stages therefore run under
//! [`parallel_map_isolated`](rescnn_tensor::parallel_map_isolated): a failure
//! — including a caught panic, surfaced as [`CoreError::Panicked`] — becomes a
//! [`RequestError`] in [`ServeReport::errors`] while every other request
//! completes and is folded into the partial report.

use serde::{Deserialize, Serialize};

use rescnn_data::{Dataset, Sample};
use rescnn_projpeg::ProgressiveImage;
use rescnn_tensor::split_parallelism;

use crate::error::{CoreError, Result};
use crate::pipeline::{DynamicResolutionPipeline, PipelineReport};
use crate::slo::{
    thread_budget, AdmissionCore, QueuedRequest, ResolutionLatencyModel, SloOptions, SloOutcome,
    SloRequest,
};

/// Tuning knobs for the batch scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchOptions {
    /// Maximum requests executed as one batch (clamped to at least 1).
    pub max_batch: usize,
    /// Total worker-thread budget for the scheduler (`None` uses the pipeline's
    /// engine context, falling back to the engine default).
    pub threads: Option<usize>,
}

impl Default for BatchOptions {
    fn default() -> Self {
        BatchOptions { max_batch: 8, threads: None }
    }
}

impl BatchOptions {
    /// Creates options with the given batch size.
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch.max(1);
        self
    }

    /// Bounds the scheduler's total thread budget.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }
}

/// A per-request failure isolated out of a serving run, keyed by the request's
/// submission index.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestError {
    /// The request's position in submission order.
    pub index: usize,
    /// Identifier of the sample the request carried.
    pub sample_id: u64,
    /// What went wrong; panics are contained as [`CoreError::Panicked`].
    pub error: CoreError,
}

/// Latency/throughput accounting for one resolution bucket.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BucketStats {
    /// The bucket's backbone resolution.
    pub resolution: usize,
    /// Requests routed to this bucket.
    pub requests: usize,
    /// Batches the bucket was executed in.
    pub batches: usize,
    /// Sample-level (outer) parallelism used for the bucket's full batches.
    pub outer_parallelism: usize,
    /// Kernel-level (inner) parallelism paired with `outer_parallelism`.
    pub inner_parallelism: usize,
    /// Wall-clock seconds spent executing the bucket.
    pub total_seconds: f64,
    /// Mean wall-clock latency per batch, in milliseconds.
    pub mean_batch_latency_ms: f64,
    /// Requests per second achieved within the bucket.
    pub throughput_rps: f64,
}

/// The outcome of draining a [`BatchScheduler`] queue.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeReport {
    /// Aggregate accuracy/cost report over the requests that completed,
    /// identical to the sequential [`evaluate`](DynamicResolutionPipeline::evaluate)
    /// over the same requests in the same submission order (a *partial* report
    /// when [`errors`](Self::errors) is non-empty).
    pub report: PipelineReport,
    /// Per-resolution-bucket latency/throughput, ascending by resolution.
    pub buckets: Vec<BucketStats>,
    /// Requests that failed, ascending by submission index; empty on a fully
    /// healthy run. Each failure was isolated — it never aborted its batch.
    pub errors: Vec<RequestError>,
    /// Wall-clock seconds spent in the planning stage (preview + scale model).
    pub planning_seconds: f64,
    /// Thread budget the scheduler distributed.
    pub threads: usize,
}

/// Drains queued inference requests through the serving core: groups them by
/// chosen resolution and executes them as homogeneous batches over the
/// persistent worker pool.
///
/// # Examples
/// ```no_run
/// use rescnn_core::{BatchOptions, BatchScheduler, DynamicResolutionPipeline};
/// # fn demo(pipeline: &DynamicResolutionPipeline, data: &rescnn_data::Dataset)
/// #     -> rescnn_core::Result<()> {
/// let mut scheduler = BatchScheduler::new(pipeline, BatchOptions::default());
/// scheduler.submit_all(data);
/// let outcome = scheduler.run()?;
/// for bucket in &outcome.buckets {
///     println!("{}²: {:.1} req/s", bucket.resolution, bucket.throughput_rps);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct BatchScheduler<'a> {
    pipeline: &'a DynamicResolutionPipeline,
    options: BatchOptions,
    queue: Vec<QueuedRequest<'a>>,
}

/// A drain request: it arrives at 0 and has no deadline, so admission serves
/// its plan at the planned resolution.
fn unbounded(sample: &Sample) -> SloRequest<'_> {
    SloRequest::new(sample, 0.0, f64::INFINITY)
}

impl<'a> BatchScheduler<'a> {
    /// Creates a scheduler serving one pipeline.
    pub fn new(pipeline: &'a DynamicResolutionPipeline, options: BatchOptions) -> Self {
        BatchScheduler { pipeline, options, queue: Vec::new() }
    }

    /// Enqueues one request, returning its position in the queue. Results are
    /// always reported in submission order.
    pub fn submit(&mut self, sample: &'a Sample) -> usize {
        self.queue.push(unbounded(sample).into_queued());
        self.queue.len() - 1
    }

    /// Enqueues one request whose progressive stream is supplied by the caller
    /// instead of re-encoded from the rendered sample — how externally stored
    /// (possibly corrupt or truncated) streams enter the scheduler. A stream
    /// error is isolated to this request; see [`ServeReport::errors`].
    pub fn submit_with_storage(&mut self, sample: &'a Sample, storage: ProgressiveImage) -> usize {
        self.queue.push(unbounded(sample).with_storage(storage).into_queued());
        self.queue.len() - 1
    }

    /// Enqueues every sample of a dataset in order.
    pub fn submit_all(&mut self, dataset: &'a Dataset) {
        self.queue.extend(dataset.iter().map(|sample| unbounded(sample).into_queued()));
    }

    /// Number of requests currently queued.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Drains the queue through the admission core and projects its outcomes
    /// onto a [`ServeReport`].
    ///
    /// Per-request failures — codec errors from corrupt streams, stage panics
    /// (contained as [`CoreError::Panicked`]) — are isolated into
    /// [`ServeReport::errors`] while every other request completes.
    ///
    /// # Errors
    /// Returns an error if the queue is empty.
    pub fn run(&mut self) -> Result<ServeReport> {
        if self.queue.is_empty() {
            return Err(CoreError::EmptyDataset);
        }
        let options = SloOptions::default().with_batch(self.options);
        let threads = thread_budget(self.pipeline, &options);
        let max_batch = self.options.max_batch.max(1);
        // An empty latency model prices every rung at 0 ms; with no deadline,
        // no policy and steps at `now = ∞`, the core admits every plan as is.
        let mut core = AdmissionCore::with_resolved(
            self.pipeline,
            options,
            threads,
            false,
            ResolutionLatencyModel::from_estimates([]),
            None,
        );
        let mut sample_ids = Vec::with_capacity(self.queue.len());
        for request in std::mem::take(&mut self.queue) {
            sample_ids.push(request.sample.get().id);
            core.submit(request);
        }
        core.drain();
        let planning_seconds = core.planning_seconds;
        let buckets = core
            .bucket_timings
            .iter()
            .map(|(&resolution, timing)| {
                let (outer, inner) = split_parallelism(max_batch.min(timing.requests), threads);
                BucketStats {
                    resolution,
                    requests: timing.requests,
                    batches: timing.batches,
                    outer_parallelism: outer,
                    inner_parallelism: inner,
                    total_seconds: timing.seconds,
                    mean_batch_latency_ms: timing.seconds * 1e3 / timing.batches.max(1) as f64,
                    throughput_rps: timing.requests as f64 / timing.seconds.max(1e-12),
                }
            })
            .collect();
        // A ServeReport carries no wall time of its own.
        let (drained, _) = core.finish(0.0);
        let errors = drained
            .outcomes
            .into_iter()
            .enumerate()
            .filter_map(|(index, outcome)| match outcome {
                SloOutcome::Completed(_) => None,
                SloOutcome::Failed(error) => {
                    Some(RequestError { index, sample_id: sample_ids[index], error })
                }
                SloOutcome::Rejected(why) => {
                    unreachable!(
                        "a drain without deadlines or breakers rejected a request: {why:?}"
                    )
                }
            })
            .collect();
        // The core folded the completed records in submission order through the
        // same `PipelineReport::from_records` the sequential evaluate path uses,
        // so the identical-results guarantee is structural; on a run with
        // failures it is a *partial* report over exactly the requests that
        // completed.
        let report = PipelineReport { label: "dynamic".to_string(), ..drained.report };
        Ok(ServeReport { report, buckets, errors, planning_seconds, threads })
    }
}

impl DynamicResolutionPipeline {
    /// Evaluates the dynamic pipeline over a dataset through the batch scheduler.
    ///
    /// The returned [`ServeReport::report`] is identical to the sequential
    /// [`evaluate`](Self::evaluate) — batching is an execution detail and must
    /// never change results — while [`ServeReport::buckets`] adds the per-bucket
    /// latency/throughput the serving layer is measured by.
    ///
    /// # Errors
    /// Returns an error if the dataset is empty.
    pub fn evaluate_batched(
        &self,
        dataset: &Dataset,
        options: BatchOptions,
    ) -> Result<ServeReport> {
        let mut scheduler = BatchScheduler::new(self, options);
        scheduler.submit_all(dataset);
        scheduler.run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale_model::{ScaleModelConfig, ScaleModelTrainer};
    use crate::PipelineConfig;
    use rescnn_data::{DatasetKind, DatasetSpec};
    use rescnn_imaging::CropRatio;
    use rescnn_models::ModelKind;
    use rescnn_oracle::AccuracyOracle;

    fn build_pipeline(resolutions: Vec<usize>) -> DynamicResolutionPipeline {
        let config =
            ScaleModelConfig { resolutions: resolutions.clone(), epochs: 30, ..Default::default() };
        let trainer = ScaleModelTrainer::new(config, ModelKind::ResNet18, DatasetKind::CarsLike);
        let train = DatasetSpec::cars_like().with_len(60).with_max_dimension(96).build(1);
        let scale_model = trainer.train(&train, 3).unwrap();
        let pipeline_config = PipelineConfig::new(ModelKind::ResNet18, DatasetKind::CarsLike)
            .with_crop(CropRatio::new(0.56).unwrap())
            .with_resolutions(resolutions);
        DynamicResolutionPipeline::new(pipeline_config, scale_model, AccuracyOracle::new(77))
            .unwrap()
    }

    #[test]
    fn batched_report_is_identical_to_sequential_for_every_batch_size() {
        let pipeline = build_pipeline(vec![112, 224, 336]);
        let data = DatasetSpec::cars_like().with_len(24).with_max_dimension(96).build(123);
        let sequential = pipeline.evaluate(&data).unwrap();
        for max_batch in [1usize, 3, 8, 32] {
            let call_start = std::time::Instant::now();
            let served = pipeline
                .evaluate_batched(&data, BatchOptions::default().with_max_batch(max_batch))
                .unwrap();
            let call_seconds = call_start.elapsed().as_secs_f64();
            assert_eq!(served.report, sequential, "batch size {max_batch} changed the report");
            let bucketed: usize = served.buckets.iter().map(|b| b.requests).sum();
            assert_eq!(bucketed, data.len(), "every request must land in a bucket");
            for bucket in &served.buckets {
                assert!(sequential.resolution_histogram.contains_key(&bucket.resolution));
                assert_eq!(
                    sequential.resolution_histogram[&bucket.resolution], bucket.requests,
                    "bucket sizes must match the sequential resolution histogram"
                );
                assert!(bucket.batches >= 1);
                assert!(bucket.batches <= bucket.requests.div_ceil(max_batch));
                assert!(bucket.throughput_rps > 0.0);
                assert!(bucket.outer_parallelism * bucket.inner_parallelism <= served.threads);
                assert_eq!(bucket.batches, bucket.requests.div_ceil(max_batch));
                assert!(bucket.total_seconds > 0.0);
            }
            assert!(served.planning_seconds > 0.0);
            let timed: f64 = served.buckets.iter().map(|b| b.total_seconds).sum();
            assert!(
                timed + served.planning_seconds <= call_seconds,
                "plan and execute timers must fit inside the call's wall time"
            );
        }
    }

    #[test]
    fn batched_results_are_stable_across_thread_budgets() {
        let pipeline = build_pipeline(vec![112, 224]);
        let data = DatasetSpec::cars_like().with_len(10).with_max_dimension(72).build(7);
        let options = BatchOptions::default().with_max_batch(4);
        let baseline = pipeline.evaluate_batched(&data, options.with_threads(1)).unwrap();
        for threads in [2usize, 4, 7] {
            let served = pipeline.evaluate_batched(&data, options.with_threads(threads)).unwrap();
            assert_eq!(served.report, baseline.report, "{threads} threads changed results");
            assert_eq!(served.threads, threads);
        }
    }

    /// The execution stage's zero-allocation property must hold across warm
    /// scheduler runs: a drained queue re-submitted and re-run advances the
    /// engine's tracked allocation counter (kernel scratch + activation arena)
    /// by zero.
    #[test]
    fn warm_scheduler_runs_do_not_allocate_tracked_buffers() {
        let _guard = crate::test_sync::tracked_allocations_lock();
        let pipeline = build_pipeline(vec![112, 224]);
        let data = DatasetSpec::cars_like().with_len(6).with_max_dimension(72).build(3);
        let options = BatchOptions::default().with_max_batch(3);
        // Warm-up run populates every pool.
        let baseline = pipeline.evaluate_batched(&data, options).unwrap();
        let warm = rescnn_tensor::scratch::heap_allocations();
        let again = pipeline.evaluate_batched(&data, options).unwrap();
        assert_eq!(
            rescnn_tensor::scratch::heap_allocations() - warm,
            0,
            "a warm BatchScheduler run must not allocate scratch or arena buffers"
        );
        assert_eq!(again.report, baseline.report);
    }

    #[test]
    fn scheduler_queue_bookkeeping() {
        let pipeline = build_pipeline(vec![112, 224]);
        let data = DatasetSpec::cars_like().with_len(4).with_max_dimension(64).build(2);
        let mut scheduler = BatchScheduler::new(&pipeline, BatchOptions::default());
        assert!(matches!(scheduler.run(), Err(CoreError::EmptyDataset)));
        assert_eq!(scheduler.submit(&data[0]), 0);
        assert_eq!(scheduler.submit(&data[1]), 1);
        assert_eq!(scheduler.queued(), 2);
        let outcome = scheduler.run().unwrap();
        assert_eq!(outcome.report.num_samples, 2);
        assert_eq!(scheduler.queued(), 0, "run drains the queue");
        assert!(matches!(scheduler.run(), Err(CoreError::EmptyDataset)));
    }

    #[test]
    fn options_clamp_and_default() {
        let options = BatchOptions::default();
        assert_eq!(options.max_batch, 8);
        assert_eq!(options.threads, None);
        assert_eq!(BatchOptions::default().with_max_batch(0).max_batch, 1);
        assert_eq!(BatchOptions::default().with_threads(0).threads, Some(1));
    }

    #[test]
    fn corrupt_streams_are_isolated_to_their_own_requests() {
        let pipeline = build_pipeline(vec![112, 224]);
        let data = DatasetSpec::cars_like().with_len(8).with_max_dimension(72).build(19);
        let quality = pipeline.config().encode_quality;
        let corrupt: Vec<usize> = vec![1, 5];

        let mut scheduler = BatchScheduler::new(&pipeline, BatchOptions::default());
        for (index, sample) in data.iter().enumerate() {
            if corrupt.contains(&index) {
                // Keep only 3 bytes of the first scan: the preview decode fails.
                let stream = sample.encode_progressive(quality).unwrap().with_truncated_scan(0, 3);
                scheduler.submit_with_storage(sample, stream);
            } else {
                scheduler.submit(sample);
            }
        }
        let served = scheduler.run().unwrap();

        // The failures are per-request records, in submission order.
        assert_eq!(served.errors.len(), corrupt.len());
        for (error, &index) in served.errors.iter().zip(&corrupt) {
            assert_eq!(error.index, index);
            assert_eq!(error.sample_id, data[index].id);
            assert!(matches!(error.error, CoreError::Codec(_)), "got {:?}", error.error);
        }
        // Every healthy request completed, and the partial report is identical
        // to serving the healthy subset alone.
        assert_eq!(served.report.num_samples, data.len() - corrupt.len());
        let mut healthy = BatchScheduler::new(&pipeline, BatchOptions::default());
        for (index, sample) in data.iter().enumerate() {
            if !corrupt.contains(&index) {
                healthy.submit(sample);
            }
        }
        let healthy = healthy.run().unwrap();
        assert!(healthy.errors.is_empty());
        assert_eq!(served.report, healthy.report);
    }

    #[test]
    fn healthy_storage_submissions_match_the_internal_encode_path() {
        let pipeline = build_pipeline(vec![112, 224]);
        let data = DatasetSpec::cars_like().with_len(6).with_max_dimension(72).build(23);
        let quality = pipeline.config().encode_quality;
        let baseline = pipeline.evaluate_batched(&data, BatchOptions::default()).unwrap();
        let mut scheduler = BatchScheduler::new(&pipeline, BatchOptions::default());
        for sample in &data {
            scheduler.submit_with_storage(sample, sample.encode_progressive(quality).unwrap());
        }
        let served = scheduler.run().unwrap();
        assert!(served.errors.is_empty());
        assert_eq!(served.report, baseline.report, "caller-supplied healthy streams must match");
    }
}
