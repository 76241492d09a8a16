//! # rescnn-core
//!
//! The paper's primary contribution: a **dynamic-resolution inference pipeline** that
//! couples a lightweight scale model, a storage-calibration stage over progressively
//! encoded images, and per-resolution backbone execution.
//!
//! * [`ScaleModel`] / [`ScaleModelTrainer`] — the multi-label predictor of per-resolution
//!   backbone correctness, trained with the cross-validation sharding of Figure 5.
//! * [`CalibrationCurves`] / [`StorageCalibrator`] / [`StoragePolicy`] — the SSIM-threshold
//!   storage calibration of §V (Figure 6, Tables III/IV).
//! * [`DynamicResolutionPipeline`] — the two-model pipeline of Figure 4, with end-to-end
//!   evaluation against static-resolution baselines (Figures 8/9). Inference is split
//!   into a [`plan`](DynamicResolutionPipeline::plan) stage (preview + scale model) and
//!   an [`execute`](DynamicResolutionPipeline::execute) stage, and every kernel-bearing
//!   call runs inside the pipeline's scoped
//!   [`EngineContext`](rescnn_tensor::EngineContext) rather than mutating process-global
//!   engine state. Stored streams are measured once, with the original in hand
//!   ([`ingest`](DynamicResolutionPipeline::ingest) → [`ScanIndex`]), and read from the
//!   stream and that index alone
//!   ([`plan_with_storage`](DynamicResolutionPipeline::plan_with_storage)).
//! * [`SloScheduler`] — the SLO-aware serving core: per-request deadlines over a
//!   deterministic virtual clock, admission control fed by a calibrated
//!   [`ResolutionLatencyModel`], load-shedding that *degrades resolution* down the
//!   ladder (bounded by an SSIM floor) before it ever sheds, and per-request fault
//!   isolation. Admitted requests execute as resolution buckets with batch-level
//!   data parallelism over the persistent engine worker pool.
//! * [`BatchScheduler`] — the offline drain over the same core: every request
//!   arrives at once with no deadline, so each is served at its planned
//!   resolution. It reports per-bucket latency/throughput ([`BucketStats`])
//!   alongside a [`PipelineReport`] identical to sequential evaluation, and
//!   isolates per-request failures (corrupt streams, contained panics) into
//!   [`ServeReport::errors`] instead of aborting the batch.
//!
//! # Examples
//! ```no_run
//! use rescnn_core::{DynamicResolutionPipeline, PipelineConfig, ScaleModelConfig, ScaleModelTrainer};
//! use rescnn_data::{DatasetKind, DatasetSpec};
//! use rescnn_models::ModelKind;
//! use rescnn_oracle::AccuracyOracle;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let train = DatasetSpec::cars_like().with_len(120).with_max_dimension(128).build(0);
//! let trainer = ScaleModelTrainer::new(
//!     ScaleModelConfig::default(), ModelKind::ResNet50, DatasetKind::CarsLike);
//! let scale_model = trainer.train(&train, 4)?;
//! let pipeline = DynamicResolutionPipeline::new(
//!     PipelineConfig::new(ModelKind::ResNet50, DatasetKind::CarsLike),
//!     scale_model,
//!     AccuracyOracle::new(0),
//! )?;
//! let test = DatasetSpec::cars_like().with_len(64).with_max_dimension(128).build(1);
//! let report = pipeline.evaluate(&test)?;
//! println!("dynamic accuracy = {:.1}%", report.accuracy * 100.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod calibration;
mod error;
mod features;
mod lifecycle;
mod pipeline;
mod precision;
mod scale_model;
mod scan_index;
mod serve;
mod server;
mod slo;
mod trace;

pub use calibration::{
    CalibrationCurves, SampleCurve, ScanPoint, StorageCalibrator, StoragePolicy,
};
pub use error::{CoreError, Result, SubmitError};
pub use features::{extract_features, FEATURE_COUNT};
pub use lifecycle::{
    BreakerState, CircuitBreaker, CircuitBreakerPolicy, RetryPolicy, SourceId, WatchdogPolicy,
};
pub use pipeline::{
    DynamicResolutionPipeline, InferencePlan, InferenceRecord, PipelineConfig, PipelineReport,
};
pub use precision::{PrecisionGate, PrecisionGateConfig, PrecisionVerdict};
pub use scale_model::{ScaleModel, ScaleModelConfig, ScaleModelTrainer, TrainingExample};
pub use scan_index::ScanIndex;
pub use serve::{BatchOptions, BatchScheduler, BucketStats, RequestError, ServeReport};
pub use server::{
    Completion, CompletionStream, ServerConfig, ServerReport, ServerRequest, ServerState,
    SloServer, Ticket,
};
pub use slo::{
    CompletedRequest, PrecisionDemotion, Rejected, ResolutionLatencyModel, SloOptions, SloOutcome,
    SloReport, SloRequest, SloScheduler,
};
pub use trace::{ServingTrace, TraceDecision, TraceRequest, TraceStep};

#[cfg(test)]
pub(crate) mod test_sync {
    //! Serialization of tests that take tracked engine buffers (real network
    //! forwards: activation arena and kernel scratch) or read the process-wide
    //! `rescnn_tensor::scratch::heap_allocations` counter: without it, a
    //! concurrent forward in this binary advances the counter another test
    //! asserts a zero delta of.

    use std::sync::{Mutex, MutexGuard};

    static TRACKED_ALLOCATIONS_LOCK: Mutex<()> = Mutex::new(());

    pub(crate) fn tracked_allocations_lock() -> MutexGuard<'static, ()> {
        TRACKED_ALLOCATIONS_LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

/// Commonly used items, intended for glob import.
pub mod prelude {
    pub use crate::{
        BatchOptions, BatchScheduler, CalibrationCurves, CircuitBreakerPolicy, CoreError,
        DynamicResolutionPipeline, PipelineConfig, PipelineReport, Rejected,
        ResolutionLatencyModel, RetryPolicy, ScaleModel, ScaleModelConfig, ScaleModelTrainer,
        ServeReport, ServerConfig, ServerReport, ServerRequest, ServerState, ServingTrace,
        SloOptions, SloOutcome, SloReport, SloRequest, SloScheduler, SloServer, SourceId,
        StorageCalibrator, StoragePolicy, SubmitError, Ticket, WatchdogPolicy,
    };
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rescnn_data::DatasetSpec;
    use rescnn_imaging::CropRatio;
    use rescnn_models::ModelKind;
    use rescnn_oracle::AccuracyOracle;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn storage_policy_never_reads_more_than_everything(seed in 0u64..200, threshold in 0.9f64..1.0) {
            let dataset = DatasetSpec::imagenet_like().with_len(1).with_max_dimension(72).build(seed);
            let sample = &dataset[0];
            let original = sample.render().unwrap();
            let encoded = sample.encode_progressive(85).unwrap();
            let mut thresholds = std::collections::BTreeMap::new();
            thresholds.insert(224usize, threshold);
            let policy = StoragePolicy::from_thresholds(thresholds);
            let point = policy
                .scans_for(&original, &encoded, CropRatio::new(0.75).unwrap(), 224)
                .unwrap();
            prop_assert!(point.read_fraction <= 1.0 + 1e-12);
            prop_assert!(point.scans >= 1 && point.scans <= encoded.num_scans());
        }

        #[test]
        fn calibration_threshold_within_search_interval(seed in 0u64..50) {
            let dataset = DatasetSpec::cars_like().with_len(6).with_max_dimension(72).build(seed);
            let curves = CalibrationCurves::compute(
                &dataset,
                ModelKind::ResNet18,
                CropRatio::new(0.75).unwrap(),
                &[168],
                85,
            )
            .unwrap();
            let calibrator = StorageCalibrator::default();
            let policy = calibrator.calibrate(&curves, &AccuracyOracle::new(seed));
            let t = policy.threshold_for(168).unwrap();
            prop_assert!((0.94..=1.0).contains(&t));
        }
    }
}
