//! What the two pipeline workloads share: building a calibrated deployment
//! (the write side of `data` / `projpeg` / `imaging`) and timing the public
//! calls a plan is made of (the read side), one by one.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use rescnn_core::{
    extract_features, CalibrationCurves, DynamicResolutionPipeline, PipelineConfig, ScaleModel,
    ScaleModelConfig, ScaleModelTrainer, StorageCalibrator,
};
use rescnn_data::{Dataset, DatasetKind, DatasetSpec};
use rescnn_imaging::{crop_and_resize, CropRatio, Image, SsimConfig, SsimReference};
use rescnn_models::ModelKind;
use rescnn_oracle::{AccuracyOracle, EvalContext};
use rescnn_projpeg::{ProgressiveImage, ScanPlan};

use crate::config::{
    ORACLE_SEED, PLAN_PROBE_SAMPLES, POOL_SEED, PROBE_SAMPLES, TRAIN_SAMPLES, TRAIN_SEED,
    TRAIN_SHARDS,
};
use crate::stats;
use crate::trace::{Layer, Tracer};
use crate::workload::{median_ms, Metrics, Res};

/// A pipeline with its sample pool, the pool's stored streams, and the parts
/// the probes call directly.
pub struct Deployment {
    pub pool: Dataset,
    /// Stream of `pool[i]`, encoded at the pipeline's encode quality.
    pub streams: Vec<ProgressiveImage>,
    pub pipeline: Arc<DynamicResolutionPipeline>,
    pub scale_model: ScaleModel,
    pub oracle: AccuracyOracle,
}

/// Trains the scale model, renders and encodes the pool, measures the full
/// per-scan quality curves at every rung and calibrates the storage policy.
pub fn deploy(
    backbone: ModelKind,
    rungs: &[usize],
    crop: f64,
    pool_len: usize,
    max_dimension: usize,
    threads: usize,
) -> Res<Deployment> {
    let kind = DatasetKind::CarsLike;
    let crop = CropRatio::new(crop)?;
    let oracle = AccuracyOracle::new(ORACLE_SEED);
    let pool = DatasetSpec::cars_like()
        .with_len(pool_len)
        .with_max_dimension(max_dimension)
        .build(POOL_SEED);

    let scale_config =
        ScaleModelConfig { resolutions: rungs.to_vec(), seed: TRAIN_SEED, ..Default::default() };
    let train =
        DatasetSpec::cars_like().with_len(TRAIN_SAMPLES).with_max_dimension(128).build(TRAIN_SEED);
    let scale_model =
        ScaleModelTrainer::new(scale_config, backbone, kind).train(&train, TRAIN_SHARDS)?;

    let config = PipelineConfig::new(backbone, kind)
        .with_crop(crop)
        .with_resolutions(rungs.to_vec())
        .with_engine_threads(threads);
    let mut streams = Vec::with_capacity(pool.len());
    for sample in &pool {
        streams.push(sample.encode_progressive(config.encode_quality)?);
    }
    let curves = config.engine_context().scope(|| {
        CalibrationCurves::compute(&pool, backbone, crop, rungs, config.encode_quality)
    })?;
    let policy = StorageCalibrator::default().calibrate(&curves, &oracle);
    let pipeline =
        DynamicResolutionPipeline::new(config.with_storage(policy), scale_model.clone(), oracle)?;
    Ok(Deployment { pool, streams, pipeline: Arc::new(pipeline), scale_model, oracle })
}

/// Sequential plans of the head of the pool, kept for the probes that build on
/// them.
pub struct PlanProbe {
    pub plan_ms: Vec<f64>,
    pub execute_us: f64,
}

/// Times the public calls of the read path over the deployment's own pool and
/// fills the `data`, `projpeg`, `imaging`, `oracle` and `core` pipeline metrics.
pub fn layer_probes(
    dep: &Deployment,
    tracer: &mut Tracer,
    metrics: &mut Metrics,
) -> Res<PlanProbe> {
    let pipeline = &*dep.pipeline;
    let config = pipeline.config();
    let crop = config.crop;

    let time_plan = |tracer: &mut Tracer, i: usize| {
        tracer.timed(
            "DynamicResolutionPipeline::plan_with_storage",
            Layer::Core,
            Some(i as u64),
            || pipeline.plan_with_storage(&dep.pool[i], dep.streams[i].clone()),
        )
    };
    let mut plans = Vec::with_capacity(PLAN_PROBE_SAMPLES);
    let mut plan_ms = Vec::with_capacity(PLAN_PROBE_SAMPLES);
    for i in 0..PLAN_PROBE_SAMPLES.min(dep.pool.len()) {
        let (plan, ms) = time_plan(tracer, i);
        plans.push(plan?);
        plan_ms.push(ms);
    }
    let sorted_plan_ms = stats::sorted(&plan_ms);
    metrics.insert("core.plan_ms_p50".into(), stats::percentile(&sorted_plan_ms, 0.5));
    metrics.insert("core.plan_ms_max".into(), stats::percentile(&sorted_plan_ms, 1.0));
    let scans: Vec<f64> = plans.iter().map(|p| p.scans_read() as f64).collect();
    metrics.insert("projpeg.scans_read_mean".into(), stats::mean(&scans));
    let kib: Vec<f64> = dep.streams.iter().map(|s| s.total_bytes() as f64 / 1024.0).collect();
    metrics.insert("projpeg.stream_kib".into(), stats::mean(&kib));

    let mut calls = Calls::default();
    let mut unattributed = Vec::new();
    for (i, plan) in plans.iter().enumerate().take(PROBE_SAMPLES) {
        let request = Some(i as u64);
        let sample = &dep.pool[i];
        let stream = &dep.streams[i];

        // The calls a plan makes, made directly, right after a plan of the
        // same sample (so both see the same machine): what the calls do not
        // add up to is the planner's own time.
        let (again, adjacent_plan_ms) = time_plan(tracer, i);
        again?;
        let replica = tracer.enter("plan replica", Layer::Bench, request);
        let replica_start = Instant::now();
        let (original, render_ms) =
            tracer.timed("Sample::render", Layer::Data, request, || sample.render());
        let original = original?;
        calls.render.push(render_ms);
        let stored = Stored { original: &original, stream, crop, request };
        let preview_res = dep.scale_model.preview_resolution();
        let threshold = config.storage.threshold_for(preview_res);
        let preview = walk(tracer, &mut calls, &stored, preview_res, threshold)?;
        let (features, features_ms) =
            tracer.timed("extract_features", Layer::Core, request, || extract_features(&preview));
        let features = features?;
        calls.features.push(features_ms);
        if plan.chosen_resolution != preview_res {
            let threshold = config.storage.threshold_for(plan.chosen_resolution);
            walk(tracer, &mut calls, &stored, plan.chosen_resolution, threshold)?;
        }
        // The block holds nothing but those calls, so its wall time is theirs.
        let direct_ms = replica_start.elapsed().as_secs_f64() * 1e3;
        tracer.exit(replica);
        unattributed.push(adjacent_plan_ms - direct_ms);

        // Fixed-size calls, so the numbers compare across samples and PRs.
        let (encoded, ms) =
            tracer.timed("ProgressiveImage::encode", Layer::Projpeg, request, || {
                ProgressiveImage::encode(&original, config.encode_quality, ScanPlan::standard())
            });
        encoded?;
        calls.encode.push(ms);
        let all = stream.num_scans();
        let (frame, ms) = tracer
            .timed("ProgressiveImage::decode", Layer::Projpeg, request, || stream.decode(all));
        frame?;
        calls.decode_full.push(ms);
        let (first, ms) =
            tracer.timed("ProgressiveImage::decode", Layer::Projpeg, request, || stream.decode(1));
        let first = first?;
        calls.decode_first.push(ms);
        for (resolution, sink) in [(112, &mut calls.resize_112), (448, &mut calls.resize_448)] {
            let (resized, ms) = tracer.timed("crop_and_resize", Layer::Imaging, request, || {
                crop_and_resize(&original, crop, resolution)
            });
            resized?;
            sink.push(ms);
        }
        let reference_224 = crop_and_resize(&original, crop, 224)?;
        let candidate_224 = crop_and_resize(&first, crop, 224)?;
        let (reference, ms) = tracer.timed("SsimReference::new", Layer::Imaging, request, || {
            SsimReference::new(&reference_224, SsimConfig::default())
        });
        let reference = reference?;
        calls.ssim_ref_224.push(ms);
        let (score, ms) = tracer.timed("SsimReference::score", Layer::Imaging, request, || {
            reference.score(&candidate_224)
        });
        score?;
        calls.ssim_score_224.push(ms);

        // Microsecond calls: a hundred per timing.
        let ms = median_ms(tracer, "ScaleModel::choose_resolution x100", Layer::Core, 3, || {
            (0..100).map(|_| dep.scale_model.choose_resolution(black_box(&features))).sum::<usize>()
        });
        calls.scale_model_us.push(ms * 10.0);
        let ms =
            median_ms(tracer, "DynamicResolutionPipeline::execute x100", Layer::Core, 3, || {
                (0..100).filter(|_| pipeline.execute(black_box(sample), plan).is_ok()).count()
            });
        calls.execute_us.push(ms * 10.0);
        let ctx = EvalContext {
            model: config.backbone,
            dataset: config.dataset,
            resolution: plan.chosen_resolution,
            crop,
            quality: plan.quality(),
        };
        let ms = median_ms(tracer, "AccuracyOracle::is_correct x100", Layer::Oracle, 3, || {
            (0..100).filter(|_| dep.oracle.is_correct(black_box(sample), &ctx)).count()
        });
        calls.oracle_us.push(ms * 10.0);
    }

    let execute_us = stats::median(&calls.execute_us);
    for (name, values) in [
        ("data.render_ms", &calls.render),
        ("projpeg.encode_ms", &calls.encode),
        ("projpeg.decode_full_ms", &calls.decode_full),
        ("projpeg.decode_first_scan_ms", &calls.decode_first),
        ("projpeg.advance_ms_per_scan", &calls.advance),
        ("imaging.crop_resize_ms_r112", &calls.resize_112),
        ("imaging.crop_resize_ms_r448", &calls.resize_448),
        ("imaging.ssim_ref_ms_r224", &calls.ssim_ref_224),
        ("imaging.ssim_score_ms_r224", &calls.ssim_score_224),
        ("core.features_ms", &calls.features),
        ("core.scale_model_us", &calls.scale_model_us),
        ("core.execute_us", &calls.execute_us),
        ("core.plan_unattributed_ms", &unattributed),
        ("oracle.is_correct_us", &calls.oracle_us),
    ] {
        metrics.insert(name.into(), stats::median(values));
    }
    Ok(PlanProbe { plan_ms, execute_us })
}

/// Wall milliseconds of each direct call, one entry per call.
#[derive(Default)]
struct Calls {
    render: Vec<f64>,
    encode: Vec<f64>,
    decode_full: Vec<f64>,
    decode_first: Vec<f64>,
    advance: Vec<f64>,
    resize_112: Vec<f64>,
    resize_448: Vec<f64>,
    ssim_ref_224: Vec<f64>,
    ssim_score_224: Vec<f64>,
    features: Vec<f64>,
    scale_model_us: Vec<f64>,
    execute_us: Vec<f64>,
    oracle_us: Vec<f64>,
}

/// One stored image as the planner sees it.
struct Stored<'a> {
    original: &'a Image,
    stream: &'a ProgressiveImage,
    crop: CropRatio,
    request: Option<u64>,
}

/// The planner's storage walk at one resolution through public calls: build the
/// SSIM reference, then decode scan by scan, present and score each prefix until
/// the policy's threshold is met (or, with no threshold, jump to the last scan).
/// Returns the image it would present.
fn walk(
    tracer: &mut Tracer,
    calls: &mut Calls,
    stored: &Stored,
    resolution: usize,
    threshold: Option<f64>,
) -> Res<Image> {
    let Stored { original, stream, crop, request } = *stored;
    let (reference, _) = tracer.timed("crop_and_resize", Layer::Imaging, request, || {
        crop_and_resize(original, crop, resolution)
    });
    let reference = reference?;
    let (reference, _) = tracer.timed("SsimReference::new", Layer::Imaging, request, || {
        SsimReference::new(&reference, SsimConfig::default())
    });
    let reference = reference?;
    let (decoder, _) =
        tracer.timed("ProgressiveImage::progressive_decoder", Layer::Projpeg, request, || {
            stream.progressive_decoder()
        });
    let mut decoder = decoder?;
    let last = stream.num_scans();
    loop {
        match threshold {
            Some(_) => {
                let (advanced, ms) =
                    tracer.timed("ProgressiveDecoder::advance", Layer::Projpeg, request, || {
                        decoder.advance().map(|_| ())
                    });
                advanced?;
                calls.advance.push(ms);
            }
            None => {
                tracer
                    .timed("ProgressiveDecoder::advance_to", Layer::Projpeg, request, || {
                        decoder.advance_to(last).map(|_| ())
                    })
                    .0?
            }
        }
        let (presented, _) = tracer.timed("crop_and_resize", Layer::Imaging, request, || {
            crop_and_resize(decoder.frame(), crop, resolution)
        });
        let presented = presented?;
        let (score, _) = tracer
            .timed("SsimReference::score", Layer::Imaging, request, || reference.score(&presented));
        let score = score?;
        if threshold.is_none_or(|t| score >= t) || decoder.scans_applied() == last {
            return Ok(presented);
        }
    }
}

impl PlanProbe {
    /// Mean sequential cost (plan + execute) of one probed request, in
    /// milliseconds.
    pub fn sequential_ms(&self) -> f64 {
        stats::mean(&self.plan_ms) + self.execute_us / 1e3
    }
}
