//! Every constant of the benchmark and the registry of metric names.
//!
//! Nothing here is derived from a timing at run time: workload sizes are fixed,
//! and `--seed` only orders inputs and schedules. `BENCHMARK.json` at the
//! repository root repeats the workload and metric lists; a unit test keeps the
//! two in step.

/// Weights of every network built by the benchmark.
pub const NET_SEED: u64 = 0x5EED_0001;
/// The sample pools are the same for every `--seed`; the seed orders them. A
/// pool drawn per seed would put sampling noise of ±10 % (32–48 images) on
/// every quality and timing metric, wider than any bound worth having.
pub const POOL_SEED: u64 = 0x5EED_0002;
pub const TRAIN_SEED: u64 = 0x5EED_0003;
pub const ORACLE_SEED: u64 = 0x5EED_0004;

pub const IMAGENET_CLASSES: usize = 1000;

/// `fwd_ladder`: one image per rung, cycling.
pub const LADDER: [usize; 5] = [112, 168, 224, 336, 448];
/// `fwd_batch_lowres`: batches of `BATCH` images alternating between these.
pub const BATCH_RUNGS: [usize; 2] = [112, 168];
pub const BATCH: usize = 8;

/// `storage_read`: natural-size pool, drained `DRAIN` requests at a time.
pub const STORAGE_POOL: usize = 32;
pub const DRAIN: usize = 16;
pub const STORAGE_RUNGS: [usize; 7] = [112, 168, 224, 280, 336, 392, 448];
pub const STORAGE_CROP: f64 = 0.75;

/// `serve_open`: 128-px pool behind a live server.
/// One sample per request of a deck of bursts (1 + 2 + … + 8), so every
/// schedule is a whole number of passes over the pool whatever its length.
pub const SERVE_POOL: usize = 36;
pub const SERVE_MAX_DIMENSION: usize = 128;
pub const SERVE_RUNGS: [usize; 3] = [112, 168, 224];
pub const SERVE_CROP: f64 = 0.56;
/// Burst epochs per second. With bursts of 1..=8 (mean 4.5) this offers 19.8
/// requests/s: about half of what the analytic latency model lets the virtual
/// clock admit at the planned rung on a 2-core host (≈25 ms per request), so no
/// request is degraded or shed, while bursts of up to 8 still queue.
pub const BURST_RATE_HZ: f64 = 4.4;
pub const BURST_MAX: usize = 8;
/// One fixed deadline slack: far above the worst virtual backlog at this load.
pub const DEADLINE_SLACK_MS: f64 = 1_000.0;
pub const SERVE_QUEUE_CAPACITY: usize = 256;

/// Scale-model training set (shared by both pipeline workloads).
pub const TRAIN_SAMPLES: usize = 48;
pub const TRAIN_SHARDS: usize = 3;

/// Set-up is run this many times per run and the median reported.
pub const SETUP_REPEATS: usize = 3;
/// `--smoke` run length per workload.
pub const SMOKE_SECONDS: f64 = 2.0;

/// `forward` against `forward_reference`: the crate states bitwise equality for
/// heuristic dispatch; the tolerance leaves room for a calibrated table choosing
/// a reassociating arm (Winograd's stated 1e-4 at unit scale).
pub const LOGIT_TOLERANCE: f32 = 1e-4;

/// Timed repetitions behind a per-layer median (after one warm-up).
pub const PROBE_REPEATS: usize = 3;
/// Samples planned one by one (the checked drain's), and of those the samples
/// whose plan is also taken apart into direct calls.
pub const PLAN_PROBE_SAMPLES: usize = DRAIN;
pub const PROBE_SAMPLES: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Lower }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Higher }
}

pub const WORKLOADS: [&str; 4] = ["fwd_ladder", "fwd_batch_lowres", "storage_read", "serve_open"];

/// Reported by every workload on an untraced run. Bounds live in
/// `BENCHMARK.json` only, so there is one place to change them.
pub const END_TO_END: [MetricDef; 11] = [
    lower("setup_s", "s"),
    higher("throughput_ops_s", "ops/s"),
    lower("latency_p50_ms", "ms"),
    lower("latency_p50_small_ms", "ms"),
    lower("latency_p50_large_ms", "ms"),
    higher("ok_share", "ratio"),
    lower("peak_rss_mib", "MiB"),
    lower("read_fraction_mean", "ratio"),
    lower("mean_gflops_per_image", "GFLOPs"),
    higher("accuracy", "ratio"),
    higher("delivered_ssim_mean", "ratio"),
];

/// Reported by every workload on a traced run; a metric of a layer the
/// workload does not enter reads 0.
pub const PER_LAYER: [MetricDef; 93] = [
    // tensor: ResNet-50 conv layers run one by one through `PreparedLayer`, 1 thread.
    lower("tensor.conv_ms_r112", "ms"),
    lower("tensor.conv_ms_r224", "ms"),
    lower("tensor.conv_ms_r448", "ms"),
    higher("tensor.conv_gflops_r112", "GFLOP/s"),
    higher("tensor.conv_gflops_r224", "GFLOP/s"),
    higher("tensor.conv_gflops_r448", "GFLOP/s"),
    higher("tensor.roofline_frac_r112", "ratio"),
    higher("tensor.roofline_frac_r224", "ratio"),
    higher("tensor.roofline_frac_r448", "ratio"),
    lower("tensor.stage_ms.stem_r112", "ms"),
    lower("tensor.stage_ms.c2_r112", "ms"),
    lower("tensor.stage_ms.c3_r112", "ms"),
    lower("tensor.stage_ms.c4_r112", "ms"),
    lower("tensor.stage_ms.c5_r112", "ms"),
    lower("tensor.stage_ms.stem_r448", "ms"),
    lower("tensor.stage_ms.c2_r448", "ms"),
    lower("tensor.stage_ms.c3_r448", "ms"),
    lower("tensor.stage_ms.c4_r448", "ms"),
    lower("tensor.stage_ms.c5_r448", "ms"),
    lower("tensor.algo_share.im2col_packed_r224", "ratio"),
    lower("tensor.algo_share.gemm_1x1_r224", "ratio"),
    lower("tensor.algo_share.depthwise_r224", "ratio"),
    lower("tensor.algo_share.winograd_r224", "ratio"),
    lower("tensor.algo_share.winograd_f4_r224", "ratio"),
    lower("tensor.algo_share.int8_packed_r224", "ratio"),
    higher("tensor.int8_speedup_r224", "ratio"),
    lower("tensor.bytes_moved_gb_r224", "GB"),
    lower("tensor.pool_dispatch_us", "us"),
    lower("tensor.heap_allocs_per_fwd", "count"),
    // models
    lower("models.fwd_ms_r112", "ms"),
    lower("models.fwd_ms_r224", "ms"),
    lower("models.fwd_ms_r448", "ms"),
    lower("models.nonconv_ms_r112", "ms"),
    lower("models.nonconv_ms_r224", "ms"),
    lower("models.nonconv_ms_r448", "ms"),
    higher("models.reference_ratio_r224", "ratio"),
    lower("models.network_new_s", "s"),
    lower("models.arena_peak_mib_r448", "MiB"),
    lower("models.batch_ms_b8_r112", "ms"),
    lower("models.batch_ms_b8_r168", "ms"),
    higher("models.batch_gain_b8_r112", "ratio"),
    higher("models.thread_scaling_r224", "ratio"),
    higher("models.thread_scaling_r448", "ratio"),
    // data, projpeg, imaging: direct calls over the workload's own pool
    lower("data.render_ms", "ms"),
    lower("projpeg.encode_ms", "ms"),
    lower("projpeg.decode_full_ms", "ms"),
    lower("projpeg.decode_first_scan_ms", "ms"),
    lower("projpeg.advance_ms_per_scan", "ms"),
    lower("projpeg.stream_kib", "KiB"),
    lower("projpeg.scans_read_mean", "count"),
    lower("imaging.crop_resize_ms_r112", "ms"),
    lower("imaging.crop_resize_ms_r448", "ms"),
    lower("imaging.ssim_ref_ms_r224", "ms"),
    lower("imaging.ssim_score_ms_r224", "ms"),
    // core, pipeline
    lower("core.plan_ms_p50", "ms"),
    lower("core.plan_ms_max", "ms"),
    lower("core.features_ms", "ms"),
    lower("core.scale_model_us", "us"),
    lower("core.execute_us", "us"),
    lower("core.plan_unattributed_ms", "ms"),
    // core, batch scheduler
    lower("core.drain_plan_share", "ratio"),
    higher("core.plan_parallel_eff", "ratio"),
    lower("core.sched_overhead_ms_per_req", "ms"),
    lower("core.buckets_per_drain", "count"),
    // core, server
    lower("core.submit_us_p50", "us"),
    lower("core.solo_latency_ms_p50", "ms"),
    lower("core.queue_wait_ms_p50", "ms"),
    lower("core.queue_wait_ms_p90", "ms"),
    lower("core.gen_late_ms_p90", "ms"),
    lower("core.gen_late_ms_max", "ms"),
    lower("core.degraded_share", "ratio"),
    lower("core.shed_share", "ratio"),
    lower("core.expired_share", "ratio"),
    lower("core.rejected_share", "ratio"),
    lower("core.deadline_miss_share", "ratio"),
    lower("core.drain_ms", "ms"),
    lower("core.estimate_over_wall", "ratio"),
    higher("core.replay_matches", "count"),
    // hwsim: analytic model against the per-layer times above
    lower("hwsim.predict_over_measured_gmean_r112", "ratio"),
    lower("hwsim.predict_over_measured_gmean_r224", "ratio"),
    lower("hwsim.predict_over_measured_gmean_r448", "ratio"),
    lower("hwsim.predict_over_measured_max_r224", "ratio"),
    lower("oracle.is_correct_us", "us"),
    // harness: self time of the traced run's spans per layer, and what tracing cost
    lower("trace.self_ms.tensor", "ms"),
    lower("trace.self_ms.models", "ms"),
    lower("trace.self_ms.imaging", "ms"),
    lower("trace.self_ms.projpeg", "ms"),
    lower("trace.self_ms.data", "ms"),
    lower("trace.self_ms.oracle", "ms"),
    lower("trace.self_ms.hwsim", "ms"),
    lower("trace.self_ms.core", "ms"),
    lower("trace.spans", "count"),
    lower("bench.trace_overhead_share", "ratio"),
];

/// Engine threads for the two data-parallel workloads.
pub fn pool_threads() -> usize {
    nproc().min(4)
}

/// Engine threads for `serve_open`: one core is left to the submitter and the
/// completion consumer.
pub fn serve_threads() -> usize {
    nproc().saturating_sub(1).max(1)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
