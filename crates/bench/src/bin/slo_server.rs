//! Real-clock harness for the async serving front-end: paces bursty and
//! steady arrival traces against a live `SloServer`, reporting wall-clock
//! latency percentiles, shed/degrade counts, gate rejections, and drain
//! latency, then replays each run's recorded trace through the virtual-clock
//! batch scheduler and exits 1 if any admission decision diverges or any
//! accepted ticket fails to settle exactly once.
//!
//! Wall numbers are host-dependent and reported, not asserted; the replay
//! equality check is exact and holds at any `RESCNN_THREADS` budget.
//!
//! Scale with `RESCNN_SAMPLES` (e.g. `RESCNN_SAMPLES=8` for a CI smoke run).

use rescnn_bench::load::ArrivalTrace;
use rescnn_bench::server_load::{replay_trace, run_server_load, ServerLoadRun};
use rescnn_bench::{report, HarnessConfig};
use rescnn_core::{
    DynamicResolutionPipeline, PipelineConfig, ResolutionLatencyModel, ScaleModelConfig,
    ScaleModelTrainer, ServerConfig, SloOptions,
};
use rescnn_data::{DatasetKind, DatasetSpec};
use rescnn_imaging::CropRatio;
use rescnn_models::ModelKind;
use rescnn_oracle::AccuracyOracle;
use serde::Serialize;
use std::sync::Arc;

#[derive(Debug, Serialize)]
struct ServerRow {
    scenario: String,
    submitted: usize,
    rejected_queue_full: usize,
    rejected_draining: usize,
    completed: usize,
    degraded: usize,
    shed: usize,
    expired: usize,
    wall_p50_ms: f64,
    wall_p99_ms: f64,
    wall_deadline_violations: usize,
    drain_ms: f64,
    drained_gracefully: bool,
    replay_matches: bool,
}

fn row(name: &str, run: &ServerLoadRun, replay_matches: bool) -> ServerRow {
    let report = &run.report;
    ServerRow {
        scenario: name.to_string(),
        submitted: report.submitted,
        rejected_queue_full: report.rejected_queue_full,
        rejected_draining: report.rejected_draining,
        completed: report.slo.completed,
        degraded: report.slo.degraded,
        shed: report.slo.shed,
        expired: report.slo.expired,
        wall_p50_ms: report.wall_p50_ms,
        wall_p99_ms: report.wall_p99_ms,
        wall_deadline_violations: report.wall_deadline_violations,
        drain_ms: report.drain_seconds * 1_000.0,
        drained_gracefully: report.drained_gracefully,
        replay_matches,
    }
}

fn build_pipeline(config: &HarnessConfig) -> DynamicResolutionPipeline {
    let resolutions = vec![112usize, 168, 224];
    let scale_config = ScaleModelConfig {
        resolutions: resolutions.clone(),
        seed: config.seed,
        ..Default::default()
    };
    let trainer = ScaleModelTrainer::new(scale_config, ModelKind::ResNet18, DatasetKind::CarsLike);
    let train = DatasetSpec::cars_like()
        .with_len(config.train_samples)
        .with_max_dimension(config.max_dimension.min(128))
        .build(config.seed ^ 0xA11CE);
    let scale_model = trainer.train(&train, 3).expect("scale-model training succeeds");
    let pipeline_config = PipelineConfig::new(ModelKind::ResNet18, DatasetKind::CarsLike)
        .with_crop(CropRatio::new(0.56).expect("valid crop"))
        .with_resolutions(resolutions);
    DynamicResolutionPipeline::new(pipeline_config, scale_model, AccuracyOracle::new(config.seed))
        .expect("pipeline construction succeeds")
}

fn main() {
    let config = HarnessConfig::from_env();
    let pipeline = Arc::new(build_pipeline(&config));
    let data = DatasetSpec::cars_like()
        .with_len(config.eval_samples.min(48))
        .with_max_dimension(config.max_dimension.min(128))
        .build(config.seed ^ 0x5E12);

    let latency =
        ResolutionLatencyModel::analytic(&pipeline).expect("analytic latency model builds");
    let top_ms = latency.estimate_ms(224).max(1.0);
    let n = (config.eval_samples / 8).clamp(8, 32);
    let base_options = SloOptions::default().with_latency_model(latency);

    let scenarios: Vec<(&str, ArrivalTrace, ServerConfig)> = vec![
        (
            "steady",
            ArrivalTrace::uniform(n, 2.0 * top_ms, 10.0 * top_ms),
            ServerConfig::default().with_options(base_options.clone()).with_record(true),
        ),
        (
            "bursty",
            ArrivalTrace::bursty(n, 4, 6.0 * top_ms, 4.0 * top_ms),
            ServerConfig::default()
                .with_options(base_options.clone().with_ssim_floor(0.35))
                .with_record(true),
        ),
        (
            "tight_queue",
            ArrivalTrace::bursty(n, 8, 8.0 * top_ms, 2.5 * top_ms),
            ServerConfig::default()
                .with_options(base_options.clone().with_ssim_floor(0.35))
                .with_queue_capacity(8)
                .with_record(true),
        ),
    ];

    let mut rows = Vec::new();
    let mut failed = false;
    for (name, trace, server_config) in &scenarios {
        let options = server_config.options.clone();
        let run = run_server_load(&pipeline, &data, trace, server_config.clone())
            .expect("the event loop drains instead of dying");
        if run.delivered != run.accepted.len() {
            eprintln!(
                "SETTLEMENT MISMATCH: {name}: {} completions for {} accepted tickets",
                run.delivered,
                run.accepted.len()
            );
            failed = true;
        }
        let live = run.report.trace.as_ref().expect("recording runs carry their trace");
        if !live.replayable() {
            eprintln!("REPLAY UNAVAILABLE: {name}: the drain hard-cancelled; trace not replayable");
            failed = true;
            rows.push(row(name, &run, false));
            continue;
        }
        let (_, replayed) = replay_trace(&pipeline, &data, &run.accepted, options, live)
            .expect("a graceful recording replays");
        let matches = replayed.decisions == live.decisions;
        if !matches {
            eprintln!("REPLAY DIVERGENCE: {name}: replayed admission decisions differ from live");
            failed = true;
        }
        rows.push(row(name, &run, matches));
    }

    let formatted: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.scenario.clone(),
                r.submitted.to_string(),
                r.rejected_queue_full.to_string(),
                r.rejected_draining.to_string(),
                r.completed.to_string(),
                r.degraded.to_string(),
                r.shed.to_string(),
                r.expired.to_string(),
                report::fmt(r.wall_p50_ms, 1),
                report::fmt(r.wall_p99_ms, 1),
                r.wall_deadline_violations.to_string(),
                report::fmt(r.drain_ms, 1),
                r.drained_gracefully.to_string(),
                r.replay_matches.to_string(),
            ]
        })
        .collect();
    report::print_table(
        "SLO server — real-clock serving front-end",
        &[
            "scenario",
            "submitted",
            "rej_full",
            "rej_drain",
            "completed",
            "degraded",
            "shed",
            "expired",
            "wall_p50",
            "wall_p99",
            "wall_viol",
            "drain_ms",
            "graceful",
            "replay_ok",
        ],
        &formatted,
    );
    report::save_json("slo_server", &rows);

    if failed {
        std::process::exit(1);
    }
    println!("replay determinism: every recorded scenario replayed bitwise");
}
