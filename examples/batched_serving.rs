//! Batched serving of mixed-resolution traffic through the persistent worker pool.
//!
//! A queue of concurrent inference requests is planned (preview + scale model),
//! grouped into resolution buckets, and executed bucket-by-bucket with batch-level
//! data parallelism. The aggregate report is identical to serving the queue one
//! request at a time — batching is purely an execution-efficiency decision — and the
//! per-bucket table shows how the scale model spreads the queue over the ladder.
//!
//! The execute stage is still an accuracy-oracle lookup: no backbone runs on the
//! serving path yet (ROADMAP slice 3a). So the table's execute columns time bookkeeping
//! only, and the drain's wall time is its planning.
//!
//! Run with: `cargo run --release --example batched_serving`

use std::time::Instant;

use rescnn::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dataset_kind = DatasetKind::CarsLike;
    let backbone = ModelKind::ResNet50;
    let resolutions = vec![112, 168, 224, 280, 336, 392, 448];

    println!("Training the scale model...");
    let train = DatasetSpec::for_kind(dataset_kind).with_len(96).with_max_dimension(224).build(0);
    let trainer = ScaleModelTrainer::new(
        ScaleModelConfig { resolutions: resolutions.clone(), ..Default::default() },
        backbone,
        dataset_kind,
    );
    let scale_model = trainer.train(&train, 4)?;

    let config = PipelineConfig::new(backbone, dataset_kind).with_resolutions(resolutions);
    let pipeline = DynamicResolutionPipeline::new(config, scale_model, AccuracyOracle::new(7))?;

    // A burst of concurrent requests, as a serving frontend would queue them.
    let queue = DatasetSpec::for_kind(dataset_kind).with_len(64).with_max_dimension(224).build(99);
    println!("Serving a {}-request mixed-resolution queue...\n", queue.len());

    let sequential_start = Instant::now();
    let sequential = pipeline.evaluate(&queue)?;
    let sequential_seconds = sequential_start.elapsed().as_secs_f64();

    let batched_start = Instant::now();
    let served = pipeline.evaluate_batched(&queue, BatchOptions::default().with_max_batch(16))?;
    let batched_seconds = batched_start.elapsed().as_secs_f64();

    assert_eq!(
        served.report, sequential,
        "batched serving must reproduce the sequential report exactly"
    );
    println!(
        "accuracy {:.1}%  mean cost {:.2} GFLOPs  (identical sequential vs. batched)",
        served.report.accuracy * 100.0,
        served.report.mean_gflops
    );
    println!(
        "wall clock: sequential {:.2} s  |  batched {:.2} s  ({} threads, planning {:.2} s)\n",
        sequential_seconds, batched_seconds, served.threads, served.planning_seconds
    );

    println!(
        "execute runs no backbone yet (ROADMAP slice 3a): the drain's wall time is planning, \
         and the exec columns below time the execute stage's bookkeeping only\n"
    );
    println!(
        "{:>10} {:>9} {:>8} {:>13} {:>14} {:>12}",
        "bucket", "requests", "batches", "outer/inner", "exec ms/batch", "exec req/s"
    );
    for bucket in &served.buckets {
        println!(
            "{:>7}² {:>9} {:>8} {:>12} {:>14.3} {:>12.0}",
            bucket.resolution,
            bucket.requests,
            bucket.batches,
            format!("{}/{}", bucket.outer_parallelism, bucket.inner_parallelism),
            bucket.mean_batch_latency_ms,
            bucket.throughput_rps,
        );
    }
    Ok(())
}
