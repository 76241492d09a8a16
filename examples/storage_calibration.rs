//! Storage calibration (§V): find, per resolution, the minimal SSIM threshold — and hence
//! the minimal number of progressive scans — that keeps accuracy within 0.05%, then report
//! the read-bandwidth savings (the mechanism behind Figure 6 and Tables III/IV). The
//! example ends with the two halves a deployment splits this into: *ingest*, which measures
//! a stored image against its original once and keeps the result as a scan index, and a
//! *read*, which needs only the stored stream and that index.
//!
//! Run with: `cargo run --release --example storage_calibration`

use rescnn::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dataset_kind = DatasetKind::CarsLike;
    let model = ModelKind::ResNet18;
    let crop = CropRatio::new(0.75)?;
    let resolutions = [112usize, 224, 336, 448];

    println!("Computing calibration curves on a small Cars-like calibration split...");
    let calibration_set =
        DatasetSpec::for_kind(dataset_kind).with_len(24).with_max_dimension(224).build(3);
    let curves = CalibrationCurves::compute(&calibration_set, model, crop, &resolutions, 90)?;
    let oracle = AccuracyOracle::new(0);

    let calibrator = StorageCalibrator::default();
    let policy = calibrator.calibrate(&curves, &oracle);

    println!(
        "\n{:>10} {:>16} {:>14} {:>14} {:>14}",
        "resolution", "SSIM threshold", "full acc", "calib acc", "read size"
    );
    for (idx, &res) in resolutions.iter().enumerate() {
        let threshold = policy.threshold_for(res).expect("calibrated resolution");
        let full = curves.full_read_accuracy(&oracle, idx);
        let (calibrated, read) = curves.accuracy_at_threshold(&oracle, idx, threshold);
        println!(
            "{:>10} {:>16.4} {:>13.1}% {:>13.1}% {:>13.1}%",
            res,
            threshold,
            full * 100.0,
            calibrated * 100.0,
            read * 100.0
        );
    }

    println!(
        "\nHigher resolutions tolerate lower fidelity, so they often read *less* data than\n\
         low resolutions while keeping accuracy — the counter-intuitive finding of §V."
    );

    // Ingest: with the original in hand, decide once how deep each rung reads this image.
    let scale_config = ScaleModelConfig { resolutions: resolutions.to_vec(), ..Default::default() };
    let scale_model =
        ScaleModelTrainer::new(scale_config, model, dataset_kind).train(&calibration_set, 4)?;
    let config = PipelineConfig::new(model, dataset_kind)
        .with_crop(crop)
        .with_resolutions(resolutions.to_vec())
        .with_storage(policy);
    let sample = &calibration_set[0];
    let stored = sample.encode_progressive(config.encode_quality)?;
    let pipeline = DynamicResolutionPipeline::new(config, scale_model, oracle)?;
    let index = pipeline.ingest(sample, &stored)?;
    println!(
        "\nIngested one {}x{} image ({} scans, {} bytes stored):",
        stored.width(),
        stored.height(),
        stored.num_scans(),
        stored.total_bytes()
    );
    println!("{:>10} {:>12} {:>12} {:>10}", "resolution", "scans read", "bytes read", "SSIM");
    for (resolution, point) in index.points() {
        println!(
            "{:>10} {:>12} {:>12} {:>10.4}",
            resolution,
            point.scans,
            stored.cumulative_bytes(point.scans),
            point.ssim
        );
    }

    // Read: the stream and its index are all the planner looks at — no original, no SSIM.
    let plan = pipeline.plan_with_storage(sample, stored.clone())?;
    println!(
        "Indexed read: the scale model chose {}x{}; the inference reads {} scans ({} bytes) \
         and the backbone sees SSIM {:.4}.",
        plan.chosen_resolution,
        plan.chosen_resolution,
        plan.scans_read(),
        stored.cumulative_bytes(plan.scans_read()),
        plan.quality()
    );
    Ok(())
}
