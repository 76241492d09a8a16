//! Resolution-specialized kernel tuning (§VI): compare autotuned convolution schedules
//! against an MKLDNN-like library baseline on the paper's two CPUs, and sweep the real
//! engine's convolution arms on the host to show the same effect with wall-clock time.
//!
//! Run with: `cargo run --release --example kernel_tuning`

use std::time::Instant;

use rescnn::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Analytic model: tuned vs. library latency for ResNet-50 on both paper platforms.
    let arch = ModelKind::ResNet50.arch(1000);
    let tuner = AutoTuner::new(TunerConfig::default());
    let library = LibraryKernels::mkldnn_like();
    for profile in CpuProfile::paper_platforms() {
        println!("== {profile} ==");
        println!(
            "{:>10} {:>12} {:>12} {:>9}",
            "resolution", "tuned (ms)", "library (ms)", "speedup"
        );
        for res in [112usize, 168, 224, 280, 336, 392, 448] {
            let tuned = tuner.tune_network(&arch, res, &profile)?;
            let lib = library.plan(&arch, res, &profile)?;
            println!(
                "{:>10} {:>12.1} {:>12.1} {:>8.2}x",
                res,
                tuned.latency_ms(),
                lib.latency_ms(),
                lib.latency_ms() / tuned.latency_ms()
            );
        }
        println!();
    }

    // 2. The packed engine, measured: sweep real algorithms over one ResNet-50 layer
    //    at two resolutions and compare with what the dispatch layer picks.
    use rescnn::hwsim::{
        CalibratedCostModel, CpuProfile as HwCpuProfile, MeasuredSweepConfig, MeasuredTuner,
    };
    use rescnn::tensor::ConvAlgo;
    println!("Measured engine sweep (wall-clock, this host):");
    let tuner = MeasuredTuner::new(MeasuredSweepConfig { int8: true, ..Default::default() });
    for res in [112usize, 224] {
        let layer = arch.conv_layers(res)?[10];
        println!("  layer {:?} at input {}:", layer.params.kernel, layer.input);
        for kernel in tuner.sweep_layer(&layer, &ConvAlgo::ALL) {
            println!(
                "    {:<14} {:>2} thread(s) {:>8.2} ms  {:>6.1} GMAC/s",
                kernel.algo.to_string(),
                kernel.threads,
                kernel.seconds * 1e3,
                kernel.gmacs_per_s
            );
        }
        println!("    dispatch picks: {}", tuner.dispatched_algo(&layer));
    }
    println!("\nNo single implementation wins at every resolution — the reason the paper\nautotunes kernels per resolution instead of relying on a fixed library.");

    // 3. Winograd F(2x2,3x3) and F(4x4,3x3) vs the packed im2col engine on
    //    stride-1 3x3 layers across the full resolution ladder. The alpha=6 arm
    //    only competes where its characterized numerical gate admits the shape
    //    (`MeasuredTuner::admits_f4`).
    use rescnn::models::ConvLayerShape;
    use rescnn::tensor::{
        conv2d_winograd_f4_prepared, conv2d_winograd_prepared, conv2d_with_algo, FusedActivation,
        WinogradFilter,
    };
    println!("\nWinograd F(2x2)/F(4x4) vs packed im2col (64->64 3x3 stride-1, this host):");
    println!(
        "{:>10} {:>12} {:>9} {:>9} {:>8} {:>8} {:>5}",
        "resolution", "im2col (ms)", "f2 (ms)", "f4 (ms)", "f2 gain", "f4 gain", "gate"
    );
    let params = Conv2dParams::new(64, 64, 3, 1, 1);
    let weight = Tensor::kaiming(Shape::new(64, 64, 3, 3), 64 * 9, 1);
    let filter = WinogradFilter::prepare(&weight, &params)?;
    let filter_f4 = WinogradFilter::prepare_f4(&weight, &params)?;
    let time_ms = |f: &mut dyn FnMut()| {
        f(); // warm caches and the scratch arena
        let start = Instant::now();
        let mut runs = 0u32;
        while start.elapsed().as_millis() < 300 {
            f();
            runs += 1;
        }
        start.elapsed().as_secs_f64() * 1e3 / runs as f64
    };
    for res in [112usize, 168, 224, 280, 336, 392, 448] {
        let input = Tensor::random_uniform(Shape::chw(64, res, res), 1.0, res as u64);
        let base = time_ms(&mut || {
            conv2d_with_algo(&input, &weight, None, &params, ConvAlgo::Im2colPacked).unwrap();
        });
        let wino = time_ms(&mut || {
            conv2d_winograd_prepared(&input, &filter, None, &params, FusedActivation::None)
                .unwrap();
        });
        let wino_f4 = time_ms(&mut || {
            conv2d_winograd_f4_prepared(&input, &filter_f4, None, &params, FusedActivation::None)
                .unwrap();
        });
        let admitted = tuner.admits_f4(&ConvLayerShape { params, input: input.shape() });
        println!(
            "{res:>10} {base:>12.2} {wino:>9.2} {wino_f4:>9.2} {:>7.2}x {:>7.2}x {:>5}",
            base / wino,
            base / wino_f4,
            if admitted { "ok" } else { "cut" }
        );
    }

    // 4. Int8 quantized GEMM vs the f32 packed engine on the ResNet stage
    //    shapes (prepared layers, static activation range — the serving
    //    configuration). The accuracy gate is the shape-pure unit-error probe
    //    `int8_unit_error` checked against `INT8_TOLERANCE`; dispatch offers
    //    the arm only where the gate admits AND the deployment opted in
    //    (`MeasuredSweepConfig::int8`).
    use rescnn::tensor::{
        conv_output_extent, int8_unit_error, tensor_range, ConvEpilogue, PreparedLayer,
        INT8_TOLERANCE,
    };
    println!("\nInt8 quantized vs f32 packed GEMM (prepared layers, this host):");
    println!(
        "{:>18} {:>12} {:>10} {:>8} {:>10} {:>5}",
        "stage shape", "f32 (ms)", "int8 (ms)", "speedup", "unit err", "gate"
    );
    for (ic, oc, k, res) in [
        (64usize, 64usize, 3usize, 56usize),
        (128, 128, 3, 28),
        (256, 256, 3, 14),
        (512, 512, 3, 7),
    ] {
        let params = Conv2dParams::new(ic, oc, k, 1, k / 2);
        let weight = Tensor::kaiming(Shape::new(oc, ic, k, k), ic * k * k, 7);
        let input = Tensor::random_uniform(Shape::chw(ic, res, res), 1.0, res as u64);
        let mut prepared = PreparedLayer::new(weight, None, params)?;
        let (lo, hi) = tensor_range(&input);
        prepared.set_int8_range(lo, hi);
        prepared.int8_weights()?; // prepack outside the timed region
        let oh = conv_output_extent(res, k, 1, k / 2)?;
        let mut out = Tensor::zeros(Shape::chw(oc, oh, oh));
        let f32_ms = time_ms(&mut || {
            prepared
                .forward_with_algo_into(
                    &input,
                    ConvAlgo::Im2colPacked,
                    ConvEpilogue::activation(FusedActivation::None),
                    &mut out,
                )
                .unwrap();
        });
        let int8_ms = time_ms(&mut || {
            prepared
                .forward_with_algo_into(
                    &input,
                    ConvAlgo::Int8,
                    ConvEpilogue::activation(FusedActivation::None),
                    &mut out,
                )
                .unwrap();
        });
        let err = int8_unit_error(&params, input.shape())?;
        let admitted = err <= INT8_TOLERANCE;
        println!(
            "{:>11}x{k} @{res:<3} {f32_ms:>12.3} {int8_ms:>10.3} {:>7.2}x {err:>10.3} {:>5}",
            format!("{ic}->{oc}"),
            f32_ms / int8_ms,
            if admitted { "ok" } else { "cut" }
        );
    }

    // 5. Close the loop: feed the measured sweeps into a calibrated cost model,
    //    export the measured-fastest dispatch table, and persist it. A serving
    //    deployment reloads the file with `CalibratedCostModel::load` and hands
    //    its table to the network it serves:
    //    `Network::new(..).with_arms(model.dispatch_table())`.
    let mut calibrated = CalibratedCostModel::new(HwCpuProfile::host());
    let layers = arch.conv_layers(224)?;
    calibrated.calibrate_layers(&tuner, &layers[..layers.len().min(12)]);
    let table = calibrated.dispatch_table();
    let path = std::env::temp_dir().join("rescnn-conv-calibration.txt");
    calibrated.save(&path)?;
    println!(
        "\nCalibrated dispatch: {} layer shapes measured; table persisted to {}",
        table.len(),
        path.display()
    );
    let swept = &layers[..layers.len().min(12)];
    let f2_measured = swept
        .iter()
        .filter(|l| calibrated.measured_seconds(l, ConvAlgo::Winograd).is_some())
        .count();
    let f4_measured = swept
        .iter()
        .filter(|l| calibrated.measured_seconds(l, ConvAlgo::WinogradF4).is_some())
        .count();
    let int8_measured =
        swept.iter().filter(|l| calibrated.measured_seconds(l, ConvAlgo::Int8).is_some()).count();
    println!(
        "  winograd arms measured & persisted: f2 on {f2_measured} shapes, f4 on {f4_measured} \
         (numerical gate admits)"
    );
    println!(
        "  int8 arm measured & persisted on {int8_measured} shapes (opted in; unit-error gate \
         admits)"
    );
    for layer in layers.iter().take(12) {
        println!(
            "  {:>3}x{:<3} k={} s={} {:>4}ch -> {}",
            layer.input.h,
            layer.input.w,
            layer.params.kernel,
            layer.params.stride,
            layer.params.in_channels,
            calibrated.best_algo(layer)
        );
    }
    Ok(())
}
