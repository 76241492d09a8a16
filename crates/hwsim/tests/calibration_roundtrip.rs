//! The measured-dispatch feedback loop, end to end: sweep real kernels with the
//! `MeasuredTuner`, persist the calibrated cost model to disk, reload it, and
//! verify that a `Network` given its dispatch table runs the measured-fastest
//! algorithm per swept shape — with `select_algo` untouched, unswept shapes on
//! the rule and explicit pins still winning. CI runs it under
//! `RESCNN_THREADS=1,2,4`.

use rescnn_hwsim::{CalibratedCostModel, CpuProfile, MeasuredSweepConfig, MeasuredTuner};
use rescnn_models::{ArchSpec, BlockSpec, ConvLayerShape, ModelKind, Network};
use rescnn_tensor::{select_algo, Conv2dParams, ConvAlgo, EngineContext, Shape, Tensor};

/// Small layers keep the wall-clock sweep fast: one Winograd-eligible 3×3 and
/// one pointwise layer (which Winograd cannot execute).
fn swept_layers() -> Vec<ConvLayerShape> {
    vec![
        ConvLayerShape { params: Conv2dParams::new(8, 8, 3, 1, 1), input: Shape::chw(8, 24, 24) },
        ConvLayerShape { params: Conv2dParams::new(8, 16, 1, 1, 0), input: Shape::chw(8, 24, 24) },
    ]
}

#[test]
fn measured_calibration_round_trips_and_steers_dispatch() {
    let layers = swept_layers();
    let tuner = MeasuredTuner::new(MeasuredSweepConfig {
        reps: 1,
        max_threads: 1,
        seed: 3,
        ..Default::default()
    });
    let mut model = CalibratedCostModel::new(CpuProfile::host());
    model.calibrate_layers(&tuner, &layers);
    assert!(!model.is_empty(), "sweeps must record measurements");
    // Every supported algorithm was measured, Winograd included on the 3×3 layer.
    assert!(model.measured_seconds(&layers[0], ConvAlgo::Winograd).is_some());
    assert!(model.measured_seconds(&layers[0], ConvAlgo::Im2colPacked).is_some());
    assert!(model.measured_seconds(&layers[1], ConvAlgo::Winograd).is_none());
    assert!(model.measured_seconds(&layers[1], ConvAlgo::Gemm1x1).is_some());

    // Persist → reload: measurements and the derived dispatch table survive.
    let path =
        std::env::temp_dir().join(format!("rescnn-hwsim-roundtrip-{}.txt", std::process::id()));
    model.save(&path).unwrap();
    let reloaded = CalibratedCostModel::load(&path, CpuProfile::host()).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(reloaded.len(), model.len());
    assert_eq!(reloaded.dispatch_table(), model.dispatch_table());

    // A thin network whose convolutions at 24² include both swept shapes: a
    // basic block's second 3×3 (8→8) and a bottleneck's 1×1 expand (8→16).
    let arch = ArchSpec {
        kind: ModelKind::ResNet18,
        blocks: vec![
            BlockSpec::BasicBlock { in_ch: 3, out_ch: 8, stride: 1 },
            BlockSpec::Bottleneck { in_ch: 8, mid_ch: 16, out_ch: 8, stride: 1 },
            BlockSpec::GlobalAvgPool,
            BlockSpec::Classifier { in_features: 8, num_classes: 4 },
        ],
        num_classes: 4,
    };
    let resolution = layers[0].input.h;
    let net_layers = arch.conv_layers(resolution).unwrap();
    assert!(layers.iter().all(|layer| net_layers.contains(layer)), "both swept shapes run");
    let rule: Vec<ConvAlgo> =
        net_layers.iter().map(|layer| select_algo(&layer.params, layer.input)).collect();

    // The reloaded table, held by the network: every swept shape runs on its
    // measured-fastest arm, every other layer keeps the rule, and no table
    // reaches `select_algo`.
    let net = Network::from_arch(&arch, 5).with_arms(reloaded.dispatch_table());
    for (layer, rule) in net_layers.iter().zip(&rule) {
        let arm = net.conv_arm(&layer.params, layer.input);
        if layers.contains(layer) {
            let fastest = reloaded.best_algo(layer);
            assert!(fastest.supports(&layer.params));
            assert_eq!(arm, fastest, "the network must run the measured-fastest arm");
        } else {
            assert_eq!(arm, *rule, "an unswept shape keeps the rule");
        }
        assert_eq!(select_algo(&layer.params, layer.input), *rule);
    }
    let unseen = Conv2dParams::new(8, 8, 3, 1, 1);
    let unseen_input = Shape::chw(8, 40, 40);
    assert_eq!(select_algo(&unseen, unseen_input), ConvAlgo::WinogradF4, "10×10 F(4×4) tiles");
    assert_eq!(net.conv_arm(&unseen, unseen_input), ConvAlgo::WinogradF4);

    // The measured arms run: the prepared forward equals the reference forward
    // (both resolve every arm through the table) and repeats its own bits.
    let input = Tensor::random_uniform(Shape::chw(3, resolution, resolution), 1.0, 11);
    let logits = net.forward(&input).unwrap();
    assert_eq!(logits.as_slice(), net.forward_reference(&input).unwrap().as_slice());
    assert_eq!(logits.as_slice(), net.forward(&input).unwrap().as_slice());

    // A scoped pin still beats the measured table.
    let layer = &layers[0];
    let pinned = EngineContext::new().with_algo(ConvAlgo::Direct);
    assert_eq!(pinned.scope(|| net.conv_arm(&layer.params, layer.input)), ConvAlgo::Direct);
    let plain = Network::from_arch(&arch, 5);
    assert_eq!(
        pinned.scope(|| net.forward(&input)).unwrap().as_slice(),
        pinned.scope(|| plain.forward(&input)).unwrap().as_slice(),
        "under a pin the table changes nothing"
    );
}
