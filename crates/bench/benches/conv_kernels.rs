//! Real wall-clock micro-benchmarks of the executable convolution kernels: the
//! measured counterpart of the analytic cost model.
//!
//! Six groups:
//!
//! * `conv2d` — the seed comparison (direct / im2col / tiled) at small resolutions,
//!   demonstrating that the best tiling depends on the input resolution (§VI).
//! * `engine` — the packed engine across the paper's resolution ladder 112–448:
//!   packed GEMM vs the seed's blocked GEMM, the 1×1 fast path, the dedicated
//!   depthwise kernel, and thread counts 1/2/N.
//! * `winograd` — the Winograd F(2×2,3×3) and F(4×4,3×3) arms vs the packed
//!   im2col baseline on stride-1 3×3 layers (the PR 4 acceptance table: ≥1.5×
//!   at 224² and 448²; PR 7 adds the α=6 transform).
//! * `forward_prepacked` — prepacked + fused + arena execution vs the PR-4-era
//!   reference at 224² and 448², under three-way calibrated dispatch; writes
//!   milestone latencies to `results/forward_latency.json`.
//! * `quantized` — the int8 u8×i8 arm vs the f32 packed engine on prepared
//!   stage-shape layers, plus the calibrated ResNet-50 forward with the arm
//!   admitted by its accuracy gate (the PR 9 acceptance comparison).
//! * `resnet50_forward` — the end-to-end acceptance benchmark: a ResNet-50-style
//!   forward at 224×224 through the engine (heuristic, measurement-calibrated,
//!   and forced-Winograd dispatch) vs the seed's im2col path.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rescnn_hwsim::{CalibratedCostModel, CpuProfile, MeasuredSweepConfig, MeasuredTuner};
use rescnn_models::{ModelKind, Network};
use rescnn_tensor::{
    conv2d_direct, conv2d_im2col, conv2d_tiled, conv2d_winograd_f4_prepared,
    conv2d_winograd_prepared, conv2d_with_algo, force_conv_algo, gemm_blocked, gemm_packed,
    install_algo_calibration, num_threads, set_num_threads, tensor_range, Conv2dParams, ConvAlgo,
    ConvEpilogue, ConvShapeKey, ConvTiling, FusedActivation, GemmBlocking, MatDims, PreparedLayer,
    Shape, Tensor, WinogradFilter,
};

/// The paper's inference-resolution ladder (§IV).
const RESOLUTION_LADDER: [usize; 4] = [112, 168, 224, 448];

/// One end-to-end forward latency measurement destined for
/// `results/forward_latency.json`.
struct LatencyRecord {
    milestone: &'static str,
    resolution: usize,
    min_ms: f64,
}

/// Minimum wall-clock milliseconds over `reps` runs (after one warm-up): the
/// same robust estimator the measured tuner uses, at network granularity.
fn min_ms_of(reps: usize, mut run: impl FnMut()) -> f64 {
    run();
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let start = std::time::Instant::now();
        run();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Parses one record line of the hand-formatted latency JSON back into its
/// fields (the vendored serde stub does not deserialize collections either).
fn parse_latency_record(line: &str) -> Option<(String, usize, f64)> {
    fn after<'a>(line: &'a str, key: &str) -> Option<&'a str> {
        Some(&line[line.find(key)? + key.len()..])
    }
    let rest = after(line, "\"milestone\": \"")?;
    let milestone = rest[..rest.find('"')?].to_string();
    let rest = after(line, "\"resolution\": ")?;
    let resolution = rest[..rest.find(',')?].trim().parse().ok()?;
    let rest = after(line, "\"min_ms\": ")?;
    let min_ms = rest[..rest.find(' ').unwrap_or(rest.len())].parse().ok()?;
    Some((milestone, resolution, min_ms))
}

/// Persists the forward-latency records as hand-formatted JSON (the vendored
/// serde stub does not serialize collections) so milestone-over-milestone
/// regressions are diffable in-repo. Records already on disk are preserved —
/// several bench groups write their own milestones into the same file — with
/// the newest measurement of a `(milestone, resolution)` pair winning.
fn write_forward_latency(records: &[LatencyRecord]) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let path = format!("{dir}/forward_latency.json");
    let mut combined: Vec<(String, usize, f64)> = std::fs::read_to_string(&path)
        .map(|existing| existing.lines().filter_map(parse_latency_record).collect())
        .unwrap_or_default();
    combined.retain(|(m, r, _)| !records.iter().any(|n| n.milestone == m && n.resolution == *r));
    combined.extend(records.iter().map(|r| (r.milestone.to_string(), r.resolution, r.min_ms)));
    let mut out = String::from("[\n");
    for (i, (milestone, resolution, min_ms)) in combined.iter().enumerate() {
        let sep = if i + 1 == combined.len() { "" } else { "," };
        out.push_str(&format!(
            "  {{ \"milestone\": \"{milestone}\", \"resolution\": {resolution}, \
             \"min_ms\": {min_ms:.3} }}{sep}\n"
        ));
    }
    out.push_str("]\n");
    if std::fs::write(&path, out).is_ok() {
        println!("forward latency records written to {path}");
    }
}

fn conv_benchmarks(c: &mut Criterion) {
    let mut group = c.benchmark_group("conv2d");
    group.sample_size(10);
    let params = Conv2dParams::new(16, 32, 3, 1, 1);
    let weight = Tensor::kaiming(Shape::new(32, 16, 3, 3), 16 * 9, 1);
    for &res in &[28usize, 56] {
        let input = Tensor::random_uniform(Shape::chw(16, res, res), 1.0, res as u64);
        group.bench_with_input(BenchmarkId::new("direct", res), &res, |b, _| {
            b.iter(|| conv2d_direct(&input, &weight, None, &params).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("im2col", res), &res, |b, _| {
            b.iter(|| conv2d_im2col(&input, &weight, None, &params).unwrap())
        });
        for (label, tiling) in [
            ("tiled_small", ConvTiling::new(8, 4, 16)),
            ("tiled_large", ConvTiling::new(32, 8, 64)),
        ] {
            group.bench_with_input(BenchmarkId::new(label, res), &res, |b, _| {
                b.iter(|| conv2d_tiled(&input, &weight, None, &params, tiling).unwrap())
            });
        }
    }
    group.finish();
}

/// Thread counts to sweep: 1, 2, and the host's full parallelism.
fn thread_sweep() -> Vec<usize> {
    let max = num_threads();
    let mut counts = vec![1];
    if max >= 2 {
        counts.push(2);
    }
    if max > 2 {
        counts.push(max);
    }
    counts
}

fn engine_benchmarks(c: &mut Criterion) {
    let original_threads = num_threads();
    let mut group = c.benchmark_group("engine");
    group.sample_size(10);

    // Packed GEMM vs the seed's blocked GEMM at a ResNet-50 layer-2 shape.
    let dims = MatDims::new(128, 784, 1152);
    let a: Vec<f32> = (0..dims.m * dims.k).map(|i| (i as f32 * 0.3).sin()).collect();
    let b: Vec<f32> = (0..dims.k * dims.n).map(|i| (i as f32 * 0.7).cos()).collect();
    group.bench_function("gemm_blocked_seed/128x784x1152", |bench| {
        let mut out = vec![0.0; dims.m * dims.n];
        bench.iter(|| {
            out.fill(0.0);
            gemm_blocked(dims, GemmBlocking::default(), &a, &b, &mut out)
        })
    });
    for threads in thread_sweep() {
        set_num_threads(threads);
        group.bench_with_input(
            BenchmarkId::new("gemm_packed_128x784x1152/threads", threads),
            &threads,
            |bench, _| {
                let mut out = vec![0.0; dims.m * dims.n];
                bench.iter(|| {
                    out.fill(0.0);
                    gemm_packed(dims, &a, &b, &mut out)
                })
            },
        );
    }
    set_num_threads(original_threads);

    // Engine algorithms across the paper's resolution ladder. Channel counts are
    // ResNet-50 stage-1-like, scaled by resolution as in the paper's ladder.
    for &res in &RESOLUTION_LADDER {
        let dense = Conv2dParams::new(32, 64, 3, 1, 1);
        let input = Tensor::random_uniform(Shape::chw(32, res, res), 1.0, res as u64);
        let weight = Tensor::kaiming(Shape::new(64, 32, 3, 3), 32 * 9, 2);
        group.bench_with_input(BenchmarkId::new("im2col_packed_3x3", res), &res, |b, _| {
            b.iter(|| {
                conv2d_with_algo(&input, &weight, None, &dense, ConvAlgo::Im2colPacked).unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("im2col_seed_3x3", res), &res, |b, _| {
            b.iter(|| conv2d_with_algo(&input, &weight, None, &dense, ConvAlgo::Im2col).unwrap())
        });

        let pointwise = Conv2dParams::new(32, 64, 1, 1, 0);
        let pw_weight = Tensor::kaiming(Shape::new(64, 32, 1, 1), 32, 3);
        group.bench_with_input(BenchmarkId::new("gemm_1x1", res), &res, |b, _| {
            b.iter(|| {
                conv2d_with_algo(&input, &pw_weight, None, &pointwise, ConvAlgo::Gemm1x1).unwrap()
            })
        });

        let depthwise = Conv2dParams::depthwise(32, 3, 1, 1);
        let dw_weight = Tensor::kaiming(Shape::new(32, 1, 3, 3), 9, 4);
        group.bench_with_input(BenchmarkId::new("depthwise", res), &res, |b, _| {
            b.iter(|| {
                conv2d_with_algo(&input, &dw_weight, None, &depthwise, ConvAlgo::Depthwise).unwrap()
            })
        });
    }
    group.finish();
}

/// Winograd F(2×2,3×3) vs the packed im2col baseline on stride-1 3×3 layers across
/// the paper's resolution ladder (PR 4 acceptance: ≥1.5× at 224² and 448²).
/// `winograd` pays the filter transform per call; `winograd_prepared` uses the
/// cached per-layer transform, the path the model zoo takes.
fn winograd_benchmarks(c: &mut Criterion) {
    let mut group = c.benchmark_group("winograd");
    group.sample_size(10);
    // The acceptance ladder: a VGG-block-1-like 64→64 stride-1 3×3 layer at the
    // paper's input resolutions (the channel count every ResNet-50 stage-2
    // bottleneck also uses). The PR 4 bar is winograd ≥1.5× im2col_packed at
    // 224² and 448².
    for &res in &RESOLUTION_LADDER {
        let params = Conv2dParams::new(64, 64, 3, 1, 1);
        let input = Tensor::random_uniform(Shape::chw(64, res, res), 1.0, res as u64);
        let weight = Tensor::kaiming(Shape::new(64, 64, 3, 3), 64 * 9, 2);
        let filter = WinogradFilter::prepare(&weight, &params).expect("eligible layer");
        group.bench_with_input(BenchmarkId::new("im2col_packed", res), &res, |b, _| {
            b.iter(|| {
                conv2d_with_algo(&input, &weight, None, &params, ConvAlgo::Im2colPacked).unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("winograd", res), &res, |b, _| {
            b.iter(|| conv2d_with_algo(&input, &weight, None, &params, ConvAlgo::Winograd).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("winograd_prepared", res), &res, |b, _| {
            b.iter(|| {
                conv2d_winograd_prepared(&input, &filter, None, &params, FusedActivation::None)
                    .unwrap()
            })
        });
        // The α=6 arm (PR 7): ≈2.25× fewer transform-domain multiplies than
        // F(2×2) on the same shapes, within its characterized tolerance.
        let filter_f4 = WinogradFilter::prepare_f4(&weight, &params).expect("eligible layer");
        group.bench_with_input(BenchmarkId::new("winograd_f4", res), &res, |b, _| {
            b.iter(|| {
                conv2d_with_algo(&input, &weight, None, &params, ConvAlgo::WinogradF4).unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("winograd_f4_prepared", res), &res, |b, _| {
            b.iter(|| {
                conv2d_winograd_f4_prepared(
                    &input,
                    &filter_f4,
                    None,
                    &params,
                    FusedActivation::None,
                )
                .unwrap()
            })
        });
    }
    // Secondary shapes: the shallow stem-like 32→64 layer (short GEMM reduction —
    // winograd's weakest case) and a deep low-resolution bottleneck 3×3.
    for (label, ic, oc, res) in
        [("stem_32to64_224", 32usize, 64usize, 224usize), ("deep_256_28", 256, 256, 28)]
    {
        let params = Conv2dParams::new(ic, oc, 3, 1, 1);
        let input = Tensor::random_uniform(Shape::chw(ic, res, res), 1.0, 5);
        let weight = Tensor::kaiming(Shape::new(oc, ic, 3, 3), ic * 9, 6);
        group.bench_function(format!("im2col_packed/{label}"), |b| {
            b.iter(|| {
                conv2d_with_algo(&input, &weight, None, &params, ConvAlgo::Im2colPacked).unwrap()
            })
        });
        group.bench_function(format!("winograd/{label}"), |b| {
            b.iter(|| conv2d_with_algo(&input, &weight, None, &params, ConvAlgo::Winograd).unwrap())
        });
    }
    group.finish();
}

/// The acceptance benchmark: ResNet-50-style forward at 224×224, engine vs the
/// seed's im2col path (forced through the whole network via [`force_conv_algo`]).
fn resnet50_forward(c: &mut Criterion) {
    let original_threads = num_threads();
    let mut group = c.benchmark_group("resnet50_forward_224");
    group.sample_size(10);
    let net = Network::new(ModelKind::ResNet50, 1000, 0);
    let input = Tensor::random_uniform(Shape::chw(3, 224, 224), 1.0, 1);

    force_conv_algo(None);
    group.bench_function("engine", |b| b.iter(|| net.forward(&input).unwrap()));
    for threads in thread_sweep() {
        set_num_threads(threads);
        group.bench_with_input(BenchmarkId::new("engine/threads", threads), &threads, |b, _| {
            b.iter(|| net.forward(&input).unwrap())
        });
    }
    // Calibrated dispatch: sweep the network's Winograd-eligible layer shapes
    // once (winograd vs packed im2col, wall clock), install the measured-fastest
    // table, and run the forward with per-layer measured defaults — Winograd only
    // where it actually won on this host. This is the deployment configuration.
    set_num_threads(original_threads);
    let layers = ModelKind::ResNet50.arch(1000).conv_layers(224).expect("resnet50 at 224");
    let tuner =
        MeasuredTuner::new(MeasuredSweepConfig { reps: 2, max_threads: 1, ..Default::default() });
    let mut calibrated = CalibratedCostModel::new(CpuProfile::host());
    let mut seen = std::collections::HashSet::new();
    for layer in &layers {
        if ConvAlgo::Winograd.supports(&layer.params)
            && seen.insert(ConvShapeKey::new(layer.params, layer.input))
        {
            for algo in [ConvAlgo::Im2colPacked, ConvAlgo::Winograd] {
                let kernel = tuner.measure_algo(layer, algo, 1);
                calibrated.record(layer, kernel.algo, kernel.seconds);
            }
            if tuner.admits_f4(layer) {
                let kernel = tuner.measure_algo(layer, ConvAlgo::WinogradF4, 1);
                calibrated.record(layer, kernel.algo, kernel.seconds);
            }
        }
    }
    install_algo_calibration(Some(calibrated.dispatch_table()));
    group.bench_function("engine_calibrated", |b| b.iter(|| net.forward(&input).unwrap()));
    install_algo_calibration(None);

    // Every stride-1 3×3 layer through the cached Winograd path (other shapes keep
    // their engine fast paths) — what calibration protects against: forcing
    // Winograd even on the deep low-resolution layers where it loses.
    force_conv_algo(Some(ConvAlgo::Winograd));
    group.bench_function("engine_winograd", |b| b.iter(|| net.forward(&input).unwrap()));
    for threads in thread_sweep() {
        set_num_threads(threads);
        group.bench_with_input(
            BenchmarkId::new("engine_winograd/threads", threads),
            &threads,
            |b, _| b.iter(|| net.forward(&input).unwrap()),
        );
    }
    set_num_threads(1);
    force_conv_algo(Some(ConvAlgo::Im2col));
    group.bench_function("seed_im2col", |b| b.iter(|| net.forward(&input).unwrap()));
    force_conv_algo(None);
    set_num_threads(original_threads);
    group.finish();
}

/// The PR 5 acceptance benchmark: prepacked weights + fused epilogues + arena
/// execution (`Network::forward`) vs the PR-4-era execution path
/// (`Network::forward_reference`: per-call weight packing, separate
/// activation/residual sweeps, fresh allocations per layer) — both under
/// measurement-calibrated dispatch, at 224² and 448². The two paths are
/// bitwise identical in results (pinned by the prepacked parity suites); only
/// the execution strategy differs.
fn forward_prepacked(c: &mut Criterion) {
    let original_threads = num_threads();
    set_num_threads(1);
    let mut group = c.benchmark_group("forward_prepacked");
    group.sample_size(10);
    let net = Network::new(ModelKind::ResNet50, 1000, 0);
    let tuner = MeasuredTuner::new(MeasuredSweepConfig { reps: 2, ..Default::default() });
    let mut records = Vec::new();
    for &res in &[224usize, 448] {
        // Calibrate dispatch for this resolution's shapes (the serving config).
        // The sweep now duels all three dense arms — packed im2col, F(2×2), and
        // (where the numerical gate admits the shape) F(4×4).
        let layers = ModelKind::ResNet50.arch(1000).conv_layers(res).expect("resnet50 layers");
        let mut calibrated = CalibratedCostModel::new(CpuProfile::host());
        let mut seen = std::collections::HashSet::new();
        for layer in &layers {
            if ConvAlgo::Winograd.supports(&layer.params)
                && seen.insert(ConvShapeKey::new(layer.params, layer.input))
            {
                for algo in [ConvAlgo::Im2colPacked, ConvAlgo::Winograd] {
                    let kernel = tuner.measure_algo(layer, algo, 1);
                    calibrated.record(layer, kernel.algo, kernel.seconds);
                }
                if tuner.admits_f4(layer) {
                    let kernel = tuner.measure_algo(layer, ConvAlgo::WinogradF4, 1);
                    calibrated.record(layer, kernel.algo, kernel.seconds);
                }
            }
        }
        install_algo_calibration(Some(calibrated.dispatch_table()));

        let shape = Shape::chw(3, res, res);
        let input = Tensor::random_uniform(shape, 1.0, res as u64);
        let plan = net.warm_thread_arena(shape).expect("arena plan");
        println!(
            "arena plan @{res}: {} buffers, {:.1} MiB arena, {:.1} MiB peak live activations",
            plan.buffer_elems.len(),
            plan.arena_bytes() as f64 / (1024.0 * 1024.0),
            plan.peak_live_bytes as f64 / (1024.0 * 1024.0),
        );
        group.bench_with_input(BenchmarkId::new("prepacked", res), &res, |b, _| {
            b.iter(|| net.forward(&input).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("reference", res), &res, |b, _| {
            b.iter(|| net.forward_reference(&input).unwrap())
        });

        // Milestone records for results/forward_latency.json.
        records.push(LatencyRecord {
            milestone: "calibrated_prepacked",
            resolution: res,
            min_ms: min_ms_of(3, || {
                net.forward(&input).unwrap();
            }),
        });
        records.push(LatencyRecord {
            milestone: "pr4_reference",
            resolution: res,
            min_ms: min_ms_of(1, || {
                net.forward_reference(&input).unwrap();
            }),
        });
        install_algo_calibration(None);
    }
    write_forward_latency(&records);
    group.finish();
    set_num_threads(original_threads);
}

/// The int8 quantized arm: u8×i8 GEMM with i32 accumulation and fused f32
/// dequantization vs the f32 packed engine, first on prepared stage-shape
/// layers (the microbenchmark behind the PR 9 acceptance table), then as the
/// end-to-end calibrated ResNet-50 forward with the arm admitted by its
/// accuracy gate (`MeasuredTuner::admits_int8`) — the deployment
/// configuration, with milestone latencies recorded alongside the f32 ones.
fn quantized_benchmarks(c: &mut Criterion) {
    let original_threads = num_threads();
    set_num_threads(1);
    let mut group = c.benchmark_group("quantized");
    group.sample_size(10);

    // Micro ladder: the four ResNet stage families at their 224²-input spatial
    // extents, prepared weights and a calibrated (static) activation range on
    // both arms — the serving operating point.
    for (ic, oc, k, res) in [
        (64usize, 64usize, 3usize, 56usize),
        (128, 128, 3, 28),
        (256, 256, 3, 14),
        (512, 512, 3, 7),
    ] {
        let params = Conv2dParams::new(ic, oc, k, 1, k / 2);
        let weight = Tensor::kaiming(Shape::new(oc, ic, k, k), ic * k * k, 7);
        let input = Tensor::random_uniform(Shape::chw(ic, res, res), 1.0, res as u64);
        let mut prepared = PreparedLayer::new(weight, None, params).expect("stage layer");
        let (lo, hi) = tensor_range(&input);
        prepared.set_int8_range(lo, hi);
        prepared.int8_weights().expect("int8-eligible layer");
        let mut out = Tensor::zeros(params.output_shape(input.shape()).expect("output shape"));
        let label = format!("{ic}to{oc}k{k}_{res}");
        group.bench_function(format!("f32_prepared/{label}"), |b| {
            b.iter(|| {
                prepared
                    .forward_with_algo_into(
                        &input,
                        ConvAlgo::Im2colPacked,
                        ConvEpilogue::activation(FusedActivation::None),
                        &mut out,
                    )
                    .unwrap()
            })
        });
        group.bench_function(format!("int8_prepared/{label}"), |b| {
            b.iter(|| {
                prepared
                    .forward_with_algo_into(
                        &input,
                        ConvAlgo::Int8,
                        ConvEpilogue::activation(FusedActivation::None),
                        &mut out,
                    )
                    .unwrap()
            })
        });
    }

    // End-to-end: calibrate every unique conv shape across the dense arms with
    // the int8 arm opted in (its accuracy gate still decides eligibility),
    // install the measured-fastest table, and run the forward.
    let mut net = Network::new(ModelKind::ResNet50, 1000, 0);
    let tuner =
        MeasuredTuner::new(MeasuredSweepConfig { reps: 2, int8: true, ..Default::default() });
    let mut records = Vec::new();
    for &res in &[224usize, 448] {
        let input = Tensor::random_uniform(Shape::chw(3, res, res), 1.0, res as u64);
        net.calibrate_int8_ranges(&input).expect("range calibration");
        let layers = ModelKind::ResNet50.arch(1000).conv_layers(res).expect("resnet50 layers");
        let mut calibrated = CalibratedCostModel::new(CpuProfile::host());
        let mut seen = std::collections::HashSet::new();
        for layer in &layers {
            if !seen.insert(ConvShapeKey::new(layer.params, layer.input)) {
                continue;
            }
            let mut algos = vec![ConvAlgo::Im2colPacked];
            if ConvAlgo::Gemm1x1.supports(&layer.params) {
                algos.push(ConvAlgo::Gemm1x1);
            }
            if ConvAlgo::Winograd.supports(&layer.params) {
                algos.push(ConvAlgo::Winograd);
                if tuner.admits_f4(layer) {
                    algos.push(ConvAlgo::WinogradF4);
                }
            }
            if tuner.admits_int8(layer) {
                algos.push(ConvAlgo::Int8);
            }
            for algo in algos {
                let kernel = tuner.measure_algo(layer, algo, 1);
                calibrated.record(layer, kernel.algo, kernel.seconds);
            }
        }
        let int8_shapes = calibrated
            .dispatch_table()
            .entries()
            .filter(|(_, algo)| *algo == ConvAlgo::Int8)
            .count();
        println!("calibrated dispatch @{res}: int8 measured-fastest on {int8_shapes} shapes");
        install_algo_calibration(Some(calibrated.dispatch_table()));
        net.warm_thread_arena(Shape::chw(3, res, res)).expect("arena plan");
        group.bench_with_input(BenchmarkId::new("resnet50_calibrated_int8", res), &res, |b, _| {
            b.iter(|| net.forward(&input).unwrap())
        });
        records.push(LatencyRecord {
            milestone: "pr9_calibrated_int8",
            resolution: res,
            min_ms: min_ms_of(3, || {
                net.forward(&input).unwrap();
            }),
        });
        install_algo_calibration(None);
    }
    write_forward_latency(&records);
    group.finish();
    set_num_threads(original_threads);
}

criterion_group!(
    benches,
    conv_benchmarks,
    engine_benchmarks,
    winograd_benchmarks,
    forward_prepacked,
    quantized_benchmarks,
    resnet50_forward
);
criterion_main!(benches);
