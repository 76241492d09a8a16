//! The two forward-pass workloads and the `tensor` / `models` / `hwsim` probes.

use std::hint::black_box;
use std::time::Instant;

use rescnn_hwsim::{ConvSchedule, CostModel, CpuProfile};
use rescnn_models::{ArchSpec, BlockSpec, ModelKind, Network};
use rescnn_tensor::{
    parallel, scratch, select_algo, ConvAlgo, ConvEpilogue, EngineContext, PreparedLayer, Shape,
    Tensor,
};

use crate::config::{
    self, BATCH, BATCH_RUNGS, IMAGENET_CLASSES, LADDER, LOGIT_TOLERANCE, NET_SEED, PROBE_REPEATS,
};
use crate::json::Value;
use crate::rng::Rng;
use crate::stats;
use crate::trace::{Layer, Tracer};
use crate::workload::{median_ms, typical_rate, Checks, Measured, Metrics, Quality, Res, Workload};

const MIB: f64 = 1024.0 * 1024.0;

fn resnet50() -> Network {
    Network::new(ModelKind::ResNet50, IMAGENET_CLASSES, NET_SEED)
}

fn random_image(seed: u64, stream: u64, resolution: usize) -> Tensor {
    let draw = Rng::for_stream(seed, stream).next_u64();
    Tensor::random_uniform(Shape::chw(3, resolution, resolution), 1.0, draw)
}

/// `forward` against `forward_reference` at the input's resolution.
fn check_against_reference(
    net: &Network,
    input: &Tensor,
    fast: &Tensor,
    checks: &mut Checks,
) -> Res<()> {
    let reference = net.forward_reference(input)?;
    let scale = reference.as_slice().iter().fold(1.0f32, |m, v| m.max(v.abs()));
    let diff = fast.max_abs_diff(&reference)?;
    checks.require(diff <= LOGIT_TOLERANCE * scale, || {
        format!(
            "forward differs from forward_reference by {diff:e} at {}² (allowed {:e})",
            input.shape().h,
            LOGIT_TOLERANCE * scale
        )
    });
    Ok(())
}

fn forward_quality(gflops: f64, attempted: u64, failed: u64) -> Quality {
    Quality {
        read_fraction_mean: 1.0,
        mean_gflops_per_image: gflops,
        accuracy: 1.0 - failed as f64 / attempted.max(1) as f64,
        delivered_ssim_mean: 1.0,
    }
}

fn mean_gflops(resolutions: &[usize]) -> Res<f64> {
    let arch = ModelKind::ResNet50.arch(IMAGENET_CLASSES);
    let mut total = 0.0;
    for &resolution in resolutions {
        total += arch.gflops(resolution)?;
    }
    Ok(total / resolutions.len() as f64)
}

// ---------------------------------------------------------------------------
// fwd_ladder
// ---------------------------------------------------------------------------

/// Closed loop, one client, one engine thread: one ResNet-50 forward per rung,
/// cycling 112→448. The paper's Table II.
pub struct FwdLadder {
    net: Network,
    inputs: Vec<Tensor>,
    /// Logits of the checked forward per rung; every timed forward must repeat
    /// them bitwise.
    expected: Vec<Tensor>,
    network_new_s: f64,
}

/// The samples of one rung out of latencies recorded cycle after cycle.
fn rung_samples(latencies_ms: &[f64], slot: usize) -> Vec<f64> {
    latencies_ms.iter().skip(slot).step_by(LADDER.len()).copied().collect()
}

impl Workload for FwdLadder {
    const NAME: &'static str = "fwd_ladder";

    fn threads() -> usize {
        1
    }

    fn setup(seed: u64) -> Res<Self> {
        EngineContext::new().with_threads(1).scope(|| {
            let start = Instant::now();
            let net = resnet50();
            let network_new_s = start.elapsed().as_secs_f64();
            let mut inputs = Vec::with_capacity(LADDER.len());
            for (i, &resolution) in LADDER.iter().enumerate() {
                let input = random_image(seed, i as u64, resolution);
                net.warm_thread_arena(input.shape())?;
                black_box(net.forward(&input)?);
                inputs.push(input);
            }
            Ok(FwdLadder { net, inputs, expected: Vec::new(), network_new_s })
        })
    }

    fn check(&mut self, checks: &mut Checks) -> Res<()> {
        EngineContext::new().with_threads(1).scope(|| {
            self.expected.clear();
            for input in &self.inputs {
                let fast = self.net.forward(input)?;
                check_against_reference(&self.net, input, &fast, checks)?;
                self.expected.push(fast);
            }
            Ok(())
        })
    }

    fn run(
        &mut self,
        _seed: u64,
        seconds: f64,
        tracer: &mut Tracer,
        checks: &mut Checks,
    ) -> Res<Measured> {
        EngineContext::new().with_threads(1).scope(|| {
            let mut latencies_ms = Vec::new();
            let mut failed = 0u64;
            let start = Instant::now();
            // Whole cycles only, so every rung has the same number of samples
            // and the median over all forwards is the median of 224².
            loop {
                for (input, expected) in self.inputs.iter().zip(&self.expected) {
                    let op = latencies_ms.len() as u64;
                    let (logits, ms) =
                        tracer.timed("Network::forward", Layer::Models, Some(op), || {
                            self.net.forward(input)
                        });
                    latencies_ms.push(ms);
                    if logits?.as_slice() != expected.as_slice() {
                        failed += 1;
                    }
                }
                if start.elapsed().as_secs_f64() >= seconds {
                    break;
                }
            }
            let wall_s = start.elapsed().as_secs_f64();
            checks.require(failed == 0, || {
                format!("{failed} forwards did not repeat the checked logits bitwise")
            });
            let attempted = latencies_ms.len() as u64;
            let per_rung: Vec<Vec<f64>> =
                (0..LADDER.len()).map(|slot| rung_samples(&latencies_ms, slot)).collect();
            let steps: Vec<&[f64]> = per_rung.iter().map(Vec::as_slice).collect();
            Ok(Measured {
                attempted,
                failed,
                wall_s,
                rate_ops_s: typical_rate(&steps, LADDER.len()),
                small_ms: per_rung[0].clone(),
                large_ms: per_rung[LADDER.len() - 1].clone(),
                latencies_ms,
                quality: forward_quality(mean_gflops(&LADDER)?, attempted, failed),
            })
        })
    }

    fn probes(
        &mut self,
        traced: &Measured,
        tracer: &mut Tracer,
        metrics: &mut Metrics,
        checks: &mut Checks,
    ) -> Res<Value> {
        let arch = ModelKind::ResNet50.arch(IMAGENET_CLASSES);
        let host = CpuProfile::host();
        let mut tables = Vec::new();
        EngineContext::new().with_threads(1).scope(|| -> Res<()> {
            for (slot, &resolution) in LADDER.iter().enumerate() {
                if ![112, 224, 448].contains(&resolution) {
                    continue;
                }
                // The traced run's own forwards at this rung.
                let fwd_ms = stats::median(&rung_samples(&traced.latencies_ms, slot));
                let rows = conv_walk(tracer, &arch, &host, resolution, resolution == 224)?;
                let conv_ms: f64 = rows.iter().map(ConvRow::total_ms).sum();
                let flops: f64 = rows.iter().map(|r| (r.flops * r.count as u64) as f64).sum();
                let bound_s: f64 = rows.iter().map(|r| r.roofline_s * r.count as f64).sum();
                let tag = format!("r{resolution}");
                metrics.insert(format!("models.fwd_ms_{tag}"), fwd_ms);
                metrics.insert(format!("tensor.conv_ms_{tag}"), conv_ms);
                metrics.insert(format!("models.nonconv_ms_{tag}"), fwd_ms - conv_ms);
                metrics.insert(format!("tensor.conv_gflops_{tag}"), flops / conv_ms / 1e6);
                metrics.insert(format!("tensor.roofline_frac_{tag}"), bound_s * 1e3 / conv_ms);
                let ratios: Vec<f64> = rows.iter().map(|r| r.predicted_ms / r.ms).collect();
                let gmean =
                    (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp();
                metrics.insert(format!("hwsim.predict_over_measured_gmean_{tag}"), gmean);
                if resolution != 224 {
                    for (stage, name) in ["stem", "c2", "c3", "c4", "c5"].iter().enumerate() {
                        let ms = rows.iter().filter(|r| r.stage == stage).map(ConvRow::total_ms);
                        metrics.insert(format!("tensor.stage_ms.{name}_{tag}"), ms.sum());
                    }
                } else {
                    for row in &rows {
                        *metrics
                            .entry(format!("tensor.algo_share.{}_{tag}", row.algo))
                            .or_insert(0.0) += row.total_ms() / conv_ms;
                    }
                    let worst = ratios.iter().copied().fold(0.0, f64::max);
                    metrics.insert("hwsim.predict_over_measured_max_r224".into(), worst);
                    let (f32_ms, int8_ms) = rows
                        .iter()
                        .filter_map(|r| r.int8_ms.map(|q| (r.total_ms(), q * r.count as f64)))
                        .fold((0.0, 0.0), |(a, b), (x, y)| (a + x, b + y));
                    metrics.insert("tensor.int8_speedup_r224".into(), f32_ms / int8_ms);
                    let bytes: f64 = rows.iter().map(|r| (r.bytes * r.count as u64) as f64).sum();
                    metrics.insert("tensor.bytes_moved_gb_r224".into(), bytes / 1e9);
                }
                tables.push(Value::obj([
                    ("resolution", Value::Num(resolution as f64)),
                    ("forward_ms", Value::Num(fwd_ms)),
                    ("conv_layers", Value::Arr(rows.iter().map(ConvRow::to_json).collect())),
                ]));
            }

            // Same-run baselines at 224².
            let input = &self.inputs[2];
            let fwd_224 = metrics["models.fwd_ms_r224"];
            let reference_ms =
                median_ms(tracer, "Network::forward_reference", Layer::Models, 3, || {
                    self.net.forward_reference(input).map(|logits| logits.argmax())
                });
            metrics.insert("models.reference_ratio_r224".into(), reference_ms / fwd_224);
            let before = scratch::heap_allocations();
            black_box(self.net.forward(input)?);
            let allocations = scratch::heap_allocations() - before;
            metrics.insert("tensor.heap_allocs_per_fwd".into(), allocations as f64);
            checks.require(allocations == 0, || {
                format!("a warm forward made {allocations} scratch heap allocations")
            });
            Ok(())
        })?;

        metrics.insert("models.network_new_s".into(), self.network_new_s);
        let plan = self.net.arena_plan(self.inputs[4].shape())?;
        metrics.insert("models.arena_peak_mib_r448".into(), plan.peak_live_bytes as f64 / MIB);

        // One image on every core against the 1-thread medians above.
        let all = config::nproc();
        EngineContext::new().with_threads(all).scope(|| {
            for (slot, tag) in [(2usize, "r224"), (4, "r448")] {
                let input = &self.inputs[slot];
                let wide_ms =
                    median_ms(tracer, "Network::forward", Layer::Models, PROBE_REPEATS, || {
                        self.net.forward(input).map(|logits| logits.argmax())
                    });
                let narrow_ms = metrics[&format!("models.fwd_ms_{tag}")];
                metrics.insert(format!("models.thread_scaling_{tag}"), narrow_ms / wide_ms);
            }
        });
        Ok(Value::Arr(tables))
    }
}

/// One distinct convolution shape of the network at one resolution.
struct ConvRow {
    key: String,
    /// 0 = stem, 1..=4 = c2..c5.
    stage: usize,
    /// Layers of the network with exactly this shape.
    count: usize,
    algo: ConvAlgo,
    ms: f64,
    flops: u64,
    /// Input + weights + output, computed from tensor sizes (not measured).
    bytes: u64,
    /// Roofline lower bound for one core of `CpuProfile::host()`.
    roofline_s: f64,
    predicted_ms: f64,
    int8_ms: Option<f64>,
}

impl ConvRow {
    fn total_ms(&self) -> f64 {
        self.ms * self.count as f64
    }

    fn to_json(&self) -> Value {
        Value::obj([
            ("shape", Value::str(self.key.clone())),
            ("stage", Value::Num(self.stage as f64)),
            ("count", Value::Num(self.count as f64)),
            ("algo", Value::str(self.algo.to_string())),
            ("ms", Value::Num(self.ms)),
            ("gflops_per_s", Value::Num(self.flops as f64 / self.ms / 1e6)),
            ("computed_bytes", Value::Num(self.bytes as f64)),
            ("roofline_frac", Value::Num(self.roofline_s * 1e3 / self.ms)),
            ("predicted_ms", Value::Num(self.predicted_ms)),
            ("int8_ms", self.int8_ms.map_or(Value::Null, Value::Num)),
        ])
    }
}

/// Stage of every convolution of a ResNet bottleneck architecture, in
/// `conv_layers` order: a block that widens its input opens the next stage.
fn conv_stages(arch: &ArchSpec) -> Vec<usize> {
    let mut stages = Vec::new();
    let mut stage = 0usize;
    for block in &arch.blocks {
        match *block {
            BlockSpec::ConvBnAct { .. } => stages.push(stage),
            BlockSpec::Bottleneck { in_ch, out_ch, stride, .. } => {
                if in_ch != out_ch {
                    stage += 1;
                }
                let convs = 3 + usize::from(stride != 1 || in_ch != out_ch);
                stages.extend(std::iter::repeat_n(stage, convs));
            }
            _ => {}
        }
    }
    stages
}

/// Times every distinct conv shape of `arch` at `resolution` through a
/// `PreparedLayer` with the algorithm dispatch would choose, on the calling
/// thread's engine budget.
fn conv_walk(
    tracer: &mut Tracer,
    arch: &ArchSpec,
    host: &CpuProfile,
    resolution: usize,
    with_int8: bool,
) -> Res<Vec<ConvRow>> {
    let layers = arch.conv_layers(resolution)?;
    let stages = conv_stages(arch);
    if stages.len() != layers.len() {
        return Err(format!("{} stages for {} conv layers", stages.len(), layers.len()).into());
    }
    let cost = CostModel::new();
    let schedule = ConvSchedule { threads: 1, ..ConvSchedule::naive(host) };
    let core_macs_per_s = host.attainable_macs_per_s() / host.cores.max(1) as f64;
    let mut seen: Vec<(rescnn_models::ConvLayerShape, usize)> = Vec::new();
    let mut rows: Vec<ConvRow> = Vec::new();
    for (layer, &stage) in layers.iter().zip(&stages) {
        if let Some(&(_, row)) = seen.iter().find(|(shape, _)| shape == layer) {
            rows[row].count += 1;
            continue;
        }
        let p = layer.params;
        let fan_in = p.in_channels / p.groups * p.kernel * p.kernel;
        let wshape = Shape::new(p.out_channels, p.in_channels / p.groups, p.kernel, p.kernel);
        let seed = rows.len() as u64;
        let prepared = PreparedLayer::new(Tensor::kaiming(wshape, fan_in, seed), None, p)?;
        let input = Tensor::random_uniform(layer.input, 1.0, seed);
        let oshape = p.output_shape(layer.input)?;
        let mut out = Tensor::zeros(oshape);
        let algo = select_algo(&p, layer.input);
        // The first call validates the shapes; identical repeats cannot fail.
        prepared.forward_with_algo_into(&input, algo, ConvEpilogue::default(), &mut out)?;
        let mut time = |tracer: &mut Tracer, algo: ConvAlgo| {
            median_ms(
                tracer,
                "PreparedLayer::forward_with_algo_into",
                Layer::Tensor,
                PROBE_REPEATS,
                || prepared.forward_with_algo_into(&input, algo, ConvEpilogue::default(), &mut out),
            )
        };
        let ms = time(tracer, algo);
        let int8_ms =
            (with_int8 && ConvAlgo::Int8.supports(&p)).then(|| time(tracer, ConvAlgo::Int8));
        let (estimate, _) = tracer.timed("CostModel::estimate", Layer::Hwsim, None, || {
            cost.estimate(layer, schedule, host)
        });
        let memory_s = estimate.bytes_moved as f64 / host.dram_bytes_per_s();
        let bytes = (layer.input.volume() + p.weight_count() + oshape.volume()) * 4;
        seen.push((*layer, rows.len()));
        rows.push(ConvRow {
            key: format!(
                "{}x{}x{} k{} s{} p{} g{} -> {}",
                p.in_channels,
                layer.input.h,
                layer.input.w,
                p.kernel,
                p.stride,
                p.padding,
                p.groups,
                p.out_channels
            ),
            stage,
            count: 1,
            algo,
            ms,
            flops: layer.flops(),
            bytes: bytes as u64,
            roofline_s: (layer.macs() as f64 / core_macs_per_s).max(memory_s),
            predicted_ms: estimate.seconds * 1e3,
            int8_ms,
        });
    }
    Ok(rows)
}

// ---------------------------------------------------------------------------
// fwd_batch_lowres
// ---------------------------------------------------------------------------

/// Closed loop, one client, `min(nproc, 4)` engine threads: `forward_batch` of
/// 8 images at 112² alternating with 8 at 168². The same `tensor` / `models`
/// code as `fwd_ladder` used for throughput of many small images.
pub struct FwdBatch {
    net: Network,
    batches: Vec<Vec<Tensor>>,
    expected: Vec<Vec<Tensor>>,
    /// Per-batch wall milliseconds of the last run, per rung.
    batch_ms: Vec<Vec<f64>>,
}

impl Workload for FwdBatch {
    const NAME: &'static str = "fwd_batch_lowres";

    fn threads() -> usize {
        config::pool_threads()
    }

    fn setup(seed: u64) -> Res<Self> {
        EngineContext::new().with_threads(Self::threads()).scope(|| {
            let net = resnet50();
            let mut batches = Vec::new();
            for (slot, &resolution) in BATCH_RUNGS.iter().enumerate() {
                let batch: Vec<Tensor> = (0..BATCH)
                    .map(|i| random_image(seed, (slot * BATCH + i) as u64, resolution))
                    .collect();
                black_box(net.forward_batch(&batch)?);
                batches.push(batch);
            }
            Ok(FwdBatch { net, batches, expected: Vec::new(), batch_ms: Vec::new() })
        })
    }

    fn check(&mut self, checks: &mut Checks) -> Res<()> {
        EngineContext::new().with_threads(Self::threads()).scope(|| {
            self.expected.clear();
            for batch in &self.batches {
                let outputs = self.net.forward_batch(batch)?;
                check_against_reference(&self.net, &batch[0], &outputs[0], checks)?;
                // Batching is an execution detail: the last image of the batch
                // must equal its own single forward bitwise.
                let single = self.net.forward(&batch[BATCH - 1])?;
                checks.require(single.as_slice() == outputs[BATCH - 1].as_slice(), || {
                    format!("forward_batch differs from forward at {}²", batch[0].shape().h)
                });
                self.expected.push(outputs);
            }
            Ok(())
        })
    }

    fn run(
        &mut self,
        _seed: u64,
        seconds: f64,
        tracer: &mut Tracer,
        checks: &mut Checks,
    ) -> Res<Measured> {
        EngineContext::new().with_threads(Self::threads()).scope(|| {
            let mut latencies_ms = Vec::new();
            let mut batch_ms = vec![Vec::new(); BATCH_RUNGS.len()];
            let mut failed = 0u64;
            let start = Instant::now();
            // One latency sample per alternation (both batches): percentiles of
            // two interleaved populations would sit on the boundary between them.
            loop {
                let mut pair_ms = 0.0;
                for (slot, (batch, expected)) in self.batches.iter().zip(&self.expected).enumerate()
                {
                    let op = (latencies_ms.len() * BATCH_RUNGS.len() + slot) as u64;
                    let (outputs, ms) =
                        tracer.timed("Network::forward_batch", Layer::Models, Some(op), || {
                            self.net.forward_batch(batch)
                        });
                    pair_ms += ms;
                    batch_ms[slot].push(ms);
                    let outputs = outputs?;
                    failed += outputs
                        .iter()
                        .zip(expected)
                        .filter(|(got, want)| got.as_slice() != want.as_slice())
                        .count() as u64;
                }
                latencies_ms.push(pair_ms);
                if start.elapsed().as_secs_f64() >= seconds {
                    break;
                }
            }
            let wall_s = start.elapsed().as_secs_f64();
            checks.require(failed == 0, || {
                format!("{failed} batched forwards did not repeat the checked logits bitwise")
            });
            let steps: Vec<&[f64]> = batch_ms.iter().map(Vec::as_slice).collect();
            let rate_ops_s = typical_rate(&steps, BATCH_RUNGS.len() * BATCH);
            let attempted = (latencies_ms.len() * BATCH_RUNGS.len() * BATCH) as u64;
            self.batch_ms = batch_ms;
            Ok(Measured {
                attempted,
                failed,
                wall_s,
                rate_ops_s,
                small_ms: self.batch_ms[0].clone(),
                large_ms: self.batch_ms[1].clone(),
                latencies_ms,
                quality: forward_quality(mean_gflops(&BATCH_RUNGS)?, attempted, failed),
            })
        })
    }

    fn probes(
        &mut self,
        _traced: &Measured,
        tracer: &mut Tracer,
        metrics: &mut Metrics,
        _checks: &mut Checks,
    ) -> Res<Value> {
        let batch_112 = stats::median(&self.batch_ms[0]);
        metrics.insert("models.batch_ms_b8_r112".into(), batch_112);
        metrics.insert("models.batch_ms_b8_r168".into(), stats::median(&self.batch_ms[1]));
        let single_ms = EngineContext::new().with_threads(1).scope(|| {
            let input = &self.batches[0][0];
            median_ms(tracer, "Network::forward", Layer::Models, PROBE_REPEATS, || {
                self.net.forward(input).map(|logits| logits.argmax())
            })
        });
        metrics.insert("models.fwd_ms_r112".into(), single_ms);
        metrics.insert("models.batch_gain_b8_r112".into(), BATCH as f64 * single_ms / batch_112);

        // What one dispatch onto the persistent pool costs when the chunks do
        // next to nothing: the floor under every parallel kernel call.
        let threads = Self::threads();
        let dispatch_us = EngineContext::new().with_threads(threads).scope(|| {
            let mut cells = vec![0u32; threads * 4];
            let mut dispatch = || {
                parallel::for_each_chunk(&mut cells, 1, true, |_, chunk| {
                    chunk[0] = chunk[0].wrapping_add(1);
                })
            };
            for _ in 0..100 {
                dispatch();
            }
            let (_, ms) =
                tracer.timed("parallel::for_each_chunk x1000", Layer::Tensor, None, || {
                    for _ in 0..1_000 {
                        dispatch();
                    }
                });
            black_box(&cells);
            ms
        });
        metrics.insert("tensor.pool_dispatch_us".into(), dispatch_us);
        Ok(Value::Null)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resnet50_stages_cover_every_conv_layer() {
        let arch = ModelKind::ResNet50.arch(IMAGENET_CLASSES);
        let stages = conv_stages(&arch);
        assert_eq!(stages.len(), arch.conv_layers(224).unwrap().len());
        let per_stage: Vec<usize> =
            (0..5).map(|s| stages.iter().filter(|&&x| x == s).count()).collect();
        assert_eq!(per_stage, vec![1, 10, 13, 19, 10]);
    }
}
