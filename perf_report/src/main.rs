//! `perf_report`: the repository's benchmark. Four workloads, end-to-end
//! metrics from an untraced run, per-layer metrics from a traced run.
//!
//! ```text
//! cargo run --release --manifest-path perf_report/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out runs.jsonl]
//! cargo run --release --manifest-path perf_report/Cargo.toml -- --smoke
//! cargo run --release --manifest-path perf_report/Cargo.toml -- --compare a.jsonl b.jsonl
//! ```
//!
//! Run it from the repository root. The last line of standard output is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`; the exit code is
//! 1 when an output check failed and 2 when the run itself could not be made.
//!
//! # Called surface
//!
//! The benchmark uses only these public items of the layer crates, and nothing
//! of `rescnn-bench`, so refactors elsewhere do not have to touch it:
//!
//! * `rescnn_tensor`: `EngineContext::{new, with_threads, scope}`, `Tensor::{random_uniform,
//!   kaiming, zeros, as_slice, max_abs_diff, argmax, shape}`, `Shape::{new, chw, volume}`,
//!   `Conv2dParams` (fields, `output_shape`, `weight_count`), `PreparedLayer::{new,
//!   forward_with_algo_into}`, `ConvEpilogue::default`, `ConvAlgo::{Int8, supports, Display}`,
//!   `select_algo`, `parallel::for_each_chunk`, `scratch::heap_allocations`,
//!   `engine::{MR, NR}`.
//! * `rescnn_models`: `ModelKind::{ResNet18, ResNet50, arch}`, `ArchSpec::{blocks, conv_layers,
//!   gflops}`, `BlockSpec`, `ConvLayerShape::{params, input, flops, macs}`, `Network::{new,
//!   forward, forward_batch, forward_reference, warm_thread_arena, arena_plan}`,
//!   `ArenaPlan::peak_live_bytes`.
//! * `rescnn_imaging`: `crop_and_resize`, `CropRatio::new`, `Image`, `SsimConfig::default`,
//!   `SsimReference::{new, score}`.
//! * `rescnn_projpeg`: `ProgressiveImage::{encode, decode, progressive_decoder, num_scans,
//!   total_bytes}`, `ScanPlan::standard`, `ProgressiveDecoder::{advance, advance_to, frame,
//!   scans_applied}`.
//! * `rescnn_data`: `DatasetSpec::{cars_like, with_len, with_max_dimension, build}`,
//!   `Dataset::{iter, len, take, index}`, `DatasetKind::CarsLike`, `Sample::{render,
//!   encode_progressive}`.
//! * `rescnn_oracle`: `AccuracyOracle::{new, is_correct}`, `EvalContext` (fields).
//! * `rescnn_hwsim`: `CpuProfile::{host, attainable_macs_per_s, dram_bytes_per_s}` and fields,
//!   `CostModel::{new, estimate}`, `ConvSchedule::naive` and fields, `KernelEstimate` fields.
//! * `rescnn_core`: `ScaleModelConfig`, `ScaleModelTrainer::{new, train}`,
//!   `ScaleModel::{preview_resolution, choose_resolution}`, `PipelineConfig::{new, with_crop,
//!   with_resolutions, with_engine_threads, with_storage, engine_context}` and fields,
//!   `CalibrationCurves::compute`, `StorageCalibrator::calibrate`,
//!   `StoragePolicy::threshold_for`, `DynamicResolutionPipeline::{new, config,
//!   plan_with_storage, execute, evaluate}`, `InferencePlan::{chosen_resolution, quality,
//!   scans_read}`, `InferenceRecord::{correct, quality, total_gflops, read_fraction}`,
//!   `PipelineReport` fields, `extract_features`, `BatchOptions::{default, with_threads}`,
//!   `BatchScheduler::{new, submit_with_storage, run}`, `ServeReport` fields,
//!   `ResolutionLatencyModel::{analytic, estimate_ms}`, `SloOptions::{default,
//!   with_latency_model}`, `ServerConfig::{default, with_options, with_queue_capacity,
//!   with_record}`, `SloServer::{start, completions, submit, join}`, `ServerRequest::{new,
//!   with_storage}`, `Completion` fields, `SloOutcome::Completed`, `ServerReport` fields,
//!   `SloReport::{degraded, shed, expired}`, `ServingTrace::{replayable, decisions}`,
//!   `SloScheduler::{new, submit, replay}`, `SloRequest::{new, with_storage}`.
//!
//! It calls none of `force_conv_algo`, `install_algo_calibration`, `set_chain_mode`,
//! `conv2d_im2col`, `conv2d_tiled`, `gemm_blocked`, `gemm_naive` or `SloOptions::chaos_*`,
//! which ROADMAP items 2–3 slate for removal.

mod compare;
mod config;
mod deploy;
mod fwd;
mod host;
mod json;
mod rng;
mod serve;
mod stats;
mod storage;
mod trace;
mod workload;

use std::io::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use config::{MetricDef, END_TO_END, PER_LAYER, SETUP_REPEATS, SMOKE_SECONDS, WORKLOADS};
use json::Value;
use trace::{Layer, Tracer};
use workload::{Checks, Measured, Metrics, Res, Workload};

const USAGE: &str = "usage: perf_report --workload <fwd_ladder|fwd_batch_lowres|storage_read|\
serve_open> [--seed <n>] [--seconds <s>] [--trace [0|1]] [--out <runs.jsonl>]
       perf_report --smoke
       perf_report --compare <a.jsonl> <b.jsonl>";

#[derive(Debug, Default, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    smoke: bool,
    compare: Option<(String, String)>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args { seconds: 20.0, ..Args::default() };
    let mut iter = raw.iter().peekable();
    while let Some(flag) = iter.next() {
        let mut value =
            |name: &str| iter.next().cloned().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?.parse().map_err(|_| "--seed takes a whole number")?;
            }
            "--seconds" => {
                args.seconds =
                    value("--seconds")?.parse().map_err(|_| "--seconds takes a number")?;
                if !(args.seconds > 0.0 && args.seconds <= 3_600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            // `--trace 1`, `--trace 0`, or a bare `--trace`.
            "--trace" => match iter.next_if(|next| matches!(next.as_str(), "0" | "1")) {
                Some(choice) => args.trace = choice == "1",
                None => args.trace = true,
            },
            "--out" => args.out = Some(value("--out")?),
            "--smoke" => args.smoke = true,
            "--compare" => args.compare = Some((value("--compare")?, value("--compare")?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let modes = usize::from(args.workload.is_some())
        + usize::from(args.smoke)
        + usize::from(args.compare.is_some());
    if modes != 1 {
        return Err("give exactly one of --workload, --smoke, --compare".into());
    }
    Ok(args)
}

/// One finished run: what the last line of output says.
struct RunResult {
    attempted: u64,
    failed: u64,
    /// Registry order.
    metrics: Vec<(MetricDef, f64)>,
    failures: Vec<String>,
}

impl RunResult {
    fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    fn to_json(&self) -> Value {
        Value::obj([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            (
                "metrics",
                Value::obj(self.metrics.iter().map(|(def, value)| {
                    let fields = [("value", Value::Num(*value)), ("unit", Value::str(def.unit))];
                    (def.name, Value::obj(fields))
                })),
            ),
        ])
    }
}

fn end_to_end(measured: &Measured, setup_s: f64, peak_rss_mib: f64) -> Metrics {
    let p50 = |samples: &[f64]| stats::percentile(&stats::sorted(samples), 0.5);
    let ok_share = (measured.attempted - measured.failed) as f64 / measured.attempted.max(1) as f64;
    let quality = measured.quality;
    Metrics::from(
        [
            ("setup_s", setup_s),
            ("throughput_ops_s", measured.rate_ops_s * ok_share),
            ("latency_p50_ms", p50(&measured.latencies_ms)),
            ("latency_p50_small_ms", p50(&measured.small_ms)),
            ("latency_p50_large_ms", p50(&measured.large_ms)),
            ("ok_share", ok_share),
            ("peak_rss_mib", peak_rss_mib),
            ("read_fraction_mean", quality.read_fraction_mean),
            ("mean_gflops_per_image", quality.mean_gflops_per_image),
            ("accuracy", quality.accuracy),
            ("delivered_ssim_mean", quality.delivered_ssim_mean),
        ]
        .map(|(name, value)| (name.to_string(), value)),
    )
}

/// Lines up collected values with the registry: every registered metric is
/// emitted (a per-layer metric nobody measured reads 0), and a value under an
/// unregistered name or a non-finite value fails the run.
fn emit(
    registry: &[MetricDef],
    zero_fill: bool,
    values: Metrics,
    checks: &mut Checks,
) -> Vec<(MetricDef, f64)> {
    for name in values.keys() {
        checks.require(registry.iter().any(|def| def.name == name), || {
            format!("metric {name} is not in the registry")
        });
    }
    registry
        .iter()
        .map(|def| {
            let value = values.get(def.name).copied();
            checks.require(value.is_some() || zero_fill, || format!("metric {} missing", def.name));
            let value = value.unwrap_or(0.0);
            checks.require(value.is_finite(), || format!("metric {} is {value}", def.name));
            (*def, if value.is_finite() { value } else { 0.0 })
        })
        .collect()
}

struct RunSpec<'a> {
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_repeats: usize,
    out: Option<&'a str>,
}

fn drive<W: Workload>(spec: &RunSpec) -> Res<RunResult> {
    let mut checks = Checks::default();

    // Set-up several times, keeping the last: one set-up is too few samples of
    // a metric that guards work moved out of the timed phase.
    let mut setup_s = Vec::with_capacity(spec.setup_repeats);
    let mut state = None;
    for _ in 0..spec.setup_repeats.max(1) {
        drop(state.take());
        let start = Instant::now();
        state = Some(W::setup(spec.seed)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut state = state.expect("set up at least once");
    let setup_s = stats::median(&setup_s);
    state.check(&mut checks)?;

    let (measured, metrics) = if !spec.trace {
        let measured = state.run(spec.seed, spec.seconds, &mut Tracer::new(false), &mut checks)?;
        let rss = host::peak_rss_mib();
        checks.require(rss.is_some(), || "VmHWM is not readable from /proc/self/status".into());
        let values = end_to_end(&measured, setup_s, rss.unwrap_or(0.0));
        let metrics = emit(&END_TO_END, false, values, &mut checks);
        (measured, metrics)
    } else {
        // Untraced and traced quarters alternate, so drift of the machine
        // falls on both alike: the difference is what tracing costs, and the
        // traced quarters feed the per-layer numbers.
        let quarter = spec.seconds / 4.0;
        let mut tracer = Tracer::new(true);
        let mut off = Tracer::new(false);
        let plain = state.run(spec.seed, quarter, &mut off, &mut checks)?;
        let traced = state.run(spec.seed, quarter, &mut tracer, &mut checks)?;
        let plain = plain.followed_by(state.run(spec.seed, quarter, &mut off, &mut checks)?);
        let traced = traced.followed_by(state.run(spec.seed, quarter, &mut tracer, &mut checks)?);
        let mut values = Metrics::new();
        let tables = state.probes(&traced, &mut tracer, &mut values, &mut checks)?;
        let overhead = stats::mean(&traced.latencies_ms) / stats::mean(&plain.latencies_ms) - 1.0;
        values.insert("bench.trace_overhead_share".into(), overhead);
        for (layer, ms) in Layer::CRATES.iter().zip(tracer.layer_self_ms()) {
            values.insert(format!("trace.self_ms.{}", layer.name()), ms);
        }
        values.insert("trace.spans".into(), tracer.spans().len() as f64);
        let metrics = emit(&PER_LAYER, true, values, &mut checks);
        write_trace::<W>(spec, &tracer, tables, &metrics)?;
        (traced, metrics)
    };

    let result = RunResult {
        attempted: measured.attempted,
        failed: measured.failed,
        metrics,
        failures: checks.failures().to_vec(),
    };
    report::<W>(spec, &result, &measured)?;
    Ok(result)
}

fn run_record<W: Workload>(spec: &RunSpec, result: &RunResult) -> Value {
    Value::obj([
        ("workload", Value::str(W::NAME)),
        ("seed", Value::Num(spec.seed as f64)),
        ("seconds", Value::Num(spec.seconds)),
        ("trace", Value::Bool(spec.trace)),
        ("host", host::fingerprint(W::threads())),
        ("result", result.to_json()),
    ])
}

/// Spans, the per-conv-layer tables and the traced metrics, written when the
/// run ends.
fn write_trace<W: Workload>(
    spec: &RunSpec,
    tracer: &Tracer,
    tables: Value,
    metrics: &[(MetricDef, f64)],
) -> Res<()> {
    let document = Value::obj([
        ("workload", Value::str(W::NAME)),
        ("seed", Value::Num(spec.seed as f64)),
        ("host", host::fingerprint(W::threads())),
        ("metrics", Value::obj(metrics.iter().map(|(def, value)| (def.name, Value::Num(*value))))),
        ("tables", tables),
        ("spans", tracer.to_json()),
    ]);
    std::fs::create_dir_all("results")?;
    let path = format!("results/perf_trace_{}.json", W::NAME);
    std::fs::write(&path, document.render())?;
    println!("trace written to {path}");
    Ok(())
}

/// Every metric by name with its unit, the timing summary the guide asks for,
/// then the optional `--out` record.
fn report<W: Workload>(spec: &RunSpec, result: &RunResult, measured: &Measured) -> Res<()> {
    println!(
        "{} seed {} trace {}: {} attempted, {} failed in {:.2} s ({:.3} ops/s over wall time)",
        W::NAME,
        spec.seed,
        u8::from(spec.trace),
        result.attempted,
        result.failed,
        measured.wall_s,
        (result.attempted - result.failed) as f64 / measured.wall_s
    );
    let samples = measured.latencies_ms.len();
    if let Some(q) = stats::highest_supported_percentile(samples) {
        let sorted = stats::sorted(&measured.latencies_ms);
        println!(
            "latency: median {:.3} ms, p{} {:.3} ms is the highest percentile {samples} samples support",
            stats::percentile(&sorted, 0.5),
            q * 100.0,
            stats::percentile(&sorted, q),
        );
    } else {
        println!("latency: {samples} samples support no percentile (ten must lie beyond it)");
    }
    for (def, value) in &result.metrics {
        println!(
            "  {:<42} {:>16.6} {:<8} ({} is better)",
            def.name,
            value,
            def.unit,
            def.better.as_str()
        );
    }
    for failure in &result.failures {
        println!("CHECK FAILED: {failure}");
    }
    if let Some(path) = spec.out {
        let mut file = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
        writeln!(file, "{}", run_record::<W>(spec, result).render())?;
    }
    Ok(())
}

fn dispatch(workload: &str, spec: &RunSpec) -> Res<RunResult> {
    match workload {
        "fwd_ladder" => drive::<fwd::FwdLadder>(spec),
        "fwd_batch_lowres" => drive::<fwd::FwdBatch>(spec),
        "storage_read" => drive::<storage::StorageRead>(spec),
        "serve_open" => drive::<serve::ServeOpen>(spec),
        other => Err(format!("unknown workload {other}; expected one of {WORKLOADS:?}").into()),
    }
}

fn real_main() -> Res<ExitCode> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&raw).map_err(|e| format!("{e}\n{USAGE}"))?;

    if let Some((a, b)) = &args.compare {
        let manifest = std::fs::read_to_string("BENCHMARK.json")
            .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
        let read =
            |path: &String| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
        print!("{}", compare::compare(&manifest, &read(a)?, &read(b)?)?);
        return Ok(ExitCode::SUCCESS);
    }

    if args.smoke {
        // Every workload briefly with every check on; timings are not judged.
        let mut all_correct = true;
        for workload in WORKLOADS {
            let spec = RunSpec {
                seed: args.seed,
                seconds: SMOKE_SECONDS,
                trace: false,
                setup_repeats: 1,
                out: None,
            };
            all_correct &= dispatch(workload, &spec)?.correct();
        }
        println!("smoke: {}", if all_correct { "every check passed" } else { "CHECKS FAILED" });
        return Ok(if all_correct { ExitCode::SUCCESS } else { ExitCode::from(1) });
    }

    let workload = args.workload.as_deref().expect("parse_args requires a mode");
    let spec = RunSpec {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        setup_repeats: SETUP_REPEATS,
        out: args.out.as_deref(),
    };
    let result = dispatch(workload, &spec)?;
    println!("{}", result.to_json().render());
    Ok(if result.correct() { ExitCode::SUCCESS } else { ExitCode::from(1) })
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(error) => {
            eprintln!("perf_report: {error}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use config::Better;

    const MANIFEST: &str = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// `(name, unit, better)` of each entry of one list of the manifest.
    fn manifest_metrics(manifest: &Value, list: &str) -> Vec<(String, String, String)> {
        let text = |entry: &Value, key: &str| entry.get(key).unwrap().as_str().unwrap().to_string();
        manifest
            .get(list)
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|e| (text(e, "name"), text(e, "unit"), text(e, "better")))
            .collect()
    }

    fn registry_metrics(registry: &[MetricDef]) -> Vec<(String, String, String)> {
        registry
            .iter()
            .map(|d| (d.name.to_string(), d.unit.to_string(), d.better.as_str().to_string()))
            .collect()
    }

    #[test]
    fn every_emitted_name_is_well_formed_and_in_benchmark_json() {
        let manifest = json::parse(MANIFEST).unwrap();
        assert_eq!(manifest_metrics(&manifest, "end_to_end"), registry_metrics(&END_TO_END));
        assert_eq!(manifest_metrics(&manifest, "per_layer"), registry_metrics(&PER_LAYER));
        let workloads: Vec<&str> = manifest
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
        let mut names: Vec<&str> =
            END_TO_END.iter().chain(&PER_LAYER).map(|d| d.name).chain(WORKLOADS).collect();
        assert!(names.iter().all(|name| well_formed(name)), "{names:?}");
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "a name is used twice");
        // `setup_s` is part of the contract and carries the largest bound.
        let bounds: Vec<(String, f64)> = manifest
            .get("end_to_end")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|e| {
                let bound = e.get("bound").unwrap().as_f64().unwrap();
                (e.get("name").unwrap().as_str().unwrap().to_string(), bound)
            })
            .collect();
        let setup = bounds.iter().find(|(name, _)| name == "setup_s").unwrap().1;
        assert!(bounds.iter().all(|(_, b)| *b > 0.0 && *b <= setup && setup <= 0.25));
        assert_eq!(END_TO_END[0].better, Better::Lower);
    }

    #[test]
    fn emit_zero_fills_layers_not_entered_and_rejects_strays() {
        let mut checks = Checks::default();
        let values = Metrics::from([("data.render_ms".to_string(), 2.5)]);
        let emitted = emit(&PER_LAYER, true, values, &mut checks);
        assert_eq!(emitted.len(), PER_LAYER.len());
        assert!(checks.failures().is_empty());
        let render = emitted.iter().find(|(d, _)| d.name == "data.render_ms").unwrap().1;
        let conv = emitted.iter().find(|(d, _)| d.name == "tensor.conv_ms_r224").unwrap().1;
        assert_eq!((render, conv), (2.5, 0.0));

        let stray = Metrics::from([("no.such_metric".to_string(), 1.0)]);
        emit(&PER_LAYER, true, stray, &mut checks);
        assert_eq!(checks.failures().len(), 1);
        // End-to-end metrics are never filled in.
        let mut strict = Checks::default();
        emit(&END_TO_END, false, Metrics::new(), &mut strict);
        assert_eq!(strict.failures().len(), END_TO_END.len());
        let mut nan = Checks::default();
        emit(&PER_LAYER, true, Metrics::from([("data.render_ms".to_string(), f64::NAN)]), &mut nan);
        assert_eq!(nan.failures().len(), 1);
    }

    #[test]
    fn arguments_follow_the_driver_contract() {
        let args = |text: &str| {
            parse_args(&text.split_whitespace().map(str::to_string).collect::<Vec<_>>())
        };
        let run = args("--workload serve_open --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (run.workload.as_deref(), run.seed, run.seconds, run.trace),
            (Some("serve_open"), 7, 10.0, true)
        );
        assert!(!args("--workload fwd_ladder --trace 0 --seed 1").unwrap().trace);
        assert!(args("--trace --workload fwd_ladder").unwrap().trace);
        assert!(args("--smoke").unwrap().smoke);
        assert!(args("--compare a b").unwrap().compare.is_some());
        for bad in ["", "--workload", "--smoke --workload x", "--seconds 0 --smoke", "--bogus"] {
            assert!(args(bad).is_err(), "{bad:?}");
        }
    }
}
