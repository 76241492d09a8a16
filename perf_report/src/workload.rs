//! What the four workloads share: the driver's view of a workload, the raw
//! result of a timed phase, and the check and metric collectors.

use std::collections::BTreeMap;

use crate::json::Value;
use crate::trace::Tracer;

pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// Per-layer metrics by name; names outside the registry are a bug that the
/// emitter reports.
pub type Metrics = BTreeMap<String, f64>;

/// Output checks collected over a run; any failure makes the run incorrect.
#[derive(Debug, Default)]
pub struct Checks {
    failures: Vec<String>,
}

impl Checks {
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

/// Storage-quality outcomes of the served requests. The two forward workloads
/// read no storage and degrade nothing: they report 1 for the three shares
/// (everything provided was consumed, every checked output agreed with the
/// reference, nothing was withheld from the backbone).
#[derive(Debug, Clone, Copy)]
pub struct Quality {
    pub read_fraction_mean: f64,
    pub mean_gflops_per_image: f64,
    pub accuracy: f64,
    pub delivered_ssim_mean: f64,
}

/// Raw result of one timed phase.
#[derive(Debug, Clone)]
pub struct Measured {
    /// Operations (images or requests) attempted and, of those, failed:
    /// errored, refused, shed, expired or late.
    pub attempted: u64,
    pub failed: u64,
    pub wall_s: f64,
    /// Operations per second: closed loops report [`typical_rate`], the open
    /// loop what it completed in time over its wall time.
    pub rate_ops_s: f64,
    /// One sample per latency unit of the workload (image, batch pair, drain,
    /// request), in completion order.
    pub latencies_ms: Vec<f64>,
    /// Latencies of the workload's smallest and largest request class (112²
    /// and 448² images, the 112² and 168² batches, requests arriving in bursts
    /// of at most 2 and at least 7). Medians within one class do not move
    /// when the machine is slow for part of a run the way p10 / p90 of a mixed
    /// sample do. A workload with one class (drains) gives all its samples.
    pub small_ms: Vec<f64>,
    pub large_ms: Vec<f64>,
    pub quality: Quality,
}

impl Measured {
    /// Two phases of one workload as one: counts, time and samples add up; the
    /// quality of the served set is the later phase's (it is the same set).
    pub fn followed_by(mut self, next: Measured) -> Measured {
        self.attempted += next.attempted;
        self.failed += next.failed;
        self.wall_s += next.wall_s;
        self.rate_ops_s = next.rate_ops_s;
        self.latencies_ms.extend(next.latencies_ms);
        self.small_ms.extend(next.small_ms);
        self.large_ms.extend(next.large_ms);
        self.quality = next.quality;
        self
    }
}

/// Operations per second of a typical cycle of a closed loop: the operations of
/// one cycle over the sum of the median time of each of its steps. Unlike
/// operations over wall time it does not move when a neighbour steals a few
/// time slices during the run, which on a shared 2-core sandbox is most runs.
pub fn typical_rate(steps: &[&[f64]], ops_per_cycle: usize) -> f64 {
    let cycle_ms: f64 = steps.iter().map(|step| crate::stats::median(step)).sum();
    ops_per_cycle as f64 * 1e3 / cycle_ms
}

pub trait Workload: Sized {
    const NAME: &'static str;

    /// Engine threads this workload runs with (part of the host fingerprint).
    fn threads() -> usize;

    /// Builds everything a first request needs. Timed by the driver.
    fn setup(seed: u64) -> Res<Self>;

    /// Warms up and checks outputs against the slower reference path.
    fn check(&mut self, checks: &mut Checks) -> Res<()>;

    /// Runs the workload for about `seconds`, ending on a boundary that keeps
    /// the set of served inputs independent of speed where the workload has one.
    fn run(
        &mut self,
        seed: u64,
        seconds: f64,
        tracer: &mut Tracer,
        checks: &mut Checks,
    ) -> Res<Measured>;

    /// Traced run only: times public calls into the layers this workload uses
    /// and derives the per-layer metrics. `traced` is every traced phase joined;
    /// details a workload keeps on the side are those of its last `run`.
    /// Returns tables for the trace file.
    fn probes(
        &mut self,
        traced: &Measured,
        tracer: &mut Tracer,
        metrics: &mut Metrics,
        checks: &mut Checks,
    ) -> Res<Value>;
}

/// Median wall milliseconds of `repeats` calls after one warm-up call, each
/// recorded as a span of `layer`.
pub fn median_ms<R>(
    tracer: &mut Tracer,
    name: &'static str,
    layer: crate::trace::Layer,
    repeats: usize,
    mut call: impl FnMut() -> R,
) -> f64 {
    std::hint::black_box(call());
    let times: Vec<f64> = (0..repeats)
        .map(|_| {
            let (result, ms) = tracer.timed(name, layer, None, &mut call);
            std::hint::black_box(result);
            ms
        })
        .collect();
    crate::stats::median(&times)
}
