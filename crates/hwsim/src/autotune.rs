//! Schedule autotuning and whole-network kernel plans.
//!
//! Mirrors the role AutoTVM/Ansor play in the paper (§VI): for every convolution layer at
//! every inference resolution, search the schedule space for the implementation the cost
//! model predicts to be fastest. Identical layer shapes share one tuning result, as a real
//! tuning cache would.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use rescnn_models::{ArchSpec, ConvLayerShape, ModelKind};

use crate::cost::{CostModel, KernelEstimate};
use crate::error::{HwError, Result};
use crate::profile::CpuProfile;
use crate::schedule::{ConvSchedule, ScheduleSpace};

/// Configuration of the autotuning search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TunerConfig {
    /// Number of random candidates evaluated per layer.
    pub trials: usize,
    /// Greedy hill-climbing rounds applied to the best random candidate.
    pub refine_rounds: usize,
    /// Random seed.
    pub seed: u64,
}

impl Default for TunerConfig {
    fn default() -> Self {
        TunerConfig { trials: 96, refine_rounds: 4, seed: 0 }
    }
}

impl TunerConfig {
    /// A deliberately tiny budget, used by ablation benchmarks to show the effect of
    /// under-tuning.
    pub fn minimal() -> Self {
        TunerConfig { trials: 4, refine_rounds: 0, seed: 0 }
    }
}

/// The tuning result for a single layer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TunedKernel {
    /// The layer this kernel implements.
    pub layer: ConvLayerShape,
    /// The chosen schedule.
    pub schedule: ConvSchedule,
    /// The cost-model estimate under that schedule.
    pub estimate: KernelEstimate,
}

/// A complete per-layer kernel selection for one model at one resolution on one CPU.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KernelPlan {
    /// Model family.
    pub model: ModelKind,
    /// Inference resolution the plan was built for.
    pub resolution: usize,
    /// CPU the plan targets.
    pub cpu: String,
    /// Whether the plan came from autotuning (`true`) or the library baseline (`false`).
    pub tuned: bool,
    /// Per-layer kernels, in network order.
    pub kernels: Vec<TunedKernel>,
}

impl KernelPlan {
    /// Total multiply–accumulate count of the plan's convolution layers.
    pub fn total_macs(&self) -> u64 {
        self.kernels.iter().map(|k| k.estimate.macs).sum()
    }

    /// Estimated end-to-end convolution latency in seconds.
    pub fn total_seconds(&self) -> f64 {
        self.kernels.iter().map(|k| k.estimate.seconds).sum()
    }

    /// Estimated latency in milliseconds (the unit of Table II).
    pub fn latency_ms(&self) -> f64 {
        self.total_seconds() * 1e3
    }

    /// Aggregate throughput in GMAC/s (the y-axis of Figure 7, which the paper labels
    /// GFLOPs/s under its MAC-counting convention).
    pub fn throughput_gmacs(&self) -> f64 {
        let secs = self.total_seconds();
        if secs <= 0.0 {
            0.0
        } else {
            self.total_macs() as f64 / secs / 1e9
        }
    }

    /// Estimated DRAM traffic in bytes.
    pub fn total_bytes_moved(&self) -> u64 {
        self.kernels.iter().map(|k| k.estimate.bytes_moved).sum()
    }
}

/// The schedule autotuner.
#[derive(Debug, Clone, Default)]
pub struct AutoTuner {
    config: TunerConfig,
    cost: CostModel,
}

impl AutoTuner {
    /// Creates a tuner with the given search configuration and the default cost model.
    pub fn new(config: TunerConfig) -> Self {
        AutoTuner { config, cost: CostModel::new() }
    }

    /// Tunes a single layer, returning the best schedule found.
    pub fn tune_layer(&self, layer: &ConvLayerShape, profile: &CpuProfile) -> TunedKernel {
        let space = ScheduleSpace::for_layer(layer, profile);
        let mut rng = StdRng::seed_from_u64(
            self.config.seed ^ (layer.macs().wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        );
        let mut best_schedule = ConvSchedule::naive(profile);
        let mut best = self.cost.estimate(layer, best_schedule, profile);

        // Random search phase.
        let trials = self.config.trials.min(space.len()).max(1);
        for _ in 0..trials {
            let candidate = space.schedule(rng.gen_range(0..space.len()));
            let est = self.cost.estimate(layer, candidate, profile);
            if est.seconds < best.seconds {
                best = est;
                best_schedule = candidate;
            }
        }
        // Greedy refinement phase.
        for _ in 0..self.config.refine_rounds {
            let mut improved = false;
            for neighbour in space.neighbours(best_schedule) {
                let est = self.cost.estimate(layer, neighbour, profile);
                if est.seconds < best.seconds {
                    best = est;
                    best_schedule = neighbour;
                    improved = true;
                }
            }
            if !improved {
                break;
            }
        }
        TunedKernel { layer: *layer, schedule: best_schedule, estimate: best }
    }

    /// Tunes every convolution layer of an architecture at a resolution, reusing results
    /// for repeated layer shapes.
    ///
    /// # Errors
    /// Returns an error if the architecture cannot be instantiated at the resolution.
    pub fn tune_network(
        &self,
        arch: &ArchSpec,
        resolution: usize,
        profile: &CpuProfile,
    ) -> Result<KernelPlan> {
        let layers = arch.conv_layers(resolution).map_err(|e| HwError::Model(e.to_string()))?;
        let mut cache: HashMap<ConvLayerShape, TunedKernel> = HashMap::new();
        let mut kernels = Vec::with_capacity(layers.len());
        for layer in layers {
            let kernel = *cache.entry(layer).or_insert_with(|| self.tune_layer(&layer, profile));
            kernels.push(kernel);
        }
        Ok(KernelPlan {
            model: arch.kind,
            resolution,
            cpu: profile.name.clone(),
            tuned: true,
            kernels,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuning_beats_naive_schedule() {
        let profile = CpuProfile::intel_4790k();
        let tuner = AutoTuner::new(TunerConfig::default());
        let cost = CostModel::new();
        let arch = ModelKind::ResNet18.arch(1000);
        for layer in arch.conv_layers(224).unwrap().into_iter().step_by(5) {
            let tuned = tuner.tune_layer(&layer, &profile);
            let naive = cost.estimate(&layer, ConvSchedule::naive(&profile), &profile);
            assert!(tuned.estimate.seconds <= naive.seconds);
        }
    }

    #[test]
    fn bigger_budget_is_no_worse() {
        let profile = CpuProfile::amd_2990wx();
        let arch = ModelKind::ResNet50.arch(1000);
        let layer = arch.conv_layers(224).unwrap()[20];
        let small = AutoTuner::new(TunerConfig::minimal()).tune_layer(&layer, &profile);
        let large = AutoTuner::new(TunerConfig { trials: 256, refine_rounds: 6, seed: 0 })
            .tune_layer(&layer, &profile);
        assert!(large.estimate.seconds <= small.estimate.seconds + 1e-12);
    }

    #[test]
    fn tuning_is_deterministic_for_a_seed() {
        let profile = CpuProfile::intel_4790k();
        let arch = ModelKind::ResNet18.arch(1000);
        let layer = arch.conv_layers(168).unwrap()[7];
        let a = AutoTuner::new(TunerConfig::default()).tune_layer(&layer, &profile);
        let b = AutoTuner::new(TunerConfig::default()).tune_layer(&layer, &profile);
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.estimate.seconds, b.estimate.seconds);
    }

    #[test]
    fn network_plan_aggregates() {
        let profile = CpuProfile::intel_4790k();
        let tuner = AutoTuner::new(TunerConfig::default());
        let arch = ModelKind::ResNet18.arch(1000);
        let plan = tuner.tune_network(&arch, 224, &profile).unwrap();
        assert_eq!(plan.kernels.len(), 20);
        assert_eq!(plan.model, ModelKind::ResNet18);
        assert!(plan.tuned);
        assert_eq!(plan.cpu, "4790K");
        assert!(plan.latency_ms() > 1.0 && plan.latency_ms() < 1000.0);
        assert!(plan.throughput_gmacs() > 10.0);
        assert!(plan.total_bytes_moved() > 1_000_000);
        // Plan MACs equal the architecture's conv MACs.
        let conv_macs: u64 = arch.conv_layers(224).unwrap().iter().map(|l| l.macs()).sum();
        assert_eq!(plan.total_macs(), conv_macs);
    }

    #[test]
    fn latency_grows_with_resolution() {
        let profile = CpuProfile::intel_4790k();
        let tuner = AutoTuner::new(TunerConfig::default());
        let arch = ModelKind::ResNet50.arch(1000);
        let mut prev = 0.0;
        for res in [112usize, 224, 448] {
            let plan = tuner.tune_network(&arch, res, &profile).unwrap();
            assert!(plan.latency_ms() > prev);
            prev = plan.latency_ms();
        }
    }
}
