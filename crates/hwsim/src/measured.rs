//! Measured (wall-clock) kernel sweeps over the executable engine.
//!
//! The analytic [`CostModel`](crate::CostModel) predicts how schedules behave; this
//! module closes the loop by *running* the real kernels from `rescnn-tensor` and
//! timing them. For every convolution layer shape it sweeps implementation
//! algorithms ([`ConvAlgo`]) at each thread count — the algorithm × resolution
//! landscape the paper's §VI autotunes over, but with host wall-clock time instead
//! of a model.

use std::time::Instant;

use serde::{Deserialize, Serialize};

use rescnn_models::ConvLayerShape;
use rescnn_tensor::{
    conv2d_with_algo, int8_unit_error, select_algo, winograd_f4_unit_error, ConvAlgo, ConvEpilogue,
    EngineContext, PreparedLayer, Shape, Tensor, INT8_TOLERANCE, WINOGRAD_F4_TOLERANCE,
};

/// One wall-clock measurement of a kernel implementation on a layer shape.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MeasuredKernel {
    /// The algorithm that ran.
    pub algo: ConvAlgo,
    /// Worker-thread count the engine was configured with.
    pub threads: usize,
    /// Best (minimum) seconds per run across the configured repetitions.
    pub seconds: f64,
    /// Achieved GMAC/s.
    pub gmacs_per_s: f64,
}

/// Configuration of the measured sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MeasuredSweepConfig {
    /// Repetitions per measurement (the minimum is reported).
    pub reps: usize,
    /// Thread counts to sweep.
    pub max_threads: usize,
    /// Random seed for the synthetic activations/weights.
    pub seed: u64,
    /// Time the engine algorithms against prepared layers (weights prepacked
    /// once, output written into a pre-sized buffer) — the steady-state serving
    /// cost, matching how models execute since the `PreparedLayer` path. Set to
    /// `false` to time the legacy pack-per-call entry points instead.
    pub prepack: bool,
    /// Numerical gate for [`ConvAlgo::WinogradF4`]: the sweep only admits the
    /// α=6 transform for a shape when its measured unit-scale deviation from
    /// `Im2colPacked` ([`rescnn_tensor::winograd_f4_unit_error`]) stays within
    /// this bound, so calibration can never trade accuracy it wasn't granted
    /// for speed. Defaults to the characterized
    /// [`rescnn_tensor::WINOGRAD_F4_TOLERANCE`].
    pub f4_tolerance: f32,
    /// Whether the sweep includes the quantized [`ConvAlgo::Int8`] arm.
    /// Defaults to `false`: quantization changes output values, so a
    /// deployment must opt in — mirroring the engine's own policy of never
    /// choosing the arm heuristically.
    pub int8: bool,
    /// Numerical gate for [`ConvAlgo::Int8`]: when the int8 arm is enabled,
    /// the sweep only admits it for a shape whose measured unit-scale
    /// deviation from `Im2colPacked` ([`rescnn_tensor::int8_unit_error`])
    /// stays within this bound. Defaults to the characterized
    /// [`rescnn_tensor::INT8_TOLERANCE`].
    pub int8_tolerance: f32,
}

impl Default for MeasuredSweepConfig {
    fn default() -> Self {
        MeasuredSweepConfig {
            reps: 3,
            max_threads: 1,
            seed: 0,
            prepack: true,
            f4_tolerance: WINOGRAD_F4_TOLERANCE,
            int8: false,
            int8_tolerance: INT8_TOLERANCE,
        }
    }
}

/// Wall-clock kernel sweeper: the measured counterpart of [`AutoTuner`](crate::AutoTuner).
#[derive(Debug, Clone, Default)]
pub struct MeasuredTuner {
    config: MeasuredSweepConfig,
}

impl MeasuredTuner {
    /// Creates a sweeper.
    pub fn new(config: MeasuredSweepConfig) -> Self {
        MeasuredTuner { config }
    }

    fn instantiate(&self, layer: &ConvLayerShape) -> (Tensor, Tensor) {
        let params = &layer.params;
        let input = Tensor::random_uniform(layer.input, 1.0, self.config.seed ^ 0x11);
        let weight = Tensor::random_uniform(
            Shape::new(
                params.out_channels,
                params.in_channels / params.groups,
                params.kernel,
                params.kernel,
            ),
            0.5,
            self.config.seed ^ 0x22,
        );
        (input, weight)
    }

    fn time_runs(&self, mut run: impl FnMut()) -> f64 {
        run(); // warm caches and the scratch arena
               // Minimum over repetitions, not the mean: wall-clock noise on a shared
               // host is strictly additive, so the minimum is the robust estimator of a
               // kernel's true cost — and what keeps calibrated dispatch decisions
               // stable from sweep to sweep.
        let mut best = f64::INFINITY;
        for _ in 0..self.config.reps.max(1) {
            let start = Instant::now();
            run();
            best = best.min(start.elapsed().as_secs_f64());
        }
        best
    }

    /// Times one algorithm on one layer at one thread count. If the requested
    /// algorithm cannot execute this shape, the engine's fallback
    /// ([`ConvAlgo::Im2colPacked`]) runs instead and the returned record reports the
    /// algorithm that actually executed, so sweep data is never mislabeled.
    ///
    /// With [`MeasuredSweepConfig::prepack`] (the default) the engine
    /// algorithms are timed through a [`PreparedLayer`]: weights prepacked
    /// once, Winograd's filter transform cached, output written into a
    /// pre-sized buffer. That matches the steady-state serving cost — the model
    /// zoo prepares every layer at construction, so per-call packing (or the
    /// filter transform) is a one-time cost, and folding it into every timed
    /// run would systematically bias calibrated dispatch. The reference
    /// algorithm ([`ConvAlgo::Direct`]) always runs its own entry point (the
    /// prepared wrapper would add a copy it never pays in practice).
    pub fn measure_algo(
        &self,
        layer: &ConvLayerShape,
        algo: ConvAlgo,
        threads: usize,
    ) -> MeasuredKernel {
        let algo = if algo.supports(&layer.params) { algo } else { ConvAlgo::Im2colPacked };
        let (input, weight) = self.instantiate(layer);
        let params = layer.params;
        let prepacked = self.config.prepack && algo != ConvAlgo::Direct;
        // Scoped override: the sweep's thread count never leaks into (or races
        // with) the process-wide engine configuration.
        let seconds = EngineContext::new().with_threads(threads).scope(|| {
            if prepacked {
                let mut prepared =
                    PreparedLayer::new(weight, None, params).expect("valid layer shape");
                let mut out =
                    Tensor::zeros(params.output_shape(input.shape()).expect("valid layer shape"));
                // Build any cached filter transform (or quantized weights and the
                // calibrated activation range) outside the timed runs: both are
                // one-time preparation costs in steady-state serving.
                if algo == ConvAlgo::Winograd {
                    prepared.winograd_filter().expect("winograd-eligible layer");
                } else if algo == ConvAlgo::WinogradF4 {
                    prepared.winograd_filter_f4().expect("winograd-eligible layer");
                } else if algo == ConvAlgo::Int8 {
                    let (lo, hi) = rescnn_tensor::tensor_range(&input);
                    prepared.set_int8_range(lo, hi);
                    prepared.int8_weights().expect("int8-eligible layer");
                }
                self.time_runs(|| {
                    prepared
                        .forward_with_algo_into(&input, algo, ConvEpilogue::default(), &mut out)
                        .expect("valid layer shape");
                })
            } else {
                self.time_runs(|| {
                    conv2d_with_algo(&input, &weight, None, &params, algo)
                        .expect("valid layer shape");
                })
            }
        });
        MeasuredKernel {
            algo,
            threads,
            seconds,
            gmacs_per_s: layer.macs() as f64 / seconds.max(1e-12) / 1e9,
        }
    }

    /// Sweeps every supported algorithm (at every thread count up to the configured
    /// maximum) over one layer, slowest kernels included — the full measured
    /// algorithm × threads landscape for this shape.
    pub fn sweep_layer(&self, layer: &ConvLayerShape, algos: &[ConvAlgo]) -> Vec<MeasuredKernel> {
        let mut results = Vec::new();
        for &algo in algos {
            if !algo.supports(&layer.params) {
                continue;
            }
            if algo == ConvAlgo::WinogradF4 && !self.admits_f4(layer) {
                continue;
            }
            if algo == ConvAlgo::Int8 && !(self.config.int8 && self.admits_int8(layer)) {
                continue;
            }
            let mut threads = 1;
            while threads <= self.config.max_threads.max(1) {
                results.push(self.measure_algo(layer, algo, threads));
                threads *= 2;
            }
        }
        results
    }

    /// Whether the numerical gate admits [`ConvAlgo::WinogradF4`] for this
    /// layer shape: its deterministic unit-scale deviation from `Im2colPacked`
    /// must stay within [`MeasuredSweepConfig::f4_tolerance`]. Shapes that the
    /// probe cannot evaluate are rejected.
    pub fn admits_f4(&self, layer: &ConvLayerShape) -> bool {
        winograd_f4_unit_error(&layer.params, layer.input)
            .map(|err| err <= self.config.f4_tolerance)
            .unwrap_or(false)
    }

    /// Whether the numerical gate admits [`ConvAlgo::Int8`] for this layer
    /// shape: its deterministic unit-scale deviation from `Im2colPacked`
    /// ([`rescnn_tensor::int8_unit_error`]) must stay within
    /// [`MeasuredSweepConfig::int8_tolerance`]. Shapes the probe cannot
    /// evaluate are rejected. Note the gate is necessary but not sufficient
    /// for the sweep to include the arm: [`MeasuredSweepConfig::int8`] must
    /// also be set, because quantization is a deployment-level opt-in.
    pub fn admits_int8(&self, layer: &ConvLayerShape) -> bool {
        int8_unit_error(&layer.params, layer.input)
            .map(|err| err <= self.config.int8_tolerance)
            .unwrap_or(false)
    }

    /// The fastest measured kernel for a layer, comparing the engine's automatic
    /// choice against every other supported algorithm.
    pub fn best_kernel(&self, layer: &ConvLayerShape) -> Option<MeasuredKernel> {
        self.sweep_layer(layer, &ConvAlgo::ALL)
            .into_iter()
            .min_by(|a, b| a.seconds.total_cmp(&b.seconds))
    }

    /// What the dispatch layer would choose for this layer (no timing involved).
    pub fn dispatched_algo(&self, layer: &ConvLayerShape) -> ConvAlgo {
        select_algo(&layer.params, layer.input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescnn_models::ModelKind;

    fn small_layer() -> ConvLayerShape {
        let arch = ModelKind::ResNet18.arch(10);
        // A post-stem 3x3 layer at a small resolution keeps the sweep fast.
        arch.conv_layers(32).unwrap()[2]
    }

    #[test]
    fn sweep_covers_supported_algos_and_is_positive() {
        let tuner = MeasuredTuner::new(MeasuredSweepConfig {
            reps: 1,
            max_threads: 2,
            ..Default::default()
        });
        let layer = small_layer();
        let results = tuner.sweep_layer(&layer, &ConvAlgo::ALL);
        assert!(!results.is_empty());
        assert!(results.iter().all(|r| r.seconds > 0.0 && r.gmacs_per_s > 0.0));
        // The dense layer supports the three general algorithms but not the
        // specialized 1x1 / depthwise kernels.
        assert!(results.iter().any(|r| r.algo == ConvAlgo::Im2colPacked));
        assert!(results.iter().all(|r| r.algo != ConvAlgo::Gemm1x1));
        // Thread counts 1 and 2 both appear.
        assert!(results.iter().any(|r| r.threads == 1));
        assert!(results.iter().any(|r| r.threads == 2));
    }

    #[test]
    fn best_kernel_exists_and_dispatch_is_sane() {
        let tuner = MeasuredTuner::new(MeasuredSweepConfig {
            reps: 1,
            max_threads: 1,
            seed: 1,
            ..Default::default()
        });
        let layer = small_layer();
        let best = tuner.best_kernel(&layer).unwrap();
        assert!(best.seconds > 0.0);
        assert_eq!(tuner.dispatched_algo(&layer), ConvAlgo::Im2colPacked);
    }

    #[test]
    fn f4_gate_rejects_shapes_beyond_tolerance() {
        let layer = small_layer();
        // Under the characterized default the small dense stage is admitted…
        let default_tuner = MeasuredTuner::new(MeasuredSweepConfig::default());
        assert!(default_tuner.admits_f4(&layer), "characterized bound admits the ladder shapes");
        // …and with the bound tightened to zero the gate must reject it (the
        // transform genuinely reassociates, so its unit error is nonzero), and
        // the sweep must omit the α=6 arm while keeping F(2×2) in the duel.
        let strict = MeasuredTuner::new(MeasuredSweepConfig {
            reps: 1,
            f4_tolerance: 0.0,
            ..Default::default()
        });
        assert!(!strict.admits_f4(&layer), "a zero tolerance must reject every real shape");
        let swept = strict.sweep_layer(&layer, &ConvAlgo::ALL);
        assert!(swept.iter().all(|r| r.algo != ConvAlgo::WinogradF4));
        assert!(swept.iter().any(|r| r.algo == ConvAlgo::Winograd));
    }

    #[test]
    fn int8_arm_is_opt_in_and_gated() {
        let layer = small_layer();
        // Disabled by default: even when the numerical gate admits the shape,
        // the sweep must omit the quantized arm until a deployment opts in.
        let default_tuner =
            MeasuredTuner::new(MeasuredSweepConfig { reps: 1, ..Default::default() });
        assert!(default_tuner.admits_int8(&layer), "characterized bound admits the ladder shapes");
        let swept = default_tuner.sweep_layer(&layer, &ConvAlgo::ALL);
        assert!(swept.iter().all(|r| r.algo != ConvAlgo::Int8));
        // Opted in, the arm joins the duel…
        let enabled =
            MeasuredTuner::new(MeasuredSweepConfig { reps: 1, int8: true, ..Default::default() });
        let swept = enabled.sweep_layer(&layer, &ConvAlgo::ALL);
        assert!(swept.iter().any(|r| r.algo == ConvAlgo::Int8));
        // …unless the tolerance is tightened past the arm's real unit error.
        let strict = MeasuredTuner::new(MeasuredSweepConfig {
            reps: 1,
            int8: true,
            int8_tolerance: 0.0,
            ..Default::default()
        });
        assert!(!strict.admits_int8(&layer), "a zero tolerance must reject every real shape");
        let swept = strict.sweep_layer(&layer, &ConvAlgo::ALL);
        assert!(swept.iter().all(|r| r.algo != ConvAlgo::Int8));
    }
}
