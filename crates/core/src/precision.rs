//! End-to-end accuracy gate for the int8 quantized kernel arm.
//!
//! The tensor layer's shape-pure probe (`rescnn_tensor::int8_unit_error`)
//! bounds one convolution's quantization error; this module asks the question
//! a deployment actually cares about: **does running the whole backbone
//! quantized change its answers?** For each candidate resolution the gate runs
//! seeded synthetic forwards twice — once on the f32 engine, once with every
//! eligible convolution forced onto [`ConvAlgo::Int8`](rescnn_tensor::ConvAlgo)
//! under an int8 [`EngineContext`](rescnn_tensor::EngineContext) pin — and
//! compares the outputs on two axes:
//!
//! * **top-1 agreement** — the fraction of probe inputs whose argmax class is
//!   unchanged, the quantity the paper's accuracy tables are built from; and
//! * **distribution similarity** — a single-window SSIM-style statistic over
//!   the two softmax distributions (the same luminance/contrast/structure
//!   product the imaging stack uses, applied to probability vectors), which
//!   catches confidence erosion long before it flips an argmax.
//!
//! A resolution is **admitted** only when both clear their configured floors.
//! The SLO scheduler consults the gate before demoting a request to the
//! quantized arm ([`SloOptions::with_precision_demotion`]
//! (crate::SloOptions::with_precision_demotion)): resolutions the gate did not
//! admit never run quantized, no matter how late the queue is running.
//!
//! Everything is deterministic — seeded weights, seeded probe inputs, and the
//! engine's own bitwise reproducibility — so a gate decision is a property of
//! (backbone, resolution, config), not of the run.

use std::collections::BTreeMap;

use serde::Serialize;

use rescnn_models::{ModelKind, Network};
use rescnn_tensor::{ConvAlgo, EngineContext, Shape, Tensor};

use crate::error::{CoreError, Result};

/// Configuration of the end-to-end int8 accuracy gate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct PrecisionGateConfig {
    /// Seeded probe inputs per resolution (more probes, tighter estimate).
    pub samples: usize,
    /// Seed for the probe network's weights and the probe inputs.
    pub seed: u64,
    /// Minimum fraction of probes whose top-1 class must survive quantization.
    pub min_top1_agreement: f64,
    /// Minimum SSIM-style similarity between the f32 and int8 softmax
    /// distributions, averaged over the probes.
    pub min_distribution_similarity: f64,
}

impl Default for PrecisionGateConfig {
    fn default() -> Self {
        PrecisionGateConfig {
            samples: 3,
            seed: 0x1207,
            min_top1_agreement: 1.0,
            min_distribution_similarity: 0.9,
        }
    }
}

/// The gate's measurement for one resolution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct PrecisionVerdict {
    /// Resolution the probes ran at.
    pub resolution: usize,
    /// Fraction of probes whose top-1 class was unchanged under int8.
    pub top1_agreement: f64,
    /// Mean SSIM-style similarity between f32 and int8 softmax distributions.
    pub distribution_similarity: f64,
    /// Whether both floors were cleared.
    pub admitted: bool,
}

/// Per-resolution admission decisions for the quantized arm (see the module
/// docs for the measurement procedure).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PrecisionGate {
    config: PrecisionGateConfig,
    verdicts: BTreeMap<usize, PrecisionVerdict>,
}

impl PrecisionGate {
    /// Runs the gate for `backbone` over every resolution in `resolutions`.
    ///
    /// # Errors
    /// Returns an error if a probe forward fails (resolution too small for the
    /// backbone's downsampling schedule).
    pub fn evaluate(
        backbone: ModelKind,
        num_classes: usize,
        resolutions: &[usize],
        config: PrecisionGateConfig,
    ) -> Result<Self> {
        if config.samples == 0 {
            return Err(CoreError::InvalidConfig {
                reason: "precision gate needs at least one probe sample".into(),
            });
        }
        let mut verdicts = BTreeMap::new();
        for &resolution in resolutions {
            let verdict = Self::measure(backbone, num_classes, resolution, &config)?;
            verdicts.insert(resolution, verdict);
        }
        Ok(PrecisionGate { config, verdicts })
    }

    /// A gate that admits nothing — the state of a deployment that never
    /// opted into quantization. Demotion checks against it always decline.
    pub fn deny_all() -> Self {
        PrecisionGate { config: PrecisionGateConfig::default(), verdicts: BTreeMap::new() }
    }

    /// A gate whose admissions were decided elsewhere — an offline validation
    /// run whose conclusions a deployment trusts: admits exactly the given
    /// resolutions (recorded with perfect scores, since no probe ran here).
    pub fn from_admitted(resolutions: impl IntoIterator<Item = usize>) -> Self {
        let verdicts = resolutions
            .into_iter()
            .map(|resolution| {
                (
                    resolution,
                    PrecisionVerdict {
                        resolution,
                        top1_agreement: 1.0,
                        distribution_similarity: 1.0,
                        admitted: true,
                    },
                )
            })
            .collect();
        PrecisionGate { config: PrecisionGateConfig::default(), verdicts }
    }

    /// Whether the gate admits running `resolution` on the quantized arm.
    /// Unmeasured resolutions are never admitted.
    pub fn admits(&self, resolution: usize) -> bool {
        self.verdicts.get(&resolution).map(|v| v.admitted).unwrap_or(false)
    }

    /// The per-resolution measurements, ascending by resolution.
    pub fn verdicts(&self) -> impl Iterator<Item = &PrecisionVerdict> {
        self.verdicts.values()
    }

    /// The configuration the verdicts were measured under.
    pub fn config(&self) -> &PrecisionGateConfig {
        &self.config
    }

    fn measure(
        backbone: ModelKind,
        num_classes: usize,
        resolution: usize,
        config: &PrecisionGateConfig,
    ) -> Result<PrecisionVerdict> {
        let mut network = Network::new(backbone, num_classes, config.seed);
        let inputs: Vec<Tensor> = (0..config.samples)
            .map(|i| {
                Tensor::random_uniform(
                    Shape::chw(3, resolution, resolution),
                    1.0,
                    config.seed ^ ((i as u64 + 1) * 0x9e37) ^ resolution as u64,
                )
            })
            .collect();
        // Record activation ranges over every probe first, so the quantized
        // forwards run exactly as a calibrated deployment would: grids fixed
        // by calibration, not re-derived per request.
        for input in &inputs {
            network.calibrate_int8_ranges(input).map_err(forward_error(resolution))?;
        }
        // The int8 pin runs every convolution the quantized arm supports on
        // it; grouped and depthwise ones keep default dispatch. Demoted SLO
        // buckets run under the same pin, so the gate measures exactly what
        // demoted execution runs.
        let int8 = EngineContext::new().with_algo(ConvAlgo::Int8);
        let mut agreements = 0usize;
        let mut similarity_sum = 0.0f64;
        for input in &inputs {
            let f32_probs =
                network.predict_probabilities(input).map_err(forward_error(resolution))?;
            let int8_probs = int8
                .scope(|| network.predict_probabilities(input))
                .map_err(forward_error(resolution))?;
            let f32_probs = f32_probs.as_slice();
            let int8_probs = int8_probs.as_slice();
            if argmax(f32_probs) == argmax(int8_probs) {
                agreements += 1;
            }
            similarity_sum += distribution_similarity(f32_probs, int8_probs);
        }
        let top1_agreement = agreements as f64 / config.samples as f64;
        let distribution_similarity = similarity_sum / config.samples as f64;
        Ok(PrecisionVerdict {
            resolution,
            top1_agreement,
            distribution_similarity,
            admitted: top1_agreement >= config.min_top1_agreement
                && distribution_similarity >= config.min_distribution_similarity,
        })
    }
}

fn forward_error(resolution: usize) -> impl Fn(rescnn_models::ModelError) -> CoreError {
    move |e| CoreError::InvalidConfig { reason: format!("precision probe at {resolution}: {e}") }
}

fn argmax(values: &[f32]) -> usize {
    let mut best = 0usize;
    for (i, &v) in values.iter().enumerate() {
        if v > values[best] {
            best = i;
        }
    }
    best
}

/// Single-window SSIM over two probability vectors: the standard
/// `(2μxμy+c1)(2σxy+c2) / ((μx²+μy²+c1)(σx²+σy²+c2))` statistic with the
/// conventional constants for a unit dynamic range. Identical distributions
/// score 1.0; the score decays smoothly as quantization shifts mass around.
fn distribution_similarity(a: &[f32], b: &[f32]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len().max(1) as f64;
    let (mut mean_a, mut mean_b) = (0.0f64, 0.0f64);
    for (&x, &y) in a.iter().zip(b) {
        mean_a += f64::from(x);
        mean_b += f64::from(y);
    }
    mean_a /= n;
    mean_b /= n;
    let (mut var_a, mut var_b, mut cov) = (0.0f64, 0.0f64, 0.0f64);
    for (&x, &y) in a.iter().zip(b) {
        let dx = f64::from(x) - mean_a;
        let dy = f64::from(y) - mean_b;
        var_a += dx * dx;
        var_b += dy * dy;
        cov += dx * dy;
    }
    var_a /= n;
    var_b /= n;
    cov /= n;
    const C1: f64 = 0.01 * 0.01;
    const C2: f64 = 0.03 * 0.03;
    ((2.0 * mean_a * mean_b + C1) * (2.0 * cov + C2))
        / ((mean_a * mean_a + mean_b * mean_b + C1) * (var_a + var_b + C2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescnn_data::DatasetKind;

    #[test]
    fn similarity_is_one_for_identical_distributions() {
        let p = [0.7f32, 0.2, 0.1];
        assert!((distribution_similarity(&p, &p) - 1.0).abs() < 1e-12);
        let q = [0.1f32, 0.2, 0.7];
        assert!(distribution_similarity(&p, &q) < 1.0);
    }

    #[test]
    fn gate_is_deterministic_and_bounded() {
        let _guard = crate::test_sync::tracked_allocations_lock();
        let classes = DatasetKind::CarsLike.num_classes();
        let config = PrecisionGateConfig { samples: 2, ..Default::default() };
        let gate =
            PrecisionGate::evaluate(ModelKind::ResNet18, classes, &[48, 64], config).unwrap();
        let again =
            PrecisionGate::evaluate(ModelKind::ResNet18, classes, &[48, 64], config).unwrap();
        let verdicts: Vec<_> = gate.verdicts().copied().collect();
        assert_eq!(verdicts, again.verdicts().copied().collect::<Vec<_>>());
        assert_eq!(verdicts.len(), 2);
        for v in &verdicts {
            assert!((0.0..=1.0).contains(&v.top1_agreement));
            assert!(v.distribution_similarity <= 1.0 + 1e-12);
            assert_eq!(
                v.admitted,
                v.top1_agreement >= config.min_top1_agreement
                    && v.distribution_similarity >= config.min_distribution_similarity
            );
        }
        // Unmeasured resolutions are never admitted, and neither is anything
        // under the deny-all gate.
        assert!(!gate.admits(999));
        assert!(!PrecisionGate::deny_all().admits(48));
    }

    #[test]
    fn impossible_floors_reject_every_resolution() {
        let _guard = crate::test_sync::tracked_allocations_lock();
        let classes = DatasetKind::CarsLike.num_classes();
        let strict = PrecisionGateConfig {
            samples: 1,
            // A similarity floor above 1.0 is unreachable by construction.
            min_distribution_similarity: 1.5,
            ..Default::default()
        };
        let gate = PrecisionGate::evaluate(ModelKind::ResNet18, classes, &[48], strict).unwrap();
        assert!(!gate.admits(48));
        assert!(PrecisionGate::evaluate(
            ModelKind::ResNet18,
            classes,
            &[48],
            PrecisionGateConfig { samples: 0, ..Default::default() }
        )
        .is_err());
    }
}
