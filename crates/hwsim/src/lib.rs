//! # rescnn-hwsim
//!
//! CPU hardware modelling and convolution-kernel autotuning: the substrate behind the
//! paper's §VI and the Figure 7 / Table II experiments. It contains
//!
//! * [`CpuProfile`]s for the two platforms the paper measures (Intel 4790K, AMD 2990WX),
//! * a [`ConvSchedule`] space describing kernel implementation choices,
//! * an analytic [`CostModel`] capturing the resolution-dependent utilization effects,
//! * an [`AutoTuner`] that searches the space per layer (the stand-in for AutoTVM),
//! * a [`LibraryKernels`] baseline modelling a shape-overfitted vendor library (MKLDNN), and
//! * a [`MeasuredTuner`] that sweeps the *executable* engine kernels from
//!   `rescnn-tensor` (algorithm × threads, the Winograd arms included)
//!   with host wall-clock time, and
//! * a [`CalibratedCostModel`] that folds those measurements back into the
//!   analytic model and exports the measured-fastest algorithm per shape as the
//!   dispatch table `rescnn_tensor::conv2d_dispatch` consults — persistable to
//!   disk so serving starts warm.
//!
//! # Examples
//! ```
//! use rescnn_hwsim::{AutoTuner, CpuProfile, LibraryKernels, TunerConfig};
//! use rescnn_models::ModelKind;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let profile = CpuProfile::intel_4790k();
//! let arch = ModelKind::ResNet18.arch(1000);
//! let tuned = AutoTuner::new(TunerConfig::default()).tune_network(&arch, 112, &profile)?;
//! let library = LibraryKernels::mkldnn_like().plan(&arch, 112, &profile)?;
//! // Resolution-specialized kernels beat the library implementation (Figure 7).
//! assert!(tuned.latency_ms() < library.latency_ms());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod autotune;
mod calibrated;
mod cost;
mod error;
mod library;
mod measured;
mod profile;
mod schedule;

pub use autotune::{AutoTuner, KernelPlan, TunedKernel, TunerConfig};
pub use calibrated::{CalibratedCostModel, SkippedCalibration};
pub use cost::{CostModel, KernelEstimate};
pub use error::{HwError, Result};
pub use library::{LibraryConfig, LibraryKernels};
pub use measured::{MeasuredKernel, MeasuredSweepConfig, MeasuredTuner};
pub use profile::CpuProfile;
pub use schedule::{ConvSchedule, ScheduleSpace};

/// Commonly used items, intended for glob import.
pub mod prelude {
    pub use crate::{
        AutoTuner, CalibratedCostModel, ConvSchedule, CostModel, CpuProfile, HwError,
        KernelEstimate, KernelPlan, LibraryKernels, MeasuredTuner, TunerConfig,
    };
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rescnn_models::ModelKind;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn any_schedule_estimate_is_sane(layer_idx in 0usize..20, sched_seed in 0u64..1000) {
            let profile = CpuProfile::intel_4790k();
            let arch = ModelKind::ResNet18.arch(1000);
            let layers = arch.conv_layers(224).unwrap();
            let layer = layers[layer_idx % layers.len()];
            let space = ScheduleSpace::for_layer(&layer, &profile);
            let schedule = space.schedule((sched_seed as usize) % space.len());
            let est = CostModel::new().estimate(&layer, schedule, &profile);
            prop_assert!(est.seconds.is_finite() && est.seconds > 0.0);
            prop_assert!(est.utilization <= 1.0);
            prop_assert!(est.seconds >= est.overhead_seconds);
            prop_assert!(est.seconds + 1e-12 >= est.compute_seconds.min(est.memory_seconds));
        }

        #[test]
        fn tuned_latency_monotone_under_macs(res_idx in 0usize..6) {
            let resolutions = [112usize, 168, 224, 280, 336, 392, 448];
            let res_lo = resolutions[res_idx];
            let res_hi = resolutions[res_idx + 1];
            let profile = CpuProfile::amd_2990wx();
            let arch = ModelKind::ResNet18.arch(1000);
            let tuner = AutoTuner::new(TunerConfig { trials: 32, refine_rounds: 2, seed: 1 });
            let lo = tuner.tune_network(&arch, res_lo, &profile).unwrap();
            let hi = tuner.tune_network(&arch, res_hi, &profile).unwrap();
            prop_assert!(hi.latency_ms() > lo.latency_ms());
        }
    }
}
