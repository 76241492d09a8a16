//! # rescnn-models
//!
//! Convolutional network architectures used by the paper's evaluation — ResNet-18,
//! ResNet-50 (backbones) and MobileNetV2 (scale model) — in two forms:
//!
//! * [`ArchSpec`], a symbolic description supporting per-resolution FLOP accounting and
//!   convolution-layer enumeration (what the kernel cost model and the Table I / Figure 7
//!   harnesses consume), and
//! * [`Network`], an executable forward pass built on `rescnn-tensor` kernels with
//!   deterministic random weights (what the examples and wall-clock benchmarks run).
//!
//! # Examples
//! ```
//! use rescnn_models::ModelKind;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let arch = ModelKind::ResNet18.arch(1000);
//! let g224 = arch.gflops(224)?;
//! let g112 = arch.gflops(112)?;
//! // Compute cost scales roughly quadratically with resolution (paper Table I).
//! assert!(g224 / g112 > 3.0 && g224 / g112 < 4.5);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod arch;
mod error;
mod nn;

pub use arch::{
    mobilenet_v2_arch, resnet18_arch, resnet50_arch, Activation, ArchSpec, ArenaPlan, BlockSpec,
    ConvLayerShape, ModelKind,
};
pub use error::{ModelError, Result};
pub use nn::Network;

/// The seven inference resolutions evaluated throughout the paper.
pub const PAPER_RESOLUTIONS: [usize; 7] = [112, 168, 224, 280, 336, 392, 448];

/// Commonly used items, intended for glob import.
pub mod prelude {
    pub use crate::{ArchSpec, ConvLayerShape, ModelError, ModelKind, Network, PAPER_RESOLUTIONS};
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn flops_monotone_in_resolution(res_a in 32usize..256, delta in 8usize..128) {
            let arch = ModelKind::ResNet18.arch(100);
            let lo = arch.flops(res_a).unwrap();
            let hi = arch.flops(res_a + delta).unwrap();
            prop_assert!(hi > lo);
        }

        #[test]
        fn conv_layer_flops_sum_is_consistent(res in 64usize..320) {
            for kind in ModelKind::ALL {
                let arch = kind.arch(10);
                let layers = arch.conv_layers(res).unwrap();
                let sum: u64 = layers.iter().map(|l| l.flops()).sum();
                let total = arch.flops(res).unwrap();
                prop_assert!(total >= sum);
                // Classifier contribution is tiny relative to convolutions.
                let classifier_share = ((total - sum) as f64) / (total as f64);
                prop_assert!(classifier_share < 0.05);
            }
        }

        #[test]
        fn param_count_independent_of_resolution(classes in 2usize..50) {
            let a = ModelKind::MobileNetV2.arch(classes);
            let p1 = a.param_count();
            prop_assert!(p1 > 1_000_000);
        }
    }
}
