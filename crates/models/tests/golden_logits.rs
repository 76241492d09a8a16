//! Golden logits: the default ResNet-50 forward must reproduce recorded bit
//! patterns.
//!
//! `forward == forward_reference` cannot see a kernel change that moves bits,
//! because both sides run the same kernels. This suite pins the logits
//! themselves, as an FNV-1a-64 hash of their `f32` bit patterns, so a
//! schedule change that claims to only move data (stripe sizes, loop orders,
//! packers) is checked rather than assumed.
//!
//! The values were recorded with the 6×32 AVX-512 microkernel. The AVX2+FMA
//! tier (6×16) performs the same fused multiply-add per element in the same
//! order, so it reproduces them too. The portable tier without hardware FMA
//! rounds each product separately and is excluded.

use rescnn_models::{ModelKind, Network};
use rescnn_tensor::{Shape, Tensor};

/// FNV-1a-64 taken word by word: each logit's 32-bit pattern is xored in
/// whole, then multiplied by the 64-bit FNV prime.
fn fnv1a64(values: &[f32]) -> u64 {
    values.iter().fold(0xcbf2_9ce4_8422_2325u64, |hash, value| {
        (hash ^ u64::from(value.to_bits())).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn logits_hash(resolution: usize) -> u64 {
    let net = Network::new(ModelKind::ResNet50, 1000, 7);
    let input = Tensor::random_uniform(Shape::chw(3, resolution, resolution), 1.0, 1);
    let logits = net.forward(&input).expect("ResNet-50 forward");
    fnv1a64(logits.as_slice())
}

#[cfg(all(target_arch = "x86_64", target_feature = "fma"))]
#[test]
fn resnet50_logits_match_golden_bits_at_128() {
    assert_eq!(format!("{:016x}", logits_hash(128)), "96062194e6df5d0b");
}

#[cfg(all(target_arch = "x86_64", target_feature = "fma"))]
#[test]
fn resnet50_logits_match_golden_bits_at_224() {
    assert_eq!(format!("{:016x}", logits_hash(224)), "3405a9815109ddde");
}
