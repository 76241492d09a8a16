//! Golden logits and plans: the default forwards must reproduce recorded bit
//! patterns, and every family's layer list and arena plan recorded shapes.
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
//!
//! The `conv_layers` and `ArenaPlan` goldens are plain integers, so they hold
//! on every platform. Together with the ResNet-18 and MobileNetV2 logits they
//! pin the wiring each block family lowers to, which `forward ==
//! forward_reference` alone cannot: both sides read the same lowering.

use rescnn_models::{ArenaPlan, ModelKind, Network};
use rescnn_tensor::{Shape, Tensor};

/// FNV-1a-64 taken word by word: each logit's 32-bit pattern is xored in
/// whole, then multiplied by the 64-bit FNV prime.
fn fnv1a64(values: &[f32]) -> u64 {
    values.iter().fold(0xcbf2_9ce4_8422_2325u64, |hash, value| {
        (hash ^ u64::from(value.to_bits())).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a-64 over whole `usize` words, for the shape goldens.
fn fnv1a64_words(words: impl IntoIterator<Item = usize>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325u64, |hash, word| {
        (hash ^ word as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn logits_hash(resolution: usize) -> u64 {
    kind_logits_hash(ModelKind::ResNet50, resolution)
}

fn kind_logits_hash(kind: ModelKind, resolution: usize) -> u64 {
    let net = Network::new(kind, 1000, 7);
    let input = Tensor::random_uniform(Shape::chw(3, resolution, resolution), 1.0, 1);
    let logits = net.forward(&input).expect("forward");
    fnv1a64(logits.as_slice())
}

/// Every `conv_layers` entry at 224², as its six params and four input dims.
fn conv_layers_hash(kind: ModelKind) -> u64 {
    let layers = kind.arch(1000).conv_layers(224).expect("conv_layers at 224");
    fnv1a64_words(layers.iter().flat_map(|layer| {
        let (p, s) = (layer.params, layer.input);
        [p.in_channels, p.out_channels, p.kernel, p.stride, p.padding, p.groups, s.n, s.c, s.h, s.w]
    }))
}

/// A plan as `(hash of buffer_elems, peak_live_bytes)`.
fn plan_digest(plan: &ArenaPlan) -> (String, usize) {
    (format!("{:016x}", fnv1a64_words(plan.buffer_elems.iter().copied())), plan.peak_live_bytes)
}

fn plan_digests(kind: ModelKind) -> Vec<(String, usize)> {
    let net = Network::new(kind, 1000, 7);
    [112, 224, 448]
        .iter()
        .map(|&r| plan_digest(&net.arena_plan(Shape::chw(3, r, r)).expect("arena plan")))
        .collect()
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

#[cfg(all(target_arch = "x86_64", target_feature = "fma"))]
#[test]
fn resnet18_logits_match_golden_bits_at_112() {
    assert_eq!(format!("{:016x}", kind_logits_hash(ModelKind::ResNet18, 112)), "5cf8e8fb6d982fa3");
}

#[cfg(all(target_arch = "x86_64", target_feature = "fma"))]
#[test]
fn mobilenet_v2_logits_match_golden_bits_at_112() {
    assert_eq!(
        format!("{:016x}", kind_logits_hash(ModelKind::MobileNetV2, 112)),
        "58aae6e6d4f77954"
    );
}

#[test]
fn conv_layers_match_golden_shapes_at_224() {
    let hashes: Vec<String> =
        ModelKind::ALL.iter().map(|&kind| format!("{:016x}", conv_layers_hash(kind))).collect();
    assert_eq!(hashes, ["70f2c60a480d659d", "ca06254dbb3aba95", "6e6b1cf2b41fa31f"]);
}

#[test]
fn resnet18_arena_plans_match_golden() {
    let expected = [
        ("0b27a1e97fd8d5f5", 1_003_520),
        ("8ef391528ff9fbf5", 4_014_080),
        ("9ac87e11a87fb3f5", 16_056_320),
    ];
    assert_eq!(plan_digests(ModelKind::ResNet18), expected.map(|(h, p)| (h.to_string(), p)));
}

#[test]
fn resnet50_arena_plans_match_golden() {
    let expected = [
        ("f59214cc04d0f94f", 2_007_040),
        ("f7abe4247e9d894f", 8_028_160),
        ("5da22d783896694f", 32_112_640),
    ];
    assert_eq!(plan_digests(ModelKind::ResNet50), expected.map(|(h, p)| (h.to_string(), p)));
}

#[test]
fn mobilenet_v2_arena_plans_match_golden() {
    let expected = [
        ("e9039f45c08d3a4f", 1_705_984),
        ("563319aad38c254f", 6_823_936),
        ("aec97a11c547f94f", 27_295_744),
    ];
    assert_eq!(plan_digests(ModelKind::MobileNetV2), expected.map(|(h, p)| (h.to_string(), p)));
}
