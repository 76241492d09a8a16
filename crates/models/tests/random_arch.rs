//! Random thin architectures through every interpreter of the shared lowering.
//!
//! `forward` and `forward_reference` now read one op list, so parity on the
//! three shipped families alone could miss a wiring bug that both sides share
//! (the goldens in `golden_logits.rs` pin those). This suite draws random
//! stacks — a stem, an optional max pool, a mix of basic, bottleneck,
//! inverted-residual and plain conv blocks at up to 16 channels with stride 1
//! or 2, then global pooling and a classifier — at 8–40 px inputs and checks
//! that
//!
//! * the arena forward equals the reference forward bitwise,
//! * `forward_batch` of 2–4 equal-shape inputs (folded at a stage entry when
//!   one qualifies) equals the per-image forward bitwise,
//! * `ArchSpec::arena_plan` equals `Network::arena_plan`, and
//! * after a reserve from that plan the first forward makes zero tracked
//!   allocations.
//!
//! Each case is drawn from one `u64` seed; a failing case prints it. Seeds
//! that once failed go into `REGRESSION_SEEDS`.

use std::sync::{Mutex, MutexGuard};

use proptest::prelude::*;
use rescnn_models::{Activation, ArchSpec, BlockSpec, ModelKind, Network};
use rescnn_tensor::{scratch, ActivationArena, Conv2dParams, Pool2dParams, Shape, Tensor};

/// Seeds of cases that failed once; each is re-checked on every run.
///
/// * `0xa223_d121_8b2f_cdff`: a plan-reserved arena missed once, because best
///   fit handed an early take a buffer the plan had created for a later one
///   (`Lowering::arena_plan` now adds what a reserved forward still misses).
const REGRESSION_SEEDS: [u64; 1] = [0xa223_d121_8b2f_cdff];

/// Serializes tests in this binary: they observe the global allocation
/// counter.
static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// SplitMix64: the case generator, so one seed names one whole case.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `lo..=hi`.
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo + 1) as u64) as usize
    }

    fn pick<T: Copy>(&mut self, options: &[T]) -> T {
        options[self.range(0, options.len() - 1)]
    }
}

/// One random case: an architecture, an input extent and a group size.
fn case(seed: u64) -> (ArchSpec, usize, usize) {
    let mut draw = Draw(seed);
    let acts = [Activation::None, Activation::Relu, Activation::Relu6];
    let stem_ch = draw.range(2, 16);
    let kernel = draw.pick(&[1usize, 3, 5, 7]);
    let mut blocks = vec![BlockSpec::ConvBnAct {
        params: Conv2dParams::new(3, stem_ch, kernel, draw.range(1, 2), kernel / 2),
        act: draw.pick(&acts),
    }];
    if draw.range(0, 1) == 1 {
        blocks.push(BlockSpec::MaxPool(Pool2dParams::new(3, 2, 1)));
    }
    let mut ch = stem_ch;
    for _ in 0..draw.range(1, 5) {
        let out_ch = if draw.range(0, 2) == 0 { ch } else { draw.range(2, 16) };
        let stride = draw.range(1, 2);
        blocks.push(match draw.range(0, 3) {
            0 => BlockSpec::BasicBlock { in_ch: ch, out_ch, stride },
            1 => BlockSpec::Bottleneck { in_ch: ch, mid_ch: draw.range(1, 16), out_ch, stride },
            2 => BlockSpec::InvertedResidual {
                in_ch: ch,
                out_ch,
                stride,
                expand: draw.pick(&[1usize, 2, 3]),
            },
            _ => {
                let kernel = draw.pick(&[1usize, 3]);
                let params = Conv2dParams::new(ch, out_ch, kernel, stride, kernel / 2);
                BlockSpec::ConvBnAct { params, act: draw.pick(&acts) }
            }
        });
        ch = out_ch;
    }
    let num_classes = draw.range(2, 10);
    blocks.push(BlockSpec::GlobalAvgPool);
    blocks.push(BlockSpec::Classifier { in_features: ch, num_classes });
    let arch = ArchSpec { kind: ModelKind::ResNet18, blocks, num_classes };
    (arch, draw.range(8, 40), draw.range(2, 4))
}

/// Runs every check on the case `seed` names.
fn check(seed: u64) -> Result<(), String> {
    let (arch, extent, images) = case(seed);
    let fail = |what: &str| Err(format!("seed {seed:#018x} ({extent}px, {arch:?}): {what}"));
    let net = Network::from_arch(&arch, seed);
    let shape = Shape::chw(3, extent, extent);
    let inputs: Vec<Tensor> =
        (0..images).map(|i| Tensor::random_uniform(shape, 1.0, seed ^ i as u64)).collect();

    let fast = net.forward(&inputs[0]).map_err(|e| e.to_string())?;
    let reference = net.forward_reference(&inputs[0]).map_err(|e| e.to_string())?;
    if fast.as_slice() != reference.as_slice() {
        return fail("forward differs from forward_reference");
    }

    let batched = net.forward_batch(&inputs).map_err(|e| e.to_string())?;
    for (input, logits) in inputs.iter().zip(&batched) {
        let solo = net.forward(input).map_err(|e| e.to_string())?;
        if solo.as_slice() != logits.as_slice() {
            return fail("forward_batch differs from forward");
        }
    }

    let plan = net.arena_plan(shape).map_err(|e| e.to_string())?;
    if arch.arena_plan(shape).map_err(|e| e.to_string())? != plan {
        return fail("ArchSpec::arena_plan differs from Network::arena_plan");
    }
    // The kernel scratch pool is warm from the forwards above, so only the
    // planned activation buffers are left to allocate.
    let mut arena = ActivationArena::new();
    plan.reserve(&mut arena);
    let reserved = scratch::heap_allocations();
    net.forward_with_arena(&inputs[0], &mut arena).map_err(|e| e.to_string())?;
    if scratch::heap_allocations() != reserved {
        return fail("the first forward from a plan-reserved arena allocated");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn random_archs_agree_across_interpreters(seed in 0u64..u64::MAX) {
        let _guard = lock();
        let outcome = check(seed);
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    }
}

#[test]
fn regression_seeds_agree_across_interpreters() {
    let _guard = lock();
    for seed in REGRESSION_SEEDS {
        check(seed).unwrap();
    }
}
