//! Network-level suite for back-to-back conv→conv pairs inside residual
//! blocks: a basic block (3×3 → 3×3, both on Winograd) and a stride-1
//! bottleneck (3×3 → 1×1) must run each pair bitwise identical to the
//! layer-at-a-time reference, and serve warm (and plan-reserved first)
//! forwards without a single tracked heap allocation at the paper's 224² and
//! 448² operating points.
//!
//! Each pair runs unfused, one layer after the other; see `docs/winograd.md`
//! for why the forward does not fuse them.

use std::sync::{Mutex, MutexGuard};

use rescnn_models::{ArchSpec, BlockSpec, ModelKind, Network};
use rescnn_tensor::{scratch, ActivationArena, ConvAlgo, EngineContext, Shape, Tensor};

/// Serializes tests in this binary: they observe the global allocation
/// counter.
static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A thin residual network with both conv→conv pair shapes — a basic block
/// (3×3 → 3×3) and a stride-1 bottleneck (3×3 → 1×1 pointwise) — with channel
/// counts small enough for debug-mode runs at 448².
fn pair_arch() -> ArchSpec {
    ArchSpec {
        kind: ModelKind::ResNet18,
        blocks: vec![
            BlockSpec::BasicBlock { in_ch: 3, out_ch: 8, stride: 1 },
            BlockSpec::Bottleneck { in_ch: 8, mid_ch: 4, out_ch: 8, stride: 1 },
            BlockSpec::GlobalAvgPool,
            BlockSpec::Classifier { in_features: 8, num_classes: 4 },
        ],
        num_classes: 4,
    }
}

#[test]
fn chained_forward_matches_reference_bitwise() {
    let _guard = lock();
    let net = Network::from_arch(&pair_arch(), 13);
    let input = Tensor::random_uniform(Shape::chw(3, 56, 56), 1.0, 41);
    for algo in [ConvAlgo::Winograd, ConvAlgo::WinogradF4] {
        let context = EngineContext::new().with_algo(algo);
        let fast = context.scope(|| net.forward(&input).unwrap());
        let reference = context.scope(|| net.forward_reference(&input).unwrap());
        assert_eq!(
            fast.as_slice(),
            reference.as_slice(),
            "forward under {algo} diverged from the layer-at-a-time reference"
        );
    }
}

/// At both paper operating points the planner's reservation covers the
/// forward exactly: the first forward from a plan-reserved arena and every
/// warm forward after it perform zero tracked heap allocations.
#[test]
fn chained_forwards_stay_allocation_free_at_224_and_448() {
    let _guard = lock();
    let net = Network::from_arch(&pair_arch(), 7);
    let context = EngineContext::new().with_algo(ConvAlgo::Winograd);
    for res in [224usize, 448] {
        let shape = Shape::chw(3, res, res);
        let input = Tensor::random_uniform(shape, 1.0, res as u64);

        // Warm the kernel scratch pool and lazy per-layer caches with a
        // throwaway arena, isolating the planned activation buffers.
        let mut throwaway = ActivationArena::new();
        context.scope(|| net.forward_with_arena(&input, &mut throwaway).unwrap());
        drop(throwaway);

        let plan = context.scope(|| net.arena_plan(shape).unwrap());
        let mut arena = ActivationArena::new();
        plan.reserve(&mut arena);
        let reserved = scratch::heap_allocations();
        context.scope(|| net.forward_with_arena(&input, &mut arena).unwrap());
        assert_eq!(
            scratch::heap_allocations() - reserved,
            0,
            "plan-reserved forward at {res}² must not allocate"
        );

        let warm = scratch::heap_allocations();
        context.scope(|| net.forward_with_arena(&input, &mut arena).unwrap());
        assert_eq!(
            scratch::heap_allocations() - warm,
            0,
            "warm forward at {res}² must not allocate"
        );
    }
}
