//! Network-level parity and allocation-regression suite for the prepared
//! execution stage (prepacked weights + fused epilogues + activation arena).
//!
//! Runs in CI's `RESCNN_THREADS={1,2,4}` determinism matrix: the prepared path
//! must be bitwise identical to the PR-4-era reference execution at every
//! thread count, and warm forwards must perform zero heap allocations
//! (`rescnn_tensor::scratch::heap_allocations` covers both the kernel scratch
//! pool and the activation arena).

use std::sync::{Mutex, MutexGuard};

use rescnn_models::{ArchSpec, BlockSpec, ModelKind, Network};
use rescnn_tensor::{
    scratch, select_algo, ActivationArena, AlgoCalibration, ConvAlgo, ConvShapeKey, EngineContext,
    Shape, Tensor,
};

/// Serializes tests in this binary: they observe the process-wide allocation
/// counter, which any concurrent engine work would advance.
static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A thin residual network with one block of each ResNet family — a basic
/// block (3×3 → 3×3, residual fused into the second) and a stride-1
/// bottleneck (1×1 → 3×3 → 1×1) — with channel counts small enough for
/// debug-mode runs at 448².
fn thin_residual_arch() -> ArchSpec {
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
fn prepared_forward_matches_reference_across_families() {
    let _guard = lock();
    for (kind, res) in
        [(ModelKind::ResNet18, 56usize), (ModelKind::ResNet50, 48), (ModelKind::MobileNetV2, 48)]
    {
        let net = Network::new(kind, 6, 9);
        let input = Tensor::random_uniform(Shape::chw(3, res, res), 1.0, res as u64);
        let fast = net.forward(&input).unwrap();
        let reference = net.forward_reference(&input).unwrap();
        assert_eq!(
            fast.as_slice(),
            reference.as_slice(),
            "{kind} prepared forward diverged from reference at {res}²"
        );
    }
}

#[test]
fn prepared_forward_matches_reference_under_winograd_dispatch() {
    let _guard = lock();
    // Forcing a Winograd arm routes every dense stride-1 3×3 layer through the
    // fused (bias + residual + activation) Winograd output transform in the
    // prepared path, vs fused bias + activation and a separate add_relu in the
    // reference. Both must agree bitwise, for both transform sizes and both
    // residual block families. A measured table naming the same arm for
    // every eligible shape, held by the network, must steer the forward to
    // the same bits as the pin.
    let input = Tensor::random_uniform(Shape::chw(3, 56, 56), 1.0, 23);
    for (arch, seed) in [(ModelKind::ResNet18.arch(4), 17), (thin_residual_arch(), 13)] {
        let net = Network::from_arch(&arch, seed);
        for algo in [ConvAlgo::Winograd, ConvAlgo::WinogradF4] {
            let context = EngineContext::new().with_algo(algo);
            let fast = context.scope(|| net.forward(&input).unwrap());
            let reference = context.scope(|| net.forward_reference(&input).unwrap());
            assert_eq!(fast.as_slice(), reference.as_slice(), "{algo} diverged from the reference");

            let mut table = AlgoCalibration::new();
            for layer in arch.conv_layers(56).unwrap() {
                if algo.supports(&layer.params) {
                    table.set(ConvShapeKey::new(layer.params, layer.input), algo);
                }
            }
            let calibrated = net.clone().with_arms(table).forward(&input);
            assert_eq!(calibrated.unwrap().as_slice(), fast.as_slice(), "{algo} table != pin");
        }
    }
}

/// A measured table belongs to the `Network` that holds it, not to the
/// process: a network given a table naming F(2×2) for every eligible shape and
/// a plain one of the same weights, forwarding concurrently, each repeat their
/// own bits — the pin's and the rule's. The tabled network's folded batch
/// equals its per-image forwards, and a pin still beats its table.
#[test]
fn measured_arms_belong_to_the_network_value() {
    let _guard = lock();
    let (arch, res) = (ModelKind::ResNet18.arch(4), 56);
    let mut table = AlgoCalibration::new();
    for layer in arch.conv_layers(res).unwrap() {
        if ConvAlgo::Winograd.supports(&layer.params) {
            table.set(ConvShapeKey::new(layer.params, layer.input), ConvAlgo::Winograd);
        }
    }
    let plain = Network::from_arch(&arch, 31);
    let tabled = Network::from_arch(&arch, 31).with_arms(table);
    let input = Tensor::random_uniform(Shape::chw(3, res, res), 1.0, 7);
    let pin = |algo| EngineContext::new().with_algo(algo);
    let default = plain.forward(&input).unwrap();
    let winograd = pin(ConvAlgo::Winograd).scope(|| plain.forward(&input).unwrap());
    assert_ne!(default.as_slice(), winograd.as_slice(), "the rule runs no F(2×2) at {res}²");
    assert_eq!(tabled.forward(&input).unwrap().as_slice(), winograd.as_slice(), "table != pin");

    std::thread::scope(|scope| {
        let runs = [&plain, &tabled].map(|net| {
            let input = &input;
            scope.spawn(move || (0..3).map(|_| net.forward(input).unwrap()).collect::<Vec<_>>())
        });
        for (run, expected) in runs.into_iter().zip([&default, &winograd]) {
            for logits in run.join().unwrap() {
                assert_eq!(logits.as_slice(), expected.as_slice(), "a concurrent forward moved");
            }
        }
    });

    let batch: Vec<Tensor> =
        (0..4).map(|i| Tensor::random_uniform(Shape::chw(3, res, res), 1.0, 40 + i)).collect();
    assert!(tabled.fold_block(batch[0].shape(), batch.len()).is_some());
    // One thread keeps the batch one group, so its tail runs folded.
    let folded = EngineContext::new().with_threads(1).scope(|| tabled.forward_batch(&batch));
    for (image, logits) in batch.iter().zip(folded.unwrap()) {
        assert_eq!(logits.as_slice(), tabled.forward(image).unwrap().as_slice(), "fold != image");
    }

    let packed = |net: &Network| pin(ConvAlgo::Im2colPacked).scope(|| net.forward(&input).unwrap());
    assert_eq!(packed(&tabled).as_slice(), packed(&plain).as_slice(), "the table beat a pin");
}

/// The default rule inside a real forward, one rung per arm it can choose:
/// ResNet-18 at 112² runs its 3×3 layers on F(4×4) (c2) and packed im2col
/// (c3–c5), 224² adds F(2×2) (c4). At every thread budget the prepared forward
/// equals the reference bitwise, repeats its own bits across budgets, and —
/// once warm — allocates nothing (the Winograd banks are built on the first
/// forward, from an unpack of the panels, and cached).
#[test]
fn default_rule_arms_match_reference_and_stay_allocation_free_at_every_thread_count() {
    let _guard = lock();
    let net = Network::new(ModelKind::ResNet18, 6, 21);
    let arch = ModelKind::ResNet18.arch(6);
    for (res, arms) in [
        (112usize, &[ConvAlgo::WinogradF4, ConvAlgo::Im2colPacked][..]),
        (224, &[ConvAlgo::WinogradF4, ConvAlgo::Winograd, ConvAlgo::Im2colPacked][..]),
    ] {
        let mut chosen: Vec<ConvAlgo> = arch
            .conv_layers(res)
            .unwrap()
            .iter()
            .filter(|layer| layer.params.kernel == 3 && layer.params.stride == 1)
            .map(|layer| select_algo(&layer.params, layer.input))
            .collect();
        chosen.dedup();
        assert_eq!(chosen, arms, "arms of the stride-1 3×3 layers at {res}², in network order");

        let input = Tensor::random_uniform(Shape::chw(3, res, res), 1.0, res as u64);
        let mut outputs = Vec::new();
        for threads in [1usize, 2, 4] {
            EngineContext::new().with_threads(threads).scope(|| {
                let reference = net.forward_reference(&input).unwrap();
                // Warm every participating worker's arena.
                for _ in 0..3 {
                    net.forward(&input).unwrap();
                }
                let warm = scratch::heap_allocations();
                let fast = net.forward(&input).unwrap();
                assert_eq!(
                    scratch::heap_allocations() - warm,
                    0,
                    "warm forward at {res}² on {threads} threads allocated"
                );
                assert_eq!(
                    fast.as_slice(),
                    reference.as_slice(),
                    "forward diverged from forward_reference at {res}² on {threads} threads"
                );
                outputs.push(fast);
            });
        }
        assert_eq!(outputs[0].as_slice(), outputs[1].as_slice(), "1 vs 2 threads at {res}²");
        assert_eq!(outputs[0].as_slice(), outputs[2].as_slice(), "1 vs 4 threads at {res}²");
    }
}

/// Warm forwards must not allocate: the kernel scratch pool and the activation
/// arena both reach steady state after warm-up, leaving only the returned
/// logits vector per request (a plain `Vec`, not pool-tracked).
#[test]
fn warm_forwards_perform_zero_tracked_allocations() {
    let _guard = lock();
    let net = Network::new(ModelKind::ResNet18, 5, 3);
    let input = Tensor::random_uniform(Shape::chw(3, 64, 64), 1.0, 7);
    for _ in 0..5 {
        net.forward(&input).unwrap();
    }
    let warm = scratch::heap_allocations();
    for _ in 0..5 {
        net.forward(&input).unwrap();
    }
    assert_eq!(
        scratch::heap_allocations() - warm,
        0,
        "steady-state forwards must not allocate scratch or activation buffers"
    );
}

/// Batched forwards reach the same steady state on pool workers (their
/// thread-local arenas persist across dispatches), and so does a folded
/// ResNet-50 batch: eight 112² images in one group (one thread), whose tail
/// from c5 on runs once over all eight out of the same arena.
#[test]
fn warm_batched_forwards_perform_zero_tracked_allocations() {
    let _guard = lock();
    let net = Network::new(ModelKind::ResNet18, 4, 5);
    let inputs: Vec<Tensor> =
        (0..8).map(|i| Tensor::random_uniform(Shape::chw(3, 48, 48), 1.0, i)).collect();
    for _ in 0..5 {
        net.forward_batch(&inputs).unwrap();
    }
    let warm = scratch::heap_allocations();
    for _ in 0..5 {
        net.forward_batch(&inputs).unwrap();
    }
    assert_eq!(
        scratch::heap_allocations() - warm,
        0,
        "warm homogeneous batches must not allocate on any worker"
    );

    let net = Network::new(ModelKind::ResNet50, 10, 5);
    let inputs: Vec<Tensor> =
        (0..8).map(|i| Tensor::random_uniform(Shape::chw(3, 112, 112), 1.0, i)).collect();
    EngineContext::new().with_threads(1).scope(|| {
        for _ in 0..2 {
            net.forward_batch(&inputs).unwrap();
        }
        let warm = scratch::heap_allocations();
        net.forward_batch(&inputs).unwrap();
        assert_eq!(
            scratch::heap_allocations() - warm,
            0,
            "a warm folded ResNet-50 batch at 112² must not allocate"
        );
    });
}

/// Eight ResNet-50 images per rung and their one-image logits, shared by the
/// folded-batch pins below.
fn resnet50_rungs(net: &Network) -> Vec<(usize, Vec<Tensor>, Vec<Tensor>)> {
    [112usize, 168]
        .iter()
        .map(|&res| {
            let images: Vec<Tensor> = (0..8)
                .map(|i| Tensor::random_uniform(Shape::chw(3, res, res), 1.0, (res + i) as u64))
                .collect();
            let singles = images.iter().map(|x| net.forward(x).unwrap()).collect();
            (res, images, singles)
        })
        .collect()
}

/// `forward_batch` folds each group's tail into one GEMM per layer, and its
/// logits must still be the one-image `forward` bits. On one thread a batch
/// is one group, so batches of 1/2/3/4/8 images pin every group size (and
/// fold block: none, c4, c4, c4, c5) at both low rungs. A mixed-resolution
/// batch then runs under the ambient thread budget (CI's 1/2/4 matrix),
/// where the groups are runs of equal shape inside each worker's share.
#[test]
fn resnet50_folded_batches_match_single_forwards_bitwise() {
    let _guard = lock();
    let net = Network::new(ModelKind::ResNet50, 10, 3);
    let rungs = resnet50_rungs(&net);
    EngineContext::new().with_threads(1).scope(|| {
        for (res, images, singles) in &rungs {
            for group in [1usize, 2, 3, 4, 8] {
                let batched = net.forward_batch(&images[..group]).unwrap();
                for (index, (got, want)) in batched.iter().zip(singles).enumerate() {
                    assert_eq!(
                        got.as_slice(),
                        want.as_slice(),
                        "image {index} of a {group}-image group at {res}² differs from forward"
                    );
                }
            }
        }
    });
    let (low, high) = (&rungs[0], &rungs[1]);
    let order =
        [(low, 0usize), (low, 1), (low, 2), (high, 0), (high, 1), (high, 2), (high, 3), (low, 3)];
    let mixed: Vec<Tensor> = order.iter().map(|((_, images, _), i)| images[*i].clone()).collect();
    let batched = net.forward_batch(&mixed).unwrap();
    for (slot, (((res, _, singles), i), got)) in order.iter().zip(&batched).enumerate() {
        assert_eq!(
            got.as_slice(),
            singles[*i].as_slice(),
            "slot {slot} ({res}²) of a mixed-resolution batch differs from forward"
        );
    }
}

/// The fold rule as a table, so a change to it shows: per rung and group
/// size, the ResNet-50 layer a group folds at (9 = c4's first block, 15 =
/// c5's; `None` runs every image alone). c4's maps are 7², 11², 14² and 28²
/// at the four rungs, c5's 4², 6², 7² and 14², against the 128-pixel
/// `Network::FOLD_MAX_PIXELS`; a group of eight folds no earlier than c5,
/// where its summed input first fits in the single-image planned peak.
#[test]
fn resnet50_fold_block_table() {
    let net = Network::new(ModelKind::ResNet50, 1000, 0);
    let table: [(usize, [Option<usize>; 5]); 4] = [
        (112, [None, Some(9), Some(9), Some(9), Some(15)]),
        (168, [None, Some(9), Some(9), Some(9), Some(15)]),
        (224, [None, Some(15), Some(15), Some(15), Some(15)]),
        (448, [None, None, None, None, None]),
    ];
    for (res, folds) in table {
        let shape = Shape::chw(3, res, res);
        let got: Vec<Option<usize>> =
            [1usize, 2, 3, 4, 8].iter().map(|&group| net.fold_block(shape, group)).collect();
        assert_eq!(got, folds, "ResNet-50 fold blocks at {res}² for groups of 1/2/3/4/8");
    }
    // A multi-image input is never folded further.
    assert_eq!(net.fold_block(Shape::new(2, 3, 112, 112), 4), None);
}

/// The arena planner's reservation covers a real forward exactly: after
/// reserving from the plan, even the *first* forward at that resolution — and
/// every warm one after it — performs zero tracked allocations. Covered under
/// default dispatch (ResNet-50) and at the paper's 448² operating point with
/// every stride-1 3×3 layer forced onto Winograd (the thin basic + bottleneck
/// network).
#[test]
fn arena_plan_reservation_makes_first_forward_allocation_free() {
    let _guard = lock();
    let cases = [
        (Network::new(ModelKind::ResNet50, 4, 11), 56usize, EngineContext::new()),
        (
            Network::from_arch(&thin_residual_arch(), 7),
            448,
            EngineContext::new().with_algo(ConvAlgo::Winograd),
        ),
    ];
    for (net, res, context) in &cases {
        let shape = Shape::chw(3, *res, *res);
        let input = Tensor::random_uniform(shape, 1.0, 31);
        context.scope(|| {
            // Warm the kernel scratch pool and the lazy per-layer caches with a
            // throwaway arena, so the measurement isolates the *activation*
            // buffers.
            let mut throwaway = ActivationArena::new();
            net.forward_with_arena(&input, &mut throwaway).unwrap();
            drop(throwaway);

            let plan = net.arena_plan(shape).unwrap();
            assert!(!plan.buffer_elems.is_empty());
            let mut arena = ActivationArena::new();
            plan.reserve(&mut arena);
            let reserved = scratch::heap_allocations();
            let out = net.forward_with_arena(&input, &mut arena).unwrap();
            assert_eq!(
                scratch::heap_allocations() - reserved,
                0,
                "a plan-reserved arena must serve the first forward at {res}² without allocating"
            );
            let warm = scratch::heap_allocations();
            net.forward_with_arena(&input, &mut arena).unwrap();
            assert_eq!(
                scratch::heap_allocations() - warm,
                0,
                "a warm forward at {res}² must not allocate"
            );
            // And the planned execution is still the same bits.
            let reference = net.forward_reference(&input).unwrap();
            assert_eq!(out.as_slice(), reference.as_slice());
        });
    }
}

/// The arena plan is a function of the architecture and the input shape
/// only: the thread budget a caller happens to run under must not change it,
/// or memory-budget admission would charge whichever figure its first caller
/// produced.
#[test]
fn arena_plan_is_identical_at_every_thread_budget() {
    let _guard = lock();
    let net = Network::new(ModelKind::ResNet50, 1000, 0);
    for res in [112usize, 224, 448] {
        let shape = Shape::chw(3, res, res);
        let plans: Vec<_> = [1usize, 2, 4]
            .iter()
            .map(|&threads| {
                EngineContext::new().with_threads(threads).scope(|| net.arena_plan(shape).unwrap())
            })
            .collect();
        assert_eq!(plans[0], plans[1], "ResNet-50 arena plan at {res}²: 1 vs 2 threads");
        assert_eq!(plans[0], plans[2], "ResNet-50 arena plan at {res}²: 1 vs 4 threads");
    }
}

/// Mixed-resolution serving: one arena grows to the per-bucket maxima and then
/// serves every bucket allocation-free.
#[test]
fn mixed_resolution_buckets_reach_steady_state() {
    let _guard = lock();
    let net = Network::new(ModelKind::ResNet18, 3, 2);
    let mut arena = ActivationArena::new();
    let inputs: Vec<Tensor> = [32usize, 48, 64, 48, 32]
        .iter()
        .map(|&res| Tensor::random_uniform(Shape::chw(3, res, res), 1.0, res as u64))
        .collect();
    for input in &inputs {
        net.forward_with_arena(input, &mut arena).unwrap();
    }
    let warm = scratch::heap_allocations();
    for input in &inputs {
        net.forward_with_arena(input, &mut arena).unwrap();
    }
    assert_eq!(scratch::heap_allocations() - warm, 0, "warm mixed-resolution serving allocated");
    assert!(arena.resident_bytes() > 0);
}

/// The accounted live-byte high-water mark of a real forward never exceeds
/// the arena planner's peak-live figure — the upper bound the serving core's
/// memory-budget admission (`SloOptions::memory_budget_bytes`) relies on.
#[test]
fn measured_peak_live_bytes_never_exceed_the_planned_peak() {
    let _guard = lock();
    for (kind, hw) in
        [(ModelKind::ResNet18, 56usize), (ModelKind::ResNet50, 56), (ModelKind::MobileNetV2, 48)]
    {
        let net = Network::new(kind, 4, 11);
        let shape = Shape::chw(3, hw, hw);
        let input = Tensor::random_uniform(shape, 1.0, 7);
        let planned = net.arena_plan(shape).unwrap().peak_live_bytes;
        let mut arena = ActivationArena::new();
        net.forward_with_arena(&input, &mut arena).unwrap();
        let measured = arena.peak_live_bytes();
        assert!(measured > 0, "{kind}: a forward must account live activation bytes");
        assert!(
            measured <= planned,
            "{kind} at {hw}²: measured peak {measured} exceeds planned peak {planned}"
        );
    }
}
