//! Executable networks with (randomly initialized) weights.
//!
//! The paper's accuracy numbers come from models trained on GPUs for days; reproducing the
//! training run is out of scope (the accuracy response is modelled by `rescnn-oracle`).
//! What *is* reproduced here is everything structural: real forward passes through real
//! convolution kernels, so that resolution-dependent compute behaviour (shapes, FLOPs,
//! kernel time) is measured rather than assumed. Networks are therefore instantiated with
//! deterministic random weights.
//!
//! # Execution stage
//!
//! Every layer is *prepared once* at construction
//! ([`rescnn_tensor::PreparedLayer`]): batch-norm is folded into the convolution,
//! the folded weights are prepacked into GEMM panel layout per channel group (the
//! only f32 copy kept), and Winograd-eligible layers cache the transformed filter
//! bank of whichever arm dispatch picks for them at a resolution where their
//! tiles fill the microkernel ([`rescnn_tensor::select_algo`]). A forward pass
//! then
//!
//! * never repacks a weight panel,
//! * fuses each layer's activation — and each residual block's tail
//!   (`+identity → ReLU`) — into the kernel's output write instead of separate
//!   sweeps over the feature map, and
//! * runs entirely out of a reusable [`ActivationArena`] (per thread, persistent
//!   on the engine's worker pool), so warm forwards perform **zero heap
//!   allocations** for activations and packing — pinned by
//!   `rescnn_tensor::scratch::heap_allocations` in `tests/prepacked_forward.rs`.
//!
//! All three transformations are bitwise-neutral (data movement, fusion of
//! pointwise tails in the same order, buffer recycling), so
//! [`Network::forward`] is bitwise identical to the unprepared reference
//! execution kept as [`Network::forward_reference`]. One deliberate numerics
//! change rides along: the classifier now runs on the packed GEMM
//! ([`rescnn_tensor::linear_prepared`], shared by both paths), whose KC-blocked
//! vector reduction agrees with the old scalar `linear` only to reassociation
//! level (~1e-4) — logits are *not* bit-comparable with pre-PR recordings.
//!
//! A [`Network`] keeps its architecture's [`Lowering`] next to one prepared
//! convolution per lowered one. The arena forward (and both halves of a
//! folded batch) and the reference forward (int8 calibration is its hook)
//! interpret that op list. In the arena forward each op writes the arena
//! buffer of its output slot and each retire gives that buffer back, so the
//! arena grows to [`Network::arena_plan`] — the largest activation each slot
//! holds — by construction.

use std::ops::Range;

use rescnn_tensor::parallel::parallel_map_indexed;
use rescnn_tensor::{
    add_relu_in_place, conv2d_winograd_f4_prepared, conv2d_winograd_prepared, conv2d_with_algo,
    global_avg_pool_into, linear_prepared, linear_prepared_into, max_pool2d_into, num_threads,
    planned_conv_algo, relu6_in_place, relu_in_place, softmax, with_thread_arena, ActivationArena,
    Conv2dParams, ConvAlgo, ConvEpilogue, FusedActivation, PreparedGemmB, PreparedLayer, Shape,
    Tensor,
};

use crate::arch::{Activation, ArchSpec, ArenaPlan, Lowering, ModelKind, Op, OpKind, SLOTS};
use crate::error::{ModelError, Result};

/// A convolution + batch-norm + activation unit with instantiated weights.
///
/// At construction the (inference-mode) batch normalization is folded into the
/// convolution: `y = γ·(conv(x) − μ)/√(σ² + ε) + β` becomes a convolution with
/// scaled weights and a per-channel bias, and the folded layer is prepared for
/// the serving hot path ([`PreparedLayer`]: per-group prepacked GEMM weight
/// panels, lazily-cached Winograd filter transform). The forward pass is one
/// engine-dispatched convolution with the activation — and, at block tails, the
/// residual add — fused into the kernel's output write.
#[derive(Debug, Clone)]
struct ConvBn {
    prepared: PreparedLayer,
    act: Activation,
}

impl Activation {
    /// The activation as a kernel epilogue.
    fn fused(self) -> FusedActivation {
        match self {
            Activation::None => FusedActivation::None,
            Activation::Relu => FusedActivation::Relu,
            Activation::Relu6 => FusedActivation::Relu6,
        }
    }
}

impl ConvBn {
    const BN_EPS: f32 = 1e-5;

    fn new(params: Conv2dParams, act: Activation, seed: u64) -> Self {
        let fan_in = (params.in_channels / params.groups) * params.kernel * params.kernel;
        let mut weight = Tensor::kaiming(
            Shape::new(
                params.out_channels,
                params.in_channels / params.groups,
                params.kernel,
                params.kernel,
            ),
            fan_in,
            seed,
        );
        // Freshly-initialized batch-norm statistics: γ = 1, β = 0, μ = 0, σ² = 1.
        let gamma = vec![1.0f32; params.out_channels];
        let beta = vec![0.0f32; params.out_channels];
        let mean = vec![0.0f32; params.out_channels];
        let var = vec![1.0f32; params.out_channels];

        let per_channel = weight.shape().c * weight.shape().h * weight.shape().w;
        let wdata = weight.as_mut_slice();
        let mut bias = Vec::with_capacity(params.out_channels);
        for oc in 0..params.out_channels {
            let scale = gamma[oc] / (var[oc] + Self::BN_EPS).sqrt();
            for w in &mut wdata[oc * per_channel..(oc + 1) * per_channel] {
                *w *= scale;
            }
            bias.push(beta[oc] - mean[oc] * scale);
        }
        let prepared =
            PreparedLayer::new(weight, Some(bias), params).expect("layer shapes are consistent");
        ConvBn { prepared, act }
    }

    /// Prepared forward into `out` with an explicit fused tail (block tails
    /// pass the post-residual activation; the layer's own activation is
    /// `None` there).
    fn forward_tail(
        &self,
        input: &Tensor,
        residual: Option<&Tensor>,
        activation: FusedActivation,
        out: &mut Tensor,
    ) -> Result<()> {
        // A fused tail *replaces* the layer's own activation, which is only
        // sound while tail convolutions are built with `Activation::None` (as
        // every shipped block family is) — otherwise the reference path would
        // apply the layer activation before the residual add and diverge.
        debug_assert!(
            activation == self.act.fused() || matches!(self.act, Activation::None),
            "fused tail would drop this layer's own activation"
        );
        let epilogue = ConvEpilogue { activation, residual };
        self.prepared.forward_fused_into(input, epilogue, out)?;
        Ok(())
    }

    /// Widens the layer's recorded int8 activation range with one observed
    /// input tensor (the range-calibration pass feeds every calibration
    /// sample through this).
    fn observe_int8_range(&mut self, input: &Tensor) {
        let (lo, hi) = rescnn_tensor::tensor_range(input);
        let (lo, hi) = match self.prepared.int8_range() {
            Some((plo, phi)) => (plo.min(lo), phi.max(hi)),
            None => (lo, hi),
        };
        self.prepared.set_int8_range(lo, hi);
    }

    /// The PR-4-era execution path: per-call weight packing (except the cached
    /// Winograd transform, which PR 4 already cached) from an exact unpack of
    /// the prepared panels, separate activation passes, fresh allocations. Kept
    /// as the measured baseline and the parity target — bitwise identical to
    /// [`ConvBn::forward_tail`] with the layer's own activation.
    fn forward_reference(&self, input: &Tensor) -> Result<Tensor> {
        let params = self.prepared.params();
        let algo = planned_conv_algo(params, input.shape());
        if algo == ConvAlgo::Winograd {
            let filter = self.prepared.winograd_filter()?;
            let out = conv2d_winograd_prepared(
                input,
                filter,
                self.prepared.bias(),
                params,
                self.act.fused(),
            )?;
            return Ok(out);
        }
        if algo == ConvAlgo::WinogradF4 {
            let filter = self.prepared.winograd_filter_f4()?;
            let out = conv2d_winograd_f4_prepared(
                input,
                filter,
                self.prepared.bias(),
                params,
                self.act.fused(),
            )?;
            return Ok(out);
        }
        if algo == ConvAlgo::Int8 {
            // The quantized path must read the same prepared weight panels and
            // calibration-recorded activation range as the hot path, or the two
            // would disagree bitwise whenever a range is recorded.
            let mut out = Tensor::zeros(params.output_shape(input.shape())?);
            self.prepared.forward_with_algo_into(
                input,
                ConvAlgo::Int8,
                ConvEpilogue::activation(self.act.fused()),
                &mut out,
            )?;
            return Ok(out);
        }
        let mut out =
            conv2d_with_algo(input, &self.prepared.weight(), self.prepared.bias(), params, algo)?;
        match self.act {
            Activation::None => {}
            Activation::Relu => relu_in_place(&mut out),
            Activation::Relu6 => relu6_in_place(&mut out),
        }
        Ok(out)
    }
}

/// A linear classifier on the packed GEMM, shared by both forward paths.
#[derive(Debug, Clone)]
struct Linear {
    weight: PreparedGemmB,
    bias: Vec<f32>,
    in_features: usize,
    out_features: usize,
}

impl Linear {
    fn new(in_features: usize, out_features: usize, seed: u64) -> Self {
        let w = Tensor::random_uniform(
            Shape::new(1, 1, out_features, in_features),
            (1.0 / in_features as f32).sqrt(),
            seed,
        );
        Linear {
            weight: PreparedGemmB::prepare_transposed(w.as_slice(), out_features, in_features),
            bias: vec![0.0; out_features],
            in_features,
            out_features,
        }
    }

    /// The logits' shape for `x`, after checking `x` is a pooled feature
    /// vector of the right width.
    fn output_shape(&self, x: &Tensor) -> Result<Shape> {
        let shape = x.shape();
        if shape.c != self.in_features || shape.h != 1 || shape.w != 1 {
            return Err(ModelError::BadInput {
                reason: format!(
                    "classifier expected {}x1x1 features, got {}",
                    self.in_features, shape
                ),
            });
        }
        Ok(Shape::new(shape.n, self.out_features, 1, 1))
    }
}

/// One live activation of a forward pass: the caller's input is borrowed (no
/// per-request clone), everything a network op writes is owned, with the
/// arena buffer it came from, and retired as soon as the op list says it is
/// dead.
enum Cursor<'a> {
    Borrowed(&'a Tensor),
    Owned(Tensor, usize),
}

impl Cursor<'_> {
    fn get(&self) -> &Tensor {
        match self {
            Cursor::Borrowed(t) => t,
            Cursor::Owned(t, _) => t,
        }
    }

    /// Retires an owned activation back to its arena buffer.
    fn retire(self, arena: &mut ActivationArena) {
        if let Cursor::Owned(t, buffer) = self {
            arena.give(buffer, t);
        }
    }

    /// The activation as an owned tensor (a borrowed input is cloned).
    fn into_tensor(self) -> Tensor {
        match self {
            Cursor::Borrowed(t) => t.clone(),
            Cursor::Owned(t, _) => t,
        }
    }
}

/// The interpreters' slot table ([`SLOTS`] activations; see [`Lowering`]).
type Slots<'a> = [Option<Cursor<'a>>; SLOTS];

/// A slot table holding `input` in slot `slot`.
fn slots_with(slot: usize, input: Cursor<'_>) -> Slots<'_> {
    let mut slots: Slots<'_> = Default::default();
    slots[slot] = Some(input);
    slots
}

/// The activation in a slot the op list reads.
fn live<'s>(slots: &'s Slots<'_>, slot: usize) -> &'s Tensor {
    slots[slot].as_ref().expect("the op list reads a live slot").get()
}

/// The activation the op list leaves in `slot`.
fn take_live(slots: &mut Slots<'_>, slot: usize) -> Tensor {
    slots[slot].take().expect("the op list leaves its output live").into_tensor()
}

/// An executable convolutional network.
///
/// # Examples
/// ```
/// use rescnn_models::{ModelKind, Network};
/// use rescnn_tensor::{Shape, Tensor};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let net = Network::new(ModelKind::ResNet18, 10, 0);
/// let input = Tensor::random_uniform(Shape::chw(3, 64, 64), 1.0, 1);
/// let logits = net.forward(&input)?;
/// assert_eq!(logits.shape().c, 10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Network {
    kind: ModelKind,
    lowering: Lowering,
    convs: Vec<ConvBn>,
    linears: Vec<Linear>,
    num_classes: usize,
}

impl Network {
    /// Builds an executable network for a model family with deterministic random weights.
    pub fn new(kind: ModelKind, num_classes: usize, seed: u64) -> Self {
        Self::from_arch(&kind.arch(num_classes), seed)
    }

    /// Builds an executable network from a symbolic architecture: one
    /// prepared convolution per lowered convolution in construction order,
    /// then the classifiers (which close every architecture), each seeded
    /// from one step of a shared LCG.
    pub fn from_arch(arch: &ArchSpec, seed: u64) -> Self {
        let lowering = arch.lower();
        let mut next_seed = seed;
        let mut bump = || {
            next_seed =
                next_seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            next_seed
        };
        let convs = lowering.convs.iter().map(|c| ConvBn::new(c.params, c.act, bump())).collect();
        let linears = lowering
            .linears
            .iter()
            .map(|l| Linear::new(l.in_features, l.num_classes, bump()))
            .collect();
        Network { kind: arch.kind, lowering, convs, linears, num_classes: arch.num_classes }
    }

    /// The model family this network was built from.
    pub fn kind(&self) -> ModelKind {
        self.kind
    }

    /// Number of output classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Number of layers (at block granularity).
    pub fn num_layers(&self) -> usize {
        self.lowering.blocks.len()
    }

    fn check_input(&self, input: &Tensor) -> Result<()> {
        if input.shape().c != 3 {
            return Err(ModelError::BadInput {
                reason: format!("expected 3 input channels, got {}", input.shape().c),
            });
        }
        Ok(())
    }

    /// Runs a forward pass, returning raw logits of shape `N × num_classes × 1 × 1`.
    ///
    /// Executes prepacked + fused out of the calling thread's persistent
    /// [`ActivationArena`]: after a warm-up pass per input resolution, steady-state
    /// forwards perform zero heap allocations apart from the returned logits
    /// vector. Results are bitwise identical to
    /// [`forward_reference`](Self::forward_reference).
    ///
    /// # Errors
    /// Returns [`ModelError::BadInput`] if the input does not have three channels, or a
    /// kernel error if the resolution is too small for the downsampling schedule.
    pub fn forward(&self, input: &Tensor) -> Result<Tensor> {
        with_thread_arena(|arena| self.forward_with_arena(input, arena))
    }

    /// [`forward`](Self::forward) against a caller-owned arena (e.g. one arena
    /// per resolution bucket in a serving layer).
    ///
    /// # Errors
    /// See [`Network::forward`].
    pub fn forward_with_arena(
        &self,
        input: &Tensor,
        arena: &mut ActivationArena,
    ) -> Result<Tensor> {
        self.check_input(input)?;
        let mut slots = slots_with(0, Cursor::Borrowed(input));
        self.run_ops(&self.lowering.ops, &mut slots, arena)?;
        Ok(take_live(&mut slots, self.lowering.output))
    }

    /// The arena interpreter: runs `ops` over the activations in `slots` (one
    /// image or a batch of them), taking each op's output from the arena
    /// buffer of its output slot and giving every retired activation back to
    /// the buffer it came from.
    fn run_ops(
        &self,
        ops: &[Op],
        slots: &mut Slots<'_>,
        arena: &mut ActivationArena,
    ) -> Result<()> {
        for op in ops {
            let x = live(slots, op.input);
            let out = match op.kind {
                OpKind::Conv { conv, residual, act } => {
                    let conv = &self.convs[conv];
                    let mut out =
                        arena.take(op.output, conv.prepared.params().output_shape(x.shape())?);
                    let residual = residual.map(|slot| live(slots, slot));
                    conv.forward_tail(x, residual, act.fused(), &mut out)?;
                    out
                }
                OpKind::MaxPool(pool) => {
                    let mut out = arena.take(op.output, pool.output_shape(x.shape())?);
                    max_pool2d_into(x, &pool, &mut out)?;
                    out
                }
                OpKind::GlobalAvgPool => {
                    let mut out = arena.take(op.output, Shape::new(x.shape().n, x.shape().c, 1, 1));
                    global_avg_pool_into(x, &mut out)?;
                    out
                }
                OpKind::Classifier(index) => {
                    let linear = &self.linears[index];
                    // The logits leave the forward (caller owns them), so they are
                    // a fresh — tiny — allocation rather than an arena buffer.
                    let mut out = Tensor::zeros(linear.output_shape(x)?);
                    linear_prepared_into(x, &linear.weight, Some(&linear.bias), &mut out)?;
                    out
                }
                OpKind::Retire => {
                    if let Some(dead) = slots[op.input].take() {
                        dead.retire(arena);
                    }
                    continue;
                }
            };
            slots[op.output] = Some(Cursor::Owned(out, op.output));
        }
        Ok(())
    }

    /// The reference execution, kept as the measured baseline and the
    /// parity target: the same op list with per-call weight packing,
    /// separate activation and residual-add passes, and a fresh tensor per op
    /// dropped at its retire op. Bitwise identical to
    /// [`forward`](Self::forward) — pinned by `tests/prepacked_forward.rs`
    /// across thread counts. It shares the cached Winograd banks and the GEMM
    /// classifier, so an A/B against `forward` isolates exactly the prepack +
    /// fuse + arena contribution.
    ///
    /// # Errors
    /// See [`Network::forward`].
    pub fn forward_reference(&self, input: &Tensor) -> Result<Tensor> {
        self.check_input(input)?;
        run_reference(&self.lowering, &self.linears, input, |conv, x| {
            self.convs[conv].forward_reference(x)
        })
    }

    /// Records per-convolution activation ranges for the int8 arm: feeds
    /// `input` through the reference forward, observing each prepared
    /// convolution's *input* min/max and widening any previously recorded
    /// range — call once per calibration sample. Quantized forwards then read
    /// the stored range instead of re-scanning each request's activations,
    /// making the quantization grid (and therefore the output bits) a
    /// deployment property rather than a per-request one.
    ///
    /// # Errors
    /// See [`Network::forward`].
    pub fn calibrate_int8_ranges(&mut self, input: &Tensor) -> Result<()> {
        self.check_input(input)?;
        let convs = &mut self.convs;
        run_reference(&self.lowering, &self.linears, input, |conv, x| {
            convs[conv].observe_int8_range(x);
            convs[conv].forward_reference(x)
        })?;
        Ok(())
    }

    /// Plans the activation-arena footprint of a forward pass at one input
    /// shape: the size each slot's buffer grows to in
    /// [`forward_with_arena`](Self::forward_with_arena) plus the peak
    /// live-activation bytes, from the same op list (see
    /// [`ArchSpec::arena_plan`]). The plan depends only on the
    /// architecture and the input shape — not on the thread budget or the
    /// dispatch state — because the op list fixes every take and retire
    /// whatever the kernels.
    ///
    /// # Errors
    /// Returns an error if the resolution is too small for the downsampling
    /// schedule.
    pub fn arena_plan(&self, input: Shape) -> Result<ArenaPlan> {
        Ok(self.lowering.arena_plan(input)?)
    }

    /// Plans and pre-populates the **calling thread's** arena for a resolution,
    /// so even the first forward at that input shape allocates nothing on this
    /// thread (benchmarks, sequential serving). Batched execution on the worker
    /// pool uses each worker's own thread-local arena, which this cannot reach —
    /// workers warm themselves on their first sample per resolution and stay
    /// allocation-free from then on (their arenas persist across dispatches).
    /// For caller-managed warming across executors, use
    /// [`arena_plan`](Self::arena_plan) + [`ArenaPlan::reserve`] on an arena you
    /// pass to [`forward_with_arena`](Self::forward_with_arena).
    ///
    /// # Errors
    /// See [`Network::arena_plan`].
    pub fn warm_thread_arena(&self, input: Shape) -> Result<ArenaPlan> {
        let plan = self.arena_plan(input)?;
        with_thread_arena(|arena| plan.reserve(arena));
        Ok(plan)
    }

    /// Runs a forward pass and returns per-class probabilities (softmax of the logits).
    ///
    /// # Errors
    /// See [`Network::forward`].
    pub fn predict_probabilities(&self, input: &Tensor) -> Result<Tensor> {
        let logits = self.forward(input)?;
        Ok(softmax(&logits)?)
    }

    /// Runs a forward pass and returns the arg-max class index for a batch-1 input.
    ///
    /// # Errors
    /// See [`Network::forward`].
    pub fn predict_class(&self, input: &Tensor) -> Result<usize> {
        let logits = self.forward(input)?;
        Ok(logits.argmax().unwrap_or(0))
    }

    /// Largest per-image output map, in pixels, of a block that
    /// [`forward_batch`](Self::forward_batch) folds a group at. Folding the
    /// images into the GEMM columns pays where one image leaves them short:
    /// ResNet-50's c4 and c5 at 112² and 168² (16–121 pixels per image) ran
    /// faster folded, while its c2 and c3 (196–784 pixels) did not.
    pub const FOLD_MAX_PIXELS: usize = 128;

    /// Runs forward passes for a batch of independent inputs (which may have
    /// heterogeneous resolutions), returning per-input logits in order.
    ///
    /// * **Groups.** The engine's thread budget is split between sample-level
    ///   and kernel-level parallelism with [`rescnn_tensor::split_parallelism`].
    ///   The batch is cut into one contiguous share per outer worker (all of
    ///   it when the batch is smaller than the thread budget, which then runs
    ///   with fully parallel kernels), and each share into runs of
    ///   equal-shape inputs: the groups.
    /// * **Fold block.** A group of two or more images folds at its
    ///   [`fold_block`](Self::fold_block), a stage-entry block whose
    ///   per-image output map is small (at most [`FOLD_MAX_PIXELS`](Self::FOLD_MAX_PIXELS)): c4 for
    ///   groups of two to four at 112² and 168², c5 for a group of eight or
    ///   at 224², no fold at 448². Each image of the group runs alone up to
    ///   that block.
    /// * **Tail.** The group's fold-block inputs are copied into one N-image
    ///   tensor (the arena buffer after the lowered slots' ones), and the
    ///   rest of the network runs on it once: every
    ///   GEMM-lowered convolution folds the images into its GEMM columns, so
    ///   a layer's weights stream once per group instead of once per image.
    /// * **Dispatch.** A group that folds is one pool task. Every image of a
    ///   group that does not fold is its own task, so the pool balances them.
    ///
    /// Results are bitwise identical to calling [`forward`](Self::forward)
    /// per input: arm choice reads only a layer's height and width, and the
    /// packed GEMM accumulates every column independently, so no logit
    /// depends on its neighbours in the batch. The caller's
    /// [`rescnn_tensor::EngineContext`] (e.g. an algorithm override) is
    /// carried onto the worker threads.
    ///
    /// Memory: a folded group holds its tail input while its heads run, and
    /// its tail activations are N images wide, so a worker's arena and
    /// scratch pool grow past the single-image
    /// [`arena_plan`](Self::arena_plan); the fold rule does not bound that
    /// growth. ResNet-50 in groups of four holds five arena buffers per
    /// worker, 4.0 MiB at 112² and 9.6 MiB at 168² (also for a worker that
    /// serves both), plus about 6 MiB of scratch. Each executing thread's
    /// persistent arena keeps warm batches allocation-free.
    ///
    /// # Errors
    /// See [`Network::forward`]; the first failing input (in batch order) is
    /// reported.
    pub fn forward_batch(&self, inputs: &[Tensor]) -> Result<Vec<Tensor>> {
        let threads = num_threads();
        let mut tasks: Vec<(Range<usize>, Option<usize>)> = Vec::new();
        for group in batch_groups(inputs, threads) {
            match self.fold_block(inputs[group.start].shape(), group.len()) {
                Some(fold) => tasks.push((group, Some(fold))),
                None => tasks.extend(group.map(|index| (index..index + 1, None))),
            }
        }
        let mut logits = Vec::with_capacity(inputs.len());
        for outputs in parallel_map_indexed(tasks.len(), threads, |index| {
            let (range, fold) = &tasks[index];
            match *fold {
                Some(fold) => self.forward_group(&inputs[range.clone()], fold),
                None => Ok(vec![self.forward(&inputs[range.start])?]),
            }
        }) {
            logits.extend(outputs?);
        }
        Ok(logits)
    }

    /// The layer a group of `images` single-image inputs of shape `input`
    /// folds at in [`forward_batch`](Self::forward_batch), or `None` when it
    /// runs every image alone (one image, a multi-image input, or no block
    /// qualifies). The fold block is the first stage-entry block — a residual
    /// block whose shortcut projects, or an inverted block without a skip —
    /// such that
    ///
    /// * its per-image output map has at most [`FOLD_MAX_PIXELS`](Self::FOLD_MAX_PIXELS) pixels, and
    /// * from it on, every layer's input summed over the group fits in the
    ///   single-image forward's planned peak ([`ArenaPlan::peak_live_bytes`]).
    ///
    /// The second condition only stops large groups from folding early; it
    /// does not bound the folded forward's arena (see
    /// [`forward_batch`](Self::forward_batch)).
    pub fn fold_block(&self, input: Shape, images: usize) -> Option<usize> {
        if images < 2 || input.n != 1 {
            return None;
        }
        let budget = self.arena_plan(input).ok()?.peak_live_bytes;
        let shapes = self.lowering.block_shapes(input).ok()?;
        let mut fold = None;
        for (index, block) in self.lowering.blocks.iter().enumerate().rev() {
            if images * shapes[index].volume() * std::mem::size_of::<f32>() > budget {
                break;
            }
            let out = shapes[index + 1];
            if block.stage_entry && out.h * out.w <= Self::FOLD_MAX_PIXELS {
                fold = Some(index);
            }
        }
        fold
    }

    /// One group of equal-shape inputs folded at block `fold`: each image
    /// alone up to it, then the tail once over all of them (see
    /// [`forward_batch`](Self::forward_batch)).
    fn forward_group(&self, group: &[Tensor], fold: usize) -> Result<Vec<Tensor>> {
        self.check_input(&group[0])?;
        let image = self.lowering.block_shapes(group[0].shape())?[fold];
        let block = self.lowering.blocks[fold];
        let (head, tail) = self.lowering.ops.split_at(block.start);
        let logits = with_thread_arena(|arena| -> Result<Tensor> {
            let mut folded = arena.take(SLOTS, Shape::new(group.len(), image.c, image.h, image.w));
            let chunks = folded.as_mut_slice().chunks_exact_mut(image.volume());
            for (input, chunk) in group.iter().zip(chunks) {
                let mut slots = slots_with(0, Cursor::Borrowed(input));
                self.run_ops(head, &mut slots, arena)?;
                let x = slots[block.input].take().expect("a block's input is live");
                chunk.copy_from_slice(x.get().as_slice());
                x.retire(arena);
            }
            let mut slots = slots_with(block.input, Cursor::Owned(folded, SLOTS));
            self.run_ops(tail, &mut slots, arena)?;
            Ok(take_live(&mut slots, self.lowering.output))
        })?;
        let out = logits.shape();
        let per_image = Shape::new(1, out.c, out.h, out.w);
        logits
            .as_slice()
            .chunks_exact(per_image.volume())
            .map(|row| Ok(Tensor::from_vec(per_image, row.to_vec())?))
            .collect()
    }

    /// Runs [`forward_batch`](Self::forward_batch) and returns the arg-max class
    /// index per input.
    ///
    /// # Errors
    /// See [`Network::forward_batch`].
    pub fn predict_batch(&self, inputs: &[Tensor]) -> Result<Vec<usize>> {
        let logits = self.forward_batch(inputs)?;
        Ok(logits.into_iter().map(|l| l.argmax().unwrap_or(0)).collect())
    }
}

/// The reference interpreter: runs the op list with fresh tensors, `conv(i,
/// x)` standing in for convolution `i` (the hook int8 calibration observes
/// each input through), each residual added in a separate pass, and every
/// activation dropped at its retire op.
fn run_reference(
    lowering: &Lowering,
    linears: &[Linear],
    input: &Tensor,
    mut conv: impl FnMut(usize, &Tensor) -> Result<Tensor>,
) -> Result<Tensor> {
    let mut slots = slots_with(0, Cursor::Borrowed(input));
    for op in &lowering.ops {
        let x = live(&slots, op.input);
        let out = match op.kind {
            OpKind::Conv { conv: index, residual, act } => {
                let mut out = conv(index, x)?;
                if let Some(slot) = residual {
                    let residual = live(&slots, slot);
                    match act {
                        Activation::Relu => add_relu_in_place(&mut out, residual)?,
                        _ => {
                            debug_assert_eq!(act, Activation::None, "no block fuses ReLU6");
                            out.add_assign(residual)?;
                        }
                    }
                }
                out
            }
            OpKind::MaxPool(pool) => rescnn_tensor::max_pool2d(x, &pool)?,
            OpKind::GlobalAvgPool => rescnn_tensor::global_avg_pool(x),
            OpKind::Classifier(index) => {
                let linear = &linears[index];
                linear.output_shape(x)?;
                linear_prepared(x, &linear.weight, Some(&linear.bias))?
            }
            OpKind::Retire => {
                slots[op.input] = None;
                continue;
            }
        };
        slots[op.output] = Some(Cursor::Owned(out, op.output));
    }
    Ok(take_live(&mut slots, lowering.output))
}

/// Splits a batch into [`Network::forward_batch`]'s groups: one contiguous,
/// near-equal share per outer worker of
/// [`split_parallelism`](rescnn_tensor::split_parallelism), each cut further
/// into runs of equal input shape.
fn batch_groups(inputs: &[Tensor], threads: usize) -> Vec<Range<usize>> {
    let (outer, _) = rescnn_tensor::split_parallelism(inputs.len(), threads);
    let mut groups = Vec::new();
    for worker in 0..outer {
        let (lo, hi) = (worker * inputs.len() / outer, (worker + 1) * inputs.len() / outer);
        let mut start = lo;
        for index in lo + 1..=hi {
            if index == hi || inputs[index].shape() != inputs[start].shape() {
                groups.push(start..index);
                start = index;
            }
        }
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resnet18_forward_is_resolution_agnostic() {
        let net = Network::new(ModelKind::ResNet18, 5, 0);
        assert_eq!(net.kind(), ModelKind::ResNet18);
        assert_eq!(net.num_classes(), 5);
        assert!(net.num_layers() > 8);
        for res in [32usize, 56, 64] {
            let input = Tensor::random_uniform(Shape::chw(3, res, res), 1.0, 9);
            let logits = net.forward(&input).unwrap();
            assert_eq!(logits.shape(), Shape::new(1, 5, 1, 1));
            assert!(!logits.has_non_finite(), "non-finite logits at {res}");
        }
    }

    #[test]
    fn resnet50_and_mobilenet_forward_small_input() {
        let r50 = Network::new(ModelKind::ResNet50, 4, 1);
        let input = Tensor::random_uniform(Shape::chw(3, 32, 32), 1.0, 2);
        let out = r50.forward(&input).unwrap();
        assert_eq!(out.shape().c, 4);
        assert!(!out.has_non_finite());

        let mb2 = Network::new(ModelKind::MobileNetV2, 4, 1);
        let out = mb2.forward(&input).unwrap();
        assert_eq!(out.shape().c, 4);
        assert!(!out.has_non_finite());
    }

    #[test]
    fn forward_is_deterministic_per_seed() {
        let a = Network::new(ModelKind::ResNet18, 3, 7);
        let b = Network::new(ModelKind::ResNet18, 3, 7);
        let c = Network::new(ModelKind::ResNet18, 3, 8);
        let input = Tensor::random_uniform(Shape::chw(3, 40, 40), 1.0, 5);
        let out_a = a.forward(&input).unwrap();
        let out_b = b.forward(&input).unwrap();
        let out_c = c.forward(&input).unwrap();
        assert!(out_a.max_abs_diff(&out_b).unwrap() < 1e-6);
        assert!(out_a.max_abs_diff(&out_c).unwrap() > 1e-6);
    }

    #[test]
    fn prepared_forward_matches_reference_bitwise() {
        // The tentpole contract: prepacked weights + fused epilogues + arena
        // execution must be bitwise identical to the PR-4-era reference path,
        // for every block family (basic, bottleneck, inverted residual).
        for kind in [ModelKind::ResNet18, ModelKind::ResNet50, ModelKind::MobileNetV2] {
            let net = Network::new(kind, 4, 13);
            let input = Tensor::random_uniform(Shape::chw(3, 48, 48), 1.0, 3);
            let fast = net.forward(&input).unwrap();
            let reference = net.forward_reference(&input).unwrap();
            assert_eq!(
                fast.as_slice(),
                reference.as_slice(),
                "{kind} prepared forward diverged from the reference path"
            );
            // Repeat (warm arena) must also be identical.
            let again = net.forward(&input).unwrap();
            assert_eq!(fast.as_slice(), again.as_slice());
        }
    }

    #[test]
    fn arena_plan_shapes_are_sane() {
        let net = Network::new(ModelKind::ResNet18, 5, 2);
        let plan = net.arena_plan(Shape::chw(3, 64, 64)).unwrap();
        assert!(!plan.buffer_elems.is_empty());
        assert!(plan.arena_bytes() > 0);
        assert!(plan.peak_live_bytes > 0);
        // One buffer per slot keeps the buffer count far below the layer count.
        assert!(
            plan.buffer_elems.len() < net.num_layers(),
            "{} buffers for {} layers",
            plan.buffer_elems.len(),
            net.num_layers()
        );
        // A larger resolution plans a strictly larger arena.
        let large = net.arena_plan(Shape::chw(3, 128, 128)).unwrap();
        assert!(large.arena_bytes() > plan.arena_bytes());
        assert!(net.arena_plan(Shape::chw(3, 0, 0)).is_err());
    }

    #[test]
    fn batched_forward_matches_per_sample_bitwise() {
        let net = Network::new(ModelKind::ResNet18, 4, 11);
        // Mixed-resolution batch, larger than typical thread counts so the outer
        // (sample-parallel) path is exercised on multi-core hosts.
        let inputs: Vec<Tensor> = [24usize, 32, 40, 24, 56, 32, 48, 40, 24, 32]
            .iter()
            .enumerate()
            .map(|(i, &res)| Tensor::random_uniform(Shape::chw(3, res, res), 1.0, i as u64))
            .collect();
        let batched = net.forward_batch(&inputs).unwrap();
        assert_eq!(batched.len(), inputs.len());
        for (input, batched_logits) in inputs.iter().zip(&batched) {
            let solo = net.forward(input).unwrap();
            assert_eq!(
                solo.as_slice(),
                batched_logits.as_slice(),
                "batched forward must be bitwise identical to per-sample forward"
            );
        }
        let classes = net.predict_batch(&inputs).unwrap();
        assert_eq!(classes.len(), inputs.len());
        assert!(classes.iter().all(|&c| c < 4));
    }

    #[test]
    fn batched_forward_carries_caller_context_to_workers() {
        use rescnn_tensor::{ConvAlgo, EngineContext};
        // Regression: the outer (pool-worker) path used to rebuild the task
        // context from scratch, silently dropping a caller-installed algorithm
        // override for samples that landed on worker threads.
        // Groups of two fold their tails, so the override must also reach the
        // folded (N-image) layers, whichever arm it names — int8 included,
        // whose uncalibrated activation range is scanned per image.
        let net = Network::new(ModelKind::ResNet18, 3, 5);
        let inputs: Vec<Tensor> =
            (0..6).map(|i| Tensor::random_uniform(Shape::chw(3, 24, 24), 1.0, i as u64)).collect();
        assert!(net.fold_block(inputs[0].shape(), 2).is_some());
        for algo in [ConvAlgo::Direct, ConvAlgo::Im2colPacked, ConvAlgo::Winograd, ConvAlgo::Int8] {
            let context = EngineContext::new().with_threads(3).with_algo(algo);
            let expected: Vec<Tensor> =
                context.scope(|| inputs.iter().map(|x| net.forward(x).unwrap()).collect());
            let batched = context.scope(|| net.forward_batch(&inputs).unwrap());
            for (solo, batch) in expected.iter().zip(&batched) {
                assert_eq!(
                    solo.as_slice(),
                    batch.as_slice(),
                    "caller context ({algo}) must apply identically on every batch slot"
                );
            }
        }
    }

    #[test]
    fn batched_forward_reports_first_bad_input() {
        let net = Network::new(ModelKind::ResNet18, 3, 0);
        let inputs = vec![
            Tensor::random_uniform(Shape::chw(3, 32, 32), 1.0, 1),
            Tensor::random_uniform(Shape::chw(1, 32, 32), 1.0, 2),
        ];
        assert!(net.forward_batch(&inputs).is_err());
        assert!(net.forward_batch(&[]).unwrap().is_empty());
    }

    #[test]
    fn probabilities_and_class_prediction() {
        let net = Network::new(ModelKind::ResNet18, 6, 2);
        let input = Tensor::random_uniform(Shape::chw(3, 48, 48), 1.0, 3);
        let probs = net.predict_probabilities(&input).unwrap();
        let sum: f32 = probs.as_slice().iter().sum();
        assert!((sum - 1.0).abs() < 1e-4);
        let class = net.predict_class(&input).unwrap();
        assert!(class < 6);
    }

    #[test]
    fn winograd_forward_matches_default_within_tolerance() {
        use rescnn_tensor::EngineContext;
        // Forcing the Winograd arm routes every dense stride-1 3×3 layer through
        // the cached filter-transform path (with fused bias + activation);
        // ineligible shapes keep their engine fast paths. Winograd reassociates
        // arithmetic, so the contract is elementwise tolerance, not bitwise
        // equality — and the cache must make repeat passes identical.
        let net = Network::new(ModelKind::ResNet18, 5, 21);
        let input = Tensor::random_uniform(Shape::chw(3, 64, 64), 1.0, 4);
        let default_out = net.forward(&input).unwrap();
        let wino_context = EngineContext::new().with_algo(ConvAlgo::Winograd);
        let wino_out = wino_context.scope(|| net.forward(&input).unwrap());
        assert!(
            default_out.max_abs_diff(&wino_out).unwrap() < 1e-2,
            "winograd forward drifted: {}",
            default_out.max_abs_diff(&wino_out).unwrap()
        );
        let wino_again = wino_context.scope(|| net.forward(&input).unwrap());
        assert_eq!(
            wino_out.as_slice(),
            wino_again.as_slice(),
            "cached filter transforms must make repeat winograd passes bitwise identical"
        );
    }

    #[test]
    fn wrong_channel_count_is_rejected() {
        let net = Network::new(ModelKind::ResNet18, 3, 0);
        let input = Tensor::zeros(Shape::chw(1, 64, 64));
        assert!(matches!(net.forward(&input), Err(ModelError::BadInput { .. })));
        assert!(matches!(net.forward_reference(&input), Err(ModelError::BadInput { .. })));
    }

    #[test]
    fn degenerate_small_input_still_produces_logits() {
        // Padding plus global average pooling make the networks tolerant of absurdly small
        // inputs; the result is meaningless but must be well-formed and finite.
        let net = Network::new(ModelKind::ResNet50, 3, 0);
        let input = Tensor::zeros(Shape::chw(3, 2, 2));
        let out = net.forward(&input).unwrap();
        assert_eq!(out.shape().c, 3);
        assert!(!out.has_non_finite());
    }
}
