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
//! * runs entirely on views of a reusable [`ActivationArena`] (per thread,
//!   persistent on the engine's worker pool), so warm forwards perform **zero
//!   heap allocations** for activations and packing — pinned by
//!   `rescnn_tensor::scratch::heap_allocations` in `tests/prepacked_forward.rs`
//!   — and zero-fill no activation memory.
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
//! # Arms
//!
//! Which arm a convolution runs on is a pure function of the forward's
//! [`EngineContext`] pin, the network's own measured table
//! ([`Network::with_arms`]) and the layer shape, resolved in that order by
//! [`Network::conv_arm`]; no process-wide state enters it. Both forwards
//! resolve every convolution through it and run it with
//! [`PreparedLayer::forward_with_algo_into`], so `forward == forward_reference`
//! and folded batches == per-image forwards hold under a table too.
//!
//! A [`Network`] keeps its architecture's [`Lowering`] next to one prepared
//! convolution per lowered one. The arena forward (and both halves of a
//! folded batch) and the reference forward (int8 calibration is its hook)
//! interpret that op list. In the arena forward each op writes a
//! [`TensorViewMut`] over the front of its output slot's buffer and reads
//! [`TensorView`]s of the caller's input or other slots; a retire only
//! accounts its activation dead. So the arena grows to
//! [`Network::arena_plan`] — the largest activation each slot holds — by
//! construction. The logits are a fresh tensor the caller owns.

use std::borrow::Cow;
use std::ops::Range;
use std::sync::Arc;

use rescnn_tensor::parallel::parallel_map_indexed;
use rescnn_tensor::{
    add_relu_in_place, conv2d_with_algo, global_avg_pool_into, linear_prepared,
    linear_prepared_into, max_pool2d_into, num_threads, relu6_in_place, relu_in_place, select_algo,
    softmax, with_thread_arena, ActivationArena, AlgoCalibration, ArenaReads, Conv2dParams,
    ConvAlgo, ConvEpilogue, EngineContext, FusedActivation, PreparedGemmB, PreparedLayer, Shape,
    Tensor, TensorView, TensorViewMut,
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

    /// Prepared forward into `out` on the arm [`conv_arm`] resolves, with an
    /// explicit fused tail (block tails pass the post-residual activation;
    /// the layer's own activation is `None` there).
    fn forward_tail(
        &self,
        arms: Option<&AlgoCalibration>,
        input: TensorView<'_>,
        residual: Option<TensorView<'_>>,
        activation: FusedActivation,
        out: TensorViewMut<'_>,
    ) -> Result<()> {
        // A fused tail *replaces* the layer's own activation, which is only
        // sound while tail convolutions are built with `Activation::None` (as
        // every shipped block family is) — otherwise the reference path would
        // apply the layer activation before the residual add and diverge.
        debug_assert!(
            activation == self.act.fused() || matches!(self.act, Activation::None),
            "fused tail would drop this layer's own activation"
        );
        let algo = conv_arm(arms, self.prepared.params(), input.shape());
        let epilogue = ConvEpilogue { activation, residual };
        self.prepared.forward_with_algo_into(input, algo, epilogue, out)?;
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
    fn forward_reference(&self, arms: Option<&AlgoCalibration>, input: &Tensor) -> Result<Tensor> {
        let params = self.prepared.params();
        let algo = conv_arm(arms, params, input.shape());
        if matches!(algo, ConvAlgo::Winograd | ConvAlgo::WinogradF4 | ConvAlgo::Int8) {
            // These arms read the prepared layer's cached banks and int8's
            // calibration-recorded activation range, as the hot path does, or
            // the two would disagree bitwise whenever a range is recorded.
            let mut out = Tensor::zeros(params.output_shape(input.shape())?);
            let epilogue = ConvEpilogue::activation(self.act.fused());
            self.prepared.forward_with_algo_into(input, algo, epilogue, &mut out)?;
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

/// The arm a convolution of `params` on `input` runs on: the innermost
/// [`EngineContext`] pin when it can execute the shape, then the entry of the
/// network's table `arms` when its arm can, then [`select_algo`]'s rule.
fn conv_arm(arms: Option<&AlgoCalibration>, params: &Conv2dParams, input: Shape) -> ConvAlgo {
    EngineContext::current()
        .algo
        .filter(|algo| algo.supports(params))
        .or_else(|| arms?.arm(params, input))
        .unwrap_or_else(|| select_algo(params, input))
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
    fn output_shape(&self, shape: Shape) -> Result<Shape> {
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

/// What a slot of the arena interpreter holds: the caller's borrowed input
/// (no per-request clone), or the activation in an arena buffer.
#[derive(Clone, Copy)]
enum Live<'a> {
    Input(TensorView<'a>),
    Buffer(usize, Shape),
}

impl<'a> Live<'a> {
    fn shape(self) -> Shape {
        match self {
            Live::Input(x) => x.shape(),
            Live::Buffer(_, shape) => shape,
        }
    }

    fn view(self, reads: ArenaReads<'a>) -> TensorView<'a> {
        match self {
            Live::Input(x) => x,
            Live::Buffer(buffer, shape) => reads.view(buffer, shape),
        }
    }

    /// Accounts the activation dead; the caller's input is not the arena's.
    fn retire(self, arena: &mut ActivationArena) {
        if let Live::Buffer(buffer, _) = self {
            arena.release(buffer);
        }
    }
}

/// An interpreter's slot table ([`SLOTS`] activations; see [`Lowering`]).
type Slots<T> = [Option<T>; SLOTS];

/// A slot table holding `input` in slot `slot`.
fn slots_with<T>(slot: usize, input: T) -> Slots<T> {
    let mut slots: Slots<T> = Default::default();
    slots[slot] = Some(input);
    slots
}

/// The activation in a slot the op list reads.
fn live<T>(slots: &Slots<T>, slot: usize) -> &T {
    slots[slot].as_ref().expect("the op list reads a live slot")
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
    /// Measured arms per layer shape ([`with_arms`](Self::with_arms)), shared
    /// by clones.
    arms: Option<Arc<AlgoCalibration>>,
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
        Network {
            kind: arch.kind,
            lowering,
            convs,
            linears,
            num_classes: arch.num_classes,
            arms: None,
        }
    }

    /// The network with a measured table of arms (e.g.
    /// `rescnn_hwsim::CalibratedCostModel::dispatch_table`): every
    /// convolution whose exact shape the table lists runs on the listed arm
    /// when that arm can execute it, beneath an [`EngineContext`] pin and
    /// above [`select_algo`]'s rule (see [`conv_arm`](Self::conv_arm)). The
    /// table belongs to this value and its clones, not to the process.
    pub fn with_arms(mut self, arms: AlgoCalibration) -> Self {
        self.arms = Some(Arc::new(arms));
        self
    }

    /// The arm this network runs a convolution of `params` on `input` with,
    /// in the calling thread's [`EngineContext`]: the scope's pin when it can
    /// execute the shape, then this network's measured table
    /// ([`with_arms`](Self::with_arms)) when its entry can, then
    /// [`select_algo`].
    pub fn conv_arm(&self, params: &Conv2dParams, input: Shape) -> ConvAlgo {
        conv_arm(self.arms.as_deref(), params, input)
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
        let mut slots = slots_with(0, Live::Input(input.into()));
        let logits = self.run_ops(&self.lowering.ops, &mut slots, arena)?;
        Ok(self.result(logits, &slots, arena))
    }

    /// The arena interpreter: runs `ops` over the activations in `slots` (one
    /// image or a batch of them), writing each op's output through a view of
    /// the arena buffer of its output slot and reading its operands as views;
    /// a retire only accounts its activation dead. Returns the classifier's
    /// logits when `ops` run it.
    fn run_ops<'a>(
        &self,
        ops: &[Op],
        slots: &mut Slots<Live<'a>>,
        arena: &mut ActivationArena,
    ) -> Result<Option<Tensor>> {
        let mut logits = None;
        for op in ops {
            let x = *live(slots, op.input);
            let shape = match op.kind {
                OpKind::Conv { conv, residual, act } => {
                    let conv = &self.convs[conv];
                    let shape = conv.prepared.params().output_shape(x.shape())?;
                    let (out, reads) = arena.write(op.output, shape);
                    let residual = residual.map(|slot| live(slots, slot).view(reads));
                    let arms = self.arms.as_deref();
                    conv.forward_tail(arms, x.view(reads), residual, act.fused(), out)?;
                    shape
                }
                OpKind::MaxPool(pool) => {
                    let shape = pool.output_shape(x.shape())?;
                    let (out, reads) = arena.write(op.output, shape);
                    max_pool2d_into(x.view(reads), &pool, out)?;
                    shape
                }
                OpKind::GlobalAvgPool => {
                    let shape = Shape::new(x.shape().n, x.shape().c, 1, 1);
                    let (out, reads) = arena.write(op.output, shape);
                    global_avg_pool_into(x.view(reads), out)?;
                    shape
                }
                OpKind::Classifier(index) => {
                    let linear = &self.linears[index];
                    // The logits leave the forward (caller owns them), so they are
                    // a fresh — tiny — allocation rather than an arena buffer.
                    let mut out = Tensor::zeros(linear.output_shape(x.shape())?);
                    let x = x.view(arena.reads());
                    linear_prepared_into(x, &linear.weight, Some(&linear.bias), &mut out)?;
                    logits = Some(out);
                    continue;
                }
                OpKind::Retire => {
                    if let Some(dead) = slots[op.input].take() {
                        dead.retire(arena);
                    }
                    continue;
                }
            };
            slots[op.output] = Some(Live::Buffer(op.output, shape));
        }
        Ok(logits)
    }

    /// A forward's result: the classifier's logits, or a copy of what an
    /// architecture without one leaves in its output slot.
    fn result(
        &self,
        logits: Option<Tensor>,
        slots: &Slots<Live<'_>>,
        arena: &ActivationArena,
    ) -> Tensor {
        logits.unwrap_or_else(|| {
            let out = live(slots, self.lowering.output).view(arena.reads());
            Tensor::from_vec(out.shape(), out.as_slice().to_vec()).expect("a view holds its volume")
        })
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
            self.convs[conv].forward_reference(self.arms.as_deref(), x)
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
        let (arms, convs) = (self.arms.as_deref(), &mut self.convs);
        run_reference(&self.lowering, &self.linears, input, |conv, x| {
            convs[conv].observe_int8_range(x);
            convs[conv].forward_reference(arms, x)
        })?;
        Ok(())
    }

    /// Plans the activation-arena footprint of a forward pass at one input
    /// shape: the size each slot's buffer grows to in
    /// [`forward_with_arena`](Self::forward_with_arena) plus the peak
    /// live-activation bytes, from the same op list (see
    /// [`ArchSpec::arena_plan`]). The plan depends only on the
    /// architecture and the input shape — not on the thread budget or the
    /// dispatch state — because the op list fixes every write and retire
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
    ///   activation (the arena buffer after the lowered slots' ones), and the
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
        let folded = Shape::new(group.len(), image.c, image.h, image.w);
        let logits = with_thread_arena(|arena| -> Result<Tensor> {
            // The fold buffer is live from before the first head runs.
            arena.write(SLOTS, folded);
            for (index, input) in group.iter().enumerate() {
                let mut slots = slots_with(0, Live::Input(input.into()));
                self.run_ops(head, &mut slots, arena)?;
                let x = slots[block.input].take().expect("a block's input is live");
                let (mut out, reads) = arena.write(SLOTS, folded);
                let chunk = &mut out.as_mut_slice()[index * image.volume()..][..image.volume()];
                chunk.copy_from_slice(x.view(reads).as_slice());
                x.retire(arena);
            }
            let mut slots = slots_with(block.input, Live::Buffer(SLOTS, folded));
            let logits = self.run_ops(tail, &mut slots, arena)?;
            Ok(self.result(logits, &slots, arena))
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
    let mut slots = slots_with(0, Cow::Borrowed(input));
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
                linear.output_shape(x.shape())?;
                linear_prepared(x, &linear.weight, Some(&linear.bias))?
            }
            OpKind::Retire => {
                slots[op.input] = None;
                continue;
            }
        };
        slots[op.output] = Some(Cow::Owned(out));
    }
    Ok(slots[lowering.output].take().expect("the op list leaves its output live").into_owned())
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
    fn conv_arm_takes_the_pin_then_the_table_then_the_rule() {
        use rescnn_tensor::ConvShapeKey;
        let dense = Conv2dParams::new(16, 16, 3, 1, 1);
        let pointwise = Conv2dParams::new(16, 16, 1, 1, 0);
        let (listed, unlisted) = (Shape::chw(16, 32, 32), Shape::chw(16, 40, 40));
        let mut table = AlgoCalibration::new();
        table.set(ConvShapeKey::new(dense, listed), ConvAlgo::Winograd);
        // An entry whose arm cannot execute its shape is ignored.
        table.set(ConvShapeKey::new(pointwise, listed), ConvAlgo::Depthwise);
        let plain = Network::new(ModelKind::ResNet18, 3, 0);
        // Clones share the table.
        let tabled = plain.clone().with_arms(table).clone();
        assert_eq!(plain.conv_arm(&dense, listed), ConvAlgo::WinogradF4);
        assert_eq!(tabled.conv_arm(&dense, listed), ConvAlgo::Winograd);
        assert_eq!(select_algo(&dense, listed), ConvAlgo::WinogradF4, "no table moves the rule");
        assert_eq!(tabled.conv_arm(&dense, unlisted), select_algo(&dense, unlisted));
        assert_eq!(tabled.conv_arm(&pointwise, listed), ConvAlgo::Gemm1x1);
        // A pin beats the table; a pin that cannot execute the shape does not.
        let pinned =
            |algo| EngineContext::new().with_algo(algo).scope(|| tabled.conv_arm(&dense, listed));
        assert_eq!(pinned(ConvAlgo::Im2colPacked), ConvAlgo::Im2colPacked);
        assert_eq!(pinned(ConvAlgo::Gemm1x1), ConvAlgo::Winograd);
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
