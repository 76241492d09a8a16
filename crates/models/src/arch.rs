//! Symbolic architecture descriptions.
//!
//! The experiment harness needs to reason about models *without* instantiating weights:
//! per-resolution FLOP counts (Table I, Figures 8/9), the list of convolution layer shapes
//! to feed the kernel cost model and autotuner (Figure 7, Table II), and parameter counts.
//! [`ArchSpec`] provides exactly that; the executable counterpart lives in
//! [`crate::nn`].
//!
//! [`ArchSpec::lower`] is the one place a block family expands into
//! convolutions. Its shape-free [`Lowering`] holds the convolutions in
//! construction order, a flat op list in execution order over [`SLOTS`]
//! activation slots, and each block's first op. Every consumer interprets
//! that list: the shape walk behind `conv_layers`, `flops` and
//! `final_spatial`, the weight-free [`ArchSpec::arena_plan`], and, in
//! [`crate::nn`], construction, both forwards and batch folding.

use serde::{Deserialize, Serialize};

use rescnn_tensor::{ActivationArena, Conv2dParams, Pool2dParams, Shape, TensorError};

use crate::error::{ModelError, Result};

/// The model families used in the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModelKind {
    /// ResNet-18 backbone.
    ResNet18,
    /// ResNet-50 backbone.
    ResNet50,
    /// MobileNetV2, used as the lightweight scale model.
    MobileNetV2,
}

impl ModelKind {
    /// All model kinds.
    pub const ALL: [ModelKind; 3] =
        [ModelKind::ResNet18, ModelKind::ResNet50, ModelKind::MobileNetV2];

    /// Human-readable name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            ModelKind::ResNet18 => "ResNet-18",
            ModelKind::ResNet50 => "ResNet-50",
            ModelKind::MobileNetV2 => "MobileNetV2",
        }
    }

    /// Builds the symbolic architecture with the given number of output classes.
    pub fn arch(&self, num_classes: usize) -> ArchSpec {
        match self {
            ModelKind::ResNet18 => resnet18_arch(num_classes),
            ModelKind::ResNet50 => resnet50_arch(num_classes),
            ModelKind::MobileNetV2 => mobilenet_v2_arch(num_classes),
        }
    }
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Activation applied after a convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Activation {
    /// No activation (linear).
    None,
    /// Standard ReLU.
    Relu,
    /// ReLU clamped at 6 (MobileNet convention).
    Relu6,
}

/// One block of a network, at the granularity the original architectures are described in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BlockSpec {
    /// A plain convolution + batch-norm + activation.
    ConvBnAct {
        /// Convolution parameters.
        params: Conv2dParams,
        /// Post-convolution activation.
        act: Activation,
    },
    /// Max pooling.
    MaxPool(Pool2dParams),
    /// ResNet basic block: two 3×3 convolutions with an identity (or 1×1 projection) skip.
    BasicBlock {
        /// Input channels.
        in_ch: usize,
        /// Output channels.
        out_ch: usize,
        /// Stride of the first convolution.
        stride: usize,
    },
    /// ResNet bottleneck block: 1×1 reduce, 3×3, 1×1 expand with a skip connection.
    Bottleneck {
        /// Input channels.
        in_ch: usize,
        /// Mid (bottleneck) channels.
        mid_ch: usize,
        /// Output channels (`4 × mid_ch` in standard ResNets).
        out_ch: usize,
        /// Stride of the 3×3 convolution.
        stride: usize,
    },
    /// MobileNetV2 inverted residual: 1×1 expand, 3×3 depthwise, 1×1 project.
    InvertedResidual {
        /// Input channels.
        in_ch: usize,
        /// Output channels.
        out_ch: usize,
        /// Stride of the depthwise convolution.
        stride: usize,
        /// Expansion factor.
        expand: usize,
    },
    /// Global average pooling over the spatial dimensions.
    GlobalAvgPool,
    /// Final fully-connected classifier.
    Classifier {
        /// Input feature count.
        in_features: usize,
        /// Number of classes.
        num_classes: usize,
    },
}

/// The shape of one convolution layer instantiated at a concrete resolution; the unit of
/// work the kernel cost model and autotuner operate on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ConvLayerShape {
    /// Convolution parameters.
    pub params: Conv2dParams,
    /// Input activation shape (batch 1).
    pub input: Shape,
}

impl ConvLayerShape {
    /// MACs for this layer.
    pub fn macs(&self) -> u64 {
        self.params.macs(self.input).unwrap_or(0)
    }

    /// FLOPs for this layer, using the paper's convention (Table I) of counting one
    /// multiply–accumulate as one FLOP.
    pub fn flops(&self) -> u64 {
        self.macs()
    }
}

/// A full symbolic architecture.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArchSpec {
    /// Model family this spec was generated from.
    pub kind: ModelKind,
    /// Ordered blocks.
    pub blocks: Vec<BlockSpec>,
    /// Number of output classes.
    pub num_classes: usize,
}

impl ArchSpec {
    /// Every convolution layer at a square input resolution with its concrete input
    /// shape, in construction order: per residual block `conv1, conv2, [conv3],
    /// downsample`, per inverted block `expand, depthwise, project`.
    ///
    /// # Errors
    /// Returns [`ModelError::ResolutionTooSmall`] if the resolution collapses to zero
    /// spatial extent anywhere in the network.
    pub fn conv_layers(&self, resolution: usize) -> Result<Vec<ConvLayerShape>> {
        let lowering = self.lower();
        let mut layers = vec![None; lowering.convs.len()];
        self.walk_at(&lowering, resolution, |op, input, _| {
            if let OpKind::Conv { conv, .. } = op.kind {
                layers[conv] = Some(ConvLayerShape { params: lowering.convs[conv].params, input });
            }
        })?;
        Ok(layers.into_iter().flatten().collect())
    }

    /// Total FLOPs of convolution and linear layers at a resolution, using the paper's
    /// convention (Table I) of counting one multiply–accumulate as one FLOP.
    ///
    /// # Errors
    /// Returns an error if the resolution is too small for the architecture.
    pub fn flops(&self, resolution: usize) -> Result<u64> {
        let conv: u64 = self.conv_layers(resolution)?.iter().map(ConvLayerShape::flops).sum();
        // A linear layer at batch 1 performs one MAC per weight.
        Ok(conv + self.lower().linears.iter().map(LoweredLinear::weight_count).sum::<u64>())
    }

    /// Total FLOPs expressed in GFLOPs.
    ///
    /// # Errors
    /// Returns an error if the resolution is too small for the architecture.
    pub fn gflops(&self, resolution: usize) -> Result<f64> {
        Ok(self.flops(resolution)? as f64 / 1e9)
    }

    /// Number of learnable parameters in convolution and linear layers (batch-norm
    /// parameters excluded; they are a rounding error at this scale).
    pub fn param_count(&self) -> u64 {
        let lowering = self.lower();
        let conv: u64 = lowering.convs.iter().map(|c| c.params.weight_count() as u64).sum();
        conv + lowering.linears.iter().map(LoweredLinear::weight_count).sum::<u64>()
    }

    /// Spatial extent of the feature map entering global average pooling at a resolution.
    ///
    /// # Errors
    /// Returns an error if the resolution is too small for the architecture.
    pub fn final_spatial(&self, resolution: usize) -> Result<usize> {
        let mut pooled = None;
        let output = self.walk_at(&self.lower(), resolution, |op, input, _| {
            if op.kind == OpKind::GlobalAvgPool {
                pooled.get_or_insert(input.h);
            }
        })?;
        Ok(pooled.unwrap_or(output.h))
    }

    /// The activation-arena plan of a forward pass at `input`, from the
    /// architecture alone: [`Network::arena_plan`](crate::Network::arena_plan)
    /// returns the same plan without reading a weight.
    ///
    /// # Errors
    /// Returns [`ModelError::ResolutionTooSmall`] if the input collapses to zero
    /// spatial extent anywhere in the network.
    pub fn arena_plan(&self, input: Shape) -> Result<ArenaPlan> {
        self.lower().arena_plan(input).map_err(|_| self.too_small(input.h))
    }

    fn too_small(&self, resolution: usize) -> ModelError {
        ModelError::ResolutionTooSmall { resolution, model: self.kind.name() }
    }

    /// [`Lowering::walk`] over a square batch-1 input at `resolution`.
    fn walk_at(
        &self,
        lowering: &Lowering,
        resolution: usize,
        visit: impl FnMut(&Op, Shape, Shape),
    ) -> Result<Shape> {
        if resolution == 0 {
            return Err(self.too_small(resolution));
        }
        lowering
            .walk(Shape::chw(3, resolution, resolution), visit)
            .map_err(|_| self.too_small(resolution))
    }

    /// Lowers the architecture to its op list: the one place that says which
    /// convolutions each block family holds, in what order they are built and
    /// in what order they run, and when each activation dies.
    pub(crate) fn lower(&self) -> Lowering {
        let mut l = Lowerer { out: Lowering::default(), live: [true, false, false, false] };
        let mut channels = 3;
        for block in &self.blocks {
            let (start, x) = (l.out.ops.len(), l.out.output);
            let mut stage_entry = false;
            let out = match *block {
                BlockSpec::ConvBnAct { params, act } => {
                    channels = params.out_channels;
                    let conv = l.declare(params, act);
                    l.conv(conv, x)
                }
                BlockSpec::MaxPool(pool) => l.op(OpKind::MaxPool(pool), x),
                BlockSpec::BasicBlock { in_ch, out_ch, stride } => {
                    debug_assert_eq!(in_ch, channels, "block wiring mismatch");
                    channels = out_ch;
                    let conv1 = l.dense(in_ch, out_ch, 3, stride, Activation::Relu);
                    let conv2 = l.dense(out_ch, out_ch, 3, 1, Activation::None);
                    let downsample = l.projection(in_ch, out_ch, stride);
                    stage_entry = downsample.is_some();
                    let a = l.conv(conv1, x);
                    let out = l.residual_tail(conv2, a, x, downsample);
                    l.retire(a);
                    out
                }
                BlockSpec::Bottleneck { in_ch, mid_ch, out_ch, stride } => {
                    debug_assert_eq!(in_ch, channels, "block wiring mismatch");
                    channels = out_ch;
                    let conv1 = l.dense(in_ch, mid_ch, 1, 1, Activation::Relu);
                    let conv2 = l.dense(mid_ch, mid_ch, 3, stride, Activation::Relu);
                    let conv3 = l.dense(mid_ch, out_ch, 1, 1, Activation::None);
                    let downsample = l.projection(in_ch, out_ch, stride);
                    stage_entry = downsample.is_some();
                    let a = l.conv(conv1, x);
                    let b = l.conv(conv2, a);
                    l.retire(a);
                    let out = l.residual_tail(conv3, b, x, downsample);
                    l.retire(b);
                    out
                }
                BlockSpec::InvertedResidual { in_ch, out_ch, stride, expand } => {
                    debug_assert_eq!(in_ch, channels, "block wiring mismatch");
                    channels = out_ch;
                    let hidden = in_ch * expand;
                    let expand =
                        (expand != 1).then(|| l.dense(in_ch, hidden, 1, 1, Activation::Relu6));
                    let depthwise =
                        l.declare(Conv2dParams::depthwise(hidden, 3, stride, 1), Activation::Relu6);
                    let project = l.dense(hidden, out_ch, 1, 1, Activation::None);
                    let t = match expand {
                        Some(expand) => {
                            let h = l.conv(expand, x);
                            let t = l.conv(depthwise, h);
                            l.retire(h);
                            t
                        }
                        None => l.conv(depthwise, x),
                    };
                    stage_entry = stride != 1 || in_ch != out_ch;
                    let out = if stage_entry {
                        l.conv(project, t)
                    } else {
                        l.tail(project, t, x, Activation::None)
                    };
                    l.retire(t);
                    out
                }
                BlockSpec::GlobalAvgPool => l.op(OpKind::GlobalAvgPool, x),
                BlockSpec::Classifier { in_features, num_classes } => {
                    debug_assert_eq!(in_features, channels, "classifier wiring mismatch");
                    channels = num_classes;
                    l.out.linears.push(LoweredLinear { in_features, num_classes });
                    l.op(OpKind::Classifier(l.out.linears.len() - 1), x)
                }
            };
            l.retire(x);
            l.out.output = out;
            l.out.blocks.push(LoweredBlock { start, input: x, stage_entry });
        }
        l.out
    }
}

/// Activation slots a lowered network uses: a block's input plus at most
/// three activations it holds at once (a bottleneck's `b`, `skip` and `out`).
pub(crate) const SLOTS: usize = 4;

/// One convolution of a lowered network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LoweredConv {
    pub(crate) params: Conv2dParams,
    /// The layer's own activation: `None` on a block tail, whose op fuses the
    /// post-residual activation instead.
    pub(crate) act: Activation,
}

/// One linear classifier of a lowered network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LoweredLinear {
    pub(crate) in_features: usize,
    pub(crate) num_classes: usize,
}

impl LoweredLinear {
    fn weight_count(&self) -> u64 {
        (self.in_features * self.num_classes) as u64
    }
}

/// What one op does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OpKind {
    /// Convolution `conv` of [`Lowering::convs`]: `act(conv(x) + residual)`
    /// with a residual slot, `act(conv(x))` without.
    Conv { conv: usize, residual: Option<usize>, act: Activation },
    /// Max pooling.
    MaxPool(Pool2dParams),
    /// Global average pooling.
    GlobalAvgPool,
    /// Classifier `linear` of [`Lowering::linears`]; its logits are not an
    /// arena buffer.
    Classifier(usize),
    /// The slot's activation is dead: an owned one goes back to the arena.
    Retire,
}

/// One step of a lowered network: `kind` reads slot `input` and writes slot
/// `output`; a retire names its slot twice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Op {
    pub(crate) kind: OpKind,
    pub(crate) input: usize,
    pub(crate) output: usize,
}

/// Where one [`BlockSpec`] starts in [`Lowering::ops`]; its first op reads
/// its input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LoweredBlock {
    pub(crate) start: usize,
    /// Slot holding the block's input.
    pub(crate) input: usize,
    /// A residual block whose shortcut projects, or an inverted block
    /// without a skip: the block opens a stage.
    pub(crate) stage_entry: bool,
}

/// An architecture lowered to a shape-free op list ([`ArchSpec::lower`]):
/// convolutions in construction order, ops in execution order, and the op
/// index each block starts at. The network input starts in slot 0 and the
/// output ends in slot `output`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Lowering {
    pub(crate) convs: Vec<LoweredConv>,
    pub(crate) linears: Vec<LoweredLinear>,
    pub(crate) ops: Vec<Op>,
    pub(crate) blocks: Vec<LoweredBlock>,
    pub(crate) output: usize,
}

impl Lowering {
    /// The shape interpreter: propagates `input` through the ops, calling
    /// `visit(op, op_input, op_output)` on each, and returns the output shape.
    pub(crate) fn walk(
        &self,
        input: Shape,
        mut visit: impl FnMut(&Op, Shape, Shape),
    ) -> std::result::Result<Shape, TensorError> {
        let mut slots = [input; SLOTS];
        for op in &self.ops {
            let x = slots[op.input];
            let out = match op.kind {
                OpKind::Conv { conv, .. } => self.convs[conv].params.output_shape(x)?,
                OpKind::MaxPool(pool) => pool.output_shape(x)?,
                OpKind::GlobalAvgPool => Shape::new(x.n, x.c, 1, 1),
                OpKind::Classifier(linear) => {
                    Shape::new(x.n, self.linears[linear].num_classes, 1, 1)
                }
                OpKind::Retire => x,
            };
            visit(op, x, out);
            slots[op.output] = out;
        }
        Ok(slots[self.output])
    }

    /// Each block's input shape at `input`, then the network's output shape.
    pub(crate) fn block_shapes(
        &self,
        input: Shape,
    ) -> std::result::Result<Vec<Shape>, TensorError> {
        let mut shapes = Vec::with_capacity(self.blocks.len() + 1);
        let mut starts = self.blocks.iter().map(|block| block.start).peekable();
        let mut index = 0;
        let output = self.walk(input, |_, x, _| {
            if starts.next_if_eq(&index).is_some() {
                shapes.push(x);
            }
            index += 1;
        })?;
        shapes.push(output);
        Ok(shapes)
    }

    /// The arena plan at `input`: each slot's buffer must hold the largest
    /// activation an op writes to it (the classifier's logits leave the
    /// arena), and the peak is the largest sum of the slots' live volumes
    /// (the borrowed network input is not the arena's).
    pub(crate) fn arena_plan(&self, input: Shape) -> std::result::Result<ArenaPlan, TensorError> {
        let (mut buffer_elems, mut live, mut peak) = (vec![0; SLOTS], [0; SLOTS], 0);
        self.walk(input, |op, _, out| match op.kind {
            OpKind::Retire => live[op.input] = 0,
            OpKind::Classifier(_) => {}
            _ => {
                buffer_elems[op.output] = buffer_elems[op.output].max(out.volume());
                live[op.output] = out.volume();
                peak = peak.max(live.iter().sum());
            }
        })?;
        Ok(ArenaPlan { buffer_elems, peak_live_bytes: peak * std::mem::size_of::<f32>() })
    }
}

/// Builds a [`Lowering`]: declares convolutions in construction order and
/// emits ops in execution order, each new activation in the lowest free slot.
/// `out.output` is the current activation's slot while blocks are added.
struct Lowerer {
    out: Lowering,
    live: [bool; SLOTS],
}

impl Lowerer {
    fn declare(&mut self, params: Conv2dParams, act: Activation) -> usize {
        self.out.convs.push(LoweredConv { params, act });
        self.out.convs.len() - 1
    }

    /// A dense `k`×`k` convolution, padded to keep the extent at stride 1.
    fn dense(
        &mut self,
        cin: usize,
        cout: usize,
        k: usize,
        stride: usize,
        act: Activation,
    ) -> usize {
        self.declare(Conv2dParams::new(cin, cout, k, stride, k / 2), act)
    }

    /// The 1×1 projection shortcut a residual block needs when it changes
    /// shape.
    fn projection(&mut self, in_ch: usize, out_ch: usize, stride: usize) -> Option<usize> {
        (stride != 1 || in_ch != out_ch)
            .then(|| self.dense(in_ch, out_ch, 1, stride, Activation::None))
    }

    /// A residual block's tail: `conv` over `input`, plus the block input
    /// `x` or its projection, then ReLU; the projection dies with the tail.
    fn residual_tail(&mut self, conv: usize, input: usize, x: usize, proj: Option<usize>) -> usize {
        let skip = proj.map(|d| self.conv(d, x));
        let out = self.tail(conv, input, skip.unwrap_or(x), Activation::Relu);
        if let Some(skip) = skip {
            self.retire(skip);
        }
        out
    }

    fn op(&mut self, kind: OpKind, input: usize) -> usize {
        let output = self.live.iter().position(|live| !live).expect("a block outgrew SLOTS");
        self.live[output] = true;
        self.out.ops.push(Op { kind, input, output });
        output
    }

    fn conv(&mut self, conv: usize, input: usize) -> usize {
        let act = self.out.convs[conv].act;
        self.op(OpKind::Conv { conv, residual: None, act }, input)
    }

    fn tail(&mut self, conv: usize, input: usize, residual: usize, act: Activation) -> usize {
        self.op(OpKind::Conv { conv, residual: Some(residual), act }, input)
    }

    fn retire(&mut self, slot: usize) {
        self.live[slot] = false;
        self.out.ops.push(Op { kind: OpKind::Retire, input: slot, output: slot });
    }
}

/// The planned activation-arena footprint of one `(model, resolution)` pair.
/// The lowering gives every activation one of four slots (`SLOTS`), free again
/// only after its retire, and the arena forward keeps one buffer per slot;
/// the plan is each buffer's size at that input shape and the peak of the
/// live activations.
///
/// [`ArenaPlan::reserve`] pre-populates an arena so the *first* forward at the
/// planned resolution — or at any smaller one, since no activation shrinks as
/// the input grows — already allocates nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArenaPlan {
    /// Element count of each slot's buffer: the largest activation the
    /// forward writes to that slot (0 for a slot it never uses).
    pub buffer_elems: Vec<usize>,
    /// Peak bytes of simultaneously-live activations during the forward.
    pub peak_live_bytes: usize,
}

impl ArenaPlan {
    /// Total bytes the arena holds once warmed with this plan.
    pub fn arena_bytes(&self) -> usize {
        self.buffer_elems.iter().sum::<usize>() * std::mem::size_of::<f32>()
    }

    /// Grows an arena's slot buffers to this plan's sizes.
    pub fn reserve(&self, arena: &mut ActivationArena) {
        arena.reserve(&self.buffer_elems);
    }
}

/// Builds the ResNet-18 architecture (He et al., 2016) for `num_classes` outputs.
pub fn resnet18_arch(num_classes: usize) -> ArchSpec {
    let mut blocks = vec![
        BlockSpec::ConvBnAct { params: Conv2dParams::new(3, 64, 7, 2, 3), act: Activation::Relu },
        BlockSpec::MaxPool(Pool2dParams::new(3, 2, 1)),
    ];
    let stage_channels = [64usize, 128, 256, 512];
    let mut in_ch = 64usize;
    for (stage, &out_ch) in stage_channels.iter().enumerate() {
        for block in 0..2 {
            let stride = if stage > 0 && block == 0 { 2 } else { 1 };
            blocks.push(BlockSpec::BasicBlock { in_ch, out_ch, stride });
            in_ch = out_ch;
        }
    }
    blocks.push(BlockSpec::GlobalAvgPool);
    blocks.push(BlockSpec::Classifier { in_features: 512, num_classes });
    ArchSpec { kind: ModelKind::ResNet18, blocks, num_classes }
}

/// Builds the ResNet-50 architecture for `num_classes` outputs.
pub fn resnet50_arch(num_classes: usize) -> ArchSpec {
    let mut blocks = vec![
        BlockSpec::ConvBnAct { params: Conv2dParams::new(3, 64, 7, 2, 3), act: Activation::Relu },
        BlockSpec::MaxPool(Pool2dParams::new(3, 2, 1)),
    ];
    let stage_defs = [(64usize, 256usize, 3usize), (128, 512, 4), (256, 1024, 6), (512, 2048, 3)];
    let mut in_ch = 64usize;
    for (stage, &(mid_ch, out_ch, count)) in stage_defs.iter().enumerate() {
        for block in 0..count {
            let stride = if stage > 0 && block == 0 { 2 } else { 1 };
            blocks.push(BlockSpec::Bottleneck { in_ch, mid_ch, out_ch, stride });
            in_ch = out_ch;
        }
    }
    blocks.push(BlockSpec::GlobalAvgPool);
    blocks.push(BlockSpec::Classifier { in_features: 2048, num_classes });
    ArchSpec { kind: ModelKind::ResNet50, blocks, num_classes }
}

/// Builds the MobileNetV2 architecture (width multiplier 1.0) for `num_classes` outputs.
pub fn mobilenet_v2_arch(num_classes: usize) -> ArchSpec {
    let mut blocks = vec![BlockSpec::ConvBnAct {
        params: Conv2dParams::new(3, 32, 3, 2, 1),
        act: Activation::Relu6,
    }];
    // (expand, out_channels, repeats, stride) per the MobileNetV2 paper.
    let settings: [(usize, usize, usize, usize); 7] = [
        (1, 16, 1, 1),
        (6, 24, 2, 2),
        (6, 32, 3, 2),
        (6, 64, 4, 2),
        (6, 96, 3, 1),
        (6, 160, 3, 2),
        (6, 320, 1, 1),
    ];
    let mut in_ch = 32usize;
    for &(expand, out_ch, repeats, stride) in &settings {
        for i in 0..repeats {
            let s = if i == 0 { stride } else { 1 };
            blocks.push(BlockSpec::InvertedResidual { in_ch, out_ch, stride: s, expand });
            in_ch = out_ch;
        }
    }
    blocks.push(BlockSpec::ConvBnAct {
        params: Conv2dParams::new(320, 1280, 1, 1, 0),
        act: Activation::Relu6,
    });
    blocks.push(BlockSpec::GlobalAvgPool);
    blocks.push(BlockSpec::Classifier { in_features: 1280, num_classes });
    ArchSpec { kind: ModelKind::MobileNetV2, blocks, num_classes }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resnet18_flops_match_paper_table1() {
        // Paper Table I: ResNet-18 GFLOPs at 112..448 = 0.5, 1.1, 1.8, 2.9, 4.2, 5.8, 7.3.
        let arch = resnet18_arch(1000);
        let expected = [
            (112usize, 0.5f64),
            (168, 1.1),
            (224, 1.8),
            (280, 2.9),
            (336, 4.2),
            (392, 5.8),
            (448, 7.3),
        ];
        for (res, gflops) in expected {
            let got = arch.gflops(res).unwrap();
            let rel = (got - gflops).abs() / gflops;
            assert!(rel < 0.15, "ResNet-18@{res}: expected ~{gflops}, got {got:.2}");
        }
    }

    #[test]
    fn resnet50_flops_scale() {
        let arch = resnet50_arch(1000);
        let at224 = arch.gflops(224).unwrap();
        // Literature/paper value ≈ 4.1 GFLOPs.
        assert!((3.6..=4.6).contains(&at224), "ResNet-50@224 = {at224:.2}");
        // Near-quadratic scaling with resolution.
        let at448 = arch.gflops(448).unwrap();
        assert!(at448 / at224 > 3.5 && at448 / at224 < 4.5);
    }

    #[test]
    fn mobilenet_flops_match_paper() {
        let arch = mobilenet_v2_arch(1000);
        // Paper §VII-b: MobileNetV2 at 112×112 ≈ 0.08 GFLOPs; at 224×224 ≈ 0.3 GFLOPs.
        let at112 = arch.gflops(112).unwrap();
        let at224 = arch.gflops(224).unwrap();
        assert!((0.05..=0.12).contains(&at112), "MobileNetV2@112 = {at112:.3}");
        assert!((0.25..=0.40).contains(&at224), "MobileNetV2@224 = {at224:.3}");
    }

    #[test]
    fn param_counts_are_plausible() {
        // ResNet-18 ≈ 11.7 M, ResNet-50 ≈ 25.6 M, MobileNetV2 ≈ 3.4 M (conv+fc only).
        let r18 = resnet18_arch(1000).param_count() as f64 / 1e6;
        let r50 = resnet50_arch(1000).param_count() as f64 / 1e6;
        let mb2 = mobilenet_v2_arch(1000).param_count() as f64 / 1e6;
        assert!((10.0..=13.0).contains(&r18), "ResNet-18 params {r18:.1}M");
        assert!((22.0..=28.0).contains(&r50), "ResNet-50 params {r50:.1}M");
        assert!((2.5..=4.5).contains(&mb2), "MobileNetV2 params {mb2:.1}M");
    }

    #[test]
    fn conv_layer_enumeration() {
        let arch = resnet18_arch(10);
        let layers = arch.conv_layers(224).unwrap();
        // 1 stem + 8 basic blocks × 2 convs + 3 downsample projections = 20.
        assert_eq!(layers.len(), 20);
        assert_eq!(layers[0].input, Shape::chw(3, 224, 224));
        assert_eq!(layers[0].params.out_channels, 64);
        // Total FLOPs from layers matches flops() minus the classifier.
        let conv_flops: u64 = layers.iter().map(ConvLayerShape::flops).sum();
        let classifier_flops = 512 * 10;
        assert_eq!(arch.flops(224).unwrap(), conv_flops + classifier_flops);
    }

    #[test]
    fn resnet50_layer_count() {
        let arch = resnet50_arch(1000);
        let layers = arch.conv_layers(224).unwrap();
        // 1 stem + 16 bottlenecks × 3 + 4 downsample projections = 53.
        assert_eq!(layers.len(), 53);
    }

    #[test]
    fn final_spatial_extent() {
        let arch = resnet18_arch(1000);
        // 224 → stem 112 → pool 56 → stages 56/28/14/7.
        assert_eq!(arch.final_spatial(224).unwrap(), 7);
        assert_eq!(arch.final_spatial(112).unwrap(), 4);
        let layers = arch.conv_layers(224).unwrap();
        // Last conv layer input spatial extent is 7 at 224.
        assert_eq!(layers.last().unwrap().input.h, 7);
        let layers112 = arch.conv_layers(112).unwrap();
        assert_eq!(layers112.last().unwrap().input.h, 4);
    }

    #[test]
    fn flops_grow_monotonically_with_resolution() {
        for kind in ModelKind::ALL {
            let arch = kind.arch(100);
            let mut prev = 0;
            for res in [64usize, 112, 168, 224, 280, 336] {
                let f = arch.flops(res).unwrap();
                assert!(f > prev, "{kind} flops must grow with resolution");
                prev = f;
            }
        }
    }

    #[test]
    fn too_small_resolutions_error() {
        let arch = resnet50_arch(10);
        assert!(arch.flops(0).is_err());
        // Thanks to padding and global pooling the architectures degrade gracefully all
        // the way down to 1×1 inputs instead of erroring.
        assert!(arch.conv_layers(1).is_ok());
    }

    #[test]
    fn model_kind_metadata() {
        assert_eq!(ModelKind::ResNet18.name(), "ResNet-18");
        assert_eq!(ModelKind::ResNet50.to_string(), "ResNet-50");
        assert_eq!(ModelKind::MobileNetV2.arch(42).num_classes, 42);
        assert_eq!(ModelKind::ALL.len(), 3);
    }
}
