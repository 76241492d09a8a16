//! 2-D convolution kernels and the resolution-aware dispatch layer.
//!
//! Executable implementations:
//!
//! * [`conv2d_direct`] — a reference seven-loop implementation, the single oracle the
//!   other paths are validated against.
//! * The **packed engine** ([`conv2d_with_algo`]) — packed, multi-threaded kernels built
//!   on [`engine`](crate::engine): a direct-GEMM fast path for 1×1 stride-1 convolutions
//!   ([`ConvAlgo::Gemm1x1`]), a dedicated shift-and-accumulate depthwise kernel
//!   ([`ConvAlgo::Depthwise`]), Winograd F(2×2, 3×3) and F(4×4, 3×3) arms for
//!   stride-1 dense 3×3 layers ([`ConvAlgo::Winograd`], [`ConvAlgo::WinogradF4`],
//!   implemented in [`winograd`](crate::winograd)), and a packing-aware im2col for
//!   everything else ([`ConvAlgo::Im2colPacked`]).
//!
//! The Winograd arms trade multiplies for transforms: 2.25× (F(2×2)) to 4× (F(4×4))
//! fewer MACs than im2col + GEMM on the shapes they support, bitwise deterministic
//! across thread counts, but — because they legitimately reassociate the arithmetic —
//! only *tolerance*-equal to the other paths: F(2×2) agrees with
//! [`ConvAlgo::Im2colPacked`] elementwise within `1e-4` at unit-scale activations
//! (`tests/winograd_parity.rs`), F(4×4) within
//! [`WINOGRAD_F4_TOLERANCE`](crate::winograd::WINOGRAD_F4_TOLERANCE). They are the
//! default exactly where their tiles fill the microkernel — see [`select_algo`].
//!
//! [`conv2d`] — the entry point the model zoo uses — routes through [`select_algo`],
//! and [`conv2d_dispatch`] additionally reports which algorithm ran so autotuners can
//! sweep algorithms per resolution.
//!
//! Default selection is a pure function of the layer shape. A scoped
//! [`EngineContext::with_algo`](crate::EngineContext::with_algo) pin takes
//! precedence over it ([`planned_conv_algo`]). An [`AlgoCalibration`] table —
//! built by `rescnn-hwsim`'s measured tuner from wall-clock sweeps — is a plain
//! value: a network that holds one consults it between the pin and the rule.
//!
//! Weights are stored as `O × I/g × K × K` tensors (encoded in the NCHW [`Shape`] as
//! `n = O`, `c = I/g`, `h = w = K`).

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

use crate::engine::{self, ColumnLayout, FusedActivation, NR};
use crate::error::{Result, TensorError};
use crate::shape::{Conv2dParams, Shape};
use crate::tensor::Tensor;
use crate::view::{validate_into, TensorView, TensorViewMut};
use crate::winograd::{conv2d_winograd_fused_into, WinogradFilter, TILE, TILE_F4};
use crate::{parallel, scratch};

/// Validates that a weight tensor matches the convolution parameters.
pub(crate) fn validate_weight(params: &Conv2dParams, weight: &Tensor) -> Result<()> {
    params.validate()?;
    let ws = weight.shape();
    let expected = Shape::new(
        params.out_channels,
        params.in_channels / params.groups,
        params.kernel,
        params.kernel,
    );
    if ws != expected {
        return Err(TensorError::ShapeMismatch {
            left: ws.as_array().to_vec(),
            right: expected.as_array().to_vec(),
            op: "conv2d weight",
        });
    }
    Ok(())
}

pub(crate) fn validate_bias(params: &Conv2dParams, bias: Option<&[f32]>) -> Result<()> {
    if let Some(b) = bias {
        if b.len() != params.out_channels {
            return Err(TensorError::LengthMismatch {
                expected: params.out_channels,
                actual: b.len(),
            });
        }
    }
    Ok(())
}

/// Reference direct convolution.
///
/// # Errors
/// Returns an error if the parameters, weight shape, or bias length are inconsistent with
/// the input shape.
pub fn conv2d_direct<'a>(
    input: impl Into<TensorView<'a>>,
    weight: &Tensor,
    bias: Option<&[f32]>,
    params: &Conv2dParams,
) -> Result<Tensor> {
    validate_weight(params, weight)?;
    validate_bias(params, bias)?;
    let input = input.into();
    let ishape = input.shape();
    let oshape = params.output_shape(ishape)?;
    let mut out = Tensor::zeros(oshape);

    let k = params.kernel;
    let stride = params.stride;
    let pad = params.padding as isize;
    let in_per_group = params.in_channels / params.groups;
    let out_per_group = params.out_channels / params.groups;

    for n in 0..ishape.n {
        for oc in 0..params.out_channels {
            let group = oc / out_per_group;
            let base = bias.map_or(0.0, |b| b[oc]);
            for oh in 0..oshape.h {
                for ow in 0..oshape.w {
                    let mut acc = base;
                    for icg in 0..in_per_group {
                        let ic = group * in_per_group + icg;
                        for kh in 0..k {
                            let ih = (oh * stride + kh) as isize - pad;
                            if ih < 0 || ih >= ishape.h as isize {
                                continue;
                            }
                            for kw in 0..k {
                                let iw = (ow * stride + kw) as isize - pad;
                                if iw < 0 || iw >= ishape.w as isize {
                                    continue;
                                }
                                acc += input.as_slice()
                                    [ishape.offset(n, ic, ih as usize, iw as usize)]
                                    * weight.get(oc, icg, kh, kw);
                            }
                        }
                    }
                    out.set(n, oc, oh, ow, acc);
                }
            }
        }
    }
    Ok(out)
}

/// Identifies one executable convolution algorithm.
///
/// [`select_algo`] picks among the engine paths; the reference kernel stays
/// addressable so autotuners can sweep every implementation at every resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ConvAlgo {
    /// Reference seven-loop kernel.
    Direct,
    /// Engine: packing-aware im2col stripes + packed parallel GEMM.
    Im2colPacked,
    /// Engine: direct GEMM over the input planes for 1×1 stride-1 pad-0 convolutions
    /// (no im2col materialization at all).
    Gemm1x1,
    /// Engine: dedicated shift-and-accumulate depthwise kernel.
    Depthwise,
    /// Engine: Winograd F(2×2, 3×3) minimal-filtering convolution for stride-1 dense
    /// 3×3 layers (~2.25× fewer multiplies than im2col + GEMM). Bitwise deterministic
    /// across thread counts; agrees with [`ConvAlgo::Im2colPacked`] elementwise within
    /// `1e-4` at unit-scale activations (it reassociates arithmetic, so bitwise
    /// equality with the GEMM paths is not part of the contract). See
    /// [`winograd`](crate::winograd).
    Winograd,
    /// Engine: Winograd F(4×4, 3×3) — the α=6 minimal-filtering variant (~4× fewer
    /// multiplies than im2col + GEMM, ~1.78× fewer than F(2×2)). Same eligibility and
    /// determinism contract as [`ConvAlgo::Winograd`], but the larger transform
    /// stencils loosen the elementwise agreement with [`ConvAlgo::Im2colPacked`] to
    /// [`WINOGRAD_F4_TOLERANCE`](crate::winograd::WINOGRAD_F4_TOLERANCE) at unit
    /// scale — default dispatch admits it only up to
    /// [`WINOGRAD_F4_MAX_IN_CHANNELS`] input channels (unit error ≤ 4e-4
    /// there), and calibration sweeps gate it per shape on the measured unit
    /// error.
    WinogradF4,
    /// Engine: int8-quantized u8×i8 GEMM for dense (groups == 1) layers —
    /// per-output-channel symmetric weight scales folded at prepack time,
    /// per-tensor asymmetric activation quantization, i32 accumulation with a
    /// fused f32 dequant + epilogue writeback (VNNI / `vpmaddubsw` / portable
    /// kernel tiers, all bitwise interchangeable). Quantization is an
    /// *approximation*, so this arm is never a heuristic default: dispatch
    /// reaches it only through a network's measured table of arms (gated per shape
    /// on [`int8_unit_error`](crate::quant::int8_unit_error) against
    /// [`INT8_TOLERANCE`](crate::quant::INT8_TOLERANCE), plus the serving
    /// layer's end-to-end accuracy budget) or an explicit override. See
    /// [`quant`](crate::quant).
    Int8,
}

impl ConvAlgo {
    /// Every algorithm, in sweep order.
    pub const ALL: [ConvAlgo; 7] = [
        ConvAlgo::Direct,
        ConvAlgo::Im2colPacked,
        ConvAlgo::Gemm1x1,
        ConvAlgo::Depthwise,
        ConvAlgo::Winograd,
        ConvAlgo::WinogradF4,
        ConvAlgo::Int8,
    ];

    /// Whether this algorithm can execute the given convolution shape.
    pub fn supports(self, params: &Conv2dParams) -> bool {
        match self {
            ConvAlgo::Direct | ConvAlgo::Im2colPacked => true,
            ConvAlgo::Gemm1x1 => params.kernel == 1 && params.stride == 1 && params.padding == 0,
            ConvAlgo::Depthwise => {
                params.groups == params.in_channels && params.in_channels == params.out_channels
            }
            ConvAlgo::Winograd | ConvAlgo::WinogradF4 => {
                params.kernel == 3 && params.stride == 1 && params.groups == 1
            }
            ConvAlgo::Int8 => params.groups == 1,
        }
    }

    /// Parses the [`Display`](std::fmt::Display) name back into an algorithm —
    /// the inverse used by on-disk calibration tables.
    pub fn from_name(name: &str) -> Option<ConvAlgo> {
        ConvAlgo::ALL.iter().copied().find(|algo| algo.to_string() == name)
    }
}

impl std::fmt::Display for ConvAlgo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            ConvAlgo::Direct => "direct",
            ConvAlgo::Im2colPacked => "im2col_packed",
            ConvAlgo::Gemm1x1 => "gemm_1x1",
            ConvAlgo::Depthwise => "depthwise",
            ConvAlgo::Winograd => "winograd",
            ConvAlgo::WinogradF4 => "winograd_f4",
            ConvAlgo::Int8 => "int8_packed",
        };
        f.write_str(name)
    }
}

/// Identifies one convolution workload for calibrated dispatch: the convolution
/// parameters plus the input's spatial extent. The batch size is deliberately not
/// part of the key — per-element algorithm preference is a property of the layer
/// shape, and sweeps measure at batch 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ConvShapeKey {
    /// Convolution parameters of the layer.
    pub params: Conv2dParams,
    /// Input spatial height.
    pub height: usize,
    /// Input spatial width.
    pub width: usize,
}

impl ConvShapeKey {
    /// Builds the key for a convolution applied to `input`.
    pub fn new(params: Conv2dParams, input: Shape) -> Self {
        ConvShapeKey { params, height: input.h, width: input.w }
    }
}

/// A measurement-derived dispatch table: for each exact layer shape, the algorithm
/// that was measured fastest on this host.
///
/// Built by `rescnn-hwsim`'s calibrated cost model from `MeasuredTuner` sweeps
/// (and persistable to disk there, so serving starts warm). The table is a
/// plain value: a network that holds one runs each listed shape on its
/// [`arm`](Self::arm), beneath an [`EngineContext`](crate::EngineContext) pin
/// and above [`select_algo`]'s rule.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AlgoCalibration {
    choices: HashMap<ConvShapeKey, ConvAlgo>,
}

impl AlgoCalibration {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the preferred algorithm for one layer shape (replacing any earlier
    /// entry for the same shape).
    pub fn set(&mut self, key: ConvShapeKey, algo: ConvAlgo) {
        self.choices.insert(key, algo);
    }

    /// The calibrated algorithm for a layer shape, if one was recorded.
    pub fn get(&self, key: &ConvShapeKey) -> Option<ConvAlgo> {
        self.choices.get(key).copied()
    }

    /// The recorded algorithm for `params` on `input` when it can execute that
    /// shape (entries it cannot execute are ignored defensively).
    pub fn arm(&self, params: &Conv2dParams, input: Shape) -> Option<ConvAlgo> {
        self.get(&ConvShapeKey::new(*params, input)).filter(|algo| algo.supports(params))
    }

    /// Number of calibrated shapes.
    pub fn len(&self) -> usize {
        self.choices.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.choices.is_empty()
    }

    /// Iterates over every calibrated `(shape, algorithm)` pair (unspecified order;
    /// persistence layers sort by key fields for stable output).
    pub fn entries(&self) -> impl Iterator<Item = (&ConvShapeKey, ConvAlgo)> {
        self.choices.iter().map(|(key, &algo)| (key, algo))
    }
}

/// Fewest Winograd tiles a layer must offer before default dispatch leaves
/// packed im2col for a Winograd arm: one full column panel of the widest
/// microkernel tier. Every transform point's GEMM has one column per tile, so
/// below a panel the microkernel multiplies mostly padding and the transforms
/// are pure overhead. A fixed 32 rather than [`NR`]: the choice — and with it
/// the bits — must not vary with the ISA tier the build selected.
pub const WINOGRAD_MIN_TILES: usize = 32;

/// Widest layer (in input channels) default dispatch sends to F(4×4, 3×3);
/// wider layers use F(2×2, 3×3). Bounds the F(4×4) unit error of the default
/// (it grows with the reduction depth) to the ≤ 4 × 10⁻⁴ pinned by
/// `tests/dispatch_rule.rs` — measured maximum 2.7 × 10⁻⁴, against a
/// [`WINOGRAD_F4_TOLERANCE`](crate::winograd::WINOGRAD_F4_TOLERANCE) of
/// 2 × 10⁻³ — and the resident bank to one variant per layer: the 4×-weights
/// F(4×4) bank only where weights are small, the 1.78× F(2×2) bank on the
/// wide, weight-heavy layers.
pub const WINOGRAD_F4_MAX_IN_CHANNELS: usize = 128;

/// The Winograd arm default dispatch picks for a 3×3 stride-1 dense layer at
/// this input extent, or `None` when the layer is not eligible or offers fewer
/// than [`WINOGRAD_MIN_TILES`] tiles of that arm.
fn winograd_default(params: &Conv2dParams, input: Shape) -> Option<ConvAlgo> {
    if !ConvAlgo::Winograd.supports(params) {
        return None;
    }
    let (algo, tile) = if params.in_channels <= WINOGRAD_F4_MAX_IN_CHANNELS {
        (ConvAlgo::WinogradF4, TILE_F4)
    } else {
        (ConvAlgo::Winograd, TILE)
    };
    let oh = params.output_extent(input.h).ok()?;
    let ow = params.output_extent(input.w).ok()?;
    (oh.div_ceil(tile) * ow.div_ceil(tile) >= WINOGRAD_MIN_TILES).then_some(algo)
}

/// Chooses the engine algorithm for a convolution shape.
///
/// This is the default beneath a scoped
/// [`EngineContext::with_algo`](crate::EngineContext::with_algo) pin, which
/// [`planned_conv_algo`] applies first, and beneath a network's own measured
/// [`AlgoCalibration`], if it holds one. Dispatch rules, in priority order:
/// 1. 1×1 stride-1 pad-0 convolutions (the majority of ResNet-50 layers) skip im2col
///    entirely — the input planes already are the GEMM right-hand side.
/// 2. Depthwise convolutions (`groups == in == out`, the MobileNetV2 workhorse) run the
///    dedicated shift-and-accumulate kernel; lowering them to GEMM would spend
///    `k²`-fold more memory traffic for rank-1 matrix products.
/// 3. Dense 3×3 stride-1 layers whose output fills at least one column panel with
///    Winograd tiles ([`WINOGRAD_MIN_TILES`]) run a Winograd arm:
///    [`ConvAlgo::WinogradF4`] when `in_channels ≤` [`WINOGRAD_F4_MAX_IN_CHANNELS`]
///    and `⌈oh/4⌉·⌈ow/4⌉` reaches the threshold, [`ConvAlgo::Winograd`] for wider
///    layers when `⌈oh/2⌉·⌈ow/2⌉` does. The rule is stated in tiles because the
///    tile count *is* the column count of the arm's per-point GEMMs: the 2.25–4×
///    cut in multiplies only pays once those GEMMs fill the microkernel, which is
///    a property of the layer's resolution, not of the host. Measured per shape
///    in `docs/winograd.md` (wins of 1.7–2.6× above the threshold,
///    losses down to 0.2× below it).
/// 4. Everything else runs packing-aware im2col stripes + packed GEMM, with stripe
///    heights sized from the output resolution so packed panels stay cache-resident.
///
/// The rules are deterministic and host-independent. Rule 3 changes numerics
/// within the arms' contracts (F(2×2) ≤ 1e-4, F(4×4) ≤ 4e-4 at the admitted
/// widths, both against [`ConvAlgo::Im2colPacked`] at unit scale); pin
/// [`EngineContext::with_algo`](crate::EngineContext::with_algo)`(ConvAlgo::Im2colPacked)`
/// for an A/B against the pre-rule behaviour.
pub fn select_algo(params: &Conv2dParams, input: Shape) -> ConvAlgo {
    if ConvAlgo::Gemm1x1.supports(params) {
        ConvAlgo::Gemm1x1
    } else if ConvAlgo::Depthwise.supports(params) {
        ConvAlgo::Depthwise
    } else {
        winograd_default(params, input).unwrap_or(ConvAlgo::Im2colPacked)
    }
}

/// Runs a convolution with an explicit algorithm. Shapes the algorithm does not
/// support fall back to [`ConvAlgo::Im2colPacked`] (which handles every shape), so
/// sweeps never have to special-case eligibility.
///
/// # Errors
/// Returns an error if the parameters, weight shape, or bias length are inconsistent
/// with the input shape.
pub fn conv2d_with_algo(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&[f32]>,
    params: &Conv2dParams,
    algo: ConvAlgo,
) -> Result<Tensor> {
    let algo = if algo.supports(params) { algo } else { ConvAlgo::Im2colPacked };
    match algo {
        ConvAlgo::Direct => conv2d_direct(input, weight, bias, params),
        ConvAlgo::Im2colPacked => conv2d_im2col_packed(input, weight, bias, params),
        ConvAlgo::Gemm1x1 => conv2d_gemm_1x1(input, weight, bias, params),
        ConvAlgo::Depthwise => conv2d_depthwise(input, weight, bias, params),
        ConvAlgo::Winograd => crate::winograd::conv2d_winograd(input, weight, bias, params),
        ConvAlgo::WinogradF4 => crate::winograd::conv2d_winograd_f4(input, weight, bias, params),
        ConvAlgo::Int8 => crate::quant::conv2d_int8(input, weight, bias, params),
    }
}

/// The algorithm [`conv2d_dispatch`] would run for `(params, input)` right now:
/// the innermost [`EngineContext`](crate::EngineContext) algorithm pin when it
/// supports the shape, else the [`select_algo`] rule.
///
/// Exposed so callers that keep per-algorithm cached state (e.g. the model zoo's
/// cached Winograd filter transforms) can see the decision without running the
/// convolution.
pub fn planned_conv_algo(params: &Conv2dParams, input: Shape) -> ConvAlgo {
    match crate::context::EngineContext::current().algo {
        Some(forced) if forced.supports(params) => forced,
        _ => select_algo(params, input),
    }
}

/// Runs a convolution through the dispatch layer, reporting which algorithm executed.
///
/// # Errors
/// Returns an error if the parameters, weight shape, or bias length are inconsistent
/// with the input shape.
pub fn conv2d_dispatch(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&[f32]>,
    params: &Conv2dParams,
) -> Result<(Tensor, ConvAlgo)> {
    let algo = planned_conv_algo(params, input.shape());
    conv2d_with_algo(input, weight, bias, params, algo).map(|out| (out, algo))
}

/// Default convolution entry point: resolution-aware dispatch into the packed engine.
///
/// # Errors
/// Returns an error if the parameters, weight shape, or bias length are inconsistent with
/// the input shape.
pub fn conv2d(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&[f32]>,
    params: &Conv2dParams,
) -> Result<Tensor> {
    conv2d_dispatch(input, weight, bias, params).map(|(out, _)| out)
}

/// A convolution layer prepared once for the serving hot path: weights prepacked
/// into GEMM panel layout per channel group ([`engine::PreparedGemmA`]), the
/// bias captured, and — for Winograd-eligible layers — the transformed filter
/// bank cached (lazily, the first time dispatch actually picks a Winograd arm).
///
/// A `PreparedLayer` forward skips every per-call weight-packing pass and can
/// fuse the block tail ([`ConvEpilogue`]: residual add + activation) into the
/// kernel's output write. Both transformations are pure data movement /
/// reassociation-free, so prepared forwards are **bitwise identical** to the
/// unprepared `conv2d_with_algo` path per algorithm (pinned by
/// `tests/prepacked_parity.rs`).
///
/// The f32 weights are stored **once**: as packed panels, or — for
/// depthwise-dispatched layers, which carry no panels — as the raw tensor.
/// Everything off the hot path that wants row-major weights (the reference
/// algorithm [`ConvAlgo::Direct`], the lazy Winograd and int8 builders, [`PreparedLayer::weight`]) reads an exact unpack of the
/// panels. Memory cost is therefore ~1× the weights (rounded up to `MR`-row
/// tiles) plus whichever lazily-built banks dispatch has asked for.
#[derive(Debug, Clone)]
pub struct PreparedLayer {
    params: Conv2dParams,
    weights: LayerWeights,
    bias: Option<Vec<f32>>,
    /// Lazily-built Winograd F(2×2) filter transform (eligible layers only).
    winograd: OnceLock<WinogradFilter>,
    /// Lazily-built Winograd F(4×4) filter transform (eligible layers only).
    winograd_f4: OnceLock<WinogradFilter>,
    /// Lazily-built int8-quantized weight panels (dense layers only), so
    /// deployments that never enable the int8 arm pay nothing for it.
    int8: OnceLock<crate::quant::QuantizedConv>,
    /// Calibration-recorded activation range for the int8 path; absent ranges
    /// fall back to a dynamic per-call min/max scan.
    int8_range: Option<(f32, f32)>,
}

/// The single resident copy of a prepared layer's f32 weights.
#[derive(Debug, Clone)]
enum LayerWeights {
    /// Depthwise-dispatched layers never consume GEMM panels (their kernel
    /// reads raw weights, and `MR`-padding 1-row groups would cost ~6× the
    /// weight memory); an explicit GEMM-algo override on such a layer packs on
    /// the fly.
    Raw(Tensor),
    /// Per-group prepacked GEMM left operands (`out_per_group` rows over
    /// `in_per_group * k * k`), shared by the 1×1 and packed-im2col paths.
    Packed(Vec<engine::PreparedGemmA>),
}

impl PreparedLayer {
    /// Prepares a layer: validates the shapes and prepacks the per-group weight
    /// panels.
    ///
    /// # Errors
    /// Returns an error if the weight shape or bias length are inconsistent
    /// with the parameters.
    pub fn new(weight: Tensor, bias: Option<Vec<f32>>, params: Conv2dParams) -> Result<Self> {
        validate_weight(&params, &weight)?;
        validate_bias(&params, bias.as_deref())?;
        let weights = if ConvAlgo::Depthwise.supports(&params) {
            LayerWeights::Raw(weight)
        } else {
            let rows = (params.in_channels / params.groups) * params.kernel * params.kernel;
            let out_per_group = params.out_channels / params.groups;
            LayerWeights::Packed(
                weight
                    .as_slice()
                    .chunks_exact(out_per_group * rows)
                    .map(|group| engine::PreparedGemmA::prepare(group, rows, out_per_group, rows))
                    .collect(),
            )
        };
        Ok(PreparedLayer {
            params,
            weights,
            bias,
            winograd: OnceLock::new(),
            winograd_f4: OnceLock::new(),
            int8: OnceLock::new(),
            int8_range: None,
        })
    }

    /// The layer's convolution parameters.
    pub fn params(&self) -> &Conv2dParams {
        &self.params
    }

    /// The raw (row-major `O × I/g × K × K`) weights, bit-for-bit the tensor
    /// the layer was built from: borrowed where the layer keeps them raw,
    /// otherwise unpacked from the GEMM panels on every call — fine for
    /// builders and reference paths, not for a hot loop.
    pub fn weight(&self) -> Cow<'_, Tensor> {
        match &self.weights {
            LayerWeights::Raw(weight) => Cow::Borrowed(weight),
            LayerWeights::Packed(groups) => {
                let p = &self.params;
                let shape =
                    Shape::new(p.out_channels, p.in_channels / p.groups, p.kernel, p.kernel);
                let mut data = vec![0.0f32; shape.volume()];
                let per_group = data.len() / groups.len();
                for (group, dst) in groups.iter().zip(data.chunks_exact_mut(per_group)) {
                    group.unpack_into(dst);
                }
                Cow::Owned(Tensor::from_vec(shape, data).expect("volume matches the shape"))
            }
        }
    }

    /// The per-channel bias, if any.
    pub fn bias(&self) -> Option<&[f32]> {
        self.bias.as_deref()
    }

    /// The cached Winograd filter transform, building it on first use.
    ///
    /// # Errors
    /// Returns an error if the layer is not Winograd-eligible.
    pub fn winograd_filter(&self) -> Result<&WinogradFilter> {
        if !ConvAlgo::Winograd.supports(&self.params) {
            return Err(TensorError::ShapeMismatch {
                left: vec![self.params.kernel, self.params.stride, self.params.groups],
                right: vec![3, 1, 1],
                op: "winograd requires kernel=3 stride=1 groups=1",
            });
        }
        Ok(self.winograd.get_or_init(|| {
            WinogradFilter::prepare(&self.weight(), &self.params)
                .expect("eligibility checked above")
        }))
    }

    /// The cached Winograd F(4×4, 3×3) filter transform, building it on first
    /// use.
    ///
    /// # Errors
    /// Returns an error if the layer is not Winograd-eligible.
    pub fn winograd_filter_f4(&self) -> Result<&WinogradFilter> {
        if !ConvAlgo::WinogradF4.supports(&self.params) {
            return Err(TensorError::ShapeMismatch {
                left: vec![self.params.kernel, self.params.stride, self.params.groups],
                right: vec![3, 1, 1],
                op: "winograd_f4 requires kernel=3 stride=1 groups=1",
            });
        }
        Ok(self.winograd_f4.get_or_init(|| {
            WinogradFilter::prepare_f4(&self.weight(), &self.params)
                .expect("eligibility checked above")
        }))
    }

    /// The cached int8-quantized weight panels, quantizing on first use.
    ///
    /// # Errors
    /// Returns an error if the layer is not int8-eligible (grouped).
    pub fn int8_weights(&self) -> Result<&crate::quant::QuantizedConv> {
        if !ConvAlgo::Int8.supports(&self.params) {
            return Err(TensorError::ShapeMismatch {
                left: vec![self.params.groups],
                right: vec![1],
                op: "int8 conv requires groups=1",
            });
        }
        Ok(self.int8.get_or_init(|| {
            crate::quant::QuantizedConv::prepare(&self.weight(), &self.params)
                .expect("eligibility checked above")
        }))
    }

    /// Records the calibration-observed activation range consumed by the int8
    /// path (see `Network::calibrate_int8_ranges` in `rescnn-models`). Without
    /// it, int8 forwards derive the range from each input dynamically.
    pub fn set_int8_range(&mut self, lo: f32, hi: f32) {
        self.int8_range = Some((lo, hi));
    }

    /// The recorded int8 activation range, if calibration ran.
    pub fn int8_range(&self) -> Option<(f32, f32)> {
        self.int8_range
    }

    /// Bytes resident in packed form: the GEMM panels (the layer's only f32
    /// weight copy; zero for depthwise layers, which keep the raw tensor
    /// instead) plus any cached Winograd banks or int8 panels.
    pub fn prepacked_bytes(&self) -> usize {
        let panels = match &self.weights {
            LayerWeights::Raw(_) => 0,
            LayerWeights::Packed(groups) => {
                groups.iter().map(engine::PreparedGemmA::resident_bytes).sum()
            }
        };
        panels
            + self.winograd.get().map_or(0, WinogradFilter::resident_bytes)
            + self.winograd_f4.get().map_or(0, WinogradFilter::resident_bytes)
            + self.int8.get().map_or(0, crate::quant::QuantizedConv::resident_bytes)
    }

    /// Runs the layer with an explicit algorithm (shapes the algorithm cannot
    /// execute fall back to [`ConvAlgo::Im2colPacked`], mirroring
    /// [`conv2d_with_algo`]), writing into `out` with the fused epilogue.
    /// Every element of `out` is overwritten, and nothing past it, so its
    /// prior contents do not matter.
    ///
    /// The engine algorithms run fully prepacked and fused; the reference
    /// algorithm ([`ConvAlgo::Direct`]) runs its allocating path followed by
    /// separate epilogue passes — semantically (and bitwise) the same
    /// composition.
    ///
    /// # Errors
    /// Returns an error if the input, output, or residual shapes are
    /// inconsistent with the layer.
    pub fn forward_with_algo_into<'a>(
        &self,
        input: impl Into<TensorView<'a>>,
        algo: ConvAlgo,
        epilogue: ConvEpilogue<'_>,
        out: impl Into<TensorViewMut<'a>>,
    ) -> Result<()> {
        let (input, mut out) = (input.into(), out.into());
        let algo = if algo.supports(&self.params) { algo } else { ConvAlgo::Im2colPacked };
        let bias = self.bias.as_deref();
        let gemm_weights = match &self.weights {
            LayerWeights::Raw(weight) => ConvWeights::Raw(weight.as_slice()),
            LayerWeights::Packed(groups) => ConvWeights::Packed(groups),
        };
        match algo {
            ConvAlgo::Im2colPacked => {
                im2col_packed_into(input, gemm_weights, bias, &self.params, epilogue, out)
            }
            ConvAlgo::Gemm1x1 => {
                gemm_1x1_into(input, gemm_weights, bias, &self.params, epilogue, out)
            }
            ConvAlgo::Depthwise => {
                // `supports` admitted the algorithm, so the weights are raw: a borrow.
                depthwise_into(input, self.weight().as_slice(), bias, &self.params, epilogue, out)
            }
            ConvAlgo::Winograd => {
                let filter = self.winograd_filter()?;
                conv2d_winograd_fused_into(
                    input,
                    filter,
                    bias,
                    &self.params,
                    epilogue.activation,
                    epilogue.residual,
                    out,
                )
            }
            ConvAlgo::WinogradF4 => {
                let filter = self.winograd_filter_f4()?;
                crate::winograd::conv2d_winograd_f4_fused_into(
                    input,
                    filter,
                    bias,
                    &self.params,
                    epilogue.activation,
                    epilogue.residual,
                    out,
                )
            }
            ConvAlgo::Int8 => {
                let qconv = self.int8_weights()?;
                crate::quant::int8_packed_into(
                    input,
                    qconv,
                    bias,
                    &self.params,
                    epilogue,
                    self.int8_range,
                    out,
                )
            }
            ConvAlgo::Direct => {
                let oshape = self.params.output_shape(input.shape())?;
                validate_into("conv", oshape, out.shape(), epilogue.residual_shape())?;
                let tmp = conv2d_direct(input, &self.weight(), bias, &self.params)?;
                out.as_mut_slice().copy_from_slice(tmp.as_slice());
                apply_epilogue_separately(out.as_mut_slice(), &epilogue);
                Ok(())
            }
        }
    }
}

/// The unfused composition of a [`ConvEpilogue`]: separate residual-add and
/// activation passes over the finished convolution output. Used by the
/// reference algorithms; bitwise identical to the fused kernels' epilogues.
fn apply_epilogue_separately(out: &mut [f32], epilogue: &ConvEpilogue<'_>) {
    match (epilogue.residual, epilogue.activation) {
        (None, FusedActivation::None) => {}
        (Some(skip), act) => {
            for (o, &s) in out.iter_mut().zip(skip.as_slice()) {
                *o = act.apply(*o + s);
            }
        }
        (None, act) => {
            for o in out.iter_mut() {
                *o = act.apply(*o);
            }
        }
    }
}

/// Valid output range `[lo, hi)` along one spatial axis for a fixed kernel offset:
/// the positions whose sampled input index lands inside `[0, input_extent)`.
pub(crate) fn valid_out_range(
    input_extent: usize,
    out_extent: usize,
    kernel_offset: usize,
    stride: usize,
    padding: usize,
) -> (usize, usize) {
    let lo = if kernel_offset >= padding { 0 } else { (padding - kernel_offset).div_ceil(stride) };
    let last_valid = input_extent - 1 + padding;
    if last_valid < kernel_offset {
        return (0, 0);
    }
    let hi = ((last_valid - kernel_offset) / stride + 1).min(out_extent);
    (lo.min(hi), hi)
}

/// Packs an im2col stripe (output rows `[oh0, oh1)` of image `batch`) directly
/// into the engine's `NR`-column panel layout, skipping the intermediate
/// row-major column matrix entirely; the stripe's first column lands at panel
/// column `col_base`, so the stripes of several images can share one packed
/// operand. `dst` must arrive zeroed (padding positions are never written).
#[allow(clippy::too_many_arguments)]
fn im2col_pack_stripe(
    input: &TensorView<'_>,
    params: &Conv2dParams,
    batch: usize,
    group: usize,
    oshape: Shape,
    oh0: usize,
    oh1: usize,
    col_base: usize,
    dst: &mut [f32],
) {
    let ishape = input.shape();
    let k = params.kernel;
    let stride = params.stride;
    let pad = params.padding;
    let in_per_group = params.in_channels / params.groups;
    let rows = in_per_group * k * k;
    let panel_stride = rows * NR;

    for icg in 0..in_per_group {
        let plane = input.plane(batch, group * in_per_group + icg);
        for kh in 0..k {
            let (oh_lo, oh_hi) = valid_out_range(ishape.h, oshape.h, kh, stride, pad);
            for kw in 0..k {
                let row = (icg * k + kh) * k + kw;
                let (ow_lo, ow_hi) = valid_out_range(ishape.w, oshape.w, kw, stride, pad);
                if ow_lo >= ow_hi {
                    continue;
                }
                for oh in oh_lo.max(oh0)..oh_hi.min(oh1) {
                    let ih = oh * stride + kh - pad;
                    let src_row = &plane[ih * ishape.w..(ih + 1) * ishape.w];
                    let j0 = col_base + (oh - oh0) * oshape.w + ow_lo;
                    let mut within = j0 % NR;
                    let mut index = (j0 / NR) * panel_stride + row * NR + within;
                    // Copy in panel-aligned runs: each run fills the rest of one
                    // panel row, gathered from every `stride`-th source element.
                    let mut iw = ow_lo * stride + kw - pad;
                    let mut remaining = ow_hi - ow_lo;
                    while remaining > 0 {
                        let run = (NR - within).min(remaining);
                        gather_strided(&mut dst[index..index + run], &src_row[iw..], stride);
                        iw += run * stride;
                        remaining -= run;
                        index += run + if within + run == NR { panel_stride - NR } else { 0 };
                        within = (within + run) % NR;
                    }
                }
            }
        }
    }
}

/// Fills `dst` with `src[0], src[stride], src[2·stride], …`. `src` must hold
/// the last sample, `src[(dst.len() − 1) · stride]`, but need not extend past
/// it. Stride 2 (the stem, the stride-2 3×3 and the 1×1 downsample layers)
/// reads pairs, which the compiler turns into vector shuffles.
#[inline]
fn gather_strided(dst: &mut [f32], src: &[f32], stride: usize) {
    match stride {
        1 => dst.copy_from_slice(&src[..dst.len()]),
        2 => {
            let Some((last, head)) = dst.split_last_mut() else { return };
            for (d, pair) in head.iter_mut().zip(src.chunks_exact(2)) {
                *d = pair[0];
            }
            *last = src[head.len() * 2];
        }
        _ => {
            for (d, &s) in dst.iter_mut().zip(src.iter().step_by(stride)) {
                *d = s;
            }
        }
    }
}

/// Output-row stripe height of one packed im2col stripe: the engine's B-stripe
/// rule ([`engine::b_stripe_rows`]; taller stripes at low resolution, shorter
/// at high resolution), capped at the output height.
pub(crate) fn stripe_height(rows: usize, oshape: Shape) -> usize {
    engine::b_stripe_rows(rows, oshape.w).clamp(1, oshape.h)
}

/// The weight operand of an engine GEMM convolution: raw row-major weights
/// (packed into panels per call) or per-group panels prepacked once by
/// [`PreparedLayer`].
#[derive(Debug, Clone, Copy)]
enum ConvWeights<'a> {
    Raw(&'a [f32]),
    Packed(&'a [engine::PreparedGemmA]),
}

impl<'a> ConvWeights<'a> {
    /// The GEMM left operand for one channel group (`rows_per_group` output
    /// rows over a shared dimension of `k`).
    fn group_lhs(&self, group: usize, rows_per_group: usize, k: usize) -> engine::GemmLhs<'a> {
        match *self {
            ConvWeights::Raw(data) => engine::GemmLhs::Rows {
                data: &data[group * rows_per_group * k..(group + 1) * rows_per_group * k],
                lda: k,
            },
            ConvWeights::Packed(groups) => groups[group].as_lhs(),
        }
    }
}

/// The fused tail of a convolution: an optional residual operand added to the
/// output and a pointwise activation, executed inside the kernel's output write
/// (GEMM epilogue, Winograd output transform, or the depthwise kernel's final
/// plane sweep) instead of separate passes over the feature map.
///
/// Fusion order matches the separate-pass composition (`act(conv + residual)`)
/// exactly, so fused and unfused execution are bitwise identical.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConvEpilogue<'a> {
    /// Activation applied to the final value.
    pub activation: FusedActivation,
    /// Residual operand (must match the output shape) added before the
    /// activation — the ResNet block tail.
    pub residual: Option<TensorView<'a>>,
}

impl<'a> ConvEpilogue<'a> {
    /// An epilogue applying only an activation.
    pub fn activation(activation: FusedActivation) -> Self {
        ConvEpilogue { activation, residual: None }
    }

    /// Adds a residual operand.
    pub fn with_residual(mut self, residual: impl Into<TensorView<'a>>) -> Self {
        self.residual = Some(residual.into());
        self
    }

    /// The residual operand's shape, if there is one.
    pub(crate) fn residual_shape(&self) -> Option<Shape> {
        self.residual.map(|skip| skip.shape())
    }
}

/// Engine path for general convolutions: packing-aware im2col stripes + packed
/// parallel GEMM, with zero steady-state allocations (all working memory comes from
/// the thread-local scratch arena).
///
/// # Errors
/// Returns an error if the parameters, weight shape, or bias length are inconsistent
/// with the input shape.
pub fn conv2d_im2col_packed(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&[f32]>,
    params: &Conv2dParams,
) -> Result<Tensor> {
    validate_weight(params, weight)?;
    let mut out = Tensor::zeros(params.output_shape(input.shape())?);
    im2col_packed_into(
        input.into(),
        ConvWeights::Raw(weight.as_slice()),
        bias,
        params,
        ConvEpilogue::default(),
        (&mut out).into(),
    )?;
    Ok(out)
}

/// Core of the packed-im2col path; every element of `out` is overwritten.
///
/// The images of a batch are folded into the GEMM's columns: stripes of whole
/// output rows run over the batch's rows back to back, so one stripe (and one
/// pass over the weights) may cover several small images, and the engine
/// writes column `j` of a stripe to its image's plane. Every output element
/// accumulates exactly as in a single-image call, so the fold changes no bit.
fn im2col_packed_into(
    input: TensorView<'_>,
    weights: ConvWeights<'_>,
    bias: Option<&[f32]>,
    params: &Conv2dParams,
    epilogue: ConvEpilogue<'_>,
    mut out: TensorViewMut<'_>,
) -> Result<()> {
    validate_bias(params, bias)?;
    let ishape = input.shape();
    let oshape = params.output_shape(ishape)?;
    validate_into("conv", oshape, out.shape(), epilogue.residual_shape())?;

    let k = params.kernel;
    let in_per_group = params.in_channels / params.groups;
    let out_per_group = params.out_channels / params.groups;
    let rows = in_per_group * k * k;
    let plane = oshape.h * oshape.w;
    let image_len = params.out_channels * plane;
    // Output rows of every image, back to back.
    let batch_rows = oshape.n * oshape.h;
    let stripe_oh = engine::b_stripe_rows(rows, oshape.w).clamp(1, batch_rows.max(1));
    let parallel = params.macs(ishape).unwrap_or(0) >= engine::PARALLEL_MIN_MACS;

    let residual = epilogue.residual.map(|skip| skip.as_slice());
    let out_data = out.as_mut_slice();
    for g in 0..params.groups {
        let lhs = weights.group_lhs(g, out_per_group, rows);
        let group_bias = bias.map(|b| &b[g * out_per_group..(g + 1) * out_per_group]);
        let region_start = g * out_per_group * plane;
        let region = &mut out_data[region_start..];
        let group_skip = residual.map(|s| &s[region_start..]);
        let mut row0 = 0;
        while row0 < batch_rows {
            let row1 = (row0 + stripe_oh).min(batch_rows);
            let stripe_cols = (row1 - row0) * oshape.w;
            let mut bpack = scratch::take(stripe_cols.div_ceil(NR) * rows * NR);
            for n in row0 / oshape.h..row1.div_ceil(oshape.h) {
                let oh0 = row0.max(n * oshape.h) - n * oshape.h;
                let oh1 = row1.min((n + 1) * oshape.h) - n * oshape.h;
                let col_base = (n * oshape.h + oh0 - row0) * oshape.w;
                im2col_pack_stripe(&input, params, n, g, oshape, oh0, oh1, col_base, &mut bpack);
            }
            engine::parallel_packed_gemm(
                lhs,
                out_per_group,
                rows,
                &bpack,
                stripe_cols,
                region,
                ColumnLayout::images(oshape.n, plane, row0 * oshape.w, plane, image_len),
                engine::Epilogue {
                    bias: group_bias,
                    residual: group_skip,
                    activation: epilogue.activation,
                },
                false,
                parallel,
            );
            scratch::give(bpack);
            row0 = row1;
        }
    }
    Ok(())
}

/// Engine fast path for 1×1 stride-1 pad-0 convolutions: the input planes of each
/// group already form the GEMM right-hand side, so the convolution is a single packed
/// GEMM per (batch, group) with no lowering step at all.
///
/// # Errors
/// Returns an error if the shape is not a 1×1 stride-1 pad-0 convolution, or if the
/// parameters, weight shape, or bias length are inconsistent with the input shape.
pub fn conv2d_gemm_1x1(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&[f32]>,
    params: &Conv2dParams,
) -> Result<Tensor> {
    validate_weight(params, weight)?;
    let mut out = Tensor::zeros(params.output_shape(input.shape())?);
    gemm_1x1_into(
        input.into(),
        ConvWeights::Raw(weight.as_slice()),
        bias,
        params,
        ConvEpilogue::default(),
        (&mut out).into(),
    )?;
    Ok(out)
}

/// Core of the 1×1 fast path; every element of `out` is overwritten. The
/// images of a batch are folded into the GEMM's columns (column `j` is pixel
/// `j % (h·w)` of image `j / (h·w)`), so one column stripe may draw from
/// several small images; as in [`im2col_packed_into`] no bit changes.
fn gemm_1x1_into(
    input: TensorView<'_>,
    weights: ConvWeights<'_>,
    bias: Option<&[f32]>,
    params: &Conv2dParams,
    epilogue: ConvEpilogue<'_>,
    mut out: TensorViewMut<'_>,
) -> Result<()> {
    if !ConvAlgo::Gemm1x1.supports(params) {
        return Err(TensorError::ShapeMismatch {
            left: vec![params.kernel, params.stride, params.padding],
            right: vec![1, 1, 0],
            op: "conv2d_gemm_1x1 requires kernel=1 stride=1 padding=0",
        });
    }
    validate_bias(params, bias)?;
    let ishape = input.shape();
    validate_into("conv", params.output_shape(ishape)?, out.shape(), epilogue.residual_shape())?;

    let hw = ishape.h * ishape.w;
    let batch_cols = ishape.n * hw;
    let in_per_group = params.in_channels / params.groups;
    let out_per_group = params.out_channels / params.groups;
    // Column stripes bound packed-B scratch for high-resolution feature maps.
    let stripe_cols_max = engine::b_stripe_cols(in_per_group);
    let parallel = params.macs(ishape).unwrap_or(0) >= engine::PARALLEL_MIN_MACS;

    let residual = epilogue.residual.map(|skip| skip.as_slice());
    let in_data = input.as_slice();
    let out_data = out.as_mut_slice();
    for g in 0..params.groups {
        let lhs = weights.group_lhs(g, out_per_group, in_per_group);
        let group_bias = bias.map(|b| &b[g * out_per_group..(g + 1) * out_per_group]);
        let in_region = &in_data[g * in_per_group * hw..];
        let out_start = g * out_per_group * hw;
        let out_region = &mut out_data[out_start..];
        let group_skip = residual.map(|s| &s[out_start..]);
        let mut j0 = 0;
        while j0 < batch_cols {
            let width = stripe_cols_max.min(batch_cols - j0);
            let mut bpack = scratch::take_uninit(width.div_ceil(NR) * in_per_group * NR);
            engine::pack_b_columns(
                in_region,
                in_per_group,
                ColumnLayout::images(ishape.n, hw, j0, hw, params.in_channels * hw),
                width,
                &mut bpack,
            );
            engine::parallel_packed_gemm(
                lhs,
                out_per_group,
                in_per_group,
                &bpack,
                width,
                out_region,
                ColumnLayout::images(ishape.n, hw, j0, hw, params.out_channels * hw),
                engine::Epilogue {
                    bias: group_bias,
                    residual: group_skip,
                    activation: epilogue.activation,
                },
                false,
                parallel,
            );
            scratch::give(bpack);
            j0 += width;
        }
    }
    Ok(())
}

/// Engine kernel for depthwise convolutions (`groups == in_channels == out_channels`):
/// per-channel shift-and-accumulate over contiguous rows, vectorizable at stride 1,
/// parallel over output planes.
///
/// # Errors
/// Returns an error if the shape is not depthwise, or if the parameters, weight
/// shape, or bias length are inconsistent with the input shape.
pub fn conv2d_depthwise(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&[f32]>,
    params: &Conv2dParams,
) -> Result<Tensor> {
    validate_weight(params, weight)?;
    if !ConvAlgo::Depthwise.supports(params) {
        return Err(TensorError::InvalidGrouping {
            in_channels: params.in_channels,
            out_channels: params.out_channels,
            groups: params.groups,
        });
    }
    let mut out = Tensor::zeros(params.output_shape(input.shape())?);
    let epilogue = ConvEpilogue::default();
    depthwise_into(input.into(), weight.as_slice(), bias, params, epilogue, (&mut out).into())?;
    Ok(out)
}

/// Core of the depthwise kernel; every element of `out` is overwritten. The
/// epilogue (residual + activation) runs as a final sweep over each plane while
/// it is still cache-resident — one fused pass instead of separate full-tensor
/// sweeps after the convolution.
fn depthwise_into(
    input: TensorView<'_>,
    wdata: &[f32],
    bias: Option<&[f32]>,
    params: &Conv2dParams,
    epilogue: ConvEpilogue<'_>,
    mut out: TensorViewMut<'_>,
) -> Result<()> {
    if !ConvAlgo::Depthwise.supports(params) {
        return Err(TensorError::InvalidGrouping {
            in_channels: params.in_channels,
            out_channels: params.out_channels,
            groups: params.groups,
        });
    }
    validate_bias(params, bias)?;
    let ishape = input.shape();
    let oshape = params.output_shape(ishape)?;
    validate_into("conv", oshape, out.shape(), epilogue.residual_shape())?;

    let k = params.kernel;
    let stride = params.stride;
    let pad = params.padding;
    let ksq = k * k;
    let channels = params.in_channels;
    let out_plane = oshape.h * oshape.w;
    let parallel = params.macs(ishape).unwrap_or(0) >= engine::PARALLEL_MIN_MACS;

    let residual = epilogue.residual.map(|skip| skip.as_slice());
    let activation = epilogue.activation;
    let in_data = input.as_slice();
    let in_plane = ishape.h * ishape.w;
    parallel::for_each_chunk(out.as_mut_slice(), out_plane, parallel, |plane_index, dst| {
        let n = plane_index / channels;
        let c = plane_index % channels;
        let src = &in_data[(n * channels + c) * in_plane..(n * channels + c + 1) * in_plane];
        let wk = &wdata[c * ksq..(c + 1) * ksq];
        dst.fill(bias.map_or(0.0, |b| b[c]));
        for kh in 0..k {
            let (oh_lo, oh_hi) = valid_out_range(ishape.h, oshape.h, kh, stride, pad);
            for kw in 0..k {
                let w = wk[kh * k + kw];
                let (ow_lo, ow_hi) = valid_out_range(ishape.w, oshape.w, kw, stride, pad);
                if ow_lo >= ow_hi {
                    continue;
                }
                for oh in oh_lo..oh_hi {
                    let ih = oh * stride + kh - pad;
                    let iw0 = ow_lo * stride + kw - pad;
                    let dst_row = &mut dst[oh * oshape.w + ow_lo..oh * oshape.w + ow_hi];
                    if stride == 1 {
                        let src_row = &src[ih * ishape.w + iw0..][..ow_hi - ow_lo];
                        for (d, &s) in dst_row.iter_mut().zip(src_row) {
                            *d += w * s;
                        }
                    } else {
                        let src_row = &src[ih * ishape.w..(ih + 1) * ishape.w];
                        let mut iw = iw0;
                        for d in dst_row.iter_mut() {
                            *d += w * src_row[iw];
                            iw += stride;
                        }
                    }
                }
            }
        }
        // Fused tail while the plane is still hot.
        match (residual, activation) {
            (None, FusedActivation::None) => {}
            (skip, act) => {
                let skip = skip.map(|s| &s[plane_index * out_plane..(plane_index + 1) * out_plane]);
                match skip {
                    Some(skip) => {
                        for (d, &s) in dst.iter_mut().zip(skip) {
                            *d = act.apply(*d + s);
                        }
                    }
                    None => {
                        for d in dst.iter_mut() {
                            *d = act.apply(*d);
                        }
                    }
                }
            }
        }
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_input(shape: Shape, seed: u64) -> Tensor {
        Tensor::random_uniform(shape, 1.0, seed)
    }

    fn sample_weight(params: &Conv2dParams, seed: u64) -> Tensor {
        let shape = Shape::new(
            params.out_channels,
            params.in_channels / params.groups,
            params.kernel,
            params.kernel,
        );
        Tensor::random_uniform(shape, 0.5, seed)
    }

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.shape(), b.shape());
        let diff = a.max_abs_diff(b).unwrap();
        assert!(diff < tol, "tensors differ by {diff}");
    }

    #[test]
    fn identity_kernel_reproduces_input() {
        // 1x1 convolution with identity weights is a channel-wise copy.
        let params = Conv2dParams::new(3, 3, 1, 1, 0);
        let input = sample_input(Shape::chw(3, 9, 9), 1);
        let weight =
            Tensor::from_fn(Shape::new(3, 3, 1, 1), |o, i, _, _| if o == i { 1.0 } else { 0.0 });
        let out = conv2d_direct(&input, &weight, None, &params).unwrap();
        assert_close(&out, &input, 1e-6);
        let fast = conv2d_gemm_1x1(&input, &weight, None, &params).unwrap();
        assert_close(&fast, &input, 1e-6);
    }

    #[test]
    fn bias_is_added() {
        let params = Conv2dParams::new(1, 2, 1, 1, 0);
        let input = Tensor::ones(Shape::chw(1, 2, 2));
        let weight = Tensor::zeros(Shape::new(2, 1, 1, 1));
        let out = conv2d_direct(&input, &weight, Some(&[3.0, -1.0]), &params).unwrap();
        assert_eq!(out.plane(0, 0), &[3.0; 4]);
        assert_eq!(out.plane(0, 1), &[-1.0; 4]);
        let fast = conv2d_gemm_1x1(&input, &weight, Some(&[3.0, -1.0]), &params).unwrap();
        assert_eq!(fast.plane(0, 0), &[3.0; 4]);
        assert_eq!(fast.plane(0, 1), &[-1.0; 4]);
    }

    #[test]
    fn im2col_matches_direct_dense() {
        for (k, stride, pad, h) in
            [(3, 1, 1, 11), (3, 2, 1, 13), (1, 1, 0, 9), (7, 2, 3, 17), (5, 1, 2, 10)]
        {
            let params = Conv2dParams::new(4, 6, k, stride, pad);
            let input = sample_input(Shape::new(2, 4, h, h), 42 + k as u64);
            let weight = sample_weight(&params, 7 + k as u64);
            let bias: Vec<f32> = (0..6).map(|i| i as f32 * 0.1).collect();
            let direct = conv2d_direct(&input, &weight, Some(&bias), &params).unwrap();
            let packed = conv2d_im2col_packed(&input, &weight, Some(&bias), &params).unwrap();
            assert_close(&direct, &packed, 1e-3);
        }
    }

    #[test]
    fn im2col_matches_direct_grouped_and_depthwise() {
        let params = Conv2dParams::new(8, 8, 3, 1, 1).with_groups(4);
        let input = sample_input(Shape::chw(8, 10, 10), 5);
        let weight = sample_weight(&params, 6);
        let direct = conv2d_direct(&input, &weight, None, &params).unwrap();
        let packed = conv2d_im2col_packed(&input, &weight, None, &params).unwrap();
        assert_close(&direct, &packed, 1e-3);

        let dw = Conv2dParams::depthwise(6, 3, 2, 1);
        let input = sample_input(Shape::chw(6, 15, 15), 9);
        let weight = sample_weight(&dw, 10);
        let direct = conv2d_direct(&input, &weight, None, &dw).unwrap();
        let dedicated = conv2d_depthwise(&input, &weight, None, &dw).unwrap();
        assert_close(&direct, &dedicated, 1e-3);
    }

    #[test]
    fn weight_shape_is_validated() {
        let params = Conv2dParams::new(3, 4, 3, 1, 1);
        let input = sample_input(Shape::chw(3, 8, 8), 1);
        let bad_weight = Tensor::zeros(Shape::new(4, 3, 5, 5));
        assert!(conv2d_direct(&input, &bad_weight, None, &params).is_err());
        assert!(conv2d_im2col_packed(&input, &bad_weight, None, &params).is_err());
        let good_weight = sample_weight(&params, 2);
        assert!(conv2d_direct(&input, &good_weight, Some(&[0.0; 3]), &params).is_err());
        assert!(conv2d_im2col_packed(&input, &good_weight, Some(&[0.0; 3]), &params).is_err());
    }

    #[test]
    fn strided_output_shape() {
        let params = Conv2dParams::new(3, 8, 3, 2, 1);
        let input = sample_input(Shape::chw(3, 224, 224), 0);
        let out = conv2d(&input, &sample_weight(&params, 1), None, &params).unwrap();
        assert_eq!(out.shape(), Shape::new(1, 8, 112, 112));
    }

    #[test]
    fn dispatch_selects_the_documented_algorithms() {
        let shape = Shape::chw(16, 32, 32);
        assert_eq!(select_algo(&Conv2dParams::new(16, 32, 1, 1, 0), shape), ConvAlgo::Gemm1x1);
        assert_eq!(select_algo(&Conv2dParams::depthwise(16, 3, 1, 1), shape), ConvAlgo::Depthwise);
        // 1x1 stride-2 must not take the fast path (it subsamples).
        assert_eq!(select_algo(&Conv2dParams::new(16, 32, 1, 2, 0), shape), ConvAlgo::Im2colPacked);
        // Dense 3x3 stride-1: a Winograd arm once its tiles fill a column panel
        // (the full table lives in `tests/dispatch_rule.rs`).
        let dense = Conv2dParams::new(16, 32, 3, 1, 1);
        assert_eq!(select_algo(&dense, shape), ConvAlgo::WinogradF4, "8·8 F(4×4) tiles");
        assert_eq!(select_algo(&dense, Shape::chw(16, 16, 16)), ConvAlgo::Im2colPacked, "4·4");
        let wide = Conv2dParams::new(160, 32, 3, 1, 1);
        assert_eq!(select_algo(&wide, Shape::chw(160, 32, 32)), ConvAlgo::Winograd, "16·16 F(2×2)");
        assert_eq!(select_algo(&wide, Shape::chw(160, 10, 10)), ConvAlgo::Im2colPacked, "5·5");
        assert_eq!(select_algo(&Conv2dParams::new(16, 32, 3, 2, 1), shape), ConvAlgo::Im2colPacked);
    }

    #[test]
    fn dispatch_reports_and_matches_reference() {
        for params in [
            Conv2dParams::new(5, 7, 3, 1, 1),
            Conv2dParams::new(5, 7, 1, 1, 0),
            Conv2dParams::depthwise(6, 3, 1, 1),
        ] {
            let input = sample_input(Shape::chw(params.in_channels, 14, 14), 3);
            let weight = sample_weight(&params, 4);
            let (out, algo) = conv2d_dispatch(&input, &weight, None, &params).unwrap();
            assert_eq!(algo, select_algo(&params, input.shape()));
            let reference = conv2d_direct(&input, &weight, None, &params).unwrap();
            assert_close(&out, &reference, 1e-3);
        }
    }

    #[test]
    fn forced_algo_overrides_and_falls_back() {
        let params = Conv2dParams::new(4, 4, 3, 1, 1);
        let input = sample_input(Shape::chw(4, 10, 10), 1);
        let weight = sample_weight(&params, 2);
        let dispatched = |algo| {
            let context = crate::context::EngineContext::new().with_algo(algo);
            context.scope(|| conv2d_dispatch(&input, &weight, None, &params)).unwrap().1
        };
        assert_eq!(dispatched(ConvAlgo::Direct), ConvAlgo::Direct);
        // A pinned algo that cannot run this shape falls back to auto-dispatch.
        assert_eq!(dispatched(ConvAlgo::Gemm1x1), ConvAlgo::Im2colPacked);
        let (_, algo) = conv2d_dispatch(&input, &weight, None, &params).unwrap();
        assert_eq!(algo, ConvAlgo::Im2colPacked);
    }

    #[test]
    fn algo_support_matrix() {
        let dense = Conv2dParams::new(8, 16, 3, 1, 1);
        let pointwise = Conv2dParams::new(8, 16, 1, 1, 0);
        let depthwise = Conv2dParams::depthwise(8, 3, 1, 1);
        assert!(ConvAlgo::Im2colPacked.supports(&dense));
        assert!(!ConvAlgo::Gemm1x1.supports(&dense));
        assert!(ConvAlgo::Gemm1x1.supports(&pointwise));
        assert!(ConvAlgo::Depthwise.supports(&depthwise));
        assert!(!ConvAlgo::Depthwise.supports(&dense));
        assert_eq!(ConvAlgo::Gemm1x1.to_string(), "gemm_1x1");
        // The Winograd arm covers stride-1 dense 3x3 layers only.
        assert!(ConvAlgo::Winograd.supports(&dense));
        assert!(!ConvAlgo::Winograd.supports(&pointwise));
        assert!(!ConvAlgo::Winograd.supports(&depthwise));
        assert!(!ConvAlgo::Winograd.supports(&Conv2dParams::new(8, 16, 3, 2, 1)));
        for algo in ConvAlgo::ALL {
            assert_eq!(ConvAlgo::from_name(&algo.to_string()), Some(algo));
        }
        assert_eq!(ConvAlgo::from_name("made_up"), None);
    }

    #[test]
    fn grouped_1x1_takes_fast_path_correctly() {
        let params = Conv2dParams::new(8, 12, 1, 1, 0).with_groups(4);
        let input = sample_input(Shape::new(2, 8, 9, 9), 13);
        let weight = sample_weight(&params, 14);
        let bias: Vec<f32> = (0..12).map(|i| 0.05 * i as f32).collect();
        let direct = conv2d_direct(&input, &weight, Some(&bias), &params).unwrap();
        let fast = conv2d_gemm_1x1(&input, &weight, Some(&bias), &params).unwrap();
        assert_close(&direct, &fast, 1e-3);
    }

    #[test]
    fn depthwise_strided_and_padded() {
        for (k, stride, pad, h) in [(3, 1, 1, 13), (3, 2, 1, 16), (5, 2, 2, 19), (3, 3, 0, 15)] {
            let params = Conv2dParams::depthwise(5, k, stride, pad);
            let input = sample_input(Shape::new(2, 5, h, h), 100 + k as u64);
            let weight = sample_weight(&params, 200 + stride as u64);
            let bias: Vec<f32> = (0..5).map(|i| i as f32 * 0.2).collect();
            let direct = conv2d_direct(&input, &weight, Some(&bias), &params).unwrap();
            let dedicated = conv2d_depthwise(&input, &weight, Some(&bias), &params).unwrap();
            assert_close(&direct, &dedicated, 1e-4);
        }
    }

    /// The per-element packer `im2col_pack_stripe` used before its run-based
    /// strided gather: one scatter, with its own panel arithmetic, per sampled
    /// input element. Kept as the oracle the run-based packer must match
    /// bitwise.
    #[allow(clippy::too_many_arguments)]
    fn im2col_pack_stripe_per_element(
        input: &Tensor,
        params: &Conv2dParams,
        batch: usize,
        group: usize,
        oshape: Shape,
        oh0: usize,
        oh1: usize,
        dst: &mut [f32],
    ) {
        let ishape = input.shape();
        let (k, stride, pad) = (params.kernel, params.stride, params.padding);
        let in_per_group = params.in_channels / params.groups;
        let panel_stride = in_per_group * k * k * NR;
        for icg in 0..in_per_group {
            let plane = input.plane(batch, group * in_per_group + icg);
            for kh in 0..k {
                let (oh_lo, oh_hi) = valid_out_range(ishape.h, oshape.h, kh, stride, pad);
                for kw in 0..k {
                    let row = (icg * k + kh) * k + kw;
                    let (ow_lo, ow_hi) = valid_out_range(ishape.w, oshape.w, kw, stride, pad);
                    for oh in oh_lo.max(oh0)..oh_hi.min(oh1) {
                        for ow in ow_lo..ow_hi {
                            let j = (oh - oh0) * oshape.w + ow;
                            let (ih, iw) = (oh * stride + kh - pad, ow * stride + kw - pad);
                            dst[(j / NR) * panel_stride + row * NR + j % NR] =
                                plane[ih * ishape.w + iw];
                        }
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn run_based_packer_matches_per_element_oracle_bitwise(
            (kernel, stride, pad_draw) in (
                prop_oneof![Just(1usize), Just(3usize), Just(7usize)],
                1usize..4,
                0usize..4,
            ),
            (in_ch, groups, ih, iw, batch) in (1usize..6, 1usize..3, 1usize..40, 1usize..70, 1usize..3),
            (stripe_draw, start_draw) in (0usize..64, 0usize..64),
        ) {
            let pad = pad_draw % (kernel / 2 + 1);
            let params =
                Conv2dParams::new(in_ch * groups, 2 * groups, kernel, stride, pad).with_groups(groups);
            let shape = Shape::new(batch, in_ch * groups, ih, iw);
            let Ok(oshape) = params.output_shape(shape) else {
                return Err(TestCaseError::Reject);
            };
            let input = sample_input(shape, (ih * 97 + iw) as u64);
            let oh0 = start_draw % oshape.h;
            let oh1 = (oh0 + 1 + stripe_draw % oshape.h).min(oshape.h);
            let len = ((oh1 - oh0) * oshape.w).div_ceil(NR) * in_ch * kernel * kernel * NR;
            for (n, g) in (0..batch).flat_map(|n| (0..groups).map(move |g| (n, g))) {
                let mut runs = vec![0.0f32; len];
                let mut oracle = vec![0.0f32; len];
                im2col_pack_stripe(&(&input).into(), &params, n, g, oshape, oh0, oh1, 0, &mut runs);
                im2col_pack_stripe_per_element(&input, &params, n, g, oshape, oh0, oh1, &mut oracle);
                prop_assert!(
                    runs.iter().zip(&oracle).all(|(x, y)| x.to_bits() == y.to_bits()),
                    "packers differ for {params:?} at {shape}, stripe {oh0}..{oh1}"
                );
            }
        }
    }

    #[test]
    fn wrong_shape_for_specialized_kernels_errors() {
        let not_1x1 = Conv2dParams::new(4, 4, 3, 1, 1);
        let input = sample_input(Shape::chw(4, 8, 8), 1);
        let weight = sample_weight(&not_1x1, 2);
        assert!(conv2d_gemm_1x1(&input, &weight, None, &not_1x1).is_err());
        assert!(conv2d_depthwise(&input, &weight, None, &not_1x1).is_err());
    }
}
