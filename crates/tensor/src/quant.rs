//! Int8-quantized convolution arm ([`ConvAlgo::Int8`](crate::ConvAlgo::Int8)).
//!
//! The second numeric regime of the engine: weights are quantized **per output
//! channel** to symmetric i8 at prepack time ([`QuantizedConv::prepare`]) and
//! activations **per tensor** to asymmetric u8 at call time (from a
//! calibration-recorded range, or a dynamic min/max scan when none is
//! recorded). The convolution then runs as a u8×i8 integer GEMM over the same
//! packed-panel/stripe structure as the f32 engine — quantized im2col packs
//! directly into byte panels from the [`scratch`] byte pool — with i32
//! accumulation and a fused dequantize + [`ConvEpilogue`] (bias, residual,
//! activation) writeback.
//!
//! # Accumulation layout
//!
//! The shared dimension is processed in **quads** of four consecutive k
//! indices, matching the `vpdpbusd`/`vpmaddubsw` dot-product granularity:
//!
//! * **A (weights, i8)** — tile `t` covers output channels `[t*MR, t*MR+MR)`;
//!   quad `q`, row `r` packs weight bytes `k = 4q..4q+4` into one little-endian
//!   `i32` at `panels[t*quads*MR + q*MR + r]`, broadcast whole into the
//!   microkernel's dword lanes.
//! * **B (activations, u8)** — panel `p` covers `NR` output pixels; quad `q`,
//!   pixel `j` occupies bytes `p*quads*NR*4 + q*NR*4 + j*4 ..+4`, so one vector
//!   load reads the same quad for 16 (zmm) or 8 (ymm) pixels. Padding positions
//!   and quad tails are pre-filled with the activation **zero-point** (the
//!   exact encoding of `0.0`); weight quad tails are zero bytes, so either side
//!   of the tail contributes exactly nothing.
//!
//! # Exactness across kernel tiers
//!
//! Weight quantization clamps to `±`[`INT8_WEIGHT_QMAX`]` = 63`, so any
//! adjacent pair of u8×i8 products sums to at most `2·255·63 = 32130 <
//! i16::MAX`: the `vpmaddubsw` i16-widening step in the AVX-512BW/AVX2
//! fallbacks can never saturate, and the VNNI, maddubs, and portable kernels
//! all compute the **identical i32 accumulator**. The f32 dequant writeback
//! runs in one fixed per-element order, and output rows are partitioned
//! disjointly across worker threads — results are bitwise identical across
//! kernel tiers *and* across `RESCNN_THREADS`, the same contract as the f32
//! engine. The cost of the clamp is one bit of weight precision (6.0 bits vs
//! 7), folded into the accuracy numbers the calibration gate measures.
//!
//! # Accuracy gate
//!
//! Quantization is an approximation, so [`ConvAlgo::Int8`](crate::ConvAlgo)
//! is **never** a heuristic default: dispatch reaches it only through a
//! network's measured table of arms or an explicit override. Sweeps admit a shape
//! only when [`int8_unit_error`] — a pure function of the shape, mirroring
//! [`winograd_f4_unit_error`](crate::winograd_f4_unit_error) — stays within
//! [`INT8_TOLERANCE`], and the serving layer adds an end-to-end top-1/SSIM
//! budget on top (see `rescnn-core`'s precision gate).

use crate::conv::{stripe_height, valid_out_range, validate_bias, validate_weight, ConvEpilogue};
use crate::engine::{FusedActivation, MC, MR, NR, PARALLEL_MIN_MACS};
use crate::error::{Result, TensorError};
use crate::shape::{Conv2dParams, Shape};
use crate::tensor::Tensor;
use crate::view::{validate_into, TensorView, TensorViewMut};
use crate::{parallel, scratch};

/// Symmetric clamp magnitude for quantized weights. `63` (not `127`) so the
/// i16-widening kernel tiers are exact — see the module docs — making every
/// microkernel bitwise interchangeable.
pub const INT8_WEIGHT_QMAX: i32 = 63;

/// Elementwise agreement bound for [`conv2d_int8`] against `Im2colPacked` at
/// unit-scale activations and half-scale weights ([`int8_unit_error`]'s
/// operating point), pinned by the characterization suite in
/// `tests/int8_parity.rs` across the serving-ladder layer shapes. Quantization
/// error grows with `sqrt(k)` (k = `ic·kernel²`), so this bound is set from
/// the deepest ResNet-50 stage shapes; typical output magnitudes at the same
/// operating point are ~`0.3·sqrt(k)`, keeping the relative error in the
/// low percent range. Calibration only admits `Int8` for a shape when the
/// probe stays within this bound.
pub const INT8_TOLERANCE: f32 = 0.5;

/// Per-tensor asymmetric u8 quantization parameters for activations:
/// `q(x) = clamp(zp + round(x / scale), 0, 255)`, `x̂ = scale · (q − zp)`.
/// `0.0` always encodes exactly to `zp`, so convolution zero padding is
/// representable for any activation range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActQuant {
    /// Step between adjacent representable activation values.
    pub scale: f32,
    /// The u8 code of `0.0`.
    pub zero_point: u8,
}

impl ActQuant {
    /// Derives quantization parameters from an observed (or calibrated)
    /// activation range. The range is widened to include `0.0` so the
    /// zero-point is exact; degenerate (empty or non-finite) ranges fall back
    /// to a unit scale.
    pub fn from_range(lo: f32, hi: f32) -> ActQuant {
        let lo = lo.min(0.0);
        let hi = hi.max(0.0);
        let span = hi - lo;
        if !span.is_finite() || span <= 0.0 {
            return ActQuant { scale: 1.0, zero_point: 0 };
        }
        let scale = span / 255.0;
        let zero_point = (-lo / scale).round().clamp(0.0, 255.0) as u8;
        ActQuant { scale, zero_point }
    }

    /// Quantizes one activation value.
    #[inline]
    pub fn quantize(self, x: f32) -> u8 {
        (self.zero_point as f32 + (x / self.scale).round()).clamp(0.0, 255.0) as u8
    }
}

/// The sequential min/max scan used for dynamic (uncalibrated) activation
/// ranges. Pure elementwise reduction, so the result is independent of thread
/// count by construction.
pub fn tensor_range(t: &Tensor) -> (f32, f32) {
    slice_range(t.as_slice())
}

/// [`tensor_range`] over a slice.
fn slice_range(values: &[f32]) -> (f32, f32) {
    let mut lo = f32::INFINITY;
    let mut hi = f32::NEG_INFINITY;
    for &x in values {
        lo = lo.min(x);
        hi = hi.max(x);
    }
    if lo > hi {
        (0.0, 0.0)
    } else {
        (lo, hi)
    }
}

/// Convolution weights quantized and packed once into the int8 microkernel's
/// quad-panel layout (see the module docs), with the per-output-channel
/// dequantization scales and quantized-weight row sums (for the activation
/// zero-point correction) folded out at prepare time.
#[derive(Debug, Clone)]
pub struct QuantizedConv {
    /// Packed weight quads: `tiles × quads × MR` little-endian i32s, each
    /// holding 4 consecutive i8 weight bytes of one output channel.
    panels: Vec<i32>,
    /// Per-output-channel symmetric dequant scale (`max|w| / INT8_WEIGHT_QMAX`).
    scales: Vec<f32>,
    /// Per-output-channel sum of quantized weights: the zero-point correction
    /// `acc − zp·wsum` recovers `Σ wq·(q − zp)` from `Σ wq·q`.
    wsum: Vec<i32>,
    /// Shared dimension (`in_channels · kernel²`).
    rows: usize,
    /// Quad count (`rows.div_ceil(4)`).
    quads: usize,
    out_channels: usize,
}

impl QuantizedConv {
    /// Quantizes dense (groups == 1) convolution weights per output channel and
    /// packs them into quad panels.
    ///
    /// # Errors
    /// Returns an error if the layer is grouped or the weight shape is
    /// inconsistent with the parameters.
    pub fn prepare(weight: &Tensor, params: &Conv2dParams) -> Result<Self> {
        if params.groups != 1 {
            return Err(TensorError::ShapeMismatch {
                left: vec![params.groups],
                right: vec![1],
                op: "int8 conv requires groups=1",
            });
        }
        validate_weight(params, weight)?;
        let oc = params.out_channels;
        let rows = params.in_channels * params.kernel * params.kernel;
        // i32 accumulator headroom: |acc| ≤ 255·63·rows must stay below 2³¹.
        assert!(rows <= 130_000, "int8 arm requires ic·k² ≤ 130000 for exact i32 accumulation");
        let quads = rows.div_ceil(4);
        let wdata = weight.as_slice();
        let mut scales = Vec::with_capacity(oc);
        let mut wsum = Vec::with_capacity(oc);
        let tiles = oc.div_ceil(MR);
        let mut panels = vec![0i32; tiles * quads * MR];
        let mut qrow = vec![0i8; quads * 4];
        for c in 0..oc {
            let wrow = &wdata[c * rows..(c + 1) * rows];
            let max_abs = wrow.iter().fold(0.0f32, |m, &w| m.max(w.abs()));
            let scale = if max_abs > 0.0 { max_abs / INT8_WEIGHT_QMAX as f32 } else { 1.0 };
            let mut sum = 0i32;
            qrow.iter_mut().for_each(|q| *q = 0);
            for (q, &w) in qrow.iter_mut().zip(wrow) {
                let v =
                    (w / scale).round().clamp(-(INT8_WEIGHT_QMAX as f32), INT8_WEIGHT_QMAX as f32)
                        as i32;
                sum += v;
                *q = v as i8;
            }
            scales.push(scale);
            wsum.push(sum);
            let (tile, r) = (c / MR, c % MR);
            for q in 0..quads {
                let bytes = [
                    qrow[q * 4] as u8,
                    qrow[q * 4 + 1] as u8,
                    qrow[q * 4 + 2] as u8,
                    qrow[q * 4 + 3] as u8,
                ];
                panels[tile * quads * MR + q * MR + r] = i32::from_le_bytes(bytes);
            }
        }
        Ok(QuantizedConv { panels, scales, wsum, rows, quads, out_channels: oc })
    }

    /// Shared dimension the panels were packed for.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Output channels covered.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Per-output-channel dequantization scales.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Bytes resident in the packed panels and per-channel tables.
    pub fn resident_bytes(&self) -> usize {
        self.panels.len() * 4 + self.scales.len() * 4 + self.wsum.len() * 4
    }
}

/// The int8 microkernel: accumulates `quads` u8×i8 quad dot products into an
/// exact `MR × NR` i32 tile. Statically dispatches to AVX-512 VNNI
/// (`vpdpbusd`), AVX-512BW / AVX2 `vpmaddubsw`+`vpmaddwd` i16-widening, or a
/// portable scalar loop — all bitwise identical (see the module docs).
#[inline]
fn int8_microkernel(quads: usize, apanel: &[i32], bpanel: &[u8]) -> [[i32; NR]; MR] {
    #[cfg(all(target_arch = "x86_64", target_feature = "avx512vnni"))]
    {
        int8_microkernel_vnni(quads, apanel, bpanel)
    }
    #[cfg(all(
        target_arch = "x86_64",
        target_feature = "avx512f",
        target_feature = "avx512bw",
        not(target_feature = "avx512vnni")
    ))]
    {
        int8_microkernel_avx512bw(quads, apanel, bpanel)
    }
    #[cfg(all(target_arch = "x86_64", target_feature = "avx2", not(target_feature = "avx512f")))]
    {
        int8_microkernel_avx2(quads, apanel, bpanel)
    }
    #[cfg(not(any(
        all(target_arch = "x86_64", target_feature = "avx512vnni"),
        all(
            target_arch = "x86_64",
            target_feature = "avx512f",
            target_feature = "avx512bw",
            not(target_feature = "avx512vnni")
        ),
        all(target_arch = "x86_64", target_feature = "avx2", not(target_feature = "avx512f"))
    )))]
    {
        int8_microkernel_portable(quads, apanel, bpanel)
    }
}

/// AVX-512 VNNI microkernel: 12 × `__m512i` i32 accumulators (6 rows × 32
/// pixels), two B loads and six A dword broadcasts per quad — one `vpdpbusd`
/// retires 4 MACs per lane, 64 per instruction.
///
/// Safety: only compiled when AVX-512 VNNI is statically enabled; the `unsafe`
/// block covers raw-pointer panel reads whose bounds are asserted on entry.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512vnni"))]
#[inline]
fn int8_microkernel_vnni(quads: usize, apanel: &[i32], bpanel: &[u8]) -> [[i32; NR]; MR] {
    use core::arch::x86_64::{
        __m512i, _mm512_dpbusd_epi32, _mm512_loadu_si512, _mm512_set1_epi32, _mm512_setzero_si512,
        _mm512_storeu_si512,
    };
    assert!(apanel.len() >= quads * MR && bpanel.len() >= quads * NR * 4);
    unsafe {
        let mut acc: [[__m512i; 2]; MR] = [[_mm512_setzero_si512(); 2]; MR];
        let mut ap = apanel.as_ptr();
        let mut bp = bpanel.as_ptr();
        for _ in 0..quads {
            let b_lo = _mm512_loadu_si512(bp as *const __m512i);
            let b_hi = _mm512_loadu_si512(bp.add(64) as *const __m512i);
            macro_rules! dp_row {
                ($r:literal) => {
                    let w = _mm512_set1_epi32(*ap.add($r));
                    acc[$r][0] = _mm512_dpbusd_epi32(acc[$r][0], b_lo, w);
                    acc[$r][1] = _mm512_dpbusd_epi32(acc[$r][1], b_hi, w);
                };
            }
            dp_row!(0);
            dp_row!(1);
            dp_row!(2);
            dp_row!(3);
            dp_row!(4);
            dp_row!(5);
            ap = ap.add(MR);
            bp = bp.add(NR * 4);
        }
        let mut out = [[0i32; NR]; MR];
        for r in 0..MR {
            _mm512_storeu_si512(out[r].as_mut_ptr() as *mut __m512i, acc[r][0]);
            _mm512_storeu_si512(out[r].as_mut_ptr().add(16) as *mut __m512i, acc[r][1]);
        }
        out
    }
}

/// AVX-512BW fallback (VNNI absent): `vpmaddubsw` widens u8×i8 pairs to i16,
/// `vpmaddwd` against ones reduces pairs to per-pixel i32 quad dots. Exact
/// because `INT8_WEIGHT_QMAX` bounds pair sums below i16 saturation.
///
/// Safety: only compiled when AVX-512BW is statically enabled; the `unsafe`
/// block covers raw-pointer panel reads whose bounds are asserted on entry.
#[cfg(all(
    target_arch = "x86_64",
    target_feature = "avx512f",
    target_feature = "avx512bw",
    not(target_feature = "avx512vnni")
))]
#[inline]
fn int8_microkernel_avx512bw(quads: usize, apanel: &[i32], bpanel: &[u8]) -> [[i32; NR]; MR] {
    use core::arch::x86_64::{
        __m512i, _mm512_add_epi32, _mm512_loadu_si512, _mm512_madd_epi16, _mm512_maddubs_epi16,
        _mm512_set1_epi16, _mm512_set1_epi32, _mm512_setzero_si512, _mm512_storeu_si512,
    };
    assert!(apanel.len() >= quads * MR && bpanel.len() >= quads * NR * 4);
    unsafe {
        let ones = _mm512_set1_epi16(1);
        let mut acc: [[__m512i; 2]; MR] = [[_mm512_setzero_si512(); 2]; MR];
        let mut ap = apanel.as_ptr();
        let mut bp = bpanel.as_ptr();
        for _ in 0..quads {
            let b_lo = _mm512_loadu_si512(bp as *const __m512i);
            let b_hi = _mm512_loadu_si512(bp.add(64) as *const __m512i);
            macro_rules! dp_row {
                ($r:literal) => {
                    let w = _mm512_set1_epi32(*ap.add($r));
                    let p_lo = _mm512_madd_epi16(_mm512_maddubs_epi16(b_lo, w), ones);
                    let p_hi = _mm512_madd_epi16(_mm512_maddubs_epi16(b_hi, w), ones);
                    acc[$r][0] = _mm512_add_epi32(acc[$r][0], p_lo);
                    acc[$r][1] = _mm512_add_epi32(acc[$r][1], p_hi);
                };
            }
            dp_row!(0);
            dp_row!(1);
            dp_row!(2);
            dp_row!(3);
            dp_row!(4);
            dp_row!(5);
            ap = ap.add(MR);
            bp = bp.add(NR * 4);
        }
        let mut out = [[0i32; NR]; MR];
        for r in 0..MR {
            _mm512_storeu_si512(out[r].as_mut_ptr() as *mut __m512i, acc[r][0]);
            _mm512_storeu_si512(out[r].as_mut_ptr().add(16) as *mut __m512i, acc[r][1]);
        }
        out
    }
}

/// AVX2 fallback (`NR = 16` on non-AVX-512 builds): the same
/// `vpmaddubsw`+`vpmaddwd` i16-widening reduction over 256-bit vectors.
///
/// Safety: only compiled when AVX2 is statically enabled; the `unsafe` block
/// covers raw-pointer panel reads whose bounds are asserted on entry.
#[cfg(all(target_arch = "x86_64", target_feature = "avx2", not(target_feature = "avx512f")))]
#[inline]
fn int8_microkernel_avx2(quads: usize, apanel: &[i32], bpanel: &[u8]) -> [[i32; NR]; MR] {
    use core::arch::x86_64::{
        __m256i, _mm256_add_epi32, _mm256_loadu_si256, _mm256_madd_epi16, _mm256_maddubs_epi16,
        _mm256_set1_epi16, _mm256_set1_epi32, _mm256_setzero_si256, _mm256_storeu_si256,
    };
    assert!(apanel.len() >= quads * MR && bpanel.len() >= quads * NR * 4);
    unsafe {
        let ones = _mm256_set1_epi16(1);
        let mut acc: [[__m256i; 2]; MR] = [[_mm256_setzero_si256(); 2]; MR];
        let mut ap = apanel.as_ptr();
        let mut bp = bpanel.as_ptr();
        for _ in 0..quads {
            let b_lo = _mm256_loadu_si256(bp as *const __m256i);
            let b_hi = _mm256_loadu_si256(bp.add(32) as *const __m256i);
            macro_rules! dp_row {
                ($r:literal) => {
                    let w = _mm256_set1_epi32(*ap.add($r));
                    let p_lo = _mm256_madd_epi16(_mm256_maddubs_epi16(b_lo, w), ones);
                    let p_hi = _mm256_madd_epi16(_mm256_maddubs_epi16(b_hi, w), ones);
                    acc[$r][0] = _mm256_add_epi32(acc[$r][0], p_lo);
                    acc[$r][1] = _mm256_add_epi32(acc[$r][1], p_hi);
                };
            }
            dp_row!(0);
            dp_row!(1);
            dp_row!(2);
            dp_row!(3);
            dp_row!(4);
            dp_row!(5);
            ap = ap.add(MR);
            bp = bp.add(NR * 4);
        }
        let mut out = [[0i32; NR]; MR];
        for r in 0..MR {
            _mm256_storeu_si256(out[r].as_mut_ptr() as *mut __m256i, acc[r][0]);
            _mm256_storeu_si256(out[r].as_mut_ptr().add(8) as *mut __m256i, acc[r][1]);
        }
        out
    }
}

/// Portable scalar kernel: widens to i32 directly. Also the reference
/// implementation the SIMD tiers are pinned against in `tests/int8_parity.rs`.
#[allow(dead_code)]
fn int8_microkernel_portable(quads: usize, apanel: &[i32], bpanel: &[u8]) -> [[i32; NR]; MR] {
    let mut acc = [[0i32; NR]; MR];
    for (avals, bvals) in apanel.chunks_exact(MR).zip(bpanel.chunks_exact(NR * 4)).take(quads) {
        for r in 0..MR {
            let w = avals[r].to_le_bytes();
            let w = [w[0] as i8 as i32, w[1] as i8 as i32, w[2] as i8 as i32, w[3] as i8 as i32];
            for j in 0..NR {
                let b = &bvals[j * 4..j * 4 + 4];
                acc[r][j] += b[0] as i32 * w[0]
                    + b[1] as i32 * w[1]
                    + b[2] as i32 * w[2]
                    + b[3] as i32 * w[3];
            }
        }
    }
    acc
}

/// Test-only access to the portable kernel so the parity suite can pin the
/// SIMD tiers against it at full `ConvAlgo` distance.
#[doc(hidden)]
pub fn int8_microkernel_reference(quads: usize, apanel: &[i32], bpanel: &[u8]) -> [[i32; NR]; MR] {
    int8_microkernel_portable(quads, apanel, bpanel)
}

/// Test-only access to whichever kernel tier this build dispatches to.
#[doc(hidden)]
pub fn int8_microkernel_dispatch(quads: usize, apanel: &[i32], bpanel: &[u8]) -> [[i32; NR]; MR] {
    int8_microkernel(quads, apanel, bpanel)
}

/// Quantizes one batch image into a u8 plane buffer — a single pointwise,
/// auto-vectorizable pass. The im2col pack then only *moves bytes*, so each
/// input element is rounded once instead of `kernel²` times.
fn quantize_image(src: &[f32], aq: ActQuant, dst: &mut [u8]) {
    let inv_scale = 1.0 / aq.scale;
    let zp = aq.zero_point as f32;
    for (d, &x) in dst.iter_mut().zip(src) {
        *d = (zp + (x * inv_scale).round()).clamp(0.0, 255.0) as u8;
    }
}

/// Packs a quantized im2col stripe (output rows `[oh0, oh1)`) from the
/// pre-quantized plane buffer into the int8 engine's quad-panel byte layout.
/// `dst` must arrive filled with the activation zero-point — padding positions
/// are never written, and the zero-point is exactly the quantized encoding of
/// the padding value `0.0`.
#[allow(clippy::too_many_arguments)]
fn int8_pack_stripe(
    qinput: &[u8],
    ishape: Shape,
    params: &Conv2dParams,
    oshape: Shape,
    oh0: usize,
    oh1: usize,
    dst: &mut [u8],
) {
    let k = params.kernel;
    let stride = params.stride;
    let pad = params.padding;
    let quads = (params.in_channels * k * k).div_ceil(4);
    let panel_stride = quads * NR * 4;

    for ic in 0..params.in_channels {
        let plane = &qinput[ic * ishape.h * ishape.w..(ic + 1) * ishape.h * ishape.w];
        for kh in 0..k {
            let (oh_lo, oh_hi) = valid_out_range(ishape.h, oshape.h, kh, stride, pad);
            for kw in 0..k {
                let row = (ic * k + kh) * k + kw;
                let (quad, byte) = (row / 4, row % 4);
                let (ow_lo, ow_hi) = valid_out_range(ishape.w, oshape.w, kw, stride, pad);
                if ow_lo >= ow_hi {
                    continue;
                }
                for oh in oh_lo.max(oh0)..oh_hi.min(oh1) {
                    let ih = oh * stride + kh - pad;
                    let src_row = &plane[ih * ishape.w..(ih + 1) * ishape.w];
                    let j0 = (oh - oh0) * oshape.w + ow_lo;
                    let mut within = j0 % NR;
                    let mut index = (j0 / NR) * panel_stride + quad * NR * 4 + within * 4 + byte;
                    let mut iw = ow_lo * stride + kw - pad;
                    for _ in ow_lo..ow_hi {
                        dst[index] = src_row[iw];
                        iw += stride;
                        within += 1;
                        index += 4;
                        if within == NR {
                            within = 0;
                            index += panel_stride - NR * 4;
                        }
                    }
                }
            }
        }
    }
}

/// Writes one dequantized output row: `y = act((acc − zp·wsum)·scale + bias
/// [+ residual])`, monomorphized per activation so the inner loop is
/// branch-free. The identical helper runs in fused and reference compositions,
/// so both are bitwise equal.
#[inline]
fn int8_write_row(
    out_row: &mut [f32],
    acc_row: &[i32],
    corr: i32,
    scale: f32,
    base: f32,
    skip_row: Option<&[f32]>,
    activation: FusedActivation,
) {
    match activation {
        FusedActivation::None => {
            int8_write_row_with(out_row, acc_row, corr, scale, base, skip_row, |y| y)
        }
        FusedActivation::Relu => {
            int8_write_row_with(out_row, acc_row, corr, scale, base, skip_row, |y| y.max(0.0))
        }
        FusedActivation::Relu6 => {
            int8_write_row_with(out_row, acc_row, corr, scale, base, skip_row, |y| {
                y.clamp(0.0, 6.0)
            })
        }
    }
}

#[inline]
fn int8_write_row_with(
    out_row: &mut [f32],
    acc_row: &[i32],
    corr: i32,
    scale: f32,
    base: f32,
    skip_row: Option<&[f32]>,
    act: impl Fn(f32) -> f32,
) {
    match skip_row {
        Some(skip) => {
            for ((o, &v), &s) in out_row.iter_mut().zip(acc_row).zip(skip) {
                *o = act(((v - corr) as f32).mul_add(scale, base) + s);
            }
        }
        None => {
            for (o, &v) in out_row.iter_mut().zip(acc_row) {
                *o = act(((v - corr) as f32).mul_add(scale, base));
            }
        }
    }
}

/// Runs the quantized GEMM for one stripe: output channels are split into
/// `MR`-aligned row chunks on the worker pool; each chunk walks B panels ×
/// A tiles, calling the microkernel over the full quad depth and fusing the
/// dequant + epilogue into the writeback. Each output element is produced by
/// exactly one task in one fixed order — bitwise identical for every thread
/// count.
#[allow(clippy::too_many_arguments)]
fn parallel_int8_gemm(
    qconv: &QuantizedConv,
    aq: ActQuant,
    bpack: &[u8],
    cols: usize,
    region: &mut [f32],
    row_stride: usize,
    col_offset: usize,
    bias: Option<&[f32]>,
    residual: Option<&[f32]>,
    activation: FusedActivation,
    parallel: bool,
) {
    let m = qconv.out_channels;
    let quads = qconv.quads;
    let threads = parallel::num_threads();
    let rows_per_chunk = if !parallel || m >= threads * MC { MC } else { MR };
    let chunk_len = rows_per_chunk * row_stride;
    let macs = (m as u64) * (qconv.rows as u64) * (cols as u64);
    let want_parallel = parallel && macs >= PARALLEL_MIN_MACS;
    let col_panels = cols.div_ceil(NR);
    parallel::for_each_chunk(region, chunk_len, want_parallel, |chunk_index, chunk| {
        let row0 = chunk_index * rows_per_chunk;
        let rows = rows_per_chunk.min(m - row0);
        let tiles = rows.div_ceil(MR);
        let skip_chunk = residual.map(|s| &s[chunk_index * chunk_len..][..chunk.len()]);
        for panel in 0..col_panels {
            let j0 = panel * NR;
            let width = NR.min(cols - j0);
            let bslice = &bpack[panel * quads * NR * 4..(panel + 1) * quads * NR * 4];
            for tile in 0..tiles {
                let t = row0 / MR + tile;
                let atile = &qconv.panels[t * quads * MR..(t + 1) * quads * MR];
                let acc = int8_microkernel(quads, atile, bslice);
                let tile_rows = MR.min(rows - tile * MR);
                for (r, acc_row) in acc.iter().enumerate().take(tile_rows) {
                    let oc = row0 + tile * MR + r;
                    let start = (tile * MR + r) * row_stride + col_offset + j0;
                    let out_row = &mut chunk[start..start + width];
                    let skip_row = skip_chunk.map(|s| &s[start..start + width]);
                    int8_write_row(
                        out_row,
                        &acc_row[..width],
                        aq.zero_point as i32 * qconv.wsum[oc],
                        qconv.scales[oc] * aq.scale,
                        bias.map_or(0.0, |b| b[oc]),
                        skip_row,
                        activation,
                    );
                }
            }
        }
    });
}

/// Core of the int8 path; every element of `out` is overwritten. `range` is
/// the calibration-recorded activation range; `None` falls back to a dynamic
/// min/max scan of each image of `input` on its own, so an image's output
/// never depends on the batch it arrives in (`Network::forward_batch` runs a
/// group's tail as one N-image tensor and must match per-image forwards).
pub(crate) fn int8_packed_into(
    input: TensorView<'_>,
    qconv: &QuantizedConv,
    bias: Option<&[f32]>,
    params: &Conv2dParams,
    epilogue: ConvEpilogue<'_>,
    range: Option<(f32, f32)>,
    mut out: TensorViewMut<'_>,
) -> Result<()> {
    validate_bias(params, bias)?;
    let ishape = input.shape();
    let oshape = params.output_shape(ishape)?;
    validate_into("conv", oshape, out.shape(), epilogue.residual_shape())?;
    debug_assert_eq!(qconv.rows, params.in_channels * params.kernel * params.kernel);
    debug_assert_eq!(qconv.out_channels, params.out_channels);

    let rows = qconv.rows;
    let plane = oshape.h * oshape.w;
    let region_len = params.out_channels * plane;
    let stripe_oh = stripe_height(rows, oshape);
    let parallel = params.macs(ishape).unwrap_or(0) >= PARALLEL_MIN_MACS;

    let residual = epilogue.residual.map(|skip| skip.as_slice());
    let out_data = out.as_mut_slice();
    let image_len = ishape.c * ishape.h * ishape.w;
    let mut qinput = scratch::take_bytes(image_len);
    for n in 0..ishape.n {
        let image = &input.as_slice()[n * image_len..(n + 1) * image_len];
        let (lo, hi) = range.unwrap_or_else(|| slice_range(image));
        let aq = ActQuant::from_range(lo, hi);
        quantize_image(image, aq, &mut qinput);
        let region_start = n * region_len;
        let region = &mut out_data[region_start..region_start + region_len];
        let skip = residual.map(|s| &s[region_start..region_start + region_len]);
        let mut oh0 = 0;
        while oh0 < oshape.h {
            let oh1 = (oh0 + stripe_oh).min(oshape.h);
            let stripe_cols = (oh1 - oh0) * oshape.w;
            let mut bpack = scratch::take_bytes(stripe_cols.div_ceil(NR) * qconv.quads * NR * 4);
            bpack.fill(aq.zero_point);
            int8_pack_stripe(&qinput, ishape, params, oshape, oh0, oh1, &mut bpack);
            parallel_int8_gemm(
                qconv,
                aq,
                &bpack,
                stripe_cols,
                region,
                plane,
                oh0 * oshape.w,
                bias,
                skip,
                epilogue.activation,
                parallel,
            );
            scratch::give_bytes(bpack);
            oh0 = oh1;
        }
    }
    scratch::give_bytes(qinput);
    Ok(())
}

/// Int8-quantized convolution with on-the-fly weight quantization and a
/// dynamic activation range — the unprepared entry point sweeps and
/// `conv2d_with_algo` use. Production forwards go through
/// [`PreparedLayer`](crate::PreparedLayer), which quantizes weights once and
/// uses the calibration-recorded activation range.
///
/// # Errors
/// Returns an error if the layer is grouped or the parameters, weight shape,
/// or bias length are inconsistent with the input shape.
pub fn conv2d_int8(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&[f32]>,
    params: &Conv2dParams,
) -> Result<Tensor> {
    let qconv = QuantizedConv::prepare(weight, params)?;
    let mut out = Tensor::zeros(params.output_shape(input.shape())?);
    let epilogue = ConvEpilogue::default();
    int8_packed_into(input.into(), &qconv, bias, params, epilogue, None, (&mut out).into())?;
    Ok(out)
}

/// Shape-pure accuracy probe for the int8 arm: the maximum elementwise
/// difference against [`conv2d_im2col_packed`](crate::conv2d_im2col_packed) on
/// a deterministic unit-scale input and half-scale weights — the same
/// operating point (and the same seeding scheme) as
/// [`winograd_f4_unit_error`](crate::winograd_f4_unit_error), so the
/// calibration gate is reproducible across hosts and thread counts.
///
/// # Errors
/// Returns an error if the parameters are grouped or the input shape does not
/// match them.
pub fn int8_unit_error(params: &Conv2dParams, input: Shape) -> Result<f32> {
    let seed = (params.in_channels * 31 + params.out_channels * 7 + input.h * 3 + input.w) as u64;
    let x = Tensor::random_uniform(input, 1.0, seed);
    let weight = Tensor::random_uniform(
        Shape::new(params.out_channels, params.in_channels, params.kernel, params.kernel),
        0.5,
        seed ^ 0x5a,
    );
    let reference = crate::conv::conv2d_im2col_packed(&x, &weight, None, params)?;
    let quantized = conv2d_int8(&x, &weight, None, params)?;
    reference.max_abs_diff(&quantized)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::conv2d_im2col_packed;

    #[test]
    fn act_quant_round_trips_zero_exactly() {
        for (lo, hi) in [(-1.5f32, 2.0f32), (0.0, 6.0), (-3.0, 0.0), (0.0, 0.0)] {
            let aq = ActQuant::from_range(lo, hi);
            assert_eq!(aq.quantize(0.0), aq.zero_point, "range ({lo},{hi})");
        }
    }

    #[test]
    fn act_quant_error_bounded_by_half_step() {
        let aq = ActQuant::from_range(-2.0, 2.0);
        for i in 0..1000 {
            let x = -2.0 + 4.0 * (i as f32) / 999.0;
            let q = aq.quantize(x);
            let back = aq.scale * (q as f32 - aq.zero_point as f32);
            assert!((back - x).abs() <= aq.scale * 0.5 + 1e-6, "x={x} back={back}");
        }
    }

    #[test]
    fn weight_quantization_respects_qmax() {
        let params = Conv2dParams::new(3, 5, 3, 1, 1);
        let weight = Tensor::random_uniform(Shape::new(5, 3, 3, 3), 0.5, 11);
        let q = QuantizedConv::prepare(&weight, &params).unwrap();
        for &packed in &q.panels {
            for b in packed.to_le_bytes() {
                assert!((b as i8 as i32).abs() <= INT8_WEIGHT_QMAX);
            }
        }
        assert_eq!(q.out_channels(), 5);
        assert_eq!(q.rows(), 27);
        assert!(q.resident_bytes() > 0);
    }

    #[test]
    fn int8_conv_tracks_reference_within_tolerance() {
        for (ic, oc, k, s, p, hw) in [
            (3usize, 8usize, 3usize, 1usize, 1usize, 12usize),
            (8, 4, 1, 1, 0, 9),
            (4, 6, 3, 2, 1, 11),
        ] {
            let params = Conv2dParams::new(ic, oc, k, s, p);
            let input = Tensor::random_uniform(Shape::chw(ic, hw, hw), 1.0, (ic + hw) as u64);
            let weight = Tensor::random_uniform(Shape::new(oc, ic, k, k), 0.5, (oc + k) as u64);
            let bias: Vec<f32> = (0..oc).map(|i| 0.05 * i as f32).collect();
            let reference = conv2d_im2col_packed(&input, &weight, Some(&bias), &params).unwrap();
            let quantized = conv2d_int8(&input, &weight, Some(&bias), &params).unwrap();
            let diff = reference.max_abs_diff(&quantized).unwrap();
            assert!(diff < INT8_TOLERANCE, "({ic},{oc},{k},{s},{p},{hw}): diff {diff}");
        }
    }

    #[test]
    fn unit_error_probe_is_shape_pure() {
        let params = Conv2dParams::new(4, 8, 3, 1, 1);
        let shape = Shape::chw(4, 14, 14);
        let a = int8_unit_error(&params, shape).unwrap();
        let b = int8_unit_error(&params, shape).unwrap();
        assert_eq!(a.to_bits(), b.to_bits(), "probe must be deterministic");
        assert!(a < INT8_TOLERANCE);
    }
}
