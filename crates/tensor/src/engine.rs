//! The packed GEMM execution core.
//!
//! This module implements the register-blocked microkernel and panel packing that
//! every fast execution path (packed GEMM, 1×1 convolution, packed im2col
//! convolution) is built on:
//!
//! * **Microkernel** — an [`MR`]`×`[`NR`] f32 accumulator tile kept entirely in
//!   registers while streaming over the shared dimension. With
//!   `-C target-cpu=native` (set in `.cargo/config.toml`) the inner loop compiles to
//!   FMA vector code.
//! * **Packing** — A is repacked into `MR`-row column-major panels and B into
//!   `NR`-column row-major panels, so the microkernel reads both operands at stride
//!   1 regardless of the original layouts. Panels live in the thread-local
//!   [`scratch`](crate::scratch) arena and are reused across layers. Callers pack
//!   B in column stripes of at most [`MAX_B_PANEL_ELEMS`] elements (512 KiB), a
//!   quarter of a 2 MiB per-core L2: a stripe is the operand every row tile of a
//!   chunk re-reads, so it must survive in L2 between those reads while the A
//!   tiles and the output and residual rows stream past it. A stripe as large
//!   as the L2 is evicted by that traffic and re-streamed from L3 by every
//!   chunk.
//! * **Loop order** — [`packed_gemm_strided`] sweeps every column panel of one
//!   `MR`-row tile before the next tile. A convolution's output rows are whole
//!   feature-map planes apart, a page or more at high resolution, so sweeping
//!   one panel over every tile of a chunk instead would keep `MC` rows × 2
//!   tensors (output and residual) of page-strided streams live at once, more
//!   than the hardware prefetcher tracks. Tile by tile, each output and
//!   residual row is one sequential stream, and the L2-resident stripe is the
//!   operand every tile re-reads. On small outputs (Winograd per-point GEMMs,
//!   maps of 28² and below) the panel-outer order is a few per cent faster per
//!   layer, but choosing it there did not move an end-to-end benchmark
//!   (`docs/bench/BENCH_26.md`), so there is one order. Each output element
//!   accumulates its KC slices in the same order either way, so the loop order
//!   never changes a bit.
//! * **Folded columns** — a convolution over a batch of small maps runs one
//!   GEMM whose columns are every image's pixels back to back
//!   ([`ColumnLayout`]): the packer draws a stripe from as many images as it
//!   spans, and the write-back sends column `j` to pixel `j % P` of image
//!   `j / P` (`P` pixels per map), for the output and the residual alike. A
//!   panel may span images when `P < NR`. Columns never interact, so the fold
//!   changes no bit, and it streams each weight panel once per batch instead
//!   of once per image.
//! * **Parallelism** — output rows are split into `MR`-aligned chunks ([`MC`]
//!   rows when there are enough to feed every worker, single tiles otherwise)
//!   executed on the persistent worker pool ([`parallel::for_each_task`]):
//!   per-call dispatch cost is a worker wakeup, and long-lived workers keep their
//!   scratch arenas warm across calls. Each chunk runs the loop order above over
//!   its own rows; the stripe width follows from the shared dimension alone,
//!   never from the chunking. Each output
//!   element is therefore produced by exactly one task in one fixed
//!   accumulation order, and results are bitwise identical for every thread
//!   count.
//!
//! The convolution dispatch layer in [`conv`](crate::conv) lowers convolutions onto
//! [`packed_gemm_strided`]; dense GEMM callers use the [`crate::gemm_packed`]
//! wrapper.

use crate::{parallel, scratch};

/// True when the AVX-512 microkernel is compiled in.
const HAS_AVX512: bool = cfg!(all(target_arch = "x86_64", target_feature = "avx512f"));

/// Microkernel tile height (rows of A / C).
pub const MR: usize = 6;

/// Microkernel tile width (columns of B / C): two vectors per accumulator row —
/// 6×32 with AVX-512 (12 zmm accumulators), 6×16 with AVX2 (12 ymm accumulators
/// plus two B vectors and one broadcast fit the 16 registers). The tile shape is
/// fixed at compile time because the packed-panel layouts depend on it.
pub const NR: usize = if HAS_AVX512 { 32 } else { 16 };

/// Shared-dimension block size: one `KC × NR` B block is 16–32 KiB, and one
/// `KC × MR` A tile stays L1-resident while it sweeps every panel of its stripe.
pub const KC: usize = 256;

/// Row-chunk height handed to one worker task: several microkernel tiles, so each
/// packed B stripe is re-read from L2 by [`MC`]` / `[`MR`] tiles.
pub const MC: usize = 8 * MR;

/// Work (in multiply–accumulates) below which spawning worker threads costs more
/// than it saves.
pub const PARALLEL_MIN_MACS: u64 = 1 << 20;

/// Number of f32 elements a packed B stripe may occupy (512 KiB): a quarter of a
/// 2 MiB L2, so the stripe stays resident while the row tiles of a chunk re-read
/// it. `b_stripe_cols` and `b_stripe_rows` floor it at `MIN_B_STRIPE_PANELS`
/// panels so very deep layers still get panels to sweep.
pub const MAX_B_PANEL_ELEMS: usize = 1 << 17;

/// Fewest `NR` panels of columns a B stripe covers, whatever its shared
/// dimension.
const MIN_B_STRIPE_PANELS: usize = 4;

/// Width of the column stripes a B operand of shared dimension `k` is packed
/// in: as many whole `NR` panels as fit [`MAX_B_PANEL_ELEMS`], and never fewer
/// than [`MIN_B_STRIPE_PANELS`].
pub(crate) fn b_stripe_cols(k: usize) -> usize {
    (MAX_B_PANEL_ELEMS / k.max(1)).div_ceil(NR).max(MIN_B_STRIPE_PANELS) * NR
}

/// Height, in whole output rows of `width` columns, of the stripes a B operand
/// of shared dimension `k` is packed in when a stripe may not split an output
/// row (the im2col packers): as many rows as fit [`MAX_B_PANEL_ELEMS`], and
/// never fewer than cover [`MIN_B_STRIPE_PANELS`] panels.
pub(crate) fn b_stripe_rows(k: usize, width: usize) -> usize {
    let budget_rows = MAX_B_PANEL_ELEMS / (k * width).max(1);
    budget_rows.max((MIN_B_STRIPE_PANELS * NR).div_ceil(width))
}

/// Pointwise activation fused into a kernel's output write (the GEMM epilogue or
/// the Winograd output transform), saving the separate full-tensor pass a caller
/// would otherwise run after the convolution.
///
/// Applying the same function in a fused or a separate pass is bitwise
/// equivalent (it is pointwise on the already-final value), so fusion never
/// changes results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FusedActivation {
    /// No activation: `y`.
    #[default]
    None,
    /// `max(y, 0)`.
    Relu,
    /// `clamp(y, 0, 6)` (the MobileNetV2 activation).
    Relu6,
}

impl FusedActivation {
    /// Applies the activation to one already-final value.
    #[inline]
    pub fn apply(self, y: f32) -> f32 {
        match self {
            FusedActivation::None => y,
            FusedActivation::Relu => y.max(0.0),
            FusedActivation::Relu6 => y.clamp(0.0, 6.0),
        }
    }
}

/// The fused tail of an overwrite-mode GEMM: per-row bias, an optional residual
/// add, and a pointwise activation, all applied in the output write of the final
/// KC slice instead of separate sweeps over the destination.
///
/// Ordering matches the separate-pass composition exactly — partial sums
/// accumulate across KC slices, then `y += residual`, then `y = activation(y)` —
/// so a fused epilogue is bitwise identical to running the convolution followed
/// by `add_relu_in_place`-style passes.
#[derive(Debug, Clone, Copy, Default)]
pub struct Epilogue<'a> {
    /// Per-row constants added to every element of the row (`None` = 0.0),
    /// indexed relative to the call's `row0`.
    pub bias: Option<&'a [f32]>,
    /// Residual operand added elementwise after the reduction completes,
    /// indexed exactly like the destination window (`r * row_stride +
    /// col_offset + j`).
    pub residual: Option<&'a [f32]>,
    /// Activation applied last.
    pub activation: FusedActivation,
}

impl<'a> Epilogue<'a> {
    /// An epilogue that only adds the per-row bias (the historical Overwrite
    /// behaviour).
    pub fn with_bias(bias: Option<&'a [f32]>) -> Self {
        Epilogue { bias, residual: None, activation: FusedActivation::None }
    }
}

/// How C rows are written back by [`packed_gemm_strided`].
#[derive(Debug, Clone, Copy)]
pub enum WriteMode<'a> {
    /// `C[r][j] = activation(acc + bias[r] + residual[r][j])` — used by
    /// convolutions, whose output tiles are computed in a single pass over the
    /// full shared dimension. Bias is added on the first KC slice; residual and
    /// activation apply on the last.
    Overwrite {
        /// The fused output tail.
        epilogue: Epilogue<'a>,
    },
    /// `C[r][j] += acc` — the historical GEMM contract (callers pre-initialize C).
    Accumulate,
}

/// The left-hand GEMM operand: either plain row-major data packed on the fly
/// (per KC slice, into scratch), or panels prepacked once by
/// [`PreparedGemmA::prepare`] — the layout weights are stored in so the hot
/// path never repacks them.
#[derive(Debug, Clone, Copy)]
pub enum GemmLhs<'a> {
    /// Row-major data with leading dimension `lda`; packed into panels per call.
    Rows {
        /// The matrix data.
        data: &'a [f32],
        /// Leading dimension (elements between consecutive rows).
        lda: usize,
    },
    /// Prepacked full-K panels: tile `t` (rows `[t*MR, t*MR+MR)`) occupies
    /// `panels[t*k*MR .. (t+1)*k*MR]` with element `(r, p)` at `p*MR + r`.
    /// `row0` must be `MR`-aligned when this variant is used.
    Packed {
        /// The packed panel buffer.
        panels: &'a [f32],
        /// Shared dimension the panels were packed for.
        k: usize,
    },
}

/// A left-hand GEMM operand packed once into microkernel panel layout.
///
/// In this engine convolution weights are the *left* operand of every lowered
/// GEMM (`C[out_ch][pixels] = W[out_ch][k] · im2col[k][pixels]`), so this is the
/// type conv/FC weights are prepacked into at model-load time: the per-call
/// [`pack_a_panel`] pass — identical for every forward, since weights never
/// change — disappears from the hot path. Packing is pure data movement, so
/// results are bitwise identical to the pack-per-call path.
#[derive(Debug, Clone)]
pub struct PreparedGemmA {
    panels: Vec<f32>,
    rows: usize,
    k: usize,
}

impl PreparedGemmA {
    /// Packs `rows × k` row-major data (leading dimension `lda`) into full-K
    /// `MR`-row panels. Tail rows of the last tile are zero-padded.
    pub fn prepare(a: &[f32], lda: usize, rows: usize, k: usize) -> Self {
        let tiles = rows.div_ceil(MR);
        let mut panels = vec![0.0f32; tiles * k * MR];
        for tile in 0..tiles {
            let tile_rows = MR.min(rows - tile * MR);
            pack_a_panel(a, tile * MR, tile_rows, 0, k, lda, &mut panels[tile * k * MR..]);
        }
        PreparedGemmA { panels, rows, k }
    }

    /// Logical rows the panels cover.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Shared dimension the panels were packed for.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The operand view [`packed_gemm_strided`] consumes.
    pub fn as_lhs(&self) -> GemmLhs<'_> {
        GemmLhs::Packed { panels: &self.panels, k: self.k }
    }

    /// Bytes resident in the packed panels.
    pub fn resident_bytes(&self) -> usize {
        self.panels.len() * std::mem::size_of::<f32>()
    }

    /// Writes the `rows × k` matrix back out row-major: the exact inverse of
    /// [`PreparedGemmA::prepare`] with `lda == k` (element copies only, so
    /// every bit pattern — `-0.0`, NaN payloads — round-trips). Lets owners
    /// keep the panels as their only copy of the weights.
    ///
    /// # Panics
    /// Panics if `dst.len() != rows * k`.
    pub fn unpack_into(&self, dst: &mut [f32]) {
        assert_eq!(dst.len(), self.rows * self.k, "unpack destination size");
        if dst.is_empty() {
            return;
        }
        for (panel, tile_rows) in
            self.panels.chunks_exact(self.k * MR).zip(dst.chunks_mut(self.k * MR))
        {
            for (r, row) in tile_rows.chunks_exact_mut(self.k).enumerate() {
                for (p, value) in row.iter_mut().enumerate() {
                    *value = panel[p * MR + r];
                }
            }
        }
    }
}

/// A right-hand GEMM operand packed once into [`pack_b`]'s `NR`-column panels.
///
/// Fully-connected weights are the *right* operand of the batched linear layer
/// (`logits[n][o] = x[n][i] · Wᵀ[i][o]`), so the classifier prepacks `Wᵀ` here
/// once instead of packing it on every forward.
#[derive(Debug, Clone)]
pub struct PreparedGemmB {
    panels: Vec<f32>,
    k: usize,
    cols: usize,
}

impl PreparedGemmB {
    /// Packs row-major `k × cols` data into `NR`-column panels.
    pub fn prepare(b: &[f32], k: usize, cols: usize) -> Self {
        let mut panels = vec![0.0f32; cols.div_ceil(NR) * k * NR];
        pack_b(b, k, cols, 0, cols, &mut panels);
        PreparedGemmB { panels, k, cols }
    }

    /// Packs the *transpose* of row-major `rows × k` data (so logical panel
    /// element `(p, j)` is `w[j*k + p]`) — the layout a fully-connected weight
    /// matrix `W[out][in]` needs to serve as the right operand `Wᵀ[in][out]`.
    pub fn prepare_transposed(w: &[f32], rows: usize, k: usize) -> Self {
        debug_assert!(w.len() >= rows * k);
        let cols = rows;
        let mut panels = vec![0.0f32; cols.div_ceil(NR) * k * NR];
        for j in 0..cols {
            let panel = j / NR;
            let within = j % NR;
            for p in 0..k {
                panels[panel * k * NR + p * NR + within] = w[j * k + p];
            }
        }
        PreparedGemmB { panels, k, cols }
    }

    /// The packed panel buffer, in the layout [`packed_gemm_strided`] expects.
    pub fn panels(&self) -> &[f32] {
        &self.panels
    }

    /// Shared dimension the panels were packed for.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Logical columns the panels cover.
    pub fn cols(&self) -> usize {
        self.cols
    }
}

/// How the logical columns of a GEMM operand or output map onto a buffer that
/// may hold several feature maps. Column `c` (counted from `col_offset`) of row
/// `r` sits at `(c / plane) * image_stride + r * row_stride + c % plane`: a
/// batch of `plane`-pixel maps `image_stride` elements apart folded into one
/// column range, so one GEMM serves every image and a panel may span images
/// when `plane < NR`. [`ColumnLayout::rows`] is the single-map case,
/// `r * row_stride + col_offset + j`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnLayout {
    /// Elements between consecutive rows of one map.
    row_stride: usize,
    /// Folded column index of the operand's first column.
    col_offset: usize,
    /// `(plane, image_stride)`: columns each map contributes and elements
    /// between consecutive maps; `None` for a single map.
    images: Option<(usize, usize)>,
}

impl ColumnLayout {
    /// One row-major matrix: column `j` of row `r` at `r * row_stride +
    /// col_offset + j`.
    pub fn rows(row_stride: usize, col_offset: usize) -> Self {
        ColumnLayout { row_stride, col_offset, images: None }
    }

    /// `images` maps of `plane` columns `image_stride` elements apart,
    /// starting at folded column `col_offset`. One image is the
    /// [`rows`](Self::rows) layout.
    pub fn images(
        images: usize,
        row_stride: usize,
        col_offset: usize,
        plane: usize,
        image_stride: usize,
    ) -> Self {
        let images = (images > 1).then_some((plane.max(1), image_stride));
        ColumnLayout { row_stride, col_offset, images }
    }

    /// Splits columns `[j0, j0 + width)` (relative to `col_offset`, `width ≤
    /// NR`) into runs that stay inside one map, returning how many of `runs`
    /// it filled (one for a single map).
    fn runs(&self, j0: usize, width: usize, runs: &mut [ColumnRun; NR]) -> usize {
        let Some((plane, image_stride)) = self.images else {
            runs[0] = ColumnRun { j: 0, offset: self.col_offset + j0, len: width };
            return 1;
        };
        let mut count = 0;
        let mut j = 0;
        while j < width {
            let c = self.col_offset + j0 + j;
            let (image, pixel) = (c / plane, c % plane);
            let len = (plane - pixel).min(width - j);
            runs[count] = ColumnRun { j, offset: image * image_stride + pixel, len };
            count += 1;
            j += len;
        }
        count
    }
}

/// `len` consecutive columns of one panel (starting at its column `j`) that
/// live in one map, at `offset + r * row_stride` for row `r`.
#[derive(Debug, Clone, Copy, Default)]
struct ColumnRun {
    j: usize,
    offset: usize,
    len: usize,
}

/// Packs `count` columns of row-major `src` (logical `rows × src_cols`, starting at
/// column `col0`) into `NR`-wide panels: panel `p` holds columns
/// `[p*NR, p*NR+NR)` as `rows` consecutive `NR`-element groups. Tail columns are
/// zero-padded (the destination must arrive zeroed, as [`scratch::take`]
/// guarantees).
pub fn pack_b(
    src: &[f32],
    rows: usize,
    src_cols: usize,
    col0: usize,
    count: usize,
    dst: &mut [f32],
) {
    pack_b_columns(src, rows, ColumnLayout::rows(src_cols, col0), count, dst);
}

/// [`pack_b`] over any [`ColumnLayout`]: packs `count` columns of `rows` rows
/// starting at the layout's `col_offset`, drawing each panel from as many
/// maps as it spans — the B operand of a GEMM folded across a batch.
pub(crate) fn pack_b_columns(
    src: &[f32],
    rows: usize,
    layout: ColumnLayout,
    count: usize,
    dst: &mut [f32],
) {
    let panels = count.div_ceil(NR);
    debug_assert!(dst.len() >= panels * rows * NR);
    let mut runs = [ColumnRun::default(); NR];
    for panel in 0..panels {
        let j0 = panel * NR;
        let n_runs = layout.runs(j0, NR.min(count - j0), &mut runs);
        let panel_dst = &mut dst[panel * rows * NR..(panel + 1) * rows * NR];
        for p in 0..rows {
            for run in &runs[..n_runs] {
                let at = run.offset + p * layout.row_stride;
                panel_dst[p * NR + run.j..p * NR + run.j + run.len]
                    .copy_from_slice(&src[at..at + run.len]);
            }
        }
    }
}

/// Packs up to [`MR`] rows × `count` columns of row-major `a` (leading dimension
/// `lda`, starting at `(row0, col0)`) into a column-major panel: element `(r, p)`
/// lands at `dst[p*MR + r]`. Missing tail rows are zero-padded (destination must
/// arrive zeroed).
pub fn pack_a_panel(
    a: &[f32],
    row0: usize,
    rows: usize,
    col0: usize,
    count: usize,
    lda: usize,
    dst: &mut [f32],
) {
    debug_assert!(rows <= MR && dst.len() >= count * MR);
    for r in 0..rows {
        let row = &a[(row0 + r) * lda + col0..(row0 + r) * lda + col0 + count];
        for (p, &value) in row.iter().enumerate() {
            dst[p * MR + r] = value;
        }
    }
}

/// The register-tiled inner kernel: accumulates `apanel · bpanel` over `k` steps
/// into an `MR × NR` tile. Panels must be laid out by [`pack_a_panel`] / [`pack_b`].
///
/// On x86-64 builds with AVX2+FMA enabled (the workspace builds with
/// `-C target-cpu=native`) this statically dispatches to a hand-scheduled intrinsics
/// kernel holding all 12 accumulator vectors in registers; other targets use a
/// portable loop that auto-vectorizes.
#[inline]
fn microkernel(k: usize, apanel: &[f32], bpanel: &[f32]) -> [[f32; NR]; MR] {
    #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
    {
        microkernel_avx512(k, apanel, bpanel)
    }
    #[cfg(all(
        target_arch = "x86_64",
        target_feature = "avx2",
        target_feature = "fma",
        not(target_feature = "avx512f")
    ))]
    {
        microkernel_avx2(k, apanel, bpanel)
    }
    #[cfg(not(all(target_arch = "x86_64", target_feature = "avx2", target_feature = "fma")))]
    {
        microkernel_portable(k, apanel, bpanel)
    }
}

/// AVX-512 microkernel: 12 × `__m512` accumulators (6 rows × 32 columns), two B
/// loads and six A broadcasts per k-step.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
#[inline]
fn microkernel_avx512(k: usize, apanel: &[f32], bpanel: &[f32]) -> [[f32; NR]; MR] {
    use core::arch::x86_64::{
        __m512, _mm512_fmadd_ps, _mm512_loadu_ps, _mm512_set1_ps, _mm512_setzero_ps,
        _mm512_storeu_ps,
    };
    // Two 16-lane vectors per row: the loads at `bp`, `bp + 16` and the stores
    // at `out[r]`, `out[r] + 16` below cover exactly one `NR`-wide row.
    const _: () = assert!(NR == 32);
    assert!(apanel.len() >= k * MR && bpanel.len() >= k * NR);
    // SAFETY: AVX-512F is enabled at compile time (this function only exists
    // under that `cfg`), so every intrinsic is executable. Step `s` (0 ≤ s < k)
    // reads `ap[s*MR .. s*MR + MR]` and `bp[s*NR .. s*NR + NR]`; the assert above
    // bounds both by the panels' lengths, and the pointers advance by exactly
    // `MR` / `NR` per step. The unaligned loads and stores have no alignment
    // requirement, and each store writes 16 lanes of a 32-lane `out` row.
    unsafe {
        let mut acc: [[__m512; 2]; MR] = [[_mm512_setzero_ps(); 2]; MR];
        let mut ap = apanel.as_ptr();
        let mut bp = bpanel.as_ptr();
        for _ in 0..k {
            let b_lo = _mm512_loadu_ps(bp);
            let b_hi = _mm512_loadu_ps(bp.add(16));
            macro_rules! fma_row {
                ($r:literal) => {
                    let a = _mm512_set1_ps(*ap.add($r));
                    acc[$r][0] = _mm512_fmadd_ps(a, b_lo, acc[$r][0]);
                    acc[$r][1] = _mm512_fmadd_ps(a, b_hi, acc[$r][1]);
                };
            }
            fma_row!(0);
            fma_row!(1);
            fma_row!(2);
            fma_row!(3);
            fma_row!(4);
            fma_row!(5);
            ap = ap.add(MR);
            bp = bp.add(NR);
        }
        let mut out = [[0.0f32; NR]; MR];
        for r in 0..MR {
            _mm512_storeu_ps(out[r].as_mut_ptr(), acc[r][0]);
            _mm512_storeu_ps(out[r].as_mut_ptr().add(16), acc[r][1]);
        }
        out
    }
}

#[allow(dead_code)]
#[inline]
fn microkernel_portable(k: usize, apanel: &[f32], bpanel: &[f32]) -> [[f32; NR]; MR] {
    let mut acc = [[0.0f32; NR]; MR];
    for (avals, bvals) in apanel.chunks_exact(MR).zip(bpanel.chunks_exact(NR)).take(k) {
        let mut b = [0.0f32; NR];
        b.copy_from_slice(bvals);
        for r in 0..MR {
            let a = avals[r];
            for c in 0..NR {
                // `mul_add` lowers to a hardware FMA when the target has one; rustc
                // never contracts `a * b + c` on its own.
                if cfg!(target_feature = "fma") {
                    acc[r][c] = a.mul_add(b[c], acc[r][c]);
                } else {
                    acc[r][c] += a * b[c];
                }
            }
        }
    }
    acc
}

/// AVX2+FMA microkernel: 12 × `__m256` accumulators (6 rows × 16 columns), two B
/// loads and six A broadcasts per k-step — FMA-port bound rather than load bound.
#[cfg(all(
    target_arch = "x86_64",
    target_feature = "avx2",
    target_feature = "fma",
    not(target_feature = "avx512f")
))]
#[inline]
fn microkernel_avx2(k: usize, apanel: &[f32], bpanel: &[f32]) -> [[f32; NR]; MR] {
    use core::arch::x86_64::{
        __m256, _mm256_broadcast_ss, _mm256_fmadd_ps, _mm256_loadu_ps, _mm256_setzero_ps,
        _mm256_storeu_ps,
    };
    // Two 8-lane vectors per row: the loads at `bp`, `bp + 8` and the stores at
    // `out[r]`, `out[r] + 8` below cover exactly one `NR`-wide row.
    const _: () = assert!(NR == 16);
    assert!(apanel.len() >= k * MR && bpanel.len() >= k * NR);
    // SAFETY: AVX2 and FMA are enabled at compile time (this function only
    // exists under that `cfg`), so every intrinsic is executable. Step `s`
    // (0 ≤ s < k) reads `ap[s*MR .. s*MR + MR]` and `bp[s*NR .. s*NR + NR]`; the
    // assert above bounds both by the panels' lengths, and the pointers advance
    // by exactly `MR` / `NR` per step. The unaligned loads and stores have no
    // alignment requirement, and each store writes 8 lanes of a 16-lane `out`
    // row.
    unsafe {
        let mut acc: [[__m256; 2]; MR] = [[_mm256_setzero_ps(); 2]; MR];
        let mut ap = apanel.as_ptr();
        let mut bp = bpanel.as_ptr();
        for _ in 0..k {
            let b_lo = _mm256_loadu_ps(bp);
            let b_hi = _mm256_loadu_ps(bp.add(8));
            // Fully unrolled over rows so every accumulator stays pinned to a register.
            macro_rules! fma_row {
                ($r:literal) => {
                    let a = _mm256_broadcast_ss(&*ap.add($r));
                    acc[$r][0] = _mm256_fmadd_ps(a, b_lo, acc[$r][0]);
                    acc[$r][1] = _mm256_fmadd_ps(a, b_hi, acc[$r][1]);
                };
            }
            fma_row!(0);
            fma_row!(1);
            fma_row!(2);
            fma_row!(3);
            fma_row!(4);
            fma_row!(5);
            ap = ap.add(MR);
            bp = bp.add(NR);
        }
        let mut out = [[0.0f32; NR]; MR];
        for r in 0..MR {
            _mm256_storeu_ps(out[r].as_mut_ptr(), acc[r][0]);
            _mm256_storeu_ps(out[r].as_mut_ptr().add(8), acc[r][1]);
        }
        out
    }
}

/// A mutable buffer that the tasks of one parallel dispatch write through at
/// once, each into its own pairwise-disjoint ranges (GEMM row chunks,
/// Winograd output tile rows, or workspace slots). It borrows nothing:
/// whoever builds it keeps the buffer mutably borrowed, and unused, for as
/// long as any task holds it.
pub(crate) struct OutPtr {
    ptr: *mut f32,
    len: usize,
}

// SAFETY: `len` is plain data. `ptr` is only dereferenced through
// `OutPtr::slice_mut`, whose contract makes callers guarantee that the buffer
// outlives every use and that no two live slices overlap, so moving or sharing
// the pointer between threads adds no aliasing beyond what that contract
// already rules out (and `f32` itself is `Send + Sync`).
unsafe impl Send for OutPtr {}
// SAFETY: see the `Send` impl above.
unsafe impl Sync for OutPtr {}

impl OutPtr {
    pub(crate) fn new(buffer: &mut [f32]) -> Self {
        OutPtr { ptr: buffer.as_mut_ptr(), len: buffer.len() }
    }

    /// Elements `start..start + len` of the buffer.
    ///
    /// # Safety
    /// The buffer [`OutPtr::new`] was given must still be alive and otherwise
    /// unused, and no other slice obtained from this `OutPtr` that overlaps
    /// the range may be live (on any thread).
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn slice_mut(&self, start: usize, len: usize) -> &mut [f32] {
        assert!(start + len <= self.len, "{start}+{len} overruns {} elements", self.len);
        // SAFETY: the range lies inside the buffer (asserted above), and the
        // caller guarantees the buffer is live and the range exclusively ours.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(start), len) }
    }
}

/// Writes one output row's epilogue slice: combine the accumulator with the
/// partial sum (or bias on a single-slice reduction), add the optional residual,
/// apply the activation. Monomorphized per activation so the inner loop is
/// branch-free.
#[inline]
fn write_row_epilogue(
    out_row: &mut [f32],
    acc_row: &[f32],
    first_slice: bool,
    base: f32,
    skip_row: Option<&[f32]>,
    activation: FusedActivation,
) {
    match activation {
        FusedActivation::None => {
            write_row_epilogue_with(out_row, acc_row, first_slice, base, skip_row, |y| y)
        }
        FusedActivation::Relu => {
            write_row_epilogue_with(out_row, acc_row, first_slice, base, skip_row, |y| y.max(0.0))
        }
        FusedActivation::Relu6 => {
            write_row_epilogue_with(out_row, acc_row, first_slice, base, skip_row, |y| {
                y.clamp(0.0, 6.0)
            })
        }
    }
}

#[inline]
fn write_row_epilogue_with(
    out_row: &mut [f32],
    acc_row: &[f32],
    first_slice: bool,
    base: f32,
    skip_row: Option<&[f32]>,
    act: impl Fn(f32) -> f32,
) {
    match skip_row {
        Some(skip) => {
            for ((o, &v), &s) in out_row.iter_mut().zip(acc_row).zip(skip) {
                let partial = if first_slice { v + base } else { *o + v };
                *o = act(partial + s);
            }
        }
        None => {
            for (o, &v) in out_row.iter_mut().zip(acc_row) {
                let partial = if first_slice { v + base } else { *o + v };
                *o = act(partial);
            }
        }
    }
}

/// Computes `rows` rows of `C = A · B` against pre-packed B panels, writing into a
/// strided destination.
///
/// Within each KC slice, every column panel of one `MR`-row tile is computed
/// before the next tile (see the module docs for why).
///
/// * `lhs` — the left operand: row-major data packed per KC slice into scratch, or
///   panels prepacked once by [`PreparedGemmA`] (in which case `row0` must be
///   `MR`-aligned and the packed `k` must match). Rows `[row0, row0+rows)` are
///   consumed.
/// * `bpack` — B packed by [`pack_b`]: `cols` logical columns over a shared
///   dimension of `k`.
/// * `dst` — destination window. Logical element `(r, j)` (with `r` relative to
///   `row0`) is stored at `dst[r * row_stride + col_offset + j]`.
///
/// In [`WriteMode::Overwrite`] the epilogue's bias lands on the first KC slice and
/// its residual + activation on the last, so partial sums accumulate exactly as
/// the unfused path would before the pointwise tail runs — fused output is
/// bitwise identical to conv-then-separate-passes.
///
/// The caller guarantees `dst` is large enough; out-of-range tile tails are never
/// touched.
#[allow(clippy::too_many_arguments)]
pub fn packed_gemm_strided(
    lhs: GemmLhs<'_>,
    row0: usize,
    rows: usize,
    k: usize,
    bpack: &[f32],
    cols: usize,
    dst: &mut [f32],
    row_stride: usize,
    col_offset: usize,
    mode: WriteMode<'_>,
) {
    let out = OutPtr::new(dst);
    let layout = ColumnLayout::rows(row_stride, col_offset);
    // SAFETY: `dst` is exclusively borrowed for the whole call and only
    // reached through `out`.
    unsafe { gemm_rows(lhs, row0, rows, k, bpack, cols, &out, 0, layout, mode) };
}

/// The body of [`packed_gemm_strided`] over any [`ColumnLayout`]: element
/// `(r, j)` (`r` relative to `row0`) of the product — and of the epilogue's
/// residual, which mirrors the destination buffer — is at `base + r *
/// row_stride` plus the layout's offset of column `j`. Each element
/// accumulates its KC slices in the same order wherever its column lands, so
/// the layout never changes a bit.
///
/// # Safety
/// The buffer behind `out` must be alive and, at the positions rows `[0,
/// rows)` map to, untouched by anyone else for the duration of the call.
#[allow(clippy::too_many_arguments)]
unsafe fn gemm_rows(
    lhs: GemmLhs<'_>,
    row0: usize,
    rows: usize,
    k: usize,
    bpack: &[f32],
    cols: usize,
    out: &OutPtr,
    base: usize,
    layout: ColumnLayout,
    mode: WriteMode<'_>,
) {
    let col_panels = cols.div_ceil(NR);
    let tiles = rows.div_ceil(MR);
    let kc_step = KC;
    // One A block (on-the-fly packing only): every tile of this chunk over one
    // column slice, packed once per slice and reused across all B panels (it
    // stays cache-resident). Prepacked operands skip this buffer entirely.
    let mut apack = match lhs {
        GemmLhs::Rows { .. } => Some(scratch::take(tiles * kc_step * MR)),
        GemmLhs::Packed { panels, k: packed_k } => {
            assert_eq!(packed_k, k, "prepacked panels were built for a different k");
            assert!(row0.is_multiple_of(MR), "prepacked GEMM requires MR-aligned row chunks");
            assert!(panels.len() >= (row0 / MR + tiles) * k * MR, "prepacked panels too short");
            None
        }
    };
    let mut runs = [ColumnRun::default(); NR];
    let mut pc = 0;
    while pc < k {
        let kc = kc_step.min(k - pc);
        let first_slice = pc == 0;
        let last_slice = pc + kc == k;
        // Tiles pack densely at the current slice's `kc * MR` stride, so only the
        // region actually consumed needs (re-)zeroing — and only when a partial
        // tail tile leaves padding rows that packing does not overwrite. This
        // matters for short shared dimensions (e.g. the Winograd per-point GEMMs,
        // k = in_channels), where zeroing the full KC-sized buffer per call would
        // cost more than the packing itself.
        let tile_stride = kc * MR;
        if let (GemmLhs::Rows { data, lda }, Some(apack)) = (lhs, apack.as_mut()) {
            if !rows.is_multiple_of(MR) && !first_slice {
                apack[..tiles * tile_stride].iter_mut().for_each(|x| *x = 0.0);
            }
            for tile in 0..tiles {
                let tile_rows = MR.min(rows - tile * MR);
                pack_a_panel(
                    data,
                    row0 + tile * MR,
                    tile_rows,
                    pc,
                    kc,
                    lda,
                    &mut apack[tile * tile_stride..(tile + 1) * tile_stride],
                );
            }
        }
        // Every panel of one row tile before the next tile (module docs).
        for tile in 0..tiles {
            let tile_rows = MR.min(rows - tile * MR);
            let atile: &[f32] = match (&lhs, &apack) {
                (GemmLhs::Rows { .. }, Some(apack)) => {
                    &apack[tile * tile_stride..(tile + 1) * tile_stride]
                }
                (GemmLhs::Packed { panels, .. }, _) => {
                    let t = row0 / MR + tile;
                    &panels[t * k * MR + pc * MR..t * k * MR + (pc + kc) * MR]
                }
                _ => unreachable!("apack exists exactly for the Rows variant"),
            };
            for panel in 0..col_panels {
                let j0 = panel * NR;
                let width = NR.min(cols - j0);
                let n_runs = layout.runs(j0, width, &mut runs);
                let bslice = &bpack[panel * k * NR + pc * NR..panel * k * NR + (pc + kc) * NR];
                let acc = microkernel(kc, atile, bslice);
                for r in 0..tile_rows {
                    let row_base = base + (tile * MR + r) * layout.row_stride;
                    for run in &runs[..n_runs] {
                        let start = row_base + run.offset;
                        // SAFETY: row `tile * MR + r < rows` of the caller's
                        // range; the caller guarantees nobody else touches it,
                        // and the slice dies before the next one is made.
                        let out_row = unsafe { out.slice_mut(start, run.len) };
                        let acc_row = &acc[r][run.j..run.j + run.len];
                        match mode {
                            WriteMode::Overwrite { epilogue } if last_slice => {
                                let base = if first_slice {
                                    epilogue.bias.map_or(0.0, |b| b[tile * MR + r])
                                } else {
                                    0.0
                                };
                                let skip_row =
                                    epilogue.residual.map(|s| &s[start..start + run.len]);
                                write_row_epilogue(
                                    out_row,
                                    acc_row,
                                    first_slice,
                                    base,
                                    skip_row,
                                    epilogue.activation,
                                );
                            }
                            WriteMode::Overwrite { epilogue } if first_slice => {
                                let base = epilogue.bias.map_or(0.0, |b| b[tile * MR + r]);
                                for (o, &v) in out_row.iter_mut().zip(acc_row) {
                                    *o = v + base;
                                }
                            }
                            // Middle KC slices accumulate onto the partial sums, as
                            // does every slice in Accumulate mode.
                            _ => {
                                for (o, &v) in out_row.iter_mut().zip(acc_row) {
                                    *o += v;
                                }
                            }
                        }
                    }
                }
            }
        }
        pc += kc;
    }
    if let Some(apack) = apack {
        scratch::give(apack);
    }
}

/// Splits the rows of a C region into `MR`-aligned chunks and runs
/// [`packed_gemm_strided`]'s kernel on worker threads. Element `(r, j)` of the
/// product lands in `region` where `layout` puts column `j` of row `r`
/// (`r * row_stride + col_offset + j` for [`ColumnLayout::rows`]; in its own
/// image's map for a GEMM whose columns are folded across a batch). The
/// epilogue's `bias` is indexed by absolute row and its `residual` exactly
/// like `region` (it must have the same length).
///
/// # Panics
/// Panics unless the layout keeps every row's columns apart: for a single map
/// `col_offset + cols ≤ row_stride`, for several `plane ≤ row_stride` and
/// `image_stride ≥ m · row_stride`.
#[allow(clippy::too_many_arguments)]
pub fn parallel_packed_gemm(
    lhs: GemmLhs<'_>,
    m: usize,
    k: usize,
    bpack: &[f32],
    cols: usize,
    region: &mut [f32],
    layout: ColumnLayout,
    epilogue: Epilogue<'_>,
    accumulate: bool,
    parallel: bool,
) {
    // Chunks write through one shared pointer, so the layout must send
    // distinct rows to disjoint elements.
    match layout.images {
        None => {
            assert!(layout.col_offset + cols <= layout.row_stride, "GEMM columns overrun a row")
        }
        Some((plane, image_stride)) => assert!(
            plane <= layout.row_stride && image_stride >= m * layout.row_stride,
            "folded maps overlap: {layout:?} for {m} rows"
        ),
    }
    if let Some(residual) = epilogue.residual {
        assert_eq!(residual.len(), region.len(), "residual must mirror the region");
    }
    // Chunk height balances B-block reuse (taller chunks amortize each cached
    // KC × NR slice across more row tiles) against load balance (enough chunks to
    // feed every worker). Small or heavily-threaded products fall back to single
    // tiles.
    let threads = parallel::num_threads();
    let rows_per_chunk = if !parallel || m >= threads * MC { MC } else { MR };
    let want_parallel = parallel && (m as u64) * (k as u64) * (cols as u64) >= PARALLEL_MIN_MACS;
    let out = OutPtr::new(region);
    parallel::for_each_task(m.div_ceil(rows_per_chunk), want_parallel, |chunk_index| {
        let row0 = chunk_index * rows_per_chunk;
        let rows = rows_per_chunk.min(m - row0);
        let mode = if accumulate {
            WriteMode::Accumulate
        } else {
            WriteMode::Overwrite {
                epilogue: Epilogue {
                    bias: epilogue.bias.map(|b| &b[row0..row0 + rows]),
                    ..epilogue
                },
            }
        };
        let base = row0 * layout.row_stride;
        // SAFETY: `region` stays exclusively borrowed through `out` until every
        // task returns; the chunks partition the rows, and the asserts above
        // keep distinct rows' elements apart.
        unsafe { gemm_rows(lhs, row0, rows, k, bpack, cols, &out, base, layout, mode) };
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference(m: usize, n: usize, k: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                out[i * n + j] = (0..k).map(|p| a[i * k + p] * b[p * n + j]).sum();
            }
        }
        out
    }

    #[test]
    fn pack_b_round_trips_columns() {
        let rows = 3usize;
        let cols = 10usize;
        let src: Vec<f32> = (0..rows * cols).map(|i| i as f32).collect();
        let panels = cols.div_ceil(NR);
        let mut packed = vec![0.0; panels * rows * NR];
        pack_b(&src, rows, cols, 0, cols, &mut packed);
        for j in 0..cols {
            for p in 0..rows {
                let panel = j / NR;
                let within = j % NR;
                assert_eq!(packed[panel * rows * NR + p * NR + within], src[p * cols + j]);
            }
        }
    }

    #[test]
    fn strided_gemm_matches_reference() {
        let (m, n, k) = (13, 21, 17);
        let a: Vec<f32> = (0..m * k).map(|i| ((i * 7) % 23) as f32 - 11.0).collect();
        let b: Vec<f32> = (0..k * n).map(|i| ((i * 5) % 19) as f32 - 9.0).collect();
        let expect = reference(m, n, k, &a, &b);

        let panels = n.div_ceil(NR);
        let mut bpack = vec![0.0; panels * k * NR];
        pack_b(&b, k, n, 0, n, &mut bpack);

        // Write into a strided destination with a column offset.
        let row_stride = n + 5;
        let col_offset = 3;
        let mut dst = vec![-1.0; m * row_stride + col_offset];
        packed_gemm_strided(
            GemmLhs::Rows { data: &a, lda: k },
            0,
            m,
            k,
            &bpack,
            n,
            &mut dst,
            row_stride,
            col_offset,
            WriteMode::Overwrite { epilogue: Epilogue::with_bias(None) },
        );
        for i in 0..m {
            for j in 0..n {
                let got = dst[i * row_stride + col_offset + j];
                assert!((got - expect[i * n + j]).abs() < 1e-3, "({i},{j}): {got}");
            }
        }
        // Elements outside the window must be untouched.
        assert!(dst[..col_offset].iter().all(|&x| x == -1.0));

        // The prepacked left operand must reproduce the on-the-fly path bitwise.
        let prepared = PreparedGemmA::prepare(&a, k, m, k);
        assert_eq!(prepared.rows(), m);
        assert_eq!(prepared.k(), k);
        assert!(prepared.resident_bytes() > 0);
        let mut pre = vec![-1.0; m * row_stride + col_offset];
        packed_gemm_strided(
            prepared.as_lhs(),
            0,
            m,
            k,
            &bpack,
            n,
            &mut pre,
            row_stride,
            col_offset,
            WriteMode::Overwrite { epilogue: Epilogue::with_bias(None) },
        );
        assert_eq!(pre, dst, "prepacked lhs must be bitwise identical");
    }

    #[test]
    fn bias_and_accumulate_modes() {
        let (m, n, k) = (9, 6, 4);
        let a = vec![1.0; m * k];
        let b = vec![2.0; k * n];
        let bias: Vec<f32> = (0..m).map(|i| i as f32).collect();
        let mut bpack = vec![0.0; n.div_ceil(NR) * k * NR];
        pack_b(&b, k, n, 0, n, &mut bpack);

        let mut dst = vec![0.0; m * n];
        packed_gemm_strided(
            GemmLhs::Rows { data: &a, lda: k },
            0,
            m,
            k,
            &bpack,
            n,
            &mut dst,
            n,
            0,
            WriteMode::Overwrite { epilogue: Epilogue::with_bias(Some(&bias)) },
        );
        for i in 0..m {
            assert!(dst[i * n..(i + 1) * n].iter().all(|&x| (x - (8.0 + i as f32)).abs() < 1e-6));
        }

        let mut acc_dst = vec![1.0; m * n];
        packed_gemm_strided(
            GemmLhs::Rows { data: &a, lda: k },
            0,
            m,
            k,
            &bpack,
            n,
            &mut acc_dst,
            n,
            0,
            WriteMode::Accumulate,
        );
        assert!(acc_dst.iter().all(|&x| (x - 9.0).abs() < 1e-6));
    }

    #[test]
    fn fused_epilogue_matches_separate_passes_bitwise() {
        // Multi-slice reduction (k > KC) so bias lands on the first slice and the
        // residual + activation on the last.
        let (m, n, k) = (11, 37, KC + 17);
        let a: Vec<f32> = (0..m * k).map(|i| ((i * 29) % 23) as f32 * 0.05 - 0.5).collect();
        let b: Vec<f32> = (0..k * n).map(|i| ((i * 31) % 19) as f32 * 0.05 - 0.45).collect();
        let bias: Vec<f32> = (0..m).map(|i| (i as f32 - 5.0) * 0.3).collect();
        let skip: Vec<f32> = (0..m * n).map(|i| ((i * 13) % 11) as f32 * 0.2 - 1.0).collect();
        let mut bpack = vec![0.0; n.div_ceil(NR) * k * NR];
        pack_b(&b, k, n, 0, n, &mut bpack);

        // Unfused: plain biased GEMM, then the separate residual + ReLU sweep.
        let mut plain = vec![0.0; m * n];
        packed_gemm_strided(
            GemmLhs::Rows { data: &a, lda: k },
            0,
            m,
            k,
            &bpack,
            n,
            &mut plain,
            n,
            0,
            WriteMode::Overwrite { epilogue: Epilogue::with_bias(Some(&bias)) },
        );
        let separate: Vec<f32> = plain.iter().zip(&skip).map(|(&o, &s)| (o + s).max(0.0)).collect();

        let mut fused = vec![0.0; m * n];
        packed_gemm_strided(
            GemmLhs::Rows { data: &a, lda: k },
            0,
            m,
            k,
            &bpack,
            n,
            &mut fused,
            n,
            0,
            WriteMode::Overwrite {
                epilogue: Epilogue {
                    bias: Some(&bias),
                    residual: Some(&skip),
                    activation: FusedActivation::Relu,
                },
            },
        );
        for (f, s) in fused.iter().zip(&separate) {
            assert_eq!(f.to_bits(), s.to_bits(), "fused epilogue must be bitwise identical");
        }
    }

    #[test]
    fn fused_activation_applies() {
        assert_eq!(FusedActivation::None.apply(-3.0), -3.0);
        assert_eq!(FusedActivation::Relu.apply(-3.0), 0.0);
        assert_eq!(FusedActivation::Relu.apply(2.0), 2.0);
        assert_eq!(FusedActivation::Relu6.apply(9.0), 6.0);
    }

    #[test]
    fn prepared_gemm_b_transposed_matches_pack_b() {
        let (k, cols) = (5usize, 7usize);
        // Row-major cols × k weight (the FC convention), and its transpose k × cols.
        let w: Vec<f32> = (0..cols * k).map(|i| i as f32 * 0.5 - 3.0).collect();
        let mut wt = vec![0.0f32; k * cols];
        for j in 0..cols {
            for p in 0..k {
                wt[p * cols + j] = w[j * k + p];
            }
        }
        let from_rows = PreparedGemmB::prepare(&wt, k, cols);
        let transposed = PreparedGemmB::prepare_transposed(&w, cols, k);
        assert_eq!(from_rows.panels(), transposed.panels());
        assert_eq!(transposed.k(), k);
        assert_eq!(transposed.cols(), cols);
    }

    #[test]
    fn parallel_driver_is_deterministic_across_thread_counts() {
        let _guard = crate::test_sync::global_state_lock();
        let (m, n, k) = (40usize, 120usize, 230usize);
        let a: Vec<f32> = (0..m * k).map(|i| ((i * 13) % 31) as f32 * 0.1 - 1.5).collect();
        let b: Vec<f32> = (0..k * n).map(|i| ((i * 11) % 29) as f32 * 0.1 - 1.4).collect();
        let mut bpack = vec![0.0; n.div_ceil(NR) * k * NR];
        pack_b(&b, k, n, 0, n, &mut bpack);

        let original = crate::parallel::num_threads();
        let mut results = Vec::new();
        for threads in [1usize, 2, 5] {
            crate::parallel::set_num_threads(threads);
            let mut out = vec![0.0f32; m * n];
            parallel_packed_gemm(
                GemmLhs::Rows { data: &a, lda: k },
                m,
                k,
                &bpack,
                n,
                &mut out,
                ColumnLayout::rows(n, 0),
                Epilogue::default(),
                false,
                true,
            );
            results.push(out);
        }
        crate::parallel::set_num_threads(original);
        assert_eq!(results[0], results[1], "1 vs 2 threads must agree bitwise");
        assert_eq!(results[0], results[2], "1 vs 5 threads must agree bitwise");
        let expect = reference(m, n, k, &a, &b);
        for (x, y) in results[0].iter().zip(&expect) {
            assert!((x - y).abs() < 1e-2);
        }
    }
}
