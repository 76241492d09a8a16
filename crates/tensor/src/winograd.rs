//! Winograd F(2×2, 3×3) convolution: the minimal-filtering algorithm of Lavin &
//! Gray, executing stride-1 3×3 convolutions with ~2.25× fewer multiplies than
//! im2col + GEMM.
//!
//! # Algorithm
//!
//! Each 2×2 output tile is computed from a 4×4 input tile through three linear
//! transforms:
//!
//! 1. **Filter transform** (once per layer): `U = G·g·Gᵀ`, lifting every 3×3
//!    kernel `g` to 16 transform points. [`WinogradFilter`] caches this so a
//!    forward pass pays only the input/output transforms and the GEMMs.
//! 2. **Input transform** (per tile): `V = Bᵀ·d·B` over the 4×4 input patch `d`
//!    (neighbouring patches overlap by two pixels; padding positions are zero).
//! 3. **Elementwise stage as GEMMs**: the per-point channel reduction
//!    `M(t) = U(t) · V(t)` is one `O×I × I×P` matrix product per transform point
//!    `t ∈ 0..16`, where `P` is the number of tiles — executed on the packed
//!    microkernel from [`crate::engine`], with `V` written *directly* into
//!    packed-B panel layout by the input transform (no repack pass).
//! 4. **Output transform**: `Y = Aᵀ·M·A` folds the 16 points back into the 2×2
//!    output tile, with the per-channel bias and an optional [`FusedActivation`]
//!    applied in the same pass.
//!
//! # Execution
//!
//! Tiles are processed in chunks of whole tile rows sized to a target GEMM
//! width and a cap on the packed-`V` footprint; chunks run on the persistent
//! worker pool ([`parallel::for_each_task`]). All working buffers (packed `V`,
//! the 16 `M` matrices) are slots of one workspace the *calling* thread takes
//! from its [`crate::scratch`] arena per dispatch — one slot per
//! concurrent task, never the workers' arenas, because which workers join a
//! dispatch of a few chunks varies from call to call — so steady-state forward
//! passes perform zero heap allocations here too.
//!
//! # Determinism and tolerance
//!
//! The chunk decomposition is a pure function of the output shape, every output
//! element is written by exactly one task, and each task uses one fixed
//! accumulation order (the engine's KC-blocked reduction per transform point,
//! then the fixed 16-term inverse transform) — results are therefore **bitwise
//! identical for every thread count**. Against
//! [`crate::ConvAlgo::Im2colPacked`] the results are *not* bitwise equal: Winograd
//! legitimately reassociates the arithmetic, and the contract — pinned by
//! `tests/winograd_parity.rs` — is elementwise agreement within `1e-4` at
//! unit-scale activations.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::engine::{self, Epilogue, GemmLhs, OutPtr, WriteMode, MR, NR};
use crate::error::{Result, TensorError};
use crate::shape::Conv2dParams;
use crate::tensor::Tensor;
use crate::{parallel, scratch};

pub use crate::engine::FusedActivation;

/// Transform points of F(2×2, 3×3): a 4×4 grid.
const POINTS: usize = 16;
/// Output tile extent.
pub(crate) const TILE: usize = 2;
/// Input tile extent (`TILE + kernel − 1`).
const ALPHA: usize = 4;

/// Transform points of F(4×4, 3×3): a 6×6 grid.
const POINTS_F4: usize = 36;
/// Output tile extent of F(4×4, 3×3).
pub(crate) const TILE_F4: usize = 4;
/// Input tile extent of F(4×4, 3×3) (`TILE_F4 + kernel − 1`).
const ALPHA_F4: usize = 6;

/// Elementwise agreement bound for F(4×4, 3×3) against `Im2colPacked` at
/// unit-scale activations and half-scale weights, pinned by the
/// characterization suite across the serving-ladder layer shapes. The α=6
/// transform's larger stencil coefficients (up to 8 in `Aᵀ`, 1/24 in `G`)
/// legitimately amplify rounding relative to F(2×2)'s `1e-4` contract;
/// calibration only admits `WinogradF4` for a shape when
/// [`winograd_f4_unit_error`] stays within this bound.
pub const WINOGRAD_F4_TOLERANCE: f32 = 2e-3;

/// The F(4×4, 3×3) filter-transform stencil `G·[g0,g1,g2]ᵀ` for one column,
/// with `G` the 6×3 matrix of Lavin & Gray:
/// `[[1/4,0,0],[−1/6,−1/6,−1/6],[−1/6,1/6,−1/6],[1/24,1/12,1/6],
/// [1/24,−1/12,1/6],[0,0,1]]`.
#[inline]
fn f4_filter_stencil(g0: f32, g1: f32, g2: f32) -> [f32; ALPHA_F4] {
    [
        0.25 * g0,
        -(g0 + g1 + g2) / 6.0,
        (g1 - g0 - g2) / 6.0,
        g0 / 24.0 + g1 / 12.0 + g2 / 6.0,
        g0 / 24.0 - g1 / 12.0 + g2 / 6.0,
        g2,
    ]
}

/// A 3×3 filter bank lifted to the 16 Winograd transform points: `U = G·g·Gᵀ`
/// per (output channel, input channel) pair.
///
/// The transform is resolution-independent, so models cache one
/// `WinogradFilter` per eligible convolution layer and reuse it at every input
/// size; per-forward cost is then input/output transforms plus GEMMs only.
/// Memory cost is `16/9 ≈ 1.78×` the original weights (rounded up to `MR`-row
/// tiles).
///
/// Layout: each point's `O × I` matrix is stored **prepacked** into the engine's
/// left-operand panel layout ([`engine::PreparedGemmA`]-style full-K `MR`-row
/// tiles), so the per-point GEMMs never repack the transformed weights — an
/// unprepacked Winograd pass used to re-pack the whole `U` bank once per tile
/// chunk, every forward.
#[derive(Debug, Clone)]
pub struct WinogradFilter {
    /// `[points]` segments of `tiles × in_channels × MR` packed panels.
    u: Vec<f32>,
    /// Elements per point segment.
    point_seg: usize,
    /// Transform points: [`POINTS`] for F(2×2), [`POINTS_F4`] for F(4×4).
    points: usize,
    out_channels: usize,
    in_channels: usize,
}

impl WinogradFilter {
    /// Computes the filter transform for a dense stride-1 3×3 convolution.
    ///
    /// # Errors
    /// Returns an error if the parameters are not Winograd-eligible
    /// (kernel 3, stride 1, dense groups) or the weight shape does not match.
    pub fn prepare(weight: &Tensor, params: &Conv2dParams) -> Result<Self> {
        Self::transform(weight, params, false, |len| vec![0.0; len])
    }

    /// Computes the F(4×4, 3×3) filter transform: `U = G·g·Gᵀ` with the 6×3
    /// `G` of `f4_filter_stencil`, lifting every kernel to 36 transform
    /// points in the same prepacked panel layout as [`Self::prepare`]. Memory
    /// cost is `36/9 = 4×` the original weights (vs `1.78×` for F(2×2)), paid
    /// once per layer.
    ///
    /// # Errors
    /// Returns an error if the parameters are not Winograd-eligible
    /// (kernel 3, stride 1, dense groups) or the weight shape does not match.
    pub fn prepare_f4(weight: &Tensor, params: &Conv2dParams) -> Result<Self> {
        Self::transform(weight, params, true, |len| vec![0.0; len])
    }

    /// Validates the layer and fills a zeroed bank from `alloc` with the
    /// F(2×2) or F(4×4) transform. Cached banks own a plain `Vec`; the
    /// per-call banks of the unprepared entry points borrow theirs from the
    /// scratch arena.
    fn transform(
        weight: &Tensor,
        params: &Conv2dParams,
        f4: bool,
        alloc: impl FnOnce(usize) -> Vec<f32>,
    ) -> Result<Self> {
        if !crate::conv::ConvAlgo::Winograd.supports(params) {
            return Err(TensorError::ShapeMismatch {
                left: vec![params.kernel, params.stride, params.groups],
                right: vec![3, 1, 1],
                op: if f4 {
                    "winograd_f4 requires kernel=3 stride=1 groups=1"
                } else {
                    "winograd requires kernel=3 stride=1 groups=1"
                },
            });
        }
        crate::conv::validate_weight(params, weight)?;
        let o = params.out_channels;
        let i = params.in_channels;
        // Packed destination: point t, tile oc/MR, element (r = oc % MR, p = ic)
        // at `t*seg + tile*(i*MR) + ic*MR + r` — written directly, no O×I
        // intermediate. Tail-tile padding rows stay zero.
        let point_seg = o.div_ceil(MR) * i * MR;
        let points = if f4 { POINTS_F4 } else { POINTS };
        let mut u = alloc(points * point_seg);
        for (pair, g) in weight.as_slice().chunks_exact(9).enumerate() {
            let (oc, ic) = (pair / i, pair % i);
            let base = (oc / MR) * (i * MR) + oc % MR + ic * MR;
            if f4 {
                // tmp = G·g: the 6-point stencil down each of the 3 columns.
                let mut tmp = [[0.0f32; 3]; ALPHA_F4];
                for c in 0..3 {
                    let col = f4_filter_stencil(g[c], g[3 + c], g[6 + c]);
                    for r in 0..ALPHA_F4 {
                        tmp[r][c] = col[r];
                    }
                }
                // U = tmp·Gᵀ: the same stencil along each row.
                for r in 0..ALPHA_F4 {
                    let row = f4_filter_stencil(tmp[r][0], tmp[r][1], tmp[r][2]);
                    for (c, &value) in row.iter().enumerate() {
                        u[(r * ALPHA_F4 + c) * point_seg + base] = value;
                    }
                }
            } else {
                // tmp = G·g, with G = [[1,0,0],[½,½,½],[½,−½,½],[0,0,1]].
                let mut tmp = [[0.0f32; 3]; ALPHA];
                for c in 0..3 {
                    let (g0, g1, g2) = (g[c], g[3 + c], g[6 + c]);
                    tmp[0][c] = g0;
                    tmp[1][c] = 0.5 * (g0 + g1 + g2);
                    tmp[2][c] = 0.5 * (g0 - g1 + g2);
                    tmp[3][c] = g2;
                }
                // U = tmp·Gᵀ, same stencil along the rows.
                for r in 0..ALPHA {
                    let (t0, t1, t2) = (tmp[r][0], tmp[r][1], tmp[r][2]);
                    let row = [t0, 0.5 * (t0 + t1 + t2), 0.5 * (t0 - t1 + t2), t2];
                    for (c, &value) in row.iter().enumerate() {
                        u[(r * ALPHA + c) * point_seg + base] = value;
                    }
                }
            }
        }
        Ok(WinogradFilter { u, point_seg, points, out_channels: o, in_channels: i })
    }

    /// Whether this bank holds the 36-point F(4×4, 3×3) transform (as opposed
    /// to the 16-point F(2×2, 3×3) one).
    pub fn is_f4(&self) -> bool {
        self.points == POINTS_F4
    }

    /// Output channels of the transformed filter bank.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Input channels of the transformed filter bank.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Bytes resident in the packed transform bank.
    pub fn resident_bytes(&self) -> usize {
        self.u.len() * std::mem::size_of::<f32>()
    }
}

/// Interleaves two stencil-output lanes into one output row, adding the bias,
/// the optional residual row, and the fused activation:
/// `row[2t] = act(ya[t] + bias + skip[2t])`, `row[2t+1] = act(yb[t] + bias +
/// skip[2t+1])`, with the odd tail column (odd output widths) taking `ya` only.
#[inline]
fn emit_output_row(
    out_row: &mut [f32],
    ya: &[f32],
    yb: &[f32],
    bias: f32,
    skip: Option<&[f32]>,
    act: FusedActivation,
) {
    // Monomorphize per activation so the interleave loop body is branch-free.
    match act {
        FusedActivation::None => emit_interleaved(out_row, ya, yb, bias, skip, |y| y),
        FusedActivation::Relu => emit_interleaved(out_row, ya, yb, bias, skip, |y| y.max(0.0)),
        FusedActivation::Relu6 => {
            emit_interleaved(out_row, ya, yb, bias, skip, |y| y.clamp(0.0, 6.0))
        }
    }
}

#[inline]
fn emit_interleaved(
    out_row: &mut [f32],
    ya: &[f32],
    yb: &[f32],
    bias: f32,
    skip: Option<&[f32]>,
    act: impl Fn(f32) -> f32,
) {
    let full = out_row.len() / 2;
    match skip {
        Some(skip) => {
            let (pairs, tail) = out_row.split_at_mut(full * 2);
            let (skip_pairs, skip_tail) = skip.split_at(full * 2);
            for (((pair, s), &a), &b) in
                pairs.chunks_exact_mut(2).zip(skip_pairs.chunks_exact(2)).zip(ya).zip(yb)
            {
                pair[0] = act(a + bias + s[0]);
                pair[1] = act(b + bias + s[1]);
            }
            if let [last] = tail {
                *last = act(ya[full] + bias + skip_tail[0]);
            }
        }
        None => {
            let (pairs, tail) = out_row.split_at_mut(full * 2);
            for ((pair, &a), &b) in pairs.chunks_exact_mut(2).zip(ya).zip(yb) {
                pair[0] = act(a + bias);
                pair[1] = act(b + bias);
            }
            if let [last] = tail {
                *last = act(ya[full] + bias);
            }
        }
    }
}

/// [`emit_output_row`] for F(4×4, 3×3): interleaves the four stencil-output
/// lanes of `y` (`TILE_F4` slices of `tiles_w` each) into one output row,
/// adding the bias, the optional residual row, and the fused activation; a
/// partial tail tile (`ow % 4 ≠ 0`) takes its leading lanes only.
#[inline]
fn emit_output_row_f4(
    out_row: &mut [f32],
    y: &[f32],
    tiles_w: usize,
    bias: f32,
    skip: Option<&[f32]>,
    act: FusedActivation,
) {
    let lanes: [&[f32]; TILE_F4] = std::array::from_fn(|l| &y[l * tiles_w..(l + 1) * tiles_w]);
    match act {
        FusedActivation::None => emit_interleaved_f4(out_row, &lanes, bias, skip, |v| v),
        FusedActivation::Relu => emit_interleaved_f4(out_row, &lanes, bias, skip, |v| v.max(0.0)),
        FusedActivation::Relu6 => {
            emit_interleaved_f4(out_row, &lanes, bias, skip, |v| v.clamp(0.0, 6.0))
        }
    }
}

#[inline]
fn emit_interleaved_f4(
    out_row: &mut [f32],
    lanes: &[&[f32]; TILE_F4],
    bias: f32,
    skip: Option<&[f32]>,
    act: impl Fn(f32) -> f32,
) {
    let full = out_row.len() / TILE_F4;
    let (quads, tail) = out_row.split_at_mut(full * TILE_F4);
    match skip {
        Some(skip) => {
            let (skip_quads, skip_tail) = skip.split_at(full * TILE_F4);
            for (t, (quad, sq)) in
                quads.chunks_exact_mut(TILE_F4).zip(skip_quads.chunks_exact(TILE_F4)).enumerate()
            {
                for (l, (d, &s)) in quad.iter_mut().zip(sq).enumerate() {
                    *d = act(lanes[l][t] + bias + s);
                }
            }
            for (l, (d, &s)) in tail.iter_mut().zip(skip_tail).enumerate() {
                *d = act(lanes[l][full] + bias + s);
            }
        }
        None => {
            for (t, quad) in quads.chunks_exact_mut(TILE_F4).enumerate() {
                for (l, d) in quad.iter_mut().enumerate() {
                    *d = act(lanes[l][t] + bias);
                }
            }
            for (l, d) in tail.iter_mut().enumerate() {
                *d = act(lanes[l][full] + bias);
            }
        }
    }
}

/// GEMM columns (tiles) one worker task aims to process per chunk. Swept
/// empirically across layer shapes (32–512 channels, 14–448 px): ~224 columns is
/// where the per-point GEMMs reach full throughput while the chunk's `V`/`M`
/// buffers are still small enough that the transform stages stay cache-resident
/// between the GEMM passes; larger chunks lose more to cache traffic than they
/// gain in GEMM efficiency, smaller ones drown in per-call overhead.
const TARGET_CHUNK_TILES: usize = 224;

/// Cap on one chunk's packed-`V` footprint (2 Mi f32, 8 MiB) for very deep
/// layers. It bounds all the point GEMMs' B operands of a chunk together, not
/// one L2-sized stripe, so it is deliberately not tied to
/// [`engine::MAX_B_PANEL_ELEMS`].
const MAX_V_CHUNK_ELEMS: usize = 2 << 20;

/// Tile rows per worker task: whole tile rows approximating
/// [`TARGET_CHUNK_TILES`] GEMM columns, with the packed-`V` footprint capped at
/// [`MAX_V_CHUNK_ELEMS`]. A pure function of the layer shape (never of the
/// thread count), which keeps the decomposition — and therefore the results —
/// identical for every worker configuration.
fn chunk_tile_rows(in_channels: usize, tiles_w: usize, tiles_h: usize) -> usize {
    let tiles_w = tiles_w.max(1);
    let rows_cap = (MAX_V_CHUNK_ELEMS / (POINTS * in_channels * tiles_w)).max(1);
    (TARGET_CHUNK_TILES / tiles_w).clamp(1, rows_cap).min(tiles_h)
}

/// [`chunk_tile_rows`] for the 36-point F(4×4, 3×3) decomposition: same
/// target and packed-`V` cap, with the footprint scaled by `POINTS_F4`.
fn chunk_tile_rows_f4(in_channels: usize, tiles_w: usize, tiles_h: usize) -> usize {
    let tiles_w = tiles_w.max(1);
    let rows_cap = (MAX_V_CHUNK_ELEMS / (POINTS_F4 * in_channels * tiles_w)).max(1);
    (TARGET_CHUNK_TILES / tiles_w).clamp(1, rows_cap).min(tiles_h)
}

/// Writes the four `z·B` stencil lanes of one `Bᵀ` row (transform points
/// `4r + 0..4`) for a full tile row into their packed-`V` segments, splitting at
/// `NR`-panel boundaries. One run walk feeds all four points, and the inner
/// loops are counted raw-pointer sweeps — bounds are asserted once up front —
/// so the per-run overhead stays small even when panel boundaries chop a tile
/// row into short runs. `even`/`odd` are the deinterleaved columns of `z` row
/// `r`: tile `t`'s four stencil inputs are `even[t], odd[t], even[t+1],
/// odd[t+1]`, and the four lanes are `v₀ = z₀−z₂`, `v₁ = z₁+z₂`, `v₂ = z₂−z₁`,
/// `v₃ = z₁−z₃` expressed over those arrays.
#[allow(clippy::too_many_arguments)]
fn scatter_stencil_rows(
    vpack: &mut [f32],
    vseg: usize,
    in_ch: usize,
    ic: usize,
    point_base: usize,
    j0: usize,
    tiles_w: usize,
    even: &[f32],
    odd: &[f32],
) {
    assert!(even.len() > tiles_w && odd.len() > tiles_w);
    let last_panel = (j0 + tiles_w - 1) / NR;
    assert!((point_base + 3) * vseg + last_panel * (in_ch * NR) + ic * NR + NR <= vpack.len());
    let base = vpack.as_mut_ptr();
    let (e, o) = (even.as_ptr(), odd.as_ptr());
    let mut tw = 0;
    while tw < tiles_w {
        let j = j0 + tw;
        let lane = j % NR;
        let run = (NR - lane).min(tiles_w - tw);
        let panel_off = (j / NR) * (in_ch * NR) + ic * NR + lane;
        // SAFETY: `lane + run ≤ NR` and `j ≤ j0 + tiles_w − 1`, so every
        // `dK.add(i)` (i < run) stays below the last-panel bound asserted on
        // `vpack` above; `tw + i + 1 ≤ tiles_w < even.len(), odd.len()`, also
        // asserted. The four destinations lie in distinct `vseg` segments, so
        // the writes never alias each other or the `even`/`odd` reads.
        unsafe {
            let d0 = base.add(point_base * vseg + panel_off);
            let d1 = base.add((point_base + 1) * vseg + panel_off);
            let d2 = base.add((point_base + 2) * vseg + panel_off);
            let d3 = base.add((point_base + 3) * vseg + panel_off);
            for i in 0..run {
                let (e0, o0) = (*e.add(tw + i), *o.add(tw + i));
                let (e1, o1) = (*e.add(tw + i + 1), *o.add(tw + i + 1));
                *d0.add(i) = e0 - e1;
                *d1.add(i) = o0 + e1;
                *d2.add(i) = e1 - o0;
                *d3.add(i) = o0 - o1;
            }
        }
        tw += run;
    }
}

/// [`scatter_stencil_rows`] for F(4×4, 3×3): writes the six `z·B` stencil
/// lanes of one `Bᵀ` row (transform points `6r + 0..6`) into their packed-`V`
/// segments. Tiles advance by four staged columns, so tile `t`'s six stencil
/// inputs are `z[4t..4t+6]` read directly — no even/odd deinterleave — and the
/// lanes mirror the `Bᵀ` row stencils: `v₀ = 4x₀−5x₂+x₄`,
/// `v₁ = (x₃+x₄)−4(x₁+x₂)`, `v₂ = 4(x₁−x₂)+(x₄−x₃)`, `v₃ = (x₄−x₂)+2(x₃−x₁)`,
/// `v₄ = (x₄−x₂)−2(x₃−x₁)`, `v₅ = 4x₁−5x₃+x₅`.
#[allow(clippy::too_many_arguments)]
fn scatter_stencil_rows_f4(
    vpack: &mut [f32],
    vseg: usize,
    in_ch: usize,
    ic: usize,
    point_base: usize,
    j0: usize,
    tiles_w: usize,
    z: &[f32],
) {
    assert!(z.len() >= 4 * tiles_w + 2);
    let last_panel = (j0 + tiles_w - 1) / NR;
    assert!((point_base + 5) * vseg + last_panel * (in_ch * NR) + ic * NR + NR <= vpack.len());
    let base = vpack.as_mut_ptr();
    let zp = z.as_ptr();
    let mut tw = 0;
    while tw < tiles_w {
        let j = j0 + tw;
        let lane = j % NR;
        let run = (NR - lane).min(tiles_w - tw);
        let panel_off = (j / NR) * (in_ch * NR) + ic * NR + lane;
        // SAFETY: `lane + run ≤ NR` and `j ≤ j0 + tiles_w − 1`, so every
        // `dK.add(i)` (i < run) stays below the last-panel bound asserted on
        // `vpack` above; `4·(tw + i) + 5 ≤ 4·tiles_w + 1 < z.len()`, also
        // asserted. The six destinations lie in distinct `vseg` segments, so
        // the writes never alias each other or the `z` reads.
        unsafe {
            let d0 = base.add(point_base * vseg + panel_off);
            let d1 = base.add((point_base + 1) * vseg + panel_off);
            let d2 = base.add((point_base + 2) * vseg + panel_off);
            let d3 = base.add((point_base + 3) * vseg + panel_off);
            let d4 = base.add((point_base + 4) * vseg + panel_off);
            let d5 = base.add((point_base + 5) * vseg + panel_off);
            for i in 0..run {
                let s = zp.add(4 * (tw + i));
                let (x0, x1, x2) = (*s, *s.add(1), *s.add(2));
                let (x3, x4, x5) = (*s.add(3), *s.add(4), *s.add(5));
                let a42 = x4 - x2;
                let b31 = 2.0 * (x3 - x1);
                *d0.add(i) = 4.0 * x0 - 5.0 * x2 + x4;
                *d1.add(i) = (x3 + x4) - 4.0 * (x1 + x2);
                *d2.add(i) = 4.0 * (x1 - x2) + (x4 - x3);
                *d3.add(i) = a42 + b31;
                *d4.add(i) = a42 - b31;
                *d5.add(i) = 4.0 * x1 - 5.0 * x3 + x5;
            }
        }
        tw += run;
    }
}

/// Winograd F(2×2, 3×3) convolution against a pre-transformed filter bank, with
/// the bias and an optional activation fused into the output transform.
///
/// This is the path models use: the filter transform is paid once at layer
/// construction ([`WinogradFilter::prepare`]) and every forward pass runs only
/// transforms + GEMMs. See the [module docs](self) for the algorithm, the
/// determinism argument, and the numerical-tolerance contract.
///
/// # Errors
/// Returns an error if the parameters are not Winograd-eligible, the filter
/// bank's channel counts do not match them, or the bias length is inconsistent.
pub fn conv2d_winograd_prepared(
    input: &Tensor,
    filter: &WinogradFilter,
    bias: Option<&[f32]>,
    params: &Conv2dParams,
    activation: FusedActivation,
) -> Result<Tensor> {
    let oshape = params.output_shape(input.shape())?;
    let mut out = Tensor::zeros(oshape);
    conv2d_winograd_fused_into(input, filter, bias, params, activation, None, &mut out)?;
    Ok(out)
}

/// [`conv2d_winograd_prepared`] writing into a caller-provided output tensor
/// (every element of which is overwritten — arena-recycled buffers with stale
/// contents are fine), with an optional residual operand added before the
/// activation in the output transform: `out = act(conv(x) + bias + residual)`,
/// the fused form of a ResNet block tail. Fusion order matches the separate
/// `add_relu_in_place` pass exactly, so results are bitwise identical to
/// conv-then-separate-passes.
///
/// # Errors
/// Returns an error if the parameters are not Winograd-eligible, the filter
/// bank's channel counts do not match them, the bias length is inconsistent, or
/// the output/residual shapes do not match the convolution's output shape.
pub fn conv2d_winograd_fused_into(
    input: &Tensor,
    filter: &WinogradFilter,
    bias: Option<&[f32]>,
    params: &Conv2dParams,
    activation: FusedActivation,
    residual: Option<&Tensor>,
    out: &mut Tensor,
) -> Result<()> {
    winograd_fused_into_any(input, filter, bias, params, activation, residual, out, false)
}

/// Shared validated driver for both transform sizes: builds one
/// [`WinogradPass`] over the whole batch and fans its tile-row chunks out on
/// the worker pool.
#[allow(clippy::too_many_arguments)]
fn winograd_fused_into_any(
    input: &Tensor,
    filter: &WinogradFilter,
    bias: Option<&[f32]>,
    params: &Conv2dParams,
    activation: FusedActivation,
    residual: Option<&Tensor>,
    out: &mut Tensor,
    f4: bool,
) -> Result<()> {
    let expected_points = if f4 { POINTS_F4 } else { POINTS };
    if filter.points != expected_points {
        return Err(TensorError::ShapeMismatch {
            left: vec![filter.points],
            right: vec![expected_points],
            op: "winograd filter transform points",
        });
    }
    if !crate::conv::ConvAlgo::Winograd.supports(params) {
        return Err(TensorError::ShapeMismatch {
            left: vec![params.kernel, params.stride, params.groups],
            right: vec![3, 1, 1],
            op: "winograd requires kernel=3 stride=1 groups=1",
        });
    }
    if filter.out_channels != params.out_channels || filter.in_channels != params.in_channels {
        return Err(TensorError::ShapeMismatch {
            left: vec![filter.out_channels, filter.in_channels],
            right: vec![params.out_channels, params.in_channels],
            op: "winograd filter channels",
        });
    }
    crate::conv::validate_bias(params, bias)?;
    let ishape = input.shape();
    let oshape = params.output_shape(ishape)?;
    if out.shape() != oshape {
        return Err(TensorError::ShapeMismatch {
            left: out.shape().as_array().to_vec(),
            right: oshape.as_array().to_vec(),
            op: "winograd output buffer",
        });
    }
    if let Some(skip) = residual {
        if skip.shape() != oshape {
            return Err(TensorError::ShapeMismatch {
                left: skip.shape().as_array().to_vec(),
                right: oshape.as_array().to_vec(),
                op: "winograd residual",
            });
        }
    }
    let residual = residual.map(Tensor::as_slice);

    let (in_ch, out_ch) = (filter.in_channels, filter.out_channels);
    let (oh, ow) = (oshape.h, oshape.w);
    let tile = if f4 { TILE_F4 } else { TILE };
    let tiles_h = oh.div_ceil(tile);
    let tiles_w = ow.div_ceil(tile);
    // The images' tile rows back to back: a chunk may span images, so a batch
    // of small maps fills the point GEMMs' columns like one larger map.
    let batch_tile_rows = ishape.n * tiles_h;
    let rows_per_chunk = if f4 {
        chunk_tile_rows_f4(in_ch, tiles_w, batch_tile_rows)
    } else {
        chunk_tile_rows(in_ch, tiles_w, batch_tile_rows)
    }
    .max(1);
    let n_chunks = batch_tile_rows.div_ceil(rows_per_chunk);
    let parallel = params.macs(ishape).unwrap_or(0) >= engine::PARALLEL_MIN_MACS;
    // Chunk scratch comes from the *calling* thread's arena, one slot per
    // concurrently running task: which pool workers join a dispatch varies
    // from call to call, so scratch drawn on the workers would keep landing in
    // arenas that have never seen this layer's largest chunk.
    let slot_len = chunk_workspace_len(f4, in_ch, out_ch, tiles_w, rows_per_chunk);
    let width = parallel::dispatch_width(n_chunks, parallel);
    let mut workspace = scratch::take_uninit(width.min(WorkspaceSlots::MAX) * slot_len);
    let slots = WorkspaceSlots::new(&mut workspace, slot_len);
    let pass = WinogradPass {
        filter,
        pad: params.padding,
        in_data: input.as_slice(),
        ih: ishape.h,
        iw: ishape.w,
        // `out` is left untouched while the chunks below write its planes
        // through the pass.
        out: OutPtr::new(out.as_mut_slice()),
        oh,
        ow,
        tiles_h,
        tiles_w,
        bias,
        residual,
        activation,
    };
    parallel::for_each_task(n_chunks, parallel, |chunk| {
        let tr0 = chunk * rows_per_chunk;
        let tr1 = (tr0 + rows_per_chunk).min(batch_tile_rows);
        let mut slot = slots.acquire();
        if f4 {
            pass.run_chunk_f4(tr0, tr1, slot.get());
        } else {
            pass.run_chunk_f2(tr0, tr1, slot.get());
        }
    });
    scratch::give(workspace);
    Ok(())
}

/// Lengths of the four scratch regions one chunk of `rows` tile rows carves
/// out of its workspace, in order: packed `V`, the input-transform row stage,
/// the per-point GEMM outputs `M`, the output-transform row stage.
fn chunk_workspace_parts(
    f4: bool,
    in_ch: usize,
    out_ch: usize,
    tiles_w: usize,
    rows: usize,
) -> [usize; 4] {
    let p = rows * tiles_w;
    let vseg = p.div_ceil(NR) * in_ch * NR;
    if f4 {
        let wz = 4 * tiles_w + 2;
        [POINTS_F4 * vseg, 2 * ALPHA_F4 * wz, POINTS_F4 * out_ch * p, 28 * tiles_w]
    } else {
        let half = tiles_w + 1;
        [POINTS * vseg, 4 * (2 * half) + 8 * half, POINTS * out_ch * p, 12 * tiles_w]
    }
}

/// Elements of scratch one chunk of `rows` tile rows needs.
fn chunk_workspace_len(
    f4: bool,
    in_ch: usize,
    out_ch: usize,
    tiles_w: usize,
    rows: usize,
) -> usize {
    chunk_workspace_parts(f4, in_ch, out_ch, tiles_w, rows).iter().sum()
}

/// Splits a chunk workspace into the regions of [`chunk_workspace_parts`].
fn carve(ws: &mut [f32], parts: [usize; 4]) -> [&mut [f32]; 4] {
    let (a, rest) = ws.split_at_mut(parts[0]);
    let (b, rest) = rest.split_at_mut(parts[1]);
    let (c, rest) = rest.split_at_mut(parts[2]);
    [a, b, c, &mut rest[..parts[3]]]
}

/// One scratch buffer cut into equal slots, lent one at a time to the chunk
/// tasks of a parallel dispatch. A free-slot bitmask hands them out; a task
/// that finds none free (more participants than [`WorkspaceSlots::MAX`], or a
/// thread budget raised mid-dispatch) yields until a running task returns its.
struct WorkspaceSlots<'a> {
    base: OutPtr,
    slot_len: usize,
    free: AtomicU64,
    _buffer: std::marker::PhantomData<&'a mut [f32]>,
}

impl<'a> WorkspaceSlots<'a> {
    /// Slots one bitmask word can track.
    const MAX: usize = 64;

    fn new(buffer: &'a mut [f32], slot_len: usize) -> Self {
        let slots = (buffer.len() / slot_len.max(1)).min(Self::MAX);
        assert!(slots > 0, "workspace smaller than one slot");
        WorkspaceSlots {
            base: OutPtr::new(buffer),
            slot_len,
            free: AtomicU64::new(u64::MAX >> (64 - slots)),
            _buffer: std::marker::PhantomData,
        }
    }

    fn acquire(&self) -> WorkspaceSlot<'_, 'a> {
        loop {
            // Acquire pairs with the Release in `drop`: the previous holder's
            // writes to the slot happen-before this task's.
            let free = self.free.load(Ordering::Acquire);
            if free == 0 {
                std::thread::yield_now();
                continue;
            }
            let index = free.trailing_zeros() as usize;
            let claimed = free & !(1 << index);
            if self
                .free
                .compare_exchange_weak(free, claimed, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                return WorkspaceSlot { slots: self, index };
            }
        }
    }
}

/// Exclusive use of one slot until dropped (unwinding included, so a
/// panicking chunk cannot strand the tasks behind it).
struct WorkspaceSlot<'s, 'a> {
    slots: &'s WorkspaceSlots<'a>,
    index: usize,
}

impl WorkspaceSlot<'_, '_> {
    fn get(&mut self) -> &mut [f32] {
        let WorkspaceSlots { base, slot_len, .. } = self.slots;
        // SAFETY: `index < slots ≤ buffer.len() / slot_len`, so the range lies
        // inside the buffer `WorkspaceSlots` borrows mutably for `'a`; its bit
        // is cleared in `free` while `self` lives, so no other task holds it.
        unsafe { base.slice_mut(self.index * slot_len, *slot_len) }
    }
}

impl Drop for WorkspaceSlot<'_, '_> {
    fn drop(&mut self) {
        self.slots.free.fetch_or(1 << self.index, Ordering::Release);
    }
}

/// One batch's Winograd execution context: the transform bank plus the
/// batch's input and output planes. Tile rows are numbered across the batch
/// (row `g` is tile row `g % tiles_h` of image `g / tiles_h`);
/// `run_chunk_f2`/`run_chunk_f4` execute one chunk of them, which may span
/// images — every tile is one GEMM column whose arithmetic does not depend on
/// its neighbours, so a chunk's extent never changes a bit. Chunk
/// decomposition and threading belong to the caller, and chunks write
/// pairwise-disjoint output rows.
struct WinogradPass<'a> {
    filter: &'a WinogradFilter,
    pad: usize,
    /// Per image, `in_channels` planes of `ih × iw`.
    in_data: &'a [f32],
    ih: usize,
    iw: usize,
    /// Per image, `out_channels` planes of `oh × ow`.
    out: OutPtr,
    oh: usize,
    ow: usize,
    tiles_h: usize,
    tiles_w: usize,
    bias: Option<&'a [f32]>,
    /// Laid out like `out`.
    residual: Option<&'a [f32]>,
    activation: FusedActivation,
}

impl WinogradPass<'_> {
    /// Image and in-image tile row of batch tile row `g`.
    fn locate(&self, g: usize) -> (usize, usize) {
        (g / self.tiles_h, g % self.tiles_h)
    }

    /// Input plane `ic` of image `n`.
    fn in_plane(&self, n: usize, ic: usize) -> &[f32] {
        let len = self.ih * self.iw;
        let at = (n * self.filter.in_channels + ic) * len;
        &self.in_data[at..at + len]
    }

    /// Offset of output row `row` of plane `c_out` of image `n`.
    fn out_row_start(&self, n: usize, c_out: usize, row: usize) -> usize {
        ((n * self.filter.out_channels + c_out) * self.oh + row) * self.ow
    }

    /// Per-point channel reduction: `M(t) = U(t) · V(t)`, one packed GEMM per
    /// transform point (serial within the task; parallelism lives at the
    /// chunk level), block `t` of `mbuf` holding point `t`. U arrives
    /// prepacked in the filter bank, so the GEMMs consume it directly — no
    /// per-chunk repacking of the weights.
    fn point_gemms(&self, points: usize, vpack: &[f32], vseg: usize, p: usize, mbuf: &mut [f32]) {
        let (in_ch, u, point_seg) =
            (self.filter.in_channels, &self.filter.u[..], self.filter.point_seg);
        let rows = self.filter.out_channels;
        for t in 0..points {
            engine::packed_gemm_strided(
                GemmLhs::Packed { panels: &u[t * point_seg..(t + 1) * point_seg], k: in_ch },
                0,
                rows,
                in_ch,
                &vpack[t * vseg..(t + 1) * vseg],
                p,
                &mut mbuf[t * rows * p..(t + 1) * rows * p],
                p,
                0,
                WriteMode::Overwrite { epilogue: Epilogue::with_bias(None) },
            );
        }
    }

    /// Executes tile rows `[tr0, tr1)` of the F(2×2, 3×3) pipeline: input
    /// transform into packed-B segments, one GEMM per transform point, fused
    /// inverse transform into the output view.
    ///
    /// `ws` is the chunk's scratch — at least [`chunk_workspace_len`] of
    /// `tr1 - tr0` rows, contents unspecified — owned by the caller so that it
    /// comes from the dispatching thread's arena, never a pool worker's.
    fn run_chunk_f2(&self, tr0: usize, tr1: usize, ws: &mut [f32]) {
        let (in_ch, out_ch, tiles_w) =
            (self.filter.in_channels, self.filter.out_channels, self.tiles_w);
        let (bias, residual, activation) = (self.bias, self.residual, self.activation);
        let pad = self.pad as isize;
        let pad_cols = self.pad;
        let ih_extent = self.ih as isize;
        let (oh, ow) = (self.oh, self.ow);
        let p = (tr1 - tr0) * tiles_w;
        let panels = p.div_ceil(NR);
        let vseg = panels * in_ch * NR;
        let parts = chunk_workspace_parts(false, in_ch, out_ch, tiles_w, tr1 - tr0);
        let [vpack, stage, mbuf, obuf] = carve(ws, parts);

        // --- Input transform: V = Bᵀ·d·B, written straight into the 16
        // packed-B segments (tile j is column j of every point's GEMM). The
        // per-tile 4×4 transform is restructured as whole-tile-row slice
        // arithmetic so every inner loop is a contiguous vectorizable sweep:
        // stage the four (zero-padded) input rows, combine them into the four
        // Bᵀ rows with even/odd columns split as they are produced, then each
        // transform point is a two-term stencil over those arrays. ---
        let wz = 2 * (tiles_w + 1);
        let half = tiles_w + 1;
        for ic in 0..in_ch {
            for g in tr0..tr1 {
                let (n, tr) = self.locate(g);
                let plane = self.in_plane(n, ic);
                let ih0 = (tr * TILE) as isize - pad;
                let (rbuf, eo) = stage.split_at_mut(4 * wz);
                // Padded input rows: rbuf[r][x] = input(ih0 + r, x − pad), 0 outside.
                for r in 0..ALPHA {
                    let row = &mut rbuf[r * wz..(r + 1) * wz];
                    let ih = ih0 + r as isize;
                    if ih < 0 || ih >= ih_extent {
                        row.fill(0.0);
                        continue;
                    }
                    let ih = ih as usize;
                    let src = &plane[ih * self.iw..(ih + 1) * self.iw];
                    let x0 = pad_cols.min(wz);
                    let x1 = (pad_cols + self.iw).min(wz);
                    row[..x0].fill(0.0);
                    row[x0..x1].copy_from_slice(&src[..x1 - x0]);
                    row[x1..].fill(0.0);
                }
                // z = Bᵀ·d, with Bᵀ = [[1,0,−1,0],[0,1,1,0],[0,−1,1,0],[0,1,0,−1]]:
                // four elementwise row combinations, deinterleaved into even/odd
                // columns as they are produced so tile t's four stencil inputs
                // are `even[t], odd[t], even[t+1], odd[t+1]` — all unit-stride.
                {
                    let (r0, r123) = rbuf.split_at(wz);
                    let (r1, r23) = r123.split_at(wz);
                    let (r2, r3) = r23.split_at(wz);
                    let mut rows = eo.chunks_exact_mut(half);
                    let mut combine = |a: &[f32], b: &[f32], sum: bool| {
                        let even = rows.next().expect("eo holds 8 half-rows");
                        let odd = rows.next().expect("eo holds 8 half-rows");
                        let lanes = even.iter_mut().zip(odd.iter_mut());
                        for (((e, o), pa), pb) in
                            lanes.zip(a.chunks_exact(2)).zip(b.chunks_exact(2))
                        {
                            if sum {
                                *e = pa[0] + pb[0];
                                *o = pa[1] + pb[1];
                            } else {
                                *e = pa[0] - pb[0];
                                *o = pa[1] - pb[1];
                            }
                        }
                    };
                    combine(r0, r2, false); // z₀ = d₀ − d₂
                    combine(r1, r2, true); // z₁ = d₁ + d₂
                    combine(r2, r1, false); // z₂ = d₂ − d₁
                    combine(r1, r3, false); // z₃ = d₁ − d₃
                }
                // V = z·B per row: two-term stencils into the packed segments.
                let j0 = (g - tr0) * tiles_w;
                for r in 0..ALPHA {
                    let even = &eo[2 * r * half..2 * r * half + half];
                    let odd = &eo[(2 * r + 1) * half..(2 * r + 1) * half + half];
                    scatter_stencil_rows(vpack, vseg, in_ch, ic, r * ALPHA, j0, tiles_w, even, odd);
                }
            }
        }

        self.point_gemms(POINTS, vpack, vseg, p, mbuf);

        // --- Output transform: Y = Aᵀ·M·A + bias, activation fused, written
        // into this chunk's output rows of every channel plane. Like the input
        // transform, the per-tile 2×4 / 2×2 products are restructured as
        // whole-tile-row slice sweeps over the 16 contiguous `M` streams. ---
        for c_out in 0..out_ch {
            let bias_v = bias.map_or(0.0, |b| b[c_out]);
            let mrows: [&[f32]; POINTS] =
                std::array::from_fn(|t| &mbuf[(t * out_ch + c_out) * p..][..p]);
            for g in tr0..tr1 {
                let (n, tr) = self.locate(g);
                let jr = (g - tr0) * tiles_w..(g - tr0 + 1) * tiles_w;
                let (tt, y) = obuf.split_at_mut(8 * tiles_w);
                // tt = Aᵀ·M, with Aᵀ = [[1,1,1,0],[0,1,−1,−1]]: per transform
                // column c, two three-term elementwise combinations.
                for c in 0..ALPHA {
                    let s0 = &mrows[c][jr.clone()];
                    let s1 = &mrows[ALPHA + c][jr.clone()];
                    let s2 = &mrows[2 * ALPHA + c][jr.clone()];
                    let s3 = &mrows[3 * ALPHA + c][jr.clone()];
                    let dst = &mut tt[c * tiles_w..(c + 1) * tiles_w];
                    for (((d, &a), &b), &e) in dst.iter_mut().zip(s0).zip(s1).zip(s2) {
                        *d = a + b + e;
                    }
                    let dst = &mut tt[(ALPHA + c) * tiles_w..(ALPHA + c + 1) * tiles_w];
                    for (((d, &a), &b), &e) in dst.iter_mut().zip(s1).zip(s2).zip(s3) {
                        *d = a - b - e;
                    }
                }
                // Y = tt·A: fold the four columns into the 2×2 output lanes.
                for half_row in 0..TILE {
                    let t0 = &tt[(half_row * ALPHA) * tiles_w..(half_row * ALPHA + 1) * tiles_w];
                    let t1 =
                        &tt[(half_row * ALPHA + 1) * tiles_w..(half_row * ALPHA + 2) * tiles_w];
                    let t2 =
                        &tt[(half_row * ALPHA + 2) * tiles_w..(half_row * ALPHA + 3) * tiles_w];
                    let t3 =
                        &tt[(half_row * ALPHA + 3) * tiles_w..(half_row * ALPHA + 4) * tiles_w];
                    let (ya, yb) = y[2 * half_row * tiles_w..(2 * half_row + 2) * tiles_w]
                        .split_at_mut(tiles_w);
                    for (((d, &a), &b), &e) in ya.iter_mut().zip(t0).zip(t1).zip(t2) {
                        *d = a + b + e;
                    }
                    for (((d, &a), &b), &e) in yb.iter_mut().zip(t1).zip(t2).zip(t3) {
                        *d = a - b - e;
                    }
                }
                let oh0 = tr * TILE;
                for half_row in 0..TILE {
                    if oh0 + half_row >= oh {
                        break;
                    }
                    let row_start = self.out_row_start(n, c_out, oh0 + half_row);
                    // SAFETY: output row `oh0 + half_row < oh` of plane
                    // `c_out < out_channels` of image `n` lies inside the
                    // batch's planes `out` was built over, and it belongs to
                    // batch tile row `g`, which only this chunk covers (chunks
                    // partition the tile rows), so no other live slice
                    // overlaps it.
                    let out_row = unsafe { self.out.slice_mut(row_start, ow) };
                    let ya = &y[2 * half_row * tiles_w..(2 * half_row + 1) * tiles_w];
                    let yb = &y[(2 * half_row + 1) * tiles_w..(2 * half_row + 2) * tiles_w];
                    let skip_row = residual.map(|s| &s[row_start..row_start + ow]);
                    emit_output_row(out_row, ya, yb, bias_v, skip_row, activation);
                }
            }
        }
    }

    /// Executes tile rows `[tr0, tr1)` of the F(4×4, 3×3) pipeline. Same
    /// structure as [`Self::run_chunk_f2`] with the α=6 transforms: `Bᵀ`/`Aᵀ`
    /// have six/four rows, tiles advance by four columns (no even/odd
    /// deinterleave — tile `t` reads staged columns `4t..4t+6` directly), and
    /// each tile row feeds 36 packed-B segments.
    fn run_chunk_f4(&self, tr0: usize, tr1: usize, ws: &mut [f32]) {
        let (in_ch, out_ch, tiles_w) =
            (self.filter.in_channels, self.filter.out_channels, self.tiles_w);
        let (bias, residual, activation) = (self.bias, self.residual, self.activation);
        let pad = self.pad as isize;
        let pad_cols = self.pad;
        let ih_extent = self.ih as isize;
        let (oh, ow) = (self.oh, self.ow);
        let p = (tr1 - tr0) * tiles_w;
        let panels = p.div_ceil(NR);
        let vseg = panels * in_ch * NR;
        let parts = chunk_workspace_parts(true, in_ch, out_ch, tiles_w, tr1 - tr0);
        let [vpack, stage, mbuf, obuf] = carve(ws, parts);

        // --- Input transform: V = Bᵀ·d·B into the 36 packed-B segments. Tile
        // t's column transform reads staged columns 4t..4t+6, so the staged
        // width covers 4·tiles_w + 2 columns. ---
        let wz = 4 * tiles_w + 2;
        for ic in 0..in_ch {
            for g in tr0..tr1 {
                let (n, tr) = self.locate(g);
                let plane = self.in_plane(n, ic);
                let ih0 = (tr * TILE_F4) as isize - pad;
                let (rbuf, zbuf) = stage.split_at_mut(ALPHA_F4 * wz);
                for r in 0..ALPHA_F4 {
                    let row = &mut rbuf[r * wz..(r + 1) * wz];
                    let ih = ih0 + r as isize;
                    if ih < 0 || ih >= ih_extent {
                        row.fill(0.0);
                        continue;
                    }
                    let ih = ih as usize;
                    let src = &plane[ih * self.iw..(ih + 1) * self.iw];
                    let x0 = pad_cols.min(wz);
                    let x1 = (pad_cols + self.iw).min(wz);
                    row[..x0].fill(0.0);
                    row[x0..x1].copy_from_slice(&src[..x1 - x0]);
                    row[x1..].fill(0.0);
                }
                // z = Bᵀ·d, with Bᵀ = [[4,0,−5,0,1,0],[0,−4,−4,1,1,0],
                // [0,4,−4,−1,1,0],[0,−2,−1,2,1,0],[0,2,−1,−2,1,0],
                // [0,4,0,−5,0,1]]: six elementwise row combinations.
                for x in 0..wz {
                    let d0 = rbuf[x];
                    let d1 = rbuf[wz + x];
                    let d2 = rbuf[2 * wz + x];
                    let d3 = rbuf[3 * wz + x];
                    let d4 = rbuf[4 * wz + x];
                    let d5 = rbuf[5 * wz + x];
                    let a42 = d4 - d2;
                    let b31 = 2.0 * (d3 - d1);
                    zbuf[x] = 4.0 * d0 - 5.0 * d2 + d4;
                    zbuf[wz + x] = (d3 + d4) - 4.0 * (d1 + d2);
                    zbuf[2 * wz + x] = 4.0 * (d1 - d2) + (d4 - d3);
                    zbuf[3 * wz + x] = a42 + b31;
                    zbuf[4 * wz + x] = a42 - b31;
                    zbuf[5 * wz + x] = 4.0 * d1 - 5.0 * d3 + d5;
                }
                // V = z·B per row: the same six-lane stencil along the columns.
                let j0 = (g - tr0) * tiles_w;
                for r in 0..ALPHA_F4 {
                    scatter_stencil_rows_f4(
                        vpack,
                        vseg,
                        in_ch,
                        ic,
                        r * ALPHA_F4,
                        j0,
                        tiles_w,
                        &zbuf[r * wz..(r + 1) * wz],
                    );
                }
            }
        }

        self.point_gemms(POINTS_F4, vpack, vseg, p, mbuf);

        // --- Output transform: Y = Aᵀ·M·A + bias, activation fused, with
        // Aᵀ = [[1,1,1,1,1,0],[0,1,−1,2,−2,0],[0,1,1,4,4,0],[0,1,−1,8,−8,1]]. ---
        for c_out in 0..out_ch {
            let bias_v = bias.map_or(0.0, |b| b[c_out]);
            let mrows: [&[f32]; POINTS_F4] =
                std::array::from_fn(|t| &mbuf[(t * out_ch + c_out) * p..][..p]);
            for g in tr0..tr1 {
                let (n, tr) = self.locate(g);
                let jr = (g - tr0) * tiles_w..(g - tr0 + 1) * tiles_w;
                let (tt, y) = obuf.split_at_mut(24 * tiles_w);
                // tt = Aᵀ·M per transform column c: four stencil combinations
                // of the six row streams.
                for c in 0..ALPHA_F4 {
                    let s: [&[f32]; ALPHA_F4] =
                        std::array::from_fn(|r| &mrows[r * ALPHA_F4 + c][jr.clone()]);
                    for j in 0..tiles_w {
                        let p12 = s[1][j] + s[2][j];
                        let m12 = s[1][j] - s[2][j];
                        let p34 = s[3][j] + s[4][j];
                        let m34 = s[3][j] - s[4][j];
                        tt[c * tiles_w + j] = s[0][j] + p12 + p34;
                        tt[(ALPHA_F4 + c) * tiles_w + j] = m12 + 2.0 * m34;
                        tt[(2 * ALPHA_F4 + c) * tiles_w + j] = p12 + 4.0 * p34;
                        tt[(3 * ALPHA_F4 + c) * tiles_w + j] = m12 + 8.0 * m34 + s[5][j];
                    }
                }
                let oh0 = tr * TILE_F4;
                for q in 0..TILE_F4 {
                    if oh0 + q >= oh {
                        break;
                    }
                    // Y row q = tt_q·A: the same stencil along the six columns,
                    // producing the four interleave lanes.
                    let trow = &tt[q * ALPHA_F4 * tiles_w..(q + 1) * ALPHA_F4 * tiles_w];
                    for j in 0..tiles_w {
                        let t0 = trow[j];
                        let t1 = trow[tiles_w + j];
                        let t2 = trow[2 * tiles_w + j];
                        let t3 = trow[3 * tiles_w + j];
                        let t4 = trow[4 * tiles_w + j];
                        let t5 = trow[5 * tiles_w + j];
                        let p12 = t1 + t2;
                        let m12 = t1 - t2;
                        let p34 = t3 + t4;
                        let m34 = t3 - t4;
                        y[j] = t0 + p12 + p34;
                        y[tiles_w + j] = m12 + 2.0 * m34;
                        y[2 * tiles_w + j] = p12 + 4.0 * p34;
                        y[3 * tiles_w + j] = m12 + 8.0 * m34 + t5;
                    }
                    let row_start = self.out_row_start(n, c_out, oh0 + q);
                    // SAFETY: as in `run_chunk_f2` — output row `oh0 + q < oh`
                    // of plane `c_out` of image `n` lies inside `out` and
                    // belongs to batch tile row `g`, which only this chunk
                    // covers.
                    let out_row = unsafe { self.out.slice_mut(row_start, ow) };
                    let skip_row = residual.map(|s| &s[row_start..row_start + ow]);
                    emit_output_row_f4(out_row, y, tiles_w, bias_v, skip_row, activation);
                }
            }
        }
    }
}

/// Winograd F(2×2, 3×3) convolution from raw weights: computes the filter
/// transform into a scratch-arena bank (default dispatch reaches this from
/// [`conv2d`](crate::conv2d), so it must stay allocation-free when warm) and
/// runs [`conv2d_winograd_prepared`]. The transform costs `O(O·I)` —
/// negligible next to the convolution itself — but repeat callers should cache
/// a [`WinogradFilter`] instead.
///
/// # Errors
/// Returns an error if the parameters are not Winograd-eligible or the weight
/// shape / bias length are inconsistent with them.
pub fn conv2d_winograd(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&[f32]>,
    params: &Conv2dParams,
) -> Result<Tensor> {
    let filter = WinogradFilter::transform(weight, params, false, scratch::take)?;
    let out = conv2d_winograd_prepared(input, &filter, bias, params, FusedActivation::None);
    scratch::give(filter.u);
    out
}

/// Winograd F(4×4, 3×3) convolution against a pre-transformed filter bank
/// (see [`WinogradFilter::prepare_f4`]), bias and activation fused into the
/// output transform. The α=6 construction spends 36 multiplies per 16 outputs
/// — 2.25 per output vs F(2×2)'s 4 — so the per-point GEMM work drops ~1.78×
/// on top of F(2×2), at the cost of the looser numerical tolerance pinned by
/// [`WINOGRAD_F4_TOLERANCE`].
///
/// # Errors
/// Returns an error if the parameters are not Winograd-eligible, the filter
/// bank is not an F(4×4) bank or its channels do not match, or the bias length
/// is inconsistent.
pub fn conv2d_winograd_f4_prepared(
    input: &Tensor,
    filter: &WinogradFilter,
    bias: Option<&[f32]>,
    params: &Conv2dParams,
    activation: FusedActivation,
) -> Result<Tensor> {
    let oshape = params.output_shape(input.shape())?;
    let mut out = Tensor::zeros(oshape);
    conv2d_winograd_f4_fused_into(input, filter, bias, params, activation, None, &mut out)?;
    Ok(out)
}

/// [`conv2d_winograd_f4_prepared`] writing into a caller-provided output
/// tensor, with an optional residual operand added before the activation —
/// the F(4×4) counterpart of [`conv2d_winograd_fused_into`], with the same
/// fusion-order (bitwise) and determinism contracts.
///
/// # Errors
/// Returns an error if the parameters are not Winograd-eligible, the filter
/// bank is not an F(4×4) bank or its channels do not match, the bias length is
/// inconsistent, or the output/residual shapes do not match.
pub fn conv2d_winograd_f4_fused_into(
    input: &Tensor,
    filter: &WinogradFilter,
    bias: Option<&[f32]>,
    params: &Conv2dParams,
    activation: FusedActivation,
    residual: Option<&Tensor>,
    out: &mut Tensor,
) -> Result<()> {
    winograd_fused_into_any(input, filter, bias, params, activation, residual, out, true)
}

/// Winograd F(4×4, 3×3) convolution from raw weights: computes the filter
/// transform into a scratch-arena bank and runs
/// [`conv2d_winograd_f4_prepared`]. Repeat callers should cache the
/// [`WinogradFilter`].
///
/// # Errors
/// Returns an error if the parameters are not Winograd-eligible or the weight
/// shape / bias length are inconsistent with them.
pub fn conv2d_winograd_f4(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&[f32]>,
    params: &Conv2dParams,
) -> Result<Tensor> {
    let filter = WinogradFilter::transform(weight, params, true, scratch::take)?;
    let out = conv2d_winograd_f4_prepared(input, &filter, bias, params, FusedActivation::None);
    scratch::give(filter.u);
    out
}

/// Measures the F(4×4, 3×3) numerical error for one layer shape: the maximum
/// elementwise difference against [`crate::ConvAlgo::Im2colPacked`] on a deterministic unit-scale input and
/// half-scale weights — the same operating point the parity suites pin. A pure
/// function of the shape (the probe data is seeded from it), so the
/// calibration gate (`MeasuredSweepConfig::f4_tolerance` in `rescnn-hwsim`) is reproducible across hosts
/// and thread counts.
///
/// # Errors
/// Returns an error if the parameters are not Winograd-eligible or the input
/// shape does not match them.
pub fn winograd_f4_unit_error(params: &Conv2dParams, input: crate::shape::Shape) -> Result<f32> {
    let seed = (params.in_channels * 31 + params.out_channels * 7 + input.h * 3 + input.w) as u64;
    let x = Tensor::random_uniform(input, 1.0, seed);
    let weight = Tensor::random_uniform(
        crate::shape::Shape::new(params.out_channels, params.in_channels, 3, 3),
        0.5,
        seed ^ 0x5a,
    );
    let reference = crate::conv::conv2d_im2col_packed(&x, &weight, None, params)?;
    let f4 = conv2d_winograd_f4(&x, &weight, None, params)?;
    reference.max_abs_diff(&f4)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::{conv2d_direct, conv2d_im2col_packed};
    use crate::shape::Shape;

    fn close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.shape(), b.shape());
        let diff = a.max_abs_diff(b).unwrap();
        assert!(diff < tol, "tensors differ by {diff}");
    }

    #[test]
    fn matches_direct_on_basic_shapes() {
        for (ic, oc, h, w, pad) in [
            (1usize, 1usize, 6usize, 6usize, 1usize),
            (3, 4, 9, 7, 1),
            (5, 2, 8, 8, 0),
            (2, 3, 4, 5, 2),
        ] {
            let params = Conv2dParams::new(ic, oc, 3, 1, pad);
            let input = Tensor::random_uniform(Shape::chw(ic, h, w), 1.0, (ic * h) as u64);
            let weight = Tensor::random_uniform(Shape::new(oc, ic, 3, 3), 0.5, (oc + pad) as u64);
            let bias: Vec<f32> = (0..oc).map(|i| 0.1 * i as f32).collect();
            let reference = conv2d_direct(&input, &weight, Some(&bias), &params).unwrap();
            let wino = conv2d_winograd(&input, &weight, Some(&bias), &params).unwrap();
            close(&reference, &wino, 1e-4);
        }
    }

    #[test]
    fn matches_packed_on_batched_input() {
        let params = Conv2dParams::new(4, 6, 3, 1, 1);
        let input = Tensor::random_uniform(Shape::new(3, 4, 11, 13), 1.0, 7);
        let weight = Tensor::random_uniform(Shape::new(6, 4, 3, 3), 0.5, 8);
        let packed = conv2d_im2col_packed(&input, &weight, None, &params).unwrap();
        let wino = conv2d_winograd(&input, &weight, None, &params).unwrap();
        close(&packed, &wino, 1e-4);
    }

    #[test]
    fn fused_activation_matches_separate_pass_bitwise() {
        let params = Conv2dParams::new(3, 5, 3, 1, 1);
        let input = Tensor::random_uniform(Shape::chw(3, 10, 10), 1.0, 3);
        let weight = Tensor::random_uniform(Shape::new(5, 3, 3, 3), 0.5, 4);
        let filter = WinogradFilter::prepare(&weight, &params).unwrap();
        let plain = conv2d_winograd_prepared(&input, &filter, None, &params, FusedActivation::None)
            .unwrap();
        let fused = conv2d_winograd_prepared(&input, &filter, None, &params, FusedActivation::Relu)
            .unwrap();
        for (&x, &y) in plain.as_slice().iter().zip(fused.as_slice()) {
            assert_eq!(x.max(0.0).to_bits(), y.to_bits());
        }
        let fused6 =
            conv2d_winograd_prepared(&input, &filter, None, &params, FusedActivation::Relu6)
                .unwrap();
        for (&x, &y) in plain.as_slice().iter().zip(fused6.as_slice()) {
            assert_eq!(x.clamp(0.0, 6.0).to_bits(), y.to_bits());
        }
    }

    #[test]
    fn f4_matches_direct_on_basic_shapes() {
        // Shapes chosen to exercise every tail case: exact 4×4 tiling, partial
        // tail rows/columns, zero and double padding, width below one tile.
        for (ic, oc, h, w, pad) in [
            (1usize, 1usize, 8usize, 8usize, 1usize),
            (3, 4, 9, 7, 1),
            (5, 2, 12, 10, 0),
            (2, 3, 4, 5, 2),
            (4, 6, 6, 3, 1),
        ] {
            let params = Conv2dParams::new(ic, oc, 3, 1, pad);
            let input = Tensor::random_uniform(Shape::chw(ic, h, w), 1.0, (ic * h) as u64);
            let weight = Tensor::random_uniform(Shape::new(oc, ic, 3, 3), 0.5, (oc + pad) as u64);
            let bias: Vec<f32> = (0..oc).map(|i| 0.1 * i as f32).collect();
            let reference = conv2d_direct(&input, &weight, Some(&bias), &params).unwrap();
            let wino = conv2d_winograd_f4(&input, &weight, Some(&bias), &params).unwrap();
            close(&reference, &wino, WINOGRAD_F4_TOLERANCE);
        }
    }

    #[test]
    fn f4_matches_packed_on_batched_input() {
        let params = Conv2dParams::new(4, 6, 3, 1, 1);
        let input = Tensor::random_uniform(Shape::new(3, 4, 11, 13), 1.0, 7);
        let weight = Tensor::random_uniform(Shape::new(6, 4, 3, 3), 0.5, 8);
        let packed = conv2d_im2col_packed(&input, &weight, None, &params).unwrap();
        let wino = conv2d_winograd_f4(&input, &weight, None, &params).unwrap();
        close(&packed, &wino, WINOGRAD_F4_TOLERANCE);
    }

    #[test]
    fn f4_fused_activation_matches_separate_pass_bitwise() {
        let params = Conv2dParams::new(3, 5, 3, 1, 1);
        let input = Tensor::random_uniform(Shape::chw(3, 10, 10), 1.0, 3);
        let weight = Tensor::random_uniform(Shape::new(5, 3, 3, 3), 0.5, 4);
        let filter = WinogradFilter::prepare_f4(&weight, &params).unwrap();
        let plain =
            conv2d_winograd_f4_prepared(&input, &filter, None, &params, FusedActivation::None)
                .unwrap();
        let fused =
            conv2d_winograd_f4_prepared(&input, &filter, None, &params, FusedActivation::Relu)
                .unwrap();
        for (&x, &y) in plain.as_slice().iter().zip(fused.as_slice()) {
            assert_eq!(x.max(0.0).to_bits(), y.to_bits());
        }
    }

    #[test]
    fn f4_filter_kind_and_shape_mismatches_are_rejected() {
        let params = Conv2dParams::new(4, 4, 3, 1, 1);
        let input = Tensor::random_uniform(Shape::chw(4, 8, 8), 1.0, 1);
        let weight = Tensor::random_uniform(Shape::new(4, 4, 3, 3), 0.5, 2);
        let f2 = WinogradFilter::prepare(&weight, &params).unwrap();
        let f4 = WinogradFilter::prepare_f4(&weight, &params).unwrap();
        assert!(!f2.is_f4());
        assert!(f4.is_f4());
        // Each entry point accepts only its own transform size.
        assert!(
            conv2d_winograd_f4_prepared(&input, &f2, None, &params, FusedActivation::None).is_err()
        );
        assert!(
            conv2d_winograd_prepared(&input, &f4, None, &params, FusedActivation::None).is_err()
        );

        let strided = Conv2dParams::new(4, 4, 3, 2, 1);
        assert!(WinogradFilter::prepare_f4(&weight, &strided).is_err());
        assert!(conv2d_winograd_f4(&input, &weight, None, &strided).is_err());
    }

    #[test]
    fn f4_unit_error_probe_is_deterministic_and_bounded() {
        let params = Conv2dParams::new(8, 8, 3, 1, 1);
        let shape = Shape::chw(8, 28, 28);
        let a = winograd_f4_unit_error(&params, shape).unwrap();
        let b = winograd_f4_unit_error(&params, shape).unwrap();
        assert_eq!(a.to_bits(), b.to_bits(), "probe must be a pure function of the shape");
        assert!(a > 0.0 && a < WINOGRAD_F4_TOLERANCE, "unit error {a} vs pinned bound");
    }

    #[test]
    fn workspace_slots_are_exclusive_and_return_on_drop_or_unwind() {
        // Two slots of five elements; the three-element remainder is never lent.
        let mut buffer = vec![0.0f32; 13];
        let slots = WorkspaceSlots::new(&mut buffer, 5);
        let mut a = slots.acquire();
        let mut b = slots.acquire();
        assert_ne!(a.index, b.index);
        a.get().fill(1.0);
        b.get().fill(2.0);
        assert!(a.get().iter().all(|&x| x == 1.0) && a.get().len() == 5);
        // Both are out: a third task spins until one comes back, and gets that one.
        let freed = a.index;
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| slots.acquire().index);
            drop(a);
            assert_eq!(waiter.join().expect("waiter panicked"), freed);
        });
        // A chunk that panics while holding a slot returns it on the way out.
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _held = slots.acquire();
            panic!("chunk died");
        }));
        assert!(unwound.is_err());
        assert_eq!(slots.acquire().index, freed);
        drop(b);
    }

    #[test]
    #[should_panic(expected = "overruns")]
    fn out_ptr_rejects_a_range_past_its_buffer() {
        let mut buffer = vec![0.0f32; 8];
        let out = OutPtr::new(&mut buffer);
        // SAFETY: `buffer` is live and nothing else borrows it.
        let _ = unsafe { out.slice_mut(4, 5) };
    }

    #[test]
    fn rejects_non_winograd_shapes() {
        let strided = Conv2dParams::new(4, 4, 3, 2, 1);
        let input = Tensor::random_uniform(Shape::chw(4, 8, 8), 1.0, 1);
        let weight = Tensor::random_uniform(Shape::new(4, 4, 3, 3), 0.5, 2);
        assert!(conv2d_winograd(&input, &weight, None, &strided).is_err());
        assert!(WinogradFilter::prepare(&weight, &strided).is_err());

        let grouped = Conv2dParams::new(4, 4, 3, 1, 1).with_groups(2);
        let gweight = Tensor::random_uniform(Shape::new(4, 2, 3, 3), 0.5, 3);
        assert!(conv2d_winograd(&input, &gweight, None, &grouped).is_err());

        let eligible = Conv2dParams::new(4, 4, 3, 1, 1);
        let filter = WinogradFilter::prepare(&weight, &eligible).unwrap();
        assert_eq!(filter.out_channels(), 4);
        assert_eq!(filter.in_channels(), 4);
        let wrong = Conv2dParams::new(4, 8, 3, 1, 1);
        assert!(
            conv2d_winograd_prepared(&input, &filter, None, &wrong, FusedActivation::None).is_err()
        );
        assert!(conv2d_winograd_prepared(
            &input,
            &filter,
            Some(&[0.0; 3]),
            &eligible,
            FusedActivation::None
        )
        .is_err());
    }
}
