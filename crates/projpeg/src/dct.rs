//! 8×8 forward and inverse discrete cosine transforms and the zig-zag ordering.

/// Block extent of the transform (8×8, as in JPEG).
pub const BLOCK: usize = 8;
/// Number of coefficients per block.
pub const BLOCK_AREA: usize = BLOCK * BLOCK;

/// Zig-zag ordering mapping scan position → raster position within an 8×8 block.
pub const ZIGZAG: [usize; BLOCK_AREA] = [
    0, 1, 8, 16, 9, 2, 3, 10, 17, 24, 32, 25, 18, 11, 4, 5, 12, 19, 26, 33, 40, 48, 41, 34, 27, 20,
    13, 6, 7, 14, 21, 28, 35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51, 58, 59,
    52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63,
];

fn basis(k: usize, n: usize) -> f32 {
    // cos((2n+1) k π / 16)
    (((2 * n + 1) * k) as f32 * std::f32::consts::PI / 16.0).cos()
}

fn alpha(k: usize) -> f32 {
    if k == 0 {
        (1.0_f32 / 8.0).sqrt()
    } else {
        (2.0_f32 / 8.0).sqrt()
    }
}

/// Precomputed transform constants. Values are produced by the exact same `basis`/`alpha`
/// expressions the transforms previously evaluated inline, so table lookups return
/// bit-identical `f32`s and the rewritten loops below reproduce the original results
/// bitwise — only the transcendental calls are gone.
pub(crate) struct DctTables {
    /// `basis[k][n] = cos((2n+1) k π / 16)`.
    basis: [[f32; BLOCK]; BLOCK],
    /// `basis_t[n * BLOCK + k]`: the transpose, for passes whose contiguous lane is `k`.
    basis_t: [f32; BLOCK_AREA],
    /// `alpha[k]`: the DCT normalization factors.
    alpha: [f32; BLOCK],
}

pub(crate) fn tables() -> &'static DctTables {
    static TABLES: std::sync::OnceLock<DctTables> = std::sync::OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = DctTables {
            basis: [[0.0; BLOCK]; BLOCK],
            basis_t: [0.0; BLOCK_AREA],
            alpha: [0.0; BLOCK],
        };
        for k in 0..BLOCK {
            t.alpha[k] = alpha(k);
            for n in 0..BLOCK {
                t.basis[k][n] = basis(k, n);
                t.basis_t[n * BLOCK + k] = basis(k, n);
            }
        }
        t
    })
}

/// Forward 8×8 DCT-II of a raster-order block (values typically centred around zero).
///
/// The output is in raster order; use [`ZIGZAG`] to reorder for spectral-selection scans.
///
/// Both passes keep one 8-wide accumulator array whose lanes are independent output
/// coefficients, so the inner loops auto-vectorize; each lane's accumulation order (and
/// hence its rounding) is identical to the original scalar triple loop.
pub fn forward_dct(block: &[f32; BLOCK_AREA]) -> [f32; BLOCK_AREA] {
    let t = tables();
    let mut out = [0.0f32; BLOCK_AREA];
    // Separable: rows then columns.
    let mut tmp = [0.0f32; BLOCK_AREA];
    for y in 0..BLOCK {
        // Lanes: acc[u] accumulates over x, exactly as the scalar loop did per (y, u).
        let mut acc = [0.0f32; BLOCK];
        for x in 0..BLOCK {
            let sample = block[y * BLOCK + x];
            let col = &t.basis_t[x * BLOCK..(x + 1) * BLOCK];
            for u in 0..BLOCK {
                acc[u] += sample * col[u];
            }
        }
        for u in 0..BLOCK {
            tmp[y * BLOCK + u] = acc[u] * t.alpha[u];
        }
    }
    for v in 0..BLOCK {
        // Lanes: acc[u] accumulates over y.
        let mut acc = [0.0f32; BLOCK];
        for y in 0..BLOCK {
            let b = t.basis[v][y];
            let row = &tmp[y * BLOCK..(y + 1) * BLOCK];
            for u in 0..BLOCK {
                acc[u] += row[u] * b;
            }
        }
        for u in 0..BLOCK {
            out[v * BLOCK + u] = acc[u] * t.alpha[v];
        }
    }
    out
}

/// Inverse 8×8 DCT (DCT-III), the exact inverse of [`forward_dct`].
///
/// Table-driven and lane-parallel like [`forward_dct`], with per-output accumulation
/// order (and rounding) identical to the original scalar implementation.
pub fn inverse_dct(coeffs: &[f32; BLOCK_AREA]) -> [f32; BLOCK_AREA] {
    inverse_dct_corner::<BLOCK>(coeffs)
}

/// [`inverse_dct`] of a block whose non-zero coefficients all lie in the top-left `K × K`
/// corner (raster rows and columns `< K`), bitwise equal to the full transform.
///
/// Both passes leave out the terms the full transform adds for coefficients outside the
/// corner. Each is a product of finite values with a zero factor — the coefficient in the
/// first pass, the first-pass column it left at exactly `+0.0` in the second — so it is
/// an exact `±0.0`. Under round-to-nearest a sum is `-0.0` only when both operands are
/// `-0.0`, so an accumulator that starts at `+0.0` never holds `-0.0`, and adding `±0.0`
/// to any other value returns it unchanged: dropping those terms moves no bit. The
/// coefficients outside the corner are not read.
pub(crate) fn inverse_dct_corner<const K: usize>(coeffs: &[f32; BLOCK_AREA]) -> [f32; BLOCK_AREA] {
    let t = tables();
    let mut columns = [[0.0f32; BLOCK]; BLOCK];
    inverse_dct_columns(t, &mut columns, K, |i| coeffs[i]);
    let mut out = [0.0f32; BLOCK_AREA];
    for (y, out_row) in out.chunks_exact_mut(BLOCK).enumerate() {
        out_row.copy_from_slice(&inverse_dct_row(t, &columns, K, y));
    }
    out
}

/// The first pass of [`inverse_dct_corner`] over the top-left `k × k` corner, run across
/// rows: for `u < k`, `columns[u][y]` accumulates `(alpha[v] * coeff) * basis[v][y]` over
/// `v < k`, lanes over `y`, and is left multiplied by `alpha[u]` — the factor the second
/// pass applies to it. The columns past the corner are not written; the second pass does
/// not read them. `coeff(i)` is the raster-order coefficient `i`; only the corner's are
/// asked for, so a caller can dequantize them as they are read.
///
/// Each lane performs the scalar loop's operations for its `(u, y)` in the same order —
/// the same left-to-right products, the terms added in the order of `v` — and `alpha[u] *
/// tmp` is the product the scalar second pass forms, so every value rounds as it did.
#[inline]
pub(crate) fn inverse_dct_columns(
    t: &DctTables,
    columns: &mut [[f32; BLOCK]; BLOCK],
    k: usize,
    coeff: impl Fn(usize) -> f32,
) {
    for (u, column) in columns.iter_mut().enumerate().take(k) {
        let mut acc = [0.0f32; BLOCK];
        for v in 0..k {
            let s = t.alpha[v] * coeff(v * BLOCK + u);
            let basis = &t.basis[v];
            for y in 0..BLOCK {
                acc[y] += s * basis[y];
            }
        }
        *column = acc.map(|sample| t.alpha[u] * sample);
    }
}

/// Row `y` of the second pass of [`inverse_dct_corner`] over the first `k` columns that
/// [`inverse_dct_columns`] left: lanes over `x`, accumulating `columns[u][y] * basis[u][x]`
/// over `u < k` in order.
#[inline]
pub(crate) fn inverse_dct_row(
    t: &DctTables,
    columns: &[[f32; BLOCK]; BLOCK],
    k: usize,
    y: usize,
) -> [f32; BLOCK] {
    let mut acc = [0.0f32; BLOCK];
    for (u, column) in columns.iter().enumerate().take(k) {
        let s = column[y];
        let row = &t.basis[u];
        for x in 0..BLOCK {
            acc[x] += s * row[x];
        }
    }
    acc
}

/// The one sample [`inverse_dct`] produces, at all 64 positions, for a block whose only
/// non-zero coefficient is the DC term `dc`.
///
/// The DC basis row is exactly `1.0`, so the first pass leaves `alpha0 * dc` in column 0
/// of every row and the second pass scales it by `alpha0` again. Every other term the
/// 8×8 loops add is an exact `±0.0` that moves no bit (see [`inverse_dct_corner`]).
pub(crate) fn inverse_dct_dc(dc: f32) -> f32 {
    let alpha0 = tables().alpha[0];
    alpha0 * (alpha0 * dc)
}

/// The pre-table scalar inverse DCT, kept verbatim as the rounding reference: every
/// 8×8 product and sum, with the transcendental basis evaluated inline.
#[cfg(test)]
pub(crate) fn inverse_dct_reference(coeffs: &[f32; BLOCK_AREA]) -> [f32; BLOCK_AREA] {
    let mut out = [0.0f32; BLOCK_AREA];
    let mut tmp = [0.0f32; BLOCK_AREA];
    for u in 0..BLOCK {
        for y in 0..BLOCK {
            let mut acc = 0.0;
            for v in 0..BLOCK {
                acc += alpha(v) * coeffs[v * BLOCK + u] * basis(v, y);
            }
            tmp[y * BLOCK + u] = acc;
        }
    }
    for y in 0..BLOCK {
        for x in 0..BLOCK {
            let mut acc = 0.0;
            for u in 0..BLOCK {
                acc += alpha(u) * tmp[y * BLOCK + u] * basis(u, x);
            }
            out[y * BLOCK + x] = acc;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zigzag_is_a_permutation() {
        let mut seen = [false; BLOCK_AREA];
        for &i in &ZIGZAG {
            assert!(i < BLOCK_AREA);
            assert!(!seen[i], "duplicate zig-zag entry {i}");
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
        // First entries follow the JPEG spec.
        assert_eq!(&ZIGZAG[..6], &[0, 1, 8, 16, 9, 2]);
        assert_eq!(ZIGZAG[63], 63);
    }

    #[test]
    fn constant_block_concentrates_in_dc() {
        let block = [12.5f32; BLOCK_AREA];
        let coeffs = forward_dct(&block);
        assert!((coeffs[0] - 12.5 * 8.0).abs() < 1e-3);
        for (i, &c) in coeffs.iter().enumerate().skip(1) {
            assert!(c.abs() < 1e-3, "AC coefficient {i} = {c}");
        }
    }

    #[test]
    fn forward_inverse_round_trip() {
        let mut block = [0.0f32; BLOCK_AREA];
        for (i, v) in block.iter_mut().enumerate() {
            *v = ((i as f32 * 1.7).sin() * 100.0) + (i as f32) - 32.0;
        }
        let coeffs = forward_dct(&block);
        let back = inverse_dct(&coeffs);
        for (a, b) in block.iter().zip(&back) {
            assert!((a - b).abs() < 1e-2, "{a} vs {b}");
        }
    }

    #[test]
    fn transform_is_orthonormal() {
        // Parseval: energy preserved.
        let mut block = [0.0f32; BLOCK_AREA];
        for (i, v) in block.iter_mut().enumerate() {
            *v = ((i * 37 % 23) as f32) - 11.0;
        }
        let coeffs = forward_dct(&block);
        let e_spatial: f32 = block.iter().map(|v| v * v).sum();
        let e_freq: f32 = coeffs.iter().map(|v| v * v).sum();
        assert!((e_spatial - e_freq).abs() / e_spatial < 1e-4);
    }

    #[test]
    fn table_driven_transforms_match_inline_formulas_bitwise() {
        // The pre-table scalar implementations, kept verbatim as the rounding reference:
        // the lane-parallel rewrites must reproduce every output bit exactly.
        fn forward_scalar(block: &[f32; BLOCK_AREA]) -> [f32; BLOCK_AREA] {
            let mut out = [0.0f32; BLOCK_AREA];
            let mut tmp = [0.0f32; BLOCK_AREA];
            for y in 0..BLOCK {
                for u in 0..BLOCK {
                    let mut acc = 0.0;
                    for x in 0..BLOCK {
                        acc += block[y * BLOCK + x] * basis(u, x);
                    }
                    tmp[y * BLOCK + u] = acc * alpha(u);
                }
            }
            for u in 0..BLOCK {
                for v in 0..BLOCK {
                    let mut acc = 0.0;
                    for y in 0..BLOCK {
                        acc += tmp[y * BLOCK + u] * basis(v, y);
                    }
                    out[v * BLOCK + u] = acc * alpha(v);
                }
            }
            out
        }

        for seed in 0u32..8 {
            let mut block = [0.0f32; BLOCK_AREA];
            for (i, v) in block.iter_mut().enumerate() {
                *v = (((i as u32).wrapping_mul(2654435761).wrapping_add(seed * 40503) >> 16) & 0xFF)
                    as f32
                    - 128.0;
            }
            let fast = forward_dct(&block);
            let slow = forward_scalar(&block);
            for (i, (a, b)) in fast.iter().zip(&slow).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "forward coefficient {i} differs");
            }
            let fast = inverse_dct(&slow);
            let slow = inverse_dct_reference(&slow.clone());
            for (i, (a, b)) in fast.iter().zip(&slow).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "inverse sample {i} differs");
            }
        }
    }

    #[test]
    fn high_frequency_pattern_concentrates_in_high_coeffs() {
        // Checkerboard: energy in the highest-frequency coefficient.
        let mut block = [0.0f32; BLOCK_AREA];
        for y in 0..BLOCK {
            for x in 0..BLOCK {
                block[y * BLOCK + x] = if (x + y) % 2 == 0 { 100.0 } else { -100.0 };
            }
        }
        let coeffs = forward_dct(&block);
        let max_idx = coeffs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.abs().partial_cmp(&b.1.abs()).unwrap())
            .unwrap()
            .0;
        assert_eq!(max_idx, 63, "checkerboard must peak at the (7,7) coefficient");
    }
}
