//! Dense matrix multiplication kernels.
//!
//! Two implementations are provided: [`gemm_naive`], a straightforward triple loop
//! the GEMM tests compare against, and [`gemm_packed`] — the packed, register-tiled,
//! multi-threaded kernel built on [`engine`](crate::engine) that the convolution
//! paths and [`matmul`] use.
//!
//! Note on zero handling: earlier revisions skipped `a[i][p] == 0.0` entries in the
//! inner loops. On dense data that "optimization" is a mispredicted branch per
//! element, and it silently broke IEEE semantics (`0 × NaN` must be NaN, not an
//! untouched output). All kernels now multiply unconditionally.

use crate::{engine, scratch};

/// A row-major matrix view described by raw dimensions.
///
/// The GEMM routines operate on plain slices to avoid committing the tensor type to a
/// particular matrix layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatDims {
    /// Rows of the left operand / output.
    pub m: usize,
    /// Columns of the right operand / output.
    pub n: usize,
    /// Inner (shared) dimension.
    pub k: usize,
}

impl MatDims {
    /// Creates a new dimension triple.
    pub const fn new(m: usize, n: usize, k: usize) -> Self {
        MatDims { m, n, k }
    }

    /// Number of multiply–accumulate operations for one GEMM.
    pub const fn macs(&self) -> u64 {
        (self.m as u64) * (self.n as u64) * (self.k as u64)
    }
}

/// Reference GEMM: `out[m][n] += a[m][k] * b[k][n]` with a plain triple loop.
///
/// `out` must have length `dims.m * dims.n`, `a` length `dims.m * dims.k`, and `b` length
/// `dims.k * dims.n`. The output is accumulated into (callers zero it first when needed).
///
/// # Panics
/// Panics if any slice is shorter than its required length.
pub fn gemm_naive(dims: MatDims, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert!(a.len() >= dims.m * dims.k, "lhs too short");
    assert!(b.len() >= dims.k * dims.n, "rhs too short");
    assert!(out.len() >= dims.m * dims.n, "out too short");
    for i in 0..dims.m {
        for p in 0..dims.k {
            let av = a[i * dims.k + p];
            let brow = &b[p * dims.n..(p + 1) * dims.n];
            let orow = &mut out[i * dims.n..(i + 1) * dims.n];
            for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                *o += av * bv;
            }
        }
    }
}

/// Packed, register-tiled, multi-threaded GEMM with the same contract as
/// [`gemm_naive`] (`out += a · b`, `out` pre-initialized by the caller).
///
/// A and B are repacked into microkernel panels held in the thread-local scratch
/// arena; the `MR × NR` accumulator tile stays in registers across the full shared
/// dimension; output rows are computed on worker threads when the problem is large
/// enough (see [`engine`](crate::engine)). Results are bitwise identical for every
/// thread count.
///
/// # Panics
/// Panics if any slice is shorter than its required length.
pub fn gemm_packed(dims: MatDims, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert!(a.len() >= dims.m * dims.k, "lhs too short");
    assert!(b.len() >= dims.k * dims.n, "rhs too short");
    assert!(out.len() >= dims.m * dims.n, "out too short");
    let MatDims { m, n, k } = dims;
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let parallel = dims.macs() >= engine::PARALLEL_MIN_MACS;
    // Column stripes bound packed-B scratch for very wide products.
    let stripe_cols = engine::b_stripe_cols(k);
    let out = &mut out[..m * n];
    let mut j0 = 0;
    while j0 < n {
        let width = stripe_cols.min(n - j0);
        let mut bpack = scratch::take_uninit(width.div_ceil(engine::NR) * k * engine::NR);
        engine::pack_b(b, k, n, j0, width, &mut bpack);
        engine::parallel_packed_gemm(
            engine::GemmLhs::Rows { data: a, lda: k },
            m,
            k,
            &bpack,
            width,
            out,
            engine::ColumnLayout::rows(n, j0),
            engine::Epilogue::default(),
            true,
            parallel,
        );
        scratch::give(bpack);
        j0 += width;
    }
}

/// Convenience wrapper allocating and returning the output matrix (`m × n`,
/// zero-initialized before accumulation), using the packed engine kernel.
pub fn matmul(dims: MatDims, a: &[f32], b: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0; dims.m * dims.n];
    gemm_packed(dims, a, b, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference(dims: MatDims, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0; dims.m * dims.n];
        for i in 0..dims.m {
            for j in 0..dims.n {
                let mut acc = 0.0;
                for p in 0..dims.k {
                    acc += a[i * dims.k + p] * b[p * dims.n + j];
                }
                out[i * dims.n + j] = acc;
            }
        }
        out
    }

    fn approx_eq(a: &[f32], b: &[f32]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() < 1e-4)
    }

    #[test]
    fn identity_multiplication() {
        let dims = MatDims::new(3, 3, 3);
        let eye: Vec<f32> = (0..9).map(|i| if i % 4 == 0 { 1.0 } else { 0.0 }).collect();
        let a: Vec<f32> = (0..9).map(|i| i as f32).collect();
        assert_eq!(matmul(dims, &a, &eye), a);
        assert_eq!(matmul(dims, &eye, &a), a);
    }

    #[test]
    fn naive_matches_reference() {
        let dims = MatDims::new(7, 5, 11);
        let a: Vec<f32> = (0..dims.m * dims.k).map(|i| (i as f32 * 0.37).sin()).collect();
        let b: Vec<f32> = (0..dims.k * dims.n).map(|i| (i as f32 * 0.11).cos()).collect();
        let mut out = vec![0.0; dims.m * dims.n];
        gemm_naive(dims, &a, &b, &mut out);
        assert!(approx_eq(&out, &reference(dims, &a, &b)));
    }

    #[test]
    fn macs_accounting() {
        assert_eq!(MatDims::new(2, 3, 4).macs(), 24);
    }

    #[test]
    fn packed_matches_naive_for_awkward_shapes() {
        for (m, n, k) in [(1, 1, 1), (8, 8, 8), (7, 9, 5), (17, 33, 40), (64, 100, 27)] {
            let dims = MatDims::new(m, n, k);
            let a: Vec<f32> = (0..m * k).map(|i| ((i * 31) % 17) as f32 * 0.25 - 2.0).collect();
            let b: Vec<f32> = (0..k * n).map(|i| ((i * 23) % 19) as f32 * 0.25 - 2.2).collect();
            let mut naive = vec![0.0; m * n];
            gemm_naive(dims, &a, &b, &mut naive);
            let mut packed = vec![0.0; m * n];
            gemm_packed(dims, &a, &b, &mut packed);
            assert!(approx_eq(&naive, &packed), "{m}x{n}x{k} diverged");
        }
    }

    #[test]
    fn packed_accumulates_into_existing_output() {
        let dims = MatDims::new(3, 3, 2);
        let a = vec![1.0; 6];
        let b = vec![1.0; 6];
        let mut out = vec![10.0; 9];
        gemm_packed(dims, &a, &b, &mut out);
        assert!(out.iter().all(|&x| (x - 12.0).abs() < 1e-6));
    }

    #[test]
    fn zero_times_nan_propagates() {
        // The seed's `av == 0.0` skip silently dropped NaN/Inf propagation: a zero row
        // in A multiplied against a NaN in B must produce NaN, not leave the output
        // untouched.
        let dims = MatDims::new(1, 2, 1);
        let a = vec![0.0];
        let b = vec![f32::NAN, f32::INFINITY];
        for kernel in [gemm_naive as fn(MatDims, &[f32], &[f32], &mut [f32]), gemm_packed] {
            let mut out = vec![0.0; 2];
            kernel(dims, &a, &b, &mut out);
            assert!(out[0].is_nan(), "0 * NaN must be NaN");
            assert!(out[1].is_nan(), "0 * inf must be NaN");
        }
    }

    #[test]
    #[should_panic(expected = "lhs too short")]
    fn short_input_panics() {
        let dims = MatDims::new(2, 2, 2);
        let a = vec![0.0; 3];
        let b = vec![0.0; 4];
        let mut out = vec![0.0; 4];
        gemm_naive(dims, &a, &b, &mut out);
    }
}
