//! Image quality metrics: PSNR and SSIM.
//!
//! The paper's storage-calibration stage (§V) uses SSIM of a degraded image against the
//! full-quality reference (both at the target inference resolution) as a cheap proxy for
//! "enough detail for the model", and binary-searches an SSIM threshold per resolution.
//! PSNR is included as a comparison metric for the ablation benchmarks.

use serde::{Deserialize, Serialize};

use crate::error::{ImagingError, Result};
use crate::image::Image;

/// Peak signal-to-noise ratio in decibels between two images of identical dimensions,
/// computed over all three channels with peak value 1.0.
///
/// Identical images return `f64::INFINITY`.
///
/// # Errors
/// Returns [`ImagingError::DimensionMismatch`] if the image dimensions differ.
pub fn psnr(reference: &Image, distorted: &Image) -> Result<f64> {
    if reference.dimensions() != distorted.dimensions() {
        return Err(ImagingError::DimensionMismatch {
            first: reference.dimensions(),
            second: distorted.dimensions(),
        });
    }
    let mse: f64 = reference
        .as_planar()
        .iter()
        .zip(distorted.as_planar())
        .map(|(&a, &b)| {
            let d = (a - b) as f64;
            d * d
        })
        .sum::<f64>()
        / reference.as_planar().len() as f64;
    if mse <= f64::EPSILON {
        return Ok(f64::INFINITY);
    }
    Ok(10.0 * (1.0 / mse).log10())
}

/// Configuration for the windowed SSIM computation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SsimConfig {
    /// Square window extent in pixels.
    pub window: usize,
    /// Stride between window origins (larger strides trade accuracy for speed; the
    /// calibration harness uses 4).
    pub stride: usize,
    /// Stabilisation constant `C1 = (k1 * L)^2` with `L = 1`.
    pub k1: f64,
    /// Stabilisation constant `C2 = (k2 * L)^2` with `L = 1`.
    pub k2: f64,
}

impl Default for SsimConfig {
    fn default() -> Self {
        SsimConfig { window: 8, stride: 4, k1: 0.01, k2: 0.03 }
    }
}

impl SsimConfig {
    /// A dense (stride-1, 11-pixel window) configuration closer to the canonical SSIM
    /// definition; slower but slightly more faithful.
    pub fn dense() -> Self {
        SsimConfig { window: 11, stride: 1, ..Self::default() }
    }
}

/// Sliding integral state behind the O(1)-per-window statistics: running sums of
/// reference luma, distorted luma, their squares, and the cross-product, interleaved as
/// `[sum_x, sum_y, sum_xx, sum_yy, sum_xy]` entries.
///
/// `cols[x]` holds the five sums of column `x` over the current window-row band
/// `[y0, y0 + win)`; stepping `y0` adds the entering rows and subtracts the leaving ones,
/// so every image row is touched exactly twice regardless of how densely windows
/// overlap, and the whole state (a few `width`-long arrays) stays cache-resident — no
/// image-sized table is ever materialized. For each window row, [`begin_row`]
/// (SsimIntegrals::begin_row) turns the column sums into horizontal prefix sums and a
/// window statistic becomes two prefix lookups per column band.
///
/// Two properties keep the agreement with the reference implementation at the ~1e-13
/// floor (documented as ≤ 1e-12, pinned by tests): the column sums have magnitude
/// ≤ `win` (the add/subtract chain over the image height cannot amplify rounding
/// beyond ulps of that small magnitude), and the prefix sums restart every `win` columns
/// (a window then spans at most two bands), bounding them by `win²` instead of the
/// full-image sum a classic summed-area table reaches.
struct SsimIntegrals {
    /// Effective window extent; also the column-band width of the prefix sums.
    win: usize,
    /// Per-column running sums over the current row band.
    cols: Vec<[f64; 5]>,
    /// Banded horizontal prefix sums of `cols`, one zero entry per band.
    prefix: Vec<[f64; 5]>,
    /// Starting index of each column band inside `prefix`.
    band_offsets: Vec<usize>,
    /// Next source row to be added into `cols`.
    row_add: usize,
    /// Next source row to be subtracted out of `cols`.
    row_sub: usize,
}

/// The banded-prefix layout shared by [`SsimIntegrals`] and [`SsimReference`]:
/// per-band starting indices plus the total prefix length (each band holds its
/// column count plus one leading zero entry).
fn band_layout(w: usize, win: usize) -> (Vec<usize>, usize) {
    let num_bands = w.div_ceil(win);
    let mut band_offsets = Vec::with_capacity(num_bands);
    let mut len = 0usize;
    for c in 0..num_bands {
        band_offsets.push(len);
        len += win.min(w - c * win) + 1;
    }
    (band_offsets, len)
}

impl SsimIntegrals {
    fn new(w: usize, win: usize) -> Self {
        let (band_offsets, len) = band_layout(w, win);
        SsimIntegrals {
            win,
            cols: vec![[0.0; 5]; w],
            prefix: vec![[0.0; 5]; len],
            band_offsets,
            row_add: 0,
            row_sub: 0,
        }
    }

    /// Folds one source row into the column sums with the given sign.
    fn apply_row(&mut self, lx_row: &[f32], ly_row: &[f32], add: bool) {
        for ((col, &a), &v) in self.cols.iter_mut().zip(lx_row).zip(ly_row) {
            let (a, v) = (a as f64, v as f64);
            let terms = [a, v, a * a, v * v, a * v];
            for k in 0..5 {
                if add {
                    col[k] += terms[k];
                } else {
                    col[k] -= terms[k];
                }
            }
        }
    }

    /// Slides the column sums to cover rows `[y0, y0 + win)` and rebuilds the banded
    /// prefix sums for that window row.
    fn begin_row(&mut self, lx: &[f32], ly: &[f32], w: usize, y0: usize) {
        while self.row_add < y0 + self.win {
            let y = self.row_add;
            self.apply_row(&lx[y * w..(y + 1) * w], &ly[y * w..(y + 1) * w], true);
            self.row_add += 1;
        }
        while self.row_sub < y0 {
            let y = self.row_sub;
            self.apply_row(&lx[y * w..(y + 1) * w], &ly[y * w..(y + 1) * w], false);
            self.row_sub += 1;
        }
        for (c, &base) in self.band_offsets.iter().enumerate() {
            let x_start = c * self.win;
            let width = self.win.min(w - x_start);
            self.prefix[base] = [0.0; 5];
            for i in 0..width {
                let col = self.cols[x_start + i];
                let prev = self.prefix[base + i];
                let dst = &mut self.prefix[base + i + 1];
                for k in 0..5 {
                    dst[k] = prev[k] + col[k];
                }
            }
        }
    }

    /// The five sums over the window `[x0, x0 + win)` of the current row — at most two
    /// prefix-band segments.
    #[inline]
    fn window(&self, x0: usize) -> [f64; 5] {
        let x1 = x0 + self.win;
        let b0 = x0 / self.win;
        let b1 = (x1 - 1) / self.win;
        let mut acc = [0.0f64; 5];
        let mut segment = |band: usize, c0: usize, c1: usize| {
            let lo = &self.prefix[self.band_offsets[band] + c0];
            let hi = &self.prefix[self.band_offsets[band] + c1];
            for k in 0..5 {
                acc[k] += hi[k] - lo[k];
            }
        };
        if b0 == b1 {
            segment(b0, x0 - b0 * self.win, x1 - b0 * self.win);
        } else {
            let split = b1 * self.win;
            segment(b0, x0 - b0 * self.win, split - b0 * self.win);
            segment(b1, 0, x1 - split);
        }
        acc
    }
}

/// Mean structural similarity between two images of identical dimensions, computed on the
/// luma plane over uniform windows.
///
/// The result lies in `[-1, 1]`; identical images score exactly `1.0`.
///
/// Window statistics come from sliding integral sums (running sums of luma, luma², and
/// the cross-product — see `SsimIntegrals`), making each window O(1) instead of
/// O(window²). Relative to the reference implementation
/// ([`crate::reference::ssim_with`]), only the association order of the five window sums
/// changes (summed-area differences instead of a fresh row-major accumulation per
/// window); every other operation is identical, so scores agree to ≈1e-13 and the parity
/// tests pin the difference at ≤ 1e-12.
///
/// # Errors
/// Returns [`ImagingError::DimensionMismatch`] if the image dimensions differ, or
/// [`ImagingError::EmptyImage`] if the window or stride is zero.
pub fn ssim_with(reference: &Image, distorted: &Image, config: SsimConfig) -> Result<f64> {
    if reference.dimensions() != distorted.dimensions() {
        return Err(ImagingError::DimensionMismatch {
            first: reference.dimensions(),
            second: distorted.dimensions(),
        });
    }
    if config.window == 0 || config.stride == 0 {
        return Err(ImagingError::EmptyImage);
    }
    let (w, h) = reference.dimensions();
    let lx = reference.to_luma();
    let ly = distorted.to_luma();
    let win = config.window.min(w).min(h);
    let c1 = (config.k1 * 1.0_f64).powi(2);
    let c2 = (config.k2 * 1.0_f64).powi(2);

    let mut t = SsimIntegrals::new(w, win);
    let mut total = 0.0;
    let mut count = 0usize;
    let mut y0 = 0;
    while y0 + win <= h {
        t.begin_row(&lx, &ly, w, y0);
        let mut x0 = 0;
        while x0 + win <= w {
            let [sum_x, sum_y, sum_xx, sum_yy, sum_xy] = t.window(x0);
            let n = (win * win) as f64;
            let mu_x = sum_x / n;
            let mu_y = sum_y / n;
            let var_x = (sum_xx / n - mu_x * mu_x).max(0.0);
            let var_y = (sum_yy / n - mu_y * mu_y).max(0.0);
            let cov = sum_xy / n - mu_x * mu_y;
            let score = ((2.0 * mu_x * mu_y + c1) * (2.0 * cov + c2))
                / ((mu_x * mu_x + mu_y * mu_y + c1) * (var_x + var_y + c2));
            total += score;
            count += 1;
            x0 += config.stride;
        }
        y0 += config.stride;
    }
    if count == 0 {
        // Images smaller than the window: fall back to a single global window.
        let shrunk = SsimConfig { window: w.min(h), stride: 1, ..config };
        if shrunk.window == win {
            // Degenerate 0-sized dimension cannot happen (Image forbids it); return 1 for
            // safety.
            return Ok(1.0);
        }
        return ssim_with(reference, distorted, shrunk);
    }
    Ok((total / count as f64).clamp(-1.0, 1.0))
}

/// Mean SSIM with the default configuration. See [`ssim_with`].
///
/// # Errors
/// Returns [`ImagingError::DimensionMismatch`] if the image dimensions differ.
pub fn ssim(reference: &Image, distorted: &Image) -> Result<f64> {
    ssim_with(reference, distorted, SsimConfig::default())
}

/// Persistent per-reference SSIM state: everything [`ssim_with`] derives from the
/// *reference* image alone, precomputed once and reused across many distorted
/// candidates.
///
/// Of the five sliding window sums, two (`Σx`, `Σx²`) plus the reference luma
/// plane depend only on the reference. Scoring the same reference against a
/// sequence of candidates — exactly what the progressive-scan planners do, which
/// score every scan prefix of a frame against one ground-truth resize — rebuilds
/// that state from scratch on every call. A `SsimReference` instead stores the
/// banded prefix sums of `[Σx, Σx²]` for every window row at construction, so
/// [`score`](Self::score) only slides the three distorted-dependent sums
/// (`Σy`, `Σy²`, `Σxy`) and skips the reference luma conversion entirely —
/// roughly the 60 % of the integral work (plus one full-image luma pass and its
/// allocation) that `ssim_with` repays per call.
///
/// **Parity contract:** every retained arithmetic operation is identical to
/// [`ssim_with`] — each of the five sums accumulates independently there, so
/// splitting them across construction/score changes no operation order — and the
/// parity tests pin `score` to be **bitwise identical** to `ssim_with`.
///
/// # Examples
/// ```
/// use rescnn_imaging::{ssim, Image, SsimConfig, SsimReference};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let reference = Image::from_fn(32, 24, |x, y| [(x as f32) / 32.0, 0.5, (y as f32) / 24.0])?;
/// let candidate = Image::filled(32, 24, [0.4, 0.5, 0.6])?;
/// let state = SsimReference::new(&reference, SsimConfig::default())?;
/// assert_eq!(state.score(&candidate)?, ssim(&reference, &candidate)?);
/// # Ok(())
/// # }
/// ```
pub struct SsimReference {
    width: usize,
    height: usize,
    win: usize,
    stride: usize,
    c1: f64,
    c2: f64,
    /// Reference luma plane (consumed by the `Σxy` cross sums during scoring).
    lx: Vec<f32>,
    /// `[Σx, Σx²]` banded prefix sums, one block of `prefix_len` entries per
    /// window row (`y0 = row_index * stride`).
    ref_prefix: Vec<[f64; 2]>,
    band_offsets: Vec<usize>,
    prefix_len: usize,
}

impl SsimReference {
    /// Precomputes the reference-only SSIM state for `reference` under `config`.
    ///
    /// # Errors
    /// Returns [`ImagingError::EmptyImage`] if the window or stride is zero.
    pub fn new(reference: &Image, config: SsimConfig) -> Result<Self> {
        if config.window == 0 || config.stride == 0 {
            return Err(ImagingError::EmptyImage);
        }
        let (w, h) = reference.dimensions();
        let lx = reference.to_luma();
        let win = config.window.min(w).min(h);
        let (band_offsets, prefix_len) = band_layout(w, win);

        // Slide the reference column sums down the image exactly like
        // `SsimIntegrals`, keeping only the x components, and snapshot the banded
        // prefixes of every window row.
        let mut cols = vec![[0.0f64; 2]; w];
        let mut row_add = 0usize;
        let mut row_sub = 0usize;
        let mut ref_prefix = Vec::new();
        let mut y0 = 0;
        while y0 + win <= h {
            while row_add < y0 + win {
                for (col, &a) in cols.iter_mut().zip(&lx[row_add * w..(row_add + 1) * w]) {
                    let a = a as f64;
                    col[0] += a;
                    col[1] += a * a;
                }
                row_add += 1;
            }
            while row_sub < y0 {
                for (col, &a) in cols.iter_mut().zip(&lx[row_sub * w..(row_sub + 1) * w]) {
                    let a = a as f64;
                    col[0] -= a;
                    col[1] -= a * a;
                }
                row_sub += 1;
            }
            let base = ref_prefix.len();
            ref_prefix.resize(base + prefix_len, [0.0; 2]);
            for (c, &offset) in band_offsets.iter().enumerate() {
                let x_start = c * win;
                let width = win.min(w - x_start);
                ref_prefix[base + offset] = [0.0; 2];
                for i in 0..width {
                    let col = cols[x_start + i];
                    let prev = ref_prefix[base + offset + i];
                    ref_prefix[base + offset + i + 1] = [prev[0] + col[0], prev[1] + col[1]];
                }
            }
            y0 += config.stride;
        }

        Ok(SsimReference {
            width: w,
            height: h,
            win,
            stride: config.stride,
            c1: (config.k1 * 1.0_f64).powi(2),
            c2: (config.k2 * 1.0_f64).powi(2),
            lx,
            ref_prefix,
            band_offsets,
            prefix_len,
        })
    }

    /// Dimensions of the reference image this state was built from.
    pub fn dimensions(&self) -> (usize, usize) {
        (self.width, self.height)
    }

    /// Sums a banded-prefix window `[x0, x0 + win)`: at most two band segments.
    #[inline]
    fn window_sums<const K: usize>(&self, prefix: &[[f64; K]], x0: usize) -> [f64; K] {
        let x1 = x0 + self.win;
        let b0 = x0 / self.win;
        let b1 = (x1 - 1) / self.win;
        let mut acc = [0.0f64; K];
        let mut segment = |band: usize, c0: usize, c1: usize| {
            let lo = &prefix[self.band_offsets[band] + c0];
            let hi = &prefix[self.band_offsets[band] + c1];
            for k in 0..K {
                acc[k] += hi[k] - lo[k];
            }
        };
        if b0 == b1 {
            segment(b0, x0 - b0 * self.win, x1 - b0 * self.win);
        } else {
            let split = b1 * self.win;
            segment(b0, x0 - b0 * self.win, split - b0 * self.win);
            segment(b1, 0, x1 - split);
        }
        acc
    }

    /// Mean SSIM of `distorted` against the stored reference — bitwise identical
    /// to `ssim_with(reference, distorted, config)` for the construction-time
    /// reference and configuration.
    ///
    /// # Errors
    /// Returns [`ImagingError::DimensionMismatch`] if `distorted` does not match
    /// the reference dimensions.
    pub fn score(&self, distorted: &Image) -> Result<f64> {
        if distorted.dimensions() != (self.width, self.height) {
            return Err(ImagingError::DimensionMismatch {
                first: (self.width, self.height),
                second: distorted.dimensions(),
            });
        }
        let (w, h) = (self.width, self.height);
        let win = self.win;
        let ly = distorted.to_luma();

        let mut cols = vec![[0.0f64; 3]; w];
        let mut prefix = vec![[0.0f64; 3]; self.prefix_len];
        let mut row_add = 0usize;
        let mut row_sub = 0usize;
        let mut total = 0.0;
        let mut count = 0usize;
        let mut row_index = 0usize;
        let mut y0 = 0;
        while y0 + win <= h {
            // Slide the distorted-dependent column sums (Σy, Σy², Σxy).
            let apply = |cols: &mut Vec<[f64; 3]>, y: usize, add: bool| {
                let lx_row = &self.lx[y * w..(y + 1) * w];
                let ly_row = &ly[y * w..(y + 1) * w];
                for ((col, &a), &v) in cols.iter_mut().zip(lx_row).zip(ly_row) {
                    let (a, v) = (a as f64, v as f64);
                    let terms = [v, v * v, a * v];
                    for k in 0..3 {
                        if add {
                            col[k] += terms[k];
                        } else {
                            col[k] -= terms[k];
                        }
                    }
                }
            };
            while row_add < y0 + win {
                apply(&mut cols, row_add, true);
                row_add += 1;
            }
            while row_sub < y0 {
                apply(&mut cols, row_sub, false);
                row_sub += 1;
            }
            for (c, &offset) in self.band_offsets.iter().enumerate() {
                let x_start = c * win;
                let width = win.min(w - x_start);
                prefix[offset] = [0.0; 3];
                for i in 0..width {
                    let col = cols[x_start + i];
                    let prev = prefix[offset + i];
                    let dst = &mut prefix[offset + i + 1];
                    for k in 0..3 {
                        dst[k] = prev[k] + col[k];
                    }
                }
            }

            let ref_row =
                &self.ref_prefix[row_index * self.prefix_len..(row_index + 1) * self.prefix_len];
            let mut x0 = 0;
            while x0 + win <= w {
                let [sum_x, sum_xx] = self.window_sums(ref_row, x0);
                let [sum_y, sum_yy, sum_xy] = self.window_sums(&prefix, x0);
                let n = (win * win) as f64;
                let mu_x = sum_x / n;
                let mu_y = sum_y / n;
                let var_x = (sum_xx / n - mu_x * mu_x).max(0.0);
                let var_y = (sum_yy / n - mu_y * mu_y).max(0.0);
                let cov = sum_xy / n - mu_x * mu_y;
                let score = ((2.0 * mu_x * mu_y + self.c1) * (2.0 * cov + self.c2))
                    / ((mu_x * mu_x + mu_y * mu_y + self.c1) * (var_x + var_y + self.c2));
                total += score;
                count += 1;
                x0 += self.stride;
            }
            row_index += 1;
            y0 += self.stride;
        }
        if count == 0 {
            // Unreachable in practice: `win ≤ min(w, h)` guarantees at least one
            // window position, matching `ssim_with`'s degenerate fallback result.
            return Ok(1.0);
        }
        Ok((total / count as f64).clamp(-1.0, 1.0))
    }
}

/// Which quality metric to use for storage calibration (the paper uses SSIM; PSNR is kept
/// for the ablation study in the benchmark harness).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum QualityMetric {
    /// Structural similarity in `[-1, 1]`.
    Ssim,
    /// Peak signal-to-noise ratio in dB, squashed to `[0, 1]` via `db / 50` for
    /// threshold-search compatibility.
    Psnr,
}

impl QualityMetric {
    /// Evaluates the metric, returning a value in a roughly `[0, 1]` range where larger is
    /// better.
    ///
    /// # Errors
    /// Returns an error if the image dimensions differ.
    pub fn evaluate(&self, reference: &Image, distorted: &Image) -> Result<f64> {
        match self {
            QualityMetric::Ssim => ssim(reference, distorted),
            QualityMetric::Psnr => {
                let db = psnr(reference, distorted)?;
                Ok((db / 50.0).clamp(0.0, 1.0))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_image(seed: u32) -> Image {
        Image::from_fn(48, 40, |x, y| {
            let v = ((x as f32 * 0.3 + seed as f32).sin() + (y as f32 * 0.2).cos()) * 0.25 + 0.5;
            [v, v * 0.8, 1.0 - v]
        })
        .unwrap()
    }

    fn add_noise(img: &Image, amplitude: f32) -> Image {
        let mut out = img.clone();
        for y in 0..img.height() {
            for x in 0..img.width() {
                let mut p = img.pixel(x, y);
                let n = (((x * 31 + y * 17) % 13) as f32 / 13.0 - 0.5) * amplitude;
                for v in &mut p {
                    *v = (*v + n).clamp(0.0, 1.0);
                }
                out.set_pixel(x, y, p);
            }
        }
        out
    }

    #[test]
    fn psnr_of_identical_images_is_infinite() {
        let img = test_image(0);
        assert!(psnr(&img, &img).unwrap().is_infinite());
    }

    #[test]
    fn psnr_decreases_with_noise() {
        let img = test_image(1);
        let light = add_noise(&img, 0.05);
        let heavy = add_noise(&img, 0.4);
        let p_light = psnr(&img, &light).unwrap();
        let p_heavy = psnr(&img, &heavy).unwrap();
        assert!(p_light > p_heavy);
        assert!(p_light > 20.0);
    }

    #[test]
    fn psnr_requires_matching_dimensions() {
        let a = test_image(0);
        let b = Image::zeros(3, 3).unwrap();
        assert!(psnr(&a, &b).is_err());
        assert!(ssim(&a, &b).is_err());
    }

    #[test]
    fn ssim_identity_is_one() {
        let img = test_image(2);
        let s = ssim(&img, &img).unwrap();
        assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ssim_orders_degradations() {
        let img = test_image(3);
        let light = add_noise(&img, 0.05);
        let heavy = add_noise(&img, 0.5);
        let s_light = ssim(&img, &light).unwrap();
        let s_heavy = ssim(&img, &heavy).unwrap();
        assert!(s_light > s_heavy, "{s_light} vs {s_heavy}");
        assert!(s_light > 0.8);
        assert!(s_heavy < 0.9);
    }

    #[test]
    fn ssim_bounds() {
        let img = test_image(4);
        let inverted = Image::from_fn(img.width(), img.height(), |x, y| {
            let p = img.pixel(x, y);
            [1.0 - p[0], 1.0 - p[1], 1.0 - p[2]]
        })
        .unwrap();
        let s = ssim(&img, &inverted).unwrap();
        assert!((-1.0..=1.0).contains(&s));
    }

    #[test]
    fn ssim_handles_images_smaller_than_window() {
        let a = Image::filled(4, 4, [0.5; 3]).unwrap();
        let b = Image::filled(4, 4, [0.25; 3]).unwrap();
        let s =
            ssim_with(&a, &b, SsimConfig { window: 16, stride: 4, ..Default::default() }).unwrap();
        assert!((-1.0..=1.0).contains(&s));
        assert!(s < 1.0);
    }

    #[test]
    fn ssim_rejects_degenerate_config() {
        let img = test_image(5);
        assert!(ssim_with(&img, &img, SsimConfig { window: 0, ..Default::default() }).is_err());
        assert!(ssim_with(&img, &img, SsimConfig { stride: 0, ..Default::default() }).is_err());
    }

    #[test]
    fn dense_config_close_to_default() {
        let img = test_image(6);
        let noisy = add_noise(&img, 0.1);
        let fast = ssim(&img, &noisy).unwrap();
        let dense = ssim_with(&img, &noisy, SsimConfig::dense()).unwrap();
        assert!((fast - dense).abs() < 0.08, "fast {fast} vs dense {dense}");
    }

    #[test]
    fn integral_ssim_matches_reference_within_1e12() {
        // The integral-image rewrite only changes the association order of the five
        // window sums; everything else is bit-identical arithmetic. The documented
        // contract is agreement with the pre-rewrite implementation to ≤ 1e-12, across
        // image sizes (larger images stress the summed-area cancellation the most),
        // window/stride shapes, and the smaller-than-window fallback.
        use crate::synth::{render_scene, SceneSpec};
        let configs = [
            SsimConfig::default(),
            SsimConfig::dense(),
            SsimConfig { window: 16, stride: 3, ..Default::default() },
            SsimConfig { window: 64, stride: 1, ..Default::default() },
        ];
        for (w, h, seed) in [(48usize, 40usize, 0u64), (224, 224, 5), (331, 257, 9), (472, 405, 2)]
        {
            let a =
                render_scene(&SceneSpec::new(w, h, 3).with_seed(seed).with_detail(0.8)).unwrap();
            let b = render_scene(&SceneSpec::new(w, h, 7).with_seed(seed + 1)).unwrap();
            for config in configs {
                let fast = ssim_with(&a, &b, config).unwrap();
                let slow = crate::reference::ssim_with(&a, &b, config).unwrap();
                assert!(
                    (fast - slow).abs() <= 1e-12,
                    "{w}x{h} {config:?}: {fast} vs {slow} (diff {})",
                    (fast - slow).abs()
                );
            }
        }
        // Smaller-than-window fallback recursion agrees too.
        let a = Image::filled(4, 4, [0.5; 3]).unwrap();
        let b = Image::filled(4, 4, [0.25; 3]).unwrap();
        let config = SsimConfig { window: 16, stride: 4, ..Default::default() };
        let fast = ssim_with(&a, &b, config).unwrap();
        let slow = crate::reference::ssim_with(&a, &b, config).unwrap();
        assert!((fast - slow).abs() <= 1e-12);
    }

    #[test]
    fn ssim_reference_state_matches_ssim_with_bitwise() {
        // The persistent per-reference state splits the five window sums into a
        // reference part (precomputed once) and a distorted part (per score),
        // changing no operation order — so scores must be *bitwise* identical to
        // ssim_with, across sizes, configs, and many candidates per reference.
        use crate::synth::{render_scene, SceneSpec};
        let configs = [
            SsimConfig::default(),
            SsimConfig::dense(),
            SsimConfig { window: 16, stride: 3, ..Default::default() },
            SsimConfig { window: 64, stride: 1, ..Default::default() },
        ];
        for (w, h, seed) in [(48usize, 40usize, 0u64), (224, 224, 5), (331, 257, 9)] {
            let reference =
                render_scene(&SceneSpec::new(w, h, 3).with_seed(seed).with_detail(0.8)).unwrap();
            for config in configs {
                let state = SsimReference::new(&reference, config).unwrap();
                assert_eq!(state.dimensions(), (w, h));
                // One state scores a whole sequence of candidates — the planner's
                // scan-prefix pattern.
                for candidate_seed in 0..4u64 {
                    let candidate =
                        render_scene(&SceneSpec::new(w, h, 5).with_seed(seed + candidate_seed))
                            .unwrap();
                    let fast = state.score(&candidate).unwrap();
                    let slow = ssim_with(&reference, &candidate, config).unwrap();
                    assert_eq!(
                        fast.to_bits(),
                        slow.to_bits(),
                        "{w}x{h} {config:?} candidate {candidate_seed}: {fast} vs {slow}"
                    );
                }
            }
        }
        // Identity and smaller-than-window cases agree too.
        let tiny_a = Image::filled(4, 4, [0.5; 3]).unwrap();
        let tiny_b = Image::filled(4, 4, [0.25; 3]).unwrap();
        let config = SsimConfig { window: 16, stride: 4, ..Default::default() };
        let state = SsimReference::new(&tiny_a, config).unwrap();
        assert_eq!(
            state.score(&tiny_b).unwrap().to_bits(),
            ssim_with(&tiny_a, &tiny_b, config).unwrap().to_bits()
        );
        assert_eq!(state.score(&tiny_a).unwrap(), 1.0);
    }

    #[test]
    fn ssim_reference_state_rejects_bad_inputs() {
        let img = test_image(8);
        assert!(SsimReference::new(&img, SsimConfig { window: 0, ..Default::default() }).is_err());
        assert!(SsimReference::new(&img, SsimConfig { stride: 0, ..Default::default() }).is_err());
        let state = SsimReference::new(&img, SsimConfig::default()).unwrap();
        let other = Image::zeros(3, 3).unwrap();
        assert!(state.score(&other).is_err());
    }

    #[test]
    fn quality_metric_enum_dispatch() {
        let img = test_image(7);
        let noisy = add_noise(&img, 0.2);
        let s = QualityMetric::Ssim.evaluate(&img, &noisy).unwrap();
        let p = QualityMetric::Psnr.evaluate(&img, &noisy).unwrap();
        assert!((0.0..=1.0).contains(&s));
        assert!((0.0..=1.0).contains(&p));
        let perfect = QualityMetric::Psnr.evaluate(&img, &img).unwrap();
        assert_eq!(perfect, 1.0);
    }
}
