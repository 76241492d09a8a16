//! Reference implementations of the imaging hot paths, kept as parity oracles.
//!
//! PR 3 rewrote [`ssim_with`](crate::ssim_with) on integral images and
//! [`resize`](crate::resize) as a separable two-pass transform with cached axis plans.
//! The pre-rewrite implementations live here verbatim so that the parity tests can
//! pin the fast paths against them (`resize` bitwise; `ssim_with` to ≤ 1e-12, see
//! the tolerance note on [`ssim_with`]).
//!
//! Production code must not call these; they are deliberately the slow versions.

use crate::error::{ImagingError, Result};
use crate::image::Image;
use crate::metrics::SsimConfig;
use crate::resize::Filter;

/// The original windowed SSIM: accumulates the five window sums with a fresh O(window²)
/// row-major loop per window. Semantics identical to [`crate::ssim_with`] up to the
/// association order of the window sums.
///
/// # Errors
/// Same contract as [`crate::ssim_with`].
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

    let mut total = 0.0;
    let mut count = 0usize;
    let mut y0 = 0;
    while y0 + win <= h {
        let mut x0 = 0;
        while x0 + win <= w {
            let mut sum_x = 0.0f64;
            let mut sum_y = 0.0f64;
            let mut sum_xx = 0.0f64;
            let mut sum_yy = 0.0f64;
            let mut sum_xy = 0.0f64;
            for dy in 0..win {
                let row = (y0 + dy) * w + x0;
                for dx in 0..win {
                    let a = lx[row + dx] as f64;
                    let b = ly[row + dx] as f64;
                    sum_x += a;
                    sum_y += b;
                    sum_xx += a * a;
                    sum_yy += b * b;
                    sum_xy += a * b;
                }
            }
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
            return Ok(1.0);
        }
        return ssim_with(reference, distorted, shrunk);
    }
    Ok((total / count as f64).clamp(-1.0, 1.0))
}

/// The original single-pass resize: recomputes the horizontal sample positions and
/// weights for every output row. Bitwise identical to [`crate::resize`].
///
/// # Errors
/// Same contract as [`crate::resize`].
pub fn resize(
    image: &Image,
    target_width: usize,
    target_height: usize,
    filter: Filter,
) -> Result<Image> {
    if target_width == 0 || target_height == 0 {
        return Err(ImagingError::InvalidResize { width: target_width, height: target_height });
    }
    if (target_width, target_height) == image.dimensions() {
        return Ok(image.clone());
    }
    let mut out = Image::zeros(target_width, target_height)?;
    let (sw, sh) = (image.width() as f32, image.height() as f32);
    let x_ratio = sw / target_width as f32;
    let y_ratio = sh / target_height as f32;

    match filter {
        Filter::Nearest => {
            for y in 0..target_height {
                let sy = ((y as f32 + 0.5) * y_ratio).floor().clamp(0.0, sh - 1.0) as usize;
                for x in 0..target_width {
                    let sx = ((x as f32 + 0.5) * x_ratio).floor().clamp(0.0, sw - 1.0) as usize;
                    out.set_pixel(x, y, image.pixel(sx, sy));
                }
            }
        }
        Filter::Bilinear => {
            for y in 0..target_height {
                // Align sample centres (the "half-pixel centres" convention).
                let fy = ((y as f32 + 0.5) * y_ratio - 0.5).clamp(0.0, sh - 1.0);
                let y0 = fy.floor() as usize;
                let y1 = (y0 + 1).min(image.height() - 1);
                let wy = fy - y0 as f32;
                for x in 0..target_width {
                    let fx = ((x as f32 + 0.5) * x_ratio - 0.5).clamp(0.0, sw - 1.0);
                    let x0 = fx.floor() as usize;
                    let x1 = (x0 + 1).min(image.width() - 1);
                    let wx = fx - x0 as f32;
                    let p00 = image.pixel(x0, y0);
                    let p10 = image.pixel(x1, y0);
                    let p01 = image.pixel(x0, y1);
                    let p11 = image.pixel(x1, y1);
                    let mut rgb = [0.0f32; 3];
                    for (c, v) in rgb.iter_mut().enumerate() {
                        let top = p00[c] * (1.0 - wx) + p10[c] * wx;
                        let bottom = p01[c] * (1.0 - wx) + p11[c] * wx;
                        *v = top * (1.0 - wy) + bottom * wy;
                    }
                    out.set_pixel(x, y, rgb);
                }
            }
        }
    }
    Ok(out)
}
