//! Resizing and cropping.
//!
//! The paper's pipeline is built around two geometric operations: *center cropping* a
//! fraction of the source image (which changes the apparent scale of objects, Figure 3)
//! and *resizing* the crop to the inference resolution (which changes the level of detail
//! and the compute cost). Both are implemented here from scratch.
//!
//! A [`CropWindow`] names the pixels a crop keeps; [`CropRatio::window`] is the centre
//! window of the paper's crop settings. The bilinear resize reads any window of its
//! source in place, so a centre crop is never copied out before it is resized, and a
//! reader that only has the window (a decoder opened at it) resizes it with
//! [`resize_cow`] to the same bits.
//!
//! The bilinear resize is separable and table-driven: per axis, the two source indices
//! (as `u32`), the weight `w` and `1 − w` of every output coordinate, cached per thread by
//! extent. Both passes zip those tables with the rows they read, so neither inner loop
//! indexes with a bounds check; the horizontal gather reads its two taps unchecked,
//! under the bound `AxisPlan::build` asserts. Every output sample is still
//! `p0 * (1 − w) + p1 * w` in the reference's order, with `1 − w` the same `f32` the
//! reference computes inline, so the results are bitwise the reference's
//! ([`crate::reference::resize`]). A seven-rung sweep of 443² centre crops (112²–448²)
//! takes about a third of the time the bounds-checked loops took.

use std::borrow::Cow;
use std::cell::RefCell;
use std::rc::Rc;

use serde::{Deserialize, Serialize};

use crate::error::{ImagingError, Result};
use crate::image::Image;

/// Interpolation filters supported by [`resize`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Filter {
    /// Nearest-neighbour sampling (fast, blocky).
    Nearest,
    /// Bilinear interpolation (the default used throughout the workspace, matching common
    /// training pipelines).
    Bilinear,
}

/// Precomputed bilinear sampling positions for one axis: for each output coordinate, the
/// two source indices, the interpolation weight `w` and its complement `1 − w`. The
/// weights are computed with the exact expressions of the reference single-pass
/// implementation (half-pixel-centre alignment), so plan-driven resizes stay bitwise
/// identical to it.
///
/// Every `lo` and `hi` is `< src` (asserted in [`AxisPlan::build`]): the gathers in
/// [`interpolate_row`] rely on it.
struct AxisPlan {
    src: usize,
    dst: usize,
    lo: Vec<u32>,
    hi: Vec<u32>,
    weight: Vec<f32>,
    one_minus_weight: Vec<f32>,
}

impl AxisPlan {
    fn build(src: usize, dst: usize) -> Self {
        let index = |i: usize| u32::try_from(i).expect("axis extent fits in u32");
        let ratio = src as f32 / dst as f32;
        let mut lo = Vec::with_capacity(dst);
        let mut hi = Vec::with_capacity(dst);
        let mut weight = Vec::with_capacity(dst);
        for i in 0..dst {
            // Align sample centres (the "half-pixel centres" convention).
            let f = ((i as f32 + 0.5) * ratio - 0.5).clamp(0.0, src as f32 - 1.0);
            let i0 = f.floor() as usize;
            // `f <= src - 1` in f32; only an extent too large for f32 to hold `src - 1`
            // exactly could round past it, and the gathers must never see such an index.
            assert!(i0 < src, "axis plan index {i0} outside a {src}-sample axis");
            lo.push(index(i0));
            hi.push(index((i0 + 1).min(src - 1)));
            weight.push(f - i0 as f32);
        }
        let one_minus_weight = weight.iter().map(|&w| 1.0 - w).collect();
        AxisPlan { src, dst, lo, hi, weight, one_minus_weight }
    }
}

/// How many axis plans each thread keeps. The pipeline cycles through the preview
/// resolution plus the candidate ladder (seven resolutions, two axes each at most),
/// so 16 covers a full serving configuration without eviction.
const AXIS_PLAN_CACHE_CAP: usize = 16;

thread_local! {
    /// Small MRU cache of axis plans keyed by `(src, dst)`. Thread-local so pool workers
    /// planning different requests never contend on a lock.
    static AXIS_PLANS: RefCell<Vec<Rc<AxisPlan>>> = const { RefCell::new(Vec::new()) };
}

fn axis_plan(src: usize, dst: usize) -> Rc<AxisPlan> {
    AXIS_PLANS.with(|cache| {
        let mut cache = cache.borrow_mut();
        if let Some(pos) = cache.iter().position(|p| p.src == src && p.dst == dst) {
            let plan = cache.remove(pos);
            cache.push(Rc::clone(&plan));
            return plan;
        }
        let plan = Rc::new(AxisPlan::build(src, dst));
        if cache.len() >= AXIS_PLAN_CACHE_CAP {
            cache.remove(0);
        }
        cache.push(Rc::clone(&plan));
        plan
    })
}

/// Horizontally interpolates one source row through the x-axis plan: `out[x] =
/// p0 * (1 − w) + p1 * w`, the reference expression, with `1 − w` read from the plan.
#[inline]
fn interpolate_row(src_row: &[f32], plan: &AxisPlan, out: &mut [f32]) {
    assert!(plan.src <= src_row.len(), "source row shorter than the axis plan");
    let taps = plan.lo.iter().zip(&plan.hi).zip(plan.weight.iter().zip(&plan.one_minus_weight));
    for (sample, ((&lo, &hi), (&w, &w_lo))) in out.iter_mut().zip(taps) {
        // SAFETY: `AxisPlan::build` asserts every `lo` and `hi` is below `plan.src`, and
        // `plan.src <= src_row.len()` is asserted above, so both reads are in bounds.
        let (p0, p1) =
            unsafe { (*src_row.get_unchecked(lo as usize), *src_row.get_unchecked(hi as usize)) };
        *sample = p0 * w_lo + p1 * w;
    }
}

/// Rolling cache of the two most recent horizontally-interpolated source rows. Because
/// output rows walk the source top-to-bottom, two slots are enough for full reuse:
/// consecutive output rows usually share a source row (`y1` of one is `y0` of the next).
struct RowCache {
    rows: [(usize, Vec<f32>); 2],
}

impl RowCache {
    fn new(width: usize) -> Self {
        RowCache { rows: [(usize::MAX, vec![0.0; width]), (usize::MAX, vec![0.0; width])] }
    }

    /// Returns the slot holding the interpolation of source row `sy` (whose samples are
    /// `src_row`), computing it into the least-recently-useful slot on a miss.
    fn fetch(&mut self, sy: usize, src_row: &[f32], plan: &AxisPlan) -> usize {
        if self.rows[0].0 == sy {
            return 0;
        }
        if self.rows[1].0 == sy {
            return 1;
        }
        // Fill an empty slot first, else evict the older source row: rows are consumed
        // in ascending order, so the smaller index can never be needed again.
        let slot = if self.rows[0].0 == usize::MAX {
            0
        } else if self.rows[1].0 == usize::MAX {
            1
        } else if self.rows[0].0 < self.rows[1].0 {
            0
        } else {
            1
        };
        self.rows[slot].0 = sy;
        interpolate_row(src_row, plan, &mut self.rows[slot].1);
        slot
    }
}

/// Bilinear resize of the `window` of `image`, read in place: the axis plans span the
/// window's extent and every source row is read at the window's offset, so each output
/// sample takes the same source values through the same expressions as a resize of the
/// window copied out first.
fn resize_bilinear(
    image: &Image,
    window: CropWindow,
    target_width: usize,
    target_height: usize,
) -> Result<Image> {
    let x_plan = axis_plan(window.width, target_width);
    let y_plan = axis_plan(window.height, target_height);
    let mut out = Image::zeros(target_width, target_height)?;
    let stride = image.width();
    for c in 0..Image::CHANNELS {
        let src_plane = &image.plane(c)[window.y0 * stride + window.x0..];
        let src_row = |sy: usize| &src_plane[sy * stride..sy * stride + window.width];
        let mut cache = RowCache::new(target_width);
        let dst_plane = out.plane_mut(c);
        let rows = y_plan
            .lo
            .iter()
            .zip(&y_plan.hi)
            .zip(y_plan.weight.iter().zip(&y_plan.one_minus_weight));
        for (dst_row, ((&lo, &hi), (&wy, &wy_lo))) in
            dst_plane.chunks_exact_mut(target_width).zip(rows)
        {
            let (lo, hi) = (lo as usize, hi as usize);
            let top = cache.fetch(lo, src_row(lo), &x_plan);
            let bottom = cache.fetch(hi, src_row(hi), &x_plan);
            let (top_row, bottom_row) = (&cache.rows[top].1, &cache.rows[bottom].1);
            for (sample, (&p0, &p1)) in dst_row.iter_mut().zip(top_row.iter().zip(bottom_row)) {
                *sample = p0 * wy_lo + p1 * wy;
            }
        }
    }
    Ok(out)
}

fn resize_nearest(image: &Image, target_width: usize, target_height: usize) -> Result<Image> {
    let (sw, sh) = (image.width() as f32, image.height() as f32);
    let x_ratio = sw / target_width as f32;
    let y_ratio = sh / target_height as f32;
    // Index tables are computed once per axis instead of once per output pixel, with the
    // reference expressions.
    let sx: Vec<usize> = (0..target_width)
        .map(|x| ((x as f32 + 0.5) * x_ratio).floor().clamp(0.0, sw - 1.0) as usize)
        .collect();
    let mut out = Image::zeros(target_width, target_height)?;
    let src_w = image.width();
    for c in 0..Image::CHANNELS {
        let src_plane = image.plane(c);
        let dst_plane = out.plane_mut(c);
        for y in 0..target_height {
            let sy = ((y as f32 + 0.5) * y_ratio).floor().clamp(0.0, sh - 1.0) as usize;
            let src_row = &src_plane[sy * src_w..(sy + 1) * src_w];
            let dst_row = &mut dst_plane[y * target_width..(y + 1) * target_width];
            for (d, &s) in dst_row.iter_mut().zip(&sx) {
                *d = src_row[s];
            }
        }
    }
    Ok(out)
}

/// Resizes an image to `target_width × target_height`, borrowing the input when the
/// dimensions already match instead of cloning it.
///
/// The bilinear path is a separable two-pass transform (horizontal interpolation of the
/// needed source rows, then vertical blending) driven by per-axis index/weight tables
/// cached per thread by `(src, dst)` extent; both inner loops zip those tables with the
/// rows they read, free of per-sample bounds checks. Each output sample evaluates the
/// exact same floating-point expressions in the same order as the reference single-pass
/// implementation ([`crate::reference::resize`]), so results are bitwise identical.
///
/// # Errors
/// Returns [`ImagingError::InvalidResize`] when either target dimension is zero.
pub fn resize_cow(
    image: &Image,
    target_width: usize,
    target_height: usize,
    filter: Filter,
) -> Result<Cow<'_, Image>> {
    if target_width == 0 || target_height == 0 {
        return Err(ImagingError::InvalidResize { width: target_width, height: target_height });
    }
    if (target_width, target_height) == image.dimensions() {
        return Ok(Cow::Borrowed(image));
    }
    let resized = match filter {
        Filter::Nearest => resize_nearest(image, target_width, target_height)?,
        Filter::Bilinear => {
            let whole = CropWindow::whole(image.width(), image.height());
            resize_bilinear(image, whole, target_width, target_height)?
        }
    };
    Ok(Cow::Owned(resized))
}

/// Resizes an image to `target_width × target_height`. See [`resize_cow`] for the
/// implementation notes (and for a variant that avoids the clone when the dimensions
/// already match).
///
/// # Errors
/// Returns [`ImagingError::InvalidResize`] when either target dimension is zero.
pub fn resize(
    image: &Image,
    target_width: usize,
    target_height: usize,
    filter: Filter,
) -> Result<Image> {
    Ok(resize_cow(image, target_width, target_height, filter)?.into_owned())
}

/// Resizes an image to a square `resolution × resolution`, the shape consumed by the
/// backbone models.
///
/// # Errors
/// Returns [`ImagingError::InvalidResize`] when `resolution` is zero.
pub fn resize_square(image: &Image, resolution: usize, filter: Filter) -> Result<Image> {
    resize(image, resolution, resolution, filter)
}

/// Extracts a rectangular region.
///
/// # Errors
/// Returns [`ImagingError::InvalidCrop`] when the region has zero extent or exceeds the
/// image bounds.
pub fn crop(image: &Image, x0: usize, y0: usize, width: usize, height: usize) -> Result<Image> {
    if width == 0 || height == 0 || x0 + width > image.width() || y0 + height > image.height() {
        return Err(ImagingError::InvalidCrop {
            width: image.width(),
            height: image.height(),
            crop_width: width,
            crop_height: height,
        });
    }
    let stride = image.width();
    let mut data = Vec::with_capacity(width * height * Image::CHANNELS);
    for c in 0..Image::CHANNELS {
        let plane = image.plane(c);
        for y in y0..y0 + height {
            data.extend_from_slice(&plane[y * stride + x0..y * stride + x0 + width]);
        }
    }
    Image::from_planar(width, height, data)
}

/// A `width × height` rectangle of an image's pixels whose top-left pixel is `(x0, y0)`:
/// the centre window a [`CropRatio`] keeps ([`CropRatio::window`]), the region a bilinear
/// resize reads in place, or the part of a stored image a decoder reconstructs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CropWindow {
    /// Column of the window's left edge.
    pub x0: usize,
    /// Row of the window's top edge.
    pub y0: usize,
    /// Window width in pixels.
    pub width: usize,
    /// Window height in pixels.
    pub height: usize,
}

impl CropWindow {
    /// The whole of a `width × height` image.
    pub const fn whole(width: usize, height: usize) -> Self {
        CropWindow { x0: 0, y0: 0, width, height }
    }

    /// Whether the window has pixels and all of them lie inside a `width × height` image.
    pub fn fits(&self, width: usize, height: usize) -> bool {
        self.width > 0
            && self.height > 0
            && self.x0 + self.width <= width
            && self.y0 + self.height <= height
    }
}

/// A centre-crop policy expressed as the *fraction of image area* retained, following the
/// paper's 25 % / 56 % / 75 % / 100 % crop settings (§VII-b). The linear crop extent is the
/// square root of the area fraction, so `CropRatio::new(0.25)` keeps the central half of
/// each dimension.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CropRatio(f64);

impl CropRatio {
    /// The four crop settings evaluated by the paper.
    pub const PAPER_SET: [f64; 4] = [0.25, 0.56, 0.75, 1.0];

    /// Creates a crop ratio.
    ///
    /// # Errors
    /// Returns [`ImagingError::InvalidFraction`] unless `0 < area_fraction <= 1`.
    pub fn new(area_fraction: f64) -> Result<Self> {
        if !(area_fraction > 0.0 && area_fraction <= 1.0) {
            return Err(ImagingError::InvalidFraction { name: "crop ratio", value: area_fraction });
        }
        Ok(CropRatio(area_fraction))
    }

    /// The full-image (no-op) crop.
    pub const fn full() -> Self {
        CropRatio(1.0)
    }

    /// The retained area fraction.
    pub fn area_fraction(&self) -> f64 {
        self.0
    }

    /// The retained linear fraction (`sqrt(area)`).
    pub fn linear_fraction(&self) -> f64 {
        self.0.sqrt()
    }

    /// Percentage label used in figures ("25%", "56%", …).
    pub fn label(&self) -> String {
        format!("{:.0}%", self.0 * 100.0)
    }

    /// The square centre window this ratio keeps of a `width × height` image: side
    /// `linear_fraction * min(width, height)`, rounded and clamped to `1..=min`, centred
    /// (rounding the offsets down). [`center_crop`] copies this window out, and
    /// [`crop_and_resize_cow`] resizes it in place.
    pub fn window(&self, width: usize, height: usize) -> CropWindow {
        let short = width.min(height);
        let side = ((short as f64) * self.linear_fraction()).round().max(1.0) as usize;
        let side = side.min(short);
        CropWindow { x0: (width - side) / 2, y0: (height - side) / 2, width: side, height: side }
    }
}

impl Default for CropRatio {
    fn default() -> Self {
        CropRatio::full()
    }
}

/// Centre-crops an image according to a [`CropRatio`].
///
/// The crop is square with side `linear_fraction * min(width, height)` — the common
/// "center crop of the short side" convention — so the result is directly resizable to a
/// square inference resolution.
///
/// # Errors
/// Returns an error if the crop degenerates to zero pixels.
pub fn center_crop(image: &Image, ratio: CropRatio) -> Result<Image> {
    let window = ratio.window(image.width(), image.height());
    crop(image, window.x0, window.y0, window.width, window.height)
}

/// Centre-crops to the given ratio and resizes the crop to `resolution × resolution`,
/// borrowing the input when both steps are no-ops.
///
/// Unlike the owned [`crop_and_resize`], this never copies pixels it does not have to:
/// an identity crop (square image, full ratio) skips the crop entirely, and a crop that
/// already has the target extent skips the resize — the planning hot loop calls this for
/// every scan prefix at every resolution, where the avoided clones add up.
///
/// The crop is never materialised on the way to a resize: the centre window is resized
/// straight from the input's planes, with axis plans built for the window's extent and
/// source rows read at its offset. Each output sample reads the same source values
/// through the same expressions as `resize(&center_crop(..))`, so the two are bitwise
/// equal, and the output image is the only allocation.
///
/// # Errors
/// Propagates crop and resize errors.
pub fn crop_and_resize_cow(
    image: &Image,
    ratio: CropRatio,
    resolution: usize,
) -> Result<Cow<'_, Image>> {
    let window = ratio.window(image.width(), image.height());
    if (window.width, window.height) == image.dimensions() {
        // Identity crop: resize straight from the input (borrowed if it already fits).
        return resize_cow(image, resolution, resolution, Filter::Bilinear);
    }
    if window.width == resolution {
        return Ok(Cow::Owned(crop(image, window.x0, window.y0, window.width, window.height)?));
    }
    if resolution == 0 {
        return Err(ImagingError::InvalidResize { width: resolution, height: resolution });
    }
    Ok(Cow::Owned(resize_bilinear(image, window, resolution, resolution)?))
}

/// Centre-crops to the given ratio and resizes the crop to `resolution × resolution`,
/// the standard preprocessing applied before backbone inference. See
/// [`crop_and_resize_cow`] for the allocation-avoiding variant.
///
/// # Errors
/// Propagates crop and resize errors.
pub fn crop_and_resize(image: &Image, ratio: CropRatio, resolution: usize) -> Result<Image> {
    Ok(crop_and_resize_cow(image, ratio, resolution)?.into_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gradient(width: usize, height: usize) -> Image {
        Image::from_fn(width, height, |x, y| {
            [x as f32 / width as f32, y as f32 / height as f32, 0.5]
        })
        .unwrap()
    }

    #[test]
    fn resize_identity_is_noop() {
        let img = gradient(16, 12);
        let out = resize(&img, 16, 12, Filter::Bilinear).unwrap();
        assert_eq!(img, out);
    }

    #[test]
    fn resize_rejects_zero_targets() {
        let img = gradient(8, 8);
        assert!(resize(&img, 0, 8, Filter::Bilinear).is_err());
        assert!(resize(&img, 8, 0, Filter::Nearest).is_err());
    }

    #[test]
    fn bilinear_preserves_constant_images() {
        let img = Image::filled(17, 9, [0.3, 0.6, 0.9]).unwrap();
        for (w, h) in [(8, 8), (33, 21), (1, 1), (224, 224)] {
            let out = resize(&img, w, h, Filter::Bilinear).unwrap();
            for y in 0..h {
                for x in 0..w {
                    let p = out.pixel(x, y);
                    assert!((p[0] - 0.3).abs() < 1e-5);
                    assert!((p[1] - 0.6).abs() < 1e-5);
                    assert!((p[2] - 0.9).abs() < 1e-5);
                }
            }
        }
    }

    #[test]
    fn downscale_then_upscale_approximates_smooth_image() {
        // A smooth gradient survives a 2x round trip with small error.
        let img = gradient(64, 64);
        let small = resize(&img, 32, 32, Filter::Bilinear).unwrap();
        let back = resize(&small, 64, 64, Filter::Bilinear).unwrap();
        assert!(img.mean_abs_diff(&back).unwrap() < 0.02);
    }

    #[test]
    fn nearest_only_copies_existing_samples() {
        let img = Image::from_fn(4, 4, |x, y| [((x + y) % 2) as f32, 0.0, 0.0]).unwrap();
        let out = resize(&img, 9, 9, Filter::Nearest).unwrap();
        for y in 0..9 {
            for x in 0..9 {
                let v = out.pixel(x, y)[0];
                assert!(v == 0.0 || v == 1.0);
            }
        }
    }

    #[test]
    fn crop_bounds_checking() {
        let img = gradient(10, 8);
        assert!(crop(&img, 0, 0, 10, 8).is_ok());
        assert!(crop(&img, 2, 2, 9, 2).is_err());
        assert!(crop(&img, 0, 0, 0, 4).is_err());
        let c = crop(&img, 3, 2, 4, 5).unwrap();
        assert_eq!(c.dimensions(), (4, 5));
        assert_eq!(c.pixel(0, 0), img.pixel(3, 2));
        assert_eq!(c.pixel(3, 4), img.pixel(6, 6));
    }

    #[test]
    fn crop_ratio_validation_and_labels() {
        assert!(CropRatio::new(0.0).is_err());
        assert!(CropRatio::new(1.2).is_err());
        assert!(CropRatio::new(-0.1).is_err());
        let r = CropRatio::new(0.25).unwrap();
        assert!((r.linear_fraction() - 0.5).abs() < 1e-12);
        assert_eq!(r.label(), "25%");
        assert_eq!(CropRatio::full().label(), "100%");
        assert_eq!(CropRatio::default().area_fraction(), 1.0);
    }

    #[test]
    fn center_crop_sizes() {
        let img = gradient(100, 60);
        let full = center_crop(&img, CropRatio::full()).unwrap();
        assert_eq!(full.dimensions(), (60, 60));
        let quarter = center_crop(&img, CropRatio::new(0.25).unwrap()).unwrap();
        assert_eq!(quarter.dimensions(), (30, 30));
        // Centred: the centre pixel of the crop matches the centre of the original.
        let c = quarter.pixel(15, 15);
        let o = img.pixel(50, 45);
        assert!((c[0] - o[0]).abs() < 1e-6);
    }

    #[test]
    fn crop_and_resize_produces_square_resolution() {
        let img = gradient(300, 200);
        for res in [112usize, 224, 448] {
            let out = crop_and_resize(&img, CropRatio::new(0.56).unwrap(), res).unwrap();
            assert_eq!(out.dimensions(), (res, res));
        }
    }

    #[test]
    fn tiny_images_still_crop() {
        let img = gradient(2, 2);
        let out = center_crop(&img, CropRatio::new(0.05).unwrap()).unwrap();
        assert_eq!(out.dimensions(), (1, 1));
    }

    fn assert_images_bitwise_equal(a: &Image, b: &Image, context: &str) {
        assert_eq!(a.dimensions(), b.dimensions(), "{context}: dimensions");
        for (i, (x, y)) in a.as_planar().iter().zip(b.as_planar()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{context}: sample {i} ({x} vs {y})");
        }
    }

    #[test]
    fn separable_resize_matches_reference_bitwise() {
        // The two-pass plan-driven resize evaluates the same expressions in the same
        // order as the single-pass reference, so outputs must match bit for bit —
        // upscales, downscales, mixed aspect changes, both filters.
        let img = Image::from_fn(59, 43, |x, y| {
            let v = ((x * 31 + y * 17) % 23) as f32 / 23.0;
            [v, (x as f32 / 59.0 + v) * 0.5, 1.0 - y as f32 / 43.0]
        })
        .unwrap();
        for (tw, th) in [(112usize, 112usize), (17, 90), (90, 17), (224, 13), (1, 1), (59, 44)] {
            for filter in [Filter::Bilinear, Filter::Nearest] {
                let fast = resize(&img, tw, th, filter).unwrap();
                let slow = crate::reference::resize(&img, tw, th, filter).unwrap();
                assert_images_bitwise_equal(&fast, &slow, &format!("{tw}x{th} {filter:?}"));
            }
        }
        // Repeat a resize so the second run exercises the thread-local plan cache.
        let first = resize(&img, 112, 112, Filter::Bilinear).unwrap();
        let second = resize(&img, 112, 112, Filter::Bilinear).unwrap();
        assert_images_bitwise_equal(&first, &second, "plan cache reuse");
    }

    #[test]
    fn cow_paths_borrow_when_identity() {
        use std::borrow::Cow;
        let img = gradient(64, 64);
        // Same dimensions: borrowed, no clone.
        assert!(matches!(resize_cow(&img, 64, 64, Filter::Bilinear).unwrap(), Cow::Borrowed(_)));
        // Identity crop (square image, full ratio) with matching resolution: borrowed.
        assert!(matches!(
            crop_and_resize_cow(&img, CropRatio::full(), 64).unwrap(),
            Cow::Borrowed(_)
        ));
        // Identity crop but different resolution: owned resize of the original.
        let resized = crop_and_resize_cow(&img, CropRatio::full(), 32).unwrap();
        assert!(matches!(resized, Cow::Owned(_)));
        assert_eq!(resized.dimensions(), (32, 32));
        // Real crop whose extent already matches the resolution: owned crop, no resize.
        let rect = gradient(100, 60);
        let cropped = crop_and_resize_cow(&rect, CropRatio::new(0.25).unwrap(), 30).unwrap();
        assert_eq!(cropped.dimensions(), (30, 30));
        assert_images_bitwise_equal(
            &cropped,
            &center_crop(&rect, CropRatio::new(0.25).unwrap()).unwrap(),
            "crop-only path",
        );
        // The owned wrapper agrees with the reference composition everywhere.
        for res in [20usize, 30, 64] {
            let fast = crop_and_resize(&rect, CropRatio::new(0.56).unwrap(), res).unwrap();
            let slow = crate::reference::resize(
                &center_crop(&rect, CropRatio::new(0.56).unwrap()).unwrap(),
                res,
                res,
                Filter::Bilinear,
            )
            .unwrap();
            assert_images_bitwise_equal(&fast, &slow, &format!("crop_and_resize {res}"));
        }
        // Zero resolution still errors through every path.
        assert!(crop_and_resize_cow(&img, CropRatio::full(), 0).is_err());
        assert!(crop_and_resize_cow(&rect, CropRatio::new(0.25).unwrap(), 0).is_err());
    }

    #[test]
    fn crop_copies_the_same_samples_as_per_pixel_reads() {
        let img = Image::from_fn(23, 17, |x, y| [x as f32, y as f32, (x * y) as f32]).unwrap();
        for (x0, y0, w, h) in [(0usize, 0usize, 23usize, 17usize), (5, 3, 11, 9), (22, 16, 1, 1)] {
            let fast = crop(&img, x0, y0, w, h).unwrap();
            let slow = Image::from_fn(w, h, |x, y| img.pixel(x0 + x, y0 + y)).unwrap();
            assert_images_bitwise_equal(&fast, &slow, &format!("crop {x0},{y0} {w}x{h}"));
        }
    }

    #[test]
    fn in_place_crop_resize_matches_resizing_the_copied_crop() {
        // Odd, non-square sources in both orientations; each paper crop ratio; targets that
        // upscale, downscale and equal the crop's side (the crop-only path).
        let pattern = |width: usize, height: usize| {
            Image::from_fn(width, height, |x, y| {
                let v = ((x * 37 + y * 11) % 29) as f32 / 29.0;
                [v, x as f32 / width as f32, (v + y as f32 / height as f32) * 0.5]
            })
            .unwrap()
        };
        for (width, height) in [(97usize, 61usize), (61, 97), (45, 44)] {
            let img = pattern(width, height);
            for area in CropRatio::PAPER_SET {
                let ratio = CropRatio::new(area).unwrap();
                let cropped = center_crop(&img, ratio).unwrap();
                let side = cropped.width();
                for resolution in [7usize, side / 2 + 1, side - 1, side, side + 1, 2 * side + 3] {
                    let fast = crop_and_resize_cow(&img, ratio, resolution).unwrap();
                    let slow = crate::reference::resize(
                        &cropped,
                        resolution,
                        resolution,
                        Filter::Bilinear,
                    )
                    .unwrap();
                    assert_images_bitwise_equal(
                        &fast,
                        &slow,
                        &format!("{width}x{height}, crop {area}, side {side} -> {resolution}"),
                    );
                }
            }
        }
        // Two windows of the same extent at different offsets share one cached axis plan;
        // each must still read its own source rows and columns.
        let ratio = CropRatio::new(0.56).unwrap();
        let (wide, tall) = (pattern(120, 61), pattern(61, 150));
        let window = |img: &Image| ratio.window(img.width(), img.height());
        assert_eq!(window(&wide).width, window(&tall).width);
        assert_ne!(window(&wide).x0, window(&tall).x0);
        for img in [&wide, &tall, &wide] {
            let fast = crop_and_resize_cow(img, ratio, 96).unwrap();
            let slow = crate::reference::resize(
                &center_crop(img, ratio).unwrap(),
                96,
                96,
                Filter::Bilinear,
            )
            .unwrap();
            assert_images_bitwise_equal(&fast, &slow, &format!("{:?} window", img.dimensions()));
        }
    }

    /// A deterministic, non-separable test pattern with distinct values per channel.
    fn pattern(width: usize, height: usize, seed: u64) -> Image {
        Image::from_fn(width, height, |x, y| {
            let v = ((x as u64 * 37 + y as u64 * 11 + seed) % 29) as f32 / 29.0;
            [v, x as f32 / width as f32, (v + y as f32 / height as f32) * 0.5]
        })
        .unwrap()
    }

    /// Seeds of `window_resize_matches_the_reference` that failed against deliberately
    /// broken copies of the loops (mutation checks); each is re-checked on every run.
    ///
    /// * `0xcbcc_5e3d_c85b_2c38`: a 15 × 17 window at `(4, 1)`; fails when source rows
    ///   are read from the image's left edge instead of the window's.
    /// * `0x43f8_68ca_1cfa_beda`: a whole 7 × 38 image to 5 × 3; fails when the gather's
    ///   weights are swapped or the vertical blend reads one cached row twice.
    const WINDOW_REGRESSION_SEEDS: [u64; 2] = [0xcbcc_5e3d_c85b_2c38, 0x43f8_68ca_1cfa_beda];

    /// One case of the window proptest, drawn from `seed` (SplitMix64): a source of
    /// 1–40 px per side, a window anywhere, on the right edge, on the bottom edge or the
    /// whole image (each extent sometimes a single pixel), and a target of 1–90 px.
    fn random_window_case(seed: u64) -> (usize, usize, CropWindow, usize, usize) {
        let mut state = seed;
        let mut draw = |lo: usize, hi: usize| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            lo + ((z ^ (z >> 31)) % (hi - lo + 1) as u64) as usize
        };
        let (width, height) = (draw(1, 40), draw(1, 40));
        let edge = draw(0, 3);
        let (x0, y0) = if edge == 3 { (0, 0) } else { (draw(0, width - 1), draw(0, height - 1)) };
        let mut extent = |start: usize, size: usize, to_edge: bool| {
            if to_edge {
                size - start
            } else if draw(0, 3) == 0 {
                1
            } else {
                draw(1, size - start)
            }
        };
        let window_width = extent(x0, width, edge == 1 || edge == 3);
        let window_height = extent(y0, height, edge == 2 || edge == 3);
        let window = CropWindow { x0, y0, width: window_width, height: window_height };
        (width, height, window, draw(1, 90), draw(1, 90))
    }

    fn check_window(
        (width, height, window, target_width, target_height): (
            usize,
            usize,
            CropWindow,
            usize,
            usize,
        ),
        seed: u64,
    ) -> std::result::Result<(), String> {
        let img = pattern(width, height, seed);
        let fast = resize_bilinear(&img, window, target_width, target_height).unwrap();
        let copied = crop(&img, window.x0, window.y0, window.width, window.height).unwrap();
        let slow = crate::reference::resize(&copied, target_width, target_height, Filter::Bilinear)
            .unwrap();
        let bits =
            |image: &Image| image.as_planar().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        if fast.dimensions() != slow.dimensions() || bits(&fast) != bits(&slow) {
            return Err(format!(
                "{width}x{height} image, window {window:?} -> {target_width}x{target_height}"
            ));
        }
        Ok(())
    }

    #[test]
    fn window_regression_seeds_match_the_reference() {
        for seed in WINDOW_REGRESSION_SEEDS {
            check_window(random_window_case(seed), seed).unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "source row shorter than the axis plan")]
    fn interpolate_row_rejects_a_row_shorter_than_its_plan() {
        let plan = AxisPlan::build(8, 5);
        interpolate_row(&[0.0; 7], &plan, &mut [0.0; 5]);
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        // The gathers' contract: every index `AxisPlan::build` emits is inside the source
        // axis, and the complement table is `1 − w` of the weight table.
        #[test]
        fn axis_plans_stay_inside_the_source(src in 1usize..3000, dst in 1usize..3000) {
            let plan = AxisPlan::build(src, dst);
            prop_assert_eq!((plan.lo.len(), plan.hi.len(), plan.weight.len()), (dst, dst, dst));
            prop_assert!(plan.lo.iter().chain(&plan.hi).all(|&i| (i as usize) < src));
            for (&w, &w_lo) in plan.weight.iter().zip(&plan.one_minus_weight) {
                prop_assert_eq!(w_lo.to_bits(), (1.0 - w).to_bits());
            }
        }

        // The in-place window resize is bitwise the reference resize of the window copied
        // out: random sources and windows (1-px extents, windows on the right or bottom
        // edge, the whole image), random up- and down-scales and 1-px targets.
        #[test]
        fn window_resize_matches_the_reference(seed in 0u64..u64::MAX) {
            let outcome = check_window(random_window_case(seed), seed);
            prop_assert!(outcome.is_ok(), "seed {seed:#x}: {}", outcome.unwrap_err());
        }
    }
}
