//! Procedural synthetic scene rendering.
//!
//! The paper evaluates on ImageNet and Stanford Cars, which we cannot ship. Instead we
//! render *synthetic scenes*: each image contains one foreground object of a controlled
//! apparent scale and texture-detail level, on a textured background. The controlled scale
//! is what makes the reproduction meaningful — the paper's central phenomena (crop size ⇄
//! object scale ⇄ best inference resolution, and detail ⇄ required image quality) are
//! functions of exactly these parameters.

use serde::{Deserialize, Serialize};

use crate::error::{ImagingError, Result};
use crate::image::Image;

/// Shape of the rendered foreground object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ObjectShape {
    /// A filled disc.
    Disc,
    /// An axis-aligned square.
    Square,
    /// A diamond (L1 ball).
    Diamond,
    /// A wide ellipse (2:1 aspect), loosely car-like.
    Ellipse,
}

impl ObjectShape {
    /// All shapes, indexable by class id.
    pub const ALL: [ObjectShape; 4] =
        [ObjectShape::Disc, ObjectShape::Square, ObjectShape::Diamond, ObjectShape::Ellipse];

    /// Signed membership test: returns `true` when the normalized offset `(dx, dy)` (in
    /// units of the object radius) lies inside the shape.
    fn contains(&self, dx: f64, dy: f64) -> bool {
        match self {
            ObjectShape::Disc => dx * dx + dy * dy <= 1.0,
            ObjectShape::Square => dx.abs() <= 0.9 && dy.abs() <= 0.9,
            ObjectShape::Diamond => dx.abs() + dy.abs() <= 1.2,
            ObjectShape::Ellipse => (dx / 1.15).powi(2) + (dy / 0.6).powi(2) <= 1.0,
        }
    }
}

/// Full description of a synthetic scene.
///
/// Rendering is deterministic in the spec (including `seed`), so datasets can be
/// regenerated on demand without storing pixels.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SceneSpec {
    /// Image width in pixels.
    pub width: usize,
    /// Image height in pixels.
    pub height: usize,
    /// Class identity; selects the object shape, hue, and texture phase.
    pub class_id: usize,
    /// Object diameter as a fraction of the image's short side, in `(0, 1]`.
    pub object_scale: f64,
    /// Object centre x as a fraction of width (0.5 = centred).
    pub center_x: f64,
    /// Object centre y as a fraction of height.
    pub center_y: f64,
    /// Texture-detail level in `[0, 1]`: 0 = flat colour, 1 = dense high-frequency texture.
    /// Fine-grained classes (Cars-like datasets) carry class-discriminative detail.
    pub detail_level: f64,
    /// Background clutter level in `[0, 1]`.
    pub background_complexity: f64,
    /// Deterministic rendering seed (varies lighting/phase across images of a class).
    pub seed: u64,
}

impl SceneSpec {
    /// Creates a centred scene with sensible defaults for the given canvas and class.
    pub fn new(width: usize, height: usize, class_id: usize) -> Self {
        SceneSpec {
            width,
            height,
            class_id,
            object_scale: 0.5,
            center_x: 0.5,
            center_y: 0.5,
            detail_level: 0.5,
            background_complexity: 0.3,
            seed: 0,
        }
    }

    /// Sets the object scale (fraction of the short side).
    pub fn with_object_scale(mut self, scale: f64) -> Self {
        self.object_scale = scale;
        self
    }

    /// Sets the texture-detail level.
    pub fn with_detail(mut self, detail: f64) -> Self {
        self.detail_level = detail;
        self
    }

    /// Sets the background complexity.
    pub fn with_background(mut self, complexity: f64) -> Self {
        self.background_complexity = complexity;
        self
    }

    /// Sets the rendering seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the object centre (fractions of width/height).
    pub fn with_center(mut self, cx: f64, cy: f64) -> Self {
        self.center_x = cx;
        self.center_y = cy;
        self
    }

    /// Validates the spec.
    ///
    /// # Errors
    /// Returns an error if the canvas is empty or any fraction is out of range.
    pub fn validate(&self) -> Result<()> {
        if self.width == 0 || self.height == 0 {
            return Err(ImagingError::EmptyImage);
        }
        if !(self.object_scale > 0.0 && self.object_scale <= 1.0) {
            return Err(ImagingError::InvalidFraction {
                name: "object_scale",
                value: self.object_scale,
            });
        }
        for (name, v) in [
            ("detail_level", self.detail_level),
            ("background_complexity", self.background_complexity),
            ("center_x", self.center_x),
            ("center_y", self.center_y),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(ImagingError::InvalidFraction { name, value: v });
            }
        }
        Ok(())
    }

    /// Object diameter in pixels on the rendered canvas.
    pub fn object_diameter_px(&self) -> f64 {
        self.object_scale * self.width.min(self.height) as f64
    }
}

/// Cheap deterministic hash → `[0, 1)` used for per-class and per-seed variation.
fn unit_hash(a: u64, b: u64) -> f64 {
    let mut x = a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.wrapping_mul(0xD1B5_4A32_D192_ED03);
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// HSV → RGB helper for class-dependent hues (s, v in `[0, 1]`).
fn hsv_to_rgb(h: f64, s: f64, v: f64) -> [f32; 3] {
    let h = (h.rem_euclid(1.0)) * 6.0;
    let i = h.floor() as i32 % 6;
    let f = h - h.floor();
    let p = v * (1.0 - s);
    let q = v * (1.0 - f * s);
    let t = v * (1.0 - (1.0 - f) * s);
    let (r, g, b) = match i {
        0 => (v, t, p),
        1 => (q, v, p),
        2 => (p, v, t),
        3 => (p, q, v),
        4 => (t, p, v),
        _ => (v, p, q),
    };
    [r as f32, g as f32, b as f32]
}

/// Renders a synthetic scene.
///
/// The image contains:
/// * a background made of a smooth colour gradient plus low-frequency clutter whose
///   amplitude follows `background_complexity`;
/// * one foreground object (shape, hue, and texture phase derived from `class_id`) of
///   diameter `object_scale × short_side`, carrying a high-frequency class-discriminative
///   texture whose spatial frequency and contrast follow `detail_level`.
///
/// # Errors
/// Returns an error if the spec fails validation.
pub fn render_scene(spec: &SceneSpec) -> Result<Image> {
    spec.validate()?;
    let class = spec.class_id as u64;
    let hue = unit_hash(class, 1);
    let hue_bg = unit_hash(class, 2) * 0.5 + 0.25;
    let phase = unit_hash(class, 3) * std::f64::consts::TAU;
    let light = 0.85 + 0.15 * unit_hash(spec.seed, 4);
    let shape = ObjectShape::ALL[(spec.class_id / 7) % ObjectShape::ALL.len()];

    let obj_rgb = hsv_to_rgb(hue, 0.65, 0.75 * light);
    let obj_rgb2 = hsv_to_rgb(hue + 0.13, 0.55, 0.45 * light);
    let bg_rgb = hsv_to_rgb(hue_bg, 0.25, 0.55);

    let radius = spec.object_diameter_px() / 2.0;
    let cx = spec.center_x * spec.width as f64;
    let cy = spec.center_y * spec.height as f64;

    // Texture frequency: measured in cycles across the object diameter. High detail means
    // the class-discriminative pattern only survives if enough pixels (and enough DCT
    // coefficients) are retained downstream.
    let cycles = 2.0 + 22.0 * spec.detail_level;
    let tex_freq = cycles * std::f64::consts::PI / radius.max(1.0);
    let bg_freq = 8.0 / spec.width.min(spec.height).max(1) as f64;
    let bg_amp = 0.25 * spec.background_complexity;
    let jitter_x = (unit_hash(spec.seed, 5) - 0.5) * radius * 0.1;
    let jitter_y = (unit_hash(spec.seed, 6) - 0.5) * radius * 0.1;

    // The first clutter field is a product of a per-column and a per-row term: evaluate each
    // once per column / row (the same expressions as in place) instead of once per pixel.
    let clutter_cols: Vec<f64> =
        (0..spec.width).map(|x| (x as f64 * bg_freq * 3.1 + phase).sin()).collect();
    let clutter_rows: Vec<f64> =
        (0..spec.height).map(|y| (y as f64 * bg_freq * 2.3).cos()).collect();
    let (orientation_cos, orientation_sin) = (phase.cos(), phase.sin());

    Image::from_fn(spec.width, spec.height, |x, y| {
        let xf = x as f64;
        let yf = y as f64;
        // Background: gradient + two sinusoidal clutter fields.
        let grad = 0.15 * (xf / spec.width as f64 - 0.5) + 0.1 * (yf / spec.height as f64 - 0.5);
        let clutter = bg_amp
            * (clutter_cols[x] * clutter_rows[y]
                + 0.5 * (xf * bg_freq * 7.7 + yf * bg_freq * 5.1).sin());
        let mut rgb = [
            (bg_rgb[0] as f64 + grad + clutter).clamp(0.0, 1.0) as f32,
            (bg_rgb[1] as f64 + grad + 0.8 * clutter).clamp(0.0, 1.0) as f32,
            (bg_rgb[2] as f64 + grad * 0.5 + 0.6 * clutter).clamp(0.0, 1.0) as f32,
        ];

        let dx = (xf - cx - jitter_x) / radius.max(1e-9);
        let dy = (yf - cy - jitter_y) / radius.max(1e-9);
        if shape.contains(dx, dy) {
            // Class-discriminative texture: oriented stripes + a radial ring pattern.
            let u = dx * orientation_cos + dy * orientation_sin;
            let r = (dx * dx + dy * dy).sqrt();
            let stripes = (u * tex_freq * radius + phase).sin();
            let rings = (r * tex_freq * radius * 0.5).cos();
            let tex = 0.5 + 0.5 * (0.7 * stripes + 0.3 * rings);
            let contrast = 0.25 + 0.6 * spec.detail_level;
            let edge = (1.0 - r).clamp(0.0, 1.0).powf(0.3);
            for c in 0..3 {
                let base = obj_rgb[c] as f64 * (1.0 - contrast * tex)
                    + obj_rgb2[c] as f64 * (contrast * tex);
                rgb[c] = (base * (0.6 + 0.4 * edge) * light).clamp(0.0, 1.0) as f32;
            }
        }
        rgb
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::ssim;
    use crate::resize::{center_crop, CropRatio};

    #[test]
    fn render_is_deterministic() {
        let spec = SceneSpec::new(96, 80, 17).with_seed(5);
        let a = render_scene(&spec).unwrap();
        let b = render_scene(&spec).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_and_classes_differ() {
        let base = SceneSpec::new(64, 64, 3).with_seed(1);
        let a = render_scene(&base).unwrap();
        let b = render_scene(&base.clone().with_seed(2)).unwrap();
        let c = render_scene(&SceneSpec::new(64, 64, 4).with_seed(1)).unwrap();
        assert!(a.mean_abs_diff(&b).unwrap() > 1e-4);
        assert!(a.mean_abs_diff(&c).unwrap() > 1e-3);
    }

    #[test]
    fn validation_rejects_bad_fractions() {
        assert!(render_scene(&SceneSpec::new(0, 10, 1)).is_err());
        assert!(render_scene(&SceneSpec::new(10, 10, 1).with_object_scale(0.0)).is_err());
        assert!(render_scene(&SceneSpec::new(10, 10, 1).with_object_scale(1.5)).is_err());
        assert!(render_scene(&SceneSpec::new(10, 10, 1).with_detail(-0.1)).is_err());
        assert!(render_scene(&SceneSpec::new(10, 10, 1).with_background(1.1)).is_err());
        assert!(render_scene(&SceneSpec::new(10, 10, 1).with_center(1.2, 0.5)).is_err());
    }

    #[test]
    fn object_occupies_expected_extent() {
        // A large object changes the centre of the image relative to a tiny object.
        let big = render_scene(&SceneSpec::new(120, 120, 2).with_object_scale(0.8)).unwrap();
        let small = render_scene(&SceneSpec::new(120, 120, 2).with_object_scale(0.1)).unwrap();
        // Corner pixels are background in both.
        assert!(big.pixel(2, 2)[0] - small.pixel(2, 2)[0] < 1e-3);
        // Pixels at ~30% from centre are object in `big` but background in `small`.
        let p_big = big.pixel(60 + 30, 60);
        let p_small = small.pixel(60 + 30, 60);
        let diff: f32 = p_big.iter().zip(&p_small).map(|(a, b)| (a - b).abs()).sum();
        assert!(diff > 0.05, "object extent did not change pixels: {diff}");
    }

    #[test]
    fn detail_level_adds_high_frequency_content() {
        // Higher detail ⇒ downsampling and re-upsampling loses more (lower SSIM vs original).
        let flat = render_scene(&SceneSpec::new(128, 128, 9).with_detail(0.05)).unwrap();
        let fine = render_scene(&SceneSpec::new(128, 128, 9).with_detail(0.95)).unwrap();
        let down_up = |img: &Image| {
            let small =
                crate::resize::resize_square(img, 32, crate::resize::Filter::Bilinear).unwrap();
            crate::resize::resize_square(&small, 128, crate::resize::Filter::Bilinear).unwrap()
        };
        let s_flat = ssim(&flat, &down_up(&flat)).unwrap();
        let s_fine = ssim(&fine, &down_up(&fine)).unwrap();
        assert!(
            s_flat > s_fine,
            "flat {s_flat} should survive downsampling better than fine {s_fine}"
        );
    }

    #[test]
    fn center_crop_keeps_centered_object() {
        let spec = SceneSpec::new(200, 150, 12).with_object_scale(0.3);
        let img = render_scene(&spec).unwrap();
        let cropped = center_crop(&img, CropRatio::new(0.25).unwrap()).unwrap();
        // Object diameter 0.3*150 = 45 px; crop side = 75 px, so the object is inside and
        // pixels in the cropped view map back to the same original pixels.
        let x0 = (img.width() - cropped.width()) / 2;
        let y0 = (img.height() - cropped.height()) / 2;
        let c = cropped.pixel(cropped.width() / 2, cropped.height() / 2);
        let o = img.pixel(x0 + cropped.width() / 2, y0 + cropped.height() / 2);
        for (a, b) in c.iter().zip(&o) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn shapes_cover_all_variants() {
        for (i, shape) in ObjectShape::ALL.iter().enumerate() {
            assert!(shape.contains(0.0, 0.0), "shape {i} must contain its centre");
            assert!(!shape.contains(3.0, 3.0), "shape {i} must not contain far points");
        }
    }

    #[test]
    fn object_diameter_accounts_for_short_side() {
        let spec = SceneSpec::new(400, 100, 0).with_object_scale(0.5);
        assert_eq!(spec.object_diameter_px(), 50.0);
    }
}
