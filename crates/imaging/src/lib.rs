//! # rescnn-imaging
//!
//! Image representation and processing substrate: planar RGB images, bilinear/nearest
//! resizing, centre cropping with the paper's area-fraction crop ratios, PSNR/SSIM quality
//! metrics, and a procedural synthetic-scene renderer that stands in for the ImageNet and
//! Stanford Cars photographs the original evaluation used.
//!
//! # Examples
//! ```
//! use rescnn_imaging::{render_scene, crop_and_resize, ssim, CropRatio, SceneSpec};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let scene = SceneSpec::new(320, 240, 42).with_object_scale(0.4);
//! let image = render_scene(&scene)?;
//! let at_224 = crop_and_resize(&image, CropRatio::new(0.75)?, 224)?;
//! let at_112 = crop_and_resize(&image, CropRatio::new(0.75)?, 112)?;
//! assert_eq!(at_224.dimensions(), (224, 224));
//! assert_eq!(at_112.dimensions(), (112, 112));
//! assert!(ssim(&at_224, &at_224)? > 0.999);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod error;
mod image;
mod metrics;
pub mod reference;
mod resize;
mod synth;

pub use error::{ImagingError, Result};
pub use image::{Image, Normalization};
pub use metrics::{psnr, ssim, ssim_with, QualityMetric, SsimConfig, SsimReference};
pub use resize::{
    center_crop, crop, crop_and_resize, crop_and_resize_cow, resize, resize_cow, resize_square,
    CropRatio, CropWindow, Filter,
};
pub use synth::{render_scene, ObjectShape, SceneSpec};

/// Commonly used items, intended for glob import.
pub mod prelude {
    pub use crate::{
        center_crop, crop_and_resize, psnr, render_scene, resize_square, ssim, CropRatio, Filter,
        Image, ImagingError, Normalization, QualityMetric, SceneSpec,
    };
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn resize_always_hits_target((w, h, tw, th) in (1usize..40, 1usize..40, 1usize..64, 1usize..64)) {
            let img = Image::from_fn(w, h, |x, y| [(x % 3) as f32 / 3.0, (y % 5) as f32 / 5.0, 0.5]).unwrap();
            let out = resize(&img, tw, th, Filter::Bilinear).unwrap();
            prop_assert_eq!(out.dimensions(), (tw, th));
            // Bilinear output never exceeds the input's value range.
            prop_assert!(out.as_planar().iter().all(|&v| (-1e-6..=1.0 + 1e-6).contains(&v)));
        }

        #[test]
        fn center_crop_is_square_and_bounded((w, h) in (2usize..200, 2usize..200), ratio in 0.05f64..1.0) {
            let img = Image::filled(w, h, [0.5; 3]).unwrap();
            let cropped = center_crop(&img, CropRatio::new(ratio).unwrap()).unwrap();
            let (cw, ch) = cropped.dimensions();
            prop_assert_eq!(cw, ch);
            prop_assert!(cw <= w.min(h));
            prop_assert!(cw >= 1);
        }

        #[test]
        fn ssim_is_symmetric_and_bounded(seed_a in 0u64..50, seed_b in 0u64..50) {
            let a = render_scene(&SceneSpec::new(48, 48, 3).with_seed(seed_a)).unwrap();
            let b = render_scene(&SceneSpec::new(48, 48, 5).with_seed(seed_b)).unwrap();
            let s_ab = ssim(&a, &b).unwrap();
            let s_ba = ssim(&b, &a).unwrap();
            prop_assert!((-1.0..=1.0).contains(&s_ab));
            prop_assert!((s_ab - s_ba).abs() < 1e-9);
        }

        #[test]
        fn rendered_scenes_stay_in_unit_range(class in 0usize..200, scale in 0.05f64..1.0, detail in 0.0f64..1.0) {
            let spec = SceneSpec::new(40, 32, class).with_object_scale(scale).with_detail(detail);
            let img = render_scene(&spec).unwrap();
            prop_assert!(img.as_planar().iter().all(|&v| (0.0..=1.0).contains(&v)));
        }

        #[test]
        fn psnr_nonnegative_for_unit_images(noise in 0.0f32..0.8) {
            let a = Image::filled(16, 16, [0.5; 3]).unwrap();
            let b = Image::filled(16, 16, [(0.5 + noise).min(1.0); 3]).unwrap();
            let p = psnr(&a, &b).unwrap();
            prop_assert!(p >= 0.0);
        }
    }
}
