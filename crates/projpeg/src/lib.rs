//! # rescnn-projpeg
//!
//! A from-scratch progressive DCT image codec with spectral-selection scans, standing in
//! for progressive JPEG in the paper's storage pipeline (Figure 2 / Figure 4). Images are
//! stored as a sequence of scans; reading a byte prefix (a number of scans) yields a
//! coarse-to-fine reconstruction, and the per-scan byte sizes are real entropy-coded sizes,
//! so the bytes-read vs. quality (SSIM) trade-off measured by the storage-calibration
//! experiments is genuine.
//!
//! # Examples
//! ```
//! use rescnn_imaging::{render_scene, ssim, SceneSpec};
//! use rescnn_projpeg::{ProgressiveImage, ScanPlan};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let image = render_scene(&SceneSpec::new(96, 64, 3))?;
//! let encoded = ProgressiveImage::encode(&image, 85, ScanPlan::standard())?;
//! let preview = encoded.decode(2)?;
//! let full = encoded.decode(encoded.num_scans())?;
//! assert!(ssim(&image, &full)? >= ssim(&image, &preview)? - 0.02);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod bits;
mod codec;
mod color;
mod dct;
mod error;
mod huffman;
mod progressive;
mod quant;

pub use bits::{BitReader, BitWriter};
pub use codec::{EncodedScan, ProgressiveImage, ScanBand, ScanPlan};
pub use color::{rgb_to_ycbcr, ycbcr_to_rgb};
pub use dct::{forward_dct, inverse_dct, BLOCK, BLOCK_AREA, ZIGZAG};
pub use error::{CodecError, Result};
pub use huffman::HuffmanCode;
pub use progressive::ProgressiveDecoder;
pub use quant::{QuantTable, BASE_CHROMA, BASE_LUMA};

/// Commonly used items, intended for glob import.
pub mod prelude {
    pub use crate::{CodecError, ProgressiveDecoder, ProgressiveImage, ScanBand, ScanPlan};
}

/// xorshift64 for the differential tests: their corpora are the same on every run and host.
#[cfg(test)]
pub(crate) struct Xorshift(pub(crate) u64);

#[cfg(test)]
impl Xorshift {
    pub(crate) fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    pub(crate) fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }

    pub(crate) fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next() as u8).collect()
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rescnn_imaging::{render_scene, ssim, SceneSpec};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn encode_decode_never_panics_and_improves(seed in 0u64..500, quality in 30u8..=98,
                                                    detail in 0.0f64..1.0) {
            let spec = SceneSpec::new(40, 40, (seed % 37) as usize)
                .with_seed(seed)
                .with_detail(detail);
            let img = render_scene(&spec).unwrap();
            let encoded = ProgressiveImage::encode(&img, quality, ScanPlan::standard()).unwrap();
            let coarse = encoded.decode(1).unwrap();
            let fine = encoded.decode(encoded.num_scans()).unwrap();
            let s_coarse = ssim(&img, &coarse).unwrap();
            let s_fine = ssim(&img, &fine).unwrap();
            prop_assert!(s_fine >= s_coarse - 0.05, "fine {} vs coarse {}", s_fine, s_coarse);
            prop_assert!(encoded.total_bytes() > 64);
        }

        #[test]
        fn cumulative_bytes_monotone(seed in 0u64..100, quality in 20u8..=95) {
            let img = render_scene(&SceneSpec::new(33, 47, 8).with_seed(seed)).unwrap();
            let encoded = ProgressiveImage::encode(&img, quality, ScanPlan::standard()).unwrap();
            let mut prev = 0;
            for k in 0..=encoded.num_scans() {
                let cum = encoded.cumulative_bytes(k);
                prop_assert!(cum >= prev);
                prev = cum;
            }
        }

        #[test]
        fn dct_round_trip_arbitrary_blocks(values in proptest::collection::vec(-200.0f32..200.0, 64)) {
            let mut block = [0.0f32; 64];
            block.copy_from_slice(&values);
            let back = inverse_dct(&forward_dct(&block));
            for (a, b) in block.iter().zip(&back) {
                prop_assert!((a - b).abs() < 1e-2);
            }
        }
    }
}
