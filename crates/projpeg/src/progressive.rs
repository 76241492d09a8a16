//! Incremental progressive decoding.
//!
//! [`ProgressiveImage::decode`] rebuilds the image from scratch for every requested scan
//! prefix, which makes walking the quality/read curve of an image — the hot loop of the
//! paper's §V storage-calibration stage — O(S²) in the number of scans. The
//! [`ProgressiveDecoder`] here holds the accumulated coefficient planes, the padded
//! spatial component planes, and the current decoded frame, and applies one scan at a
//! time: entropy-decode the scan, merge its band into the coefficient planes, re-run the
//! inverse DCT for exactly the blocks the scan changed, and refresh only those blocks'
//! pixels. Walking all S prefixes becomes O(S) total decode work, and late scans (which
//! mostly extend zero runs) refresh only a fraction of the blocks.
//!
//! # The incremental-refresh invariant
//!
//! After `k` calls to [`advance`](ProgressiveDecoder::advance), [`frame`]
//! (ProgressiveDecoder::frame) is **bitwise identical** to `image.decode(k)`. This holds
//! structurally rather than by parallel maintenance of two code paths:
//!
//! * both paths funnel scans through the same `decode_scan`, so the coefficient planes
//!   after `k` scans are identical;
//! * a block is flagged dirty exactly when a scan *changed* one of its stored
//!   coefficients (in any component), and the spatial samples of a block are a pure
//!   function of its coefficients (`reconstruct_block`), so skipping clean blocks cannot
//!   change their samples;
//! * a pixel is a pure function of the three component planes at its position
//!   (`pixel_from_planes`), and the component block grids coincide (no chroma
//!   subsampling), so refreshing the pixels of dirty blocks only — with the dirty mask
//!   shared across components — reaches every pixel that could have changed.
//!
//! The zero-scan starting state needs no transform at all: the inverse DCT of an all-zero
//! block is exactly `+0.0` everywhere, so freshly zeroed component planes already equal
//! the reconstruction of zeroed coefficients, and the initial frame is the same mid-grey
//! image `decode(0)` produces.
//!
//! `crates/projpeg/tests/incremental_parity.rs` pins the invariant for every prefix of
//! several scan plans; `CalibrationCurves::sample_curves` in `rescnn-core` is the primary
//! consumer.
//!
//! # Examples
//! ```
//! use rescnn_imaging::{render_scene, SceneSpec};
//! use rescnn_projpeg::{ProgressiveImage, ScanPlan};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let image = render_scene(&SceneSpec::new(64, 48, 7))?;
//! let encoded = ProgressiveImage::encode(&image, 85, ScanPlan::standard())?;
//! let mut decoder = encoded.progressive_decoder()?;
//! for scans in 1..=encoded.num_scans() {
//!     let frame = decoder.advance()?;
//!     assert_eq!(frame, &encoded.decode(scans)?);
//! }
//! # Ok(())
//! # }
//! ```

use rescnn_imaging::Image;

use crate::codec::{
    decode_scan, pixel_from_planes, reconstruct_block, CoefficientPlanes, ProgressiveImage,
    NUM_COMPONENTS,
};
use crate::dct::BLOCK;
use crate::error::{CodecError, Result};
use crate::quant::QuantTable;

/// An incremental decoder over a [`ProgressiveImage`]: applies scans one at a time,
/// re-running the inverse DCT only for blocks each scan actually refreshed.
///
/// See the [module docs](self) for the invariant tying [`frame`](Self::frame) to
/// [`ProgressiveImage::decode`]. The decoder only moves forward; decoding a smaller
/// prefix requires a fresh decoder. If [`advance`](Self::advance) returns a stream
/// error, the decoder's state is unspecified and it must be discarded.
pub struct ProgressiveDecoder<'a> {
    image: &'a ProgressiveImage,
    planes: CoefficientPlanes,
    /// Padded spatial planes (YCbCr), kept in sync with `planes` block by block.
    comp: Vec<Vec<f32>>,
    /// Per-block-grid-position change flags for the scan being applied (scratch).
    dirty: Vec<bool>,
    frame: Image,
    scans_applied: usize,
    luma_table: QuantTable,
    chroma_table: QuantTable,
}

impl ProgressiveImage {
    /// Starts incremental decoding of this image. The decoder begins at zero scans
    /// applied, i.e. [`frame`](ProgressiveDecoder::frame) equals `self.decode(0)`.
    ///
    /// # Errors
    /// Returns an error if the stored quality factor is invalid (cannot happen for
    /// images built by [`ProgressiveImage::encode`]).
    pub fn progressive_decoder(&self) -> Result<ProgressiveDecoder<'_>> {
        ProgressiveDecoder::new(self)
    }
}

impl<'a> ProgressiveDecoder<'a> {
    /// Creates a decoder positioned before the first scan of `image`.
    ///
    /// # Errors
    /// Returns an error if the stored quality factor is invalid.
    pub fn new(image: &'a ProgressiveImage) -> Result<Self> {
        let luma_table = QuantTable::luma(image.quality())?;
        let chroma_table = QuantTable::chroma(image.quality())?;
        let blocks_x = image.width().div_ceil(BLOCK);
        let blocks_y = image.height().div_ceil(BLOCK);
        let padded_w = blocks_x * BLOCK;
        let padded_h = blocks_y * BLOCK;
        let planes = CoefficientPlanes::zeroed(blocks_x, blocks_y);
        // Zeroed spatial planes equal the inverse DCT of zeroed coefficients exactly
        // (every accumulator stays +0.0), so no transform is needed here.
        // … and every pixel of the zero-scan frame is the one colour they convert to.
        let comp = vec![vec![0.0f32; padded_w * padded_h]; NUM_COMPONENTS];
        let frame = Image::filled(image.width(), image.height(), pixel_from_planes(&comp, 0))?;
        Ok(ProgressiveDecoder {
            image,
            planes,
            comp,
            dirty: vec![false; blocks_x * blocks_y],
            frame,
            scans_applied: 0,
            luma_table,
            chroma_table,
        })
    }

    /// The image being decoded.
    pub fn image(&self) -> &'a ProgressiveImage {
        self.image
    }

    /// Number of scans applied so far.
    pub fn scans_applied(&self) -> usize {
        self.scans_applied
    }

    /// Number of scans not yet applied.
    pub fn remaining_scans(&self) -> usize {
        self.image.num_scans() - self.scans_applied
    }

    /// The decoded frame for the current prefix — bitwise identical to
    /// `image.decode(self.scans_applied())`.
    pub fn frame(&self) -> &Image {
        &self.frame
    }

    /// Consumes the decoder, returning the current frame without a copy.
    pub fn into_frame(self) -> Image {
        self.frame
    }

    /// Applies the next scan and returns the refreshed frame.
    ///
    /// # Errors
    /// Returns [`CodecError::ScanOutOfRange`] when every scan has already been applied,
    /// or a stream error if the scan data is corrupt (after which the decoder must be
    /// discarded).
    pub fn advance(&mut self) -> Result<&Image> {
        let index = self.scans_applied;
        let scan = self.image.scans().get(index).ok_or(CodecError::ScanOutOfRange {
            requested: index + 1,
            available: self.image.num_scans(),
        })?;
        self.dirty.fill(false);
        decode_scan(scan, index, &mut self.planes, Some(&mut self.dirty))?;

        let blocks_x = self.planes.blocks_x;
        let padded_w = blocks_x * BLOCK;
        let (width, height) = (self.image.width(), self.image.height());
        for (b, _) in self.dirty.iter().enumerate().filter(|(_, &flag)| flag) {
            let (bx, by) = (b % blocks_x, b / blocks_x);
            for (c, plane) in self.comp.iter_mut().enumerate() {
                let table = if c == 0 { &self.luma_table } else { &self.chroma_table };
                reconstruct_block(&self.planes.blocks[c][b], table, plane, padded_w, bx, by);
            }
            // Refresh the block's visible pixels (edge blocks may extend past the image).
            let xs = bx * BLOCK..((bx + 1) * BLOCK).min(width);
            for y in by * BLOCK..((by + 1) * BLOCK).min(height) {
                self.frame.set_row_with(y, xs.clone(), |x| {
                    pixel_from_planes(&self.comp, y * padded_w + x)
                });
            }
        }
        self.scans_applied += 1;
        Ok(&self.frame)
    }

    /// Advances until `scans` scans have been applied and returns the frame. A no-op when
    /// already positioned there.
    ///
    /// # Errors
    /// Returns [`CodecError::CannotRewind`] if `scans` is smaller than the number already
    /// applied, [`CodecError::ScanOutOfRange`] if it exceeds the encoded scan count, or a
    /// stream error for corrupt data.
    pub fn advance_to(&mut self, scans: usize) -> Result<&Image> {
        if scans < self.scans_applied {
            return Err(CodecError::CannotRewind { applied: self.scans_applied, requested: scans });
        }
        if scans > self.image.num_scans() {
            return Err(CodecError::ScanOutOfRange {
                requested: scans,
                available: self.image.num_scans(),
            });
        }
        while self.scans_applied < scans {
            self.advance()?;
        }
        Ok(&self.frame)
    }
}

impl std::fmt::Debug for ProgressiveDecoder<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProgressiveDecoder")
            .field("dimensions", &(self.image.width(), self.image.height()))
            .field("scans_applied", &self.scans_applied)
            .field("remaining_scans", &self.remaining_scans())
            .finish()
    }
}
