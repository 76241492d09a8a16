//! Incremental progressive decoding.
//!
//! [`ProgressiveImage::decode`] rebuilds the image from scratch for every requested scan
//! prefix, which makes walking the quality/read curve of an image — the hot loop of the
//! paper's §V storage-calibration stage — O(S²) in the number of scans. The
//! [`ProgressiveDecoder`] here holds the accumulated coefficient planes and the current
//! decoded frame, and moves forward through the scans: entropy-decode the pending scans
//! into the coefficient planes, then re-run the inverse DCT for exactly the blocks they
//! changed and refresh those blocks' pixels. Walking all S prefixes becomes O(S) total
//! decode work, and late scans (which mostly extend zero runs) refresh only a fraction of
//! the blocks.
//!
//! A decoder reconstructs a pixel *window* of the image
//! ([`ProgressiveImage::window_decoder`]), and its frame is the window's size. A reader
//! that presents a centre crop opens the decoder at the crop's window and never builds the
//! pixels it would throw away: on a 752×512 frame at crop 0.75 the 443² window touches
//! 3 136 of the 6 016 blocks. The entropy decode cannot skip anything — a scan's symbols
//! for every block precede the next block's — but the block refresh, the larger share of
//! a read, runs only over blocks that intersect the window, and each writes only its rows
//! and columns inside it. [`ProgressiveImage::progressive_decoder`] is the whole-image
//! window.
//!
//! The decoder keeps no spatial planes. A block's 8×8 samples exist only on the stack,
//! between its inverse DCT and the colour conversion that writes its pixels into the
//! frame (`refresh_block`), so a decoder costs the coefficient planes (three zeroed
//! allocations), one dirty flag per block and the window-sized frame, each sample of
//! which is written once at construction — nothing else image-sized is allocated or
//! filled.
//!
//! A refreshed block costs what its coefficients carry. A component with no non-zero AC
//! level — every block after the DC scan — is one sample, two multiplies from its DC
//! level, and a block whose three components are all like that is one colour conversion
//! and a fill of its row runs. A component whose levels all lie in the top-left 4×4
//! corner (the standard plan's second scan reaches no further) runs a 4×4-bounded
//! inverse DCT, 384 multiply-adds against the full transform's 1 024. Only a component
//! with a level outside that corner pays the full 8×8 transform. Every path is bitwise
//! equal to the full transform (the argument is on `refresh_block`).
//!
//! A reader that knows its depth needs no intermediate frames:
//! [`advance_to`](ProgressiveDecoder::advance_to) entropy-decodes every pending scan
//! first, OR-ing their dirty flags, and reconstructs each touched block **once** — from
//! its final coefficients — rather than once per scan.
//! [`advance`](ProgressiveDecoder::advance) is the one-scan case of the same code.
//!
//! # The incremental-refresh invariant
//!
//! After advancing to `k` scans — one at a time, in jumps, or any mixture —
//! [`frame`](ProgressiveDecoder::frame) is **bitwise identical** to
//! `crop(image.decode(k), window)`, which for the whole-image window is `image.decode(k)`.
//! This holds structurally rather than by parallel maintenance of two code paths:
//!
//! * both paths funnel scans through the same `decode_scan`, so the coefficient planes
//!   after `k` scans are identical;
//! * a block is flagged dirty exactly when a scan *changed* one of its stored
//!   coefficients (in any component), flags are only ever set between two refreshes, and
//!   the pixels of a block are a pure function of its three components' coefficients
//!   (`refresh_block`, which `decode` runs over every block with the whole-image window),
//!   so skipping clean blocks cannot change their pixels and rebuilding a dirty one from
//!   its latest coefficients gives what `decode` gives;
//! * the component block grids coincide (no chroma subsampling), so a dirty block is
//!   rebuilt in all three components and a pixel depends on no block but its own: the
//!   dirty mask, shared across components, reaches every pixel that could have changed;
//! * a block that does not intersect the window holds none of the frame's pixels, so
//!   skipping it loses nothing, and a window pixel is written by its own block's refresh
//!   exactly as `decode` writes it, only at the window's offset.
//!
//! The zero-scan starting state needs no transform at all: the inverse DCT of an all-zero
//! block is exactly `+0.0` everywhere, so every pixel of the initial frame is the one
//! colour three zero samples convert to — the same mid-grey image `decode(0)` produces.
//!
//! `crates/projpeg/tests/incremental_parity.rs` pins the invariant for every prefix and
//! every jump of several scan plans, and `crates/projpeg/tests/window_parity.rs` for random
//! windows (single pixels, windows that clip edge blocks, the whole image) over random
//! scan plans. `CalibrationCurves::sample_curves` (scan by scan) and the planner's reads
//! (in jumps) in `rescnn-core` are the consumers; each opens its decoder at the centre
//! crop's window.
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

use std::ops::Range;

use rescnn_imaging::{CropWindow, Image, ImagingError};

use crate::codec::{
    decode_scan, pixel_from_samples, refresh_block, CoefficientPlanes, ProgressiveImage,
};
use crate::dct::BLOCK;
use crate::error::{CodecError, Result};
use crate::quant::QuantTable;

/// An incremental decoder over a [`ProgressiveImage`]: moves forward through the scans,
/// re-running the inverse DCT only for the blocks the applied scans actually changed that
/// intersect its pixel window, and only once per block however many scans one call
/// applies.
///
/// The (private) `progressive` module docs state the invariant tying [`frame`](Self::frame) to
/// [`ProgressiveImage::decode`]. The decoder only moves forward; decoding a smaller
/// prefix requires a fresh decoder. If [`advance`](Self::advance) or
/// [`advance_to`](Self::advance_to) returns a stream error, the decoder's state is
/// unspecified and it must be discarded.
pub struct ProgressiveDecoder<'a> {
    image: &'a ProgressiveImage,
    planes: CoefficientPlanes,
    /// Per-block-grid-position change flags of the scans being applied (scratch).
    dirty: Vec<bool>,
    /// The pixels the frame holds.
    window: CropWindow,
    /// The block columns and rows that intersect the window.
    block_columns: Range<usize>,
    block_rows: Range<usize>,
    frame: Image,
    scans_applied: usize,
    luma_table: QuantTable,
    chroma_table: QuantTable,
}

impl ProgressiveImage {
    /// Starts incremental decoding of the whole image. The decoder begins at zero scans
    /// applied, i.e. [`frame`](ProgressiveDecoder::frame) equals `self.decode(0)`.
    ///
    /// # Errors
    /// Returns an error if the stored quality factor is invalid (cannot happen for
    /// images built by [`ProgressiveImage::encode`]).
    pub fn progressive_decoder(&self) -> Result<ProgressiveDecoder<'_>> {
        ProgressiveDecoder::new(self)
    }

    /// Starts incremental decoding of the pixels in `window` only: the decoder's frame is
    /// the window, bitwise `crop(self.decode(k), window)` after `k` scans.
    ///
    /// # Errors
    /// Returns [`CodecError::Imaging`] if the window is empty or reaches outside the
    /// image, or an error if the stored quality factor is invalid.
    pub fn window_decoder(&self, window: CropWindow) -> Result<ProgressiveDecoder<'_>> {
        ProgressiveDecoder::open(self, window)
    }
}

impl<'a> ProgressiveDecoder<'a> {
    /// Creates a decoder of the whole of `image`, positioned before its first scan.
    ///
    /// # Errors
    /// Returns an error if the stored quality factor is invalid.
    pub fn new(image: &'a ProgressiveImage) -> Result<Self> {
        Self::open(image, CropWindow::whole(image.width(), image.height()))
    }

    /// A decoder of the pixels of `image` inside `window`, positioned before the first
    /// scan ([`ProgressiveImage::window_decoder`]).
    fn open(image: &'a ProgressiveImage, window: CropWindow) -> Result<Self> {
        if !window.fits(image.width(), image.height()) {
            return Err(ImagingError::InvalidCrop {
                width: image.width(),
                height: image.height(),
                crop_width: window.width,
                crop_height: window.height,
            }
            .into());
        }
        let luma_table = QuantTable::luma(image.quality())?;
        let chroma_table = QuantTable::chroma(image.quality())?;
        let blocks_x = image.width().div_ceil(BLOCK);
        let blocks_y = image.height().div_ceil(BLOCK);
        // Zeroed coefficients reconstruct to exactly +0.0 in every component (each
        // accumulator of the inverse DCT stays +0.0), so no transform is needed here:
        // every pixel of the zero-scan frame is the one colour zero samples convert to.
        let frame = Image::filled(window.width, window.height, pixel_from_samples([0.0; 3]))?;
        Ok(ProgressiveDecoder {
            image,
            planes: CoefficientPlanes::zeroed(blocks_x, blocks_y),
            dirty: vec![false; blocks_x * blocks_y],
            window,
            block_columns: window.x0 / BLOCK..(window.x0 + window.width).div_ceil(BLOCK),
            block_rows: window.y0 / BLOCK..(window.y0 + window.height).div_ceil(BLOCK),
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

    /// The decoded window for the current prefix — bitwise identical to
    /// `crop(image.decode(self.scans_applied()), window)`, and so to
    /// `image.decode(self.scans_applied())` for a whole-image decoder.
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
        self.advance_to(self.scans_applied + 1)
    }

    /// Advances until `scans` scans have been applied and returns the frame. A no-op when
    /// already positioned there.
    ///
    /// However many scans are pending, each block they change is reconstructed once, from
    /// its coefficients after the last of them: the frames of the prefixes in between are
    /// never built. The scans are entropy-decoded in order, so a damaged stream yields
    /// the error of its first bad scan, exactly as a scan-by-scan walk would.
    ///
    /// # Errors
    /// Returns [`CodecError::CannotRewind`] if `scans` is smaller than the number already
    /// applied, [`CodecError::ScanOutOfRange`] if it exceeds the encoded scan count, or a
    /// stream error for corrupt data (after which the decoder must be discarded).
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
        if scans == self.scans_applied {
            return Ok(&self.frame);
        }
        self.dirty.fill(false);
        for (index, scan) in self.image.scans()[..scans].iter().enumerate().skip(self.scans_applied)
        {
            decode_scan(scan, index, &mut self.planes, Some(&mut self.dirty))?;
        }
        let blocks_x = self.planes.blocks_x;
        for row in self.block_rows.clone() {
            let blocks =
                row * blocks_x + self.block_columns.start..row * blocks_x + self.block_columns.end;
            for block in blocks.filter(|&block| self.dirty[block]) {
                refresh_block(
                    &self.planes,
                    block,
                    &self.luma_table,
                    &self.chroma_table,
                    &mut self.frame,
                    self.window,
                );
            }
        }
        self.scans_applied = scans;
        Ok(&self.frame)
    }
}

impl std::fmt::Debug for ProgressiveDecoder<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProgressiveDecoder")
            .field("dimensions", &(self.image.width(), self.image.height()))
            .field("window", &self.window)
            .field("scans_applied", &self.scans_applied)
            .field("remaining_scans", &self.remaining_scans())
            .finish()
    }
}
