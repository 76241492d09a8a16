//! The progressive encoder/decoder.
//!
//! The codec follows the structure of progressive JPEG with spectral selection
//! (Figure 2 of the paper): each image is stored as a sequence of *scans*, where scan `i`
//! carries one contiguous band of zig-zag-ordered DCT coefficients for all blocks of all
//! three components. Reading a prefix of the scans yields a coarse but complete image;
//! every additional scan refines high-frequency detail. The per-scan byte sizes produced
//! here are real (Huffman-entropy-coded bits plus headers), so bytes-read vs. quality
//! trade-offs measured downstream are genuine.

use std::ops::Range;

use serde::{Deserialize, Serialize};

use rescnn_imaging::{CropWindow, Image};

use crate::bits::{BitReader, BitWriter};
use crate::color::{rgb_to_ycbcr, ycbcr_to_rgb};
use crate::dct::{
    forward_dct, inverse_dct_columns, inverse_dct_dc, inverse_dct_row, tables as dct_tables,
    DctTables, BLOCK, BLOCK_AREA, ZIGZAG,
};
#[cfg(test)]
use crate::dct::{inverse_dct, inverse_dct_corner};
use crate::error::{CodecError, Result};
use crate::huffman::HuffmanCode;
use crate::quant::QuantTable;

/// Number of colour components (Y, Cb, Cr).
const COMPONENTS: usize = 3;
/// End-of-band symbol.
const EOB: u8 = 0x00;
/// Zero-run-length symbol (16 zeros).
const ZRL: u8 = 0xF0;

/// An inclusive band of zig-zag coefficient indices carried by one scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ScanBand {
    /// First zig-zag index (0 = DC).
    pub start: usize,
    /// Last zig-zag index (inclusive, at most 63).
    pub end: usize,
}

impl ScanBand {
    /// Creates a band.
    pub const fn new(start: usize, end: usize) -> Self {
        ScanBand { start, end }
    }

    /// Number of coefficients in the band.
    pub const fn len(&self) -> usize {
        self.end - self.start + 1
    }

    /// Whether the band is the DC-only band.
    pub const fn is_dc(&self) -> bool {
        self.start == 0
    }

    /// Returns `false`; bands always carry at least one coefficient.
    pub const fn is_empty(&self) -> bool {
        false
    }
}

/// The ordered set of spectral-selection bands for an encoded image.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScanPlan {
    bands: Vec<ScanBand>,
}

impl ScanPlan {
    /// The five-scan plan used throughout the paper's figures: DC first, then four AC bands
    /// of increasing frequency.
    pub fn standard() -> Self {
        ScanPlan {
            bands: vec![
                ScanBand::new(0, 0),
                ScanBand::new(1, 5),
                ScanBand::new(6, 14),
                ScanBand::new(15, 27),
                ScanBand::new(28, 63),
            ],
        }
    }

    /// Builds a custom plan.
    ///
    /// # Errors
    /// Returns [`CodecError::InvalidScanPlan`] unless the bands are non-empty, start with a
    /// DC-only band, are contiguous, and cover exactly the coefficients `0..=63`.
    pub fn new(bands: Vec<ScanBand>) -> Result<Self> {
        if bands.is_empty() {
            return Err(CodecError::InvalidScanPlan { reason: "no bands".into() });
        }
        if bands[0] != ScanBand::new(0, 0) {
            return Err(CodecError::InvalidScanPlan {
                reason: "first band must be the DC-only band [0, 0]".into(),
            });
        }
        let mut next = 1usize;
        for band in &bands[1..] {
            if band.start != next || band.end < band.start || band.end >= BLOCK_AREA {
                return Err(CodecError::InvalidScanPlan {
                    reason: format!(
                        "band [{}, {}] is not contiguous with previous coverage ending at {}",
                        band.start,
                        band.end,
                        next - 1
                    ),
                });
            }
            next = band.end + 1;
        }
        if next != BLOCK_AREA {
            return Err(CodecError::InvalidScanPlan {
                reason: format!("bands cover coefficients 0..{} but must reach 63", next - 1),
            });
        }
        Ok(ScanPlan { bands })
    }

    /// The bands in scan order.
    pub fn bands(&self) -> &[ScanBand] {
        &self.bands
    }

    /// Number of scans.
    pub fn len(&self) -> usize {
        self.bands.len()
    }

    /// Whether the plan has no scans (never true for a validated plan).
    pub fn is_empty(&self) -> bool {
        self.bands.is_empty()
    }
}

impl Default for ScanPlan {
    fn default() -> Self {
        ScanPlan::standard()
    }
}

/// One entropy-coded scan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EncodedScan {
    /// The coefficient band this scan carries.
    pub band: ScanBand,
    /// Serialized Huffman table (compact DHT layout) followed by the coded bitstream.
    pub data: Vec<u8>,
}

impl EncodedScan {
    /// Total stored size of the scan in bytes (table + bitstream + a fixed 8-byte scan
    /// header accounting for band markers and length fields).
    pub fn byte_size(&self) -> u64 {
        self.data.len() as u64 + 8
    }
}

/// Quantized coefficient planes for the three components of an image.
pub(crate) struct CoefficientPlanes {
    /// Per component: blocks in raster order, each block raster-order quantized levels.
    pub(crate) blocks: [Vec<[i16; BLOCK_AREA]>; COMPONENTS],
    pub(crate) blocks_x: usize,
    pub(crate) blocks_y: usize,
}

impl CoefficientPlanes {
    /// All-zero planes for a `blocks_x × blocks_y` block grid — the coefficient state of
    /// an image of which no scan has been read yet.
    pub(crate) fn zeroed(blocks_x: usize, blocks_y: usize) -> Self {
        // Three zeroed allocations, not one zeroed and two copies of it: a zeroed
        // allocation is handed out already zero, a clone writes every byte again.
        let blocks = std::array::from_fn(|_| vec![[0i16; BLOCK_AREA]; blocks_x * blocks_y]);
        CoefficientPlanes { blocks, blocks_x, blocks_y }
    }
}

/// A progressively encoded image.
///
/// # Examples
/// ```
/// use rescnn_imaging::{render_scene, SceneSpec};
/// use rescnn_projpeg::{ProgressiveImage, ScanPlan};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let image = render_scene(&SceneSpec::new(64, 48, 7))?;
/// let encoded = ProgressiveImage::encode(&image, 85, ScanPlan::standard())?;
/// let coarse = encoded.decode(1)?;          // DC only
/// let full = encoded.decode(encoded.num_scans())?;
/// assert_eq!(coarse.dimensions(), (64, 48));
/// assert!(encoded.cumulative_bytes(1) < encoded.total_bytes());
/// # drop(full);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProgressiveImage {
    width: usize,
    height: usize,
    quality: u8,
    plan: ScanPlan,
    scans: Vec<EncodedScan>,
}

impl ProgressiveImage {
    /// Encodes an image at the given JPEG-style quality factor with the given scan plan.
    ///
    /// # Errors
    /// Returns an error for invalid quality factors or scan plans.
    pub fn encode(image: &Image, quality: u8, plan: ScanPlan) -> Result<Self> {
        let planes = quantize_image(image, quality)?;
        let mut scans = Vec::with_capacity(plan.len());
        for band in plan.bands() {
            scans.push(encode_scan(&planes, *band));
        }
        Ok(ProgressiveImage { width: image.width(), height: image.height(), quality, plan, scans })
    }

    /// Image width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Quality factor the image was encoded at.
    pub fn quality(&self) -> u8 {
        self.quality
    }

    /// Number of scans available.
    pub fn num_scans(&self) -> usize {
        self.scans.len()
    }

    /// The scan plan.
    pub fn plan(&self) -> &ScanPlan {
        &self.plan
    }

    /// Per-scan stored sizes in bytes.
    pub fn scan_bytes(&self) -> Vec<u64> {
        self.scans.iter().map(EncodedScan::byte_size).collect()
    }

    /// Total stored size in bytes when reading the first `num_scans` scans (plus a fixed
    /// 64-byte file header covering dimensions, quality, and quantization tables).
    ///
    /// Reading zero scans still costs the header.
    pub fn cumulative_bytes(&self, num_scans: usize) -> u64 {
        let scans = num_scans.min(self.scans.len());
        64 + self.scans[..scans].iter().map(EncodedScan::byte_size).sum::<u64>()
    }

    /// Total stored size in bytes of the fully encoded image.
    pub fn total_bytes(&self) -> u64 {
        self.cumulative_bytes(self.scans.len())
    }

    /// Fraction of the full file read when consuming the first `num_scans` scans.
    pub fn read_fraction(&self, num_scans: usize) -> f64 {
        self.cumulative_bytes(num_scans) as f64 / self.total_bytes() as f64
    }

    /// Decodes the image using only the first `num_scans` scans (missing coefficients are
    /// treated as zero, exactly like an interrupted progressive JPEG download).
    ///
    /// # Errors
    /// Returns [`CodecError::ScanOutOfRange`] if more scans are requested than encoded,
    /// or a stream error if the data is corrupt.
    pub fn decode(&self, num_scans: usize) -> Result<Image> {
        if num_scans > self.scans.len() {
            return Err(CodecError::ScanOutOfRange {
                requested: num_scans,
                available: self.scans.len(),
            });
        }
        let blocks_x = self.width.div_ceil(BLOCK);
        let blocks_y = self.height.div_ceil(BLOCK);
        let mut planes = CoefficientPlanes::zeroed(blocks_x, blocks_y);
        for (index, scan) in self.scans[..num_scans].iter().enumerate() {
            decode_scan(scan, index, &mut planes, None)?;
        }
        reconstruct_image(&planes, self.width, self.height, self.quality)
    }

    /// The encoded scans, for the incremental decoder.
    pub(crate) fn scans(&self) -> &[EncodedScan] {
        &self.scans
    }

    /// A 128-bit content address of the stored stream: it covers everything a decode
    /// reads — dimensions, quality, and each scan's band, length and every stored byte —
    /// so two streams with equal digests decode alike, scan for scan, errors included.
    /// Readers key per-stream records by it (`rescnn-core`'s scan index).
    ///
    /// The digest is computed from the bytes on every call and never stored on the value:
    /// [`with_bit_flip`](Self::with_bit_flip) and
    /// [`with_truncated_scan`](Self::with_truncated_scan) build damaged streams by cloning
    /// a pristine one, and a digest memoised inside the value would follow the clone.
    ///
    /// It guards against accidental collisions only (two multiply-rotate lanes with a
    /// bijective finish), not against streams crafted to collide.
    pub fn digest(&self) -> u128 {
        let mut lanes = DigestLanes::new();
        for field in [self.width, self.height, usize::from(self.quality), self.scans.len()] {
            lanes.absorb(field as u64);
        }
        for scan in &self.scans {
            // The length goes in ahead of the bytes, so moving bytes across a scan
            // boundary (or into the zero padding of a final word) changes the digest.
            for field in [scan.band.start, scan.band.end, scan.data.len()] {
                lanes.absorb(field as u64);
            }
            let mut words = scan.data.chunks_exact(8);
            for word in &mut words {
                lanes.absorb(u64::from_le_bytes(word.try_into().expect("chunks of eight")));
            }
            let tail = words.remainder();
            if !tail.is_empty() {
                let mut word = [0u8; 8];
                word[..tail.len()].copy_from_slice(tail);
                lanes.absorb(u64::from_le_bytes(word));
            }
        }
        lanes.finish()
    }

    /// Returns a copy of this image with one bit flipped in one scan's stored
    /// data — a deterministic corrupt-stream injector for robustness tests and
    /// the fault-injection load harness. `scan` and `byte` are reduced modulo
    /// the scan count / scan length, so any `(scan, byte, bit)` triple (e.g.
    /// drawn from a seeded PRNG) is a valid injection; an image with no scans
    /// or an empty scan is returned unchanged.
    ///
    /// Decoding the result must never panic: every outcome is either a decoded
    /// image (the flip landed somewhere the entropy coder tolerates) or a
    /// [`CodecError`](crate::CodecError) stream error. `tests/decoder_robustness.rs`
    /// pins this.
    #[must_use]
    pub fn with_bit_flip(&self, scan: usize, byte: usize, bit: u8) -> Self {
        let mut corrupted = self.clone();
        if corrupted.scans.is_empty() {
            return corrupted;
        }
        let scan = scan % corrupted.scans.len();
        let data = &mut corrupted.scans[scan].data;
        if data.is_empty() {
            return corrupted;
        }
        let byte = byte % data.len();
        data[byte] ^= 1 << (bit % 8);
        corrupted
    }

    /// Returns a copy of this image with one scan's stored data truncated to
    /// `keep_bytes` bytes — a deterministic truncated-stream injector (an
    /// interrupted read mid-scan, as opposed to the well-formed scan-prefix
    /// truncation [`decode`](Self::decode) models). `scan` is reduced modulo
    /// the scan count; `keep_bytes` beyond the scan's length keeps everything.
    #[must_use]
    pub fn with_truncated_scan(&self, scan: usize, keep_bytes: usize) -> Self {
        let mut corrupted = self.clone();
        if corrupted.scans.is_empty() {
            return corrupted;
        }
        let scan = scan % corrupted.scans.len();
        let data = &mut corrupted.scans[scan].data;
        data.truncate(keep_bytes.min(data.len()));
        corrupted
    }
}

/// The running state of [`ProgressiveImage::digest`]: two 64-bit lanes absorbing the same
/// words under different odd multipliers and rotations. Each step is a bijection of a
/// lane's state for a given word and of the word for a given state, so streams that
/// differ in one word never collide, and streams that differ in more collide only if
/// both lanes' state differences cancel at the same word.
struct DigestLanes {
    a: u64,
    b: u64,
}

impl DigestLanes {
    fn new() -> Self {
        // Fractional bits of √2 and √3: arbitrary, distinct, non-zero.
        DigestLanes { a: 0x6A09_E667_F3BC_C908, b: 0xBB67_AE85_84CA_A73B }
    }

    fn absorb(&mut self, word: u64) {
        self.a = (self.a ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29);
        self.b = (self.b.rotate_left(31) ^ word).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    }

    /// Avalanches both lanes (the splitmix64 finaliser, itself a bijection) and chains the
    /// second through the first, so distinct lane states give distinct digests.
    fn finish(self) -> u128 {
        fn avalanche(mut z: u64) -> u64 {
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        let high = avalanche(self.a);
        let low = avalanche(self.b ^ high);
        (u128::from(high) << 64) | u128::from(low)
    }
}

/// Converts an image into quantized DCT coefficient planes.
fn quantize_image(image: &Image, quality: u8) -> Result<CoefficientPlanes> {
    let luma_table = QuantTable::luma(quality)?;
    let chroma_table = QuantTable::chroma(quality)?;
    let (w, h) = image.dimensions();
    let blocks_x = w.div_ceil(BLOCK);
    let blocks_y = h.div_ceil(BLOCK);

    // Component planes in [-128, 127] range.
    let mut comp = vec![vec![0.0f32; blocks_x * BLOCK * blocks_y * BLOCK]; COMPONENTS];
    let padded_w = blocks_x * BLOCK;
    for y in 0..blocks_y * BLOCK {
        let sy = y.min(h - 1);
        for x in 0..padded_w {
            let sx = x.min(w - 1);
            let ycbcr = rgb_to_ycbcr(image.pixel(sx, sy));
            for c in 0..COMPONENTS {
                comp[c][y * padded_w + x] = ycbcr[c] * 255.0 - 128.0;
            }
        }
    }

    let mut blocks: [Vec<[i16; BLOCK_AREA]>; COMPONENTS] = [Vec::new(), Vec::new(), Vec::new()];
    for (c, plane) in comp.iter().enumerate() {
        let table = if c == 0 { &luma_table } else { &chroma_table };
        let mut out = Vec::with_capacity(blocks_x * blocks_y);
        for by in 0..blocks_y {
            for bx in 0..blocks_x {
                let mut block = [0.0f32; BLOCK_AREA];
                for dy in 0..BLOCK {
                    for dx in 0..BLOCK {
                        block[dy * BLOCK + dx] =
                            plane[(by * BLOCK + dy) * padded_w + bx * BLOCK + dx];
                    }
                }
                let coeffs = forward_dct(&block);
                out.push(table.quantize(&coeffs));
            }
        }
        blocks[c] = out;
    }
    Ok(CoefficientPlanes { blocks, blocks_x, blocks_y })
}

/// Magnitude category (number of amplitude bits) of a coefficient value.
fn magnitude_category(value: i32) -> u8 {
    let mut v = value.unsigned_abs();
    let mut bits = 0u8;
    while v > 0 {
        bits += 1;
        v >>= 1;
    }
    bits
}

/// JPEG-style amplitude encoding: positive values as-is, negative values in one's
/// complement of the magnitude bits.
fn encode_amplitude(value: i32, bits: u8) -> u32 {
    if value >= 0 {
        value as u32
    } else {
        (value + (1 << bits) - 1) as u32
    }
}

fn decode_amplitude(raw: u32, bits: u8) -> i32 {
    // A negative value's top amplitude bit is clear; with no amplitude bits `half` is 0
    // and the value 0. A select, not a branch: the sign of a level is not predictable.
    let half = (1u32 << bits) >> 1;
    let offset = if raw < half { (1i32 << bits) - 1 } else { 0 };
    raw as i32 - offset
}

/// Collects the (symbol, amplitude) pairs for one scan. DC bands use differential coding;
/// AC bands use (run, size) run-length coding with EOB/ZRL symbols.
fn scan_symbols(planes: &CoefficientPlanes, band: ScanBand) -> Vec<(u8, u32, u8)> {
    let mut symbols = Vec::new();
    for (c, blocks) in planes.blocks.iter().enumerate() {
        if band.is_dc() {
            let mut prev = 0i32;
            for block in blocks {
                let dc = i32::from(block[0]);
                let diff = dc - prev;
                prev = dc;
                let bits = magnitude_category(diff);
                symbols.push((bits, encode_amplitude(diff, bits), bits));
            }
        } else {
            for block in blocks {
                let mut run = 0u32;
                for zz in band.start..=band.end {
                    let value = i32::from(block[ZIGZAG[zz]]);
                    if value == 0 {
                        run += 1;
                        continue;
                    }
                    while run >= 16 {
                        symbols.push((ZRL, 0, 0));
                        run -= 16;
                    }
                    let bits = magnitude_category(value);
                    let symbol = ((run as u8) << 4) | bits;
                    symbols.push((symbol, encode_amplitude(value, bits), bits));
                    run = 0;
                }
                if run > 0 {
                    symbols.push((EOB, 0, 0));
                }
            }
        }
        let _ = c;
    }
    symbols
}

fn encode_scan(planes: &CoefficientPlanes, band: ScanBand) -> EncodedScan {
    let symbols = scan_symbols(planes, band);
    let mut freqs = [0u64; 256];
    for &(sym, _, _) in &symbols {
        freqs[sym as usize] += 1;
    }
    let code = HuffmanCode::from_frequencies(&freqs);
    let mut data = Vec::new();
    code.write_table(&mut data);
    let mut writer = BitWriter::new();
    for &(sym, amplitude, bits) in &symbols {
        code.encode(sym, &mut writer);
        if bits > 0 {
            writer.write_bits(amplitude, bits);
        }
    }
    data.extend_from_slice(&writer.finish());
    EncodedScan { band, data }
}

/// Applies one entropy-coded scan to the coefficient planes.
///
/// When `dirty` is provided (one flag per block-grid position, shared across components),
/// every block whose stored coefficients actually *changed* is flagged — the incremental
/// decoder re-runs the IDCT for exactly those blocks. A write that stores the value
/// already present (e.g. a zero DC difference on a still-zero block) is not a change, so
/// unflagged blocks are guaranteed to reconstruct to bit-identical pixels.
///
/// Each symbol and the amplitude bits after it come from one peeked word of the stream
/// (`BitReader::peek`: at least 56 bits while the stream lasts, and a code plus its
/// amplitude is at most 16 + 17), and are consumed together. The checks run in the order
/// a symbol-then-amplitude read makes them, so a damaged stream fails with the same
/// error at the same symbol.
pub(crate) fn decode_scan(
    scan: &EncodedScan,
    scan_index: usize,
    planes: &mut CoefficientPlanes,
    mut dirty: Option<&mut [bool]>,
) -> Result<()> {
    let (code, consumed) = HuffmanCode::read_table(&scan.data)
        .ok_or(CodecError::CorruptStream { scan: scan_index })?;
    let mut reader = BitReader::new(&scan.data[consumed..]);
    let band = scan.band;

    for blocks in &mut planes.blocks {
        if band.is_dc() {
            let mut prev = 0i32;
            for (b, block) in blocks.iter_mut().enumerate() {
                let (window, available) = reader.peek();
                let (bits, len) = code
                    .lookup(window, available)
                    .map_err(|_| CodecError::TruncatedStream { scan: scan_index })?;
                // Coefficients are i16, so a valid DC difference fits 17
                // magnitude bits; anything larger is a corrupt symbol (and
                // would overflow the amplitude decoder's shifts).
                if bits > 17 {
                    return Err(CodecError::CorruptStream { scan: scan_index });
                }
                let raw = amplitude_bits(window, available, len, bits)
                    .ok_or(CodecError::TruncatedStream { scan: scan_index })?;
                reader.consume(len + u32::from(bits));
                let diff = decode_amplitude(raw, bits);
                // The encoder only writes differences whose running sum is a stored
                // (i16) level; anything else is a corrupt stream, not a value to wrap.
                let level = prev
                    .checked_add(diff)
                    .and_then(|dc| i16::try_from(dc).ok())
                    .ok_or(CodecError::CorruptStream { scan: scan_index })?;
                prev = i32::from(level);
                if let Some(flags) = dirty.as_deref_mut() {
                    flags[b] |= block[0] != level;
                }
                block[0] = level;
            }
        } else {
            for (b, block) in blocks.iter_mut().enumerate() {
                let mut changed = false;
                let mut zz = band.start;
                while zz <= band.end {
                    let (window, available) = reader.peek();
                    let (symbol, len) = code
                        .lookup(window, available)
                        .map_err(|_| CodecError::TruncatedStream { scan: scan_index })?;
                    if symbol == EOB {
                        reader.consume(len);
                        break;
                    }
                    if symbol == ZRL {
                        reader.consume(len);
                        zz += 16;
                        continue;
                    }
                    let run = (symbol >> 4) as usize;
                    let bits = symbol & 0x0F;
                    zz += run;
                    if zz > band.end {
                        return Err(CodecError::CorruptStream { scan: scan_index });
                    }
                    let raw = amplitude_bits(window, available, len, bits)
                        .ok_or(CodecError::TruncatedStream { scan: scan_index })?;
                    reader.consume(len + u32::from(bits));
                    let level = decode_amplitude(raw, bits) as i16;
                    let slot = &mut block[ZIGZAG[zz]];
                    changed |= *slot != level;
                    *slot = level;
                    zz += 1;
                }
                if let Some(flags) = dirty.as_deref_mut() {
                    flags[b] |= changed;
                }
            }
        }
    }
    Ok(())
}

/// The `bits` amplitude bits that follow a `len`-bit code at the top of `window`, of which
/// `available` bits are the stream's, or `None` when the stream ends first.
#[inline]
fn amplitude_bits(window: u64, available: u32, len: u32, bits: u8) -> Option<u32> {
    let bits = u32::from(bits);
    if len + bits > available {
        return None;
    }
    Some((u128::from(window << len) << bits >> 64) as u32)
}

/// For each raster position of a block, the bit of the smallest square top-left corner
/// holding it: bit `max(row, column)`.
const RING_BITS: [u16; BLOCK_AREA] = {
    let mut bits = [0u16; BLOCK_AREA];
    let mut i = 0;
    while i < BLOCK_AREA {
        let (row, column) = (i / BLOCK, i % BLOCK);
        bits[i] = 1 << if row > column { row } else { column };
        i += 1;
    }
    bits
};

/// The side of the smallest corner in {1, 2, 3, 4, 8} that holds every non-zero level of
/// a component block — 1 when it has no AC level — found by one OR-reduction over the
/// 64 levels, with no early exit, so it vectorises.
#[inline]
fn support_side(levels: &[i16; BLOCK_AREA]) -> usize {
    let rings = levels
        .iter()
        .zip(&RING_BITS)
        .fold(0u16, |rings, (&level, &bit)| rings | if level != 0 { bit } else { 0 });
    // The corner side for each support extent (the highest ring bit plus one; only
    // `0..=8` occur), looked up rather than branched on.
    const SIDE_OF_EXTENT: [u8; 17] = [1, 1, 2, 3, 4, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8];
    usize::from(SIDE_OF_EXTENT[(16 - rings.leading_zeros()) as usize])
}

/// The one sample every position of a component block with no AC level (support side 1)
/// reconstructs to: bitwise every sample of `inverse_dct(&table.dequantize(levels))`
/// (see `inverse_dct_dc`).
#[inline]
fn dc_sample(levels: &[i16; BLOCK_AREA], table: &QuantTable) -> f32 {
    inverse_dct_dc(f32::from(levels[0]) * table.step(0))
}

/// The first pass of the inverse DCT of a component block whose levels fit the top-left
/// `side × side` corner, dequantizing only the corner's levels.
#[inline]
fn corner_columns(
    t: &DctTables,
    columns: &mut [[f32; BLOCK]; BLOCK],
    side: usize,
    levels: &[i16; BLOCK_AREA],
    table: &QuantTable,
) {
    inverse_dct_columns(t, columns, side, |i| f32::from(levels[i]) * table.step(i));
}

/// The sample all 64 positions of a component block reconstruct to when it has no
/// non-zero AC level, or `None` when it has one: the support test and flat path
/// `refresh_block` runs.
#[cfg(test)]
fn flat_sample(levels: &[i16; BLOCK_AREA], table: &QuantTable) -> Option<f32> {
    (support_side(levels) == 1).then(|| dc_sample(levels, table))
}

/// A component block's samples through the support test and corner dispatch
/// `refresh_block` runs: bitwise `inverse_dct(&table.dequantize(levels))`.
#[cfg(test)]
fn block_samples(levels: &[i16; BLOCK_AREA], table: &QuantTable) -> [f32; BLOCK_AREA] {
    let side = support_side(levels);
    if side == 1 {
        return [dc_sample(levels, table); BLOCK_AREA];
    }
    let t = dct_tables();
    let mut columns = [[0.0f32; BLOCK]; BLOCK];
    corner_columns(t, &mut columns, side, levels, table);
    let mut samples = [0.0f32; BLOCK_AREA];
    for (y, row) in samples.chunks_exact_mut(BLOCK).enumerate() {
        row.copy_from_slice(&inverse_dct_row(t, &columns, side, y));
    }
    samples
}

/// Dequantizes and inverse-transforms the three components of the block in block column
/// `column` and block row `row`, and writes the block's pixels that lie inside `window`
/// into `frame`, which holds exactly the window's pixels (edge blocks may extend past the
/// image, and blocks on the window's border past the window).
///
/// A pixel depends on its own block only — the three component block grids coincide (no
/// chroma subsampling) — so a block is reconstructed a row at a time: nothing image-sized
/// is kept, and nothing block-sized but each component's first pass. Shared by the
/// from-scratch reconstruction and the incremental decoder, so both produce bit-identical
/// pixels from identical coefficients, and a window's pixels are the whole frame's.
///
/// The work follows what the block carries. Each component's support — the smallest
/// corner in {1, 2, 3, 4, 8} that holds its non-zero levels (`support_side`) — picks its
/// transform: a component with no AC level costs one sample (`dc_sample`), any other the
/// inverse DCT of that corner, dequantized alone (`corner_columns`, then a second pass per
/// row). When all three components are flat, the 64 pixels are one colour:
/// `pixel_from_samples` runs once and each plane's rows are filled with it. Otherwise each
/// row inside the window is produced by the three components' second passes, converted
/// lane by lane and stored at once. A row wholly inside the window is one fixed 8-lane
/// store per plane.
///
/// Exactness: each path performs the operations of the full 8×8 transform and of
/// `pixel_from_samples`, minus terms that are a product with a zero coefficient (or with
/// a first-pass value such terms left at `+0.0`). No coefficient or basis value is NaN or
/// infinite, so each such term is an exact `±0.0`. Under round-to-nearest a sum is `-0.0`
/// only when both operands are, so the accumulators, which start at `+0.0`, never hold
/// `-0.0`, and adding `±0.0` to them returns them unchanged. The pixels are therefore
/// bitwise those of the full transform and a per-pixel conversion.
pub(crate) fn refresh_block(
    planes: &CoefficientPlanes,
    (column, row): (usize, usize),
    luma_table: &QuantTable,
    chroma_table: &QuantTable,
    frame: &mut Image,
    window: CropWindow,
) {
    let Some(clip) = BlockClip::new(window, (column * BLOCK, row * BLOCK)) else { return };
    let block = row * planes.blocks_x + column;
    let levels: [&[i16; BLOCK_AREA]; COMPONENTS] =
        std::array::from_fn(|c| &planes.blocks[c][block]);
    let tables: [&QuantTable; COMPONENTS] = [luma_table, chroma_table, chroma_table];
    let sides = levels.map(support_side);
    let flat: [f32; COMPONENTS] = std::array::from_fn(|c| dc_sample(levels[c], tables[c]));
    if sides == [1; COMPONENTS] {
        let pixel = pixel_from_samples(flat);
        clip.fill(frame, pixel);
        return;
    }
    let t = dct_tables();
    let mut columns = [[[0.0f32; BLOCK]; BLOCK]; COMPONENTS];
    for c in 0..COMPONENTS {
        if sides[c] > 1 {
            corner_columns(t, &mut columns[c], sides[c], levels[c], tables[c]);
        }
    }
    clip.write_rows(frame, |y| {
        let [luma, cb, cr]: [[f32; BLOCK]; COMPONENTS] = std::array::from_fn(|c| match sides[c] {
            1 => [flat[c]; BLOCK],
            side => inverse_dct_row(t, &columns[c], side, y),
        });
        let mut rgb = [[0.0f32; BLOCK]; 3];
        for x in 0..BLOCK {
            [rgb[0][x], rgb[1][x], rgb[2][x]] = pixel_from_samples([luma[x], cb[x], cr[x]]);
        }
        rgb
    });
}

/// The part of a block that lies inside a decoder's window, in block coordinates.
struct BlockClip {
    /// Block rows (`0..8`) inside the window.
    rows: Range<usize>,
    /// Block columns (`0..8`) inside the window.
    columns: Range<usize>,
    /// The frame position (column, row) of the clip's top-left pixel.
    origin: (usize, usize),
    /// The window's width: the frame's row stride.
    stride: usize,
}

impl BlockClip {
    /// The clip of the block whose top-left pixel is `(x0, y0)`, or `None` when it holds no
    /// pixel of `window`.
    #[inline]
    fn new(window: CropWindow, (x0, y0): (usize, usize)) -> Option<Self> {
        let columns = x0.max(window.x0)..(x0 + BLOCK).min(window.x0 + window.width);
        let rows = y0.max(window.y0)..(y0 + BLOCK).min(window.y0 + window.height);
        if columns.is_empty() || rows.is_empty() {
            return None;
        }
        Some(BlockClip {
            rows: rows.start - y0..rows.end - y0,
            columns: columns.start - x0..columns.end - x0,
            origin: (columns.start - window.x0, rows.start - window.y0),
            stride: window.width,
        })
    }

    /// Writes `rgb_row(y)`, the block's row `y` in each channel, into the planes of
    /// `frame` (which holds the window's pixels) for every row of the clip, a row at a
    /// time, so each is stored as soon as it is converted.
    #[inline]
    fn write_rows(&self, frame: &mut Image, mut rgb_row: impl FnMut(usize) -> [[f32; BLOCK]; 3]) {
        for y in self.rows.clone() {
            for (c, values) in rgb_row(y).into_iter().enumerate() {
                self.store(frame.plane_mut(c), y, values);
            }
        }
    }

    /// Fills the clip with one colour, a plane at a time.
    #[inline]
    fn fill(&self, frame: &mut Image, pixel: [f32; 3]) {
        for (c, value) in pixel.into_iter().enumerate() {
            let plane = frame.plane_mut(c);
            for y in self.rows.clone() {
                self.store(plane, y, [value; BLOCK]);
            }
        }
    }

    /// Stores the clipped columns of the block's row `y` into `plane`, a plane of a frame
    /// `stride` pixels wide holding the window. A row wholly inside the window is one fixed
    /// 8-lane store; a row cut by the window's edge (or the image's) is clipped.
    #[inline]
    fn store(&self, plane: &mut [f32], y: usize, values: [f32; BLOCK]) {
        let (x, first_row) = self.origin;
        let at = (first_row + y - self.rows.start) * self.stride + x;
        if self.columns.len() == BLOCK {
            let run: &mut [f32; BLOCK] =
                (&mut plane[at..at + BLOCK]).try_into().expect("a whole block row");
            *run = values;
        } else {
            let len = self.columns.len();
            plane[at..at + len].copy_from_slice(&values[self.columns.clone()]);
        }
    }
}

/// Converts one position's reconstructed YCbCr samples (centred on zero, as the inverse
/// DCT leaves them) into an RGB pixel.
#[inline]
pub(crate) fn pixel_from_samples(samples: [f32; COMPONENTS]) -> [f32; 3] {
    ycbcr_to_rgb(samples.map(|sample| (sample + 128.0) / 255.0))
}

fn reconstruct_image(
    planes: &CoefficientPlanes,
    width: usize,
    height: usize,
    quality: u8,
) -> Result<Image> {
    let luma_table = QuantTable::luma(quality)?;
    let chroma_table = QuantTable::chroma(quality)?;
    let mut frame = Image::zeros(width, height)?;
    let whole = CropWindow::whole(width, height);
    for row in 0..planes.blocks_y {
        for column in 0..planes.blocks_x {
            refresh_block(planes, (column, row), &luma_table, &chroma_table, &mut frame, whole);
        }
    }
    Ok(frame)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dct::inverse_dct_reference;
    use rescnn_imaging::{psnr, render_scene, ssim, SceneSpec};

    fn test_image(detail: f64) -> Image {
        render_scene(
            &SceneSpec::new(72, 56, 11).with_detail(detail).with_object_scale(0.6).with_seed(3),
        )
        .unwrap()
    }

    #[test]
    fn scan_plan_validation() {
        assert!(ScanPlan::new(vec![]).is_err());
        assert!(ScanPlan::new(vec![ScanBand::new(0, 5)]).is_err());
        assert!(ScanPlan::new(vec![ScanBand::new(0, 0), ScanBand::new(2, 63)]).is_err());
        assert!(ScanPlan::new(vec![ScanBand::new(0, 0), ScanBand::new(1, 62)]).is_err());
        assert!(ScanPlan::new(vec![ScanBand::new(0, 0), ScanBand::new(1, 63)]).is_ok());
        let std_plan = ScanPlan::standard();
        assert_eq!(std_plan.len(), 5);
        assert!(!std_plan.is_empty());
        assert!(ScanPlan::new(std_plan.bands().to_vec()).is_ok());
    }

    #[test]
    fn band_accessors() {
        let band = ScanBand::new(6, 14);
        assert_eq!(band.len(), 9);
        assert!(!band.is_dc());
        assert!(!band.is_empty());
        assert!(ScanBand::new(0, 0).is_dc());
    }

    #[test]
    fn full_decode_is_faithful_at_high_quality() {
        let img = test_image(0.4);
        let encoded = ProgressiveImage::encode(&img, 92, ScanPlan::standard()).unwrap();
        let decoded = encoded.decode(encoded.num_scans()).unwrap();
        assert_eq!(decoded.dimensions(), img.dimensions());
        let quality = psnr(&img, &decoded).unwrap();
        assert!(quality > 28.0, "PSNR {quality} too low for q=92");
        assert!(ssim(&img, &decoded).unwrap() > 0.9);
    }

    #[test]
    fn progressive_scans_monotonically_improve_quality() {
        let img = test_image(0.8);
        let encoded = ProgressiveImage::encode(&img, 85, ScanPlan::standard()).unwrap();
        let mut prev_ssim = -1.0;
        for scans in 1..=encoded.num_scans() {
            let decoded = encoded.decode(scans).unwrap();
            let s = ssim(&img, &decoded).unwrap();
            assert!(s >= prev_ssim - 0.02, "quality regressed at scan {scans}: {s} < {prev_ssim}");
            prev_ssim = s;
        }
        assert!(prev_ssim > 0.85);
    }

    #[test]
    fn byte_counts_are_cumulative_and_monotone() {
        let img = test_image(0.6);
        let encoded = ProgressiveImage::encode(&img, 80, ScanPlan::standard()).unwrap();
        let per_scan = encoded.scan_bytes();
        assert_eq!(per_scan.len(), 5);
        assert!(per_scan.iter().all(|&b| b > 0));
        let mut prev = 0;
        for k in 0..=encoded.num_scans() {
            let cum = encoded.cumulative_bytes(k);
            assert!(cum >= prev);
            prev = cum;
        }
        assert_eq!(encoded.total_bytes(), encoded.cumulative_bytes(5));
        assert!(encoded.read_fraction(1) < 1.0);
        assert!((encoded.read_fraction(5) - 1.0).abs() < 1e-12);
        // Requesting more scans than available saturates.
        assert_eq!(encoded.cumulative_bytes(99), encoded.total_bytes());
    }

    #[test]
    fn lower_quality_means_fewer_bytes() {
        let img = test_image(0.7);
        let high = ProgressiveImage::encode(&img, 95, ScanPlan::standard()).unwrap();
        let low = ProgressiveImage::encode(&img, 40, ScanPlan::standard()).unwrap();
        assert!(low.total_bytes() < high.total_bytes());
    }

    #[test]
    fn compression_beats_raw_storage() {
        let img = test_image(0.3);
        let encoded = ProgressiveImage::encode(&img, 75, ScanPlan::standard()).unwrap();
        assert!(encoded.total_bytes() < img.raw_byte_size());
    }

    #[test]
    fn decode_scan_out_of_range_is_rejected() {
        let img = test_image(0.5);
        let encoded = ProgressiveImage::encode(&img, 75, ScanPlan::standard()).unwrap();
        assert!(matches!(
            encoded.decode(6),
            Err(CodecError::ScanOutOfRange { requested: 6, available: 5 })
        ));
        assert_eq!(encoded.quality(), 75);
        assert_eq!(encoded.width(), 72);
        assert_eq!(encoded.height(), 56);
        assert_eq!(encoded.plan().len(), 5);
    }

    #[test]
    fn zero_scans_decodes_to_flat_image() {
        let img = test_image(0.5);
        let encoded = ProgressiveImage::encode(&img, 75, ScanPlan::standard()).unwrap();
        let flat = encoded.decode(0).unwrap();
        assert_eq!(flat.dimensions(), img.dimensions());
        // With no coefficients everything decodes to mid-grey after the +128 shift.
        let p = flat.pixel(10, 10);
        assert!((p[0] - p[1]).abs() < 0.05);
    }

    #[test]
    fn truncated_scan_data_is_detected() {
        let img = test_image(0.5);
        let mut encoded = ProgressiveImage::encode(&img, 75, ScanPlan::standard()).unwrap();
        // Truncate the last scan's bitstream hard (keep the table header plus a sliver).
        let scan = &mut encoded.scans[4];
        let keep = (scan.data.len() / 4).max(40);
        scan.data.truncate(keep);
        match encoded.decode(5) {
            Err(CodecError::TruncatedStream { .. }) | Err(CodecError::CorruptStream { .. }) => {}
            other => panic!("expected stream error, got {other:?}"),
        }
        // Earlier scans still decode fine.
        assert!(encoded.decode(3).is_ok());
    }

    #[test]
    fn dc_sum_outside_the_level_range_is_corrupt_not_wrapped() {
        // A hand-built DC scan over a 1032x1024 block grid (16 512 blocks per component):
        // one 1-bit code for the symbol "17 amplitude bits", every amplitude +131 071.
        // The running sum used to wrap silently to -1 through `as i16` at the first block,
        // and overflowed `i32` — a panic in debug builds — at block 16 384.
        let mut lengths = [0u8; 256];
        lengths[17] = 1;
        let code = HuffmanCode::from_lengths(lengths);
        let (blocks_x, blocks_y) = (129, 128);
        let mut data = Vec::new();
        code.write_table(&mut data);
        let mut writer = BitWriter::new();
        for _ in 0..COMPONENTS * blocks_x * blocks_y {
            code.encode(17, &mut writer);
            writer.write_bits((1 << 17) - 1, 17);
        }
        data.extend_from_slice(&writer.finish());
        let scan = EncodedScan { band: ScanBand::new(0, 0), data };
        let mut planes = CoefficientPlanes::zeroed(blocks_x, blocks_y);
        assert_eq!(
            decode_scan(&scan, 0, &mut planes, None),
            Err(CodecError::CorruptStream { scan: 0 })
        );

        // The extremes the encoder can produce still decode: levels alternating between
        // i16::MAX and i16::MIN are the largest differences there are, and every sum fits.
        let mut planes = CoefficientPlanes::zeroed(4, 2);
        for (c, blocks) in planes.blocks.iter_mut().enumerate() {
            for (b, block) in blocks.iter_mut().enumerate() {
                block[0] = if (b + c) % 2 == 0 { i16::MAX } else { i16::MIN };
            }
        }
        let scan = encode_scan(&planes, ScanBand::new(0, 0));
        let mut decoded = CoefficientPlanes::zeroed(4, 2);
        decode_scan(&scan, 0, &mut decoded, None).unwrap();
        assert_eq!(decoded.blocks, planes.blocks);
    }

    #[test]
    fn digest_follows_the_bytes_not_the_value() {
        let img = test_image(0.5);
        let encoded = ProgressiveImage::encode(&img, 75, ScanPlan::standard()).unwrap();
        let digest = encoded.digest();
        assert_eq!(encoded.clone().digest(), digest);
        let again = ProgressiveImage::encode(&img, 75, ScanPlan::standard()).unwrap();
        assert_eq!(again.digest(), digest, "equal streams share an address");

        // Everything a decode reads moves it: any stored bit (the damaged copies are
        // clones, so a digest memoised on the value would follow them), a scan's length,
        // bytes moved across a scan boundary, a band, the quality, the dimensions.
        let mut seen = std::collections::BTreeSet::from([digest]);
        for scan in 0..encoded.num_scans() {
            for (byte, bit) in [(0usize, 0u8), (7, 7), (8, 3), (usize::MAX, 5)] {
                assert!(seen.insert(encoded.with_bit_flip(scan, byte, bit).digest()));
            }
            let len = encoded.scans[scan].data.len();
            for keep in [0, 1, len - 9, len - 1] {
                assert!(seen.insert(encoded.with_truncated_scan(scan, keep).digest()));
            }
        }
        let mut edited = encoded.clone();
        let moved = edited.scans[1].data.remove(0);
        edited.scans[0].data.push(moved);
        assert!(seen.insert(edited.digest()));
        let mut edited = encoded.clone();
        edited.scans[1].data.push(0);
        assert!(seen.insert(edited.digest()), "a zero byte past the end is not padding");
        let mut edited = encoded.clone();
        edited.scans[2].band.end += 1;
        assert!(seen.insert(edited.digest()));
        let mut edited = encoded.clone();
        edited.quality += 1;
        assert!(seen.insert(edited.digest()));
        let mut edited = encoded.clone();
        (edited.width, edited.height) = (edited.height, edited.width);
        assert!(seen.insert(edited.digest()));
        let shorter = ProgressiveImage { scans: encoded.scans[..4].to_vec(), ..encoded.clone() };
        assert!(seen.insert(shorter.digest()));
    }

    #[test]
    fn invalid_quality_is_rejected() {
        let img = test_image(0.5);
        assert!(ProgressiveImage::encode(&img, 0, ScanPlan::standard()).is_err());
        assert!(ProgressiveImage::encode(&img, 101, ScanPlan::standard()).is_err());
    }

    #[test]
    fn non_multiple_of_eight_dimensions_round_trip() {
        let img = render_scene(&SceneSpec::new(37, 29, 5)).unwrap();
        let encoded = ProgressiveImage::encode(&img, 85, ScanPlan::standard()).unwrap();
        let decoded = encoded.decode(5).unwrap();
        assert_eq!(decoded.dimensions(), (37, 29));
        assert!(psnr(&img, &decoded).unwrap() > 24.0);
    }

    #[test]
    fn amplitude_coding_round_trips() {
        for v in [-1000, -255, -128, -1, 0, 1, 2, 31, 255, 1000] {
            let bits = magnitude_category(v);
            let enc = encode_amplitude(v, bits);
            assert_eq!(decode_amplitude(enc, bits), v, "value {v}");
        }
        assert_eq!(magnitude_category(0), 0);
        assert_eq!(magnitude_category(1), 1);
        assert_eq!(magnitude_category(-1), 1);
        assert_eq!(magnitude_category(255), 8);
    }

    #[test]
    fn custom_two_scan_plan_works() {
        let plan = ScanPlan::new(vec![ScanBand::new(0, 0), ScanBand::new(1, 63)]).unwrap();
        let img = test_image(0.5);
        let encoded = ProgressiveImage::encode(&img, 80, plan).unwrap();
        assert_eq!(encoded.num_scans(), 2);
        let full = encoded.decode(2).unwrap();
        assert!(ssim(&img, &full).unwrap() > 0.85);
    }

    /// The luma and chroma tables at the qualities the exactness tests sweep.
    fn tables_under_test() -> Vec<(String, QuantTable)> {
        [1u8, 50, 90, 100]
            .into_iter()
            .flat_map(|quality| {
                [
                    (format!("luma q{quality}"), QuantTable::luma(quality).unwrap()),
                    (format!("chroma q{quality}"), QuantTable::chroma(quality).unwrap()),
                ]
            })
            .collect()
    }

    #[test]
    fn dc_only_blocks_match_the_full_transform_for_every_level() {
        for (name, table) in tables_under_test() {
            for level in i16::MIN..=i16::MAX {
                let mut levels = [0i16; BLOCK_AREA];
                levels[0] = level;
                let Some(sample) = flat_sample(&levels, &table) else {
                    panic!("{name}, DC {level}: a DC-only block must reconstruct flat");
                };
                let full = inverse_dct(&table.dequantize(&levels));
                for (i, value) in full.iter().enumerate() {
                    assert_eq!(
                        sample.to_bits(),
                        value.to_bits(),
                        "{name}, DC {level}: sample {i} ({sample} vs {value})"
                    );
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        #[test]
        fn sparse_blocks_match_the_full_transform(
            corner in 1usize..9,
            quality in 1u8..=100,
            chroma in 0u8..2,
            seed in 1u64..u64::MAX,
        ) {
            let table =
                if chroma == 1 { QuantTable::chroma(quality) } else { QuantTable::luma(quality) }
                    .unwrap();
            // Levels inside the `corner × corner` top-left square: a quarter zero, a quarter
            // small, half anywhere in ±32767.
            let mut rng = crate::Xorshift(seed);
            let mut levels = [0i16; BLOCK_AREA];
            for v in 0..corner {
                for u in 0..corner {
                    let draw = rng.next();
                    let magnitude = draw >> 8;
                    levels[v * BLOCK + u] = match draw % 4 {
                        0 => 0,
                        1 => (magnitude % 17) as i16 - 8,
                        _ => ((magnitude % 65535) as i32 - 32767) as i16,
                    };
                }
            }
            let coeffs = table.dequantize(&levels);
            let full = inverse_dct_reference(&coeffs);
            let mut paths = vec![inverse_dct(&coeffs), block_samples(&levels, &table)];
            if let Some(sample) = flat_sample(&levels, &table) {
                paths.push([sample; BLOCK_AREA]);
            }
            if corner <= 4 {
                paths.push(inverse_dct_corner::<4>(&coeffs));
            }
            for samples in paths {
                for i in 0..BLOCK_AREA {
                    proptest::prop_assert_eq!(samples[i].to_bits(), full[i].to_bits());
                }
            }
        }
    }

    /// Every block through the plain per-pixel path: the scalar 8×8 reference transform of
    /// each component, then `pixel_from_samples` pixel by pixel.
    fn reconstruct_per_pixel(planes: &CoefficientPlanes, frame: &mut Image, quality: u8) {
        let luma_table = QuantTable::luma(quality).unwrap();
        let chroma_table = QuantTable::chroma(quality).unwrap();
        for block in 0..planes.blocks_x * planes.blocks_y {
            let spatial: [[f32; BLOCK_AREA]; COMPONENTS] = std::array::from_fn(|c| {
                let table = if c == 0 { &luma_table } else { &chroma_table };
                inverse_dct_reference(&table.dequantize(&planes.blocks[c][block]))
            });
            let (x0, y0) = ((block % planes.blocks_x) * BLOCK, (block / planes.blocks_x) * BLOCK);
            for y in y0..(y0 + BLOCK).min(frame.height()) {
                for x in x0..(x0 + BLOCK).min(frame.width()) {
                    let i = (y - y0) * BLOCK + x - x0;
                    let pixel = pixel_from_samples([spatial[0][i], spatial[1][i], spatial[2][i]]);
                    frame.set_pixel(x, y, pixel);
                }
            }
        }
    }

    #[test]
    fn decode_matches_the_per_pixel_full_transform_for_every_prefix() {
        for (width, height, quality, detail) in
            [(61usize, 45usize, 90u8, 0.9), (45, 61, 40, 0.5), (16, 9, 100, 1.0)]
        {
            let img = render_scene(
                &SceneSpec::new(width, height, 5).with_detail(detail).with_seed(quality.into()),
            )
            .unwrap();
            let encoded = ProgressiveImage::encode(&img, quality, ScanPlan::standard()).unwrap();
            let mut planes =
                CoefficientPlanes::zeroed(width.div_ceil(BLOCK), height.div_ceil(BLOCK));
            for scans in 0..=encoded.num_scans() {
                if scans > 0 {
                    decode_scan(&encoded.scans()[scans - 1], scans - 1, &mut planes, None).unwrap();
                }
                let mut expected = Image::zeros(width, height).unwrap();
                reconstruct_per_pixel(&planes, &mut expected, quality);
                let decoded = encoded.decode(scans).unwrap();
                for (i, (a, b)) in decoded.as_planar().iter().zip(expected.as_planar()).enumerate()
                {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{width}x{height} q{quality}, {scans} scans: sample {i} ({a} vs {b})"
                    );
                }
            }
        }
    }

    /// The corner sides `refresh_block` dispatches to.
    const SIDES: [usize; 5] = [1, 2, 3, 4, 8];

    /// Seeds of `refresh_block` cases that failed once; each is re-checked on every run.
    ///
    /// * `0x4c44_f3bc_0d6c_7267`: a 2 × 1 window at `(10, 17)` of a 19 × 18 image, cutting
    ///   an edge block on both axes, at quality 1. It failed against two deliberately
    ///   broken copies of the refresh (mutation checks): a clipped row copied from the
    ///   block's first column instead of the window's, and 3-corner components
    ///   transformed over the 2-corner only.
    const REFRESH_REGRESSION_SEEDS: [u64; 1] = [0x4c44_f3bc_0d6c_7267];

    /// Levels whose support reaches exactly `extent` (the largest `max(row, column) + 1`
    /// over the non-zero levels; 0 is an all-zero block): one non-zero level on the ring
    /// `extent - 1`, random ones inside it, every magnitude at most 127.
    fn levels_with_extent(rng: &mut crate::Xorshift, extent: usize) -> [i16; BLOCK_AREA] {
        let mut levels = [0i16; BLOCK_AREA];
        if extent == 0 {
            return levels;
        }
        for v in 0..extent {
            for u in 0..extent {
                if rng.below(2) == 0 {
                    levels[v * BLOCK + u] = rng.below(255) as i16 - 127;
                }
            }
        }
        let (ring, along) = (extent - 1, rng.below(extent as u64) as usize);
        let (v, u) = if rng.below(2) == 0 { (ring, along) } else { (along, ring) };
        let magnitude = 1 + rng.below(127) as i16;
        levels[v * BLOCK + u] = if rng.below(2) == 0 { magnitude } else { -magnitude };
        levels
    }

    /// One block of a 3 × 3 block grid through `refresh_block`, against the scalar 8×8
    /// reference transform of each component and a per-pixel `pixel_from_samples`.
    ///
    /// One component's support lies exactly on a corner boundary of [`SIDES`] or one past
    /// it, so the dispatch must pick exactly that corner or the next one; the others are
    /// drawn from every extent. The quality is 1, 50, 90 or 100 (component 0 takes the
    /// luma table, 1 and 2 the chroma one); the image stops short of the grid by up to 7
    /// pixels on each axis, and the window is any rectangle of the image, so edge blocks
    /// are clipped by the image and the window alike. Pixels of the window outside the
    /// block must keep the frame's fill. Finally, the corner just below the chosen one — a
    /// deliberately wrong mask, which drops the support's last ring — must not reproduce
    /// the reference samples, so a dispatch that picked it would fail here.
    fn check_refresh(seed: u64) -> std::result::Result<(), String> {
        let mut rng = crate::Xorshift((seed ^ 0x2545_f491_4f6c_dd1d).max(1));
        let quality = [1u8, 50, 90, 100][rng.below(4) as usize];
        let luma = QuantTable::luma(quality).unwrap();
        let chroma = QuantTable::chroma(quality).unwrap();
        let table = |c: usize| if c == 0 { &luma } else { &chroma };
        let width = 3 * BLOCK - rng.below(8) as usize;
        let height = 3 * BLOCK - rng.below(8) as usize;
        let block = rng.below(9) as usize;
        let tested = rng.below(3) as usize;
        let boundary = SIDES[rng.below(5) as usize];
        let extent = boundary + usize::from(boundary < BLOCK && rng.below(2) == 0);
        let mut planes = CoefficientPlanes::zeroed(3, 3);
        for (c, blocks) in planes.blocks.iter_mut().enumerate() {
            let drawn = if c == tested { extent } else { rng.below(9) as usize };
            blocks[block] = levels_with_extent(&mut rng, drawn);
        }
        let context = format!(
            "seed {seed:#x}: q{quality}, {width}x{height}, block {block}, component {tested} \
             with extent {extent}"
        );
        let levels = &planes.blocks[tested][block];
        let side = *SIDES.iter().find(|&&side| side >= extent).unwrap();
        if support_side(levels) != side {
            return Err(format!("{context}: dispatched to {} not {side}", support_side(levels)));
        }

        let x0 = rng.below(width as u64) as usize;
        let y0 = rng.below(height as u64) as usize;
        let window = CropWindow {
            x0,
            y0,
            width: 1 + rng.below((width - x0) as u64) as usize,
            height: 1 + rng.below((height - y0) as u64) as usize,
        };
        let fill = [-1.0f32; 3];
        let mut frame = Image::filled(window.width, window.height, fill).unwrap();
        refresh_block(&planes, (block % 3, block / 3), &luma, &chroma, &mut frame, window);

        let reference: [[f32; BLOCK_AREA]; COMPONENTS] = std::array::from_fn(|c| {
            inverse_dct_reference(&table(c).dequantize(&planes.blocks[c][block]))
        });
        let (bx, by) = ((block % 3) * BLOCK, (block / 3) * BLOCK);
        for y in 0..window.height {
            for x in 0..window.width {
                let (ix, iy) = (window.x0 + x, window.y0 + y);
                let expected = if (bx..bx + BLOCK).contains(&ix) && (by..by + BLOCK).contains(&iy) {
                    let i = (iy - by) * BLOCK + ix - bx;
                    pixel_from_samples(reference.map(|samples| samples[i]))
                } else {
                    fill
                };
                if frame.pixel(x, y).map(f32::to_bits) != expected.map(f32::to_bits) {
                    return Err(format!(
                        "{context}, {window:?}: pixel ({ix}, {iy}) is {:?}, expected {expected:?}",
                        frame.pixel(x, y)
                    ));
                }
            }
        }

        if let Some(&wrong) = SIDES.iter().rev().find(|&&smaller| smaller < side) {
            let t = dct_tables();
            let mut columns = [[0.0f32; BLOCK]; BLOCK];
            corner_columns(t, &mut columns, wrong, levels, table(tested));
            let exact = (0..BLOCK).all(|y| {
                let row = inverse_dct_row(t, &columns, wrong, y);
                row.iter()
                    .zip(&reference[tested][y * BLOCK..])
                    .all(|(a, b)| a.to_bits() == b.to_bits())
            });
            if exact {
                return Err(format!("{context}: the {wrong}-corner mask went unnoticed"));
            }
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(1024))]

        #[test]
        fn refresh_block_dispatches_every_support_to_an_exact_corner(seed in 0u64..u64::MAX) {
            let outcome = check_refresh(seed);
            proptest::prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
        }
    }

    #[test]
    fn refresh_regression_seeds_match_the_reference() {
        for seed in REFRESH_REGRESSION_SEEDS {
            check_refresh(seed).unwrap();
        }
    }
}
