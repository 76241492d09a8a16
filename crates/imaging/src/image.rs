//! Planar RGB image representation.

use serde::{Deserialize, Serialize};

use rescnn_tensor::{Shape, Tensor};

use crate::error::{ImagingError, Result};

/// Per-channel normalization constants used when converting an image to a model input
/// tensor. Defaults follow the ImageNet convention.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Normalization {
    /// Per-channel mean subtracted from the `[0, 1]` pixel values.
    pub mean: [f32; 3],
    /// Per-channel standard deviation dividing the centred pixel values.
    pub std: [f32; 3],
}

impl Default for Normalization {
    fn default() -> Self {
        Normalization { mean: [0.485, 0.456, 0.406], std: [0.229, 0.224, 0.225] }
    }
}

impl Normalization {
    /// The identity normalization (no centring or scaling).
    pub const fn identity() -> Self {
        Normalization { mean: [0.0; 3], std: [1.0; 3] }
    }
}

/// A planar (channel-major) RGB image with `f32` samples in `[0, 1]`.
///
/// The planar layout matches the NCHW tensor layout used by the models, making the
/// image ⇄ tensor conversion a copy rather than a transpose.
///
/// # Examples
/// ```
/// use rescnn_imaging::Image;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let img = Image::filled(32, 24, [0.2, 0.4, 0.6])?;
/// assert_eq!(img.width(), 32);
/// assert_eq!(img.pixel(0, 0), [0.2, 0.4, 0.6]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Image {
    width: usize,
    height: usize,
    /// Planar data: `[R plane | G plane | B plane]`, each plane `height * width` row-major.
    data: Vec<f32>,
}

impl Image {
    /// Number of colour channels (always 3).
    pub const CHANNELS: usize = 3;

    /// Creates a black image.
    ///
    /// # Errors
    /// Returns [`ImagingError::EmptyImage`] if either dimension is zero.
    pub fn zeros(width: usize, height: usize) -> Result<Self> {
        if width == 0 || height == 0 {
            return Err(ImagingError::EmptyImage);
        }
        Ok(Image { width, height, data: vec![0.0; width * height * Self::CHANNELS] })
    }

    /// Creates an image filled with a constant colour.
    ///
    /// # Errors
    /// Returns [`ImagingError::EmptyImage`] if either dimension is zero.
    pub fn filled(width: usize, height: usize, rgb: [f32; 3]) -> Result<Self> {
        if width == 0 || height == 0 {
            return Err(ImagingError::EmptyImage);
        }
        // Each sample is written once: no zero-fill ahead of the colour.
        let plane = width * height;
        let mut data = Vec::with_capacity(plane * Self::CHANNELS);
        for value in rgb {
            data.resize(data.len() + plane, value);
        }
        Ok(Image { width, height, data })
    }

    /// Creates an image from a planar buffer (`3 * width * height` samples).
    ///
    /// # Errors
    /// Returns an error if the dimensions are zero or the buffer length does not match.
    pub fn from_planar(width: usize, height: usize, data: Vec<f32>) -> Result<Self> {
        if width == 0 || height == 0 {
            return Err(ImagingError::EmptyImage);
        }
        let expected = width * height * Self::CHANNELS;
        if data.len() != expected {
            return Err(ImagingError::BufferMismatch { expected, actual: data.len() });
        }
        Ok(Image { width, height, data })
    }

    /// Creates an image by evaluating `f(x, y) -> [r, g, b]` at every pixel.
    ///
    /// # Errors
    /// Returns [`ImagingError::EmptyImage`] if either dimension is zero.
    pub fn from_fn<F: FnMut(usize, usize) -> [f32; 3]>(
        width: usize,
        height: usize,
        mut f: F,
    ) -> Result<Self> {
        let mut img = Image::zeros(width, height)?;
        for y in 0..height {
            img.set_row_with(y, 0..width, |x| f(x, y));
        }
        Ok(img)
    }

    /// Image width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// `(width, height)` pair.
    pub fn dimensions(&self) -> (usize, usize) {
        (self.width, self.height)
    }

    /// Total number of pixels.
    pub fn pixel_count(&self) -> usize {
        self.width * self.height
    }

    /// Immutable access to one colour plane.
    ///
    /// # Panics
    /// Panics if `channel >= 3`.
    pub fn plane(&self, channel: usize) -> &[f32] {
        assert!(channel < Self::CHANNELS, "channel out of range");
        let size = self.width * self.height;
        &self.data[channel * size..(channel + 1) * size]
    }

    /// Mutable access to one colour plane.
    ///
    /// # Panics
    /// Panics if `channel >= 3`.
    #[inline]
    pub fn plane_mut(&mut self, channel: usize) -> &mut [f32] {
        assert!(channel < Self::CHANNELS, "channel out of range");
        let size = self.width * self.height;
        &mut self.data[channel * size..(channel + 1) * size]
    }

    /// The full planar sample buffer.
    pub fn as_planar(&self) -> &[f32] {
        &self.data
    }

    /// Reads the pixel at `(x, y)`.
    ///
    /// # Panics
    /// Panics if the coordinate is out of bounds.
    #[inline]
    pub fn pixel(&self, x: usize, y: usize) -> [f32; 3] {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        let size = self.width * self.height;
        let idx = y * self.width + x;
        [self.data[idx], self.data[size + idx], self.data[2 * size + idx]]
    }

    /// Writes the pixel at `(x, y)`.
    ///
    /// # Panics
    /// Panics if the coordinate is out of bounds.
    #[inline]
    pub fn set_pixel(&mut self, x: usize, y: usize, rgb: [f32; 3]) {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        let size = self.width * self.height;
        let idx = y * self.width + x;
        self.data[idx] = rgb[0];
        self.data[size + idx] = rgb[1];
        self.data[2 * size + idx] = rgb[2];
    }

    /// Writes `f(x)` to the pixels `xs` of row `y`, in ascending `x` — the same stores as
    /// [`set_pixel`](Self::set_pixel) per pixel, with one bounds check for the whole run.
    ///
    /// # Panics
    /// Panics if the row or the column range is out of bounds.
    pub fn set_row_with<F: FnMut(usize) -> [f32; 3]>(
        &mut self,
        y: usize,
        xs: std::ops::Range<usize>,
        mut f: F,
    ) {
        assert!(y < self.height && xs.end <= self.width, "pixel out of bounds");
        let size = self.width * self.height;
        let row = y * self.width;
        let (red, rest) = self.data.split_at_mut(size);
        let (green, blue) = rest.split_at_mut(size);
        let run = row + xs.start.min(xs.end)..row + xs.end;
        let samples = red[run.clone()].iter_mut().zip(&mut green[run.clone()]).zip(&mut blue[run]);
        for (x, ((r, g), b)) in xs.zip(samples) {
            [*r, *g, *b] = f(x);
        }
    }

    /// Clamps all samples into `[0, 1]`.
    pub fn clamp(&mut self) {
        for v in &mut self.data {
            *v = v.clamp(0.0, 1.0);
        }
    }

    /// Returns the luma (Rec. 601) plane of the image.
    pub fn to_luma(&self) -> Vec<f32> {
        let size = self.width * self.height;
        let (r, g, b) = (&self.data[..size], &self.data[size..2 * size], &self.data[2 * size..]);
        r.iter().zip(g).zip(b).map(|((&r, &g), &b)| 0.299 * r + 0.587 * g + 0.114 * b).collect()
    }

    /// Converts the image into a `1 × 3 × H × W` tensor with the given normalization.
    pub fn to_tensor(&self, norm: &Normalization) -> Tensor {
        let shape = Shape::new(1, Self::CHANNELS, self.height, self.width);
        let mut data = Vec::with_capacity(shape.volume());
        for c in 0..Self::CHANNELS {
            for &v in self.plane(c) {
                data.push((v - norm.mean[c]) / norm.std[c]);
            }
        }
        Tensor::from_vec(shape, data).expect("planar image buffer always matches its shape")
    }

    /// Builds an image from a `1 × 3 × H × W` (or `3 × H × W`-shaped) tensor, undoing the
    /// normalization and clamping to `[0, 1]`.
    ///
    /// # Errors
    /// Returns an error if the tensor does not have exactly three channels or has a batch
    /// dimension larger than one.
    pub fn from_tensor(tensor: &Tensor, norm: &Normalization) -> Result<Self> {
        let shape = tensor.shape();
        if shape.n != 1 || shape.c != Self::CHANNELS {
            return Err(ImagingError::BufferMismatch {
                expected: Self::CHANNELS,
                actual: shape.n * shape.c,
            });
        }
        let mut img = Image::zeros(shape.w, shape.h)?;
        for c in 0..Self::CHANNELS {
            let src = tensor.plane(0, c);
            let dst = img.plane_mut(c);
            for (d, &s) in dst.iter_mut().zip(src) {
                *d = (s * norm.std[c] + norm.mean[c]).clamp(0.0, 1.0);
            }
        }
        Ok(img)
    }

    /// Mean absolute per-sample difference between two images of identical dimensions.
    ///
    /// # Errors
    /// Returns [`ImagingError::DimensionMismatch`] if dimensions differ.
    pub fn mean_abs_diff(&self, other: &Image) -> Result<f32> {
        if self.dimensions() != other.dimensions() {
            return Err(ImagingError::DimensionMismatch {
                first: self.dimensions(),
                second: other.dimensions(),
            });
        }
        let sum: f32 = self.data.iter().zip(&other.data).map(|(a, b)| (a - b).abs()).sum();
        Ok(sum / self.data.len() as f32)
    }

    /// Approximate in-memory/storage footprint of the raw image in bytes (8-bit RGB).
    pub fn raw_byte_size(&self) -> u64 {
        (self.width * self.height * Self::CHANNELS) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_pixel_access() {
        let mut img = Image::zeros(4, 3).unwrap();
        assert_eq!(img.dimensions(), (4, 3));
        assert_eq!(img.pixel_count(), 12);
        img.set_pixel(2, 1, [0.1, 0.2, 0.3]);
        assert_eq!(img.pixel(2, 1), [0.1, 0.2, 0.3]);
        assert_eq!(img.pixel(0, 0), [0.0, 0.0, 0.0]);
        assert_eq!(img.raw_byte_size(), 36);
    }

    #[test]
    fn zero_dimension_rejected() {
        assert!(Image::zeros(0, 4).is_err());
        assert!(Image::zeros(4, 0).is_err());
        assert!(Image::from_planar(0, 0, vec![]).is_err());
    }

    #[test]
    fn from_planar_validates_length() {
        assert!(Image::from_planar(2, 2, vec![0.0; 12]).is_ok());
        assert!(Image::from_planar(2, 2, vec![0.0; 11]).is_err());
    }

    #[test]
    fn filled_and_from_fn() {
        let img = Image::filled(3, 3, [1.0, 0.5, 0.25]).unwrap();
        assert_eq!(img.pixel(2, 2), [1.0, 0.5, 0.25]);
        let grad = Image::from_fn(4, 2, |x, _| [x as f32 / 4.0, 0.0, 0.0]).unwrap();
        assert_eq!(grad.pixel(3, 1)[0], 0.75);
    }

    #[test]
    fn set_row_with_writes_exactly_the_run() {
        let mut img = Image::zeros(5, 3).unwrap();
        img.set_row_with(1, 1..4, |x| [x as f32, 10.0 + x as f32, 20.0 + x as f32]);
        for y in 0..3 {
            for x in 0..5 {
                let expected = if y == 1 && (1..4).contains(&x) {
                    [x as f32, 10.0 + x as f32, 20.0 + x as f32]
                } else {
                    [0.0; 3]
                };
                assert_eq!(img.pixel(x, y), expected, "({x}, {y})");
            }
        }
        img.set_row_with(2, 3..3, |_| unreachable!("an empty run writes nothing"));
    }

    #[test]
    #[should_panic(expected = "pixel out of bounds")]
    fn set_row_with_rejects_runs_past_the_row() {
        Image::zeros(4, 2).unwrap().set_row_with(0, 2..5, |_| [0.0; 3]);
    }

    #[test]
    fn luma_weights() {
        let img = Image::filled(2, 2, [1.0, 1.0, 1.0]).unwrap();
        let luma = img.to_luma();
        assert!(luma.iter().all(|&v| (v - 1.0).abs() < 1e-5));
        let red = Image::filled(1, 1, [1.0, 0.0, 0.0]).unwrap();
        assert!((red.to_luma()[0] - 0.299).abs() < 1e-5);
    }

    #[test]
    fn tensor_round_trip() {
        let img =
            Image::from_fn(6, 5, |x, y| [x as f32 / 6.0, y as f32 / 5.0, ((x + y) % 2) as f32])
                .unwrap();
        let norm = Normalization::default();
        let t = img.to_tensor(&norm);
        assert_eq!(t.shape(), Shape::new(1, 3, 5, 6));
        let back = Image::from_tensor(&t, &norm).unwrap();
        assert!(img.mean_abs_diff(&back).unwrap() < 1e-5);
    }

    #[test]
    fn from_tensor_rejects_bad_shapes() {
        let t = Tensor::zeros(Shape::new(1, 4, 2, 2));
        assert!(Image::from_tensor(&t, &Normalization::identity()).is_err());
        let t = Tensor::zeros(Shape::new(2, 3, 2, 2));
        assert!(Image::from_tensor(&t, &Normalization::identity()).is_err());
    }

    #[test]
    fn diff_requires_same_dims() {
        let a = Image::zeros(2, 2).unwrap();
        let b = Image::zeros(3, 2).unwrap();
        assert!(a.mean_abs_diff(&b).is_err());
        assert_eq!(a.mean_abs_diff(&a).unwrap(), 0.0);
    }

    #[test]
    fn clamp_bounds_samples() {
        let mut img = Image::filled(2, 2, [2.0, -1.0, 0.5]).unwrap();
        img.clamp();
        assert_eq!(img.pixel(0, 0), [1.0, 0.0, 0.5]);
    }

    #[test]
    #[should_panic(expected = "pixel out of bounds")]
    fn out_of_bounds_pixel_panics() {
        let img = Image::zeros(2, 2).unwrap();
        let _ = img.pixel(2, 0);
    }
}
