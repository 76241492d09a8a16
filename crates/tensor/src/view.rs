//! Borrowed NCHW views: what every `_into` kernel reads and writes.
//!
//! A view is a [`Shape`] over a slice of exactly its volume, borrowed from a
//! [`Tensor`] or from an [`ActivationArena`](crate::ActivationArena) slot
//! buffer that may be longer than the activation it holds. The kernels take
//! `impl Into<TensorView>` / `impl Into<TensorViewMut>`, so `&Tensor` and
//! `&mut Tensor` still work.

use crate::error::{Result, TensorError};
use crate::shape::Shape;
use crate::tensor::Tensor;

/// A read-only NCHW view of `shape.volume()` borrowed values.
#[derive(Debug, Clone, Copy)]
pub struct TensorView<'a> {
    shape: Shape,
    data: &'a [f32],
}

/// A writable NCHW view of `shape.volume()` borrowed values.
#[derive(Debug)]
pub struct TensorViewMut<'a> {
    shape: Shape,
    data: &'a mut [f32],
}

/// Rejects a slice whose length is not the shape's volume.
fn check_len(shape: Shape, actual: usize) -> Result<()> {
    let expected = shape.volume();
    (expected == actual).then_some(()).ok_or(TensorError::LengthMismatch { expected, actual })
}

impl<'a> TensorView<'a> {
    /// A view of `data` as a `shape` activation.
    ///
    /// # Errors
    /// Returns [`TensorError::LengthMismatch`] if `data.len() != shape.volume()`.
    pub fn new(shape: Shape, data: &'a [f32]) -> Result<Self> {
        check_len(shape, data.len())?;
        Ok(TensorView { shape, data })
    }

    /// The view's shape.
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// The viewed values.
    pub fn as_slice(&self) -> &'a [f32] {
        self.data
    }

    /// The channel plane `(n, c)`, `h * w` values.
    pub fn plane(&self, n: usize, c: usize) -> &'a [f32] {
        &self.data[self.shape.offset(n, c, 0, 0)..][..self.shape.h * self.shape.w]
    }
}

impl<'a> TensorViewMut<'a> {
    /// A writable view of `data` as a `shape` activation.
    ///
    /// # Errors
    /// Returns [`TensorError::LengthMismatch`] if `data.len() != shape.volume()`.
    pub fn new(shape: Shape, data: &'a mut [f32]) -> Result<Self> {
        check_len(shape, data.len())?;
        Ok(TensorViewMut { shape, data })
    }

    /// The view's shape.
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// The viewed values.
    pub fn as_slice(&self) -> &[f32] {
        self.data
    }

    /// The viewed values, writable.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        self.data
    }

    /// The channel plane `(n, c)`, `h * w` values.
    pub fn plane(&self, n: usize, c: usize) -> &[f32] {
        &self.data[self.shape.offset(n, c, 0, 0)..][..self.shape.h * self.shape.w]
    }

    /// The channel plane `(n, c)`, writable.
    pub fn plane_mut(&mut self, n: usize, c: usize) -> &mut [f32] {
        &mut self.data[self.shape.offset(n, c, 0, 0)..][..self.shape.h * self.shape.w]
    }
}

impl<'a> From<&'a Tensor> for TensorView<'a> {
    fn from(tensor: &'a Tensor) -> Self {
        TensorView { shape: tensor.shape(), data: tensor.as_slice() }
    }
}

impl<'a> From<&'a mut Tensor> for TensorViewMut<'a> {
    fn from(tensor: &'a mut Tensor) -> Self {
        TensorViewMut { shape: tensor.shape(), data: tensor.as_mut_slice() }
    }
}

/// The one shape check of the `_into` kernels: the output, and the residual
/// when there is one, must have the shape `expected` the operation produces.
pub(crate) fn validate_into(
    op: &'static str,
    expected: Shape,
    out: Shape,
    residual: Option<Shape>,
) -> Result<()> {
    match std::iter::once(out).chain(residual).find(|&shape| shape != expected) {
        None => Ok(()),
        Some(shape) => Err(TensorError::ShapeMismatch {
            left: shape.as_array().to_vec(),
            right: expected.as_array().to_vec(),
            op,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn views_reject_a_slice_that_is_not_the_shape_volume() {
        let shape = Shape::chw(2, 3, 3);
        let mut data = vec![0.0f32; 19];
        let short = TensorView::new(shape, &data[..17]);
        assert!(matches!(short, Err(TensorError::LengthMismatch { expected: 18, actual: 17 })));
        assert!(TensorView::new(shape, &data).is_err(), "a longer slice is rejected too");
        assert!(TensorViewMut::new(shape, &mut data).is_err());
        assert!(TensorViewMut::new(shape, &mut data[..0]).is_err());
        let mut view = TensorViewMut::new(shape, &mut data[..18]).unwrap();
        view.plane_mut(0, 1).fill(1.0);
        assert_eq!((view.plane(0, 1), view.plane(0, 0)), (&[1.0; 9][..], &[0.0; 9][..]));
    }
}
