//! Reusable activation-tensor arena.
//!
//! The engine's [`scratch`](crate::scratch) pool recycles *kernel working
//! memory* (packed panels, im2col stripes); this module recycles the much
//! larger *activation tensors* a network forward pass produces — one fresh
//! `vec![0.0; C*H*W]` per layer in the unmanaged path, which at 448² inputs
//! means hundreds of megabytes of allocate + memset per ResNet-50 forward.
//!
//! An [`ActivationArena`] hands out [`Tensor`]s backed by retired buffers
//! (best-fit by capacity, **without** zeroing — see [`ActivationArena::take`])
//! and takes them back with [`ActivationArena::give`]. A model runs its whole
//! forward out of one arena: after a warm-up pass at each served resolution
//! bucket, steady-state forwards perform zero heap allocations for
//! activations. Allocation misses advance the same process-wide counter as the
//! scratch pool ([`crate::scratch::heap_allocations`]), so one counter pins the
//! engine's entire zero-allocation property.
//!
//! Buffer reuse is pure memory recycling — it never changes computed values —
//! so arena-backed execution is bitwise identical to fresh-allocation
//! execution.

use std::cell::RefCell;

use crate::scratch;
use crate::shape::Shape;
use crate::tensor::Tensor;

/// Maximum retired buffers an arena retains; beyond this the smallest retired
/// buffer is dropped in favour of larger ones (mixed-resolution serving keeps
/// the per-bucket maxima resident).
const MAX_SLOTS: usize = 24;

/// A pool of retired activation buffers, reused best-fit by capacity.
///
/// # Examples
/// ```
/// use rescnn_tensor::{ActivationArena, Shape};
///
/// let mut arena = ActivationArena::new();
/// let a = arena.take(Shape::chw(8, 16, 16));
/// arena.give(a);
/// let b = arena.take(Shape::chw(4, 16, 16)); // reuses the retired buffer
/// assert_eq!(b.shape().volume(), 4 * 16 * 16);
/// # drop(b);
/// ```
#[derive(Debug, Default)]
pub struct ActivationArena {
    slots: Vec<Vec<f32>>,
    /// Bytes of activations currently checked out (taken and not yet given
    /// back). Pure bookkeeping — never allocates.
    live_bytes: usize,
    /// High-water mark of [`live_bytes`](Self::live_bytes) since the last
    /// [`reset_peak`](Self::reset_peak).
    peak_live_bytes: usize,
}

impl ActivationArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a tensor of the given shape backed by a recycled buffer when one
    /// is large enough (best fit), allocating otherwise (which advances
    /// [`crate::scratch::heap_allocations`]).
    ///
    /// **Contents are unspecified** — recycled buffers are *not* zeroed (that
    /// memset is part of what the arena saves). Every consumer must overwrite
    /// the full tensor; all engine kernels' `_into` variants do.
    pub fn take(&mut self, shape: Shape) -> Tensor {
        let len = shape.volume();
        // Best fit: the smallest retired buffer that is large enough, so one
        // high-resolution buffer is not burned on a low-resolution request.
        let position = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, buffer)| buffer.capacity() >= len)
            .min_by_key(|(_, buffer)| buffer.capacity())
            .map(|(index, _)| index);
        let mut buffer = match position {
            Some(index) => self.slots.swap_remove(index),
            None => {
                scratch::record_external_allocation();
                #[cfg(test)]
                tests::MISSES_ON_THIS_THREAD.with(|misses| misses.set(misses.get() + 1));
                Vec::with_capacity(len)
            }
        };
        // Truncate-then-resize initializes only the region beyond the buffer's
        // previous length; the (stale) prefix is already-initialized memory.
        if buffer.len() > len {
            buffer.truncate(len);
        }
        if buffer.len() < len {
            buffer.resize(len, 0.0);
        }
        self.live_bytes += len * std::mem::size_of::<f32>();
        self.peak_live_bytes = self.peak_live_bytes.max(self.live_bytes);
        Tensor::from_vec(shape, buffer).expect("buffer sized to the shape's volume")
    }

    /// Returns a tensor's buffer to the arena for reuse.
    pub fn give(&mut self, tensor: Tensor) {
        // Saturating: tensors not taken from this arena may legitimately be
        // retired into it (warm-up paths); accounting must never underflow.
        self.live_bytes =
            self.live_bytes.saturating_sub(tensor.shape().volume() * std::mem::size_of::<f32>());
        let buffer = tensor.into_vec();
        if buffer.capacity() == 0 {
            return;
        }
        if self.slots.len() < MAX_SLOTS {
            self.slots.push(buffer);
        } else if let Some(smallest) =
            self.slots.iter().enumerate().min_by_key(|(_, b)| b.capacity()).map(|(i, _)| i)
        {
            if self.slots[smallest].capacity() < buffer.capacity() {
                self.slots[smallest] = buffer;
            }
        }
    }

    /// Pre-populates the arena so a forward pass planned to use buffers of
    /// exactly these element counts will not allocate: takes every size (in the
    /// given order, allocating on miss) and retires them all.
    pub fn reserve(&mut self, sizes: &[usize]) {
        let tensors: Vec<Tensor> =
            sizes.iter().map(|&len| self.take(Shape::new(1, 1, 1, len.max(1)))).collect();
        for tensor in tensors {
            self.give(tensor);
        }
    }

    /// Number of retired buffers currently held.
    pub fn slots(&self) -> usize {
        self.slots.len()
    }

    /// Bytes resident across all retired buffers.
    pub fn resident_bytes(&self) -> usize {
        self.slots.iter().map(|b| b.capacity() * std::mem::size_of::<f32>()).sum()
    }

    /// Bytes of activations currently checked out of the arena.
    pub fn live_bytes(&self) -> usize {
        self.live_bytes
    }

    /// High-water mark of simultaneously-live activation bytes since the last
    /// [`reset_peak`](Self::reset_peak) (or arena creation). This is the
    /// measured counterpart of a planned peak (`ArenaPlan::peak_live_bytes` in
    /// `rescnn-models`), and what a memory-budgeted admission controller
    /// ultimately bounds.
    pub fn peak_live_bytes(&self) -> usize {
        self.peak_live_bytes
    }

    /// Restarts peak tracking from the current live level.
    pub fn reset_peak(&mut self) {
        self.peak_live_bytes = self.live_bytes;
    }
}

thread_local! {
    static THREAD_ARENA: RefCell<ActivationArena> = RefCell::new(ActivationArena::new());
}

/// Runs `f` against the calling thread's persistent [`ActivationArena`].
///
/// Model forward passes route through this: on the engine's persistent worker
/// pool, worker threads — and therefore their arenas — survive across requests,
/// so batched serving reaches the zero-allocation steady state on every thread.
///
/// # Panics
/// Panics if called reentrantly from inside `f` (the arena is exclusively
/// borrowed for the extent of the call).
pub fn with_thread_arena<R>(f: impl FnOnce(&mut ActivationArena) -> R) -> R {
    THREAD_ARENA.with(|cell| f(&mut cell.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;

    thread_local! {
        /// Allocations `take` has made on the calling thread. The zero-delta assertions
        /// below count here: [`scratch::heap_allocations`] is process-wide, and the rest
        /// of this binary's tests allocate on their own threads while these run.
        pub(super) static MISSES_ON_THIS_THREAD: std::cell::Cell<u64> =
            const { std::cell::Cell::new(0) };
    }

    fn misses_on_this_thread() -> u64 {
        MISSES_ON_THIS_THREAD.with(std::cell::Cell::get)
    }

    #[test]
    fn reuses_retired_buffers_without_allocating() {
        let mut arena = ActivationArena::new();
        let first = arena.take(Shape::chw(2, 8, 8));
        let ptr = first.as_slice().as_ptr();
        arena.give(first);

        let warm = misses_on_this_thread();
        let second = arena.take(Shape::chw(1, 8, 8));
        assert_eq!(second.as_slice().as_ptr(), ptr, "best fit should reuse the retired buffer");
        assert_eq!(second.shape().volume(), 64);
        assert_eq!(misses_on_this_thread() - warm, 0, "reuse must not allocate");
        arena.give(second);
    }

    #[test]
    fn misses_advance_the_shared_counter() {
        let mut arena = ActivationArena::new();
        let before = scratch::heap_allocations();
        let t = arena.take(Shape::chw(1, 4, 4));
        assert!(scratch::heap_allocations() > before);
        arena.give(t);
    }

    #[test]
    fn best_fit_prefers_the_smallest_sufficient_buffer() {
        let mut arena = ActivationArena::new();
        arena.reserve(&[1024, 64]);
        let t = arena.take(Shape::new(1, 1, 1, 60));
        let buffer = t.into_vec();
        assert!(buffer.len() == 60 && buffer.capacity() < 1024);
    }

    #[test]
    fn reserve_then_forward_sized_takes_do_not_allocate() {
        let mut arena = ActivationArena::new();
        let cold = misses_on_this_thread();
        arena.reserve(&[512, 256, 256]);
        let warm = misses_on_this_thread();
        assert_eq!(warm - cold, 3, "the reservation's own misses are counted");
        let a = arena.take(Shape::new(1, 1, 1, 512));
        let b = arena.take(Shape::new(1, 1, 1, 250));
        let c = arena.take(Shape::new(1, 1, 1, 256));
        assert_eq!(misses_on_this_thread() - warm, 0);
        arena.give(a);
        arena.give(b);
        arena.give(c);
        assert_eq!(arena.slots(), 3);
        assert!(arena.resident_bytes() >= (512 + 256 + 256) * 4);
    }

    #[test]
    fn slot_cap_keeps_the_largest_buffers() {
        let mut arena = ActivationArena::new();
        for len in 0..MAX_SLOTS + 4 {
            arena.give(Tensor::zeros(Shape::new(1, 1, 1, len + 1)));
        }
        assert_eq!(arena.slots(), MAX_SLOTS);
        let largest = arena.take(Shape::new(1, 1, 1, MAX_SLOTS + 4));
        assert_eq!(largest.shape().volume(), MAX_SLOTS + 4);
        drop(largest);
    }

    #[test]
    fn byte_accounting_tracks_live_and_peak() {
        let mut arena = ActivationArena::new();
        assert_eq!(arena.live_bytes(), 0);
        assert_eq!(arena.peak_live_bytes(), 0);
        let a = arena.take(Shape::new(1, 1, 1, 100)); // 400 B live
        let b = arena.take(Shape::new(1, 1, 1, 50)); // 600 B live (peak)
        assert_eq!(arena.live_bytes(), 600);
        assert_eq!(arena.peak_live_bytes(), 600);
        arena.give(a); // 200 B live
        assert_eq!(arena.live_bytes(), 200);
        assert_eq!(arena.peak_live_bytes(), 600, "peak holds after a give");
        let c = arena.take(Shape::new(1, 1, 1, 75)); // 500 B live, below peak
        assert_eq!(arena.live_bytes(), 500);
        assert_eq!(arena.peak_live_bytes(), 600);
        arena.give(b);
        arena.reset_peak();
        assert_eq!(arena.peak_live_bytes(), 300, "reset restarts from the live level");
        arena.give(c);
        assert_eq!(arena.live_bytes(), 0);
    }

    #[test]
    fn foreign_gives_saturate_instead_of_underflowing() {
        let mut arena = ActivationArena::new();
        arena.give(Tensor::zeros(Shape::new(1, 1, 1, 64)));
        assert_eq!(arena.live_bytes(), 0, "a give of a non-arena tensor must not underflow");
        let t = arena.take(Shape::new(1, 1, 1, 32));
        assert_eq!(arena.live_bytes(), 128);
        arena.give(t);
    }

    #[test]
    fn accounting_does_not_allocate() {
        let mut arena = ActivationArena::new();
        arena.reserve(&[256]);
        arena.reset_peak();
        let warm = misses_on_this_thread();
        let t = arena.take(Shape::new(1, 1, 1, 256));
        assert_eq!(arena.peak_live_bytes(), 1024);
        arena.give(t);
        assert_eq!(misses_on_this_thread() - warm, 0, "byte accounting must stay free");
    }

    #[test]
    fn thread_arena_persists_across_calls() {
        let ptr = with_thread_arena(|arena| {
            let t = arena.take(Shape::chw(3, 5, 5));
            let ptr = t.as_slice().as_ptr() as usize;
            arena.give(t);
            ptr
        });
        let again = with_thread_arena(|arena| {
            let t = arena.take(Shape::chw(3, 5, 5));
            let again = t.as_slice().as_ptr() as usize;
            arena.give(t);
            again
        });
        assert_eq!(ptr, again, "the thread arena must persist between scopes");
    }
}
