//! Reusable activation-tensor arena.
//!
//! The engine's [`crate::scratch`] pool recycles *kernel working memory*
//! (packed panels, im2col stripes); this module recycles the much larger
//! *activation tensors* a network forward pass produces — one fresh
//! `vec![0.0; C*H*W]` per layer in the unmanaged path, which at 448² inputs
//! means hundreds of megabytes of allocate + memset per ResNet-50 forward.
//!
//! An [`ActivationArena`] is a short table of buffers indexed by the caller's
//! slot. A forward pass that assigns every activation a slot ahead of time
//! (the lowered op list in `rescnn-models` does) takes each output from its
//! slot's buffer ([`ActivationArena::take`], **without** zeroing) and gives it
//! back there when the activation dies ([`ActivationArena::give`]). A buffer
//! only grows, to the largest take its slot has seen, so after one pass at the
//! largest served resolution — or an [`ActivationArena::reserve`] of that
//! pass's plan — forwards at it and every smaller resolution perform zero heap
//! allocations for activations. Growths advance the same process-wide counter
//! as the scratch pool ([`crate::scratch::heap_allocations`]), so one counter
//! pins the engine's entire zero-allocation property.
//!
//! Buffer reuse is pure memory recycling — it never changes computed values —
//! so arena-backed execution is bitwise identical to fresh-allocation
//! execution.

use std::cell::RefCell;

use crate::scratch;
use crate::shape::Shape;
use crate::tensor::Tensor;

/// One reusable activation buffer per caller-assigned slot.
///
/// # Examples
/// ```
/// use rescnn_tensor::{ActivationArena, Shape};
///
/// let mut arena = ActivationArena::new();
/// let a = arena.take(0, Shape::chw(8, 16, 16));
/// arena.give(0, a);
/// let b = arena.take(0, Shape::chw(4, 16, 16)); // reuses buffer 0
/// assert_eq!(b.shape().volume(), 4 * 16 * 16);
/// # drop(b);
/// ```
#[derive(Debug, Default)]
pub struct ActivationArena {
    buffers: Vec<Vec<f32>>,
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

    /// Takes buffer `slot` as a tensor of the given shape, first growing it to
    /// exactly the shape's volume when its capacity is short (which advances
    /// [`crate::scratch::heap_allocations`]). A slot whose buffer is checked
    /// out has none, so taking it again allocates.
    ///
    /// **Contents are unspecified** — recycled buffers are *not* zeroed (that
    /// memset is part of what the arena saves). Every consumer must overwrite
    /// the full tensor; all engine kernels' `_into` variants do.
    pub fn take(&mut self, slot: usize, shape: Shape) -> Tensor {
        let len = shape.volume();
        self.grow(slot, len);
        let mut buffer = std::mem::take(&mut self.buffers[slot]);
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

    /// Returns a tensor's buffer to slot `slot`; if the slot already holds a
    /// buffer, the larger of the two is kept.
    pub fn give(&mut self, slot: usize, tensor: Tensor) {
        // Saturating: tensors not taken from this arena may legitimately be
        // retired into it (warm-up paths); accounting must never underflow.
        self.live_bytes =
            self.live_bytes.saturating_sub(tensor.shape().volume() * std::mem::size_of::<f32>());
        let buffer = tensor.into_vec();
        let held = self.buffer(slot);
        if buffer.capacity() > held.capacity() {
            *held = buffer;
        }
    }

    /// Grows buffer `k` to hold `elems[k]` elements, so a forward pass
    /// planned to take at most that much from each slot will not allocate.
    pub fn reserve(&mut self, elems: &[usize]) {
        for (slot, &len) in elems.iter().enumerate() {
            self.grow(slot, len);
        }
    }

    /// Buffer `slot`, adding empty slots up to it.
    fn buffer(&mut self, slot: usize) -> &mut Vec<f32> {
        if slot >= self.buffers.len() {
            self.buffers.resize_with(slot + 1, Vec::new);
        }
        &mut self.buffers[slot]
    }

    /// Replaces a buffer shorter than `len` elements by one of exactly `len`.
    fn grow(&mut self, slot: usize, len: usize) {
        let buffer = self.buffer(slot);
        if buffer.capacity() < len {
            scratch::record_external_allocation();
            #[cfg(test)]
            tests::MISSES_ON_THIS_THREAD.with(|misses| misses.set(misses.get() + 1));
            // Free the short buffer before the larger one is allocated.
            *buffer = Vec::new();
            *buffer = Vec::with_capacity(len);
        }
    }

    /// Bytes resident across the buffers the arena holds (checked-out ones
    /// excluded).
    pub fn resident_bytes(&self) -> usize {
        self.buffers.iter().map(|b| b.capacity() * std::mem::size_of::<f32>()).sum()
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
        let first = arena.take(0, Shape::chw(2, 8, 8));
        let ptr = first.as_slice().as_ptr();
        arena.give(0, first);

        let warm = misses_on_this_thread();
        let second = arena.take(0, Shape::chw(1, 8, 8));
        assert_eq!(second.as_slice().as_ptr(), ptr, "the slot's buffer should be reused");
        assert_eq!(second.shape().volume(), 64);
        assert_eq!(misses_on_this_thread() - warm, 0, "reuse must not allocate");
        arena.give(0, second);
    }

    #[test]
    fn misses_advance_the_shared_counter() {
        let mut arena = ActivationArena::new();
        let before = scratch::heap_allocations();
        let t = arena.take(0, Shape::chw(1, 4, 4));
        assert!(scratch::heap_allocations() > before);
        arena.give(0, t);
    }

    #[test]
    fn each_slot_grows_exactly_to_its_largest_take() {
        let mut arena = ActivationArena::new();
        let cold = misses_on_this_thread();
        for len in [64, 100, 80] {
            let t = arena.take(1, Shape::new(1, 1, 1, len));
            arena.give(1, t);
        }
        assert_eq!(misses_on_this_thread() - cold, 2, "one miss per growth");
        assert_eq!(arena.resident_bytes(), 100 * 4, "slot 0 is empty, slot 1 holds 100");
        // A slot taken twice without a give allocates for the second take; the
        // larger buffer is the one kept.
        let a = arena.take(1, Shape::new(1, 1, 1, 100));
        let b = arena.take(1, Shape::new(1, 1, 1, 30));
        arena.give(1, b);
        arena.give(1, a);
        assert_eq!(arena.resident_bytes(), 100 * 4);
    }

    #[test]
    fn reserve_then_forward_sized_takes_do_not_allocate() {
        let mut arena = ActivationArena::new();
        let cold = misses_on_this_thread();
        arena.reserve(&[512, 256, 256]);
        let warm = misses_on_this_thread();
        assert_eq!(warm - cold, 3, "the reservation's own growths are counted");
        let a = arena.take(0, Shape::new(1, 1, 1, 512));
        let b = arena.take(1, Shape::new(1, 1, 1, 250));
        let c = arena.take(2, Shape::new(1, 1, 1, 256));
        assert_eq!(misses_on_this_thread() - warm, 0);
        arena.give(0, a);
        arena.give(1, b);
        arena.give(2, c);
        assert_eq!(arena.resident_bytes(), (512 + 256 + 256) * 4);
    }

    #[test]
    fn byte_accounting_tracks_live_and_peak() {
        let mut arena = ActivationArena::new();
        assert_eq!(arena.live_bytes(), 0);
        assert_eq!(arena.peak_live_bytes(), 0);
        let a = arena.take(0, Shape::new(1, 1, 1, 100)); // 400 B live
        let b = arena.take(1, Shape::new(1, 1, 1, 50)); // 600 B live (peak)
        assert_eq!(arena.live_bytes(), 600);
        assert_eq!(arena.peak_live_bytes(), 600);
        arena.give(0, a); // 200 B live
        assert_eq!(arena.live_bytes(), 200);
        assert_eq!(arena.peak_live_bytes(), 600, "peak holds after a give");
        let c = arena.take(0, Shape::new(1, 1, 1, 75)); // 500 B live, below peak
        assert_eq!(arena.live_bytes(), 500);
        assert_eq!(arena.peak_live_bytes(), 600);
        arena.give(1, b);
        arena.reset_peak();
        assert_eq!(arena.peak_live_bytes(), 300, "reset restarts from the live level");
        arena.give(0, c);
        assert_eq!(arena.live_bytes(), 0);
    }

    #[test]
    fn foreign_gives_saturate_instead_of_underflowing() {
        let mut arena = ActivationArena::new();
        arena.give(0, Tensor::zeros(Shape::new(1, 1, 1, 64)));
        assert_eq!(arena.live_bytes(), 0, "a give of a non-arena tensor must not underflow");
        let t = arena.take(0, Shape::new(1, 1, 1, 32));
        assert_eq!(arena.live_bytes(), 128);
        arena.give(0, t);
    }

    #[test]
    fn accounting_does_not_allocate() {
        let mut arena = ActivationArena::new();
        arena.reserve(&[256]);
        arena.reset_peak();
        let warm = misses_on_this_thread();
        let t = arena.take(0, Shape::new(1, 1, 1, 256));
        assert_eq!(arena.peak_live_bytes(), 1024);
        arena.give(0, t);
        assert_eq!(misses_on_this_thread() - warm, 0, "byte accounting must stay free");
    }

    #[test]
    fn thread_arena_persists_across_calls() {
        let ptr = with_thread_arena(|arena| {
            let t = arena.take(0, Shape::chw(3, 5, 5));
            let ptr = t.as_slice().as_ptr() as usize;
            arena.give(0, t);
            ptr
        });
        let again = with_thread_arena(|arena| {
            let t = arena.take(0, Shape::chw(3, 5, 5));
            let again = t.as_slice().as_ptr() as usize;
            arena.give(0, t);
            again
        });
        assert_eq!(ptr, again, "the thread arena must persist between scopes");
    }
}
