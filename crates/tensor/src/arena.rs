//! Reusable activation-tensor arena.
//!
//! The engine's [`crate::scratch`] pool recycles *kernel working memory*
//! (packed panels, im2col stripes); this module recycles the much larger
//! *activations* a network forward pass produces — one fresh
//! `vec![0.0; C*H*W]` per layer in the unmanaged path, which at 448² inputs
//! means hundreds of megabytes of allocate + memset per ResNet-50 forward.
//!
//! An [`ActivationArena`] is a short table of per-slot buffers indexed by the
//! caller's slot. A forward pass that assigns every activation a slot ahead of
//! time (the lowered op list in `rescnn-models` does) writes each output
//! through a [`TensorViewMut`] over the first `volume` elements of its slot's
//! buffer ([`ActivationArena::write`]), reads live activations as
//! [`TensorView`]s of the other slots, and releases a slot when its activation
//! dies ([`ActivationArena::release`], byte accounting only). A buffer is
//! zero-initialised once, when it grows to the largest activation its slot has
//! held; no write fills or truncates it afterwards. So after one pass at the
//! largest served resolution — or an [`ActivationArena::reserve`] of that
//! pass's plan — forwards at it and every smaller resolution perform zero heap
//! allocations for activations. Growths advance the same process-wide counter
//! as the scratch pool ([`crate::scratch::heap_allocations`]), so one counter
//! pins the engine's entire zero-allocation property.
//!
//! Buffer reuse is pure memory recycling — every kernel's `_into` variant
//! overwrites its whole output view — so arena-backed execution is bitwise
//! identical to fresh-allocation execution.

use std::cell::RefCell;

use crate::scratch;
use crate::shape::Shape;
use crate::view::{TensorView, TensorViewMut};

/// One reusable activation buffer per caller-assigned slot.
///
/// # Examples
/// ```
/// use rescnn_tensor::{ActivationArena, Shape};
///
/// let mut arena = ActivationArena::new();
/// let (mut a, _) = arena.write(0, Shape::chw(8, 16, 16));
/// a.as_mut_slice().fill(1.0);
/// let (b, reads) = arena.write(1, Shape::chw(4, 16, 16));
/// assert_eq!(b.shape().volume(), 4 * 16 * 16);
/// assert_eq!(reads.view(0, Shape::chw(8, 16, 16)).as_slice()[0], 1.0);
/// arena.release(0);
/// let (again, _) = arena.write(0, Shape::chw(2, 16, 16)); // reuses buffer 0
/// assert_eq!(again.as_slice()[0], 1.0, "a write does not clear the buffer");
/// ```
#[derive(Debug, Default)]
pub struct ActivationArena {
    buffers: Vec<Vec<f32>>,
    /// Elements of each slot's live activation (0 once released). Pure
    /// bookkeeping — never allocates after the slot exists.
    live: Vec<usize>,
    /// High-water mark of [`live_bytes`](Self::live_bytes).
    peak_live_bytes: usize,
}

/// Read access to an arena's buffers while one of them is being written (see
/// [`ActivationArena::write`]).
#[derive(Debug, Clone, Copy)]
pub struct ArenaReads<'a> {
    /// Buffers of the slots below the one being written (all of them when
    /// none is).
    below: &'a [Vec<f32>],
    /// Buffers of the slots above the one being written.
    above: &'a [Vec<f32>],
}

impl<'a> ArenaReads<'a> {
    /// Slot `slot`'s buffer read as a `shape` activation: its first
    /// `shape.volume()` elements.
    ///
    /// # Panics
    /// Panics if `slot` is the slot being written or has no buffer of that
    /// volume.
    pub fn view(&self, slot: usize, shape: Shape) -> TensorView<'a> {
        let buffer = match slot.checked_sub(self.below.len()) {
            None => &self.below[slot],
            Some(above) => &self.above[above.checked_sub(1).expect("slot is being written")],
        };
        TensorView::new(shape, &buffer[..shape.volume()]).expect("sliced to the volume")
    }
}

impl ActivationArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Hands out slot `slot`'s buffer as a writable `shape` activation — its
    /// first `shape.volume()` elements — with read access to the other slots.
    /// A buffer shorter than the volume is first replaced by a zeroed one of
    /// exactly the volume (which advances
    /// [`crate::scratch::heap_allocations`]). The slot's activation counts as
    /// live at that volume until [`release`](Self::release).
    ///
    /// **Contents are unspecified** — the view holds whatever the buffer last
    /// held (not clearing it is what the arena saves). Every consumer must
    /// overwrite the whole view; all engine kernels' `_into` variants do.
    pub fn write(&mut self, slot: usize, shape: Shape) -> (TensorViewMut<'_>, ArenaReads<'_>) {
        let len = shape.volume();
        self.grow(slot, len);
        self.live[slot] = len;
        self.peak_live_bytes = self.peak_live_bytes.max(self.live_bytes());
        let (below, rest) = self.buffers.split_at_mut(slot);
        let (buffer, above) = rest.split_first_mut().expect("grown to hold the slot");
        let view = TensorViewMut::new(shape, &mut buffer[..len]).expect("sliced to the volume");
        (view, ArenaReads { below, above })
    }

    /// Read access to every slot's buffer.
    pub fn reads(&self) -> ArenaReads<'_> {
        ArenaReads { below: &self.buffers, above: &[] }
    }

    /// Marks slot `slot`'s activation dead; its buffer stays for the next
    /// write.
    pub fn release(&mut self, slot: usize) {
        if let Some(live) = self.live.get_mut(slot) {
            *live = 0;
        }
    }

    /// Grows buffer `k` to hold `elems[k]` elements, so a forward pass
    /// planned to write at most that much to each slot will not allocate.
    pub fn reserve(&mut self, elems: &[usize]) {
        for (slot, &len) in elems.iter().enumerate() {
            self.grow(slot, len);
        }
    }

    /// Replaces a buffer shorter than `len` elements by a zeroed one of
    /// exactly `len`, adding empty slots up to `slot` first.
    fn grow(&mut self, slot: usize, len: usize) {
        if slot >= self.buffers.len() {
            self.buffers.resize_with(slot + 1, Vec::new);
            self.live.resize(slot + 1, 0);
        }
        let buffer = &mut self.buffers[slot];
        if buffer.len() < len {
            scratch::record_external_allocation();
            #[cfg(test)]
            tests::MISSES_ON_THIS_THREAD.with(|misses| misses.set(misses.get() + 1));
            // Free the short buffer before the larger one is allocated.
            *buffer = Vec::new();
            *buffer = vec![0.0; len];
        }
    }

    /// Bytes resident across the arena's buffers.
    pub fn resident_bytes(&self) -> usize {
        self.buffers.iter().map(|b| b.capacity() * std::mem::size_of::<f32>()).sum()
    }

    /// Bytes of the activations currently live in the arena.
    pub fn live_bytes(&self) -> usize {
        self.live.iter().sum::<usize>() * std::mem::size_of::<f32>()
    }

    /// High-water mark of simultaneously-live activation bytes since the
    /// arena was created. This is the
    /// measured counterpart of a planned peak (`ArenaPlan::peak_live_bytes` in
    /// `rescnn-models`), and what a memory-budgeted admission controller
    /// ultimately bounds.
    pub fn peak_live_bytes(&self) -> usize {
        self.peak_live_bytes
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
        /// Allocations `grow` has made on the calling thread. The zero-delta assertions
        /// below count here: [`scratch::heap_allocations`] is process-wide, and the rest
        /// of this binary's tests allocate on their own threads while these run.
        pub(super) static MISSES_ON_THIS_THREAD: std::cell::Cell<u64> =
            const { std::cell::Cell::new(0) };
    }

    fn misses_on_this_thread() -> u64 {
        MISSES_ON_THIS_THREAD.with(std::cell::Cell::get)
    }

    fn elems(len: usize) -> Shape {
        Shape::new(1, 1, 1, len)
    }

    #[test]
    fn reuses_retired_buffers_without_allocating() {
        let mut arena = ActivationArena::new();
        let (mut first, _) = arena.write(0, Shape::chw(2, 8, 8));
        first.as_mut_slice().fill(7.0);
        let ptr = first.as_slice().as_ptr();
        arena.release(0);

        let warm = misses_on_this_thread();
        let (second, _) = arena.write(0, Shape::chw(1, 8, 8));
        assert_eq!(second.as_slice().as_ptr(), ptr, "the slot's buffer should be reused");
        assert_eq!(second.shape().volume(), 64);
        assert!(second.as_slice().iter().all(|&x| x == 7.0), "a write must not refill");
        assert_eq!(misses_on_this_thread() - warm, 0, "reuse must not allocate");
        // The larger write's tail was neither truncated nor refilled either.
        let (third, _) = arena.write(0, Shape::chw(2, 8, 8));
        assert!(third.as_slice().iter().all(|&x| x == 7.0));
        assert_eq!(misses_on_this_thread() - warm, 0);
    }

    #[test]
    fn misses_advance_the_shared_counter() {
        let mut arena = ActivationArena::new();
        let before = scratch::heap_allocations();
        let (grown, _) = arena.write(0, Shape::chw(1, 4, 4));
        assert!(grown.as_slice().iter().all(|&x| x == 0.0), "a grown buffer starts zeroed");
        assert!(scratch::heap_allocations() > before);
    }

    #[test]
    fn each_slot_grows_exactly_to_its_largest_write() {
        let mut arena = ActivationArena::new();
        let cold = misses_on_this_thread();
        for len in [64, 100, 80] {
            arena.write(1, elems(len));
            arena.release(1);
        }
        assert_eq!(misses_on_this_thread() - cold, 2, "one miss per growth");
        assert_eq!(arena.resident_bytes(), 100 * 4, "slot 0 is empty, slot 1 holds 100");
    }

    #[test]
    fn reserve_then_forward_sized_writes_do_not_allocate() {
        let mut arena = ActivationArena::new();
        let cold = misses_on_this_thread();
        arena.reserve(&[512, 256, 256]);
        let warm = misses_on_this_thread();
        assert_eq!(warm - cold, 3, "the reservation's own growths are counted");
        arena.write(0, elems(512));
        arena.write(1, elems(250));
        arena.write(2, elems(256));
        assert_eq!(misses_on_this_thread() - warm, 0);
        assert_eq!(arena.resident_bytes(), (512 + 256 + 256) * 4);
    }

    #[test]
    fn byte_accounting_tracks_live_and_peak() {
        let mut arena = ActivationArena::new();
        assert_eq!(arena.live_bytes(), 0);
        assert_eq!(arena.peak_live_bytes(), 0);
        arena.write(0, elems(100)); // 400 B live
        arena.write(1, elems(50)); // 600 B live (peak)
        assert_eq!(arena.live_bytes(), 600);
        assert_eq!(arena.peak_live_bytes(), 600);
        arena.release(0); // 200 B live
        assert_eq!(arena.live_bytes(), 200);
        assert_eq!(arena.peak_live_bytes(), 600, "peak holds after a release");
        arena.write(0, elems(75)); // 500 B live, below peak
        assert_eq!(arena.live_bytes(), 500);
        assert_eq!(arena.peak_live_bytes(), 600);
        arena.write(0, elems(25)); // a rewrite replaces the slot's volume: 300 B
        assert_eq!(arena.live_bytes(), 300);
        arena.release(1);
        arena.release(7); // a slot the arena never held
        arena.release(0);
        assert_eq!(arena.live_bytes(), 0);
    }

    #[test]
    fn accounting_does_not_allocate() {
        let mut arena = ActivationArena::new();
        arena.reserve(&[256]);
        let warm = misses_on_this_thread();
        arena.write(0, elems(256));
        assert_eq!(arena.peak_live_bytes(), 1024);
        arena.release(0);
        assert_eq!(misses_on_this_thread() - warm, 0, "byte accounting must stay free");
    }

    #[test]
    fn thread_arena_persists_across_calls() {
        let write = || {
            with_thread_arena(|arena| {
                arena.write(0, Shape::chw(3, 5, 5)).0.as_slice().as_ptr() as usize
            })
        };
        assert_eq!(write(), write(), "the thread arena must persist between scopes");
    }
}
