//! Per-call engine configuration, replacing mutation of process-global state.
//!
//! Bounding kernel parallelism with [`set_num_threads`](crate::set_num_threads)
//! mutates process-wide state: two pipelines configured differently would race,
//! with the last constructor winning for both. An [`EngineContext`] instead
//! carries the thread budget and the convolution-algorithm pin as a value
//! and installs them only for the dynamic extent of a [`scope`](EngineContext::scope)
//! call on the current thread. The engine consults the innermost scope first
//! ([`num_threads`](crate::num_threads) and the dispatch layer in
//! [`conv`](crate::conv2d_dispatch)), so concurrent callers with different budgets
//! are fully isolated.

use std::cell::Cell;

use crate::conv::ConvAlgo;

/// Scoped engine configuration: worker-thread budget and algorithm override.
///
/// Unset fields inherit from the enclosing scope (or, at the outermost level, the
/// process-wide configuration). Contexts are plain values — build one per pipeline
/// or per request and [`scope`](EngineContext::scope) every kernel-bearing call.
///
/// # Examples
/// ```
/// use rescnn_tensor::{num_threads, EngineContext};
///
/// let outside = num_threads();
/// let inside = EngineContext::new().with_threads(2).scope(num_threads);
/// assert_eq!(inside, 2);
/// assert_eq!(num_threads(), outside, "the override ends with the scope");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineContext {
    /// Worker-thread budget for kernels in this scope (`None` inherits).
    pub threads: Option<usize>,
    /// Convolution algorithm pinned for this scope (`None` inherits). Takes
    /// precedence over a network's measured table and the default rule;
    /// shapes the algorithm cannot execute still fall back as usual.
    pub algo: Option<ConvAlgo>,
}

thread_local! {
    static CURRENT: Cell<EngineContext> =
        const { Cell::new(EngineContext { threads: None, algo: None }) };
}

impl EngineContext {
    /// A context with no overrides (inherits everything).
    pub fn new() -> Self {
        EngineContext::default()
    }

    /// Bounds kernel parallelism within the scope (clamped to at least 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Pins the convolution algorithm within the scope.
    pub fn with_algo(mut self, algo: ConvAlgo) -> Self {
        self.algo = Some(algo);
        self
    }

    /// The context in effect on the current thread (all-`None` outside any scope).
    pub fn current() -> Self {
        CURRENT.with(|cell| cell.get())
    }

    /// Runs `f` with this context installed on the current thread, restoring the
    /// previous context afterwards (also on panic). Nested scopes layer: fields
    /// left `None` inherit the enclosing scope's values.
    pub fn scope<R>(self, f: impl FnOnce() -> R) -> R {
        let previous = Self::current();
        let merged = EngineContext {
            threads: self.threads.or(previous.threads),
            algo: self.algo.or(previous.algo),
        };
        let _restore = ScopeGuard { previous };
        CURRENT.with(|cell| cell.set(merged));
        f()
    }
}

/// Restores the enclosing context when a scope unwinds or returns.
struct ScopeGuard {
    previous: EngineContext,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        let previous = self.previous;
        CURRENT.with(|cell| cell.set(previous));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::num_threads;

    #[test]
    fn scope_overrides_and_restores_threads() {
        let _guard = crate::test_sync::global_state_lock();
        let outside = num_threads();
        let seen = EngineContext::new().with_threads(2).scope(num_threads);
        assert_eq!(seen, 2);
        assert_eq!(num_threads(), outside);
    }

    #[test]
    fn nested_scopes_layer_and_unwind() {
        let _guard = crate::test_sync::global_state_lock();
        EngineContext::new().with_threads(3).with_algo(ConvAlgo::Direct).scope(|| {
            assert_eq!(num_threads(), 3);
            EngineContext::new().with_threads(5).scope(|| {
                // Inner scope overrides threads but inherits the algorithm.
                assert_eq!(num_threads(), 5);
                assert_eq!(EngineContext::current().algo, Some(ConvAlgo::Direct));
            });
            assert_eq!(num_threads(), 3);
        });
        assert_eq!(EngineContext::current(), EngineContext::new());
    }

    #[test]
    fn scope_restores_after_panic() {
        let _guard = crate::test_sync::global_state_lock();
        let result = std::panic::catch_unwind(|| {
            EngineContext::new().with_threads(7).scope(|| panic!("kernel exploded"))
        });
        assert!(result.is_err());
        assert_eq!(EngineContext::current(), EngineContext::new());
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        assert_eq!(EngineContext::new().with_threads(0).threads, Some(1));
    }

    #[test]
    fn contexts_are_isolated_per_thread() {
        let _guard = crate::test_sync::global_state_lock();
        EngineContext::new().with_threads(2).scope(|| {
            let other = std::thread::spawn(EngineContext::current).join().unwrap();
            assert_eq!(other, EngineContext::new(), "scopes must not leak across threads");
            assert_eq!(num_threads(), 2);
        });
    }
}
