//! Write-once lenient cells.
//!
//! A [`Lenient<T>`] is the semantic counterpart of one slot of the paper's
//! lenient tuple constructor: an object that exists — and can be handed to
//! consumers, embedded in other structures, and shipped between threads —
//! before its value has been computed. Consumers that demand the value
//! before the producer fills it block on exactly that data dependency and
//! nothing else.

use std::fmt;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

/// Error returned by [`Lenient::fill`] when the cell is already filled.
///
/// The rejected value is handed back to the caller so no data is lost.
pub struct FillError<T>(pub T);

impl<T> fmt::Debug for FillError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("FillError(cell already filled)")
    }
}

impl<T> fmt::Display for FillError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("lenient cell already filled")
    }
}

impl<T> std::error::Error for FillError<T> {}

/// A callback registered with [`Lenient::on_fill`].
type OnFill<T> = Box<dyn FnOnce(&T) + Send>;

/// What the cell's mutex guards: whether the value has landed, and the
/// callbacks still waiting for it. An empty `Vec` does not allocate, so a
/// cell nobody registers on costs nothing more to fill.
struct State<T> {
    filled: bool,
    on_fill: Vec<OnFill<T>>,
}

struct Inner<T> {
    slot: OnceLock<T>,
    /// Guards the sleep/notify protocol; the actual value lives in `slot`.
    state: Mutex<State<T>>,
    cond: Condvar,
}

/// A shareable write-once cell: the building block of lenient structures.
///
/// Clones share the same underlying slot. Exactly one [`fill`](Self::fill)
/// succeeds; every [`wait`](Self::wait) observes the same value.
///
/// # Example
///
/// ```
/// use fundb_lenient::Lenient;
///
/// let cell = Lenient::new();
/// let reader = cell.clone();
/// let t = std::thread::spawn(move || *reader.wait());
/// cell.fill(42).unwrap();
/// assert_eq!(t.join().unwrap(), 42);
/// ```
pub struct Lenient<T> {
    inner: Arc<Inner<T>>,
}

impl<T> Clone for Lenient<T> {
    fn clone(&self) -> Self {
        Lenient {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> Default for Lenient<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: fmt::Debug> fmt::Debug for Lenient<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_get() {
            Some(v) => f.debug_tuple("Lenient").field(v).finish(),
            None => f.write_str("Lenient(<unfilled>)"),
        }
    }
}

impl<T> Lenient<T> {
    /// Creates an empty (unfilled) cell.
    pub fn new() -> Self {
        Lenient {
            inner: Arc::new(Inner {
                slot: OnceLock::new(),
                state: Mutex::new(State {
                    filled: false,
                    on_fill: Vec::new(),
                }),
                cond: Condvar::new(),
            }),
        }
    }

    /// Creates a cell that is already filled with `value`.
    ///
    /// Useful when a structure is constructed strictly but consumed through
    /// the lenient interface.
    pub fn ready(value: T) -> Self {
        // Constructed filled: no waiter can exist yet, so skip the
        // lock-and-notify protocol `fill` must run.
        let slot = OnceLock::new();
        let _ = slot.set(value);
        Lenient {
            inner: Arc::new(Inner {
                slot,
                state: Mutex::new(State {
                    filled: true,
                    on_fill: Vec::new(),
                }),
                cond: Condvar::new(),
            }),
        }
    }

    /// Fills the cell, waking all blocked waiters, then runs every
    /// [`on_fill`](Self::on_fill) callback on this thread, with the cell's
    /// lock released.
    ///
    /// # Errors
    ///
    /// Returns [`FillError`] carrying `value` back if the cell was already
    /// filled — a lenient cell is single-assignment by construction.
    pub fn fill(&self, value: T) -> Result<(), FillError<T>> {
        self.inner.slot.set(value).map_err(FillError)?;
        let on_fill = {
            let mut state = self.inner.state.lock();
            state.filled = true;
            self.inner.cond.notify_all();
            std::mem::take(&mut state.on_fill)
        };
        if !on_fill.is_empty() {
            let value = self.inner.slot.get().expect("set above");
            for f in on_fill {
                f(value);
            }
        }
        Ok(())
    }

    /// Runs `f(&value)` exactly once: right here if the cell is already
    /// filled, otherwise on the thread that fills it, after the waiters
    /// are woken. This is how a consumer *reacts* to a value instead of
    /// demanding it — no thread waits on the cell for it.
    ///
    /// `f` runs on the filler's stack, inside whatever the filler was
    /// doing: it must not block, and must not take a lock the filler may
    /// hold. A driven stream ([`Stream::drive`](crate::Stream::drive))
    /// registers its next step this way, so a fill can run a whole site's
    /// step.
    pub fn on_fill(&self, f: impl FnOnce(&T) + Send + 'static) {
        if let Some(v) = self.inner.slot.get() {
            return f(v);
        }
        if let Err(f) = self.on_fill_or_back(f, |f, v| f(v)) {
            f(self.inner.slot.get().expect("filled under the lock"));
        }
    }

    /// Registers `f(carry, &value)` to run on the filling thread if the
    /// cell is still unfilled; otherwise hands `carry` back unrun, so a
    /// caller that loops over filled cells continues its loop instead of
    /// recursing into `f`.
    pub(crate) fn on_fill_or_back<C: Send + 'static>(
        &self,
        carry: C,
        f: impl FnOnce(C, &T) + Send + 'static,
    ) -> Result<(), C> {
        let mut state = self.inner.state.lock();
        if state.filled {
            return Err(carry);
        }
        state.on_fill.push(Box::new(move |v| f(carry, v)));
        Ok(())
    }

    /// Returns the value if the cell has been filled, without blocking.
    pub fn try_get(&self) -> Option<&T> {
        self.inner.slot.get()
    }

    /// Returns `true` once the cell has been filled.
    pub fn is_filled(&self) -> bool {
        self.inner.slot.get().is_some()
    }

    /// Applies `f` to the value if the cell is already filled, without
    /// blocking; returns `None` if it is not.
    ///
    /// This is the fast-path probe: a consumer that *can* proceed without
    /// the value (e.g. by scheduling itself for later) asks here first and
    /// pays no synchronization when the producer has already run.
    pub fn try_map<U>(&self, f: impl FnOnce(&T) -> U) -> Option<U> {
        self.inner.slot.get().map(f)
    }

    /// Blocks until the cell is filled, then returns a reference to the value.
    ///
    /// This is the *demand* operation: the only synchronization in a lenient
    /// structure is a consumer waiting here on a genuinely missing component.
    ///
    /// A pool worker about to block first runs the jobs it deferred
    /// ([`spawn_deferred`](crate::pool::spawn_deferred)): the value it
    /// waits for may be one of theirs to produce.
    pub fn wait(&self) -> &T {
        if let Some(v) = self.inner.slot.get() {
            return v;
        }
        crate::pool::run_deferred();
        let mut state = self.inner.state.lock();
        while !state.filled {
            self.inner.cond.wait(&mut state);
        }
        drop(state);
        self.inner
            .slot
            .get()
            .expect("lenient cell signalled filled but slot empty")
    }

    /// Blocks until the cell is filled or `timeout` elapses.
    ///
    /// Returns `None` on timeout. Primarily for tests and deadlock
    /// diagnostics; production consumers use [`wait`](Self::wait).
    pub fn wait_timeout(&self, timeout: Duration) -> Option<&T> {
        if let Some(v) = self.inner.slot.get() {
            return Some(v);
        }
        crate::pool::run_deferred();
        let deadline = std::time::Instant::now() + timeout;
        let mut state = self.inner.state.lock();
        while !state.filled {
            if self.inner.cond.wait_until(&mut state, deadline).timed_out() {
                return self.inner.slot.get();
            }
        }
        drop(state);
        self.inner.slot.get()
    }

    /// Takes the value out if this is the last handle to a filled cell.
    /// For a drop path only (see `Stream`'s `Drop`): the cell is left
    /// empty, so the handle must not be read again.
    pub(crate) fn take_if_sole(&mut self) -> Option<T> {
        Arc::get_mut(&mut self.inner)?.slot.take()
    }
}

impl<T: Clone> Lenient<T> {
    /// Blocks until filled and returns an owned clone of the value.
    pub fn wait_cloned(&self) -> T {
        self.wait().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn fill_then_get() {
        let c = Lenient::new();
        assert!(!c.is_filled());
        assert_eq!(c.try_get(), None);
        c.fill(7u32).unwrap();
        assert!(c.is_filled());
        assert_eq!(c.try_get(), Some(&7));
        assert_eq!(*c.wait(), 7);
    }

    #[test]
    fn ready_is_filled() {
        let c = Lenient::ready("x".to_string());
        assert_eq!(c.wait(), "x");
    }

    #[test]
    fn double_fill_rejected_and_value_returned() {
        let c = Lenient::new();
        c.fill(1).unwrap();
        let err = c.fill(2).unwrap_err();
        assert_eq!(err.0, 2);
        assert_eq!(*c.wait(), 1);
    }

    #[test]
    fn try_map_is_non_blocking() {
        let c: Lenient<u32> = Lenient::new();
        assert_eq!(c.try_map(|v| v + 1), None);
        c.fill(41).unwrap();
        assert_eq!(c.try_map(|v| v + 1), Some(42));
    }

    #[test]
    fn clones_share_the_slot() {
        let a = Lenient::new();
        let b = a.clone();
        b.fill(9).unwrap();
        assert_eq!(a.try_get(), Some(&9));
    }

    #[test]
    fn wait_blocks_until_filled() {
        let c = Lenient::new();
        let reader = c.clone();
        let t = thread::spawn(move || *reader.wait());
        thread::sleep(Duration::from_millis(20));
        c.fill(123).unwrap();
        assert_eq!(t.join().unwrap(), 123);
    }

    #[test]
    fn many_waiters_all_wake() {
        let c: Lenient<u64> = Lenient::new();
        let mut handles = Vec::new();
        for _ in 0..8 {
            let r = c.clone();
            handles.push(thread::spawn(move || *r.wait()));
        }
        thread::sleep(Duration::from_millis(10));
        c.fill(5).unwrap();
        for h in handles {
            assert_eq!(h.join().unwrap(), 5);
        }
    }

    #[test]
    fn wait_timeout_times_out_when_unfilled() {
        let c: Lenient<u8> = Lenient::new();
        assert!(c.wait_timeout(Duration::from_millis(10)).is_none());
    }

    #[test]
    fn wait_timeout_returns_value_when_filled() {
        let c = Lenient::ready(3u8);
        assert_eq!(c.wait_timeout(Duration::from_millis(1)), Some(&3));
    }

    #[test]
    fn racing_fillers_exactly_one_wins() {
        for _ in 0..50 {
            let c: Lenient<usize> = Lenient::new();
            let mut handles = Vec::new();
            for i in 0..4 {
                let w = c.clone();
                handles.push(thread::spawn(move || w.fill(i).is_ok()));
            }
            let wins: usize = handles
                .into_iter()
                .map(|h| usize::from(h.join().unwrap()))
                .sum();
            assert_eq!(wins, 1);
            assert!(*c.wait() < 4);
        }
    }

    #[test]
    fn on_fill_runs_inline_on_a_filled_cell() {
        let c = Lenient::ready(5u32);
        let seen = Lenient::new();
        let out = seen.clone();
        c.on_fill(move |v| out.fill(*v).unwrap());
        assert_eq!(seen.try_get(), Some(&5), "ran before on_fill returned");
    }

    #[test]
    fn on_fill_runs_on_the_filler_after_the_value_is_visible() {
        let c: Lenient<u32> = Lenient::new();
        let seen = Lenient::new();
        let (probe, out) = (c.clone(), seen.clone());
        c.on_fill(move |v| out.fill((*v, probe.try_get().copied())).unwrap());
        assert!(!seen.is_filled(), "an unfilled cell defers the callback");
        thread::spawn(move || c.fill(8).unwrap()).join().unwrap();
        assert_eq!(seen.try_get(), Some(&(8, Some(8))));
    }

    #[test]
    fn on_fill_racing_fill_runs_exactly_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        for i in 0..2000 {
            let c: Lenient<usize> = Lenient::new();
            let runs = Arc::new(AtomicUsize::new(0));
            let filler = {
                let c = c.clone();
                thread::spawn(move || c.fill(i).unwrap())
            };
            let counted = Arc::clone(&runs);
            c.on_fill(move |v| {
                assert_eq!(*v, i);
                counted.fetch_add(1, Ordering::SeqCst);
            });
            filler.join().unwrap();
            assert_eq!(runs.load(Ordering::SeqCst), 1, "iteration {i}");
        }
    }

    #[test]
    fn debug_formats_both_states() {
        let c: Lenient<u8> = Lenient::new();
        assert_eq!(format!("{c:?}"), "Lenient(<unfilled>)");
        c.fill(1).unwrap();
        assert_eq!(format!("{c:?}"), "Lenient(1)");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Lenient<u32>>();
        assert_send_sync::<FillError<u32>>();
    }
}
