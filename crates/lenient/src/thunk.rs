//! By-need suspensions ("lazy evaluation" in the paper's vocabulary).
//!
//! A [`Thunk<T>`] wraps a computation that runs at most once, on first
//! demand. Thunks are the demand-driven half of leniency: where a
//! [`Lenient`](crate::Lenient) cell is filled by an external producer, a
//! thunk produces its own value when forced. Stream combinators such as
//! [`Stream::map`](crate::Stream::map) are built from thunks so that mapping
//! over an infinite stream does no work until elements are demanded.

use std::fmt;
use std::sync::{Arc, OnceLock};

use parking_lot::{Condvar, Mutex};

type Suspension<T> = Box<dyn FnOnce() -> T + Send>;

enum State<T> {
    /// Not yet demanded; holds the suspended computation.
    Unforced(Option<Suspension<T>>),
    /// Some thread is currently running the computation.
    Forcing,
    /// The value is in the slot.
    Done,
}

struct Inner<T> {
    slot: OnceLock<T>,
    state: Mutex<State<T>>,
    cond: Condvar,
}

/// A computation evaluated at most once, on first demand.
///
/// Clones share the suspension: whichever handle forces first runs the
/// computation; concurrent forcers block until it completes and then see the
/// same value.
///
/// # Example
///
/// ```
/// use fundb_lenient::Thunk;
///
/// let t = Thunk::new(|| 2 + 2);
/// assert!(!t.is_forced());
/// assert_eq!(*t.force(), 4);
/// assert!(t.is_forced());
/// ```
pub struct Thunk<T> {
    inner: Arc<Inner<T>>,
}

impl<T> Clone for Thunk<T> {
    fn clone(&self) -> Self {
        Thunk {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for Thunk<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.inner.slot.get() {
            Some(v) => f.debug_tuple("Thunk").field(v).finish(),
            None => f.write_str("Thunk(<suspended>)"),
        }
    }
}

impl<T> Thunk<T> {
    /// Suspends `f` until first demand.
    pub fn new<F>(f: F) -> Self
    where
        F: FnOnce() -> T + Send + 'static,
    {
        Thunk {
            inner: Arc::new(Inner {
                slot: OnceLock::new(),
                state: Mutex::new(State::Unforced(Some(Box::new(f)))),
                cond: Condvar::new(),
            }),
        }
    }

    /// An already-evaluated thunk (the strict embedding).
    pub fn ready(value: T) -> Self {
        let slot = OnceLock::new();
        let _ = slot.set(value);
        Thunk {
            inner: Arc::new(Inner {
                slot,
                state: Mutex::new(State::Done),
                cond: Condvar::new(),
            }),
        }
    }

    /// Returns `true` if the computation has already run.
    pub fn is_forced(&self) -> bool {
        self.inner.slot.get().is_some()
    }

    /// Demands the value, running the suspension if this is the first demand.
    ///
    /// Concurrent forcers block until the single evaluation completes. The
    /// suspension runs *outside* the internal lock, so it may itself force
    /// other thunks or wait on lenient cells without deadlocking this one.
    pub fn force(&self) -> &T {
        if let Some(v) = self.inner.slot.get() {
            return v;
        }
        let mut state = self.inner.state.lock();
        loop {
            match &mut *state {
                State::Unforced(f) => {
                    let f = f.take().expect("unforced thunk lost its suspension");
                    *state = State::Forcing;
                    drop(state);
                    let value = f();
                    let _ = self.inner.slot.set(value);
                    let mut state = self.inner.state.lock();
                    *state = State::Done;
                    self.inner.cond.notify_all();
                    drop(state);
                    return self
                        .inner
                        .slot
                        .get()
                        .expect("thunk slot empty after evaluation");
                }
                State::Forcing => {
                    self.inner.cond.wait(&mut state);
                }
                State::Done => {
                    drop(state);
                    return self
                        .inner
                        .slot
                        .get()
                        .expect("thunk marked done with empty slot");
                }
            }
        }
    }

    /// Non-blocking peek at the value, if already forced.
    pub fn try_get(&self) -> Option<&T> {
        self.inner.slot.get()
    }

    /// Takes the value out if this is the last handle to a forced thunk.
    /// For a drop path only (see `Stream`'s `Drop`): the thunk is left
    /// empty, so the handle must not be read again.
    pub(crate) fn take_if_sole(&mut self) -> Option<T> {
        Arc::get_mut(&mut self.inner)?.slot.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc as StdArc;
    use std::thread;

    #[test]
    fn forces_once() {
        let count = StdArc::new(AtomicUsize::new(0));
        let c = count.clone();
        let t = Thunk::new(move || {
            c.fetch_add(1, Ordering::SeqCst);
            10
        });
        assert_eq!(*t.force(), 10);
        assert_eq!(*t.force(), 10);
        assert_eq!(count.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn ready_never_runs_anything() {
        let t = Thunk::ready(5);
        assert!(t.is_forced());
        assert_eq!(*t.force(), 5);
    }

    #[test]
    fn lazy_until_demanded() {
        let count = StdArc::new(AtomicUsize::new(0));
        let c = count.clone();
        let t = Thunk::new(move || {
            c.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 0);
        assert!(!t.is_forced());
        t.force();
        assert_eq!(count.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn concurrent_force_runs_exactly_once() {
        for _ in 0..20 {
            let count = StdArc::new(AtomicUsize::new(0));
            let c = count.clone();
            let t = Thunk::new(move || {
                c.fetch_add(1, Ordering::SeqCst);
                thread::sleep(std::time::Duration::from_millis(2));
                99usize
            });
            let handles: Vec<_> = (0..6)
                .map(|_| {
                    let t = t.clone();
                    thread::spawn(move || *t.force())
                })
                .collect();
            for h in handles {
                assert_eq!(h.join().unwrap(), 99);
            }
            assert_eq!(count.load(Ordering::SeqCst), 1);
        }
    }

    #[test]
    fn nested_forcing_does_not_deadlock() {
        let inner = Thunk::new(|| 1);
        let inner2 = inner.clone();
        let outer = Thunk::new(move || *inner2.force() + 1);
        assert_eq!(*outer.force(), 2);
        assert!(inner.is_forced());
    }

    #[test]
    fn try_get_reflects_state() {
        let t = Thunk::new(|| 3);
        assert_eq!(t.try_get(), None);
        t.force();
        assert_eq!(t.try_get(), Some(&3));
    }

    #[test]
    fn debug_formats_both_states() {
        let t = Thunk::new(|| 1u8);
        assert_eq!(format!("{t:?}"), "Thunk(<suspended>)");
        t.force();
        assert_eq!(format!("{t:?}"), "Thunk(1)");
    }
}
