//! Shim for `crossbeam` (see `shims/README.md`).
//!
//! Provides `crossbeam::channel`'s unbounded MPMC channel: cloneable
//! senders *and* receivers over one shared queue, with crossbeam's
//! disconnect semantics (send fails once every receiver is gone; recv
//! fails once every sender is gone and the queue is drained).

pub mod channel {
    //! Unbounded multi-producer multi-consumer FIFO channel.

    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex, PoisonError};

    struct Shared<T> {
        queue: Mutex<VecDeque<T>>,
        ready: Condvar,
        senders: AtomicUsize,
        receivers: AtomicUsize,
        /// Receivers currently blocked in `recv`. Registered while holding
        /// the queue lock, so a sender that enqueued under the same lock
        /// cannot miss a sleeper; senders skip the OS wakeup when zero.
        sleepers: AtomicUsize,
    }

    impl<T> Shared<T> {
        fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<T>> {
            self.queue.lock().unwrap_or_else(PoisonError::into_inner)
        }
    }

    /// Error returned by [`Sender::send`] when every receiver is gone; the
    /// unsent value is handed back.
    #[derive(PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// every sender is gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("receiving on an empty, disconnected channel")
        }
    }

    impl<T: fmt::Debug> std::error::Error for SendError<T> {}
    impl std::error::Error for RecvError {}

    /// The sending half; clones share the same queue.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// The receiving half; clones *share* the queue (each message is
    /// delivered to exactly one receiver).
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    /// Creates an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            senders: AtomicUsize::new(1),
            receivers: AtomicUsize::new(1),
            sleepers: AtomicUsize::new(0),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    impl<T> Sender<T> {
        /// Enqueues `value`, failing if every receiver has been dropped.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            if self.shared.receivers.load(Ordering::SeqCst) == 0 {
                return Err(SendError(value));
            }
            self.shared.lock().push_back(value);
            if self.shared.sleepers.load(Ordering::SeqCst) > 0 {
                self.shared.ready.notify_one();
            }
            Ok(())
        }

        /// Whether no message is waiting in the channel.
        pub fn is_empty(&self) -> bool {
            self.shared.lock().is_empty()
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.senders.fetch_add(1, Ordering::SeqCst);
            Sender {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.shared.senders.fetch_sub(1, Ordering::SeqCst) == 1 {
                // Last sender: wake receivers so they can observe disconnect.
                let _guard = self.shared.lock();
                self.shared.ready.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Dequeues the next message, blocking while the channel is empty
        /// and at least one sender is alive.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut queue = self.shared.lock();
            loop {
                if let Some(v) = queue.pop_front() {
                    return Ok(v);
                }
                if self.shared.senders.load(Ordering::SeqCst) == 0 {
                    return Err(RecvError);
                }
                self.shared.sleepers.fetch_add(1, Ordering::SeqCst);
                queue = self
                    .shared
                    .ready
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
                self.shared.sleepers.fetch_sub(1, Ordering::SeqCst);
            }
        }

        /// Blocking iterator over received messages; ends on disconnect.
        pub fn iter(&self) -> Iter<'_, T> {
            Iter { receiver: self }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.receivers.fetch_add(1, Ordering::SeqCst);
            Receiver {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.shared.receivers.fetch_sub(1, Ordering::SeqCst);
        }
    }

    impl<T: fmt::Debug> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Sender")
        }
    }

    impl<T: fmt::Debug> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Receiver")
        }
    }

    /// Borrowing blocking iterator (see [`Receiver::iter`]).
    pub struct Iter<'a, T> {
        receiver: &'a Receiver<T>,
    }

    impl<T> Iterator for Iter<'_, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.receiver.recv().ok()
        }
    }

    /// Owning blocking iterator (from `IntoIterator`).
    pub struct IntoIter<T> {
        receiver: Receiver<T>,
    }

    impl<T> Iterator for IntoIter<T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.receiver.recv().ok()
        }
    }

    impl<T> IntoIterator for Receiver<T> {
        type Item = T;
        type IntoIter = IntoIter<T>;
        fn into_iter(self) -> IntoIter<T> {
            IntoIter { receiver: self }
        }
    }

    impl<'a, T> IntoIterator for &'a Receiver<T> {
        type Item = T;
        type IntoIter = Iter<'a, T>;
        fn into_iter(self) -> Iter<'a, T> {
            self.iter()
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn fifo_roundtrip() {
            let (tx, rx) = unbounded();
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.recv(), Ok(2));
        }

        #[test]
        fn recv_fails_after_senders_drop() {
            let (tx, rx) = unbounded::<u8>();
            tx.send(9).unwrap();
            drop(tx);
            assert_eq!(rx.recv(), Ok(9));
            assert_eq!(rx.recv(), Err(RecvError));
        }

        #[test]
        fn send_fails_after_receivers_drop() {
            let (tx, rx) = unbounded::<u8>();
            drop(rx);
            assert_eq!(tx.send(1), Err(SendError(1)));
        }

        #[test]
        fn cloned_receivers_split_the_stream() {
            let (tx, rx1) = unbounded();
            let rx2 = rx1.clone();
            for i in 0..100 {
                tx.send(i).unwrap();
            }
            drop(tx);
            let a: Vec<i32> = rx1.iter().collect();
            let b: Vec<i32> = rx2.iter().collect();
            assert_eq!(a.len() + b.len(), 100);
        }

        #[test]
        fn cross_thread_delivery() {
            let (tx, rx) = unbounded();
            let t = std::thread::spawn(move || rx.into_iter().sum::<u64>());
            for i in 1..=10u64 {
                tx.send(i).unwrap();
            }
            drop(tx);
            assert_eq!(t.join().unwrap(), 55);
        }
    }
}
