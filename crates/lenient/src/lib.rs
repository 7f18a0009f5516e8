//! Lenient data constructors for Rust.
//!
//! Keller & Lindstrom (ICDCS 1985) build their functional database on
//! *lenient data constructors*: data structures whose components are
//! positionally accessible before all components have been computed. This
//! crate is the operational counterpart of that idea, built from three
//! primitives:
//!
//! * [`Lenient<T>`] — a write-once cell. A producer [`Lenient::fill`]s it
//!   exactly once; any number of consumers may [`Lenient::wait`] (blocking)
//!   or [`Lenient::try_get`] (non-blocking) before, during, or after the
//!   fill.
//! * [`Thunk<T>`] — a by-need suspension: a computation forced at most once,
//!   on first demand ("lazy evaluation" in the paper's terminology).
//! * [`Stream<T>`] — a persistent stream whose tail is a lenient cell or a
//!   thunk, so "input sequences of unknown or infinite length are bona fide
//!   data objects". Streams support the paper's operators: `followed-by`
//!   ([`Stream::cons`]), `first`/`rest`, and apply-to-all ([`Stream::map`]);
//!   [`Stream::drive`] folds a state over a stream on the threads that fill
//!   it — a site as a function of its inbox, with no thread of its own.
//!
//! Two execution-support primitives ride along: [`WorkerPool`], the FIFO
//! pool the pipelined engine hands batch jobs to, and [`AtomicArc<T>`], a
//! lock-free publication slot the engine uses as its read frontier.
//!
//! On top of these the crate provides the one *pseudo-functional* component
//! the paper permits itself: the nondeterministic [`merge`](merge::merge) of
//! several tagged streams, which interleaves them in arrival order while
//! preserving the internal order of each input.
//!
//! # Example
//!
//! ```
//! use fundb_lenient::Stream;
//!
//! // A stream produced leniently: consumers can read elements the moment
//! // they are pushed, well before the stream is complete.
//! let (mut writer, stream) = Stream::channel();
//! writer.push(1);
//! let (first, rest) = stream.uncons().expect("nonempty");
//! assert_eq!(first, 1);
//! writer.push(2);
//! writer.close();
//! assert_eq!(rest.collect_vec(), vec![2]);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cell;
pub mod frontier;
pub mod merge;
pub mod pool;
pub mod stream;
pub mod tagged;
pub mod thunk;

pub use cell::{FillError, Lenient};
pub use frontier::AtomicArc;
pub use merge::{merge, merge_deterministic, merge_tagged, MergeSchedule};
pub use pool::{spawn_deferred, spawn_on_current_pool, Job, Spawner, WorkerPool};
pub use stream::{Stream, StreamWriter};
pub use tagged::Tagged;
pub use thunk::Thunk;
