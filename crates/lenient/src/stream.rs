//! Persistent streams with lenient tails.
//!
//! A [`Stream<T>`] is the paper's stream object: a sequence of unknown (or
//! infinite) length that is a bona fide data value. Its spine cells are
//! either *lenient* (filled by an external producer through a
//! [`StreamWriter`]) or *lazy* (computed on demand by a suspension, as
//! produced by combinators like [`Stream::map`] and [`Stream::unfold`]).
//!
//! Consumers never observe the difference: `first`, `rest`, and `uncons`
//! block only when the demanded cell is genuinely not yet available — the
//! paper's "only essential data dependencies play a role in
//! synchronization".

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::iter::FromIterator;
use std::time::Duration;

use crate::cell::Lenient;
use crate::thunk::Thunk;

/// One resolved spine cell of a stream: either the end, or an element
/// followed by the rest of the stream.
pub enum Node<T> {
    /// End of stream (`[]` in the paper's notation).
    Nil,
    /// An element followed by the remaining stream (`x ^ rest`).
    Cons(T, Stream<T>),
}

impl<T: fmt::Debug> fmt::Debug for Node<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Node::Nil => f.write_str("Nil"),
            Node::Cons(x, _) => f.debug_tuple("Cons").field(x).finish(),
        }
    }
}

enum CellKind<T> {
    Lenient(Lenient<Node<T>>),
    Lazy(Thunk<Node<T>>),
}

impl<T> Clone for CellKind<T> {
    fn clone(&self) -> Self {
        match self {
            CellKind::Lenient(c) => CellKind::Lenient(c.clone()),
            CellKind::Lazy(t) => CellKind::Lazy(t.clone()),
        }
    }
}

/// A persistent stream whose suffix may still be under construction.
///
/// Clones share structure; a stream may be read by many consumers
/// concurrently, each at its own position, without interference — reads
/// force or wait on spine cells but never mutate resolved structure.
pub struct Stream<T> {
    cell: CellKind<T>,
}

impl<T> Clone for Stream<T> {
    fn clone(&self) -> Self {
        Stream {
            cell: self.cell.clone(),
        }
    }
}

impl<T> Stream<T> {
    /// If this handle is the sole owner of a resolved `Cons` cell, empties
    /// the cell and returns its tail. O(1); `None` for a shared, unfilled,
    /// unforced or `Nil` cell.
    fn take_sole_tail(&mut self) -> Option<Stream<T>> {
        let node = match &mut self.cell {
            CellKind::Lenient(c) => c.take_if_sole(),
            CellKind::Lazy(t) => t.take_if_sole(),
        };
        match node? {
            Node::Nil => None,
            Node::Cons(_, tail) => Some(tail),
        }
    }
}

impl<T> Drop for Stream<T> {
    /// Iterative unlink: letting the last handle to a long resolved spine
    /// free it cell by cell would recurse once per element and overflow
    /// the stack (a medium that carried a few hundred thousand messages
    /// is such a spine). While this handle is the sole owner of a cell,
    /// its tail is detached before the cell drops; the walk stops at the
    /// first cell someone else still holds, or that is not yet resolved.
    /// A handle that is not the last owner pays one failed ownership
    /// check.
    fn drop(&mut self) {
        let mut next = self.take_sole_tail();
        while let Some(mut tail) = next {
            next = tail.take_sole_tail();
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for Stream<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_node() {
            Some(Node::Nil) => f.write_str("Stream[]"),
            Some(Node::Cons(x, _)) => write!(f, "Stream[{x:?}, ...]"),
            None => f.write_str("Stream[<pending>]"),
        }
    }
}

impl<T> Stream<T> {
    fn from_node_cell(cell: Lenient<Node<T>>) -> Self {
        Stream {
            cell: CellKind::Lenient(cell),
        }
    }

    fn from_thunk(thunk: Thunk<Node<T>>) -> Self {
        Stream {
            cell: CellKind::Lazy(thunk),
        }
    }

    /// The empty stream, `[]`.
    pub fn empty() -> Self {
        Stream::from_node_cell(Lenient::ready(Node::Nil))
    }

    /// The paper's infix `^` ("followed-by"): `head` followed by `tail`.
    ///
    /// The head is strict but the tail may itself still be under
    /// construction, so a stream can be extended at the front while its
    /// suffix is being produced elsewhere.
    pub fn cons(head: T, tail: Stream<T>) -> Self {
        Stream::from_node_cell(Lenient::ready(Node::Cons(head, tail)))
    }

    /// Creates a producer/consumer pair: elements pushed through the
    /// [`StreamWriter`] become visible to stream readers immediately.
    pub fn channel() -> (StreamWriter<T>, Stream<T>) {
        let cell = Lenient::new();
        let stream = Stream::from_node_cell(cell.clone());
        (StreamWriter { tail: Some(cell) }, stream)
    }

    /// Resolves this stream's first spine cell, blocking if a producer has
    /// not yet filled it (and forcing it if it is lazy).
    pub fn wait_node(&self) -> &Node<T> {
        match &self.cell {
            CellKind::Lenient(c) => c.wait(),
            CellKind::Lazy(t) => t.force(),
        }
    }

    /// Like [`wait_node`](Self::wait_node), but gives up on an unfilled
    /// lenient cell after `timeout` and returns `None`.
    pub fn wait_node_timeout(&self, timeout: Duration) -> Option<&Node<T>> {
        match &self.cell {
            CellKind::Lenient(c) => c.wait_timeout(timeout),
            CellKind::Lazy(t) => Some(t.force()),
        }
    }

    /// Non-blocking, non-forcing peek at the first spine cell.
    ///
    /// Returns `None` if the cell is unfilled or an unforced suspension.
    pub fn try_node(&self) -> Option<&Node<T>> {
        match &self.cell {
            CellKind::Lenient(c) => c.try_get(),
            CellKind::Lazy(t) => t.try_get(),
        }
    }

    /// Blocks until the first cell resolves; `true` if the stream is empty.
    pub fn is_nil(&self) -> bool {
        matches!(self.wait_node(), Node::Nil)
    }

    /// The rest of the stream (blocking), or `None` for the empty stream.
    pub fn rest(&self) -> Option<Stream<T>> {
        match self.wait_node() {
            Node::Nil => None,
            Node::Cons(_, rest) => Some(rest.clone()),
        }
    }
}

impl<T: Send + Sync + 'static> Stream<T> {
    /// Folds `step` over this stream's nodes, each exactly once and in
    /// order, with no thread of its own: a site as a function of its
    /// inbox.
    ///
    /// `step(state, node)` takes the state by value and returns it for the
    /// next node, or `None` to stop; the end of the stream is stepped too,
    /// as [`Node::Nil`]. The fold loops here over every node that is
    /// already resolved, then registers its continuation with
    /// [`Lenient::on_fill`] on the first unfilled cell and returns. The
    /// thread that fills that cell runs the next steps, looping over
    /// whatever it finds filled in turn. The state is in one place at a
    /// time, so no two steps overlap, and a fill never waits for a step in
    /// progress elsewhere: the stepping thread reaches the new node when
    /// its current step returns. A lazy cell is forced on the stepping
    /// thread.
    ///
    /// `step` runs inside whatever the filler was doing, under
    /// [`Lenient::on_fill`]'s rule: it must not block, and must not take a
    /// lock a filler may hold. A step that wakes a waiting thread defers
    /// the wake-up with [`after_steps`], so the woken thread does not find
    /// the fold still in the hands of the thread that woke it.
    pub fn drive<S, F>(self, state: S, step: F)
    where
        S: Send + 'static,
        F: FnMut(S, &Node<T>) -> Option<S> + Send + 'static,
    {
        let _outermost = Outermost::enter();
        let (mut at, mut state, mut step) = (self, state, step);
        loop {
            let node = match &at.cell {
                CellKind::Lazy(t) => t.force(),
                CellKind::Lenient(c) => match c.try_get() {
                    Some(node) => node,
                    None => match c.on_fill_or_back((state, step), resume) {
                        Ok(()) => return,
                        // Filled since `try_get`: go round again.
                        Err((s, f)) => {
                            (state, step) = (s, f);
                            continue;
                        }
                    },
                },
            };
            let Some(next) = step(state, node) else {
                return;
            };
            state = next;
            at = match node {
                Node::Cons(_, rest) => rest.clone(),
                Node::Nil => return,
            };
        }
    }
}

/// Work [`after_steps`] deferred, in order.
type Deferred = VecDeque<Box<dyn FnOnce()>>;

thread_local! {
    /// The work [`after_steps`] deferred on this thread, while a
    /// [`Stream::drive`] runs on it; `None` outside one.
    static AFTER_STEPS: RefCell<Option<Deferred>> = const { RefCell::new(None) };
}

/// Runs `f` once no fold is stepping on this thread: at once outside
/// [`Stream::drive`], otherwise when the outermost `drive` on this thread
/// has stepped every node it found and parked its fold. Work deferred this
/// way runs in order, still before that `drive` returns.
pub fn after_steps(f: impl FnOnce() + 'static) {
    let now = AFTER_STEPS.with(|after| match after.borrow_mut().as_mut() {
        Some(queue) => {
            queue.push_back(Box::new(f));
            None
        }
        None => Some(f),
    });
    if let Some(f) = now {
        f();
    }
}

/// Marks the outermost [`Stream::drive`] on a thread; dropped, it runs the
/// work [`after_steps`] deferred, which may defer more. A panicking step
/// leaves the deferred work undone.
struct Outermost(bool);

impl Outermost {
    fn enter() -> Outermost {
        AFTER_STEPS.with(|after| {
            let mut after = after.borrow_mut();
            let outermost = after.is_none();
            after.get_or_insert_with(VecDeque::new);
            Outermost(outermost)
        })
    }
}

impl Drop for Outermost {
    fn drop(&mut self) {
        if !self.0 {
            return;
        }
        loop {
            let next = AFTER_STEPS.with(|after| {
                let mut after = after.borrow_mut();
                let next = after.as_mut().and_then(VecDeque::pop_front);
                let next = next.filter(|_| !std::thread::panicking());
                if next.is_none() {
                    *after = None;
                }
                next
            });
            match next {
                Some(f) => f(),
                None => return,
            }
        }
    }
}

/// The continuation [`Stream::drive`] leaves on an unfilled cell: step the
/// node that filled it, then drive on from its tail.
fn resume<T, S, F>((state, mut step): (S, F), node: &Node<T>)
where
    T: Send + Sync + 'static,
    S: Send + 'static,
    F: FnMut(S, &Node<T>) -> Option<S> + Send + 'static,
{
    let _outermost = Outermost::enter();
    if let (Some(state), Node::Cons(_, rest)) = (step(state, node), node) {
        rest.clone().drive(state, step);
    }
}

impl<T: Clone> Stream<T> {
    /// The first element (blocking), or `None` for the empty stream.
    pub fn first(&self) -> Option<T> {
        match self.wait_node() {
            Node::Nil => None,
            Node::Cons(x, _) => Some(x.clone()),
        }
    }

    /// Splits off the first element and the rest (blocking).
    pub fn uncons(&self) -> Option<(T, Stream<T>)> {
        match self.wait_node() {
            Node::Nil => None,
            Node::Cons(x, rest) => Some((x.clone(), rest.clone())),
        }
    }

    /// The `n`-th element (0-based), forcing the spine up to it.
    pub fn nth(&self, n: usize) -> Option<T> {
        let mut cur = self.clone();
        for _ in 0..n {
            cur = cur.rest()?;
        }
        cur.first()
    }

    /// A blocking iterator over the stream's elements.
    ///
    /// Iteration forces the spine; on a producer-driven stream it blocks at
    /// the frontier until the producer pushes or closes.
    pub fn iter(&self) -> Iter<T> {
        Iter { cur: self.clone() }
    }

    /// Forces the entire stream into a `Vec`. Diverges on infinite streams.
    pub fn collect_vec(&self) -> Vec<T> {
        self.iter().collect()
    }

    /// Forces the entire stream and returns its length.
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    /// Blocking emptiness check (alias of [`is_nil`](Self::is_nil), provided
    /// for collection-like call sites).
    pub fn is_empty(&self) -> bool {
        self.is_nil()
    }
}

impl<T: Clone + Send + Sync + 'static> Stream<T> {
    /// The paper's apply-to-all operator (`f || stream`), lazily.
    ///
    /// No element of the source is demanded until the corresponding element
    /// of the result is demanded, so `map` over an unbounded query stream is
    /// itself an unbounded stream.
    pub fn map<U, F>(&self, f: F) -> Stream<U>
    where
        U: Send + Sync + 'static,
        F: Fn(T) -> U + Send + Sync + 'static,
    {
        fn go<T, U, F>(src: Stream<T>, f: std::sync::Arc<F>) -> Stream<U>
        where
            T: Clone + Send + Sync + 'static,
            U: Send + Sync + 'static,
            F: Fn(T) -> U + Send + Sync + 'static,
        {
            Stream::from_thunk(Thunk::new(move || match src.wait_node() {
                Node::Nil => Node::Nil,
                Node::Cons(x, rest) => {
                    let y = f(x.clone());
                    Node::Cons(y, go(rest.clone(), f))
                }
            }))
        }
        go(self.clone(), std::sync::Arc::new(f))
    }

    /// Lazily retains the elements satisfying `pred`.
    pub fn filter<F>(&self, pred: F) -> Stream<T>
    where
        F: Fn(&T) -> bool + Send + Sync + 'static,
    {
        fn go<T, F>(src: Stream<T>, pred: std::sync::Arc<F>) -> Stream<T>
        where
            T: Clone + Send + Sync + 'static,
            F: Fn(&T) -> bool + Send + Sync + 'static,
        {
            Stream::from_thunk(Thunk::new(move || {
                let mut cur = src;
                loop {
                    match cur.wait_node() {
                        Node::Nil => return Node::Nil,
                        Node::Cons(x, rest) => {
                            let rest = rest.clone();
                            if pred(x) {
                                return Node::Cons(x.clone(), go(rest, pred));
                            }
                            cur = rest;
                        }
                    }
                }
            }))
        }
        go(self.clone(), std::sync::Arc::new(pred))
    }

    /// Lazily takes at most the first `n` elements.
    pub fn take(&self, n: usize) -> Stream<T> {
        fn go<T: Clone + Send + Sync + 'static>(src: Stream<T>, n: usize) -> Stream<T> {
            Stream::from_thunk(Thunk::new(move || {
                if n == 0 {
                    return Node::Nil;
                }
                match src.wait_node() {
                    Node::Nil => Node::Nil,
                    Node::Cons(x, rest) => Node::Cons(x.clone(), go(rest.clone(), n - 1)),
                }
            }))
        }
        go(self.clone(), n)
    }

    /// Lazily skips the first `n` elements.
    pub fn skip(&self, n: usize) -> Stream<T> {
        fn go<T: Clone + Send + Sync + 'static>(src: Stream<T>, n: usize) -> Stream<T> {
            Stream::from_thunk(Thunk::new(move || {
                let mut cur = src;
                let mut n = n;
                loop {
                    match cur.wait_node() {
                        Node::Nil => return Node::Nil,
                        Node::Cons(x, rest) => {
                            if n == 0 {
                                return Node::Cons(x.clone(), rest.clone());
                            }
                            n -= 1;
                            cur = rest.clone();
                        }
                    }
                }
            }))
        }
        go(self.clone(), n)
    }

    /// Lazily concatenates `other` after `self`.
    pub fn append(&self, other: Stream<T>) -> Stream<T> {
        fn go<T: Clone + Send + Sync + 'static>(a: Stream<T>, b: Stream<T>) -> Stream<T> {
            Stream::from_thunk(Thunk::new(move || match a.wait_node() {
                Node::Nil => match b.wait_node() {
                    Node::Nil => Node::Nil,
                    Node::Cons(x, rest) => Node::Cons(x.clone(), rest.clone()),
                },
                Node::Cons(x, rest) => Node::Cons(x.clone(), go(rest.clone(), b)),
            }))
        }
        go(self.clone(), other)
    }

    /// Lazily pairs elements of two streams, ending at the shorter.
    pub fn zip<U: Clone + Send + Sync + 'static>(&self, other: &Stream<U>) -> Stream<(T, U)> {
        fn go<T, U>(a: Stream<T>, b: Stream<U>) -> Stream<(T, U)>
        where
            T: Clone + Send + Sync + 'static,
            U: Clone + Send + Sync + 'static,
        {
            Stream::from_thunk(Thunk::new(move || match (a.wait_node(), b.wait_node()) {
                (Node::Cons(x, ra), Node::Cons(y, rb)) => {
                    Node::Cons((x.clone(), y.clone()), go(ra.clone(), rb.clone()))
                }
                _ => Node::Nil,
            }))
        }
        go(self.clone(), other.clone())
    }

    /// Anamorphism: lazily unfolds a stream from a seed.
    ///
    /// `step` returns `Some((element, next_seed))` to extend the stream and
    /// `None` to end it. The canonical way to build infinite streams:
    ///
    /// ```
    /// use fundb_lenient::Stream;
    /// let naturals = Stream::unfold(0u64, |n| Some((n, n + 1)));
    /// assert_eq!(naturals.take(4).collect_vec(), vec![0, 1, 2, 3]);
    /// ```
    pub fn unfold<S, F>(seed: S, step: F) -> Stream<T>
    where
        S: Send + Sync + 'static,
        F: Fn(S) -> Option<(T, S)> + Send + Sync + 'static,
    {
        fn go<T, S, F>(seed: S, step: std::sync::Arc<F>) -> Stream<T>
        where
            T: Clone + Send + Sync + 'static,
            S: Send + Sync + 'static,
            F: Fn(S) -> Option<(T, S)> + Send + Sync + 'static,
        {
            Stream::from_thunk(Thunk::new(move || match step(seed) {
                None => Node::Nil,
                Some((x, next)) => Node::Cons(x, go(next, step)),
            }))
        }
        go(seed, std::sync::Arc::new(step))
    }
}

impl<T> FromIterator<T> for Stream<T> {
    /// Builds a fully-resolved (strict) stream from an iterator.
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let items: Vec<T> = iter.into_iter().collect();
        let mut stream = Stream::empty();
        for item in items.into_iter().rev() {
            stream = Stream::cons(item, stream);
        }
        stream
    }
}

/// Blocking iterator over a stream; see [`Stream::iter`].
#[derive(Debug)]
pub struct Iter<T> {
    cur: Stream<T>,
}

impl<T: Clone> Iterator for Iter<T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        let (x, rest) = self.cur.uncons()?;
        self.cur = rest;
        Some(x)
    }
}

/// The producing end of a lenient stream (see [`Stream::channel`]).
///
/// Elements become visible to readers the moment they are pushed — readers
/// positioned at the frontier wake immediately. Dropping the writer closes
/// the stream (fills the tail with `Nil`) so readers never block forever on
/// an abandoned producer.
pub struct StreamWriter<T> {
    tail: Option<Lenient<Node<T>>>,
}

impl<T> fmt::Debug for StreamWriter<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.tail {
            Some(_) => f.write_str("StreamWriter(open)"),
            None => f.write_str("StreamWriter(closed)"),
        }
    }
}

impl<T> StreamWriter<T> {
    /// Appends one element to the stream.
    ///
    /// # Panics
    ///
    /// Panics if the stream has already been [`close`](Self::close)d.
    pub fn push(&mut self, item: T) {
        self.reserve().fill(item);
    }

    /// Appends an element that is not known yet: its position is fixed
    /// now, and later pushes go behind it, but readers see it — and are
    /// woken — only when the returned [`Reserved`] is filled. Lets a
    /// writer that orders elements under a lock wake readers after
    /// releasing it.
    ///
    /// # Panics
    ///
    /// Panics if the stream has already been [`close`](Self::close)d.
    pub fn reserve(&mut self) -> Reserved<T> {
        let at = self.tail.take().expect("push on a closed stream writer");
        let next = Lenient::new();
        let rest = Stream::from_node_cell(next.clone());
        self.tail = Some(next);
        Reserved { at, rest }
    }

    /// Moves the stream's open end into a new writer and leaves this one
    /// closed, without ending the stream: a writer kept under a lock can
    /// be taken out under it and ended once the lock is released.
    pub fn detach(&mut self) -> StreamWriter<T> {
        StreamWriter {
            tail: self.tail.take(),
        }
    }

    /// Appends every element of `items` in order.
    ///
    /// # Panics
    ///
    /// Panics if the stream has already been closed.
    pub fn push_all<I: IntoIterator<Item = T>>(&mut self, items: I) {
        for item in items {
            self.push(item);
        }
    }

    /// Ends the stream. Idempotent.
    pub fn close(&mut self) {
        if let Some(tail) = self.tail.take() {
            tail.fill(Node::Nil)
                .unwrap_or_else(|_| unreachable!("stream tail filled by foreign writer"));
        }
    }
}

/// A stream position taken by [`StreamWriter::reserve`], not yet filled.
/// Readers that reach it wait until [`fill`](Self::fill) is called.
pub struct Reserved<T> {
    at: Lenient<Node<T>>,
    rest: Stream<T>,
}

impl<T> fmt::Debug for Reserved<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Reserved")
    }
}

impl<T> Reserved<T> {
    /// Puts `item` at the reserved position, waking its readers.
    pub fn fill(self, item: T) {
        self.at
            .fill(Node::Cons(item, self.rest))
            .unwrap_or_else(|_| unreachable!("a reserved position has one filler"));
    }
}

impl<T> Drop for StreamWriter<T> {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn empty_stream_is_nil() {
        let s: Stream<u8> = Stream::empty();
        assert!(s.is_nil());
        assert_eq!(s.first(), None);
        assert_eq!(s.collect_vec(), Vec::<u8>::new());
    }

    #[test]
    fn cons_builds_front() {
        let s = Stream::cons(1, Stream::cons(2, Stream::empty()));
        assert_eq!(s.collect_vec(), vec![1, 2]);
        assert_eq!(s.first(), Some(1));
        assert_eq!(s.rest().unwrap().first(), Some(2));
    }

    #[test]
    fn from_iterator_round_trips() {
        let s: Stream<i32> = (0..10).collect();
        assert_eq!(s.collect_vec(), (0..10).collect::<Vec<_>>());
        assert_eq!(s.len(), 10);
    }

    #[test]
    fn channel_elements_visible_immediately() {
        let (mut w, s) = Stream::channel();
        assert!(s.try_node().is_none());
        w.push(5);
        let (x, rest) = s.uncons().unwrap();
        assert_eq!(x, 5);
        assert!(rest.try_node().is_none());
        w.close();
        assert!(rest.is_nil());
    }

    #[test]
    fn reader_blocks_until_producer_pushes() {
        let (mut w, s) = Stream::channel();
        let t = thread::spawn(move || s.first());
        thread::sleep(Duration::from_millis(20));
        w.push(42);
        assert_eq!(t.join().unwrap(), Some(42));
    }

    #[test]
    fn dropping_writer_closes_stream() {
        let (w, s): (StreamWriter<u8>, Stream<u8>) = Stream::channel();
        drop(w);
        assert!(s.is_nil());
    }

    #[test]
    fn reserved_position_holds_its_place_until_filled() {
        let (mut w, s) = Stream::channel();
        let first = w.reserve();
        w.push(2);
        w.close();
        assert!(s.try_node().is_none(), "unfilled until the reservation is");
        first.fill(1);
        assert_eq!(s.collect_vec(), vec![1, 2]);
    }

    /// What a recording fold has stepped so far: each element (`None` for
    /// the end of the stream) and the thread that stepped it.
    type Log<T> = std::sync::Arc<std::sync::Mutex<Vec<(Option<T>, thread::ThreadId)>>>;

    /// Drives `s` with a fold that appends every node it steps to the
    /// returned log.
    fn record<T: Clone + Send + Sync + 'static>(s: Stream<T>) -> Log<T> {
        let log: Log<T> = Default::default();
        let out = log.clone();
        s.drive((), move |(), node| {
            let x = match node {
                Node::Cons(x, _) => Some(x.clone()),
                Node::Nil => None,
            };
            out.lock().unwrap().push((x, thread::current().id()));
            Some(())
        });
        log
    }

    fn elements<T: Clone>(log: &Log<T>) -> Vec<Option<T>> {
        log.lock().unwrap().iter().map(|(x, _)| x.clone()).collect()
    }

    #[test]
    fn drive_steps_a_filled_backlog_before_returning_then_each_fill_on_its_filler() {
        let (mut w, s) = Stream::channel();
        w.push_all([0, 1, 2]);
        let log = record(s);
        let me = thread::current().id();
        assert_eq!(elements(&log), vec![Some(0), Some(1), Some(2)]);
        assert!(log.lock().unwrap().iter().all(|(_, t)| *t == me));
        let filler = thread::spawn(move || {
            w.push(3);
            (w, thread::current().id())
        });
        let (mut w, them) = filler.join().unwrap();
        assert_eq!(log.lock().unwrap()[3], (Some(3), them));
        w.close();
        assert_eq!(log.lock().unwrap()[4], (None, me), "the end is stepped");
    }

    #[test]
    fn drive_runs_a_later_position_on_the_thread_that_fills_the_gap() {
        let (mut w, s) = Stream::channel();
        let (first, second) = (w.reserve(), w.reserve());
        let log = record(s);
        thread::spawn(move || second.fill(2)).join().unwrap();
        assert!(elements(&log).is_empty(), "position 2 waits for position 1");
        let filler = thread::spawn(move || {
            first.fill(1);
            thread::current().id()
        });
        let them = filler.join().unwrap();
        let log = log.lock().unwrap().clone();
        assert_eq!(log, vec![(Some(1), them), (Some(2), them)]);
    }

    #[test]
    fn drive_loops_over_a_long_backlog() {
        on_small_stack(|| {
            let (mut w, s) = Stream::channel();
            w.push_all(0..200_000u32);
            w.close();
            let steps = Lenient::new();
            let out = steps.clone();
            s.drive(0u32, move |n, node| match node {
                Node::Cons(x, _) => {
                    assert_eq!(*x, n, "stepped out of order");
                    Some(n + 1)
                }
                Node::Nil => {
                    out.fill(n).unwrap();
                    None
                }
            });
            assert_eq!(steps.try_get(), Some(&200_000));
        });
    }

    #[test]
    fn drive_runs_deferred_work_once_the_fold_has_parked() {
        let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let (mut w, s) = Stream::channel();
        w.push_all([1, 2]);
        let seen = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let steps = seen.clone();
        s.drive((), move |(), node| {
            if let Node::Cons(x, _) = node {
                steps.lock().unwrap().push(format!("step {x}"));
                let after = steps.clone();
                let x = *x;
                after_steps(move || after.lock().unwrap().push(format!("after {x}")));
            }
            Some(())
        });
        assert_eq!(
            *seen.lock().unwrap(),
            ["step 1", "step 2", "after 1", "after 2"],
            "deferred work waits for the fold to park, then runs before drive returns"
        );
        let outside = log.clone();
        after_steps(move || outside.borrow_mut().push("now"));
        assert_eq!(*log.borrow(), ["now"], "outside a step it runs at once");
    }

    #[test]
    fn drive_racing_two_fillers_steps_each_node_once_in_order() {
        const BACKLOG: usize = 2;
        const RESERVED: usize = 8;
        for i in 0..2000 {
            let (mut w, s) = Stream::channel();
            w.push_all(0..BACKLOG);
            let slots: Vec<Reserved<usize>> = (0..RESERVED).map(|_| w.reserve()).collect();
            w.close();
            let (mut evens, mut odds) = (Vec::new(), Vec::new());
            for (k, slot) in slots.into_iter().enumerate() {
                let side = if k % 2 == 0 { &mut evens } else { &mut odds };
                side.push((BACKLOG + k, slot));
            }
            let fillers: Vec<_> = [evens, odds]
                .into_iter()
                .map(|side| {
                    thread::spawn(move || {
                        for (x, slot) in side {
                            slot.fill(x);
                        }
                    })
                })
                .collect();
            let log = record(s);
            for f in fillers {
                f.join().unwrap();
            }
            let want: Vec<Option<usize>> = (0..BACKLOG + RESERVED)
                .map(Some)
                .chain(std::iter::once(None))
                .collect();
            assert_eq!(elements(&log), want, "iteration {i}");
        }
    }

    #[test]
    fn two_readers_at_different_positions() {
        let (mut w, s) = Stream::channel();
        w.push_all([1, 2, 3]);
        let r1 = s.clone();
        let r2 = s.rest().unwrap();
        assert_eq!(r1.first(), Some(1));
        assert_eq!(r2.first(), Some(2));
        w.close();
        assert_eq!(r1.collect_vec(), vec![1, 2, 3]);
        assert_eq!(r2.collect_vec(), vec![2, 3]);
    }

    #[test]
    fn map_is_lazy() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let calls = Arc::new(AtomicUsize::new(0));
        let c = calls.clone();
        let s: Stream<i32> = (0..100).collect();
        let mapped = s.map(move |x| {
            c.fetch_add(1, Ordering::SeqCst);
            x * 2
        });
        assert_eq!(calls.load(Ordering::SeqCst), 0);
        assert_eq!(mapped.nth(2), Some(4));
        assert_eq!(calls.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn map_over_channel_pipelines() {
        let (mut w, s) = Stream::channel();
        let doubled = s.map(|x: i32| x * 2);
        w.push(10);
        assert_eq!(doubled.first(), Some(20));
        w.push(11);
        assert_eq!(doubled.nth(1), Some(22));
    }

    #[test]
    fn filter_take_skip() {
        let s: Stream<i32> = (0..20).collect();
        assert_eq!(
            s.filter(|x| x % 3 == 0).collect_vec(),
            vec![0, 3, 6, 9, 12, 15, 18]
        );
        assert_eq!(s.take(3).collect_vec(), vec![0, 1, 2]);
        assert_eq!(s.skip(17).collect_vec(), vec![17, 18, 19]);
        assert_eq!(s.take(0).collect_vec(), Vec::<i32>::new());
        assert_eq!(s.skip(100).collect_vec(), Vec::<i32>::new());
    }

    #[test]
    fn append_and_zip() {
        let a: Stream<i32> = (0..3).collect();
        let b: Stream<i32> = (10..12).collect();
        assert_eq!(a.append(b.clone()).collect_vec(), vec![0, 1, 2, 10, 11]);
        assert_eq!(a.zip(&b).collect_vec(), vec![(0, 10), (1, 11)]);
    }

    #[test]
    fn unfold_finite_and_infinite() {
        let countdown = Stream::unfold(3u8, |n| if n == 0 { None } else { Some((n, n - 1)) });
        assert_eq!(countdown.collect_vec(), vec![3, 2, 1]);
        let nats = Stream::unfold(0u64, |n| Some((n, n + 1)));
        assert_eq!(nats.take(5).collect_vec(), vec![0, 1, 2, 3, 4]);
        // Only the demanded prefix is forced.
        assert_eq!(nats.nth(100), Some(100));
    }

    #[test]
    fn infinite_map_filter_compose() {
        let nats = Stream::unfold(0u64, |n| Some((n, n + 1)));
        let evens = nats.filter(|n| n % 2 == 0).map(|n| n / 2);
        assert_eq!(evens.take(4).collect_vec(), vec![0, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "push on a closed stream writer")]
    fn push_after_close_panics() {
        let (mut w, _s) = Stream::channel();
        w.push(1u8);
        w.close();
        w.push(2u8);
    }

    /// Runs `f` on a thread whose stack a per-cell recursive drop of the
    /// spines below would overflow many times over.
    fn on_small_stack(f: impl FnOnce() + Send + 'static) {
        thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(f)
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn long_channel_stream_drops_without_recursion() {
        on_small_stack(|| {
            let (mut w, s) = Stream::channel();
            w.push_all(0..1_000_000u32);
            w.close();
            drop(s);
        });
    }

    #[test]
    fn long_forced_lazy_stream_drops_without_recursion() {
        on_small_stack(|| {
            let src: Stream<u32> = (0..400_000).collect();
            let mapped = src.filter(|x| x % 2 == 0).map(|x| x + 1);
            drop(src);
            assert_eq!(mapped.len(), 200_000);
            drop(mapped);
        });
    }

    #[test]
    fn drop_frees_up_to_the_first_shared_cell_and_no_further() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        #[derive(Clone)]
        struct Counted(usize, Arc<AtomicUsize>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.1.fetch_add(1, Ordering::SeqCst);
            }
        }
        const N: usize = 100_000;
        const K: usize = 60_000;
        on_small_stack(|| {
            let freed = Arc::new(AtomicUsize::new(0));
            let (mut w, s) = Stream::channel();
            w.push_all((0..N).map(|i| Counted(i, freed.clone())));
            w.close();
            let mut at_k = s.clone();
            for _ in 0..K {
                at_k = at_k.rest().unwrap();
            }
            drop(s);
            assert_eq!(freed.load(Ordering::SeqCst), K);
            let kept: Vec<usize> = at_k.iter().map(|c| c.0).collect();
            assert_eq!(kept, (K..N).collect::<Vec<_>>());
        });
    }

    #[test]
    fn producer_consumer_threads() {
        let (mut w, s) = Stream::channel();
        let producer = thread::spawn(move || {
            for i in 0..1000 {
                w.push(i);
            }
            w.close();
        });
        let consumer = thread::spawn(move || s.collect_vec());
        producer.join().unwrap();
        assert_eq!(consumer.join().unwrap(), (0..1000).collect::<Vec<_>>());
    }
}
