//! The durable commit hook: how a storage layer observes the engine's
//! write batches.
//!
//! The pipelined engine already amortizes thread handoffs by coalescing
//! consecutive writes to one relation into a single batch; a [`CommitSink`]
//! reuses those same batches as *group-commit* units. The engine calls
//! [`CommitSink::commit_writes`] exactly once per claimed batch, after the
//! batch's input version has arrived and before any of its transactions are
//! answered — so one fsync covers the whole run, and a transaction's
//! response doubles as its durability acknowledgement.
//!
//! Sequence numbers are per *component* — a base relation, or the bases a
//! view ties together: the engine assigns consecutive numbers (from 0, or
//! from the recovery marks passed to
//! [`PipelinedEngine::with_sink`](crate::PipelinedEngine::with_sink)) at
//! submission, under the component's slot lock. A batch's records therefore
//! carry consecutive sequence numbers, and the log observes each
//! component's writes in version order even when batches of different
//! components interleave in the file. A checkpoint records, per relation,
//! how many writes its state folds in (every base of a component shares
//! one mark); replay skips records below that mark.

use std::fmt;
use std::io;
use std::sync::Arc;

use fundb_query::Query;
use fundb_relational::RelationName;
use parking_lot::RwLock;

/// A durability hook invoked on the engine's write path.
///
/// Implementations must be thread-safe: batches of *different* components
/// commit concurrently from pool workers, and a bypass write commits on
/// its submitting thread under its component's slot lock. Commits of the
/// *same* component never overlap — batch N+1 waits on batch N's output
/// version before claiming, and a bypass write runs only on a settled
/// head.
///
/// An `Err` from either method aborts the operation: the engine answers the
/// affected transactions with an error response and publishes the
/// *unchanged* predecessor version, so a write that was never durable is
/// also never visible.
///
/// A failing implementation must leave its store in a state where *later*
/// successful commits remain recoverable: either none of the failed
/// batch's bytes persist past the store's valid prefix, or the sink keeps
/// failing until the store is repaired. (A sink that let an acknowledged
/// batch land beyond partial garbage would see recovery truncate it.)
pub trait CommitSink: Send + Sync {
    /// Makes one claimed batch of writes durable — the group commit.
    ///
    /// `writes` holds the batch's operations in application order, each
    /// with its per-component sequence number. Implementations should issue
    /// a single flush for the whole slice; the engine acknowledges each
    /// transaction only after this returns `Ok`.
    fn commit_writes(&self, relation: &RelationName, writes: &[(u64, Query)]) -> io::Result<()>;

    /// Makes a `create relation` durable, *before* it becomes visible in
    /// the catalog — so on replay every relation exists before its first
    /// write.
    fn commit_create(&self, query: &Query) -> io::Result<()>;
}

/// Fans each commit out to several sinks, in registration order.
///
/// The first sink that errors aborts the commit: later sinks are not
/// called, and the engine answers the batch with an error. Order therefore
/// encodes a dependency — register the sink whose success *defines* the
/// commit (the local log) first, and best-effort observers (a replication
/// sender) after it, so an observer only ever sees batches the durable
/// store accepted.
///
/// Sinks may be attached while the engine is live ([`push`](Self::push));
/// a batch committing concurrently with the attach sees either the old or
/// the new sink list, never a torn one.
pub struct FanoutSink {
    sinks: RwLock<Vec<Arc<dyn CommitSink>>>,
}

impl fmt::Debug for FanoutSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FanoutSink[{} sinks]", self.sinks.read().len())
    }
}

impl FanoutSink {
    /// A fan-out over `sinks`, forwarded to in the given order.
    pub fn new(sinks: Vec<Arc<dyn CommitSink>>) -> Self {
        FanoutSink {
            sinks: RwLock::new(sinks),
        }
    }

    /// Appends `sink` to the fan-out; it observes every commit from the
    /// next batch onward.
    pub fn push(&self, sink: Arc<dyn CommitSink>) {
        self.sinks.write().push(sink);
    }

    /// Number of registered sinks.
    pub fn len(&self) -> usize {
        self.sinks.read().len()
    }

    /// `true` when no sink is registered (commits succeed vacuously).
    pub fn is_empty(&self) -> bool {
        self.sinks.read().is_empty()
    }
}

impl CommitSink for FanoutSink {
    fn commit_writes(&self, relation: &RelationName, writes: &[(u64, Query)]) -> io::Result<()> {
        for sink in self.sinks.read().iter() {
            sink.commit_writes(relation, writes)?;
        }
        Ok(())
    }

    fn commit_create(&self, query: &Query) -> io::Result<()> {
        for sink in self.sinks.read().iter() {
            sink.commit_create(query)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    struct Counting {
        writes: AtomicUsize,
        creates: AtomicUsize,
        fail: bool,
    }

    impl Counting {
        fn new(fail: bool) -> Arc<Counting> {
            Arc::new(Counting {
                writes: AtomicUsize::new(0),
                creates: AtomicUsize::new(0),
                fail,
            })
        }
    }

    impl CommitSink for Counting {
        fn commit_writes(&self, _: &RelationName, _: &[(u64, Query)]) -> io::Result<()> {
            self.writes.fetch_add(1, Ordering::SeqCst);
            if self.fail {
                return Err(io::Error::other("injected"));
            }
            Ok(())
        }

        fn commit_create(&self, _: &Query) -> io::Result<()> {
            self.creates.fetch_add(1, Ordering::SeqCst);
            if self.fail {
                return Err(io::Error::other("injected"));
            }
            Ok(())
        }
    }

    fn probe_query() -> Query {
        Query::Count {
            relation: "R".into(),
        }
    }

    #[test]
    fn fanout_forwards_in_order_and_aborts_on_first_error() {
        let ok = Counting::new(false);
        let bad = Counting::new(true);
        let after = Counting::new(false);
        let fan = FanoutSink::new(vec![ok.clone(), bad.clone(), after.clone()]);
        assert!(fan
            .commit_writes(&"R".into(), &[(0, probe_query())])
            .is_err());
        assert_eq!(ok.writes.load(Ordering::SeqCst), 1);
        assert_eq!(bad.writes.load(Ordering::SeqCst), 1);
        assert_eq!(
            after.writes.load(Ordering::SeqCst),
            0,
            "sinks after the failing one must not observe the batch"
        );
    }

    #[test]
    fn fanout_push_attaches_live() {
        let first = Counting::new(false);
        let fan = FanoutSink::new(vec![first.clone()]);
        fan.commit_create(&probe_query()).unwrap();
        let late = Counting::new(false);
        fan.push(late.clone());
        assert_eq!(fan.len(), 2);
        fan.commit_create(&probe_query()).unwrap();
        assert_eq!(first.creates.load(Ordering::SeqCst), 2);
        assert_eq!(
            late.creates.load(Ordering::SeqCst),
            1,
            "a late sink sees only commits after its attach"
        );
    }

    #[test]
    fn empty_fanout_commits_vacuously() {
        let fan = FanoutSink::new(Vec::new());
        assert!(fan.is_empty());
        assert!(fan.commit_writes(&"R".into(), &[]).is_ok());
    }
}
