//! The durable commit hook: how a storage layer observes the engine's
//! write batches.
//!
//! The pipelined engine already amortizes thread handoffs by coalescing
//! consecutive writes to one relation into a single batch; a [`CommitSink`]
//! reuses those same batches as *group-commit* units. The engine computes
//! each claimed batch — its successor version and its answers — and then
//! hands its records to [`CommitSink::commit_writes_then`] with a
//! continuation that publishes them. A store may queue the batch and run
//! the continuation only after the flush that carries it: one flush can
//! then make the batches of every relation durable at once, and a
//! transaction's response still doubles as its durability acknowledgement,
//! because nothing of the batch — frontier, answers, output version — is
//! visible before the continuation runs.
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

use std::io;

use fundb_query::Query;
use fundb_relational::RelationName;

/// What a committed batch runs once the flush carrying its records has
/// returned, given the flush's outcome.
pub type Landed = Box<dyn FnOnce(io::Result<()>) + Send>;

/// A durability hook invoked on the engine's write path.
///
/// Implementations must be thread-safe: batches of *different* components
/// commit concurrently from pool workers, and a bypass write commits on
/// its submitting thread. Commits of the *same* component never overlap —
/// batch N+1 waits on batch N's output version, which fills only once
/// batch N is committed, before it is even computed.
///
/// An `Err` aborts the operation: the engine answers the affected
/// transactions with an error response and publishes the *unchanged*
/// predecessor version, so a write that was never durable is also never
/// visible.
///
/// A failing implementation must leave its store in a state where *later*
/// successful commits remain recoverable: either none of the failed
/// batch's bytes persist past the store's valid prefix, or the sink keeps
/// failing until the store is repaired. (A sink that let an acknowledged
/// batch land beyond partial garbage would see recovery truncate it.)
pub trait CommitSink: Send + Sync {
    /// Makes one claimed batch of writes durable and returns once it is.
    ///
    /// `writes` holds the batch's operations in application order, each
    /// with its per-component sequence number. Implementations should issue
    /// a single flush for the whole slice.
    fn commit_writes(&self, relation: &RelationName, writes: &[(u64, Query)]) -> io::Result<()>;

    /// Makes a `create relation` durable, *before* it becomes visible in
    /// the catalog — so on replay every relation exists before its first
    /// write.
    fn commit_create(&self, query: &Query) -> io::Result<()>;

    /// The group commit: makes one claimed batch durable and then runs
    /// `landed` with the outcome — the engine calls this once per batch.
    /// A store may queue the batch and call `landed` later, on the thread
    /// whose flush carries it, so that one flush covers the batches of
    /// several relations; `landed` must run exactly once. The default
    /// commits through [`commit_writes`](Self::commit_writes) and runs
    /// `landed` before returning.
    fn commit_writes_then(
        &self,
        relation: &RelationName,
        writes: Vec<(u64, Query)>,
        landed: Landed,
    ) {
        landed(self.commit_writes(relation, &writes));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// Counts its synchronous commits and fails them when told to.
    struct Counting {
        writes: AtomicUsize,
        fail: bool,
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
            Ok(())
        }
    }

    #[test]
    fn the_default_group_commit_lands_inline_with_the_synchronous_outcome() {
        for fail in [false, true] {
            let sink = Counting {
                writes: AtomicUsize::new(0),
                fail,
            };
            let landed = Arc::new(AtomicUsize::new(0));
            let seen = Arc::clone(&landed);
            let write = Query::Count {
                relation: "R".into(),
            };
            sink.commit_writes_then(
                &"R".into(),
                vec![(0, write)],
                Box::new(move |outcome| {
                    assert_eq!(outcome.is_err(), fail);
                    seen.fetch_add(1, Ordering::SeqCst);
                }),
            );
            assert_eq!(sink.writes.load(Ordering::SeqCst), 1);
            assert_eq!(landed.load(Ordering::SeqCst), 1, "landed before returning");
        }
    }
}
