//! Sites and destination-tagged messages.

use std::fmt;

use fundb_core::ClientId;
use fundb_query::{Query, Response};

/// Identifies a processing element / network node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SiteId(pub u32);

impl SiteId {
    /// The broadcast destination: a message addressed here appears in
    /// *every* site's `choose` stream — the Ethernet model taken at its
    /// word. One physical send reaches any number of listeners; sites
    /// that don't care about the payload skip it in their filter walk.
    /// No real site may use this id.
    pub const BROADCAST: SiteId = SiteId(u32::MAX);
}

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "site{}", self.0)
    }
}

/// A message on the medium: payload plus origin and destination tags.
///
/// "Instead of transactions, we have arbitrary messages, again accompanied
/// by destination tags, for ultimate routing of responses." (Section 3.1.)
#[derive(Debug, Clone, PartialEq)]
pub struct Message<P> {
    /// Originating site.
    pub from: SiteId,
    /// Destination site — what `choose` filters on.
    pub to: SiteId,
    /// Per-sender sequence number (message order within one sender).
    pub seq: u64,
    /// The payload.
    pub payload: P,
}

impl<P> Message<P> {
    /// Builds a message.
    pub fn new(from: SiteId, to: SiteId, seq: u64, payload: P) -> Self {
        Message {
            from,
            to,
            seq,
            payload,
        }
    }
}

/// The payloads the database cluster exchanges.
///
/// Requests travel as *symbolic* queries, parsed once by the submitting
/// client and translated at the serving site; text that does not parse
/// never reaches the medium. Responses travel back as values with the
/// originating client's tag.
/// The remaining variants carry the replication protocol: committed WAL
/// batches shipped primary → replica, the catch-up handshake, and the
/// failover control messages.
#[derive(Debug, Clone, PartialEq)]
pub enum DbPayload {
    /// A client's query, still in symbolic form.
    Request {
        /// The submitting client (one site may host several).
        client: ClientId,
        /// The parsed query, e.g. of `"insert (1, 'ada') into R"`.
        query: Query,
    },
    /// A serving site's answer to an earlier request.
    Reply {
        /// The client the response belongs to.
        client: ClientId,
        /// The `seq` of the [`Message`] carrying the request this answers.
        /// Clients match replies to pending cells by this tag, so replies
        /// arriving out of submission order (reads served by a replica,
        /// writes by the primary) still land in the right cell.
        in_reply_to: u64,
        /// The transaction's response.
        response: Response,
    },
    /// A committed group of WAL records, shipped by the primary to each
    /// replica. `frames` is the durable crate's frame encoding
    /// (`[len][crc][record]` per record), exactly the bytes the primary's
    /// own log holds.
    Replicate {
        /// Frame-encoded [`WalRecord`](fundb_durable::WalRecord)s.
        frames: Vec<u8>,
    },
    /// A sync barrier probe sent to one replica. Because the broadcast
    /// stream is totally ordered, by the time the replica *processes*
    /// this message it has applied every `Replicate` that preceded it —
    /// the probe's stream position is the barrier, so replicas owe no
    /// per-batch progress traffic at all.
    SyncPing {
        /// Echoed in the answering [`ReplicateAck`](Self::ReplicateAck)
        /// so the syncer ignores answers to earlier probes.
        token: u64,
    },
    /// A replica's answer to [`SyncPing`](Self::SyncPing).
    ReplicateAck {
        /// The probe's token, echoed.
        token: u64,
        /// Total `Replicate` batches applied by the sender, ever.
        batches: u64,
    },
    /// A replica asking the primary for a bootstrap snapshot.
    CatchUp,
    /// The primary's bootstrap snapshot for one replica: the newest
    /// checkpoint (if any) in the checkpoint crate's export encoding, plus
    /// the frame-encoded WAL tail the checkpoint does not cover.
    Snapshot {
        /// Exported checkpoint blob, `None` when none exists yet.
        checkpoint: Option<Vec<u8>>,
        /// Frame-encoded WAL records not folded into the checkpoint.
        tail: Vec<u8>,
    },
    /// Orders the destination site to stop serving (a simulated crash of
    /// the primary, or a replica's shutdown).
    Halt,
    /// Orders a replica to take over as primary, replicating to `peers`.
    Promote {
        /// The surviving replica sites the new primary ships batches to.
        peers: Vec<SiteId>,
    },
    /// Statements serialized through the medium: the merge order of this
    /// message *is* their global sequence position. A multi-write
    /// transaction is sent directly to the owning shard's primary when
    /// every write lands on one shard (no global hop), broadcast when the
    /// writes span shards; a gather or DDL statement on a sharded cluster
    /// is broadcast with the one statement for every shard. Each
    /// participant applies its own sub-batch at the position this message
    /// occupies in its inbox, interleaved with its direct traffic.
    Sequenced {
        /// The site the transaction originated at (acks route back here;
        /// `(origin, txn)` identifies the transaction cluster-wide).
        origin: SiteId,
        /// The submitting client.
        client: ClientId,
        /// The origin's request seq — acks echo it as `in_reply_to`.
        txn: u64,
        /// Per-shard sub-batches: `(shard, queries in order)`.
        /// Shards without an entry are not participants and ignore the
        /// message.
        subs: Vec<(u32, Vec<Query>)>,
    },
    /// One participant shard's receipt for a
    /// [`Sequenced`](DbPayload::Sequenced) message: sent to the origin
    /// site once every statement of the shard's sub-batch is answered (a
    /// write: durable), and copied to the shard's replica peers so a
    /// promoted replica knows which broadcasts the dead primary already
    /// applied.
    SequencedAck {
        /// The originating site of the transaction (echoed).
        origin: SiteId,
        /// The client the transaction belongs to.
        client: ClientId,
        /// The transaction's `txn` tag, echoed.
        in_reply_to: u64,
        /// The acking shard.
        shard: u32,
        /// The sub-batch's outcome: its first error, else its last
        /// statement's response.
        response: Response,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_display() {
        assert_eq!(SiteId(4).to_string(), "site4");
    }

    #[test]
    fn message_fields() {
        let m = Message::new(SiteId(1), SiteId(2), 7, "ping");
        assert_eq!(m.from, SiteId(1));
        assert_eq!(m.to, SiteId(2));
        assert_eq!(m.seq, 7);
        assert_eq!(m.payload, "ping");
    }

    #[test]
    fn db_payload_variants() {
        let req = DbPayload::Request {
            client: ClientId(0),
            query: fundb_query::parse("find 1 in R").unwrap(),
        };
        let rep = DbPayload::Reply {
            client: ClientId(0),
            in_reply_to: 0,
            response: Response::Count(3),
        };
        assert_ne!(req, rep);
        let ship = DbPayload::Replicate { frames: vec![1, 2] };
        let ack = DbPayload::ReplicateAck {
            token: 0,
            batches: 1,
        };
        assert_ne!(ship, ack);
        assert_ne!(ack, DbPayload::SyncPing { token: 0 });
        let snap = DbPayload::Snapshot {
            checkpoint: None,
            tail: Vec::new(),
        };
        assert_ne!(snap, DbPayload::CatchUp);
        assert_ne!(DbPayload::Halt, DbPayload::Promote { peers: vec![] });
        let seq = DbPayload::Sequenced {
            origin: SiteId(9),
            client: ClientId(1),
            txn: 3,
            subs: vec![(0, vec![fundb_query::parse("insert 1 into R").unwrap()])],
        };
        let ack = DbPayload::SequencedAck {
            origin: SiteId(9),
            client: ClientId(1),
            in_reply_to: 3,
            shard: 0,
            response: Response::Count(1),
        };
        assert_ne!(seq, ack);
    }
}
