//! Durability for the functional database: group-commit logging,
//! sharing-aware checkpoints, and crash recovery.
//!
//! The paper's engine is a pure function from transaction streams to
//! response streams over persistent (structurally shared) relations; this
//! crate gives that function a disk, without giving up either of its two
//! defining properties:
//!
//! * **Pipelining stays intact.** The engine already coalesces
//!   same-relation writes into batches to amortize thread handoff; the
//!   durable store queues each batch's records and the [`wal`] appends
//!   every queued batch, of any relation, with *one* fsync (group
//!   commit), and a transaction is acknowledged only after that fsync —
//!   so an ack is a durability receipt, and fsync latency amortizes over
//!   batches exactly as handoff latency already did.
//!
//! * **Sharing pays off on disk.** A version differs from its predecessor
//!   in `O(log n)` nodes (Section 2.2); the [`checkpoint`] store names
//!   every node by a hash of its content, so the nodes two checkpoints
//!   share are stored once. An incremental checkpoint after `k` updates
//!   appends `O(k · log n)` bytes — the copied paths — not a full copy.
//!
//! Recovery ([`recover_state`], which [`DurableEngine::open`] and a
//! replica both start from) loads the newest valid checkpoint, repairs the
//! log to its longest valid prefix (truncating a torn tail; surfacing
//! mid-log corruption), replays records the checkpoint does not cover, and
//! yields the marks where per-relation write numbering resumes. The
//! recovered state is a prefix of the acknowledged history containing
//! every acknowledged transaction. The [`fault`] module provides the file
//! surgery the property tests use to prove that claim under simulated
//! crashes.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod checkpoint;
pub mod codec;
pub mod engine;
pub mod fault;
pub mod scratch;
pub mod wal;

pub use checkpoint::{
    export_latest, import, load_latest, CheckpointStats, CheckpointWriter, LoadedCheckpoint,
};
pub use engine::{
    checkpoint_dir, recover_state, replay_records, wal_dir, DurableEngine, DurableStore,
    RecoveryReport, ReplayedState,
};
pub use scratch::ScratchDir;
pub use wal::{
    decode_records, encode_records, set_modeled_flush_latency, ScanOutcome, ScanStop,
    ScannedRecord, Wal, WalRecord,
};

use std::fs::{self, File};
use std::io;
use std::path::Path;

/// The numbers `N` of the files `<prefix>N<suffix>` in `dir`, ascending —
/// log segments and checkpoint manifests.
fn numbered_files(dir: &Path, prefix: &str, suffix: &str) -> io::Result<Vec<u64>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let name = entry?.file_name();
        let name = name.to_string_lossy();
        if let Some(Ok(i)) = name
            .strip_prefix(prefix)
            .and_then(|s| s.strip_suffix(suffix))
            .map(str::parse::<u64>)
        {
            out.push(i);
        }
    }
    out.sort_unstable();
    Ok(out)
}

/// Flushes directory metadata so freshly created / removed files survive a
/// power cut (a no-op on platforms where directories cannot be fsynced).
fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        d.sync_all().ok();
    }
}
