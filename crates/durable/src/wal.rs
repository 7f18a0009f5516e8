//! The segmented, checksummed write-ahead log.
//!
//! Layout: `<dir>/wal-NNNNNN.log`, numbered from 1. Each segment is a run
//! of records framed `[u32 len][u32 crc32(payload)][payload]`; a payload is
//! either a `create` or a `write` (a query's text plus its per-relation
//! sequence number — query text is the durable encoding because every
//! query's `Display` re-parses, a property the query crate tests).
//!
//! **Group commit**: [`Wal::append_frames`] writes a run of encoded
//! records with one `write` call and one `fsync`. The durable store calls
//! it once per *flush*, with the frames of every batch queued since the
//! last one — of any relation — so commit cost is amortized over every
//! batch in flight, not only over one relation's run.
//!
//! **Recovery**: [`Wal::scan`] walks the segments in order and stops at the
//! first invalid frame. A physically *incomplete* frame (header short of 8
//! bytes, or a declared payload running past end-of-file) at the very end
//! of the last segment is a *torn tail* (a crash mid-append — expected);
//! anything else — a fully present frame whose CRC or decode fails, or an
//! incomplete frame in a closed segment — is *corruption* (surfaced in the
//! report). [`Wal::recover`] repairs the log to its longest valid prefix:
//! it truncates the offending segment at the last valid record and deletes
//! any later segments, so the next writer never extends damaged bytes.
//!
//! **Failed appends**: a failed `write` or fsync may leave partial bytes
//! on disk, and a later successful append after them would be invisible to
//! recovery (the scan stops at the damage). [`Wal::append_batch`] therefore
//! *quarantines* on any I/O error — it truncates the segment back to its
//! last durable offset and rotates to a fresh segment — and if that repair
//! itself fails it poisons the handle, refusing every further append until
//! the log is reopened (which recovers first). An acknowledged record is
//! never written after damaged bytes.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use fundb_query::Query;
use fundb_relational::RelationName;

use crate::codec::{put_frame, put_str, put_u64, read_frame, CodecError, Cursor, Frame};
use crate::{numbered_files, sync_dir};

/// Extra per-commit latency modeled on top of the real device, in
/// nanoseconds. Zero — the default, and the value in every non-bench
/// process — means an append pays only the real fsync cost.
static MODELED_FLUSH_NANOS: AtomicU64 = AtomicU64::new(0);

/// Models a slower commit device: every synced [`Wal::append_batch`] in
/// this process sleeps `latency` *after* its real fsync. `None` restores
/// the default (no pad).
///
/// This is a **benchmark modeling knob**, not a production setting. Write
/// scaling across shards is a statement about independent commit devices,
/// but a single-disk host serializes concurrent flushes in its journal, so
/// the device hides the architectural scaling no matter how the workload
/// is shaped. Padding every commit by a fixed, honest latency — applied
/// identically to every configuration under comparison — restores the
/// modeled device (one independent commit channel per WAL) that the
/// scaling claim is about. Benchmarks that use it must say so in their
/// recorded output.
pub fn set_modeled_flush_latency(latency: Option<Duration>) {
    let nanos = latency.map_or(0, |d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    MODELED_FLUSH_NANOS.store(nanos, Ordering::Relaxed);
}

/// Segment filename for index `i`.
fn segment_name(i: u64) -> String {
    format!("wal-{i:06}.log")
}

/// Lists existing segment indices in ascending order.
fn segment_indices(dir: &Path) -> io::Result<Vec<u64>> {
    numbered_files(dir, "wal-", ".log")
}

/// One logical log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// A `create relation` query, logged before it entered the catalog.
    Create {
        /// The query text (re-parses to the original query).
        query: String,
    },
    /// One write, logged as part of its batch's group commit.
    Write {
        /// The relation written.
        relation: String,
        /// The write's per-relation sequence number.
        seq: u64,
        /// The query text.
        query: String,
    },
}

impl WalRecord {
    /// The records of one committed write batch on `relation`: each
    /// write's sequence number and query text, in batch order.
    pub fn write_run(relation: &RelationName, writes: &[(u64, Query)]) -> Vec<WalRecord> {
        writes
            .iter()
            .map(|(seq, q)| WalRecord::Write {
                relation: relation.as_str().to_string(),
                seq: *seq,
                query: q.to_string(),
            })
            .collect()
    }

    /// Encodes the record payload (the bytes the frame CRC covers).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            WalRecord::Create { query } => {
                buf.push(1);
                put_str(&mut buf, query);
            }
            WalRecord::Write {
                relation,
                seq,
                query,
            } => {
                buf.push(2);
                put_str(&mut buf, relation);
                put_u64(&mut buf, *seq);
                put_str(&mut buf, query);
            }
        }
        buf
    }

    fn decode(payload: &[u8]) -> Result<WalRecord, CodecError> {
        let mut c = Cursor::new(payload);
        let rec = match c.u8()? {
            1 => WalRecord::Create { query: c.str()? },
            2 => WalRecord::Write {
                relation: c.str()?,
                seq: c.u64()?,
                query: c.str()?,
            },
            t => return Err(CodecError(format!("unknown record tag {t}"))),
        };
        if !c.at_end() {
            return Err(CodecError("trailing bytes in record".into()));
        }
        Ok(rec)
    }
}

/// Frame-encodes `records` — one [`put_frame`] per record payload —
/// exactly the byte run [`Wal::append_batch`] writes, and what a flush
/// concatenates for [`Wal::append_frames`]. This is the wire
/// format replication ships: a replica can append the bytes to its own log
/// or decode them with [`decode_records`].
pub fn encode_records(records: &[WalRecord]) -> Vec<u8> {
    let mut buf = Vec::new();
    for rec in records {
        put_frame(&mut buf, &rec.encode());
    }
    buf
}

/// Decodes a frame-encoded run produced by [`encode_records`] (or read
/// from a segment). Unlike the log scan, a partial or damaged frame here
/// is an error — a message either arrived whole or not at all.
pub fn decode_records(bytes: &[u8]) -> io::Result<Vec<WalRecord>> {
    let mut out = Vec::new();
    let walk = walk_frames(bytes, |record, _| {
        out.push(record);
        true
    });
    match walk {
        Walk::Invalid { incomplete, .. } => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            if incomplete {
                "truncated wal frame"
            } else {
                "damaged wal frame"
            },
        )),
        Walk::Clean | Walk::Declined => Ok(out),
    }
}

/// How [`walk_frames`] ended.
enum Walk {
    /// Every frame was whole and valid, and the visitor took each record.
    Clean,
    /// The visitor declined a record.
    Declined,
    /// The frame at offset `at` is *incomplete* (the bytes end before it
    /// does) or, if not, *damaged* (fully present, but its CRC or decode
    /// fails).
    Invalid { at: usize, incomplete: bool },
}

/// The one reader of WAL frames: walks `bytes` (a segment, or a shipped
/// batch) from the start, handing each valid record and its end offset to
/// `visit` until the bytes end, a frame is invalid, or `visit` returns
/// `false`.
fn walk_frames(bytes: &[u8], mut visit: impl FnMut(WalRecord, usize) -> bool) -> Walk {
    let mut pos = 0usize;
    while pos < bytes.len() {
        let frame = read_frame(bytes, pos);
        let decoded = match frame {
            Frame::Whole { body, end } => WalRecord::decode(body).ok().map(|r| (r, end)),
            Frame::Incomplete | Frame::Damaged => None,
        };
        let Some((record, end)) = decoded else {
            return Walk::Invalid {
                at: pos,
                incomplete: frame == Frame::Incomplete,
            };
        };
        if !visit(record, end) {
            return Walk::Declined;
        }
        pos = end;
    }
    Walk::Clean
}

/// A record recovered by [`Wal::scan`], with its position.
#[derive(Debug, Clone)]
pub struct ScannedRecord {
    /// The decoded record.
    pub record: WalRecord,
    /// The segment it lives in.
    pub segment: u64,
    /// Byte offset of the record's end within its segment.
    pub end_offset: u64,
}

/// Why (and where) a scan stopped before the end of the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScanStop {
    /// A physically incomplete frame — a header shorter than 8 bytes, or a
    /// declared payload extending past end-of-file — at the end of the
    /// last segment: the normal signature of a crash mid-append.
    /// Truncating it loses no acknowledged transaction (acks happen only
    /// after fsync, and a successful fsync leaves only whole frames).
    TornTail {
        /// Segment holding the torn frame.
        segment: u64,
        /// Offset of the last valid record's end (the truncation point).
        valid_up_to: u64,
    },
    /// A fully present frame whose CRC or decode fails (even in the last
    /// segment — a bit-flip mid-segment is damage, not a tear, and frames
    /// after it may be acknowledged history), or an incomplete frame in a
    /// closed segment. Synced history was damaged, so acknowledged
    /// transactions after this point are lost and the damage must be
    /// surfaced, not hidden.
    Corruption {
        /// Segment holding the damaged frame.
        segment: u64,
        /// Offset of the last valid record's end in that segment.
        valid_up_to: u64,
    },
}

/// The result of scanning the log: the longest valid record prefix, plus
/// why the scan stopped early, if it did.
#[derive(Debug, Clone)]
pub struct ScanOutcome {
    /// All valid records, in log order.
    pub records: Vec<ScannedRecord>,
    /// `None` if the whole log was valid.
    pub stop: Option<ScanStop>,
}

/// The append handle: owns the current tail segment.
///
/// Not internally synchronized — the durable store holds it under a mutex
/// that a flush takes for its one write and fsync only; the batches of
/// every relation queued meanwhile share the next flush (one log, one
/// tail).
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    file: File,
    segment: u64,
    written: u64,
    /// Rotation threshold: a new segment starts once the current one
    /// reaches this size. Rotation only happens *between* appends, so a
    /// flush's records are contiguous in one segment.
    segment_bytes: u64,
    /// Set when a failed append could not be quarantined: the tail may
    /// hold damaged bytes, so no further record may be appended (it would
    /// sit beyond the damage, invisible to recovery). Cleared only by
    /// reopening the log, which recovers first.
    poisoned: bool,
    /// When `false` (see [`Wal::without_sync`]) the per-batch fsync is
    /// skipped: appends are handed to the OS but not forced to media, so
    /// an OS crash may cost the log its tail. Only sound when some other
    /// copy can restore that tail — the replica position, where the
    /// primary's log is authoritative and catch-up re-ships what a torn
    /// tail lost. A primary's log must keep the fsync: its ack *is* the
    /// fsync receipt.
    synced: bool,
    /// Test hook: fail the next N append I/O attempts, each after writing
    /// only half its bytes (a short write followed by an error).
    #[cfg(test)]
    pub(crate) fail_appends: u32,
}

impl Wal {
    /// Default segment rotation threshold.
    pub const DEFAULT_SEGMENT_BYTES: u64 = 1 << 20;

    /// Opens the log for appending, starting a *fresh* segment after the
    /// highest existing one. Never appends to a pre-existing segment, so a
    /// previously truncated tail is never extended.
    pub fn open(dir: &Path, segment_bytes: u64) -> io::Result<Wal> {
        fs::create_dir_all(dir)?;
        let next = segment_indices(dir)?.last().copied().unwrap_or(0) + 1;
        let file = OpenOptions::new()
            .create_new(true)
            .write(true)
            .open(dir.join(segment_name(next)))?;
        sync_dir(dir);
        Ok(Wal {
            dir: dir.to_path_buf(),
            file,
            segment: next,
            written: 0,
            segment_bytes: segment_bytes.max(1),
            poisoned: false,
            synced: true,
            #[cfg(test)]
            fail_appends: 0,
        })
    }

    /// Relaxes the per-batch fsync (see the `synced` field): appends still
    /// reach the OS — and stay visible to same-machine scans and reopens —
    /// but are not forced to media, trading the tail's media-durability for
    /// commit-path latency. Call [`sync`](Wal::sync) to force the current
    /// segment down when the relaxed log is about to become authoritative
    /// (promotion).
    #[must_use]
    pub fn without_sync(mut self) -> Wal {
        self.synced = false;
        self
    }

    /// Forces everything appended so far in the current segment to media.
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }

    /// Appends a batch of records with **one** write and **one** fsync —
    /// the group commit. On `Ok`, every record in the batch is durable.
    ///
    /// On `Err`, *none* of the batch's records are in the log's valid
    /// prefix, and the log stays safe to append to: any partial bytes the
    /// failed write (or failed fsync — which cannot be assumed to have
    /// written nothing) left behind are truncated away and a fresh segment
    /// started, or, if that repair fails too, the handle is poisoned and
    /// every later append refuses. Either way no subsequently acknowledged
    /// record can land beyond damaged bytes, where recovery's
    /// stop-at-first-invalid-frame scan would silently drop it.
    pub fn append_batch(&mut self, records: &[WalRecord]) -> io::Result<()> {
        self.append_frames(&encode_records(records))
    }

    /// Appends already frame-encoded records ([`encode_records`], or the
    /// concatenation of several runs) with one write and one fsync — what
    /// [`append_batch`](Self::append_batch) does after encoding, and what
    /// the durable store's flush calls with every queued batch's frames.
    /// On `Err` none of `frames` is in the valid prefix, as there.
    pub fn append_frames(&mut self, frames: &[u8]) -> io::Result<()> {
        if self.poisoned {
            return Err(io::Error::other(
                "wal poisoned by an unrepairable append failure; reopen to recover",
            ));
        }
        if let Err(e) = self.write_and_sync(frames) {
            self.quarantine();
            return Err(e);
        }
        self.written += frames.len() as u64;
        if self.written >= self.segment_bytes {
            // The batch is already durable, so a failed rotation must not
            // fail the append (the caller would answer an error for
            // transactions recovery will replay); the current segment
            // simply keeps growing and rotation retries next append.
            self.rotate().ok();
        }
        Ok(())
    }

    fn write_and_sync(&mut self, buf: &[u8]) -> io::Result<()> {
        #[cfg(test)]
        if self.fail_appends > 0 {
            self.fail_appends -= 1;
            self.file.write_all(&buf[..buf.len() / 2]).ok();
            return Err(io::Error::other("injected append failure"));
        }
        self.file.write_all(buf)?;
        if self.synced {
            self.file.sync_data()?;
            let pad = MODELED_FLUSH_NANOS.load(Ordering::Relaxed);
            if pad > 0 {
                std::thread::sleep(Duration::from_nanos(pad));
            }
        }
        Ok(())
    }

    /// After a failed append: chop the segment back to its last durable
    /// offset (everything `written` counts was covered by a successful
    /// fsync) and start a fresh segment — the old handle's error state is
    /// untrustworthy after a failed fsync. If either step fails, poison.
    fn quarantine(&mut self) {
        let repaired = self
            .file
            .set_len(self.written)
            .and_then(|()| self.file.sync_all())
            .and_then(|()| self.rotate());
        if repaired.is_err() {
            self.poisoned = true;
        }
    }

    fn rotate(&mut self) -> io::Result<()> {
        if !self.synced {
            // The rotated-away segment is never written again; force it
            // down now so a later `sync` only owes the live segment.
            self.file.sync_data()?;
        }
        let next = self.segment + 1;
        let file = OpenOptions::new()
            .create_new(true)
            .write(true)
            .open(self.dir.join(segment_name(next)))?;
        sync_dir(&self.dir);
        self.file = file;
        self.segment = next;
        self.written = 0;
        Ok(())
    }

    /// The index of the segment currently being appended to.
    pub fn current_segment(&self) -> u64 {
        self.segment
    }

    /// Scans the whole log (read-only): returns the longest valid prefix of
    /// records and, if the log does not parse to its end, where and why the
    /// scan stopped.
    pub fn scan(dir: &Path) -> io::Result<ScanOutcome> {
        let mut records = Vec::new();
        let indices = if dir.exists() {
            segment_indices(dir)?
        } else {
            Vec::new()
        };
        let last_index = indices.last().copied();
        for seg in indices {
            let bytes = fs::read(dir.join(segment_name(seg)))?;
            let walk = walk_frames(&bytes, |record, end| {
                records.push(ScannedRecord {
                    record,
                    segment: seg,
                    end_offset: end as u64,
                });
                true
            });
            // A frame is *incomplete* when the file ends before it does —
            // the only shape a crash mid-append can leave, since a
            // successful fsync persists whole frames. A frame that is fully
            // present but fails its CRC or decode is *damaged*: that never
            // comes from a torn append, and complete (acknowledged) frames
            // may follow it. So a torn tail is only an incomplete frame at
            // the very end of the very last segment; everything else is
            // damage to synced history.
            if let Walk::Invalid { at, incomplete } = walk {
                let valid_up_to = at as u64;
                let stop = if incomplete && Some(seg) == last_index {
                    ScanStop::TornTail {
                        segment: seg,
                        valid_up_to,
                    }
                } else {
                    ScanStop::Corruption {
                        segment: seg,
                        valid_up_to,
                    }
                };
                return Ok(ScanOutcome {
                    records,
                    stop: Some(stop),
                });
            }
        }
        Ok(ScanOutcome {
            records,
            stop: None,
        })
    }

    /// Scans and *repairs*: truncates the stopping segment back to its last
    /// valid record and deletes every later segment, so the on-disk log is
    /// again exactly its longest valid prefix. Idempotent.
    pub fn recover(dir: &Path) -> io::Result<ScanOutcome> {
        let outcome = Self::scan(dir)?;
        if let Some(stop) = &outcome.stop {
            let (&segment, &valid_up_to) = match stop {
                ScanStop::TornTail {
                    segment,
                    valid_up_to,
                }
                | ScanStop::Corruption {
                    segment,
                    valid_up_to,
                } => (segment, valid_up_to),
            };
            let f = OpenOptions::new()
                .write(true)
                .open(dir.join(segment_name(segment)))?;
            f.set_len(valid_up_to)?;
            f.sync_all()?;
            for seg in segment_indices(dir)? {
                if seg > segment {
                    fs::remove_file(dir.join(segment_name(seg)))?;
                }
            }
            sync_dir(dir);
        }
        Ok(outcome)
    }

    /// Deletes every *closed* segment (index below `keep_from`) whose
    /// records all satisfy `covered` — the checkpoint-driven log GC. A
    /// segment with any uncovered or unreadable record is kept.
    pub fn remove_covered_segments(
        dir: &Path,
        keep_from: u64,
        covered: impl Fn(&WalRecord) -> bool,
    ) -> io::Result<usize> {
        let mut removed = 0;
        for seg in segment_indices(dir)? {
            if seg >= keep_from {
                break;
            }
            let bytes = match fs::read(dir.join(segment_name(seg))) {
                Ok(bytes) => bytes,
                // A concurrent GC or recovery already removed it.
                Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
                Err(e) => return Err(e),
            };
            let all_covered = matches!(walk_frames(&bytes, |rec, _| covered(&rec)), Walk::Clean);
            if all_covered {
                match fs::remove_file(dir.join(segment_name(seg))) {
                    Ok(()) => removed += 1,
                    Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                    Err(e) => return Err(e),
                }
            }
        }
        if removed > 0 {
            sync_dir(dir);
        }
        Ok(removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch::ScratchDir;

    fn w(rel: &str, seq: u64, q: &str) -> WalRecord {
        WalRecord::Write {
            relation: rel.into(),
            seq,
            query: q.into(),
        }
    }

    #[test]
    fn record_roundtrip() {
        for rec in [
            WalRecord::Create {
                query: "create relation R(id, name) as list".into(),
            },
            w("R", 7, "insert (1, 'o''brien') into R"),
        ] {
            let payload = rec.encode();
            assert_eq!(WalRecord::decode(&payload).unwrap(), rec);
        }
        assert!(WalRecord::decode(&[9, 0]).is_err());
    }

    #[test]
    fn append_scan_roundtrip_across_segments() {
        let tmp = ScratchDir::new("wal-roundtrip");
        // Tiny segments force rotation.
        let mut wal = Wal::open(tmp.path(), 64).unwrap();
        let recs: Vec<WalRecord> = (0..20)
            .map(|i| w("R", i, &format!("insert {i} into R")))
            .collect();
        for chunk in recs.chunks(3) {
            wal.append_batch(chunk).unwrap();
        }
        assert!(wal.current_segment() > 1, "rotation must have happened");
        let outcome = Wal::scan(tmp.path()).unwrap();
        assert!(outcome.stop.is_none());
        let got: Vec<WalRecord> = outcome.records.into_iter().map(|r| r.record).collect();
        assert_eq!(got, recs);
    }

    #[test]
    fn torn_tail_is_truncated_and_log_reusable() {
        let tmp = ScratchDir::new("wal-torn");
        let mut wal = Wal::open(tmp.path(), Wal::DEFAULT_SEGMENT_BYTES).unwrap();
        wal.append_batch(&[w("R", 0, "insert 1 into R")]).unwrap();
        wal.append_batch(&[w("R", 1, "insert 2 into R")]).unwrap();
        drop(wal);

        // Chop bytes off the tail: a crash mid-append.
        let seg = tmp.path().join(segment_name(1));
        let len = fs::metadata(&seg).unwrap().len();
        let f = OpenOptions::new().write(true).open(&seg).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);

        let outcome = Wal::recover(tmp.path()).unwrap();
        assert_eq!(outcome.records.len(), 1);
        assert!(matches!(outcome.stop, Some(ScanStop::TornTail { .. })));

        // Repaired: a second scan is clean, and appends go to a new segment.
        assert!(Wal::scan(tmp.path()).unwrap().stop.is_none());
        let mut wal = Wal::open(tmp.path(), Wal::DEFAULT_SEGMENT_BYTES).unwrap();
        wal.append_batch(&[w("R", 1, "insert 2 into R")]).unwrap();
        let outcome = Wal::scan(tmp.path()).unwrap();
        assert_eq!(outcome.records.len(), 2);
        assert!(outcome.stop.is_none());
    }

    #[test]
    fn damaged_frame_in_last_segment_is_corruption_not_torn_tail() {
        // A bit-flip in a fully present frame of the *last* segment, with
        // acknowledged records after it, must report Corruption: recovery
        // will drop synced history, and the report must not call that a
        // benign tail.
        let tmp = ScratchDir::new("wal-last-seg-flip");
        let mut wal = Wal::open(tmp.path(), Wal::DEFAULT_SEGMENT_BYTES).unwrap();
        for i in 0..3 {
            wal.append_batch(&[w("R", i, &format!("insert {i} into R"))])
                .unwrap();
        }
        drop(wal);
        let seg = tmp.path().join(segment_name(1));
        let mut bytes = fs::read(&seg).unwrap();
        // Offset 10 sits inside the first record's payload (after its
        // 8-byte header), so the frame stays complete but its CRC fails.
        bytes[10] ^= 0x01;
        fs::write(&seg, &bytes).unwrap();

        let outcome = Wal::scan(tmp.path()).unwrap();
        assert!(
            matches!(outcome.stop, Some(ScanStop::Corruption { .. })),
            "complete-but-damaged frame must be corruption, got {:?}",
            outcome.stop
        );
        assert!(outcome.records.is_empty());
    }

    #[test]
    fn incomplete_frame_in_non_last_segment_is_corruption_not_torn_tail() {
        // A physically incomplete frame is benign only at the end of the
        // *last* segment (crash mid-append). The same incomplete frame at
        // the end of an earlier segment — a crash during rotation, or
        // post-hoc damage — sits before acknowledged history and must be
        // reported as Corruption, never as a reusable TornTail.
        let tmp = ScratchDir::new("wal-rotation-crash");
        // Tiny segments force rotation.
        let mut wal = Wal::open(tmp.path(), 64).unwrap();
        for i in 0..12 {
            wal.append_batch(&[w("R", i, &format!("insert {i} into R"))])
                .unwrap();
        }
        assert!(wal.current_segment() > 1, "rotation must have happened");
        drop(wal);

        let seg = tmp.path().join(segment_name(1));
        let len = fs::metadata(&seg).unwrap().len();
        crate::fault::truncate_at(&seg, len - 3).unwrap();

        let outcome = Wal::scan(tmp.path()).unwrap();
        match outcome.stop {
            Some(ScanStop::Corruption { segment, .. }) => assert_eq!(segment, 1),
            other => {
                panic!("incomplete frame in a non-last segment must be Corruption, got {other:?}")
            }
        }
        // Only the frames before the damage survive; nothing from later
        // segments is surfaced past a corruption stop.
        assert!(outcome.records.len() < 12);
    }

    #[test]
    fn failed_append_quarantines_so_later_acks_survive_recovery() {
        let tmp = ScratchDir::new("wal-quarantine");
        let mut wal = Wal::open(tmp.path(), Wal::DEFAULT_SEGMENT_BYTES).unwrap();
        wal.append_batch(&[w("R", 0, "insert 0 into R")]).unwrap();

        // This append short-writes half its bytes and then errors; the
        // quarantine must chop those bytes and rotate.
        wal.fail_appends = 1;
        let before = wal.current_segment();
        assert!(wal.append_batch(&[w("R", 1, "insert 1 into R")]).is_err());
        assert!(wal.current_segment() > before, "quarantine rotates");

        // The next batch is acknowledged — and must survive a scan, which
        // it would not had it landed after the partial bytes.
        wal.append_batch(&[w("R", 2, "insert 2 into R")]).unwrap();
        drop(wal);
        let outcome = Wal::scan(tmp.path()).unwrap();
        assert!(outcome.stop.is_none(), "no damage left behind");
        let seqs: Vec<u64> = outcome
            .records
            .iter()
            .map(|r| match &r.record {
                WalRecord::Write { seq, .. } => *seq,
                WalRecord::Create { .. } => unreachable!(),
            })
            .collect();
        assert_eq!(seqs, vec![0, 2], "seq 1 failed; 0 and 2 both durable");
    }

    #[test]
    fn unrepairable_append_failure_poisons_the_handle() {
        let tmp = ScratchDir::new("wal-poison");
        let mut wal = Wal::open(tmp.path(), Wal::DEFAULT_SEGMENT_BYTES).unwrap();
        wal.append_batch(&[w("R", 0, "insert 0 into R")]).unwrap();

        // Remove the directory out from under the log: the quarantine's
        // rotation cannot create a fresh segment, so the handle poisons.
        fs::remove_dir_all(tmp.path()).unwrap();
        wal.fail_appends = 1;
        assert!(wal.append_batch(&[w("R", 1, "insert 1 into R")]).is_err());

        // Every further append refuses without touching the file, even
        // though the underlying handle could still physically write.
        let err = wal
            .append_batch(&[w("R", 2, "insert 2 into R")])
            .unwrap_err();
        assert!(err.to_string().contains("poisoned"), "got: {err}");
    }

    #[test]
    fn mid_log_damage_reports_corruption() {
        let tmp = ScratchDir::new("wal-corrupt");
        let mut wal = Wal::open(tmp.path(), 32).unwrap();
        for i in 0..10 {
            wal.append_batch(&[w("R", i, &format!("insert {i} into R"))])
                .unwrap();
        }
        drop(wal);
        // Flip a bit in the first segment (not the last).
        let seg = tmp.path().join(segment_name(1));
        let mut bytes = fs::read(&seg).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&seg, &bytes).unwrap();

        let outcome = Wal::recover(tmp.path()).unwrap();
        assert!(matches!(outcome.stop, Some(ScanStop::Corruption { .. })));
        // Repair keeps only the prefix before the damage.
        let clean = Wal::scan(tmp.path()).unwrap();
        assert!(clean.stop.is_none());
        assert_eq!(clean.records.len(), outcome.records.len());
    }

    #[test]
    fn frame_codec_roundtrip_and_rejects_damage() {
        let recs = vec![
            WalRecord::Create {
                query: "create relation R".into(),
            },
            w("R", 3, "insert 3 into R"),
        ];
        let bytes = encode_records(&recs);
        assert_eq!(decode_records(&bytes).unwrap(), recs);
        assert!(
            decode_records(&bytes[..bytes.len() - 1]).is_err(),
            "truncated"
        );
        let mut flipped = bytes.clone();
        flipped[10] ^= 1;
        assert!(decode_records(&flipped).is_err(), "bad crc");
        assert!(decode_records(&[]).unwrap().is_empty());
    }

    #[test]
    fn scan_skips_gc_gaps_and_reopened_logs() {
        let tmp = ScratchDir::new("wal-scan-gap");
        let mut wal = Wal::open(tmp.path(), 32).unwrap();
        for i in 0..8 {
            wal.append_batch(&[w("R", i, &format!("insert {i} into R"))])
                .unwrap();
        }
        let tail = wal.current_segment();
        drop(wal);
        // GC everything below the tail with seq < 4 covered.
        Wal::remove_covered_segments(
            tmp.path(),
            tail,
            |rec| matches!(rec, WalRecord::Write { seq, .. } if *seq < 4),
        )
        .unwrap();
        // Reopen starts a fresh segment beyond the tail.
        let mut wal = Wal::open(tmp.path(), 32).unwrap();
        wal.append_batch(&[w("R", 8, "insert 8 into R")]).unwrap();

        // Segment 1 is gone and the reopened log left gaps: the scan sees
        // exactly the surviving records, in order, and no damage.
        let outcome = Wal::scan(tmp.path()).unwrap();
        assert!(outcome.stop.is_none());
        let seqs: Vec<u64> = outcome
            .records
            .iter()
            .map(|r| match &r.record {
                WalRecord::Write { seq, .. } => *seq,
                WalRecord::Create { .. } => unreachable!(),
            })
            .collect();
        assert_eq!(seqs, (4..9).collect::<Vec<u64>>());
    }

    #[test]
    fn covered_segments_are_garbage_collected() {
        let tmp = ScratchDir::new("wal-gc");
        let mut wal = Wal::open(tmp.path(), 32).unwrap();
        for i in 0..12 {
            wal.append_batch(&[w("R", i, &format!("insert {i} into R"))])
                .unwrap();
        }
        let tail = wal.current_segment();
        assert!(tail > 2);
        // A checkpoint covering seqs < 6 can drop the early segments.
        let removed = Wal::remove_covered_segments(tmp.path(), tail, |rec| match rec {
            WalRecord::Write { seq, .. } => *seq < 6,
            WalRecord::Create { .. } => true,
        })
        .unwrap();
        assert!(removed > 0);
        // Remaining log still scans cleanly and retains exactly the
        // uncovered records.
        let outcome = Wal::scan(tmp.path()).unwrap();
        assert!(outcome.stop.is_none());
        let seqs: Vec<u64> = outcome
            .records
            .iter()
            .map(|r| match &r.record {
                WalRecord::Write { seq, .. } => *seq,
                WalRecord::Create { .. } => unreachable!(),
            })
            .collect();
        assert_eq!(seqs, (6..12).collect::<Vec<u64>>());
    }
}
