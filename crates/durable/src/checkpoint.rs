//! Sharing-aware checkpoints: the persistent structures, content-addressed,
//! on disk.
//!
//! Section 2.2's claim is that version `k+1` shares all but `O(log n)` of
//! its structure with version `k`. A checkpoint makes that claim pay off on
//! disk: every physical node (list cell, B-tree page, data page, directory)
//! is serialized with its children referenced *by content hash*, and the
//! node store is append-only with hash-based deduplication. Checkpointing a
//! cut therefore appends only the nodes the previous checkpoint has never
//! seen — the copied root-to-leaf paths — so an incremental checkpoint
//! after `k` updates costs `O(k · log n)` bytes, not a full copy.
//!
//! Layout under `<dir>`:
//!
//! * `nodes.fns` — the append-only node store. Each record is one frame
//!   (`[u32 len][u32 crc]` + body, [`put_frame`]) whose body is
//!   `[u128 id][payload]`, `id = fnv128(payload)`.
//! * `ckpt-NNNNNN.fck` — immutable manifests, `[magic]` + one frame: per
//!   relation its name, representation, schema, write-sequence mark, and
//!   root node id.
//!
//! Crash safety is by write ordering, not atomicity: nodes are appended
//! and fsynced *before* their manifest is written and fsynced. A crash
//! mid-checkpoint leaves either a torn node-store tail (truncated on next
//! open; the nodes were unreferenced) or a torn manifest (fails its CRC
//! and is ignored — the loader falls back to the newest *valid* manifest,
//! whose nodes are all safely in the prefix).

use std::collections::{HashMap, HashSet};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use fundb_core::engine::ConsistentCut;
use fundb_persist::PList;
use fundb_relational::{
    Database, Relation, RelationName, Repr, Store, Tuple, Value, ViewDef, ViewFilter,
};

use crate::codec::{
    fnv128, put_bytes, put_frame, put_schema, put_str, put_tuple, put_u128, put_u32, put_u64,
    read_frame, CodecError, Cursor, Frame, MIN_TUPLE_BYTES, MIN_VALUE_BYTES,
};
use crate::{numbered_files, sync_dir};

/// The id of the empty subtree. No real node gets this id (it would need a
/// payload hashing to exactly zero — astronomically unlikely, and checked
/// at write time).
pub const NIL_ID: u128 = 0;

const MANIFEST_MAGIC: u32 = 0x4643_4B32; // "FCK2" (FCK1 + view definitions)

/// The fewest bytes a manifest entry takes: name length, repr tag, schema
/// tag, mark, root, index count and view tag.
const MIN_MANIFEST_ENTRY_BYTES: usize = 4 + 1 + 1 + 8 + 16 + 4 + 1;

/// Node payload tags. Tag 2 was the retired 2-3 tree node; a store holding
/// one fails to load with a typed error, like any node of the wrong kind.
/// Node tags 4 and 5 were the retired paged store's data and directory
/// pages; none of these tags is reused.
const TAG_LIST_CELL: u8 = 1;
const TAG_BTREE: u8 = 3;

fn manifest_name(i: u64) -> String {
    format!("ckpt-{i:06}.fck")
}

/// What one checkpoint cost — the measurable form of the sharing bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointStats {
    /// The manifest index written.
    pub manifest: u64,
    /// Nodes appended to the store by this checkpoint.
    pub nodes_written: usize,
    /// Nodes this checkpoint references that were already on disk — the
    /// structure shared with earlier checkpoints.
    pub nodes_deduped: usize,
    /// Bytes appended to the node store (frames included).
    pub node_bytes: u64,
    /// Bytes of the manifest file.
    pub manifest_bytes: u64,
}

impl CheckpointStats {
    /// Total bytes this checkpoint added on disk.
    pub fn total_bytes(&self) -> u64 {
        self.node_bytes + self.manifest_bytes
    }
}

/// The checkpoint writer: owns the node-store append handle and the
/// on-disk id set.
#[derive(Debug)]
pub struct CheckpointWriter {
    dir: PathBuf,
    nodes: File,
    /// Ids already in the store — the dedup set. Rebuilt by scanning on
    /// open, maintained incrementally afterwards.
    on_disk: HashSet<u128>,
    next_manifest: u64,
}

/// Encodes a tuple bucket (spine order) into `buf`.
fn put_bucket(buf: &mut Vec<u8>, bucket: &PList<Tuple>) {
    put_u32(buf, bucket.len() as u32);
    for t in bucket.iter() {
        put_tuple(buf, t);
    }
}

fn read_bucket(c: &mut Cursor<'_>) -> Result<PList<Tuple>, CodecError> {
    let n = c.count(MIN_TUPLE_BYTES)?;
    (0..n).map(|_| c.tuple()).collect()
}

/// Encodes a view filter tree. Tags: 1 Eq, 2 Ne, 3 Lt, 4 Gt, 5 And, 6 Or.
fn put_view_filter(buf: &mut Vec<u8>, filter: &ViewFilter) {
    let leaf = |tag: u8, field: &usize, value: &Value, buf: &mut Vec<u8>| {
        buf.push(tag);
        put_u32(buf, *field as u32);
        crate::codec::put_value(buf, value);
    };
    match filter {
        ViewFilter::Eq(f, v) => leaf(1, f, v, buf),
        ViewFilter::Ne(f, v) => leaf(2, f, v, buf),
        ViewFilter::Lt(f, v) => leaf(3, f, v, buf),
        ViewFilter::Gt(f, v) => leaf(4, f, v, buf),
        ViewFilter::And(a, b) => {
            buf.push(5);
            put_view_filter(buf, a);
            put_view_filter(buf, b);
        }
        ViewFilter::Or(a, b) => {
            buf.push(6);
            put_view_filter(buf, a);
            put_view_filter(buf, b);
        }
    }
}

fn read_view_filter(c: &mut Cursor<'_>) -> Result<ViewFilter, CodecError> {
    let tag = c.u8()?;
    match tag {
        1..=4 => {
            let field = c.u32()? as usize;
            let value = c.value()?;
            Ok(match tag {
                1 => ViewFilter::Eq(field, value),
                2 => ViewFilter::Ne(field, value),
                3 => ViewFilter::Lt(field, value),
                _ => ViewFilter::Gt(field, value),
            })
        }
        5 | 6 => {
            let a = Box::new(read_view_filter(c)?);
            let b = Box::new(read_view_filter(c)?);
            Ok(if tag == 5 {
                ViewFilter::And(a, b)
            } else {
                ViewFilter::Or(a, b)
            })
        }
        t => Err(CodecError(format!("unknown view filter tag {t}"))),
    }
}

/// Encodes an optional view definition. Tags: 0 none (a base relation),
/// 1 select, 2 join, 3 count-by, 4 sum-by. Like index definitions, only
/// the *definition* is persisted — a view's contents are a full relation
/// and go through the node store like any other.
fn put_view_def(buf: &mut Vec<u8>, def: Option<&ViewDef>) {
    match def {
        None => buf.push(0),
        Some(ViewDef::Select { base, filter }) => {
            buf.push(1);
            put_str(buf, base.as_str());
            match filter {
                None => buf.push(0),
                Some(f) => {
                    buf.push(1);
                    put_view_filter(buf, f);
                }
            }
        }
        Some(ViewDef::Join {
            left,
            right,
            left_field,
            right_field,
        }) => {
            buf.push(2);
            put_str(buf, left.as_str());
            put_str(buf, right.as_str());
            put_u32(buf, *left_field as u32);
            put_u32(buf, *right_field as u32);
        }
        Some(ViewDef::GroupCount { base, group }) => {
            buf.push(3);
            put_str(buf, base.as_str());
            put_u32(buf, *group as u32);
        }
        Some(ViewDef::GroupSum { base, field, group }) => {
            buf.push(4);
            put_str(buf, base.as_str());
            put_u32(buf, *field as u32);
            put_u32(buf, *group as u32);
        }
    }
}

fn read_view_def(c: &mut Cursor<'_>) -> Result<Option<ViewDef>, CodecError> {
    match c.u8()? {
        0 => Ok(None),
        1 => {
            let base = RelationName::new(&c.str()?);
            let filter = match c.u8()? {
                0 => None,
                1 => Some(read_view_filter(c)?),
                t => return Err(CodecError(format!("unknown filter-presence tag {t}"))),
            };
            Ok(Some(ViewDef::Select { base, filter }))
        }
        2 => {
            let left = RelationName::new(&c.str()?);
            let right = RelationName::new(&c.str()?);
            let left_field = c.u32()? as usize;
            let right_field = c.u32()? as usize;
            Ok(Some(ViewDef::Join {
                left,
                right,
                left_field,
                right_field,
            }))
        }
        3 => {
            let base = RelationName::new(&c.str()?);
            let group = c.u32()? as usize;
            Ok(Some(ViewDef::GroupCount { base, group }))
        }
        4 => {
            let base = RelationName::new(&c.str()?);
            let field = c.u32()? as usize;
            let group = c.u32()? as usize;
            Ok(Some(ViewDef::GroupSum { base, field, group }))
        }
        t => Err(CodecError(format!("unknown view def tag {t}"))),
    }
}

impl CheckpointWriter {
    /// Opens (or initializes) the checkpoint directory: repairs a torn
    /// node-store tail, rebuilds the dedup set, and picks the next unused
    /// manifest index.
    pub fn open(dir: &Path) -> io::Result<CheckpointWriter> {
        fs::create_dir_all(dir)?;
        let store_path = dir.join(NODE_STORE);
        let mut on_disk = HashSet::new();
        let valid_len = walk_nodes(&read_node_store(&store_path)?, |id, _, _| {
            on_disk.insert(id);
        });
        let nodes = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&store_path)?;
        if nodes.metadata()?.len() > valid_len as u64 {
            // Torn tail from a crash mid-checkpoint: the bytes were never
            // referenced by a valid manifest (manifests are written after
            // the node fsync), so cutting them loses nothing.
            nodes.set_len(valid_len as u64)?;
            nodes.sync_all()?;
        }
        let next_manifest = numbered_files(dir, "ckpt-", ".fck")?
            .last()
            .copied()
            .unwrap_or(0)
            + 1;
        sync_dir(dir);
        Ok(CheckpointWriter {
            dir: dir.to_path_buf(),
            nodes,
            on_disk,
            next_manifest,
        })
    }

    /// Writes one checkpoint of `cut`: appends every node the store has
    /// not seen (one fsync), then writes the manifest (second fsync). The
    /// returned stats expose how little a mostly-shared cut costs.
    pub fn write(&mut self, cut: &ConsistentCut) -> io::Result<CheckpointStats> {
        let mut buf: Vec<u8> = Vec::new();
        let mut nodes_written = 0usize;
        let mut nodes_deduped = 0usize;

        // Per-call memo: addresses are stable for the duration because the
        // cut holds every node alive. Cross-checkpoint savings come from
        // the on-disk id set, which never goes stale (content-addressed).
        let mut memo: HashMap<usize, u128> = HashMap::new();

        // One manifest entry per relation: name, representation, schema,
        // mark, root, index *definitions* (contents are rebuilt from the
        // materialized store on load, so an index costs the manifest a few
        // bytes and the node store nothing) and, for a materialized view,
        // its definition (the loader reattaches it, so recovered writes
        // keep maintaining the view differentially).
        let names = cut.database.relation_names();
        let mut body = Vec::new();
        put_u32(&mut body, names.len() as u32);
        for name in &names {
            let rel = cut.database.relation(name).expect("name from this cut");
            let root = fold_relation(rel, &mut memo, &mut |payload: Vec<u8>| {
                let id = fnv128(&payload);
                assert_ne!(id, NIL_ID, "payload hashed to the reserved nil id");
                if self.on_disk.insert(id) {
                    put_node(&mut buf, id, &payload);
                    nodes_written += 1;
                } else {
                    nodes_deduped += 1;
                }
                id
            });
            put_str(&mut body, name.as_str());
            match rel.repr() {
                // Repr tag 1 was the retired 2-3 tree.
                // Repr tag 3 and node tags 4/5 were the retired paged store.
                Repr::List => body.push(0),
                Repr::BTree(t) => {
                    body.push(2);
                    put_u32(&mut body, t as u32);
                }
            }
            put_schema(
                &mut body,
                cut.database.schema(name).expect("name from this cut"),
            );
            put_u64(&mut body, cut.seq_marks.get(name).copied().unwrap_or(0));
            put_u128(&mut body, root);
            put_u32(&mut body, rel.indexes().len() as u32);
            for ix in rel.indexes().iter() {
                put_str(&mut body, ix.name());
                put_u32(&mut body, ix.fields().len() as u32);
                for &f in ix.fields() {
                    put_u32(&mut body, f as u32);
                }
            }
            put_view_def(
                &mut body,
                cut.database.view_def(name).expect("name from this cut"),
            );
        }

        // Nodes first, fsynced, then the manifest that references them.
        self.nodes.write_all(&buf)?;
        self.nodes.sync_data()?;
        let manifest = manifest_frame(&body);
        let index = self.write_manifest(&manifest)?;
        Ok(CheckpointStats {
            manifest: index,
            nodes_written,
            nodes_deduped,
            node_bytes: buf.len() as u64,
            manifest_bytes: manifest.len() as u64,
        })
    }

    /// Writes `manifest` under the next index — file and directory both
    /// fsynced — and returns the index.
    fn write_manifest(&mut self, manifest: &[u8]) -> io::Result<u64> {
        let index = self.next_manifest;
        let mut f = OpenOptions::new()
            .create_new(true)
            .write(true)
            .open(self.dir.join(manifest_name(index)))?;
        f.write_all(manifest)?;
        f.sync_all()?;
        sync_dir(&self.dir);
        self.next_manifest += 1;
        Ok(index)
    }
}

/// Appends one node-store record: a frame whose body is the node's id
/// followed by its payload.
fn put_node(buf: &mut Vec<u8>, id: u128, payload: &[u8]) {
    let mut body = Vec::with_capacity(payload.len() + 16);
    put_u128(&mut body, id);
    body.extend_from_slice(payload);
    put_frame(buf, &body);
}

/// A manifest file: `[magic]` followed by one frame holding `body`.
fn manifest_frame(body: &[u8]) -> Vec<u8> {
    let mut manifest = Vec::with_capacity(body.len() + 12);
    put_u32(&mut manifest, MANIFEST_MAGIC);
    put_frame(&mut manifest, body);
    manifest
}

/// The body of a manifest file, or `None` if the file is not exactly one
/// whole manifest (wrong magic, torn, damaged, or trailing bytes).
fn manifest_body(bytes: &[u8]) -> Option<&[u8]> {
    if Cursor::new(bytes).u32().ok()? != MANIFEST_MAGIC {
        return None;
    }
    match read_frame(bytes, 4) {
        Frame::Whole { body, end } if end == bytes.len() => Some(body),
        _ => None,
    }
}

/// Folds one relation into the node store via `emit`, returning its root id.
fn fold_relation(
    rel: &Relation,
    memo: &mut HashMap<usize, u128>,
    emit: &mut impl FnMut(Vec<u8>) -> u128,
) -> u128 {
    match rel.store() {
        Store::List(l) => l.fold_cells(memo, NIL_ID, &mut |tuple, tail| {
            let mut p = vec![TAG_LIST_CELL];
            put_tuple(&mut p, tuple);
            put_u128(&mut p, *tail);
            emit(p)
        }),
        Store::BTree(b) => b.fold_nodes(memo, &mut |keys, children| {
            let mut p = vec![TAG_BTREE];
            put_u32(&mut p, keys.len() as u32);
            for (k, bucket) in keys {
                crate::codec::put_value(&mut p, k);
                put_bucket(&mut p, bucket);
            }
            put_u32(&mut p, children.len() as u32);
            for c in children {
                put_u128(&mut p, *c);
            }
            emit(p)
        }),
    }
}

/// The node store's file name within a checkpoint directory.
const NODE_STORE: &str = "nodes.fns";

/// The node store's bytes; empty if it does not exist yet.
fn read_node_store(path: &Path) -> io::Result<Vec<u8>> {
    match fs::read(path) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Vec::new()),
        read => read,
    }
}

/// The one walk over node-store records: hands `visit` each valid record's
/// id, payload and whole frame, in order, and returns the length of that
/// valid prefix — the bytes past it are a torn tail (or, in a shipped
/// blob, damage).
fn walk_nodes<'a>(bytes: &'a [u8], mut visit: impl FnMut(u128, &'a [u8], &'a [u8])) -> usize {
    let mut pos = 0usize;
    while let Frame::Whole { body, end } = read_frame(bytes, pos) {
        let mut c = Cursor::new(body);
        let Ok(id) = c.u128() else {
            break;
        };
        visit(id, c.rest(), &bytes[pos..end]);
        pos = end;
    }
    pos
}

const EXPORT_MAGIC: u32 = 0x4643_5850; // "FCXP"

/// Packages the newest valid checkpoint as one self-contained blob —
/// `[magic][u32 manifest len][manifest file][node-store valid prefix]` —
/// suitable for shipping to a bootstrapping replica in a single message.
/// `Ok(None)` when no usable checkpoint exists yet.
///
/// The node prefix is the whole store, not just the manifest's reachable
/// set: content addressing makes the extra nodes harmless on import (they
/// dedup against anything the receiver later checkpoints itself), and the
/// store is exactly the structure-sharing history the paper says stays
/// small.
pub fn export_latest(dir: &Path) -> io::Result<Option<Vec<u8>>> {
    let Some(loaded) = load_latest(dir)? else {
        return Ok(None);
    };
    let manifest_bytes = fs::read(dir.join(manifest_name(loaded.manifest)))?;
    let nodes = read_node_store(&dir.join(NODE_STORE))?;
    let valid_len = walk_nodes(&nodes, |_, _, _| {});
    let mut blob = Vec::with_capacity(8 + manifest_bytes.len() + valid_len);
    put_u32(&mut blob, EXPORT_MAGIC);
    put_bytes(&mut blob, &manifest_bytes);
    blob.extend_from_slice(&nodes[..valid_len]);
    Ok(Some(blob))
}

/// Installs an [`export_latest`] blob into `dir`: appends every node frame
/// the local store has not seen (content-addressed dedup — importing into
/// a non-empty directory is fine), then writes the shipped manifest under
/// the next local index. After `Ok`, [`load_latest`] returns at least the
/// shipped state. Same write ordering as a local checkpoint: nodes are
/// fsynced before the manifest referencing them.
pub fn import(dir: &Path, blob: &[u8]) -> io::Result<()> {
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    let mut c = Cursor::new(blob);
    if c.u32() != Ok(EXPORT_MAGIC) {
        return Err(bad("not a checkpoint export blob"));
    }
    let manifest = c
        .bytes()
        .map_err(|_| bad("export blob shorter than its manifest"))?;
    let node_bytes = c.rest();
    // The manifest must at least frame-validate; a damaged import must not
    // become the newest manifest (the loader would fall back, but the blob
    // is a network payload — reject it loudly instead).
    if manifest_body(manifest).is_none() {
        return Err(bad("export blob carries a damaged manifest"));
    }

    let mut writer = CheckpointWriter::open(dir)?;
    let mut fresh = Vec::new();
    let valid_len = walk_nodes(node_bytes, |id, _, frame| {
        if writer.on_disk.insert(id) {
            fresh.extend_from_slice(frame);
        }
    });
    if valid_len != node_bytes.len() {
        return Err(bad("export blob carries a damaged node frame"));
    }
    writer.nodes.write_all(&fresh)?;
    writer.nodes.sync_data()?;
    writer.write_manifest(manifest)?;
    Ok(())
}

/// A checkpoint loaded back from disk.
#[derive(Debug, Clone)]
pub struct LoadedCheckpoint {
    /// The checkpointed database value.
    pub database: Database,
    /// Per relation, how many writes (sequence numbers below the mark) the
    /// database value folds in — where log replay resumes.
    pub seq_marks: HashMap<RelationName, u64>,
    /// The manifest index this state came from.
    pub manifest: u64,
}

/// Loads the newest *valid* checkpoint under `dir`, or `None` if there is
/// no usable manifest. Manifests that fail their magic/CRC (torn by a
/// crash) or reference missing nodes are skipped in favour of older ones.
pub fn load_latest(dir: &Path) -> io::Result<Option<LoadedCheckpoint>> {
    if !dir.exists() {
        return Ok(None);
    }
    let mut indices = numbered_files(dir, "ckpt-", ".fck")?;
    if indices.is_empty() {
        return Ok(None);
    }
    // One pass over the node store serves every manifest candidate.
    let store = read_node_store(&dir.join(NODE_STORE))?;
    let mut nodes = HashMap::new();
    walk_nodes(&store, |id, payload, _| {
        nodes.insert(id, payload);
    });
    indices.reverse();
    for index in indices {
        match try_load_manifest(&dir.join(manifest_name(index)), &nodes) {
            Ok(Some((database, seq_marks))) => {
                return Ok(Some(LoadedCheckpoint {
                    database,
                    seq_marks,
                    manifest: index,
                }));
            }
            Ok(None) => continue, // torn or incomplete; try the previous one
            Err(e) => return Err(e),
        }
    }
    Ok(None)
}

type ManifestState = (Database, HashMap<RelationName, u64>);

/// Node payloads by id, borrowed from the node store's bytes.
type Nodes<'a> = HashMap<u128, &'a [u8]>;

/// Parses and materializes one manifest. `Ok(None)` means "unusable but
/// not an environment failure" (torn file, missing nodes) — the caller
/// falls back to an older manifest.
fn try_load_manifest(path: &Path, nodes: &Nodes<'_>) -> io::Result<Option<ManifestState>> {
    let bytes = match fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let Some(body) = manifest_body(&bytes) else {
        return Ok(None);
    };

    let parse = |body: &[u8]| -> Result<Option<ManifestState>, CodecError> {
        let mut c = Cursor::new(body);
        let count = c.count(MIN_MANIFEST_ENTRY_BYTES)?;
        let mut db = Database::empty();
        let mut marks = HashMap::new();
        for _ in 0..count {
            let name = c.str()?;
            let repr = match c.u8()? {
                0 => Repr::List,
                2 => Repr::BTree(c.u32()? as usize),
                t => return Err(CodecError(format!("unknown repr tag {t}"))),
            };
            let schema = c.schema()?;
            let mark = c.u64()?;
            let root = c.u128()?;
            let n_indexes = c.count(8)?;
            let mut index_defs = Vec::with_capacity(n_indexes);
            for _ in 0..n_indexes {
                let iname = c.str()?;
                let n_fields = c.count(4)?;
                let mut ifields = Vec::with_capacity(n_fields);
                for _ in 0..n_fields {
                    ifields.push(c.u32()? as usize);
                }
                index_defs.push((iname, ifields));
            }
            let Some(mut rel) = materialize(repr, root, nodes)? else {
                return Ok(None); // a referenced node is missing
            };
            // Definitions only were persisted; rebuild each index's
            // contents from the materialized store. This keeps the node
            // store free of derived structure — and makes the rebuild
            // mandatory here, because log GC drops `create index` records
            // once a checkpoint's marks cover them.
            for (iname, ifields) in index_defs {
                rel = rel
                    .create_index_multi(&iname, &ifields)
                    .ok_or_else(|| CodecError(format!("manifest repeats index '{iname}'")))?;
            }
            // A view entry comes back with its definition attached, so the
            // replayed log keeps maintaining it differentially; its
            // contents were checkpointed like any relation's.
            db = match read_view_def(&mut c)? {
                None => db
                    .with_relation_value(name.as_str(), rel, schema)
                    .map_err(|e| CodecError(e.to_string()))?,
                Some(def) => db
                    .with_view_value(name.as_str(), rel, schema, def)
                    .map_err(|e| CodecError(e.to_string()))?,
            };
            marks.insert(RelationName::new(&name), mark);
        }
        Ok(Some((db, marks)))
    };
    match parse(body) {
        Ok(state) => Ok(state),
        // The body passed its CRC yet fails to parse: surface it — this is
        // a bug or tampering, not a torn write to silently skip.
        Err(e) => Err(e.into()),
    }
}

/// Rebuilds one relation value from its root id. `Ok(None)` if a
/// referenced node is absent from the store.
fn materialize(repr: Repr, root: u128, nodes: &Nodes<'_>) -> Result<Option<Relation>, CodecError> {
    fn node<'a>(nodes: &Nodes<'a>, id: u128) -> Option<Cursor<'a>> {
        nodes.get(&id).map(|p| Cursor::new(p))
    }

    match repr {
        Repr::List => {
            // Iterative: spines can be as long as the relation.
            let mut items: Vec<Tuple> = Vec::new();
            let mut cur = root;
            while cur != NIL_ID {
                let Some(mut c) = node(nodes, cur) else {
                    return Ok(None);
                };
                if c.u8()? != TAG_LIST_CELL {
                    return Err(CodecError("expected list cell".into()));
                }
                items.push(c.tuple()?);
                cur = c.u128()?;
            }
            Ok(Some(Relation::from(Store::List(
                items.into_iter().collect(),
            ))))
        }
        Repr::BTree(min_degree) => {
            // Rebuild the *exact* stored shape (post-order, memoized by
            // content id so shared subtrees stay physically shared): pages
            // come back with the stored occupancy, not whatever sequential
            // reinsertion would produce, so the next checkpoint deduplicates
            // against what is already on disk instead of re-storing every
            // node.
            type Tree = fundb_persist::BTree<Value, PList<Tuple>>;
            fn build(
                id: u128,
                nodes: &Nodes<'_>,
                min_degree: usize,
                memo: &mut HashMap<u128, Tree>,
            ) -> Result<Option<Tree>, CodecError> {
                if let Some(t) = memo.get(&id) {
                    return Ok(Some(t.clone()));
                }
                let Some(payload) = nodes.get(&id) else {
                    return Ok(None);
                };
                let mut c = Cursor::new(payload);
                if c.u8()? != TAG_BTREE {
                    return Err(CodecError("expected B-tree page".into()));
                }
                let nkeys = c.count(MIN_VALUE_BYTES + 4)?;
                let mut keys = Vec::with_capacity(nkeys);
                for _ in 0..nkeys {
                    let k = c.value()?;
                    let b = read_bucket(&mut c)?;
                    keys.push((k, b));
                }
                let nchildren = c.count(16)?;
                if nchildren != 0 && nchildren != nkeys + 1 {
                    return Err(CodecError("B-tree page child count mismatch".into()));
                }
                let mut children = Vec::with_capacity(nchildren);
                for _ in 0..nchildren {
                    let Some(child) = build(c.u128()?, nodes, min_degree, memo)? else {
                        return Ok(None);
                    };
                    children.push(child);
                }
                let t = Tree::from_parts(min_degree, keys, children)
                    .ok_or_else(|| CodecError("B-tree page arity mismatch".into()))?;
                memo.insert(id, t.clone());
                Ok(Some(t))
            }
            let mut memo = HashMap::new();
            let Some(t) = build(root, nodes, min_degree.max(2), &mut memo)? else {
                return Ok(None);
            };
            if !t.check_invariants() {
                return Err(CodecError(
                    "checkpointed B-tree violates search-tree invariants".into(),
                ));
            }
            Ok(Some(Relation::from(Store::BTree(t))))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch::ScratchDir;
    use fundb_query::{parse, translate};
    use fundb_relational::Schema;

    fn cut_of(db: Database, marks: &[(&str, u64)]) -> ConsistentCut {
        ConsistentCut {
            database: db,
            seq_marks: marks
                .iter()
                .map(|(n, m)| (RelationName::new(n), *m))
                .collect(),
        }
    }

    fn db_equal(a: &Database, b: &Database) -> bool {
        if a.relation_names() != b.relation_names() {
            return false;
        }
        a.relation_names().iter().all(|n| {
            let ra = a.relation(n).unwrap();
            let rb = b.relation(n).unwrap();
            ra.repr() == rb.repr()
                && ra.scan() == rb.scan()
                && a.schema(n).unwrap() == b.schema(n).unwrap()
        })
    }

    fn populated_db() -> Database {
        let mut db = Database::empty()
            .create_relation("L", Repr::List)
            .unwrap()
            .create_relation("T", Repr::BTree(2))
            .unwrap()
            .create_relation("B", Repr::BTree(4))
            .unwrap()
            .create_relation("P", Repr::TREE)
            .unwrap();
        for name in ["L", "T", "B", "P"] {
            for k in 0..50 {
                let t = Tuple::new(vec![
                    (k % 17).into(),
                    format!("val-{name}-{k}").into(),
                    (k % 2 == 0).into(),
                ]);
                let (next, _) = db.insert(&name.into(), t).unwrap();
                db = next;
            }
        }
        db
    }

    #[test]
    fn roundtrip_all_backends() {
        let tmp = ScratchDir::new("ckpt-roundtrip");
        let db = populated_db();
        let mut w = CheckpointWriter::open(tmp.path()).unwrap();
        let stats = w
            .write(&cut_of(
                db.clone(),
                &[("L", 50), ("T", 50), ("B", 50), ("P", 50)],
            ))
            .unwrap();
        assert!(stats.nodes_written > 0);

        let loaded = load_latest(tmp.path()).unwrap().expect("checkpoint exists");
        assert!(db_equal(&loaded.database, &db));
        assert_eq!(loaded.seq_marks[&"T".into()], 50);
        assert_eq!(loaded.manifest, stats.manifest);
    }

    #[test]
    fn index_definitions_roundtrip_without_node_bytes() {
        let tmp = ScratchDir::new("ckpt-indexes");
        let db = populated_db();
        let mut w = CheckpointWriter::open(tmp.path()).unwrap();
        let plain = w.write(&cut_of(db.clone(), &[("T", 50)])).unwrap();
        assert!(plain.nodes_written > 0);

        // Adding indexes changes no store bytes: only the manifest grows.
        let db = db.create_index(&"T".into(), "by_name", 1).unwrap();
        let db = db.create_index(&"T".into(), "by_flag", 2).unwrap();
        let db = db
            .create_index_multi(&"T".into(), "by_name_flag", &[1, 2])
            .unwrap();
        let indexed = w.write(&cut_of(db.clone(), &[("T", 50)])).unwrap();
        assert_eq!(
            indexed.nodes_written, 0,
            "index definitions must not touch the node store"
        );

        let loaded = load_latest(tmp.path()).unwrap().unwrap();
        assert!(db_equal(&loaded.database, &db));
        let orig = db.relation(&"T".into()).unwrap();
        let back = loaded.database.relation(&"T".into()).unwrap();
        assert_eq!(back.indexes().len(), 3);
        // The composite definition survives with its full field list, and
        // its rebuilt postings answer prefix probes like the original.
        let comp = back.indexes().get("by_name_flag").expect("composite back");
        assert_eq!(comp.fields(), &[1, 2]);
        let orig_comp = orig.indexes().get("by_name_flag").unwrap();
        let probe: Value = "val-T-7".into();
        assert_eq!(
            comp.keys_prefix(std::slice::from_ref(&probe)),
            orig_comp.keys_prefix(std::slice::from_ref(&probe))
        );
        let ix = back.index_on(1).expect("definition recovered");
        assert_eq!(ix.name(), "by_name");
        // Rebuilt contents answer exactly like the originals.
        let orig_ix = orig.index_on(1).unwrap();
        assert_eq!(ix.distinct_values(), orig_ix.distinct_values());
        for k in 0..50 {
            let v: Value = format!("val-T-{k}").into();
            assert_eq!(ix.keys_eq(&v), orig_ix.keys_eq(&v), "postings for {v:?}");
        }
        assert_eq!(
            back.index_on(2).unwrap().keys_eq(&true.into()),
            orig.index_on(2).unwrap().keys_eq(&true.into())
        );
    }

    #[test]
    fn empty_relations_roundtrip() {
        let tmp = ScratchDir::new("ckpt-empty");
        let db = Database::empty()
            .create_relation("L", Repr::List)
            .unwrap()
            .create_relation_with_schema(
                "T",
                Repr::TREE,
                Some(Schema::new(&["id", "name"]).unwrap()),
            )
            .unwrap()
            .create_relation("B", Repr::BTree(3))
            .unwrap()
            .create_relation("P", Repr::List)
            .unwrap();
        let mut w = CheckpointWriter::open(tmp.path()).unwrap();
        w.write(&cut_of(db.clone(), &[])).unwrap();
        let loaded = load_latest(tmp.path()).unwrap().unwrap();
        assert!(db_equal(&loaded.database, &db));
    }

    #[test]
    fn incremental_checkpoint_is_cheap() {
        let tmp = ScratchDir::new("ckpt-incremental");
        let db = populated_db();
        let mut w = CheckpointWriter::open(tmp.path()).unwrap();
        let full = w.write(&cut_of(db.clone(), &[])).unwrap();

        // A few updates; checkpoint the successor version.
        let mut db2 = db;
        for name in ["T", "B"] {
            let (next, _) = db2.insert(&name.into(), Tuple::of_key(999)).unwrap();
            db2 = next;
        }
        let incr = w.write(&cut_of(db2, &[])).unwrap();
        assert!(
            incr.node_bytes * 5 < full.node_bytes,
            "incremental ({} B) should be far below full ({} B)",
            incr.node_bytes,
            full.node_bytes
        );
        assert!(incr.nodes_deduped > 0, "shared structure must dedup");
    }

    #[test]
    fn reload_rebuilds_stored_shape_so_recheckpoint_dedups_everything() {
        // Build the trees in descending key order: a loader that collected
        // entries and re-inserted them (ascending) would come back with a
        // different shape, and re-checkpointing the loaded cut would then
        // write fresh nodes instead of deduplicating. Shape-exact reload
        // must make the second checkpoint a pure no-op.
        let tmp = ScratchDir::new("ckpt-shape-exact");
        let mut db = Database::empty()
            .create_relation("T", Repr::TREE)
            .unwrap()
            .create_relation("B", Repr::BTree(3))
            .unwrap();
        for name in ["T", "B"] {
            for k in (0..60).rev() {
                let (next, _) = db.insert(&name.into(), Tuple::of_key(k)).unwrap();
                db = next;
            }
        }
        let mut w = CheckpointWriter::open(tmp.path()).unwrap();
        let first = w.write(&cut_of(db.clone(), &[])).unwrap();
        assert!(first.nodes_written > 0);

        let loaded = load_latest(tmp.path()).unwrap().expect("checkpoint exists");
        assert!(db_equal(&loaded.database, &db));

        // A fresh writer learns what is on disk only from the node store;
        // re-checkpointing the loaded database must add nothing to it.
        let mut w2 = CheckpointWriter::open(tmp.path()).unwrap();
        let second = w2.write(&cut_of(loaded.database, &[])).unwrap();
        assert_eq!(
            second.nodes_written, 0,
            "reload changed node shapes: {} nodes re-written",
            second.nodes_written
        );
        assert!(second.nodes_deduped > 0);
    }

    /// A manifest body naming one relation `T` stored under the repr
    /// encoding `repr` and rooted at `root`, with no schema, indexes or
    /// view definition.
    fn one_relation_manifest(repr: &[u8], root: u128) -> Vec<u8> {
        let mut body = Vec::new();
        put_u32(&mut body, 1);
        put_str(&mut body, "T");
        body.extend_from_slice(repr);
        put_schema(&mut body, None);
        put_u64(&mut body, 0);
        put_u128(&mut body, root);
        put_u32(&mut body, 0);
        put_view_def(&mut body, None);
        body
    }

    fn codec_error(e: &io::Error) -> Option<&CodecError> {
        e.get_ref()
            .and_then(|inner| inner.downcast_ref::<CodecError>())
    }

    #[test]
    fn a_manifest_naming_repr_tag_1_is_refused_with_a_codec_error() {
        // Repr tag 1 was the 2-3 tree, which relations can no longer pick.
        let tmp = ScratchDir::new("ckpt-retired-repr");
        let manifest = manifest_frame(&one_relation_manifest(&[1], NIL_ID));
        fs::write(tmp.path().join(manifest_name(1)), manifest).unwrap();
        let err = load_latest(tmp.path()).expect_err("repr tag 1 names no representation");
        let codec = codec_error(&err).expect("a typed decode error");
        assert!(codec.0.contains("unknown repr tag 1"), "{codec}");
    }

    #[test]
    fn a_stored_2_3_node_is_refused_with_a_codec_error() {
        // A node in the retired 2-3 format: tag 2, one entry, two children.
        let mut payload = vec![2u8, 1];
        crate::codec::put_value(&mut payload, &Value::from(1));
        put_bucket(&mut payload, &PList::cons(Tuple::of_key(1), PList::nil()));
        put_u128(&mut payload, NIL_ID);
        put_u128(&mut payload, NIL_ID);
        let id = fnv128(&payload);
        let mut btree = vec![2u8];
        put_u32(&mut btree, 16);
        // Repr tag 3 was the retired paged store: refused before any node
        // is read.
        let mut paged = vec![3u8];
        put_u32(&mut paged, 4);
        for (what, repr) in [("list", vec![0u8]), ("B-tree", btree), ("paged", paged)] {
            let tmp = ScratchDir::new("ckpt-retired-node");
            let mut store = Vec::new();
            put_node(&mut store, id, &payload);
            fs::write(tmp.path().join(NODE_STORE), store).unwrap();
            let manifest = manifest_frame(&one_relation_manifest(&repr, id));
            fs::write(tmp.path().join(manifest_name(1)), manifest).unwrap();
            let err = load_latest(tmp.path()).expect_err(what);
            let codec = codec_error(&err).unwrap_or_else(|| panic!("{what}: {err}"));
            if what == "paged" {
                assert!(codec.0.contains("unknown repr tag 3"), "{codec}");
            }
        }
    }

    #[test]
    fn crafted_counts_in_nodes_and_manifests_are_codec_errors() {
        // Each count below declares 2^31 - 1 items in a few bytes; every
        // decoder must refuse it with a typed error before allocating.
        const HUGE: u32 = 0x7fff_ffff;
        let mut bucket = Vec::new();
        put_u32(&mut bucket, HUGE);
        assert!(read_bucket(&mut Cursor::new(&bucket)).is_err());

        let load = |what: &str, nodes: &[Vec<u8>], body: Vec<u8>| {
            let tmp = ScratchDir::new("ckpt-crafted-count");
            let mut store = Vec::new();
            for payload in nodes {
                put_node(&mut store, fnv128(payload), payload);
            }
            fs::write(tmp.path().join(NODE_STORE), store).unwrap();
            fs::write(tmp.path().join(manifest_name(1)), manifest_frame(&body)).unwrap();
            let err = load_latest(tmp.path()).expect_err(what);
            assert!(codec_error(&err).is_some(), "{what}: {err}");
        };
        let mut btree = vec![2u8];
        put_u32(&mut btree, 16);

        let mut keys = vec![TAG_BTREE];
        put_u32(&mut keys, HUGE);
        let mut children = vec![TAG_BTREE];
        put_u32(&mut children, 0);
        put_u32(&mut children, HUGE);
        for (what, node) in [("B-tree keys", keys), ("B-tree children", children)] {
            let root = fnv128(&node);
            load(what, &[node], one_relation_manifest(&btree, root));
        }

        let mut entries = Vec::new();
        put_u32(&mut entries, HUGE);
        load("manifest entries", &[], entries);
        // A list relation whose index section is crafted.
        let with_indexes = |indexes: &[u8]| {
            let mut body = one_relation_manifest(&[0], NIL_ID);
            body.truncate(body.len() - 5); // the index count and view tag
            body.extend_from_slice(indexes);
            put_view_def(&mut body, None);
            body
        };
        load("index count", &[], with_indexes(&HUGE.to_le_bytes()));
        let mut one_index = Vec::new();
        put_u32(&mut one_index, 1);
        put_str(&mut one_index, "ix");
        put_u32(&mut one_index, HUGE);
        load("index field count", &[], with_indexes(&one_index));
    }

    #[test]
    fn loader_falls_back_over_torn_manifest() {
        let tmp = ScratchDir::new("ckpt-torn-manifest");
        let db = populated_db();
        let mut w = CheckpointWriter::open(tmp.path()).unwrap();
        w.write(&cut_of(db.clone(), &[("L", 1)])).unwrap();
        let s2 = w.write(&cut_of(db.clone(), &[("L", 2)])).unwrap();

        // Damage the newest manifest, as a crash mid-write would.
        let newest = tmp.path().join(manifest_name(s2.manifest));
        let bytes = fs::read(&newest).unwrap();
        fs::write(&newest, &bytes[..bytes.len() / 2]).unwrap();

        let loaded = load_latest(tmp.path()).unwrap().unwrap();
        assert_eq!(loaded.seq_marks[&"L".into()], 1, "fell back to manifest 1");
        assert!(db_equal(&loaded.database, &db));
    }

    #[test]
    fn torn_node_store_tail_is_repaired_on_open() {
        let tmp = ScratchDir::new("ckpt-torn-nodes");
        let db = populated_db();
        {
            let mut w = CheckpointWriter::open(tmp.path()).unwrap();
            w.write(&cut_of(db.clone(), &[])).unwrap();
        }
        // Append garbage: a crash in the middle of a later checkpoint's
        // node flush.
        let store = tmp.path().join("nodes.fns");
        let mut f = OpenOptions::new().append(true).open(&store).unwrap();
        f.write_all(&[0xAB; 13]).unwrap();
        drop(f);

        let mut w = CheckpointWriter::open(tmp.path()).unwrap();
        // The earlier checkpoint still loads, and new checkpoints append
        // cleanly after the repair.
        let loaded = load_latest(tmp.path()).unwrap().unwrap();
        assert!(db_equal(&loaded.database, &db));
        let (db2, _) = db.insert(&"L".into(), Tuple::of_key(777)).unwrap();
        w.write(&cut_of(db2.clone(), &[])).unwrap();
        let loaded = load_latest(tmp.path()).unwrap().unwrap();
        assert!(db_equal(&loaded.database, &db2));
    }

    #[test]
    fn export_import_bootstraps_a_fresh_directory() {
        let src = ScratchDir::new("ckpt-export-src");
        let dst = ScratchDir::new("ckpt-export-dst");
        assert!(export_latest(src.path()).unwrap().is_none(), "nothing yet");

        let db = populated_db();
        let mut w = CheckpointWriter::open(src.path()).unwrap();
        w.write(&cut_of(db.clone(), &[("L", 50), ("T", 50)]))
            .unwrap();
        let blob = export_latest(src.path())
            .unwrap()
            .expect("checkpoint exists");

        import(dst.path(), &blob).unwrap();
        let loaded = load_latest(dst.path()).unwrap().expect("imported");
        assert!(db_equal(&loaded.database, &db));
        assert_eq!(loaded.seq_marks[&"L".into()], 50);

        // The importer can checkpoint its own progress afterwards.
        let (db2, _) = db.insert(&"L".into(), Tuple::of_key(1234)).unwrap();
        let mut w2 = CheckpointWriter::open(dst.path()).unwrap();
        let stats = w2.write(&cut_of(db2.clone(), &[("L", 51)])).unwrap();
        assert!(stats.nodes_deduped > 0, "imported nodes must dedup");
        let loaded = load_latest(dst.path()).unwrap().unwrap();
        assert!(db_equal(&loaded.database, &db2));
    }

    #[test]
    fn import_into_populated_directory_dedups_and_wins() {
        let src = ScratchDir::new("ckpt-import-src");
        let dst = ScratchDir::new("ckpt-import-dst");
        let db = populated_db();
        let mut ws = CheckpointWriter::open(src.path()).unwrap();
        ws.write(&cut_of(db.clone(), &[("L", 9)])).unwrap();

        // The destination already has an older checkpoint of the same data.
        let mut wd = CheckpointWriter::open(dst.path()).unwrap();
        wd.write(&cut_of(db.clone(), &[("L", 3)])).unwrap();
        drop(wd);

        let blob = export_latest(src.path()).unwrap().unwrap();
        import(dst.path(), &blob).unwrap();
        let loaded = load_latest(dst.path()).unwrap().unwrap();
        assert_eq!(
            loaded.seq_marks[&"L".into()],
            9,
            "imported manifest becomes the newest"
        );
    }

    #[test]
    fn import_rejects_damaged_blobs() {
        let src = ScratchDir::new("ckpt-import-damage-src");
        let dst = ScratchDir::new("ckpt-import-damage-dst");
        let mut w = CheckpointWriter::open(src.path()).unwrap();
        w.write(&cut_of(populated_db(), &[])).unwrap();
        let blob = export_latest(src.path()).unwrap().unwrap();

        assert!(import(dst.path(), &[1, 2, 3]).is_err(), "bad magic");
        let mut torn = blob.clone();
        torn.truncate(blob.len() - 5);
        assert!(import(dst.path(), &torn).is_err(), "torn node frame");
        let mut flipped = blob;
        let last = flipped.len() - 1;
        flipped[last] ^= 0x10;
        assert!(import(dst.path(), &flipped).is_err(), "damaged node frame");
        assert!(
            load_latest(dst.path()).unwrap().is_none(),
            "failed imports must not install a manifest"
        );
    }

    #[test]
    fn checkpoint_preserves_scan_order_for_engine_equivalence() {
        // The materialized relations must answer queries identically —
        // including tuple order from scans — or recovery would be visible.
        let tmp = ScratchDir::new("ckpt-order");
        let mut db = Database::empty().create_relation("R", Repr::List).unwrap();
        for q in [
            "insert (3, 'c') into R",
            "insert (1, 'a') into R",
            "insert (2, 'b') into R",
            "insert (1, 'dup') into R",
        ] {
            let tx = translate(parse(q).unwrap());
            let (_, next) = tx.apply(&db);
            db = next;
        }
        let mut w = CheckpointWriter::open(tmp.path()).unwrap();
        w.write(&cut_of(db.clone(), &[("R", 4)])).unwrap();
        let loaded = load_latest(tmp.path()).unwrap().unwrap();
        let probe = translate(parse("find 1 in R").unwrap());
        assert_eq!(probe.apply(&db).0, probe.apply(&loaded.database).0);
        assert_eq!(
            db.relation(&"R".into()).unwrap().scan(),
            loaded.database.relation(&"R".into()).unwrap().scan()
        );
    }
}
