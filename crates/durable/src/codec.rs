//! Byte-level encoding shared by the log and the checkpoint store.
//!
//! Everything on disk is little-endian, length-prefixed, and guarded by
//! CRC-32 at the record level: a WAL record, a node-store record and a
//! manifest are each one [frame](put_frame), and [`read_frame`] is the only
//! parser of a frame header. Checkpoint nodes are additionally *named* by
//! a 128-bit FNV-1a hash of their payload, which is what makes shared
//! structure deduplicate on disk: two versions that share a subtree hash
//! its nodes to the same ids, so the subtree is stored once.

use std::fmt;

use fundb_relational::{Schema, Tuple, Value};

/// CRC-32 (IEEE 802.3) lookup table, built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of `data` — the per-record integrity check.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// 128-bit FNV-1a of `data` — the content address of a checkpoint node.
///
/// Content addressing only needs collision resistance against *accidental*
/// collisions among at most millions of nodes; 128 bits of FNV-1a is ample
/// for that (and needs no external crates).
pub fn fnv128(data: &[u8]) -> u128 {
    const OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013B;
    let mut h = OFFSET;
    for &b in data {
        h ^= b as u128;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// A decode failure: the bytes passed their CRC but do not parse — always
/// a logic error or deliberate tampering, never a torn write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "decode error: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

impl From<CodecError> for std::io::Error {
    fn from(e: CodecError) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e)
    }
}

/// Appends a `u32` little-endian.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64` little-endian.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u128` little-endian (node ids).
pub fn put_u128(buf: &mut Vec<u8>, v: u128) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends length-prefixed bytes.
pub fn put_bytes(buf: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(buf, bytes.len() as u32);
    buf.extend_from_slice(bytes);
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_bytes(buf, s.as_bytes());
}

/// Appends one frame: `[u32 len][u32 crc32(body)][body]`.
pub fn put_frame(buf: &mut Vec<u8>, body: &[u8]) {
    put_u32(buf, body.len() as u32);
    put_u32(buf, crc32(body));
    buf.extend_from_slice(body);
}

/// What [`read_frame`] found at a position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Frame<'a> {
    /// A whole frame whose CRC matches.
    Whole {
        /// The bytes the CRC covers.
        body: &'a [u8],
        /// Where the next frame starts.
        end: usize,
    },
    /// The bytes end before the frame does: a header short of 8 bytes, or
    /// a declared body running past the end — what a torn append leaves.
    Incomplete,
    /// Fully present, but the CRC does not match the body.
    Damaged,
}

/// Reads the frame starting at `pos` of `bytes`.
pub fn read_frame(bytes: &[u8], pos: usize) -> Frame<'_> {
    let mut c = Cursor::new(bytes.get(pos..).unwrap_or_default());
    let (Ok(len), Ok(crc)) = (c.u32(), c.u32()) else {
        return Frame::Incomplete;
    };
    match c.take(len as usize) {
        Err(_) => Frame::Incomplete,
        Ok(body) if crc32(body) != crc => Frame::Damaged,
        Ok(body) => Frame::Whole {
            body,
            end: pos + c.pos,
        },
    }
}

/// Appends one [`Value`]: a tag byte plus the payload.
pub fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Int(i) => {
            buf.push(0);
            buf.extend_from_slice(&i.to_le_bytes());
        }
        Value::Str(s) => {
            buf.push(1);
            put_str(buf, s);
        }
        Value::Bool(b) => {
            buf.push(2);
            buf.push(u8::from(*b));
        }
    }
}

/// Appends one [`Tuple`]: arity plus each field.
pub fn put_tuple(buf: &mut Vec<u8>, t: &Tuple) {
    put_u32(buf, t.arity() as u32);
    for v in t.iter() {
        put_value(buf, v);
    }
}

/// Appends an optional [`Schema`] as its attribute names.
pub fn put_schema(buf: &mut Vec<u8>, schema: Option<&Schema>) {
    match schema {
        None => buf.push(0),
        Some(s) => {
            buf.push(1);
            let attrs = s.attrs();
            put_u32(buf, attrs.len() as u32);
            for a in attrs {
                put_str(buf, a);
            }
        }
    }
}

/// The fewest bytes an encoded [`Value`] takes (a `Bool`: tag + byte).
pub(crate) const MIN_VALUE_BYTES: usize = 2;

/// The fewest bytes an encoded [`Tuple`] takes (arity + one value).
pub(crate) const MIN_TUPLE_BYTES: usize = 4 + MIN_VALUE_BYTES;

/// A bounds-checked reader over an encoded byte slice.
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl fmt::Debug for Cursor<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Cursor[{}/{}]", self.pos, self.buf.len())
    }
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    /// `true` if every byte has been consumed.
    pub fn at_end(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| CodecError(format!("truncated: needed {n} bytes at {}", self.pos)))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// The bytes not yet consumed.
    pub fn rest(&self) -> &'a [u8] {
        &self.buf[self.pos..]
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        self.array().map(u32::from_le_bytes)
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Reads a little-endian `u128` (a node id).
    pub fn u128(&mut self) -> Result<u128, CodecError> {
        self.array().map(u128::from_le_bytes)
    }

    /// Reads an item count (a `u32`) for items at least `item_bytes` long
    /// each, refusing a count the remaining bytes cannot hold — so a
    /// decoder may size its allocation by it without trusting the sender.
    pub fn count(&mut self, item_bytes: usize) -> Result<usize, CodecError> {
        let n = self.u32()? as usize;
        let left = self.buf.len() - self.pos;
        if n.saturating_mul(item_bytes) > left {
            return Err(CodecError(format!(
                "count {n} exceeds the {left} bytes left at {}",
                self.pos
            )));
        }
        Ok(n)
    }

    /// Reads length-prefixed bytes (see [`put_bytes`]).
    pub fn bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, CodecError> {
        let bytes = self.bytes()?;
        String::from_utf8(bytes.to_vec()).map_err(|e| CodecError(e.to_string()))
    }

    /// Reads one [`Value`].
    pub fn value(&mut self) -> Result<Value, CodecError> {
        match self.u8()? {
            0 => Ok(Value::Int(self.array().map(i64::from_le_bytes)?)),
            1 => Ok(Value::from(self.str()?)),
            2 => Ok(Value::Bool(self.u8()? != 0)),
            t => Err(CodecError(format!("unknown value tag {t}"))),
        }
    }

    /// Reads one [`Tuple`].
    pub fn tuple(&mut self) -> Result<Tuple, CodecError> {
        let arity = self.count(MIN_VALUE_BYTES)?;
        if arity == 0 {
            return Err(CodecError("zero-arity tuple".into()));
        }
        let mut fields = Vec::with_capacity(arity);
        for _ in 0..arity {
            fields.push(self.value()?);
        }
        Ok(Tuple::new(fields))
    }

    /// Reads an optional [`Schema`].
    pub fn schema(&mut self) -> Result<Option<Schema>, CodecError> {
        match self.u8()? {
            0 => Ok(None),
            1 => {
                let n = self.count(4)?;
                let mut attrs = Vec::with_capacity(n);
                for _ in 0..n {
                    attrs.push(self.str()?);
                }
                Schema::new(&attrs)
                    .map(Some)
                    .map_err(|e| CodecError(e.to_string()))
            }
            t => Err(CodecError(format!("unknown schema tag {t}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vector() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn fnv128_distinguishes_and_is_stable() {
        assert_eq!(fnv128(b"abc"), fnv128(b"abc"));
        assert_ne!(fnv128(b"abc"), fnv128(b"abd"));
        assert_ne!(fnv128(b""), fnv128(b"\0"));
    }

    #[test]
    fn value_and_tuple_roundtrip() {
        let t = Tuple::new(vec![
            Value::Int(-42),
            Value::from("o'brien"),
            Value::Bool(true),
        ]);
        let mut buf = Vec::new();
        put_tuple(&mut buf, &t);
        let mut c = Cursor::new(&buf);
        assert_eq!(c.tuple().unwrap(), t);
        assert!(c.at_end());
    }

    #[test]
    fn schema_roundtrip() {
        let s = Schema::new(&["id", "name"]).unwrap();
        let mut buf = Vec::new();
        put_schema(&mut buf, Some(&s));
        put_schema(&mut buf, None);
        let mut c = Cursor::new(&buf);
        assert_eq!(c.schema().unwrap(), Some(s));
        assert_eq!(c.schema().unwrap(), None);
    }

    #[test]
    fn truncated_input_is_an_error_not_a_panic() {
        let mut buf = Vec::new();
        put_str(&mut buf, "hello");
        let mut c = Cursor::new(&buf[..buf.len() - 2]);
        assert!(c.str().is_err());
        let mut c = Cursor::new(&[0u8, 0, 0]);
        assert!(c.u32().is_err());
    }

    #[test]
    fn frames_read_back_whole_incomplete_or_damaged() {
        let mut buf = Vec::new();
        put_frame(&mut buf, b"abc");
        put_frame(&mut buf, b"");
        assert_eq!(
            read_frame(&buf, 0),
            Frame::Whole {
                body: b"abc",
                end: 11
            }
        );
        assert_eq!(read_frame(&buf, 11), Frame::Whole { body: b"", end: 19 });
        assert_eq!(read_frame(&buf, 19), Frame::Incomplete, "at the end");
        assert_eq!(read_frame(&buf[..5], 0), Frame::Incomplete, "short header");
        assert_eq!(read_frame(&buf[..10], 0), Frame::Incomplete, "short body");
        let mut flipped = buf.clone();
        flipped[9] ^= 1;
        assert_eq!(read_frame(&flipped, 0), Frame::Damaged);
    }

    #[test]
    fn crafted_counts_are_errors_not_allocations() {
        // Four bytes declaring 2^31 - 1 items: decoding must refuse the
        // count, not reserve room for it.
        let huge = [0xff, 0xff, 0xff, 0x7f];
        assert!(Cursor::new(&huge).tuple().is_err());
        assert!(Cursor::new(&[&[1u8][..], &huge].concat()).schema().is_err());
        assert!(Cursor::new(&huge).count(1).is_err());
        // A count the remaining bytes can hold passes.
        assert_eq!(Cursor::new(&[2, 0, 0, 0, 9, 9]).count(1), Ok(2));
        assert!(Cursor::new(&[2, 0, 0, 0, 9, 9]).count(2).is_err());
    }
}
