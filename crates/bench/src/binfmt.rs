//! Checksummed binary record container for the two durable records
//! this workspace replays on resume: disk cache entries and journal
//! rows.
//!
//! Both layers used to round-trip through `serde_json`, and cache and
//! journal replay paid a full JSON parse on every resume. This module
//! replaces that with a fixed-layout binary container plus a compact
//! binary encoding of the shimmed [`serde::Value`] data model, so every
//! `#[derive(Serialize)]` type in the workspace gets the binary format
//! with no per-type code. Observability artifacts (the `obs` report,
//! the span trace) are not durable records: they are written once as
//! JSON, the format their readers (the report schema, Perfetto) take.
//!
//! # Container layout
//!
//! All integers are explicit little-endian, so the header is readable
//! by offset without parsing anything (and the whole record can be
//! inspected from an `mmap` without touching the payload):
//!
//! ```text
//! offset  size  field
//! 0       4     magic "MGB1"
//! 4       2     container version (u16) — layout of this envelope
//! 6       2     record kind (u16, see [`RecordKind`])
//! 8       4     payload schema version (u32) — meaning of the payload
//! 12      4     reserved flags (u32, written 0, ignored on read)
//! 16      8     payload length in bytes (u64)
//! 24      N     payload: length-prefixed sections (see below)
//! 24+N    8     FNV-1a-64 checksum over bytes [0, 24+N)
//! ```
//!
//! The trailer checksum covers the header too, so a record either
//! verifies end-to-end or it is treated as corrupt; a record whose
//! *header* fields disagree with the reader (kind, schema) is merely
//! **stale** — the two cases are distinguished by
//! [`BinError::is_corrupt`], and callers quarantine the former while
//! silently re-deriving the latter.
//!
//! # Payload: sections + value tree
//!
//! The payload is two length-prefixed sections (u32-LE byte length,
//! then contents), so readers can skip either without decoding it:
//!
//! 1. **String table** — varint count, then each string as varint
//!    length + UTF-8 bytes. Every string in the record (map keys *and*
//!    string values) is interned here once; a cache entry's many
//!    rows naming the same fields pay for those names once.
//! 2. **Value tree** — one tag byte per node: null/bool tags,
//!    zigzag-varint integers, `f64` as raw little-endian bits (replay
//!    is bit-identical by construction, which JSON can only approximate
//!    by printing enough digits; integral floats compress to a zigzag
//!    varint when that reproduces the exact bits), strings as table
//!    indices, and varint-counted sequences/maps. Runs of identical
//!    scalars inside a sequence (profile zeros, repeated frequency
//!    counts) collapse to a single repeat marker.
//!
//! Decoding is fully defensive: every varint is bounded, every length
//! is checked against the remaining bytes, and every table index is
//! bounds-checked — corrupt bytes that somehow pass the checksum still
//! produce a [`BinError::Malformed`], never a panic or a wrong value.

use serde::{Deserialize, Serialize, Value};
use std::fmt;

/// The four magic bytes opening every record.
pub const MAGIC: [u8; 4] = *b"MGB1";

/// Version of the container layout itself (header/sections/trailer).
/// Bump only when the *envelope* changes shape; payload evolution goes
/// through each record kind's schema version instead.
pub const CONTAINER_VERSION: u16 = 1;

/// Byte length of the fixed header.
pub const HEADER_LEN: usize = 24;

/// Byte length of the checksum trailer.
pub const TRAILER_LEN: usize = 8;

/// File extension for binary records (`ctx-*.mgb`, `row-*.mgb`).
pub const EXT: &str = "mgb";

/// What a record's payload is. Stored in the header so a reader can
/// reject a cache entry handed to the journal (and vice versa) without
/// decoding anything.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u16)]
pub enum RecordKind {
    /// Disk context-cache entry (`results/cache/ctx-*.mgb`).
    CacheEntry = 1,
    /// Sweep-journal row or serve cell (`results/journal/.../row-*.mgb`).
    JournalRow = 2,
}

impl RecordKind {
    /// The kind for a header tag, if it names one.
    pub fn from_u16(tag: u16) -> Option<RecordKind> {
        match tag {
            1 => Some(RecordKind::CacheEntry),
            2 => Some(RecordKind::JournalRow),
            _ => None,
        }
    }
}

/// The fixed-offset fields of a record, readable without decoding (or
/// even checksumming) the payload. See [`peek_header`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Header {
    /// Container layout version.
    pub container_version: u16,
    /// Record kind tag (may be unknown to this build; compare with
    /// [`RecordKind::from_u16`]).
    pub kind: u16,
    /// Payload schema version, owned by the record kind.
    pub schema: u32,
    /// Payload length in bytes.
    pub payload_len: u64,
}

/// Why a record failed to open. [`BinError::is_corrupt`] splits the
/// variants into *corrupt* (quarantine the file, keep the evidence) and
/// *stale* (a different generation wrote it; silently re-derive).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BinError {
    /// Fewer bytes than the layout requires (torn or truncated write).
    Truncated {
        /// Bytes the layout requires.
        need: usize,
        /// Bytes actually present.
        have: usize,
    },
    /// The first four bytes are not [`MAGIC`].
    BadMagic,
    /// The container layout version is newer than this build reads.
    UnsupportedContainer(u16),
    /// The record is of a different kind than the caller expects.
    WrongKind {
        /// Kind tag the caller required.
        want: u16,
        /// Kind tag in the header.
        got: u16,
    },
    /// The payload schema version does not match the caller's.
    StaleSchema {
        /// Schema version the caller requires.
        want: u32,
        /// Schema version in the header.
        got: u32,
    },
    /// The trailer checksum does not match the bytes (bit rot, torn
    /// write landing on the right length, or tampering).
    Checksum {
        /// Checksum recorded in the trailer.
        want: u64,
        /// Checksum recomputed over the bytes.
        got: u64,
    },
    /// The payload bytes do not decode as sections + value tree, or
    /// the decoded value does not deserialize as the requested type.
    Malformed(String),
}

impl BinError {
    /// Whether the record is damaged (quarantine it) as opposed to
    /// merely written by a different generation (treat as absent).
    pub fn is_corrupt(&self) -> bool {
        match self {
            BinError::Truncated { .. }
            | BinError::BadMagic
            | BinError::Checksum { .. }
            | BinError::Malformed(_) => true,
            BinError::UnsupportedContainer(_)
            | BinError::WrongKind { .. }
            | BinError::StaleSchema { .. } => false,
        }
    }
}

impl fmt::Display for BinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BinError::Truncated { need, have } => {
                write!(f, "record truncated: need {need} bytes, have {have}")
            }
            BinError::BadMagic => write!(f, "not a binary record (bad magic)"),
            BinError::UnsupportedContainer(v) => {
                write!(f, "container version {v} is newer than this build")
            }
            BinError::WrongKind { want, got } => {
                write!(f, "wrong record kind: want {want}, got {got}")
            }
            BinError::StaleSchema { want, got } => {
                write!(f, "stale payload schema: want {want}, got {got}")
            }
            BinError::Checksum { want, got } => {
                write!(
                    f,
                    "checksum mismatch: recorded {want:016x}, computed {got:016x}"
                )
            }
            BinError::Malformed(why) => write!(f, "malformed payload: {why}"),
        }
    }
}

impl std::error::Error for BinError {}

// ----------------------------------------------------------------------
// Container
// ----------------------------------------------------------------------

/// Wraps already-encoded payload bytes in the checksummed container.
pub fn seal_payload(kind: RecordKind, schema: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + TRAILER_LEN);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&CONTAINER_VERSION.to_le_bytes());
    out.extend_from_slice(&(kind as u16).to_le_bytes());
    out.extend_from_slice(&schema.to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes()); // reserved flags
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    let sum = crate::cache::stable_hash64(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

fn le_u16(bytes: &[u8], at: usize) -> u16 {
    u16::from_le_bytes([bytes[at], bytes[at + 1]])
}

fn le_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]])
}

fn le_u64(bytes: &[u8], at: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&bytes[at..at + 8]);
    u64::from_le_bytes(b)
}

/// Reads the fixed header fields without verifying the checksum or
/// touching the payload — the "readable without a full parse" path for
/// tools listing a directory of records.
pub fn peek_header(bytes: &[u8]) -> Result<Header, BinError> {
    if bytes.len() < HEADER_LEN {
        return Err(BinError::Truncated {
            need: HEADER_LEN,
            have: bytes.len(),
        });
    }
    if bytes[..4] != MAGIC {
        return Err(BinError::BadMagic);
    }
    let container_version = le_u16(bytes, 4);
    if container_version > CONTAINER_VERSION {
        return Err(BinError::UnsupportedContainer(container_version));
    }
    Ok(Header {
        container_version,
        kind: le_u16(bytes, 6),
        schema: le_u32(bytes, 8),
        payload_len: le_u64(bytes, 16),
    })
}

/// Verifies a whole record (length and checksum) and returns its header
/// and a zero-copy slice of the payload bytes.
pub fn open_payload(bytes: &[u8]) -> Result<(Header, &[u8]), BinError> {
    let header = peek_header(bytes)?;
    let payload_len = usize::try_from(header.payload_len)
        .map_err(|_| BinError::Malformed("payload length overflows usize".into()))?;
    let need = HEADER_LEN
        .checked_add(payload_len)
        .and_then(|n| n.checked_add(TRAILER_LEN))
        .ok_or_else(|| BinError::Malformed("payload length overflows usize".into()))?;
    if bytes.len() < need {
        return Err(BinError::Truncated {
            need,
            have: bytes.len(),
        });
    }
    if bytes.len() > need {
        return Err(BinError::Malformed(format!(
            "{} trailing bytes after the record",
            bytes.len() - need
        )));
    }
    let body = &bytes[..need - TRAILER_LEN];
    let want = le_u64(bytes, need - TRAILER_LEN);
    let got = crate::cache::stable_hash64(body);
    if want != got {
        return Err(BinError::Checksum { want, got });
    }
    Ok((header, &bytes[HEADER_LEN..need - TRAILER_LEN]))
}

// ----------------------------------------------------------------------
// Value codec
// ----------------------------------------------------------------------

const TAG_NULL: u8 = 0x00;
const TAG_FALSE: u8 = 0x01;
const TAG_TRUE: u8 = 0x02;
const TAG_INT: u8 = 0x03; // zigzag varint i64
const TAG_UINT: u8 = 0x04; // varint u64 (values that do not fit i64)
const TAG_F64: u8 = 0x05; // 8 bytes, little-endian IEEE-754 bits
const TAG_STR: u8 = 0x06; // varint string-table index
const TAG_SEQ: u8 = 0x07; // varint count, then elements
const TAG_MAP: u8 = 0x08; // varint count, then (key index, value) pairs
const TAG_F64I: u8 = 0x09; // integral f64 as zigzag varint (bit-exact)
const TAG_REPEAT: u8 = 0x0a; // seq elements only: varint run, one scalar

/// Hard cap on the logical element count of one sequence. Run-length
/// encoded runs mean a tiny payload can legitimately expand to many
/// elements, so counts cannot be bounded by the bytes remaining; this
/// caps memory for corrupt or adversarial counts instead (~100 MB of
/// scalars worst case).
const MAX_SEQ_LEN: usize = 1 << 22;

/// An `f64` that a zigzag varint reproduces bit-exactly: integral,
/// within `i64`'s exact range, and not `-0.0` (whose sign the integer
/// round trip would drop). NaN and infinities fail `v == trunc`.
fn integral_f64(x: f64) -> Option<i64> {
    if x != x.trunc() || x.abs() > 9_007_199_254_740_992.0 {
        return None;
    }
    let i = x as i64;
    (((i as f64).to_bits()) == x.to_bits()).then_some(i)
}

/// Whether two scalar values encode identically (floats by bit
/// pattern, so NaN runs still collapse). Non-scalars never match:
/// runs are only collapsed over scalars, keeping expansion bounded.
fn scalar_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Null, Value::Null) => true,
        (Value::Bool(x), Value::Bool(y)) => x == y,
        (Value::I64(x), Value::I64(y)) => x == y,
        (Value::U64(x), Value::U64(y)) => x == y,
        (Value::F64(x), Value::F64(y)) => x.to_bits() == y.to_bits(),
        (Value::Str(x), Value::Str(y)) => x == y,
        _ => false,
    }
}

fn is_scalar(v: &Value) -> bool {
    !matches!(v, Value::Seq(_) | Value::Map(_))
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Streaming byte reader with bounds-checked primitives; every decode
/// failure is a [`BinError::Malformed`].
struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, at: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], BinError> {
        if self.remaining() < n {
            return Err(BinError::Malformed(format!(
                "need {n} bytes at offset {}, have {}",
                self.at,
                self.remaining()
            )));
        }
        let s = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    fn varint(&mut self) -> Result<u64, BinError> {
        let mut v: u64 = 0;
        for shift in 0..10 {
            let byte = *self.take(1)?.first().expect("take(1) returned one byte");
            if shift == 9 && byte > 0x01 {
                return Err(BinError::Malformed("varint overflows u64".into()));
            }
            v |= u64::from(byte & 0x7f) << (shift * 7);
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(BinError::Malformed("varint longer than 10 bytes".into()))
    }

    /// A varint that must also fit `usize` and be a plausible element
    /// count for the bytes left (every element costs at least one
    /// byte), so corrupt counts cannot drive huge allocations.
    fn count(&mut self) -> Result<usize, BinError> {
        let n = self.varint()?;
        let n =
            usize::try_from(n).map_err(|_| BinError::Malformed("count overflows usize".into()))?;
        if n > self.remaining() {
            return Err(BinError::Malformed(format!(
                "count {n} exceeds {} remaining bytes",
                self.remaining()
            )));
        }
        Ok(n)
    }
}

fn intern(s: &str, table: &mut Vec<String>, index: &mut std::collections::HashMap<String, u64>) {
    if !index.contains_key(s) {
        index.insert(s.to_string(), table.len() as u64);
        table.push(s.to_string());
    }
}

fn collect_strings(
    v: &Value,
    table: &mut Vec<String>,
    index: &mut std::collections::HashMap<String, u64>,
) {
    match v {
        Value::Str(s) => intern(s, table, index),
        Value::Seq(items) => {
            for item in items {
                collect_strings(item, table, index);
            }
        }
        Value::Map(entries) => {
            for (k, val) in entries {
                intern(k, table, index);
                collect_strings(val, table, index);
            }
        }
        _ => {}
    }
}

fn encode_node(v: &Value, index: &std::collections::HashMap<String, u64>, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(false) => out.push(TAG_FALSE),
        Value::Bool(true) => out.push(TAG_TRUE),
        Value::I64(n) => {
            out.push(TAG_INT);
            put_varint(out, zigzag(*n));
        }
        Value::U64(n) => {
            out.push(TAG_UINT);
            put_varint(out, *n);
        }
        Value::F64(x) => {
            if let Some(i) = integral_f64(*x) {
                out.push(TAG_F64I);
                put_varint(out, zigzag(i));
            } else {
                out.push(TAG_F64);
                out.extend_from_slice(&x.to_bits().to_le_bytes());
            }
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            put_varint(out, index[s.as_str()]);
        }
        Value::Seq(items) => {
            out.push(TAG_SEQ);
            put_varint(out, items.len() as u64);
            // Collapse runs of identical scalars (profile zeros,
            // repeated frequency counts) into one repeat marker.
            let mut i = 0;
            while i < items.len() {
                let mut run = 1;
                while is_scalar(&items[i])
                    && i + run < items.len()
                    && scalar_eq(&items[i], &items[i + run])
                {
                    run += 1;
                }
                if run >= 3 {
                    out.push(TAG_REPEAT);
                    put_varint(out, run as u64);
                    encode_node(&items[i], index, out);
                } else {
                    for item in &items[i..i + run] {
                        encode_node(item, index, out);
                    }
                }
                i += run;
            }
        }
        Value::Map(entries) => {
            out.push(TAG_MAP);
            put_varint(out, entries.len() as u64);
            for (k, val) in entries {
                put_varint(out, index[k.as_str()]);
                encode_node(val, index, out);
            }
        }
    }
}

/// Encodes a [`Value`] tree as the two payload sections (string table +
/// tree), each length-prefixed.
pub fn encode_value(v: &Value) -> Vec<u8> {
    let mut table = Vec::new();
    let mut index = std::collections::HashMap::new();
    collect_strings(v, &mut table, &mut index);

    let mut strings = Vec::new();
    put_varint(&mut strings, table.len() as u64);
    for s in &table {
        put_varint(&mut strings, s.len() as u64);
        strings.extend_from_slice(s.as_bytes());
    }
    let mut tree = Vec::new();
    encode_node(v, &index, &mut tree);

    let mut out = Vec::with_capacity(8 + strings.len() + tree.len());
    out.extend_from_slice(&(strings.len() as u32).to_le_bytes());
    out.extend_from_slice(&strings);
    out.extend_from_slice(&(tree.len() as u32).to_le_bytes());
    out.extend_from_slice(&tree);
    out
}

fn decode_node(r: &mut Reader<'_>, table: &[String], depth: usize) -> Result<Value, BinError> {
    if depth > 128 {
        return Err(BinError::Malformed("value nesting deeper than 128".into()));
    }
    let tag = *r.take(1)?.first().expect("take(1) returned one byte");
    match tag {
        TAG_NULL => Ok(Value::Null),
        TAG_FALSE => Ok(Value::Bool(false)),
        TAG_TRUE => Ok(Value::Bool(true)),
        TAG_INT => Ok(Value::I64(unzigzag(r.varint()?))),
        TAG_UINT => Ok(Value::U64(r.varint()?)),
        TAG_F64 => {
            let b = r.take(8)?;
            let mut bits = [0u8; 8];
            bits.copy_from_slice(b);
            Ok(Value::F64(f64::from_bits(u64::from_le_bytes(bits))))
        }
        TAG_F64I => Ok(Value::F64(unzigzag(r.varint()?) as f64)),
        TAG_STR => {
            let idx = r.varint()?;
            let s = usize::try_from(idx)
                .ok()
                .and_then(|i| table.get(i))
                .ok_or_else(|| BinError::Malformed(format!("string index {idx} out of range")))?;
            Ok(Value::Str(s.clone()))
        }
        TAG_SEQ => {
            // Repeat runs legitimately expand past the bytes remaining,
            // so sequence counts get an absolute cap instead of the
            // remaining-bytes plausibility check other counts use.
            let n = r.varint()?;
            let n = usize::try_from(n)
                .ok()
                .filter(|&n| n <= MAX_SEQ_LEN)
                .ok_or_else(|| {
                    BinError::Malformed(format!("sequence count {n} exceeds {MAX_SEQ_LEN}"))
                })?;
            let mut items = Vec::with_capacity(n.min(4096));
            while items.len() < n {
                if r.bytes.get(r.at) == Some(&TAG_REPEAT) {
                    r.at += 1;
                    let run = usize::try_from(r.varint()?)
                        .ok()
                        .filter(|&run| run >= 1 && run <= n - items.len())
                        .ok_or_else(|| {
                            BinError::Malformed("repeat run exceeds its sequence".into())
                        })?;
                    let item = decode_node(r, table, depth + 1)?;
                    if !is_scalar(&item) {
                        return Err(BinError::Malformed("repeat of a non-scalar value".into()));
                    }
                    items.extend(std::iter::repeat_n(item, run));
                } else {
                    items.push(decode_node(r, table, depth + 1)?);
                }
            }
            Ok(Value::Seq(items))
        }
        TAG_MAP => {
            let n = r.count()?;
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                let idx = r.varint()?;
                let key = usize::try_from(idx)
                    .ok()
                    .and_then(|i| table.get(i))
                    .ok_or_else(|| BinError::Malformed(format!("key index {idx} out of range")))?;
                entries.push((key.clone(), decode_node(r, table, depth + 1)?));
            }
            Ok(Value::Map(entries))
        }
        other => Err(BinError::Malformed(format!(
            "unknown value tag {other:#04x}"
        ))),
    }
}

fn section<'a>(r: &mut Reader<'a>) -> Result<Reader<'a>, BinError> {
    let len_bytes = r.take(4)?;
    let mut b = [0u8; 4];
    b.copy_from_slice(len_bytes);
    let len = u32::from_le_bytes(b) as usize;
    Ok(Reader::new(r.take(len)?))
}

/// Decodes payload sections back into a [`Value`] tree.
pub fn decode_value(payload: &[u8]) -> Result<Value, BinError> {
    let mut r = Reader::new(payload);

    let mut strings = section(&mut r)?;
    let n = strings.count()?;
    let mut table = Vec::with_capacity(n);
    for _ in 0..n {
        let len = strings.count()?;
        let bytes = strings.take(len)?;
        let s = std::str::from_utf8(bytes)
            .map_err(|_| BinError::Malformed("string table entry is not UTF-8".into()))?;
        table.push(s.to_string());
    }
    if strings.remaining() != 0 {
        return Err(BinError::Malformed("trailing bytes in string table".into()));
    }

    let mut tree = section(&mut r)?;
    if r.remaining() != 0 {
        return Err(BinError::Malformed("trailing bytes after sections".into()));
    }
    let value = decode_node(&mut tree, &table, 0)?;
    if tree.remaining() != 0 {
        return Err(BinError::Malformed(
            "trailing bytes after value tree".into(),
        ));
    }
    Ok(value)
}

// ----------------------------------------------------------------------
// High-level record API
// ----------------------------------------------------------------------

/// Serializes any `Serialize` type into a complete sealed record.
/// Infallible by construction: the shimmed serde data model always
/// lowers, and the codec encodes every [`Value`].
pub fn to_record<T: Serialize + ?Sized>(kind: RecordKind, schema: u32, value: &T) -> Vec<u8> {
    seal_payload(kind, schema, &encode_value(&value.to_value()))
}

/// Verifies a record of the expected kind and schema and returns the
/// decoded [`Value`] tree. Kind/schema mismatches are *stale*
/// ([`BinError::is_corrupt`] is false); everything else is corruption.
pub fn open_value(bytes: &[u8], kind: RecordKind, schema: u32) -> Result<Value, BinError> {
    let (header, payload) = open_payload(bytes)?;
    if header.kind != kind as u16 {
        return Err(BinError::WrongKind {
            want: kind as u16,
            got: header.kind,
        });
    }
    if header.schema != schema {
        return Err(BinError::StaleSchema {
            want: schema,
            got: header.schema,
        });
    }
    decode_value(payload)
}

/// Verifies a record and deserializes its payload as `T`.
pub fn from_record<T: Deserialize>(
    bytes: &[u8],
    kind: RecordKind,
    schema: u32,
) -> Result<T, BinError> {
    let value = open_value(bytes, kind, schema)?;
    T::from_value(&value).map_err(|e| BinError::Malformed(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Serialize;

    fn sample_value() -> Value {
        Value::Map(vec![
            ("name".into(), Value::Str("mib_sha".into())),
            ("cycles".into(), Value::I64(4800)),
            ("big".into(), Value::U64(u64::MAX)),
            ("neg".into(), Value::I64(-123_456)),
            ("ipc".into(), Value::F64(1.25)),
            ("nan".into(), Value::F64(f64::NAN)),
            ("flag".into(), Value::Bool(true)),
            ("empty".into(), Value::Null),
            (
                "cells".into(),
                Value::Seq(vec![
                    Value::Str("mib_sha".into()), // repeats: interned once
                    Value::Map(vec![("name".into(), Value::Str("x".into()))]),
                ]),
            ),
        ])
    }

    #[test]
    fn value_codec_round_trips_including_float_bits() {
        let v = sample_value();
        let payload = encode_value(&v);
        let back = decode_value(&payload).expect("decodes");
        // NaN != NaN, so compare via the serialized bit patterns.
        fn eq(a: &Value, b: &Value) -> bool {
            match (a, b) {
                (Value::F64(x), Value::F64(y)) => x.to_bits() == y.to_bits(),
                (Value::Seq(x), Value::Seq(y)) => {
                    x.len() == y.len() && x.iter().zip(y).all(|(a, b)| eq(a, b))
                }
                (Value::Map(x), Value::Map(y)) => {
                    x.len() == y.len()
                        && x.iter()
                            .zip(y)
                            .all(|((ka, va), (kb, vb))| ka == kb && eq(va, vb))
                }
                _ => a == b,
            }
        }
        assert!(eq(&v, &back));
    }

    #[test]
    fn repeated_strings_are_interned_once() {
        let many = Value::Seq(
            (0..100)
                .map(|_| Value::Map(vec![("field_name".into(), Value::I64(1))]))
                .collect(),
        );
        let payload = encode_value(&many);
        // 100 copies of "field_name" as JSON would be >1200 bytes; the
        // interned encoding stores the name once plus ~5 bytes per map
        // (tag, count, key index, value tag, value).
        assert!(payload.len() < 560, "payload was {} bytes", payload.len());
        assert_eq!(decode_value(&payload).unwrap(), many);
    }

    #[test]
    fn integral_floats_and_scalar_runs_compress_bit_exactly() {
        // Mixed integral/fractional/special floats plus long runs,
        // shaped like a slack profile's field columns.
        let mut items: Vec<Value> = vec![
            Value::F64(0.0),
            Value::F64(-0.0),
            Value::F64(1.0),
            Value::F64(-3.0),
            Value::F64(0.10833333333333334),
            Value::F64(f64::NAN),
            Value::F64(f64::INFINITY),
            Value::F64(9_007_199_254_740_992.0),
        ];
        items.extend(std::iter::repeat_n(Value::U64(449), 200));
        items.extend(std::iter::repeat_n(Value::F64(0.0), 200));
        items.extend(std::iter::repeat_n(Value::Str("x".into()), 50));
        let v = Value::Seq(items.clone());
        let payload = encode_value(&v);
        // 450 run elements collapse to three repeat markers.
        assert!(payload.len() < 120, "payload was {} bytes", payload.len());
        let Value::Seq(back) = decode_value(&payload).expect("decodes") else {
            panic!("not a seq");
        };
        assert_eq!(back.len(), items.len());
        for (a, b) in items.iter().zip(&back) {
            match (a, b) {
                (Value::F64(x), Value::F64(y)) => {
                    assert_eq!(x.to_bits(), y.to_bits(), "float bits replay exactly")
                }
                _ => assert_eq!(a, b),
            }
        }
    }

    #[test]
    fn repeat_runs_cannot_overrun_their_sequence() {
        // A hand-built tree section claiming a seq of 2 elements with a
        // repeat run of 200 must fail cleanly, not produce 200 items.
        let mut payload = Vec::new();
        payload.extend_from_slice(&1u32.to_le_bytes()); // string section
        payload.push(0); // zero strings
        let mut tree = vec![TAG_SEQ, 2, TAG_REPEAT, 200, TAG_INT, 0];
        payload.extend_from_slice(&(tree.len() as u32).to_le_bytes());
        payload.append(&mut tree);
        let err = decode_value(&payload).unwrap_err();
        assert!(matches!(err, BinError::Malformed(_)), "{err}");
    }

    #[test]
    fn sealed_records_round_trip_with_header_fields() {
        let rec = to_record(RecordKind::JournalRow, 7, &sample_value());
        let header = peek_header(&rec).unwrap();
        assert_eq!(header.container_version, CONTAINER_VERSION);
        assert_eq!(header.kind, RecordKind::JournalRow as u16);
        assert_eq!(header.schema, 7);
        assert_eq!(
            header.payload_len as usize,
            rec.len() - HEADER_LEN - TRAILER_LEN
        );
        let v: Value = from_record(&rec, RecordKind::JournalRow, 7).unwrap();
        assert_eq!(v.field("cycles").unwrap(), &Value::I64(4800));
    }

    #[test]
    fn kind_and_schema_mismatches_are_stale_not_corrupt() {
        let rec = to_record(RecordKind::CacheEntry, 2, &42u32);
        let wrong_kind = open_value(&rec, RecordKind::JournalRow, 2).unwrap_err();
        assert!(matches!(wrong_kind, BinError::WrongKind { .. }));
        assert!(!wrong_kind.is_corrupt());
        let wrong_schema = open_value(&rec, RecordKind::CacheEntry, 3).unwrap_err();
        assert!(matches!(wrong_schema, BinError::StaleSchema { .. }));
        assert!(!wrong_schema.is_corrupt());
        assert!(open_value(&rec, RecordKind::CacheEntry, 2).is_ok());
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let rec = to_record(RecordKind::JournalRow, 1, &sample_value());
        let original: Value = from_record(&rec, RecordKind::JournalRow, 1).unwrap();
        for byte in 0..rec.len() {
            for bit in 0..8 {
                let mut flipped = rec.clone();
                flipped[byte] ^= 1 << bit;
                match from_record::<Value>(&flipped, RecordKind::JournalRow, 1) {
                    Err(_) => {}
                    Ok(v) => panic!(
                        "flip at byte {byte} bit {bit} opened as {v:?} (original {original:?})"
                    ),
                }
            }
        }
    }

    #[test]
    fn truncation_at_every_length_is_detected() {
        let rec = to_record(RecordKind::CacheEntry, 1, &sample_value());
        for len in 0..rec.len() {
            let err = open_payload(&rec[..len]).expect_err("truncated record must not open");
            assert!(err.is_corrupt(), "length {len}: {err}");
        }
        // Trailing garbage is also rejected.
        let mut long = rec.clone();
        long.push(0);
        assert!(open_payload(&long).is_err());
    }

    #[test]
    fn adversarial_payloads_never_panic() {
        // Fuzz-ish: hand-crafted payloads with lying counts, bad
        // indices, bad UTF-8, and deep nesting, each sealed with a
        // *valid* checksum so decoding is actually reached.
        let evil_payloads: Vec<Vec<u8>> = vec![
            vec![],                       // no sections
            vec![0xff, 0xff, 0xff, 0xff], // section length past the end
            {
                // empty string table, tree = seq claiming u64::MAX items
                let mut p = vec![1, 0, 0, 0, 0]; // table: count 0
                let tree = {
                    let mut t = vec![TAG_SEQ];
                    put_varint(&mut t, u64::MAX);
                    t
                };
                p.extend_from_slice(&(tree.len() as u32).to_le_bytes());
                p.extend_from_slice(&tree);
                p
            },
            {
                // tree references string index 5 of an empty table
                let mut p = vec![1, 0, 0, 0, 0];
                let tree = vec![TAG_STR, 5];
                p.extend_from_slice(&(tree.len() as u32).to_le_bytes());
                p.extend_from_slice(&tree);
                p
            },
            {
                // string table entry with invalid UTF-8
                let mut table = Vec::new();
                put_varint(&mut table, 1);
                put_varint(&mut table, 2);
                table.extend_from_slice(&[0xc3, 0x28]);
                let mut p = (table.len() as u32).to_le_bytes().to_vec();
                p.extend_from_slice(&table);
                p.extend_from_slice(&1u32.to_le_bytes());
                p.push(TAG_NULL);
                p
            },
            {
                // nesting bomb: 200 nested single-element seqs
                let mut p = vec![1, 0, 0, 0, 0];
                let mut tree = Vec::new();
                for _ in 0..200 {
                    tree.push(TAG_SEQ);
                    tree.push(1);
                }
                tree.push(TAG_NULL);
                p.extend_from_slice(&(tree.len() as u32).to_le_bytes());
                p.extend_from_slice(&tree);
                p
            },
        ];
        for payload in evil_payloads {
            let rec = seal_payload(RecordKind::JournalRow, 1, &payload);
            let err = open_value(&rec, RecordKind::JournalRow, 1)
                .expect_err("adversarial payload must not decode");
            assert!(matches!(err, BinError::Malformed(_)), "{err}");
        }
    }

    #[test]
    fn derived_structs_round_trip_through_records() {
        #[derive(Serialize, serde::Deserialize, Debug, PartialEq)]
        struct Demo {
            bench: String,
            freqs: Vec<u64>,
            ipc: f64,
            tag: Option<String>,
        }
        let demo = Demo {
            bench: "mib_crc32".into(),
            freqs: vec![0, 1, 127, 128, 300_000],
            ipc: 1.8617,
            tag: None,
        };
        let rec = to_record(RecordKind::JournalRow, 9, &demo);
        let back: Demo = from_record(&rec, RecordKind::JournalRow, 9).unwrap();
        assert_eq!(back, demo);
        assert_eq!(back.ipc.to_bits(), demo.ipc.to_bits());
    }

    #[test]
    fn binary_records_undercut_their_json_equivalents() {
        // The motivating case: many records sharing field names.
        #[derive(Serialize)]
        struct Row {
            seq: u64,
            pc: u64,
            fetch: u64,
            dispatch: Option<u64>,
            issue: Option<u64>,
            commit: Option<u64>,
        }
        let rows: Vec<Row> = (0..500)
            .map(|i| Row {
                seq: i,
                pc: 0x4000 + 4 * i,
                fetch: 10 * i,
                dispatch: Some(10 * i + 3),
                issue: Some(10 * i + 5),
                commit: (i % 7 != 0).then_some(10 * i + 9),
            })
            .collect();
        // Compare against the JSON as it was actually persisted by the
        // JSON-era artifact writers (`save_json` pretty-prints).
        let json = serde_json::to_string_pretty(&rows).unwrap();
        let rec = to_record(RecordKind::JournalRow, 1, &rows);
        assert!(
            rec.len() * 3 <= json.len(),
            "binary {} bytes vs JSON {} bytes",
            rec.len(),
            json.len()
        );
        // Even against compact JSON the binary form wins handily.
        let compact = serde_json::to_string(&rows).unwrap();
        assert!(rec.len() * 2 <= compact.len());
    }
}
