//! Binary and JSONL codecs for [`Trace`], streaming and in-memory.
//!
//! Two encodings of the same model, both self-describing and versioned:
//!
//! - **Binary** (`.trace`): an 8-byte magic, a little-endian header, a
//!   canonical-JSON metadata blob, then the records in **length-prefixed
//!   chunks** — each chunk carries its record count, a
//!   CRC-32 over its *decoded* payload, and a [`ChunkEncoding`] tag
//!   ([`ChunkEncoding::Delta`] chunks store a column-split
//!   delta/zigzag/varint compression of the records); a footer chunk
//!   index closes the file. Encoding is canonical, so decode → re-encode
//!   reproduces the input byte for byte. [`TRACE_VERSION`] is the only
//!   layout: any other version in a header is
//!   [`TraceError::UnsupportedVersion`].
//! - **JSONL** (`.jsonl`): the first line is the metadata object, each
//!   following line one record. This is the greppable/diffable export;
//!   it is exact for values below 2⁵³ (encoding larger timestamps or
//!   LBAs is rejected rather than silently rounded, and decoding a value
//!   that is not an integer in its field's range is an error).
//!
//! Both encodings stream, each through a writer and a reader:
//! [`TraceWriter`] / [`TraceReader`] for binary (a writer never buffers
//! more than one chunk, a reader decodes one chunk at a time), and
//! [`JsonlWriter`] / [`JsonlReader`] for JSONL (one line at a time).
//! The readers are [`RecordSource`]s and the writers [`RecordSink`]s, so
//! the replay engine and every tool that moves records reads or writes
//! either format through one interface. The in-memory [`to_binary`] /
//! [`from_binary`] pair are thin adapters over the binary pair for small
//! traces and tests.
//!
//! Layout of one binary record (offsets in bytes):
//!
//! | 0..8 | 8..16 | 16..20 | 20..24 | 24..26 | 26 | 27 |
//! |---|---|---|---|---|---|---|
//! | `at_ns` u64 | `lba` u64 | `sectors` u32 | `stream` u32 | `dev` u16 | `op` u8 | reserved (0) |
//!
//! Layout of a chunk frame (all little-endian):
//!
//! | 0..4 | 4..8 | 8..12 | 12 | 13.. |
//! |---|---|---|---|---|
//! | `records` u32 | `payload_len` u32 | `crc32` u32 | `encoding` u8 | payload |
//!
//! A data chunk has `records ≥ 1`; a raw chunk has `payload_len =
//! records × 28`, a delta chunk any `payload_len ≤ records × 34`. The
//! `crc32` always covers the **decoded** record payload, so a raw and a
//! delta chunk of the same records carry the same checksum and a
//! corrupted compressed payload is caught either by the delta decoder
//! or by the CRC. The file ends with one **footer** frame with
//! `records = 0` (always raw) whose payload is the chunk index:
//! `total_records` u64, `chunk_count` u32, then one
//! `(file_offset u64, records u32)` pair per data chunk.

use std::fmt;
use std::io::{self, BufRead, Read, Write};

use trail_sim::SimTime;
use trail_telemetry::{JsonValue, StreamId};

use crate::format::{ChunkEncoding, Trace, TraceMeta, TraceOp, TraceRecord, TRACE_VERSION};

/// The binary magic: `b"TRAILTRC"`.
pub const TRACE_MAGIC: [u8; 8] = *b"TRAILTRC";

/// Size of one binary record in bytes.
pub const RECORD_BYTES: usize = 28;

/// Records per chunk when [`TraceMeta::chunk_records`] is 0.
pub const DEFAULT_CHUNK_RECORDS: u32 = 4096;

/// Hard ceiling on records per chunk (bounds a reader's allocation no
/// matter what the frame header claims).
pub const MAX_CHUNK_RECORDS: u32 = 1 << 20;

/// Size of a chunk frame header (`records`, `payload_len`, `crc32`,
/// `encoding`).
const CHUNK_HEADER_BYTES: usize = 13;

/// Ceiling on the header's metadata blob (bounds a reader's allocation
/// no matter what the length field claims; real blobs are ~150 bytes).
const MAX_META_BYTES: usize = 1 << 20;

/// Worst-case delta-encoded size of one record: two 10-byte varints
/// (`at`, `lba`), two 5-byte varints (`sectors`, `stream`), one 3-byte
/// varint (`dev`), one raw op byte. Bounds a reader's allocation for a
/// delta chunk no matter what the frame header claims.
const MAX_DELTA_RECORD_BYTES: usize = 34;

/// Largest integer JSONL can carry exactly (2⁵³).
const JSON_EXACT_MAX: u64 = 1 << 53;

/// Why a trace failed to decode (or encode to JSONL).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TraceError {
    /// The input does not start with [`TRACE_MAGIC`].
    BadMagic,
    /// The input's version is not [`TRACE_VERSION`].
    UnsupportedVersion(u16),
    /// The input ended before the declared content did.
    Truncated(String),
    /// The metadata header is malformed.
    BadMeta(String),
    /// A record is malformed.
    BadRecord {
        /// Zero-based record index.
        index: usize,
        /// What was wrong with it.
        reason: String,
    },
    /// A chunk is malformed: truncated payload, CRC mismatch,
    /// an unknown encoding, a malformed delta payload, or an impossible
    /// frame header.
    BadChunk {
        /// Zero-based chunk index (the footer counts as the chunk after
        /// the last data chunk).
        chunk: usize,
        /// What was wrong with it.
        reason: String,
    },
    /// The underlying reader or writer failed.
    Io(String),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::BadMagic => write!(f, "not a trail trace (bad magic)"),
            TraceError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "trace version {v} unsupported (this build reads {TRACE_VERSION})"
                )
            }
            TraceError::Truncated(what) => write!(f, "truncated trace: {what}"),
            TraceError::BadMeta(why) => write!(f, "bad trace metadata: {why}"),
            TraceError::BadRecord { index, reason } => {
                write!(f, "bad trace record {index}: {reason}")
            }
            TraceError::BadChunk { chunk, reason } => {
                write!(f, "bad trace chunk {chunk}: {reason}")
            }
            TraceError::Io(why) => write!(f, "trace io error: {why}"),
        }
    }
}

impl std::error::Error for TraceError {}

/// Maps an I/O failure while reading `what`: a clean EOF mid-item is a
/// truncation, anything else is an I/O error.
fn read_err(what: &str, e: &io::Error) -> TraceError {
    if e.kind() == io::ErrorKind::UnexpectedEof {
        TraceError::Truncated(what.to_string())
    } else {
        TraceError::Io(format!("reading {what}: {e}"))
    }
}

/// Maps an I/O failure while writing a trace.
fn write_err(e: io::Error) -> TraceError {
    TraceError::Io(format!("writing trace: {e}"))
}

// ------------------------------------------------------ source and sink

/// Records in file order, whatever the encoding: a binary
/// [`TraceReader`] or a [`JsonlReader`]. The replay engine
/// ([`crate::replay_stream`], [`crate::replay_stream_sharded`]) and every
/// tool that reads a trace take one of these.
pub trait RecordSource {
    /// The trace's metadata, known before the first record.
    fn meta(&self) -> &TraceMeta;

    /// The next record; `None` at a clean end of trace. After an error
    /// the source is fused (returns `None` from then on).
    fn next_record(&mut self) -> Option<Result<TraceRecord, TraceError>>;
}

impl<S: RecordSource + ?Sized> RecordSource for Box<S> {
    fn meta(&self) -> &TraceMeta {
        (**self).meta()
    }

    fn next_record(&mut self) -> Option<Result<TraceRecord, TraceError>> {
        (**self).next_record()
    }
}

/// Where records go, whatever the encoding: a binary [`TraceWriter`] or
/// a [`JsonlWriter`]. Both take the trace's metadata when they are
/// created, so a producer that streams (generation, import, conversion)
/// writes to either without knowing which.
pub trait RecordSink {
    /// Appends one record.
    ///
    /// # Errors
    ///
    /// A failed write, or a record the encoding cannot hold exactly.
    fn write_record(&mut self, r: &TraceRecord) -> Result<(), TraceError>;

    /// Writes whatever closes the trace and flushes it. A sink dropped
    /// without this leaves a trace its reader rejects as truncated.
    ///
    /// # Errors
    ///
    /// A failed write.
    fn finish(self: Box<Self>) -> Result<(), TraceError>;
}

// ----------------------------------------------------------------- crc

/// IEEE CRC-32 (reflected, polynomial `0xEDB88320`), slicing-by-8. Kept
/// local: the workspace vendors no checksum crate. `CRC32_TABLES[0]` is
/// the classic one-byte table; `CRC32_TABLES[k][b]` is the CRC of byte
/// `b` followed by `k` zero bytes, which lets eight input bytes be folded
/// with eight independent lookups instead of a chain of eight.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
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
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
};

/// The CRC-32 each chunk frame carries over its payload.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------- meta

/// The canonical metadata object both codecs embed. `seed` is carried as
/// a decimal string so 64-bit seeds survive the f64 JSON number space.
/// No record count: both writers stream, so neither knows the total when
/// it writes the header (the binary footer index carries it instead).
fn meta_json(meta: &TraceMeta) -> JsonValue {
    JsonValue::obj(vec![
        ("format", JsonValue::str("trail-trace")),
        ("version", JsonValue::Num(f64::from(TRACE_VERSION))),
        ("source", JsonValue::str(meta.source.clone())),
        ("seed", JsonValue::str(meta.seed.to_string())),
        ("devices", JsonValue::Num(f64::from(meta.devices))),
        ("note", JsonValue::str(meta.note.clone())),
        (
            "chunk_records",
            JsonValue::Num(f64::from(meta.chunk_records)),
        ),
        ("encoding", JsonValue::str(meta.encoding.name())),
    ])
}

/// The integer field `key` of `v` (`None` when absent), or why it is not
/// one in `0..=max`. JSON numbers are `f64`, so a fractional, negative or
/// out-of-range value is refused, never coerced.
fn int_field(v: &JsonValue, key: &str, max: u64) -> Result<Option<u64>, String> {
    let Some(n) = v.get(key) else {
        return Ok(None);
    };
    match n.as_f64() {
        Some(x) if x >= 0.0 && x.fract() == 0.0 && x <= max as f64 => Ok(Some(x as u64)),
        _ => Err(format!(
            "{key} {} is not an integer in 0..={max}",
            n.to_json()
        )),
    }
}

/// The metadata plus the record count a JSONL header may declare (older
/// producers wrote one; the writers here never do).
fn parse_meta(v: &JsonValue) -> Result<(TraceMeta, Option<u64>), TraceError> {
    let bad = |why: &str| TraceError::BadMeta(why.to_string());
    let int = |key: &str, max: u64| int_field(v, key, max).map_err(|why| bad(&why));
    let format = v
        .get("format")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| bad("missing format"))?;
    if format != "trail-trace" {
        return Err(bad(&format!("format is {format:?}, not \"trail-trace\"")));
    }
    let version = int("version", u16::MAX.into())?.ok_or_else(|| bad("missing version"))? as u16;
    if version != TRACE_VERSION {
        return Err(TraceError::UnsupportedVersion(version));
    }
    let seed = match v.get("seed") {
        Some(JsonValue::Str(s)) => s
            .parse::<u64>()
            .map_err(|_| bad(&format!("seed {s:?} is not a u64")))?,
        _ => int("seed", JSON_EXACT_MAX - 1)?.unwrap_or(0),
    };
    let devices = int("devices", u16::MAX.into())?.unwrap_or(0) as u16;
    let chunk_records = int("chunk_records", u32::MAX.into())?.unwrap_or(0) as u32;
    let encoding = match v.get("encoding") {
        None => ChunkEncoding::Raw,
        Some(JsonValue::Str(s)) => {
            ChunkEncoding::from_name(s).ok_or_else(|| bad(&format!("unknown encoding {s:?}")))?
        }
        Some(_) => return Err(bad("encoding is not a string")),
    };
    let records = int("records", JSON_EXACT_MAX - 1)?;
    Ok((
        TraceMeta {
            source: v
                .get("source")
                .and_then(JsonValue::as_str)
                .unwrap_or("")
                .to_string(),
            seed,
            devices,
            note: v
                .get("note")
                .and_then(JsonValue::as_str)
                .unwrap_or("")
                .to_string(),
            chunk_records,
            encoding,
        },
        records,
    ))
}

// ------------------------------------------------------------- records

fn encode_record(out: &mut Vec<u8>, r: &TraceRecord) {
    out.extend_from_slice(&r.at.as_nanos().to_le_bytes());
    out.extend_from_slice(&r.lba.to_le_bytes());
    out.extend_from_slice(&r.sectors.to_le_bytes());
    out.extend_from_slice(&r.stream.0.to_le_bytes());
    out.extend_from_slice(&r.dev.to_le_bytes());
    out.push(r.op.code());
    out.push(0); // reserved
}

/// Decodes one 28-byte record; `index` is the zero-based position in
/// the whole trace (for error messages).
fn decode_record(bytes: &[u8], index: u64) -> Result<TraceRecord, TraceError> {
    debug_assert_eq!(bytes.len(), RECORD_BYTES);
    let u64_at = |o: usize| u64::from_le_bytes(bytes[o..o + 8].try_into().expect("8 bytes"));
    let u32_at = |o: usize| u32::from_le_bytes(bytes[o..o + 4].try_into().expect("4 bytes"));
    let op_code = bytes[26];
    let op = TraceOp::from_code(op_code).ok_or_else(|| TraceError::BadRecord {
        index: index as usize,
        reason: format!("unknown op code {op_code}"),
    })?;
    Ok(TraceRecord {
        at: SimTime::from_nanos(u64_at(0)),
        op,
        dev: u16::from_le_bytes(bytes[24..26].try_into().expect("2 bytes")),
        lba: u64_at(8),
        sectors: u32_at(16),
        stream: StreamId(u32_at(20)),
    })
}

// --------------------------------------------------------- delta chunks
//
// The domain codec behind `ChunkEncoding::Delta`. A chunk's records are
// split into columns in field order (`at`, `lba`, `sectors`, `stream`,
// `dev`, then the raw op bytes); each numeric column stores the
// difference from the previous value in the same column (the first
// value differs from 0), zigzag-mapped and LEB128-varint-coded. Arrival
// times are monotone and LBAs near-monotone per stream, so the deltas
// collapse: the synthetic Poisson traces land near 11 bytes/record
// against 28 raw. The reserved byte is not stored — it is 0 by
// construction — and the op byte rides raw (it is a 0/1 enum).

/// The numeric columns as `(byte offset, width)` pairs, in storage
/// order. The op byte (offset 26) follows as a raw column; the reserved
/// byte (offset 27) is implicit.
const DELTA_COLUMNS: [(usize, usize); 5] = [(0, 8), (8, 8), (16, 4), (20, 4), (24, 2)];

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            break;
        }
        out.push(b | 0x80);
    }
}

fn get_varint(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *bytes.get(*pos)?;
        *pos += 1;
        v |= u64::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
        if shift >= 64 {
            return None;
        }
    }
}

/// Delta-encodes one chunk's raw record payload (`raw.len()` a multiple
/// of [`RECORD_BYTES`]).
fn encode_delta_chunk(raw: &[u8]) -> Vec<u8> {
    let n = raw.len() / RECORD_BYTES;
    let mut out = Vec::with_capacity(raw.len() / 2);
    for (off, width) in DELTA_COLUMNS {
        let mut prev = 0u64;
        for i in 0..n {
            let base = i * RECORD_BYTES + off;
            let mut v = 0u64;
            for k in 0..width {
                v |= u64::from(raw[base + k]) << (8 * k);
            }
            // Wrapping subtraction in u64 then a cast is the exact
            // signed difference for any pair of column values.
            let d = v.wrapping_sub(prev) as i64;
            put_varint(&mut out, ((d << 1) ^ (d >> 63)) as u64);
            prev = v;
        }
    }
    for i in 0..n {
        out.push(raw[i * RECORD_BYTES + 26]);
    }
    out
}

/// Reconstructs a chunk's raw record payload from its delta encoding
/// into `raw`. Returns `false` on any malformation: a truncated or
/// over-long varint, a column value outside its field's range, or
/// trailing bytes after the last column.
fn decode_delta_chunk(encoded: &[u8], records: usize, raw: &mut Vec<u8>) -> bool {
    raw.clear();
    raw.resize(records * RECORD_BYTES, 0);
    let mut pos = 0usize;
    for (off, width) in DELTA_COLUMNS {
        let mut prev = 0u64;
        let max = if width == 8 {
            u64::MAX
        } else {
            (1u64 << (8 * width)) - 1
        };
        for i in 0..records {
            let Some(z) = get_varint(encoded, &mut pos) else {
                return false;
            };
            let d = ((z >> 1) as i64) ^ -((z & 1) as i64);
            let v = prev.wrapping_add(d as u64);
            if v > max {
                return false;
            }
            let base = i * RECORD_BYTES + off;
            raw[base..base + width].copy_from_slice(&v.to_le_bytes()[..width]);
            prev = v;
        }
    }
    for i in 0..records {
        let Some(&b) = encoded.get(pos) else {
            return false;
        };
        pos += 1;
        raw[i * RECORD_BYTES + 26] = b;
    }
    pos == encoded.len()
}

// -------------------------------------------------------------- writer

/// Streaming chunked encoder: accepts records one at a time over any
/// [`io::Write`], buffering at most one chunk
/// ([`TraceMeta::chunk_records`] records, [`DEFAULT_CHUNK_RECORDS`]
/// when 0). The header is written on construction; [`finish`] flushes
/// the trailing partial chunk and the footer index. Dropping a writer
/// without calling [`finish`] leaves the output without a footer — a
/// reader will reject it as truncated rather than silently shorten the
/// trace.
///
/// [`finish`]: TraceWriter::finish
pub struct TraceWriter<W: Write> {
    w: W,
    chunk_records: u32,
    encoding: ChunkEncoding,
    buf: Vec<u8>,
    buf_records: u32,
    scratch: Vec<u8>,
    offset: u64,
    index: Vec<(u64, u32)>,
    total: u64,
}

impl<W: Write> TraceWriter<W> {
    /// Writes the header (magic, version, flags, metadata) and
    /// returns a writer ready for records. Every flushed chunk is
    /// encoded per [`TraceMeta::encoding`].
    ///
    /// # Errors
    ///
    /// Any I/O error from the underlying writer.
    pub fn new(mut w: W, meta: &TraceMeta) -> io::Result<TraceWriter<W>> {
        let chunk_records = if meta.chunk_records == 0 {
            DEFAULT_CHUNK_RECORDS
        } else {
            meta.chunk_records.min(MAX_CHUNK_RECORDS)
        };
        let meta_text = meta_json(meta).to_json();
        let meta_bytes = meta_text.as_bytes();
        w.write_all(&TRACE_MAGIC)?;
        w.write_all(&TRACE_VERSION.to_le_bytes())?;
        w.write_all(&0u16.to_le_bytes())?; // flags, reserved
        w.write_all(&(meta_bytes.len() as u32).to_le_bytes())?;
        w.write_all(meta_bytes)?;
        Ok(TraceWriter {
            w,
            chunk_records,
            encoding: meta.encoding,
            buf: Vec::with_capacity(chunk_records as usize * RECORD_BYTES),
            buf_records: 0,
            scratch: Vec::new(),
            offset: 16 + meta_bytes.len() as u64,
            index: Vec::new(),
            total: 0,
        })
    }

    /// Switches the encoding applied to subsequently flushed chunks,
    /// flushing the current partial chunk first.
    ///
    /// The encoding tag travels in every chunk header, so files mixing
    /// Raw and Delta chunks are legal to *read*; the canonical writers
    /// keep one encoding per file (this is an interop/testing knob, and
    /// using it forfeits decode→re-encode byte identity).
    ///
    /// # Errors
    ///
    /// Any I/O error from flushing the partial chunk.
    pub fn set_encoding(&mut self, encoding: ChunkEncoding) -> io::Result<()> {
        self.flush_chunk()?;
        self.encoding = encoding;
        Ok(())
    }

    /// Appends one record, flushing a full chunk to the writer.
    ///
    /// # Errors
    ///
    /// Any I/O error from the underlying writer.
    pub fn write_record(&mut self, r: &TraceRecord) -> io::Result<()> {
        encode_record(&mut self.buf, r);
        self.buf_records += 1;
        if self.buf_records >= self.chunk_records {
            self.flush_chunk()?;
        }
        Ok(())
    }

    fn flush_chunk(&mut self) -> io::Result<()> {
        if self.buf_records == 0 {
            return Ok(());
        }
        let payload: &[u8] = match self.encoding {
            ChunkEncoding::Raw => &self.buf,
            ChunkEncoding::Delta => {
                self.scratch = encode_delta_chunk(&self.buf);
                &self.scratch
            }
        };
        self.w.write_all(&self.buf_records.to_le_bytes())?;
        self.w.write_all(&(payload.len() as u32).to_le_bytes())?;
        // The CRC covers the decoded record payload, whatever the chunk
        // encoding — see the module docs.
        self.w.write_all(&crc32(&self.buf).to_le_bytes())?;
        self.w.write_all(&[self.encoding.code()])?;
        self.w.write_all(payload)?;
        self.index.push((self.offset, self.buf_records));
        self.offset += (CHUNK_HEADER_BYTES + payload.len()) as u64;
        self.total += u64::from(self.buf_records);
        self.buf.clear();
        self.buf_records = 0;
        Ok(())
    }

    /// Flushes the trailing partial chunk and the footer chunk index,
    /// returning the inner writer (flushed).
    ///
    /// # Errors
    ///
    /// Any I/O error from the underlying writer.
    pub fn finish(mut self) -> io::Result<W> {
        self.flush_chunk()?;
        let mut footer = Vec::with_capacity(12 + self.index.len() * 12);
        footer.extend_from_slice(&self.total.to_le_bytes());
        footer.extend_from_slice(&(self.index.len() as u32).to_le_bytes());
        for (offset, records) in &self.index {
            footer.extend_from_slice(&offset.to_le_bytes());
            footer.extend_from_slice(&records.to_le_bytes());
        }
        self.w.write_all(&0u32.to_le_bytes())?; // records = 0: footer
        self.w.write_all(&(footer.len() as u32).to_le_bytes())?;
        self.w.write_all(&crc32(&footer).to_le_bytes())?;
        self.w.write_all(&[ChunkEncoding::Raw.code()])?; // footers are raw
        self.w.write_all(&footer)?;
        self.w.flush()?;
        Ok(self.w)
    }
}

impl<W: Write> RecordSink for TraceWriter<W> {
    fn write_record(&mut self, r: &TraceRecord) -> Result<(), TraceError> {
        TraceWriter::write_record(self, r).map_err(write_err)
    }

    fn finish(self: Box<Self>) -> Result<(), TraceError> {
        TraceWriter::finish(*self).map(drop).map_err(write_err)
    }
}

// -------------------------------------------------------------- reader

/// Streaming chunked decoder over any [`io::Read`]: the header and
/// metadata are parsed on construction, records are decoded one chunk
/// at a time as [`RecordSource::next_record`] / [`records`] demand them,
/// and the footer index is verified against the records actually read,
/// so memory stays bounded by one chunk.
///
/// [`records`]: TraceReader::records
pub struct TraceReader<R: Read> {
    r: R,
    meta: TraceMeta,
    chunk: Vec<u8>,
    scratch: Vec<u8>,
    pos: usize,
    chunks_read: u64,
    records_read: u64,
    done: bool,
}

impl<R: Read> TraceReader<R> {
    /// Reads and validates the header and metadata.
    ///
    /// # Errors
    ///
    /// [`TraceError::BadMagic`], [`TraceError::UnsupportedVersion`],
    /// [`TraceError::BadMeta`], or truncation/IO while reading them.
    pub fn new(mut r: R) -> Result<TraceReader<R>, TraceError> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)
            .map_err(|e| read_err("magic", &e))?;
        if magic != TRACE_MAGIC {
            return Err(TraceError::BadMagic);
        }
        let mut halves = [0u8; 4];
        r.read_exact(&mut halves)
            .map_err(|e| read_err("version", &e))?;
        let version = u16::from_le_bytes(halves[0..2].try_into().expect("2 bytes"));
        if version != TRACE_VERSION {
            return Err(TraceError::UnsupportedVersion(version));
        }
        let mut len = [0u8; 4];
        r.read_exact(&mut len)
            .map_err(|e| read_err("meta length", &e))?;
        let meta_len = u32::from_le_bytes(len) as usize;
        if meta_len > MAX_META_BYTES {
            return Err(TraceError::BadMeta(format!(
                "metadata blob claims {meta_len} bytes (max {MAX_META_BYTES})"
            )));
        }
        let mut meta_bytes = vec![0u8; meta_len];
        r.read_exact(&mut meta_bytes)
            .map_err(|e| read_err("metadata blob", &e))?;
        let meta_text = std::str::from_utf8(&meta_bytes)
            .map_err(|_| TraceError::BadMeta("metadata is not UTF-8".to_string()))?;
        let meta_value =
            JsonValue::parse(meta_text).map_err(|e| TraceError::BadMeta(e.to_string()))?;
        let (meta, _) = parse_meta(&meta_value)?;
        Ok(TraceReader {
            r,
            meta,
            chunk: Vec::new(),
            scratch: Vec::new(),
            pos: 0,
            chunks_read: 0,
            records_read: 0,
            done: false,
        })
    }

    /// The trace's metadata.
    #[must_use]
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// Records decoded so far.
    #[must_use]
    pub fn records_read(&self) -> u64 {
        self.records_read
    }

    /// Upper bound on the records this reader holds decoded at once —
    /// the chunk it is currently walking.
    #[must_use]
    pub fn buffered_records(&self) -> u32 {
        (self.chunk.len() / RECORD_BYTES) as u32
    }

    /// Loads the next chunk into `self.chunk`, or marks the stream done
    /// at a clean footer.
    fn refill(&mut self) -> Result<(), TraceError> {
        let chunk = self.chunks_read as usize;
        let mut header = [0u8; CHUNK_HEADER_BYTES];
        self.r
            .read_exact(&mut header)
            .map_err(|e| read_err("chunk header (unfinished trace is missing its footer)", &e))?;
        let records = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
        let payload_len = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes")) as usize;
        let stored_crc = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
        let bad = |reason: String| TraceError::BadChunk { chunk, reason };
        let encoding = ChunkEncoding::from_code(header[12])
            .ok_or_else(|| bad(format!("unknown chunk encoding {}", header[12])))?;
        if records == 0 {
            // Footer: verify the index against what was actually read.
            if encoding != ChunkEncoding::Raw {
                return Err(bad("footer frame is not raw".to_string()));
            }
            // The index holds one 12-byte entry per data chunk read, so
            // its length is known before it is trusted for an allocation.
            if payload_len as u64 != 12 + 12 * self.chunks_read {
                return Err(bad(format!(
                    "footer length {payload_len} does not index the {} chunks read",
                    self.chunks_read
                )));
            }
            let mut footer = vec![0u8; payload_len];
            self.r
                .read_exact(&mut footer)
                .map_err(|e| read_err("chunk index", &e))?;
            let computed = crc32(&footer);
            if computed != stored_crc {
                return Err(bad(format!(
                    "footer crc mismatch: stored {stored_crc:#010x}, computed {computed:#010x}"
                )));
            }
            let total = u64::from_le_bytes(footer[0..8].try_into().expect("8 bytes"));
            let count = u32::from_le_bytes(footer[8..12].try_into().expect("4 bytes"));
            if u64::from(count) != self.chunks_read || total != self.records_read {
                return Err(bad(format!(
                    "footer declares {count} chunks / {total} records, read {} / {}",
                    self.chunks_read, self.records_read
                )));
            }
            self.done = true;
            return Ok(());
        }
        if records > MAX_CHUNK_RECORDS {
            return Err(bad(format!(
                "chunk claims {records} records (max {MAX_CHUNK_RECORDS})"
            )));
        }
        match encoding {
            ChunkEncoding::Raw => {
                if payload_len != records as usize * RECORD_BYTES {
                    return Err(bad(format!(
                        "payload length {payload_len} does not match {records} records"
                    )));
                }
            }
            ChunkEncoding::Delta => {
                if payload_len == 0 || payload_len > records as usize * MAX_DELTA_RECORD_BYTES {
                    return Err(bad(format!(
                        "impossible delta payload length {payload_len} for {records} records"
                    )));
                }
            }
        }
        let into = match encoding {
            ChunkEncoding::Raw => &mut self.chunk,
            ChunkEncoding::Delta => &mut self.scratch,
        };
        into.resize(payload_len, 0);
        if let Err(e) = self.r.read_exact(into) {
            return Err(if e.kind() == io::ErrorKind::UnexpectedEof {
                bad("truncated mid-chunk".to_string())
            } else {
                TraceError::Io(format!("reading chunk {chunk}: {e}"))
            });
        }
        if encoding == ChunkEncoding::Delta
            && !decode_delta_chunk(&self.scratch, records as usize, &mut self.chunk)
        {
            return Err(bad("malformed delta payload".to_string()));
        }
        let computed = crc32(&self.chunk);
        if computed != stored_crc {
            return Err(bad(format!(
                "crc mismatch: stored {stored_crc:#010x}, computed {computed:#010x}"
            )));
        }
        self.pos = 0;
        self.chunks_read += 1;
        Ok(())
    }

    /// The records as an iterator (chunk-at-a-time under the hood).
    pub fn records(&mut self) -> Records<'_, R> {
        Records { reader: self }
    }
}

impl<R: Read> RecordSource for TraceReader<R> {
    fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    fn next_record(&mut self) -> Option<Result<TraceRecord, TraceError>> {
        if self.done {
            return None;
        }
        if self.pos >= self.chunk.len() {
            if let Err(e) = self.refill() {
                self.done = true;
                return Some(Err(e));
            }
            if self.done {
                return None;
            }
        }
        let bytes = &self.chunk[self.pos..self.pos + RECORD_BYTES];
        match decode_record(bytes, self.records_read) {
            Ok(r) => {
                self.pos += RECORD_BYTES;
                self.records_read += 1;
                Some(Ok(r))
            }
            Err(e) => {
                self.done = true;
                Some(Err(e))
            }
        }
    }
}

/// Iterator over a [`TraceReader`]'s records; see
/// [`TraceReader::records`].
pub struct Records<'a, R: Read> {
    reader: &'a mut TraceReader<R>,
}

impl<R: Read> Iterator for Records<'_, R> {
    type Item = Result<TraceRecord, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.reader.next_record()
    }
}

// -------------------------------------------------- in-memory adapters

/// Encodes a trace to the canonical chunked binary form — a thin
/// adapter over [`TraceWriter`] for small traces and tests. Chunk
/// payloads follow [`TraceMeta::encoding`].
#[must_use]
pub fn to_binary(trace: &Trace) -> Vec<u8> {
    let cap = 64 + trace.records.len() * RECORD_BYTES;
    let mut w =
        TraceWriter::new(Vec::with_capacity(cap), &trace.meta).expect("Vec writes are infallible");
    for r in &trace.records {
        w.write_record(r).expect("Vec writes are infallible");
    }
    w.finish().expect("Vec writes are infallible")
}

/// Decodes a binary trace — a thin adapter over
/// [`TraceReader`].
///
/// # Errors
///
/// Any [`TraceError`]: bad magic, unsupported version, truncation, or a
/// malformed metadata blob, chunk, or record.
pub fn from_binary(bytes: &[u8]) -> Result<Trace, TraceError> {
    let mut reader = TraceReader::new(bytes)?;
    let records = reader.records().collect::<Result<_, _>>()?;
    Ok(Trace {
        meta: reader.meta,
        records,
    })
}

/// Re-encodes a binary trace: streams every record of `reader` into a
/// new trace on `writer` that carries the same metadata except for
/// `encoding` and `chunk_records` (pass the reader's own to keep them),
/// holding one chunk of each side at a time. The records are identical
/// whatever the two say — they are storage choices — and
/// [`TraceReader::records_read`] afterwards is how many there were.
///
/// # Errors
///
/// Any [`TraceError`] from decoding; a failed write is
/// [`TraceError::Io`].
pub fn recode<R: Read, W: Write>(
    reader: &mut TraceReader<R>,
    encoding: ChunkEncoding,
    chunk_records: u32,
    writer: W,
) -> Result<W, TraceError> {
    let meta = TraceMeta {
        encoding,
        chunk_records,
        ..reader.meta().clone()
    };
    let mut w = TraceWriter::new(writer, &meta).map_err(write_err)?;
    for r in reader.records() {
        w.write_record(&r?).map_err(write_err)?;
    }
    w.finish().map_err(write_err)
}

// --------------------------------------------------------------- jsonl

/// Streaming JSONL encoder over any [`io::Write`]: the metadata line is
/// written on construction, then one line per record. The header is
/// exactly the binary codec's metadata object, so a binary → JSONL →
/// binary round trip reproduces the input byte for byte.
pub struct JsonlWriter<W: Write> {
    w: W,
    written: u64,
}

impl<W: Write> JsonlWriter<W> {
    /// Writes the metadata line and returns a writer ready for records.
    ///
    /// # Errors
    ///
    /// Any I/O error from the underlying writer.
    pub fn new(mut w: W, meta: &TraceMeta) -> io::Result<JsonlWriter<W>> {
        writeln!(w, "{}", meta_json(meta).to_json())?;
        Ok(JsonlWriter { w, written: 0 })
    }
}

impl<W: Write> RecordSink for JsonlWriter<W> {
    /// # Errors
    ///
    /// [`TraceError::BadRecord`] if the arrival or LBA is 2⁵³ or more and
    /// would lose precision as a JSON number; a failed write.
    fn write_record(&mut self, r: &TraceRecord) -> Result<(), TraceError> {
        for (field, v) in [("at_ns", r.at.as_nanos()), ("lba", r.lba)] {
            if v >= JSON_EXACT_MAX {
                return Err(TraceError::BadRecord {
                    index: self.written as usize,
                    reason: format!("{field} {v} exceeds the exact JSON number range"),
                });
            }
        }
        let line = JsonValue::obj(vec![
            ("at_ns", JsonValue::Num(r.at.as_nanos() as f64)),
            ("op", JsonValue::str(r.op.letter())),
            ("dev", JsonValue::Num(f64::from(r.dev))),
            ("lba", JsonValue::Num(r.lba as f64)),
            ("sectors", JsonValue::Num(f64::from(r.sectors))),
            ("stream", JsonValue::Num(f64::from(r.stream.0))),
        ]);
        writeln!(self.w, "{}", line.to_json()).map_err(write_err)?;
        self.written += 1;
        Ok(())
    }

    fn finish(mut self: Box<Self>) -> Result<(), TraceError> {
        self.w.flush().map_err(write_err)
    }
}

/// Streaming JSONL decoder over any [`BufRead`]: the first non-blank line
/// is parsed as the metadata on construction, and each following
/// non-blank line is parsed into a record only when
/// [`RecordSource::next_record`] asks for it. A header that declares a
/// record count is checked against the lines that follow when they run
/// out.
pub struct JsonlReader<R: BufRead> {
    r: R,
    meta: TraceMeta,
    declared: Option<u64>,
    line: String,
    records_read: u64,
    done: bool,
}

impl<R: BufRead> JsonlReader<R> {
    /// Reads and validates the metadata line.
    ///
    /// # Errors
    ///
    /// [`TraceError::Truncated`] for an empty input,
    /// [`TraceError::BadMeta`] or [`TraceError::UnsupportedVersion`] for
    /// a bad header, [`TraceError::Io`] when the reader fails.
    pub fn new(mut r: R) -> Result<JsonlReader<R>, TraceError> {
        let mut line = String::new();
        if !next_line(&mut r, &mut line)? {
            return Err(TraceError::Truncated("empty JSONL trace".to_string()));
        }
        let meta_value =
            JsonValue::parse(line.trim()).map_err(|e| TraceError::BadMeta(e.to_string()))?;
        let (meta, declared) = parse_meta(&meta_value)?;
        Ok(JsonlReader {
            r,
            meta,
            declared,
            line,
            records_read: 0,
            done: false,
        })
    }
}

/// Reads the next non-blank line into `line`; `false` at end of input.
fn next_line(r: &mut impl BufRead, line: &mut String) -> Result<bool, TraceError> {
    loop {
        line.clear();
        if r.read_line(line).map_err(|e| read_err("JSONL line", &e))? == 0 {
            return Ok(false);
        }
        if !line.trim().is_empty() {
            return Ok(true);
        }
    }
}

/// Parses one JSONL record line; `index` is the zero-based record
/// position, named in any error along with the malformed field.
fn parse_record(index: u64, line: &str) -> Result<TraceRecord, TraceError> {
    let bad = |reason: String| TraceError::BadRecord {
        index: index as usize,
        reason,
    };
    let v = JsonValue::parse(line).map_err(|e| bad(e.to_string()))?;
    let int = |key: &str, max: u64| {
        int_field(&v, key, max)
            .map_err(bad)?
            .ok_or_else(|| bad(format!("missing {key}")))
    };
    let op_letter = v
        .get("op")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| bad("missing op".to_string()))?;
    let op = TraceOp::from_letter(op_letter).ok_or_else(|| bad(format!("bad op {op_letter:?}")))?;
    Ok(TraceRecord {
        at: SimTime::from_nanos(int("at_ns", JSON_EXACT_MAX - 1)?),
        op,
        dev: int("dev", u16::MAX.into())? as u16,
        lba: int("lba", JSON_EXACT_MAX - 1)?,
        sectors: int("sectors", u32::MAX.into())? as u32,
        stream: StreamId(int("stream", u32::MAX.into())? as u32),
    })
}

impl<R: BufRead> RecordSource for JsonlReader<R> {
    fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    fn next_record(&mut self) -> Option<Result<TraceRecord, TraceError>> {
        if self.done {
            return None;
        }
        let record = match next_line(&mut self.r, &mut self.line) {
            Ok(true) => parse_record(self.records_read, self.line.trim()),
            Ok(false) => {
                self.done = true;
                return match self.declared {
                    Some(declared) if declared != self.records_read => {
                        Some(Err(TraceError::Truncated(format!(
                            "metadata declares {declared} records, found {}",
                            self.records_read
                        ))))
                    }
                    _ => None,
                };
            }
            Err(e) => Err(e),
        };
        match record {
            Ok(_) => self.records_read += 1,
            Err(_) => self.done = true,
        }
        Some(record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        Trace {
            meta: TraceMeta {
                source: "test".to_string(),
                seed: u64::MAX - 1,
                devices: 3,
                note: "with \"quotes\"".to_string(),
                chunk_records: 0,
                encoding: ChunkEncoding::Raw,
            },
            records: vec![
                TraceRecord {
                    at: SimTime::from_nanos(0),
                    op: TraceOp::Write,
                    dev: 0,
                    lba: 8,
                    sectors: 8,
                    stream: StreamId::UNTAGGED,
                },
                TraceRecord {
                    at: SimTime::from_nanos(1_500_000),
                    op: TraceOp::Read,
                    dev: 2,
                    lba: 123_456_789,
                    sectors: 16,
                    stream: StreamId(7),
                },
            ],
        }
    }

    #[test]
    fn binary_round_trips_byte_identically() {
        let t = sample();
        let bytes = to_binary(&t);
        let back = from_binary(&bytes).expect("decode");
        assert_eq!(back, t);
        // Canonical encoding: decode → re-encode is the identity.
        assert_eq!(to_binary(&back), bytes);
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The classic "123456789" check value for reflected 0xEDB88320.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_by_words_equals_byte_at_a_time_at_every_length() {
        // The textbook one-table loop, as the reference.
        let bytewise = |bytes: &[u8]| {
            let mut c = 0xFFFF_FFFFu32;
            for &b in bytes {
                c = CRC32_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
            }
            c ^ 0xFFFF_FFFF
        };
        let data: Vec<u8> = (0..97u32).map(|i| (i * 151 + 43) as u8).collect();
        for start in 0..9 {
            for end in start..=data.len() {
                let slice = &data[start..end];
                assert_eq!(crc32(slice), bytewise(slice), "bytes {start}..{end}");
            }
        }
    }

    #[test]
    fn chunk_records_knob_changes_layout_not_content() {
        let mut t = sample();
        t.meta.chunk_records = 1; // one record per chunk
        let bytes = to_binary(&t);
        let back = from_binary(&bytes).expect("decode");
        assert_eq!(back, t);
        assert_eq!(to_binary(&back), bytes, "canonical at any chunking");
        let mut one_chunk = t.clone();
        one_chunk.meta.chunk_records = 0;
        assert_ne!(
            to_binary(&one_chunk),
            bytes,
            "different chunking, different bytes"
        );
    }

    #[test]
    fn streaming_reader_decodes_one_chunk_at_a_time() {
        let mut t = sample();
        t.meta.chunk_records = 1;
        let bytes = to_binary(&t);
        let mut reader = TraceReader::new(bytes.as_slice()).expect("header");
        assert_eq!(reader.meta().devices, 3);
        let records: Vec<TraceRecord> = reader.records().map(|r| r.expect("record")).collect();
        assert_eq!(records, t.records);
        assert_eq!(reader.records_read(), 2);
        assert!(reader.buffered_records() <= 1, "at most one chunk resident");
    }

    /// `t` through a [`JsonlWriter`].
    fn to_jsonl(t: &Trace) -> Result<String, TraceError> {
        let mut out = Vec::new();
        let mut w = Box::new(JsonlWriter::new(&mut out, &t.meta).expect("Vec writes"));
        for r in &t.records {
            w.write_record(r)?;
        }
        w.finish()?;
        Ok(String::from_utf8(out).expect("JSONL is UTF-8"))
    }

    /// `text` through a [`JsonlReader`].
    fn from_jsonl(text: &str) -> Result<Trace, TraceError> {
        let mut reader = JsonlReader::new(text.as_bytes())?;
        let records = std::iter::from_fn(|| reader.next_record()).collect::<Result<_, _>>()?;
        Ok(Trace {
            meta: reader.meta,
            records,
        })
    }

    #[test]
    fn jsonl_round_trips_through_binary() {
        let t = sample();
        let text = to_jsonl(&t).expect("encode");
        let back = from_jsonl(&text).expect("decode");
        assert_eq!(back, t);
        // The cross-codec loop is also the identity on bytes.
        assert_eq!(to_binary(&back), to_binary(&t));
        // The JSONL header is the binary header's metadata object.
        let meta_len = u32::from_le_bytes(to_binary(&t)[12..16].try_into().unwrap()) as usize;
        assert_eq!(text.lines().next().map(str::len), Some(meta_len));
    }

    #[test]
    fn seed_survives_the_f64_number_space() {
        let t = sample();
        let back = from_jsonl(&to_jsonl(&t).unwrap()).unwrap();
        assert_eq!(back.meta.seed, u64::MAX - 1);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(matches!(
            from_binary(b"not a trace..."),
            Err(TraceError::BadMagic)
        ));
        let mut bytes = to_binary(&sample());
        bytes[8] = 0xFF; // version
        assert!(matches!(
            from_binary(&bytes),
            Err(TraceError::UnsupportedVersion(_))
        ));
        let bytes = to_binary(&sample());
        assert!(matches!(
            from_binary(&bytes[..bytes.len() - 3]),
            Err(TraceError::Truncated(_))
        ));
    }

    #[test]
    fn v1_and_v2_headers_are_rejected_as_unsupported() {
        for old in [1u16, 2] {
            let mut bytes = to_binary(&sample());
            bytes[8..10].copy_from_slice(&old.to_le_bytes());
            assert_eq!(
                TraceReader::new(bytes.as_slice()).err(),
                Some(TraceError::UnsupportedVersion(old))
            );
            let line = meta_json(&TraceMeta::default())
                .to_json()
                .replace("\"version\":3", &format!("\"version\":{old}"));
            assert_eq!(
                JsonlReader::new(line.as_bytes()).err(),
                Some(TraceError::UnsupportedVersion(old))
            );
        }
    }

    #[test]
    fn oversized_meta_length_is_rejected_before_allocating() {
        // A 16-byte file whose header claims a 4-GiB metadata blob.
        let mut bytes = TRACE_MAGIC.to_vec();
        bytes.extend_from_slice(&TRACE_VERSION.to_le_bytes());
        bytes.extend_from_slice(&0u16.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            TraceReader::new(bytes.as_slice()).err(),
            Some(TraceError::BadMeta(_))
        ));
    }

    #[test]
    fn footer_length_must_match_the_chunks_read() {
        let bytes = to_binary(&sample());
        // One data chunk, so the footer frame is the last 13 + 24 bytes;
        // claim a 256-MiB index instead.
        let footer = bytes.len() - (CHUNK_HEADER_BYTES + 24);
        let mut bad = bytes[..footer + CHUNK_HEADER_BYTES].to_vec();
        bad[footer + 4..footer + 8].copy_from_slice(&(1u32 << 28).to_le_bytes());
        match from_binary(&bad) {
            Err(TraceError::BadChunk { chunk: 1, reason }) => {
                assert!(reason.contains("footer length"), "{reason}");
            }
            other => panic!("expected a footer-length error, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_chunk_payload_is_rejected_with_its_chunk_index() {
        let mut t = sample();
        t.meta.chunk_records = 1;
        let mut bytes = to_binary(&t);
        // Flip one payload byte of the second chunk: frames start after
        // the 16-byte header + meta blob; chunk 0 is header + 28 bytes.
        let meta_len = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes")) as usize;
        let second_chunk_payload =
            16 + meta_len + (CHUNK_HEADER_BYTES + RECORD_BYTES) + CHUNK_HEADER_BYTES;
        bytes[second_chunk_payload] ^= 0x40;
        match from_binary(&bytes) {
            Err(TraceError::BadChunk { chunk: 1, reason }) => {
                assert!(reason.contains("crc mismatch"), "{reason}");
            }
            other => panic!("expected a chunk-1 crc error, got {other:?}"),
        }
    }

    #[test]
    fn truncated_chunk_is_rejected_with_its_chunk_index() {
        let mut t = sample();
        t.meta.chunk_records = 1;
        let bytes = to_binary(&t);
        let meta_len = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes")) as usize;
        // Cut the file mid-way through the second chunk's payload.
        let cut = 16 + meta_len + (CHUNK_HEADER_BYTES + RECORD_BYTES) + CHUNK_HEADER_BYTES + 5;
        match from_binary(&bytes[..cut]) {
            Err(TraceError::BadChunk { chunk: 1, reason }) => {
                assert!(reason.contains("truncated"), "{reason}");
            }
            other => panic!("expected a chunk-1 truncation error, got {other:?}"),
        }
    }

    #[test]
    fn missing_footer_is_a_truncation() {
        // A writer dropped without finish(): header plus data chunks but
        // no footer frame.
        let t = sample();
        let mut w = TraceWriter::new(Vec::new(), &t.meta).expect("writer");
        for r in &t.records {
            w.write_record(r).expect("write");
        }
        // Reach inside via finish, then strip the footer frame.
        let bytes = w.finish().expect("finish");
        let footer_len = CHUNK_HEADER_BYTES + 12 + 12; // one data chunk in the index
        let unfinished = &bytes[..bytes.len() - footer_len];
        match from_binary(unfinished) {
            Err(TraceError::Truncated(what)) => {
                assert!(what.contains("footer"), "{what}");
            }
            other => panic!("expected a missing-footer truncation, got {other:?}"),
        }
    }

    fn delta_sample() -> Trace {
        let mut t = sample();
        t.meta.encoding = ChunkEncoding::Delta;
        // Extremes exercise the wrapping delta arithmetic: a backwards
        // u64 jump and full-width field values.
        t.records.push(TraceRecord {
            at: SimTime::from_nanos(u64::MAX),
            op: TraceOp::Write,
            dev: u16::MAX,
            lba: u64::MAX,
            sectors: u32::MAX,
            stream: StreamId(u32::MAX),
        });
        t.records.push(TraceRecord {
            at: SimTime::from_nanos(3),
            op: TraceOp::Read,
            dev: 1,
            lba: 0,
            sectors: 1,
            stream: StreamId(0),
        });
        t
    }

    #[test]
    fn delta_round_trips_byte_identically() {
        let t = delta_sample();
        let bytes = to_binary(&t);
        let back = from_binary(&bytes).expect("decode");
        assert_eq!(back, t);
        assert_eq!(to_binary(&back), bytes, "canonical delta encoding");
        // The records are encoding-independent: the raw twin decodes to
        // the same trace apart from the meta knob.
        let mut raw_twin = t.clone();
        raw_twin.meta.encoding = ChunkEncoding::Raw;
        let raw_back = from_binary(&to_binary(&raw_twin)).expect("raw decode");
        assert_eq!(raw_back.records, back.records);
    }

    #[test]
    fn recode_changes_storage_never_records() {
        let mut t = delta_sample();
        t.meta.encoding = ChunkEncoding::Raw;
        t.meta.chunk_records = 3;
        let raw = to_binary(&t);
        let pass = |bytes: &[u8], encoding, chunk_records| {
            let mut reader = TraceReader::new(bytes).expect("header");
            let out = recode(&mut reader, encoding, chunk_records, Vec::new()).expect("recode");
            assert_eq!(reader.records_read(), t.records.len() as u64);
            out
        };
        // Raw -> delta -> raw is the identity on bytes.
        let delta = pass(&raw, ChunkEncoding::Delta, 3);
        assert_ne!(delta, raw);
        assert_eq!(pass(&delta, ChunkEncoding::Raw, 3), raw);
        // The output is what the in-memory encoder writes for the
        // decoded trace under the same metadata.
        let mut twin = t.clone();
        twin.meta.encoding = ChunkEncoding::Delta;
        assert_eq!(delta, to_binary(&twin));
        // A chunk size is layout, not content.
        let rechunked = pass(&raw, ChunkEncoding::Raw, 2);
        assert_ne!(rechunked, raw);
        let back = from_binary(&rechunked).expect("decode");
        assert_eq!(back.records, t.records);
        assert_eq!(back.meta.chunk_records, 2);
    }

    #[test]
    fn delta_collapses_a_monotone_trace() {
        // Poisson-ish arrivals and a sequential scan: exactly the shape
        // the column codec targets. The ci gate enforces ≤ 60% on the
        // real synthetic trace; this is the in-tree canary.
        let mut t = Trace {
            meta: TraceMeta {
                encoding: ChunkEncoding::Delta,
                ..TraceMeta::default()
            },
            records: Vec::new(),
        };
        for i in 0..1000u64 {
            t.records.push(TraceRecord {
                at: SimTime::from_nanos(i * 19_731),
                op: if i % 3 == 0 {
                    TraceOp::Read
                } else {
                    TraceOp::Write
                },
                dev: (i % 2) as u16,
                lba: 4096 + i * 8,
                sectors: 8,
                stream: StreamId((i % 4) as u32),
            });
        }
        let delta = to_binary(&t);
        t.meta.encoding = ChunkEncoding::Raw;
        let raw = to_binary(&t);
        assert!(
            delta.len() * 10 < raw.len() * 6,
            "delta {} bytes vs raw {} bytes",
            delta.len(),
            raw.len()
        );
    }

    #[test]
    fn mixed_encoding_chunks_interop_within_one_file() {
        let t = delta_sample();
        let mut meta = t.meta.clone();
        meta.chunk_records = 2;
        meta.encoding = ChunkEncoding::Raw;
        let mut w = TraceWriter::new(Vec::new(), &meta).expect("writer");
        w.write_record(&t.records[0]).expect("write");
        w.write_record(&t.records[1]).expect("write");
        w.set_encoding(ChunkEncoding::Delta).expect("switch");
        for r in &t.records[2..] {
            w.write_record(r).expect("write");
        }
        let bytes = w.finish().expect("finish");
        let back = from_binary(&bytes).expect("mixed decode");
        assert_eq!(back.records, t.records);
    }

    #[test]
    fn corrupt_delta_chunk_is_rejected_with_its_chunk_index() {
        let mut t = delta_sample();
        t.meta.chunk_records = 1;
        let mut bytes = to_binary(&t);
        let meta_len = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes")) as usize;
        // Chunk 0's payload length lives right after the header+meta.
        let chunk0_payload_len = u32::from_le_bytes(
            bytes[16 + meta_len + 4..16 + meta_len + 8]
                .try_into()
                .unwrap(),
        ) as usize;
        let second_chunk_payload =
            16 + meta_len + (CHUNK_HEADER_BYTES + chunk0_payload_len) + CHUNK_HEADER_BYTES;
        bytes[second_chunk_payload] ^= 0x40;
        match from_binary(&bytes) {
            Err(TraceError::BadChunk { chunk: 1, reason }) => {
                assert!(
                    reason.contains("crc mismatch") || reason.contains("delta"),
                    "{reason}"
                );
            }
            other => panic!("expected a chunk-1 error, got {other:?}"),
        }
    }

    #[test]
    fn truncated_delta_chunk_is_rejected() {
        let mut t = delta_sample();
        t.meta.chunk_records = 1;
        let bytes = to_binary(&t);
        let meta_len = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes")) as usize;
        let chunk0_payload_len = u32::from_le_bytes(
            bytes[16 + meta_len + 4..16 + meta_len + 8]
                .try_into()
                .unwrap(),
        ) as usize;
        // Cut mid-way through the second chunk's payload.
        let cut =
            16 + meta_len + (CHUNK_HEADER_BYTES + chunk0_payload_len) + CHUNK_HEADER_BYTES + 2;
        match from_binary(&bytes[..cut]) {
            Err(TraceError::BadChunk { chunk: 1, reason }) => {
                assert!(reason.contains("truncated"), "{reason}");
            }
            other => panic!("expected a chunk-1 truncation error, got {other:?}"),
        }
    }

    #[test]
    fn unknown_chunk_encoding_is_rejected() {
        let mut t = sample();
        t.meta.chunk_records = 1;
        let mut bytes = to_binary(&t);
        let meta_len = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes")) as usize;
        bytes[16 + meta_len + 12] = 9; // chunk 0's encoding byte
        match from_binary(&bytes) {
            Err(TraceError::BadChunk { chunk: 0, reason }) => {
                assert!(reason.contains("unknown chunk encoding"), "{reason}");
            }
            other => panic!("expected an unknown-encoding error, got {other:?}"),
        }
    }

    #[test]
    fn jsonl_rejects_imprecise_values() {
        let mut t = sample();
        t.records[0].lba = 1 << 60;
        assert!(matches!(
            to_jsonl(&t),
            Err(TraceError::BadRecord { index: 0, .. })
        ));
    }

    #[test]
    fn jsonl_rejects_count_mismatch() {
        // The writers never declare a count (they stream), but a header
        // that does is held to it.
        let t = sample();
        let text = to_jsonl(&t).unwrap();
        let declared = text.replacen("}\n", ",\"records\":2}\n", 1);
        assert_eq!(from_jsonl(&declared).expect("count matches"), t);
        let truncated: String = declared.lines().take(2).collect::<Vec<_>>().join("\n");
        assert!(matches!(
            from_jsonl(&truncated),
            Err(TraceError::Truncated(_))
        ));
    }

    #[test]
    fn jsonl_rejects_fields_out_of_their_range() {
        let header = meta_json(&TraceMeta::default()).to_json();
        let good = r#"{"at_ns":5,"op":"W","dev":1,"lba":8,"sectors":8,"stream":2}"#;
        assert!(from_jsonl(&format!("{header}\n{good}\n")).is_ok());
        for (field, value, why) in [
            ("dev", "70000", "past u16"),
            ("stream", "4294967296", "past u32"),
            ("sectors", "-8", "negative"),
            ("lba", "-3", "negative"),
            ("at_ns", "1.7", "fractional"),
            ("lba", "9007199254740992", "past the exact JSON range"),
            ("at_ns", "\"5\"", "not a number"),
        ] {
            let line = good.replacen(
                &format!("\"{field}\":{}", good_value(good, field)),
                &format!("\"{field}\":{value}"),
                1,
            );
            // The bad record comes second, so the error names index 1.
            let text = format!("{header}\n{good}\n{line}\n");
            match from_jsonl(&text) {
                Err(TraceError::BadRecord { index: 1, reason }) => {
                    assert!(reason.starts_with(field), "{why}: {reason}");
                }
                other => panic!("{field} {value} ({why}) was not rejected: {other:?}"),
            }
        }
        let devices = header.replace("\"devices\":0", "\"devices\":70000");
        assert!(matches!(
            JsonlReader::new(devices.as_bytes()).err(),
            Some(TraceError::BadMeta(why)) if why.starts_with("devices")
        ));
    }

    /// The value text of `field` in the one-line JSON object `line`.
    fn good_value<'a>(line: &'a str, field: &str) -> &'a str {
        let key = format!("\"{field}\":");
        let rest = &line[line.find(&key).expect("field present") + key.len()..];
        &rest[..rest.find([',', '}']).expect("value ends")]
    }
}
