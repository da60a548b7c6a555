//! The versioned little-endian binary snapshot format and its lazy reader.
//!
//! A binary store image is a fixed header, a fixed-width section table, and
//! a run of contiguous sections, each CRC-guarded:
//!
//! ```text
//! offset  size  field
//! 0       8     magic "SEMEXSNP"
//! 8       4     format version (u32 LE, currently 1)
//! 12      4     section count (u32 LE)
//! 16      24×n  section table: id u32 | offset u64 | len u64 | crc32 u32
//! 16+24n  4     header CRC32 (covers bytes 0 .. 16+24n)
//! ...           sections, contiguous, in table order
//! ```
//!
//! Sections (ids are stable; unknown ids are rejected):
//!
//! * `1 MODEL`   — the [`DomainModel`] as serde_json bytes (the model is an
//!   opaque, rarely-hot blob; its section CRC still guards it).
//! * `2 ARENA`   — deduplicated string arena: count, a fixed-width `u32`
//!   offset table, then the concatenated UTF-8 bytes. Every string in the
//!   image is a varint index into this arena.
//! * `3 OBJECTS` — count, a fixed-width `u32` offset table (one slot per
//!   object, enabling random access by dense id), then per-object records:
//!   class, merged-into, attrs (tagged values), sources — all varints.
//! * `4 TRIPLES` — count, then sequential records with the subject id
//!   zigzag-delta-encoded against the previous triple's subject.
//! * `5 SOURCES` — count, `u32` offset table, then name/kind/location.
//!
//! The total file length must equal the end of the last section — trailing
//! bytes are a typed error, not silently ignored. Decoding never panics:
//! every length, offset, tag and id is bounds-checked and every section is
//! CRC-verified *before* it is parsed, so truncation, bit flips and
//! reordering all surface as [`BinaryError`].
//!
//! [`SnapshotReader`] borrows the loaded buffer and resolves objects,
//! triples and sources on demand from the offset tables;
//! [`Store::from_binary`] drives it to materialize a heap store.

use crate::{Object, ObjectId, SourceId, SourceInfo, SourceKind, Store, Triple};
use semex_model::{AssocId, AttrId, ClassId, DomainModel, Value};
use std::fmt;

/// Magic bytes opening a binary store image.
pub const MAGIC: &[u8; 8] = b"SEMEXSNP";

/// Binary store format version.
pub const BINARY_VERSION: u32 = 1;

/// Size of the fixed part of the header (magic + version + section count).
const HEADER_FIXED: usize = 16;

/// Size of one section-table entry.
const SECTION_ENTRY: usize = 24;

const SEC_MODEL: u32 = 1;
const SEC_ARENA: u32 = 2;
const SEC_OBJECTS: u32 = 3;
const SEC_TRIPLES: u32 = 4;
const SEC_SOURCES: u32 = 5;

/// Typed decoding failures of the binary format. Decoding never panics and
/// never silently misreads: every malformed input maps to one of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BinaryError {
    /// The buffer ends before a required structure.
    Truncated {
        /// What was being read.
        what: &'static str,
    },
    /// The magic bytes are not this format's.
    BadMagic,
    /// The format version is one this build does not read.
    Version {
        /// Version found in the header.
        found: u32,
        /// Version this build reads.
        expected: u32,
    },
    /// A CRC32 check failed (header, or the named section).
    BadCrc {
        /// `"header"` or the section name.
        section: &'static str,
    },
    /// A section-table entry points outside the buffer, sections are not
    /// contiguous, or the file has trailing bytes.
    Bounds {
        /// The section name (or `"layout"` for whole-file layout errors).
        section: &'static str,
    },
    /// A section is present twice, missing, or has an unknown id.
    Sections {
        /// What is wrong.
        detail: &'static str,
    },
    /// A value inside a section is out of range (bad tag, dangling arena
    /// index, non-UTF-8 string, varint overflow, ...).
    Malformed {
        /// The section name.
        section: &'static str,
        /// What is wrong.
        detail: &'static str,
    },
}

impl fmt::Display for BinaryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BinaryError::Truncated { what } => write!(f, "binary snapshot truncated in {what}"),
            BinaryError::BadMagic => write!(f, "not a binary store snapshot (bad magic)"),
            BinaryError::Version { found, expected } => write!(
                f,
                "binary snapshot format version {found}, this build reads {expected}"
            ),
            BinaryError::BadCrc { section } => {
                write!(f, "binary snapshot CRC mismatch in {section}")
            }
            BinaryError::Bounds { section } => {
                write!(f, "binary snapshot section out of bounds: {section}")
            }
            BinaryError::Sections { detail } => {
                write!(f, "binary snapshot section table invalid: {detail}")
            }
            BinaryError::Malformed { section, detail } => {
                write!(f, "binary snapshot malformed in {section}: {detail}")
            }
        }
    }
}

impl std::error::Error for BinaryError {}

// ---------------------------------------------------------------- crc32 --

/// The reflected IEEE polynomial. The journal checksums its records and
/// manifests with this same function.
const POLY: u32 = 0xEDB8_8320;

/// Slice-by-8 lookup tables: `TABLES[0]` is the classic byte-at-a-time
/// table, `TABLES[k]` advances a byte `k` extra positions, so the hot loop
/// folds eight bytes per iteration — the CRC pass over a multi-megabyte
/// snapshot stays well under a millisecond on the cold-open path.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE) checksum of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for c in chunks.by_ref() {
        let lo = u32::from_le_bytes(c[..4].try_into().unwrap()) ^ crc;
        let hi = u32::from_le_bytes(c[4..8].try_into().unwrap());
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

// --------------------------------------------------------------- varints --

/// Append an LEB128 varint.
pub fn write_varint(mut v: u64, out: &mut Vec<u8>) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Zigzag-encode a signed value for varint storage.
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Invert [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// A bounds-checked cursor over a byte slice; every read is fallible.
#[derive(Debug, Clone, Copy)]
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
    section: &'static str,
}

impl<'a> Cursor<'a> {
    /// A cursor over `buf`, attributing errors to `section`.
    pub fn new(buf: &'a [u8], section: &'static str) -> Self {
        Cursor {
            buf,
            pos: 0,
            section,
        }
    }

    /// Current position.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Whether the cursor consumed the whole slice.
    pub fn at_end(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// The bytes remaining past the current position.
    pub fn rest(&self) -> &'a [u8] {
        &self.buf[self.pos..]
    }

    /// Read `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], BinaryError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(BinaryError::Truncated { what: self.section })?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Read an LEB128 varint (at most 10 bytes; overlong encodings and
    /// values past `u64::MAX` are malformed).
    pub fn varint(&mut self) -> Result<u64, BinaryError> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = *self
                .buf
                .get(self.pos)
                .ok_or(BinaryError::Truncated { what: self.section })?;
            self.pos += 1;
            if shift == 63 && byte > 1 {
                return Err(BinaryError::Malformed {
                    section: self.section,
                    detail: "varint overflow",
                });
            }
            v |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(BinaryError::Malformed {
                    section: self.section,
                    detail: "varint too long",
                });
            }
        }
    }

    /// Read a varint that must fit `usize`/`u32` index space.
    pub fn index(&mut self) -> Result<usize, BinaryError> {
        let v = self.varint()?;
        usize::try_from(v).map_err(|_| BinaryError::Malformed {
            section: self.section,
            detail: "index does not fit",
        })
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, BinaryError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, BinaryError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    /// Read a little-endian `f32`.
    pub fn f32(&mut self) -> Result<f32, BinaryError> {
        Ok(f32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    /// Read a little-endian `f64`.
    pub fn f64(&mut self) -> Result<f64, BinaryError> {
        Ok(f64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, BinaryError> {
        Ok(self.bytes(1)?[0])
    }
}

// -------------------------------------------------------------- sections --

/// Builds an image: fixed header, section table, contiguous CRC'd sections.
/// Shared by the store snapshot and the index sidecar formats.
pub struct SectionWriter {
    magic: &'static [u8; 8],
    version: u32,
    /// Extra fixed-width header fields after the version (e.g. the sidecar's
    /// epoch and sequence number), included in the header CRC.
    extra: Vec<u8>,
    sections: Vec<(u32, Vec<u8>)>,
}

impl SectionWriter {
    /// A writer for the given magic/version, with `extra` fixed header
    /// bytes between the version and the section count.
    pub fn new(magic: &'static [u8; 8], version: u32, extra: Vec<u8>) -> Self {
        SectionWriter {
            magic,
            version,
            extra,
            sections: Vec::new(),
        }
    }

    /// Append a section.
    pub fn section(&mut self, id: u32, payload: Vec<u8>) {
        self.sections.push((id, payload));
    }

    /// Serialize the image.
    pub fn finish(self) -> Vec<u8> {
        let n = self.sections.len();
        let header_len = HEADER_FIXED + self.extra.len() + n * SECTION_ENTRY;
        let mut out = Vec::with_capacity(
            header_len + 4 + self.sections.iter().map(|(_, p)| p.len()).sum::<usize>(),
        );
        out.extend_from_slice(self.magic);
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(&self.extra);
        out.extend_from_slice(&(n as u32).to_le_bytes());
        let mut offset = (header_len + 4) as u64;
        for (id, payload) in &self.sections {
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&offset.to_le_bytes());
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(&crc32(payload).to_le_bytes());
            offset += payload.len() as u64;
        }
        let header_crc = crc32(&out);
        out.extend_from_slice(&header_crc.to_le_bytes());
        for (_, payload) in &self.sections {
            out.extend_from_slice(payload);
        }
        out
    }
}

/// A parsed section table over a borrowed image: magic, version and header
/// CRC verified; each section's bytes are CRC-verified on access.
pub struct Sections<'a> {
    buf: &'a [u8],
    /// Extra fixed header bytes (between version and section count).
    extra: &'a [u8],
    /// `(id, offset, len)` in table order.
    table: Vec<(u32, usize, usize)>,
    crcs: Vec<u32>,
}

impl<'a> Sections<'a> {
    /// Parse and verify an image's header and section table. `extra_len`
    /// is the caller's fixed header size between version and section count.
    pub fn open(
        buf: &'a [u8],
        magic: &'static [u8; 8],
        version: u32,
        extra_len: usize,
    ) -> Result<Sections<'a>, BinaryError> {
        let mut c = Cursor::new(buf, "header");
        if c.bytes(8)? != magic {
            return Err(BinaryError::BadMagic);
        }
        let found = c.u32()?;
        if found != version {
            return Err(BinaryError::Version {
                found,
                expected: version,
            });
        }
        let extra = c.bytes(extra_len)?;
        let n = c.u32()? as usize;
        // A section table longer than the buffer itself is garbage; cap it
        // so `n` cannot drive a huge allocation.
        if n > buf.len() / SECTION_ENTRY + 1 {
            return Err(BinaryError::Truncated {
                what: "section table",
            });
        }
        let mut table = Vec::with_capacity(n);
        let mut crcs = Vec::with_capacity(n);
        for _ in 0..n {
            let id = c.u32()?;
            let offset = c.u64()?;
            let len = c.u64()?;
            let crc = c.u32()?;
            let offset =
                usize::try_from(offset).map_err(|_| BinaryError::Bounds { section: "layout" })?;
            let len =
                usize::try_from(len).map_err(|_| BinaryError::Bounds { section: "layout" })?;
            table.push((id, offset, len));
            crcs.push(crc);
        }
        let header_end = c.pos();
        let declared_crc = c.u32()?;
        if crc32(&buf[..header_end]) != declared_crc {
            return Err(BinaryError::BadCrc { section: "header" });
        }
        // Sections must be contiguous from the header end and cover the
        // buffer exactly: truncation and trailing garbage are both typed
        // errors, never silently tolerated.
        let mut expected = c.pos();
        for &(_, offset, len) in &table {
            if offset != expected {
                return Err(BinaryError::Bounds { section: "layout" });
            }
            expected = offset
                .checked_add(len)
                .ok_or(BinaryError::Bounds { section: "layout" })?;
        }
        if expected != buf.len() {
            return Err(if expected > buf.len() {
                BinaryError::Truncated { what: "sections" }
            } else {
                BinaryError::Bounds { section: "layout" }
            });
        }
        Ok(Sections {
            buf,
            extra,
            table,
            crcs,
        })
    }

    /// The extra fixed header bytes.
    pub fn extra(&self) -> &'a [u8] {
        self.extra
    }

    /// Fetch a section's bytes by id, verifying its CRC. `name` labels
    /// errors. Exactly one section of each expected id must be present.
    pub fn get(&self, id: u32, name: &'static str) -> Result<&'a [u8], BinaryError> {
        let mut found: Option<usize> = None;
        for (i, &(sid, _, _)) in self.table.iter().enumerate() {
            if sid == id {
                if found.is_some() {
                    return Err(BinaryError::Sections {
                        detail: "duplicate section",
                    });
                }
                found = Some(i);
            }
        }
        let i = found.ok_or(BinaryError::Sections {
            detail: "missing section",
        })?;
        let (_, offset, len) = self.table[i];
        let bytes = &self.buf[offset..offset + len];
        if crc32(bytes) != self.crcs[i] {
            return Err(BinaryError::BadCrc { section: name });
        }
        Ok(bytes)
    }

    /// Number of sections.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// True when the image has no sections.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }
}

// ------------------------------------------------------------- the arena --

/// Deduplicating string-arena builder: count + `u32` offset table + blob.
pub struct ArenaWriter {
    offsets: Vec<u32>,
    blob: Vec<u8>,
    seen: std::collections::HashMap<String, u64>,
}

impl Default for ArenaWriter {
    fn default() -> Self {
        ArenaWriter::new()
    }
}

impl ArenaWriter {
    /// An empty arena.
    pub fn new() -> Self {
        ArenaWriter {
            offsets: Vec::new(),
            blob: Vec::new(),
            seen: std::collections::HashMap::new(),
        }
    }

    /// Intern a string, returning its arena index.
    pub fn intern(&mut self, s: &str) -> u64 {
        if let Some(&i) = self.seen.get(s) {
            return i;
        }
        let i = self.offsets.len() as u64;
        self.offsets
            .push(u32::try_from(self.blob.len()).expect("arena over 4 GiB"));
        self.blob.extend_from_slice(s.as_bytes());
        self.seen.insert(s.to_owned(), i);
        i
    }

    /// Serialize the arena section payload.
    pub fn finish(self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + self.offsets.len() * 4 + self.blob.len());
        out.extend_from_slice(&(self.offsets.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.blob.len() as u32).to_le_bytes());
        for o in &self.offsets {
            out.extend_from_slice(&o.to_le_bytes());
        }
        out.extend_from_slice(&self.blob);
        out
    }
}

/// Borrowed view of a string arena: strings resolve on demand, straight
/// from the image buffer.
#[derive(Debug, Clone, Copy)]
pub struct ArenaReader<'a> {
    offsets: &'a [u8],
    blob: &'a [u8],
    count: usize,
    section: &'static str,
}

impl<'a> ArenaReader<'a> {
    /// Parse the arena section payload (offsets are validated lazily).
    pub fn open(bytes: &'a [u8], section: &'static str) -> Result<ArenaReader<'a>, BinaryError> {
        let mut c = Cursor::new(bytes, section);
        let count = c.u32()? as usize;
        let blob_len = c.u32()? as usize;
        let offsets = c.bytes(count.checked_mul(4).ok_or(BinaryError::Malformed {
            section,
            detail: "arena count overflow",
        })?)?;
        let blob = c.bytes(blob_len)?;
        if !c.at_end() {
            return Err(BinaryError::Malformed {
                section,
                detail: "trailing arena bytes",
            });
        }
        Ok(ArenaReader {
            offsets,
            blob,
            count,
            section,
        })
    }

    /// Number of interned strings.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when the arena is empty.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Resolve arena index `i` to its string, borrowing from the buffer.
    pub fn get(&self, i: u64) -> Result<&'a str, BinaryError> {
        let i =
            usize::try_from(i)
                .ok()
                .filter(|&i| i < self.count)
                .ok_or(BinaryError::Malformed {
                    section: self.section,
                    detail: "dangling arena index",
                })?;
        let at = |k: usize| -> usize {
            u32::from_le_bytes(self.offsets[k * 4..k * 4 + 4].try_into().unwrap()) as usize
        };
        let start = at(i);
        let end = if i + 1 < self.count {
            at(i + 1)
        } else {
            self.blob.len()
        };
        if start > end || end > self.blob.len() {
            return Err(BinaryError::Malformed {
                section: self.section,
                detail: "arena offsets not monotonic",
            });
        }
        std::str::from_utf8(&self.blob[start..end]).map_err(|_| BinaryError::Malformed {
            section: self.section,
            detail: "arena string is not UTF-8",
        })
    }
}

// ------------------------------------------------------ value encoding --

const VAL_STR: u8 = 0;
const VAL_INT: u8 = 1;
const VAL_FLOAT: u8 = 2;
const VAL_DATE: u8 = 3;
const VAL_BOOL: u8 = 4;

fn write_value(v: &Value, arena: &mut ArenaWriter, out: &mut Vec<u8>) {
    match v {
        Value::Str(s) => {
            out.push(VAL_STR);
            write_varint(arena.intern(s), out);
        }
        Value::Int(i) => {
            out.push(VAL_INT);
            write_varint(zigzag(*i), out);
        }
        Value::Float(x) => {
            out.push(VAL_FLOAT);
            out.extend_from_slice(&x.to_le_bytes());
        }
        Value::Date(d) => {
            out.push(VAL_DATE);
            write_varint(zigzag(*d), out);
        }
        Value::Bool(b) => {
            out.push(VAL_BOOL);
            out.push(u8::from(*b));
        }
    }
}

fn read_value(c: &mut Cursor<'_>, arena: &ArenaReader<'_>) -> Result<Value, BinaryError> {
    Ok(match c.u8()? {
        VAL_STR => Value::Str(arena.get(c.varint()?)?.to_owned()),
        VAL_INT => Value::Int(unzigzag(c.varint()?)),
        VAL_FLOAT => Value::Float(c.f64()?),
        VAL_DATE => Value::Date(unzigzag(c.varint()?)),
        VAL_BOOL => Value::Bool(match c.u8()? {
            0 => false,
            1 => true,
            _ => {
                return Err(BinaryError::Malformed {
                    section: "objects",
                    detail: "bad bool",
                })
            }
        }),
        _ => {
            return Err(BinaryError::Malformed {
                section: "objects",
                detail: "unknown value tag",
            })
        }
    })
}

fn kind_tag(kind: SourceKind) -> u8 {
    match kind {
        SourceKind::Email => 0,
        SourceKind::Contacts => 1,
        SourceKind::Calendar => 2,
        SourceKind::Bibliography => 3,
        SourceKind::Latex => 4,
        SourceKind::FileSystem => 5,
        SourceKind::Spreadsheet => 6,
        SourceKind::External => 7,
        SourceKind::Synthetic => 8,
    }
}

fn kind_from_tag(tag: u8) -> Result<SourceKind, BinaryError> {
    Ok(match tag {
        0 => SourceKind::Email,
        1 => SourceKind::Contacts,
        2 => SourceKind::Calendar,
        3 => SourceKind::Bibliography,
        4 => SourceKind::Latex,
        5 => SourceKind::FileSystem,
        6 => SourceKind::Spreadsheet,
        7 => SourceKind::External,
        8 => SourceKind::Synthetic,
        _ => {
            return Err(BinaryError::Malformed {
                section: "sources",
                detail: "unknown source kind",
            })
        }
    })
}

// ----------------------------------------------------------- the writer --

impl Store {
    /// Serialize the store to the versioned binary snapshot format.
    ///
    /// The only fallible step is serializing the domain model blob; the
    /// data sections cannot fail.
    pub fn to_binary(&self) -> Result<Vec<u8>, crate::SnapshotError> {
        let (model, objects, triples, sources) = self.parts();
        let model_bytes = serde_json::to_vec(model)?;

        let mut arena = ArenaWriter::new();

        // Objects: per-object records behind a fixed-width offset table.
        let mut obj_records: Vec<u8> = Vec::new();
        let mut obj_offsets: Vec<u32> = Vec::with_capacity(objects.len());
        for o in objects.iter() {
            obj_offsets.push(u32::try_from(obj_records.len()).expect("objects over 4 GiB"));
            write_varint(u64::from(o.class.0), &mut obj_records);
            write_varint(o.merged_into.map_or(0, |m| m.0 + 1), &mut obj_records);
            write_varint(o.attrs.len() as u64, &mut obj_records);
            for (a, v) in &o.attrs {
                write_varint(u64::from(a.0), &mut obj_records);
                write_value(v, &mut arena, &mut obj_records);
            }
            write_varint(o.sources.len() as u64, &mut obj_records);
            for s in &o.sources {
                write_varint(u64::from(s.0), &mut obj_records);
            }
        }
        let mut obj_section = Vec::with_capacity(4 + obj_offsets.len() * 4 + obj_records.len());
        obj_section.extend_from_slice(&(obj_offsets.len() as u32).to_le_bytes());
        for o in &obj_offsets {
            obj_section.extend_from_slice(&o.to_le_bytes());
        }
        obj_section.extend_from_slice(&obj_records);

        // Triples: sequential, subject delta-encoded.
        let mut tri_section = Vec::new();
        tri_section.extend_from_slice(&(triples.len() as u32).to_le_bytes());
        let mut prev_subject = 0i64;
        for t in triples.iter() {
            let s = t.subject.0 as i64;
            write_varint(zigzag(s - prev_subject), &mut tri_section);
            prev_subject = s;
            write_varint(u64::from(t.assoc.0), &mut tri_section);
            write_varint(t.object.0, &mut tri_section);
            write_varint(u64::from(t.source.0), &mut tri_section);
        }

        // Sources: offset table + name/kind/location.
        let mut src_records: Vec<u8> = Vec::new();
        let mut src_offsets: Vec<u32> = Vec::with_capacity(sources.len());
        for s in sources.iter() {
            src_offsets.push(u32::try_from(src_records.len()).expect("sources over 4 GiB"));
            write_varint(arena.intern(&s.name), &mut src_records);
            src_records.push(kind_tag(s.kind));
            match &s.location {
                None => src_records.push(0),
                Some(loc) => {
                    src_records.push(1);
                    write_varint(arena.intern(loc), &mut src_records);
                }
            }
        }
        let mut src_section = Vec::with_capacity(4 + src_offsets.len() * 4 + src_records.len());
        src_section.extend_from_slice(&(src_offsets.len() as u32).to_le_bytes());
        for o in &src_offsets {
            src_section.extend_from_slice(&o.to_le_bytes());
        }
        src_section.extend_from_slice(&src_records);

        let mut w = SectionWriter::new(MAGIC, BINARY_VERSION, Vec::new());
        w.section(SEC_MODEL, model_bytes);
        w.section(SEC_ARENA, arena.finish());
        w.section(SEC_OBJECTS, obj_section);
        w.section(SEC_TRIPLES, tri_section);
        w.section(SEC_SOURCES, src_section);
        Ok(w.finish())
    }

    /// Deserialize a binary snapshot produced by [`Store::to_binary`],
    /// rebuilding the adjacency indexes.
    pub fn from_binary(bytes: &[u8]) -> Result<Store, crate::SnapshotError> {
        let reader = SnapshotReader::open(bytes)?;
        Ok(reader.read_store()?)
    }
}

// ----------------------------------------------------------- the reader --

/// Lazy, borrowing view of a binary store image.
///
/// Opening verifies the header, section table and every section CRC, and
/// parses nothing else: objects, triples and sources resolve on demand from
/// the offset tables, straight out of the borrowed buffer. Use
/// [`SnapshotReader::read_store`] to materialize a full heap [`Store`].
pub struct SnapshotReader<'a> {
    model_bytes: &'a [u8],
    arena: ArenaReader<'a>,
    object_count: usize,
    object_offsets: &'a [u8],
    object_records: &'a [u8],
    triple_count: usize,
    triple_records: &'a [u8],
    source_count: usize,
    source_offsets: &'a [u8],
    source_records: &'a [u8],
}

impl<'a> SnapshotReader<'a> {
    /// Open an image: verify magic, version, header CRC, section layout and
    /// per-section CRCs. O(buffer) for the CRC pass, no materialization.
    pub fn open(buf: &'a [u8]) -> Result<SnapshotReader<'a>, BinaryError> {
        let sections = Sections::open(buf, MAGIC, BINARY_VERSION, 0)?;
        if sections.len() != 5 {
            return Err(BinaryError::Sections {
                detail: "expected exactly 5 sections",
            });
        }
        let model_bytes = sections.get(SEC_MODEL, "model")?;
        let arena = ArenaReader::open(sections.get(SEC_ARENA, "arena")?, "arena")?;

        let obj = sections.get(SEC_OBJECTS, "objects")?;
        let mut c = Cursor::new(obj, "objects");
        let object_count = c.u32()? as usize;
        let object_offsets =
            c.bytes(object_count.checked_mul(4).ok_or(BinaryError::Malformed {
                section: "objects",
                detail: "count overflow",
            })?)?;
        let object_records = &obj[c.pos()..];

        let tri = sections.get(SEC_TRIPLES, "triples")?;
        let mut c = Cursor::new(tri, "triples");
        let triple_count = c.u32()? as usize;
        let triple_records = &tri[c.pos()..];

        let src = sections.get(SEC_SOURCES, "sources")?;
        let mut c = Cursor::new(src, "sources");
        let source_count = c.u32()? as usize;
        let source_offsets =
            c.bytes(source_count.checked_mul(4).ok_or(BinaryError::Malformed {
                section: "sources",
                detail: "count overflow",
            })?)?;
        let source_records = &src[c.pos()..];

        Ok(SnapshotReader {
            model_bytes,
            arena,
            object_count,
            object_offsets,
            object_records,
            triple_count,
            triple_records,
            source_count,
            source_offsets,
            source_records,
        })
    }

    /// Number of object slots (aliases included).
    pub fn object_count(&self) -> usize {
        self.object_count
    }

    /// Number of triples.
    pub fn triple_count(&self) -> usize {
        self.triple_count
    }

    /// Number of registered sources.
    pub fn source_count(&self) -> usize {
        self.source_count
    }

    /// Parse the domain model blob (the one materializing accessor — the
    /// model is stored as an opaque serde_json section).
    pub fn read_model(&self) -> Result<DomainModel, BinaryError> {
        serde_json::from_slice(self.model_bytes).map_err(|_| BinaryError::Malformed {
            section: "model",
            detail: "model blob does not parse",
        })
    }

    fn record_at(
        &self,
        offsets: &'a [u8],
        records: &'a [u8],
        count: usize,
        i: usize,
        section: &'static str,
    ) -> Result<Cursor<'a>, BinaryError> {
        debug_assert!(i < count);
        let start = u32::from_le_bytes(offsets[i * 4..i * 4 + 4].try_into().unwrap()) as usize;
        if start > records.len() {
            return Err(BinaryError::Malformed {
                section,
                detail: "record offset out of bounds",
            });
        }
        let mut c = Cursor::new(records, section);
        c.pos = start;
        Ok(c)
    }

    /// Resolve object slot `i` on demand from its offset-table entry.
    pub fn object(&self, i: usize) -> Result<Object, BinaryError> {
        if i >= self.object_count {
            return Err(BinaryError::Malformed {
                section: "objects",
                detail: "object index out of range",
            });
        }
        let mut c = self.record_at(
            self.object_offsets,
            self.object_records,
            self.object_count,
            i,
            "objects",
        )?;
        let class = ClassId(
            u16::try_from(c.varint()?).map_err(|_| BinaryError::Malformed {
                section: "objects",
                detail: "class id does not fit",
            })?,
        );
        let merged = c.varint()?;
        let merged_into = if merged == 0 {
            None
        } else {
            Some(ObjectId(merged - 1))
        };
        let nattrs = c.index()?;
        if nattrs > self.object_records.len() {
            return Err(BinaryError::Malformed {
                section: "objects",
                detail: "attr count exceeds section",
            });
        }
        let mut attrs = Vec::with_capacity(nattrs);
        for _ in 0..nattrs {
            let a = AttrId(
                u16::try_from(c.varint()?).map_err(|_| BinaryError::Malformed {
                    section: "objects",
                    detail: "attr id does not fit",
                })?,
            );
            attrs.push((a, read_value(&mut c, &self.arena)?));
        }
        let nsources = c.index()?;
        if nsources > self.object_records.len() {
            return Err(BinaryError::Malformed {
                section: "objects",
                detail: "source count exceeds section",
            });
        }
        let mut srcs = Vec::with_capacity(nsources);
        for _ in 0..nsources {
            let s = u32::try_from(c.varint()?).map_err(|_| BinaryError::Malformed {
                section: "objects",
                detail: "source id does not fit",
            })?;
            srcs.push(SourceId(s));
        }
        Ok(Object {
            class,
            attrs,
            sources: srcs,
            merged_into,
        })
    }

    /// Iterate the triples, decoding each on demand from the buffer.
    pub fn triples(&self) -> TripleIter<'a> {
        TripleIter {
            cursor: Cursor::new(self.triple_records, "triples"),
            remaining: self.triple_count,
            prev_subject: 0,
        }
    }

    /// Resolve source `i` on demand.
    pub fn source(&self, i: usize) -> Result<SourceInfo, BinaryError> {
        if i >= self.source_count {
            return Err(BinaryError::Malformed {
                section: "sources",
                detail: "source index out of range",
            });
        }
        let mut c = self.record_at(
            self.source_offsets,
            self.source_records,
            self.source_count,
            i,
            "sources",
        )?;
        let name = self.arena.get(c.varint()?)?.to_owned();
        let kind = kind_from_tag(c.u8()?)?;
        let location = match c.u8()? {
            0 => None,
            1 => Some(self.arena.get(c.varint()?)?.to_owned()),
            _ => {
                return Err(BinaryError::Malformed {
                    section: "sources",
                    detail: "bad location tag",
                })
            }
        };
        Ok(SourceInfo {
            name,
            kind,
            location,
        })
    }

    /// Materialize the full heap [`Store`] (rebuilds adjacency indexes).
    pub fn read_store(&self) -> Result<Store, BinaryError> {
        let model = self.read_model()?;
        let mut objects = Vec::with_capacity(self.object_count);
        for i in 0..self.object_count {
            objects.push(self.object(i)?);
        }
        let mut triples = Vec::with_capacity(self.triple_count.min(1 << 24));
        for t in self.triples() {
            triples.push(t?);
        }
        let mut sources = Vec::with_capacity(self.source_count);
        for i in 0..self.source_count {
            sources.push(self.source(i)?);
        }
        // Ids inside records must stay inside the image's tables: a
        // snapshot can never reference objects or sources it does not
        // define, nor classes, attributes or associations its model lacks.
        let nobj = objects.len() as u64;
        let nsrc = sources.len() as u64;
        let nclasses = model.class_count() as u64;
        let nassocs = model.assoc_count() as u64;
        let nattrs = model.attr_count() as u64;
        for o in &objects {
            if u64::from(o.class.0) >= nclasses
                || o.merged_into.is_some_and(|m| m.0 >= nobj)
                || o.sources.iter().any(|s| u64::from(s.0) >= nsrc)
                || o.attrs.iter().any(|(a, _)| u64::from(a.0) >= nattrs)
            {
                return Err(BinaryError::Malformed {
                    section: "objects",
                    detail: "dangling id",
                });
            }
        }
        for t in &triples {
            if t.subject.0 >= nobj
                || t.object.0 >= nobj
                || u64::from(t.assoc.0) >= nassocs
                || u64::from(t.source.0) >= nsrc
            {
                return Err(BinaryError::Malformed {
                    section: "triples",
                    detail: "dangling id",
                });
            }
        }
        Ok(Store::from_parts(model, objects, triples, sources))
    }
}

/// Lazy triple iterator over the triples section.
pub struct TripleIter<'a> {
    cursor: Cursor<'a>,
    remaining: usize,
    prev_subject: i64,
}

impl Iterator for TripleIter<'_> {
    type Item = Result<Triple, BinaryError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let mut step = || -> Result<Triple, BinaryError> {
            let delta = unzigzag(self.cursor.varint()?);
            let subject = self
                .prev_subject
                .checked_add(delta)
                .filter(|&s| s >= 0)
                .ok_or(BinaryError::Malformed {
                    section: "triples",
                    detail: "subject delta underflow",
                })?;
            self.prev_subject = subject;
            let assoc = AssocId(u16::try_from(self.cursor.varint()?).map_err(|_| {
                BinaryError::Malformed {
                    section: "triples",
                    detail: "assoc id does not fit",
                }
            })?);
            let object = ObjectId(self.cursor.varint()?);
            let source = SourceId(u32::try_from(self.cursor.varint()?).map_err(|_| {
                BinaryError::Malformed {
                    section: "triples",
                    detail: "source id does not fit",
                }
            })?);
            Ok(Triple {
                subject: ObjectId(subject as u64),
                assoc,
                object,
                source,
            })
        };
        let r = step();
        if r.is_err() {
            self.remaining = 0; // stop after the first error
        }
        Some(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semex_model::names::{assoc, attr, class};

    fn sample_store() -> Store {
        let mut st = Store::with_builtin_model();
        let person = st.model().class(class::PERSON).unwrap();
        let publication = st.model().class(class::PUBLICATION).unwrap();
        let authored = st.model().assoc(assoc::AUTHORED_BY).unwrap();
        let name = st.model().attr(attr::NAME).unwrap();
        let title = st.model().attr(attr::TITLE).unwrap();
        let year = st.model().attr(attr::YEAR).unwrap();
        let src = st.register_source(SourceInfo::new("inbox", SourceKind::Email));
        let src2 = st
            .register_source(SourceInfo::new("library", SourceKind::Bibliography).at("~/refs.bib"));
        let ann = st.add_object(person);
        let dup = st.add_object(person);
        st.add_attr(ann, name, Value::from("Ann Smith")).unwrap();
        st.add_attr(dup, name, Value::from("A. Smith")).unwrap();
        st.add_source_to(ann, src);
        let paper = st.add_object(publication);
        st.add_attr(paper, title, Value::from("On Binary Snapshots"))
            .unwrap();
        st.add_attr(paper, year, Value::from(2005i64)).unwrap();
        st.add_triple(paper, authored, dup, src2).unwrap();
        st.merge(ann, dup).unwrap();
        st
    }

    #[test]
    fn round_trip_preserves_everything() {
        let st = sample_store();
        let bytes = st.to_binary().unwrap();
        let st2 = Store::from_binary(&bytes).unwrap();
        assert_eq!(st.to_json().unwrap(), st2.to_json().unwrap());
    }

    #[test]
    fn empty_store_round_trips() {
        let st = Store::with_builtin_model();
        let bytes = st.to_binary().unwrap();
        let st2 = Store::from_binary(&bytes).unwrap();
        assert_eq!(st.to_json().unwrap(), st2.to_json().unwrap());
    }

    #[test]
    fn binary_is_smaller_than_json() {
        let st = sample_store();
        assert!(st.to_binary().unwrap().len() < st.to_json().unwrap().len());
    }

    #[test]
    fn lazy_reader_resolves_without_materializing() {
        let st = sample_store();
        let bytes = st.to_binary().unwrap();
        let r = SnapshotReader::open(&bytes).unwrap();
        assert_eq!(r.object_count(), 3);
        assert_eq!(r.triple_count(), 1);
        assert_eq!(r.source_count(), 2);
        // Random access by slot, no scan.
        let o2 = r.object(2).unwrap();
        assert!(o2.merged_into.is_none());
        let o1 = r.object(1).unwrap();
        assert_eq!(o1.merged_into, Some(ObjectId(0)));
        let s1 = r.source(1).unwrap();
        assert_eq!(s1.name, "library");
        assert_eq!(s1.location.as_deref(), Some("~/refs.bib"));
        let t: Vec<_> = r.triples().collect::<Result<_, _>>().unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let bytes = sample_store().to_binary().unwrap();
        for cut in 0..bytes.len() {
            let r = SnapshotReader::open(&bytes[..cut]).map(|r| r.read_store());
            assert!(
                matches!(r, Err(_) | Ok(Err(_))),
                "truncation at {cut} was not rejected"
            );
        }
    }

    #[test]
    fn every_bit_flip_is_a_typed_error() {
        let bytes = sample_store().to_binary().unwrap();
        // Flip one bit per byte position; all must be caught by a CRC or a
        // structural check (nothing in the image is unguarded).
        for pos in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x10;
            let r = SnapshotReader::open(&bad).map(|r| r.read_store());
            assert!(
                matches!(r, Err(_) | Ok(Err(_))),
                "bit flip at {pos} was not rejected"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = sample_store().to_binary().unwrap();
        bytes.extend_from_slice(b"xx");
        assert!(matches!(
            SnapshotReader::open(&bytes),
            Err(BinaryError::Bounds { .. })
        ));
    }

    #[test]
    fn wrong_magic_and_version_are_distinct() {
        let bytes = sample_store().to_binary().unwrap();
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert_eq!(
            SnapshotReader::open(&wrong_magic).err(),
            Some(BinaryError::BadMagic)
        );
        // A future version must be refused *before* any CRC check, so the
        // error names the version, not a checksum.
        let mut wrong_version = bytes;
        wrong_version[8] = 99;
        assert!(matches!(
            SnapshotReader::open(&wrong_version).err(),
            Some(BinaryError::Version {
                found: 99,
                expected: BINARY_VERSION
            })
        ));
    }

    #[test]
    fn varint_round_trips() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut out = Vec::new();
            write_varint(v, &mut out);
            let mut c = Cursor::new(&out, "test");
            assert_eq!(c.varint().unwrap(), v);
            assert!(c.at_end());
        }
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -123456] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn crc32_known_vectors() {
        // The standard CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn crc32_sensitive_to_single_bit_flips() {
        let base = crc32(b"semex journal record");
        let mut flipped = b"semex journal record".to_vec();
        flipped[7] ^= 0x01;
        assert_ne!(crc32(&flipped), base);
    }

    #[test]
    fn crc32_sliced_path_matches_byte_at_a_time() {
        // Cross-check every length 0..64 so the 8-byte fast path and the
        // remainder loop agree with the reference definition.
        let reference = |bytes: &[u8]| -> u32 {
            let mut crc = 0xFFFF_FFFFu32;
            for &b in bytes {
                crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
            }
            !crc
        };
        let data: Vec<u8> = (0..64u8)
            .map(|i| i.wrapping_mul(37).wrapping_add(11))
            .collect();
        for len in 0..=data.len() {
            assert_eq!(crc32(&data[..len]), reference(&data[..len]), "len {len}");
        }
    }
}
