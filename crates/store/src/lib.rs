//! # inspire-store — single-file versioned snapshot container
//!
//! The engine's persistent products (vocabulary, postings, statistics,
//! signatures, coordinates, …) are stored in one self-describing file so
//! that query serving and checkpoint/resume load in milliseconds instead
//! of re-running the pipeline. The container is deliberately dumb: it
//! knows nothing about the engine, only about **named, typed, checksummed
//! byte sections**.
//!
//! ## File layout (all integers little-endian)
//!
//! ```text
//! [0 ..  8)  magic  "INSPSNP1"
//! [8 .. 12)  format version (u32, currently 2)
//! [12.. 16)  section count (u32)
//! [16.. 24)  section table offset (u64, 64-byte aligned)
//! [24.. 32)  total file size (u64)
//! [32.. 36)  header CRC32 over bytes [0..32)
//! [36.. 64)  reserved, must be zero
//! -- sections, contiguous, each starting at a 64-byte-aligned offset --
//! [u64 payload length][payload bytes][zero padding to the next 64-byte
//! boundary]; the section CRC covers this whole padded extent.
//! -- section table at the table offset --
//! per section, 32 bytes: name (8 bytes, NUL-padded ASCII), offset (u64),
//! payload length (u64), element kind (u32), CRC32 (u32)
//! -- trailing u32: CRC32 over the table bytes --
//! ```
//!
//! Every byte of the file is covered by exactly one checksum (header CRC,
//! a section CRC, or the table CRC), and the header records the total
//! size, so **any** single bit flip, truncation, or appended garbage is
//! rejected at open time — there is no silent partial load.
//!
//! ## Version-bump rules
//!
//! * Adding a new section, or new meaning for unused bytes of an existing
//!   section, does **not** bump the format version — readers ignore
//!   sections they don't know.
//! * Changing the header, table entry layout, alignment, or the encoding
//!   of an existing section **bumps** `FORMAT_VERSION`; readers reject
//!   versions they don't understand rather than guessing.
//! * Version 2 added the [`SectionKind::Packed`] and [`SectionKind::Skip`]
//!   element kinds (block-compressed lists, see [`codec`]). This reader
//!   accepts version 2 only and refuses every other version by number,
//!   version 1 included.
//!
//! ## Zero-copy typed views
//!
//! The reader loads the file into an 8-byte-aligned buffer; because every
//! payload starts 8 bytes past a 64-byte boundary, `u32`/`u64`/`i64`/
//! `f64` views are reinterpretations of the section bytes — no per-row
//! parsing on load.

pub mod codec;

use std::fmt;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Magic bytes identifying a snapshot container.
pub const MAGIC: &[u8; 8] = b"INSPSNP1";

/// Current container format version (see the version-bump rules above).
pub const FORMAT_VERSION: u32 = 2;

/// Section alignment: payloads start 8 bytes past these boundaries.
pub const ALIGN: u64 = 64;

const HEADER_LEN: u64 = 64;
const TABLE_ENTRY_LEN: u64 = 32;
const MAX_NAME: usize = 8;

// Typed views reinterpret little-endian file bytes in place; a big-endian
// host would need byte-swapping copies this crate does not implement.
#[cfg(target_endian = "big")]
compile_error!("inspire-store's zero-copy views require a little-endian host");

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, polynomial 0xEDB88320)
// ---------------------------------------------------------------------------

// Slicing-by-8 tables: table 0 is the classic Sarwate byte table, table
// j extends it by one byte of zero-padding, so eight lookups advance the
// register over eight input bytes at once.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
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
        t[0][i] = c;
        i += 1;
    }
    let mut j = 1;
    while j < 8 {
        let mut i = 0;
        while i < 256 {
            t[j][i] = t[0][(t[j - 1][i] & 0xFF) as usize] ^ (t[j - 1][i] >> 8);
            i += 1;
        }
        j += 1;
    }
    t
};

/// Streaming CRC32 accumulator.
#[derive(Debug, Clone, Copy)]
pub struct Crc32(u32);

impl Crc32 {
    pub fn new() -> Self {
        Crc32(0xFFFF_FFFF)
    }

    pub fn update(&mut self, bytes: &[u8]) {
        let mut c = self.0;
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let lo = u32::from_le_bytes(chunk[0..4].try_into().unwrap()) ^ c;
            let hi = u32::from_le_bytes(chunk[4..8].try_into().unwrap());
            c = CRC_TABLES[7][(lo & 0xFF) as usize]
                ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
                ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
                ^ CRC_TABLES[4][(lo >> 24) as usize]
                ^ CRC_TABLES[3][(hi & 0xFF) as usize]
                ^ CRC_TABLES[2][((hi >> 8) & 0xFF) as usize]
                ^ CRC_TABLES[1][((hi >> 16) & 0xFF) as usize]
                ^ CRC_TABLES[0][(hi >> 24) as usize];
        }
        for &b in chunks.remainder() {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        self.0 = c;
    }

    pub fn finish(self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// CRC32 of a whole byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

// ---------------------------------------------------------------------------
// Section kinds
// ---------------------------------------------------------------------------

/// Element type of a section, recorded in the table so a reader can
/// validate a typed view request against what the writer stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum SectionKind {
    /// Raw bytes.
    Bytes = 1,
    /// Little-endian `u32` elements.
    U32 = 2,
    /// Little-endian `u64` elements.
    U64 = 3,
    /// Little-endian `i64` elements.
    I64 = 4,
    /// Little-endian IEEE-754 `f64` elements.
    F64 = 5,
    /// Block-compressed varint stream (see [`codec`]); opaque bytes to
    /// the container, but tagged so readers know a raw-bytes view is
    /// *encoded* data, not a plain blob.
    Packed = 7,
    /// Skip-pointer entries (`u64`, [`codec::skip_entry`] layout) for a
    /// `Packed` section.
    Skip = 8,
    /// Scalar-quantized vector codes: fixed-width records of `u8`
    /// components, one record per vector. The record width is engine
    /// metadata, not container metadata, so readers validate it with
    /// [`SectionView::as_records`].
    Quant = 9,
}

impl SectionKind {
    fn from_u32(v: u32) -> Option<SectionKind> {
        match v {
            1 => Some(SectionKind::Bytes),
            2 => Some(SectionKind::U32),
            3 => Some(SectionKind::U64),
            4 => Some(SectionKind::I64),
            5 => Some(SectionKind::F64),
            7 => Some(SectionKind::Packed),
            8 => Some(SectionKind::Skip),
            9 => Some(SectionKind::Quant),
            _ => None,
        }
    }

    /// Element size in bytes (1 for `Bytes`/`Packed`/`Quant`).
    pub fn elem_size(self) -> usize {
        match self {
            SectionKind::Bytes | SectionKind::Packed | SectionKind::Quant => 1,
            SectionKind::U32 => 4,
            SectionKind::U64 | SectionKind::I64 | SectionKind::F64 | SectionKind::Skip => 8,
        }
    }
}

impl fmt::Display for SectionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SectionKind::Bytes => "bytes",
            SectionKind::U32 => "u32",
            SectionKind::U64 => "u64",
            SectionKind::I64 => "i64",
            SectionKind::F64 => "f64",
            SectionKind::Packed => "packed",
            SectionKind::Skip => "skip",
            SectionKind::Quant => "quant",
        };
        f.write_str(s)
    }
}

fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Publish a file at `path` durably and atomically — every file the
/// system publishes goes through here. `write` fills `<path>.tmp`; that
/// file is fsynced and renamed over `path`, then the parent directory is
/// fsynced so the rename survives a crash. On an error before the rename
/// the tmp file is removed and `path` is left as it was; an error from
/// the directory fsync is returned too, with the new file in place and
/// its durability unknown.
pub fn publish<T>(path: &Path, write: impl FnOnce(&Path) -> io::Result<T>) -> io::Result<T> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let value = write(&tmp)
        .and_then(|value| {
            std::fs::File::open(&tmp)?.sync_all()?;
            std::fs::rename(&tmp, path)?;
            Ok(value)
        })
        .inspect_err(|_| {
            let _ = std::fs::remove_file(&tmp);
        })?;
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    std::fs::File::open(dir.unwrap_or(Path::new(".")))?.sync_all()?;
    Ok(value)
}

/// Padded on-disk extent of a payload of `len` bytes (length prefix +
/// payload, rounded up to the alignment).
fn extent(len: u64) -> u64 {
    (8 + len).div_ceil(ALIGN) * ALIGN
}

#[derive(Debug, Clone)]
struct Entry {
    name: [u8; MAX_NAME],
    offset: u64,
    len: u64,
    kind: SectionKind,
    crc: u32,
}

impl Entry {
    fn name_str(&self) -> &str {
        let end = self.name.iter().position(|&b| b == 0).unwrap_or(MAX_NAME);
        // Names are validated ASCII on both the write and read paths.
        std::str::from_utf8(&self.name[..end]).expect("section name is ASCII")
    }
}

/// Per-section byte counts reported by [`SnapshotWriter::finish`].
#[derive(Debug, Clone)]
pub struct SnapshotStats {
    /// Total file size in bytes, including header, padding, and table.
    pub total_bytes: u64,
    /// `(section name, payload bytes)` in write order.
    pub sections: Vec<(String, u64)>,
}

/// Largest single `write` the snapshot writer issues.
const WRITE_CHUNK: usize = 128 << 10;

/// Streams checksummed sections into a snapshot file. Sections are
/// written (and flushed) as they are added; [`SnapshotWriter::finish`]
/// appends the section table and patches the header. A file that was not
/// `finish`ed has a zeroed header and is rejected by [`Snapshot::open`],
/// so an interrupted write can never be mistaken for a snapshot.
pub struct SnapshotWriter {
    file: io::BufWriter<std::fs::File>,
    pos: u64,
    entries: Vec<Entry>,
}

impl SnapshotWriter {
    /// Create (truncate) `path` and reserve the header.
    pub fn create(path: &Path) -> io::Result<SnapshotWriter> {
        let file = std::fs::File::create(path)?;
        let mut w = SnapshotWriter {
            file: io::BufWriter::new(file),
            pos: 0,
            entries: Vec::new(),
        };
        w.write_all(&[0u8; HEADER_LEN as usize])?;
        Ok(w)
    }

    fn write_all(&mut self, bytes: &[u8]) -> io::Result<()> {
        // One `write` per section would hand the kernel tens of megabytes
        // at once; it then builds the page cache from its largest folios,
        // and what those cost swings with the state of the free lists
        // (10 ms or 250 ms for the same 28 MB on a VM that returns free
        // blocks to its host). Bounded writes get small, steady pages.
        for chunk in bytes.chunks(WRITE_CHUNK) {
            self.file.write_all(chunk)?;
        }
        self.pos += bytes.len() as u64;
        Ok(())
    }

    fn encode_name(name: &str) -> io::Result<[u8; MAX_NAME]> {
        let b = name.as_bytes();
        if b.is_empty() || b.len() > MAX_NAME {
            return Err(bad(format!(
                "section name `{name}` must be 1..={MAX_NAME} bytes"
            )));
        }
        if !b.iter().all(|&c| c.is_ascii_graphic()) {
            return Err(bad(format!(
                "section name `{name}` must be printable ASCII"
            )));
        }
        let mut out = [0u8; MAX_NAME];
        out[..b.len()].copy_from_slice(b);
        Ok(out)
    }

    /// Append one section of `kind` elements, written straight from
    /// `data`'s memory. The payload is length-prefixed, padded to the
    /// 64-byte alignment, and CRC-checksummed over the padded extent.
    pub fn add_section<T: Scalar>(
        &mut self,
        name: &str,
        kind: SectionKind,
        data: &[T],
    ) -> io::Result<()> {
        let payload = as_bytes(data);
        // Raw bytes may carry any kind's encoding (a section copied through).
        let raw = std::mem::size_of::<T>() == 1 && payload.len().is_multiple_of(kind.elem_size());
        if !T::KINDS.contains(&kind) && !raw {
            let ty = std::any::type_name::<T>();
            return Err(bad(format!("section `{name}`: {ty} data is not {kind}")));
        }
        let name_bytes = Self::encode_name(name)?;
        if self.entries.iter().any(|e| e.name == name_bytes) {
            return Err(bad(format!("duplicate section name `{name}`")));
        }
        debug_assert_eq!(self.pos % ALIGN, 0, "sections start aligned");
        let offset = self.pos;
        let len = payload.len() as u64;
        let mut crc = Crc32::new();
        let prefix = len.to_le_bytes();
        crc.update(&prefix);
        self.write_all(&prefix)?;
        crc.update(payload);
        self.write_all(payload)?;
        let pad = (extent(len) - 8 - len) as usize;
        let zeros = [0u8; ALIGN as usize];
        crc.update(&zeros[..pad]);
        self.write_all(&zeros[..pad])?;
        self.entries.push(Entry {
            name: name_bytes,
            offset,
            len,
            kind,
            crc: crc.finish(),
        });
        Ok(())
    }

    /// Append scalar-quantized vector codes: `records` fixed-width rows
    /// of `record` `u8` components each. Rejects payloads whose length
    /// is not `records * record`, so a malformed section can never be
    /// written in the first place.
    pub fn add_quant(
        &mut self,
        name: &str,
        payload: &[u8],
        records: usize,
        record: usize,
    ) -> io::Result<()> {
        if payload.len() != records.saturating_mul(record) {
            return Err(bad(format!(
                "quant section `{name}` has {} bytes, expected {records} records × {record} bytes",
                payload.len()
            )));
        }
        self.add_section(name, SectionKind::Quant, payload)
    }

    /// Write the section table, patch the header, and flush.
    pub fn finish(mut self) -> io::Result<SnapshotStats> {
        let table_offset = self.pos;
        debug_assert_eq!(table_offset % ALIGN, 0);
        let mut table = Vec::with_capacity(self.entries.len() * TABLE_ENTRY_LEN as usize);
        for e in &self.entries {
            table.extend_from_slice(&e.name);
            table.extend_from_slice(&e.offset.to_le_bytes());
            table.extend_from_slice(&e.len.to_le_bytes());
            table.extend_from_slice(&(e.kind as u32).to_le_bytes());
            table.extend_from_slice(&e.crc.to_le_bytes());
        }
        let table_crc = crc32(&table);
        self.write_all(&table.clone())?;
        self.write_all(&table_crc.to_le_bytes())?;
        let total = self.pos;

        let mut header = [0u8; HEADER_LEN as usize];
        header[0..8].copy_from_slice(MAGIC);
        header[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
        header[12..16].copy_from_slice(&(self.entries.len() as u32).to_le_bytes());
        header[16..24].copy_from_slice(&table_offset.to_le_bytes());
        header[24..32].copy_from_slice(&total.to_le_bytes());
        let hcrc = crc32(&header[0..32]);
        header[32..36].copy_from_slice(&hcrc.to_le_bytes());
        self.file.seek(SeekFrom::Start(0))?;
        self.file.write_all(&header)?;
        self.file.flush()?;

        Ok(SnapshotStats {
            total_bytes: total,
            sections: self
                .entries
                .iter()
                .map(|e| (e.name_str().to_string(), e.len))
                .collect(),
        })
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// A validated, loaded snapshot. Every checksum is verified at open time;
/// section accessors hand out zero-copy views over the loaded bytes.
pub struct Snapshot {
    /// 8-byte-aligned backing buffer holding the whole file.
    buf: Vec<u64>,
    /// File length in bytes (the buffer may be padded past it).
    len: usize,
    entries: Vec<Entry>,
    source: String,
}

impl Snapshot {
    /// Open and fully validate a snapshot file.
    pub fn open(path: &Path) -> io::Result<Snapshot> {
        let mut f = std::fs::File::open(path)?;
        let file_len = f.metadata()?.len() as usize;
        let mut buf = vec![0u64; file_len.div_ceil(8)];
        f.read_exact(&mut as_bytes_mut(&mut buf)[..file_len])?;
        if f.read(&mut [0u8; 1])? != 0 {
            return Err(bad(format!("{}: file grew while reading", path.display())));
        }
        Self::validate(buf, file_len, path.display().to_string())
    }

    /// Validate a snapshot already held in memory (the bytes of a whole
    /// file); `label` names the source in error messages.
    pub fn from_bytes(bytes: &[u8], label: &str) -> io::Result<Snapshot> {
        let mut buf = vec![0u64; bytes.len().div_ceil(8)];
        as_bytes_mut(&mut buf)[..bytes.len()].copy_from_slice(bytes);
        Self::validate(buf, bytes.len(), label.to_string())
    }

    fn validate(buf: Vec<u64>, len: usize, source: String) -> io::Result<Snapshot> {
        let whole = &as_bytes(&buf)[..len];
        let e = |msg: String| bad(format!("{source}: {msg}"));
        if len < HEADER_LEN as usize {
            return Err(e(format!("truncated header ({len} bytes)")));
        }
        if &whole[0..8] != MAGIC {
            return Err(e("not a snapshot container (bad magic)".into()));
        }
        let version = u32::from_le_bytes(whole[8..12].try_into().unwrap());
        if version != FORMAT_VERSION {
            return Err(e(format!(
                "unsupported format version {version} (reader understands {FORMAT_VERSION})"
            )));
        }
        let stored_hcrc = u32::from_le_bytes(whole[32..36].try_into().unwrap());
        if crc32(&whole[0..32]) != stored_hcrc {
            return Err(e("header checksum mismatch".into()));
        }
        if whole[36..64].iter().any(|&b| b != 0) {
            return Err(e("reserved header bytes are not zero".into()));
        }
        let count = u32::from_le_bytes(whole[12..16].try_into().unwrap()) as u64;
        let table_offset = u64::from_le_bytes(whole[16..24].try_into().unwrap());
        let total = u64::from_le_bytes(whole[24..32].try_into().unwrap());
        if total != len as u64 {
            return Err(e(format!(
                "size mismatch: header says {total} bytes, file has {len} (truncated or extended)"
            )));
        }
        if table_offset % ALIGN != 0 {
            return Err(e(format!("section table offset {table_offset} unaligned")));
        }
        let table_len = count
            .checked_mul(TABLE_ENTRY_LEN)
            .ok_or_else(|| e("section count overflow".into()))?;
        let table_end = table_offset
            .checked_add(table_len)
            .and_then(|v| v.checked_add(4))
            .ok_or_else(|| e("section table extends past u64".into()))?;
        if table_end != len as u64 {
            return Err(e(format!(
                "section table at {table_offset}+{table_len} does not end the file"
            )));
        }
        let table = &whole[table_offset as usize..(table_offset + table_len) as usize];
        let stored_tcrc = u32::from_le_bytes(whole[(table_end - 4) as usize..].try_into().unwrap());
        if crc32(table) != stored_tcrc {
            return Err(e("section table checksum mismatch".into()));
        }

        let mut entries = Vec::with_capacity(count as usize);
        let mut expect_offset = HEADER_LEN;
        for i in 0..count as usize {
            let row = &table[i * TABLE_ENTRY_LEN as usize..(i + 1) * TABLE_ENTRY_LEN as usize];
            let mut name = [0u8; MAX_NAME];
            name.copy_from_slice(&row[0..8]);
            let name_end = name.iter().position(|&b| b == 0).unwrap_or(MAX_NAME);
            if name_end == 0
                || !name[..name_end].iter().all(|&c| c.is_ascii_graphic())
                || name[name_end..].iter().any(|&b| b != 0)
            {
                return Err(e(format!("section {i}: malformed name")));
            }
            // Name every later complaint: with a base snapshot plus N
            // ingest segments open at once, "section 3" alone does not
            // say which list of which file went bad.
            let label = String::from_utf8_lossy(&name[..name_end]).into_owned();
            let offset = u64::from_le_bytes(row[8..16].try_into().unwrap());
            let slen = u64::from_le_bytes(row[16..24].try_into().unwrap());
            let kind =
                SectionKind::from_u32(u32::from_le_bytes(row[24..28].try_into().unwrap()))
                    .ok_or_else(|| e(format!("section {i} (`{label}`): unknown element kind")))?;
            let crc = u32::from_le_bytes(row[28..32].try_into().unwrap());
            if offset != expect_offset {
                return Err(e(format!(
                    "section {i} (`{label}`) at offset {offset}, expected {expect_offset} (sections must be contiguous)"
                )));
            }
            let ext = extent(slen);
            if offset + ext > table_offset {
                return Err(e(format!(
                    "section {i} (`{label}`) extent [{offset}, {}) overlaps the table",
                    offset + ext
                )));
            }
            let body = &whole[offset as usize..(offset + ext) as usize];
            if crc32(body) != crc {
                return Err(e(format!(
                    "section `{}` checksum mismatch at offset {offset}",
                    String::from_utf8_lossy(&name[..name_end])
                )));
            }
            let prefixed = u64::from_le_bytes(body[0..8].try_into().unwrap());
            if prefixed != slen {
                return Err(e(format!(
                    "section {i} (`{label}`): length prefix {prefixed} disagrees with table length {slen}"
                )));
            }
            if slen % kind.elem_size() as u64 != 0 {
                return Err(e(format!(
                    "section {i} (`{label}`): {slen} bytes is not a multiple of the {kind} element size"
                )));
            }
            if entries.iter().any(|p: &Entry| p.name == name) {
                return Err(e(format!("duplicate section name `{label}` at entry {i}")));
            }
            entries.push(Entry {
                name,
                offset,
                len: slen,
                kind,
                crc,
            });
            expect_offset = offset + ext;
        }
        if expect_offset != table_offset {
            return Err(e(format!(
                "gap between last section end {expect_offset} and table offset {table_offset}"
            )));
        }
        Ok(Snapshot {
            buf,
            len,
            entries,
            source,
        })
    }

    /// Path or label the snapshot was loaded from.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// `(name, kind, payload bytes)` of every section, in file order.
    pub fn sections(&self) -> impl Iterator<Item = (&str, SectionKind, u64)> + '_ {
        self.entries.iter().map(|e| (e.name_str(), e.kind, e.len))
    }

    /// Whether a section exists.
    pub fn has(&self, name: &str) -> bool {
        self.entries.iter().any(|e| e.name_str() == name)
    }

    /// A view over the named section, if present.
    pub fn section(&self, name: &str) -> Option<SectionView<'_>> {
        let e = self.entries.iter().find(|e| e.name_str() == name)?;
        let start = e.offset as usize + 8;
        Some(SectionView {
            name: e.name_str().to_string(),
            kind: e.kind,
            bytes: &as_bytes(&self.buf)[start..start + e.len as usize],
            source: &self.source,
        })
    }

    /// A view over the named section, or an error naming the source.
    pub fn require(&self, name: &str) -> io::Result<SectionView<'_>> {
        self.section(name)
            .ok_or_else(|| bad(format!("{}: missing section `{name}`", self.source)))
    }

    /// Total file size in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.len as u64
    }
}

/// A zero-copy view of one section's payload.
pub struct SectionView<'a> {
    name: String,
    kind: SectionKind,
    bytes: &'a [u8],
    source: &'a str,
}

impl<'a> SectionView<'a> {
    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn kind(&self) -> SectionKind {
        self.kind
    }

    /// The raw payload bytes.
    pub fn bytes(&self) -> &'a [u8] {
        self.bytes
    }

    fn expect_kind(&self, want: SectionKind) -> io::Result<()> {
        if self.kind != want {
            return Err(bad(format!(
                "{}: section `{}` holds {} elements, requested {want}",
                self.source, self.name, self.kind
            )));
        }
        Ok(())
    }

    /// The payload as `T` elements, for any kind stored as `T`s. Sound
    /// for the plain-old-data [`Scalar`] types: every bit pattern is a
    /// valid value, and payloads start 8 bytes past a 64-byte boundary of
    /// an 8-byte-aligned buffer, so `align_to` never produces a prefix
    /// or suffix.
    pub fn as_slice<T: Scalar>(&self) -> io::Result<&'a [T]> {
        // SAFETY: any bit pattern is a valid `Scalar`; alignment is
        // guaranteed by the container layout (checked below).
        let (prefix, mid, suffix) = unsafe { self.bytes.align_to::<T>() };
        if !T::KINDS.contains(&self.kind) || !prefix.is_empty() || !suffix.is_empty() {
            return Err(bad(format!(
                "{}: section `{}` ({}) is not a whole, aligned run of {} elements",
                self.source,
                self.name,
                self.kind,
                std::any::type_name::<T>()
            )));
        }
        Ok(mid)
    }

    /// The payload as little-endian `u32` elements.
    pub fn as_u32s(&self) -> io::Result<&'a [u32]> {
        self.as_slice()
    }

    /// The payload as little-endian `u64` elements.
    pub fn as_u64s(&self) -> io::Result<&'a [u64]> {
        self.expect_kind(SectionKind::U64)?;
        self.as_slice()
    }

    /// The payload as little-endian `f64` elements.
    pub fn as_f64s(&self) -> io::Result<&'a [f64]> {
        self.as_slice()
    }

    /// The payload of a block-compressed section (decode via [`codec`]).
    pub fn as_packed(&self) -> io::Result<&'a [u8]> {
        self.expect_kind(SectionKind::Packed)?;
        Ok(self.bytes)
    }

    /// The payload as skip-pointer entries ([`codec::skip_entry`] layout).
    pub fn as_skips(&self) -> io::Result<&'a [u64]> {
        self.expect_kind(SectionKind::Skip)?;
        self.as_slice()
    }

    /// The payload of a quantized-vector section as fixed-width records
    /// of `record` bytes each. A length that is not a whole number of
    /// records is a corrupt or truncated section and is rejected here,
    /// by name, instead of panicking on a short slice downstream.
    pub fn as_records(&self, record: usize) -> io::Result<&'a [u8]> {
        self.expect_kind(SectionKind::Quant)?;
        if record == 0 {
            return Err(bad(format!(
                "{}: section `{}` record size must be nonzero",
                self.source, self.name
            )));
        }
        if !self.bytes.len().is_multiple_of(record) {
            return Err(bad(format!(
                "{}: quant section `{}` has {} bytes, not a multiple of the {record}-byte per-doc record size",
                self.source,
                self.name,
                self.bytes.len()
            )));
        }
        Ok(self.bytes)
    }
}

/// Element types whose memory is their file encoding on a little-endian
/// host — fixed width, no padding — and the kinds each may be stored as.
/// Sealed, because [`as_bytes`] trusts it.
pub trait Scalar: sealed::Pod {}
impl<T: sealed::Pod> Scalar for T {}
mod sealed {
    use super::SectionKind::{self, *};
    pub trait Pod: Copy {
        const KINDS: &'static [SectionKind];
    }
    impl Pod for u8 {
        const KINDS: &'static [SectionKind] = &[Bytes, Packed, Quant];
    }
    impl Pod for u32 {
        const KINDS: &'static [SectionKind] = &[U32];
    }
    impl Pod for u64 {
        const KINDS: &'static [SectionKind] = &[U64, Skip];
    }
    impl Pod for i64 {
        const KINDS: &'static [SectionKind] = &[I64];
    }
    impl Pod for f64 {
        const KINDS: &'static [SectionKind] = &[F64];
    }
}

/// `data`'s memory as bytes — on the hosts this crate builds for (see the
/// `compile_error!` above) its little-endian encoding, so the writer
/// emits typed sections without an intermediate copy.
fn as_bytes<T: Scalar>(data: &[T]) -> &[u8] {
    // SAFETY: `Scalar` types have no padding, u8 has no alignment
    // requirement and any byte is valid.
    unsafe { std::slice::from_raw_parts(data.as_ptr().cast(), std::mem::size_of_val(data)) }
}

fn as_bytes_mut(buf: &mut [u64]) -> &mut [u8] {
    // SAFETY: as above, and the borrow is exclusive.
    unsafe { std::slice::from_raw_parts_mut(buf.as_mut_ptr() as *mut u8, buf.len() * 8) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("inspire-store-test-{}-{name}", std::process::id()));
        p
    }

    fn sample(path: &Path) -> SnapshotStats {
        let mut w = SnapshotWriter::create(path).unwrap();
        w.add_section("ids", SectionKind::U32, &[1u32, 2, 3, 0xFFFF_FFFF])
            .unwrap();
        w.add_section("vals", SectionKind::F64, &[0.5, -1.25, f64::MAX, 0.0])
            .unwrap();
        w.add_section("big", SectionKind::U64, &[u64::MAX, 7])
            .unwrap();
        w.add_section("off", SectionKind::I64, &[-1, 0, i64::MAX])
            .unwrap();
        w.add_section("blob", SectionKind::Bytes, b"arbitrary \x00 bytes")
            .unwrap();
        w.add_section("empty", SectionKind::Bytes, b"").unwrap();
        w.finish().unwrap()
    }

    #[test]
    fn roundtrip_all_kinds() {
        let path = tmp("roundtrip.snap");
        let stats = sample(&path);
        assert_eq!(stats.sections.len(), 6);
        let s = Snapshot::open(&path).unwrap();
        assert_eq!(
            s.require("ids").unwrap().as_u32s().unwrap(),
            &[1, 2, 3, 0xFFFF_FFFF]
        );
        assert_eq!(
            s.require("vals").unwrap().as_f64s().unwrap(),
            &[0.5, -1.25, f64::MAX, 0.0]
        );
        assert_eq!(s.require("big").unwrap().as_u64s().unwrap(), &[u64::MAX, 7]);
        assert_eq!(
            s.require("off").unwrap().as_slice::<i64>().unwrap(),
            &[-1, 0, i64::MAX]
        );
        assert_eq!(s.require("blob").unwrap().bytes(), b"arbitrary \x00 bytes");
        assert_eq!(s.require("empty").unwrap().bytes(), b"");
        assert!(!s.has("nope"));
        assert!(s.require("nope").is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn from_bytes_matches_open() {
        let path = tmp("frombytes.snap");
        sample(&path);
        let bytes = std::fs::read(&path).unwrap();
        let s = Snapshot::from_bytes(&bytes, "mem").unwrap();
        assert_eq!(s.require("big").unwrap().as_u64s().unwrap(), &[u64::MAX, 7]);
        assert_eq!(s.source(), "mem");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn kind_mismatch_is_an_error() {
        let path = tmp("kind.snap");
        sample(&path);
        let s = Snapshot::open(&path).unwrap();
        assert!(s.require("ids").unwrap().as_f64s().is_err());
        assert!(s.require("vals").unwrap().as_u32s().is_err());
        assert!(s.require("blob").unwrap().as_packed().is_err());
        // The generic view follows the element type, not one kind.
        let ids = s.require("ids").unwrap();
        assert_eq!(ids.as_slice::<u32>().unwrap(), ids.as_u32s().unwrap());
        assert!(ids.as_slice::<u64>().is_err());
        assert!(s.require("blob").unwrap().as_slice::<u8>().is_ok());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn writer_rejects_bad_names() {
        let path = tmp("names.snap");
        let mut w = SnapshotWriter::create(&path).unwrap();
        assert!(w.add_section("", SectionKind::Bytes, b"x").is_err());
        assert!(w
            .add_section("waytoolong", SectionKind::Bytes, b"x")
            .is_err());
        assert!(w
            .add_section("has space", SectionKind::Bytes, b"x")
            .is_err());
        w.add_section("ok", SectionKind::Bytes, b"x").unwrap();
        assert!(
            w.add_section("ok", SectionKind::Bytes, b"y").is_err(),
            "duplicate must fail"
        );
        w.finish().unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unfinished_file_is_rejected() {
        let path = tmp("unfinished.snap");
        {
            let mut w = SnapshotWriter::create(&path).unwrap();
            w.add_section("ids", SectionKind::U32, &[1u32, 2, 3])
                .unwrap();
            // Dropped without finish(): header stays zeroed.
        }
        assert!(Snapshot::open(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn garbage_and_empty_rejected() {
        let path = tmp("garbage.snap");
        std::fs::write(&path, b"this is not a snapshot at all").unwrap();
        assert!(Snapshot::open(&path).is_err());
        std::fs::write(&path, b"").unwrap();
        assert!(Snapshot::open(&path).is_err());
        std::fs::remove_file(&path).ok();
        assert!(Snapshot::from_bytes(&[], "empty").is_err());
    }

    #[test]
    fn every_truncation_is_rejected() {
        let path = tmp("trunc.snap");
        sample(&path);
        let full = std::fs::read(&path).unwrap();
        for cut in 0..full.len() {
            assert!(
                Snapshot::from_bytes(&full[..cut], "cut").is_err(),
                "truncation to {cut} bytes accepted"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let path = tmp("trail.snap");
        sample(&path);
        let mut full = std::fs::read(&path).unwrap();
        full.push(0);
        assert!(Snapshot::from_bytes(&full, "ext").is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sample_bit_flips_are_rejected() {
        let path = tmp("flip.snap");
        sample(&path);
        let full = std::fs::read(&path).unwrap();
        // The exhaustive sweep lives in the workspace proptest suite;
        // here, hit every region: header, magic, payload, padding, table.
        for &pos in &[0usize, 9, 70, 100, full.len() - 5, full.len() - 40] {
            for bit in 0..8 {
                let mut corrupt = full.clone();
                corrupt[pos] ^= 1 << bit;
                assert!(
                    Snapshot::from_bytes(&corrupt, "flip").is_err(),
                    "bit {bit} of byte {pos} accepted"
                );
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_snapshot_roundtrips() {
        let path = tmp("empty.snap");
        let w = SnapshotWriter::create(&path).unwrap();
        let stats = w.finish().unwrap();
        assert_eq!(stats.sections.len(), 0);
        let s = Snapshot::open(&path).unwrap();
        assert_eq!(s.sections().count(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sections_longer_than_a_write_chunk_roundtrip() {
        // Two and a bit chunks of f64s followed by a second section: the
        // chunked writes must leave bytes, offsets and checksums intact.
        let path = tmp("chunked.snap");
        let big: Vec<f64> = (0..(2 * WRITE_CHUNK / 8 + 37))
            .map(|i| i as f64 * 0.5 - 3.0)
            .collect();
        let mut w = SnapshotWriter::create(&path).unwrap();
        w.add_section("big", SectionKind::F64, &big).unwrap();
        w.add_section("after", SectionKind::U32, &[7u32, 8, 9])
            .unwrap();
        w.finish().unwrap();
        let s = Snapshot::open(&path).unwrap();
        assert_eq!(s.require("big").unwrap().as_f64s().unwrap(), &big[..]);
        assert_eq!(s.require("after").unwrap().as_u32s().unwrap(), &[7, 8, 9]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn packed_and_skip_sections_roundtrip() {
        let path = tmp("packed.snap");
        let pairs: Vec<(u32, u32)> = (0..300).map(|i| (i * 3, i % 7)).collect();
        let mut blob = Vec::new();
        let mut skips = Vec::new();
        codec::encode_list(&pairs, &mut blob, &mut skips);
        let mut w = SnapshotWriter::create(&path).unwrap();
        w.add_section("plist", SectionKind::Packed, &blob).unwrap();
        w.add_section("pskip", SectionKind::Skip, &skips).unwrap();
        w.finish().unwrap();

        let s = Snapshot::open(&path).unwrap();
        let view = s.require("plist").unwrap();
        assert_eq!(view.kind(), SectionKind::Packed);
        assert_eq!(view.as_packed().unwrap(), &blob[..]);
        assert!(view.as_u32s().is_err(), "packed is not a u32 view");
        let sv = s.require("pskip").unwrap();
        assert_eq!(sv.as_skips().unwrap(), &skips[..]);
        assert!(sv.as_u64s().is_err(), "skip is not a plain u64 view");
        let mut got = Vec::new();
        codec::decode_list(view.as_packed().unwrap(), pairs.len(), &mut got).unwrap();
        assert_eq!(got, pairs);
        std::fs::remove_file(&path).ok();
    }

    /// Rewrite a finished file's header version field (recomputing the
    /// header CRC), mimicking files written by other format versions.
    fn with_version(path: &Path, version: u32) -> Vec<u8> {
        let mut bytes = std::fs::read(path).unwrap();
        bytes[8..12].copy_from_slice(&version.to_le_bytes());
        let hcrc = crc32(&bytes[0..32]);
        bytes[32..36].copy_from_slice(&hcrc.to_le_bytes());
        bytes
    }

    #[test]
    fn version_range_is_enforced() {
        let path = tmp("versions.snap");
        sample(&path); // no kind newer than version 1
                       // The version-1 layout is no longer read, whatever its kinds.
        let err = Snapshot::from_bytes(&with_version(&path, 1), "v1")
            .err()
            .expect("a version-1 file must be refused")
            .to_string();
        assert!(err.contains("format version 1"), "{err}");
        assert!(Snapshot::from_bytes(&with_version(&path, 0), "v0").is_err());
        assert!(
            Snapshot::from_bytes(&with_version(&path, FORMAT_VERSION + 1), "vN").is_err(),
            "future versions must be rejected, not guessed at"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn quant_sections_roundtrip_and_validate_record_size() {
        let path = tmp("quant.snap");
        let codes: Vec<u8> = (0..5 * 7).map(|i| (i * 11 % 251) as u8).collect();
        let mut w = SnapshotWriter::create(&path).unwrap();
        w.add_quant("qsig", &codes, 5, 7).unwrap();
        assert!(
            w.add_quant("qbad", &codes, 5, 8).is_err(),
            "writer must reject a payload that is not records × record bytes"
        );
        assert!(
            w.add_section("qbad", SectionKind::U64, &[0.5f64]).is_err()
                && w.add_section("qbad", SectionKind::U32, &codes[..7])
                    .is_err(),
            "writer must reject data that is not of the section's kind"
        );
        w.finish().unwrap();

        let s = Snapshot::open(&path).unwrap();
        let view = s.require("qsig").unwrap();
        assert_eq!(view.kind(), SectionKind::Quant);
        assert_eq!(view.as_records(7).unwrap(), &codes[..]);
        assert!(view.as_u32s().is_err(), "quant is not a u32 view");
        // A reader expecting a different per-doc record size gets a
        // descriptive error naming the section, not a panic downstream.
        let err = view.as_records(8).unwrap_err().to_string();
        assert!(err.contains("qsig") && err.contains("8-byte"), "{err}");
        assert!(view.as_records(0).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn crc32_known_vector() {
        // The canonical IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_sliced_path_matches_bytewise_reference() {
        // Exercise the 8-byte fast path against a one-byte-at-a-time
        // reference, across lengths that hit every remainder size and
        // streaming splits that land mid-chunk.
        let data: Vec<u8> = (0..1021u32)
            .map(|i| (i.wrapping_mul(131) >> 3) as u8)
            .collect();
        for len in [0, 1, 7, 8, 9, 63, 64, 65, 1021] {
            let slice = &data[..len];
            let mut reference = 0xFFFF_FFFFu32;
            for &b in slice {
                reference =
                    CRC_TABLES[0][((reference ^ b as u32) & 0xFF) as usize] ^ (reference >> 8);
            }
            assert_eq!(crc32(slice), reference ^ 0xFFFF_FFFF, "len {len}");
            let mut streamed = Crc32::new();
            let split = len / 3;
            streamed.update(&slice[..split]);
            streamed.update(&slice[split..]);
            assert_eq!(streamed.finish(), crc32(slice), "split at {split} of {len}");
        }
    }

    /// A fresh directory per test: tests run in parallel, and the
    /// publish tests list everything left beside their file.
    fn scratch_dir(name: &str) -> PathBuf {
        let dir = tmp(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn entries(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn publish_replaces_the_destination_and_leaves_no_tmp() {
        let dir = scratch_dir("publish-ok");
        let path = dir.join("out.isnap");
        std::fs::write(&path, b"old").unwrap();
        let stats = publish(&path, |tmp| {
            assert_eq!(tmp, dir.join("out.isnap.tmp"));
            let mut w = SnapshotWriter::create(tmp)?;
            w.add_section("ids", SectionKind::U32, &[4u32, 5])?;
            w.finish()
        })
        .unwrap();
        let s = Snapshot::open(&path).unwrap();
        assert_eq!(s.total_bytes(), stats.total_bytes);
        assert_eq!(s.require("ids").unwrap().as_u32s().unwrap(), &[4, 5]);
        assert_eq!(entries(&dir), ["out.isnap"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_publish_keeps_the_old_destination_and_leaves_no_tmp() {
        let dir = scratch_dir("publish-fail");
        let path = dir.join("MANIFEST");
        std::fs::write(&path, b"old").unwrap();
        let err = publish(&path, |tmp| {
            std::fs::write(tmp, b"half a ")?;
            Err::<(), _>(io::Error::other("disk full"))
        })
        .unwrap_err();
        assert_eq!(err.to_string(), "disk full");
        assert_eq!(std::fs::read(&path).unwrap(), b"old");
        assert_eq!(entries(&dir), ["MANIFEST"]);

        // The rename is the step that fails here: a directory holds the
        // destination's name.
        let taken = dir.join("taken");
        std::fs::create_dir(&taken).unwrap();
        assert!(publish(&taken, |tmp| std::fs::write(tmp, b"new")).is_err());
        assert!(taken.is_dir());
        assert_eq!(entries(&dir), ["MANIFEST", "taken"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stats_report_payload_bytes() {
        let path = tmp("stats.snap");
        let stats = sample(&path);
        let ids = stats.sections.iter().find(|(n, _)| n == "ids").unwrap();
        assert_eq!(ids.1, 16);
        let s = Snapshot::open(&path).unwrap();
        assert_eq!(s.total_bytes(), stats.total_bytes);
        std::fs::remove_file(&path).ok();
    }
}
