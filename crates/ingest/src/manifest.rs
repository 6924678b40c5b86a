//! The generation manifest: the single source of truth for what an
//! ingest directory currently serves.
//!
//! The manifest is a small text file rewritten atomically (through
//! `inspire_store::publish`) on every state change; its last line is a
//! CRC32 over every preceding byte so a torn rename target or bit rot is
//! rejected rather than half-trusted. Readers that race a writer see either the old or
//! the new generation, never a mix — this is the "atomic generation
//! flip" the serving tier polls.
//!
//! ```text
//! inspire-ingest-manifest v2
//! generation 7
//! base /abs/path/base.isnap     (or `-` when there is no base yet)
//! base_docs 1280
//! last_seal_unix 1765432100
//! next_seq 4
//! segment seg-000001.iseg 1280 64
//! segment seg-000003.iseg 1344 64
//! crc 0x89ab12cd
//! ```
//!
//! Segment files are named by an ever-increasing sequence number, so a
//! crashed sealer or compactor can never collide with a live file; any
//! `seg-*.iseg` on disk that the manifest does not list is a stray from
//! a crash window and is deleted on the next open.
//!
//! The previous layout (`inspire-ingest-manifest v1`) put a write-ahead
//! log in front of every segment and recorded how much of it was sealed
//! (`wal_sealed_bytes`). Such a manifest is refused at load, naming
//! `vaengine migrate --dir`, which converts it with [`migrate_dir`].

use crate::bad;
use std::io;
use std::path::{Path, PathBuf};

/// Manifest file name inside an ingest directory.
pub const MANIFEST_FILE: &str = "MANIFEST";
const MAGIC: &str = "inspire-ingest-manifest v2";
/// First line of the previous layout's manifest.
const MAGIC_V1: &str = "inspire-ingest-manifest v1";
/// The write-ahead log of the previous layout, which [`migrate_dir`]
/// removes. Nothing writes it any more; the name stays public because
/// the benchmark still counts its (absent) bytes.
pub const WAL_FILE: &str = "wal.log";

/// One live segment, in document order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentRef {
    /// File name relative to the ingest directory.
    pub file: String,
    /// Global id of the segment's first document.
    pub doc_base: u32,
    /// Documents the segment adds (0 for tombstone-only segments).
    pub doc_count: u32,
}

/// Parsed manifest state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Bumped on every visible state change (seal, delete, compaction).
    pub generation: u64,
    /// Next segment sequence number (never reused).
    pub next_seq: u64,
    /// Absolute path of the base engine snapshot, if any.
    pub base: Option<PathBuf>,
    /// Documents in the base snapshot.
    pub base_docs: u32,
    /// Wall-clock seconds of the most recent seal (0 before the first).
    pub last_seal_unix: u64,
    /// Live segments in ascending `doc_base` order.
    pub segments: Vec<SegmentRef>,
}

impl Manifest {
    /// Fresh manifest over `base` (already validated by the caller).
    pub fn new(base: Option<PathBuf>, base_docs: u32) -> Manifest {
        Manifest {
            generation: 0,
            next_seq: 1,
            base,
            base_docs,
            last_seal_unix: 0,
            segments: Vec::new(),
        }
    }

    /// First unassigned global document id: base docs plus everything
    /// the segments added.
    pub fn next_doc_base(&self) -> u32 {
        self.base_docs + self.segments.iter().map(|s| s.doc_count).sum::<u32>()
    }

    /// File name for the next sealed segment.
    pub fn next_segment_file(&self) -> String {
        format!("seg-{:06}.iseg", self.next_seq)
    }

    pub fn path_in(dir: &Path) -> PathBuf {
        dir.join(MANIFEST_FILE)
    }

    fn render(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str(MAGIC);
        out.push('\n');
        out.push_str(&format!("generation {}\n", self.generation));
        match &self.base {
            Some(p) => out.push_str(&format!("base {}\n", p.display())),
            None => out.push_str("base -\n"),
        }
        out.push_str(&format!("base_docs {}\n", self.base_docs));
        out.push_str(&format!("last_seal_unix {}\n", self.last_seal_unix));
        out.push_str(&format!("next_seq {}\n", self.next_seq));
        for s in &self.segments {
            out.push_str(&format!(
                "segment {} {} {}\n",
                s.file, s.doc_base, s.doc_count
            ));
        }
        out.push_str(&format!(
            "crc 0x{:08x}\n",
            inspire_store::crc32(out.as_bytes())
        ));
        out
    }

    /// Durably and atomically replace the manifest under `dir`: on
    /// return, the rename is on disk, so anything that depends on this
    /// generation may be acknowledged. A manifest [`Manifest::load`]
    /// would refuse is never published.
    pub fn store(&self, dir: &Path) -> io::Result<()> {
        let path = Self::path_in(dir);
        self.check(&path)?;
        inspire_store::publish(&path, |tmp| std::fs::write(tmp, self.render()))
    }

    /// Load the manifest under `dir`, which must be an ingest directory.
    pub fn require(dir: &Path) -> io::Result<Manifest> {
        Self::load(dir)?.ok_or_else(|| not_ingest(dir))
    }

    /// Load the manifest under `dir`; `Ok(None)` when none exists yet.
    pub fn load(dir: &Path) -> io::Result<Option<Manifest>> {
        let path = Self::path_in(dir);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        // A flipped byte can leave the text invalid UTF-8: that is
        // corruption of this file, and the refusal names it.
        let text = String::from_utf8(bytes)
            .map_err(|e| bad(&path, format!("corrupt: not UTF-8 text ({e})")))?;
        Self::parse(&path, checked_body(&path, &text)?).map(Some)
    }

    /// Parse the CRC-checked lines above the `crc` line.
    fn parse(path: &Path, covered: &str) -> io::Result<Manifest> {
        let mut lines = covered.lines();
        match lines.next() {
            Some(MAGIC) => {}
            Some(MAGIC_V1) => {
                let dir = path.parent().unwrap_or(Path::new("."));
                return Err(bad(
                    path,
                    format!(
                        "previous ingest layout (`{MAGIC_V1}`); convert it once with \
                         `vaengine migrate --dir {}`",
                        dir.display()
                    ),
                ));
            }
            _ => return Err(bad(path, format!("not a manifest (expected `{MAGIC}`)"))),
        }
        let mut m = Manifest::new(None, 0);
        let mut seen_generation = false;
        for line in lines {
            let mut it = line.split_whitespace();
            let key = it.next().unwrap_or("");
            let parse_u64 = |v: Option<&str>| -> io::Result<u64> {
                v.and_then(|s| s.parse().ok())
                    .ok_or_else(|| bad(path, format!("malformed line `{line}`")))
            };
            // Document counts and ids are u32: refuse, never truncate.
            let parse_u32 = |v: Option<&str>| -> io::Result<u32> {
                let v = parse_u64(v)?;
                u32::try_from(v)
                    .map_err(|_| bad(path, format!("line `{line}` records {v}, beyond u32")))
            };
            match key {
                "generation" => {
                    m.generation = parse_u64(it.next())?;
                    seen_generation = true;
                }
                "base" => {
                    let v = it
                        .next()
                        .ok_or_else(|| bad(path, format!("malformed line `{line}`")))?;
                    m.base = (v != "-").then(|| PathBuf::from(v));
                }
                "base_docs" => m.base_docs = parse_u32(it.next())?,
                "last_seal_unix" => m.last_seal_unix = parse_u64(it.next())?,
                "next_seq" => m.next_seq = parse_u64(it.next())?,
                "segment" => {
                    let file = it
                        .next()
                        .ok_or_else(|| bad(path, format!("malformed line `{line}`")))?
                        .to_string();
                    let doc_base = parse_u32(it.next())?;
                    let doc_count = parse_u32(it.next())?;
                    m.segments.push(SegmentRef {
                        file,
                        doc_base,
                        doc_count,
                    });
                }
                "" => {}
                other => return Err(bad(path, format!("unknown manifest key `{other}`"))),
            }
        }
        if !seen_generation {
            return Err(bad(path, "missing generation line".into()));
        }
        m.check(path)?;
        Ok(m)
    }

    /// Segments must tile the document space contiguously above the
    /// base; a gap means a manifest from one directory is being read
    /// against another's files.
    fn check(&self, path: &Path) -> io::Result<()> {
        let mut next = self.base_docs;
        for s in &self.segments {
            if s.doc_base != next {
                return Err(bad(
                    path,
                    format!(
                        "segment {} starts at doc {} but {} documents precede it",
                        s.file, s.doc_base, next
                    ),
                ));
            }
            next = next.checked_add(s.doc_count).ok_or_else(|| {
                let msg = format!(
                    "segment {} adds {} documents to {next}, beyond u32",
                    s.file, s.doc_count
                );
                bad(path, msg)
            })?;
        }
        Ok(())
    }
}

fn not_ingest(dir: &Path) -> io::Error {
    bad(dir, "not an ingest directory (no manifest)".into())
}

/// The text above the manifest's `crc` line, once the CRC32 it records
/// matches and nothing follows that line. A refusal quotes at most the
/// head of the `crc` line and counts what follows it, so bytes appended
/// to the file never reach the message.
fn checked_body<'a>(path: &Path, text: &'a str) -> io::Result<&'a str> {
    let crc_at = text
        .rfind("crc 0x")
        .ok_or_else(|| bad(path, "missing crc line".into()))?;
    let (crc_line, after) = text[crc_at..]
        .split_once('\n')
        .unwrap_or((&text[crc_at..], ""));
    if !after.is_empty() {
        let msg = format!("{} bytes follow the crc line", after.len());
        return Err(bad(path, msg));
    }
    let stored = u32::from_str_radix(&crc_line["crc 0x".len()..], 16)
        .map_err(|_| bad(path, format!("malformed crc line `{crc_line:.32}`")))?;
    let covered = &text[..crc_at];
    let actual = inspire_store::crc32(covered.as_bytes());
    if actual != stored {
        return Err(bad(
            path,
            format!("checksum mismatch: stored 0x{stored:08x}, computed 0x{actual:08x}"),
        ));
    }
    Ok(covered)
}

/// Convert an ingest directory in the previous layout to the current
/// one: `Ok(true)` once converted, `Ok(false)` when it already is.
///
/// The previous layout acknowledged a batch once its log record was
/// durable, so a log that runs past the manifest's `wal_sealed_bytes`
/// holds acknowledged batches no segment has: that directory is refused,
/// naming both lengths, and left as it is — the build that wrote it
/// seals them on its next open. Otherwise every batch lives in a
/// segment; the current manifest is published with the same generation
/// and segments, then the log is removed as a stray (as the next open
/// would, after a crash between the two).
pub fn migrate_dir(dir: &Path) -> io::Result<bool> {
    let path = Manifest::path_in(dir);
    let text = std::fs::read_to_string(&path).map_err(|e| match e.kind() {
        io::ErrorKind::NotFound => not_ingest(dir),
        _ => e,
    })?;
    let covered = checked_body(&path, &text)?;
    let Some(rest) = covered.strip_prefix(MAGIC_V1) else {
        Manifest::parse(&path, covered)?;
        return Ok(false);
    };
    let (mut current, mut sealed) = (String::from(MAGIC), None);
    for line in rest.lines() {
        match line.strip_prefix("wal_sealed_bytes ") {
            Some(v) => sealed = v.parse::<u64>().ok(),
            None => current.push_str(line),
        }
        current.push('\n');
    }
    let sealed = sealed.ok_or_else(|| bad(&path, "no valid `wal_sealed_bytes` line".into()))?;
    let m = Manifest::parse(&path, &current)?;
    let wal = dir.join(WAL_FILE);
    let len = match std::fs::metadata(&wal) {
        Ok(meta) => meta.len(),
        Err(e) if e.kind() == io::ErrorKind::NotFound => 0,
        Err(e) => return Err(e),
    };
    if len != sealed {
        return Err(bad(
            &wal,
            format!(
                "{len} bytes, but the manifest seals {sealed}: open the directory with \
                 the build that wrote it to seal the rest, then migrate"
            ),
        ));
    }
    m.store(dir)?;
    clean_strays(dir, &m)?;
    Ok(true)
}

/// Remove crash leftovers: `*.tmp` files, `seg-*.iseg` files the
/// manifest does not list, and a previous-layout log an interrupted
/// [`migrate_dir`] left. Both crash windows of a commit or a compaction
/// (file written but manifest not flipped; manifest flipped but old
/// files not yet unlinked) land here. The metrics sidecar
/// (`ingest_metrics.json`, see [`crate::metrics`]) survives — only its
/// own `.tmp` from a crashed atomic rewrite is swept.
pub fn clean_strays(dir: &Path, m: &Manifest) -> io::Result<Vec<PathBuf>> {
    let mut removed = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy().into_owned();
        let is_leftover = name.ends_with(".tmp") || name == WAL_FILE;
        let is_orphan_seg = name.starts_with("seg-")
            && name.ends_with(".iseg")
            && !m.segments.iter().any(|s| s.file == name);
        if is_leftover || is_orphan_seg {
            std::fs::remove_file(entry.path())?;
            removed.push(entry.path());
        }
    }
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_rejects_corruption_and_checks_tiling() {
        let dir = std::env::temp_dir().join(format!("manifest_rt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut m = Manifest::new(Some(PathBuf::from("/x/base.isnap")), 100);
        m.generation = 3;
        m.next_seq = 3;
        m.last_seal_unix = 1_700_000_000;
        m.segments.push(SegmentRef {
            file: "seg-000001.iseg".into(),
            doc_base: 100,
            doc_count: 40,
        });
        m.segments.push(SegmentRef {
            file: "seg-000002.iseg".into(),
            doc_base: 140,
            doc_count: 0,
        });
        m.store(&dir).unwrap();
        assert_eq!(Manifest::load(&dir).unwrap().unwrap(), m);
        assert_eq!(m.next_doc_base(), 140);

        // Any flipped byte in the covered region is rejected.
        let path = Manifest::path_in(&dir);
        let good = std::fs::read(&path).unwrap();
        let mut bad_bytes = good.clone();
        bad_bytes[MAGIC.len() + 12] ^= 1;
        std::fs::write(&path, &bad_bytes).unwrap();
        assert!(Manifest::load(&dir).is_err());
        std::fs::write(&path, &good).unwrap();

        // Strays: unlisted segment and tmp files go, listed ones stay.
        std::fs::write(dir.join("seg-000001.iseg"), b"listed").unwrap();
        std::fs::write(dir.join("seg-000009.iseg"), b"orphan").unwrap();
        std::fs::write(dir.join("seg-000010.iseg.tmp"), b"tmp").unwrap();
        let removed = clean_strays(&dir, &m).unwrap();
        assert_eq!(removed.len(), 2);
        assert!(dir.join("seg-000001.iseg").exists());
        assert!(!dir.join("seg-000009.iseg").exists());

        // A gap in the document tiling is structural corruption: never
        // published, and refused when found on disk.
        m.segments[1].doc_base = 150;
        assert!(m.store(&dir).is_err());
        assert_eq!(std::fs::read(&path).unwrap(), good);
        std::fs::write(&path, m.render()).unwrap();
        assert!(Manifest::load(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Bytes appended after the `crc` line are refused by their count in
    /// one short line naming the file, never quoted.
    #[test]
    fn appended_bytes_are_counted_not_quoted() {
        let dir = std::env::temp_dir().join(format!("manifest_tail_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = Manifest::path_in(&dir);
        let good = Manifest::new(None, 0).render();
        let huge = "garbage line\n".repeat((1 << 20) / 13 + 1).into_bytes();
        for (tail, count) in [(&b"garbage line\n"[..], 13), (&huge[..1 << 20], 1 << 20)] {
            std::fs::write(&path, [good.as_bytes(), tail].concat()).unwrap();
            let err = Manifest::load(&dir).unwrap_err().to_string();
            let want = format!("{}: {count} bytes follow the crc line", path.display());
            assert_eq!(err, want);
            assert!(err.len() < 200 && !err.contains('\n'), "{err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Counts past u32 are refused by name, never truncated, and a
    /// tiling whose end leaves u32 is refused instead of overflowing.
    #[test]
    fn counts_beyond_u32_are_refused() {
        let dir = std::env::temp_dir().join(format!("manifest_u32_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let max = u32::MAX as u64;
        let cases = [
            format!("base_docs {}\n", max + 1),
            format!("base_docs 0\nsegment seg-000001.iseg 0 {}\n", max + 3),
            format!("base_docs {}\nsegment seg-000001.iseg {0} 20\n", max - 10),
        ];
        for lines in cases {
            let body = format!("{MAGIC}\ngeneration 1\nbase -\n{lines}");
            let text = format!(
                "{body}crc 0x{:08x}\n",
                inspire_store::crc32(body.as_bytes())
            );
            std::fs::write(Manifest::path_in(&dir), text).unwrap();
            let err = Manifest::load(&dir).unwrap_err().to_string();
            assert!(err.contains("beyond u32"), "{lines}: {err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
