//! Log-structured incremental indexing over the engine's store format.
//!
//! The batch pipeline (scan → invert → signatures) rebuilds the world
//! on every corpus change. This crate makes the index *live*: each
//! committed batch (a document batch, a set of deletes) becomes one
//! small immutable index segment ([`segment`]) that reuses the engine's
//! block-compressed posting codec, tracked by a crash-safe generation
//! manifest ([`manifest`]), and folded back together by a compactor
//! ([`compact`]). Base snapshot + segments are read as one index
//! through [`Merged`] (merge-on-read), by the serving tier and the
//! compactor alike; because segments are encoded with the batch
//! pipeline's own rules and cover disjoint ascending document ranges,
//! served answers are bit-identical to a from-scratch rebuild of the
//! same logical corpus.
//!
//! Durability contract: a commit ([`IngestDir::append`],
//! [`IngestDir::delete`]) is two `inspire_store::publish` calls — the
//! batch's segment, then the manifest that names it — and returns only
//! once the manifest is on disk. The manifest rename is the commit
//! point: a crash before it leaves the previous generation plus strays
//! (a `.tmp` file, an unlisted segment), which [`IngestDir::open`]
//! removes; a crash after it leaves the new generation. The handle
//! adopts a new manifest only once it is on disk. One [`IngestDir`]
//! handle writes a directory at a time.

pub mod compact;
pub mod manifest;
pub mod merged;
pub mod metrics;
pub mod segment;

pub use compact::{compact as compact_dir, CompactReport};
pub use manifest::{
    clean_strays, migrate_dir, peek_generation, Manifest, SegmentRef, MANIFEST_FILE, WAL_FILE,
};
pub use merged::Merged;
pub use metrics::{load_registry as load_ingest_metrics, IngestMetrics, METRICS_FILE};
pub use segment::{Segment, SegmentBuild, SEG_VERSION};

use corpus::Source;
use inspire_core::snapshot::EngineSnapshot;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// One committed mutation, with the numbers the ingest bench reports.
#[derive(Debug, Clone)]
pub struct AppendStats {
    /// Documents the batch added (0 for deletes).
    pub docs: u32,
    /// Size of the sealed segment file.
    pub segment_bytes: u64,
    /// Always 0: there is no log to append to. Kept because the
    /// benchmark's `ingest.wal.append_ms` row still reads it.
    pub wal_s: f64,
    /// Seconds from the call to the new generation being on disk.
    pub seal_s: f64,
    /// Manifest generation after the commit.
    pub generation: u64,
    pub segment_file: String,
}

/// What [`IngestDir::open`] had to repair.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Always 0: nothing is sealed at open. Kept, like `torn_bytes`,
    /// because the benchmark's restart check still reads it.
    pub sealed_records: usize,
    /// Always 0 (see `sealed_records`).
    pub torn_bytes: u64,
    /// Stray files (crash leftovers) removed.
    pub removed_strays: usize,
}

fn now_unix() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// An `InvalidData` error naming the file or directory at fault.
pub(crate) fn bad(path: &Path, msg: String) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("{}: {msg}", path.display()),
    )
}

/// A live ingest directory: manifest + segments (+ a base engine
/// snapshot referenced by absolute path). All mutation goes through
/// this handle; readers (the serving tier) only ever open the files the
/// manifest names.
pub struct IngestDir {
    dir: PathBuf,
    /// The manifest on disk: replaced only after a publish returns, and
    /// re-read after any mutation fails.
    manifest: Manifest,
    /// Cumulative latency sidecar (see [`metrics`]); best-effort.
    metrics: IngestMetrics,
    /// Filled by [`IngestDir::open`] when it had work to do.
    pub recovery: RecoveryReport,
}

impl IngestDir {
    /// Initialize `dir` over `base` (an engine snapshot of at least the
    /// Index stage). Errors if `dir` already holds a manifest.
    pub fn create(dir: &Path, base: Option<&Path>) -> io::Result<IngestDir> {
        std::fs::create_dir_all(dir)?;
        if Manifest::load(dir)?.is_some() {
            return Err(bad(dir, "already an ingest directory".into()));
        }
        let (base_abs, base_docs) = match base {
            Some(p) => {
                let abs = std::fs::canonicalize(p)?;
                let snap = EngineSnapshot::open(&abs)?;
                (Some(abs), snap.meta().total_docs)
            }
            None => (None, 0),
        };
        let manifest = Manifest::new(base_abs, base_docs);
        manifest.store(dir)?;
        Ok(IngestDir {
            dir: dir.to_path_buf(),
            manifest,
            metrics: IngestMetrics::load(dir),
            recovery: RecoveryReport::default(),
        })
    }

    /// Open an existing ingest directory and remove the strays a crashed
    /// commit or compaction left. After this returns, the directory
    /// holds exactly the files its manifest names (and the sidecar).
    pub fn open(dir: &Path) -> io::Result<IngestDir> {
        let manifest = Manifest::require(dir)?;
        let removed_strays = clean_strays(dir, &manifest)?.len();
        Ok(IngestDir {
            dir: dir.to_path_buf(),
            manifest,
            metrics: IngestMetrics::load(dir),
            recovery: RecoveryReport {
                removed_strays,
                ..RecoveryReport::default()
            },
        })
    }

    /// Open if initialized, otherwise create over `base`.
    pub fn open_or_create(dir: &Path, base: Option<&Path>) -> io::Result<IngestDir> {
        if Manifest::load(dir)?.is_some() {
            IngestDir::open(dir)
        } else {
            IngestDir::create(dir, base)
        }
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// Total documents across base + segments.
    pub fn total_docs(&self) -> u32 {
        self.manifest.next_doc_base()
    }

    /// Append one document batch: sealed into a segment and visible once
    /// this returns.
    pub fn append(&mut self, source: Source) -> io::Result<AppendStats> {
        self.commit(|doc_base| segment::build_from_batch(&source, doc_base))
    }

    /// Tombstone existing documents by global id.
    pub fn delete(&mut self, ids: Vec<u32>) -> io::Result<AppendStats> {
        let limit = self.total_docs();
        if let Some(&out_of_range) = ids.iter().find(|&&d| d >= limit) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("cannot delete doc {out_of_range}: only {limit} documents exist"),
            ));
        }
        self.commit(|doc_base| segment::build_tombstones(doc_base, ids))
    }

    /// Seal the segment `build` makes at the next document id, then
    /// publish the manifest that lists it — the commit point. The seal
    /// latency reaches the metrics sidecar after the commit.
    fn commit(&mut self, build: impl FnOnce(u32) -> SegmentBuild) -> io::Result<AppendStats> {
        let started = Instant::now();
        let build = build(self.total_docs());
        let mut next = self.manifest.clone();
        let file = next.next_segment_file();
        next.segments.push(SegmentRef {
            file: file.clone(),
            doc_base: build.doc_base,
            doc_count: build.doc_count,
        });
        next.next_seq += 1;
        next.generation += 1;
        next.last_seal_unix = now_unix();
        let segment_bytes = self.mutate(|dir| {
            let bytes = segment::write_segment(dir, &file, &build)?;
            next.store(dir)?;
            Ok(bytes)
        })?;
        self.manifest = next;
        let seal_s = started.elapsed().as_secs_f64();
        self.metrics.observe_seconds("seal_latency_seconds", seal_s);
        self.metrics.store().ok(); // observational: a failed write never fails a commit
        Ok(AppendStats {
            docs: build.doc_count,
            segment_bytes,
            wal_s: 0.0,
            seal_s,
            generation: self.manifest.generation,
            segment_file: file,
        })
    }

    /// Run a mutation of the directory. On failure the handle re-reads
    /// the manifest: a publish whose directory fsync failed has still
    /// renamed its file into place, and a handle that kept the old
    /// manifest would reuse its segment sequence number.
    fn mutate<T>(&mut self, f: impl FnOnce(&Path) -> io::Result<T>) -> io::Result<T> {
        f(&self.dir).inspect_err(|_| {
            if let Ok(m) = Manifest::require(&self.dir) {
                self.manifest = m;
            }
        })
    }

    /// Fold all segments into one (see [`compact`]). Reloads the
    /// manifest (and the metrics sidecar the compactor appended to) so
    /// this handle sees the new generation.
    pub fn compact(&mut self) -> io::Result<Option<CompactReport>> {
        let report = self.mutate(compact::compact)?;
        if report.is_some() {
            self.manifest = Manifest::require(&self.dir)?;
            self.metrics = IngestMetrics::load(&self.dir);
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corpus::FormatKind;

    fn medline(name: &str, text: &str) -> Source {
        Source {
            name: name.into(),
            data: text.as_bytes().to_vec(),
            format: FormatKind::Medline,
        }
    }

    #[test]
    fn append_seal_recover_compact_lifecycle() {
        let dir = std::env::temp_dir().join(format!("ingest_life_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut ing = IngestDir::create(&dir, None).unwrap();
        let s1 = ing
            .append(medline(
                "a",
                "TI  - alpha beta\nAB  - gamma alpha words\n\n",
            ))
            .unwrap();
        assert_eq!(s1.docs, 1);
        assert_eq!(s1.generation, 1);
        let s2 = ing.append(medline("b", "TI  - delta beta\n\n")).unwrap();
        assert_eq!((s2.generation, s2.wal_s), (2, 0.0));
        drop(ing);
        let mut ing = IngestDir::open(&dir).unwrap();
        assert_eq!(ing.recovery.removed_strays, 0);
        assert_eq!(ing.manifest().segments.len(), 2);
        assert_eq!(ing.total_docs(), 2);

        let report = ing.compact().unwrap().expect("two segments fold");
        assert_eq!(report.segments_before, 2);
        assert_eq!(ing.manifest().segments.len(), 1);
        assert!(ing.compact().unwrap().is_none());
        assert!(ing.delete(vec![99]).is_err());
        ing.delete(vec![0]).unwrap();
        assert_eq!(ing.manifest().segments.len(), 2);

        // The metrics sidecar accumulated across every commit and the
        // compaction pass.
        let reg = load_ingest_metrics(&dir).expect("sidecar written");
        let seals = reg.histogram("seal_latency_seconds").expect("seal hist");
        assert_eq!(seals.count(), 3, "two appends + delete");
        assert!(reg.histogram("compaction_duration_seconds").is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A commit whose manifest publish fails is not committed: the
    /// handle keeps the generation on disk, so the next commit publishes
    /// only its own batch.
    #[test]
    fn a_failed_manifest_publish_is_not_published_by_the_next_commit() {
        let dir = std::env::temp_dir().join(format!("ingest_failpub_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut ing = IngestDir::create(&dir, None).unwrap();
        ing.append(medline("a", "TI  - alpha beta\n\n")).unwrap();
        let blocker = dir.join(format!("{MANIFEST_FILE}.tmp"));
        std::fs::create_dir(&blocker).unwrap();
        let err = ing.append(medline("b", "TI  - gamma\n\n")).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::IsADirectory, "{err}");
        assert_eq!((ing.manifest().generation, ing.total_docs()), (1, 1));
        std::fs::remove_dir(&blocker).unwrap();
        let s = ing.append(medline("c", "TI  - delta\n\n")).unwrap();
        assert_eq!(s.generation, 2);
        drop(ing);
        let ing = IngestDir::open(&dir).unwrap();
        assert_eq!(ing.total_docs(), 2, "the failed batch stays out");
        assert_eq!(ing.manifest().segments.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }
}
