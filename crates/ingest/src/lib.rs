//! Log-structured incremental indexing over the engine's store format.
//!
//! The batch pipeline (scan → invert → signatures) rebuilds the world
//! on every corpus change. This crate makes the index *live*: each
//! commit (a batch of sources and the deletes that ride with it) becomes
//! one small immutable index segment ([`segment`]) that reuses the
//! engine's block-compressed posting codec, tracked by a crash-safe
//! generation manifest ([`manifest`]), and folded back together by a
//! compactor ([`compact`]). Base snapshot + segments are read as one index
//! through [`Merged`] (merge-on-read), by the serving tier and the
//! compactor alike; because segments are encoded with the batch
//! pipeline's own rules and cover disjoint ascending document ranges,
//! served answers are bit-identical to a from-scratch rebuild of the
//! same logical corpus.
//!
//! Durability contract: every change to a directory — a commit
//! ([`IngestDir::commit`], and its one-source and tombstone-only forms
//! [`IngestDir::append`] and [`IngestDir::delete`]) or a compaction
//! ([`IngestDir::compact`]) — goes through one flip: two
//! `inspire_store::publish` calls, the new segment and then the manifest
//! in which it replaces the segments it folds (none, for a commit), and
//! returns only once the manifest is on disk. The manifest rename is the
//! commit point: a crash before it leaves the previous generation plus
//! strays (a `.tmp` file, an unlisted segment), which [`IngestDir::open`]
//! removes; a crash after it leaves the new generation, and any file it
//! replaced as a stray. The handle adopts a new manifest only once it is
//! on disk. After the commit point, a third `publish` rewrites the
//! latency sidecar ([`metrics`]); its failure is ignored, so it never
//! fails or undoes a flip. One [`IngestDir`] handle writes a directory at
//! a time.

pub mod compact;
pub mod manifest;
pub mod merged;
pub mod metrics;
pub mod segment;

pub use compact::CompactReport;
pub use manifest::{clean_strays, migrate_dir, Manifest, SegmentRef, MANIFEST_FILE, WAL_FILE};
pub use merged::Merged;
pub use metrics::{load_registry as load_ingest_metrics, IngestMetrics, METRICS_FILE};
pub use segment::{Segment, SegmentBuild, SEG_VERSION};

use corpus::Source;
use inspire_core::snapshot::EngineSnapshot;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// One committed batch, with the numbers the ingest bench reports.
#[derive(Debug, Clone)]
pub struct AppendStats {
    /// Documents the batch added (0 for a tombstone-only batch).
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
    /// Index stage). Errors if `dir` already holds a manifest; a `base`
    /// that predates the Index stage is refused before anything is
    /// created.
    pub fn create(dir: &Path, base: Option<&Path>) -> io::Result<IngestDir> {
        let (base_abs, base_docs) = match base {
            Some(p) => {
                let named =
                    |e: io::Error| io::Error::new(e.kind(), format!("{}: {e}", p.display()));
                let abs = std::fs::canonicalize(p).map_err(named)?;
                let snap = EngineSnapshot::open(&abs)?;
                merged::require_index(&snap)?;
                (Some(abs), snap.meta().total_docs)
            }
            None => (None, 0),
        };
        std::fs::create_dir_all(dir)?;
        if Manifest::load(dir)?.is_some() {
            return Err(bad(dir, "already an ingest directory".into()));
        }
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

    /// Commit one batch: the records of `sources`, in order, at the next
    /// document ids, and tombstones for `delete`, sealed into one segment
    /// and visible together once this returns. `delete` may name any
    /// document up to the batch's own last one. A batch that adds no
    /// document and deletes none, or that names a document past its own,
    /// is refused before anything is written.
    pub fn commit(&mut self, sources: &[Source], delete: Vec<u32>) -> io::Result<AppendStats> {
        let started = Instant::now();
        let build = segment::seal(sources, delete, self.total_docs());
        let limit = build.doc_base + build.doc_count;
        let refuse = |msg: String| Err(io::Error::new(io::ErrorKind::InvalidInput, msg));
        if let Some(&d) = build.tombstones.last().filter(|&&d| d >= limit) {
            return refuse(format!(
                "cannot delete doc {d}: only {limit} documents exist"
            ));
        }
        if build.doc_count == 0 && build.tombstones.is_empty() {
            return refuse("the batch adds no document and deletes none".into());
        }
        self.flip(self.manifest.segments.len(), &build, started)
    }

    /// Append one document batch: [`IngestDir::commit`] of one source.
    pub fn append(&mut self, source: Source) -> io::Result<AppendStats> {
        self.commit(std::slice::from_ref(&source), Vec::new())
    }

    /// Tombstone existing documents by global id: [`IngestDir::commit`]
    /// of no source.
    pub fn delete(&mut self, ids: Vec<u32>) -> io::Result<AppendStats> {
        self.commit(&[], ids)
    }

    /// The one way a directory changes. Publish `build` as a new segment,
    /// then the manifest in which it replaces `segments[from..]` — the
    /// commit point — and adopt that manifest; then unlink the files it
    /// replaced and record the seconds since `started` in the sidecar. A
    /// commit replaces nothing (`from` is the segment count) and stamps
    /// `last_seal_unix`; compaction replaces every segment (`from` 0).
    fn flip(
        &mut self,
        from: usize,
        build: &SegmentBuild,
        started: Instant,
    ) -> io::Result<AppendStats> {
        let commit = from == self.manifest.segments.len();
        let mut next = self.manifest.clone();
        let file = next.next_segment_file();
        let replaced = next.segments.split_off(from);
        next.segments.push(SegmentRef {
            file: file.clone(),
            doc_base: build.doc_base,
            doc_count: build.doc_count,
        });
        next.next_seq += 1;
        next.generation += 1;
        if commit {
            next.last_seal_unix = now_unix();
        }
        let segment_bytes = segment::write_segment(&self.dir, &file, build)
            .and_then(|bytes| next.store(&self.dir).map(|()| bytes))
            .inspect_err(|_| {
                // A publish whose directory fsync failed has still
                // renamed its file into place: a handle that kept the
                // old manifest would reuse its segment sequence number.
                if let Ok(m) = Manifest::require(&self.dir) {
                    self.manifest = m;
                }
            })?;
        self.manifest = next;
        for r in &replaced {
            // One left behind is a stray, which the next open removes.
            std::fs::remove_file(self.dir.join(&r.file)).ok();
        }
        let seconds = started.elapsed().as_secs_f64();
        let histogram = if commit {
            "seal_latency_seconds"
        } else {
            "compaction_duration_seconds"
        };
        self.metrics.observe_seconds(histogram, seconds);
        self.metrics.store().ok(); // observational: a failed write never fails a flip
        Ok(AppendStats {
            docs: build.doc_count,
            segment_bytes,
            wal_s: 0.0,
            seal_s: seconds,
            generation: self.manifest.generation,
            segment_file: file,
        })
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

    /// A batch that adds no document and deletes none would publish an
    /// empty segment and a generation every follower reloads for
    /// nothing: it is refused before any write.
    #[test]
    fn a_commit_that_changes_nothing_is_refused() {
        let dir = std::env::temp_dir().join(format!("ingest_noop_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut ing = IngestDir::create(&dir, None).unwrap();
        ing.append(medline("a", "TI  - alpha beta\n\n")).unwrap();
        let listing = || {
            let mut names: Vec<_> = (std::fs::read_dir(&dir).unwrap())
                .map(|e| e.unwrap().file_name())
                .collect();
            names.sort();
            names
        };
        let before = listing();
        for err in [
            ing.delete(vec![]).unwrap_err(),
            ing.append(medline("empty", "")).unwrap_err(),
        ] {
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
        }
        assert_eq!(ing.manifest().generation, 1);
        assert_eq!(listing(), before, "a refused commit wrote a file");
        drop(ing);
        assert_eq!(IngestDir::open(&dir).unwrap().manifest().generation, 1);
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
