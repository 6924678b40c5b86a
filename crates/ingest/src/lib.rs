//! Log-structured incremental indexing over the engine's store format.
//!
//! The batch pipeline (scan → invert → signatures) rebuilds the world
//! on every corpus change. This crate makes the index *live*: documents
//! are appended to a CRC-covered write-ahead log ([`wal`]), folded by a
//! sealer into small immutable index segments ([`segment`]) that reuse
//! the engine's block-compressed posting codec, tracked by a crash-safe
//! generation manifest ([`manifest`]), and folded back together by a
//! compactor ([`compact`]). Base snapshot + segments are read as one
//! index through [`Merged`] (merge-on-read), by the serving tier and the
//! compactor alike; because segments are encoded with the batch
//! pipeline's own rules and cover disjoint ascending document ranges,
//! served answers are bit-identical to a from-scratch rebuild of the
//! same logical corpus.
//!
//! Durability contract: [`IngestDir::append`] returns only after the
//! WAL record is fsynced — the seal that follows is a cached
//! convenience, made from the record the commit holds in memory, so a
//! commit never reads the log back. On any later [`IngestDir::open`],
//! the WAL is replayed from the manifest's `wal_sealed_bytes` watermark
//! on: a torn tail (crash mid-append) is truncated, and every durable
//! record past the watermark is sealed, deterministically producing the
//! same segment bytes. One [`IngestDir`] handle writes a directory at a
//! time.

pub mod compact;
pub mod manifest;
pub mod merged;
pub mod metrics;
pub mod segment;
pub mod wal;

pub use compact::{compact as compact_dir, CompactReport};
pub use manifest::{clean_strays, peek_generation, Manifest, SegmentRef, MANIFEST_FILE};
pub use merged::Merged;
pub use metrics::{load_registry as load_ingest_metrics, IngestMetrics, METRICS_FILE};
pub use segment::{Segment, SegmentBuild, SEG_VERSION};
pub use wal::{Wal, WalRecord, WalReplay, WAL_FILE};

use corpus::Source;
use inspire_core::snapshot::EngineSnapshot;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// One sealed mutation, with the numbers the ingest bench reports.
#[derive(Debug, Clone)]
pub struct AppendStats {
    /// Documents the batch added (0 for deletes).
    pub docs: u32,
    /// WAL bytes this record occupies (frame included).
    pub wal_bytes: u64,
    /// Size of the sealed segment file.
    pub segment_bytes: u64,
    /// Seconds spent in the fsynced WAL append.
    pub wal_s: f64,
    /// Seconds from WAL durability to the sealed segment being live.
    pub seal_s: f64,
    /// Manifest generation after the seal.
    pub generation: u64,
    pub segment_file: String,
}

/// What [`IngestDir::open`] had to repair.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Durable WAL records that were not yet sealed and got sealed now.
    pub sealed_records: usize,
    /// Torn-tail bytes truncated off the WAL.
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

/// WAL backlog for `dir` without opening an [`IngestDir`]: bytes and
/// CRC-valid records past the manifest's sealed watermark. This is what
/// a serving-tier metrics scrape calls — read-only, nothing is sealed
/// or truncated.
pub fn wal_backlog(dir: &Path) -> io::Result<(u64, u64)> {
    let watermark = Manifest::require(dir)?.wal_sealed_bytes;
    let tail = Wal::new(dir.join(WAL_FILE)).replay_after(watermark)?;
    let bytes = tail.durable_bytes + tail.torn_bytes - watermark;
    Ok((bytes, tail.records.len() as u64))
}

/// A live ingest directory: WAL + manifest + segments (+ a base engine
/// snapshot referenced by absolute path). All mutation goes through
/// this handle; readers (the serving tier) only ever open the files the
/// manifest names.
pub struct IngestDir {
    dir: PathBuf,
    wal: Wal,
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
            wal: Wal::new(dir.join(WAL_FILE)),
            manifest,
            metrics: IngestMetrics::load(dir),
            recovery: RecoveryReport::default(),
        })
    }

    /// Open an existing ingest directory and make it consistent: remove
    /// stray files, truncate any torn WAL tail, and seal every durable
    /// WAL record past the manifest watermark. After this returns, the
    /// directory serves exactly the durable prefix.
    pub fn open(dir: &Path) -> io::Result<IngestDir> {
        let manifest = Manifest::require(dir)?;
        let mut me = IngestDir {
            dir: dir.to_path_buf(),
            wal: Wal::new(dir.join(WAL_FILE)),
            manifest,
            metrics: IngestMetrics::load(dir),
            recovery: RecoveryReport::default(),
        };
        me.recovery.removed_strays = clean_strays(dir, &me.manifest)?.len();
        let replay = me.wal.replay_after(me.manifest.wal_sealed_bytes)?;
        me.recovery.torn_bytes = replay.torn_bytes;
        me.wal.truncate_to(replay.durable_bytes)?;
        for (end, rec) in &replay.records {
            me.seal_record(rec, *end)?;
            me.recovery.sealed_records += 1;
        }
        if me.recovery.sealed_records > 0 {
            me.metrics.store().ok(); // observational, like every sidecar write
        }
        Ok(me)
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

    /// Append one record to the WAL and fsync, without sealing — the
    /// durability point. Exposed separately so crash tests (and the
    /// `--crash-after-wal` CLI hook) can die in the window between
    /// durability and visibility.
    pub fn append_wal(&mut self, rec: &WalRecord) -> io::Result<u64> {
        self.wal.append(rec)
    }

    /// Fold one durable record into a segment and flip the manifest. The
    /// seal latency is observed here and stored with the sidecar's next
    /// write.
    fn seal_record(&mut self, rec: &WalRecord, wal_end: u64) -> io::Result<AppendStats> {
        let started = Instant::now();
        let wal_bytes = wal_end - self.manifest.wal_sealed_bytes;
        let build = match rec {
            WalRecord::AddBatch(src) => {
                segment::build_from_batch(src, self.manifest.next_doc_base())
            }
            WalRecord::Delete(ids) => {
                segment::build_tombstones(self.manifest.next_doc_base(), ids.clone())
            }
        };
        let file = self.manifest.next_segment_file();
        let segment_bytes = segment::write_segment(&self.dir, &file, &build)?;
        self.manifest.segments.push(SegmentRef {
            file: file.clone(),
            doc_base: build.doc_base,
            doc_count: build.doc_count,
        });
        self.manifest.next_seq += 1;
        self.manifest.generation += 1;
        self.manifest.wal_sealed_bytes = wal_end;
        self.manifest.last_seal_unix = now_unix();
        self.manifest.store(&self.dir)?;
        let seal_s = started.elapsed().as_secs_f64();
        self.metrics.observe_seconds("seal_latency_seconds", seal_s);
        Ok(AppendStats {
            docs: build.doc_count,
            wal_bytes,
            segment_bytes,
            wal_s: 0.0,
            seal_s,
            generation: self.manifest.generation,
            segment_file: file,
        })
    }

    /// Append one document batch: WAL-durable, then sealed and visible.
    pub fn append(&mut self, source: Source) -> io::Result<AppendStats> {
        self.commit(WalRecord::AddBatch(source))
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
        self.commit(WalRecord::Delete(ids))
    }

    /// Make `rec` durable, seal it, and record its durability-to-
    /// visibility latency: the seal's and this latency reach the metrics
    /// sidecar in one write. The seal is made from `rec` itself, so the
    /// log must end at the watermark first: a durable record before it
    /// would otherwise fall below the new watermark, never to be sealed.
    fn commit(&mut self, rec: WalRecord) -> io::Result<AppendStats> {
        let (len, sealed) = (self.wal.len()?, self.manifest.wal_sealed_bytes);
        if len != sealed {
            return Err(bad(
                self.wal.path(),
                format!("{len} bytes, {sealed} sealed; reopen the directory to recover the rest"),
            ));
        }
        let t0 = Instant::now();
        let end = self.append_wal(&rec)?;
        let wal_s = t0.elapsed().as_secs_f64();
        let mut stats = self.seal_record(&rec, end)?;
        stats.wal_s = wal_s;
        self.metrics
            .observe_seconds("time_to_visibility_seconds", stats.wal_s + stats.seal_s);
        self.metrics.store().ok(); // observational: a failed write never fails a seal
        Ok(stats)
    }

    /// Fold all segments into one (see [`compact`]). Reloads the
    /// manifest (and the metrics sidecar the compactor appended to) so
    /// this handle sees the new generation.
    pub fn compact(&mut self) -> io::Result<Option<CompactReport>> {
        let report = compact::compact(&self.dir)?;
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

        // Crash window: durable but unsealed. A reopen must seal it.
        let rec = WalRecord::AddBatch(medline("b", "TI  - delta beta\n\n"));
        ing.append_wal(&rec).unwrap();
        // A commit seals only its own record, so it refuses to land
        // behind an unsealed one.
        let refused = ing.append(medline("c", "TI  - epsilon\n\n")).unwrap_err();
        assert!(refused.to_string().contains(WAL_FILE), "{refused}");
        drop(ing);
        let ing = IngestDir::open(&dir).unwrap();
        assert_eq!(ing.recovery.sealed_records, 1);
        assert_eq!(ing.manifest().segments.len(), 2);
        assert_eq!(ing.total_docs(), 2);

        // Torn tail: half a record appended, then the writer dies.
        let wal_path = dir.join(WAL_FILE);
        let mut raw = std::fs::read(&wal_path).unwrap();
        raw.extend_from_slice(&[42u8; 5]);
        std::fs::write(&wal_path, &raw).unwrap();
        let mut ing = IngestDir::open(&dir).unwrap();
        assert_eq!(ing.recovery.torn_bytes, 5);
        assert_eq!(ing.recovery.sealed_records, 0);
        assert_eq!(ing.total_docs(), 2);

        let report = ing.compact().unwrap().expect("two segments fold");
        assert_eq!(report.segments_before, 2);
        assert_eq!(ing.manifest().segments.len(), 1);
        assert!(ing.compact().unwrap().is_none());
        assert!(ing.delete(vec![99]).is_err());
        ing.delete(vec![0]).unwrap();
        assert_eq!(ing.manifest().segments.len(), 2);

        // The metrics sidecar accumulated across every seal, recovery
        // seal, and the compaction pass; the backlog gauge reads zero
        // because everything durable is sealed.
        let reg = load_ingest_metrics(&dir).expect("sidecar written");
        let seals = reg.histogram("seal_latency_seconds").expect("seal hist");
        assert_eq!(seals.count(), 3, "initial append + recovery seal + delete");
        assert!(reg.histogram("time_to_visibility_seconds").is_some());
        assert!(reg.histogram("compaction_duration_seconds").is_some());
        assert_eq!(wal_backlog(&dir).unwrap(), (0, 0));
        std::fs::remove_dir_all(&dir).ok();
    }
}
