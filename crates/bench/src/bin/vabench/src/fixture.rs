//! Shared set-up: the seeded corpus, its Final snapshot at P=2, the
//! loaded serving state, and the vocabulary cut into document-frequency
//! buckets. `setup_s` is the wall time of [`Fixture::build`] plus the
//! workload's own input generation.

use crate::stats::Rng;
use corpus::{CorpusSpec, SourceSet};
use inspire_core::pipeline::{run_engine, EngineRun};
use inspire_core::query::SearchIndex;
use inspire_core::{EngineConfig, TermId};
use inspire_serve::ServeState;
use perfmodel::CostModel;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Ranks the engine runs on; one thread per rank, so two cores are busy.
pub const PROCS: usize = 2;
/// k-means clusters = IVF lists: enough that `nprobe` is a real choice.
pub const N_CLUSTERS: usize = 64;
/// k-means runs exactly this many iterations: fewer than any seed needs
/// to converge at the default tolerance (17–33), so build time measures
/// the cost of an iteration, not how soon a seed's clustering settles.
pub const KMEANS_ITERS: usize = 16;

/// Input sizes. The full size is what fits the run budget (three
/// set-ups plus the timed phase inside ~20 s); smoke exists only to
/// exercise the benchmark's shape quickly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sizing {
    pub smoke: bool,
    /// Bytes of the PubMed-flavoured base corpus.
    pub corpus_bytes: u64,
    /// Live batches available to `ingest_live`.
    pub ingest_batches: usize,
    /// `ingest_live` compacts every this many batches (and at the end).
    pub compact_every: usize,
}

impl Sizing {
    pub fn new(smoke: bool) -> Sizing {
        if smoke {
            Sizing {
                smoke,
                corpus_bytes: 4 << 20,
                ingest_batches: 24,
                compact_every: 8,
            }
        } else {
            Sizing {
                smoke,
                corpus_bytes: 32 << 20,
                ingest_batches: 320,
                compact_every: 64,
            }
        }
    }
}

pub fn corpus_spec(sizing: &Sizing, seed: u64) -> CorpusSpec {
    CorpusSpec::pubmed(sizing.corpus_bytes, seed)
}

pub fn engine_config(snapshot_out: Option<PathBuf>) -> EngineConfig {
    EngineConfig {
        n_clusters: N_CLUSTERS,
        max_kmeans_iters: KMEANS_ITERS,
        kmeans_tol: 0.0,
        threads_per_rank: 1,
        snapshot_out,
        ..EngineConfig::default()
    }
}

/// One full build, corpus in memory → Final snapshot durable at `out`.
/// The pipeline downgrades a failed snapshot write to a warning, so the
/// report is checked here.
pub fn build_snapshot(set: &SourceSet, out: &Path) -> io::Result<EngineRun> {
    let cfg = engine_config(Some(out.to_path_buf()));
    let run = run_engine(PROCS, Arc::new(CostModel::pnnl_2007()), set, &cfg);
    if run.master().snapshot_report.is_none() {
        return Err(io::Error::other(format!(
            "snapshot {} was not written",
            out.display()
        )));
    }
    Ok(run)
}

pub fn corpus_bytes(set: &SourceSet) -> u64 {
    set.sources.iter().map(|s| s.data.len() as u64).sum()
}

/// One selectivity bucket: its terms in ascending term-id order (so a
/// bucket is a pure function of the index) and their running df total.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Bucket {
    pub terms: Vec<TermId>,
    cumulative_df: Vec<u64>,
}

impl Bucket {
    fn push(&mut self, term: TermId, df: u32) {
        let before = self.cumulative_df.last().copied().unwrap_or(0);
        self.terms.push(term);
        self.cumulative_df.push(before + df as u64);
    }

    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// A term drawn in proportion to its document frequency — the way
    /// words reach a query box: from documents the analyst has read.
    pub fn pick(&self, rng: &mut Rng) -> TermId {
        let total = *self.cumulative_df.last().expect("bucket is not empty");
        let at = rng.next_u64() % total;
        self.terms[self.cumulative_df.partition_point(|&c| c <= at)]
    }
}

/// Vocabulary terms by document frequency: **rare** ≤ 0.1 % of the
/// documents, **mid** up to 5 %, **common** above.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Buckets {
    pub rare: Bucket,
    pub mid: Bucket,
    pub common: Bucket,
}

pub fn bucket_terms(index: &impl SearchIndex, vocab: usize) -> Buckets {
    let docs = index.total_docs() as f64;
    let mut out = Buckets::default();
    for term in 0..vocab as TermId {
        let df = index.df(term);
        let share = df as f64 / docs;
        match df {
            0 => {}
            _ if share <= 0.001 => out.rare.push(term, df),
            _ if share <= 0.05 => out.mid.push(term, df),
            _ => out.common.push(term, df),
        }
    }
    out
}

/// What every workload starts from.
pub struct Fixture {
    pub state: Arc<ServeState>,
    pub buckets: Buckets,
    pub snapshot_path: PathBuf,
    pub snapshot_bytes: u64,
    /// Milliseconds `ServeState::load` took.
    pub load_ms: f64,
}

impl Fixture {
    pub fn snapshot_path(dir: &Path) -> PathBuf {
        dir.join("base.isnap")
    }

    /// Generate the corpus, build its snapshot into `dir`, and open it.
    /// Returns the corpus too (its size is an input to the disk ratio)
    /// and the seconds generation took.
    pub fn build(dir: &Path, sizing: &Sizing, seed: u64) -> io::Result<(Fixture, SourceSet, f64)> {
        let t0 = std::time::Instant::now();
        let set = corpus_spec(sizing, seed).generate();
        let generate_s = t0.elapsed().as_secs_f64();
        build_snapshot(&set, &Self::snapshot_path(dir))?;
        Ok((Self::open(dir)?, set, generate_s))
    }

    /// Load the snapshot [`Fixture::build`] left in `dir`.
    pub fn open(dir: &Path) -> io::Result<Fixture> {
        let snapshot_path = Self::snapshot_path(dir);
        let t0 = std::time::Instant::now();
        let state = ServeState::load(&snapshot_path)?;
        let load_ms = t0.elapsed().as_secs_f64() * 1e3;
        let buckets = bucket_terms(&state, state.terms.len());
        if buckets.rare.len() < 64 || buckets.mid.len() < 64 || buckets.common.len() < 16 {
            return Err(io::Error::other(format!(
                "vocabulary too thin to control selectivity: {} rare, {} mid, {} common",
                buckets.rare.len(),
                buckets.mid.len(),
                buckets.common.len()
            )));
        }
        Ok(Fixture {
            snapshot_bytes: std::fs::metadata(&snapshot_path)?.len(),
            state: Arc::new(state),
            buckets,
            snapshot_path,
            load_ms,
        })
    }

    pub fn term(&self, id: TermId) -> &str {
        self.state.terms.get(id as usize)
    }

    /// Payload bytes of the named snapshot sections that exist.
    pub fn section_bytes(&self, names: &[&str]) -> u64 {
        let store = self.state.snapshot().store();
        store
            .sections()
            .filter(|(name, ..)| names.contains(name))
            .map(|(.., len)| len)
            .sum()
    }
}

/// One smoke-sized fixture shared by every test that needs a real
/// snapshot (building it is the slow part of the test suite).
#[cfg(test)]
pub fn test_fixture() -> &'static Fixture {
    static SHARED: std::sync::OnceLock<Fixture> = std::sync::OnceLock::new();
    SHARED.get_or_init(|| {
        let dir = crate::out_dir().join("test-fixture");
        std::fs::create_dir_all(&dir).expect("create test dir");
        let (fx, ..) = Fixture::build(&dir, &Sizing::new(true), 11).expect("smoke fixture builds");
        fx
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use inspire_core::index::Posting;

    /// A toy index: term `t` occurs in the first `df[t]` documents.
    struct Toy {
        df: Vec<u32>,
        docs: u32,
    }

    impl SearchIndex for Toy {
        fn term_id(&self, _term: &str) -> Option<TermId> {
            None
        }
        fn postings_of(&self, term: TermId) -> Vec<Posting> {
            (0..self.df[term as usize])
                .map(|doc| Posting {
                    doc,
                    field: 0,
                    freq: 1,
                })
                .collect()
        }
        fn df(&self, term: TermId) -> u32 {
            self.df[term as usize]
        }
        fn total_docs(&self) -> u32 {
            self.docs
        }
    }

    #[test]
    fn df_buckets_split_at_a_thousandth_and_a_twentieth() {
        let toy = Toy {
            //        0  1  2   3   4    5    6      7
            df: vec![0, 1, 10, 11, 500, 501, 9_999, 10_000],
            docs: 10_000,
        };
        let b = bucket_terms(&toy, toy.df.len());
        assert_eq!(
            b.rare.terms,
            vec![1, 2],
            "df 0 is no term at all; 10/10000 is still rare"
        );
        assert_eq!(b.mid.terms, vec![3, 4]);
        assert_eq!(b.common.terms, vec![5, 6, 7]);
        // Draws follow document frequency: term 4 (df 500) against term
        // 3 (df 11) is picked about 500 times in 511.
        let mut rng = Rng::new(1, 1);
        let heavy = (0..5110).filter(|_| b.mid.pick(&mut rng) == 4).count();
        assert!((4900..5100).contains(&heavy), "{heavy} of 5110 draws");
    }
}
