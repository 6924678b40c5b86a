//! # inspire-bench — the experiment harness
//!
//! Regenerates every figure of the paper's evaluation (§4): the six
//! datasets (three PubMed subsets, three TREC GOV2 subsets) swept over
//! processor counts on the modeled PNNL cluster, plus the ablations
//! DESIGN.md calls out. The `repro` binary drives it; this library holds
//! the dataset definitions, the sweep engine, and the result formatting.
//!
//! Generated corpora are megabyte-scale miniatures that *stand in* for
//! the paper's gigabyte datasets through [`perfmodel::WorkloadScale`]:
//! compute charges scale by the byte ratio and communication payloads by
//! the Heaps-law vocabulary ratio, so virtual times land in the paper's
//! range while every algorithm executes for real.

use corpus::{CorpusSpec, Flavour, SourceSet};
use inspire_core::pipeline::{run_engine, EngineRun};
use inspire_core::{Balancing, EngineConfig};
use perfmodel::CostModel;
use spmd::Component;
use std::sync::Arc;

/// One of the paper's evaluation datasets.
#[derive(Debug, Clone, Copy)]
pub struct Dataset {
    /// Label exactly as the paper's figures print it.
    pub name: &'static str,
    pub flavour: Flavour,
    /// Nominal size in the paper, GB.
    pub nominal_gb: f64,
    /// Bytes we actually generate (miniature).
    pub actual_bytes: u64,
    pub seed: u64,
}

impl Dataset {
    pub fn nominal_bytes(&self) -> u64 {
        (self.nominal_gb * (1u64 << 30) as f64) as u64
    }

    /// Generate the miniature corpus.
    pub fn generate(&self) -> SourceSet {
        match self.flavour {
            Flavour::Medical => CorpusSpec::pubmed(self.actual_bytes, self.seed).generate(),
            Flavour::Web => CorpusSpec::trec(self.actual_bytes, self.seed).generate(),
            Flavour::Newswire => CorpusSpec::newswire(self.actual_bytes, self.seed).generate(),
        }
    }

    /// The scaled cost model for this dataset. The closed-vocabulary
    /// correction reflects how much faster real collections of this kind
    /// mint unique terms than the synthetic generator does (web crawls
    /// vastly more than curated abstracts).
    pub fn model(&self, sources: &SourceSet) -> Arc<CostModel> {
        let mut model = CostModel::pnnl_2007_scaled(self.nominal_bytes(), sources.total_bytes());
        let multiplier = match self.flavour {
            Flavour::Medical => 3.0,
            Flavour::Web => 12.0,
            Flavour::Newswire => 5.0,
        };
        model.scale = model.scale.with_vocab_multiplier(multiplier);
        // Dense abstracts index nearly every byte; web pages shed markup,
        // URLs and boilerplate at scan time, so their in-memory working
        // set per raw byte is much smaller.
        model.memory.working_set_expansion = match self.flavour {
            Flavour::Medical => 1.15,
            Flavour::Web => 0.65,
            Flavour::Newswire => 1.0,
        };
        Arc::new(model)
    }

    /// Smallest processor count the paper ran this dataset on (the
    /// 16.44 GB PubMed subset was only run from 4 processors — §4.2 notes
    /// even that was too small).
    pub fn min_procs(&self) -> usize {
        if self.nominal_gb >= 16.0 {
            4
        } else {
            1
        }
    }
}

/// Miniature size: 1 MiB of generated text stands for 1 GiB of nominal
/// data (ratio 1024; quick mode shrinks further).
fn mib(x: f64) -> u64 {
    (x * (1u64 << 20) as f64) as u64
}

/// The paper's three PubMed subsets (§4.2).
pub fn pubmed_datasets(quick: bool) -> Vec<Dataset> {
    let scale = if quick { 0.35 } else { 1.0 };
    vec![
        Dataset {
            name: "PubMed 2.75 GB",
            flavour: Flavour::Medical,
            nominal_gb: 2.75,
            actual_bytes: mib(2.75 * scale),
            seed: 275,
        },
        Dataset {
            name: "PubMed 6.67 GB",
            flavour: Flavour::Medical,
            nominal_gb: 6.67,
            actual_bytes: mib(6.67 * scale),
            seed: 667,
        },
        Dataset {
            name: "PubMed 16.44 GB",
            flavour: Flavour::Medical,
            nominal_gb: 16.44,
            actual_bytes: mib(16.44 * scale),
            seed: 1644,
        },
    ]
}

/// The paper's three TREC GOV2 subsets (§4.2).
pub fn trec_datasets(quick: bool) -> Vec<Dataset> {
    let scale = if quick { 0.35 } else { 1.0 };
    vec![
        Dataset {
            name: "TREC 1.00 GB",
            flavour: Flavour::Web,
            nominal_gb: 1.0,
            actual_bytes: mib(1.0 * scale),
            seed: 100,
        },
        Dataset {
            name: "TREC 4.00 GB",
            flavour: Flavour::Web,
            nominal_gb: 4.0,
            actual_bytes: mib(4.0 * scale),
            seed: 400,
        },
        Dataset {
            name: "TREC 8.21 GB",
            flavour: Flavour::Web,
            nominal_gb: 8.21,
            actual_bytes: mib(8.21 * scale),
            seed: 821,
        },
    ]
}

/// Processor counts of the paper's figures.
pub fn processor_counts(quick: bool) -> Vec<usize> {
    if quick {
        vec![1, 2, 4, 8]
    } else {
        vec![1, 2, 4, 8, 16, 32]
    }
}

/// Engine configuration used by the scaling experiments.
///
/// `chunk_docs` is small because the corpora are miniatures: a 4-document
/// load here stands for a `4 × data_scale`-document load at nominal size,
/// keeping the *number* of loads per processor (the quantity that matters
/// for dynamic balancing) faithful to the paper's configuration.
pub fn bench_config() -> EngineConfig {
    EngineConfig {
        chunk_docs: 4,
        ..EngineConfig::default()
    }
}

/// One sweep cell: a dataset processed at one processor count.
#[derive(Debug, Clone)]
pub struct RunRecord {
    pub dataset: String,
    pub nominal_gb: f64,
    pub procs: usize,
    /// Virtual wall-clock, minutes on the modeled cluster.
    pub minutes: f64,
    /// Per-component virtual seconds (critical path across ranks):
    /// scan, index, topic, AM, DocVec, ClusProj, other.
    pub component_seconds: [f64; 7],
    /// Per-rank scatter-phase seconds of the indexing stage (Figure 9).
    pub index_rank_seconds: Vec<f64>,
    pub vocab_size: usize,
    pub total_docs: u32,
}

impl RunRecord {
    pub fn from_run(ds: &Dataset, procs: usize, run: &EngineRun) -> Self {
        let master = run.master();
        RunRecord {
            dataset: ds.name.to_string(),
            nominal_gb: ds.nominal_gb,
            procs,
            minutes: run.virtual_time / 60.0,
            component_seconds: run.components.seconds.into_values(),
            index_rank_seconds: master.summary.load.iter().map(|l| l.seconds).collect(),
            vocab_size: master.summary.vocab_size,
            total_docs: master.summary.total_docs,
        }
    }

    pub fn component(&self, c: Component) -> f64 {
        let idx = Component::ALL.iter().position(|x| *x == c).unwrap();
        self.component_seconds[idx]
    }

    /// Component percentage of total engine time (the paper's Figures
    /// 6b/7b drop the "other" bucket; so do we).
    pub fn component_pct(&self, c: Component) -> f64 {
        let total: f64 = Component::ALL
            .iter()
            .filter(|&&x| x != Component::Other)
            .map(|&x| self.component(x))
            .sum();
        if total > 0.0 {
            100.0 * self.component(c) / total
        } else {
            0.0
        }
    }
}

/// Run one dataset at one processor count.
pub fn run_cell(ds: &Dataset, procs: usize, cfg: &EngineConfig) -> RunRecord {
    let sources = ds.generate();
    let model = ds.model(&sources);
    let run = run_engine(procs, model, &sources, cfg);
    RunRecord::from_run(ds, procs, &run)
}

/// Sweep datasets × processor counts.
pub fn sweep(datasets: &[Dataset], procs: &[usize], cfg: &EngineConfig) -> Vec<RunRecord> {
    let mut out = Vec::new();
    for ds in datasets {
        // Generate once per dataset, reuse across processor counts.
        let sources = ds.generate();
        let model = ds.model(&sources);
        for &p in procs {
            if p < ds.min_procs() {
                continue; // the paper did not run this configuration
            }
            eprintln!("  [{}] P={p} …", ds.name);
            let run = run_engine(p, model.clone(), &sources, cfg);
            out.push(RunRecord::from_run(ds, p, &run));
        }
    }
    out
}

/// Write records as CSV.
pub fn to_csv(records: &[RunRecord]) -> String {
    let mut s = String::from(
        "dataset,nominal_gb,procs,minutes,scan_s,index_s,topic_s,am_s,docvec_s,clusproj_s,other_s,vocab,docs\n",
    );
    for r in records {
        s.push_str(&format!(
            "{},{},{},{:.4},{:.2},{:.2},{:.2},{:.2},{:.2},{:.2},{:.2},{},{}\n",
            r.dataset,
            r.nominal_gb,
            r.procs,
            r.minutes,
            r.component_seconds[0],
            r.component_seconds[1],
            r.component_seconds[2],
            r.component_seconds[3],
            r.component_seconds[4],
            r.component_seconds[5],
            r.component_seconds[6],
            r.vocab_size,
            r.total_docs
        ));
    }
    s
}

/// Speedup of each record relative to the smallest processor count run
/// for its dataset: `S(P) = P_min · T(P_min) / T(P)` (ordinary relative
/// speedup; identical to `T(1)/T(P)` when the dataset was run at P=1).
pub fn speedups(records: &[RunRecord]) -> Vec<(String, usize, f64)> {
    let mut out = Vec::new();
    for r in records {
        let base = records
            .iter()
            .filter(|b| b.dataset == r.dataset)
            .min_by_key(|b| b.procs);
        if let Some(b) = base {
            out.push((
                r.dataset.clone(),
                r.procs,
                b.procs as f64 * b.minutes / r.minutes,
            ));
        }
    }
    out
}

/// Per-component relative speedup vs the smallest-P record (Figure 8).
pub fn component_speedup(records: &[RunRecord], dataset: &str, c: Component) -> Vec<(usize, f64)> {
    let base = records
        .iter()
        .filter(|r| r.dataset == dataset)
        .min_by_key(|r| r.procs);
    let Some(b) = base else {
        return Vec::new();
    };
    let t_base = b.component(c);
    let p_base = b.procs as f64;
    records
        .iter()
        .filter(|r| r.dataset == dataset)
        .map(|r| {
            let t = r.component(c);
            (r.procs, if t > 0.0 { p_base * t_base / t } else { 0.0 })
        })
        .collect()
}

/// Directory where the harness drops CSVs.
pub fn results_dir() -> std::path::PathBuf {
    let dir = std::path::PathBuf::from("results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Figure-9-style load-balance measurement: per-rank indexing time under
/// a given balancing mode.
pub fn load_balance_profile(ds: &Dataset, procs: usize, balancing: Balancing) -> (Vec<f64>, f64) {
    let cfg = EngineConfig {
        balancing,
        ..bench_config()
    };
    let rec = run_cell(ds, procs, &cfg);
    let times = rec.index_rank_seconds.clone();
    let max = times.iter().cloned().fold(0.0f64, f64::max);
    let mean = times.iter().sum::<f64>() / times.len().max(1) as f64;
    (times, if mean > 0.0 { max / mean } else { 1.0 })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datasets_match_paper() {
        let pm = pubmed_datasets(false);
        assert_eq!(pm.len(), 3);
        assert_eq!(pm[0].nominal_gb, 2.75);
        assert_eq!(pm[2].nominal_gb, 16.44);
        let tr = trec_datasets(false);
        assert_eq!(tr[0].nominal_gb, 1.0);
        assert_eq!(tr[2].nominal_gb, 8.21);
    }

    #[test]
    fn quick_mode_shrinks() {
        let full = pubmed_datasets(false);
        let quick = pubmed_datasets(true);
        for (f, q) in full.iter().zip(&quick) {
            assert!(q.actual_bytes < f.actual_bytes);
            assert_eq!(q.nominal_gb, f.nominal_gb);
        }
    }

    #[test]
    fn run_cell_produces_sane_record() {
        let ds = Dataset {
            name: "tiny",
            flavour: Flavour::Medical,
            nominal_gb: 0.001,
            actual_bytes: 96 * 1024,
            seed: 5,
        };
        let rec = run_cell(&ds, 2, &EngineConfig::for_testing());
        assert!(rec.minutes > 0.0);
        assert!(rec.total_docs > 10);
        assert_eq!(rec.index_rank_seconds.len(), 2);
        let pct_sum: f64 = [
            Component::Scan,
            Component::Index,
            Component::Topic,
            Component::Assoc,
            Component::DocVec,
            Component::ClusProj,
        ]
        .iter()
        .map(|&c| rec.component_pct(c))
        .sum();
        assert!((pct_sum - 100.0).abs() < 1e-6);
    }

    #[test]
    fn csv_roundtrip_shape() {
        let ds = Dataset {
            name: "tiny",
            flavour: Flavour::Web,
            nominal_gb: 0.001,
            actual_bytes: 64 * 1024,
            seed: 6,
        };
        let rec = run_cell(&ds, 1, &EngineConfig::for_testing());
        let csv = to_csv(&[rec]);
        assert_eq!(csv.lines().count(), 2);
        assert!(csv.starts_with("dataset,"));
    }

    #[test]
    fn speedups_relative_to_p1() {
        let ds = Dataset {
            name: "tiny",
            flavour: Flavour::Medical,
            nominal_gb: 0.001,
            actual_bytes: 96 * 1024,
            seed: 7,
        };
        let cfg = EngineConfig::for_testing();
        let recs = sweep(&[ds], &[1, 2], &cfg);
        let sp = speedups(&recs);
        let p1 = sp.iter().find(|(_, p, _)| *p == 1).unwrap();
        assert!((p1.2 - 1.0).abs() < 1e-12);
    }
}
