//! End-to-end checks of the observability stack: tracing produces a
//! valid, balanced Chrome trace at any P; the structured run report
//! carries every field the analysis consumes; and — the hard
//! guarantee — turning tracing on changes *no* algorithmic output bit.

use std::sync::Arc;
use visual_analytics::engine::build_run_report;
use visual_analytics::prelude::*;

fn run_traced(src: &SourceSet, nprocs: usize, trace: bool) -> EngineRun {
    let cfg = EngineConfig {
        trace,
        ..EngineConfig::for_testing()
    };
    run_engine(nprocs, Arc::new(CostModel::pnnl_2007()), src, &cfg)
}

/// Everything deterministically comparable about a run (same exclusions
/// as `thread_determinism`: virtual clocks and per-rank load stats
/// jitter by host scheduling even without tracing).
fn fingerprint(run: &EngineRun) -> String {
    let master = run.master();
    let s = &master.summary;
    format!(
        "vocab={} docs={} tokens={} n={} m={} exp={} sig={:?} iters={} \
         obj={:?} var={:?} coords={:?} assignments={:?} labels={:?} sizes={:?}",
        s.vocab_size,
        s.total_docs,
        s.total_tokens,
        s.n_major,
        s.m_dims,
        s.dim_expansions,
        s.sig_stats,
        s.kmeans_iters,
        s.kmeans_objective,
        s.variance_explained,
        master.coords,
        master.all_assignments,
        master.cluster_labels,
        master.cluster_sizes,
    )
}

#[test]
fn tracing_is_bit_invisible_to_engine_output() {
    let src = CorpusSpec::pubmed(256 * 1024, 1717).generate();
    for nprocs in [1, 4] {
        let plain = run_traced(&src, nprocs, false);
        let traced = run_traced(&src, nprocs, true);
        assert_eq!(
            fingerprint(&plain),
            fingerprint(&traced),
            "tracing at P={nprocs} perturbed the engine output"
        );
        assert!(plain.run.traces.iter().all(|t| t.spans.is_empty()));
        assert!(traced.run.traces.iter().any(|t| !t.spans.is_empty()));
    }
}

#[test]
fn engine_trace_exports_valid_chrome_json() {
    let src = CorpusSpec::pubmed(192 * 1024, 33).generate();
    for nprocs in [1, 4] {
        let run = run_traced(&src, nprocs, true);
        let json = inspire_trace::chrome::to_chrome_json(&run.run.traces);
        let summary =
            inspire_trace::chrome::validate_chrome_json(&json).expect("trace JSON validates");
        assert_eq!(summary.lanes, nprocs, "one lane per rank at P={nprocs}");
        assert!(summary.spans > 0, "engine run produced no spans");
    }
}

#[test]
fn run_report_json_has_required_keys() {
    let src = CorpusSpec::pubmed(192 * 1024, 33).generate();
    let run = run_traced(&src, 4, false);
    let report = build_run_report("observability-test", &run.run, 0.25);
    let doc = inspire_trace::json::parse(&report.to_json()).expect("report JSON parses");
    for key in [
        "title",
        "meta",
        "virtual_time_s",
        "wall_time_s",
        "critical_path_s",
        "critical_path_stage",
        "max_imbalance_pct",
        "stages",
        "comm",
        "queries",
    ] {
        assert!(doc.get(key).is_some(), "report missing {key}");
    }
    let stages = doc.get("stages").unwrap().as_arr().unwrap();
    assert_eq!(stages.len(), Component::ALL.len());
    for row in stages {
        for key in [
            "name",
            "virt_max_s",
            "busy_max_s",
            "wall_max_s",
            "wait_max_s",
            "imbalance_pct",
            "wait_share_pct",
            "critical_share_pct",
        ] {
            assert!(row.get(key).is_some(), "stage row missing {key}");
        }
    }
    // Virtual stage times are deterministic model quantities, so they
    // must match the run's own component accounting exactly.
    assert!(doc.get("virtual_time_s").unwrap().as_f64().unwrap() > 0.0);
    let comm = doc.get("comm").unwrap();
    assert!(comm.get("messages").unwrap().as_f64().unwrap() > 0.0);
    assert!(comm.get("bytes").unwrap().as_f64().unwrap() > 0.0);
}
