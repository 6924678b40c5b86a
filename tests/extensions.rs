//! Tests for the paper's extension points: hierarchical clustering
//! (§3.5's alternatives), 3-D projection, drill-down interaction (§6's
//! "next frontier"), and product persistence (step 7/9).

use std::sync::Arc;
use visual_analytics::engine::hierarchy::Linkage;
use visual_analytics::engine::interact::{select_cluster, select_rect, subset_corpus};
use visual_analytics::engine::io::{read_coords_csv, write_coords_csv};
use visual_analytics::engine::ClusterMethod;
use visual_analytics::prelude::*;

fn corpus() -> SourceSet {
    CorpusSpec::pubmed(192 * 1024, 808).generate()
}

fn hier_cfg(linkage: Linkage, adaptive: bool) -> EngineConfig {
    EngineConfig {
        cluster_method: ClusterMethod::Hierarchical {
            linkage,
            fine_factor: 3,
            adaptive,
        },
        ..EngineConfig::for_testing()
    }
}

#[test]
fn hierarchical_clustering_is_deterministic_across_p() {
    let src = corpus();
    let cfg = hier_cfg(Linkage::Average, false);
    let a = run_engine(1, Arc::new(CostModel::zero()), &src, &cfg)
        .outputs
        .remove(0);
    for p in [2, 4] {
        let b = run_engine(p, Arc::new(CostModel::zero()), &src, &cfg)
            .outputs
            .remove(0);
        assert_eq!(a.cluster_sizes, b.cluster_sizes, "P={p}");
        assert_eq!(a.all_assignments, b.all_assignments, "P={p}");
        let ca = a.coords.as_ref().unwrap();
        let cb = b.coords.as_ref().unwrap();
        for ((x1, y1), (x2, y2)) in ca.iter().zip(cb) {
            assert!((x1 - x2).abs() < 1e-6 && (y1 - y2).abs() < 1e-6);
        }
    }
}

#[test]
fn hierarchical_produces_at_most_k_clusters_covering_all_docs() {
    let src = corpus();
    for linkage in [Linkage::Single, Linkage::Complete, Linkage::Average] {
        let cfg = hier_cfg(linkage, false);
        let out = run_engine(3, Arc::new(CostModel::zero()), &src, &cfg)
            .outputs
            .remove(0);
        assert!(out.cluster_sizes.len() <= cfg.n_clusters);
        assert_eq!(
            out.cluster_sizes.iter().sum::<u64>(),
            out.summary.total_docs as u64,
            "{linkage:?}"
        );
    }
}

#[test]
fn adaptive_cut_picks_k_within_bounds() {
    let src = corpus();
    let cfg = hier_cfg(Linkage::Complete, true);
    let out = run_engine(2, Arc::new(CostModel::zero()), &src, &cfg)
        .outputs
        .remove(0);
    let k = out.cluster_sizes.len();
    assert!(k >= 2 && k <= cfg.n_clusters, "adaptive picked k={k}");
}

#[test]
fn three_d_projection_adds_an_axis() {
    let src = corpus();
    let cfg2 = EngineConfig::for_testing();
    let cfg3 = EngineConfig {
        projection_dims: 3,
        ..EngineConfig::for_testing()
    };
    let zero = Arc::new(CostModel::zero());
    let out2 = run_engine(1, zero.clone(), &src, &cfg2).outputs.remove(0);
    let out3 = run_engine(1, zero, &src, &cfg3).outputs.remove(0);
    let n = out2.summary.total_docs as usize;
    assert_eq!(out2.projection_dims, 2);
    assert_eq!(out3.projection_dims, 3);
    assert_eq!(out2.local_coords_nd.len(), n * 2);
    assert_eq!(out3.local_coords_nd.len(), n * 3);
    // The first two components agree between the 2-D and 3-D runs.
    for i in 0..n {
        assert!((out3.local_coords_nd[i * 3] - out2.local_coords_nd[i * 2]).abs() < 1e-9);
        assert!((out3.local_coords_nd[i * 3 + 1] - out2.local_coords_nd[i * 2 + 1]).abs() < 1e-9);
    }
    // The third axis carries real variance (not all zeros).
    let z_spread: f64 = (0..n).map(|i| out3.local_coords_nd[i * 3 + 2].abs()).sum();
    assert!(z_spread > 1e-6, "third component is degenerate");
}

#[test]
fn drill_down_from_rectangle_selection() {
    let src = corpus();
    let cfg = EngineConfig::for_testing();
    let top = run_engine(2, Arc::new(CostModel::zero()), &src, &cfg);
    let master = top.master();
    let coords = master.coords.as_ref().unwrap();
    // Select the left half of the layout.
    let (min_x, max_x) = coords
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), (x, _)| {
            (lo.min(*x), hi.max(*x))
        });
    let mid = (min_x + max_x) / 2.0;
    let selected = select_rect(coords, (min_x, f64::NEG_INFINITY), (mid, f64::INFINITY));
    assert!(!selected.is_empty() && selected.len() < coords.len());
    let sub = subset_corpus(&src, &selected);
    assert_eq!(sub.total_records(), selected.len());
    // The sub-analysis runs and covers exactly the selection.
    let drill = run_engine(2, Arc::new(CostModel::zero()), &sub, &cfg);
    assert_eq!(drill.master().summary.total_docs as usize, selected.len());
}

#[test]
fn cluster_selection_round_trips_through_subset() {
    let src = corpus();
    let cfg = EngineConfig::for_testing();
    let top = run_engine(3, Arc::new(CostModel::zero()), &src, &cfg);
    let master = top.master();
    let assignments = master.all_assignments.as_ref().unwrap();
    for c in 0..master.cluster_sizes.len() {
        let selected = select_cluster(assignments, c as u32);
        assert_eq!(
            selected.len() as u64,
            master.cluster_sizes[c],
            "cluster {c}"
        );
    }
}

#[test]
fn engine_products_persist_and_reload() {
    let src = corpus();
    let cfg = EngineConfig::for_testing();
    let run = run_engine(2, Arc::new(CostModel::zero()), &src, &cfg);
    let master = run.master();
    let coords = master.coords.as_ref().unwrap();

    let dir = std::env::temp_dir();
    let cpath = dir.join(format!("va-ext-coords-{}.csv", std::process::id()));
    write_coords_csv(&cpath, coords, master.all_assignments.as_deref()).unwrap();
    let back = read_coords_csv(&cpath).unwrap();
    assert_eq!(back.len(), coords.len());
    for (i, (doc, x, y, c)) in back.iter().enumerate() {
        assert_eq!(*doc as usize, i);
        assert!((x - coords[i].0).abs() < 1e-6);
        assert!((y - coords[i].1).abs() < 1e-6);
        assert_eq!(*c, master.all_assignments.as_ref().unwrap()[i] as i64);
    }
    std::fs::remove_file(&cpath).ok();
}

#[test]
fn lustre_storage_speeds_up_high_p_scanning() {
    let src = corpus();
    let cfg = EngineConfig::for_testing();
    let nominal = 8u64 << 30;
    let mut shared = CostModel::pnnl_2007_scaled(nominal, src.total_bytes());
    shared.cluster.storage = perfmodel::StorageModel::SharedFixed {
        aggregate_bps: 100e6,
    };
    let mut lustre = shared.clone();
    lustre.cluster.storage = perfmodel::StorageModel::Parallel {
        per_node_bps: 300e6,
        backplane_bps: 6e9,
    };
    let t_shared = run_engine(32, Arc::new(shared), &src, &cfg)
        .components
        .get(Component::Scan);
    let t_lustre = run_engine(32, Arc::new(lustre), &src, &cfg)
        .components
        .get(Component::Scan);
    assert!(
        t_lustre < t_shared * 0.8,
        "lustre {t_lustre} vs shared {t_shared}"
    );
}
