//! `repro` — regenerate every figure of the IPPS 2007 evaluation.
//!
//! ```text
//! repro fig5        # overall wall-clock, PubMed + TREC, 3 sizes × P sweep
//! repro fig6        # 6a PubMed speedups, 6b PubMed component percentages
//! repro fig7        # 7a TREC speedups,   7b TREC component percentages
//! repro fig8        # per-component speedups, both corpora
//! repro fig9        # dynamic load balancing effectiveness (indexing)
//! repro ablate-balancing   # dynamic vs static vs master-worker
//! repro ablate-chunk       # fixed-size chunking: chunk-size sweep
//! repro ablate-dims        # static vs adaptive signature dimensionality
//! repro ablate-network     # InfiniBand vs Gigabit Ethernet collectives
//! repro all         # everything above
//! ```
//!
//! Add `--quick` for a reduced sweep (smaller corpora, P ≤ 8); any
//! other argument, or a second figure, exits 2.
//! CSV files land in `./results/`.

use inspire_bench::*;
use inspire_core::pipeline::run_engine;
use inspire_core::{Balancing, EngineConfig};
use perfmodel::CostModel;
use spmd::Component;
use std::sync::Arc;

/// Every figure `repro` can regenerate; `all` runs each of the others.
const FIGURES: [&str; 12] = [
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "ablate-balancing",
    "ablate-chunk",
    "ablate-dims",
    "ablate-network",
    "ablate-io",
    "ablate-clustering",
    "all",
];

/// `repro [--quick] <figure>`: any other argument, a second figure or
/// none exits 2.
fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut quick, mut figure) = (false, None);
    for arg in &args {
        match arg.as_str() {
            "--quick" if !quick => quick = true,
            name if figure.is_none() && FIGURES.contains(&name) => figure = Some(name),
            other => usage(&format!("unexpected argument {other:?}")),
        }
    }
    let Some(cmd) = figure else {
        usage("name one figure")
    };

    // Figures 5-8 are views over one sweep; compute it once and share.
    // `fig5.csv` holds it; figures 6-8 print their tables from it.
    let mut sweep_cache: Option<Vec<RunRecord>> = None;
    let mut records = |quick: bool| -> Vec<RunRecord> {
        sweep_cache.get_or_insert_with(|| full_sweep(quick)).clone()
    };

    match cmd {
        "fig5" => fig5(&records(quick)),
        "fig6" => fig6(&records(quick)),
        "fig7" => fig7(&records(quick)),
        "fig8" => fig8(&records(quick)),
        "fig9" => fig9(quick),
        "ablate-balancing" => ablate_balancing(quick),
        "ablate-chunk" => ablate_chunk(quick),
        "ablate-dims" => ablate_dims(quick),
        "ablate-network" => ablate_network(quick),
        "ablate-io" => ablate_io(quick),
        "ablate-clustering" => ablate_clustering(quick),
        "all" => {
            let r = records(quick);
            fig5(&r);
            fig6(&r);
            fig7(&r);
            fig8(&r);
            fig9(quick);
            ablate_balancing(quick);
            ablate_chunk(quick);
            ablate_dims(quick);
            ablate_network(quick);
            ablate_io(quick);
            ablate_clustering(quick);
        }
        other => unreachable!("{other} is listed in FIGURES but not run"),
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("{msg}\nusage: repro [--quick] <{}>", FIGURES.join("|"));
    std::process::exit(2);
}

/// Sweep both corpora once; figures 5–8 are views of the same records.
fn full_sweep(quick: bool) -> Vec<RunRecord> {
    let cfg = bench_config();
    let procs = processor_counts(quick);
    let mut records = sweep(&pubmed_datasets(quick), &procs, &cfg);
    records.extend(sweep(&trec_datasets(quick), &procs, &cfg));
    records
}

fn save(name: &str, contents: &str) {
    let path = results_dir().join(name);
    std::fs::write(&path, contents).expect("write results file");
    println!("  → {}", path.display());
}

fn header(title: &str) {
    println!("\n=== {title} ===");
}

fn fig5(records: &[RunRecord]) {
    header("Figure 5 — overall wall clock (minutes) vs processors");
    save("fig5.csv", &to_csv(records));
    for corpus in ["PubMed", "TREC"] {
        println!("\n{corpus} — Overall Timings (wall clock, minutes):");
        let mut names: Vec<&str> = records
            .iter()
            .filter(|r| r.dataset.starts_with(corpus))
            .map(|r| r.dataset.as_str())
            .collect();
        names.dedup();
        print!("{:>8}", "procs");
        for n in &names {
            print!("{:>18}", n.trim_start_matches(corpus).trim());
        }
        println!();
        let procs: Vec<usize> = {
            let mut p: Vec<usize> = records
                .iter()
                .filter(|r| r.dataset.starts_with(corpus))
                .map(|r| r.procs)
                .collect();
            p.sort_unstable();
            p.dedup();
            p
        };
        for p in procs {
            print!("{p:>8}");
            for n in &names {
                match records.iter().find(|r| r.dataset == *n && r.procs == p) {
                    Some(r) => print!("{:>18.1}", r.minutes),
                    None => print!("{:>18}", "-"), // not run (paper §4.2)
                }
            }
            println!();
        }
    }
    println!("\nexpected shape: ~1/P scaling; PubMed 16.44 GB at P=4 is the");
    println!("memory-pressure anomaly (disproportionately slow, §4.2).");
}

fn print_speedup_table(records: &[RunRecord], corpus: &str) {
    let sp = speedups(records);
    let mut names: Vec<&str> = records
        .iter()
        .filter(|r| r.dataset.starts_with(corpus))
        .map(|r| r.dataset.as_str())
        .collect();
    names.dedup();
    print!("{:>8}", "procs");
    for n in &names {
        print!("{:>18}", n.trim_start_matches(corpus).trim());
    }
    println!();
    let mut procs: Vec<usize> = sp
        .iter()
        .filter(|(d, _, _)| d.starts_with(corpus))
        .map(|(_, p, _)| *p)
        .collect();
    procs.sort_unstable();
    procs.dedup();
    for p in procs {
        print!("{p:>8}");
        for n in &names {
            match sp.iter().find(|(d, pp, _)| d == n && *pp == p) {
                Some((_, _, s)) => print!("{s:>17.1}x"),
                None => print!("{:>18}", "-"),
            }
        }
        println!();
    }
}

fn print_component_table(records: &[RunRecord], dataset: &str) {
    let comps = [
        Component::Scan,
        Component::Index,
        Component::Topic,
        Component::Assoc,
        Component::DocVec,
        Component::ClusProj,
    ];
    print!("{:>8}", "procs");
    for c in comps {
        print!("{:>10}", c.label());
    }
    println!();
    for r in records.iter().filter(|r| r.dataset == dataset) {
        if r.procs < 4 {
            continue; // the paper's 6b/7b start at 4 processors
        }
        print!("{:>8}", r.procs);
        for c in comps {
            print!("{:>9.1}%", r.component_pct(c));
        }
        println!();
    }
}

fn fig6(records: &[RunRecord]) {
    header("Figure 6a — PubMed speedup; 6b — component time percentages (2.75 GB)");
    println!("\nPubMed — Overall Performance (speedup vs 1 proc):");
    print_speedup_table(records, "PubMed");
    println!("\nPubMed 2.75 GB — Time Percentage in Components:");
    print_component_table(records, "PubMed 2.75 GB");
    println!("\nexpected shape: near-linear speedup; percentages stable in P");
    println!("except topic, whose share grows (Allreduce-bound).");
}

fn fig7(records: &[RunRecord]) {
    header("Figure 7a — TREC speedup; 7b — component time percentages (1 GB)");
    println!("\nTREC — Overall Performance (speedup vs 1 proc):");
    print_speedup_table(records, "TREC");
    println!("\nTREC 1.00 GB — Time Percentage in Components:");
    print_component_table(records, "TREC 1.00 GB");
}

fn fig8(records: &[RunRecord]) {
    header("Figure 8 — per-component speedups");
    let comps = [
        (Component::Scan, "Scanning"),
        (Component::Index, "Indexing"),
        (Component::DocVec, "Signature Generation"),
        (Component::ClusProj, "Clustering & Projections"),
    ];
    for corpus in ["PubMed", "TREC"] {
        let mut names: Vec<&str> = records
            .iter()
            .filter(|r| r.dataset.starts_with(corpus))
            .map(|r| r.dataset.as_str())
            .collect();
        names.dedup();
        for (c, label) in comps {
            println!("\n{corpus} — {label} speedup:");
            print!("{:>8}", "procs");
            for n in &names {
                print!("{:>18}", n.trim_start_matches(corpus).trim());
            }
            println!();
            let mut procs: Vec<usize> = records
                .iter()
                .filter(|r| r.dataset.starts_with(corpus))
                .map(|r| r.procs)
                .collect();
            procs.sort_unstable();
            procs.dedup();
            for p in procs {
                print!("{p:>8}");
                for n in &names {
                    match component_speedup(records, n, c)
                        .into_iter()
                        .find(|(pp, _)| *pp == p)
                    {
                        Some((_, s)) => print!("{s:>17.1}x"),
                        None => print!("{:>18}", "-"),
                    }
                }
                println!();
            }
        }
    }
    println!("\nexpected shape: every component near-linear; signature");
    println!("generation slightly below linear (its Allreduce share).");
}

fn fig9(quick: bool) {
    header("Figure 9 — dynamic load balancing effectiveness (indexing)");
    // The TREC corpus (heavy-tailed documents) is where static
    // partitioning hurts.
    let ds = trec_datasets(quick)[if quick { 0 } else { 1 }];
    let procs = if quick { 8 } else { 16 };
    println!("\ndataset: {}, {} processors", ds.name, procs);
    let mut csv = String::from("mode,rank,seconds\n");
    for mode in [Balancing::Static, Balancing::Dynamic] {
        let (times, imb) = load_balance_profile(&ds, procs, mode);
        println!("\n{mode:?} partitioning — per-rank indexing scatter time:");
        let max = times.iter().cloned().fold(0.0f64, f64::max);
        for (r, t) in times.iter().enumerate() {
            let bar = if max > 0.0 {
                "#".repeat((t / max * 40.0).round() as usize)
            } else {
                String::new()
            };
            println!("  rank {r:>2}: {t:>8.2} s |{bar:<40}|");
            csv.push_str(&format!("{mode:?},{r},{t:.4}\n"));
        }
        println!("  imbalance (max/mean): {imb:.2}");
    }
    save("fig9.csv", &csv);
    println!("\nexpected shape: dynamic chunking flattens the profile;");
    println!("static owner-computes shows stragglers on the heavy tail.");
}

fn ablate_balancing(quick: bool) {
    header("Ablation — balancing strategy vs processor count");
    let ds = trec_datasets(quick)[0];
    let procs = processor_counts(quick);
    let mut csv = String::from("mode,procs,minutes\n");
    print!("{:>8}", "procs");
    for m in ["Static", "Dynamic", "MasterWorker"] {
        print!("{m:>14}");
    }
    println!("   (total pipeline minutes)");
    let sources = ds.generate();
    let model = ds.model(&sources);
    for &p in &procs {
        print!("{p:>8}");
        for mode in [
            Balancing::Static,
            Balancing::Dynamic,
            Balancing::MasterWorker,
        ] {
            let cfg = EngineConfig {
                balancing: mode,
                ..bench_config()
            };
            let run = run_engine(p, model.clone(), &sources, &cfg);
            let minutes = run.virtual_time / 60.0;
            print!("{minutes:>14.2}");
            csv.push_str(&format!("{mode:?},{p},{minutes:.4}\n"));
        }
        println!();
    }
    save("ablate_balancing.csv", &csv);
    println!("\nexpected: dynamic ≤ static everywhere; master-worker degrades");
    println!("as P grows (centralized queue, §3.3).");
}

fn ablate_chunk(quick: bool) {
    header("Ablation — fixed-size chunking: chunk size sweep");
    let ds = trec_datasets(quick)[0];
    let p = if quick { 8 } else { 16 };
    let sources = ds.generate();
    let model = ds.model(&sources);
    let mut csv = String::from("chunk_docs,index_seconds,imbalance\n");
    println!("\n{} at P={p}:", ds.name);
    println!(
        "{:>12} {:>16} {:>12}",
        "chunk_docs", "index seconds", "imbalance"
    );
    for chunk in [1usize, 2, 4, 16, 64, 256, 1024] {
        let cfg = EngineConfig {
            chunk_docs: chunk,
            ..bench_config()
        };
        let run = run_engine(p, model.clone(), &sources, &cfg);
        let idx_s = run.components.get(Component::Index);
        let times: Vec<f64> = run
            .master()
            .summary
            .load
            .iter()
            .map(|l| l.seconds)
            .collect();
        let max = times.iter().cloned().fold(0.0f64, f64::max);
        let mean = times.iter().sum::<f64>() / times.len() as f64;
        let imb = if mean > 0.0 { max / mean } else { 1.0 };
        println!("{chunk:>12} {idx_s:>16.2} {imb:>12.2}");
        csv.push_str(&format!("{chunk},{idx_s:.4},{imb:.4}\n"));
    }
    save("ablate_chunk.csv", &csv);
    println!("\nexpected: tiny chunks pay atomic overhead, huge chunks");
    println!("re-create imbalance; the sweet spot sits in between.");
}

fn ablate_dims(quick: bool) {
    header("Ablation — static vs adaptive signature dimensionality (§4.2)");
    let ds = pubmed_datasets(quick)[0];
    let sources = ds.generate();
    let model = ds.model(&sources);
    let p = if quick { 4 } else { 8 };
    let mut csv = String::from("mode,n_major,m_dims,null,weak,kmeans_iters,clusproj_minutes\n");
    println!(
        "\n{:>22} {:>8} {:>6} {:>6} {:>6} {:>8} {:>16}",
        "mode", "N", "M", "null", "weak", "km iters", "ClusProj minutes"
    );
    for (label, n_major, adaptive) in [
        ("static (too small)", 30usize, false),
        ("static (default)", 600, false),
        ("adaptive from small", 30, true),
    ] {
        let cfg = EngineConfig {
            n_major,
            adaptive_dims: adaptive,
            max_dim_expansions: 4,
            ..bench_config()
        };
        let run = run_engine(p, model.clone(), &sources, &cfg);
        let s = &run.master().summary;
        let cp_min = run.components.get(Component::ClusProj) / 60.0;
        println!(
            "{label:>22} {:>8} {:>6} {:>6} {:>6} {:>8} {cp_min:>16.2}",
            s.n_major, s.m_dims, s.sig_stats.null, s.sig_stats.weak, s.kmeans_iters
        );
        csv.push_str(&format!(
            "{label},{},{},{},{},{},{cp_min:.4}\n",
            s.n_major, s.m_dims, s.sig_stats.null, s.sig_stats.weak, s.kmeans_iters
        ));
    }
    save("ablate_dims.csv", &csv);
    println!("\nexpected: too-small dimensionality yields null/weak signatures");
    println!("and slow convergence; adaptive expansion recovers the default's");
    println!("quality (the paper's remedy).");
}

fn ablate_network(quick: bool) {
    header("Ablation — interconnect sensitivity (InfiniBand vs GigE)");
    let ds = pubmed_datasets(quick)[0];
    let sources = ds.generate();
    let p = if quick { 8 } else { 32 };
    let mut csv =
        String::from("network,procs,minutes,scan_s,index_s,topic_s,am_s,docvec_s,clusproj_s\n");
    println!("\n{} at P={p}:", ds.name);
    let mut rows = Vec::new();
    for (label, net) in [
        ("InfiniBand", perfmodel::Network::infiniband_sdr()),
        ("GigE", perfmodel::Network::gigabit_ethernet()),
    ] {
        let mut model = CostModel::pnnl_2007_scaled(ds.nominal_bytes(), sources.total_bytes());
        model.cluster.network = net;
        let run = run_engine(p, Arc::new(model), &sources, &bench_config());
        let minutes = run.virtual_time / 60.0;
        let rec = RunRecord::from_run(&ds, p, &run);
        println!(
            "  {label:>11}: {minutes:>7.2} min | scan {:>7.1}s index {:>7.1}s topic {:>6.2}s AM {:>6.2}s DocVec {:>6.2}s ClusProj {:>6.2}s",
            rec.component(Component::Scan),
            rec.component(Component::Index),
            rec.component(Component::Topic),
            rec.component(Component::Assoc),
            rec.component(Component::DocVec),
            rec.component(Component::ClusProj),
        );
        csv.push_str(&format!(
            "{label},{p},{minutes:.4},{:.2},{:.2},{:.2},{:.2},{:.2},{:.2}\n",
            rec.component(Component::Scan),
            rec.component(Component::Index),
            rec.component(Component::Topic),
            rec.component(Component::Assoc),
            rec.component(Component::DocVec),
            rec.component(Component::ClusProj),
        ));
        rows.push(rec);
    }
    save("ablate_network.csv", &csv);
    let ratio = |c: Component| rows[1].component(c) / rows[0].component(c).max(1e-9);
    println!(
        "\ncommunication-bound stages inflate on the slower network (index {:.1}x,\n         topic {:.1}x, AM {:.1}x) while compute-bound stages barely move (DocVec {:.2}x).",
        ratio(Component::Index),
        ratio(Component::Topic),
        ratio(Component::Assoc),
        ratio(Component::DocVec)
    );
}

fn ablate_io(quick: bool) {
    header("Ablation — storage: shared server vs parallel filesystem (§4.2)");
    let ds = pubmed_datasets(quick)[1];
    let sources = ds.generate();
    let mut csv = String::from("storage,procs,scan_seconds\n");
    let procs = processor_counts(quick);
    println!("\n{} — scan component seconds:", ds.name);
    print!("{:>8}", "procs");
    for label in ["shared-NFS", "Lustre"] {
        print!("{label:>14}");
    }
    println!();
    for &p in &procs {
        print!("{p:>8}");
        for (label, storage) in [
            (
                "shared",
                perfmodel::StorageModel::SharedFixed {
                    aggregate_bps: 200e6,
                },
            ),
            (
                "lustre",
                perfmodel::StorageModel::Parallel {
                    per_node_bps: 300e6,
                    backplane_bps: 6e9,
                },
            ),
        ] {
            let mut model = CostModel::pnnl_2007_scaled(ds.nominal_bytes(), sources.total_bytes());
            model.cluster.storage = storage;
            let run = run_engine(p, Arc::new(model), &sources, &bench_config());
            let scan_s = run.components.get(Component::Scan);
            print!("{scan_s:>14.1}");
            csv.push_str(&format!("{label},{p},{scan_s:.3}\n"));
        }
        println!();
    }
    save("ablate_io.csv", &csv);
    println!("\nexpected: with a fixed shared server the scan component's");
    println!("speedup saturates (its I/O share is constant in P); the");
    println!("parallel filesystem restores near-linear scanning — the");
    println!("paper's Lustre remark.");
}

fn ablate_clustering(quick: bool) {
    use inspire_core::hierarchy::Linkage;
    use inspire_core::ClusterMethod;
    header("Ablation — clustering method (§3.5 alternatives)");
    let ds = pubmed_datasets(quick)[0];
    let sources = ds.generate();
    let model = ds.model(&sources);
    let p = if quick { 4 } else { 8 };
    let mut csv = String::from("method,clusters,clusproj_seconds,largest_cluster_frac\n");
    println!(
        "\n{} at P={p}:\n{:>28} {:>9} {:>14} {:>18}",
        ds.name, "method", "clusters", "ClusProj (s)", "largest cluster"
    );
    let methods: Vec<(&str, ClusterMethod)> = vec![
        ("k-means", ClusterMethod::KMeans),
        (
            "hier/single",
            ClusterMethod::Hierarchical {
                linkage: Linkage::Single,
                fine_factor: 4,
                adaptive: false,
            },
        ),
        (
            "hier/complete",
            ClusterMethod::Hierarchical {
                linkage: Linkage::Complete,
                fine_factor: 4,
                adaptive: false,
            },
        ),
        (
            "hier/average+adaptive",
            ClusterMethod::Hierarchical {
                linkage: Linkage::Average,
                fine_factor: 4,
                adaptive: true,
            },
        ),
    ];
    for (label, method) in methods {
        let cfg = EngineConfig {
            cluster_method: method,
            ..bench_config()
        };
        let run = run_engine(p, model.clone(), &sources, &cfg);
        let master = run.master();
        let clusters = master.cluster_sizes.iter().filter(|&&s| s > 0).count();
        let total: u64 = master.cluster_sizes.iter().sum();
        let largest = *master.cluster_sizes.iter().max().unwrap_or(&0) as f64 / total.max(1) as f64;
        let cp = run.components.get(Component::ClusProj);
        println!(
            "{label:>28} {clusters:>9} {cp:>14.1} {:>17.1}%",
            largest * 100.0
        );
        csv.push_str(&format!("{label},{clusters},{cp:.3},{largest:.4}\n"));
    }
    save("ablate_clustering.csv", &csv);
    println!("\nexpected: single link chains into few giant clusters; complete/");
    println!("average yield balanced themes; the adaptive cut picks its own k;");
    println!("hierarchical costs a little more ClusProj time (finer k-means).");
}
