//! Dynamic load balancing in action (the paper's Figure 9 story).
//!
//! Static byte-balanced partitioning equalizes *bytes*, but GOV2-like web
//! data has heavy-tailed documents, so inversion work (postings) lands
//! unevenly. This example runs the indexing stage under all three
//! balancing strategies and prints each rank's scatter-phase time — watch
//! dynamic chunking flatten the profile while static owner-computes
//! leaves stragglers, and master-worker pays the centralized-queue tax.
//!
//! ```text
//! cargo run --release --example load_balancing
//! ```

use inspire_core::index::invert;
use inspire_core::scan::scan;
use inspire_core::{Balancing, EngineConfig};
use std::sync::Arc;
use visual_analytics::prelude::*;

fn main() {
    let sources = CorpusSpec::trec(2 * 1024 * 1024, 3).generate();
    println!(
        "indexing a {:.1} MB GOV2-like corpus (standing in for 2 GB) on 8 simulated processors\n",
        sources.total_bytes() as f64 / 1e6
    );

    let p = 8;
    let nominal: u64 = 2 << 30;
    for balancing in [
        Balancing::Static,
        Balancing::Dynamic,
        Balancing::MasterWorker,
    ] {
        // threads_per_rank speeds up the host-side scan/count loops; the
        // virtual load figures printed below are identical at any width.
        let config = EngineConfig {
            balancing,
            chunk_docs: 8,
            threads_per_rank: 2,
            ..EngineConfig::default()
        };
        let model = Arc::new(CostModel::pnnl_2007_scaled(nominal, sources.total_bytes()));
        let rt = Runtime::new(model).with_threads_per_rank(config.threads_per_rank);
        let res = rt.run(p, |ctx| {
            let (s, fwd) = scan(ctx, &sources);
            let idx = invert(ctx, &s, fwd, &config);
            idx.load
        });
        let load = &res.results[0];
        let times: Vec<f64> = load.iter().map(|l| l.seconds).collect();
        let max = times.iter().cloned().fold(0.0f64, f64::max);
        let mean = times.iter().sum::<f64>() / times.len() as f64;
        println!("{balancing:?} balancing — per-rank scatter time:");
        for (r, l) in load.iter().enumerate() {
            let bar_len = if max > 0.0 {
                (l.seconds / max * 46.0).round() as usize
            } else {
                0
            };
            println!(
                "  rank {r}: {:>7.2} s |{:<46}| own {:>3}, stolen {:>3}, {:>7} postings",
                l.seconds,
                "#".repeat(bar_len),
                l.own_tasks,
                l.stolen_tasks,
                l.postings
            );
        }
        println!(
            "  imbalance (max/mean): {:.2}\n",
            if mean > 0.0 { max / mean } else { 1.0 }
        );
    }
}
