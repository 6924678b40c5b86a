//! PubMed-style analysis session: the paper's motivating scenario.
//!
//! An analyst wants the gist of a biomedical abstract collection without
//! reading it: which themes dominate, how are they related, and which
//! documents should be read first for a given interest. This example runs
//! the full pipeline on a PubMed-like corpus, reports the discovered
//! topics and clusters, and finishes with a ranked retrieval against the
//! engine's inverted index — the "identify the pertinent documents for
//! reading" workflow of §2.1.
//!
//! ```text
//! cargo run --release --example pubmed_analysis
//! ```

use inspire_core::index::invert;
use inspire_core::query::search;
use inspire_core::scan::scan;
use inspire_core::topicality::select_topics;
use inspire_core::EngineConfig;
use std::sync::Arc;
use visual_analytics::prelude::*;

fn main() {
    let sources = CorpusSpec::pubmed(3 * 1024 * 1024, 7).generate();
    println!(
        "analyzing a {:.1} MB PubMed-like collection…\n",
        sources.total_bytes() as f64 / 1e6
    );

    // ---- Full pipeline for the thematic overview ----
    let config = EngineConfig::default();
    let run = run_engine(8, Arc::new(CostModel::pnnl_2007()), &sources, &config);
    let master = run.master();

    println!("collection overview:");
    println!("  documents        : {}", master.summary.total_docs);
    println!("  vocabulary       : {}", master.summary.vocab_size);
    println!("  major terms (N)  : {}", master.summary.n_major);
    println!("  topic dims  (M)  : {}", master.summary.m_dims);
    println!(
        "  null/weak sigs   : {}/{}",
        master.summary.sig_stats.null, master.summary.sig_stats.weak
    );
    println!(
        "  dim expansions   : {} (adaptive dimensionality, §4.2)",
        master.summary.dim_expansions
    );

    println!("\ndiscovered themes (cluster → size, top terms):");
    let mut order: Vec<usize> = (0..master.cluster_sizes.len()).collect();
    order.sort_by_key(|&c| std::cmp::Reverse(master.cluster_sizes[c]));
    for &c in order.iter().take(8) {
        if master.cluster_sizes[c] == 0 {
            continue;
        }
        println!(
            "  #{c:<2} {:>5} docs — {}",
            master.cluster_sizes[c],
            master.cluster_labels[c].join(", ")
        );
    }

    // ---- Ranked retrieval against the inverted index ----
    // Reuse the scanning/indexing stages directly to demonstrate the
    // index as a standalone product.
    let rt = Runtime::new(Arc::new(CostModel::pnnl_2007()));
    let res = rt.run(4, |ctx| {
        let (s, fwd) = scan(ctx, &sources, &config);
        let idx = invert(ctx, &s, fwd, &config);
        let topics = select_topics(ctx, &idx, &config, config.n_major, config.m_dims());
        // Query: the two strongest topics.
        let query: Vec<String> = topics
            .topics
            .iter()
            .take(2)
            .map(|&t| s.terms[t as usize].to_string())
            .collect();
        let query = query.join(" ");
        let hits = search(ctx, &s, &idx, &query, 5);
        (query, hits)
    });
    let (query, hits) = &res.results[0];
    println!("\nranked retrieval for the top topics ({query:?}):");
    for h in hits {
        println!("  doc {:>6}  score {:.3}", h.doc, h.score);
    }

    println!(
        "\nvirtual processing time on 8 procs of the 2007 cluster: {:.1} s",
        run.virtual_time
    );
}
