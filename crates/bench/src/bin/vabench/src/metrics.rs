//! The benchmark's contract in one place: workloads, end-to-end metrics
//! with their regression bounds, per-layer metrics — and the
//! `BENCHMARK.json` they render to. `vabench spec` prints that file;
//! `vabench check` fails when the checked-in copy has drifted from these
//! tables.

use inspire_trace::json::{escape, num};
use std::collections::BTreeMap;

/// How long one run measures, in seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 10;

/// `(name, why)` of every workload, in run order.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "build_batch",
        "the paper's experiment: corpus bytes in memory to a durable Final snapshot at P=2; scan, FAST-INV, signatures, k-means and the snapshot writer do all the work, serving none",
    ),
    (
        "serve_cold",
        "all-distinct HTTP requests at controlled selectivity, cache can never hit: postings decode, boolean seek, tf-idf ranking and serialization dominate",
    ),
    (
        "serve_hot",
        "Zipf(1.0) over 256 targets that fit the LRU, hit rate >= 0.99: accept, queue, HTTP parse, cache probe and socket write dominate, query evaluation does nothing",
    ),
    (
        "similar_ann",
        "all-distinct /similar requests by doc id and by text at nprobe 4/16/64: quantized IVF scan and exact re-rank dominate, the inverted index is idle",
    ),
    (
        "ingest_live",
        "writes beside reads: WAL append, seal, manifest flip, live reload, hot swap and compaction, timed to visibility in a served body while a reader issues cold searches",
    ),
];

pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|(w, _)| *w == name)
}

/// An end-to-end metric: every workload reports every one of these.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// What "one operation" is on each workload is stated in the README:
/// a build, an HTTP request, or an append made visible.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "disk_bytes_per_input_byte",
        unit: "ratio",
        better: "lower",
        bound: 0.1,
    },
];

/// `(name, unit, better)` of every per-layer metric. A workload that
/// does not exercise a layer reports 0 for that layer's metrics.
pub const PER_LAYER: [(&str, &str, &str); 88] = [
    // build_batch — outside timing by stage differencing, plus the
    // engine's own per-stage wall timers and exact work counts.
    ("core.scan_s", "s", "lower"),
    ("core.index_s", "s", "lower"),
    ("core.sig_s", "s", "lower"),
    ("core.clusproj_s", "s", "lower"),
    ("store.snapshot_write_s", "s", "lower"),
    ("core.topicality_s", "s", "lower"),
    ("core.assoc_s", "s", "lower"),
    ("core.signature_s", "s", "lower"),
    ("build.layers_sum_ratio", "ratio", "lower"),
    ("perfmodel.virtual_s", "s", "lower"),
    ("spmd.msgs", "count", "lower"),
    ("spmd.bytes", "bytes", "lower"),
    ("ga.index_msgs", "count", "lower"),
    ("ga.vocab_rpc_msgs", "count", "lower"),
    ("core.docs", "count", "higher"),
    ("core.vocab", "count", "higher"),
    ("core.postings", "count", "higher"),
    ("core.kmeans_iters", "count", "lower"),
    ("core.dim_expansions", "count", "lower"),
    ("store.snapshot_bytes", "bytes", "lower"),
    ("store.index_bytes", "bytes", "lower"),
    ("store.sig_bytes", "bytes", "lower"),
    ("store.ivf_bytes", "bytes", "lower"),
    ("corpus.generate_s", "s", "lower"),
    ("store.snapshot_load_ms", "ms", "lower"),
    // serve_cold / serve_hot — single-threaded in-process replay.
    ("serve.http.parse_us", "us", "lower"),
    ("serve.request.route_us", "us", "lower"),
    ("serve.lru.miss_insert_us", "us", "lower"),
    ("serve.lru.hit_us", "us", "lower"),
    ("core.query.eval_us.term", "us", "lower"),
    ("core.query.eval_us.query", "us", "lower"),
    ("core.query.eval_us.search", "us", "lower"),
    ("core.query.eval_us.cluster", "us", "lower"),
    ("core.query.eval_us.rect", "us", "lower"),
    ("serve.request.serialize_us", "us", "lower"),
    ("core.query.search_us.rare", "us", "lower"),
    ("core.query.search_us.mid", "us", "lower"),
    ("core.query.search_us.common", "us", "lower"),
    ("store.codec.decode_ns_per_posting", "ns", "lower"),
    ("store.codec.postings_decoded", "count", "lower"),
    ("core.query.docs_scored", "count", "lower"),
    ("serve.inproc_p50_us", "us", "lower"),
    ("serve.wire_overhead_us", "us", "lower"),
    ("serve.server.search_p50_us", "us", "lower"),
    ("serve.server.max_in_flight", "count", "higher"),
    ("serve.server.rejected_429", "count", "lower"),
    ("serve.lru.hit_rate", "ratio", "higher"),
    ("serve.lru.resident_bytes", "bytes", "lower"),
    ("serve.lru.evictions", "count", "lower"),
    // similar_ann.
    ("core.ann.search_us.nprobe4", "us", "lower"),
    ("core.ann.search_us.nprobe16", "us", "lower"),
    ("core.ann.search_us.nprobe64", "us", "lower"),
    ("core.ann.probed_per_query", "count", "lower"),
    ("core.ann.candidates_per_query", "count", "lower"),
    ("core.ann.reranked_per_query", "count", "lower"),
    ("core.ann.exhaustive_us", "us", "lower"),
    ("core.ann.speedup_vs_exhaustive", "ratio", "higher"),
    ("core.ann.recall_at_10.nprobe4", "ratio", "higher"),
    ("core.ann.recall_at_10.nprobe16", "ratio", "higher"),
    ("core.ann.recall_at_10.nprobe64", "ratio", "higher"),
    ("core.ann.embed_text_us", "us", "lower"),
    ("store.qsig_bytes_per_doc", "bytes", "lower"),
    // ingest_live.
    ("ingest.wal.append_ms", "ms", "lower"),
    ("ingest.seal_ms", "ms", "lower"),
    ("serve.live.load_ms", "ms", "lower"),
    ("serve.live.load_ms_at_1seg", "ms", "lower"),
    ("serve.live.load_ms_at_64seg", "ms", "lower"),
    ("serve.server.swap_us", "us", "lower"),
    ("serve.live.probe_ms", "ms", "lower"),
    ("ingest.compact_s", "s", "lower"),
    ("ingest.compact_bytes_rewritten", "bytes", "lower"),
    ("ingest.segments_open_max", "count", "lower"),
    ("ingest.wal_bytes", "bytes", "lower"),
    ("ingest.segment_bytes", "bytes", "lower"),
    ("ingest.manifest_bytes", "bytes", "lower"),
    ("ingest.tombstones", "count", "higher"),
    ("serve.live.search_us_at_64seg", "us", "lower"),
    ("serve.live.search_us_compacted", "us", "lower"),
    ("ingest.recovery_open_ms", "ms", "lower"),
    // What a client of the traced run saw, per request class; these
    // are the workload-specific latencies the generic end-to-end
    // metrics pool or leave out.
    ("client.p50_ms", "ms", "lower"),
    ("client.p99_ms", "ms", "lower"),
    ("client.search_p50_ms", "ms", "lower"),
    ("client.search_p99_ms", "ms", "lower"),
    ("client.read_p50_ms", "ms", "lower"),
    ("client.ttv_p50_ms", "ms", "lower"),
    ("client.ttv_p90_ms", "ms", "lower"),
    ("client.build_s", "s", "lower"),
    ("bench.spans_recorded", "count", "higher"),
];

/// Per-layer values of one run, keyed by the names in [`PER_LAYER`].
#[derive(Debug, Default, Clone)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Record one per-layer value. Panics on a name [`PER_LAYER`] does
    /// not list, so a typo cannot silently report 0.
    pub fn set(&mut self, name: &str, value: f64) {
        let (known, ..) = PER_LAYER
            .iter()
            .find(|(n, ..)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        self.0.insert(known, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// `{"name": {"value": v, "unit": "u"}, …}` in table order.
pub fn metrics_object<'a>(rows: impl Iterator<Item = (&'a str, &'a str, f64)>) -> String {
    let body: Vec<String> = rows
        .map(|(name, unit, value)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                num(value)
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

/// The `BENCHMARK.json` these tables define.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"crates/bench/src/bin/vabench/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"crates/bench/src/bin/vabench\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{}\"}}", escape(why)))
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better,
                num(m.bound)
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|(name, unit, better)| {
            format!("    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}")
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        !name.is_empty()
            && name.len() <= 64
            && name.chars().all(ok)
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
    }

    #[test]
    fn tables_respect_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.0));
        assert!(names.iter().all(|n| well_formed(n)), "{names:?}");
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "every name is used once");
        assert!(WORKLOADS
            .iter()
            .all(|w| w.1.len() <= 200 && !w.1.contains('\n')));
        assert!(END_TO_END.iter().all(|m| (0.0..=0.25).contains(&m.bound)));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.1));
        for u in units {
            let ok =
                |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
            assert!(!u.is_empty() && u.len() <= 16 && u.chars().all(ok), "{u}");
        }
    }

    #[test]
    fn rendered_spec_parses_and_is_small() {
        let text = benchmark_json();
        assert!(text.len() <= 64 * 1024);
        let doc = inspire_trace::json::parse(&text).expect("valid JSON");
        let count = |key: &str| doc.get(key).and_then(|v| v.as_arr()).map_or(0, |a| a.len());
        assert_eq!(count("workloads"), WORKLOADS.len());
        assert_eq!(count("end_to_end"), END_TO_END.len());
        assert_eq!(count("per_layer"), PER_LAYER.len());
        let command = doc.get("command").and_then(|v| v.as_arr()).unwrap();
        assert!(command.len() <= 32);
    }

    #[test]
    #[should_panic(expected = "not a per-layer metric")]
    fn unknown_layer_names_are_refused() {
        Layers::default().set("core.sacn_s", 1.0);
    }
}
