//! `vaengine query` has one executor: human output and `--json` both
//! come from `inspire_serve::execute`, so a request the server refuses
//! is refused by both CLI modes, with the server's message.

use std::path::PathBuf;
use std::process::Command;
use std::sync::Arc;
use visual_analytics::prelude::*;

fn build_snapshot() -> PathBuf {
    let path = std::env::temp_dir().join(format!("va-cli-query-{}.isnap", std::process::id()));
    let src = CorpusSpec::pubmed(128 * 1024, 37).generate();
    let cfg = EngineConfig {
        snapshot_out: Some(path.clone()),
        ..EngineConfig::for_testing()
    };
    run_engine(2, Arc::new(CostModel::zero()), &src, &cfg);
    path
}

/// Exit status and the `query failed:` line of one CLI query.
fn query(snapshot: &PathBuf, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_vaengine"))
        .arg("query")
        .arg("--snapshot")
        .arg(snapshot)
        .args(args)
        .output()
        .expect("run vaengine");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let failed = stderr.lines().filter(|l| l.starts_with("query failed"));
    (out.status.code(), failed.collect::<Vec<_>>().join("\n"))
}

#[test]
fn refused_queries_fail_alike_in_both_output_modes() {
    let snapshot = build_snapshot();
    for (args, message) in [
        (["--cluster", "999"], "unknown cluster 999 (0.."),
        (["--similar", "999999"], "unknown document 999999 (0.."),
    ] {
        let human = query(&snapshot, &args);
        let json = query(&snapshot, &[&args[..], &["--json"]].concat());
        assert_eq!(human, json, "{args:?}: the two modes disagree");
        assert_eq!(human.0, Some(1), "{args:?} must fail");
        assert!(human.1.contains(message), "{args:?}: {:?}", human.1);
    }
    let _ = std::fs::remove_file(&snapshot);
}
