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

/// The message `ServeRequest::parse` refuses `route?params` with.
fn parse_refusal(route: &str, params: &[(&str, &str)]) -> String {
    let params: Vec<(String, String)> = params
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    inspire_serve::ServeRequest::parse(route, &params)
        .expect_err("the server refuses this request")
        .message
}

#[test]
fn refused_queries_fail_alike_in_both_output_modes() {
    let snapshot = build_snapshot();
    let refused_at_execute = [
        (
            &["--cluster", "999"][..],
            "unknown cluster 999 (0..".to_string(),
        ),
        (
            &["--similar", "999999"],
            "unknown document 999999 (0..".to_string(),
        ),
    ];
    // Flags the server's validator refuses: the CLI must fail with
    // exactly its message.
    let refused_at_parse = [
        (
            &["--search", "protein cell", "--top", "0"][..],
            parse_refusal("/search", &[("q", "protein cell"), ("top", "0")]),
        ),
        (
            &["--rect", "nan,0,1,1"],
            parse_refusal(
                "/rect",
                &[("x0", "nan"), ("y0", "0"), ("x1", "1"), ("y1", "1")],
            ),
        ),
        (
            &["--term", "protein", "--top", "abc"],
            parse_refusal("/term", &[("t", "protein"), ("top", "abc")]),
        ),
        (&["--search", ""], parse_refusal("/search", &[("q", "")])),
    ];
    // The `query failed:` line both modes print, once they agree on it
    // and on the exit status.
    let fails_alike = |args: &[&str]| {
        let human = query(&snapshot, args);
        let json = query(&snapshot, &[args, &["--json"]].concat());
        assert_eq!(human, json, "{args:?}: the two modes disagree");
        assert_eq!(human.0, Some(1), "{args:?} must fail");
        human.1
    };
    for (args, message) in refused_at_execute {
        let failed = fails_alike(args);
        assert!(failed.contains(&message), "{args:?}: {failed:?}");
    }
    for (args, message) in refused_at_parse {
        assert_eq!(
            fails_alike(args),
            format!("query failed: {message}"),
            "{args:?}"
        );
    }
    let _ = std::fs::remove_file(&snapshot);
}
