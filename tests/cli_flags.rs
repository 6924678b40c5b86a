//! `vaengine` reads every numeric flag before it does any work: a
//! malformed or out-of-range value exits 2 with a message naming the
//! flag, instead of falling back to a default, panicking, or running.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};
use visual_analytics::prelude::*;

/// A command that would do work exits well inside this; one that is
/// still running (a server that bound its port) is killed and fails.
const DEADLINE: Duration = Duration::from_secs(60);

/// Exit status (`None` when killed at the deadline) and stderr.
fn vaengine(args: &[&str]) -> (Option<i32>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_vaengine"))
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("run vaengine");
    let started = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("wait for vaengine") {
            break status.code();
        }
        if started.elapsed() > DEADLINE {
            child.kill().ok();
            child.wait().ok();
            break None;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stderr = String::new();
    std::io::Read::read_to_string(&mut child.stderr.take().unwrap(), &mut stderr).ok();
    (status, stderr)
}

/// A corpus directory, its Final snapshot and a coordinate file: inputs
/// every command below accepts, so a flag check is the only thing that
/// can stop it.
fn fixtures(dir: &Path) -> (String, String, String) {
    let _ = std::fs::remove_dir_all(dir);
    let corpus_dir = dir.join("corpus");
    let src = CorpusSpec::pubmed(32 * 1024, 3).generate();
    visual_analytics::corpus::load::write_dir(&src, &corpus_dir).unwrap();
    let snapshot = dir.join("engine.isnap");
    let cfg = EngineConfig {
        snapshot_out: Some(snapshot.clone()),
        ..EngineConfig::for_testing()
    };
    run_engine(1, Arc::new(CostModel::zero()), &src, &cfg);
    let coords = dir.join("coords.csv");
    std::fs::write(&coords, "doc,x,y,cluster\n0,0.25,0.5,0\n1,0.75,0.5,1\n").unwrap();
    let s = |p: PathBuf| p.to_string_lossy().into_owned();
    (s(corpus_dir), s(snapshot), s(coords))
}

#[test]
fn malformed_numeric_flags_exit_2_naming_the_flag() {
    let dir = std::env::temp_dir().join(format!("va-cli-flags-{}", std::process::id()));
    let (corpus, snapshot, coords) = fixtures(&dir);
    let out = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let (coords_out, snapshot_out, corpus_out) = (out("out.csv"), out("out.isnap"), out("gen"));
    let analyze = ["analyze", "--input", &corpus, "--out", &coords_out];
    let serve = ["serve", "--snapshot", &snapshot, "--addr", "127.0.0.1:0"];
    let query = ["query", "--snapshot", &snapshot, "--term", "cell"];
    let cases: Vec<(Vec<&str>, &str)> = vec![
        ([&analyze[..], &["--procs", "0"]].concat(), "--procs"),
        ([&analyze[..], &["--procs", "abc"]].concat(), "--procs"),
        (
            [&analyze[..], &["--clusters", "abc"]].concat(),
            "--clusters",
        ),
        ([&analyze[..], &["--clusters", "0"]].concat(), "--clusters"),
        ([&analyze[..], &["--resume"]].concat(), "--resume"),
        (
            vec![
                "snapshot",
                "--input",
                &corpus,
                "--out",
                &snapshot_out,
                "--procs",
                "-1",
            ],
            "--procs",
        ),
        (
            vec![
                "generate",
                "--size",
                "8K",
                "--out",
                &corpus_out,
                "--seed",
                "abc",
            ],
            "--seed",
        ),
        ([&serve[..], &["--workers", "abc"]].concat(), "--workers"),
        ([&serve[..], &["--queue", "0"]].concat(), "--queue"),
        ([&query[..], &["--repeat", "abc"]].concat(), "--repeat"),
        ([&query[..], &["--repeat", "0"]].concat(), "--repeat"),
        (
            vec!["themeview", "--coords", &coords, "--width", "0"],
            "--width",
        ),
    ];
    for (args, flag) in &cases {
        let (status, stderr) = vaengine(args);
        assert_eq!(status, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(flag), "{args:?} must name {flag}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
