//! `vaengine` reads every numeric flag before it does any work: a
//! malformed or out-of-range value exits 2 with a message naming the
//! flag, instead of falling back to a default, panicking, or running.

mod common;
use common::{build_snapshot, Scratch};
use visual_analytics::prelude::*;

/// A corpus directory, its Final snapshot and a coordinate file: inputs
/// every command below accepts, so a flag check is the only thing that
/// can stop it.
fn fixtures(dir: &Scratch) {
    let src = CorpusSpec::pubmed(32 * 1024, 3).generate();
    visual_analytics::corpus::load::write_dir(&src, &dir.join("corpus")).unwrap();
    build_snapshot(&src, &dir.join("engine.isnap"), 1);
    std::fs::write(
        dir.join("coords.csv"),
        "doc,x,y,cluster\n0,0.25,0.5,0\n1,0.75,0.5,1\n",
    )
    .unwrap();
}

#[test]
fn malformed_numeric_flags_exit_2_naming_the_flag() {
    let dir = Scratch::new("cli-flags");
    fixtures(&dir);
    let analyze = ["analyze", "--input", "corpus", "--out", "out.csv"];
    let serve = [
        "serve",
        "--snapshot",
        "engine.isnap",
        "--addr",
        "127.0.0.1:0",
    ];
    let query = ["query", "--snapshot", "engine.isnap", "--term", "cell"];
    let snapshot = ["snapshot", "--input", "corpus", "--out", "out.isnap"];
    let generate = ["generate", "--size", "8K", "--out", "gen"];
    let cases: Vec<(Vec<&str>, &str)> = vec![
        ([&analyze[..], &["--procs", "0"]].concat(), "--procs"),
        ([&analyze[..], &["--procs", "abc"]].concat(), "--procs"),
        (
            [&analyze[..], &["--clusters", "abc"]].concat(),
            "--clusters",
        ),
        ([&analyze[..], &["--clusters", "0"]].concat(), "--clusters"),
        ([&analyze[..], &["--resume"]].concat(), "--resume"),
        ([&snapshot[..], &["--procs", "-1"]].concat(), "--procs"),
        ([&generate[..], &["--seed", "abc"]].concat(), "--seed"),
        ([&serve[..], &["--workers", "abc"]].concat(), "--workers"),
        ([&serve[..], &["--queue", "0"]].concat(), "--queue"),
        ([&query[..], &["--repeat", "abc"]].concat(), "--repeat"),
        ([&query[..], &["--repeat", "0"]].concat(), "--repeat"),
        (
            vec!["themeview", "--coords", "coords.csv", "--width", "0"],
            "--width",
        ),
    ];
    for (args, flag) in &cases {
        let run = dir.vaengine(args);
        assert_eq!(run.code, Some(2), "{args:?}: {}", run.stderr);
        assert!(
            run.stderr.contains(flag),
            "{args:?} must name {flag}: {}",
            run.stderr
        );
        // No work began: a server never bound its port.
        assert!(
            !run.stdout.contains("serving on"),
            "{args:?}: {}",
            run.stdout
        );
    }
}
