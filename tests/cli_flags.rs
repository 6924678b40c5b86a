//! `vaengine` checks its command line against the subcommand's usage
//! line, and reads every numeric flag, before it does any work: an
//! undeclared word or a malformed or out-of-range value exits 2 with a
//! message naming it, instead of being ignored, falling back to a
//! default, panicking, or running.

use std::path::{Path, PathBuf};

mod common;
use common::{build_snapshot, words, Scratch};
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

/// Every file under `dir` with its bytes, sorted by path.
fn tree(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        match path.is_dir() {
            true => files.extend(tree(&path)),
            false => files.push((path.clone(), std::fs::read(&path).unwrap())),
        }
    }
    files.sort();
    files
}

/// A word the subcommand's usage line does not declare — an unknown
/// flag, the `--flag=value` spelling, a repeated flag, a stray
/// positional, a missing value — or a choice of sources other than
/// exactly one exits 2 naming it, before the command does any work.
#[test]
fn undeclared_words_exit_2_naming_them_before_any_work() {
    let dir = Scratch::new("cli-undeclared");
    fixtures(&dir);
    dir.vaengine(&words("ingest --dir live --base engine.isnap"))
        .ok();
    let cases = [
        ("query --snapshot engine.isnap --bogus 3 --json", "--bogus"),
        (
            "query --snapshot engine.isnap --rect=-1,-1,1,1",
            "--rect=-1,-1,1,1",
        ),
        ("query --snapshot engine.isnap --term", "--term"),
        (
            "serve --snapshot engine.isnap --ingest-dir live --addr 127.0.0.1:0",
            "--ingest-dir",
        ),
        ("migrate --dir live --in engine.isnap --out m.isnap", "--in"),
        ("ingest --dir live --input corpus --delete 3,x", "\"x\""),
        (
            "analyze --input corpus --out o.csv --procs 1 --procs 2",
            "--procs",
        ),
        ("snapshot --input corpus extra --out o.isnap", "\"extra\""),
    ];
    let before = tree(&dir);
    for (line, token) in cases {
        let args = words(line);
        let run = dir.vaengine(&args);
        assert_eq!(run.code, Some(2), "{args:?}: {}{}", run.stdout, run.stderr);
        assert!(
            run.stderr.contains(token),
            "{args:?} must name {token}: {}",
            run.stderr
        );
        for work in ["serving on", "sealed", "migrated", "loaded"] {
            assert!(!run.stdout.contains(work), "{args:?}: {}", run.stdout);
        }
        assert!(tree(&dir) == before, "{args:?} wrote a file");
    }
}
