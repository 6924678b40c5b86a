//! The harness the integration tests share: one scratch directory, one
//! runner for the `vaengine` binary, one guard around a running
//! `vaengine serve`, and the fixtures several test files build.
//!
//! Every binary run starts in its test's scratch directory, so a test
//! names its files relative to it. A server always binds port 0 and is
//! killed and reaped when its guard drops, so no test holds a fixed port
//! and none leaves a process behind, whether it passes or panics.

#![allow(dead_code)]

use inspire_trace::json::Value;
use std::ffi::OsStr;
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use visual_analytics::engine::query::SearchIndex;
use visual_analytics::prelude::*;
use visual_analytics::serve::{http, ServeState};

/// A command that does its work exits well inside this; one still
/// running at the deadline is killed, and its run has no exit status.
const DEADLINE: Duration = Duration::from_secs(60);

/// Bound on one HTTP exchange with a served test server.
const HTTP_TIMEOUT: Duration = Duration::from_secs(10);

/// A fresh directory under the system temp directory, removed on drop
/// unless the test is panicking (a failed test leaves its files).
pub struct Scratch(PathBuf);

impl Scratch {
    /// `tag` must be unique among the tests of one test binary.
    pub fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("va-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    /// Run `vaengine args` in this directory, to exit or [`DEADLINE`].
    pub fn vaengine<S: AsRef<OsStr>>(&self, args: &[S]) -> Run {
        let mut child = self.command(args).spawn().expect("run vaengine");
        let out = drain(child.stdout.take().unwrap());
        let err = drain(child.stderr.take().unwrap());
        let started = Instant::now();
        let code = loop {
            if let Some(status) = child.try_wait().expect("wait for vaengine") {
                break status.code();
            }
            if started.elapsed() > DEADLINE {
                child.kill().ok();
                child.wait().ok();
                break None;
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        let text =
            |h: JoinHandle<Vec<u8>>| String::from_utf8_lossy(&h.join().unwrap()).into_owned();
        Run {
            code,
            stdout: text(out),
            stderr: text(err),
        }
    }

    /// Start `vaengine serve args --addr 127.0.0.1:0` in this directory
    /// and wait for it to print the address it bound.
    pub fn serve(&self, args: &[&str]) -> ServeChild {
        let mut child = (self.command(&[&["serve"], args].concat()))
            .arg("--addr")
            .arg("127.0.0.1:0")
            // `--access-log` writes at level info only.
            .env("INSPIRE_LOG", "info")
            .spawn()
            .expect("start vaengine serve");
        let log = Arc::new(Mutex::new(String::new()));
        let (bound, addr) = mpsc::channel();
        let follow = |pipe: Box<dyn Read + Send>, bound: Option<mpsc::Sender<SocketAddr>>| {
            let log = Arc::clone(&log);
            std::thread::spawn(move || {
                for line in BufReader::new(pipe).lines().map_while(Result::ok) {
                    log.lock().unwrap().push_str(&format!("{line}\n"));
                    let at = line.strip_prefix("serving on http://");
                    if let (Some(at), Some(bound)) = (at, &bound) {
                        let at = at.split_whitespace().next().unwrap_or_default();
                        bound.send(at.parse().expect("bound address")).ok();
                    }
                }
            })
        };
        let readers = vec![
            follow(Box::new(child.stdout.take().unwrap()), Some(bound)),
            follow(Box::new(child.stderr.take().unwrap()), None),
        ];
        let mut server = ServeChild {
            child,
            addr: "0.0.0.0:0".parse().unwrap(),
            log,
            readers,
        };
        match addr.recv_timeout(DEADLINE) {
            Ok(addr) => server.addr = addr,
            Err(e) => panic!("vaengine serve never bound ({e}):\n{}", server.log()),
        }
        server
    }

    fn command<S: AsRef<OsStr>>(&self, args: &[S]) -> Command {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_vaengine"));
        cmd.current_dir(&self.0)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        cmd
    }
}

impl Deref for Scratch {
    type Target = Path;
    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}

/// Read a pipe to its end on a thread of its own, so a child never
/// blocks on a full pipe while its parent waits for it.
fn drain(mut pipe: impl Read + Send + 'static) -> JoinHandle<Vec<u8>> {
    std::thread::spawn(move || {
        let mut bytes = Vec::new();
        pipe.read_to_end(&mut bytes).ok();
        bytes
    })
}

/// What one `vaengine` run left: its exit status (`None` when it was
/// killed at the deadline), its stdout and its stderr.
#[derive(Debug)]
pub struct Run {
    pub code: Option<i32>,
    pub stdout: String,
    pub stderr: String,
}

impl Run {
    /// The run, after asserting that it exited 0.
    pub fn ok(self) -> Run {
        assert_eq!(self.code, Some(0), "vaengine failed: {}", self.stderr);
        self
    }

    /// The run, after asserting that it failed with a message that
    /// names `what` and that no panic produced it.
    pub fn refused(self, what: &str) -> Run {
        assert!(
            !matches!(self.code, Some(0) | None),
            "expected a refusal naming {what:?}, got {:?}: {}",
            self.code,
            self.stdout
        );
        assert!(
            self.stderr.contains(what),
            "{what:?} not named: {}",
            self.stderr
        );
        assert!(
            !self.stderr.contains("panicked"),
            "refused by a panic: {}",
            self.stderr
        );
        self
    }
}

/// A running `vaengine serve`; dropping it kills and reaps the process.
pub struct ServeChild {
    child: Child,
    pub addr: SocketAddr,
    log: Arc<Mutex<String>>,
    readers: Vec<JoinHandle<()>>,
}

impl ServeChild {
    /// `GET target`, answered with any status.
    pub fn get(&self, target: &str) -> http::Response {
        http::get(self.addr, target, HTTP_TIMEOUT).unwrap_or_else(|e| panic!("{target}: {e}"))
    }

    /// `GET target`, asserting a 200; its body.
    pub fn body(&self, target: &str) -> String {
        let resp = self.get(target);
        assert_eq!(resp.status, 200, "{target}: {}", resp.body);
        resp.body
    }

    /// Everything the server printed so far, stdout and stderr.
    pub fn log(&self) -> String {
        self.log.lock().unwrap().clone()
    }

    /// Send SIGTERM (with `kill -TERM`: the tests link no libc) and wait
    /// up to `within` for the process to exit. The exit status, `None`
    /// if it was still running; and everything it printed.
    pub fn terminate(mut self, within: Duration) -> (Option<std::process::ExitStatus>, String) {
        let pid = self.child.id().to_string();
        let sent = Command::new("kill").args(["-TERM", &pid]).status();
        assert!(sent.expect("run kill").success(), "kill -TERM {pid} failed");
        let started = Instant::now();
        let status = loop {
            if let Some(status) = self.child.try_wait().expect("wait for vaengine serve") {
                break Some(status);
            }
            if started.elapsed() > within {
                break None;
            }
            std::thread::sleep(Duration::from_millis(10));
        };
        if status.is_some() {
            self.join_readers();
        }
        (status, self.log())
    }

    /// Wait for the output threads; they end when the process has. A
    /// reader panics only on an unparsable `serving on` line, which has
    /// already failed [`Scratch::serve`].
    fn join_readers(&mut self) {
        for reader in self.readers.drain(..) {
            reader.join().ok();
        }
    }
}

impl Drop for ServeChild {
    fn drop(&mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
        self.join_readers();
    }
}

/// The arguments of a command line none of whose arguments holds a space.
pub fn words(line: &str) -> Vec<&str> {
    line.split_whitespace().collect()
}

/// What `vaengine query args --json` printed, after it exited 0.
pub fn query_json(dir: &Scratch, args: &[&str]) -> String {
    dir.vaengine(&[&["query"], args, &["--json"]].concat())
        .ok()
        .stdout
}

/// The `query failed:` line `vaengine query --snapshot engine.isnap
/// args` prints in `dir`, after checking that it exits 1 with the same
/// line with and without `--json`.
pub fn refusal(dir: &Scratch, args: &[&str]) -> String {
    let line = |json: &[&str]| {
        let run = dir.vaengine(&[&["query", "--snapshot", "engine.isnap"], args, json].concat());
        assert_eq!(run.code, Some(1), "{args:?} {json:?}: {}", run.stderr);
        let failed = run.stderr.lines().filter(|l| l.starts_with("query failed"));
        failed.collect::<Vec<_>>().join("\n")
    };
    let human = line(&[]);
    assert_eq!(human, line(&["--json"]), "{args:?}: the two modes disagree");
    assert!(!human.is_empty(), "{args:?}: no `query failed` line");
    human
}

/// `corpus/` in `dir`: 256 KiB of PubMed from `seed`, written by
/// `vaengine generate`.
pub fn generate_pubmed(dir: &Scratch, seed: &str) {
    let line = format!("generate --flavour pubmed --size 256K --seed {seed} --out corpus");
    dir.vaengine(&words(&line)).ok();
}

/// Assert that `report`, a parsed run report, carries every key the
/// analysis reads, one stage row per component with every column, and
/// a positive virtual time and communication volume.
pub fn check_run_report(report: &Value) {
    let keys = "title meta virtual_time_s wall_time_s critical_path_s critical_path_stage \
                max_imbalance_pct stages comm queries";
    for key in keys.split_whitespace() {
        assert!(report.get(key).is_some(), "report missing {key}");
    }
    let stages = report.get("stages").and_then(Value::as_arr).unwrap();
    assert_eq!(stages.len(), Component::ALL.len());
    let columns = "name virt_max_s busy_max_s wall_max_s wait_max_s imbalance_pct \
                   wait_share_pct critical_share_pct";
    for row in stages {
        for key in columns.split_whitespace() {
            assert!(row.get(key).is_some(), "stage row missing {key}");
        }
    }
    // Virtual stage times are deterministic model quantities.
    let number = |v: Option<&Value>| v.and_then(Value::as_f64).unwrap();
    assert!(number(report.get("virtual_time_s")) > 0.0);
    let comm = report.get("comm");
    assert!(number(comm.and_then(|c| c.get("messages"))) > 0.0);
    assert!(number(comm.and_then(|c| c.get("bytes"))) > 0.0);
}

/// Full pipeline over `set` at `procs` ranks, writing its Final snapshot
/// to `out`.
pub fn build_snapshot(set: &SourceSet, out: &Path, procs: usize) {
    let cfg = EngineConfig {
        snapshot_out: Some(out.to_path_buf()),
        ..EngineConfig::for_testing()
    };
    let run = run_engine(procs, Arc::new(CostModel::zero()), set, &cfg);
    assert!(
        run.master().snapshot_report.is_some(),
        "snapshot write failed"
    );
}

/// The `n` plain-word terms of `state`'s vocabulary held by the most
/// documents (ties to the lower id), skipping the boolean operators:
/// terms every route can be asked about and that match something.
pub fn frequent_terms(state: &ServeState, n: usize) -> Vec<String> {
    let mut words: Vec<(u32, u32)> = (0..state.terms.len() as u32)
        .filter(|&id| {
            let t = state.terms.get(id as usize);
            t.len() >= 2
                && t.bytes().all(|b| b.is_ascii_lowercase())
                && !matches!(t, "and" | "or" | "not")
        })
        .map(|id| (state.df(id), id))
        .collect();
    words.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    assert!(words.len() >= n, "only {} plain words", words.len());
    let term = |&(_, id): &(u32, u32)| state.terms.get(id as usize).to_string();
    words[..n].iter().map(term).collect()
}

/// Replace directory `to` with a copy of `from`'s files.
pub fn copy_dir(from: &Path, to: &Path) {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).expect("create copy");
    for entry in std::fs::read_dir(from).expect("read dir") {
        let entry = entry.expect("dir entry");
        std::fs::copy(entry.path(), to.join(entry.file_name())).expect("copy file");
    }
}

/// Flip every bit of byte `at` of the file at `path`.
pub fn flip_byte(path: &Path, at: usize) {
    let mut bytes = std::fs::read(path).expect("read");
    bytes[at] ^= 0xFF;
    std::fs::write(path, bytes).expect("write");
}
