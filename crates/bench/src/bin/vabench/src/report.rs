//! `vabench run` (every workload, one result file), `vabench compare`
//! (parent set vs change set, judged by the bounds in the metric tables)
//! and `vabench check` (result file and `BENCHMARK.json` agree with the
//! tables).

use crate::metrics::{self, EndToEnd, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, spread};
use crate::{flag, flag_or, out_dir};
use inspire_trace::json::{self, Value};
use std::io;
use std::process::{Command, Stdio};

/// One measured run of this binary: its info line and result line, as
/// printed and parsed.
struct Measured {
    info_text: String,
    result_text: String,
    info: Value,
    result: Value,
}

impl Measured {
    fn correct(&self) -> bool {
        self.result.get("correct") == Some(&Value::Bool(true))
    }
}

fn measured(workload: &str, pass: &[String], traced: bool) -> io::Result<Measured> {
    let output = Command::new(std::env::current_exe()?)
        .args([
            "--workload",
            workload,
            "--trace",
            if traced { "1" } else { "0" },
        ])
        .args(pass)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()?;
    let text = String::from_utf8_lossy(&output.stdout);
    let mut lines = text.lines().rev();
    let mut line = || {
        let text = lines.next().unwrap_or_default().to_string();
        let bad = |_| io::Error::other(format!("{workload}: run printed no result"));
        json::parse(&text).map(|value| (text, value)).map_err(bad)
    };
    let (result_text, result) = line()?;
    let (info_text, info) = line()?;
    Ok(Measured {
        info_text,
        result_text,
        info,
        result,
    })
}

/// `vabench run`: every workload in turn, each a fresh process; prints
/// every metric by name with unit, direction, bound and sample count,
/// and writes the result document to stdout and under the target
/// directory.
pub fn run_all(args: &[String]) -> io::Result<bool> {
    let seed: u64 = flag_or(args, "--seed", 11)?;
    let smoke = args.iter().any(|a| a == "--smoke");
    let traced = args.iter().any(|a| a == "--traced");
    let repeat: usize = flag_or(args, "--repeat", 1)?;
    let default_seconds = if smoke {
        1.0
    } else {
        metrics::RUN_SECONDS as f64
    };
    let seconds: f64 = flag_or(args, "--seconds", default_seconds)?;
    let mut pass = vec![
        "--seed".to_string(),
        seed.to_string(),
        "--seconds".to_string(),
        seconds.to_string(),
    ];
    if smoke {
        pass.push("--smoke".to_string());
    }

    let mut all_correct = true;
    let mut runs = Vec::new();
    for r in 0..repeat {
        let mut workloads = Vec::new();
        for (workload, _) in WORKLOADS {
            eprintln!("vabench: run {}/{repeat}: {workload}", r + 1);
            let plain = measured(workload, &pass, false)?;
            let mut fields = vec![
                format!("\"info\":{}", plain.info_text),
                format!("\"result\":{}", plain.result_text),
            ];
            all_correct &= plain.correct();
            print_rows(workload, &plain.info, &plain.result, false);
            if traced {
                let layers = measured(workload, &pass, true)?;
                all_correct &= layers.correct();
                print_rows(workload, &plain.info, &layers.result, true);
                fields.push(format!("\"traced\":{}", layers.result_text));
            }
            workloads.push(format!("\"{workload}\":{{{}}}", fields.join(",")));
        }
        runs.push(format!("{{\"workloads\":{{{}}}}}", workloads.join(",")));
    }
    let doc = format!(
        "{{\"bench\":\"vabench\",\"claim\":null,\"smoke\":{smoke},\"seed\":{seed},\
         \"seconds\":{seconds},\"runs\":[{}]}}\n",
        runs.join(",")
    );
    std::fs::create_dir_all(out_dir())?;
    let path = out_dir().join(format!(
        "run-seed{seed}{}.json",
        if smoke { "-smoke" } else { "" }
    ));
    std::fs::write(&path, &doc)?;
    eprintln!("vabench: wrote {}", path.display());
    print!("{doc}");
    Ok(all_correct)
}

/// One human-readable row per metric, on stderr.
fn print_rows(workload: &str, info: &Value, result: &Value, traced: bool) {
    let n = info.get("n").and_then(Value::as_f64).unwrap_or(0.0);
    let Some(Value::Obj(metrics)) = result.get("metrics") else {
        return;
    };
    for (name, m) in metrics {
        let value = m.get("value").and_then(Value::as_f64).unwrap_or(0.0);
        if traced && value == 0.0 {
            continue; // a layer this workload does not exercise
        }
        let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
        let (better, bound) = if traced {
            let row = PER_LAYER.iter().find(|r| r.0 == name);
            (row.map_or("", |r| r.2), "-".to_string())
        } else {
            let row = END_TO_END.iter().find(|r| r.name == name);
            (
                row.map_or("", |r| r.better),
                row.map_or("-".to_string(), |r| r.bound.to_string()),
            )
        };
        eprintln!(
            "  {workload:<12} {name:<36} {value:>16.4} {unit:<6} better={better:<6} bound={bound:<5} n={n}"
        );
    }
}

/// A result file read back: per workload, per end-to-end metric, the
/// values of every run in the file.
struct ResultSet {
    smoke: bool,
    /// `(workload, metric) → values`
    values: Vec<((String, String), Vec<f64>)>,
    /// Per workload: summed `failed` and `attempted`.
    errors: Vec<(String, f64, f64)>,
}

fn load_set(path: &str) -> io::Result<ResultSet> {
    let text = std::fs::read_to_string(path)?;
    let doc = json::parse(text.trim_end()).map_err(|e| io::Error::other(format!("{path}: {e}")))?;
    let bad = || io::Error::other(format!("{path}: not a vabench result file"));
    let runs = doc.get("runs").and_then(Value::as_arr).ok_or_else(bad)?;
    let mut set = ResultSet {
        smoke: doc.get("smoke") == Some(&Value::Bool(true)),
        values: Vec::new(),
        errors: Vec::new(),
    };
    for (workload, _) in WORKLOADS {
        let results = runs
            .iter()
            .map(|run| {
                run.get("workloads")
                    .and_then(|w| w.get(workload))
                    .and_then(|w| w.get("result"))
                    .ok_or_else(bad)
            })
            .collect::<io::Result<Vec<&Value>>>()?;
        for m in END_TO_END {
            let values = results
                .iter()
                .map(|result| {
                    result
                        .get("metrics")
                        .and_then(|ms| ms.get(m.name))
                        .and_then(|v| v.get("value"))
                        .and_then(Value::as_f64)
                        .ok_or_else(bad)
                })
                .collect::<io::Result<Vec<f64>>>()?;
            set.values
                .push(((workload.to_string(), m.name.to_string()), values));
        }
        let total = |key: &str| -> f64 {
            results
                .iter()
                .filter_map(|r| r.get(key).and_then(Value::as_f64))
                .sum()
        };
        set.errors
            .push((workload.to_string(), total("failed"), total("attempted")));
    }
    Ok(set)
}

#[derive(Debug, PartialEq, Clone, Copy)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    Unresolved,
}

/// Judge `change` against `parent` for one metric on one workload.
///
/// The medians decide: within the bound is `Same`, beyond it `Better` or
/// `Worse`. When either side's own spread (inter-quartile distance over
/// median, three runs or more) exceeds the bound the difference cannot
/// be told from noise and the row is `Unresolved` — unless every run of
/// one side beats every run of the other.
pub fn judge(m: &EndToEnd, parent: &[f64], change: &[f64]) -> Verdict {
    let (mp, mc) = (median(parent), median(change));
    let lower = m.better == "lower";
    // Positive = the change is worse, as a share of the parent's median.
    let worse_by = if lower {
        (mc - mp) / mp.abs()
    } else {
        (mp - mc) / mp.abs()
    };
    let noisy = [parent, change]
        .iter()
        .any(|v| v.len() >= 3 && spread(v).is_some_and(|s| s > m.bound));
    if noisy {
        let min = |v: &[f64]| v.iter().copied().fold(f64::MAX, f64::min);
        let max = |v: &[f64]| v.iter().copied().fold(f64::MIN, f64::max);
        let (change_wins, parent_wins) = if lower {
            (max(change) < min(parent), max(parent) < min(change))
        } else {
            (min(change) > max(parent), min(parent) > max(change))
        };
        return match (change_wins, parent_wins) {
            (true, _) => Verdict::Better,
            (_, true) if worse_by > m.bound => Verdict::Worse,
            _ => Verdict::Unresolved,
        };
    }
    match worse_by {
        w if w > m.bound => Verdict::Worse,
        w if w < -m.bound => Verdict::Better,
        _ => Verdict::Same,
    }
}

/// `vabench compare <parent.json> <change.json>`: one row per (metric,
/// workload), every ratio with its base; fails on any `worse` row or a
/// higher error rate.
pub fn compare(args: &[String]) -> io::Result<bool> {
    let [parent_path, change_path] = args else {
        return Err(io::Error::other(
            "usage: vabench compare <parent.json> <change.json>",
        ));
    };
    let (parent, change) = (load_set(parent_path)?, load_set(change_path)?);
    if parent.smoke || change.smoke {
        return Err(io::Error::other(
            "smoke results carry no authority; refusing to compare",
        ));
    }
    let mut ok = true;
    println!(
        "{:<12} {:<26} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "parent", "change", "ratio", "bound"
    );
    for ((key, p), (_, c)) in parent.values.iter().zip(&change.values) {
        let m = END_TO_END
            .iter()
            .find(|m| m.name == key.1)
            .expect("known metric");
        let verdict = judge(m, p, c);
        ok &= verdict != Verdict::Worse;
        println!(
            "{:<12} {:<26} {:>14.4} {:>14.4} {:>8.4} {:>6}  {}",
            key.0,
            key.1,
            median(p),
            median(c),
            median(c) / median(p),
            m.bound,
            format!("{verdict:?}").to_lowercase()
        );
    }
    for ((workload, pf, pa), (_, cf, ca)) in parent.errors.iter().zip(&change.errors) {
        let (pr, cr) = (pf / pa.max(1.0), cf / ca.max(1.0));
        if cr > pr {
            ok = false;
            println!("{workload:<12} error_rate rose from {pr} ({pf}/{pa}) to {cr} ({cf}/{ca})");
        }
    }
    Ok(ok)
}

fn names<'a>(doc: &'a Value, key: &str) -> Vec<&'a str> {
    doc.get(key)
        .and_then(Value::as_arr)
        .map(|rows| {
            rows.iter()
                .filter_map(|r| r.get("name").and_then(Value::as_str))
                .collect()
        })
        .unwrap_or_default()
}

/// `vabench check <result.json> [--spec BENCHMARK.json]`: the spec is
/// exactly what the tables render, and the result file names exactly the
/// spec's workloads and metrics.
pub fn check(args: &[String]) -> io::Result<bool> {
    let result_path = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or_else(|| {
            io::Error::other("usage: vabench check <result.json> [--spec BENCHMARK.json]")
        })?;
    let spec_path = flag(args, "--spec").unwrap_or("BENCHMARK.json");
    let spec_text = std::fs::read_to_string(spec_path)?;
    let mut problems = Vec::new();
    if spec_text != metrics::benchmark_json() {
        problems.push(format!("{spec_path} differs from `vabench spec`"));
    }
    let spec = json::parse(spec_text.trim_end()).map_err(io::Error::other)?;
    let (workloads, e2e, layers) = (
        names(&spec, "workloads"),
        names(&spec, "end_to_end"),
        names(&spec, "per_layer"),
    );
    let well_formed = |n: &&str| {
        !n.is_empty()
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    };
    if !workloads.iter().chain(&e2e).chain(&layers).all(well_formed) {
        problems.push("a name does not match [A-Za-z0-9_.-]+".to_string());
    }
    if !(2..=8).contains(&workloads.len()) || e2e.len() > 16 || layers.len() > 128 {
        problems.push("workload or metric counts outside 2-8 / 16 / 128".to_string());
    }

    let text = std::fs::read_to_string(result_path)?;
    let doc = json::parse(text.trim_end()).map_err(io::Error::other)?;
    let runs = doc.get("runs").and_then(Value::as_arr).unwrap_or(&[]);
    if runs.is_empty() {
        problems.push(format!("{result_path} holds no runs"));
    }
    let keys = |v: Option<&Value>| -> Vec<String> {
        match v {
            Some(Value::Obj(o)) => o.keys().cloned().collect(),
            _ => Vec::new(),
        }
    };
    let same = |got: Vec<String>, want: &[&str]| {
        let mut want: Vec<String> = want.iter().map(|s| s.to_string()).collect();
        want.sort();
        got == want
    };
    for run in runs {
        let ws = run.get("workloads");
        if !same(keys(ws), &workloads) {
            problems.push("workload names differ from the spec".to_string());
        }
        for w in &workloads {
            let entry = ws.and_then(|ws| ws.get(w));
            let result = entry.and_then(|e| e.get("result"));
            if !same(keys(result.and_then(|r| r.get("metrics"))), &e2e) {
                problems.push(format!("{w}: end-to-end metric names differ from the spec"));
            }
            if let Some(traced) = entry.and_then(|e| e.get("traced")) {
                if !same(keys(traced.get("metrics")), &layers) {
                    problems.push(format!("{w}: per-layer metric names differ from the spec"));
                }
            }
        }
    }
    for p in &problems {
        eprintln!("vabench check: {p}");
    }
    if problems.is_empty() {
        println!("vabench check: {result_path} and {spec_path} agree with the metric tables");
    }
    Ok(problems.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: EndToEnd = EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.1,
    };
    const HIGHER: EndToEnd = EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.1,
    };

    #[test]
    fn verdicts_follow_the_bound_and_the_direction() {
        assert_eq!(judge(&LOWER, &[10.0], &[10.5]), Verdict::Same);
        assert_eq!(judge(&LOWER, &[10.0], &[11.5]), Verdict::Worse);
        assert_eq!(judge(&LOWER, &[10.0], &[8.5]), Verdict::Better);
        assert_eq!(judge(&HIGHER, &[100.0], &[85.0]), Verdict::Worse);
        assert_eq!(judge(&HIGHER, &[100.0], &[120.0]), Verdict::Better);
        assert_eq!(judge(&HIGHER, &[100.0], &[95.0]), Verdict::Same);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_every_run_agrees() {
        let noisy = [8.0, 10.0, 12.0, 9.0, 11.0];
        assert_eq!(
            judge(&LOWER, &noisy, &[9.5, 10.5, 11.5]),
            Verdict::Unresolved
        );
        assert_eq!(judge(&LOWER, &noisy, &[5.0, 6.0, 7.0]), Verdict::Better);
        assert_eq!(judge(&LOWER, &noisy, &[13.0, 14.0, 15.0]), Verdict::Worse);
        // Two runs give no spread to judge by: the medians decide.
        assert_eq!(judge(&LOWER, &[8.0, 12.0], &[10.0, 10.2]), Verdict::Same);
    }
}
