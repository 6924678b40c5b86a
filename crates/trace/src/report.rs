//! The structured run report.
//!
//! After a pipeline or bench run, the engine folds its per-rank timers,
//! wait accumulators, and comm counters into one [`RunReport`]: a row
//! per stage with virtual/wall time, load imbalance, wait-time share and
//! critical-path share, plus communication totals and (when the serving
//! path ran) query latency summaries. The report renders two ways — a
//! pretty table for stderr and machine-readable JSON for CI — from the
//! same data, so the numbers can never drift apart.
//!
//! The imbalance metrics follow the paper's Figure 9 load-balance
//! analysis. A stage's per-rank *elapsed* virtual time includes the time
//! spent blocked in collectives, and collectives synchronize the rank
//! clocks — so elapsed time is nearly identical across ranks and says
//! nothing about balance. Imbalance is therefore computed over *busy*
//! time (elapsed minus collective wait): `imbalance% = (max - min) / max`
//! over per-rank busy seconds. `wait share` is the fraction of the
//! slowest rank's elapsed stage time spent blocked in collectives, and
//! `critical share` is the stage's slowest-rank elapsed time as a
//! fraction of the whole critical path (the sum of per-stage maxima).

use std::fmt::Write as _;
use std::path::Path;

use crate::json;
use crate::metrics::{fmt_ns, HistogramSummary};

/// One stage's row in the report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StageRow {
    pub name: String,
    /// Slowest rank's elapsed virtual seconds in this stage (includes
    /// time blocked in collectives).
    pub virt_max_s: f64,
    /// Fastest rank's elapsed virtual seconds.
    pub virt_min_s: f64,
    /// Sum over ranks of elapsed virtual seconds.
    pub virt_sum_s: f64,
    /// Slowest rank's busy (elapsed minus collective-wait) seconds.
    pub busy_max_s: f64,
    /// Fastest rank's busy seconds.
    pub busy_min_s: f64,
    /// Slowest rank's measured wall seconds in this stage.
    pub wall_max_s: f64,
    /// Slowest single rank's collective wait seconds attributed here.
    pub wait_max_s: f64,
    /// Sum over ranks of collective wait seconds attributed here.
    pub wait_sum_s: f64,
}

impl StageRow {
    /// `(max - min) / max` over per-rank busy time, in percent. Elapsed
    /// virtual time is collective-synchronized, so busy time is what
    /// actually varies across ranks.
    pub fn imbalance_pct(&self) -> f64 {
        if self.busy_max_s <= 0.0 {
            0.0
        } else {
            100.0 * (self.busy_max_s - self.busy_min_s) / self.busy_max_s
        }
    }

    /// Fraction of the slowest rank's elapsed stage time spent blocked
    /// in collectives, percent.
    pub fn wait_share_pct(&self) -> f64 {
        if self.virt_max_s > 0.0 {
            100.0 * self.wait_max_s / self.virt_max_s
        } else if self.wait_max_s > 0.0 {
            // Wait accrued outside any timed component scope.
            100.0
        } else {
            0.0
        }
    }

    fn to_json(&self, critical_total_s: f64) -> String {
        let critical_share = if critical_total_s > 0.0 {
            100.0 * self.virt_max_s / critical_total_s
        } else {
            0.0
        };
        format!(
            "{{\"name\":\"{}\",\"virt_max_s\":{},\"virt_min_s\":{},\"virt_sum_s\":{},\
             \"busy_max_s\":{},\"busy_min_s\":{},\
             \"wall_max_s\":{},\"wait_max_s\":{},\"wait_sum_s\":{},\
             \"imbalance_pct\":{},\"wait_share_pct\":{},\"critical_share_pct\":{}}}",
            json::escape(&self.name),
            json::num(self.virt_max_s),
            json::num(self.virt_min_s),
            json::num(self.virt_sum_s),
            json::num(self.busy_max_s),
            json::num(self.busy_min_s),
            json::num(self.wall_max_s),
            json::num(self.wait_max_s),
            json::num(self.wait_sum_s),
            json::num(self.imbalance_pct()),
            json::num(self.wait_share_pct()),
            json::num(critical_share)
        )
    }
}

/// Communication totals across all ranks.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CommTotals {
    pub messages: u64,
    pub bytes: u64,
}

/// The complete run report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    /// What ran, e.g. `"pipeline"`.
    pub title: String,
    /// Free-form key/value context (P, docs, model, …), in insertion
    /// order.
    pub meta: Vec<(String, String)>,
    /// End-of-run virtual time (max over ranks), seconds.
    pub virtual_time_s: f64,
    /// End-of-run wall time, seconds.
    pub wall_time_s: f64,
    /// Per-stage rows, pipeline order.
    pub stages: Vec<StageRow>,
    pub comm: CommTotals,
    /// Query latency summaries, when the serving path ran.
    pub queries: Vec<HistogramSummary>,
}

impl RunReport {
    /// Sum of per-stage slowest-rank virtual time: the critical path the
    /// `critical_share_pct` column is relative to.
    pub fn critical_path_s(&self) -> f64 {
        self.stages.iter().map(|s| s.virt_max_s).sum()
    }

    /// The stage holding the largest critical-path share.
    pub fn critical_path_stage(&self) -> Option<&str> {
        self.stages
            .iter()
            .max_by(|a, b| a.virt_max_s.total_cmp(&b.virt_max_s))
            .map(|s| s.name.as_str())
    }

    /// Worst per-stage imbalance, percent.
    pub fn max_imbalance_pct(&self) -> f64 {
        self.stages
            .iter()
            .map(StageRow::imbalance_pct)
            .fold(0.0, f64::max)
    }

    /// Machine-readable JSON document.
    pub fn to_json(&self) -> String {
        let critical = self.critical_path_s();
        let mut out = String::with_capacity(1024);
        out.push_str("{\n");
        let _ = writeln!(out, "  \"title\": \"{}\",", json::escape(&self.title));
        out.push_str("  \"meta\": {");
        for (i, (k, v)) in self.meta.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{}\": \"{}\"", json::escape(k), json::escape(v));
        }
        out.push_str("},\n");
        let _ = writeln!(
            out,
            "  \"virtual_time_s\": {},\n  \"wall_time_s\": {},",
            json::num(self.virtual_time_s),
            json::num(self.wall_time_s)
        );
        let _ = writeln!(
            out,
            "  \"critical_path_s\": {},\n  \"critical_path_stage\": \"{}\",",
            json::num(critical),
            json::escape(self.critical_path_stage().unwrap_or(""))
        );
        let _ = writeln!(
            out,
            "  \"max_imbalance_pct\": {},",
            json::num(self.max_imbalance_pct())
        );
        out.push_str("  \"stages\": [\n");
        for (i, s) in self.stages.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {}{}",
                s.to_json(critical),
                if i + 1 < self.stages.len() { "," } else { "" }
            );
        }
        out.push_str("  ],\n");
        let _ = writeln!(
            out,
            "  \"comm\": {{\"messages\": {}, \"bytes\": {}}},",
            self.comm.messages, self.comm.bytes
        );
        out.push_str("  \"queries\": [\n");
        for (i, q) in self.queries.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {}{}",
                q.to_json(),
                if i + 1 < self.queries.len() { "," } else { "" }
            );
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Write the JSON document to `path`.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Pretty table for stderr.
    pub fn render_table(&self) -> String {
        let critical = self.critical_path_s();
        let mut out = String::new();
        let _ = writeln!(out, "=== run report: {} ===", self.title);
        for (k, v) in &self.meta {
            let _ = writeln!(out, "  {k}: {v}");
        }
        let _ = writeln!(
            out,
            "  virtual time: {:.6}s   wall time: {:.3}s   critical path: {:.6}s",
            self.virtual_time_s, self.wall_time_s, critical
        );
        let _ = writeln!(
            out,
            "  {:<12} {:>12} {:>12} {:>12} {:>12} {:>8} {:>8} {:>8}",
            "stage",
            "virt max(s)",
            "busy max(s)",
            "wall max(s)",
            "wait max(s)",
            "imbal%",
            "wait%",
            "crit%"
        );
        for s in &self.stages {
            let crit_pct = if critical > 0.0 {
                100.0 * s.virt_max_s / critical
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "  {:<12} {:>12.6} {:>12.6} {:>12.6} {:>12.6} {:>8.1} {:>8.1} {:>8.1}",
                s.name,
                s.virt_max_s,
                s.busy_max_s,
                s.wall_max_s,
                s.wait_max_s,
                s.imbalance_pct(),
                s.wait_share_pct(),
                crit_pct
            );
        }
        let _ = writeln!(
            out,
            "  comm: {} messages, {} bytes",
            self.comm.messages, self.comm.bytes
        );
        if !self.queries.is_empty() {
            let _ = writeln!(
                out,
                "  {:<24} {:>8} {:>10} {:>10} {:>10}",
                "query", "count", "p50", "p95", "p99"
            );
            for q in &self.queries {
                let _ = writeln!(
                    out,
                    "  {:<24} {:>8} {:>10} {:>10} {:>10}",
                    q.name,
                    q.count,
                    fmt_ns(q.p50_ns as f64),
                    fmt_ns(q.p95_ns as f64),
                    fmt_ns(q.p99_ns as f64)
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunReport {
        RunReport {
            title: "pipeline".into(),
            meta: vec![("nprocs".into(), "4".into()), ("docs".into(), "100".into())],
            virtual_time_s: 2.5,
            wall_time_s: 0.8,
            stages: vec![
                StageRow {
                    name: "scan".into(),
                    virt_max_s: 1.0,
                    virt_min_s: 1.0,
                    virt_sum_s: 4.0,
                    busy_max_s: 0.75,
                    busy_min_s: 0.375,
                    wall_max_s: 0.3,
                    wait_max_s: 0.25,
                    wait_sum_s: 0.6,
                },
                StageRow {
                    name: "cluster".into(),
                    virt_max_s: 1.5,
                    virt_min_s: 1.5,
                    virt_sum_s: 6.0,
                    busy_max_s: 1.5,
                    busy_min_s: 1.5,
                    wall_max_s: 0.5,
                    wait_max_s: 0.0,
                    wait_sum_s: 0.0,
                },
            ],
            comm: CommTotals {
                messages: 42,
                bytes: 4096,
            },
            queries: vec![],
        }
    }

    #[test]
    fn imbalance_and_shares() {
        let r = sample();
        assert!((r.stages[0].imbalance_pct() - 50.0).abs() < 1e-9);
        assert!((r.stages[1].imbalance_pct() - 0.0).abs() < 1e-9);
        assert!((r.stages[0].wait_share_pct() - 25.0).abs() < 1e-9);
        assert!((r.critical_path_s() - 2.5).abs() < 1e-9);
        assert_eq!(r.critical_path_stage(), Some("cluster"));
        assert!((r.max_imbalance_pct() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn json_parses_with_required_keys() {
        let r = sample();
        let doc = crate::json::parse(&r.to_json()).expect("report JSON parses");
        for key in [
            "title",
            "meta",
            "virtual_time_s",
            "wall_time_s",
            "critical_path_s",
            "critical_path_stage",
            "max_imbalance_pct",
            "stages",
            "comm",
            "queries",
        ] {
            assert!(doc.get(key).is_some(), "missing key {key}");
        }
        let stages = doc.get("stages").unwrap().as_arr().unwrap();
        assert_eq!(stages.len(), 2);
        for row in stages {
            for key in [
                "name",
                "virt_max_s",
                "busy_max_s",
                "wait_max_s",
                "imbalance_pct",
                "wait_share_pct",
                "critical_share_pct",
            ] {
                assert!(row.get(key).is_some(), "stage row missing {key}");
            }
        }
        let shares: f64 = stages
            .iter()
            .map(|s| s.get("critical_share_pct").unwrap().as_f64().unwrap())
            .sum();
        assert!((shares - 100.0).abs() < 1e-6);
    }

    #[test]
    fn table_mentions_every_stage() {
        let r = sample();
        let t = r.render_table();
        assert!(t.contains("scan"));
        assert!(t.contains("cluster"));
        assert!(t.contains("critical path"));
    }

    #[test]
    fn empty_report_is_safe() {
        let r = RunReport::default();
        assert_eq!(r.critical_path_stage(), None);
        assert_eq!(r.max_imbalance_pct(), 0.0);
        crate::json::parse(&r.to_json()).expect("empty report JSON parses");
        let _ = r.render_table();
    }
}
