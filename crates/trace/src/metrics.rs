//! Latency metrics: log-bucketed histograms and a string-keyed registry.
//!
//! [`Histogram`] is an HDR-style log-linear histogram over `u64` values
//! (nanoseconds, by convention): each power-of-two octave is split into
//! `2^SUB_BITS = 8` linear sub-buckets, so any reported quantile's bucket
//! upper bound is within `1/8 = 12.5%` of a value actually recorded into
//! that bucket; values below 8 are exact. Recording is two shifts and an
//! increment — cheap enough for the per-query serving path.
//!
//! `quantile` returns the upper bound of the first bucket whose
//! cumulative count reaches `ceil(q·n)`, clamped to the observed max, so
//! an estimate never undershoots the true order statistic and overshoots
//! it by at most one sub-bucket (the properties `tests/hist_props.rs`
//! exercises).

use std::collections::BTreeMap;

/// Sub-bucket resolution: 8 linear buckets per power-of-two octave.
const SUB_BITS: u32 = 3;
const SUB: u64 = 1 << SUB_BITS;

/// A log-bucketed histogram of `u64` values with ≤12.5% relative error.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    counts: BTreeMap<u32, u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

/// Bucket index for `v`: exact below `SUB`, then `SUB_BITS` linear
/// sub-buckets per octave above.
fn bucket_of(v: u64) -> u32 {
    if v < SUB {
        return v as u32;
    }
    let octave = 63 - v.leading_zeros(); // floor(log2 v), >= SUB_BITS
    let sub = ((v >> (octave - SUB_BITS)) - SUB) as u32; // 0..SUB
    (octave - SUB_BITS + 1) * SUB as u32 + sub
}

/// Largest value mapping to `bucket` (inclusive upper bound).
fn upper_bound(bucket: u32) -> u64 {
    if bucket < SUB as u32 {
        return bucket as u64;
    }
    let octave = bucket / SUB as u32 + SUB_BITS - 1;
    let sub = (bucket % SUB as u32) as u64;
    // Start of the sub-bucket plus its width, minus one.
    ((SUB + sub) << (octave - SUB_BITS)) + (1u64 << (octave - SUB_BITS)) - 1
}

impl Default for Histogram {
    /// The empty histogram, with the `min` sentinel `record` lowers.
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            counts: BTreeMap::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one value.
    pub fn record(&mut self, v: u64) {
        *self.counts.entry(bucket_of(v)).or_insert(0) += 1;
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Record a duration in nanoseconds.
    pub fn record_ns(&mut self, d: std::time::Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// The value at quantile `q` in `[0, 1]`: the inclusive upper bound
    /// of the first bucket whose cumulative count reaches
    /// `ceil(q·count)` (clamped to at least 1). Returns 0 on an empty
    /// histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (&bucket, &n) in &self.counts {
            cum += n;
            if cum >= target {
                return upper_bound(bucket).min(self.max);
            }
        }
        self.max
    }

    /// Snapshot the standard percentiles under `name`.
    pub fn summarize(&self, name: &str) -> HistogramSummary {
        HistogramSummary {
            name: name.to_string(),
            count: self.count,
            sum_ns: self.sum.min(u64::MAX as u128) as u64,
            min_ns: self.min(),
            max_ns: self.max(),
            mean_ns: self.mean(),
            p50_ns: self.quantile(0.50),
            p95_ns: self.quantile(0.95),
            p99_ns: self.quantile(0.99),
        }
    }

    /// Serialize at full bucket fidelity (exact round trip through
    /// [`Histogram::from_persist`]). Used by the ingest metrics sidecar
    /// to accumulate across processes.
    pub fn to_persist_json(&self) -> String {
        let mut s = format!(
            "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[",
            self.count,
            self.sum,
            self.min(),
            self.max
        );
        for (i, (&b, &n)) in self.counts.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("[{b},{n}]"));
        }
        s.push_str("]}");
        s
    }

    /// Rebuild a histogram from its [`to_persist_json`](Self::to_persist_json)
    /// form (parsed). Sums above 2^53 lose f64 precision on the way
    /// through JSON; fine for the latency sidecars this serves.
    pub fn from_persist(v: &crate::json::Value) -> Result<Histogram, String> {
        let num = |key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(crate::json::Value::as_f64)
                .map(|f| f as u64)
                .ok_or_else(|| format!("histogram persist: missing {key}"))
        };
        let count = num("count")?;
        let sum = v
            .get("sum")
            .and_then(crate::json::Value::as_f64)
            .ok_or("histogram persist: missing sum")? as u128;
        let min = num("min")?;
        let max = num("max")?;
        let buckets = v
            .get("buckets")
            .and_then(crate::json::Value::as_arr)
            .ok_or("histogram persist: missing buckets")?;
        let mut counts = BTreeMap::new();
        let mut bucket_total = 0u64;
        for (i, pair) in buckets.iter().enumerate() {
            let pair = pair
                .as_arr()
                .filter(|p| p.len() == 2)
                .ok_or_else(|| format!("histogram persist: bucket {i} not a pair"))?;
            let b = pair[0].as_f64().ok_or("bad bucket index")? as u32;
            let n = pair[1].as_f64().ok_or("bad bucket count")? as u64;
            bucket_total += n;
            *counts.entry(b).or_insert(0) += n;
        }
        if bucket_total != count {
            return Err(format!(
                "histogram persist: bucket counts sum to {bucket_total}, count says {count}"
            ));
        }
        Ok(Histogram {
            counts,
            count,
            sum,
            min: if count == 0 { u64::MAX } else { min },
            max,
        })
    }
}

/// Percentile snapshot of one histogram; nanosecond units by convention.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSummary {
    pub name: String,
    pub count: u64,
    pub sum_ns: u64,
    pub min_ns: u64,
    pub max_ns: u64,
    pub mean_ns: f64,
    pub p50_ns: u64,
    pub p95_ns: u64,
    pub p99_ns: u64,
}

/// Map a metric name onto the Prometheus charset `[a-zA-Z0-9_:]`,
/// replacing anything else (and a leading digit) with `_`.
pub fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        out.push(if ok { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Render nanoseconds human-readably (`850ns`, `12.4µs`, `3.1ms`, `2.0s`).
pub fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.0}ns")
    } else if ns < 1_000_000.0 {
        format!("{:.1}µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.1}ms", ns / 1_000_000.0)
    } else {
        format!("{:.2}s", ns / 1_000_000_000.0)
    }
}

impl HistogramSummary {
    /// One JSON object per summary, e.g. for the run report's `queries`
    /// section.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"name\":\"{}\",\"count\":{},\"sum_ns\":{},\"min_ns\":{},\"max_ns\":{},\
             \"mean_ns\":{},\"p50_ns\":{},\"p95_ns\":{},\"p99_ns\":{}}}",
            crate::json::escape(&self.name),
            self.count,
            self.sum_ns,
            self.min_ns,
            self.max_ns,
            crate::json::num(self.mean_ns),
            self.p50_ns,
            self.p95_ns,
            self.p99_ns
        )
    }
}

/// A string-keyed registry of histograms. Not thread-safe by design: an
/// owner that shares one wraps it in a lock.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    hists: BTreeMap<String, Histogram>,
}

impl Registry {
    pub fn new() -> Self {
        Registry::default()
    }

    /// Record `d` into histogram `name`, creating it on first use.
    pub fn observe(&mut self, name: &str, d: std::time::Duration) {
        self.hists.entry(name.to_string()).or_default().record_ns(d);
    }

    /// Time `f`, recording its duration into histogram `name`.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let start = std::time::Instant::now();
        let out = f();
        self.observe(name, start.elapsed());
        out
    }

    /// Ensure histogram `name` exists (empty until the first
    /// observation). Expositions call this so scrapes expose a stable
    /// family set from the very first request, instead of families
    /// popping into existence when their first sample lands.
    pub fn ensure(&mut self, name: &str) {
        self.hists.entry(name.to_string()).or_default();
    }

    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.hists.get(name)
    }

    /// Summaries of all histograms, sorted by name.
    pub fn summaries(&self) -> Vec<HistogramSummary> {
        self.hists.iter().map(|(k, h)| h.summarize(k)).collect()
    }

    /// Prometheus text exposition (format 0.0.4): each histogram as a
    /// `summary` metric — `{quantile="0.5|0.95|0.99"}` sample lines plus
    /// the `_sum`/`_count` pair that keeps scraped series count-additive
    /// across merges. Histograms record nanoseconds; metrics named `*_seconds` are scaled to seconds on
    /// the way out, so the exposition speaks base units while the JSON
    /// views keep their `*_ns` fields.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, h) in &self.hists {
            let n = prom_name(name);
            let scale = if n.ends_with("_seconds") { 1e-9 } else { 1.0 };
            out.push_str(&format!("# TYPE {n} summary\n"));
            for (q, label) in [(0.50, "0.5"), (0.95, "0.95"), (0.99, "0.99")] {
                out.push_str(&format!(
                    "{n}{{quantile=\"{label}\"}} {}\n",
                    crate::json::num(h.quantile(q) as f64 * scale)
                ));
            }
            out.push_str(&format!(
                "{n}_sum {}\n",
                crate::json::num(h.sum() as f64 * scale)
            ));
            out.push_str(&format!("{n}_count {}\n", h.count()));
        }
        out
    }

    /// Full-fidelity serialization: every histogram at bucket level (see
    /// [`Histogram::to_persist_json`]), so a registry persisted by one
    /// process and reloaded by another keeps accumulating exactly.
    pub fn to_persist_json(&self) -> String {
        let mut s = String::from("{\"histograms\":{");
        for (i, (name, h)) in self.hists.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\"{}\":{}",
                crate::json::escape(name),
                h.to_persist_json()
            ));
        }
        s.push_str("}}");
        s
    }

    /// Rebuild a registry from [`to_persist_json`](Self::to_persist_json).
    /// Other top-level keys are ignored (files written before gauges were
    /// removed carry an empty `"gauges"` object).
    pub fn from_persist_json(s: &str) -> Result<Registry, String> {
        let doc = crate::json::parse(s)?;
        let mut reg = Registry::new();
        if let Some(crate::json::Value::Obj(hists)) = doc.get("histograms") {
            for (name, v) in hists {
                reg.hists.insert(name.clone(), Histogram::from_persist(v)?);
            }
        } else {
            return Err("registry persist: missing histograms".into());
        }
        Ok(reg)
    }

    /// A `latency p50 p95 p99` table for stderr.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<24} {:>8} {:>10} {:>10} {:>10} {:>10}\n",
            "metric", "count", "p50", "p95", "p99", "max"
        ));
        for s in self.summaries() {
            out.push_str(&format!(
                "{:<24} {:>8} {:>10} {:>10} {:>10} {:>10}\n",
                s.name,
                s.count,
                fmt_ns(s.p50_ns as f64),
                fmt_ns(s.p95_ns as f64),
                fmt_ns(s.p99_ns as f64),
                fmt_ns(s.max_ns as f64)
            ));
        }
        out
    }
}

/// What [`validate_prometheus`] learned about a well-formed scrape.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PromSummary {
    /// Families declared by a `# TYPE` line.
    pub families: usize,
    /// Sample lines.
    pub samples: usize,
}

/// One summary family's samples: `(quantile, value)` lines, `_sum`, `_count`.
type SummarySamples = (Vec<(f64, f64)>, Option<f64>, Option<f64>);

/// Parse `text` as a Prometheus text exposition (format 0.0.4) and check
/// what [`Registry::to_prometheus`] and the server's counters promise:
/// every sample line is `name value` with a numeric value and belongs to
/// a family declared by an earlier `# TYPE` line (`_sum`/`_count` belong
/// to the family they extend); every `summary` has monotone quantiles
/// and a `_sum`/`_count` pair whose sum is 0 exactly when its count is;
/// and every family named in `required` has samples.
pub fn validate_prometheus(text: &str, required: &[&str]) -> Result<PromSummary, String> {
    let mut types: BTreeMap<&str, &str> = BTreeMap::new();
    let mut sampled: std::collections::BTreeSet<&str> = Default::default();
    let mut summaries: BTreeMap<&str, SummarySamples> = BTreeMap::new();
    let mut samples = 0;
    for (i, line) in text.lines().enumerate().map(|(i, l)| (i + 1, l.trim())) {
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            if let ["TYPE", family, kind, ..] = comment.split_whitespace().collect::<Vec<_>>()[..] {
                types.insert(family, kind);
            }
            continue;
        }
        let [metric, raw] = line.split_whitespace().collect::<Vec<_>>()[..] else {
            return Err(format!("line {i}: expected `name value`, got {line:?}"));
        };
        let value: f64 =
            (raw.parse()).map_err(|_| format!("line {i}: bad sample value {raw:?}"))?;
        let (name, labels) = match metric.split_once('{') {
            Some((name, labels)) => (name, labels.strip_suffix('}').unwrap_or(labels)),
            None => (metric, ""),
        };
        let quantile = (labels.split(','))
            .find_map(|l| l.strip_prefix("quantile="))
            .map(|q| q.trim_matches('"'));
        let (family, suffix) = ["_sum", "_count"]
            .iter()
            .find_map(|s| Some((name.strip_suffix(s)?, *s)))
            .filter(|(base, _)| types.contains_key(base))
            .unwrap_or((name, ""));
        let Some(&kind) = types.get(family) else {
            return Err(format!("line {i}: family {family} has no # TYPE line"));
        };
        samples += 1;
        sampled.insert(family);
        if kind != "summary" {
            continue;
        }
        let entry = summaries.entry(family).or_default();
        match (suffix, quantile) {
            ("_sum", _) => entry.1 = Some(value),
            ("_count", _) => entry.2 = Some(value),
            (_, Some(q)) => {
                let q = (q.parse()).map_err(|_| format!("line {i}: bad quantile {q:?}"))?;
                entry.0.push((q, value));
            }
            _ => {}
        }
    }
    if samples == 0 {
        return Err("no samples in the scrape".into());
    }
    for family in required {
        if !sampled.contains(family) {
            return Err(format!("required family {family} is missing"));
        }
    }
    for (family, (mut quantiles, sum, count)) in summaries {
        quantiles.sort_by(|a, b| a.0.total_cmp(&b.0));
        if quantiles.windows(2).any(|w| w[1].1 < w[0].1) {
            return Err(format!(
                "family {family}: quantiles not monotone: {quantiles:?}"
            ));
        }
        let (Some(sum), Some(count)) = (sum, count) else {
            return Err(format!("family {family}: missing {family}_sum or _count"));
        };
        if (count == 0.0) != (sum == 0.0) || sum < 0.0 {
            return Err(format!("family {family}: count {count} but sum {sum}"));
        }
    }
    Ok(PromSummary {
        families: types.len(),
        samples,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..SUB {
            h.record(v);
        }
        for v in 0..SUB {
            assert_eq!(bucket_of(v), v as u32);
            assert_eq!(upper_bound(v as u32), v);
        }
        assert_eq!(h.count(), SUB);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), SUB - 1);
    }

    #[test]
    fn upper_bound_is_tight_and_monotone() {
        // Every value maps to a bucket whose upper bound is >= the value
        // and within 12.5% above it.
        for v in [8u64, 9, 15, 16, 100, 1_000, 123_456, u32::MAX as u64] {
            let ub = upper_bound(bucket_of(v));
            assert!(ub >= v, "ub({v}) = {ub} < v");
            assert!(
                (ub - v) as f64 <= v as f64 / 8.0 + 1.0,
                "ub({v}) = {ub} too loose"
            );
        }
        let mut prev = 0;
        for b in 0..200u32 {
            let ub = upper_bound(b);
            assert!(ub >= prev, "upper_bound not monotone at bucket {b}");
            prev = ub;
        }
    }

    #[test]
    fn bucket_of_and_upper_bound_agree() {
        // upper_bound(b) itself lands in bucket b.
        for b in 0..300u32 {
            assert_eq!(bucket_of(upper_bound(b)), b, "bucket {b}");
        }
    }

    #[test]
    fn quantiles_bound_recorded_values() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v * 1000);
        }
        let p50 = h.quantile(0.5);
        assert!((500_000..=563_000).contains(&p50), "p50 = {p50}");
        let p99 = h.quantile(0.99);
        assert!((990_000..=1_114_000).contains(&p99), "p99 = {p99}");
        assert_eq!(h.quantile(1.0), 1_000_000); // clamped to observed max
        assert_eq!(h.min(), 1000);
    }

    #[test]
    fn empty_histogram_is_safe() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn registry_observe_and_render() {
        let mut r = Registry::new();
        for i in 1..=100u64 {
            r.observe("query.term", std::time::Duration::from_micros(i));
        }
        r.observe("query.search", std::time::Duration::from_millis(1));
        let sums = r.summaries();
        assert_eq!(sums.len(), 2);
        assert_eq!(sums[0].name, "query.search");
        assert_eq!(sums[1].count, 100);
        let table = r.render_table();
        assert!(table.contains("query.term"));
        let json = sums[1].to_json();
        crate::json::parse(&json).expect("summary JSON parses");
    }

    #[test]
    fn registry_histograms_report_the_smallest_observation() {
        let mut r = Registry::new();
        r.ensure("ensured_seconds");
        r.observe("ensured_seconds", std::time::Duration::from_millis(5));
        r.observe("observed_seconds", std::time::Duration::from_millis(5));
        for s in r.summaries() {
            assert!(s.min_ns >= 5_000_000, "{}: min_ns {}", s.name, s.min_ns);
        }
    }

    #[test]
    fn fmt_ns_picks_units() {
        assert_eq!(fmt_ns(850.0), "850ns");
        assert_eq!(fmt_ns(12_400.0), "12.4µs");
        assert_eq!(fmt_ns(3_100_000.0), "3.1ms");
        assert_eq!(fmt_ns(2.0e9), "2.00s");
    }

    #[test]
    fn summary_carries_sum() {
        let mut h = Histogram::new();
        h.record(100);
        h.record(300);
        let s = h.summarize("serve_request_seconds");
        assert_eq!(s.sum_ns, 400);
        let json = s.to_json();
        let v = crate::json::parse(&json).unwrap();
        assert_eq!(v.get("sum_ns").and_then(|x| x.as_f64()), Some(400.0));
    }

    #[test]
    fn prom_name_sanitizes() {
        assert_eq!(prom_name("serve_request_seconds"), "serve_request_seconds");
        assert_eq!(prom_name("serve.query"), "serve_query");
        assert_eq!(prom_name("9lives"), "_lives");
        assert_eq!(prom_name(""), "_");
    }

    #[test]
    fn prometheus_exposition_shape() {
        let mut r = Registry::new();
        for i in 1..=100u64 {
            r.observe("serve_term_seconds", std::time::Duration::from_micros(i));
        }
        let text = r.to_prometheus();
        assert!(text.contains("# TYPE serve_term_seconds summary\n"));
        assert!(text.contains("serve_term_seconds{quantile=\"0.5\"}"));
        assert!(text.contains("serve_term_seconds{quantile=\"0.99\"}"));
        assert!(text.contains("serve_term_seconds_count 100\n"));
        // _sum is scaled ns → s: 1+2+..+100 µs = 5050 µs = 0.00505 s.
        let sum_line = text
            .lines()
            .find(|l| l.starts_with("serve_term_seconds_sum "))
            .unwrap();
        let v: f64 = sum_line.split_whitespace().nth(1).unwrap().parse().unwrap();
        assert!((v - 0.00505).abs() < 1e-9, "sum {v}");
        let summary = validate_prometheus(&text, &["serve_term_seconds"]).unwrap();
        assert_eq!(
            summary,
            PromSummary {
                families: 1,
                samples: 5
            }
        );
    }

    /// A scrape that passes, and each way of breaking it by hand: the
    /// validator names what is wrong.
    #[test]
    fn prometheus_validator_refuses_hand_broken_scrapes() {
        let mut r = Registry::new();
        r.observe("seal_latency_seconds", std::time::Duration::from_millis(3));
        r.observe("seal_latency_seconds", std::time::Duration::from_millis(9));
        r.ensure("compaction_duration_seconds");
        let good = format!(
            "# TYPE serve_requests_total counter\nserve_requests_total 7\n{}",
            r.to_prometheus()
        );
        let required = ["serve_requests_total", "seal_latency_seconds"];
        assert_eq!(
            validate_prometheus(&good, &required),
            Ok(PromSummary {
                families: 3,
                samples: 11
            })
        );
        let p99 = good
            .lines()
            .find(|l| l.starts_with("seal_latency_seconds{quantile=\"0.99\"}"))
            .unwrap();
        let broken = [
            (
                good.replace("# TYPE seal_latency_seconds summary\n", ""),
                "family seal_latency_seconds has no # TYPE line",
            ),
            (
                good.replace(p99, "seal_latency_seconds{quantile=\"0.99\"} 0.000001"),
                "quantiles not monotone",
            ),
            (
                good.replace("seal_latency_seconds_count 2\n", ""),
                "missing seal_latency_seconds_sum or _count",
            ),
            (
                good.replace(
                    "compaction_duration_seconds_count 0",
                    "compaction_duration_seconds_count 1",
                ),
                "count 1 but sum 0",
            ),
            (
                good.replace("serve_requests_total 7", "serve_requests_total seven"),
                "bad sample value \"seven\"",
            ),
            (
                good.replace(
                    "serve_requests_total 7",
                    "serve_requests_total 7 1700000000",
                ),
                "expected `name value`",
            ),
            (String::new(), "no samples"),
        ];
        for (text, want) in &broken {
            let err = validate_prometheus(text, &[]).expect_err(want);
            assert!(err.contains(want), "{want:?}: {err}");
        }
        let err = validate_prometheus(&good, &["snapshot_generation"]).unwrap_err();
        assert!(err.contains("required family snapshot_generation"), "{err}");
    }

    #[test]
    fn histogram_persist_round_trips() {
        let mut h = Histogram::new();
        for v in [1u64, 7, 100, 5_000, 1_000_000, u32::MAX as u64] {
            h.record(v);
        }
        let doc = crate::json::parse(&h.to_persist_json()).unwrap();
        let back = Histogram::from_persist(&doc).unwrap();
        assert_eq!(back, h);
        // Empty histogram round-trips too (min sentinel preserved).
        let empty_doc = crate::json::parse(&Histogram::new().to_persist_json()).unwrap();
        let empty = Histogram::from_persist(&empty_doc).unwrap();
        assert_eq!(empty, Histogram::new());
    }

    #[test]
    fn registry_persist_round_trips() {
        let mut r = Registry::new();
        r.observe("seal_latency_seconds", std::time::Duration::from_millis(12));
        r.observe("seal_latency_seconds", std::time::Duration::from_millis(30));
        let s = r.to_persist_json();
        let back = Registry::from_persist_json(&s).unwrap();
        assert_eq!(
            back.histogram("seal_latency_seconds").map(|h| h.count()),
            Some(2)
        );
        assert_eq!(
            back.histogram("seal_latency_seconds"),
            r.histogram("seal_latency_seconds")
        );
        assert!(Registry::from_persist_json("{}").is_err());
        assert!(Registry::from_persist_json("not json").is_err());
    }

    /// An `ingest_metrics.json` written by the parent (registry gauges
    /// still existed, so it carries `"gauges":{}`), copied verbatim from
    /// `vaengine ingest` + `compact`: it loads with its histograms.
    #[test]
    fn sidecar_with_the_retired_gauges_key_still_loads() {
        let parent = r#"{"histograms":{"compaction_duration_seconds":{"count":1,"sum":829416,"min":0,"max":829416,"buckets":[[140,1]]},"seal_latency_seconds":{"count":2,"sum":1029381,"min":0,"max":551906,"buckets":[[134,1],[136,1]]},"time_to_visibility_seconds":{"count":2,"sum":1316468,"min":0,"max":738999,"buckets":[[136,1],[139,1]]}},"gauges":{}}"#;
        let reg = Registry::from_persist_json(parent).expect("parent sidecar loads");
        let counts: Vec<(String, u64)> = reg
            .summaries()
            .iter()
            .map(|s| (s.name.clone(), s.count))
            .collect();
        let want = [
            ("compaction_duration_seconds", 1),
            ("seal_latency_seconds", 2),
            ("time_to_visibility_seconds", 2),
        ];
        assert_eq!(counts, want.map(|(n, c)| (n.to_string(), c)));
        let seal = reg.histogram("seal_latency_seconds").unwrap();
        assert_eq!(seal.max(), 551_906);
        // Registries of that age never raised `min` above 0; the stored
        // value is read as is.
        assert_eq!(seal.min(), 0);
        assert!(!reg.to_persist_json().contains("gauges"));
    }
}
