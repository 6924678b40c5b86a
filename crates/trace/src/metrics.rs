//! Latency metrics: log-bucketed histograms and a string-keyed registry.
//!
//! [`Histogram`] is an HDR-style log-linear histogram over `u64` values
//! (nanoseconds, by convention): each power-of-two octave is split into
//! `2^SUB_BITS = 8` linear sub-buckets, so any reported quantile's bucket
//! upper bound is within `1/8 = 12.5%` of a value actually recorded into
//! that bucket; values below 8 are exact. Recording is two shifts and an
//! increment — cheap enough for the per-query serving path.
//!
//! Histograms merge by bucket-wise addition, and merged quantiles
//! *bracket* the per-shard quantiles: `quantile` returns the upper bound
//! of the first bucket whose cumulative count reaches `ceil(q·n)`, so
//! the merged value is `>=` the minimum and `<=` the maximum of the
//! shards' values for the same `q` (the property the proptest in
//! `tests/hist_props.rs` exercises).

use std::collections::BTreeMap;

/// Sub-bucket resolution: 8 linear buckets per power-of-two octave.
const SUB_BITS: u32 = 3;
const SUB: u64 = 1 << SUB_BITS;

/// A log-bucketed histogram of `u64` values with ≤12.5% relative error.
#[derive(Debug, Clone, Default, PartialEq)]
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

    /// Merge `other` into `self` bucket-wise.
    pub fn merge(&mut self, other: &Histogram) {
        for (&bucket, &n) in &other.counts {
            *self.counts.entry(bucket).or_insert(0) += n;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
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
    /// [`Histogram::from_persist`], so persisted histograms stay
    /// count-additive under [`Histogram::merge`]). Used by the ingest
    /// metrics sidecar to accumulate across processes.
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

/// A string-keyed registry of histograms and gauges. Not thread-safe by
/// design: an owner that shares one wraps it in a lock.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    hists: BTreeMap<String, Histogram>,
    gauges: BTreeMap<String, f64>,
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

    /// Set gauge `name` to `v` (last write wins).
    pub fn gauge(&mut self, name: &str, v: f64) {
        self.gauges.insert(name.to_string(), v);
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

    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Summaries of all histograms, sorted by name.
    pub fn summaries(&self) -> Vec<HistogramSummary> {
        self.hists.iter().map(|(k, h)| h.summarize(k)).collect()
    }

    /// Export the whole registry as one JSON object: histogram summaries
    /// under `"histograms"` (sorted by name) and gauges under `"gauges"`.
    /// This is the payload a serving `/metrics` endpoint returns; it
    /// round-trips through [`crate::json::parse`].
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"histograms\":[");
        for (i, sum) in self.summaries().iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&sum.to_json());
        }
        s.push_str("],\"gauges\":{");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\"{}\":{}",
                crate::json::escape(k),
                crate::json::num(*v)
            ));
        }
        s.push_str("}}");
        s
    }

    /// Prometheus text exposition (format 0.0.4): each histogram as a
    /// `summary` metric — `{quantile="0.5|0.95|0.99"}` sample lines plus
    /// the `_sum`/`_count` pair that keeps scraped series count-additive
    /// across merges — and each gauge as a `gauge`. Histograms record
    /// nanoseconds; metrics named `*_seconds` are scaled to seconds on
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
        for (name, v) in &self.gauges {
            let n = prom_name(name);
            out.push_str(&format!("# TYPE {n} gauge\n{n} {}\n", crate::json::num(*v)));
        }
        out
    }

    /// Full-fidelity serialization: every histogram at bucket level (see
    /// [`Histogram::to_persist_json`]) plus gauges. Unlike
    /// [`to_json`](Self::to_json) this round-trips exactly, so a
    /// registry persisted by one process and reloaded by another keeps
    /// merging count-additively.
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
        s.push_str("},\"gauges\":{");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\"{}\":{}",
                crate::json::escape(k),
                crate::json::num(*v)
            ));
        }
        s.push_str("}}");
        s
    }

    /// Rebuild a registry from [`to_persist_json`](Self::to_persist_json).
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
        if let Some(crate::json::Value::Obj(gauges)) = doc.get("gauges") {
            for (name, v) in gauges {
                let f = v
                    .as_f64()
                    .ok_or_else(|| format!("registry persist: gauge {name} not a number"))?;
                reg.gauges.insert(name.clone(), f);
            }
        } else {
            return Err("registry persist: missing gauges".into());
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
        for (k, v) in &self.gauges {
            out.push_str(&format!("{k:<24} {v}\n"));
        }
        out
    }
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
    fn merge_adds_counts_and_preserves_extremes() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in [10u64, 20, 30] {
            a.record(v);
        }
        for v in [1_000u64, 2_000] {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 5);
        assert_eq!(a.min(), 10);
        assert_eq!(a.max(), 2_000);
        assert!(a.quantile(0.5) >= 30);
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
        r.gauge("snapshot.docs", 1234.0);
        let sums = r.summaries();
        assert_eq!(sums.len(), 1);
        assert_eq!(sums[0].count, 100);
        let table = r.render_table();
        assert!(table.contains("query.term"));
        assert!(table.contains("snapshot.docs"));
        let json = sums[0].to_json();
        crate::json::parse(&json).expect("summary JSON parses");
    }

    #[test]
    fn registry_json_export() {
        let mut a = Registry::new();
        for i in 1..=20u64 {
            a.observe("serve.term", std::time::Duration::from_micros(i));
        }
        a.observe("serve.search", std::time::Duration::from_millis(1));
        a.gauge("cache.hits", 7.0);
        let sums = a.summaries();
        assert_eq!(sums.len(), 2);
        let term = sums.iter().find(|s| s.name == "serve.term").unwrap();
        assert_eq!(term.count, 20);
        let json = a.to_json();
        let v = crate::json::parse(&json).expect("registry JSON parses");
        let hists = v.get("histograms").and_then(|h| h.as_arr()).unwrap();
        assert_eq!(hists.len(), 2);
        let gauges = v.get("gauges").unwrap();
        assert_eq!(gauges.get("cache.hits").and_then(|g| g.as_f64()), Some(7.0));
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
        r.gauge("snapshot_generation", 3.0);
        let text = r.to_prometheus();
        assert!(text.contains("# TYPE serve_term_seconds summary\n"));
        assert!(text.contains("serve_term_seconds{quantile=\"0.5\"}"));
        assert!(text.contains("serve_term_seconds{quantile=\"0.99\"}"));
        assert!(text.contains("serve_term_seconds_count 100\n"));
        assert!(text.contains("# TYPE snapshot_generation gauge\nsnapshot_generation 3\n"));
        // _sum is scaled ns → s: 1+2+..+100 µs = 5050 µs = 0.00505 s.
        let sum_line = text
            .lines()
            .find(|l| l.starts_with("serve_term_seconds_sum "))
            .unwrap();
        let v: f64 = sum_line.split_whitespace().nth(1).unwrap().parse().unwrap();
        assert!((v - 0.00505).abs() < 1e-9, "sum {v}");
        // Every sample line's metric family has a TYPE header.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let metric = line.split(['{', ' ']).next().unwrap();
            let family = metric
                .strip_suffix("_sum")
                .or_else(|| metric.strip_suffix("_count"))
                .unwrap_or(metric);
            assert!(
                text.contains(&format!("# TYPE {family} ")),
                "no TYPE for {metric}"
            );
        }
    }

    #[test]
    fn histogram_persist_round_trips_and_stays_additive() {
        let mut h = Histogram::new();
        for v in [1u64, 7, 100, 5_000, 1_000_000, u32::MAX as u64] {
            h.record(v);
        }
        let doc = crate::json::parse(&h.to_persist_json()).unwrap();
        let back = Histogram::from_persist(&doc).unwrap();
        assert_eq!(back, h);
        // Accumulate across a persist/load cycle: equals direct merging.
        let mut more = Histogram::new();
        more.record(42);
        let mut via_persist = back.clone();
        via_persist.merge(&more);
        let mut direct = h.clone();
        direct.merge(&more);
        assert_eq!(via_persist, direct);
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
        r.gauge("snapshot_generation", 5.0);
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
        let gauges: Vec<_> = back.gauges().collect();
        assert_eq!(gauges, vec![("snapshot_generation", 5.0)]);
        assert!(Registry::from_persist_json("{}").is_err());
        assert!(Registry::from_persist_json("not json").is_err());
    }
}
