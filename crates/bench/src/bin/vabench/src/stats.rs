//! Order statistics, the seeded generator, and the Zipf sampler.

/// Median of `values` (mean of the middle pair for even counts); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First, second and third quartile by the exclusive method — what
/// Python's `statistics.quantiles(values, n=4)` returns, so spreads
/// computed here match the acceptance check's. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some([cut(1), cut(2), cut(3)])
}

/// Inter-quartile distance as a share of the median: the run-to-run
/// spread every bound is judged against.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// The percentile ladder a tail metric is picked from.
const LADDER: [f64; 3] = [50.0, 90.0, 99.0];

/// The highest ladder percentile with at least ten samples beyond it;
/// the median when even that has fewer (a handful of builds).
pub fn supported_percentile(n: usize) -> f64 {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|p| n as f64 * (100.0 - p) / 100.0 >= 10.0)
        .unwrap_or(LADDER[0])
}

/// Nearest-rank percentile of an ascending-sorted slice; 0 when empty.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort `values` and return them (latency vectors are sorted once and
/// then asked for several percentiles).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// SplitMix64: the benchmark's only randomness. Every request list,
/// batch cut and sample is a pure function of the `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `(seed, lane)`; lanes keep the workloads' draws
    /// independent so changing one request list never shifts another.
    pub fn new(seed: u64, lane: u64) -> Rng {
        Rng(seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(lane.wrapping_mul(0xd1b5_4a32_d192_ed03)))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2⁻⁴⁰ for
    /// every range the benchmark draws from.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

/// Zipf(s) over ranks `0..n` by inverse-CDF lookup.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut cdf: Vec<f64> = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(supported_percentile(5), 50.0);
        assert_eq!(supported_percentile(19), 50.0);
        assert_eq!(supported_percentile(20), 50.0);
        assert_eq!(supported_percentile(99), 50.0);
        assert_eq!(supported_percentile(100), 90.0);
        assert_eq!(supported_percentile(160), 90.0);
        assert_eq!(supported_percentile(999), 90.0);
        assert_eq!(supported_percentile(1000), 99.0);
        assert_eq!(supported_percentile(12_000), 99.0);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50.0);
        assert_eq!(percentile_sorted(&v, 90.0), 90.0);
        assert_eq!(percentile_sorted(&v, 99.0), 99.0);
        assert_eq!(percentile_sorted(&v, 100.0), 100.0);
        assert_eq!(percentile_sorted(&[7.0], 99.0), 7.0);
        assert_eq!(percentile_sorted(&[], 50.0), 0.0);
    }

    #[test]
    fn median_and_quartiles_match_python_exclusive_method() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[2.0, 3.0, 1.0]), Some([1.0, 2.0, 3.0]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&ten), Some(1.0));
    }

    #[test]
    fn zipf_mass_follows_the_harmonic_weights() {
        let z = Zipf::new(256, 1.0);
        let mut rng = Rng::new(11, 0);
        let mut counts = [0u32; 256];
        let draws = 200_000;
        for _ in 0..draws {
            counts[z.sample(&mut rng)] += 1;
        }
        let h256: f64 = (1..=256).map(|r| 1.0 / r as f64).sum();
        let share = |r: usize| counts[r] as f64 / draws as f64;
        assert!((share(0) - 1.0 / h256).abs() < 0.01, "rank 1: {}", share(0));
        assert!((share(1) - 0.5 / h256).abs() < 0.01, "rank 2: {}", share(1));
        let top16: f64 = (0..16).map(share).sum();
        let want16: f64 = (1..=16).map(|r| 1.0 / r as f64).sum::<f64>() / h256;
        assert!((top16 - want16).abs() < 0.01, "top-16 mass {top16}");
        assert!(counts.iter().all(|&c| c > 0), "every rank is reachable");
    }

    #[test]
    fn rng_streams_are_seeded_and_independent() {
        let draw = |seed, lane| {
            let mut r = Rng::new(seed, lane);
            [r.next_u64(), r.next_u64(), r.next_u64()]
        };
        assert_eq!(draw(11, 1), draw(11, 1));
        assert_ne!(draw(11, 1), draw(12, 1));
        assert_ne!(draw(11, 1), draw(11, 2));
        let mut r = Rng::new(3, 0);
        assert!((0..1000).all(|_| r.below(7) < 7));
        assert!((0..1000).all(|_| (0.0..1.0).contains(&r.unit())));
    }
}
