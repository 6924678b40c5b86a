//! Property-based tests for the log-bucketed latency histogram: quantile
//! estimates must bound the true order statistics within the bucketing's
//! relative-error guarantee.

use inspire_trace::Histogram;
use proptest::prelude::*;

fn hist_of(values: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

proptest! {
    /// The estimate never undershoots the true order statistic, and
    /// overshoots by at most one sub-bucket (≤ 12.5 % relative error).
    #[test]
    fn quantile_bounds_true_rank_value(
        values in prop::collection::vec(1u64..1_000_000, 1..200),
        qi in 0usize..5,
    ) {
        let q = [0.05, 0.25, 0.5, 0.95, 1.0][qi];
        let h = hist_of(&values);
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        let actual = sorted[rank - 1];
        let est = h.quantile(q);
        prop_assert!(est >= actual, "q={q}: estimate {est} < actual {actual}");
        prop_assert!(
            est as f64 <= actual as f64 * 1.125,
            "q={q}: estimate {est} overshoots actual {actual} by more than 12.5%"
        );
    }

    /// A single recorded value is reported exactly at every fraction.
    #[test]
    fn single_value_is_exact(v in 1u64..10_000_000, q in 0.0f64..1.0) {
        let h = hist_of(&[v]);
        prop_assert_eq!(h.quantile(q), v);
        prop_assert_eq!(h.quantile(1.0), v);
    }
}
