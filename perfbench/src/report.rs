//! Percentile selection and the one-line result the benchmark prints.

/// One named measurement with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Dotted metric name, e.g. `run_ms_p50` or `broadcast.idb_echo.share`.
    pub name: String,
    /// Unit label, e.g. `ms`, `1/s`, `count`.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
}

impl Metric {
    /// A metric from its parts.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Metric {
            name: name.into(),
            unit,
            value,
        }
    }

    /// The human-readable line printed before the JSON result.
    pub fn line(&self) -> String {
        format!("{} = {} {}", self.name, self.value, self.unit)
    }
}

/// The highest whole nearest-rank percentile that leaves at least ten
/// samples above it, for `n` samples: `(percentile, zero-based index into
/// the sorted samples)`. `None` when fewer than eleven samples exist.
pub fn tail_rank(n: usize) -> Option<(u32, usize)> {
    (1..=99u32).rev().find_map(|p| {
        let rank = (p as usize * n).div_ceil(100);
        (rank >= 1 && rank + 10 <= n).then_some((p, rank - 1))
    })
}

/// The nearest-rank `p`-th percentile of ascending `sorted` samples.
///
/// # Panics
///
/// Panics on an empty slice or `p` outside `1..=100`.
pub fn nearest_rank(sorted: &[f64], p: u32) -> f64 {
    assert!(!sorted.is_empty() && (1..=100).contains(&p));
    let rank = (p as usize * sorted.len()).div_ceil(100);
    sorted[rank - 1]
}

/// Median of unsorted samples (mean of the middle two for even counts).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty());
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Renders the final result line:
/// `{"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value": .., "unit": ..}}}`.
///
/// # Panics
///
/// Panics on a non-finite value, which JSON cannot carry. Finite values
/// print in Rust's shortest round-trip form, which never uses an exponent
/// and so is always a valid JSON number.
pub fn render_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "{} is not finite", m.name);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_at_least_ten_samples_beyond() {
        assert_eq!(tail_rank(10), None);
        // 11 samples: rank 1 is the only one with ten above it.
        assert_eq!(tail_rank(11), Some((9, 0)));
        assert_eq!(tail_rank(20), Some((50, 9)));
        // 280 samples: p96 is rank 269 (11 above), p97 would be rank 272.
        assert_eq!(tail_rank(280), Some((96, 268)));
        assert_eq!(tail_rank(1000), Some((99, 989)));
        assert_eq!(tail_rank(100_000), Some((99, 98_999)));
        for n in 11..2000 {
            let (p, idx) = tail_rank(n).unwrap();
            assert!(n - (idx + 1) >= 10, "n={n}");
            if p < 99 {
                let next = ((p as usize + 1) * n).div_ceil(100);
                assert!(n - next < 10, "n={n}: p{} also qualifies", p + 1);
            }
        }
    }

    #[test]
    fn nearest_rank_matches_definition() {
        let s: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 50), 10.0);
        assert_eq!(nearest_rank(&s, 51), 11.0);
        assert_eq!(nearest_rank(&s, 100), 20.0);
        assert_eq!(nearest_rank(&s, 1), 1.0);
        let (p, idx) = tail_rank(s.len()).unwrap();
        assert_eq!(nearest_rank(&s, p), s[idx]);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn metrics_render_by_name_with_unit() {
        let metrics = [
            Metric::new("run_ms_p50", "ms", 1.25),
            Metric::new("simnet.delivered", "count", 83_291.0),
        ];
        assert_eq!(metrics[0].line(), "run_ms_p50 = 1.25 ms");
        assert_eq!(
            render_json(true, 12, 0, &metrics),
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": \
             {\"run_ms_p50\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"simnet.delivered\": {\"value\": 83291, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    #[should_panic(expected = "not finite")]
    fn non_finite_values_are_refused() {
        render_json(true, 1, 0, &[Metric::new("x", "ms", f64::NAN)]);
    }
}
