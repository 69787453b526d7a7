//! Summary statistics and the result record the benchmark prints.

use std::collections::BTreeMap;

/// The tail rule: the highest order statistic with at least ten samples
/// strictly beyond it, as `(value, percentile)`. With ten samples or
/// fewer no such statistic exists and the maximum is returned with its
/// percentile, 100. An empty sample, which only a run whose every
/// operation failed produces, reads 0.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let sorted = sorted(samples);
    let n = sorted.len();
    if n == 0 {
        return (0.0, 100.0);
    }
    if n <= 10 {
        return (sorted[n - 1], 100.0);
    }
    let rank = n - 11;
    (sorted[rank], 100.0 * (n - 10) as f64 / n as f64)
}

/// The median (mean of the two middle values for an even count); 0 for
/// an empty sample.
pub fn median(samples: &[f64]) -> f64 {
    let sorted = sorted(samples);
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// The arithmetic mean; 0 for an empty sample.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Whether `name` is a legal metric name: `[A-Za-z0-9_.-]+`, starting
/// with a letter or digit, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    let b = name.as_bytes();
    !b.is_empty()
        && b.len() <= 64
        && b[0].is_ascii_alphanumeric()
        && b.iter()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b'-'))
}

/// Named metrics with units, in name order.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    /// Records one metric. Names are checked and used once; values must
    /// be finite, since JSON has no NaN or infinity.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(valid_name(name), "bad metric name {name:?}");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        let prev = self.0.insert(name.to_string(), (value, unit));
        assert!(prev.is_none(), "metric {name} recorded twice");
    }

    /// The value of `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|&(v, _)| v)
    }

    /// Metric names in order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.0.keys().map(String::as_str)
    }

    /// Keeps only the metrics whose names satisfy `keep`.
    pub fn retain(&mut self, keep: impl Fn(&str) -> bool) {
        self.0.retain(|name, _| keep(name));
    }

    /// A human-readable table, one metric per line.
    pub fn table(&self) -> String {
        self.0
            .iter()
            .map(|(name, (v, unit))| format!("  {name:<36} {v:>18.6} {unit}\n"))
            .collect()
    }

    /// The `{"name": {"value": v, "unit": u}, ...}` JSON object. Values
    /// print with Rust's shortest round-trip formatting, so every digit
    /// measured is kept.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, (v, unit))| {
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// The result line: the last line the benchmark prints.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond_it() {
        for n in 11..200 {
            let samples: Vec<f64> = (0..n).rev().map(|i| i as f64).collect();
            let (v, pct) = tail(&samples);
            let beyond = samples.iter().filter(|&&x| x > v).count();
            assert_eq!(beyond, 10, "n = {n}");
            assert!((pct - 100.0 * (n - 10) as f64 / n as f64).abs() < 1e-12);
        }
    }

    #[test]
    fn tail_of_a_small_sample_is_its_maximum() {
        assert_eq!(tail(&[3.0, 1.0, 2.0]), (3.0, 100.0));
        assert_eq!(tail(&[5.0; 10]), (5.0, 100.0));
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(
            (median(&[]), mean(&[]), tail(&[])),
            (0.0, 0.0, (0.0, 100.0))
        );
    }

    #[test]
    fn names_follow_the_metric_grammar() {
        assert!(valid_name("ipu-sim.host_ns_per_superstep"));
        assert!(valid_name("hunipu.step4.iterations"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("brackets[0]"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn json_keeps_every_digit() {
        let mut m = Metrics::default();
        m.put("a_s", 0.123456789012345, "s");
        m.put("b", 3.0, "count");
        let line = result_json(true, 4, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": \
             {\"a_s\": {\"value\": 0.123456789012345, \"unit\": \"s\"}, \
             \"b\": {\"value\": 3.0, \"unit\": \"count\"}}}"
        );
    }
}
