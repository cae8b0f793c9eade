//! Small numeric helpers: a seeded generator, percentiles, and the JSON
//! result line.

/// SplitMix64: a tiny seeded generator, so the same `--seed` always gives
/// the same inputs.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_BE4C_0FF1_CE00)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn fill(&mut self, out: &mut [u8]) {
        for chunk in out.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

/// The `q`-th percentile (0–100) by the nearest-rank method: the smallest
/// sample with at least `q`% of all samples at or below it. `None` when
/// there are no samples.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median of `samples` (average of the two middle values when even).
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        }
    }

    /// The line the replay process prints per metric.
    pub fn to_line(&self) -> String {
        format!("metric\t{}\t{:?}\t{}", self.name, self.value, self.unit)
    }

    /// Parses a [`Metric::to_line`] line.
    pub fn from_line(line: &str) -> Option<Metric> {
        let mut parts = line.strip_prefix("metric\t")?.split('\t');
        let name = parts.next()?;
        let value = parts.next()?.parse().ok()?;
        let unit = parts.next()?;
        Some(Metric::new(name, value, unit))
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Full-precision JSON number (non-finite values have no JSON form and
/// become `null`, which the reader rejects rather than misreads).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_uses_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), Some(50.0));
        assert_eq!(percentile(&samples, 99.0), Some(99.0));
        assert_eq!(percentile(&samples, 100.0), Some(100.0));
        assert_eq!(percentile(&samples, 0.0), Some(1.0));
        // Order of the input does not matter.
        let reversed: Vec<f64> = samples.iter().rev().copied().collect();
        assert_eq!(percentile(&reversed, 99.0), Some(99.0));
        assert_eq!(percentile(&[7.5], 99.0), Some(7.5));
        assert_eq!(percentile(&[], 50.0), None);
        // With 1000 samples p99 leaves exactly ten above it.
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = percentile(&big, 99.0).expect("non-empty");
        assert_eq!(big.iter().filter(|&&s| s > p99).count(), 10);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        let mut c = Rng::new(43);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn metric_lines_round_trip() {
        let m = Metric::new("order.us_per_op", 12.0625, "us");
        let back = Metric::from_line(&m.to_line()).expect("parses");
        assert_eq!(
            (back.name.as_str(), back.value, back.unit.as_str()),
            ("order.us_per_op", 12.0625, "us")
        );
        assert!(Metric::from_line("order.us_per_op 12").is_none());
    }

    #[test]
    fn result_line_shape() {
        let line = result_json(true, 3, 0, &[Metric::new("lat_p50_ms", 1.25, "ms")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"lat_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
