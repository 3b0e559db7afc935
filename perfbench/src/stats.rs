//! Order statistics and the result line.

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle pair for an even count); 0 when
/// there are no samples.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The sample at fraction `p` of the sorted samples (nearest rank
/// below); 0 when there are no samples.
pub fn quantile(xs: &[f64], p: f64) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return 0.0;
    }
    v[((v.len() - 1) as f64 * p) as usize]
}

/// The tail sample with its percentile: the highest percentile that
/// still has ten samples beyond it, capped at the 75th.  Higher up, a
/// short iteration's tail measures the host, not the program: on a
/// shared two-vCPU machine the 90th percentile of `fleet_pair`'s 16 ms
/// iteration moved between 19 and 37 ms from run to run.  With ten
/// samples or fewer the maximum is reported as the 100th.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let n = v.len();
    if n == 0 {
        return (0.0, 100.0);
    }
    if n <= 10 {
        return (v[n - 1], 100.0);
    }
    let k = (n - 11).min((3 * n).div_ceil(4) - 1);
    (v[k], 100.0 * (k + 1) as f64 / n as f64)
}

/// The last line of standard output.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
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
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs), (75.0, 75.0));
        // 20 has exactly ten samples beyond it.
        let short: Vec<f64> = (1..=30).map(f64::from).collect();
        assert_eq!(tail(&short), (20.0, 100.0 * 20.0 / 30.0));
        assert_eq!(tail(&[5.0, 1.0]), (5.0, 100.0));
    }

    #[test]
    fn result_line_is_json() {
        let line = result_json(true, 3, 0, &[Metric::new("iter_ms_p50", 12.5, "ms")]);
        hwprof::validate_json(&line).expect("result line parses");
        assert!(line.contains("\"iter_ms_p50\": {\"value\": 12.5, \"unit\": \"ms\"}"));
    }
}
