//! Metric records, order statistics and the result line.

use std::time::Duration;

/// One named measurement with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Builds a [`Metric`]; non-finite values (an empty ratio) become 0 so the
/// result line stays valid JSON.
pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value: if value.is_finite() { value } else { 0.0 }, unit }
}

/// Linearly interpolated quantile `q` in [0, 1] (the "type 7" estimator).
/// Returns 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

pub const MB: f64 = 1e6;

/// `peak_device_mb`: the 95th percentile of the per-call device peaks
/// (`RunStats::peak_memory_bytes`). Every call of a batch workload has the
/// same footprint, so there it is the largest peak; on `service-mixed` the
/// device is shared by two clients, and the largest peak depends on which
/// two requests happened to overlap, while the 95th percentile repeats.
pub fn peak_device_mb(peaks: impl Iterator<Item = usize>) -> Metric {
    let peaks: Vec<f64> = peaks.map(|bytes| bytes as f64 / MB).collect();
    metric("peak_device_mb", quantile(&peaks, 0.95), "MB")
}

/// The outcome of one benchmark invocation.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Human-readable lines, then the machine-readable result as the last
    /// line of standard output.
    pub fn print(&self) {
        for m in &self.metrics {
            println!("{:<36} {:>18} {}", m.name, format_value(m.value), m.unit);
        }
        println!(
            "{:<36} {:>18} fraction  ({} of {} attempted)",
            "failed_frac",
            format_value(ratio(self.failed as f64, self.attempted as f64)),
            self.failed,
            self.attempted
        );
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(&m.name),
                    json_num(m.value),
                    json_str(m.unit)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

fn format_value(v: f64) -> String {
    if v != 0.0 && (v.abs() >= 1e7 || v.abs() < 1e-3) {
        format!("{v:.4e}")
    } else {
        format!("{v:.4}")
    }
}

/// Shortest round-trip decimal (every digit as measured); Rust's `Debug`
/// form of a finite `f64` is valid JSON (`0.0`, `1.25`, `1e-7`, `3e21`).
fn json_num(v: f64) -> String {
    format!("{v:?}")
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!((quantile(&v, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn json_numbers_parse_back() {
        for v in [0.0, 1.5, 1e-7, 123456789.25, 3e21] {
            let s = json_num(v);
            assert_eq!(s.parse::<f64>().unwrap(), v, "{s}");
        }
        assert_eq!(metric("x", f64::NAN, "ms").value, 0.0);
    }
}
