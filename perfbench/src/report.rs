//! Order statistics and the JSON the benchmark prints.

/// Nearest-rank quantile of an unsorted sample (0 for an empty one).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `a / b`, or 0 when nothing was counted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn push_json_str(out: &mut String, s: &str) {
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
}

fn push_json_num(out: &mut String, v: f64) {
    // Rust's float formatting is shortest-round-trip: every digit kept.
    out.push_str(&if v.is_finite() {
        v.to_string()
    } else {
        "0".to_string()
    });
}

/// Named metrics with units, in insertion order.
#[derive(Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.entries.push((name.into(), value, unit));
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(&mut out, name);
            out.push_str(":{\"value\":");
            push_json_num(&mut out, *value);
            out.push_str(",\"unit\":");
            push_json_str(&mut out, unit);
            out.push('}');
        }
        out.push('}');
        out
    }
}

/// Flat `{"key": number}` context object, printed before the result line.
#[derive(Default)]
pub struct Context {
    entries: Vec<(String, f64)>,
}

impl Context {
    pub fn put(&mut self, name: impl Into<String>, value: f64) {
        self.entries.push((name.into(), value));
    }

    pub fn to_json(&self, workload: &str) -> String {
        let mut out = String::from("{\"context\":{\"workload\":");
        push_json_str(&mut out, workload);
        for (name, value) in &self.entries {
            out.push(',');
            push_json_str(&mut out, name);
            out.push(':');
            push_json_num(&mut out, *value);
        }
        out.push_str("}}");
        out
    }
}

/// Operation tallies of one run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Outputs that differed from the reference, or a broken guard.
    pub wrong: u64,
}

impl Tally {
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.wrong == 0 && self.attempted > 0
    }
}

pub fn result_line(tally: Tally, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        tally.correct(),
        tally.attempted.max(1),
        tally.failed,
        metrics.to_json()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn metrics_render_as_json() {
        let mut m = Metrics::default();
        m.put("a_ms", 1.25, "ms");
        assert_eq!(m.to_json(), r#"{"a_ms":{"value":1.25,"unit":"ms"}}"#);
    }
}
