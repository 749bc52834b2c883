//! The result of one benchmark invocation: named metrics with units, the
//! attempted/failed counts, and the JSON line that ends standard output.

/// One measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything a workload reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Runs or cells attempted.
    pub attempted: u64,
    /// Runs or cells that errored or failed a correctness check.
    pub failed: u64,
    /// One line per failure, for standard error.
    pub failures: Vec<String>,
    /// Human-readable context lines (tail percentiles, digests, ...).
    pub notes: Vec<String>,
    /// The most worker threads any run's engine reported using.
    pub engine_threads: u64,
}

impl Outcome {
    /// Adds a metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Counts one attempted run or cell, failed when `err` is set.
    pub fn tally(&mut self, err: Option<String>) {
        self.attempted += 1;
        if let Some(e) = err {
            self.failed += 1;
            self.failures.push(e);
        }
    }

    /// Records the engine thread count one run reported.
    pub fn saw_threads(&mut self, threads: u64) {
        self.engine_threads = self.engine_threads.max(threads);
    }

    /// Adds a context line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }
}

/// Whether `name` is a valid metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(ok_char)
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
}

/// The final result line. Fails on an invalid or repeated metric name,
/// or a value that is not a finite number.
pub fn result_line(out: &Outcome) -> Result<String, String> {
    let mut seen = std::collections::BTreeSet::new();
    let mut fields = Vec::with_capacity(out.metrics.len());
    for m in &out.metrics {
        if !valid_name(&m.name) {
            return Err(format!("invalid metric name {:?}", m.name));
        }
        if !seen.insert(m.name.as_str()) {
            return Err(format!("metric {} reported twice", m.name));
        }
        if !m.value.is_finite() {
            return Err(format!("metric {} is {}", m.name, m.value));
        }
        fields.push(format!(
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted,
        out.failed,
        fields.join(",")
    ))
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_validated() {
        for good in [
            "wall_s",
            "engine.barrier_wait_s",
            "cell-latency",
            "9lives",
            "a",
        ] {
            assert!(valid_name(good), "{good}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            ".hidden",
            "_x",
            "-x",
            "has space",
            "a/b",
            "é",
            "a\"b",
            &long,
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
    }

    #[test]
    fn result_line_shape_and_rejections() {
        let mut out = Outcome::default();
        out.put("wall_s", 1.25, "s");
        out.put("events_per_s", 3.0e6, "1/s");
        out.tally(None);
        let line = result_line(&out).unwrap();
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{\
             \"wall_s\":{\"value\":1.25,\"unit\":\"s\"},\
             \"events_per_s\":{\"value\":3000000,\"unit\":\"1/s\"}}}"
        );
        assert!(bcp_sim::json::parse(&line).is_ok());

        out.tally(Some("boom".into()));
        assert!(result_line(&out).unwrap().starts_with("{\"correct\":false"));
        out.put("wall_s", 2.0, "s");
        assert!(result_line(&out).unwrap_err().contains("twice"));

        let mut bad = Outcome::default();
        bad.put("bad name", 1.0, "s");
        assert!(result_line(&bad).is_err());
        let mut nan = Outcome::default();
        nan.put("x", f64::NAN, "s");
        assert!(result_line(&nan).is_err());
    }
}
