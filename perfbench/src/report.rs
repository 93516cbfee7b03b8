//! Metric records and the result line.

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Samples behind the value (requests, calls, rounds, set-ups).
    pub samples: usize,
}

/// What one run reports.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Requests or rows attempted.
    pub attempted: u64,
    /// Busy, error or unanswered requests.
    pub failed: u64,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Adds one metric.
    pub fn push(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    /// A human-readable table: name, value, unit, samples.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{:<34} {:>16} {:<6} {:>9}\n",
            "metric", "value", "unit", "samples"
        );
        for m in &self.metrics {
            out.push_str(&format!(
                "{:<34} {:>16.4} {:<6} {:>9}\n",
                m.name, m.value, m.unit, m.samples
            ));
        }
        out
    }

    /// The result line: `correct`, `attempted`, `failed` and every
    /// metric with its value and unit. Values keep all their digits.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite value, which has no JSON form and means
    /// a metric was computed from no samples.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                assert!(m.value.is_finite(), "metric {} is {}", m.name, m.value);
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_shape() {
        let mut o = Outcome {
            attempted: 10,
            failed: 0,
            metrics: Vec::new(),
        };
        o.push("p50_us", 12.5, "us", 10);
        o.push("setup_s", 0.25, "s", 5);
        assert_eq!(
            o.json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"p50_us\": {\"value\": 12.5, \"unit\": \"us\"}, \
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
