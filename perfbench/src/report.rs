//! The run's result: operation counts, failures and named metrics,
//! printed as the last line of standard output.

use traj_model::json::JsonValue;

/// Operation accounting and metrics of one run.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Descriptions of failed operations (one entry per operation).
    pub failures: Vec<String>,
    /// Descriptions of failed output checks.  Any entry makes the run
    /// incorrect.
    pub mismatches: Vec<String>,
    /// Reproducers of the simplified streams that break their ζ bound.
    /// The algorithm's defect, not an operation of the benchmarked system
    /// that failed: each is printed and counted in
    /// `core.zeta_violating_streams`, and the stream is still stored,
    /// served and checked against its exact reference.
    pub zeta_violations: Vec<String>,
    /// `(name, value, unit)` in insertion order.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Records a metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Records a failed operation.
    pub fn fail(&mut self, what: String) {
        self.failures.push(what);
    }

    /// Records a simplified stream that breaks its ζ bound.
    pub fn zeta_violation(&mut self, what: String) {
        eprintln!("zeta violation: {what}");
        self.zeta_violations.push(what);
    }

    /// Records a failed output check (and the operation it belongs to).
    pub fn mismatch(&mut self, what: String) {
        self.failures.push(what.clone());
        self.mismatches.push(what);
    }

    /// Keeps only the metrics named in `names`, in that order, and fails
    /// loudly when one is missing or not a finite number.
    pub fn select(&mut self, names: &[&str]) {
        let mut out = Vec::with_capacity(names.len());
        for name in names {
            let m = self
                .metrics
                .iter()
                .find(|(n, _, _)| n == name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"))
                .clone();
            assert!(m.1.is_finite(), "metric {name} is not finite: {}", m.1);
            out.push(m);
        }
        self.metrics = out;
    }

    /// The result line.
    pub fn to_json(&self) -> String {
        let metrics = JsonValue::Object(
            self.metrics
                .iter()
                .map(|(name, value, unit)| {
                    (
                        name.clone(),
                        JsonValue::object([
                            ("value", JsonValue::from(*value)),
                            ("unit", JsonValue::from(*unit)),
                        ]),
                    )
                })
                .collect(),
        );
        JsonValue::object([
            ("correct", JsonValue::from(self.mismatches.is_empty())),
            ("attempted", JsonValue::from(self.attempted as usize)),
            ("failed", JsonValue::from(self.failures.len())),
            ("metrics", metrics),
        ])
        .to_string()
    }
}
