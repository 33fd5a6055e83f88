//! What one workload run produced, and its one-line JSON result.

use crate::metrics::{self, END_TO_END, PER_LAYER};
use crate::stats;

/// One named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Result of one workload run: checks, operation counts and metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    /// `(check, passed, detail)` in the order they ran.
    pub checks: Vec<(String, bool, String)>,
    /// Operations the workload attempted (page refreshes, frames sent,
    /// RPCs submitted).
    pub attempted: u64,
    /// Operations among them that failed.
    pub failed: u64,
    /// Metrics a user of the system sees (untraced run).
    pub end_to_end: Vec<Metric>,
    /// Metrics of single layers (traced run).
    pub per_layer: Vec<Metric>,
    /// Sample summaries printed with the human-readable lines.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a correctness check.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push((name.to_string(), ok, detail.into()));
    }

    /// Adds an end-to-end metric (a name from the catalogue).
    pub fn e2e(&mut self, name: &str, value: f64) {
        self.end_to_end.push(metric(name, value));
    }

    /// Adds a per-layer metric (a name from the catalogue).
    pub fn layer(&mut self, name: &str, value: f64) {
        self.per_layer.push(metric(name, value));
    }

    /// Notes a timing's samples: count, median, quartiles and the highest
    /// percentile with at least ten samples beyond it.
    pub fn samples(&mut self, name: &str, unit: &str, xs: &[f64]) {
        let mut line = format!(
            "samples {name}: n={} median={:.6}{unit}",
            xs.len(),
            stats::median(xs)
        );
        if let Some([q1, _, q3]) = stats::quartiles(xs) {
            line.push_str(&format!(
                " q1={q1:.6} q3={q3:.6} spread={:.4}",
                stats::spread(xs)
            ));
        }
        if let Some((p, v)) = stats::tail_percentile(xs) {
            line.push_str(&format!(" p{p}={v:.6}"));
        }
        self.notes.push(line);
    }

    /// Whether every check passed, every reported value is finite and
    /// every end-to-end metric was measured.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.1)
            && self
                .end_to_end
                .iter()
                .chain(&self.per_layer)
                .all(|m| m.value.is_finite())
            && END_TO_END
                .iter()
                .all(|spec| self.end_to_end.iter().any(|m| m.name == spec.0))
    }

    /// Human-readable lines: every check, then every metric of the run.
    pub fn summary(&self, trace: bool) -> String {
        let mut s = String::new();
        for (name, ok, detail) in &self.checks {
            let verdict = if *ok { "PASS" } else { "FAIL" };
            s.push_str(&format!("check {name:<34} [{verdict}] {detail}\n"));
        }
        for note in &self.notes {
            s.push_str(note);
            s.push('\n');
        }
        let metrics = if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        for m in metrics {
            s.push_str(&format!("{:<36} {:>16.6} {}\n", m.name, m.value, m.unit));
        }
        s
    }

    /// The result line: `correct`, `attempted`, `failed` and every
    /// catalogued end-to-end metric (`trace == false`) or every per-layer
    /// one, in catalogue order. A layer this workload does not exercise
    /// reads 0.
    pub fn json(&self, trace: bool) -> String {
        let (specs, measured) = if trace {
            (PER_LAYER, &self.per_layer)
        } else {
            (END_TO_END, &self.end_to_end)
        };
        let body: Vec<String> = specs
            .iter()
            .map(|&(name, unit, _)| {
                let v = measured
                    .iter()
                    .find(|m| m.name == name)
                    .map_or(0.0, |m| m.value);
                // `{:?}` prints the shortest exact round-trip form of an
                // f64; non-finite values (already a failed check) become 0.
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        )
    }
}

fn metric(name: &str, value: f64) -> Metric {
    let unit =
        metrics::unit(name).unwrap_or_else(|| panic!("{name} is not in the metric catalogue"));
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_prints_the_whole_catalogue_and_flags_failures() {
        let mut o = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        o.e2e("setup_s", 0.5);
        o.e2e("peak_rss_mb", 100.0);
        assert!(!o.correct(), "ops_per_s missing");
        o.e2e("ops_per_s", 20.0);
        o.layer("station.boot_s", 3.0);
        o.check("ok", true, "");
        assert!(o.correct());
        assert_eq!(
            o.json(false),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \"peak_rss_mb\": {\"value\": 100.0, \
             \"unit\": \"MB\"}, \"ops_per_s\": {\"value\": 20.0, \"unit\": \"1/s\"}}}"
        );
        let traced = o.json(true);
        assert!(traced.contains("\"station.boot_s\": {\"value\": 3.0, \"unit\": \"s\"}"));
        assert!(traced.contains("\"radio.fm_demod_ms.clean\": {\"value\": 0.0, \"unit\": \"ms\"}"));
        assert_eq!(traced.matches("\"value\"").count(), PER_LAYER.len());
        o.check("broken", false, "audio differs");
        assert!(o.json(false).starts_with("{\"correct\": false"));
    }
}
