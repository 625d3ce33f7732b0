//! Sample lists, the key/value files parent and children exchange, and the
//! two things the parent prints: one line per metric and the result line.

use crate::spec;
use crate::stats::{median, min_max, quartiles};
use std::collections::BTreeMap;
use std::path::Path;

/// `key rest-of-line` files: inputs' facts and the children's results.
pub fn write_kv(path: &Path, rows: &[(String, String)]) -> std::io::Result<()> {
    let text: String = rows.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
    std::fs::write(path, text)
}

pub fn read_kv(path: &Path) -> Result<BTreeMap<String, String>, Box<dyn std::error::Error>> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(text
        .lines()
        .filter_map(|l| l.split_once(' '))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect())
}

/// Every value measured for each name, in the order taken. A metric's
/// value is the median of its list, or its minimum for the two metrics
/// `spec::reported_as_fastest` names.
#[derive(Default, Clone)]
pub struct Samples(pub BTreeMap<String, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, name: &str, v: f64) {
        self.0.entry(name.to_string()).or_default().push(v);
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    pub fn value(&self, name: &str) -> f64 {
        if spec::reported_as_fastest(name) {
            min_max(self.get(name)).0
        } else {
            median(self.get(name))
        }
    }

    /// Take every list of `other`, replacing lists of the same name.
    pub fn absorb(&mut self, other: Samples) {
        self.0.extend(other.0);
    }

    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let rows: Vec<(String, String)> = self
            .0
            .iter()
            .map(|(k, v)| {
                (k.clone(), v.iter().map(|x| format!("{x:?}")).collect::<Vec<_>>().join(" "))
            })
            .collect();
        write_kv(path, &rows)
    }

    pub fn load(path: &Path) -> Result<Samples, Box<dyn std::error::Error>> {
        let mut s = Samples::default();
        for (k, v) in read_kv(path)? {
            let values: Result<Vec<f64>, _> = v.split_whitespace().map(str::parse::<f64>).collect();
            s.0.insert(k, values.map_err(|e| format!("{}: {e}", path.display()))?);
        }
        Ok(s)
    }
}

/// Result of one benchmark run, as the parent reports it.
pub struct Outcome {
    pub workload: String,
    pub samples: Samples,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    /// Metric names of the result line, in spec order.
    pub names: Vec<&'static str>,
}

impl Outcome {
    /// `workload metric value unit n q1 q3 min max`, one line per metric.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for name in &self.names {
            let v = self.samples.get(name);
            let (q1, q3) = quartiles(v);
            let (lo, hi) = min_max(v);
            out += &format!(
                "{} {} {:?} {} {} {:?} {:?} {:?} {:?}\n",
                self.workload,
                name,
                self.samples.value(name),
                spec::unit_of(name),
                v.len(),
                q1,
                q3,
                lo,
                hi
            );
        }
        out
    }

    /// The result line: one JSON object, every digit of every value.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .names
            .iter()
            .map(|n| {
                let v = self.samples.value(n);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}", spec::unit_of(n))
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_round_trip_through_a_file() {
        let mut s = Samples::default();
        s.push("run_s", 1.25);
        s.push("run_s", 0.1 + 0.2);
        s.push("io_mb", 684.0123456789);
        let path = crate::parent::default_scratch().join(format!("test_{}.kv", std::process::id()));
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        s.save(&path).unwrap();
        let back = Samples::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back.get("run_s"), s.get("run_s"));
        assert_eq!(back.value("io_mb"), 684.0123456789);
        assert!(back.get("absent").is_empty());
    }

    #[test]
    fn result_line_carries_every_named_metric_with_its_unit() {
        let mut samples = Samples::default();
        for v in [1.0, 3.0, 2.0] {
            samples.push("run_s", v);
            samples.push("io_mb", v);
        }
        let o = Outcome {
            workload: "pr_dv".into(),
            samples,
            attempted: 0,
            failed: 0,
            correct: true,
            names: vec!["run_s", "io_mb", "peak_rss_mb"],
        };
        let line = o.result_line();
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"run_s\": {\"value\": 1.0, \"unit\": \"s\"}"));
        assert!(line.contains("\"io_mb\": {\"value\": 2.0, \"unit\": \"MB\"}"));
        assert!(line.contains("\"peak_rss_mb\": {\"value\": 0.0, \"unit\": \"MB\"}"));
        assert_eq!(o.table().lines().count(), 3);
    }
}
