//! Collects one run's metrics, provenance and correctness counts, and
//! prints them: provenance and notes first, then one line per metric,
//! then the final JSON object the benchmark contract asks for.

use std::fmt::Write as _;

use s2d_perfbench::catalogue::{Metric, END_TO_END, PER_LAYER};
use s2d_perfbench::trace::Tracer;

/// One run's results.
pub struct Report {
    catalogue: &'static [Metric],
    values: Vec<Option<f64>>,
    provenance: Vec<(String, String)>,
    notes: Vec<String>,
    attempted: u64,
    failed: u64,
    mismatches: Vec<String>,
}

impl Report {
    /// An empty report for an untraced (`traced == false`, end-to-end
    /// metrics) or traced (per-layer metrics) run.
    pub fn new(traced: bool) -> Report {
        let catalogue: &'static [Metric] = if traced { &PER_LAYER } else { &END_TO_END };
        Report {
            catalogue,
            values: vec![None; catalogue.len()],
            provenance: Vec::new(),
            notes: Vec::new(),
            attempted: 0,
            failed: 0,
            mismatches: Vec::new(),
        }
    }

    /// Sets metric `name`.
    ///
    /// # Panics
    /// Panics when `name` is not in this run's catalogue: the
    /// workloads and the catalogue must agree.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .catalogue
            .iter()
            .position(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in this run's catalogue"));
        self.values[i] = Some(value);
    }

    /// Sets to 0 every metric under `layer.` not set yet: the layer is
    /// not on this workload's path, so it did no work.
    pub fn absent(&mut self, layer: &str) {
        let prefix = format!("{layer}.");
        for (m, v) in self.catalogue.iter().zip(&mut self.values) {
            if m.name.starts_with(&prefix) && v.is_none() {
                *v = Some(0.0);
            }
        }
    }

    /// Records a provenance field.
    pub fn prov(&mut self, key: &str, value: impl ToString) {
        self.provenance.push((key.to_string(), value.to_string()));
    }

    /// Records a free-form line printed before the metrics.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Counts one operation that succeeded.
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    /// Counts one operation that was refused or failed without a wrong
    /// result.
    pub fn refused(&mut self) {
        self.attempted += 1;
        self.failed += 1;
    }

    /// Counts one operation whose output was wrong.
    pub fn mismatch(&mut self, what: impl Into<String>) {
        self.attempted += 1;
        self.failed += 1;
        let what = what.into();
        if self.mismatches.len() < 20 {
            eprintln!("MISMATCH: {what}");
            self.mismatches.push(what);
        }
    }

    /// Checks one operation: `ok` counts it as a success, otherwise as
    /// a mismatch described by `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if ok {
            self.ok();
        } else {
            self.mismatch(what());
        }
    }

    /// Failed operations over attempted ones.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Prints everything and returns the process exit code: 0 when
    /// every output was correct, 1 on any mismatch.
    ///
    /// # Panics
    /// Panics when a catalogue metric was never set, or is not finite.
    pub fn finish(mut self, tracer: Option<(&Tracer, &str)>) -> i32 {
        if self.catalogue.iter().any(|m| m.name == "failed_frac") {
            let f = self.failed_frac();
            self.set("failed_frac", f);
        }
        let mut prov = String::from("{");
        for (i, (k, v)) in self.provenance.iter().enumerate() {
            if i > 0 {
                prov.push(',');
            }
            let _ = write!(prov, "\"{}\":\"{}\"", escape(k), escape(v));
        }
        prov.push('}');
        println!("provenance {prov}");
        for n in &self.notes {
            println!("note {n}");
        }
        if let Some((t, path)) = tracer {
            match std::fs::write(path, t.to_json()) {
                Ok(()) => println!("note spans written to {path} ({} spans)", t.spans().len()),
                Err(e) => println!("note could not write spans to {path}: {e}"),
            }
        }
        let correct = self.mismatches.is_empty() && self.attempted > 0;
        let mut metrics = String::from("{");
        for (i, (m, v)) in self.catalogue.iter().zip(&self.values).enumerate() {
            let v = v.unwrap_or_else(|| panic!("metric {} was not measured", m.name));
            assert!(v.is_finite(), "metric {} is not finite: {v}", m.name);
            let better = if m.lower_is_better { "lower" } else { "higher" };
            println!("metric {:<34} {:>16} {:<7} ({better} is better)", m.name, v, m.unit);
            if i > 0 {
                metrics.push(',');
            }
            let _ = write!(metrics, "\"{}\":{{\"value\":{v},\"unit\":\"{}\"}}", m.name, m.unit);
        }
        metrics.push('}');
        println!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{metrics}}}",
            self.attempted.max(1),
            self.failed
        );
        if correct {
            0
        } else {
            1
        }
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}
