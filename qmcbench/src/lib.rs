//! # qmcbench
//!
//! The repository's benchmark: closed-loop DMC runs of three workloads
//! (see `README.md` in this directory), end-to-end metrics from untraced
//! runs of the production drivers, and per-layer metrics from a separate
//! traced replay whose spans the benchmark records around its own calls
//! into the crates.

pub mod checks;
pub mod drive;
pub mod host;
pub mod probe;
pub mod run;
pub mod spec;
pub mod trace;

/// One named metric with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// An ordered metric list.
#[derive(Clone, Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Appends a metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}
