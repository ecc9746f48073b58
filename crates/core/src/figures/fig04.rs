//! Figure 4: percentage of static and dynamic instruction sharing across
//! all threads of an eight-core run (parallel sections only).

use crate::report::TextTable;
use acmp_sweep::SweepEngine;
use hpc_workloads::Benchmark;
use serde::{Deserialize, Serialize};
use sim_trace::SharingStats;

/// One benchmark's instruction-sharing percentages.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Figure4Row {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// Percentage of the static parallel footprint executed by all threads.
    pub static_sharing_percent: f64,
    /// Percentage of dynamically executed parallel instructions common to
    /// all threads.
    pub dynamic_sharing_percent: f64,
}

/// The Figure 4 table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Figure4 {
    /// Per-benchmark rows.
    pub rows: Vec<Figure4Row>,
}

/// Computes the sharing percentages across all generated threads.
pub fn compute(engine: &SweepEngine, benchmarks: &[Benchmark]) -> Figure4 {
    let rows = engine
        .run_per_benchmark(benchmarks, |b| {
            let traces = engine.traces(b);
            let sharing = SharingStats::from_trace_set(&traces);
            Figure4Row {
                benchmark: b,
                static_sharing_percent: sharing.static_sharing * 100.0,
                dynamic_sharing_percent: sharing.dynamic_sharing * 100.0,
            }
        })
        .into_iter()
        .map(|(_, row)| row)
        .collect();
    Figure4 { rows }
}

impl Figure4 {
    /// Mean dynamic sharing percentage (the paper reports ≈ 99 %).
    pub fn mean_dynamic_sharing(&self) -> f64 {
        crate::report::arithmetic_mean(
            &self
                .rows
                .iter()
                .map(|r| r.dynamic_sharing_percent)
                .collect::<Vec<_>>(),
        )
    }
}

impl std::fmt::Display for Figure4 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Figure 4: instruction sharing across threads [%] (parallel sections only)"
        )?;
        let mut t = TextTable::new(vec!["benchmark", "static", "dynamic"]);
        for r in &self.rows {
            t.row(vec![
                r.benchmark.name().to_string(),
                format!("{:.1}", r.static_sharing_percent),
                format!("{:.1}", r.dynamic_sharing_percent),
            ]);
        }
        write!(f, "{t}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::test_support::{tiny_benchmarks, tiny_engine};

    #[test]
    fn dynamic_sharing_is_about_99_percent() {
        let engine = tiny_engine();
        let fig = compute(&engine, &tiny_benchmarks());
        for r in &fig.rows {
            assert!(
                r.dynamic_sharing_percent > 90.0,
                "{}: dynamic sharing {:.1}%",
                r.benchmark,
                r.dynamic_sharing_percent
            );
            assert!(r.static_sharing_percent > 30.0);
            assert!(r.static_sharing_percent <= 100.0);
        }
        assert!(fig.mean_dynamic_sharing() > 95.0);
        assert!(fig.to_string().contains("dynamic"));
    }
}
