//! Figure 7: naive sharing — execution time for cpc ∈ {2, 4, 8} (32 KB
//! shared I-cache, four line buffers, single bus), normalized to the
//! private-I-cache baseline.

use crate::report::TextTable;
use acmp_sweep::SweepEngine;
use hpc_workloads::Benchmark;
use serde::{Deserialize, Serialize};

/// One benchmark's normalized execution times.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Figure7Row {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// Baseline execution time in cycles (the normalisation reference).
    pub baseline_cycles: u64,
    /// Normalized execution time with two workers per I-cache.
    pub cpc2: f64,
    /// Normalized execution time with four workers per I-cache.
    pub cpc4: f64,
    /// Normalized execution time with eight workers per I-cache.
    pub cpc8: f64,
}

/// The Figure 7 table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Figure7 {
    /// Per-benchmark rows.
    pub rows: Vec<Figure7Row>,
}

/// Runs the baseline and the three naive-sharing configurations.
pub fn compute(engine: &SweepEngine, benchmarks: &[Benchmark]) -> Figure7 {
    let (designs, cells) = super::run_figure_grid(engine, "fig07", benchmarks);
    let rows = cells
        .chunks(designs.len())
        .map(|cells| {
            let baseline = cells[0].result.cycles;
            let norm = |i: usize| cells[i].result.cycles as f64 / baseline as f64;
            Figure7Row {
                benchmark: cells[0].benchmark,
                baseline_cycles: baseline,
                cpc2: norm(1),
                cpc4: norm(2),
                cpc8: norm(3),
            }
        })
        .collect();
    Figure7 { rows }
}

impl Figure7 {
    /// The largest cpc = 8 slowdown across benchmarks (the paper reports up
    /// to 18 %, for UA).
    pub fn worst_cpc8_slowdown(&self) -> f64 {
        self.rows.iter().map(|r| r.cpc8).fold(0.0, f64::max) - 1.0
    }
}

impl std::fmt::Display for Figure7 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Figure 7: naive sharing — normalized execution time (32KB shared, 4 line buffers, single bus)"
        )?;
        let mut t = TextTable::new(vec!["benchmark", "cpc=2", "cpc=4", "cpc=8"]);
        for r in &self.rows {
            t.row(vec![
                r.benchmark.name().to_string(),
                format!("{:.3}", r.cpc2),
                format!("{:.3}", r.cpc4),
                format!("{:.3}", r.cpc8),
            ]);
        }
        write!(f, "{t}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::test_support::tiny_engine;

    #[test]
    fn sharing_degree_monotonically_costs_performance_or_is_neutral() {
        let engine = tiny_engine();
        let fig = compute(&engine, &[Benchmark::Cg, Benchmark::Lu]);
        for r in &fig.rows {
            assert!(r.baseline_cycles > 0);
            // Small tolerance: sharing can be neutral or mildly beneficial.
            assert!(
                r.cpc2 > 0.9 && r.cpc2 < 1.3,
                "{}: cpc2={}",
                r.benchmark,
                r.cpc2
            );
            assert!(
                r.cpc8 >= r.cpc2 - 0.05,
                "{}: deeper sharing should not be faster",
                r.benchmark
            );
        }
        assert!(fig.worst_cpc8_slowdown() < 0.5);
        assert!(fig.to_string().contains("cpc=8"));
    }
}
