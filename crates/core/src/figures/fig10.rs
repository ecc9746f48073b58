//! Figure 10: more line buffers vs more bandwidth when a single 16 KB
//! I-cache is shared by all eight workers (cpc = 8), normalized to the
//! private-32 KB baseline.

use crate::report::TextTable;
use acmp_sweep::SweepEngine;
use hpc_workloads::Benchmark;
use serde::{Deserialize, Serialize};

/// One benchmark's normalized execution times for the three cpc = 8 design
/// alternatives.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Figure10Row {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// Naive sharing: 4 line buffers, single bus.
    pub naive_4lb_single: f64,
    /// More line buffers: 8 line buffers, single bus.
    pub more_buffers_8lb_single: f64,
    /// More bandwidth: 4 line buffers, double bus.
    pub more_bandwidth_4lb_double: f64,
}

/// The Figure 10 table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Figure10 {
    /// Per-benchmark rows.
    pub rows: Vec<Figure10Row>,
}

/// Runs the three cpc = 8 / 16 KB design alternatives against the baseline.
pub fn compute(engine: &SweepEngine, benchmarks: &[Benchmark]) -> Figure10 {
    let (designs, cells) = super::run_figure_grid(engine, "fig10", benchmarks);
    let rows = cells
        .chunks(designs.len())
        .map(|cells| {
            let baseline = cells[0].result.cycles;
            let norm = |i: usize| cells[i].result.cycles as f64 / baseline as f64;
            Figure10Row {
                benchmark: cells[0].benchmark,
                naive_4lb_single: norm(1),
                more_buffers_8lb_single: norm(2),
                more_bandwidth_4lb_double: norm(3),
            }
        })
        .collect();
    Figure10 { rows }
}

impl Figure10 {
    /// Mean normalized execution time of the double-bus design (the paper's
    /// headline: no performance loss).
    pub fn mean_double_bus(&self) -> f64 {
        crate::report::arithmetic_mean(
            &self
                .rows
                .iter()
                .map(|r| r.more_bandwidth_4lb_double)
                .collect::<Vec<_>>(),
        )
    }
}

impl std::fmt::Display for Figure10 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Figure 10: line buffers vs bandwidth (cpc=8, 16KB shared), normalized execution time"
        )?;
        let mut t = TextTable::new(vec![
            "benchmark",
            "4lb/single (naive)",
            "8lb/single (buffers)",
            "4lb/double (bandwidth)",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.benchmark.name().to_string(),
                format!("{:.3}", r.naive_4lb_single),
                format!("{:.3}", r.more_buffers_8lb_single),
                format!("{:.3}", r.more_bandwidth_4lb_double),
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
    fn both_remedies_help_or_are_neutral_relative_to_naive_sharing() {
        let engine = tiny_engine();
        let fig = compute(&engine, &[Benchmark::Lu, Benchmark::Ua]);
        for r in &fig.rows {
            assert!(
                r.more_bandwidth_4lb_double <= r.naive_4lb_single + 0.02,
                "{}: doubling the bandwidth should not be slower than naive sharing",
                r.benchmark
            );
            assert!(
                r.more_buffers_8lb_single <= r.naive_4lb_single + 0.02,
                "{}: more line buffers should not be slower than naive sharing",
                r.benchmark
            );
        }
        assert!(fig.mean_double_bus() > 0.8);
        assert!(fig.to_string().contains("bandwidth"));
    }
}
