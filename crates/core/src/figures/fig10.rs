//! Figure 10: more line buffers vs more bandwidth when a single 16 KB
//! I-cache is shared by all eight workers (cpc = 8), normalized to the
//! private-32 KB baseline.

use crate::report::TextTable;
use crate::DesignPoint;
use acmp_sweep::SweepEngine;
use hpc_workloads::Benchmark;
use serde::{Deserialize, Serialize};
use sim_acmp::BusWidth;

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
    let designs = [
        DesignPoint::baseline(),
        DesignPoint::shared(16, 4, BusWidth::Single).expect("figure design is valid"),
        DesignPoint::shared(16, 8, BusWidth::Single).expect("figure design is valid"),
        DesignPoint::shared(16, 4, BusWidth::Double).expect("figure design is valid"),
    ];
    engine.run_grid(benchmarks, &designs);
    let rows = benchmarks
        .iter()
        .map(|&b| {
            let baseline = engine.simulate(b, &DesignPoint::baseline());
            let norm = |design: &DesignPoint| {
                engine.simulate(b, design).cycles as f64 / baseline.cycles as f64
            };
            Figure10Row {
                benchmark: b,
                naive_4lb_single: norm(
                    &DesignPoint::shared(16, 4, BusWidth::Single).expect("figure design is valid"),
                ),
                more_buffers_8lb_single: norm(
                    &DesignPoint::shared(16, 8, BusWidth::Single).expect("figure design is valid"),
                ),
                more_bandwidth_4lb_double: norm(
                    &DesignPoint::shared(16, 4, BusWidth::Double).expect("figure design is valid"),
                ),
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
