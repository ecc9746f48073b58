//! Figure 8: normalized CPI stack of the worker cores at the highest
//! sharing degree (cpc = 8, 32 KB shared, four line buffers, single bus).
//!
//! Each benchmark's bar is normalized to the baseline (private I-caches)
//! execution time: the first component is the baseline CPI and the remaining
//! components are the extra stall cycles the shared configuration adds,
//! split into I-bus latency, I-bus congestion, I-cache latency, branch
//! misses and the rest.

use crate::report::TextTable;
use acmp_sweep::SweepEngine;
use hpc_workloads::Benchmark;
use serde::{Deserialize, Serialize};

/// One benchmark's normalized CPI stack.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Figure8Row {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// Baseline CPI component (1.0 would mean the shared design adds
    /// nothing).
    pub baseline_cpi: f64,
    /// Extra stall fraction waiting for granted bus transfers.
    pub ibus_latency: f64,
    /// Extra stall fraction waiting for the bus grant.
    pub ibus_congestion: f64,
    /// Extra stall fraction waiting for I-cache miss fills.
    pub icache_latency: f64,
    /// Extra stall fraction from branch mispredictions.
    pub branch_miss: f64,
    /// Remaining difference.
    pub rest: f64,
}

impl Figure8Row {
    /// Total normalized execution time of the shared configuration
    /// (the top of the stacked bar).
    pub fn total(&self) -> f64 {
        self.baseline_cpi
            + self.ibus_latency
            + self.ibus_congestion
            + self.icache_latency
            + self.branch_miss
            + self.rest
    }
}

/// The Figure 8 table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Figure8 {
    /// Per-benchmark rows.
    pub rows: Vec<Figure8Row>,
}

/// Runs the baseline and the cpc = 8 naive-sharing configuration and splits
/// the cycle difference by stall cause.
pub fn compute(engine: &SweepEngine, benchmarks: &[Benchmark]) -> Figure8 {
    let (designs, cells) = super::run_figure_grid(engine, "fig08", benchmarks);
    let rows = cells
        .chunks(designs.len())
        .map(|cells| {
            let (baseline, shared) = (&cells[0].result, &cells[1].result);
            let base_cycles = baseline.cycles as f64;

            let base_stack = baseline.worker_cpi_stack();
            let shared_stack = shared.worker_cpi_stack();
            let workers = (baseline.cores.len() - 1).max(1) as f64;

            // Extra stall cycles per worker, averaged, relative to the
            // baseline execution time.
            let delta = |s: u64, b: u64| (s as f64 - b as f64).max(0.0) / workers / base_cycles;
            let ibus_latency = delta(shared_stack.ibus_latency, base_stack.ibus_latency);
            let ibus_congestion = delta(shared_stack.ibus_congestion, base_stack.ibus_congestion);
            let icache_latency = delta(shared_stack.icache_latency, base_stack.icache_latency);
            let branch_miss = delta(shared_stack.branch_miss, base_stack.branch_miss);

            let total = shared.cycles as f64 / base_cycles;
            let rest =
                (total - 1.0 - ibus_latency - ibus_congestion - icache_latency - branch_miss)
                    .max(0.0);
            Figure8Row {
                benchmark: cells[0].benchmark,
                baseline_cpi: 1.0,
                ibus_latency,
                ibus_congestion,
                icache_latency,
                branch_miss,
                rest,
            }
        })
        .collect();
    Figure8 { rows }
}

impl std::fmt::Display for Figure8 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Figure 8: normalized CPI stack at cpc=8 (components relative to baseline execution time)"
        )?;
        let mut t = TextTable::new(vec![
            "benchmark",
            "baseline",
            "i-bus lat",
            "i-bus cong",
            "i$ lat",
            "branch",
            "rest",
            "total",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.benchmark.name().to_string(),
                format!("{:.3}", r.baseline_cpi),
                format!("{:.3}", r.ibus_latency),
                format!("{:.3}", r.ibus_congestion),
                format!("{:.3}", r.icache_latency),
                format!("{:.3}", r.branch_miss),
                format!("{:.3}", r.rest),
                format!("{:.3}", r.total()),
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
    fn stack_total_matches_normalized_execution_time() {
        let engine = tiny_engine();
        let fig = compute(&engine, &[Benchmark::Lu]);
        let row = &fig.rows[0];
        assert!(
            row.total() >= 1.0,
            "the shared design cannot beat its own baseline component"
        );
        assert!(row.baseline_cpi == 1.0);
        assert!(row.ibus_latency >= 0.0 && row.ibus_congestion >= 0.0);
        assert!(fig.to_string().contains("i-bus cong"));
    }
}
