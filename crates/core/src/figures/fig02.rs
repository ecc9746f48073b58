//! Figure 2: average dynamic basic-block length (bytes) in serial and
//! parallel code, per benchmark, plus the arithmetic mean.

use crate::report::{arithmetic_mean, TextTable};
use acmp_sweep::SweepEngine;
use hpc_workloads::Benchmark;
use serde::{Deserialize, Serialize};
use sim_trace::TraceStats;

/// One benchmark's basic-block lengths.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Figure2Row {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// Average dynamic basic-block length in serial code, in bytes.
    pub serial_bytes: f64,
    /// Average dynamic basic-block length in parallel code, in bytes.
    pub parallel_bytes: f64,
}

/// The Figure 2 table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Figure2 {
    /// Per-benchmark rows, in the paper's order.
    pub rows: Vec<Figure2Row>,
}

/// Computes the figure by characterising the master thread's trace of each
/// benchmark, exactly as the paper instruments only the master thread.
pub fn compute(engine: &SweepEngine, benchmarks: &[Benchmark]) -> Figure2 {
    let rows = engine
        .run_per_benchmark(benchmarks, |b| {
            let traces = engine.traces(b);
            let stats = TraceStats::from_trace(traces.master());
            Figure2Row {
                benchmark: b,
                serial_bytes: stats.serial.avg_basic_block_bytes(),
                parallel_bytes: stats.parallel.avg_basic_block_bytes(),
            }
        })
        .into_iter()
        .map(|(_, row)| row)
        .collect();
    Figure2 { rows }
}

impl Figure2 {
    /// Arithmetic mean of the serial basic-block lengths.
    pub fn mean_serial(&self) -> f64 {
        arithmetic_mean(&self.rows.iter().map(|r| r.serial_bytes).collect::<Vec<_>>())
    }

    /// Arithmetic mean of the parallel basic-block lengths.
    pub fn mean_parallel(&self) -> f64 {
        arithmetic_mean(
            &self
                .rows
                .iter()
                .map(|r| r.parallel_bytes)
                .collect::<Vec<_>>(),
        )
    }
}

impl std::fmt::Display for Figure2 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Figure 2: average dynamic basic block length [bytes]")?;
        let mut t = TextTable::new(vec!["benchmark", "serial", "parallel"]);
        for r in &self.rows {
            t.row(vec![
                r.benchmark.name().to_string(),
                format!("{:.0}", r.serial_bytes),
                format!("{:.0}", r.parallel_bytes),
            ]);
        }
        t.row(vec![
            "amean".to_string(),
            format!("{:.0}", self.mean_serial()),
            format!("{:.0}", self.mean_parallel()),
        ]);
        write!(f, "{t}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::test_support::{tiny_benchmarks, tiny_engine};

    #[test]
    fn parallel_blocks_are_longer_except_for_the_known_exceptions() {
        let engine = tiny_engine();
        let fig = compute(&engine, &tiny_benchmarks());
        assert_eq!(fig.rows.len(), 3);
        for r in &fig.rows {
            match r.benchmark {
                Benchmark::CoEvp | Benchmark::Nab => {
                    assert!(r.serial_bytes > r.parallel_bytes, "{}", r.benchmark)
                }
                _ => assert!(r.parallel_bytes > r.serial_bytes, "{}", r.benchmark),
            }
        }
        assert!(fig.mean_parallel() > 0.0);
        assert!(fig.to_string().contains("amean"));
    }
}
