//! Figure 13: sharing a single I-cache among **all** cores (master included)
//! versus sharing only among the workers, as a function of the serial code
//! fraction.

use crate::report::TextTable;
use crate::DesignPoint;
use acmp_sweep::SweepEngine;
use hpc_workloads::Benchmark;
use serde::{Deserialize, Serialize};

/// The outlier groups discussed in Section VI-E.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Figure13Group {
    /// Default behaviour: the ratio grows with the serial fraction
    /// (~1 % slowdown per 5 % of serial code).
    Default,
    /// High code locality in serial code hides the shared-cache latency
    /// (CoMD with four line buffers).
    SerialLocality,
    /// Long serial basic blocks make the master behave like a worker
    /// (nab, CoEVP).
    LongSerialBlocks,
    /// Scalability limit: adding the master to a single bus congests it
    /// (EP, FT, UA with a single bus).
    ScalabilityLimit,
}

/// One benchmark's all-shared vs worker-shared comparison.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Figure13Row {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// Serial-code fraction of the master thread, in percent (x-axis).
    pub serial_percent: f64,
    /// Execution time of the all-shared configuration normalized to the
    /// worker-shared configuration (y-axis), both with a double bus.
    pub ratio_double_bus: f64,
    /// The same ratio when the all-shared configuration only has a single
    /// bus (exposes the Group 3 scalability limit).
    pub ratio_single_bus: f64,
    /// The outlier group the benchmark belongs to.
    pub group: Figure13Group,
}

/// The Figure 13 table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Figure13 {
    /// Per-benchmark rows.
    pub rows: Vec<Figure13Row>,
}

/// Classifies a benchmark into the paper's outlier groups.
pub fn group_of(benchmark: Benchmark) -> Figure13Group {
    match benchmark {
        Benchmark::CoMd => Figure13Group::SerialLocality,
        Benchmark::Nab | Benchmark::CoEvp => Figure13Group::LongSerialBlocks,
        Benchmark::Ep | Benchmark::Ft | Benchmark::Ua => Figure13Group::ScalabilityLimit,
        _ => Figure13Group::Default,
    }
}

/// Runs the worker-shared and all-shared configurations (32 KB shared cache
/// so capacity does not confound the master's join).
pub fn compute(engine: &SweepEngine, benchmarks: &[Benchmark]) -> Figure13 {
    let designs = [
        DesignPoint::worker_shared_32k_double(),
        DesignPoint::all_shared(),
        DesignPoint::all_shared_single_bus(),
    ];
    engine.run_grid(benchmarks, &designs);
    let rows = benchmarks
        .iter()
        .map(|&b| {
            let worker_shared = engine.simulate(b, &DesignPoint::worker_shared_32k_double());
            let all_shared = engine.simulate(b, &DesignPoint::all_shared());
            let all_shared_single = engine.simulate(b, &DesignPoint::all_shared_single_bus());
            Figure13Row {
                benchmark: b,
                serial_percent: b.profile().serial_fraction * 100.0,
                ratio_double_bus: all_shared.cycles as f64 / worker_shared.cycles as f64,
                ratio_single_bus: all_shared_single.cycles as f64 / worker_shared.cycles as f64,
                group: group_of(b),
            }
        })
        .collect();
    Figure13 { rows }
}

impl std::fmt::Display for Figure13 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Figure 13: all-shared vs worker-shared execution-time ratio vs serial code fraction"
        )?;
        let mut t = TextTable::new(vec![
            "benchmark",
            "serial %",
            "ratio (double bus)",
            "ratio (single bus)",
            "group",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.benchmark.name().to_string(),
                format!("{:.1}", r.serial_percent),
                format!("{:.3}", r.ratio_double_bus),
                format!("{:.3}", r.ratio_single_bus),
                format!("{:?}", r.group),
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
    fn all_shared_is_never_dramatically_faster_and_groups_are_stable() {
        let engine = tiny_engine();
        let fig = compute(&engine, &[Benchmark::CoMd, Benchmark::Lu]);
        for r in &fig.rows {
            assert!(
                r.ratio_double_bus > 0.95,
                "{}: sharing with the master cannot make things much faster",
                r.benchmark
            );
            assert!(r.ratio_single_bus >= r.ratio_double_bus - 0.05);
        }
        assert_eq!(group_of(Benchmark::CoMd), Figure13Group::SerialLocality);
        assert_eq!(group_of(Benchmark::Nab), Figure13Group::LongSerialBlocks);
        assert_eq!(group_of(Benchmark::Ua), Figure13Group::ScalabilityLimit);
        assert_eq!(group_of(Benchmark::Lu), Figure13Group::Default);
        assert!(fig.to_string().contains("serial %"));
    }
}
