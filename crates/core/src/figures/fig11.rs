//! Figure 11: worker I-cache MPKI when a single I-cache (32 KB or 16 KB) is
//! shared by all eight lean cores, expressed as a percentage of the
//! private-32 KB baseline MPKI; the absolute baseline MPKI is reported next
//! to each benchmark (the labels above the paper's bars).

use crate::report::TextTable;
use crate::DesignPoint;
use acmp_sweep::SweepEngine;
use hpc_workloads::Benchmark;
use serde::{Deserialize, Serialize};
use sim_acmp::BusWidth;

/// One benchmark's miss-analysis row.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Figure11Row {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// Absolute worker MPKI with private 32 KB I-caches (the labels above
    /// the bars in the paper).
    pub private_mpki: f64,
    /// Shared 32 KB MPKI as a percentage of the private MPKI.
    pub shared_32k_percent: f64,
    /// Shared 16 KB MPKI as a percentage of the private MPKI.
    pub shared_16k_percent: f64,
}

/// The Figure 11 table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Figure11 {
    /// Per-benchmark rows.
    pub rows: Vec<Figure11Row>,
}

/// Runs the baseline and the two shared-capacity configurations (cpc = 8,
/// double bus so bandwidth does not perturb the miss behaviour).
pub fn compute(engine: &SweepEngine, benchmarks: &[Benchmark]) -> Figure11 {
    let designs = [
        DesignPoint::baseline(),
        DesignPoint::shared(32, 4, BusWidth::Double).expect("figure design is valid"),
        DesignPoint::shared(16, 4, BusWidth::Double).expect("figure design is valid"),
    ];
    engine.run_grid(benchmarks, &designs);
    let rows = benchmarks
        .iter()
        .map(|&b| {
            let private = engine.simulate(b, &DesignPoint::baseline());
            let shared32 = engine.simulate(
                b,
                &DesignPoint::shared(32, 4, BusWidth::Double).expect("figure design is valid"),
            );
            let shared16 = engine.simulate(
                b,
                &DesignPoint::shared(16, 4, BusWidth::Double).expect("figure design is valid"),
            );
            let base = private.worker_icache_mpki();
            let percent = |mpki: f64| {
                if base <= 0.0 {
                    // The paper's bars are also near-meaningless when the
                    // baseline MPKI is 0.00; report 100% (no change).
                    100.0
                } else {
                    mpki / base * 100.0
                }
            };
            Figure11Row {
                benchmark: b,
                private_mpki: base,
                shared_32k_percent: percent(shared32.worker_icache_mpki()),
                shared_16k_percent: percent(shared16.worker_icache_mpki()),
            }
        })
        .collect();
    Figure11 { rows }
}

impl Figure11 {
    /// Mean reduction of the shared 32 KB configuration relative to private
    /// caches, over the benchmarks whose baseline MPKI is non-zero
    /// (the paper reports ≈ 50 % on average).
    pub fn mean_reduction_32k(&self) -> f64 {
        let meaningful: Vec<f64> = self
            .rows
            .iter()
            .filter(|r| r.private_mpki > 0.0)
            .map(|r| 1.0 - r.shared_32k_percent / 100.0)
            .collect();
        crate::report::arithmetic_mean(&meaningful)
    }
}

impl std::fmt::Display for Figure11 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Figure 11: shared-I-cache MPKI relative to private 32KB caches (cpc=8)"
        )?;
        let mut t = TextTable::new(vec![
            "benchmark",
            "private MPKI",
            "shared 32K [%]",
            "shared 16K [%]",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.benchmark.name().to_string(),
                format!("{:.2}", r.private_mpki),
                format!("{:.1}", r.shared_32k_percent),
                format!("{:.1}", r.shared_16k_percent),
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
    fn sharing_reduces_the_mpki_of_the_miss_heavy_benchmark() {
        let engine = tiny_engine();
        let fig = compute(&engine, &[Benchmark::CoEvp, Benchmark::Cg]);
        let coevp = fig
            .rows
            .iter()
            .find(|r| r.benchmark == Benchmark::CoEvp)
            .unwrap();
        assert!(
            coevp.private_mpki > 0.1,
            "CoEVP has a visible baseline MPKI"
        );
        assert!(
            coevp.shared_32k_percent < 100.0,
            "sharing must reduce CoEVP's MPKI, got {:.1}%",
            coevp.shared_32k_percent
        );
        assert!(
            coevp.shared_16k_percent <= 110.0,
            "even a 16KB shared cache should be close to (or below) the private MPKI"
        );
        assert!(fig.to_string().contains("private MPKI"));
    }
}
