//! Figure 12: execution time, energy and area of the cpc = 8 / 16 KB design
//! points (4 or 8 line buffers × single or double bus), averaged across the
//! benchmarks and normalized to the private-I-cache baseline.

use crate::report::{arithmetic_mean, TextTable};
use crate::DesignPoint;
use acmp_sweep::SweepEngine;
use hpc_workloads::Benchmark;
use power_model::ClusterActivity;
use serde::{Deserialize, Serialize};
use sim_acmp::{BusWidth, SimResult};

/// One design point's normalized execution time, energy and area.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Figure12Row {
    /// Design-point label.
    pub design: String,
    /// Mean execution time normalized to the baseline.
    pub execution_time: f64,
    /// Mean energy normalized to the baseline.
    pub energy: f64,
    /// Cluster area normalized to the baseline.
    pub area: f64,
}

/// The Figure 12 table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Figure12 {
    /// One row per design point (baseline first).
    pub rows: Vec<Figure12Row>,
}

fn activity(result: &SimResult) -> ClusterActivity {
    let lb: u64 = result
        .cores
        .iter()
        .skip(1)
        .map(|c| c.line_buffers.line_requests)
        .sum();
    ClusterActivity {
        cycles: result.cycles,
        instructions: result.worker_instructions(),
        icache_accesses: result.worker_icache.accesses,
        line_buffer_accesses: lb,
        bus_transactions: result.bus.transactions,
    }
}

/// Runs every benchmark on the baseline and the four cpc = 8 design points
/// and averages the normalized metrics.
pub fn compute(engine: &SweepEngine, benchmarks: &[Benchmark]) -> Figure12 {
    let designs = [
        DesignPoint::baseline(),
        DesignPoint::shared(16, 4, BusWidth::Single).expect("figure design is valid"),
        DesignPoint::shared(16, 4, BusWidth::Double).expect("figure design is valid"),
        DesignPoint::shared(16, 8, BusWidth::Single).expect("figure design is valid"),
        DesignPoint::shared(16, 8, BusWidth::Double).expect("figure design is valid"),
    ];
    // One engine-level fan-out over the whole 5-design grid; the per-design
    // loop below then reads the warm cache.
    engine.run_grid(benchmarks, &designs);

    let num_workers = engine.simulated_workers();
    let baseline_design = designs[0].cluster_design(num_workers);
    let baseline_area = baseline_design.area().total_mm2();

    let mut rows = Vec::new();
    for design in &designs {
        let cluster = design.cluster_design(num_workers);
        let outcome = engine.run_grid(benchmarks, std::slice::from_ref(design));

        let mut time_ratios = Vec::new();
        let mut energy_ratios = Vec::new();
        for row in &outcome.rows {
            let baseline = engine.simulate(row.benchmark, &designs[0]);
            let base_energy = baseline_design.energy(&activity(&baseline)).total_mj();
            let energy = cluster.energy(&activity(&row.result)).total_mj();
            time_ratios.push(row.result.cycles as f64 / baseline.cycles as f64);
            energy_ratios.push(energy / base_energy);
        }

        rows.push(Figure12Row {
            design: design.name.clone(),
            execution_time: arithmetic_mean(&time_ratios),
            energy: arithmetic_mean(&energy_ratios),
            area: cluster.area().total_mm2() / baseline_area,
        });
    }
    Figure12 { rows }
}

impl Figure12 {
    /// The paper's preferred design point (16 KB, 4 line buffers, double
    /// bus).
    pub fn proposed(&self) -> Option<&Figure12Row> {
        self.rows
            .iter()
            .find(|r| r.design == DesignPoint::proposed().name)
    }
}

impl std::fmt::Display for Figure12 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Figure 12: execution time, energy and area (cpc=8, 16KB shared), normalized to baseline"
        )?;
        let mut t = TextTable::new(vec!["design", "exec time", "energy", "area"]);
        for r in &self.rows {
            t.row(vec![
                r.design.clone(),
                format!("{:.3}", r.execution_time),
                format!("{:.3}", r.energy),
                format!("{:.3}", r.area),
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
    fn proposed_design_saves_area_without_large_slowdown() {
        let engine = tiny_engine();
        let fig = compute(&engine, &[Benchmark::Cg, Benchmark::Lu]);
        assert_eq!(fig.rows.len(), 5);
        let baseline = &fig.rows[0];
        assert!((baseline.execution_time - 1.0).abs() < 1e-9);
        assert!((baseline.area - 1.0).abs() < 1e-9);
        let proposed = fig.proposed().expect("proposed design present");
        assert!(
            proposed.area < 0.95,
            "sharing the I-cache must save cluster area, got {:.3}",
            proposed.area
        );
        assert!(
            proposed.execution_time < 1.1,
            "the double-bus design should be close to baseline performance"
        );
        assert!(fig.to_string().contains("exec time"));
    }
}
