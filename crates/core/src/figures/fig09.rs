//! Figure 9: I-cache access ratio (lines fetched from the I-cache divided by
//! the total number of line fetch requests) for 2, 4 and 8 line buffers.

use crate::report::TextTable;
use acmp_sweep::SweepEngine;
use hpc_workloads::Benchmark;
use serde::{Deserialize, Serialize};

/// One benchmark's access ratios.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Figure9Row {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// Access ratio (in percent) with two line buffers.
    pub lb2_percent: f64,
    /// Access ratio (in percent) with four line buffers.
    pub lb4_percent: f64,
    /// Access ratio (in percent) with eight line buffers.
    pub lb8_percent: f64,
}

/// The Figure 9 table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Figure9 {
    /// Per-benchmark rows.
    pub rows: Vec<Figure9Row>,
}

/// Measures the worker cores' access ratio on the baseline machine with 2,
/// 4 and 8 line buffers.
pub fn compute(engine: &SweepEngine, benchmarks: &[Benchmark]) -> Figure9 {
    let (designs, cells) = super::run_figure_grid(engine, "fig09", benchmarks);
    let rows = cells
        .chunks(designs.len())
        .map(|cells| {
            let ratio = |i: usize| cells[i].result.worker_access_ratio() * 100.0;
            Figure9Row {
                benchmark: cells[0].benchmark,
                lb2_percent: ratio(0),
                lb4_percent: ratio(1),
                lb8_percent: ratio(2),
            }
        })
        .collect();
    Figure9 { rows }
}

impl std::fmt::Display for Figure9 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Figure 9: I-cache access ratio [%] vs number of line buffers"
        )?;
        let mut t = TextTable::new(vec!["benchmark", "2 buffers", "4 buffers", "8 buffers"]);
        for r in &self.rows {
            t.row(vec![
                r.benchmark.name().to_string(),
                format!("{:.1}", r.lb2_percent),
                format!("{:.1}", r.lb4_percent),
                format!("{:.1}", r.lb8_percent),
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
    fn more_line_buffers_never_increase_the_access_ratio() {
        let engine = tiny_engine();
        let fig = compute(&engine, &[Benchmark::Cg, Benchmark::Lu, Benchmark::Ua]);
        for r in &fig.rows {
            assert!(
                r.lb8_percent <= r.lb4_percent + 2.0 && r.lb4_percent <= r.lb2_percent + 2.0,
                "{}: access ratio should not grow with more buffers ({:.1} / {:.1} / {:.1})",
                r.benchmark,
                r.lb2_percent,
                r.lb4_percent,
                r.lb8_percent
            );
            assert!(r.lb2_percent <= 100.0 && r.lb8_percent >= 0.0);
        }
        // CG's tiny kernel fits in the buffers; LU's streaming body does not.
        let cg = fig
            .rows
            .iter()
            .find(|r| r.benchmark == Benchmark::Cg)
            .unwrap();
        let lu = fig
            .rows
            .iter()
            .find(|r| r.benchmark == Benchmark::Lu)
            .unwrap();
        assert!(
            cg.lb4_percent < lu.lb4_percent,
            "short-basic-block benchmarks have lower access ratios (CG {:.1}% vs LU {:.1}%)",
            cg.lb4_percent,
            lu.lb4_percent
        );
    }
}
