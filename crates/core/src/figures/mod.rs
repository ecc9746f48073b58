//! One module per table/figure of the paper.
//!
//! Every module exposes a `compute` function that takes a
//! [`SweepEngine`] (and, where applicable, the list of benchmarks) and
//! returns a typed result table whose rows match the series the paper
//! plots.  [`FIGURES`] names each one and renders it, and the `figures`
//! binary prints them.
//!
//! Figs. 7–13 each sweep one fixed design list,
//! [`figure_designs`](acmp_sweep::grid::figure_designs), the same list the
//! `sweep` CLI's `figNN` preset names.  Their `compute` runs that list once
//! as a grid on an unsharded engine (a shard skips the cells it does not
//! own, and every caller builds an unsharded one).
//!
//! | Module | Paper artefact |
//! |---|---|
//! | [`fig01`] | Fig. 1 — Hill-Marty speedup vs serial fraction |
//! | [`fig02`] | Fig. 2 — average dynamic basic-block length |
//! | [`fig03`] | Fig. 3 — I-cache MPKI, serial vs parallel code |
//! | [`fig04`] | Fig. 4 — instruction sharing across threads |
//! | [`table01`] | Table I — simulated ACMP configuration |
//! | [`fig07`] | Fig. 7 — naive sharing, normalized execution time |
//! | [`fig08`] | Fig. 8 — normalized CPI stacks at cpc = 8 |
//! | [`fig09`] | Fig. 9 — I-cache access ratio vs line buffers |
//! | [`fig10`] | Fig. 10 — more line buffers vs more bandwidth |
//! | [`fig11`] | Fig. 11 — shared-I-cache MPKI relative to private |
//! | [`fig12`] | Fig. 12 — execution time, energy and area |
//! | [`fig13`] | Fig. 13 — all-shared vs worker-shared vs serial fraction |

use acmp_sweep::{DesignPoint, SweepEngine, SweepRow};
use hpc_workloads::Benchmark;

pub mod fig01;
pub mod fig02;
pub mod fig03;
pub mod fig04;
pub mod fig07;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod table01;

/// Renders one figure's table with an engine over a benchmark list.
pub type Render = fn(&SweepEngine, &[Benchmark]) -> String;

/// Every table and figure of the paper's evaluation, in print order: its
/// id (as the `figures` binary takes it) and how to render it.
pub const FIGURES: [(&str, Render); 12] = [
    ("fig01", |_, _| fig01::compute(31).to_string()),
    ("fig02", |e, b| fig02::compute(e, b).to_string()),
    ("fig03", |e, b| fig03::compute(e, b).to_string()),
    ("fig04", |e, b| fig04::compute(e, b).to_string()),
    ("table01", |_, _| table01::compute().to_string()),
    ("fig07", |e, b| fig07::compute(e, b).to_string()),
    ("fig08", |e, b| fig08::compute(e, b).to_string()),
    ("fig09", |e, b| fig09::compute(e, b).to_string()),
    ("fig10", |e, b| fig10::compute(e, b).to_string()),
    ("fig11", |e, b| fig11::compute(e, b).to_string()),
    ("fig12", |e, b| fig12::compute(e, b).to_string()),
    ("fig13", |e, b| fig13::compute(e, b).to_string()),
];

/// Runs figure `id`'s design list over `benchmarks` as one grid.  Returns
/// the designs and the grid's rows, which are benchmark-major:
/// `rows.chunks(designs.len())` holds each benchmark's cells in design
/// order.
///
/// # Panics
///
/// Panics if `id` has no design list, or if `engine` is sharded and so
/// skipped cells.
fn run_figure_grid(
    engine: &SweepEngine,
    id: &str,
    benchmarks: &[Benchmark],
) -> (Vec<DesignPoint>, Vec<SweepRow>) {
    let designs =
        acmp_sweep::grid::figure_designs(id).unwrap_or_else(|| panic!("`{id}` has no design list"));
    let rows = engine.run_grid(benchmarks, &designs).rows;
    assert_eq!(
        rows.len(),
        benchmarks.len() * designs.len(),
        "figures need an unsharded engine"
    );
    (designs, rows)
}

#[cfg(test)]
pub(crate) mod test_support {
    use acmp_sweep::SweepEngine;
    use hpc_workloads::{Benchmark, GeneratorConfig};

    /// A deliberately tiny engine so figure unit tests stay fast.
    pub fn tiny_engine() -> SweepEngine {
        SweepEngine::builder(GeneratorConfig {
            num_workers: 2,
            parallel_instructions_per_thread: 5_000,
            num_phases: 1,
            seed: 5,
        })
        .build()
        .expect("an engine without a store always builds")
    }

    /// A small but representative benchmark subset.
    pub fn tiny_benchmarks() -> Vec<Benchmark> {
        vec![Benchmark::Cg, Benchmark::Lu, Benchmark::CoEvp]
    }
}
