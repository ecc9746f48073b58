//! One module per table/figure of the paper.
//!
//! Every module exposes a `compute` function that takes a
//! [`SweepEngine`](acmp_sweep::SweepEngine) (and, where applicable, the
//! list of benchmarks) and returns a typed result table whose rows match
//! the series the paper plots.  The harness binaries in `bench-harness`
//! print these tables; `EXPERIMENTS.md` records a reference run next to the
//! paper's reported values.
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
