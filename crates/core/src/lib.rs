//! Shared L1 instruction cache among lean cores on an asymmetric CMP.
//!
//! This is the top-level library of the reproduction of Milic et al.,
//! *"Sharing the Instruction Cache Among Lean Cores on an Asymmetric CMP for
//! HPC Applications"* (ISPASS 2017).  It ties the lower-level crates
//! together:
//!
//! * [`hpc_workloads`] — the 24 calibrated benchmark profiles and the
//!   synthetic trace generator,
//! * [`sim_acmp`] — the cycle-level ACMP simulator (cores, shared I-caches,
//!   buses, runtime),
//! * [`power_model`] — the McPAT/CACTI-style area and energy model,
//! * [`acmp_analytic`] — the Hill-Marty model behind Figure 1,
//! * [`acmp_sweep`] — the machine configurations evaluated in the paper
//!   ([`DesignPoint`](acmp_sweep::DesignPoint): baseline, naive sharing,
//!   more line buffers, more bandwidth, the proposed 16 KB double-bus
//!   design, all-shared) and the parallel design-space exploration engine
//!   (work-stealing scheduler, sharded result cache, persistent
//!   content-addressed store, the `sweep` CLI).
//!
//! Callers import those crates directly.  This crate adds the figure layer
//! used by the examples, the integration tests and the `figures` binary:
//!
//! * [`figures`] — one module per table/figure of the paper, each computing
//!   the same rows/series the paper reports from a
//!   [`SweepEngine`](acmp_sweep::SweepEngine): traces once per benchmark,
//!   grid runs fanned out over the work-stealing pool, results cached by
//!   content hash.
//!
//! # Quick start
//!
//! ```
//! use acmp_sweep::{DesignPoint, SweepEngine};
//! use hpc_workloads::{Benchmark, GeneratorConfig};
//!
//! // A reduced-scale engine so the example runs quickly.
//! let engine = SweepEngine::builder(GeneratorConfig::small())
//!     .build()
//!     .expect("an engine without a store always builds");
//! let baseline = engine.simulate(Benchmark::Cg, &DesignPoint::baseline());
//! let proposed = engine.simulate(Benchmark::Cg, &DesignPoint::proposed());
//! let slowdown = proposed.cycles as f64 / baseline.cycles as f64;
//! assert!(slowdown < 1.2);
//! ```

pub mod figures;
pub mod report;

pub use report::{arithmetic_mean, geometric_mean, TextTable};

#[cfg(test)]
mod crate_tests {
    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<acmp_sweep::DesignPoint>();
    }
}
