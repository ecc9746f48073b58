//! Quickstart: simulate one HPC benchmark on the baseline ACMP and on the
//! paper's proposed shared-I-cache design, and compare them.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use acmp_sweep::SweepEngine;
use hpc_workloads::{Benchmark, GeneratorConfig};
use shared_icache::DesignPoint;

fn main() {
    // A reduced scale so the example finishes in a few seconds; use
    // `GeneratorConfig::paper()` for the full eight-worker configuration.
    let generator = GeneratorConfig {
        num_workers: 8,
        parallel_instructions_per_thread: 40_000,
        num_phases: 2,
        seed: 1,
    };
    let engine = SweepEngine::builder(generator)
        .build()
        .expect("an engine without a store always builds");
    let benchmark = Benchmark::Lu;

    println!("benchmark: {benchmark} ({})", benchmark.suite());
    println!(
        "profile: {:.1}% serial code, {}-byte parallel basic blocks",
        benchmark.profile().serial_fraction * 100.0,
        benchmark.profile().parallel_bb_bytes
    );
    println!();

    // Prefetch both design points in one engine sweep (two jobs in
    // parallel); the `simulate` calls below are then cache hits.
    engine.run_grid(
        &[benchmark],
        &[DesignPoint::baseline(), DesignPoint::proposed()],
    );
    let baseline = engine.simulate(benchmark, &DesignPoint::baseline());
    let proposed = engine.simulate(benchmark, &DesignPoint::proposed());

    println!(
        "                         baseline (private 32KB)   proposed (16KB shared, double bus)"
    );
    println!(
        "cycles                   {:>24}   {:>24}",
        baseline.cycles, proposed.cycles
    );
    println!(
        "instructions             {:>24}   {:>24}",
        baseline.instructions, proposed.instructions
    );
    println!(
        "machine IPC              {:>24.3}   {:>24.3}",
        baseline.machine_ipc(),
        proposed.machine_ipc()
    );
    println!(
        "worker I-cache MPKI      {:>24.3}   {:>24.3}",
        baseline.worker_icache_mpki(),
        proposed.worker_icache_mpki()
    );
    println!(
        "worker access ratio      {:>23.1}%   {:>23.1}%",
        baseline.worker_access_ratio() * 100.0,
        proposed.worker_access_ratio() * 100.0
    );
    println!(
        "I-bus transactions       {:>24}   {:>24}",
        baseline.bus.transactions, proposed.bus.transactions
    );

    let slowdown = proposed.cycles as f64 / baseline.cycles as f64;
    println!();
    println!("normalized execution time of the proposed design: {slowdown:.3} (1.000 = baseline)");

    // Area of the worker cluster, from the McPAT/CACTI-style model.
    let base_area = DesignPoint::baseline().cluster_design(8).area().total_mm2();
    let prop_area = DesignPoint::proposed().cluster_design(8).area().total_mm2();
    println!(
        "worker-cluster area: {:.2} mm2 -> {:.2} mm2 ({:.1}% savings)",
        base_area,
        prop_area,
        (1.0 - prop_area / base_area) * 100.0
    );
}
