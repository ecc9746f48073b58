//! Should the master core share the I-cache too?  Reproduces the Section
//! VI-E analysis (Figure 13): the all-shared configuration is compared to
//! the worker-shared one as the serial-code fraction grows.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example all_shared
//! ```

use acmp_sweep::SweepEngine;
use hpc_workloads::{Benchmark, GeneratorConfig};
use shared_icache::figures::fig13;

fn main() {
    let engine = SweepEngine::builder(GeneratorConfig {
        num_workers: 8,
        parallel_instructions_per_thread: 30_000,
        num_phases: 2,
        seed: 4,
    })
    .build()
    .expect("an engine without a store always builds");

    // A spread of serial-code fractions: from almost fully parallel (LU,
    // ilbdc) to the most serial workloads (nab, CoMD).
    let benchmarks = [
        Benchmark::Lu,
        Benchmark::Ilbdc,
        Benchmark::Ft,
        Benchmark::Ua,
        Benchmark::Is,
        Benchmark::CoEvp,
        Benchmark::Lulesh,
        Benchmark::Nab,
        Benchmark::CoMd,
    ];

    let fig = fig13::compute(&engine, &benchmarks);
    println!("{fig}");

    // Sort by serial fraction to make the trend readable.
    let mut rows = fig.rows.clone();
    rows.sort_by(|a, b| a.serial_percent.total_cmp(&b.serial_percent));
    println!("Trend (sorted by serial fraction):");
    for r in &rows {
        let bar_len = ((r.ratio_double_bus - 1.0).max(0.0) * 400.0) as usize;
        println!(
            "  {:>8}  {:>5.1}% serial  ratio {:.3}  {}",
            r.benchmark.name(),
            r.serial_percent,
            r.ratio_double_bus,
            "#".repeat(bar_len.min(60))
        );
    }

    println!();
    println!(
        "Conclusion (as in the paper): sharing the I-cache with the master core degrades \
         performance as the serial fraction grows, so the master keeps its private I-cache."
    );

    let stats = engine.stats();
    println!(
        "[engine] {} simulations across {} threads, {} memory hits",
        stats.simulated,
        engine.threads(),
        stats.memory_hits
    );
}
