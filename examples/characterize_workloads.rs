//! Workload characterisation: reproduce the motivation section of the paper
//! (Figures 2, 3 and 4) for all 24 HPC benchmarks — basic-block lengths,
//! per-region I-cache MPKI and cross-thread instruction sharing.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example characterize_workloads
//! ```

use acmp_sweep::SweepEngine;
use hpc_workloads::{Benchmark, GeneratorConfig};
use shared_icache::{figures, TextTable};

fn main() {
    let engine = SweepEngine::builder(GeneratorConfig {
        num_workers: 8,
        parallel_instructions_per_thread: 40_000,
        num_phases: 2,
        seed: 3,
    })
    .build()
    .expect("an engine without a store always builds");
    let benchmarks = Benchmark::ALL;

    let fig2 = figures::fig02::compute(&engine, &benchmarks);
    let fig3 = figures::fig03::compute(&engine, &benchmarks);
    let fig4 = figures::fig04::compute(&engine, &benchmarks);

    let mut table = TextTable::new(vec![
        "benchmark",
        "suite",
        "BB serial [B]",
        "BB parallel [B]",
        "MPKI serial",
        "MPKI parallel",
        "dyn. sharing [%]",
    ]);
    for (i, b) in benchmarks.iter().enumerate() {
        table.row(vec![
            b.name().to_string(),
            b.suite().to_string(),
            format!("{:.0}", fig2.rows[i].serial_bytes),
            format!("{:.0}", fig2.rows[i].parallel_bytes),
            format!("{:.2}", fig3.rows[i].serial_mpki),
            format!("{:.2}", fig3.rows[i].parallel_mpki),
            format!("{:.1}", fig4.rows[i].dynamic_sharing_percent),
        ]);
    }

    println!("Workload characterisation (cf. paper Figures 2-4)\n");
    println!("{table}");
    println!(
        "mean parallel/serial basic-block ratio: {:.1}x  (paper: ~3x)",
        fig2.mean_parallel() / fig2.mean_serial()
    );
    println!(
        "mean dynamic instruction sharing: {:.1}%  (paper: ~99%)",
        fig4.mean_dynamic_sharing()
    );
    println!(
        "benchmarks with parallel MPKI above 1: {}",
        fig3.rows
            .iter()
            .filter(|r| r.parallel_mpki > 1.0)
            .map(|r| r.benchmark.name())
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!("\nThese three properties motivate sharing the I-cache among lean cores.");
    println!(
        "[engine] characterisation fanned out over {} threads",
        engine.threads()
    );
}
