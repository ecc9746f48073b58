//! Design-space exploration: sweep sharing degree, line buffers and bus
//! bandwidth for a handful of benchmarks and print the resulting
//! performance / area / energy trade-off, i.e. the decision the paper makes
//! in Section VI.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example design_space
//! ```

use acmp_sweep::SweepEngine;
use hpc_workloads::{Benchmark, GeneratorConfig};
use power_model::ClusterActivity;
use shared_icache::{arithmetic_mean, DesignPoint, TextTable};
use sim_acmp::{BusWidth, SimResult};

fn activity(result: &SimResult) -> ClusterActivity {
    ClusterActivity {
        cycles: result.cycles,
        instructions: result.worker_instructions(),
        icache_accesses: result.worker_icache.accesses,
        line_buffer_accesses: result
            .cores
            .iter()
            .skip(1)
            .map(|c| c.line_buffers.line_requests)
            .sum(),
        bus_transactions: result.bus.transactions,
    }
}

fn main() {
    let engine = SweepEngine::builder(GeneratorConfig {
        num_workers: 8,
        parallel_instructions_per_thread: 30_000,
        num_phases: 2,
        seed: 2,
    })
    .build()
    .expect("an engine without a store always builds");
    let benchmarks = [
        Benchmark::Cg,
        Benchmark::Lu,
        Benchmark::Ua,
        Benchmark::Lulesh,
    ];

    // The design points the paper walks through: naive sharing at increasing
    // degrees, then the two remedies, then the final proposal.
    let designs = vec![
        DesignPoint::baseline(),
        DesignPoint::naive_shared(2).expect("valid core count"),
        DesignPoint::naive_shared(4).expect("valid core count"),
        DesignPoint::naive_shared(8).expect("valid core count"),
        DesignPoint::shared(16, 8, BusWidth::Single).expect("valid design"),
        DesignPoint::shared(16, 4, BusWidth::Double).expect("valid design"),
        DesignPoint::shared(16, 8, BusWidth::Double).expect("valid design"),
    ];

    // One engine-level fan-out over the full 4 × 7 grid: every (benchmark,
    // design) cell is its own job on the work-stealing pool, so the sweep
    // scales with cores rather than with the benchmark count.
    let sweep_start = acmp_obs::Stopwatch::start();
    let outcome = engine.run_grid(&benchmarks, &designs);
    let sweep_secs = sweep_start.elapsed_secs();

    let baseline_design = DesignPoint::baseline();
    let base_area = baseline_design.cluster_design(8).area().total_mm2();

    let mut table = TextTable::new(vec![
        "design",
        "norm. time",
        "norm. energy",
        "norm. area",
        "bus util [%]",
    ]);

    for design in &designs {
        let results = engine.run_grid(&benchmarks, std::slice::from_ref(design));
        let cluster = design.cluster_design(8);

        let mut times = Vec::new();
        let mut energies = Vec::new();
        let mut utilisation = Vec::new();
        for row in &results.rows {
            let r = &row.result;
            let base = engine.simulate(row.benchmark, &baseline_design);
            times.push(r.cycles as f64 / base.cycles as f64);
            let e = cluster.energy(&activity(r)).total_mj();
            let e0 = baseline_design
                .cluster_design(8)
                .energy(&activity(&base))
                .total_mj();
            energies.push(e / e0);
            utilisation.push(r.bus.utilisation(r.cycles) * 100.0);
        }

        table.row(vec![
            design.name.clone(),
            format!("{:.3}", arithmetic_mean(&times)),
            format!("{:.3}", arithmetic_mean(&energies)),
            format!("{:.3}", cluster.area().total_mm2() / base_area),
            format!("{:.1}", arithmetic_mean(&utilisation)),
        ]);
    }

    println!(
        "Design-space exploration over {:?}",
        benchmarks.map(|b| b.name())
    );
    println!("(all values normalized to the private-32KB baseline)\n");
    println!("{table}");
    println!(
        "The paper's pick is cpc8-16K-4lb-double: area and energy savings at no performance cost."
    );

    let stats = engine.stats();
    println!();
    println!(
        "[engine] {} jobs in {sweep_secs:.2}s on {} threads ({} simulated, {} steals); \
         table assembly was {} memory hits",
        outcome.rows.len(),
        engine.threads(),
        stats.simulated,
        outcome.pool.steals,
        stats.memory_hits,
    );
}
