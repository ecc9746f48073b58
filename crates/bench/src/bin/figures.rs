//! Regenerates the tables and figures of the paper's evaluation section.
//!
//! Usage:
//!
//! ```text
//! cargo run -p bench-harness --release --bin figures -- <id> [<id> ...]
//! cargo run -p bench-harness --release --bin figures -- all
//! FIGURE_SCALE=quick cargo run -p bench-harness --release --bin figures -- fig07
//! ```
//!
//! Valid ids: `fig01 fig02 fig03 fig04 table01 fig07 fig08 fig09 fig10 fig11
//! fig12 fig13 all`.

use acmp_sweep::{DiskStore, SweepEngine};
use bench_harness::{Scale, EXPERIMENT_IDS};
use shared_icache::figures;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        acmp_obs::logline!(
            "usage: figures <id> [<id> ...]   (ids: {})",
            EXPERIMENT_IDS.join(" ")
        );
        std::process::exit(if args.is_empty() { 2 } else { 0 });
    }
    let scale = Scale::from_env().unwrap_or_else(|e| {
        acmp_obs::logline!("figures: {e}");
        std::process::exit(2);
    });
    let requested: Vec<String> = if args.iter().any(|a| a == "all") {
        EXPERIMENT_IDS
            .iter()
            .filter(|id| **id != "all")
            .map(|s| s.to_string())
            .collect()
    } else {
        args
    };

    for id in &requested {
        if !EXPERIMENT_IDS.contains(&id.as_str()) {
            acmp_obs::logline!(
                "unknown experiment id `{id}` (valid: {})",
                EXPERIMENT_IDS.join(" ")
            );
            std::process::exit(2);
        }
    }

    println!("# shared-icache figure harness (scale: {scale:?})\n");
    // Warm-start: results land in the content-addressed store under
    // `target/sweep-cache`, so re-running a figure skips its simulations.
    // A store that cannot be opened costs the warm start, not the run.
    let builder = SweepEngine::builder(scale.generator());
    let store = DiskStore::default_root();
    let engine = match builder.clone().store_dir(&store).build() {
        Ok(engine) => engine,
        Err(e) => {
            acmp_obs::logline!(
                "figures: cannot open result store {}: {e}; running without it",
                store.display()
            );
            builder
                .build()
                .expect("an engine without a store always builds")
        }
    };
    let benchmarks = scale.benchmarks();
    for id in requested {
        run_one(&id, &engine, &benchmarks, scale);
        println!();
    }
    let stats = engine.stats();
    acmp_obs::logline!(
        "[engine] simulated {}, memory-hits {}, disk-hits {}, trace-gens {}",
        stats.simulated,
        stats.memory_hits,
        stats.disk_hits,
        stats.trace_generated
    );
}

fn run_one(id: &str, engine: &SweepEngine, benchmarks: &[hpc_workloads::Benchmark], scale: Scale) {
    let start = std::time::Instant::now();
    match id {
        "fig01" => println!("{}", figures::fig01::compute(31)),
        "fig02" => println!("{}", figures::fig02::compute(engine, benchmarks)),
        "fig03" => println!("{}", figures::fig03::compute(engine, benchmarks)),
        "fig04" => println!("{}", figures::fig04::compute(engine, benchmarks)),
        "table01" => println!("{}", figures::table01::compute()),
        "fig07" => println!("{}", figures::fig07::compute(engine, benchmarks)),
        "fig08" => println!("{}", figures::fig08::compute(engine, benchmarks)),
        "fig09" => println!("{}", figures::fig09::compute(engine, benchmarks)),
        "fig10" => println!("{}", figures::fig10::compute(engine, benchmarks)),
        "fig11" => println!("{}", figures::fig11::compute(engine, benchmarks)),
        "fig12" => println!("{}", figures::fig12::compute(engine, benchmarks)),
        "fig13" => println!("{}", figures::fig13::compute(engine, benchmarks)),
        other => unreachable!("unvalidated experiment id {other}"),
    }
    acmp_obs::logline!(
        "[{id}] completed in {:.1}s at {scale:?} scale",
        start.elapsed().as_secs_f64()
    );
}
