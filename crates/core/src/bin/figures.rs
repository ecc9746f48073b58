//! Regenerates the tables and figures of the paper's evaluation section.
//!
//! Usage:
//!
//! ```text
//! cargo run -p shared-icache --release --bin figures -- <id> [<id> ...]
//! cargo run -p shared-icache --release --bin figures -- all
//! FIGURE_SCALE=quick cargo run -p shared-icache --release --bin figures -- fig07
//! ```
//!
//! The ids are those of `shared_icache::figures::FIGURES`, plus `all`.
//! Every id is checked before anything runs.

use acmp_sweep::{DiskStore, SweepEngine};
use hpc_workloads::{Benchmark, GeneratorConfig};
use shared_icache::figures::FIGURES;

/// Scale of a figures run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scale {
    /// A reduced scale (fewer instructions, fewer workers) for quick smoke
    /// runs and CI.
    Quick,
    /// The full eight-worker configuration the paper reports.
    Paper,
}

impl Scale {
    /// Reads the scale from the `FIGURE_SCALE` environment variable
    /// (`quick` or `paper`); defaults to `Paper` when it is unset.
    fn from_env() -> Result<Self, String> {
        let value = std::env::var_os("FIGURE_SCALE");
        Self::parse(value.as_ref().map(|v| v.to_string_lossy()).as_deref())
    }

    /// Parses a `FIGURE_SCALE` value; `None` (unset) means `Paper`.
    fn parse(value: Option<&str>) -> Result<Self, String> {
        match value {
            None | Some("paper") => Ok(Scale::Paper),
            Some("quick") => Ok(Scale::Quick),
            Some(other) => Err(format!(
                "unknown FIGURE_SCALE `{other}` (accepted: quick, paper; unset means paper)"
            )),
        }
    }

    /// The trace-generation configuration for this scale.
    fn generator(self) -> GeneratorConfig {
        match self {
            Scale::Quick => GeneratorConfig::quick(),
            Scale::Paper => GeneratorConfig::paper(),
        }
    }

    /// The benchmark list used at this scale (the `quick` subset shared
    /// with the sweep CLI, or all 24 workloads for `Paper`).
    fn benchmarks(self) -> Vec<Benchmark> {
        match self {
            Scale::Quick => acmp_sweep::grid::quick_benchmarks(),
            Scale::Paper => Benchmark::ALL.to_vec(),
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ids: Vec<&str> = FIGURES.iter().map(|(id, _)| *id).chain(["all"]).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        acmp_obs::logline!("usage: figures <id> [<id> ...]   (ids: {})", ids.join(" "));
        std::process::exit(if args.is_empty() { 2 } else { 0 });
    }
    let mut requested = Vec::new();
    for arg in &args {
        match FIGURES.iter().find(|(id, _)| id == arg) {
            Some(figure) => requested.push(figure),
            None if arg == "all" => {}
            None => {
                acmp_obs::logline!("unknown experiment id `{arg}` (valid: {})", ids.join(" "));
                std::process::exit(2);
            }
        }
    }
    if args.iter().any(|a| a == "all") {
        requested = FIGURES.iter().collect();
    }
    let scale = Scale::from_env().unwrap_or_else(|e| {
        acmp_obs::logline!("figures: {e}");
        std::process::exit(2);
    });

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
    for (id, render) in requested {
        let stopwatch = acmp_obs::Stopwatch::start();
        println!("{}", render(&engine, &benchmarks));
        acmp_obs::logline!(
            "[{id}] completed in {:.1}s at {scale:?} scale",
            stopwatch.elapsed_secs()
        );
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scale_is_smaller_than_paper_scale() {
        let q = Scale::Quick.generator();
        let p = Scale::Paper.generator();
        assert!(q.parallel_instructions_per_thread < p.parallel_instructions_per_thread);
        assert!(q.num_workers <= p.num_workers);
        assert!(Scale::Quick.benchmarks().len() < Scale::Paper.benchmarks().len());
        assert_eq!(Scale::Paper.benchmarks().len(), 24);
    }

    #[test]
    fn figure_scale_accepts_quick_and_paper_and_names_anything_else() {
        assert_eq!(Scale::parse(None), Ok(Scale::Paper));
        assert_eq!(Scale::parse(Some("paper")), Ok(Scale::Paper));
        assert_eq!(Scale::parse(Some("quick")), Ok(Scale::Quick));
        for typo in ["Quick", "quik", "paper ", "", "PAPER"] {
            let message = Scale::parse(Some(typo)).unwrap_err();
            assert!(message.contains(&format!("`{typo}`")), "{message}");
            assert!(
                message.contains("quick") && message.contains("paper"),
                "{message}"
            );
        }
    }
}
