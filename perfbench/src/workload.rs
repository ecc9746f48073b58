//! The three workloads: their grids, generator configurations and query
//! mix, plus the pieces every workload shares — one grid pass through the
//! engine, a scratch directory, and a fixed-width fan-out.

use acmp_sweep::{scale_generator, EngineStats, GridSpec, PoolStats, SweepEngine, SweepRow};
use hpc_workloads::GeneratorConfig;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// The quick scale's own seed, the default `--seed`.
pub const DEFAULT_SEED: u64 = 0xC0FF_EE00;

/// Host threads every engine fans out over (the host has two CPUs; the
/// load stays within them).
pub const POOL_WORKERS: usize = 2;

/// Closed-loop client connections against the server.
pub const CLIENTS: usize = 2;

/// Server worker threads.
pub const SERVER_WORKERS: usize = 2;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A cold 66-cell quick-scale grid with the store on.
    ColdSweep,
    /// A 16-cell paper-scale grid with no store.
    PaperSim,
    /// Warm re-runs, CLI-path queries and served queries over the store
    /// `ColdSweep` leaves behind.
    WarmReads,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 3] = [Workload::ColdSweep, Workload::PaperSim, Workload::WarmReads];

    /// The workload's name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdSweep => "cold_sweep",
            Workload::PaperSim => "paper_sim",
            Workload::WarmReads => "warm_reads",
        }
    }

    /// Parses a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The generator scale (`quick` or `paper`).
    #[must_use]
    pub fn scale(self) -> &'static str {
        match self {
            Workload::PaperSim => "paper",
            Workload::ColdSweep | Workload::WarmReads => "quick",
        }
    }

    /// The trace generator configuration for `seed`.
    ///
    /// # Panics
    ///
    /// Never: both scale names are known to the engine.
    #[must_use]
    pub fn generator(self, seed: u64) -> GeneratorConfig {
        scale_generator(self.scale())
            .expect("quick and paper are engine scales")
            .with_seed(seed)
    }

    /// The grid one pass runs.
    ///
    /// # Panics
    ///
    /// Never: both specs are fixed and valid.
    #[must_use]
    pub fn grid(self) -> GridSpec {
        let (benchmarks, designs) = match self {
            Workload::PaperSim => ("cg,lu,ua,lulesh", "baseline,proposed,naive:8,all-shared"),
            Workload::ColdSweep | Workload::WarmReads => ("quick", "fig07,fig09,fig12"),
        };
        GridSpec::parse(benchmarks, designs).expect("fixed grid specs parse")
    }

    /// Whether the engine runs with a disk store.
    #[must_use]
    pub fn uses_store(self) -> bool {
        self != Workload::PaperSim
    }

    /// The golden digest of the grid's sorted rows, for the default seed
    /// only.
    #[must_use]
    pub fn golden(self, seed: u64) -> Option<&'static str> {
        (seed == DEFAULT_SEED).then_some(match self {
            Workload::PaperSim => crate::golden::PAPER_SIM_DIGEST,
            Workload::ColdSweep | Workload::WarmReads => crate::golden::COLD_SWEEP_DIGEST,
        })
    }
}

/// The fixed `warm_reads` query mix: facet-only, metric-range, top-k and
/// full-ranking queries, ascending and descending.  Each entry is the
/// token list `sweep query` would take.
pub const QUERY_MIX: [&str; 7] = [
    "benchmark=cg --by cycles",
    "family=worker-shared --by bus.wait_cycles --desc",
    "cycles<=100000 --by cycles --top 5",
    "family=private worker_icache.misses>=100 --by worker_icache.misses --desc",
    "--by instructions --top 10 --desc",
    "--by cycles",
    "--by bus.transactions --desc",
];

/// Splits a query-mix entry into grammar tokens.
#[must_use]
pub fn query_tokens(entry: &str) -> Vec<String> {
    entry.split_whitespace().map(str::to_string).collect()
}

/// One grid pass: a fresh engine (over `store` if given) runs the grid.
#[derive(Debug)]
pub struct Pass {
    /// Host seconds from engine construction to the last row.
    pub secs: f64,
    /// Every row as canonical JSONL.
    pub rows: Vec<String>,
    /// The engine's cache counters after the pass.
    pub stats: EngineStats,
    /// How the pool behaved.
    pub pool: PoolStats,
}

/// Runs one grid pass with a fresh engine.
///
/// # Errors
///
/// Returns the I/O error if the store cannot be opened.
pub fn run_pass(
    generator: GeneratorConfig,
    grid: &GridSpec,
    store: Option<&Path>,
) -> std::io::Result<Pass> {
    let start = Instant::now();
    let mut builder = SweepEngine::builder(generator).workers(POOL_WORKERS);
    if let Some(dir) = store {
        builder = builder.store_dir(dir);
    }
    let engine = builder.build()?;
    let outcome = engine.run_grid(&grid.benchmarks, &grid.designs);
    let secs = start.elapsed().as_secs_f64();
    Ok(Pass {
        secs,
        rows: outcome.rows.iter().map(SweepRow::to_jsonl).collect(),
        stats: engine.stats(),
        pool: outcome.pool,
    })
}

/// Runs `f` over `items` on [`POOL_WORKERS`] threads, returning results in
/// input order.  Items are handed out in order, one at a time.
pub fn fan_out<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let mut results: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..POOL_WORKERS)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        mine.push((i, f(item)));
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("fan-out worker panicked"))
            .collect()
    });
    results.sort_by_key(|(i, _)| *i);
    results.into_iter().map(|(_, r)| r).collect()
}

/// The benchmark's scratch space under the working directory, removed on
/// drop.
#[derive(Debug)]
pub struct Scratch {
    root: PathBuf,
    next: AtomicUsize,
}

impl Scratch {
    /// Creates `.perfbench-work/<pid>` under the working directory.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if it cannot be created.
    pub fn new() -> std::io::Result<Scratch> {
        let root = PathBuf::from(".perfbench-work").join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        Ok(Scratch {
            root,
            next: AtomicUsize::new(0),
        })
    }

    /// A path for a new directory nobody has used yet (not created).
    pub fn fresh(&self, tag: &str) -> PathBuf {
        let n = self.next.fetch_add(1, Ordering::Relaxed);
        self.root.join(format!("{tag}-{n}"))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // Leave no empty parent behind either; it fails harmlessly while
        // another run still uses it.
        if let Some(parent) = self.root.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Total bytes of the regular files directly under `dir`.
#[must_use]
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(std::fs::Metadata::is_file)
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_have_the_documented_shape() {
        assert_eq!(Workload::ColdSweep.grid().cells(), 66);
        assert_eq!(Workload::ColdSweep.grid().designs.len(), 11);
        assert_eq!(Workload::PaperSim.grid().cells(), 16);
        assert_eq!(Workload::PaperSim.generator(DEFAULT_SEED).num_workers, 8);
        assert_eq!(Workload::WarmReads.grid(), Workload::ColdSweep.grid());
        assert!(!Workload::PaperSim.uses_store());
    }

    #[test]
    fn every_mix_entry_parses() {
        for entry in QUERY_MIX {
            acmp_sweep::serve::parse_query_tokens(&query_tokens(entry)).unwrap();
        }
    }

    #[test]
    fn fan_out_keeps_input_order() {
        let items: Vec<u32> = (0..100).collect();
        assert_eq!(
            fan_out(&items, |x| x * 2),
            (0..100).map(|x| x * 2).collect::<Vec<_>>()
        );
    }
}
