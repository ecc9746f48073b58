//! Experiment execution, backed by the `acmp-sweep` engine.
//!
//! [`ExperimentContext`] is the figure modules' view of the sweep engine:
//! trace generation, the sharded in-memory result cache, the optional
//! content-addressed on-disk store and the work-stealing thread pool all
//! live in [`acmp_sweep::SweepEngine`]; this type adds the grid-prefetch
//! idiom the figure modules share (sweep the full benchmark × design grid
//! at job granularity, then read the now-warm cache while assembling rows).

use crate::design_point::DesignPoint;
use acmp_sweep::{EngineStats, SweepEngine, SweepOutcome};
use hpc_workloads::{Benchmark, GeneratorConfig};
use sim_acmp::SimResult;
use sim_trace::TraceSet;
use std::sync::Arc;

/// Shared state for a set of experiments: traces are generated once per
/// benchmark and simulation results are cached per (benchmark, design
/// point), so the figure modules can be composed without repeating work.
///
/// Results are keyed on the content hash of the *entire* design point (plus
/// benchmark and generator config), never on the design's display name, so
/// distinct points can never collide.
#[derive(Debug)]
pub struct ExperimentContext {
    engine: SweepEngine,
}

impl ExperimentContext {
    /// Creates a context that generates traces with `generator`.
    pub fn new(generator: GeneratorConfig) -> Self {
        ExperimentContext {
            engine: SweepEngine::builder(generator)
                .build()
                .expect("building without a disk store cannot fail"),
        }
    }

    /// Wraps an already-configured engine (custom thread count, disk
    /// store).
    pub fn from_engine(engine: SweepEngine) -> Self {
        ExperimentContext { engine }
    }

    /// A context at the scale used by the figure harnesses (eight workers).
    pub fn paper_scale() -> Self {
        Self::new(GeneratorConfig::paper())
    }

    /// Attaches the content-addressed on-disk result store rooted at
    /// `root`, making repeated runs warm-start across processes.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the store directory cannot be created.
    pub fn with_disk_cache(self, root: impl Into<std::path::PathBuf>) -> std::io::Result<Self> {
        Ok(ExperimentContext {
            engine: self.engine.with_disk_store(root)?,
        })
    }

    /// Restricts the context to one shard of the job keyspace: grid sweeps
    /// run (and return) only the cells whose stable key digest the shard
    /// owns.  This is the multi-process idiom behind `sweep run --manifest
    /// FILE --shard i/N`, which `sweep run --shards N` spawns once per
    /// shard — contexts configured with the N distinct shards of one count
    /// partition a grid exactly, with no cell simulated twice.
    pub fn with_shard(self, shard: acmp_sweep::ShardSpec) -> Self {
        ExperimentContext {
            engine: self.engine.with_shard(shard),
        }
    }

    /// The underlying sweep engine.
    pub fn engine(&self) -> &SweepEngine {
        &self.engine
    }

    /// The attached on-disk result store, if [`with_disk_cache`]
    /// (Self::with_disk_cache) attached one.  This is the figure harnesses'
    /// hook into the multi-machine warm-start path:
    /// [`export_segments`](acmp_sweep::DiskStore::export_segments) the
    /// store on the machine that already ran, ship the bundle, and
    /// [`import_segments`](acmp_sweep::DiskStore::import_segments) it
    /// wherever the next figure run happens — the warm run then reports
    /// zero simulations and zero trace generations.
    pub fn store(&self) -> Option<&acmp_sweep::DiskStore> {
        self.engine.store()
    }

    /// The trace-generation configuration in use.
    pub fn generator(&self) -> &GeneratorConfig {
        self.engine.generator()
    }

    /// Number of worker cores simulated.
    pub fn num_workers(&self) -> usize {
        self.engine.simulated_workers()
    }

    /// Returns (generating and caching on first use) the trace set of
    /// `benchmark`.
    pub fn traces(&self, benchmark: Benchmark) -> Arc<TraceSet> {
        self.engine.traces(benchmark)
    }

    /// Simulates `benchmark` on `design`, caching the result.
    ///
    /// # Panics
    ///
    /// Panics if the simulation fails (cycle limit exceeded), which points
    /// at a configuration or runtime bug rather than a user error.
    pub fn simulate(&self, benchmark: Benchmark, design: &DesignPoint) -> Arc<SimResult> {
        self.engine.simulate(benchmark, design)
    }

    /// Runs the full `benchmarks` × `designs` grid on the work-stealing
    /// pool and returns every cell.
    ///
    /// This is the figure modules' prefetch idiom: one call fans the grid
    /// out at (benchmark, design) job granularity — rather than only across
    /// benchmarks — and subsequent [`simulate`](Self::simulate) calls for
    /// those cells are cache hits.
    pub fn sweep(&self, benchmarks: &[Benchmark], designs: &[DesignPoint]) -> SweepOutcome {
        self.engine.run_grid(benchmarks, designs)
    }

    /// Simulates every benchmark in `benchmarks` on `design` on the pool,
    /// preserving input order.
    pub fn simulate_all(
        &self,
        benchmarks: &[Benchmark],
        design: &DesignPoint,
    ) -> Vec<(Benchmark, Arc<SimResult>)> {
        self.sweep(benchmarks, std::slice::from_ref(design))
            .rows
            .into_iter()
            .map(|row| (row.benchmark, row.result))
            .collect()
    }

    /// Runs `f` for every benchmark on the work-stealing pool, preserving
    /// the input order in the returned vector.
    ///
    /// For plain grid simulation prefer [`sweep`](Self::sweep), which
    /// schedules at cell granularity; this is the escape hatch for
    /// experiments doing other per-benchmark work (trace analysis, replay
    /// models).
    pub fn run_parallel<T, F>(&self, benchmarks: &[Benchmark], f: F) -> Vec<(Benchmark, T)>
    where
        T: Send,
        F: Fn(Benchmark) -> T + Sync,
    {
        self.engine.run_per_benchmark(benchmarks, f)
    }

    /// Snapshot of the engine's cache behaviour.
    pub fn stats(&self) -> EngineStats {
        self.engine.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_ctx() -> ExperimentContext {
        ExperimentContext::new(GeneratorConfig {
            num_workers: 2,
            parallel_instructions_per_thread: 5_000,
            num_phases: 1,
            seed: 3,
        })
    }

    #[test]
    fn traces_are_cached_and_shared() {
        let ctx = small_ctx();
        let a = ctx.traces(Benchmark::Cg);
        let b = ctx.traces(Benchmark::Cg);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn simulations_are_cached_per_design_point() {
        let ctx = small_ctx();
        let a = ctx.simulate(Benchmark::Cg, &DesignPoint::baseline());
        let b = ctx.simulate(Benchmark::Cg, &DesignPoint::baseline());
        assert!(Arc::ptr_eq(&a, &b));
        let c = ctx.simulate(Benchmark::Cg, &DesignPoint::proposed());
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn same_name_different_parameters_never_collide() {
        // The historical bug this layer must never regrow: two design
        // points sharing a display name are still distinct cache entries.
        let ctx = small_ctx();
        let mut doppelganger = DesignPoint::proposed();
        doppelganger.name = DesignPoint::baseline().name;
        let a = ctx.simulate(Benchmark::Cg, &DesignPoint::baseline());
        let b = ctx.simulate(Benchmark::Cg, &doppelganger);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_ne!(a.cycles, b.cycles);
    }

    #[test]
    fn parallel_sweep_preserves_order() {
        let ctx = small_ctx();
        let benchmarks = [Benchmark::Cg, Benchmark::Is, Benchmark::Ep];
        let results = ctx.simulate_all(&benchmarks, &DesignPoint::baseline());
        let names: Vec<_> = results.iter().map(|(b, _)| *b).collect();
        assert_eq!(names, benchmarks);
        for (b, r) in &results {
            assert_eq!(r.instructions, ctx.traces(*b).total_instructions());
        }
    }

    #[test]
    fn sweep_prefetches_the_grid() {
        let ctx = small_ctx();
        let benchmarks = [Benchmark::Cg, Benchmark::Lu];
        let designs = [DesignPoint::baseline(), DesignPoint::proposed()];
        let outcome = ctx.sweep(&benchmarks, &designs);
        assert_eq!(outcome.rows.len(), 4);
        let simulated = ctx.stats().simulated;
        assert_eq!(simulated, 4);
        // Every cell is now a memory hit.
        ctx.simulate(Benchmark::Lu, &DesignPoint::proposed());
        assert_eq!(ctx.stats().simulated, simulated);
    }

    #[test]
    fn sharded_contexts_partition_a_sweep() {
        let benchmarks = [Benchmark::Cg];
        let designs = [
            DesignPoint::baseline(),
            DesignPoint::proposed(),
            DesignPoint::all_shared(),
        ];
        let full = small_ctx();
        let all_keys: Vec<String> = full
            .sweep(&benchmarks, &designs)
            .rows
            .into_iter()
            .map(|r| r.key)
            .collect();

        let mut union: Vec<String> = Vec::new();
        let mut simulated = 0;
        for index in 0..2 {
            let ctx = small_ctx().with_shard(acmp_sweep::ShardSpec::new(index, 2).unwrap());
            let outcome = ctx.sweep(&benchmarks, &designs);
            simulated += ctx.stats().simulated;
            union.extend(outcome.rows.into_iter().map(|r| r.key));
        }
        let mut want = all_keys;
        want.sort_unstable();
        union.sort_unstable();
        assert_eq!(union, want, "two shards must cover the grid exactly");
        assert_eq!(simulated, 3, "no cell may simulate twice across shards");
    }

    #[test]
    fn warm_stores_transfer_between_contexts_via_export_import() {
        // Machine A runs a grid cold; its store is exported, shipped and
        // imported into machine B's empty store; B's run is fully warm.
        let dir = std::env::temp_dir().join(format!(
            "acmp-core-experiment-transfer-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let benchmarks = [Benchmark::Cg, Benchmark::Lu];
        let designs = [DesignPoint::baseline(), DesignPoint::proposed()];

        let a = small_ctx().with_disk_cache(dir.join("machine-a")).unwrap();
        let rows_a = a.sweep(&benchmarks, &designs);
        assert_eq!(a.stats().simulated, 4);
        let mut bundle = Vec::new();
        a.store().unwrap().export_segments(&mut bundle).unwrap();

        let b = small_ctx().with_disk_cache(dir.join("machine-b")).unwrap();
        b.store()
            .unwrap()
            .import_segments(std::io::Cursor::new(&bundle))
            .unwrap();
        let rows_b = b.sweep(&benchmarks, &designs);
        assert_eq!(b.stats().simulated, 0, "imported store must be fully warm");
        assert_eq!(b.stats().trace_generated, 0);
        let jsonl =
            |o: &SweepOutcome| -> Vec<String> { o.rows.iter().map(|r| r.to_jsonl()).collect() };
        assert_eq!(jsonl(&rows_a), jsonl(&rows_b));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn contexts_without_a_disk_cache_expose_no_store() {
        assert!(small_ctx().store().is_none());
    }

    #[test]
    fn run_parallel_with_custom_closure() {
        let ctx = small_ctx();
        let out = ctx.run_parallel(&[Benchmark::Cg, Benchmark::Lu], |b| b.name().len());
        assert_eq!(out, vec![(Benchmark::Cg, 2), (Benchmark::Lu, 2)]);
    }
}
