//! The sweep engine: cached, parallel execution of simulation grids.

use crate::design_point::DesignPoint;
use crate::job::{JobKey, ShardSpec, SweepJob};
use crate::scheduler::{PoolStats, WorkStealingPool};
use crate::sharded::ShardedMap;
use acmp_store::{DiskStore, StoreStats};
use hpc_workloads::{Benchmark, GeneratorConfig, TraceGenerator};
use serde_json::json;
use sim_acmp::{AcmpConfig, Machine, SimResult};
use sim_core::FetchStream;
use sim_trace::TraceSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Snapshot of the engine's cache behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Simulations served from the in-memory sharded cache.
    pub memory_hits: u64,
    /// Simulations served from the on-disk store.
    pub disk_hits: u64,
    /// Simulations actually executed.
    pub simulated: u64,
    /// Trace sets generated.  A grid generates each benchmark's traces
    /// once, decoding each record as it is generated and keeping none;
    /// [`SweepEngine::traces`] generates one more set when first asked for
    /// such a benchmark.
    pub trace_generated: u64,
    /// Counters of the attached disk store, if any.
    pub store: Option<StoreStats>,
}

/// One completed cell of a sweep grid.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// The simulated workload.
    pub benchmark: Benchmark,
    /// The simulated machine configuration.
    pub design: DesignPoint,
    /// Content-addressed job key (hex digest).
    pub key: String,
    /// The simulation result.
    pub result: Arc<SimResult>,
}

impl SweepRow {
    /// The row as one line of canonical JSON (no trailing newline).
    ///
    /// Field order is fixed and every number is either an integer or a
    /// shortest-round-trip float, so two runs of the same grid produce
    /// byte-identical lines regardless of worker count or row order.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let r = &self.result;
        json!({
            "key": self.key,
            "benchmark": self.benchmark.name(),
            "design": self.design,
            "cycles": r.cycles,
            "instructions": r.instructions,
            "parallel_cycles": r.parallel_cycles,
            "serial_cycles": r.serial_cycles,
            "parallel_regions": r.parallel_regions,
            "worker_icache_mpki": r.worker_icache_mpki(),
            "worker_access_ratio": r.worker_access_ratio(),
            "bus_transactions": r.bus.transactions,
        })
        .to_string()
    }
}

/// The outcome of running a grid: all rows (benchmark-major order) plus the
/// scheduler's statistics.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// One row per (benchmark, design) cell, in input order.
    pub rows: Vec<SweepRow>,
    /// How the work-stealing pool behaved.
    pub pool: PoolStats,
}

/// One benchmark's fetch streams, one per thread, shared by every cell
/// that simulates the benchmark.
type Streams = Arc<[Arc<FetchStream>]>;

/// Cached, parallel executor for (benchmark × design point) grids.
///
/// The engine owns three layers, consulted in order:
///
/// 1. a sharded in-memory result cache (lock per shard, not per engine),
/// 2. an optional content-addressed on-disk store (warm starts across
///    processes),
/// 3. the cycle-level simulator itself, fanned out over a work-stealing
///    thread pool.
///
/// The simulator replays each benchmark's traces decoded once into fetch
/// streams (see [`Machine::with_streams`]), cached per benchmark: every
/// design point has the same fetch predictor and fetch-block cap, so one
/// decode serves the whole grid.  The engine generates each thread of a
/// benchmark straight into the decoder of the core that runs it, so it
/// keeps no trace record; only [`traces`](Self::traces) keeps trace sets
/// alive.
#[derive(Debug)]
pub struct SweepEngine {
    generator: GeneratorConfig,
    shard: ShardSpec,
    pool: WorkStealingPool,
    traces: ShardedMap<Benchmark, Arc<TraceSet>>,
    streams: ShardedMap<Benchmark, Streams>,
    results: ShardedMap<JobKey, Arc<SimResult>>,
    store: Option<DiskStore>,
    memory_hits: AtomicU64,
    disk_hits: AtomicU64,
    simulated: AtomicU64,
    trace_generated: AtomicU64,
}

/// Configures and opens a [`SweepEngine`].
///
/// This is the one construction path for every knob an engine has —
/// host-thread count, keyspace shard, disk store location and how many
/// store generations to keep.  There are no environment-variable
/// side-channels: a caller that wants a non-default value passes it here,
/// so two engines built from the same code are configured identically no
/// matter what the process environment looks like.
///
/// ```no_run
/// use acmp_sweep::SweepEngine;
///
/// let engine = SweepEngine::builder(hpc_workloads::GeneratorConfig::default())
///     .workers(4)
///     .store_dir("target/sweep-cache")
///     .kept_generations(2)
///     .build()?;
/// # std::io::Result::Ok(())
/// ```
#[derive(Debug, Clone)]
pub struct SweepEngineBuilder {
    generator: GeneratorConfig,
    workers: Option<usize>,
    shard: ShardSpec,
    store_dir: Option<std::path::PathBuf>,
    kept_generations: Option<u64>,
}

impl SweepEngineBuilder {
    /// Sets the number of host pool threads (≥ 1).  Defaults to the
    /// machine's available parallelism.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Restricts the engine to the slice of the job keyspace owned by
    /// `shard`: grid and job-list runs silently skip cells owned by other
    /// shards and return rows only for owned cells.  Direct
    /// [`simulate`](SweepEngine::simulate) calls are *not* filtered — the
    /// shard decides what a grid schedules, not what the engine can
    /// compute.  Defaults to the whole keyspace.
    ///
    /// Ownership is `digest % count` over the job key's stable content
    /// hash, so N engines configured with the N distinct shards of one
    /// `count` — in any mix of threads, processes or machines — partition
    /// the grid exactly: every cell runs in exactly one of them.
    #[must_use]
    pub fn shard(mut self, shard: ShardSpec) -> Self {
        self.shard = shard;
        self
    }

    /// Attaches a content-addressed disk store rooted at `dir`.  Without
    /// this the engine runs purely in memory.
    #[must_use]
    pub fn store_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.store_dir = Some(dir.into());
        self
    }

    /// Keeps only the newest `generations` store generations, evicting the
    /// rest when the store opens.  Only meaningful together with
    /// [`store_dir`](Self::store_dir); the default keeps every generation.
    #[must_use]
    pub fn kept_generations(mut self, generations: u64) -> Self {
        self.kept_generations = Some(generations);
        self
    }

    /// Builds the engine.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if a configured store directory cannot be
    /// created or opened; construction without a store cannot fail.
    pub fn build(self) -> std::io::Result<SweepEngine> {
        self.generator.validate();
        let store = match self.store_dir {
            Some(dir) => Some(DiskStore::open_limited(dir, self.kept_generations)?),
            None => None,
        };
        Ok(SweepEngine {
            generator: self.generator,
            shard: self.shard,
            pool: self
                .workers
                .map_or_else(WorkStealingPool::host_sized, WorkStealingPool::new),
            traces: ShardedMap::new(),
            streams: ShardedMap::new(),
            results: ShardedMap::new(),
            store,
            memory_hits: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            simulated: AtomicU64::new(0),
            trace_generated: AtomicU64::new(0),
        })
    }
}

impl SweepEngine {
    /// Starts configuring an engine that generates traces with `generator`.
    /// See [`SweepEngineBuilder`] for the knobs.
    #[must_use]
    pub fn builder(generator: GeneratorConfig) -> SweepEngineBuilder {
        SweepEngineBuilder {
            generator,
            workers: None,
            shard: ShardSpec::whole(),
            store_dir: None,
            kept_generations: None,
        }
    }

    /// The trace-generation configuration.
    #[must_use]
    pub fn generator(&self) -> &GeneratorConfig {
        &self.generator
    }

    /// Number of *simulated* worker cores (a property of the generator, not
    /// of the host thread pool).
    #[must_use]
    pub fn simulated_workers(&self) -> usize {
        self.generator.num_workers
    }

    /// Number of host threads the pool fans out over.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.pool.workers()
    }

    /// The attached disk store, if any.
    #[must_use]
    pub fn store(&self) -> Option<&DiskStore> {
        self.store.as_ref()
    }

    /// The keyspace shard this engine runs (the whole keyspace unless
    /// [`SweepEngineBuilder::shard`] narrowed it).
    #[must_use]
    pub fn shard(&self) -> ShardSpec {
        self.shard
    }

    /// Returns (generating and caching on first use) the trace set of
    /// `benchmark`.
    ///
    /// Trace sets live in memory only: the disk store holds results, never
    /// traces, because regenerating a trace set costs a fraction of
    /// encoding, storing and decoding it.  Simulation does not need this
    /// cache (it replays decoded streams), so a set stays resident only
    /// once a caller asks for it here; a later first simulation of the
    /// benchmark then decodes this set instead of generating another.
    pub fn traces(&self, benchmark: Benchmark) -> Arc<TraceSet> {
        self.traces
            .get_or_insert_with(benchmark, || Arc::new(self.generate_traces(benchmark)))
    }

    /// Returns (decoding and caching on first use) the fetch streams of
    /// `benchmark`, decoded for the cores of `config`.  The decode reads
    /// the set [`traces`](Self::traces) cached, if any; otherwise it
    /// generates the benchmark's traces without keeping them (see
    /// [`generate_streams`](Self::generate_streams)).
    fn streams(&self, benchmark: Benchmark, config: &AcmpConfig) -> Streams {
        self.streams
            .get_or_insert_with(benchmark, || match self.traces.get(&benchmark) {
                Some(set) => Machine::decode_streams(config, &set).into(),
                None => self.generate_streams(benchmark, config),
            })
    }

    fn generate_traces(&self, benchmark: Benchmark) -> TraceSet {
        let _span = acmp_obs::span!(
            acmp_obs::names::TRACE_LOAD_GENERATE,
            benchmark = benchmark.name()
        );
        let set = TraceGenerator::new(benchmark.profile(), self.generator).generate();
        self.count_generated();
        set
    }

    /// Generates `benchmark`'s traces one thread at a time, each straight
    /// into the stream decoder of the core that runs it, so no record is
    /// kept: a grid holds only decoded streams.  The generation span also
    /// times the decodes, which run record by record inside it.
    fn generate_streams(&self, benchmark: Benchmark, config: &AcmpConfig) -> Streams {
        let generator = TraceGenerator::new(benchmark.profile(), self.generator);
        let streams = {
            let _span = acmp_obs::span!(
                acmp_obs::names::TRACE_LOAD_GENERATE,
                benchmark = benchmark.name()
            );
            (0..=self.generator.num_workers)
                .map(|tid| {
                    let mut decoder = Machine::stream_decoder(config, tid);
                    generator.generate_thread_with(tid, &mut decoder);
                    Arc::new(decoder.finish())
                })
                .collect()
        };
        self.count_generated();
        streams
    }

    fn count_generated(&self) {
        self.trace_generated.fetch_add(1, Ordering::Relaxed);
        acmp_obs::counter!(acmp_obs::names::ENGINE_TRACE_GENERATED, 1);
    }

    /// Simulates `benchmark` on `design`, consulting the memory cache, then
    /// the disk store, then running the simulator.
    ///
    /// # Panics
    ///
    /// Panics if the simulation fails (cycle limit exceeded), which points
    /// at a configuration or runtime bug rather than a user error.
    pub fn simulate(&self, benchmark: Benchmark, design: &DesignPoint) -> Arc<SimResult> {
        let key = JobKey::new(&self.generator, benchmark, design);
        self.simulate_keyed(benchmark, design, key)
    }

    /// [`simulate`](Self::simulate) with the job key already derived, so
    /// grid runs that need the key for their output rows compute it once.
    fn simulate_keyed(
        &self,
        benchmark: Benchmark,
        design: &DesignPoint,
        key: JobKey,
    ) -> Arc<SimResult> {
        let mut span = acmp_obs::span!(acmp_obs::names::SIMULATE_CELL_SIMULATE);
        if acmp_obs::enabled() {
            span.record_field("benchmark", benchmark.name());
            span.record_field("design", design.to_string());
            span.record_field("key", key.hex());
        }
        if let Some(cached) = self.results.get(&key) {
            self.memory_hits.fetch_add(1, Ordering::Relaxed);
            acmp_obs::counter!(acmp_obs::names::ENGINE_MEMORY_HITS, 1);
            span.set_name(acmp_obs::names::SIMULATE_CELL_MEMORY_HIT);
            return cached;
        }
        if let Some(store) = &self.store {
            if let Some(result) = store.load::<SimResult>(&key) {
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
                acmp_obs::counter!(acmp_obs::names::ENGINE_DISK_HITS, 1);
                span.set_name(acmp_obs::names::SIMULATE_CELL_DISK_HIT);
                return self.results.insert_if_absent(key, Arc::new(result));
            }
        }
        let config = design.acmp_config(self.simulated_workers());
        let streams = self.streams(benchmark, &config);
        let result = Arc::new(
            Machine::with_streams(config, &streams)
                .run()
                .unwrap_or_else(|e| panic!("simulation of {benchmark} on {design} failed: {e}")),
        );
        self.simulated.fetch_add(1, Ordering::Relaxed);
        acmp_obs::counter!(acmp_obs::names::ENGINE_SIMULATED, 1);
        if let Some(store) = &self.store {
            // A failed store write is non-fatal: the result stays in memory.
            if store.save(&key, result.as_ref()).is_err() {
                acmp_obs::logline!("sweep: warning: result cache write failed for {key}");
            }
        }
        self.results.insert_if_absent(key, result)
    }

    /// Runs the full `benchmarks` × `designs` grid on the pool, returning
    /// rows in benchmark-major input order.
    ///
    /// ```
    /// use acmp_sweep::{DesignPoint, SweepEngine};
    /// use hpc_workloads::{Benchmark, GeneratorConfig};
    ///
    /// let engine = SweepEngine::builder(GeneratorConfig::small()).build()?;
    /// let benchmarks = [Benchmark::Cg, Benchmark::Lu];
    /// let designs = [DesignPoint::baseline(), DesignPoint::proposed()];
    /// let outcome = engine.run_grid(&benchmarks, &designs);
    /// let cells: Vec<_> = outcome.rows.iter().map(|r| (r.benchmark, &r.design)).collect();
    /// assert_eq!(cells[1], (Benchmark::Cg, &designs[1]));
    /// assert_eq!(cells[2], (Benchmark::Lu, &designs[0]));
    ///
    /// // The same grid again is served from the memory cache.
    /// engine.run_grid(&benchmarks, &designs);
    /// assert_eq!(engine.stats().simulated, 4);
    /// assert_eq!(engine.stats().memory_hits, 4);
    /// # std::io::Result::Ok(())
    /// ```
    pub fn run_grid(&self, benchmarks: &[Benchmark], designs: &[DesignPoint]) -> SweepOutcome {
        let jobs: Vec<SweepJob> = benchmarks
            .iter()
            .flat_map(|&benchmark| {
                designs.iter().map(move |design| SweepJob {
                    benchmark,
                    design: design.clone(),
                })
            })
            .collect();
        self.run_jobs_with(jobs, |_| {})
    }

    /// Runs an explicit job list on the pool, returning rows in input order.
    ///
    /// `on_row` is invoked from the worker thread that finished the cell,
    /// as soon as it finishes — this is how the CLI streams live progress.
    ///
    /// The job keys are derived with [`JobKey::for_jobs`], which renders
    /// the generator once and each distinct design once.  Before the cells
    /// run, one pool pass prefetches the fetch streams of every benchmark
    /// with a cell in neither the memory cache nor the store; when there is
    /// none, as in a fully warm re-run, that pass is skipped and no thread
    /// is started for it.
    pub fn run_jobs_with<C>(&self, jobs: Vec<SweepJob>, on_row: C) -> SweepOutcome
    where
        C: Fn(&SweepRow) + Sync,
    {
        // Cells owned by other shards are dropped here, before anything is
        // scheduled: a shard neither simulates them nor prefetches streams
        // a foreign-only benchmark would need.
        let keys = JobKey::for_jobs(&self.generator, &jobs);
        let keyed: Vec<(SweepJob, JobKey)> = jobs
            .into_iter()
            .zip(keys)
            .filter(|(_, key)| self.shard.owns(key.digest()))
            .collect();

        // Decode streams up front — one pool job per distinct benchmark
        // that actually needs simulating, which generates the benchmark's
        // traces and decodes them for its first cell's design.
        // Cell jobs are benchmark-major, so without this a cold grid would
        // start `min(threads, designs)` workers on the same benchmark at
        // once and each would run the full trace generator (the cache's
        // `make` deliberately runs unlocked).  Cells already resident in
        // memory or on disk don't need streams; a fully warm run must stay
        // trace-free, and starts no prefetch pool at all.  `store.contains`
        // answers from the verified segment index, so a corrupt or
        // key-mismatched entry reads as absent here and its benchmark keeps
        // its prefetch job — trusting an unverified existence check used to
        // let exactly such an entry miss at simulate time and stampede
        // every worker into regenerating the same trace set concurrently.
        let mut need_streams: Vec<&SweepJob> = keyed
            .iter()
            .filter(|(_, key)| {
                self.results.get(key).is_none()
                    && !self.store.as_ref().is_some_and(|s| s.contains(key))
            })
            .map(|(job, _)| job)
            .collect();
        need_streams.sort_by_key(|job| job.benchmark);
        need_streams.dedup_by_key(|job| job.benchmark);
        if !need_streams.is_empty() {
            self.pool.run(need_streams, |job| {
                let config = job.design.acmp_config(self.simulated_workers());
                self.streams(job.benchmark, &config);
            });
        }

        let (rows, pool) = self.pool.run(keyed, |(job, key)| {
            let hex = key.hex();
            let result = self.simulate_keyed(job.benchmark, &job.design, key.clone());
            let row = SweepRow {
                benchmark: job.benchmark,
                design: job.design.clone(),
                key: hex,
                result,
            };
            on_row(&row);
            row
        });
        SweepOutcome { rows, pool }
    }

    /// Runs `f` once per benchmark on the pool, preserving input order.
    ///
    /// This is the escape hatch for experiments that do per-benchmark work
    /// other than plain grid simulation (trace analysis, replay models);
    /// `f` may itself call [`simulate`](Self::simulate) and will hit the
    /// shared caches.
    ///
    /// ```
    /// use acmp_sweep::SweepEngine;
    /// use hpc_workloads::{Benchmark, GeneratorConfig};
    ///
    /// let engine = SweepEngine::builder(GeneratorConfig::small()).build()?;
    /// let lengths = engine.run_per_benchmark(&[Benchmark::Ep, Benchmark::Cg], |b| {
    ///     engine.traces(b).total_instructions()
    /// });
    /// assert_eq!(lengths[0].0, Benchmark::Ep);
    /// assert_eq!(lengths[1].1, engine.traces(Benchmark::Cg).total_instructions());
    /// assert_eq!(engine.stats().trace_generated, 2, "each set once");
    /// # std::io::Result::Ok(())
    /// ```
    pub fn run_per_benchmark<T, F>(&self, benchmarks: &[Benchmark], f: F) -> Vec<(Benchmark, T)>
    where
        T: Send,
        F: Fn(Benchmark) -> T + Sync,
    {
        let (rows, _) = self.pool.run(benchmarks.to_vec(), |&b| (b, f(b)));
        rows
    }

    /// Snapshot of cache behaviour since the engine was created.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            memory_hits: self.memory_hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            simulated: self.simulated.load(Ordering::Relaxed),
            trace_generated: self.trace_generated.load(Ordering::Relaxed),
            store: self.store.as_ref().map(DiskStore::stats),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;

    fn small_config() -> GeneratorConfig {
        GeneratorConfig {
            num_workers: 2,
            parallel_instructions_per_thread: 5_000,
            num_phases: 1,
            seed: 3,
        }
    }

    fn small() -> SweepEngineBuilder {
        SweepEngine::builder(small_config())
    }

    fn small_engine() -> SweepEngine {
        small().build().unwrap()
    }

    #[test]
    fn traces_are_cached_and_shared() {
        let engine = small_engine();
        let a = engine.traces(Benchmark::Cg);
        let b = engine.traces(Benchmark::Cg);
        assert!(Arc::ptr_eq(&a, &b));
        // Simulation decodes the cached set instead of generating another.
        engine.simulate(Benchmark::Cg, &DesignPoint::baseline());
        assert_eq!(engine.stats().trace_generated, 1);
    }

    #[test]
    fn generated_and_cached_traces_simulate_alike() {
        // The first engine decodes thread by thread as it generates; the
        // second decodes the set `traces` cached.
        let design = DesignPoint::proposed();
        let generated = small_engine().simulate(Benchmark::Lu, &design);
        let engine = small_engine();
        engine.traces(Benchmark::Lu);
        assert_eq!(engine.simulate(Benchmark::Lu, &design), generated);
        assert_eq!(engine.stats().trace_generated, 1);
    }

    #[test]
    fn simulate_hits_the_memory_cache() {
        let engine = small_engine();
        let a = engine.simulate(Benchmark::Cg, &DesignPoint::baseline());
        let b = engine.simulate(Benchmark::Cg, &DesignPoint::baseline());
        assert!(Arc::ptr_eq(&a, &b));
        let stats = engine.stats();
        assert_eq!(stats.simulated, 1);
        assert_eq!(stats.memory_hits, 1);
        assert!(engine.store().is_none(), "no `store_dir`, no store");
        assert_eq!(stats.store, None);
    }

    #[test]
    fn distinct_designs_with_identical_names_never_collide() {
        let engine = small_engine();
        let mut shrunk = DesignPoint::baseline();
        shrunk.icache_bytes = 8 * 1024;
        assert_eq!(shrunk.name, DesignPoint::baseline().name);
        let a = engine.simulate(Benchmark::Cg, &DesignPoint::baseline());
        let b = engine.simulate(Benchmark::Cg, &shrunk);
        assert!(!Arc::ptr_eq(&a, &b), "same-name points must key separately");
        assert_eq!(engine.stats().simulated, 2);
    }

    #[test]
    fn run_grid_covers_the_cross_product_in_order() {
        let engine = small().workers(3).build().unwrap();
        let benchmarks = [Benchmark::Cg, Benchmark::Is];
        let designs = [DesignPoint::baseline(), DesignPoint::proposed()];
        let outcome = engine.run_grid(&benchmarks, &designs);
        assert_eq!(outcome.rows.len(), 4);
        assert_eq!(outcome.pool.jobs, 4);
        assert_eq!(engine.stats().trace_generated, 2);
        assert!(engine.traces.is_empty(), "a grid keeps no trace set alive");
        let cells: Vec<(Benchmark, &str)> = outcome
            .rows
            .iter()
            .map(|r| (r.benchmark, r.design.name.as_str()))
            .collect();
        assert_eq!(
            cells,
            vec![
                (Benchmark::Cg, "baseline"),
                (Benchmark::Cg, "cpc8-16K-4lb-double"),
                (Benchmark::Is, "baseline"),
                (Benchmark::Is, "cpc8-16K-4lb-double"),
            ]
        );
        // Re-running the same grid is served from memory.
        let before = engine.stats().simulated;
        engine.run_grid(&benchmarks, &designs);
        assert_eq!(engine.stats().simulated, before);
    }

    #[test]
    fn sharded_engines_partition_the_grid_exactly() {
        let benchmarks = [Benchmark::Cg, Benchmark::Lu];
        let designs = [
            DesignPoint::baseline(),
            DesignPoint::proposed(),
            DesignPoint::all_shared(),
        ];
        let mut full: Vec<String> = small_engine()
            .run_grid(&benchmarks, &designs)
            .rows
            .iter()
            .map(SweepRow::to_jsonl)
            .collect();
        full.sort_unstable();

        for count in [1u32, 2, 3, 4] {
            let mut union: Vec<String> = Vec::new();
            let mut simulated = 0;
            for index in 0..count {
                let shard = ShardSpec::new(index, count).unwrap();
                let engine = small().shard(shard).build().unwrap();
                assert_eq!(engine.shard(), shard);
                let outcome = engine.run_grid(&benchmarks, &designs);
                assert_eq!(outcome.pool.jobs, outcome.rows.len());
                union.extend(outcome.rows.iter().map(SweepRow::to_jsonl));
                simulated += engine.stats().simulated;
            }
            union.sort_unstable();
            assert_eq!(union, full, "{count} shards must cover the grid");
            // Disjoint ownership: the six cells simulate exactly once in
            // total, no matter how many shards split them.
            assert_eq!(simulated, 6, "no double work across {count} shards");
        }
    }

    #[test]
    fn disk_store_round_trips_results_across_engines() {
        let dir =
            std::env::temp_dir().join(format!("acmp-sweep-engine-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let cold = small().store_dir(&dir).build().unwrap();
        let a = cold.simulate(Benchmark::Cg, &DesignPoint::baseline());
        assert_eq!(cold.stats().disk_hits, 0);

        // A fresh engine (fresh memory cache) over the same store.
        let warm = small().store_dir(&dir).build().unwrap();
        let b = warm.simulate(Benchmark::Cg, &DesignPoint::baseline());
        assert_eq!(warm.stats().disk_hits, 1);
        assert_eq!(warm.stats().simulated, 0);
        assert_eq!(*a, *b, "disk round trip must be lossless");
    }

    fn store_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "acmp-sweep-engine-test-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Corrupts (in place) every segment record line matching `pred`,
    /// returning how many lines were hit.
    fn corrupt_records(dir: &std::path::Path, pred: impl Fn(&str) -> bool) -> usize {
        let mut corrupted = 0;
        for entry in std::fs::read_dir(dir).unwrap().flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if acmp_store::segment::SegmentName::parse(&name).is_none() {
                continue;
            }
            let text = std::fs::read_to_string(entry.path()).unwrap();
            let mangled: Vec<String> = text
                .lines()
                .map(|line| {
                    if pred(line) {
                        corrupted += 1;
                        format!("X{}", &line[1..])
                    } else {
                        line.to_string()
                    }
                })
                .collect();
            std::fs::write(entry.path(), mangled.join("\n")).unwrap();
        }
        corrupted
    }

    #[test]
    fn warm_engine_generates_and_loads_zero_traces() {
        let dir = store_dir("warm-traces");
        let benchmarks = [Benchmark::Cg, Benchmark::Lu];
        let designs = [DesignPoint::baseline(), DesignPoint::proposed()];

        let cold = small().store_dir(&dir).build().unwrap();
        let cold_rows = cold.run_grid(&benchmarks, &designs);
        assert_eq!(cold.stats().trace_generated, 2, "one per benchmark");
        // The store holds results only: one entry per cell, no trace sets.
        assert_eq!(cold.stats().store.unwrap().entries, 4);

        // A fresh engine (fresh process stand-in) over the same store: all
        // cells hit the disk store, so no traces are generated.
        let warm = small().store_dir(&dir).build().unwrap();
        let warm_rows = warm.run_grid(&benchmarks, &designs);
        let stats = warm.stats();
        assert_eq!(stats.simulated, 0);
        assert_eq!(stats.trace_generated, 0, "fully warm runs skip traces");
        let cold_jsonl: Vec<String> = cold_rows.rows.iter().map(SweepRow::to_jsonl).collect();
        let warm_jsonl: Vec<String> = warm_rows.rows.iter().map(SweepRow::to_jsonl).collect();
        assert_eq!(cold_jsonl, warm_jsonl);

        // A partially warm grid (one new design) regenerates the traces of
        // exactly the benchmarks whose new cells it simulates.
        let wider = small().store_dir(&dir).build().unwrap();
        let mut designs3 = designs.to_vec();
        designs3.push(DesignPoint::all_shared());
        wider.run_grid(&benchmarks, &designs3);
        let stats = wider.stats();
        assert_eq!(stats.simulated, 2, "only the new design's cells run");
        assert_eq!(stats.disk_hits, 4);
        assert_eq!(stats.trace_generated, 2, "one per benchmark, in memory");
        assert_eq!(stats.store.unwrap().entries, 6);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_stores_transfer_between_engines_via_export_import() {
        // Machine A runs a grid cold; its store is exported, shipped and
        // imported into machine B's empty store; B's run is fully warm.
        let dir = store_dir("transfer");
        let benchmarks = [Benchmark::Cg, Benchmark::Lu];
        let designs = [DesignPoint::baseline(), DesignPoint::proposed()];

        let a = small().store_dir(dir.join("machine-a")).build().unwrap();
        let rows_a = a.run_grid(&benchmarks, &designs);
        assert_eq!(a.stats().simulated, 4);
        let mut bundle = Vec::new();
        a.store().unwrap().export_segments(&mut bundle).unwrap();

        let b = small().store_dir(dir.join("machine-b")).build().unwrap();
        b.store()
            .unwrap()
            .import_segments(std::io::Cursor::new(&bundle))
            .unwrap();
        let rows_b = b.run_grid(&benchmarks, &designs);
        assert_eq!(b.stats().simulated, 0, "imported store must be fully warm");
        assert_eq!(b.stats().trace_generated, 0);
        let jsonl =
            |o: &SweepOutcome| -> Vec<String> { o.rows.iter().map(SweepRow::to_jsonl).collect() };
        assert_eq!(jsonl(&rows_a), jsonl(&rows_b));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_result_entries_resimulate_with_one_trace_generation() {
        let dir = store_dir("corrupt-result");
        let benchmarks = [Benchmark::Cg];
        let designs = [DesignPoint::baseline(), DesignPoint::proposed()];
        let cold = small().store_dir(&dir).build().unwrap();
        let cold_rows = cold.run_grid(&benchmarks, &designs);

        // Corrupt both result entries, which is the whole store.
        assert_eq!(corrupt_records(&dir, |_| true), 2);

        let warm = small().workers(4).store_dir(&dir).build().unwrap();
        let warm_rows = warm.run_grid(&benchmarks, &designs);
        let stats = warm.stats();
        assert_eq!(stats.simulated, 2, "corrupt entries must re-simulate");
        assert_eq!(
            stats.trace_generated, 1,
            "the prefetch pass generates the trace set once for both cells"
        );
        let cold_jsonl: Vec<String> = cold_rows.rows.iter().map(SweepRow::to_jsonl).collect();
        let warm_jsonl: Vec<String> = warm_rows.rows.iter().map(SweepRow::to_jsonl).collect();
        assert_eq!(cold_jsonl, warm_jsonl, "re-simulation must be lossless");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entries_never_stampede_trace_generation() {
        // The regression this guards: the prefetch filter used to trust an
        // unverified existence check, so a corrupt entry excluded its
        // benchmark from the prefetch, missed at simulate time, and every
        // worker regenerated the same trace set concurrently.
        let dir = store_dir("stampede");
        let benchmarks = [Benchmark::Cg];
        let designs = [
            DesignPoint::baseline(),
            DesignPoint::proposed(),
            DesignPoint::all_shared(),
        ];
        let cold = small().store_dir(&dir).build().unwrap();
        cold.run_grid(&benchmarks, &designs);

        // Corrupt every result record.
        assert_eq!(corrupt_records(&dir, |_| true), 3);

        let warm = small().workers(4).store_dir(&dir).build().unwrap();
        warm.run_grid(&benchmarks, &designs);
        let stats = warm.stats();
        assert_eq!(stats.simulated, 3);
        assert_eq!(
            stats.trace_generated, 1,
            "the verified pre-check must route the benchmark through the \
             single prefetch job, not a per-worker stampede"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn jsonl_rows_are_deterministic() {
        let engine = small_engine();
        let outcome = engine.run_grid(&[Benchmark::Cg], &[DesignPoint::baseline()]);
        let again = engine.run_grid(&[Benchmark::Cg], &[DesignPoint::baseline()]);
        assert_eq!(outcome.rows[0].to_jsonl(), again.rows[0].to_jsonl());
        assert!(outcome.rows[0].to_jsonl().starts_with("{\"key\":\""));
    }

    #[test]
    #[should_panic(expected = "need at least one worker")]
    fn build_rejects_an_invalid_generator() {
        let _ = SweepEngine::builder(GeneratorConfig {
            num_workers: 0,
            ..small_config()
        })
        .build();
    }

    #[test]
    fn build_reports_a_store_dir_it_cannot_open() {
        // A regular file stands where the store directory should be.
        let path = store_dir("not-a-directory");
        std::fs::write(&path, b"").unwrap();
        assert!(small().store_dir(&path).build().is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn workers_size_the_host_pool_not_the_simulated_machine() {
        let engine = small().workers(3).build().unwrap();
        assert_eq!(engine.threads(), 3);
        assert_eq!(engine.simulated_workers(), 2);
        assert_eq!(*engine.generator(), small_config());
        let host = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        assert_eq!(small_engine().threads(), host, "the default is host-sized");
    }

    #[test]
    fn kept_generations_evicts_older_store_generations_at_build() {
        let dir = store_dir("kept-generations");
        // Two sessions, one cell each: generations 1 and 2.
        let first = small().store_dir(&dir).build().unwrap();
        first.simulate(Benchmark::Cg, &DesignPoint::baseline());
        drop(first);
        let second = small().store_dir(&dir).build().unwrap();
        second.simulate(Benchmark::Cg, &DesignPoint::proposed());
        drop(second);

        let bounded = small().store_dir(&dir).kept_generations(1).build().unwrap();
        assert_eq!(bounded.stats().store.unwrap().evicted, 1);
        bounded.run_grid(
            &[Benchmark::Cg],
            &[DesignPoint::baseline(), DesignPoint::proposed()],
        );
        let stats = bounded.stats();
        assert_eq!(stats.disk_hits, 1, "the newest generation survives");
        assert_eq!(stats.simulated, 1, "the evicted cell runs again");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The shard of `count` that owns `benchmark` on `design`.
    fn owner(benchmark: Benchmark, design: &DesignPoint, count: u32) -> u32 {
        let job = SweepJob {
            benchmark,
            design: design.clone(),
        };
        (job.key(&small_config()).digest() % u64::from(count)) as u32
    }

    #[test]
    fn only_the_owning_shard_schedules_a_cell() {
        let design = DesignPoint::proposed();
        let owner = owner(Benchmark::Lu, &design, 4);
        for shard in ShardSpec::all(4) {
            let engine = small().shard(shard).build().unwrap();
            let outcome = engine.run_grid(&[Benchmark::Lu], std::slice::from_ref(&design));
            let stats = engine.stats();
            let owned = usize::from(shard.index() == owner);
            assert_eq!(outcome.rows.len(), owned, "{shard}");
            assert_eq!(outcome.pool.jobs, owned, "{shard}");
            // A shard that owns no cell of a benchmark never generates its
            // traces.
            assert_eq!(stats.trace_generated as usize, owned, "{shard}");
            assert_eq!(stats.simulated as usize, owned, "{shard}");
        }
    }

    #[test]
    fn direct_simulate_ignores_the_shard() {
        let design = DesignPoint::baseline();
        let foreign = 1 - owner(Benchmark::Cg, &design, 2);
        let engine = small()
            .shard(ShardSpec::new(foreign, 2).unwrap())
            .build()
            .unwrap();
        let result = engine.simulate(Benchmark::Cg, &design);
        assert_eq!(engine.stats().simulated, 1);
        assert_eq!(*result, *small_engine().simulate(Benchmark::Cg, &design));
        // The grid still leaves the cell to its owner.
        let outcome = engine.run_grid(&[Benchmark::Cg], &[design]);
        assert!(outcome.rows.is_empty());
    }

    #[test]
    fn run_jobs_with_reports_every_row_once_and_keeps_input_order() {
        let engine = small().workers(2).build().unwrap();
        let job = |benchmark, design: DesignPoint| SweepJob { benchmark, design };
        let jobs = vec![
            job(Benchmark::Lu, DesignPoint::baseline()),
            job(Benchmark::Cg, DesignPoint::proposed()),
            job(Benchmark::Lu, DesignPoint::proposed()),
        ];
        let reported = Mutex::new(Vec::new());
        let outcome =
            engine.run_jobs_with(jobs.clone(), |row| reported.lock().push(row.key.clone()));
        let cells: Vec<SweepJob> = outcome
            .rows
            .iter()
            .map(|r| job(r.benchmark, r.design.clone()))
            .collect();
        assert_eq!(cells, jobs);
        let mut reported = reported.into_inner();
        let mut keys: Vec<String> = outcome.rows.iter().map(|r| r.key.clone()).collect();
        reported.sort_unstable();
        keys.sort_unstable();
        assert_eq!(reported, keys, "one callback per finished row");
    }

    #[test]
    fn run_per_benchmark_preserves_order() {
        let engine = small_engine();
        let out = engine.run_per_benchmark(&[Benchmark::Cg, Benchmark::Lu], |b| b.name().len());
        assert_eq!(out, vec![(Benchmark::Cg, 2), (Benchmark::Lu, 2)]);
    }
}
