//! The sweep engine: cached, parallel execution of simulation grids.

use crate::design_point::DesignPoint;
use crate::job::{JobKey, ShardSpec, SweepJob};
use crate::scheduler::{PoolStats, WorkStealingPool};
use crate::sharded::ShardedMap;
use acmp_store::{DiskStore, StoreStats};
use hpc_workloads::{Benchmark, GeneratorConfig, TraceGenerator};
use parking_lot::Mutex;
use serde_json::json;
use sim_acmp::{AcmpConfig, Machine, SimResult};
use sim_core::FetchStream;
use sim_trace::{TraceRecord, TraceSet};
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
    /// once, decoding them without keeping them; [`SweepEngine::traces`]
    /// generates one more set when first asked for such a benchmark.
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
/// decode serves the whole grid.  The engine generates a benchmark's traces
/// for that decode one thread at a time and keeps none of them; only
/// [`traces`](Self::traces) keeps trace sets alive.
#[derive(Debug)]
pub struct SweepEngine {
    generator: GeneratorConfig,
    shard: ShardSpec,
    pool: WorkStealingPool,
    traces: ShardedMap<Benchmark, Arc<TraceSet>>,
    streams: ShardedMap<Benchmark, Streams>,
    /// Record vectors [`generate_streams`](Self::generate_streams) reuses.
    spare_records: Mutex<Vec<Vec<TraceRecord>>>,
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
/// use acmp_sweep::prelude::*;
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

    /// Restricts the engine to one shard of the job keyspace (see
    /// [`SweepEngine::with_shard`]).  Defaults to the whole keyspace.
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
        let mut engine = SweepEngine::new(self.generator).with_shard(self.shard);
        if let Some(workers) = self.workers {
            engine = engine.with_threads(workers);
        }
        if let Some(dir) = self.store_dir {
            engine = engine.with_disk_store_limited(dir, self.kept_generations)?;
        }
        Ok(engine)
    }
}

impl SweepEngine {
    /// Starts configuring an engine that generates traces with `generator`.
    ///
    /// See [`SweepEngineBuilder`] for the knobs; `build()` on the untouched
    /// builder is equivalent to [`SweepEngine::new`].
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

    /// Creates an engine generating traces with `generator`, sized to the
    /// host, with no disk store.
    #[must_use]
    pub fn new(generator: GeneratorConfig) -> Self {
        generator.validate();
        SweepEngine {
            generator,
            shard: ShardSpec::whole(),
            pool: WorkStealingPool::host_sized(),
            traces: ShardedMap::new(),
            streams: ShardedMap::new(),
            spare_records: Mutex::new(Vec::new()),
            results: ShardedMap::new(),
            store: None,
            memory_hits: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            simulated: AtomicU64::new(0),
            trace_generated: AtomicU64::new(0),
        }
    }

    /// Sets the number of pool threads (≥ 1).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.pool = WorkStealingPool::new(threads);
        self
    }

    /// Restricts the engine to the slice of the job keyspace owned by
    /// `shard`: grid and job-list runs silently skip cells owned by other
    /// shards and return rows only for owned cells.  Direct
    /// [`simulate`](Self::simulate) calls are *not* filtered — the shard
    /// decides what a grid schedules, not what the engine can compute.
    ///
    /// Ownership is `digest % count` over the job key's stable content
    /// hash, so N engines configured with the N distinct shards of one
    /// `count` — in any mix of threads, processes or machines — partition
    /// the grid exactly: every cell runs in exactly one of them.
    #[must_use]
    pub fn with_shard(mut self, shard: ShardSpec) -> Self {
        self.shard = shard;
        self
    }

    /// Attaches a content-addressed disk store rooted at `root`, keeping
    /// every generation.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the store directory cannot be created.
    pub fn with_disk_store(self, root: impl Into<std::path::PathBuf>) -> std::io::Result<Self> {
        self.with_disk_store_limited(root, None)
    }

    /// [`with_disk_store`](Self::with_disk_store) with a generation bound:
    /// all but the newest `limit` store generations are evicted at open.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the store directory cannot be created.
    pub fn with_disk_store_limited(
        mut self,
        root: impl Into<std::path::PathBuf>,
        limit: Option<u64>,
    ) -> std::io::Result<Self> {
        self.store = Some(DiskStore::open_limited(root, limit)?);
        Ok(self)
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
    /// [`with_shard`](Self::with_shard) narrowed it).
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

    /// Generates `benchmark`'s traces one thread at a time, decoding each
    /// thread before the next is generated into the same record vector.
    /// The vector comes from, and goes back to, the engine's spare ones, so
    /// a grid holds at most one thread's records per worker and frees no
    /// record vector until the engine drops.  The generation span also
    /// times the decodes, which alternate with it thread by thread.
    fn generate_streams(&self, benchmark: Benchmark, config: &AcmpConfig) -> Streams {
        let generator = TraceGenerator::new(benchmark.profile(), self.generator);
        let mut records = self.spare_records.lock().pop().unwrap_or_default();
        let mut streams = Vec::with_capacity(self.generator.num_workers + 1);
        {
            let _span = acmp_obs::span!(
                acmp_obs::names::TRACE_LOAD_GENERATE,
                benchmark = benchmark.name()
            );
            for tid in 0..=self.generator.num_workers {
                let trace = generator.generate_thread_into(tid, records);
                streams.push(Arc::new(Machine::decode_thread(config, &trace)));
                records = trace.into_records();
            }
        }
        self.spare_records.lock().push(records);
        self.count_generated();
        streams.into()
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
    pub fn run_grid(&self, benchmarks: &[Benchmark], designs: &[DesignPoint]) -> SweepOutcome {
        self.run_grid_with(benchmarks, designs, |_| {})
    }

    /// [`run_grid`](Self::run_grid) with a per-row completion callback.
    ///
    /// `on_row` is invoked from the worker thread that finished the cell,
    /// as soon as it finishes — this is how the CLI streams live progress.
    pub fn run_grid_with<C>(
        &self,
        benchmarks: &[Benchmark],
        designs: &[DesignPoint],
        on_row: C,
    ) -> SweepOutcome
    where
        C: Fn(&SweepRow) + Sync,
    {
        let jobs: Vec<SweepJob> = benchmarks
            .iter()
            .flat_map(|&benchmark| {
                designs.iter().map(move |design| SweepJob {
                    benchmark,
                    design: design.clone(),
                })
            })
            .collect();
        self.run_jobs_with(jobs, on_row)
    }

    /// Runs an explicit job list on the pool, returning rows in input order.
    pub fn run_jobs(&self, jobs: Vec<SweepJob>) -> SweepOutcome {
        self.run_jobs_with(jobs, |_| {})
    }

    /// [`run_jobs`](Self::run_jobs) with a per-row completion callback.
    pub fn run_jobs_with<C>(&self, jobs: Vec<SweepJob>, on_row: C) -> SweepOutcome
    where
        C: Fn(&SweepRow) + Sync,
    {
        // Cells owned by other shards are dropped here, before anything is
        // scheduled: a shard neither simulates them nor prefetches streams
        // a foreign-only benchmark would need.
        let keyed: Vec<(SweepJob, JobKey)> = jobs
            .into_iter()
            .map(|job| {
                let key = job.key(&self.generator);
                (job, key)
            })
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
        // trace-free.  `store.contains` answers from the verified segment
        // index, so a corrupt or key-mismatched entry reads as absent here
        // and its benchmark keeps its prefetch job — trusting an unverified
        // existence check used to let exactly such an entry miss at
        // simulate time and stampede every worker into regenerating the
        // same trace set concurrently.
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
        self.pool.run(need_streams, |job| {
            let config = job.design.acmp_config(self.simulated_workers());
            self.streams(job.benchmark, &config);
        });

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

    fn small_engine() -> SweepEngine {
        SweepEngine::new(GeneratorConfig {
            num_workers: 2,
            parallel_instructions_per_thread: 5_000,
            num_phases: 1,
            seed: 3,
        })
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
        let engine = small_engine().with_threads(3);
        let benchmarks = [Benchmark::Cg, Benchmark::Is];
        let designs = [DesignPoint::baseline(), DesignPoint::proposed()];
        let outcome = engine.run_grid(&benchmarks, &designs);
        assert_eq!(outcome.rows.len(), 4);
        assert_eq!(outcome.pool.jobs, 4);
        assert_eq!(engine.stats().trace_generated, 2);
        assert!(engine.traces.is_empty(), "a grid keeps no trace set alive");
        // Two benchmarks on two decoding workers: one or two record
        // vectors, each kept for reuse rather than freed.
        let spare = engine.spare_records.lock().len();
        assert!((1..=2).contains(&spare), "{spare} spare record vectors");
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
                let engine = small_engine().with_shard(shard);
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

        let cold = small_engine().with_disk_store(&dir).unwrap();
        let a = cold.simulate(Benchmark::Cg, &DesignPoint::baseline());
        assert_eq!(cold.stats().disk_hits, 0);

        // A fresh engine (fresh memory cache) over the same store.
        let warm = small_engine().with_disk_store(&dir).unwrap();
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

        let cold = small_engine().with_disk_store(&dir).unwrap();
        let cold_rows = cold.run_grid(&benchmarks, &designs);
        assert_eq!(cold.stats().trace_generated, 2, "one per benchmark");
        // The store holds results only: one entry per cell, no trace sets.
        assert_eq!(cold.stats().store.unwrap().entries, 4);

        // A fresh engine (fresh process stand-in) over the same store: all
        // cells hit the disk store, so no traces are generated.
        let warm = small_engine().with_disk_store(&dir).unwrap();
        let warm_rows = warm.run_grid(&benchmarks, &designs);
        let stats = warm.stats();
        assert_eq!(stats.simulated, 0);
        assert_eq!(stats.trace_generated, 0, "fully warm runs skip traces");
        let cold_jsonl: Vec<String> = cold_rows.rows.iter().map(SweepRow::to_jsonl).collect();
        let warm_jsonl: Vec<String> = warm_rows.rows.iter().map(SweepRow::to_jsonl).collect();
        assert_eq!(cold_jsonl, warm_jsonl);

        // A partially warm grid (one new design) regenerates the traces of
        // exactly the benchmarks whose new cells it simulates.
        let wider = small_engine().with_disk_store(&dir).unwrap();
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
    fn corrupt_result_entries_resimulate_with_one_trace_generation() {
        let dir = store_dir("corrupt-result");
        let benchmarks = [Benchmark::Cg];
        let designs = [DesignPoint::baseline(), DesignPoint::proposed()];
        let cold = small_engine().with_disk_store(&dir).unwrap();
        let cold_rows = cold.run_grid(&benchmarks, &designs);

        // Corrupt both result entries, which is the whole store.
        assert_eq!(corrupt_records(&dir, |_| true), 2);

        let warm = small_engine()
            .with_threads(4)
            .with_disk_store(&dir)
            .unwrap();
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
        let cold = small_engine().with_disk_store(&dir).unwrap();
        cold.run_grid(&benchmarks, &designs);

        // Corrupt every result record.
        assert_eq!(corrupt_records(&dir, |_| true), 3);

        let warm = small_engine()
            .with_threads(4)
            .with_disk_store(&dir)
            .unwrap();
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
    fn run_per_benchmark_preserves_order() {
        let engine = small_engine();
        let out = engine.run_per_benchmark(&[Benchmark::Cg, Benchmark::Lu], |b| b.name().len());
        assert_eq!(out, vec![(Benchmark::Cg, 2), (Benchmark::Lu, 2)]);
    }
}
