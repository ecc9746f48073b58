//! The traced run (`--trace 1`): per-layer metrics for one workload.
//!
//! The benchmark times each public call from its own code.  A traced grid
//! pass drives the engine call by call (`SweepEngine::traces`, then
//! `SweepEngine::simulate` per cell, on the same two-thread fan-out the
//! pool uses); afterwards, outside the pass's wall time, it calls each
//! inner layer separately on the same inputs (`TraceGenerator::generate`,
//! `write_trace_set_json`, `DiskStore::save`/`load`, `Machine::run`).  A
//! layer's self time is its call time minus the calls beneath it.  The
//! simulator's inner layers are estimated: isolated replay ns per op times
//! the simulated op count.  The program's own spans are not used; only
//! `acmp-obs` counters are read.

use crate::client::{self, render};
use crate::layers::{
    add_sim_counts, add_sim_replays, finish_sim_layers, replay_records, Layers, Sample,
};
use crate::stats::median_or_zero;
use crate::timed::{
    build_fixture, checked_pass, checked_warm_pass, cold_server_start, describe_served,
    remove_index, served_figures, Checker, Fixture, MAX_SERVED, MIN_SERVED,
};
use crate::workload::{fan_out, query_tokens, Scratch, Workload, POOL_WORKERS, QUERY_MIX};
use crate::Outcome;
use acmp_obs::names;
use acmp_store::{Catalog, CatalogSource, DiskStore, EpochCache};
use acmp_sweep::serve::parse_query_tokens;
use acmp_sweep::{EngineStats, GridSpec, JobKey, SweepEngine, SweepJob, SweepRow};
use hpc_workloads::{Benchmark, GeneratorConfig, TraceGenerator};
use sim_acmp::{Machine, SimResult};
use sim_trace::write_trace_set_json;
use std::collections::BTreeMap;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fewest traced passes per run.
const MIN_TRACED: usize = 2;

/// Decomposed server starts in a `warm_reads` traced run.
const SETUP_REPEATS: usize = 3;

/// The layers whose self times partition the engine's time in a grid
/// pass.  Their sum is what the reconciliation guard checks.
const SELF_TIMES_MS: [&str; 9] = [
    "acmp-sweep.self_ms",
    "acmp-store.open_ms",
    "acmp-store.append_ms",
    "hpc-workloads.generate_ms",
    "sim-trace.encode_ms",
    "sim-acmp.self_ms",
    "sim-cache.est_ms",
    "sim-interconnect.est_ms",
    "sim-frontend.est_ms",
];

fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

fn us(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e6
}

fn other(e: impl std::fmt::Display) -> io::Error {
    io::Error::other(e.to_string())
}

fn counter(name: &str) -> f64 {
    acmp_obs::registry().snapshot().counter(name) as f64
}

/// Workers × wall time against the layer self times that cover it.
#[derive(Debug, Default)]
struct Accounting {
    capacity_ms: f64,
    covered_ms: f64,
    violated: bool,
}

impl Accounting {
    /// Adds one stretch of work: `workers` threads for `wall_ms`, of which
    /// layer self times cover `covered_ms`.  Covering more than the
    /// capacity means some nesting was counted twice.
    fn add(&mut self, workers: usize, wall_ms: f64, covered_ms: f64) {
        let capacity = workers as f64 * wall_ms;
        self.violated |= covered_ms > capacity * (1.0 + 1e-9);
        self.capacity_ms += capacity;
        self.covered_ms += covered_ms;
    }

    fn unattributed_frac(&self) -> f64 {
        if self.capacity_ms > 0.0 {
            1.0 - self.covered_ms / self.capacity_ms
        } else {
            0.0
        }
    }
}

/// Per-call timings: total microseconds and call count per name.
#[derive(Debug, Default)]
struct Calls(BTreeMap<&'static str, (f64, u64)>);

impl Calls {
    fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let result = f();
        let entry = self.0.entry(name).or_default();
        entry.0 += us(start);
        entry.1 += 1;
        result
    }

    fn mean_us(&self, name: &str) -> f64 {
        self.0
            .get(name)
            .map_or(0.0, |(total, n)| total / (*n).max(1) as f64)
    }

    fn total_us(&self) -> f64 {
        self.0.values().map(|(total, _)| total).sum()
    }

    /// Records each name's mean per call, in the unit its name ends with.
    fn record_means(&self, layers: &mut Layers) {
        for name in self.0.keys() {
            let mean = self.mean_us(name);
            layers.record(
                name,
                if name.ends_with("_ms") {
                    mean / 1e3
                } else {
                    mean
                },
            );
        }
    }
}

/// Where a traced pass keeps its results.
enum StoreMode<'a> {
    /// No store (`paper_sim`).
    None,
    /// A fresh empty store for the engine and another for the isolated
    /// calls (`cold_sweep`).
    Cold { engine: PathBuf, isolated: PathBuf },
    /// The fixture, already holding every cell (`warm_reads`).
    Warm(&'a Path),
}

/// One traced grid pass and its isolated inner calls.
struct TracedPass {
    sample: Sample,
    wall_ms: f64,
    covered_ms: f64,
    rows: Vec<String>,
    stats: EngineStats,
    /// The isolated calls reproduced the engine's inputs and outputs.
    inputs_ok: bool,
}

/// Bytes of the segment files `DiskStore::open` scans under `dir`.
fn segment_bytes(dir: &Path) -> f64 {
    acmp_store::segment::list_segments(dir)
        .map(|found| {
            found
                .iter()
                .filter_map(|(_, path)| std::fs::metadata(path).ok())
                .map(|m| m.len() as f64)
                .sum()
        })
        .unwrap_or(0.0)
}

fn timed_open(s: &mut Sample, dir: &Path) -> io::Result<DiskStore> {
    let start = Instant::now();
    let store = DiskStore::open(dir)?;
    s.add("acmp-store.open_ms", ms(start));
    Ok(store)
}

/// Times one `DiskStore::load` (whose result `load` reports as found or
/// not) and then one `DiskStore::refresh`, which every miss runs.
fn timed_load(s: &mut Sample, store: &DiskStore, load: impl FnOnce() -> bool) -> bool {
    let start = Instant::now();
    let found = load();
    s.add("load.us", us(start));
    s.add("acmp-store.loads", 1.0);
    let start = Instant::now();
    store.refresh();
    s.add("refresh.us", us(start));
    s.add("refresh.calls", 1.0);
    found
}

fn timed_save<E: std::fmt::Display>(
    s: &mut Sample,
    store: &DiskStore,
    save: impl FnOnce() -> Result<(), E>,
) -> io::Result<()> {
    let before = store.stats().live_bytes;
    let start = Instant::now();
    save().map_err(other)?;
    s.add("acmp-store.append_ms", ms(start));
    s.add("acmp-store.appends", 1.0);
    s.add(
        "acmp-store.append_bytes",
        store.stats().live_bytes.saturating_sub(before) as f64,
    );
    Ok(())
}

/// The calls beneath `SweepEngine::traces` for `b`, made separately: the
/// store miss, generation, encoding and append.  Returns their sample and
/// whether they reproduced the engine's trace set.
fn isolate_traces(
    engine: &SweepEngine,
    generator: GeneratorConfig,
    b: Benchmark,
    store: Option<&DiskStore>,
) -> io::Result<(Sample, bool)> {
    let mut s = Sample::default();
    let mut ok = true;
    let traces = engine.traces(b);
    let key = JobKey::for_traces(&generator, b);
    if let Some(store) = store {
        ok &= !timed_load(&mut s, store, || store.load::<String>(&key).is_some());
    }
    let start = Instant::now();
    let set = TraceGenerator::new(b.profile(), generator).generate();
    s.add("hpc-workloads.generate_ms", ms(start));
    s.add("generate.instructions", set.total_instructions() as f64);
    ok &= set == *traces;
    if let Some(store) = store {
        let start = Instant::now();
        let mut buf = Vec::new();
        write_trace_set_json(&set, &mut buf).map_err(other)?;
        s.add("sim-trace.encode_ms", ms(start));
        s.add("sim-trace.encoded_bytes", buf.len() as f64);
        let text = String::from_utf8(buf).map_err(other)?;
        timed_save(&mut s, store, || store.save(&key, &text))?;
    }
    let replay = replay_records(&traces);
    s.add("replay.record_ns", replay.ns);
    s.add("replay.records", replay.ops as f64);
    Ok((s, ok))
}

/// The calls beneath `SweepEngine::simulate` for one cell, made
/// separately: a warm cell's load, or a cold cell's store miss,
/// `Machine::run`, simulator replays and append.  Returns their sample and
/// whether they reproduced the engine's result.
fn isolate_cell(
    engine: &SweepEngine,
    generator: GeneratorConfig,
    job: &SweepJob,
    key: &JobKey,
    result: &SimResult,
    store: Option<&DiskStore>,
    warm: bool,
) -> io::Result<(Sample, bool)> {
    let mut s = Sample::default();
    if warm {
        let store = store.ok_or_else(|| other("a warm pass reads a store"))?;
        let mut loaded = None;
        timed_load(&mut s, store, || {
            loaded = store.load::<SimResult>(key);
            loaded.is_some()
        });
        return Ok((s, loaded.as_ref() == Some(result)));
    }
    let mut ok = true;
    let traces = engine.traces(job.benchmark);
    let config = job.design.acmp_config(generator.num_workers);
    if let Some(store) = store {
        ok &= !timed_load(&mut s, store, || store.load::<SimResult>(key).is_some());
    }
    let start = Instant::now();
    let rerun = Machine::with_shared_traces(config, Arc::clone(&traces)).run();
    s.add("sim-acmp.run_ms", ms(start));
    ok &= rerun.as_ref().ok() == Some(result);
    add_sim_counts(&mut s, &config, result);
    add_sim_replays(&mut s, &config, &traces);
    if let Some(store) = store {
        timed_save(&mut s, store, || store.save(key, result))?;
    }
    Ok((s, ok))
}

fn traced_pass(
    generator: GeneratorConfig,
    grid: &GridSpec,
    mode: &StoreMode,
) -> io::Result<TracedPass> {
    let mut s = Sample::default();
    let start = Instant::now();
    let mut builder = SweepEngine::builder(generator).workers(POOL_WORKERS);
    match mode {
        StoreMode::None => {}
        StoreMode::Cold { engine, .. } => builder = builder.store_dir(engine),
        StoreMode::Warm(dir) => builder = builder.store_dir(*dir),
    }
    let engine = builder.build()?;
    let build_ms = ms(start);
    let jobs = grid.jobs();
    let keys: Vec<JobKey> = jobs.iter().map(|job| job.key(&generator)).collect();
    // As the engine does: traces only for benchmarks with a cell not on disk.
    let mut need: Vec<Benchmark> = jobs
        .iter()
        .zip(&keys)
        .filter(|(_, key)| !engine.store().is_some_and(|store| store.contains(*key)))
        .map(|(job, _)| job.benchmark)
        .collect();
    need.sort_unstable();
    need.dedup();
    let traces_ms: f64 = fan_out(&need, |&b| {
        let start = Instant::now();
        engine.traces(b);
        ms(start)
    })
    .iter()
    .sum();
    let cells: Vec<(f64, Arc<SimResult>)> = fan_out(&jobs, |job| {
        let start = Instant::now();
        let result = engine.simulate(job.benchmark, &job.design);
        (ms(start), result)
    });
    let wall_ms = ms(start);
    let stats = engine.stats();
    let simulate_ms: f64 = cells.iter().map(|(t, _)| t).sum();
    let rows = jobs
        .iter()
        .zip(&keys)
        .zip(&cells)
        .map(|((job, key), (_, result))| {
            SweepRow {
                benchmark: job.benchmark,
                design: job.design.clone(),
                key: key.hex(),
                result: Arc::clone(result),
            }
            .to_jsonl()
        })
        .collect();
    s.add("acmp-sweep.traces_ms", traces_ms);
    s.add("acmp-sweep.simulate_ms", simulate_ms);
    s.set("acmp-sweep.simulated", stats.simulated as f64);
    s.set("acmp-sweep.disk_hits", stats.disk_hits as f64);
    s.set("acmp-sweep.trace_generated", stats.trace_generated as f64);
    s.set(
        "acmp-sweep.disk_hit_ratio",
        stats.disk_hits as f64 / jobs.len() as f64,
    );

    // The inner layers, called separately on the same inputs.
    let mut inputs_ok = true;
    let isolated = match mode {
        StoreMode::None => None,
        StoreMode::Cold { isolated, .. } => Some(timed_open(&mut s, isolated)?),
        StoreMode::Warm(dir) => {
            s.set("acmp-store.open_bytes", segment_bytes(dir));
            Some(timed_open(&mut s, dir)?)
        }
    };
    // On the pass's two-thread fan-out, so each isolated call meets the
    // same contention as its in-pass counterpart.
    let store = isolated.as_ref();
    let warm = matches!(mode, StoreMode::Warm(_));
    let cell_inputs: Vec<(&SweepJob, &JobKey, &SimResult)> = jobs
        .iter()
        .zip(&keys)
        .zip(&cells)
        .map(|((job, key), (_, result))| (job, key, result.as_ref()))
        .collect();
    let per_benchmark = fan_out(&need, |&b| isolate_traces(&engine, generator, b, store));
    let per_cell = fan_out(&cell_inputs, |&(job, key, result)| {
        isolate_cell(&engine, generator, job, key, result, store, warm)
    });
    for part in per_benchmark.into_iter().chain(per_cell) {
        let (part, ok) = part?;
        s.merge(&part);
        inputs_ok &= ok;
    }
    finish_sim_layers(&mut s);
    let instructions = s.get("generate.instructions");
    s.set_ratio(
        "hpc-workloads.ns_per_instr",
        s.get("hpc-workloads.generate_ms") * 1e6,
        instructions,
    );
    s.set_ratio(
        "sim-trace.replay_ns_per_record",
        s.get("replay.record_ns"),
        s.get("replay.records"),
    );
    let load_ms = s.get("load.us") / 1e3;
    s.set_ratio(
        "acmp-store.load_us",
        s.get("load.us"),
        s.get("acmp-store.loads"),
    );
    s.set_ratio(
        "acmp-store.refresh_us",
        s.get("refresh.us"),
        s.get("refresh.calls"),
    );
    for scratch in [
        "generate.instructions",
        "replay.record_ns",
        "replay.records",
        "load.us",
        "refresh.us",
        "refresh.calls",
    ] {
        s.0.remove(scratch);
    }
    let children_ms = s.get("acmp-store.open_ms")
        + s.get("hpc-workloads.generate_ms")
        + s.get("sim-trace.encode_ms")
        + s.get("acmp-store.append_ms")
        + load_ms
        + s.get("sim-acmp.run_ms");
    s.set(
        "acmp-sweep.self_ms",
        build_ms + traces_ms + simulate_ms - children_ms,
    );
    let covered_ms = SELF_TIMES_MS.iter().map(|name| s.get(name)).sum::<f64>() + load_ms;
    Ok(TracedPass {
        sample: s,
        wall_ms,
        covered_ms,
        rows,
        stats,
        inputs_ok,
    })
}

/// Runs `workload` traced for about `seconds` and reports every per-layer
/// metric.
#[must_use]
pub fn run(workload: Workload, seed: u64, seconds: f64, scratch: &Scratch) -> Outcome {
    let mut out = Outcome::default();
    let mut layers = Layers::default();
    match workload {
        Workload::ColdSweep | Workload::PaperSim => {
            traced_grid(workload, seed, seconds, scratch, &mut out, &mut layers);
        }
        Workload::WarmReads => traced_warm(seed, seconds, scratch, &mut out, &mut layers),
    }
    for (name, unit) in crate::layers::PER_LAYER {
        out.metric(name, layers.value(name), unit, layers.samples(name));
    }
    out
}

/// Records the reconciliation figures and counts the guard as one check.
fn reconcile(
    acct: &Accounting,
    traced_ms: &[f64],
    untraced_ms: &[f64],
    layers: &mut Layers,
    out: &mut Outcome,
) {
    layers.record("reconcile.unattributed_frac", acct.unattributed_frac());
    let untraced = median_or_zero(untraced_ms);
    if untraced > 0.0 {
        layers.record(
            "reconcile.trace_overhead_frac",
            median_or_zero(traced_ms) / untraced - 1.0,
        );
    }
    out.op(!acct.violated);
    out.detail(
        "reconcile_guard",
        if acct.violated { "violated" } else { "ok" },
    );
}

fn deadline(seconds: f64, share: f64) -> Instant {
    Instant::now() + Duration::from_secs_f64(seconds * share)
}

fn traced_grid(
    workload: Workload,
    seed: u64,
    seconds: f64,
    scratch: &Scratch,
    out: &mut Outcome,
    layers: &mut Layers,
) {
    let generator = workload.generator(seed);
    let grid = workload.grid();
    let mut checker = Checker::new(workload, seed);
    // A first pass absorbs the process's one-time costs: checked, not timed.
    let _ = checked_pass(workload, generator, &grid, scratch, &mut checker, out);
    let (mut untraced, mut steals, mut bytes) = (Vec::new(), Vec::new(), Vec::new());
    let end = deadline(seconds, 0.3);
    let mut attempts = 0;
    while attempts < MIN_TRACED || Instant::now() < end {
        attempts += 1;
        if let Some(checked) = checked_pass(workload, generator, &grid, scratch, &mut checker, out)
        {
            untraced.push(checked.pass.secs * 1e3);
            steals.push(checked.pass.pool.steals as f64);
            bytes.push(checked.store_bytes as f64);
        }
    }
    let (mut traced, mut acct) = (Vec::new(), Accounting::default());
    let end = deadline(seconds, 0.7);
    let mut attempts = 0;
    while attempts < MIN_TRACED || Instant::now() < end {
        attempts += 1;
        let mode = if workload.uses_store() {
            StoreMode::Cold {
                engine: scratch.fresh("store"),
                isolated: scratch.fresh("isolated"),
            }
        } else {
            StoreMode::None
        };
        let result = catch_unwind(AssertUnwindSafe(|| traced_pass(generator, &grid, &mode)));
        if let StoreMode::Cold { engine, isolated } = &mode {
            let _ = std::fs::remove_dir_all(engine);
            let _ = std::fs::remove_dir_all(isolated);
        }
        let Ok(Ok(pass)) = result else {
            out.op(false);
            continue;
        };
        out.op(checker.pass_ok(&pass.rows, &pass.stats, false) && pass.inputs_ok);
        layers.record_all(&pass.sample);
        traced.push(pass.wall_ms);
        acct.add(POOL_WORKERS, pass.wall_ms, pass.covered_ms);
    }
    layers.record("acmp-sweep.pool_steals", median_or_zero(&steals));
    if workload.uses_store() {
        layers.record("store_bytes", median_or_zero(&bytes));
    }
    out.detail("output_digest", checker.digest());
    out.detail("golden_checked", checker.has_golden());
    reconcile(&acct, &traced, &untraced, layers, out);
}

/// What a cold `Server::start` does, call by call: open, scan-built
/// catalog (counting its value reads), persist.
fn setup_layers(dir: &Path, layers: &mut Layers) -> io::Result<()> {
    let start = Instant::now();
    let store = DiskStore::open(dir)?;
    layers.record("acmp-store.open_ms", ms(start));
    layers.record("acmp-store.open_bytes", segment_bytes(dir));
    acmp_obs::enable_metrics();
    let reads = counter(names::STORE_VALUE_READS);
    let start = Instant::now();
    let catalog = Catalog::open(&store);
    let build_ms = ms(start);
    let reads = counter(names::STORE_VALUE_READS) - reads;
    acmp_obs::disable_all();
    let catalog = catalog?;
    if catalog.source() != CatalogSource::Scan {
        return Err(other("the index was not rebuilt by scan"));
    }
    layers.record("acmp-store.index_build_ms", build_ms);
    layers.record("acmp-store.index_value_reads", reads);
    let start = Instant::now();
    catalog.persist(&store)?;
    layers.record("acmp-store.index_persist_ms", ms(start));
    Ok(())
}

/// The CLI-path phase, call by call.  Returns each query's ms and the
/// phase's (wall, covered) time in ms.
fn traced_cli_phase(
    fixture: &Fixture,
    end: Instant,
    calls: &mut Calls,
    out: &mut Outcome,
) -> (Vec<f64>, f64, f64) {
    let mut per_query = Vec::new();
    let covered_before = calls.total_us();
    let mut i = 0;
    while i < QUERY_MIX.len() || Instant::now() < end {
        let case = i % QUERY_MIX.len();
        i += 1;
        let start = Instant::now();
        let answer = (|| -> io::Result<String> {
            let tokens = query_tokens(QUERY_MIX[case]);
            let query = calls
                .time("acmp-sweep.serve_parse_us", || parse_query_tokens(&tokens))
                .map_err(other)?;
            let store = calls.time("acmp-store.cli_open_ms", || DiskStore::open(&fixture.dir))?;
            let catalog = calls.time("acmp-store.catalog_open_ms", || Catalog::open(&store))?;
            if catalog.source() != CatalogSource::Index {
                return Err(other("the CLI path did not load the persisted index"));
            }
            calls
                .time("acmp-store.validate_us", || catalog.validate_query(&query))
                .map_err(other)?;
            let hits = calls.time("acmp-store.query_us", || catalog.query(&query));
            Ok(calls.time("acmp-sweep.render_us", || render(&hits, &query.by)))
        })();
        per_query.push(ms(start));
        out.op(matches!(answer, Ok(ref body) if *body == fixture.expected[case]));
    }
    let covered_ms = (calls.total_us() - covered_before) / 1e3;
    let wall_ms = per_query.iter().sum();
    (per_query, wall_ms, covered_ms)
}

/// The serve path's calls in isolation, on an epoch cache of its own over
/// the same store, until `end`.  Returns the mean in-process answer time
/// in µs (parse, epoch, validate, query, render).
fn serve_calls(fixture: &Fixture, end: Instant, calls: &mut Calls) -> io::Result<f64> {
    let cache = EpochCache::new(DiskStore::open(&fixture.dir)?);
    cache.current()?;
    let mut i = 0;
    while i < QUERY_MIX.len() || Instant::now() < end {
        let case = i % QUERY_MIX.len();
        i += 1;
        let tokens = query_tokens(QUERY_MIX[case]);
        let query = calls
            .time("acmp-sweep.serve_parse_us", || parse_query_tokens(&tokens))
            .map_err(other)?;
        let epoch = calls.time("acmp-store.epoch_current_us", || cache.current())?;
        calls.time("acmp-store.refresh_us", || cache.store().refresh());
        let snapshot = calls.time("acmp-store.snapshot_us", || cache.store().snapshot())?;
        calls.time("acmp-store.fingerprint_us", || {
            acmp_store::index::snapshot_fingerprint(&snapshot)
        });
        let catalog = epoch.catalog();
        calls
            .time("acmp-store.validate_us", || catalog.validate_query(&query))
            .map_err(other)?;
        let hits = calls.time("acmp-store.query_us", || catalog.query(&query));
        let body = calls.time("acmp-sweep.render_us", || render(&hits, &query.by));
        if body != fixture.expected[case] {
            return Err(other("an isolated serve-path answer differs"));
        }
    }
    Ok([
        "acmp-sweep.serve_parse_us",
        "acmp-store.epoch_current_us",
        "acmp-store.validate_us",
        "acmp-store.query_us",
        "acmp-sweep.render_us",
    ]
    .iter()
    .map(|name| calls.mean_us(name))
    .sum())
}

fn traced_warm(seed: u64, seconds: f64, scratch: &Scratch, out: &mut Outcome, layers: &mut Layers) {
    let workload = Workload::WarmReads;
    let generator = workload.generator(seed);
    let grid = workload.grid();
    let mut checker = Checker::new(workload, seed);
    let Some(fixture) = build_fixture(generator, &grid, scratch, &mut checker, out) else {
        return;
    };
    layers.record("store_bytes", fixture.bytes as f64);
    let mut server = None;
    for _ in 0..SETUP_REPEATS {
        remove_index(&fixture.dir);
        out.op(setup_layers(&fixture.dir, layers).is_ok());
        match cold_server_start(&fixture.dir) {
            Ok((started, _)) => server = Some(started),
            Err(_) => out.op(false),
        }
    }
    let Some(server) = server else {
        return;
    };

    // Phase 1: warm re-runs, untraced and then traced.
    let (mut untraced, mut steals) = (Vec::new(), Vec::new());
    let end = deadline(seconds, 0.15);
    let mut attempts = 0;
    while attempts < MIN_TRACED || Instant::now() < end {
        attempts += 1;
        if let Some(pass) = checked_warm_pass(generator, &grid, &fixture.dir, &mut checker, out) {
            untraced.push(pass.secs * 1e3);
            steals.push(pass.pool.steals as f64);
        }
    }
    let (mut traced, mut acct) = (Vec::new(), Accounting::default());
    let end = deadline(seconds, 0.25);
    let mut attempts = 0;
    while attempts < MIN_TRACED || Instant::now() < end {
        attempts += 1;
        let mode = StoreMode::Warm(&fixture.dir);
        let Ok(Ok(pass)) = catch_unwind(AssertUnwindSafe(|| traced_pass(generator, &grid, &mode)))
        else {
            out.op(false);
            continue;
        };
        out.op(checker.pass_ok(&pass.rows, &pass.stats, true) && pass.inputs_ok);
        layers.record_all(&pass.sample);
        traced.push(pass.wall_ms);
        acct.add(POOL_WORKERS, pass.wall_ms, pass.covered_ms);
    }
    layers.record("acmp-sweep.pool_steals", median_or_zero(&steals));

    // Phases 2 and 3 also count value reads, epoch rolls and disconnects.
    acmp_obs::enable_metrics();
    let counters = [
        names::STORE_VALUE_READS,
        names::STORE_EPOCH_ROLLS,
        names::SERVE_CLIENT_DISCONNECTS,
    ];
    let before: Vec<f64> = counters.iter().map(|name| counter(name)).collect();
    let mut calls = Calls::default();
    let (cli_ms, cli_wall_ms, cli_covered_ms) =
        traced_cli_phase(&fixture, deadline(seconds, 0.15), &mut calls, out);
    acct.add(1, cli_wall_ms, cli_covered_ms);
    let served = client::serve_phase(
        server.local_addr(),
        &QUERY_MIX,
        &fixture.expected,
        deadline(seconds, 0.2),
        MIN_SERVED,
        MAX_SERVED,
    );
    out.ops(served.log.attempted(), served.log.failures());
    let answer_us = serve_calls(&fixture, deadline(seconds, 0.1), &mut calls);
    out.op(answer_us.is_ok());
    let delta: Vec<f64> = counters
        .iter()
        .zip(&before)
        .map(|(name, b)| counter(name) - b)
        .collect();
    acmp_obs::disable_all();
    drop(server);

    let (p50, p99, qps) = served_figures(&served);
    calls.0.remove("acmp-store.cli_open_ms");
    calls.record_means(layers);
    layers.record("acmp-store.query_value_reads", delta[0]);
    layers.record("acmp-store.epoch_rolls", delta[1]);
    layers.record("acmp-sweep.serve_disconnects", delta[2]);
    out.op(delta[0] == 0.0);
    layers.record("cli_query_ms", median_or_zero(&cli_ms));
    layers.record("query_ms_p50", p50);
    layers.record("query_ms_p99", p99);
    layers.record("queries_per_s", qps);
    if let Ok(answer_us) = answer_us {
        layers.record("acmp-sweep.serve_transport_us", p50 * 1e3 - answer_us);
    }
    out.detail("output_digest", checker.digest());
    out.detail("golden_checked", checker.has_golden());
    describe_served(&served, out);
    reconcile(&acct, &traced, &untraced, layers, out);
}
