//! Integration: the sweep engine is deterministic and warm-startable.
//!
//! The determinism contract: running the same grid twice — in the same
//! process, in a fresh process, or with a different worker count — yields
//! byte-identical JSONL rows modulo row order (rows are sorted by job key
//! before comparing).

use acmp_store::segment::{scan_record_parts, SegmentName};
use acmp_store::{Catalog, CatalogSource, DiskStore};
use acmp_sweep::merge::{merge_validated, shard_key_schedule, validate_shard_stream};
use acmp_sweep::serve::parse_query_tokens;
use acmp_sweep::{scale_generator, DesignPoint, GridSpec, JobKey, ShardSpec, SweepEngine};
use hpc_workloads::{Benchmark, GeneratorConfig};
use sim_acmp::SimResult;
use sim_trace::write_trace_set_json;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

fn tiny_generator() -> GeneratorConfig {
    GeneratorConfig {
        num_workers: 2,
        parallel_instructions_per_thread: 5_000,
        num_phases: 1,
        seed: 11,
    }
}

fn grid() -> (Vec<Benchmark>, Vec<DesignPoint>) {
    (
        vec![Benchmark::Cg, Benchmark::Lu, Benchmark::Ua],
        vec![
            DesignPoint::baseline(),
            DesignPoint::naive_shared(2).expect("valid core count"),
            DesignPoint::proposed(),
        ],
    )
}

/// The JSONL rows of `benchmarks × designs` on `engine`, sorted by job key.
fn sorted_rows(
    engine: &SweepEngine,
    benchmarks: &[Benchmark],
    designs: &[DesignPoint],
) -> Vec<String> {
    let mut rows: Vec<String> = engine
        .run_grid(benchmarks, designs)
        .rows
        .iter()
        .map(|r| r.to_jsonl())
        .collect();
    rows.sort_unstable();
    rows
}

/// The grid's JSONL rows, sorted by job key.
fn sorted_jsonl(engine: &SweepEngine) -> Vec<String> {
    let (benchmarks, designs) = grid();
    sorted_rows(engine, &benchmarks, &designs)
}

#[test]
fn same_grid_twice_is_byte_identical() {
    let engine = SweepEngine::builder(tiny_generator()).build().unwrap();
    let first = sorted_jsonl(&engine);
    let second = sorted_jsonl(&engine);
    assert_eq!(first.len(), 9);
    assert_eq!(first, second);
}

#[test]
fn worker_count_does_not_change_the_rows() {
    let serial = sorted_jsonl(
        &SweepEngine::builder(tiny_generator())
            .workers(1)
            .build()
            .unwrap(),
    );
    let parallel = sorted_jsonl(
        &SweepEngine::builder(tiny_generator())
            .workers(8)
            .build()
            .unwrap(),
    );
    assert_eq!(
        serial, parallel,
        "scheduling must never leak into simulation results"
    );
}

#[test]
fn disk_store_round_trip_preserves_the_rows() {
    let dir = std::env::temp_dir().join(format!("acmp-sweep-integration-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let cold = SweepEngine::builder(tiny_generator())
        .store_dir(&dir)
        .build()
        .unwrap();
    let cold_rows = sorted_jsonl(&cold);
    assert_eq!(cold.stats().disk_hits, 0);
    assert_eq!(cold.stats().simulated, 9);

    // A fresh engine over the same store: everything is served from disk,
    // and the JSONL is byte-identical to the cold run.
    let warm = SweepEngine::builder(tiny_generator())
        .store_dir(&dir)
        .build()
        .unwrap();
    let warm_rows = sorted_jsonl(&warm);
    assert_eq!(warm.stats().simulated, 0, "warm run must not re-simulate");
    assert_eq!(warm.stats().disk_hits, 9);
    assert_eq!(cold_rows, warm_rows);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warm_engine_does_zero_trace_generation_across_processes() {
    let dir = std::env::temp_dir().join(format!(
        "acmp-sweep-integration-traces-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);

    let cold = SweepEngine::builder(tiny_generator())
        .store_dir(&dir)
        .build()
        .unwrap();
    let cold_rows = sorted_jsonl(&cold);
    assert_eq!(cold.stats().trace_generated, 3, "one per benchmark");

    // A fresh engine is a stand-in for a fresh process: nothing in memory,
    // everything from the segment store — no simulations and no trace
    // generation (warm cells never touch traces).
    let warm = SweepEngine::builder(tiny_generator())
        .store_dir(&dir)
        .build()
        .unwrap();
    let warm_rows = sorted_jsonl(&warm);
    assert_eq!(warm.stats().simulated, 0);
    assert_eq!(warm.stats().trace_generated, 0);
    assert_eq!(cold_rows, warm_rows);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compaction_preserves_rows_and_packs_the_directory() {
    let dir = std::env::temp_dir().join(format!(
        "acmp-sweep-integration-compact-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);

    let cold = SweepEngine::builder(tiny_generator())
        .store_dir(&dir)
        .build()
        .unwrap();
    let cold_rows = sorted_jsonl(&cold);

    let compacted = cold.store().unwrap().compact().unwrap();
    // 9 result cells and no trace sets, all packed: far fewer files than
    // the old one-file-per-entry layout's 9.
    assert_eq!(compacted.live_entries, 9);
    let files = std::fs::read_dir(&dir).unwrap().count();
    assert!(
        (files as u64) == compacted.segments_after && files < 9,
        "expected only packed segments, found {files} files"
    );

    // The compacted store serves a fresh engine byte-identically, still
    // with zero simulations and zero trace generations.
    let warm = SweepEngine::builder(tiny_generator())
        .store_dir(&dir)
        .build()
        .unwrap();
    let warm_rows = sorted_jsonl(&warm);
    assert_eq!(warm.stats().simulated, 0);
    assert_eq!(warm.stats().trace_generated, 0);
    assert_eq!(cold_rows, warm_rows);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sharded_engines_over_one_store_cover_the_grid_without_double_work() {
    // The multi-process contract behind `sweep --shards N`, exercised with
    // engines as process stand-ins: the same grid split 1/1, 2/2 and 3/3
    // over one disk store must union to byte-identical rows, with every
    // cell simulated exactly once across all shards of a split — and a
    // final fully-warm pass must simulate nothing and generate no traces.
    let dir = std::env::temp_dir().join(format!(
        "acmp-sweep-integration-shards-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let (benchmarks, designs) = grid();

    let mut reference: Option<Vec<String>> = None;
    for count in [1u32, 2, 3] {
        let shard_dir = dir.join(format!("split-{count}"));
        let mut union: Vec<String> = Vec::new();
        let mut simulated = 0;
        for index in 0..count {
            let engine = SweepEngine::builder(tiny_generator())
                .shard(ShardSpec::new(index, count).unwrap())
                .store_dir(&shard_dir)
                .build()
                .unwrap();
            union.extend(
                engine
                    .run_grid(&benchmarks, &designs)
                    .rows
                    .iter()
                    .map(|r| r.to_jsonl()),
            );
            simulated += engine.stats().simulated;
        }
        union.sort_unstable();
        assert_eq!(union.len(), 9, "{count} shards must cover every cell");
        assert_eq!(simulated, 9, "no cell may simulate twice across shards");
        match &reference {
            None => reference = Some(union),
            Some(want) => assert_eq!(
                &union, want,
                "a {count}-way split must merge byte-identically"
            ),
        }

        // Fully warm: a fresh unsharded engine over the store the shards
        // filled serves everything from disk.
        let warm = SweepEngine::builder(tiny_generator())
            .store_dir(&shard_dir)
            .build()
            .unwrap();
        let mut warm_rows: Vec<String> = warm
            .run_grid(&benchmarks, &designs)
            .rows
            .iter()
            .map(|r| r.to_jsonl())
            .collect();
        warm_rows.sort_unstable();
        assert_eq!(warm.stats().simulated, 0);
        assert_eq!(warm.stats().trace_generated, 0);
        assert_eq!(&warm_rows, reference.as_ref().unwrap());
    }

    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Golden snapshot: the committed fig09 fixture pins the exact JSONL bytes
// every consumer (CI byte-diffs, the merge validator, downstream tooling)
// relies on.  Cold, warm, sharded and merged runs must all reproduce it;
// any format or simulation drift fails loudly here instead of silently
// changing the output of every figure run.
// ---------------------------------------------------------------------------

/// The committed fig09 (× cg,lu, quick scale) JSONL fixture, exactly as the
/// `sweep` CLI emits it: digest-sorted rows, one trailing newline.
fn fig09_fixture() -> String {
    // This file is compiled into the `shared-icache` package (crates/core),
    // so the workspace root is two levels up from its manifest dir.
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/fig09.jsonl");
    std::fs::read_to_string(path).expect("committed fixture is readable")
}

/// The fixture grid: `--grid fig09 --benchmarks cg,lu` at the CLI's quick
/// scale.
fn fig09_grid() -> (GridSpec, GeneratorConfig) {
    let grid = GridSpec::parse("cg,lu", "fig09").unwrap();
    let generator = scale_generator("quick").unwrap();
    (grid, generator)
}

/// Runs the fixture grid on `engine` (whole or sharded) and returns the
/// CLI's byte output: digest-sorted JSONL lines, newline-terminated when
/// non-empty.
fn fig09_bytes(engine: &SweepEngine) -> String {
    let (grid, _) = fig09_grid();
    let mut text = sorted_rows(engine, &grid.benchmarks, &grid.designs).join("\n");
    if !text.is_empty() {
        text.push('\n');
    }
    text
}

#[test]
fn golden_fig09_cold_warm_sharded_and_merged_runs_match_the_fixture() {
    let fixture = fig09_fixture();
    assert_eq!(fixture.lines().count(), 6, "fixture covers 2 × 3 cells");
    let (grid, generator) = fig09_grid();
    let dir = std::env::temp_dir().join(format!("acmp-sweep-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Cold, with a store attached.
    let cold = SweepEngine::builder(generator)
        .store_dir(dir.join("store"))
        .build()
        .unwrap();
    assert_eq!(
        fig09_bytes(&cold),
        fixture,
        "cold run drifted off the fixture"
    );

    // Warm, from a fresh engine over the same store.
    let warm = SweepEngine::builder(generator)
        .store_dir(dir.join("store"))
        .build()
        .unwrap();
    assert_eq!(
        fig09_bytes(&warm),
        fixture,
        "warm run drifted off the fixture"
    );
    assert_eq!(warm.stats().simulated, 0);

    // Sharded 2-way into disjoint stores (two machines), then merged
    // offline through the validating k-way merge.
    let keys = JobKey::for_jobs(&generator, &grid.jobs());
    let schedule = shard_key_schedule(&keys, 2);
    let mut validated = Vec::new();
    for index in 0..2u32 {
        let engine = SweepEngine::builder(generator)
            .shard(ShardSpec::new(index, 2).unwrap())
            .store_dir(dir.join(format!("machine-{index}")))
            .build()
            .unwrap();
        let stream = fig09_bytes(&engine);
        for line in stream.lines() {
            assert!(
                fixture.lines().any(|fixture_line| fixture_line == line),
                "every shard row must appear verbatim in the fixture"
            );
        }
        let slot = index as usize;
        validated.push(
            validate_shard_stream(slot + 1, std::io::Cursor::new(stream), &schedule[slot]).unwrap(),
        );
    }
    let mut merged = Vec::new();
    let rows = merge_validated(&validated, &mut merged).unwrap();
    assert_eq!(rows, 6);
    assert_eq!(
        String::from_utf8(merged).unwrap(),
        fixture,
        "offline merge of per-machine streams drifted off the fixture"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// The one segment file a cold `sweep run --benchmarks cg,lu --grid fig09`
/// wrote at `12a84e3`: six result records.  Reading it pins the stored
/// format.
fn fig09_store_segment() -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures/fig09_store.seg");
    std::fs::read_to_string(path).expect("committed store segment is readable")
}

/// A fresh store directory holding only the committed fig09 segment.
fn fig09_store_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "acmp-sweep-integration-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let name = SegmentName {
        generation: 1,
        pid: 1,
        seq: 0,
    };
    std::fs::write(dir.join(name.file_name()), fig09_store_segment()).unwrap();
    dir
}

#[test]
fn the_committed_fig09_store_serves_the_grid_and_every_value_round_trips() {
    let segment = fig09_store_segment();
    let dir = fig09_store_dir("fixture-store");
    let (_, generator) = fig09_grid();
    let engine = SweepEngine::builder(generator)
        .store_dir(&dir)
        .build()
        .unwrap();
    assert_eq!(fig09_bytes(&engine), fig09_fixture());
    let stats = engine.stats();
    assert_eq!(
        (stats.simulated, stats.disk_hits, stats.trace_generated),
        (0, 6, 0)
    );

    assert_eq!(segment.lines().count(), 6);
    let mut stored = Vec::new();
    for line in segment.lines() {
        let (canonical, _, value) = scan_record_parts(line).expect("every record verifies");
        let result: SimResult = serde_json::from_str(value).unwrap();
        assert_eq!(serde_json::to_string(&result).unwrap(), value);
        stored.push(canonical);
    }

    // The keys the engine derives for the grid are the stored keys, byte
    // for byte.
    let (grid, _) = fig09_grid();
    let mut derived: Vec<String> = JobKey::for_jobs(&generator, &grid.jobs())
        .iter()
        .map(|key| key.canonical().to_string())
        .collect();
    derived.sort_unstable();
    stored.sort_unstable();
    assert_eq!(derived, stored);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Answers every query of a query-mix text from `catalog`, rendered as the
/// mix is written: one block per query, a `> TOKENS` line and then the
/// JSONL hits `sweep query TOKENS` prints.
fn answer_query_mix(catalog: &Catalog, mix: &str) -> String {
    let mut out = String::new();
    for line in mix.lines().filter_map(|line| line.strip_prefix("> ")) {
        let tokens: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        let query = parse_query_tokens(&tokens).unwrap();
        catalog.validate_query(&query).unwrap();
        out.push_str(&format!("> {line}\n"));
        for hit in catalog.query(&query) {
            out.push_str(&hit.to_jsonl(&query.by));
            out.push('\n');
        }
    }
    out
}

#[test]
fn the_query_mix_over_the_fig09_store_matches_its_fixture_from_scan_and_index() {
    // Written by `sweep query` over a store holding `fig09_store.seg`: the
    // facet, metric-range, top-k and full-ranking queries of perfbench's
    // mix, plus zero, negative and case-folded bounds and facets.
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures/fig09_query_mix.txt");
    let mix = std::fs::read_to_string(path).expect("committed query mix is readable");
    assert_eq!(
        mix.lines().filter(|line| line.starts_with("> ")).count(),
        12
    );
    let dir = fig09_store_dir("query-mix");

    let store = DiskStore::open(&dir).unwrap();
    let scanned = Catalog::open(&store).unwrap();
    assert_eq!(scanned.source(), CatalogSource::Scan);
    assert_eq!(answer_query_mix(&scanned, &mix), mix, "scan-built catalog");
    scanned.persist(&store).unwrap();

    let reopened = DiskStore::open(&dir).unwrap();
    let indexed = Catalog::open(&reopened).unwrap();
    assert_eq!(indexed.source(), CatalogSource::Index);
    assert_eq!(
        answer_query_mix(&indexed, &mix),
        mix,
        "index-loaded catalog"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn partially_warm_grid_over_a_legacy_store_finishes_at_quick_scale() {
    // New designs over an existing quick-scale store.  The store also holds
    // a trace-set record written the way older versions persisted traces;
    // loading such multi-MB records used to hang partially-warm runs.
    let generator = scale_generator("quick").unwrap();
    let cold = GridSpec::parse("cg", "fig09").unwrap();
    let wide = GridSpec::parse("cg", "fig09,naive:2").unwrap();
    let dir = std::env::temp_dir().join(format!(
        "acmp-sweep-integration-partial-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);

    let reference = SweepEngine::builder(generator).build().unwrap();
    let want = sorted_rows(&reference, &wide.benchmarks, &wide.designs);

    // A cold grid on a fresh store leaves one entry per cell: results only.
    let engine = SweepEngine::builder(generator)
        .store_dir(&dir)
        .build()
        .unwrap();
    engine.run_grid(&cold.benchmarks, &cold.designs);
    let store = engine.store().unwrap();
    assert_eq!(store.stats().entries, cold.cells() as u64);

    let mut legacy = Vec::new();
    write_trace_set_json(&reference.traces(Benchmark::Cg), &mut legacy).unwrap();
    let legacy = String::from_utf8(legacy).unwrap();
    store
        .save(&JobKey::for_traces(&generator, Benchmark::Cg), &legacy)
        .unwrap();

    // On a helper thread, so a regression fails the test instead of
    // hanging the suite.  The channel disconnects when the thread returns
    // or panics.
    let (done, finished) = mpsc::channel::<()>();
    let warm_dir = dir.clone();
    let worker = std::thread::spawn(move || {
        let _done = done;
        let warm = SweepEngine::builder(generator)
            .store_dir(&warm_dir)
            .build()
            .unwrap();
        let rows = sorted_rows(&warm, &wide.benchmarks, &wide.designs);
        (rows, warm.stats())
    });
    let waited = finished.recv_timeout(Duration::from_secs(60));
    assert!(
        matches!(waited, Err(RecvTimeoutError::Disconnected)),
        "the partially-warm grid must finish within 60 s"
    );
    let (rows, stats) = worker.join().expect("the partially-warm grid panicked");
    assert_eq!(stats.simulated, 1, "only the new design's cell runs");
    assert_eq!(stats.disk_hits, 3);
    assert_eq!(stats.trace_generated, 1);
    assert_eq!(rows, want, "rows must match a storeless engine's");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn grid_spec_drives_the_engine() {
    let spec = GridSpec::parse("cg,lu", "baseline,lb:8").unwrap();
    let engine = SweepEngine::builder(tiny_generator()).build().unwrap();
    let outcome = engine.run_grid(&spec.benchmarks, &spec.designs);
    assert_eq!(outcome.rows.len(), spec.cells());
    // Keys are unique across cells.
    let mut keys: Vec<&str> = outcome.rows.iter().map(|r| r.key.as_str()).collect();
    keys.sort_unstable();
    let n = keys.len();
    keys.dedup();
    assert_eq!(keys.len(), n);
}
