//! Integration: the observability layer reconciles with the engine and its
//! metrics document is pinned to a committed golden fixture.
//!
//! The tracer is a shim: enabling it must change *nothing* about what the
//! engine computes, and everything it reports must agree with the engine's
//! own `EngineStats` — same counts, not "roughly the same".

use acmp_sweep::{DesignPoint, SweepEngine};
use hpc_workloads::{Benchmark, GeneratorConfig};

fn tiny_generator() -> GeneratorConfig {
    GeneratorConfig {
        num_workers: 2,
        parallel_instructions_per_thread: 5_000,
        num_phases: 1,
        seed: 23,
    }
}

/// Path of the committed golden metrics document.
fn fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/metrics_v1.json")
}

/// A hand-built snapshot with every feature of the schema exercised:
/// counters, a multi-bucket histogram, and a single-value histogram.
fn reference_snapshot() -> acmp_obs::MetricsSnapshot {
    let mut snapshot = acmp_obs::MetricsSnapshot::default();
    snapshot.counters.insert("engine.simulated".to_string(), 6);
    snapshot
        .counters
        .insert("engine.memory_hits".to_string(), 2);
    snapshot.counters.insert("trace.refills".to_string(), 9636);
    let mut spans = acmp_obs::HistogramSnapshot::default();
    for dur_ns in [800, 2_500, 2_900, 70_000] {
        spans.record(dur_ns);
    }
    snapshot
        .histograms
        .insert("engine.simulate_cell.simulate".to_string(), spans);
    let mut depth = acmp_obs::HistogramSnapshot::default();
    depth.record(6);
    snapshot
        .histograms
        .insert("pool.queue_depth".to_string(), depth);
    snapshot
}

#[test]
fn metrics_document_matches_the_committed_golden_fixture() {
    // The `acmp-obs-metrics/v1` schema is an interface: CI validators, the
    // bench-report embedding and `sweep trace report` all parse it.  Any
    // byte drift in serialization fails here loudly.  To bless a deliberate
    // schema change, rerun with `UPDATE_FIXTURES=1` and flag it in review.
    let snapshot = reference_snapshot();
    let rendered = format!("{}\n", snapshot.to_value());
    if std::env::var_os("UPDATE_FIXTURES").is_some() {
        std::fs::write(fixture_path(), &rendered).expect("fixture is writable");
        return;
    }
    let committed = std::fs::read_to_string(fixture_path()).expect("committed fixture is readable");
    assert_eq!(
        rendered, committed,
        "metrics serialization drifted off tests/fixtures/metrics_v1.json"
    );

    // And the strict reader rebuilds the exact same snapshot from it.
    let value = serde_json::from_str::<serde::Value>(&committed).expect("fixture parses");
    let reread = acmp_obs::MetricsSnapshot::from_value(&value).expect("fixture validates");
    assert_eq!(reread, snapshot);
}

#[test]
fn trace_and_metrics_reconcile_exactly_with_engine_stats() {
    // One test owns the process-global recorder/registry so no sibling
    // test's events can bleed into the counts.
    acmp_obs::enable_events();
    acmp_obs::enable_metrics();
    acmp_obs::registry().reset();
    let _ = acmp_obs::drain_events();

    let engine = SweepEngine::builder(tiny_generator())
        .workers(2)
        .build()
        .unwrap();
    let benchmarks = [Benchmark::Cg, Benchmark::Lu];
    let designs = [DesignPoint::baseline(), DesignPoint::proposed()];
    let outcome = engine.run_grid(&benchmarks, &designs);
    assert_eq!(outcome.rows.len(), 4);
    let stats = engine.stats();
    assert_eq!(stats.simulated, 4);

    // Metrics: engine counters mirror EngineStats number for number.
    let snapshot = acmp_obs::registry().snapshot();
    assert_eq!(snapshot.counter("engine.simulated"), stats.simulated);
    assert_eq!(snapshot.counter("engine.memory_hits"), stats.memory_hits);
    assert_eq!(snapshot.counter("engine.disk_hits"), stats.disk_hits);
    assert_eq!(
        snapshot.counter("engine.trace_generated"),
        stats.trace_generated
    );

    // Trace: one simulate span per simulated cell, each carrying the cell's
    // benchmark, and per-thread sequence numbers strictly increase.
    let events = acmp_obs::drain_events();
    let sim_spans: Vec<_> = events
        .iter()
        .filter(|e| e.name == "engine.simulate_cell.simulate")
        .collect();
    assert_eq!(sim_spans.len() as u64, stats.simulated);
    for span in &sim_spans {
        assert!(
            span.fields.iter().any(|(k, _)| *k == "benchmark"),
            "simulate spans must attribute their cell"
        );
    }
    // Per-thread sequence numbers are gapless: nothing was dropped between
    // a thread's first and last event.  (Drain order itself follows span
    // *start* times, so seq order and drain order legitimately differ.)
    let mut seqs: std::collections::HashMap<u32, Vec<u64>> = std::collections::HashMap::new();
    for event in &events {
        seqs.entry(event.thread).or_default().push(event.seq);
    }
    for (thread, mut thread_seqs) in seqs {
        thread_seqs.sort_unstable();
        for pair in thread_seqs.windows(2) {
            assert_eq!(
                pair[1],
                pair[0] + 1,
                "thread {thread} lost an event between seq {} and {}",
                pair[0],
                pair[1]
            );
        }
    }

    // Rerunning the same grid hits the in-memory cache: no new simulate
    // spans, and the memory-hit counter moves in lockstep with the engine.
    let rerun = engine.run_grid(&benchmarks, &designs);
    assert_eq!(rerun.rows.len(), 4);
    let warm = acmp_obs::registry().snapshot();
    assert_eq!(warm.counter("engine.simulated"), 4);
    assert_eq!(
        warm.counter("engine.memory_hits"),
        engine.stats().memory_hits
    );
    let warm_events = acmp_obs::drain_events();
    assert!(warm_events
        .iter()
        .all(|e| e.name != "engine.simulate_cell.simulate"));
    assert!(warm_events
        .iter()
        .any(|e| e.name == "engine.simulate_cell.memory_hit"));

    // Rows are untouched by all of this instrumentation: the two runs'
    // JSONL serializations are byte-identical.
    let mut cold: Vec<String> = outcome.rows.iter().map(|r| r.to_jsonl()).collect();
    let mut hot: Vec<String> = rerun.rows.iter().map(|r| r.to_jsonl()).collect();
    cold.sort();
    hot.sort();
    assert_eq!(cold, hot);
}
