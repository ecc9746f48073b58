//! `trace_replay`: sim-trace record replay throughput.
//!
//! Generates one quick-scale CG trace set and times pulling every record of
//! every thread through [`SharedTraceCursor`] in 64-record batches,
//! reporting nanoseconds per record.  Cores no longer replay records (they
//! replay fetch streams decoded once per benchmark), so this times the
//! cursor alone.  The trajectory lands in `BENCH_trace_replay.json` at the
//! workspace root.

use bench_harness::{bench_samples, enable_bench_metrics, write_bench_report};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use hpc_workloads::{Benchmark, GeneratorConfig, TraceGenerator};
use serde_json::json;
use sim_trace::{SharedTraceCursor, ThreadId, TraceRecord, TraceSet, TraceSource};
use std::sync::Arc;
use std::time::Instant;

/// Records pulled per `next_records` call.
const BATCH: usize = 64;

fn generator() -> GeneratorConfig {
    GeneratorConfig {
        num_workers: 4,
        parallel_instructions_per_thread: 20_000,
        num_phases: 2,
        seed: 0xC0FF_EE00,
    }
}

fn traces() -> Arc<TraceSet> {
    Arc::new(TraceGenerator::new(Benchmark::Cg.profile(), generator()).generate())
}

/// Replays every thread's records in batches; returns the record count.
fn replay_all(set: &Arc<TraceSet>) -> u64 {
    let mut total = 0u64;
    let mut buf: Vec<TraceRecord> = Vec::with_capacity(BATCH);
    for thread in 0..set.num_threads() {
        let mut cursor = SharedTraceCursor::new(Arc::clone(set), ThreadId(thread));
        loop {
            buf.clear();
            let n = cursor.next_records(&mut buf, BATCH);
            if n == 0 {
                break;
            }
            total += n as u64;
            black_box(&buf);
        }
    }
    total
}

fn bench_trace_replay(c: &mut Criterion) {
    enable_bench_metrics();
    let set = traces();
    let mut group = c.benchmark_group("trace_replay");
    group.bench_function("cg/all-threads", |b| b.iter(|| replay_all(&set)));
    group.finish();

    let samples = bench_samples(10);
    let start = Instant::now();
    let mut records = 0u64;
    for _ in 0..samples {
        records = replay_all(&set);
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3 / f64::from(samples);
    let ns_per_record = wall_ms * 1e6 / records as f64;
    let report = json!({
        "bench": "trace_replay",
        "benchmark": "cg",
        "samples": samples,
        "records": records,
        "threads": set.num_threads(),
        "replay_ms": wall_ms,
        "ns_per_record": ns_per_record,
    });
    write_bench_report("BENCH_trace_replay.json", &report);
    println!(
        "trace_replay: {records} records over {} threads in {wall_ms:.2} ms ({ns_per_record:.1} ns/record), trajectory in BENCH_trace_replay.json",
        set.num_threads()
    );
}

criterion_group! {
    name = trace_replay;
    config = Criterion::default().sample_size(10);
    targets = bench_trace_replay,
}
criterion_main!(trace_replay);
