//! `sweep_throughput`: 1-worker vs N-worker wall time on a small grid.
//!
//! Times the sweep engine end-to-end (trace generation + simulation +
//! caching) on the quick-benchmark × Fig. 7 grid and writes the measured
//! trajectory to `BENCH_sweep.json` at the workspace root so the speedup is
//! tracked across revisions.
//!
//! The two arms are a genuine serial-vs-N comparison:
//!
//! * distinct worker counts on every host — the serial arm is pinned to one
//!   pool thread, the parallel arm to `bench_harness::throughput::
//!   parallel_workers()` (host size, floored at 4 so a 1-CPU CI container
//!   cannot collapse the arms onto each other);
//! * a cold store per arm — every measured run builds a fresh engine with
//!   no disk store and empty in-memory caches, so neither arm warm-starts
//!   from the other's work.

use acmp_sweep::{DesignPoint, SweepEngine};
use bench_harness::{bench_samples, enable_bench_metrics, throughput, write_bench_report};
use criterion::{criterion_group, criterion_main, Criterion};
use hpc_workloads::{Benchmark, GeneratorConfig};
use serde_json::json;
use std::time::Instant;

const BENCHMARKS: [Benchmark; 6] = [
    Benchmark::Cg,
    Benchmark::Lu,
    Benchmark::Ua,
    Benchmark::CoEvp,
    Benchmark::CoMd,
    Benchmark::Lulesh,
];

fn generator() -> GeneratorConfig {
    GeneratorConfig {
        num_workers: 4,
        parallel_instructions_per_thread: 10_000,
        num_phases: 1,
        seed: 42,
    }
}

fn designs() -> Vec<DesignPoint> {
    vec![
        DesignPoint::baseline(),
        DesignPoint::naive_shared(2).expect("bench cpc is valid"),
        DesignPoint::naive_shared(4).expect("bench cpc is valid"),
        DesignPoint::naive_shared(8).expect("bench cpc is valid"),
    ]
}

/// Runs the full grid on a fresh (cold-cache, no disk store) engine.
fn run_grid(workers: usize) -> usize {
    let engine = SweepEngine::builder(generator())
        .workers(workers)
        .build()
        .expect("building without a disk store cannot fail");
    engine.run_grid(&BENCHMARKS, &designs()).rows.len()
}

/// Mean wall time of `samples` cold runs, in milliseconds.
fn measure_ms(workers: usize, samples: u32) -> f64 {
    let start = Instant::now();
    for _ in 0..samples {
        run_grid(workers);
    }
    start.elapsed().as_secs_f64() * 1e3 / f64::from(samples)
}

fn bench_sweep_throughput(c: &mut Criterion) {
    enable_bench_metrics();
    let serial = throughput::SERIAL_WORKERS;
    let parallel = throughput::parallel_workers();
    assert!(
        parallel > serial,
        "bench arms must use distinct worker counts ({serial} vs {parallel})"
    );
    let mut group = c.benchmark_group("sweep_throughput");
    group.bench_function(format!("workers/{serial}"), |b| b.iter(|| run_grid(serial)));
    group.bench_function(format!("workers/{parallel}"), |b| {
        b.iter(|| run_grid(parallel))
    });
    group.finish();

    // Trajectory file: an explicit measurement (independent of the bench
    // harness's sample accounting) written where CI and later revisions can
    // diff it.
    let samples = bench_samples(3);
    let serial_ms = measure_ms(serial, samples);
    let parallel_ms = measure_ms(parallel, samples);
    let jobs = BENCHMARKS.len() * designs().len();
    let report = json!({
        "bench": "sweep_throughput",
        "grid_jobs": jobs,
        "samples": samples,
        "workers_serial": serial,
        "workers_parallel": parallel,
        "serial_ms": serial_ms,
        "parallel_ms": parallel_ms,
        "speedup": serial_ms / parallel_ms,
    });
    write_bench_report("BENCH_sweep.json", &report);
    println!(
        "sweep_throughput: {jobs} jobs — {serial_ms:.1} ms serial, {parallel_ms:.1} ms on {parallel} workers ({:.2}x), trajectory in BENCH_sweep.json",
        serial_ms / parallel_ms
    );
}

criterion_group! {
    name = sweep;
    config = Criterion::default().sample_size(3);
    targets = bench_sweep_throughput,
}
criterion_main!(sweep);
