//! `core_loop`: the sim-core per-cycle loop, timed through a whole machine.
//!
//! Decodes the quick-scale CG traces into fetch streams once, untimed, then
//! builds the baseline-design machine over them and runs it to completion,
//! reporting nanoseconds per simulated machine cycle — the number the
//! idle-skip scheduler and the event-driven fetch lookahead exist to
//! shrink.  The trajectory lands in `BENCH_core_loop.json` at the workspace
//! root; its `machine_cycles` is deterministic (CI pins it).

use acmp_sweep::prelude::*;
use bench_harness::{bench_samples, enable_bench_metrics, write_bench_report};
use criterion::{criterion_group, criterion_main, Criterion};
use hpc_workloads::{Benchmark, GeneratorConfig, TraceGenerator};
use serde_json::json;
use sim_acmp::{AcmpConfig, Machine};
use sim_core::FetchStream;
use std::sync::Arc;
use std::time::Instant;

fn config() -> AcmpConfig {
    DesignPoint::baseline().acmp_config(GeneratorConfig::quick().num_workers)
}

fn streams() -> Vec<Arc<FetchStream>> {
    let traces = TraceGenerator::new(Benchmark::Cg.profile(), GeneratorConfig::quick()).generate();
    Machine::decode_streams(&config(), &traces)
}

/// Runs one machine to completion; returns the simulated cycle count.
fn run_machine(streams: &[Arc<FetchStream>]) -> u64 {
    let machine = Machine::with_streams(config(), streams);
    machine.run().expect("quick-scale machine completes").cycles
}

fn bench_core_loop(c: &mut Criterion) {
    enable_bench_metrics();
    let streams = streams();
    let mut group = c.benchmark_group("core_loop");
    group.bench_function("cg/baseline", |b| b.iter(|| run_machine(&streams)));
    group.finish();

    let samples = bench_samples(3);
    let start = Instant::now();
    let mut cycles = 0u64;
    for _ in 0..samples {
        cycles = run_machine(&streams);
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3 / f64::from(samples);
    let ns_per_cycle = wall_ms * 1e6 / cycles as f64;
    let report = json!({
        "bench": "core_loop",
        "benchmark": "cg",
        "design": "baseline",
        "samples": samples,
        "machine_cycles": cycles,
        "run_ms": wall_ms,
        "ns_per_cycle": ns_per_cycle,
    });
    write_bench_report("BENCH_core_loop.json", &report);
    println!(
        "core_loop: {cycles} cycles in {wall_ms:.1} ms ({ns_per_cycle:.0} ns/cycle), trajectory in BENCH_core_loop.json"
    );
}

criterion_group! {
    name = core_loop;
    config = Criterion::default().sample_size(5);
    targets = bench_core_loop,
}
criterion_main!(core_loop);
