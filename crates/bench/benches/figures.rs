//! Criterion benches: one group per paper table/figure.
//!
//! Each bench times the simulations (or analytic computations) behind the
//! corresponding figure at a reduced scale, so `cargo bench` both exercises
//! every experiment path and tracks the simulator's own performance.
//! The full-scale tables for `EXPERIMENTS.md` are produced by the `figures`
//! binary instead.

use acmp_sweep::SweepEngine;
use criterion::{criterion_group, criterion_main, Criterion};
use hpc_workloads::{Benchmark, GeneratorConfig};
use shared_icache::{figures, DesignPoint};

/// A small but representative benchmark subset so a full `cargo bench`
/// stays in the minutes range.
const BENCHMARKS: [Benchmark; 3] = [Benchmark::Cg, Benchmark::Lu, Benchmark::CoEvp];

fn bench_generator() -> GeneratorConfig {
    GeneratorConfig {
        num_workers: 4,
        parallel_instructions_per_thread: 10_000,
        num_phases: 1,
        seed: 42,
    }
}

fn fresh_engine() -> SweepEngine {
    SweepEngine::builder(bench_generator())
        .build()
        .expect("building without a disk store cannot fail")
}

fn bench_fig01(c: &mut Criterion) {
    c.bench_function("fig01/hill_marty_series", |b| {
        b.iter(|| figures::fig01::compute(301))
    });
}

fn bench_fig02(c: &mut Criterion) {
    c.bench_function("fig02/basic_block_lengths", |b| {
        b.iter(|| {
            let engine = fresh_engine();
            figures::fig02::compute(&engine, &BENCHMARKS)
        })
    });
}

fn bench_fig03(c: &mut Criterion) {
    c.bench_function("fig03/mpki_replay", |b| {
        b.iter(|| {
            let engine = fresh_engine();
            figures::fig03::compute(&engine, &BENCHMARKS)
        })
    });
}

fn bench_fig04(c: &mut Criterion) {
    c.bench_function("fig04/instruction_sharing", |b| {
        b.iter(|| {
            let engine = fresh_engine();
            figures::fig04::compute(&engine, &BENCHMARKS)
        })
    });
}

fn bench_table01(c: &mut Criterion) {
    c.bench_function("table01/configuration", |b| {
        b.iter(figures::table01::compute)
    });
}

fn bench_fig07(c: &mut Criterion) {
    c.bench_function("fig07/naive_sharing_sim", |b| {
        b.iter(|| {
            let engine = fresh_engine();
            figures::fig07::compute(&engine, &[Benchmark::Cg])
        })
    });
}

fn bench_fig08(c: &mut Criterion) {
    c.bench_function("fig08/cpi_stack_sim", |b| {
        b.iter(|| {
            let engine = fresh_engine();
            figures::fig08::compute(&engine, &[Benchmark::Lu])
        })
    });
}

fn bench_fig09(c: &mut Criterion) {
    c.bench_function("fig09/access_ratio_sim", |b| {
        b.iter(|| {
            let engine = fresh_engine();
            figures::fig09::compute(&engine, &[Benchmark::Ua])
        })
    });
}

fn bench_fig10(c: &mut Criterion) {
    c.bench_function("fig10/buffers_vs_bandwidth_sim", |b| {
        b.iter(|| {
            let engine = fresh_engine();
            figures::fig10::compute(&engine, &[Benchmark::Lu])
        })
    });
}

fn bench_fig11(c: &mut Criterion) {
    c.bench_function("fig11/miss_analysis_sim", |b| {
        b.iter(|| {
            let engine = fresh_engine();
            figures::fig11::compute(&engine, &[Benchmark::CoEvp])
        })
    });
}

fn bench_fig12(c: &mut Criterion) {
    c.bench_function("fig12/area_energy_sim", |b| {
        b.iter(|| {
            let engine = fresh_engine();
            figures::fig12::compute(&engine, &[Benchmark::Cg])
        })
    });
}

fn bench_fig13(c: &mut Criterion) {
    c.bench_function("fig13/all_shared_sim", |b| {
        b.iter(|| {
            let engine = fresh_engine();
            figures::fig13::compute(&engine, &[Benchmark::CoMd])
        })
    });
}

fn bench_single_simulation(c: &mut Criterion) {
    // A plain machine-throughput benchmark: cycles simulated per second for
    // the baseline and the proposed design.
    let mut group = c.benchmark_group("simulator_throughput");
    for design in [DesignPoint::baseline(), DesignPoint::proposed()] {
        group.bench_function(design.name.clone(), |b| {
            b.iter(|| {
                let engine = fresh_engine();
                engine.simulate(Benchmark::Lu, &design)
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets =
        bench_fig01,
        bench_fig02,
        bench_fig03,
        bench_fig04,
        bench_table01,
        bench_fig07,
        bench_fig08,
        bench_fig09,
        bench_fig10,
        bench_fig11,
        bench_fig12,
        bench_fig13,
        bench_single_simulation,
}
criterion_main!(benches);
