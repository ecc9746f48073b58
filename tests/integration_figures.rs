//! End-to-end tests of the figure-reproduction pipeline at a moderate scale
//! (eight workers, reduced instruction budget): the qualitative shapes the
//! paper reports must hold for every figure.

use hpc_workloads::{Benchmark, GeneratorConfig};
use shared_icache::acmp_sweep::SweepEngine;
use shared_icache::figures;

/// Eight workers, enough instructions to amortise cold effects, a subset of
/// benchmarks covering the interesting corners.
fn build_engine() -> SweepEngine {
    SweepEngine::builder(GeneratorConfig {
        num_workers: 8,
        parallel_instructions_per_thread: 25_000,
        num_phases: 2,
        seed: 77,
    })
    .build()
    .expect("an engine without a store always builds")
}

const SUBSET: [Benchmark; 6] = [
    Benchmark::Cg,
    Benchmark::Lu,
    Benchmark::Ua,
    Benchmark::CoEvp,
    Benchmark::Nab,
    Benchmark::Lulesh,
];

#[test]
fn figure1_acmp_wins_beyond_two_percent_serial_code() {
    let fig = figures::fig01::compute(301);
    let crossover = fig.acmp_crossover_percent().unwrap();
    assert!(crossover <= 4.0, "crossover at {crossover:.1}%");
    // At 10% serial code the ACMP clearly dominates both symmetric designs.
    let p10 = fig
        .points
        .iter()
        .find(|p| (p.serial_percent - 10.0).abs() < 0.1)
        .unwrap();
    assert!(p10.asymmetric > p10.symmetric_small && p10.asymmetric > p10.symmetric_big);
}

#[test]
fn figure2_parallel_blocks_are_longer_with_known_exceptions() {
    let engine = build_engine();
    let fig = figures::fig02::compute(&engine, &SUBSET);
    assert!(fig.mean_parallel() > 2.0 * fig.mean_serial() / 1.5);
    for row in &fig.rows {
        match row.benchmark {
            Benchmark::Nab | Benchmark::CoEvp => assert!(row.serial_bytes > row.parallel_bytes),
            _ => assert!(row.parallel_bytes > row.serial_bytes, "{}", row.benchmark),
        }
    }
}

#[test]
fn figure3_parallel_mpki_is_far_below_serial_mpki() {
    let engine = build_engine();
    let fig = figures::fig03::compute(&engine, &SUBSET);
    for row in &fig.rows {
        assert!(
            row.parallel_mpki < row.serial_mpki,
            "{}: parallel {:.2} vs serial {:.2}",
            row.benchmark,
            row.parallel_mpki,
            row.serial_mpki
        );
        if row.benchmark != Benchmark::CoEvp {
            // At this reduced scale cold misses are not fully amortised (the
            // paper replays 20 G instructions), so "near zero" translates to
            // "a single-digit cold-miss floor, well below the serial MPKI".
            assert!(
                row.parallel_mpki < 8.0 && row.parallel_mpki < row.serial_mpki / 2.0,
                "{}: parallel MPKI should be near the cold-miss floor, got {:.2} (serial {:.2})",
                row.benchmark,
                row.parallel_mpki,
                row.serial_mpki
            );
        }
    }
    let coevp = fig
        .rows
        .iter()
        .find(|r| r.benchmark == Benchmark::CoEvp)
        .unwrap();
    assert!(
        coevp.parallel_mpki > 0.5,
        "CoEVP keeps a visible parallel MPKI"
    );
}

#[test]
fn figure4_dynamic_sharing_is_about_99_percent() {
    let engine = build_engine();
    let fig = figures::fig04::compute(&engine, &SUBSET);
    assert!(fig.mean_dynamic_sharing() > 95.0);
}

#[test]
fn figure7_and_10_sharing_cost_is_recovered_by_bandwidth() {
    let engine = build_engine();
    let fig7 = figures::fig07::compute(&engine, &SUBSET);
    for row in &fig7.rows {
        assert!(
            row.cpc8 >= 0.97,
            "{}: sharing cannot be much faster",
            row.benchmark
        );
        assert!(
            row.cpc8 < 1.4,
            "{}: slowdown should stay bounded",
            row.benchmark
        );
    }

    let fig10 = figures::fig10::compute(&engine, &SUBSET);
    for row in &fig10.rows {
        assert!(
            row.more_bandwidth_4lb_double <= row.naive_4lb_single + 0.01,
            "{}: the double bus must remove naive-sharing stalls",
            row.benchmark
        );
    }
    assert!(
        fig10.mean_double_bus() < 1.03,
        "with a double bus the mean slowdown should vanish, got {:.3}",
        fig10.mean_double_bus()
    );
}

#[test]
fn figure8_extra_cycles_are_dominated_by_bus_effects() {
    let engine = build_engine();
    let fig = figures::fig08::compute(&engine, &[Benchmark::Ua, Benchmark::Lu]);
    for row in &fig.rows {
        let extra = row.total() - 1.0;
        let bus = row.ibus_latency + row.ibus_congestion;
        let other = row.icache_latency + row.branch_miss;
        // The paper's claim is two-fold: the slowdown from naive sharing is
        // bounded, and whenever it is visible the dominant component is the
        // shared I-bus (latency + contention), not cache misses or branches.
        assert!(
            extra < 0.30,
            "{}: naive sharing slowdown should stay bounded, got {:.3}",
            row.benchmark,
            extra
        );
        if extra > 0.03 {
            assert!(
                bus >= other,
                "{}: visible extra stalls must be I-bus dominated (bus {:.3} vs other {:.3})",
                row.benchmark,
                bus,
                other
            );
        }
    }
}

#[test]
fn figure9_access_ratio_tracks_loop_working_set() {
    let engine = build_engine();
    let fig = figures::fig09::compute(&engine, &SUBSET);
    let by_name = |b: Benchmark| fig.rows.iter().find(|r| r.benchmark == b).unwrap();
    // Streaming kernels (LU, LULESH) access the I-cache on almost every
    // fetch; small-kernel benchmarks (CG) mostly hit in the line buffers.
    assert!(by_name(Benchmark::Lu).lb4_percent > 60.0);
    assert!(by_name(Benchmark::Cg).lb4_percent < 40.0);
    // UA benefits from eight line buffers (its body fits in 8 but not 4).
    let ua = by_name(Benchmark::Ua);
    assert!(
        ua.lb8_percent < ua.lb4_percent * 0.7,
        "UA: 8 line buffers should cut the access ratio ({:.1}% -> {:.1}%)",
        ua.lb4_percent,
        ua.lb8_percent
    );
}

#[test]
fn figure11_sharing_reduces_misses_for_miss_heavy_benchmarks() {
    let engine = build_engine();
    let fig = figures::fig11::compute(&engine, &[Benchmark::CoEvp, Benchmark::Lu, Benchmark::Sp]);
    let coevp = fig
        .rows
        .iter()
        .find(|r| r.benchmark == Benchmark::CoEvp)
        .unwrap();
    assert!(coevp.private_mpki > 0.2);
    assert!(
        coevp.shared_32k_percent < 80.0,
        "sharing should cut CoEVP's misses substantially, got {:.1}%",
        coevp.shared_32k_percent
    );
    assert!(fig.mean_reduction_32k() > 0.0);
}

#[test]
fn figure13_the_master_should_keep_its_private_icache() {
    let engine = build_engine();
    let fig = figures::fig13::compute(&engine, &[Benchmark::Lu, Benchmark::Nab, Benchmark::CoMd]);
    for row in &fig.rows {
        assert!(
            row.ratio_double_bus > 0.97,
            "{}: joining the master can only cost time",
            row.benchmark
        );
        assert!(row.ratio_double_bus < 1.25);
    }
    // The serial-heavy workload pays more than the parallel-heavy one.
    let lu = fig
        .rows
        .iter()
        .find(|r| r.benchmark == Benchmark::Lu)
        .unwrap();
    let nab = fig
        .rows
        .iter()
        .find(|r| r.benchmark == Benchmark::Nab)
        .unwrap();
    assert!(nab.serial_percent > lu.serial_percent);
    assert!(nab.ratio_double_bus >= lu.ratio_double_bus - 0.02);
}
