//! Cross-crate integration tests: the full ACMP simulator driven by the
//! synthetic workloads, checking the paper's qualitative claims.

use hpc_workloads::{Benchmark, GeneratorConfig, TraceGenerator};
use proptest::prelude::*;
use shared_icache::acmp_sweep::SweepEngine;
use shared_icache::sim_acmp::{AcmpConfig, BusWidth, Machine, SharingMode};
use shared_icache::DesignPoint;

fn build_engine(workers: usize, instrs: u64) -> SweepEngine {
    SweepEngine::builder(GeneratorConfig {
        num_workers: workers,
        parallel_instructions_per_thread: instrs,
        num_phases: 2,
        seed: 21,
    })
    .build()
    .expect("an engine without a store always builds")
}

#[test]
fn every_design_point_executes_the_full_trace_set() {
    let engine = build_engine(4, 10_000);
    let designs = [
        DesignPoint::baseline(),
        DesignPoint::naive_shared(2).expect("valid core count"),
        DesignPoint::naive_shared(4).expect("valid core count"),
        DesignPoint::shared(16, 8, BusWidth::Single).expect("valid design"),
        DesignPoint::proposed(),
        DesignPoint::all_shared(),
    ];
    for b in [Benchmark::Cg, Benchmark::CoEvp] {
        let expected = engine.traces(b).total_instructions();
        for d in &designs {
            let r = engine.simulate(b, d);
            assert_eq!(r.instructions, expected, "{b} on {d}");
            assert!(r.cycles > 0);
        }
    }
}

#[test]
fn proposed_design_has_no_meaningful_performance_cost() {
    // The paper's headline claim: 16 KB shared + double bus + 4 line buffers
    // performs like the private baseline.
    let engine = build_engine(8, 25_000);
    let benchmarks = [
        Benchmark::Cg,
        Benchmark::Lu,
        Benchmark::Lulesh,
        Benchmark::CoMd,
    ];
    let mut ratios = Vec::new();
    for b in benchmarks {
        let base = engine.simulate(b, &DesignPoint::baseline());
        let prop = engine.simulate(b, &DesignPoint::proposed());
        ratios.push(prop.cycles as f64 / base.cycles as f64);
    }
    let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
    assert!(
        mean < 1.03,
        "the proposed design should be within a few percent of the baseline, mean ratio {mean:.3}"
    );
}

#[test]
fn naive_sharing_hurts_most_at_the_highest_sharing_degree() {
    let engine = build_engine(8, 25_000);
    // UA is the paper's worst case for naive sharing (18% at cpc = 8).
    let base = engine.simulate(Benchmark::Ua, &DesignPoint::baseline());
    let cpc2 = engine.simulate(
        Benchmark::Ua,
        &DesignPoint::naive_shared(2).expect("valid core count"),
    );
    let cpc8 = engine.simulate(
        Benchmark::Ua,
        &DesignPoint::naive_shared(8).expect("valid core count"),
    );
    let r2 = cpc2.cycles as f64 / base.cycles as f64;
    let r8 = cpc8.cycles as f64 / base.cycles as f64;
    assert!(
        r8 >= r2,
        "cpc=8 ({r8:.3}) should not be faster than cpc=2 ({r2:.3})"
    );
    assert!(
        r8 > 1.01,
        "UA should visibly suffer from naive sharing, got {r8:.3}"
    );
    assert!(
        r8 < 1.5,
        "the slowdown should stay in the tens of percent, got {r8:.3}"
    );
}

#[test]
fn double_bus_recovers_the_naive_sharing_loss() {
    let engine = build_engine(8, 25_000);
    let base = engine.simulate(Benchmark::Ua, &DesignPoint::baseline());
    let naive = engine.simulate(
        Benchmark::Ua,
        &DesignPoint::shared(16, 4, BusWidth::Single).expect("valid design"),
    );
    let double = engine.simulate(
        Benchmark::Ua,
        &DesignPoint::shared(16, 4, BusWidth::Double).expect("valid design"),
    );
    let naive_ratio = naive.cycles as f64 / base.cycles as f64;
    let double_ratio = double.cycles as f64 / base.cycles as f64;
    assert!(
        double_ratio < naive_ratio,
        "doubling the bandwidth must help ({naive_ratio:.3} -> {double_ratio:.3})"
    );
    assert!(
        double_ratio < 1.05,
        "with a double bus the slowdown should essentially disappear, got {double_ratio:.3}"
    );
}

#[test]
fn shared_icache_reduces_worker_misses() {
    // Fig. 11: sharing the I-cache reduces MPKI thanks to cross-thread
    // prefetching of the common code.
    let engine = build_engine(8, 25_000);
    for b in [Benchmark::Lu, Benchmark::CoEvp] {
        let private = engine.simulate(b, &DesignPoint::baseline());
        let shared = engine.simulate(
            b,
            &DesignPoint::shared(32, 4, BusWidth::Double).expect("valid design"),
        );
        assert!(
            shared.worker_icache.misses < private.worker_icache.misses,
            "{b}: shared misses {} vs private {}",
            shared.worker_icache.misses,
            private.worker_icache.misses
        );
    }
}

#[test]
fn all_shared_is_worse_for_serial_heavy_benchmarks_than_for_parallel_ones() {
    // Fig. 13: the all-shared penalty grows with the serial-code fraction.
    let engine = build_engine(8, 25_000);
    let ratio = |b: Benchmark| {
        let ws = engine.simulate(b, &DesignPoint::worker_shared_32k_double());
        let all = engine.simulate(b, &DesignPoint::all_shared());
        all.cycles as f64 / ws.cycles as f64
    };
    let parallel_heavy = ratio(Benchmark::Lu); // ~0.5% serial
    let serial_heavy = ratio(Benchmark::Nab); // ~22% serial
    assert!(
        serial_heavy >= parallel_heavy - 0.01,
        "nab (serial-heavy, {serial_heavy:.3}) should pay at least as much as LU ({parallel_heavy:.3})"
    );
}

#[test]
fn cpi_stacks_account_for_every_cycle() {
    let engine = build_engine(4, 10_000);
    let r = engine.simulate(
        Benchmark::Ft,
        &DesignPoint::naive_shared(4).expect("valid core count"),
    );
    for core in &r.cores {
        // Each core is accounted every cycle from start to its finish, so the
        // per-core total can not exceed the machine's cycle count but must be
        // a large fraction of it for the workers (they wait at barriers).
        assert!(core.cpi.total_cycles() <= r.cycles);
        assert!(
            core.cpi.total_cycles() as f64 > r.cycles as f64 * 0.5,
            "core {} accounts for too few cycles",
            core.core
        );
    }
}

#[test]
fn every_design_point_variant_simulates_without_panicking() {
    // A small configuration keeps the full design-point sweep cheap enough
    // for CI while still exercising every machine topology the paper
    // evaluates (private, naive shared, resized/buffered/double-bus shared,
    // and both all-shared variants).
    let engine = SweepEngine::builder(GeneratorConfig {
        num_workers: 4,
        parallel_instructions_per_thread: 4_000,
        num_phases: 1,
        seed: 5,
    })
    .build()
    .expect("an engine without a store always builds");
    let designs = [
        DesignPoint::baseline(),
        DesignPoint::naive_shared(2).expect("valid core count"),
        DesignPoint::naive_shared(4).expect("valid core count"),
        DesignPoint::shared(16, 2, BusWidth::Single).expect("valid design"),
        DesignPoint::shared(16, 8, BusWidth::Double).expect("valid design"),
        DesignPoint::shared(32, 4, BusWidth::Double).expect("valid design"),
        DesignPoint::proposed(),
        DesignPoint::worker_shared_32k_double(),
        DesignPoint::all_shared(),
        DesignPoint::all_shared_single_bus(),
        DesignPoint::proposed()
            .with_line_buffers(8)
            .expect("valid line-buffer count"),
    ];
    let expected = engine.traces(Benchmark::Cg).total_instructions();
    for design in &designs {
        let result = engine.simulate(Benchmark::Cg, design);
        assert_eq!(result.instructions, expected, "{design}");
        assert!(result.cycles > 0, "{design}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For any sharing degree that divides the worker count, any bus width
    /// and any line-buffer count, the machine executes the trace set
    /// completely and deterministically.
    #[test]
    fn machine_executes_everything_for_any_configuration(
        cpc_idx in 0usize..3,
        double_bus in any::<bool>(),
        line_buffers in 2usize..9,
        seed in 0u64..1000,
    ) {
        let cpc = [1usize, 2, 4][cpc_idx];
        let traces = TraceGenerator::new(
            Benchmark::Mg.profile(),
            GeneratorConfig {
                num_workers: 4,
                parallel_instructions_per_thread: 4_000,
                num_phases: 1,
                seed,
            },
        )
        .generate();

        let mut cfg = AcmpConfig::worker_shared(4, cpc).with_line_buffers(line_buffers);
        if double_bus {
            cfg = cfg.with_bus_width(BusWidth::Double);
        }
        let sharing_is_worker_side = matches!(
            cfg.sharing,
            SharingMode::Private | SharingMode::WorkerShared { .. }
        );
        prop_assert!(sharing_is_worker_side);

        let a = Machine::new(cfg, &traces).run().unwrap();
        let b = Machine::new(cfg, &traces).run().unwrap();
        prop_assert_eq!(a.instructions, traces.total_instructions());
        prop_assert_eq!(a.cycles, b.cycles, "simulation must be deterministic");
    }
}
