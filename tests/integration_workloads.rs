//! Cross-crate integration tests: workload generation feeding the trace
//! statistics, including property-based tests on the generator invariants.

use hpc_workloads::{Benchmark, CodeLayout, GeneratorConfig, TraceGenerator};
use proptest::prelude::*;
use sim_trace::{SharingStats, ThreadId, TraceStats};

fn generate(b: Benchmark, workers: usize, instrs: u64, seed: u64) -> sim_trace::TraceSet {
    TraceGenerator::new(
        b.profile(),
        GeneratorConfig {
            num_workers: workers,
            parallel_instructions_per_thread: instrs,
            num_phases: 2,
            seed,
        },
    )
    .generate()
}

#[test]
fn all_24_benchmarks_generate_consistent_characteristics() {
    let cfg = GeneratorConfig {
        num_workers: 4,
        parallel_instructions_per_thread: 20_000,
        num_phases: 2,
        seed: 99,
    };
    for b in Benchmark::ALL {
        let profile = b.profile();
        let set = TraceGenerator::new(profile, cfg).generate();
        assert_eq!(set.num_threads(), 5, "{b}");

        let master = TraceStats::from_trace(set.master());
        // Basic-block calibration (Fig. 2): within 30% of the profile.
        let parallel_bb = master.parallel.avg_basic_block_bytes();
        assert!(
            (parallel_bb - profile.parallel_bb_bytes as f64).abs()
                < profile.parallel_bb_bytes as f64 * 0.3,
            "{b}: parallel BB {parallel_bb:.0}B vs profile {}B",
            profile.parallel_bb_bytes
        );

        // Serial fraction calibration (Fig. 13 x-axis).
        let serial_fraction = master.serial_fraction();
        assert!(
            (serial_fraction - profile.serial_fraction).abs() < 0.05,
            "{b}: serial fraction {serial_fraction:.3} vs profile {:.3}",
            profile.serial_fraction
        );

        // Sharing calibration (Fig. 4).
        let sharing = SharingStats::from_trace_set(&set);
        assert!(
            sharing.dynamic_sharing > 0.9,
            "{b}: dynamic sharing {:.2}",
            sharing.dynamic_sharing
        );

        // Workers never execute serial code.
        for t in set.iter().skip(1) {
            assert_eq!(TraceStats::from_trace(t).serial.instructions, 0, "{b}");
        }
    }
}

#[test]
fn parallel_basic_blocks_are_longer_than_serial_on_average() {
    let mut ratios = Vec::new();
    for b in Benchmark::ALL {
        let set = generate(b, 2, 8_000, 7);
        let stats = TraceStats::from_trace(set.master());
        if stats.serial.basic_blocks > 0 {
            ratios.push(
                stats.parallel.avg_basic_block_bytes() / stats.serial.avg_basic_block_bytes(),
            );
        }
    }
    let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
    assert!(
        mean > 2.0,
        "the paper reports ~3x longer basic blocks in parallel code, measured {mean:.1}x"
    );
}

#[test]
fn shared_kernel_addresses_are_identical_across_threads() {
    let set = generate(Benchmark::Lulesh, 4, 10_000, 13);
    let shared_addrs = |tid: usize| {
        let stats = TraceStats::from_trace(set.thread(ThreadId(tid)).unwrap());
        let mut addrs: Vec<u64> = stats
            .footprints
            .parallel_addrs
            .iter()
            .copied()
            .filter(|a| CodeLayout::is_shared_address(*a))
            .collect();
        addrs.sort_unstable();
        addrs
    };
    let reference = shared_addrs(1);
    assert!(!reference.is_empty());
    for tid in 2..=4 {
        assert_eq!(shared_addrs(tid), reference, "thread {tid}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any benchmark, any small scale, any seed: generation succeeds and
    /// instruction counts are near the requested budget.
    #[test]
    fn generation_is_well_formed_for_any_seed(
        bench_idx in 0usize..24,
        seed in any::<u64>(),
        instrs in 2_000u64..8_000,
    ) {
        let b = Benchmark::ALL[bench_idx];
        let set = generate(b, 2, instrs, seed);
        prop_assert_eq!(set.num_threads(), 3);

        for t in set.iter() {
            let n = t.num_instructions();
            prop_assert!(n > 0);
            if t.thread().0 != 0 {
                prop_assert!(n as f64 > instrs as f64 * 0.7);
                prop_assert!((n as f64) < instrs as f64 * 1.5);
            }
        }
    }

    /// The same configuration always generates the same traces (the
    /// simulator must be reproducible end to end).
    #[test]
    fn generation_is_deterministic_for_any_seed(seed in any::<u64>()) {
        let a = generate(Benchmark::Mg, 2, 3_000, seed);
        let b = generate(Benchmark::Mg, 2, 3_000, seed);
        prop_assert_eq!(a, b);
    }
}
