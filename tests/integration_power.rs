//! Cross-crate integration tests: the area/energy model applied to real
//! simulation results (the Fig. 12 pipeline).

use acmp_sweep::{DesignPoint, SweepEngine};
use hpc_workloads::{Benchmark, GeneratorConfig};
use power_model::{BusAreaModel, CacheCostModel, ClusterActivity, LeanCoreModel};
use proptest::prelude::*;
use shared_icache::figures;

fn build_engine() -> SweepEngine {
    SweepEngine::builder(GeneratorConfig {
        num_workers: 8,
        parallel_instructions_per_thread: 20_000,
        num_phases: 2,
        seed: 31,
    })
    .build()
    .expect("an engine without a store always builds")
}

fn activity_of(result: &sim_acmp::SimResult) -> ClusterActivity {
    ClusterActivity {
        cycles: result.cycles,
        instructions: result.worker_instructions(),
        icache_accesses: result.worker_icache.accesses,
        line_buffer_accesses: result
            .cores
            .iter()
            .skip(1)
            .map(|c| c.line_buffers.line_requests)
            .sum(),
        bus_transactions: result.bus.transactions,
    }
}

#[test]
fn proposed_design_saves_area_and_energy_at_no_performance_cost() {
    // The paper's headline numbers: ~11% area and ~5% energy savings with no
    // performance loss.  The shapes (direction and rough magnitude) must
    // hold on the synthetic workloads.
    let engine = build_engine();
    let benchmarks = [Benchmark::Cg, Benchmark::Lu, Benchmark::Lulesh];
    let fig12 = figures::fig12::compute(&engine, &benchmarks);
    let proposed = fig12.proposed().expect("proposed design present");

    assert!(
        proposed.area > 0.80 && proposed.area < 0.95,
        "area savings should be roughly 10%, got {:.1}%",
        (1.0 - proposed.area) * 100.0
    );
    assert!(
        proposed.energy < 1.0,
        "the proposed design must save energy, got ratio {:.3}",
        proposed.energy
    );
    assert!(
        proposed.execution_time < 1.03,
        "no performance cost expected, got {:.3}",
        proposed.execution_time
    );
}

#[test]
fn single_bus_design_saves_most_area_but_costs_performance() {
    let engine = build_engine();
    let benchmarks = [Benchmark::Ua, Benchmark::Lu];
    let fig12 = figures::fig12::compute(&engine, &benchmarks);
    let single = fig12
        .rows
        .iter()
        .find(|r| r.design == "cpc8-16K-4lb-single")
        .unwrap();
    let double = fig12
        .rows
        .iter()
        .find(|r| r.design == "cpc8-16K-4lb-double")
        .unwrap();
    assert!(single.area < double.area, "a single bus occupies less area");
    assert!(
        single.execution_time >= double.execution_time,
        "the single bus cannot be faster than the double bus"
    );
}

#[test]
fn energy_model_reacts_to_execution_time_and_activity() {
    let engine = build_engine();
    let base = engine.simulate(Benchmark::Lu, &DesignPoint::baseline());
    let design = DesignPoint::baseline().cluster_design(8);

    let normal = design.energy(&activity_of(&base)).total_mj();
    let mut slower = activity_of(&base);
    slower.cycles += slower.cycles / 10;
    let slower_energy = design.energy(&slower).total_mj();
    assert!(slower_energy > normal, "longer runs consume more energy");

    let mut busier = activity_of(&base);
    busier.icache_accesses *= 4;
    assert!(design.energy(&busier).total_mj() > normal);
}

#[test]
fn icache_is_roughly_fifteen_percent_of_a_lean_core() {
    let fraction = LeanCoreModel::icache_area_fraction(32 * 1024);
    assert!((0.10..=0.20).contains(&fraction));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Cache cost is monotone in capacity for every size in the range the
    /// experiments sweep.
    #[test]
    fn cache_cost_is_monotone_in_capacity(kb_a in 1u64..512, kb_b in 1u64..512) {
        let a = CacheCostModel::new(kb_a * 1024);
        let b = CacheCostModel::new(kb_b * 1024);
        if kb_a < kb_b {
            prop_assert!(a.area_mm2() < b.area_mm2());
            prop_assert!(a.static_power_mw() < b.static_power_mw());
            prop_assert!(a.read_energy_pj() < b.read_energy_pj());
        }
    }

    /// Bus area is monotone in width, cores and bus count.
    #[test]
    fn bus_area_is_monotone(width_a in 1u64..128, width_b in 1u64..128, cores in 1usize..16) {
        let a = BusAreaModel::new(width_a, cores, 1);
        let b = BusAreaModel::new(width_b, cores, 1);
        if width_a < width_b {
            prop_assert!(a.area_mm2() < b.area_mm2());
        }
        let single = BusAreaModel::new(width_a, cores, 1);
        let double = BusAreaModel::new(width_a, cores, 2);
        prop_assert!(double.area_mm2() > single.area_mm2());
    }

    /// Energy breakdowns never go negative and the total always equals the sum of the
    /// components for arbitrary activity counters.
    #[test]
    fn energy_total_is_sum_of_components(
        cycles in 1u64..10_000_000,
        instructions in 0u64..100_000_000,
        accesses in 0u64..10_000_000,
        transactions in 0u64..10_000_000,
    ) {
        let design = DesignPoint::proposed().cluster_design(8);
        let e = design.energy(&ClusterActivity {
            cycles,
            instructions,
            icache_accesses: accesses,
            line_buffer_accesses: accesses * 2,
            bus_transactions: transactions,
        });
        let sum = e.static_mj + e.core_dynamic_mj + e.icache_dynamic_mj
            + e.line_buffer_dynamic_mj + e.bus_dynamic_mj;
        prop_assert!((e.total_mj() - sum).abs() < 1e-9);
        prop_assert!(e.total_mj() >= 0.0);
        prop_assert!(e.static_fraction() >= 0.0 && e.static_fraction() <= 1.0);
    }
}
