//! Cluster-level area and energy of the evaluated design points.
//!
//! Following the paper's Section VI-D, the comparison covers the **worker
//! cluster only**: the eight lean cores, their I-caches (private or shared),
//! their line buffers, and the I-bus.  The master core, the LLC and the NoC
//! are excluded because they are identical in every design point.

use crate::bus::BusAreaModel;
use crate::cache::{CacheCostModel, LineBufferCost};
use crate::core::LeanCoreModel;
use crate::energy::EnergyBreakdown;
use crate::technology::TechnologyNode;
use serde::{Deserialize, Serialize};

/// How the worker I-caches are organised in a design point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum IcacheOrganisation {
    /// One private I-cache per worker core.
    Private {
        /// Capacity of each private I-cache in bytes.
        size_bytes: u64,
    },
    /// Groups of `cores_per_cache` workers share one I-cache.
    Shared {
        /// Capacity of each shared I-cache in bytes.
        size_bytes: u64,
        /// Workers per shared cache.
        cores_per_cache: usize,
        /// Buses per shared cache (1 = single, 2 = double).
        num_buses: usize,
    },
}

/// A worker-cluster design point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClusterDesign {
    /// Number of lean worker cores (8 in the paper).
    pub num_workers: usize,
    /// Line buffers per core.
    pub line_buffers: usize,
    /// I-cache organisation.
    pub organisation: IcacheOrganisation,
}

/// Per-run activity counters fed into the energy model (taken from the
/// simulator's `sim_acmp::SimResult`-level statistics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ClusterActivity {
    /// Execution time of the run in cycles.
    pub cycles: u64,
    /// Instructions committed by the worker cores.
    pub instructions: u64,
    /// Reads served by the worker I-caches.
    pub icache_accesses: u64,
    /// Line-buffer lookups made by the worker front-ends.
    pub line_buffer_accesses: u64,
    /// Transactions on the I-bus (zero for the private organisation).
    pub bus_transactions: u64,
}

/// Area breakdown of a cluster design in mm².
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ClusterCost {
    /// Core area excluding I-caches.
    pub cores_mm2: f64,
    /// Total I-cache area.
    pub icaches_mm2: f64,
    /// Total line-buffer area.
    pub line_buffers_mm2: f64,
    /// I-bus area.
    pub bus_mm2: f64,
}

impl ClusterCost {
    /// Total cluster area in mm².
    pub fn total_mm2(&self) -> f64 {
        self.cores_mm2 + self.icaches_mm2 + self.line_buffers_mm2 + self.bus_mm2
    }
}

impl ClusterDesign {
    /// The paper's baseline: eight workers with private 32 KB I-caches and
    /// four line buffers.
    pub fn baseline(num_workers: usize) -> Self {
        ClusterDesign {
            num_workers,
            line_buffers: 4,
            organisation: IcacheOrganisation::Private {
                size_bytes: 32 * 1024,
            },
        }
    }

    /// A cpc = `num_workers` shared design with the given cache size, line
    /// buffers and bus count.
    pub fn shared(
        num_workers: usize,
        size_bytes: u64,
        line_buffers: usize,
        num_buses: usize,
    ) -> Self {
        ClusterDesign {
            num_workers,
            line_buffers,
            organisation: IcacheOrganisation::Shared {
                size_bytes,
                cores_per_cache: num_workers,
                num_buses,
            },
        }
    }

    /// Number of I-caches in the cluster.
    pub fn num_icaches(&self) -> usize {
        match self.organisation {
            IcacheOrganisation::Private { .. } => self.num_workers,
            IcacheOrganisation::Shared {
                cores_per_cache, ..
            } => self.num_workers.div_ceil(cores_per_cache),
        }
    }

    fn icache_model(&self) -> CacheCostModel {
        let size = match self.organisation {
            IcacheOrganisation::Private { size_bytes } => size_bytes,
            IcacheOrganisation::Shared { size_bytes, .. } => size_bytes,
        };
        CacheCostModel::new(size)
    }

    fn bus_model(&self) -> Option<BusAreaModel> {
        match self.organisation {
            IcacheOrganisation::Private { .. } => None,
            IcacheOrganisation::Shared {
                cores_per_cache,
                num_buses,
                ..
            } => Some(BusAreaModel::new(32, cores_per_cache, num_buses)),
        }
    }

    /// Area breakdown of the cluster.
    pub fn area(&self) -> ClusterCost {
        let icache = self.icache_model();
        let num_groups = self.num_icaches();
        let bus_mm2 = self
            .bus_model()
            .map(|b| b.area_mm2() * (self.num_workers / b.num_cores.max(1)) as f64)
            .unwrap_or(0.0);
        ClusterCost {
            cores_mm2: LeanCoreModel::AREA_MM2 * self.num_workers as f64,
            icaches_mm2: icache.area_mm2() * num_groups as f64,
            line_buffers_mm2: LineBufferCost::AREA_MM2
                * (self.line_buffers * self.num_workers) as f64,
            bus_mm2,
        }
    }

    /// Total static power of the cluster in mW.
    pub fn static_power_mw(&self) -> f64 {
        let icache = self.icache_model();
        let bus = self.bus_model().map(|b| b.static_power_mw()).unwrap_or(0.0);
        LeanCoreModel::STATIC_MW * self.num_workers as f64
            + icache.static_power_mw() * self.num_icaches() as f64
            + LineBufferCost::STATIC_MW * (self.line_buffers * self.num_workers) as f64
            + bus
    }

    /// Energy consumed during a run with the given activity counters.
    pub fn energy(&self, activity: &ClusterActivity) -> EnergyBreakdown {
        let tech = TechnologyNode::node_45nm();
        let seconds = tech.cycles_to_seconds(activity.cycles);
        let icache = self.icache_model();
        let bus_pj = self
            .bus_model()
            .map(|b| b.energy_per_transaction_pj())
            .unwrap_or(0.0);

        // mW × s = mJ; pJ × count = pJ, converted to mJ via 1e-9.
        EnergyBreakdown {
            static_mj: self.static_power_mw() * seconds,
            core_dynamic_mj: activity.instructions as f64
                * LeanCoreModel::ENERGY_PER_INSTR_PJ
                * 1e-9,
            icache_dynamic_mj: activity.icache_accesses as f64 * icache.read_energy_pj() * 1e-9,
            line_buffer_dynamic_mj: activity.line_buffer_accesses as f64
                * LineBufferCost::READ_PJ
                * 1e-9,
            bus_dynamic_mj: activity.bus_transactions as f64 * bus_pj * 1e-9,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn activity(cycles: u64) -> ClusterActivity {
        ClusterActivity {
            cycles,
            instructions: 8 * cycles * 8 / 10, // IPC 0.8 per worker
            icache_accesses: 8 * cycles / 30,
            line_buffer_accesses: 8 * cycles / 14,
            bus_transactions: 0,
        }
    }

    #[test]
    fn shared_16k_double_bus_saves_roughly_ten_percent_area() {
        let baseline = ClusterDesign::baseline(8).area().total_mm2();
        let proposed = ClusterDesign::shared(8, 16 * 1024, 4, 2).area().total_mm2();
        let savings = 1.0 - proposed / baseline;
        assert!(
            (0.08..=0.16).contains(&savings),
            "the paper reports ~11% area savings; model gives {:.1}%",
            savings * 100.0
        );
    }

    #[test]
    fn single_bus_design_saves_more_area_than_double_bus() {
        let single = ClusterDesign::shared(8, 16 * 1024, 4, 1).area().total_mm2();
        let double = ClusterDesign::shared(8, 16 * 1024, 4, 2).area().total_mm2();
        assert!(single < double);
    }

    #[test]
    fn more_line_buffers_cost_more_area() {
        let four = ClusterDesign::shared(8, 16 * 1024, 4, 2).area().total_mm2();
        let eight = ClusterDesign::shared(8, 16 * 1024, 8, 2).area().total_mm2();
        assert!(eight > four);
    }

    #[test]
    fn shared_design_has_lower_static_power() {
        let baseline = ClusterDesign::baseline(8).static_power_mw();
        let proposed = ClusterDesign::shared(8, 16 * 1024, 4, 2).static_power_mw();
        assert!(proposed < baseline);
    }

    #[test]
    fn energy_savings_in_the_paper_ballpark_at_equal_time() {
        // With identical execution time and activity, the shared design
        // saves energy mostly through I-cache leakage; the paper reports ~5%
        // for the double-bus design point.
        let act_private = activity(1_000_000);
        let mut act_shared = act_private;
        // The shared cache sees the same total accesses but they now ride
        // the bus.
        act_shared.bus_transactions = act_shared.icache_accesses;
        let baseline = ClusterDesign::baseline(8).energy(&act_private).total_mj();
        let proposed = ClusterDesign::shared(8, 16 * 1024, 4, 2)
            .energy(&act_shared)
            .total_mj();
        let savings = 1.0 - proposed / baseline;
        assert!(
            (0.01..=0.12).contains(&savings),
            "energy savings should be a few percent, got {:.1}%",
            savings * 100.0
        );
    }

    #[test]
    fn longer_execution_time_costs_more_energy() {
        let d = ClusterDesign::shared(8, 16 * 1024, 4, 1);
        let short = d.energy(&activity(1_000_000)).total_mj();
        let long = d.energy(&activity(1_100_000)).total_mj();
        assert!(long > short);
    }

    #[test]
    fn num_icaches_by_organisation() {
        assert_eq!(ClusterDesign::baseline(8).num_icaches(), 8);
        assert_eq!(ClusterDesign::shared(8, 16 * 1024, 4, 1).num_icaches(), 1);
        let grouped = ClusterDesign {
            num_workers: 8,
            line_buffers: 4,
            organisation: IcacheOrganisation::Shared {
                size_bytes: 32 * 1024,
                cores_per_cache: 4,
                num_buses: 1,
            },
        };
        assert_eq!(grouped.num_icaches(), 2);
    }

    #[test]
    fn cluster_cost_total_is_component_sum() {
        let c = ClusterDesign::baseline(8).area();
        let sum = c.cores_mm2 + c.icaches_mm2 + c.line_buffers_mm2 + c.bus_mm2;
        assert!((c.total_mm2() - sum).abs() < 1e-12);
        assert_eq!(c.bus_mm2, 0.0, "private organisation has no bus");
    }
}
