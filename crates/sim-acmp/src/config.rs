//! ACMP machine configuration (Table I of the paper).

use serde::{Deserialize, Serialize};
use sim_cache::{CacheConfig, L2Config};
use sim_core::CoreConfig;
use sim_interconnect::BusConfig;

/// How the worker I-caches are organised.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SharingMode {
    /// Every core has a private I-cache (the baseline, `cpc = 1`).
    Private,
    /// Groups of `cores_per_cache` worker cores share one I-cache; the
    /// master keeps its private I-cache.
    WorkerShared {
        /// Number of worker cores per shared I-cache (Table I: 2, 4 or 8).
        cores_per_cache: usize,
    },
    /// A single I-cache shared by **all** cores including the master
    /// (Section VI-E).
    AllShared,
}

impl SharingMode {
    /// Returns the `cpc` value used in the paper's figures (1 for private).
    pub fn cores_per_cache(&self) -> usize {
        match self {
            SharingMode::Private => 1,
            SharingMode::WorkerShared { cores_per_cache } => *cores_per_cache,
            SharingMode::AllShared => usize::MAX,
        }
    }
}

/// Number of I-buses between a sharing group and its I-cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BusWidth {
    /// One bus for the whole shared I-cache.
    Single,
    /// One bus per bank (two banks, even/odd line interleaving).
    Double,
}

impl BusWidth {
    /// Number of buses (and cache banks).
    pub fn num_buses(&self) -> usize {
        match self {
            BusWidth::Single => 1,
            BusWidth::Double => 2,
        }
    }
}

/// Full configuration of the simulated ACMP.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AcmpConfig {
    /// Number of lean worker cores (Table I: 8).
    pub num_workers: usize,
    /// Master-core configuration.
    pub master_core: CoreConfig,
    /// Worker-core configuration.
    pub worker_core: CoreConfig,
    /// The master's private I-cache (always 32 KB in the paper).
    pub master_icache: CacheConfig,
    /// The worker I-cache (private per core, or shared per group).
    pub worker_icache: CacheConfig,
    /// How worker I-caches are shared.
    pub sharing: SharingMode,
    /// I-bus parameters (only used when an I-cache is shared).
    pub bus: BusConfig,
    /// Single or double bus.
    pub bus_width: BusWidth,
    /// L2/DRAM path behind each I-cache.
    pub l2: L2Config,
    /// Safety limit on simulated cycles.
    pub max_cycles: u64,
}

impl AcmpConfig {
    /// The paper's baseline: 1 + `num_workers` cores, private 32 KB
    /// I-caches, four line buffers.
    pub fn baseline(num_workers: usize) -> Self {
        AcmpConfig {
            num_workers,
            master_core: CoreConfig::master(),
            worker_core: CoreConfig::worker(),
            master_icache: CacheConfig::icache_32k(),
            worker_icache: CacheConfig::icache_32k(),
            sharing: SharingMode::Private,
            bus: BusConfig::paper_single_bus(),
            bus_width: BusWidth::Single,
            l2: L2Config::default(),
            max_cycles: 500_000_000,
        }
    }

    /// Naive sharing (Section VI-A): a 32 KB I-cache shared by groups of
    /// `cpc` workers over a single bus, four line buffers.
    ///
    /// # Panics
    ///
    /// Panics if `cpc` does not divide the number of workers.
    pub fn worker_shared(num_workers: usize, cpc: usize) -> Self {
        let mut c = Self::baseline(num_workers);
        assert!(
            cpc >= 1 && num_workers.is_multiple_of(cpc),
            "cpc must divide the worker count"
        );
        c.sharing = if cpc == 1 {
            SharingMode::Private
        } else {
            SharingMode::WorkerShared {
                cores_per_cache: cpc,
            }
        };
        c
    }

    /// The paper's preferred design point (Fig. 12, rightmost bars minus the
    /// area-optimal one): all eight workers share a 16 KB I-cache reached
    /// through a double bus, with four line buffers.
    pub fn proposed(num_workers: usize) -> Self {
        let mut c = Self::worker_shared(num_workers, num_workers);
        c.worker_icache = CacheConfig::icache_16k();
        c.bus_width = BusWidth::Double;
        c
    }

    /// The all-shared configuration of Section VI-E: every core, master
    /// included, shares one 32 KB I-cache over a double bus.
    pub fn all_shared(num_workers: usize) -> Self {
        let mut c = Self::baseline(num_workers);
        c.sharing = SharingMode::AllShared;
        c.worker_icache = CacheConfig::icache_32k();
        c.bus_width = BusWidth::Double;
        c
    }

    /// Returns a copy with `n` line buffers on every core.
    pub fn with_line_buffers(mut self, n: usize) -> Self {
        self.master_core = self.master_core.with_line_buffers(n);
        self.worker_core = self.worker_core.with_line_buffers(n);
        self
    }

    /// Returns a copy with the given bus width.
    pub fn with_bus_width(mut self, width: BusWidth) -> Self {
        self.bus_width = width;
        self
    }

    /// Returns a copy with the given worker I-cache size in bytes.
    pub fn with_worker_icache_size(mut self, bytes: u64) -> Self {
        self.worker_icache = self.worker_icache.with_size(bytes);
        self
    }

    /// Total number of cores (master + workers).
    pub fn num_cores(&self) -> usize {
        self.num_workers + 1
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (zero workers, a sharing
    /// degree that does not divide the worker count, or invalid sub-configs).
    pub fn validate(&self) {
        assert!(self.num_workers >= 1, "need at least one worker core");
        self.master_core.validate();
        self.worker_core.validate();
        if let SharingMode::WorkerShared { cores_per_cache } = self.sharing {
            assert!(
                cores_per_cache >= 2 && self.num_workers.is_multiple_of(cores_per_cache),
                "cores-per-cache {cores_per_cache} must divide the worker count {}",
                self.num_workers
            );
        }
        assert!(self.max_cycles > 0, "cycle limit must be positive");
    }
}

impl Default for AcmpConfig {
    /// The Table I machine: one master and eight workers with private
    /// I-caches.
    fn default() -> Self {
        AcmpConfig::baseline(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_configs_validate() {
        AcmpConfig::baseline(8).validate();
        AcmpConfig::worker_shared(8, 2).validate();
        AcmpConfig::worker_shared(8, 4).validate();
        AcmpConfig::worker_shared(8, 8).validate();
        AcmpConfig::proposed(8).validate();
        AcmpConfig::all_shared(8).validate();
    }

    #[test]
    fn proposed_design_is_16k_double_bus() {
        let c = AcmpConfig::proposed(8);
        assert_eq!(c.worker_icache.size_bytes, 16 * 1024);
        assert_eq!(c.bus_width, BusWidth::Double);
        assert_eq!(c.sharing, SharingMode::WorkerShared { cores_per_cache: 8 });
        assert_eq!(c.master_icache.size_bytes, 32 * 1024);
    }

    #[test]
    fn cpc_of_one_is_private() {
        let c = AcmpConfig::worker_shared(8, 1);
        assert_eq!(c.sharing, SharingMode::Private);
        assert_eq!(c.sharing.cores_per_cache(), 1);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn cpc_must_divide_worker_count() {
        AcmpConfig::worker_shared(8, 3);
    }

    #[test]
    fn builders_modify_fields() {
        let c = AcmpConfig::baseline(8)
            .with_line_buffers(8)
            .with_bus_width(BusWidth::Double)
            .with_worker_icache_size(16 * 1024);
        assert_eq!(c.worker_core.frontend.line_buffers, 8);
        assert_eq!(c.master_core.frontend.line_buffers, 8);
        assert_eq!(c.bus_width, BusWidth::Double);
        assert_eq!(c.worker_icache.size_bytes, 16 * 1024);
    }

    #[test]
    fn bus_width_bus_count() {
        assert_eq!(BusWidth::Single.num_buses(), 1);
        assert_eq!(BusWidth::Double.num_buses(), 2);
    }

    #[test]
    fn default_is_the_table_one_baseline() {
        let c = AcmpConfig::default();
        assert_eq!(c.num_workers, 8);
        assert_eq!(c.num_cores(), 9);
        assert_eq!(c.sharing, SharingMode::Private);
    }
}
