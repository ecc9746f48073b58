//! Unified second-level cache model.
//!
//! The paper's Table I specifies a private 1 MB, 32-way L2 per core with a
//! 20-cycle access latency and a 32 B bus to DRAM.  The L2 here serves only
//! instruction fills (the data side is folded into the measured back-end
//! IPC, exactly as in the paper's methodology), so its main role is to supply
//! the latency of I-cache misses.

use crate::config::CacheConfig;
use crate::dram::{Dram, DramConfig};
use crate::set_assoc::{AccessOutcome, SetAssocCache};
use crate::stats::CacheStats;
use serde::{Deserialize, Serialize};

/// Configuration of the L2 + memory path.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct L2Config {
    /// L2 geometry and hit latency (Table I: 1 MB, 32-way, 20 cycles).
    pub cache: CacheConfig,
    /// Latency of the L2-to-DRAM bus in cycles (Table I: 4 cycles), charged
    /// on each L2 miss in addition to the DRAM access time.
    pub dram_bus_latency: u64,
    /// DRAM timing.
    pub dram: DramConfig,
}

impl Default for L2Config {
    fn default() -> Self {
        L2Config {
            cache: CacheConfig::l2_1m(),
            dram_bus_latency: 4,
            dram: DramConfig::ddr3_1600(),
        }
    }
}

/// An L2 cache backed by DRAM; returns the total fill latency for each
/// instruction-fetch miss handed to it.
#[derive(Debug)]
pub struct L2Cache {
    config: L2Config,
    cache: SetAssocCache,
    dram: Dram,
}

impl L2Cache {
    /// Creates an L2 with the given configuration.
    pub fn new(config: L2Config) -> Self {
        L2Cache {
            config,
            cache: SetAssocCache::new(config.cache),
            dram: Dram::new(config.dram),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &L2Config {
        &self.config
    }

    /// L2 hit/miss statistics.
    pub fn stats(&self) -> &CacheStats {
        self.cache.stats()
    }

    /// Services a fill request for the line containing `addr`, returning the
    /// number of cycles until the line is available at the L2's interface
    /// (L2 hit latency, plus the DRAM round trip on an L2 miss).
    pub fn fill(&mut self, addr: u64) -> u64 {
        let outcome = self.cache.access(addr);
        let mut latency = self.config.cache.latency;
        if let AccessOutcome::Miss { .. } = outcome {
            latency += self.config.dram_bus_latency + self.dram.access(addr);
        }
        latency
    }

    /// Non-mutating residency check.
    pub fn probe(&self, addr: u64) -> bool {
        self.cache.probe(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l2_hit_costs_only_l2_latency() {
        let mut l2 = L2Cache::new(L2Config::default());
        let first = l2.fill(0x1000);
        assert!(first > 20, "cold fill goes to DRAM: {first}");
        let second = l2.fill(0x1000);
        assert_eq!(second, 20, "L2 hit costs the 20-cycle L2 latency");
    }

    #[test]
    fn l2_miss_includes_dram_and_bus() {
        let cfg = L2Config::default();
        let mut l2 = L2Cache::new(cfg);
        let latency = l2.fill(0x8_0000);
        assert!(
            latency >= cfg.cache.latency + cfg.dram_bus_latency + 20,
            "L2 miss latency {latency} should include bus and DRAM time"
        );
        assert_eq!(l2.stats().misses, 1);
    }

    #[test]
    fn small_instruction_footprint_stays_in_l2() {
        let mut l2 = L2Cache::new(L2Config::default());
        // 128 KB of code: fits easily in a 1 MB L2.
        let lines: Vec<u64> = (0..2048u64).map(|i| i * 64).collect();
        for &l in &lines {
            l2.fill(l);
        }
        let cold_misses = l2.stats().misses;
        for &l in &lines {
            l2.fill(l);
        }
        assert_eq!(l2.stats().misses, cold_misses);
        assert!(l2.probe(0));
    }

    #[test]
    fn default_config_matches_table_one() {
        let cfg = L2Config::default();
        assert_eq!(cfg.cache.size_bytes, 1024 * 1024);
        assert_eq!(cfg.cache.associativity, 32);
        assert_eq!(cfg.cache.latency, 20);
        assert_eq!(cfg.dram_bus_latency, 4);
    }
}
