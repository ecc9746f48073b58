//! Cache access statistics.

use serde::{Deserialize, Serialize};

/// Counters accumulated by a cache over a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CacheStats {
    /// Total number of lookups.
    pub accesses: u64,
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Misses to lines never seen before by this cache (cold/compulsory).
    pub compulsory_misses: u64,
    /// Misses to lines that were previously resident and were evicted
    /// (capacity/conflict).
    pub non_compulsory_misses: u64,
    /// Number of evictions of valid lines.
    pub evictions: u64,
}

impl CacheStats {
    /// Hit ratio in `[0, 1]`; 0 if there were no accesses.
    pub fn hit_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }

    /// Miss ratio in `[0, 1]`; 0 if there were no accesses.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Misses per kilo-instruction given the number of committed
    /// instructions the cache served (the paper's MPKI metric).
    pub fn mpki(&self, instructions: u64) -> f64 {
        if instructions == 0 {
            0.0
        } else {
            self.misses as f64 * 1000.0 / instructions as f64
        }
    }

    /// Merges another set of counters into this one.
    pub fn merge(&mut self, other: &CacheStats) {
        self.accesses += other.accesses;
        self.hits += other.hits;
        self.misses += other.misses;
        self.compulsory_misses += other.compulsory_misses;
        self.non_compulsory_misses += other.non_compulsory_misses;
        self.evictions += other.evictions;
    }
}

impl std::ops::Add for CacheStats {
    type Output = CacheStats;

    fn add(self, rhs: CacheStats) -> CacheStats {
        let mut out = self;
        out.merge(&rhs);
        out
    }
}

impl std::iter::Sum for CacheStats {
    fn sum<I: Iterator<Item = CacheStats>>(iter: I) -> CacheStats {
        iter.fold(CacheStats::default(), |acc, s| acc + s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CacheStats {
        CacheStats {
            accesses: 1000,
            hits: 900,
            misses: 100,
            compulsory_misses: 40,
            non_compulsory_misses: 60,
            evictions: 55,
        }
    }

    #[test]
    fn ratios() {
        let s = sample();
        assert!((s.hit_ratio() - 0.9).abs() < 1e-12);
        assert!((s.miss_ratio() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn mpki_uses_instruction_count() {
        let s = sample();
        assert!((s.mpki(50_000) - 2.0).abs() < 1e-12);
        assert_eq!(s.mpki(0), 0.0);
    }

    #[test]
    fn empty_stats_have_zero_ratios() {
        let s = CacheStats::default();
        assert_eq!(s.hit_ratio(), 0.0);
        assert_eq!(s.miss_ratio(), 0.0);
    }

    #[test]
    fn merge_and_sum() {
        let total: CacheStats = vec![sample(), sample()].into_iter().sum();
        assert_eq!(total.accesses, 2000);
        assert_eq!(total.misses, 200);
        assert_eq!(total.compulsory_misses, 80);
        let added = sample() + sample();
        assert_eq!(added, total);
    }
}
