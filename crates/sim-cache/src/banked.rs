//! Multi-banked cache wrapper.
//!
//! Section IV-B of the paper proposes a multi-banked shared I-cache where
//! lines are interleaved across banks (even lines in one bank, odd lines in
//! the other for two banks) and every bank has its own bus.  The banking
//! only affects *which bus a request uses* and *which requests can be served
//! in the same cycle*; the storage is still one logical cache, so capacity
//! and replacement behave exactly as an equally sized monolithic cache.
//!
//! [`BankedCache`] therefore wraps a single [`SetAssocCache`] and exposes the
//! line-to-bank mapping plus per-bank statistics.

use crate::config::CacheConfig;
use crate::set_assoc::{AccessOutcome, SetAssocCache};
use crate::stats::CacheStats;

/// A logically shared cache whose lines are interleaved across banks.
#[derive(Debug)]
pub struct BankedCache {
    inner: SetAssocCache,
    num_banks: u32,
    per_bank: Vec<CacheStats>,
}

impl BankedCache {
    /// Creates a banked cache with LRU replacement.
    ///
    /// # Panics
    ///
    /// Panics if `num_banks` is zero or not a power of two.
    pub fn new(config: CacheConfig, num_banks: u32) -> Self {
        assert!(
            num_banks > 0 && num_banks.is_power_of_two(),
            "number of banks must be a non-zero power of two, got {num_banks}"
        );
        BankedCache {
            inner: SetAssocCache::new(config),
            num_banks,
            per_bank: vec![CacheStats::default(); num_banks as usize],
        }
    }

    /// Number of banks.
    pub fn num_banks(&self) -> u32 {
        self.num_banks
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        self.inner.config()
    }

    /// Returns the bank serving the line that contains `addr`
    /// (line-index modulo the number of banks, i.e. even/odd interleaving
    /// for two banks).
    #[inline]
    pub fn bank_of(&self, addr: u64) -> u32 {
        let line_index = addr / self.inner.config().line_size;
        (line_index % self.num_banks as u64) as u32
    }

    /// Accesses the line containing `addr`; equivalent to
    /// [`SetAssocCache::access`] plus per-bank accounting.
    #[inline]
    pub fn access(&mut self, addr: u64) -> AccessOutcome {
        let bank = self.bank_of(addr) as usize;
        let outcome = self.inner.access(addr);
        let s = &mut self.per_bank[bank];
        s.accesses += 1;
        match outcome {
            AccessOutcome::Hit => s.hits += 1,
            AccessOutcome::Miss { .. } => s.misses += 1,
        }
        outcome
    }

    /// Non-mutating residency check.
    pub fn probe(&self, addr: u64) -> bool {
        self.inner.probe(addr)
    }

    /// Aggregate statistics over all banks.
    pub fn stats(&self) -> &CacheStats {
        self.inner.stats()
    }

    /// Per-bank statistics (accesses/hits/misses attributed to each bank).
    pub fn bank_stats(&self) -> &[CacheStats] {
        &self.per_bank
    }

    /// Hit latency in cycles.
    #[inline]
    pub fn latency(&self) -> u64 {
        self.inner.latency()
    }

    /// Access to the underlying cache (e.g. for flushing in tests).
    pub fn inner_mut(&mut self) -> &mut SetAssocCache {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_odd_interleaving_with_two_banks() {
        let c = BankedCache::new(CacheConfig::icache_32k(), 2);
        assert_eq!(c.bank_of(0x0000), 0);
        assert_eq!(c.bank_of(0x0040), 1);
        assert_eq!(c.bank_of(0x0080), 0);
        assert_eq!(c.bank_of(0x00c0), 1);
        // Offsets within a line do not change the bank.
        assert_eq!(c.bank_of(0x0041), 1);
    }

    #[test]
    fn single_bank_maps_everything_to_bank_zero() {
        let c = BankedCache::new(CacheConfig::icache_32k(), 1);
        for addr in [0x0u64, 0x40, 0x1234, 0xffff] {
            assert_eq!(c.bank_of(addr), 0);
        }
    }

    #[test]
    fn per_bank_stats_accumulate() {
        let mut c = BankedCache::new(CacheConfig::icache_32k(), 2);
        c.access(0x0000); // bank 0 miss
        c.access(0x0000); // bank 0 hit
        c.access(0x0040); // bank 1 miss
        let b = c.bank_stats();
        assert_eq!(b[0].accesses, 2);
        assert_eq!(b[0].hits, 1);
        assert_eq!(b[1].accesses, 1);
        assert_eq!(b[1].misses, 1);
        assert_eq!(c.stats().accesses, 3);
    }

    #[test]
    fn banking_does_not_change_miss_behaviour() {
        // The same access stream produces identical aggregate stats with 1,
        // 2 and 4 banks (banking only affects bus routing, not storage).
        let addrs: Vec<u64> = (0..4096u64).map(|i| (i * 67) % (64 * 1024)).collect();
        let mut results = Vec::new();
        for banks in [1u32, 2, 4] {
            let mut c = BankedCache::new(CacheConfig::icache_16k(), banks);
            for &a in &addrs {
                c.access(a);
            }
            results.push(*c.stats());
        }
        assert_eq!(results[0], results[1]);
        assert_eq!(results[1], results[2]);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_three_banks() {
        BankedCache::new(CacheConfig::icache_32k(), 3);
    }

    #[test]
    fn probe_and_flush_via_inner() {
        let mut c = BankedCache::new(CacheConfig::icache_32k(), 2);
        c.access(0x1000);
        assert!(c.probe(0x1000));
        c.inner_mut().flush();
        assert!(!c.probe(0x1000));
        assert_eq!(c.latency(), 1);
        assert_eq!(c.num_banks(), 2);
    }
}
