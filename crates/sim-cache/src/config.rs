//! Cache geometry configuration.

use serde::{Deserialize, Serialize};

/// Geometry and latency of a single cache.
///
/// The named constructors provide the configurations of Table I of the
/// paper: a 32 KB / 8-way / 64 B-line I-cache with 1-cycle latency (the
/// baseline private I-cache and the 32 KB shared one), its 16 KB variant,
/// and the 1 MB / 32-way L2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub associativity: u32,
    /// Line size in bytes (must be a power of two).
    pub line_size: u64,
    /// Access latency in cycles (hit latency).
    pub latency: u64,
}

impl CacheConfig {
    /// Creates a configuration after validating the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent: zero sizes, non-power-of-two
    /// line size or set count, or capacity not divisible by
    /// `associativity * line_size`.
    pub fn new(size_bytes: u64, associativity: u32, line_size: u64, latency: u64) -> Self {
        let cfg = CacheConfig {
            size_bytes,
            associativity,
            line_size,
            latency,
        };
        cfg.validate();
        cfg
    }

    /// The paper's standard 32 KB, 8-way, 64 B-line, 1-cycle I-cache.
    pub fn icache_32k() -> Self {
        CacheConfig::new(32 * 1024, 8, 64, 1)
    }

    /// The 16 KB shared I-cache variant evaluated in Figures 10–12.
    pub fn icache_16k() -> Self {
        CacheConfig::new(16 * 1024, 8, 64, 1)
    }

    /// The paper's 1 MB, 32-way, 20-cycle L2 cache.
    pub fn l2_1m() -> Self {
        CacheConfig::new(1024 * 1024, 32, 64, 20)
    }

    /// Number of sets.
    pub fn num_sets(&self) -> u64 {
        self.size_bytes / (self.associativity as u64 * self.line_size)
    }

    /// Number of lines the cache can hold.
    pub fn num_lines(&self) -> u64 {
        self.size_bytes / self.line_size
    }

    /// Returns the set index for a line-aligned address.
    pub fn set_index(&self, line_addr: u64) -> u64 {
        (line_addr / self.line_size) % self.num_sets()
    }

    /// Returns the tag for a line-aligned address.
    pub fn tag(&self, line_addr: u64) -> u64 {
        (line_addr / self.line_size) / self.num_sets()
    }

    /// Returns a copy with a different capacity, keeping other parameters.
    ///
    /// # Panics
    ///
    /// Panics if the resulting geometry is invalid.
    pub fn with_size(&self, size_bytes: u64) -> Self {
        CacheConfig::new(size_bytes, self.associativity, self.line_size, self.latency)
    }

    fn validate(&self) {
        assert!(self.size_bytes > 0, "cache size must be positive");
        assert!(self.associativity > 0, "associativity must be positive");
        assert!(
            self.line_size.is_power_of_two(),
            "line size must be a power of two, got {}",
            self.line_size
        );
        assert!(
            self.size_bytes
                .is_multiple_of(self.associativity as u64 * self.line_size),
            "cache size {} is not divisible by associativity {} x line size {}",
            self.size_bytes,
            self.associativity,
            self.line_size
        );
        assert!(
            self.num_sets().is_power_of_two(),
            "number of sets must be a power of two, got {}",
            self.num_sets()
        );
    }
}

impl Default for CacheConfig {
    /// The default configuration is the paper's 32 KB I-cache.
    fn default() -> Self {
        CacheConfig::icache_32k()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_configs_have_expected_geometry() {
        let c = CacheConfig::icache_32k();
        assert_eq!(c.num_sets(), 64);
        assert_eq!(c.num_lines(), 512);
        assert_eq!(c.latency, 1);

        let c16 = CacheConfig::icache_16k();
        assert_eq!(c16.num_sets(), 32);

        let l2 = CacheConfig::l2_1m();
        assert_eq!(l2.num_sets(), 512);
        assert_eq!(l2.latency, 20);
    }

    #[test]
    fn set_index_and_tag_partition_the_address() {
        let c = CacheConfig::icache_32k();
        let addr = 0x0004_5640u64; // line-aligned
        let set = c.set_index(addr);
        let tag = c.tag(addr);
        assert!(set < c.num_sets());
        // Reconstruct: (tag * num_sets + set) * line_size == addr
        assert_eq!((tag * c.num_sets() + set) * c.line_size, addr);
    }

    #[test]
    fn with_size_keeps_other_fields() {
        let c = CacheConfig::icache_32k().with_size(16 * 1024);
        assert_eq!(c, CacheConfig::icache_16k());
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn rejects_bad_capacity() {
        CacheConfig::new(1000, 8, 64, 1);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_bad_line_size() {
        CacheConfig::new(32 * 1024, 8, 48, 1);
    }

    #[test]
    #[should_panic(expected = "associativity")]
    fn rejects_zero_associativity() {
        CacheConfig::new(32 * 1024, 0, 64, 1);
    }

    #[test]
    #[should_panic(expected = "number of sets must be a power of two, got 48")]
    fn rejects_a_non_power_of_two_set_count() {
        CacheConfig::new(24 * 1024, 8, 64, 1);
    }

    #[test]
    #[should_panic(expected = "cache size must be positive")]
    fn rejects_zero_capacity() {
        CacheConfig::new(0, 8, 64, 1);
    }

    #[test]
    fn consecutive_lines_walk_the_sets_then_bump_the_tag() {
        let c = CacheConfig::icache_32k();
        for i in 0..3 * c.num_sets() {
            assert_eq!(c.set_index(i * c.line_size), i % c.num_sets());
            assert_eq!(c.tag(i * c.line_size), i / c.num_sets());
        }
    }

    #[test]
    fn default_is_32k_icache() {
        assert_eq!(CacheConfig::default(), CacheConfig::icache_32k());
    }
}
