//! Set-associative cache model.

use crate::config::CacheConfig;
use crate::hashing::LineHashBuilder;
use crate::replacement::LruPolicy;
use crate::stats::CacheStats;
use std::collections::HashSet;

/// Classification of a miss (used by the Fig. 11 miss analysis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MissKind {
    /// The line was never referenced before by this cache (cold miss).
    Compulsory,
    /// The line was referenced before but is no longer resident
    /// (capacity or conflict miss).
    NonCompulsory,
}

/// Result of a cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The line is resident.
    Hit,
    /// The line is not resident and was (functionally) filled by this access.
    Miss {
        /// Cold vs capacity/conflict classification.
        kind: MissKind,
        /// Line address evicted to make room, if a valid line was displaced.
        evicted: Option<u64>,
    },
}

impl AccessOutcome {
    /// Returns `true` for [`AccessOutcome::Hit`].
    pub fn is_hit(&self) -> bool {
        matches!(self, AccessOutcome::Hit)
    }
}

/// A set-associative cache with allocate-on-miss fill policy and LRU
/// replacement.
///
/// Addresses passed to [`SetAssocCache::access`] may be arbitrary byte
/// addresses; they are aligned down to the configured line size internally.
///
/// Tags are stored struct-of-arrays style in one flat allocation indexed
/// `set * associativity + way`, so the hit-path scan touches contiguous
/// memory instead of chasing one heap pointer per set.
#[derive(Debug)]
pub struct SetAssocCache {
    config: CacheConfig,
    /// `tags[set * assoc + way]` is `Some(tag)` when the way holds a valid
    /// line.
    tags: Vec<Option<u64>>,
    /// One LRU state per set.
    policies: Vec<LruPolicy>,
    stats: CacheStats,
    /// All line addresses ever referenced, for compulsory-miss
    /// classification.
    ever_seen: HashSet<u64, LineHashBuilder>,
}

impl SetAssocCache {
    /// Creates an empty cache.
    pub fn new(config: CacheConfig) -> Self {
        let num_sets = config.num_sets() as usize;
        let assoc = config.associativity as usize;
        SetAssocCache {
            config,
            tags: vec![None; num_sets * assoc],
            policies: vec![LruPolicy::new(config.associativity); num_sets],
            stats: CacheStats::default(),
            ever_seen: HashSet::default(),
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Hit latency in cycles.
    #[inline]
    pub fn latency(&self) -> u64 {
        self.config.latency
    }

    /// Looks up (and on a miss, fills) the line containing `addr`.
    ///
    /// Returns whether the access hit, and on a miss its classification and
    /// any eviction.  Statistics are updated.
    #[inline]
    pub fn access(&mut self, addr: u64) -> AccessOutcome {
        let line = addr & !(self.config.line_size - 1);
        self.stats.accesses += 1;

        let set_idx = self.config.set_index(line) as usize;
        let tag = self.config.tag(line);
        let assoc = self.config.associativity as usize;
        let ways = &mut self.tags[set_idx * assoc..(set_idx + 1) * assoc];
        let policy = &mut self.policies[set_idx];

        if let Some(way) = ways.iter().position(|t| *t == Some(tag)) {
            policy.touch(way as u32);
            self.stats.hits += 1;
            return AccessOutcome::Hit;
        }

        // Miss: classify, then fill.
        let kind = if self.ever_seen.insert(line) {
            self.stats.compulsory_misses += 1;
            MissKind::Compulsory
        } else {
            self.stats.non_compulsory_misses += 1;
            MissKind::NonCompulsory
        };
        self.stats.misses += 1;

        let (way, evicted) = match ways.iter().position(|t| t.is_none()) {
            Some(invalid_way) => (invalid_way as u32, None),
            None => {
                let victim = policy.victim();
                let old_tag = ways[victim as usize].expect("victim way must be valid");
                let evicted_line =
                    (old_tag * self.config.num_sets() + set_idx as u64) * self.config.line_size;
                self.stats.evictions += 1;
                (victim, Some(evicted_line))
            }
        };
        ways[way as usize] = Some(tag);
        policy.touch(way);

        AccessOutcome::Miss { kind, evicted }
    }

    /// Looks up the line containing `addr` without modifying any state
    /// (no fill, no statistics, no recency update).
    pub fn probe(&self, addr: u64) -> bool {
        let line = addr & !(self.config.line_size - 1);
        let set_idx = self.config.set_index(line) as usize;
        let tag = self.config.tag(line);
        let assoc = self.config.associativity as usize;
        self.tags[set_idx * assoc..(set_idx + 1) * assoc].contains(&Some(tag))
    }

    /// Invalidates all lines and clears recency state; statistics and the
    /// compulsory-miss history are preserved.
    pub fn flush(&mut self) {
        for t in &mut self.tags {
            *t = None;
        }
        for policy in &mut self.policies {
            policy.reset();
        }
    }

    /// Resets statistics (and the compulsory-miss history).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
        self.ever_seen.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Number of valid lines currently resident.
    fn valid_lines(c: &SetAssocCache) -> u64 {
        c.tags.iter().filter(|t| t.is_some()).count() as u64
    }

    fn tiny_cache() -> SetAssocCache {
        // 2 sets x 2 ways x 64 B lines = 256 B.
        SetAssocCache::new(CacheConfig::new(256, 2, 64, 1))
    }

    #[test]
    fn first_access_is_compulsory_miss_then_hit() {
        let mut c = tiny_cache();
        match c.access(0x1000) {
            AccessOutcome::Miss { kind, evicted } => {
                assert_eq!(kind, MissKind::Compulsory);
                assert!(evicted.is_none());
            }
            other => panic!("expected miss, got {other:?}"),
        }
        assert!(c.access(0x1000).is_hit());
        assert!(c.access(0x103f).is_hit(), "same line, different offset");
        assert_eq!(c.stats().accesses, 3);
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn eviction_and_non_compulsory_classification() {
        let mut c = tiny_cache();
        // Three lines mapping to the same set (set stride = 2 lines = 128 B).
        let a = 0x0000;
        let b = 0x0100;
        let d = 0x0200;
        c.access(a);
        c.access(b);
        // Set is full (2 ways); accessing d evicts a (LRU).
        match c.access(d) {
            AccessOutcome::Miss { evicted, .. } => assert_eq!(evicted, Some(a)),
            other => panic!("expected miss, got {other:?}"),
        }
        // Re-access a: it was seen before, so the miss is non-compulsory.
        match c.access(a) {
            AccessOutcome::Miss { kind, .. } => assert_eq!(kind, MissKind::NonCompulsory),
            other => panic!("expected miss, got {other:?}"),
        }
        assert_eq!(c.stats().evictions, 2);
        assert_eq!(c.stats().compulsory_misses, 3);
        assert_eq!(c.stats().non_compulsory_misses, 1);
    }

    #[test]
    fn lru_keeps_recently_used_line() {
        let mut c = tiny_cache();
        let a = 0x0000;
        let b = 0x0100;
        let d = 0x0200;
        c.access(a);
        c.access(b);
        c.access(a); // refresh a; b becomes LRU
        c.access(d); // evicts b
        assert!(c.probe(a));
        assert!(!c.probe(b));
        assert!(c.probe(d));
    }

    #[test]
    fn a_refilled_way_becomes_the_newest() {
        // After d replaces a, the next miss in the set must evict b, the
        // line left untouched longest, and never the line just filled.
        let mut c = tiny_cache();
        let a = 0x0000;
        let b = 0x0100;
        let d = 0x0200;
        let e = 0x0300;
        c.access(a);
        c.access(b);
        c.access(d); // evicts a, refills its way
        match c.access(e) {
            AccessOutcome::Miss { evicted, .. } => assert_eq!(evicted, Some(b)),
            other => panic!("expected miss, got {other:?}"),
        }
        assert!(c.probe(d));
        assert!(c.probe(e));
    }

    #[test]
    fn sets_keep_independent_recency() {
        let mut c = tiny_cache();
        // Set 0 holds a and b; set 1 (the odd lines) holds x and y.
        let (a, b) = (0x0000, 0x0100);
        let (x, y) = (0x0040, 0x0140);
        c.access(a);
        c.access(x);
        c.access(b);
        c.access(y);
        c.access(a); // b is set 0's LRU line; set 1's order is untouched
        match c.access(0x0240) {
            AccessOutcome::Miss { evicted, .. } => assert_eq!(evicted, Some(x)),
            other => panic!("expected miss, got {other:?}"),
        }
        match c.access(0x0200) {
            AccessOutcome::Miss { evicted, .. } => assert_eq!(evicted, Some(b)),
            other => panic!("expected miss, got {other:?}"),
        }
        assert!(c.probe(a));
        assert!(c.probe(y));
    }

    #[test]
    fn probe_does_not_change_state() {
        let mut c = tiny_cache();
        c.access(0x0000);
        let before = *c.stats();
        assert!(c.probe(0x0000));
        assert!(!c.probe(0x4000));
        assert_eq!(*c.stats(), before);
    }

    #[test]
    fn working_set_within_capacity_never_misses_after_warmup() {
        let cfg = CacheConfig::icache_32k();
        let mut c = SetAssocCache::new(cfg);
        let lines: Vec<u64> = (0..cfg.num_lines()).map(|i| i * cfg.line_size).collect();
        for &l in &lines {
            c.access(l);
        }
        let warm_misses = c.stats().misses;
        for _ in 0..10 {
            for &l in &lines {
                assert!(c.access(l).is_hit());
            }
        }
        assert_eq!(c.stats().misses, warm_misses, "no misses after warm-up");
        assert_eq!(valid_lines(&c), cfg.num_lines());
    }

    #[test]
    fn working_set_exceeding_capacity_thrashes_with_lru() {
        // Classic LRU pathology: cyclic access to capacity+1 lines in one set
        // misses every time after warm-up.
        let cfg = CacheConfig::new(256, 2, 64, 1);
        let mut c = SetAssocCache::new(cfg);
        let set_stride = cfg.num_sets() * cfg.line_size;
        let lines = [0u64, set_stride, 2 * set_stride];
        for _ in 0..5 {
            for &l in &lines {
                c.access(l);
            }
        }
        assert_eq!(
            c.stats().hits,
            0,
            "cyclic over-capacity pattern never hits under LRU"
        );
    }

    #[test]
    fn flush_invalidates_but_keeps_history() {
        let mut c = tiny_cache();
        c.access(0x0000);
        c.flush();
        assert_eq!(valid_lines(&c), 0);
        match c.access(0x0000) {
            AccessOutcome::Miss { kind, .. } => assert_eq!(kind, MissKind::NonCompulsory),
            other => panic!("expected miss, got {other:?}"),
        }
    }

    #[test]
    fn reset_stats_clears_history() {
        let mut c = tiny_cache();
        c.access(0x0000);
        c.reset_stats();
        assert_eq!(c.stats().accesses, 0);
        c.flush();
        match c.access(0x0000) {
            AccessOutcome::Miss { kind, .. } => assert_eq!(kind, MissKind::Compulsory),
            other => panic!("expected miss, got {other:?}"),
        }
    }

    #[test]
    fn mpki_matches_misses() {
        let mut c = tiny_cache();
        for i in 0..100u64 {
            c.access(i * 64);
        }
        let mpki = c.stats().mpki(10_000);
        assert!((mpki - c.stats().misses as f64 * 0.1).abs() < 1e-12);
    }
}
