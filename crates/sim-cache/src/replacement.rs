//! Least-recently-used replacement, the I-cache policy of the paper's
//! Table I.

/// True least-recently-used replacement state for one cache set of a fixed
/// associativity.
///
/// The policy only tracks metadata; the cache itself stores tags.  Ways are
/// identified by their index `0..associativity`.
#[derive(Debug, Clone)]
pub struct LruPolicy {
    /// `stack[0]` is the most recently used way; the last entry is the LRU.
    stack: Vec<u32>,
}

impl LruPolicy {
    /// Creates an LRU policy for a set with `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero.
    pub fn new(ways: u32) -> Self {
        assert!(ways > 0, "a set needs at least one way");
        LruPolicy {
            stack: (0..ways).collect(),
        }
    }

    /// Marks `way` as the most recently used: called when it is accessed
    /// (hit) or filled (miss completion).  Panics if `way` is outside the
    /// set.
    #[inline]
    pub fn touch(&mut self, way: u32) {
        let pos = self
            .stack
            .iter()
            .position(|&w| w == way)
            .expect("touched way outside the set");
        let w = self.stack.remove(pos);
        self.stack.insert(0, w);
    }

    /// Returns the way to evict next.  Only meaningful on a full set (the
    /// cache fills invalid ways first).
    #[inline]
    pub fn victim(&self) -> u32 {
        *self.stack.last().expect("LRU stack is never empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut p = LruPolicy::new(4);
        // Touch ways 0,1,2,3 in order: way 0 is now LRU.
        for w in 0..4 {
            p.touch(w);
        }
        assert_eq!(p.victim(), 0);
        p.touch(0);
        assert_eq!(p.victim(), 1);
    }

    #[test]
    fn lru_victim_is_never_the_just_touched_way() {
        // Any way count works, not only powers of two.
        let mut p = LruPolicy::new(6);
        for w in (0..6).chain([3, 0, 5]) {
            p.touch(w);
            assert_ne!(p.victim(), w, "LRU must never pick the just-touched way");
        }
    }

    #[test]
    fn lru_single_way_always_evicts_way_zero() {
        // A direct-mapped set has nothing to choose between.
        let mut p = LruPolicy::new(1);
        assert_eq!(p.victim(), 0);
        p.touch(0);
        assert_eq!(p.victim(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn lru_needs_at_least_one_way() {
        LruPolicy::new(0);
    }

    #[test]
    fn lru_full_access_sequence() {
        // Classic check: with 2 ways and accesses a,b,a,c the victim after
        // filling is b (a was refreshed).
        let mut p = LruPolicy::new(2);
        p.touch(0); // a
        p.touch(1); // b
        p.touch(0); // a again
        assert_eq!(p.victim(), 1);
    }

    #[test]
    #[should_panic(expected = "outside the set")]
    fn lru_touch_out_of_range_panics() {
        let mut p = LruPolicy::new(2);
        p.touch(5);
    }
}
