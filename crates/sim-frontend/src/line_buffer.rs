//! Line buffers (prefetch / loop buffers).
//!
//! Each core owns a small set of line buffers, each holding one I-cache line
//! (64 B).  Before accessing the I-cache, the front-end checks whether the
//! line containing the head of the FTQ is already present; if so, the
//! instructions are extracted from the buffer and **no request is sent to
//! the I-cache** — this is what keeps the shared-I-cache access rate (and
//! therefore the bus contention) low, and is measured by the paper's
//! *I-cache access ratio* (Fig. 9).  Each buffer can also track one
//! outstanding request, so the number of line buffers bounds the number of
//! in-flight I-cache requests per core.

use serde::{Deserialize, Serialize};

/// State of one line buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Holds nothing.
    Invalid,
    /// A fill request for `line_addr` is in flight.
    Pending,
    /// Holds a valid line.
    Valid,
}

#[derive(Debug, Clone, Copy)]
struct Buffer {
    line_addr: u64,
    state: State,
    last_use: u64,
}

/// Result of looking up a line in the buffer file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineLookup {
    /// The line is resident; instructions can be extracted immediately.
    Hit,
    /// A request for the line is already outstanding; wait for the fill.
    Pending,
    /// The line is neither resident nor requested.
    Miss,
}

/// Statistics of the line-buffer file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct LineBufferStats {
    /// Line-granular fetch requests made by the front-end (the denominator
    /// of the access ratio).
    pub line_requests: u64,
    /// Requests satisfied by a resident line buffer.
    pub hits: u64,
    /// Requests that found an in-flight fill to piggyback on.
    pub pending_hits: u64,
    /// Requests that had to access the I-cache (the numerator of the access
    /// ratio).
    pub icache_accesses: u64,
    /// Allocations rejected because every buffer was pending.
    pub allocation_stalls: u64,
}

impl LineBufferStats {
    /// The paper's *I-cache access ratio*: lines fetched from the I-cache
    /// divided by the total number of line fetch requests.
    pub fn access_ratio(&self) -> f64 {
        if self.line_requests == 0 {
            0.0
        } else {
            self.icache_accesses as f64 / self.line_requests as f64
        }
    }
}

/// A file of line buffers with LRU reuse.
#[derive(Debug)]
pub struct LineBufferFile {
    buffers: Vec<Buffer>,
    line_size: u64,
    stats: LineBufferStats,
    /// Buffers in [`State::Pending`], kept in sync with `buffers` so the
    /// per-cycle occupancy checks are O(1) instead of a scan.
    pending: usize,
    /// Buffers in [`State::Invalid`], same purpose.
    invalid: usize,
    /// The least recently used valid buffer (the first one on a `last_use`
    /// tie), or `None` when no buffer is valid.  Kept exact on every fill,
    /// allocation and touch so [`LineBufferFile::victim_line`] is O(1).
    lru: Option<usize>,
}

impl LineBufferFile {
    /// Creates a file of `n` line buffers for `line_size`-byte lines.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `line_size` is not a power of two.
    pub fn new(n: usize, line_size: u64) -> Self {
        assert!(n > 0, "need at least one line buffer");
        assert!(
            line_size.is_power_of_two(),
            "line size must be a power of two"
        );
        LineBufferFile {
            buffers: vec![
                Buffer {
                    line_addr: 0,
                    state: State::Invalid,
                    last_use: 0,
                };
                n
            ],
            line_size,
            stats: LineBufferStats::default(),
            pending: 0,
            invalid: n,
            lru: None,
        }
    }

    /// Number of buffers.
    #[inline]
    pub fn len(&self) -> usize {
        self.buffers.len()
    }

    /// Returns `true` if the file has no buffers (never true in practice).
    pub fn is_empty(&self) -> bool {
        self.buffers.is_empty()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &LineBufferStats {
        &self.stats
    }

    /// Line size in bytes.
    pub fn line_size(&self) -> u64 {
        self.line_size
    }

    #[inline]
    fn align(&self, addr: u64) -> u64 {
        addr & !(self.line_size - 1)
    }

    #[inline]
    fn find(&self, line: u64) -> Option<usize> {
        self.buffers
            .iter()
            .position(|b| b.state != State::Invalid && b.line_addr == line)
    }

    /// Recomputes the LRU valid buffer by a full scan.
    fn scan_lru(&self) -> Option<usize> {
        self.buffers
            .iter()
            .enumerate()
            .filter(|(_, b)| b.state == State::Valid)
            .min_by_key(|(_, b)| b.last_use)
            .map(|(i, _)| i)
    }

    /// Marks valid buffer `idx` as used at `now`.  Raising a buffer's
    /// recency can only move the LRU slot if that buffer was the LRU one;
    /// the comparison also covers a touch back in time.
    #[inline]
    fn use_at(&mut self, idx: usize, now: u64) {
        self.buffers[idx].last_use = now;
        match self.lru {
            Some(lru) if lru != idx && (self.buffers[lru].last_use, lru) < (now, idx) => {}
            _ => self.lru = self.scan_lru(),
        }
    }

    /// Looks up the line containing `addr` and records the request in the
    /// statistics.  Use [`LineBufferFile::probe`] for a statistics-free
    /// check.
    #[inline]
    pub fn request(&mut self, addr: u64, now: u64) -> LineLookup {
        let line = self.align(addr);
        self.stats.line_requests += 1;
        match self.find(line) {
            Some(idx) => match self.buffers[idx].state {
                State::Valid => {
                    self.use_at(idx, now);
                    self.stats.hits += 1;
                    LineLookup::Hit
                }
                State::Pending => {
                    self.stats.pending_hits += 1;
                    LineLookup::Pending
                }
                State::Invalid => unreachable!("find() skips invalid buffers"),
            },
            None => LineLookup::Miss,
        }
    }

    /// Statistics-free residency check.
    #[inline]
    pub fn probe(&self, addr: u64) -> LineLookup {
        let line = self.align(addr);
        match self.find(line) {
            Some(idx) => match self.buffers[idx].state {
                State::Valid => LineLookup::Hit,
                State::Pending => LineLookup::Pending,
                State::Invalid => unreachable!("find() skips invalid buffers"),
            },
            None => LineLookup::Miss,
        }
    }

    /// Allocates a buffer for an I-cache request for the line containing
    /// `addr`.  Returns `false` (and does not count an I-cache access) if
    /// every buffer currently tracks an outstanding request, in which case
    /// the front-end must retry later.
    #[inline]
    pub fn allocate(&mut self, addr: u64, now: u64) -> bool {
        let line = self.align(addr);
        debug_assert!(
            self.find(line).is_none(),
            "allocate called for a line that is already tracked"
        );
        // Prefer an invalid buffer, then the least recently used valid one.
        let slot = if self.invalid > 0 {
            self.buffers.iter().position(|b| b.state == State::Invalid)
        } else {
            self.lru
        };
        match slot {
            Some(idx) => {
                // Taking an invalid buffer leaves the valid ones, and so the
                // LRU slot, as they were; evicting the LRU buffer needs a
                // new one.
                let evicts = self.buffers[idx].state == State::Valid;
                if !evicts {
                    self.invalid -= 1;
                }
                self.buffers[idx] = Buffer {
                    line_addr: line,
                    state: State::Pending,
                    last_use: now,
                };
                self.pending += 1;
                if evicts {
                    self.lru = self.scan_lru();
                }
                self.stats.icache_accesses += 1;
                true
            }
            None => {
                self.stats.allocation_stalls += 1;
                false
            }
        }
    }

    /// Records `n` rejected allocations without retrying them.  The
    /// idle-skip scheduler uses this when a core parked with every buffer
    /// pending skips `n` cycles: each skipped cycle would have retried (and
    /// failed) the allocation, so the statistics must account for them.
    pub fn note_allocation_stalls(&mut self, n: u64) {
        self.stats.allocation_stalls += n;
    }

    /// Index of the buffer tracking the line containing `addr`, if any.
    /// Lets a caller that re-touches the same resident line every cycle
    /// cache the slot for [`LineBufferFile::touch_at`] instead of re-running
    /// the lookup.
    #[inline]
    pub fn index_of(&self, addr: u64) -> Option<usize> {
        self.find(self.align(addr))
    }

    /// Marks buffer `idx` as used at `now` (keeps the line the fetch engine
    /// is currently consuming most-recently-used so prefetches never evict
    /// it).  The buffer must still hold the valid line the index was
    /// obtained for.
    #[inline]
    pub fn touch_at(&mut self, idx: usize, now: u64) {
        debug_assert_eq!(self.buffers[idx].state, State::Valid);
        self.use_at(idx, now);
    }

    /// Returns the line address that the next [`LineBufferFile::allocate`]
    /// would evict, or `None` if an invalid buffer (or none at all, when
    /// every buffer is pending) would be used instead.  O(1).
    #[inline]
    pub fn victim_line(&self) -> Option<u64> {
        if self.invalid > 0 {
            return None;
        }
        self.lru.map(|i| self.buffers[i].line_addr)
    }

    /// Completes the fill of the line containing `addr`.  Returns `true` if
    /// a pending buffer was waiting for it (a fill for a line nobody
    /// requested is ignored and returns `false`).
    #[inline]
    pub fn fill(&mut self, addr: u64, now: u64) -> bool {
        let line = self.align(addr);
        if let Some(idx) = self.find(line) {
            if self.buffers[idx].state == State::Pending {
                self.buffers[idx].state = State::Valid;
                self.buffers[idx].last_use = now;
                self.pending -= 1;
                // One buffer joins the valid ones: it is the LRU one only if
                // it is older than the current LRU buffer.
                match self.lru {
                    Some(lru) if (self.buffers[lru].last_use, lru) < (now, idx) => {}
                    _ => self.lru = Some(idx),
                }
                return true;
            }
        }
        false
    }

    /// Number of buffers with an outstanding request.
    #[inline]
    pub fn pending_count(&self) -> usize {
        self.pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_allocate_then_fill_then_hit() {
        let mut f = LineBufferFile::new(4, 64);
        assert_eq!(f.request(0x1000, 0), LineLookup::Miss);
        assert!(f.allocate(0x1000, 0));
        assert_eq!(f.request(0x1010, 1), LineLookup::Pending);
        assert!(f.fill(0x1000, 5));
        assert_eq!(f.request(0x1020, 6), LineLookup::Hit);
        let s = f.stats();
        assert_eq!(s.line_requests, 3);
        assert_eq!(s.icache_accesses, 1);
        assert_eq!(s.hits, 1);
        assert_eq!(s.pending_hits, 1);
        assert!((s.access_ratio() - 1.0 / 3.0).abs() < 1e-12);
        assert!(!f.fill(0x1000, 7), "a second fill finds no pending buffer");
        assert!(!f.fill(0x9000, 7), "a fill nobody requested is ignored");
    }

    #[test]
    fn lru_valid_buffer_is_replaced() {
        let mut f = LineBufferFile::new(2, 64);
        f.allocate(0x1000, 0);
        f.fill(0x1000, 1);
        f.allocate(0x2000, 2);
        f.fill(0x2000, 3);
        // Touch 0x1000 so 0x2000 becomes LRU.
        f.request(0x1000, 4);
        f.allocate(0x3000, 5);
        assert_eq!(f.probe(0x1000), LineLookup::Hit);
        assert_eq!(f.probe(0x2000), LineLookup::Miss);
        assert_eq!(f.probe(0x3000), LineLookup::Pending);
    }

    #[test]
    fn allocation_fails_when_all_buffers_pending() {
        let mut f = LineBufferFile::new(2, 64);
        assert!(f.allocate(0x1000, 0));
        assert!(f.allocate(0x2000, 0));
        assert!(!f.allocate(0x3000, 0));
        assert_eq!(f.stats().allocation_stalls, 1);
        assert_eq!(f.pending_count(), 2);
        assert_eq!(f.victim_line(), None);
    }

    #[test]
    fn loop_fitting_in_buffers_never_accesses_icache_again() {
        // A 2-line loop body streamed repeatedly through 4 buffers.
        let mut f = LineBufferFile::new(4, 64);
        let lines = [0x1000u64, 0x1040];
        let mut now = 0;
        for &l in &lines {
            assert_eq!(f.request(l, now), LineLookup::Miss);
            f.allocate(l, now);
            f.fill(l, now + 4);
            now += 5;
        }
        for _ in 0..100 {
            for &l in &lines {
                assert_eq!(f.request(l, now), LineLookup::Hit);
                now += 1;
            }
        }
        assert_eq!(f.stats().icache_accesses, 2);
        assert!(f.stats().access_ratio() < 0.01 + 2.0 / 202.0);
    }

    #[test]
    fn loop_larger_than_buffers_keeps_accessing_icache() {
        // A 6-line loop body cycled through only 2 buffers: every request
        // misses after the working set wraps.
        let mut f = LineBufferFile::new(2, 64);
        let lines: Vec<u64> = (0..6u64).map(|i| 0x2000 + i * 64).collect();
        let mut now = 0;
        for _ in 0..20 {
            for &l in &lines {
                if f.request(l, now) == LineLookup::Miss {
                    assert!(f.allocate(l, now));
                    f.fill(l, now + 4);
                }
                now += 5;
            }
        }
        assert!(
            f.stats().access_ratio() > 0.95,
            "a loop bigger than the buffer file should access the I-cache almost every time"
        );
    }

    #[test]
    fn cached_victim_matches_a_full_scan_under_random_operations() {
        // Fills, allocations and touches in a pseudo-random order, with
        // time sometimes running backwards: after each one the cached victim
        // must equal a full scan's.
        let mut f = LineBufferFile::new(4, 64);
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for step in 0..20_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let line = (x >> 8) % 8 * 64;
            let now = step / 2 + (x >> 32) % 3;
            match x % 4 {
                0 => {
                    if f.probe(line) == LineLookup::Miss {
                        f.allocate(line, now);
                    }
                }
                1 => {
                    f.fill(line, now);
                }
                2 => {
                    f.request(line, now);
                }
                _ => {
                    if f.probe(line) == LineLookup::Hit {
                        f.touch_at(f.index_of(line).unwrap(), now);
                    }
                }
            }
            let expected = if f.invalid > 0 {
                None
            } else {
                f.buffers
                    .iter()
                    .filter(|b| b.state == State::Valid)
                    .min_by_key(|b| b.last_use)
                    .map(|b| b.line_addr)
            };
            assert_eq!(f.victim_line(), expected, "step {step}");
        }
    }

    #[test]
    fn probe_does_not_touch_stats() {
        let mut f = LineBufferFile::new(2, 64);
        f.allocate(0x1000, 0);
        f.fill(0x1000, 1);
        let before = *f.stats();
        f.probe(0x1000);
        f.probe(0x9000);
        assert_eq!(*f.stats(), before);
    }

    #[test]
    fn accessors() {
        let f = LineBufferFile::new(4, 64);
        assert_eq!(f.len(), 4);
        assert!(!f.is_empty());
        assert_eq!(f.line_size(), 64);
        assert_eq!(f.stats().access_ratio(), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one line buffer")]
    fn zero_buffers_rejected() {
        LineBufferFile::new(0, 64);
    }
}
