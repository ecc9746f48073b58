//! Fetch target queue (FTQ).
//!
//! The FTQ decouples branch prediction from the I-cache: the fetch predictor
//! pushes fetch blocks (starting address + length) into the queue, and the
//! I-cache side pops them at its own pace.  With a shared I-cache whose
//! access latency can be several cycles, the FTQ (together with the line
//! buffers) is what keeps the lean core's back-end fed.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// One FTQ entry: a fetch block to be fetched from the I-cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FtqEntry {
    /// Starting address of the fetch block.
    pub start: u64,
    /// Length of the fetch block in bytes.
    pub len_bytes: u32,
    /// Number of instructions in the fetch block.
    pub num_instrs: u32,
    /// Whether the block ends with a branch that was predicted (and later
    /// resolved) as mispredicted — used by the core model to charge the
    /// resteer penalty when the block drains.
    pub ends_in_mispredict: bool,
}

impl FtqEntry {
    /// Address one past the end of the block.
    #[inline]
    pub fn end(&self) -> u64 {
        self.start + self.len_bytes as u64
    }
}

/// A bounded queue of fetch blocks.
#[derive(Debug, Clone, Default)]
pub struct Ftq {
    entries: VecDeque<FtqEntry>,
    capacity: usize,
}

impl Ftq {
    /// Creates an FTQ with room for `capacity` fetch blocks.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "FTQ capacity must be positive");
        Ftq {
            entries: VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when the queue is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Returns `true` when no more fetch blocks can be pushed.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Pushes a fetch block.
    ///
    /// # Panics
    ///
    /// Panics if the queue is full (callers must check [`Ftq::is_full`]).
    #[inline]
    pub fn push(&mut self, entry: FtqEntry) {
        assert!(!self.is_full(), "pushed into a full FTQ");
        self.entries.push_back(entry);
    }

    /// Returns the entry at the head without removing it.
    #[inline]
    pub fn head(&self) -> Option<&FtqEntry> {
        self.entries.front()
    }

    /// Mutable access to the head entry (the fetch engine shrinks it as
    /// lines are consumed).
    #[inline]
    pub fn head_mut(&mut self) -> Option<&mut FtqEntry> {
        self.entries.front_mut()
    }

    /// Removes and returns the head entry.
    #[inline]
    pub fn pop(&mut self) -> Option<FtqEntry> {
        self.entries.pop_front()
    }

    /// Iterates over the queued fetch blocks from head to tail (used by the
    /// fetch engine's line-buffer lookahead).
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = &FtqEntry> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(start: u64) -> FtqEntry {
        FtqEntry {
            start,
            len_bytes: 32,
            num_instrs: 8,
            ends_in_mispredict: false,
        }
    }

    #[test]
    fn push_pop_in_fifo_order() {
        let mut q = Ftq::new(4);
        q.push(entry(0x100));
        q.push(entry(0x200));
        assert_eq!(q.len(), 2);
        assert_eq!(q.head().unwrap().start, 0x100);
        assert_eq!(q.pop().unwrap().start, 0x100);
        assert_eq!(q.pop().unwrap().start, 0x200);
        assert!(q.pop().is_none());
    }

    #[test]
    fn capacity_is_enforced() {
        let mut q = Ftq::new(2);
        q.push(entry(0x100));
        assert!(!q.is_full());
        q.push(entry(0x200));
        assert!(q.is_full());
    }

    #[test]
    #[should_panic(expected = "full FTQ")]
    fn pushing_into_full_queue_panics() {
        let mut q = Ftq::new(1);
        q.push(entry(0x100));
        q.push(entry(0x200));
    }

    #[test]
    fn head_mut_allows_in_place_shrink() {
        let mut q = Ftq::new(2);
        q.push(entry(0x100));
        {
            let h = q.head_mut().unwrap();
            h.start += 32;
            h.len_bytes -= 32;
        }
        assert_eq!(q.head().unwrap().start, 0x120);
        assert_eq!(q.head().unwrap().len_bytes, 0);
    }

    #[test]
    fn entry_end_is_start_plus_len() {
        assert_eq!(entry(0x100).end(), 0x120);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        Ftq::new(0);
    }
}
