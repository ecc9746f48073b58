//! CPI-stack accounting.
//!
//! The paper's Figure 8 breaks each benchmark's cycles per instruction into
//! a *baseline CPI* plus the extra stall cycles introduced by sharing the
//! I-cache: I-bus latency, I-bus congestion, I-cache latency, branch misses
//! and a remainder.  [`CpiStack`] accumulates those buckets per core; the
//! experiment layer normalises and compares them across configurations.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The reason a cycle did not commit any instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StallKind {
    /// Waiting for an I-cache access (hit latency or a miss being filled
    /// from L2/DRAM).
    IcacheLatency,
    /// Waiting for a granted bus transfer to complete (the fixed bus latency
    /// plus the data beats).
    IBusLatency,
    /// Waiting for the shared bus to be granted (another core is using it).
    IBusCongestion,
    /// Recovering from a branch misprediction (front-end resteer).
    BranchMiss,
    /// Blocked on a synchronisation event (barrier, critical section, or
    /// waiting for a parallel region to start).
    Sync,
    /// Any other empty-queue cycle (e.g. predictor throughput, drain at the
    /// end of the trace).
    Other,
}

impl StallKind {
    /// All stall kinds, in the order used by reports.
    pub const ALL: [StallKind; 6] = [
        StallKind::IcacheLatency,
        StallKind::IBusLatency,
        StallKind::IBusCongestion,
        StallKind::BranchMiss,
        StallKind::Sync,
        StallKind::Other,
    ];
}

impl fmt::Display for StallKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            StallKind::IcacheLatency => "i-cache latency",
            StallKind::IBusLatency => "i-bus latency",
            StallKind::IBusCongestion => "i-bus congestion",
            StallKind::BranchMiss => "branch miss",
            StallKind::Sync => "sync",
            StallKind::Other => "rest",
        };
        f.write_str(s)
    }
}

/// Per-core cycle accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CpiStack {
    /// Instructions committed.
    pub instructions: u64,
    /// Cycles in which at least one instruction committed.
    pub commit_cycles: u64,
    /// Stall cycles waiting on the I-cache (access latency or miss fill).
    pub icache_latency: u64,
    /// Stall cycles waiting for a granted bus transfer.
    pub ibus_latency: u64,
    /// Stall cycles waiting for the bus grant (contention).
    pub ibus_congestion: u64,
    /// Stall cycles recovering from branch mispredictions.
    pub branch_miss: u64,
    /// Cycles blocked on synchronisation.
    pub sync: u64,
    /// Remaining empty-queue cycles.
    pub other: u64,
}

impl CpiStack {
    /// Creates an empty stack.
    pub fn new() -> Self {
        CpiStack::default()
    }

    /// Records a committing cycle.
    pub fn record_commit_cycle(&mut self, committed: u32) {
        self.commit_cycles += 1;
        self.instructions += committed as u64;
    }

    /// Records a stall cycle of the given kind.
    #[inline]
    pub fn record_stall(&mut self, kind: StallKind) {
        self.record_stall_n(kind, 1);
    }

    /// Records `n` stall cycles of the same kind at once.  The idle-skip
    /// scheduler uses this to account a whole parked span in one call; the
    /// result is identical to calling [`CpiStack::record_stall`] `n` times.
    #[inline]
    pub fn record_stall_n(&mut self, kind: StallKind, n: u64) {
        match kind {
            StallKind::IcacheLatency => self.icache_latency += n,
            StallKind::IBusLatency => self.ibus_latency += n,
            StallKind::IBusCongestion => self.ibus_congestion += n,
            StallKind::BranchMiss => self.branch_miss += n,
            StallKind::Sync => self.sync += n,
            StallKind::Other => self.other += n,
        }
    }

    /// Returns the number of stall cycles recorded for `kind`.
    pub fn stall_cycles(&self, kind: StallKind) -> u64 {
        match kind {
            StallKind::IcacheLatency => self.icache_latency,
            StallKind::IBusLatency => self.ibus_latency,
            StallKind::IBusCongestion => self.ibus_congestion,
            StallKind::BranchMiss => self.branch_miss,
            StallKind::Sync => self.sync,
            StallKind::Other => self.other,
        }
    }

    /// Total cycles accounted (commit + all stalls).
    pub fn total_cycles(&self) -> u64 {
        self.commit_cycles
            + StallKind::ALL
                .iter()
                .map(|k| self.stall_cycles(*k))
                .sum::<u64>()
    }

    /// Cycles per committed instruction; 0 when nothing committed.
    pub fn cpi(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.total_cycles() as f64 / self.instructions as f64
        }
    }

    /// Merges another stack into this one.
    pub fn merge(&mut self, other: &CpiStack) {
        self.instructions += other.instructions;
        self.commit_cycles += other.commit_cycles;
        self.icache_latency += other.icache_latency;
        self.ibus_latency += other.ibus_latency;
        self.ibus_congestion += other.ibus_congestion;
        self.branch_miss += other.branch_miss;
        self.sync += other.sync;
        self.other += other.other;
    }
}

impl std::ops::Add for CpiStack {
    type Output = CpiStack;

    fn add(self, rhs: CpiStack) -> CpiStack {
        let mut out = self;
        out.merge(&rhs);
        out
    }
}

impl std::iter::Sum for CpiStack {
    fn sum<I: Iterator<Item = CpiStack>>(iter: I) -> CpiStack {
        iter.fold(CpiStack::default(), |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_total() {
        let mut s = CpiStack::new();
        s.record_commit_cycle(2);
        s.record_commit_cycle(1);
        s.record_stall(StallKind::IBusCongestion);
        s.record_stall(StallKind::BranchMiss);
        s.record_stall(StallKind::Sync);
        assert_eq!(s.instructions, 3);
        assert_eq!(s.commit_cycles, 2);
        assert_eq!(s.total_cycles(), 5);
        assert!((s.cpi() - 5.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.sync, 1);
    }

    #[test]
    fn stall_kinds_round_trip() {
        let mut s = CpiStack::new();
        for (i, k) in StallKind::ALL.iter().enumerate() {
            for _ in 0..=i {
                s.record_stall(*k);
            }
        }
        for (i, k) in StallKind::ALL.iter().enumerate() {
            assert_eq!(s.stall_cycles(*k), (i + 1) as u64);
        }
    }

    #[test]
    fn empty_stack_has_zero_cpi() {
        let s = CpiStack::new();
        assert_eq!(s.cpi(), 0.0);
        assert_eq!(s.total_cycles(), 0);
    }

    #[test]
    fn merge_and_sum() {
        let mut a = CpiStack::new();
        a.record_commit_cycle(4);
        let mut b = CpiStack::new();
        b.record_stall(StallKind::IcacheLatency);
        let total: CpiStack = vec![a, b].into_iter().sum();
        assert_eq!(total.instructions, 4);
        assert_eq!(total.icache_latency, 1);
        assert_eq!(total.total_cycles(), 2);
    }

    #[test]
    fn display_names_are_paper_terms() {
        assert_eq!(StallKind::IBusCongestion.to_string(), "i-bus congestion");
        assert_eq!(StallKind::Other.to_string(), "rest");
    }
}
