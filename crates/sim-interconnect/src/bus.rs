//! A single arbitrated instruction bus.

use crate::config::{Arbitration, BusConfig};
use crate::stats::BusStats;
use std::collections::VecDeque;

/// A granted bus transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// The requester (core index) that won arbitration.
    pub requester: usize,
    /// The line address being transferred.
    pub line_addr: u64,
    /// Cycle at which the request was submitted.
    pub submit_cycle: u64,
    /// Cycle at which the bus was granted.
    pub grant_cycle: u64,
    /// Cycles spent waiting for the grant (`grant_cycle - submit_cycle`);
    /// this is the *contention* component of the CPI stack.
    pub wait_cycles: u64,
    /// Cycle at which the transfer (propagation + data beats) completes and
    /// the line is available at the receiving end.
    pub transfer_done_cycle: u64,
}

#[derive(Debug, Clone, Copy)]
struct Pending {
    requester: usize,
    line_addr: u64,
    submit_cycle: u64,
}

/// A single bus shared by several requesters.
///
/// Usage per simulated cycle:
///
/// 1. every requester that needs a line calls [`Bus::submit`];
/// 2. the machine calls [`Bus::tick`], which grants at most one new
///    transaction if the wire is free, according to the arbitration policy.
///
/// A requester may have several requests pending (one per line buffer).
#[derive(Debug)]
pub struct Bus {
    config: BusConfig,
    num_requesters: usize,
    pending: VecDeque<Pending>,
    /// First cycle at which the wire is free again.
    free_at: u64,
    /// Requester index that was granted most recently (round-robin state).
    last_granted: usize,
    stats: BusStats,
}

impl Bus {
    /// Creates a bus for `num_requesters` requesters.
    ///
    /// # Panics
    ///
    /// Panics if `num_requesters` is zero.
    pub fn new(config: BusConfig, num_requesters: usize) -> Self {
        assert!(num_requesters > 0, "a bus needs at least one requester");
        Bus {
            config,
            num_requesters,
            pending: VecDeque::new(),
            free_at: 0,
            last_granted: num_requesters - 1,
            stats: BusStats::new(num_requesters),
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &BusStats {
        &self.stats
    }

    /// Number of requests waiting for a grant.
    #[inline]
    pub fn pending_requests(&self) -> usize {
        self.pending.len()
    }

    /// Submits a request for `line_addr` from `requester` at `cycle`.
    ///
    /// # Panics
    ///
    /// Panics if `requester` is out of range.
    #[inline]
    pub fn submit(&mut self, cycle: u64, requester: usize, line_addr: u64) {
        assert!(
            requester < self.num_requesters,
            "requester {requester} out of range (bus has {} requesters)",
            self.num_requesters
        );
        self.pending.push_back(Pending {
            requester,
            line_addr,
            submit_cycle: cycle,
        });
        self.stats.max_queue_depth = self.stats.max_queue_depth.max(self.pending.len());
    }

    /// Advances arbitration at `cycle`, granting at most one transaction.
    #[inline]
    pub fn tick(&mut self, cycle: u64) -> Option<Grant> {
        if self.pending.is_empty() || cycle < self.free_at {
            return None;
        }
        let chosen_pos = self.choose(cycle)?;
        let p = self
            .pending
            .remove(chosen_pos)
            .expect("chosen position is valid");

        let wait = cycle - p.submit_cycle;
        let beats = self.config.beats_per_line();
        let done = cycle + self.config.latency + beats;
        // The wire is occupied for the data beats; propagation is pipelined.
        self.free_at = cycle + beats;
        self.last_granted = p.requester;

        self.stats.transactions += 1;
        self.stats.busy_cycles += beats;
        self.stats.wait_cycles += wait;
        self.stats.per_requester[p.requester] += 1;

        Some(Grant {
            requester: p.requester,
            line_addr: p.line_addr,
            submit_cycle: p.submit_cycle,
            grant_cycle: cycle,
            wait_cycles: wait,
            transfer_done_cycle: done,
        })
    }

    /// Chooses the index (in the pending queue) of the next request to
    /// grant.  Only requests submitted strictly before or at `cycle` are
    /// eligible.
    #[inline]
    fn choose(&self, cycle: u64) -> Option<usize> {
        let eligible = |p: &Pending| p.submit_cycle <= cycle;
        match self.config.arbitration {
            Arbitration::FixedPriority => self
                .pending
                .iter()
                .enumerate()
                .filter(|(_, p)| eligible(p))
                .min_by_key(|(pos, p)| (p.requester, *pos))
                .map(|(pos, _)| pos),
            Arbitration::RoundRobin => {
                // Rotating priority: requester `first = last_granted + 1`
                // (mod n) has the highest priority, then `first + 1`, and so
                // on; a requester's rank is its distance after `first`.
                let n = self.num_requesters;
                let first = (self.last_granted + 1) % n;
                let priority = |r: usize| if r >= first { r - first } else { r + n - first };
                self.pending
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| eligible(p))
                    .min_by_key(|(pos, p)| (priority(p.requester), *pos))
                    .map(|(pos, _)| pos)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bus(n: usize) -> Bus {
        Bus::new(BusConfig::paper_single_bus(), n)
    }

    #[test]
    fn unloaded_transaction_has_no_wait() {
        let mut b = bus(2);
        b.submit(0, 0, 0x1000);
        let g = b.tick(0).expect("grant");
        assert_eq!(g.wait_cycles, 0);
        assert_eq!(g.grant_cycle, 0);
        assert_eq!(g.transfer_done_cycle, 4); // 2 latency + 2 beats
        assert!(b.tick(1).is_none(), "bus busy during the beats");
        assert_eq!(b.pending_requests(), 0);
        // The wire is free again once the beats end.
        b.submit(2, 1, 0x2000);
        assert_eq!(b.tick(2).expect("grant").wait_cycles, 0);
    }

    #[test]
    fn second_requester_waits_for_the_beats() {
        let mut b = bus(2);
        b.submit(0, 0, 0x1000);
        b.submit(0, 1, 0x2000);
        let g0 = b.tick(0).unwrap();
        assert!(b.tick(1).is_none());
        let g1 = b.tick(2).unwrap();
        assert_eq!(g0.requester, 0);
        assert_eq!(g1.requester, 1);
        assert_eq!(g1.wait_cycles, 2);
        assert_eq!(b.stats().wait_cycles, 2);
        assert_eq!(b.stats().transactions, 2);
        assert_eq!(b.stats().busy_cycles, 4);
    }

    #[test]
    fn round_robin_rotates_priority() {
        let mut b = bus(4);
        // All four cores request at cycle 0.
        for r in 0..4 {
            b.submit(0, r, 0x1000 + r as u64 * 0x40);
        }
        let mut order = Vec::new();
        let mut cycle = 0;
        while order.len() < 4 {
            if let Some(g) = b.tick(cycle) {
                order.push(g.requester);
            }
            cycle += 1;
        }
        assert_eq!(
            order,
            vec![0, 1, 2, 3],
            "initial rotation starts at requester 0"
        );

        // Now core 2 and core 0 request; after the last grant went to 3,
        // priority order is 0,1,2,3 again and 0 wins; then after 0 is
        // granted, 2 wins over a newly arrived 1.
        b.submit(cycle, 0, 0x5000);
        b.submit(cycle, 2, 0x5040);
        let g = loop {
            if let Some(g) = b.tick(cycle) {
                break g;
            }
            cycle += 1;
        };
        assert_eq!(g.requester, 0);
    }

    #[test]
    fn round_robin_is_fair_under_saturation() {
        let mut b = bus(4);
        let mut grants = vec![0u64; 4];
        for cycle in 0..4000u64 {
            // Keep every requester's queue non-empty.
            if cycle % 2 == 0 {
                for r in 0..4 {
                    b.submit(cycle, r, cycle * 0x40 + r as u64);
                }
            }
            if let Some(g) = b.tick(cycle) {
                grants[g.requester] += 1;
            }
        }
        let min = *grants.iter().min().unwrap();
        let max = *grants.iter().max().unwrap();
        assert!(
            max - min <= 1,
            "round-robin should be fair under saturation, got {grants:?}"
        );
    }

    #[test]
    fn fixed_priority_starves_lower_priority() {
        let mut b = Bus::new(BusConfig::new(2, 32, 64, Arbitration::FixedPriority), 2);
        let mut grants = [0u64; 2];
        for cycle in 0..100u64 {
            b.submit(cycle, 0, cycle * 64);
            if cycle == 0 {
                b.submit(cycle, 1, 0xffff_0000);
            }
            if let Some(g) = b.tick(cycle) {
                grants[g.requester] += 1;
            }
        }
        assert_eq!(grants[1], 0, "requester 1 is starved by fixed priority");
        assert!(grants[0] > 40);
    }

    #[test]
    fn requests_from_the_future_are_not_granted() {
        let mut b = bus(2);
        b.submit(5, 0, 0x1000);
        assert!(b.tick(3).is_none());
        assert!(b.tick(5).is_some());
    }

    #[test]
    fn queue_depth_is_tracked() {
        let mut b = bus(4);
        for r in 0..4 {
            b.submit(0, r, r as u64 * 64);
        }
        assert_eq!(b.pending_requests(), 4);
        assert_eq!(b.stats().max_queue_depth, 4);
    }

    #[test]
    fn a_narrow_bus_holds_the_wire_for_every_beat() {
        // 16 B wide, 64 B lines: four beats, plus 3 cycles of propagation.
        let mut b = Bus::new(BusConfig::new(3, 16, 64, Arbitration::RoundRobin), 2);
        b.submit(0, 0, 0x1000);
        b.submit(0, 1, 0x2000);
        assert_eq!(b.tick(0).unwrap().transfer_done_cycle, 7);
        assert!((1..4).all(|c| b.tick(c).is_none()));
        let g = b.tick(4).unwrap();
        assert_eq!((g.wait_cycles, g.transfer_done_cycle), (4, 11));
        assert_eq!(b.stats().busy_cycles, 8);
    }

    #[test]
    fn round_robin_starts_after_the_last_granted() {
        let mut b = bus(4);
        b.submit(0, 1, 0x1000);
        assert_eq!(b.tick(0).unwrap().requester, 1);
        // Requester 2 is first in line now, so 3 goes before 0.
        b.submit(2, 0, 0x2000);
        b.submit(2, 3, 0x3000);
        assert_eq!(b.tick(2).unwrap().requester, 3);
        assert_eq!(b.tick(4).unwrap().requester, 0);
    }

    #[test]
    fn one_requester_is_served_in_submit_order() {
        let mut b = Bus::new(BusConfig::new(2, 32, 64, Arbitration::FixedPriority), 2);
        b.submit(0, 1, 0xa000);
        b.submit(0, 1, 0xb000);
        b.submit(0, 0, 0xc000);
        let lines: Vec<u64> = (0..6)
            .filter_map(|c| b.tick(c))
            .map(|g| g.line_addr)
            .collect();
        assert_eq!(lines, [0xc000, 0xa000, 0xb000]);
    }

    #[test]
    fn per_requester_counts_follow_the_grants() {
        let mut b = bus(3);
        for (cycle, r) in [(0, 2), (2, 0), (4, 2)] {
            b.submit(cycle, r, 0x40 * cycle);
            b.tick(cycle).expect("an idle bus grants at once");
        }
        assert_eq!(b.stats().per_requester, [1, 0, 2]);
        assert_eq!(b.stats().transactions, 3);
    }

    #[test]
    #[should_panic(expected = "at least one requester")]
    fn a_bus_needs_a_requester() {
        bus(0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn submit_checks_requester_range() {
        let mut b = bus(2);
        b.submit(0, 7, 0x0);
    }
}
