//! Bus statistics.

use serde::{Deserialize, Serialize};

/// Counters accumulated by a bus (or aggregated over the buses of an
/// interconnect).
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct BusStats {
    /// Transactions granted.
    pub transactions: u64,
    /// Cycles during which a transfer occupied the bus.
    pub busy_cycles: u64,
    /// Total cycles requests spent waiting for a grant (the paper's
    /// "contention").
    pub wait_cycles: u64,
    /// Largest number of simultaneously pending requests observed.
    pub max_queue_depth: usize,
    /// Per-requester transaction counts (index = requester id).
    pub per_requester: Vec<u64>,
}

impl BusStats {
    /// Creates zeroed statistics with room for `num_requesters` requesters.
    pub fn new(num_requesters: usize) -> Self {
        BusStats {
            per_requester: vec![0; num_requesters],
            ..BusStats::default()
        }
    }

    /// Bus utilisation over `total_cycles` simulated cycles, in `[0, 1]`.
    pub fn utilisation(&self, total_cycles: u64) -> f64 {
        if total_cycles == 0 {
            0.0
        } else {
            self.busy_cycles as f64 / total_cycles as f64
        }
    }

    /// Merges another statistics block into this one (used to aggregate the
    /// buses of a double-bus interconnect).
    pub fn merge(&mut self, other: &BusStats) {
        self.transactions += other.transactions;
        self.busy_cycles += other.busy_cycles;
        self.wait_cycles += other.wait_cycles;
        self.max_queue_depth = self.max_queue_depth.max(other.max_queue_depth);
        if self.per_requester.len() < other.per_requester.len() {
            self.per_requester.resize(other.per_requester.len(), 0);
        }
        for (i, v) in other.per_requester.iter().enumerate() {
            self.per_requester[i] += v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averages_and_utilisation() {
        let s = BusStats {
            transactions: 10,
            busy_cycles: 20,
            wait_cycles: 5,
            max_queue_depth: 3,
            per_requester: vec![4, 6],
        };
        assert!((s.utilisation(100) - 0.2).abs() < 1e-12);
        assert_eq!(s.utilisation(0), 0.0);
        assert_eq!(BusStats::new(2).utilisation(100), 0.0);
    }

    #[test]
    fn merge_adds_counters_and_extends_requesters() {
        let mut a = BusStats {
            transactions: 1,
            busy_cycles: 2,
            wait_cycles: 3,
            max_queue_depth: 1,
            per_requester: vec![1],
        };
        let b = BusStats {
            transactions: 10,
            busy_cycles: 20,
            wait_cycles: 30,
            max_queue_depth: 4,
            per_requester: vec![5, 5],
        };
        a.merge(&b);
        assert_eq!(a.transactions, 11);
        assert_eq!(a.max_queue_depth, 4);
        assert_eq!(a.per_requester, vec![6, 5]);
    }
}
