//! The I-cache interconnect: one or more buses with line interleaving.

use crate::bus::{Bus, Grant};
use crate::config::BusConfig;
use crate::stats::BusStats;

/// The interconnect between a group of lean cores and their shared I-cache.
///
/// With one bus this is the paper's *single bus* configuration; with two,
/// the *double bus* configuration where even-indexed lines use bus 0 and
/// odd-indexed lines use bus 1 (matching the even/odd bank interleaving of
/// the multi-banked shared cache).
#[derive(Debug)]
pub struct IcacheInterconnect {
    buses: Vec<Bus>,
    line_size: u64,
}

impl IcacheInterconnect {
    /// Creates an interconnect with `num_buses` buses serving
    /// `num_requesters` cores.
    ///
    /// # Panics
    ///
    /// Panics if `num_buses` is zero or `num_requesters` is zero.
    pub fn new(config: BusConfig, num_buses: usize, num_requesters: usize) -> Self {
        assert!(num_buses > 0, "interconnect needs at least one bus");
        IcacheInterconnect {
            buses: (0..num_buses)
                .map(|_| Bus::new(config, num_requesters))
                .collect(),
            line_size: config.line_size,
        }
    }

    /// Returns the bus index serving the line containing `addr`.
    #[inline]
    pub fn bus_of(&self, addr: u64) -> usize {
        ((addr / self.line_size) % self.buses.len() as u64) as usize
    }

    /// Submits a request for the line containing `addr` from `requester`.
    #[inline]
    pub fn submit(&mut self, cycle: u64, requester: usize, addr: u64) {
        let bus = self.bus_of(addr);
        self.buses[bus].submit(cycle, requester, addr & !(self.line_size - 1));
    }

    /// Advances every bus by one cycle; each bus may grant one transaction.
    /// The grants are appended to `grants` in bus order, so a caller can
    /// reuse one buffer every cycle.
    #[inline]
    pub fn tick(&mut self, cycle: u64, grants: &mut Vec<Grant>) {
        grants.extend(self.buses.iter_mut().filter_map(|b| b.tick(cycle)));
    }

    /// Total pending requests across buses.
    #[inline]
    pub fn pending_requests(&self) -> usize {
        self.buses.iter().map(|b| b.pending_requests()).sum()
    }

    /// Aggregated statistics over all buses.
    pub fn stats(&self) -> BusStats {
        let mut total = BusStats::default();
        for b in &self.buses {
            total.merge(b.stats());
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ticks `ic` once, returning that cycle's grants.
    fn tick(ic: &mut IcacheInterconnect, cycle: u64) -> Vec<Grant> {
        let mut grants = Vec::new();
        ic.tick(cycle, &mut grants);
        grants
    }

    #[test]
    fn single_bus_serialises_requests() {
        let mut ic = IcacheInterconnect::new(BusConfig::paper_single_bus(), 1, 4);
        ic.submit(0, 0, 0x0000);
        ic.submit(0, 1, 0x0040);
        let g0 = tick(&mut ic, 0);
        assert_eq!(g0.len(), 1);
        assert!(tick(&mut ic, 1).is_empty());
        let g1 = tick(&mut ic, 2);
        assert_eq!(g1.len(), 1);
        assert_eq!(g1[0].wait_cycles, 2);
    }

    #[test]
    fn double_bus_serves_even_and_odd_lines_in_parallel() {
        let mut ic = IcacheInterconnect::new(BusConfig::paper_single_bus(), 2, 4);
        assert_eq!(ic.bus_of(0x0000), 0);
        assert_eq!(ic.bus_of(0x0040), 1);
        assert_eq!(ic.bus_of(0x0080), 0);
        ic.submit(0, 0, 0x0000);
        ic.submit(0, 1, 0x0040);
        let grants = tick(&mut ic, 0);
        assert_eq!(grants.len(), 2);
        assert!(grants.iter().all(|g| g.wait_cycles == 0));
    }

    #[test]
    fn double_bus_still_contends_within_a_bank() {
        let mut ic = IcacheInterconnect::new(BusConfig::paper_single_bus(), 2, 4);
        // Both requests target even lines -> same bus.
        ic.submit(0, 0, 0x0000);
        ic.submit(0, 1, 0x0080);
        assert_eq!(tick(&mut ic, 0).len(), 1);
        assert!(tick(&mut ic, 1).is_empty());
        assert_eq!(tick(&mut ic, 2).len(), 1);
    }

    #[test]
    fn aggregate_stats_cover_all_buses() {
        let mut ic = IcacheInterconnect::new(BusConfig::paper_single_bus(), 2, 2);
        ic.submit(0, 0, 0x0000);
        ic.submit(0, 1, 0x0040);
        tick(&mut ic, 0);
        let s = ic.stats();
        assert_eq!(s.transactions, 2);
        assert_eq!(s.busy_cycles, 4);
        assert_eq!(ic.pending_requests(), 0);
        // Both wires are free again once their beats end.
        ic.submit(2, 0, 0x0080);
        ic.submit(2, 1, 0x00c0);
        assert_eq!(tick(&mut ic, 2).len(), 2);
    }

    #[test]
    fn one_bus_serves_every_line() {
        let ic = IcacheInterconnect::new(BusConfig::paper_single_bus(), 1, 4);
        assert!((0..64u64).all(|i| ic.bus_of(i * 0x40 + i) == 0));
    }

    #[test]
    fn bus_of_interleaves_whole_lines() {
        let ic = IcacheInterconnect::new(BusConfig::paper_single_bus(), 2, 4);
        assert_eq!(ic.bus_of(0x003f), 0);
        assert_eq!(ic.bus_of(0x0040), 1);
        assert_eq!(ic.bus_of(0x007f), 1, "every byte of a line uses its bus");
        assert_eq!(ic.bus_of(0x0080), 0);
        let four = IcacheInterconnect::new(BusConfig::paper_single_bus(), 4, 4);
        let buses: Vec<usize> = (0..6u64).map(|i| four.bus_of(i * 0x40)).collect();
        assert_eq!(buses, [0, 1, 2, 3, 0, 1]);
    }

    #[test]
    fn grants_are_listed_in_bus_order() {
        let mut ic = IcacheInterconnect::new(BusConfig::paper_single_bus(), 2, 2);
        ic.submit(0, 0, 0x0040); // odd line: bus 1, submitted first
        ic.submit(0, 1, 0x0000); // even line: bus 0
        let lines: Vec<u64> = tick(&mut ic, 0).iter().map(|g| g.line_addr).collect();
        assert_eq!(lines, [0x0000, 0x0040]);
    }

    #[test]
    fn a_busy_bus_does_not_hold_back_the_other() {
        let mut ic = IcacheInterconnect::new(BusConfig::paper_single_bus(), 2, 2);
        ic.submit(0, 0, 0x0000);
        assert_eq!(tick(&mut ic, 0).len(), 1); // bus 0 busy until cycle 2
        ic.submit(1, 0, 0x0080);
        ic.submit(1, 1, 0x0040);
        let g = tick(&mut ic, 1);
        assert_eq!((g.len(), g[0].line_addr), (1, 0x0040));
        assert_eq!(ic.pending_requests(), 1);
        let g = tick(&mut ic, 2);
        assert_eq!((g[0].line_addr, g[0].wait_cycles), (0x0080, 1));
    }

    #[test]
    #[should_panic(expected = "at least one bus")]
    fn zero_buses_rejected() {
        IcacheInterconnect::new(BusConfig::paper_single_bus(), 0, 1);
    }

    #[test]
    fn submitted_addresses_are_line_aligned_in_grants() {
        let mut ic = IcacheInterconnect::new(BusConfig::paper_single_bus(), 1, 1);
        ic.submit(0, 0, 0x1234);
        let g = tick(&mut ic, 0);
        assert_eq!(g[0].line_addr, 0x1200 & !0x3f);
    }
}
