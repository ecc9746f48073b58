//! Shared instruction-bus models for the shared-I-cache ACMP.
//!
//! The paper connects the lean cores to their shared I-cache with a bus:
//! 32 bytes wide, 2 cycles of latency plus contention, round-robin
//! arbitration (Table I).  The "more bandwidth" design point replaces the
//! single bus with one bus per cache bank (two banks interleaved by even/odd
//! line address), doubling the peak line bandwidth.
//!
//! This crate provides:
//!
//! * [`BusConfig`] — width/latency/line-size parameters and the derived
//!   occupancy (beats) per line transfer.
//! * [`Bus`] — a single arbitrated bus: requests are submitted, granted in
//!   round-robin order when the wire is free, and each grant reports how
//!   long the requester waited (the *contention* component of the paper's
//!   CPI stacks) and when the transfer completes.
//! * [`IcacheInterconnect`] — one or more buses with line-address
//!   interleaving (the single-bus and double-bus configurations of the
//!   paper), plus aggregate statistics.
//!
//! # Example
//!
//! ```
//! use sim_interconnect::{BusConfig, IcacheInterconnect};
//!
//! // Two cores share a double-bus interconnect.
//! let mut ic = IcacheInterconnect::new(BusConfig::paper_single_bus(), 2, 4);
//! ic.submit(0, 1, 0x0000); // even line -> bus 0
//! ic.submit(0, 3, 0x0040); // odd line  -> bus 1
//! let mut grants = Vec::new();
//! ic.tick(0, &mut grants);
//! assert_eq!(grants.len(), 2, "different banks are served in parallel");
//! ```

pub mod bus;
pub mod config;
pub mod interconnect;
pub mod stats;

pub use bus::{Bus, Grant};
pub use config::{Arbitration, BusConfig};
pub use interconnect::IcacheInterconnect;
pub use stats::BusStats;

#[cfg(test)]
mod crate_tests {
    use super::*;

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Bus>();
        assert_send_sync::<IcacheInterconnect>();
        assert_send_sync::<BusStats>();
        assert_send_sync::<BusConfig>();
    }
}
