//! Core model: decoupled front-end plus a commit-rate back-end.
//!
//! A [`Core`] executes one thread and simulates, cycle by cycle, the
//! front-end of Figure 5 of the paper (fetch predictor → FTQ → line buffers
//! → instruction queue) feeding a back-end that commits up to a
//! configurable number of instructions per cycle.  The commit rate is set
//! from the per-region IPC values embedded in the trace, reproducing the
//! paper's methodology of measuring back-end IPC with performance counters
//! and letting the simulator focus on front-end effects.
//!
//! The fetch predictor's output depends on the trace alone, not on timing,
//! so a thread's trace is decoded once into a [`FetchStream`]: the fetch
//! blocks, mispredictions, commit-rate changes and sync events the
//! predictor produces, one step per block.  A core replays its stream,
//! taking one step in each cycle its FTQ has room and no resteer is
//! pending; many cores (one per design point of a sweep) can share one
//! stream.
//!
//! The core does **not** talk to the I-cache directly: every cycle it emits
//! the line-fetch requests it wants to make and the machine model
//! (`sim-acmp`) routes them — straight to a private I-cache, or through the
//! shared bus to a shared I-cache — and later calls
//! [`Core::deliver_line`].  The machine also attributes memory-side stall
//! cycles to the right CPI-stack bucket ([`CpiStack`]) because only the
//! machine knows whether a request is waiting for the bus, in transfer, or
//! missing in the I-cache.
//!
//! The front-end's lookahead (prefetching the lines of queued fetch blocks)
//! is event-driven: its scan of the FTQ window re-runs only after a line
//! fill, any line-buffer allocation (by the head or by the lookahead), an
//! FTQ push, the head leaving its line or its fetch block, or a change of
//! the line buffers' LRU victim line.  A scan that issued stays armed; one
//! that issued nothing stays idle until one of those events.  Any new way
//! to change the FTQ or the line buffers must re-arm it too; debug builds
//! check every skipped scan against a full one.

pub mod config;
pub mod core;
pub mod cpi;
pub mod stream;

pub use crate::core::{Core, CoreState, CycleOutput, Park, StallReason};
pub use config::CoreConfig;
pub use cpi::{CpiStack, StallKind};
pub use stream::FetchStream;

#[cfg(test)]
mod crate_tests {
    use super::*;

    #[test]
    fn public_types_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Core>();
        assert_send::<CpiStack>();
        assert_send::<CoreConfig>();
        assert_send::<FetchStream>();
    }
}
