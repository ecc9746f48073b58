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
//! is event-driven.  A scan that issued stays armed.  A scan that issued
//! nothing records why, and is skipped until an event that can change that
//! verdict:
//!
//! * *pending cap* (every line buffer but one awaits a fill): a line fill;
//! * *victim in window* (the LRU victim line is one the queued blocks still
//!   need, so no prefetch may evict it): a different victim line, or the
//!   victim leaving the window as the head leaves its line or block;
//! * *no miss* (every window line is resident or requested): an FTQ push
//!   or the head leaving its line or block, which bring new lines into the
//!   window.
//!
//! A line-buffer allocation by the head re-arms every stop.  Any new way to
//! change the FTQ or the line buffers must re-arm the stops it affects;
//! debug builds check every skipped scan against a full one.

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
