//! Instruction-trace model for the shared-I-cache ACMP simulator.
//!
//! The simulator in this workspace is *trace driven*: every simulated thread
//! is described by a stream of [`TraceRecord`]s capturing the executed
//! instruction addresses, the outcome and target of every branch, the
//! OpenMP-style synchronisation events that delimit serial and parallel
//! regions, and the measured commit rate (IPC) to apply to the back-end in
//! each region.  This mirrors the methodology of Milic et al. (ISPASS 2017),
//! where Pin produced one such trace per thread and TaskSim replayed them.
//!
//! This crate defines:
//!
//! * the record model ([`TraceRecord`], [`SyncEvent`], [`Region`]),
//! * the instruction address and line alignment ([`addr`]),
//! * fetch blocks ([`fetch_block`]) — the unit the decoupled front-end
//!   operates on,
//! * trace containers, the [`RecordSink`] a producer writes one thread's
//!   records into (a [`ThreadTrace`] keeps them; the simulator's fetch-step
//!   decoder consumes them as they arrive), and a batch cursor over a
//!   shared trace set ([`source`]),
//! * streaming trace statistics ([`stats`]) used by the workload
//!   characterisation figures of the paper (average basic-block length,
//!   per-region footprints, instruction sharing),
//! * a write-only JSON-lines encoding of trace sets ([`serialize`]).
//!
//! # Example
//!
//! ```
//! use sim_trace::{SyncEvent, TraceBuilder, TraceStats};
//!
//! let mut b = TraceBuilder::new(0);
//! b.set_ipc(2.0);
//! b.instr(0x1000, 4);
//! b.sync(SyncEvent::ParallelStart { num_threads: 4 });
//! b.branch(0x1004, 4, 0x1000, true);
//! let trace = b.finish();
//! assert_eq!(trace.len(), 4);
//! // A record carries no region; the sync events around it decide one.
//! let stats = TraceStats::from_trace(&trace);
//! assert_eq!((stats.serial.instructions, stats.parallel.instructions), (1, 1));
//! ```

pub mod addr;
pub mod fetch_block;
pub mod record;
pub mod serialize;
pub mod source;
pub mod stats;

pub use addr::{line_addr, InstrAddr};
pub use fetch_block::{FetchBlock, FetchBlockBuilder};
pub use record::{BranchInfo, Region, SyncEvent, TraceRecord};
pub use serialize::{write_trace_set_json, TraceSerializeError, TRACE_FORMAT_VERSION};
pub use source::{
    RecordSink, SharedTraceCursor, ThreadId, ThreadTrace, TraceBuilder, TraceSet, TraceSource,
};
pub use stats::{FootprintStats, RegionStats, SharingStats, TraceStats};

#[cfg(test)]
mod crate_tests {
    use super::*;

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TraceRecord>();
        assert_send_sync::<ThreadTrace>();
        assert_send_sync::<TraceSet>();
        assert_send_sync::<TraceStats>();
        assert_send_sync::<FetchBlock>();
    }
}
