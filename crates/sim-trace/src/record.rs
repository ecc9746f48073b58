//! Trace record model: instructions, branches, synchronisation events and
//! commit-rate (IPC) changes.
//!
//! A per-thread trace is a flat sequence of [`TraceRecord`]s.  The record
//! kinds mirror what the paper's PinTool emits: executed instruction
//! addresses, branch addresses annotated with outcome and target, the five
//! OpenMP synchronisation events (parallel start/end, barrier, wait and
//! signal on critical sections / semaphores), and `IPCset` records carrying
//! the back-end commit rate measured with performance counters for the
//! upcoming code section.

use crate::addr::InstrAddr;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Code region kind: serial (master-only) or parallel (all threads).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Region {
    /// Sequential section executed only by the master thread.
    Serial,
    /// Parallel section executed by all worker threads (and the master
    /// acting as an extra worker).
    Parallel,
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Region::Serial => f.write_str("serial"),
            Region::Parallel => f.write_str("parallel"),
        }
    }
}

/// OpenMP-style synchronisation events embedded in the trace.
///
/// These resolve the classic weakness of trace-driven simulation —
/// inter-thread ordering — by letting the simulated runtime reproduce the
/// fork/join structure of the original execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SyncEvent {
    /// A parallel region begins; `num_threads` threads participate.
    ParallelStart {
        /// Number of threads (including the master) in the region.
        num_threads: usize,
    },
    /// The current parallel region ends (implicit join).
    ParallelEnd,
    /// All participating threads must reach barrier `id` before any proceeds.
    Barrier {
        /// Identifier distinguishing distinct barrier instances.
        id: u32,
    },
    /// The thread waits to acquire critical section / semaphore `id`.
    CriticalWait {
        /// Lock or semaphore identifier.
        id: u32,
    },
    /// The thread releases critical section / semaphore `id`.
    CriticalSignal {
        /// Lock or semaphore identifier.
        id: u32,
    },
}

impl fmt::Display for SyncEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SyncEvent::ParallelStart { num_threads } => {
                write!(f, "parallel-start({num_threads})")
            }
            SyncEvent::ParallelEnd => f.write_str("parallel-end"),
            SyncEvent::Barrier { id } => write!(f, "barrier({id})"),
            SyncEvent::CriticalWait { id } => write!(f, "critical-wait({id})"),
            SyncEvent::CriticalSignal { id } => write!(f, "critical-signal({id})"),
        }
    }
}

/// Outcome and target of a dynamically executed branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BranchInfo {
    /// Branch target address (meaningful whether or not the branch was taken).
    pub target: InstrAddr,
    /// Whether the branch was taken in this dynamic instance.
    pub taken: bool,
    /// Whether the branch target is computed indirectly (returns, indirect
    /// calls); indirect branches are harder for the BTB.
    pub indirect: bool,
}

/// One record in a per-thread instruction trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TraceRecord {
    /// A non-branch instruction at `addr`, `len` bytes long.
    Instr {
        /// Instruction address.
        addr: InstrAddr,
        /// Instruction length in bytes.
        len: u8,
    },
    /// A branch instruction with its dynamic outcome.
    Branch {
        /// Instruction address.
        addr: InstrAddr,
        /// Instruction length in bytes.
        len: u8,
        /// Outcome and target.
        info: BranchInfo,
    },
    /// A synchronisation event (no instruction is fetched for it).
    Sync(SyncEvent),
    /// Sets the back-end commit rate (instructions per cycle) for the code
    /// that follows, until the next `SetIpc`.
    SetIpc {
        /// Commit rate in instructions per cycle; must be positive.
        ipc: f64,
    },
}

impl TraceRecord {
    /// Returns the instruction address if the record is an instruction or a
    /// branch.
    pub fn addr(&self) -> Option<InstrAddr> {
        match self {
            TraceRecord::Instr { addr, .. } | TraceRecord::Branch { addr, .. } => Some(*addr),
            _ => None,
        }
    }

    /// Returns the instruction length in bytes, if the record is an
    /// instruction or a branch.
    pub fn len_bytes(&self) -> Option<u8> {
        match self {
            TraceRecord::Instr { len, .. } | TraceRecord::Branch { len, .. } => Some(*len),
            _ => None,
        }
    }

    /// Returns the branch information if the record is a branch.
    pub fn branch(&self) -> Option<BranchInfo> {
        match self {
            TraceRecord::Branch { info, .. } => Some(*info),
            _ => None,
        }
    }

    /// Returns `true` if the record represents a fetched instruction
    /// (instruction or branch).
    pub fn is_instruction(&self) -> bool {
        matches!(self, TraceRecord::Instr { .. } | TraceRecord::Branch { .. })
    }

    /// Returns `true` if the record is a taken branch.
    pub fn is_taken_branch(&self) -> bool {
        matches!(
            self,
            TraceRecord::Branch {
                info: BranchInfo { taken: true, .. },
                ..
            }
        )
    }

    /// Returns the region the record belongs to, if it is intrinsically tied
    /// to one.  Plain records carry no region; the region is assigned by the
    /// runtime replaying the sync events.  Always `None` for now; kept as an
    /// extension point and used by the statistics splitter.
    pub fn region(&self) -> Option<Region> {
        None
    }
}

impl fmt::Display for TraceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceRecord::Instr { addr, len } => write!(f, "I {addr} +{len}"),
            TraceRecord::Branch { addr, len, info } => write!(
                f,
                "B {addr} +{len} -> {} {}{}",
                info.target,
                if info.taken { "taken" } else { "not-taken" },
                if info.indirect { " (indirect)" } else { "" }
            ),
            TraceRecord::Sync(ev) => write!(f, "S {ev}"),
            TraceRecord::SetIpc { ipc } => write!(f, "IPC {ipc}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn branch(taken: bool) -> TraceRecord {
        TraceRecord::Branch {
            addr: InstrAddr::new(0x100),
            len: 4,
            info: BranchInfo {
                target: InstrAddr::new(0x80),
                taken,
                indirect: false,
            },
        }
    }

    #[test]
    fn record_accessors() {
        let i = TraceRecord::Instr {
            addr: InstrAddr::new(0x40),
            len: 4,
        };
        assert_eq!(i.addr(), Some(InstrAddr::new(0x40)));
        assert_eq!(i.len_bytes(), Some(4));
        assert!(i.is_instruction());
        assert!(!i.is_taken_branch());
        assert!(i.branch().is_none());

        let b = branch(true);
        assert!(b.is_taken_branch());
        assert_eq!(b.branch().unwrap().target, InstrAddr::new(0x80));

        let s = TraceRecord::Sync(SyncEvent::ParallelEnd);
        assert!(!s.is_instruction());
        assert!(s.addr().is_none());

        let ipc = TraceRecord::SetIpc { ipc: 1.5 };
        assert!(!ipc.is_instruction());
        assert!(ipc.len_bytes().is_none());
    }

    #[test]
    fn not_taken_branch_is_not_taken() {
        assert!(!branch(false).is_taken_branch());
    }

    #[test]
    fn region_display_and_predicate() {
        assert_eq!(Region::Serial.to_string(), "serial");
        assert_eq!(Region::Parallel.to_string(), "parallel");
    }

    #[test]
    fn sync_event_display() {
        assert_eq!(
            SyncEvent::ParallelStart { num_threads: 8 }.to_string(),
            "parallel-start(8)"
        );
        assert_eq!(SyncEvent::Barrier { id: 3 }.to_string(), "barrier(3)");
        assert_eq!(
            SyncEvent::CriticalWait { id: 1 }.to_string(),
            "critical-wait(1)"
        );
        assert_eq!(
            SyncEvent::CriticalSignal { id: 1 }.to_string(),
            "critical-signal(1)"
        );
        assert_eq!(SyncEvent::ParallelEnd.to_string(), "parallel-end");
    }

    #[test]
    fn record_display_formats() {
        let b = branch(true);
        assert!(b.to_string().contains("taken"));
        let i = TraceRecord::Instr {
            addr: InstrAddr::new(0x40),
            len: 4,
        };
        assert!(i.to_string().starts_with("I "));
        assert!(TraceRecord::SetIpc { ipc: 2.0 }
            .to_string()
            .starts_with("IPC"));
    }
}
