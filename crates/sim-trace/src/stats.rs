//! Streaming trace statistics.
//!
//! These statistics back the workload-characterisation figures of the paper:
//!
//! * **Fig. 2** — average dynamic basic-block length (bytes), split into
//!   serial and parallel code regions ([`RegionStats::avg_basic_block_bytes`]).
//! * **Fig. 3** — I-cache MPKI per region (computed by replaying the
//!   addresses into `sim-cache`; the footprints collected here provide the
//!   working-set view).
//! * **Fig. 4** — static and dynamic instruction sharing across the threads
//!   of a parallel run ([`SharingStats`]).

use crate::record::{Region, SyncEvent, TraceRecord};
use crate::source::{ThreadTrace, TraceSet};
use std::collections::{HashMap, HashSet};

/// Per-region dynamic statistics of a single thread's trace.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RegionStats {
    /// Number of dynamically executed instructions.
    pub instructions: u64,
    /// Total bytes of dynamically executed instructions.
    pub instruction_bytes: u64,
    /// Number of dynamic basic blocks (sequences ending in any branch).
    pub basic_blocks: u64,
    /// Number of dynamic branch instructions.
    pub branches: u64,
    /// Number of dynamic taken branches.
    pub taken_branches: u64,
    /// Number of distinct static instruction addresses touched.
    pub static_instructions: u64,
    /// Number of distinct 64-byte line addresses touched.
    pub static_lines: u64,
}

impl RegionStats {
    /// Average dynamic basic-block length in bytes (Fig. 2 metric).
    ///
    /// Returns 0.0 when the region executed no basic block.
    pub fn avg_basic_block_bytes(&self) -> f64 {
        if self.basic_blocks == 0 {
            0.0
        } else {
            self.instruction_bytes as f64 / self.basic_blocks as f64
        }
    }
}

/// Footprint sets of one thread, split by region.
#[derive(Debug, Clone, Default)]
pub struct FootprintStats {
    /// Distinct static instruction addresses executed in serial regions.
    pub serial_addrs: HashSet<u64>,
    /// Distinct static instruction addresses executed in parallel regions.
    pub parallel_addrs: HashSet<u64>,
    /// Dynamic execution count per static address, parallel regions only.
    pub parallel_exec_counts: HashMap<u64, u64>,
}

/// Complete per-thread statistics: serial and parallel [`RegionStats`] plus
/// footprints.
#[derive(Debug, Clone, Default)]
pub struct TraceStats {
    /// Statistics of serial code regions.
    pub serial: RegionStats,
    /// Statistics of parallel code regions.
    pub parallel: RegionStats,
    /// Footprint sets used for the sharing analysis.
    pub footprints: FootprintStats,
}

impl TraceStats {
    /// Computes statistics for one thread's trace.
    ///
    /// Records before the first `ParallelStart` and between `ParallelEnd`
    /// and the next `ParallelStart` are attributed to the serial region;
    /// records inside parallel regions to the parallel region.  Worker
    /// threads (id > 0) conventionally only contain parallel-region records,
    /// but the splitter does not require that.
    pub fn from_trace(trace: &ThreadTrace) -> Self {
        Self::from_records(trace.records().iter().copied())
    }

    /// Computes statistics from a record iterator.
    pub fn from_records<I: IntoIterator<Item = TraceRecord>>(records: I) -> Self {
        let mut stats = TraceStats::default();
        let mut region = Region::Serial;
        let mut serial_lines: HashSet<u64> = HashSet::new();
        let mut parallel_lines: HashSet<u64> = HashSet::new();
        // A basic block ends at every branch (taken or not) — this is the
        // definition behind Fig. 2 ("dynamic basic block length").
        let mut open_block_serial = false;
        let mut open_block_parallel = false;

        for rec in records {
            match rec {
                TraceRecord::Sync(SyncEvent::ParallelStart { .. }) => {
                    region = Region::Parallel;
                }
                TraceRecord::Sync(SyncEvent::ParallelEnd) => {
                    region = Region::Serial;
                }
                TraceRecord::Sync(_) | TraceRecord::SetIpc { .. } => {}
                TraceRecord::Instr { addr, len } => {
                    let (r, lines, open) = match region {
                        Region::Serial => {
                            (&mut stats.serial, &mut serial_lines, &mut open_block_serial)
                        }
                        Region::Parallel => (
                            &mut stats.parallel,
                            &mut parallel_lines,
                            &mut open_block_parallel,
                        ),
                    };
                    r.instructions += 1;
                    r.instruction_bytes += len as u64;
                    lines.insert(crate::addr::line_addr(addr.raw(), 64));
                    *open = true;
                    match region {
                        Region::Serial => {
                            stats.footprints.serial_addrs.insert(addr.raw());
                        }
                        Region::Parallel => {
                            stats.footprints.parallel_addrs.insert(addr.raw());
                            *stats
                                .footprints
                                .parallel_exec_counts
                                .entry(addr.raw())
                                .or_insert(0) += 1;
                        }
                    }
                }
                TraceRecord::Branch { addr, len, info } => {
                    let (r, lines, open) = match region {
                        Region::Serial => {
                            (&mut stats.serial, &mut serial_lines, &mut open_block_serial)
                        }
                        Region::Parallel => (
                            &mut stats.parallel,
                            &mut parallel_lines,
                            &mut open_block_parallel,
                        ),
                    };
                    r.instructions += 1;
                    r.instruction_bytes += len as u64;
                    r.branches += 1;
                    if info.taken {
                        r.taken_branches += 1;
                    }
                    // Every branch closes a basic block.
                    r.basic_blocks += 1;
                    *open = false;
                    lines.insert(crate::addr::line_addr(addr.raw(), 64));
                    match region {
                        Region::Serial => {
                            stats.footprints.serial_addrs.insert(addr.raw());
                        }
                        Region::Parallel => {
                            stats.footprints.parallel_addrs.insert(addr.raw());
                            *stats
                                .footprints
                                .parallel_exec_counts
                                .entry(addr.raw())
                                .or_insert(0) += 1;
                        }
                    }
                }
            }
        }
        // An unterminated trailing run of instructions counts as one block.
        if open_block_serial {
            stats.serial.basic_blocks += 1;
        }
        if open_block_parallel {
            stats.parallel.basic_blocks += 1;
        }

        stats.serial.static_instructions = stats.footprints.serial_addrs.len() as u64;
        stats.parallel.static_instructions = stats.footprints.parallel_addrs.len() as u64;
        stats.serial.static_lines = serial_lines.len() as u64;
        stats.parallel.static_lines = parallel_lines.len() as u64;
        stats
    }

    /// Combined (serial + parallel) dynamic instruction count.
    pub fn total_instructions(&self) -> u64 {
        self.serial.instructions + self.parallel.instructions
    }

    /// Fraction of dynamic instructions executed in serial regions
    /// (the x-axis of Fig. 13).
    pub fn serial_fraction(&self) -> f64 {
        let total = self.total_instructions();
        if total == 0 {
            0.0
        } else {
            self.serial.instructions as f64 / total as f64
        }
    }
}

/// Instruction-sharing statistics across the threads of a parallel run
/// (Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SharingStats {
    /// Fraction of the union static footprint (parallel regions) that is
    /// executed by *all* threads.
    pub static_sharing: f64,
    /// Fraction of dynamically executed instructions (parallel regions,
    /// summed over threads) whose static address is executed by all threads.
    pub dynamic_sharing: f64,
    /// Number of threads considered.
    pub num_threads: usize,
}

impl SharingStats {
    /// Computes sharing statistics over all threads of a [`TraceSet`].
    ///
    /// Only parallel-region instructions are considered, matching the paper
    /// ("parallel sections only").
    ///
    /// # Panics
    ///
    /// Panics if `set` has no threads.
    pub fn from_trace_set(set: &TraceSet) -> Self {
        let per_thread: Vec<TraceStats> = set.iter().map(TraceStats::from_trace).collect();
        Self::from_thread_stats(&per_thread)
    }

    /// Computes sharing statistics from per-thread statistics.
    ///
    /// # Panics
    ///
    /// Panics if `stats` is empty.
    pub fn from_thread_stats(stats: &[TraceStats]) -> Self {
        assert!(
            !stats.is_empty(),
            "sharing analysis requires at least one thread"
        );
        let num_threads = stats.len();

        // Union and intersection of static parallel footprints.
        let mut union: HashSet<u64> = HashSet::new();
        for s in stats {
            union.extend(s.footprints.parallel_addrs.iter().copied());
        }
        let shared: HashSet<u64> = union
            .iter()
            .copied()
            .filter(|a| {
                stats
                    .iter()
                    .all(|s| s.footprints.parallel_addrs.contains(a))
            })
            .collect();

        let static_sharing = if union.is_empty() {
            0.0
        } else {
            shared.len() as f64 / union.len() as f64
        };

        let mut dynamic_total: u64 = 0;
        let mut dynamic_shared: u64 = 0;
        for s in stats {
            for (addr, count) in &s.footprints.parallel_exec_counts {
                dynamic_total += count;
                if shared.contains(addr) {
                    dynamic_shared += count;
                }
            }
        }
        let dynamic_sharing = if dynamic_total == 0 {
            0.0
        } else {
            dynamic_shared as f64 / dynamic_total as f64
        };

        SharingStats {
            static_sharing,
            dynamic_sharing,
            num_threads,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{TraceBuilder, TraceSet};
    use crate::SyncEvent;

    fn loop_trace(thread: usize, start: u64, iters: u32, body: u32) -> ThreadTrace {
        let mut b = TraceBuilder::new(thread);
        b.set_ipc(1.0);
        b.sync(SyncEvent::ParallelStart { num_threads: 2 });
        for _ in 0..iters {
            b.basic_block(start, body, start, true);
        }
        b.sync(SyncEvent::ParallelEnd);
        b.finish()
    }

    #[test]
    fn basic_block_length_matches_construction() {
        let t = loop_trace(0, 0x1000, 10, 8);
        let s = TraceStats::from_trace(&t);
        assert_eq!(s.parallel.instructions, 80);
        assert_eq!(s.parallel.basic_blocks, 10);
        assert!((s.parallel.avg_basic_block_bytes() - 32.0).abs() < 1e-9);
        assert_eq!(s.serial.instructions, 0);
    }

    #[test]
    fn serial_vs_parallel_split() {
        let mut b = TraceBuilder::new(0);
        b.basic_block(0x100, 4, 0x200, true); // serial
        b.sync(SyncEvent::ParallelStart { num_threads: 2 });
        b.basic_block(0x1000, 12, 0x1000, true); // parallel
        b.sync(SyncEvent::ParallelEnd);
        b.basic_block(0x200, 3, 0x300, false); // serial again
        let s = TraceStats::from_trace(&b.finish());
        assert_eq!(s.serial.instructions, 7);
        assert_eq!(s.parallel.instructions, 12);
        assert_eq!(s.serial.basic_blocks, 2);
        assert_eq!(s.parallel.basic_blocks, 1);
        assert!(s.serial_fraction() > 0.3 && s.serial_fraction() < 0.4);
    }

    #[test]
    fn footprint_counts_distinct_addresses() {
        let t = loop_trace(0, 0x1000, 100, 16);
        let s = TraceStats::from_trace(&t);
        // 16 instructions * 4 bytes = 64 bytes = 1 line, executed repeatedly.
        assert_eq!(s.parallel.static_instructions, 16);
        assert_eq!(s.parallel.static_lines, 1);
    }

    #[test]
    fn trailing_open_block_is_counted() {
        let mut b = TraceBuilder::new(0);
        b.instr(0x100, 4).instr(0x104, 4);
        let s = TraceStats::from_trace(&b.finish());
        assert_eq!(s.serial.basic_blocks, 1);
        assert_eq!(s.serial.instructions, 2);
    }

    #[test]
    fn taken_branch_ratio() {
        let mut b = TraceBuilder::new(0);
        b.branch(0x100, 4, 0x200, true);
        b.branch(0x200, 4, 0x300, false);
        b.branch(0x300, 4, 0x100, false);
        let s = TraceStats::from_trace(&b.finish());
        // One taken branch in three.
        assert_eq!((s.serial.taken_branches, s.serial.branches), (1, 3));
    }

    #[test]
    fn full_sharing_when_threads_run_identical_code() {
        let set = TraceSet::new(vec![
            loop_trace(0, 0x1000, 10, 8),
            loop_trace(1, 0x1000, 10, 8),
        ]);
        let sh = SharingStats::from_trace_set(&set);
        assert!((sh.static_sharing - 1.0).abs() < 1e-9);
        assert!((sh.dynamic_sharing - 1.0).abs() < 1e-9);
        assert_eq!(sh.num_threads, 2);
    }

    #[test]
    fn no_sharing_when_threads_run_disjoint_code() {
        let set = TraceSet::new(vec![
            loop_trace(0, 0x1000, 10, 8),
            loop_trace(1, 0x8000, 10, 8),
        ]);
        let sh = SharingStats::from_trace_set(&set);
        assert_eq!(sh.static_sharing, 0.0);
        assert_eq!(sh.dynamic_sharing, 0.0);
    }

    #[test]
    fn partial_sharing_is_between_zero_and_one() {
        // Thread 1 executes the shared loop plus a private tail.
        let t0 = loop_trace(0, 0x1000, 10, 8);
        let mut b = TraceBuilder::new(1);
        b.sync(SyncEvent::ParallelStart { num_threads: 2 });
        for _ in 0..10 {
            b.basic_block(0x1000, 8, 0x1000, true);
        }
        b.basic_block(0x9000, 8, 0x9000, true);
        b.sync(SyncEvent::ParallelEnd);
        let set = TraceSet::new(vec![t0, b.finish()]);
        let sh = SharingStats::from_trace_set(&set);
        assert!(sh.static_sharing > 0.0 && sh.static_sharing < 1.0);
        assert!(sh.dynamic_sharing > 0.9 && sh.dynamic_sharing < 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn sharing_requires_threads() {
        SharingStats::from_thread_stats(&[]);
    }

    #[test]
    fn empty_trace_has_zero_stats() {
        let s = TraceStats::from_records(std::iter::empty());
        assert_eq!(s.total_instructions(), 0);
        assert_eq!(s.serial_fraction(), 0.0);
        assert_eq!(s.serial.avg_basic_block_bytes(), 0.0);
        assert_eq!(s.parallel, RegionStats::default());
    }
}
