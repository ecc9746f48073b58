//! Fetch blocks: the unit of work of the decoupled front-end.
//!
//! A *fetch block* (FB) is a sequence of consecutive instructions that ends
//! at a taken branch (or at a configurable size limit).  It may span several
//! basic blocks when intervening branches are not taken, which is exactly why
//! the paper's front-end uses FBs rather than basic blocks: HPC code has long
//! straight-line runs and FBs raise the effective fetch bandwidth.
//!
//! [`FetchBlockBuilder`] adapts any iterator of [`TraceRecord`]s into an
//! iterator of [`FetchBlock`]s.  The simulated front-end does not use it: it
//! assembles its blocks while predicting (`sim-core`'s fetch-step decoder).
//! Perfbench's isolated cache and bus replays take their fetch-line stream
//! from it.

use crate::addr::InstrAddr;
use crate::record::{BranchInfo, TraceRecord};

/// Default maximum fetch-block length in bytes.
///
/// The fetch predictor cannot look arbitrarily far ahead, so fetch blocks are
/// capped; the paper's configuration uses the I-cache line size region (64 B)
/// as a practical fetch granule but allows an FB to span lines, so we cap at
/// four lines.
pub const DEFAULT_MAX_FB_BYTES: u32 = 256;

/// A dynamic fetch block: consecutive instructions ending at a taken branch
/// or the size cap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FetchBlock {
    /// Address of the first instruction in the block.
    pub start: InstrAddr,
    /// Total length of the block in bytes.
    pub len_bytes: u32,
    /// Number of instructions in the block.
    pub num_instrs: u32,
    /// Number of branch instructions inside the block (taken or not).
    pub num_branches: u32,
    /// Terminating taken branch, if the block ended because of one.
    pub terminator: Option<TerminatingBranch>,
}

/// The taken branch that terminated a fetch block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TerminatingBranch {
    /// Address of the branch instruction.
    pub addr: InstrAddr,
    /// Branch outcome/target information.
    pub info: BranchInfo,
}

impl FetchBlock {
    /// Address one past the last byte of the block.
    pub fn end(&self) -> InstrAddr {
        self.start.add(self.len_bytes as u64)
    }

    /// Iterator over the line addresses (raw, aligned) the block touches.
    pub fn lines(&self, line_size: u64) -> impl Iterator<Item = u64> {
        let first = crate::addr::line_addr(self.start.raw(), line_size);
        let last = crate::addr::line_addr(
            self.start.raw() + self.len_bytes.max(1) as u64 - 1,
            line_size,
        );
        (first..=last).step_by(line_size as usize)
    }

    /// Returns the number of cache lines the block spans.
    pub fn num_lines(&self, line_size: u64) -> u32 {
        self.lines(line_size).count() as u32
    }
}

/// Builds [`FetchBlock`]s from a stream of [`TraceRecord`]s.
///
/// Non-instruction records (sync events, IPC changes) are passed through as
/// [`FetchItem::Meta`]; they flush the block under construction so that
/// region boundaries never bisect a fetch block.
#[derive(Debug)]
pub struct FetchBlockBuilder<I> {
    records: I,
    max_bytes: u32,
    current: Option<PartialBlock>,
    out: std::collections::VecDeque<FetchItem>,
}

#[derive(Debug)]
struct PartialBlock {
    start: InstrAddr,
    next: InstrAddr,
    len_bytes: u32,
    num_instrs: u32,
    num_branches: u32,
}

/// Items produced by [`FetchBlockBuilder::next_item`].
#[derive(Debug, Clone, PartialEq)]
pub enum FetchItem {
    /// A completed fetch block.
    Block(FetchBlock),
    /// A non-instruction record encountered in the stream (sync or IPC-set).
    Meta(TraceRecord),
}

impl<I: Iterator<Item = TraceRecord>> FetchBlockBuilder<I> {
    /// Creates a builder over `records` with the default size cap.
    pub fn new(records: I) -> Self {
        Self::with_max_bytes(records, DEFAULT_MAX_FB_BYTES)
    }

    /// Creates a builder with an explicit fetch-block size cap in bytes.
    ///
    /// # Panics
    ///
    /// Panics if `max_bytes` is zero.
    pub fn with_max_bytes(records: I, max_bytes: u32) -> Self {
        assert!(max_bytes > 0, "fetch block size cap must be positive");
        FetchBlockBuilder {
            records,
            max_bytes,
            current: None,
            out: std::collections::VecDeque::new(),
        }
    }

    /// Returns the next fetch block or meta record, or `None` at end of
    /// trace.
    pub fn next_item(&mut self) -> Option<FetchItem> {
        loop {
            if let Some(item) = self.out.pop_front() {
                return Some(item);
            }
            match self.records.next() {
                None => {
                    self.flush();
                    return self.out.pop_front();
                }
                Some(rec @ (TraceRecord::Sync(_) | TraceRecord::SetIpc { .. })) => {
                    // Region boundaries never bisect a fetch block.
                    self.flush();
                    self.out.push_back(FetchItem::Meta(rec));
                }
                Some(TraceRecord::Instr { addr, len }) => self.push_instr(addr, len, None),
                Some(TraceRecord::Branch { addr, len, info }) => {
                    self.push_instr(addr, len, Some(info))
                }
            }
        }
    }

    fn push_instr(&mut self, addr: InstrAddr, len: u8, branch: Option<BranchInfo>) {
        // A discontinuity (the instruction does not follow the previous one)
        // terminates the current block: the trace jumped without a recorded
        // taken branch (e.g. the previous record ended a loop iteration).
        let discontinuous = self
            .current
            .as_ref()
            .map(|c| c.next != addr)
            .unwrap_or(false);
        if discontinuous {
            self.flush();
        }

        let cur = self.current.get_or_insert(PartialBlock {
            start: addr,
            next: addr,
            len_bytes: 0,
            num_instrs: 0,
            num_branches: 0,
        });
        cur.len_bytes += len as u32;
        cur.num_instrs += 1;
        cur.next = addr.add(len as u64);
        if branch.is_some() {
            cur.num_branches += 1;
        }

        let taken = branch.map(|b| b.taken).unwrap_or(false);
        let full = cur.len_bytes >= self.max_bytes;
        if taken || full {
            let terminator = branch
                .filter(|b| b.taken)
                .map(|info| TerminatingBranch { addr, info });
            let block = self.take_block(terminator);
            self.out.push_back(FetchItem::Block(block));
        }
    }

    fn take_block(&mut self, terminator: Option<TerminatingBranch>) -> FetchBlock {
        let cur = self
            .current
            .take()
            .expect("take_block with no current block");
        FetchBlock {
            start: cur.start,
            len_bytes: cur.len_bytes,
            num_instrs: cur.num_instrs,
            num_branches: cur.num_branches,
            terminator,
        }
    }

    fn flush(&mut self) {
        if self.current.is_some() {
            let block = self.take_block(None);
            self.out.push_back(FetchItem::Block(block));
        }
    }
}

impl<I: Iterator<Item = TraceRecord>> Iterator for FetchBlockBuilder<I> {
    type Item = FetchItem;

    fn next(&mut self) -> Option<FetchItem> {
        self.next_item()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::SyncEvent;

    fn instr(addr: u64) -> TraceRecord {
        TraceRecord::Instr {
            addr: InstrAddr::new(addr),
            len: 4,
        }
    }

    fn branch(addr: u64, target: u64, taken: bool) -> TraceRecord {
        TraceRecord::Branch {
            addr: InstrAddr::new(addr),
            len: 4,
            info: BranchInfo {
                target: InstrAddr::new(target),
                taken,
                indirect: false,
            },
        }
    }

    fn blocks(records: Vec<TraceRecord>) -> Vec<FetchItem> {
        FetchBlockBuilder::new(records.into_iter()).collect()
    }

    #[test]
    fn straight_line_code_forms_one_block() {
        let items = blocks(vec![instr(0x100), instr(0x104), instr(0x108)]);
        assert_eq!(items.len(), 1);
        match &items[0] {
            FetchItem::Block(b) => {
                assert_eq!(b.start.raw(), 0x100);
                assert_eq!(b.num_instrs, 3);
                assert_eq!(b.len_bytes, 12);
                assert!(b.terminator.is_none());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn taken_branch_terminates_block() {
        let items = blocks(vec![
            instr(0x100),
            branch(0x104, 0x200, true),
            instr(0x200),
            instr(0x204),
        ]);
        let fbs: Vec<_> = items
            .iter()
            .filter_map(|i| match i {
                FetchItem::Block(b) => Some(*b),
                _ => None,
            })
            .collect();
        assert_eq!(fbs.len(), 2);
        assert_eq!(fbs[0].num_instrs, 2);
        assert!(fbs[0].terminator.is_some());
        assert_eq!(fbs[1].start.raw(), 0x200);
    }

    #[test]
    fn not_taken_branch_does_not_terminate() {
        let items = blocks(vec![
            instr(0x100),
            branch(0x104, 0x200, false),
            instr(0x108),
        ]);
        let fbs: Vec<_> = items
            .iter()
            .filter_map(|i| match i {
                FetchItem::Block(b) => Some(*b),
                _ => None,
            })
            .collect();
        assert_eq!(fbs.len(), 1);
        assert_eq!(fbs[0].num_instrs, 3);
        assert_eq!(fbs[0].num_branches, 1);
        assert!(fbs[0].terminator.is_none());
    }

    #[test]
    fn size_cap_terminates_block() {
        let records: Vec<_> = (0..100).map(|i| instr(0x1000 + i * 4)).collect();
        let items: Vec<_> = FetchBlockBuilder::with_max_bytes(records.into_iter(), 64).collect();
        let fbs: Vec<_> = items
            .iter()
            .filter_map(|i| match i {
                FetchItem::Block(b) => Some(*b),
                _ => None,
            })
            .collect();
        assert!(fbs.len() >= 6);
        for b in &fbs[..fbs.len() - 1] {
            assert_eq!(b.len_bytes, 64);
        }
        let total: u32 = fbs.iter().map(|b| b.num_instrs).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn sync_event_flushes_block_and_is_passed_through() {
        let items = blocks(vec![
            instr(0x100),
            TraceRecord::Sync(SyncEvent::ParallelStart { num_threads: 4 }),
            instr(0x200),
        ]);
        assert_eq!(items.len(), 3);
        assert!(matches!(items[0], FetchItem::Block(_)));
        assert!(matches!(items[1], FetchItem::Meta(TraceRecord::Sync(_))));
        assert!(matches!(items[2], FetchItem::Block(_)));
    }

    #[test]
    fn discontinuity_terminates_block() {
        // A jump in addresses without a recorded taken branch still splits.
        let items = blocks(vec![instr(0x100), instr(0x5000), instr(0x5004)]);
        let fbs: Vec<_> = items
            .iter()
            .filter_map(|i| match i {
                FetchItem::Block(b) => Some(*b),
                _ => None,
            })
            .collect();
        assert_eq!(fbs.len(), 2);
        assert_eq!(fbs[0].num_instrs, 1);
        assert_eq!(fbs[1].num_instrs, 2);
    }

    #[test]
    fn fetch_block_line_helpers() {
        let b = FetchBlock {
            start: InstrAddr::new(0x1030),
            len_bytes: 0x40,
            num_instrs: 16,
            num_branches: 0,
            terminator: None,
        };
        // 0x1030..0x1070 touches lines 0x1000 and 0x1040.
        let lines: Vec<_> = b.lines(64).collect();
        assert_eq!(lines, vec![0x1000, 0x1040]);
        assert_eq!(b.num_lines(64), 2);
        assert_eq!(b.end().raw(), 0x1070);
    }

    #[test]
    fn empty_trace_yields_nothing() {
        let items = blocks(vec![]);
        assert!(items.is_empty());
    }

    #[test]
    fn total_instruction_count_is_preserved() {
        let mut records = Vec::new();
        for i in 0..50u64 {
            if i % 7 == 6 {
                records.push(branch(0x100 + i * 4, 0x100, true));
                records.push(instr(0x100));
            } else {
                records.push(instr(0x100 + i * 4));
            }
        }
        let n_in = records.iter().filter(|r| r.is_instruction()).count() as u32;
        let items = blocks(records);
        let n_out: u32 = items
            .iter()
            .filter_map(|i| match i {
                FetchItem::Block(b) => Some(b.num_instrs),
                _ => None,
            })
            .sum();
        assert_eq!(n_in, n_out);
    }
}
