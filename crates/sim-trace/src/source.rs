//! Trace containers and sources.
//!
//! The simulator consumes one trace per thread.  [`ThreadTrace`] is a
//! materialised, in-memory trace; [`TraceSet`] groups the per-thread traces
//! of one application run; [`SharedTraceCursor`] and [`OwnedTraceCursor`]
//! read one thread's records in batches through [`TraceSource`].

use crate::record::{BranchInfo, SyncEvent, TraceRecord};
use crate::InstrAddr;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a simulated thread (0 is the master thread).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct ThreadId(pub usize);

impl ThreadId {
    /// The master thread (thread 0), which executes serial regions.
    pub const MASTER: ThreadId = ThreadId(0);

    /// Returns `true` if this is the master thread.
    pub fn is_master(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl From<usize> for ThreadId {
    fn from(v: usize) -> Self {
        ThreadId(v)
    }
}

/// A source of trace records for one thread, read in batches.
pub trait TraceSource {
    /// Appends up to `max` records to `buf`, returning how many were
    /// appended (0 at the end of the trace).
    fn next_records(&mut self, buf: &mut Vec<TraceRecord>, max: usize) -> usize;
}

impl<T: TraceSource + ?Sized> TraceSource for Box<T> {
    fn next_records(&mut self, buf: &mut Vec<TraceRecord>, max: usize) -> usize {
        (**self).next_records(buf, max)
    }
}

/// Copies the next `max` records (or fewer at the end) from `records[*pos..]`
/// into `buf`, advancing `*pos` — the shared body of the cursors'
/// `next_records`.
fn copy_records(
    records: &[TraceRecord],
    pos: &mut usize,
    buf: &mut Vec<TraceRecord>,
    max: usize,
) -> usize {
    let n = max.min(records.len() - *pos);
    buf.extend_from_slice(&records[*pos..*pos + n]);
    *pos += n;
    n
}

/// A fully materialised, in-memory trace of a single thread.
#[derive(Debug, Clone, PartialEq, Default, Serialize)]
pub struct ThreadTrace {
    thread: ThreadId,
    records: Vec<TraceRecord>,
}

impl ThreadTrace {
    /// Creates an empty trace for `thread`.
    pub fn new(thread: ThreadId) -> Self {
        ThreadTrace {
            thread,
            records: Vec::new(),
        }
    }

    /// Creates a trace from pre-built records.
    pub fn from_records(thread: ThreadId, records: Vec<TraceRecord>) -> Self {
        ThreadTrace { thread, records }
    }

    /// The thread this trace belongs to.
    pub fn thread(&self) -> ThreadId {
        self.thread
    }

    /// The records of the trace, in program order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Number of records (including sync and IPC records).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` if the trace has no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of fetched instructions (instruction + branch records).
    pub fn num_instructions(&self) -> u64 {
        self.records.iter().filter(|r| r.is_instruction()).count() as u64
    }

    /// Appends a record.
    pub fn push(&mut self, record: TraceRecord) {
        self.records.push(record);
    }

    /// Returns an iterator over the records.
    pub fn iter(&self) -> std::slice::Iter<'_, TraceRecord> {
        self.records.iter()
    }

    /// Consumes the trace and returns its record vector, so the allocation
    /// can be reused (see [`TraceBuilder::reusing`]).
    pub fn into_records(self) -> Vec<TraceRecord> {
        self.records
    }

    /// Consumes the trace and returns a [`TraceSource`] that owns the
    /// records.
    pub fn into_source(self) -> OwnedTraceCursor {
        OwnedTraceCursor {
            records: self.records,
            pos: 0,
        }
    }
}

impl<'a> IntoIterator for &'a ThreadTrace {
    type Item = &'a TraceRecord;
    type IntoIter = std::slice::Iter<'a, TraceRecord>;

    fn into_iter(self) -> Self::IntoIter {
        self.records.iter()
    }
}

impl IntoIterator for ThreadTrace {
    type Item = TraceRecord;
    type IntoIter = std::vec::IntoIter<TraceRecord>;

    fn into_iter(self) -> Self::IntoIter {
        self.records.into_iter()
    }
}

impl Extend<TraceRecord> for ThreadTrace {
    fn extend<T: IntoIterator<Item = TraceRecord>>(&mut self, iter: T) {
        self.records.extend(iter);
    }
}

/// Cursor over one thread of a shared, reference-counted [`TraceSet`].
///
/// Walks the thread's records through an `Arc`, so many readers of one trace
/// set need not clone its record vectors.
#[derive(Debug, Clone)]
pub struct SharedTraceCursor {
    set: std::sync::Arc<TraceSet>,
    thread: usize,
    pos: usize,
}

impl SharedTraceCursor {
    /// Creates a cursor over `thread`'s records in `set`.
    ///
    /// # Panics
    ///
    /// Panics if `set` has no trace for `thread`.
    pub fn new(set: std::sync::Arc<TraceSet>, thread: ThreadId) -> Self {
        assert!(
            thread.0 < set.num_threads(),
            "trace set has {} threads, no trace for {thread}",
            set.num_threads()
        );
        SharedTraceCursor {
            set,
            thread: thread.0,
            pos: 0,
        }
    }
}

impl TraceSource for SharedTraceCursor {
    fn next_records(&mut self, buf: &mut Vec<TraceRecord>, max: usize) -> usize {
        copy_records(
            self.set.traces[self.thread].records(),
            &mut self.pos,
            buf,
            max,
        )
    }
}

/// Owning cursor over a [`ThreadTrace`]'s records.
#[derive(Debug, Clone)]
pub struct OwnedTraceCursor {
    records: Vec<TraceRecord>,
    pos: usize,
}

impl TraceSource for OwnedTraceCursor {
    fn next_records(&mut self, buf: &mut Vec<TraceRecord>, max: usize) -> usize {
        copy_records(&self.records, &mut self.pos, buf, max)
    }
}

/// Convenience builder for hand-written traces (tests, examples).
///
/// # Example
///
/// ```
/// use sim_trace::{TraceBuilder, SyncEvent};
///
/// let mut b = TraceBuilder::new(1);
/// b.set_ipc(1.0);
/// b.sync(SyncEvent::ParallelStart { num_threads: 2 });
/// b.basic_block(0x1000, 8, 0x1000, true); // an 8-instruction loop body
/// b.sync(SyncEvent::ParallelEnd);
/// let t = b.finish();
/// assert_eq!(t.num_instructions(), 8);
/// ```
#[derive(Debug, Clone)]
pub struct TraceBuilder {
    trace: ThreadTrace,
}

impl TraceBuilder {
    /// Creates a builder for the trace of thread `thread`.
    pub fn new(thread: usize) -> Self {
        TraceBuilder {
            trace: ThreadTrace::new(ThreadId(thread)),
        }
    }

    /// Creates a builder for the trace of thread `thread` that appends into
    /// `records`' allocation; its records are cleared first.
    pub fn reusing(thread: usize, mut records: Vec<TraceRecord>) -> Self {
        records.clear();
        TraceBuilder {
            trace: ThreadTrace::from_records(ThreadId(thread), records),
        }
    }

    /// Appends a plain instruction record.
    pub fn instr(&mut self, addr: u64, len: u8) -> &mut Self {
        self.trace.push(TraceRecord::Instr {
            addr: InstrAddr::new(addr),
            len,
        });
        self
    }

    /// Appends a branch record.
    pub fn branch(&mut self, addr: u64, len: u8, target: u64, taken: bool) -> &mut Self {
        self.trace.push(TraceRecord::Branch {
            addr: InstrAddr::new(addr),
            len,
            info: BranchInfo {
                target: InstrAddr::new(target),
                taken,
                indirect: false,
            },
        });
        self
    }

    /// Appends a basic block of `n` four-byte instructions starting at
    /// `start`, terminated by a branch to `target` with the given outcome.
    pub fn basic_block(&mut self, start: u64, n: u32, target: u64, taken: bool) -> &mut Self {
        assert!(n >= 1, "a basic block has at least one instruction");
        for i in 0..n - 1 {
            self.instr(start + i as u64 * 4, 4);
        }
        self.branch(start + (n as u64 - 1) * 4, 4, target, taken);
        self
    }

    /// Appends a synchronisation event.
    pub fn sync(&mut self, ev: SyncEvent) -> &mut Self {
        self.trace.push(TraceRecord::Sync(ev));
        self
    }

    /// Appends a commit-rate change.
    ///
    /// # Panics
    ///
    /// Panics if `ipc` is not positive and finite.
    pub fn set_ipc(&mut self, ipc: f64) -> &mut Self {
        assert!(
            ipc.is_finite() && ipc > 0.0,
            "IPC must be positive, got {ipc}"
        );
        self.trace.push(TraceRecord::SetIpc { ipc });
        self
    }

    /// Finishes the builder and returns the trace.
    pub fn finish(self) -> ThreadTrace {
        self.trace
    }
}

/// The per-thread traces of one application run.
#[derive(Debug, Clone, PartialEq, Default, Serialize)]
pub struct TraceSet {
    traces: Vec<ThreadTrace>,
}

impl TraceSet {
    /// Creates a trace set from per-thread traces.
    ///
    /// # Panics
    ///
    /// Panics if thread ids are not exactly `0..traces.len()` in order.
    pub fn new(traces: Vec<ThreadTrace>) -> Self {
        for (i, t) in traces.iter().enumerate() {
            assert_eq!(
                t.thread(),
                ThreadId(i),
                "trace at position {i} has thread id {}",
                t.thread()
            );
        }
        TraceSet { traces }
    }

    /// Number of threads.
    pub fn num_threads(&self) -> usize {
        self.traces.len()
    }

    /// Returns the trace of `thread`, if present.
    pub fn thread(&self, thread: ThreadId) -> Option<&ThreadTrace> {
        self.traces.get(thread.0)
    }

    /// The master thread's trace.
    ///
    /// # Panics
    ///
    /// Panics if the set is empty.
    pub fn master(&self) -> &ThreadTrace {
        &self.traces[0]
    }

    /// Iterates over all per-thread traces.
    pub fn iter(&self) -> std::slice::Iter<'_, ThreadTrace> {
        self.traces.iter()
    }

    /// Total number of fetched instructions across all threads.
    pub fn total_instructions(&self) -> u64 {
        self.traces.iter().map(|t| t.num_instructions()).sum()
    }
}

impl<'a> IntoIterator for &'a TraceSet {
    type Item = &'a ThreadTrace;
    type IntoIter = std::slice::Iter<'a, ThreadTrace>;

    fn into_iter(self) -> Self::IntoIter {
        self.traces.iter()
    }
}

impl IntoIterator for TraceSet {
    type Item = ThreadTrace;
    type IntoIter = std::vec::IntoIter<ThreadTrace>;

    fn into_iter(self) -> Self::IntoIter {
        self.traces.into_iter()
    }
}

impl FromIterator<ThreadTrace> for TraceSet {
    fn from_iter<T: IntoIterator<Item = ThreadTrace>>(iter: T) -> Self {
        TraceSet::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn thread_id_basics() {
        assert!(ThreadId::MASTER.is_master());
        assert!(!ThreadId(3).is_master());
        assert_eq!(ThreadId(3).to_string(), "t3");
        assert_eq!(ThreadId::from(5), ThreadId(5));
    }

    #[test]
    fn builder_produces_expected_records() {
        let mut b = TraceBuilder::new(0);
        b.set_ipc(2.0).instr(0x100, 4).branch(0x104, 4, 0x100, true);
        let t = b.finish();
        assert_eq!(t.len(), 3);
        assert_eq!(t.num_instructions(), 2);
        assert_eq!(t.thread(), ThreadId::MASTER);
    }

    #[test]
    fn basic_block_helper_counts() {
        let mut b = TraceBuilder::new(0);
        b.basic_block(0x1000, 5, 0x1000, true);
        let t = b.finish();
        assert_eq!(t.num_instructions(), 5);
        assert!(t.records().last().unwrap().is_taken_branch());
    }

    #[test]
    #[should_panic(expected = "IPC must be positive")]
    fn builder_rejects_bad_ipc() {
        TraceBuilder::new(0).set_ipc(-1.0);
    }

    /// A two-thread set: thread 0 runs 2 instructions, thread 1 runs 7.
    fn two_thread_set() -> Arc<TraceSet> {
        let mut t0 = TraceBuilder::new(0);
        t0.instr(0x100, 4).instr(0x104, 4);
        let mut t1 = TraceBuilder::new(1);
        t1.basic_block(0x2000, 7, 0x2000, true);
        Arc::new(TraceSet::new(vec![t0.finish(), t1.finish()]))
    }

    #[test]
    fn cursor_walks_all_records() {
        let set = two_thread_set();
        let mut cursor = SharedTraceCursor::new(Arc::clone(&set), ThreadId(1));
        let mut buf = Vec::new();
        // Full batches of `max`, then the short remainder, appended in order.
        assert_eq!(cursor.next_records(&mut buf, 3), 3);
        assert_eq!(cursor.next_records(&mut buf, 3), 3);
        assert_eq!(cursor.next_records(&mut buf, 3), 1);
        assert_eq!(buf, set.thread(ThreadId(1)).unwrap().records());
        // At the end, and on every call after it, nothing is appended.
        assert_eq!(cursor.next_records(&mut buf, 3), 0);
        assert_eq!(cursor.next_records(&mut buf, 3), 0);
        assert_eq!(buf.len(), 7);
    }

    #[test]
    #[should_panic(expected = "trace set has 2 threads, no trace for t2")]
    fn shared_cursor_rejects_a_thread_outside_the_set() {
        let _ = SharedTraceCursor::new(two_thread_set(), ThreadId(2));
    }

    #[test]
    fn owned_cursor_walks_all_records() {
        let mut b = TraceBuilder::new(0);
        b.instr(0x100, 4).instr(0x104, 4).instr(0x108, 4);
        let t = b.finish();
        let mut c = t.clone().into_source();
        let mut buf = Vec::new();
        assert_eq!(c.next_records(&mut buf, 2), 2);
        assert_eq!(c.next_records(&mut buf, 2), 1);
        assert_eq!(c.next_records(&mut buf, 2), 0);
        assert_eq!(buf, t.records());
    }

    #[test]
    fn boxed_trace_source_delegates() {
        let mut b = TraceBuilder::new(0);
        b.instr(0x100, 4);
        let mut boxed: Box<dyn TraceSource> = Box::new(b.finish().into_source());
        let mut buf = Vec::new();
        assert_eq!(boxed.next_records(&mut buf, 4), 1);
        assert_eq!(boxed.next_records(&mut buf, 4), 0);
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn trace_set_construction_and_totals() {
        let t0 = {
            let mut b = TraceBuilder::new(0);
            b.instr(0x100, 4);
            b.finish()
        };
        let t1 = {
            let mut b = TraceBuilder::new(1);
            b.instr(0x200, 4).instr(0x204, 4);
            b.finish()
        };
        let set = TraceSet::new(vec![t0, t1]);
        assert_eq!(set.num_threads(), 2);
        assert_eq!(set.total_instructions(), 3);
        assert_eq!(set.master().thread(), ThreadId::MASTER);
        assert!(set.thread(ThreadId(1)).is_some());
        assert!(set.thread(ThreadId(2)).is_none());
    }

    #[test]
    #[should_panic(expected = "thread id")]
    fn trace_set_rejects_out_of_order_threads() {
        let t = ThreadTrace::new(ThreadId(1));
        TraceSet::new(vec![t]);
    }

    #[test]
    fn trace_set_from_iterator() {
        let set: TraceSet = (0..3).map(|i| ThreadTrace::new(ThreadId(i))).collect();
        assert_eq!(set.num_threads(), 3);
    }

    #[test]
    fn extend_and_iterate() {
        let mut t = ThreadTrace::new(ThreadId(0));
        t.extend(vec![
            TraceRecord::SetIpc { ipc: 1.0 },
            TraceRecord::Instr {
                addr: InstrAddr::new(0x10),
                len: 4,
            },
        ]);
        assert_eq!(t.iter().count(), 2);
        assert_eq!((&t).into_iter().count(), 2);
        assert_eq!(t.clone().into_iter().count(), 2);
        assert!(!t.is_empty());
    }
}
