//! The cycle-level core model.

use crate::config::CoreConfig;
use crate::cpi::CpiStack;
use sim_frontend::{FetchPredictor, Ftq, FtqEntry, LineBufferFile, LineBufferStats, LineLookup};
use sim_trace::{SyncEvent, TraceRecord, TraceSource};

/// How many candidate lines a lookahead scan examines before truncating.
const MAX_LOOKAHEAD_LINES: usize = 16;

/// Execution state of a core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreState {
    /// Fetching and committing normally.
    Running,
    /// A synchronisation event (or end of trace) was reached at fetch; the
    /// core is draining the instructions already in flight.
    Draining,
    /// Drained and waiting for the runtime to release it.
    Blocked,
    /// The trace is fully executed.
    Finished,
}

/// Why a core committed nothing this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallReason {
    /// The instruction queue is empty because the front-end is waiting for
    /// this line to arrive.  The machine model refines this into I-cache
    /// latency, bus latency or bus congestion depending on where the request
    /// currently is.
    WaitingForLine(u64),
    /// The front-end is recovering from a branch misprediction.
    MispredictRecovery,
    /// The core is blocked on (or draining towards) a synchronisation event.
    SyncBlocked,
    /// Anything else (predictor throughput, start-up, end of trace).
    Other,
}

/// What happened during one call to [`Core::cycle`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CycleOutput {
    /// Instructions committed this cycle.
    pub committed: u32,
    /// Line-fetch requests issued this cycle (line-aligned addresses).
    pub fetch_requests: Vec<u64>,
    /// A synchronisation event reached and fully drained this cycle; the
    /// runtime must eventually call [`Core::unblock`].
    pub sync_event: Option<SyncEvent>,
    /// The core finished its trace this cycle.
    pub finished_now: bool,
    /// Why nothing committed (only set when `committed == 0` and the core
    /// has not finished).
    pub stall: Option<StallReason>,
}

/// How the machine scheduler may treat a core over the next cycles.
///
/// Returned by [`Core::park_state`] after a cycle in which nothing committed.
/// "Observable" below means anything that changes simulation results: a
/// commit, a fetch request, a sync event, finishing, or a change in stall
/// classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Park {
    /// The core would do observable work next cycle; keep ticking it.
    Active,
    /// Nothing observable happens strictly before the given cycle; the core
    /// is only waiting for its resteer penalty to elapse.  The scheduler may
    /// skip ahead and tick the core again at this cycle.
    Until(u64),
    /// Nothing observable happens until an external event arrives (a line
    /// delivery via [`Core::deliver_line`] or an [`Core::unblock`]).
    Waiting,
}

/// Progress of fetching the fetch block at the head of the FTQ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HeadFetch {
    /// Need to look up the next line.
    Idle,
    /// The needed line is known but no line buffer could be allocated yet.
    WaitAlloc(u64),
    /// The line was requested (or found in-flight); waiting for the fill.
    /// [`Core::deliver_line`] advances this to `Ready` when the fill lands,
    /// so no per-cycle residency probe is needed.
    WaitFill(u64),
    /// The line is resident; instructions are being delivered from it.
    /// `idx` caches the buffer slot (stable while the line stays resident,
    /// which the lookahead victim check guarantees for the head line).
    Ready { line: u64, idx: usize },
}

/// A simulated core.
pub struct Core {
    id: usize,
    config: CoreConfig,
    trace: Box<dyn TraceSource + Send>,
    predictor: FetchPredictor,
    ftq: Ftq,
    line_buffers: LineBufferFile,
    head_fetch: HeadFetch,

    iq_occupancy: usize,
    commit_rate: f64,
    commit_credit: f64,

    resteer_until: u64,
    state: CoreState,
    pending_sync: Option<SyncEvent>,
    trace_done: bool,
    /// One record pushed back by fetch-block assembly (e.g. the first record
    /// after a discontinuity).
    pushback: Option<TraceRecord>,
    /// Records batched out of the trace source, so block assembly pays one
    /// virtual `next_records` call per batch instead of one per record.
    trace_buf: Vec<TraceRecord>,
    /// Read position in `trace_buf`.
    trace_pos: usize,

    cpi: CpiStack,
    fetch_blocks: u64,

    /// Set when an input of the lookahead scan changed since the last scan
    /// that issued nothing (see the module docs for the events).
    lookahead_dirty: bool,
    /// The LRU victim line the last non-issuing scan saw; a different
    /// victim re-arms the scan just like a set `lookahead_dirty`.
    lookahead_victim: Option<u64>,
}

impl std::fmt::Debug for Core {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Core")
            .field("id", &self.id)
            .field("state", &self.state)
            .field("iq_occupancy", &self.iq_occupancy)
            .field("commit_rate", &self.commit_rate)
            .field("instructions", &self.cpi.instructions)
            .finish_non_exhaustive()
    }
}

impl Core {
    /// Creates a core with identifier `id` executing `trace`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(id: usize, config: CoreConfig, trace: Box<dyn TraceSource + Send>) -> Self {
        config.validate();
        Core {
            id,
            config,
            trace,
            predictor: FetchPredictor::new(config.frontend.predictor),
            ftq: Ftq::new(config.frontend.ftq_capacity),
            line_buffers: LineBufferFile::new(
                config.frontend.line_buffers,
                config.frontend.line_size,
            ),
            head_fetch: HeadFetch::Idle,
            iq_occupancy: 0,
            commit_rate: config.default_ipc,
            commit_credit: 0.0,
            resteer_until: 0,
            state: CoreState::Running,
            pending_sync: None,
            trace_done: false,
            pushback: None,
            trace_buf: Vec::new(),
            trace_pos: 0,
            cpi: CpiStack::new(),
            fetch_blocks: 0,
            lookahead_dirty: true,
            lookahead_victim: None,
        }
    }

    /// The core's identifier.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The configuration in use.
    pub fn config(&self) -> &CoreConfig {
        &self.config
    }

    /// The execution state.
    pub fn state(&self) -> CoreState {
        self.state
    }

    /// The CPI stack accumulated so far.
    pub fn cpi(&self) -> &CpiStack {
        &self.cpi
    }

    /// Mutable access to the CPI stack, used by the machine model to record
    /// memory-side stall attributions.
    pub fn cpi_mut(&mut self) -> &mut CpiStack {
        &mut self.cpi
    }

    /// Line-buffer statistics (the paper's I-cache access ratio).
    pub fn line_buffer_stats(&self) -> &LineBufferStats {
        self.line_buffers.stats()
    }

    /// Branch predictor statistics.
    pub fn predictor_stats(&self) -> &sim_frontend::PredictorStats {
        self.predictor.stats()
    }

    /// Number of fetch blocks produced so far.
    pub fn fetch_blocks(&self) -> u64 {
        self.fetch_blocks
    }

    /// Instructions committed so far.
    pub fn instructions(&self) -> u64 {
        self.cpi.instructions
    }

    /// Current back-end commit rate (IPC).
    pub fn commit_rate(&self) -> f64 {
        self.commit_rate
    }

    /// Returns `true` once the core has executed its whole trace.
    pub fn is_finished(&self) -> bool {
        self.state == CoreState::Finished
    }

    /// Releases a core blocked on a synchronisation event.
    ///
    /// # Panics
    ///
    /// Panics if the core is not blocked.
    pub fn unblock(&mut self) {
        assert_eq!(
            self.state,
            CoreState::Blocked,
            "core {} unblocked while {:?}",
            self.id,
            self.state
        );
        self.state = CoreState::Running;
    }

    /// Delivers the line containing `addr` into a waiting line buffer (the
    /// completion of a fetch request issued earlier).
    pub fn deliver_line(&mut self, addr: u64, now: u64) {
        let filled = self.line_buffers.fill(addr, now);
        self.lookahead_dirty = true;
        if filled {
            let line = addr & !(self.config.frontend.line_size - 1);
            if self.head_fetch == HeadFetch::WaitFill(line) {
                // Event-driven head wake-up: fills are the only Pending ->
                // Valid transition, so advancing the state here replaces the
                // per-cycle residency probe in `fetch_head`.
                let idx = self
                    .line_buffers
                    .index_of(line)
                    .expect("filled line must be resident");
                self.head_fetch = HeadFetch::Ready { line, idx };
            }
        }
    }

    /// Simulates one cycle.
    pub fn cycle(&mut self, now: u64) -> CycleOutput {
        let mut out = CycleOutput::default();
        self.cycle_into(now, &mut out);
        out
    }

    /// Simulates one cycle, writing into a caller-owned output so its
    /// `fetch_requests` allocation can be reused across cycles.  Equivalent
    /// to [`Core::cycle`]; this is the hot-path entry point.
    pub fn cycle_into(&mut self, now: u64, out: &mut CycleOutput) {
        out.committed = 0;
        out.fetch_requests.clear();
        out.sync_event = None;
        out.finished_now = false;
        out.stall = None;
        if self.state == CoreState::Finished {
            return;
        }

        // 1. Back-end: commit from the instruction queue.
        let committed = self.commit();
        out.committed = committed;

        // 2. Fetch: move instructions from line buffers into the queue,
        //    issuing I-cache requests as needed.
        self.fetch(now, out);

        // 3. Fetch-block generation from the trace (one block per cycle).
        if self.state == CoreState::Running && now >= self.resteer_until && !self.ftq.is_full() {
            self.generate_fetch_block(now);
        }

        // 4. Drain / block transitions.
        if self.state == CoreState::Draining && self.is_drained() {
            if let Some(ev) = self.pending_sync.take() {
                out.sync_event = Some(ev);
                self.state = CoreState::Blocked;
            } else if self.trace_done {
                self.state = CoreState::Finished;
                out.finished_now = true;
            } else {
                // Nothing to wait for after all; resume.
                self.state = CoreState::Running;
            }
        }

        // 5. Stall attribution request (the machine maps it to a CPI bucket).
        if out.committed == 0 && self.state != CoreState::Finished {
            out.stall = Some(self.classify_stall(now));
        } else if out.committed > 0 {
            self.cpi.record_commit_cycle(out.committed);
        }
    }

    fn commit(&mut self) -> u32 {
        self.commit_credit =
            (self.commit_credit + self.commit_rate).min(self.config.commit_width as f64);
        // `as usize` truncates toward zero, which equals `floor()` for the
        // non-negative credit and avoids a libm call in the hottest loop.
        let possible = self.commit_credit as usize;
        let n = possible
            .min(self.iq_occupancy)
            .min(self.config.commit_width as usize);
        self.iq_occupancy -= n;
        self.commit_credit -= n as f64;
        n as u32
    }

    fn fetch(&mut self, now: u64, out: &mut CycleOutput) {
        self.fetch_head(now, out);
        self.fetch_lookahead(now, Some(out));
    }

    /// Advances the fetch block at the head of the FTQ: looks its line up in
    /// the line buffers, issues the I-cache request if needed, and streams
    /// instructions into the instruction queue once the line is resident.
    fn fetch_head(&mut self, now: u64, out: &mut CycleOutput) {
        let line_size = self.config.frontend.line_size;
        loop {
            match self.head_fetch {
                HeadFetch::Idle => {
                    let Some(head) = self.ftq.head() else { return };
                    if head.num_instrs == 0 {
                        self.ftq.pop();
                        continue;
                    }
                    let start = head.start;
                    match self.line_buffers.request(start, now) {
                        LineLookup::Hit => {
                            let line = start & !(line_size - 1);
                            let idx = self
                                .line_buffers
                                .index_of(line)
                                .expect("request() hit implies residency");
                            self.head_fetch = HeadFetch::Ready { line, idx };
                        }
                        LineLookup::Pending => {
                            self.head_fetch = HeadFetch::WaitFill(start & !(line_size - 1));
                        }
                        LineLookup::Miss => {
                            let line = start & !(line_size - 1);
                            if self.line_buffers.allocate(start, now) {
                                self.lookahead_dirty = true;
                                out.fetch_requests.push(line);
                                self.head_fetch = HeadFetch::WaitFill(line);
                            } else {
                                self.head_fetch = HeadFetch::WaitAlloc(line);
                            }
                        }
                    }
                    // Only one lookup transition per cycle.
                    if !matches!(self.head_fetch, HeadFetch::Ready { .. }) {
                        return;
                    }
                }
                HeadFetch::WaitAlloc(line) => {
                    if self.line_buffers.allocate(line, now) {
                        self.lookahead_dirty = true;
                        out.fetch_requests.push(line);
                        self.head_fetch = HeadFetch::WaitFill(line);
                    }
                    return;
                }
                HeadFetch::WaitFill(_) => {
                    // `deliver_line` advances to Ready when the fill lands.
                    return;
                }
                HeadFetch::Ready { line, idx } => {
                    // Keep the line being consumed most-recently-used so a
                    // lookahead prefetch never displaces it.
                    self.line_buffers.touch_at(idx, now);
                    self.deliver_from_line(line);
                    return;
                }
            }
        }
    }

    /// Issues I-cache requests for lines that queued fetch blocks will need
    /// soon, one request per free line buffer (each buffer tracks one
    /// outstanding request).  This is what lets the decoupled front-end hide
    /// the multi-cycle access latency of a *shared* I-cache: while the head
    /// block waits for its line, the next lines already ride the bus.
    ///
    /// The scan runs only when one of its inputs changed since the last scan
    /// that issued nothing; otherwise it would reach the same verdict.
    /// Returns whether a line issued (with `out`) or would issue (without).
    fn fetch_lookahead(&mut self, now: u64, out: Option<&mut CycleOutput>) -> bool {
        if !self.lookahead_dirty && self.line_buffers.victim_line() == self.lookahead_victim {
            debug_assert!(
                !self.scan_lookahead(now, None),
                "core {}: skipped a lookahead scan that would issue at cycle {now}",
                self.id
            );
            return false;
        }
        let issued = self.scan_lookahead(now, out);
        // A scan that issued stays armed: it may have more to issue.
        self.lookahead_dirty = issued;
        self.lookahead_victim = self.line_buffers.victim_line();
        issued
    }

    /// One lookahead scan over the FTQ window.  With `out` it allocates up
    /// to two missing lines and pushes their requests; without it, it
    /// changes nothing and only answers whether a line would issue.
    fn scan_lookahead(&mut self, now: u64, mut out: Option<&mut CycleOutput>) -> bool {
        const MAX_LOOKAHEAD_REQUESTS_PER_CYCLE: usize = 2;

        // Always leave one buffer free so the head block can never be
        // locked out by its own prefetches.
        let mut pending = self.line_buffers.pending_count();
        if pending + 1 >= self.line_buffers.len() {
            return false;
        }

        // Never displace a line the queued fetch blocks still need: a
        // prefetch that evicts sooner-needed code would be re-fetched and
        // waste bus bandwidth.  Probes do not move the victim, so while it
        // lies in the window the first missing line would stop the scan:
        // nothing can issue, and the probes are skipped.
        let victim = self.line_buffers.victim_line();

        // Candidate lines in program order over the queued fetch blocks.
        let line_size = self.config.frontend.line_size;
        let mut window = [0u64; MAX_LOOKAHEAD_LINES];
        let mut len = 0;
        'collect: for entry in self.ftq.iter() {
            if entry.num_instrs == 0 {
                continue;
            }
            let last = (entry.end().max(entry.start + 1) - 1) & !(line_size - 1);
            let mut line = entry.start & !(line_size - 1);
            loop {
                if Some(line) == victim {
                    return false;
                }
                window[len] = line;
                len += 1;
                if len == MAX_LOOKAHEAD_LINES {
                    break 'collect;
                }
                if line >= last {
                    break;
                }
                line += line_size;
            }
        }
        let window = &window[..len];
        let mut issued = 0;
        for &line in window {
            if issued == MAX_LOOKAHEAD_REQUESTS_PER_CYCLE || pending + 1 >= self.line_buffers.len()
            {
                break;
            }
            if self.line_buffers.probe(line) != LineLookup::Miss {
                continue;
            }
            // The previous allocation moved the victim.
            if issued > 0
                && self
                    .line_buffers
                    .victim_line()
                    .is_some_and(|v| window.contains(&v))
            {
                break;
            }
            let Some(out) = out.as_deref_mut() else {
                return true;
            };
            // A non-pending buffer exists (checked above), so this succeeds.
            let allocated = self.line_buffers.allocate(line, now);
            debug_assert!(allocated, "lookahead allocation with a free buffer failed");
            out.fetch_requests.push(line);
            issued += 1;
            pending += 1;
        }
        issued > 0
    }

    /// Classifies what the core would do over the next cycles, for the
    /// idle-skip scheduler.  Must be called right after [`Core::cycle`] for
    /// the same cycle number and only when that cycle committed nothing.
    ///
    /// The contract: while the returned state holds (until the `Until`
    /// cycle, or until a delivery/unblock for `Waiting`), ticking the core
    /// would commit nothing, issue no requests, emit no events and keep the
    /// same stall classification — except for the commit-credit refill and
    /// failed-allocation statistics, both reproduced exactly by
    /// [`Core::apply_parked_cycles`].
    pub fn park_state(&mut self, now: u64) -> Park {
        match self.state {
            CoreState::Finished | CoreState::Blocked => return Park::Waiting,
            CoreState::Running | CoreState::Draining => {}
        }
        if self.iq_occupancy > 0 {
            return Park::Active;
        }
        let gen_ready = self.state == CoreState::Running && !self.ftq.is_full();
        if gen_ready && now + 1 >= self.resteer_until {
            return Park::Active;
        }
        match self.head_fetch {
            HeadFetch::Ready { .. } => Park::Active,
            HeadFetch::Idle => {
                if !self.ftq.is_empty() {
                    Park::Active
                } else if gen_ready {
                    Park::Until(self.resteer_until)
                } else if now < self.resteer_until {
                    // The stall classification flips from mispredict
                    // recovery to sync when the penalty elapses; wake there
                    // so the scheduler re-freezes the attribution.
                    Park::Until(self.resteer_until)
                } else {
                    Park::Waiting
                }
            }
            HeadFetch::WaitFill(_) | HeadFetch::WaitAlloc(_) => {
                // The next cycle's head step changes nothing here (a fill is
                // an external event), so its lookahead sees today's inputs.
                if self.fetch_lookahead(now, None) {
                    Park::Active
                } else if gen_ready {
                    Park::Until(self.resteer_until)
                } else {
                    Park::Waiting
                }
            }
        }
    }

    /// Replays `span` parked cycles' worth of internal bookkeeping in O(1)
    /// per effect: the commit-credit refill (which saturates at the commit
    /// width) and, when the head block is waiting for a buffer, the failed
    /// allocation retry each skipped cycle would have recorded.
    pub fn apply_parked_cycles(&mut self, span: u64) {
        let width = self.config.commit_width as f64;
        for _ in 0..span {
            let next = (self.commit_credit + self.commit_rate).min(width);
            if next == self.commit_credit {
                break;
            }
            self.commit_credit = next;
        }
        if matches!(self.head_fetch, HeadFetch::WaitAlloc(_)) {
            self.line_buffers.note_allocation_stalls(span);
        }
    }

    /// Moves instructions of the head fetch block that live in `line` into
    /// the instruction queue, limited by the fetch width and queue space.
    fn deliver_from_line(&mut self, line: u64) {
        let line_size = self.config.frontend.line_size;
        let fetch_width = self.config.frontend.fetch_width as usize;
        let space = self.config.frontend.instr_queue_capacity - self.iq_occupancy;
        if space == 0 {
            return;
        }
        let Some(head) = self.ftq.head_mut() else {
            return;
        };

        let avg_size = (head.len_bytes / head.num_instrs.max(1)).max(1) as u64;
        let bytes_left_in_line = (line + line_size).saturating_sub(head.start);
        let instrs_in_line = (bytes_left_in_line / avg_size).max(1) as usize;
        let take = fetch_width
            .min(space)
            .min(instrs_in_line)
            .min(head.num_instrs as usize);

        head.num_instrs -= take as u32;
        let bytes = (take as u64 * avg_size).min(head.len_bytes as u64) as u32;
        head.len_bytes -= bytes;
        head.start += bytes as u64;
        self.iq_occupancy += take;

        let block_done = head.num_instrs == 0;
        let crossed_line = head.start >= line + line_size;
        if block_done {
            self.ftq.pop();
        }
        // The lookahead window is line-granular: it only changes when the
        // head leaves its line or its block.
        if block_done || crossed_line {
            self.head_fetch = HeadFetch::Idle;
            self.lookahead_dirty = true;
        }
    }

    /// Assembles one fetch block from the trace and pushes it into the FTQ.
    fn generate_fetch_block(&mut self, now: u64) {
        let max_bytes = self.config.frontend.max_fetch_block_bytes;

        let mut start: Option<u64> = None;
        let mut next_addr: u64 = 0;
        let mut len_bytes: u32 = 0;
        let mut num_instrs: u32 = 0;
        let mut mispredicted = false;

        loop {
            let rec = match self.pushback.take() {
                Some(r) => Some(r),
                None => self.next_trace_record(),
            };
            let Some(rec) = rec else {
                self.trace_done = true;
                self.state = CoreState::Draining;
                break;
            };
            match rec {
                TraceRecord::SetIpc { ipc } => {
                    // Commit-rate changes take effect immediately; they sit
                    // at region boundaries in the traces.
                    self.commit_rate = ipc;
                    if start.is_some() {
                        break;
                    }
                    continue;
                }
                TraceRecord::Sync(ev) => {
                    self.pending_sync = Some(ev);
                    self.state = CoreState::Draining;
                    break;
                }
                TraceRecord::Instr { addr, len } => {
                    let a = addr.raw();
                    if let Some(_s) = start {
                        if a != next_addr {
                            // Discontinuity: close the block, keep the record.
                            self.pushback = Some(rec);
                            break;
                        }
                    } else {
                        start = Some(a);
                    }
                    len_bytes += len as u32;
                    num_instrs += 1;
                    next_addr = a + len as u64;
                    if len_bytes >= max_bytes {
                        break;
                    }
                }
                TraceRecord::Branch { addr, len, info } => {
                    let a = addr.raw();
                    if let Some(_s) = start {
                        if a != next_addr {
                            self.pushback = Some(rec);
                            break;
                        }
                    } else {
                        start = Some(a);
                    }
                    len_bytes += len as u32;
                    num_instrs += 1;
                    next_addr = a + len as u64;

                    let resteer = self.predictor.predict_and_train(
                        a,
                        info.taken,
                        info.target.raw(),
                        info.indirect,
                    );
                    if resteer {
                        mispredicted = true;
                        break;
                    }
                    if info.taken || len_bytes >= max_bytes {
                        break;
                    }
                }
            }
        }

        if let Some(s) = start {
            debug_assert!(num_instrs > 0);
            self.ftq.push(FtqEntry {
                start: s,
                len_bytes,
                num_instrs,
                ends_in_mispredict: mispredicted,
            });
            self.fetch_blocks += 1;
            self.lookahead_dirty = true;
        }
        if mispredicted {
            self.resteer_until = now + self.config.frontend.mispredict_penalty;
        }
    }

    /// Pulls the next record through the batch buffer.
    fn next_trace_record(&mut self) -> Option<TraceRecord> {
        const TRACE_BATCH: usize = 64;
        if self.trace_pos == self.trace_buf.len() {
            self.trace_buf.clear();
            self.trace_pos = 0;
            acmp_obs::count_trace_refill();
            if self.trace.next_records(&mut self.trace_buf, TRACE_BATCH) == 0 {
                return None;
            }
        }
        let r = self.trace_buf[self.trace_pos];
        self.trace_pos += 1;
        Some(r)
    }

    fn is_drained(&self) -> bool {
        self.iq_occupancy == 0
            && self.ftq.is_empty()
            && matches!(self.head_fetch, HeadFetch::Idle)
            && self.line_buffers.pending_count() == 0
    }

    fn classify_stall(&self, now: u64) -> StallReason {
        match self.state {
            CoreState::Blocked => StallReason::SyncBlocked,
            CoreState::Draining if self.is_drained() => StallReason::SyncBlocked,
            _ => match self.head_fetch {
                HeadFetch::WaitFill(line) | HeadFetch::WaitAlloc(line) => {
                    StallReason::WaitingForLine(line)
                }
                _ if now < self.resteer_until => StallReason::MispredictRecovery,
                _ => {
                    if self.state == CoreState::Draining || self.state == CoreState::Blocked {
                        StallReason::SyncBlocked
                    } else {
                        StallReason::Other
                    }
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpi::StallKind;
    use sim_trace::TraceBuilder;

    /// Runs a core against a "perfect" memory that answers every fetch
    /// request `latency` cycles later.  Returns (cycles, core).
    fn run_with_fixed_latency(
        config: CoreConfig,
        trace: sim_trace::ThreadTrace,
        latency: u64,
        max_cycles: u64,
    ) -> (u64, Core) {
        let mut core = Core::new(0, config, Box::new(trace.into_source()));
        let mut in_flight: Vec<(u64, u64)> = Vec::new(); // (ready_cycle, line)
        let mut cycle = 0;
        while !core.is_finished() && cycle < max_cycles {
            // Deliver lines that are ready.
            let (ready, rest): (Vec<_>, Vec<_>) = in_flight.iter().partition(|(c, _)| *c <= cycle);
            in_flight = rest;
            for (_, line) in ready {
                core.deliver_line(line, cycle);
            }
            let out = core.cycle(cycle);
            for line in &out.fetch_requests {
                in_flight.push((cycle + latency, *line));
            }
            if let Some(reason) = out.stall {
                let kind = match reason {
                    StallReason::WaitingForLine(_) => StallKind::IcacheLatency,
                    StallReason::MispredictRecovery => StallKind::BranchMiss,
                    StallReason::SyncBlocked => StallKind::Sync,
                    StallReason::Other => StallKind::Other,
                };
                core.cpi_mut().record_stall(kind);
            }
            // A lone core: immediately release any sync event it reports.
            if out.sync_event.is_some() {
                core.unblock();
            }
            cycle += 1;
        }
        (cycle, core)
    }

    fn loop_trace(iters: u32, body_instrs: u32, ipc: f64) -> sim_trace::ThreadTrace {
        let mut b = TraceBuilder::new(0);
        b.set_ipc(ipc);
        for _ in 0..iters {
            b.basic_block(0x1000, body_instrs, 0x1000, true);
        }
        b.finish()
    }

    #[test]
    fn executes_all_instructions_of_a_loop() {
        let trace = loop_trace(200, 16, 1.0);
        let expected = trace.num_instructions();
        let (cycles, core) = run_with_fixed_latency(CoreConfig::worker(), trace, 2, 100_000);
        assert!(
            core.is_finished(),
            "core should finish within the cycle budget"
        );
        assert_eq!(core.instructions(), expected);
        assert!(
            cycles >= expected,
            "IPC 1.0 cannot exceed 1 instruction per cycle"
        );
    }

    #[test]
    fn ipc_close_to_commit_rate_when_frontend_keeps_up() {
        // A small hot loop entirely captured by the line buffers: the only
        // limit should be the back-end commit rate.
        let trace = loop_trace(2000, 16, 1.0);
        let expected = trace.num_instructions();
        let (cycles, core) = run_with_fixed_latency(CoreConfig::worker(), trace, 2, 200_000);
        assert!(core.is_finished());
        let ipc = expected as f64 / cycles as f64;
        assert!(
            ipc > 0.85,
            "a cached loop at commit rate 1.0 should achieve IPC near 1.0, got {ipc:.3}"
        );
    }

    #[test]
    fn higher_commit_rate_finishes_faster() {
        let t1 = loop_trace(1000, 16, 0.5);
        let t2 = loop_trace(1000, 16, 2.0);
        let (slow, _) = run_with_fixed_latency(CoreConfig::worker(), t1, 2, 400_000);
        let (fast, _) = run_with_fixed_latency(CoreConfig::worker(), t2, 2, 400_000);
        assert!(
            fast * 2 < slow,
            "IPC 2.0 should be at least twice as fast as IPC 0.5 (fast={fast}, slow={slow})"
        );
    }

    #[test]
    fn long_memory_latency_creates_icache_stalls() {
        // A loop much larger than the line buffers forces repeated I-cache
        // requests; with a big latency the core must accumulate stalls.
        let mut b = TraceBuilder::new(0);
        b.set_ipc(2.0);
        for _ in 0..50 {
            // 1024-instruction loop body = 4 KB = 64 lines >> 4 line buffers.
            b.basic_block(0x1_0000, 1024, 0x1_0000, true);
        }
        let trace = b.finish();
        let (_c_fast, core_fast) =
            run_with_fixed_latency(CoreConfig::worker(), trace.clone(), 1, 1_000_000);
        let (_c_slow, core_slow) =
            run_with_fixed_latency(CoreConfig::worker(), trace, 20, 1_000_000);
        assert!(core_fast.is_finished() && core_slow.is_finished());
        assert!(
            core_slow.cpi().icache_latency > core_fast.cpi().icache_latency,
            "longer fill latency must show up as I-cache stall cycles"
        );
        assert!(core_slow.cpi().cpi() > core_fast.cpi().cpi());
    }

    #[test]
    fn small_loop_has_low_icache_access_ratio() {
        // 16 instructions * 4 B = 64 B = 1 line: after the first iteration
        // everything streams from the line buffers.
        let trace = loop_trace(500, 16, 1.0);
        let (_cycles, core) = run_with_fixed_latency(CoreConfig::worker(), trace, 2, 200_000);
        let ratio = core.line_buffer_stats().access_ratio();
        assert!(
            ratio < 0.05,
            "a one-line loop should almost never access the I-cache, ratio={ratio:.3}"
        );
    }

    #[test]
    fn large_loop_has_high_icache_access_ratio() {
        let mut b = TraceBuilder::new(0);
        b.set_ipc(1.0);
        for _ in 0..50 {
            // 2048 instructions = 8 KB = 128 lines >> 4 line buffers.
            b.basic_block(0x2_0000, 2048, 0x2_0000, true);
        }
        let (_cycles, core) =
            run_with_fixed_latency(CoreConfig::worker(), b.finish(), 1, 2_000_000);
        let ratio = core.line_buffer_stats().access_ratio();
        assert!(
            ratio > 0.8,
            "a loop far larger than the line buffers must fetch almost every line from the I-cache, ratio={ratio:.3}"
        );
    }

    #[test]
    fn more_line_buffers_reduce_access_ratio_for_medium_loops() {
        // A 6-line loop body: fits in 8 buffers, thrashes 2 buffers.
        let mk = || {
            let mut b = TraceBuilder::new(0);
            b.set_ipc(1.0);
            for _ in 0..300 {
                b.basic_block(0x3_0000, 96, 0x3_0000, true); // 96*4B = 384B = 6 lines
            }
            b.finish()
        };
        let (_c, few) = run_with_fixed_latency(
            CoreConfig::worker().with_line_buffers(2),
            mk(),
            2,
            2_000_000,
        );
        let (_c, many) = run_with_fixed_latency(
            CoreConfig::worker().with_line_buffers(8),
            mk(),
            2,
            2_000_000,
        );
        let r_few = few.line_buffer_stats().access_ratio();
        let r_many = many.line_buffer_stats().access_ratio();
        assert!(
            r_many < r_few * 0.5,
            "8 line buffers should cut the access ratio for a 6-line loop: few={r_few:.3}, many={r_many:.3}"
        );
    }

    #[test]
    fn sync_event_is_reported_and_blocks_until_released() {
        let mut b = TraceBuilder::new(0);
        b.set_ipc(1.0);
        b.basic_block(0x1000, 8, 0x2000, true);
        b.sync(SyncEvent::Barrier { id: 1 });
        b.basic_block(0x2000, 8, 0x3000, true);
        let mut core = Core::new(3, CoreConfig::worker(), Box::new(b.finish().into_source()));

        let mut saw_event = false;
        let mut pending: Vec<(u64, u64)> = Vec::new();
        for cycle in 0..200 {
            let (ready, rest): (Vec<_>, Vec<_>) = pending.iter().partition(|(c, _)| *c <= cycle);
            pending = rest;
            for (_, l) in ready {
                core.deliver_line(l, cycle);
            }
            let out = core.cycle(cycle);
            for l in &out.fetch_requests {
                pending.push((cycle + 2, *l));
            }
            if let Some(ev) = out.sync_event {
                assert_eq!(ev, SyncEvent::Barrier { id: 1 });
                saw_event = true;
                assert_eq!(core.state(), CoreState::Blocked);
                // Hold the core blocked for a while before releasing it.
                assert_eq!(core.cycle(cycle + 1).committed, 0);
                core.unblock();
            }
        }
        assert!(saw_event, "the barrier must be reported");
        assert!(
            core.is_finished(),
            "the core must finish after being released"
        );
        assert_eq!(core.instructions(), 16);
    }

    #[test]
    fn mispredictions_cause_branch_stalls() {
        // Branches with pseudo-random outcomes are unpredictable; the
        // misprediction penalty must appear in the CPI stack.
        let mut b = TraceBuilder::new(0);
        b.set_ipc(2.0);
        let mut x: u64 = 99;
        let mut addr = 0x4_0000u64;
        for _ in 0..2000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let taken = (x >> 40) & 1 == 1;
            // Short basic blocks of 4 instructions each.
            for i in 0..3 {
                b.instr(addr + i * 4, 4);
            }
            let target = if taken { addr + 64 } else { addr + 16 };
            b.branch(addr + 12, 4, target, taken);
            addr = target;
        }
        let (_cycles, core) =
            run_with_fixed_latency(CoreConfig::worker(), b.finish(), 1, 2_000_000);
        assert!(core.is_finished());
        assert!(
            core.cpi().branch_miss > 500,
            "random branches must cost resteer cycles, got {}",
            core.cpi().branch_miss
        );
        assert!(core.predictor_stats().mispredicts() > 100);
    }

    #[test]
    fn commit_rate_is_capped_by_commit_width() {
        let mut cfg = CoreConfig::worker();
        cfg.default_ipc = 8.0; // higher than the commit width of 2
        let trace = loop_trace(500, 16, 8.0);
        let expected = trace.num_instructions();
        let (cycles, core) = run_with_fixed_latency(cfg, trace, 1, 100_000);
        assert!(core.is_finished());
        assert!(
            cycles as f64 >= expected as f64 / 2.0,
            "IPC cannot exceed the commit width of 2"
        );
    }

    #[test]
    fn finished_core_does_nothing() {
        let trace = loop_trace(2, 4, 1.0);
        let (_c, mut core) = run_with_fixed_latency(CoreConfig::worker(), trace, 1, 10_000);
        assert!(core.is_finished());
        let out = core.cycle(999_999);
        assert_eq!(out.committed, 0);
        assert!(out.fetch_requests.is_empty());
        assert!(out.stall.is_none());
    }

    #[test]
    #[should_panic(expected = "unblocked while")]
    fn unblocking_a_running_core_panics() {
        let trace = loop_trace(2, 4, 1.0);
        let mut core = Core::new(0, CoreConfig::worker(), Box::new(trace.into_source()));
        core.unblock();
    }

    #[test]
    fn fetch_blocks_are_counted() {
        let trace = loop_trace(10, 16, 1.0);
        let (_c, core) = run_with_fixed_latency(CoreConfig::worker(), trace, 1, 10_000);
        assert_eq!(
            core.fetch_blocks(),
            10,
            "one fetch block per loop iteration"
        );
    }
}
