//! The cycle-level core model.

use crate::config::CoreConfig;
use crate::cpi::CpiStack;
use crate::stream::{FetchStream, StepStop};
use sim_frontend::{Ftq, LineBufferFile, LineBufferStats, LineLookup};
use sim_trace::SyncEvent;
use std::sync::Arc;

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

/// Why the last lookahead scan issued nothing.  Each reason names the only
/// events that can make a rescan issue; until one of them happens the scan
/// is skipped (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LookaheadStop {
    /// The last scan issued, or an input it depends on changed since: scan.
    Armed,
    /// All buffers but one were pending.  Only a fill lowers that count.
    PendingCap,
    /// This line, the LRU victim, lies in the FTQ window, so no prefetch may
    /// evict it.  Holds while it stays the victim and stays in the window.
    VictimInWindow(u64),
    /// No window line was missing.  Holds until a line joins the window or
    /// a buffer is reallocated.
    NoMiss,
}

/// A simulated core.
pub struct Core {
    id: usize,
    config: CoreConfig,
    /// The thread's decoded fetch steps, and the index of the next one.
    stream: Arc<FetchStream>,
    next_step: usize,
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

    cpi: CpiStack,
    fetch_blocks: u64,

    /// Why the last lookahead scan issued nothing, or `Armed`.
    lookahead: LookaheadStop,
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
    /// Creates a core with identifier `id` replaying `stream`, which other
    /// cores may share.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid, or if `stream` was decoded
    /// for another predictor configuration or fetch-block cap than this
    /// core's front end.
    pub fn with_stream(id: usize, config: CoreConfig, stream: Arc<FetchStream>) -> Self {
        config.validate();
        assert!(
            stream.decoded_for(&config.frontend),
            "core {id}: fetch stream decoded for another predictor or fetch-block cap"
        );
        Core {
            id,
            config,
            stream,
            next_step: 0,
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
            cpi: CpiStack::new(),
            fetch_blocks: 0,
            lookahead: LookaheadStop::Armed,
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
    #[inline]
    pub fn state(&self) -> CoreState {
        self.state
    }

    /// The CPI stack accumulated so far.
    pub fn cpi(&self) -> &CpiStack {
        &self.cpi
    }

    /// Mutable access to the CPI stack, used by the machine model to record
    /// memory-side stall attributions.
    #[inline]
    pub fn cpi_mut(&mut self) -> &mut CpiStack {
        &mut self.cpi
    }

    /// Line-buffer statistics (the paper's I-cache access ratio).
    pub fn line_buffer_stats(&self) -> &LineBufferStats {
        self.line_buffers.stats()
    }

    /// Branch predictor statistics over the core's whole trace.
    pub fn predictor_stats(&self) -> &sim_frontend::PredictorStats {
        self.stream.predictor_stats()
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
    #[inline]
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
    #[inline]
    pub fn deliver_line(&mut self, addr: u64, now: u64) {
        if self.line_buffers.fill(addr, now) {
            // A pending line turning valid lowers the pending count but
            // makes no window line missing; a new victim is caught by the
            // victim compare.
            if self.lookahead == LookaheadStop::PendingCap {
                self.lookahead = LookaheadStop::Armed;
            }
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

        // 3. Fetch-block generation (one step of the stream per cycle).
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
        // The credit lies in [0, commit width], so truncating it to `u32`
        // equals `floor()` (no libm call, no 64-bit saturation fix-ups) and
        // already caps the count at the commit width.
        let n = (self.commit_credit as u32 as usize).min(self.iq_occupancy);
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
                                self.lookahead = LookaheadStop::Armed;
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
                        self.lookahead = LookaheadStop::Armed;
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
    /// The scan runs only when an event its last stop depends on happened
    /// since; otherwise it would reach the same verdict.  Returns whether a
    /// line issued (with `out`) or would issue (without).
    #[inline]
    fn fetch_lookahead(&mut self, now: u64, out: Option<&mut CycleOutput>) -> bool {
        let skip = match self.lookahead {
            LookaheadStop::Armed => false,
            LookaheadStop::VictimInWindow(victim) => {
                self.line_buffers.victim_line() == Some(victim)
            }
            LookaheadStop::PendingCap | LookaheadStop::NoMiss => true,
        };
        if skip {
            debug_assert!(
                self.scan_lookahead(now, None) != LookaheadStop::Armed,
                "core {}: skipped a lookahead scan that would issue at cycle {now}",
                self.id
            );
            return false;
        }
        // A scan that issued stays armed: it may have more to issue.
        self.lookahead = self.scan_lookahead(now, out);
        self.lookahead == LookaheadStop::Armed
    }

    /// One lookahead scan over the FTQ window.  With `out` it allocates up
    /// to two missing lines and pushes their requests; without it, it
    /// changes nothing and only answers whether a line would issue.
    /// Returns `Armed` if a line issued (or would), else why none did.
    #[inline(never)]
    fn scan_lookahead(&mut self, now: u64, mut out: Option<&mut CycleOutput>) -> LookaheadStop {
        const MAX_LOOKAHEAD_REQUESTS_PER_CYCLE: usize = 2;

        // Always leave one buffer free so the head block can never be
        // locked out by its own prefetches.
        let mut pending = self.line_buffers.pending_count();
        if pending + 1 >= self.line_buffers.len() {
            return LookaheadStop::PendingCap;
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
                    return LookaheadStop::VictimInWindow(line);
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
                return LookaheadStop::Armed;
            };
            // A non-pending buffer exists (checked above), so this succeeds.
            let allocated = self.line_buffers.allocate(line, now);
            debug_assert!(allocated, "lookahead allocation with a free buffer failed");
            out.fetch_requests.push(line);
            issued += 1;
            pending += 1;
        }
        // With nothing issued, the loop ran out of window: no line missed.
        if issued > 0 {
            LookaheadStop::Armed
        } else {
            LookaheadStop::NoMiss
        }
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
    #[inline]
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
        // The lookahead window is line-granular: it only changes when the
        // head leaves its line or its block.
        if !(block_done || crossed_line) {
            return;
        }
        // The lines from `line` up to `left_end` leave the window: those
        // before the head's new line, or all the block's remaining lines
        // when it is done.
        let left_end = if block_done {
            head.end()
        } else {
            head.start & !(line_size - 1)
        };
        if block_done {
            self.ftq.pop();
        }
        self.head_fetch = HeadFetch::Idle;
        self.lookahead = match self.lookahead {
            LookaheadStop::VictimInWindow(victim) if victim < line || victim >= left_end => {
                LookaheadStop::VictimInWindow(victim)
            }
            LookaheadStop::PendingCap => LookaheadStop::PendingCap,
            _ => LookaheadStop::Armed,
        };
    }

    /// Takes the thread's next fetch step: applies its commit-rate change,
    /// pushes its fetch block into the FTQ (starting the resteer penalty
    /// after a mispredicted branch) and starts draining at a sync event or
    /// the end of the trace.
    fn generate_fetch_block(&mut self, now: u64) {
        let step = self.stream.steps()[self.next_step];
        self.next_step += 1;
        if let Some(ipc) = step.ipc {
            self.commit_rate = ipc;
        }
        if let Some(block) = step.block {
            self.ftq.push(block);
            self.fetch_blocks += 1;
            // New lines join the window's tail: a victim in the window stays
            // there and the pending count is unchanged.
            if self.lookahead == LookaheadStop::NoMiss {
                self.lookahead = LookaheadStop::Armed;
            }
            if block.ends_in_mispredict {
                self.resteer_until = now + self.config.frontend.mispredict_penalty;
            }
        }
        match step.stop {
            Some(StepStop::Sync(ev)) => {
                self.pending_sync = Some(ev);
                self.state = CoreState::Draining;
            }
            Some(StepStop::TraceEnd) => {
                self.trace_done = true;
                self.state = CoreState::Draining;
            }
            None => {}
        }
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
    use sim_frontend::FtqEntry;
    use sim_trace::{ThreadTrace, TraceBuilder};

    /// A core replaying `trace`, decoded for the core's own front end.
    fn core_over(id: usize, config: CoreConfig, trace: ThreadTrace) -> Core {
        let stream = FetchStream::decode(trace, &config.frontend);
        Core::with_stream(id, config, Arc::new(stream))
    }

    /// Runs a core against a "perfect" memory that answers every fetch
    /// request `latency` cycles later.  Returns (cycles, core).
    fn run_with_fixed_latency(
        config: CoreConfig,
        trace: ThreadTrace,
        latency: u64,
        max_cycles: u64,
    ) -> (u64, Core) {
        let mut core = core_over(0, config, trace);
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

    fn loop_trace(iters: u32, body_instrs: u32, ipc: f64) -> ThreadTrace {
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
        let mut core = core_over(3, CoreConfig::worker(), b.finish());

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
        let mut core = core_over(0, CoreConfig::worker(), trace);
        core.unblock();
    }

    #[test]
    #[should_panic(expected = "fetch stream decoded for another")]
    fn a_stream_decoded_with_another_block_cap_is_refused() {
        let mut frontend = CoreConfig::worker().frontend;
        frontend.max_fetch_block_bytes = 128;
        let stream = FetchStream::decode(loop_trace(2, 4, 1.0), &frontend);
        Core::with_stream(0, CoreConfig::worker(), Arc::new(stream));
    }

    /// A core whose stream yields one 64-byte block at `0x8000` per step.
    /// The stop-rule tests below build its FTQ and line buffers by hand.
    fn bare_core(config: CoreConfig) -> Core {
        let mut b = TraceBuilder::new(0);
        b.set_ipc(1.0);
        for _ in 0..4 {
            b.basic_block(0x8000, 16, 0x8000, true);
        }
        core_over(0, config, b.finish())
    }

    fn block(start: u64, len_bytes: u32, num_instrs: u32) -> FtqEntry {
        FtqEntry {
            start,
            len_bytes,
            num_instrs,
            ends_in_mispredict: false,
        }
    }

    /// Makes `line` resident in a line buffer last used at cycle `at`.
    fn make_resident(core: &mut Core, line: u64, at: u64) {
        assert!(core.line_buffers.allocate(line, at));
        assert!(core.line_buffers.fill(line, at));
    }

    /// Puts the head on its resident `line`, delivering from it.
    fn head_on(core: &mut Core, line: u64) {
        let idx = core
            .line_buffers
            .index_of(line)
            .expect("head line resident");
        core.head_fetch = HeadFetch::Ready { line, idx };
    }

    /// Runs the lookahead at `now`, returning the lines it requested.
    fn lookahead(core: &mut Core, now: u64) -> Vec<u64> {
        let mut out = CycleOutput::default();
        core.fetch_lookahead(now, Some(&mut out));
        out.fetch_requests
    }

    #[test]
    fn a_victim_in_window_stop_survives_a_push_and_a_fill() {
        let mut core = bare_core(CoreConfig::worker());
        make_resident(&mut core, 0x1000, 1);
        make_resident(&mut core, 0x1040, 2);
        make_resident(&mut core, 0x1080, 3);
        assert!(core.line_buffers.allocate(0x2000, 4));
        core.ftq.push(block(0x1000, 192, 48));
        core.ftq.push(block(0x4000, 64, 16));
        assert!(lookahead(&mut core, 5).is_empty());
        assert_eq!(core.lookahead, LookaheadStop::VictimInWindow(0x1000));

        core.generate_fetch_block(6);
        assert_eq!(core.ftq.len(), 3, "the stream pushed its block");
        assert_eq!(core.lookahead, LookaheadStop::VictimInWindow(0x1000));
        core.deliver_line(0x2000, 7);
        assert_eq!(core.lookahead, LookaheadStop::VictimInWindow(0x1000));
        assert!(lookahead(&mut core, 8).is_empty());
        assert_eq!(
            core.scan_lookahead(8, None),
            LookaheadStop::VictimInWindow(0x1000)
        );
    }

    #[test]
    fn the_head_leaving_a_line_other_than_the_victim_keeps_the_stop() {
        let mut core = bare_core(CoreConfig::worker());
        make_resident(&mut core, 0x1000, 1);
        make_resident(&mut core, 0x1040, 2);
        make_resident(&mut core, 0x1080, 3);
        assert!(core.line_buffers.allocate(0x2000, 4));
        // The head block's last two instructions in 0x1040 cross into 0x1080.
        core.ftq.push(block(0x1078, 40, 10));
        core.ftq.push(block(0x1000, 64, 16));
        core.ftq.push(block(0x4000, 64, 16));
        head_on(&mut core, 0x1040);
        assert!(lookahead(&mut core, 5).is_empty());
        assert_eq!(core.lookahead, LookaheadStop::VictimInWindow(0x1000));

        core.fetch_head(6, &mut CycleOutput::default());
        assert_eq!(core.head_fetch, HeadFetch::Idle, "the head left 0x1040");
        assert_eq!(core.lookahead, LookaheadStop::VictimInWindow(0x1000));
        assert!(lookahead(&mut core, 6).is_empty());
    }

    #[test]
    fn the_victims_line_leaving_with_the_head_block_rearms_the_scan() {
        // The master core delivers all 3 instructions of a block that ends
        // 2 bytes into 0x1040 (11 bytes at an average size of 3), so the
        // block completes in 0x1000 and takes the victim 0x1040 out of the
        // window with it.
        let mut core = bare_core(CoreConfig::master());
        make_resident(&mut core, 0x1040, 1);
        make_resident(&mut core, 0x1000, 2);
        make_resident(&mut core, 0x3000, 3);
        assert!(core.line_buffers.allocate(0x2000, 4));
        core.ftq.push(block(0x1036, 11, 3));
        core.ftq.push(block(0x4000, 64, 16));
        head_on(&mut core, 0x1000);
        assert!(lookahead(&mut core, 5).is_empty());
        assert_eq!(core.lookahead, LookaheadStop::VictimInWindow(0x1040));

        core.fetch_head(6, &mut CycleOutput::default());
        assert_eq!(core.ftq.len(), 1, "the head block is done");
        assert_eq!(core.line_buffers.victim_line(), Some(0x1040));
        assert_eq!(core.lookahead, LookaheadStop::Armed);
        assert_eq!(lookahead(&mut core, 6), vec![0x4000]);
    }

    #[test]
    fn a_fill_rearms_a_pending_cap_stop() {
        let mut core = bare_core(CoreConfig::worker());
        make_resident(&mut core, 0x3000, 0);
        for line in [0x1000, 0x1040, 0x1080] {
            assert!(core.line_buffers.allocate(line, 1));
        }
        core.ftq.push(block(0x4000, 64, 16));
        assert!(lookahead(&mut core, 2).is_empty());
        assert_eq!(core.lookahead, LookaheadStop::PendingCap);

        core.generate_fetch_block(3);
        assert_eq!(core.lookahead, LookaheadStop::PendingCap);
        core.deliver_line(0x1000, 4);
        assert_eq!(core.lookahead, LookaheadStop::Armed);
        assert_eq!(lookahead(&mut core, 4), vec![0x4000]);
    }

    #[test]
    fn a_push_rearms_a_no_miss_stop() {
        let mut core = bare_core(CoreConfig::worker());
        make_resident(&mut core, 0x3000, 0);
        make_resident(&mut core, 0x1000, 1);
        make_resident(&mut core, 0x1040, 2);
        make_resident(&mut core, 0x1080, 3);
        core.ftq.push(block(0x1000, 192, 48));
        assert!(lookahead(&mut core, 4).is_empty());
        assert_eq!(core.lookahead, LookaheadStop::NoMiss);

        core.generate_fetch_block(5);
        assert_eq!(core.lookahead, LookaheadStop::Armed);
        assert_eq!(lookahead(&mut core, 5), vec![0x8000]);
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
