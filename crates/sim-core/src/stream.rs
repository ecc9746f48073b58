//! Fetch-step streams: a thread's trace decoded once into what its core's
//! fetch predictor produces, so many machines can replay it.
//!
//! A core assembles at most one fetch block per cycle.  Which block it
//! assembles, whether the branch ending it was mispredicted and where the
//! commit rate changes depend only on the thread's records, the predictor
//! configuration and the fetch-block size cap — never on the memory system,
//! the line buffers or timing.  A [`StreamDecoder`] runs that assembly as
//! the records arrive, so a trace need not be kept to be decoded: a
//! generator writes into it as into any [`RecordSink`], and
//! [`FetchStream::decode`] feeds it a materialised trace.  A
//! [`Core`](crate::Core) then applies one step in each cycle it would have
//! assembled a block.  Every design point of a sweep that shares the
//! predictor and the cap replays the same stream.

use sim_frontend::{FetchPredictor, FrontEndConfig, FtqEntry, PredictorConfig, PredictorStats};
use sim_trace::{RecordSink, SyncEvent, TraceRecord};

/// Where one call of fetch-block assembly stopped, when it stopped for
/// something other than a block boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StepStop {
    /// The thread reached a synchronisation event; the core drains and
    /// reports it.
    Sync(SyncEvent),
    /// The trace ended; the core drains and finishes.
    TraceEnd,
}

/// What one call of fetch-block assembly consumed and produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct FetchStep {
    /// The last commit-rate change the call consumed.
    pub(crate) ipc: Option<f64>,
    /// The fetch block the call pushes into the FTQ.
    pub(crate) block: Option<FtqEntry>,
    /// Set when the call stopped at a sync event or the end of the trace.
    pub(crate) stop: Option<StepStop>,
}

/// The commit-rate change and the stop of one step, kept only for the
/// steps that have either.
#[derive(Debug, Clone, Copy, PartialEq)]
struct StepMark {
    step: usize,
    ipc: Option<f64>,
    stop: Option<StepStop>,
}

/// The stored block of a step that pushes none.
const NO_BLOCK: FtqEntry = FtqEntry {
    start: 0,
    len_bytes: 0,
    num_instrs: 0,
    ends_in_mispredict: false,
};

/// One thread's trace as the sequence of fetch steps its core takes.
///
/// Each step is stored as the FTQ entry it pushes (24 bytes), where an
/// entry of zero instructions means the step pushes no block.  The few
/// steps that change the commit rate or stop are listed apart, in step
/// order.  The last step always stops at the end of the trace.
#[derive(Debug, PartialEq)]
pub struct FetchStream {
    blocks: Vec<FtqEntry>,
    marks: Vec<StepMark>,
    predictor_stats: PredictorStats,
    predictor: PredictorConfig,
    max_fetch_block_bytes: u32,
}

/// A core's place in a [`FetchStream`]: its next step, and the first mark
/// at or after that step.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct StepCursor {
    step: usize,
    mark: usize,
}

impl FetchStream {
    /// Decodes `records` (one thread, in program order) with a fresh fetch
    /// predictor and the fetch-block cap of `frontend`.
    ///
    /// # Panics
    ///
    /// Panics if the predictor configuration is invalid.
    pub fn decode(
        records: impl IntoIterator<Item = TraceRecord>,
        frontend: &FrontEndConfig,
    ) -> Self {
        let mut decoder = StreamDecoder::new(frontend);
        for record in records {
            decoder.push(record);
        }
        decoder.finish()
    }

    /// The step at `cursor`, which moves past it.  The caller takes no
    /// step after the one that stops at the end of the trace.
    #[inline]
    pub(crate) fn next_step(&self, cursor: &mut StepCursor) -> FetchStep {
        let block = self.blocks[cursor.step];
        let mut step = FetchStep {
            ipc: None,
            block: (block.num_instrs > 0).then_some(block),
            stop: None,
        };
        if let Some(mark) = self.marks.get(cursor.mark) {
            if mark.step == cursor.step {
                step.ipc = mark.ipc;
                step.stop = mark.stop;
                cursor.mark += 1;
            }
        }
        cursor.step += 1;
        step
    }

    /// The predictor's statistics over the whole trace.
    pub fn predictor_stats(&self) -> &PredictorStats {
        &self.predictor_stats
    }

    /// Whether a core with `frontend` produces exactly these steps: it has
    /// the predictor configuration and fetch-block cap this stream was
    /// decoded with.
    pub fn decoded_for(&self, frontend: &FrontEndConfig) -> bool {
        self.predictor == frontend.predictor
            && self.max_fetch_block_bytes == frontend.max_fetch_block_bytes
    }
}

/// Fetch-block assembly over one thread's records, fed one record at a
/// time; [`finish`](Self::finish) returns the [`FetchStream`].
///
/// A step ends at a taken or mispredicted branch, at the size cap, before
/// an instruction that does not follow its block's last one, at a
/// commit-rate change once its block has an instruction, or at a sync
/// event.  The last step ends at the end of the trace.
#[derive(Debug)]
pub struct StreamDecoder {
    predictor: FetchPredictor,
    max_bytes: u32,
    blocks: Vec<FtqEntry>,
    marks: Vec<StepMark>,
    /// The open step's last commit-rate change.
    ipc: Option<f64>,
    /// The open step's block so far; no instruction has joined it while it
    /// has zero.
    block: FtqEntry,
}

impl StreamDecoder {
    /// A decoder with a fresh fetch predictor and the fetch-block cap of
    /// `frontend`.
    ///
    /// # Panics
    ///
    /// Panics if the predictor configuration is invalid.
    pub fn new(frontend: &FrontEndConfig) -> Self {
        StreamDecoder {
            predictor: FetchPredictor::new(frontend.predictor),
            max_bytes: frontend.max_fetch_block_bytes,
            blocks: Vec::new(),
            marks: Vec::new(),
            ipc: None,
            block: NO_BLOCK,
        }
    }

    /// Ends the open step with `stop`.
    fn close(&mut self, stop: Option<StepStop>) {
        if self.ipc.is_some() || stop.is_some() {
            self.marks.push(StepMark {
                step: self.blocks.len(),
                ipc: self.ipc.take(),
                stop,
            });
        }
        self.blocks
            .push(std::mem::replace(&mut self.block, NO_BLOCK));
    }

    /// Ends the last step at the end of the trace and returns the stream
    /// of every record pushed.
    pub fn finish(mut self) -> FetchStream {
        self.close(Some(StepStop::TraceEnd));
        self.blocks.shrink_to_fit();
        self.marks.shrink_to_fit();
        FetchStream {
            blocks: self.blocks,
            marks: self.marks,
            predictor_stats: *self.predictor.stats(),
            predictor: *self.predictor.config(),
            max_fetch_block_bytes: self.max_bytes,
        }
    }
}

impl RecordSink for StreamDecoder {
    #[inline]
    fn push(&mut self, record: TraceRecord) {
        match record {
            TraceRecord::SetIpc { ipc } => {
                // Commit-rate changes take effect immediately; they sit at
                // region boundaries in the traces.
                self.ipc = Some(ipc);
                if self.block.num_instrs > 0 {
                    self.close(None);
                }
            }
            TraceRecord::Sync(ev) => self.close(Some(StepStop::Sync(ev))),
            TraceRecord::Instr { addr, len } | TraceRecord::Branch { addr, len, .. } => {
                let a = addr.raw();
                if self.block.num_instrs > 0 && a != self.block.end() {
                    // Discontinuity: close the block; the record opens the
                    // next step.
                    self.close(None);
                }
                if self.block.num_instrs == 0 {
                    self.block.start = a;
                }
                self.block.len_bytes += u32::from(len);
                self.block.num_instrs += 1;
                if let TraceRecord::Branch { info, .. } = record {
                    let resteer = self.predictor.predict_and_train(
                        a,
                        info.taken,
                        info.target.raw(),
                        info.indirect,
                    );
                    if resteer || info.taken {
                        self.block.ends_in_mispredict = resteer;
                        self.close(None);
                        return;
                    }
                }
                if self.block.len_bytes >= self.max_bytes {
                    self.close(None);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpc_workloads::{Benchmark, GeneratorConfig, TraceGenerator};
    use sim_trace::{ThreadTrace, TraceBuilder};

    fn decode(trace: ThreadTrace) -> FetchStream {
        FetchStream::decode(trace, &FrontEndConfig::worker())
    }

    /// Every step of `stream`, in the order a core takes them.
    fn steps(stream: &FetchStream) -> Vec<FetchStep> {
        let mut cursor = StepCursor::default();
        let mut steps = vec![stream.next_step(&mut cursor)];
        while steps.last().unwrap().stop != Some(StepStop::TraceEnd) {
            steps.push(stream.next_step(&mut cursor));
        }
        assert_eq!(cursor.step, stream.blocks.len(), "steps after the end");
        assert_eq!(cursor.mark, stream.marks.len(), "marks after the end");
        steps
    }

    fn step(ipc: Option<f64>, block: Option<FtqEntry>, stop: Option<StepStop>) -> FetchStep {
        FetchStep { ipc, block, stop }
    }

    fn block(start: u64, num_instrs: u32, ends_in_mispredict: bool) -> Option<FtqEntry> {
        Some(FtqEntry {
            start,
            len_bytes: num_instrs * 4,
            num_instrs,
            ends_in_mispredict,
        })
    }

    #[test]
    fn steps_are_stored_as_ftq_entries_with_rate_changes_and_stops_apart() {
        // A rate change and a barrier before any instruction: the first step
        // pushes no block but changes the rate and stops.  The second step
        // has neither; the third ends the trace.
        let barrier = SyncEvent::Barrier { id: 3 };
        let mut b = TraceBuilder::new(0);
        b.set_ipc(1.5)
            .sync(barrier)
            .instr(0x1000, 4)
            .instr(0x2000, 4)
            .instr(0x2004, 4);
        let stream = decode(b.finish());
        assert_eq!(std::mem::size_of::<FtqEntry>(), 24);
        assert_eq!(
            stream.blocks,
            [
                NO_BLOCK,
                block(0x1000, 1, false).unwrap(),
                block(0x2000, 2, false).unwrap()
            ]
        );
        assert_eq!(
            stream.marks,
            [
                StepMark {
                    step: 0,
                    ipc: Some(1.5),
                    stop: Some(StepStop::Sync(barrier)),
                },
                StepMark {
                    step: 2,
                    ipc: None,
                    stop: Some(StepStop::TraceEnd),
                },
            ]
        );
        assert_eq!(
            steps(&stream),
            [
                step(Some(1.5), None, Some(StepStop::Sync(barrier))),
                step(None, block(0x1000, 1, false), None),
                step(None, block(0x2000, 2, false), Some(StepStop::TraceEnd)),
            ]
        );
    }

    #[test]
    fn an_empty_trace_is_one_step_that_ends_it() {
        let stream = decode(TraceBuilder::new(0).finish());
        assert_eq!(stream.blocks, [NO_BLOCK]);
        assert_eq!(steps(&stream), [step(None, None, Some(StepStop::TraceEnd))]);
    }

    #[test]
    fn a_discontinuity_opens_the_next_step_with_the_pushed_back_record() {
        let mut b = TraceBuilder::new(0);
        b.instr(0x1000, 4)
            .instr(0x1004, 4)
            .instr(0x2000, 4)
            .instr(0x2004, 4);
        assert_eq!(
            steps(&decode(b.finish())),
            [
                step(None, block(0x1000, 2, false), None),
                step(None, block(0x2000, 2, false), Some(StepStop::TraceEnd)),
            ]
        );
    }

    #[test]
    fn a_rate_change_before_the_first_instruction_keeps_assembling() {
        let mut b = TraceBuilder::new(0);
        b.set_ipc(1.5)
            .instr(0x1000, 4)
            .branch(0x1004, 4, 0x3000, true);
        assert_eq!(
            steps(&decode(b.finish())),
            [
                step(Some(1.5), block(0x1000, 2, true), None),
                step(None, None, Some(StepStop::TraceEnd)),
            ]
        );
    }

    #[test]
    fn a_rate_change_after_the_first_instruction_closes_the_block() {
        let mut b = TraceBuilder::new(0);
        b.set_ipc(1.5)
            .instr(0x1000, 4)
            .set_ipc(0.5)
            .instr(0x1004, 4);
        assert_eq!(
            steps(&decode(b.finish())),
            [
                step(Some(0.5), block(0x1000, 1, false), None),
                step(None, block(0x1004, 1, false), Some(StepStop::TraceEnd)),
            ]
        );
    }

    #[test]
    fn a_sync_mid_block_ends_the_step_with_its_block() {
        let barrier = SyncEvent::Barrier { id: 7 };
        let mut b = TraceBuilder::new(0);
        b.instr(0x1000, 4)
            .instr(0x1004, 4)
            .sync(barrier)
            .instr(0x1008, 4);
        assert_eq!(
            steps(&decode(b.finish())),
            [
                step(None, block(0x1000, 2, false), Some(StepStop::Sync(barrier))),
                step(None, block(0x1008, 1, false), Some(StepStop::TraceEnd)),
            ]
        );
    }

    #[test]
    fn the_end_of_the_trace_mid_block_ends_the_step_with_its_block() {
        let mut b = TraceBuilder::new(0);
        b.instr(0x1000, 4).instr(0x1004, 4).instr(0x1008, 4);
        assert_eq!(
            steps(&decode(b.finish())),
            [step(
                None,
                block(0x1000, 3, false),
                Some(StepStop::TraceEnd)
            )]
        );
    }

    #[test]
    fn blocks_stop_at_the_size_cap() {
        // 70 straight-line instructions: a 256-byte (64-instruction) block,
        // then the 6-instruction rest.
        let mut b = TraceBuilder::new(0);
        for i in 0..70 {
            b.instr(0x1000 + i * 4, 4);
        }
        let cap = FrontEndConfig::worker().max_fetch_block_bytes;
        assert_eq!(cap, 256);
        assert_eq!(
            steps(&decode(b.finish())),
            [
                step(None, block(0x1000, 64, false), None),
                step(None, block(0x1100, 6, false), Some(StepStop::TraceEnd)),
            ]
        );
    }

    #[test]
    fn a_mispredicted_branch_ends_its_block() {
        // A fresh predictor says not-taken: the not-taken branch stays in
        // the block, the taken one ends it mispredicted.
        let mut b = TraceBuilder::new(0);
        b.instr(0x1000, 4)
            .branch(0x1004, 4, 0x4000, false)
            .instr(0x1008, 4)
            .branch(0x100c, 4, 0x2000, true)
            .instr(0x2000, 4);
        let stream = decode(b.finish());
        assert_eq!(
            steps(&stream),
            [
                step(None, block(0x1000, 4, true), None),
                step(None, block(0x2000, 1, false), Some(StepStop::TraceEnd)),
            ]
        );
        assert_eq!(stream.predictor_stats().branches, 2);
        assert_eq!(stream.predictor_stats().mispredicts(), 1);
    }

    #[test]
    fn quick_scale_streams_account_for_every_record() {
        let generator = GeneratorConfig::quick();
        let frontend = FrontEndConfig::worker();
        for benchmark in Benchmark::ALL {
            let set = TraceGenerator::new(benchmark.profile(), generator).generate();
            for trace in set.iter() {
                let stream = FetchStream::decode(trace.iter().copied(), &frontend);
                let blocks: Vec<FtqEntry> = steps(&stream).iter().filter_map(|s| s.block).collect();
                let instrs: u64 = blocks.iter().map(|b| u64::from(b.num_instrs)).sum();
                let bytes: u64 = blocks.iter().map(|b| u64::from(b.len_bytes)).sum();
                let record_bytes: u64 = trace
                    .iter()
                    .map(|r| match r {
                        TraceRecord::Instr { len, .. } | TraceRecord::Branch { len, .. } => {
                            u64::from(*len)
                        }
                        _ => 0,
                    })
                    .sum();
                let what = format!("{benchmark:?} {}", trace.thread());
                assert_eq!(instrs, trace.num_instructions(), "{what}: instructions");
                assert_eq!(bytes, record_bytes, "{what}: bytes");

                let mut predictor = FetchPredictor::new(frontend.predictor);
                for r in trace {
                    if let TraceRecord::Branch { addr, info, .. } = r {
                        predictor.predict_and_train(
                            addr.raw(),
                            info.taken,
                            info.target.raw(),
                            info.indirect,
                        );
                    }
                }
                assert_eq!(
                    stream.predictor_stats(),
                    predictor.stats(),
                    "{what}: predictor"
                );
            }
        }
    }
}
