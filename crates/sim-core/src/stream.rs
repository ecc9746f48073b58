//! Fetch-step streams: a thread's trace decoded once into what its core's
//! fetch predictor produces, so many machines can replay it.
//!
//! A core assembles at most one fetch block per cycle.  Which block it
//! assembles, whether the branch ending it was mispredicted and where the
//! commit rate changes depend only on the thread's records, the predictor
//! configuration and the fetch-block size cap — never on the memory system,
//! the line buffers or timing.  [`FetchStream::decode`] runs that assembly
//! over the whole trace once; a [`Core`](crate::Core) then applies one step
//! in each cycle it would have assembled a block.  Every design point of a
//! sweep that shares the predictor and the cap replays the same stream.

use sim_frontend::{FetchPredictor, FrontEndConfig, FtqEntry, PredictorConfig, PredictorStats};
use sim_trace::{SyncEvent, TraceRecord};

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

/// One thread's trace as the sequence of fetch steps its core takes.
///
/// The last step always stops at the end of the trace.
#[derive(Debug)]
pub struct FetchStream {
    steps: Vec<FetchStep>,
    predictor_stats: PredictorStats,
    predictor: PredictorConfig,
    max_fetch_block_bytes: u32,
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
        let mut decoder = Decoder {
            records: records.into_iter(),
            predictor: FetchPredictor::new(frontend.predictor),
            pushback: None,
            max_bytes: frontend.max_fetch_block_bytes,
        };
        let mut steps = Vec::new();
        loop {
            let step = decoder.next_step();
            steps.push(step);
            if step.stop == Some(StepStop::TraceEnd) {
                break;
            }
        }
        steps.shrink_to_fit();
        FetchStream {
            steps,
            predictor_stats: *decoder.predictor.stats(),
            predictor: frontend.predictor,
            max_fetch_block_bytes: frontend.max_fetch_block_bytes,
        }
    }

    /// The steps, in the order the core takes them.
    pub(crate) fn steps(&self) -> &[FetchStep] {
        &self.steps
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

/// Fetch-block assembly over one thread's records.
struct Decoder<I> {
    records: I,
    predictor: FetchPredictor,
    /// One record pushed back by assembly (the first record after a
    /// discontinuity), read first by the next step.
    pushback: Option<TraceRecord>,
    max_bytes: u32,
}

impl<I: Iterator<Item = TraceRecord>> Decoder<I> {
    /// Assembles one fetch block: reads records until the block ends at a
    /// taken or mispredicted branch, the size cap, a discontinuity or a
    /// commit-rate change, or until a sync event or the end of the trace.
    fn next_step(&mut self) -> FetchStep {
        let mut ipc = None;
        let mut stop = None;
        let mut start: Option<u64> = None;
        let mut next_addr: u64 = 0;
        let mut len_bytes: u32 = 0;
        let mut num_instrs: u32 = 0;
        let mut mispredicted = false;

        loop {
            let Some(rec) = self.pushback.take().or_else(|| self.records.next()) else {
                stop = Some(StepStop::TraceEnd);
                break;
            };
            match rec {
                TraceRecord::SetIpc { ipc: rate } => {
                    // Commit-rate changes take effect immediately; they sit
                    // at region boundaries in the traces.
                    ipc = Some(rate);
                    if start.is_some() {
                        break;
                    }
                }
                TraceRecord::Sync(ev) => {
                    stop = Some(StepStop::Sync(ev));
                    break;
                }
                TraceRecord::Instr { addr, len } | TraceRecord::Branch { addr, len, .. } => {
                    let a = addr.raw();
                    match start {
                        Some(_) if a != next_addr => {
                            // Discontinuity: close the block, keep the record.
                            self.pushback = Some(rec);
                            break;
                        }
                        Some(_) => {}
                        None => start = Some(a),
                    }
                    len_bytes += u32::from(len);
                    num_instrs += 1;
                    next_addr = a + u64::from(len);
                    if let TraceRecord::Branch { info, .. } = rec {
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
                        if info.taken {
                            break;
                        }
                    }
                    if len_bytes >= self.max_bytes {
                        break;
                    }
                }
            }
        }

        let block = start.map(|start| {
            debug_assert!(num_instrs > 0);
            FtqEntry {
                start,
                len_bytes,
                num_instrs,
                ends_in_mispredict: mispredicted,
            }
        });
        FetchStep { ipc, block, stop }
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
    fn a_discontinuity_opens_the_next_step_with_the_pushed_back_record() {
        let mut b = TraceBuilder::new(0);
        b.instr(0x1000, 4)
            .instr(0x1004, 4)
            .instr(0x2000, 4)
            .instr(0x2004, 4);
        assert_eq!(
            decode(b.finish()).steps(),
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
            decode(b.finish()).steps(),
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
            decode(b.finish()).steps(),
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
            decode(b.finish()).steps(),
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
            decode(b.finish()).steps(),
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
            decode(b.finish()).steps(),
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
            stream.steps(),
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
        let generator = GeneratorConfig {
            num_workers: 4,
            parallel_instructions_per_thread: 20_000,
            num_phases: 2,
            seed: 0xC0FF_EE00,
        };
        let frontend = FrontEndConfig::worker();
        for benchmark in Benchmark::ALL {
            let set = TraceGenerator::new(benchmark.profile(), generator).generate();
            for trace in set.iter() {
                let stream = FetchStream::decode(trace.iter().copied(), &frontend);
                let blocks: Vec<FtqEntry> = stream.steps().iter().filter_map(|s| s.block).collect();
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
