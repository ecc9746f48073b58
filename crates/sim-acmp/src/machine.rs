//! The full-machine cycle loop.

use crate::config::AcmpConfig;
use crate::memory::{build_units, unit_of_core, IcacheUnit, InFlightRequest, RequestPhase};
use crate::runtime::SyncRuntime;
use crate::stats::{CoreReport, SimResult};
use sim_cache::CacheStats;
use sim_core::{Core, CoreConfig, CycleOutput, FetchStream, Park, StallKind, StallReason};
use sim_interconnect::BusStats;
use sim_trace::{ThreadTrace, TraceSet};
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// Errors produced by a simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The cycle limit was reached before every core finished — either the
    /// configuration deadlocked or the limit is too low for the trace size.
    CycleLimitExceeded {
        /// The configured limit.
        limit: u64,
        /// Cores that had not finished.
        unfinished: Vec<usize>,
    },
    /// The trace set does not have one trace per configured core.
    ThreadCountMismatch {
        /// Cores in the machine configuration.
        expected: usize,
        /// Traces provided.
        found: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::CycleLimitExceeded { limit, unfinished } => write!(
                f,
                "cycle limit {limit} exceeded with cores {unfinished:?} unfinished"
            ),
            SimError::ThreadCountMismatch { expected, found } => write!(
                f,
                "machine has {expected} cores but the trace set has {found} threads"
            ),
        }
    }
}

impl Error for SimError {}

/// A core taken off the cycle loop by the idle-skip scheduler.
///
/// The core is only parked when ticking it would change nothing observable
/// (see [`Core::park_state`]) *and* its stall attribution is frozen — which
/// requires that none of its in-flight requests is still waiting for a bus
/// grant, since a grant would move the stall from congestion to latency.
/// The skipped cycles' statistics are replayed in O(1) when it wakes.
#[derive(Debug, Clone, Copy)]
struct ParkedCore {
    /// First cycle that has not been simulated for this core.
    since: u64,
    /// Stall bucket each skipped cycle would have recorded.
    kind: StallKind,
    /// `Some(c)` when the core wakes by itself at cycle `c` (resteer
    /// penalty); `None` when only a delivery or an unblock can wake it.
    wake_at: Option<u64>,
}

/// A fully assembled ACMP ready to simulate one benchmark run.
pub struct Machine {
    config: AcmpConfig,
    cores: Vec<Core>,
    units: Vec<IcacheUnit>,
    /// Unit index serving each core.
    core_unit: Vec<usize>,
    runtime: SyncRuntime,
    in_flight: Vec<InFlightRequest>,
    /// Earliest `ready` among deliverable (granted) in-flight requests;
    /// `u64::MAX` when there is none.  Lets the per-cycle delivery scan be
    /// skipped on the many cycles where nothing can complete.
    ready_min: u64,
    /// Idle-skip scheduler state, one slot per core.
    parked: Vec<Option<ParkedCore>>,
    /// Cores that have finished their trace; the run ends when all have.
    finished: usize,
    /// When `false`, every core is ticked every cycle (the reference
    /// schedule).  Results are identical either way; the flag exists so
    /// tests can prove it.
    idle_skip: bool,
    /// Reused per-cycle buffers (hot path: no allocation per cycle).
    cycle_out: CycleOutput,
    delivery_scratch: Vec<(usize, u64)>,
    unit_updates: Vec<InFlightRequest>,
}

/// The configuration of core `i`: the master core runs thread 0, worker
/// cores the rest.
fn core_config(config: &AcmpConfig, i: usize) -> CoreConfig {
    if i == 0 {
        config.master_core
    } else {
        config.worker_core
    }
}

impl fmt::Debug for Machine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Machine")
            .field("cores", &self.cores.len())
            .field("units", &self.units.len())
            .field("sharing", &self.config.sharing)
            .finish_non_exhaustive()
    }
}

impl Machine {
    /// Builds the machine described by `config` and loads one trace per
    /// core (thread 0 on the master core), decoding each thread with the
    /// front end of the core that runs it.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.  A mismatched thread count is
    /// reported by [`Machine::run`] instead so callers can handle it.
    pub fn new(config: AcmpConfig, traces: &TraceSet) -> Self {
        Machine::with_streams(config, &Machine::decode_streams(&config, traces))
    }

    /// Builds the machine from a shared trace set; identical to
    /// [`Machine::new`].  A sweep running many design points against the
    /// same traces should decode them once with
    /// [`Machine::decode_streams`] and build every machine with
    /// [`Machine::with_streams`] instead.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn with_shared_traces(config: AcmpConfig, traces: Arc<TraceSet>) -> Self {
        Machine::new(config, &traces)
    }

    /// Decodes every thread of `traces` into the fetch stream of the core
    /// that `config` runs it on (thread 0 on the master core).  The streams
    /// serve every configuration whose cores have the same predictor and
    /// fetch-block cap.
    pub fn decode_streams(config: &AcmpConfig, traces: &TraceSet) -> Vec<Arc<FetchStream>> {
        traces
            .iter()
            .map(|t| Arc::new(Machine::decode_thread(config, t)))
            .collect()
    }

    /// Decodes one thread's trace into the fetch stream of the core that
    /// `config` runs it on; see [`Machine::decode_streams`].
    pub fn decode_thread(config: &AcmpConfig, trace: &ThreadTrace) -> FetchStream {
        let frontend = core_config(config, trace.thread().0).frontend;
        FetchStream::decode(trace.iter().copied(), &frontend)
    }

    /// Builds the machine described by `config` with core `i` replaying
    /// `streams[i]`.  The streams are shared, not copied, so many machines
    /// can replay one benchmark's decoded traces.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid, or if a stream was decoded
    /// for another front end than its core's (see
    /// [`FetchStream::decoded_for`]).  A mismatched thread count is reported
    /// by [`Machine::run`].
    pub fn with_streams(config: AcmpConfig, streams: &[Arc<FetchStream>]) -> Self {
        config.validate();
        let cores: Vec<Core> = streams
            .iter()
            .enumerate()
            .map(|(i, stream)| Core::with_stream(i, core_config(&config, i), Arc::clone(stream)))
            .collect();
        let units = build_units(&config);
        let core_unit = unit_of_core(&units, config.num_cores());
        let runtime = SyncRuntime::new(config.num_cores());
        let num_cores = cores.len();
        Machine {
            config,
            cores,
            units,
            core_unit,
            runtime,
            in_flight: Vec::new(),
            ready_min: u64::MAX,
            parked: vec![None; num_cores],
            finished: 0,
            idle_skip: true,
            cycle_out: CycleOutput::default(),
            delivery_scratch: Vec::new(),
            unit_updates: Vec::new(),
        }
    }

    /// Enables or disables the idle-skip scheduler (enabled by default).
    ///
    /// Disabling it makes the machine tick every core every cycle, the
    /// straightforward reference schedule.  Simulation results are bit-for-
    /// bit identical in both modes; the switch exists so tests can assert
    /// that equivalence.
    pub fn set_idle_skip(&mut self, enabled: bool) {
        self.idle_skip = enabled;
    }

    /// The configuration being simulated.
    pub fn config(&self) -> &AcmpConfig {
        &self.config
    }

    /// Runs the simulation to completion.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ThreadCountMismatch`] if the number of loaded
    /// traces differs from the configured core count, or
    /// [`SimError::CycleLimitExceeded`] if the machine does not finish
    /// within `config.max_cycles`.
    pub fn run(mut self) -> Result<SimResult, SimError> {
        if self.cores.len() != self.config.num_cores() {
            return Err(SimError::ThreadCountMismatch {
                expected: self.config.num_cores(),
                found: self.cores.len(),
            });
        }

        let mut cycle: u64 = 0;
        let mut serial_cycles: u64 = 0;
        let mut parallel_cycles: u64 = 0;

        while self.finished < self.cores.len() {
            if cycle >= self.config.max_cycles {
                let unfinished = self
                    .cores
                    .iter()
                    .filter(|c| !c.is_finished())
                    .map(|c| c.id())
                    .collect();
                return Err(SimError::CycleLimitExceeded {
                    limit: self.config.max_cycles,
                    unfinished,
                });
            }

            self.step(cycle);

            if self.runtime.in_parallel_region() {
                parallel_cycles += 1;
            } else {
                serial_cycles += 1;
            }
            cycle += 1;

            // Global time jump: when every unfinished core is parked no
            // grants, deliveries, events or stat changes (beyond the frozen
            // per-cycle attributions replayed at unpark) can occur until the
            // earliest delivery or self-wake, so skip straight there.
            if self.idle_skip {
                if let Some(wake) = self.next_global_wake(cycle) {
                    debug_assert!(wake > cycle);
                    let span = wake - cycle;
                    // The runtime cannot change while no core runs, so the
                    // serial/parallel classification is constant over the
                    // span.
                    if self.runtime.in_parallel_region() {
                        parallel_cycles += span;
                    } else {
                        serial_cycles += span;
                    }
                    // Catch up fill retirement for the skipped cycles: a
                    // submission at `wake` consults `pending_fills` before
                    // the units tick, so fills that would have retired
                    // earlier must be gone by then.
                    for unit in &mut self.units {
                        unit.retire_fills_through(wake - 1);
                    }
                    cycle = wake;
                }
            }
        }

        Ok(self.collect(cycle, serial_cycles, parallel_cycles))
    }

    /// Returns the cycle to jump to when every unfinished core is parked,
    /// or `None` when the machine must keep ticking cycle by cycle.
    fn next_global_wake(&self, cycle: u64) -> Option<u64> {
        let mut any_unfinished = false;
        for (i, c) in self.cores.iter().enumerate() {
            if c.is_finished() {
                continue;
            }
            any_unfinished = true;
            // An unfinished core that is not parked blocks the jump.
            self.parked[i]?;
        }
        if !any_unfinished {
            return None;
        }
        // A request still waiting for its bus grant could be granted any
        // cycle (and change stall attribution); parked cores never hold one
        // (see `can_park`), but be defensive.
        if self
            .in_flight
            .iter()
            .any(|r| r.phase == RequestPhase::WaitingGrant)
        {
            return None;
        }
        let mut wake: Option<u64> = None;
        let mut consider = |c: u64| {
            wake = Some(match wake {
                Some(w) => w.min(c),
                None => c,
            });
        };
        for req in &self.in_flight {
            consider(req.ready);
        }
        for p in self.parked.iter().flatten() {
            if let Some(w) = p.wake_at {
                consider(w);
            }
        }
        // No wake source at all: the machine is deadlocked; jump to the
        // cycle limit so `run` reports the same error as the reference
        // schedule, without spinning until then.
        let wake = wake
            .unwrap_or(self.config.max_cycles)
            .min(self.config.max_cycles)
            .max(cycle);
        (wake > cycle).then_some(wake)
    }

    /// Wakes a parked core, replaying the statistics of the cycles it
    /// skipped.  `resume` is the first cycle the core will actually execute
    /// again; the parked span therefore covers `since .. resume`.
    fn unpark(&mut self, core: usize, resume: u64) {
        if let Some(p) = self.parked[core].take() {
            let span = resume.saturating_sub(p.since);
            if span > 0 {
                self.cores[core].cpi_mut().record_stall_n(p.kind, span);
                self.cores[core].apply_parked_cycles(span);
            }
        }
    }

    /// Releases `core` from a synchronisation wait during `current`'s slot
    /// of `cycle`.  A core earlier in the order already had its slot this
    /// cycle (its last blocked cycle is `cycle` itself), while a later core
    /// will still run this cycle as released — exactly as in the reference
    /// schedule, where the unblock lands between their slots.
    fn release(&mut self, core: usize, current: usize, cycle: u64) {
        let resume = if core < current { cycle + 1 } else { cycle };
        self.unpark(core, resume);
        self.cores[core].unblock();
    }

    /// Whether core `i`'s stall attribution is frozen (no request of its
    /// still waiting for a bus grant), making it safe to park.
    fn can_park(&self, core: usize) -> bool {
        !self
            .in_flight
            .iter()
            .any(|r| r.core == core && r.phase == RequestPhase::WaitingGrant)
    }

    /// Simulates one machine cycle.
    fn step(&mut self, cycle: u64) {
        // 1. Deliver lines whose requests completed.  A delivery wakes the
        //    receiving core for this very cycle (its parked span, if any,
        //    ends at `cycle - 1`).  When no granted request can be ready yet
        //    the scan would remove nothing, so it is skipped outright.
        if self.ready_min <= cycle {
            let mut delivered = std::mem::take(&mut self.delivery_scratch);
            delivered.clear();
            let mut remaining_min = u64::MAX;
            self.in_flight.retain(|req| {
                if req.phase == RequestPhase::WaitingGrant {
                    true
                } else if req.ready <= cycle {
                    delivered.push((req.core, req.line));
                    false
                } else {
                    remaining_min = remaining_min.min(req.ready);
                    true
                }
            });
            self.ready_min = remaining_min;
            for (core, line) in delivered.drain(..) {
                self.unpark(core, cycle);
                self.cores[core].deliver_line(line, cycle);
            }
            self.delivery_scratch = delivered;
        }

        // 2. Advance every core by one cycle.
        for i in 0..self.cores.len() {
            if self.cores[i].is_finished() {
                continue;
            }
            match self.parked[i] {
                Some(ParkedCore {
                    wake_at: Some(w), ..
                }) if w <= cycle => self.unpark(i, cycle),
                Some(_) => continue,
                None => {}
            }
            // `cycle_out` and `cores` are disjoint fields, so the output
            // buffer can be lent directly without a take/put round-trip.
            let out = &mut self.cycle_out;
            self.cores[i].cycle_into(cycle, out);

            for line in &self.cycle_out.fetch_requests {
                let unit = self.core_unit[i];
                let req = self.units[unit].submit(cycle, i, *line);
                if req.phase != RequestPhase::WaitingGrant {
                    self.ready_min = self.ready_min.min(req.ready);
                }
                self.in_flight.push(req);
            }
            let sync_event = self.cycle_out.sync_event;
            let finished_now = self.cycle_out.finished_now;
            let stall = self.cycle_out.stall;

            if let Some(event) = sync_event {
                let decision = self.runtime.handle_event(i, event);
                for core in decision.release {
                    self.release(core, i, cycle);
                }
            }
            if finished_now {
                self.finished += 1;
                let decision = self.runtime.core_finished(i);
                for core in decision.release {
                    self.release(core, i, cycle);
                }
            }

            if let Some(reason) = stall {
                let kind = self.attribute_stall(i, reason);
                self.cores[i].cpi_mut().record_stall(kind);

                // The core committed nothing; ask it whether ticking it
                // again before the next external event could matter.
                if self.idle_skip {
                    let park = match self.cores[i].park_state(cycle) {
                        Park::Active => None,
                        // A wake one cycle ahead is just "active".
                        Park::Until(w) if w <= cycle + 1 => None,
                        Park::Until(w) => Some(Some(w)),
                        Park::Waiting => Some(None),
                    };
                    if let Some(wake_at) = park {
                        if self.can_park(i) {
                            self.parked[i] = Some(ParkedCore {
                                since: cycle + 1,
                                kind,
                                wake_at,
                            });
                        }
                    }
                }
            }
        }

        // 3. Advance the memory system: bus grants and cache accesses.  A
        //    unit's tick reads no machine state, so every unit ticks before
        //    the updates are applied, in unit then bus order.
        for unit in &mut self.units {
            unit.tick(cycle, &mut self.unit_updates);
        }
        for update in self.unit_updates.drain(..) {
            self.ready_min = self.ready_min.min(update.ready);
            // Replace the matching waiting-grant entry with the resolved
            // timing.
            let req = self
                .in_flight
                .iter_mut()
                .find(|r| {
                    r.core == update.core
                        && r.line == update.line
                        && r.phase == RequestPhase::WaitingGrant
                })
                .expect(
                    "a grant answers exactly one waiting request: a core requests a line only \
                     after allocating a line buffer for it, and the buffer stays pending until \
                     the line is delivered",
                );
            *req = update;
        }
    }

    /// Maps a core's stall reason onto a CPI-stack bucket, using the state
    /// of its in-flight requests for memory-related stalls.
    fn attribute_stall(&self, core: usize, reason: StallReason) -> StallKind {
        match reason {
            StallReason::MispredictRecovery => StallKind::BranchMiss,
            StallReason::SyncBlocked => StallKind::Sync,
            StallReason::Other => StallKind::Other,
            StallReason::WaitingForLine(line) => {
                let req = self
                    .in_flight
                    .iter()
                    .find(|r| r.core == core && r.line == line)
                    .or_else(|| self.in_flight.iter().find(|r| r.core == core));
                match req {
                    None => StallKind::Other,
                    Some(r) => match r.phase {
                        RequestPhase::WaitingGrant => StallKind::IBusCongestion,
                        RequestPhase::MissPath => StallKind::IcacheLatency,
                        RequestPhase::HitPath => {
                            if r.shared {
                                StallKind::IBusLatency
                            } else {
                                StallKind::IcacheLatency
                            }
                        }
                    },
                }
            }
        }
    }

    /// Collects the final statistics.
    fn collect(self, cycles: u64, serial_cycles: u64, parallel_cycles: u64) -> SimResult {
        let cores: Vec<CoreReport> = self
            .cores
            .iter()
            .map(|c| CoreReport {
                core: c.id(),
                instructions: c.instructions(),
                cpi: *c.cpi(),
                line_buffers: *c.line_buffer_stats(),
                predictor: *c.predictor_stats(),
                fetch_blocks: c.fetch_blocks(),
            })
            .collect();

        let mut worker_icache = CacheStats::default();
        let mut master_icache = CacheStats::default();
        let mut bus = BusStats::default();
        let mut l2 = CacheStats::default();
        for unit in &self.units {
            l2.merge(unit.l2_stats());
            bus.merge(&unit.bus_stats());
            let serves_master = unit.cores().contains(&0);
            let serves_workers = unit.cores().iter().any(|&c| c != 0);
            if serves_workers {
                worker_icache.merge(unit.cache_stats());
            }
            if serves_master {
                master_icache.merge(unit.cache_stats());
            }
        }

        SimResult {
            cycles,
            instructions: cores.iter().map(|c| c.instructions).sum(),
            parallel_cycles,
            serial_cycles,
            cores,
            worker_icache,
            master_icache,
            bus,
            l2,
            parallel_regions: self.runtime.regions_completed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BusWidth;
    use hpc_workloads::{Benchmark, GeneratorConfig, TraceGenerator};
    use sim_trace::TraceSet;

    fn traces(b: Benchmark, workers: usize, instrs: u64) -> TraceSet {
        TraceGenerator::new(
            b.profile(),
            GeneratorConfig {
                num_workers: workers,
                parallel_instructions_per_thread: instrs,
                num_phases: 2,
                seed: 11,
            },
        )
        .generate()
    }

    fn run(config: AcmpConfig, set: &TraceSet) -> SimResult {
        Machine::new(config, set)
            .run()
            .expect("simulation completes")
    }

    #[test]
    fn baseline_executes_every_instruction() {
        let set = traces(Benchmark::Cg, 2, 6_000);
        let r = run(AcmpConfig::baseline(2), &set);
        assert_eq!(r.instructions, set.total_instructions());
        assert!(r.cycles > 0);
        assert_eq!(r.parallel_regions, 2);
        assert!(r.parallel_cycles > 0);
        assert!(r.serial_cycles > 0);
    }

    #[test]
    fn shared_icache_executes_every_instruction() {
        let set = traces(Benchmark::Cg, 2, 6_000);
        let r = run(AcmpConfig::worker_shared(2, 2), &set);
        assert_eq!(r.instructions, set.total_instructions());
        assert!(r.bus.transactions > 0, "shared config must use the bus");
    }

    #[test]
    fn all_shared_executes_every_instruction() {
        let set = traces(Benchmark::Is, 2, 6_000);
        let r = run(AcmpConfig::all_shared(2), &set);
        assert_eq!(r.instructions, set.total_instructions());
        // Master and workers are served by the same single cache.
        assert_eq!(r.worker_icache, r.master_icache);
    }

    #[test]
    fn sharing_reduces_compulsory_misses() {
        // The same code is fetched by both workers: with private caches each
        // one takes its own cold misses; with a shared cache the second
        // worker reuses the first one's fills.
        let set = traces(Benchmark::Lu, 2, 8_000);
        let private = run(AcmpConfig::baseline(2), &set);
        let shared = run(AcmpConfig::worker_shared(2, 2), &set);
        assert!(
            shared.worker_icache.compulsory_misses < private.worker_icache.compulsory_misses,
            "shared: {} vs private: {}",
            shared.worker_icache.compulsory_misses,
            private.worker_icache.compulsory_misses
        );
    }

    #[test]
    fn sharing_does_not_slow_down_a_small_kernel_benchmark() {
        // CG's kernel fits in the line buffers, so the bus sees little
        // traffic and execution time should be essentially unchanged.
        let set = traces(Benchmark::Cg, 4, 8_000);
        let private = run(AcmpConfig::baseline(4), &set);
        let shared = run(AcmpConfig::worker_shared(4, 4), &set);
        let ratio = shared.cycles as f64 / private.cycles as f64;
        assert!(
            ratio < 1.05,
            "sharing should not hurt a line-buffer-friendly benchmark, ratio={ratio:.3}"
        );
    }

    #[test]
    fn double_bus_is_at_least_as_fast_as_single_bus() {
        let set = traces(Benchmark::Lu, 4, 8_000);
        let single = run(
            AcmpConfig::worker_shared(4, 4).with_worker_icache_size(16 * 1024),
            &set,
        );
        let double = run(
            AcmpConfig::worker_shared(4, 4)
                .with_worker_icache_size(16 * 1024)
                .with_bus_width(BusWidth::Double),
            &set,
        );
        assert!(double.cycles <= single.cycles);
        assert!(
            double.worker_cpi_stack().ibus_congestion <= single.worker_cpi_stack().ibus_congestion
        );
    }

    #[test]
    fn critical_sections_are_serialised_but_complete() {
        let set = traces(Benchmark::BotsSpar, 2, 6_000);
        let r = run(AcmpConfig::baseline(2), &set);
        assert_eq!(r.instructions, set.total_instructions());
    }

    #[test]
    fn thread_count_mismatch_is_reported() {
        let set = traces(Benchmark::Cg, 2, 6_000);
        let err = Machine::new(AcmpConfig::baseline(4), &set)
            .run()
            .unwrap_err();
        assert!(matches!(
            err,
            SimError::ThreadCountMismatch {
                expected: 5,
                found: 3
            }
        ));
        assert!(err.to_string().contains("5 cores"));
    }

    #[test]
    fn cycle_limit_is_enforced() {
        let set = traces(Benchmark::Cg, 2, 6_000);
        let mut cfg = AcmpConfig::baseline(2);
        cfg.max_cycles = 100;
        let err = Machine::new(cfg, &set).run().unwrap_err();
        assert!(matches!(
            err,
            SimError::CycleLimitExceeded { limit: 100, .. }
        ));
    }

    #[test]
    fn sim_is_deterministic() {
        let set = traces(Benchmark::Ft, 2, 6_000);
        let a = run(AcmpConfig::worker_shared(2, 2), &set);
        let b = run(AcmpConfig::worker_shared(2, 2), &set);
        assert_eq!(a, b);
    }

    #[test]
    fn workers_spend_time_waiting_at_sync_points() {
        let set = traces(Benchmark::Ft, 2, 6_000);
        let r = run(AcmpConfig::baseline(2), &set);
        // Workers must wait for the master's serial sections.
        let worker_sync: u64 = r.cores.iter().skip(1).map(|c| c.cpi.sync).sum();
        assert!(
            worker_sync > 0,
            "workers should block while the master runs serial code"
        );
    }

    #[test]
    fn idle_skip_matches_the_reference_schedule() {
        // The idle-skip scheduler must be a pure optimisation: every
        // statistic bit-for-bit identical to ticking all cores every cycle.
        // Every benchmark at quick scale (4 workers, 20k instructions per
        // thread) on the private baseline, the proposed 16 KB double-bus
        // design, naive sharing by all workers and the all-shared machine.
        // The idle-skip runs of a benchmark replay one decoded stream set
        // shared by all four designs, while each reference run decodes its
        // own cores' streams from the records, so this also checks that
        // one decode serves every design.
        let generator = GeneratorConfig::quick();
        let configs = [
            AcmpConfig::baseline(4),
            AcmpConfig::proposed(4),
            AcmpConfig::worker_shared(4, 4),
            AcmpConfig::all_shared(4),
        ];
        for benchmark in Benchmark::ALL {
            let set = TraceGenerator::new(benchmark.profile(), generator).generate();
            let streams = Machine::decode_streams(&configs[0], &set);
            for config in configs {
                let mut reference = Machine::new(config, &set);
                reference.set_idle_skip(false);
                let reference = reference.run().expect("reference completes");
                let skipped = Machine::with_streams(config, &streams)
                    .run()
                    .expect("simulation completes");
                assert_eq!(reference, skipped, "{benchmark:?} on {config:?}");
            }
        }
    }

    #[test]
    fn tied_wake_cycles_jump_to_the_tie_and_replay_each_span() {
        // Two cores whose self-wakes land on the same cycle: the global jump
        // must stop exactly at the tie (not past it), and unparking must
        // replay each core's own skipped span into its stall bucket.
        let set = traces(Benchmark::Cg, 1, 1_000);
        let mut m = Machine::new(AcmpConfig::baseline(1), &set);
        m.parked[0] = Some(ParkedCore {
            since: 10,
            kind: StallKind::BranchMiss,
            wake_at: Some(40),
        });
        m.parked[1] = Some(ParkedCore {
            since: 25,
            kind: StallKind::IcacheLatency,
            wake_at: Some(40),
        });
        assert_eq!(m.next_global_wake(30), Some(40));

        m.unpark(0, 40);
        m.unpark(1, 40);
        assert_eq!(m.cores[0].cpi().branch_miss, 30, "core 0 skipped 10..40");
        assert_eq!(m.cores[1].cpi().icache_latency, 15, "core 1 skipped 25..40");
        assert!(m.parked.iter().all(Option::is_none));
    }

    #[test]
    fn earliest_of_competing_wake_sources_wins() {
        // A parked core's self-wake competes with an in-flight delivery; the
        // jump must go to whichever is earliest, never past a wake source.
        let set = traces(Benchmark::Cg, 1, 1_000);
        let mut m = Machine::new(AcmpConfig::baseline(1), &set);
        m.parked[0] = Some(ParkedCore {
            since: 10,
            kind: StallKind::Sync,
            wake_at: Some(50),
        });
        m.parked[1] = Some(ParkedCore {
            since: 10,
            kind: StallKind::IcacheLatency,
            wake_at: Some(20),
        });
        assert_eq!(m.next_global_wake(10), Some(20));
        // A core with no self-wake (delivery- or unblock-only) contributes
        // nothing; the remaining self-wake bounds the jump.
        m.parked[1].as_mut().unwrap().wake_at = None;
        assert_eq!(m.next_global_wake(10), Some(50));
    }

    #[test]
    fn zero_latency_wakes_never_jump_or_record_stalls() {
        // A wake due *now* (a zero-latency event) must not produce a jump —
        // `next_global_wake` only ever moves time forward — and unparking a
        // core on the cycle it was parked replays a zero-cycle span.
        let set = traces(Benchmark::Cg, 1, 1_000);
        let mut m = Machine::new(AcmpConfig::baseline(1), &set);
        m.parked[0] = Some(ParkedCore {
            since: 10,
            kind: StallKind::Sync,
            wake_at: Some(10),
        });
        m.parked[1] = Some(ParkedCore {
            since: 10,
            kind: StallKind::Other,
            wake_at: Some(10),
        });
        assert_eq!(m.next_global_wake(10), None, "a due wake cannot jump");

        let sync_before = m.cores[0].cpi().sync;
        m.unpark(0, 10);
        assert_eq!(
            m.cores[0].cpi().sync,
            sync_before,
            "zero-span unpark must record no stall cycles"
        );
        assert!(m.parked[0].is_none());
    }

    #[test]
    fn an_unparked_core_blocks_the_global_jump() {
        // While any unfinished core is still running, the machine must keep
        // ticking cycle by cycle regardless of other cores' wake times.
        let set = traces(Benchmark::Cg, 1, 1_000);
        let mut m = Machine::new(AcmpConfig::baseline(1), &set);
        m.parked[0] = Some(ParkedCore {
            since: 10,
            kind: StallKind::Sync,
            wake_at: Some(99),
        });
        assert_eq!(m.next_global_wake(10), None);
    }

    #[test]
    fn congestion_appears_with_one_bus_and_many_cores() {
        // A streaming benchmark (large kernel) shared by 4 cores over a
        // single bus should show congestion stalls.
        let set = traces(Benchmark::Lu, 4, 8_000);
        let r = run(
            AcmpConfig::worker_shared(4, 4).with_worker_icache_size(16 * 1024),
            &set,
        );
        let stack = r.worker_cpi_stack();
        assert!(
            stack.ibus_congestion + stack.ibus_latency > 0,
            "a shared single bus must introduce bus-related stall cycles"
        );
    }
}
