//! Deterministic synthetic trace generation.

use crate::layout::{
    CodeLayout, CRITICAL_BASE, PARALLEL_COLD_BASE, PARALLEL_COLD_BYTES, PRIVATE_KERNEL_BYTES,
    SERIAL_COLD_BASE, SERIAL_HOT_BASE, SERIAL_HOT_BYTES,
};
use crate::profile::WorkloadProfile;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use sim_trace::{SyncEvent, ThreadTrace, TraceBuilder, TraceRecord, TraceSet};

/// How much synthetic work to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GeneratorConfig {
    /// Number of worker threads (the master is generated in addition).
    pub num_workers: usize,
    /// Parallel-region instructions generated per thread (across all
    /// phases).
    pub parallel_instructions_per_thread: u64,
    /// Number of parallel regions (fork/join phases).
    pub num_phases: u32,
    /// Seed for the deterministic pseudo-random generator.
    pub seed: u64,
}

impl GeneratorConfig {
    /// The configuration used by the figure-reproduction harnesses: eight
    /// workers (Table I) and enough instructions for stable statistics.
    pub fn paper() -> Self {
        GeneratorConfig {
            num_workers: 8,
            parallel_instructions_per_thread: 120_000,
            num_phases: 4,
            seed: 0xC0FF_EE00,
        }
    }

    /// The quick scale: the default scale of `sweep` runs and the figure
    /// harness, and the scale of the benches and quick-scale tests.
    pub fn quick() -> Self {
        GeneratorConfig {
            num_workers: 4,
            parallel_instructions_per_thread: 20_000,
            num_phases: 2,
            seed: 0xC0FF_EE00,
        }
    }

    /// A small configuration for unit and integration tests.
    pub fn small() -> Self {
        GeneratorConfig {
            num_workers: 2,
            parallel_instructions_per_thread: 8_000,
            num_phases: 2,
            seed: 7,
        }
    }

    /// Returns a copy with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if the worker count, instruction budget or phase count is
    /// zero.
    pub fn validate(&self) {
        assert!(self.num_workers >= 1, "need at least one worker");
        assert!(
            self.parallel_instructions_per_thread >= 1000,
            "need a meaningful instruction budget"
        );
        assert!(self.num_phases >= 1, "need at least one parallel region");
    }
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig::paper()
    }
}

/// Generates the per-thread traces of one benchmark run.
#[derive(Debug)]
pub struct TraceGenerator {
    profile: WorkloadProfile,
    config: GeneratorConfig,
    layout: CodeLayout,
}

/// Internal emission state for one thread.
struct Emitter {
    builder: TraceBuilder,
    rng: ChaCha8Rng,
    serial_cold_cursor: u64,
    parallel_cold_cursor: u64,
    emitted: u64,
}

impl Emitter {
    fn new(builder: TraceBuilder, tid: usize, seed: u64) -> Self {
        Emitter {
            builder,
            rng: ChaCha8Rng::seed_from_u64(seed ^ (tid as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            serial_cold_cursor: 0,
            parallel_cold_cursor: 0,
            emitted: 0,
        }
    }

    /// Emits one basic block of `instrs` four-byte instructions starting at
    /// `addr`; the terminating branch has the given outcome and target.
    fn basic_block(&mut self, addr: u64, instrs: u32, taken: bool, target: u64) -> u64 {
        debug_assert!(instrs >= 1);
        for i in 0..instrs - 1 {
            self.builder.instr(addr + i as u64 * 4, 4);
        }
        self.builder
            .branch(addr + (instrs as u64 - 1) * 4, 4, target, taken);
        self.emitted += instrs as u64;
        addr + instrs as u64 * 4
    }

    /// Emits approximately `budget` instructions looping over a body of
    /// `body_bytes` at `base` with basic blocks of `bb_bytes`.
    ///
    /// `noise` is the probability that a non-back-edge branch gets a
    /// data-dependent (random) outcome; such branches target their own
    /// fall-through address so the instruction stream stays sequential.
    fn hot_loop(&mut self, base: u64, body_bytes: u32, bb_bytes: u32, budget: u64, noise: f64) {
        if budget == 0 {
            return;
        }
        let bb_instrs = (bb_bytes / 4).max(1);
        let bbs_per_body = (body_bytes / bb_bytes).max(1);
        let mut emitted = 0u64;
        let mut bb = 0u32;
        let mut addr = base;
        // The budget is respected at basic-block granularity: emission may
        // stop in the middle of a body (the next code the thread runs simply
        // starts elsewhere, exactly as if the loop trip count had been
        // reached).
        while emitted < budget {
            let last_bb = bb == bbs_per_body - 1;
            let fallthrough = addr + bb_instrs as u64 * 4;
            let done = emitted + bb_instrs as u64 >= budget;
            let (taken, target) = if last_bb {
                // Loop back-edge; exit (not taken) once the budget is used.
                (!done, base)
            } else if noise > 0.0 && self.rng.gen_bool(noise) {
                (self.rng.gen_bool(0.5), fallthrough)
            } else {
                (false, fallthrough)
            };
            self.basic_block(addr, bb_instrs, taken, target);
            emitted += bb_instrs as u64;
            if last_bb {
                bb = 0;
                addr = base;
            } else {
                bb += 1;
                addr = fallthrough;
            }
        }
    }

    /// Emits approximately `budget` instructions walking cold code: a
    /// sequential sweep through `region_bytes` at `region_base` with no
    /// short-term reuse (every line is touched once per sweep).
    fn cold_walk(
        &mut self,
        region_base: u64,
        region_bytes: u64,
        bb_bytes: u32,
        budget: u64,
        cursor: CursorKind,
    ) {
        if budget == 0 {
            return;
        }
        let bb_instrs = (bb_bytes / 4).max(1);
        let mut emitted = 0u64;
        let mut offset = match cursor {
            CursorKind::Serial => self.serial_cold_cursor,
            CursorKind::Parallel => self.parallel_cold_cursor,
        };
        while emitted < budget {
            if offset + bb_instrs as u64 * 4 > region_bytes {
                // Wrap to the start of the region with a taken branch.
                offset = 0;
            }
            let addr = region_base + offset;
            let next = addr + bb_instrs as u64 * 4;
            let wrap_next = next - region_base >= region_bytes;
            let done = emitted + bb_instrs as u64 >= budget;
            let (taken, target) = if wrap_next {
                (true, region_base)
            } else {
                (false, next)
            };
            self.basic_block(addr, bb_instrs, taken && !done, target);
            emitted += bb_instrs as u64;
            offset = if wrap_next { 0 } else { next - region_base };
        }
        match cursor {
            CursorKind::Serial => self.serial_cold_cursor = offset,
            CursorKind::Parallel => self.parallel_cold_cursor = offset,
        }
    }

    fn finish(self) -> ThreadTrace {
        self.builder.finish()
    }
}

#[derive(Debug, Clone, Copy)]
enum CursorKind {
    Serial,
    Parallel,
}

impl TraceGenerator {
    /// Creates a generator for `profile` at the given scale.
    ///
    /// # Panics
    ///
    /// Panics if the profile or configuration is invalid.
    pub fn new(profile: WorkloadProfile, config: GeneratorConfig) -> Self {
        profile.validate();
        config.validate();
        let layout = CodeLayout::new(
            profile.num_kernels,
            profile.kernel_bytes,
            profile.serial_footprint_bytes,
        );
        TraceGenerator {
            profile,
            config,
            layout,
        }
    }

    /// The code layout used by this generator.
    pub fn layout(&self) -> &CodeLayout {
        &self.layout
    }

    /// Generates the complete trace set: thread 0 is the master, threads
    /// `1..=num_workers` are the workers.
    pub fn generate(&self) -> TraceSet {
        let mut traces = Vec::with_capacity(self.config.num_workers + 1);
        traces.push(self.generate_thread(0));
        for tid in 1..=self.config.num_workers {
            traces.push(self.generate_thread(tid));
        }
        TraceSet::new(traces)
    }

    /// Generates the trace of a single thread (0 = master).
    pub fn generate_thread(&self, tid: usize) -> ThreadTrace {
        self.generate_thread_into(tid, Vec::new())
    }

    /// [`generate_thread`](Self::generate_thread) into `records`'
    /// allocation (its records are cleared first), so a caller generating
    /// thread after thread can reuse one record vector.
    pub fn generate_thread_into(&self, tid: usize, records: Vec<TraceRecord>) -> ThreadTrace {
        let p = &self.profile;
        let c = &self.config;
        let is_master = tid == 0;
        let mut em = Emitter::new(TraceBuilder::reusing(tid, records), tid, c.seed);

        let num_threads = c.num_workers + 1;
        let parallel_per_phase =
            (c.parallel_instructions_per_thread / c.num_phases as u64).max(1000);
        let serial_total = (p.serial_fraction / (1.0 - p.serial_fraction)
            * c.parallel_instructions_per_thread as f64) as u64;
        let serial_per_phase = serial_total / c.num_phases as u64;

        for phase in 0..c.num_phases {
            if is_master {
                em.builder.set_ipc(p.master_serial_ipc);
                self.emit_serial_section(&mut em, serial_per_phase);
                em.builder.sync(SyncEvent::ParallelStart { num_threads });
                em.builder.set_ipc(p.master_parallel_ipc);
            } else {
                em.builder.sync(SyncEvent::ParallelStart { num_threads });
                em.builder.set_ipc(p.worker_parallel_ipc);
            }

            self.emit_parallel_region(&mut em, tid, phase, parallel_per_phase);
            em.builder.sync(SyncEvent::ParallelEnd);
        }

        if is_master && serial_per_phase > 0 {
            // A short epilogue so the run ends in serial code, like a real
            // OpenMP program returning from main.
            em.builder.set_ipc(p.master_serial_ipc);
            self.emit_serial_section(&mut em, serial_per_phase / 4);
        }

        em.finish()
    }

    /// Emits one serial section of roughly `budget` instructions on the
    /// master thread: a hot loop interleaved with cold walks over the
    /// serial footprint.
    fn emit_serial_section(&self, em: &mut Emitter, budget: u64) {
        if budget == 0 {
            return;
        }
        let p = &self.profile;
        let cold_budget = (budget as f64 * p.serial_cold_fraction) as u64;
        let hot_budget = budget - cold_budget;
        // Interleave in slices so cold and hot code mix like real call
        // chains rather than forming two giant blocks.  Tiny sections (low
        // serial-fraction benchmarks at test scales) use a single slice so
        // basic-block granularity does not inflate the serial fraction.
        let slices = if budget < 2000 { 1u64 } else { 4u64 };
        for s in 0..slices {
            let hot = hot_budget / slices + u64::from(s == 0) * (hot_budget % slices);
            let cold = cold_budget / slices + u64::from(s == 0) * (cold_budget % slices);
            em.hot_loop(
                SERIAL_HOT_BASE,
                SERIAL_HOT_BYTES,
                p.serial_bb_bytes,
                hot,
                p.serial_branch_noise,
            );
            em.cold_walk(
                SERIAL_COLD_BASE,
                self.layout.serial_cold_bytes,
                p.serial_bb_bytes,
                cold,
                CursorKind::Serial,
            );
        }
    }

    /// Emits one thread's share of one parallel region (`budget`
    /// instructions split across `barriers_per_region + 1` chunks).
    fn emit_parallel_region(&self, em: &mut Emitter, tid: usize, phase: u32, budget: u64) {
        let p = &self.profile;
        let chunks = p.barriers_per_region + 1;
        for chunk in 0..chunks {
            // ±1% per-thread jitter so threads are not in artificial
            // lock-step (barrier wait times stay realistic but non-zero).
            let base_budget = budget / chunks as u64;
            let jitter = (base_budget as f64 * 0.01) as i64;
            let delta = if jitter > 0 {
                em.rng.gen_range(-jitter..=jitter)
            } else {
                0
            };
            let chunk_budget = (base_budget as i64 + delta).max(100) as u64;

            self.emit_parallel_chunk(em, tid, chunk_budget);

            if p.uses_critical_sections {
                em.builder.sync(SyncEvent::CriticalWait { id: 0 });
                em.hot_loop(CRITICAL_BASE, 256, p.parallel_bb_bytes.min(64), 48, 0.0);
                em.builder.sync(SyncEvent::CriticalSignal { id: 0 });
            }
            if chunk + 1 < chunks {
                em.builder.sync(SyncEvent::Barrier {
                    id: phase * 64 + chunk,
                });
            }
        }
    }

    /// Emits one chunk of parallel work: shared hot kernels, a shared cold
    /// walk (if the profile has one), and a small amount of thread-private
    /// code.
    fn emit_parallel_chunk(&self, em: &mut Emitter, tid: usize, budget: u64) {
        let p = &self.profile;
        let private_budget = (budget as f64 * (1.0 - p.sharing)) as u64;
        let cold_budget = (budget as f64 * p.parallel_cold_fraction) as u64;
        let hot_budget = budget.saturating_sub(private_budget + cold_budget);

        // Rotate through the kernels, splitting the hot budget evenly.
        let per_kernel = (hot_budget / self.layout.kernels.len() as u64).max(1);
        for k in &self.layout.kernels {
            em.hot_loop(
                k.base,
                k.body_bytes,
                p.parallel_bb_bytes,
                per_kernel,
                p.parallel_branch_noise,
            );
        }
        em.cold_walk(
            PARALLEL_COLD_BASE,
            PARALLEL_COLD_BYTES,
            p.parallel_bb_bytes,
            cold_budget,
            CursorKind::Parallel,
        );
        em.hot_loop(
            CodeLayout::private_base(tid),
            PRIVATE_KERNEL_BYTES,
            p.parallel_bb_bytes.min(PRIVATE_KERNEL_BYTES),
            private_budget,
            p.parallel_branch_noise,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmark::Benchmark;
    use sim_trace::{SharingStats, TraceStats};

    fn generate(b: Benchmark, cfg: GeneratorConfig) -> TraceSet {
        TraceGenerator::new(b.profile(), cfg).generate()
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(Benchmark::Lu, GeneratorConfig::small());
        let b = generate(Benchmark::Lu, GeneratorConfig::small());
        assert_eq!(a, b);
    }

    #[test]
    fn generating_into_a_used_vector_matches_a_fresh_one() {
        let generator = TraceGenerator::new(Benchmark::Lu.profile(), GeneratorConfig::small());
        let set = generator.generate();
        // Thread 2 leaves more records behind than thread 0 needs.
        let mut records = generator.generate_thread(2).into_records();
        for t in set.iter() {
            let reused = generator.generate_thread_into(t.thread().0, records);
            assert_eq!(&reused, t);
            records = reused.into_records();
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(Benchmark::Lu, GeneratorConfig::small());
        let b = generate(Benchmark::Lu, GeneratorConfig::small().with_seed(99));
        assert_ne!(a, b);
    }

    #[test]
    fn thread_count_matches_configuration() {
        let set = generate(
            Benchmark::Cg,
            GeneratorConfig {
                num_workers: 4,
                ..GeneratorConfig::small()
            },
        );
        assert_eq!(set.num_threads(), 5);
    }

    #[test]
    fn instruction_budget_is_roughly_respected() {
        let cfg = GeneratorConfig::small();
        let set = generate(Benchmark::Mg, cfg);
        for t in set.iter().skip(1) {
            let n = t.num_instructions();
            let target = cfg.parallel_instructions_per_thread;
            assert!(
                n as f64 > target as f64 * 0.8 && (n as f64) < target as f64 * 1.3,
                "worker generated {n} instructions for a target of {target}"
            );
        }
    }

    #[test]
    fn serial_fraction_matches_profile() {
        let cfg = GeneratorConfig {
            parallel_instructions_per_thread: 30_000,
            ..GeneratorConfig::small()
        };
        for b in [Benchmark::Nab, Benchmark::CoMd, Benchmark::Lu] {
            let set = generate(b, cfg);
            let stats = TraceStats::from_trace(set.master());
            let target = b.profile().serial_fraction;
            let got = stats.serial_fraction();
            assert!(
                (got - target).abs() < target * 0.3 + 0.02,
                "{b}: serial fraction {got:.3} should be close to {target:.3}"
            );
        }
    }

    #[test]
    fn basic_block_lengths_match_profile() {
        let cfg = GeneratorConfig {
            parallel_instructions_per_thread: 30_000,
            ..GeneratorConfig::small()
        };
        for b in [Benchmark::Lu, Benchmark::Cg, Benchmark::Nab] {
            let p = b.profile();
            let set = generate(b, cfg);
            let stats = TraceStats::from_trace(set.master());
            let got_parallel = stats.parallel.avg_basic_block_bytes();
            assert!(
                (got_parallel - p.parallel_bb_bytes as f64).abs()
                    < p.parallel_bb_bytes as f64 * 0.25,
                "{b}: parallel BB length {got_parallel:.1} vs profile {}",
                p.parallel_bb_bytes
            );
            if p.serial_fraction > 0.01 {
                let got_serial = stats.serial.avg_basic_block_bytes();
                assert!(
                    (got_serial - p.serial_bb_bytes as f64).abs() < p.serial_bb_bytes as f64 * 0.25,
                    "{b}: serial BB length {got_serial:.1} vs profile {}",
                    p.serial_bb_bytes
                );
            }
        }
    }

    #[test]
    fn instruction_sharing_is_high() {
        let set = generate(
            Benchmark::Lu,
            GeneratorConfig {
                num_workers: 4,
                ..GeneratorConfig::small()
            },
        );
        let sharing = SharingStats::from_trace_set(&set);
        assert!(
            sharing.dynamic_sharing > 0.95,
            "dynamic sharing should be ~99%, got {:.3}",
            sharing.dynamic_sharing
        );
        assert!(sharing.static_sharing > 0.5);
    }

    #[test]
    fn workers_only_execute_parallel_code() {
        let set = generate(Benchmark::Ft, GeneratorConfig::small());
        for t in set.iter().skip(1) {
            let stats = TraceStats::from_trace(t);
            assert_eq!(
                stats.serial.instructions, 0,
                "workers must not execute serial-region instructions"
            );
        }
    }

    #[test]
    fn master_and_workers_share_parallel_kernel_addresses() {
        let set = generate(Benchmark::Sp, GeneratorConfig::small());
        let master = TraceStats::from_trace(set.master());
        let worker = TraceStats::from_trace(set.thread(sim_trace::ThreadId(1)).unwrap());
        let master_kernel_addrs: std::collections::HashSet<_> = master
            .footprints
            .parallel_addrs
            .iter()
            .filter(|a| CodeLayout::is_shared_address(**a))
            .collect();
        let worker_kernel_addrs: std::collections::HashSet<_> = worker
            .footprints
            .parallel_addrs
            .iter()
            .filter(|a| CodeLayout::is_shared_address(**a))
            .collect();
        assert_eq!(master_kernel_addrs, worker_kernel_addrs);
    }

    #[test]
    fn bots_traces_contain_critical_sections() {
        let set = generate(Benchmark::BotsSpar, GeneratorConfig::small());
        let has_critical = set.iter().any(|t| {
            t.records().iter().any(|r| {
                matches!(
                    r,
                    sim_trace::TraceRecord::Sync(SyncEvent::CriticalWait { .. })
                )
            })
        });
        assert!(has_critical);
        let set = generate(Benchmark::Lu, GeneratorConfig::small());
        let has_critical = set.iter().any(|t| {
            t.records().iter().any(|r| {
                matches!(
                    r,
                    sim_trace::TraceRecord::Sync(SyncEvent::CriticalWait { .. })
                )
            })
        });
        assert!(!has_critical);
    }

    #[test]
    fn traces_contain_matching_parallel_start_end_pairs() {
        let cfg = GeneratorConfig::small();
        let set = generate(Benchmark::Is, cfg);
        for t in set.iter() {
            let starts = t
                .records()
                .iter()
                .filter(|r| {
                    matches!(
                        r,
                        sim_trace::TraceRecord::Sync(SyncEvent::ParallelStart { .. })
                    )
                })
                .count();
            let ends = t
                .records()
                .iter()
                .filter(|r| matches!(r, sim_trace::TraceRecord::Sync(SyncEvent::ParallelEnd)))
                .count();
            assert_eq!(starts, cfg.num_phases as usize);
            assert_eq!(ends, cfg.num_phases as usize);
        }
    }

    #[test]
    fn every_benchmark_generates_without_panicking() {
        let cfg = GeneratorConfig {
            num_workers: 2,
            parallel_instructions_per_thread: 4_000,
            num_phases: 1,
            seed: 1,
        };
        for b in Benchmark::ALL {
            let set = generate(b, cfg);
            assert!(
                set.total_instructions() > 0,
                "{b} generated an empty trace set"
            );
        }
    }

    #[test]
    #[should_panic(expected = "meaningful instruction budget")]
    fn tiny_budget_rejected() {
        GeneratorConfig {
            parallel_instructions_per_thread: 10,
            ..GeneratorConfig::small()
        }
        .validate();
    }
}
