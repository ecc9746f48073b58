//! Per-layer metrics: their names and units, the per-pass sample they are
//! collected in, and the isolated replays that time the simulator's inner
//! layers, which cannot be timed inside `Machine::run` from outside.

use sim_acmp::{AcmpConfig, SharingMode, SimResult};
use sim_cache::{CacheConfig, SetAssocCache};
use sim_frontend::{FetchPredictor, PredictorConfig};
use sim_interconnect::{Bus, BusConfig};
use sim_trace::fetch_block::FetchItem;
use sim_trace::{
    FetchBlockBuilder, SharedTraceCursor, ThreadId, TraceRecord, TraceSet, TraceSource,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Every per-layer metric with its unit, in report order.  A traced run
/// reports each one; a layer that is not on a workload's path reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("hpc-workloads.generate_ms", "ms"),
    ("hpc-workloads.ns_per_instr", "ns"),
    ("sim-trace.encode_ms", "ms"),
    ("sim-trace.encoded_bytes", "bytes"),
    ("sim-trace.replay_ns_per_record", "ns"),
    ("sim-acmp.run_ms", "ms"),
    ("sim-acmp.ns_per_cycle", "ns"),
    ("sim-acmp.self_ms", "ms"),
    ("sim-acmp.cycles", "cycles"),
    ("sim-acmp.instructions", "count"),
    ("sim-core.cpi.commit", "cycles"),
    ("sim-core.cpi.icache_latency", "cycles"),
    ("sim-core.cpi.ibus_latency", "cycles"),
    ("sim-core.cpi.ibus_congestion", "cycles"),
    ("sim-core.cpi.branch_miss", "cycles"),
    ("sim-core.cpi.sync", "cycles"),
    ("sim-core.cpi.other", "cycles"),
    ("sim-cache.icache_accesses", "count"),
    ("sim-cache.icache_misses", "count"),
    ("sim-cache.l2_accesses", "count"),
    ("sim-cache.ns_per_access", "ns"),
    ("sim-cache.est_ms", "ms"),
    ("sim-interconnect.transactions", "count"),
    ("sim-interconnect.wait_cycles", "cycles"),
    ("sim-interconnect.busy_cycles", "cycles"),
    ("sim-interconnect.ns_per_grant", "ns"),
    ("sim-interconnect.est_ms", "ms"),
    ("sim-frontend.line_requests", "count"),
    ("sim-frontend.icache_access_ratio", "ratio"),
    ("sim-frontend.mispredict_ratio", "ratio"),
    ("sim-frontend.ns_per_branch", "ns"),
    ("sim-frontend.est_ms", "ms"),
    ("acmp-store.append_ms", "ms"),
    ("acmp-store.append_bytes", "bytes"),
    ("acmp-store.appends", "count"),
    ("acmp-store.refresh_us", "us"),
    ("acmp-store.open_ms", "ms"),
    ("acmp-store.open_bytes", "bytes"),
    ("acmp-store.load_us", "us"),
    ("acmp-store.loads", "count"),
    ("acmp-store.index_build_ms", "ms"),
    ("acmp-store.index_value_reads", "count"),
    ("acmp-store.index_persist_ms", "ms"),
    ("acmp-store.catalog_open_ms", "ms"),
    ("acmp-store.validate_us", "us"),
    ("acmp-store.query_us", "us"),
    ("acmp-store.query_value_reads", "count"),
    ("acmp-store.snapshot_us", "us"),
    ("acmp-store.fingerprint_us", "us"),
    ("acmp-store.epoch_current_us", "us"),
    ("acmp-store.epoch_rolls", "count"),
    ("acmp-sweep.traces_ms", "ms"),
    ("acmp-sweep.simulate_ms", "ms"),
    ("acmp-sweep.self_ms", "ms"),
    ("acmp-sweep.simulated", "count"),
    ("acmp-sweep.disk_hits", "count"),
    ("acmp-sweep.trace_generated", "count"),
    ("acmp-sweep.disk_hit_ratio", "ratio"),
    ("acmp-sweep.pool_steals", "count"),
    ("acmp-sweep.serve_parse_us", "us"),
    ("acmp-sweep.render_us", "us"),
    ("acmp-sweep.serve_transport_us", "us"),
    ("acmp-sweep.serve_disconnects", "count"),
    ("reconcile.unattributed_frac", "ratio"),
    ("reconcile.trace_overhead_frac", "ratio"),
    // Figures of one workload's own phases (0 elsewhere).
    ("store_bytes", "bytes"),
    ("cli_query_ms", "ms"),
    ("query_ms_p50", "ms"),
    ("query_ms_p99", "ms"),
    ("queries_per_s", "req/s"),
];

/// Per-layer values gathered over several traced passes; each metric is
/// reported as the median of its per-pass values.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<&'static str, Vec<f64>>,
}

impl Layers {
    /// Records one pass's value of `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in [`PER_LAYER`] (a typo in the benchmark).
    pub fn record(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.values.entry(name).or_default().push(value);
    }

    /// Records every entry of a pass sample.
    pub fn record_all(&mut self, sample: &Sample) {
        for (name, value) in &sample.0 {
            self.record(name, *value);
        }
    }

    /// The median of `name`'s values, 0 when it was never recorded.
    #[must_use]
    pub fn value(&self, name: &str) -> f64 {
        self.values
            .get(name)
            .map_or(0.0, |v| crate::stats::median(v))
    }

    /// How many values `name` has.
    #[must_use]
    pub fn samples(&self, name: &str) -> usize {
        self.values.get(name).map_or(0, Vec::len)
    }
}

/// One traced pass's values: sums of everything added under a name.
#[derive(Debug, Default, Clone)]
pub struct Sample(pub BTreeMap<&'static str, f64>);

impl Sample {
    /// Adds `value` to `name`.
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.0.entry(name).or_insert(0.0) += value;
    }

    /// Adds every entry of `other`.
    pub fn merge(&mut self, other: &Sample) {
        for (name, value) in &other.0 {
            self.add(name, *value);
        }
    }

    /// The sum under `name` (0 if nothing was added).
    #[must_use]
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Replaces `name` with `value`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// `total / count` under `name`, or nothing when `count` is zero.
    pub fn set_ratio(&mut self, name: &'static str, total: f64, count: f64) {
        if count > 0.0 {
            self.set(name, total / count);
        }
    }
}

fn nanos(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e9
}

fn first_worker(set: &TraceSet) -> &sim_trace::ThreadTrace {
    set.thread(ThreadId(1)).unwrap_or_else(|| set.master())
}

/// The fetch-line stream of the first worker thread: every line each fetch
/// block touches, in fetch order.
#[must_use]
pub fn fetch_lines(set: &TraceSet, line_size: u64) -> Vec<u64> {
    let mut builder = FetchBlockBuilder::new(first_worker(set).iter().copied());
    let mut lines = Vec::new();
    while let Some(item) = builder.next_item() {
        if let FetchItem::Block(block) = item {
            lines.extend(block.lines(line_size));
        }
    }
    lines
}

/// One isolated replay: host nanoseconds over `ops` operations.
#[derive(Debug, Default, Clone, Copy)]
pub struct Replay {
    pub ns: f64,
    pub ops: u64,
}

/// Replays `lines` through a cold `SetAssocCache` with `config`; returns
/// the timing and the lines that missed.
#[must_use]
pub fn replay_cache(lines: &[u64], config: CacheConfig) -> (Replay, Vec<u64>) {
    let mut cache = SetAssocCache::new(config);
    let mut misses = Vec::with_capacity(lines.len());
    let start = Instant::now();
    for &line in lines {
        if !cache.access(line).is_hit() {
            misses.push(line);
        }
    }
    let ns = nanos(start);
    (
        Replay {
            ns,
            ops: lines.len() as u64,
        },
        misses,
    )
}

/// Cores sharing one I-cache (and its bus) under `config`; 0 for private
/// caches, which have no bus.
#[must_use]
pub fn bus_sharers(config: &AcmpConfig) -> usize {
    match config.sharing {
        SharingMode::Private => 0,
        SharingMode::WorkerShared { cores_per_cache } => cores_per_cache,
        SharingMode::AllShared => config.num_cores(),
    }
}

/// Replays `misses` round-robin across `sharers` requesters through
/// `Bus::submit`/`Bus::tick`, each requester keeping at most four requests
/// (one per line buffer) in flight.
#[must_use]
pub fn replay_bus(misses: &[u64], config: BusConfig, sharers: usize) -> Replay {
    if sharers == 0 || misses.is_empty() {
        return Replay::default();
    }
    let mut bus = Bus::new(config, sharers);
    let in_flight = sharers * 4;
    let (mut cycle, mut next, mut granted) = (0u64, 0usize, 0u64);
    let start = Instant::now();
    while granted < misses.len() as u64 {
        if next < misses.len() && bus.pending_requests() < in_flight {
            bus.submit(cycle, next % sharers, misses[next]);
            next += 1;
        }
        if bus.tick(cycle).is_some() {
            granted += 1;
        }
        cycle += 1;
    }
    Replay {
        ns: nanos(start),
        ops: granted,
    }
}

/// Replays the first worker's branches through
/// `FetchPredictor::predict_and_train`.
#[must_use]
pub fn replay_branches(set: &TraceSet, config: PredictorConfig) -> Replay {
    let branches: Vec<(u64, bool, u64, bool)> = first_worker(set)
        .iter()
        .filter_map(|r| match r {
            TraceRecord::Branch { addr, info, .. } => {
                Some((addr.raw(), info.taken, info.target.raw(), info.indirect))
            }
            _ => None,
        })
        .collect();
    let mut predictor = FetchPredictor::new(config);
    let start = Instant::now();
    for &(pc, taken, target, indirect) in &branches {
        black_box(predictor.predict_and_train(pc, taken, target, indirect));
    }
    Replay {
        ns: nanos(start),
        ops: branches.len() as u64,
    }
}

/// Pulls every thread's records through `SharedTraceCursor::next_records`
/// in the cores' 64-record batches.
#[must_use]
pub fn replay_records(set: &Arc<TraceSet>) -> Replay {
    const BATCH: usize = 64;
    let mut buf: Vec<TraceRecord> = Vec::with_capacity(BATCH);
    let mut records = 0u64;
    let start = Instant::now();
    for thread in 0..set.num_threads() {
        let mut cursor = SharedTraceCursor::new(Arc::clone(set), ThreadId(thread));
        loop {
            buf.clear();
            let n = cursor.next_records(&mut buf, BATCH);
            if n == 0 {
                break;
            }
            records += n as u64;
            black_box(&buf);
        }
    }
    Replay {
        ns: nanos(start),
        ops: records,
    }
}

/// Adds one simulated cell's model counts to `sample`: cycles and
/// instructions, the worker CPI stack, cache, bus and front-end counters.
pub fn add_sim_counts(sample: &mut Sample, config: &AcmpConfig, r: &SimResult) {
    let u = |x: u64| x as f64;
    sample.add("sim-acmp.cycles", u(r.cycles));
    sample.add("sim-acmp.instructions", u(r.instructions));
    let cpi = r.worker_cpi_stack();
    sample.add("sim-core.cpi.commit", u(cpi.commit_cycles));
    sample.add("sim-core.cpi.icache_latency", u(cpi.icache_latency));
    sample.add("sim-core.cpi.ibus_latency", u(cpi.ibus_latency));
    sample.add("sim-core.cpi.ibus_congestion", u(cpi.ibus_congestion));
    sample.add("sim-core.cpi.branch_miss", u(cpi.branch_miss));
    sample.add("sim-core.cpi.sync", u(cpi.sync));
    sample.add("sim-core.cpi.other", u(cpi.other));
    // All-shared reports the one shared cache under both headings.
    let master = if config.sharing == SharingMode::AllShared {
        sim_cache::CacheStats::default()
    } else {
        r.master_icache
    };
    sample.add(
        "sim-cache.icache_accesses",
        u(r.worker_icache.accesses + master.accesses),
    );
    sample.add(
        "sim-cache.icache_misses",
        u(r.worker_icache.misses + master.misses),
    );
    sample.add("sim-cache.l2_accesses", u(r.l2.accesses));
    sample.add("sim-interconnect.transactions", u(r.bus.transactions));
    sample.add("sim-interconnect.wait_cycles", u(r.bus.wait_cycles));
    sample.add("sim-interconnect.busy_cycles", u(r.bus.busy_cycles));
    for core in &r.cores {
        sample.add(
            "sim-frontend.line_requests",
            u(core.line_buffers.line_requests),
        );
        sample.add(
            "frontend.icache_accesses",
            u(core.line_buffers.icache_accesses),
        );
        sample.add("frontend.branches", u(core.predictor.branches));
        sample.add("frontend.mispredicts", u(core.predictor.mispredicts()));
    }
}

/// Times the inner simulator layers of one cell by isolated replay and
/// adds their per-op timings to `sample` (ratios are taken at the end of
/// the pass by [`finish_sim_layers`]).
pub fn add_sim_replays(sample: &mut Sample, config: &AcmpConfig, traces: &TraceSet) {
    let lines = fetch_lines(traces, config.worker_icache.line_size);
    let (cache, misses) = replay_cache(&lines, config.worker_icache);
    let bus = replay_bus(&misses, config.bus, bus_sharers(config));
    let branches = replay_branches(traces, config.worker_core.frontend.predictor);
    for ((ns, ops), replay) in [
        (("replay.cache_ns", "replay.cache_ops"), cache),
        (("replay.bus_ns", "replay.bus_ops"), bus),
        (("replay.branch_ns", "replay.branch_ops"), branches),
    ] {
        sample.add(ns, replay.ns);
        sample.add(ops, replay.ops as f64);
    }
}

/// Turns a pass's accumulated counts and replays into the reported
/// ratios and estimates, and derives `sim-acmp.self_ms` from
/// `sim-acmp.run_ms`.  Returns the estimated sub-layer total in ms.
pub fn finish_sim_layers(sample: &mut Sample) -> f64 {
    let per_op = |s: &Sample, ns: &str, ops: &str| {
        let n = s.get(ops);
        if n > 0.0 {
            s.get(ns) / n
        } else {
            0.0
        }
    };
    let cache_ns = per_op(sample, "replay.cache_ns", "replay.cache_ops");
    let grant_ns = per_op(sample, "replay.bus_ns", "replay.bus_ops");
    let branch_ns = per_op(sample, "replay.branch_ns", "replay.branch_ops");
    let cache_est = cache_ns * sample.get("sim-cache.icache_accesses") / 1e6;
    let bus_est = grant_ns * sample.get("sim-interconnect.transactions") / 1e6;
    let frontend_est = branch_ns * sample.get("frontend.branches") / 1e6;
    sample.set("sim-cache.ns_per_access", cache_ns);
    sample.set("sim-cache.est_ms", cache_est);
    sample.set("sim-interconnect.ns_per_grant", grant_ns);
    sample.set("sim-interconnect.est_ms", bus_est);
    sample.set("sim-frontend.ns_per_branch", branch_ns);
    sample.set("sim-frontend.est_ms", frontend_est);
    let (requests, accesses) = (
        sample.get("sim-frontend.line_requests"),
        sample.get("frontend.icache_accesses"),
    );
    sample.set_ratio("sim-frontend.icache_access_ratio", accesses, requests);
    let (branches, mispredicts) = (
        sample.get("frontend.branches"),
        sample.get("frontend.mispredicts"),
    );
    sample.set_ratio("sim-frontend.mispredict_ratio", mispredicts, branches);
    let run_ms = sample.get("sim-acmp.run_ms");
    sample.set_ratio(
        "sim-acmp.ns_per_cycle",
        run_ms * 1e6,
        sample.get("sim-acmp.cycles"),
    );
    let estimated = cache_est + bus_est + frontend_est;
    if run_ms > 0.0 {
        sample.set("sim-acmp.self_ms", run_ms - estimated);
    }
    for scratch in [
        "replay.cache_ns",
        "replay.cache_ops",
        "replay.bus_ns",
        "replay.bus_ops",
        "replay.branch_ns",
        "replay.branch_ops",
        "frontend.icache_accesses",
        "frontend.branches",
        "frontend.mispredicts",
    ] {
        sample.0.remove(scratch);
    }
    estimated
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpc_workloads::{Benchmark, GeneratorConfig, TraceGenerator};

    #[test]
    fn replays_do_work_and_count_it() {
        let set = TraceGenerator::new(Benchmark::Cg.profile(), GeneratorConfig::small()).generate();
        let config = AcmpConfig::proposed(2);
        let lines = fetch_lines(&set, config.worker_icache.line_size);
        assert!(!lines.is_empty());
        let (cache, misses) = replay_cache(&lines, config.worker_icache);
        assert_eq!(cache.ops, lines.len() as u64);
        assert!(!misses.is_empty(), "a cold cache misses");
        let bus = replay_bus(&misses, config.bus, bus_sharers(&config));
        assert_eq!(bus.ops, misses.len() as u64);
        assert_eq!(replay_bus(&misses, config.bus, 0).ops, 0, "private: no bus");
        assert!(replay_branches(&set, config.worker_core.frontend.predictor).ops > 0);
        let set = Arc::new(set);
        assert_eq!(
            replay_records(&set).ops,
            set.iter().map(|t| t.len() as u64).sum::<u64>()
        );
    }

    #[test]
    fn every_recorded_name_is_declared() {
        let mut sample = Sample::default();
        sample.add("sim-acmp.run_ms", 10.0);
        sample.add("sim-acmp.cycles", 1000.0);
        finish_sim_layers(&mut sample);
        let mut layers = Layers::default();
        layers.record_all(&sample);
        assert_eq!(layers.value("sim-acmp.ns_per_cycle"), 10_000.0);
        assert_eq!(layers.value("sim-acmp.self_ms"), 10.0);
    }
}
