//! The instruction-side memory system: I-cache units, buses, L2.
//!
//! An [`IcacheUnit`] serves one set of cores: a single core for the private
//! baseline, or a sharing group of `cpc` cores (optionally including the
//! master) reached through an [`sim_interconnect::IcacheInterconnect`].
//! Requests are tracked from submission to delivery so the machine can
//! attribute stall cycles to the right CPI-stack bucket (waiting for the bus
//! grant, in transfer, or waiting for an L2 fill).
//!
//! Mutual prefetching, the paper's case for sharing, is modelled in one
//! place: a unit's `pending_fills`, its record of the L2 fills in flight.
//! A request that reaches the cache while a fill for its line is pending
//! waits for that fill instead of missing again; once the fill retires, the
//! line is resident and other cores hit on it.  No capacity limits the
//! fills in flight.

use crate::config::{AcmpConfig, SharingMode};
use sim_cache::{AccessOutcome, CacheStats, L2Cache, SetAssocCache};
use sim_interconnect::{BusStats, Grant, IcacheInterconnect};

/// Where an in-flight request currently is (used for stall attribution).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestPhase {
    /// Submitted to a shared bus, not yet granted (counts as *I-bus
    /// congestion*).
    WaitingGrant,
    /// Granted and in transfer / accessing a cache that hit (counts as
    /// *I-bus latency* for shared caches, *I-cache latency* for private
    /// ones).
    HitPath,
    /// The access missed and an L2/DRAM fill is outstanding (counts as
    /// *I-cache latency*).
    MissPath,
}

/// One in-flight line-fetch request.
#[derive(Debug, Clone, Copy)]
pub struct InFlightRequest {
    /// Global core id that issued the request.
    pub core: usize,
    /// Line-aligned address.
    pub line: u64,
    /// Cycle at which the line can be delivered to the core (meaningful once
    /// the request left the `WaitingGrant` phase).
    pub ready: u64,
    /// Current phase.
    pub phase: RequestPhase,
    /// Whether the unit serving this request is shared (changes how the
    /// hit-path phase is attributed).
    pub shared: bool,
}

/// One I-cache (private or shared) together with its bus and backing L2.
#[derive(Debug)]
pub struct IcacheUnit {
    /// Global core ids served by this unit.
    cores: Vec<usize>,
    /// One cache, whatever the bus count: the double bus's even/odd banks
    /// change which bus a line takes (`IcacheInterconnect::bus_of`), not
    /// the capacity or replacement of the cache behind them.
    cache: SetAssocCache,
    l2: L2Cache,
    /// `None` for private units (the single core reaches the cache
    /// directly).
    interconnect: Option<IcacheInterconnect>,
    /// `(line, completion cycle)` of each outstanding L2 fill, at most one
    /// per line.  A core has at most one request per line buffer in flight,
    /// so the list stays short and a linear scan beats hashing.
    pending_fills: Vec<(u64, u64)>,
    /// Earliest completion cycle in `pending_fills` (`u64::MAX` when empty);
    /// lets `tick`/`retire_fills_through` skip the scan entirely.
    fills_min: u64,
    /// Reused per-tick buffer for the interconnect's grants.
    grants: Vec<Grant>,
}

impl IcacheUnit {
    /// Creates a unit serving `cores`; `shared` selects whether a bus sits
    /// between the cores and the cache.
    pub fn new(
        config: &AcmpConfig,
        cores: Vec<usize>,
        shared: bool,
        cache_cfg: sim_cache::CacheConfig,
    ) -> Self {
        assert!(
            !cores.is_empty(),
            "an I-cache unit serves at least one core"
        );
        let interconnect = if shared {
            Some(IcacheInterconnect::new(
                config.bus,
                config.bus_width.num_buses(),
                cores.len(),
            ))
        } else {
            None
        };
        IcacheUnit {
            cores,
            cache: SetAssocCache::new(cache_cfg),
            l2: L2Cache::new(config.l2),
            interconnect,
            pending_fills: Vec::new(),
            fills_min: u64::MAX,
            grants: Vec::new(),
        }
    }

    /// Whether this unit has a shared bus in front of it.
    pub fn is_shared(&self) -> bool {
        self.interconnect.is_some()
    }

    /// Global core ids served by this unit.
    pub fn cores(&self) -> &[usize] {
        &self.cores
    }

    /// The local requester index of `core` on this unit's bus.
    fn local_index(&self, core: usize) -> usize {
        self.cores
            .iter()
            .position(|&c| c == core)
            .expect("core does not belong to this I-cache unit")
    }

    /// Aggregate I-cache statistics.
    pub fn cache_stats(&self) -> &CacheStats {
        self.cache.stats()
    }

    /// Aggregate bus statistics (zeroed for private units).
    pub fn bus_stats(&self) -> BusStats {
        self.interconnect
            .as_ref()
            .map(|ic| ic.stats())
            .unwrap_or_default()
    }

    /// L2 statistics.
    pub fn l2_stats(&self) -> &CacheStats {
        self.l2.stats()
    }

    /// Accepts a new line-fetch request from `core` at `cycle`.
    ///
    /// For private units the cache is accessed immediately; for shared units
    /// the request is queued on the bus and the returned request sits in the
    /// `WaitingGrant` phase.
    pub fn submit(&mut self, cycle: u64, core: usize, line: u64) -> InFlightRequest {
        // `local_index` only reads `self.cores`, so it is computed up front
        // to keep the mutable borrow of the interconnect short.
        let local = self.interconnect.is_some().then(|| self.local_index(core));
        if let (Some(interconnect), Some(local)) = (self.interconnect.as_mut(), local) {
            interconnect.submit(cycle, local, line);
            InFlightRequest {
                core,
                line,
                ready: u64::MAX,
                phase: RequestPhase::WaitingGrant,
                shared: true,
            }
        } else {
            let (ready, phase) = self.access_cache(cycle, line, 0);
            InFlightRequest {
                core,
                line,
                ready,
                phase,
                shared: false,
            }
        }
    }

    /// Retires completed L2 fills up to and including `cycle`.  This is
    /// exactly the retirement half of
    /// [`IcacheUnit::tick`]; it is idempotent, so the idle-skip scheduler
    /// calls it to catch up over skipped cycles before the machine resumes
    /// (a fill must be retired before a same-cycle submission re-misses on
    /// its line).
    pub fn retire_fills_through(&mut self, cycle: u64) {
        if self.fills_min > cycle {
            return;
        }
        let mut remaining_min = u64::MAX;
        self.pending_fills.retain(|&(_, ready)| {
            let pending = ready > cycle;
            if pending {
                remaining_min = remaining_min.min(ready);
            }
            pending
        });
        self.fills_min = remaining_min;
    }

    /// Advances the unit by one cycle: completes L2 fills and grants bus
    /// transactions.  Appends to `updates`, in bus order, the requests that
    /// left the `WaitingGrant` phase this cycle with their resolved timing,
    /// so the caller can reuse one buffer every cycle.
    pub fn tick(&mut self, cycle: u64, updates: &mut Vec<InFlightRequest>) {
        // No fill completes and no bus has a request to grant: nothing to do.
        if self.fills_min > cycle
            && self
                .interconnect
                .as_ref()
                .is_none_or(|ic| ic.pending_requests() == 0)
        {
            return;
        }
        self.retire_fills_through(cycle);

        let Some(interconnect) = self.interconnect.as_mut() else {
            return;
        };
        interconnect.tick(cycle, &mut self.grants);
        for i in 0..self.grants.len() {
            let grant = self.grants[i];
            let core = self.cores[grant.requester];
            let transfer = grant.transfer_done_cycle - grant.grant_cycle;
            let (ready, phase) = self.access_cache(grant.grant_cycle, grant.line_addr, transfer);
            updates.push(InFlightRequest {
                core,
                line: grant.line_addr,
                ready,
                phase,
                shared: true,
            });
        }
        self.grants.clear();
    }

    /// Performs the cache lookup for a request that has reached the cache
    /// (immediately for private units, at grant time for shared ones) and
    /// returns when the line will be available plus the phase to attribute.
    ///
    /// `transfer_cycles` is the bus propagation + data-return time that must
    /// elapse on top of the cache/L2 latency.
    ///
    /// `pending_fills` is where mutual prefetching is modelled: a miss
    /// records its fill there, and a later request for the line while that
    /// fill is in flight waits for it.  No capacity limits the fills in
    /// flight.
    fn access_cache(&mut self, cycle: u64, line: u64, transfer_cycles: u64) -> (u64, RequestPhase) {
        // A fill already in flight for this line (requested by another core
        // of the group): piggyback on it instead of accessing again.
        if let Some(&(_, fill_ready)) = self.pending_fills.iter().find(|&&(l, _)| l == line) {
            let ready = fill_ready.max(cycle + transfer_cycles);
            return (ready, RequestPhase::MissPath);
        }

        match self.cache.access(line) {
            AccessOutcome::Hit => (
                cycle + transfer_cycles + self.cache.latency(),
                RequestPhase::HitPath,
            ),
            AccessOutcome::Miss { .. } => {
                let fill_latency = self.l2.fill(line);
                let ready = cycle + transfer_cycles + self.cache.latency() + fill_latency;
                self.pending_fills.push((line, ready));
                self.fills_min = self.fills_min.min(ready);
                (ready, RequestPhase::MissPath)
            }
        }
    }
}

/// Builds the I-cache units for a configuration: which cores share which
/// cache.
pub fn build_units(config: &AcmpConfig) -> Vec<IcacheUnit> {
    let num_cores = config.num_cores();
    match config.sharing {
        SharingMode::Private => (0..num_cores)
            .map(|c| {
                let cache = if c == 0 {
                    config.master_icache
                } else {
                    config.worker_icache
                };
                IcacheUnit::new(config, vec![c], false, cache)
            })
            .collect(),
        SharingMode::WorkerShared { cores_per_cache } => {
            let mut units = vec![IcacheUnit::new(
                config,
                vec![0],
                false,
                config.master_icache,
            )];
            let mut group = Vec::new();
            for w in 1..num_cores {
                group.push(w);
                if group.len() == cores_per_cache {
                    units.push(IcacheUnit::new(
                        config,
                        std::mem::take(&mut group),
                        true,
                        config.worker_icache,
                    ));
                }
            }
            assert!(
                group.is_empty(),
                "cores-per-cache must divide the worker count"
            );
            units
        }
        SharingMode::AllShared => {
            vec![IcacheUnit::new(
                config,
                (0..num_cores).collect(),
                true,
                config.worker_icache,
            )]
        }
    }
}

/// Returns, for each core id, the index of the unit that serves it.
pub fn unit_of_core(units: &[IcacheUnit], num_cores: usize) -> Vec<usize> {
    let mut map = vec![usize::MAX; num_cores];
    for (u, unit) in units.iter().enumerate() {
        for &c in unit.cores() {
            map[c] = u;
        }
    }
    assert!(
        map.iter().all(|&u| u != usize::MAX),
        "every core must be served by exactly one I-cache unit"
    );
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AcmpConfig, BusWidth};

    /// Ticks `unit` once, returning that cycle's updates.
    fn tick(unit: &mut IcacheUnit, cycle: u64) -> Vec<InFlightRequest> {
        let mut updates = Vec::new();
        unit.tick(cycle, &mut updates);
        updates
    }

    #[test]
    fn baseline_builds_one_private_unit_per_core() {
        let cfg = AcmpConfig::baseline(8);
        let units = build_units(&cfg);
        assert_eq!(units.len(), 9);
        assert!(units.iter().all(|u| !u.is_shared()));
        let map = unit_of_core(&units, 9);
        assert_eq!(map, (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn cpc_4_builds_two_worker_groups_plus_master() {
        let cfg = AcmpConfig::worker_shared(8, 4);
        let units = build_units(&cfg);
        assert_eq!(units.len(), 3);
        assert!(!units[0].is_shared());
        assert_eq!(units[0].cores(), &[0]);
        assert_eq!(units[1].cores(), &[1, 2, 3, 4]);
        assert_eq!(units[2].cores(), &[5, 6, 7, 8]);
        assert!(units[1].is_shared() && units[2].is_shared());
    }

    #[test]
    fn all_shared_builds_a_single_unit() {
        let cfg = AcmpConfig::all_shared(8);
        let units = build_units(&cfg);
        assert_eq!(units.len(), 1);
        assert_eq!(units[0].cores().len(), 9);
        assert!(units[0].is_shared());
    }

    #[test]
    fn private_unit_answers_hits_after_one_cycle() {
        let cfg = AcmpConfig::baseline(1);
        let mut unit = IcacheUnit::new(&cfg, vec![1], false, cfg.worker_icache);
        let miss = unit.submit(10, 1, 0x1000);
        assert_eq!(miss.phase, RequestPhase::MissPath);
        assert!(miss.ready > 11, "a cold miss goes to L2");
        // Wait for the fill to retire, then a hit is 1 cycle.
        let _ = tick(&mut unit, miss.ready + 1);
        let hit = unit.submit(miss.ready + 2, 1, 0x1000);
        assert_eq!(hit.phase, RequestPhase::HitPath);
        assert_eq!(hit.ready, miss.ready + 3);
        assert_eq!(unit.cache_stats().hits, 1);
    }

    #[test]
    fn shared_unit_goes_through_the_bus() {
        let cfg = AcmpConfig::worker_shared(2, 2);
        let mut unit = IcacheUnit::new(&cfg, vec![1, 2], true, cfg.worker_icache);
        let req = unit.submit(0, 1, 0x0000);
        assert_eq!(req.phase, RequestPhase::WaitingGrant);
        let updates = tick(&mut unit, 0);
        assert_eq!(updates.len(), 1);
        assert_eq!(updates[0].core, 1);
        assert!(updates[0].ready > 4, "cold miss: bus + L2");
        assert_eq!(unit.bus_stats().transactions, 1);
    }

    /// Ticks `unit` from cycle `from` until it has granted `n` requests,
    /// returning each with the cycle that granted it.
    fn grants(unit: &mut IcacheUnit, from: u64, n: usize) -> Vec<(u64, InFlightRequest)> {
        let mut granted = Vec::new();
        for cycle in from..from + 1_000 {
            granted.extend(tick(unit, cycle).into_iter().map(|r| (cycle, r)));
            if granted.len() == n {
                return granted;
            }
        }
        panic!("{} of {n} requests granted in 1000 cycles", granted.len());
    }

    /// Cycles from a grant until the line reaches the cache: the bus's
    /// propagation latency plus one beat per bus-width chunk of the line.
    fn transfer_cycles(cfg: &AcmpConfig) -> u64 {
        cfg.bus.latency + cfg.bus.beats_per_line()
    }

    #[test]
    fn mshr_merges_requests_from_two_cores_for_the_same_line() {
        let cfg = AcmpConfig::worker_shared(2, 2);
        let mut unit = IcacheUnit::new(&cfg, vec![1, 2], true, cfg.worker_icache);
        unit.submit(0, 1, 0x0000);
        unit.submit(0, 2, 0x0000);
        let granted = grants(&mut unit, 0, 2);
        let (_, first) = granted[0];
        let (second_grant, second) = granted[1];
        assert_eq!((first.core, second.core), (1, 2));
        assert_eq!(first.phase, RequestPhase::MissPath);
        // The second request finds the first one's fill in flight: it
        // waits for that fill (or its own transfer, if that ends later)
        // and issues no L2 access of its own.
        assert_eq!(second.phase, RequestPhase::MissPath);
        assert_eq!(
            second.ready,
            first.ready.max(second_grant + transfer_cycles(&cfg))
        );
        assert_eq!(unit.l2_stats().accesses, 1);
    }

    #[test]
    fn a_shared_unit_keeps_more_than_eight_fills_in_flight() {
        let cfg = AcmpConfig::worker_shared(4, 4);
        let mut unit = IcacheUnit::new(&cfg, vec![1, 2, 3, 4], true, cfg.worker_icache);
        let lines: Vec<u64> = (0..12u64).map(|i| 0x4000 + i * 64).collect();
        for (i, &line) in lines.iter().enumerate() {
            unit.submit(0, 1 + i % 4, line);
        }
        let first = grants(&mut unit, 0, lines.len());
        // The same L2 in front of the same DRAM, fed the lines in grant
        // order, gives each fill's latency.
        let mut l2 = sim_cache::L2Cache::new(cfg.l2);
        for &(grant, request) in &first {
            assert_eq!(request.phase, RequestPhase::MissPath);
            let expected =
                grant + transfer_cycles(&cfg) + cfg.worker_icache.latency + l2.fill(request.line);
            assert_eq!(request.ready, expected, "line {:#x}", request.line);
        }
        // A second request for each line, granted while all 12 fills are
        // in flight, waits for its line's fill and accesses no L2.
        let now = first[first.len() - 1].0 + 1;
        for (i, &line) in lines.iter().enumerate() {
            unit.submit(now, 1 + (i + 1) % 4, line);
        }
        let second = grants(&mut unit, now, lines.len());
        let fills_min = first.iter().map(|&(_, r)| r.ready).min().unwrap();
        for &(grant, request) in &second {
            assert!(grant < fills_min, "granted after a fill retired");
            let (_, fill) = first.iter().find(|(_, r)| r.line == request.line).unwrap();
            assert_eq!(request.phase, RequestPhase::MissPath);
            assert_eq!(request.ready, fill.ready, "line {:#x}", request.line);
        }
        assert_eq!(unit.l2_stats().accesses, 12);
    }

    #[test]
    fn cross_core_prefetching_turns_later_requests_into_hits() {
        let cfg = AcmpConfig::worker_shared(2, 2);
        let mut unit = IcacheUnit::new(&cfg, vec![1, 2], true, cfg.worker_icache);
        // Core 1 fetches the line and the fill completes.
        let r = unit.submit(0, 1, 0x0000);
        assert_eq!(r.phase, RequestPhase::WaitingGrant);
        let first = tick(&mut unit, 0);
        let ready = first[0].ready;
        let _ = tick(&mut unit, ready + 1);
        // Core 2 now requests the same line: it hits in the shared cache.
        unit.submit(ready + 2, 2, 0x0000);
        let updates = tick(&mut unit, ready + 2);
        assert_eq!(updates[0].phase, RequestPhase::HitPath);
        assert_eq!(unit.cache_stats().hits, 1);
        assert_eq!(unit.cache_stats().compulsory_misses, 1);
    }

    #[test]
    fn a_second_bus_changes_routing_not_the_cache() {
        // Four even and four odd lines, fetched twice through a single and
        // through a double bus.  The second bus serves the odd lines beside
        // the even ones; what the cache holds, and so counts, is the same.
        let lines: Vec<u64> = (0..8u64).map(|i| 0x8000 + i * 64).collect();
        let mut last_grants = Vec::new();
        let mut stats = Vec::new();
        for width in [BusWidth::Single, BusWidth::Double] {
            let cfg = AcmpConfig::worker_shared(4, 4).with_bus_width(width);
            let mut unit = IcacheUnit::new(&cfg, vec![1, 2, 3, 4], true, cfg.worker_icache);
            for (i, &line) in lines.iter().enumerate() {
                unit.submit(0, 1 + i % 4, line);
            }
            let first = grants(&mut unit, 0, lines.len());
            assert!(first.iter().all(|(_, r)| r.phase == RequestPhase::MissPath));
            last_grants.push(first[first.len() - 1].0);
            // Every fill has retired once the latest one is ready.
            let now = first.iter().map(|(_, r)| r.ready).max().unwrap() + 1;
            assert!(tick(&mut unit, now).is_empty());
            for (i, &line) in lines.iter().enumerate() {
                unit.submit(now, 1 + i % 4, line);
            }
            let second = grants(&mut unit, now, lines.len());
            assert!(second.iter().all(|(_, r)| r.phase == RequestPhase::HitPath));
            stats.push(*unit.cache_stats());
        }
        assert_eq!(stats[0], stats[1]);
        assert_eq!((stats[0].misses, stats[0].hits), (8, 8));
        assert!(last_grants[1] < last_grants[0], "{last_grants:?}");
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn empty_unit_rejected() {
        let cfg = AcmpConfig::baseline(1);
        IcacheUnit::new(&cfg, vec![], false, cfg.worker_icache);
    }
}
