//! Simulation results.

use serde::{Deserialize, Serialize};
use sim_cache::CacheStats;
use sim_core::CpiStack;
use sim_frontend::{LineBufferStats, PredictorStats};
use sim_interconnect::BusStats;

/// Per-core report extracted at the end of a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoreReport {
    /// Core id (0 is the master).
    pub core: usize,
    /// Instructions committed.
    pub instructions: u64,
    /// CPI stack (commit and stall cycles by cause).
    pub cpi: CpiStack,
    /// Line-buffer statistics (I-cache access ratio).
    pub line_buffers: LineBufferStats,
    /// Branch predictor statistics.
    pub predictor: PredictorStats,
    /// Fetch blocks produced by the fetch predictor.
    pub fetch_blocks: u64,
}

/// The result of simulating one benchmark on one machine configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimResult {
    /// Total simulated cycles (wall-clock of the run).
    pub cycles: u64,
    /// Total committed instructions across all cores.
    pub instructions: u64,
    /// Cycles spent inside parallel regions.
    pub parallel_cycles: u64,
    /// Cycles spent outside parallel regions (serial phases).
    pub serial_cycles: u64,
    /// Per-core reports (index 0 is the master).
    pub cores: Vec<CoreReport>,
    /// Aggregate statistics of the worker I-caches (private ones summed, or
    /// the shared ones summed across groups).
    pub worker_icache: CacheStats,
    /// Statistics of the master's I-cache (identical to the worker entry in
    /// the all-shared configuration).
    pub master_icache: CacheStats,
    /// Aggregate I-bus statistics across sharing groups (zero for the
    /// private baseline).
    pub bus: BusStats,
    /// Aggregate L2 statistics over every I-cache unit.
    pub l2: CacheStats,
    /// Fork/join regions completed.
    pub parallel_regions: u64,
}

impl SimResult {
    /// Instructions committed by the worker cores only.
    pub fn worker_instructions(&self) -> u64 {
        self.cores.iter().skip(1).map(|c| c.instructions).sum()
    }

    /// Worker I-cache misses per kilo worker instruction (the paper's MPKI
    /// metric for Figs. 3 and 11).
    pub fn worker_icache_mpki(&self) -> f64 {
        self.worker_icache.mpki(self.worker_instructions())
    }

    /// Average I-cache access ratio over the worker cores (Fig. 9).
    pub fn worker_access_ratio(&self) -> f64 {
        let workers: Vec<_> = self.cores.iter().skip(1).collect();
        if workers.is_empty() {
            return 0.0;
        }
        workers
            .iter()
            .map(|c| c.line_buffers.access_ratio())
            .sum::<f64>()
            / workers.len() as f64
    }

    /// Sum of the worker cores' CPI stacks.
    pub fn worker_cpi_stack(&self) -> CpiStack {
        self.cores.iter().skip(1).map(|c| c.cpi).sum()
    }

    /// Overall instructions per cycle across the whole machine.
    pub fn machine_ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(core: usize, instructions: u64) -> CoreReport {
        let mut cpi = CpiStack::new();
        cpi.instructions = instructions;
        cpi.commit_cycles = instructions;
        CoreReport {
            core,
            instructions,
            cpi,
            line_buffers: LineBufferStats {
                line_requests: 100,
                hits: 50,
                pending_hits: 0,
                icache_accesses: 50,
                allocation_stalls: 0,
            },
            predictor: PredictorStats::default(),
            fetch_blocks: 10,
        }
    }

    fn result() -> SimResult {
        SimResult {
            cycles: 1000,
            instructions: 3000,
            parallel_cycles: 800,
            serial_cycles: 200,
            cores: vec![report(0, 1000), report(1, 1000), report(2, 1000)],
            worker_icache: CacheStats {
                accesses: 100,
                hits: 98,
                misses: 2,
                compulsory_misses: 2,
                non_compulsory_misses: 0,
                evictions: 0,
            },
            master_icache: CacheStats::default(),
            bus: BusStats::default(),
            l2: CacheStats::default(),
            parallel_regions: 2,
        }
    }

    #[test]
    fn worker_aggregates() {
        let r = result();
        assert_eq!(r.worker_instructions(), 2000);
        assert!((r.worker_icache_mpki() - 1.0).abs() < 1e-12);
        assert!((r.worker_access_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(r.worker_cpi_stack().instructions, 2000);
    }

    #[test]
    fn machine_level_metrics() {
        let r = result();
        assert!((r.machine_ipc() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn zero_cycles_are_handled() {
        let mut r = result();
        r.cycles = 0;
        assert_eq!(r.machine_ipc(), 0.0);
    }
}
