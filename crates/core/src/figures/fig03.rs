//! Figure 3: I-cache MPKI in serial and parallel code regions, measured on a
//! private 32 KB, 8-way, 64 B-line, LRU I-cache.

use crate::report::TextTable;
use acmp_sweep::SweepEngine;
use hpc_workloads::Benchmark;
use serde::{Deserialize, Serialize};
use sim_cache::{CacheConfig, SetAssocCache};
use sim_trace::{Region, SyncEvent, ThreadTrace, TraceRecord};

/// One benchmark's per-region MPKI.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Figure3Row {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// I-cache MPKI of the serial code regions.
    pub serial_mpki: f64,
    /// I-cache MPKI of the parallel code regions.
    pub parallel_mpki: f64,
}

/// The Figure 3 table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Figure3 {
    /// Per-benchmark rows.
    pub rows: Vec<Figure3Row>,
}

/// Replays the master thread's instruction addresses through a standard
/// 32 KB I-cache, split by region, and reports misses per kilo-instruction.
pub fn compute(engine: &SweepEngine, benchmarks: &[Benchmark]) -> Figure3 {
    let rows = engine
        .run_per_benchmark(benchmarks, |b| {
            let traces = engine.traces(b);
            let (serial_mpki, parallel_mpki) = replay_mpki(traces.master());
            Figure3Row {
                benchmark: b,
                serial_mpki,
                parallel_mpki,
            }
        })
        .into_iter()
        .map(|(_, row)| row)
        .collect();
    Figure3 { rows }
}

/// Replays one thread's trace through a 32 KB I-cache and returns
/// `(serial MPKI, parallel MPKI)`.
pub fn replay_mpki(trace: &ThreadTrace) -> (f64, f64) {
    let mut cache = SetAssocCache::new(CacheConfig::icache_32k());
    let mut region = Region::Serial;
    let mut counts = [(0u64, 0u64); 2]; // (instructions, misses) per region
    for rec in trace.records() {
        match rec {
            TraceRecord::Sync(SyncEvent::ParallelStart { .. }) => region = Region::Parallel,
            TraceRecord::Sync(SyncEvent::ParallelEnd) => region = Region::Serial,
            _ => {
                if let Some(addr) = rec.addr() {
                    let idx = match region {
                        Region::Serial => 0,
                        Region::Parallel => 1,
                    };
                    counts[idx].0 += 1;
                    if !cache.access(addr.raw()).is_hit() {
                        counts[idx].1 += 1;
                    }
                }
            }
        }
    }
    let mpki = |(instrs, misses): (u64, u64)| {
        if instrs == 0 {
            0.0
        } else {
            misses as f64 * 1000.0 / instrs as f64
        }
    };
    (mpki(counts[0]), mpki(counts[1]))
}

impl std::fmt::Display for Figure3 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Figure 3: I-cache MPKI per region (32KB, 8-way, 64B lines, LRU)"
        )?;
        let mut t = TextTable::new(vec!["benchmark", "serial", "parallel"]);
        for r in &self.rows {
            t.row(vec![
                r.benchmark.name().to_string(),
                format!("{:.2}", r.serial_mpki),
                format!("{:.2}", r.parallel_mpki),
            ]);
        }
        write!(f, "{t}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::test_support::{tiny_benchmarks, tiny_engine};

    #[test]
    fn parallel_mpki_is_negligible_except_for_coevp() {
        let engine = tiny_engine();
        let fig = compute(&engine, &tiny_benchmarks());
        // At the tiny test scale cold misses are not fully amortised, so the
        // absolute MPKI levels are checked by the paper-scale integration
        // test; here we check the qualitative ordering.
        for r in &fig.rows {
            assert!(
                r.serial_mpki > r.parallel_mpki,
                "{}: serial code misses more than parallel code",
                r.benchmark
            );
        }
        let coevp = fig
            .rows
            .iter()
            .find(|r| r.benchmark == Benchmark::CoEvp)
            .unwrap();
        assert!(
            coevp.parallel_mpki > 0.3,
            "CoEVP is the one benchmark with visible parallel MPKI, got {:.2}",
            coevp.parallel_mpki
        );
        assert!(fig.to_string().contains("Figure 3"));
    }
}
