//! Calibrated per-benchmark workload profiles.
//!
//! The numeric values below are calibrated against the paper's own
//! characterisation of the 24 workloads:
//!
//! * `serial_fraction` follows Fig. 13 (most benchmarks are below 2 %; nab
//!   and CoMD exceed 20 %).
//! * `serial_bb_bytes` / `parallel_bb_bytes` follow Fig. 2 (parallel basic
//!   blocks are ~3× longer on average; nab and CoEVP are the two exceptions
//!   with longer serial blocks).
//! * `serial_cold_fraction` / `parallel_cold_fraction` control the I-cache
//!   MPKI per region (Fig. 3, Fig. 11 labels): a cold-walked instruction
//!   touches code with no short-term reuse, so MPKI ≈ 62 × cold_fraction for
//!   4-byte instructions and 64-byte lines.  Parallel code has essentially
//!   zero MPKI except CoEVP (1.27 in the paper).
//! * `kernel_bytes` (the hot-loop working set) determines the line-buffer
//!   hit rate, hence the I-cache access ratio of Fig. 9 and the bus pressure
//!   of Figs. 7 and 10: benchmarks with short basic blocks (CG, IS, bots*,
//!   CoSP) have tiny kernels that fit in four line buffers, while BT, LU,
//!   ilbdc and LULESH stream multi-kilobyte bodies.
//! * `sharing` follows Fig. 4 (~99 % of dynamically executed instructions
//!   are common to all threads).
//! * IPC values stand in for the measured i7 (master) / Cortex-A9 (worker)
//!   commit rates.

use crate::benchmark::Benchmark;
use serde::{Deserialize, Serialize};

/// Parameters describing one HPC workload for the synthetic trace generator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkloadProfile {
    /// Which benchmark this profile describes.
    pub benchmark: Benchmark,
    /// Fraction of the master thread's dynamic instructions executed in
    /// serial regions (Fig. 13 x-axis), in `[0, 1)`.
    pub serial_fraction: f64,
    /// Average dynamic basic-block length in serial code, in bytes (Fig. 2).
    pub serial_bb_bytes: u32,
    /// Average dynamic basic-block length in parallel code, in bytes
    /// (Fig. 2).
    pub parallel_bb_bytes: u32,
    /// Static code footprint of the serial region in bytes; walked by the
    /// cold fraction of serial instructions.
    pub serial_footprint_bytes: u64,
    /// Fraction of serial instructions that walk cold code (controls the
    /// serial I-cache MPKI of Fig. 3).
    pub serial_cold_fraction: f64,
    /// Size in bytes of one hot parallel loop body (the per-kernel working
    /// set seen by the line buffers).
    pub kernel_bytes: u32,
    /// Number of distinct parallel kernels (loop nests) the benchmark
    /// cycles through; the total parallel footprint is
    /// `kernel_bytes × num_kernels` plus the cold region.
    pub num_kernels: u32,
    /// Fraction of parallel instructions that walk cold code (controls the
    /// parallel MPKI; essentially zero except CoEVP).
    pub parallel_cold_fraction: f64,
    /// Fraction of dynamically executed parallel instructions common to all
    /// threads (Fig. 4); the remainder executes thread-private code.
    pub sharing: f64,
    /// Fraction of non-loop-back branches in parallel code with
    /// data-dependent (unpredictable) outcomes.
    pub parallel_branch_noise: f64,
    /// Fraction of non-loop-back branches in serial code with
    /// data-dependent outcomes (the paper reports 3.8× higher branch MPKI in
    /// serial code).
    pub serial_branch_noise: f64,
    /// Master-core commit rate in serial regions (i7-like IPC).
    pub master_serial_ipc: f64,
    /// Master-core commit rate in parallel regions.
    pub master_parallel_ipc: f64,
    /// Worker-core commit rate in parallel regions (Cortex-A9-like IPC).
    pub worker_parallel_ipc: f64,
    /// Whether the benchmark uses critical sections (the BOTS task-parallel
    /// codes do).
    pub uses_critical_sections: bool,
    /// Number of barrier synchronisations inside each parallel region.
    pub barriers_per_region: u32,
}

impl WorkloadProfile {
    /// Returns the calibrated profile of `benchmark`.
    pub fn for_benchmark(benchmark: Benchmark) -> Self {
        use Benchmark::*;
        // Columns:                        ser%   bbS  bbP   serFootKB serCold  kernB nK  parCold  share  pNoise sNoise  mIPCs mIPCp wIPC  crit  barriers
        let p = match benchmark {
            Bt => Self::build(
                benchmark, 0.005, 48, 240, 48, 0.13, 6144, 2, 0.0002, 0.995, 0.01, 0.06, 1.8, 1.5,
                0.9, false, 2,
            ),
            Cg => Self::build(
                benchmark, 0.010, 32, 64, 32, 0.24, 192, 3, 0.0, 0.990, 0.02, 0.08, 1.5, 1.2, 0.6,
                false, 2,
            ),
            Dc => Self::build(
                benchmark, 0.020, 40, 96, 192, 0.80, 1024, 4, 0.0, 0.985, 0.02, 0.10, 1.4, 1.2,
                0.7, false, 1,
            ),
            Ep => Self::build(
                benchmark, 0.010, 40, 128, 24, 0.08, 896, 2, 0.0, 0.998, 0.01, 0.05, 2.0, 1.6, 1.0,
                false, 1,
            ),
            Ft => Self::build(
                benchmark, 0.040, 44, 132, 48, 0.32, 1536, 3, 0.0, 0.995, 0.01, 0.06, 1.9, 1.5,
                0.9, false, 2,
            ),
            Is => Self::build(
                benchmark, 0.080, 32, 56, 32, 0.19, 128, 2, 0.0, 0.990, 0.02, 0.08, 1.6, 1.3, 0.6,
                false, 1,
            ),
            Lu => Self::build(
                benchmark, 0.005, 48, 320, 40, 0.10, 8192, 1, 0.0002, 0.997, 0.01, 0.05, 1.9, 1.6,
                1.0, false, 2,
            ),
            Mg => Self::build(
                benchmark, 0.020, 44, 140, 56, 0.29, 2048, 4, 0.0, 0.995, 0.01, 0.06, 1.8, 1.5,
                0.8, false, 2,
            ),
            Sp => Self::build(
                benchmark, 0.010, 48, 200, 48, 0.16, 5120, 2, 0.0002, 0.996, 0.01, 0.06, 1.8, 1.5,
                0.9, false, 2,
            ),
            Ua => Self::build(
                benchmark, 0.050, 40, 96, 64, 0.40, 448, 6, 0.0002, 0.992, 0.02, 0.08, 1.7, 1.4,
                1.1, false, 2,
            ),
            Md => Self::build(
                benchmark, 0.003, 48, 180, 24, 0.13, 4096, 2, 0.0, 0.997, 0.01, 0.05, 1.9, 1.6,
                0.9, false, 1,
            ),
            Bwaves => Self::build(
                benchmark, 0.005, 56, 300, 32, 0.16, 7168, 1, 0.0, 0.997, 0.01, 0.05, 2.0, 1.7,
                1.0, false, 1,
            ),
            Nab => Self::build(
                benchmark, 0.220, 120, 80, 40, 0.24, 768, 3, 0.0, 0.990, 0.02, 0.04, 1.8, 1.4, 0.8,
                false, 1,
            ),
            BotsSpar => Self::build(
                benchmark, 0.020, 40, 72, 48, 0.32, 256, 3, 0.0, 0.988, 0.03, 0.09, 1.5, 1.2, 0.7,
                true, 1,
            ),
            BotsAlgn => Self::build(
                benchmark, 0.010, 36, 60, 40, 0.29, 192, 3, 0.0, 0.985, 0.03, 0.09, 1.5, 1.2, 0.7,
                true, 1,
            ),
            Ilbdc => Self::build(
                benchmark, 0.003, 48, 330, 24, 0.08, 8192, 1, 0.0, 0.998, 0.01, 0.04, 2.0, 1.7,
                1.0, false, 1,
            ),
            Fma3d => Self::build(
                benchmark, 0.050, 56, 120, 96, 0.48, 1536, 4, 0.0, 0.993, 0.02, 0.07, 1.7, 1.4,
                0.8, false, 2,
            ),
            Imagick => Self::build(
                benchmark, 0.030, 44, 110, 128, 0.72, 1280, 4, 0.0, 0.992, 0.02, 0.08, 1.6, 1.3,
                0.9, false, 1,
            ),
            Smithwa => Self::build(
                benchmark, 0.020, 40, 80, 48, 0.35, 512, 3, 0.0, 0.990, 0.02, 0.08, 1.6, 1.3, 0.8,
                false, 1,
            ),
            Kdtree => Self::build(
                benchmark, 0.010, 36, 64, 40, 0.24, 256, 3, 0.0, 0.988, 0.03, 0.08, 1.5, 1.2, 0.7,
                false, 1,
            ),
            CoEvp => Self::build(
                benchmark, 0.100, 150, 100, 64, 0.56, 2048, 8, 0.020, 0.990, 0.02, 0.04, 1.7, 1.4,
                0.8, false, 2,
            ),
            CoMd => Self::build(
                benchmark, 0.200, 56, 130, 16, 0.16, 2048, 3, 0.0, 0.995, 0.01, 0.05, 1.9, 1.5,
                0.9, false, 2,
            ),
            CoSp => Self::build(
                benchmark, 0.030, 40, 60, 48, 0.40, 192, 3, 0.0, 0.988, 0.03, 0.09, 1.5, 1.2, 0.6,
                false, 1,
            ),
            Lulesh => Self::build(
                benchmark, 0.070, 52, 280, 56, 0.19, 6144, 2, 0.0, 0.996, 0.01, 0.05, 1.9, 1.6,
                1.0, false, 2,
            ),
        };
        p.validate();
        p
    }

    #[allow(clippy::too_many_arguments)]
    fn build(
        benchmark: Benchmark,
        serial_fraction: f64,
        serial_bb_bytes: u32,
        parallel_bb_bytes: u32,
        serial_footprint_kb: u64,
        serial_cold_fraction: f64,
        kernel_bytes: u32,
        num_kernels: u32,
        parallel_cold_fraction: f64,
        sharing: f64,
        parallel_branch_noise: f64,
        serial_branch_noise: f64,
        master_serial_ipc: f64,
        master_parallel_ipc: f64,
        worker_parallel_ipc: f64,
        uses_critical_sections: bool,
        barriers_per_region: u32,
    ) -> Self {
        WorkloadProfile {
            benchmark,
            serial_fraction,
            serial_bb_bytes,
            parallel_bb_bytes,
            serial_footprint_bytes: serial_footprint_kb * 1024,
            serial_cold_fraction,
            kernel_bytes,
            num_kernels,
            parallel_cold_fraction,
            sharing,
            parallel_branch_noise,
            serial_branch_noise,
            master_serial_ipc,
            master_parallel_ipc,
            worker_parallel_ipc,
            uses_critical_sections,
            barriers_per_region,
        }
    }

    /// Checks that every parameter is in its valid range.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is out of range.
    pub fn validate(&self) {
        assert!(
            (0.0..1.0).contains(&self.serial_fraction),
            "serial fraction out of range"
        );
        assert!(self.serial_bb_bytes >= 8 && self.parallel_bb_bytes >= 8);
        assert!(self.serial_footprint_bytes >= 1024);
        assert!((0.0..=1.0).contains(&self.serial_cold_fraction));
        assert!((0.0..=1.0).contains(&self.parallel_cold_fraction));
        assert!(self.kernel_bytes >= 64, "a kernel spans at least one line");
        assert!(self.num_kernels >= 1);
        assert!((0.0..=1.0).contains(&self.sharing));
        assert!((0.0..=1.0).contains(&self.parallel_branch_noise));
        assert!((0.0..=1.0).contains(&self.serial_branch_noise));
        for ipc in [
            self.master_serial_ipc,
            self.master_parallel_ipc,
            self.worker_parallel_ipc,
        ] {
            assert!(ipc.is_finite() && ipc > 0.0, "IPC values must be positive");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_profiles_validate() {
        for b in Benchmark::ALL {
            WorkloadProfile::for_benchmark(b).validate();
        }
    }

    #[test]
    fn parallel_basic_blocks_are_longer_on_average() {
        // Fig. 2: ~3x longer in parallel code, with nab and CoEVP as the
        // documented exceptions.
        let mut ratio_sum = 0.0;
        let mut exceptions = Vec::new();
        for b in Benchmark::ALL {
            let p = b.profile();
            ratio_sum += p.parallel_bb_bytes as f64 / p.serial_bb_bytes as f64;
            if p.serial_bb_bytes > p.parallel_bb_bytes {
                exceptions.push(b);
            }
        }
        let mean_ratio = ratio_sum / Benchmark::ALL.len() as f64;
        assert!(
            mean_ratio > 2.0,
            "parallel blocks should be much longer on average, got {mean_ratio:.2}"
        );
        assert_eq!(
            exceptions,
            vec![Benchmark::Nab, Benchmark::CoEvp],
            "only nab and CoEVP have longer serial basic blocks"
        );
    }

    #[test]
    fn only_coevp_has_nonnegligible_parallel_cold_fraction() {
        for b in Benchmark::ALL {
            let p = b.profile();
            if b == Benchmark::CoEvp {
                assert!(p.parallel_cold_fraction > 0.01);
            } else {
                assert!(
                    p.parallel_cold_fraction < 0.001,
                    "{b} should have near-zero parallel MPKI"
                );
            }
        }
    }

    #[test]
    fn serial_fractions_match_figure_13_groups() {
        assert!(Benchmark::Nab.profile().serial_fraction > 0.15);
        assert!(Benchmark::CoMd.profile().serial_fraction > 0.15);
        assert!(Benchmark::Lu.profile().serial_fraction < 0.01);
        let below_2pc = Benchmark::ALL
            .iter()
            .filter(|b| b.profile().serial_fraction <= 0.02)
            .count();
        assert!(
            below_2pc >= 12,
            "most benchmarks have tiny serial fractions"
        );
    }

    #[test]
    fn sharing_is_high_for_all_benchmarks() {
        for b in Benchmark::ALL {
            assert!(
                b.profile().sharing >= 0.98,
                "{b}: instruction sharing should be ~99%"
            );
        }
    }

    #[test]
    fn bots_benchmarks_use_critical_sections() {
        assert!(Benchmark::BotsSpar.profile().uses_critical_sections);
        assert!(Benchmark::BotsAlgn.profile().uses_critical_sections);
        assert!(!Benchmark::Lu.profile().uses_critical_sections);
    }

    #[test]
    fn worker_ipc_is_lower_than_master_ipc() {
        for b in Benchmark::ALL {
            let p = b.profile();
            assert!(p.worker_parallel_ipc < p.master_serial_ipc);
        }
    }

    #[test]
    fn coevp_parallel_footprint_exceeds_a_32k_cache() {
        // CoEVP's hot kernels alone cover at least half of a 32 KB I-cache;
        // together with its cold-walk fraction this is the one benchmark
        // with a non-negligible parallel MPKI (1.27 in the paper).
        let p = Benchmark::CoEvp.profile();
        assert!(p.kernel_bytes as u64 * p.num_kernels as u64 >= 16 * 1024);
    }
}
