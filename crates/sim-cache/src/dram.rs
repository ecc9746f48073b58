//! Simple DRAM timing model.
//!
//! Table I of the paper only says "timing parameters = standard" and that
//! the values match the Micron DDR3-1600 specification.  For instruction
//! fills — which are rare and have high row-buffer locality — a row-buffer
//! model with DDR3-1600-like parameters (CL-tRCD-tRP = 11-11-11 at 800 MHz,
//! expressed in CPU cycles at a 2 GHz core clock, i.e. ×2.5) captures the
//! relevant behaviour: a row hit costs roughly CL, a row miss roughly
//! tRP + tRCD + CL.

use serde::{Deserialize, Serialize};

/// DRAM timing and organisation parameters (in CPU cycles).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DramConfig {
    /// Column access latency (CAS) in CPU cycles.
    pub cas_cycles: u64,
    /// Row-to-column delay (tRCD) in CPU cycles.
    pub rcd_cycles: u64,
    /// Row precharge time (tRP) in CPU cycles.
    pub rp_cycles: u64,
    /// Data-transfer time for one 64 B line in CPU cycles.
    pub burst_cycles: u64,
    /// Row (page) size in bytes.
    pub row_size: u64,
    /// Number of banks (each bank keeps one open row).
    pub num_banks: u64,
}

impl DramConfig {
    /// DDR3-1600 11-11-11 timing expressed in cycles of a 2 GHz core.
    ///
    /// 11 memory-bus cycles at 800 MHz = 13.75 ns ≈ 28 CPU cycles at 2 GHz;
    /// a 64 B burst (4 beats of a 64-bit DDR interface) takes 2.5 ns ≈ 5 CPU
    /// cycles.
    pub fn ddr3_1600() -> Self {
        DramConfig {
            cas_cycles: 28,
            rcd_cycles: 28,
            rp_cycles: 28,
            burst_cycles: 5,
            row_size: 8 * 1024,
            num_banks: 8,
        }
    }
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig::ddr3_1600()
    }
}

/// An open-row DRAM model with per-bank row buffers.
#[derive(Debug)]
pub struct Dram {
    config: DramConfig,
    /// Open row per bank, indexed by bank number.
    open_rows: Vec<Option<u64>>,
}

impl Dram {
    /// Creates a DRAM with the given timing.
    pub fn new(config: DramConfig) -> Self {
        Dram {
            config,
            open_rows: vec![None; config.num_banks as usize],
        }
    }

    /// The timing parameters.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Performs one line read at `addr`, returning its latency in CPU
    /// cycles.
    pub fn access(&mut self, addr: u64) -> u64 {
        let row = addr / self.config.row_size;
        let bank = (row % self.config.num_banks) as usize;
        let open = self.open_rows[bank].replace(row);
        let row_hit = open == Some(row);
        if row_hit {
            self.config.cas_cycles + self.config.burst_cycles
        } else {
            let precharge = if open.is_some() {
                self.config.rp_cycles
            } else {
                0
            };
            precharge + self.config.rcd_cycles + self.config.cas_cycles + self.config.burst_cycles
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_hit_is_cheaper_than_row_miss() {
        let mut d = Dram::new(DramConfig::ddr3_1600());
        let first = d.access(0x0000); // bank 0, opens row 0 (no precharge)
        let hit = d.access(0x0040); // same row
        assert!(hit < first || first == hit, "first access has no precharge");
        // Conflict: a different row in the same bank (row + num_banks).
        let cfg = *d.config();
        let conflict_addr = cfg.row_size * cfg.num_banks;
        let miss = d.access(conflict_addr);
        assert!(
            miss > hit,
            "row conflict {miss} should exceed row hit {hit}"
        );
        assert_eq!(hit, cfg.cas_cycles + cfg.burst_cycles);
        assert_eq!(miss, first + cfg.rp_cycles, "a conflict also precharges");
    }

    #[test]
    fn sequential_lines_mostly_hit_the_row() {
        let mut d = Dram::new(DramConfig::ddr3_1600());
        let cfg = *d.config();
        let row_hit = cfg.cas_cycles + cfg.burst_cycles;
        // An 8 KB row holds 128 lines: only the first access opens it.
        let hits = (0..128u64).filter(|i| d.access(i * 64) == row_hit).count();
        assert_eq!(hits, 127);
    }

    #[test]
    fn different_banks_keep_independent_rows() {
        let mut d = Dram::new(DramConfig::ddr3_1600());
        let cfg = *d.config();
        d.access(0); // bank 0, row 0
        d.access(cfg.row_size); // bank 1, row 1
                                // Returning to bank 0's open row is still a hit.
        let lat = d.access(0x40);
        assert_eq!(lat, cfg.cas_cycles + cfg.burst_cycles);
    }

    #[test]
    fn default_config_is_ddr3_1600() {
        assert_eq!(DramConfig::default(), DramConfig::ddr3_1600());
    }
}
