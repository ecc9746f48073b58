//! Bus configuration.

use serde::{Deserialize, Serialize};

/// Arbitration policy of a shared bus.
///
/// The paper uses round-robin (Table I); fixed priority is provided for
/// ablation studies of the fetch/arbitration policy mentioned in the
/// conclusion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Arbitration {
    /// Rotating priority: the requester after the last granted one is
    /// considered first.
    #[default]
    RoundRobin,
    /// Fixed priority by requester index (lower index wins).
    FixedPriority,
}

/// Parameters of one instruction bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BusConfig {
    /// Propagation latency in cycles, charged once per transaction on top of
    /// any waiting time (Table I: 2 cycles).
    pub latency: u64,
    /// Bus width in bytes (Table I: 32 B).
    pub width_bytes: u64,
    /// Cache-line size in bytes; a line transfer occupies the bus for
    /// `line_size / width_bytes` cycles.
    pub line_size: u64,
    /// Arbitration policy.
    pub arbitration: Arbitration,
}

impl BusConfig {
    /// Creates a validated bus configuration.
    ///
    /// # Panics
    ///
    /// Panics if `width_bytes` or `line_size` is zero, or if the line size is
    /// not a multiple of the bus width.
    pub fn new(latency: u64, width_bytes: u64, line_size: u64, arbitration: Arbitration) -> Self {
        assert!(width_bytes > 0, "bus width must be positive");
        assert!(line_size > 0, "line size must be positive");
        assert!(
            line_size.is_multiple_of(width_bytes),
            "line size {line_size} must be a multiple of the bus width {width_bytes}"
        );
        BusConfig {
            latency,
            width_bytes,
            line_size,
            arbitration,
        }
    }

    /// The paper's I-bus: 2-cycle latency, 32 B wide, 64 B lines,
    /// round-robin arbitration.
    pub fn paper_single_bus() -> Self {
        BusConfig::new(2, 32, 64, Arbitration::RoundRobin)
    }

    /// Number of cycles a line transfer occupies the bus.
    pub fn beats_per_line(&self) -> u64 {
        self.line_size / self.width_bytes
    }
}

impl Default for BusConfig {
    fn default() -> Self {
        BusConfig::paper_single_bus()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_bus_has_two_beats() {
        let c = BusConfig::paper_single_bus();
        assert_eq!(c.beats_per_line(), 2);
        assert_eq!(c.latency, 2);
        assert_eq!(c.arbitration, Arbitration::RoundRobin);
    }

    #[test]
    fn wider_bus_has_fewer_beats() {
        let c = BusConfig::new(2, 64, 64, Arbitration::RoundRobin);
        assert_eq!(c.beats_per_line(), 1);
    }

    #[test]
    #[should_panic(expected = "multiple of the bus width")]
    fn rejects_mismatched_width() {
        BusConfig::new(2, 48, 64, Arbitration::RoundRobin);
    }

    #[test]
    fn default_is_paper_bus() {
        assert_eq!(BusConfig::default(), BusConfig::paper_single_bus());
    }
}
