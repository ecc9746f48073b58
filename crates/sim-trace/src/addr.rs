//! Instruction addresses and cache-line alignment.
//!
//! [`InstrAddr`] is the address type of the trace records; [`line_addr`]
//! aligns a raw address down to its cache line, for fetch blocks and the
//! trace statistics.

use serde::Serialize;
use std::fmt;

/// A byte-granular instruction address.
///
/// # Example
///
/// ```
/// use sim_trace::{line_addr, InstrAddr};
/// let a = InstrAddr::new(0x1042);
/// assert_eq!(a.add(2).raw(), 0x1044);
/// assert_eq!(line_addr(a.raw(), 64), 0x1040);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
#[serde(transparent)]
pub struct InstrAddr(u64);

impl InstrAddr {
    /// Creates an instruction address from a raw value.
    pub const fn new(raw: u64) -> Self {
        InstrAddr(raw)
    }

    /// Returns the raw 64-bit value.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the address advanced by `bytes`.
    pub const fn add(self, bytes: u64) -> Self {
        InstrAddr(self.0 + bytes)
    }
}

impl fmt::Display for InstrAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for InstrAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u64> for InstrAddr {
    fn from(raw: u64) -> Self {
        InstrAddr(raw)
    }
}

impl From<InstrAddr> for u64 {
    fn from(a: InstrAddr) -> u64 {
        a.0
    }
}

/// Returns the address of the cache line containing `addr`: `addr`
/// aligned down to `line_size`.
///
/// # Panics
///
/// Panics if `line_size` is zero or not a power of two.
pub fn line_addr(addr: u64, line_size: u64) -> u64 {
    assert!(
        line_size.is_power_of_two(),
        "line size must be a non-zero power of two, got {line_size}"
    );
    addr & !(line_size - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instr_addr_line_math() {
        let a = InstrAddr::new(0x1234);
        assert_eq!(line_addr(a.raw(), 64), 0x1200);
        assert_eq!(a.add(0x10).raw(), 0x1244);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_line_size() {
        let _ = line_addr(0x1000, 48);
    }

    #[test]
    fn free_function_helpers() {
        assert_eq!(line_addr(0x107f, 64), 0x1040);
        assert_eq!(line_addr(0x1fff, 64), 0x1fc0);
        assert_eq!(line_addr(0x2000, 64), 0x2000);
    }

    #[test]
    fn line_addr_leaves_aligned_addresses_alone() {
        for shift in 0..13 {
            let line_size = 1u64 << shift;
            for k in [0, 1, 7, 1 << 20] {
                assert_eq!(line_addr(k * line_size, line_size), k * line_size);
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-zero power of two, got 0")]
    fn line_addr_rejects_a_zero_line_size() {
        let _ = line_addr(0x1000, 0);
    }

    #[test]
    fn display_is_hex() {
        assert_eq!(InstrAddr::new(0xabc).to_string(), "0xabc");
        assert_eq!(format!("{:x}", InstrAddr::new(0xabc)), "abc");
    }

    #[test]
    fn conversions_roundtrip() {
        let a: InstrAddr = 0xdead_beefu64.into();
        let raw: u64 = a.into();
        assert_eq!(raw, 0xdead_beef);
    }
}
