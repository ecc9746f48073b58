//! Instruction-address and cache-line-address arithmetic.
//!
//! The simulator manipulates two flavours of addresses: raw instruction
//! addresses ([`InstrAddr`]) and cache-line addresses ([`LineAddr`], the
//! instruction address with the intra-line offset stripped).  Newtypes keep
//! the two from being mixed up in the cache, bus and line-buffer models.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A byte-granular instruction address.
///
/// # Example
///
/// ```
/// use sim_trace::InstrAddr;
/// let a = InstrAddr::new(0x1042);
/// assert_eq!(a.line(64).raw(), 0x1040);
/// assert_eq!(a.offset_in_line(64), 2);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
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

    /// Returns the cache-line address containing this instruction for the
    /// given line size in bytes.
    ///
    /// # Panics
    ///
    /// Panics if `line_size` is zero or not a power of two.
    pub fn line(self, line_size: u64) -> LineAddr {
        LineAddr::containing(self, line_size)
    }

    /// Returns the byte offset of this address within its cache line.
    ///
    /// # Panics
    ///
    /// Panics if `line_size` is zero or not a power of two.
    pub fn offset_in_line(self, line_size: u64) -> u64 {
        assert_power_of_two(line_size);
        self.0 & (line_size - 1)
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

/// A cache-line-aligned address.
///
/// The invariant that the value is aligned to the line size is established at
/// construction time; the line size itself is not stored (all components of
/// one simulated machine agree on it through their configuration).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
#[serde(transparent)]
pub struct LineAddr(u64);

impl LineAddr {
    /// Returns the line address containing `addr` for the given line size.
    ///
    /// # Panics
    ///
    /// Panics if `line_size` is zero or not a power of two.
    pub fn containing(addr: InstrAddr, line_size: u64) -> Self {
        assert_power_of_two(line_size);
        LineAddr(addr.raw() & !(line_size - 1))
    }

    /// Creates a line address from an already aligned raw value.
    ///
    /// # Panics
    ///
    /// Panics if `raw` is not aligned to `line_size`, or if `line_size` is
    /// zero or not a power of two.
    pub fn from_aligned(raw: u64, line_size: u64) -> Self {
        assert_power_of_two(line_size);
        assert!(
            raw & (line_size - 1) == 0,
            "address {raw:#x} is not aligned to line size {line_size}"
        );
        LineAddr(raw)
    }

    /// Returns the raw aligned value.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the line index, i.e. the raw value divided by the line size.
    ///
    /// Used by banked caches to interleave lines across banks
    /// (even/odd line interleaving in the double-bus configuration).
    pub fn index(self, line_size: u64) -> u64 {
        assert_power_of_two(line_size);
        self.0 >> line_size.trailing_zeros()
    }

    /// Returns the address of the next sequential line.
    pub fn next(self, line_size: u64) -> Self {
        assert_power_of_two(line_size);
        LineAddr(self.0 + line_size)
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// Returns the line address (raw `u64`) containing `addr`.
///
/// Convenience free function used where newtypes would be noise (e.g. the
/// synthetic trace generator's layout code).
pub fn line_addr(addr: u64, line_size: u64) -> u64 {
    assert_power_of_two(line_size);
    addr & !(line_size - 1)
}

/// Returns the index of the line containing `addr` (i.e. `addr / line_size`).
pub fn line_index(addr: u64, line_size: u64) -> u64 {
    assert_power_of_two(line_size);
    addr >> line_size.trailing_zeros()
}

/// Returns the byte offset of `addr` within its line.
pub fn line_offset(addr: u64, line_size: u64) -> u64 {
    assert_power_of_two(line_size);
    addr & (line_size - 1)
}

fn assert_power_of_two(line_size: u64) {
    assert!(
        line_size.is_power_of_two(),
        "line size must be a non-zero power of two, got {line_size}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instr_addr_line_math() {
        let a = InstrAddr::new(0x1234);
        assert_eq!(a.line(64).raw(), 0x1200);
        assert_eq!(a.offset_in_line(64), 0x34);
        assert_eq!(a.add(0x10).raw(), 0x1244);
    }

    #[test]
    fn line_addr_alignment_and_index() {
        let l = LineAddr::containing(InstrAddr::new(0x1fff), 64);
        assert_eq!(l.raw(), 0x1fc0);
        assert_eq!(l.index(64), 0x1fc0 / 64);
        assert_eq!(l.next(64).raw(), 0x2000);
    }

    #[test]
    fn from_aligned_accepts_aligned() {
        let l = LineAddr::from_aligned(0x4000, 64);
        assert_eq!(l.raw(), 0x4000);
    }

    #[test]
    #[should_panic(expected = "not aligned")]
    fn from_aligned_rejects_misaligned() {
        let _ = LineAddr::from_aligned(0x4001, 64);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_line_size() {
        let _ = line_addr(0x1000, 48);
    }

    #[test]
    fn free_function_helpers() {
        assert_eq!(line_addr(0x107f, 64), 0x1040);
        assert_eq!(line_index(0x1080, 64), 0x42);
        assert_eq!(line_offset(0x1083, 64), 3);
    }

    #[test]
    fn display_is_hex() {
        assert_eq!(InstrAddr::new(0xabc).to_string(), "0xabc");
        assert_eq!(LineAddr::from_aligned(0xc0, 64).to_string(), "0xc0");
    }

    #[test]
    fn conversions_roundtrip() {
        let a: InstrAddr = 0xdead_beefu64.into();
        let raw: u64 = a.into();
        assert_eq!(raw, 0xdead_beef);
    }
}
