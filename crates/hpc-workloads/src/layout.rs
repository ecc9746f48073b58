//! Synthetic code layout: where in the address space each kind of code
//! lives.
//!
//! The generator lays the benchmark's code out in disjoint regions so that
//! the sharing analysis (Fig. 4) and the shared-I-cache behaviour are
//! well defined:
//!
//! * a small *serial hot* region and a larger *serial cold* region walked by
//!   the master thread only;
//! * the *shared kernels* — the parallel hot loops executed by every thread
//!   at the same addresses (this is what makes cross-thread prefetching in a
//!   shared I-cache work);
//! * a *shared cold* region for benchmarks whose parallel code has a
//!   footprint larger than the I-cache (CoEVP);
//! * one small *private* region per thread for the non-shared fraction of
//!   the dynamic instructions.

use serde::{Deserialize, Serialize};

/// Base address of the master thread's serial hot loop.
pub const SERIAL_HOT_BASE: u64 = 0x1000_0000;
/// Base address of the serial cold-walk region.
pub const SERIAL_COLD_BASE: u64 = 0x1800_0000;
/// Base address of the shared parallel kernels.
pub const KERNEL_BASE: u64 = 0x2000_0000;
/// Spacing between consecutive kernels (they never overlap).
pub const KERNEL_STRIDE: u64 = 0x4_0000;
/// Base address of the shared parallel cold-walk region.
pub const PARALLEL_COLD_BASE: u64 = 0x2800_0000;
/// Size of the shared parallel cold-walk region in bytes (larger than any
/// evaluated I-cache, so walking it always misses).
pub const PARALLEL_COLD_BYTES: u64 = 64 * 1024;
/// Base address of the critical-section code (shared).
pub const CRITICAL_BASE: u64 = 0x2c00_0000;
/// Base address of the first thread-private region.
pub const PRIVATE_BASE: u64 = 0x3000_0000;
/// Spacing between thread-private regions.
pub const PRIVATE_STRIDE: u64 = 0x0100_0000;
/// Size of a thread-private hot loop in bytes.
pub const PRIVATE_KERNEL_BYTES: u32 = 256;
/// Size of the serial hot loop in bytes.
pub const SERIAL_HOT_BYTES: u32 = 2048;

/// Placement of one parallel kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct KernelLayout {
    /// Kernel index.
    pub index: u32,
    /// First instruction address of the kernel's loop body.
    pub base: u64,
    /// Loop-body size in bytes.
    pub body_bytes: u32,
}

/// The complete code layout for one benchmark run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CodeLayout {
    /// Shared parallel kernels.
    pub kernels: Vec<KernelLayout>,
    /// Serial hot-loop body size in bytes.
    pub serial_hot_bytes: u32,
    /// Serial cold region size in bytes.
    pub serial_cold_bytes: u64,
}

impl CodeLayout {
    /// Builds the layout for a benchmark with `num_kernels` kernels of
    /// `kernel_bytes` each and a serial cold region of
    /// `serial_footprint_bytes`.
    ///
    /// # Panics
    ///
    /// Panics if a kernel would overlap the next kernel slot.
    pub fn new(num_kernels: u32, kernel_bytes: u32, serial_footprint_bytes: u64) -> Self {
        assert!(
            (kernel_bytes as u64) < KERNEL_STRIDE,
            "kernel of {kernel_bytes} bytes does not fit in the kernel stride"
        );
        let kernels = (0..num_kernels)
            .map(|i| KernelLayout {
                index: i,
                base: KERNEL_BASE + i as u64 * KERNEL_STRIDE,
                body_bytes: kernel_bytes,
            })
            .collect();
        CodeLayout {
            kernels,
            serial_hot_bytes: SERIAL_HOT_BYTES,
            serial_cold_bytes: serial_footprint_bytes,
        }
    }

    /// Base address of thread `tid`'s private code region.
    pub fn private_base(tid: usize) -> u64 {
        PRIVATE_BASE + tid as u64 * PRIVATE_STRIDE
    }

    /// Returns `true` if `addr` belongs to code shared by all threads
    /// (kernels, shared cold region, or critical-section code).
    pub fn is_shared_address(addr: u64) -> bool {
        (KERNEL_BASE..PRIVATE_BASE).contains(&addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_are_disjoint_and_ordered() {
        let l = CodeLayout::new(8, 8192, 64 * 1024);
        for w in l.kernels.windows(2) {
            assert!(w[0].base + w[0].body_bytes as u64 <= w[1].base);
        }
        assert_eq!(l.kernels.len(), 8);
        assert_eq!(l.kernels[0].base, KERNEL_BASE);
    }

    #[test]
    fn private_regions_do_not_collide_for_many_threads() {
        for tid in 0..64 {
            let base = CodeLayout::private_base(tid);
            assert!(base >= PRIVATE_BASE);
            assert_eq!((base - PRIVATE_BASE) % PRIVATE_STRIDE, 0);
        }
        assert_ne!(CodeLayout::private_base(0), CodeLayout::private_base(1));
    }

    #[test]
    fn address_classification() {
        assert!(!CodeLayout::is_shared_address(SERIAL_HOT_BASE));
        assert!(!CodeLayout::is_shared_address(SERIAL_COLD_BASE + 0x100));
        assert!(CodeLayout::is_shared_address(KERNEL_BASE));
        assert!(CodeLayout::is_shared_address(PARALLEL_COLD_BASE));
        assert!(CodeLayout::is_shared_address(CRITICAL_BASE));
        assert!(!CodeLayout::is_shared_address(CodeLayout::private_base(0)));
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_kernel_rejected() {
        CodeLayout::new(2, KERNEL_STRIDE as u32 + 64, 1024);
    }

    #[test]
    fn region_constants_are_ordered() {
        // The bases are compile-time constants; sorting a runtime copy keeps
        // the ordering check in one place without constant-assertion lints.
        let bases = [
            SERIAL_HOT_BASE,
            SERIAL_COLD_BASE,
            KERNEL_BASE,
            PARALLEL_COLD_BASE,
            CRITICAL_BASE,
            PRIVATE_BASE,
        ];
        assert!(bases.windows(2).all(|w| w[0] < w[1]), "{bases:?}");
    }
}
