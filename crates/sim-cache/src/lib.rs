//! Cache and memory models for the shared-I-cache ACMP simulator.
//!
//! This crate provides the storage-side building blocks of the simulated
//! machine:
//!
//! * [`SetAssocCache`] — a set-associative cache with LRU replacement
//!   ([`LruPolicy`]), per-access hit/miss classification (including
//!   compulsory vs non-compulsory misses, needed for the paper's Fig. 11
//!   analysis) and statistics.
//! * [`BankedCache`] — a multi-banked wrapper interleaving lines across
//!   banks (even/odd lines for the double-bus configuration of Section IV-B).
//! * [`L2Cache`] and [`Dram`] — the backing levels with the latencies of
//!   Table I (L2: 1 MB, 32-way, 20 cycles; DRAM: DDR3-1600-like timing).
//!
//! The caches keep no in-flight state.  Fills on their way from the L2, and
//! the requests of other sharing cores that wait on them (the paper's
//! "mutual prefetching"), are tracked by the I-cache unit in `sim-acmp`.
//!
//! All caches here are *functional with latency parameters*: they answer
//! "hit or miss, and which miss class" immediately, and expose the latency
//! that the cycle-level machine model in `sim-acmp` charges.
//!
//! # Example
//!
//! ```
//! use sim_cache::{CacheConfig, SetAssocCache, AccessOutcome};
//!
//! let mut icache = SetAssocCache::new(CacheConfig::icache_32k());
//! let first = icache.access(0x1000);
//! assert!(matches!(first, AccessOutcome::Miss { .. }));
//! let second = icache.access(0x1000);
//! assert!(matches!(second, AccessOutcome::Hit));
//! ```

pub mod banked;
pub mod config;
pub mod dram;
pub mod hashing;
pub mod l2;
pub mod replacement;
pub mod set_assoc;
pub mod stats;

pub use banked::BankedCache;
pub use config::CacheConfig;
pub use dram::{Dram, DramConfig};
pub use hashing::{LineHashBuilder, LineHasher};
pub use l2::{L2Cache, L2Config};
pub use replacement::LruPolicy;
pub use set_assoc::{AccessOutcome, MissKind, SetAssocCache};
pub use stats::CacheStats;

#[cfg(test)]
mod crate_tests {
    use super::*;

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SetAssocCache>();
        assert_send_sync::<BankedCache>();
        assert_send_sync::<L2Cache>();
        assert_send_sync::<Dram>();
        assert_send_sync::<CacheStats>();
    }
}
