//! `acmp-store` — the layered, generational result store behind the sweep
//! stack.
//!
//! The crate is organised as explicit layers, each built strictly on the
//! one below:
//!
//! 1. **Segment log** ([`segment`]) — append-only packed segment files of
//!    self-verifying records (`{"key":…,"crc":…,"value":…}` per line).
//! 2. **Key index** ([`store`]) — [`DiskStore`] scans the log once at open
//!    and keeps an in-memory index of *verified* records, addressed by the
//!    stable FNV-1a digest ([`stable_hash`]) of a canonical key.
//! 3. **Snapshot** ([`snapshot`]) — [`StoreSnapshot`] pins the live record
//!    set *and* open file handles to every backing segment, so concurrent
//!    appends and even compactions never change what an open snapshot
//!    reads.
//! 4. **Catalog** ([`catalog`]) — a typed [`ResultRow`] view (benchmark,
//!    design family, scale, flattened numeric metrics) over the result
//!    records of a snapshot.
//! 5. **Persisted index** ([`index`]) — the catalog's digest-sorted rows
//!    written as an index segment, fingerprinted against the key index so
//!    staleness is detected at open and the index is rebuilt
//!    deterministically after maintenance.
//! 6. **Queries** ([`query`]) — a conjunctive filter grammar with top-k
//!    ranking ([`Query`]) answered by one pass over the catalog's rows: a
//!    warm query performs zero segment value reads (counted by
//!    `acmp_obs::names::STORE_VALUE_READS`).
//!
//! The store is key-type agnostic: anything implementing [`StoreKey`] — a
//! canonical string plus its precomputed digest — can be stored.  The sweep
//! engine's `JobKey` implements it; [`RawKey`] is the plain owned variant
//! for tools and tests.

pub mod catalog;
pub mod compact;
pub mod epoch;
pub mod index;
pub mod query;
pub mod segment;
pub mod snapshot;
pub mod stable_hash;
pub mod store;

pub use catalog::{Catalog, CatalogSource, ResultRow};
pub use compact::CompactStats;
pub use epoch::{Epoch, EpochCache};
pub use index::{IndexStats, IndexStatus};
pub use query::{Cmp, Filter, Query, QueryHit};
pub use snapshot::StoreSnapshot;
pub use store::{DiskStore, ImportStats, StoreStats};

/// A key the store can address: a canonical (deterministic) string identity
/// plus its precomputed [`stable_hash::fnv1a`] digest.  The digest indexes;
/// the canonical string disambiguates digest collisions, so implementors
/// must keep the two consistent (`digest == fnv1a(canonical)`).
pub trait StoreKey {
    /// The canonical string identity of this key.
    fn canonical(&self) -> &str;
    /// The FNV-1a digest of [`canonical`](StoreKey::canonical).
    fn digest(&self) -> u64;
}

/// The plain owned [`StoreKey`]: a canonical string with its digest
/// computed at construction.  Used by tools (and tests) that address the
/// store without a domain key type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawKey {
    canonical: String,
    digest: u64,
}

impl RawKey {
    /// Wraps a canonical string, computing its digest.
    #[must_use]
    pub fn new(canonical: impl Into<String>) -> Self {
        let canonical = canonical.into();
        let digest = stable_hash::fnv1a(canonical.as_bytes());
        RawKey { canonical, digest }
    }
}

impl StoreKey for RawKey {
    fn canonical(&self) -> &str {
        &self.canonical
    }

    fn digest(&self) -> u64 {
        self.digest
    }
}

#[cfg(test)]
mod crate_tests {
    use super::*;

    #[test]
    fn raw_keys_precompute_their_digest() {
        let k = RawKey::new("{\"generator\":1}");
        assert_eq!(k.canonical(), "{\"generator\":1}");
        assert_eq!(k.digest(), stable_hash::fnv1a(b"{\"generator\":1}"));
    }

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DiskStore>();
        assert_send_sync::<StoreSnapshot>();
        assert_send_sync::<Catalog>();
    }
}
