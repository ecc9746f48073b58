//! `acmp-sweep` — a parallel, sharded design-space exploration engine with
//! a persistent result store.
//!
//! The paper's conclusions come from sweeping (benchmark × design point)
//! grids: shared-I$ degree, cache size, line buffers, bus bandwidth
//! (Figs. 7–13).  This crate industrialises that workload and is the
//! execution engine behind every figure module, example and bench in the
//! workspace:
//!
//! * [`WorkStealingPool`] — fans simulation jobs out across `std::thread`
//!   workers with per-worker deques and a global injector, so unbalanced
//!   grids keep every core busy;
//! * [`ShardedMap`] — the in-memory result cache, split across
//!   independently locked shards instead of one global mutex;
//! * [`DiskStore`] — the content-addressed on-disk store (stable hash of
//!   generator config + benchmark + design point) that makes repeated runs
//!   warm-start across processes.  The store itself — segment log, key
//!   index, snapshots, catalog, secondary indexes, query planner — lives
//!   in the [`acmp-store`](acmp_store) crate, which callers import
//!   directly; this crate re-exports only [`DiskStore`] and
//!   [`StoreStats`], which its engine API returns, and implements
//!   [`StoreKey`](acmp_store::StoreKey) for [`JobKey`];
//! * [`SweepEngine`] — ties the three together behind
//!   [`simulate`](SweepEngine::simulate) / [`run_grid`](SweepEngine::run_grid),
//!   built one way only, by [`SweepEngine::builder`];
//! * [`GridSpec`] — the `benchmarks × designs` spec grammar of the `sweep`
//!   CLI binary (`cargo run -p acmp-sweep --release --bin sweep`);
//! * [`ShardSpec`] + [`merge`] — multi-process sharding: jobs partition by
//!   the stable digest of their [`JobKey`] (`--shard i/N`), shard processes
//!   share one disk store (per-process segment files, index refresh on
//!   miss), and [`merge`] validates every per-shard JSONL stream against
//!   its key schedule and k-way merges them back into the exact bytes an
//!   unsharded run emits;
//! * [`SweepManifest`] ([`manifest`]) — the signed plan every split runs
//!   from: `sweep plan` signs a manifest carrying the grid spec and every
//!   shard's expected key schedule, each shard (`sweep run --manifest …
//!   --shard i/N`) validates its grid against it before simulating, and
//!   `sweep merge` recombines the gathered per-shard JSONL files (naming
//!   missing or short shards).  `sweep run --shards N` is that pipeline on
//!   one host; across machines it needs no shared filesystem, and
//!   [`DiskStore::export_segments`] / [`DiskStore::import_segments`] ship
//!   one machine's warm store to the others as a verified bundle.
//!
//! [`DesignPoint`] (the machine configurations the paper evaluates) lives
//! here too, so the engine, the CLI and the spec grammar can name design
//! points without depending on the figure layer above.

pub mod design_point;
pub mod engine;
pub mod grid;
pub mod job;
pub mod manifest;
pub mod merge;
pub mod scheduler;
pub mod serve;
pub mod sharded;

// The store types the engine's own API returns.
pub use acmp_store::{DiskStore, StoreStats};
pub use design_point::{DesignPoint, DesignPointError};
pub use engine::{EngineStats, SweepEngine, SweepEngineBuilder, SweepOutcome, SweepRow};
pub use grid::GridSpec;
pub use job::{JobKey, ShardSpec, SweepJob};
pub use manifest::{scale_generator, SweepManifest};
pub use merge::MergeError;
pub use scheduler::{PoolStats, WorkStealingPool};
pub use sharded::{relay_prefixed, ShardedMap};

#[cfg(test)]
mod crate_tests {
    use super::*;

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DesignPoint>();
        assert_send_sync::<SweepEngine>();
        assert_send_sync::<DiskStore>();
        assert_send_sync::<ShardedMap<u64, u64>>();
    }
}
