//! The snapshot-epoch cache: what lets a long-lived reader (the `sweep
//! serve` process) answer concurrent queries from one coherent store view
//! while writers keep publishing.
//!
//! An [`Epoch`] is the [`Catalog`] built over one [`StoreSnapshot`] and
//! validated against it: the in-memory rows of one coherent generation
//! view.  The snapshot (and its open segment handles) lives only while
//! the catalog is built, so an epoch holds no file open.  Readers obtain
//! the current epoch as an `Arc` and answer entirely from its rows —
//! **zero segment value reads** when the persisted index was fresh at
//! build time.
//!
//! [`EpochCache::current`] is the poll point: it runs
//! [`DiskStore::refresh`] (which folds new segment files and records
//! appended to known ones) and compares the snapshot fingerprint against
//! the pinned epoch.  A changed fingerprint rolls to a new epoch *without
//! blocking in-flight readers* — they keep their `Arc` to the old epoch,
//! whose rows stay valid after a compaction unlinks the segments they
//! came from.  A roll whose catalog had to be scan-built persists the
//! index so the next roll (or process) loads it with zero value reads.
//!
//! A rebuild that fails mid-roll (a racing compaction can delete a
//! segment between the listing and the scan) keeps serving the previous
//! epoch and retries on the next poll — staleness over an outage.

use crate::catalog::{Catalog, CatalogSource};
use crate::index;
use crate::snapshot::StoreSnapshot;
use crate::store::DiskStore;
use parking_lot::Mutex;
use std::io;
use std::sync::Arc;

/// One coherent, immutable store view: the catalog validated against one
/// snapshot.  Cheaply shared (`Arc`) across reader threads.
#[derive(Debug)]
pub struct Epoch {
    seq: u64,
    fingerprint: u64,
    catalog: Catalog,
}

impl Epoch {
    /// Monotone epoch number, starting at 1 for the first build.
    #[must_use]
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The snapshot fingerprint this epoch was validated against.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The catalog answering queries for this epoch.
    #[must_use]
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }
}

/// The cache: a [`DiskStore`] handle plus the currently pinned epoch.
///
/// Lock order: `roll` is always taken before `current`, never the
/// reverse — `current` is only ever held for a pointer read or swap.
#[derive(Debug)]
pub struct EpochCache {
    store: DiskStore,
    /// The pinned epoch; `None` only before the first successful build.
    current: Mutex<Option<Arc<Epoch>>>,
    /// Serialises rebuilds so concurrent pollers that both observe a stale
    /// fingerprint do not scan the store twice.
    roll: Mutex<()>,
}

impl EpochCache {
    /// Wraps an open store.  No epoch is built yet; the first
    /// [`current`](EpochCache::current) call builds it.
    #[must_use]
    pub fn new(store: DiskStore) -> Self {
        EpochCache {
            store,
            current: Mutex::new(None),
            roll: Mutex::new(()),
        }
    }

    /// The underlying store handle.
    #[must_use]
    pub fn store(&self) -> &DiskStore {
        &self.store
    }

    /// Returns the epoch matching the store's current on-disk state,
    /// refreshing the store and rolling to a new epoch if a writer
    /// published since the pinned one.  In-flight holders of older epochs
    /// are unaffected.
    ///
    /// # Errors
    ///
    /// Returns the I/O error only when no epoch exists yet *and* the
    /// first build fails; once an epoch is pinned, a failed rebuild
    /// (e.g. a racing compaction) serves the previous epoch instead.
    pub fn current(&self) -> io::Result<Arc<Epoch>> {
        match self.poll() {
            Ok(epoch) => Ok(epoch),
            Err(e) => {
                let previous = self.current.lock().clone();
                match previous {
                    Some(epoch) => {
                        acmp_obs::logline!(
                            "epoch rebuild failed ({e}); serving epoch {} until the next poll",
                            epoch.seq()
                        );
                        Ok(epoch)
                    }
                    None => Err(e),
                }
            }
        }
    }

    /// Refreshes, fingerprints, and returns a matching (possibly new)
    /// epoch.
    fn poll(&self) -> io::Result<Arc<Epoch>> {
        self.store.refresh();
        let snapshot = self.store.snapshot()?;
        let fingerprint = index::snapshot_fingerprint(&snapshot);
        if let Some(epoch) = self.pinned(fingerprint) {
            return Ok(epoch);
        }
        self.roll_to(fingerprint, &snapshot)
    }

    /// The pinned epoch, if it matches `fingerprint`.
    fn pinned(&self, fingerprint: u64) -> Option<Arc<Epoch>> {
        let current = self.current.lock();
        current
            .as_ref()
            .filter(|e| e.fingerprint == fingerprint)
            .cloned()
    }

    /// Builds and installs the epoch for `fingerprint`.  One roll at a
    /// time: pollers that queued behind the winner find the fresh epoch
    /// on the re-check and skip their own build.
    fn roll_to(&self, fingerprint: u64, snapshot: &StoreSnapshot) -> io::Result<Arc<Epoch>> {
        let _rolling = self.roll.lock();
        if let Some(epoch) = self.pinned(fingerprint) {
            return Ok(epoch);
        }
        let catalog = Catalog::open_at(&self.store, snapshot)?;
        // A scan-built catalog means no fresh persisted index existed;
        // persist it so the next roll — and the next process — answers
        // with zero value reads.  Failure to persist is not failure to
        // serve.
        if catalog.source() == CatalogSource::Scan && !catalog.rows().is_empty() {
            if let Err(e) = catalog.persist(&self.store) {
                acmp_obs::logline!("epoch index persist failed ({e}); serving from memory");
            }
        }
        let mut current = self.current.lock();
        let seq = current.as_ref().map_or(1, |prev| prev.seq + 1);
        if seq > 1 {
            acmp_obs::counter!(acmp_obs::names::STORE_EPOCH_ROLLS, 1);
        }
        let epoch = Arc::new(Epoch {
            seq,
            fingerprint,
            catalog,
        });
        *current = Some(Arc::clone(&epoch));
        Ok(epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RawKey;
    use std::path::PathBuf;

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "acmp-store-epoch-test-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn result_key(benchmark: &str) -> RawKey {
        RawKey::new(format!(
            "{{\"generator\":{{\"seed\":7}},\"benchmark\":\"{benchmark}\",\
             \"design\":{{\"name\":\"base\",\"sharing\":\"Private\"}}}}"
        ))
    }

    fn save_result(store: &DiskStore, benchmark: &str, cycles: u64) {
        let value: serde::Value =
            serde_json::from_str(&format!("{{\"cycles\":{cycles}}}")).unwrap();
        store.save(&result_key(benchmark), &value).unwrap();
    }

    #[test]
    fn repeated_polls_reuse_the_pinned_epoch() {
        let root = temp_root("reuse");
        let store = DiskStore::open(&root).unwrap();
        save_result(&store, "Cg", 100);
        let cache = EpochCache::new(store);
        let first = cache.current().unwrap();
        assert_eq!(first.seq(), 1);
        assert_eq!(first.catalog().rows().len(), 1);
        let again = cache.current().unwrap();
        assert!(Arc::ptr_eq(&first, &again), "no publish, no roll");
    }

    #[test]
    fn a_publish_rolls_the_epoch_without_touching_held_ones() {
        let root = temp_root("roll");
        let store = DiskStore::open(&root).unwrap();
        save_result(&store, "Cg", 100);
        let cache = EpochCache::new(store);
        let first = cache.current().unwrap();
        // A foreign writer publishes a new segment.
        let writer = DiskStore::open(&root).unwrap();
        save_result(&writer, "Lu", 300);
        let second = cache.current().unwrap();
        assert_eq!(second.seq(), 2);
        assert_eq!(second.catalog().rows().len(), 2);
        // The held epoch still answers its own coherent view.
        assert_eq!(first.catalog().rows().len(), 1);
        assert_ne!(first.fingerprint(), second.fingerprint());
    }

    #[test]
    fn an_append_to_an_indexed_segment_rolls_the_epoch() {
        // The writer's second record goes into the segment file the first
        // epoch already indexed: no new file appears, yet the next poll
        // must serve both rows, as a fresh catalog does.
        let root = temp_root("append");
        let writer = DiskStore::open(&root).unwrap();
        save_result(&writer, "Cg", 100);
        let cache = EpochCache::new(DiskStore::open(&root).unwrap());
        assert_eq!(cache.current().unwrap().catalog().rows().len(), 1);
        save_result(&writer, "Lu", 300);
        let second = cache.current().unwrap();
        assert_eq!(second.seq(), 2);
        assert_eq!(second.catalog().rows().len(), 2);
        let fresh = Catalog::open(&DiskStore::open(&root).unwrap()).unwrap();
        assert_eq!(fresh.rows().len(), 2);
    }

    #[test]
    fn a_held_epoch_survives_compaction_of_its_segments() {
        let root = temp_root("compact");
        let store = DiskStore::open(&root).unwrap();
        save_result(&store, "Cg", 100);
        let cache = EpochCache::new(store);
        let held = cache.current().unwrap();
        // Compaction rewrites into a new generation and unlinks the old
        // segments; the held epoch answers from its own rows.
        let writer = DiskStore::open(&root).unwrap();
        save_result(&writer, "Lu", 300);
        writer.compact().unwrap();
        let rows = held.catalog().rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].metric_f64("cycles"), Some(100.0));
        // And the next poll serves the compacted view.
        let fresh = cache.current().unwrap();
        assert_eq!(fresh.catalog().rows().len(), 2);
    }
}
