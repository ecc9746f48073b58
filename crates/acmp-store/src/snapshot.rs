//! Immutable generation snapshots: a cheap consistent view of the store.
//!
//! A [`StoreSnapshot`] captures, under the store lock, the live record set
//! *and an open file handle to every backing segment*.  That pair is what
//! makes the view immutable for free:
//!
//! * segments are append-only, so a snapshotted record's `(offset, len)`
//!   span never changes underneath the snapshot, no matter how much is
//!   appended after it;
//! * compaction and generation eviction delete segments *by path* —
//!   unlinking a file a snapshot holds open leaves its bytes readable
//!   through the retained handle until the snapshot is dropped (standard
//!   POSIX unlink semantics).
//!
//! So concurrent appends, compactions and evictions never change what an
//! open snapshot reads; re-reading any record returns byte-identical data
//! for the snapshot's whole lifetime.  The [`Catalog`](crate::Catalog) is
//! built over a snapshot for exactly this reason: its row set corresponds
//! to one coherent generation view even while a sweep keeps writing.

use crate::store::{read_exact_at, DiskStore};
use std::fs::File;
use std::io;
use std::path::PathBuf;
use std::sync::Arc;

/// One live record pinned by a snapshot.
#[derive(Debug, Clone)]
struct SnapshotEntry {
    digest: u64,
    canonical: String,
    segment: usize,
    offset: u64,
    len: u64,
    crc: u64,
}

/// Metadata of one snapshotted record (no value bytes — reading those is
/// explicit and counted).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordMeta<'a> {
    /// The key digest of the record.
    pub digest: u64,
    /// The canonical key of the record.
    pub canonical: &'a str,
    /// Record line length in bytes (without the newline).
    pub len: u64,
    /// The record's verified value checksum.
    pub crc: u64,
}

/// An immutable view of a store's live record set, pinned against
/// concurrent appends, compactions and evictions by retained file handles.
/// Entries iterate in stable digest order.
#[derive(Debug)]
pub struct StoreSnapshot {
    entries: Vec<SnapshotEntry>,
    /// Open handle per snapshotted segment id; `None` if the file could
    /// not be opened at snapshot time (its entries then error on read).
    files: Vec<Option<Arc<File>>>,
    /// Segment paths, kept for error messages and the non-unix fallback.
    paths: Vec<PathBuf>,
}

impl DiskStore {
    /// Takes a snapshot of the current live record set.  The segments
    /// backing every live record are opened (and held open) before the
    /// store lock is released, so nothing that happens to the store
    /// afterwards can change what this snapshot reads.
    ///
    /// # Errors
    ///
    /// Returns the I/O error only if the snapshot metadata cannot be
    /// assembled; an individual unreadable segment surfaces later, on the
    /// first read of one of its records.
    pub fn snapshot(&self) -> io::Result<StoreSnapshot> {
        let inner = self.inner.lock();
        let paths: Vec<PathBuf> = inner.segments.clone();
        let files: Vec<Option<Arc<File>>> = paths
            .iter()
            .map(|p| File::open(p).ok().map(Arc::new))
            .collect();
        let mut entries: Vec<SnapshotEntry> = inner
            .index
            .iter()
            .map(|(digest, e)| SnapshotEntry {
                digest: *digest,
                canonical: e.canonical.clone(),
                segment: e.segment,
                offset: e.offset,
                len: e.len,
                crc: e.crc,
            })
            .collect();
        entries.sort_unstable_by(|a, b| {
            a.digest
                .cmp(&b.digest)
                .then_with(|| a.canonical.cmp(&b.canonical))
        });
        Ok(StoreSnapshot {
            entries,
            files,
            paths,
        })
    }
}

impl StoreSnapshot {
    /// Number of live records in the snapshot.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the snapshot holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates the records' metadata in digest order.
    pub fn iter(&self) -> impl Iterator<Item = RecordMeta<'_>> {
        self.entries.iter().map(|e| RecordMeta {
            digest: e.digest,
            canonical: &e.canonical,
            len: e.len,
            crc: e.crc,
        })
    }

    /// Reads the raw record line of the `i`-th entry (digest order).  This
    /// is a segment value fetch and counts against
    /// `acmp_obs::names::STORE_VALUE_READS`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the pinned segment cannot be read.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn read_record(&self, i: usize) -> io::Result<String> {
        let entry = &self.entries[i];
        acmp_obs::counter!(acmp_obs::names::STORE_VALUE_READS, 1);
        let mut buf = vec![0u8; entry.len as usize];
        match &self.files[entry.segment] {
            Some(file) => read_exact_at(file, &mut buf, entry.offset)?,
            None => {
                return Err(io::Error::new(
                    io::ErrorKind::NotFound,
                    format!(
                        "segment {} was unreadable at snapshot time",
                        self.paths[entry.segment].display()
                    ),
                ))
            }
        }
        String::from_utf8(buf).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RawKey;

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "acmp-store-snapshot-test-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn key(name: &str) -> RawKey {
        RawKey::new(format!("{{\"generator\":1,\"benchmark\":\"{name}\"}}"))
    }

    #[test]
    fn snapshots_iterate_in_digest_order() {
        let store = DiskStore::open(temp_root("order")).unwrap();
        for n in ["cg", "lu", "ep", "mg"] {
            store.save(&key(n), &n.to_string()).unwrap();
        }
        let snap = store.snapshot().unwrap();
        assert_eq!(snap.len(), 4);
        let digests: Vec<u64> = snap.iter().map(|m| m.digest).collect();
        let mut sorted = digests.clone();
        sorted.sort_unstable();
        assert_eq!(digests, sorted);
    }

    #[test]
    fn snapshot_reads_survive_compaction_and_new_appends() {
        let store = DiskStore::open(temp_root("stable")).unwrap();
        let k = key("cg");
        store.save(&k, &vec![1u64, 2, 3]).unwrap();
        let snap = store.snapshot().unwrap();
        assert_eq!(snap.len(), 1);
        let before = snap.read_record(0).unwrap();

        // Overwrite the key, append more, and compact — which deletes the
        // very segment file the snapshot pinned.
        store.save(&k, &vec![9u64]).unwrap();
        store.save(&key("lu"), &7u64).unwrap();
        store.compact().unwrap();

        // The snapshot still reads the pre-compaction bytes, exactly.
        let after = snap.read_record(0).unwrap();
        assert_eq!(before, after);
        assert!(after.contains("[1,2,3]"));
        // The store itself serves the new value.
        assert_eq!(store.load::<Vec<u64>>(&k), Some(vec![9]));
    }
}
