//! Store compaction: merge live records into a new generation.
//!
//! Appends never rewrite old data, so a long-lived store accumulates dead
//! records (overwritten keys) and segment files from many sessions.
//! [`DiskStore::compact`] copies every *live* record — byte-identically, in
//! stable digest order — into freshly written segment files of the next
//! generation, then deletes all older segments and any orphaned `.tmp`
//! files left behind by crashed writers.  The whole new generation is
//! written to uniquely named temporary files first and renamed into place
//! only once complete, so a failed or crashed write phase leaves the old
//! generation fully intact (plus at worst some orphan `.tmp` files for the
//! *next* compaction to sweep up — the sweep skips temporaries owned by
//! other live processes, so concurrent compactions of a shared store don't
//! delete each other's work in flight).
//!
//! Compaction (like generation-limited eviction) deletes segment files by
//! path, so it must not race *ordinary writers in other processes*: a
//! sweep process concurrently appending to the same store would keep
//! writing into an unlinked segment and lose those cached entries when it
//! exits.  `sweep store compact` is a maintenance command; run it while no
//! sweep is using the store, the same discipline any log-structured
//! store's offline compaction expects.  (Readers holding a
//! [`StoreSnapshot`](crate::StoreSnapshot) are safe regardless: snapshots
//! pin open file handles, and an unlinked segment stays readable through
//! them.)
//!
//! Compaction copies records byte-identically, so the content fingerprint
//! the persisted index is validated against (see [`crate::index`]) is
//! unchanged by it — a persisted index stays valid across a compact, and
//! `sweep store compact` still rebuilds it afterwards so the on-disk index
//! segment always reflects a single deterministic build of the current
//! generation.

use crate::segment::{SegmentName, SEGMENT_EXT, SEGMENT_TARGET_BYTES, TMP_EXT};
use crate::store::{next_segment_seq, read_span, DiskStore, IndexEntry, Inner};
use std::collections::HashMap;
use std::fs::OpenOptions;
use std::io::Write;
use std::path::PathBuf;

/// What one compaction pass did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompactStats {
    /// Live entries carried into the new generation.
    pub live_entries: u64,
    /// Segment files before compaction.
    pub segments_before: u64,
    /// Segment files after compaction.
    pub segments_after: u64,
    /// Bytes of segment data before compaction (live + dead).
    pub bytes_before: u64,
    /// Bytes of segment data after compaction (live only).
    pub bytes_after: u64,
    /// Old segment files deleted.
    pub removed_segments: u64,
    /// Orphaned temporary files deleted.
    pub removed_tmp: u64,
    /// The generation the live entries now live in.
    pub generation: u64,
}

impl DiskStore {
    /// Merges all live entries into segment files of a new generation,
    /// deletes every older segment and any orphaned `.tmp` files, and
    /// re-points the index at the new files.  Records are copied verbatim,
    /// so compaction can never alter a stored value.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the new segments cannot be written or
    /// renamed; in that case the store (on disk and in memory) is left as
    /// it was, and the new generation's temporaries and partial outputs
    /// are removed.
    pub fn compact(&self) -> std::io::Result<CompactStats> {
        let _span = acmp_obs::span!(acmp_obs::names::STORE_COMPACT);
        let mut inner = self.inner.lock();
        let new_generation = inner.generation + 1;
        let segments_before = inner.segments.len() as u64;
        let bytes_before: u64 = inner
            .segments
            .iter()
            .map(|p| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0))
            .sum();

        // Copy live records out in stable digest order, so two compactions
        // of equal content produce identical segment files.
        let mut digests: Vec<u64> = inner.index.keys().copied().collect();
        digests.sort_unstable();

        let (new_paths, sealed_lens, new_index, live_bytes) =
            self.write_new_generation(&inner, &digests, new_generation)?;

        // The new generation is durable; retire everything older.
        let mut removed_segments = 0u64;
        for old in &inner.segments {
            if std::fs::remove_file(old).is_ok() {
                removed_segments += 1;
            }
        }
        let removed_tmp = self.remove_orphaned_tmp_files();

        inner.folded = sealed_lens;
        inner.segments = new_paths;
        // Held read handles are indexed by the old segment ids.
        inner.files.clear();
        inner.index = new_index;
        inner.active = None;
        inner.generation = new_generation;
        inner.live_bytes = live_bytes;

        Ok(CompactStats {
            live_entries: inner.index.len() as u64,
            segments_before,
            segments_after: inner.segments.len() as u64,
            bytes_before,
            bytes_after: inner
                .segments
                .iter()
                .map(|p| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0))
                .sum(),
            removed_segments,
            removed_tmp,
            generation: new_generation,
        })
    }

    /// Writes all live records into new-generation segment files.  The
    /// entire generation goes to unique `.tmp` files first and is renamed
    /// into place only once *every* output is complete, so a failed write
    /// phase can never leave a partial new generation that a later
    /// generation-limited open would prefer over the intact old one.  On
    /// any error, every temporary and already-renamed output is removed.
    /// Returns the outputs' paths and byte lengths, the index over them and
    /// the live byte count.
    #[allow(clippy::type_complexity)]
    fn write_new_generation(
        &self,
        inner: &Inner,
        digests: &[u64],
        generation: u64,
    ) -> std::io::Result<(Vec<PathBuf>, Vec<u64>, HashMap<u64, IndexEntry>, u64)> {
        let mut new_index: HashMap<u64, IndexEntry> = HashMap::new();
        let mut live_bytes = 0u64;
        let mut sealed: Vec<(PathBuf, u64)> = Vec::new();
        let mut active: Option<(PathBuf, std::fs::File, u64)> = None;

        let mut write_all = || -> std::io::Result<()> {
            for &digest in digests {
                let entry = &inner.index[&digest];
                let record = read_span(&inner.segments[entry.segment], entry.offset, entry.len)?;

                // Roll to a new output segment past the size target.
                if active.as_ref().is_some_and(|(_, _, len)| {
                    *len > 0 && len + entry.len + 1 > SEGMENT_TARGET_BYTES
                }) {
                    if let Some((path, file, len)) = active.take() {
                        drop(file);
                        sealed.push((path, len));
                    }
                }
                if active.is_none() {
                    let tmp_path = self.unique_tmp_path("compact");
                    let file = OpenOptions::new()
                        .create_new(true)
                        .write(true)
                        .open(&tmp_path)?;
                    active = Some((tmp_path, file, 0));
                }
                // acmp-lint: allow(unwrap-in-lib) -- the None arm directly above just installed it
                let (_, file, len) = active.as_mut().expect("just installed");
                let offset = *len;
                file.write_all(record.as_bytes())?;
                file.write_all(b"\n")?;
                *len += entry.len + 1;
                new_index.insert(
                    digest,
                    IndexEntry {
                        canonical: entry.canonical.clone(),
                        // Outputs are sealed (and later renamed) in order,
                        // so this record's segment id is the sealed count.
                        segment: sealed.len(),
                        offset,
                        len: entry.len,
                        crc: entry.crc,
                    },
                );
                live_bytes += entry.len;
            }
            if let Some((path, file, len)) = active.take() {
                drop(file);
                sealed.push((path, len));
            }
            Ok(())
        };
        if let Err(e) = write_all() {
            for (path, _) in &sealed {
                let _ = std::fs::remove_file(path);
            }
            if let Some((path, _, _)) = &active {
                let _ = std::fs::remove_file(path);
            }
            return Err(e);
        }

        // Every output is complete and durable under its temporary name;
        // promote the whole generation.  A failure mid-way rolls back both
        // the renamed outputs and the remaining temporaries.
        let mut new_paths: Vec<PathBuf> = Vec::with_capacity(sealed.len());
        for (i, (tmp_path, _)) in sealed.iter().enumerate() {
            let name = SegmentName {
                generation,
                pid: std::process::id(),
                seq: next_segment_seq(),
            };
            let final_path = self.root().join(name.file_name());
            if let Err(e) = std::fs::rename(tmp_path, &final_path) {
                for renamed in &new_paths {
                    let _ = std::fs::remove_file(renamed);
                }
                for (pending, _) in &sealed[i..] {
                    let _ = std::fs::remove_file(pending);
                }
                return Err(e);
            }
            new_paths.push(final_path);
        }
        let lens = sealed.iter().map(|(_, len)| *len).collect();
        Ok((new_paths, lens, new_index, live_bytes))
    }

    /// Deletes orphaned `.tmp` files in the store directory.  Called under
    /// the store lock once the new generation is in place.  A temporary is
    /// an orphan when it belongs to this process (ours are all renamed or
    /// rolled back by now), to a process that no longer exists, or doesn't
    /// carry a recognisable owner at all — in-flight temporaries of *other
    /// live* processes compacting the same store are left alone.
    fn remove_orphaned_tmp_files(&self) -> u64 {
        let mut removed = 0u64;
        if let Ok(dir) = std::fs::read_dir(self.root()) {
            for entry in dir.flatten() {
                let name = entry.file_name();
                let Some(name) = name.to_str() else { continue };
                if !name.ends_with(&format!(".{TMP_EXT}")) {
                    continue;
                }
                let orphaned = match tmp_owner_pid(name) {
                    Some(pid) => pid == std::process::id() || !process_alive(pid),
                    None => true,
                };
                if orphaned && std::fs::remove_file(entry.path()).is_ok() {
                    removed += 1;
                }
            }
        }
        removed
    }
}

/// Extracts the owner pid from a `.{label}-{pid}-{counter}.tmp` name (the
/// layout `DiskStore::unique_tmp_path` produces).
fn tmp_owner_pid(name: &str) -> Option<u32> {
    let stem = name.strip_suffix(&format!(".{TMP_EXT}"))?;
    let mut parts = stem.rsplit('-');
    let _counter = parts.next()?;
    parts.next()?.parse().ok()
}

/// Whether a process with the given pid currently exists.
#[cfg(target_os = "linux")]
fn process_alive(pid: u32) -> bool {
    std::path::Path::new("/proc").join(pid.to_string()).exists()
}

/// Off Linux there is no cheap portable liveness probe; err on the side of
/// keeping other owners' temporaries.
#[cfg(not(target_os = "linux"))]
fn process_alive(_pid: u32) -> bool {
    true
}

/// Whether a directory entry name looks like a live segment file.  Exposed
/// for tests and the CLI's directory accounting.
#[must_use]
pub fn is_segment_file_name(name: &str) -> bool {
    SegmentName::parse(name).is_some() && name.ends_with(&format!(".{SEGMENT_EXT}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RawKey;
    use std::path::Path;

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "acmp-store-compact-test-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn keys(n: usize) -> Vec<RawKey> {
        (1..=n)
            .map(|lb| {
                RawKey::new(format!(
                    "{{\"generator\":{{\"seed\":7}},\"benchmark\":\"cg\",\
                     \"design\":{{\"name\":\"lb{lb}\",\"sharing\":\"Private\"}}}}"
                ))
            })
            .collect()
    }

    fn dir_file_count(root: &Path) -> usize {
        std::fs::read_dir(root).unwrap().count()
    }

    #[test]
    fn compaction_preserves_entries_byte_identically() {
        let root = temp_root("roundtrip");
        let store = DiskStore::open(&root).unwrap();
        let keys = keys(20);
        for (i, k) in keys.iter().enumerate() {
            store.save(k, &vec![i as u64; 4]).unwrap();
        }
        // Overwrite half the keys so the log holds dead records.
        for (i, k) in keys.iter().enumerate().filter(|(i, _)| i % 2 == 0) {
            store.save(k, &vec![i as u64; 8]).unwrap();
        }
        let before: Vec<Vec<u64>> = keys
            .iter()
            .map(|k| store.load::<Vec<u64>>(k).unwrap())
            .collect();
        let live_before = store.stats().live_bytes;

        let cs = store.compact().unwrap();
        assert_eq!(cs.live_entries, 20);
        assert!(cs.removed_segments >= 1);
        assert!(
            cs.bytes_after < cs.bytes_before,
            "dropping dead records must shrink the store: {cs:?}"
        );
        assert_eq!(store.stats().live_bytes, live_before);
        assert_eq!(store.stats().entries, 20);

        // Values must round-trip unchanged through the compacted store,
        // from this handle and from a fresh open.
        let after: Vec<Vec<u64>> = keys
            .iter()
            .map(|k| store.load::<Vec<u64>>(k).unwrap())
            .collect();
        assert_eq!(before, after);
        let reopened = DiskStore::open(&root).unwrap();
        for (k, want) in keys.iter().zip(&before) {
            assert_eq!(&reopened.load::<Vec<u64>>(k).unwrap(), want);
        }
    }

    #[test]
    fn compaction_is_deterministic() {
        let write = |root: &Path| {
            let store = DiskStore::open(root).unwrap();
            for (i, k) in keys(10).iter().enumerate() {
                store.save(k, &(i as u64)).unwrap();
            }
            store.compact().unwrap();
            let mut segs: Vec<Vec<u8>> = std::fs::read_dir(root)
                .unwrap()
                .filter(|e| {
                    is_segment_file_name(&e.as_ref().unwrap().file_name().to_string_lossy())
                })
                .map(|e| std::fs::read(e.unwrap().path()).unwrap())
                .collect();
            segs.sort_unstable();
            segs
        };
        let a = temp_root("det-a");
        let b = temp_root("det-b");
        assert_eq!(write(&a), write(&b));
    }

    #[test]
    fn compaction_removes_dead_segments_and_orphaned_tmp_files() {
        let root = temp_root("cleanup");
        // Session 1 and 2 each leave a segment; plus orphaned tmp files (as
        // a crashed compaction or torn writer would): one from a pid that
        // cannot exist, one with no recognisable owner — and one owned by a
        // process that is certainly alive (pid 1), which must survive.
        for v in [1u64, 2] {
            let store = DiskStore::open(&root).unwrap();
            store.save(&keys(1)[0], &v).unwrap();
        }
        std::fs::write(root.join(".compact-4000000000-0.tmp"), "junk").unwrap();
        std::fs::write(root.join("stray.tmp"), "more junk").unwrap();
        std::fs::write(root.join(".compact-1-0.tmp"), "in flight").unwrap();

        let store = DiskStore::open(&root).unwrap();
        let cs = store.compact().unwrap();
        assert_eq!(cs.removed_segments, 2);
        assert_eq!(cs.removed_tmp, 2);
        assert_eq!(cs.segments_after, 1);
        assert!(
            root.join(".compact-1-0.tmp").exists(),
            "a live process's in-flight temporary must not be swept"
        );
        assert_eq!(
            dir_file_count(&root),
            2,
            "only the compacted segment and the live temporary remain"
        );
        assert_eq!(store.load::<u64>(&keys(1)[0]), Some(2));
    }

    #[test]
    fn compacting_an_empty_store_is_a_no_op() {
        let root = temp_root("empty");
        let store = DiskStore::open(&root).unwrap();
        let cs = store.compact().unwrap();
        assert_eq!(cs.live_entries, 0);
        assert_eq!(cs.segments_after, 0);
        assert_eq!(dir_file_count(&root), 0);
    }

    #[test]
    fn appends_after_compaction_land_in_the_new_generation() {
        let root = temp_root("append-after");
        let store = DiskStore::open(&root).unwrap();
        let ks = keys(3);
        store.save(&ks[0], &1u64).unwrap();
        let cs = store.compact().unwrap();
        store.save(&ks[1], &2u64).unwrap();
        assert_eq!(store.stats().generation, cs.generation);
        assert_eq!(store.load::<u64>(&ks[0]), Some(1));
        assert_eq!(store.load::<u64>(&ks[1]), Some(2));
        // A bounded reopen sees one generation and keeps everything.
        let reopened = DiskStore::open_limited(&root, Some(1)).unwrap();
        assert_eq!(reopened.stats().evicted, 0);
        assert_eq!(reopened.load::<u64>(&ks[0]), Some(1));
        assert_eq!(reopened.load::<u64>(&ks[1]), Some(2));
    }
}
