//! The persistent, content-addressed result store.
//!
//! Simulation results are packed into append-only **segment files** (see
//! [`crate::segment`]) under the store directory (default
//! `target/sweep-cache/`).  A later run — any process, any worker count —
//! that derives the same [`StoreKey`] is served from disk
//! instead of re-simulating, which turns repeated figure runs into warm
//! starts.  The sweep engine stores results only: trace sets are cheaper to
//! regenerate than to encode, store and decode.  Stores written by older
//! versions may still hold trace-set records; nothing reads them, and
//! deleting the directory reclaims their space.
//!
//! Opening a store scans every segment once and builds an in-memory index
//! of *verified* records: a record whose layout or value checksum does not
//! hold (a torn append, bit rot) is never indexed, so
//! [`contains`](DiskStore::contains) answers from verified entries only and
//! schedulers can trust it.  The `store.open` and `store.refresh` spans
//! count such lines as `rejected`.  The scan verifies value checksums four
//! records at a time (see [`segment::scan_segment`]).
//!
//! A load reads its record with one positional read through a handle the
//! store opens on the first load from that segment and holds until a
//! [`compact`](DiskStore::compact) renumbers the segments.  Loads
//! re-verify the embedded canonical key, so even a digest collision reads
//! as a miss rather than as somebody else's data.
//!
//! Writes append under a store-wide writer lock — two threads saving the
//! same key serialise instead of racing on a shared temporary file (the
//! failure mode of the old one-file-per-entry layout), and a failed append
//! truncates itself away instead of leaving junk behind.
//!
//! Concurrent *processes* (shard sweeps over one cache directory) cooperate
//! without locks: every process appends to its own segment files (names
//! embed the pid), and a load miss triggers a
//! [refresh](DiskStore::refresh) that lists the directory and folds into
//! this handle's index whatever other writers appended since — new segment
//! files and records added to files it already indexed — so one shard's
//! results become visible to the others mid-run, without reopening.
//!
//! Every store handle appends into a fresh **generation**;
//! [`compact`](DiskStore::compact) merges all live records into the next
//! generation and deletes everything older, and
//! [`open_limited`](DiskStore::open_limited) evicts generations beyond a
//! configured bound at open, so the directory's growth stays bounded.

use crate::segment::{self, SegmentName, SEGMENT_TARGET_BYTES, TMP_EXT};
use crate::StoreKey;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Counters describing how a store behaved over its lifetime, plus a
/// snapshot of its current contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Loads served from disk.
    pub hits: u64,
    /// Loads that found no (valid) entry.
    pub misses: u64,
    /// Entries written.
    pub writes: u64,
    /// Live (indexed, verified) entries.
    pub entries: u64,
    /// Segment files currently backing the index.
    pub segments: u64,
    /// Generation new appends go to.
    pub generation: u64,
    /// Total bytes of live records (excluding dead overwritten ones).
    pub live_bytes: u64,
    /// Segment files deleted by generation eviction at open.
    pub evicted: u64,
}

/// What one [`import_segments`](DiskStore::import_segments) call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ImportStats {
    /// Records the bundle carried.
    pub records: u64,
    /// Records appended to this store.
    pub imported: u64,
    /// Records skipped because their key was already live here.
    pub skipped: u64,
}

/// Where one live record lives on disk.
#[derive(Debug, Clone)]
pub(crate) struct IndexEntry {
    pub(crate) canonical: String,
    pub(crate) segment: usize,
    pub(crate) offset: u64,
    pub(crate) len: u64,
    /// The record's verified value checksum — folded into the persisted
    /// index's fingerprint so value changes read as staleness.
    pub(crate) crc: u64,
}

/// The active append target of this store handle.
#[derive(Debug)]
pub(crate) struct ActiveSegment {
    pub(crate) file: File,
    pub(crate) segment: usize,
    pub(crate) len: u64,
}

/// Everything the index lock protects.
#[derive(Debug, Default)]
pub(crate) struct Inner {
    /// Segment id → path.  Ids are positional and stable until a compact.
    pub(crate) segments: Vec<PathBuf>,
    /// Segment id → bytes of that file already folded into the index:
    /// always the end of a newline-terminated line, so a record still
    /// being appended is read whole by a later refresh.
    pub(crate) folded: Vec<u64>,
    /// Segment id → the read handle loads use, opened by the first load
    /// from that segment (see [`Inner::read_handle`]).  Ids past the end
    /// have no handle yet.
    pub(crate) files: Vec<Option<Arc<File>>>,
    /// Key digest → live record location.  Collisions on the 64-bit digest
    /// are resolved by the canonical string stored in the entry.
    pub(crate) index: HashMap<u64, IndexEntry>,
    pub(crate) active: Option<ActiveSegment>,
    /// Generation this handle appends to.
    pub(crate) generation: u64,
    /// Total bytes of live records.
    pub(crate) live_bytes: u64,
}

/// An on-disk key → value store addressed by stable content hash, packed
/// into generational segment files.
#[derive(Debug)]
pub struct DiskStore {
    root: PathBuf,
    pub(crate) inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
    evicted: AtomicU64,
}

impl DiskStore {
    /// Opens (creating if needed) a store rooted at `root`, keeping every
    /// generation.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the directory cannot be created or scanned.
    pub fn open(root: impl Into<PathBuf>) -> std::io::Result<Self> {
        Self::open_limited(root, None)
    }

    /// Opens a store, evicting all but the newest `limit` generations of
    /// segment files first (when `limit` is `Some`).  Entries written after
    /// open always land in a generation newer than any existing one, so a
    /// session's own writes are never evicted by its *own* open.  Like
    /// [`compact`](DiskStore::compact), eviction deletes files by path and
    /// therefore must not race sweeps running concurrently in other
    /// processes on the same store (see `compact.rs`'s module docs).
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the directory cannot be created or scanned.
    pub fn open_limited(root: impl Into<PathBuf>, limit: Option<u64>) -> std::io::Result<Self> {
        let root = root.into();
        let mut span = acmp_obs::span!(acmp_obs::names::STORE_OPEN);
        if acmp_obs::enabled() {
            span.record_field("root", root.display().to_string());
        }
        std::fs::create_dir_all(&root)?;

        // Collect and order the segment files: generation first, then
        // (pid, seq), so replay order — and therefore which duplicate of a
        // key wins — is deterministic.
        let mut found = segment::list_segments(&root)?;

        // Generation eviction: keep only the newest `limit` distinct
        // generations; delete the segment files of everything older.
        let mut evicted = 0u64;
        if let Some(limit) = limit {
            let mut generations: Vec<u64> = found.iter().map(|(s, _)| s.generation).collect();
            generations.dedup();
            if generations.len() as u64 > limit {
                let cutoff = generations[generations.len() - limit.max(1) as usize];
                found.retain(|(seg, path)| {
                    if seg.generation < cutoff {
                        let _ = std::fs::remove_file(path);
                        evicted += 1;
                        false
                    } else {
                        true
                    }
                });
            }
        }

        let max_generation = found.iter().map(|(s, _)| s.generation).max().unwrap_or(0);

        // Build the verified index.  Later records (newer generations, or
        // later appends within one) override earlier ones.
        let mut inner = Inner {
            generation: max_generation + 1,
            ..Inner::default()
        };
        let (mut bytes, mut records, mut rejected) = (0, 0, 0);
        for (name, path) in found {
            let folded = fold_segment(&mut inner, name, path, None);
            bytes += folded.bytes;
            records += folded.records;
            rejected += folded.rejected;
        }
        span.record_field("bytes", bytes);
        span.record_field("records", records);
        span.record_field("rejected", rejected);

        Ok(DiskStore {
            root,
            inner: Mutex::new(inner),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            evicted: AtomicU64::new(evicted),
        })
    }

    /// The default store location: `target/sweep-cache` under the current
    /// directory.  A different location is an explicit choice — `--cache-dir`
    /// on the CLI, `SweepEngineBuilder::store_dir` in `acmp-sweep` — never
    /// an environment variable.
    #[must_use]
    pub fn default_root() -> PathBuf {
        PathBuf::from("target").join("sweep-cache")
    }

    /// The store directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Whether a *verified* entry exists for `key`.  This is answered from
    /// the in-memory index (built from checksummed records at open, kept
    /// current by this handle's writes), so a corrupt or key-mismatched
    /// record on disk reads as absent — schedulers deciding what work a
    /// grid still needs can rely on the answer.  Does not touch the
    /// hit/miss counters.
    #[must_use]
    pub fn contains(&self, key: &dyn StoreKey) -> bool {
        let inner = self.inner.lock();
        inner
            .index
            .get(&key.digest())
            .is_some_and(|e| e.canonical == key.canonical())
    }

    /// Loads the value stored under `key`, verifying the embedded canonical
    /// key.  Any malformed, mismatched or unreadable entry counts as a miss.
    ///
    /// The record is read with one positional read through the segment's
    /// held handle (opened by the first load from that segment), and only
    /// its value is decoded: open verified the record's layout and value
    /// checksum, and segments are append-only.
    ///
    /// A miss first [refreshes](Self::refresh) the index and retries: in a
    /// sharded run, another process may have appended the entry to its own
    /// segment file since this handle last scanned the directory, and the
    /// retry turns what would have been a redundant re-simulation (or trace
    /// regeneration) into a hit.
    pub fn load<V: Deserialize>(&self, key: &dyn StoreKey) -> Option<V> {
        let mut loaded = self.try_load(key);
        if loaded.is_none() && self.refresh() > 0 {
            loaded = self.try_load(key);
        }
        match loaded {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        loaded
    }

    /// Folds into the verified index everything writers appended since
    /// this handle last looked — concurrent shard processes, or other
    /// handles in this one — and returns how many segment files gave it
    /// records.  The directory is listed on every call: a new segment file
    /// is folded whole, and a known one that grew is folded from where the
    /// last fold stopped, because writers append in place (a segment is
    /// created empty and one handle appends every record to it).  Only
    /// newline-terminated lines are folded, so a record caught mid-append
    /// is read whole by a later refresh.  Newly folded records override
    /// older index entries exactly as an open's replay would.
    ///
    /// Called automatically when a [`load`](Self::load) misses.
    /// [`contains`](Self::contains) deliberately stays index-only:
    /// schedulers probe it per cell while planning, and the load path
    /// re-checks the directory anyway.
    pub fn refresh(&self) -> usize {
        let mut span = acmp_obs::span!(acmp_obs::names::STORE_REFRESH);
        let mut inner = self.inner.lock();
        let Ok(found) = segment::list_segments(&self.root) else {
            return 0;
        };
        let known: HashMap<PathBuf, usize> = inner
            .segments
            .iter()
            .enumerate()
            .map(|(id, path)| (path.clone(), id))
            .collect();
        let (mut indexed, mut bytes, mut rejected) = (0, 0, 0);
        for (name, path) in found {
            let id = known.get(&path).copied();
            // A known segment is re-read only once it has grown past what
            // is already folded; one `stat` per segment, no read.
            let grew = id.is_none_or(|id| {
                std::fs::metadata(&path).is_ok_and(|m| m.len() > inner.folded[id])
            });
            if grew {
                let folded = fold_segment(&mut inner, name, path, id);
                bytes += folded.bytes;
                rejected += folded.rejected;
                if folded.records > 0 {
                    indexed += 1;
                }
            }
        }
        span.record_field("segments_indexed", indexed);
        span.record_field("bytes", bytes);
        span.record_field("rejected", rejected);
        indexed
    }

    fn try_load<V: Deserialize>(&self, key: &dyn StoreKey) -> Option<V> {
        let (file, offset, len) = {
            let mut inner = self.inner.lock();
            let entry = inner.index.get(&key.digest())?;
            if entry.canonical != key.canonical() {
                return None;
            }
            let (segment, offset, len) = (entry.segment, entry.offset, entry.len);
            (inner.read_handle(segment), offset, len)
        };
        acmp_obs::counter!(acmp_obs::names::STORE_VALUE_READS, 1);
        let file = file.ok()?;
        let mut line = vec![0u8; len as usize];
        read_exact_at(&file, &mut line, offset).ok()?;
        let line = std::str::from_utf8(&line).ok()?;
        // Open verified this record's layout and value checksum, and
        // segments are append-only: check the stored key against this one
        // as it is unescaped, and decode only the value, without hashing it
        // again.
        let value_json = segment::value_for_key(line, key.canonical())?;
        serde_json::from_str(value_json).ok()
    }

    /// Persists `value` under `key`, appending a checksummed record to the
    /// active segment (rolling to a new segment past the size target).
    ///
    /// # Errors
    ///
    /// Returns the I/O or serialisation error; callers may treat a failed
    /// store write as non-fatal (the result is still in memory).  A failed
    /// append is truncated away, so it cannot be observed by later opens.
    pub fn save<V: Serialize>(&self, key: &dyn StoreKey, value: &V) -> Result<(), serde::Error> {
        let value_json = serde_json::to_string(value)?;
        let (mut line, crc) = segment::encode_record(key.canonical(), &value_json);
        line.push('\n');
        let mut inner = self.inner.lock();
        self.append_record_line(&mut inner, key.canonical(), crc, &line)
            .map_err(serde::Error::from)
    }

    /// Appends one already-encoded record line (newline included) to the
    /// active segment and indexes it under its value checksum `crc`.
    /// Shared by [`save`](Self::save), which has just computed `crc` to
    /// encode the line, and [`import_segments`](Self::import_segments),
    /// which receives its lines pre-encoded from another store's export
    /// and has verified each against its `crc`.
    fn append_record_line(
        &self,
        inner: &mut Inner,
        canonical: &str,
        crc: u64,
        line: &str,
    ) -> std::io::Result<()> {
        let _span = acmp_obs::span!(acmp_obs::names::STORE_APPEND);
        self.ensure_active(inner, line.len() as u64)?;
        let (write_result, segment, offset) = {
            // acmp-lint: allow(unwrap-in-lib) -- ensure_active just succeeded, so an active segment is installed
            let active = inner.active.as_mut().expect("ensure_active installs one");
            let offset = active.len;
            let result = active
                .file
                .write_all(line.as_bytes())
                .and_then(|()| active.file.flush());
            if result.is_ok() {
                active.len += line.len() as u64;
            }
            (result, active.segment, offset)
        };
        if let Err(e) = write_result {
            // Claw the partial append back; if even that fails, retire the
            // segment so the next save starts a fresh file.  Either way the
            // torn record fails verification and is never indexed.
            let truncated = inner
                .active
                .as_mut()
                .is_some_and(|a| a.file.set_len(offset).is_ok());
            if !truncated {
                inner.active = None;
            }
            return Err(e);
        }
        // Our own record, indexed below: a later refresh must not fold it
        // a second time.
        inner.folded[segment] = offset + line.len() as u64;
        let record_len = line.len() as u64 - 1;
        let entry = IndexEntry {
            canonical: canonical.to_string(),
            segment,
            offset,
            len: record_len,
            crc,
        };
        let digest = crate::stable_hash::fnv1a(canonical.as_bytes());
        if let Some(old) = inner.index.insert(digest, entry) {
            inner.live_bytes -= old.len;
        }
        inner.live_bytes += record_len;
        self.writes.fetch_add(1, Ordering::Relaxed);
        acmp_obs::counter!(acmp_obs::names::STORE_APPEND_BYTES, line.len() as u64);
        Ok(())
    }

    /// Writes every live record into `sink` as a portable **export
    /// bundle**: one header line (magic, format version, record count,
    /// FNV-1a digest over the body bytes) followed by the record lines in
    /// stable digest order.  Records are copied verbatim — each keeps its
    /// own value checksum — so equal stores export byte-identical bundles,
    /// and [`import_segments`](Self::import_segments) on another machine
    /// can verify the transfer end to end.  Returns the record count.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if a segment cannot be read back or `sink`
    /// cannot be written.
    pub fn export_segments<W: Write>(&self, sink: &mut W) -> std::io::Result<u64> {
        let mut span = acmp_obs::span!(acmp_obs::names::STORE_EXPORT);
        // Snapshot the live spans under the lock, but read them back
        // outside it: segments are append-only, so a snapshotted span's
        // bytes never change, and a large export must not block every
        // concurrent save for the duration of its file I/O.  (Compaction
        // deletes segment files and must not run concurrently — the same
        // offline-maintenance discipline it already demands.)
        let mut spans: Vec<(u64, PathBuf, u64, u64)> = {
            let inner = self.inner.lock();
            inner
                .index
                .iter()
                .map(|(digest, entry)| {
                    (
                        *digest,
                        inner.segments[entry.segment].clone(),
                        entry.offset,
                        entry.len,
                    )
                })
                .collect()
        };
        spans.sort_unstable_by_key(|&(digest, ..)| digest);
        let records = spans.len() as u64;
        // The header carries a digest of the whole body, so the body is
        // walked twice — once to fold the digest, once to write — rather
        // than materialised in memory: bundles hold every live record, and
        // exporting must not cost a store's worth of RAM.  Append-only
        // segments make the two passes read identical bytes.
        let mut digest = crate::stable_hash::fnv1a_init();
        for (_, path, offset, len) in &spans {
            let record = read_span(path, *offset, *len)?;
            digest = crate::stable_hash::fnv1a_fold(digest, record.as_bytes());
            digest = crate::stable_hash::fnv1a_fold(digest, b"\n");
        }
        writeln!(sink, "{}", segment::encode_export_header(records, digest))?;
        let mut body_bytes = 0u64;
        for (_, path, offset, len) in &spans {
            let record = read_span(path, *offset, *len)?;
            sink.write_all(record.as_bytes())?;
            sink.write_all(b"\n")?;
            body_bytes += record.len() as u64 + 1;
        }
        sink.flush()?;
        span.record_field("records", records);
        acmp_obs::counter!(acmp_obs::names::STORE_EXPORT_BYTES, body_bytes);
        Ok(records)
    }

    /// Imports an export bundle produced by
    /// [`export_segments`](Self::export_segments) on another store —
    /// typically another machine's warm cache.  The whole bundle is
    /// verified *before* anything is appended: the header must parse, the
    /// body digest must match (catching truncated transfers), every record
    /// must pass its own checksum, and the record count must agree.  Only
    /// then are records appended — into this handle's fresh generation,
    /// following the same replay-order rules a concurrent shard's segments
    /// obey on [`refresh`](Self::refresh).  Records whose key is already
    /// live here are skipped, so importing is idempotent and never
    /// overrides data this store already trusts.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` for a damaged bundle (with nothing imported),
    /// or the I/O error if reading `source` or appending fails.
    pub fn import_segments<R: std::io::BufRead>(
        &self,
        mut source: R,
    ) -> std::io::Result<ImportStats> {
        let invalid = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
        let mut header = String::new();
        source.read_line(&mut header)?;
        let Some((format, records, digest)) =
            segment::parse_export_header(header.trim_end_matches('\n'))
        else {
            return Err(invalid(
                "not an acmp-sweep segment export (unrecognised header)".to_string(),
            ));
        };
        if format != segment::EXPORT_FORMAT_VERSION {
            return Err(invalid(format!(
                "export format {format} not supported (this binary reads {})",
                segment::EXPORT_FORMAT_VERSION
            )));
        }
        // One pass over the body: fold the digest over the raw bytes as
        // they stream in and verify each record's own checksum, keeping
        // only the (single) buffered copy needed for the
        // verify-everything-then-append contract — not a second whole-body
        // String on top of it.
        let mut span = acmp_obs::span!(acmp_obs::names::STORE_IMPORT);
        let mut folded = crate::stable_hash::fnv1a_init();
        let mut verified: Vec<(String, u64, String)> = Vec::new();
        let mut buf: Vec<u8> = Vec::new();
        let mut body_bytes = 0u64;
        loop {
            buf.clear();
            if source.read_until(b'\n', &mut buf)? == 0 {
                break;
            }
            body_bytes += buf.len() as u64;
            folded = crate::stable_hash::fnv1a_fold(folded, &buf);
            let bytes = buf.strip_suffix(b"\n").unwrap_or(&buf);
            let record = std::str::from_utf8(bytes).ok().and_then(|text| {
                segment::scan_record_parts(text)
                    .map(|(canonical, crc, _)| (canonical, crc, text.to_string()))
            });
            let Some(record) = record else {
                return Err(invalid(format!(
                    "export record {} fails verification; nothing was imported",
                    verified.len() + 1
                )));
            };
            verified.push(record);
        }
        if folded != digest {
            return Err(invalid(
                "export body digest mismatch — the bundle was truncated or corrupted in \
                 transit; nothing was imported"
                    .to_string(),
            ));
        }
        if verified.len() as u64 != records {
            return Err(invalid(format!(
                "export header declares {records} records, body holds {}; nothing was \
                 imported",
                verified.len()
            )));
        }

        let mut stats = ImportStats {
            records,
            ..ImportStats::default()
        };
        let mut inner = self.inner.lock();
        for (canonical, crc, line) in verified {
            let key_digest = crate::stable_hash::fnv1a(canonical.as_bytes());
            let already_live = inner
                .index
                .get(&key_digest)
                .is_some_and(|e| e.canonical == canonical);
            if already_live {
                stats.skipped += 1;
                continue;
            }
            let mut line = line;
            line.push('\n');
            self.append_record_line(&mut inner, &canonical, crc, &line)?;
            stats.imported += 1;
        }
        span.record_field("imported", stats.imported);
        span.record_field("skipped", stats.skipped);
        acmp_obs::counter!(acmp_obs::names::STORE_IMPORT_BYTES, body_bytes);
        Ok(stats)
    }

    /// Makes sure `inner.active` can take another `upcoming` bytes, creating
    /// or rolling the segment file as needed.
    fn ensure_active(&self, inner: &mut Inner, upcoming: u64) -> Result<(), std::io::Error> {
        let roll = match &inner.active {
            Some(active) => active.len > 0 && active.len + upcoming > SEGMENT_TARGET_BYTES,
            None => true,
        };
        if !roll {
            return Ok(());
        }
        let name = SegmentName {
            generation: inner.generation,
            pid: std::process::id(),
            seq: next_segment_seq(),
        };
        let path = self.root.join(name.file_name());
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let len = file.metadata()?.len();
        let segment = inner.segments.len();
        inner.segments.push(path);
        inner.folded.push(len);
        inner.active = Some(ActiveSegment { file, segment, len });
        Ok(())
    }

    /// Builds a fresh `.tmp` path unique to this process *and* call, so
    /// concurrent writers (threads or processes) never share one.
    pub(crate) fn unique_tmp_path(&self, label: &str) -> PathBuf {
        static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = TMP_COUNTER.fetch_add(1, Ordering::Relaxed);
        self.root
            .join(format!(".{label}-{}-{n}.{TMP_EXT}", std::process::id()))
    }

    /// Lifetime counters and a content snapshot of this store handle.
    pub fn stats(&self) -> StoreStats {
        let inner = self.inner.lock();
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            entries: inner.index.len() as u64,
            segments: inner.segments.len() as u64,
            generation: inner.generation,
            live_bytes: inner.live_bytes,
            evicted: self.evicted.load(Ordering::Relaxed),
        }
    }
}

impl Inner {
    /// The read handle of segment `id`, opened on first use.  Loads read
    /// through it outside the store lock with positional reads, so one
    /// handle serves every thread.  A segment deleted since it was indexed
    /// (by another handle's compaction or eviction) stays readable through
    /// a handle opened before the deletion; opening it afterwards fails, and
    /// the load misses and refreshes.
    fn read_handle(&mut self, id: usize) -> std::io::Result<Arc<File>> {
        if self.files.len() <= id {
            self.files.resize(id + 1, None);
        }
        if let Some(file) = &self.files[id] {
            return Ok(Arc::clone(file));
        }
        let file = Arc::new(File::open(&self.segments[id])?);
        self.files[id] = Some(Arc::clone(&file));
        Ok(file)
    }
}

/// Hands out process-unique segment sequence numbers.  Sequence numbers
/// are shared by every store handle in the process (not per-handle), so
/// two handles opened on the same root can never compute the same
/// `(generation, pid, seq)` and silently share — or truncate — one
/// another's segment file.
pub(crate) fn next_segment_seq() -> u64 {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    SEQ.fetch_add(1, Ordering::Relaxed)
}

/// What one [`fold_segment`] call scanned.
#[derive(Debug, Clone, Copy, Default)]
struct Folded {
    /// Segment bytes read.
    bytes: u64,
    /// Verified records found, including any that a record replaying
    /// later overrides.
    records: u64,
    /// Newline-terminated lines that failed the layout or checksum check.
    rejected: u64,
}

/// Folds one segment file into the index: the whole file when it is new
/// (`known` is `None`), otherwise the bytes past what is already folded.
/// Raw bytes, not UTF-8: a corrupt (even non-UTF-8) line must read as
/// absent, never abort the scan.  Only newline-terminated lines are folded
/// and the folded length stops after the last of them, so a torn or
/// still-growing tail is read again by the next refresh.  An unreadable
/// new segment — e.g. deleted by a concurrent open's eviction between a
/// directory listing and this read — likewise reads as absent (and is not
/// registered, so a later refresh may retry it).
///
/// Which duplicate of a key wins follows segment replay order, not
/// discovery order: a refresh can discover a segment that *sorts before*
/// one already indexed (a stale handle appending into an old generation
/// while a newer generation is already visible), and its records must not
/// override the later-replaying ones a fresh open would prefer.  Within
/// one segment a later record wins.  An open's own scan passes segments
/// pre-sorted, so the guard never fires there.
fn fold_segment(
    inner: &mut Inner,
    name: SegmentName,
    path: PathBuf,
    known: Option<usize>,
) -> Folded {
    let from = known.map_or(0, |id| inner.folded[id]);
    let Ok(bytes) = read_from(&path, from) else {
        return Folded::default();
    };
    let complete = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
    let segment_id = known.unwrap_or_else(|| {
        inner.segments.push(path);
        inner.folded.push(0);
        inner.segments.len() - 1
    });
    inner.folded[segment_id] = from + complete as u64;
    let scan = segment::scan_segment(&bytes[..complete]);
    let folded = Folded {
        bytes: bytes.len() as u64,
        records: scan.records.len() as u64,
        rejected: scan.rejected,
    };
    for record in scan.records {
        let digest = crate::stable_hash::fnv1a(record.canonical.as_bytes());
        let later_already_indexed = inner.index.get(&digest).is_some_and(|existing| {
            replay_name(&inner.segments[existing.segment])
                .is_some_and(|existing_name| existing_name > name)
        });
        if later_already_indexed {
            continue;
        }
        let entry = IndexEntry {
            canonical: record.canonical,
            segment: segment_id,
            offset: from + record.offset,
            len: record.len,
            crc: record.crc,
        };
        if let Some(old) = inner.index.insert(digest, entry) {
            inner.live_bytes -= old.len;
        }
        inner.live_bytes += record.len;
    }
    folded
}

/// The replay-order identity of an indexed segment file, parsed back from
/// its path.  Every indexed segment was created with a
/// [`SegmentName`]-shaped file name, so `None` only ever means an exotic
/// path this store did not mint — treated as replaying first.
fn replay_name(path: &Path) -> Option<SegmentName> {
    path.file_name()?.to_str().and_then(SegmentName::parse)
}

/// Reads `path` from byte `offset` to its end.
fn read_from(path: &Path, offset: u64) -> std::io::Result<Vec<u8>> {
    let mut file = File::open(path)?;
    file.seek(SeekFrom::Start(offset))?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;
    Ok(bytes)
}

/// Reads `len` bytes at `offset` of `path` as UTF-8.
pub(crate) fn read_span(path: &Path, offset: u64, len: u64) -> std::io::Result<String> {
    let mut file = File::open(path)?;
    file.seek(SeekFrom::Start(offset))?;
    let mut buf = vec![0u8; len as usize];
    file.read_exact(&mut buf)?;
    String::from_utf8(buf).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

/// Positional read that never moves a shared file cursor: the store's and
/// snapshots' read handles are shared across threads, so reads must not
/// seek.
#[cfg(unix)]
pub(crate) fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    use std::os::unix::fs::FileExt;
    file.read_exact_at(buf, offset)
}

#[cfg(not(unix))]
pub(crate) fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    // No positional read off unix; clone the handle so the shared cursor
    // is untouched.  (The clone shares the descriptor's offset on some
    // platforms, but windows `seek_read` semantics are covered by the
    // unix path in practice — this fallback is best-effort.)
    let mut own = file.try_clone()?;
    own.seek(SeekFrom::Start(offset))?;
    own.read_exact(buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::{EXPORT_MAGIC as SEGMENT_EXPORT_MAGIC, SEGMENT_EXT};
    use crate::RawKey;
    use std::time::SystemTime;

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "acmp-store-store-test-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn temp_store(tag: &str) -> DiskStore {
        DiskStore::open(temp_root(tag)).expect("temp store")
    }

    /// A result-shaped canonical key, as the sweep engine's `JobKey` mints
    /// them — the store itself only sees [`StoreKey`]s.
    fn key(benchmark: &str) -> RawKey {
        RawKey::new(format!(
            "{{\"generator\":{{\"seed\":7}},\"benchmark\":\"{benchmark}\",\
             \"design\":{{\"name\":\"baseline\",\"sharing\":\"Private\"}}}}"
        ))
    }

    fn segment_files(root: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(root)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(&format!(".{SEGMENT_EXT}")))
            .collect();
        names.sort_unstable();
        names
    }

    #[test]
    fn save_then_load_round_trips() {
        let store = temp_store("roundtrip");
        let k = key("cg");
        assert_eq!(store.load::<Vec<u64>>(&k), None);
        store.save(&k, &vec![1u64, 2, 3]).unwrap();
        assert!(store.contains(&k));
        assert_eq!(store.load::<Vec<u64>>(&k), Some(vec![1, 2, 3]));
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses, stats.writes), (1, 1, 1));
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.segments, 1);
    }

    #[test]
    fn entries_survive_reopening() {
        let store = temp_store("reopen");
        let k = key("lu");
        store.save(&k, &7u64).unwrap();
        let reopened = DiskStore::open(store.root().to_path_buf()).unwrap();
        assert!(reopened.contains(&k));
        assert_eq!(reopened.load::<u64>(&k), Some(7));
        // The reopened handle appends into a fresh generation.
        assert_eq!(reopened.stats().generation, store.stats().generation + 1);
    }

    #[test]
    fn many_entries_pack_into_one_segment() {
        let store = temp_store("pack");
        let keys: Vec<RawKey> = (1..=50).map(|lb| key(&format!("cg-lb{lb}"))).collect();
        for (i, k) in keys.iter().enumerate() {
            store.save(k, &(i as u64)).unwrap();
        }
        assert_eq!(store.stats().entries, 50);
        assert_eq!(
            segment_files(store.root()).len(),
            1,
            "small entries must share one segment file"
        );
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(store.load::<u64>(k), Some(i as u64));
        }
    }

    #[test]
    fn corrupt_and_mismatched_entries_are_misses() {
        let root = temp_root("corrupt");
        {
            let store = DiskStore::open(&root).unwrap();
            store.save(&key("ep"), &1u64).unwrap();
            store.save(&key("lu"), &2u64).unwrap();
        }
        // Corrupt the first record's value bytes in place (same length, so
        // the second record's span is untouched).
        let seg = &segment_files(&root)[0];
        let path = root.join(seg);
        let text = std::fs::read_to_string(&path).unwrap();
        let corrupted = text.replacen("\"value\":1", "\"value\":9", 1);
        assert_ne!(text, corrupted, "fixture must actually corrupt a record");
        std::fs::write(&path, corrupted).unwrap();

        let store = DiskStore::open(&root).unwrap();
        // The corrupted record fails its checksum at open: not indexed.
        assert!(!store.contains(&key("ep")));
        assert_eq!(store.load::<u64>(&key("ep")), None);
        // Its intact neighbour is unaffected.
        assert_eq!(store.load::<u64>(&key("lu")), Some(2));
    }

    #[test]
    fn a_record_rewritten_under_another_key_after_open_is_a_miss() {
        let root = temp_root("rekeyed");
        DiskStore::open(&root)
            .unwrap()
            .save(&key("ep"), &1u64)
            .unwrap();
        let store = DiskStore::open(&root).unwrap();
        assert!(store.contains(&key("ep")));
        // Rewrite the indexed record's key in place, same length: the index
        // still points at it, but the stored key no longer matches.
        let path = root.join(&segment_files(&root)[0]);
        let text = std::fs::read_to_string(&path).unwrap();
        let rekeyed = text.replacen("\\\"ep\\\"", "\\\"ft\\\"", 1);
        assert_ne!(text, rekeyed, "fixture must actually rewrite the key");
        std::fs::write(&path, rekeyed).unwrap();
        assert_eq!(store.load::<u64>(&key("ep")), None);
    }

    #[test]
    fn distinct_keys_use_distinct_entries() {
        let store = temp_store("distinct");
        store.save(&key("cg"), &1u64).unwrap();
        store.save(&key("lu"), &2u64).unwrap();
        assert_eq!(store.load::<u64>(&key("cg")), Some(1));
        assert_eq!(store.load::<u64>(&key("lu")), Some(2));
        assert_eq!(store.stats().entries, 2);
    }

    #[test]
    fn concurrent_same_key_writers_never_publish_a_torn_entry() {
        // The regression this guards: the old layout derived one temporary
        // file from (key, pid), so two threads saving the same key raced —
        // one renamed while the other was mid-write, publishing torn bytes.
        let store = temp_store("same-key-race");
        let k = key("cg");
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let store = &store;
                let k = &k;
                scope.spawn(move || {
                    for i in 0..16 {
                        store.save(k, &vec![t, i]).unwrap();
                    }
                });
            }
        });
        // Whatever interleaving happened, the store holds one complete,
        // verifiable entry for the key — both in this handle...
        let live = store.load::<Vec<u64>>(&k).expect("a live entry survives");
        assert_eq!(live.len(), 2);
        assert_eq!(store.stats().writes, 128);
        // ...and after a fresh open that re-verifies every record on disk.
        let reopened = DiskStore::open(store.root().to_path_buf()).unwrap();
        assert_eq!(
            reopened
                .load::<Vec<u64>>(&k)
                .expect("still verifiable")
                .len(),
            2
        );
    }

    #[test]
    fn overwrites_keep_only_the_newest_value_live() {
        let store = temp_store("overwrite");
        let k = key("cg");
        store.save(&k, &1u64).unwrap();
        let bytes_after_first = store.stats().live_bytes;
        store.save(&k, &2u64).unwrap();
        assert_eq!(store.load::<u64>(&k), Some(2));
        let stats = store.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(
            stats.live_bytes, bytes_after_first,
            "live bytes must not count the dead first record"
        );
        // Reopening replays in order: the newer record still wins.
        let reopened = DiskStore::open(store.root().to_path_buf()).unwrap();
        assert_eq!(reopened.load::<u64>(&k), Some(2));
    }

    #[test]
    fn generation_eviction_drops_old_generations_at_open() {
        let root = temp_root("evict");
        // Session 1 writes k1 into generation 1.
        {
            let store = DiskStore::open(&root).unwrap();
            store.save(&key("cg"), &1u64).unwrap();
        }
        // Session 2 writes k2 into generation 2.
        {
            let store = DiskStore::open(&root).unwrap();
            store.save(&key("lu"), &2u64).unwrap();
        }
        // A bounded open keeps only the newest generation: k1 is evicted,
        // k2 survives, and the old segment file is gone from disk.
        let store = DiskStore::open_limited(&root, Some(1)).unwrap();
        assert_eq!(store.load::<u64>(&key("cg")), None);
        assert_eq!(store.load::<u64>(&key("lu")), Some(2));
        assert_eq!(store.stats().evicted, 1);
        assert_eq!(segment_files(&root).len(), 1);
        // An unbounded open never evicts.
        let root2 = temp_root("evict-unbounded");
        {
            let store = DiskStore::open(&root2).unwrap();
            store.save(&key("cg"), &1u64).unwrap();
        }
        let store = DiskStore::open(&root2).unwrap();
        assert_eq!(store.stats().evicted, 0);
        assert_eq!(store.load::<u64>(&key("cg")), Some(1));
    }

    #[test]
    fn two_handles_on_one_root_never_share_a_segment_file() {
        // Both handles open before either writes, so they agree on the
        // generation; the process-global sequence counter must still keep
        // their segment files distinct (a shared file would corrupt both
        // handles' index offsets).
        let root = temp_root("two-handles");
        let a = DiskStore::open(&root).unwrap();
        let b = DiskStore::open(&root).unwrap();
        a.save(&key("cg"), &1u64).unwrap();
        b.save(&key("lu"), &2u64).unwrap();
        a.save(&key("ep"), &3u64).unwrap();
        assert_eq!(segment_files(&root).len(), 2, "one segment per handle");
        assert_eq!(a.load::<u64>(&key("cg")), Some(1));
        assert_eq!(a.load::<u64>(&key("ep")), Some(3));
        assert_eq!(b.load::<u64>(&key("lu")), Some(2));
        // A fresh open sees all three entries from both files.
        let merged = DiskStore::open(&root).unwrap();
        assert_eq!(merged.stats().entries, 3);
        assert_eq!(merged.load::<u64>(&key("lu")), Some(2));
    }

    #[test]
    fn load_misses_refresh_the_index_across_handles() {
        // Two handles stand in for two shard processes on one store: the
        // reader opened before the writer wrote anything, so its index is
        // stale — the miss path must rescan the directory and find the
        // writer's freshly published segment instead of reporting absent.
        let root = temp_root("refresh-load");
        let reader = DiskStore::open(&root).unwrap();
        let writer = DiskStore::open(&root).unwrap();
        writer.save(&key("cg"), &7u64).unwrap();
        assert_eq!(reader.load::<u64>(&key("cg")), Some(7));
        let stats = reader.stats();
        assert_eq!((stats.hits, stats.misses), (1, 0), "refresh makes it a hit");
    }

    #[test]
    fn rename_publish_in_the_same_mtime_granule_is_not_masked() {
        // A publish is a `.tmp` → `seg-*` rename: it does not change the
        // directory's *size* (same entry count, block-granular sizes) and
        // can land in the same mtime granule as the memoized listing.  The
        // old `(mtime, size)` memo answered "unchanged" for exactly this
        // shape and masked the publish until the granule rolled over; the
        // name-set digest sees the rename.
        let root = temp_root("rename-publish");
        let reader = DiskStore::open(&root).unwrap();
        // Build a publishable segment in a scratch store.
        let scratch = temp_root("rename-publish-src");
        let writer = DiskStore::open(&scratch).unwrap();
        writer.save(&key("lu"), &2u64).unwrap();
        let seg_name = segment_files(&scratch).pop().expect("writer segment");
        // Pin a whole-second mtime (so it can be pinned *back* exactly).
        let granule = SystemTime::now();
        set_dir_mtime(&root, granule);
        assert_eq!(reader.refresh(), 0, "empty store, nothing to fold");
        // Publish via tmp-write + rename, then pin the directory mtime
        // back into the granule the memo recorded.
        let tmp = root.join(format!("incoming.{TMP_EXT}"));
        std::fs::copy(scratch.join(&seg_name), &tmp).unwrap();
        std::fs::rename(&tmp, root.join(&seg_name)).unwrap();
        set_dir_mtime(&root, granule);
        // The directory mtime is unchanged; only the segment name set
        // differs.  The very next refresh must fold the publish.
        assert_eq!(reader.refresh(), 1, "the rename-published segment folds");
        assert_eq!(reader.load::<u64>(&key("lu")), Some(2));
    }

    #[test]
    fn a_record_appended_to_an_indexed_segment_is_loaded() {
        // Writers append in place: the writer's second record lands in the
        // segment file the reader already folded, which changes neither
        // the directory's name set nor (necessarily) its mtime.  The
        // reader's first load opened its handle on that segment, and later
        // records are read through the same handle.
        let root = temp_root("append-in-place");
        let writer = DiskStore::open(&root).unwrap();
        let reader = DiskStore::open(&root).unwrap();
        writer.save(&key("cg"), &1u64).unwrap();
        assert_eq!(reader.load::<u64>(&key("cg")), Some(1));
        writer.save(&key("lu"), &2u64).unwrap();
        assert_eq!(segment_files(&root).len(), 1, "one segment, appended to");
        assert_eq!(reader.load::<u64>(&key("lu")), Some(2));
        writer.save(&key("ep"), &vec![3u64; 40]).unwrap();
        assert_eq!(reader.refresh(), 1);
        assert_eq!(reader.load::<Vec<u64>>(&key("ep")), Some(vec![3; 40]));
        let stats = reader.stats();
        assert_eq!((stats.hits, stats.misses), (3, 0));
        assert_eq!(stats.entries, 3);
        let fresh = DiskStore::open(&root).unwrap();
        assert_eq!(fresh.load::<u64>(&key("lu")), Some(2));
    }

    #[test]
    fn a_segment_listed_while_empty_shows_what_is_written_into_it_later() {
        // A writer creates its segment empty and appends afterwards; a
        // refresh between the two must not hide the records.  The record
        // is written in two pieces, so the refresh in between also sees
        // a torn tail it must read again once the newline lands.
        let root = temp_root("listed-empty");
        let reader = DiskStore::open(&root).unwrap();
        let name = SegmentName {
            generation: 1,
            pid: std::process::id(),
            seq: next_segment_seq(),
        };
        let path = root.join(name.file_name());
        let mut file = File::create(&path).unwrap();
        reader.refresh();
        let (record, _) = segment::encode_record(key("cg").canonical(), "7");
        let (head, tail) = record.split_at(record.len() / 2);
        file.write_all(head.as_bytes()).unwrap();
        assert_eq!(reader.refresh(), 0, "a torn tail is not folded");
        file.write_all(tail.as_bytes()).unwrap();
        file.write_all(b"\n").unwrap();
        assert_eq!(reader.load::<u64>(&key("cg")), Some(7));
        assert_eq!(reader.refresh(), 0, "nothing new: nothing folded twice");
        assert_eq!(reader.stats().entries, 1);
    }

    /// Twelve keys over two segments: `store` opens the first session's
    /// segment and overwrites every third key into its own, so both
    /// segments hold live records and the first also dead ones.  Returns
    /// the keys and their live values.
    fn two_segment_store(root: &Path) -> (DiskStore, Vec<(RawKey, Vec<u64>)>) {
        let first = DiskStore::open(root).unwrap();
        let mut live: Vec<(RawKey, Vec<u64>)> = (0..12u64)
            .map(|i| (key(&format!("cg-{i}")), vec![i; 1 + i as usize % 4]))
            .collect();
        for (k, v) in &live {
            first.save(k, v).unwrap();
        }
        drop(first);
        let store = DiskStore::open(root).unwrap();
        for (i, (k, v)) in live.iter_mut().enumerate().filter(|(i, _)| i % 3 == 0) {
            *v = vec![100 + i as u64; 6];
            store.save(k, v).unwrap();
        }
        assert_eq!(segment_files(root).len(), 2);
        (store, live)
    }

    #[test]
    fn loads_after_compacting_the_same_handle_read_the_new_segments() {
        // Compaction renumbers the segments, so the read handles the first
        // loads opened must not serve the new ids.
        let (store, live) = two_segment_store(&temp_root("handles-compact"));
        for (k, v) in &live {
            assert_eq!(store.load::<Vec<u64>>(k).as_ref(), Some(v));
        }
        store.compact().unwrap();
        for (k, v) in &live {
            assert_eq!(store.load::<Vec<u64>>(k).as_ref(), Some(v));
        }
        assert_eq!(store.stats().misses, 0);
    }

    #[test]
    fn loads_survive_another_handle_compacting_the_directory() {
        // `a` holds a handle on the segment its first loads read; `b`'s
        // compaction deletes both segments.  Records of the held segment
        // still read through the handle; records of the other one miss,
        // refresh onto `b`'s new generation and hit.
        let root = temp_root("handles-foreign-compact");
        let (a, live) = two_segment_store(&root);
        let (old, new): (Vec<_>, Vec<_>) = live.iter().partition(|(_, v)| v.len() < 6);
        for (k, v) in &old {
            assert_eq!(a.load::<Vec<u64>>(k).as_ref(), Some(v));
        }
        DiskStore::open(&root).unwrap().compact().unwrap();
        assert_eq!(segment_files(&root).len(), 1);
        for (k, v) in old.iter().chain(&new) {
            assert_eq!(a.load::<Vec<u64>>(k).as_ref(), Some(v));
        }
        assert_eq!(a.stats().misses, 0, "every miss refreshed into a hit");
    }

    /// Pins a directory's mtime to a whole-second epoch value.
    fn set_dir_mtime(dir: &Path, when: SystemTime) {
        let secs = when
            .duration_since(SystemTime::UNIX_EPOCH)
            .expect("test times are past the epoch")
            .as_secs();
        let status = std::process::Command::new("touch")
            .arg("-d")
            .arg(format!("@{secs}"))
            .arg(dir)
            .status()
            .expect("touch is available");
        assert!(status.success());
    }

    #[test]
    fn explicit_refresh_updates_contains() {
        let root = temp_root("refresh-contains");
        let reader = DiskStore::open(&root).unwrap();
        let writer = DiskStore::open(&root).unwrap();
        writer.save(&key("lu"), &1u64).unwrap();
        // `contains` answers from the index only; a stale view reads
        // absent until an explicit (or load-triggered) refresh.
        assert!(!reader.contains(&key("lu")));
        assert_eq!(reader.refresh(), 1);
        assert!(reader.contains(&key("lu")));
        // Nothing new: a second refresh is a no-op.
        assert_eq!(reader.refresh(), 0);
    }

    #[test]
    fn refresh_respects_replay_order_across_generations() {
        let root = temp_root("refresh-order");
        // `stale` will keep appending into generation 1 even after newer
        // generations exist on disk.
        let stale = DiskStore::open(&root).unwrap();
        let reader = DiskStore::open(&root).unwrap();
        {
            let seeder = DiskStore::open(&root).unwrap();
            seeder.save(&key("ep"), &0u64).unwrap();
        }
        // Opened after generation 1 has a segment: appends to generation 2.
        let newer = DiskStore::open(&root).unwrap();
        newer.save(&key("cg"), &2u64).unwrap();
        assert_eq!(reader.load::<u64>(&key("cg")), Some(2));

        // The stale handle now writes the same key into generation 1.  A
        // fresh open replays generation 1 *before* generation 2, so the
        // generation-2 record must keep winning — including in the
        // reader's refreshed view, even though it discovers the
        // generation-1 segment last.
        stale.save(&key("cg"), &1u64).unwrap();
        assert_eq!(reader.refresh(), 1);
        assert_eq!(reader.load::<u64>(&key("cg")), Some(2));
        let fresh = DiskStore::open(&root).unwrap();
        assert_eq!(fresh.load::<u64>(&key("cg")), Some(2));
    }

    #[test]
    fn export_import_round_trips_between_stores() {
        // Machine A's warm store, exported and imported into machine B's.
        let a = temp_store("export-a");
        a.save(&key("cg"), &vec![1u64, 2]).unwrap();
        a.save(&key("lu"), &vec![3u64]).unwrap();
        let mut bundle = Vec::new();
        assert_eq!(a.export_segments(&mut bundle).unwrap(), 2);

        let b = temp_store("export-b");
        b.save(&key("lu"), &vec![3u64]).unwrap(); // overlap
        let stats = b.import_segments(std::io::Cursor::new(&bundle)).unwrap();
        assert_eq!(stats.records, 2);
        assert_eq!(stats.imported, 1, "only the missing key is appended");
        assert_eq!(stats.skipped, 1, "the live key is never overridden");
        assert_eq!(b.load::<Vec<u64>>(&key("cg")), Some(vec![1, 2]));
        assert_eq!(b.load::<Vec<u64>>(&key("lu")), Some(vec![3]));

        // Idempotent: importing the same bundle again appends nothing.
        let again = b.import_segments(std::io::Cursor::new(&bundle)).unwrap();
        assert_eq!((again.imported, again.skipped), (0, 2));

        // The imported records survive a fresh verified open.
        let reopened = DiskStore::open(b.root().to_path_buf()).unwrap();
        assert_eq!(reopened.stats().entries, 2);
        assert_eq!(reopened.load::<Vec<u64>>(&key("cg")), Some(vec![1, 2]));
    }

    #[test]
    fn equal_stores_export_identical_bundles() {
        let a = temp_store("export-det-a");
        let b = temp_store("export-det-b");
        for store in [&a, &b] {
            store.save(&key("cg"), &7u64).unwrap();
            store.save(&key("ep"), &9u64).unwrap();
        }
        let (mut ba, mut bb) = (Vec::new(), Vec::new());
        a.export_segments(&mut ba).unwrap();
        b.export_segments(&mut bb).unwrap();
        assert_eq!(ba, bb, "bundles must be byte-deterministic");
    }

    #[test]
    fn damaged_bundles_import_nothing() {
        let a = temp_store("import-damage-src");
        a.save(&key("cg"), &1u64).unwrap();
        a.save(&key("lu"), &2u64).unwrap();
        let mut bundle = Vec::new();
        a.export_segments(&mut bundle).unwrap();
        let text = String::from_utf8(bundle).unwrap();

        let assert_rejected = |tag: &str, damaged: &str, expect: &str| {
            let store = temp_store(&format!("import-damage-{tag}"));
            let err = store
                .import_segments(std::io::Cursor::new(damaged.as_bytes()))
                .unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{tag}");
            assert!(err.to_string().contains(expect), "{tag}: {err}");
            assert_eq!(store.stats().entries, 0, "{tag}: must import nothing");
            assert_eq!(store.stats().writes, 0, "{tag}: must append nothing");
        };

        // Truncated mid-record (a cut-off transfer): the partial tail line
        // fails its own record verification.
        assert_rejected("truncated", &text[..text.len() - 10], "fails verification");
        // A record's value bytes flipped in transit: the per-record
        // checksum catches it as the stream is scanned.
        let flipped = text.replacen("\"value\":1", "\"value\":7", 1);
        assert_ne!(flipped, text);
        assert_rejected("flipped", &flipped, "fails verification");
        // A whole record line dropped: every surviving record verifies, so
        // only the body digest (and count) can see the loss.
        let mut lines: Vec<&str> = text.lines().collect();
        lines.remove(1);
        let mut dropped = lines.join("\n");
        dropped.push('\n');
        assert_rejected("dropped-line", &dropped, "digest mismatch");
        // Not a bundle at all.
        assert_rejected("garbage", "hello world\n", "unrecognised header");
        // Unsupported future format.
        let future = text.replacen(
            &format!(
                "{} {}",
                SEGMENT_EXPORT_MAGIC,
                segment::EXPORT_FORMAT_VERSION
            ),
            &format!("{} {}", SEGMENT_EXPORT_MAGIC, 99),
            1,
        );
        assert_rejected("future", &future, "not supported");
    }

    #[test]
    fn default_root_is_fixed_and_environment_free() {
        assert_eq!(
            DiskStore::default_root(),
            std::path::Path::new("target").join("sweep-cache")
        );
    }
}
