//! Persisted secondary indexes: sorted postings (or bitmaps) over the
//! catalog's facets, written as index segments beside the data segments.
//!
//! An index segment (`idx-<gen>-<pid>-<seq>.idx`) holds the complete
//! [`ResultRow`] set plus a postings list per *term*:
//!
//! * equality facets — `benchmark=cg`, `family=worker-shared`,
//!   `design=baseline-2lb`, `scale=<16-hex generator digest>`;
//! * bucketed metric facets — `cycles#20`, where the bucket is the
//!   metric value's binary exponent (see [`metric_bucket`]).
//!
//! Dense terms store their row ordinals as a bitmap of 64-bit words
//! instead of a sorted list, whichever is smaller.
//!
//! The file is self-validating: its header carries a **fingerprint** of
//! the key index it was built from (folded over the digest-sorted result
//! entries' `(digest, len, crc)` triples) and a digest of its own body.
//! On open, the fingerprint is recomputed from the live key index — a
//! metadata-only operation — and compared; any mismatch (new results,
//! overwrites, a foreign writer) silently demotes the opener to a value
//! scan.  Because compaction copies records verbatim, the triples — and
//! hence the fingerprint — survive `store compact`: a rebuilt index over
//! unchanged data validates against the same fingerprint and answers
//! byte-identically.

use crate::catalog::{Catalog, ResultRow};
use crate::snapshot::StoreSnapshot;
use crate::stable_hash;
use crate::store::DiskStore;
use serde::Value;
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Extension of index segment files.
pub const INDEX_EXT: &str = "idx";

/// Magic token opening an index segment header.
pub const INDEX_MAGIC: &str = "acmp-store-index";

/// Index segment format version.
pub const INDEX_FORMAT_VERSION: u32 = 1;

/// Freshness of the persisted secondary index relative to the key index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexStatus {
    /// No index segment exists.
    Absent,
    /// An index segment's fingerprint matches the live key index.
    Fresh,
    /// Index segments exist, but none matches — queries will scan.
    Stale,
}

impl IndexStatus {
    /// The lowercase label `store stats` prints.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            IndexStatus::Absent => "absent",
            IndexStatus::Fresh => "fresh",
            IndexStatus::Stale => "stale",
        }
    }
}

/// Shape of the persisted secondary index, as reported by `store stats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexStats {
    /// Index segment files on disk.
    pub files: u64,
    /// Result rows in the newest index segment.
    pub rows: u64,
    /// Postings lists in the newest index segment.
    pub postings: u64,
    /// Distinct bucketed metric terms among those postings.
    pub buckets: u64,
    /// Freshness relative to the live key index.
    pub status: IndexStatus,
}

/// The bucket a metric value indexes under: the value's unbiased binary
/// exponent for positive values, `-1` for zero, negatives and NaN.  Pure
/// bit extraction, so identical on every platform — a prerequisite for
/// byte-stable index segments.
#[must_use]
pub fn metric_bucket(v: f64) -> i64 {
    if v > 0.0 {
        ((v.to_bits() >> 52) & 0x7ff) as i64 - 1023
    } else {
        -1
    }
}

/// Fingerprint of a snapshot's result records: an fnv1a fold over the
/// digest-sorted `(digest, len, crc)` triples.  Metadata-only (no value
/// reads), and invariant under compaction since records are copied
/// verbatim.
#[must_use]
pub fn snapshot_fingerprint(snapshot: &StoreSnapshot) -> u64 {
    let mut acc = stable_hash::fnv1a_init();
    for meta in snapshot.iter() {
        if !crate::catalog::is_result_key(meta.canonical) {
            continue;
        }
        acc = stable_hash::fnv1a_fold(acc, &meta.digest.to_le_bytes());
        acc = stable_hash::fnv1a_fold(acc, &meta.len.to_le_bytes());
        acc = stable_hash::fnv1a_fold(acc, &meta.crc.to_le_bytes());
    }
    acc
}

/// Builds the term → sorted-row-ordinals postings for a digest-sorted row
/// set.  Terms are lowercase; metric terms use `<metric>#<bucket>`.
#[must_use]
pub(crate) fn build_postings(rows: &[ResultRow]) -> BTreeMap<String, Vec<u32>> {
    let mut postings: BTreeMap<String, Vec<u32>> = BTreeMap::new();
    for (i, row) in rows.iter().enumerate() {
        let ordinal = i as u32;
        let mut add = |term: String| postings.entry(term).or_default().push(ordinal);
        add(format!("benchmark={}", row.benchmark.to_ascii_lowercase()));
        add(format!("family={}", row.family.to_ascii_lowercase()));
        add(format!("design={}", row.design.to_ascii_lowercase()));
        add(format!("scale={}", row.scale.to_ascii_lowercase()));
        for (name, value) in &row.metrics {
            if let Some(v) = crate::catalog::number(value) {
                add(format!("{name}#{}", metric_bucket(v)));
            }
        }
    }
    postings
}

/// File name of an index segment. Mirrors the data segment scheme with a
/// distinct prefix and extension so [`crate::segment::SegmentName::parse`]
/// (and hence segment listing, import and compaction) never picks one up.
#[must_use]
fn index_file_name(generation: u64, pid: u32, seq: u64) -> String {
    format!("idx-{generation:08}-{pid}-{seq:04}.{INDEX_EXT}")
}

/// All index segment files under `root`, name-sorted ascending (the last
/// entry is the newest by generation/pid/seq).
fn list_index_files(root: &Path) -> Vec<PathBuf> {
    let Ok(entries) = fs::read_dir(root) else {
        return Vec::new();
    };
    let mut files: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.extension().and_then(|e| e.to_str()) == Some(INDEX_EXT)
                && p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("idx-"))
        })
        .collect();
    files.sort();
    files
}

/// Parsed header of an index segment: `(rows, postings, fingerprint,
/// body digest)`.
fn parse_header(line: &str) -> Option<(u64, u64, u64, u64)> {
    let mut parts = line.split(' ');
    if parts.next() != Some(INDEX_MAGIC) {
        return None;
    }
    if parts.next()?.parse::<u32>().ok()? != INDEX_FORMAT_VERSION {
        return None;
    }
    let rows = parts.next()?.parse().ok()?;
    let postings = parts.next()?.parse().ok()?;
    let fingerprint = parse_hex(parts.next()?)?;
    let body = parse_hex(parts.next()?)?;
    if parts.next().is_some() {
        return None;
    }
    Some((rows, postings, fingerprint, body))
}

fn parse_hex(s: &str) -> Option<u64> {
    if s.len() != 16 {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

/// Serialises one row as a deterministic JSON line.
fn encode_row(row: &ResultRow) -> String {
    let metrics = Value::Object(
        row.metrics
            .iter()
            .map(|(n, v)| (n.clone(), v.clone()))
            .collect(),
    );
    Value::Object(vec![
        (
            "digest".to_string(),
            Value::String(stable_hash::hex(row.digest)),
        ),
        (
            "benchmark".to_string(),
            Value::String(row.benchmark.clone()),
        ),
        ("family".to_string(), Value::String(row.family.clone())),
        ("design".to_string(), Value::String(row.design.clone())),
        ("scale".to_string(), Value::String(row.scale.clone())),
        ("metrics".to_string(), metrics),
    ])
    .to_string()
}

fn decode_row(line: &str) -> Option<ResultRow> {
    let v: Value = serde_json::from_str(line).ok()?;
    let fields = v.as_object()?;
    let digest = parse_hex(serde::get_field(fields, "digest").ok()?.as_str()?)?;
    let string = |name: &str| -> Option<String> {
        Some(serde::get_field(fields, name).ok()?.as_str()?.to_string())
    };
    let metrics = serde::get_field(fields, "metrics")
        .ok()?
        .as_object()?
        .to_vec();
    Some(ResultRow {
        digest,
        benchmark: string("benchmark")?,
        family: string("family")?,
        design: string("design")?,
        scale: string("scale")?,
        metrics,
    })
}

/// Serialises one postings list, choosing the smaller of a sorted ordinal
/// list (~32 bits per row) and a bitmap over the row universe (1 bit per
/// row).
fn encode_posting(term: &str, ordinals: &[u32], universe: usize) -> String {
    let as_bitmap = ordinals.len() * 32 > universe;
    let payload = if as_bitmap {
        let words = universe.div_ceil(64);
        let mut bits = vec![0u64; words];
        for &o in ordinals {
            bits[o as usize / 64] |= 1u64 << (o as usize % 64);
        }
        (
            "bitmap".to_string(),
            Value::Array(
                bits.into_iter()
                    .map(|w| Value::String(stable_hash::hex(w)))
                    .collect(),
            ),
        )
    } else {
        (
            "rows".to_string(),
            Value::Array(
                ordinals
                    .iter()
                    .map(|&o| Value::UInt(u64::from(o)))
                    .collect(),
            ),
        )
    };
    Value::Object(vec![
        ("term".to_string(), Value::String(term.to_string())),
        payload,
    ])
    .to_string()
}

fn decode_posting(line: &str) -> Option<(String, Vec<u32>)> {
    let v: Value = serde_json::from_str(line).ok()?;
    let fields = v.as_object()?;
    let term = serde::get_field(fields, "term").ok()?.as_str()?.to_string();
    if let Ok(rows) = serde::get_field(fields, "rows") {
        let Value::Array(items) = rows else {
            return None;
        };
        let mut out = Vec::with_capacity(items.len());
        for item in items {
            match item {
                Value::UInt(n) => out.push(u32::try_from(*n).ok()?),
                _ => return None,
            }
        }
        return Some((term, out));
    }
    let Value::Array(words) = serde::get_field(fields, "bitmap").ok()? else {
        return None;
    };
    let mut out = Vec::new();
    for (w, word) in words.iter().enumerate() {
        let mut bits = parse_hex(word.as_str()?)?;
        while bits != 0 {
            let b = bits.trailing_zeros();
            out.push(u32::try_from(w * 64 + b as usize).ok()?);
            bits &= bits - 1;
        }
    }
    Some((term, out))
}

/// Writes `catalog` as a new index segment under the store directory and
/// retires every older index segment.  Returns the new file's path.
///
/// # Errors
///
/// Returns the I/O error if the segment cannot be written or renamed into
/// place.
pub(crate) fn write_index(store: &DiskStore, catalog: &Catalog) -> io::Result<PathBuf> {
    let rows = catalog.rows();
    let postings = catalog.postings();
    let mut body = String::new();
    for row in rows {
        body.push_str(&encode_row(row));
        body.push('\n');
    }
    for (term, ordinals) in postings {
        body.push_str(&encode_posting(term, ordinals, rows.len()));
        body.push('\n');
    }
    let header = format!(
        "{INDEX_MAGIC} {INDEX_FORMAT_VERSION} {} {} {} {}\n",
        rows.len(),
        postings.len(),
        stable_hash::hex(catalog.fingerprint()),
        stable_hash::hex(stable_hash::fnv1a(body.as_bytes())),
    );

    let stats = store.stats();
    let final_path = store.root().join(index_file_name(
        stats.generation,
        std::process::id(),
        crate::store::next_segment_seq(),
    ));
    let tmp = store.unique_tmp_path("index");
    fs::write(&tmp, format!("{header}{body}"))?;
    fs::rename(&tmp, &final_path)?;
    for old in list_index_files(store.root()) {
        if old != final_path {
            let _ = fs::remove_file(old);
        }
    }
    Ok(final_path)
}

/// A decoded index body: digest-sorted rows and term-sorted postings.
pub(crate) type LoadedIndex = (Vec<ResultRow>, BTreeMap<String, Vec<u32>>);

/// Loads the persisted index matching `fingerprint`, if a valid one
/// exists.  Any header, digest or body inconsistency returns `None` — the
/// caller falls back to a scan, never to corrupt data.
#[must_use]
pub(crate) fn load_index(root: &Path, fingerprint: u64) -> Option<LoadedIndex> {
    for path in list_index_files(root).into_iter().rev() {
        let Ok(text) = fs::read_to_string(&path) else {
            continue;
        };
        let mut lines = text.lines();
        let Some((row_count, posting_count, fp, body_digest)) = lines.next().and_then(parse_header)
        else {
            continue;
        };
        if fp != fingerprint {
            continue;
        }
        let body = &text[text.find('\n').map(|i| i + 1).unwrap_or(text.len())..];
        if stable_hash::fnv1a(body.as_bytes()) != body_digest {
            continue;
        }
        let mut rows = Vec::with_capacity(row_count as usize);
        let mut postings = BTreeMap::new();
        let mut ok = true;
        for line in lines {
            if (rows.len() as u64) < row_count {
                match decode_row(line) {
                    Some(row) => rows.push(row),
                    None => {
                        ok = false;
                        break;
                    }
                }
            } else {
                match decode_posting(line) {
                    Some((term, ordinals)) => {
                        postings.insert(term, ordinals);
                    }
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
        }
        if ok && rows.len() as u64 == row_count && postings.len() as u64 == posting_count {
            return Some((rows, postings));
        }
    }
    None
}

impl DiskStore {
    /// Shape and freshness of the persisted secondary index, for
    /// `store stats`.  Metadata-only: reads index segment headers and the
    /// key index, never segment values.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the live key index cannot be snapshotted.
    pub fn index_stats(&self) -> io::Result<IndexStats> {
        let snapshot = self.snapshot()?;
        let fingerprint = snapshot_fingerprint(&snapshot);
        let files = list_index_files(self.root());
        if files.is_empty() {
            return Ok(IndexStats {
                files: 0,
                rows: 0,
                postings: 0,
                buckets: 0,
                status: IndexStatus::Absent,
            });
        }
        let mut stats = IndexStats {
            files: files.len() as u64,
            rows: 0,
            postings: 0,
            buckets: 0,
            status: IndexStatus::Stale,
        };
        // Shape comes from the newest segment; freshness from whichever
        // segment (if any) matches the live fingerprint.
        if let Some(newest) = files.last() {
            if let Ok(text) = fs::read_to_string(newest) {
                let mut lines = text.lines();
                if let Some((rows, postings, fp, _)) = lines.next().and_then(parse_header) {
                    stats.rows = rows;
                    stats.postings = postings;
                    stats.buckets = lines
                        .skip(rows as usize)
                        .filter_map(decode_posting)
                        .filter(|(term, _)| term.contains('#'))
                        .count() as u64;
                    if fp == fingerprint {
                        stats.status = IndexStatus::Fresh;
                    }
                }
            }
        }
        if stats.status != IndexStatus::Fresh && files.len() > 1 {
            for path in files.iter().rev().skip(1) {
                let header = read_first_line(path);
                if header
                    .as_deref()
                    .and_then(parse_header)
                    .is_some_and(|(_, _, fp, _)| fp == fingerprint)
                {
                    stats.status = IndexStatus::Fresh;
                    break;
                }
            }
        }
        Ok(stats)
    }
}

fn read_first_line(path: &Path) -> Option<String> {
    use std::io::BufRead;
    let file = fs::File::open(path).ok()?;
    let mut line = String::new();
    std::io::BufReader::new(file).read_line(&mut line).ok()?;
    Some(line.trim_end().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::RawKey;

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "acmp-store-index-test-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn result_key(benchmark: &str, design: &str) -> RawKey {
        RawKey::new(format!(
            "{{\"generator\":{{\"seed\":7}},\"benchmark\":\"{benchmark}\",\
             \"design\":{{\"name\":\"{design}\",\"sharing\":\"Private\"}}}}"
        ))
    }

    fn value(cycles: u64) -> serde::Value {
        serde_json::from_str(&format!("{{\"cycles\":{cycles},\"ipc\":0.5}}")).unwrap()
    }

    #[test]
    fn metric_buckets_follow_the_binary_exponent() {
        assert_eq!(metric_bucket(1.0), 0);
        assert_eq!(metric_bucket(2.0), 1);
        assert_eq!(metric_bucket(3.9), 1);
        assert_eq!(metric_bucket(1024.0), 10);
        // 0.5's exponent bucket collides with the non-positive bucket by
        // construction; pruning stays conservative, so this is harmless.
        assert_eq!(metric_bucket(0.5), -1);
        assert_eq!(metric_bucket(0.0), -1);
        assert_eq!(metric_bucket(-5.0), -1);
        assert_eq!(metric_bucket(f64::NAN), -1);
    }

    #[test]
    fn postings_round_trip_in_both_representations() {
        // Sparse: a few ordinals in a large universe -> sorted list.
        let sparse = encode_posting("benchmark=cg", &[0, 17, 40_000], 100_000);
        assert!(sparse.contains("\"rows\""));
        assert_eq!(
            decode_posting(&sparse),
            Some(("benchmark=cg".to_string(), vec![0, 17, 40_000]))
        );
        // Dense: most ordinals of a small universe -> bitmap.
        let all: Vec<u32> = (0..100).collect();
        let dense = encode_posting("family=private", &all, 100);
        assert!(dense.contains("\"bitmap\""));
        assert_eq!(
            decode_posting(&dense),
            Some(("family=private".to_string(), all))
        );
    }

    #[test]
    fn fingerprint_survives_compaction_but_not_new_results() {
        let store = DiskStore::open(temp_root("fp")).unwrap();
        store.save(&result_key("cg", "a"), &value(10)).unwrap();
        store.save(&result_key("lu", "a"), &value(20)).unwrap();
        let before = snapshot_fingerprint(&store.snapshot().unwrap());

        store.compact().unwrap();
        let compacted = snapshot_fingerprint(&store.snapshot().unwrap());
        assert_eq!(
            before, compacted,
            "verbatim record copies keep the fingerprint"
        );

        store.save(&result_key("ep", "a"), &value(30)).unwrap();
        let grown = snapshot_fingerprint(&store.snapshot().unwrap());
        assert_ne!(before, grown);
    }

    #[test]
    fn persisted_index_round_trips_and_reports_fresh() {
        let store = DiskStore::open(temp_root("roundtrip")).unwrap();
        for (b, d, c) in [("cg", "a", 10), ("cg", "b", 20), ("lu", "a", 30)] {
            store.save(&result_key(b, d), &value(c)).unwrap();
        }
        let built = Catalog::open(&store).unwrap();
        assert_eq!(built.source(), crate::CatalogSource::Scan);
        built.persist(&store).unwrap();

        let stats = store.index_stats().unwrap();
        assert_eq!(stats.status, IndexStatus::Fresh);
        assert_eq!(stats.rows, 3);
        assert!(stats.postings > 0);
        assert!(stats.buckets > 0);

        let reopened = Catalog::open(&store).unwrap();
        assert_eq!(reopened.source(), crate::CatalogSource::Index);
        assert_eq!(reopened.rows(), built.rows());
        assert_eq!(reopened.postings(), built.postings());
    }

    #[test]
    fn new_writes_make_the_index_stale_and_openers_fall_back() {
        let store = DiskStore::open(temp_root("stale")).unwrap();
        store.save(&result_key("cg", "a"), &value(10)).unwrap();
        Catalog::open(&store).unwrap().persist(&store).unwrap();
        assert_eq!(store.index_stats().unwrap().status, IndexStatus::Fresh);

        store.save(&result_key("lu", "a"), &value(20)).unwrap();
        assert_eq!(store.index_stats().unwrap().status, IndexStatus::Stale);
        let catalog = Catalog::open(&store).unwrap();
        assert_eq!(catalog.source(), crate::CatalogSource::Scan);
        assert_eq!(catalog.rows().len(), 2);
    }

    #[test]
    fn index_files_are_invisible_to_the_segment_listing() {
        let store = DiskStore::open(temp_root("invisible")).unwrap();
        store.save(&result_key("cg", "a"), &value(10)).unwrap();
        let segments_before = store.stats().segments;
        Catalog::open(&store).unwrap().persist(&store).unwrap();

        // A fresh handle lists the directory from scratch; the idx file
        // must not be picked up as a data segment.
        let reopened = DiskStore::open(store.root().to_path_buf()).unwrap();
        assert_eq!(reopened.stats().segments, segments_before);
        assert_eq!(reopened.stats().entries, 1);
    }

    #[test]
    fn corrupt_index_segments_are_rejected() {
        let store = DiskStore::open(temp_root("corrupt")).unwrap();
        store.save(&result_key("cg", "a"), &value(10)).unwrap();
        let path = Catalog::open(&store).unwrap().persist(&store).unwrap();

        let mut text = fs::read_to_string(&path).unwrap();
        text = text.replace("\"cycles\"", "\"cycl3s\"");
        fs::write(&path, text).unwrap();

        let catalog = Catalog::open(&store).unwrap();
        assert_eq!(
            catalog.source(),
            crate::CatalogSource::Scan,
            "body digest mismatch"
        );
    }
}
