//! The persisted catalog: the [`ResultRow`] set written as an index
//! segment beside the data segments, so a warm opener reads no values.
//!
//! An index segment (`idx-<gen>-<pid>-<seq>.idx`) is a header line,
//! `acmp-store-index 2 <rows> <fingerprint> <body digest>`, followed by one
//! JSON line per digest-sorted row.  The index is only a cache: a file of
//! any other format version reads as stale, and the next scan replaces it.
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
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Extension of index segment files.
pub const INDEX_EXT: &str = "idx";

/// Magic token opening an index segment header.
pub const INDEX_MAGIC: &str = "acmp-store-index";

/// Index segment format version.
pub const INDEX_FORMAT_VERSION: u32 = 2;

/// Freshness of the persisted index relative to the key index.
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

/// Size and freshness of the persisted index, as reported by `store stats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexStats {
    /// Index segment files on disk.
    pub files: u64,
    /// Result rows in the newest index segment.
    pub rows: u64,
    /// Freshness relative to the live key index.
    pub status: IndexStatus,
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

/// Parsed header of an index segment: `(rows, fingerprint, body digest)`.
/// A header of any other format version does not parse.
fn parse_header(line: &str) -> Option<(u64, u64, u64)> {
    let mut parts = line.split(' ');
    if parts.next() != Some(INDEX_MAGIC) {
        return None;
    }
    if parts.next()?.parse::<u32>().ok()? != INDEX_FORMAT_VERSION {
        return None;
    }
    let rows = parts.next()?.parse().ok()?;
    let fingerprint = parse_hex(parts.next()?)?;
    let body = parse_hex(parts.next()?)?;
    if parts.next().is_some() {
        return None;
    }
    Some((rows, fingerprint, body))
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

/// Writes `catalog` as a new index segment under the store directory and
/// retires every older index segment.  Returns the new file's path.
///
/// # Errors
///
/// Returns the I/O error if the segment cannot be written or renamed into
/// place.
pub(crate) fn write_index(store: &DiskStore, catalog: &Catalog) -> io::Result<PathBuf> {
    let rows = catalog.rows();
    let mut body = String::new();
    for row in rows {
        body.push_str(&encode_row(row));
        body.push('\n');
    }
    let header = format!(
        "{INDEX_MAGIC} {INDEX_FORMAT_VERSION} {} {} {}\n",
        rows.len(),
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

/// Loads the rows of the persisted index matching `fingerprint`, if a
/// valid one exists.  Any header, digest or body inconsistency returns
/// `None` — the caller falls back to a scan, never to corrupt data.
#[must_use]
pub(crate) fn load_index(root: &Path, fingerprint: u64) -> Option<Vec<ResultRow>> {
    for path in list_index_files(root).into_iter().rev() {
        let Ok(text) = fs::read_to_string(&path) else {
            continue;
        };
        let mut lines = text.lines();
        let Some((row_count, fp, body_digest)) = lines.next().and_then(parse_header) else {
            continue;
        };
        if fp != fingerprint {
            continue;
        }
        let body = &text[text.find('\n').map(|i| i + 1).unwrap_or(text.len())..];
        if stable_hash::fnv1a(body.as_bytes()) != body_digest {
            continue;
        }
        let rows: Option<Vec<ResultRow>> = lines.map(decode_row).collect();
        if let Some(rows) = rows.filter(|rows| rows.len() as u64 == row_count) {
            return Some(rows);
        }
    }
    None
}

impl DiskStore {
    /// Size and freshness of the persisted index, for `store stats`.
    /// Metadata-only: reads index segment headers and the key index, never
    /// segment values.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the live key index cannot be snapshotted.
    pub fn index_stats(&self) -> io::Result<IndexStats> {
        let snapshot = self.snapshot()?;
        let fingerprint = snapshot_fingerprint(&snapshot);
        let files = list_index_files(self.root());
        let mut stats = IndexStats {
            files: files.len() as u64,
            rows: 0,
            status: if files.is_empty() {
                IndexStatus::Absent
            } else {
                IndexStatus::Stale
            },
        };
        // Rows come from the newest segment; freshness from whichever
        // segment (if any) matches the live fingerprint.
        for (i, path) in files.iter().rev().enumerate() {
            let Some((rows, fp, _)) = read_first_line(path).as_deref().and_then(parse_header)
            else {
                continue;
            };
            if i == 0 {
                stats.rows = rows;
            }
            if fp == fingerprint {
                stats.status = IndexStatus::Fresh;
                break;
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
    fn a_writer_fingerprints_its_own_records_as_a_fresh_open_does() {
        let fresh_fingerprint = |store: &DiskStore| {
            let reopened = DiskStore::open(store.root().to_path_buf()).unwrap();
            snapshot_fingerprint(&reopened.snapshot().unwrap())
        };
        let writer = DiskStore::open(temp_root("fp-writer")).unwrap();
        writer.save(&result_key("cg", "a"), &value(10)).unwrap();
        writer.save(&result_key("lu", "a"), &value(20)).unwrap();
        let saved = snapshot_fingerprint(&writer.snapshot().unwrap());
        assert_eq!(saved, fresh_fingerprint(&writer), "after save");

        let other = DiskStore::open(temp_root("fp-exporter")).unwrap();
        other.save(&result_key("ep", "b"), &value(30)).unwrap();
        other.save(&result_key("cg", "a"), &value(10)).unwrap();
        let mut bundle = Vec::new();
        other.export_segments(&mut bundle).unwrap();
        let stats = writer.import_segments(bundle.as_slice()).unwrap();
        assert_eq!((stats.imported, stats.skipped), (1, 1));
        let imported = snapshot_fingerprint(&writer.snapshot().unwrap());
        assert_ne!(imported, saved);
        assert_eq!(imported, fresh_fingerprint(&writer), "after import");
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

        let reopened = Catalog::open(&store).unwrap();
        assert_eq!(reopened.source(), crate::CatalogSource::Index);
        assert_eq!(reopened.rows(), built.rows());
    }

    #[test]
    fn a_version_1_index_reads_as_stale_and_is_replaced() {
        let store = DiskStore::open(temp_root("v1")).unwrap();
        for (b, d, c) in [("cg", "a", 10), ("lu", "a", 3000)] {
            store.save(&result_key(b, d), &value(c)).unwrap();
        }
        let scanned = Catalog::open(&store).unwrap();
        // The version 1 layout: a term count in the header, and each
        // term's row ordinals on a line after the rows.  Everything else
        // about the file is valid for the live key index.
        let mut body = String::new();
        for row in scanned.rows() {
            body.push_str(&encode_row(row));
            body.push('\n');
        }
        body.push_str("{\"term\":\"benchmark=cg\",\"rows\":[0]}\n");
        body.push_str("{\"term\":\"cycles#3\",\"rows\":[0]}\n");
        let v1 = store.root().join(index_file_name(1, 1, 0));
        let header = format!(
            "{INDEX_MAGIC} 1 {} 2 {} {}\n",
            scanned.rows().len(),
            stable_hash::hex(scanned.fingerprint()),
            stable_hash::hex(stable_hash::fnv1a(body.as_bytes())),
        );
        fs::write(&v1, format!("{header}{body}")).unwrap();

        let stats = store.index_stats().unwrap();
        assert_eq!((stats.files, stats.rows), (1, 0));
        assert_eq!(stats.status, IndexStatus::Stale);
        let catalog = Catalog::open(&store).unwrap();
        assert_eq!(catalog.source(), crate::CatalogSource::Scan);
        assert_eq!(catalog.rows(), scanned.rows());

        let persisted = catalog.persist(&store).unwrap();
        assert!(!v1.exists(), "persisting retires the old index file");
        let stats = store.index_stats().unwrap();
        assert_eq!((stats.files, stats.rows), (1, 2));
        assert_eq!(stats.status, IndexStatus::Fresh);
        assert!(read_first_line(&persisted)
            .unwrap()
            .starts_with(&format!("{INDEX_MAGIC} {INDEX_FORMAT_VERSION} 2 ")));
        let reopened = Catalog::open(&store).unwrap();
        assert_eq!(reopened.source(), crate::CatalogSource::Index);
        assert_eq!(reopened.rows(), scanned.rows());
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
