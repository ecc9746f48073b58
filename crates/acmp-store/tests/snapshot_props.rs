//! Property-based tests of the snapshot and query layers: under
//! *arbitrary* interleavings of appends, overwrites, compactions,
//! refreshes and foreign-handle writes,
//!
//! 1. an open snapshot's reads are **byte-stable** — every record re-reads
//!    identically after the interleaving ran, even though compaction
//!    deleted the very segment files the snapshot pinned; and
//! 2. `Catalog::query` answers — whether the catalog was built by a value
//!    scan or loaded from the persisted index — equal a brute-force scan
//!    of the same snapshot, row for row, in order.
//!
//! These are the invariants the `sweep query` path trusts: (1) makes the
//! catalog a coherent generation view, (2) makes the index-loaded warm
//! path interchangeable with the scan-built cold one.

use acmp_store::catalog::{is_result_key, row_from_record};
use acmp_store::{segment, Catalog, Cmp, DiskStore, Filter, Query, ResultRow, StoreSnapshot};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

static CASE: AtomicUsize = AtomicUsize::new(0);

fn temp_root() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "acmp-store-snapshot-props-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const BENCHMARKS: [&str; 3] = ["Cg", "Lu", "Ep"];
const SHARINGS: [&str; 3] = [
    "\"Private\"",
    "{\"WorkerShared\":{\"cores_per_cache\":8}}",
    "\"AllShared\"",
];

fn result_key(slot: u64) -> acmp_store::RawKey {
    let benchmark = BENCHMARKS[(slot % 3) as usize];
    let sharing = SHARINGS[((slot / 3) % 3) as usize];
    acmp_store::RawKey::new(format!(
        "{{\"generator\":{{\"seed\":7}},\"benchmark\":\"{benchmark}\",\
         \"design\":{{\"name\":\"d{slot}\",\"sharing\":{sharing}}}}}"
    ))
}

fn value(seed: u64) -> serde::Value {
    serde_json::from_str(&format!(
        "{{\"cycles\":{},\"ipc\":0.25,\"bus\":{{\"transactions\":{}}}}}",
        seed % 997 + 1,
        seed % 31
    ))
    .expect("literal json")
}

/// Applies one interleaving step.  `writer` is a second handle on the same
/// root, standing in for a concurrent shard process.
fn apply_op(store: &DiskStore, writer: &DiskStore, op: u8, seed: u64) {
    match op % 5 {
        // Append a (possibly new) result record.
        0 => store.save(&result_key(seed % 12), &value(seed)).unwrap(),
        // Overwrite a key from the seeded range with a different value.
        1 => store
            .save(&result_key(seed % 4), &value(seed ^ 0x5a5a))
            .unwrap(),
        // Compact: rewrites every live record into a new generation and
        // deletes the old segment files.
        2 => {
            store.compact().unwrap();
        }
        // Foreign append through the second handle.
        3 => writer.save(&result_key(seed % 12), &value(seed)).unwrap(),
        // Fold foreign segments into this handle's index.
        _ => {
            store.refresh();
        }
    }
}

fn read_all(snapshot: &StoreSnapshot) -> Vec<String> {
    (0..snapshot.len())
        .map(|i| {
            snapshot
                .read_record(i)
                .expect("pinned records stay readable")
        })
        .collect()
}

/// Brute-force evaluation of `query` straight off the snapshot's records,
/// bypassing the catalog and its filter code entirely.
fn brute_force(snapshot: &StoreSnapshot, query: &Query) -> Vec<(u64, f64)> {
    let mut rows: Vec<ResultRow> = Vec::new();
    for (i, meta) in snapshot.iter().enumerate() {
        if !is_result_key(meta.canonical) {
            continue;
        }
        let line = snapshot.read_record(i).unwrap();
        let (canonical, _, value_json) =
            segment::scan_record_parts(&line).expect("stored records are well-formed");
        if let Some(row) = row_from_record(meta.digest, &canonical, value_json) {
            rows.push(row);
        }
    }
    let matches = |row: &ResultRow, filter: &Filter| match filter {
        Filter::Field { field, value } => {
            let facet = match field.as_str() {
                "benchmark" => &row.benchmark,
                "family" => &row.family,
                "design" => &row.design,
                "scale" => &row.scale,
                _ => return false,
            };
            facet.to_ascii_lowercase() == *value
        }
        Filter::Metric { metric, cmp, value } => {
            row.metric_f64(metric).is_some_and(|v| match cmp {
                Cmp::Le => v <= *value,
                Cmp::Ge => v >= *value,
                Cmp::Lt => v < *value,
                Cmp::Gt => v > *value,
            })
        }
    };
    let mut hits: Vec<(u64, f64)> = rows
        .iter()
        .filter(|row| query.filters.iter().all(|f| matches(row, f)))
        .filter_map(|row| row.metric_f64(&query.by).map(|v| (row.digest, v)))
        .collect();
    hits.sort_by(|a, b| {
        let values = if query.descending {
            b.1.total_cmp(&a.1)
        } else {
            a.1.total_cmp(&b.1)
        };
        values.then_with(|| a.0.cmp(&b.0))
    });
    if let Some(top) = query.top {
        hits.truncate(top);
    }
    hits
}

/// The query grid each case checks, with the case's cut and direction
/// applied: every facet, an upper-case facet value, metric bounds at,
/// above and below zero (slot 0 stores `bus.transactions` 0), bounds
/// between 0.5 and 1 against the stored `ipc` of 0.25, strict against
/// non-strict bounds at an exact power of two (slot 5 stores
/// `bus.transactions` 4), mixed filters, and an unfiltered top-k.
fn queries(bound: u64, top: Option<usize>, descending: bool) -> Vec<Query> {
    let scale = acmp_store::stable_hash::hex(acmp_store::stable_hash::fnv1a(b"{\"seed\":7}"));
    let specs = [
        "benchmark=cg".to_string(),
        "benchmark=CG".to_string(),
        "design=D3".to_string(),
        format!("scale={} family=private", scale.to_ascii_uppercase()),
        format!("cycles<={bound}"),
        "family=worker-shared bus.transactions>=1".to_string(),
        "bus.transactions>0".to_string(),
        "bus.transactions>=0".to_string(),
        "cycles>-5".to_string(),
        "bus.transactions<-1".to_string(),
        "ipc<=0.5".to_string(),
        "ipc>0.3".to_string(),
        "bus.transactions<4".to_string(),
        "bus.transactions<=4".to_string(),
        "bus.transactions>4".to_string(),
        "bus.transactions>=4".to_string(),
        String::new(),
    ];
    specs
        .iter()
        .map(|spec| {
            let filters: Vec<String> = spec.split_whitespace().map(str::to_string).collect();
            Query::parse(&filters, "cycles", top, descending).expect("filters are well-formed")
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn snapshot_reads_are_byte_stable_under_any_interleaving(
        ops in prop::collection::vec((0u8..5, any::<u64>()), 0..24),
    ) {
        let root = temp_root();
        let store = DiskStore::open(&root).unwrap();
        let writer = DiskStore::open(&root).unwrap();
        for slot in 0..4u64 {
            store.save(&result_key(slot), &value(slot)).unwrap();
        }
        let snapshot = store.snapshot().unwrap();
        let before = read_all(&snapshot);

        for (op, seed) in &ops {
            apply_op(&store, &writer, *op, *seed);
        }

        prop_assert_eq!(&read_all(&snapshot), &before);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn queries_equal_a_brute_force_scan_of_the_same_snapshot(
        ops in prop::collection::vec((0u8..5, any::<u64>()), 0..16),
        bound in 1u64..1500,
        top in prop::option::of(0usize..6),
        descending in any::<bool>(),
    ) {
        let root = temp_root();
        let store = DiskStore::open(&root).unwrap();
        let writer = DiskStore::open(&root).unwrap();
        for slot in 0..6u64 {
            store.save(&result_key(slot), &value(slot * 131)).unwrap();
        }
        for (op, seed) in &ops {
            apply_op(&store, &writer, *op, *seed);
        }
        store.refresh();

        let snapshot = store.snapshot().unwrap();
        let scanned = Catalog::open_at(&store, &snapshot).unwrap();
        scanned.persist(&store).unwrap();
        let indexed = Catalog::open_at(&store, &snapshot).unwrap();
        prop_assert_eq!(
            indexed.source(),
            acmp_store::CatalogSource::Index,
            "persisting must make the next open answer from the index"
        );

        for query in queries(bound, top, descending) {
            let want = brute_force(&snapshot, &query);
            for catalog in [&scanned, &indexed] {
                let got: Vec<(u64, f64)> = catalog
                    .query(&query)
                    .iter()
                    .map(|hit| (hit.row.digest, hit.value))
                    .collect();
                prop_assert_eq!(
                    &got, &want,
                    "query {:?} (source {:?}) diverged from the brute-force scan",
                    query, catalog.source()
                );
            }
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}
