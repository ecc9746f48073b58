//! The typed catalog: a [`ResultRow`] view over the store's result records.
//!
//! Result records (canonical keys of the `{"generator":…,"benchmark":…,
//! "design":…}` shape the sweep engine mints) are projected into a
//! first-class row schema: benchmark, design family (derived from the
//! design's sharing mode), design name, scale (the stable digest of the
//! generator config) and every numeric metric of the stored value,
//! flattened with dotted paths (`cycles`, `bus.transactions`, …).  Trace
//! records and foreign keys are excluded.
//!
//! A [`Catalog`] is opened against a [`StoreSnapshot`], so its row set is
//! one coherent generation view.  Opening first tries the persisted index
//! (see [`crate::index`]): when the index's fingerprint matches the
//! snapshot's live result set, the rows are loaded without touching a
//! single segment value; otherwise the catalog is built by scanning the
//! snapshot's record values (each fetch counted by
//! `acmp_obs::names::STORE_VALUE_READS`) and can then be
//! [persisted](Catalog::persist) for the next opener.

use crate::index;
use crate::query::{Filter, Query, QueryHit};
use crate::snapshot::StoreSnapshot;
use crate::stable_hash;
use crate::store::DiskStore;
use serde::Value;
use std::io;

/// Whether a canonical key names a sweep *result* record (as opposed to a
/// trace set or a foreign key).  Result keys are canonical JSON whose first
/// field is the generator config, which is exactly how the engine's
/// `JobKey` lays them out.
#[must_use]
pub fn is_result_key(canonical: &str) -> bool {
    canonical.starts_with("{\"generator\":")
}

/// One result record, projected into the catalog schema.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultRow {
    /// The record's key digest (the store's address for it).
    pub digest: u64,
    /// The benchmark, as serialised in the key (e.g. `Cg`).
    pub benchmark: String,
    /// The design family, derived from the design's sharing mode
    /// (`private`, `worker-shared`, `all-shared`).
    pub family: String,
    /// The design point's name (e.g. `baseline-2lb`).
    pub design: String,
    /// The scale: the stable digest (16-hex) of the generator config
    /// embedded in the key.
    pub scale: String,
    /// Numeric metrics of the stored value, flattened with dotted paths and
    /// sorted by name.
    pub metrics: Vec<(String, Value)>,
}

impl ResultRow {
    /// The key digest formatted the way the store names entries.
    #[must_use]
    pub fn key_hex(&self) -> String {
        stable_hash::hex(self.digest)
    }

    /// Looks up a metric by its flattened name.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<&Value> {
        self.metrics
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| &self.metrics[i].1)
    }

    /// A metric's numeric value as `f64`.
    #[must_use]
    pub fn metric_f64(&self, name: &str) -> Option<f64> {
        self.metric(name).and_then(number)
    }
}

/// The numeric interpretation of a metric [`Value`].
#[must_use]
pub fn number(v: &Value) -> Option<f64> {
    match v {
        Value::UInt(n) => Some(*n as f64),
        Value::Int(n) => Some(*n as f64),
        Value::Float(f) if f.is_finite() => Some(*f),
        _ => None,
    }
}

/// How a catalog came to be: loaded from a fresh persisted index, or built
/// by scanning segment values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CatalogSource {
    /// Loaded from a persisted index segment whose fingerprint matched the
    /// key index — zero segment value reads.
    Index,
    /// Built by scanning record values (no index, or a stale one).
    Scan,
}

/// The typed, queryable view over a snapshot's result records: its
/// digest-sorted [`ResultRow`]s.
#[derive(Debug)]
pub struct Catalog {
    rows: Vec<ResultRow>,
    fingerprint: u64,
    source: CatalogSource,
}

impl Catalog {
    /// Opens the catalog for `store`: snapshots the live record set, then
    /// loads the persisted index if its fingerprint matches, or
    /// builds rows by scanning the snapshot's record values otherwise.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the snapshot cannot be taken or a pinned
    /// record cannot be read back during a build.
    pub fn open(store: &DiskStore) -> io::Result<Catalog> {
        let snapshot = store.snapshot()?;
        Self::open_at(store, &snapshot)
    }

    /// [`open`](Catalog::open) against an already-taken snapshot.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if a pinned record cannot be read back during
    /// a build.
    pub fn open_at(store: &DiskStore, snapshot: &StoreSnapshot) -> io::Result<Catalog> {
        let fingerprint = index::snapshot_fingerprint(snapshot);
        if let Some(rows) = index::load_index(store.root(), fingerprint) {
            return Ok(Catalog {
                rows,
                fingerprint,
                source: CatalogSource::Index,
            });
        }
        Ok(Catalog {
            rows: Self::scan_rows(snapshot)?,
            fingerprint,
            source: CatalogSource::Scan,
        })
    }

    /// Builds the row set by reading every result record's value out of the
    /// snapshot — the cold path the persisted index exists to avoid.
    fn scan_rows(snapshot: &StoreSnapshot) -> io::Result<Vec<ResultRow>> {
        let mut span = acmp_obs::span!(acmp_obs::names::STORE_INDEX_BUILD);
        let mut rows = Vec::new();
        for (i, meta) in snapshot.iter().enumerate() {
            if !is_result_key(meta.canonical) {
                continue;
            }
            let digest = meta.digest;
            let line = snapshot.read_record(i)?;
            // Open or refresh verified every record the snapshot pins, and
            // segments are append-only: cut it without hashing it again.
            let Some((canonical, _, value_json)) = crate::segment::split_record(&line) else {
                continue;
            };
            if let Some(row) = row_from_record(digest, &canonical, value_json) {
                rows.push(row);
            }
        }
        span.record_field("rows", rows.len() as u64);
        Ok(rows)
    }

    /// The digest-sorted result rows.
    #[must_use]
    pub fn rows(&self) -> &[ResultRow] {
        &self.rows
    }

    /// The key-index fingerprint this catalog corresponds to.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Whether this catalog was served from the persisted index or built by
    /// a value scan.
    #[must_use]
    pub fn source(&self) -> CatalogSource {
        self.source
    }

    /// Persists this catalog as an index segment under the store directory
    /// (and retires older index segments), so the next opener with the same
    /// live result set answers without any value scan.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the index segment cannot be written or
    /// renamed into place.
    pub fn persist(&self, store: &DiskStore) -> io::Result<std::path::PathBuf> {
        index::write_index(store, self)
    }

    /// Answers `query` entirely from the catalog: one pass keeps the rows
    /// every filter admits, then top-k ranking by the requested metric.
    #[must_use]
    pub fn query(&self, query: &Query) -> Vec<QueryHit<'_>> {
        crate::query::run(self, query)
    }

    /// The metric names at least one row carries with a numeric value,
    /// sorted and deduplicated — the vocabulary `--by` and metric filters
    /// draw from.
    #[must_use]
    pub fn known_metrics(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self
            .rows
            .iter()
            .flat_map(|row| row.metrics.iter())
            .filter(|(_, value)| number(value).is_some())
            .map(|(name, _)| name.as_str())
            .collect();
        names.sort_unstable();
        names.dedup();
        names
    }

    /// Checks that `query`'s ranking metric and every metric-comparison
    /// filter name a metric some row actually carries.  Without this, a
    /// typo like `--by cylces` silently ranks zero rows and reads as an
    /// empty design space.  An empty catalog validates trivially: there is
    /// no vocabulary to check against, and "0 rows" is already the honest
    /// answer.
    ///
    /// # Errors
    ///
    /// Returns a message naming the unknown metric and listing the known
    /// metric names.
    pub fn validate_query(&self, query: &Query) -> Result<(), String> {
        if self.rows.is_empty() {
            return Ok(());
        }
        // The vocabulary is built only for the error message.
        let check = |metric: &str| {
            if self.rows.iter().any(|row| row.metric_f64(metric).is_some()) {
                Ok(())
            } else {
                Err(format!(
                    "unknown metric `{metric}` (no row carries it); known metrics: {}",
                    self.known_metrics().join(", ")
                ))
            }
        };
        check(&query.by)?;
        for filter in &query.filters {
            if let Filter::Metric { metric, .. } = filter {
                check(metric)?;
            }
        }
        Ok(())
    }
}

/// Projects one verified result record into a [`ResultRow`].  `None` when
/// the key or value does not have the expected shape (a foreign record in a
/// shared store) — the row is then simply not part of the catalog.
#[must_use]
pub fn row_from_record(digest: u64, canonical: &str, value_json: &str) -> Option<ResultRow> {
    let key: Value = serde_json::from_str(canonical).ok()?;
    let key_fields = key.as_object()?;
    let generator = serde::get_field(key_fields, "generator").ok()?;
    let benchmark = serde::get_field(key_fields, "benchmark")
        .ok()?
        .as_str()?
        .to_string();
    let design = serde::get_field(key_fields, "design").ok()?.as_object()?;
    let design_name = serde::get_field(design, "name").ok()?.as_str()?.to_string();
    let family = family_of(serde::get_field(design, "sharing").ok()?)?;
    let scale = stable_hash::hex(stable_hash::fnv1a(generator.to_string().as_bytes()));

    let value: Value = serde_json::from_str(value_json).ok()?;
    let mut metrics = Vec::new();
    flatten_metrics("", &value, &mut metrics);
    if metrics.is_empty() {
        return None;
    }
    metrics.sort_by(|(a, _), (b, _)| a.cmp(b));
    Some(ResultRow {
        digest,
        benchmark,
        family,
        design: design_name,
        scale,
        metrics,
    })
}

/// Derives the design family from a serialised sharing mode: the enum
/// variant name (plain string for unit variants, single tag for struct
/// variants), kebab-cased — `Private` → `private`, `WorkerShared {…}` →
/// `worker-shared`.
fn family_of(sharing: &Value) -> Option<String> {
    let variant = match sharing {
        Value::String(s) => s.as_str(),
        Value::Object(fields) if fields.len() == 1 => fields[0].0.as_str(),
        _ => return None,
    };
    let mut out = String::with_capacity(variant.len() + 2);
    for (i, c) in variant.chars().enumerate() {
        if c.is_ascii_uppercase() {
            if i > 0 {
                out.push('-');
            }
            out.push(c.to_ascii_lowercase());
        } else {
            out.push(c);
        }
    }
    Some(out)
}

/// Flattens every numeric leaf of a value into dotted-path metrics.
/// Arrays are skipped (per-core vectors would explode the schema); nested
/// objects recurse.
fn flatten_metrics(prefix: &str, value: &Value, out: &mut Vec<(String, Value)>) {
    match value {
        Value::UInt(_) | Value::Int(_) | Value::Float(_)
            if !prefix.is_empty() && number(value).is_some() =>
        {
            out.push((prefix.to_string(), value.clone()));
        }
        Value::Object(fields) => {
            for (name, v) in fields {
                let path = if prefix.is_empty() {
                    name.clone()
                } else {
                    format!("{prefix}.{name}")
                };
                flatten_metrics(&path, v, out);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result_canonical(benchmark: &str, design: &str, sharing: &str) -> String {
        format!(
            "{{\"generator\":{{\"seed\":7}},\"benchmark\":\"{benchmark}\",\
             \"design\":{{\"name\":\"{design}\",\"sharing\":{sharing}}}}}"
        )
    }

    #[test]
    fn result_keys_are_recognised() {
        assert!(is_result_key(&result_canonical(
            "Cg",
            "baseline",
            "\"Private\""
        )));
        assert!(!is_result_key("{\"kind\":\"traces\",\"generator\":{}}"));
        assert!(!is_result_key("arbitrary test key"));
    }

    #[test]
    fn rows_project_the_record_schema() {
        let canonical = result_canonical(
            "Cg",
            "shared-64k",
            "{\"WorkerShared\":{\"cores_per_cache\":8}}",
        );
        let value = "{\"cycles\":100,\"bus\":{\"transactions\":7},\"cores\":[1,2],\"name\":\"x\"}";
        let row = row_from_record(42, &canonical, value).expect("a well-formed record");
        assert_eq!(row.benchmark, "Cg");
        assert_eq!(row.family, "worker-shared");
        assert_eq!(row.design, "shared-64k");
        assert_eq!(row.scale.len(), 16);
        assert_eq!(
            row.metrics,
            vec![
                ("bus.transactions".to_string(), Value::UInt(7)),
                ("cycles".to_string(), Value::UInt(100)),
            ],
            "arrays and strings are not metrics"
        );
        assert_eq!(row.metric_f64("cycles"), Some(100.0));
        assert_eq!(row.metric("absent"), None);
    }

    #[test]
    fn families_kebab_case_the_variant_name() {
        assert_eq!(
            family_of(&Value::String("Private".into())).as_deref(),
            Some("private")
        );
        assert_eq!(
            family_of(&Value::String("AllShared".into())).as_deref(),
            Some("all-shared")
        );
        let tagged = Value::Object(vec![("WorkerShared".to_string(), Value::Null)]);
        assert_eq!(family_of(&tagged).as_deref(), Some("worker-shared"));
        assert_eq!(family_of(&Value::Null), None);
    }

    #[test]
    fn malformed_records_are_skipped_not_fatal() {
        assert!(row_from_record(1, "not json", "{}").is_none());
        assert!(row_from_record(1, "{\"generator\":1}", "{\"cycles\":1}").is_none());
        let canonical = result_canonical("Cg", "baseline", "\"Private\"");
        assert!(row_from_record(1, &canonical, "\"no metrics\"").is_none());
    }
}
