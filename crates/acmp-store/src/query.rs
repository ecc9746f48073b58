//! The sweep query language: conjunctive filters plus top-k ranking,
//! answered entirely from the [`Catalog`].
//!
//! # Grammar
//!
//! A query is a conjunction of filters, each one token:
//!
//! * **facet equality** — `benchmark=cg`, `family=worker-shared`,
//!   `design=baseline-2lb`, `scale=<16-hex>`; only those four fields admit
//!   `=`, and matching is case-insensitive;
//! * **metric comparison** — `<metric><op><number>` with op one of `<=`,
//!   `>=`, `<`, `>`, e.g. `cycles<=1000000` or `worker_icache.misses>0`.
//!
//! Ranking is by a metric (`--by cycles`), ascending by default
//! (`--desc` flips it), truncated to the top-k.  Rows lacking the ranking
//! metric are excluded.  Ties break on the key digest, so results are
//! fully deterministic.
//!
//! # Execution
//!
//! One pass over the catalog's rows keeps each row every filter admits:
//! facets compare case-insensitively, metrics exactly against the row's
//! in-catalog value.  The design-space tables this ranks hold tens to
//! hundreds of rows, so no per-term index pays for itself.  Nothing ever
//! touches a segment value: a query over a warm catalog performs **zero**
//! segment value reads, observable through
//! `acmp_obs::names::STORE_VALUE_READS`.

use crate::catalog::{Catalog, ResultRow};
use std::fmt;

/// Comparison operator of a metric filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `<`
    Lt,
    /// `>`
    Gt,
}

impl Cmp {
    /// Whether `value` compares against `bound` under this operator.
    #[must_use]
    pub fn admits(&self, value: f64, bound: f64) -> bool {
        match self {
            Cmp::Le => value <= bound,
            Cmp::Ge => value >= bound,
            Cmp::Lt => value < bound,
            Cmp::Gt => value > bound,
        }
    }

    /// The operator's surface syntax.
    #[must_use]
    pub fn token(&self) -> &'static str {
        match self {
            Cmp::Le => "<=",
            Cmp::Ge => ">=",
            Cmp::Lt => "<",
            Cmp::Gt => ">",
        }
    }
}

/// The facet fields that admit `=` filters.
pub const FACET_FIELDS: [&str; 4] = ["benchmark", "family", "design", "scale"];

/// One conjunct of a query.
#[derive(Debug, Clone, PartialEq)]
pub enum Filter {
    /// Facet equality, e.g. `benchmark=cg`.  `value` is stored lowercased.
    Field {
        /// One of [`FACET_FIELDS`].
        field: String,
        /// The required value (lowercase).
        value: String,
    },
    /// Metric comparison, e.g. `cycles<=1000000`.
    Metric {
        /// Flattened metric name (`cycles`, `bus.transactions`, …).
        metric: String,
        /// The comparison operator.
        cmp: Cmp,
        /// The bound.
        value: f64,
    },
}

impl Filter {
    /// Parses one filter token of the grammar.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when the token fits no production.
    pub fn parse(token: &str) -> Result<Filter, String> {
        // Two-char operators first so `<=` is not read as `<` + `=…`.
        for (op, cmp) in [
            ("<=", Cmp::Le),
            (">=", Cmp::Ge),
            ("<", Cmp::Lt),
            (">", Cmp::Gt),
        ] {
            if let Some(at) = token.find(op) {
                let metric = token[..at].trim();
                let bound = token[at + op.len()..].trim();
                if metric.is_empty() {
                    return Err(format!("filter `{token}`: missing metric before `{op}`"));
                }
                let value: f64 = bound
                    .parse()
                    .map_err(|_| format!("filter `{token}`: `{bound}` is not a number"))?;
                if !value.is_finite() {
                    return Err(format!("filter `{token}`: bound must be finite"));
                }
                return Ok(Filter::Metric {
                    metric: metric.to_string(),
                    cmp,
                    value,
                });
            }
        }
        if let Some(at) = token.find('=') {
            let field = token[..at].trim().to_ascii_lowercase();
            let value = token[at + 1..].trim().to_ascii_lowercase();
            if !FACET_FIELDS.contains(&field.as_str()) {
                return Err(format!(
                    "filter `{token}`: `=` applies to {} (metrics use <=, >=, <, >)",
                    FACET_FIELDS.join("/")
                ));
            }
            if value.is_empty() {
                return Err(format!("filter `{token}`: missing value after `=`"));
            }
            return Ok(Filter::Field { field, value });
        }
        Err(format!(
            "filter `{token}`: expected field=value or metric<op>number"
        ))
    }

    /// Whether `row` satisfies this filter.
    fn admits(&self, row: &ResultRow) -> bool {
        match self {
            Filter::Field { field, value } => {
                let facet = match field.as_str() {
                    "benchmark" => &row.benchmark,
                    "family" => &row.family,
                    "design" => &row.design,
                    "scale" => &row.scale,
                    _ => return false,
                };
                facet.eq_ignore_ascii_case(value)
            }
            Filter::Metric { metric, cmp, value } => row
                .metric_f64(metric)
                .is_some_and(|v| cmp.admits(v, *value)),
        }
    }
}

impl fmt::Display for Filter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Filter::Field { field, value } => write!(f, "{field}={value}"),
            Filter::Metric { metric, cmp, value } => {
                write!(f, "{metric}{}{value}", cmp.token())
            }
        }
    }
}

/// A complete query: conjunctive filters, the ranking metric, and the cut.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// All filters; a row must satisfy every one.
    pub filters: Vec<Filter>,
    /// The metric results are ranked by.  Rows lacking it are excluded.
    pub by: String,
    /// Keep only the first `top` rows after ranking (`None` = all).
    pub top: Option<usize>,
    /// Rank descending instead of ascending.
    pub descending: bool,
}

impl Query {
    /// Parses filter tokens into a query ranked by `by`.
    ///
    /// # Errors
    ///
    /// Returns the first filter parse error.
    pub fn parse(
        filters: &[String],
        by: &str,
        top: Option<usize>,
        descending: bool,
    ) -> Result<Query, String> {
        let filters = filters
            .iter()
            .map(|t| Filter::parse(t))
            .collect::<Result<Vec<_>, _>>()?;
        if by.trim().is_empty() {
            return Err("ranking metric (--by) must not be empty".to_string());
        }
        Ok(Query {
            filters,
            by: by.trim().to_string(),
            top,
            descending,
        })
    }
}

/// One ranked query result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryHit<'a> {
    /// The matching catalog row.
    pub row: &'a ResultRow,
    /// The row's value of the ranking metric.
    pub value: f64,
}

impl QueryHit<'_> {
    /// Renders this hit as the one JSONL line shape shared by `sweep
    /// query` and `sweep serve` — a single renderer is what makes the two
    /// byte-identical by construction.  `by` is the query's ranking
    /// metric; `value` is the row's stored metric value (so integers stay
    /// integers), falling back to the ranked float.
    #[must_use]
    pub fn to_jsonl(&self, by: &str) -> String {
        let value = self
            .row
            .metric(by)
            .cloned()
            .unwrap_or(serde::Value::Float(self.value));
        serde::Value::Object(vec![
            ("key".to_string(), serde::Value::String(self.row.key_hex())),
            (
                "benchmark".to_string(),
                serde::Value::String(self.row.benchmark.clone()),
            ),
            (
                "family".to_string(),
                serde::Value::String(self.row.family.clone()),
            ),
            (
                "design".to_string(),
                serde::Value::String(self.row.design.clone()),
            ),
            ("metric".to_string(), serde::Value::String(by.to_string())),
            ("value".to_string(), value),
        ])
        .to_string()
    }
}

/// Runs `query` against `catalog`.  See the module docs for semantics.
#[must_use]
pub(crate) fn run<'a>(catalog: &'a Catalog, query: &Query) -> Vec<QueryHit<'a>> {
    let mut span = acmp_obs::span!(acmp_obs::names::STORE_QUERY);
    span.record_field("filters", query.filters.len());

    let mut hits: Vec<QueryHit<'a>> = catalog
        .rows()
        .iter()
        .filter(|row| query.filters.iter().all(|f| f.admits(row)))
        .filter_map(|row| {
            row.metric_f64(&query.by)
                .map(|value| QueryHit { row, value })
        })
        .collect();

    hits.sort_by(|a, b| {
        let values = if query.descending {
            b.value.total_cmp(&a.value)
        } else {
            a.value.total_cmp(&b.value)
        };
        values.then_with(|| a.row.digest.cmp(&b.row.digest))
    });
    if let Some(top) = query.top {
        hits.truncate(top);
    }
    span.record_field("hits", hits.len());
    hits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::DiskStore;
    use crate::RawKey;
    use std::path::PathBuf;

    #[test]
    fn filters_parse_per_the_grammar() {
        assert_eq!(
            Filter::parse("benchmark=CG"),
            Ok(Filter::Field {
                field: "benchmark".into(),
                value: "cg".into()
            })
        );
        assert_eq!(
            Filter::parse("cycles<=1e6"),
            Ok(Filter::Metric {
                metric: "cycles".into(),
                cmp: Cmp::Le,
                value: 1e6
            })
        );
        assert_eq!(
            Filter::parse("worker_icache.misses>0"),
            Ok(Filter::Metric {
                metric: "worker_icache.misses".into(),
                cmp: Cmp::Gt,
                value: 0.0
            })
        );
        assert!(Filter::parse("cycles=5").is_err(), "`=` is facet-only");
        assert!(Filter::parse("benchmark").is_err());
        assert!(Filter::parse("cycles<abc").is_err());
        assert!(Filter::parse("cycles<inf").is_err());
    }

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "acmp-store-query-test-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn seeded_catalog(tag: &str) -> Catalog {
        let store = DiskStore::open(temp_root(tag)).unwrap();
        for (benchmark, design, sharing, cycles) in [
            ("Cg", "base", "\"Private\"", 100u64),
            ("Cg", "s64", "{\"WorkerShared\":{\"ways\":4}}", 80),
            ("Cg", "all", "\"AllShared\"", 120),
            ("Lu", "base", "\"Private\"", 300),
            ("Lu", "s64", "{\"WorkerShared\":{\"ways\":4}}", 250),
        ] {
            let key = RawKey::new(format!(
                "{{\"generator\":{{\"seed\":7}},\"benchmark\":\"{benchmark}\",\
                 \"design\":{{\"name\":\"{design}\",\"sharing\":{sharing}}}}}"
            ));
            let value: serde::Value =
                serde_json::from_str(&format!("{{\"cycles\":{cycles},\"ipc\":0.5}}")).unwrap();
            store.save(&key, &value).unwrap();
        }
        Catalog::open(&store).unwrap()
    }

    fn query(filters: &[&str], by: &str, top: Option<usize>, desc: bool) -> Query {
        let filters: Vec<String> = filters.iter().map(|s| s.to_string()).collect();
        Query::parse(&filters, by, top, desc).unwrap()
    }

    #[test]
    fn facet_filters_intersect_and_rank() {
        let catalog = seeded_catalog("facets");
        let hits = catalog.query(&query(&["benchmark=cg"], "cycles", None, false));
        let got: Vec<(&str, f64)> = hits
            .iter()
            .map(|h| (h.row.design.as_str(), h.value))
            .collect();
        assert_eq!(got, vec![("s64", 80.0), ("base", 100.0), ("all", 120.0)]);

        let hits = catalog.query(&query(
            &["benchmark=cg", "family=worker-shared"],
            "cycles",
            None,
            false,
        ));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].row.design, "s64");
    }

    #[test]
    fn metric_filters_apply_exact_comparisons() {
        let catalog = seeded_catalog("metrics");
        let hits = catalog.query(&query(&["cycles<=120", "cycles>80"], "cycles", None, false));
        let got: Vec<f64> = hits.iter().map(|h| h.value).collect();
        assert_eq!(
            got,
            vec![100.0, 120.0],
            "80 excluded by strict >, 250/300 by <="
        );
    }

    #[test]
    fn top_k_and_desc_shape_the_cut() {
        let catalog = seeded_catalog("topk");
        let hits = catalog.query(&query(&[], "cycles", Some(2), true));
        let got: Vec<f64> = hits.iter().map(|h| h.value).collect();
        assert_eq!(got, vec![300.0, 250.0]);
    }

    #[test]
    fn query_results_match_a_brute_force_scan() {
        let catalog = seeded_catalog("brute");
        let q = query(&["family=private"], "cycles", None, false);
        let hits = catalog.query(&q);
        let mut brute: Vec<(u64, f64)> = catalog
            .rows()
            .iter()
            .filter(|r| r.family == "private")
            .filter_map(|r| r.metric_f64("cycles").map(|v| (r.digest, v)))
            .collect();
        brute.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
        let got: Vec<(u64, f64)> = hits.iter().map(|h| (h.row.digest, h.value)).collect();
        assert_eq!(got, brute);
    }

    #[test]
    fn rows_missing_the_ranking_metric_are_excluded() {
        let catalog = seeded_catalog("missing");
        assert!(catalog
            .query(&query(&[], "no.such.metric", None, false))
            .is_empty());
    }

    #[test]
    fn unknown_metrics_are_rejected_with_the_vocabulary() {
        let catalog = seeded_catalog("vocab");
        assert_eq!(catalog.known_metrics(), vec!["cycles", "ipc"]);
        let err = catalog
            .validate_query(&query(&[], "cylces", None, false))
            .unwrap_err();
        assert!(
            err.contains("`cylces`") && err.contains("cycles, ipc"),
            "{err}"
        );
        let err = catalog
            .validate_query(&query(&["cylces<=100"], "cycles", None, false))
            .unwrap_err();
        assert!(err.contains("`cylces`"), "{err}");
        assert!(catalog
            .validate_query(&query(&["benchmark=cg", "ipc>0"], "cycles", None, false))
            .is_ok());
        // An empty catalog has no vocabulary to check against.
        let store = DiskStore::open(temp_root("vocab-empty")).unwrap();
        let empty = Catalog::open(&store).unwrap();
        assert!(empty
            .validate_query(&query(&[], "cycles", None, false))
            .is_ok());
    }

    #[test]
    fn hits_render_the_shared_jsonl_shape() {
        let catalog = seeded_catalog("jsonl");
        let hits = catalog.query(&query(&["benchmark=cg"], "cycles", Some(1), false));
        let line = hits[0].to_jsonl("cycles");
        assert!(line.starts_with("{\"key\":\""), "{line}");
        assert!(
            line.ends_with("\"metric\":\"cycles\",\"value\":80}"),
            "stored integers must render as integers: {line}"
        );
    }
}
