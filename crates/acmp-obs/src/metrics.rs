//! The aggregated metrics registry and its versioned JSON schema.
//!
//! Counters are plain named `u64`s; histograms are log₂-bucketed
//! (count/sum/min/max plus 65 buckets: bucket 0 holds the value 0, bucket
//! *k* the values in `[2^(k-1), 2^k)`).  Buckets are serialised as sparse
//! `[index, count]` pairs precisely so snapshots from different processes
//! — the shard children of one coordinator — can be *merged* without
//! losing the quantile structure; the derived `mean`/`p50`/`p90`/`p99`
//! fields are recomputed from the buckets after every merge.
//!
//! The JSON document is versioned ([`METRICS_SCHEMA`]) and pinned by a
//! committed golden fixture, so downstream consumers (`sweep serve`, the
//! planned elastic coordinator, CI validators) can parse it without churn.
//! [`MetricsSnapshot::from_value`] is a *strict* validator: unknown keys,
//! missing fields, malformed buckets and derived fields that disagree with
//! the buckets are all errors, which is what lets `sweep trace report`
//! double as the schema check in CI.

use parking_lot::Mutex;
use serde::Value;
use std::collections::{BTreeMap, HashMap};
use std::sync::OnceLock;

/// The metrics document's schema identifier.
pub const METRICS_SCHEMA: &str = "acmp-obs-metrics/v1";

/// Number of histogram buckets: the zero bucket plus one per power of two.
const NUM_BUCKETS: usize = 65;

/// The value bucket `index` covers up to (inclusive).
fn bucket_upper(index: u32) -> u64 {
    match index {
        0 => 0,
        1..=63 => (1u64 << index) - 1,
        _ => u64::MAX,
    }
}

/// The bucket `value` lands in.
fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

#[derive(Debug)]
struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; NUM_BUCKETS],
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; NUM_BUCKETS],
        }
    }

    fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[bucket_index(value)] += 1;
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            min: if self.count == 0 { 0 } else { self.min },
            max: self.max,
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(i, &c)| (i as u32, c))
                .collect(),
        }
    }
}

/// The process-wide metrics registry behind [`counter!`](crate::counter)
/// and [`histogram!`](crate::histogram).
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<HashMap<&'static str, u64>>,
    histograms: Mutex<HashMap<&'static str, Histogram>>,
}

impl Registry {
    /// Adds `delta` to the named counter.
    pub fn counter_add(&self, name: &'static str, delta: u64) {
        *self.counters.lock().entry(name).or_insert(0) += delta;
    }

    /// Records one `value` into the named histogram.
    pub fn histogram_record(&self, name: &'static str, value: u64) {
        self.histograms
            .lock()
            .entry(name)
            .or_insert_with(Histogram::new)
            .record(value);
    }

    /// An immutable snapshot of everything recorded so far.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters: BTreeMap<String, u64> = self
            .counters
            .lock()
            .iter()
            .map(|(&k, &v)| (k.to_string(), v))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .iter()
            .map(|(&k, h)| (k.to_string(), h.snapshot()))
            .collect();
        MetricsSnapshot {
            counters,
            histograms,
        }
    }

    /// Clears every counter and histogram (test support).
    pub fn reset(&self) {
        self.counters.lock().clear();
        self.histograms.lock().clear();
    }
}

/// The process-wide registry.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

/// One histogram, frozen: totals plus sparse log₂ buckets.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Values recorded.
    pub count: u64,
    /// Sum of recorded values (saturating).
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
    /// `(bucket index, count)` pairs, ascending, zero counts omitted.
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSnapshot {
    /// Records `value` (fixture-building and merge support; live recording
    /// goes through the registry).
    pub fn record(&mut self, value: u64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        let index = bucket_index(value) as u32;
        match self.buckets.binary_search_by_key(&index, |&(i, _)| i) {
            Ok(pos) => self.buckets[pos].1 += 1,
            Err(pos) => self.buckets.insert(pos, (index, 1)),
        }
    }

    /// Arithmetic mean of the recorded values.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate `q`-quantile (0 < q ≤ 1): the upper bound of the bucket
    /// holding the ⌈q·count⌉-th value, capped at the observed maximum.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for &(index, count) in &self.buckets {
            cumulative += count;
            if cumulative >= target {
                return bucket_upper(index).min(self.max);
            }
        }
        self.max
    }

    /// Folds `other` into `self`, summing buckets; derived quantities stay
    /// derivable because the buckets merge losslessly.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for &(index, count) in &other.buckets {
            match self.buckets.binary_search_by_key(&index, |&(i, _)| i) {
                Ok(pos) => self.buckets[pos].1 += count,
                Err(pos) => self.buckets.insert(pos, (index, count)),
            }
        }
    }

    fn to_value(&self) -> Value {
        let buckets = self
            .buckets
            .iter()
            .map(|&(i, c)| Value::Array(vec![Value::UInt(u64::from(i)), Value::UInt(c)]))
            .collect();
        Value::Object(vec![
            ("count".to_string(), Value::UInt(self.count)),
            ("sum".to_string(), Value::UInt(self.sum)),
            ("min".to_string(), Value::UInt(self.min)),
            ("max".to_string(), Value::UInt(self.max)),
            ("mean".to_string(), Value::Float(self.mean())),
            ("p50".to_string(), Value::UInt(self.quantile(0.50))),
            ("p90".to_string(), Value::UInt(self.quantile(0.90))),
            ("p99".to_string(), Value::UInt(self.quantile(0.99))),
            ("buckets".to_string(), Value::Array(buckets)),
        ])
    }

    fn from_value(name: &str, value: &Value) -> Result<Self, String> {
        let fields = value
            .as_object()
            .ok_or_else(|| format!("histogram `{name}` is not an object"))?;
        const KEYS: [&str; 9] = [
            "count", "sum", "min", "max", "mean", "p50", "p90", "p99", "buckets",
        ];
        for (key, _) in fields {
            if !KEYS.contains(&key.as_str()) {
                return Err(format!("histogram `{name}` has unknown field `{key}`"));
            }
        }
        let uint = |key: &str| -> Result<u64, String> {
            match serde::get_field(fields, key) {
                Ok(Value::UInt(n)) => Ok(*n),
                Ok(_) => Err(format!("histogram `{name}` field `{key}` is not a uint")),
                Err(_) => Err(format!("histogram `{name}` is missing field `{key}`")),
            }
        };
        let count = uint("count")?;
        let sum = uint("sum")?;
        let min = uint("min")?;
        let max = uint("max")?;
        if count == 0 {
            return Err(format!("histogram `{name}` has zero count"));
        }
        if min > max {
            return Err(format!("histogram `{name}` has min > max"));
        }
        let Ok(Value::Array(raw)) = serde::get_field(fields, "buckets") else {
            return Err(format!("histogram `{name}` is missing a buckets array"));
        };
        let mut buckets: Vec<(u32, u64)> = Vec::with_capacity(raw.len());
        let mut total = 0u64;
        for item in raw {
            let Value::Array(pair) = item else {
                return Err(format!("histogram `{name}` bucket is not a pair"));
            };
            let [Value::UInt(index), Value::UInt(bucket_count)] = pair.as_slice() else {
                return Err(format!("histogram `{name}` bucket is not [index, count]"));
            };
            if *index >= NUM_BUCKETS as u64 {
                return Err(format!(
                    "histogram `{name}` bucket index {index} out of range"
                ));
            }
            if *bucket_count == 0 {
                return Err(format!("histogram `{name}` carries an empty bucket"));
            }
            if let Some(&(last, _)) = buckets.last() {
                if u64::from(last) >= *index {
                    return Err(format!("histogram `{name}` buckets are not ascending"));
                }
            }
            buckets.push((*index as u32, *bucket_count));
            total += *bucket_count;
        }
        if total != count {
            return Err(format!(
                "histogram `{name}`: buckets sum to {total}, count says {count}"
            ));
        }
        let snapshot = HistogramSnapshot {
            count,
            sum,
            min,
            max,
            buckets,
        };
        // The derived fields are recomputable; a document whose spellings
        // disagree with its own buckets was hand-edited or corrupted.
        for (key, want) in [
            ("p50", snapshot.quantile(0.50)),
            ("p90", snapshot.quantile(0.90)),
            ("p99", snapshot.quantile(0.99)),
        ] {
            if uint(key)? != want {
                return Err(format!(
                    "histogram `{name}` field `{key}` disagrees with its buckets"
                ));
            }
        }
        match serde::get_field(fields, "mean") {
            Ok(Value::Float(x)) if *x == snapshot.mean() => {}
            Ok(Value::UInt(n)) if *n as f64 == snapshot.mean() => {}
            _ => {
                return Err(format!(
                    "histogram `{name}` field `mean` disagrees with sum/count"
                ))
            }
        }
        Ok(snapshot)
    }
}

/// A frozen, mergeable view of the whole registry — the payload of
/// `--metrics-out` and of `sweep serve`'s `/stats`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Counter name → total.
    pub counters: BTreeMap<String, u64>,
    /// Histogram name → frozen histogram.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// The named counter's total (0 when never incremented).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Folds `other` into `self`: counters sum, histograms merge bucketwise.
    /// This is how the shard coordinator combines its children's snapshots.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, value) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += value;
        }
        for (name, histogram) in &other.histograms {
            self.histograms
                .entry(name.clone())
                .or_default()
                .merge(histogram);
        }
    }

    /// The versioned JSON document (schema, counters, histograms — names
    /// sorted, so two identical snapshots print byte-identically).
    #[must_use]
    pub fn to_value(&self) -> Value {
        let counters = self
            .counters
            .iter()
            .map(|(k, &v)| (k.clone(), Value::UInt(v)))
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, h)| (k.clone(), h.to_value()))
            .collect();
        Value::Object(vec![
            (
                "schema".to_string(),
                Value::String(METRICS_SCHEMA.to_string()),
            ),
            ("counters".to_string(), Value::Object(counters)),
            ("histograms".to_string(), Value::Object(histograms)),
        ])
    }

    /// Strictly validates and rebuilds a snapshot from its JSON document.
    ///
    /// # Errors
    ///
    /// Names the first violation: wrong or missing schema tag, unknown
    /// keys, non-integer counters, malformed histograms, or derived fields
    /// that disagree with their buckets.
    pub fn from_value(value: &Value) -> Result<Self, String> {
        let fields = value
            .as_object()
            .ok_or_else(|| "metrics document is not an object".to_string())?;
        for (key, _) in fields {
            if !matches!(key.as_str(), "schema" | "counters" | "histograms") {
                return Err(format!("metrics document has unknown field `{key}`"));
            }
        }
        match serde::get_field(fields, "schema") {
            Ok(Value::String(s)) if s == METRICS_SCHEMA => {}
            Ok(Value::String(s)) => {
                return Err(format!(
                    "unsupported metrics schema `{s}` (want `{METRICS_SCHEMA}`)"
                ))
            }
            _ => return Err("metrics document is missing its schema tag".to_string()),
        }
        let counters_value = serde::get_field(fields, "counters")
            .map_err(|_| "metrics document is missing `counters`".to_string())?;
        let Some(counter_fields) = counters_value.as_object() else {
            return Err("`counters` is not an object".to_string());
        };
        let mut counters = BTreeMap::new();
        for (name, value) in counter_fields {
            let Value::UInt(n) = value else {
                return Err(format!("counter `{name}` is not a uint"));
            };
            if counters.insert(name.clone(), *n).is_some() {
                return Err(format!("counter `{name}` appears twice"));
            }
        }
        let histograms_value = serde::get_field(fields, "histograms")
            .map_err(|_| "metrics document is missing `histograms`".to_string())?;
        let Some(histogram_fields) = histograms_value.as_object() else {
            return Err("`histograms` is not an object".to_string());
        };
        let mut histograms = BTreeMap::new();
        for (name, value) in histogram_fields {
            let snapshot = HistogramSnapshot::from_value(name, value)?;
            if histograms.insert(name.clone(), snapshot).is_some() {
                return Err(format!("histogram `{name}` appears twice"));
            }
        }
        Ok(MetricsSnapshot {
            counters,
            histograms,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_math_is_a_partition() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        // Every value's bucket upper bound is >= the value, and the
        // previous bucket's upper bound is < it.
        for value in [0u64, 1, 2, 3, 7, 8, 1000, u64::MAX / 2, u64::MAX] {
            let index = bucket_index(value) as u32;
            assert!(bucket_upper(index) >= value, "{value}");
            if index > 0 {
                assert!(bucket_upper(index - 1) < value, "{value}");
            }
        }
    }

    #[test]
    fn snapshot_quantiles_track_recorded_values() {
        let mut h = HistogramSnapshot::default();
        for value in [1u64, 2, 3, 4, 100, 1000] {
            h.record(value);
        }
        assert_eq!(h.count, 6);
        assert_eq!(h.sum, 1110);
        assert_eq!(h.min, 1);
        assert_eq!(h.max, 1000);
        assert!(h.quantile(0.5) >= 3 && h.quantile(0.5) <= 7);
        assert_eq!(h.quantile(1.0), 1000);
        assert!(h.mean() > 100.0);
    }

    #[test]
    fn merge_is_lossless_over_buckets() {
        let mut a = HistogramSnapshot::default();
        let mut b = HistogramSnapshot::default();
        let mut whole = HistogramSnapshot::default();
        for value in [1u64, 5, 9] {
            a.record(value);
            whole.record(value);
        }
        for value in [2u64, 700] {
            b.record(value);
            whole.record(value);
        }
        a.merge(&b);
        assert_eq!(a, whole, "merging halves must equal recording the whole");
    }

    #[test]
    fn snapshot_document_round_trips_strictly() {
        let mut snapshot = MetricsSnapshot::default();
        snapshot.counters.insert("engine.simulated".to_string(), 6);
        let mut h = HistogramSnapshot::default();
        for value in [10u64, 20, 40_000] {
            h.record(value);
        }
        snapshot
            .histograms
            .insert("engine.simulate_cell.simulate".to_string(), h);
        let text = snapshot.to_value().to_string();
        let parsed = MetricsSnapshot::from_value(&serde_json::from_str(&text).unwrap()).unwrap();
        assert_eq!(parsed, snapshot);
        assert_eq!(parsed.to_value().to_string(), text, "stable bytes");
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        let good = {
            let mut s = MetricsSnapshot::default();
            s.counters.insert("c".to_string(), 1);
            s.to_value().to_string()
        };
        for (label, text) in [
            ("wrong schema", good.replace("v1", "v999")),
            (
                "missing schema",
                good.replace("\"schema\":\"acmp-obs-metrics/v1\",", ""),
            ),
            (
                "extra key",
                good.replace("\"counters\"", "\"surprise\":1,\"counters\""),
            ),
            ("bad counter", good.replace("\"c\":1", "\"c\":\"one\"")),
        ] {
            let value: Value = serde_json::from_str(&text).unwrap();
            assert!(
                MetricsSnapshot::from_value(&value).is_err(),
                "{label} must be rejected: {text}"
            );
        }
    }

    #[test]
    fn validator_rejects_buckets_that_disagree_with_count() {
        let mut h = HistogramSnapshot::default();
        h.record(3);
        let mut s = MetricsSnapshot::default();
        s.histograms.insert("h".to_string(), h);
        let text = s
            .to_value()
            .to_string()
            .replace("\"count\":1", "\"count\":2");
        let value: Value = serde_json::from_str(&text).unwrap();
        assert!(MetricsSnapshot::from_value(&value).is_err());
    }

    #[test]
    fn merged_snapshots_sum_counters() {
        let mut a = MetricsSnapshot::default();
        a.counters.insert("engine.simulated".to_string(), 2);
        let mut b = MetricsSnapshot::default();
        b.counters.insert("engine.simulated".to_string(), 4);
        b.counters.insert("engine.disk_hits".to_string(), 1);
        a.merge(&b);
        assert_eq!(a.counter("engine.simulated"), 6);
        assert_eq!(a.counter("engine.disk_hits"), 1);
        assert_eq!(a.counter("never.recorded"), 0);
    }
}
