//! `sweep trace report` — renders a validated trace (plus an optional
//! metrics snapshot) into the three tables an operator actually wants:
//! where the time went per phase, which cells were slowest, and how well
//! the caches worked.

use crate::metrics::MetricsSnapshot;
use crate::names;
use serde::Value;
use std::collections::BTreeMap;

fn field<'a>(event: &'a Value, key: &str) -> Option<&'a Value> {
    event
        .as_object()
        .and_then(|f| serde::get_field(f, key).ok())
}

fn field_str<'a>(event: &'a Value, key: &str) -> Option<&'a str> {
    field(event, key).and_then(Value::as_str)
}

fn field_u64(event: &Value, key: &str) -> Option<u64> {
    match field(event, key) {
        Some(Value::UInt(n)) => Some(*n),
        _ => None,
    }
}

fn sub_field_str<'a>(event: &'a Value, key: &str) -> Option<&'a str> {
    field(event, "fields").and_then(|f| {
        f.as_object()
            .and_then(|fields| serde::get_field(fields, key).ok())
            .and_then(Value::as_str)
    })
}

#[derive(Default)]
struct PhaseAgg {
    count: u64,
    total_ns: u64,
    max_ns: u64,
}

/// Renders the report over already-validated trace event objects (see
/// [`read_trace_values`](crate::read_trace_values)); `metrics`, when
/// given, supplies the authoritative cache counters — otherwise they are
/// reconstructed by counting the trace's own cell spans.  `top` bounds the
/// slowest-cells table.
#[must_use]
pub fn render_report(events: &[Value], metrics: Option<&MetricsSnapshot>, top: usize) -> String {
    let mut out = String::new();
    let spans: Vec<&Value> = events
        .iter()
        .filter(|e| field_str(e, "kind") == Some("span"))
        .collect();
    let logs = events
        .iter()
        .filter(|e| field_str(e, "kind") == Some("log"))
        .count();
    out.push_str(&format!(
        "trace: {} events ({} spans, {} log lines)\n",
        events.len(),
        spans.len(),
        logs
    ));

    // Per-phase cost breakdown, heaviest first.
    let mut phases: BTreeMap<&str, PhaseAgg> = BTreeMap::new();
    for span in &spans {
        let Some(name) = field_str(span, "name") else {
            continue;
        };
        let dur = field_u64(span, "dur_ns").unwrap_or(0);
        let agg = phases.entry(name).or_default();
        agg.count += 1;
        agg.total_ns += dur;
        agg.max_ns = agg.max_ns.max(dur);
    }
    let mut ordered: Vec<(&str, PhaseAgg)> = phases.into_iter().collect();
    ordered.sort_by(|a, b| b.1.total_ns.cmp(&a.1.total_ns).then(a.0.cmp(b.0)));
    out.push_str("\nper-phase cost:\n");
    out.push_str(&format!(
        "  {:<34} {:>7} {:>12} {:>12} {:>12}\n",
        "span", "count", "total ms", "mean us", "max us"
    ));
    for (name, agg) in &ordered {
        out.push_str(&format!(
            "  {:<34} {:>7} {:>12.3} {:>12.1} {:>12.1}\n",
            name,
            agg.count,
            agg.total_ns as f64 / 1e6,
            agg.total_ns as f64 / 1e3 / agg.count.max(1) as f64,
            agg.max_ns as f64 / 1e3,
        ));
    }

    // Slowest cells: every simulate_cell outcome is a per-cell span.
    let mut cells: Vec<&&Value> = spans
        .iter()
        .filter(|s| {
            field_str(s, "name").is_some_and(|n| n.starts_with(names::SIMULATE_CELL_PREFIX))
        })
        .collect();
    cells.sort_by_key(|s| std::cmp::Reverse(field_u64(s, "dur_ns").unwrap_or(0)));
    out.push_str(&format!("\nslowest cells (top {top}):\n"));
    if cells.is_empty() {
        out.push_str("  (no cell spans in this trace)\n");
    } else {
        out.push_str(&format!(
            "  {:>10} {:<12} {:<24} {:<12} {:<8} key\n",
            "ms", "benchmark", "design", "outcome", "shard"
        ));
        for span in cells.iter().take(top) {
            let outcome = field_str(span, "name")
                .and_then(|n| n.strip_prefix(names::SIMULATE_CELL_PREFIX))
                .unwrap_or("?");
            let key = sub_field_str(span, "key").unwrap_or("?");
            out.push_str(&format!(
                "  {:>10.3} {:<12} {:<24} {:<12} {:<8} {}\n",
                field_u64(span, "dur_ns").unwrap_or(0) as f64 / 1e6,
                sub_field_str(span, "benchmark").unwrap_or("?"),
                sub_field_str(span, "design").unwrap_or("?"),
                outcome,
                field_str(span, "shard").unwrap_or("-"),
                &key[..key.len().min(16)],
            ));
        }
    }

    // Cache efficiency: the metrics snapshot is authoritative when
    // supplied; a bare trace still yields the counts from its own spans.
    let count_spans = |name: &str| -> u64 {
        spans
            .iter()
            .filter(|s| field_str(s, "name") == Some(name))
            .count() as u64
    };
    let (simulated, memory, disk, gens) = match metrics {
        Some(m) => (
            m.counter(names::ENGINE_SIMULATED),
            m.counter(names::ENGINE_MEMORY_HITS),
            m.counter(names::ENGINE_DISK_HITS),
            m.counter(names::ENGINE_TRACE_GENERATED),
        ),
        None => (
            count_spans(names::SIMULATE_CELL_SIMULATE),
            count_spans(names::SIMULATE_CELL_MEMORY_HIT),
            count_spans(names::SIMULATE_CELL_DISK_HIT),
            count_spans(names::TRACE_LOAD_GENERATE),
        ),
    };
    let cells_total = simulated + memory + disk;
    let hit_rate = if cells_total == 0 {
        0.0
    } else {
        100.0 * (memory + disk) as f64 / cells_total as f64
    };
    out.push_str("\ncache efficiency:\n");
    out.push_str(&format!(
        "  cells {cells_total}: simulated {simulated}, memory-hits {memory}, disk-hits {disk} (hit rate {hit_rate:.1}%)\n"
    ));
    out.push_str(&format!("  traces: generated {gens}\n"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{Event, EventKind, FieldValue};
    use crate::trace::event_to_value;

    fn cell_span(name: &'static str, benchmark: &str, design: &str, dur_ns: u64) -> Value {
        event_to_value(&Event {
            t_ns: 1,
            thread: 0,
            seq: 0,
            kind: EventKind::Span,
            name,
            dur_ns: Some(dur_ns),
            fields: vec![
                ("benchmark", FieldValue::Str(benchmark.to_string())),
                ("design", FieldValue::Str(design.to_string())),
                ("key", FieldValue::Str("abcdef0123456789abcdef".to_string())),
            ],
        })
    }

    #[test]
    fn report_names_phases_slowest_cells_and_cache_rates() {
        let events = vec![
            cell_span(names::SIMULATE_CELL_SIMULATE, "cg", "baseline", 5_000_000),
            cell_span(names::SIMULATE_CELL_SIMULATE, "lu", "baseline", 9_000_000),
            cell_span(names::SIMULATE_CELL_MEMORY_HIT, "cg", "baseline", 1_000),
            cell_span(names::SIMULATE_CELL_DISK_HIT, "is", "proposed", 40_000),
        ];
        let report = render_report(&events, None, 2);
        assert!(report.contains("per-phase cost:"), "{report}");
        assert!(report.contains(names::SIMULATE_CELL_SIMULATE), "{report}");
        assert!(report.contains("slowest cells (top 2):"), "{report}");
        // The slowest cell leads the table.
        let slow = report.split("slowest cells").nth(1).unwrap();
        let first_row = slow.lines().nth(2).unwrap();
        assert!(first_row.contains("lu"), "{report}");
        assert!(
            report.contains("simulated 2, memory-hits 1, disk-hits 1"),
            "{report}"
        );
        assert!(report.contains("hit rate 50.0%"), "{report}");
    }

    #[test]
    fn metrics_snapshot_overrides_span_counting() {
        let mut m = MetricsSnapshot::default();
        m.counters.insert(names::ENGINE_SIMULATED.to_string(), 6);
        let report = render_report(&[], Some(&m), 5);
        assert!(report.contains("simulated 6"), "{report}");
        assert!(report.contains("(no cell spans in this trace)"), "{report}");
    }
}
