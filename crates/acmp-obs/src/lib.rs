//! `acmp-obs` — structured observability for the sweep stack.
//!
//! The sweep pipeline (scheduler → engine → store → merge) used to be a
//! black box at runtime: end-of-run counters and ad-hoc `eprintln!` lines
//! were all it reported.  This crate is the in-tree substrate that fixes
//! that, shim-style (no registry access, like `shims/serde`):
//!
//! * [`span!`] — a timed scope that records an event (with start time,
//!   duration and key=value fields) into a lock-cheap per-thread recorder
//!   and a duration histogram into the global metrics registry;
//! * [`event!`] — an instant (un-timed) event;
//! * [`counter!`] / [`histogram!`] — aggregated metrics by name;
//! * [`logline!`] — the structured logger behind the CLI's human-readable
//!   stderr lines: prints exactly what `eprintln!` would, and additionally
//!   records a `log` event when tracing is enabled, so a trace file carries
//!   the progress narrative alongside the spans it explains.
//!
//! **Disabled is the default and costs (almost) nothing.**  All macros gate
//! on one relaxed atomic load; field expressions are not evaluated and
//! nothing allocates until a sink is enabled ([`enable_events`] /
//! [`enable_metrics`]).  Observability reads a run, it never shapes it:
//! enabling every sink must leave sweep row output byte-identical.
//!
//! Events drain to a JSONL trace file (schema [`trace::TRACE_SCHEMA`]) and
//! metrics snapshot to a versioned JSON document
//! ([`metrics::METRICS_SCHEMA`]) that `sweep serve` and the future elastic
//! coordinator can consume without churn; [`report::render_report`] turns
//! both back into the per-phase / slowest-cells / cache-efficiency tables
//! of `sweep trace report`.

pub mod metrics;
pub mod recorder;
pub mod report;
pub mod trace;

pub use metrics::{registry, HistogramSnapshot, MetricsSnapshot, Registry, METRICS_SCHEMA};
pub use recorder::{drain_events, Event, EventKind, FieldValue, SpanGuard};
pub use report::render_report;
pub use trace::{
    event_to_value, read_trace_values, tag_shard, validate_event_value, write_trace, write_values,
    TRACE_SCHEMA,
};

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Canonical span, counter and histogram names, so the engine, the CLI,
/// the report renderer and the tests all agree on spelling.
pub mod names {
    /// Span: a grid cell that was actually simulated.
    pub const SIMULATE_CELL_SIMULATE: &str = "engine.simulate_cell.simulate";
    /// Span: a grid cell served from the in-memory cache.
    pub const SIMULATE_CELL_MEMORY_HIT: &str = "engine.simulate_cell.memory_hit";
    /// Span: a grid cell served from the on-disk store.
    pub const SIMULATE_CELL_DISK_HIT: &str = "engine.simulate_cell.disk_hit";
    /// Prefix shared by the three `simulate_cell` outcomes — the report's
    /// slowest-cells table matches on it.
    pub const SIMULATE_CELL_PREFIX: &str = "engine.simulate_cell.";
    /// Span: a benchmark's trace set was generated.
    pub const TRACE_LOAD_GENERATE: &str = "engine.trace_load.generate";

    /// Counter: cells simulated (mirrors `EngineStats::simulated`).
    pub const ENGINE_SIMULATED: &str = "engine.simulated";
    /// Counter: in-memory cache hits (mirrors `EngineStats::memory_hits`).
    pub const ENGINE_MEMORY_HITS: &str = "engine.memory_hits";
    /// Counter: disk store hits (mirrors `EngineStats::disk_hits`).
    pub const ENGINE_DISK_HITS: &str = "engine.disk_hits";
    /// Counter: trace sets generated (mirrors `EngineStats::trace_generated`).
    pub const ENGINE_TRACE_GENERATED: &str = "engine.trace_generated";

    /// Span: one pool worker's whole run (fields: jobs/steals/injector pops).
    pub const POOL_WORKER: &str = "pool.worker";
    /// Counter: jobs stolen from sibling deques.
    pub const POOL_STEALS: &str = "pool.steals";
    /// Counter: jobs taken from the global injector.
    pub const POOL_INJECTOR_POPS: &str = "pool.injector_pops";
    /// Counter: jobs executed by the pool.
    pub const POOL_JOBS: &str = "pool.jobs";
    /// Histogram: injector depth right after seeding, per pool run.
    pub const POOL_QUEUE_DEPTH: &str = "pool.queue_depth";

    /// Span: opening (and indexing) the disk store.
    pub const STORE_OPEN: &str = "store.open";
    /// Span: one record append to the store.
    pub const STORE_APPEND: &str = "store.append";
    /// Span: an index refresh over foreign segments.
    pub const STORE_REFRESH: &str = "store.refresh";
    /// Span: a store compaction.
    pub const STORE_COMPACT: &str = "store.compact";
    /// Span: exporting the live records as a bundle.
    pub const STORE_EXPORT: &str = "store.export";
    /// Span: importing a bundle.
    pub const STORE_IMPORT: &str = "store.import";
    /// Span: building the secondary index (a catalog scan over record
    /// values).
    pub const STORE_INDEX_BUILD: &str = "store.index_build";
    /// Span: answering one catalog query.
    pub const STORE_QUERY: &str = "store.query";
    /// Counter: individual record value fetches — store loads plus catalog
    /// scans.  A warm `sweep query` must leave this at zero: the proof the
    /// secondary index answered without touching segment values.
    pub const STORE_VALUE_READS: &str = "store.value_reads";
    /// Counter: bytes appended to the store.
    pub const STORE_APPEND_BYTES: &str = "store.append_bytes";
    /// Counter: bytes written to export bundles.
    pub const STORE_EXPORT_BYTES: &str = "store.export_bytes";
    /// Counter: bytes read from import bundles.
    pub const STORE_IMPORT_BYTES: &str = "store.import_bytes";

    /// Counter: epoch rolls of a served store — a writer publish was
    /// detected and a fresh snapshot + catalog swapped in.
    pub const STORE_EPOCH_ROLLS: &str = "store.epoch_rolls";

    /// Span: one `sweep serve` connection, accept to close.
    pub const SERVE_CONNECTION: &str = "serve.connection";
    /// Span: answering one `/query` request (the span's duration histogram
    /// is the service's query latency distribution).
    pub const SERVE_QUERY: &str = "serve.query";
    /// Counter: connections the server dropped because the client hung up
    /// (or otherwise broke the socket) mid-exchange.  Never fatal.
    pub const SERVE_CLIENT_DISCONNECTS: &str = "serve.client_disconnects";
    /// Counter: requests answered, any endpoint or status.
    pub const SERVE_REQUESTS: &str = "serve.requests";

    /// Span: validating one shard stream against its key schedule.
    pub const MERGE_VALIDATE_SHARD: &str = "merge.validate_shard";
    /// Span: validating a manifest's grid against the local binary.
    pub const MANIFEST_VALIDATE: &str = "manifest.validate";

    /// Event: one [`logline!`](crate::logline) text line.
    pub const LOG: &str = "log";
}

const EVENTS: u8 = 1;
const METRICS: u8 = 2;

/// Which sinks are attached.  One relaxed load of this byte is the entire
/// disabled-path cost of every macro.
static STATE: AtomicU8 = AtomicU8::new(0);

/// The process-wide time origin: first enablement.  Event timestamps are
/// nanoseconds since this instant, so they are comparable within a process
/// (and explicitly *not* across processes — shard traces carry a tag
/// instead).
static EPOCH: OnceLock<Instant> = OnceLock::new();

pub(crate) fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

pub(crate) fn now_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Whether the event recorder is attached.
#[inline]
#[must_use]
pub fn events_enabled() -> bool {
    STATE.load(Ordering::Relaxed) & EVENTS != 0
}

/// Whether the metrics registry is attached.
#[inline]
#[must_use]
pub fn metrics_enabled() -> bool {
    STATE.load(Ordering::Relaxed) & METRICS != 0
}

/// Whether any sink is attached (spans record under either).
#[inline]
#[must_use]
pub fn enabled() -> bool {
    STATE.load(Ordering::Relaxed) != 0
}

/// Attaches the event recorder (spans and events start being captured).
pub fn enable_events() {
    epoch();
    STATE.fetch_or(EVENTS, Ordering::Relaxed);
}

/// Attaches the metrics registry (counters and histograms start counting).
pub fn enable_metrics() {
    epoch();
    STATE.fetch_or(METRICS, Ordering::Relaxed);
}

/// Detaches every sink; macros go back to near-no-ops.  Already-recorded
/// events and metrics stay readable until drained or reset.
pub fn disable_all() {
    STATE.store(0, Ordering::Relaxed);
}

/// Prints `text` to stderr (exactly as `eprintln!` would) and, when the
/// event recorder is attached, also records it as a `log` event — the
/// implementation behind [`logline!`].
#[allow(clippy::print_stderr)]
pub fn log_text(text: &str) {
    // acmp-lint: allow(raw-stderr) -- this IS the logline! implementation
    eprintln!("{text}");
    if events_enabled() {
        recorder::emit_log(text);
    }
}

/// A wall-clock stopwatch for CLI progress reporting.
///
/// The one sanctioned way to measure elapsed wall time outside `bench`:
/// the clock read is concentrated here in `acmp-obs` (which already owns
/// the process epoch) so the deterministic simulation and storage
/// crates stay free of ambient-time calls — the `nondeterminism` lint
/// rule enforces exactly that.  Measured durations are *reported*, never
/// fed back into simulated state.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    #[must_use]
    pub fn start() -> Stopwatch {
        Stopwatch {
            started: Instant::now(),
        }
    }

    /// Seconds elapsed since [`Stopwatch::start`].
    #[must_use]
    pub fn elapsed_secs(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }
}

/// Opens a timed span: records an event carrying the fields plus the
/// measured duration when the returned guard drops, and a duration
/// histogram under the span's name.
///
/// Bind the guard to a named variable (`let _span = span!(…)`), not `_` —
/// `_` drops immediately and times nothing.  Field expressions are only
/// evaluated when a sink is attached.
///
/// ```
/// let mut _span = acmp_obs::span!("store.append", bytes = 128u64);
/// // … timed work …
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        if $crate::enabled() {
            $crate::SpanGuard::begin($name, ::std::vec::Vec::new())
        } else {
            $crate::SpanGuard::disabled()
        }
    };
    ($name:expr, $($key:ident = $value:expr),+ $(,)?) => {
        if $crate::enabled() {
            $crate::SpanGuard::begin(
                $name,
                ::std::vec![$((stringify!($key), $crate::FieldValue::from($value))),+],
            )
        } else {
            $crate::SpanGuard::disabled()
        }
    };
}

/// Records an instant (un-timed) event with key=value fields.  Field
/// expressions are only evaluated when the event recorder is attached.
#[macro_export]
macro_rules! event {
    ($name:expr $(, $key:ident = $value:expr)* $(,)?) => {
        if $crate::events_enabled() {
            $crate::recorder::emit_event(
                $name,
                ::std::vec![$((stringify!($key), $crate::FieldValue::from($value))),*],
            );
        }
    };
}

/// Adds `$delta` to the named counter when the metrics registry is
/// attached; otherwise one relaxed load and a not-taken branch.
#[macro_export]
macro_rules! counter {
    ($name:expr, $delta:expr) => {
        if $crate::metrics_enabled() {
            $crate::registry().counter_add($name, $delta);
        }
    };
}

/// Records `$value` into the named histogram when the metrics registry is
/// attached; otherwise one relaxed load and a not-taken branch.
#[macro_export]
macro_rules! histogram {
    ($name:expr, $value:expr) => {
        if $crate::metrics_enabled() {
            $crate::registry().histogram_record($name, $value);
        }
    };
}

/// The structured logger: formats like `eprintln!`, prints the identical
/// bytes to stderr, and records the line as a `log` event when tracing is
/// enabled.  Stderr output is byte-compatible with the `eprintln!` calls
/// it replaces.
#[macro_export]
macro_rules! logline {
    ($($arg:tt)*) => {
        $crate::log_text(&::std::format!($($arg)*))
    };
}

/// Test support: drains all recorded state and detaches every sink, so a
/// test binary that exercises the global recorder can hand it back clean.
pub fn reset_for_tests() {
    disable_all();
    let _ = drain_events();
    registry().reset();
}
