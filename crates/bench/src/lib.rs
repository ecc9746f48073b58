//! Shared plumbing for the figure-reproduction harness.
//!
//! The `figures` binary (`cargo run -p bench-harness --bin figures --release -- <id>`)
//! regenerates the rows/series of every table and figure in the paper's
//! evaluation; the Criterion benches in `benches/figures.rs` time the
//! underlying simulations.

use hpc_workloads::{Benchmark, GeneratorConfig};

/// Scale of a harness run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// A reduced scale (fewer instructions, fewer workers) for quick smoke
    /// runs and CI.
    Quick,
    /// The full eight-worker configuration used for `EXPERIMENTS.md`.
    Paper,
}

impl Scale {
    /// Reads the scale from the `FIGURE_SCALE` environment variable
    /// (`quick` or `paper`); defaults to `Paper` when it is unset.
    ///
    /// # Errors
    ///
    /// Returns a message naming the value and both accepted names when the
    /// variable holds anything else.
    pub fn from_env() -> Result<Self, String> {
        // acmp-lint: allow(env-side-channel) -- FIGURE_SCALE is the harness's documented scale knob, read once at startup
        let value = std::env::var_os("FIGURE_SCALE");
        Self::parse(value.as_ref().map(|v| v.to_string_lossy()).as_deref())
    }

    /// Parses a `FIGURE_SCALE` value; `None` (unset) means `Paper`.
    fn parse(value: Option<&str>) -> Result<Self, String> {
        match value {
            None | Some("paper") => Ok(Scale::Paper),
            Some("quick") => Ok(Scale::Quick),
            Some(other) => Err(format!(
                "unknown FIGURE_SCALE `{other}` (accepted: quick, paper; unset means paper)"
            )),
        }
    }

    /// The trace-generation configuration for this scale.
    pub fn generator(self) -> GeneratorConfig {
        match self {
            Scale::Quick => GeneratorConfig::quick(),
            Scale::Paper => GeneratorConfig::paper(),
        }
    }

    /// The benchmark list used at this scale (the `quick` subset shared
    /// with the sweep CLI, or all 24 workloads for `Paper`).
    pub fn benchmarks(self) -> Vec<Benchmark> {
        match self {
            Scale::Quick => acmp_sweep::grid::quick_benchmarks(),
            Scale::Paper => Benchmark::ALL.to_vec(),
        }
    }
}

/// The experiment identifiers understood by the harness.
pub const EXPERIMENT_IDS: [&str; 13] = [
    "fig01", "fig02", "fig03", "fig04", "table01", "fig07", "fig08", "fig09", "fig10", "fig11",
    "fig12", "fig13", "all",
];

/// Worker-count policy for the `sweep_throughput` bench's two arms.
///
/// The policy lives here (not in the bench file) so a unit test can pin the
/// property the bench depends on: the arms must use *distinct* worker
/// counts on every host.  The bench once sized its "parallel" arm to
/// `available_parallelism`, which on a 1-CPU CI container collapsed both
/// arms to one worker — the reported "speedup" was pure timing noise.
pub mod throughput {
    /// The serial arm always runs one pool thread.
    pub const SERIAL_WORKERS: usize = 1;

    /// The parallel arm for a host reporting `host` available threads: the
    /// host size, floored at 4 so the comparison stays a genuine 1-vs-N
    /// even when the host reports a single CPU.
    #[must_use]
    pub fn parallel_workers_for(host: usize) -> usize {
        host.max(4)
    }

    /// The parallel arm on this machine.
    #[must_use]
    pub fn parallel_workers() -> usize {
        parallel_workers_for(
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(4),
        )
    }
}

/// Sample count for the `BENCH_*.json` trajectory measurements:
/// `$BENCH_SAMPLES` when set to a positive integer (CI quick mode passes
/// `BENCH_SAMPLES=1`), otherwise `default`.
#[must_use]
pub fn bench_samples(default: u32) -> u32 {
    // acmp-lint: allow(env-side-channel) -- BENCH_SAMPLES is the documented CI quick-mode knob; sample count only, never results
    std::env::var("BENCH_SAMPLES")
        .ok()
        .and_then(|v| v.trim().parse::<u32>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(default)
}

/// Turns on the aggregated metrics registry for this bench process, so
/// [`write_bench_report`] can embed a snapshot of the run's counters and
/// duration histograms.  Call it at the top of a bench, before the work
/// being measured.
pub fn enable_bench_metrics() {
    acmp_obs::enable_metrics();
}

/// Writes a `BENCH_*.json` trajectory report to the workspace root.
///
/// `file` is the bare file name (`BENCH_sweep.json`); the contents are one
/// JSON object plus a trailing newline, so revisions diff cleanly.  When
/// the metrics registry is on (see [`enable_bench_metrics`]) and `report`
/// is an object, a snapshot — simulation count, cache hits, trace
/// generations, and the rest of the run's counters and histograms — is
/// embedded under a `"metrics"` key, so a trajectory file explains *why*
/// its numbers moved, not just that they did.
pub fn write_bench_report(file: &str, report: &serde::Value) {
    let mut report = report.clone();
    if acmp_obs::metrics_enabled() {
        if let serde::Value::Object(fields) = &mut report {
            fields.retain(|(k, _)| k != "metrics");
            fields.push((
                "metrics".to_string(),
                acmp_obs::registry().snapshot().to_value(),
            ));
        }
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(file);
    if let Err(e) = std::fs::write(&path, format!("{report}\n")) {
        acmp_obs::logline!("bench: could not write {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scale_is_smaller_than_paper_scale() {
        let q = Scale::Quick.generator();
        let p = Scale::Paper.generator();
        assert!(q.parallel_instructions_per_thread < p.parallel_instructions_per_thread);
        assert!(q.num_workers <= p.num_workers);
        assert!(Scale::Quick.benchmarks().len() < Scale::Paper.benchmarks().len());
        assert_eq!(Scale::Paper.benchmarks().len(), 24);
    }

    #[test]
    fn figure_scale_accepts_quick_and_paper_and_names_anything_else() {
        assert_eq!(Scale::parse(None), Ok(Scale::Paper));
        assert_eq!(Scale::parse(Some("paper")), Ok(Scale::Paper));
        assert_eq!(Scale::parse(Some("quick")), Ok(Scale::Quick));
        for typo in ["Quick", "quik", "paper ", "", "PAPER"] {
            let message = Scale::parse(Some(typo)).unwrap_err();
            assert!(message.contains(&format!("`{typo}`")), "{message}");
            assert!(
                message.contains("quick") && message.contains("paper"),
                "{message}"
            );
        }
    }

    #[test]
    fn experiment_ids_cover_every_figure_and_table() {
        for id in ["fig01", "fig07", "fig12", "fig13", "table01"] {
            assert!(EXPERIMENT_IDS.contains(&id));
        }
    }

    #[test]
    fn throughput_arms_never_share_a_worker_count() {
        // Regression: the throughput bench must pin a genuine serial-vs-N
        // comparison on every host, including 1-CPU CI containers where
        // `available_parallelism` is 1.
        for host in [1, 2, 4, 8, 64] {
            let parallel = throughput::parallel_workers_for(host);
            assert!(
                parallel > throughput::SERIAL_WORKERS,
                "host {host}: both bench arms would run {parallel} workers"
            );
        }
        assert!(throughput::parallel_workers() >= 4);
        assert!(throughput::parallel_workers() > throughput::SERIAL_WORKERS);
    }

    #[test]
    fn bench_samples_defaults_when_env_is_unset_or_bad() {
        // Only the default path is testable here (tests run in parallel and
        // must not mutate the process environment).
        assert!(bench_samples(3) >= 1);
    }
}
