//! The untraced run (`--trace 0`): every workload's end-to-end metrics,
//! plus the checked building blocks the traced run shares.

use crate::client::{self, ServePhase};
use crate::golden::{fig09_mismatches, matches_golden, rows_digest};
use crate::report::{peak_rss_mib, reset_peak_rss};
use crate::speed::Gauge;
use crate::stats::{highest_supported_percentile, iqr_share, median, median_or_zero};
use crate::workload::{dir_bytes, run_pass, Pass, Scratch, Workload, QUERY_MIX, SERVER_WORKERS};
use crate::{Outcome, END_TO_END};
use acmp_sweep::serve::Server;
use acmp_sweep::{EngineStats, GridSpec};
use hpc_workloads::GeneratorConfig;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Untimed warm-up passes (grid workloads) or server starts (`warm_reads`)
/// behind `setup_s`.
const SETUP_PASSES: usize = 3;
const SETUP_STARTS: usize = 5;

/// Fewest timed passes a run makes, however short `--seconds` is.
pub const MIN_PASSES: usize = 3;

/// Served requests per run: at least enough for a p99 with ten samples
/// beyond it, at most a bound on connections opened.
pub const MIN_SERVED: usize = 1_000;
pub const MAX_SERVED: usize = 20_000;

/// Checks a workload's passes: each must return the grid's rows, identical
/// to the run's first pass, to the golden digest when the seed has one,
/// and (for the quick grid) to the fig09 fixture.
#[derive(Debug)]
pub struct Checker {
    workload: Workload,
    golden: Option<&'static str>,
    cells: usize,
    benchmarks: u64,
    reference: Option<String>,
}

impl Checker {
    /// A checker for `workload` at `seed`.
    #[must_use]
    pub fn new(workload: Workload, seed: u64) -> Checker {
        let grid = workload.grid();
        Checker {
            workload,
            golden: workload.golden(seed),
            cells: grid.cells(),
            benchmarks: grid.benchmarks.len() as u64,
            reference: None,
        }
    }

    /// Whether a pass is correct: its rows (see [`Checker`]), and the work
    /// its engine did.  A cold pass simulates every cell and generates each
    /// benchmark's traces once; a warm pass serves every cell from disk,
    /// simulating and generating nothing.
    pub fn pass_ok(&mut self, rows: &[String], stats: &EngineStats, warm: bool) -> bool {
        let cells = self.cells as u64;
        let work_ok = if warm {
            stats.simulated == 0 && stats.trace_generated == 0 && stats.disk_hits == cells
        } else {
            stats.simulated == cells && stats.trace_generated == self.benchmarks
        };
        self.rows_ok(rows) && work_ok
    }

    fn rows_ok(&mut self, rows: &[String]) -> bool {
        if rows.len() != self.cells {
            return false;
        }
        let digest = rows_digest(rows);
        let reference = self.reference.get_or_insert_with(|| digest.clone());
        let fixture_ok = self.golden.is_none()
            || self.workload == Workload::PaperSim
            || fig09_mismatches(rows) == 0;
        *reference == digest && matches_golden(&digest, self.golden) && fixture_ok
    }

    /// The digest of the rows every pass must return (the run's first).
    #[must_use]
    pub fn digest(&self) -> String {
        self.reference.clone().unwrap_or_default()
    }

    /// Whether this seed's rows were also checked against a golden.
    #[must_use]
    pub fn has_golden(&self) -> bool {
        self.golden.is_some()
    }
}

/// One checked grid pass and what it left behind.
#[derive(Debug)]
pub struct Checked {
    pub pass: Pass,
    /// Bytes the pass's store held at its end (0 without a store).
    pub store_bytes: u64,
    /// The process's peak resident set during the pass, in MiB.
    pub peak_rss_mib: f64,
}

/// Runs one grid pass on a fresh engine (and a fresh store, if the
/// workload has one), checks it, and counts it as an operation.  A panic
/// or an I/O error is a failed operation.
pub fn checked_pass(
    workload: Workload,
    generator: GeneratorConfig,
    grid: &GridSpec,
    scratch: &Scratch,
    checker: &mut Checker,
    out: &mut Outcome,
) -> Option<Checked> {
    let dir = workload.uses_store().then(|| scratch.fresh("store"));
    reset_peak_rss();
    let result = catch_unwind(AssertUnwindSafe(|| {
        run_pass(generator, grid, dir.as_deref())
    }));
    let peak_rss_mib = peak_rss_mib();
    let store_bytes = dir.as_deref().map_or(0, dir_bytes);
    if let Some(dir) = &dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    match result {
        Ok(Ok(pass)) => {
            out.op(checker.pass_ok(&pass.rows, &pass.stats, false));
            Some(Checked {
                pass,
                store_bytes,
                peak_rss_mib,
            })
        }
        _ => {
            out.op(false);
            None
        }
    }
}

/// A fully warm re-run of the grid over `dir`, checked to return the
/// fixture's rows with zero simulations and zero trace generations.
pub fn checked_warm_pass(
    generator: GeneratorConfig,
    grid: &GridSpec,
    dir: &Path,
    checker: &mut Checker,
    out: &mut Outcome,
) -> Option<Pass> {
    match catch_unwind(AssertUnwindSafe(|| run_pass(generator, grid, Some(dir)))) {
        Ok(Ok(pass)) => {
            out.op(checker.pass_ok(&pass.rows, &pass.stats, true));
            Some(pass)
        }
        _ => {
            out.op(false);
            None
        }
    }
}

/// The store `cold_sweep` leaves behind, and the answers to the query mix
/// computed once over it.
#[derive(Debug)]
pub struct Fixture {
    pub dir: PathBuf,
    pub expected: Vec<String>,
    pub bytes: u64,
}

/// Builds the `warm_reads` fixture with one checked cold pass (counted as
/// an operation) and answers the query mix over it by value scan.
pub fn build_fixture(
    generator: GeneratorConfig,
    grid: &GridSpec,
    scratch: &Scratch,
    checker: &mut Checker,
    out: &mut Outcome,
) -> Option<Fixture> {
    let dir = scratch.fresh("fixture");
    let built = catch_unwind(AssertUnwindSafe(|| run_pass(generator, grid, Some(&dir))));
    let ok = matches!(&built, Ok(Ok(pass)) if checker.pass_ok(&pass.rows, &pass.stats, false));
    out.op(ok);
    if !ok {
        return None;
    }
    let expected = client::scan_answers(&dir, &QUERY_MIX).ok();
    out.op(expected.is_some());
    Some(Fixture {
        bytes: dir_bytes(&dir),
        expected: expected?,
        dir,
    })
}

/// Deletes the persisted query index, so the next open builds it by scan.
pub fn remove_index(dir: &Path) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) == Some(acmp_store::index::INDEX_EXT) {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// One cold server start: the persisted index is removed first, so the
/// start opens the store, builds the first epoch by value scan and
/// persists the index.  Returns the server and the seconds it took.
pub fn cold_server_start(dir: &Path) -> std::io::Result<(Server, f64)> {
    remove_index(dir);
    let start = Instant::now();
    let server = Server::start(dir, "127.0.0.1:0", SERVER_WORKERS)?;
    Ok((server, start.elapsed().as_secs_f64()))
}

/// The CLI-path phase: each query of the mix in turn, on a fresh open,
/// until `deadline` (at least one full round).  Returns per-query ms.
pub fn cli_phase(fixture: &Fixture, deadline: Instant, out: &mut Outcome) -> Vec<f64> {
    let mut ms = Vec::new();
    let mut i = 0;
    while i < QUERY_MIX.len() || Instant::now() < deadline {
        let case = i % QUERY_MIX.len();
        let start = Instant::now();
        let answer = client::cli_query(&fixture.dir, QUERY_MIX[case]);
        ms.push(start.elapsed().as_secs_f64() * 1e3);
        out.op(matches!(answer, Ok(ref body) if *body == fixture.expected[case]));
        i += 1;
    }
    ms
}

/// The served phase's user-facing figures: p50 and p99 latency in ms and
/// queries completed per second.
#[must_use]
pub fn served_figures(phase: &ServePhase) -> (f64, f64, f64) {
    let completed = phase.log.attempted() - phase.log.failures();
    (
        phase.log.percentile_ms(50.0),
        phase.log.percentile_ms(99.0),
        completed as f64 / phase.secs,
    )
}

/// Reports how many requests the served phase made, the highest
/// percentile they support, and the share answered within
/// [`LATENCY_LIMIT_MS`] (a failed request never is).
pub fn describe_served(phase: &ServePhase, out: &mut Outcome) {
    let n = phase.log.attempted();
    out.detail("served_queries", n);
    let tail = highest_supported_percentile(n as usize).unwrap_or(0.0);
    out.detail("served_tail_percentile", tail);
    out.detail(
        "served_within_limit_frac",
        phase.log.within(LATENCY_LIMIT_MS) as f64 / (n.max(1)) as f64,
    );
}

/// The served-query latency limit the within-limit share is taken at.
pub const LATENCY_LIMIT_MS: f64 = 10.0;

/// Reports the passes' median and inter-quartile spread, raw and scaled
/// to the reference host speed, and the median probe behind the scaling.
fn describe_passes(passes: &Timings, cells: usize, gauge: &Gauge, out: &mut Outcome) {
    out.detail("pass_s_median", median_or_zero(&passes.raw));
    out.detail("cells_per_s_unscaled", cells_per_s(cells, &passes.raw));
    out.detail("scaled_pass_s_median", median_or_zero(&passes.scaled));
    if passes.raw.len() >= 2 {
        out.detail("pass_s_iqr_share", iqr_share(&passes.raw));
        out.detail("scaled_pass_s_iqr_share", iqr_share(&passes.scaled));
    }
    out.detail("probe_s_median", gauge.median_probe_s());
}

/// Cells per second of the median pass.
fn cells_per_s(cells: usize, pass_secs: &[f64]) -> f64 {
    if pass_secs.is_empty() {
        0.0
    } else {
        cells as f64 / median(pass_secs)
    }
}

/// Host times of a run's timed units, as measured and scaled to the
/// reference host speed (see [`crate::speed`]).
#[derive(Debug, Default)]
struct Timings {
    raw: Vec<f64>,
    scaled: Vec<f64>,
}

impl Timings {
    fn push(&mut self, secs: f64, factor: f64) {
        self.raw.push(secs);
        self.scaled.push(secs * factor);
    }
}

/// Runs `workload` untraced for about `seconds` and reports its
/// end-to-end metrics.
#[must_use]
pub fn run(workload: Workload, seed: u64, seconds: f64, scratch: &Scratch) -> Outcome {
    let mut out = Outcome::default();
    let figures = match workload {
        Workload::ColdSweep | Workload::PaperSim => {
            grid_workload(workload, seed, seconds, scratch, &mut out)
        }
        Workload::WarmReads => warm_reads(seed, seconds, scratch, &mut out),
    };
    let [(cells, cells_unit), (setup, setup_unit), (rss, rss_unit)] = END_TO_END;
    let passes = &figures.scaled_pass_secs;
    out.metric(
        cells,
        cells_per_s(figures.cells, passes),
        cells_unit,
        passes.len(),
    );
    out.metric(
        setup,
        median_or_zero(&figures.scaled_setup_secs),
        setup_unit,
        figures.scaled_setup_secs.len(),
    );
    out.metric(
        rss,
        median_or_zero(&figures.peak_rss_mib),
        rss_unit,
        figures.peak_rss_mib.len(),
    );
    out
}

/// The samples behind a run's end-to-end metrics.
#[derive(Debug, Default)]
struct Figures {
    /// Cells per timed pass.
    cells: usize,
    /// Timed pass seconds, scaled to the reference host speed.
    scaled_pass_secs: Vec<f64>,
    /// Seconds of each set-up, scaled likewise.
    scaled_setup_secs: Vec<f64>,
    /// Peak resident set samples, MiB.
    peak_rss_mib: Vec<f64>,
}

/// `cold_sweep` and `paper_sim`: warm-up passes (set-up), then timed
/// passes until `seconds` have passed, each bracketed by host-speed
/// probes.
fn grid_workload(
    workload: Workload,
    seed: u64,
    seconds: f64,
    scratch: &Scratch,
    out: &mut Outcome,
) -> Figures {
    let generator = workload.generator(seed);
    let grid = workload.grid();
    let mut checker = Checker::new(workload, seed);
    let mut gauge = Gauge::new();
    let mut pass = |checker: &mut Checker, out: &mut Outcome| {
        gauge.bracket(|| checked_pass(workload, generator, &grid, scratch, checker, out))
    };
    let mut setup = Timings::default();
    for _ in 0..SETUP_PASSES {
        if let (Some(checked), factor) = pass(&mut checker, out) {
            setup.push(checked.pass.secs, factor);
        }
    }
    let mut passes = Timings::default();
    let mut store_bytes = Vec::new();
    let mut peaks = Vec::new();
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut attempts = 0;
    while attempts < MIN_PASSES || start.elapsed() < budget {
        attempts += 1;
        if let (Some(checked), factor) = pass(&mut checker, out) {
            passes.push(checked.pass.secs, factor);
            store_bytes.push(checked.store_bytes as f64);
            peaks.push(checked.peak_rss_mib);
        }
    }
    out.detail("output_digest", checker.digest());
    out.detail("golden_checked", checker.has_golden());
    describe_passes(&passes, grid.cells(), &gauge, out);
    if workload.uses_store() {
        out.figure("store_bytes", median_or_zero(&store_bytes), "bytes");
    }
    Figures {
        cells: grid.cells(),
        scaled_pass_secs: passes.scaled,
        scaled_setup_secs: setup.scaled,
        peak_rss_mib: peaks,
    }
}

/// `warm_reads`: fixture and server starts (set-up), then warm re-runs,
/// CLI-path queries and served queries, one phase after another.  Server
/// starts and re-runs are bracketed by host-speed probes.
fn warm_reads(seed: u64, seconds: f64, scratch: &Scratch, out: &mut Outcome) -> Figures {
    let workload = Workload::WarmReads;
    let generator = workload.generator(seed);
    let grid = workload.grid();
    let mut checker = Checker::new(workload, seed);
    let Some(fixture) = build_fixture(generator, &grid, scratch, &mut checker, out) else {
        return Figures::default();
    };
    let mut gauge = Gauge::new();
    let mut setup = Timings::default();
    let mut server = None;
    for _ in 0..SETUP_STARTS {
        match gauge.bracket(|| cold_server_start(&fixture.dir)) {
            (Ok((started, secs)), factor) => {
                setup.push(secs, factor);
                server = Some(started);
            }
            (Err(_), _) => out.op(false),
        }
    }
    let Some(server) = server else {
        return Figures::default();
    };

    // Peak RSS is reset before each timed stretch, so the probes between
    // re-runs and the fixture build's own peak do not count.
    let mut rss_reset = true;
    let mut peak_rss = 0.0f64;
    let phase_end = |share: f64| Instant::now() + Duration::from_secs_f64(seconds * share);
    let rerun_end = phase_end(0.4);
    let mut reruns = Timings::default();
    let mut attempts = 0;
    while attempts < MIN_PASSES || Instant::now() < rerun_end {
        attempts += 1;
        let rerun = gauge.bracket(|| {
            rss_reset &= reset_peak_rss();
            let pass = checked_warm_pass(generator, &grid, &fixture.dir, &mut checker, out);
            peak_rss = peak_rss.max(peak_rss_mib());
            pass
        });
        if let (Some(pass), factor) = rerun {
            reruns.push(pass.secs, factor);
        }
    }
    rss_reset &= reset_peak_rss();
    let cli_ms = cli_phase(&fixture, phase_end(0.2), out);
    let served = client::serve_phase(
        server.local_addr(),
        &QUERY_MIX,
        &fixture.expected,
        phase_end(0.4),
        MIN_SERVED,
        MAX_SERVED,
    );
    peak_rss = peak_rss.max(peak_rss_mib());
    drop(server);
    out.detail("rss_reset", rss_reset);
    out.ops(served.log.attempted(), served.log.failures());
    let (p50, p99, qps) = served_figures(&served);
    out.detail("output_digest", checker.digest());
    out.detail("golden_checked", checker.has_golden());
    out.figure("store_bytes", fixture.bytes as f64, "bytes");
    out.figure("cli_query_ms", median_or_zero(&cli_ms), "ms");
    out.figure("query_ms_p50", p50, "ms");
    out.figure("query_ms_p99", p99, "ms");
    out.figure("queries_per_s", qps, "req/s");
    out.detail("cli_queries", cli_ms.len());
    describe_served(&served, out);
    describe_passes(&reruns, grid.cells(), &gauge, out);
    Figures {
        cells: grid.cells(),
        scaled_pass_secs: reruns.scaled,
        scaled_setup_secs: setup.scaled,
        peak_rss_mib: vec![peak_rss],
    }
}
