//! `sweep` — run a (benchmark × design point) grid on the sweep engine.
//!
//! ```text
//! sweep run --grid fig09                     # quick benchmarks × Fig. 9 designs
//! sweep run --benchmarks all --designs fig12 --workers 8
//! sweep run --benchmarks cg,lu --designs baseline,proposed --out rows.jsonl
//! sweep run --grid fig07 --scale paper --cache-dir /tmp/sweep-cache
//! sweep run --grid fig09 --shards 3          # 3 shard processes, merged output
//! sweep plan plan.json --grid fig09 --shards 2     # sign a shard manifest
//! sweep run --manifest plan.json --shard 1/2 --out shard-1.jsonl   # one shard
//! sweep merge --manifest plan.json --out rows.jsonl shard-1.jsonl shard-2.jsonl
//! sweep store export warm.bundle             # ship a warm store elsewhere
//! sweep store import warm.bundle             # …and absorb it there
//! sweep store compact                        # merge the store into one generation
//! sweep store stats                          # inspect the store, run nothing
//! sweep query benchmark=cg --by cycles --top 3   # rank cached results
//! sweep query family=worker-shared 'cycles<=1e6' --by worker_icache.misses
//! ```
//!
//! Every invocation names its subcommand, and each subcommand parses only
//! its own flags: anything else exits 2 with that subcommand's usage.
//!
//! Result rows stream as JSONL (stdout by default, `--out FILE` otherwise)
//! in stable digest order — every line starts with the fixed-width hex job
//! key, so byte order is key order; progress and the final summary go to
//! stderr, so piping stdout yields pure JSONL.  The summary includes the
//! cache counters; a second identical invocation with the same
//! `--cache-dir` reports `disk-hits > 0`, zero simulations, zero trace
//! generations, and produces byte-identical rows.
//!
//! A grid splits into N shards by stable job-key digest, and every split
//! runs from a signed manifest.  `sweep plan FILE … --shards N` writes one,
//! carrying the grid spec and every shard's expected key schedule; `sweep
//! run --manifest FILE --shard i/N` re-derives that schedule with the
//! local binary, refuses to simulate on any disagreement, and runs one
//! shard; `sweep merge` validates every gathered per-shard stream against
//! its slot of the schedule, names each missing, short or corrupt one, and
//! writes nothing unless all of them check out.  The shards need no shared
//! filesystem: `sweep store export|import` ship one machine's warm store to
//! the others as a verified bundle.
//!
//! `sweep run --shards N` is that pipeline on one host: it plans into a
//! scratch directory, spawns N children running `run --manifest … --shard
//! i/N` over one cache directory (their appends never collide and no cell
//! is simulated twice), relays their stderr with a `[shard i/N]` prefix,
//! and merges their streams through the same validating merge as `sweep
//! merge`, into output byte-identical to an unsharded run.
//!
//! `sweep query` answers **from the store alone** — no grid, no engine, no
//! simulation.  Filters conjoin facet equalities (`benchmark=cg`,
//! `family=worker-shared`, `design=NAME`, `scale=HEX`) with metric
//! comparisons (`cycles<=1e6`); `--by METRIC` ranks the survivors and
//! `--top K` cuts the list.  The first query over a store builds and
//! persists the secondary index; every later query answers straight from
//! it with **zero segment value reads**, which `--metrics-out` proves via
//! the `store.value_reads` counter.

// The sweep CLI owns the process stderr contract (progress, summaries,
// usage): the `raw-stderr` lint rule exempts exactly this directory.
#![allow(clippy::print_stderr)]

use acmp_store::{Catalog, CatalogSource, DiskStore};
use acmp_sweep::manifest::{scale_generator, SweepManifest};
use acmp_sweep::merge::{merge_validated, validate_shard_stream, MergeError};
use acmp_sweep::scheduler::split_worker_budget;
use acmp_sweep::serve::parse_query_tokens;
use acmp_sweep::{GridSpec, ShardSpec, SweepEngine, WorkStealingPool};
use hpc_workloads::GeneratorConfig;
use std::io::Write;
use std::path::{Path, PathBuf};

/// The top-level usage text.  A function, not a const: the metrics schema
/// name is spliced in from its defining constant
/// ([`acmp_obs::METRICS_SCHEMA`]) so the help text can never drift from
/// the writer (the `schema-literal` lint rule bans inline copies).
fn usage() -> String {
    format!(
        "\
usage: sweep run   [options]                 run a grid, or one shard of a planned one
       sweep plan  FILE [options]            sign a shard manifest
       sweep merge --manifest plan.json [--out FILE] shard-1.jsonl … shard-N.jsonl
       sweep store compact|stats|export FILE|import FILE [--cache-dir DIR]
       sweep query [FILTER …] --by METRIC [--top K] [--desc] [--cache-dir DIR]
       sweep serve --dir STORE [--addr HOST:PORT] [--workers N]
       sweep trace report TRACE.jsonl [--metrics FILE.json] [--top K]

run options (`sweep plan` takes --benchmarks, --designs, --grid, --scale
and --shards):
  --benchmarks SPEC   all | quick | comma list of names     (default: quick)
  --designs SPEC      design spec (see below)               (default: baseline,proposed)
  --grid PRESET       shorthand for --designs PRESET
  --workers N         pool threads                          (default: nproc)
  --shards N          plan the grid into N shards, run each as a child
                      process against the manifest, sharing the cache, then
                      merge their rows (byte-identical to unsharded);
                      with `sweep plan`, the shard count being planned
  --scale S           quick | paper trace scale             (default: quick)
  --manifest FILE     run one shard of a planned sweep (needs --shard I/N);
                      the grid and scale come from the manifest, which is
                      digest-checked and re-validated against this binary
  --shard I/N         with --manifest: run only the cells whose stable key
                      digest d has d % N == I-1 (1-based I)
  --out FILE          write JSONL rows to FILE              (default: stdout)
  --cache-dir DIR     on-disk result store                  (default: target/sweep-cache)
  --keep-generations N  evict all but the newest N store generations at open
  --no-disk-cache     disable the on-disk store
  --trace-out FILE    write a structured JSONL event trace of the run
                      (spans, log lines; sharded runs fold every child's
                      events in, tagged `shard=i/N`)
  --metrics-out FILE  write aggregated counters and duration histograms
                      as one JSON document (schema {schema})
  --quiet             suppress per-job progress lines
  --help              this text

store subcommands (all honour --cache-dir):
  compact             merge the store's live entries into one generation
                      (and rebuild the persisted query index, if any)
  stats               print store contents and secondary-index statistics
  export FILE         write every live record to FILE as a verified bundle
  import FILE         absorb a bundle exported elsewhere (local keys win)

query filters (conjunctive; see `sweep query --help`):
  benchmark=cg  family=private|worker-shared|all-shared  design=NAME
  scale=HEX16   METRIC<=N  METRIC>=N  METRIC<N  METRIC>N

design specs: baseline proposed all-shared all-shared-single worker-shared-32k
              naive:N  lb:N  shared:KiB:LB:single|double  fig07..fig13 presets",
        schema = acmp_obs::METRICS_SCHEMA
    )
}

const STORE_USAGE: &str = "\
usage: sweep store compact|stats|export FILE|import FILE [--cache-dir DIR]
  compact             merge the store's live entries into one generation
                      (and rebuild the persisted query index, if any)
  stats               print store contents (entries/segments/bytes) and
                      secondary-index statistics (files/rows and whether
                      the index is fresh or stale)
  export FILE         write every live record to FILE as a verified bundle
  import FILE         absorb a bundle exported elsewhere (local keys win)
  --cache-dir DIR     the store to operate on (default: target/sweep-cache)";

/// `sweep query` usage text — a function for the same reason as
/// [`usage`]: the metrics schema name comes from its defining constant.
fn query_usage() -> String {
    format!(
        "\
usage: sweep query [FILTER …] --by METRIC [--top K] [--desc] [--cache-dir DIR]
                   [--out FILE] [--trace-out FILE] [--metrics-out FILE] [--quiet]
  Ranks the store's cached results without running anything.  Filters are
  conjunctive, one per argument:
    benchmark=cg            facet equality (case-insensitive); the facets
    family=worker-shared    are benchmark, family (private | worker-shared |
    design=NAME             all-shared), design and scale (the 16-hex
    scale=HEX16             generator digest printed in the rows)
    METRIC<=N  METRIC>=N    metric comparison against a finite number;
    METRIC<N   METRIC>N     metrics use flattened dotted names, e.g.
                            cycles, worker_icache.misses, bus.transactions
  Hits stream as JSONL (key, benchmark, family, design, metric, value) in
  ranked order: ascending by --by METRIC (--desc flips), key digest breaks
  ties, --top K cuts the list.  Rows lacking the metric are excluded.
  The query tokens are the grammar `sweep serve`'s /query accepts, so
  --by=METRIC and --top=K work too.
  The first query over a store builds and persists the secondary index;
  later queries (and queries after `store compact`) answer from it with
  zero segment value reads — observable as the absence of the
  store.value_reads counter in --metrics-out.
  --by METRIC       the ranking metric (required)
  --top K           keep only the best K hits
  --desc            rank descending
  --out FILE        write JSONL hits to FILE        (default: stdout)
  --cache-dir DIR   the store to query              (default: target/sweep-cache)
  --trace-out FILE  structured JSONL event trace of the query
  --metrics-out FILE  aggregated counters (schema {schema})
  --quiet           suppress the stderr summary",
        schema = acmp_obs::METRICS_SCHEMA
    )
}

const TRACE_USAGE: &str = "\
usage: sweep trace report TRACE.jsonl [--metrics FILE.json] [--top K]
  Validates a --trace-out trace (and optionally a --metrics-out document)
  strictly against its schema, then prints a per-phase cost breakdown, the
  top-K slowest cells, and a cache-efficiency summary.  A schema violation
  exits non-zero naming the offending line, so this doubles as the trace
  validator in CI.
  --metrics FILE.json   fold a metrics document into the report
  --top K               slowest-cell rows to print (default: 10)";

const MERGE_USAGE: &str = "\
usage: sweep merge --manifest plan.json [--out FILE] shard-1.jsonl … shard-N.jsonl
  Validates every gathered per-shard JSONL stream against the manifest's
  key schedule (slot order = argument order), reports each missing, short
  or corrupt shard by name, and — only when all streams check out — writes
  the merged rows, byte-identical to an unsharded run, to --out (default
  stdout).  Supply one file per shard, in shard order: a shard that owns
  nothing still contributes the (empty) --out file its run produced —
  skipping a middle slot would silently shift every later file into the
  wrong one.";

/// One subcommand's arguments, consumed token by token.  Every malformed
/// command line ends in [`fail`](Args::fail): the message, the
/// subcommand's usage, exit status 2.
struct Args<'a> {
    tokens: std::slice::Iter<'a, String>,
    /// The message prefix: `sweep run`, `sweep query`, ….
    cmd: &'static str,
    usage: String,
}

impl<'a> Args<'a> {
    fn new(tokens: &'a [String], cmd: &'static str, usage: String) -> Self {
        Args {
            tokens: tokens.iter(),
            cmd,
            usage,
        }
    }

    fn next(&mut self) -> Option<&'a str> {
        self.tokens.next().map(String::as_str)
    }

    fn fail(&self, msg: &str) -> ! {
        eprintln!("{}: {msg}\n\n{}", self.cmd, self.usage);
        std::process::exit(2);
    }

    /// `--help`: the usage text, exit status 0.
    fn help(&self) -> ! {
        eprintln!("{}", self.usage);
        std::process::exit(0);
    }

    /// The value that must follow `flag`.
    fn value(&mut self, flag: &str) -> String {
        match self.next() {
            Some(value) => value.to_string(),
            None => self.fail(&format!("{flag} needs a value")),
        }
    }

    /// The count that must follow `flag`: a whole number ≥ 1, called
    /// `what` in the error when it is not.
    fn count<T: std::str::FromStr + PartialOrd + From<u8>>(&mut self, flag: &str, what: &str) -> T {
        let value = self.value(flag);
        match value.parse::<T>() {
            Ok(n) if n >= T::from(1) => n,
            _ => self.fail(&format!("bad {what} `{value}`")),
        }
    }
}

/// The grid-defining flags `run` and `plan` share.
struct GridFlags {
    benchmarks: String,
    designs: String,
    scale: String,
    /// The grid flags given explicitly — with `--manifest` the grid comes
    /// from the manifest, so these conflict and are named in the error.
    given: Vec<&'static str>,
}

impl Default for GridFlags {
    fn default() -> Self {
        GridFlags {
            benchmarks: "quick".to_string(),
            designs: "baseline,proposed".to_string(),
            scale: "quick".to_string(),
            given: Vec::new(),
        }
    }
}

impl GridFlags {
    /// Takes `flag` and its value when `flag` is a grid flag; returns
    /// whether it was one.
    fn take(&mut self, flag: &str, args: &mut Args) -> bool {
        let flag = match flag {
            "--benchmarks" => {
                self.benchmarks = args.value(flag);
                "--benchmarks"
            }
            "--designs" => {
                self.designs = args.value(flag);
                "--designs"
            }
            "--grid" => {
                self.designs = args.value(flag);
                "--grid"
            }
            "--scale" => {
                self.scale = args.value(flag);
                if let Err(msg) = scale_generator(&self.scale) {
                    args.fail(&msg);
                }
                "--scale"
            }
            _ => return false,
        };
        self.given.push(flag);
        true
    }

    /// The grid and its trace generator; a bad spec exits 2.
    fn parse(&self) -> (GridSpec, GeneratorConfig) {
        match GridSpec::parse(&self.benchmarks, &self.designs) {
            Ok(grid) => (
                grid,
                scale_generator(&self.scale).expect("scale validated at parse"),
            ),
            Err(msg) => {
                eprintln!("sweep: {msg}");
                std::process::exit(2);
            }
        }
    }

    /// Signs a manifest splitting this grid into `shards`; a bad spec
    /// exits 2.
    fn plan(&self, shards: u32) -> SweepManifest {
        match SweepManifest::plan(&self.benchmarks, &self.designs, &self.scale, shards) {
            Ok(manifest) => manifest,
            Err(msg) => {
                eprintln!("sweep: {msg}");
                std::process::exit(2);
            }
        }
    }
}

/// How `sweep run` covers its grid.
enum Mode {
    /// The whole grid, in this process.
    Whole,
    /// `--shards N`: plan, run N child shard processes, merge.
    Shards(u32),
    /// `--manifest FILE --shard I/N`: one shard of a planned sweep.
    Manifest(String, ShardSpec),
}

/// `sweep run`'s options.
struct RunOptions {
    grid: GridFlags,
    mode: Mode,
    workers: Option<usize>,
    out: Option<String>,
    cache_dir: Option<String>,
    keep_generations: Option<u64>,
    disk_cache: bool,
    sinks: Sinks,
    quiet: bool,
}

impl RunOptions {
    fn parse(tokens: &[String]) -> Self {
        let mut args = Args::new(tokens, "sweep run", usage());
        let mut opts = RunOptions {
            grid: GridFlags::default(),
            mode: Mode::Whole,
            workers: None,
            out: None,
            cache_dir: None,
            keep_generations: None,
            disk_cache: true,
            sinks: Sinks::default(),
            quiet: false,
        };
        let mut shards: Option<u32> = None;
        let mut shard: Option<ShardSpec> = None;
        let mut manifest: Option<String> = None;
        while let Some(flag) = args.next() {
            if opts.grid.take(flag, &mut args) {
                continue;
            }
            match flag {
                "--workers" => opts.workers = Some(args.count(flag, "worker count")),
                "--shards" => shards = Some(args.count(flag, "shard count")),
                "--shard" => {
                    let spec = args.value(flag);
                    match ShardSpec::parse(&spec) {
                        Ok(parsed) => shard = Some(parsed),
                        Err(e) => args.fail(&format!("bad --shard `{spec}`: {e}")),
                    }
                }
                "--manifest" => manifest = Some(args.value(flag)),
                "--out" => opts.out = Some(args.value(flag)),
                "--cache-dir" => opts.cache_dir = Some(args.value(flag)),
                "--keep-generations" => {
                    opts.keep_generations = Some(args.count(flag, "generation count"));
                }
                "--no-disk-cache" => opts.disk_cache = false,
                "--trace-out" => opts.sinks.trace_out = Some(args.value(flag)),
                "--metrics-out" => opts.sinks.metrics_out = Some(args.value(flag)),
                "--quiet" => opts.quiet = true,
                "--help" | "-h" => args.help(),
                other => args.fail(&format!("unknown option `{other}`")),
            }
        }
        opts.mode = match (manifest, shards, shard) {
            (_, Some(_), Some(_)) => args.fail("--shard and --shards are mutually exclusive"),
            (Some(path), shards, shard) => {
                if let Some(flag) = opts.grid.given.first() {
                    args.fail(&format!(
                        "{flag} conflicts with --manifest: the grid and scale come from the manifest"
                    ));
                }
                match (shards, shard) {
                    (None, Some(shard)) => Mode::Manifest(path, shard),
                    (Some(_), _) => args.fail(
                        "--shards conflicts with --manifest; run one shard per machine with --shard i/N",
                    ),
                    (None, None) => args.fail(
                        "--manifest needs --shard i/N (use `sweep merge` to combine gathered streams)",
                    ),
                }
            }
            (None, _, Some(_)) => args.fail(
                "--shard needs --manifest: plan the split with `sweep plan FILE … --shards N`, \
                 then run each shard against that manifest",
            ),
            (None, Some(shards), None) => Mode::Shards(shards),
            (None, None, None) => Mode::Whole,
        };
        opts
    }
}

/// The `--trace-out` / `--metrics-out` artifacts of `run` and `query`.
#[derive(Default)]
struct Sinks {
    trace_out: Option<String>,
    metrics_out: Option<String>,
}

impl Sinks {
    /// Turns on the sinks the flags ask for.  Must run before the engine
    /// opens its store or simulates anything, so every span of the run
    /// lands in the artifacts.
    fn enable(&self) {
        if self.trace_out.is_some() {
            acmp_obs::enable_events();
        }
        if self.metrics_out.is_some() {
            acmp_obs::enable_metrics();
        }
    }

    /// Writes the artifacts at the end of a run: this process's drained
    /// events plus `child_events` already rendered (and shard-tagged) by a
    /// coordinator, and the metrics snapshot merged with every child's.
    /// No-ops for sinks that were not requested.
    fn write(&self, child_events: Vec<serde::Value>, child_metrics: &[acmp_obs::MetricsSnapshot]) {
        if let Some(path) = &self.trace_out {
            let mut values: Vec<serde::Value> = acmp_obs::drain_events()
                .iter()
                .map(acmp_obs::event_to_value)
                .collect();
            values.extend(child_events);
            let result = std::fs::File::create(path).and_then(|f| {
                let mut w = std::io::BufWriter::new(f);
                acmp_obs::write_values(&mut w, &values).and_then(|()| w.flush())
            });
            if let Err(e) = result {
                eprintln!("sweep: cannot write trace {path}: {e}");
                std::process::exit(1);
            }
        }
        if let Some(path) = &self.metrics_out {
            let mut snapshot = acmp_obs::registry().snapshot();
            for m in child_metrics {
                snapshot.merge(m);
            }
            let mut json = snapshot.to_value().to_string();
            json.push('\n');
            if let Err(e) = std::fs::write(path, json) {
                eprintln!("sweep: cannot write metrics {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// The store directory `dir` names, or the default one.
fn cache_root(dir: Option<&str>) -> PathBuf {
    dir.map_or_else(DiskStore::default_root, PathBuf::from)
}

/// Opens the store under `root`, exiting on failure.
fn open_store(root: &Path) -> DiskStore {
    match DiskStore::open(root) {
        Ok(store) => store,
        Err(e) => {
            eprintln!("sweep: cannot open cache dir {}: {e}", root.display());
            std::process::exit(1);
        }
    }
}

/// Opens the JSONL sink (`--out FILE` or stdout), exiting on failure.
fn open_sink(out: Option<&str>) -> Box<dyn Write> {
    match out {
        Some(path) => match std::fs::File::create(path) {
            Ok(f) => Box::new(std::io::BufWriter::new(f)),
            Err(e) => {
                eprintln!("sweep: cannot create {path}: {e}");
                std::process::exit(1);
            }
        },
        None => Box::new(std::io::BufWriter::new(std::io::stdout())),
    }
}

/// Exits non-zero after a failed row write or flush.  A broken pipe —
/// `sweep … | head` closing stdout early — exits *quietly*: the non-zero
/// status still marks the stream as truncated (a silent exit 0 would look
/// exactly like a successful short run), but there is no point spamming
/// every pipeline that legitimately stops reading early.
fn die_on_write_error(e: &std::io::Error) -> ! {
    if e.kind() != std::io::ErrorKind::BrokenPipe {
        eprintln!("sweep: write failed: {e}");
    }
    std::process::exit(1);
}

/// Writes already-merged rows to the `--out` sink, exiting on failure.
fn write_rows(out: Option<&str>, rows: &[u8]) {
    let mut sink = open_sink(out);
    if let Err(e) = sink.write_all(rows).and_then(|()| sink.flush()) {
        die_on_write_error(&e);
    }
}

/// `sweep trace report TRACE.jsonl [--metrics FILE.json] [--top K]`.
fn run_trace(tokens: &[String]) {
    let mut args = Args::new(tokens, "sweep trace", TRACE_USAGE.to_string());
    match args.next() {
        Some("report") => {}
        Some("--help" | "-h") => args.help(),
        other => {
            let got = other.map_or_else(String::new, |o| format!(" (got `{o}`)"));
            args.fail(&format!("needs the `report` action{got}"));
        }
    }
    let mut trace_path: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut top = 10usize;
    while let Some(token) = args.next() {
        match token {
            "--metrics" => metrics_path = Some(args.value(token)),
            "--top" => top = args.count(token, "--top"),
            "--help" | "-h" => args.help(),
            flag if flag.starts_with("--") => args.fail(&format!("unknown option `{flag}`")),
            file => {
                if trace_path.replace(file.to_string()).is_some() {
                    args.fail("exactly one trace file, please");
                }
            }
        }
    }
    let Some(trace_path) = trace_path else {
        args.fail("a trace file is required");
    };
    let text = match std::fs::read_to_string(&trace_path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("sweep trace: cannot read {trace_path}: {e}");
            std::process::exit(1);
        }
    };
    // Strict parse: any schema violation exits non-zero naming the line,
    // which is what lets CI use `trace report` as the trace validator.
    let events = match acmp_obs::read_trace_values(&text) {
        Ok(events) => events,
        Err(msg) => {
            eprintln!("sweep trace: {trace_path}: {msg}");
            std::process::exit(1);
        }
    };
    let metrics = metrics_path.map(|path| {
        let parsed = std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|text| serde_json::from_str::<serde::Value>(&text).map_err(|e| e.to_string()))
            .and_then(|value| acmp_obs::MetricsSnapshot::from_value(&value));
        match parsed {
            Ok(snapshot) => snapshot,
            Err(msg) => {
                eprintln!("sweep trace: {path}: {msg}");
                std::process::exit(1);
            }
        }
    });
    print!(
        "{}",
        acmp_obs::render_report(&events, metrics.as_ref(), top)
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or_default();
    match args.first().map(String::as_str) {
        Some("run") => dispatch_run(&RunOptions::parse(rest)),
        Some("plan") => run_plan(rest),
        Some("merge") => run_merge(rest),
        Some("store") => run_store(rest),
        Some("query") => run_query(rest),
        Some("serve") => run_serve(rest),
        Some("trace") => run_trace(rest),
        Some("--help" | "-h") => Args::new(rest, "sweep", usage()).help(),
        other => {
            let msg = other.map_or_else(
                || "a subcommand is required".to_string(),
                |o| format!("unknown subcommand `{o}`"),
            );
            Args::new(rest, "sweep", usage()).fail(&msg);
        }
    }
}

/// `sweep run`: the whole grid, one shard of a manifest, or `--shards N`.
fn dispatch_run(opts: &RunOptions) {
    opts.sinks.enable();
    match &opts.mode {
        Mode::Manifest(path, shard) => run_manifest_shard(opts, path, *shard),
        Mode::Shards(shards) => run_coordinator(opts, *shards),
        Mode::Whole => {
            let (grid, generator) = opts.grid.parse();
            run_grid(
                opts,
                &grid,
                &generator,
                &opts.grid.scale,
                ShardSpec::whole(),
            );
        }
    }
}

/// `sweep store compact|stats|export FILE|import FILE [--cache-dir DIR]`.
fn run_store(tokens: &[String]) {
    let mut args = Args::new(tokens, "sweep store", STORE_USAGE.to_string());
    let action = match args.next() {
        Some("compact") => StoreAction::Compact,
        Some("stats") => StoreAction::Stats,
        Some(verb @ ("export" | "import")) => {
            let file = match args.next() {
                Some(file) if !file.starts_with("--") => file.to_string(),
                _ => args.fail(&format!("`{verb}` needs a bundle file")),
            };
            if verb == "export" {
                StoreAction::Export(file)
            } else {
                StoreAction::Import(file)
            }
        }
        Some("--help" | "-h") => args.help(),
        other => {
            let got = other.map_or_else(String::new, |o| format!(" (got `{o}`)"));
            args.fail(&format!("needs an action{got}"));
        }
    };
    let mut cache_dir: Option<String> = None;
    while let Some(flag) = args.next() {
        match flag {
            "--cache-dir" => cache_dir = Some(args.value(flag)),
            "--help" | "-h" => args.help(),
            other => args.fail(&format!("unknown option `{other}`")),
        }
    }
    run_maintenance(&action, cache_dir.as_deref());
}

/// `sweep query [FILTER …] --by METRIC [--top K] [--desc] …` — rank cached
/// results straight from the store's catalog, simulating nothing.  The
/// query tokens go to [`parse_query_tokens`], the parser `/query` uses, so
/// the CLI and the service accept the same grammar.
fn run_query(tokens: &[String]) {
    let mut args = Args::new(tokens, "sweep query", query_usage());
    let mut query_tokens: Vec<String> = Vec::new();
    let mut out: Option<String> = None;
    let mut cache_dir: Option<String> = None;
    let mut sinks = Sinks::default();
    let mut quiet = false;
    while let Some(token) = args.next() {
        match token {
            "--out" => out = Some(args.value(token)),
            "--cache-dir" => cache_dir = Some(args.value(token)),
            "--trace-out" => sinks.trace_out = Some(args.value(token)),
            "--metrics-out" => sinks.metrics_out = Some(args.value(token)),
            "--quiet" => quiet = true,
            "--help" | "-h" => args.help(),
            _ => query_tokens.push(token.to_string()),
        }
    }
    let query = match parse_query_tokens(&query_tokens) {
        Ok(query) => query,
        Err(msg) => args.fail(&msg),
    };

    // Sinks on before the store opens, so index builds land in the trace.
    sinks.enable();
    let root = cache_root(cache_dir.as_deref());
    let store = open_store(&root);
    let catalog = match Catalog::open(&store) {
        Ok(catalog) => catalog,
        Err(e) => {
            eprintln!(
                "sweep query: cannot build catalog for {}: {e}",
                root.display()
            );
            std::process::exit(1);
        }
    };
    // A scan-built catalog means no (fresh) persisted index existed; persist
    // it so the next query — and the next process — answers warm.
    if catalog.source() == CatalogSource::Scan && !catalog.rows().is_empty() {
        if let Err(e) = catalog.persist(&store) {
            eprintln!(
                "sweep query: cannot persist index under {}: {e}",
                root.display()
            );
            std::process::exit(1);
        }
    }

    // A ranking metric (or filter metric) no row carries is a typo, not an
    // empty design space — refuse it and show the vocabulary.
    if let Err(msg) = catalog.validate_query(&query) {
        eprintln!("sweep query: {msg}");
        std::process::exit(2);
    }

    let hits = catalog.query(&query);
    let mut sink = open_sink(out.as_deref());
    for hit in &hits {
        // The rendering is shared with `sweep serve` so service responses
        // stay byte-identical to the offline CLI.
        if let Err(e) = writeln!(sink, "{}", hit.to_jsonl(&query.by)) {
            die_on_write_error(&e);
        }
    }
    if let Err(e) = sink.flush() {
        die_on_write_error(&e);
    }
    drop(sink);
    if !quiet {
        let source = match catalog.source() {
            CatalogSource::Index => "persisted index",
            CatalogSource::Scan => "value scan (index persisted for next time)",
        };
        eprintln!(
            "query {}: {} hits from {} rows via {source}",
            root.display(),
            hits.len(),
            catalog.rows().len(),
        );
    }
    sinks.write(Vec::new(), &[]);
}

const SERVE_USAGE: &str = "\
usage: sweep serve --dir STORE [--addr HOST:PORT] [--workers N]
  Serves the store's cached results over HTTP, long-lived.  Endpoints:
    POST/GET /query     the `sweep query` grammar (POST body = the CLI
                        tokens, GET = &-separated percent-encoded tokens);
                        answers JSONL byte-identical to the offline CLI
    GET /stats          the live acmp-obs metrics snapshot (same schema as
                        --metrics-out); a warm query leaves
                        store.value_reads absent — the zero-read proof
    GET /healthz        liveness
  Writer publishes are picked up automatically (snapshot epoch roll);
  in-flight queries keep their epoch.  SIGTERM exits cleanly.
  --dir DIR       the store to serve (required)
  --addr ADDR     bind address                (default: 127.0.0.1:7878)
  --workers N     connection worker threads   (default: 4)";

/// `sweep serve --dir STORE [--addr HOST:PORT] [--workers N]`.
fn run_serve(tokens: &[String]) {
    let mut args = Args::new(tokens, "sweep serve", SERVE_USAGE.to_string());
    let mut dir: Option<String> = None;
    let mut addr = "127.0.0.1:7878".to_string();
    let mut workers = acmp_sweep::serve::DEFAULT_WORKERS;
    while let Some(flag) = args.next() {
        match flag {
            "--dir" => dir = Some(args.value(flag)),
            "--addr" => addr = args.value(flag),
            "--workers" => workers = args.count(flag, "worker count"),
            "--help" | "-h" => args.help(),
            other => args.fail(&format!("unknown argument `{other}`")),
        }
    }
    let Some(dir) = dir else {
        args.fail("--dir STORE is required");
    };
    // Metrics on from the start so /stats reflects the whole process —
    // including whether the first epoch needed any segment value reads.
    acmp_obs::enable_metrics();
    install_sigterm_handler();
    let server = match acmp_sweep::serve::Server::start(&dir, &addr, workers) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("sweep serve: cannot serve {dir}: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "sweep serve: serving {dir} on http://{}",
        server.local_addr()
    );
    // The acceptor and workers own the work; this thread only waits for a
    // signal.  SIGTERM exits 0 via the handler below.
    loop {
        std::thread::park();
    }
}

/// Raw `signal(2)` binding — the container has no signal-handling crate,
/// and all the handler may do is `_exit`, which is async-signal-safe.
#[cfg(unix)]
mod sigterm {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
        fn _exit(code: i32) -> !;
    }

    const SIGTERM: i32 = 15;

    extern "C" fn exit_cleanly(_signum: i32) {
        // Exit code 0 is the clean-shutdown contract CI asserts.
        unsafe { _exit(0) }
    }

    pub fn install() {
        unsafe {
            signal(SIGTERM, exit_cleanly as *const () as usize);
        }
    }
}

#[cfg(unix)]
fn install_sigterm_handler() {
    sigterm::install();
}

#[cfg(not(unix))]
fn install_sigterm_handler() {}

/// What `sweep store` does before it prints the store's statistics.
enum StoreAction {
    Compact,
    Stats,
    Export(String),
    Import(String),
}

/// Store maintenance: no grid, no engine.  Every action ends by printing
/// the store's contents and index statistics.
fn run_maintenance(action: &StoreAction, cache_dir: Option<&str>) {
    let root = cache_root(cache_dir);
    let store = open_store(&root);
    match action {
        StoreAction::Stats => {}
        StoreAction::Compact => {
            match store.compact() {
                Ok(cs) => println!(
                    "compacted {}: {} live entries into generation {} ({} -> {} segments, {} -> {} bytes, removed {} dead segments, {} tmp files)",
                    root.display(),
                    cs.live_entries,
                    cs.generation,
                    cs.segments_before,
                    cs.segments_after,
                    cs.bytes_before,
                    cs.bytes_after,
                    cs.removed_segments,
                    cs.removed_tmp,
                ),
                Err(e) => {
                    eprintln!("sweep: compaction of {} failed: {e}", root.display());
                    std::process::exit(1);
                }
            }
            // Compaction copies records verbatim, so a persisted index's
            // content fingerprint stays valid — but rewrite it anyway so the
            // on-disk index is rebuilt deterministically alongside the new
            // generation (and carries fresh rows if it was stale).
            match store.index_stats() {
                Ok(istats) if istats.files > 0 => match Catalog::open(&store) {
                    Ok(catalog) => match catalog.persist(&store) {
                        Ok(_) => {
                            println!("rebuilt secondary index: {} rows", catalog.rows().len())
                        }
                        Err(e) => {
                            eprintln!("sweep: index rebuild under {} failed: {e}", root.display());
                            std::process::exit(1);
                        }
                    },
                    Err(e) => {
                        eprintln!("sweep: index rebuild under {} failed: {e}", root.display());
                        std::process::exit(1);
                    }
                },
                Ok(_) => {}
                Err(e) => {
                    eprintln!("sweep: cannot inspect index under {}: {e}", root.display());
                    std::process::exit(1);
                }
            }
        }
        StoreAction::Import(path) => {
            let file = match std::fs::File::open(path) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("sweep: cannot open bundle {path}: {e}");
                    std::process::exit(1);
                }
            };
            match store.import_segments(std::io::BufReader::new(file)) {
                Ok(stats) => println!(
                    "imported {path} into {}: {} records ({} new, {} already present)",
                    root.display(),
                    stats.records,
                    stats.imported,
                    stats.skipped,
                ),
                Err(e) => {
                    eprintln!("sweep: import of {path} failed: {e}");
                    std::process::exit(1);
                }
            }
        }
        StoreAction::Export(path) => {
            let mut file = match std::fs::File::create(path) {
                Ok(f) => std::io::BufWriter::new(f),
                Err(e) => {
                    eprintln!("sweep: cannot create bundle {path}: {e}");
                    std::process::exit(1);
                }
            };
            match store.export_segments(&mut file) {
                Ok(records) => println!(
                    "exported {} live records from {} to {path}",
                    records,
                    root.display()
                ),
                Err(e) => {
                    eprintln!("sweep: export to {path} failed: {e}");
                    let _ = std::fs::remove_file(path);
                    std::process::exit(1);
                }
            }
        }
    }
    let stats = store.stats();
    println!(
        "cache {}: entries {}, segments {}, generation {}, live-bytes {}, evicted {}",
        root.display(),
        stats.entries,
        stats.segments,
        stats.generation,
        stats.live_bytes,
        stats.evicted,
    );
    match store.index_stats() {
        Ok(istats) => println!(
            "index {}: files {}, rows {}, {}",
            root.display(),
            istats.files,
            istats.rows,
            istats.status.label(),
        ),
        Err(e) => {
            eprintln!("sweep: cannot inspect index under {}: {e}", root.display());
            std::process::exit(1);
        }
    }
}

/// Writes `manifest` to `path` as one JSON line, exiting on failure.
fn write_manifest(manifest: &SweepManifest, path: &Path) {
    let mut json = manifest.to_json();
    json.push('\n');
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("sweep: cannot write manifest {}: {e}", path.display());
        std::process::exit(1);
    }
}

/// `sweep plan FILE [grid options] [--shards N]`: sign and write a shard
/// manifest, run nothing.
fn run_plan(tokens: &[String]) {
    let mut args = Args::new(tokens, "sweep plan", usage());
    let file = match args.next() {
        Some("--help" | "-h") => args.help(),
        Some(file) if !file.starts_with("--") => file.to_string(),
        _ => args.fail("needs a manifest file to write"),
    };
    let mut grid = GridFlags::default();
    let mut shards = 1u32;
    while let Some(flag) = args.next() {
        if grid.take(flag, &mut args) {
            continue;
        }
        match flag {
            "--shards" => shards = args.count(flag, "shard count"),
            "--help" | "-h" => args.help(),
            other => args.fail(&format!("unknown option `{other}`")),
        }
    }
    let manifest = grid.plan(shards);
    write_manifest(&manifest, Path::new(&file));
    eprintln!(
        "sweep: planned {} cells across {} shards at {} scale into {file} (digest {})",
        manifest.cells, manifest.shards, manifest.scale, manifest.digest,
    );
    for shard in ShardSpec::all(manifest.shards) {
        eprintln!(
            "sweep:   shard {shard} owns {} rows — run: sweep run --manifest {file} --shard {shard} --out shard-{}.jsonl",
            manifest.shard_schedule(shard).len(),
            shard.index() + 1,
        );
    }
}

/// `--manifest FILE --shard i/N`: validate, then run one shard of the plan.
fn run_manifest_shard(opts: &RunOptions, path: &str, shard: ShardSpec) {
    let manifest = match SweepManifest::load(path) {
        Ok(manifest) => manifest,
        Err(msg) => {
            eprintln!("sweep: {msg}");
            std::process::exit(1);
        }
    };
    if shard.count() != manifest.shards {
        eprintln!(
            "sweep: --shard {shard} does not fit a manifest planned for {} shards",
            manifest.shards
        );
        std::process::exit(2);
    }
    let (grid, generator) = match manifest.validate_grid() {
        Ok(validated) => validated,
        Err(msg) => {
            eprintln!("sweep: manifest {path}: {msg}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "sweep: manifest {path} validated — shard {shard} owns {} of {} cells ({} scale)",
        manifest.shard_schedule(shard).len(),
        manifest.cells,
        manifest.scale,
    );
    // The scale comes from the manifest, not from opts (where --scale is
    // rejected on this path), so the run summary must be told explicitly.
    run_grid(opts, &grid, &generator, &manifest.scale, shard);
}

/// Runs the grid, or the cells of it `shard` owns, in this process.
/// `scale` is the display name of `generator`'s scale.
fn run_grid(
    opts: &RunOptions,
    grid: &GridSpec,
    generator: &GeneratorConfig,
    scale: &str,
    shard: ShardSpec,
) {
    let mut builder = SweepEngine::builder(*generator).shard(shard);
    if let Some(n) = opts.workers {
        builder = builder.workers(n);
    }
    let root = cache_root(opts.cache_dir.as_deref());
    if opts.disk_cache {
        builder = builder.store_dir(&root);
        if let Some(keep) = opts.keep_generations {
            builder = builder.kept_generations(keep);
        }
    }
    let engine = match builder.build() {
        Ok(engine) => engine,
        Err(e) => {
            eprintln!("sweep: cannot open cache dir {}: {e}", root.display());
            std::process::exit(1);
        }
    };

    // One enumeration feeds both the owned-cell count below and the jobs
    // the engine runs, so the two can never drift apart.
    let jobs = grid.jobs();
    let total = if shard.is_whole() {
        jobs.len()
    } else {
        jobs.iter()
            .filter(|job| shard.owns(job.key(engine.generator()).digest()))
            .count()
    };

    let mut sink = open_sink(opts.out.as_deref());

    acmp_obs::logline!(
        "sweep: {} benchmarks × {} designs = {} jobs{} on {} workers ({} scale{})",
        grid.benchmarks.len(),
        grid.designs.len(),
        grid.cells(),
        if shard.is_whole() {
            String::new()
        } else {
            format!(", shard {shard} owns {total}")
        },
        engine.threads(),
        scale,
        engine
            .store()
            .map(|s| format!(", cache {}", s.root().display()))
            .unwrap_or_else(|| ", no disk cache".to_string()),
    );

    let start = acmp_obs::Stopwatch::start();
    let done = std::sync::atomic::AtomicUsize::new(0);
    // Progress streams from the worker threads as each cell finishes; the
    // JSONL rows themselves are written afterwards in stable digest order.
    let outcome = engine.run_jobs_with(jobs, |row| {
        let n = done.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
        if !opts.quiet {
            acmp_obs::logline!(
                "[{n}/{total}] {} × {}: {} cycles",
                row.benchmark,
                row.design,
                row.result.cycles
            );
        }
    });
    let wall = start.elapsed_secs();

    // Rows are emitted sorted by line bytes — digest order, since every
    // line starts with the fixed-width hex job key.  A shard's stream is
    // therefore a sorted sub-sequence of the unsharded output, which is
    // what lets the validated k-way merge reproduce the unsharded bytes
    // exactly.
    let mut lines: Vec<String> = outcome.rows.iter().map(|row| row.to_jsonl()).collect();
    lines.sort_unstable();
    for line in &lines {
        if let Err(e) = writeln!(sink, "{line}") {
            die_on_write_error(&e);
        }
    }
    if let Err(e) = sink.flush() {
        die_on_write_error(&e);
    }

    let stats = engine.stats();
    acmp_obs::logline!(
        "sweep: done in {wall:.2}s — jobs {total}, workers {}, simulated {}, memory-hits {}, disk-hits {}, trace-gens {}, steals {}, injector-pops {}",
        engine.threads(), stats.simulated, stats.memory_hits, stats.disk_hits,
        stats.trace_generated, outcome.pool.steals, outcome.pool.injector_pops,
    );
    if let Some(store) = stats.store {
        acmp_obs::logline!(
            "sweep: store — hits {}, misses {}, writes {}, entries {}, segments {}, generation {}",
            store.hits,
            store.misses,
            store.writes,
            store.entries,
            store.segments,
            store.generation
        );
    }
    opts.sinks.write(Vec::new(), &[]);
}

/// `--shards N`: plans the grid into N shards, runs each as a child
/// `sweep run --manifest PLAN --shard i/N` over one store, and merges
/// their row streams through [`merge_shard_files`] into output
/// byte-identical to an unsharded run.
fn run_coordinator(opts: &RunOptions, shards: u32) {
    let (grid, _) = opts.grid.parse();
    let manifest = opts.grid.plan(shards);

    // Shards split the host between them instead of each sizing its pool
    // to the whole machine; the split never hands a child zero workers,
    // even with more shards than cores.
    let budget = opts
        .workers
        .unwrap_or_else(|| WorkStealingPool::host_sized().workers());
    let per_shard = split_worker_budget(budget, shards);

    let store_root = opts
        .disk_cache
        .then(|| cache_root(opts.cache_dir.as_deref()));
    let exe = match std::env::current_exe() {
        Ok(path) => path,
        Err(e) => {
            eprintln!("sweep: cannot locate the sweep binary: {e}");
            std::process::exit(1);
        }
    };
    let shard_dir = std::env::temp_dir().join(format!("sweep-shards-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&shard_dir);
    if let Err(e) = std::fs::create_dir_all(&shard_dir) {
        eprintln!("sweep: cannot create {}: {e}", shard_dir.display());
        std::process::exit(1);
    }
    let plan_path = shard_dir.join("plan.json");
    write_manifest(&manifest, &plan_path);

    acmp_obs::logline!(
        "sweep: {} benchmarks × {} designs = {} jobs across {shards} shard processes, {per_shard} workers each ({} scale{})",
        grid.benchmarks.len(),
        grid.designs.len(),
        grid.cells(),
        opts.grid.scale,
        store_root
            .as_ref()
            .map(|root| format!(", cache {}", root.display()))
            .unwrap_or_else(|| ", no disk cache".to_string()),
    );

    let start = acmp_obs::Stopwatch::start();
    let shard_files: Vec<PathBuf> = (1..=shards)
        .map(|i| shard_dir.join(format!("shard-{i}.jsonl")))
        .collect();
    let mut children: Vec<(u32, std::process::Child)> = Vec::new();
    for (i, out_path) in (1..=shards).zip(&shard_files) {
        let mut cmd = std::process::Command::new(&exe);
        cmd.arg("run")
            .arg("--manifest")
            .arg(&plan_path)
            .arg("--shard")
            .arg(format!("{i}/{shards}"))
            .arg("--workers")
            .arg(per_shard.to_string())
            .arg("--out")
            .arg(out_path)
            .stdin(std::process::Stdio::null())
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::piped());
        match &store_root {
            Some(root) => {
                cmd.arg("--cache-dir").arg(root);
                if let Some(keep) = opts.keep_generations {
                    cmd.arg("--keep-generations").arg(keep.to_string());
                }
            }
            None => {
                cmd.arg("--no-disk-cache");
            }
        }
        if opts.quiet {
            cmd.arg("--quiet");
        }
        // Children write their own observability artifacts into the shard
        // directory; the coordinator folds them into its own after the
        // merge, tagging every child event `shard=i/N`.
        if opts.sinks.trace_out.is_some() {
            cmd.arg("--trace-out")
                .arg(shard_dir.join(format!("trace-{i}.jsonl")));
        }
        if opts.sinks.metrics_out.is_some() {
            cmd.arg("--metrics-out")
                .arg(shard_dir.join(format!("metrics-{i}.json")));
        }
        match cmd.spawn() {
            Ok(child) => children.push((i, child)),
            Err(e) => {
                eprintln!("sweep: cannot spawn shard {i}/{shards}: {e}");
                for (_, child) in &mut children {
                    let _ = child.kill();
                    let _ = child.wait();
                }
                let _ = std::fs::remove_dir_all(&shard_dir);
                std::process::exit(1);
            }
        }
    }

    // Relay every child's stderr (progress and summary lines) with a shard
    // prefix, live, while waiting for them all to finish.
    let mut relays = Vec::new();
    for (i, child) in &mut children {
        relays.push((*i, child.stderr.take().expect("stderr was piped")));
    }
    let mut failed = false;
    std::thread::scope(|scope| {
        for (i, stderr) in relays {
            scope.spawn(move || {
                // Tags every relayed line — panics and a killed child's
                // partial final line included — and flushes per line.
                let _ = acmp_sweep::relay_prefixed(
                    std::io::BufReader::new(stderr),
                    &mut std::io::stderr(),
                    &format!("[shard {i}/{shards}] "),
                );
            });
        }
        for (i, child) in &mut children {
            match child.wait() {
                Ok(status) if status.success() => {}
                Ok(status) => {
                    eprintln!("sweep: shard {i}/{shards} failed: {status}");
                    failed = true;
                }
                Err(e) => {
                    eprintln!("sweep: waiting for shard {i}/{shards} failed: {e}");
                    failed = true;
                }
            }
        }
    });
    if failed {
        let _ = std::fs::remove_dir_all(&shard_dir);
        std::process::exit(1);
    }

    // A stream that fails validation keeps the shard directory on disk for
    // post-mortem.
    let Some((merged, rows)) = merge_shard_files("sweep", &manifest, &plan_path, &shard_files)
    else {
        eprintln!("sweep: shard streams kept in {}", shard_dir.display());
        std::process::exit(1);
    };

    // Fold the children's observability artifacts in *before* the shard
    // directory goes away.  A child that ran can't have skipped writing
    // them, so an unreadable artifact is a real failure — report it and
    // keep the directory for post-mortem.
    let mut child_events: Vec<serde::Value> = Vec::new();
    let mut child_metrics: Vec<acmp_obs::MetricsSnapshot> = Vec::new();
    for i in 1..=shards {
        if opts.sinks.trace_out.is_some() {
            let path = shard_dir.join(format!("trace-{i}.jsonl"));
            let values = std::fs::read_to_string(&path)
                .map_err(|e| e.to_string())
                .and_then(|text| acmp_obs::read_trace_values(&text));
            match values {
                Ok(mut values) => {
                    let tag = format!("{i}/{shards}");
                    for value in &mut values {
                        acmp_obs::tag_shard(value, &tag);
                    }
                    child_events.extend(values);
                }
                Err(msg) => {
                    eprintln!("sweep: shard {i}/{shards} trace {}: {msg}", path.display());
                    eprintln!("sweep: shard artifacts kept in {}", shard_dir.display());
                    std::process::exit(1);
                }
            }
        }
        if opts.sinks.metrics_out.is_some() {
            let path = shard_dir.join(format!("metrics-{i}.json"));
            let snapshot = std::fs::read_to_string(&path)
                .map_err(|e| e.to_string())
                .and_then(|text| {
                    serde_json::from_str::<serde::Value>(&text).map_err(|e| e.to_string())
                })
                .and_then(|value| acmp_obs::MetricsSnapshot::from_value(&value));
            match snapshot {
                Ok(snapshot) => child_metrics.push(snapshot),
                Err(msg) => {
                    eprintln!(
                        "sweep: shard {i}/{shards} metrics {}: {msg}",
                        path.display()
                    );
                    eprintln!("sweep: shard artifacts kept in {}", shard_dir.display());
                    std::process::exit(1);
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&shard_dir);

    write_rows(opts.out.as_deref(), &merged);
    acmp_obs::logline!(
        "sweep: merged {shards} shard streams — {rows} rows in {:.2}s",
        start.elapsed_secs()
    );
    opts.sinks.write(child_events, &child_metrics);
}

/// Validates `files[i]` against slot `i` of `manifest`'s key schedule for
/// every slot, naming each slot's outcome on stderr under `who` — so one
/// pass reports *all* the missing, short and corrupt shards, and the
/// stragglers can be re-run individually — and merges the rows in memory
/// only when every slot checked out.  Returns the merged bytes and row
/// count, or `None` after reporting how many slots were unusable: the
/// caller's `--out` target (possibly a previous run's good output) is not
/// even opened then.  `sweep merge` and the `--shards N` coordinator both
/// merge through here.
fn merge_shard_files(
    who: &str,
    manifest: &SweepManifest,
    manifest_path: &Path,
    files: &[PathBuf],
) -> Option<(Vec<u8>, u64)> {
    let mut buffered: Vec<Vec<String>> = Vec::with_capacity(manifest.schedule.len());
    let mut unusable = 0u32;
    let slots = ShardSpec::all(manifest.shards).zip(&manifest.schedule);
    for (i, (slot, schedule)) in slots.enumerate() {
        // Slot i is file i, unconditionally — even a shard that owns
        // nothing needs its (empty) file supplied, because accepting an
        // omitted middle slot would silently shift every later file into
        // the wrong slot and misattribute the resulting failures.
        let outcome: Result<Vec<String>, String> = match files.get(i) {
            None => Err(format!(
                "missing — no stream supplied for its {} scheduled rows; run: sweep run \
                 --manifest {} --shard {slot} --out shard-{}.jsonl",
                schedule.len(),
                manifest_path.display(),
                i + 1,
            )),
            Some(path) => match std::fs::File::open(path) {
                Err(e) => Err(format!("missing — cannot open {}: {e}", path.display())),
                Ok(file) => {
                    match validate_shard_stream(i + 1, std::io::BufReader::new(file), schedule) {
                        Ok(rows) => Ok(rows),
                        Err(MergeError::Io(e)) => {
                            Err(format!("unreadable — {}: {e}", path.display()))
                        }
                        Err(MergeError::Corrupt { message, .. }) => {
                            let kind = if message.contains("truncated") {
                                "short"
                            } else {
                                "corrupt"
                            };
                            Err(format!(
                                "{kind} — {message} ({}); re-run this shard",
                                path.display()
                            ))
                        }
                    }
                }
            },
        };
        match outcome {
            Ok(rows) => {
                eprintln!(
                    "{who}: shard {slot}: ok — {} of {} scheduled rows",
                    rows.len(),
                    schedule.len()
                );
                buffered.push(rows);
            }
            Err(msg) => {
                eprintln!("{who}: shard {slot}: {msg}");
                unusable += 1;
                buffered.push(Vec::new());
            }
        }
    }
    if unusable > 0 {
        eprintln!(
            "{who}: {unusable} of {} shard streams unusable; wrote nothing",
            manifest.shards
        );
        return None;
    }
    let mut merged: Vec<u8> = Vec::new();
    let rows = merge_validated(&buffered, &mut merged).expect("writing to memory cannot fail");
    Some((merged, rows))
}

/// `sweep merge`: recombine gathered per-shard JSONL files offline.
fn run_merge(tokens: &[String]) {
    let mut args = Args::new(tokens, "sweep merge", MERGE_USAGE.to_string());
    let mut manifest_path: Option<String> = None;
    let mut out: Option<String> = None;
    let mut files: Vec<PathBuf> = Vec::new();
    while let Some(token) = args.next() {
        match token {
            "--manifest" => manifest_path = Some(args.value(token)),
            "--out" => out = Some(args.value(token)),
            "--help" | "-h" => args.help(),
            flag if flag.starts_with("--") => args.fail(&format!("unknown option `{flag}`")),
            file => files.push(PathBuf::from(file)),
        }
    }
    let Some(manifest_path) = manifest_path else {
        args.fail("a --manifest is required");
    };
    let manifest = match SweepManifest::load(&manifest_path) {
        Ok(manifest) => manifest,
        Err(msg) => {
            eprintln!("sweep merge: {msg}");
            std::process::exit(1);
        }
    };
    if files.len() > manifest.schedule.len() {
        args.fail(&format!(
            "{} shard files supplied for a {}-shard plan",
            files.len(),
            manifest.shards
        ));
    }
    let Some((merged, rows)) =
        merge_shard_files("sweep merge", &manifest, Path::new(&manifest_path), &files)
    else {
        std::process::exit(1);
    };
    write_rows(out.as_deref(), &merged);
    eprintln!(
        "sweep merge: merged {} shard streams — {rows} rows, byte-identical to an unsharded run",
        manifest.shards
    );
}
