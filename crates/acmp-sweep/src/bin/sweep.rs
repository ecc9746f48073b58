//! `sweep` — run a (benchmark × design point) grid on the sweep engine.
//!
//! ```text
//! sweep run --grid fig09                     # quick benchmarks × Fig. 9 designs
//! sweep run --benchmarks all --designs fig12 --workers 8
//! sweep run --benchmarks cg,lu --designs baseline,proposed --out rows.jsonl
//! sweep run --grid fig07 --scale paper --cache-dir /tmp/sweep-cache
//! sweep run --grid fig09 --shards 3          # 3 shard processes, merged output
//! sweep run --grid fig09 --shard 2/3         # this process runs shard 2 only
//! sweep plan plan.json --grid fig09 --shards 2     # sign a multi-machine plan
//! sweep run --manifest plan.json --shard 1/2 --out shard-1.jsonl   # machine 1
//! sweep merge --manifest plan.json --out rows.jsonl shard-1.jsonl shard-2.jsonl
//! sweep store export warm.bundle             # ship a warm store elsewhere
//! sweep store import warm.bundle             # …and absorb it there
//! sweep store compact                        # merge the store into one generation
//! sweep store stats                          # inspect the store, run nothing
//! sweep query benchmark=cg --by cycles --top 3   # rank cached results
//! sweep query family=worker-shared 'cycles<=1e6' --by worker_icache.misses
//! ```
//!
//! The pre-subcommand grammar — the same options as top-level flags, plus
//! `--plan FILE`, `--compact`, `--cache-stats`, `--export-segments` and
//! `--import-segments` — still works as a set of deprecated aliases, so
//! existing scripts keep running unchanged.
//!
//! Result rows stream as JSONL (stdout by default, `--out FILE` otherwise)
//! in stable digest order — every line starts with the fixed-width hex job
//! key, so byte order is key order; progress and the final summary go to
//! stderr, so piping stdout yields pure JSONL.  The summary includes the
//! cache counters; a second identical invocation with the same
//! `--cache-dir` reports `disk-hits > 0`, zero simulations, zero trace
//! generations, and produces byte-identical rows.
//!
//! `--shards N` splits the grid across N child `sweep` processes by stable
//! job-key digest: the children share the cache directory (their appends
//! never collide and no cell is simulated twice), their stderr streams
//! here with a `[shard i/N]` prefix, and their digest-ordered row streams
//! are k-way merged — validated against the expected key schedule — into
//! output byte-identical to an unsharded run.  `--shard i/N` runs a single
//! shard in this process (what the coordinator spawns, and what a manual
//! multi-terminal or multi-machine run uses directly).
//!
//! The **multi-machine** path needs no shared filesystem.  `--plan FILE`
//! signs a manifest carrying the grid spec and every shard's expected key
//! schedule; `--manifest FILE --shard i/N` re-derives the schedule with
//! the local binary and refuses to simulate on any disagreement; the
//! gathered per-shard JSONL files are recombined offline with `sweep
//! merge`, which names every missing or short shard (so stragglers can be
//! re-run individually) and writes nothing unless all streams check out.
//! `--export-segments` / `--import-segments` ship one machine's warm store
//! to the others as a verified bundle.
//!
//! `--compact`, `--cache-stats`, `--export-segments` and
//! `--import-segments` are maintenance modes: they operate on the store
//! named by `--cache-dir` (or the default) and exit without running a
//! grid.
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

use acmp_sweep::manifest::{scale_generator, SweepManifest};
use acmp_sweep::merge::{
    merge_shard_streams, merge_validated, shard_key_schedule, validate_shard_stream, MergeError,
};
use acmp_sweep::scheduler::split_worker_budget;
use acmp_sweep::{
    Catalog, CatalogSource, DiskStore, GridSpec, JobKey, Query, ShardSpec, SweepEngine,
    WorkStealingPool,
};
use hpc_workloads::GeneratorConfig;
use std::io::Write;
use std::path::PathBuf;

/// The top-level usage text.  A function, not a const: the metrics schema
/// name is spliced in from its defining constant
/// ([`acmp_obs::METRICS_SCHEMA`]) so the help text can never drift from
/// the writer (the `schema-literal` lint rule bans inline copies).
fn usage() -> String {
    format!(
        "\
usage: sweep run   [options]                 run a grid, or one shard of it
       sweep plan  FILE [options]            sign a multi-machine shard manifest
       sweep merge --manifest plan.json [--out FILE] shard-1.jsonl … shard-N.jsonl
       sweep store compact|stats|export FILE|import FILE [--cache-dir DIR]
       sweep query [FILTER …] --by METRIC [--top K] [--desc] [--cache-dir DIR]
       sweep serve --dir STORE [--addr HOST:PORT] [--workers N]
       sweep trace report TRACE.jsonl [--metrics FILE.json] [--top K]
       sweep [options]                       (deprecated alias grammar, see below)

run options:
  --benchmarks SPEC   all | quick | comma list of names     (default: quick)
  --designs SPEC      design spec (see below)               (default: baseline,proposed)
  --grid PRESET       shorthand for --designs PRESET
  --workers N         pool threads                          (default: nproc)
  --shards N          run the grid as N shard processes sharing the cache,
                      then merge their rows (byte-identical to unsharded);
                      with `sweep plan`, the shard count being planned
  --shard I/N         run only the cells whose stable key digest d has
                      d % N == I-1 (1-based I)
  --scale S           quick | paper trace scale             (default: quick)
  --manifest FILE     run one shard of a planned sweep (needs --shard I/N);
                      the grid and scale come from the manifest, which is
                      digest-checked and re-validated against this binary
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

deprecated aliases: the run options work without the `run` subcommand, and
  --plan FILE / --compact / --cache-stats / --export-segments FILE /
  --import-segments FILE mirror `sweep plan` and the store subcommands.

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
                      secondary-index statistics (files/rows/postings/buckets
                      and whether the index is fresh or stale)
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

struct Options {
    benchmarks: String,
    designs: String,
    workers: Option<usize>,
    shards: Option<u32>,
    shard: Option<ShardSpec>,
    scale: String,
    plan: Option<String>,
    manifest: Option<String>,
    out: Option<String>,
    cache_dir: Option<String>,
    keep_generations: Option<u64>,
    disk_cache: bool,
    compact: bool,
    cache_stats: bool,
    export_segments: Option<String>,
    import_segments: Option<String>,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    quiet: bool,
    /// Grid-defining flags the user passed explicitly — with `--manifest`
    /// the grid comes from the manifest, so these conflict and are named
    /// in the error.
    grid_flags: Vec<&'static str>,
}

impl Options {
    fn is_maintenance(&self) -> bool {
        self.compact
            || self.cache_stats
            || self.export_segments.is_some()
            || self.import_segments.is_some()
    }
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        benchmarks: "quick".to_string(),
        designs: "baseline,proposed".to_string(),
        workers: None,
        shards: None,
        shard: None,
        scale: "quick".to_string(),
        plan: None,
        manifest: None,
        out: None,
        cache_dir: None,
        keep_generations: None,
        disk_cache: true,
        compact: false,
        cache_stats: false,
        export_segments: None,
        import_segments: None,
        trace_out: None,
        metrics_out: None,
        quiet: false,
        grid_flags: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--benchmarks" => {
                opts.benchmarks = value("--benchmarks")?;
                opts.grid_flags.push("--benchmarks");
            }
            "--designs" => {
                opts.designs = value("--designs")?;
                opts.grid_flags.push("--designs");
            }
            "--grid" => {
                opts.designs = value("--grid")?;
                opts.grid_flags.push("--grid");
            }
            "--workers" => {
                let v = value("--workers")?;
                opts.workers = Some(
                    v.parse::<usize>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| format!("bad worker count `{v}`"))?,
                );
            }
            "--shards" => {
                let v = value("--shards")?;
                opts.shards = Some(
                    v.parse::<u32>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| format!("bad shard count `{v}`"))?,
                );
            }
            "--shard" => {
                let v = value("--shard")?;
                opts.shard =
                    Some(ShardSpec::parse(&v).map_err(|e| format!("bad --shard `{v}`: {e}"))?);
            }
            "--scale" => {
                let v = value("--scale")?;
                scale_generator(&v)?;
                opts.scale = v;
                opts.grid_flags.push("--scale");
            }
            "--plan" => opts.plan = Some(value("--plan")?),
            "--manifest" => opts.manifest = Some(value("--manifest")?),
            "--out" => opts.out = Some(value("--out")?),
            "--cache-dir" => opts.cache_dir = Some(value("--cache-dir")?),
            "--keep-generations" => {
                let v = value("--keep-generations")?;
                opts.keep_generations = Some(
                    v.parse::<u64>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| format!("bad generation count `{v}`"))?,
                );
            }
            "--no-disk-cache" => opts.disk_cache = false,
            "--compact" => opts.compact = true,
            "--cache-stats" => opts.cache_stats = true,
            "--export-segments" => opts.export_segments = Some(value("--export-segments")?),
            "--import-segments" => opts.import_segments = Some(value("--import-segments")?),
            "--trace-out" => opts.trace_out = Some(value("--trace-out")?),
            "--metrics-out" => opts.metrics_out = Some(value("--metrics-out")?),
            "--quiet" => opts.quiet = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    if opts.shard.is_some() && opts.shards.is_some() {
        return Err("--shard and --shards are mutually exclusive".to_string());
    }
    if opts.plan.is_some() && (opts.manifest.is_some() || opts.shard.is_some()) {
        return Err("--plan only writes a manifest; it conflicts with --manifest/--shard".into());
    }
    if (opts.plan.is_some() || opts.manifest.is_some()) && opts.is_maintenance() {
        return Err("store maintenance flags conflict with --plan/--manifest".to_string());
    }
    if opts.manifest.is_some() {
        if let Some(flag) = opts.grid_flags.first() {
            return Err(format!(
                "{flag} conflicts with --manifest: the grid and scale come from the manifest"
            ));
        }
        if opts.shards.is_some() {
            return Err(
                "--shards conflicts with --manifest; run one shard per machine with --shard i/N"
                    .to_string(),
            );
        }
        if opts.shard.is_none() {
            return Err(
                "--manifest needs --shard i/N (use `sweep merge` to combine gathered streams)"
                    .to_string(),
            );
        }
    }
    Ok(opts)
}

/// The store directory the run will use (ignoring `--no-disk-cache`).
fn cache_root(opts: &Options) -> PathBuf {
    opts.cache_dir
        .clone()
        .map(PathBuf::from)
        .unwrap_or_else(DiskStore::default_root)
}

/// Opens the JSONL sink (`--out FILE` or stdout), exiting on failure.
fn open_sink(out: Option<&String>) -> Box<dyn Write> {
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

/// Turns on the observability sinks the flags ask for.  Must run before
/// the engine opens its store or simulates anything, so every span of the
/// run lands in the artifacts.
fn enable_observability(opts: &Options) {
    if opts.trace_out.is_some() {
        acmp_obs::enable_events();
    }
    if opts.metrics_out.is_some() {
        acmp_obs::enable_metrics();
    }
}

/// Writes the `--trace-out` / `--metrics-out` artifacts at the end of a
/// run: this process's drained events plus `child_events` already rendered
/// (and shard-tagged) by a coordinator, and the metrics snapshot merged
/// with every child's.  No-ops for sinks that were not requested.
fn write_obs_artifacts(
    opts: &Options,
    child_events: Vec<serde::Value>,
    child_metrics: &[acmp_obs::MetricsSnapshot],
) {
    if let Some(path) = &opts.trace_out {
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
    if let Some(path) = &opts.metrics_out {
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

/// `sweep trace report TRACE.jsonl [--metrics FILE.json] [--top K]`.
fn run_trace(args: &[String]) {
    match args.first().map(String::as_str) {
        Some("report") => {}
        Some("--help" | "-h") => {
            eprintln!("{TRACE_USAGE}");
            std::process::exit(0);
        }
        other => {
            let got = other.map_or_else(String::new, |o| format!(" (got `{o}`)"));
            eprintln!("sweep: `sweep trace` needs the `report` action{got}\n\n{TRACE_USAGE}");
            std::process::exit(2);
        }
    }
    let mut trace_path: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut top = 10usize;
    let mut it = args[1..].iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| match it.next() {
            Some(v) => v.clone(),
            None => {
                eprintln!("sweep trace: {name} needs a value\n\n{TRACE_USAGE}");
                std::process::exit(2);
            }
        };
        match arg.as_str() {
            "--metrics" => metrics_path = Some(value("--metrics")),
            "--top" => {
                let v = value("--top");
                top = match v.parse::<usize>() {
                    Ok(n) if n >= 1 => n,
                    _ => {
                        eprintln!("sweep trace: bad --top `{v}`\n\n{TRACE_USAGE}");
                        std::process::exit(2);
                    }
                };
            }
            "--help" | "-h" => {
                eprintln!("{TRACE_USAGE}");
                std::process::exit(0);
            }
            flag if flag.starts_with("--") => {
                eprintln!("sweep trace: unknown option `{flag}`\n\n{TRACE_USAGE}");
                std::process::exit(2);
            }
            file => {
                if trace_path.replace(file.to_string()).is_some() {
                    eprintln!("sweep trace: exactly one trace file, please\n\n{TRACE_USAGE}");
                    std::process::exit(2);
                }
            }
        }
    }
    let Some(trace_path) = trace_path else {
        eprintln!("sweep trace: a trace file is required\n\n{TRACE_USAGE}");
        std::process::exit(2);
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

fn parse_or_die(args: &[String]) -> Options {
    match parse_args(args) {
        Ok(opts) => opts,
        Err(msg) => {
            if msg.is_empty() {
                eprintln!("{}", usage());
                std::process::exit(0);
            }
            eprintln!("sweep: {msg}\n\n{}", usage());
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("merge") => run_merge(&args[1..]),
        Some("run") => {
            let opts = parse_or_die(&args[1..]);
            if opts.is_maintenance() {
                eprintln!(
                    "sweep: store maintenance is `sweep store compact|stats|export|import`, \
                     not a `run` flag\n\n{STORE_USAGE}"
                );
                std::process::exit(2);
            }
            if opts.plan.is_some() {
                eprintln!(
                    "sweep: planning is `sweep plan FILE`, not a `run` flag\n\n{}",
                    usage()
                );
                std::process::exit(2);
            }
            dispatch_run(&opts);
        }
        Some("plan") => {
            // `sweep plan FILE [grid flags] --shards N` — sugar over the
            // legacy `--plan FILE` grammar, sharing its conflict checks.
            let Some(file) = args.get(1).filter(|a| !a.starts_with("--")).cloned() else {
                eprintln!(
                    "sweep: `sweep plan` needs a manifest file to write\n\n{}",
                    usage()
                );
                std::process::exit(2);
            };
            let mut legacy = vec!["--plan".to_string(), file.clone()];
            legacy.extend(args[2..].iter().cloned());
            let opts = parse_or_die(&legacy);
            run_plan(&opts, &file);
        }
        Some("store") => run_store(&args[1..]),
        Some("query") => run_query(&args[1..]),
        Some("serve") => run_serve(&args[1..]),
        Some("trace") => run_trace(&args[1..]),
        // Deprecated alias grammar: the run/plan/store options as bare
        // top-level flags.  Kept silently working so existing scripts and
        // CI keep running; new scripts should use the subcommands.
        _ => {
            let opts = parse_or_die(&args);
            if opts.is_maintenance() {
                run_maintenance(&opts);
                return;
            }
            if let Some(path) = opts.plan.clone() {
                run_plan(&opts, &path);
                return;
            }
            dispatch_run(&opts);
        }
    }
}

/// The `run` path shared by `sweep run` and the legacy flag grammar.
fn dispatch_run(opts: &Options) {
    enable_observability(opts);
    if let Some(path) = opts.manifest.clone() {
        run_manifest_shard(opts, &path);
        return;
    }
    let grid = match GridSpec::parse(&opts.benchmarks, &opts.designs) {
        Ok(grid) => grid,
        Err(msg) => {
            eprintln!("sweep: {msg}");
            std::process::exit(2);
        }
    };
    let generator = scale_generator(&opts.scale).expect("scale validated at parse");

    match opts.shards {
        Some(shards) => run_coordinator(opts, &grid, &generator, shards),
        None => run_grid(opts, &grid, &generator, &opts.scale),
    }
}

/// `sweep store compact|stats|export FILE|import FILE [--cache-dir DIR]`.
fn run_store(args: &[String]) {
    let mut opts = parse_or_die(&[]);
    let mut it = args.iter();
    match it.next().map(String::as_str) {
        Some("compact") => opts.compact = true,
        Some("stats") => opts.cache_stats = true,
        Some("export") | Some("import") => {
            let action = args[0].as_str();
            let Some(file) = it.next().filter(|a| !a.starts_with("--")).cloned() else {
                eprintln!("sweep: `sweep store {action}` needs a bundle file\n\n{STORE_USAGE}");
                std::process::exit(2);
            };
            if action == "export" {
                opts.export_segments = Some(file);
            } else {
                opts.import_segments = Some(file);
            }
        }
        Some("--help") | Some("-h") => {
            eprintln!("{STORE_USAGE}");
            std::process::exit(0);
        }
        other => {
            let got = other.map_or_else(String::new, |o| format!(" (got `{o}`)"));
            eprintln!("sweep: `sweep store` needs an action{got}\n\n{STORE_USAGE}");
            std::process::exit(2);
        }
    }
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--cache-dir" => match it.next() {
                Some(dir) => opts.cache_dir = Some(dir.clone()),
                None => {
                    eprintln!("sweep: --cache-dir needs a value\n\n{STORE_USAGE}");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("sweep: unknown `sweep store` option `{other}`\n\n{STORE_USAGE}");
                std::process::exit(2);
            }
        }
    }
    run_maintenance(&opts);
}

/// `sweep query [FILTER …] --by METRIC [--top K] [--desc] …` — rank cached
/// results straight from the store's catalog, simulating nothing.
fn run_query(args: &[String]) {
    let mut filters: Vec<String> = Vec::new();
    let mut by: Option<String> = None;
    let mut top: Option<usize> = None;
    let mut descending = false;
    let mut out: Option<String> = None;
    let mut opts = parse_or_die(&[]);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("sweep query: {name} needs a value\n\n{}", query_usage());
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--by" => by = Some(value("--by")),
            "--top" => {
                let v = value("--top");
                top = Some(v.parse::<usize>().unwrap_or_else(|_| {
                    eprintln!("sweep query: bad --top `{v}`\n\n{}", query_usage());
                    std::process::exit(2);
                }));
            }
            "--desc" => descending = true,
            "--out" => out = Some(value("--out")),
            "--cache-dir" => opts.cache_dir = Some(value("--cache-dir")),
            "--trace-out" => opts.trace_out = Some(value("--trace-out")),
            "--metrics-out" => opts.metrics_out = Some(value("--metrics-out")),
            "--quiet" => opts.quiet = true,
            "--help" | "-h" => {
                eprintln!("{}", query_usage());
                std::process::exit(0);
            }
            flag if flag.starts_with("--") => {
                eprintln!("sweep query: unknown option `{flag}`\n\n{}", query_usage());
                std::process::exit(2);
            }
            filter => filters.push(filter.to_string()),
        }
    }
    let Some(by) = by else {
        eprintln!(
            "sweep query: a ranking metric (--by METRIC) is required\n\n{}",
            query_usage()
        );
        std::process::exit(2);
    };
    let query = match Query::parse(&filters, &by, top, descending) {
        Ok(q) => q,
        Err(msg) => {
            eprintln!("sweep query: {msg}\n\n{}", query_usage());
            std::process::exit(2);
        }
    };

    // Sinks on before the store opens, so index builds land in the trace.
    enable_observability(&opts);
    let root = cache_root(&opts);
    let store = match DiskStore::open(&root) {
        Ok(store) => store,
        Err(e) => {
            eprintln!("sweep: cannot open cache dir {}: {e}", root.display());
            std::process::exit(1);
        }
    };
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
    let mut sink = open_sink(out.as_ref());
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
    if !opts.quiet {
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
    write_obs_artifacts(&opts, Vec::new(), &[]);
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

fn run_serve(args: &[String]) {
    let mut dir: Option<String> = None;
    let mut addr = "127.0.0.1:7878".to_string();
    let mut workers = acmp_sweep::serve::DEFAULT_WORKERS;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("sweep serve: {name} needs a value\n\n{SERVE_USAGE}");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--dir" => dir = Some(value("--dir")),
            "--addr" => addr = value("--addr"),
            "--workers" => {
                let v = value("--workers");
                workers = v.parse::<usize>().unwrap_or_else(|_| {
                    eprintln!("sweep serve: bad --workers `{v}`\n\n{SERVE_USAGE}");
                    std::process::exit(2);
                });
            }
            "--help" | "-h" => {
                eprintln!("{SERVE_USAGE}");
                std::process::exit(0);
            }
            other => {
                eprintln!("sweep serve: unknown argument `{other}`\n\n{SERVE_USAGE}");
                std::process::exit(2);
            }
        }
    }
    let Some(dir) = dir else {
        eprintln!("sweep serve: --dir STORE is required\n\n{SERVE_USAGE}");
        std::process::exit(2);
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

/// Store maintenance modes: no grid, no engine.
fn run_maintenance(opts: &Options) {
    let root = cache_root(opts);
    let store = match DiskStore::open(&root) {
        Ok(store) => store,
        Err(e) => {
            eprintln!("sweep: cannot open cache dir {}: {e}", root.display());
            std::process::exit(1);
        }
    };
    if opts.compact {
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
        // generation (and carries fresh row/posting data if it was stale).
        match store.index_stats() {
            Ok(istats) if istats.files > 0 => match Catalog::open(&store) {
                Ok(catalog) => match catalog.persist(&store) {
                    Ok(_) => println!(
                        "rebuilt secondary index: {} rows, {} terms",
                        catalog.rows().len(),
                        catalog.terms(),
                    ),
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
    if let Some(path) = &opts.import_segments {
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
    if let Some(path) = &opts.export_segments {
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
            "index {}: files {}, rows {}, postings {}, buckets {}, {}",
            root.display(),
            istats.files,
            istats.rows,
            istats.postings,
            istats.buckets,
            istats.status.label(),
        ),
        Err(e) => {
            eprintln!("sweep: cannot inspect index under {}: {e}", root.display());
            std::process::exit(1);
        }
    }
}

/// `--plan FILE`: sign and write a shard manifest, run nothing.
fn run_plan(opts: &Options, path: &str) {
    let shards = opts.shards.unwrap_or(1);
    let manifest = match SweepManifest::plan(&opts.benchmarks, &opts.designs, &opts.scale, shards) {
        Ok(manifest) => manifest,
        Err(msg) => {
            eprintln!("sweep: {msg}");
            std::process::exit(2);
        }
    };
    let mut json = manifest.to_json();
    json.push('\n');
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("sweep: cannot write manifest {path}: {e}");
        std::process::exit(1);
    }
    eprintln!(
        "sweep: planned {} cells across {} shards at {} scale into {path} (digest {})",
        manifest.cells, manifest.shards, manifest.scale, manifest.digest,
    );
    for shard in ShardSpec::all(manifest.shards) {
        eprintln!(
            "sweep:   shard {shard} owns {} rows — run: sweep run --manifest {path} --shard {shard} --out shard-{}.jsonl",
            manifest.shard_schedule(shard).len(),
            shard.index() + 1,
        );
    }
}

/// `--manifest FILE --shard i/N`: validate, then run one shard of the plan.
fn run_manifest_shard(opts: &Options, path: &str) {
    let shard = opts.shard.expect("checked at parse");
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
    run_grid(opts, &grid, &generator, &manifest.scale);
}

/// Runs the grid (or one shard of it) in this process.  `scale` is the
/// display name of `generator`'s scale — `opts.scale` on the plain paths,
/// the manifest's scale on `--manifest` runs.
fn run_grid(opts: &Options, grid: &GridSpec, generator: &GeneratorConfig, scale: &str) {
    let shard = opts.shard.unwrap_or_else(ShardSpec::whole);
    let mut builder = SweepEngine::builder(*generator).shard(shard);
    if let Some(n) = opts.workers {
        builder = builder.workers(n);
    }
    let root = cache_root(opts);
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

    // One enumeration feeds everything: the owned-cell count below, the
    // jobs the engine runs, and — in the coordinator — the key schedule
    // the merge validates against, so the three can never drift apart.
    let jobs = grid.jobs();
    let total = if shard.is_whole() {
        jobs.len()
    } else {
        jobs.iter()
            .filter(|job| shard.owns(job.key(engine.generator()).digest()))
            .count()
    };

    let mut sink = open_sink(opts.out.as_ref());

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
    // what lets the coordinator's validated k-way merge reproduce the
    // unsharded bytes exactly.
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
    write_obs_artifacts(opts, Vec::new(), &[]);
}

/// Spawns `shards` child shard processes over one store and merges their
/// row streams into output byte-identical to an unsharded run.
fn run_coordinator(opts: &Options, grid: &GridSpec, generator: &GeneratorConfig, shards: u32) {
    let keys: Vec<JobKey> = grid.jobs().iter().map(|job| job.key(generator)).collect();
    let schedule = shard_key_schedule(&keys, shards);

    // Shards split the host between them instead of each sizing its pool
    // to the whole machine; the split never hands a child zero workers,
    // even with more shards than cores.
    let budget = opts
        .workers
        .unwrap_or_else(|| WorkStealingPool::host_sized().workers());
    let per_shard = split_worker_budget(budget, shards);

    let store_root = opts.disk_cache.then(|| cache_root(opts));
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

    acmp_obs::logline!(
        "sweep: {} benchmarks × {} designs = {} jobs across {shards} shard processes, {per_shard} workers each ({} scale{})",
        grid.benchmarks.len(),
        grid.designs.len(),
        grid.cells(),
        opts.scale,
        store_root
            .as_ref()
            .map(|root| format!(", cache {}", root.display()))
            .unwrap_or_else(|| ", no disk cache".to_string()),
    );

    let start = acmp_obs::Stopwatch::start();
    let mut children: Vec<(u32, std::process::Child, PathBuf)> = Vec::new();
    for i in 1..=shards {
        let out_path = shard_dir.join(format!("shard-{i}.jsonl"));
        let mut cmd = std::process::Command::new(&exe);
        cmd.arg("run")
            .arg("--benchmarks")
            .arg(&opts.benchmarks)
            .arg("--designs")
            .arg(&opts.designs)
            .arg("--scale")
            .arg(&opts.scale)
            .arg("--shard")
            .arg(format!("{i}/{shards}"))
            .arg("--workers")
            .arg(per_shard.to_string())
            .arg("--out")
            .arg(&out_path)
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
        if opts.trace_out.is_some() {
            cmd.arg("--trace-out")
                .arg(shard_dir.join(format!("trace-{i}.jsonl")));
        }
        if opts.metrics_out.is_some() {
            cmd.arg("--metrics-out")
                .arg(shard_dir.join(format!("metrics-{i}.json")));
        }
        match cmd.spawn() {
            Ok(child) => children.push((i, child, out_path)),
            Err(e) => {
                eprintln!("sweep: cannot spawn shard {i}/{shards}: {e}");
                for (_, child, _) in &mut children {
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
    for (i, child, _) in &mut children {
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
        for (i, child, _) in &mut children {
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

    let mut streams = Vec::with_capacity(children.len());
    for (i, _, path) in &children {
        match std::fs::File::open(path) {
            Ok(f) => streams.push(std::io::BufReader::new(f)),
            Err(e) => {
                eprintln!(
                    "sweep: shard {i}/{shards} left no row stream at {}: {e}",
                    path.display()
                );
                let _ = std::fs::remove_dir_all(&shard_dir);
                std::process::exit(1);
            }
        }
    }

    // Merge into memory first: the merge validates every stream against
    // the expected key schedule, and the `--out` target (possibly a
    // previous run's good output) must not even be opened — let alone
    // truncated — unless every stream checked out.  Any error down here is
    // a read-side failure (corrupt stream or shard-file I/O): report it
    // and keep the shard streams on disk for post-mortem.
    let mut merged: Vec<u8> = Vec::new();
    let rows = match merge_shard_streams(streams, &schedule, &mut merged) {
        Ok(rows) => rows,
        Err(e @ MergeError::Corrupt { .. }) => {
            eprintln!("sweep: merge failed: {e}");
            eprintln!("sweep: shard streams kept in {}", shard_dir.display());
            std::process::exit(1);
        }
        Err(MergeError::Io(e)) => {
            eprintln!("sweep: reading a shard stream failed: {e}");
            eprintln!("sweep: shard streams kept in {}", shard_dir.display());
            std::process::exit(1);
        }
    };

    // Fold the children's observability artifacts in *before* the shard
    // directory goes away.  A child that ran can't have skipped writing
    // them, so an unreadable artifact is a real failure — report it and
    // keep the directory for post-mortem.
    let mut child_events: Vec<serde::Value> = Vec::new();
    let mut child_metrics: Vec<acmp_obs::MetricsSnapshot> = Vec::new();
    for i in 1..=shards {
        if opts.trace_out.is_some() {
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
        if opts.metrics_out.is_some() {
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

    let mut sink = open_sink(opts.out.as_ref());
    if let Err(e) = sink.write_all(&merged).and_then(|()| sink.flush()) {
        die_on_write_error(&e);
    }
    acmp_obs::logline!(
        "sweep: merged {shards} shard streams — {rows} rows in {:.2}s",
        start.elapsed_secs()
    );
    write_obs_artifacts(opts, child_events, &child_metrics);
}

/// `sweep merge`: recombine gathered per-shard JSONL files offline.
fn run_merge(args: &[String]) {
    let mut manifest_path: Option<String> = None;
    let mut out: Option<String> = None;
    let mut files: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| match it.next() {
            Some(v) => v.clone(),
            None => {
                eprintln!("sweep merge: {name} needs a value\n\n{MERGE_USAGE}");
                std::process::exit(2);
            }
        };
        match arg.as_str() {
            "--manifest" => manifest_path = Some(value("--manifest")),
            "--out" => out = Some(value("--out")),
            "--help" | "-h" => {
                eprintln!("{MERGE_USAGE}");
                std::process::exit(0);
            }
            flag if flag.starts_with("--") => {
                eprintln!("sweep merge: unknown option `{flag}`\n\n{MERGE_USAGE}");
                std::process::exit(2);
            }
            file => files.push(file.to_string()),
        }
    }
    let Some(manifest_path) = manifest_path else {
        eprintln!("sweep merge: a --manifest is required\n\n{MERGE_USAGE}");
        std::process::exit(2);
    };
    let manifest = match SweepManifest::load(&manifest_path) {
        Ok(manifest) => manifest,
        Err(msg) => {
            eprintln!("sweep merge: {msg}");
            std::process::exit(1);
        }
    };
    if files.len() > manifest.schedule.len() {
        eprintln!(
            "sweep merge: {} shard files supplied for a {}-shard plan",
            files.len(),
            manifest.shards
        );
        std::process::exit(2);
    }

    // Validate every stream before writing anything, so one pass reports
    // *all* the missing / short / corrupt shards — the operator re-runs the
    // stragglers named here, not one per attempt.
    let mut buffered: Vec<Vec<String>> = Vec::with_capacity(manifest.schedule.len());
    let mut unusable = 0u32;
    for (i, schedule) in manifest.schedule.iter().enumerate() {
        let slot = ShardSpec::all(manifest.shards)
            .nth(i)
            .expect("schedule length was verified");
        // Slot i is argument i, unconditionally — even a shard that owns
        // nothing needs its (empty) file supplied, because accepting an
        // omitted middle slot would silently shift every later file into
        // the wrong slot and misattribute the resulting failures.
        let outcome: Result<Vec<String>, String> = match files.get(i) {
            None => Err(format!(
                "missing — no stream supplied for its {} scheduled rows; run: sweep run \
                 --manifest {manifest_path} --shard {slot} --out shard-{}.jsonl",
                schedule.len(),
                i + 1,
            )),
            Some(path) => match std::fs::File::open(path) {
                Err(e) => Err(format!("missing — cannot open {path}: {e}")),
                Ok(file) => {
                    match validate_shard_stream(i + 1, std::io::BufReader::new(file), schedule) {
                        Ok(rows) => Ok(rows),
                        Err(MergeError::Io(e)) => Err(format!("unreadable — {path}: {e}")),
                        Err(MergeError::Corrupt { message, .. }) => {
                            let kind = if message.contains("truncated") {
                                "short"
                            } else {
                                "corrupt"
                            };
                            Err(format!("{kind} — {message} ({path}); re-run this shard"))
                        }
                    }
                }
            },
        };
        match outcome {
            Ok(rows) => {
                eprintln!(
                    "sweep merge: shard {slot}: ok — {} of {} scheduled rows",
                    rows.len(),
                    schedule.len()
                );
                buffered.push(rows);
            }
            Err(msg) => {
                eprintln!("sweep merge: shard {slot}: {msg}");
                unusable += 1;
                buffered.push(Vec::new());
            }
        }
    }
    if unusable > 0 {
        eprintln!(
            "sweep merge: {unusable} of {} shard streams unusable; wrote nothing",
            manifest.shards
        );
        std::process::exit(1);
    }

    // Every stream checked out; only now may the sink be opened.
    let mut merged: Vec<u8> = Vec::new();
    let rows = merge_validated(&buffered, &mut merged).expect("writing to memory cannot fail");
    let mut sink = open_sink(out.as_ref());
    if let Err(e) = sink.write_all(&merged).and_then(|()| sink.flush()) {
        die_on_write_error(&e);
    }
    eprintln!(
        "sweep merge: merged {} shard streams — {rows} rows, byte-identical to an unsharded run",
        manifest.shards
    );
}
