//! Grid specifications for the `sweep` CLI.
//!
//! A grid is `benchmarks × design points`, each side given as a
//! comma-separated spec string:
//!
//! * benchmarks — `all`, `quick` (the six-workload CI subset), or a comma
//!   list of benchmark names (`cg,lu,ua`);
//! * designs — any mix of named points and generators:
//!   * `baseline`, `proposed`, `all-shared`, `all-shared-single`,
//!     `worker-shared-32k`
//!   * `naive:2` — naive sharing with the given cores-per-cache degree
//!   * `lb:8` — the baseline with the given number of line buffers
//!   * `shared:16:4:double` — cpc = 8 sharing with `<KiB>:<line
//!     buffers>:<single|double>`
//!   * `figNN` presets (`fig07` … `fig13`) — exactly the design list the
//!     corresponding paper figure sweeps ([`figure_designs`]).

use crate::design_point::DesignPoint;
use crate::design_point::DesignPointError;
use crate::job::SweepJob;
use acmp_store::stable_hash;
use hpc_workloads::Benchmark;
use sim_acmp::BusWidth;
use std::collections::HashSet;

/// A parsed `benchmarks × designs` grid.
#[derive(Debug, Clone, PartialEq)]
pub struct GridSpec {
    /// The benchmarks to sweep.
    pub benchmarks: Vec<Benchmark>,
    /// The design points to sweep.
    pub designs: Vec<DesignPoint>,
}

impl GridSpec {
    /// Parses a grid from benchmark and design spec strings.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the offending token.
    pub fn parse(benchmarks: &str, designs: &str) -> Result<Self, String> {
        let grid = GridSpec {
            benchmarks: parse_benchmarks(benchmarks)?,
            designs: parse_designs(designs)?,
        };
        if grid.benchmarks.is_empty() {
            return Err("benchmark spec selects nothing".to_string());
        }
        if grid.designs.is_empty() {
            return Err("design spec selects nothing".to_string());
        }
        Ok(grid)
    }

    /// Number of (benchmark, design) cells.
    #[must_use]
    pub fn cells(&self) -> usize {
        self.benchmarks.len() * self.designs.len()
    }

    /// The grid's cells as an explicit benchmark-major job list — the same
    /// order [`SweepEngine::run_grid`](crate::SweepEngine::run_grid)
    /// schedules.  This is how the sharded CLI computes, without running
    /// anything, which cells each shard owns and which keys its row stream
    /// must carry.
    #[must_use]
    pub fn jobs(&self) -> Vec<SweepJob> {
        self.benchmarks
            .iter()
            .flat_map(|&benchmark| {
                self.designs.iter().map(move |design| SweepJob {
                    benchmark,
                    design: design.clone(),
                })
            })
            .collect()
    }
}

/// The six-workload subset used by quick/CI runs.  This is the single
/// definition: the `figures` binary's quick scale delegates here.
#[must_use]
pub fn quick_benchmarks() -> Vec<Benchmark> {
    vec![
        Benchmark::Cg,
        Benchmark::Lu,
        Benchmark::Ua,
        Benchmark::CoEvp,
        Benchmark::CoMd,
        Benchmark::Lulesh,
    ]
}

fn parse_benchmarks(spec: &str) -> Result<Vec<Benchmark>, String> {
    match spec {
        "all" => Ok(Benchmark::ALL.to_vec()),
        "quick" => Ok(quick_benchmarks()),
        list => list
            .split(',')
            .filter(|t| !t.is_empty())
            .map(|token| {
                Benchmark::from_name(token)
                    .ok_or_else(|| format!("unknown benchmark `{token}` (try `all` or `quick`)"))
            })
            .collect(),
    }
}

fn parse_designs(spec: &str) -> Result<Vec<DesignPoint>, String> {
    let mut designs = Vec::new();
    for token in spec.split(',').filter(|t| !t.is_empty()) {
        designs.extend(parse_design_token(token)?);
    }
    // A preset plus an explicit point may both name the baseline; keep the
    // first occurrence of each distinct point.  Identity is the point's
    // canonical serialized form — the same content the job key hashes — so
    // the dedup is a hashed O(n) pass; the old `Vec::contains` scan over
    // full struct equality was O(n²), which generator tokens like `naive:8`
    // stacked with large `shared:` grids turned into real parse time.
    let mut seen: HashSet<String> = HashSet::with_capacity(designs.len());
    let mut deduped: Vec<DesignPoint> = Vec::with_capacity(designs.len());
    for d in designs {
        if seen.insert(stable_hash::canonical_json(&d)) {
            deduped.push(d);
        }
    }
    Ok(deduped)
}

/// The design list paper figure `id` (`fig07` … `fig13`) sweeps, in the
/// order its table reads the columns; `None` for any other id.  This is the
/// one definition of each list: the `figNN` design-spec presets parse from
/// it, and `shared_icache::figures` computes each grid figure over it.
#[must_use]
pub fn figure_designs(id: &str) -> Option<Vec<DesignPoint>> {
    // Presets use statically known-good parameters, so the fallible
    // constructors cannot fail here.
    // acmp-lint: allow(unwrap-in-lib) -- preset constructor arguments are compile-time constants
    let naive = |cpc| DesignPoint::naive_shared(cpc).expect("preset cpc is valid");
    // acmp-lint: allow(unwrap-in-lib) -- preset constructor arguments are compile-time constants
    let shared = |kib, lb, bus| DesignPoint::shared(kib, lb, bus).expect("preset size is valid");
    let lb = |n| {
        DesignPoint::baseline()
            .with_line_buffers(n)
            // acmp-lint: allow(unwrap-in-lib) -- preset constructor arguments are compile-time constants
            .expect("preset line-buffer count is valid")
    };
    let designs = match id {
        "fig07" => vec![DesignPoint::baseline(), naive(2), naive(4), naive(8)],
        "fig08" => vec![DesignPoint::baseline(), naive(8)],
        "fig09" => vec![lb(2), lb(4), lb(8)],
        "fig10" => vec![
            DesignPoint::baseline(),
            shared(16, 4, BusWidth::Single),
            shared(16, 8, BusWidth::Single),
            shared(16, 4, BusWidth::Double),
        ],
        "fig11" => vec![
            DesignPoint::baseline(),
            shared(32, 4, BusWidth::Double),
            shared(16, 4, BusWidth::Double),
        ],
        "fig12" => vec![
            DesignPoint::baseline(),
            shared(16, 4, BusWidth::Single),
            shared(16, 4, BusWidth::Double),
            shared(16, 8, BusWidth::Single),
            shared(16, 8, BusWidth::Double),
        ],
        "fig13" => vec![
            DesignPoint::worker_shared_32k_double(),
            DesignPoint::all_shared(),
            DesignPoint::all_shared_single_bus(),
        ],
        _ => return None,
    };
    Some(designs)
}

fn parse_design_token(token: &str) -> Result<Vec<DesignPoint>, String> {
    if let Some(points) = figure_designs(token) {
        return Ok(points);
    }

    // Named single points.
    let named = match token {
        "baseline" => Some(DesignPoint::baseline()),
        "proposed" => Some(DesignPoint::proposed()),
        "all-shared" => Some(DesignPoint::all_shared()),
        "all-shared-single" => Some(DesignPoint::all_shared_single_bus()),
        "worker-shared-32k" => Some(DesignPoint::worker_shared_32k_double()),
        _ => None,
    };
    if let Some(point) = named {
        return Ok(vec![point]);
    }

    // Parameterised generators.  Validation lives in the `DesignPoint`
    // constructors; parsing only turns tokens into numbers and maps the
    // typed [`DesignPointError`] onto the offending spec token.
    let in_token = |e: DesignPointError| format!("{e} in `{token}`");
    let parts: Vec<&str> = token.split(':').collect();
    match parts.as_slice() {
        ["naive", cpc] => {
            let cpc: usize = cpc
                .parse()
                .map_err(|_| format!("bad cores-per-cache in `{token}`"))?;
            Ok(vec![DesignPoint::naive_shared(cpc).map_err(in_token)?])
        }
        ["lb", n] => {
            let n: usize = n
                .parse()
                .map_err(|_| format!("bad line-buffer count in `{token}`"))?;
            Ok(vec![DesignPoint::baseline()
                .with_line_buffers(n)
                .map_err(in_token)?])
        }
        ["shared", kib, lb, bus] => {
            let kib: u64 = kib
                .parse()
                .map_err(|_| format!("bad cache size in `{token}`"))?;
            let lb: usize = lb
                .parse()
                .map_err(|_| format!("bad line-buffer count in `{token}`"))?;
            let bus = match *bus {
                "single" => BusWidth::Single,
                "double" => BusWidth::Double,
                other => return Err(format!("bad bus width `{other}` in `{token}`")),
            };
            Ok(vec![DesignPoint::shared(kib, lb, bus).map_err(in_token)?])
        }
        _ => Err(format!(
            "unknown design spec `{token}` (named point, `naive:N`, `lb:N`, \
             `shared:KiB:LB:single|double`, or a `figNN` preset)"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_specs_parse() {
        assert_eq!(parse_benchmarks("all").unwrap().len(), 24);
        assert_eq!(parse_benchmarks("quick").unwrap().len(), 6);
        assert_eq!(
            parse_benchmarks("cg,lu").unwrap(),
            vec![Benchmark::Cg, Benchmark::Lu]
        );
        assert!(parse_benchmarks("nonsense").is_err());
    }

    #[test]
    fn design_specs_parse() {
        let d = parse_designs("baseline,proposed").unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(d[0], DesignPoint::baseline());
        assert_eq!(d[1], DesignPoint::proposed());

        let d = parse_designs("naive:4").unwrap();
        assert_eq!(d, vec![DesignPoint::naive_shared(4).unwrap()]);

        let d = parse_designs("shared:16:8:double").unwrap();
        assert_eq!(
            d,
            vec![DesignPoint::shared(16, 8, BusWidth::Double).unwrap()]
        );

        assert!(parse_designs("shared:16:8:triple").is_err());
        assert!(parse_designs("mystery").is_err());
        assert!(parse_designs("lb:0").is_err());
    }

    #[test]
    fn overflowing_cache_sizes_are_rejected_not_wrapped() {
        // u64::MAX parses as a KiB count but wraps when scaled to bytes;
        // that must be a parse error, never a silently tiny cache.
        let huge = format!("shared:{}:4:double", u64::MAX);
        let err = parse_designs(&huge).unwrap_err();
        assert!(err.contains("overflows"), "{err}");
        // The largest non-wrapping size still parses.
        let max_ok = format!("shared:{}:4:double", u64::MAX / 1024);
        assert!(parse_designs(&max_ok).is_ok());
    }

    #[test]
    fn presets_match_the_figures() {
        assert_eq!(parse_designs("fig07").unwrap().len(), 4);
        assert_eq!(parse_designs("fig09").unwrap().len(), 3);
        assert_eq!(parse_designs("fig12").unwrap().len(), 5);
        // fig09 sweeps line buffers on the baseline.
        let d = parse_designs("fig09").unwrap();
        assert_eq!(d[0].line_buffers, 2);
        assert_eq!(d[2].line_buffers, 8);
    }

    #[test]
    fn duplicate_points_are_deduplicated() {
        // fig10 and fig12 share three points; the union keeps one copy each.
        let merged = parse_designs("fig10,fig12").unwrap();
        let fig10 = parse_designs("fig10").unwrap();
        let fig12 = parse_designs("fig12").unwrap();
        assert!(merged.len() < fig10.len() + fig12.len());
        for d in fig10.iter().chain(&fig12) {
            assert!(merged.contains(d));
        }
    }

    #[test]
    fn generator_tokens_dedup_against_presets_and_named_points() {
        // `naive:8` re-derives a fig07 member, `shared:16:4:double` is
        // `proposed` — the hashed dedup must fold them like the old scan.
        let d = parse_designs("fig07,naive:8,proposed,shared:16:4:double").unwrap();
        assert_eq!(d.len(), 5, "{d:?}");
        // Repeated identical tokens collapse to one point.
        assert_eq!(parse_designs("lb:8,lb:8,lb:8").unwrap().len(), 1);
        // Near-duplicates differing in any field survive.
        assert_eq!(
            parse_designs("shared:16:4:double,shared:16:4:single")
                .unwrap()
                .len(),
            2
        );
    }

    #[test]
    fn grid_reports_cell_count() {
        let g = GridSpec::parse("cg,lu", "fig09").unwrap();
        assert_eq!(g.cells(), 6);
        assert!(GridSpec::parse("", "fig09").is_err());
    }

    #[test]
    fn jobs_enumerate_cells_benchmark_major() {
        let g = GridSpec::parse("cg,lu", "baseline,proposed").unwrap();
        let jobs = g.jobs();
        assert_eq!(jobs.len(), g.cells());
        let cells: Vec<(Benchmark, &str)> = jobs
            .iter()
            .map(|j| (j.benchmark, j.design.name.as_str()))
            .collect();
        assert_eq!(
            cells,
            vec![
                (Benchmark::Cg, "baseline"),
                (Benchmark::Cg, "cpc8-16K-4lb-double"),
                (Benchmark::Lu, "baseline"),
                (Benchmark::Lu, "cpc8-16K-4lb-double"),
            ]
        );
    }
}
