//! Sweep jobs and their content-addressed keys.

use crate::design_point::DesignPoint;
use acmp_store::stable_hash;
use hpc_workloads::{Benchmark, GeneratorConfig};
use serde_json::json;
use std::collections::HashMap;

/// One unit of work: simulate `benchmark` on `design`.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepJob {
    /// The workload to simulate.
    pub benchmark: Benchmark,
    /// The machine configuration to simulate it on.
    pub design: DesignPoint,
}

impl SweepJob {
    /// Builds the content-addressed key of this job under `generator`.
    #[must_use]
    pub fn key(&self, generator: &GeneratorConfig) -> JobKey {
        JobKey::new(generator, self.benchmark, &self.design)
    }
}

impl std::fmt::Display for SweepJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} × {}", self.benchmark, self.design)
    }
}

/// Content-addressed identity of a simulation: the canonical JSON encoding
/// of (generator config, benchmark, full design point).
///
/// Earlier revisions keyed the result cache on `(Benchmark, String)` using
/// [`DesignPoint::name`], which is lossy — two distinct points with the same
/// label would silently collide.  A `JobKey` hashes and compares the
/// *entire* canonical serialized form, so distinct points can never alias,
/// and the digest doubles as the on-disk store filename.
#[derive(Debug, Clone)]
pub struct JobKey {
    canonical: String,
    digest: u64,
}

impl JobKey {
    /// Derives the key for simulating `benchmark` on `design` with traces
    /// from `generator`.
    #[must_use]
    pub fn new(generator: &GeneratorConfig, benchmark: Benchmark, design: &DesignPoint) -> Self {
        Self::from_parts(
            &stable_hash::canonical_json(generator),
            benchmark,
            &stable_hash::canonical_json(design),
        )
    }

    /// Derives the key from the canonical JSON of its generator and design
    /// (as [`stable_hash::canonical_json`] renders them), so a grid renders
    /// each part once rather than once per cell.  The canonical form is
    /// `{"generator":…,"benchmark":…,"design":…}`, the same bytes
    /// [`new`](Self::new) hashes.
    #[must_use]
    pub fn from_parts(generator_json: &str, benchmark: Benchmark, design_json: &str) -> Self {
        let mut canonical = String::with_capacity(generator_json.len() + design_json.len() + 64);
        canonical.push_str("{\"generator\":");
        canonical.push_str(generator_json);
        canonical.push_str(",\"benchmark\":");
        serde_json::to_value(&benchmark).write_json(&mut canonical);
        canonical.push_str(",\"design\":");
        canonical.push_str(design_json);
        canonical.push('}');
        let digest = stable_hash::fnv1a(canonical.as_bytes());
        JobKey { canonical, digest }
    }

    /// Derives the keys of `jobs` under `generator`, in order, rendering
    /// the generator once and each distinct design once.
    #[must_use]
    pub fn for_jobs(generator: &GeneratorConfig, jobs: &[SweepJob]) -> Vec<Self> {
        let generator_json = stable_hash::canonical_json(generator);
        let mut designs: HashMap<&DesignPoint, String> = HashMap::new();
        jobs.iter()
            .map(|job| {
                let design_json = designs
                    .entry(&job.design)
                    .or_insert_with(|| stable_hash::canonical_json(&job.design));
                Self::from_parts(&generator_json, job.benchmark, design_json)
            })
            .collect()
    }

    /// Derives the key of the *trace set* of `benchmark` (as produced by
    /// `generator`).  Traces are design-agnostic, so the key deliberately
    /// carries no design point; the `kind` marker keeps the canonical form
    /// disjoint from every simulation-result key.
    ///
    /// The engine keeps trace sets in memory and never derives this key.
    /// Older stores may hold records under it, and perfbench's traced run
    /// times a trace-set append with it.
    #[must_use]
    pub fn for_traces(generator: &GeneratorConfig, benchmark: Benchmark) -> Self {
        let canonical = stable_hash::canonical_json(&json!({
            "kind": "traces",
            "generator": generator,
            "benchmark": benchmark,
        }));
        let digest = stable_hash::fnv1a(canonical.as_bytes());
        JobKey { canonical, digest }
    }

    /// The canonical JSON this key was derived from.
    #[must_use]
    pub fn canonical(&self) -> &str {
        &self.canonical
    }

    /// The 64-bit stable digest of the canonical form.
    #[must_use]
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// The digest as the fixed-width hex string used for store filenames
    /// and JSONL `key` columns.
    #[must_use]
    pub fn hex(&self) -> String {
        stable_hash::hex(self.digest)
    }
}

/// Lets a `JobKey` address the store directly (its canonical form is the
/// `{"generator":…}` shape the store's catalog recognises as a result key).
impl acmp_store::StoreKey for JobKey {
    fn canonical(&self) -> &str {
        self.canonical()
    }

    fn digest(&self) -> u64 {
        self.digest()
    }
}

/// One slice of the job keyspace, for multi-process sweeps.
///
/// Shards partition jobs by `digest % count`.  The digest is the stable
/// FNV-1a content hash of the canonical job key, so every process — on any
/// machine — agrees on which shard owns a job without any coordination,
/// and the union of all `count` shards covers the keyspace exactly once:
/// no cell is ever simulated twice across a sharded run.
///
/// The CLI grammar is `i/N` with 1-based `i` (`--shard 2/3` is the second
/// of three shards); internally the index is 0-based.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    index: u32,
    count: u32,
}

impl ShardSpec {
    /// The trivial single-shard spec that owns every job.
    #[must_use]
    pub fn whole() -> Self {
        ShardSpec { index: 0, count: 1 }
    }

    /// Shard `index` (0-based) of `count`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when `count` is zero or `index` is
    /// out of range.
    pub fn new(index: u32, count: u32) -> Result<Self, String> {
        if count == 0 {
            return Err("shard count must be ≥ 1".to_string());
        }
        if index >= count {
            return Err(format!(
                "shard index {index} out of range for {count} shards"
            ));
        }
        Ok(ShardSpec { index, count })
    }

    /// Parses the CLI grammar `i/N` with 1-based `i` (e.g. `2/3`).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for anything that is not `i/N`
    /// with `1 ≤ i ≤ N`.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let (index, count) = spec
            .split_once('/')
            .ok_or_else(|| format!("expected `i/N`, got `{spec}`"))?;
        let index: u32 = index
            .parse()
            .map_err(|_| format!("bad shard index in `{spec}`"))?;
        let count: u32 = count
            .parse()
            .map_err(|_| format!("bad shard count in `{spec}`"))?;
        if index == 0 {
            return Err(format!("shard index is 1-based, got `{spec}`"));
        }
        Self::new(index - 1, count)
    }

    /// The 0-based shard index.
    #[must_use]
    pub fn index(&self) -> u32 {
        self.index
    }

    /// How many shards the keyspace is split into.
    #[must_use]
    pub fn count(&self) -> u32 {
        self.count
    }

    /// Whether this is the trivial 1-of-1 spec owning everything.
    #[must_use]
    pub fn is_whole(&self) -> bool {
        self.count == 1
    }

    /// Whether this shard owns the job with the given stable digest.
    #[must_use]
    pub fn owns(&self, digest: u64) -> bool {
        digest % u64::from(self.count) == u64::from(self.index)
    }

    /// All `count` shards of a `count`-way split, in index order — the
    /// canonical enumeration used by schedules, manifests and coordinators.
    /// A zero `count` yields nothing.
    pub fn all(count: u32) -> impl Iterator<Item = ShardSpec> {
        (0..count).map(move |index| ShardSpec { index, count })
    }
}

impl std::fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index + 1, self.count)
    }
}

// Equality and hashing go through the full canonical form, not the digest:
// a (vanishingly unlikely) digest collision must not merge two distinct
// jobs in the in-memory cache.
impl PartialEq for JobKey {
    fn eq(&self, other: &Self) -> bool {
        self.canonical == other.canonical
    }
}

impl Eq for JobKey {}

impl std::hash::Hash for JobKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Feed the precomputed stable digest; cheaper than rehashing the
        // canonical string and just as well distributed.
        state.write_u64(self.digest);
    }
}

impl std::fmt::Display for JobKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.hex())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generator() -> GeneratorConfig {
        GeneratorConfig::small()
    }

    #[test]
    fn equal_inputs_give_equal_keys() {
        let a = JobKey::new(&generator(), Benchmark::Cg, &DesignPoint::baseline());
        let b = JobKey::new(&generator(), Benchmark::Cg, &DesignPoint::baseline());
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.hex(), b.hex());
    }

    #[test]
    fn same_name_different_parameters_do_not_collide() {
        // The historical failure mode: identical labels, different machines.
        let mut a = DesignPoint::baseline();
        let mut b = DesignPoint::baseline();
        a.name = "point".to_string();
        b.name = "point".to_string();
        b.icache_bytes = 16 * 1024;
        let ka = JobKey::new(&generator(), Benchmark::Cg, &a);
        let kb = JobKey::new(&generator(), Benchmark::Cg, &b);
        assert_ne!(ka, kb, "lossy name-based keys must not come back");
    }

    #[test]
    fn key_covers_generator_and_benchmark() {
        let design = DesignPoint::proposed();
        let base = JobKey::new(&generator(), Benchmark::Cg, &design);
        let other_bench = JobKey::new(&generator(), Benchmark::Lu, &design);
        let other_gen = JobKey::new(&generator().with_seed(99), Benchmark::Cg, &design);
        assert_ne!(base, other_bench);
        assert_ne!(base, other_gen);
    }

    #[test]
    fn keys_rendered_from_parts_are_the_canonical_json_of_the_job() {
        let mut designs: Vec<DesignPoint> = (7..=13)
            .flat_map(|n| crate::grid::figure_designs(&format!("fig{n:02}")).expect("a preset"))
            .collect();
        designs.extend(
            crate::GridSpec::parse("cg", "naive:2,shared:16:4:single")
                .unwrap()
                .designs,
        );
        for generator in [
            GeneratorConfig::quick(),
            GeneratorConfig::paper(),
            GeneratorConfig::small(),
        ] {
            let generator_json = stable_hash::canonical_json(&generator);
            let mut jobs = Vec::new();
            for benchmark in Benchmark::ALL {
                for design in &designs {
                    let reference = stable_hash::canonical_json(&json!({
                        "generator": generator,
                        "benchmark": benchmark,
                        "design": design,
                    }));
                    let key = JobKey::new(&generator, benchmark, design);
                    assert_eq!(key.canonical(), reference);
                    assert_eq!(key.digest(), stable_hash::fnv1a(reference.as_bytes()));
                    let design_json = stable_hash::canonical_json(design);
                    let parts = JobKey::from_parts(&generator_json, benchmark, &design_json);
                    assert_eq!(parts.canonical(), reference);
                    assert_eq!(parts.digest(), key.digest());
                    jobs.push(SweepJob {
                        benchmark,
                        design: design.clone(),
                    });
                }
            }
            let keys: Vec<JobKey> = jobs.iter().map(|job| job.key(&generator)).collect();
            assert_eq!(JobKey::for_jobs(&generator, &jobs), keys);
        }
    }

    #[test]
    fn trace_keys_never_collide_with_result_keys() {
        let design = DesignPoint::baseline();
        let result = JobKey::new(&generator(), Benchmark::Cg, &design);
        let traces = JobKey::for_traces(&generator(), Benchmark::Cg);
        assert_ne!(result, traces);
        assert_ne!(
            JobKey::for_traces(&generator(), Benchmark::Cg),
            JobKey::for_traces(&generator(), Benchmark::Lu)
        );
        assert_ne!(
            JobKey::for_traces(&generator(), Benchmark::Cg),
            JobKey::for_traces(&generator().with_seed(99), Benchmark::Cg)
        );
        assert_eq!(
            JobKey::for_traces(&generator(), Benchmark::Cg),
            JobKey::for_traces(&generator(), Benchmark::Cg)
        );
    }

    #[test]
    fn shard_specs_parse_the_cli_grammar() {
        let s = ShardSpec::parse("2/3").unwrap();
        assert_eq!((s.index(), s.count()), (1, 3));
        assert_eq!(s.to_string(), "2/3");
        assert!(!s.is_whole());
        assert_eq!(ShardSpec::parse("1/1").unwrap(), ShardSpec::whole());
        assert!(ShardSpec::whole().is_whole());
        for bad in ["0/3", "4/3", "1-3", "x/3", "1/x", "1/0", "", "2/"] {
            assert!(ShardSpec::parse(bad).is_err(), "`{bad}` must not parse");
        }
    }

    #[test]
    fn all_enumerates_every_shard_in_index_order() {
        let shards: Vec<ShardSpec> = ShardSpec::all(3).collect();
        assert_eq!(shards.len(), 3);
        for (i, shard) in shards.iter().enumerate() {
            assert_eq!(shard.index(), u32::try_from(i).unwrap());
            assert_eq!(shard.count(), 3);
        }
        assert_eq!(ShardSpec::all(0).count(), 0);
        assert_eq!(ShardSpec::all(1).next(), Some(ShardSpec::whole()));
    }

    #[test]
    fn every_digest_is_owned_by_exactly_one_shard() {
        for count in [1u32, 2, 3, 7] {
            for digest in [0u64, 1, 41, 0xdead_beef, u64::MAX] {
                let owners = (0..count)
                    .filter(|&i| ShardSpec::new(i, count).unwrap().owns(digest))
                    .count();
                assert_eq!(owners, 1, "digest {digest:#x} across {count} shards");
            }
        }
    }

    #[test]
    fn hex_is_filename_safe() {
        let k = JobKey::new(&generator(), Benchmark::Cg, &DesignPoint::baseline());
        assert_eq!(k.hex().len(), 16);
        assert!(k.hex().chars().all(|c| c.is_ascii_hexdigit()));
        assert_eq!(k.to_string(), k.hex());
    }
}
