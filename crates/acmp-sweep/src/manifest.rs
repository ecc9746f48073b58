//! Signed shard manifests: the coordination artifact of every sharded
//! sweep.
//!
//! Every split of a grid runs from a manifest, on one host or many.
//! `sweep run --shards N` plans one into its scratch directory and runs
//! its children against it; across machines each host runs its own
//! invocation, possibly from a differently built binary, and the merge
//! happens later, offline, wherever the per-shard JSONL files were
//! gathered.  The manifest is the contract that survives that split:
//!
//! * `sweep plan plan.json --grid … --shards N` captures the grid spec,
//!   trace scale, shard count and — most importantly — the **expected key
//!   schedule** of every shard: exactly the digest-ordered hex job keys
//!   that shard's row stream must carry;
//! * each shard runs `sweep run --manifest plan.json --shard i/N`, which
//!   re-derives the schedule from the manifest's grid spec *with its own
//!   binary* and refuses to simulate if the two disagree (catching version
//!   drift in key derivation, design presets or trace configs before any
//!   cycles are burned);
//! * `sweep merge --manifest plan.json shard-*.jsonl` validates every
//!   stream against its scheduled keys and reproduces the byte-exact
//!   unsharded output.
//!
//! The manifest is *signed* in the lightweight integrity sense: a
//! fixed-order FNV-1a digest over every semantic field.  Any edit — a
//! truncated download, a hand-tweaked shard count, a re-ordered schedule —
//! breaks the digest and is rejected at load, so a shard can never
//! silently run against a damaged plan.

use crate::grid::GridSpec;
use crate::job::{JobKey, ShardSpec};
use crate::merge::shard_key_schedule;
use acmp_store::stable_hash;
use hpc_workloads::GeneratorConfig;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::path::Path;

/// Manifest format version this binary reads and writes.
pub const MANIFEST_FORMAT_VERSION: u32 = 1;

/// A signed execution plan for one grid split into `shards` slices.
///
/// The grid travels as the original *spec strings*, not as expanded design
/// lists: every machine re-parses them and re-derives the job keys, and the
/// recomputed schedule must match the one recorded here
/// ([`validate_grid`](Self::validate_grid)) — so agreement is checked
/// against what each binary would actually simulate, not just against what
/// the planner wrote down.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepManifest {
    /// Manifest format version ([`MANIFEST_FORMAT_VERSION`]).
    pub format: u32,
    /// The `--benchmarks` spec string the grid was planned from.
    pub benchmarks: String,
    /// The `--designs` spec string the grid was planned from.
    pub designs: String,
    /// Trace scale (`quick` or `paper`).
    pub scale: String,
    /// How many shards the keyspace is split into.
    pub shards: u32,
    /// Total grid cells (= total scheduled keys across all shards).
    pub cells: u64,
    /// Per-shard expected key schedule: element `i` holds the sorted hex
    /// job keys shard `i+1/shards` owns — the exact row order its JSONL
    /// stream must follow.
    pub schedule: Vec<Vec<String>>,
    /// FNV-1a digest (fixed-width hex) over every field above, in fixed
    /// order.  Recomputed and checked at every load.
    pub digest: String,
}

/// Maps a `--scale` name to the trace-generator configuration every sweep
/// invocation (planner, shard runner, unsharded run) derives job keys
/// from.  Shared here so the CLI and the manifest can never drift apart.
///
/// # Errors
///
/// Returns a human-readable message for an unknown scale name.
pub fn scale_generator(scale: &str) -> Result<GeneratorConfig, String> {
    match scale {
        "paper" => Ok(GeneratorConfig::paper()),
        "quick" => Ok(GeneratorConfig::quick()),
        other => Err(format!("bad scale `{other}` (quick|paper)")),
    }
}

impl SweepManifest {
    /// Plans `grid` (given as its spec strings) at `scale` across `shards`
    /// slices, deriving every shard's expected key schedule and signing the
    /// result.
    ///
    /// More shards than grid cells is legal: the surplus shards simply get
    /// empty schedules, run as no-ops and contribute empty streams to the
    /// merge.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when the grid spec, scale or shard
    /// count does not parse.
    pub fn plan(benchmarks: &str, designs: &str, scale: &str, shards: u32) -> Result<Self, String> {
        if shards == 0 {
            return Err("shard count must be ≥ 1".to_string());
        }
        let grid = GridSpec::parse(benchmarks, designs)?;
        let generator = scale_generator(scale)?;
        let keys = JobKey::for_jobs(&generator, &grid.jobs());
        let schedule = shard_key_schedule(&keys, shards);
        let mut manifest = SweepManifest {
            format: MANIFEST_FORMAT_VERSION,
            benchmarks: benchmarks.to_string(),
            designs: designs.to_string(),
            scale: scale.to_string(),
            shards,
            cells: keys.len() as u64,
            schedule,
            digest: String::new(),
        };
        manifest.digest = manifest.signature();
        // A plan must never sign something its own load path would reject —
        // that would brand a freshly written, untampered manifest as
        // corrupt on every machine that tries to run it.
        manifest
            .verify()
            .map_err(|e| format!("planned manifest fails its own verification: {e}"))?;
        Ok(manifest)
    }

    /// The digest the manifest's semantic fields should carry: FNV-1a over
    /// their canonical JSON in fixed field order (everything except
    /// `digest` itself).
    #[must_use]
    pub fn signature(&self) -> String {
        let body = serde_json::json!({
            "format": self.format,
            "benchmarks": self.benchmarks,
            "designs": self.designs,
            "scale": self.scale,
            "shards": self.shards,
            "cells": self.cells,
            "schedule": self.schedule,
        });
        stable_hash::hex(stable_hash::fnv1a(body.to_string().as_bytes()))
    }

    /// Structural and integrity checks: supported format, a schedule entry
    /// per shard, well-formed sorted keys with no key owned by two
    /// *different* shards, a cell count matching the schedule — and a
    /// signature that matches the recorded digest, so any tampering or
    /// truncation-with-repair fails here rather than mid-run.
    ///
    /// A key may legitimately appear twice on *one* shard: a grid spec can
    /// list the same cell twice (`--benchmarks cg,cg`), digest partitioning
    /// sends every duplicate to the same shard, and the whole pipeline —
    /// engine, shard streams, validating merge — emits and accepts the
    /// duplicated row.  Only cross-shard duplication is corruption.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the first violated check.
    pub fn verify(&self) -> Result<(), String> {
        if self.format != MANIFEST_FORMAT_VERSION {
            return Err(format!(
                "manifest format {} not supported (this binary reads {MANIFEST_FORMAT_VERSION})",
                self.format
            ));
        }
        if self.shards == 0 {
            return Err("manifest shard count must be ≥ 1".to_string());
        }
        if self.schedule.len() != self.shards as usize {
            return Err(format!(
                "manifest schedules {} shards but declares {}",
                self.schedule.len(),
                self.shards
            ));
        }
        let mut owner: HashMap<&str, usize> = HashMap::new();
        let mut total = 0u64;
        for (i, shard) in self.schedule.iter().enumerate() {
            if !shard.is_sorted() {
                return Err(format!(
                    "shard {}/{} schedule is unsorted",
                    i + 1,
                    self.shards
                ));
            }
            for key in shard {
                if key.len() != 16 || !key.bytes().all(|b| b.is_ascii_hexdigit()) {
                    return Err(format!(
                        "shard {}/{} schedules malformed key `{key}`",
                        i + 1,
                        self.shards
                    ));
                }
                if *owner.entry(key).or_insert(i) != i {
                    return Err(format!("key {key} is scheduled on two shards"));
                }
                total += 1;
            }
        }
        if total != self.cells {
            return Err(format!(
                "manifest declares {} cells but schedules {total} keys",
                self.cells
            ));
        }
        if self.digest != self.signature() {
            return Err(format!(
                "manifest digest mismatch: recorded {}, computed {} — the manifest was \
                 modified or corrupted after planning",
                self.digest,
                self.signature()
            ));
        }
        Ok(())
    }

    /// Re-derives the grid, generator and per-shard key schedule from the
    /// manifest's spec strings *with this binary* and checks them against
    /// the recorded schedule.  A mismatch means the planning binary and
    /// this one disagree about what the grid even is (changed presets,
    /// changed key derivation, changed trace configs) — exactly the drift a
    /// multi-machine run must refuse to simulate through.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the disagreement.
    pub fn validate_grid(&self) -> Result<(GridSpec, GeneratorConfig), String> {
        let _span = acmp_obs::span!(acmp_obs::names::MANIFEST_VALIDATE);
        let grid = GridSpec::parse(&self.benchmarks, &self.designs)
            .map_err(|e| format!("manifest grid spec does not parse here: {e}"))?;
        let generator = scale_generator(&self.scale)?;
        let keys = JobKey::for_jobs(&generator, &grid.jobs());
        if keys.len() as u64 != self.cells {
            return Err(format!(
                "manifest plans {} cells, this binary derives {} from the same spec",
                self.cells,
                keys.len()
            ));
        }
        let recomputed = shard_key_schedule(&keys, self.shards);
        if recomputed != self.schedule {
            return Err(
                "manifest key schedule disagrees with this binary's derivation for the same \
                 grid spec — the planning and running binaries have drifted; re-plan with \
                 this binary"
                    .to_string(),
            );
        }
        Ok((grid, generator))
    }

    /// The expected key schedule of one shard.
    ///
    /// # Panics
    ///
    /// Panics if `shard` does not belong to this manifest's split (caller
    /// bug: shard specs are validated against `shards` before use).
    #[must_use]
    pub fn shard_schedule(&self, shard: ShardSpec) -> &[String] {
        assert_eq!(shard.count(), self.shards, "shard of a different split");
        &self.schedule[shard.index() as usize]
    }

    /// Serialises the manifest as one line of canonical JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        stable_hash::canonical_json(self)
    }

    /// Parses a manifest from JSON, without verifying it; callers follow up
    /// with [`verify`](Self::verify) (or use [`load`](Self::load)).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for malformed JSON or a missing
    /// field (a truncated manifest fails here).
    pub fn from_json(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| format!("manifest does not parse: {e}"))
    }

    /// Reads, parses and verifies a manifest file.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for an unreadable file, malformed
    /// or truncated JSON, or a manifest failing [`verify`](Self::verify).
    pub fn load(path: impl AsRef<Path>) -> Result<Self, String> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read manifest {}: {e}", path.display()))?;
        let manifest = Self::from_json(&text)?;
        manifest.verify()?;
        Ok(manifest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> SweepManifest {
        SweepManifest::plan("cg,lu", "fig09", "quick", 3).unwrap()
    }

    #[test]
    fn plans_verify_and_round_trip_through_json() {
        let manifest = plan();
        manifest.verify().unwrap();
        assert_eq!(manifest.cells, 6);
        assert_eq!(manifest.schedule.len(), 3);
        let total: usize = manifest.schedule.iter().map(Vec::len).sum();
        assert_eq!(total, 6);
        let parsed = SweepManifest::from_json(&manifest.to_json()).unwrap();
        parsed.verify().unwrap();
        assert_eq!(parsed, manifest);
    }

    #[test]
    fn planning_is_deterministic() {
        assert_eq!(plan(), plan());
        assert_eq!(plan().digest, plan().signature());
    }

    #[test]
    fn any_tampering_breaks_the_signature() {
        // Dropping a shard trips whichever check sees it first (the cell
        // count when that shard owned keys, the digest otherwise).
        let mut m = plan();
        m.shards = 2;
        m.schedule.pop();
        assert!(m.verify().is_err(), "{m:?}");

        let mut m = plan();
        m.scale = "paper".to_string();
        assert!(m.verify().unwrap_err().contains("digest mismatch"));

        let mut m = plan();
        let moved = m.schedule[0].pop();
        if let (Some(key), Some(last)) = (moved, m.schedule.last_mut()) {
            last.push(key);
            last.sort_unstable();
        }
        assert!(m.verify().is_err(), "moving a key between shards must fail");
    }

    #[test]
    fn structural_damage_is_named_before_the_digest_check() {
        let mut m = plan();
        m.schedule[0].reverse();
        if m.schedule[0].len() > 1 {
            assert!(m.verify().unwrap_err().contains("unsorted"));
        }

        let mut m = plan();
        let dup = m.schedule.iter().flatten().next().unwrap().clone();
        for shard in m.schedule.iter_mut() {
            if !shard.contains(&dup) {
                shard.push(dup.clone());
                shard.sort_unstable();
                break;
            }
        }
        assert!(m.verify().unwrap_err().contains("two shards"));

        let mut m = plan();
        m.schedule[0].push("not-a-key".to_string());
        m.schedule[0].sort_unstable();
        assert!(m.verify().unwrap_err().contains("malformed key"));

        let mut m = plan();
        m.format = 99;
        assert!(m.verify().unwrap_err().contains("format"));
    }

    #[test]
    fn truncated_json_fails_to_parse() {
        let text = plan().to_json();
        for cut in [1, text.len() / 2, text.len() - 1] {
            assert!(
                SweepManifest::from_json(&text[..cut]).is_err(),
                "a manifest truncated to {cut} bytes must not parse"
            );
        }
    }

    #[test]
    fn grid_validation_accepts_the_planning_binary_and_rejects_drift() {
        let m = plan();
        let (grid, generator) = m.validate_grid().unwrap();
        assert_eq!(grid.cells() as u64, m.cells);
        assert_eq!(generator, scale_generator("quick").unwrap());

        // Simulated drift: the manifest was planned for a different grid
        // than its spec strings now claim (as a binary with changed preset
        // lists would produce).  Re-sign so only validate_grid can catch it.
        let mut drifted = SweepManifest::plan("cg", "fig09", "quick", 3).unwrap();
        drifted.benchmarks = "cg,lu".to_string();
        drifted.cells = 6;
        drifted.digest = drifted.signature();
        assert!(drifted.verify().is_err() || drifted.validate_grid().is_err());

        let mut drifted = plan();
        let key = drifted.schedule.iter_mut().find(|s| !s.is_empty()).unwrap();
        key[0] = "0000000000000000".to_string();
        key.sort_unstable();
        drifted.digest = drifted.signature();
        drifted.verify().unwrap();
        assert!(
            drifted.validate_grid().unwrap_err().contains("drifted"),
            "a re-signed but wrong schedule must fail grid validation"
        );
    }

    #[test]
    fn duplicate_grid_cells_plan_verify_and_stay_on_one_shard() {
        // `--benchmarks cg,cg` lists one cell twice; the rest of the CLI
        // (engine, shard streams, merge) emits and accepts the duplicated
        // row, so planning must too — the duplicates land on one shard by
        // digest partitioning and the manifest loads cleanly.
        let m = SweepManifest::plan("cg,cg", "baseline", "quick", 2).unwrap();
        m.verify().unwrap();
        assert_eq!(m.cells, 2);
        let occupied: Vec<&Vec<String>> = m.schedule.iter().filter(|s| !s.is_empty()).collect();
        assert_eq!(occupied.len(), 1, "duplicates must share one shard");
        assert_eq!(occupied[0].len(), 2);
        assert_eq!(occupied[0][0], occupied[0][1]);
        m.validate_grid().unwrap();
        let round = SweepManifest::from_json(&m.to_json()).unwrap();
        round.verify().unwrap();
    }

    #[test]
    fn more_shards_than_cells_plans_empty_schedules() {
        let m = SweepManifest::plan("cg", "baseline", "quick", 8).unwrap();
        m.verify().unwrap();
        assert_eq!(m.cells, 1);
        let empty = m.schedule.iter().filter(|s| s.is_empty()).count();
        assert_eq!(empty, 7, "seven of eight shards own nothing");
        m.validate_grid().unwrap();
        // Empty shards still answer schedule lookups.
        let spec = ShardSpec::all(8).last().unwrap();
        let _ = m.shard_schedule(spec);
    }

    #[test]
    fn scales_map_to_generators() {
        assert!(scale_generator("quick").is_ok());
        assert_eq!(scale_generator("paper").unwrap(), GeneratorConfig::paper());
        assert!(scale_generator("huge").is_err());
    }

    #[test]
    fn load_reports_missing_files_and_verifies() {
        let dir = std::env::temp_dir().join(format!("acmp-manifest-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        assert!(SweepManifest::load(dir.join("absent.json")).is_err());

        let path = dir.join("plan.json");
        std::fs::write(&path, plan().to_json()).unwrap();
        SweepManifest::load(&path).unwrap();

        // A tampered file fails at load, not at use.
        let tampered = plan().to_json().replace("\"shards\":3", "\"shards\":4");
        std::fs::write(&path, tampered).unwrap();
        assert!(SweepManifest::load(&path).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
