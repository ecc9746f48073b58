//! End-to-end tests of the `sweep` CLI binary: determinism across worker
//! counts, warm starts from the on-disk store, and multi-process sharding
//! (`--shards N` must merge byte-identically to an unsharded run with no
//! cell simulated twice).

use std::path::PathBuf;
use std::process::Command;

fn sweep_bin() -> &'static str {
    env!("CARGO_BIN_EXE_sweep")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sweep-cli-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

struct Run {
    stdout: String,
    stderr: String,
}

fn run_sweep<S: AsRef<std::ffi::OsStr> + std::fmt::Debug>(args: &[S]) -> Run {
    let output = Command::new(sweep_bin())
        .args(args)
        .output()
        .expect("sweep binary runs");
    assert!(
        output.status.success(),
        "sweep {args:?} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    Run {
        stdout: String::from_utf8(output.stdout).unwrap(),
        stderr: String::from_utf8(output.stderr).unwrap(),
    }
}

/// JSONL lines sorted by the embedded job key (each line starts with
/// `{"key":"...`, so a plain string sort orders by key).
fn sorted_rows(stdout: &str) -> Vec<&str> {
    let mut rows: Vec<&str> = stdout.lines().collect();
    rows.sort_unstable();
    rows
}

#[test]
fn worker_count_does_not_change_the_output() {
    let dir = temp_dir("workers");
    // Separate cache dirs so both runs simulate from cold.
    let args = |workers: &str, cache: &str| -> Vec<String> {
        [
            "run",
            "--benchmarks",
            "cg,lu",
            "--designs",
            "baseline,naive:2",
            "--quiet",
            "--workers",
            workers,
            "--cache-dir",
            cache,
        ]
        .iter()
        .map(ToString::to_string)
        .collect()
    };
    let one = run_sweep(&args("1", dir.join("c1").to_str().unwrap()));
    let four = run_sweep(&args("4", dir.join("c4").to_str().unwrap()));
    assert_eq!(sorted_rows(&one.stdout), sorted_rows(&four.stdout));
    assert_eq!(one.stdout.lines().count(), 4);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn second_run_is_served_from_the_disk_store() {
    let dir = temp_dir("warm");
    let cache = dir.join("cache");
    let cache = cache.to_str().unwrap();
    let args = [
        "run",
        "--grid",
        "fig09",
        "--benchmarks",
        "cg",
        "--quiet",
        "--cache-dir",
        cache,
    ];

    let cold = run_sweep(&args);
    assert!(
        cold.stderr.contains("disk-hits 0"),
        "cold run must simulate: {}",
        cold.stderr
    );

    let warm = run_sweep(&args);
    assert!(
        warm.stderr.contains("simulated 0"),
        "warm run must not simulate: {}",
        warm.stderr
    );
    assert!(
        warm.stderr.contains("disk-hits 3"),
        "warm run must hit the store for every cell: {}",
        warm.stderr
    );
    assert!(
        warm.stderr.contains("trace-gens 0"),
        "warm run must not regenerate traces: {}",
        warm.stderr
    );
    assert_eq!(
        sorted_rows(&cold.stdout),
        sorted_rows(&warm.stdout),
        "warm rows must be byte-identical to cold rows"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compaction_preserves_warm_starts_and_shrinks_the_directory() {
    let dir = temp_dir("compact");
    let cache = dir.join("cache");
    let cache = cache.to_str().unwrap();
    let args = [
        "run",
        "--grid",
        "fig09",
        "--benchmarks",
        "cg,lu",
        "--quiet",
        "--cache-dir",
        cache,
    ];
    let cold = run_sweep(&args);

    // Standalone maintenance mode: compact the store, run nothing.
    let compacted = run_sweep(&["store", "compact", "--cache-dir", cache]);
    assert!(
        compacted.stdout.contains("live entries"),
        "{}",
        compacted.stdout
    );
    assert!(compacted.stderr.is_empty(), "{}", compacted.stderr);

    // The packed layout must use fewer files than one per entry: 6 result
    // cells would have been 6 files in the old layout.
    let files = std::fs::read_dir(cache).unwrap().count();
    assert!(files < 6, "expected a packed store, found {files} files");

    // A run from the compacted store is fully warm: zero simulations, zero
    // trace generations, byte-identical rows.
    let warm = run_sweep(&args);
    assert!(warm.stderr.contains("simulated 0"), "{}", warm.stderr);
    assert!(warm.stderr.contains("trace-gens 0"), "{}", warm.stderr);
    assert!(warm.stderr.contains("disk-hits 6"), "{}", warm.stderr);
    assert_eq!(sorted_rows(&cold.stdout), sorted_rows(&warm.stdout));

    // `store stats` reports without touching anything.  The store holds
    // the six results and no trace sets.
    let stats = run_sweep(&["store", "stats", "--cache-dir", cache]);
    assert!(stats.stdout.contains("entries 6"), "{}", stats.stdout);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Sums a `<field> N` counter over every per-shard summary line.
fn summed_counter(stderr: &str, field: &str) -> u64 {
    let tag = format!("{field} ");
    stderr
        .lines()
        .filter_map(|line| {
            let at = line.find(&tag)?;
            line[at + tag.len()..]
                .split(',')
                .next()?
                .trim()
                .parse::<u64>()
                .ok()
        })
        .sum()
}

#[test]
fn sharded_runs_merge_byte_identical_to_unsharded() {
    let dir = temp_dir("sharded");
    let args = |cache: PathBuf| -> Vec<String> {
        [
            "run",
            "--grid",
            "fig09",
            "--benchmarks",
            "cg,lu",
            "--quiet",
            "--cache-dir",
            cache.to_str().unwrap(),
        ]
        .iter()
        .map(ToString::to_string)
        .collect()
    };
    let single = run_sweep(&args(dir.join("c1")));
    for n in ["2", "3"] {
        let mut sharded_args = args(dir.join(format!("c{n}")));
        sharded_args.extend(["--shards".to_string(), n.to_string()]);
        let sharded = run_sweep(&sharded_args);
        assert_eq!(
            single.stdout, sharded.stdout,
            "--shards {n} must merge byte-identically to the unsharded run"
        );
        assert!(
            sharded
                .stderr
                .contains(&format!("merged {n} shard streams")),
            "{}",
            sharded.stderr
        );
        // Disjoint digest ownership: the 6 cells simulate exactly once in
        // total across the shard processes.
        assert_eq!(
            summed_counter(&sharded.stderr, "simulated"),
            6,
            "no double work across {n} shards: {}",
            sharded.stderr
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sharded_processes_share_one_store_and_rerun_fully_warm() {
    let dir = temp_dir("sharded-warm");
    let cache = dir.join("cache");
    let args: Vec<String> = [
        "run",
        "--grid",
        "fig09",
        "--benchmarks",
        "cg",
        "--quiet",
        "--shards",
        "3",
        "--cache-dir",
        cache.to_str().unwrap(),
    ]
    .iter()
    .map(ToString::to_string)
    .collect();

    let cold = run_sweep(&args);
    assert_eq!(
        summed_counter(&cold.stderr, "simulated"),
        3,
        "{}",
        cold.stderr
    );

    // All three shard processes append into the one cache dir; the re-run
    // must be fully warm in every shard: zero simulations, zero trace
    // generations, and byte-identical merged rows.
    let warm = run_sweep(&args);
    assert_eq!(
        summed_counter(&warm.stderr, "simulated"),
        0,
        "{}",
        warm.stderr
    );
    assert_eq!(
        summed_counter(&warm.stderr, "trace-gens"),
        0,
        "{}",
        warm.stderr
    );
    assert_eq!(cold.stdout, warm.stdout);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn single_shard_emits_its_subsequence_of_the_unsharded_rows() {
    let full = run_sweep(&[
        "run",
        "--grid",
        "fig09",
        "--benchmarks",
        "cg,lu",
        "--quiet",
        "--no-disk-cache",
    ]);
    let dir = temp_dir("single-shard");
    let plan = dir.join("plan.json");
    let plan = plan.to_str().unwrap();
    run_sweep(&[
        "plan",
        plan,
        "--grid",
        "fig09",
        "--benchmarks",
        "cg,lu",
        "--shards",
        "3",
    ]);
    let shard = run_sweep(&[
        "run",
        "--manifest",
        plan,
        "--shard",
        "2/3",
        "--quiet",
        "--no-disk-cache",
    ]);
    assert!(shard.stderr.contains("shard 2/3 owns"), "{}", shard.stderr);
    // Every shard row appears in the unsharded stream, in the same order.
    let full_rows: Vec<&str> = full.stdout.lines().collect();
    let shard_rows: Vec<&str> = shard.stdout.lines().collect();
    assert!(!shard_rows.is_empty());
    assert!(shard_rows.len() < full_rows.len());
    let mut walk = full_rows.iter();
    for row in &shard_rows {
        assert!(
            walk.any(|full_row| full_row == row),
            "shard rows must be an ordered sub-sequence of the full stream"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The committed golden fixture: `--grid fig09 --benchmarks cg,lu` at
/// quick scale, exactly as the CLI emits it.
fn fixture_bytes() -> String {
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/fig09.jsonl");
    std::fs::read_to_string(path).expect("committed fixture is readable")
}

#[test]
fn unsharded_output_matches_the_committed_fixture() {
    // Golden snapshot: any drift in row format, field order, float
    // printing, key derivation or simulation results fails here loudly
    // instead of silently changing every consumer's bytes.
    let run = run_sweep(&[
        "run",
        "--grid",
        "fig09",
        "--benchmarks",
        "cg,lu",
        "--quiet",
        "--no-disk-cache",
    ]);
    assert_eq!(
        run.stdout,
        fixture_bytes(),
        "CLI output drifted off tests/fixtures/fig09.jsonl — if intentional, \
         regenerate the fixture and flag the format change loudly"
    );
}

/// Runs `sweep` expecting failure; returns stderr.
fn run_sweep_expect_failure<S: AsRef<std::ffi::OsStr> + std::fmt::Debug>(args: &[S]) -> String {
    let output = Command::new(sweep_bin())
        .args(args)
        .output()
        .expect("sweep binary runs");
    assert!(
        !output.status.success(),
        "sweep {args:?} unexpectedly passed"
    );
    String::from_utf8(output.stderr).unwrap()
}

#[test]
fn manifest_pipeline_plans_runs_merges_and_transfers_between_machines() {
    // The full multi-machine walkthrough on one host: plan → per-"machine"
    // shard runs in disjoint cache dirs → offline merge (byte-identical to
    // the fixture) → withheld/corrupt streams rejected with zero output →
    // segment export/import warming the second machine to zero simulations.
    let dir = temp_dir("manifest-pipeline");
    let plan = dir.join("plan.json");
    let plan_s = plan.to_str().unwrap();
    let shard1 = dir.join("shard-1.jsonl");
    let shard2 = dir.join("shard-2.jsonl");

    // Plan: 6 cells across 2 shards, signed.
    let planned = run_sweep(&[
        "plan",
        plan_s,
        "--grid",
        "fig09",
        "--benchmarks",
        "cg,lu",
        "--shards",
        "2",
    ]);
    assert!(
        planned.stderr.contains("planned 6 cells across 2 shards"),
        "{}",
        planned.stderr
    );
    let manifest_text = std::fs::read_to_string(&plan).unwrap();
    assert!(manifest_text.contains("\"digest\""), "{manifest_text}");

    // Each "machine" runs its shard against its own cache dir — no shared
    // filesystem, the manifest is the only shared artifact.
    for (i, (out, cache)) in [(&shard1, "m1"), (&shard2, "m2")].iter().enumerate() {
        let run = run_sweep(&[
            "run",
            "--manifest",
            plan_s,
            "--shard",
            &format!("{}/2", i + 1),
            "--cache-dir",
            dir.join(cache).to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
            "--quiet",
        ]);
        assert!(
            run.stderr.contains("manifest") && run.stderr.contains("validated"),
            "{}",
            run.stderr
        );
    }

    // Offline merge reproduces the unsharded bytes exactly.
    let merged = dir.join("merged.jsonl");
    let merge = run_sweep(&[
        "merge",
        "--manifest",
        plan_s,
        "--out",
        merged.to_str().unwrap(),
        shard1.to_str().unwrap(),
        shard2.to_str().unwrap(),
    ]);
    assert!(merge.stderr.contains("byte-identical"), "{}", merge.stderr);
    assert_eq!(std::fs::read_to_string(&merged).unwrap(), fixture_bytes());

    // A withheld shard is named, and nothing is written.
    let gone = dir.join("never-written.jsonl");
    let stderr = run_sweep_expect_failure(&[
        "merge",
        "--manifest",
        plan_s,
        "--out",
        gone.to_str().unwrap(),
        shard1.to_str().unwrap(),
    ]);
    assert!(
        stderr.contains("shard 2/2") && stderr.contains("missing"),
        "the withheld shard must be named: {stderr}"
    );
    assert!(stderr.contains("wrote nothing"), "{stderr}");
    assert!(!gone.exists(), "a failed merge must not create its output");

    // Warm transfer: export machine 1's store, import into machine 2,
    // and the *full* grid re-runs there with zero simulations and zero
    // trace generations.
    let bundle = dir.join("m1.bundle");
    let exported = run_sweep(&[
        "store",
        "export",
        bundle.to_str().unwrap(),
        "--cache-dir",
        dir.join("m1").to_str().unwrap(),
    ]);
    assert!(exported.stdout.contains("exported"), "{}", exported.stdout);
    let imported = run_sweep(&[
        "store",
        "import",
        bundle.to_str().unwrap(),
        "--cache-dir",
        dir.join("m2").to_str().unwrap(),
    ]);
    assert!(imported.stdout.contains("imported"), "{}", imported.stdout);
    let warm = run_sweep(&[
        "run",
        "--grid",
        "fig09",
        "--benchmarks",
        "cg,lu",
        "--quiet",
        "--cache-dir",
        dir.join("m2").to_str().unwrap(),
    ]);
    assert!(warm.stderr.contains("simulated 0"), "{}", warm.stderr);
    assert!(warm.stderr.contains("trace-gens 0"), "{}", warm.stderr);
    assert_eq!(warm.stdout, fixture_bytes());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn merge_corruption_matrix_rejects_damage_with_zero_output_and_intact_inputs() {
    // Build one good plan + two good shard streams, then damage copies in
    // every way a multi-machine transfer realistically can.  Every case
    // must fail, write nothing, and leave the inputs untouched.
    let dir = temp_dir("merge-corruption");
    let plan = dir.join("plan.json");
    let plan_s = plan.to_str().unwrap().to_string();
    // cg,lu × fig09 splits 3/3 across two shards, so both slots carry rows
    // and a swapped file really is "the wrong slot", not an empty stream.
    run_sweep(&[
        "plan",
        &plan_s,
        "--grid",
        "fig09",
        "--benchmarks",
        "cg,lu",
        "--shards",
        "2",
    ]);
    for i in 1..=2 {
        run_sweep(&[
            "run",
            "--manifest",
            &plan_s,
            "--shard",
            &format!("{i}/2"),
            "--no-disk-cache",
            "--out",
            dir.join(format!("shard-{i}.jsonl")).to_str().unwrap(),
            "--quiet",
        ]);
    }
    let good_manifest = std::fs::read_to_string(&plan).unwrap();
    let good_shard =
        |i: u32| std::fs::read_to_string(dir.join(format!("shard-{i}.jsonl"))).unwrap();
    let (good1, good2) = (good_shard(1), good_shard(2));

    // Each case: (tag, manifest text, slot-1 stream, slot-2 stream, expected message)
    let truncated_manifest = &good_manifest[..good_manifest.len() / 2];
    let tampered_manifest = good_manifest.replace("\"scale\":\"quick\"", "\"scale\":\"paper\"");
    assert_ne!(tampered_manifest, good_manifest);
    let crlf1 = good1.replace('\n', "\r\n");
    let mut duplicated2 = good2.clone();
    duplicated2.push_str(good1.lines().next().unwrap());
    duplicated2.push('\n');
    let cases: Vec<(&str, &str, &str, &str, &str)> = vec![
        (
            "truncated-manifest",
            truncated_manifest,
            &good1,
            &good2,
            "parse",
        ),
        (
            "digest-mismatch",
            &tampered_manifest,
            &good1,
            &good2,
            "digest mismatch",
        ),
        (
            "wrong-slot",
            &good_manifest,
            &good2,
            &good1,
            "schedule expects",
        ),
        ("crlf", &good_manifest, &crlf1, &good2, "CRLF"),
        (
            "duplicate-across-shards",
            &good_manifest,
            &good1,
            &duplicated2,
            "more rows",
        ),
    ];

    for (tag, manifest, s1, s2, expect) in cases {
        let case_dir = dir.join(tag);
        std::fs::create_dir_all(&case_dir).unwrap();
        let case_plan = case_dir.join("plan.json");
        let f1 = case_dir.join("shard-1.jsonl");
        let f2 = case_dir.join("shard-2.jsonl");
        std::fs::write(&case_plan, manifest).unwrap();
        std::fs::write(&f1, s1).unwrap();
        std::fs::write(&f2, s2).unwrap();
        let out = case_dir.join("merged.jsonl");

        let stderr = run_sweep_expect_failure(&[
            "merge",
            "--manifest",
            case_plan.to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
            f1.to_str().unwrap(),
            f2.to_str().unwrap(),
        ]);
        assert!(
            stderr.contains(expect),
            "{tag}: want `{expect}` in: {stderr}"
        );
        assert!(!out.exists(), "{tag}: zero partial output");
        // Inputs are exactly as supplied — the merge never mutates them.
        assert_eq!(
            std::fs::read_to_string(&case_plan).unwrap(),
            *manifest,
            "{tag}"
        );
        assert_eq!(std::fs::read_to_string(&f1).unwrap(), *s1, "{tag}");
        assert_eq!(std::fs::read_to_string(&f2).unwrap(), *s2, "{tag}");
    }

    // The same damaged manifests must also stop a shard *run* up front.
    for (tag, manifest, expect) in [
        ("truncated", truncated_manifest, "parse"),
        ("tampered", tampered_manifest.as_str(), "digest mismatch"),
    ] {
        let bad_plan = dir.join(format!("bad-plan-{tag}.json"));
        std::fs::write(&bad_plan, manifest).unwrap();
        let stderr = run_sweep_expect_failure(&[
            "run",
            "--manifest",
            bad_plan.to_str().unwrap(),
            "--shard",
            "1/2",
            "--no-disk-cache",
        ]);
        assert!(stderr.contains(expect), "{tag}: {stderr}");
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn degenerate_splits_with_more_shards_than_cells_run_clean() {
    // fig09 × cg is 3 cells; 5 shards guarantees empty shards.  The
    // coordinator must still exit 0, give every child a non-zero worker
    // pool, and merge byte-identically to the unsharded run.
    let single = run_sweep(&[
        "run",
        "--grid",
        "fig09",
        "--benchmarks",
        "cg",
        "--quiet",
        "--no-disk-cache",
    ]);
    let sharded = run_sweep(&[
        "run",
        "--grid",
        "fig09",
        "--benchmarks",
        "cg",
        "--quiet",
        "--no-disk-cache",
        "--shards",
        "5",
        "--workers",
        "2",
    ]);
    assert_eq!(single.stdout, sharded.stdout);
    assert!(
        sharded.stderr.contains("merged 5 shard streams"),
        "{}",
        sharded.stderr
    );
    assert!(
        sharded.stderr.contains("1 workers each") && !sharded.stderr.contains("0 workers each"),
        "the worker split must never round to zero: {}",
        sharded.stderr
    );

    // The manifest path agrees: an empty shard validates, emits zero rows
    // and exits 0.
    let dir = temp_dir("degenerate-manifest");
    let plan = dir.join("plan.json");
    run_sweep(&[
        "plan",
        plan.to_str().unwrap(),
        "--grid",
        "fig09",
        "--benchmarks",
        "cg",
        "--shards",
        "8",
    ]);
    let mut empty_shards = 0;
    for i in 1..=8u32 {
        let out = dir.join(format!("shard-{i}.jsonl"));
        let run = run_sweep(&[
            "run",
            "--manifest",
            plan.to_str().unwrap(),
            "--shard",
            &format!("{i}/8"),
            "--no-disk-cache",
            "--out",
            out.to_str().unwrap(),
            "--quiet",
        ]);
        let rows = std::fs::read_to_string(&out).unwrap().lines().count();
        if rows == 0 {
            empty_shards += 1;
            assert!(run.stderr.contains("owns 0 of 3"), "{}", run.stderr);
        }
    }
    assert!(empty_shards >= 5, "8 shards over 3 cells leave ≥ 5 empty");

    // And the merge accepts the gathered streams — including the empties.
    let merged = dir.join("merged.jsonl");
    let mut args: Vec<String> = vec![
        "merge".into(),
        "--manifest".into(),
        plan.to_str().unwrap().into(),
        "--out".into(),
        merged.to_str().unwrap().into(),
    ];
    for i in 1..=8u32 {
        args.push(
            dir.join(format!("shard-{i}.jsonl"))
                .to_str()
                .unwrap()
                .into(),
        );
    }
    let merge = run_sweep(&args);
    assert!(
        merge.stderr.contains("merged 8 shard streams"),
        "{}",
        merge.stderr
    );
    assert_eq!(std::fs::read_to_string(&merged).unwrap(), single.stdout);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn manifest_conflicts_and_mismatches_are_rejected() {
    let dir = temp_dir("manifest-conflicts");
    let plan = dir.join("plan.json");
    let plan_s = plan.to_str().unwrap().to_string();
    run_sweep(&[
        "plan",
        &plan_s,
        "--benchmarks",
        "cg",
        "--designs",
        "baseline",
        "--shards",
        "2",
    ]);

    // Grid flags conflict with --manifest: the grid comes from the plan.
    let stderr = run_sweep_expect_failure(&[
        "run",
        "--manifest",
        &plan_s,
        "--shard",
        "1/2",
        "--benchmarks",
        "cg",
        "--no-disk-cache",
    ]);
    assert!(stderr.contains("conflicts with --manifest"), "{stderr}");

    // A shard spec from a different split is rejected against the plan.
    let stderr = run_sweep_expect_failure(&[
        "run",
        "--manifest",
        &plan_s,
        "--shard",
        "1/3",
        "--no-disk-cache",
    ]);
    assert!(stderr.contains("planned for 2 shards"), "{stderr}");

    // --manifest without --shard points at `sweep merge`.
    let stderr = run_sweep_expect_failure(&["run", "--manifest", &plan_s, "--no-disk-cache"]);
    assert!(stderr.contains("--shard"), "{stderr}");

    // merge requires a manifest.
    let stderr = run_sweep_expect_failure(&["merge", "some.jsonl"]);
    assert!(stderr.contains("--manifest"), "{stderr}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn broken_pipe_exits_nonzero_and_quietly() {
    // `sweep … | head` used to be indistinguishable from a successful
    // short run; now a write onto a closed pipe exits non-zero — but
    // without spamming "write failed" into every early-exiting pipeline.
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let output = Command::new(sweep_bin())
        .args([
            "run",
            "--benchmarks",
            "cg",
            "--designs",
            "baseline",
            "--quiet",
            "--no-disk-cache",
        ])
        .stdin(std::process::Stdio::null())
        .stdout(std::process::Stdio::from(writer))
        .stderr(std::process::Stdio::piped())
        .output()
        .unwrap();
    assert!(!output.status.success(), "a broken pipe must not exit 0");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        !stderr.contains("write failed"),
        "EPIPE must stay quiet: {stderr}"
    );
}

#[test]
fn conflicting_shard_options_are_rejected() {
    let output = Command::new(sweep_bin())
        .args(["run", "--shards", "2", "--shard", "1/2", "--no-disk-cache"])
        .output()
        .unwrap();
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("mutually exclusive"), "{stderr}");

    let output = Command::new(sweep_bin())
        .args(["run", "--shard", "4/3", "--no-disk-cache"])
        .output()
        .unwrap();
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("out of range"), "{stderr}");
}

#[test]
fn bad_specs_exit_nonzero_with_a_message() {
    let output = Command::new(sweep_bin())
        .args(["run", "--designs", "not-a-design", "--no-disk-cache"])
        .output()
        .unwrap();
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("not-a-design"), "{stderr}");
}

#[test]
fn plan_subcommand_writes_a_manifest_run_and_merge_complete() {
    let dir = temp_dir("plan-subcommand");
    let manifest = dir.join("plan.json");
    let manifest = manifest.to_str().unwrap();
    let planned = run_sweep(&[
        "plan",
        manifest,
        "--grid",
        "fig09",
        "--benchmarks",
        "cg,lu",
        "--shards",
        "2",
    ]);
    assert!(
        planned.stderr.contains("planned 6 cells across 2 shards"),
        "{}",
        planned.stderr
    );
    // The printed hints must use the subcommand grammar.
    assert!(
        planned.stderr.contains("sweep run --manifest"),
        "{}",
        planned.stderr
    );

    for shard in 1..=2 {
        let out = dir.join(format!("shard-{shard}.jsonl"));
        run_sweep(&[
            "run",
            "--manifest",
            manifest,
            "--shard",
            &format!("{shard}/2"),
            "--quiet",
            "--no-disk-cache",
            "--out",
            out.to_str().unwrap(),
        ]);
    }
    let merged = run_sweep(&[
        "merge",
        "--manifest",
        manifest,
        dir.join("shard-1.jsonl").to_str().unwrap(),
        dir.join("shard-2.jsonl").to_str().unwrap(),
    ]);
    assert_eq!(merged.stdout.lines().count(), 6);

    let whole = run_sweep(&[
        "run",
        "--grid",
        "fig09",
        "--benchmarks",
        "cg,lu",
        "--quiet",
        "--no-disk-cache",
    ]);
    assert_eq!(
        merged.stdout, whole.stdout,
        "merge must equal unsharded run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_subcommand_covers_stats_compact_export_import() {
    let dir = temp_dir("store-subcommand");
    let cache = dir.join("cache");
    let cache = cache.to_str().unwrap();
    run_sweep(&[
        "run",
        "--grid",
        "fig09",
        "--benchmarks",
        "cg",
        "--quiet",
        "--cache-dir",
        cache,
    ]);

    let stats = run_sweep(&["store", "stats", "--cache-dir", cache]);
    assert!(stats.stdout.contains("entries"), "{}", stats.stdout);

    let compacted = run_sweep(&["store", "compact", "--cache-dir", cache]);
    assert!(
        compacted.stdout.contains("live entries"),
        "{}",
        compacted.stdout
    );

    let bundle = dir.join("bundle.bin");
    let bundle = bundle.to_str().unwrap();
    run_sweep(&["store", "export", bundle, "--cache-dir", cache]);

    let other = dir.join("other");
    let other = other.to_str().unwrap();
    run_sweep(&["store", "import", bundle, "--cache-dir", other]);

    // The imported store must warm-start a run with zero simulations.
    let warm = run_sweep(&[
        "run",
        "--grid",
        "fig09",
        "--benchmarks",
        "cg",
        "--quiet",
        "--cache-dir",
        other,
    ]);
    assert!(warm.stderr.contains("simulated 0"), "{}", warm.stderr);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn query_answers_from_the_index_with_zero_value_reads() {
    let dir = temp_dir("query-warm");
    let cache = dir.join("cache");
    let cache = cache.to_str().unwrap();
    run_sweep(&[
        "run",
        "--grid",
        "fig09",
        "--benchmarks",
        "cg,lu",
        "--quiet",
        "--cache-dir",
        cache,
    ]);

    // First query: no index yet — builds it by scanning values (observable
    // in the counter), persists it for everyone after.
    let m1 = dir.join("m1.json");
    let cold = run_sweep(&[
        "query",
        "benchmark=cg",
        "--by",
        "cycles",
        "--cache-dir",
        cache,
        "--metrics-out",
        m1.to_str().unwrap(),
    ]);
    assert_eq!(cold.stdout.lines().count(), 3, "{}", cold.stdout);
    assert!(cold.stderr.contains("value scan"), "{}", cold.stderr);
    let metrics = std::fs::read_to_string(&m1).unwrap();
    assert!(
        metrics.contains("\"store.value_reads\""),
        "the cold query must have scanned segment values: {metrics}"
    );

    // Warm query: answered from the persisted index, zero value reads.
    let m2 = dir.join("m2.json");
    let warm = run_sweep(&[
        "query",
        "benchmark=cg",
        "--by",
        "cycles",
        "--cache-dir",
        cache,
        "--metrics-out",
        m2.to_str().unwrap(),
    ]);
    assert_eq!(warm.stdout, cold.stdout, "ranking must be deterministic");
    assert!(warm.stderr.contains("persisted index"), "{}", warm.stderr);
    let metrics = std::fs::read_to_string(&m2).unwrap();
    assert!(
        !metrics.contains("\"store.value_reads\""),
        "a warm query must perform zero segment value reads: {metrics}"
    );

    // Compaction rewrites every segment; the rebuilt index must answer the
    // same query byte-identically, still without touching values.
    let compacted = run_sweep(&["store", "compact", "--cache-dir", cache]);
    assert!(
        compacted.stdout.contains("rebuilt secondary index: 6 rows"),
        "{}",
        compacted.stdout
    );
    // The stats line compaction ends with: the rebuilt index holds every
    // row and matches the key index of the new generation.
    assert!(
        compacted.stdout.contains(": files 1, rows 6, fresh\n"),
        "{}",
        compacted.stdout
    );
    let m3 = dir.join("m3.json");
    let after = run_sweep(&[
        "query",
        "benchmark=cg",
        "--by",
        "cycles",
        "--cache-dir",
        cache,
        "--metrics-out",
        m3.to_str().unwrap(),
    ]);
    assert_eq!(after.stdout, cold.stdout);
    let metrics = std::fs::read_to_string(&m3).unwrap();
    assert!(!metrics.contains("\"store.value_reads\""), "{metrics}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn query_grammar_filters_rank_and_reject() {
    let dir = temp_dir("query-grammar");
    let cache = dir.join("cache");
    let cache = cache.to_str().unwrap();
    run_sweep(&[
        "run",
        "--grid",
        "fig09",
        "--benchmarks",
        "cg",
        "--quiet",
        "--cache-dir",
        cache,
    ]);

    // Unfiltered, descending, top-1: exactly the worst cell, as one JSON
    // object per line with the schema the docs promise.
    let top = run_sweep(&[
        "query",
        "--by",
        "cycles",
        "--desc",
        "--top",
        "1",
        "--cache-dir",
        cache,
        "--quiet",
    ]);
    assert_eq!(top.stdout.lines().count(), 1, "{}", top.stdout);
    for field in [
        "\"key\":",
        "\"benchmark\":\"Cg\"",
        "\"family\":",
        "\"design\":",
        "\"metric\":\"cycles\"",
        "\"value\":",
    ] {
        assert!(top.stdout.contains(field), "{}", top.stdout);
    }
    assert_eq!(top.stderr, "", "--quiet must silence the summary");

    // A metric comparison filter conjoins with facet equality.
    let filtered = run_sweep(&[
        "query",
        "family=private",
        "cycles>0",
        "--by",
        "cycles",
        "--cache-dir",
        cache,
        "--quiet",
    ]);
    assert_eq!(filtered.stdout.lines().count(), 3, "{}", filtered.stdout);
    let values: Vec<&str> = filtered
        .stdout
        .lines()
        .map(|l| l.rsplit("\"value\":").next().unwrap())
        .collect();
    let mut sorted = values.clone();
    sorted.sort_by(|a, b| {
        let parse = |s: &&str| s.trim_end_matches('}').parse::<f64>().unwrap();
        parse(a).total_cmp(&parse(b))
    });
    assert_eq!(values, sorted, "hits must rank ascending by the metric");

    // Grammar violations exit with guidance, not a panic.
    for bad in [
        vec!["query", "cycles=5", "--by", "cycles"],
        vec!["query", "benchmark=cg"],
        vec!["query", "nonsense", "--by", "cycles"],
    ] {
        let output = Command::new(sweep_bin()).args(&bad).output().unwrap();
        assert!(!output.status.success(), "{bad:?} must fail");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("sweep query"), "{stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_stats_reports_index_freshness() {
    let dir = temp_dir("query-staleness");
    let cache = dir.join("cache");
    let cache = cache.to_str().unwrap();
    run_sweep(&[
        "run",
        "--grid",
        "fig09",
        "--benchmarks",
        "cg",
        "--quiet",
        "--cache-dir",
        cache,
    ]);

    // No index yet.
    let stats = run_sweep(&["store", "stats", "--cache-dir", cache]);
    assert!(stats.stdout.contains("index"), "{}", stats.stdout);
    assert!(stats.stdout.contains("absent"), "{}", stats.stdout);

    // A query persists the index; stats now reports it fresh.
    run_sweep(&["query", "--by", "cycles", "--cache-dir", cache, "--quiet"]);
    let stats = run_sweep(&["store", "stats", "--cache-dir", cache]);
    assert!(stats.stdout.contains("fresh"), "{}", stats.stdout);

    // New results land in the store: the persisted index is now stale
    // relative to the key index, and stats says so.
    run_sweep(&[
        "run",
        "--grid",
        "fig09",
        "--benchmarks",
        "lu",
        "--quiet",
        "--cache-dir",
        cache,
    ]);
    let stats = run_sweep(&["store", "stats", "--cache-dir", cache]);
    assert!(stats.stdout.contains("stale"), "{}", stats.stdout);

    // The next query rebuilds and re-persists: fresh again.
    run_sweep(&["query", "--by", "cycles", "--cache-dir", cache, "--quiet"]);
    let stats = run_sweep(&["store", "stats", "--cache-dir", cache]);
    assert!(stats.stdout.contains("fresh"), "{}", stats.stdout);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn misused_subcommands_exit_with_guidance() {
    // `run` refuses maintenance and planning flags, pointing at the
    // dedicated subcommands.
    let output = Command::new(sweep_bin())
        .args(["run", "--compact"])
        .output()
        .unwrap();
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("sweep store"), "{stderr}");

    let output = Command::new(sweep_bin())
        .args(["run", "--plan", "x.json"])
        .output()
        .unwrap();
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("sweep plan"), "{stderr}");

    // `plan` without a file and `store` without an action both fail with
    // usage, not a panic.
    let output = Command::new(sweep_bin()).args(["plan"]).output().unwrap();
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("manifest file"), "{stderr}");

    let output = Command::new(sweep_bin())
        .args(["store", "frobnicate"])
        .output()
        .unwrap();
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("needs an action"), "{stderr}");
}

/// Runs `sweep` expecting a command-line error: exit status 2.  Returns
/// stderr.
fn run_sweep_expect_usage_error(args: &[&str]) -> String {
    let output = Command::new(sweep_bin()).args(args).output().unwrap();
    let stderr = String::from_utf8(output.stderr).unwrap();
    assert_eq!(output.status.code(), Some(2), "sweep {args:?}: {stderr}");
    stderr
}

#[test]
fn bare_flags_exit_2_naming_every_subcommand() {
    let stderr = run_sweep_expect_usage_error(&[
        "--grid",
        "fig09",
        "--benchmarks",
        "cg",
        "--quiet",
        "--no-disk-cache",
    ]);
    for subcommand in ["run", "plan", "merge", "store", "query", "serve", "trace"] {
        assert!(
            stderr.contains(&format!("sweep {subcommand}")),
            "the usage must name `sweep {subcommand}`: {stderr}"
        );
    }
}

#[test]
fn plan_refuses_flags_only_run_parses() {
    let dir = temp_dir("plan-run-flags");
    let plan = dir.join("plan.json");
    let out = dir.join("rows.jsonl");
    let stderr = run_sweep_expect_usage_error(&[
        "plan",
        plan.to_str().unwrap(),
        "--grid",
        "fig09",
        "--benchmarks",
        "cg",
        "--out",
        out.to_str().unwrap(),
    ]);
    assert!(stderr.contains("--out"), "{stderr}");
    assert!(!plan.exists(), "a refused plan writes no manifest");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_shard_without_a_manifest_points_at_sweep_plan() {
    let stderr = run_sweep_expect_usage_error(&[
        "run",
        "--grid",
        "fig09",
        "--benchmarks",
        "cg",
        "--shard",
        "2/3",
        "--no-disk-cache",
    ]);
    assert!(stderr.contains("--manifest"), "{stderr}");
    assert!(stderr.contains("sweep plan"), "{stderr}");
}

#[test]
fn query_accepts_the_token_forms_serve_accepts() {
    let dir = temp_dir("query-token-forms");
    let cache = dir.join("cache");
    let cache = cache.to_str().unwrap();
    run_sweep(&[
        "run",
        "--grid",
        "fig09",
        "--benchmarks",
        "cg",
        "--quiet",
        "--cache-dir",
        cache,
    ]);
    let spaced = run_sweep(&[
        "query",
        "--by",
        "cycles",
        "--top",
        "1",
        "--cache-dir",
        cache,
        "--quiet",
    ]);
    let joined = run_sweep(&[
        "query",
        "--by=cycles",
        "--top=1",
        "--cache-dir",
        cache,
        "--quiet",
    ]);
    assert_eq!(spaced.stdout.lines().count(), 1, "{}", spaced.stdout);
    assert_eq!(joined.stdout, spaced.stdout);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_refuses_zero_workers() {
    // A server that accepted the flag would start serving and never exit,
    // so the wait is bounded and a survivor is killed.
    let dir = temp_dir("serve-zero-workers");
    let mut child = Command::new(sweep_bin())
        .args(["serve", "--dir", dir.to_str().unwrap()])
        .args(["--addr", "127.0.0.1:0", "--workers", "0"])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break Some(status);
        }
        if std::time::Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            break None;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    };
    let mut stderr = String::new();
    std::io::Read::read_to_string(&mut child.stderr.take().unwrap(), &mut stderr).unwrap();
    assert_eq!(
        status.and_then(|s| s.code()),
        Some(2),
        "--workers 0 must be refused: {stderr}"
    );
    assert!(stderr.contains("bad worker count"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn keep_generations_flag_bounds_the_store() {
    let dir = temp_dir("keep-generations");
    let cache = dir.join("cache");
    let cache = cache.to_str().unwrap();
    let run = |benchmarks: &str| {
        run_sweep(&[
            "run",
            "--benchmarks",
            benchmarks,
            "--designs",
            "baseline",
            "--quiet",
            "--cache-dir",
            cache,
            "--keep-generations",
            "1",
        ])
    };
    // Each run opens a new generation; with --keep-generations 1 the open
    // evicts all but the newest, so the first run's entries are gone.
    run("cg");
    run("lu");
    let rerun = run("cg");
    assert!(
        rerun.stderr.contains("simulated 1"),
        "evicted generation must be re-simulated: {}",
        rerun.stderr
    );

    let output = Command::new(sweep_bin())
        .args(["run", "--keep-generations", "0", "--no-disk-cache"])
        .output()
        .unwrap();
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("bad generation count"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Parses the `simulated N` figure out of the run summary line on stderr.
fn summary_stat(stderr: &str, stat: &str) -> u64 {
    let line = stderr
        .lines()
        .find(|l| l.starts_with("sweep: done"))
        .unwrap_or_else(|| panic!("no summary line in stderr: {stderr}"));
    let tail = line
        .split(&format!("{stat} "))
        .nth(1)
        .unwrap_or_else(|| panic!("summary line lacks `{stat}`: {line}"));
    tail.split([',', ' '])
        .next()
        .unwrap()
        .parse()
        .unwrap_or_else(|_| panic!("unparsable `{stat}` in: {line}"))
}

#[test]
fn observability_artifacts_validate_and_rows_stay_byte_identical() {
    // The whole point of the shim-style tracer: turning both sinks on must
    // not move a single output byte, and the artifacts it writes must
    // reconcile exactly with the summary the engine printed.
    let dir = temp_dir("obs-artifacts");
    let trace = dir.join("trace.jsonl");
    let metrics = dir.join("metrics.json");
    let run = run_sweep(&[
        "run",
        "--grid",
        "fig09",
        "--benchmarks",
        "cg,lu",
        "--cache-dir",
        dir.join("cache").to_str().unwrap(),
        "--trace-out",
        trace.to_str().unwrap(),
        "--metrics-out",
        metrics.to_str().unwrap(),
    ]);
    assert_eq!(
        run.stdout,
        fixture_bytes(),
        "enabling observability sinks must leave the row stream untouched"
    );

    // The trace is strictly schema-valid (the reader rejects anything off).
    let trace_text = std::fs::read_to_string(&trace).unwrap();
    assert!(
        trace_text.starts_with("{\"schema\":\"acmp-obs-trace/v1\"}\n"),
        "trace must open with its schema header"
    );
    let events = acmp_obs::read_trace_values(&trace_text).expect("trace validates");
    assert!(!events.is_empty());
    let span_names: Vec<&str> = events
        .iter()
        .filter_map(|e| match serde::get_field(as_object(e), "kind").ok() {
            Some(serde::Value::String(k)) if k == "span" => {
                match serde::get_field(as_object(e), "name").ok() {
                    Some(serde::Value::String(n)) => Some(n.as_str()),
                    _ => None,
                }
            }
            _ => None,
        })
        .collect();
    for expected in [
        "engine.simulate_cell.simulate",
        "engine.trace_load.generate",
        "pool.worker",
        "store.open",
    ] {
        assert!(
            span_names.contains(&expected),
            "trace lacks `{expected}` spans; saw {span_names:?}"
        );
    }
    // Each cold miss refreshes the index, which finds nothing new to read:
    // this run's own appends are folded as they are written.
    let refreshes: Vec<&serde::Value> = events
        .iter()
        .filter(|e| {
            serde::get_field(as_object(e), "name").ok()
                == Some(&serde::Value::String("store.refresh".to_string()))
        })
        .collect();
    assert_eq!(
        refreshes.len() as u64,
        summary_stat(&run.stderr, "simulated")
    );
    for refresh in refreshes {
        let fields = as_object(serde::get_field(as_object(refresh), "fields").unwrap());
        assert_eq!(
            serde::get_field(fields, "bytes").unwrap(),
            &serde::Value::UInt(0)
        );
    }
    // A cold 2-benchmark × 3-degree grid simulates all six cells.
    let sim_spans = span_names
        .iter()
        .filter(|n| **n == "engine.simulate_cell.simulate")
        .count() as u64;
    assert_eq!(sim_spans, summary_stat(&run.stderr, "simulated"));

    // The metrics snapshot round-trips through its versioned schema and its
    // counters agree with the summary, number for number.
    let metrics_text = std::fs::read_to_string(&metrics).unwrap();
    let value = serde_json::from_str::<serde::Value>(&metrics_text).unwrap();
    let snapshot = acmp_obs::MetricsSnapshot::from_value(&value).expect("metrics validate");
    for (counter, stat) in [
        ("engine.simulated", "simulated"),
        ("engine.memory_hits", "memory-hits"),
        ("engine.disk_hits", "disk-hits"),
        ("engine.trace_generated", "trace-gens"),
    ] {
        assert_eq!(
            snapshot.counter(counter),
            summary_stat(&run.stderr, stat),
            "`{counter}` must reconcile with the stderr summary"
        );
    }

    // Warm rerun: same bytes, and the artifacts now describe disk hits.
    let rerun = run_sweep(&[
        "run",
        "--grid",
        "fig09",
        "--benchmarks",
        "cg,lu",
        "--cache-dir",
        dir.join("cache").to_str().unwrap(),
        "--metrics-out",
        metrics.to_str().unwrap(),
        "--trace-out",
        trace.to_str().unwrap(),
    ]);
    assert_eq!(rerun.stdout, fixture_bytes());
    let value =
        serde_json::from_str::<serde::Value>(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
    let warm = acmp_obs::MetricsSnapshot::from_value(&value).unwrap();
    assert_eq!(warm.counter("engine.simulated"), 0);
    assert_eq!(warm.counter("engine.disk_hits"), 6);

    // The warm open says what it scanned: every segment byte, and the six
    // verified records it indexed.
    let segment_bytes: u64 = std::fs::read_dir(dir.join("cache"))
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "seg"))
        .map(|path| std::fs::metadata(path).unwrap().len())
        .sum();
    let events = acmp_obs::read_trace_values(&std::fs::read_to_string(&trace).unwrap())
        .expect("warm trace validates");
    let open = events
        .iter()
        .find(|e| {
            serde::get_field(as_object(e), "name").ok()
                == Some(&serde::Value::String("store.open".to_string()))
        })
        .expect("the warm trace has a store.open span");
    let fields = as_object(serde::get_field(as_object(open), "fields").unwrap());
    assert_eq!(
        serde::get_field(fields, "records").unwrap(),
        &serde::Value::UInt(6)
    );
    assert_eq!(
        serde::get_field(fields, "bytes").unwrap(),
        &serde::Value::UInt(segment_bytes)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Views a trace event as its field list, panicking on non-objects.
fn as_object(value: &serde::Value) -> &[(String, serde::Value)] {
    match value {
        serde::Value::Object(fields) => fields,
        other => panic!("trace events are objects, got {other}"),
    }
}

#[test]
fn sharded_run_folds_child_artifacts_into_the_parent() {
    // The coordinator must gather every child's trace and metrics before
    // tearing down the shard scratch dir: events come back tagged with
    // their shard, counters come back summed.
    let dir = temp_dir("obs-sharded");
    let trace = dir.join("trace.jsonl");
    let metrics = dir.join("metrics.json");
    let run = run_sweep(&[
        "run",
        "--grid",
        "fig09",
        "--benchmarks",
        "cg,lu",
        "--shards",
        "2",
        "--cache-dir",
        dir.join("cache").to_str().unwrap(),
        "--trace-out",
        trace.to_str().unwrap(),
        "--metrics-out",
        metrics.to_str().unwrap(),
    ]);
    assert_eq!(
        run.stdout,
        fixture_bytes(),
        "sharded observability run must still merge to the fixture bytes"
    );

    let events = acmp_obs::read_trace_values(&std::fs::read_to_string(&trace).unwrap())
        .expect("merged trace validates");
    let mut shards_seen: Vec<String> = events
        .iter()
        .filter_map(|e| match serde::get_field(as_object(e), "shard").ok() {
            Some(serde::Value::String(s)) => Some(s.clone()),
            _ => None,
        })
        .collect();
    shards_seen.sort();
    shards_seen.dedup();
    assert_eq!(
        shards_seen,
        ["1/2", "2/2"],
        "both children's events must arrive shard-tagged"
    );

    let value =
        serde_json::from_str::<serde::Value>(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
    let merged = acmp_obs::MetricsSnapshot::from_value(&value).unwrap();
    // Six cells split across two children; the merged snapshot sums them.
    assert_eq!(
        merged.counter("engine.simulated") + merged.counter("engine.disk_hits"),
        6,
        "merged counters must account for every cell exactly once"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_report_summarises_a_run_and_rejects_corrupt_traces() {
    let dir = temp_dir("obs-report");
    let trace = dir.join("trace.jsonl");
    let metrics = dir.join("metrics.json");
    run_sweep(&[
        "run",
        "--grid",
        "fig09",
        "--benchmarks",
        "cg,lu",
        "--cache-dir",
        dir.join("cache").to_str().unwrap(),
        "--trace-out",
        trace.to_str().unwrap(),
        "--metrics-out",
        metrics.to_str().unwrap(),
        "--quiet",
    ]);

    let report = run_sweep(&[
        "trace",
        "report",
        trace.to_str().unwrap(),
        "--metrics",
        metrics.to_str().unwrap(),
        "--top",
        "3",
    ]);
    for section in [
        "per-phase cost:",
        "slowest cells (top 3):",
        "cache efficiency:",
    ] {
        assert!(
            report.stdout.contains(section),
            "report lacks `{section}`:\n{}",
            report.stdout
        );
    }
    assert!(
        report.stdout.contains("engine.simulate_cell"),
        "report must attribute cost to the simulate-cell phase:\n{}",
        report.stdout
    );

    // A corrupt trace is a hard, line-numbered error — the report doubles
    // as the schema validator CI leans on, so it must not shrug.
    let corrupt = dir.join("corrupt.jsonl");
    let mut text = std::fs::read_to_string(&trace).unwrap();
    text.push_str("{\"not\":\"an event\"}\n");
    std::fs::write(&corrupt, &text).unwrap();
    let stderr = run_sweep_expect_failure(&["trace", "report", corrupt.to_str().unwrap()]);
    assert!(
        stderr.contains("line"),
        "schema violation must name the offending line: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
