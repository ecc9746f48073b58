//! Golden test of the `figures` binary: every table and figure at quick
//! scale, cold and warm, must print exactly the committed
//! `tests/fixtures/figures_quick.txt`, with the engine doing the same work.

use std::path::{Path, PathBuf};
use std::process::Command;

const COLD_ENGINE: &str = "[engine] simulated 84, memory-hits 60, disk-hits 0, trace-gens 6";
const WARM_ENGINE: &str = "[engine] simulated 0, memory-hits 60, disk-hits 84, trace-gens 6";

/// A fresh working directory, so `target/sweep-cache` under it starts cold.
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("figures-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn fixture() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/figures_quick.txt");
    std::fs::read_to_string(path).expect("committed fixture is readable")
}

struct Run {
    stdout: String,
    stderr: String,
}

impl Run {
    /// The `[engine]` summary line the binary logs last.
    fn engine_line(&self) -> &str {
        self.stderr
            .lines()
            .find(|line| line.starts_with("[engine]"))
            .unwrap_or_else(|| panic!("no [engine] line in stderr:\n{}", self.stderr))
    }
}

/// Runs `figures all` at quick scale in `cwd`, expecting success.
fn figures_all(cwd: &Path) -> Run {
    let output = Command::new(env!("CARGO_BIN_EXE_figures"))
        .arg("all")
        .env("FIGURE_SCALE", "quick")
        .current_dir(cwd)
        .output()
        .expect("figures binary runs");
    let run = Run {
        stdout: String::from_utf8(output.stdout).unwrap(),
        stderr: String::from_utf8(output.stderr).unwrap(),
    };
    assert!(
        output.status.success(),
        "figures all failed:\n{}",
        run.stderr
    );
    run
}

fn assert_matches_fixture(run: &Run, what: &str) {
    assert_eq!(
        run.stdout,
        fixture(),
        "{what} output drifted off tests/fixtures/figures_quick.txt — if intentional, \
         regenerate the fixture and say why it changed"
    );
}

#[test]
fn cold_and_warm_runs_print_the_committed_tables() {
    let dir = temp_dir("warm");
    let cold = figures_all(&dir);
    assert_matches_fixture(&cold, "cold");
    assert_eq!(cold.engine_line(), COLD_ENGINE);

    let warm = figures_all(&dir);
    assert_matches_fixture(&warm, "warm");
    assert_eq!(warm.engine_line(), WARM_ENGINE);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_unopenable_store_logs_why_and_runs_without_it() {
    let dir = temp_dir("no-store");
    std::fs::create_dir_all(dir.join("target")).unwrap();
    std::fs::write(dir.join("target/sweep-cache"), "not a store directory").unwrap();

    let run = figures_all(&dir);
    assert_matches_fixture(&run, "store-less");
    assert_eq!(run.engine_line(), COLD_ENGINE);
    let reason = run
        .stderr
        .lines()
        .find(|line| line.contains("cannot open result store"))
        .unwrap_or_else(|| panic!("no store error logged:\n{}", run.stderr));
    let store = Path::new("target").join("sweep-cache");
    assert!(
        reason.contains(&store.display().to_string()),
        "the log names the store path: {reason}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs `figures` with `args` at `scale` in a fresh directory, expecting a
/// refusal: exit 2, nothing on stdout and no result store opened.  Returns
/// the log.
fn refused_run(tag: &str, args: &[&str], scale: &str) -> String {
    let dir = temp_dir(tag);
    let output = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .env("FIGURE_SCALE", scale)
        .current_dir(&dir)
        .output()
        .expect("figures binary runs");
    let stderr = String::from_utf8(output.stderr).unwrap();
    assert_eq!(output.status.code(), Some(2), "stderr:\n{stderr}");
    assert!(output.stdout.is_empty(), "no table is printed");
    assert!(!dir.join("target").exists(), "no result store is opened");
    let _ = std::fs::remove_dir_all(&dir);
    stderr
}

#[test]
fn a_misspelt_scale_exits_2_without_running() {
    let stderr = refused_run("bad-scale", &["table01"], "Quick");
    assert!(
        stderr.contains("`Quick`") && stderr.contains("quick, paper"),
        "the error names the value and the accepted scales: {stderr}"
    );
}

#[test]
fn an_unknown_id_exits_2_before_running_anything() {
    let stderr = refused_run("bad-id", &["all", "bogus"], "quick");
    assert!(
        stderr.contains("`bogus`") && stderr.contains("fig01") && stderr.contains("table01"),
        "the error names the id and lists the valid ones: {stderr}"
    );
}
