//! The repository's benchmark: three workloads through the public APIs of
//! `acmp-sweep`, `acmp-store`, `hpc-workloads` and the `sim-*` crates,
//! measured end to end (`--trace 0`) or layer by layer (`--trace 1`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold_sweep|paper_sim|warm_reads [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Every line but the last is context for a human; the last line is the
//! result: `{"correct", "attempted", "failed", "metrics"}`.  See
//! `perfbench/README.md` for the workloads and metric definitions.

mod client;
mod golden;
mod layers;
mod report;
mod speed;
mod stats;
mod timed;
mod traced;
mod workload;

use report::Json;
use std::time::Duration;
use workload::{Scratch, Workload, CLIENTS, DEFAULT_SEED, POOL_WORKERS};

/// The end-to-end metrics every workload reports with `--trace 0`.
pub const END_TO_END: [(&str, &str); 3] = [
    ("cells_per_s", "cells/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// A run that has not finished by then is stopped and reports nothing.
const WATCHDOG: Duration = Duration::from_secs(170);

/// What one run measured, and how its operations went.
#[derive(Debug, Default)]
pub struct Outcome {
    attempted: u64,
    failed: u64,
    /// `(name, value, unit, samples behind the value)`.
    metrics: Vec<(String, f64, String, usize)>,
    /// End-to-end figures of one workload's own phases, `(name, value,
    /// unit)`, reported beside the metrics.
    figures: Vec<(String, f64, String)>,
    /// Context beside the metrics (digests, phase statistics).
    detail: Vec<(String, Json)>,
}

impl Outcome {
    /// Counts one operation, failed unless `ok`.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Counts `attempted` operations of which `failed` failed.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Reports a metric measured over `samples` values.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str, samples: usize) {
        self.metrics
            .push((name.to_string(), value, unit.to_string(), samples));
    }

    /// Reports an end-to-end figure that only this workload has.
    pub fn figure(&mut self, name: &str, value: f64, unit: &str) {
        self.figures
            .push((name.to_string(), value, unit.to_string()));
    }

    /// Adds a context entry.
    pub fn detail(&mut self, key: &str, value: impl Into<Json>) {
        self.detail.push((key.to_string(), value.into()));
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perfbench --workload {} [--seed N] [--seconds S] [--trace 0|1]",
        names.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|_| "bad --seed".to_string())?,
            "--seconds" => {
                seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or("bad --seconds")?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn context(args: &Args, outcome: &Outcome) -> Json {
    let generator = args.workload.generator(args.seed);
    let mut samples = Json::obj();
    for (name, _, _, n) in &outcome.metrics {
        samples = samples.with(name, *n);
    }
    let mut figures = Json::obj();
    for (name, value, unit) in &outcome.figures {
        figures = figures.with(name, value_with_unit(*value, unit));
    }
    let mut detail = Json::obj();
    for (key, value) in &outcome.detail {
        detail = detail.with(key, value.clone());
    }
    Json::obj()
        .with("host", report::host_context())
        .with("workload", args.workload.name())
        .with("trace", args.trace)
        .with("seed", args.seed)
        .with("seconds", args.seconds)
        .with("scale", args.workload.scale())
        .with(
            "generator",
            Json::obj()
                .with("num_workers", generator.num_workers)
                .with(
                    "parallel_instructions_per_thread",
                    generator.parallel_instructions_per_thread,
                )
                .with("num_phases", u64::from(generator.num_phases))
                .with("seed", generator.seed),
        )
        .with("pool_workers", POOL_WORKERS)
        .with("client_connections", CLIENTS)
        .with("caches", "every simulated cache starts empty in every cell")
        .with("samples", samples)
        .with("figures", figures)
        .with("detail", detail)
}

fn value_with_unit(value: f64, unit: &str) -> Json {
    Json::obj().with("value", value).with("unit", unit)
}

fn result_line(outcome: &Outcome) -> Json {
    let mut metrics = Json::obj();
    for (name, value, unit, _) in &outcome.metrics {
        metrics = metrics.with(name, value_with_unit(*value, unit));
    }
    Json::obj()
        .with("correct", outcome.failed == 0 && outcome.attempted > 0)
        .with("attempted", outcome.attempted)
        .with("failed", outcome.failed)
        .with("metrics", metrics)
}

#[allow(clippy::print_stderr)]
fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{}", usage());
            std::process::exit(2);
        }
    };
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("perfbench: still running after {WATCHDOG:?}; giving up");
        std::process::exit(3);
    });
    let scratch = match Scratch::new() {
        Ok(scratch) => scratch,
        Err(e) => {
            eprintln!("perfbench: cannot create the scratch directory: {e}");
            std::process::exit(1);
        }
    };
    let outcome = if args.trace {
        traced::run(args.workload, args.seed, args.seconds, &scratch)
    } else {
        timed::run(args.workload, args.seed, args.seconds, &scratch)
    };
    drop(scratch);
    println!("{}", context(&args, &outcome).render());
    println!("{}", result_line(&outcome).render());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn arguments_parse_with_defaults() {
        let args = parse_args(&strings(&["--workload", "paper_sim"])).unwrap();
        assert_eq!(args.workload, Workload::PaperSim);
        assert_eq!(args.seed, DEFAULT_SEED);
        assert!(!args.trace);
        let args = parse_args(&strings(&[
            "--workload",
            "warm_reads",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!((args.seed, args.seconds, args.trace), (7, 3.0, true));
        assert!(parse_args(&strings(&["--workload", "nope"])).is_err());
        assert!(parse_args(&strings(&["--seed", "1"])).is_err());
        assert!(parse_args(&strings(&["--workload", "cold_sweep", "--trace", "2"])).is_err());
    }

    #[test]
    fn benchmark_json_declares_every_metric_the_code_emits() {
        let doc = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(layers::PER_LAYER) {
            let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
            assert!(doc.contains(&entry), "BENCHMARK.json lacks {name} ({unit})");
        }
        let declared = doc.matches("\"better\"").count();
        assert_eq!(declared, END_TO_END.len() + layers::PER_LAYER.len());
        for workload in Workload::ALL {
            assert!(doc.contains(&format!("\"name\": \"{}\"", workload.name())));
        }
    }

    #[test]
    fn a_failed_op_makes_the_run_incorrect() {
        let mut outcome = Outcome::default();
        outcome.op(true);
        assert_eq!(
            result_line(&outcome).render().find("\"correct\":true"),
            Some(1)
        );
        outcome.op(false);
        let line = result_line(&outcome).render();
        assert!(line.starts_with("{\"correct\":false,\"attempted\":2,\"failed\":1"));
    }
}
