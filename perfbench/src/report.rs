//! Result documents: a minimal JSON writer, the host context every result
//! carries, and the process's peak resident set.

use std::fmt::Write as _;
use std::process::Command;

/// A JSON value, enough for result documents.
#[derive(Debug, Clone)]
pub enum Json {
    Bool(bool),
    Num(f64),
    Int(u64),
    Str(String),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    #[must_use]
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Appends `key: value` to an object (no-op on other variants).
    #[must_use]
    pub fn with(mut self, key: &str, value: impl Into<Json>) -> Json {
        if let Json::Obj(fields) = &mut self {
            fields.push((key.to_string(), value.into()));
        }
        self
    }

    /// Renders compact JSON.  Numbers keep every digit (shortest
    /// round-trip form); a non-finite number, which JSON cannot carry, is
    /// written as the largest finite double.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Num(x) => {
                let x = if x.is_finite() { *x } else { f64::MAX };
                if x.abs() >= 1e15 {
                    let _ = write!(out, "{x:e}");
                } else if x.fract() == 0.0 {
                    let _ = write!(out, "{x:.1}");
                } else {
                    let _ = write!(out, "{x}");
                }
            }
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(k.clone()).write(out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}
impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}
impl From<u64> for Json {
    fn from(i: u64) -> Json {
        Json::Int(i)
    }
}
impl From<usize> for Json {
    fn from(i: usize) -> Json {
        Json::Int(i as u64)
    }
}
impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

fn first_line(text: &str) -> String {
    text.lines().next().unwrap_or("").trim().to_string()
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).into_owned())
}

/// The host and build a result was measured on.
#[must_use]
pub fn host_context() -> Json {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu_model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or_else(|| "unknown".to_string(), |(_, m)| m.trim().to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |k| first_line(&k));
    let cpus = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    // Outside a git checkout both probes fail and say so.
    let revision = command_line("git", &["rev-parse", "HEAD"])
        .map_or_else(|| "unknown".to_string(), |r| first_line(&r));
    let dirty: Json = match command_line("git", &["status", "--porcelain", "--untracked-files=no"])
    {
        Some(status) => Json::Bool(!status.trim().is_empty()),
        None => Json::Str("unknown".to_string()),
    };
    Json::obj()
        .with("cpus", cpus)
        .with("cpu_model", cpu_model)
        .with("kernel", kernel)
        .with("rustc", env!("PERFBENCH_RUSTC"))
        .with("git_revision", revision)
        .with("git_dirty", dirty)
}

fn status_kib(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with(field))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// The process's peak resident set in MiB since start or the last
/// [`reset_peak_rss`].
#[must_use]
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:").unwrap_or(0) as f64 / 1024.0
}

/// Resets the peak resident set to the current one, so the next
/// [`peak_rss_mib`] covers only what runs after.  Returns whether the
/// kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_renders_every_digit_and_escapes() {
        let doc = Json::obj()
            .with("a", 1.203_4_f64)
            .with("b", 3u64)
            .with("c", "x\"y")
            .with("d", 2.0f64)
            .with("e", f64::INFINITY);
        assert_eq!(
            doc.render(),
            "{\"a\":1.2034,\"b\":3,\"c\":\"x\\\"y\",\"d\":2.0,\"e\":1.7976931348623157e308}"
        );
    }
}
