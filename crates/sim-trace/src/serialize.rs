//! JSON-lines (de)serialisation of traces.
//!
//! Traces are stored one record per line, preceded by a header line carrying
//! the thread id and a format version.  The format trades compactness for
//! debuggability: synthetic traces in this workspace are usually generated
//! on the fly, so the serialised form is used mainly for golden tests and for
//! exchanging small traces between tools.

use crate::record::TraceRecord;
use crate::source::{ThreadId, ThreadTrace, TraceSet};
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;
use std::io::{BufRead, Write};

/// Current trace file format version.
pub const TRACE_FORMAT_VERSION: u32 = 1;

#[derive(Debug, Serialize, Deserialize)]
struct Header {
    format_version: u32,
    thread: ThreadId,
    num_records: u64,
}

#[derive(Debug, Serialize, Deserialize)]
struct SetHeader {
    format_version: u32,
    num_threads: u64,
}

/// Rejects headers from a different format revision.
fn check_version(format_version: u32) -> Result<(), TraceSerializeError> {
    if format_version == TRACE_FORMAT_VERSION {
        Ok(())
    } else {
        Err(TraceSerializeError::BadHeader(format!(
            "unsupported format version {format_version} (expected {TRACE_FORMAT_VERSION})"
        )))
    }
}

/// Pre-allocation cap for header-promised counts: a lying header must fail
/// through the `Truncated` check, not through a capacity-overflow abort.
fn bounded_capacity(promised: u64) -> usize {
    promised.min(4096) as usize
}

/// Error produced while reading or writing a serialised trace.
#[derive(Debug)]
pub enum TraceSerializeError {
    /// An underlying I/O error.
    Io(std::io::Error),
    /// A line could not be parsed as JSON.
    Json(serde_json::Error),
    /// The file header is missing or has an unsupported version.
    BadHeader(String),
    /// The file ended before the number of records promised by the header.
    Truncated {
        /// Records promised by the header.
        expected: u64,
        /// Records actually present.
        found: u64,
    },
}

impl fmt::Display for TraceSerializeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceSerializeError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceSerializeError::Json(e) => write!(f, "trace json error: {e}"),
            TraceSerializeError::BadHeader(msg) => write!(f, "bad trace header: {msg}"),
            TraceSerializeError::Truncated { expected, found } => write!(
                f,
                "truncated trace: header promised {expected} records, found {found}"
            ),
        }
    }
}

impl Error for TraceSerializeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TraceSerializeError::Io(e) => Some(e),
            TraceSerializeError::Json(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TraceSerializeError {
    fn from(e: std::io::Error) -> Self {
        TraceSerializeError::Io(e)
    }
}

impl From<serde_json::Error> for TraceSerializeError {
    fn from(e: serde_json::Error) -> Self {
        TraceSerializeError::Json(e)
    }
}

/// Writes `trace` to `writer` in JSON-lines format.
///
/// # Errors
///
/// Returns an error if writing or JSON encoding fails.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use sim_trace::{read_trace_json, write_trace_json, TraceBuilder};
///
/// let mut b = TraceBuilder::new(0);
/// b.instr(0x100, 4);
/// let trace = b.finish();
///
/// let mut buf = Vec::new();
/// write_trace_json(&trace, &mut buf)?;
/// let back = read_trace_json(&buf[..])?;
/// assert_eq!(trace, back);
/// # Ok(())
/// # }
/// ```
pub fn write_trace_json<W: Write>(
    trace: &ThreadTrace,
    mut writer: W,
) -> Result<(), TraceSerializeError> {
    let header = Header {
        format_version: TRACE_FORMAT_VERSION,
        thread: trace.thread(),
        num_records: trace.len() as u64,
    };
    serde_json::to_writer(&mut writer, &header)?;
    writer.write_all(b"\n")?;
    for rec in trace.records() {
        serde_json::to_writer(&mut writer, rec)?;
        writer.write_all(b"\n")?;
    }
    Ok(())
}

/// Reads a trace previously written by [`write_trace_json`].
///
/// # Errors
///
/// Returns an error if the header is missing/unsupported, a line cannot be
/// parsed, or the file is truncated.
pub fn read_trace_json<R: BufRead>(reader: R) -> Result<ThreadTrace, TraceSerializeError> {
    let mut lines = reader.lines();
    let header_line = lines
        .next()
        .ok_or_else(|| TraceSerializeError::BadHeader("empty input".to_string()))??;
    let header: Header = serde_json::from_str(&header_line)
        .map_err(|e| TraceSerializeError::BadHeader(e.to_string()))?;
    check_version(header.format_version)?;

    let mut records: Vec<TraceRecord> = Vec::with_capacity(bounded_capacity(header.num_records));
    for line in lines {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        records.push(serde_json::from_str(&line)?);
    }
    if (records.len() as u64) < header.num_records {
        return Err(TraceSerializeError::Truncated {
            expected: header.num_records,
            found: records.len() as u64,
        });
    }
    Ok(ThreadTrace::from_records(header.thread, records))
}

/// Writes a whole [`TraceSet`] to `writer`: a set header line carrying the
/// thread count, followed by each per-thread trace in
/// [`write_trace_json`]'s format.  The sweep engine keeps trace sets in
/// memory; older sweep stores hold them in this representation, and
/// perfbench's traced run times trace encoding with it.
///
/// # Errors
///
/// Returns an error if writing or JSON encoding fails.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use sim_trace::{read_trace_set_json, write_trace_set_json, TraceBuilder, TraceSet};
///
/// let mut b = TraceBuilder::new(0);
/// b.instr(0x100, 4);
/// let set = TraceSet::new(vec![b.finish()]);
///
/// let mut buf = Vec::new();
/// write_trace_set_json(&set, &mut buf)?;
/// assert_eq!(String::from_utf8(buf.clone())?.lines().count(), 3);
/// assert_eq!(read_trace_set_json(&buf[..])?, set);
/// # Ok(())
/// # }
/// ```
pub fn write_trace_set_json<W: Write>(
    set: &TraceSet,
    mut writer: W,
) -> Result<(), TraceSerializeError> {
    let header = SetHeader {
        format_version: TRACE_FORMAT_VERSION,
        num_threads: set.num_threads() as u64,
    };
    serde_json::to_writer(&mut writer, &header)?;
    writer.write_all(b"\n")?;
    for trace in set {
        write_trace_json(trace, &mut writer)?;
    }
    Ok(())
}

/// Reads a trace set previously written by [`write_trace_set_json`].
///
/// Unlike [`read_trace_json`], each thread section is bounded by the record
/// count its header promises, so the sections need no separators.
///
/// # Errors
///
/// Returns an error if a header is missing/unsupported, a line cannot be
/// parsed, or the input ends before the promised threads/records.
pub fn read_trace_set_json<R: BufRead>(reader: R) -> Result<TraceSet, TraceSerializeError> {
    let mut lines = reader.lines();
    let header_line = lines
        .next()
        .ok_or_else(|| TraceSerializeError::BadHeader("empty input".to_string()))??;
    let header: SetHeader = serde_json::from_str(&header_line)
        .map_err(|e| TraceSerializeError::BadHeader(e.to_string()))?;
    check_version(header.format_version)?;
    let mut traces = Vec::with_capacity(bounded_capacity(header.num_threads));
    for _ in 0..header.num_threads {
        traces.push(read_one_trace(&mut lines)?);
    }
    Ok(TraceSet::new(traces))
}

/// Reads one thread section (header plus exactly the promised number of
/// record lines) from a line stream.
fn read_one_trace<I>(lines: &mut I) -> Result<ThreadTrace, TraceSerializeError>
where
    I: Iterator<Item = std::io::Result<String>>,
{
    let header_line = lines.next().ok_or(TraceSerializeError::Truncated {
        expected: 1,
        found: 0,
    })??;
    let header: Header = serde_json::from_str(&header_line)
        .map_err(|e| TraceSerializeError::BadHeader(e.to_string()))?;
    check_version(header.format_version)?;
    let mut records: Vec<TraceRecord> = Vec::with_capacity(bounded_capacity(header.num_records));
    while (records.len() as u64) < header.num_records {
        let line = lines.next().ok_or(TraceSerializeError::Truncated {
            expected: header.num_records,
            found: records.len() as u64,
        })??;
        if line.trim().is_empty() {
            continue;
        }
        records.push(serde_json::from_str(&line)?);
    }
    Ok(ThreadTrace::from_records(header.thread, records))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::TraceBuilder;
    use crate::SyncEvent;

    fn sample_trace() -> ThreadTrace {
        let mut b = TraceBuilder::new(2);
        b.set_ipc(1.5);
        b.sync(SyncEvent::ParallelStart { num_threads: 8 });
        b.basic_block(0x4000, 6, 0x4000, true);
        b.branch(0x5000, 4, 0x6000, false);
        b.sync(SyncEvent::Barrier { id: 7 });
        b.sync(SyncEvent::ParallelEnd);
        b.finish()
    }

    #[test]
    fn roundtrip_preserves_trace() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_trace_json(&t, &mut buf).unwrap();
        let back = read_trace_json(&buf[..]).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn empty_input_is_bad_header() {
        let err = read_trace_json(&b""[..]).unwrap_err();
        assert!(matches!(err, TraceSerializeError::BadHeader(_)));
        assert!(err.to_string().contains("bad trace header"));
    }

    #[test]
    fn wrong_version_is_rejected() {
        let input = format!(
            "{}\n",
            serde_json::json!({"format_version": 99, "thread": 0, "num_records": 0})
        );
        let err = read_trace_json(input.as_bytes()).unwrap_err();
        assert!(matches!(err, TraceSerializeError::BadHeader(_)));
    }

    #[test]
    fn truncated_file_is_detected() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_trace_json(&t, &mut buf).unwrap();
        // Drop the last record line.
        let text = String::from_utf8(buf).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        lines.pop();
        let truncated = lines.join("\n");
        let err = read_trace_json(truncated.as_bytes()).unwrap_err();
        assert!(matches!(err, TraceSerializeError::Truncated { .. }));
        assert!(err.to_string().contains("truncated"));
    }

    #[test]
    fn garbage_line_is_json_error() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_trace_json(&t, &mut buf).unwrap();
        let mut text = String::from_utf8(buf).unwrap();
        text.push_str("not json\n");
        let err = read_trace_json(text.as_bytes()).unwrap_err();
        assert!(matches!(err, TraceSerializeError::Json(_)));
        assert!(std::error::Error::source(&err).is_some());
    }

    fn sample_set() -> TraceSet {
        let mut t0 = TraceBuilder::new(0);
        t0.instr(0x100, 4);
        t0.sync(SyncEvent::ParallelStart { num_threads: 2 });
        t0.sync(SyncEvent::ParallelEnd);
        let mut t1 = TraceBuilder::new(1);
        t1.basic_block(0x2000, 5, 0x2000, false);
        TraceSet::new(vec![t0.finish(), t1.finish()])
    }

    #[test]
    fn set_roundtrip_preserves_every_thread() {
        let set = sample_set();
        let mut buf = Vec::new();
        write_trace_set_json(&set, &mut buf).unwrap();
        let back = read_trace_set_json(&buf[..]).unwrap();
        assert_eq!(set, back);
    }

    #[test]
    fn empty_set_round_trips() {
        let set = TraceSet::new(vec![]);
        let mut buf = Vec::new();
        write_trace_set_json(&set, &mut buf).unwrap();
        assert_eq!(read_trace_set_json(&buf[..]).unwrap().num_threads(), 0);
    }

    #[test]
    fn set_missing_threads_is_truncated() {
        let set = sample_set();
        let mut buf = Vec::new();
        write_trace_set_json(&set, &mut buf).unwrap();
        // Drop thread 1 entirely (its header and its single record line).
        let text = String::from_utf8(buf).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        lines.truncate(lines.len() - 2);
        let err = read_trace_set_json(lines.join("\n").as_bytes()).unwrap_err();
        assert!(
            matches!(err, TraceSerializeError::Truncated { .. }),
            "{err}"
        );
    }

    #[test]
    fn absurd_header_counts_fail_cleanly_without_allocating() {
        // A lying header must surface as Truncated, not as a
        // capacity-overflow abort in Vec::with_capacity.
        let input = format!(
            "{}\n",
            serde_json::json!({"format_version": 1, "num_threads": u64::MAX})
        );
        let err = read_trace_set_json(input.as_bytes()).unwrap_err();
        assert!(
            matches!(err, TraceSerializeError::Truncated { .. }),
            "{err}"
        );

        let input = format!(
            "{}\n{}\n",
            serde_json::json!({"format_version": 1, "num_threads": 1}),
            serde_json::json!({"format_version": 1, "thread": 0, "num_records": u64::MAX})
        );
        let err = read_trace_set_json(input.as_bytes()).unwrap_err();
        assert!(
            matches!(err, TraceSerializeError::Truncated { .. }),
            "{err}"
        );

        let input = format!(
            "{}\n",
            serde_json::json!({"format_version": 1, "thread": 0, "num_records": u64::MAX})
        );
        let err = read_trace_json(input.as_bytes()).unwrap_err();
        assert!(
            matches!(err, TraceSerializeError::Truncated { .. }),
            "{err}"
        );
    }

    #[test]
    fn set_wrong_version_is_rejected() {
        let input = format!(
            "{}\n",
            serde_json::json!({"format_version": 99, "num_threads": 0})
        );
        let err = read_trace_set_json(input.as_bytes()).unwrap_err();
        assert!(matches!(err, TraceSerializeError::BadHeader(_)));
        assert!(read_trace_set_json(&b""[..]).is_err());
    }

    #[test]
    fn blank_lines_are_ignored() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_trace_json(&t, &mut buf).unwrap();
        let mut text = String::from_utf8(buf).unwrap();
        text.push('\n');
        let back = read_trace_json(text.as_bytes()).unwrap();
        assert_eq!(t, back);
    }

    fn written(set: &TraceSet) -> String {
        let mut buf = Vec::new();
        write_trace_set_json(set, &mut buf).unwrap();
        String::from_utf8(buf).unwrap()
    }

    #[test]
    fn a_two_thread_set_is_written_byte_for_byte() {
        let mut t0 = TraceBuilder::new(0);
        t0.set_ipc(1.5)
            .instr(0x100, 4)
            .sync(SyncEvent::ParallelStart { num_threads: 2 });
        let mut t1 = TraceBuilder::new(1);
        t1.branch(0x2000, 4, 0x2040, true)
            .sync(SyncEvent::Barrier { id: 7 });
        let set = TraceSet::new(vec![t0.finish(), t1.finish()]);
        assert_eq!(
            written(&set),
            concat!(
                "{\"format_version\":1,\"num_threads\":2}\n",
                "{\"format_version\":1,\"thread\":0,\"num_records\":3}\n",
                "{\"SetIpc\":{\"ipc\":1.5}}\n",
                "{\"Instr\":{\"addr\":256,\"len\":4}}\n",
                "{\"Sync\":{\"ParallelStart\":{\"num_threads\":2}}}\n",
                "{\"format_version\":1,\"thread\":1,\"num_records\":2}\n",
                "{\"Branch\":{\"addr\":8192,\"len\":4,",
                "\"info\":{\"target\":8256,\"taken\":true,\"indirect\":false}}}\n",
                "{\"Sync\":{\"Barrier\":{\"id\":7}}}\n",
            )
        );
    }

    #[test]
    fn an_empty_set_is_its_header_line() {
        assert_eq!(
            written(&TraceSet::new(vec![])),
            "{\"format_version\":1,\"num_threads\":0}\n"
        );
    }
}
