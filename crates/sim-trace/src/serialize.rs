//! Write-only JSON-lines encoding of traces.
//!
//! A trace set is written as a set header line carrying the thread count,
//! then each thread's section: a header line with the thread id and record
//! count, then one record per line, all tagged with a format version.
//! Nothing in this workspace reads traces back (the simulator generates
//! them in memory); perfbench's traced run times this encoding.

use crate::source::{ThreadId, ThreadTrace, TraceSet};
use serde::Serialize;
use std::error::Error;
use std::fmt;
use std::io::Write;

/// Current trace file format version.
pub const TRACE_FORMAT_VERSION: u32 = 1;

#[derive(Debug, Serialize)]
struct Header {
    format_version: u32,
    thread: ThreadId,
    num_records: u64,
}

#[derive(Debug, Serialize)]
struct SetHeader {
    format_version: u32,
    num_threads: u64,
}

/// Error produced while writing a serialised trace.
#[derive(Debug)]
pub enum TraceSerializeError {
    /// An underlying I/O error.
    Io(std::io::Error),
    /// A record could not be encoded as JSON.
    Json(serde_json::Error),
}

impl fmt::Display for TraceSerializeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceSerializeError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceSerializeError::Json(e) => write!(f, "trace json error: {e}"),
        }
    }
}

impl Error for TraceSerializeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TraceSerializeError::Io(e) => Some(e),
            TraceSerializeError::Json(e) => Some(e),
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

/// Writes one thread's section: its header line, then one line per record.
fn write_trace_json<W: Write>(
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

/// Writes a whole [`TraceSet`] to `writer`: a set header line carrying the
/// thread count, followed by each thread's header line and record lines.
/// The sweep engine keeps trace sets in memory; older sweep stores hold
/// them in this representation, and perfbench's traced run times trace
/// encoding with it.
///
/// # Errors
///
/// Returns an error if writing or JSON encoding fails.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use sim_trace::{write_trace_set_json, TraceBuilder, TraceSet};
///
/// let mut b = TraceBuilder::new(0);
/// b.instr(0x100, 4);
/// let set = TraceSet::new(vec![b.finish()]);
///
/// let mut buf = Vec::new();
/// write_trace_set_json(&set, &mut buf)?;
/// assert_eq!(
///     String::from_utf8(buf)?,
///     concat!(
///         "{\"format_version\":1,\"num_threads\":1}\n",
///         "{\"format_version\":1,\"thread\":0,\"num_records\":1}\n",
///         "{\"Instr\":{\"addr\":256,\"len\":4}}\n",
///     )
/// );
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{RecordSink, TraceBuilder};
    use crate::{BranchInfo, InstrAddr, SyncEvent, TraceRecord};

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
    fn every_sync_event_and_an_indirect_branch_are_written_by_name() {
        let mut t = TraceBuilder::new(0);
        t.sync(SyncEvent::CriticalWait { id: 1 })
            .sync(SyncEvent::CriticalSignal { id: 1 })
            .sync(SyncEvent::ParallelEnd);
        let mut t = t.finish();
        t.push(TraceRecord::Branch {
            addr: InstrAddr::new(0x10),
            len: 2,
            info: BranchInfo {
                target: InstrAddr::new(0x20),
                taken: false,
                indirect: true,
            },
        });
        assert_eq!(
            written(&TraceSet::new(vec![t])),
            concat!(
                "{\"format_version\":1,\"num_threads\":1}\n",
                "{\"format_version\":1,\"thread\":0,\"num_records\":4}\n",
                "{\"Sync\":{\"CriticalWait\":{\"id\":1}}}\n",
                "{\"Sync\":{\"CriticalSignal\":{\"id\":1}}}\n",
                "{\"Sync\":\"ParallelEnd\"}\n",
                "{\"Branch\":{\"addr\":16,\"len\":2,",
                "\"info\":{\"target\":32,\"taken\":false,\"indirect\":true}}}\n",
            )
        );
    }

    #[test]
    fn a_thread_with_no_records_is_its_header_line() {
        let set = TraceSet::new(vec![ThreadTrace::new(ThreadId(0))]);
        assert_eq!(
            written(&set),
            concat!(
                "{\"format_version\":1,\"num_threads\":1}\n",
                "{\"format_version\":1,\"thread\":0,\"num_records\":0}\n",
            )
        );
    }

    #[test]
    fn a_failing_writer_reports_its_error() {
        /// Fails every write, or only the line breaks.
        struct Failing {
            only_newlines: bool,
        }
        impl Write for Failing {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                if self.only_newlines && buf != b"\n" {
                    return Ok(buf.len());
                }
                Err(std::io::Error::other("disk full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let set = TraceSet::new(vec![]);
        let fail =
            |only_newlines| write_trace_set_json(&set, Failing { only_newlines }).unwrap_err();
        let err = fail(true);
        assert!(matches!(err, TraceSerializeError::Io(_)), "{err:?}");
        assert_eq!(err.to_string(), "trace i/o error: disk full");
        // A failure inside a line's encoding comes back through the encoder.
        let err = fail(false);
        assert!(matches!(err, TraceSerializeError::Json(_)), "{err:?}");
        assert!(err.to_string().contains("disk full"), "{err}");
        assert!(err.source().is_some());
    }

    #[test]
    fn an_empty_set_is_its_header_line() {
        assert_eq!(
            written(&TraceSet::new(vec![])),
            "{\"format_version\":1,\"num_threads\":0}\n"
        );
    }
}
