//! Deterministic merging of per-shard JSONL row streams.
//!
//! A sharded sweep splits one grid across processes by stable job-key
//! digest ([`ShardSpec`]); each shard sorts its rows by line bytes before
//! emitting them, and — because every row starts with the fixed-width hex
//! job key — that byte order *is* digest order.  A k-way merge on the same
//! ordering ([`merge_validated`]) recombines the per-shard streams into
//! output byte-identical to the stream an unsharded run would have
//! produced.
//!
//! The merge is validating, not trusting.  Every shard stream is first
//! checked against its expected digest-ordered key schedule (the one a
//! [`SweepManifest`](crate::SweepManifest) records, derived by
//! [`shard_key_schedule`]) with [`validate_shard_stream`]: every line must
//! be a well-formed row carrying exactly the next scheduled key.  A
//! truncated file, a corrupt line, a duplicated, missing or reordered row
//! — any way a shard stream can disagree with its schedule — fails
//! validation, and callers merge only once every stream has passed, so no
//! partial result is ever emitted.  Streams are consumed through
//! `BufRead`, so rows arriving over sockets rather than from local files
//! need no format change.

use crate::job::{JobKey, ShardSpec};
use std::io::{BufRead, Write};

/// Why a merge failed.
#[derive(Debug)]
pub enum MergeError {
    /// Reading a shard stream or writing the merged output failed.
    Io(std::io::Error),
    /// A shard stream disagreed with its expected key schedule.
    Corrupt {
        /// 1-based index of the offending shard stream.
        shard: usize,
        /// What disagreed.
        message: String,
    },
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeError::Io(e) => write!(f, "merge I/O failed: {e}"),
            MergeError::Corrupt { shard, message } => {
                write!(f, "shard {shard} row stream is corrupt: {message}")
            }
        }
    }
}

impl std::error::Error for MergeError {}

impl From<std::io::Error> for MergeError {
    fn from(e: std::io::Error) -> Self {
        MergeError::Io(e)
    }
}

/// The fixed-width hex job key at the head of a well-formed JSONL row
/// (`{"key":"<16 lowercase hex>",…}`), or `None` for anything else.
#[must_use]
pub fn row_key(line: &str) -> Option<&str> {
    let rest = line.strip_prefix("{\"key\":\"")?;
    let key = rest.get(..16)?;
    if !key
        .bytes()
        .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
    {
        return None;
    }
    if rest.as_bytes().get(16) != Some(&b'"') || !line.ends_with('}') {
        return None;
    }
    Some(key)
}

/// The expected key schedule of every shard in a `count`-way split of
/// `keys`: element `i` holds exactly the hex keys of the jobs shard
/// `i+1/count` owns, sorted — the order that shard's emitted rows must
/// follow.
#[must_use]
pub fn shard_key_schedule(keys: &[JobKey], count: u32) -> Vec<Vec<String>> {
    ShardSpec::all(count)
        .map(|shard| {
            let mut own: Vec<String> = keys
                .iter()
                .filter(|key| shard.owns(key.digest()))
                .map(JobKey::hex)
                .collect();
            own.sort_unstable();
            own
        })
        .collect()
}

/// K-way merges already-validated per-shard row buffers (as returned by
/// [`validate_shard_stream`]) into `sink`, returning the rows written.
/// Validation and merging are split so a caller can first check *every*
/// stream — reporting all missing or short shards at once — and only then
/// produce output.
///
/// # Errors
///
/// Returns the I/O error if writing `sink` fails.
pub fn merge_validated<W: Write>(buffered: &[Vec<String>], sink: &mut W) -> std::io::Result<u64> {
    // Shards own disjoint digests, so cross-stream key ties can only come
    // from the same shard (a grid listing one cell twice) and the merge
    // order is fully determined by byte comparison.
    let mut cursors = vec![0usize; buffered.len()];
    let mut rows = 0u64;
    loop {
        let mut best: Option<usize> = None;
        for (i, lines) in buffered.iter().enumerate() {
            let Some(line) = lines.get(cursors[i]) else {
                continue;
            };
            best = match best {
                Some(b) if buffered[b][cursors[b]] <= *line => Some(b),
                _ => Some(i),
            };
        }
        let Some(i) = best else { break };
        writeln!(sink, "{}", buffered[i][cursors[i]])?;
        cursors[i] += 1;
        rows += 1;
    }
    Ok(rows)
}

/// Reads one shard stream fully, validating it line-by-line against its
/// schedule, and returns its rows.  `shard` is 1-based, for messages.
/// Each shard file is checked on its own, so a caller can report every
/// problem (missing rows, foreign rows, CRLF damage) before deciding
/// whether any output may be written.
///
/// What is (and is not) caught: every structural way a stream can be
/// damaged — truncation (including a lost final newline: rows must be
/// newline-terminated, never silently re-terminated), CRLF translation,
/// non-UTF-8 bytes, rows that are not well-formed JSON objects carrying
/// their own key, and any disagreement with the schedule (foreign,
/// duplicated, reordered or missing rows).  Rows carry no checksum, so a
/// bit flip *inside* a value that still leaves valid JSON (e.g. one digit
/// of a cycle count) is indistinguishable from a legitimate row; transfers
/// that need byte-level integrity ship the store bundle (`sweep store
/// export`), whose records are individually checksummed and digest-sealed.
///
/// # Errors
///
/// [`MergeError::Corrupt`] when a stream disagrees with its schedule,
/// [`MergeError::Io`] when reading it fails.
pub fn validate_shard_stream<R: BufRead>(
    shard: usize,
    stream: R,
    schedule: &[String],
) -> Result<Vec<String>, MergeError> {
    let mut span = acmp_obs::span!(acmp_obs::names::MERGE_VALIDATE_SHARD, shard = shard);
    let corrupt = |message: String| MergeError::Corrupt { shard, message };
    let mut lines: Vec<String> = Vec::with_capacity(schedule.len());
    let mut stream = stream;
    let mut buf: Vec<u8> = Vec::new();
    loop {
        // Raw `read_until`, not `BufRead::lines`: `lines` silently strips a
        // `\r\n`, which would let a CRLF-translated stream merge into
        // LF-normalised output — "repairing" bytes the merge promises to
        // reproduce exactly.  A rewritten stream must fail, not be fixed.
        buf.clear();
        if stream.read_until(b'\n', &mut buf)? == 0 {
            break;
        }
        let row = lines.len() + 1;
        let mut bytes = buf.as_slice();
        match bytes.last() {
            Some(&b'\n') => bytes = &bytes[..bytes.len() - 1],
            // The writer newline-terminates every row, so an unterminated
            // tail is a truncation — even when the remaining bytes happen
            // to still look like a row (a cut inside the final row can
            // leave a shorter-but-valid JSON prefix).  Re-terminating it
            // would repair bytes the merge promises to reproduce exactly.
            _ => {
                return Err(corrupt(format!(
                    "row {row} is truncated (stream ends without a newline)"
                )))
            }
        }
        if bytes.last() == Some(&b'\r') {
            return Err(corrupt(format!(
                "row {row} carries a CRLF line ending (stream was rewritten in transit)"
            )));
        }
        let Ok(line) = std::str::from_utf8(bytes).map(str::to_string) else {
            return Err(corrupt(format!("row {row} is not valid UTF-8")));
        };
        let Some(key) = row_key(&line) else {
            return Err(corrupt(format!("row {row} is not a well-formed row")));
        };
        // The whole line must parse as a JSON object whose embedded key
        // matches the prefix `row_key` saw: catches damage deeper in the
        // row than the cheap prefix/suffix shape check can see.
        let parsed_key = serde_json::from_str::<serde::Value>(&line)
            .ok()
            .and_then(|envelope| {
                envelope
                    .as_object()
                    .and_then(|fields| serde::get_field(fields, "key").ok().cloned())
            })
            .and_then(|v| v.as_str().map(str::to_string));
        if parsed_key.as_deref() != Some(key) {
            return Err(corrupt(format!("row {row} is not a well-formed row")));
        }
        let Some(want) = schedule.get(lines.len()) else {
            return Err(corrupt(format!(
                "stream carries more rows than its {} scheduled",
                schedule.len()
            )));
        };
        if key != want {
            return Err(corrupt(format!(
                "row {row} carries key {key}, schedule expects {want}"
            )));
        }
        if lines.last().is_some_and(|prev| *prev > line) {
            return Err(corrupt(format!("row {row} is out of byte order")));
        }
        lines.push(line);
    }
    if lines.len() < schedule.len() {
        return Err(corrupt(format!(
            "stream truncated after {} of {} scheduled rows",
            lines.len(),
            schedule.len()
        )));
    }
    span.record_field("rows", lines.len());
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design_point::DesignPoint;
    use hpc_workloads::{Benchmark, GeneratorConfig};

    /// A plausible row line for a synthetic 16-hex key.
    fn row(key: u64, value: u64) -> String {
        format!("{{\"key\":\"{key:016x}\",\"cycles\":{value}}}")
    }

    /// Builds streams + schedules for `keys`, split by `digest % count`.
    fn split(keys: &[u64], count: u32) -> (Vec<Vec<String>>, Vec<Vec<String>>) {
        let mut streams: Vec<Vec<String>> = vec![Vec::new(); count as usize];
        let mut schedule: Vec<Vec<String>> = vec![Vec::new(); count as usize];
        let mut sorted = keys.to_vec();
        sorted.sort_unstable();
        for &k in &sorted {
            let shard = (k % u64::from(count)) as usize;
            streams[shard].push(row(k, k.wrapping_mul(3)));
            schedule[shard].push(format!("{k:016x}"));
        }
        (streams, schedule)
    }

    /// Validates every stream against its schedule, then merges the
    /// validated rows into `sink`: the order every caller of the merge
    /// follows.
    fn validate_and_merge(
        streams: &[Vec<String>],
        schedule: &[Vec<String>],
        sink: &mut Vec<u8>,
    ) -> Result<u64, MergeError> {
        let mut buffered = Vec::with_capacity(streams.len());
        for (i, reader) in readers(streams).into_iter().enumerate() {
            buffered.push(validate_shard_stream(i + 1, reader, &schedule[i])?);
        }
        Ok(merge_validated(&buffered, sink)?)
    }

    fn readers(streams: &[Vec<String>]) -> Vec<std::io::Cursor<String>> {
        streams
            .iter()
            .map(|lines| {
                let mut text = lines.join("\n");
                if !text.is_empty() {
                    text.push('\n');
                }
                std::io::Cursor::new(text)
            })
            .collect()
    }

    #[test]
    fn row_keys_parse_well_formed_rows_only() {
        assert_eq!(row_key(&row(0xabc, 1)), Some("0000000000000abc"));
        assert_eq!(row_key(""), None);
        assert_eq!(row_key("{\"key\":\"short\"}"), None);
        assert_eq!(row_key("{\"key\":\"000000000000ABCD\",\"v\":1}"), None);
        assert_eq!(row_key("{\"key\":\"0123456789abcdef\",\"v\":1"), None);
        assert_eq!(row_key("{\"nokey\":1}"), None);
    }

    #[test]
    fn merge_reproduces_the_unsharded_byte_stream() {
        let keys: Vec<u64> = vec![9, 2, 17, 40, 5, 33, 12, 0xdead_beef];
        let mut unsharded: Vec<String> = keys.iter().map(|&k| row(k, k.wrapping_mul(3))).collect();
        unsharded.sort_unstable();
        let mut want = unsharded.join("\n");
        want.push('\n');

        for count in [1u32, 2, 3, 5] {
            let (streams, schedule) = split(&keys, count);
            let mut sink = Vec::new();
            let rows = validate_and_merge(&streams, &schedule, &mut sink).unwrap();
            assert_eq!(rows, keys.len() as u64);
            assert_eq!(String::from_utf8(sink).unwrap(), want, "{count} shards");
        }
    }

    #[test]
    fn empty_shards_merge_cleanly() {
        // One key, three shards: two streams are legitimately empty.
        let (streams, schedule) = split(&[3], 3);
        let mut sink = Vec::new();
        let rows = validate_and_merge(&streams, &schedule, &mut sink).unwrap();
        assert_eq!(rows, 1);
    }

    #[test]
    fn truncated_streams_fail_loudly_without_partial_output() {
        let keys: Vec<u64> = (0..12).collect();
        let (mut streams, schedule) = split(&keys, 3);
        streams[1].pop();
        let mut sink = Vec::new();
        let err = validate_and_merge(&streams, &schedule, &mut sink).unwrap_err();
        let MergeError::Corrupt { shard, message } = err else {
            panic!("expected a corruption error, got {err:?}");
        };
        assert_eq!(shard, 2);
        assert!(message.contains("truncated"), "{message}");
        assert!(sink.is_empty(), "no partial rows may be emitted");
    }

    /// Mangles shard `shard` of a fresh 3-way split of nine keys with
    /// `breakage`, merges, and asserts the failure message and that no
    /// partial rows reached the sink.
    fn assert_merge_rejects(shard: usize, breakage: impl Fn(&mut Vec<String>), expect: &str) {
        let keys: Vec<u64> = (0..9).collect();
        let (mut streams, schedule) = split(&keys, 3);
        breakage(&mut streams[shard]);
        let mut sink = Vec::new();
        let err = validate_and_merge(&streams, &schedule, &mut sink).unwrap_err();
        assert!(
            err.to_string().contains(expect),
            "want `{expect}` in `{err}`"
        );
        assert!(sink.is_empty(), "no partial rows may be emitted: {expect}");
    }

    #[test]
    fn corrupt_and_foreign_rows_fail_loudly_without_partial_output() {
        // A torn line (as a crashed shard would leave behind).
        assert_merge_rejects(0, |s| s[0].truncate(10), "not a well-formed");
        // A row that belongs to a different shard's schedule.
        assert_merge_rejects(1, |s| s[0] = row(100, 1), "schedule expects");
        // A duplicated tail row.
        assert_merge_rejects(2, |s| s.push(s.last().unwrap().clone()), "more rows");
        // Corrupted key bytes.
        assert_merge_rejects(
            0,
            |s| s[0] = s[0].replace("00000000000000", "zzzzzzzzzzzzzz"),
            "not a well-formed",
        );
        // A CRLF-translated stream (Windows tooling in the transfer path).
        assert_merge_rejects(
            1,
            |s| {
                for line in s.iter_mut() {
                    line.push('\r');
                }
            },
            "CRLF",
        );
        // A row duplicated *across* shards: the receiving shard's schedule
        // never expects the foreign key.
        assert_merge_rejects(2, |s| s.insert(0, row(0, 0)), "schedule expects");
        // Damage deeper in the row than the key prefix / closing brace:
        // the full-line JSON parse must reject it.
        assert_merge_rejects(
            0,
            |s| s[0] = s[0].replace("\"cycles\":", "\"cycles\"!"),
            "not a well-formed",
        );
    }

    #[test]
    fn streams_losing_their_final_newline_are_truncated_not_repaired() {
        // Cutting the tail of the last row can leave a shorter-but-valid
        // JSON prefix; the lost final newline is what gives the truncation
        // away, and the validator must fail rather than re-terminate it.
        let keys: Vec<u64> = (0..6).collect();
        let (streams, schedule) = split(&keys, 2);
        let mut readers = readers(&streams);
        let mut text = readers.remove(0).into_inner();
        text.pop(); // drop the final newline only: bytes still look row-shaped
        let err = validate_shard_stream(1, std::io::Cursor::new(text), &schedule[0]).unwrap_err();
        assert!(
            err.to_string().contains("without a newline"),
            "a lost final newline must read as truncation: {err}"
        );
    }

    #[test]
    fn validate_shard_stream_returns_the_rows_it_checked() {
        let keys: Vec<u64> = (0..6).collect();
        let (streams, schedule) = split(&keys, 2);
        for (i, reader) in readers(&streams).into_iter().enumerate() {
            let rows = validate_shard_stream(i + 1, reader, &schedule[i]).unwrap();
            assert_eq!(rows, streams[i]);
        }
        // An empty stream against an empty schedule is valid (a shard of a
        // grid smaller than the shard count legitimately owns nothing).
        let empty = std::io::Cursor::new(String::new());
        assert_eq!(
            validate_shard_stream(1, empty, &[]).unwrap(),
            Vec::<String>::new()
        );
    }

    #[test]
    fn schedules_partition_real_job_keys() {
        let generator = GeneratorConfig::small();
        let keys: Vec<JobKey> = [1usize, 2, 4, 8, 16]
            .iter()
            .map(|&lb| {
                JobKey::new(
                    &generator,
                    Benchmark::Cg,
                    &DesignPoint::baseline().with_line_buffers(lb).unwrap(),
                )
            })
            .collect();
        let schedule = shard_key_schedule(&keys, 3);
        assert_eq!(schedule.len(), 3);
        let mut union: Vec<String> = schedule.concat();
        union.sort_unstable();
        let mut want: Vec<String> = keys.iter().map(JobKey::hex).collect();
        want.sort_unstable();
        assert_eq!(union, want, "schedules must cover every key exactly once");
        for (i, keys_of_shard) in schedule.iter().enumerate() {
            assert!(keys_of_shard.is_sorted(), "shard {i} schedule unsorted");
        }
    }
}
