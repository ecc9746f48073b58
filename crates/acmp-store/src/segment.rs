//! Packed segment files: the on-disk unit of the generational store.
//!
//! A segment is an append-only text file holding one *record* per line.
//! Each record is a self-verifying envelope:
//!
//! ```text
//! {"key":"<escaped canonical key>","crc":"<16-hex fnv1a>","value":<json>}
//! ```
//!
//! The layout is produced only by [`encode_record`], so readers may rely on
//! the exact field order and the absence of whitespace: [`scan_record_parts`]
//! recovers the canonical key and verifies the value checksum *without*
//! parsing the value, which keeps index construction at store open cheap
//! however large the values are.  A torn tail (a crash mid-append) or a
//! corrupted line fails the scan and is skipped — never served.
//!
//! Segment files are named `seg-<generation:08>-<pid>-<seq:04>.seg`.  The
//! generation number is the store's eviction and compaction unit: every
//! store handle appends into a fresh generation, and
//! [`compact`](crate::store::DiskStore::compact) merges all live records
//! into the next one.  The `<pid>-<seq>` suffix makes names unique across
//! concurrently writing processes, so no two writers ever share a file.

use crate::stable_hash;

/// Extension of live segment files.
pub const SEGMENT_EXT: &str = "seg";

/// Extension of in-flight temporary files (compaction output before its
/// rename).  Orphans with this extension are junk from a crashed writer and
/// are removed by [`compact`](crate::store::DiskStore::compact).
pub const TMP_EXT: &str = "tmp";

/// Target size of one segment file.  Appends roll to a new segment once the
/// active one crosses this, so single files stay comfortably mappable and
/// compaction can stream them.
pub const SEGMENT_TARGET_BYTES: u64 = 8 * 1024 * 1024;

/// Magic token opening an export bundle (`sweep store export`).  The token
/// predates the store's extraction into its own crate and is kept verbatim
/// so bundles interchange across versions.
pub const EXPORT_MAGIC: &str = "acmp-sweep-segments";

/// Export bundle format version this binary reads and writes.
pub const EXPORT_FORMAT_VERSION: u32 = 1;

/// Encodes the header line of an export bundle (no trailing newline):
/// magic, format version, record count, and an FNV-1a digest over all the
/// record bytes that follow (each record line including its newline).  The
/// digest catches whole-record truncation, which per-record checksums
/// cannot see.
#[must_use]
pub fn encode_export_header(records: u64, digest: u64) -> String {
    format!(
        "{EXPORT_MAGIC} {EXPORT_FORMAT_VERSION} {records} {}",
        crate::stable_hash::hex(digest)
    )
}

/// Parses an export bundle header line into (format version, record count,
/// body digest); `None` for anything that is not one.
#[must_use]
pub fn parse_export_header(line: &str) -> Option<(u32, u64, u64)> {
    let mut parts = line.split(' ');
    if parts.next() != Some(EXPORT_MAGIC) {
        return None;
    }
    let format = parts.next()?.parse().ok()?;
    let records = parts.next()?.parse().ok()?;
    let digest_hex = parts.next()?;
    if digest_hex.len() != 16 || parts.next().is_some() {
        return None;
    }
    let digest = u64::from_str_radix(digest_hex, 16).ok()?;
    Some((format, records, digest))
}

/// Parsed identity of a segment file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SegmentName {
    /// The generation the segment belongs to (major sort key).
    pub generation: u64,
    /// Process that wrote the segment.
    pub pid: u32,
    /// Per-process sequence number.
    pub seq: u64,
}

impl SegmentName {
    /// The file name this identity encodes to.
    #[must_use]
    pub fn file_name(&self) -> String {
        format!(
            "seg-{:08}-{}-{:04}.{SEGMENT_EXT}",
            self.generation, self.pid, self.seq
        )
    }

    /// Parses a segment file name; `None` for anything that is not one.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        let stem = name
            .strip_prefix("seg-")?
            .strip_suffix(&format!(".{SEGMENT_EXT}"))?;
        let mut parts = stem.split('-');
        let generation = parts.next()?.parse().ok()?;
        let pid = parts.next()?.parse().ok()?;
        let seq = parts.next()?.parse().ok()?;
        if parts.next().is_some() {
            return None;
        }
        Some(SegmentName {
            generation,
            pid,
            seq,
        })
    }
}

/// Lists every segment file under `dir` with its parsed name, sorted by
/// (generation, pid, seq) — the store's deterministic replay order, which
/// decides which duplicate of a key wins.  Non-segment entries are skipped.
/// Shared by the store's open scan and its cross-process index refresh.
///
/// # Errors
///
/// Returns the I/O error if the directory cannot be read.
pub fn list_segments(
    dir: &std::path::Path,
) -> std::io::Result<Vec<(SegmentName, std::path::PathBuf)>> {
    let mut found = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        if let Some(seg) = name.to_str().and_then(SegmentName::parse) {
            found.push((seg, entry.path()));
        }
    }
    found.sort_unstable_by_key(|(seg, _)| *seg);
    Ok(found)
}

/// Encodes one record line (no trailing newline) from a canonical key and
/// the already-serialised value JSON.  Returns the line and the value
/// checksum it embeds.
#[must_use]
pub fn encode_record(canonical: &str, value_json: &str) -> (String, u64) {
    let crc = stable_hash::fnv1a(value_json.as_bytes());
    let mut line = String::with_capacity(canonical.len() + value_json.len() + 48);
    line.push_str("{\"key\":\"");
    escape_into(canonical, &mut line);
    line.push_str("\",\"crc\":\"");
    line.push_str(&stable_hash::hex(crc));
    line.push_str("\",\"value\":");
    line.push_str(value_json);
    line.push('}');
    (line, crc)
}

fn escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// One verified record found while scanning a segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScannedRecord {
    /// The unescaped canonical key embedded in the record.
    pub canonical: String,
    /// Byte offset of the record line within the segment file.
    pub offset: u64,
    /// Length of the record line in bytes (without the newline).
    pub len: u64,
    /// The record's verified value checksum — the content identity the
    /// persisted index's fingerprint folds, so an overwrite that changes a
    /// value without changing its length is still detected as staleness.
    pub crc: u64,
}

/// Verifies one record line and cuts it into its canonical key, its value
/// checksum and its raw value JSON, without parsing the value: the line
/// must have the exact [`encode_record`] layout and the value bytes must
/// match the embedded checksum.  Returns `None` for torn, truncated or
/// corrupted lines.
#[must_use]
pub fn scan_record_parts(line: &str) -> Option<(String, u64, &str)> {
    let (canonical, crc, value) = split_record(line)?;
    (stable_hash::fnv1a(value.as_bytes()) == crc).then_some((canonical, crc, value))
}

/// Cuts a record line into its unescaped canonical key, its checksum and
/// its raw value JSON, checking the [`encode_record`] layout but not the
/// checksum: for a record [`scan_record_parts`] already verified, such as
/// any record the store's index holds.
pub(crate) fn split_record(line: &str) -> Option<(String, u64, &str)> {
    let rest = key_field(line)?;
    let mut key = serde::Parser::new(rest);
    let canonical = key.parse_str().ok()?.into_owned();
    let (crc, value) = split_crc_and_value(&rest[key.offset()..])?;
    Some((canonical, crc, value))
}

/// The raw value JSON of a record line whose stored key is `canonical`:
/// exactly what [`split_record`] followed by a key comparison accepts, but
/// the escaped key is compared as it is decoded, never collected.
pub(crate) fn value_for_key<'a>(line: &'a str, canonical: &str) -> Option<&'a str> {
    let rest = key_field(line)?;
    let mut key = serde::Parser::new(rest);
    if !key.matches_str(canonical) {
        return None;
    }
    split_crc_and_value(&rest[key.offset()..]).map(|(_, value)| value)
}

/// A record line from its escaped key string on.
fn key_field(line: &str) -> Option<&str> {
    let rest = line.strip_prefix("{\"key\":")?;
    rest.starts_with('"').then_some(rest)
}

/// Cuts what follows a record's key string into its checksum and its raw
/// value JSON, checking the [`encode_record`] layout.
fn split_crc_and_value(rest: &str) -> Option<(u64, &str)> {
    let rest = rest.strip_prefix(",\"crc\":\"")?;
    if rest.len() < 16 || !rest.is_char_boundary(16) {
        return None;
    }
    let (crc_hex, rest) = rest.split_at(16);
    if !crc_hex.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    let value = rest.strip_prefix("\",\"value\":")?.strip_suffix('}')?;
    let crc = u64::from_str_radix(crc_hex, 16).ok()?;
    Some((crc, value))
}

/// What [`scan_segment`] found in a segment's bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentScan {
    /// Every verified record, in file order.
    pub records: Vec<ScannedRecord>,
    /// Lines that failed the layout or checksum check, a last line with no
    /// newline (a torn tail) among them.
    pub rejected: u64,
}

/// Scans a whole segment's bytes, yielding every verified record with its
/// byte span: exactly the lines [`scan_record_parts`] accepts.
/// Unverifiable lines — torn tails, corruption, even invalid UTF-8 — are
/// skipped (they must read as absent, never abort the scan) and counted,
/// and offsets stay byte-accurate regardless.
///
/// Every line is cut first; the value checksums are then verified four
/// records at a time with [`stable_hash::fnv1a_4`], and the records left
/// over one at a time.
#[must_use]
pub fn scan_segment(bytes: &[u8]) -> SegmentScan {
    // A segment is valid UTF-8 unless a line is damaged.  Its newlines are
    // then found by the `str` search, several times faster than a
    // byte-by-byte split; either way each line is checked on its own.
    let lines: Box<dyn Iterator<Item = &[u8]>> = match std::str::from_utf8(bytes) {
        Ok(text) => Box::new(text.split_inclusive('\n').map(str::as_bytes)),
        Err(_) => Box::new(bytes.split_inclusive(|&b| b == b'\n')),
    };
    let mut cut: Vec<(ScannedRecord, &[u8])> = Vec::new();
    let (mut offset, mut count) = (0u64, 0u64);
    for line in lines {
        let body = line.strip_suffix(b"\n").unwrap_or(line);
        if let Some((canonical, crc, value)) = std::str::from_utf8(body).ok().and_then(split_record)
        {
            let record = ScannedRecord {
                canonical,
                offset,
                len: body.len() as u64,
                crc,
            };
            cut.push((record, value.as_bytes()));
        }
        offset += line.len() as u64;
        count += 1;
    }
    let mut digests = Vec::with_capacity(cut.len());
    let quads = cut.chunks_exact(4);
    let leftover = quads.remainder();
    for quad in quads {
        digests.extend(stable_hash::fnv1a_4([
            quad[0].1, quad[1].1, quad[2].1, quad[3].1,
        ]));
    }
    digests.extend(leftover.iter().map(|(_, value)| stable_hash::fnv1a(value)));
    let records: Vec<ScannedRecord> = cut
        .into_iter()
        .zip(digests)
        .filter(|((record, _), digest)| record.crc == *digest)
        .map(|((record, _), _)| record)
        .collect();
    SegmentScan {
        rejected: count - records.len() as u64,
        records,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_names_round_trip() {
        let n = SegmentName {
            generation: 7,
            pid: 1234,
            seq: 3,
        };
        assert_eq!(n.file_name(), "seg-00000007-1234-0003.seg");
        assert_eq!(SegmentName::parse(&n.file_name()), Some(n));
        assert_eq!(SegmentName::parse("seg-x-1-2.seg"), None);
        assert_eq!(SegmentName::parse("other.json"), None);
        assert_eq!(SegmentName::parse(".seg-00000001-1-0001.tmp"), None);
    }

    #[test]
    fn names_sort_by_generation_first() {
        let old = SegmentName {
            generation: 1,
            pid: 99999,
            seq: 9,
        };
        let new = SegmentName {
            generation: 2,
            pid: 1,
            seq: 0,
        };
        assert!(old < new);
    }

    #[test]
    fn list_segments_orders_by_replay_order_and_skips_junk() {
        let dir = std::env::temp_dir().join(format!("acmp-seg-list-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let names = [
            SegmentName {
                generation: 2,
                pid: 1,
                seq: 0,
            },
            SegmentName {
                generation: 1,
                pid: 99,
                seq: 7,
            },
            SegmentName {
                generation: 1,
                pid: 99,
                seq: 2,
            },
        ];
        for n in &names {
            std::fs::write(dir.join(n.file_name()), "").unwrap();
        }
        std::fs::write(dir.join("stray.tmp"), "").unwrap();
        std::fs::write(dir.join("notes.txt"), "").unwrap();
        let listed: Vec<SegmentName> = list_segments(&dir)
            .unwrap()
            .into_iter()
            .map(|(seg, _)| seg)
            .collect();
        assert_eq!(listed, vec![names[2], names[1], names[0]]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn export_headers_round_trip() {
        let line = encode_export_header(42, 0xdead_beef_0000_1111);
        assert_eq!(
            parse_export_header(&line),
            Some((EXPORT_FORMAT_VERSION, 42, 0xdead_beef_0000_1111))
        );
        for bad in [
            "",
            "acmp-sweep-segments",
            "acmp-sweep-segments 1 42",
            "acmp-sweep-segments 1 42 beef",
            "acmp-sweep-segments x 42 0123456789abcdef",
            "other-magic 1 42 0123456789abcdef",
            "acmp-sweep-segments 1 42 0123456789abcdef extra",
        ] {
            assert_eq!(parse_export_header(bad), None, "`{bad}`");
        }
    }

    #[test]
    fn records_encode_and_scan() {
        let canonical = "{\"generator\":{\"seed\":7},\"benchmark\":\"cg\"}";
        let (line, crc) = encode_record(canonical, "{\"cycles\":42}");
        assert_eq!(
            scan_record_parts(&line),
            Some((canonical.to_string(), crc, "{\"cycles\":42}"))
        );
    }

    #[test]
    fn a_load_accepts_exactly_the_records_split_record_matches() {
        let keys = [
            "{\"generator\":{\"seed\":7},\"benchmark\":\"cg\"}",
            "back\\slash, tab\t, newline\n, return\r, bell\u{7}, \u{e9}",
            "",
        ];
        for key in keys {
            let (line, _) = encode_record(key, "{\"cycles\":42}");
            let cut = |line: &str, wanted: &str| {
                split_record(line)
                    .filter(|(stored, _, _)| stored == wanted)
                    .map(|(_, _, value)| value.to_string())
            };
            for wanted in keys {
                let loaded = value_for_key(&line, wanted).map(str::to_string);
                assert_eq!(loaded, cut(&line, wanted), "{key:?} as {wanted:?}");
                assert_eq!(loaded.is_some(), key == wanted);
            }
            // Neither checks the value checksum: a cut inside the value can
            // still have the layout, and then both accept it.
            for end in (0..line.len()).filter(|&e| line.is_char_boundary(e)) {
                let loaded = value_for_key(&line[..end], key).map(str::to_string);
                assert_eq!(loaded, cut(&line[..end], key), "{:?}", &line[..end]);
            }
        }
    }

    #[test]
    fn corrupted_records_fail_the_scan() {
        let (line, _) = encode_record("{\"k\":1}", "[1,2,3]");
        // Flip a value byte: checksum mismatch.
        let corrupt = line.replace("[1,2,3]", "[1,2,4]");
        assert_eq!(scan_record_parts(&corrupt), None);
        // Torn tail: any truncation breaks the layout or the checksum.
        for cut in 1..line.len() {
            assert_eq!(
                scan_record_parts(&line[..line.len() - cut]),
                None,
                "cut {cut}"
            );
        }
        assert_eq!(scan_record_parts(""), None);
        assert_eq!(scan_record_parts("not a record"), None);
    }

    #[test]
    fn multibyte_corruption_is_rejected_without_panicking() {
        // A crc field corrupted to multibyte text must not panic the
        // scanner on a non-char-boundary split.
        let line = "{\"key\":\"k\",\"crc\":\"ああああああああ\",\"value\":1}";
        assert_eq!(scan_record_parts(line), None);
    }

    #[test]
    fn scan_segment_skips_bad_lines_and_keeps_offsets() {
        let (a, _) = encode_record("key-a", "1");
        let (b, _) = encode_record("key-b", "[2]");
        let text = format!("{a}\ngarbage line\n{b}\n{}", &a[..a.len() - 3]);
        let scan = scan_segment(text.as_bytes());
        assert_eq!(scan.rejected, 2, "the garbage line and the torn tail");
        let records = scan.records;
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].canonical, "key-a");
        assert_eq!(records[0].offset, 0);
        assert_eq!(records[0].len, a.len() as u64);
        assert_eq!(records[1].canonical, "key-b");
        let b_offset = a.len() as u64 + 1 + "garbage line\n".len() as u64;
        assert_eq!(records[1].offset, b_offset);
        // The record bytes can be sliced back out of the text verbatim.
        let r = &records[1];
        let span = r.offset as usize..(r.offset + r.len) as usize;
        assert_eq!(&text[span], b);
    }

    /// The one-line-at-a-time scan: each line verified on its own by
    /// [`scan_record_parts`].
    fn scan_line_by_line(bytes: &[u8]) -> Vec<ScannedRecord> {
        let mut records = Vec::new();
        let mut offset = 0u64;
        for line in bytes.split_inclusive(|&b| b == b'\n') {
            let body = line.strip_suffix(b"\n").unwrap_or(line);
            if let Some((canonical, crc, _)) =
                std::str::from_utf8(body).ok().and_then(scan_record_parts)
            {
                records.push(ScannedRecord {
                    canonical,
                    offset,
                    len: body.len() as u64,
                    crc,
                });
            }
            offset += line.len() as u64;
        }
        records
    }

    #[test]
    fn scan_segment_accepts_what_a_line_by_line_scan_accepts() {
        // Segments of 0–9 records of unequal lengths, each intact or with
        // one value damaged at any position, with and without a non-UTF-8
        // line and a torn tail: every record count modulo four, every
        // lane of a group of four, and the records left over.
        let record = |i: usize| {
            let key = format!("{{\"benchmark\":\"b{i}\"}}");
            let value = format!(
                "{{\"cycles\":{},\"pad\":\"{}\"}}",
                1000 + i,
                "x".repeat(i * 7)
            );
            encode_record(&key, &value).0
        };
        for n in 0..=9 {
            for damaged in std::iter::once(None).chain((0..n).map(Some)) {
                for (non_utf8, torn) in [(false, false), (true, false), (false, true), (true, true)]
                {
                    let mut bytes = Vec::new();
                    for i in 0..n {
                        if non_utf8 && i == n / 2 {
                            bytes.extend_from_slice(&[0xFF, 0xFE, b'\n']);
                        }
                        let mut line = record(i);
                        if damaged == Some(i) {
                            line = line.replacen("\"cycles\":", "\"cyclez\":", 1);
                        }
                        bytes.extend_from_slice(line.as_bytes());
                        bytes.push(b'\n');
                    }
                    if torn {
                        let tail = record(n);
                        bytes.extend_from_slice(&tail.as_bytes()[..tail.len() / 2]);
                    }
                    let scan = scan_segment(&bytes);
                    let case = format!("{n} records, damaged {damaged:?}, {non_utf8} {torn}");
                    assert_eq!(scan.records, scan_line_by_line(&bytes), "{case}");
                    let damaged = usize::from(damaged.is_some());
                    assert_eq!(scan.records.len(), n - damaged, "{case}");
                    let rejected = damaged + usize::from(non_utf8 && n > 0) + usize::from(torn);
                    assert_eq!(scan.rejected, rejected as u64, "{case}");
                }
            }
        }
    }

    #[test]
    fn invalid_utf8_lines_are_skipped_with_exact_offsets() {
        let (a, _) = encode_record("key-a", "1");
        let (b, _) = encode_record("key-b", "2");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(a.as_bytes());
        bytes.push(b'\n');
        bytes.extend_from_slice(&[0xFF, 0xFE, 0x80]); // not UTF-8
        bytes.push(b'\n');
        bytes.extend_from_slice(b.as_bytes());
        let scan = scan_segment(&bytes);
        assert_eq!(scan.rejected, 1);
        let records = scan.records;
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].canonical, "key-a");
        assert_eq!(records[1].canonical, "key-b");
        assert_eq!(records[1].offset, a.len() as u64 + 1 + 4);
    }

    #[test]
    fn escaped_keys_survive() {
        let canonical = "line\none\t\"quoted\" \\ backslash \u{1} control";
        let (line, crc) = encode_record(canonical, "null");
        assert_eq!(
            scan_record_parts(&line),
            Some((canonical.to_string(), crc, "null"))
        );
    }
}
