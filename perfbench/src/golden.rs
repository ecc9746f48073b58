//! Output identity: digests of a pass's rows, the goldens committed for the
//! default seed, and the byte-for-byte fig09 fixture check.

/// The committed fig09 golden rows (quick scale, `cg,lu`, default seed).
const FIG09_FIXTURE: &str = include_str!("../../tests/fixtures/fig09.jsonl");

/// Digest of `cold_sweep`'s sorted rows for the default seed.
pub const COLD_SWEEP_DIGEST: &str = "c5440ce9b3478f75";

/// Digest of `paper_sim`'s sorted rows for the default seed.
pub const PAPER_SIM_DIGEST: &str = "37528f9d6ad95357";

/// FNV-1a 64 of `bytes`, as 16 hex digits.
#[must_use]
pub fn fnv1a_hex(bytes: &[u8]) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{hash:016x}")
}

/// Digest of a set of JSONL rows, independent of their order: rows are
/// sorted and each is hashed with its trailing newline.
#[must_use]
pub fn rows_digest(rows: &[String]) -> String {
    let mut sorted: Vec<&String> = rows.iter().collect();
    sorted.sort_unstable();
    let mut text = String::new();
    for row in sorted {
        text.push_str(row);
        text.push('\n');
    }
    fnv1a_hex(text.as_bytes())
}

/// Checks `digest` against the golden one, if the run has one.
#[must_use]
pub fn matches_golden(digest: &str, golden: Option<&str>) -> bool {
    golden.is_none_or(|g| g == digest)
}

/// Every fixture row must appear, byte for byte, among `rows`.  Returns the
/// number of fixture rows that did not.
#[must_use]
pub fn fig09_mismatches(rows: &[String]) -> usize {
    FIG09_FIXTURE
        .lines()
        .filter(|want| !rows.iter().any(|row| row == want))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_ignores_row_order() {
        let a = vec!["{\"a\":1}".to_string(), "{\"b\":2}".to_string()];
        let b = vec![a[1].clone(), a[0].clone()];
        assert_eq!(rows_digest(&a), rows_digest(&b));
    }

    #[test]
    fn a_one_byte_row_change_trips_the_golden_check() {
        let rows = vec![
            "{\"key\":\"k1\",\"cycles\":1000}".to_string(),
            "{\"key\":\"k2\",\"cycles\":2000}".to_string(),
        ];
        let golden = rows_digest(&rows);
        assert!(matches_golden(&rows_digest(&rows), Some(&golden)));
        let mut changed = rows.clone();
        changed[1] = changed[1].replace("2000", "2001");
        assert!(!matches_golden(&rows_digest(&changed), Some(&golden)));
        assert!(matches_golden(&rows_digest(&changed), None), "no golden");
    }

    #[test]
    fn the_fixture_check_is_byte_exact() {
        let fixture: Vec<String> = FIG09_FIXTURE.lines().map(str::to_string).collect();
        assert_eq!(fixture.len(), 6);
        assert_eq!(fig09_mismatches(&fixture), 0);
        let mut off = fixture.clone();
        off[0].push(' ');
        assert_eq!(fig09_mismatches(&off), 1);
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        assert_eq!(fnv1a_hex(b""), "cbf29ce484222325");
        assert_eq!(fnv1a_hex(b"a"), "af63dc4c8601ec8c");
    }
}
