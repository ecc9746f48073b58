//! A stable, platform-independent content hash.
//!
//! Job keys and on-disk store filenames must be identical across runs,
//! processes and machines, so `std::hash::Hasher` (randomly seeded, and
//! explicitly not stable across releases) is out.  This module implements
//! 64-bit FNV-1a over the canonical JSON encoding of a value: the serde
//! shim's [`Value`](serde::Value) printer is deterministic (object fields keep insertion
//! order, floats use shortest round-trip formatting), so equal values always
//! produce equal digests.

use serde::Serialize;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a over a byte string.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_fold(fnv1a_init(), bytes)
}

/// Four 64-bit FNV-1a digests at once: `fnv1a_4([a, b, c, d])` equals
/// `[fnv1a(a), fnv1a(b), fnv1a(c), fnv1a(d)]`.  FNV-1a is one serial
/// multiply chain per input, so a single digest waits out the multiply's
/// latency on every byte; interleaving four independent chains over the
/// lanes' common length keeps the multiplier busy.  Each lane's tail past
/// the shortest one is folded on its own.
#[must_use]
pub fn fnv1a_4(lanes: [&[u8]; 4]) -> [u64; 4] {
    let common = lanes.iter().map(|lane| lane.len()).min().unwrap_or(0);
    let [a, b, c, d] = lanes.map(|lane| &lane[..common]);
    let mut state = [FNV_OFFSET; 4];
    for (((&a, &b), &c), &d) in a.iter().zip(b).zip(c).zip(d) {
        for (s, byte) in state.iter_mut().zip([a, b, c, d]) {
            *s = (*s ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
    }
    for (s, lane) in state.iter_mut().zip(lanes) {
        *s = fnv1a_fold(*s, &lane[common..]);
    }
    state
}

/// The initial FNV-1a state, for incremental hashing with [`fnv1a_fold`].
#[must_use]
pub fn fnv1a_init() -> u64 {
    FNV_OFFSET
}

/// Folds more bytes into an FNV-1a state.  `fnv1a_fold(fnv1a_init(), all)`
/// equals folding `all` in any chunking — which is what lets large
/// streams (store export bundles) be digested without materialising them.
#[must_use]
pub fn fnv1a_fold(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
}

/// The canonical (deterministic, compact) JSON encoding of a value.
#[must_use]
pub fn canonical_json<T: Serialize + ?Sized>(value: &T) -> String {
    value.serialize().to_string()
}

/// Digest of a serialisable value: FNV-1a over its canonical JSON.
#[must_use]
pub fn digest<T: Serialize + ?Sized>(value: &T) -> u64 {
    fnv1a(canonical_json(value).as_bytes())
}

/// Formats a digest the way the on-disk store names its entries.
#[must_use]
pub fn hex(digest: u64) -> String {
    format!("{digest:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn incremental_folding_matches_one_shot_hashing() {
        let data = b"the quick brown fox jumps over the lazy dog";
        for split in [0, 1, 10, data.len()] {
            let state = fnv1a_fold(fnv1a_init(), &data[..split]);
            assert_eq!(fnv1a_fold(state, &data[split..]), fnv1a(data), "{split}");
        }
    }

    #[test]
    fn four_lane_digests_equal_one_lane_digests() {
        // Xorshift64 picks ~2,000 quadruples of lanes with unequal
        // lengths out of one random buffer; an eighth of the lanes are
        // empty and an eighth are one byte long.
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let buffer: Vec<u8> = (0..4096).map(|_| next() as u8).collect();
        for case in 0..2000 {
            let lanes = [(); 4].map(|()| {
                let len = match next() % 8 {
                    0 => 0,
                    1 => 1,
                    _ => (next() % 1024) as usize,
                };
                let start = (next() % (buffer.len() - len) as u64) as usize;
                &buffer[start..start + len]
            });
            assert_eq!(fnv1a_4(lanes), lanes.map(fnv1a), "case {case}");
        }
        assert_eq!(fnv1a_4([b""; 4]), [fnv1a(b""); 4]);
    }

    #[test]
    fn digest_is_stable_across_calls() {
        let a = digest(&vec![1u64, 2, 3]);
        let b = digest(&vec![1u64, 2, 3]);
        assert_eq!(a, b);
        assert_ne!(a, digest(&vec![1u64, 2, 4]));
    }

    #[test]
    fn hex_is_fixed_width() {
        assert_eq!(hex(0).len(), 16);
        assert_eq!(hex(u64::MAX), "ffffffffffffffff");
    }
}
