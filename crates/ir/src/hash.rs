//! The workspace's one set of stable hashes: content fingerprints, graph
//! digest terms, shard routing and persisted search-shard layout.
//!
//! FNV-1a is implemented locally so the workspace needs no extra hashing
//! dependency; it is fast, stable across runs and platforms, and good enough
//! for content fingerprinting (the crawler additionally dedups by URL, so an
//! astronomically unlikely collision only suppresses a duplicate fetch).
//! Values persisted or pinned elsewhere depend on every bit of these
//! functions, so they never change.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;
/// The multiplier of [`fnv1a64_pinned`]: one hex digit wider than the FNV
/// prime.
const PINNED_PRIME: u64 = 0x0000_1000_0000_01b3;

/// 64-bit FNV-1a over a byte slice.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(OFFSET, bytes)
}

/// Continue an FNV-1a hash over more bytes (streaming form of [`fnv1a64`]).
pub fn fnv1a64_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// FNV-1a's loop with multiplier `0x1000_0000_01b3` instead of the FNV
/// prime. Graph digest terms, canon-key shard routing and the persisted
/// search-shard layout were all defined with it, and pinned digests and
/// on-disk stores depend on every bit, so it stays as it is.
pub fn fnv1a64_pinned(bytes: &[u8]) -> u64 {
    fnv1a64_pinned_extend(OFFSET, bytes)
}

/// Continue a [`fnv1a64_pinned`] hash over more bytes.
pub fn fnv1a64_pinned_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PINNED_PRIME);
    }
    h
}

/// The splitmix64 finalizer: spreads FNV's weak high bits, and hashes a
/// dense integer id into a well-mixed 64-bit value.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Order-sensitive combination of several hashes into one fingerprint.
///
/// Feeds each hash's little-endian bytes through FNV-1a, so swapping,
/// dropping or duplicating a constituent changes the result. Used to
/// fingerprint multi-page reports from their per-page body hashes.
pub fn combine_hashes<I: IntoIterator<Item = u64>>(hashes: I) -> u64 {
    let mut h = OFFSET;
    for part in hashes {
        h = fnv1a64_extend(h, &part.to_le_bytes());
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn pinned_variant_streams_and_differs_from_fnv1a() {
        assert_eq!(fnv1a64_pinned(b""), fnv1a64(b""));
        assert_eq!(fnv1a64_pinned(b"a"), 0xaf74_d84c_8601_ec8c);
        assert_ne!(fnv1a64_pinned(b"a"), fnv1a64(b"a"));
        let h = fnv1a64_pinned_extend(fnv1a64_pinned(b"foo"), b"bar");
        assert_eq!(h, fnv1a64_pinned(b"foobar"));
    }

    #[test]
    fn splitmix64_known_vectors() {
        // The first outputs of the reference splitmix64 stream seeded at 0
        // (each call hashes the previous state plus the golden gamma).
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(0x9e37_79b9_7f4a_7c15), 0x6e78_9e6a_a1b9_65f4);
    }

    #[test]
    fn distinct_inputs_differ() {
        assert_ne!(fnv1a64(b"wannacry"), fnv1a64(b"wannacrypt"));
    }

    #[test]
    fn extend_matches_one_shot() {
        let h = fnv1a64_extend(fnv1a64(b"foo"), b"bar");
        assert_eq!(h, fnv1a64(b"foobar"));
    }

    #[test]
    fn combine_is_order_sensitive() {
        let a = fnv1a64(b"page one");
        let b = fnv1a64(b"page two");
        assert_ne!(combine_hashes([a, b]), combine_hashes([b, a]));
        assert_ne!(combine_hashes([a]), combine_hashes([a, a]));
        assert_eq!(combine_hashes([a, b]), combine_hashes([a, b]));
        // A single-page report keeps a distinct fingerprint from its raw hash
        // being reused elsewhere only by construction, but must be stable.
        assert_eq!(combine_hashes([a]), combine_hashes([a]));
    }
}
