//! The workspace's one FNV-1a.
//!
//! Several of its users persist or print what it returns — journal record
//! checksums and shard routing, the oracle sweep's per-benchmark seeds,
//! the simulator's noise fingerprints — so the constants and the byte
//! order of absorption are a stable format, pinned by the tests below.

/// The FNV-1a 64-bit offset basis.
pub const FNV1A64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit over `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_from(FNV1A64_OFFSET, bytes)
}

/// FNV-1a 64-bit over `bytes` starting from `basis` instead of
/// [`FNV1A64_OFFSET`]: a seeded hash (`basis = seed ^ FNV1A64_OFFSET`),
/// or the continuation of one (`basis` = the hash of what came before).
pub fn fnv1a64_from(basis: u64, bytes: &[u8]) -> u64 {
    let mut h = basis;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_fnv1a_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn a_hash_continues_from_its_own_prefix() {
        assert_eq!(fnv1a64_from(fnv1a64(b"foo"), b"bar"), fnv1a64(b"foobar"));
    }
}
