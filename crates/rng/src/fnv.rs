//! FNV-1a 64: the workspace's one content digest.
//!
//! It is not a random generator. It keys the checkpoint store's cells and
//! pins byte encodings and reports in tests; it lives here because every
//! crate that digests bytes already depends on `detrand`. The digest is
//! stable across builds and platforms, which is all those uses need.

const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0100_0000_01b3;

/// The 64-bit FNV-1a hash of `bytes`.
///
/// ```
/// assert_eq!(detrand::fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
/// ```
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(OFFSET_BASIS, |h, &b| (h ^ u64::from(b)).wrapping_mul(PRIME))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Known answer from the FNV reference test vectors.
    #[test]
    fn fnv1a64_known_answer() {
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
