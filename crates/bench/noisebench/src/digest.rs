//! Result digests: an order-sensitive 64-bit FNV-1a hash over the exact
//! bits of what a replica fleet produced.
//!
//! Two fleets share a digest only if every replica, in replica order, has
//! bit-identical weights, predictions and accuracy.

use noisescope::runner::{Preds, ReplicaResult, VariantRuns};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A running FNV-1a hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(FNV_OFFSET)
    }
}

impl Digest {
    /// Feeds raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Feeds a `u32` as little-endian bytes.
    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    /// Feeds a `u64` as little-endian bytes.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Feeds one replica: index, accuracy bits, predictions, weight bits.
    pub fn replica(&mut self, r: &ReplicaResult) {
        self.u32(r.replica);
        self.u64(r.accuracy.to_bits());
        match &r.preds {
            Preds::Classes(p) => {
                self.u32(0);
                self.u64(p.len() as u64);
                for &c in p {
                    self.u32(c);
                }
            }
            Preds::Binary(p) => {
                self.u32(1);
                self.u64(p.len() as u64);
                self.bytes(p);
            }
        }
        self.u64(r.weights.len() as u64);
        for &w in &r.weights {
            self.u32(w.to_bits());
        }
    }

    /// Feeds every successful replica of a cell, in replica order.
    pub fn runs(&mut self, runs: &VariantRuns) {
        self.u64(runs.results.len() as u64);
        for r in &runs.results {
            self.replica(r);
        }
    }

    /// The hash value.
    pub fn value(self) -> u64 {
        self.0
    }

    /// The hash as 16 lowercase hex digits.
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Digest of a sequence of cells, in cell order.
pub fn cells_digest<'a>(cells: impl IntoIterator<Item = &'a VariantRuns>) -> Digest {
    let mut d = Digest::default();
    for runs in cells {
        d.runs(runs);
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    fn replica(i: u32, w: f32) -> ReplicaResult {
        ReplicaResult {
            replica: i,
            accuracy: 0.5,
            preds: Preds::Classes(vec![1, 2, 3]),
            weights: vec![w, 1.0, -2.0],
            final_train_loss: 0.1,
        }
    }

    fn digest_of(rs: &[ReplicaResult]) -> u64 {
        let mut d = Digest::default();
        for r in rs {
            d.replica(r);
        }
        d.value()
    }

    #[test]
    fn fnv_matches_reference_vector() {
        // FNV-1a 64 of "a" is 0xaf63dc4c8601ec8c.
        let mut d = Digest::default();
        d.bytes(b"a");
        assert_eq!(d.value(), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(d.hex(), "af63dc4c8601ec8c");
    }

    #[test]
    fn digest_is_bit_exact() {
        let a = replica(0, 0.25);
        let mut b = a.clone();
        assert_eq!(
            digest_of(std::slice::from_ref(&a)),
            digest_of(std::slice::from_ref(&b))
        );
        // One ulp in one weight changes the digest.
        b.weights[0] = f32::from_bits(b.weights[0].to_bits() + 1);
        assert_ne!(digest_of(std::slice::from_ref(&a)), digest_of(&[b]));
        // So does -0.0 versus 0.0, which compare equal as floats.
        let (mut z, mut nz) = (a.clone(), a);
        z.weights[1] = 0.0;
        nz.weights[1] = -0.0;
        assert_ne!(digest_of(&[z]), digest_of(&[nz]));
    }

    #[test]
    fn digest_is_order_sensitive() {
        let (a, b) = (replica(0, 0.25), replica(1, 0.75));
        assert_ne!(
            digest_of(&[a.clone(), b.clone()]),
            digest_of(&[b.clone(), a.clone()])
        );
        // Swapping two predictions changes it too.
        let mut c = a.clone();
        c.preds = Preds::Classes(vec![2, 1, 3]);
        assert_ne!(digest_of(&[a]), digest_of(&[c]));
    }
}
