//! A deterministic hasher for the integer-keyed lookup maps on the
//! per-packet and per-message paths (QP numbers, memory keys, message
//! sequence numbers, RPC ids, mux slot keys).
//!
//! `std`'s default SipHash is keyed per process to resist crafted
//! collisions; these keys are allocated by the simulator itself, so the
//! protection buys nothing here and cost 7 % of `incast_bulk`'s host
//! time. Fixed constants also take `RandomState`'s per-process seeds off
//! the data path: two runs lay their buckets out identically. None of the
//! maps is iterated where order could reach the model (D3's clippy bans
//! see through the aliases below by type).

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-rotate hasher: one rotate, xor and multiply per integer
/// written (Fx-style), and a multiply-xorshift finish.
#[derive(Clone, Copy, Default)]
pub struct IntHasher(u64);

/// 2^64 / φ, odd: consecutive keys land far apart.
const MIX: u64 = 0x9E37_79B9_7F4A_7C15;

impl Hasher for IntHasher {
    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(MIX);
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.write_u64(x as u64);
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    /// A multiply leaves its entropy in the high bits and the table takes
    /// its bucket index from the low ones: fold, multiply, fold. Counting
    /// and strided keys then fill buckets like random ones (test below).
    #[inline]
    fn finish(&self) -> u64 {
        let h = (self.0 ^ (self.0 >> 32)).wrapping_mul(MIX);
        h ^ (h >> 32)
    }
}

pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;
pub type IntSet<K> = HashSet<K, BuildHasherDefault<IntHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(PartialEq, Eq, Hash)]
    struct Qpn(u32);

    #[test]
    fn same_keys_same_bucket_order() {
        let fill = || {
            let mut m = IntMap::default();
            for k in (0..500u32).map(|i| i.wrapping_mul(2_654_435_761) >> 7) {
                m.insert(k, ());
                if k % 3 == 0 {
                    m.remove(&(k / 2));
                }
            }
            m
        };
        let (a, b) = (fill(), fill());
        #[expect(
            clippy::disallowed_methods,
            reason = "the test asserts that bucket order is a function of the keys"
        )]
        let same = a.keys().eq(b.keys());
        assert!(same, "bucket order differs between maps");
        assert!(a.len() > 300);
    }

    #[test]
    fn sequential_and_strided_keys_spread() {
        // QP numbers count up from 1; memory keys step by 2; sequence
        // numbers may be compared at any stride. No stride may fold onto
        // a few low-bit patterns.
        for stride in [1u64, 2, 3, 64, 1000, 4096, 1 << 20, 1 << 32] {
            let mut low = IntSet::default();
            for i in 0..256 {
                let mut h = IntHasher::default();
                h.write_u64(i * stride);
                low.insert(h.finish() & 0xFF);
            }
            // 256 random keys fill 162 of 256 buckets on average.
            assert!(low.len() >= 145, "stride {stride}: {} buckets", low.len());
        }
        let mut set = IntSet::default();
        assert!(set.insert(Qpn(7)) && !set.insert(Qpn(7)) && set.contains(&Qpn(7)));
    }
}
