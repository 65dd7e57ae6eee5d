//! A keyed fold-multiply hasher for the per-packet maps.
//!
//! Every packet the proxy decides looks up its device, its remote's
//! interned id and its flow rule in hash maps, so the hasher is part of
//! the per-packet budget. The standard `RandomState` runs SipHash-1-3,
//! which costs several times what these small fixed-width keys need.
//! [`FoldHasher`] folds each written word into its state with one keyed
//! 64×64→128-bit multiply, xoring the high half of the product into the
//! low half; `finish` folds once more so both the low bits (the bucket
//! index) and the top seven bits (the control tag) depend on every input
//! bit.
//!
//! Each [`FoldState`] draws its own key from `std::hash::RandomState`, so
//! every map hashes differently. Devices choose the flow keys that land
//! in the rule table; with a fixed key an attacker could precompute
//! colliding keys offline and turn every probe into a linear scan. The
//! key makes that a guess. It is not a cryptographic PRF: like foldhash,
//! it defends against precomputed collisions, not against an attacker
//! who can observe timings long enough to recover the key.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher, RandomState};

/// A `HashMap` hashed by [`FoldHasher`] under a per-map random key.
pub type FastMap<K, V> = HashMap<K, V, FoldState>;

/// Builds [`FoldHasher`]s under one random key. `Default` draws a fresh
/// key, so two maps never share one unless one is cloned from the other.
#[derive(Clone)]
pub struct FoldState {
    seed: u64,
    key: u64,
}

impl Default for FoldState {
    fn default() -> Self {
        // `RandomState::new` steps its per-thread key on every call, so
        // each state hashes these constants to fresh values.
        let random = RandomState::new();
        FoldState {
            seed: random.hash_one(0u8),
            // Odd, so the multiply never discards the low bit.
            key: random.hash_one(1u8) | 1,
        }
    }
}

impl BuildHasher for FoldState {
    type Hasher = FoldHasher;

    #[inline]
    fn build_hasher(&self) -> FoldHasher {
        FoldHasher {
            acc: self.seed,
            key: self.key,
        }
    }
}

/// The hasher [`FoldState`] builds; see the module docs.
pub struct FoldHasher {
    acc: u64,
    key: u64,
}

/// Multiply into 128 bits and fold the high half onto the low half.
#[inline(always)]
fn fold_multiply(x: u64, y: u64) -> u64 {
    let full = u128::from(x) * u128::from(y);
    (full as u64) ^ ((full >> 64) as u64)
}

impl Hasher for FoldHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.acc = fold_multiply(self.acc ^ word, self.key);
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    /// Folds in the length first, so inputs that differ only by trailing
    /// zero bytes (`b"a"`, `b"a\0"`) hash differently.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.write_u64(bytes.len() as u64);
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.write_u64(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        fold_multiply(self.acc, self.key.rotate_left(32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{DeviceFlowKey, InternedFlowKey, RemoteId};
    use std::collections::HashSet;
    use std::hash::Hash;
    use std::net::Ipv4Addr;

    /// Assert that `keys` (all distinct) spread over the low 16 bits and
    /// the top 7 bits the way hashbrown reads them.
    fn assert_spreads<K: Hash>(what: &str, keys: impl Iterator<Item = K>) {
        let state = FoldState::default();
        let mut low = HashSet::new();
        let mut tags = HashSet::new();
        let mut n = 0usize;
        for k in keys {
            let h = state.hash_one(&k);
            low.insert(h & 0xffff);
            tags.insert(h >> 57);
            n += 1;
        }
        assert_eq!(n, 1 << 16, "{what}: key count");
        // Uniform random hashes fill about 1 - 1/e ≈ 63% of the buckets.
        assert!(
            low.len() * 100 >= n * 55,
            "{what}: only {} of {n} low-16-bit buckets used",
            low.len()
        );
        assert_eq!(tags.len(), 128, "{what}: top-7-bit tags used");
    }

    #[test]
    fn each_state_draws_its_own_key() {
        let (a, b) = (FoldState::default(), FoldState::default());
        let key = (7u16, Ipv4Addr::new(10, 0, 0, 1));
        assert_ne!(a.hash_one(key), b.hash_one(key));
    }

    #[test]
    fn byte_writes_fold_in_the_length() {
        let state = FoldState::default();
        let hash = |bytes: &[u8]| {
            let mut h = state.build_hasher();
            h.write(bytes);
            h.finish()
        };
        assert_ne!(hash(b"a"), hash(b"a\0"));
        assert_ne!(hash(b""), hash(b"\0"));
        assert_ne!(hash(b"12345678"), hash(b"12345678\0"));
    }

    #[test]
    fn flow_keys_spread_over_buckets_and_tags() {
        let keys = (0..=u16::MAX).map(|i| {
            (
                3u16,
                InternedFlowKey::PortLess {
                    remote: RemoteId::Domain(u32::from(i >> 8)),
                    proto: 6,
                    size: i & 0xff,
                    dir: 0,
                },
            )
        });
        assert_spreads("flow keys", keys);
    }

    #[test]
    fn packed_device_flow_keys_spread_over_buckets_and_tags() {
        let portless = (0..=u16::MAX).map(|i| DeviceFlowKey {
            device: 3,
            flow: InternedFlowKey::PortLess {
                remote: RemoteId::Domain(u32::from(i >> 8)),
                proto: 6,
                size: i & 0xff,
                dir: 0,
            },
        });
        assert_spreads("packed portless keys", portless);
        let classic = (0..=u16::MAX).map(|i| DeviceFlowKey {
            device: i >> 12,
            flow: InternedFlowKey::Classic {
                src_ip: Ipv4Addr::new(192, 168, 1, 2),
                dst_ip: Ipv4Addr::new(34, 9, 9, 9),
                src_port: 40_000 + (i & 0xfff),
                dst_port: 443,
                proto: 6,
                size: 100,
            },
        });
        assert_spreads("packed classic keys", classic);
    }

    #[test]
    fn sequential_addresses_and_ids_spread() {
        let base = u32::from(Ipv4Addr::new(10, 0, 0, 0));
        assert_spreads("ipv4", (0..1u32 << 16).map(|i| Ipv4Addr::from(base + i)));
        assert_spreads("u16", 0..=u16::MAX);
    }
}
