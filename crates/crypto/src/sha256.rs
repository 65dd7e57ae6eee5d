//! SHA-256 per FIPS 180-4.
//!
//! Streaming interface: [`Sha256::update`] may be called any number of times
//! before [`Sha256::finalize`].
//!
//! Two compression functions produce the same bytes. The portable scalar
//! one is the reference and the only path on other CPUs and architectures.
//! On x86_64 CPUs with the SHA extensions (and SSE4.1), [`Sha256::new`]
//! selects a second one built on the `sha256rnds2`/`sha256msg1`/
//! `sha256msg2` instructions, detected at run time.
//!
//! [`Sha256::digest_one_block`] hashes an input of at most
//! [`ONE_BLOCK_MAX`] bytes with one compression of a padded stack block
//! and no streaming state.

/// Output length of SHA-256 in bytes.
pub const DIGEST_LEN: usize = 32;
/// Internal block length in bytes.
pub const BLOCK_LEN: usize = 64;
/// Longest input [`Sha256::digest_one_block`] takes: the padding byte
/// `0x80` and the 8-byte length fill the rest of its one block.
pub const ONE_BLOCK_MAX: usize = BLOCK_LEN - 9;

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Which compression function a hasher runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Backend {
    /// The portable reference, [`Sha256::compress`].
    Scalar,
    /// The SHA extensions; only ever chosen after [`shani::detected`].
    #[cfg(target_arch = "x86_64")]
    ShaNi,
}

impl Backend {
    fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        if shani::detected() {
            return Backend::ShaNi;
        }
        Backend::Scalar
    }

    /// Compress every block of `blocks`, whose length is a multiple of
    /// [`BLOCK_LEN`], into `state`.
    fn compress_blocks(self, state: &mut [u32; 8], blocks: &[u8]) {
        debug_assert_eq!(blocks.len() % BLOCK_LEN, 0);
        match self {
            Backend::Scalar => {
                for block in blocks.chunks_exact(BLOCK_LEN) {
                    compress(state, block.try_into().expect("chunks are whole blocks"));
                }
            }
            #[cfg(target_arch = "x86_64")]
            // SAFETY: a backend is `ShaNi` only when `shani::detected()` saw
            // the `sha` and `sse4.1` features on this CPU (in `detect`, and
            // in the tests' `hardware`), which are the features
            // `shani::compress_blocks` is compiled for.
            Backend::ShaNi => unsafe { shani::compress_blocks(state, blocks) },
        }
    }

    /// SHA-256 of `data`, at most [`ONE_BLOCK_MAX`] bytes, as one padded
    /// block.
    fn digest_one_block(self, data: &[u8]) -> [u8; DIGEST_LEN] {
        assert!(
            data.len() <= ONE_BLOCK_MAX,
            "{} bytes do not fit one block",
            data.len()
        );
        let mut block = [0u8; BLOCK_LEN];
        block[..data.len()].copy_from_slice(data);
        block[data.len()] = 0x80;
        block[BLOCK_LEN - 8..].copy_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        self.compress_blocks(&mut state, &block);
        digest_bytes(&state)
    }
}

/// The big-endian bytes of a final hash state.
fn digest_bytes(state: &[u32; 8]) -> [u8; DIGEST_LEN] {
    let mut out = [0u8; DIGEST_LEN];
    for (i, word) in state.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// Incremental SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; BLOCK_LEN],
    buf_len: usize,
    total_len: u64,
    backend: Backend,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Create a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buf: [0u8; BLOCK_LEN],
            buf_len: 0,
            total_len: 0,
            backend: Backend::detect(),
        }
    }

    /// Absorb `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let take = (BLOCK_LEN - self.buf_len).min(rest.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len == BLOCK_LEN {
                let block = self.buf;
                self.compress_blocks(&block);
                self.buf_len = 0;
            }
        }
        let (blocks, tail) = rest.split_at(rest.len() - rest.len() % BLOCK_LEN);
        self.compress_blocks(blocks);
        rest = tail;
        if !rest.is_empty() {
            self.buf[..rest.len()].copy_from_slice(rest);
            self.buf_len = rest.len();
        }
    }

    /// Consume the hasher and produce the 32-byte digest.
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        let bit_len = self.total_len.wrapping_mul(8);
        // Padding: 0x80, zeros, then the 64-bit big-endian bit length. The
        // buffer is never full here; when fewer than 9 bytes are free, the
        // length goes into a second, otherwise zero block.
        let len_at = BLOCK_LEN - 8;
        self.buf[self.buf_len] = 0x80;
        self.buf[self.buf_len + 1..].fill(0);
        if self.buf_len >= len_at {
            let block = self.buf;
            self.compress_blocks(&block);
            self.buf[..len_at].fill(0);
        }
        self.buf[len_at..].copy_from_slice(&bit_len.to_be_bytes());
        let block = self.buf;
        self.compress_blocks(&block);
        digest_bytes(&self.state)
    }

    /// One-shot convenience.
    pub fn digest(data: &[u8]) -> [u8; DIGEST_LEN] {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize()
    }

    /// [`Sha256::digest`] of an input of at most [`ONE_BLOCK_MAX`] bytes:
    /// the input is padded into one stack block and compressed once on
    /// the detected backend.
    ///
    /// # Panics
    ///
    /// If `data` is longer than [`ONE_BLOCK_MAX`].
    pub fn digest_one_block(data: &[u8]) -> [u8; DIGEST_LEN] {
        Backend::detect().digest_one_block(data)
    }

    /// Compress every block of `blocks`, whose length is a multiple of
    /// [`BLOCK_LEN`], with this hasher's backend.
    fn compress_blocks(&mut self, blocks: &[u8]) {
        self.backend.compress_blocks(&mut self.state, blocks);
    }
}

/// The portable FIPS 180-4 compression of one block into `state`.
fn compress(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ ((!e) & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// The x86_64 SHA-extension compression function.
#[cfg(target_arch = "x86_64")]
mod shani {
    use super::{BLOCK_LEN, K};
    use std::arch::x86_64::*;

    /// Whether this CPU has every feature [`compress_blocks`] is built for
    /// (`sse4.1` implies the `ssse3` and `sse2` it also uses).
    pub(super) fn detected() -> bool {
        is_x86_feature_detected!("sha") && is_x86_feature_detected!("sse4.1")
    }

    /// Compress every block of `blocks` (a multiple of [`BLOCK_LEN`] long)
    /// into `state`, exactly as the scalar `Sha256::compress` would.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
        // Reverses the bytes of each 32-bit lane: the message is big-endian.
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        // `sha256rnds2` keeps the state as (a, b, e, f) and (c, d, g, h),
        // highest lane first.
        let s = |i: usize| state[i] as i32;
        let dcba = _mm_set_epi32(s(3), s(2), s(1), s(0));
        let hgfe = _mm_set_epi32(s(7), s(6), s(5), s(4));
        let cdab = _mm_shuffle_epi32(dcba, 0xb1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

        for block in blocks.chunks_exact(BLOCK_LEN) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let p = block.as_ptr().cast::<__m128i>();
            // SAFETY: `block` is 64 bytes, so the four 16-byte loads at
            // offsets 0, 16, 32 and 48 stay inside it, and `loadu` needs no
            // alignment.
            let raw = unsafe {
                [
                    _mm_loadu_si128(p),
                    _mm_loadu_si128(p.add(1)),
                    _mm_loadu_si128(p.add(2)),
                    _mm_loadu_si128(p.add(3)),
                ]
            };
            // `w` holds message words 4i..4i+16, four to a vector, low lane
            // first.
            let mut w = [
                _mm_shuffle_epi8(raw[0], bswap),
                _mm_shuffle_epi8(raw[1], bswap),
                _mm_shuffle_epi8(raw[2], bswap),
                _mm_shuffle_epi8(raw[3], bswap),
            ];
            for i in 0..16 {
                let k = |j: usize| K[4 * i + j] as i32;
                let wk = _mm_add_epi32(w[0], _mm_set_epi32(k(3), k(2), k(1), k(0)));
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
                // W[t] = σ1(W[t-2]) + W[t-7] + σ0(W[t-15]) + W[t-16].
                let t = _mm_add_epi32(
                    _mm_sha256msg1_epu32(w[0], w[1]),
                    _mm_alignr_epi8(w[3], w[2], 4),
                );
                w = [w[1], w[2], w[3], _mm_sha256msg2_epu32(t, w[3])];
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32(abef, 0x1b);
        let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
        let dcba = _mm_blend_epi16(feba, dchg, 0xf0);
        let hgfe = _mm_alignr_epi8(dchg, feba, 8);
        let out = state.as_mut_ptr().cast::<__m128i>();
        // SAFETY: `state` is 32 bytes, so the two 16-byte stores at offsets 0
        // and 16 stay inside it, and `storeu` needs no alignment.
        unsafe {
            _mm_storeu_si128(out, dcba);
            _mm_storeu_si128(out.add(1), hgfe);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cell::Cell;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The hardware backend when this CPU has one. Without it, each test
    /// that asks says so once on stderr and checks the scalar half alone.
    fn hardware() -> Option<Backend> {
        #[cfg(target_arch = "x86_64")]
        if shani::detected() {
            return Some(Backend::ShaNi);
        }
        thread_local!(static SAID: Cell<bool> = const { Cell::new(false) });
        if !SAID.replace(true) {
            eprintln!("sha256: this CPU has no SHA extensions; checking the scalar path only");
        }
        None
    }

    /// The scalar reference, then the hardware backend if there is one.
    fn backends() -> Vec<Backend> {
        std::iter::once(Backend::Scalar).chain(hardware()).collect()
    }

    /// A fresh hasher on `backend`, which must run on this CPU.
    fn hasher(backend: Backend) -> Sha256 {
        assert!(backend == Backend::Scalar || hardware() == Some(backend));
        Sha256 {
            backend,
            ..Sha256::new()
        }
    }

    /// Digest `data` on `backend`, fed in pieces cut at `cuts` (taken
    /// modulo `data.len() + 1`).
    fn digest_in_pieces(backend: Backend, data: &[u8], cuts: &[usize]) -> [u8; DIGEST_LEN] {
        let mut at: Vec<usize> = cuts.iter().map(|c| c % (data.len() + 1)).collect();
        at.sort_unstable();
        let mut h = hasher(backend);
        let mut prev = 0;
        for c in at {
            h.update(&data[prev..c]);
            prev = c;
        }
        h.update(&data[prev..]);
        h.finalize()
    }

    proptest! {
        /// One to three blocks from a random state: the hardware
        /// compression, and the scalar one driven through the multi-block
        /// entry point, both match the scalar `compress` block by block.
        #[test]
        fn hardware_compress_matches_scalar(
            state in prop::collection::vec(any::<u32>(), 8),
            blocks in (1usize..=3).prop_flat_map(|n| prop::collection::vec(any::<u8>(), n * BLOCK_LEN)),
        ) {
            let state: [u32; 8] = state.try_into().unwrap();
            let mut reference = state;
            for block in blocks.chunks_exact(BLOCK_LEN) {
                compress(&mut reference, block.try_into().unwrap());
            }
            for backend in backends() {
                let mut h = Sha256 { state, ..hasher(backend) };
                h.compress_blocks(&blocks);
                prop_assert_eq!(h.state, reference, "{:?}", backend);
            }
        }

        /// Every length 0..=ONE_BLOCK_MAX: the one-block digest on every
        /// backend equals the streaming digest.
        #[test]
        fn one_block_digest_matches_streaming(
            data in prop::collection::vec(any::<u8>(), ONE_BLOCK_MAX),
        ) {
            for len in 0..=ONE_BLOCK_MAX {
                let want = Sha256::digest(&data[..len]);
                for backend in backends() {
                    prop_assert_eq!(backend.digest_one_block(&data[..len]), want, "{:?} len {}", backend, len);
                }
                prop_assert_eq!(Sha256::digest_one_block(&data[..len]), want);
            }
        }
    }

    #[test]
    #[should_panic(expected = "56 bytes do not fit one block")]
    fn one_block_digest_refuses_a_second_block() {
        Sha256::digest_one_block(&[0u8; ONE_BLOCK_MAX + 1]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Every length 0..=300, one-shot and in random pieces, digests the
        /// same on every backend as one-shot on the scalar reference.
        #[test]
        fn hardware_digest_matches_scalar_at_every_length(
            data in prop::collection::vec(any::<u8>(), 300),
            cuts in prop::collection::vec(any::<usize>(), 0..6),
        ) {
            for len in 0..=data.len() {
                let msg = &data[..len];
                let want = digest_in_pieces(Backend::Scalar, msg, &[]);
                for backend in backends() {
                    prop_assert_eq!(digest_in_pieces(backend, msg, &[]), want, "{:?} len {}", backend, len);
                    prop_assert_eq!(digest_in_pieces(backend, msg, &cuts), want, "{:?} len {} cuts {:?}", backend, len, &cuts);
                }
            }
        }
    }

    #[test]
    fn padding_edges_on_every_backend() {
        // 55 bytes leave exactly room for 0x80 and the length; 56..=63 push
        // the length into a second block; 64 is a whole block.
        let vectors = [
            (
                55,
                "e7313d333c272e639f790978283f9eb392e843d0f29b7016828bb1daa4aac70b",
            ),
            (
                56,
                "4324d65f3c103567f5589c710bc08f8523f929a9272e3af36fc968e52abc6c27",
            ),
            (
                63,
                "81c80242132f230c3bd41b3e63bbcff16107339549214a99614ff26664625055",
            ),
            (
                64,
                "39e3d7b6b5d075d37d053ad89b24b41bef4f3c29760c84447cab3f3be1882241",
            ),
        ];
        for (len, want) in vectors {
            let data: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
            let every_byte: Vec<usize> = (1..len).collect();
            for backend in backends() {
                assert_eq!(
                    hex(&digest_in_pieces(backend, &data, &[])),
                    want,
                    "{backend:?} len {len}"
                );
                assert_eq!(
                    hex(&digest_in_pieces(backend, &data, &every_byte)),
                    want,
                    "{backend:?} len {len}, byte at a time"
                );
            }
        }
    }

    #[test]
    fn empty_string_vector() {
        assert_eq!(
            hex(&Sha256::digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc_vector() {
        assert_eq!(
            hex(&Sha256::digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_vector() {
        assert_eq!(
            hex(&Sha256::digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a_vector() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for split in [0usize, 1, 55, 56, 63, 64, 65, 128, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), Sha256::digest(&data), "split at {split}");
        }
    }

    #[test]
    fn boundary_lengths() {
        // Hash every length near block boundaries; comparing streaming 1-byte
        // feed against one-shot guarantees padding logic is consistent.
        for len in 0..130 {
            let data = vec![0x5au8; len];
            let mut h = Sha256::new();
            for b in &data {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), Sha256::digest(&data), "len {len}");
        }
    }
}
