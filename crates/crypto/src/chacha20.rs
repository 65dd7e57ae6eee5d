//! ChaCha20 stream cipher per RFC 8439 §2.

/// ChaCha20 key length in bytes.
pub const KEY_LEN: usize = 32;
/// ChaCha20 nonce length in bytes (IETF 96-bit variant).
pub const NONCE_LEN: usize = 12;

const SIGMA: [u32; 4] = [0x61707865, 0x3320646e, 0x79622d32, 0x6b206574];

#[inline]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

fn init_state(key: &[u8; KEY_LEN], counter: u32, nonce: &[u8; NONCE_LEN]) -> [u32; 16] {
    let mut s = [0u32; 16];
    s[..4].copy_from_slice(&SIGMA);
    for i in 0..8 {
        s[4 + i] = u32::from_le_bytes([key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]]);
    }
    s[12] = counter;
    for i in 0..3 {
        s[13 + i] = u32::from_le_bytes([
            nonce[4 * i],
            nonce[4 * i + 1],
            nonce[4 * i + 2],
            nonce[4 * i + 3],
        ]);
    }
    s
}

/// Produce one 64-byte ChaCha20 keystream block.
///
/// This is the RFC 8439 §2.3 block function as written, and the reference
/// the AVX2 path of [`xor_in_place`] is tested against.
pub fn block(key: &[u8; KEY_LEN], counter: u32, nonce: &[u8; NONCE_LEN]) -> [u8; 64] {
    keystream(&init_state(key, counter, nonce))
}

fn keystream(initial: &[u32; 16]) -> [u8; 64] {
    let mut s = *initial;
    for _ in 0..10 {
        quarter_round(&mut s, 0, 4, 8, 12);
        quarter_round(&mut s, 1, 5, 9, 13);
        quarter_round(&mut s, 2, 6, 10, 14);
        quarter_round(&mut s, 3, 7, 11, 15);
        quarter_round(&mut s, 0, 5, 10, 15);
        quarter_round(&mut s, 1, 6, 11, 12);
        quarter_round(&mut s, 2, 7, 8, 13);
        quarter_round(&mut s, 3, 4, 9, 14);
    }
    let mut out = [0u8; 64];
    for i in 0..16 {
        let word = s[i].wrapping_add(initial[i]);
        out[4 * i..4 * i + 4].copy_from_slice(&word.to_le_bytes());
    }
    out
}

/// Which code runs the multi-block part of a keystream XOR.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Backend {
    /// The RFC 8439 block function, one block at a time.
    Scalar,
    /// Eight blocks at once on AVX2; only ever chosen after
    /// [`avx2::detected`].
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl Backend {
    /// AVX2 when this CPU has it, else the scalar code.
    pub(crate) fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        if avx2::detected() {
            return Backend::Avx2;
        }
        Backend::Scalar
    }
}

/// XOR `data` in place with the ChaCha20 keystream starting at block `counter`.
///
/// Encryption and decryption are the same operation. On x86_64 CPUs with
/// AVX2 (detected at run time) all but a last lone block go eight at a
/// time through one vector pass; a lone block, and every block elsewhere,
/// is the scalar [`block`]. The counter wraps as `u32::wrapping_add` on
/// both.
pub fn xor_in_place(key: &[u8; KEY_LEN], counter: u32, nonce: &[u8; NONCE_LEN], data: &mut [u8]) {
    xor_on(Backend::detect(), key, counter, nonce, data);
}

/// [`xor_in_place`] on `backend`, which must run on this CPU.
pub(crate) fn xor_on(
    backend: Backend,
    key: &[u8; KEY_LEN],
    counter: u32,
    nonce: &[u8; NONCE_LEN],
    data: &mut [u8],
) {
    let mut state = init_state(key, counter, nonce);
    let data = match backend {
        Backend::Scalar => data,
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => {
            let mut data = data;
            while data.len() > 64 {
                let (now, rest) = data.split_at_mut(data.len().min(8 * 64));
                // SAFETY: the backend is `Avx2` only when `avx2::detected()`
                // saw AVX2 on this CPU (in `Backend::detect`, and in the
                // tests' `hardware`), the one feature `xor_blocks8` is
                // compiled for.
                unsafe { avx2::xor_blocks8(&state, now) };
                state[12] = state[12].wrapping_add(8);
                data = rest;
            }
            data
        }
    };
    for chunk in data.chunks_mut(64) {
        let ks = keystream(&state);
        for (b, k) in chunk.iter_mut().zip(ks.iter()) {
            *b ^= k;
        }
        state[12] = state[12].wrapping_add(1);
    }
}

/// Eight ChaCha20 blocks at once on AVX2, one block per 32-bit lane.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    /// Whether this CPU has the one feature [`xor_blocks8`] is built for.
    pub(super) fn detected() -> bool {
        is_x86_feature_detected!("avx2")
    }

    /// Rotate every 32-bit lane left by `$n` bits: by 16 and 8 as a byte
    /// shuffle within each 128-bit half, by 12 and 7 as two shifts.
    macro_rules! rotl {
        ($x:expr, 16) => {
            _mm256_shuffle_epi8(
                $x,
                _mm256_set_epi64x(
                    0x0d0c_0f0e_0908_0b0a,
                    0x0504_0706_0100_0302,
                    0x0d0c_0f0e_0908_0b0a,
                    0x0504_0706_0100_0302,
                ),
            )
        };
        ($x:expr, 8) => {
            _mm256_shuffle_epi8(
                $x,
                _mm256_set_epi64x(
                    0x0e0d_0c0f_0a09_080b,
                    0x0605_0407_0201_0003,
                    0x0e0d_0c0f_0a09_080b,
                    0x0605_0407_0201_0003,
                ),
            )
        };
        ($x:expr, $n:literal) => {
            _mm256_or_si256(
                _mm256_slli_epi32::<$n>($x),
                _mm256_srli_epi32::<{ 32 - $n }>($x),
            )
        };
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn quarter_round(v: &mut [__m256i; 16], a: usize, b: usize, c: usize, d: usize) {
        v[a] = _mm256_add_epi32(v[a], v[b]);
        v[d] = rotl!(_mm256_xor_si256(v[d], v[a]), 16);
        v[c] = _mm256_add_epi32(v[c], v[d]);
        v[b] = rotl!(_mm256_xor_si256(v[b], v[c]), 12);
        v[a] = _mm256_add_epi32(v[a], v[b]);
        v[d] = rotl!(_mm256_xor_si256(v[d], v[a]), 8);
        v[c] = _mm256_add_epi32(v[c], v[d]);
        v[b] = rotl!(_mm256_xor_si256(v[b], v[c]), 7);
    }

    /// XOR `data` (at most 512 bytes) with the keystream blocks at
    /// `state`'s counter and the seven after it, exactly as eight calls of
    /// the scalar block function would.
    #[target_feature(enable = "avx2")]
    pub(super) fn xor_blocks8(state: &[u32; 16], data: &mut [u8]) {
        debug_assert!(data.len() <= 8 * 64);
        // Lane j of word i is word i of block j; block j's counter is the
        // state's plus j, wrapping like `u32::wrapping_add`.
        let mut initial: [__m256i; 16] =
            std::array::from_fn(|i| _mm256_set1_epi32(state[i] as i32));
        initial[12] = _mm256_add_epi32(initial[12], _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
        let mut v = initial;
        for _ in 0..10 {
            quarter_round(&mut v, 0, 4, 8, 12);
            quarter_round(&mut v, 1, 5, 9, 13);
            quarter_round(&mut v, 2, 6, 10, 14);
            quarter_round(&mut v, 3, 7, 11, 15);
            quarter_round(&mut v, 0, 5, 10, 15);
            quarter_round(&mut v, 1, 6, 11, 12);
            quarter_round(&mut v, 2, 7, 8, 13);
            quarter_round(&mut v, 3, 4, 9, 14);
        }
        // Transpose each group of words 4k..4k+4 within the 128-bit
        // halves: `rows[k][m]` holds those words of block m in its low half
        // and of block m + 4 in its high half (lanes are little-endian, as
        // the scalar `to_le_bytes`).
        let rows: [[__m256i; 4]; 4] = std::array::from_fn(|k| {
            let w = |i: usize| _mm256_add_epi32(v[4 * k + i], initial[4 * k + i]);
            let (lo01, hi01) = (
                _mm256_unpacklo_epi32(w(0), w(1)),
                _mm256_unpackhi_epi32(w(0), w(1)),
            );
            let (lo23, hi23) = (
                _mm256_unpacklo_epi32(w(2), w(3)),
                _mm256_unpackhi_epi32(w(2), w(3)),
            );
            [
                _mm256_unpacklo_epi64(lo01, lo23),
                _mm256_unpackhi_epi64(lo01, lo23),
                _mm256_unpacklo_epi64(hi01, hi23),
                _mm256_unpackhi_epi64(hi01, hi23),
            ]
        });
        // Join the halves: `ks[2 * j + h]` is bytes 32h..32h+32 of block j,
        // so `ks` is the keystream in byte order.
        let mut ks = [_mm256_setzero_si256(); 16];
        for m in 0..4 {
            let (r0, r1, r2, r3) = (rows[0][m], rows[1][m], rows[2][m], rows[3][m]);
            ks[2 * m] = _mm256_permute2x128_si256::<0x20>(r0, r1);
            ks[2 * m + 1] = _mm256_permute2x128_si256::<0x20>(r2, r3);
            ks[2 * m + 8] = _mm256_permute2x128_si256::<0x31>(r0, r1);
            ks[2 * m + 9] = _mm256_permute2x128_si256::<0x31>(r2, r3);
        }
        let whole = data.len() / 32;
        let mut chunks = data.chunks_exact_mut(32);
        for (chunk, k) in (&mut chunks).zip(ks) {
            let p = chunk.as_mut_ptr().cast::<__m256i>();
            // SAFETY: `chunk` is exactly 32 bytes, so the 32-byte load and
            // store at `p` stay inside it, and `loadu`/`storeu` need no
            // alignment.
            unsafe { _mm256_storeu_si256(p, _mm256_xor_si256(_mm256_loadu_si256(p), k)) };
        }
        let tail = chunks.into_remainder();
        if !tail.is_empty() {
            let mut last = [0u8; 32];
            // SAFETY: `last` is 32 bytes, so the 32-byte store stays inside
            // it, and `storeu` needs no alignment. `whole < 16` here, as
            // `data` is at most 512 bytes and not a multiple of 32.
            unsafe { _mm256_storeu_si256(last.as_mut_ptr().cast(), ks[whole]) };
            for (b, k) in tail.iter_mut().zip(last) {
                *b ^= k;
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cell::Cell;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The AVX2 backend when this CPU has it. Without it, each test that
    /// asks says so once on stderr and checks the scalar half alone.
    fn hardware() -> Option<Backend> {
        #[cfg(target_arch = "x86_64")]
        if avx2::detected() {
            return Some(Backend::Avx2);
        }
        thread_local!(static SAID: Cell<bool> = const { Cell::new(false) });
        if !SAID.replace(true) {
            eprintln!("chacha20: this CPU has no AVX2; checking the scalar path only");
        }
        None
    }

    /// The scalar reference, then the eight-lane backend if there is one.
    pub(crate) fn backends() -> Vec<Backend> {
        std::iter::once(Backend::Scalar).chain(hardware()).collect()
    }

    /// XOR `data` with the keystream taken block by block from [`block`],
    /// the counter wrapping like `u32::wrapping_add`.
    pub(crate) fn xor_reference(key: &[u8; 32], counter: u32, nonce: &[u8; 12], data: &mut [u8]) {
        for (i, chunk) in data.chunks_mut(64).enumerate() {
            let ks = block(key, counter.wrapping_add(i as u32), nonce);
            for (b, k) in chunk.iter_mut().zip(ks) {
                *b ^= k;
            }
        }
    }

    fn rfc_key() -> [u8; 32] {
        std::array::from_fn(|i| i as u8)
    }

    // RFC 8439 §2.3.2 block function test vector: the scalar block
    // function, and the eight-lane kernel run on that one block alone
    // (`xor_in_place` hands a lone block to the scalar code).
    #[test]
    fn rfc8439_block_vector() {
        let want = "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e\
                    d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e";
        let nonce = [0, 0, 0, 9, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        assert_eq!(hex(&block(&rfc_key(), 1, &nonce)), want);
        #[cfg(target_arch = "x86_64")]
        if hardware() == Some(Backend::Avx2) {
            let mut ks = [0u8; 64];
            // SAFETY: `hardware()` returned `Avx2` only after
            // `avx2::detected()` saw AVX2 on this CPU.
            unsafe { avx2::xor_blocks8(&init_state(&rfc_key(), 1, &nonce), &mut ks) };
            assert_eq!(hex(&ks), want);
        }
    }

    // RFC 8439 §2.4.2 encryption test vector, on every backend.
    #[test]
    fn rfc8439_encrypt_vector() {
        let nonce = [0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        for backend in backends() {
            let mut data = b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.".to_vec();
            xor_on(backend, &rfc_key(), 1, &nonce, &mut data);
            assert_eq!(
                hex(&data[..32]),
                "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b",
                "{backend:?}"
            );
            assert_eq!(
                hex(&data[96..114]),
                "5af90bbf74a35be6b40b8eedf2785e42874d",
                "{backend:?}"
            );
        }
    }

    #[test]
    fn roundtrip() {
        let key = [7u8; 32];
        let nonce = [3u8; 12];
        let plain: Vec<u8> = (0..300).map(|i| (i % 251) as u8).collect();
        for backend in backends() {
            let mut data = plain.clone();
            xor_on(backend, &key, 0, &nonce, &mut data);
            assert_ne!(data, plain);
            xor_on(backend, &key, 0, &nonce, &mut data);
            assert_eq!(data, plain);
        }
    }

    #[test]
    fn counter_advances_across_blocks() {
        // Encrypting 128 bytes at counter 0 equals two 64-byte encryptions at
        // counters 0 and 1.
        let key = [1u8; 32];
        let nonce = [2u8; 12];
        for backend in backends() {
            let mut whole = vec![0u8; 128];
            xor_on(backend, &key, 0, &nonce, &mut whole);
            let mut first = vec![0u8; 64];
            let mut second = vec![0u8; 64];
            xor_on(backend, &key, 0, &nonce, &mut first);
            xor_on(backend, &key, 1, &nonce, &mut second);
            assert_eq!(&whole[..64], &first[..]);
            assert_eq!(&whole[64..], &second[..]);
        }
    }

    /// Every length 0..=1024 on every backend, in one run, equals the
    /// scalar block function run block by block: lone blocks, partial and
    /// whole eight-block passes, and the 448/449-byte edge where a sealed
    /// message leaves the AEAD's first eight-block pass.
    #[test]
    fn every_length_matches_scalar_blocks() {
        let key: [u8; 32] = std::array::from_fn(|i| (i * 13 + 5) as u8);
        let nonce = [9u8; 12];
        let plain: Vec<u8> = (0..=1024).map(|i| (i * 31 % 251) as u8).collect();
        for len in 0..=plain.len() {
            let mut want = plain[..len].to_vec();
            xor_reference(&key, 0xffff_fffa, &nonce, &mut want);
            for backend in backends() {
                let mut got = plain[..len].to_vec();
                xor_on(backend, &key, 0xffff_fffa, &nonce, &mut got);
                assert_eq!(got, want, "{backend:?} len {len}");
            }
        }
    }

    proptest! {
        /// Random key, nonce and length 0..=1024 on every backend equal the
        /// scalar block function run block by block, also when the block
        /// counter wraps past `u32::MAX`.
        #[test]
        fn backends_match_scalar_blocks(
            key in prop::array::uniform32(any::<u8>()),
            nonce in prop::array::uniform12(any::<u8>()),
            counter in prop_oneof![any::<u32>(), (u32::MAX - 8)..=u32::MAX],
            data in prop::collection::vec(any::<u8>(), 0..=1024),
        ) {
            let mut want = data.clone();
            xor_reference(&key, counter, &nonce, &mut want);
            for backend in backends() {
                let mut got = data.clone();
                xor_on(backend, &key, counter, &nonce, &mut got);
                prop_assert_eq!(&got, &want, "{:?}", backend);
            }
        }
    }
}
