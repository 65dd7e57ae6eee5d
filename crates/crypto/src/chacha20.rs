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
/// the vector path of [`xor_in_place`] is tested against.
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

/// XOR `data` in place with the ChaCha20 keystream starting at block `counter`.
///
/// Encryption and decryption are the same operation. On x86_64 all but a
/// last lone block go four at a time through SSE2 (baseline there, so no
/// detection); a lone block, and every block on other architectures, is
/// the scalar [`block`]. The counter wraps as `u32::wrapping_add` on both.
pub fn xor_in_place(key: &[u8; KEY_LEN], counter: u32, nonce: &[u8; NONCE_LEN], data: &mut [u8]) {
    let mut state = init_state(key, counter, nonce);
    #[cfg(target_arch = "x86_64")]
    let data = {
        let mut data = data;
        while data.len() > 64 {
            let (now, rest) = data.split_at_mut(data.len().min(4 * 64));
            // SAFETY: SSE2 is part of the x86_64 baseline, so every x86_64
            // CPU has the one feature `xor_blocks4` is compiled for.
            unsafe { sse2::xor_blocks4(&state, now) };
            state[12] = state[12].wrapping_add(4);
            data = rest;
        }
        data
    };
    for chunk in data.chunks_mut(64) {
        let ks = keystream(&state);
        for (b, k) in chunk.iter_mut().zip(ks.iter()) {
            *b ^= k;
        }
        state[12] = state[12].wrapping_add(1);
    }
}

/// Four ChaCha20 blocks at once on SSE2, one block per 32-bit lane.
#[cfg(target_arch = "x86_64")]
mod sse2 {
    use std::arch::x86_64::*;

    /// Rotate every 32-bit lane left by `$n` bits.
    macro_rules! rotl {
        ($x:expr, 16) => {
            _mm_shufflehi_epi16::<0xb1>(_mm_shufflelo_epi16::<0xb1>($x))
        };
        ($x:expr, $n:literal) => {
            _mm_or_si128(_mm_slli_epi32::<$n>($x), _mm_srli_epi32::<{ 32 - $n }>($x))
        };
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    fn quarter_round(v: &mut [__m128i; 16], a: usize, b: usize, c: usize, d: usize) {
        v[a] = _mm_add_epi32(v[a], v[b]);
        v[d] = rotl!(_mm_xor_si128(v[d], v[a]), 16);
        v[c] = _mm_add_epi32(v[c], v[d]);
        v[b] = rotl!(_mm_xor_si128(v[b], v[c]), 12);
        v[a] = _mm_add_epi32(v[a], v[b]);
        v[d] = rotl!(_mm_xor_si128(v[d], v[a]), 8);
        v[c] = _mm_add_epi32(v[c], v[d]);
        v[b] = rotl!(_mm_xor_si128(v[b], v[c]), 7);
    }

    /// XOR `data` (at most 256 bytes) with the keystream blocks at
    /// `state`'s counter and the three after it, exactly as four calls of
    /// the scalar block function would.
    #[target_feature(enable = "sse2")]
    pub(super) fn xor_blocks4(state: &[u32; 16], data: &mut [u8]) {
        debug_assert!(data.len() <= 4 * 64);
        // Lane j of word i is word i of block j; block j's counter is the
        // state's plus j, wrapping like `u32::wrapping_add`.
        let mut initial: [__m128i; 16] = std::array::from_fn(|i| _mm_set1_epi32(state[i] as i32));
        initial[12] = _mm_add_epi32(initial[12], _mm_set_epi32(3, 2, 1, 0));
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
        // Transpose each 4×4 group of words so that `ks[4 * j + k]` holds
        // bytes 16k..16k+16 of block j: the keystream in byte order (lanes
        // are little-endian, as the scalar `to_le_bytes`).
        let mut ks = [_mm_setzero_si128(); 16];
        for k in 0..4 {
            let w = |i: usize| _mm_add_epi32(v[4 * k + i], initial[4 * k + i]);
            let (lo01, hi01) = (
                _mm_unpacklo_epi32(w(0), w(1)),
                _mm_unpackhi_epi32(w(0), w(1)),
            );
            let (lo23, hi23) = (
                _mm_unpacklo_epi32(w(2), w(3)),
                _mm_unpackhi_epi32(w(2), w(3)),
            );
            ks[k] = _mm_unpacklo_epi64(lo01, lo23);
            ks[4 + k] = _mm_unpackhi_epi64(lo01, lo23);
            ks[8 + k] = _mm_unpacklo_epi64(hi01, hi23);
            ks[12 + k] = _mm_unpackhi_epi64(hi01, hi23);
        }
        let whole = data.len() / 16;
        let mut chunks = data.chunks_exact_mut(16);
        for (chunk, k) in (&mut chunks).zip(ks) {
            let p = chunk.as_mut_ptr().cast::<__m128i>();
            // SAFETY: `chunk` is exactly 16 bytes, so the 16-byte load and
            // store at `p` stay inside it, and `loadu`/`storeu` need no
            // alignment.
            unsafe { _mm_storeu_si128(p, _mm_xor_si128(_mm_loadu_si128(p), k)) };
        }
        let tail = chunks.into_remainder();
        if !tail.is_empty() {
            let mut last = [0u8; 16];
            // SAFETY: `last` is 16 bytes, so the 16-byte store stays inside
            // it, and `storeu` needs no alignment. `whole < 16` here, as
            // `data` is at most 256 bytes and not a multiple of 16.
            unsafe { _mm_storeu_si128(last.as_mut_ptr().cast(), ks[whole]) };
            for (b, k) in tail.iter_mut().zip(last) {
                *b ^= k;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // RFC 8439 §2.3.2 block function test vector.
    #[test]
    fn rfc8439_block_vector() {
        let mut key = [0u8; 32];
        for (i, b) in key.iter_mut().enumerate() {
            *b = i as u8;
        }
        let nonce = [0, 0, 0, 9, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let ks = block(&key, 1, &nonce);
        assert_eq!(
            hex(&ks),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e\
             d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
        );
    }

    // RFC 8439 §2.4.2 encryption test vector.
    #[test]
    fn rfc8439_encrypt_vector() {
        let mut key = [0u8; 32];
        for (i, b) in key.iter_mut().enumerate() {
            *b = i as u8;
        }
        let nonce = [0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let mut data = b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.".to_vec();
        xor_in_place(&key, 1, &nonce, &mut data);
        assert_eq!(
            hex(&data[..32]),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
        );
        assert_eq!(hex(&data[96..114]), "5af90bbf74a35be6b40b8eedf2785e42874d");
    }

    #[test]
    fn roundtrip() {
        let key = [7u8; 32];
        let nonce = [3u8; 12];
        let plain: Vec<u8> = (0..300).map(|i| (i % 251) as u8).collect();
        let mut data = plain.clone();
        xor_in_place(&key, 0, &nonce, &mut data);
        assert_ne!(data, plain);
        xor_in_place(&key, 0, &nonce, &mut data);
        assert_eq!(data, plain);
    }

    #[test]
    fn counter_advances_across_blocks() {
        // Encrypting 128 bytes at counter 0 equals two 64-byte encryptions at
        // counters 0 and 1.
        let key = [1u8; 32];
        let nonce = [2u8; 12];
        let mut whole = vec![0u8; 128];
        xor_in_place(&key, 0, &nonce, &mut whole);
        let mut first = vec![0u8; 64];
        let mut second = vec![0u8; 64];
        xor_in_place(&key, 0, &nonce, &mut first);
        xor_in_place(&key, 1, &nonce, &mut second);
        assert_eq!(&whole[..64], &first[..]);
        assert_eq!(&whole[64..], &second[..]);
    }
}
