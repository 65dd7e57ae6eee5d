//! HKDF per RFC 5869, instantiated with HMAC-SHA256.

use crate::hmac::HmacSha256;
use crate::sha256::DIGEST_LEN;

/// An HKDF pseudo-random key ready for expansion.
pub struct Hkdf {
    /// HMAC keyed with the PRK, cloned for every output block.
    prk: HmacSha256,
}

impl Hkdf {
    /// HKDF-Extract: derive a PRK from input keying material and a salt.
    pub fn extract(salt: &[u8], ikm: &[u8]) -> Self {
        Hkdf {
            prk: HmacSha256::new(&HmacSha256::mac(salt, ikm)),
        }
    }

    /// HKDF-Expand: fill `okm` with output keying material bound to `info`.
    ///
    /// # Panics
    /// Panics if `okm.len() > 255 * 32` (RFC 5869 limit).
    pub fn expand(&self, info: &[u8], okm: &mut [u8]) {
        assert!(okm.len() <= 255 * DIGEST_LEN, "HKDF output too long");
        // T(i) = HMAC(PRK, T(i-1) | info | i), with T(0) empty.
        let mut t = [0u8; DIGEST_LEN];
        for (i, out) in okm.chunks_mut(DIGEST_LEN).enumerate() {
            let mut h = self.prk.clone();
            if i > 0 {
                h.update(&t);
            }
            h.update(info);
            // At most 255 chunks, so the counter 1..=255 fits a byte.
            h.update(&[i as u8 + 1]);
            t = h.finalize();
            out.copy_from_slice(&t[..out.len()]);
        }
    }

    /// Convenience: extract then expand into a fixed-size array.
    pub fn derive<const N: usize>(salt: &[u8], ikm: &[u8], info: &[u8]) -> [u8; N] {
        let mut out = [0u8; N];
        Hkdf::extract(salt, ikm).expand(info, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // RFC 5869 Test Case 1.
    #[test]
    fn rfc5869_case1() {
        let ikm = [0x0b; 22];
        let salt: Vec<u8> = (0x00..=0x0c).collect();
        let info: Vec<u8> = (0xf0..=0xf9).collect();
        // The PRK is HKDF-Extract's HMAC; `Hkdf` keeps it only as a keyed
        // HMAC state.
        assert_eq!(
            hex(&HmacSha256::mac(&salt, &ikm)),
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5"
        );
        let hk = Hkdf::extract(&salt, &ikm);
        let mut okm = [0u8; 42];
        hk.expand(&info, &mut okm);
        assert_eq!(
            hex(&okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
        );
    }

    // RFC 5869 Test Case 3 (zero-length salt and info).
    #[test]
    fn rfc5869_case3() {
        let ikm = [0x0b; 22];
        let hk = Hkdf::extract(&[], &ikm);
        let mut okm = [0u8; 42];
        hk.expand(&[], &mut okm);
        assert_eq!(
            hex(&okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d9d201395faa4b61a96c8"
        );
    }

    #[test]
    fn distinct_infos_give_distinct_keys() {
        let hk = Hkdf::extract(b"salt", b"ikm");
        let mut a = [0u8; 32];
        let mut b = [0u8; 32];
        hk.expand(b"client", &mut a);
        hk.expand(b"server", &mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn maximum_length_expansion_uses_all_255_counters() {
        let hk = Hkdf::extract(b"s", b"k");
        let mut max = vec![0u8; 255 * DIGEST_LEN];
        hk.expand(b"i", &mut max);
        let mut one = [0u8; DIGEST_LEN];
        hk.expand(b"i", &mut one);
        assert_eq!(&max[..DIGEST_LEN], &one[..]);
        // Block 255 is real output, not left zero or repeated.
        let last = &max[254 * DIGEST_LEN..];
        assert_ne!(last, &[0u8; DIGEST_LEN][..]);
        assert_ne!(last, &max[253 * DIGEST_LEN..254 * DIGEST_LEN]);
    }

    #[test]
    #[should_panic(expected = "HKDF output too long")]
    fn expansion_past_255_blocks_is_refused() {
        let mut okm = vec![0u8; 255 * DIGEST_LEN + 1];
        Hkdf::extract(b"s", b"k").expand(b"i", &mut okm);
    }

    #[test]
    fn multi_block_expansion_is_consistent_prefix() {
        let hk = Hkdf::extract(b"s", b"k");
        let mut long = [0u8; 100];
        hk.expand(b"i", &mut long);
        let mut short = [0u8; 32];
        hk.expand(b"i", &mut short);
        assert_eq!(&long[..32], &short[..]);
    }
}
