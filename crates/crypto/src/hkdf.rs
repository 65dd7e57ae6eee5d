//! HKDF per RFC 5869, instantiated with HMAC-SHA256.

use crate::hmac::HmacSha256;
use crate::sha256::DIGEST_LEN;

/// An HKDF pseudo-random key ready for expansion.
pub struct Hkdf {
    prk: [u8; DIGEST_LEN],
}

impl Hkdf {
    /// HKDF-Extract: derive a PRK from input keying material and a salt.
    pub fn extract(salt: &[u8], ikm: &[u8]) -> Self {
        Hkdf {
            prk: HmacSha256::mac(salt, ikm),
        }
    }

    /// HKDF-Expand: fill `okm` with output keying material bound to `info`.
    ///
    /// # Panics
    /// Panics if `okm.len() > 255 * 32` (RFC 5869 limit).
    pub fn expand(&self, info: &[u8], okm: &mut [u8]) {
        assert!(okm.len() <= 255 * DIGEST_LEN, "HKDF output too long");
        let mut t: Vec<u8> = Vec::new();
        let mut offset = 0;
        let mut counter = 1u8;
        while offset < okm.len() {
            let mut h = HmacSha256::new(&self.prk);
            h.update(&t);
            h.update(info);
            h.update(&[counter]);
            let block = h.finalize();
            let take = (okm.len() - offset).min(DIGEST_LEN);
            okm[offset..offset + take].copy_from_slice(&block[..take]);
            t = block.to_vec();
            offset += take;
            counter += 1;
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
        let hk = Hkdf::extract(&salt, &ikm);
        assert_eq!(
            hex(&hk.prk),
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5"
        );
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
    fn multi_block_expansion_is_consistent_prefix() {
        let hk = Hkdf::extract(b"s", b"k");
        let mut long = [0u8; 100];
        hk.expand(b"i", &mut long);
        let mut short = [0u8; 32];
        hk.expand(b"i", &mut short);
        assert_eq!(&long[..32], &short[..]);
    }
}
