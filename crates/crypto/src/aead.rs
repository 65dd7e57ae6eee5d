//! ChaCha20-Poly1305 AEAD per RFC 8439 §2.8.

use crate::chacha20;
use crate::ct::ct_eq;
use crate::poly1305::Poly1305;

/// AEAD key length in bytes.
pub const KEY_LEN: usize = 32;
/// AEAD nonce length in bytes.
pub const NONCE_LEN: usize = 12;
/// Authentication tag length in bytes.
pub const TAG_LEN: usize = 16;

/// Errors returned by [`open`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AeadError {
    /// Ciphertext shorter than a tag.
    Truncated,
    /// Tag verification failed: forged or corrupted message, or wrong key.
    BadTag,
}

impl std::fmt::Display for AeadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AeadError::Truncated => write!(f, "ciphertext shorter than authentication tag"),
            AeadError::BadTag => write!(f, "authentication tag mismatch"),
        }
    }
}

impl std::error::Error for AeadError {}

/// Keystream blocks 0–3 as one four-block ChaCha20 batch: block 0's first
/// 32 bytes are the Poly1305 key, and blocks 1–3 cover a message's first
/// 192 bytes.
struct FirstBatch {
    buf: [u8; 4 * 64],
    /// How many message bytes blocks 1–3 cover.
    len: usize,
}

impl FirstBatch {
    /// Run the batch over `data`'s first 192 bytes, into the batch's own
    /// buffer: nothing of `data` is released until [`FirstBatch::finish`].
    fn new(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN], data: &[u8]) -> Self {
        let len = data.len().min(3 * 64);
        let mut buf = [0u8; 4 * 64];
        buf[64..64 + len].copy_from_slice(&data[..len]);
        chacha20::xor_in_place(key, 0, nonce, &mut buf[..64 + len]);
        FirstBatch { buf, len }
    }

    fn poly_key(&self) -> [u8; 32] {
        self.buf[..32].try_into().expect("32 bytes")
    }

    /// `data` XORed with the keystream from block 1 on, with room for
    /// `spare` more bytes.
    fn finish(
        &self,
        key: &[u8; KEY_LEN],
        nonce: &[u8; NONCE_LEN],
        data: &[u8],
        spare: usize,
    ) -> Vec<u8> {
        let mut out = Vec::with_capacity(data.len() + spare);
        out.extend_from_slice(&self.buf[64..64 + self.len]);
        out.extend_from_slice(&data[self.len..]);
        chacha20::xor_in_place(key, 4, nonce, &mut out[self.len..]);
        out
    }
}

fn compute_tag(pkey: &[u8; 32], aad: &[u8], ciphertext: &[u8]) -> [u8; TAG_LEN] {
    let mut mac = Poly1305::new(pkey);
    mac.update(aad);
    mac.update(&[0u8; 16][..(16 - aad.len() % 16) % 16]);
    mac.update(ciphertext);
    mac.update(&[0u8; 16][..(16 - ciphertext.len() % 16) % 16]);
    mac.update(&(aad.len() as u64).to_le_bytes());
    mac.update(&(ciphertext.len() as u64).to_le_bytes());
    mac.finalize()
}

/// Encrypt `plaintext` with associated data `aad`; returns ciphertext ‖ tag.
pub fn seal(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
    let batch = FirstBatch::new(key, nonce, plaintext);
    let mut out = batch.finish(key, nonce, plaintext, TAG_LEN);
    let tag = compute_tag(&batch.poly_key(), aad, &out);
    out.extend_from_slice(&tag);
    out
}

/// Verify and decrypt ciphertext ‖ tag produced by [`seal`].
pub fn open(
    key: &[u8; KEY_LEN],
    nonce: &[u8; NONCE_LEN],
    aad: &[u8],
    sealed: &[u8],
) -> Result<Vec<u8>, AeadError> {
    if sealed.len() < TAG_LEN {
        return Err(AeadError::Truncated);
    }
    let (ct, tag) = sealed.split_at(sealed.len() - TAG_LEN);
    let batch = FirstBatch::new(key, nonce, ct);
    let expect = compute_tag(&batch.poly_key(), aad, ct);
    if !ct_eq(&expect, tag) {
        return Err(AeadError::BadTag);
    }
    Ok(batch.finish(key, nonce, ct, 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // RFC 8439 §2.8.2 AEAD test vector.
    #[test]
    fn rfc8439_aead_vector() {
        let key: [u8; 32] = {
            let mut k = [0u8; 32];
            for (i, b) in k.iter_mut().enumerate() {
                *b = 0x80 + i as u8;
            }
            k
        };
        let nonce: [u8; 12] = [
            0x07, 0, 0, 0, 0x40, 0x41, 0x42, 0x43, 0x44, 0x45, 0x46, 0x47,
        ];
        let aad: [u8; 12] = [
            0x50, 0x51, 0x52, 0x53, 0xc0, 0xc1, 0xc2, 0xc3, 0xc4, 0xc5, 0xc6, 0xc7,
        ];
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.";
        let sealed = seal(&key, &nonce, &aad, plaintext);
        assert_eq!(sealed.len(), plaintext.len() + TAG_LEN);
        assert_eq!(hex(&sealed[..16]), "d31a8d34648e60db7b86afbc53ef7ec2");
        assert_eq!(
            hex(&sealed[sealed.len() - TAG_LEN..]),
            "1ae10b594f09e26a7e902ecbd0600691"
        );
        let opened = open(&key, &nonce, &aad, &sealed).unwrap();
        assert_eq!(opened, plaintext);
    }

    #[test]
    fn tamper_detection() {
        let key = [1u8; 32];
        let nonce = [2u8; 12];
        let sealed = seal(&key, &nonce, b"aad", b"secret");
        for i in 0..sealed.len() {
            let mut bad = sealed.clone();
            bad[i] ^= 0x01;
            assert_eq!(open(&key, &nonce, b"aad", &bad), Err(AeadError::BadTag));
        }
        // AAD tamper.
        assert_eq!(open(&key, &nonce, b"axd", &sealed), Err(AeadError::BadTag));
        // Wrong key / nonce.
        assert_eq!(
            open(&[3u8; 32], &nonce, b"aad", &sealed),
            Err(AeadError::BadTag)
        );
        assert_eq!(
            open(&key, &[9u8; 12], b"aad", &sealed),
            Err(AeadError::BadTag)
        );
    }

    #[test]
    fn truncated_input() {
        assert_eq!(
            open(&[0; 32], &[0; 12], b"", &[0u8; 15]),
            Err(AeadError::Truncated)
        );
    }

    #[test]
    fn empty_plaintext_roundtrip() {
        let key = [5u8; 32];
        let nonce = [6u8; 12];
        let sealed = seal(&key, &nonce, b"", b"");
        assert_eq!(sealed.len(), TAG_LEN);
        assert_eq!(open(&key, &nonce, b"", &sealed).unwrap(), b"");
    }
}
