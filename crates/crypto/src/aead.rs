//! ChaCha20-Poly1305 AEAD per RFC 8439 §2.8.

use crate::chacha20::{self, Backend};
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

/// Keystream blocks 0–7 as one eight-block ChaCha20 pass: block 0's
/// first 32 bytes are the Poly1305 key, and blocks 1–7 cover a message's
/// first 448 bytes.
struct FirstBatch {
    buf: [u8; 8 * 64],
    /// How many message bytes blocks 1–7 cover.
    len: usize,
}

impl FirstBatch {
    /// Run the batch over `data`'s first 448 bytes, into the batch's own
    /// buffer: nothing of `data` is released until [`FirstBatch::finish`].
    fn new(backend: Backend, key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN], data: &[u8]) -> Self {
        let len = data.len().min(7 * 64);
        let mut buf = [0u8; 8 * 64];
        buf[64..64 + len].copy_from_slice(&data[..len]);
        chacha20::xor_on(backend, key, 0, nonce, &mut buf[..64 + len]);
        FirstBatch { buf, len }
    }

    fn poly_key(&self) -> [u8; 32] {
        self.buf[..32].try_into().expect("32 bytes")
    }

    /// Append `data` XORed with the keystream from block 1 on to `out`.
    fn finish(
        &self,
        backend: Backend,
        key: &[u8; KEY_LEN],
        nonce: &[u8; NONCE_LEN],
        data: &[u8],
        out: &mut Vec<u8>,
    ) {
        out.reserve(data.len());
        out.extend_from_slice(&self.buf[64..64 + self.len]);
        let rest = out.len();
        out.extend_from_slice(&data[self.len..]);
        chacha20::xor_on(backend, key, 8, nonce, &mut out[rest..]);
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
    seal_on(Backend::detect(), key, nonce, aad, plaintext)
}

fn seal_on(
    backend: Backend,
    key: &[u8; KEY_LEN],
    nonce: &[u8; NONCE_LEN],
    aad: &[u8],
    plaintext: &[u8],
) -> Vec<u8> {
    let batch = FirstBatch::new(backend, key, nonce, plaintext);
    let mut out = Vec::with_capacity(plaintext.len() + TAG_LEN);
    batch.finish(backend, key, nonce, plaintext, &mut out);
    let tag = compute_tag(&batch.poly_key(), aad, &out);
    out.extend_from_slice(&tag);
    out
}

/// Verify and decrypt ciphertext ‖ tag produced by [`seal`], into a new
/// `Vec`. [`open_into`] reuses a caller's buffer instead.
pub fn open(
    key: &[u8; KEY_LEN],
    nonce: &[u8; NONCE_LEN],
    aad: &[u8],
    sealed: &[u8],
) -> Result<Vec<u8>, AeadError> {
    let mut out = Vec::new();
    open_into(key, nonce, aad, sealed, &mut out)?;
    Ok(out)
}

/// Verify ciphertext ‖ tag produced by [`seal`] and decrypt it into
/// `out`, replacing what `out` held. The plaintext is written only after
/// the tag matched: on an error `out` is left empty. Once `out` has the
/// capacity, nothing is allocated.
pub fn open_into(
    key: &[u8; KEY_LEN],
    nonce: &[u8; NONCE_LEN],
    aad: &[u8],
    sealed: &[u8],
    out: &mut Vec<u8>,
) -> Result<(), AeadError> {
    open_on(Backend::detect(), key, nonce, aad, sealed, out)
}

fn open_on(
    backend: Backend,
    key: &[u8; KEY_LEN],
    nonce: &[u8; NONCE_LEN],
    aad: &[u8],
    sealed: &[u8],
    out: &mut Vec<u8>,
) -> Result<(), AeadError> {
    out.clear();
    if sealed.len() < TAG_LEN {
        return Err(AeadError::Truncated);
    }
    let (ct, tag) = sealed.split_at(sealed.len() - TAG_LEN);
    let batch = FirstBatch::new(backend, key, nonce, ct);
    let expect = compute_tag(&batch.poly_key(), aad, ct);
    if !ct_eq(&expect, tag) {
        return Err(AeadError::BadTag);
    }
    batch.finish(backend, key, nonce, ct, out);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chacha20::tests::{backends, xor_reference};

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// RFC 8439 §2.8 ChaCha20-Poly1305 composed from the scalar block
    /// function and one-shot Poly1305, as the text writes it.
    fn seal_reference(key: &[u8; 32], nonce: &[u8; 12], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        let mut ct = plaintext.to_vec();
        xor_reference(key, 1, nonce, &mut ct);
        let block0 = chacha20::block(key, 0, nonce);
        let pad = |v: &mut Vec<u8>| v.resize(v.len().next_multiple_of(16), 0);
        let mut mac_data = aad.to_vec();
        pad(&mut mac_data);
        mac_data.extend_from_slice(&ct);
        pad(&mut mac_data);
        mac_data.extend_from_slice(&(aad.len() as u64).to_le_bytes());
        mac_data.extend_from_slice(&(ct.len() as u64).to_le_bytes());
        let tag = Poly1305::mac(block0[..32].try_into().unwrap(), &mac_data);
        ct.extend_from_slice(&tag);
        ct
    }

    // RFC 8439 §2.8.2 AEAD test vector, on every backend.
    #[test]
    fn rfc8439_aead_vector() {
        let key: [u8; 32] = std::array::from_fn(|i| 0x80 + i as u8);
        let nonce: [u8; 12] = [
            0x07, 0, 0, 0, 0x40, 0x41, 0x42, 0x43, 0x44, 0x45, 0x46, 0x47,
        ];
        let aad: [u8; 12] = [
            0x50, 0x51, 0x52, 0x53, 0xc0, 0xc1, 0xc2, 0xc3, 0xc4, 0xc5, 0xc6, 0xc7,
        ];
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.";
        for backend in backends() {
            let sealed = seal_on(backend, &key, &nonce, &aad, plaintext);
            assert_eq!(sealed.len(), plaintext.len() + TAG_LEN);
            assert_eq!(hex(&sealed[..16]), "d31a8d34648e60db7b86afbc53ef7ec2");
            assert_eq!(
                hex(&sealed[sealed.len() - TAG_LEN..]),
                "1ae10b594f09e26a7e902ecbd0600691"
            );
            let mut opened = Vec::new();
            open_on(backend, &key, &nonce, &aad, &sealed, &mut opened).unwrap();
            assert_eq!(opened, plaintext);
        }
        assert_eq!(
            open(&key, &nonce, &aad, &seal(&key, &nonce, &aad, plaintext)).unwrap(),
            plaintext
        );
    }

    /// Seal and open every length 0..=600 on every backend against the
    /// scalar composition: messages inside the first eight-block pass (up
    /// to 448 bytes), the 448/449 edge, and every tail after it. A
    /// flipped byte is refused and leaves the caller's buffer empty.
    #[test]
    fn every_length_matches_reference() {
        let key: [u8; 32] = std::array::from_fn(|i| (i * 7 + 3) as u8);
        let nonce = [0, 0, 0, 7, 0x40, 0x41, 0x42, 0x43, 0x44, 0x45, 0x46, 0x47];
        let plain: Vec<u8> = (0..=600).map(|i| (i * 31 % 251) as u8).collect();
        let mut out = Vec::new();
        for len in 0..=600 {
            let aad = &plain[..len % 29];
            let want = seal_reference(&key, &nonce, aad, &plain[..len]);
            for backend in backends() {
                let sealed = seal_on(backend, &key, &nonce, aad, &plain[..len]);
                assert_eq!(sealed, want, "{backend:?} len {len}");
                open_on(backend, &key, &nonce, aad, &sealed, &mut out).unwrap();
                assert_eq!(out, &plain[..len], "{backend:?} len {len}");
                let mut bad = sealed;
                bad[len / 2] ^= 0x10;
                assert_eq!(
                    open_on(backend, &key, &nonce, aad, &bad, &mut out),
                    Err(AeadError::BadTag)
                );
                assert!(
                    out.is_empty(),
                    "{backend:?} len {len}: a forgery left plaintext"
                );
            }
        }
    }

    #[test]
    fn open_into_reuses_its_buffer() {
        let key = [4u8; 32];
        let nonce = [8u8; 12];
        let mut out = Vec::with_capacity(600);
        let at = out.as_ptr();
        for len in [600, 0, 449, 17] {
            let plain = vec![0x3c; len];
            open_into(
                &key,
                &nonce,
                b"",
                &seal(&key, &nonce, b"", &plain),
                &mut out,
            )
            .unwrap();
            assert_eq!(out, plain);
            assert_eq!(out.as_ptr(), at, "len {len} reallocated");
        }
        assert_eq!(
            open_into(&key, &nonce, b"", &[0u8; 15], &mut out),
            Err(AeadError::Truncated)
        );
        assert!(out.is_empty());
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
