//! A model of a hardware-backed keystore (Android TEE / SGX enclave).
//!
//! FIAT stores the pre-shared pairing key in the phone's trusted execution
//! environment and in the proxy's SGX enclave. The defining property this
//! model preserves is that *key material never leaves the store*: callers
//! hold an opaque [`KeyHandle`] and ask the store to MAC, seal, or open on
//! their behalf. Purpose binding (a signing key cannot encrypt) mirrors
//! Android keystore semantics.

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::aead;
use crate::hkdf::Hkdf;
use crate::hmac::HmacSha256;

/// Opaque reference to a key sealed inside the keystore.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KeyHandle(u64);

/// What a sealed key is allowed to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyPurpose {
    /// HMAC signing/verification only.
    Sign,
    /// AEAD seal/open only.
    Encrypt,
}

/// Errors returned by keystore operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeystoreError {
    /// The handle does not refer to a key in this store.
    UnknownHandle,
    /// The key exists but its purpose forbids the requested operation.
    WrongPurpose,
    /// AEAD open failed (forged or corrupted ciphertext).
    BadCiphertext,
}

impl std::fmt::Display for KeystoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KeystoreError::UnknownHandle => write!(f, "unknown key handle"),
            KeystoreError::WrongPurpose => write!(f, "key purpose does not permit operation"),
            KeystoreError::BadCiphertext => write!(f, "ciphertext failed authentication"),
        }
    }
}

impl std::error::Error for KeystoreError {}

struct SealedKey {
    material: [u8; 32],
    purpose: KeyPurpose,
}

/// Hardware-backed keystore model. Thread-safe; keys are write-once.
#[derive(Default)]
pub struct TeeKeystore {
    inner: Mutex<StoreInner>,
}

#[derive(Default)]
struct StoreInner {
    keys: HashMap<u64, SealedKey>,
    next_id: u64,
}

impl TeeKeystore {
    /// Create an empty keystore.
    pub fn new() -> Self {
        Self::default()
    }

    /// The store's state. Every update leaves it valid at each step (an
    /// id is reserved before its key is inserted; every other operation
    /// only reads), so a guard poisoned by a panicking thread is
    /// recovered, not propagated.
    fn lock(&self) -> MutexGuard<'_, StoreInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Import raw key material. The material is consumed by the store; only
    /// a handle escapes.
    pub fn import(&self, material: [u8; 32], purpose: KeyPurpose) -> KeyHandle {
        let mut inner = self.lock();
        let id = inner.next_id;
        inner.next_id += 1;
        inner.keys.insert(id, SealedKey { material, purpose });
        KeyHandle(id)
    }

    /// Derive a sub-key from an existing key via HKDF and seal it under the
    /// given purpose. This is how the pairing key spawns per-session keys.
    pub fn derive(
        &self,
        parent: KeyHandle,
        info: &[u8],
        purpose: KeyPurpose,
    ) -> Result<KeyHandle, KeystoreError> {
        let derived: [u8; 32] = {
            let inner = self.lock();
            let key = inner
                .keys
                .get(&parent.0)
                .ok_or(KeystoreError::UnknownHandle)?;
            Hkdf::derive(b"fiat-keystore", &key.material, info)
        };
        Ok(self.import(derived, purpose))
    }

    /// HMAC-SHA256 over `data` with a Sign-purpose key.
    pub fn sign(&self, handle: KeyHandle, data: &[u8]) -> Result<[u8; 32], KeystoreError> {
        let inner = self.lock();
        let key = inner
            .keys
            .get(&handle.0)
            .ok_or(KeystoreError::UnknownHandle)?;
        if key.purpose != KeyPurpose::Sign {
            return Err(KeystoreError::WrongPurpose);
        }
        Ok(HmacSha256::mac(&key.material, data))
    }

    /// Verify an HMAC tag with a Sign-purpose key.
    pub fn verify(
        &self,
        handle: KeyHandle,
        data: &[u8],
        tag: &[u8],
    ) -> Result<bool, KeystoreError> {
        let inner = self.lock();
        let key = inner
            .keys
            .get(&handle.0)
            .ok_or(KeystoreError::UnknownHandle)?;
        if key.purpose != KeyPurpose::Sign {
            return Err(KeystoreError::WrongPurpose);
        }
        Ok(HmacSha256::verify(&key.material, data, tag))
    }

    /// AEAD-seal `plaintext` with an Encrypt-purpose key.
    pub fn seal(
        &self,
        handle: KeyHandle,
        nonce: &[u8; aead::NONCE_LEN],
        aad: &[u8],
        plaintext: &[u8],
    ) -> Result<Vec<u8>, KeystoreError> {
        let inner = self.lock();
        let key = inner
            .keys
            .get(&handle.0)
            .ok_or(KeystoreError::UnknownHandle)?;
        if key.purpose != KeyPurpose::Encrypt {
            return Err(KeystoreError::WrongPurpose);
        }
        Ok(aead::seal(&key.material, nonce, aad, plaintext))
    }

    /// AEAD-open ciphertext sealed by [`TeeKeystore::seal`].
    pub fn open(
        &self,
        handle: KeyHandle,
        nonce: &[u8; aead::NONCE_LEN],
        aad: &[u8],
        sealed: &[u8],
    ) -> Result<Vec<u8>, KeystoreError> {
        let inner = self.lock();
        let key = inner
            .keys
            .get(&handle.0)
            .ok_or(KeystoreError::UnknownHandle)?;
        if key.purpose != KeyPurpose::Encrypt {
            return Err(KeystoreError::WrongPurpose);
        }
        aead::open(&key.material, nonce, aad, sealed).map_err(|_| KeystoreError::BadCiphertext)
    }

    /// Number of keys sealed in the store.
    pub fn len(&self) -> usize {
        self.lock().keys.len()
    }

    /// Whether the store holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_and_verify_roundtrip() {
        let store = TeeKeystore::new();
        let h = store.import([7u8; 32], KeyPurpose::Sign);
        let tag = store.sign(h, b"evidence").unwrap();
        assert!(store.verify(h, b"evidence", &tag).unwrap());
        assert!(!store.verify(h, b"tampered", &tag).unwrap());
    }

    #[test]
    fn seal_and_open_roundtrip() {
        let store = TeeKeystore::new();
        let h = store.import([9u8; 32], KeyPurpose::Encrypt);
        let nonce = [1u8; 12];
        let ct = store.seal(h, &nonce, b"hdr", b"sensor data").unwrap();
        assert_eq!(store.open(h, &nonce, b"hdr", &ct).unwrap(), b"sensor data");
        let mut bad = ct.clone();
        bad[0] ^= 1;
        assert_eq!(
            store.open(h, &nonce, b"hdr", &bad),
            Err(KeystoreError::BadCiphertext)
        );
    }

    #[test]
    fn purpose_binding_enforced() {
        let store = TeeKeystore::new();
        let sign = store.import([1u8; 32], KeyPurpose::Sign);
        let enc = store.import([1u8; 32], KeyPurpose::Encrypt);
        assert_eq!(
            store.seal(sign, &[0; 12], b"", b"x"),
            Err(KeystoreError::WrongPurpose)
        );
        assert_eq!(store.sign(enc, b"x"), Err(KeystoreError::WrongPurpose));
    }

    #[test]
    fn unknown_handle_rejected() {
        let store = TeeKeystore::new();
        let h = store.import([0u8; 32], KeyPurpose::Sign);
        let other = TeeKeystore::new();
        assert_eq!(other.sign(h, b"x"), Err(KeystoreError::UnknownHandle));
    }

    #[test]
    fn derived_keys_differ_by_info() {
        let store = TeeKeystore::new();
        let root = store.import([3u8; 32], KeyPurpose::Sign);
        let a = store.derive(root, b"client", KeyPurpose::Sign).unwrap();
        let b = store.derive(root, b"server", KeyPurpose::Sign).unwrap();
        assert_ne!(store.sign(a, b"m").unwrap(), store.sign(b, b"m").unwrap());
        // Same info re-derives the same key material.
        let a2 = store.derive(root, b"client", KeyPurpose::Sign).unwrap();
        assert_eq!(store.sign(a, b"m").unwrap(), store.sign(a2, b"m").unwrap());
    }

    #[test]
    fn two_stores_agree_on_shared_secret() {
        // Pairing: both sides import the same pre-shared key and derive the
        // same session keys -> a tag made by one verifies at the other.
        let phone = TeeKeystore::new();
        let proxy = TeeKeystore::new();
        let psk = [0x44u8; 32];
        let hp = phone.import(psk, KeyPurpose::Sign);
        let hx = proxy.import(psk, KeyPurpose::Sign);
        let tag = phone.sign(hp, b"auth message").unwrap();
        assert!(proxy.verify(hx, b"auth message", &tag).unwrap());
    }

    #[test]
    fn store_survives_a_panic_under_its_lock() {
        let store = TeeKeystore::new();
        let h = store.import([5u8; 32], KeyPurpose::Sign);
        let panicked = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = store.lock();
                panic!("holder panics");
            })
            .join()
            .is_err()
        });
        assert!(panicked && store.inner.is_poisoned());
        assert_eq!(store.len(), 1);
        assert!(store.sign(h, b"after").is_ok());
    }
}
