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
    role: Role,
}

/// What a sealed key may do, with what the store prepared for it.
#[allow(clippy::large_enum_variant)] // a store holds a few keys; boxing would add a pointer chase per proof
enum Role {
    /// HMAC with the state keyed by the material (its ipad and opad
    /// blocks absorbed), computed at the key's first sign or verify and
    /// cloned for every one after it, so a key that never signs never
    /// pays for it.
    Sign(Option<HmacSha256>),
    Encrypt,
}

impl SealedKey {
    /// The key's keyed HMAC state; a non-Sign key is refused.
    fn mac(&mut self) -> Result<HmacSha256, KeystoreError> {
        match &mut self.role {
            Role::Sign(mac) => Ok(mac
                .get_or_insert_with(|| HmacSha256::new(&self.material))
                .clone()),
            Role::Encrypt => Err(KeystoreError::WrongPurpose),
        }
    }

    /// The AEAD key; a non-Encrypt key is refused.
    fn aead_key(&self) -> Result<&[u8; 32], KeystoreError> {
        match self.role {
            Role::Encrypt => Ok(&self.material),
            Role::Sign(_) => Err(KeystoreError::WrongPurpose),
        }
    }
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
    /// id is reserved before its key is inserted, and a Sign key's keyed
    /// HMAC state is stored whole once computed; every other operation
    /// only reads), so a guard poisoned by a panicking thread is
    /// recovered, not propagated.
    fn lock(&self) -> MutexGuard<'_, StoreInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Import raw key material. The material is consumed by the store; only
    /// a handle escapes.
    pub fn import(&self, material: [u8; 32], purpose: KeyPurpose) -> KeyHandle {
        let role = match purpose {
            KeyPurpose::Sign => Role::Sign(None),
            KeyPurpose::Encrypt => Role::Encrypt,
        };
        let mut inner = self.lock();
        let id = inner.next_id;
        inner.next_id += 1;
        inner.keys.insert(id, SealedKey { material, role });
        KeyHandle(id)
    }

    /// Run `f` on the key `handle` names, under the store's lock.
    fn with_key<T>(
        &self,
        handle: KeyHandle,
        f: impl FnOnce(&mut SealedKey) -> Result<T, KeystoreError>,
    ) -> Result<T, KeystoreError> {
        f(self
            .lock()
            .keys
            .get_mut(&handle.0)
            .ok_or(KeystoreError::UnknownHandle)?)
    }

    /// Derive a sub-key from an existing key via HKDF and seal it under the
    /// given purpose. This is how the pairing key spawns per-session keys.
    pub fn derive(
        &self,
        parent: KeyHandle,
        info: &[u8],
        purpose: KeyPurpose,
    ) -> Result<KeyHandle, KeystoreError> {
        let derived = self.with_key(parent, |key| {
            Ok(Hkdf::derive(b"fiat-keystore", &key.material, info))
        })?;
        Ok(self.import(derived, purpose))
    }

    /// HMAC-SHA256 over `data` with a Sign-purpose key.
    pub fn sign(&self, handle: KeyHandle, data: &[u8]) -> Result<[u8; 32], KeystoreError> {
        let mut mac = self.with_key(handle, SealedKey::mac)?;
        mac.update(data);
        Ok(mac.finalize())
    }

    /// Verify an HMAC tag with a Sign-purpose key.
    pub fn verify(
        &self,
        handle: KeyHandle,
        data: &[u8],
        tag: &[u8],
    ) -> Result<bool, KeystoreError> {
        Ok(crate::ct::ct_eq(&self.sign(handle, data)?, tag))
    }

    /// AEAD-seal `plaintext` with an Encrypt-purpose key.
    pub fn seal(
        &self,
        handle: KeyHandle,
        nonce: &[u8; aead::NONCE_LEN],
        aad: &[u8],
        plaintext: &[u8],
    ) -> Result<Vec<u8>, KeystoreError> {
        self.with_key(handle, |key| {
            Ok(aead::seal(key.aead_key()?, nonce, aad, plaintext))
        })
    }

    /// AEAD-open ciphertext sealed by [`TeeKeystore::seal`].
    pub fn open(
        &self,
        handle: KeyHandle,
        nonce: &[u8; aead::NONCE_LEN],
        aad: &[u8],
        sealed: &[u8],
    ) -> Result<Vec<u8>, KeystoreError> {
        self.with_key(handle, |key| {
            aead::open(key.aead_key()?, nonce, aad, sealed)
                .map_err(|_| KeystoreError::BadCiphertext)
        })
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

    /// RFC 4231's HMAC-SHA256 cases through a Sign key's keyed state.
    /// HMAC zero-pads a key to one block and hashes a longer one first,
    /// so each case's key becomes 32 bytes of material with the same MAC.
    #[test]
    fn rfc4231_cases_through_the_keyed_state() {
        let long_key = crate::Sha256::digest(&[0xaa; 131]);
        let cases: [(&[u8], &[u8], &str); 7] = [
            (&[0x0b; 20], b"Hi There", "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"),
            (b"Jefe", b"what do ya want for nothing?", "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"),
            (&[0xaa; 20], &[0xdd; 50], "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"),
            (&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25], &[0xcd; 50], "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"),
            (&[0x0c; 20], b"Test With Truncation", "a3b6167473100ee06e0c796c2955552b"),
            (&long_key, b"Test Using Larger Than Block-Size Key - Hash Key First", "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"),
            (&long_key, b"This is a test using a larger than block-size key and a larger than block-size data. The key needs to be hashed before being used by the HMAC algorithm.", "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"),
        ];
        let store = TeeKeystore::new();
        for (key, data, want) in cases {
            let mut material = [0u8; 32];
            material[..key.len()].copy_from_slice(key);
            let h = store.import(material, KeyPurpose::Sign);
            for _ in 0..2 {
                let tag = store.sign(h, data).unwrap();
                let hex: String = tag.iter().map(|b| format!("{b:02x}")).collect();
                assert!(hex.starts_with(want), "{hex} for {want}");
                assert_eq!(tag, HmacSha256::mac(key, data));
                assert!(store.verify(h, data, &tag).unwrap());
            }
        }
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
