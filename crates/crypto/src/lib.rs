//! From-scratch cryptographic primitives for FIAT.
//!
//! FIAT's client app signs and encrypts sensor evidence with a key held in
//! the phone's trusted execution environment, and ships it to the IoT proxy
//! over an encrypted QUIC-like channel. This crate provides everything that
//! channel and keystore need, implemented from the specifications:
//!
//! - [`sha256`]: FIPS 180-4 SHA-256.
//! - [`hmac`]: RFC 2104 HMAC-SHA256.
//! - [`hkdf`]: RFC 5869 HKDF (extract-and-expand).
//! - [`chacha20`]: RFC 8439 ChaCha20 stream cipher.
//! - [`poly1305`]: RFC 8439 Poly1305 one-time authenticator.
//! - [`aead`]: RFC 8439 ChaCha20-Poly1305 AEAD.
//! - [`keystore`]: a model of a hardware-backed keystore (Android TEE /
//!   SGX enclave) with sealed keys that never leave the store.
//!
//! All implementations are pure, deterministic, and allocation-light; they
//! are *not* hardened against side channels beyond constant-time tag
//! comparison, which is sufficient for a research reproduction.
//!
//! The only `unsafe` code is in the x86_64 fast paths: SHA-256 on the SHA
//! extensions and ChaCha20 four blocks at a time on SSE2. Every `unsafe`
//! block must say why it is sound in a `// SAFETY:` comment.

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod aead;
pub mod chacha20;
pub mod ct;
pub mod hkdf;
pub mod hmac;
pub mod keystore;
pub mod poly1305;
pub mod sha256;

pub use aead::{open, seal, AeadError, KEY_LEN, NONCE_LEN, TAG_LEN};
pub use hkdf::Hkdf;
pub use hmac::HmacSha256;
pub use keystore::{KeyHandle, KeyPurpose, KeystoreError, TeeKeystore};
pub use sha256::Sha256;
