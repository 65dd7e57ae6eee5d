//! Property tests for the crypto primitives, through their public API.
//!
//! The tests that pick a backend (scalar or AVX2 ChaCha20, scalar or
//! SHA-extension SHA-256) live in each module's unit tests, where the
//! private backend can be named.

use fiat_crypto::{aead, chacha20, hkdf::Hkdf, HmacSha256, KeyPurpose, Sha256, TeeKeystore};
use proptest::prelude::*;

proptest! {
    /// SHA-256 streaming at arbitrary chunk boundaries equals one-shot.
    #[test]
    fn sha256_chunking_invariant(
        data in prop::collection::vec(any::<u8>(), 0..2048),
        cuts in prop::collection::vec(any::<usize>(), 0..8),
    ) {
        let mut cut_points: Vec<usize> = cuts
            .iter()
            .map(|&c| if data.is_empty() { 0 } else { c % data.len().max(1) })
            .collect();
        cut_points.sort_unstable();
        cut_points.dedup();
        let mut h = Sha256::new();
        let mut prev = 0;
        for &c in &cut_points {
            h.update(&data[prev..c]);
            prev = c;
        }
        h.update(&data[prev..]);
        prop_assert_eq!(h.finalize(), Sha256::digest(&data));
    }

    /// HMAC verification accepts the real tag and rejects any 1-bit flip
    /// of data, key, or tag.
    #[test]
    fn hmac_bitflip_rejection(
        key in prop::collection::vec(any::<u8>(), 1..80),
        data in prop::collection::vec(any::<u8>(), 0..256),
        flip in any::<usize>(),
    ) {
        let tag = HmacSha256::mac(&key, &data);
        prop_assert!(HmacSha256::verify(&key, &data, &tag));

        let mut bad_tag = tag;
        bad_tag[flip % 32] ^= 1 << (flip % 8);
        prop_assert!(!HmacSha256::verify(&key, &data, &bad_tag));

        let mut bad_key = key.clone();
        let i = flip % bad_key.len();
        bad_key[i] ^= 1 << (flip % 8);
        prop_assert!(!HmacSha256::verify(&bad_key, &data, &tag));

        if !data.is_empty() {
            let mut bad_data = data.clone();
            let i = flip % bad_data.len();
            bad_data[i] ^= 1 << (flip % 8);
            prop_assert!(!HmacSha256::verify(&key, &bad_data, &tag));
        }
    }

    /// HKDF outputs are deterministic, length-exact, and prefix-consistent.
    #[test]
    fn hkdf_prefix_consistency(
        salt in prop::collection::vec(any::<u8>(), 0..32),
        ikm in prop::collection::vec(any::<u8>(), 1..64),
        info in prop::collection::vec(any::<u8>(), 0..32),
        len in 1usize..200,
    ) {
        let hk = Hkdf::extract(&salt, &ikm);
        let mut long = vec![0u8; len];
        hk.expand(&info, &mut long);
        let mut short = vec![0u8; len / 2];
        hk.expand(&info, &mut short);
        prop_assert_eq!(&long[..len / 2], &short[..]);
    }

    /// ChaCha20 is an involution under the same key/nonce/counter.
    #[test]
    fn chacha20_involution(
        key in prop::array::uniform32(any::<u8>()),
        nonce in prop::array::uniform12(any::<u8>()),
        counter in any::<u32>(),
        data in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let mut buf = data.clone();
        chacha20::xor_in_place(&key, counter, &nonce, &mut buf);
        chacha20::xor_in_place(&key, counter, &nonce, &mut buf);
        prop_assert_eq!(buf, data);
    }

    /// AEAD under different nonces never produces identical ciphertexts
    /// for the same plaintext (keystream reuse detector).
    #[test]
    fn aead_nonce_separation(
        key in prop::array::uniform32(any::<u8>()),
        n1 in prop::array::uniform12(any::<u8>()),
        n2 in prop::array::uniform12(any::<u8>()),
        data in prop::collection::vec(any::<u8>(), 1..128),
    ) {
        prop_assume!(n1 != n2);
        let c1 = aead::seal(&key, &n1, b"", &data);
        let c2 = aead::seal(&key, &n2, b"", &data);
        prop_assert_ne!(c1, c2);
    }

    /// A keystore signs with the HMAC state it keys once per key: its tags
    /// equal one-shot `HmacSha256::mac` over the same material, and its
    /// verify accepts exactly those tags.
    #[test]
    fn keystore_tags_equal_one_shot_hmac(
        material in prop::array::uniform32(any::<u8>()),
        msg in prop::collection::vec(any::<u8>(), 0..600),
        flip in any::<usize>(),
    ) {
        let store = TeeKeystore::new();
        let h = store.import(material, KeyPurpose::Sign);
        let want = HmacSha256::mac(&material, &msg);
        prop_assert_eq!(store.sign(h, &msg).unwrap(), want);
        prop_assert_eq!(store.sign(h, &msg).unwrap(), want, "a second sign from the same state");
        prop_assert!(store.verify(h, &msg, &want).unwrap());
        let mut bad = want;
        bad[flip % 32] ^= 1 << (flip % 8);
        prop_assert!(!store.verify(h, &msg, &bad).unwrap());
    }

    /// Keystore sign/verify across arbitrary derivation paths.
    #[test]
    fn keystore_derivation_consistency(
        root in prop::array::uniform32(any::<u8>()),
        info in prop::collection::vec(any::<u8>(), 0..32),
        msg in prop::collection::vec(any::<u8>(), 0..128),
    ) {
        let a = TeeKeystore::new();
        let b = TeeKeystore::new();
        let ra = a.import(root, KeyPurpose::Sign);
        let rb = b.import(root, KeyPurpose::Sign);
        let da = a.derive(ra, &info, KeyPurpose::Sign).unwrap();
        let db = b.derive(rb, &info, KeyPurpose::Sign).unwrap();
        let tag = a.sign(da, &msg).unwrap();
        prop_assert!(b.verify(db, &msg, &tag).unwrap());
    }
}
