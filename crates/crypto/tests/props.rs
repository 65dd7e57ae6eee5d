//! Property tests for the crypto primitives.

use fiat_crypto::poly1305::Poly1305;
use fiat_crypto::{aead, chacha20, hkdf::Hkdf, HmacSha256, KeyPurpose, Sha256, TeeKeystore};
use proptest::prelude::*;

/// XOR `data` with the keystream taken block by block from the scalar
/// [`chacha20::block`], the counter wrapping like `u32::wrapping_add`.
fn xor_reference(key: &[u8; 32], counter: u32, nonce: &[u8; 12], data: &mut [u8]) {
    for (i, chunk) in data.chunks_mut(64).enumerate() {
        let ks = chacha20::block(key, counter.wrapping_add(i as u32), nonce);
        for (b, k) in chunk.iter_mut().zip(ks) {
            *b ^= k;
        }
    }
}

/// RFC 8439 §2.8 ChaCha20-Poly1305 composed from the scalar block function
/// and one-shot Poly1305, as the text writes it.
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

/// Seal and open every length 0..=600 (the four-block batches, the
/// batch that also carries the Poly1305 key, and every tail length),
/// against the scalar composition.
#[test]
fn aead_matches_reference_at_every_length() {
    let key: [u8; 32] = std::array::from_fn(|i| (i * 7 + 3) as u8);
    let nonce = [0, 0, 0, 7, 0x40, 0x41, 0x42, 0x43, 0x44, 0x45, 0x46, 0x47];
    let plain: Vec<u8> = (0..=600).map(|i| (i * 31 % 251) as u8).collect();
    for len in 0..=600 {
        let aad = &plain[..len % 29];
        let sealed = aead::seal(&key, &nonce, aad, &plain[..len]);
        assert_eq!(
            sealed,
            seal_reference(&key, &nonce, aad, &plain[..len]),
            "len {len}"
        );
        assert_eq!(
            aead::open(&key, &nonce, aad, &sealed).unwrap(),
            &plain[..len]
        );
        let mut bad = sealed;
        bad[len / 2] ^= 0x10;
        assert_eq!(
            aead::open(&key, &nonce, aad, &bad),
            Err(aead::AeadError::BadTag)
        );
    }
}

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

    /// `xor_in_place`, four blocks at a time where the CPU allows, equals
    /// the scalar block function run block by block, also when the block
    /// counter wraps past `u32::MAX`.
    #[test]
    fn chacha20_matches_scalar_blocks(
        key in prop::array::uniform32(any::<u8>()),
        nonce in prop::array::uniform12(any::<u8>()),
        counter in prop_oneof![any::<u32>(), (u32::MAX - 3)..=u32::MAX],
        data in prop::collection::vec(any::<u8>(), 0..=1024),
    ) {
        let mut fast = data.clone();
        chacha20::xor_in_place(&key, counter, &nonce, &mut fast);
        let mut reference = data;
        xor_reference(&key, counter, &nonce, &mut reference);
        prop_assert_eq!(fast, reference);
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
