//! Poly1305 one-time authenticator per RFC 8439 §2.5.
//!
//! Arithmetic is done over 2^130 - 5 using three `u64` limbs of 44, 44
//! and 42 bits, with `u128` products — the "donna-64" layout. The five
//! 26-bit-limb "donna-32" code it replaced survives under `#[cfg(test)]`
//! as the oracle the tests cross-check it against.

/// Poly1305 key length (r ‖ s) in bytes.
pub const KEY_LEN: usize = 32;
/// Poly1305 tag length in bytes.
pub const TAG_LEN: usize = 16;

const MASK44: u64 = (1 << 44) - 1;
const MASK42: u64 = (1 << 42) - 1;

fn le64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"))
}

/// A number mod 2^130 - 5 as limbs of 44, 44 and 42 bits, each possibly
/// a few bits over after an addition or a partial carry.
type Limbs = [u64; 3];

/// One 16-byte block as limbs, plus `hibit` (2^128, as bit 40 of the top
/// limb; 0 for the already-padded final partial block).
fn block_limbs(block: &[u8], hibit: u64) -> Limbs {
    let t0 = le64(&block[0..]);
    let t1 = le64(&block[8..]);
    [
        t0 & MASK44,
        ((t0 >> 44) | (t1 << 20)) & MASK44,
        ((t1 >> 24) & MASK42) | hibit,
    ]
}

fn add(a: Limbs, b: Limbs) -> Limbs {
    [a[0] + b[0], a[1] + b[1], a[2] + b[2]]
}

/// a · b mod 2^130 - 5, before the carry. Limb products that land at or
/// past 2^130 wrap to the bottom times 5, and the 44-bit limbs overshoot
/// 130 by 2 bits: × 20.
fn mul(a: Limbs, b: Limbs) -> [u128; 3] {
    let m = |x: u64, y: u64| u128::from(x) * u128::from(y);
    let (s1, s2) = (b[1] * 20, b[2] * 20);
    [
        m(a[0], b[0]) + m(a[1], s2) + m(a[2], s1),
        m(a[0], b[1]) + m(a[1], b[0]) + m(a[2], s2),
        m(a[0], b[2]) + m(a[1], b[1]) + m(a[2], b[0]),
    ]
}

/// Carry a product back into limbs; only the middle limb may stay a bit
/// over 44 bits.
fn carry(d: [u128; 3]) -> Limbs {
    let d1 = d[1] + (d[0] >> 44);
    let d2 = d[2] + (d1 >> 44);
    let h0 = (d[0] as u64 & MASK44) + (d2 >> 42) as u64 * 5;
    [
        h0 & MASK44,
        (d1 as u64 & MASK44) + (h0 >> 44),
        d2 as u64 & MASK42,
    ]
}

/// Incremental Poly1305 MAC state.
pub struct Poly1305 {
    r: Limbs,
    /// r² mod 2^130 - 5, for two blocks per step.
    rr: Limbs,
    s: [u64; 2],
    acc: Limbs,
    buf: [u8; 16],
    buf_len: usize,
}

impl Poly1305 {
    /// Initialize from a 32-byte one-time key.
    pub fn new(key: &[u8; KEY_LEN]) -> Self {
        // Clamp r per RFC 8439 §2.5.1 while splitting it into 44/44/42-bit
        // limbs.
        let t0 = le64(&key[0..]);
        let t1 = le64(&key[8..]);
        let r = [
            t0 & 0xffc_0fff_ffff,
            ((t0 >> 44) | (t1 << 20)) & 0xfff_ffc0_ffff,
            (t1 >> 24) & 0x00f_ffff_fc0f,
        ];
        Poly1305 {
            r,
            rr: carry(mul(r, r)),
            s: [le64(&key[16..]), le64(&key[24..])],
            acc: [0; 3],
            buf: [0; 16],
            buf_len: 0,
        }
    }

    /// Absorb message bytes.
    pub fn update(&mut self, mut data: &[u8]) {
        if self.buf_len > 0 {
            let take = (16 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 16 {
                let block = self.buf;
                self.process_blocks(&block, 1 << 40);
                self.buf_len = 0;
            }
        }
        let whole = data.len() - data.len() % 16;
        self.process_blocks(&data[..whole], 1 << 40);
        data = &data[whole..];
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
    }

    /// Absorb every 16-byte block of `blocks` (a multiple of 16 long),
    /// each with `hibit` added (see [`block_limbs`]).
    fn process_blocks(&mut self, blocks: &[u8], hibit: u64) {
        let mut h = self.acc;
        // Two blocks per step: h = (h + m1)·r² + m2·r, whose m2·r half
        // does not wait for h.
        let mut pairs = blocks.chunks_exact(32);
        for pair in &mut pairs {
            let a = mul(add(h, block_limbs(&pair[..16], hibit)), self.rr);
            let b = mul(block_limbs(&pair[16..], hibit), self.r);
            h = carry([a[0] + b[0], a[1] + b[1], a[2] + b[2]]);
        }
        for block in pairs.remainder().chunks_exact(16) {
            h = carry(mul(add(h, block_limbs(block, hibit)), self.r));
        }
        self.acc = h;
    }

    /// Produce the 16-byte tag.
    pub fn finalize(mut self) -> [u8; TAG_LEN] {
        if self.buf_len > 0 {
            // Final partial block: append 0x01 then zero-pad; no high bit.
            let mut block = [0u8; 16];
            block[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
            block[self.buf_len] = 1;
            self.process_blocks(&block, 0);
        }

        // Carry fully: twice round, as folding the top limb into the
        // bottom can carry once more.
        let [mut h0, mut h1, mut h2] = self.acc;
        for _ in 0..2 {
            h2 += h1 >> 44;
            h1 &= MASK44;
            h0 += (h2 >> 42) * 5;
            h2 &= MASK42;
            h1 += h0 >> 44;
            h0 &= MASK44;
        }

        // g = h + -p = h - (2^130 - 5); keep it when it did not borrow,
        // i.e. when h >= p.
        let g0 = h0 + 5;
        let g1 = h1 + (g0 >> 44);
        let g2 = (h2 + (g1 >> 44)).wrapping_sub(1 << 42);
        let keep_g = (g2 >> 63).wrapping_sub(1);
        h0 = (h0 & !keep_g) | (g0 & MASK44 & keep_g);
        h1 = (h1 & !keep_g) | (g1 & MASK44 & keep_g);
        h2 = (h2 & !keep_g) | (g2 & keep_g);

        // Add s mod 2^128 and serialize little-endian.
        let [s0, s1] = self.s;
        h0 += s0 & MASK44;
        h1 += (((s0 >> 44) | (s1 << 20)) & MASK44) + (h0 >> 44);
        h2 += (s1 >> 24) + (h1 >> 44);
        let lo = (h0 & MASK44) | (h1 << 44);
        let hi = ((h1 & MASK44) >> 20) | (h2 << 24);
        let mut out = [0u8; TAG_LEN];
        out[..8].copy_from_slice(&lo.to_le_bytes());
        out[8..].copy_from_slice(&hi.to_le_bytes());
        out
    }

    /// One-shot MAC.
    pub fn mac(key: &[u8; KEY_LEN], data: &[u8]) -> [u8; TAG_LEN] {
        let mut p = Poly1305::new(key);
        p.update(data);
        p.finalize()
    }
}

/// The five-26-bit-limb ("donna-32") Poly1305 this module used before the
/// 64-bit limbs, kept as the cross-check oracle.
#[cfg(test)]
mod donna32 {
    use super::{KEY_LEN, TAG_LEN};

    /// Incremental Poly1305 MAC state.
    pub(super) struct Poly1305 {
        r: [u32; 5],
        s: [u32; 4],
        acc: [u32; 5],
        buf: [u8; 16],
        buf_len: usize,
    }

    impl Poly1305 {
        /// Initialize from a 32-byte one-time key.
        pub(super) fn new(key: &[u8; KEY_LEN]) -> Self {
            // Clamp r per RFC 8439 §2.5.1, then split into 26-bit limbs.
            let t0 = u32::from_le_bytes([key[0], key[1], key[2], key[3]]);
            let t1 = u32::from_le_bytes([key[4], key[5], key[6], key[7]]);
            let t2 = u32::from_le_bytes([key[8], key[9], key[10], key[11]]);
            let t3 = u32::from_le_bytes([key[12], key[13], key[14], key[15]]);
            let r = [
                t0 & 0x3ffffff,
                ((t0 >> 26) | (t1 << 6)) & 0x3ffff03,
                ((t1 >> 20) | (t2 << 12)) & 0x3ffc0ff,
                ((t2 >> 14) | (t3 << 18)) & 0x3f03fff,
                (t3 >> 8) & 0x00fffff,
            ];
            let s = [
                u32::from_le_bytes([key[16], key[17], key[18], key[19]]),
                u32::from_le_bytes([key[20], key[21], key[22], key[23]]),
                u32::from_le_bytes([key[24], key[25], key[26], key[27]]),
                u32::from_le_bytes([key[28], key[29], key[30], key[31]]),
            ];
            Poly1305 {
                r,
                s,
                acc: [0; 5],
                buf: [0; 16],
                buf_len: 0,
            }
        }

        /// Absorb message bytes.
        pub(super) fn update(&mut self, mut data: &[u8]) {
            if self.buf_len > 0 {
                let take = (16 - self.buf_len).min(data.len());
                self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
                self.buf_len += take;
                data = &data[take..];
                if self.buf_len == 16 {
                    let block = self.buf;
                    self.process_block(&block, false);
                    self.buf_len = 0;
                }
            }
            while data.len() >= 16 {
                let mut block = [0u8; 16];
                block.copy_from_slice(&data[..16]);
                self.process_block(&block, false);
                data = &data[16..];
            }
            if !data.is_empty() {
                self.buf[..data.len()].copy_from_slice(data);
                self.buf_len = data.len();
            }
        }

        fn process_block(&mut self, block: &[u8; 16], partial: bool) {
            let t0 = u32::from_le_bytes([block[0], block[1], block[2], block[3]]);
            let t1 = u32::from_le_bytes([block[4], block[5], block[6], block[7]]);
            let t2 = u32::from_le_bytes([block[8], block[9], block[10], block[11]]);
            let t3 = u32::from_le_bytes([block[12], block[13], block[14], block[15]]);
            let hibit: u32 = if partial { 0 } else { 1 << 24 };

            let mut h = self.acc;
            h[0] = h[0].wrapping_add(t0 & 0x3ffffff);
            h[1] = h[1].wrapping_add(((t0 >> 26) | (t1 << 6)) & 0x3ffffff);
            h[2] = h[2].wrapping_add(((t1 >> 20) | (t2 << 12)) & 0x3ffffff);
            h[3] = h[3].wrapping_add(((t2 >> 14) | (t3 << 18)) & 0x3ffffff);
            h[4] = h[4].wrapping_add((t3 >> 8) | hibit);

            // h *= r (mod 2^130 - 5): schoolbook with 5*r folding.
            let r = self.r;
            let s1 = r[1] * 5;
            let s2 = r[2] * 5;
            let s3 = r[3] * 5;
            let s4 = r[4] * 5;
            let h64: [u64; 5] = [
                h[0] as u64,
                h[1] as u64,
                h[2] as u64,
                h[3] as u64,
                h[4] as u64,
            ];
            let d0 = h64[0] * r[0] as u64
                + h64[1] * s4 as u64
                + h64[2] * s3 as u64
                + h64[3] * s2 as u64
                + h64[4] * s1 as u64;
            let d1 = h64[0] * r[1] as u64
                + h64[1] * r[0] as u64
                + h64[2] * s4 as u64
                + h64[3] * s3 as u64
                + h64[4] * s2 as u64;
            let d2 = h64[0] * r[2] as u64
                + h64[1] * r[1] as u64
                + h64[2] * r[0] as u64
                + h64[3] * s4 as u64
                + h64[4] * s3 as u64;
            let d3 = h64[0] * r[3] as u64
                + h64[1] * r[2] as u64
                + h64[2] * r[1] as u64
                + h64[3] * r[0] as u64
                + h64[4] * s4 as u64;
            let d4 = h64[0] * r[4] as u64
                + h64[1] * r[3] as u64
                + h64[2] * r[2] as u64
                + h64[3] * r[1] as u64
                + h64[4] * r[0] as u64;

            // Carry propagation.
            let mut c: u64;
            let mut d = [d0, d1, d2, d3, d4];
            c = d[0] >> 26;
            d[0] &= 0x3ffffff;
            d[1] += c;
            c = d[1] >> 26;
            d[1] &= 0x3ffffff;
            d[2] += c;
            c = d[2] >> 26;
            d[2] &= 0x3ffffff;
            d[3] += c;
            c = d[3] >> 26;
            d[3] &= 0x3ffffff;
            d[4] += c;
            c = d[4] >> 26;
            d[4] &= 0x3ffffff;
            d[0] += c * 5;
            c = d[0] >> 26;
            d[0] &= 0x3ffffff;
            d[1] += c;

            self.acc = [
                d[0] as u32,
                d[1] as u32,
                d[2] as u32,
                d[3] as u32,
                d[4] as u32,
            ];
        }

        /// Produce the 16-byte tag.
        pub(super) fn finalize(mut self) -> [u8; TAG_LEN] {
            if self.buf_len > 0 {
                // Final partial block: append 0x01 then zero-pad; no high bit.
                let mut block = [0u8; 16];
                block[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
                block[self.buf_len] = 1;
                self.process_block(&block, true);
            }

            let mut h = self.acc;
            // Full carry.
            let mut c: u32;
            c = h[1] >> 26;
            h[1] &= 0x3ffffff;
            h[2] += c;
            c = h[2] >> 26;
            h[2] &= 0x3ffffff;
            h[3] += c;
            c = h[3] >> 26;
            h[3] &= 0x3ffffff;
            h[4] += c;
            c = h[4] >> 26;
            h[4] &= 0x3ffffff;
            h[0] += c * 5;
            c = h[0] >> 26;
            h[0] &= 0x3ffffff;
            h[1] += c;

            // Compute h + -p (i.e. h - (2^130 - 5)) and select. The top
            // limb keeps its carry. Until the 64-bit limbs replaced this
            // code it masked that carry off, so an h in [p, 2^130) went out
            // unreduced (RFC 8439 A.3 #5 gave ff..fe, not 03..00).
            let mut g = [0u32; 5];
            c = 5;
            for i in 0..4 {
                g[i] = h[i].wrapping_add(c);
                c = g[i] >> 26;
                g[i] &= 0x3ffffff;
            }
            g[4] = h[4].wrapping_add(c).wrapping_sub(1 << 26);

            let mask = (g[4] >> 31).wrapping_sub(1); // all-ones if h >= p
            for i in 0..5 {
                h[i] = (h[i] & !mask) | (g[i] & mask);
            }

            // Serialize h into 128 bits little-endian.
            let h0 = h[0] | (h[1] << 26);
            let h1 = (h[1] >> 6) | (h[2] << 20);
            let h2 = (h[2] >> 12) | (h[3] << 14);
            let h3 = (h[3] >> 18) | (h[4] << 8);

            // Add s mod 2^128.
            let mut f: u64;
            let mut out = [0u8; TAG_LEN];
            f = h0 as u64 + self.s[0] as u64;
            out[0..4].copy_from_slice(&(f as u32).to_le_bytes());
            f = h1 as u64 + self.s[1] as u64 + (f >> 32);
            out[4..8].copy_from_slice(&(f as u32).to_le_bytes());
            f = h2 as u64 + self.s[2] as u64 + (f >> 32);
            out[8..12].copy_from_slice(&(f as u32).to_le_bytes());
            f = h3 as u64 + self.s[3] as u64 + (f >> 32);
            out[12..16].copy_from_slice(&(f as u32).to_le_bytes());
            out
        }

        /// One-shot MAC.
        pub(super) fn mac(key: &[u8; KEY_LEN], data: &[u8]) -> [u8; TAG_LEN] {
            let mut p = Poly1305::new(key);
            p.update(data);
            p.finalize()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // RFC 8439 §2.5.2 test vector.
    #[test]
    fn rfc8439_vector() {
        let key: [u8; 32] = [
            0x85, 0xd6, 0xbe, 0x78, 0x57, 0x55, 0x6d, 0x33, 0x7f, 0x44, 0x52, 0xfe, 0x42, 0xd5,
            0x06, 0xa8, 0x01, 0x03, 0x80, 0x8a, 0xfb, 0x0d, 0xb2, 0xfd, 0x4a, 0xbf, 0xf6, 0xaf,
            0x41, 0x49, 0xf5, 0x1b,
        ];
        let msg = b"Cryptographic Forum Research Group";
        assert_eq!(
            hex(&Poly1305::mac(&key, msg)),
            "a8061dc1305136c6c22b8baf0c0127a9"
        );
    }

    #[test]
    fn empty_message() {
        // MAC of empty message is just s.
        let mut key = [0u8; 32];
        key[16..].copy_from_slice(&[9u8; 16]);
        assert_eq!(Poly1305::mac(&key, b""), [9u8; 16]);
    }

    #[test]
    fn streaming_matches_oneshot() {
        let key = [0x42u8; 32];
        let data: Vec<u8> = (0..100).collect();
        for split in [0usize, 1, 15, 16, 17, 31, 32, 50, 99, 100] {
            let mut p = Poly1305::new(&key);
            p.update(&data[..split]);
            p.update(&data[split..]);
            assert_eq!(p.finalize(), Poly1305::mac(&key, &data), "split {split}");
        }
    }

    #[test]
    fn different_keys_different_tags() {
        let k1 = [1u8; 32];
        let k2 = [2u8; 32];
        assert_ne!(Poly1305::mac(&k1, b"msg"), Poly1305::mac(&k2, b"msg"));
    }

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    // RFC 8439 Appendix A.3 vectors #5–#11: the ones built to hit limb
    // carries and the final reduction of an h at or past 2^130 - 5.
    #[test]
    fn rfc8439_appendix_a3_edge_vectors() {
        let r1s0 = format!("01{}", "0".repeat(62));
        let r2s0 = format!("02{}", "0".repeat(62));
        let r10 = format!("0100000000000000040000000000000000{}", "0".repeat(30));
        let ff = "ff".repeat(16);
        let long10 = format!(
            "e33594d7505e43b9{}3394d7505e4379cd01{}01{}",
            "0".repeat(16),
            "0".repeat(46),
            "0".repeat(30)
        );
        let cases: [(&str, String, &str); 7] = [
            (&r2s0, ff.clone(), "03000000000000000000000000000000"),
            (
                &format!("02{}{}", "0".repeat(30), ff),
                format!("02{}", "0".repeat(30)),
                "03000000000000000000000000000000",
            ),
            (
                &r1s0,
                format!("{ff}f0{}11{}", "ff".repeat(15), "0".repeat(30)),
                "05000000000000000000000000000000",
            ),
            (
                &r1s0,
                format!("{ff}fb{}{}", "fe".repeat(15), "01".repeat(16)),
                "00000000000000000000000000000000",
            ),
            (
                &r2s0,
                format!("fd{}", "ff".repeat(15)),
                "faffffffffffffffffffffffffffffff",
            ),
            (&r10, long10.clone(), "14000000000000005500000000000000"),
            (
                &r10,
                long10[..96].to_string(),
                "13000000000000000000000000000000",
            ),
        ];
        for (i, (key, msg, tag)) in cases.iter().enumerate() {
            let key: [u8; 32] = unhex(key).try_into().unwrap();
            let msg = unhex(msg);
            assert_eq!(hex(&Poly1305::mac(&key, &msg)), *tag, "vector #{}", i + 5);
            assert_eq!(
                hex(&donna32::Poly1305::mac(&key, &msg)),
                *tag,
                "oracle #{}",
                i + 5
            );
        }
    }

    /// Bytes biased towards 0x00 and 0xff, so carries and the final
    /// reduction run often.
    fn edgy_byte() -> impl Strategy<Value = u8> {
        prop_oneof![Just(0u8), Just(0xff), any::<u8>()]
    }

    proptest! {
        /// The 44-bit limbs give the 26-bit oracle's tag for any key and
        /// message, however `update` splits the message.
        #[test]
        fn donna64_matches_donna32_oracle(
            key in prop::collection::vec(edgy_byte(), 32),
            data in prop::collection::vec(edgy_byte(), 0..600),
            cuts in prop::collection::vec(any::<usize>(), 0..6),
        ) {
            let key: [u8; 32] = key.try_into().unwrap();
            let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (data.len() + 1)).collect();
            cuts.sort_unstable();
            let (mut fast, mut oracle) = (Poly1305::new(&key), donna32::Poly1305::new(&key));
            let mut prev = 0;
            for c in cuts.into_iter().chain([data.len()]) {
                fast.update(&data[prev..c]);
                oracle.update(&data[prev..c]);
                prev = c;
            }
            prop_assert_eq!(fast.finalize(), oracle.finalize());
        }
    }
}
