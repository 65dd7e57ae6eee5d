//! The phone-side FIAT app (§5.3).
//!
//! An Android service that (1) detects which IoT companion app is in the
//! foreground via the accessibility service, (2) keeps a lazy IMU buffer
//! and raises the sampling rate to 250 Hz when one is, (3) extracts the 48
//! sensor features, signs them with the TEE-sealed pairing key, and (4)
//! ships the evidence to the proxy over QUIC — 0-RTT when a session
//! ticket is cached.
//!
//! Latency constants reproduce the client-side component costs measured
//! in Table 7 (app detection 61–87 ms, sensor sampling 235–259 ms, secure
//! storage access 45–56 ms, ML validation 2–3 ms) plus the QUIC
//! processing overheads that, composed with link latency, land on the
//! paper's 21.8 ms (0-RTT) / 27.5 ms (1-RTT) LAN figures.

use crate::pairing::{pair, Paired};
use crate::pipeline::AuthError;
use fiat_crypto::TeeKeystore;
use fiat_net::SimDuration;
use fiat_quic::{Client as QuicClient, ClientHello, Packet, QuicError, ServerHello, ZeroRttPacket};
use fiat_sensors::{extract_features, ImuTrace, MotionKind};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// QUIC 0-RTT processing overhead (crypto + stack, both endpoints).
pub const ZERO_RTT_PROC: SimDuration = SimDuration::from_millis(16);
/// QUIC 1-RTT processing overhead (handshake crypto costs more).
pub const ONE_RTT_PROC: SimDuration = SimDuration::from_millis(11);
/// Proxy-side ML humanness validation (Table 7: 2–3 ms).
pub const ML_VALIDATION: SimDuration = SimDuration::from_micros(2300);

/// Sampled client-side component latencies for one authorization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyBreakdown {
    /// Foreground-app detection via the accessibility service.
    pub app_detection: SimDuration,
    /// Raising the lazy buffer to 250 Hz and windowing enough samples.
    pub sensor_sampling: SimDuration,
    /// TEE keystore access for signing.
    pub secure_storage: SimDuration,
    /// Proxy-side humanness inference.
    pub ml_validation: SimDuration,
}

impl LatencyBreakdown {
    /// Sample component latencies from the Table 7 ranges.
    pub fn sample(rng: &mut StdRng) -> Self {
        LatencyBreakdown {
            app_detection: SimDuration::from_millis(rng.gen_range(60..=90)),
            sensor_sampling: SimDuration::from_millis(rng.gen_range(233..=260)),
            secure_storage: SimDuration::from_micros(rng.gen_range(45_000..=56_000)),
            ml_validation: SimDuration::from_micros(rng.gen_range(2_000..=2_900)),
        }
    }

    /// Client-side critical path to emission, *excluding* sensor sampling
    /// (§6: with a lazy buffer, sampling overlaps app use and only the
    /// 60–80 ms rate-raise is on the path, folded into app detection).
    pub fn critical_path(&self) -> SimDuration {
        self.app_detection + self.secure_storage
    }
}

/// The signed humanness evidence the app sends (§5.3: "raw sensor data —
/// or more precisely features extracted as per the ML model").
#[derive(Debug, Clone, PartialEq)]
pub struct AuthMessage {
    /// Android package name of the foreground IoT app.
    pub app_package: String,
    /// The 48 extracted IMU features.
    pub features: Vec<f64>,
    /// Ground-truth motion kind — carried for the simulation's calibrated
    /// validator only; a real deployment has no such field.
    pub truth: MotionKind,
    /// Client timestamp (microseconds), bound into the signature.
    pub ts_micros: u64,
}

impl AuthMessage {
    /// Serialize (without tag).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.app_package.len() + self.features.len() * 8);
        out.extend_from_slice(&(self.app_package.len() as u16).to_be_bytes());
        out.extend_from_slice(self.app_package.as_bytes());
        out.push(match self.truth {
            MotionKind::HumanTouch => 1,
            MotionKind::Resting => 0,
            MotionKind::SyntheticSway => 2,
        });
        out.extend_from_slice(&self.ts_micros.to_be_bytes());
        out.extend_from_slice(&(self.features.len() as u16).to_be_bytes());
        for f in &self.features {
            out.extend_from_slice(&f.to_be_bytes());
        }
        out
    }

    /// Parse a message encoded by [`AuthMessage::encode`] into an owned
    /// copy of its [`AuthView`].
    pub fn decode(bytes: &[u8]) -> Option<AuthMessage> {
        AuthView::parse(bytes).map(|v| AuthMessage {
            app_package: v.app_package.to_string(),
            features: v.features().collect(),
            truth: v.truth,
            ts_micros: v.ts_micros,
        })
    }
}

/// An encoded [`AuthMessage`], parsed in place: the proxy checks a proof
/// through it without allocating.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AuthView<'a> {
    /// Android package name of the foreground IoT app.
    pub app_package: &'a str,
    /// Ground-truth motion kind (see [`AuthMessage::truth`]).
    pub truth: MotionKind,
    /// Client timestamp (microseconds).
    pub ts_micros: u64,
    /// The features, eight big-endian bytes each.
    feature_bytes: &'a [u8],
}

impl<'a> AuthView<'a> {
    /// Parse a message encoded by [`AuthMessage::encode`]: `None` unless
    /// every byte is where the encoding puts it.
    pub fn parse(bytes: &'a [u8]) -> Option<Self> {
        let mut i = 0usize;
        let take = |i: &mut usize, n: usize| -> Option<&'a [u8]> {
            let s = bytes.get(*i..*i + n)?;
            *i += n;
            Some(s)
        };
        let name_len = u16::from_be_bytes(take(&mut i, 2)?.try_into().ok()?) as usize;
        let app_package = std::str::from_utf8(take(&mut i, name_len)?).ok()?;
        let truth = match take(&mut i, 1)?[0] {
            1 => MotionKind::HumanTouch,
            0 => MotionKind::Resting,
            2 => MotionKind::SyntheticSway,
            _ => return None,
        };
        let ts_micros = u64::from_be_bytes(take(&mut i, 8)?.try_into().ok()?);
        let n = u16::from_be_bytes(take(&mut i, 2)?.try_into().ok()?) as usize;
        // The count is untrusted: it must match the bytes that are
        // actually there.
        let feature_bytes = &bytes[i..];
        if feature_bytes.len() != 8 * n {
            return None;
        }
        Some(AuthView {
            app_package,
            truth,
            ts_micros,
            feature_bytes,
        })
    }

    /// The features in order, decoded as they are read.
    pub fn features(&self) -> impl ExactSizeIterator<Item = f64> + 'a {
        self.feature_bytes
            .chunks_exact(8)
            .map(|f| f64::from_be_bytes(f.try_into().expect("8-byte chunk")))
    }
}

/// The FIAT client app: keystore, pairing keys, and QUIC client.
pub struct FiatApp {
    store: TeeKeystore,
    keys: Paired,
    quic: QuicClient,
    rng: StdRng,
}

impl FiatApp {
    /// Install and pair the app using the out-of-band ceremony secret.
    pub fn new(ceremony_secret: &[u8; 32], seed: u64) -> Self {
        let store = TeeKeystore::new();
        let (keys, psk) = pair(&store, ceremony_secret);
        FiatApp {
            store,
            keys,
            quic: QuicClient::new(psk),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Begin the 1-RTT handshake with the proxy.
    pub fn handshake_request(&mut self) -> ClientHello {
        let mut random = [0u8; 32];
        self.rng.fill(&mut random);
        self.quic.start_handshake(random)
    }

    /// Complete the handshake; afterwards 0-RTT tickets are cached.
    pub fn complete_handshake(&mut self, hello: &ServerHello) -> Result<(), fiat_quic::QuicError> {
        self.quic.finish_handshake(hello)
    }

    /// Whether 0-RTT evidence can be sent immediately.
    pub fn can_zero_rtt(&self) -> bool {
        self.quic.can_zero_rtt()
    }

    /// Build, sign, and 0-RTT-seal humanness evidence for the given
    /// foreground app and sensor capture.
    pub fn authorize_zero_rtt(
        &mut self,
        app_package: &str,
        imu: &ImuTrace,
        truth: MotionKind,
        ts_micros: u64,
    ) -> Result<ZeroRttPacket, fiat_quic::QuicError> {
        let payload = self.signed_payload(app_package, imu, truth, ts_micros);
        self.quic.seal_zero_rtt(&payload)
    }

    /// Same evidence over the established 1-RTT connection.
    pub fn authorize_one_rtt(
        &mut self,
        app_package: &str,
        imu: &ImuTrace,
        truth: MotionKind,
        ts_micros: u64,
    ) -> Result<fiat_quic::Packet, fiat_quic::QuicError> {
        let payload = self.signed_payload(app_package, imu, truth, ts_micros);
        self.quic.seal(&payload)
    }

    fn signed_payload(
        &mut self,
        app_package: &str,
        imu: &ImuTrace,
        truth: MotionKind,
        ts_micros: u64,
    ) -> Vec<u8> {
        let msg = AuthMessage {
            app_package: app_package.to_string(),
            features: extract_features(imu),
            truth,
            ts_micros,
        };
        let mut payload = msg.encode();
        let tag = self
            .store
            .sign(self.keys.sign_key, &payload)
            .expect("sealed sign key");
        payload.extend_from_slice(&tag);
        payload
    }

    /// Split a received payload into message bytes and tag (proxy side).
    pub fn split_payload(payload: &[u8]) -> Option<(&[u8], &[u8])> {
        if payload.len() < 32 {
            return None;
        }
        Some(payload.split_at(payload.len() - 32))
    }

    /// Sample this authorization's component latencies.
    pub fn sample_latency(&mut self) -> LatencyBreakdown {
        LatencyBreakdown::sample(&mut self.rng)
    }

    /// Drop the cached session ticket. Called when the proxy answers
    /// `UnknownTicket`/`RetiredEpoch`: the proxy never issued the ticket,
    /// or its whole epoch was retired by key rotation, so 0-RTT is dead
    /// until a fresh handshake.
    pub fn forget_ticket(&mut self) {
        self.quic.forget_ticket();
    }

    /// Authorize with retries: re-sign and re-seal the evidence each
    /// attempt (a byte-identical resend would be rejected as a replay),
    /// back off with capped exponential delay + jitter on loss, and fall
    /// back to 1-RTT when the proxy rejects 0-RTT. `deliver` models the
    /// channel: it carries each attempt to the proxy and reports what
    /// came back (or that nothing did).
    pub fn authorize_with_retry(
        &mut self,
        app_package: &str,
        imu: &ImuTrace,
        truth: MotionKind,
        ts_micros: u64,
        policy: &RetryPolicy,
        mut deliver: impl FnMut(AuthAttempt, u32) -> DeliveryResult,
    ) -> RetryOutcome {
        let mut outcome = RetryOutcome {
            verified: false,
            attempts: 0,
            fell_back: false,
            total_backoff: SimDuration::ZERO,
        };
        for attempt in 0..policy.max_attempts {
            outcome.attempts = attempt + 1;
            let use_zero_rtt = self.can_zero_rtt() && !outcome.fell_back;
            let sealed = if use_zero_rtt {
                self.authorize_zero_rtt(app_package, imu, truth, ts_micros)
                    .map(AuthAttempt::ZeroRtt)
            } else {
                self.authorize_one_rtt(app_package, imu, truth, ts_micros)
                    .map(AuthAttempt::OneRtt)
            };
            let Ok(att) = sealed else {
                // No usable session at all (never handshaken): nothing a
                // retry can fix from here.
                return outcome;
            };
            match deliver(att, attempt) {
                DeliveryResult::Verified(v) => {
                    outcome.verified = v;
                    return outcome;
                }
                DeliveryResult::Lost => {
                    // The frame (or its ack) vanished; wait and resend.
                    if attempt + 1 < policy.max_attempts {
                        outcome.total_backoff += policy.delay(attempt, &mut self.rng);
                    }
                }
                DeliveryResult::Rejected(e) => match e {
                    // The proxy does not know the ticket, or its whole
                    // epoch was retired by key rotation: only a fresh
                    // handshake (and a proof re-signed under the new
                    // ticket) restores 0-RTT; meanwhile the established
                    // 1-RTT keys still work.
                    AuthError::Transport(QuicError::UnknownTicket | QuicError::RetiredEpoch) => {
                        self.forget_ticket();
                        outcome.fell_back = true;
                    }
                    // Early data rejected (corrupted in flight, or the
                    // replay filter ate a duplicate): same evidence,
                    // re-signed, over 1-RTT.
                    AuthError::Transport(_) if use_zero_rtt => {
                        outcome.fell_back = true;
                    }
                    // 1-RTT rejection or an authentication failure is
                    // terminal — retrying the same evidence cannot
                    // change the verdict.
                    _ => return outcome,
                },
            }
        }
        outcome
    }
}

/// Capped exponential backoff with jitter for proof (re)delivery.
///
/// Defaults: 150 ms initial, 2 s cap, 6 attempts — worst-case cumulative
/// backoff ≈ 5.3 s, comfortably inside a 10 s quarantine deadline, and
/// six independent 5%-loss trials leave ~1.6e-8 residual failure mass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Delay after the first lost attempt.
    pub initial: SimDuration,
    /// Upper bound on any single delay (before jitter).
    pub cap: SimDuration,
    /// Total attempts (the first transmission counts as one).
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            initial: SimDuration::from_millis(150),
            cap: SimDuration::from_secs(2),
            max_attempts: 6,
        }
    }
}

impl RetryPolicy {
    /// The jitter-free backoff before retry number `attempt + 1`:
    /// `min(initial · 2^attempt, cap)`.
    pub fn base(&self, attempt: u32) -> SimDuration {
        SimDuration::from_micros(
            self.initial
                .as_micros()
                .saturating_mul(1u64 << attempt.min(32))
                .min(self.cap.as_micros()),
        )
    }

    /// Delay before retry number `attempt + 1`: [`RetryPolicy::base`]
    /// plus uniform jitter in `[0, base/4]` so a fleet of phones that
    /// lost the same frame does not resend in lockstep.
    pub fn delay(&self, attempt: u32, rng: &mut StdRng) -> SimDuration {
        let base = self.base(attempt).as_micros();
        let jitter = if base == 0 {
            0
        } else {
            rng.gen_range(0..=base / 4)
        };
        SimDuration::from_micros(base + jitter)
    }
}

/// One sealed delivery attempt, 0-RTT or fallback 1-RTT.
#[derive(Debug, Clone)]
pub enum AuthAttempt {
    /// Early data under a cached session ticket.
    ZeroRtt(ZeroRttPacket),
    /// Over the established 1-RTT connection.
    OneRtt(Packet),
}

/// What the channel reported back for one delivery attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryResult {
    /// The proxy processed the proof; the bool is its humanness verdict.
    Verified(bool),
    /// The frame (or its acknowledgement) never arrived.
    Lost,
    /// The proxy received but rejected the frame.
    Rejected(AuthError),
}

/// Summary of an [`FiatApp::authorize_with_retry`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryOutcome {
    /// Whether the proxy verified humanness.
    pub verified: bool,
    /// Attempts spent (including the successful one).
    pub attempts: u32,
    /// Whether the client abandoned 0-RTT for the 1-RTT fallback.
    pub fell_back: bool,
    /// Total backoff the policy imposed across lost attempts.
    pub total_backoff: SimDuration,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_roundtrip() {
        let imu = ImuTrace::synthesize(MotionKind::HumanTouch, 400, 0);
        let msg = AuthMessage {
            app_package: "com.google.android.apps.chromecast.app".into(),
            features: extract_features(&imu),
            truth: MotionKind::HumanTouch,
            ts_micros: 123_456_789,
        };
        let bytes = msg.encode();
        let back = AuthMessage::decode(&bytes).unwrap();
        assert_eq!(back, msg);
        assert_eq!(back.features.len(), 48);
    }

    #[test]
    fn decode_rejects_garbage_and_truncation() {
        let msg = AuthMessage {
            app_package: "a".into(),
            features: vec![1.0, 2.0],
            truth: MotionKind::Resting,
            ts_micros: 0,
        };
        let bytes = msg.encode();
        assert!(AuthMessage::decode(&bytes[..bytes.len() - 1]).is_none());
        assert!(AuthMessage::decode(&[]).is_none());
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(AuthMessage::decode(&extra).is_none());
        let mut bad_truth = bytes;
        bad_truth[3] = 9; // truth byte after 2-byte len + 1-byte name
        assert!(AuthMessage::decode(&bad_truth).is_none());
    }

    #[test]
    fn decode_survives_every_truncation_and_bit_flip() {
        let msg = AuthMessage {
            app_package: "com.smartplug.app".into(),
            features: extract_features(&ImuTrace::synthesize(MotionKind::HumanTouch, 400, 0)),
            truth: MotionKind::HumanTouch,
            ts_micros: 123_456_789,
        };
        let bytes = msg.encode();
        for len in 0..bytes.len() {
            assert_eq!(AuthMessage::decode(&bytes[..len]), None, "prefix {len}");
        }
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            // A flip inside a value still parses, and then to exactly the
            // flipped bytes; anything else is refused.
            if let Some(m) = AuthMessage::decode(&flipped) {
                assert_eq!(m.encode(), flipped, "bit {bit}");
            }
        }
        // A feature count far past the bytes present is refused.
        let mut huge = bytes;
        let at = 2 + msg.app_package.len() + 1 + 8;
        huge[at..at + 2].copy_from_slice(&u16::MAX.to_be_bytes());
        assert_eq!(AuthMessage::decode(&huge), None);
    }

    #[test]
    fn latency_samples_within_table7_ranges() {
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..200 {
            let l = LatencyBreakdown::sample(&mut rng);
            assert!(l.app_detection >= SimDuration::from_millis(60));
            assert!(l.app_detection <= SimDuration::from_millis(90));
            assert!(l.sensor_sampling >= SimDuration::from_millis(233));
            assert!(l.sensor_sampling <= SimDuration::from_millis(260));
            assert!(l.secure_storage >= SimDuration::from_millis(45));
            assert!(l.secure_storage <= SimDuration::from_millis(56));
            assert!(l.ml_validation >= SimDuration::from_millis(2));
            assert!(l.ml_validation <= SimDuration::from_millis(3));
        }
    }

    #[test]
    fn critical_path_excludes_sensor_sampling() {
        let l = LatencyBreakdown {
            app_detection: SimDuration::from_millis(70),
            sensor_sampling: SimDuration::from_millis(250),
            secure_storage: SimDuration::from_millis(50),
            ml_validation: SimDuration::from_millis(2),
        };
        assert_eq!(l.critical_path(), SimDuration::from_millis(120));
    }

    #[test]
    fn signed_payload_has_trailing_tag() {
        let mut app = FiatApp::new(&[9u8; 32], 0);
        let imu = ImuTrace::synthesize(MotionKind::HumanTouch, 400, 1);
        let payload = app.signed_payload("com.wyze.app", &imu, MotionKind::HumanTouch, 42);
        let (msg_bytes, tag) = FiatApp::split_payload(&payload).unwrap();
        assert_eq!(tag.len(), 32);
        let msg = AuthMessage::decode(msg_bytes).unwrap();
        assert_eq!(msg.app_package, "com.wyze.app");
        // Verifies under the same ceremony secret.
        let store = TeeKeystore::new();
        let (keys, _) = pair(&store, &[9u8; 32]);
        assert!(store.verify(keys.sign_key, msg_bytes, tag).unwrap());
        // And fails under a different ceremony.
        let other = TeeKeystore::new();
        let (okeys, _) = pair(&other, &[8u8; 32]);
        assert!(!other.verify(okeys.sign_key, msg_bytes, tag).unwrap());
    }

    #[test]
    fn zero_rtt_requires_prior_handshake() {
        let mut app = FiatApp::new(&[1u8; 32], 0);
        assert!(!app.can_zero_rtt());
        let imu = ImuTrace::synthesize(MotionKind::HumanTouch, 400, 2);
        assert!(app
            .authorize_zero_rtt("app", &imu, MotionKind::HumanTouch, 0)
            .is_err());
    }

    // ---- retry / fallback resilience -----------------------------------

    use crate::pipeline::{FiatProxy, ProxyConfig};
    use fiat_net::SimTime;
    use fiat_sensors::HumannessValidator;

    const SECRET: [u8; 32] = [0x42; 32];

    fn paired_app_and_proxy(seed: u64) -> (FiatApp, FiatProxy) {
        let validator = HumannessValidator::with_operating_point(1.0, 1.0, 0);
        let mut proxy = FiatProxy::new(ProxyConfig::default(), &SECRET, validator);
        let mut app = FiatApp::new(&SECRET, seed);
        let ch = app.handshake_request();
        let sh = proxy.accept_handshake(&ch);
        app.complete_handshake(&sh).unwrap();
        (app, proxy)
    }

    #[test]
    fn retry_policy_delay_is_capped_exponential_with_bounded_jitter() {
        let policy = RetryPolicy::default();
        let mut rng = StdRng::seed_from_u64(0);
        for attempt in 0..12u32 {
            let base = (150_000u64 << attempt.min(32)).min(2_000_000);
            for _ in 0..50 {
                let d = policy.delay(attempt, &mut rng).as_micros();
                assert!(d >= base, "attempt {attempt}: {d} < {base}");
                assert!(d <= base + base / 4, "attempt {attempt}: {d} too jittery");
            }
        }
        // Same seed, same delays: the backoff schedule is deterministic.
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        for attempt in 0..6 {
            assert_eq!(policy.delay(attempt, &mut a), policy.delay(attempt, &mut b));
        }
    }

    #[test]
    fn retry_resends_fresh_frames_until_delivered() {
        let (mut app, mut proxy) = paired_app_and_proxy(3);
        let imu = ImuTrace::synthesize(MotionKind::HumanTouch, 500, 5);
        let mut tries = 0u32;
        let policy = RetryPolicy::default();
        let outcome = app.authorize_with_retry(
            "app",
            &imu,
            MotionKind::HumanTouch,
            1_000,
            &policy,
            |att, _| {
                tries += 1;
                let AuthAttempt::ZeroRtt(z) = att else {
                    panic!("ticket cached: all attempts should ride 0-RTT");
                };
                match tries {
                    // Frame lost outright.
                    1 => DeliveryResult::Lost,
                    // Delivered, but the acknowledgement is lost — the
                    // proxy has verified once already; the client must
                    // NOT resend those bytes (replay) but a re-signed
                    // fresh frame.
                    2 => {
                        proxy.on_auth_zero_rtt(&z, SimTime::from_secs(1)).unwrap();
                        DeliveryResult::Lost
                    }
                    _ => match proxy.on_auth_zero_rtt(&z, SimTime::from_secs(2)) {
                        Ok(v) => DeliveryResult::Verified(v),
                        Err(e) => DeliveryResult::Rejected(e),
                    },
                }
            },
        );
        assert!(outcome.verified);
        assert_eq!(outcome.attempts, 3);
        assert!(!outcome.fell_back);
        // Two lost attempts: backoff covers at least 150 + 300 ms.
        assert!(outcome.total_backoff >= SimDuration::from_millis(450));
        assert!(outcome.total_backoff <= SimDuration::from_micros(562_500));
    }

    #[test]
    fn scripted_retired_epoch_rejection_falls_back_to_one_rtt() {
        let (mut app, mut proxy) = paired_app_and_proxy(4);
        let imu = ImuTrace::synthesize(MotionKind::HumanTouch, 500, 6);
        let policy = RetryPolicy::default();
        let outcome = app.authorize_with_retry(
            "app",
            &imu,
            MotionKind::HumanTouch,
            2_000,
            &policy,
            |att, attempt| match (attempt, att) {
                // The proxy retired our ticket's epoch.
                (0, AuthAttempt::ZeroRtt(_)) => {
                    DeliveryResult::Rejected(AuthError::Transport(QuicError::RetiredEpoch))
                }
                // The fallback must arrive re-signed over 1-RTT.
                (_, AuthAttempt::OneRtt(p)) => {
                    match proxy.on_auth_one_rtt(&p, SimTime::from_secs(3)) {
                        Ok(v) => DeliveryResult::Verified(v),
                        Err(e) => DeliveryResult::Rejected(e),
                    }
                }
                (n, AuthAttempt::ZeroRtt(_)) => panic!("attempt {n} still used 0-RTT"),
            },
        );
        assert!(outcome.verified);
        assert_eq!(outcome.attempts, 2);
        assert!(outcome.fell_back);
        // The dead ticket is gone until the next handshake.
        assert!(!app.can_zero_rtt());
        assert_eq!(outcome.total_backoff, SimDuration::ZERO);
    }

    #[test]
    fn retired_epoch_rejection_falls_back_to_one_rtt() {
        let (mut app, mut proxy) = paired_app_and_proxy(9);
        let imu = ImuTrace::synthesize(MotionKind::HumanTouch, 500, 6);
        let policy = RetryPolicy::default();
        // The control plane rotated the ticket epoch and retired the old
        // one after the app's handshake: its cached 0-RTT ticket is dead,
        // but the auth must degrade to 1-RTT, not fail.
        proxy.rotate_ticket_epoch();
        proxy.retire_ticket_epochs_below(1);
        let outcome = app.authorize_with_retry(
            "app",
            &imu,
            MotionKind::HumanTouch,
            2_000,
            &policy,
            |att, _| match att {
                AuthAttempt::ZeroRtt(z) => {
                    match proxy.on_auth_zero_rtt(&z, SimTime::from_secs(2)) {
                        Ok(v) => DeliveryResult::Verified(v),
                        Err(e) => DeliveryResult::Rejected(e),
                    }
                }
                AuthAttempt::OneRtt(p) => match proxy.on_auth_one_rtt(&p, SimTime::from_secs(3)) {
                    Ok(v) => DeliveryResult::Verified(v),
                    Err(e) => DeliveryResult::Rejected(e),
                },
            },
        );
        assert!(outcome.verified);
        assert_eq!(outcome.attempts, 2);
        assert!(outcome.fell_back);
        // The retired ticket is gone until the next handshake.
        assert!(!app.can_zero_rtt());
    }

    #[test]
    fn terminal_rejection_stops_retrying() {
        let (mut app, _proxy) = paired_app_and_proxy(5);
        let imu = ImuTrace::synthesize(MotionKind::HumanTouch, 500, 7);
        let policy = RetryPolicy::default();
        let mut tries = 0u32;
        let outcome =
            app.authorize_with_retry("app", &imu, MotionKind::HumanTouch, 0, &policy, |_, _| {
                tries += 1;
                DeliveryResult::Rejected(AuthError::BadSignature)
            });
        assert!(!outcome.verified);
        assert_eq!(tries, 1);
        assert_eq!(outcome.attempts, 1);
    }

    #[test]
    fn retry_without_any_session_gives_up_without_delivering() {
        let mut app = FiatApp::new(&SECRET, 6);
        let imu = ImuTrace::synthesize(MotionKind::HumanTouch, 500, 8);
        let policy = RetryPolicy::default();
        let outcome =
            app.authorize_with_retry("app", &imu, MotionKind::HumanTouch, 0, &policy, |_, _| {
                panic!("nothing sealable: deliver must never run")
            });
        assert!(!outcome.verified);
        assert_eq!(outcome.attempts, 1);
    }

    #[test]
    fn exhausted_retries_report_failure() {
        let (mut app, _proxy) = paired_app_and_proxy(7);
        let imu = ImuTrace::synthesize(MotionKind::HumanTouch, 500, 9);
        let policy = RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::default()
        };
        let outcome =
            app.authorize_with_retry("app", &imu, MotionKind::HumanTouch, 0, &policy, |_, _| {
                DeliveryResult::Lost
            });
        assert!(!outcome.verified);
        assert_eq!(outcome.attempts, 3);
        // No backoff after the final attempt — only between attempts.
        assert!(outcome.total_backoff >= SimDuration::from_millis(450));
        assert!(outcome.total_backoff <= SimDuration::from_micros(562_500));
    }
}
