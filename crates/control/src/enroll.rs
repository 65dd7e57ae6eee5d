//! Enrollment: phone ↔ proxy mutual authentication and home
//! provisioning.
//!
//! The paper's evaluation starts from a home that already exists fully
//! configured. This module makes that setup explicit: a three-message
//! challenge/response over the pairing-ceremony keys (the lightpuf
//! group-enrollment shape — request, challenge with an authenticator,
//! proof back) establishes that both sides hold keys derived from the
//! same out-of-band ceremony secret, and only then does the control
//! plane provision the proxy: DNS knowledge, device registrations, and
//! the QUIC handshake that issues the phone its first session ticket
//! under epoch 0.
//!
//! ```text
//!   phone                              proxy
//!     │ ── EnrollRequest{pn} ──────────▶ │
//!     │ ◀─ EnrollChallenge{xn, tag_x} ── │  tag_x = HMAC(sign, "proxy"‖pn‖xn)
//!     │ ── EnrollProof{tag_p} ─────────▶ │  tag_p = HMAC(sign, "phone"‖xn‖pn)
//! ```
//!
//! The phone verifies `tag_x` before revealing anything (a rogue proxy
//! learns only a nonce), and the proxy verifies `tag_p` before
//! provisioning (a rogue phone enrolls nothing). Both tags bind both
//! nonces, so neither message replays across ceremonies.

use crate::metrics::ControlMetrics;
use fiat_core::pairing::Paired;
use fiat_core::{pair, EventClassifier, FiatApp, FiatProxy, ProxyConfig, ProxyTelemetry};
use fiat_crypto::TeeKeystore;
use fiat_net::{DnsTable, SimTime};
use fiat_sensors::HumannessValidator;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Domain separator for the proxy's challenge authenticator.
const PROXY_TAG_LABEL: &[u8] = b"fiat-enroll-proxy";
/// Domain separator for the phone's enrollment proof.
const PHONE_TAG_LABEL: &[u8] = b"fiat-enroll-phone";

/// Message 1: the phone asks to enroll.
#[derive(Debug, Clone, Copy)]
pub struct EnrollRequest {
    /// Phone-chosen nonce, echoed under both tags.
    pub phone_nonce: [u8; 32],
}

/// Message 2: the proxy challenges back, proving its own ceremony keys.
#[derive(Debug, Clone, Copy)]
pub struct EnrollChallenge {
    /// Proxy-chosen nonce.
    pub proxy_nonce: [u8; 32],
    /// `HMAC(sign_key, "fiat-enroll-proxy" ‖ phone_nonce ‖ proxy_nonce)`.
    pub proxy_tag: [u8; 32],
}

/// Message 3: the phone's proof, completing mutual authentication.
#[derive(Debug, Clone, Copy)]
pub struct EnrollProof {
    /// `HMAC(sign_key, "fiat-enroll-phone" ‖ proxy_nonce ‖ phone_nonce)`.
    pub phone_tag: [u8; 32],
}

fn tag_input(label: &[u8], first: &[u8; 32], second: &[u8; 32]) -> Vec<u8> {
    let mut msg = Vec::with_capacity(label.len() + 64);
    msg.extend_from_slice(label);
    msg.extend_from_slice(first);
    msg.extend_from_slice(second);
    msg
}

/// The phone's side of enrollment: holds its pairing keys and the nonce
/// it committed to in [`EnrollRequest`].
pub struct PhoneEnroller {
    store: TeeKeystore,
    keys: Paired,
    phone_nonce: [u8; 32],
}

impl PhoneEnroller {
    /// Pair against `ceremony_secret` and pick this enrollment's nonce.
    pub fn new(ceremony_secret: &[u8; 32], seed: u64) -> Self {
        let store = TeeKeystore::new();
        let (keys, _psk) = pair(&store, ceremony_secret);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut phone_nonce = [0u8; 32];
        rng.fill(&mut phone_nonce);
        PhoneEnroller {
            store,
            keys,
            phone_nonce,
        }
    }

    /// Message 1.
    pub fn request(&self) -> EnrollRequest {
        EnrollRequest {
            phone_nonce: self.phone_nonce,
        }
    }

    /// Verify the proxy's challenge; on success produce message 3.
    /// `None` means the proxy failed to prove the ceremony keys — the
    /// phone aborts without revealing its own proof.
    pub fn answer_challenge(&self, ch: &EnrollChallenge) -> Option<EnrollProof> {
        let expect = tag_input(PROXY_TAG_LABEL, &self.phone_nonce, &ch.proxy_nonce);
        let ok = self
            .store
            .verify(self.keys.sign_key, &expect, &ch.proxy_tag)
            .unwrap_or(false);
        if !ok {
            return None;
        }
        let msg = tag_input(PHONE_TAG_LABEL, &ch.proxy_nonce, &self.phone_nonce);
        let phone_tag = self
            .store
            .sign(self.keys.sign_key, &msg)
            .expect("sealed sign key");
        Some(EnrollProof { phone_tag })
    }
}

/// The proxy's side of enrollment.
pub struct ProxyEnroller {
    store: TeeKeystore,
    keys: Paired,
    proxy_nonce: [u8; 32],
    // Nonce pair in flight, set by `challenge`.
    pending: Option<([u8; 32], [u8; 32])>,
}

impl ProxyEnroller {
    /// Pair against `ceremony_secret` and pick this enrollment's nonce.
    pub fn new(ceremony_secret: &[u8; 32], seed: u64) -> Self {
        let store = TeeKeystore::new();
        let (keys, _psk) = pair(&store, ceremony_secret);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut proxy_nonce = [0u8; 32];
        rng.fill(&mut proxy_nonce);
        ProxyEnroller {
            store,
            keys,
            proxy_nonce,
            pending: None,
        }
    }

    /// Answer message 1 with message 2.
    pub fn challenge(&mut self, req: &EnrollRequest) -> EnrollChallenge {
        let msg = tag_input(PROXY_TAG_LABEL, &req.phone_nonce, &self.proxy_nonce);
        let proxy_tag = self
            .store
            .sign(self.keys.sign_key, &msg)
            .expect("sealed sign key");
        self.pending = Some((req.phone_nonce, self.proxy_nonce));
        EnrollChallenge {
            proxy_nonce: self.proxy_nonce,
            proxy_tag,
        }
    }

    /// Verify message 3. `true` completes mutual authentication.
    pub fn verify_proof(&self, proof: &EnrollProof) -> bool {
        let Some((phone_nonce, proxy_nonce)) = self.pending else {
            return false;
        };
        let msg = tag_input(PHONE_TAG_LABEL, &proxy_nonce, &phone_nonce);
        self.store
            .verify(self.keys.sign_key, &msg, &proof.phone_tag)
            .unwrap_or(false)
    }
}

/// Why an enrollment was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnrollError {
    /// The phone rejected the proxy's challenge authenticator (the proxy
    /// does not hold this ceremony's keys).
    ProxyRejected,
    /// The proxy rejected the phone's proof.
    PhoneRejected,
}

impl std::fmt::Display for EnrollError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnrollError::ProxyRejected => write!(f, "phone rejected the proxy's challenge"),
            EnrollError::PhoneRejected => write!(f, "proxy rejected the phone's proof"),
        }
    }
}

impl std::error::Error for EnrollError {}

/// One device to register at provisioning time.
pub struct DeviceSpec {
    /// Device id.
    pub device: u16,
    /// Its event classifier.
    pub classifier: EventClassifier,
    /// First-N classification window.
    pub min_packets_to_complete: usize,
}

/// Everything the control plane provisions into a new home.
pub struct HomeProvision {
    /// Proxy configuration.
    pub config: ProxyConfig,
    /// The out-of-band ceremony secret on the proxy side.
    pub ceremony_secret: [u8; 32],
    /// Seed for enrollment nonces and the phone's client RNG.
    pub seed: u64,
    /// DNS knowledge to install.
    pub dns: DnsTable,
    /// Devices to register.
    pub devices: Vec<DeviceSpec>,
    /// When the proxy starts (bootstrap anchor).
    pub start_at: SimTime,
}

/// A freshly enrolled home: a running proxy and its paired phone app,
/// holding a session ticket under the first epoch.
pub struct EnrolledHome {
    /// The home's proxy, started and provisioned.
    pub proxy: FiatProxy,
    /// The phone app, handshaken (0-RTT ready).
    pub app: FiatApp,
}

/// Run the full enrollment flow: mutual authentication with the phone
/// holding `phone_secret` (a mismatch with the provision's ceremony
/// secret is refused on the first tag that fails to verify), then
/// provisioning — DNS, device registrations, proxy start — and the
/// first QUIC handshake, leaving the phone 0-RTT-capable.
pub fn enroll_home(
    provision: HomeProvision,
    phone_secret: &[u8; 32],
    validator: HumannessValidator,
    telemetry: ProxyTelemetry,
    metrics: Option<&ControlMetrics>,
) -> Result<EnrolledHome, EnrollError> {
    let phone = PhoneEnroller::new(phone_secret, provision.seed ^ 0x70_68_6f_6e_65);
    let mut proxy_side =
        ProxyEnroller::new(&provision.ceremony_secret, provision.seed ^ 0x70_72_78);

    let req = phone.request();
    let ch = proxy_side.challenge(&req);
    let proof = match phone.answer_challenge(&ch) {
        Some(p) => p,
        None => {
            if let Some(m) = metrics {
                m.record_enrollment(false);
            }
            return Err(EnrollError::ProxyRejected);
        }
    };
    if !proxy_side.verify_proof(&proof) {
        if let Some(m) = metrics {
            m.record_enrollment(false);
        }
        return Err(EnrollError::PhoneRejected);
    }

    let mut proxy = FiatProxy::with_telemetry(
        provision.config,
        &provision.ceremony_secret,
        validator,
        telemetry,
    );
    proxy.set_dns(provision.dns);
    for d in provision.devices {
        proxy.register_device(d.device, d.classifier, d.min_packets_to_complete);
    }
    proxy.start(provision.start_at);

    let mut app = FiatApp::new(phone_secret, provision.seed ^ 0x61_70_70);
    let hello = app.handshake_request();
    let sh = proxy.accept_handshake(&hello);
    app.complete_handshake(&sh)
        .expect("matching ceremony secrets handshake");
    debug_assert!(app.can_zero_rtt());

    if let Some(m) = metrics {
        m.record_enrollment(true);
    }
    Ok(EnrolledHome { proxy, app })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::CONTROL_ENROLLMENTS_TOTAL;
    use fiat_telemetry::{ManualClock, MetricRegistry};
    use std::sync::Arc;

    const SECRET: [u8; 32] = [0xE1; 32];

    fn provision(secret: [u8; 32]) -> HomeProvision {
        HomeProvision {
            config: ProxyConfig::default(),
            ceremony_secret: secret,
            seed: 7,
            dns: DnsTable::new(),
            devices: vec![DeviceSpec {
                device: 0,
                classifier: EventClassifier::simple_rule(300),
                min_packets_to_complete: 4,
            }],
            start_at: SimTime::ZERO,
        }
    }

    fn enrollments(registry: &MetricRegistry, result: &str) -> u64 {
        registry
            .counter(CONTROL_ENROLLMENTS_TOTAL, &[("result", result)])
            .get()
    }

    fn plug() -> (MetricRegistry, ProxyTelemetry) {
        let registry = MetricRegistry::new();
        let telemetry = ProxyTelemetry::new(registry.clone(), Arc::new(ManualClock::new()));
        (registry, telemetry)
    }

    #[test]
    fn matching_secrets_enroll_and_issue_a_ticket() {
        let (registry, telemetry) = plug();
        let metrics = ControlMetrics::new(&registry);
        let home = enroll_home(
            provision(SECRET),
            &SECRET,
            HumannessValidator::with_operating_point(1.0, 1.0, 0),
            telemetry,
            Some(&metrics),
        )
        .expect("enrollment");
        assert!(home.app.can_zero_rtt(), "first session ticket issued");
        assert_eq!(home.proxy.ticket_epoch(), 0, "first ticket is epoch 0");
        assert_eq!(enrollments(&registry, "accepted"), 1);
        assert_eq!(enrollments(&registry, "rejected"), 0);
    }

    #[test]
    fn wrong_phone_secret_is_refused_before_provisioning() {
        let (registry, telemetry) = plug();
        let metrics = ControlMetrics::new(&registry);
        let err = match enroll_home(
            provision(SECRET),
            &[0x99; 32],
            HumannessValidator::with_operating_point(1.0, 1.0, 0),
            telemetry,
            Some(&metrics),
        ) {
            Ok(_) => panic!("mismatched ceremony must be refused"),
            Err(e) => e,
        };
        // The phone aborts first: the proxy's challenge tag does not
        // verify under the phone's (different) keys.
        assert_eq!(err, EnrollError::ProxyRejected);
        assert_eq!(enrollments(&registry, "rejected"), 1);
        assert_eq!(enrollments(&registry, "accepted"), 0);
    }

    #[test]
    fn tampered_proof_is_refused_by_the_proxy() {
        let phone = PhoneEnroller::new(&SECRET, 1);
        let mut proxy = ProxyEnroller::new(&SECRET, 2);
        let ch = proxy.challenge(&phone.request());
        let mut proof = phone.answer_challenge(&ch).expect("genuine challenge");
        proof.phone_tag[0] ^= 0x80;
        assert!(!proxy.verify_proof(&proof));
    }

    #[test]
    fn proof_does_not_verify_without_a_pending_challenge() {
        let phone = PhoneEnroller::new(&SECRET, 1);
        let mut issuing = ProxyEnroller::new(&SECRET, 2);
        let ch = issuing.challenge(&phone.request());
        let proof = phone.answer_challenge(&ch).expect("genuine challenge");
        // A second proxy that never challenged has no nonce pair to
        // check against, so a replayed proof is dead on arrival.
        let fresh = ProxyEnroller::new(&SECRET, 3);
        assert!(!fresh.verify_proof(&proof));
    }

    #[test]
    fn tags_bind_both_nonces() {
        // Replaying a challenge against a different phone nonce fails:
        // the tag covers the phone's nonce too.
        let phone_a = PhoneEnroller::new(&SECRET, 1);
        let phone_b = PhoneEnroller::new(&SECRET, 9);
        let mut proxy = ProxyEnroller::new(&SECRET, 2);
        let ch = proxy.challenge(&phone_a.request());
        assert!(phone_a.answer_challenge(&ch).is_some());
        assert!(phone_b.answer_challenge(&ch).is_none());
    }
}
