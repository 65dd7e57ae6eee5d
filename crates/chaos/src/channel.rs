//! The faulty phone → proxy proof channel.
//!
//! [`ProofChannel`] carries sealed [`AuthAttempt`] frames through a
//! [`FaultPlan`]: frames can be lost (drop or offline window), delayed
//! (base latency plus an extra-delay fault), corrupted (a ciphertext bit
//! flip the proxy sees as `DecryptFailed`), or duplicated (the second
//! copy trips the anti-replay store). The channel only *schedules*
//! deliveries — the proxy is driven later, in arrival order, by the soak
//! harness — so chaos timing composes with the quarantine deadline
//! exactly as it would on a real network.

use crate::fault::{FaultKind, FaultPlan, FrameFate};
use fiat_core::AuthAttempt;
use fiat_net::{SimDuration, SimTime};
use fiat_quic::{Packet, ZeroRttPacket};
use fiat_simnet::LatencyProfile;

/// Spacing between a frame and its injected duplicate.
const DUPLICATE_SPACING: SimDuration = SimDuration::from_millis(2);

/// What the channel did with one sealed frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelVerdict {
    /// The frame never arrives (drop fault or offline window).
    Lost,
    /// The frame arrives at the given time; `corrupted` means its
    /// ciphertext was flipped in flight, `duplicated` means a second
    /// copy lands 2 ms later.
    Delivered {
        /// Arrival time at the proxy.
        arrival: SimTime,
        /// Ciphertext bit-flipped in flight.
        corrupted: bool,
        /// A second identical copy follows.
        duplicated: bool,
    },
}

/// A lossy, seeded channel for proof frames. See the module docs.
#[derive(Debug)]
pub struct ProofChannel {
    /// Fault model (rates, windows, RNG, counters).
    pub plan: FaultPlan,
    /// Base one-way latency of the phone → proxy path.
    pub base: LatencyProfile,
}

impl ProofChannel {
    /// A channel over the given fault plan and base latency.
    pub fn new(plan: FaultPlan, base: LatencyProfile) -> Self {
        ProofChannel { plan, base }
    }

    /// Carry one frame sent at `sent_at`; returns its fate. Rolls happen
    /// in a fixed order on the plan's seeded RNG, so runs replay exactly.
    pub fn transmit(&mut self, sent_at: SimTime) -> ChannelVerdict {
        match self.plan.frame_fate(sent_at) {
            FrameFate::Lost => ChannelVerdict::Lost,
            FrameFate::Delivered {
                extra_delay,
                corrupted,
                duplicated,
            } => {
                let base = self.base.sample(self.plan.rng());
                ChannelVerdict::Delivered {
                    arrival: sent_at + base + extra_delay,
                    corrupted,
                    duplicated,
                }
            }
        }
    }

    /// Whether the IMU is unavailable at `t` (no evidence can be
    /// produced, so no frame is ever sealed). Counts the fault.
    pub fn sensor_blocked(&mut self, t: SimTime) -> bool {
        if self.plan.sensor_unavailable_at(t) {
            self.plan.record(FaultKind::SensorUnavailable);
            true
        } else {
            false
        }
    }

    /// The arrival time of an injected duplicate of a frame landing at
    /// `arrival`.
    pub fn duplicate_arrival(arrival: SimTime) -> SimTime {
        arrival + DUPLICATE_SPACING
    }
}

/// Flip one ciphertext bit of a sealed attempt — the proxy will fail
/// authenticated decryption (`DecryptFailed`), never accept a forgery.
pub fn corrupt_attempt(att: &AuthAttempt) -> AuthAttempt {
    match att {
        AuthAttempt::ZeroRtt(z) => AuthAttempt::ZeroRtt(ZeroRttPacket {
            ticket: z.ticket,
            nonce: z.nonce,
            ciphertext: flip_bit(&z.ciphertext),
        }),
        AuthAttempt::OneRtt(p) => AuthAttempt::OneRtt(Packet {
            number: p.number,
            ciphertext: flip_bit(&p.ciphertext),
        }),
    }
}

fn flip_bit(bytes: &[u8]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    if let Some(mid) = out.len().checked_sub(1).map(|n| n / 2) {
        out[mid] ^= 0x40;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fiat_core::{FiatApp, FiatProxy, ProxyConfig};
    use fiat_sensors::{HumannessValidator, ImuTrace, MotionKind};

    const SECRET: [u8; 32] = [0x42; 32];

    fn paired() -> (FiatApp, FiatProxy) {
        let validator = HumannessValidator::with_operating_point(1.0, 1.0, 0);
        let mut proxy = FiatProxy::new(ProxyConfig::default(), &SECRET, validator);
        let mut app = FiatApp::new(&SECRET, 1);
        let ch = app.handshake_request();
        let sh = proxy.accept_handshake(&ch);
        app.complete_handshake(&sh).unwrap();
        (app, proxy)
    }

    #[test]
    fn corrupted_zero_rtt_frames_fail_decryption_not_verification() {
        let (mut app, mut proxy) = paired();
        let imu = ImuTrace::synthesize(MotionKind::HumanTouch, 500, 2);
        let z = app
            .authorize_zero_rtt("app", &imu, MotionKind::HumanTouch, 1_000)
            .unwrap();
        let att = corrupt_attempt(&AuthAttempt::ZeroRtt(z));
        let AuthAttempt::ZeroRtt(bad) = att else {
            unreachable!()
        };
        let err = proxy
            .on_auth_zero_rtt(&bad, SimTime::from_secs(1))
            .unwrap_err();
        assert!(
            matches!(
                err,
                fiat_core::pipeline::AuthError::Transport(fiat_quic::QuicError::DecryptFailed)
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn corrupted_one_rtt_frames_fail_decryption_too() {
        let (mut app, mut proxy) = paired();
        let imu = ImuTrace::synthesize(MotionKind::HumanTouch, 500, 3);
        let p = app
            .authorize_one_rtt("app", &imu, MotionKind::HumanTouch, 2_000)
            .unwrap();
        let att = corrupt_attempt(&AuthAttempt::OneRtt(p));
        let AuthAttempt::OneRtt(bad) = att else {
            unreachable!()
        };
        assert!(proxy.on_auth_one_rtt(&bad, SimTime::from_secs(1)).is_err());
    }

    #[test]
    fn duplicated_clean_frames_verify_once_then_replay_reject() {
        let (mut app, mut proxy) = paired();
        let imu = ImuTrace::synthesize(MotionKind::HumanTouch, 500, 4);
        let z = app
            .authorize_zero_rtt("app", &imu, MotionKind::HumanTouch, 3_000)
            .unwrap();
        assert!(proxy.on_auth_zero_rtt(&z, SimTime::from_secs(1)).unwrap());
        let err = proxy
            .on_auth_zero_rtt(&z, SimTime::from_secs(1))
            .unwrap_err();
        assert!(matches!(
            err,
            fiat_core::pipeline::AuthError::Transport(fiat_quic::QuicError::Replayed)
        ));
    }

    #[test]
    fn transmit_is_deterministic_and_lossless_at_zero_rates() {
        let mut ch = ProofChannel::new(FaultPlan::none(9), LatencyProfile::from_millis(5, 15));
        for i in 0..100u64 {
            let t = SimTime::from_secs(i);
            match ch.transmit(t) {
                ChannelVerdict::Delivered {
                    arrival,
                    corrupted,
                    duplicated,
                } => {
                    assert!(arrival >= t + SimDuration::from_millis(5));
                    assert!(arrival <= t + SimDuration::from_millis(20));
                    assert!(!corrupted && !duplicated);
                }
                ChannelVerdict::Lost => panic!("zero-rate plan lost a frame"),
            }
        }
        assert_eq!(ch.plan.total_faults(), 0);
    }

    #[test]
    fn offline_windows_lose_proof_frames() {
        let mut plan = FaultPlan::none(11);
        plan.offline = vec![(SimTime::from_secs(5), SimTime::from_secs(6))];
        let mut ch = ProofChannel::new(plan, LatencyProfile::from_millis(5, 15));
        assert_eq!(
            ch.transmit(SimTime::from_micros(5_500_000)),
            ChannelVerdict::Lost
        );
        assert_eq!(ch.plan.count(FaultKind::Offline), 1);
        assert!(matches!(
            ch.transmit(SimTime::from_secs(7)),
            ChannelVerdict::Delivered { .. }
        ));
    }
}
