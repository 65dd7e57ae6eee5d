//! The resilient phone client: retries, re-signing, and 1-RTT fallback
//! over a faulty [`ProofChannel`].
//!
//! [`ResilientClient::plan_proof`] runs one full
//! [`FiatApp::authorize_with_retry`] exchange against the channel and
//! records every frame that actually *arrived* (possibly corrupted,
//! possibly twice) with its arrival time. The soak harness later feeds
//! those frames to the proxy in global arrival order — the client plans
//! the exchange, the proxy adjudicates it, and the quarantine deadline
//! sees the true arrival times.
//!
//! Channel semantics seen by the retry loop:
//! - lost frame (drop fault or offline window) → `Lost` → backoff, resend
//!   a re-signed frame;
//! - corrupted 0-RTT frame → the proxy answers `DecryptFailed` → the
//!   client falls back to 1-RTT (re-signed, fresh frame);
//! - corrupted 1-RTT frame → the proxy cannot even decrypt, so no
//!   acknowledgement ever comes back → the client sees `Lost` and backs
//!   off;
//! - clean delivery → `Verified` (the genuine evidence verifies under the
//!   calibrated validator) and the exchange ends.

use crate::channel::{corrupt_attempt, ChannelVerdict, ProofChannel};
use fiat_core::{AuthAttempt, DeliveryResult, FiatApp, RetryOutcome, RetryPolicy};
use fiat_net::{SimDuration, SimTime};
use fiat_quic::QuicError;
use fiat_sensors::{ImuTrace, MotionKind};

/// Client-side processing between a rejection and the re-signed resend
/// (re-seal + radio turnaround); keeps fallback frames from being sent
/// at the exact same instant as the frame they replace.
const RESEND_PROC: SimDuration = SimDuration::from_millis(5);

/// One frame that physically arrived at the proxy.
#[derive(Debug, Clone)]
pub struct ProofFrame {
    /// Arrival time at the proxy.
    pub arrival: SimTime,
    /// The sealed attempt as it arrived (corrupted frames already have
    /// their ciphertext flipped).
    pub attempt: AuthAttempt,
    /// Whether the channel flipped its bits.
    pub corrupted: bool,
}

/// The planned delivery schedule for one proof exchange.
#[derive(Debug)]
pub struct ProofPlan {
    /// Frames that arrived, in send order (arrival order may differ —
    /// the soak harness merges globally by arrival time).
    pub frames: Vec<ProofFrame>,
    /// The client-side retry summary (`None` when the IMU was
    /// unavailable and no frame was ever sealed).
    pub outcome: Option<RetryOutcome>,
    /// The IMU was unavailable at proof time: no evidence exists.
    pub sensor_blocked: bool,
}

impl ProofPlan {
    /// Earliest clean (uncorrupted) arrival, if any — the time the proxy
    /// *could* first verify this proof.
    pub fn first_clean_arrival(&self) -> Option<SimTime> {
        self.frames
            .iter()
            .filter(|f| !f.corrupted)
            .map(|f| f.arrival)
            .min()
    }
}

/// A [`FiatApp`] under a retry policy, planning proofs over a faulty
/// channel.
pub struct ResilientClient {
    /// The phone app (keystore, pairing keys, QUIC client).
    pub app: FiatApp,
    /// Backoff policy for lost frames.
    pub policy: RetryPolicy,
}

impl ResilientClient {
    /// A client with the default backoff policy (150 ms initial, 2 s
    /// cap, 6 attempts).
    pub fn new(app: FiatApp) -> Self {
        ResilientClient {
            app,
            policy: RetryPolicy::default(),
        }
    }

    /// A client that never retries — the degradation baseline.
    pub fn without_retries(app: FiatApp) -> Self {
        ResilientClient {
            app,
            policy: RetryPolicy {
                max_attempts: 1,
                ..RetryPolicy::default()
            },
        }
    }

    /// Plan one proof exchange starting at `start`: run the retry loop
    /// against the channel and record every frame that arrived. The
    /// deterministic (jitter-free) backoff base spaces the virtual send
    /// times; the policy's jittered delay is still what the client-side
    /// `total_backoff` reports.
    pub fn plan_proof(
        &mut self,
        channel: &mut ProofChannel,
        start: SimTime,
        app_package: &str,
        imu: &ImuTrace,
        truth: MotionKind,
    ) -> ProofPlan {
        if channel.sensor_blocked(start) {
            return ProofPlan {
                frames: Vec::new(),
                outcome: None,
                sensor_blocked: true,
            };
        }
        let mut frames: Vec<ProofFrame> = Vec::new();
        let mut send_t = start;
        let policy = self.policy;
        let mut prev_lost = false;
        let outcome = self.app.authorize_with_retry(
            app_package,
            imu,
            truth,
            start.as_micros(),
            &policy,
            |att, attempt| {
                if attempt > 0 {
                    send_t += RESEND_PROC;
                    if prev_lost {
                        send_t += policy.base(attempt - 1);
                    }
                }
                match channel.transmit(send_t) {
                    ChannelVerdict::Lost => {
                        prev_lost = true;
                        DeliveryResult::Lost
                    }
                    ChannelVerdict::Delivered {
                        arrival,
                        corrupted,
                        duplicated,
                    } => {
                        prev_lost = false;
                        let wire = if corrupted {
                            corrupt_attempt(&att)
                        } else {
                            att
                        };
                        frames.push(ProofFrame {
                            arrival,
                            attempt: wire.clone(),
                            corrupted,
                        });
                        if duplicated {
                            frames.push(ProofFrame {
                                arrival: ProofChannel::duplicate_arrival(arrival),
                                attempt: wire.clone(),
                                corrupted,
                            });
                        }
                        if corrupted {
                            match wire {
                                // The proxy answers DecryptFailed: the
                                // client abandons 0-RTT and falls back.
                                AuthAttempt::ZeroRtt(_) => DeliveryResult::Rejected(
                                    fiat_core::pipeline::AuthError::Transport(
                                        QuicError::DecryptFailed,
                                    ),
                                ),
                                // No decryptable frame, no ack: a 1-RTT
                                // corruption looks like loss client-side.
                                AuthAttempt::OneRtt(_) => {
                                    prev_lost = true;
                                    DeliveryResult::Lost
                                }
                            }
                        } else {
                            DeliveryResult::Verified(true)
                        }
                    }
                }
            },
        );
        ProofPlan {
            frames,
            outcome: Some(outcome),
            sensor_blocked: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultKind, FaultPlan};
    use fiat_core::{FiatProxy, ProxyConfig};
    use fiat_sensors::HumannessValidator;
    use fiat_simnet::LatencyProfile;

    const SECRET: [u8; 32] = [0x42; 32];

    fn paired(seed: u64) -> (FiatApp, FiatProxy) {
        let validator = HumannessValidator::with_operating_point(1.0, 1.0, 0);
        let mut proxy = FiatProxy::new(ProxyConfig::default(), &SECRET, validator);
        let mut app = FiatApp::new(&SECRET, seed);
        let ch = app.handshake_request();
        let sh = proxy.accept_handshake(&ch);
        app.complete_handshake(&sh).unwrap();
        (app, proxy)
    }

    fn imu(seed: u64) -> ImuTrace {
        ImuTrace::synthesize(MotionKind::HumanTouch, 500, seed)
    }

    #[test]
    fn lossless_channel_delivers_in_one_attempt() {
        let (app, _proxy) = paired(1);
        let mut client = ResilientClient::new(app);
        let mut ch = ProofChannel::new(FaultPlan::none(2), LatencyProfile::lan_wifi());
        let plan = client.plan_proof(
            &mut ch,
            SimTime::from_secs(100),
            "iot.app",
            &imu(3),
            MotionKind::HumanTouch,
        );
        let outcome = plan.outcome.unwrap();
        assert!(outcome.verified);
        assert_eq!(outcome.attempts, 1);
        assert_eq!(plan.frames.len(), 1);
        assert!(!plan.frames[0].corrupted);
        assert!(plan.first_clean_arrival().unwrap() >= SimTime::from_secs(100));
    }

    #[test]
    fn total_loss_exhausts_retries_with_no_arrivals() {
        let (app, _proxy) = paired(2);
        let mut client = ResilientClient::new(app);
        let plan_cfg = FaultPlan::with_rates(3, 1.0, 0.0, 0.0, 0.0);
        let mut ch = ProofChannel::new(plan_cfg, LatencyProfile::lan_wifi());
        let plan = client.plan_proof(
            &mut ch,
            SimTime::from_secs(5),
            "iot.app",
            &imu(4),
            MotionKind::HumanTouch,
        );
        let outcome = plan.outcome.unwrap();
        assert!(!outcome.verified);
        assert_eq!(outcome.attempts, RetryPolicy::default().max_attempts);
        assert!(plan.frames.is_empty());
        assert!(plan.first_clean_arrival().is_none());
    }

    #[test]
    fn corruption_falls_back_to_one_rtt_then_keeps_retrying() {
        let (app, _proxy) = paired(3);
        let mut client = ResilientClient::new(app);
        // Every frame corrupted: 0-RTT attempt falls back, 1-RTT
        // corruptions read as losses, the loop runs to exhaustion and
        // every arrived frame is a mutant.
        let plan_cfg = FaultPlan::with_rates(4, 0.0, 0.0, 0.0, 1.0);
        let mut ch = ProofChannel::new(plan_cfg, LatencyProfile::lan_wifi());
        let plan = client.plan_proof(
            &mut ch,
            SimTime::from_secs(9),
            "iot.app",
            &imu(5),
            MotionKind::HumanTouch,
        );
        let outcome = plan.outcome.unwrap();
        assert!(!outcome.verified);
        assert!(outcome.fell_back, "corrupted 0-RTT must trigger fallback");
        assert_eq!(outcome.attempts, RetryPolicy::default().max_attempts);
        assert_eq!(plan.frames.len(), outcome.attempts as usize);
        assert!(plan.frames.iter().all(|f| f.corrupted));
        assert!(matches!(plan.frames[0].attempt, AuthAttempt::ZeroRtt(_)));
        assert!(matches!(plan.frames[1].attempt, AuthAttempt::OneRtt(_)));
        assert!(plan.first_clean_arrival().is_none());
    }

    #[test]
    fn retries_outlast_a_short_offline_window() {
        let (app, _proxy) = paired(4);
        let mut client = ResilientClient::new(app);
        let start = SimTime::from_secs(50);
        let mut plan_cfg = FaultPlan::none(5);
        // Offline for 1 s from proof start: the first attempts vanish,
        // the backoff schedule walks out of the window, the proof lands.
        plan_cfg.offline = vec![(start, start + SimDuration::from_secs(1))];
        let mut ch = ProofChannel::new(plan_cfg, LatencyProfile::lan_wifi());
        let plan = client.plan_proof(&mut ch, start, "iot.app", &imu(6), MotionKind::HumanTouch);
        let outcome = plan.outcome.unwrap();
        assert!(outcome.verified, "backoff must outlast the window");
        assert!(outcome.attempts > 1);
        assert_eq!(plan.frames.len(), 1);
        let arrival = plan.first_clean_arrival().unwrap();
        assert!(arrival > start + SimDuration::from_secs(1));
        assert!(ch.plan.count(FaultKind::Offline) as u32 == outcome.attempts - 1);
    }

    #[test]
    fn without_retries_a_single_loss_is_fatal() {
        let (app, _proxy) = paired(5);
        let mut client = ResilientClient::without_retries(app);
        let plan_cfg = FaultPlan::with_rates(6, 1.0, 0.0, 0.0, 0.0);
        let mut ch = ProofChannel::new(plan_cfg, LatencyProfile::lan_wifi());
        let plan = client.plan_proof(
            &mut ch,
            SimTime::from_secs(7),
            "iot.app",
            &imu(7),
            MotionKind::HumanTouch,
        );
        let outcome = plan.outcome.unwrap();
        assert!(!outcome.verified);
        assert_eq!(outcome.attempts, 1);
        assert!(plan.frames.is_empty());
    }

    #[test]
    fn sensor_unavailable_seals_nothing() {
        let (app, _proxy) = paired(6);
        let mut client = ResilientClient::new(app);
        let start = SimTime::from_secs(30);
        let mut plan_cfg = FaultPlan::none(8);
        plan_cfg.sensor_unavailable = vec![(start, start + SimDuration::from_secs(10))];
        let mut ch = ProofChannel::new(plan_cfg, LatencyProfile::lan_wifi());
        let plan = client.plan_proof(&mut ch, start, "iot.app", &imu(8), MotionKind::HumanTouch);
        assert!(plan.sensor_blocked);
        assert!(plan.outcome.is_none());
        assert!(plan.frames.is_empty());
        assert_eq!(ch.plan.count(FaultKind::SensorUnavailable), 1);
    }

    #[test]
    fn planned_frames_verify_at_the_real_proxy_in_arrival_order() {
        let (app, mut proxy) = paired(7);
        let mut client = ResilientClient::new(app);
        let mut ch = ProofChannel::new(
            FaultPlan::with_rates(9, 0.3, 0.2, 0.3, 0.1),
            LatencyProfile::lte(),
        );
        let mut verified = 0u32;
        for i in 0..20u64 {
            let start = SimTime::from_secs(100 + i * 60);
            let plan =
                client.plan_proof(&mut ch, start, "iot.app", &imu(i), MotionKind::HumanTouch);
            let mut frames: Vec<_> = plan.frames.iter().collect();
            frames.sort_by_key(|f| f.arrival);
            let mut ok = false;
            for f in frames {
                let r = match &f.attempt {
                    AuthAttempt::ZeroRtt(z) => proxy.on_auth_zero_rtt(z, f.arrival),
                    AuthAttempt::OneRtt(p) => proxy.on_auth_one_rtt(p, f.arrival),
                };
                match r {
                    Ok(v) => ok |= v,
                    Err(_) => assert!(
                        f.corrupted || plan.frames.len() > 1,
                        "clean singleton frames must verify"
                    ),
                }
            }
            if plan.outcome.unwrap().verified {
                assert!(ok, "client-verified exchange must verify at the proxy");
            }
            verified += u32::from(ok);
        }
        assert!(verified > 10, "most exchanges should land: {verified}");
    }
}
