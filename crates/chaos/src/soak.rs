//! Chaos soak: the 10-device testbed driven through a faulty proof
//! channel, measuring graceful degradation of the decision path.
//!
//! One soak run generates the paper's device matrix, plans a humanness
//! proof for every genuine post-bootstrap manual event (the user touches
//! the phone just before the command), pushes each proof through the
//! [`ProofChannel`] with the configured fault rates, and then drives the
//! real [`FiatProxy`] with proofs and packets merged in arrival order.
//! Held packets drain through [`FiatProxy::take_quarantine_releases`]
//! and the [`ManualLedger`] credits them back to their events. Device
//! packets go to [`FiatProxy::on_packet`] unfaulted, so every fault the
//! report counts met a proof frame or blocked one (sensor outage).
//!
//! The headline number is **false drops**: genuine manual events that
//! lost packets *despite an eventually-delivered proof*. With retries at
//! the default quarantine deadline this must be zero — the retry
//! schedule (≈5.3 s worst case) fits inside the 10 s deadline, so a
//! delivered proof always lands before the quarantine gives up. Events
//! whose proof never arrived at all (exhausted retries, offline window,
//! sensor outage) count separately as **unproven drops**; that number
//! growing when retries are disabled is the degradation the harness
//! exists to demonstrate.

use crate::channel::ProofChannel;
use crate::fault::{FaultPlan, FAULT_KINDS};
use crate::ledger::ManualLedger;
use crate::resilient::{ProofFrame, ResilientClient};
use fiat_core::{AuthAttempt, EventClassifier, FiatApp, FiatProxy, ProxyConfig, ProxyStats};
use fiat_net::{SimDuration, SimTime};
use fiat_sensors::{HumannessValidator, ImuTrace, MotionKind};
use fiat_simnet::LatencyProfile;
use fiat_trace::{TestbedConfig, TestbedTrace};

/// Pairing-ceremony secret shared by the soak's proxy and app.
const SECRET: [u8; 32] = [0x6b; 32];

/// One soak cell's configuration.
#[derive(Debug, Clone, Copy)]
pub struct SoakConfig {
    /// Master seed (trace, chaos, and client jitter all derive from it).
    pub seed: u64,
    /// Scale the capture down for smoke tests.
    pub quick: bool,
    /// Proof-channel loss rate; duplicate/corrupt/delay rates derive
    /// from it (½×, ¼×, and a fixed 15%).
    pub loss: f64,
    /// Base one-way latency of the proof channel.
    pub latency: LatencyProfile,
    /// Whether the client retries (false = degradation baseline).
    pub retries: bool,
    /// Quarantine proof deadline handed to the proxy.
    pub proof_deadline: SimDuration,
    /// Inject a phone-offline window and a sensor-unavailable window.
    pub windows: bool,
}

impl SoakConfig {
    /// The default cell: 5% loss on home WiFi, retries on, 10 s
    /// deadline, chaos windows enabled.
    pub fn new(seed: u64, quick: bool) -> Self {
        SoakConfig {
            seed,
            quick,
            loss: 0.05,
            latency: LatencyProfile::lan_wifi(),
            retries: true,
            proof_deadline: SimDuration::from_secs(10),
            windows: true,
        }
    }
}

/// Aggregate result of one soak cell.
#[derive(Debug, Clone)]
pub struct SoakReport {
    /// Packets driven through the proxy.
    pub packets: u64,
    /// Genuine post-bootstrap manual events (each gets a proof attempt).
    pub manual_events: u64,
    /// Events whose proof verified at the proxy.
    pub proofs_delivered: u64,
    /// Events that lost packets despite a delivered proof (must be 0
    /// with retries at the default deadline).
    pub false_drops: u64,
    /// Events that lost packets because their proof never arrived.
    pub unproven_drops: u64,
    /// Events whose proof was never even sealed (sensor outage).
    pub sensor_blocked: u64,
    /// Proof delivery attempts beyond the first.
    pub retries: u64,
    /// Exchanges that fell back from 0-RTT to 1-RTT.
    pub fell_back: u64,
    /// Faults the proof channel injected, by kind.
    pub faults: Vec<(&'static str, u64)>,
    /// Final proxy counters (quarantine held/released/expired included).
    pub stats: ProxyStats,
}

impl SoakReport {
    /// Total injected faults.
    pub fn total_faults(&self) -> u64 {
        self.faults.iter().map(|&(_, n)| n).sum()
    }

    /// Events that lost at least one packet, proof or no proof.
    pub fn dropped_events(&self) -> u64 {
        self.false_drops + self.unproven_drops
    }
}

/// Hand one arrived proof frame for event `idx` to the proxy and settle
/// it in the ledger.
fn deliver(proxy: &mut FiatProxy, ledger: &mut ManualLedger, idx: usize, frame: &ProofFrame) {
    let r = match &frame.attempt {
        AuthAttempt::ZeroRtt(z) => proxy.on_auth_zero_rtt(z, frame.arrival),
        AuthAttempt::OneRtt(p) => proxy.on_auth_one_rtt(p, frame.arrival),
    };
    ledger.on_proof(proxy, idx, matches!(r, Ok(true)));
}

/// Run one soak cell. Fully deterministic per [`SoakConfig`].
pub fn run_soak(cfg: &SoakConfig) -> SoakReport {
    let days = if cfg.quick { 0.022 } else { 0.06 };
    let tb = TestbedTrace::generate(TestbedConfig {
        days,
        manual_per_day: 60.0,
        routines_per_day: 30.0,
        seed: cfg.seed,
        ..Default::default()
    });
    let config = ProxyConfig {
        bootstrap: SimDuration::from_mins(10),
        proof_deadline: Some(cfg.proof_deadline),
        ..Default::default()
    };
    let boot_end = SimTime::ZERO + config.bootstrap;
    let span_end = tb.trace.packets.last().map_or(boot_end, |p| p.ts);

    // The real proxy: perfect validator (the soak studies delivery
    // timing, not validator noise), simple-rule classifiers as in the
    // oracle fuzzer.
    let validator = HumannessValidator::with_operating_point(1.0, 1.0, 0);
    let mut proxy = FiatProxy::new(config.clone(), &SECRET, validator);
    for (i, d) in tb.devices.iter().enumerate() {
        proxy.register_device(
            i as u16,
            EventClassifier::simple_rule(d.command_size().unwrap_or(0)),
            d.min_packets_to_complete,
        );
    }
    proxy.set_dns(tb.trace.dns.clone());
    proxy.start(SimTime::ZERO);

    // The faulty proof channel. Offline and sensor windows sit in the
    // post-bootstrap half of the capture so they actually intersect
    // proof attempts.
    let mut plan = FaultPlan::with_rates(
        cfg.seed ^ 0xc2b2_ae35,
        cfg.loss,
        cfg.loss / 2.0,
        0.15,
        cfg.loss / 4.0,
    );
    plan.delay = LatencyProfile::from_millis(50, 400);
    if cfg.windows {
        let span = span_end.as_micros().saturating_sub(boot_end.as_micros());
        let off0 = boot_end + SimDuration::from_micros(span / 2);
        let sense0 = boot_end + SimDuration::from_micros(span * 3 / 4);
        plan.offline = vec![(off0, off0 + SimDuration::from_secs(45))];
        plan.sensor_unavailable = vec![(sense0, sense0 + SimDuration::from_secs(30))];
    }
    let mut channel = ProofChannel::new(plan, cfg.latency);

    // The phone: one handshake, then a proof exchange per manual event.
    let mut app = FiatApp::new(&SECRET, cfg.seed ^ 0x9e3779b9);
    let ch = app.handshake_request();
    let sh = proxy.accept_handshake(&ch);
    app.complete_handshake(&sh).expect("soak handshake");
    let mut client = if cfg.retries {
        ResilientClient::new(app)
    } else {
        ResilientClient::without_retries(app)
    };
    let imu = ImuTrace::synthesize(MotionKind::HumanTouch, 500, cfg.seed ^ 0x51);

    // Plan every proof up front (frames carry true arrival times; the
    // proxy only sees them once the merge reaches those times).
    let mut ledger = ManualLedger::new(&tb.events, boot_end);
    let mut frames: Vec<(usize, ProofFrame)> = Vec::new();
    let mut retries_spent = 0u64;
    let mut fell_back = 0u64;
    let mut sensor_blocked = 0u64;
    for (idx, ev) in ledger.events().iter().enumerate() {
        let plan = client.plan_proof(
            &mut channel,
            ev.proof_at(),
            "iot.app",
            &imu,
            MotionKind::HumanTouch,
        );
        if plan.sensor_blocked {
            sensor_blocked += 1;
        }
        if let Some(o) = plan.outcome {
            retries_spent += u64::from(o.attempts.saturating_sub(1));
            fell_back += u64::from(o.fell_back);
        }
        frames.extend(plan.frames.into_iter().map(|f| (idx, f)));
    }
    frames.sort_by_key(|(idx, f)| (f.arrival, *idx));

    // Merge: proofs and packets in global time order.
    let mut frames = frames.into_iter().peekable();
    let mut packets = 0u64;
    for pkt in &tb.trace.packets {
        while let Some((idx, f)) = frames.next_if(|(_, f)| f.arrival <= pkt.ts) {
            deliver(&mut proxy, &mut ledger, idx, &f);
        }
        let d = proxy.on_packet(pkt);
        packets += 1;
        ledger.on_decision(pkt, d);
    }
    for (idx, f) in frames {
        deliver(&mut proxy, &mut ledger, idx, &f);
    }
    // Trailing flush well past the deadline expires every straggler.
    proxy.flush(span_end + cfg.proof_deadline + config.event_gap * 3);

    let tally = ledger.tally();

    let faults: Vec<(&'static str, u64)> = FAULT_KINDS
        .iter()
        .map(|&k| (k.as_str(), channel.plan.count(k)))
        .collect();

    SoakReport {
        packets,
        manual_events: ledger.events().len() as u64,
        proofs_delivered: tally.verified,
        false_drops: tally.false_drops,
        unproven_drops: tally.unproven_drops,
        sensor_blocked,
        retries: retries_spent,
        fell_back,
        faults,
        stats: proxy.stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_soak_at_default_loss_has_zero_false_drops() {
        // The acceptance bar: 5% proof-channel loss, retries on, 10 s
        // deadline — every delivered proof beats the deadline, so no
        // genuine manual event may lose packets.
        let report = run_soak(&SoakConfig::new(42, true));
        assert!(report.manual_events > 3, "need events: {report:?}");
        assert_eq!(report.false_drops, 0, "{report:?}");
        assert!(report.proofs_delivered > 0);
        assert!(report.total_faults() > 0, "chaos must actually fire");
    }

    #[test]
    fn faults_count_only_what_the_proof_channel_injected() {
        // Each proof transmission records at most three faults (delay,
        // corrupt, duplicate) or one loss, and each sensor-blocked event
        // records one. Anything beyond that bound was injected somewhere
        // no proof ever travelled.
        let r = run_soak(&SoakConfig::new(42, true));
        let transmissions = r.manual_events - r.sensor_blocked + r.retries;
        let bound = 3 * transmissions + r.sensor_blocked;
        assert!(
            r.total_faults() <= bound,
            "{} > {bound}: {r:?}",
            r.total_faults()
        );
    }

    #[test]
    fn disabling_retries_degrades_delivery() {
        let on = run_soak(&SoakConfig::new(42, true));
        let off = run_soak(&SoakConfig {
            retries: false,
            ..SoakConfig::new(42, true)
        });
        assert!(
            off.proofs_delivered < on.proofs_delivered
                || off.dropped_events() > on.dropped_events(),
            "no-retry leg must be measurably worse: on {on:?} off {off:?}"
        );
        assert_eq!(off.retries, 0);
    }

    #[test]
    fn zero_loss_run_is_clean() {
        let cfg = SoakConfig {
            loss: 0.0,
            windows: false,
            ..SoakConfig::new(7, true)
        };
        let report = run_soak(&cfg);
        assert_eq!(report.false_drops, 0);
        assert_eq!(report.unproven_drops, 0);
        assert_eq!(report.retries, 0);
        assert_eq!(report.manual_events, report.proofs_delivered);
    }

    #[test]
    fn soak_is_deterministic_per_seed() {
        let a = run_soak(&SoakConfig::new(3, true));
        let b = run_soak(&SoakConfig::new(3, true));
        assert_eq!(a.packets, b.packets);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.false_drops, b.false_drops);
        assert_eq!(a.unproven_drops, b.unproven_drops);
    }
}
