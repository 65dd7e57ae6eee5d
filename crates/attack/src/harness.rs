//! The red-team harness: one strategy, one live proxy, one scored run.
//!
//! A run rebuilds the whole stack from scratch — a fresh [`FiatProxy`]
//! with default (production) settings, the target device's real traffic
//! model from the Table 1 testbed, and every packet handed straight to
//! [`FiatProxy::on_packet`]. The timeline is:
//!
//! 1. **Bootstrap** (20 min): the device's periodic control flows run;
//!    the proxy learns its allow rules. Strategies may inject here
//!    (rule poisoning).
//! 2. **Legitimate use**: the paired app performs a 0-RTT authorization
//!    (the attacker sniffs and keeps the ciphertext) and issues one real
//!    command inside the humanness window.
//! 3. **Attack window**: the strategy's plan plays out, interleaved with
//!    the continuing background flows.
//!
//! Scoring: the attacker's command *completes* iff at least
//! `min_packets_to_complete` attack packets are delivered in one
//! contiguous run (inter-packet gaps below the event gap) starting at or
//! after the attack window opens — fragments separated by silence do not
//! assemble, and bootstrap-phase groundwork does not count as a command.
//! A [`AttackVerdict::Detected`] verdict means the attack left tamper
//! evidence that [`verify_chain`] caught on the exported audit log: its
//! entries, edited by the attacker, no longer chain to its head.
//!
//! Determinism: every randomness source is seeded from the run seed, no
//! wall-clock time is read, and packets and control events merge into
//! one script by a stable sort on `(time, kind)` — the same
//! `(strategy, device, seed)` triple always yields the identical
//! [`AttackOutcome`].

use crate::scorecard::{AttackOutcome, AttackVerdict};
use crate::strategies::{AttackAction, AttackStrategy, Recon};
use fiat_core::audit::{verify_chain, AuditEntry, AuditVerdict};
use fiat_core::{AllowReason, EventClassifier, FiatApp, FiatProxy, ProxyConfig, ProxyDecision};
use fiat_fingerprint::{FingerprintEngine, MatcherConfig, SignatureSet};
use fiat_net::{PacketRecord, SimDuration, SimTime, Trace};
use fiat_quic::ZeroRttPacket;
use fiat_sensors::{HumannessValidator, ImuTrace, MotionKind};
use fiat_trace::{fingerprint_corpus, testbed_devices, DeviceModel, Location};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Pairing secret shared by the harness's proxy and app (any value; the
/// attacker never learns it).
const SECRET: [u8; 32] = [0x5A; 32];

/// Attack window length after the legitimate command.
const ATTACK_WINDOW: SimDuration = SimDuration::from_secs(480);

/// Delay from bootstrap end to the legitimate authorization.
const LEGIT_DELAY: SimDuration = SimDuration::from_secs(60);

/// Delay from the legitimate command to the attack window opening (the
/// humanness window is long closed by then).
const ATTACK_DELAY: SimDuration = SimDuration::from_secs(120);

/// One entry of a run's script. On equal timestamps steps run in
/// declaration order, so control events precede the packets they gate.
enum Step {
    /// The paired app's 0-RTT authorization the attacker sniffs.
    LegitAuth,
    /// Rotate the ticket epoch and retire every older one.
    Rotate,
    /// Replay the sniffed authorization, or the withheld one if `stale`.
    Replay {
        /// Replay the withheld capture instead of the sniffed one.
        stale: bool,
    },
    /// Operator clears the device's lockout.
    ClearLockout,
    /// A packet for the proxy; `true` marks the attacker's.
    Packet(PacketRecord, bool),
}

impl Step {
    fn rank(&self) -> u8 {
        match self {
            Step::LegitAuth => 0,
            Step::Rotate => 1,
            Step::Replay { stale } => 2 + u8::from(*stale),
            Step::ClearLockout => 4,
            Step::Packet(..) => 5,
        }
    }
}

/// Configuration of one harness run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Target device index in [`testbed_devices`] order.
    pub device: u16,
    /// Run seed; drives background jitter, auth randomness, and the
    /// strategy's plan.
    pub seed: u64,
}

/// Execute one strategy against one device; returns the scored outcome.
pub fn run_attack(strategy: &dyn AttackStrategy, config: &RunConfig) -> AttackOutcome {
    let devices = testbed_devices();
    let dev = &devices[config.device as usize];
    let proxy_config = strategy.config(ProxyConfig::default());
    let location = Location::Us;

    // --- Background: the device's periodic control flows for the whole
    // run. Events are deliberately absent: every event-path action in
    // the run is attributable to either the one legitimate command or
    // the attacker.
    let bootstrap_end = SimTime::ZERO + proxy_config.bootstrap;
    let legit_at = bootstrap_end + LEGIT_DELAY;
    let attack_start = legit_at + ATTACK_DELAY;
    let attack_end = attack_start + ATTACK_WINDOW;
    let duration = attack_end - SimTime::ZERO;

    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut trace = Trace::new();
    dev.emit_control(&mut trace, config.device, location, duration, &mut rng);
    trace.finish();

    // --- The proxy under attack, in production configuration. The
    // classifier is the ideal size rule for the device's command
    // signature: this isolates the decision path's defenses from
    // classifier accuracy, which the table6 experiment measures.
    let command_size = dev
        .command_size()
        .expect("testbed devices model manual commands");
    let validator = HumannessValidator::with_operating_point(1.0, 1.0, 0);
    let mut proxy = FiatProxy::new(proxy_config.clone(), &SECRET, validator);
    proxy.register_device(
        config.device,
        EventClassifier::simple_rule(command_size),
        dev.min_packets_to_complete,
    );
    // Strategies that switch on the fingerprint gate get a trained
    // engine, with the training corpus's DNS vocabulary merged so
    // claimed classes resolve.
    let mut dns = trace.dns.clone();
    if proxy_config.fingerprint_unknown {
        let corpus = fingerprint_corpus(config.seed);
        for (_, t) in &corpus {
            dns.merge(&t.dns);
        }
        let matcher = MatcherConfig::default();
        let sigs = SignatureSet::learn(&corpus, matcher.evidence_window);
        proxy.set_fingerprinter(Box::new(FingerprintEngine::new(sigs, matcher)));
    }
    proxy.set_dns(dns);
    proxy.start(SimTime::ZERO);

    // --- The paired app: handshake during bootstrap, one 0-RTT
    // authorization + command after it. The attacker sniffs the auth
    // ciphertext off the air.
    let mut app = FiatApp::new(&SECRET, config.seed);
    let ch = app.handshake_request();
    let sh = proxy.accept_handshake(&ch);
    app.complete_handshake(&sh).expect("handshake");
    let imu = ImuTrace::synthesize(MotionKind::HumanTouch, 500, config.seed);
    let sniffed: ZeroRttPacket = app
        .authorize_zero_rtt(
            "iot.app",
            &imu,
            MotionKind::HumanTouch,
            legit_at.as_micros(),
        )
        .expect("0-RTT authorization");
    // A second authorization the on-path attacker intercepts and drops:
    // its nonce never reaches the proxy, so the capture stays fresh in
    // the replay store. Only the epoch lifecycle can invalidate it
    // (the stale-epoch-replay strategy's target).
    let withheld: ZeroRttPacket = app
        .authorize_zero_rtt(
            "iot.app",
            &imu,
            MotionKind::HumanTouch,
            legit_at.as_micros() + 1_000,
        )
        .expect("0-RTT authorization");

    // The recon the strategy plans from.
    let relay_ip = location.cloud_ip(dev.endpoint_base + 40, 0);
    let rule_flow = dev
        .control_flows
        .iter()
        .enumerate()
        .find(|(_, f)| f.period >= SimDuration::from_secs(1))
        .or_else(|| dev.control_flows.iter().enumerate().next())
        .expect("testbed devices have control flows");
    let recon = Recon {
        device: config.device,
        device_name: dev.name.clone(),
        lan_ip: DeviceModel::lan_ip(config.device),
        relay_ip,
        command_size,
        min_packets: dev.min_packets_to_complete,
        classify_at: dev
            .min_packets_to_complete
            .min(proxy_config.classify_at_cap)
            .max(1),
        rule_size: rule_flow.1.size,
        rule_ip: location.cloud_ip(dev.endpoint_base + rule_flow.0 as u16, 0),
        rule_direction: rule_flow.1.direction,
        rule_transport: rule_flow.1.transport,
        rule_tls: rule_flow.1.tls,
        bootstrap_start: SimTime::ZERO,
        bootstrap_end,
        attack_start,
        attack_end,
        event_gap: proxy_config.event_gap,
        lockout_threshold: proxy_config.lockout_threshold,
        lockout_window: proxy_config.lockout_window,
    };

    let mut plan_rng = StdRng::seed_from_u64(config.seed ^ 0x4154_5441_434b);
    let plan = strategy.plan(&recon, &mut plan_rng);

    // --- One script for the whole run: background, the legitimate
    // command and attack packets, plus the scheduled control events.
    // Packets enter in a fixed order and the stable sort keeps it on
    // timestamp ties; a control event runs before any packet at or after
    // its time, and control events due together run in `Step` order.
    let mut script: Vec<(SimTime, Step)> = Vec::new();
    for p in &trace.packets {
        script.push((p.ts, Step::Packet(p.clone(), false)));
    }
    let mut t = legit_at + SimDuration::from_millis(500);
    for _ in 0..dev.min_packets_to_complete {
        let mut p = recon.command_packet(t);
        p.local_port = 49_800; // the real app's flow, not the attacker's
        script.push((t, Step::Packet(p, false)));
        t += SimDuration::from_millis(100);
    }
    script.push((legit_at, Step::LegitAuth));
    let mut tamper = false;
    for action in plan {
        match action {
            AttackAction::Inject(p) => script.push((p.ts, Step::Packet(p, true))),
            AttackAction::RotateEpochs { at } => script.push((at, Step::Rotate)),
            AttackAction::ReplayAuth { at } => script.push((at, Step::Replay { stale: false })),
            AttackAction::ReplayStaleAuth { at } => script.push((at, Step::Replay { stale: true })),
            AttackAction::ClearLockout { at } => script.push((at, Step::ClearLockout)),
            AttackAction::TamperAudit => tamper = true,
        }
    }
    script.sort_by_key(|(at, step)| (*at, step.rank()));

    // --- Play the script against the proxy.
    let mut injected = 0u64;
    let mut delivered = 0u64;
    let mut dropped = 0u64;
    let mut rule_hits = 0u64;
    let mut replays_rejected = 0u64;
    let mut replay_opened_window = false;
    let mut time_to_block_ms: Option<u64> = None;
    let mut run_len = 0usize;
    let mut last_delivered: Option<SimTime> = None;
    let mut completed = false;
    for (at, step) in script {
        match step {
            Step::LegitAuth => {
                let ok = proxy
                    .on_auth_zero_rtt(&sniffed, at)
                    .expect("legitimate authorization accepted");
                debug_assert!(ok, "perfect validator verifies the human");
            }
            Step::Rotate => {
                // The scheduled key lifecycle: rotate the issuing epoch
                // and retire everything older, exactly as fiat-control's
                // manager does between its bounded-window ticks.
                proxy.rotate_ticket_epoch();
                let newest = proxy.ticket_epoch();
                proxy.retire_ticket_epochs_below(newest);
            }
            Step::Replay { stale } => {
                let capture = if stale { &withheld } else { &sniffed };
                match proxy.on_auth_zero_rtt(capture, at) {
                    Err(_) => replays_rejected += 1,
                    Ok(verified) => replay_opened_window |= verified,
                }
            }
            Step::ClearLockout => proxy.clear_lockout(config.device),
            Step::Packet(pkt, false) => {
                proxy.on_packet(&pkt);
            }
            Step::Packet(pkt, true) => {
                injected += 1;
                let decision = proxy.on_packet(&pkt);
                if decision.is_allow() {
                    delivered += 1;
                    if decision == ProxyDecision::Allow(AllowReason::RuleHit) {
                        rule_hits += 1;
                    }
                    if pkt.ts >= attack_start {
                        let contiguous = last_delivered
                            .is_some_and(|prev| pkt.ts - prev < proxy_config.event_gap);
                        run_len = if contiguous { run_len + 1 } else { 1 };
                        last_delivered = Some(pkt.ts);
                        completed |= run_len >= dev.min_packets_to_complete;
                    }
                } else {
                    dropped += 1;
                    if time_to_block_ms.is_none() && pkt.ts >= attack_start {
                        time_to_block_ms = Some((pkt.ts - attack_start).as_millis());
                    }
                }
            }
        }
    }
    // Close the attacker's last fragment, as a live proxy's idle sweep
    // would.
    proxy.flush(attack_end);

    // --- Audit tampering: export (entries, head), rewrite the first
    // incriminating drop into an allow, and re-verify like the companion
    // app would.
    let mut detected = false;
    if tamper {
        let audit = proxy.audit();
        let mut entries: Vec<AuditEntry> = audit.entries().to_vec();
        let target = entries.iter().position(|e| {
            e.device == config.device && e.verdict == AuditVerdict::DroppedUnverified
        });
        if let Some(i) = target {
            entries[i].verdict = AuditVerdict::AllowedManualVerified;
        } else if !entries.is_empty() {
            // Nothing incriminating to rewrite: hide the newest record.
            entries.pop();
        }
        detected = !verify_chain(audit.checkpoint().as_ref(), &entries, audit.head());
    }

    // The fingerprint gate's sealed quarantine/spoof verdicts are
    // detection evidence: on an N = 1 device the single command may slip
    // through the provisional evidence window, but the spoofer is
    // flagged in the audit trail and every later packet drops.
    let fingerprint_flagged = proxy.audit().entries().iter().any(|e| {
        matches!(
            e.verdict,
            AuditVerdict::SpoofSuspected | AuditVerdict::UnknownQuarantined
        )
    });

    let stats = proxy.stats();
    let verdict = if tamper {
        if detected {
            AttackVerdict::Detected
        } else {
            AttackVerdict::Allowed
        }
    } else if completed || replay_opened_window {
        if fingerprint_flagged {
            AttackVerdict::Detected
        } else {
            AttackVerdict::Allowed
        }
    } else {
        AttackVerdict::Blocked
    };

    AttackOutcome {
        strategy: strategy.name().to_string(),
        defense: strategy.defense().to_string(),
        device: config.device,
        device_name: dev.name.clone(),
        verdict,
        injected,
        delivered,
        dropped,
        rule_hits,
        replays_rejected,
        lockout_episodes: proxy.telemetry().lockout_count(),
        retro_episodes: stats.retro_unverified,
        time_to_block_ms,
        completed,
    }
}
