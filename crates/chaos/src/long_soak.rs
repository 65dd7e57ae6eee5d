//! Long-horizon streaming soak under a hard memory budget (ROADMAP 5,
//! DESIGN §18).
//!
//! The chaos soak ([`crate::soak`]) proves the proof-delivery path
//! degrades gracefully over *hours*. This harness asks the other
//! longevity question: does per-home proxy state stay **bounded** over
//! *weeks*? A home gateway runs for months; any state machine without a
//! ceiling — the rule table, quarantine records, the audit chain, the
//! 0-RTT replay window — eventually evicts something that matters or
//! OOMs the box.
//!
//! Design:
//!
//! - **Streamed, never materialized.** Each home's traffic is generated
//!   one simulated day at a time ([`HomeSim::run_day`]) and fed straight
//!   into a real [`FiatProxy`]; no multi-week trace ever exists in
//!   memory, so the harness itself obeys the budget it enforces.
//! - **Adversarial schedule.** Every home runs a plug issuing proofed
//!   manual commands (the zero-false-drop canary), a sensor with a
//!   learned periodic rule (the eviction-costs-latency-not-drops
//!   canary), a hostile device that floods qualifying flow keys during
//!   bootstrap (rule-cap pressure) and revisits evicted flows after it
//!   (ghost re-learn churn) while cycling fresh keys forever (audit
//!   growth), and five guests whose unproven manual events pile up
//!   concurrent quarantine records past the record cap (demotion).
//! - **State accountant.** [`FiatProxy::state_size`] is sampled twice a
//!   simulated day (mid-quarantine-storm and end-of-day) and asserted
//!   against [`LongSoakConfig::budget`] and folded into the report's
//!   per-surface high-water marks ([`LongSoakReport::hwm`]): the worst
//!   home in the fleet.
//! - **Snapshot-replay leg.** Every Nth home is snapshotted mid-soak,
//!   serialized, restored, and driven in lockstep with the original to
//!   the end; any decision mismatch or final-state byte difference is a
//!   determinism regression.
//! - **Negative control.** [`LongSoakConfig::negative`] disables every
//!   cap; the same budget must then *breach* — proving the accountant
//!   can actually see the unbounded growth the caps exist to stop.
//!
//! Epoch hygiene rides along: ticket epochs rotate weekly, the client
//! re-handshakes, and retired epochs drop their replay entries, so the
//! replay window is bounded by churn, not by uptime.

use fiat_core::pipeline::ProxyTelemetry;
use fiat_core::{
    EventClassifier, FiatApp, FiatProxy, ProxyConfig, ProxyDecision, ProxyStats, StateSize,
};
use fiat_fingerprint::{FingerprintEngine, MatcherConfig, SignatureSet};
use fiat_net::{
    Direction, PacketRecord, SimDuration, SimTime, TcpFlags, TlsVersion, TrafficClass, Transport,
};
use fiat_sensors::{HumannessValidator, ImuTrace, MotionKind};
use fiat_telemetry::{ManualClock, MetricRegistry};
use fiat_trace::fingerprint_corpus;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Pairing-ceremony secret shared by every soak home's proxy and phone.
const SECRET: [u8; 32] = [0x4c; 32];

/// Seconds per simulated day.
const DAY: u64 = 86_400;

/// Plug (device 0) manual size — the proofed, must-never-drop traffic.
const MANUAL_SIZE: u16 = 235;

/// One long-soak run's configuration.
#[derive(Debug, Clone, Copy)]
pub struct LongSoakConfig {
    /// Master seed (client jitter and IMU noise derive from it).
    pub seed: u64,
    /// Homes in the fleet, each an independent proxy + timeline.
    pub homes: u32,
    /// Simulated days per home.
    pub days: u32,
    /// Hard per-home budget on [`StateSize::total`] at every sample.
    pub budget: usize,
    /// `false` = negative-control leg: every cap disabled; the budget
    /// must then breach or the accountant is blind.
    pub capped: bool,
    /// Snapshot-replay lockstep every Nth home (0 = skip the leg).
    pub replay_every: u32,
}

impl LongSoakConfig {
    /// CI smoke scale: 500 homes × 15 days (> 2 simulated weeks).
    pub fn quick(seed: u64) -> Self {
        LongSoakConfig {
            seed,
            homes: 500,
            days: 15,
            budget: 320,
            capped: true,
            replay_every: 50,
        }
    }

    /// Full scale: 2 000 homes × 4 simulated weeks.
    pub fn full(seed: u64) -> Self {
        LongSoakConfig {
            homes: 2_000,
            days: 28,
            ..Self::quick(seed)
        }
    }

    /// Negative control: caps off, small fleet, same budget — growth
    /// (dominated by the ~31 audit entries a day the hostile schedule
    /// appends) must breach it within ten days.
    pub fn negative(seed: u64) -> Self {
        LongSoakConfig {
            homes: 16,
            days: 10,
            capped: false,
            replay_every: 0,
            ..Self::quick(seed)
        }
    }

    /// The proxy configuration this leg runs: generous-but-finite caps,
    /// or none at all for the negative control. The fingerprint gate is
    /// on in both legs — its evidence state is LRU-capped by
    /// construction, so it rides inside the budget
    /// rather than being one of the caps the negative control disables.
    pub fn proxy_config(&self) -> ProxyConfig {
        ProxyConfig {
            bootstrap: SimDuration::from_mins(10),
            proof_deadline: Some(SimDuration::from_secs(10)),
            max_rules: if self.capped { Some(8) } else { None },
            max_quarantine_records: if self.capped { Some(4) } else { None },
            max_audit_entries: if self.capped { Some(128) } else { None },
            fingerprint_unknown: true,
            ..Default::default()
        }
    }
}

/// Matcher caps for the soak's gate: at most 8 open evidence windows and
/// 16 cached verdicts, so `StateSize::fingerprint_evidence` contributes
/// a hard ≤ 24 entries to the budget no matter how many strangers visit.
fn soak_matcher() -> MatcherConfig {
    MatcherConfig {
        max_tracked: 8,
        max_sealed: 16,
        ..MatcherConfig::default()
    }
}

/// Aggregate result of one long-soak run. Fully deterministic per
/// [`LongSoakConfig`] — the bench gate compares two runs byte-for-byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LongSoakReport {
    /// Homes driven.
    pub homes: u32,
    /// Simulated days per home.
    pub days: u32,
    /// Packets decided across the fleet.
    pub packets: u64,
    /// Manual events generated (plug + guests).
    pub manual_events: u64,
    /// Humanness proofs that verified at a proxy.
    pub proofs_delivered: u64,
    /// Dropped packets on the proofed plug or the learned-rule sensor —
    /// the bounded-state policies must never cause one.
    pub false_drops: u64,
    /// The per-home budget every sample was checked against.
    pub budget: usize,
    /// State samples taken across the fleet.
    pub samples: u64,
    /// Samples whose [`StateSize::total`] exceeded the budget.
    pub budget_breaches: u64,
    /// Field-wise high-water mark across every home and sample.
    pub hwm: StateSize,
    /// Audit entries dropped by checkpointed truncation, fleet-wide.
    pub audit_truncated: u64,
    /// Audit entries ever appended, fleet-wide.
    pub audit_appended: u64,
    /// Homes that ran the snapshot-replay lockstep leg.
    pub replay_checked: u64,
    /// Per-packet decision mismatches between original and restored.
    pub replay_decision_mismatches: u64,
    /// Replay homes whose final stats or snapshot bytes diverged.
    pub replay_state_mismatches: u64,
    /// Fleet-aggregated proxy counters.
    pub stats: ProxyStats,
}

impl LongSoakReport {
    /// The pass condition the bench trailer gates on.
    pub fn passed(&self) -> bool {
        self.false_drops == 0
            && self.budget_breaches == 0
            && self.replay_decision_mismatches == 0
            && self.replay_state_mismatches == 0
    }
}

/// One scheduled action in a home's day.
enum Act {
    Pkt(PacketRecord),
    Proof(SimTime),
    Rotate,
    Sample,
}

/// One home: a real proxy plus its phone, driven a day at a time.
pub struct HomeSim {
    cfg: LongSoakConfig,
    config: ProxyConfig,
    /// Trained fingerprint signatures, kept to rebuild the shadow's gate
    /// on restore (engine state is deliberately not snapshotted).
    sigs: SignatureSet,
    proxy: FiatProxy,
    /// Restored twin driven in lockstep after [`HomeSim::begin_shadow`].
    shadow: Option<FiatProxy>,
    app: FiatApp,
    imu: ImuTrace,
    home: u32,
    /// Hostile device's distinct bootstrap flows (rule-cap pressure).
    hostile_flows: u16,
    /// Packets decided so far.
    pub packets: u64,
    /// Manual events generated so far.
    pub manual_events: u64,
    /// Proofs that verified.
    pub proofs_delivered: u64,
    /// Drops on devices 0 (proofed plug) or 1 (learned-rule sensor).
    pub false_drops: u64,
    /// Original-vs-restored decision mismatches.
    pub replay_decision_mismatches: u64,
}

fn fresh_telemetry() -> ProxyTelemetry {
    ProxyTelemetry::new(MetricRegistry::new(), Arc::new(ManualClock::new()))
}

fn perfect_validator() -> HumannessValidator {
    HumannessValidator::with_operating_point(1.0, 1.0, 0)
}

impl HomeSim {
    /// Build one home and complete its first handshake. `sigs` is the
    /// fleet-shared trained signature set for the fingerprint gate.
    pub fn new(cfg: &LongSoakConfig, home: u32, sigs: &SignatureSet) -> Self {
        let config = cfg.proxy_config();
        let mut proxy = FiatProxy::with_telemetry(
            config.clone(),
            &SECRET,
            perfect_validator(),
            fresh_telemetry(),
        );
        // Devices: 0 plug, 1 sensor, 2 hostile, 3..8 guests. All get the
        // exact-size manual classifier; only 235 B events read manual.
        for dev in 0u16..8 {
            proxy.register_device(dev, EventClassifier::simple_rule(MANUAL_SIZE), 1);
        }
        proxy.set_fingerprinter(Box::new(FingerprintEngine::new(
            sigs.clone(),
            soak_matcher(),
        )));
        proxy.start(SimTime::ZERO);
        let mut app = FiatApp::new(&SECRET, cfg.seed ^ u64::from(home).wrapping_mul(0x9e37));
        let ch = app.handshake_request();
        let sh = proxy.accept_handshake(&ch);
        app.complete_handshake(&sh).expect("soak handshake");
        let imu = ImuTrace::synthesize(MotionKind::HumanTouch, 500, cfg.seed ^ 0x51);
        HomeSim {
            cfg: *cfg,
            config,
            sigs: sigs.clone(),
            proxy,
            shadow: None,
            app,
            imu,
            home,
            hostile_flows: 20 + (home % 8) as u16,
            packets: 0,
            manual_events: 0,
            proofs_delivered: 0,
            false_drops: 0,
            replay_decision_mismatches: 0,
        }
    }

    fn pkt(
        ts: SimTime,
        device: u16,
        size: u16,
        remote_port: u16,
        label: TrafficClass,
    ) -> PacketRecord {
        PacketRecord {
            ts,
            device,
            direction: Direction::FromDevice,
            local_ip: Ipv4Addr::new(192, 168, 1, 10 + device as u8),
            remote_ip: Ipv4Addr::new(34, 0, 0, 1),
            local_port: 40_000,
            remote_port,
            transport: Transport::Tcp,
            tcp_flags: TcpFlags::ack(),
            tls: TlsVersion::None,
            size,
            label,
        }
    }

    /// One day's schedule, in time order. Deterministic per (home, day).
    fn day_script(&mut self, day: u32) -> Vec<(SimTime, Act)> {
        let base = u64::from(day) * DAY;
        let at = |s: u64| SimTime::from_secs(base + s);
        let at_ms = |ms: u64| SimTime::from_millis(base * 1_000 + ms);
        let mut acts: Vec<(SimTime, Act)> = Vec::new();

        // Weekly epoch rotation + re-handshake, before any traffic.
        if day > 0 && day.is_multiple_of(7) {
            acts.push((at(5), Act::Rotate));
        }

        // Sensor (device 1): one periodic control flow. Day 0 seeds it
        // during the 10-minute bootstrap (150 s period, qualifying);
        // afterwards it reports every 30 minutes and must keep hitting
        // its rule — or re-learn through the ghost path if the hostile
        // churn evicted it.
        if day == 0 {
            for k in 0..4u64 {
                acts.push((
                    at(k * 150),
                    Act::Pkt(Self::pkt(at(k * 150), 1, 96, 8443, TrafficClass::Control)),
                ));
            }
        }
        let first = if day == 0 { 1 } else { 0 };
        for k in first..48u64 {
            let t = at(k * 1800);
            acts.push((
                t,
                Act::Pkt(Self::pkt(t, 1, 96, 8443, TrafficClass::Control)),
            ));
        }

        // Hostile (device 2), day 0: a qualifying periodic flow per
        // distinct key — without the rule cap the learned table scales
        // with the attacker, not the home.
        if day == 0 {
            for i in 0..self.hostile_flows {
                for j in 0..4u64 {
                    let t = at(u64::from(i) * 2 + j * 90);
                    acts.push((
                        t,
                        Act::Pkt(Self::pkt(t, 2, 64 + i, 9000 + i, TrafficClass::Automated)),
                    ));
                }
            }
        }
        // Hostile, every day after bootstrap: revisit four of the
        // evicted flows on a steady 2 h cadence (ghost re-learn churn —
        // each promotion evicts some other rule), and cycle a fresh key
        // every hour (event + audit-chain growth, forever).
        for i in 12u16..16 {
            let b = 3_600 + u64::from(i - 12) * 600;
            for j in 0..3u64 {
                let t = at(b + j * 7_200);
                acts.push((
                    t,
                    Act::Pkt(Self::pkt(t, 2, 64 + i, 9000 + i, TrafficClass::Automated)),
                ));
            }
        }
        for k in 0..24u64 {
            let t = at(k * 3_600 + 937);
            let n = u64::from(day) * 24 + k;
            // Distinct size per key: PortLess flow identity includes the
            // packet size, so a reused size would read as a rule hit
            // instead of a fresh unpredictable event.
            let size = 300 + (n % 512) as u16;
            let port = 20_000 + (n % 45_000) as u16;
            acts.push((
                t,
                Act::Pkt(Self::pkt(t, 2, size, port, TrafficClass::Automated)),
            ));
        }

        // Plug (device 0): two proofed manual events a day. The proof
        // lands 200 ms ahead of the first packet, so every packet must
        // flow — a drop here is a false drop, full stop.
        for &start in &[32_400u64, 64_800] {
            acts.push((
                at_ms(start * 1_000 - 200),
                Act::Proof(at_ms(start * 1_000 - 200)),
            ));
            for p in 0..3u64 {
                let t = at_ms(start * 1_000 + p * 250);
                acts.push((
                    t,
                    Act::Pkt(Self::pkt(t, 0, MANUAL_SIZE, 8080, TrafficClass::Manual)),
                ));
            }
            self.manual_events += 1;
        }

        // Guests (devices 3..8): five unproven manual events land within
        // five seconds of noon, so five quarantine records go live
        // concurrently — one past the record cap, forcing a demotion.
        for g in 0..5u64 {
            let start_ms = 43_200_000 + g * 1_000;
            for p in 0..2u64 {
                let t = at_ms(start_ms + p * 300);
                acts.push((
                    t,
                    Act::Pkt(Self::pkt(
                        t,
                        3 + g as u16,
                        MANUAL_SIZE,
                        8080,
                        TrafficClass::Manual,
                    )),
                ));
            }
            self.manual_events += 1;
        }

        // Strangers (ids from 100, unique per day so the snapshot-replay
        // leg never re-queries a pre-snapshot sealed verdict): three
        // unknown devices a day, each bursting exactly one evidence
        // window so its verdict seals before midnight. They keep the
        // fingerprint gate's tracked/sealed LRU caches under daily churn for
        // the whole soak; their quarantine drops are not false drops.
        for v in 0..3u16 {
            let vid = 100 + day as u16 * 3 + v;
            for p in 0..24u64 {
                let t = at((15 + u64::from(v)) * 3_600 + p * 40);
                acts.push((
                    t,
                    Act::Pkt(Self::pkt(
                        t,
                        vid,
                        1_400 + v * 7,
                        8443,
                        TrafficClass::Control,
                    )),
                ));
            }
        }

        // Mid-storm sample (records at their concurrent peak), a
        // mid-stranger-burst sample (open evidence windows live), plus
        // the end-of-day sample taken by `run_day` after the flush.
        acts.push((at(43_206), Act::Sample));
        acts.push((at(15 * 3_600 + 490), Act::Sample));

        acts.sort_by_key(|&(t, _)| t);
        acts
    }

    /// Snapshot the home, round-trip it through its encoded bytes, and
    /// restore the twin that [`HomeSim::run_day`] will drive in
    /// lockstep. Returns `false` (and counts a mismatch) if the encoding
    /// is unstable or the restore is refused.
    pub fn begin_shadow(&mut self) -> bool {
        let bytes = self.proxy.snapshot();
        if bytes != self.proxy.snapshot() {
            return false;
        }
        match FiatProxy::restore(
            self.config.clone(),
            &SECRET,
            perfect_validator(),
            fresh_telemetry(),
            &bytes,
            |_| EventClassifier::simple_rule(MANUAL_SIZE),
        ) {
            Ok(mut p) => {
                // The gate is not part of the snapshot; the restored twin
                // gets a fresh engine. Lockstep still holds because every
                // stranger's ids are day-unique and its window seals
                // within the day: verdicts cached before the snapshot are
                // never queried again after it.
                p.set_fingerprinter(Box::new(FingerprintEngine::new(
                    self.sigs.clone(),
                    soak_matcher(),
                )));
                self.shadow = Some(p);
                true
            }
            Err(_) => false,
        }
    }

    /// `Some(true)` when a shadow ran and its final stats and snapshot
    /// bytes are identical to the original's; `None` without a shadow.
    pub fn shadow_matches(&self) -> Option<bool> {
        self.shadow
            .as_ref()
            .map(|sh| sh.stats() == self.proxy.stats() && sh.snapshot() == self.proxy.snapshot())
    }

    /// Current state-size accounting of the home's proxy.
    pub fn state(&self) -> StateSize {
        self.proxy.state_size()
    }

    /// Final proxy counters.
    pub fn stats(&self) -> ProxyStats {
        self.proxy.stats()
    }

    /// `(truncated, appended)` audit-chain totals for this home.
    pub fn audit_totals(&self) -> (u64, u64) {
        let a = self.proxy.audit();
        (a.truncated(), a.total_appended())
    }

    /// Drive one simulated day, invoking `sample` at each accountant
    /// checkpoint (mid-storm and after the end-of-day flush).
    pub fn run_day(&mut self, day: u32, sample: &mut dyn FnMut(StateSize)) {
        let acts = self.day_script(day);
        for (t, act) in acts {
            match act {
                Act::Pkt(p) => {
                    let d = self.proxy.on_packet(&p);
                    if let Some(sh) = &mut self.shadow {
                        if sh.on_packet(&p) != d {
                            self.replay_decision_mismatches += 1;
                        }
                    }
                    self.packets += 1;
                    if p.device <= 1 && matches!(d, ProxyDecision::Drop(_)) {
                        self.false_drops += 1;
                    }
                }
                Act::Proof(t) => {
                    let z = self
                        .app
                        .authorize_zero_rtt(
                            "iot.app",
                            &self.imu,
                            MotionKind::HumanTouch,
                            t.as_micros(),
                        )
                        .expect("0-RTT seal");
                    if self.proxy.on_auth_zero_rtt(&z, t) == Ok(true) {
                        self.proofs_delivered += 1;
                    }
                    let _ = self.proxy.take_quarantine_releases();
                    if let Some(sh) = &mut self.shadow {
                        let _ = sh.on_auth_zero_rtt(&z, t);
                        let _ = sh.take_quarantine_releases();
                    }
                }
                Act::Rotate => {
                    self.proxy.rotate_ticket_epoch();
                    let cur = self.proxy.ticket_epoch();
                    self.proxy.retire_ticket_epochs_below(cur);
                    if let Some(sh) = &mut self.shadow {
                        sh.rotate_ticket_epoch();
                        sh.retire_ticket_epochs_below(cur);
                    }
                    // The phone re-handshakes under the new epoch (its
                    // old ticket just retired). Deterministic: the app
                    // is rebuilt from the home seed + day.
                    self.app = FiatApp::new(
                        &SECRET,
                        self.cfg.seed
                            ^ u64::from(self.home).wrapping_mul(0x9e37)
                            ^ u64::from(day).wrapping_mul(0x85eb),
                    );
                    let ch = self.app.handshake_request();
                    let sh_hello = self.proxy.accept_handshake(&ch);
                    if let Some(sh) = &mut self.shadow {
                        let _ = sh.accept_handshake(&ch);
                    }
                    self.app
                        .complete_handshake(&sh_hello)
                        .expect("re-handshake");
                }
                Act::Sample => sample(self.proxy.state_size()),
            }
            let _ = t;
        }
        let end = SimTime::from_secs((u64::from(day) + 1) * DAY - 3);
        self.proxy.flush(end);
        if let Some(sh) = &mut self.shadow {
            sh.flush(end);
        }
        sample(self.proxy.state_size());
    }
}

/// Run the fleet. Fully deterministic per [`LongSoakConfig`].
pub fn run_long_soak(cfg: &LongSoakConfig) -> LongSoakReport {
    let mut report = LongSoakReport {
        homes: cfg.homes,
        days: cfg.days,
        packets: 0,
        manual_events: 0,
        proofs_delivered: 0,
        false_drops: 0,
        budget: cfg.budget,
        samples: 0,
        budget_breaches: 0,
        hwm: StateSize::default(),
        audit_truncated: 0,
        audit_appended: 0,
        replay_checked: 0,
        replay_decision_mismatches: 0,
        replay_state_mismatches: 0,
        stats: ProxyStats::default(),
    };
    // One trained signature set for the whole fleet: training is per
    // deployment, not per home, and sharing keeps the 500-home smoke off
    // the corpus generator's hot path.
    let sigs = SignatureSet::learn(
        &fingerprint_corpus(cfg.seed ^ 0xf1a7),
        soak_matcher().evidence_window,
    );
    for home in 0..cfg.homes {
        let mut sim = HomeSim::new(cfg, home, &sigs);
        let replay = cfg.replay_every > 0 && home % cfg.replay_every == 0 && cfg.days > 1;
        for day in 0..cfg.days {
            if replay && day == cfg.days / 2 {
                if sim.begin_shadow() {
                    report.replay_checked += 1;
                } else {
                    report.replay_state_mismatches += 1;
                }
            }
            sim.run_day(day, &mut |s| {
                report.samples += 1;
                report.hwm = report.hwm.max_fields(s);
                if s.total() > cfg.budget {
                    report.budget_breaches += 1;
                }
            });
        }
        if let Some(ok) = sim.shadow_matches() {
            if !ok {
                report.replay_state_mismatches += 1;
            }
        }
        report.replay_decision_mismatches += sim.replay_decision_mismatches;
        report.packets += sim.packets;
        report.manual_events += sim.manual_events;
        report.proofs_delivered += sim.proofs_delivered;
        report.false_drops += sim.false_drops;
        let (trunc, appended) = sim.audit_totals();
        report.audit_truncated += trunc;
        report.audit_appended += appended;
        report.stats += sim.stats();
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scaled-down capped leg that still runs every mechanism: two
    /// weeks crossed (rotation fires twice), replay lockstep on, caps
    /// under pressure daily.
    fn tiny(seed: u64) -> LongSoakConfig {
        LongSoakConfig {
            homes: 4,
            days: 15,
            replay_every: 2,
            ..LongSoakConfig::quick(seed)
        }
    }

    #[test]
    fn capped_soak_stays_inside_budget_with_zero_false_drops() {
        let report = run_long_soak(&tiny(42));
        assert!(report.passed(), "{report:?}");
        assert_eq!(report.false_drops, 0, "{report:?}");
        assert_eq!(report.budget_breaches, 0, "{report:?}");
        // Every cap must have been exercised, not merely configured.
        assert_eq!(report.hwm.rules, 8, "rule cap never reached: {report:?}");
        assert!(report.hwm.rule_ghosts > 0, "no eviction ghosts: {report:?}");
        assert_eq!(
            report.hwm.quarantine_records, 4,
            "record cap never reached: {report:?}"
        );
        assert!(
            report.audit_truncated > 0,
            "audit never truncated: {report:?}"
        );
        assert!(report.hwm.audit_entries <= 128, "{report:?}");
        assert!(
            report.stats.quarantine_expired > 0,
            "no demotions: {report:?}"
        );
        assert!(report.replay_checked > 0, "replay leg skipped: {report:?}");
        assert!(report.proofs_delivered > 0);
        // The fingerprint gate ran under the budget: stranger evidence
        // was live at some sample, and never past its LRU caps (8
        // tracked + 16 sealed).
        assert!(
            report.hwm.fingerprint_evidence > 0,
            "gate never held evidence: {report:?}"
        );
        assert!(report.hwm.fingerprint_evidence <= 24, "{report:?}");
    }

    #[test]
    fn uncapped_soak_breaches_the_same_budget() {
        let negative = LongSoakConfig {
            homes: 2,
            ..LongSoakConfig::negative(42)
        };
        let report = run_long_soak(&negative);
        assert!(
            report.budget_breaches > 0,
            "negative control failed to breach: {report:?}"
        );
        assert!(report.hwm.rules > 8, "{report:?}");
        assert!(report.hwm.quarantine_records > 4, "{report:?}");
        assert!(report.hwm.audit_entries > 128, "{report:?}");
        assert_eq!(report.audit_truncated, 0, "{report:?}");
        // Unbounded growth still must not drop proofed traffic.
        assert_eq!(report.false_drops, 0, "{report:?}");
    }

    #[test]
    fn long_soak_is_deterministic() {
        let a = run_long_soak(&tiny(7));
        let b = run_long_soak(&tiny(7));
        assert_eq!(a, b);
    }
}
