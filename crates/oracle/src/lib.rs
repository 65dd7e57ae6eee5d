//! Differential decision oracle for the FIAT proxy.
//!
//! Two halves:
//!
//! - [`ReferenceProxy`] (`reference`): a deliberately naive,
//!   allocation-heavy, obviously-correct rewrite of the full decision
//!   path — bootstrap, rule learning/matching, event grouping,
//!   classify-at-N, humanness gating, cascades, lockout, retrospective
//!   closure, `flush` — written straight from the paper and DESIGN.md,
//!   sharing no machinery with `fiat_core::FiatProxy` beyond input
//!   types and the event classifier.
//! - the fuzzer (`fuzzer`): seeded timestamp-chaos scenarios over the
//!   paper's 10-device testbed matrix, driven op-by-op through both
//!   implementations, comparing every decision, the final counters,
//!   and the audit trail, with a greedy shrinker for any divergence;
//! - the laws (`laws`): what the real proxy's exported data must satisfy
//!   on its own, checked after every op without the reference.
//!
//! The oracle's contract: **any** disagreement is a bug until either
//! `fiat-core` is fixed or the behaviour is argued for and recorded in
//! DESIGN.md's known-divergence ledger. `experiments oracle --seed N`
//! runs it at scale; CI runs a fixed-seed quick pass.
//!
//! What the oracle deliberately does *not* cover: the QUIC/crypto
//! transport (the fuzzer feeds both sides genuine evidence through a
//! perfect validator, so humanness is purely a timing question) and
//! classifier quality (both sides consult the identical classifier).

#![deny(missing_docs)]

pub mod fuzzer;
pub mod laws;
pub mod reference;

pub use fuzzer::{
    build_scenario, render_report, run_differential, run_scenario, run_scenario_with_real_config,
    run_scenario_with_real_matcher, shrink, ChaosStats, Divergence, DivergenceKind,
    DivergenceReport, FingerprintSetup, Op, OracleReport, Scenario,
};
pub use reference::ReferenceProxy;

#[cfg(test)]
mod tests {
    use super::*;
    use fiat_core::{AllowReason, ProxyConfig, ProxyDecision};
    use fiat_net::{
        Direction, DnsTable, PacketRecord, SimDuration, SimTime, TcpFlags, TlsVersion,
        TrafficClass, Transport,
    };
    use std::net::Ipv4Addr;

    fn flow_pkt(ts: SimTime, device: u16, size: u16, remote_port: u16) -> PacketRecord {
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
            label: TrafficClass::Control,
        }
    }

    #[test]
    fn reference_walks_the_documented_pipeline() {
        // A miniature hand trace against the reference alone: bootstrap
        // allows, the first post-bootstrap packets fall under first-N,
        // and a manual-size event without a humanness proof is dropped.
        let (sc, _) = build_scenario(11, true);
        let mut reference = ReferenceProxy::new(sc.config.clone());
        reference.register_device(0, fiat_core::EventClassifier::simple_rule(235), 1);
        reference.start(SimTime::ZERO);
        let mut pkt = match sc.ops.iter().find_map(|o| match o {
            Op::Packet(p) if p.device == 3 => Some(p.clone()),
            _ => None,
        }) {
            Some(p) => p,
            None => return,
        };
        pkt.device = 0;
        pkt.size = 235;
        pkt.ts = SimTime::from_secs(1);
        assert_eq!(
            reference.on_packet(&pkt),
            ProxyDecision::Allow(AllowReason::Bootstrap)
        );
        pkt.ts = SimTime::ZERO + sc.config.bootstrap + SimDuration::from_secs(60);
        let d = reference.on_packet(&pkt);
        // N = 1 and size 235 classifies manual with no proof: held in
        // quarantine (scenario configs run a 3 s proof deadline), then
        // expired by a flush past the deadline.
        assert_eq!(d, ProxyDecision::Quarantine);
        assert_eq!(reference.stats().quarantined, 1);
        assert_eq!(reference.audit_entries().len(), 0);
        reference.flush(pkt.ts + SimDuration::from_secs(4));
        assert_eq!(reference.stats().quarantine_expired, 1);
        assert_eq!(reference.audit_entries().len(), 1);
        assert_eq!(
            reference.audit_entries()[0].verdict,
            fiat_core::audit::AuditVerdict::QuarantineExpired
        );
    }

    #[test]
    fn reference_pins_exact_deadline_boundary() {
        // DESIGN §14 boundary semantics, pinned on the reference alone
        // (the real proxy has the mirror tests in fiat-core): a proof
        // landing exactly at the deadline releases, and expiry fires
        // only strictly past it — backdated to the deadline.
        let config = ProxyConfig {
            bootstrap: SimDuration::from_secs(60),
            proof_deadline: Some(SimDuration::from_secs(3)),
            ..ProxyConfig::default()
        };
        let mut reference = ReferenceProxy::new(config);
        reference.register_device(0, fiat_core::EventClassifier::simple_rule(235), 1);
        reference.start(SimTime::ZERO);
        let d = reference.on_packet(&flow_pkt(SimTime::from_secs(120), 0, 235, 9000));
        assert_eq!(d, ProxyDecision::Quarantine);
        // Flush exactly at the deadline must not expire the record...
        reference.flush(SimTime::from_secs(123));
        assert_eq!(reference.stats().quarantine_expired, 0);
        // ...so a proof at that same instant still releases it.
        reference.verify_human(SimTime::from_secs(123));
        assert_eq!(reference.stats().quarantine_expired, 0);
        let last = reference.audit_entries().last().expect("release audited");
        assert_eq!(
            last.verdict,
            fiat_core::audit::AuditVerdict::QuarantineReleased
        );
        assert_eq!(last.ts, SimTime::from_secs(123));
        // Round two, past the proof's validity window: expiry strictly
        // after the deadline, with the episode backdated to it.
        let d = reference.on_packet(&flow_pkt(SimTime::from_secs(200), 0, 235, 9000));
        assert_eq!(d, ProxyDecision::Quarantine);
        reference.flush(SimTime::from_millis(203_001));
        assert_eq!(reference.stats().quarantine_expired, 1);
        let last = reference.audit_entries().last().expect("expiry audited");
        assert_eq!(
            last.verdict,
            fiat_core::audit::AuditVerdict::QuarantineExpired
        );
        assert_eq!(last.ts, SimTime::from_secs(203));
    }

    #[test]
    fn tight_caps_stay_in_lockstep() {
        // Bounded-state policies (DESIGN §18) under deliberately tiny
        // caps: rule eviction + ghost re-learn churn, home-wide
        // record-cap demotion, and checkpointed audit truncation must
        // all stay in lockstep between the real proxy and the naive
        // reference — every decision, the final stats, the retained
        // audit suffix, and the real chain's verification across its
        // truncation checkpoint.
        let config = ProxyConfig {
            bootstrap: SimDuration::from_secs(600),
            lockout_threshold: 1,
            lockout_window: SimDuration::from_secs(1800),
            proof_deadline: Some(SimDuration::from_secs(3)),
            max_rules: Some(1),
            max_quarantine_records: Some(1),
            max_audit_entries: Some(8),
            ..ProxyConfig::default()
        };
        let s = SimTime::from_secs;
        let mut ops = Vec::new();
        // Two qualifying 10 s periodic flows on device 0; with one rule
        // slot only the most recently seen survives learning, the other
        // is evicted into a ghost at birth.
        for i in 0..4u64 {
            ops.push(Op::Packet(flow_pkt(s(i * 10), 0, 100, 8801)));
            ops.push(Op::Packet(flow_pkt(s(i * 10 + 5), 0, 150, 8802)));
        }
        ops.push(Op::Packet(flow_pkt(s(600), 0, 150, 8802))); // rule hit
        ops.push(Op::Packet(flow_pkt(s(610), 0, 100, 8801))); // ghost touch 1
        ops.push(Op::Packet(flow_pkt(s(620), 0, 100, 8801))); // ghost touch 2
        ops.push(Op::Packet(flow_pkt(s(630), 0, 100, 8801))); // promoted: hit
        ops.push(Op::Packet(flow_pkt(s(640), 0, 150, 8802))); // evicted: ghost touch 1
        ops.push(Op::Packet(flow_pkt(s(650), 0, 100, 8801))); // rule hit (LRU touch)
        ops.push(Op::Packet(flow_pkt(s(660), 0, 150, 8802))); // ghost touch 2
        ops.push(Op::Packet(flow_pkt(s(680), 0, 150, 8802))); // promoted: hit
                                                              // Record-cap churn: device 2's record demotes device 1's; a
                                                              // proof landing exactly at the deadline releases device 2.
        ops.push(Op::Packet(flow_pkt(s(700), 1, 235, 9000)));
        ops.push(Op::Packet(flow_pkt(s(701), 2, 235, 9000)));
        ops.push(Op::VerifyHuman(s(704)));
        // A second record on device 1 expires strictly past its
        // deadline, locking the device (second episode in the window);
        // the next packet drops at the door.
        ops.push(Op::Packet(flow_pkt(s(740), 1, 235, 9000)));
        ops.push(Op::Flush(s(743)));
        ops.push(Op::Flush(SimTime::from_millis(743_001)));
        ops.push(Op::Packet(flow_pkt(s(750), 1, 235, 9000)));
        ops.push(Op::ClearLockout(1));
        // Enough non-manual events to push the audit log past its cap
        // and through a checkpointed truncation on both sides.
        for i in 0..6u64 {
            ops.push(Op::Packet(flow_pkt(s(800 + i * 10), 0, 120, 8803)));
        }
        ops.push(Op::Flush(s(900)));
        let sc = Scenario {
            config,
            devices: vec![(0, 235, 1), (1, 235, 1), (2, 235, 1)],
            edges: Vec::new(),
            cascade_window: SimDuration::from_secs(30),
            dns: DnsTable::new(),
            fingerprint: None,
            ops,
        };
        if let Some(d) = run_scenario(&sc) {
            panic!("tight-cap divergence: {d}");
        }
        // Lockstep alone could pass vacuously if the caps never fired;
        // replay the reference by itself and check each policy engaged.
        let mut reference = ReferenceProxy::new(sc.config.clone());
        for &(id, size, n) in &sc.devices {
            reference.register_device(id, fiat_core::EventClassifier::simple_rule(size), n);
        }
        reference.start(SimTime::ZERO);
        for op in &sc.ops {
            match op {
                Op::Packet(p) => {
                    reference.on_packet(p);
                }
                Op::VerifyHuman(t) => reference.verify_human(*t),
                Op::Flush(t) => reference.flush(*t),
                Op::ClearLockout(d) => reference.clear_lockout(*d),
            }
        }
        assert_eq!(reference.rule_count(), 1, "rule cap not enforced");
        assert_eq!(reference.ghost_count(), 1, "eviction left no ghost");
        assert!(reference.audit_truncated() > 0, "audit cap never truncated");
        assert!(
            reference.stats().quarantine_expired >= 2,
            "record-cap demotion and deadline expiry both expected"
        );
        assert_eq!(reference.stats().rule_hit, 4, "ghost re-learn drifted");
    }

    #[test]
    fn domain_named_like_an_address_stays_in_lockstep() {
        // DNS answers are on-path input: 6.6.6.6 resolves to the name
        // "34.0.0.1", while 34.0.0.1 itself never resolved. The rule
        // learned on the unresolved address must not also admit the
        // domain spelled like it, on either side.
        let spoofed = Ipv4Addr::new(6, 6, 6, 6);
        let mut dns = DnsTable::new();
        dns.observe_forward(spoofed, "34.0.0.1");
        let s = SimTime::from_secs;
        let mut ops: Vec<Op> = (0..10u64)
            .map(|i| Op::Packet(flow_pkt(s(i * 60), 0, 100, 8801)))
            .collect();
        for i in 10..14u64 {
            ops.push(Op::Packet(flow_pkt(s(i * 60), 0, 100, 8801)));
            let mut p = flow_pkt(s(i * 60 + 30), 0, 100, 8801);
            p.remote_ip = spoofed;
            ops.push(Op::Packet(p));
        }
        let sc = Scenario {
            config: ProxyConfig {
                bootstrap: SimDuration::from_secs(600),
                ..ProxyConfig::default()
            },
            devices: vec![(0, 235, 1)],
            edges: Vec::new(),
            cascade_window: SimDuration::from_secs(30),
            dns,
            fingerprint: None,
            ops,
        };
        if let Some(d) = run_scenario(&sc) {
            panic!("address/domain alias divergence: {d}");
        }
        // Not vacuous: the reference hits only the four packets to the
        // unresolved address.
        let mut reference = ReferenceProxy::new(sc.config.clone());
        reference.register_device(0, fiat_core::EventClassifier::simple_rule(235), 1);
        reference.set_dns(sc.dns.clone());
        reference.start(SimTime::ZERO);
        for op in &sc.ops {
            if let Op::Packet(p) = op {
                let hit = reference.on_packet(p) == ProxyDecision::Allow(AllowReason::RuleHit);
                assert_eq!(hit, p.ts >= s(600) && p.remote_ip != spoofed, "{p:?}");
            }
        }
        assert_eq!(reference.stats().rule_hit, 4);
    }

    #[test]
    fn quick_differential_runs_clean() {
        // The contract the CI smoke job enforces: on chaos-mutated
        // testbed traffic, the naive reference and the real proxy agree
        // on every decision, stat, and audit entry.
        for seed in [1u64, 2, 42] {
            let report = run_differential(seed, true, 800);
            assert!(report.packets >= 800);
            assert!(
                report.passed(),
                "divergence at seed {seed}: {:?}",
                report.divergences
            );
        }
    }

    #[test]
    fn oracle_detects_semantic_drift() {
        // Self-test: perturb the real proxy's event gap and the oracle
        // must notice. If this fails, a real regression in fiat-core
        // could slide through unreported.
        let (sc, _) = build_scenario(5, true);
        let drifted = ProxyConfig {
            event_gap: SimDuration::from_secs(2),
            ..sc.config.clone()
        };
        assert!(
            run_scenario_with_real_config(&sc, &drifted).is_some(),
            "oracle failed to flag a 2.5x event-gap change"
        );
        let drifted = ProxyConfig {
            lockout_threshold: 0,
            ..sc.config.clone()
        };
        assert!(
            run_scenario_with_real_config(&sc, &drifted).is_some(),
            "oracle failed to flag a zeroed lockout threshold"
        );
    }

    #[test]
    fn oracle_detects_quarantine_deadline_drift() {
        // Self-test for the quarantine half of the oracle: scenarios
        // run with a 3 s proof deadline and deterministic hold/release/
        // expire probes, so a real-side deviation in either direction
        // must surface. If this fails, a regression in the quarantine
        // state machine could slide through unreported.
        let (sc, chaos) = build_scenario(7, true);
        assert!(
            chaos.quarantine_probes > 0,
            "scenario builder stopped injecting quarantine probes"
        );
        assert_eq!(sc.config.proof_deadline, Some(SimDuration::from_secs(3)));
        let disabled = ProxyConfig {
            proof_deadline: None,
            ..sc.config.clone()
        };
        assert!(
            run_scenario_with_real_config(&sc, &disabled).is_some(),
            "oracle failed to flag quarantine being disabled"
        );
        let hair_trigger = ProxyConfig {
            proof_deadline: Some(SimDuration::from_millis(1)),
            ..sc.config.clone()
        };
        assert!(
            run_scenario_with_real_config(&sc, &hair_trigger).is_some(),
            "oracle failed to flag a 1 ms proof deadline"
        );
    }

    #[test]
    fn oracle_detects_fingerprint_matcher_drift() {
        // Self-test for the fingerprint half of the oracle: scenarios
        // carry genuine/spoofed/unclassifiable unknown-device probes,
        // so a real-engine deviation in the match threshold or the
        // evidence-window length must surface against the naive mirror.
        use fiat_fingerprint::MatcherConfig;
        let (sc, chaos) = build_scenario(11, true);
        assert!(
            chaos.fingerprint_probes > 0,
            "scenario builder stopped injecting fingerprint probes"
        );
        let fp = sc.fingerprint.clone().expect("fingerprinting enabled");
        let paranoid = MatcherConfig {
            max_distance: 0,
            ..fp.matcher
        };
        assert!(
            run_scenario_with_real_matcher(&sc, paranoid).is_some(),
            "oracle failed to flag a zeroed match threshold"
        );
        let short_window = MatcherConfig {
            evidence_window: fp.matcher.evidence_window / 2,
            ..fp.matcher
        };
        assert!(
            run_scenario_with_real_matcher(&sc, short_window).is_some(),
            "oracle failed to flag a halved evidence window"
        );
    }

    #[test]
    fn shrinker_minimizes_a_divergent_scenario() {
        // Induce a divergence (drifted event gap on the real side) and
        // shrink it: the result must be strictly smaller and still
        // diverge under the same mismatch.
        let (sc, _) = build_scenario(9, true);
        let drifted = ProxyConfig {
            event_gap: SimDuration::from_secs(2),
            ..sc.config.clone()
        };
        assert!(run_scenario_with_real_config(&sc, &drifted).is_some());
        let shrunk = shrink(&sc, &drifted, 80);
        assert!(
            shrunk.ops.len() < sc.ops.len(),
            "shrinker removed nothing ({} ops)",
            sc.ops.len()
        );
        assert!(
            run_scenario_with_real_config(&shrunk, &drifted).is_some(),
            "shrinking lost the divergence"
        );
    }

    #[test]
    fn empty_scenario_is_clean() {
        // Subsetting must never manufacture a divergence: with no ops,
        // both sides hold their initial state.
        let (sc, _) = build_scenario(3, true);
        let empty = Scenario {
            ops: Vec::new(),
            ..sc
        };
        assert!(run_scenario(&empty).is_none());
    }
}
