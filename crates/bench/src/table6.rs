//! Table 6: end-to-end FIAT accuracy, plus the Appendix A cross-check.
//!
//! Two phases per device:
//!
//! 1. **Legit phase** — a capture where every manual event is preceded by
//!    genuine human evidence (0-RTT). Measures the event classifier's
//!    precision/recall and the false positives (legit traffic blocked).
//! 2. **Attack phase** — a fresh capture whose manual events are
//!    attacker-injected: the synced spyware ships *resting-phone*
//!    evidence just before each command (§7 "Potential Attack" without
//!    the piggybacking window). Measures false negatives (attacks that
//!    complete).
//!
//! The humanness validator runs at the paper's measured operating point
//! (recall 0.934 human / 0.982 non-human) so the FP/FN composition is
//! comparable with Table 6 and the Appendix A closed forms.

use fiat_core::{
    ErrorModel, EventClass, EventClassifier, FiatApp, FiatProxy, ProxyConfig, ProxyStats,
    ProxyTelemetry,
};
use fiat_net::{SimDuration, SimTime, TrafficClass};
use fiat_sensors::{HumannessValidator, ImuTrace, MotionKind};
use fiat_telemetry::{MetricRegistry, WallClock};
use fiat_trace::{Location, TestbedConfig, TestbedTrace};
use std::collections::HashMap;
use std::fmt::Write;
use std::sync::Arc;

const SECRET: [u8; 32] = [0xAB; 32];

/// One Table 6 row.
#[derive(Debug, Clone)]
pub struct Table6Row {
    /// Device name.
    pub name: String,
    /// Event-classifier precision on manual events (legit phase).
    pub precision_manual: f64,
    /// Event-classifier recall on manual events.
    pub recall_manual: f64,
    /// Event-classifier precision on non-manual events.
    pub precision_non_manual: f64,
    /// Event-classifier recall on non-manual events.
    pub recall_non_manual: f64,
    /// Legit manual operations blocked (false positive, manual).
    pub fp_manual: f64,
    /// Non-manual events blocked (false positive, non-manual).
    pub fp_non_manual: f64,
    /// Attacker commands that completed (false negative), measured.
    pub false_negative: f64,
    /// Appendix A analytic FN at the same recalls.
    pub analytic_fn: f64,
}

/// Measured humanness-validator performance across both phases.
#[derive(Debug, Clone, Copy)]
pub struct HumanValidationStats {
    /// Accepted human evidences / human evidences.
    pub recall_human: f64,
    /// Rejected attack evidences / attack evidences.
    pub recall_non_human: f64,
}

/// Full Table 6 output.
pub struct Table6 {
    /// Per-device rows.
    pub rows: Vec<Table6Row>,
    /// Aggregate humanness stats.
    pub human: HumanValidationStats,
    /// Decision counters of the legit and the attack phase's proxy.
    pub stats: [ProxyStats; 2],
}

struct PhaseOutcome {
    stats: ProxyStats,
    // Per device: (gt_class_is_manual, predicted_manual, blocked).
    events: HashMap<u16, Vec<(bool, bool, bool)>>,
    human_accepts: u64,
    human_total: u64,
    attack_rejects: u64,
    attack_total: u64,
}

/// Drive one capture through a proxy. `human_evidence` controls whether
/// manual events are preceded by genuine human motion (legit phase) or
/// resting-phone motion (attack phase).
fn run_phase(
    capture: &TestbedTrace,
    classifiers: impl Fn(u16) -> EventClassifier,
    human_evidence: bool,
    seed: u64,
    registry: &MetricRegistry,
) -> PhaseOutcome {
    let validator = HumannessValidator::with_operating_point(0.934, 0.982, seed);
    let config = ProxyConfig {
        lockout_threshold: u32::MAX, // measure raw rates, not lockouts
        ..ProxyConfig::default()
    };
    let bootstrap_end = SimTime::ZERO + config.bootstrap;
    // The proxy's decision-path metrics (decision and QUIC counters,
    // then the stage latencies of its timing registry under real wall
    // time) accumulate across phases in the shared registry and ship in
    // the experiment's snapshot.
    let telemetry = ProxyTelemetry::new(registry.clone(), Arc::new(WallClock::new()));
    let mut proxy = FiatProxy::with_telemetry(config, &SECRET, validator, telemetry);
    proxy.set_dns(capture.trace.dns.clone());
    for (i, dev) in capture.devices.iter().enumerate() {
        proxy.register_device(i as u16, classifiers(i as u16), dev.min_packets_to_complete);
    }
    proxy.start(SimTime::ZERO);

    let mut app = FiatApp::new(&SECRET, seed ^ 0x5eed);
    let ch = app.handshake_request();
    let sh = proxy.accept_handshake(&ch);
    app.complete_handshake(&sh).expect("handshake");

    // Evidence schedule: 300 ms before each ground-truth manual event.
    let mut evidence: Vec<(SimTime, u64)> = capture
        .events
        .iter()
        .filter(|e| e.class == TrafficClass::Manual)
        .enumerate()
        .map(|(k, e)| {
            (
                e.start
                    .checked_sub(SimDuration::from_millis(300))
                    .unwrap_or(SimTime::ZERO),
                k as u64,
            )
        })
        .collect();
    evidence.sort();
    let mut next_ev = 0usize;

    let mut human_accepts = 0u64;
    let mut human_total = 0u64;
    let mut attack_rejects = 0u64;
    let mut attack_total = 0u64;

    // Track, per device, which packets were blocked (indices by ts).
    let mut blocked: HashMap<(u16, u64), bool> = HashMap::new();
    for pkt in &capture.trace.packets {
        while next_ev < evidence.len() && evidence[next_ev].0 <= pkt.ts {
            let (at, k) = evidence[next_ev];
            next_ev += 1;
            let kind = if human_evidence {
                MotionKind::HumanTouch
            } else {
                MotionKind::Resting
            };
            let imu = ImuTrace::synthesize(kind, 500, seed ^ k);
            let z = app
                .authorize_zero_rtt("iot.app", &imu, kind, at.as_micros())
                .expect("0-RTT");
            let ok = proxy.on_auth_zero_rtt(&z, at).expect("auth path");
            if human_evidence {
                human_total += 1;
                if ok {
                    human_accepts += 1;
                }
            } else {
                attack_total += 1;
                if !ok {
                    attack_rejects += 1;
                }
            }
        }
        let d = proxy.on_packet(pkt);
        if !d.is_allow() {
            blocked.insert((pkt.device, pkt.ts.as_micros()), true);
        }
    }

    // Score ground-truth events that started after bootstrap: an event is
    // "blocked" if any of its packets was dropped; "predicted manual" via
    // the audit log entry nearest its start.
    let audit = proxy.audit();
    let mut events: HashMap<u16, Vec<(bool, bool, bool)>> = HashMap::new();
    for gt in &capture.events {
        if gt.start < bootstrap_end + SimDuration::from_secs(60) {
            continue;
        }
        let is_manual = gt.class == TrafficClass::Manual;
        // Find the audit entry for this event; classification fires
        // within a few packets of the start.
        let window = SimDuration::from_secs(10);
        let entry = audit
            .entries()
            .iter()
            .filter(|e| e.device == gt.device && e.ts >= gt.start && e.ts - gt.start <= window)
            .min_by_key(|e| (e.ts - gt.start).as_micros());
        let predicted_manual = entry.is_some_and(|e| e.class == EventClass::Manual);
        // Blocked packets are attributed within the event's own span
        // (events are >= 30 s apart, bursts last <= ~30 s).
        let block_window = SimDuration::from_secs(25);
        let was_blocked = blocked.keys().any(|(dev, ts)| {
            *dev == gt.device
                && *ts >= gt.start.as_micros()
                && *ts <= (gt.start + block_window).as_micros()
        });
        events
            .entry(gt.device)
            .or_default()
            .push((is_manual, predicted_manual, was_blocked));
    }

    registry.merge_from(proxy.telemetry().timing());
    PhaseOutcome {
        stats: proxy.stats(),
        events,
        human_accepts,
        human_total,
        attack_rejects,
        attack_total,
    }
}

/// Run Table 6. `train_days`/`eval_days` control corpus sizes; the
/// proxies of both phases report into `registry` for a
/// metrics snapshot alongside the table.
pub fn table6(train_days: f64, eval_days: f64, seed: u64, registry: &MetricRegistry) -> Table6 {
    // Train classifiers on an independent capture with events grouped the
    // way the deployed proxy groups them (bootstrap rule table + 5 s gap),
    // dense enough for the paper's ~50-manual-event training regime. The
    // paper's training data also came largely from scripted (ADB)
    // interactions (§3.1), so the training capture is mostly clean.
    let corpus = crate::corpus::build_enforcement_corpus(Location::Us, train_days, seed);
    let device_models = fiat_trace::testbed_devices();
    let mut trained: HashMap<u16, EventClassifier> = HashMap::new();
    for c in &corpus {
        let classifier = if let Some(size) = device_models[c.device as usize].simple_rule_size {
            EventClassifier::simple_rule(size)
        } else {
            EventClassifier::train_bernoulli(&c.dataset)
        };
        trained.insert(c.device, classifier);
    }

    // Evaluation captures (fresh seeds).
    let legit_capture = TestbedTrace::generate(TestbedConfig {
        location: Location::Us,
        days: eval_days,
        seed: seed.wrapping_add(1),
        manual_per_day: 12.0,
        routines_per_day: 10.0,
        confusion_scale: 0.15,
    });
    let attack_capture = TestbedTrace::generate(TestbedConfig {
        location: Location::Us,
        days: eval_days,
        seed: seed.wrapping_add(2),
        manual_per_day: 12.0,
        routines_per_day: 10.0,
        confusion_scale: 0.15,
    });

    let mk = |device: u16| -> EventClassifier { trained[&device].clone() };
    let legit = run_phase(&legit_capture, mk, true, seed.wrapping_add(10), registry);
    let attack = run_phase(&attack_capture, mk, false, seed.wrapping_add(20), registry);

    let human = HumanValidationStats {
        recall_human: ratio(legit.human_accepts, legit.human_total),
        recall_non_human: ratio(attack.attack_rejects, attack.attack_total),
    };

    let mut rows = Vec::new();
    for (i, dev) in legit_capture.devices.iter().enumerate() {
        let device = i as u16;
        let empty = Vec::new();
        let lv = legit.events.get(&device).unwrap_or(&empty);
        let av = attack.events.get(&device).unwrap_or(&empty);

        // Classifier confusion over the legit phase.
        let tp = lv.iter().filter(|(m, p, _)| *m && *p).count() as f64;
        let fn_ = lv.iter().filter(|(m, p, _)| *m && !*p).count() as f64;
        let fp = lv.iter().filter(|(m, p, _)| !*m && *p).count() as f64;
        let tn = lv.iter().filter(|(m, p, _)| !*m && !*p).count() as f64;
        let recall_manual = safe_div(tp, tp + fn_);
        let precision_manual = safe_div(tp, tp + fp);
        let recall_non_manual = safe_div(tn, tn + fp);
        let precision_non_manual = safe_div(tn, tn + fn_);

        // False positives: legit events blocked.
        let manual_blocked = lv.iter().filter(|(m, _, b)| *m && *b).count() as f64;
        let manual_total = lv.iter().filter(|(m, _, _)| *m).count() as f64;
        let nonmanual_blocked = lv.iter().filter(|(m, _, b)| !*m && *b).count() as f64;
        let nonmanual_total = lv.iter().filter(|(m, _, _)| !*m).count() as f64;

        // False negatives: attack-phase manual events NOT blocked.
        let attacks = av.iter().filter(|(m, _, _)| *m).count() as f64;
        let attacks_through = av.iter().filter(|(m, _, b)| *m && !*b).count() as f64;

        let analytic = ErrorModel::new(
            recall_manual.min(1.0),
            recall_non_manual.min(1.0),
            0.934,
            0.982,
        );
        rows.push(Table6Row {
            name: dev.name.clone(),
            precision_manual,
            recall_manual,
            precision_non_manual,
            recall_non_manual,
            fp_manual: safe_div(manual_blocked, manual_total),
            fp_non_manual: safe_div(nonmanual_blocked, nonmanual_total),
            false_negative: safe_div(attacks_through, attacks),
            analytic_fn: analytic.false_negative(),
        });
    }
    Table6 {
        rows,
        human,
        stats: [legit.stats, attack.stats],
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn safe_div(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Render Table 6, reporting proxy metrics into `registry`.
pub fn table6_text(
    train_days: f64,
    eval_days: f64,
    seed: u64,
    registry: &MetricRegistry,
) -> String {
    let t = table6(train_days, eval_days, seed, registry);
    let mut out = String::new();
    writeln!(out, "# Table 6: FIAT end-to-end accuracy").unwrap();
    writeln!(
        out,
        "human validation: recall(human)={:.3} recall(non-human)={:.3} (paper: 0.934/0.982)",
        t.human.recall_human, t.human.recall_non_human
    )
    .unwrap();
    writeln!(
        out,
        "{:<10} {:>7} {:>7} {:>7} {:>7} | {:>6} {:>6} {:>6} {:>7}",
        "device", "P-man", "R-man", "P-nonm", "R-nonm", "FP-M%", "FP-N%", "FN%", "FN(an)%"
    )
    .unwrap();
    for r in &t.rows {
        writeln!(
            out,
            "{:<10} {:>7.2} {:>7.2} {:>7.2} {:>7.2} | {:>6.2} {:>6.2} {:>6.2} {:>7.2}",
            r.name,
            r.precision_manual,
            r.recall_manual,
            r.precision_non_manual,
            r.recall_non_manual,
            r.fp_manual * 100.0,
            r.fp_non_manual * 100.0,
            r.false_negative * 100.0,
            r.analytic_fn * 100.0,
        )
        .unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fiat_core::DECIDE_SAMPLE_EVERY;

    fn run() -> Table6 {
        table6(6.0, 2.0, 7, &MetricRegistry::new())
    }

    #[test]
    fn humanness_operating_point_matches_paper() {
        let t = run();
        assert!(
            (t.human.recall_human - 0.934).abs() < 0.08,
            "human recall {}",
            t.human.recall_human
        );
        assert!(
            (t.human.recall_non_human - 0.982).abs() < 0.05,
            "non-human recall {}",
            t.human.recall_non_human
        );
    }

    #[test]
    fn simple_rule_devices_classify_perfectly() {
        let t = run();
        for name in ["SP10", "WP3", "Nest-E"] {
            let r = t.rows.iter().find(|r| r.name == name).unwrap();
            // Simple rules are deterministic; the rare shortfall is an
            // audit-matching artifact (a quirk event merging with the
            // command under the 5 s rule).
            assert!(
                r.recall_manual >= 0.95 && r.recall_non_manual >= 0.95,
                "{name}: R-man {:.2}, R-nonm {:.2}",
                r.recall_manual,
                r.recall_non_manual
            );
        }
    }

    #[test]
    fn false_negatives_bounded_and_structured() {
        let t = run();
        for r in &t.rows {
            assert!(
                r.false_negative < 0.30,
                "{}: FN {:.3}",
                r.name,
                r.false_negative
            );
            // FN should be in the ballpark of the Appendix A composition
            // (sampling noise allowed).
            assert!(
                (r.false_negative - r.analytic_fn).abs() < 0.20,
                "{}: measured {:.3} vs analytic {:.3}",
                r.name,
                r.false_negative,
                r.analytic_fn
            );
        }
    }

    #[test]
    fn instrumented_run_fills_the_registry() {
        let registry = MetricRegistry::new();
        let t = table6(4.0, 1.0, 3, &registry);
        assert!(!t.rows.is_empty());
        // Both phases reported: decisions were counted, stages timed (the
        // decide stage 1 packet in 64 per proxy), and the QUIC path saw
        // the evidence traffic.
        assert!(t.stats.iter().all(|s| s.total() > 0));
        assert_eq!(
            registry
                .counter(
                    "fiat_proxy_decisions_total",
                    &[("decision", "allow"), ("reason", "rule_hit")],
                )
                .get(),
            t.stats.iter().map(|s| s.rule_hit).sum::<u64>()
        );
        assert_eq!(
            registry
                .histogram("fiat_proxy_stage_ns", &[("stage", "decide")])
                .count(),
            t.stats
                .iter()
                .map(|s| s.total().div_ceil(DECIDE_SAMPLE_EVERY))
                .sum::<u64>()
        );
        assert_eq!(registry.counter("fiat_quic_handshakes_total", &[]).get(), 2);
        assert!(registry.render_json().contains("fiat_proxy_stage_ns"));
    }

    #[test]
    fn false_positives_are_low() {
        let t = run();
        for r in &t.rows {
            assert!(r.fp_manual < 0.25, "{}: FP-M {:.3}", r.name, r.fp_manual);
            assert!(
                r.fp_non_manual < 0.15,
                "{}: FP-N {:.3}",
                r.name,
                r.fp_non_manual
            );
        }
    }
}
