//! Golden pin of the proxy's metric exposition.
//!
//! One proxy is driven through every path that writes its registry:
//! rule learning, rule hits and misses, a lockout and its clearing, a
//! quarantine release and a quarantine expiry, degraded mode, accepted
//! and replayed 0-RTT across two ticket epochs (one of them retired),
//! then a snapshot restored into a fresh registry and a merge of both
//! registries. The merged Prometheus text, JSON document and series
//! count are compared byte for byte against the files in `golden/`, as
//! is the merged timing registry (a never-ticking `ManualClock`, so its
//! stage samples are deterministic zeros).
//!
//! Both proxies also carry a recording hook: the stream of policy
//! events they emit, one line each, is pinned against
//! `golden/events.txt`.

use fiat_core::pipeline::AuthError;
use fiat_core::{
    AllowReason, EventClassifier, FiatApp, FiatProxy, ProxyConfig, ProxyDecision, ProxyEvent,
    ProxyHook, ProxyTelemetry,
};
use fiat_net::{Direction, PacketRecord, SimDuration, SimTime, TcpFlags, TlsVersion};
use fiat_net::{TrafficClass, Transport};
use fiat_quic::QuicError;
use fiat_sensors::{HumannessValidator, ImuTrace, MotionKind};
use fiat_telemetry::{ManualClock, MetricRegistry};
use std::fmt::Write as _;
use std::net::Ipv4Addr;
use std::sync::{Arc, Mutex};

const SECRET: [u8; 32] = [0x5a; 32];
const PROOF_DEADLINE_MS: u64 = 10_000;

fn pkt(ts_ms: u64, device: u16, size: u16) -> PacketRecord {
    PacketRecord {
        ts: SimTime::from_millis(ts_ms),
        device,
        direction: Direction::ToDevice,
        local_ip: Ipv4Addr::new(192, 168, 1, 10 + device as u8),
        remote_ip: Ipv4Addr::new(34, 0, 0, 1),
        local_port: 5000,
        remote_port: 443,
        transport: Transport::Tcp,
        tcp_flags: TcpFlags::psh_ack(),
        tls: TlsVersion::Tls12,
        size,
        label: TrafficClass::Control,
    }
}

fn config() -> ProxyConfig {
    ProxyConfig {
        proof_deadline: Some(SimDuration::from_millis(PROOF_DEADLINE_MS)),
        ..ProxyConfig::default()
    }
}

fn validator() -> HumannessValidator {
    HumannessValidator::with_operating_point(1.0, 1.0, 0)
}

fn telemetry(registry: &MetricRegistry) -> ProxyTelemetry {
    ProxyTelemetry::new(registry.clone(), Arc::new(ManualClock::new()))
}

/// A quarantining proxy with one plug (manual on 235 B, N = 1) reporting
/// into `registry`.
fn proxy(registry: &MetricRegistry) -> FiatProxy {
    let mut proxy = FiatProxy::with_telemetry(config(), &SECRET, validator(), telemetry(registry));
    proxy.register_device(0, EventClassifier::simple_rule(235), 1);
    proxy.start(SimTime::ZERO);
    proxy
}

/// 100 B packets every 10 s through the 20-minute bootstrap; returns the
/// first post-bootstrap time (ms).
fn bootstrap(proxy: &mut FiatProxy) -> u64 {
    let mut t = 0;
    while t < 20 * 60 * 1000 {
        assert!(proxy.on_packet(&pkt(t, 0, 100)).is_allow());
        t += 10_000;
    }
    t
}

fn paired_app(proxy: &mut FiatProxy, seed: u64) -> FiatApp {
    let mut app = FiatApp::new(&SECRET, seed);
    let sh = proxy.accept_handshake(&app.handshake_request());
    app.complete_handshake(&sh).unwrap();
    app
}

fn prove(proxy: &mut FiatProxy, app: &mut FiatApp, t_ms: u64) -> Result<bool, AuthError> {
    let imu = ImuTrace::synthesize(MotionKind::HumanTouch, 500, 3);
    let z = app
        .authorize_zero_rtt("app", &imu, MotionKind::HumanTouch, t_ms)
        .unwrap();
    proxy.on_auth_zero_rtt(&z, SimTime::from_millis(t_ms))
}

/// Writes one line per policy event: sim µs (`-` when the event has
/// none), device (`-` likewise), kind and payload.
#[derive(Clone, Default)]
struct EventLog(Arc<Mutex<String>>);

impl ProxyHook for EventLog {
    fn on_event(&self, ev: &ProxyEvent) {
        let us = |t: SimTime| t.as_micros().to_string();
        let (ts, device, payload) = match *ev {
            ProxyEvent::Decided {
                ts,
                device,
                decision,
            } => (
                us(ts),
                device.to_string(),
                decision.reason_str().to_string(),
            ),
            ProxyEvent::Proof { ts, verified } => {
                let payload = if verified { "verified" } else { "rejected" };
                (us(ts), "-".to_string(), payload.to_string())
            }
            ProxyEvent::Lockout { ts, device } | ProxyEvent::QuarantineHeld { ts, device } => {
                (us(ts), device.to_string(), "-".to_string())
            }
            ProxyEvent::LockoutCleared { device } => {
                ("-".to_string(), device.to_string(), "-".to_string())
            }
            ProxyEvent::QuarantineReleased {
                ts,
                device,
                packets,
            }
            | ProxyEvent::QuarantineExpired {
                ts,
                device,
                packets,
            } => (us(ts), device.to_string(), packets.to_string()),
        };
        let mut out = self.0.lock().unwrap();
        let _ = writeln!(out, "{ts} {device} {} {payload}", ev.name());
    }
}

struct Driven {
    events: String,
    registry: MetricRegistry,
    timing: MetricRegistry,
    restored_registry: MetricRegistry,
    restored_timing: MetricRegistry,
}

fn drive() -> Driven {
    let events = EventLog::default();
    let registry = MetricRegistry::new();
    let mut proxy = proxy(&registry);
    proxy.set_hook(Box::new(events.clone()));
    let t = bootstrap(&mut proxy);
    assert_eq!(
        proxy.on_packet(&pkt(t, 0, 100)),
        ProxyDecision::Allow(AllowReason::RuleHit)
    );
    assert!(proxy.rule_count() >= 1);
    assert!(proxy.on_packet(&pkt(t + 1_000, 0, 999)).is_allow()); // rule miss, non-manual

    // Epoch 0: an accepted 0-RTT proof, then its verbatim replay.
    let mut app = FiatApp::new(&SECRET, 1);
    let sh = proxy.accept_handshake(&app.handshake_request());
    app.complete_handshake(&sh).unwrap();
    let imu = ImuTrace::synthesize(MotionKind::HumanTouch, 500, 3);
    let z = app
        .authorize_zero_rtt("app", &imu, MotionKind::HumanTouch, t + 2_000)
        .unwrap();
    assert_eq!(
        proxy.on_auth_zero_rtt(&z, SimTime::from_millis(t + 2_000)),
        Ok(true)
    );
    assert_eq!(
        proxy.on_auth_zero_rtt(&z, SimTime::from_millis(t + 2_100)),
        Err(AuthError::Transport(QuicError::Replayed))
    );

    // A quarantine release: an unproven command is held, then a late
    // proof inside the deadline releases it.
    let t = t + 60_000;
    assert_eq!(proxy.on_packet(&pkt(t, 0, 235)), ProxyDecision::Quarantine);
    assert_eq!(prove(&mut proxy, &mut app, t + 2_000), Ok(true));
    assert_eq!(proxy.take_quarantine_releases().len(), 1);
    assert_eq!(
        proxy.on_packet(&pkt(t + 2_500, 0, 235)),
        ProxyDecision::Allow(AllowReason::QuarantineReleased)
    );

    // Quarantine expiries: unproven commands past their deadline, until
    // the lockout threshold trips.
    let mut t = t + 60_000;
    while !proxy.is_locked(0) {
        proxy.on_packet(&pkt(t, 0, 235));
        t += 2 * PROOF_DEADLINE_MS;
    }
    proxy.on_packet(&pkt(t, 0, 235)); // locked out
    proxy.clear_lockout(0);
    assert!(!proxy.is_locked(0));

    // Degraded mode: decisions flagged while the control plane is away.
    let t = t + 60_000;
    proxy.set_degraded(SimTime::from_millis(t), true);
    proxy.on_packet(&pkt(t, 0, 100));
    proxy.on_packet(&pkt(t + 1_000, 0, 999));
    proxy.set_degraded(SimTime::from_millis(t + 2_000), false);

    // Epoch 1: a second app's accepted proof, then epoch 0 is retired
    // and the first app's ticket refused.
    let t = t + 60_000;
    assert_eq!(proxy.rotate_ticket_epoch(), 1);
    let mut app2 = paired_app(&mut proxy, 2);
    assert_eq!(prove(&mut proxy, &mut app2, t), Ok(true));
    assert_eq!(proxy.retire_ticket_epochs_below(1), 1);
    assert_eq!(
        prove(&mut proxy, &mut app, t + 1_000),
        Err(AuthError::Transport(QuicError::RetiredEpoch))
    );

    // A device the proxy never registered.
    proxy.on_packet(&pkt(t + 2_000, 7, 100));

    let s = proxy.stats();
    assert!(s.rule_hit > 0 && s.non_manual > 0 && s.manual_verified == 0);
    assert!(s.quarantine_released > 0 && s.quarantine_expired > 0);
    assert!(s.dropped_lockout > 0 && s.unknown_device > 0);
    assert_eq!(proxy.telemetry().lockout_count(), 1);
    assert!(proxy.telemetry().degraded_decision_count() > 0);

    // Restore into a fresh registry and keep deciding there.
    let restored_registry = MetricRegistry::new();
    let mut restored = FiatProxy::restore(
        config(),
        &SECRET,
        validator(),
        telemetry(&restored_registry),
        &proxy.snapshot(),
        |_| EventClassifier::simple_rule(235),
    )
    .unwrap();
    restored.set_hook(Box::new(events.clone()));
    let t = t + 60_000;
    assert_eq!(
        restored.on_packet(&pkt(t, 0, 100)),
        ProxyDecision::Allow(AllowReason::RuleHit)
    );
    assert!(restored.on_packet(&pkt(t + 1_000, 0, 999)).is_allow());
    assert_eq!(prove(&mut restored, &mut app2, t + 2_000), Ok(true));

    let events = events.0.lock().unwrap().clone();
    Driven {
        events,
        registry,
        timing: proxy.telemetry().timing().clone(),
        restored_registry,
        restored_timing: restored.telemetry().timing().clone(),
    }
}

#[test]
fn merged_exposition_matches_golden() {
    let d = drive();
    let merged = MetricRegistry::new();
    merged.merge_from(&d.registry);
    merged.merge_from(&d.restored_registry);
    let timing = MetricRegistry::new();
    timing.merge_from(&d.timing);
    timing.merge_from(&d.restored_timing);

    assert_eq!(d.registry.len(), 43);
    assert_eq!(d.restored_registry.len(), 42);
    assert_eq!(merged.len(), 43);
    assert_eq!(timing.len(), 4);
    assert_eq!(
        merged.render_prometheus(),
        include_str!("golden/exposition.prom")
    );
    assert_eq!(merged.render_json(), include_str!("golden/exposition.json"));
    assert_eq!(
        timing.render_prometheus(),
        include_str!("golden/timing.prom")
    );
}

#[test]
fn event_stream_matches_golden() {
    assert_eq!(drive().events, include_str!("golden/events.txt"));
}

/// Drive a fresh proxy through bootstrap, one rule hit and one rule miss.
fn learn_and_match(proxy: &mut FiatProxy) {
    let t = bootstrap(proxy);
    assert_eq!(
        proxy.on_packet(&pkt(t, 0, 100)),
        ProxyDecision::Allow(AllowReason::RuleHit)
    );
    assert!(proxy.on_packet(&pkt(t + 1_000, 0, 999)).is_allow());
}

#[test]
fn two_proxies_share_one_registry() {
    let alone = MetricRegistry::new();
    learn_and_match(&mut proxy(&alone));

    let shared = MetricRegistry::new();
    let mut a = proxy(&shared);
    let mut b = proxy(&shared);
    learn_and_match(&mut a);
    learn_and_match(&mut b);

    // Same series as one proxy alone, each counting both proxies.
    assert_eq!(shared.len(), alone.len());
    let hits = |r: &MetricRegistry| {
        r.counter(
            "fiat_proxy_decisions_total",
            &[("decision", "allow"), ("reason", "rule_hit")],
        )
        .get()
    };
    assert_eq!(hits(&alone), 1);
    assert_eq!(hits(&shared), 2);
    // Every counter and gauge of the shared registry is what two
    // separate registries merged would hold.
    let twice = MetricRegistry::new();
    twice.merge_from(&alone);
    let other = MetricRegistry::new();
    learn_and_match(&mut proxy(&other));
    twice.merge_from(&other);
    assert_eq!(shared.snapshot().counters, twice.snapshot().counters);
    assert_eq!(shared.snapshot().gauges, twice.snapshot().gauges);
}

#[test]
fn lookup_before_rules_attach_is_not_a_second_series() {
    let registry = MetricRegistry::new();
    let mut proxy = proxy(&registry);
    let before = registry.len();
    let early = registry.counter("fiat_rules_match_total", &[("outcome", "hit")]);
    assert_eq!(early.get(), 0);
    assert_eq!(registry.len(), before + 1);

    learn_and_match(&mut proxy);

    // Learning added the other three rule series, not a second copy of
    // the one looked up early.
    assert_eq!(registry.len(), before + 4);
    let text = registry.render_prometheus();
    assert_eq!(
        text.matches("fiat_rules_match_total{outcome=\"hit\"}")
            .count(),
        1,
        "{text}"
    );
    assert!(
        text.contains("fiat_rules_match_total{outcome=\"hit\"} 1\n"),
        "{text}"
    );
    assert_eq!(
        registry
            .counter("fiat_rules_match_total", &[("outcome", "hit")])
            .get(),
        1
    );
    assert_eq!(
        text.matches("# TYPE fiat_rules_match_total counter")
            .count(),
        1
    );
}
