//! Exact counts of the locked instructions telemetry makes per
//! operation.
//!
//! Every atomic read-modify-write on a telemetry cell (`fetch_add`,
//! `fetch_max`) is a `lock`-prefixed instruction on x86_64. The proxy's
//! own counters and gauges are cells it alone writes
//! (`MetricRegistry::attach_writer`), updated with a plain load and
//! store, so the per-packet paths make none. What is left is pinned here:
//! the stage histograms (five read-modify-writes per sample: bucket,
//! count, sum, min, max) and the QUIC channel's shared counters and
//! per-epoch replay gauge. `fiat-telemetry`'s `count-work` feature counts
//! them per thread; the tests read the calling thread's count, so other
//! tests running concurrently do not disturb them.

use fiat_core::{
    AllowReason, EventClassifier, FiatApp, FiatProxy, ProxyConfig, ProxyDecision, ProxyTelemetry,
    DECIDE_SAMPLE_EVERY,
};
use fiat_net::{Direction, PacketRecord, SimTime, TcpFlags, TlsVersion, TrafficClass, Transport};
use fiat_sensors::{HumannessValidator, ImuTrace, MotionKind};
use fiat_telemetry::work::locked_ops;
use fiat_telemetry::{ManualClock, MetricRegistry};
use std::net::Ipv4Addr;
use std::sync::Arc;

const SECRET: [u8; 32] = [0x3c; 32];
/// Locked operations in one stage-histogram sample.
const HISTOGRAM_SAMPLE: u64 = 5;

fn pkt(ts_ms: u64, size: u16) -> PacketRecord {
    PacketRecord {
        ts: SimTime::from_millis(ts_ms),
        device: 0,
        direction: Direction::ToDevice,
        local_ip: Ipv4Addr::new(192, 168, 1, 10),
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

/// The calling thread's locked operations in `f`, and its result.
fn locked<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = locked_ops();
    let out = f();
    (locked_ops() - before, out)
}

/// A proxy on its own registry with one plug (manual on 235 B, N = 1),
/// and the number of packets it has decided, which picks the sampled
/// decides.
struct Home {
    proxy: FiatProxy,
    decided: u64,
}

impl Home {
    fn new() -> Self {
        let telemetry = ProxyTelemetry::new(MetricRegistry::new(), Arc::new(ManualClock::new()));
        let validator = HumannessValidator::with_operating_point(1.0, 1.0, 0);
        let mut proxy =
            FiatProxy::with_telemetry(ProxyConfig::default(), &SECRET, validator, telemetry);
        proxy.register_device(0, EventClassifier::simple_rule(235), 1);
        proxy.start(SimTime::ZERO);
        Home { proxy, decided: 0 }
    }

    /// Whether the next packet's decide is the sampled one.
    fn next_sampled(&self) -> bool {
        self.decided.is_multiple_of(DECIDE_SAMPLE_EVERY)
    }

    /// Decide one packet; returns its locked operations and decision.
    fn packet(&mut self, p: PacketRecord) -> (u64, ProxyDecision) {
        self.decided += 1;
        locked(|| self.proxy.on_packet(&p))
    }

    /// Bootstrap on a 100 B flow every 10 s, then one packet to learn the
    /// rules; returns the next free time (ms).
    fn past_bootstrap(&mut self) -> u64 {
        let mut t = 0;
        while t <= 20 * 60 * 1000 {
            self.packet(pkt(t, 100));
            t += 10_000;
        }
        t
    }
}

#[test]
fn a_bootstrap_packet_makes_no_locked_operation() {
    let mut home = Home::new();
    home.packet(pkt(0, 100)); // the first decide is sampled
    assert!(!home.next_sampled());
    let (n, d) = home.packet(pkt(10_000, 100));
    assert_eq!(d, ProxyDecision::Allow(AllowReason::Bootstrap));
    assert_eq!(n, 0, "a bootstrap packet made {n} locked operations");
}

#[test]
fn a_rule_hit_makes_no_locked_operation_and_a_sampled_one_the_histogram_five() {
    let mut home = Home::new();
    let mut t = home.past_bootstrap();
    let mut unsampled = 0;
    for _ in 0..2 * DECIDE_SAMPLE_EVERY {
        let sampled = home.next_sampled();
        let (n, d) = home.packet(pkt(t, 100));
        assert_eq!(d, ProxyDecision::Allow(AllowReason::RuleHit));
        if sampled {
            assert_eq!(n, HISTOGRAM_SAMPLE, "a sampled rule hit made {n}");
        } else {
            assert_eq!(n, 0, "a rule hit made {n} locked operations");
            unsampled += 1;
        }
        t += 10_000;
    }
    assert_eq!(unsampled, 2 * (DECIDE_SAMPLE_EVERY - 1));
}

#[test]
fn a_classified_event_makes_only_its_classification_sample() {
    let mut home = Home::new();
    let t = home.past_bootstrap();
    assert!(!home.next_sampled());
    // A rule miss opens an event that N = 1 classifies at once:
    // non-manual.
    let (n, d) = home.packet(pkt(t, 999));
    assert_eq!(d, ProxyDecision::Allow(AllowReason::NonManual));
    assert_eq!(n, HISTOGRAM_SAMPLE, "a classified event made {n}");
    // The event's next packet rides its sealed fate.
    assert!(!home.next_sampled());
    let (n, d) = home.packet(pkt(t + 100, 999));
    assert_eq!(d, ProxyDecision::Allow(AllowReason::NonManual));
    assert_eq!(n, 0, "a packet of a sealed event made {n}");
}

#[test]
fn a_verified_proof_makes_its_channel_counts_and_one_sample() {
    let mut home = Home::new();
    let t = home.past_bootstrap();
    let mut app = FiatApp::new(&SECRET, 1);
    let sh = home.proxy.accept_handshake(&app.handshake_request());
    app.complete_handshake(&sh).unwrap();
    let imu = ImuTrace::synthesize(MotionKind::HumanTouch, 500, 3);
    let z = app
        .authorize_zero_rtt("app", &imu, MotionKind::HumanTouch, t)
        .unwrap();
    let (n, verified) = locked(|| home.proxy.on_auth_zero_rtt(&z, SimTime::from_millis(t)));
    assert_eq!(verified, Ok(true));
    // The shared `fiat_quic_zero_rtt_total{result="accepted"}` counter,
    // the epoch's string-keyed replay-entries gauge, and the humanness
    // stage sample. `fiat_proxy_auth_total` is the proxy's own cell.
    assert_eq!(n, 2 + HISTOGRAM_SAMPLE, "a verified 0-RTT proof made {n}");
}
