//! Event-driven staging of the Table 7 race: for each user interaction,
//! two events enter a timeline — the 0-RTT humanness evidence (phone →
//! proxy) and the IoT command (phone → cloud → proxy) — and the proxy
//! decides the command whenever it actually arrives. The timeline is a
//! `Vec` stable-sorted by arrival time, so events at equal timestamps
//! fire in the order they were staged. Exercises `HomeNetwork`, the QUIC
//! channel, and the access-control pipeline together.

use fiat::core::client::{ML_VALIDATION, ZERO_RTT_PROC};
use fiat::core::{FiatProxy, ProxyConfig};
use fiat::net::{Direction, TcpFlags, TlsVersion, Transport};
use fiat::prelude::*;
use fiat::quic::ZeroRttPacket;
use std::net::Ipv4Addr;

const CEREMONY: [u8; 32] = [0x61; 32];
const PLUG: u16 = 3;

enum Event {
    /// Evidence packet reaches the proxy.
    Evidence(Box<ZeroRttPacket>),
    /// The IoT command's first packet reaches the proxy.
    Command,
}

/// Events in arrival order; ties keep staging order (stable sort).
fn in_arrival_order(mut timeline: Vec<(SimTime, Event)>) -> Vec<(SimTime, Event)> {
    timeline.sort_by_key(|(at, _)| *at);
    timeline
}

fn plug_command(ts: SimTime) -> PacketRecord {
    PacketRecord {
        ts,
        device: PLUG,
        direction: Direction::ToDevice,
        local_ip: Ipv4Addr::new(192, 168, 1, 13),
        remote_ip: Ipv4Addr::new(34, 0, 190, 0),
        local_port: 50_000,
        remote_port: 443,
        transport: Transport::Tcp,
        tcp_flags: TcpFlags::psh_ack(),
        tls: TlsVersion::Tls12,
        size: 235,
        label: TrafficClass::Manual,
    }
}

fn run_scenario(loc: PhoneLocation, interactions: usize) -> (usize, usize) {
    let validator = HumannessValidator::with_operating_point(1.0, 1.0, 0);
    let mut proxy = FiatProxy::new(ProxyConfig::default(), &CEREMONY, validator);
    proxy.register_device(PLUG, EventClassifier::simple_rule(235), 1);
    proxy.start(SimTime::ZERO);

    let mut app = FiatApp::new(&CEREMONY, 9);
    let hello = app.handshake_request();
    let sh = proxy.accept_handshake(&hello);
    app.complete_handshake(&sh).unwrap();

    let mut net = HomeNetwork::new(17);
    let mut timeline = Vec::new();

    // Interactions spaced a minute apart, starting after bootstrap.
    let bootstrap_end = SimTime::ZERO + SimDuration::from_mins(20);
    for k in 0..interactions {
        let tap = bootstrap_end + SimDuration::from_secs(60 * (k as u64 + 1));
        // The app's client-side critical path, then one flight to the
        // proxy, then 0-RTT processing and inference.
        let comp = app.sample_latency();
        let evidence_arrival =
            tap + comp.critical_path() + net.phone_to_proxy(loc) + ZERO_RTT_PROC + ML_VALIDATION;
        let imu = ImuTrace::synthesize(MotionKind::HumanTouch, 500, 400 + k as u64);
        let z = app
            .authorize_zero_rtt("plug.app", &imu, MotionKind::HumanTouch, tap.as_micros())
            .unwrap();
        timeline.push((evidence_arrival, Event::Evidence(Box::new(z))));
        // The command goes phone → vendor cloud → device push.
        let command_arrival = tap + net.command_first_packet(loc);
        timeline.push((command_arrival, Event::Command));
    }

    let mut allowed = 0usize;
    let mut total = 0usize;
    for (now, event) in in_arrival_order(timeline) {
        match event {
            Event::Evidence(z) => {
                proxy.on_auth_zero_rtt(&z, now).expect("evidence accepted");
            }
            Event::Command => {
                total += 1;
                if proxy.on_packet(&plug_command(now)).is_allow() {
                    allowed += 1;
                }
            }
        }
    }
    (allowed, total)
}

#[test]
fn evidence_always_wins_the_race_on_lan() {
    let (allowed, total) = run_scenario(PhoneLocation::Lan, 20);
    assert_eq!(total, 20);
    assert_eq!(allowed, 20, "every LAN command should be pre-authorized");
}

#[test]
fn evidence_always_wins_the_race_on_mobile() {
    let (allowed, total) = run_scenario(PhoneLocation::Mobile, 20);
    assert_eq!(total, 20);
    assert_eq!(allowed, 20, "every mobile command should be pre-authorized");
}

#[test]
fn without_evidence_the_same_commands_drop() {
    let validator = HumannessValidator::with_operating_point(1.0, 1.0, 0);
    let mut proxy = FiatProxy::new(
        ProxyConfig {
            lockout_threshold: u32::MAX,
            ..ProxyConfig::default()
        },
        &CEREMONY,
        validator,
    );
    proxy.register_device(PLUG, EventClassifier::simple_rule(235), 1);
    proxy.start(SimTime::ZERO);
    let mut net = HomeNetwork::new(17);
    let mut timeline = Vec::new();
    let bootstrap_end = SimTime::ZERO + SimDuration::from_mins(20);
    for k in 0..10 {
        let tap = bootstrap_end + SimDuration::from_secs(60 * (k + 1));
        timeline.push((
            tap + net.command_first_packet(PhoneLocation::Lan),
            Event::Command,
        ));
    }
    let mut dropped = 0;
    for (now, event) in in_arrival_order(timeline) {
        if let Event::Command = event {
            if !proxy.on_packet(&plug_command(now)).is_allow() {
                dropped += 1;
            }
        }
    }
    assert_eq!(dropped, 10);
}
