//! Threat-model walkthrough (§5.1, §7): each attacker from the paper
//! tries to actuate a smart plug through the FIAT proxy.
//!
//! 1. Remote account compromise — command injected from the cloud with no
//!    phone interaction: **blocked** (manual event, no humanness).
//! 2. Spyware on the paired phone, phone resting on a table — evidence is
//!    real but shows no motion: **blocked**.
//! 3. LAN attacker replaying a captured 0-RTT evidence packet: **blocked**
//!    by the replay store.
//! 4. Unpaired device forging evidence: **blocked** by the channel keys.
//! 5. Brute force — repeated injections: **device locked out**.
//! 6. The paper's residual risk: spyware that piggybacks on a genuine
//!    user interaction **succeeds** (§7 "Potential Attack").
//!
//! Run: `cargo run --release --example attack_scenarios`

use fiat::core::FiatProxy;
use fiat::prelude::*;
use std::net::Ipv4Addr;

const PLUG: u16 = 3;

fn plug_command(t: SimTime) -> PacketRecord {
    PacketRecord {
        ts: t,
        device: PLUG,
        direction: Direction::ToDevice,
        local_ip: Ipv4Addr::new(192, 168, 1, 13),
        remote_ip: Ipv4Addr::new(34, 0, 190, 0),
        local_port: 50_000,
        remote_port: 443,
        transport: Transport::Tcp,
        tcp_flags: fiat::net::TcpFlags::psh_ack(),
        tls: fiat::net::TlsVersion::Tls12,
        size: 235,
        label: TrafficClass::Manual,
    }
}

fn main() {
    let ceremony = [0x31u8; 32];
    let validator = HumannessValidator::with_operating_point(1.0, 1.0, 0);
    let mut proxy = FiatProxy::new(ProxyConfig::default(), &ceremony, validator);
    proxy.register_device(PLUG, EventClassifier::simple_rule(235), 1);
    proxy.start(SimTime::ZERO);

    // Skip bootstrap (nothing to learn for this demo).
    let t0 = SimTime::ZERO + SimDuration::from_mins(21);
    // Prime rule learning with an empty bootstrap.
    proxy.on_packet(&{
        let mut p = plug_command(t0);
        p.size = 60; // keepalive-sized, lands in the event path harmlessly
        p
    });

    let mut app = FiatApp::new(&ceremony, 0);
    let hello = app.handshake_request();
    let sh = proxy.accept_handshake(&hello);
    app.complete_handshake(&sh).unwrap();

    println!("=== 1. Remote account compromise (no phone interaction) ===");
    let t = t0 + SimDuration::from_mins(1);
    let d = proxy.on_packet(&plug_command(t));
    println!("command verdict: {d:?}");
    assert!(!d.is_allow());

    println!("\n=== 2. Spyware with a resting phone ===");
    let t = t + SimDuration::from_mins(2);
    let imu = ImuTrace::synthesize(MotionKind::Resting, 500, 1);
    let z = app
        .authorize_zero_rtt("plug.app", &imu, MotionKind::Resting, t.as_micros())
        .unwrap();
    let human = proxy.on_auth_zero_rtt(&z, t).unwrap();
    println!("evidence verdict: human = {human}");
    let d = proxy.on_packet(&plug_command(t + SimDuration::from_millis(300)));
    println!("command verdict: {d:?}");
    assert!(!d.is_allow());

    println!("\n=== 3. LAN replay of captured evidence ===");
    let t = t + SimDuration::from_mins(3);
    let imu = ImuTrace::synthesize(MotionKind::HumanTouch, 500, 2);
    let z = app
        .authorize_zero_rtt("plug.app", &imu, MotionKind::HumanTouch, t.as_micros())
        .unwrap();
    assert!(proxy.on_auth_zero_rtt(&z, t).unwrap());
    let replay_at = t + SimDuration::from_mins(10);
    let replayed = proxy.on_auth_zero_rtt(&z, replay_at);
    println!("replayed evidence: {replayed:?}");
    assert!(replayed.is_err());

    println!("\n=== 4. Unpaired device forging evidence ===");
    let mut rogue = FiatApp::new(&[0x99u8; 32], 1);
    let hello = rogue.handshake_request();
    let sh = proxy.accept_handshake(&hello);
    rogue.complete_handshake(&sh).unwrap();
    let imu = ImuTrace::synthesize(MotionKind::HumanTouch, 500, 3);
    let z = rogue
        .authorize_zero_rtt(
            "plug.app",
            &imu,
            MotionKind::HumanTouch,
            replay_at.as_micros(),
        )
        .unwrap();
    let forged = proxy.on_auth_zero_rtt(&z, replay_at + SimDuration::from_secs(1));
    println!("forged evidence: {forged:?}");
    assert!(forged.is_err());

    println!("\n=== 5. Brute force triggers lockout ===");
    // `lockout_threshold` unverified events are tolerated; one more locks.
    let mut t = replay_at + SimDuration::from_mins(5);
    for _ in 0..=ProxyConfig::default().lockout_threshold {
        let d = proxy.on_packet(&plug_command(t));
        println!("injection verdict: {d:?}");
        t += SimDuration::from_secs(10);
    }
    println!("plug locked out: {}", proxy.is_locked(PLUG));
    assert!(proxy.is_locked(PLUG));
    proxy.clear_lockout(PLUG);
    println!("owner cleared the lockout");

    println!("\n=== 6. Residual risk: piggybacking on a real interaction ===");
    // The user genuinely opens the plug app (spyware observes this) and
    // the attacker fires a command inside the humanness window.
    let t = t + SimDuration::from_mins(5);
    let imu = ImuTrace::synthesize(MotionKind::HumanTouch, 500, 4);
    let z = app
        .authorize_zero_rtt("plug.app", &imu, MotionKind::HumanTouch, t.as_micros())
        .unwrap();
    proxy.on_auth_zero_rtt(&z, t).unwrap();
    let d = proxy.on_packet(&plug_command(t + SimDuration::from_secs(2)));
    println!("piggybacked command verdict: {d:?} (the paper's acknowledged limitation)");
    assert!(d.is_allow());

    println!(
        "\naudit trail: {} entries, tamper-evident chain valid: {}",
        proxy.audit().len(),
        proxy.audit().verify()
    );
}
