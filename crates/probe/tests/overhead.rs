//! The off-by-default guarantee, made checkable: with no [`ProxyHook`]
//! installed, the probe layer must add nothing to the decide hot path —
//! in particular, zero heap allocations per steady-state rule-hit
//! decision through the full `FiatProxy::on_packet` path (hook check,
//! telemetry and all).
//!
//! [`CountingAllocator`] is this crate's own probe; using it to prove
//! the probes-off state keeps the claim honest. The file holds exactly
//! one test so no concurrent test thread can perturb the counters.

use fiat_core::{FiatProxy, ProxyConfig, ProxyHook};
use fiat_net::{
    Direction, DnsTable, PacketRecord, SimTime, TcpFlags, TlsVersion, TrafficClass, Transport,
};
use fiat_probe::{thread_allocations, AllocScope, CountingAllocator};
use fiat_sensors::HumannessValidator;
use std::net::Ipv4Addr;

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

const PERIOD_US: u64 = 60_000_000; // one packet a minute: a clean rule

fn pkt(ts_us: u64, remote_ip: Ipv4Addr, size: u16) -> PacketRecord {
    PacketRecord {
        ts: SimTime::from_micros(ts_us),
        device: 0,
        direction: Direction::FromDevice,
        local_ip: Ipv4Addr::new(192, 168, 1, 2),
        remote_ip,
        local_port: 40_000,
        remote_port: 443,
        transport: Transport::Tcp,
        tcp_flags: TcpFlags::ack(),
        tls: TlsVersion::None,
        size,
        label: TrafficClass::Control,
    }
}

#[test]
fn probes_off_decide_path_does_not_allocate() {
    let remote = Ipv4Addr::new(34, 9, 9, 9);
    let mut dns = DnsTable::new();
    dns.observe_forward(remote, "cloud.example.com");

    let config = ProxyConfig::default();
    let bootstrap_us = config.bootstrap.as_micros();
    let validator = HumannessValidator::with_operating_point(0.934, 0.982, 0);
    let mut proxy = FiatProxy::new(config, &[9u8; 32], validator);
    proxy.set_dns(dns);
    proxy.start(SimTime::ZERO);

    // Bootstrap: learn one periodic flow.
    let mut ts = 0;
    while ts < bootstrap_us {
        assert!(proxy.on_packet(&pkt(ts, remote, 235)).is_allow());
        ts += PERIOD_US;
    }

    // Warm up past every one-time effect: the first post-bootstrap
    // packet triggers rule learning.
    let mut hits = 0u64;
    for _ in 0..512 {
        if proxy.on_packet(&pkt(ts, remote, 235)).is_allow() {
            hits += 1;
        }
        ts += PERIOD_US;
    }
    assert_eq!(hits, 512, "the periodic flow must be a steady rule hit");

    // Probe packets built outside the measured region.
    let probes: Vec<PacketRecord> = (0..100)
        .map(|i| pkt(ts + i * PERIOD_US, remote, 235))
        .collect();
    ts += 100 * PERIOD_US;

    let scope = AllocScope::enter();
    let mut measured_hits = 0u64;
    for _ in 0..100 {
        for p in &probes {
            if proxy.on_packet(p).is_allow() {
                measured_hits += 1;
            }
        }
    }
    let allocs = scope.delta();

    assert_eq!(measured_hits, 10_000);
    assert_eq!(
        allocs, 0,
        "probes-off on_packet allocated {allocs} times over 10000 decisions"
    );
    // The counters themselves saw the earlier setup, proving the probe
    // was live while the measured region stayed clean.
    assert!(thread_allocations() > 0);

    // Installing a hook is the *on* state; it may allocate (that is the
    // probe's cost), but flipping it on must be explicit:
    struct Nop;
    impl ProxyHook for Nop {}
    proxy.set_hook(Box::new(Nop));
    assert!(proxy.on_packet(&pkt(ts, remote, 235)).is_allow());
}
