//! The allocation discipline, made checkable: after construction the
//! engine's entire observe path — evidence accumulation, window sealing,
//! and the sealed-verdict steady state — must not touch the heap. All
//! evidence lives in fixed arrays inside two `Vec`s preallocated to
//! their LRU caps, and every decision is integer arithmetic.
//!
//! The file holds exactly one test so no concurrent test thread can
//! perturb the allocator counters.

use fiat_core::FingerprintGate;
use fiat_fingerprint::{FingerprintEngine, MatcherConfig, SignatureSet};
use fiat_net::{
    Direction, DnsTable, PacketRecord, SimTime, TcpFlags, TlsVersion, TrafficClass, Transport,
};
use fiat_probe::{thread_allocations, AllocScope, CountingAllocator};
use fiat_trace::fingerprint_corpus;
use std::net::Ipv4Addr;

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

#[test]
fn observe_path_does_not_allocate() {
    // Setup (allocates freely): train, build the DNS view and packets.
    let cfg = MatcherConfig::default();
    let corpus = fingerprint_corpus(1);
    let mut engine = FingerprintEngine::new(SignatureSet::learn(&corpus, cfg.evidence_window), cfg);
    let mut dns = DnsTable::new();
    for (_, trace) in &corpus {
        dns.merge(&trace.dns);
    }
    let window = cfg.evidence_window as usize;
    let remote = Ipv4Addr::new(34, 9, 9, 9);
    let packets: Vec<PacketRecord> = (0..300u64)
        .map(|i| PacketRecord {
            ts: SimTime::from_millis(i * 40),
            device: 800 + (i / window as u64) as u16,
            direction: Direction::FromDevice,
            local_ip: Ipv4Addr::new(192, 168, 1, 7),
            remote_ip: remote,
            local_port: 50_000,
            remote_port: 443,
            transport: Transport::Tcp,
            tcp_flags: TcpFlags::psh_ack(),
            tls: TlsVersion::None,
            size: 999,
            label: TrafficClass::Control,
        })
        .collect();

    // Measured region: fill and seal a dozen evidence windows, then
    // hammer the sealed steady state.
    let scope = AllocScope::enter();
    let mut sealed = 0u64;
    for pkt in &packets {
        if engine.observe(pkt, &dns).just_sealed {
            sealed += 1;
        }
    }
    for _ in 0..1000 {
        let obs = engine.observe(&packets[0], &dns);
        assert!(!obs.just_sealed);
    }
    let allocs = scope.delta();

    assert_eq!(sealed, 300 / window as u64);
    assert_eq!(
        allocs,
        0,
        "fingerprint observe path allocated {allocs} times over {} packets",
        packets.len() + 1000
    );
    // The counters saw the training setup, proving the probe was live
    // while the measured region stayed clean.
    assert!(thread_allocations() > 0);
}
