//! Allocation proofs for the per-packet rule-match path and for the
//! whole rule-hit decision.
//!
//! `RuleTable::matches` keys lookups on [`InternedFlowKey`] (remote
//! domains interned to dense ids in the `DnsTable`), so deciding a
//! packet must never touch the heap — for rule hits, misses, known
//! domains, and unknown IPs alike. `FiatProxy::on_packet` wraps that
//! match in the decision ladder, counters and the sampled decide timing,
//! and a rule hit must stay allocation-free through all of it. A
//! counting `#[global_allocator]` makes both claims checkable. The
//! counter is *per thread*: the libtest harness thread and the other
//! test can allocate (watchdog timers, output buffering) concurrently
//! with a measured region — on a loaded single-core host that made a
//! process-wide counter flake.

use fiat_core::{FiatProxy, PredictabilityEngine, ProxyConfig, RuleTable, DECIDE_SAMPLE_EVERY};
use fiat_net::{
    Direction, DnsTable, FlowDef, PacketRecord, SimTime, TcpFlags, TlsVersion, TrafficClass,
    Transport,
};
use fiat_sensors::HumannessValidator;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;

struct CountingAlloc;

thread_local! {
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn thread_allocations() -> u64 {
    THREAD_ALLOCATIONS.try_with(Cell::get).unwrap_or(0)
}

#[inline]
fn count_one() {
    // `try_with`: never panic if TLS is unavailable (thread teardown).
    let _ = THREAD_ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

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
fn rule_match_path_does_not_allocate() {
    let known = Ipv4Addr::new(34, 9, 9, 9);
    let unknown = Ipv4Addr::new(203, 0, 113, 7);
    let mut dns = DnsTable::new();
    dns.observe_forward(known, "cloud.example.com");

    // Learn a table with a real rule: one flow repeating a 60 s period.
    let bootstrap: Vec<PacketRecord> = (0..10).map(|i| pkt(i * 60_000_000, known, 235)).collect();
    let engine = PredictabilityEngine::new(FlowDef::PortLess);
    let rules = RuleTable::learn(&engine, &bootstrap, &dns);
    assert!(!rules.is_empty(), "bootstrap must learn at least one rule");

    // Probe packets built outside the measured region: a rule hit on a
    // known domain, a size miss on the same domain, and an unknown
    // remote IP (the dotted-quad fallback flow).
    let probes = [
        pkt(601_000_000, known, 235),
        pkt(602_000_000, known, 900),
        pkt(603_000_000, unknown, 235),
    ];

    // Warm up once (first lookups may lazily touch nothing, but keep the
    // measured region free of any one-time effects regardless).
    for p in &probes {
        rules.matches(FlowDef::PortLess, p, &dns);
    }

    let before = thread_allocations();
    let mut hits = 0u32;
    for _ in 0..10_000 {
        for p in &probes {
            if rules.matches(FlowDef::PortLess, p, &dns) {
                hits += 1;
            }
        }
    }
    let after = thread_allocations();

    assert_eq!(hits, 10_000, "exactly the known periodic probe should hit");
    assert_eq!(
        after - before,
        0,
        "rule-match path allocated on the heap ({} allocations over 30000 lookups)",
        after - before
    );
}

#[test]
fn rule_hit_decision_does_not_allocate() {
    const PERIOD_US: u64 = 60_000_000; // one packet a minute: a clean rule
    let remote = Ipv4Addr::new(34, 9, 9, 9);
    let mut dns = DnsTable::new();
    dns.observe_forward(remote, "cloud.example.com");

    // A proxy on the default wall-clock telemetry, so sampled decides
    // read the real clock and record into the timing registry.
    let config = ProxyConfig::default();
    let bootstrap_us = config.bootstrap.as_micros();
    let validator = HumannessValidator::with_operating_point(0.934, 0.982, 0);
    let mut proxy = FiatProxy::new(config, &[9u8; 32], validator);
    proxy.set_dns(dns);
    proxy.start(SimTime::ZERO);

    // Bootstrap one periodic flow, then warm up past rule learning.
    let mut ts = 0;
    while ts < bootstrap_us {
        proxy.on_packet(&pkt(ts, remote, 235));
        ts += PERIOD_US;
    }
    for _ in 0..DECIDE_SAMPLE_EVERY {
        assert!(proxy.on_packet(&pkt(ts, remote, 235)).is_allow());
        ts += PERIOD_US;
    }

    // Four sampling periods: four sampled decides inside the region.
    let n = 4 * DECIDE_SAMPLE_EVERY;
    let probes: Vec<PacketRecord> = (0..n)
        .map(|i| pkt(ts + i * PERIOD_US, remote, 235))
        .collect();
    let decide = proxy
        .telemetry()
        .timing()
        .histogram("fiat_proxy_stage_ns", &[("stage", "decide")]);
    let samples_before = decide.count();
    let hits_before = proxy.stats().rule_hit;

    let before = thread_allocations();
    for p in &probes {
        proxy.on_packet(p);
    }
    let after = thread_allocations();

    assert_eq!(
        proxy.stats().rule_hit - hits_before,
        n,
        "every probe must be a rule hit"
    );
    assert_eq!(decide.count() - samples_before, 4, "four decides sampled");
    assert_eq!(
        after - before,
        0,
        "rule-hit decision allocated on the heap ({} allocations over {n} packets)",
        after - before
    );
}
