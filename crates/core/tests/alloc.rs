//! Allocation proofs for the per-packet rule-match path, for the whole
//! rule-hit decision, for the event path (first-N packets, live and
//! retrospective classification, sealed events), for bootstrap rule
//! learning, for a home's telemetry set-up and merge, for the snapshot
//! codec and restore, for a proof payload and a snapshot that lie about
//! their lengths, and for verified 0-RTT and 1-RTT proofs.
//!
//! `RuleTable::matches_touch` keys lookups on [`InternedFlowKey`] (remote
//! domains interned to dense ids in the `DnsTable`), so deciding a
//! packet must never touch the heap — for rule hits, misses, known
//! domains, and unknown IPs alike. `FiatProxy::on_packet` wraps that
//! match in the decision ladder, counters and the sampled decide timing,
//! and a rule hit must stay allocation-free through all of it. A home's
//! telemetry is built from static schema parts, one cell array each, so
//! its set-up cost is a small fixed allocation count and merging it into
//! a registry that already holds the same parts allocates nothing. An
//! open event buffers its packets inline and is classified from a
//! stack array of features, so an unpredictable packet does not touch
//! the heap either, once the audit log has room for its entries. The
//! probe crate's counting `#[global_allocator]` makes these claims
//! checkable. The tests read its *per-thread* count: the libtest harness
//! thread and the other test can allocate (watchdog timers, output
//! buffering) concurrently with a measured region — on a loaded
//! single-core host that made a process-wide counter flake.

use fiat_core::classifier::event_dataset;
use fiat_core::{
    event_features, AllowReason, AuthMessage, AuthView, EventClassifier, FiatApp, FiatProxy,
    PredictabilityEngine, ProxyConfig, ProxyDecision, ProxyTelemetry, RuleTable, RuleTelemetry,
    SnapshotError, UnpredictableEvent, DECIDE_SAMPLE_EVERY,
};
use fiat_net::{
    Direction, DnsTable, FlowDef, PacketRecord, SimDuration, SimTime, TcpFlags, TlsVersion,
    TrafficClass, Transport,
};
use fiat_probe::{thread_allocations, CountingAllocator};
use fiat_sensors::{HumannessValidator, ImuTrace, MotionKind};
use fiat_telemetry::{Clock, ManualClock, MetricRegistry};
use std::collections::HashSet;
use std::net::Ipv4Addr;
use std::sync::Arc;

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

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
    let mut rules = RuleTable::learn(&engine, &bootstrap, &dns);
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
        rules.matches_touch(FlowDef::PortLess, p, &dns);
    }

    let before = thread_allocations();
    let mut hits = 0u32;
    for _ in 0..10_000 {
        for p in &probes {
            if rules.matches_touch(FlowDef::PortLess, p, &dns) {
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

/// A Bernoulli model trained on three separable toy classes: manual
/// TLS 1.3 bursts, automated TLS 1.2, and small plain control packets.
fn toy_bernoulli() -> EventClassifier {
    let remote = Ipv4Addr::new(34, 9, 9, 9);
    let mut packets = Vec::new();
    let mut events = Vec::new();
    for k in 0..30u64 {
        let (size, label, tls) = match k % 3 {
            0 => (900, TrafficClass::Manual, TlsVersion::Tls13),
            1 => (400, TrafficClass::Automated, TlsVersion::Tls12),
            _ => (150, TrafficClass::Control, TlsVersion::None),
        };
        let start = packets.len();
        for j in 0..3 {
            let mut p = pkt(k * 60_000_000 + j * 100_000, remote, size + (k % 5) as u16);
            p.label = label;
            p.tls = tls;
            packets.push(p);
        }
        events.push(UnpredictableEvent {
            device: 0,
            packets: (start..start + 3).collect(),
            start: packets[start].ts,
            end: packets[start + 2].ts,
        });
    }
    EventClassifier::train_bernoulli(&event_dataset(&events, &packets))
}

#[test]
fn event_path_does_not_allocate() {
    const ROUND_US: u64 = 60_000_000;
    let rule_remote = Ipv4Addr::new(34, 9, 9, 9);
    let event_remote = Ipv4Addr::new(52, 1, 2, 3);
    // A small audit cap: truncation keeps the log's length (and so its
    // capacity) bounded, so once warmed up it never grows again.
    let config = ProxyConfig {
        max_audit_entries: Some(4),
        ..ProxyConfig::default()
    };
    let bootstrap_us = config.bootstrap.as_micros();
    let validator = HumannessValidator::with_operating_point(0.934, 0.982, 0);
    let mut proxy = FiatProxy::new(config, &[9u8; 32], validator);
    // Device 0 runs the size rule, device 1 the Bernoulli model; both
    // classify at their fifth packet.
    proxy.register_device(0, EventClassifier::simple_rule(235), 5);
    proxy.register_device(1, toy_bernoulli(), 5);
    proxy.start(SimTime::ZERO);
    let mut ts = 0;
    while ts <= bootstrap_us {
        proxy.on_packet(&pkt(ts, rule_remote, 100));
        ts += ROUND_US;
    }
    assert!(proxy.rule_count() > 0);

    // Each round, per device: a six-packet event (four first-N packets,
    // the classification point, one sealed packet), then a two-packet
    // event on device 0 that the next round's first packet closes
    // below its classification point (a retrospective verdict).
    #[derive(Clone, Copy, Debug)]
    enum Step {
        FirstN,
        Simple,
        Bernoulli,
        Sealed,
        Retro,
    }
    let round = |start: u64| {
        let mut steps = Vec::new();
        for i in 0..6u64 {
            for device in [0u16, 1] {
                let mut p = pkt(start + i * 100_000, event_remote, 150 + i as u16);
                p.device = device;
                let step = match (i, device) {
                    (0, 0) => Step::Retro,
                    (0..=3, _) => Step::FirstN,
                    (4, 0) => Step::Simple,
                    (4, _) => Step::Bernoulli,
                    _ => Step::Sealed,
                };
                steps.push((step, p));
            }
        }
        for i in 0..2u64 {
            let p = pkt(start + 20_000_000 + i * 100_000, event_remote, 150);
            steps.push((Step::FirstN, p));
        }
        steps
    };
    let rounds: Vec<_> = (0..8u64).map(|r| round(ts + r * ROUND_US)).collect();
    let (warm_up, measured) = rounds.split_at(4);
    for (_, p) in warm_up.iter().flatten() {
        assert!(proxy.on_packet(p).is_allow());
    }
    let appended = proxy.audit().total_appended();
    let mut allocs = Vec::new();
    for &(step, ref p) in measured.iter().flatten() {
        let before = thread_allocations();
        let d = proxy.on_packet(p);
        allocs.push((step, thread_allocations() - before));
        match step {
            Step::FirstN | Step::Retro => assert_eq!(d, ProxyDecision::Allow(AllowReason::FirstN)),
            _ => assert_eq!(d, ProxyDecision::Allow(AllowReason::NonManual), "{step:?}"),
        }
    }
    // Two live classifications and one retrospective close per round.
    assert_eq!(proxy.audit().total_appended() - appended, 4 * 3);
    let allocating: Vec<_> = allocs.iter().filter(|(_, n)| *n > 0).collect();
    assert!(
        allocating.is_empty(),
        "event-path packets allocated: {allocating:?}"
    );
}

#[test]
fn standalone_classification_allocates_only_its_output() {
    let packets: Vec<PacketRecord> = (0..5)
        .map(|i| pkt(i * 100_000, Ipv4Addr::new(52, 1, 2, 3), 150))
        .collect();
    let event = UnpredictableEvent {
        device: 0,
        packets: (0..5).collect(),
        start: packets[0].ts,
        end: packets[4].ts,
    };
    for classifier in [EventClassifier::simple_rule(235), toy_bernoulli()] {
        let (n, _) = allocations(|| classifier.classify_event(&event, &packets));
        assert_eq!(n, 0, "classify_event made {n} allocations");
    }
    // The `Vec` wrapper allocates its output and nothing else.
    let (n, features) = allocations(|| event_features(&event, &packets));
    assert_eq!(features.len(), 66);
    assert_eq!(n, 1, "event_features made {n} allocations");
}

/// Heap allocations `f` makes on this thread, with its result.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = thread_allocations();
    let out = f();
    (thread_allocations() - before, out)
}

/// Twenty minutes of a two-device home: sixteen flows, a quarter each
/// periodic, periodic with jitter, irregular, and a sub-second burst.
fn multi_bucket_bootstrap() -> Vec<PacketRecord> {
    let remotes = [Ipv4Addr::new(34, 9, 9, 9), Ipv4Addr::new(203, 0, 113, 7)];
    let mut packets = Vec::new();
    for f in 0..16u64 {
        let start = f * 1_700_000;
        let mut ts = start;
        let mut i = 0;
        while ts < 1_200_000_000 {
            let mut p = pkt(ts, remotes[(f / 2 % 2) as usize], 100 + f as u16);
            p.device = (f % 2) as u16;
            packets.push(p);
            i += 1;
            ts += match f % 4 {
                0 => 30_000_000,
                1 => 45_000_000 + (i % 3) * 250_000,
                2 => 7_000_000 + f * 13_000 + i * i * 17_000,
                _ if i < 30 => 33_000,
                _ => u64::MAX / 2,
            };
        }
    }
    packets.sort_by_key(|p| p.ts);
    packets
}

#[test]
fn rule_learning_allocations_are_bounded() {
    let mut dns = DnsTable::new();
    dns.observe_forward(Ipv4Addr::new(34, 9, 9, 9), "cloud.example.com");
    let bootstrap = multi_bucket_bootstrap();
    let engine = PredictabilityEngine::new(FlowDef::PortLess);
    let (n, rules) = allocations(|| RuleTable::learn(&engine, &bootstrap, &dns));
    assert_eq!(
        rules.len(),
        8,
        "the periodic and jittered flows learn rules"
    );
    // The learner with a growable index list per bucket made 94
    // allocations here; the counting sort into one index array makes
    // 25. Every home learns once inside the serving loop, so learning
    // may not allocate per bin or per bucket.
    assert!(n <= 25, "RuleTable::learn made {n} allocations");
}

#[test]
fn untrusted_feature_count_sizes_nothing() {
    let msg = AuthMessage {
        app_package: "iot.app".into(),
        features: vec![0.5; 4],
        truth: MotionKind::HumanTouch,
        ts_micros: 7,
    };
    let mut bytes = msg.encode();
    // The feature count sits after the name, the truth byte and the time.
    let at = 2 + msg.app_package.len() + 1 + 8;
    bytes[at..at + 2].copy_from_slice(&u16::MAX.to_be_bytes());
    let (n, view) = allocations(|| AuthView::parse(&bytes));
    assert_eq!(view, None);
    assert_eq!(
        n, 0,
        "the view borrows the package name; the count sized nothing"
    );
    let (n, decoded) = allocations(|| AuthMessage::decode(&bytes));
    assert_eq!(decoded, None);
    assert_eq!(n, 0, "decode copies only a message the view accepted");
}

/// A proxy on its default wall-clock telemetry, and a paired app whose
/// handshake with it is done.
fn paired_proxy() -> (FiatProxy, FiatApp) {
    let validator = HumannessValidator::with_operating_point(1.0, 1.0, 0);
    let mut proxy = FiatProxy::new(fixture_config(), &[9u8; 32], validator);
    proxy.start(SimTime::ZERO);
    let mut app = FiatApp::new(&[9u8; 32], 1);
    let sh = proxy.accept_handshake(&app.handshake_request());
    app.complete_handshake(&sh).unwrap();
    (proxy, app)
}

/// Warm-up proofs before each measured region: the first 0-RTT proof
/// resolves its epoch's replay gauge, and the first proof of each kind
/// grows the QUIC server's plaintext buffer to the payload's size.
const WARM_PROOFS: usize = 4;
/// Proofs inside each measured region.
const MEASURED_PROOFS: usize = 60;

#[test]
fn verified_zero_rtt_proofs_allocate_only_replay_growth() {
    let (mut proxy, mut app) = paired_proxy();
    let imu = ImuTrace::synthesize(MotionKind::HumanTouch, 500, 3);
    let proofs: Vec<_> = (0..WARM_PROOFS + MEASURED_PROOFS)
        .map(|i| {
            app.authorize_zero_rtt("iot.app", &imu, MotionKind::HumanTouch, i as u64)
                .unwrap()
        })
        .collect();
    let now = SimTime::from_secs(1);
    for z in &proofs[..WARM_PROOFS] {
        assert_eq!(proxy.on_auth_zero_rtt(z, now), Ok(true));
    }
    let (n, verified) = allocations(|| {
        proofs[WARM_PROOFS..]
            .iter()
            .filter(|z| proxy.on_auth_zero_rtt(z, now) == Ok(true))
            .count()
    });
    assert_eq!(verified, MEASURED_PROOFS);
    // The anti-replay store must remember every accepted nonce, so its
    // per-ticket `HashSet<u64>` grows with them: the same inserts into a
    // set of that type are the whole budget.
    let mut nonces: HashSet<u64> = (1..=WARM_PROOFS as u64).collect();
    let (growth, ()) = allocations(|| {
        for z in &proofs[WARM_PROOFS..] {
            nonces.insert(z.nonce);
        }
    });
    assert!(growth > 0 && growth < 8, "{growth} set growths");
    assert_eq!(
        n, growth,
        "{MEASURED_PROOFS} verified 0-RTT proofs made {n} allocations"
    );
}

#[test]
fn verified_one_rtt_proofs_do_not_allocate() {
    let (mut proxy, mut app) = paired_proxy();
    let imu = ImuTrace::synthesize(MotionKind::HumanTouch, 500, 3);
    let proofs: Vec<_> = (0..WARM_PROOFS + MEASURED_PROOFS)
        .map(|i| {
            app.authorize_one_rtt("iot.app", &imu, MotionKind::HumanTouch, i as u64)
                .unwrap()
        })
        .collect();
    let now = SimTime::from_secs(1);
    for p in &proofs[..WARM_PROOFS] {
        assert_eq!(proxy.on_auth_one_rtt(p, now), Ok(true));
    }
    let (n, verified) = allocations(|| {
        proofs[WARM_PROOFS..]
            .iter()
            .filter(|p| proxy.on_auth_one_rtt(p, now) == Ok(true))
            .count()
    });
    assert_eq!(verified, MEASURED_PROOFS);
    assert_eq!(
        n, 0,
        "{MEASURED_PROOFS} verified 1-RTT proofs made {n} allocations"
    );
}

/// A home past bootstrap on its own registry: proxy, QUIC and rule
/// series all attached, and a per-epoch replay gauge from a 0-RTT proof.
fn served_home() -> MetricRegistry {
    const PERIOD_US: u64 = 60_000_000;
    let registry = MetricRegistry::new();
    let telemetry = ProxyTelemetry::new(registry.clone(), Arc::new(ManualClock::new()));
    let validator = HumannessValidator::with_operating_point(1.0, 1.0, 0);
    let config = ProxyConfig::default();
    let bootstrap_us = config.bootstrap.as_micros();
    let mut proxy = FiatProxy::with_telemetry(config, &[9u8; 32], validator, telemetry);
    proxy.start(SimTime::ZERO);
    let remote = Ipv4Addr::new(34, 9, 9, 9);
    let mut ts = 0;
    while ts <= bootstrap_us + PERIOD_US {
        proxy.on_packet(&pkt(ts, remote, 235));
        ts += PERIOD_US;
    }
    let mut app = FiatApp::new(&[9u8; 32], 1);
    let sh = proxy.accept_handshake(&app.handshake_request());
    app.complete_handshake(&sh).unwrap();
    let imu = ImuTrace::synthesize(MotionKind::HumanTouch, 500, 3);
    let z = app
        .authorize_zero_rtt("app", &imu, MotionKind::HumanTouch, ts / 1000)
        .unwrap();
    assert_eq!(
        proxy.on_auth_zero_rtt(&z, SimTime::from_micros(ts)),
        Ok(true)
    );
    assert!(proxy.rule_count() > 0);
    registry
}

#[test]
fn home_telemetry_set_up_is_a_few_cell_arrays() {
    let registry = MetricRegistry::new();
    let clock: Arc<dyn Clock> = Arc::new(ManualClock::new());
    // The proxy part's cells, the timing registry, and its stage cells
    // (plus the part lists of both registries).
    let (n, telemetry) = allocations(|| ProxyTelemetry::new(registry.clone(), clock));
    assert!(n <= 8, "ProxyTelemetry::new made {n} allocations");
    // Rules attach into a registry that already lists a part: one array.
    let (n, _rules) = allocations(|| RuleTelemetry::registered(telemetry.registry()));
    assert!(n <= 1, "RuleTelemetry::registered made {n} allocations");
    assert_eq!(registry.len(), 29 + 4);
}

#[test]
fn same_schema_merge_does_not_allocate() {
    let round = MetricRegistry::new();
    round.merge_from(&served_home());
    let home = served_home();
    let series = round.len();
    assert_eq!(series, home.len());
    let (n, ()) = allocations(|| round.merge_from(&home));
    assert_eq!(
        n, 0,
        "merging a home into a same-schema registry allocated {n} times"
    );
    assert_eq!(round.len(), series);
    assert_eq!(
        round
            .counter("fiat_quic_zero_rtt_total", &[("result", "accepted")])
            .get(),
        2
    );
}

/// The pinned snapshot fixture's bytes (`snapshot_bytes_are_pinned`).
const FIXTURE: &[u8] = include_bytes!("golden/snapshot_v5.bin");

/// The config of the home the fixture was taken from.
fn fixture_config() -> ProxyConfig {
    ProxyConfig {
        proof_deadline: Some(SimDuration::from_secs(60)),
        max_rules: Some(1),
        max_audit_entries: Some(4),
        ..ProxyConfig::default()
    }
}

/// The home the fixture was taken from, restored under its config.
fn fixture_home() -> FiatProxy {
    FiatProxy::restore(
        fixture_config(),
        &[0x77; 32],
        HumannessValidator::with_operating_point(1.0, 1.0, 0),
        ProxyTelemetry::default(),
        FIXTURE,
        |_| EventClassifier::simple_rule(235),
    )
    .expect("the fixture restores")
}

#[test]
fn snapshot_codec_allocations_are_bounded() {
    let proxy = fixture_home();
    // What `snapshot_home` does: write the bytes straight from the
    // home's live state.
    let (written, bytes) = allocations(|| proxy.snapshot());
    assert_eq!(bytes, FIXTURE);
    // The devices sorted by id, the rule table's two LRU lists, the DNS
    // entries by address, the replay image (one list, plus one per epoch
    // and per ticket: 3) and one pre-sized output: 8 on the fixture.
    assert!(
        written <= 8,
        "FiatProxy::snapshot made {written} allocations"
    );
}

#[test]
fn restore_allocations_are_bounded() {
    let config = fixture_config();
    let validator = HumannessValidator::with_operating_point(1.0, 1.0, 0);
    let telemetry = ProxyTelemetry::default();
    let (n, proxy) = allocations(|| {
        FiatProxy::restore(config, &[0x77; 32], validator, telemetry, FIXTURE, |_| {
            EventClassifier::simple_rule(235)
        })
    });
    assert_eq!(proxy.expect("the fixture restores").snapshot(), FIXTURE);
    // One walk reads the bytes into the proxy's own records: the audit
    // entries, the DNS table's maps and domain strings, every non-empty
    // list, the rule table, the device map, then the proxy's own set-up
    // (keystore, QUIC server, replay store): 39 on the fixture.
    assert!(n <= 39, "FiatProxy::restore made {n} allocations");
}

#[test]
fn untrusted_snapshot_count_sizes_nothing() {
    // Version 5, no truncation, no checkpoint, no head, then a count of
    // u32::MAX audit entries with 22 bytes left: 40 bytes in all.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&5u32.to_le_bytes());
    bytes.extend_from_slice(&0u64.to_le_bytes());
    bytes.extend_from_slice(&[0, 0]);
    bytes.extend_from_slice(&u32::MAX.to_le_bytes());
    bytes.resize(40, 0);
    let config = ProxyConfig::default();
    let validator = HumannessValidator::with_operating_point(1.0, 1.0, 0);
    let telemetry = ProxyTelemetry::default();
    let (n, restored) = allocations(|| {
        FiatProxy::restore(config, &[0x77; 32], validator, telemetry, &bytes, |_| {
            EventClassifier::simple_rule(235)
        })
    });
    assert_eq!(restored.err(), Some(SnapshotError::Corrupt));
    assert_eq!(n, 0, "the count sized {n} allocations");
}
