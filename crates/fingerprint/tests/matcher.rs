//! End-to-end matcher battery over the seeded labeled corpus: genuine
//! devices identify as their own class (never a false quarantine),
//! spoofed devices resolve as `Spoof`, and the evidence-window edge
//! behaves exactly as documented. The last tests identify new devices
//! in a fresh testbed capture and resolve their model (§7).

use fiat_core::{
    EventClassifier, FingerprintGate, FingerprintObservation, FingerprintVerdict, ModelRegistry,
};
use fiat_fingerprint::{FingerprintEngine, MatcherConfig, SignatureSet};
use fiat_net::{DnsTable, SimDuration, SimTime, Trace};
use fiat_trace::{
    class_trace, fingerprint_corpus, spoofed_trace, testbed_devices, Location, TestbedConfig,
    TestbedTrace, CORPUS_CLASSES,
};

fn trained_engine(seed: u64) -> FingerprintEngine {
    let corpus = fingerprint_corpus(seed);
    let cfg = MatcherConfig::default();
    FingerprintEngine::new(SignatureSet::learn(&corpus, cfg.evidence_window), cfg)
}

/// Feed one single-device trace through the engine (merging its DNS so
/// claims resolve) and return the sealed verdict.
fn run_trace(
    engine: &mut FingerprintEngine,
    trace: &Trace,
    dns: &mut DnsTable,
) -> Option<FingerprintVerdict> {
    dns.merge(&trace.dns);
    let mut sealed = None;
    for pkt in &trace.packets {
        let FingerprintObservation {
            verdict,
            just_sealed,
        } = engine.observe(pkt, dns);
        if just_sealed {
            assert!(sealed.is_none(), "window sealed twice");
            sealed = Some(verdict);
        }
    }
    sealed
}

fn corpus_dns(seed: u64) -> DnsTable {
    let mut dns = DnsTable::new();
    for (_, trace) in fingerprint_corpus(seed) {
        dns.merge(&trace.dns);
    }
    dns
}

#[test]
fn genuine_devices_identify_as_their_own_class() {
    let devices = testbed_devices();
    let mut engine = trained_engine(1);
    let mut dns = corpus_dns(1);
    for eval_seed in [101u64, 202, 303, 404] {
        for (ci, (label, dev)) in CORPUS_CLASSES.iter().enumerate() {
            let device_id = 500 + (eval_seed % 100) as u16 * 10 + ci as u16;
            let mut trace = class_trace(&devices[*dev], device_id, eval_seed ^ (ci as u64) << 32);
            trace.packets.truncate(200);
            let verdict = run_trace(&mut engine, &trace, &mut dns)
                .unwrap_or_else(|| panic!("{label}: window never sealed"));
            assert_eq!(
                verdict,
                FingerprintVerdict::Match(ci as u16),
                "{label} (seed {eval_seed}) misidentified: {verdict:?}"
            );
        }
    }
}

#[test]
fn spoofed_devices_are_flagged_as_spoof() {
    let devices = testbed_devices();
    let mut engine = trained_engine(1);
    let mut dns = corpus_dns(1);
    // Each pair: a device that claims class `claimed` while behaving
    // like class `behaved` (indices into CORPUS_CLASSES).
    let pairs = [(2usize, 1usize), (1, 0), (3, 4), (0, 2)];
    for (i, (claimed_ci, behaved_ci)) in pairs.iter().enumerate() {
        let claimed = &devices[CORPUS_CLASSES[*claimed_ci].1];
        let behaved = &devices[CORPUS_CLASSES[*behaved_ci].1];
        let trace = spoofed_trace(
            claimed,
            behaved,
            700 + i as u16,
            SimDuration::from_secs(3600),
            55 + i as u64,
        );
        let verdict = run_trace(&mut engine, &trace, &mut dns).expect("window seals");
        assert_eq!(
            verdict,
            FingerprintVerdict::Spoof {
                claimed: *claimed_ci as u16,
                matched: *behaved_ci as u16,
            },
            "spoof pair {claimed_ci}<-{behaved_ci} not flagged: {verdict:?}"
        );
    }
}

#[test]
fn unrecognizable_behavior_is_no_match_not_a_guess() {
    // Constant 999 B uplink packets at a fixed 10 ms cadence resemble no
    // trained class: the verdict must be the explicit NoMatch.
    use fiat_net::{
        Direction, PacketRecord, SimTime, TcpFlags, TlsVersion, TrafficClass, Transport,
    };
    let mut engine = trained_engine(1);
    let dns = corpus_dns(1);
    let mut sealed = None;
    for i in 0..40u64 {
        let pkt = PacketRecord {
            ts: SimTime::from_millis(10 * i),
            device: 999,
            direction: Direction::FromDevice,
            local_ip: "192.168.1.9".parse().unwrap(),
            remote_ip: "1.2.3.4".parse().unwrap(),
            local_port: 50_000,
            remote_port: 443,
            transport: Transport::Tcp,
            tcp_flags: TcpFlags::psh_ack(),
            tls: TlsVersion::None,
            size: 999,
            label: TrafficClass::Control,
        };
        let obs = engine.observe(&pkt, &dns);
        if obs.just_sealed {
            sealed = Some(obs.verdict);
        }
    }
    assert_eq!(sealed, Some(FingerprintVerdict::NoMatch));
}

#[test]
fn window_edge_is_exact() {
    // Packets 1..window-1 are Pending; packet #window seals with the
    // verdict; every later packet replays the cached verdict without
    // re-sealing.
    let devices = testbed_devices();
    let mut engine = trained_engine(1);
    let mut dns = corpus_dns(1);
    let window = MatcherConfig::default().evidence_window as usize;
    let trace = class_trace(&devices[CORPUS_CLASSES[1].1], 321, 77);
    dns.merge(&trace.dns);
    assert!(trace.packets.len() > window + 10);
    for (i, pkt) in trace.packets.iter().take(window + 10).enumerate() {
        let obs = engine.observe(pkt, &dns);
        if i + 1 < window {
            assert_eq!(obs.verdict, FingerprintVerdict::Pending, "packet {i}");
            assert!(!obs.just_sealed);
        } else {
            assert_eq!(obs.verdict, FingerprintVerdict::Match(1), "packet {i}");
            assert_eq!(obs.just_sealed, i + 1 == window);
        }
    }
    assert_eq!(
        engine.sealed_verdict(321),
        Some(FingerprintVerdict::Match(1))
    );
    assert_eq!(engine.sealed_counts(), [1, 0, 0]);
}

#[test]
fn spoof_confirmation_quarantines_instead_of_allowing() {
    // A spoofer whose first window seals contradictory must NOT get a
    // second window of forwarded traffic while the confirmation fills:
    // across the whole run at most `evidence_window - 1` packets are
    // allowed — below the 41-packet command-completion threshold the
    // window size was chosen to stay under — and once quarantine starts
    // it never reverts to allow.
    let devices = testbed_devices();
    let mut engine = trained_engine(1);
    let mut dns = corpus_dns(1);
    let window = MatcherConfig::default().evidence_window as usize;
    let trace = spoofed_trace(
        &devices[CORPUS_CLASSES[2].1],
        &devices[CORPUS_CLASSES[1].1],
        710,
        SimDuration::from_secs(3600),
        55,
    );
    dns.merge(&trace.dns);
    let mut allowed = 0usize;
    let mut dropping = false;
    let mut sealed = None;
    for pkt in &trace.packets {
        let obs = engine.observe(pkt, &dns);
        match obs.verdict {
            FingerprintVerdict::Pending | FingerprintVerdict::Match(_) => {
                assert!(!dropping, "quarantined device allowed again");
                allowed += 1;
            }
            _ => dropping = true,
        }
        if obs.just_sealed {
            sealed = Some(obs.verdict);
        }
    }
    assert!(matches!(sealed, Some(FingerprintVerdict::Spoof { .. })));
    assert!(allowed < window, "{allowed} packets forwarded");
    assert!(allowed < 41, "spoofer could complete a WyzeCam command");
}

#[test]
fn alternating_mimicry_cannot_rearm_the_candidate_forever() {
    // Synthetic three-class world with full control over behavior:
    // class A = tiny packets, class B = big packets, class C is what
    // the device *claims* via its destination domain. The device plays
    // one window of B then switches to A. The first contradictory
    // window arms candidate B; the A-shaped confirmation window matches
    // a *different* wrong class — which must still confirm the spoof
    // (re-arming on every swap would let the device alternate mimicry
    // between two classes and keep a window of traffic allowed forever).
    use fiat_fingerprint::features::{fold_packet, profile};
    use fiat_fingerprint::{ClassSignature, FEATURE_COUNT};
    use fiat_net::SimTime;

    let cfg = MatcherConfig::default();
    let window = cfg.evidence_window as usize;
    let shaped = |start: u64, n: usize, size: u16| -> Vec<fiat_net::PacketRecord> {
        (0..n)
            .map(|i| {
                let mut p = flood_pkt(880, start + 10 * i as u64);
                p.size = size;
                p
            })
            .collect()
    };
    let phase_b = shaped(0, window, 999);
    let phase_a = shaped(10 * window as u64, window, 60);
    let exemplar = |pkts: &[fiat_net::PacketRecord]| -> [u16; FEATURE_COUNT] {
        let mut hist = [0u32; FEATURE_COUNT];
        let mut prev: Option<(SimTime, u16)> = None;
        for p in pkts {
            fold_packet(&mut hist, p, prev);
            prev = Some((p.ts, p.size));
        }
        profile(&hist)
    };
    let sig = |label: &str, ex: [u16; FEATURE_COUNT], domain: &str| ClassSignature {
        label: label.to_string(),
        exemplars: vec![ex],
        domains: vec![domain.to_string()],
        packets: window as u64,
    };
    // Class C's exemplar is far from both phases (sizes in bucket 5).
    let sigs = SignatureSet::from_signatures(vec![
        sig("a", exemplar(&phase_a), "a.example"),
        sig("b", exemplar(&phase_b), "b.example"),
        sig("c", exemplar(&shaped(0, window, 160)), "c.example"),
    ]);
    let mut dns = DnsTable::new();
    dns.observe_forward("1.2.3.4".parse().unwrap(), "c.example");
    let mut engine = FingerprintEngine::new(sigs, cfg);

    let mut sealed = None;
    for (i, pkt) in phase_b.iter().chain(&phase_a).enumerate() {
        let obs = engine.observe(pkt, &dns);
        if i >= window {
            assert_eq!(
                obs.verdict,
                if obs.just_sealed {
                    FingerprintVerdict::Spoof {
                        claimed: 2,
                        matched: 0,
                    }
                } else {
                    FingerprintVerdict::NoMatch
                },
                "confirmation-window packet {i} was not quarantined"
            );
        }
        if obs.just_sealed {
            sealed = Some(obs.verdict);
        }
    }
    assert_eq!(
        sealed,
        Some(FingerprintVerdict::Spoof {
            claimed: 2,
            matched: 0,
        }),
        "class-swapping spoofer re-armed instead of sealing"
    );
}

fn flood_pkt(device: u16, i: u64) -> fiat_net::PacketRecord {
    use fiat_net::{
        Direction, PacketRecord, SimTime, TcpFlags, TlsVersion, TrafficClass, Transport,
    };
    PacketRecord {
        ts: SimTime::from_millis(i),
        device,
        direction: Direction::FromDevice,
        local_ip: "192.168.1.9".parse().unwrap(),
        remote_ip: "1.2.3.4".parse().unwrap(),
        local_port: 50_000,
        remote_port: 443,
        transport: Transport::Tcp,
        tcp_flags: TcpFlags::psh_ack(),
        tls: TlsVersion::None,
        size: 999,
        label: TrafficClass::Control,
    }
}

#[test]
fn tracked_and_sealed_are_lru_capped() {
    let corpus = fingerprint_corpus(1);
    let cfg = MatcherConfig {
        max_tracked: 4,
        max_sealed: 4,
        evidence_window: 3,
        ..MatcherConfig::default()
    };
    let mut engine = FingerprintEngine::new(SignatureSet::learn(&corpus, cfg.evidence_window), cfg);
    let dns = DnsTable::new();
    // Open 6 windows with one packet each: the two least recently
    // active devices are evicted, and eviction *seals* their partial
    // evidence (a silently discarded window would be an
    // attacker-resettable reset).
    for d in 0..6u16 {
        engine.observe(&flood_pkt(d, u64::from(d)), &dns);
    }
    assert_eq!(engine.state_size(), 6, "4 tracked + 2 evicted-and-sealed");
    let evicted = engine.sealed_verdict(0).expect("eviction seals");
    assert!(engine.sealed_verdict(1).is_some());
    // The evicted device's next packet replays the cached verdict
    // instead of reopening a Pending window.
    let obs = engine.observe(&flood_pkt(0, 100), &dns);
    assert_eq!(obs.verdict, evicted);
    assert!(!obs.just_sealed);
    assert_eq!(engine.state_size(), 6, "no re-tracking after seal");
    // Seal 4 more devices: the sealed cache caps at 4 too.
    for d in 10..14u16 {
        for i in 0..3u64 {
            engine.observe(&flood_pkt(d, 200 + u64::from(d) * 10 + i), &dns);
        }
    }
    assert_eq!(engine.sealed_verdict(0), None, "LRU evicted from sealed");
    assert!(engine.sealed_verdict(13).is_some());
    assert!(engine.state_size() <= 8);
}

#[test]
fn mac_flood_cannot_keep_a_device_pending_forever() {
    // A device that also emits packets from throwaway MACs used to evict
    // its own open window each cycle, so its verdict never sealed and
    // all of its traffic stayed Pending (allowed) indefinitely. Now the
    // forced eviction seals the partial evidence: across the whole
    // flood the target device gets at most `evidence_window - 1`
    // provisionally allowed packets, then a cached verdict.
    let corpus = fingerprint_corpus(1);
    let cfg = MatcherConfig::default();
    let mut engine = FingerprintEngine::new(SignatureSet::learn(&corpus, cfg.evidence_window), cfg);
    let dns = DnsTable::new();
    let window = cfg.evidence_window as u64;
    let target = 400u16;
    let mut pending = 0u64;
    let mut t = 0u64;
    for cycle in 0..40u64 {
        // A few target packets, then a full tracked cache of throwaway MACs.
        for _ in 0..window / 4 {
            t += 1;
            if engine.observe(&flood_pkt(target, t), &dns).verdict == FingerprintVerdict::Pending {
                pending += 1;
            }
        }
        for m in 0..cfg.max_tracked as u64 {
            t += 1;
            let mac = 1000 + (cycle * cfg.max_tracked as u64 + m) as u16;
            engine.observe(&flood_pkt(mac, t), &dns);
        }
    }
    assert!(
        pending < window,
        "{pending} packets rode the flood-reset fail-open"
    );
    assert!(
        engine.sealed_verdict(target).is_some(),
        "flooded device never sealed"
    );
}

#[test]
fn degenerate_caps_are_clamped_not_panicking() {
    let corpus = fingerprint_corpus(1);
    let cfg = MatcherConfig {
        max_tracked: 0,
        max_sealed: 0,
        evidence_window: 1,
        ..MatcherConfig::default()
    };
    let mut engine = FingerprintEngine::new(SignatureSet::learn(&corpus, 1), cfg);
    let dns = DnsTable::new();
    // Exercise both the tracked and sealed eviction paths at cap 1.
    for d in 0..4u16 {
        for i in 0..2u64 {
            engine.observe(&flood_pkt(d, u64::from(d) * 10 + i), &dns);
        }
    }
    assert!(engine.state_size() <= 2);
    // The sealed cache is clamped to one verdict, not zero: the newest
    // device keeps its verdict.
    assert!(engine.sealed_verdict(3).is_some());
}

fn capture(seed: u64, hours: f64) -> TestbedTrace {
    TestbedTrace::generate(TestbedConfig {
        location: Location::Us,
        days: hours / 24.0,
        seed,
        ..Default::default()
    })
}

fn window(c: &TestbedTrace, device: u16, start_min: u64) -> Vec<fiat_net::PacketRecord> {
    let lo = SimTime::ZERO + SimDuration::from_mins(start_min);
    let hi = lo + SimDuration::from_mins(60);
    c.trace
        .packets
        .iter()
        .filter(|p| p.device == device && p.ts >= lo && p.ts < hi)
        .cloned()
        .collect()
}

/// Signatures learned from one-hour windows of a lab capture, each
/// labelled by its device name.
fn learn_windows(c: &TestbedTrace, starts: &[u64]) -> SignatureSet {
    let mut corpus = Vec::new();
    for (i, d) in c.devices.iter().enumerate() {
        for &start in starts {
            let packets = window(c, i as u16, start);
            let dns = c.trace.dns.clone();
            corpus.push((d.name.clone(), Trace { packets, dns }));
        }
    }
    SignatureSet::learn(&corpus, MatcherConfig::default().evidence_window)
}

#[test]
fn identifies_testbed_devices_across_captures() {
    // Train on one capture, identify in a fresh one.
    let train_cap = capture(1, 3.0);
    let sigs = learn_windows(&train_cap, &[0, 60]);
    assert_eq!(sigs.len(), 20);

    let test_cap = capture(2, 3.0);
    let mut correct = 0;
    for (i, d) in test_cap.devices.iter().enumerate() {
        let w = window(&test_cap, i as u16, 0);
        let idx = sigs.identify(&w, &test_cap.trace.dns);
        if idx.and_then(|idx| sigs.label(idx)) == Some(d.name.as_str()) {
            correct += 1;
        }
    }
    assert!(correct >= 8, "identified {correct}/10 devices");
}

#[test]
fn end_to_end_identify_then_resolve() {
    let train_cap = capture(3, 3.0);
    let sigs = learn_windows(&train_cap, &[0]);

    let mut reg = ModelRegistry::new();
    for d in &train_cap.devices {
        let m = d
            .simple_rule_size
            .map(EventClassifier::simple_rule)
            .unwrap_or_else(|| EventClassifier::simple_rule(0));
        reg.publish(d.name.clone(), 1, m);
    }

    // A "new" plug appears in a later capture: it resolves to the SP10
    // model automatically.
    let new_cap = capture(4, 3.0);
    let w = window(&new_cap, 3, 0); // SP10
    let name = sigs
        .identify(&w, &new_cap.trace.dns)
        .and_then(|idx| sigs.label(idx))
        .unwrap();
    assert_eq!(name, "SP10");
    let (ver, model) = reg.latest(name).unwrap();
    assert_eq!(ver, 1);
    assert!(matches!(
        model,
        EventClassifier::SimpleRule { manual_size: 235 }
    ));
}
