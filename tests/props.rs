//! Property-based tests on the core invariants, via proptest.

use fiat::core::analysis::ErrorModel;
use fiat::core::{
    group_events, EventClassifier, FiatProxy, PredictabilityEngine, ProxyConfig, RuleTable,
};
use fiat::crypto::{open, seal};
use fiat::fleet::{build_workloads, run_sequential, run_sharded};
use fiat::ml::data::{fold_complement, stratified_kfold};
use fiat::ml::StandardScaler;
use fiat::net::{
    DeviceFlowKey, Direction, DnsTable, FlowDef, InternedFlowKey, PacketRecord, SimDuration,
    SimTime, TcpFlags, TlsVersion, TrafficClass, Transport,
};
use fiat::sensors::HumannessValidator;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::net::Ipv4Addr;

fn pkt(ts_us: u64, size: u16, port: u16) -> PacketRecord {
    PacketRecord {
        ts: SimTime::from_micros(ts_us),
        device: 0,
        direction: Direction::FromDevice,
        local_ip: Ipv4Addr::new(192, 168, 1, 2),
        remote_ip: Ipv4Addr::new(34, 9, 9, 9),
        local_port: port,
        remote_port: 443,
        transport: Transport::Tcp,
        tcp_flags: TcpFlags::ack(),
        tls: TlsVersion::None,
        size,
        label: TrafficClass::Control,
    }
}

/// A proxy with three registered devices (varying first-N allowances)
/// started at time zero; device 3 stays unregistered to cover the
/// incremental-deployment fail-open path.
fn fuzz_proxy() -> FiatProxy {
    let mut proxy = FiatProxy::new(
        ProxyConfig::default(),
        &[0x42; 32],
        HumannessValidator::with_operating_point(1.0, 1.0, 0),
    );
    for dev in 0..3u16 {
        proxy.register_device(dev, EventClassifier::simple_rule(235), 1 + dev as usize * 3);
    }
    proxy.start(SimTime::ZERO);
    proxy
}

proptest! {
    /// AEAD: whatever the key, nonce, AAD, and payload, open(seal(x)) == x,
    /// and any single-byte corruption is rejected.
    #[test]
    fn aead_roundtrip_and_tamper(
        key in prop::array::uniform32(any::<u8>()),
        nonce in prop::array::uniform12(any::<u8>()),
        aad in prop::collection::vec(any::<u8>(), 0..64),
        data in prop::collection::vec(any::<u8>(), 0..512),
        flip in any::<usize>(),
    ) {
        let sealed = seal(&key, &nonce, &aad, &data);
        prop_assert_eq!(open(&key, &nonce, &aad, &sealed).unwrap(), data);
        let mut bad = sealed.clone();
        let i = flip % bad.len();
        bad[i] ^= 0x01;
        prop_assert!(open(&key, &nonce, &aad, &bad).is_err());
    }

    /// Any strictly periodic flow with >= 3 packets is fully predictable,
    /// whatever its period and size.
    #[test]
    fn periodic_flows_always_predictable(
        period_us in 1_000u64..600_000_000,
        n in 3usize..40,
        size in 40u16..1500,
    ) {
        let packets: Vec<PacketRecord> =
            (0..n).map(|i| pkt(i as u64 * period_us, size, 40_000)).collect();
        let engine = PredictabilityEngine::new(FlowDef::PortLess);
        let flags = engine.analyze(&packets, &DnsTable::new());
        prop_assert!(flags.iter().all(|&f| f));
    }

    /// Two-packet buckets are never predictable (there is nothing for the
    /// single interval to match).
    #[test]
    fn two_packet_buckets_never_predictable(
        gap_us in 1u64..1_000_000_000,
        size in 40u16..1500,
    ) {
        let packets = vec![pkt(0, size, 40_000), pkt(gap_us, size, 40_000)];
        let engine = PredictabilityEngine::new(FlowDef::PortLess);
        let flags = engine.analyze(&packets, &DnsTable::new());
        prop_assert!(flags.iter().all(|&f| !f));
    }

    /// `analyze`, `max_intervals` and `RuleTable::learn` are folds over
    /// one bucketing pass, so they agree: Fig 1(c) has one entry per
    /// bucket with a flagged packet, its counts sum to the flags, and
    /// every learned rule is a bucket `analyze` flags.
    #[test]
    fn predictability_folds_agree(
        flows in prop::collection::vec(
            (0u16..2, 0u16..3, 0u64..5_000, 0usize..5, 2usize..15,
             prop::collection::vec(0u64..3, 15)),
            1..8,
        ),
        coarse in any::<bool>(),
    ) {
        const PERIODS_MS: [u64; 5] = [33, 950, 1_000, 1_100, 10_000];
        let mut packets = Vec::new();
        for (device, size, start_ms, period, n, jitter) in &flows {
            let mut ts_ms = *start_ms;
            for j in &jitter[..*n] {
                let mut p = pkt(ts_ms * 1_000, 100 + size, 40_000);
                p.device = *device;
                packets.push(p);
                ts_ms += PERIODS_MS[*period] + j * 50;
            }
        }
        packets.sort_by_key(|p| p.ts);
        let dns = DnsTable::new();
        let tolerance = if coarse { 250_000 } else { 1 };
        let engine = PredictabilityEngine::new(FlowDef::PortLess)
            .with_tolerance(SimDuration::from_micros(tolerance));
        let key = |p: &PacketRecord| DeviceFlowKey {
            device: p.device,
            flow: InternedFlowKey::of(FlowDef::PortLess, p, &dns),
        };

        let flags = engine.analyze(&packets, &dns);
        let flagged: BTreeSet<_> = packets
            .iter()
            .zip(&flags)
            .filter(|(_, &f)| f)
            .map(|(p, _)| key(p))
            .collect();
        let intervals = engine.max_intervals(&packets, &dns);
        prop_assert_eq!(intervals.len(), flagged.len());
        prop_assert_eq!(
            intervals.iter().map(|&(_, n)| n).sum::<usize>(),
            flags.iter().filter(|&&f| f).count()
        );
        let (rules, _) = RuleTable::learn(&engine, &packets, &dns).snapshot();
        for rule in &rules {
            prop_assert!(flagged.contains(rule), "rule {:?} on no flagged packet", rule);
        }
    }

    /// Event grouping partitions exactly the unpredictable packets: every
    /// unpredictable index appears in exactly one event, predictable
    /// indices in none, and intra-event gaps stay below the threshold.
    #[test]
    fn event_grouping_is_a_partition(
        ts in prop::collection::vec(0u64..200_000_000, 1..80),
        gap_ms in 100u64..20_000,
    ) {
        let mut ts = ts;
        ts.sort_unstable();
        let packets: Vec<PacketRecord> =
            ts.iter().map(|&t| pkt(t, 100, 40_000)).collect();
        // Arbitrary flags: mark every third packet predictable.
        let flags: Vec<bool> = (0..packets.len()).map(|i| i % 3 == 0).collect();
        let gap = SimDuration::from_millis(gap_ms);
        let events = group_events(&packets, &flags, gap);

        let mut seen = vec![0u32; packets.len()];
        for e in &events {
            prop_assert!(!e.is_empty());
            for &i in &e.packets {
                seen[i] += 1;
                prop_assert!(!flags[i], "predictable packet grouped");
            }
            // Gaps within an event are < gap.
            for w in e.packets.windows(2) {
                prop_assert!(packets[w[1]].ts - packets[w[0]].ts < gap);
            }
            prop_assert_eq!(e.start, packets[e.packets[0]].ts);
            prop_assert_eq!(e.end, packets[*e.packets.last().unwrap()].ts);
        }
        for (i, &count) in seen.iter().enumerate() {
            prop_assert_eq!(count, u32::from(!flags[i]), "index {}", i);
        }
    }

    /// Stratified k-fold always partitions the sample indices and keeps
    /// per-fold class counts within 1 of each other.
    #[test]
    fn stratified_kfold_partitions(
        labels in prop::collection::vec(0usize..4, 10..100),
        k in 2usize..6,
        seed in any::<u64>(),
    ) {
        let folds = stratified_kfold(&labels, k, seed);
        prop_assert_eq!(folds.len(), k);
        let mut all: Vec<usize> = folds.iter().flatten().copied().collect();
        all.sort_unstable();
        prop_assert_eq!(all, (0..labels.len()).collect::<Vec<_>>());
        // Class balance within 1 across folds.
        for class in 0..4 {
            let counts: Vec<usize> = folds
                .iter()
                .map(|f| f.iter().filter(|&&i| labels[i] == class).count())
                .collect();
            let min = counts.iter().min().unwrap();
            let max = counts.iter().max().unwrap();
            prop_assert!(max - min <= 1, "class {} counts {:?}", class, counts);
        }
        // Complement really is the complement.
        let comp = fold_complement(&folds[0], labels.len());
        prop_assert_eq!(comp.len() + folds[0].len(), labels.len());
    }

    /// StandardScaler output always has ~zero mean and unit (or zero)
    /// variance per feature.
    #[test]
    fn scaler_normalizes(
        rows in prop::collection::vec(
            prop::collection::vec(-1e6f64..1e6, 3), 2..50),
    ) {
        let (_, t) = StandardScaler::fit_transform(&rows);
        for j in 0..3 {
            let n = t.len() as f64;
            let mean: f64 = t.iter().map(|r| r[j]).sum::<f64>() / n;
            let var: f64 = t.iter().map(|r| (r[j] - mean).powi(2)).sum::<f64>() / n;
            prop_assert!(mean.abs() < 1e-6, "mean {}", mean);
            prop_assert!(var < 1.0 + 1e-6, "var {}", var);
            // Variance is either ~1 (varying feature) or ~0 (constant).
            prop_assert!((var - 1.0).abs() < 1e-6 || var < 1e-9, "var {}", var);
        }
    }

    /// Appendix A closed forms agree with a Monte-Carlo simulation of the
    /// two-stage decision process.
    #[test]
    fn appendix_a_matches_monte_carlo(
        r_manual in 0.5f64..1.0,
        r_non_manual in 0.5f64..1.0,
        r_human in 0.5f64..1.0,
        r_non_human in 0.5f64..1.0,
        seed in any::<u64>(),
    ) {
        let model = ErrorModel::new(r_manual, r_non_manual, r_human, r_non_human);
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 60_000;
        // FN: attacker manual events with non-human evidence.
        let mut fn_count = 0u32;
        for _ in 0..n {
            let classified_manual = rng.gen_range(0.0..1.0) < r_manual;
            if !classified_manual {
                fn_count += 1; // misclassified -> allowed
            } else {
                let validated_human = rng.gen_range(0.0..1.0) >= r_non_human;
                if validated_human {
                    fn_count += 1; // mis-validated -> allowed
                }
            }
        }
        let mc_fn = fn_count as f64 / n as f64;
        prop_assert!((mc_fn - model.false_negative()).abs() < 0.02,
            "MC {} vs analytic {}", mc_fn, model.false_negative());

        // FP-M: legit manual events with human evidence.
        let mut fpm = 0u32;
        for _ in 0..n {
            let classified_manual = rng.gen_range(0.0..1.0) < r_manual;
            if classified_manual {
                let validated_human = rng.gen_range(0.0..1.0) < r_human;
                if !validated_human {
                    fpm += 1;
                }
            }
        }
        let mc_fpm = fpm as f64 / n as f64;
        prop_assert!((mc_fpm - model.fp_manual()).abs() < 0.02,
            "MC {} vs analytic {}", mc_fpm, model.fp_manual());
    }

    /// SimTime arithmetic: associativity-ish and saturating subtraction.
    #[test]
    fn simtime_arithmetic(a in 0u64..1u64 << 40, b in 0u64..1u64 << 40, c in 0u64..1u64 << 40) {
        let t = SimTime::from_micros(a);
        let d1 = SimDuration::from_micros(b);
        let d2 = SimDuration::from_micros(c);
        prop_assert_eq!((t + d1) + d2, t + (d1 + d2));
        prop_assert_eq!((t + d1) - t, d1);
        // Saturation: subtracting a later time yields zero.
        prop_assert_eq!(t - (t + d1 + SimDuration::from_micros(1)), SimDuration::ZERO);
    }

    /// The decision pipeline never panics and its stats exactly
    /// partition the packets fed to it, even when timestamps arrive out
    /// of order, duplicated, or straddling the bootstrap boundary
    /// (SimTime subtraction saturates rather than underflowing).
    #[test]
    fn proxy_stats_partition_under_timestamp_chaos(
        pkts in prop::collection::vec(
            (0u64..2_000_000_000, 40u16..1400, 0u16..4, 30_000u16..30_004),
            1..120),
    ) {
        let mut proxy = fuzz_proxy();
        let mut allowed = 0u64;
        let mut dropped = 0u64;
        for &(ts, size, dev, port) in &pkts {
            let mut p = pkt(ts, size, port);
            p.device = dev;
            if proxy.on_packet(&p).is_allow() {
                allowed += 1;
            } else {
                dropped += 1;
            }
        }
        let s = proxy.stats();
        prop_assert_eq!(s.total(), pkts.len() as u64);
        prop_assert_eq!(s.dropped(), dropped);
        prop_assert_eq!(s.total() - s.dropped(), allowed);
        prop_assert!((0.0..=1.0).contains(&s.rule_fraction()));
    }
}

/// Seeded-rng fuzz of the same pipeline invariants as
/// `proxy_stats_partition_under_timestamp_chaos`, with longer runs that
/// repeatedly cross the bootstrap/rule-learning boundary. Runs in
/// environments where the proptest cases cannot.
#[test]
fn proxy_fuzz_seeded_timestamp_chaos() {
    for seed in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut proxy = fuzz_proxy();
        let mut allowed = 0u64;
        let mut dropped = 0u64;
        let n = 4_000u64;
        let mut last = 0u64;
        for i in 0..n {
            // Mostly advancing, sometimes jumping backwards in time or
            // repeating the previous timestamp exactly.
            last = match i % 7 {
                0 => last.saturating_sub(rng.gen_range(0..5_000_000)),
                1 => last,
                _ => last + rng.gen_range(0..2_000_000),
            };
            let mut p = pkt(last, rng.gen_range(40..1400), 30_000 + rng.gen_range(0..4));
            p.device = rng.gen_range(0..4);
            if proxy.on_packet(&p).is_allow() {
                allowed += 1;
            } else {
                dropped += 1;
            }
        }
        let s = proxy.stats();
        assert_eq!(s.total(), n, "seed {seed}");
        assert_eq!(s.dropped(), dropped, "seed {seed}");
        assert_eq!(s.total() - s.dropped(), allowed, "seed {seed}");
    }
}

/// Sharding the fleet never changes the answer: merged stats, packet
/// counts, and the rendered metric exposition are identical for every
/// worker-thread count.
#[test]
fn fleet_sharding_is_deterministic() {
    let workloads = build_workloads(3, 0.05, 7);
    let reference = run_sequential(&workloads);
    assert!(reference.packets > 0);
    for shards in 1..=4 {
        let fleet = run_sharded(&workloads, shards);
        assert_eq!(fleet.stats, reference.stats, "{shards} shards");
        assert_eq!(fleet.packets, reference.packets, "{shards} shards");
        assert_eq!(
            fleet.registry.render_prometheus(),
            reference.registry.render_prometheus(),
            "{shards} shards"
        );
    }
}
