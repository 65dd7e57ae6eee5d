//! Snapshot/restore orchestration: the control-plane operations a fleet
//! uses to rebalance a home between shards or survive a proxy restart.
//!
//! [`snapshot_home`] writes a [`FiatProxy`]'s decision state straight
//! to its canonical binary bytes ([`FiatProxy::snapshot`], the version-5
//! layout in `fiat_core::snapshot`; deterministic: every collection is
//! written sorted, so the same state always produces the same bytes)
//! and counts them into `fiat_control_snapshot_bytes_total`.
//! [`restore_home`] reads them back ([`FiatProxy::restore`], one walk
//! that checks each field as it reads it: the encoding, the version,
//! the audit chain, each device's state, the rule table and the caps)
//! into a proxy that writes back exactly the bytes it was restored from
//! and resumes byte-identically — the determinism contract proven by
//! the core pipeline tests and the fleet rebalance oracle.

use crate::metrics::ControlMetrics;
use fiat_core::pipeline::ProxyTelemetry;
use fiat_core::{EventClassifier, FiatProxy, ProxyConfig, SnapshotError};
use fiat_sensors::HumannessValidator;

/// Encode `proxy`'s full decision state to its canonical snapshot bytes.
pub fn snapshot_home(proxy: &FiatProxy, metrics: Option<&ControlMetrics>) -> Vec<u8> {
    let bytes = proxy.snapshot();
    if let Some(m) = metrics {
        m.record_snapshot_save(bytes.len() as u64);
    }
    bytes
}

/// Rebuild a proxy from [`snapshot_home`] bytes. The caller re-supplies
/// what the snapshot deliberately excludes: the ceremony secret (key
/// material never leaves a keystore), a validator, a telemetry plug
/// (typically a fresh registry on the destination shard — restore is
/// telemetry-silent, so old + new registries fold additively), and the
/// per-device classifiers.
pub fn restore_home(
    bytes: &[u8],
    config: ProxyConfig,
    ceremony_secret: &[u8; 32],
    validator: HumannessValidator,
    telemetry: ProxyTelemetry,
    classifiers: impl FnMut(u16) -> EventClassifier,
    metrics: Option<&ControlMetrics>,
) -> Result<FiatProxy, SnapshotError> {
    let proxy = FiatProxy::restore(
        config,
        ceremony_secret,
        validator,
        telemetry,
        bytes,
        classifiers,
    )?;
    if let Some(m) = metrics {
        m.record_snapshot_restore();
    }
    Ok(proxy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fiat_core::{AllowReason, ProxyDecision};
    use fiat_net::SimTime;
    use fiat_sensors::{ImuTrace, MotionKind};
    use fiat_telemetry::{ManualClock, MetricRegistry};
    use proptest::prelude::*;
    use std::sync::Arc;

    const SECRET: [u8; 32] = [0xB4; 32];

    fn plug() -> ProxyTelemetry {
        ProxyTelemetry::new(MetricRegistry::new(), Arc::new(ManualClock::new()))
    }

    fn seeded_proxy(devices: u16, rotations: u32, start_secs: u64) -> FiatProxy {
        let mut p = FiatProxy::with_telemetry(
            ProxyConfig::default(),
            &SECRET,
            HumannessValidator::with_operating_point(1.0, 1.0, 0),
            plug(),
        );
        for d in 0..devices {
            p.register_device(d, EventClassifier::simple_rule(200 + d * 10), 4);
        }
        p.start(SimTime::from_secs(start_secs));
        for _ in 0..rotations {
            p.rotate_ticket_epoch();
        }
        p
    }

    #[test]
    fn snapshot_restore_round_trips_and_counts_bytes() {
        let registry = MetricRegistry::new();
        let metrics = ControlMetrics::new(&registry);
        let proxy = seeded_proxy(3, 2, 5);
        let bytes = snapshot_home(&proxy, Some(&metrics));
        let restored = restore_home(
            &bytes,
            ProxyConfig::default(),
            &SECRET,
            HumannessValidator::with_operating_point(1.0, 1.0, 0),
            plug(),
            |d| EventClassifier::simple_rule(200 + d * 10),
            Some(&metrics),
        )
        .expect("restore");
        assert_eq!(restored.ticket_epoch(), 2);
        assert_eq!(snapshot_home(&restored, None), bytes, "state round-trips");
        let text = registry.render_prometheus();
        assert!(text.contains(&format!(
            "fiat_control_snapshot_bytes_total {}",
            bytes.len()
        )));
        assert!(text.contains("fiat_control_snapshots_total{op=\"save\"} 1"));
        assert!(text.contains("fiat_control_snapshots_total{op=\"restore\"} 1"));
    }

    #[test]
    fn garbage_bytes_are_refused() {
        let err = match restore_home(
            b"not a snapshot",
            ProxyConfig::default(),
            &SECRET,
            HumannessValidator::with_operating_point(1.0, 1.0, 0),
            plug(),
            |_| EventClassifier::simple_rule(0),
            None,
        ) {
            Ok(_) => panic!("garbage must be refused"),
            Err(e) => e,
        };
        assert_eq!(err, SnapshotError::Corrupt);
    }

    #[test]
    fn foreign_version_is_refused() {
        let proxy = seeded_proxy(1, 0, 0);
        let mut bytes = snapshot_home(&proxy, None);
        bytes[..4].copy_from_slice(&99u32.to_le_bytes());
        let err = match restore_home(
            &bytes,
            ProxyConfig::default(),
            &SECRET,
            HumannessValidator::with_operating_point(1.0, 1.0, 0),
            plug(),
            |_| EventClassifier::simple_rule(0),
            None,
        ) {
            Ok(_) => panic!("foreign version must be refused"),
            Err(e) => e,
        };
        assert_eq!(err, SnapshotError::UnsupportedVersion(99));
    }

    #[test]
    fn inconsistent_open_event_is_refused() {
        // A pending event with no packets is well formed and its audit
        // chain verifies, but classifying it would panic the resumed
        // proxy. The home's one device record follows the device count:
        // its id 0, a `classify_at` of 4, then the tag of its open event,
        // which the edit turns from none into a pending event (no
        // packets, `last`, no fate).
        let bytes = snapshot_home(&seeded_proxy(1, 0, 0), None);
        let head = [&[1, 0, 0, 0, 0, 0][..], &4u64.to_le_bytes(), &[0]].concat();
        let at = bytes.windows(head.len()).position(|w| *w == head[..]);
        let at = at.expect("the device record") + head.len() - 1;
        let last = SimTime::from_secs(1).as_micros().to_le_bytes();
        let pending = [&[1, 0, 0, 0, 0][..], &last, &[0]].concat();
        let edited = [&bytes[..at], &pending, &bytes[at + 1..]].concat();
        let err = restore_home(
            &edited,
            ProxyConfig::default(),
            &SECRET,
            HumannessValidator::with_operating_point(1.0, 1.0, 0),
            plug(),
            |_| EventClassifier::simple_rule(0),
            None,
        )
        .err();
        assert_eq!(err, Some(SnapshotError::InconsistentDevice(0)));
    }

    /// The fixture `fiat_core`'s `snapshot_bytes_are_pinned` pins, the
    /// binary bytes of the layout before it, and the JSON bytes of the
    /// two layouts before that.
    const FIXTURE_V5: &[u8] = include_bytes!("../../core/tests/golden/snapshot_v5.bin");
    const FIXTURE_V4: &[u8] = include_bytes!("../../core/tests/golden/snapshot_v4.bin");
    const FIXTURE_V3: &[u8] = include_bytes!("../../core/tests/golden/snapshot_v3.json");
    const FIXTURE_V2: &[u8] = include_bytes!("../../core/tests/golden/snapshot_v2.json");

    /// Restore `bytes` with the configuration the pinned fixture was
    /// taken under.
    fn restore_fixture(bytes: &[u8]) -> Result<FiatProxy, SnapshotError> {
        let config = ProxyConfig {
            proof_deadline: Some(fiat_net::SimDuration::from_secs(60)),
            max_rules: Some(1),
            max_audit_entries: Some(4),
            ..ProxyConfig::default()
        };
        restore_home(
            bytes,
            config,
            &SECRET,
            HumannessValidator::with_operating_point(1.0, 1.0, 0),
            plug(),
            |_| EventClassifier::simple_rule(235),
            None,
        )
    }

    #[test]
    fn earlier_layouts_are_refused() {
        // No legacy reader. The first four bytes of the v2 and v3 JSON
        // read as a version, but the fifth onwards is text where v5 has
        // an audit ledger and option tags. v4 stored each DNS entry with
        // its domain string; where v5 reads the domain list, the first
        // entry's address reads as a length longer than the bytes left.
        // Either way the bytes stop reading as version 5 before restore
        // checks the version.
        let v4 = 4u32.to_le_bytes();
        for (fixture, head) in [
            (FIXTURE_V2, &b"{\"version\":2,"[..]),
            (FIXTURE_V3, &b"{\"version\":3,"[..]),
            (FIXTURE_V4, &v4[..]),
        ] {
            assert!(fixture.starts_with(head));
            match restore_fixture(fixture) {
                Ok(_) => panic!("earlier layouts must be refused"),
                Err(e) => assert_eq!(e, SnapshotError::Corrupt),
            }
        }
    }

    #[test]
    fn fixture_restores_whole_and_no_strict_prefix_parses() {
        let proxy = restore_fixture(FIXTURE_V5).expect("the v5 fixture restores");
        assert_eq!(snapshot_home(&proxy, None), FIXTURE_V5);
        for len in 0..FIXTURE_V5.len() {
            match restore_fixture(&FIXTURE_V5[..len]) {
                Ok(_) => panic!("a {len}-byte prefix restored"),
                Err(e) => assert_eq!(e, SnapshotError::Corrupt, "{len}-byte prefix"),
            }
        }
    }

    #[test]
    fn single_byte_flips_never_panic_restore() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x5eed);
        let (mut decoded, mut restored) = (0, 0);
        for _ in 0..2_000 {
            let mut bytes = FIXTURE_V5.to_vec();
            let at = rng.gen_range(0..bytes.len());
            bytes[at] ^= 1 << rng.gen_range(0..8u32);
            // Either restore outcome is fine (a panic fails the test),
            // but any input restore accepts, the restored home writes
            // back exactly.
            match restore_fixture(&bytes) {
                Ok(home) => {
                    decoded += 1;
                    restored += 1;
                    assert_eq!(snapshot_home(&home, None), bytes, "flip at byte {at}");
                }
                Err(SnapshotError::Corrupt) => {}
                Err(_) => decoded += 1,
            }
        }
        // Flips inside timestamps and counters keep the bytes decodable,
        // so the run reaches restore's semantic checks, not only the
        // encoding's.
        assert!(decoded > 0);
        assert!(restored > 0);
    }

    /// One replay epoch's tickets, each with its nonces.
    type Tickets<'a> = &'a [(u64, &'a [u64])];

    /// The replay window's list as the layout writes it: epochs, each
    /// with its tickets.
    fn replay_list(epochs: &[(u32, Tickets)]) -> Vec<u8> {
        let count = |n: usize| (n as u32).to_le_bytes();
        let mut out = count(epochs.len()).to_vec();
        for &(epoch, tickets) in epochs {
            out.extend(epoch.to_le_bytes());
            out.extend(count(tickets.len()));
            for &(ticket, nonces) in tickets {
                out.extend(ticket.to_le_bytes());
                out.extend(count(nonces.len()));
                nonces.iter().for_each(|n| out.extend(n.to_le_bytes()));
            }
        }
        out
    }

    /// A home with a rule and a ghost (cap 1), two unknown devices and
    /// two proofs on one ticket, and the config it runs under.
    fn capped_home() -> (FiatProxy, ProxyConfig) {
        let config = ProxyConfig {
            max_rules: Some(1),
            ..ProxyConfig::default()
        };
        let mut home = FiatProxy::with_telemetry(
            config.clone(),
            &SECRET,
            HumannessValidator::with_operating_point(1.0, 1.0, 0),
            plug(),
        );
        home.register_device(0, EventClassifier::simple_rule(235), 1);
        home.start(SimTime::ZERO);
        let sized = |size, at_secs| fiat_net::PacketRecord {
            size,
            ..unknown_pkt(0, at_secs)
        };
        for k in 0..120 {
            home.on_packet(&sized(100, k * 10));
            home.on_packet(&sized(150, k * 10 + 5));
        }
        let mut app = fiat_core::FiatApp::new(&SECRET, 3);
        let hello = home.accept_handshake(&app.handshake_request());
        app.complete_handshake(&hello).unwrap();
        let imu = ImuTrace::synthesize(MotionKind::HumanTouch, 500, 3);
        for at_ms in [1_200_000, 1_201_000] {
            let proof = app
                .authorize_zero_rtt("app", &imu, MotionKind::HumanTouch, at_ms)
                .unwrap();
            assert_eq!(
                home.on_auth_zero_rtt(&proof, SimTime::from_millis(at_ms)),
                Ok(true)
            );
        }
        for device in [900, 901] {
            home.on_packet(&unknown_pkt(device, 1_210));
        }
        (home, config)
    }

    /// Where [`capped_home`]'s rule lists sit in its bytes: the one
    /// rule's key, the ghost list's count and the unknown devices that
    /// follow the ghost. The DNS table and the bootstrap buffer are
    /// empty, so the rule list (option tag 1, count 1) follows the
    /// degraded flag and three empty counts. Both keys are PortLess keys
    /// on an address DNS never resolved: 12 bytes. The unknown devices
    /// are a count of 2 and the ids 900 and 901.
    fn rule_lists_at(bytes: &[u8]) -> (usize, usize, usize) {
        let at = |needle: &[u8]| {
            let found: Vec<_> = (0..bytes.len())
                .filter(|&i| bytes[i..].starts_with(needle))
                .collect();
            assert_eq!(found.len(), 1, "{needle:?}");
            found[0]
        };
        let lists = [[0; 13].as_slice(), &[1, 1, 0, 0, 0]].concat();
        let rule_at = at(&lists) + lists.len();
        let ghosts_at = rule_at + 12;
        assert_eq!(bytes[ghosts_at..ghosts_at + 4], [1, 0, 0, 0]);
        (rule_at, ghosts_at, at(&[2, 0, 0, 0, 0x84, 3, 0x85, 3]))
    }

    #[test]
    fn restore_accepts_only_bytes_it_writes_back() {
        // Each edit of `capped_home`'s bytes below lists a set the live
        // proxy holds once and in order (unknown devices, replay epochs,
        // tickets and nonces) out of order or with a repeat, or holds a
        // rule key twice. Restoring any of them would collapse, reorder
        // or keep the repeat (a key kept as both a rule and a ghost is a
        // table the live path never builds), so each is refused. They are
        // restored under cap 2, so the rule edits meet the repeated-key
        // check, not the cap.
        let (home, config) = capped_home();
        let bytes = snapshot_home(&home, None);
        let size = home.state_size();
        let held = (size.rules, size.rule_ghosts, size.replay_tickets);
        assert_eq!((held, size.replay_entries), ((1, 1, 1), 2));

        // Where the edits go. The replay list ends the bytes: one epoch
        // holding one ticket with two nonces, 40 bytes.
        let replay_at = bytes.len() - 40;
        let u64_at = |i: usize| u64::from_le_bytes(bytes[i..i + 8].try_into().unwrap());
        let e = u32::from_le_bytes(bytes[replay_at + 4..replay_at + 8].try_into().unwrap());
        let (t, n) = (
            u64_at(replay_at + 12),
            [u64_at(replay_at + 24), u64_at(replay_at + 32)],
        );
        assert_eq!(bytes[replay_at..], replay_list(&[(e, &[(t, &n)])]));
        let (rule_at, ghosts_at, unknown_at) = rule_lists_at(&bytes);
        let (rule_key, ghost_entry) = (
            &bytes[rule_at..ghosts_at],
            &bytes[ghosts_at + 4..unknown_at],
        );

        let spliced = |from: usize, to: usize, with: &[&[u8]]| -> Vec<u8> {
            let mut out = bytes[..from].to_vec();
            with.iter().for_each(|part| out.extend_from_slice(part));
            out.extend_from_slice(&bytes[to..]);
            out
        };
        let ids =
            |a: u16, b: u16| [[2, 0, 0, 0].as_slice(), &a.to_le_bytes(), &b.to_le_bytes()].concat();
        let two = 2u32.to_le_bytes();
        let corrupt = SnapshotError::Corrupt;
        let rules = SnapshotError::InconsistentRules;
        let edits = [
            (
                "unknown devices out of order",
                spliced(unknown_at, unknown_at + 8, &[&ids(901, 900)]),
                corrupt,
            ),
            (
                "an unknown device repeated",
                spliced(unknown_at, unknown_at + 8, &[&ids(900, 900)]),
                corrupt,
            ),
            (
                "replay epochs repeated",
                spliced(
                    replay_at,
                    bytes.len(),
                    &[&replay_list(&[(e, &[(t, &n[..1])]), (e, &[(t, &n[1..])])])],
                ),
                corrupt,
            ),
            (
                "replay tickets repeated",
                spliced(
                    replay_at,
                    bytes.len(),
                    &[&replay_list(&[(e, &[(t, &n[..1]), (t, &n[1..])])])],
                ),
                corrupt,
            ),
            (
                "replay nonces out of order",
                spliced(
                    replay_at,
                    bytes.len(),
                    &[&replay_list(&[(e, &[(t, &[n[1], n[0]])])])],
                ),
                corrupt,
            ),
            (
                "a rule repeated",
                spliced(rule_at - 4, ghosts_at, &[&two, rule_key, rule_key]),
                rules,
            ),
            (
                "a ghost repeated",
                spliced(ghosts_at, unknown_at, &[&two, ghost_entry, ghost_entry]),
                rules,
            ),
            (
                "a rule that is also a ghost",
                spliced(ghosts_at + 4, ghosts_at + 4 + rule_key.len(), &[rule_key]),
                rules,
            ),
        ];
        let config = ProxyConfig {
            max_rules: Some(2),
            ..config
        };
        let restore = |bytes: &[u8]| {
            restore_home(
                bytes,
                config.clone(),
                &SECRET,
                HumannessValidator::with_operating_point(1.0, 1.0, 0),
                plug(),
                |_| EventClassifier::simple_rule(235),
                None,
            )
        };
        let outcome = |edited: &[u8]| match restore(edited) {
            Ok(home) if snapshot_home(&home, None) == edited => {
                "writes back the same bytes".to_string()
            }
            Ok(_) => "writes back other bytes".to_string(),
            Err(e) => e.to_string(),
        };
        assert_eq!(outcome(&bytes), "writes back the same bytes");
        let seen: Vec<_> = edits
            .iter()
            .map(|(case, edited, _)| (*case, outcome(edited)))
            .collect();
        let refused: Vec<_> = edits
            .iter()
            .map(|(case, _, e)| (*case, e.to_string()))
            .collect();
        assert_eq!(seen, refused);
    }

    #[test]
    fn restore_refuses_state_over_its_caps() {
        // The live path never holds more rules or ghosts than
        // `max_rules`, nor more audit entries than `max_audit_entries`.
        // Restore refuses both instead of trimming them, which would
        // write back other bytes.
        let (home, config) = capped_home();
        let bytes = snapshot_home(&home, None);
        let restore = |bytes: &[u8], config: ProxyConfig| {
            let home = restore_home(
                bytes,
                config,
                &SECRET,
                HumannessValidator::with_operating_point(1.0, 1.0, 0),
                plug(),
                |_| EventClassifier::simple_rule(235),
                None,
            )?;
            assert_eq!(snapshot_home(&home, None), bytes);
            Ok::<_, SnapshotError>(())
        };
        let capped = |max_rules, max_audit_entries| ProxyConfig {
            max_rules: Some(max_rules),
            max_audit_entries: Some(max_audit_entries),
            ..config.clone()
        };
        // The ghost's key edited into a second rule: two rules, no ghost.
        let (rule_at, ghosts_at, unknown_at) = rule_lists_at(&bytes);
        let two_rules = [
            &bytes[..rule_at - 4],
            &2u32.to_le_bytes(),
            &bytes[rule_at..ghosts_at],
            &bytes[ghosts_at + 4..ghosts_at + 16],
            &0u32.to_le_bytes(),
            &bytes[unknown_at..],
        ]
        .concat();
        let entries = home.audit().len();
        assert!(entries > 1);
        assert_eq!(restore(&two_rules, capped(2, entries)), Ok(()));
        assert_eq!(
            restore(&two_rules, capped(1, entries)),
            Err(SnapshotError::InconsistentRules)
        );
        // The log one entry over the cap.
        assert_eq!(restore(&bytes, capped(1, entries)), Ok(()));
        assert_eq!(
            restore(&bytes, capped(1, entries - 1)),
            Err(SnapshotError::AuditChainInvalid)
        );
    }

    #[test]
    fn restored_home_keeps_a_rule_on_an_address_named_like_it() {
        // DNS answers are on-path input: 6.6.6.6 resolves to the name
        // "34.0.0.1", while 34.0.0.1 itself never resolved. The home
        // learns a rule on the unresolved address; after a migration it
        // must decide every later packet, to either address, exactly as
        // the uninterrupted home does.
        let spoofed = std::net::Ipv4Addr::new(6, 6, 6, 6);
        let mut dns = fiat_net::DnsTable::new();
        dns.observe_forward(spoofed, "34.0.0.1");
        let mut uninterrupted = seeded_proxy(1, 0, 0);
        uninterrupted.set_dns(dns);
        // Twenty minutes of bootstrap; the next packet learns the rules
        // and hits one.
        for minute in 0..=20 {
            let _ = uninterrupted.on_packet(&unknown_pkt(0, minute * 60));
        }
        assert_eq!(uninterrupted.stats().rule_hit, 1);
        let bytes = snapshot_home(&uninterrupted, None);
        let mut restored = restore_home(
            &bytes,
            ProxyConfig::default(),
            &SECRET,
            HumannessValidator::with_operating_point(1.0, 1.0, 0),
            plug(),
            |d| EventClassifier::simple_rule(200 + d * 10),
            None,
        )
        .expect("restore");
        let mut hits = 0;
        for minute in 21..31 {
            let to_address = unknown_pkt(0, minute * 60);
            let to_domain = fiat_net::PacketRecord {
                remote_ip: spoofed,
                ..unknown_pkt(0, minute * 60 + 30)
            };
            for p in [to_address, to_domain] {
                let d = uninterrupted.on_packet(&p);
                assert_eq!(restored.on_packet(&p), d, "{p:?}");
                let hit = d == ProxyDecision::Allow(AllowReason::RuleHit);
                assert_eq!(hit, p.remote_ip != spoofed, "{p:?}");
                hits += usize::from(hit);
            }
        }
        assert_eq!(hits, 10);
        assert_eq!(restored.stats(), uninterrupted.stats());
        assert_eq!(
            snapshot_home(&restored, None),
            snapshot_home(&uninterrupted, None)
        );
    }

    proptest! {
        /// The round-trip property: for arbitrary provisioning shapes,
        /// write → restore → write is byte-identical (the
        /// canonical-bytes contract every rebalance leans on).
        #[test]
        fn snapshot_bytes_round_trip_byte_identically(
            devices in 0u16..6,
            rotations in 0u32..4,
            start_secs in 0u64..1000,
        ) {
            let proxy = seeded_proxy(devices, rotations, start_secs);
            let bytes = snapshot_home(&proxy, None);
            let restored = restore_home(
                &bytes,
                ProxyConfig::default(),
                &SECRET,
                HumannessValidator::with_operating_point(1.0, 1.0, 0),
                plug(),
                |d| EventClassifier::simple_rule(200 + d * 10),
                None,
            ).expect("restore");
            prop_assert_eq!(snapshot_home(&restored, None), bytes);
        }

        /// A checkpoint-truncated audit chain survives rebalance: drive
        /// enough entries through a small cap that the journal truncates
        /// behind a checkpoint, then snapshot → restore → the restored
        /// chain still verifies (from the checkpoint, not genesis), the
        /// truncation ledger carries over, and re-snapshotting is
        /// byte-identical.
        #[test]
        fn truncated_audit_chain_survives_rebalance(
            cap in 4usize..12,
            extra in 1u16..30,
        ) {
            let config = ProxyConfig {
                max_audit_entries: Some(cap),
                ..ProxyConfig::default()
            };
            let mut proxy = FiatProxy::with_telemetry(
                config.clone(),
                &SECRET,
                HumannessValidator::with_operating_point(1.0, 1.0, 0),
                plug(),
            );
            proxy.start(SimTime::ZERO);
            // Each unregistered device appends one unknown-device audit
            // entry at first sighting (past the 20-minute bootstrap —
            // during the window everything merely buffers); enough of
            // them force truncation.
            let sightings = cap as u16 + extra;
            for d in 0..sightings {
                let _ = proxy.on_packet(&unknown_pkt(d, 1_300 + u64::from(d)));
            }
            prop_assert!(proxy.audit().truncated() > 0, "cap never engaged");
            prop_assert!(proxy.audit().checkpoint().is_some());
            prop_assert!(proxy.audit().verify());

            let bytes = snapshot_home(&proxy, None);
            let restored = restore_home(
                &bytes,
                config,
                &SECRET,
                HumannessValidator::with_operating_point(1.0, 1.0, 0),
                plug(),
                |_| EventClassifier::simple_rule(0),
                None,
            ).expect("restore");
            prop_assert!(restored.audit().verify(), "restored chain fails verification");
            prop_assert_eq!(restored.audit().truncated(), proxy.audit().truncated());
            prop_assert_eq!(restored.audit().total_appended(), u64::from(sightings));
            prop_assert_eq!(restored.audit().checkpoint(), proxy.audit().checkpoint());
            prop_assert_eq!(snapshot_home(&restored, None), bytes);
        }
    }

    fn unknown_pkt(device: u16, at_secs: u64) -> fiat_net::PacketRecord {
        use fiat_net::{Direction, TcpFlags, TlsVersion, TrafficClass, Transport};
        fiat_net::PacketRecord {
            ts: SimTime::from_secs(at_secs),
            device,
            direction: Direction::FromDevice,
            local_ip: std::net::Ipv4Addr::new(192, 168, 1, 50),
            remote_ip: std::net::Ipv4Addr::new(34, 0, 0, 1),
            local_port: 40_000,
            remote_port: 443,
            transport: Transport::Tcp,
            tcp_flags: TcpFlags::ack(),
            tls: TlsVersion::None,
            size: 100,
            label: TrafficClass::Control,
        }
    }
}
