//! Snapshot/restore orchestration: the control-plane operations a fleet
//! uses to rebalance a home between shards or survive a proxy restart.
//!
//! [`snapshot_home`] serializes a [`FiatProxy`]'s [`HomeSnapshot`] to
//! canonical JSON bytes (deterministic: the snapshot sorts every
//! collection, so the same state always produces the same bytes) and
//! counts them into `fiat_control_snapshot_bytes_total`.
//! [`restore_home`] parses, re-verifies (version, audit chain and each
//! device's open-event state), and
//! rebuilds a proxy that resumes byte-identically — the determinism
//! contract proven by the core pipeline tests and the fleet rebalance
//! oracle.

use crate::metrics::ControlMetrics;
use fiat_core::pipeline::ProxyTelemetry;
use fiat_core::{EventClassifier, FiatProxy, HomeSnapshot, ProxyConfig, SnapshotError};
use fiat_sensors::HumannessValidator;

/// Why a serialized snapshot could not be restored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestoreError {
    /// The bytes did not parse as a [`HomeSnapshot`].
    Corrupt,
    /// The snapshot parsed but failed validation.
    Snapshot(SnapshotError),
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::Corrupt => write!(f, "snapshot bytes did not parse"),
            RestoreError::Snapshot(e) => write!(f, "snapshot rejected: {e}"),
        }
    }
}

impl std::error::Error for RestoreError {}

impl From<SnapshotError> for RestoreError {
    fn from(e: SnapshotError) -> Self {
        RestoreError::Snapshot(e)
    }
}

/// Serialize `proxy`'s full decision state to canonical JSON bytes.
pub fn snapshot_home(proxy: &FiatProxy, metrics: Option<&ControlMetrics>) -> Vec<u8> {
    let snap = proxy.snapshot();
    let bytes = serde_json::to_vec(&snap).expect("snapshot serializes");
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
) -> Result<FiatProxy, RestoreError> {
    let snap: HomeSnapshot = serde_json::from_slice(bytes).map_err(|_| RestoreError::Corrupt)?;
    let proxy = FiatProxy::restore(
        config,
        ceremony_secret,
        validator,
        telemetry,
        &snap,
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
    use fiat_core::snapshot::OpenEvent;
    use fiat_net::SimTime;
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
        assert_eq!(err, RestoreError::Corrupt);
    }

    #[test]
    fn foreign_version_is_refused() {
        let proxy = seeded_proxy(1, 0, 0);
        let mut snap = proxy.snapshot();
        snap.version = 99;
        let bytes = serde_json::to_vec(&snap).unwrap();
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
        assert_eq!(
            err,
            RestoreError::Snapshot(SnapshotError::UnsupportedVersion(99))
        );
    }

    #[test]
    fn inconsistent_open_event_is_refused() {
        // A pending event with no packets parses and its audit chain
        // verifies, but classifying it would panic the resumed proxy.
        let proxy = seeded_proxy(1, 0, 0);
        let mut snap = proxy.snapshot();
        snap.devices[0].open = Some(OpenEvent {
            packets: Vec::new(),
            last: SimTime::from_secs(1),
            fate: None,
        });
        let bytes = serde_json::to_vec(&snap).unwrap();
        let err = match restore_home(
            &bytes,
            ProxyConfig::default(),
            &SECRET,
            HumannessValidator::with_operating_point(1.0, 1.0, 0),
            plug(),
            |_| EventClassifier::simple_rule(0),
            None,
        ) {
            Ok(_) => panic!("inconsistent open event must be refused"),
            Err(e) => e,
        };
        assert_eq!(
            err,
            RestoreError::Snapshot(SnapshotError::InconsistentDevice(0))
        );
    }

    proptest! {
        /// The satellite round-trip property: for arbitrary provisioning
        /// shapes, serialize → deserialize → serialize is byte-identical
        /// (the canonical-bytes contract every rebalance leans on).
        #[test]
        fn snapshot_serde_round_trips_byte_identically(
            devices in 0u16..6,
            rotations in 0u32..4,
            start_secs in 0u64..1000,
        ) {
            let proxy = seeded_proxy(devices, rotations, start_secs);
            let bytes = snapshot_home(&proxy, None);
            let snap: HomeSnapshot = serde_json::from_slice(&bytes).expect("parses");
            let again = serde_json::to_vec(&snap).expect("re-serializes");
            prop_assert_eq!(bytes, again);
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
