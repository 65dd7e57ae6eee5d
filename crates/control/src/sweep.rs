//! The control-plane sweep: enroll → rotate epochs → outage window →
//! recover, on the paper's testbed, end to end.
//!
//! One cell enrolls a home through the real mutual-auth flow, then
//! drives the capture with the [`KeyLifecycle`] ticking alongside: the
//! issuing epoch rotates on schedule, old epochs retire (forcing the
//! phone's 0-RTT through the `RetiredEpoch` → 1-RTT fallback → fresh
//! handshake path), and — when enabled — a control-plane-outage window
//! from the chaos fault taxonomy freezes the lifecycle mid-run. Every
//! genuine post-bootstrap manual event gets a humanness proof delivered
//! just ahead of its first packet, and the headline **false drops**
//! number comes from the chaos soak's [`ManualLedger`]: a genuine manual
//! event that lost packets despite its proof.
//!
//! The cell can also rebalance mid-run: snapshot the proxy at the
//! midpoint packet, restore it into a fresh telemetry plug (as a
//! destination shard would), re-handshake the phone (restore drops the
//! 1-RTT session key by design), and resume. A rebalanced cell must
//! report stats and an audit head byte-identical to the uninterrupted
//! cell — the determinism oracle `experiments control` enforces.

use crate::enroll::{enroll_home, DeviceSpec, HomeProvision};
use crate::lifecycle::{KeyLifecycle, LifecyclePolicy};
use crate::rebalance::{restore_home, snapshot_home};
use fiat_chaos::{FaultKind, FaultPlan, ManualLedger, FAULT_KINDS};
use fiat_core::pipeline::ProxyTelemetry;
use fiat_core::{
    AuthAttempt, DeliveryResult, EventClassifier, ProxyConfig, ProxyStats, RetryPolicy,
};
use fiat_net::{SimDuration, SimTime};
use fiat_sensors::{HumannessValidator, ImuTrace, MotionKind};
use fiat_telemetry::{ControlMetrics, ManualClock, MetricRegistry};
use fiat_trace::{TestbedConfig, TestbedTrace};
use std::sync::Arc;

/// Ceremony secret shared by the sweep's phone and proxy.
const SECRET: [u8; 32] = [0xCA; 32];

/// One control-sweep cell's configuration.
#[derive(Debug, Clone, Copy)]
pub struct ControlConfig {
    /// Master seed (trace, nonces, and client jitter derive from it).
    pub seed: u64,
    /// Scale the capture down for smoke tests.
    pub quick: bool,
    /// Key-lifecycle policy (rotation cadence, window width, and whether
    /// an outage freezes the window — the degraded-mode switch).
    pub policy: LifecyclePolicy,
    /// Inject a control-plane-outage window mid-run.
    pub outage: bool,
    /// Rebalance the home (snapshot → restore → resume) at the midpoint
    /// packet.
    pub rebalance: bool,
}

impl ControlConfig {
    /// The default cell: 4-minute rotations, 2 live epochs, degraded
    /// mode on, outage injected, no rebalance.
    pub fn new(seed: u64, quick: bool) -> Self {
        ControlConfig {
            seed,
            quick,
            policy: LifecyclePolicy {
                rotation_interval: SimDuration::from_mins(4),
                max_live_epochs: 2,
                freeze_on_outage: true,
            },
            outage: true,
            rebalance: false,
        }
    }
}

/// Aggregate result of one control-sweep cell.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlReport {
    /// Packets driven through the proxy.
    pub packets: u64,
    /// Genuine post-bootstrap manual events (each gets a proof).
    pub manual_events: u64,
    /// Events whose proof verified at the proxy.
    pub proofs_delivered: u64,
    /// Events that lost packets despite a delivered proof (must be 0).
    pub false_drops: u64,
    /// Proof exchanges that fell back from 0-RTT to 1-RTT (retired
    /// epochs biting; must be > 0 once rotation outpaces the window).
    pub fallbacks: u64,
    /// Proof exchanges attempted inside the outage window.
    pub outage_proofs: u64,
    /// Fallbacks inside the outage window (0 with degraded mode on: the
    /// frozen window keeps last-known-good epochs serving 0-RTT).
    pub outage_fallbacks: u64,
    /// Epoch rotations performed.
    pub rotations: u64,
    /// Epochs retired.
    pub epochs_retired: u64,
    /// Outage windows entered (degraded-mode transitions in).
    pub outages: u64,
    /// Packet decisions taken while degraded.
    pub degraded_decisions: u64,
    /// Widest live-epoch window observed (bounded-memory check).
    pub max_live_epochs_seen: u32,
    /// Serialized snapshot size, when the cell rebalanced (else 0).
    pub snapshot_bytes: u64,
    /// Injected faults by kind (the control-outage row counts windows).
    pub faults: Vec<(&'static str, u64)>,
    /// Final proxy counters.
    pub stats: ProxyStats,
    /// Audit-chain head after the trailing flush (32 bytes), for the
    /// rebalanced-vs-uninterrupted identity check.
    pub audit_head: Option<[u8; 32]>,
    /// Audit entries written.
    pub audit_len: u64,
}

/// Run one control-sweep cell. Fully deterministic per [`ControlConfig`].
pub fn run_control_sweep(cfg: &ControlConfig, metrics: &ControlMetrics) -> ControlReport {
    let days = if cfg.quick { 0.03 } else { 0.08 };
    let tb = TestbedTrace::generate(TestbedConfig {
        days,
        manual_per_day: 60.0,
        routines_per_day: 30.0,
        seed: cfg.seed,
        ..Default::default()
    });
    let config = ProxyConfig {
        bootstrap: SimDuration::from_mins(10),
        ..Default::default()
    };
    let boot_end = SimTime::ZERO + config.bootstrap;
    let span_end = tb.trace.packets.last().map_or(boot_end, |p| p.ts);

    // Enroll the home through the real flow: mutual auth, provisioning,
    // first ticket under epoch 0.
    let device_size = |d: &fiat_trace::DeviceModel| d.command_size().unwrap_or(0);
    let telemetry = ProxyTelemetry::new(MetricRegistry::new(), Arc::new(ManualClock::new()));
    let home = enroll_home(
        HomeProvision {
            config: config.clone(),
            ceremony_secret: SECRET,
            seed: cfg.seed ^ 0x0e_11_70,
            dns: tb.trace.dns.clone(),
            devices: tb
                .devices
                .iter()
                .enumerate()
                .map(|(i, d)| DeviceSpec {
                    device: i as u16,
                    classifier: EventClassifier::simple_rule(device_size(d)),
                    min_packets_to_complete: d.min_packets_to_complete,
                })
                .collect(),
            start_at: SimTime::ZERO,
        },
        &SECRET,
        HumannessValidator::with_operating_point(1.0, 1.0, 0),
        telemetry,
        Some(metrics),
    )
    .expect("sweep enrollment");
    let mut proxy = home.proxy;
    let mut app = home.app;

    // The fault plan carries only the control-outage window: the sweep
    // studies the key lifecycle, not channel noise.
    let mut plan = FaultPlan::none(cfg.seed ^ 0x00_17_a9_e5);
    if cfg.outage {
        let span = span_end.as_micros().saturating_sub(boot_end.as_micros());
        let from = boot_end + SimDuration::from_micros(span / 2);
        let to = boot_end + SimDuration::from_micros(span * 3 / 4);
        plan.control_outage = vec![(from, to)];
    }

    let mut lifecycle = KeyLifecycle::new(cfg.policy, SimTime::ZERO);
    let imu = ImuTrace::synthesize(MotionKind::HumanTouch, 500, cfg.seed ^ 0x51);
    let policy = RetryPolicy::default();

    // Plan proofs: one per genuine post-bootstrap manual event, timed a
    // beat ahead of the event's first packet.
    let mut ledger = ManualLedger::new(&tb.events, boot_end);
    let mut proofs: Vec<(SimTime, usize)> = ledger
        .events()
        .iter()
        .enumerate()
        .map(|(idx, e)| (e.proof_at(), idx))
        .collect();
    proofs.sort_unstable();
    let mut proofs = proofs.into_iter().peekable();

    let mut fallbacks = 0u64;
    let mut outage_proofs = 0u64;
    let mut outage_fallbacks = 0u64;
    let mut max_live = KeyLifecycle::live_epochs(&proxy);
    let mut prev_outage = false;
    let mut snapshot_bytes = 0u64;
    let mut degraded_before_rebalance = 0u64;

    let rebalance_at = (tb.trace.packets.len() / 2).max(1);
    let mut packets = 0u64;

    macro_rules! tick {
        ($now:expr) => {{
            let outage = plan.control_outage_at($now);
            if outage && !prev_outage {
                plan.record(FaultKind::ControlOutage);
            }
            prev_outage = outage;
            lifecycle.tick($now, &mut proxy, !outage, Some(metrics));
            max_live = max_live.max(KeyLifecycle::live_epochs(&proxy));
        }};
    }

    macro_rules! exchange {
        ($job:expr) => {{
            let (at, idx): (SimTime, usize) = $job;
            tick!(at);
            let in_outage = plan.control_outage_at(at);
            if in_outage {
                outage_proofs += 1;
            }
            let outcome = app.authorize_with_retry(
                "iot.app",
                &imu,
                MotionKind::HumanTouch,
                at.as_micros(),
                &policy,
                |att, _| {
                    let r = match &att {
                        AuthAttempt::ZeroRtt(z) => proxy.on_auth_zero_rtt(z, at),
                        AuthAttempt::OneRtt(p) => proxy.on_auth_one_rtt(p, at),
                    };
                    match r {
                        Ok(v) => DeliveryResult::Verified(v),
                        Err(e) => DeliveryResult::Rejected(e),
                    }
                },
            );
            if outcome.fell_back {
                fallbacks += 1;
                if in_outage {
                    outage_fallbacks += 1;
                }
                // The ticket's epoch retired: a fresh handshake restores
                // 0-RTT under the current epoch.
                let hello = app.handshake_request();
                let sh = proxy.accept_handshake(&hello);
                app.complete_handshake(&sh).expect("re-handshake");
            }
            ledger.on_proof(&mut proxy, idx, outcome.verified);
        }};
    }

    for (pi, pkt) in tb.trace.packets.iter().enumerate() {
        while let Some(job) = proofs.next_if(|&(at, _)| at <= pkt.ts) {
            exchange!(job);
        }
        if cfg.rebalance && pi == rebalance_at {
            // Rebalance: snapshot, restore into a fresh telemetry plug
            // (the destination shard's registry), re-handshake the phone
            // (restore drops the 1-RTT session key), resume mid-trace.
            let bytes = snapshot_home(&proxy, Some(metrics));
            snapshot_bytes = bytes.len() as u64;
            degraded_before_rebalance = proxy.telemetry().degraded_decision_count();
            let plug = ProxyTelemetry::new(MetricRegistry::new(), Arc::new(ManualClock::new()));
            proxy = restore_home(
                &bytes,
                config.clone(),
                &SECRET,
                HumannessValidator::with_operating_point(1.0, 1.0, 0),
                plug,
                |d| {
                    EventClassifier::simple_rule(tb.devices.get(d as usize).map_or(0, &device_size))
                },
                Some(metrics),
            )
            .expect("sweep restore");
            let hello = app.handshake_request();
            let sh = proxy.accept_handshake(&hello);
            app.complete_handshake(&sh).expect("post-restore handshake");
        }
        tick!(pkt.ts);
        let d = proxy.on_packet(pkt);
        packets += 1;
        ledger.on_decision(pkt, d);
    }
    for job in proofs {
        exchange!(job);
    }
    proxy.flush(span_end + config.event_gap * 3);

    let tally = ledger.tally();

    let faults: Vec<(&'static str, u64)> = FAULT_KINDS
        .iter()
        .map(|&k| (k.as_str(), plan.count(k)))
        .collect();

    let audit = proxy.audit();
    ControlReport {
        packets,
        manual_events: ledger.events().len() as u64,
        proofs_delivered: tally.verified,
        false_drops: tally.false_drops,
        fallbacks,
        outage_proofs,
        outage_fallbacks,
        rotations: lifecycle.rotations,
        epochs_retired: lifecycle.retired,
        outages: lifecycle.outages,
        degraded_decisions: degraded_before_rebalance + proxy.telemetry().degraded_decision_count(),
        max_live_epochs_seen: max_live,
        snapshot_bytes,
        faults,
        stats: proxy.stats(),
        audit_head: audit.head(),
        audit_len: audit.len() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics() -> ControlMetrics {
        ControlMetrics::new(&MetricRegistry::new())
    }

    #[test]
    fn sweep_rotates_retires_and_keeps_zero_false_drops() {
        let r = run_control_sweep(&ControlConfig::new(42, true), &metrics());
        assert!(r.manual_events > 3, "need events: {r:?}");
        assert_eq!(r.false_drops, 0, "{r:?}");
        assert!(r.rotations > 0, "{r:?}");
        assert!(r.epochs_retired > 0, "{r:?}");
        assert!(r.fallbacks > 0, "retirement must bite 0-RTT: {r:?}");
        assert!(
            r.max_live_epochs_seen <= 2,
            "bounded window violated: {r:?}"
        );
        assert_eq!(r.proofs_delivered, r.manual_events, "{r:?}");
    }

    #[test]
    fn degraded_mode_keeps_zero_rtt_alive_through_the_outage() {
        let on = run_control_sweep(&ControlConfig::new(42, true), &metrics());
        assert_eq!(on.outages, 1, "{on:?}");
        assert!(on.outage_proofs > 0, "outage must cover proofs: {on:?}");
        assert_eq!(
            on.outage_fallbacks, 0,
            "frozen window must keep serving 0-RTT: {on:?}"
        );
        assert!(on.degraded_decisions > 0, "{on:?}");
        let off = run_control_sweep(
            &ControlConfig {
                policy: LifecyclePolicy {
                    freeze_on_outage: false,
                    ..ControlConfig::new(42, true).policy
                },
                ..ControlConfig::new(42, true)
            },
            &metrics(),
        );
        assert_eq!(off.outages, 0, "baseline never enters degraded mode");
        assert!(
            off.outage_fallbacks > 0,
            "baseline must show the cost of retiring mid-outage: {off:?}"
        );
        assert_eq!(off.false_drops, 0, "fallback still saves every event");
    }

    #[test]
    fn rebalanced_cell_is_byte_identical_to_uninterrupted() {
        let plain = run_control_sweep(&ControlConfig::new(7, true), &metrics());
        let moved = run_control_sweep(
            &ControlConfig {
                rebalance: true,
                ..ControlConfig::new(7, true)
            },
            &metrics(),
        );
        assert!(moved.snapshot_bytes > 0);
        assert_eq!(moved.stats, plain.stats);
        assert_eq!(moved.audit_head, plain.audit_head);
        assert_eq!(moved.audit_len, plain.audit_len);
        assert_eq!(moved.false_drops, 0);
    }

    #[test]
    fn sweep_is_deterministic_per_seed() {
        let a = run_control_sweep(&ControlConfig::new(3, true), &metrics());
        let b = run_control_sweep(&ControlConfig::new(3, true), &metrics());
        assert_eq!(a, b);
        let c = run_control_sweep(&ControlConfig::new(4, true), &metrics());
        assert_ne!(a.stats, c.stats, "different seeds must differ");
    }

    #[test]
    fn metrics_see_the_whole_lifecycle() {
        let registry = MetricRegistry::new();
        let metrics = ControlMetrics::new(&registry);
        let r = run_control_sweep(
            &ControlConfig {
                rebalance: true,
                ..ControlConfig::new(42, true)
            },
            &metrics,
        );
        assert_eq!(metrics.rotation_count(), r.rotations);
        assert_eq!(metrics.retired_count(), r.epochs_retired);
        assert_eq!(metrics.outage_count(), r.outages);
        assert_eq!(metrics.enrollment_accepted_count(), 1);
        let text = registry.render_prometheus();
        assert!(text.contains("fiat_control_snapshots_total{op=\"save\"} 1"));
        assert!(text.contains("fiat_control_snapshots_total{op=\"restore\"} 1"));
    }
}
