//! Lifecycle metrics for the proxy cluster control plane.
//!
//! The control plane owns the home lifecycle the paper hand-waves:
//! enrollment, ticket-epoch key rotation, snapshot/restore rebalancing,
//! and the degraded mode the proxy drops into when the control plane is
//! unreachable. Each of those has a counter family here so lifecycle
//! regressions surface on the same dashboards as the decision path:
//!
//! - `fiat_control_enrollments_total{result=}` — enrollment attempts, by
//!   outcome (`accepted` / `rejected`).
//! - `fiat_control_epoch_rotations_total` — ticket-epoch rotations
//!   driven by the key-lifecycle manager.
//! - `fiat_control_epochs_retired_total` — epochs retired by the
//!   manager's bounded-window schedule (the quic layer keeps its own
//!   count of what actually dropped out of the replay store).
//! - `fiat_control_outages_total` — control-plane outage windows the
//!   proxy weathered in degraded mode.
//! - `fiat_control_degraded_transitions_total{state=}` — degraded-mode
//!   entries and exits (`entered` / `exited`).
//! - `fiat_control_snapshots_total{op=}` — snapshot operations
//!   (`save` / `restore`).
//! - `fiat_control_snapshot_bytes_total` — cumulative serialized
//!   snapshot bytes (a counter, not a gauge, so per-home registries keep
//!   folding additively).

use fiat_telemetry::{Counter, MetricRegistry};

/// Metric name for enrollment-outcome counters.
pub const CONTROL_ENROLLMENTS_TOTAL: &str = "fiat_control_enrollments_total";
/// Metric name for the epoch-rotation counter.
pub const CONTROL_EPOCH_ROTATIONS_TOTAL: &str = "fiat_control_epoch_rotations_total";
/// Metric name for the epoch-retirement counter.
pub const CONTROL_EPOCHS_RETIRED_TOTAL: &str = "fiat_control_epochs_retired_total";
/// Metric name for the outage-window counter.
pub const CONTROL_OUTAGES_TOTAL: &str = "fiat_control_outages_total";
/// Metric name for degraded-mode transition counters.
pub const CONTROL_DEGRADED_TRANSITIONS_TOTAL: &str = "fiat_control_degraded_transitions_total";
/// Metric name for snapshot-operation counters.
pub const CONTROL_SNAPSHOTS_TOTAL: &str = "fiat_control_snapshots_total";
/// Metric name for the cumulative snapshot-size counter.
pub const CONTROL_SNAPSHOT_BYTES_TOTAL: &str = "fiat_control_snapshot_bytes_total";

/// Handle bundle for recording control-plane lifecycle events.
#[derive(Debug, Clone)]
pub struct ControlMetrics {
    enroll_accepted: Counter,
    enroll_rejected: Counter,
    rotations: Counter,
    retired: Counter,
    outages: Counter,
    degraded_entered: Counter,
    degraded_exited: Counter,
    snapshot_saves: Counter,
    snapshot_restores: Counter,
    snapshot_bytes: Counter,
}

impl ControlMetrics {
    /// Register descriptions and resolve every counter.
    pub fn new(registry: &MetricRegistry) -> Self {
        registry.describe(
            CONTROL_ENROLLMENTS_TOTAL,
            "Device/phone enrollment attempts, by outcome.",
        );
        registry.describe(
            CONTROL_EPOCH_ROTATIONS_TOTAL,
            "Session-ticket epoch rotations performed by the key-lifecycle manager.",
        );
        registry.describe(
            CONTROL_EPOCHS_RETIRED_TOTAL,
            "Ticket epochs retired on the bounded-window schedule.",
        );
        registry.describe(
            CONTROL_OUTAGES_TOTAL,
            "Control-plane outage windows weathered in degraded mode.",
        );
        registry.describe(
            CONTROL_DEGRADED_TRANSITIONS_TOTAL,
            "Degraded-mode transitions, by direction.",
        );
        registry.describe(CONTROL_SNAPSHOTS_TOTAL, "Home snapshot operations, by op.");
        registry.describe(
            CONTROL_SNAPSHOT_BYTES_TOTAL,
            "Cumulative serialized snapshot bytes.",
        );
        Self {
            enroll_accepted: registry.counter(CONTROL_ENROLLMENTS_TOTAL, &[("result", "accepted")]),
            enroll_rejected: registry.counter(CONTROL_ENROLLMENTS_TOTAL, &[("result", "rejected")]),
            rotations: registry.counter(CONTROL_EPOCH_ROTATIONS_TOTAL, &[]),
            retired: registry.counter(CONTROL_EPOCHS_RETIRED_TOTAL, &[]),
            outages: registry.counter(CONTROL_OUTAGES_TOTAL, &[]),
            degraded_entered: registry
                .counter(CONTROL_DEGRADED_TRANSITIONS_TOTAL, &[("state", "entered")]),
            degraded_exited: registry
                .counter(CONTROL_DEGRADED_TRANSITIONS_TOTAL, &[("state", "exited")]),
            snapshot_saves: registry.counter(CONTROL_SNAPSHOTS_TOTAL, &[("op", "save")]),
            snapshot_restores: registry.counter(CONTROL_SNAPSHOTS_TOTAL, &[("op", "restore")]),
            snapshot_bytes: registry.counter(CONTROL_SNAPSHOT_BYTES_TOTAL, &[]),
        }
    }

    /// Record an enrollment attempt.
    pub fn record_enrollment(&self, accepted: bool) {
        if accepted {
            self.enroll_accepted.inc();
        } else {
            self.enroll_rejected.inc();
        }
    }

    /// Record one epoch rotation.
    pub fn record_rotation(&self) {
        self.rotations.inc();
    }

    /// Record `n` epochs retired.
    pub fn record_retired(&self, n: u64) {
        if n > 0 {
            self.retired.add(n);
        }
    }

    /// Record one control-plane outage window.
    pub fn record_outage(&self) {
        self.outages.inc();
    }

    /// Record a degraded-mode transition.
    pub fn record_degraded(&self, entered: bool) {
        if entered {
            self.degraded_entered.inc();
        } else {
            self.degraded_exited.inc();
        }
    }

    /// Record a snapshot save of `bytes` serialized bytes.
    pub fn record_snapshot_save(&self, bytes: u64) {
        self.snapshot_saves.inc();
        self.snapshot_bytes.add(bytes);
    }

    /// Record a snapshot restore.
    pub fn record_snapshot_restore(&self) {
        self.snapshot_restores.inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_lifecycle_counters() {
        let registry = MetricRegistry::new();
        let m = ControlMetrics::new(&registry);
        m.record_enrollment(true);
        m.record_enrollment(true);
        m.record_enrollment(false);
        m.record_rotation();
        m.record_retired(3);
        m.record_retired(0); // no-op
        m.record_outage();
        m.record_degraded(true);
        m.record_degraded(false);
        m.record_snapshot_save(1024);
        m.record_snapshot_restore();

        let text = registry.render_prometheus();
        assert!(text.contains("fiat_control_enrollments_total{result=\"accepted\"} 2"));
        assert!(text.contains("fiat_control_enrollments_total{result=\"rejected\"} 1"));
        assert!(text.contains("fiat_control_epoch_rotations_total 1"));
        assert!(text.contains("fiat_control_epochs_retired_total 3"));
        assert!(text.contains("fiat_control_outages_total 1"));
        assert!(text.contains("fiat_control_degraded_transitions_total{state=\"entered\"} 1"));
        assert!(text.contains("fiat_control_snapshots_total{op=\"save\"} 1"));
        assert!(text.contains("fiat_control_snapshot_bytes_total 1024"));
    }
}
