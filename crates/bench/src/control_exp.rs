//! The control-plane experiment: enroll → rotate epochs → outage window
//! → recover, scored end to end.
//!
//! Not a paper artifact — like the chaos soak, this measures *this
//! implementation's* control plane (`fiat-control`): the mutual-auth
//! enrollment gate must refuse a mismatched ceremony; the key lifecycle
//! must rotate on schedule and keep the live-epoch window bounded while
//! the retired-epoch fallback keeps every genuine event deliverable
//! (**false drops = 0**); degraded mode must carry the home through a
//! control-plane outage with zero 0-RTT fallbacks (the frozen window
//! keeps last-known-good tickets serving), while the unsafe
//! keep-retiring baseline must show the cost (outage-window fallbacks)
//! — otherwise the harness demonstrates nothing; and a mid-run
//! rebalance (snapshot → restore → resume) must land on stats and an
//! audit head byte-identical to the uninterrupted cell. Output is
//! deterministic for a fixed seed and ends with a `control: PASS` /
//! `CONTROL REGRESSION` trailer CI greps for.

use fiat_control::{
    run_control_sweep, ControlConfig, ControlReport, LifecyclePolicy, PhoneEnroller, ProxyEnroller,
};
use fiat_telemetry::{ControlMetrics, MetricRegistry};
use std::fmt::Write as _;

/// The full experiment result.
#[derive(Debug, Clone)]
pub struct ControlExpReport {
    /// Master seed.
    pub seed: u64,
    /// Whether this was the smoke run.
    pub quick: bool,
    /// Whether the enrollment gate refused a mismatched ceremony secret
    /// (and accepted a matched one).
    pub enrollment_gate_holds: bool,
    /// The shipped configuration: degraded mode on, outage injected.
    pub degraded: ControlReport,
    /// The unsafe baseline: same timeline, `freeze_on_outage` off.
    pub baseline: ControlReport,
    /// The shipped configuration with a mid-run rebalance.
    pub rebalanced: ControlReport,
}

impl ControlExpReport {
    /// Whether the rebalanced cell is byte-identical to the
    /// uninterrupted one where it must be.
    pub fn rebalance_invisible(&self) -> bool {
        self.rebalanced.stats == self.degraded.stats
            && self.rebalanced.audit_head == self.degraded.audit_head
            && self.rebalanced.audit_len == self.degraded.audit_len
            && self.rebalanced.snapshot_bytes > 0
    }

    /// The PASS gate, clause by clause.
    pub fn failures(&self) -> Vec<String> {
        let mut f = Vec::new();
        if !self.enrollment_gate_holds {
            f.push("enrollment gate did not refuse a mismatched ceremony".to_string());
        }
        let d = &self.degraded;
        if d.false_drops > 0 {
            f.push(format!(
                "{} genuine events lost packets despite the epoch fallback",
                d.false_drops
            ));
        }
        if d.rotations == 0 || d.epochs_retired == 0 {
            f.push("the lifecycle never rotated/retired — nothing was exercised".to_string());
        }
        if d.fallbacks == 0 {
            f.push("retirement never forced a 0-RTT fallback — nothing was exercised".to_string());
        }
        if d.max_live_epochs_seen > WINDOW_BOUND {
            f.push(format!(
                "live-epoch window grew to {} (bound {WINDOW_BOUND})",
                d.max_live_epochs_seen
            ));
        }
        if d.outages != 1 || d.outage_proofs == 0 {
            f.push("the outage window never covered a proof exchange".to_string());
        }
        if d.outage_fallbacks > 0 {
            f.push(format!(
                "{} fallbacks inside the outage — degraded mode did not freeze the window",
                d.outage_fallbacks
            ));
        }
        if d.degraded_decisions == 0 {
            f.push("no decision was flagged as taken in degraded mode".to_string());
        }
        if self.baseline.outage_fallbacks == 0 {
            f.push(
                "the unsafe baseline showed no outage cost — the harness is not \
                 measuring degraded mode"
                    .to_string(),
            );
        }
        if self.baseline.false_drops > 0 {
            f.push(format!(
                "{} events lost packets even in the baseline (fallback is broken)",
                self.baseline.false_drops
            ));
        }
        if !self.rebalance_invisible() {
            f.push("the rebalanced cell diverged from the uninterrupted one".to_string());
        }
        f
    }

    /// PASS = every clause in [`Self::failures`] holds.
    pub fn passed(&self) -> bool {
        self.failures().is_empty()
    }
}

/// The live-epoch window bound the default experiment policy runs under
/// ([`ControlConfig::new`]'s `max_live_epochs`).
const WINDOW_BOUND: u32 = 2;

/// Probe the enrollment gate: a mismatched ceremony secret must abort
/// the three-message flow (at the phone — the proxy's challenge tag
/// does not verify), and a matched one must complete it.
fn enrollment_gate_holds(seed: u64) -> bool {
    let secret = [0xD0; 32];
    // Matched ceremony completes.
    let phone = PhoneEnroller::new(&secret, seed);
    let mut proxy = ProxyEnroller::new(&secret, seed ^ 1);
    let ch = proxy.challenge(&phone.request());
    let matched = phone
        .answer_challenge(&ch)
        .is_some_and(|proof| proxy.verify_proof(&proof));
    // Mismatched ceremony aborts.
    let imposter = PhoneEnroller::new(&[0x0D; 32], seed ^ 2);
    let mut proxy = ProxyEnroller::new(&secret, seed ^ 3);
    let ch = proxy.challenge(&imposter.request());
    let refused = imposter.answer_challenge(&ch).is_none();
    matched && refused
}

/// Run the three sweep cells and the enrollment probe.
pub fn control_report(seed: u64, quick: bool, registry: &MetricRegistry) -> ControlExpReport {
    let metrics = ControlMetrics::new(registry);
    let shipped = ControlConfig::new(seed, quick);
    let degraded = run_control_sweep(&shipped, &metrics);
    let baseline = run_control_sweep(
        &ControlConfig {
            policy: LifecyclePolicy {
                freeze_on_outage: false,
                ..shipped.policy
            },
            ..shipped
        },
        &metrics,
    );
    let rebalanced = run_control_sweep(
        &ControlConfig {
            rebalance: true,
            ..shipped
        },
        &metrics,
    );
    ControlExpReport {
        seed,
        quick,
        enrollment_gate_holds: enrollment_gate_holds(seed),
        degraded,
        baseline,
        rebalanced,
    }
}

fn cell_row(out: &mut String, name: &str, r: &ControlReport) {
    writeln!(
        out,
        "{:<12} {:>7} {:>6} {:>11} {:>9} {:>7} {:>7} {:>8} {:>9} {:>7} {:>6} {:>9}",
        name,
        r.packets,
        r.manual_events,
        r.false_drops,
        r.fallbacks,
        r.rotations,
        r.epochs_retired,
        r.outages,
        r.outage_proofs,
        r.outage_fallbacks,
        r.max_live_epochs_seen,
        r.snapshot_bytes,
    )
    .unwrap();
}

/// Render the experiment's text output (ends with the `control: PASS` /
/// `CONTROL REGRESSION` trailer CI greps for).
pub fn control_text(seed: u64, quick: bool, registry: &MetricRegistry) -> String {
    let report = control_report(seed, quick, registry);
    let mut out = String::new();
    writeln!(
        out,
        "# Control plane: enrollment, epoch lifecycle, outage, rebalance"
    )
    .unwrap();
    writeln!(
        out,
        "seed: {}  quick: {}  (rotation 4 min, 2 live epochs; outage spans the third \
         quarter of the capture; rebalance at the midpoint packet)",
        report.seed, report.quick
    )
    .unwrap();
    writeln!(out).unwrap();
    writeln!(
        out,
        "{:<12} {:>7} {:>6} {:>11} {:>9} {:>7} {:>7} {:>8} {:>9} {:>7} {:>6} {:>9}",
        "cell",
        "packets",
        "events",
        "false-drops",
        "fallbacks",
        "rotate",
        "retire",
        "outages",
        "out-proof",
        "out-fall",
        "window",
        "snap-B",
    )
    .unwrap();
    cell_row(&mut out, "degraded-on", &report.degraded);
    cell_row(&mut out, "unsafe-base", &report.baseline);
    cell_row(&mut out, "rebalanced", &report.rebalanced);
    writeln!(out).unwrap();
    writeln!(
        out,
        "enrollment gate: {}",
        if report.enrollment_gate_holds {
            "matched ceremony enrolled, mismatched refused"
        } else {
            "BROKEN"
        }
    )
    .unwrap();
    writeln!(
        out,
        "outage cost without degraded mode: {} fallbacks inside the window (vs {} with)",
        report.baseline.outage_fallbacks, report.degraded.outage_fallbacks
    )
    .unwrap();
    writeln!(
        out,
        "rebalance: {} snapshot bytes, stats {}  audit head {}",
        report.rebalanced.snapshot_bytes,
        if report.rebalanced.stats == report.degraded.stats {
            "identical"
        } else {
            "DIVERGED"
        },
        if report.rebalanced.audit_head == report.degraded.audit_head {
            "identical"
        } else {
            "DIVERGED"
        },
    )
    .unwrap();
    writeln!(out).unwrap();
    if report.passed() {
        writeln!(
            out,
            "control: PASS (enrollment gated; 0 false drops; window <= 2; outage \
             survived with 0 fallbacks, baseline shows {}; rebalance byte-identical)",
            report.baseline.outage_fallbacks
        )
        .unwrap();
    } else {
        for f in report.failures() {
            writeln!(out, "CONTROL REGRESSION: {f}").unwrap();
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_passes_and_is_deterministic() {
        let a = control_text(42, true, &MetricRegistry::new());
        let b = control_text(42, true, &MetricRegistry::new());
        assert_eq!(a, b);
        assert!(a.contains("control: PASS"), "{a}");
        assert!(!a.contains("CONTROL REGRESSION"), "{a}");
    }

    #[test]
    fn quick_run_exercises_every_layer() {
        let report = control_report(42, true, &MetricRegistry::new());
        assert!(report.enrollment_gate_holds);
        assert!(report.degraded.rotations > 0);
        assert!(report.degraded.fallbacks > 0);
        assert!(report.degraded.outage_proofs > 0);
        assert_eq!(report.degraded.outage_fallbacks, 0);
        assert!(report.baseline.outage_fallbacks > 0);
        assert!(report.rebalance_invisible());
    }

    #[test]
    fn registry_collects_control_metrics() {
        let registry = MetricRegistry::new();
        let _ = control_text(42, true, &registry);
        let text = registry.render_prometheus();
        assert!(text.contains("fiat_control_epoch_rotations_total"));
        assert!(text.contains("fiat_control_outages_total"));
        assert!(text.contains("fiat_control_snapshots_total"));
        assert!(text.contains("fiat_control_enrollments_total"));
    }
}
