//! The chaos-soak experiment: sweep proof-channel fault rates × link
//! latency profiles over the 10-device testbed and score graceful
//! degradation of the decision path.
//!
//! Not a paper artifact — like the attack scorecard and the decision
//! oracle, this measures *this implementation*: with client retries and
//! the pending-verdict quarantine at the default 10 s deadline, genuine
//! manual events must never lose packets when their proof is eventually
//! delivered (**false drops = 0** in every retries-on cell), and
//! disabling retries must make the same cells measurably worse
//! (otherwise the harness demonstrates nothing). Output is
//! deterministic for a fixed seed and ends with a `chaos: PASS` /
//! `CHAOS REGRESSION` trailer CI greps for.

use fiat_chaos::{run_soak, SoakConfig, SoakReport};
use fiat_net::SimDuration;
use fiat_simnet::LatencyProfile;
use fiat_telemetry::MetricRegistry;
use std::fmt::Write as _;

/// Proof-channel loss rates for the full sweep.
const FULL_LOSSES: [f64; 3] = [0.0, 0.05, 0.15];
/// Loss rate for the smoke sweep (the acceptance-bar cell).
const QUICK_LOSSES: [f64; 1] = [0.05];
/// Loss rate of the retries-off degradation legs. High enough that a
/// single-attempt client is near-certain to lose at least one proof.
const DEGRADE_LOSS: f64 = 0.15;

/// One soak cell's configuration and result.
#[derive(Debug, Clone)]
pub struct ChaosCell {
    /// Proof-channel loss rate.
    pub loss: f64,
    /// Latency-profile name.
    pub profile: &'static str,
    /// Whether the client retried.
    pub retries: bool,
    /// The soak result.
    pub report: SoakReport,
}

/// The full sweep result.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Master seed.
    pub seed: u64,
    /// Whether this was the smoke sweep.
    pub quick: bool,
    /// Quarantine proof deadline used throughout.
    pub deadline: SimDuration,
    /// Retries-on cells (the PASS gate: zero false drops in each).
    pub cells: Vec<ChaosCell>,
    /// Retries-off degradation legs at 15% loss, paired with the
    /// matching retries-on cell by profile.
    pub degraded: Vec<ChaosCell>,
}

impl ChaosReport {
    /// The retries-on cell matching a degradation leg's profile.
    fn on_cell(&self, profile: &str) -> Option<&ChaosCell> {
        self.cells
            .iter()
            .find(|c| c.profile == profile && (c.loss - DEGRADE_LOSS).abs() < 1e-9)
    }

    /// Whether a degradation leg is measurably worse than its
    /// retries-on twin.
    pub fn leg_degraded(&self, leg: &ChaosCell) -> bool {
        let Some(on) = self.on_cell(leg.profile) else {
            return false;
        };
        leg.report.proofs_delivered < on.report.proofs_delivered
            || leg.report.dropped_events() > on.report.dropped_events()
    }

    /// PASS = every retries-on cell has zero false drops AND at least
    /// one retries-off leg shows degradation.
    pub fn passed(&self) -> bool {
        self.cells.iter().all(|c| c.report.false_drops == 0)
            && self.degraded.iter().any(|leg| self.leg_degraded(leg))
    }
}

/// Publish a finished sweep, summed over every cell and degradation
/// leg: injected faults by kind (kinds that never fired stay absent),
/// proof retries, and false drops.
fn publish(report: &ChaosReport, registry: &MetricRegistry) {
    registry.describe(
        "fiat_chaos_faults_total",
        "Faults injected into the proof channel, by kind.",
    );
    registry.describe(
        "fiat_proof_retries_total",
        "Humanness-proof delivery attempts beyond the first.",
    );
    registry.describe(
        "fiat_chaos_false_drops_total",
        "Genuine manual events that lost packets despite an eventually-delivered proof.",
    );
    let retries = registry.counter("fiat_proof_retries_total", &[]);
    let false_drops = registry.counter("fiat_chaos_false_drops_total", &[]);
    for c in report.cells.iter().chain(&report.degraded) {
        for &(kind, n) in &c.report.faults {
            if n > 0 {
                registry
                    .counter("fiat_chaos_faults_total", &[("kind", kind)])
                    .add(n);
            }
        }
        retries.add(c.report.retries);
        false_drops.add(c.report.false_drops);
    }
}

/// Run the sweep and publish the report.
pub fn chaos_report(seed: u64, quick: bool, registry: &MetricRegistry) -> ChaosReport {
    let deadline = SimDuration::from_secs(10);
    let profiles: &[(&'static str, LatencyProfile)] = if quick {
        &[
            ("lan_wifi", LatencyProfile::lan_wifi()),
            ("lte", LatencyProfile::lte()),
        ]
    } else {
        &[
            ("lan_wifi", LatencyProfile::lan_wifi()),
            ("lte", LatencyProfile::lte()),
            ("wan_vpn_detour", LatencyProfile::wan_vpn_detour()),
        ]
    };
    let losses: &[f64] = if quick { &QUICK_LOSSES } else { &FULL_LOSSES };

    let cell_seed = |li: usize, pi: usize| -> u64 {
        seed.wrapping_mul(1_000_003)
            .wrapping_add(((li as u64) << 32) | pi as u64)
    };
    let cfg = |cs: u64, loss: f64, latency: LatencyProfile, retries: bool| SoakConfig {
        seed: cs,
        quick,
        loss,
        latency,
        retries,
        proof_deadline: deadline,
        windows: loss > 0.0,
    };

    let mut cells = Vec::new();
    for (li, &loss) in losses.iter().enumerate() {
        for (pi, &(name, latency)) in profiles.iter().enumerate() {
            let report = run_soak(&cfg(cell_seed(li, pi), loss, latency, true));
            cells.push(ChaosCell {
                loss,
                profile: name,
                retries: true,
                report,
            });
        }
    }
    // Degradation legs: same seed and trace as the matching retries-on
    // cell, retries disabled. The smoke sweep doesn't include a cell at
    // `DEGRADE_LOSS`, so inject the retries-on twin when missing — the
    // comparison is only meaningful against the identical trace.
    let degrade_li = FULL_LOSSES
        .iter()
        .position(|&l| (l - DEGRADE_LOSS).abs() < 1e-9)
        .unwrap_or(FULL_LOSSES.len() - 1);
    let degrade_profiles: &[usize] = if quick { &[0] } else { &[0, 1, 2] };
    let mut degraded = Vec::new();
    for &pi in degrade_profiles {
        let (name, latency) = profiles[pi];
        let cs = cell_seed(degrade_li, pi);
        if cells
            .iter()
            .all(|c| c.profile != name || (c.loss - DEGRADE_LOSS).abs() >= 1e-9)
        {
            let report = run_soak(&cfg(cs, DEGRADE_LOSS, latency, true));
            cells.push(ChaosCell {
                loss: DEGRADE_LOSS,
                profile: name,
                retries: true,
                report,
            });
        }
        let report = run_soak(&cfg(cs, DEGRADE_LOSS, latency, false));
        degraded.push(ChaosCell {
            loss: DEGRADE_LOSS,
            profile: name,
            retries: false,
            report,
        });
    }
    let report = ChaosReport {
        seed,
        quick,
        deadline,
        cells,
        degraded,
    };
    publish(&report, registry);
    report
}

fn cell_row(out: &mut String, c: &ChaosCell) {
    let r = &c.report;
    writeln!(
        out,
        "{:>5.0}% {:<15} {:^7} {:>6} {:>6} {:>11} {:>9} {:>5} {:>8} {:>7} {:>7} {:>6}",
        c.loss * 100.0,
        c.profile,
        if c.retries { "on" } else { "off" },
        r.manual_events,
        r.proofs_delivered,
        r.false_drops,
        r.unproven_drops,
        r.stats.quarantined,
        r.stats.quarantine_released,
        r.stats.quarantine_expired,
        r.retries,
        r.total_faults(),
    )
    .unwrap();
}

/// Render the experiment's text output (ends with the `chaos: PASS` /
/// `CHAOS REGRESSION` trailer CI greps for).
pub fn chaos_text(seed: u64, quick: bool, registry: &MetricRegistry) -> String {
    let report = chaos_report(seed, quick, registry);
    let mut out = String::new();
    writeln!(
        out,
        "# Chaos soak: proof-channel faults vs graceful degradation"
    )
    .unwrap();
    writeln!(
        out,
        "seed: {}  quick: {}  proof deadline: {} s  (faults: drop/dup/corrupt derive from loss; \
         delay 15%; offline 45 s + sensor 30 s windows when loss > 0)",
        report.seed,
        report.quick,
        report.deadline.as_micros() / 1_000_000
    )
    .unwrap();
    writeln!(out).unwrap();
    writeln!(
        out,
        "{:>6} {:<15} {:^7} {:>6} {:>6} {:>11} {:>9} {:>5} {:>8} {:>7} {:>7} {:>6}",
        "loss",
        "profile",
        "retries",
        "events",
        "proven",
        "false-drops",
        "unproven",
        "held",
        "released",
        "expired",
        "resent",
        "faults"
    )
    .unwrap();
    for c in &report.cells {
        cell_row(&mut out, c);
    }
    for c in &report.degraded {
        cell_row(&mut out, c);
    }
    writeln!(out).unwrap();
    for leg in &report.degraded {
        let on = report.on_cell(leg.profile);
        let (op, od) = on.map_or((0, 0), |c| {
            (c.report.proofs_delivered, c.report.dropped_events())
        });
        writeln!(
            out,
            "degradation @{:.0}% loss, {}: proven {} -> {}, dropped events {} -> {}  [{}]",
            DEGRADE_LOSS * 100.0,
            leg.profile,
            op,
            leg.report.proofs_delivered,
            od,
            leg.report.dropped_events(),
            if report.leg_degraded(leg) {
                "DEGRADED"
            } else {
                "no change"
            }
        )
        .unwrap();
    }
    let false_drops: u64 = report.cells.iter().map(|c| c.report.false_drops).sum();
    writeln!(out).unwrap();
    if report.passed() {
        writeln!(
            out,
            "chaos: PASS (0 false drops across {} retries-on cells; no-retry legs degrade)",
            report.cells.len()
        )
        .unwrap();
    } else if false_drops > 0 {
        writeln!(
            out,
            "CHAOS REGRESSION: {false_drops} genuine manual events lost packets despite an \
             eventually-delivered proof"
        )
        .unwrap();
    } else {
        writeln!(
            out,
            "CHAOS REGRESSION: disabling retries showed no degradation — the harness is not \
             measuring the resilience path"
        )
        .unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_passes_and_is_deterministic() {
        let a = chaos_text(42, true, &MetricRegistry::new());
        let b = chaos_text(42, true, &MetricRegistry::new());
        assert_eq!(a, b);
        assert!(a.contains("chaos: PASS"), "{a}");
        assert!(!a.contains("CHAOS REGRESSION"), "{a}");
    }

    #[test]
    fn quick_sweep_exercises_quarantine_and_retries() {
        let report = chaos_report(42, true, &MetricRegistry::new());
        let held: u64 = report
            .cells
            .iter()
            .map(|c| c.report.stats.quarantined)
            .sum();
        let resent: u64 = report.cells.iter().map(|c| c.report.retries).sum();
        assert!(held > 0, "no cell ever quarantined: {report:?}");
        assert!(resent > 0, "no cell ever retried: {report:?}");
        assert!(report.degraded.iter().any(|l| report.leg_degraded(l)));
    }

    #[test]
    fn registry_collects_chaos_metrics() {
        let registry = MetricRegistry::new();
        let report = chaos_report(42, true, &registry);
        let legs: Vec<&SoakReport> = report
            .cells
            .iter()
            .chain(&report.degraded)
            .map(|c| &c.report)
            .collect();
        let count = |name, labels: &[(&str, &str)]| registry.counter(name, labels).get();
        let retries: u64 = legs.iter().map(|r| r.retries).sum();
        assert_eq!(count("fiat_proof_retries_total", &[]), retries);
        let false_drops: u64 = legs.iter().map(|r| r.false_drops).sum();
        assert_eq!(count("fiat_chaos_false_drops_total", &[]), false_drops);
        let text = registry.render_prometheus();
        for (i, &(kind, _)) in legs[0].faults.iter().enumerate() {
            let n: u64 = legs.iter().map(|r| r.faults[i].1).sum();
            let series = format!("fiat_chaos_faults_total{{kind=\"{kind}\"}}");
            if n == 0 {
                assert!(!text.contains(&series), "zero kind {kind} published");
            } else {
                assert!(text.contains(&format!("{series} {n}")), "{text}");
            }
        }
    }
}
