//! The differential-oracle experiment: run the `fiat-oracle` fuzzer —
//! a naive reference decision pipeline versus the real proxy over
//! chaos-mutated testbed traffic — and render the divergence report.
//!
//! Not a paper artifact — this checks that *this implementation* still
//! means what the paper says after refactors and optimisations. Output
//! is deterministic for a fixed seed, so CI can smoke-run it and any
//! `DIVERGENCE` line is a regression (or a new entry for DESIGN.md's
//! known-divergence ledger).

use fiat_oracle::{render_report, run_differential, OracleReport};
use fiat_telemetry::{MetricRegistry, OracleMetrics};

/// Packet floor for the full run (the acceptance bar: ≥ 10 k
/// chaos-mutated packets across the 10-device matrix).
pub const FULL_TARGET_PACKETS: u64 = 10_000;
/// Packet floor for the CI smoke run.
pub const QUICK_TARGET_PACKETS: u64 = 1_500;

/// Run the differential oracle and record telemetry.
pub fn oracle_report(seed: u64, quick: bool, registry: &MetricRegistry) -> OracleReport {
    let target = if quick {
        QUICK_TARGET_PACKETS
    } else {
        FULL_TARGET_PACKETS
    };
    let report = run_differential(seed, quick, target);
    let m = OracleMetrics::new(registry);
    m.record_run(report.packets, report.scenarios as u64);
    for d in &report.divergences {
        m.divergences(d.kind).inc();
    }
    report
}

/// Render the experiment's text output (the oracle report; ends with a
/// `verdict: PASS` / `verdict: DIVERGENCE` line CI greps for).
pub fn oracle_text(seed: u64, quick: bool, registry: &MetricRegistry) -> String {
    render_report(&oracle_report(seed, quick, registry))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_is_clean_and_deterministic() {
        let a = oracle_text(42, true, &MetricRegistry::new());
        let b = oracle_text(42, true, &MetricRegistry::new());
        assert_eq!(a, b);
        assert!(a.contains("verdict: PASS"), "{a}");
        assert!(!a.contains("DIVERGENCE"));
    }

    #[test]
    fn quick_run_meets_the_packet_floor() {
        let report = oracle_report(7, true, &MetricRegistry::new());
        assert!(report.packets >= QUICK_TARGET_PACKETS);
        assert!(report.passed(), "{:?}", report.divergences);
    }

    #[test]
    fn registry_collects_replay_volume() {
        let registry = MetricRegistry::new();
        let _ = oracle_text(42, true, &registry);
        let text = registry.render_prometheus();
        assert!(text.contains("fiat_oracle_packets_total"));
        assert!(text.contains("fiat_oracle_scenarios_total"));
    }
}
