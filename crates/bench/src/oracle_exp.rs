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
use fiat_telemetry::MetricRegistry;

/// Packet floor for the full run (the acceptance bar: ≥ 10 k
/// chaos-mutated packets across the 10-device matrix).
pub const FULL_TARGET_PACKETS: u64 = 10_000;
/// Packet floor for the CI smoke run.
pub const QUICK_TARGET_PACKETS: u64 = 1_500;

/// Publish a finished oracle run: replay volume, scenarios, and one
/// `fiat_oracle_divergences_total` increment per divergence, by kind.
fn publish(report: &OracleReport, registry: &MetricRegistry) {
    registry.describe(
        "fiat_oracle_packets_total",
        "Packets replayed through both the reference and real proxy.",
    );
    registry.describe(
        "fiat_oracle_scenarios_total",
        "Differential fuzz scenarios executed.",
    );
    registry.describe(
        "fiat_oracle_divergences_total",
        "Reference/real disagreements found, by kind.",
    );
    registry
        .counter("fiat_oracle_packets_total", &[])
        .add(report.packets);
    registry
        .counter("fiat_oracle_scenarios_total", &[])
        .add(report.scenarios as u64);
    for d in &report.divergences {
        registry
            .counter("fiat_oracle_divergences_total", &[("kind", d.kind)])
            .inc();
    }
}

/// Run the differential oracle and publish the report.
pub fn oracle_report(seed: u64, quick: bool, registry: &MetricRegistry) -> OracleReport {
    let target = if quick {
        QUICK_TARGET_PACKETS
    } else {
        FULL_TARGET_PACKETS
    };
    let report = run_differential(seed, quick, target);
    publish(&report, registry);
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
        let report = oracle_report(42, true, &registry);
        let count = |name| registry.counter(name, &[]).get();
        assert_eq!(count("fiat_oracle_packets_total"), report.packets);
        assert_eq!(
            count("fiat_oracle_scenarios_total"),
            report.scenarios as u64
        );
    }
}
