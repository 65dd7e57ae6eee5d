//! The fingerprint-gate experiment: exercise `fiat-fingerprint` end to
//! end — held-out identification accuracy, the spoofed-device sweep, the
//! attack-panel gate flip, and a mini differential-oracle leg — and
//! render a pass/fail report.
//!
//! Not a paper artifact — the paper's identification story is its ML
//! classifier (§4); this experiment regression-checks the *decision
//! path* subsystem that closes the unknown-MAC fail-open. Output is
//! deterministic for a fixed seed and ends with a `fingerprint: PASS`
//! trailer CI greps for; any `FINGERPRINT REGRESSION` line is a
//! regression.

use fiat_attack::{run_attack, AttackVerdict, DeviceSpoofing, RunConfig};
use fiat_core::{FingerprintGate, FingerprintVerdict};
use fiat_fingerprint::{FingerprintEngine, MatcherConfig, SignatureSet};
use fiat_oracle::run_differential;
use fiat_telemetry::MetricRegistry;
use fiat_trace::{
    class_trace, fingerprint_corpus, spoofed_trace, testbed_devices, CLASS_TRACE_DURATION,
    CORPUS_CLASSES,
};
use std::fmt::Write as _;

/// Held-out evaluation seeds per leg for the CI smoke run.
const QUICK_EVAL_SEEDS: u64 = 3;
/// Held-out evaluation seeds per leg for the full run.
const FULL_EVAL_SEEDS: u64 = 8;

/// Spoof pairs swept per evaluation seed, as `(claimed, behaved)`
/// testbed indices: a camera behaving behind a plug's MAC/endpoints, a
/// speaker behind a camera's, and a plug behind a speaker's. (Hybrids
/// *behaving* as the sparse-cadence E4 vacuum or Nest-E thermostat can
/// seal `NoMatch` instead — their control-only windows are not always
/// confidently matched — which still quarantines but does not accuse,
/// so they are not part of the must-flag sweep.)
const SPOOF_PAIRS: [(usize, usize); 3] = [(3, 2), (2, 0), (0, 3)];

/// Everything the experiment measured, for the text renderer and tests.
#[derive(Debug, Clone, Default)]
pub struct FingerprintReport {
    /// Genuine held-out traces sealed as `Match` of the right class.
    pub identified: usize,
    /// Genuine held-out traces evaluated.
    pub trials: usize,
    /// Genuine traces branded `Spoof` — the false-quarantine count that
    /// must stay zero (a `NoMatch` degrades to quarantine too, but never
    /// accuses; it only costs accuracy).
    pub false_spoofs: usize,
    /// Spoofed traces sealed as `Spoof`.
    pub spoof_detected: usize,
    /// Spoofed traces evaluated.
    pub spoof_trials: usize,
    /// With the gate off, the device-spoofing attack rode the fail-open.
    pub gate_off_allowed: bool,
    /// With the gate on, the camera run was blocked outright.
    pub gate_on_blocked: bool,
    /// With the gate on, the N = 1 plug run was flagged (detected).
    pub gate_on_detected: bool,
    /// Fingerprint probes the mini oracle leg pushed through both sides.
    pub oracle_probes: u64,
    /// Divergences the mini oracle leg found (must be zero).
    pub oracle_divergences: usize,
}

impl FingerprintReport {
    /// Identification accuracy in percent.
    pub fn accuracy_pct(&self) -> f64 {
        if self.trials == 0 {
            return 0.0;
        }
        100.0 * self.identified as f64 / self.trials as f64
    }

    /// The acceptance bar: ≥ 90 % held-out identification, zero false
    /// spoof accusations, every spoofed trace flagged, the attack flip
    /// in both directions, and a clean oracle leg.
    pub fn passed(&self) -> bool {
        self.accuracy_pct() >= 90.0
            && self.false_spoofs == 0
            && self.spoof_detected == self.spoof_trials
            && self.spoof_trials > 0
            && self.gate_off_allowed
            && self.gate_on_blocked
            && self.gate_on_detected
            && self.oracle_divergences == 0
            && self.oracle_probes > 0
    }
}

/// Drive `trace` through `engine` until the device's window seals;
/// returns the sealed verdict (`NoMatch` if the trace ran out first —
/// an unsealed window never reached a decision, which scores as a miss).
fn sealed_verdict(engine: &mut FingerprintEngine, trace: &fiat_net::Trace) -> FingerprintVerdict {
    for pkt in &trace.packets {
        let obs = engine.observe(pkt, &trace.dns);
        if obs.just_sealed {
            return obs.verdict;
        }
    }
    FingerprintVerdict::NoMatch
}

/// Run every leg and collect the report.
pub fn fingerprint_report(seed: u64, quick: bool) -> FingerprintReport {
    let devices = testbed_devices();
    let matcher = MatcherConfig::default();
    let signatures = SignatureSet::learn(&fingerprint_corpus(seed), matcher.evidence_window);
    let evals = if quick {
        QUICK_EVAL_SEEDS
    } else {
        FULL_EVAL_SEEDS
    };
    let mut report = FingerprintReport::default();

    // Leg 1 — held-out identification: fresh captures of every trained
    // class under seeds the corpus never saw must seal as a `Match` of
    // the right signature, and must never be branded `Spoof`.
    let mut engine = FingerprintEngine::new(signatures.clone(), matcher);
    let mut device_id = 500u16;
    for eval in 0..evals {
        for (class, &(_, tb_idx)) in CORPUS_CLASSES.iter().enumerate() {
            let trial_seed = seed ^ 0x5eed_0000 ^ (eval << 8) ^ class as u64;
            let trace = class_trace(&devices[tb_idx], device_id, trial_seed);
            match sealed_verdict(&mut engine, &trace) {
                FingerprintVerdict::Match(m) if m as usize == class => report.identified += 1,
                FingerprintVerdict::Spoof { .. } => report.false_spoofs += 1,
                _ => {}
            }
            report.trials += 1;
            device_id += 1;
        }
    }

    // Leg 2 — spoof sweep: hybrids behaving as one class while claiming
    // another's cloud endpoints must seal as `Spoof` (after the
    // two-window confirmation; the capture is long enough for both).
    let mut engine = FingerprintEngine::new(signatures, matcher);
    for eval in 0..evals {
        for (pair, &(claimed, behaved)) in SPOOF_PAIRS.iter().enumerate() {
            let trial_seed = seed ^ 0x0bad_0000 ^ (eval << 8) ^ pair as u64;
            let trace = spoofed_trace(
                &devices[claimed],
                &devices[behaved],
                device_id,
                CLASS_TRACE_DURATION,
                trial_seed,
            );
            if let FingerprintVerdict::Spoof { .. } = sealed_verdict(&mut engine, &trace) {
                report.spoof_detected += 1;
            }
            report.spoof_trials += 1;
            device_id += 1;
        }
    }

    // Leg 3 — the attack-panel flip: the same device-spoofing strategy
    // that rides the historical fail-open with the gate off must be
    // quarantined (camera) or flagged (N = 1 plug) with it on.
    let off = run_attack(
        &DeviceSpoofing { gate: false },
        &RunConfig { device: 2, seed },
        None,
    );
    report.gate_off_allowed = off.verdict == AttackVerdict::Allowed;
    let on_camera = run_attack(
        &DeviceSpoofing { gate: true },
        &RunConfig { device: 2, seed },
        None,
    );
    report.gate_on_blocked = on_camera.verdict == AttackVerdict::Blocked;
    let on_plug = run_attack(
        &DeviceSpoofing { gate: true },
        &RunConfig { device: 3, seed },
        None,
    );
    report.gate_on_detected = on_plug.verdict == AttackVerdict::Detected;

    // Leg 4 — mini differential-oracle run: the gate is on in every
    // fuzz scenario, so a short run differentially checks the engine
    // against the naive mirror under chaos-mutated traffic.
    let oracle = run_differential(seed ^ 0xf1a7, true, if quick { 800 } else { 3_000 });
    report.oracle_probes = oracle.chaos.fingerprint_probes;
    report.oracle_divergences = oracle.divergences.len();

    report
}

/// Record the report into the registry for the metrics snapshot.
fn record_metrics(report: &FingerprintReport, registry: &MetricRegistry) {
    registry.describe(
        "fiat_fingerprint_identified_total",
        "Held-out genuine traces identified as the right class.",
    );
    registry.describe(
        "fiat_fingerprint_trials_total",
        "Held-out genuine traces evaluated.",
    );
    registry.describe(
        "fiat_fingerprint_false_spoofs_total",
        "Genuine traces falsely branded Spoof (must be zero).",
    );
    registry.describe(
        "fiat_fingerprint_spoofs_flagged_total",
        "Spoofed traces sealed as Spoof.",
    );
    registry.describe(
        "fiat_fingerprint_oracle_divergences_total",
        "Divergences in the mini oracle leg (must be zero).",
    );
    let g = |name, v: i64| registry.gauge(name, &[]).set(v);
    g(
        "fiat_fingerprint_identified_total",
        report.identified as i64,
    );
    g("fiat_fingerprint_trials_total", report.trials as i64);
    g(
        "fiat_fingerprint_false_spoofs_total",
        report.false_spoofs as i64,
    );
    g(
        "fiat_fingerprint_spoofs_flagged_total",
        report.spoof_detected as i64,
    );
    g(
        "fiat_fingerprint_oracle_divergences_total",
        report.oracle_divergences as i64,
    );
}

/// Render the experiment's text output (ends with the `fingerprint:
/// PASS` / `FINGERPRINT REGRESSION` trailer CI greps for).
pub fn fingerprint_text(seed: u64, quick: bool, registry: &MetricRegistry) -> String {
    let report = fingerprint_report(seed, quick);
    record_metrics(&report, registry);
    let mut out = String::new();
    writeln!(out, "# Fingerprint gate (seed {seed})").unwrap();
    writeln!(
        out,
        "identification: {}/{} held-out traces ({:.1}%), {} false spoof accusations",
        report.identified,
        report.trials,
        report.accuracy_pct(),
        report.false_spoofs
    )
    .unwrap();
    writeln!(
        out,
        "spoof sweep: {}/{} hybrid devices sealed as Spoof",
        report.spoof_detected, report.spoof_trials
    )
    .unwrap();
    writeln!(
        out,
        "attack flip: gate off rides fail-open = {}; gate on blocks camera = {}, \
         detects N=1 plug = {}",
        report.gate_off_allowed, report.gate_on_blocked, report.gate_on_detected
    )
    .unwrap();
    writeln!(
        out,
        "oracle leg: {} fingerprint probes, {} divergences",
        report.oracle_probes, report.oracle_divergences
    )
    .unwrap();
    if report.passed() {
        out.push_str("fingerprint: PASS\n");
    } else {
        if report.accuracy_pct() < 90.0 {
            out.push_str("FINGERPRINT REGRESSION: held-out accuracy below 90%\n");
        }
        if report.false_spoofs > 0 {
            out.push_str("FINGERPRINT REGRESSION: genuine device falsely branded Spoof\n");
        }
        if report.spoof_detected != report.spoof_trials {
            out.push_str("FINGERPRINT REGRESSION: spoofed device escaped the gate\n");
        }
        if !(report.gate_off_allowed && report.gate_on_blocked && report.gate_on_detected) {
            out.push_str("FINGERPRINT REGRESSION: attack flip broken\n");
        }
        if report.oracle_divergences > 0 || report.oracle_probes == 0 {
            out.push_str("FINGERPRINT REGRESSION: oracle leg diverged or ran dry\n");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_passes_and_is_deterministic() {
        let a = fingerprint_text(42, true, &MetricRegistry::new());
        let b = fingerprint_text(42, true, &MetricRegistry::new());
        assert_eq!(a, b);
        assert!(a.contains("fingerprint: PASS"), "{a}");
        assert!(!a.contains("FINGERPRINT REGRESSION"), "{a}");
    }

    #[test]
    fn quick_report_meets_the_acceptance_bar() {
        let report = fingerprint_report(7, true);
        assert!(report.passed(), "{report:?}");
        assert!(report.accuracy_pct() >= 90.0);
        assert_eq!(report.false_spoofs, 0);
        assert_eq!(
            report.trials,
            (QUICK_EVAL_SEEDS as usize) * CORPUS_CLASSES.len()
        );
    }

    #[test]
    fn registry_collects_the_scoreboard() {
        let registry = MetricRegistry::new();
        let _ = fingerprint_text(42, true, &registry);
        let text = registry.render_prometheus();
        assert!(text.contains("fiat_fingerprint_identified_total"));
        assert!(text.contains("fiat_fingerprint_false_spoofs_total 0"));
    }
}
