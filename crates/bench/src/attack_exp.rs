//! The adversarial-evaluation experiment: run the `fiat-attack` red-team
//! panel across the testbed device matrix and render the security
//! scorecard.
//!
//! Not a paper artifact — the paper argues the defenses qualitatively
//! (§5.3 replay, §5.4 brute force); this experiment makes the argument
//! executable and regression-checked. Output is deterministic for a
//! fixed seed (same scorecard bytes), so CI can smoke-run it and diffs
//! stay reviewable.

use fiat_attack::{run_attack, standard_strategies, AttackVerdict, RunConfig, Scorecard};
use fiat_telemetry::MetricRegistry;
use fiat_trace::testbed_devices;

/// Device matrix for the full run: every testbed device.
fn full_matrix() -> Vec<u16> {
    (0..testbed_devices().len() as u16).collect()
}

/// Device matrix for the CI smoke run: one simple-rule plug (N = 1) and
/// one first-N camera (N = 41) — the two decision-path extremes.
fn quick_matrix() -> Vec<u16> {
    vec![3, 2]
}

/// Publish a finished scorecard: one `fiat_attack_runs_total` increment
/// per run, by strategy and scored outcome, and each run's time to
/// block. The histogram is registered even when no run was blocked.
fn publish(card: &Scorecard, registry: &MetricRegistry) {
    registry.describe(
        "fiat_attack_runs_total",
        "Red-team attack runs, by strategy and scored outcome.",
    );
    registry.describe(
        "fiat_attack_time_to_block_ms",
        "Time from first attack packet to first blocking decision (ms).",
    );
    let time_to_block = registry.histogram("fiat_attack_time_to_block_ms", &[]);
    for o in card.outcomes() {
        registry
            .counter(
                "fiat_attack_runs_total",
                &[("strategy", &o.strategy), ("outcome", o.verdict.as_str())],
            )
            .inc();
        if let Some(ms) = o.time_to_block_ms {
            time_to_block.record(ms);
        }
    }
}

/// Run the panel over the device matrix and publish the scorecard.
/// Per-run seeds derive from `seed` and the (strategy, device) cell so
/// runs stay independent.
pub fn attack_scorecard(seed: u64, quick: bool, registry: &MetricRegistry) -> Scorecard {
    let devices = if quick { quick_matrix() } else { full_matrix() };
    let mut card = Scorecard::new();
    for (si, strategy) in standard_strategies().iter().enumerate() {
        for &device in &devices {
            let run_seed = seed
                .wrapping_mul(1_000_003)
                .wrapping_add((si as u64) << 32)
                .wrapping_add(device as u64);
            let outcome = run_attack(
                strategy.as_ref(),
                &RunConfig {
                    device,
                    seed: run_seed,
                },
            );
            card.push(outcome);
        }
    }
    publish(&card, registry);
    card
}

/// Render the experiment's text output (the scorecard plus a pass/fail
/// posture line for the defenses that must hold).
pub fn attack_text(seed: u64, quick: bool, registry: &MetricRegistry) -> String {
    let card = attack_scorecard(seed, quick, registry);
    let mut out = card.render(seed);
    let must_block = [
        "replay",
        "stale-epoch-replay",
        "poison-fast",
        "lockout-probe",
        "gap-evasion",
        "quarantine-probe",
    ];
    let mut ok = true;
    for s in must_block {
        if !card.all_scored(s, AttackVerdict::Blocked) {
            ok = false;
            out.push_str(&format!("POSTURE REGRESSION: {s} was not fully blocked\n"));
        }
    }
    if !card.all_scored("audit-tamper", AttackVerdict::Detected) {
        ok = false;
        out.push_str("POSTURE REGRESSION: audit-tamper went undetected\n");
    }
    // Device spoofing is blocked on first-N devices and detected on
    // N = 1 devices (the command slips the provisional window but the
    // spoofer is flagged and quarantined) — what must never happen with
    // the gate on is a clean `allowed`.
    if card
        .outcomes()
        .iter()
        .any(|o| o.strategy == "device-spoofing" && o.verdict == AttackVerdict::Allowed)
    {
        ok = false;
        out.push_str("POSTURE REGRESSION: device-spoofing went unchallenged\n");
    }
    if ok {
        out.push_str(
            "posture: PASS (replay, stale-epoch-replay, poison-fast, lockout-probe, \
             gap-evasion, quarantine-probe blocked; audit-tamper detected; \
             device-spoofing never allowed)\n",
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scorecard_holds_the_security_posture() {
        let card = attack_scorecard(42, true, &MetricRegistry::new());
        // 10 strategies x 2 devices.
        assert_eq!(card.outcomes().len(), 20);
        assert!(card.all_scored("replay", AttackVerdict::Blocked));
        assert!(card.all_scored("stale-epoch-replay", AttackVerdict::Blocked));
        assert!(card.all_scored("poison-fast", AttackVerdict::Blocked));
        assert!(card.all_scored("lockout-probe", AttackVerdict::Blocked));
        assert!(card.all_scored("gap-evasion", AttackVerdict::Blocked));
        assert!(card.all_scored("quarantine-probe", AttackVerdict::Blocked));
        assert!(card.all_scored("audit-tamper", AttackVerdict::Detected));
        // device-spoofing is mixed (Blocked on the camera, Detected on
        // the N = 1 plug) but must never score a clean Allowed.
        let spoof: Vec<_> = card
            .outcomes()
            .iter()
            .filter(|o| o.strategy == "device-spoofing")
            .collect();
        assert_eq!(spoof.len(), 2);
        assert!(spoof.iter().all(|o| o.verdict != AttackVerdict::Allowed));
    }

    #[test]
    fn text_is_deterministic_and_passes() {
        let a = attack_text(42, true, &MetricRegistry::new());
        let b = attack_text(42, true, &MetricRegistry::new());
        assert_eq!(a, b);
        assert!(a.contains("posture: PASS"), "{a}");
        assert!(!a.contains("POSTURE REGRESSION"));
    }

    #[test]
    fn registry_collects_run_counters() {
        let registry = MetricRegistry::new();
        let card = attack_scorecard(42, true, &registry);
        let text = registry.render_prometheus();
        assert!(text.contains("strategy=\"replay\""));
        let runs: u64 = registry
            .snapshot()
            .counters
            .iter()
            .filter(|c| c.name == "fiat_attack_runs_total")
            .map(|c| c.value)
            .sum();
        assert_eq!(runs, card.outcomes().len() as u64);
        let timed = card
            .outcomes()
            .iter()
            .filter(|o| o.time_to_block_ms.is_some())
            .count();
        let time_to_block = registry.histogram("fiat_attack_time_to_block_ms", &[]);
        assert_eq!(time_to_block.count(), timed as u64);
    }
}
