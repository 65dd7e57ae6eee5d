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
    fn quick_scorecard_rows_are_pinned() {
        // Every `attack --quick` row as printed: strategy, device,
        // verdict, injected, forwarded, dropped, rule hits, replays
        // rejected, lockout episodes, time to block (ms). A change to
        // how the harness drives the proxy shows up here.
        type Row<'a> = (&'a str, &'a str, &'a str, [u64; 6], Option<u64>);
        #[rustfmt::skip]
        let expected: [Row; 20] = [
            ("replay", "SP10", "blocked", [1, 0, 1, 0, 1, 0], Some(50)),
            ("replay", "WyzeCam", "blocked", [41, 4, 37, 0, 1, 0], Some(414)),
            ("stale-epoch-replay", "SP10", "blocked", [1, 0, 1, 0, 1, 0], Some(1050)),
            ("stale-epoch-replay", "WyzeCam", "blocked", [41, 4, 37, 0, 1, 0], Some(1428)),
            ("mimicry", "SP10", "allowed", [2, 2, 0, 2, 0, 0], None),
            ("mimicry", "WyzeCam", "allowed", [41, 41, 0, 41, 0, 0], None),
            ("poison-slow", "SP10", "allowed", [60, 60, 0, 1, 0, 0], None),
            ("poison-slow", "WyzeCam", "allowed", [100, 100, 0, 41, 0, 0], None),
            ("poison-fast", "SP10", "blocked", [181, 180, 1, 0, 0, 0], Some(20)),
            ("poison-fast", "WyzeCam", "blocked", [221, 184, 37, 0, 0, 0], Some(420)),
            ("lockout-probe", "SP10", "blocked", [13, 0, 13, 0, 0, 2], Some(0)),
            ("lockout-probe", "WyzeCam", "blocked", [13, 10, 3, 0, 0, 2], Some(108_000)),
            ("gap-evasion", "SP10", "blocked", [6, 0, 6, 0, 0, 1], Some(0)),
            ("gap-evasion", "WyzeCam", "blocked", [44, 16, 28, 0, 0, 1], Some(24_000)),
            ("audit-tamper", "SP10", "detected", [2, 0, 2, 0, 0, 0], Some(0)),
            ("audit-tamper", "WyzeCam", "detected", [2, 2, 0, 0, 0, 0], None),
            ("quarantine-probe", "SP10", "blocked", [7, 0, 7, 0, 0, 1], Some(0)),
            ("quarantine-probe", "WyzeCam", "blocked", [139, 16, 123, 0, 0, 1], Some(30_000)),
            ("device-spoofing", "SP10", "detected", [80, 23, 57, 0, 0, 0], Some(3418)),
            ("device-spoofing", "WyzeCam", "blocked", [80, 23, 57, 0, 0, 0], Some(3551)),
        ];
        let card = attack_scorecard(42, true, &MetricRegistry::new());
        let rows: Vec<Row> = card
            .outcomes()
            .iter()
            .map(|o| {
                (
                    o.strategy.as_str(),
                    o.device_name.as_str(),
                    o.verdict.as_str(),
                    [
                        o.injected,
                        o.delivered,
                        o.dropped,
                        o.rule_hits,
                        o.replays_rejected,
                        o.lockout_episodes,
                    ],
                    o.time_to_block_ms,
                )
            })
            .collect();
        assert_eq!(rows, expected);
        assert!(card
            .render(42)
            .contains("\nverdicts: 13 blocked, 3 detected, 4 allowed over 20 runs\n"));
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
