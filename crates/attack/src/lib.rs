//! # fiat-attack — adversarial red-team harness for the FIAT decision path
//!
//! FIAT's security argument is layered: 0-RTT anti-replay, bucketed
//! allow rules with a minimum-interval floor, inline and retrospective
//! event classification, humanness-gated manual commands, brute-force
//! lockout, and a tamper-evident audit chain. This crate turns that
//! argument into an executable scorecard: a panel of seeded attacker
//! [`strategies`], each aimed at one layer, is run against a live
//! [`fiat_core::FiatProxy`], each packet handed to its `on_packet`,
//! and every run is scored blocked / allowed / detected with packet
//! counts and time-to-block.
//!
//! The panel ([`standard_strategies`]):
//!
//! | strategy       | layer probed                          | expected |
//! |----------------|---------------------------------------|----------|
//! | `replay`       | 0-RTT anti-replay store               | blocked  |
//! | `stale-epoch-replay` | ticket-epoch retirement (key lifecycle) | blocked |
//! | `mimicry`      | PortLess allow rules (unthrottled)    | allowed* |
//! | `poison-slow`  | bootstrap rule minting                | allowed* |
//! | `poison-fast`  | `MIN_RULE_INTERVAL` floor             | blocked  |
//! | `lockout-probe`| unverified-manual drop + lockout      | blocked  |
//! | `gap-evasion`  | retrospective classification          | blocked  |
//! | `audit-tamper` | hash-chained audit log                | detected |
//! | `quarantine-probe` | pending-verdict quarantine        | blocked  |
//! | `device-spoofing` | behavioral fingerprint gate        | blocked† |
//!
//! † `detected` on an N = 1 device: the single command packet slips
//! through the gate's provisional evidence window, but the spoofer is
//! flagged in the audit trail and permanently quarantined. Run with
//! `DeviceSpoofing { gate: false }` the same strategy is the *negative
//! control* for the legacy unknown-MAC fail-open and scores `allowed`.
//!
//! \* `allowed` rows are *documented residual risks*, not bugs: an
//! on-LAN attacker who can spoof the device's address can ride any
//! minted rule bucket (rules are unthrottled once learned), and a
//! poisoned bootstrap mints attacker rules (the §5.2 bootstrap trust
//! assumption). The scorecard keeps those rows visible so a future
//! mitigation (rate-limited rules, attested bootstrap) shows up as a
//! verdict flip.
//!
//! Runs are deterministic: the same `(strategy, device, seed)` triple
//! yields a byte-identical [`AttackOutcome`], so the rendered scorecard
//! diffs cleanly in CI.

pub mod harness;
pub mod scorecard;
pub mod strategies;

pub use harness::{run_attack, RunConfig};
pub use scorecard::{AttackOutcome, AttackVerdict, Scorecard};
pub use strategies::{
    standard_strategies, AttackAction, AttackStrategy, AuditTamper, BucketMimicry, DeviceSpoofing,
    GapEvasion, LockoutProbe, QuarantineProbe, Recon, ReplayAttack, RulePoisonFast, RulePoisonSlow,
    StaleEpochReplay, SPOOFED_DEVICE,
};

#[cfg(test)]
mod tests {
    use super::*;

    /// SP10 smart plug: N = 1, simple size rule — the decision path in
    /// its tightest configuration.
    const PLUG: u16 = 3;
    /// WyzeCam: N = 41, classify point 5 — the first-N window exists.
    const CAMERA: u16 = 2;

    fn run(strategy: &dyn AttackStrategy, device: u16) -> AttackOutcome {
        run_attack(strategy, &RunConfig { device, seed: 42 })
    }

    #[test]
    fn replay_is_blocked_by_the_anti_replay_store() {
        let o = run(&ReplayAttack, PLUG);
        assert_eq!(o.verdict, AttackVerdict::Blocked);
        assert!(o.replays_rejected >= 1, "the sniffed auth must be burned");
        assert!(!o.completed);
        assert!(o.dropped > 0);
        assert!(o.time_to_block_ms.is_some());
    }

    #[test]
    fn replay_is_blocked_on_a_first_n_device_too() {
        let o = run(&ReplayAttack, CAMERA);
        assert_eq!(o.verdict, AttackVerdict::Blocked);
        assert!(o.replays_rejected >= 1);
        // The first-N allowance leaks a few packets but never the
        // command.
        assert!(o.delivered < o.injected);
        assert!(!o.completed);
    }

    #[test]
    fn stale_epoch_replay_is_blocked_by_epoch_retirement() {
        // The withheld capture's nonce is fresh, so the replay store
        // alone would wave it through; the rotation retiring its epoch
        // is what burns it. Holds on both the N = 1 plug and the
        // first-N camera.
        for device in [PLUG, CAMERA] {
            let o = run(&StaleEpochReplay, device);
            assert_eq!(o.verdict, AttackVerdict::Blocked, "device {device}");
            assert!(
                o.replays_rejected >= 1,
                "the stale capture must be refused (device {device})"
            );
            assert!(!o.completed, "device {device}");
            assert!(o.dropped > 0, "device {device}");
            assert!(o.time_to_block_ms.is_some(), "device {device}");
        }
    }

    #[test]
    fn withheld_capture_succeeds_without_rotation() {
        // Negative control for the stale-epoch run: the same withheld
        // capture replayed with *no* epoch rotation verifies (its nonce
        // was never burned), opening the humanness window. This is what
        // pins the blocked verdict above on epoch retirement rather
        // than the nonce store.
        use fiat_net::SimDuration;
        use rand::rngs::StdRng;
        struct NoRotationControl;
        impl AttackStrategy for NoRotationControl {
            fn name(&self) -> &'static str {
                "stale-epoch-control"
            }
            fn defense(&self) -> &'static str {
                "negative control (no rotation)"
            }
            fn plan(&self, recon: &Recon, _rng: &mut StdRng) -> Vec<AttackAction> {
                vec![AttackAction::ReplayStaleAuth {
                    at: recon.attack_start + SimDuration::from_secs(1),
                }]
            }
        }
        let o = run(&NoRotationControl, PLUG);
        assert_eq!(o.verdict, AttackVerdict::Allowed);
        assert_eq!(o.replays_rejected, 0, "fresh nonce must not be refused");
    }

    #[test]
    fn mimicry_rides_a_learned_rule() {
        // Documented residual risk: rule buckets are unthrottled, so
        // packets shaped to a learned keep-alive flow deliver.
        let o = run(&BucketMimicry, PLUG);
        assert_eq!(o.verdict, AttackVerdict::Allowed);
        assert!(o.rule_hits > 0, "delivery must be via the rule path");
        assert_eq!(o.dropped, 0);
    }

    #[test]
    fn slow_poisoning_mints_an_attacker_rule() {
        // Documented residual risk: a poisoned bootstrap mints rules.
        // The exploitation burst after bootstrap rides them.
        let o = run(&RulePoisonSlow, PLUG);
        assert_eq!(o.verdict, AttackVerdict::Allowed);
        assert!(o.rule_hits >= 1);
        assert!(o.completed);
    }

    #[test]
    fn fast_poisoning_is_stopped_by_the_rule_interval_floor() {
        // Same play at sub-second cadence: MIN_RULE_INTERVAL refuses the
        // bucket, so the burst lands on the manual path and drops.
        let o = run(&RulePoisonFast, PLUG);
        assert_eq!(o.verdict, AttackVerdict::Blocked);
        assert_eq!(o.rule_hits, 0, "no rule may be minted below the floor");
        assert!(o.time_to_block_ms.is_some());
        assert!(!o.completed);
    }

    #[test]
    fn lockout_probing_locks_twice_and_never_completes() {
        let o = run(&LockoutProbe, PLUG);
        assert_eq!(o.verdict, AttackVerdict::Blocked);
        // Burst past the tolerance locks; the post-clear retry locks
        // again — exactly two episodes, not one per dropped packet.
        assert_eq!(o.lockout_episodes, 2);
        assert!(!o.completed);
    }

    #[test]
    fn gap_evasion_is_caught_retrospectively() {
        let o = run(&GapEvasion, CAMERA);
        assert_eq!(o.verdict, AttackVerdict::Blocked);
        assert!(
            o.retro_episodes > 0,
            "fragments must be classified at closure"
        );
        assert!(o.lockout_episodes >= 1, "fragment episodes must lock");
        assert!(!o.completed);
    }

    #[test]
    fn quarantine_does_not_ease_gap_evasion() {
        // The probe runs with the quarantine enabled (its config
        // override): full bursts must be held — never delivered — and
        // expire into lockout credit, while sub-classify fragments are
        // still caught retrospectively. Any completion here means the
        // degradation path opened a hole.
        for device in [PLUG, CAMERA] {
            let o = run(&QuarantineProbe, device);
            assert_eq!(o.verdict, AttackVerdict::Blocked, "device {device}");
            assert!(!o.completed, "device {device}");
            assert!(o.dropped > 0, "held bursts must not deliver");
            assert!(
                o.lockout_episodes >= 1,
                "expired quarantines must feed the lockout (device {device})"
            );
        }
        // Same fragments, quarantine off: the baseline gap-evasion run
        // must not be *harder* than the probe's fragment phase — i.e.
        // the retro path is unchanged either way.
        let base = run(&GapEvasion, CAMERA);
        assert_eq!(base.verdict, AttackVerdict::Blocked);
    }

    #[test]
    fn audit_tampering_is_detected_by_the_chain() {
        let o = run(&AuditTamper, PLUG);
        assert_eq!(o.verdict, AttackVerdict::Detected);
    }

    #[test]
    fn device_spoofing_rides_the_fail_open_with_the_gate_off() {
        // Negative control: the legacy unknown-MAC fail-open delivers
        // every spoofed packet and the command completes unchallenged.
        let o = run(&DeviceSpoofing { gate: false }, CAMERA);
        assert_eq!(o.verdict, AttackVerdict::Allowed);
        assert!(o.completed);
        assert_eq!(o.dropped, 0, "fail-open must not drop anything");
    }

    #[test]
    fn device_spoofing_is_quarantined_when_the_gate_is_on() {
        // The behavioral gate seals a verdict inside the evidence window
        // (24 packets, below the camera's N = 41), so the command never
        // completes and the stream is cut mid-flight.
        let o = run(&DeviceSpoofing { gate: true }, CAMERA);
        assert_eq!(o.verdict, AttackVerdict::Blocked);
        assert!(!o.completed);
        assert!(o.dropped > 0, "sealed quarantine must drop the stream");
        assert!(o.time_to_block_ms.is_some());
        // The provisional window is bounded: at most window-1 spoofed
        // packets ever reached the home.
        assert!(o.delivered < 41, "provisional window leaked a command");
    }

    #[test]
    fn device_spoofing_against_an_n1_device_is_detected() {
        // SP10 completes on a single packet, which fits inside the
        // provisional evidence window — but the gate still seals a
        // quarantine, flags the spoofer in the audit trail, and drops
        // everything after the verdict.
        let o = run(&DeviceSpoofing { gate: true }, PLUG);
        assert_eq!(o.verdict, AttackVerdict::Detected);
        assert!(o.completed, "N = 1 slips the provisional window");
        assert!(o.dropped > 0, "post-seal traffic must still drop");
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let a = run_attack(
            &ReplayAttack,
            &RunConfig {
                device: PLUG,
                seed: 7,
            },
        );
        let b = run_attack(
            &ReplayAttack,
            &RunConfig {
                device: PLUG,
                seed: 7,
            },
        );
        assert_eq!(a, b);
        let c = run_attack(
            &ReplayAttack,
            &RunConfig {
                device: PLUG,
                seed: 8,
            },
        );
        // Different seed, same security posture.
        assert_eq!(c.verdict, AttackVerdict::Blocked);
    }
}
