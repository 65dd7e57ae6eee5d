//! Attack outcomes and the aggregated security scorecard.
//!
//! Every harness run produces one [`AttackOutcome`]; a [`Scorecard`]
//! collects them across the strategy × device matrix and renders a
//! fixed-width report. Outcome fields are fully deterministic functions
//! of the run seed — no wall-clock time or map iteration order leaks in —
//! so the rendered scorecard is byte-identical across runs with the same
//! seed.

use std::fmt::Write as _;

/// How a run is scored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackVerdict {
    /// The attacker's command never completed.
    Blocked,
    /// The attacker delivered enough packets to complete the command (or
    /// an audit tamper went unnoticed).
    Allowed,
    /// The attack "succeeded" on the wire but left tamper evidence the
    /// verifier caught ([`fiat_core::audit::verify_chain`]): the exported
    /// entries no longer chain to the exported head.
    Detected,
}

impl AttackVerdict {
    /// Lower-case label, as used in the `outcome` metric label.
    pub fn as_str(self) -> &'static str {
        match self {
            AttackVerdict::Blocked => "blocked",
            AttackVerdict::Allowed => "allowed",
            AttackVerdict::Detected => "detected",
        }
    }
}

/// The scored result of one strategy run against one device.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackOutcome {
    /// Strategy name (stable identifier, e.g. `replay`).
    pub strategy: String,
    /// The defense layer the strategy probes.
    pub defense: String,
    /// Target device index in the testbed.
    pub device: u16,
    /// Target device name (Table 1).
    pub device_name: String,
    /// Scored verdict.
    pub verdict: AttackVerdict,
    /// Attack packets handed to the proxy.
    pub injected: u64,
    /// Attack packets forwarded into the home.
    pub delivered: u64,
    /// Attack packets dropped by the proxy.
    pub dropped: u64,
    /// Attack packets that rode a learned allow rule.
    pub rule_hits: u64,
    /// Replayed 0-RTT auth packets rejected by the anti-replay store.
    pub replays_rejected: u64,
    /// Lockout episodes the run triggered on the target device.
    pub lockout_episodes: u64,
    /// Events the proxy classified retrospectively as unverified-manual.
    pub retro_episodes: u64,
    /// Milliseconds from the first post-recon attack packet to the first
    /// blocking decision (`None` if nothing was blocked).
    pub time_to_block_ms: Option<u64>,
    /// Whether the attacker's command completed (≥ N packets delivered
    /// in one contiguous sub-event-gap run at or after the attack start).
    pub completed: bool,
}

/// Aggregator over the strategy × device matrix.
#[derive(Debug, Default, Clone)]
pub struct Scorecard {
    outcomes: Vec<AttackOutcome>,
}

impl Scorecard {
    /// Empty scorecard.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one run.
    pub fn push(&mut self, outcome: AttackOutcome) {
        self.outcomes.push(outcome);
    }

    /// All recorded outcomes, in insertion order.
    pub fn outcomes(&self) -> &[AttackOutcome] {
        &self.outcomes
    }

    /// Number of runs with the given verdict.
    pub fn count(&self, verdict: AttackVerdict) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.verdict == verdict)
            .count()
    }

    /// Whether every run of `strategy` scored `verdict`.
    pub fn all_scored(&self, strategy: &str, verdict: AttackVerdict) -> bool {
        let mut seen = false;
        for o in &self.outcomes {
            if o.strategy == strategy {
                seen = true;
                if o.verdict != verdict {
                    return false;
                }
            }
        }
        seen
    }

    /// Render the fixed-width scorecard. Deterministic for a fixed
    /// outcome sequence; `seed` is echoed so saved reports are
    /// self-describing.
    pub fn render(&self, seed: u64) -> String {
        let mut out = String::new();
        writeln!(out, "# FIAT adversarial scorecard (seed {seed})").unwrap();
        writeln!(
            out,
            "{:<14} {:<9} {:<9} {:>6} {:>6} {:>6} {:>6} {:>7} {:>8} {:>9}",
            "strategy",
            "device",
            "verdict",
            "inj",
            "fwd",
            "drop",
            "rule",
            "replay-",
            "lockouts",
            "ttb-ms"
        )
        .unwrap();
        for o in &self.outcomes {
            writeln!(
                out,
                "{:<14} {:<9} {:<9} {:>6} {:>6} {:>6} {:>6} {:>7} {:>8} {:>9}",
                o.strategy,
                o.device_name,
                o.verdict.as_str().to_uppercase(),
                o.injected,
                o.delivered,
                o.dropped,
                o.rule_hits,
                o.replays_rejected,
                o.lockout_episodes,
                o.time_to_block_ms
                    .map_or("-".to_string(), |ms| ms.to_string()),
            )
            .unwrap();
        }
        writeln!(out).unwrap();
        writeln!(out, "## Per-strategy summary").unwrap();
        let mut strategies: Vec<(&str, &str)> = Vec::new();
        for o in &self.outcomes {
            if !strategies.iter().any(|(s, _)| *s == o.strategy) {
                strategies.push((&o.strategy, &o.defense));
            }
        }
        for (strategy, defense) in strategies {
            let runs: Vec<&AttackOutcome> = self
                .outcomes
                .iter()
                .filter(|o| o.strategy == strategy)
                .collect();
            let blocked = runs
                .iter()
                .filter(|o| o.verdict == AttackVerdict::Blocked)
                .count();
            let detected = runs
                .iter()
                .filter(|o| o.verdict == AttackVerdict::Detected)
                .count();
            let allowed = runs.len() - blocked - detected;
            writeln!(
                out,
                "{:<14} blocked {blocked}/{total}  detected {detected}/{total}  \
                 allowed {allowed}/{total}  [{defense}]",
                strategy,
                total = runs.len(),
            )
            .unwrap();
        }
        writeln!(out).unwrap();
        writeln!(
            out,
            "verdicts: {} blocked, {} detected, {} allowed over {} runs",
            self.count(AttackVerdict::Blocked),
            self.count(AttackVerdict::Detected),
            self.count(AttackVerdict::Allowed),
            self.outcomes.len()
        )
        .unwrap();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(strategy: &str, verdict: AttackVerdict) -> AttackOutcome {
        AttackOutcome {
            strategy: strategy.to_string(),
            defense: "test defense".to_string(),
            device: 3,
            device_name: "SP10".to_string(),
            verdict,
            injected: 10,
            delivered: 2,
            dropped: 8,
            rule_hits: 0,
            replays_rejected: 1,
            lockout_episodes: 1,
            retro_episodes: 0,
            time_to_block_ms: Some(40),
            completed: verdict == AttackVerdict::Allowed,
        }
    }

    #[test]
    fn render_is_deterministic_and_complete() {
        let mut card = Scorecard::new();
        card.push(outcome("replay", AttackVerdict::Blocked));
        card.push(outcome("mimicry", AttackVerdict::Allowed));
        card.push(outcome("audit-tamper", AttackVerdict::Detected));
        let a = card.render(42);
        let b = card.render(42);
        assert_eq!(a, b);
        assert!(a.contains("seed 42"));
        assert!(a.contains("replay"));
        assert!(a.contains("BLOCKED"));
        assert!(a.contains("DETECTED"));
        assert!(a.contains("1 blocked, 1 detected, 1 allowed over 3 runs"));
    }

    #[test]
    fn all_scored_requires_uniformity() {
        let mut card = Scorecard::new();
        card.push(outcome("replay", AttackVerdict::Blocked));
        card.push(outcome("replay", AttackVerdict::Blocked));
        card.push(outcome("mimicry", AttackVerdict::Allowed));
        assert!(card.all_scored("replay", AttackVerdict::Blocked));
        assert!(!card.all_scored("replay", AttackVerdict::Allowed));
        assert!(!card.all_scored("unknown", AttackVerdict::Blocked));
        assert_eq!(card.count(AttackVerdict::Blocked), 2);
    }
}
