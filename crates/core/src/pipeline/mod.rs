//! The IoT proxy's access-control procedure (Figure 4).
//!
//! Every packet destined to (or originating from) an IoT device passes
//! through:
//!
//! 1. **Bootstrap** — for the first 20 minutes all traffic is allowed
//!    while the rule table learns predictable flows (§5.4 "Rules
//!    Creation"; 20 min = 2× the maximum predictable interval, Fig 1c).
//! 2. **Rule match** — a hit means predictable: allow.
//! 3. **Event grouping** — misses accumulate into unpredictable events
//!    (5 s gap); the first N packets of each event are allowed, N capped
//!    by the device's command-completion threshold so an unauthorized
//!    command cannot finish before the verdict.
//! 4. **Classification** — at packet N the event is classified (size rule
//!    or BernoulliNB). Non-manual ⇒ allow the rest. Manual ⇒ allowed only
//!    if a humanness proof arrived recently; otherwise the event's
//!    remaining packets drop and the user is alerted.
//! 5. **Lockout** — repeated unverified manual events within a short
//!    window disconnect the device until manually cleared (brute-force
//!    protection). The threshold is a tolerance: up to
//!    `lockout_threshold` unverified events are absorbed, the next one
//!    locks.
//!
//! Events that end *below* the first-N window (an attacker feeding
//! fragments and pausing past the event gap) are classified
//! retrospectively when they close: their packets already left, but an
//! unverified manual episode still reaches the audit log and counts
//! toward the lockout, so gap evasion trips the brute-force protection
//! instead of flying under the classifier.
//!
//! Classification goes through one verdict ladder (`Policy::verdict`:
//! non-manual, fresh proof, interaction cascade, or unverified) at the
//! live classification point and at a retrospective close alike. Two
//! branches have their own modules: `quarantine` is the pending-verdict
//! state machine that holds an unverified manual event when
//! [`ProxyConfig::proof_deadline`] is set, and `unknown` decides traffic
//! of unregistered devices (fail-open, or the [`FingerprintGate`]).

use crate::audit::{AuditEntry, AuditLog, AuditVerdict, AUDIT_PROXY_DEVICE};
use crate::classifier::{EventClass, EventClassifier};
use crate::client::{AuthView, FiatApp};
use crate::features::FEATURE_PACKETS;
use crate::interactions::InteractionGraph;
use crate::pairing::{pair, Paired};
use crate::predict::{PredictabilityEngine, RuleTable, RuleTelemetry, DEFAULT_TOLERANCE};
use crate::snapshot::{DeviceSnapshot, EventFate, EventPackets, OpenEvent};
use fiat_crypto::TeeKeystore;
use fiat_net::{DnsTable, FastMap, FlowDef, PacketRecord, SimDuration, SimTime};
use fiat_quic::{ClientHello, Server as QuicServer, ServerHello, ZeroRttPacket};
use fiat_sensors::HumannessValidator;
use fiat_telemetry::{
    Clock, CounterCell, Family, GaugeCell, Histogram, MetricRegistry, PartWriter, SchemaPart, Span,
    WallClock,
};
use quarantine::Quarantine;
use std::sync::Arc;
use unknown::UnknownDevices;
pub use unknown::{FingerprintGate, FingerprintObservation, FingerprintVerdict};

mod quarantine;
mod unknown;

/// Proxy configuration (paper defaults).
#[derive(Debug, Clone)]
pub struct ProxyConfig {
    /// Flow definition for rules (PortLess per §5.4).
    pub flow_def: FlowDef,
    /// Interval tolerance bin for the predictability engine.
    pub tolerance: SimDuration,
    /// Bootstrap window during which all traffic is allowed and learned.
    pub bootstrap: SimDuration,
    /// Unpredictable-event gap threshold.
    pub event_gap: SimDuration,
    /// Maximum packets allowed (and used as features) before classifying.
    /// Registration clamps each device's first-N window to this cap and
    /// to [`FEATURE_PACKETS`], the most the classifier reads and the
    /// inline event buffer holds, so a cap above 5 acts as 5.
    pub classify_at_cap: usize,
    /// How long a humanness proof stays fresh.
    pub human_valid_window: SimDuration,
    /// Unverified manual events *tolerated* within
    /// [`ProxyConfig::lockout_window`]: exactly this many do not lock
    /// the device, one more does.
    pub lockout_threshold: u32,
    /// Sliding window for the lockout counter.
    pub lockout_window: SimDuration,
    /// Pending-verdict quarantine: how long a manual-classified event
    /// whose humanness proof has not arrived is *held* (not dropped)
    /// awaiting the proof. `None` (the default) disables quarantine and
    /// reproduces the immediate-demotion path bit for bit — a lost proof
    /// then means a dropped event, the false-drop friction the chaos
    /// harness measures.
    pub proof_deadline: Option<SimDuration>,
    /// Maximum packets held per quarantine record. Packets past the cap
    /// are dropped as `ManualUnverified` (no audit entry, no lockout
    /// credit — the episode is already pending a verdict) so a chatty
    /// event cannot grow proxy memory without bound.
    pub quarantine_capacity: usize,
    /// Rule-table cap: past it the least-recently-matched rule is
    /// evicted into a ghost with a re-learn path (see
    /// [`RuleTable::set_capacity`]). The default is generous — far above
    /// what any home learns — so it only exists to bound hostile or
    /// pathological growth; `None` disables the cap.
    pub max_rules: Option<usize>,
    /// Cap on *concurrent* quarantine records across the home (one
    /// record per device already bounds each device, but not the number
    /// of devices with one pending). Admitting a record past the cap
    /// demotes the record with the oldest deadline first, as if its
    /// deadline had just passed. `None` disables the cap.
    pub max_quarantine_records: Option<usize>,
    /// In-memory audit-chain cap with checkpointed truncation (see
    /// [`crate::audit::AuditLog::set_max_entries`]). `None` keeps every
    /// entry in memory.
    pub max_audit_entries: Option<usize>,
    /// Route unknown-MAC traffic through the behavioral fingerprint gate
    /// (when one is installed with [`FiatProxy::set_fingerprinter`])
    /// instead of the legacy fail-open. Off by default so existing
    /// deployments keep the incremental-deployment behavior until the
    /// operator flips the knob.
    pub fingerprint_unknown: bool,
}

impl ProxyConfig {
    /// The largest first-N window a device can get: `classify_at_cap`
    /// clamped to `1..=FEATURE_PACKETS`.
    pub(crate) fn max_classify_at(&self) -> usize {
        self.classify_at_cap.clamp(1, FEATURE_PACKETS)
    }
}

impl Default for ProxyConfig {
    fn default() -> Self {
        ProxyConfig {
            flow_def: FlowDef::PortLess,
            tolerance: DEFAULT_TOLERANCE,
            bootstrap: SimDuration::from_mins(20),
            event_gap: SimDuration::from_secs(5),
            classify_at_cap: 5,
            human_valid_window: SimDuration::from_secs(30),
            lockout_threshold: 3,
            lockout_window: SimDuration::from_secs(60),
            proof_deadline: None,
            quarantine_capacity: 64,
            max_rules: Some(65_536),
            max_quarantine_records: Some(64),
            max_audit_entries: Some(65_536),
            fingerprint_unknown: false,
        }
    }
}

/// Why a packet was allowed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllowReason {
    /// Still in the bootstrap window.
    Bootstrap,
    /// Rule table hit: predictable traffic.
    RuleHit,
    /// Within the first-N allowance of an undecided event.
    FirstN,
    /// Event classified non-manual.
    NonManual,
    /// Manual event with a fresh humanness proof.
    ManualVerified,
    /// Manual event covered by a device-interaction cascade (§7).
    Cascade,
    /// Unregistered device: fail open during incremental deployment.
    UnknownDevice,
    /// Remainder of a quarantined manual event whose humanness proof
    /// arrived (late) before the proof deadline.
    QuarantineReleased,
    /// Unregistered device whose traffic behaviorally matched its
    /// claimed class (fingerprint gate): provisional allow with audit.
    FingerprintMatched,
}

impl AllowReason {
    /// All variants, in [`ProxyStats`] field order.
    pub const ALL: [AllowReason; 9] = [
        AllowReason::Bootstrap,
        AllowReason::RuleHit,
        AllowReason::FirstN,
        AllowReason::NonManual,
        AllowReason::ManualVerified,
        AllowReason::Cascade,
        AllowReason::UnknownDevice,
        AllowReason::QuarantineReleased,
        AllowReason::FingerprintMatched,
    ];

    /// Stable snake_case name used as the telemetry `reason` label.
    pub fn as_str(self) -> &'static str {
        match self {
            AllowReason::Bootstrap => "bootstrap",
            AllowReason::RuleHit => "rule_hit",
            AllowReason::FirstN => "first_n",
            AllowReason::NonManual => "non_manual",
            AllowReason::ManualVerified => "manual_verified",
            AllowReason::Cascade => "cascade",
            AllowReason::UnknownDevice => "unknown_device",
            AllowReason::QuarantineReleased => "quarantine_released",
            AllowReason::FingerprintMatched => "fingerprint_matched",
        }
    }
}

/// Why a packet was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// Manual event without humanness proof.
    ManualUnverified,
    /// Device is locked out.
    LockedOut,
    /// Remainder of a quarantined manual event whose proof deadline
    /// passed without a humanness proof.
    QuarantineExpired,
    /// Unregistered device quarantined by the fingerprint gate: its
    /// evidence window sealed on spoof-suspected or no-confident-match.
    UnknownQuarantined,
}

impl DropReason {
    /// All variants, in [`ProxyStats`] field order.
    pub const ALL: [DropReason; 4] = [
        DropReason::ManualUnverified,
        DropReason::LockedOut,
        DropReason::QuarantineExpired,
        DropReason::UnknownQuarantined,
    ];

    /// Stable snake_case name used as the telemetry `reason` label.
    pub fn as_str(self) -> &'static str {
        match self {
            DropReason::ManualUnverified => "manual_unverified",
            DropReason::LockedOut => "locked_out",
            DropReason::QuarantineExpired => "quarantine_expired",
            DropReason::UnknownQuarantined => "unknown_quarantined",
        }
    }
}

/// Packet counters per decision reason (operator dashboard material).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProxyStats {
    /// Packets allowed during bootstrap.
    pub bootstrap: u64,
    /// Packets allowed by a rule hit.
    pub rule_hit: u64,
    /// Packets allowed under the first-N allowance.
    pub first_n: u64,
    /// Packets of events classified non-manual.
    pub non_manual: u64,
    /// Packets of human-verified manual events.
    pub manual_verified: u64,
    /// Packets allowed via an interaction cascade.
    pub cascade: u64,
    /// Packets of unregistered devices allowed fail-open.
    pub unknown_device: u64,
    /// Packets dropped as unverified manual.
    pub dropped_unverified: u64,
    /// Packets dropped because the device is locked out.
    pub dropped_lockout: u64,
    /// Unverified manual *episodes* detected retrospectively at event
    /// closure (their packets had already been forwarded under the
    /// first-N allowance; counts events, not packets, so it is not part
    /// of [`ProxyStats::total`]).
    pub retro_unverified: u64,
    /// Packets held in pending-verdict quarantine at decision time
    /// (each held packet is decided exactly once, as `Quarantine`).
    pub quarantined: u64,
    /// Live packets allowed because their event's quarantine was
    /// released by a late-arriving proof.
    pub quarantine_released: u64,
    /// Live packets dropped because their event's quarantine expired.
    pub dropped_quarantine: u64,
    /// Held packets demoted when a quarantine expired. Those packets
    /// were already decided (and counted) as `quarantined`, so this is a
    /// secondary count like `retro_unverified` and not part of
    /// [`ProxyStats::total`].
    pub quarantine_expired: u64,
    /// Packets of unregistered devices allowed because the fingerprint
    /// gate matched the claimed class.
    pub fingerprint_matched: u64,
    /// Packets of unregistered devices dropped by the fingerprint gate
    /// (spoof suspected or no confident match after the window).
    pub dropped_unknown: u64,
}

impl ProxyStats {
    /// Every counter, in declaration order: the one list that field-wise
    /// folds and the snapshot layout walk.
    pub(crate) const FIELDS: [fn(&mut ProxyStats) -> &mut u64; 16] = [
        |s| &mut s.bootstrap,
        |s| &mut s.rule_hit,
        |s| &mut s.first_n,
        |s| &mut s.non_manual,
        |s| &mut s.manual_verified,
        |s| &mut s.cascade,
        |s| &mut s.unknown_device,
        |s| &mut s.dropped_unverified,
        |s| &mut s.dropped_lockout,
        |s| &mut s.retro_unverified,
        |s| &mut s.quarantined,
        |s| &mut s.quarantine_released,
        |s| &mut s.dropped_quarantine,
        |s| &mut s.quarantine_expired,
        |s| &mut s.fingerprint_matched,
        |s| &mut s.dropped_unknown,
    ];

    /// Total packets decided: every counter but the two secondary
    /// counts, `retro_unverified` and `quarantine_expired`.
    pub fn total(&self) -> u64 {
        let mut s = *self;
        let all: u64 = Self::FIELDS.iter().map(|field| *field(&mut s)).sum();
        all - self.retro_unverified - self.quarantine_expired
    }

    /// Total packets dropped.
    pub fn dropped(&self) -> u64 {
        self.dropped_unverified
            + self.dropped_lockout
            + self.dropped_quarantine
            + self.dropped_unknown
    }

    /// Fraction of (post-bootstrap) traffic handled by rules alone — the
    /// paper's headline predictability payoff.
    pub fn rule_fraction(&self) -> f64 {
        let post = self.total() - self.bootstrap;
        if post == 0 {
            0.0
        } else {
            self.rule_hit as f64 / post as f64
        }
    }

    /// Packets decided as `decision`: the field that counts it.
    pub fn decided(&self, decision: ProxyDecision) -> u64 {
        let mut s = *self;
        *s.field(decision)
    }

    /// Fold one policy event into the counts: a decision into its
    /// reason's field, an expiry's demoted packets into
    /// `quarantine_expired`.
    fn note(&mut self, ev: &ProxyEvent) {
        match *ev {
            ProxyEvent::Decided { decision, .. } => *self.field(decision) += 1,
            ProxyEvent::QuarantineExpired { packets, .. } => self.quarantine_expired += packets,
            _ => {}
        }
    }

    /// The field a packet decided as `decision` counts into.
    fn field(&mut self, decision: ProxyDecision) -> &mut u64 {
        match decision {
            ProxyDecision::Allow(AllowReason::Bootstrap) => &mut self.bootstrap,
            ProxyDecision::Allow(AllowReason::RuleHit) => &mut self.rule_hit,
            ProxyDecision::Allow(AllowReason::FirstN) => &mut self.first_n,
            ProxyDecision::Allow(AllowReason::NonManual) => &mut self.non_manual,
            ProxyDecision::Allow(AllowReason::ManualVerified) => &mut self.manual_verified,
            ProxyDecision::Allow(AllowReason::Cascade) => &mut self.cascade,
            ProxyDecision::Allow(AllowReason::UnknownDevice) => &mut self.unknown_device,
            ProxyDecision::Allow(AllowReason::QuarantineReleased) => &mut self.quarantine_released,
            ProxyDecision::Allow(AllowReason::FingerprintMatched) => &mut self.fingerprint_matched,
            ProxyDecision::Drop(DropReason::ManualUnverified) => &mut self.dropped_unverified,
            ProxyDecision::Drop(DropReason::LockedOut) => &mut self.dropped_lockout,
            ProxyDecision::Drop(DropReason::QuarantineExpired) => &mut self.dropped_quarantine,
            ProxyDecision::Drop(DropReason::UnknownQuarantined) => &mut self.dropped_unknown,
            ProxyDecision::Quarantine => &mut self.quarantined,
        }
    }
}

impl std::ops::AddAssign for ProxyStats {
    /// Field-wise addition, for folding per-proxy (or per-shard) stats
    /// into one fleet-wide view. Commutative and associative, so the
    /// merged result does not depend on shard order.
    fn add_assign(&mut self, mut rhs: ProxyStats) {
        for field in Self::FIELDS {
            *field(self) += *field(&mut rhs);
        }
    }
}

/// Point-in-time entry counts of every growable state surface one home's
/// proxy owns — what the long-horizon soak's accountant samples against
/// its budget (DESIGN §18). Counts are *entries*, not bytes: each surface
/// has a fixed-size record, so entry caps are what bound memory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StateSize {
    /// Live rule-table entries.
    pub rules: usize,
    /// Evicted-rule ghosts awaiting re-learn.
    pub rule_ghosts: usize,
    /// Open unpredictable events.
    pub open_events: usize,
    /// Packets buffered across open events (≤ `classify_at_cap` each).
    pub open_packets: usize,
    /// Pending-verdict quarantine records.
    pub quarantine_records: usize,
    /// Packets held across all quarantine records.
    pub quarantine_held: usize,
    /// In-memory audit chain entries (post-truncation suffix).
    pub audit_entries: usize,
    /// 0-RTT session tickets tracked by the replay store.
    pub replay_tickets: usize,
    /// Replayed-packet-number entries across all live epochs.
    pub replay_entries: usize,
    /// Live (unretired) ticket epochs.
    pub replay_epochs: usize,
    /// Packets buffered during bootstrap (empty once rules are learned).
    pub bootstrap_buffered: usize,
    /// Released quarantine packets not yet drained by the interceptor.
    pub released_pending: usize,
    /// Fingerprint-gate entries: unknown devices under an open evidence
    /// window plus cached sealed verdicts (both LRU-capped).
    pub fingerprint_evidence: usize,
}

impl StateSize {
    /// Every surface, in declaration order: the one list both folds
    /// below walk.
    const FIELDS: [fn(&mut StateSize) -> &mut usize; 13] = [
        |s| &mut s.rules,
        |s| &mut s.rule_ghosts,
        |s| &mut s.open_events,
        |s| &mut s.open_packets,
        |s| &mut s.quarantine_records,
        |s| &mut s.quarantine_held,
        |s| &mut s.audit_entries,
        |s| &mut s.replay_tickets,
        |s| &mut s.replay_entries,
        |s| &mut s.replay_epochs,
        |s| &mut s.bootstrap_buffered,
        |s| &mut s.released_pending,
        |s| &mut s.fingerprint_evidence,
    ];

    /// Sum of every surface — the single number compared against the
    /// soak's per-home budget.
    pub fn total(&self) -> usize {
        let mut s = *self;
        Self::FIELDS.iter().map(|field| *field(&mut s)).sum()
    }

    /// Field-wise maximum — fold per-sample sizes into a high-water
    /// mark (each surface peaks independently, so the result may not
    /// correspond to any single instant).
    pub fn max_fields(mut self, mut rhs: StateSize) -> StateSize {
        for field in Self::FIELDS {
            *field(&mut self) = (*field(&mut self)).max(*field(&mut rhs));
        }
        self
    }
}

/// Per-packet verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProxyDecision {
    /// Forward the packet.
    Allow(AllowReason),
    /// Drop it.
    Drop(DropReason),
    /// Hold the packet in pending-verdict quarantine: it is neither
    /// forwarded nor discarded until the event's proof deadline resolves
    /// it. Held packets surface through
    /// [`FiatProxy::take_quarantine_releases`] when released.
    Quarantine,
}

impl ProxyDecision {
    /// Whether the packet is forwarded *now*. Quarantined packets are
    /// not — a held command must not reach the device before its
    /// verdict, which is what keeps quarantine from weakening the
    /// first-N completion bound.
    pub fn is_allow(self) -> bool {
        matches!(self, ProxyDecision::Allow(_))
    }

    /// The telemetry `decision` label: `"allow"`, `"drop"` or
    /// `"quarantine"`.
    pub fn decision_str(self) -> &'static str {
        match self {
            ProxyDecision::Allow(_) => "allow",
            ProxyDecision::Drop(_) => "drop",
            ProxyDecision::Quarantine => "quarantine",
        }
    }

    /// Stable snake_case reason label (`"rule_hit"`, `"locked_out"`,
    /// `"pending_proof"`) — the same strings the telemetry `reason`
    /// label uses.
    pub fn reason_str(self) -> &'static str {
        match self {
            ProxyDecision::Allow(r) => r.as_str(),
            ProxyDecision::Drop(r) => r.as_str(),
            ProxyDecision::Quarantine => "pending_proof",
        }
    }

    /// Index of this decision's `fiat_proxy_decisions_total` series:
    /// [`AllowReason::ALL`], then [`DropReason::ALL`], then quarantine.
    fn series(self) -> usize {
        const DROPS: usize = AllowReason::ALL.len();
        match self {
            ProxyDecision::Allow(r) => r as usize,
            ProxyDecision::Drop(r) => DROPS + r as usize,
            ProxyDecision::Quarantine => DROPS + DropReason::ALL.len(),
        }
    }
}

/// One policy action of the proxy, emitted once where it happens: it is
/// folded into [`ProxyStats`] and the telemetry, then handed to the
/// [`ProxyHook`]. `ts` is *simulated* packet time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProxyEvent {
    /// A packet was decided (once per [`FiatProxy::on_packet`]).
    Decided {
        ts: SimTime,
        device: u16,
        decision: ProxyDecision,
    },
    /// A humanness proof arrived and was validated.
    Proof { ts: SimTime, verified: bool },
    /// A device entered brute-force lockout at packet time, retro event
    /// end, or quarantine deadline: whichever triggered it.
    Lockout { ts: SimTime, device: u16 },
    /// A lockout was manually cleared. The §5.4 user action happens
    /// outside packet time, so it has no timestamp.
    LockoutCleared { device: u16 },
    /// A packet was held in pending-verdict quarantine.
    QuarantineHeld { ts: SimTime, device: u16 },
    /// A late proof released a quarantine record: `packets` held
    /// packets were forwarded.
    QuarantineReleased {
        ts: SimTime,
        device: u16,
        packets: u64,
    },
    /// A quarantine record expired at its deadline, or earlier by a
    /// record-cap demotion: `packets` held packets were discarded.
    QuarantineExpired {
        ts: SimTime,
        device: u16,
        packets: u64,
    },
}

impl ProxyEvent {
    /// Stable snake_case name of the event's kind (the flight recorder's).
    pub fn name(&self) -> &'static str {
        match self {
            ProxyEvent::Decided { .. } => "packet_decided",
            ProxyEvent::Proof { .. } => "proof_arrival",
            ProxyEvent::Lockout { .. } => "lockout_entered",
            ProxyEvent::LockoutCleared { .. } => "lockout_cleared",
            ProxyEvent::QuarantineHeld { .. } => "quarantine_held",
            ProxyEvent::QuarantineReleased { .. } => "quarantine_released",
            ProxyEvent::QuarantineExpired { .. } => "quarantine_expired",
        }
    }
}

/// Observer of the proxy's [`ProxyEvent`]s, installed with
/// [`FiatProxy::set_hook`] — the flight recorder's (`fiat-probe`) feed
/// of the transitions a post-mortem needs a causal timeline for. With no
/// hook installed (the default), an event costs one branch on an
/// `Option`: `fiat-probe`'s `tests/overhead.rs` pins the hook-free
/// decide path at zero allocations.
pub trait ProxyHook: Send {
    /// One policy event, after the proxy's stats and counters include it.
    fn on_event(&self, ev: &ProxyEvent);
}

/// `on_packet` times one packet in this many into
/// `fiat_proxy_stage_ns{stage="decide"}`: a proxy's first packet, then
/// every `DECIDE_SAMPLE_EVERY`-th. The proxy's own packet counter picks
/// them, so the choice is deterministic, and a proxy that decided `n`
/// packets since it was built holds `n.div_ceil(DECIDE_SAMPLE_EVERY)`
/// decide samples.
pub const DECIDE_SAMPLE_EVERY: u64 = 64;

/// The proxy's counters and gauges: every `fiat_proxy_*` and
/// `fiat_quarantine_*` series, attached to the shared registry by
/// [`ProxyTelemetry::new`]. The `fiat_proxy_decisions_total` label sets
/// follow [`AllowReason::ALL`], then [`DropReason::ALL`], then the
/// quarantine decision, so a reason's discriminant is its series index.
static PROXY_METRICS: SchemaPart = SchemaPart::new(&[
    Family::counter(
        "fiat_proxy_decisions_total",
        "Packets decided, by decision and reason.",
        &[
            &[("decision", "allow"), ("reason", "bootstrap")],
            &[("decision", "allow"), ("reason", "rule_hit")],
            &[("decision", "allow"), ("reason", "first_n")],
            &[("decision", "allow"), ("reason", "non_manual")],
            &[("decision", "allow"), ("reason", "manual_verified")],
            &[("decision", "allow"), ("reason", "cascade")],
            &[("decision", "allow"), ("reason", "unknown_device")],
            &[("decision", "allow"), ("reason", "quarantine_released")],
            &[("decision", "allow"), ("reason", "fingerprint_matched")],
            &[("decision", "drop"), ("reason", "manual_unverified")],
            &[("decision", "drop"), ("reason", "locked_out")],
            &[("decision", "drop"), ("reason", "quarantine_expired")],
            &[("decision", "drop"), ("reason", "unknown_quarantined")],
            &[("decision", "quarantine"), ("reason", "pending_proof")],
        ],
    ),
    Family::gauge("fiat_proxy_rules", "Learned predictability rules.", &[&[]]),
    Family::gauge(
        "fiat_proxy_open_events",
        "Unpredictable events currently open.",
        &[&[]],
    ),
    Family::gauge(
        "fiat_proxy_locked_devices",
        "Devices currently locked out.",
        &[&[]],
    ),
    Family::gauge("fiat_proxy_devices", "Registered devices.", &[&[]]),
    Family::counter(
        "fiat_proxy_auth_total",
        "Humanness auth messages processed, by result.",
        &[
            &[("result", "verified")],
            &[("result", "rejected")],
            &[("result", "error")],
        ],
    ),
    Family::counter(
        "fiat_proxy_lockouts_total",
        "Lockout episodes entered (once per episode, not per dropped packet).",
        &[&[]],
    ),
    Family::counter(
        "fiat_proxy_retro_unverified_total",
        "Unverified manual episodes detected retrospectively at event closure.",
        &[&[]],
    ),
    Family::counter(
        "fiat_quarantine_held_total",
        "Packets held in pending-verdict quarantine.",
        &[&[]],
    ),
    Family::counter(
        "fiat_quarantine_released_total",
        "Held packets released by a late-arriving humanness proof.",
        &[&[]],
    ),
    Family::counter(
        "fiat_quarantine_expired_total",
        "Held packets demoted at their proof deadline.",
        &[&[]],
    ),
    Family::gauge(
        "fiat_quarantine_depth",
        "Packets currently held in quarantine.",
        &[&[]],
    ),
    Family::gauge(
        "fiat_proxy_degraded",
        "1 while the proxy runs in control-plane degraded mode.",
        &[&[]],
    ),
    Family::counter(
        "fiat_proxy_degraded_decisions_total",
        "Packets decided while in control-plane degraded mode.",
        &[&[]],
    ),
]);

/// [`PROXY_METRICS`] family indices.
const DECISIONS: usize = 0;
const RULES: usize = 1;
const OPEN_EVENTS: usize = 2;
const LOCKED_DEVICES: usize = 3;
const DEVICES: usize = 4;
const AUTH: usize = 5;
const LOCKOUTS: usize = 6;
const RETRO_UNVERIFIED: usize = 7;
const QUARANTINE_HELD: usize = 8;
const QUARANTINE_RELEASED: usize = 9;
const QUARANTINE_EXPIRED: usize = 10;
const QUARANTINE_DEPTH: usize = 11;
const DEGRADED: usize = 12;
const DEGRADED_DECISIONS: usize = 13;
/// Series of the `fiat_proxy_decisions_total` family.
const DECISION_SERIES: usize = AllowReason::ALL.len() + DropReason::ALL.len() + 1;

/// Stage latency, attached to each proxy's private timing registry.
static STAGE_METRICS: SchemaPart = SchemaPart::new(&[Family::histogram(
    "fiat_proxy_stage_ns",
    "Decision-path stage latency in nanoseconds (decide: 1 packet in 64).",
    &[
        &[("stage", "rule_learn")],
        &[("stage", "classification")],
        &[("stage", "humanness")],
        &[("stage", "decide")],
    ],
)]);
const _: () = assert!(
    DECIDE_SAMPLE_EVERY == 64,
    "the fiat_proxy_stage_ns help text names the decide sampling rate"
);

/// Pre-resolved telemetry handles for the proxy decision path.
///
/// The counters and gauges are this proxy's own cells of the static
/// `PROXY_METRICS` part, attached per writer
/// ([`MetricRegistry::attach_writer`]) at construction. The proxy is
/// their one writer, always through `&mut self`, so an update is a
/// relaxed load and a store: no registry lock and no locked instruction.
/// A registry shared by several proxies sums their cells when it is
/// read. Two registries keep what is deterministic apart from what is
/// not:
///
/// - [`ProxyTelemetry::registry`] holds counters and gauges only, a pure
///   function of the inputs, so fleet runs can compare it byte for byte;
/// - [`ProxyTelemetry::timing`] is private to this telemetry and holds
///   every stage-latency histogram (`fiat_proxy_stage_ns`,
///   `STAGE_METRICS`), timed on the pluggable clock: the OS monotonic
///   clock in deployments, a [`fiat_telemetry::ManualClock`] in tests.
///   A histogram sample is five relaxed atomic read-modify-writes.
pub struct ProxyTelemetry {
    registry: MetricRegistry,
    timing: MetricRegistry,
    clock: Arc<dyn Clock>,
    stage_rule_learn: Histogram,
    stage_classification: Histogram,
    stage_humanness: Histogram,
    decide_sampled: Histogram,
    cells: PartWriter,
    decisions: [CounterCell; DECISION_SERIES],
    quarantine_held: CounterCell,
    quarantine_released: CounterCell,
    quarantine_expired: CounterCell,
    quarantine_depth: GaugeCell,
    rules_gauge: GaugeCell,
    open_events_gauge: GaugeCell,
    locked_devices_gauge: GaugeCell,
    devices_gauge: GaugeCell,
    auth_verified: CounterCell,
    auth_rejected: CounterCell,
    auth_errors: CounterCell,
    lockouts: CounterCell,
    retro_unverified: CounterCell,
    degraded_gauge: GaugeCell,
    degraded_decisions: CounterCell,
}

impl ProxyTelemetry {
    /// Attach the proxy's own counters and gauges to `registry`, and time
    /// stages with `clock` into a fresh timing registry.
    pub fn new(registry: MetricRegistry, clock: Arc<dyn Clock>) -> Self {
        let timing = MetricRegistry::new();
        let stage = timing.attach(&STAGE_METRICS);
        let c = registry.attach_writer(&PROXY_METRICS);
        ProxyTelemetry {
            stage_rule_learn: stage.histogram(0, 0),
            stage_classification: stage.histogram(0, 1),
            stage_humanness: stage.histogram(0, 2),
            decide_sampled: stage.histogram(0, 3),
            decisions: std::array::from_fn(|i| c.counter(DECISIONS, i)),
            quarantine_held: c.counter(QUARANTINE_HELD, 0),
            quarantine_released: c.counter(QUARANTINE_RELEASED, 0),
            quarantine_expired: c.counter(QUARANTINE_EXPIRED, 0),
            quarantine_depth: c.gauge(QUARANTINE_DEPTH, 0),
            rules_gauge: c.gauge(RULES, 0),
            open_events_gauge: c.gauge(OPEN_EVENTS, 0),
            locked_devices_gauge: c.gauge(LOCKED_DEVICES, 0),
            devices_gauge: c.gauge(DEVICES, 0),
            auth_verified: c.counter(AUTH, 0),
            auth_rejected: c.counter(AUTH, 1),
            auth_errors: c.counter(AUTH, 2),
            lockouts: c.counter(LOCKOUTS, 0),
            retro_unverified: c.counter(RETRO_UNVERIFIED, 0),
            degraded_gauge: c.gauge(DEGRADED, 0),
            degraded_decisions: c.counter(DEGRADED_DECISIONS, 0),
            cells: c,
            registry,
            timing,
            clock,
        }
    }

    /// Packets this proxy decided while in degraded mode.
    pub fn degraded_decision_count(&self) -> u64 {
        self.cells.get(self.degraded_decisions)
    }

    /// Lockout episodes this proxy entered so far (one per episode).
    pub fn lockout_count(&self) -> u64 {
        self.cells.get(self.lockouts)
    }

    /// The deterministic registry: counters and gauges (for exposition).
    pub fn registry(&self) -> &MetricRegistry {
        &self.registry
    }

    /// The timing registry: the `fiat_proxy_stage_ns` histograms. Its
    /// samples depend on the clock, so it never enters a byte-identity
    /// comparison.
    pub fn timing(&self) -> &MetricRegistry {
        &self.timing
    }

    /// Add `n` (may be negative) to one of this proxy's gauges.
    fn shift(&mut self, gauge: impl FnOnce(&Self) -> GaugeCell, n: i64) {
        let g = gauge(self);
        self.cells.shift(g, n);
    }

    /// Add one to one of this proxy's counters.
    fn inc(&mut self, counter: impl FnOnce(&Self) -> CounterCell) {
        let c = counter(self);
        self.cells.inc(c);
    }

    /// Fold one policy event into the counters and gauges it moves.
    fn note(&mut self, ev: &ProxyEvent) {
        let c = &mut self.cells;
        match *ev {
            ProxyEvent::Decided { decision, .. } => c.inc(self.decisions[decision.series()]),
            ProxyEvent::Proof { verified: true, .. } => c.inc(self.auth_verified),
            ProxyEvent::Proof { .. } => c.inc(self.auth_rejected),
            ProxyEvent::Lockout { .. } => {
                c.inc(self.lockouts);
                c.shift(self.locked_devices_gauge, 1);
            }
            ProxyEvent::LockoutCleared { .. } => c.shift(self.locked_devices_gauge, -1),
            ProxyEvent::QuarantineHeld { .. } => {
                c.inc(self.quarantine_held);
                c.shift(self.quarantine_depth, 1);
            }
            ProxyEvent::QuarantineReleased { packets, .. } => {
                c.add(self.quarantine_released, packets);
                c.shift(self.quarantine_depth, -(packets as i64));
            }
            ProxyEvent::QuarantineExpired { packets, .. } => {
                c.add(self.quarantine_expired, packets);
                c.shift(self.quarantine_depth, -(packets as i64));
            }
        }
    }
}

impl Default for ProxyTelemetry {
    /// A private registry timed by a [`WallClock`] — the configuration a
    /// real deployment wants when nothing else is specified.
    fn default() -> Self {
        Self::new(MetricRegistry::new(), Arc::new(WallClock::new()))
    }
}

/// One registered device: its classifier (provisioning data) and its
/// decision state, which is the snapshot's record of the device itself.
pub(crate) struct DeviceState {
    pub(crate) classifier: EventClassifier,
    pub(crate) rec: DeviceSnapshot,
}

/// What the decision policies share beyond one device's own state: the
/// configuration and humanness window they read, the audit chain, and
/// the stats, telemetry and hook that [`Policy::emit`] writes. Kept
/// apart from the device table so a policy can hold one device's state
/// mutably while it records its effects.
pub(crate) struct Policy {
    config: ProxyConfig,
    pub(crate) human_valid_until: SimTime,
    interactions: Option<InteractionGraph>,
    pub(crate) audit: AuditLog,
    pub(crate) stats: ProxyStats,
    telemetry: ProxyTelemetry,
    hook: Option<Box<dyn ProxyHook>>,
}

/// The FIAT proxy. The crate-visible fields have one user outside this
/// module: the snapshot codec in `crate::snapshot`, whose writer
/// ([`FiatProxy::snapshot`]) reads them and whose reader
/// ([`FiatProxy::restore`]) fills a fresh proxy's.
pub struct FiatProxy {
    store: TeeKeystore,
    keys: Paired,
    pub(crate) quic: QuicServer,
    validator: HumannessValidator,
    pub(crate) devices: FastMap<u16, DeviceState>,
    pub(crate) policy: Policy,
    pub(crate) dns: DnsTable,
    pub(crate) started_at: Option<SimTime>,
    pub(crate) bootstrap_buffer: Vec<PacketRecord>,
    pub(crate) rules: Option<RuleTable>,
    pub(crate) server_random_counter: u64,
    pub(crate) quarantine: Quarantine,
    pub(crate) unknown: UnknownDevices,
    pub(crate) degraded: bool,
    /// Packets decided since this proxy was built (not snapshotted):
    /// picks the 1 in [`DECIDE_SAMPLE_EVERY`] that `on_packet` times.
    packets_seen: u64,
}

/// Judge a proof the channel opened: check the payload's signature with
/// the pairing's sign key, parse it in place and validate its humanness
/// features. Nothing here allocates.
fn judge_proof(
    payload: Result<&[u8], fiat_quic::QuicError>,
    store: &TeeKeystore,
    keys: &Paired,
    validator: &mut HumannessValidator,
    t: &ProxyTelemetry,
) -> Result<bool, AuthError> {
    let (msg_bytes, tag) = FiatApp::split_payload(payload.map_err(AuthError::Transport)?)
        .ok_or(AuthError::Malformed)?;
    if !store
        .verify(keys.sign_key, msg_bytes, tag)
        .expect("sealed sign key")
    {
        return Err(AuthError::BadSignature);
    }
    let msg = AuthView::parse(msg_bytes).ok_or(AuthError::Malformed)?;
    let span = Span::enter(&t.stage_humanness, &*t.clock);
    let human = validator.validate_stream(msg.features(), msg.truth);
    span.exit();
    Ok(human)
}

impl FiatProxy {
    /// Build a proxy paired via `ceremony_secret`, using `validator` for
    /// humanness decisions. Telemetry goes to a private wall-clock
    /// registry; use [`FiatProxy::with_telemetry`] to share one.
    pub fn new(
        config: ProxyConfig,
        ceremony_secret: &[u8; 32],
        validator: HumannessValidator,
    ) -> Self {
        Self::with_telemetry(
            config,
            ceremony_secret,
            validator,
            ProxyTelemetry::default(),
        )
    }

    /// Build a proxy reporting into externally supplied telemetry — a
    /// shared [`MetricRegistry`] for exposition alongside other
    /// subsystems, or a simulated clock for deterministic experiments.
    pub fn with_telemetry(
        config: ProxyConfig,
        ceremony_secret: &[u8; 32],
        validator: HumannessValidator,
        telemetry: ProxyTelemetry,
    ) -> Self {
        let store = TeeKeystore::new();
        let (keys, psk) = pair(&store, ceremony_secret);
        let mut quic = QuicServer::new(psk);
        quic.set_telemetry(fiat_quic::ServerTelemetry::registered(&telemetry.registry));
        let mut audit = AuditLog::new();
        audit.set_max_entries(config.max_audit_entries);
        FiatProxy {
            store,
            keys,
            quic,
            validator,
            devices: FastMap::default(),
            policy: Policy {
                config,
                human_valid_until: SimTime::ZERO,
                interactions: None,
                audit,
                stats: ProxyStats::default(),
                telemetry,
                hook: None,
            },
            dns: DnsTable::new(),
            started_at: None,
            bootstrap_buffer: Vec::new(),
            rules: None,
            server_random_counter: 0,
            quarantine: Quarantine::default(),
            unknown: UnknownDevices::default(),
            degraded: false,
            packets_seen: 0,
        }
    }

    /// Install a decision-path observer (see [`ProxyHook`]). Probing is
    /// opt-in: without this call each event's hook call is a single
    /// branch on `None`.
    pub fn set_hook(&mut self, hook: Box<dyn ProxyHook>) {
        self.policy.hook = Some(hook);
    }

    /// Install a behavioral fingerprint gate for unknown-MAC traffic
    /// (see [`FingerprintGate`]). The gate only takes effect when
    /// [`ProxyConfig::fingerprint_unknown`] is also set, so installing
    /// one under the default config changes nothing.
    pub fn set_fingerprinter(&mut self, gate: Box<dyn FingerprintGate>) {
        self.unknown.gate = Some(gate);
    }

    /// Decision counters accumulated since start.
    pub fn stats(&self) -> ProxyStats {
        self.policy.stats
    }

    /// The proxy's telemetry handles (deterministic and timing registries).
    pub fn telemetry(&self) -> &ProxyTelemetry {
        &self.policy.telemetry
    }

    /// Install a device-interaction DAG (§7 "Complex Scenarios"): manual
    /// traffic toward a target device is allowed while one of its
    /// triggers has a recently authorized event.
    pub fn set_interactions(&mut self, graph: InteractionGraph) {
        self.policy.interactions = Some(graph);
    }

    /// Register a device: its classifier and command-completion threshold
    /// N (the first-N allowance is `min(N, classify_at_cap,
    /// FEATURE_PACKETS)`; for N = 1 devices the very first packet is held
    /// for an instant verdict). Returns `false`, leaving the proxy
    /// untouched, if `device` is already registered: its open event,
    /// lockout and quarantined packets stay with the registration they
    /// belong to.
    pub fn register_device(
        &mut self,
        device: u16,
        classifier: EventClassifier,
        min_packets_to_complete: usize,
    ) -> bool {
        if self.devices.contains_key(&device) {
            return false;
        }
        let classify_at = min_packets_to_complete.clamp(1, self.policy.config.max_classify_at());
        let rec = DeviceSnapshot {
            device,
            classify_at,
            open: None,
            drops: Vec::new(),
            locked: false,
            quarantine: None,
        };
        self.devices.insert(device, DeviceState { classifier, rec });
        self.policy.telemetry.shift(|t| t.devices_gauge, 1);
        true
    }

    /// Provide DNS knowledge (the proxy observes DNS responses on-path).
    pub fn set_dns(&mut self, dns: DnsTable) {
        self.dns = dns;
    }

    /// Begin operation: bootstrap runs until `now + config.bootstrap`.
    pub fn start(&mut self, now: SimTime) {
        self.started_at = Some(now);
    }

    /// Learned rule count (0 until bootstrap completes).
    pub fn rule_count(&self) -> usize {
        self.rules.as_ref().map_or(0, |r| r.len())
    }

    /// The audit log.
    pub fn audit(&self) -> &AuditLog {
        &self.policy.audit
    }

    /// Sample the entry count of every growable state surface — the
    /// long-horizon soak's accountant calls this on a simulated-time
    /// cadence and asserts [`StateSize::total`] against a hard budget.
    pub fn state_size(&self) -> StateSize {
        let mut size = StateSize {
            rules: self.rules.as_ref().map_or(0, |r| r.len()),
            rule_ghosts: self.rules.as_ref().map_or(0, |r| r.ghost_len()),
            audit_entries: self.policy.audit.entries().len(),
            replay_tickets: self.quic.replay_store().tickets(),
            replay_entries: self.quic.replay_store().total_entries(),
            replay_epochs: self.quic.replay_store().live_epochs().len(),
            bootstrap_buffered: self.bootstrap_buffer.len(),
            released_pending: self.quarantine.released.len(),
            fingerprint_evidence: self.unknown.gate.as_ref().map_or(0, |g| g.state_size()),
            ..StateSize::default()
        };
        for dev in self.devices.values() {
            if let Some(open) = &dev.rec.open {
                size.open_events += 1;
                size.open_packets += open.packets.len();
            }
            if let Some(q) = &dev.rec.quarantine {
                size.quarantine_records += 1;
                size.quarantine_held += q.packets.len();
            }
        }
        size
    }

    /// Whether a device is locked out.
    pub fn is_locked(&self, device: u16) -> bool {
        self.devices.get(&device).is_some_and(|d| d.rec.locked)
    }

    /// Manually clear a lockout (the §5.4 user verification). Also closes
    /// the device's open event: its fate was `DropRest`, and leaving it
    /// open would keep dropping traffic as `ManualUnverified` until the
    /// event gap expires — the user just vouched for the device.
    ///
    /// A pending quarantine record is deliberately *not* touched: the
    /// user vouched for the device being safe to re-enable, not for the
    /// specific held command, which still needs its proof (or expires at
    /// its deadline as usual).
    pub fn clear_lockout(&mut self, device: u16) {
        if let Some(d) = self.devices.get_mut(&device).map(|d| &mut d.rec) {
            if d.locked {
                self.policy.emit(ProxyEvent::LockoutCleared { device });
            }
            d.locked = false;
            d.drops.clear();
            if d.open.take().is_some() {
                self.policy.telemetry.shift(|t| t.open_events_gauge, -1);
            }
        }
    }

    /// Enter or leave control-plane degraded mode. While degraded the
    /// proxy keeps deciding against its last-known-good key epochs
    /// (rotation and retirement are the control plane's job, so the
    /// epoch window simply freezes), but every decision is flagged in
    /// telemetry and the transition itself is committed to the audit
    /// chain under the [`AUDIT_PROXY_DEVICE`] sentinel. Idempotent:
    /// repeating the current state records nothing.
    pub fn set_degraded(&mut self, now: SimTime, degraded: bool) {
        if self.degraded == degraded {
            return;
        }
        self.degraded = degraded;
        let verdict = if degraded {
            self.policy.telemetry.shift(|t| t.degraded_gauge, 1);
            AuditVerdict::DegradedModeEntered
        } else {
            self.policy.telemetry.shift(|t| t.degraded_gauge, -1);
            AuditVerdict::DegradedModeExited
        };
        // The transition is proxy-wide; Control is the neutral class for
        // non-event audit entries.
        self.policy
            .record(now, AUDIT_PROXY_DEVICE, EventClass::Control, verdict);
    }

    /// Whether the proxy is in control-plane degraded mode.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Epoch new session tickets are issued under.
    pub fn ticket_epoch(&self) -> u32 {
        self.quic.current_epoch()
    }

    /// Oldest ticket epoch still accepted for 0-RTT.
    pub fn oldest_live_epoch(&self) -> u32 {
        self.quic.oldest_live_epoch()
    }

    /// Rotate to a fresh ticket epoch (a control-plane action). Old
    /// epochs keep working until retired, so rotation alone never
    /// breaks a client's 0-RTT.
    pub fn rotate_ticket_epoch(&mut self) -> u32 {
        self.quic.rotate_epoch()
    }

    /// Retire ticket epochs below `min_live`, dropping their replay
    /// state wholesale (bounded memory). A 0-RTT proof under a retired
    /// epoch is answered `RetiredEpoch`, which the app treats as
    /// fall-back-to-1-RTT. Returns how many epochs were newly retired.
    pub fn retire_ticket_epochs_below(&mut self, min_live: u32) -> u32 {
        self.quic.retire_epochs_below(min_live)
    }

    /// Accept the app's handshake and issue a ticket.
    pub fn accept_handshake(&mut self, hello: &ClientHello) -> ServerHello {
        self.server_random_counter += 1;
        let mut random = [0u8; 32];
        random[..8].copy_from_slice(&self.server_random_counter.to_be_bytes());
        self.quic.accept(hello, random)
    }

    /// Process a 0-RTT auth message; returns `Ok(true)` if humanness was
    /// verified (and the validity window refreshed).
    pub fn on_auth_zero_rtt(
        &mut self,
        pkt: &ZeroRttPacket,
        now: SimTime,
    ) -> Result<bool, AuthError> {
        self.authenticate(|quic| quic.accept_zero_rtt(pkt), now)
    }

    /// Process a 1-RTT auth message.
    pub fn on_auth_one_rtt(
        &mut self,
        pkt: &fiat_quic::Packet,
        now: SimTime,
    ) -> Result<bool, AuthError> {
        self.authenticate(|quic| quic.open(pkt), now)
    }

    /// Open a proof with `open`, then check its signature and validate
    /// its humanness features in place. Every failure, transport or
    /// payload, counts once as an auth error.
    fn authenticate(
        &mut self,
        open: impl FnOnce(&mut QuicServer) -> Result<&[u8], fiat_quic::QuicError>,
        now: SimTime,
    ) -> Result<bool, AuthError> {
        let human = judge_proof(
            open(&mut self.quic),
            &self.store,
            &self.keys,
            &mut self.validator,
            &self.policy.telemetry,
        )
        .inspect_err(|_| self.policy.telemetry.inc(|t| t.auth_errors))?;
        if human {
            self.policy.human_valid_until = now + self.policy.config.human_valid_window;
            if self.policy.config.proof_deadline.is_some() {
                self.quarantine
                    .resolve(&mut self.policy, &mut self.devices, now);
            }
        }
        self.policy.emit(ProxyEvent::Proof {
            ts: now,
            verified: human,
        });
        Ok(human)
    }

    /// Drain packets released from quarantine since the last call, in
    /// release order. The caller (the interception layer) forwards them:
    /// a released command reaches the device late, but reaches it.
    pub fn take_quarantine_releases(&mut self) -> Vec<PacketRecord> {
        std::mem::take(&mut self.quarantine.released)
    }

    /// Whether a humanness proof is currently fresh.
    pub fn human_fresh(&self, now: SimTime) -> bool {
        now <= self.policy.human_valid_until
    }

    /// Decide one intercepted packet (timestamped by its `ts`).
    pub fn on_packet(&mut self, pkt: &PacketRecord) -> ProxyDecision {
        let sampled = self.packets_seen.is_multiple_of(DECIDE_SAMPLE_EVERY);
        self.packets_seen += 1;
        let started = sampled.then(|| self.policy.telemetry.clock.now_nanos());
        let d = self.decide(pkt);
        if let Some(started) = started {
            let t = &self.policy.telemetry;
            t.decide_sampled
                .record(t.clock.now_nanos().saturating_sub(started));
        }
        if self.degraded {
            self.policy.telemetry.inc(|t| t.degraded_decisions);
        }
        self.policy.emit(ProxyEvent::Decided {
            ts: pkt.ts,
            device: pkt.device,
            decision: d,
        });
        d
    }

    fn decide(&mut self, pkt: &PacketRecord) -> ProxyDecision {
        let now = pkt.ts;
        let started = self.started_at.expect("proxy not started");

        if self.devices.get(&pkt.device).is_some_and(|d| d.rec.locked) {
            return ProxyDecision::Drop(DropReason::LockedOut);
        }

        // Bootstrap: allow and learn.
        if now - started < self.policy.config.bootstrap {
            self.bootstrap_buffer.push(pkt.clone());
            return ProxyDecision::Allow(AllowReason::Bootstrap);
        }
        if self.rules.is_none() {
            let t = &self.policy.telemetry;
            let span = Span::enter(&t.stage_rule_learn, &*t.clock);
            let engine = PredictabilityEngine::new(self.policy.config.flow_def)
                .with_tolerance(self.policy.config.tolerance);
            let mut rules = RuleTable::learn_instrumented(
                &engine,
                &self.bootstrap_buffer,
                &self.dns,
                RuleTelemetry::registered(&self.policy.telemetry.registry),
            );
            rules.set_capacity(self.policy.config.max_rules);
            span.exit();
            self.policy
                .telemetry
                .shift(|t| t.rules_gauge, rules.len() as i64);
            self.rules = Some(rules);
            self.bootstrap_buffer.clear();
            self.bootstrap_buffer.shrink_to_fit();
        }

        // Rule hit: predictable. The touch variant refreshes the rule's
        // LRU stamp (bounded mode evicts least-recently-matched) and
        // advances the ghost re-learn path on misses of evicted keys.
        let hit = self.rules.as_mut().expect("rules learned").matches_touch(
            self.policy.config.flow_def,
            pkt,
            &self.dns,
        );
        if hit {
            return ProxyDecision::Allow(AllowReason::RuleHit);
        }

        // Unpredictable: event path.
        let Some(dev) = self.devices.get_mut(&pkt.device) else {
            return self.unknown.decide(&mut self.policy, pkt, &self.dns);
        };

        // Lazily expire this device's quarantine before anything else
        // observes `now`: the packet that reveals the deadline has passed
        // must see the post-expiry world (sealed fate, lockout credit),
        // exactly as if a timer had fired at the deadline.
        if Quarantine::expire_overdue(&mut self.policy, dev, now) && dev.rec.locked {
            return ProxyDecision::Drop(DropReason::LockedOut);
        }

        self.policy.close_stale(dev, now);
        // A retrospective verdict on the closed event may have locked
        // the device; the packet that exposed it must not open a fresh
        // event.
        if dev.rec.locked {
            return ProxyDecision::Drop(DropReason::LockedOut);
        }
        if dev.rec.open.is_none() {
            self.policy.telemetry.shift(|t| t.open_events_gauge, 1);
        }
        let open = dev.rec.open.get_or_insert_with(|| OpenEvent {
            packets: EventPackets::new(),
            last: now,
            fate: None,
        });
        // Record the packet only while the verdict is pending: packets
        // are read exactly at the classification point (or at a retro
        // close, both fate-`None` paths), so accumulating them after the
        // fate is sealed was pure unbounded growth — a single long-lived
        // chatty event would hold every packet it ever sent (and a
        // quarantined one stored each held packet twice). Found by the
        // long-horizon soak's state accountant.
        if open.fate.is_none() {
            open.packets.push(pkt);
        }
        // High-water mark, mirroring `events::group_events`: a backwards
        // (reordered) packet joins the open event — its saturating gap is
        // zero — but must not rewind `last`, or the next in-order packet
        // measures an inflated gap and spuriously closes the event.
        open.last = open.last.max(now);

        if let Some(fate) = open.fate {
            return match fate {
                EventFate::AllowRest(reason) => ProxyDecision::Allow(reason),
                EventFate::DropRest(reason) => ProxyDecision::Drop(reason),
                EventFate::Quarantine => {
                    Quarantine::hold(&mut self.policy, dev.rec.quarantine.as_mut(), pkt)
                }
            };
        }

        if open.packets.len() < dev.rec.classify_at {
            return ProxyDecision::Allow(AllowReason::FirstN);
        }

        // Classification point reached.
        let t = &self.policy.telemetry;
        let span = Span::enter(&t.stage_classification, &*t.clock);
        let class = dev.classifier.classify_packets(open.packets.iter());
        span.exit();
        if let Some(reason) = self.policy.verdict(pkt.device, class, now) {
            open.fate = Some(EventFate::AllowRest(reason));
            self.policy.allow(pkt.device, class, reason, now);
            return ProxyDecision::Allow(reason);
        }

        // Unverified manual event. With quarantine enabled the proof may
        // merely be late (lost frame, retry in flight): hold the event
        // pending its deadline instead of demoting it.
        if let Some(held) = Quarantine::admit(&mut self.policy, &mut self.devices, pkt, class) {
            return held;
        }

        // Drop the rest of the event and count it toward lockout.
        let dev = self.devices.get_mut(&pkt.device).expect("registered above");
        let open = dev.rec.open.as_mut().expect("opened above");
        open.fate = Some(EventFate::DropRest(DropReason::ManualUnverified));
        let verdict = self.policy.unverified_episode(dev, now);
        self.policy.record(now, pkt.device, class, verdict);
        ProxyDecision::Drop(DropReason::ManualUnverified)
    }

    /// Close every open event whose gap has expired by `now`, applying
    /// the same retrospective classification as the packet path. Call at
    /// the end of a capture so trailing sub-window events still reach
    /// the audit log and the lockout counter.
    pub fn flush(&mut self, now: SimTime) {
        let mut devices: Vec<&mut DeviceState> = self.devices.values_mut().collect();
        devices.sort_unstable_by_key(|d| d.rec.device);
        for dev in devices {
            // Expire overdue quarantines first, for the same reason the
            // packet path does: the expiry (and any lockout it causes)
            // happened at the deadline, before this flush.
            Quarantine::expire_overdue(&mut self.policy, dev, now);
            self.policy.close_stale(dev, now);
        }
    }
}

impl Policy {
    /// Emit one policy event: fold it into the stats and telemetry, then
    /// hand it to the hook. The only reader of `hook`.
    fn emit(&mut self, ev: ProxyEvent) {
        self.stats.note(&ev);
        self.telemetry.note(&ev);
        if let Some(h) = &self.hook {
            h.on_event(&ev);
        }
    }

    /// Append one entry to the audit chain — the proxy's only writer.
    fn record(&mut self, ts: SimTime, device: u16, class: EventClass, verdict: AuditVerdict) {
        self.audit.append(AuditEntry {
            ts,
            device,
            class,
            verdict,
        });
    }

    /// The verdict ladder of a classified event at `at`: non-manual, a
    /// fresh humanness proof, an interaction-graph cascade (Alexa ->
    /// light) vouching for the device, or `None` — unverified manual.
    /// The live classification point and the retrospective close both
    /// climb it.
    fn verdict(&self, device: u16, class: EventClass, at: SimTime) -> Option<AllowReason> {
        if !class.is_manual() {
            Some(AllowReason::NonManual)
        } else if at <= self.human_valid_until {
            Some(AllowReason::ManualVerified)
        } else if self
            .interactions
            .as_ref()
            .is_some_and(|g| g.cascade_covers(device, at))
        {
            Some(AllowReason::Cascade)
        } else {
            None
        }
    }

    /// Commit a live allow verdict at `at`: an authorized manual command
    /// lets the device vouch for its cascade targets, and every verdict
    /// is audited.
    fn allow(&mut self, device: u16, class: EventClass, reason: AllowReason, at: SimTime) {
        if reason != AllowReason::NonManual {
            if let Some(g) = &mut self.interactions {
                g.record_authorized(device, at);
            }
        }
        let verdict = match reason {
            AllowReason::NonManual => AuditVerdict::AllowedNonManual,
            AllowReason::Cascade => AuditVerdict::AllowedCascade,
            AllowReason::QuarantineReleased => AuditVerdict::QuarantineReleased,
            _ => AuditVerdict::AllowedManualVerified,
        };
        self.record(at, device, class, verdict);
    }

    /// Credit an unverified-manual episode at `at` to the device's
    /// sliding lockout window, lock the device on the edge past the
    /// tolerance, and return the verdict the episode is audited under.
    ///
    /// Episode times are clamped to a monotone high-water mark — with
    /// reordered packets (or a retro closure of an old event) `at` can
    /// precede the newest recorded episode, and a non-monotone deque
    /// would break the front-pruning: `SimTime` subtraction saturates,
    /// so an old `at` reads every gap as zero and stale episodes would
    /// never expire.
    fn unverified_episode(&mut self, dev: &mut DeviceState, at: SimTime) -> AuditVerdict {
        let dev = &mut dev.rec;
        let at = dev.drops.last().map_or(at, |&newest| newest.max(at));
        dev.drops.push(at);
        let window = self.config.lockout_window;
        let stale = dev.drops.partition_point(|&t| at - t > window);
        dev.drops.drain(..stale);
        if dev.drops.len() as u32 <= self.config.lockout_threshold {
            return AuditVerdict::DroppedUnverified;
        }
        if !dev.locked {
            dev.locked = true;
            let device = dev.device;
            self.emit(ProxyEvent::Lockout { ts: at, device });
        }
        AuditVerdict::LockedOut
    }

    /// Close the device's open event if the event gap has passed by
    /// `now`. An event that closed before its classification point never
    /// met the classifier and gets its retrospective verdict.
    fn close_stale(&mut self, dev: &mut DeviceState, now: SimTime) {
        let gap = self.config.event_gap;
        let Some(stale) = dev.rec.open.take_if(|e| now - e.last >= gap) else {
            return;
        };
        self.telemetry.shift(|t| t.open_events_gauge, -1);
        if stale.fate.is_none() {
            self.retro_close(dev, stale);
        }
    }

    /// Retrospective verdict for an event that closed before reaching
    /// its classification point. The packets already left the proxy, so
    /// an unverified manual outcome cannot drop anything — but it is
    /// audited at the event's end time and counts toward the brute-force
    /// lockout, which is what defeats fragment-and-pause evasion.
    /// Verified and cascade outcomes are both audited
    /// `AllowedManualVerified` and deliberately do not refresh the
    /// interaction graph: the event is already over.
    fn retro_close(&mut self, dev: &mut DeviceState, event: OpenEvent) {
        let device = dev.rec.device;
        let end = event.last;
        let class = dev.classifier.classify_packets(event.packets.iter());
        let verdict = match self.verdict(device, class, end) {
            Some(AllowReason::NonManual) => AuditVerdict::AllowedNonManual,
            Some(_) => AuditVerdict::AllowedManualVerified,
            None => {
                self.telemetry.inc(|t| t.retro_unverified);
                self.stats.retro_unverified += 1;
                self.unverified_episode(dev, end)
            }
        };
        self.record(end, device, class, verdict);
    }
}

/// Errors from the auth-message path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuthError {
    /// QUIC-level failure (replay, unknown ticket, decrypt).
    Transport(fiat_quic::QuicError),
    /// Payload failed HMAC verification (unauthorized device, §5.4).
    BadSignature,
    /// Payload did not parse.
    Malformed,
}

impl std::fmt::Display for AuthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuthError::Transport(e) => write!(f, "transport: {e}"),
            AuthError::BadSignature => write!(f, "signature verification failed"),
            AuthError::Malformed => write!(f, "malformed auth message"),
        }
    }
}

impl std::error::Error for AuthError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::UnpredictableEvent;
    use crate::snapshot::{QuarantineRecord, SnapshotError};
    use fiat_net::{Direction, TcpFlags, TlsVersion, TrafficClass, Transport};
    use fiat_sensors::{ImuTrace, MotionKind};
    use std::net::Ipv4Addr;

    const SECRET: [u8; 32] = [0x77; 32];

    fn pkt(ts_ms: u64, size: u16) -> PacketRecord {
        PacketRecord {
            ts: SimTime::from_millis(ts_ms),
            device: 0,
            direction: Direction::ToDevice,
            local_ip: Ipv4Addr::new(192, 168, 1, 10),
            remote_ip: Ipv4Addr::new(34, 0, 0, 1),
            local_port: 5000,
            remote_port: 443,
            transport: Transport::Tcp,
            tcp_flags: TcpFlags::psh_ack(),
            tls: TlsVersion::Tls12,
            size,
            label: TrafficClass::Control,
        }
    }

    fn proxy_with_plug() -> FiatProxy {
        let validator = HumannessValidator::with_operating_point(1.0, 1.0, 0);
        let mut proxy = FiatProxy::new(ProxyConfig::default(), &SECRET, validator);
        // Plug: simple rule on size 235, N = 1 (decide on first packet).
        proxy.register_device(0, EventClassifier::simple_rule(235), 1);
        proxy.start(SimTime::ZERO);
        proxy
    }

    /// Run the proxy through bootstrap with a periodic 100 B flow.
    fn bootstrap(proxy: &mut FiatProxy) -> u64 {
        // 100 B packets every 10 s for 20 min.
        let mut t = 0;
        while t < 20 * 60 * 1000 {
            assert_eq!(
                proxy.on_packet(&pkt(t, 100)),
                ProxyDecision::Allow(AllowReason::Bootstrap)
            );
            t += 10_000;
        }
        t
    }

    #[test]
    fn bootstrap_learns_rules_then_enforces() {
        let mut proxy = proxy_with_plug();
        let t = bootstrap(&mut proxy);
        // Post-bootstrap: the periodic flow hits the learned rule.
        assert_eq!(
            proxy.on_packet(&pkt(t, 100)),
            ProxyDecision::Allow(AllowReason::RuleHit)
        );
        assert!(proxy.rule_count() >= 1);
        // A never-seen size misses and enters the event path.
        let d = proxy.on_packet(&pkt(t + 1000, 999));
        assert!(matches!(d, ProxyDecision::Allow(AllowReason::NonManual)));
    }

    #[test]
    fn manual_command_without_human_dropped() {
        let mut proxy = proxy_with_plug();
        let t = bootstrap(&mut proxy);
        // A 235 B command packet: classified manual at packet 1, no human.
        assert_eq!(
            proxy.on_packet(&pkt(t, 235)),
            ProxyDecision::Drop(DropReason::ManualUnverified)
        );
        // The event's second packet also drops.
        assert_eq!(
            proxy.on_packet(&pkt(t + 100, 235)),
            ProxyDecision::Drop(DropReason::ManualUnverified)
        );
        assert_eq!(proxy.audit().len(), 1);
        assert_eq!(
            proxy.audit().entries()[0].verdict,
            AuditVerdict::DroppedUnverified
        );
    }

    #[test]
    fn manual_command_with_human_allowed() {
        let mut proxy = proxy_with_plug();
        let t = bootstrap(&mut proxy);

        // The phone sends valid evidence first (0-RTT after handshake).
        let mut app = FiatApp::new(&SECRET, 1);
        let ch = app.handshake_request();
        let sh = proxy.accept_handshake(&ch);
        app.complete_handshake(&sh).unwrap();
        let imu = ImuTrace::synthesize(MotionKind::HumanTouch, 500, 3);
        let z = app
            .authorize_zero_rtt("com.smartplug.app", &imu, MotionKind::HumanTouch, t)
            .unwrap();
        assert_eq!(
            proxy.on_auth_zero_rtt(&z, SimTime::from_millis(t)),
            Ok(true)
        );

        // The command arrives moments later: allowed.
        assert_eq!(
            proxy.on_packet(&pkt(t + 500, 235)),
            ProxyDecision::Allow(AllowReason::ManualVerified)
        );
        assert_eq!(
            proxy.audit().entries()[0].verdict,
            AuditVerdict::AllowedManualVerified
        );
    }

    #[test]
    fn humanness_proof_expires() {
        let mut proxy = proxy_with_plug();
        let t = bootstrap(&mut proxy);
        let mut app = FiatApp::new(&SECRET, 1);
        let ch = app.handshake_request();
        let sh = proxy.accept_handshake(&ch);
        app.complete_handshake(&sh).unwrap();
        let imu = ImuTrace::synthesize(MotionKind::HumanTouch, 500, 3);
        let z = app
            .authorize_zero_rtt("app", &imu, MotionKind::HumanTouch, t)
            .unwrap();
        proxy.on_auth_zero_rtt(&z, SimTime::from_millis(t)).unwrap();
        // 31 s later (window is 30 s) the command is no longer covered.
        assert_eq!(
            proxy.on_packet(&pkt(t + 31_000, 235)),
            ProxyDecision::Drop(DropReason::ManualUnverified)
        );
    }

    #[test]
    fn attacker_touch_evidence_rejected() {
        // Software-injected command with a resting phone: the evidence
        // fails humanness, so the command drops.
        let mut proxy = proxy_with_plug();
        let t = bootstrap(&mut proxy);
        let mut app = FiatApp::new(&SECRET, 1);
        let ch = app.handshake_request();
        let sh = proxy.accept_handshake(&ch);
        app.complete_handshake(&sh).unwrap();
        let imu = ImuTrace::synthesize(MotionKind::Resting, 500, 3);
        let z = app
            .authorize_zero_rtt("app", &imu, MotionKind::Resting, t)
            .unwrap();
        assert_eq!(
            proxy.on_auth_zero_rtt(&z, SimTime::from_millis(t)),
            Ok(false)
        );
        assert_eq!(
            proxy.on_packet(&pkt(t + 100, 235)),
            ProxyDecision::Drop(DropReason::ManualUnverified)
        );
    }

    #[test]
    fn unauthorized_device_evidence_rejected() {
        // An app paired with a *different* secret cannot validate: the
        // QUIC layer itself refuses (different PSK).
        let mut proxy = proxy_with_plug();
        bootstrap(&mut proxy);
        let mut evil = FiatApp::new(&[0x66; 32], 1);
        let ch = evil.handshake_request();
        let sh = proxy.accept_handshake(&ch);
        // Handshake "completes" locally but keys mismatch.
        evil.complete_handshake(&sh).unwrap();
        let imu = ImuTrace::synthesize(MotionKind::HumanTouch, 500, 3);
        let z = evil
            .authorize_zero_rtt("app", &imu, MotionKind::HumanTouch, 0)
            .unwrap();
        assert!(matches!(
            proxy.on_auth_zero_rtt(&z, SimTime::from_secs(1300)),
            Err(AuthError::Transport(_))
        ));
    }

    #[test]
    fn replayed_evidence_rejected() {
        let mut proxy = proxy_with_plug();
        let t = bootstrap(&mut proxy);
        let mut app = FiatApp::new(&SECRET, 1);
        let ch = app.handshake_request();
        let sh = proxy.accept_handshake(&ch);
        app.complete_handshake(&sh).unwrap();
        let imu = ImuTrace::synthesize(MotionKind::HumanTouch, 500, 3);
        let z = app
            .authorize_zero_rtt("app", &imu, MotionKind::HumanTouch, t)
            .unwrap();
        assert_eq!(
            proxy.on_auth_zero_rtt(&z, SimTime::from_millis(t)),
            Ok(true)
        );
        // A LAN attacker who captured the packet replays it later.
        assert!(matches!(
            proxy.on_auth_zero_rtt(&z, SimTime::from_millis(t + 60_000)),
            Err(AuthError::Transport(fiat_quic::QuicError::Replayed))
        ));
    }

    #[test]
    fn truncated_or_flipped_proofs_fail_cleanly() {
        let mut proxy = proxy_with_plug();
        let mut app = FiatApp::new(&SECRET, 1);
        let ch = app.handshake_request();
        let sh = proxy.accept_handshake(&ch);
        app.complete_handshake(&sh).unwrap();
        let imu = ImuTrace::synthesize(MotionKind::HumanTouch, 500, 3);
        let z = app
            .authorize_zero_rtt("com.smartplug.app", &imu, MotionKind::HumanTouch, 0)
            .unwrap();
        let at = SimTime::from_secs(1);
        let mut forged = Vec::new();
        for len in 0..z.ciphertext.len() {
            let mut cut = z.clone();
            cut.ciphertext.truncate(len);
            forged.push(cut);
        }
        for bit in 0..z.ciphertext.len() * 8 {
            let mut flipped = z.clone();
            flipped.ciphertext[bit / 8] ^= 1 << (bit % 8);
            forged.push(flipped);
        }
        for bit in 0..64 {
            let mut flipped = z.clone();
            flipped.nonce ^= 1 << bit;
            forged.push(flipped.clone());
            flipped.nonce = z.nonce;
            flipped.ticket.id ^= 1 << bit;
            forged.push(flipped);
        }
        for bit in 0..32 {
            let mut flipped = z.clone();
            flipped.ticket.epoch ^= 1 << bit;
            forged.push(flipped);
        }
        for f in &forged {
            assert!(
                matches!(proxy.on_auth_zero_rtt(f, at), Err(AuthError::Transport(_))),
                "{f:?}"
            );
        }
        // The same over 1-RTT, where the packet number is the nonce.
        let p = app
            .authorize_one_rtt("com.smartplug.app", &imu, MotionKind::HumanTouch, 0)
            .unwrap();
        for len in 0..p.ciphertext.len() {
            let mut cut = p.clone();
            cut.ciphertext.truncate(len);
            assert!(proxy.on_auth_one_rtt(&cut, at).is_err(), "prefix {len}");
        }
        for bit in 0..p.ciphertext.len() * 8 {
            let mut flipped = p.clone();
            flipped.ciphertext[bit / 8] ^= 1 << (bit % 8);
            assert!(proxy.on_auth_one_rtt(&flipped, at).is_err(), "bit {bit}");
        }
        for bit in 0..64 {
            let mut flipped = p.clone();
            flipped.number ^= 1 << bit;
            assert!(
                proxy.on_auth_one_rtt(&flipped, at).is_err(),
                "number bit {bit}"
            );
        }
        // None of them granted a proof, burned the genuine 0-RTT packet's
        // nonce or moved the 1-RTT packet number past the genuine one.
        assert!(!proxy.human_fresh(at));
        assert_eq!(proxy.on_auth_zero_rtt(&z, at), Ok(true));
        assert_eq!(proxy.on_auth_one_rtt(&p, at), Ok(true));
    }

    #[test]
    fn brute_force_triggers_lockout() {
        let mut proxy = proxy_with_plug();
        let t = bootstrap(&mut proxy);
        // Threshold 3 tolerates three unverified manual events within
        // 60 s; the fourth locks the device.
        for k in 0..4u64 {
            let d = proxy.on_packet(&pkt(t + k * 10_000, 235));
            assert_eq!(d, ProxyDecision::Drop(DropReason::ManualUnverified));
        }
        assert!(proxy.is_locked(0));
        // Everything on the device now drops, even predictable traffic.
        assert_eq!(
            proxy.on_packet(&pkt(t + 40_000, 100)),
            ProxyDecision::Drop(DropReason::LockedOut)
        );
        // Manual clearing restores service.
        proxy.clear_lockout(0);
        assert_eq!(
            proxy.on_packet(&pkt(t + 50_000, 100)),
            ProxyDecision::Allow(AllowReason::RuleHit)
        );
    }

    #[test]
    fn spaced_drops_do_not_lock() {
        let mut proxy = proxy_with_plug();
        let t = bootstrap(&mut proxy);
        // Three drops spread over 5 minutes (outside the 60 s window):
        // each event needs a fresh gap (>= 5 s) to be a new event.
        for k in 0..3u64 {
            proxy.on_packet(&pkt(t + k * 120_000, 235));
        }
        assert!(!proxy.is_locked(0));
    }

    #[test]
    fn lockout_boundary_exactly_at_threshold_tolerated() {
        // Regression for the tolerance semantics: with threshold 3,
        // exactly three unverified episodes within the window must NOT
        // lock; the fourth must. The episode counter increments once
        // per lockout, not once per dropped packet.
        let mut proxy = proxy_with_plug();
        let t = bootstrap(&mut proxy);
        for k in 0..3u64 {
            assert_eq!(
                proxy.on_packet(&pkt(t + k * 10_000, 235)),
                ProxyDecision::Drop(DropReason::ManualUnverified)
            );
        }
        assert!(!proxy.is_locked(0), "exactly-at-threshold must not lock");
        assert_eq!(proxy.telemetry().lockout_count(), 0);

        // One more unverified event crosses the tolerance.
        proxy.on_packet(&pkt(t + 30_000, 235));
        assert!(proxy.is_locked(0));
        assert_eq!(proxy.telemetry().lockout_count(), 1);

        // Packets dropped while locked do not start new episodes.
        for k in 0..5u64 {
            assert_eq!(
                proxy.on_packet(&pkt(t + 31_000 + k * 100, 100)),
                ProxyDecision::Drop(DropReason::LockedOut)
            );
        }
        assert_eq!(proxy.telemetry().lockout_count(), 1);

        // After an operator clears it, a fresh run of four unverified
        // events is a second episode — the counter reaches exactly 2.
        proxy.clear_lockout(0);
        for k in 0..4u64 {
            proxy.on_packet(&pkt(t + 40_000 + k * 10_000, 235));
        }
        assert!(proxy.is_locked(0));
        assert_eq!(proxy.telemetry().lockout_count(), 2);
        assert!(proxy.audit().verify());
    }

    #[test]
    fn gap_fragments_are_classified_retrospectively() {
        // Gap evasion: a command split into fragments shorter than the
        // classify point, separated by > 5 s of silence, rides the
        // first-N allowance packet by packet. Retrospective
        // classification audits each fragment when it closes and counts
        // it toward the lockout, so the fourth closure locks the device
        // and the fifth fragment is dead on arrival.
        let validator = HumannessValidator::with_operating_point(1.0, 1.0, 0);
        let mut proxy = FiatProxy::new(ProxyConfig::default(), &SECRET, validator);
        proxy.register_device(0, EventClassifier::simple_rule(235), 5);
        proxy.start(SimTime::ZERO);
        let t = bootstrap(&mut proxy);

        let frag_spacing = 6_000u64; // > 5 s event gap -> new event
        for frag in 0..4u64 {
            for j in 0..4u64 {
                // 4 packets per fragment: below classify_at = 5.
                let d = proxy.on_packet(&pkt(t + frag * frag_spacing + j * 50, 235));
                assert_eq!(
                    d,
                    ProxyDecision::Allow(AllowReason::FirstN),
                    "frag {frag} pkt {j}"
                );
            }
        }
        // Fragments 0..2 closed retrospectively (3 episodes: tolerated).
        assert!(!proxy.is_locked(0));
        // The next packet closes fragment 3 -> 4th unverified episode
        // -> lockout; the packet itself must not open a fresh event.
        assert_eq!(
            proxy.on_packet(&pkt(t + 4 * frag_spacing, 235)),
            ProxyDecision::Drop(DropReason::LockedOut)
        );
        assert!(proxy.is_locked(0));
        assert_eq!(proxy.stats().retro_unverified, 4);
        assert_eq!(proxy.telemetry().lockout_count(), 1);
        // Every retro episode reached the audit log, chain intact.
        assert_eq!(proxy.audit().len(), 4);
        assert!(proxy.audit().verify());
    }

    #[test]
    fn flush_closes_trailing_events_retrospectively() {
        // A trailing fragment with no follow-up traffic is only seen by
        // `flush`, which must classify it like a stale-close would.
        let validator = HumannessValidator::with_operating_point(1.0, 1.0, 0);
        let mut proxy = FiatProxy::new(ProxyConfig::default(), &SECRET, validator);
        proxy.register_device(0, EventClassifier::simple_rule(235), 5);
        proxy.start(SimTime::ZERO);
        let t = bootstrap(&mut proxy);

        for j in 0..3u64 {
            proxy.on_packet(&pkt(t + j * 50, 235));
        }
        assert_eq!(proxy.audit().len(), 0);
        proxy.flush(SimTime::from_millis(t + 60_000));
        assert_eq!(proxy.stats().retro_unverified, 1);
        assert_eq!(proxy.audit().len(), 1);
        assert_eq!(
            proxy.audit().entries()[0].verdict,
            AuditVerdict::DroppedUnverified
        );
        // Non-manual trailing events are audited as allowed, not drops.
        proxy.clear_lockout(0);
        for j in 0..3u64 {
            proxy.on_packet(&pkt(t + 120_000 + j * 50, 999));
        }
        proxy.flush(SimTime::from_millis(t + 180_000));
        assert_eq!(proxy.stats().retro_unverified, 1);
        assert_eq!(
            proxy.audit().entries()[1].verdict,
            AuditVerdict::AllowedNonManual
        );
        assert!(proxy.audit().verify());
    }

    #[test]
    fn first_n_allowance_for_complex_device() {
        // An ML device with classify point 5: four packets pass before
        // the verdict.
        let validator = HumannessValidator::with_operating_point(1.0, 1.0, 0);
        let mut proxy = FiatProxy::new(ProxyConfig::default(), &SECRET, validator);
        // Train a BernoulliNB on a toy dataset where events like ours are
        // manual.
        let (packets, events) = toy_training();
        let data = crate::classifier::event_dataset(&events, &packets);
        proxy.register_device(0, EventClassifier::train_bernoulli(&data), 41);
        proxy.start(SimTime::ZERO);
        let t = bootstrap(&mut proxy);

        for k in 0..4u64 {
            assert_eq!(
                proxy.on_packet(&pkt(t + k * 100, 900)),
                ProxyDecision::Allow(AllowReason::FirstN),
                "packet {k}"
            );
        }
        // Fifth packet: classification fires (manual, no human -> drop).
        assert_eq!(
            proxy.on_packet(&pkt(t + 400, 900)),
            ProxyDecision::Drop(DropReason::ManualUnverified)
        );
    }

    /// Toy training data: 900 B TLS bursts are manual, 150 B no-TLS are
    /// control.
    fn toy_training() -> (Vec<PacketRecord>, Vec<UnpredictableEvent>) {
        let mut packets = Vec::new();
        let mut events = Vec::new();
        let mut t = 0u64;
        for k in 0..40 {
            let manual = k % 2 == 0;
            let start = packets.len();
            for j in 0..5 {
                let mut p = pkt(t + j * 100, if manual { 900 } else { 150 });
                p.tls = if manual {
                    TlsVersion::Tls12
                } else {
                    TlsVersion::None
                };
                p.label = if manual {
                    TrafficClass::Manual
                } else {
                    TrafficClass::Control
                };
                packets.push(p);
            }
            events.push(UnpredictableEvent {
                device: 0,
                packets: (start..start + 5).collect(),
                start: SimTime::from_millis(t),
                end: SimTime::from_millis(t + 400),
            });
            t += 60_000;
        }
        (packets, events)
    }

    #[test]
    fn unknown_device_fails_open() {
        let mut proxy = proxy_with_plug();
        let t = bootstrap(&mut proxy);
        let mut p = pkt(t, 999);
        p.device = 42; // never registered
                       // Fail-open, but attributed to its own reason — not FirstN.
        assert_eq!(
            proxy.on_packet(&p),
            ProxyDecision::Allow(AllowReason::UnknownDevice)
        );
        let mut p2 = pkt(t + 100, 999);
        p2.device = 42;
        proxy.on_packet(&p2);
        let s = proxy.stats();
        assert_eq!(s.unknown_device, 2);
        assert_eq!(s.first_n, 0);
        assert_eq!(s.total(), s.bootstrap + 2);
        // Audited once per device (first sighting), not per packet.
        assert_eq!(proxy.audit().len(), 1);
        let e = &proxy.audit().entries()[0];
        assert_eq!(e.device, 42);
        assert_eq!(e.verdict, AuditVerdict::AllowedUnknownDevice);
        // A second unknown device gets its own entry.
        let mut p3 = pkt(t + 200, 999);
        p3.device = 43;
        proxy.on_packet(&p3);
        assert_eq!(proxy.audit().len(), 2);
        assert!(proxy.audit().verify());
    }

    #[test]
    fn backwards_packet_joins_event_without_rewinding_high_water_mark() {
        // Reordered trace through `decide()`: an in-order rule-miss
        // packet, a reordered packet 3 s in its past, then one 4 s after
        // the first. All three are one event — pre-fix, the backwards
        // packet rewound `last`, the third packet read a 7 s gap, closed
        // the event early and recorded a phantom retro episode.
        let validator = HumannessValidator::with_operating_point(1.0, 1.0, 0);
        let mut proxy = FiatProxy::new(ProxyConfig::default(), &SECRET, validator);
        proxy.register_device(0, EventClassifier::simple_rule(235), 5);
        proxy.start(SimTime::ZERO);
        let t = bootstrap(&mut proxy);
        let base = t + 60_000; // clear of the bootstrap boundary

        proxy.on_packet(&pkt(base, 235));
        proxy.on_packet(&pkt(base - 3_000, 235)); // reordered: joins
        proxy.on_packet(&pkt(base + 4_000, 235)); // 4 s < gap: still joins
        assert_eq!(proxy.stats().retro_unverified, 0, "no spurious closure");
        assert_eq!(proxy.stats().first_n, 3);

        // Closing the (single) event yields exactly one retro episode.
        proxy.flush(SimTime::from_millis(base + 60_000));
        assert_eq!(proxy.stats().retro_unverified, 1);
        assert_eq!(proxy.audit().len(), 1);
    }

    #[test]
    fn flush_then_older_packet_starts_fresh_event() {
        // Interplay: flush at `now`, then feed a packet older than the
        // flush time (but newer than the closed event). It must open a
        // fresh event rather than resurrect the flushed one's state.
        let validator = HumannessValidator::with_operating_point(1.0, 1.0, 0);
        let mut proxy = FiatProxy::new(ProxyConfig::default(), &SECRET, validator);
        proxy.register_device(0, EventClassifier::simple_rule(235), 5);
        proxy.start(SimTime::ZERO);
        let t = bootstrap(&mut proxy);
        let base = t + 60_000;

        for j in 0..3u64 {
            proxy.on_packet(&pkt(base + j * 50, 235));
        }
        proxy.flush(SimTime::from_millis(base + 60_000));
        assert_eq!(proxy.stats().retro_unverified, 1);

        // 30 s before the flush time, 30 s after the closed event.
        assert_eq!(
            proxy.on_packet(&pkt(base + 30_000, 235)),
            ProxyDecision::Allow(AllowReason::FirstN)
        );
        proxy.flush(SimTime::from_millis(base + 120_000));
        assert_eq!(proxy.stats().retro_unverified, 2);
        assert!(proxy.audit().verify());
    }

    #[test]
    fn flush_is_idempotent() {
        let validator = HumannessValidator::with_operating_point(1.0, 1.0, 0);
        let mut proxy = FiatProxy::new(ProxyConfig::default(), &SECRET, validator);
        proxy.register_device(0, EventClassifier::simple_rule(235), 5);
        proxy.start(SimTime::ZERO);
        let t = bootstrap(&mut proxy);

        for j in 0..3u64 {
            proxy.on_packet(&pkt(t + j * 50, 235));
        }
        let flush_at = SimTime::from_millis(t + 60_000);
        proxy.flush(flush_at);
        let stats = proxy.stats();
        let audit_len = proxy.audit().len();
        let head = proxy.audit().head();
        // Double flush (same time and later) changes nothing: the event
        // is gone and no state regenerates it.
        proxy.flush(flush_at);
        proxy.flush(SimTime::from_millis(t + 120_000));
        assert_eq!(proxy.stats(), stats);
        assert_eq!(proxy.audit().len(), audit_len);
        assert_eq!(proxy.audit().head(), head);
    }

    #[test]
    #[should_panic(expected = "proxy not started")]
    fn packets_before_start_panic() {
        let validator = HumannessValidator::with_operating_point(1.0, 1.0, 0);
        let mut proxy = FiatProxy::new(ProxyConfig::default(), &SECRET, validator);
        proxy.on_packet(&pkt(0, 100));
    }

    #[test]
    fn cascade_requires_fresh_trigger_authorization() {
        // Edge Alexa(1) -> plug(0) with a 10 s cascade window: once the
        // Alexa authorization goes stale, downstream commands drop again.
        let validator = HumannessValidator::with_operating_point(1.0, 1.0, 0);
        let config = ProxyConfig {
            human_valid_window: SimDuration::from_secs(1),
            ..ProxyConfig::default()
        };
        let mut proxy = FiatProxy::new(config, &SECRET, validator);
        proxy.register_device(0, EventClassifier::simple_rule(235), 1);
        proxy.register_device(1, EventClassifier::simple_rule(235), 1);
        let mut graph = crate::interactions::InteractionGraph::new(SimDuration::from_secs(10));
        graph.add_edge(1, 0).unwrap();
        proxy.set_interactions(graph);
        proxy.start(SimTime::ZERO);
        let t = bootstrap(&mut proxy);

        let mut app = FiatApp::new(&SECRET, 1);
        let ch = app.handshake_request();
        let sh = proxy.accept_handshake(&ch);
        app.complete_handshake(&sh).unwrap();
        let imu = ImuTrace::synthesize(MotionKind::HumanTouch, 500, 3);
        let z = app
            .authorize_zero_rtt("alexa", &imu, MotionKind::HumanTouch, t)
            .unwrap();
        proxy.on_auth_zero_rtt(&z, SimTime::from_millis(t)).unwrap();
        let mut alexa_cmd = pkt(t + 500, 235);
        alexa_cmd.device = 1;
        assert!(proxy.on_packet(&alexa_cmd).is_allow());

        // Within the 10 s cascade window: allowed.
        assert_eq!(
            proxy.on_packet(&pkt(t + 8_000, 235)),
            ProxyDecision::Allow(AllowReason::Cascade)
        );
        // Past it (and past the human window): dropped.
        assert_eq!(
            proxy.on_packet(&pkt(t + 30_000, 235)),
            ProxyDecision::Drop(DropReason::ManualUnverified)
        );
    }

    #[test]
    fn cascade_reason_surfaces_when_human_window_expired() {
        // Direct check of the Cascade allow reason using a short human
        // window.
        let validator = HumannessValidator::with_operating_point(1.0, 1.0, 0);
        let config = ProxyConfig {
            human_valid_window: SimDuration::from_secs(1),
            ..ProxyConfig::default()
        };
        let mut proxy = FiatProxy::new(config, &SECRET, validator);
        proxy.register_device(0, EventClassifier::simple_rule(235), 1);
        proxy.register_device(1, EventClassifier::simple_rule(235), 1);
        let mut graph = crate::interactions::InteractionGraph::new(SimDuration::from_secs(60));
        graph.add_edge(1, 0).unwrap();
        proxy.set_interactions(graph);
        proxy.start(SimTime::ZERO);
        let t = bootstrap(&mut proxy);

        let mut app = FiatApp::new(&SECRET, 1);
        let ch = app.handshake_request();
        let sh = proxy.accept_handshake(&ch);
        app.complete_handshake(&sh).unwrap();
        let imu = ImuTrace::synthesize(MotionKind::HumanTouch, 500, 3);
        let z = app
            .authorize_zero_rtt("alexa", &imu, MotionKind::HumanTouch, t)
            .unwrap();
        proxy.on_auth_zero_rtt(&z, SimTime::from_millis(t)).unwrap();
        // Alexa's command rides the (1 s) human window.
        let mut alexa_cmd = pkt(t + 500, 235);
        alexa_cmd.device = 1;
        assert_eq!(
            proxy.on_packet(&alexa_cmd),
            ProxyDecision::Allow(AllowReason::ManualVerified)
        );
        // 10 s later the human window is gone, but the cascade covers the
        // plug via the authorized Alexa event.
        let plug_cmd = pkt(t + 10_000, 235);
        assert_eq!(
            proxy.on_packet(&plug_cmd),
            ProxyDecision::Allow(AllowReason::Cascade)
        );
        assert!(proxy
            .audit()
            .entries()
            .iter()
            .any(|e| e.verdict == AuditVerdict::AllowedCascade));
        // Without the edge (device 5 unconfigured), the same command
        // drops: check via a device with no incoming edges.
        proxy.register_device(5, EventClassifier::simple_rule(235), 1);
        let mut other = pkt(t + 11_000, 235);
        other.device = 5;
        assert_eq!(
            proxy.on_packet(&other),
            ProxyDecision::Drop(DropReason::ManualUnverified)
        );
    }

    #[test]
    fn stats_account_for_every_packet() {
        let mut proxy = proxy_with_plug();
        let t = bootstrap(&mut proxy);
        proxy.on_packet(&pkt(t, 100)); // rule hit
        proxy.on_packet(&pkt(t + 1000, 235)); // manual drop
        let s = proxy.stats();
        assert_eq!(s.rule_hit, 1);
        assert_eq!(s.dropped_unverified, 1);
        assert!(s.bootstrap > 0);
        assert_eq!(s.total(), s.bootstrap + 2);
        assert_eq!(s.dropped(), 1);
        assert!((s.rule_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn stats_invariant_sum_of_reasons_equals_total() {
        // Drive every decision path, then check the counters partition
        // the packet count exactly.
        let mut proxy = proxy_with_plug();
        let t = bootstrap(&mut proxy);
        let mut sent = proxy.stats().bootstrap;

        proxy.on_packet(&pkt(t, 100)); // rule hit
        proxy.on_packet(&pkt(t + 6_000, 999)); // non-manual
        sent += 2;
        for k in 0..4u64 {
            proxy.on_packet(&pkt(t + 20_000 + k * 10_000, 235)); // drops -> lockout
            sent += 1;
        }
        proxy.on_packet(&pkt(t + 55_000, 100)); // locked out
        sent += 1;

        let mut unknown = pkt(t + 56_000, 999);
        unknown.device = 9; // never registered
        proxy.on_packet(&unknown);
        sent += 1;

        let s = proxy.stats();
        assert_eq!(
            s.total(),
            s.bootstrap
                + s.rule_hit
                + s.first_n
                + s.non_manual
                + s.manual_verified
                + s.cascade
                + s.unknown_device
                + s.dropped_unverified
                + s.dropped_lockout
                + s.quarantined
                + s.quarantine_released
                + s.dropped_quarantine
        );
        assert_eq!(s.unknown_device, 1);
        assert_eq!(s.total(), sent);
        assert_eq!(
            s.dropped(),
            s.dropped_unverified + s.dropped_lockout + s.dropped_quarantine
        );
        // Quarantine is off by default: every quarantine counter is zero.
        assert_eq!(s.quarantined, 0);
        assert_eq!(s.quarantine_released, 0);
        assert_eq!(s.dropped_quarantine, 0);
        assert_eq!(s.quarantine_expired, 0);
    }

    #[test]
    fn decision_series_follow_reason_order() {
        let decisions = &PROXY_METRICS.families()[DECISIONS];
        assert_eq!(decisions.name, "fiat_proxy_decisions_total");
        let expected = AllowReason::ALL
            .map(ProxyDecision::Allow)
            .into_iter()
            .chain(DropReason::ALL.map(ProxyDecision::Drop))
            .chain([ProxyDecision::Quarantine]);
        let labels: Vec<[(&str, &str); 2]> = expected
            .map(|d| {
                let decision = match d {
                    ProxyDecision::Allow(_) => "allow",
                    ProxyDecision::Drop(_) => "drop",
                    ProxyDecision::Quarantine => "quarantine",
                };
                [("decision", decision), ("reason", d.reason_str())]
            })
            .collect();
        let declared: Vec<&[(&str, &str)]> = decisions.series.to_vec();
        assert_eq!(declared, labels.iter().map(|l| &l[..]).collect::<Vec<_>>());
    }

    #[test]
    fn telemetry_counters_agree_with_stats() {
        use fiat_telemetry::{ManualClock, MetricRegistry};

        // A proxy on a shared registry and simulated clock, driven through
        // predictable, manual-verified, unverified, and lockout traffic.
        let registry = MetricRegistry::new();
        let telemetry = ProxyTelemetry::new(registry.clone(), Arc::new(ManualClock::new()));
        let validator = HumannessValidator::with_operating_point(1.0, 1.0, 0);
        let mut proxy =
            FiatProxy::with_telemetry(ProxyConfig::default(), &SECRET, validator, telemetry);
        proxy.register_device(0, EventClassifier::simple_rule(235), 1);
        proxy.start(SimTime::ZERO);
        let t = bootstrap(&mut proxy);

        proxy.on_packet(&pkt(t, 100)); // rule hit

        // Verified manual command.
        let mut app = FiatApp::new(&SECRET, 1);
        let ch = app.handshake_request();
        let sh = proxy.accept_handshake(&ch);
        app.complete_handshake(&sh).unwrap();
        let imu = ImuTrace::synthesize(MotionKind::HumanTouch, 500, 3);
        let z = app
            .authorize_zero_rtt("app", &imu, MotionKind::HumanTouch, t)
            .unwrap();
        proxy.on_auth_zero_rtt(&z, SimTime::from_millis(t)).unwrap();
        proxy.on_packet(&pkt(t + 500, 235));

        // Four unverified manual events (well past the human window)
        // exceed the tolerance of three and lock the device; one more
        // packet drops as locked out.
        for k in 0..4u64 {
            proxy.on_packet(&pkt(t + 60_000 + k * 10_000, 235));
        }
        proxy.on_packet(&pkt(t + 95_000, 100));

        // One packet from a device the proxy never registered.
        let mut stranger = pkt(t + 96_000, 100);
        stranger.device = 7;
        proxy.on_packet(&stranger);

        // Every per-reason counter matches the ProxyStats field.
        let s = proxy.stats();
        let by_reason = [
            (ProxyDecision::Allow(AllowReason::Bootstrap), s.bootstrap),
            (ProxyDecision::Allow(AllowReason::RuleHit), s.rule_hit),
            (ProxyDecision::Allow(AllowReason::FirstN), s.first_n),
            (ProxyDecision::Allow(AllowReason::NonManual), s.non_manual),
            (
                ProxyDecision::Allow(AllowReason::ManualVerified),
                s.manual_verified,
            ),
            (ProxyDecision::Allow(AllowReason::Cascade), s.cascade),
            (
                ProxyDecision::Allow(AllowReason::UnknownDevice),
                s.unknown_device,
            ),
            (
                ProxyDecision::Drop(DropReason::ManualUnverified),
                s.dropped_unverified,
            ),
            (
                ProxyDecision::Drop(DropReason::LockedOut),
                s.dropped_lockout,
            ),
            (
                ProxyDecision::Allow(AllowReason::QuarantineReleased),
                s.quarantine_released,
            ),
            (
                ProxyDecision::Drop(DropReason::QuarantineExpired),
                s.dropped_quarantine,
            ),
            (ProxyDecision::Quarantine, s.quarantined),
        ];
        for (d, expected) in by_reason {
            let decision = match d {
                ProxyDecision::Allow(_) => "allow",
                ProxyDecision::Drop(_) => "drop",
                ProxyDecision::Quarantine => "quarantine",
            };
            let labels = [("decision", decision), ("reason", d.reason_str())];
            let counter = registry.counter("fiat_proxy_decisions_total", &labels);
            assert_eq!(counter.get(), expected, "{d:?}");
        }
        assert!(s.manual_verified > 0);
        assert!(s.dropped_unverified > 0);
        assert!(s.dropped_lockout > 0);

        // ProxyStats counts every decision: one bootstrap packet per 10 s,
        // then the eight above. Stage timing lives in the proxy's own
        // timing registry: `decide` sampled 1 packet in 64, the
        // once-per-job stages each time they ran.
        assert_eq!(s.total(), t / 10_000 + 8);
        let timing = proxy.telemetry().timing().clone();
        let stage = |name| {
            timing
                .histogram("fiat_proxy_stage_ns", &[("stage", name)])
                .count()
        };
        assert_eq!(stage("decide"), s.total().div_ceil(DECIDE_SAMPLE_EVERY));
        assert!(stage("decide") >= 2, "too few packets to sample twice");
        assert_eq!(stage("rule_learn"), 1);
        assert!(stage("classification") > 0);
        assert_eq!(stage("humanness"), 1);

        // Gauges reflect the end state: one device, locked, stale event
        // still open, rules learned.
        assert_eq!(registry.gauge("fiat_proxy_devices", &[]).get(), 1);
        assert_eq!(registry.gauge("fiat_proxy_locked_devices", &[]).get(), 1);
        assert_eq!(
            registry.gauge("fiat_proxy_rules", &[]).get(),
            proxy.rule_count() as i64
        );

        proxy.clear_lockout(0);
        assert_eq!(registry.gauge("fiat_proxy_locked_devices", &[]).get(), 0);

        // QUIC counters flowed into the same registry.
        assert_eq!(registry.counter("fiat_quic_handshakes_total", &[]).get(), 1);
        assert_eq!(
            registry
                .counter("fiat_quic_zero_rtt_total", &[("result", "accepted")])
                .get(),
            1
        );
        assert_eq!(
            registry
                .counter("fiat_proxy_auth_total", &[("result", "verified")])
                .get(),
            1
        );

        // Exposition carries the whole picture: decisions in the shared
        // registry, stage latency only in the timing one, with no
        // per-packet rule-match or event-grouping stage.
        let text = registry.render_prometheus();
        assert!(!text.contains("fiat_proxy_stage"));
        let timing_text = timing.render_prometheus();
        assert!(timing_text.contains("fiat_proxy_stage_ns_bucket{stage=\"decide\""));
        assert!(!timing_text.contains("rule_match"));
        assert!(!timing_text.contains("event_grouping"));
        assert!(
            text.contains("fiat_proxy_decisions_total{decision=\"drop\",reason=\"locked_out\"}")
        );
        let json = registry.render_json();
        assert!(json.contains("\"fiat_proxy_decisions_total\""));
    }

    #[test]
    fn post_verdict_packets_keep_manual_verified_reason() {
        // Regression: the open event's fate used to discard *why* it was
        // allowed, so every post-verdict packet of a verified manual event
        // was counted as NonManual in stats and the decision counters.
        let validator = HumannessValidator::with_operating_point(1.0, 1.0, 0);
        let mut proxy = FiatProxy::new(ProxyConfig::default(), &SECRET, validator);
        // N = 5: packets 1-4 ride the first-N allowance, packet 5 is the
        // verdict, packets 6+ are post-verdict.
        proxy.register_device(0, EventClassifier::simple_rule(235), 5);
        proxy.start(SimTime::ZERO);
        let t = bootstrap(&mut proxy);

        let mut app = FiatApp::new(&SECRET, 1);
        let ch = app.handshake_request();
        let sh = proxy.accept_handshake(&ch);
        app.complete_handshake(&sh).unwrap();
        let imu = ImuTrace::synthesize(MotionKind::HumanTouch, 500, 3);
        let z = app
            .authorize_zero_rtt("app", &imu, MotionKind::HumanTouch, t)
            .unwrap();
        assert_eq!(
            proxy.on_auth_zero_rtt(&z, SimTime::from_millis(t)),
            Ok(true)
        );

        for k in 0..4u64 {
            assert_eq!(
                proxy.on_packet(&pkt(t + k * 100, 235)),
                ProxyDecision::Allow(AllowReason::FirstN),
                "packet {k}"
            );
        }
        assert_eq!(
            proxy.on_packet(&pkt(t + 400, 235)),
            ProxyDecision::Allow(AllowReason::ManualVerified)
        );
        // Packets 6 and 7 of the same event keep the verdict's reason.
        assert_eq!(
            proxy.on_packet(&pkt(t + 500, 235)),
            ProxyDecision::Allow(AllowReason::ManualVerified)
        );
        assert_eq!(
            proxy.on_packet(&pkt(t + 600, 235)),
            ProxyDecision::Allow(AllowReason::ManualVerified)
        );
        assert_eq!(proxy.stats().manual_verified, 3);
        assert_eq!(proxy.stats().non_manual, 0);
    }

    #[test]
    fn clear_lockout_closes_open_event() {
        use fiat_telemetry::{ManualClock, MetricRegistry};

        // Regression: clearing a lockout left the device's open event
        // with fate DropRest, so traffic inside the 5 s event gap kept
        // dropping as ManualUnverified right after the user unlocked.
        let registry = MetricRegistry::new();
        let telemetry = ProxyTelemetry::new(registry.clone(), Arc::new(ManualClock::new()));
        let validator = HumannessValidator::with_operating_point(1.0, 1.0, 0);
        let mut proxy =
            FiatProxy::with_telemetry(ProxyConfig::default(), &SECRET, validator, telemetry);
        proxy.register_device(0, EventClassifier::simple_rule(235), 1);
        proxy.start(SimTime::ZERO);
        let t = bootstrap(&mut proxy);

        for k in 0..4u64 {
            assert_eq!(
                proxy.on_packet(&pkt(t + k * 10_000, 235)),
                ProxyDecision::Drop(DropReason::ManualUnverified)
            );
        }
        assert!(proxy.is_locked(0));

        proxy.clear_lockout(0);
        assert!(!proxy.is_locked(0));
        assert_eq!(registry.gauge("fiat_proxy_open_events", &[]).get(), 0);
        // 1 s after the last drop — still inside the 5 s event gap, so
        // pre-fix this packet rejoined the DropRest event and dropped.
        let d = proxy.on_packet(&pkt(t + 31_000, 999));
        assert!(d.is_allow(), "{d:?}");
    }

    #[test]
    fn audit_chain_stays_valid() {
        let mut proxy = proxy_with_plug();
        let t = bootstrap(&mut proxy);
        for k in 0..5u64 {
            proxy.on_packet(&pkt(t + k * 10_000, 235));
        }
        assert!(proxy.audit().verify());
        assert!(proxy.audit().len() >= 3);
    }

    // ---- pending-verdict quarantine ------------------------------------

    /// A proxy with quarantine enabled: manual-unproven events are held
    /// for `deadline_ms` instead of dropped.
    fn quarantine_proxy(deadline_ms: u64) -> FiatProxy {
        let validator = HumannessValidator::with_operating_point(1.0, 1.0, 0);
        let config = ProxyConfig {
            proof_deadline: Some(SimDuration::from_millis(deadline_ms)),
            ..ProxyConfig::default()
        };
        let mut proxy = FiatProxy::new(config, &SECRET, validator);
        proxy.register_device(0, EventClassifier::simple_rule(235), 1);
        proxy.start(SimTime::ZERO);
        proxy
    }

    /// Deliver a genuine 0-RTT humanness proof at `t_ms`.
    fn prove_human(proxy: &mut FiatProxy, seed: u64, t_ms: u64) {
        let mut app = FiatApp::new(&SECRET, seed);
        let ch = app.handshake_request();
        let sh = proxy.accept_handshake(&ch);
        app.complete_handshake(&sh).unwrap();
        let imu = ImuTrace::synthesize(MotionKind::HumanTouch, 500, 3);
        let z = app
            .authorize_zero_rtt("app", &imu, MotionKind::HumanTouch, t_ms)
            .unwrap();
        assert_eq!(
            proxy.on_auth_zero_rtt(&z, SimTime::from_millis(t_ms)),
            Ok(true)
        );
    }

    #[test]
    fn quarantine_holds_then_releases_on_late_proof() {
        let mut proxy = quarantine_proxy(10_000);
        let t = bootstrap(&mut proxy);

        // The command's first two packets are held, not dropped.
        assert_eq!(proxy.on_packet(&pkt(t, 235)), ProxyDecision::Quarantine);
        assert_eq!(
            proxy.on_packet(&pkt(t + 100, 235)),
            ProxyDecision::Quarantine
        );
        assert!(proxy.take_quarantine_releases().is_empty());
        let depth = proxy
            .telemetry()
            .registry()
            .gauge("fiat_quarantine_depth", &[]);
        assert_eq!(depth.get(), 2);

        // The proof lands 2 s late (well inside the 10 s deadline): the
        // held packets are released and the live remainder is allowed.
        prove_human(&mut proxy, 1, t + 2_000);
        let released = proxy.take_quarantine_releases();
        assert_eq!(released.len(), 2);
        assert_eq!(released[0].ts, SimTime::from_millis(t));
        assert_eq!(depth.get(), 0);
        assert_eq!(
            proxy.on_packet(&pkt(t + 2_500, 235)),
            ProxyDecision::Allow(AllowReason::QuarantineReleased)
        );

        let s = proxy.stats();
        assert_eq!(s.quarantined, 2);
        assert_eq!(s.quarantine_released, 1);
        assert_eq!(s.dropped(), 0);
        assert_eq!(s.quarantine_expired, 0);
        assert!(!proxy.is_locked(0));
        let last = proxy.audit().entries().last().unwrap();
        assert_eq!(last.verdict, AuditVerdict::QuarantineReleased);
        assert_eq!(last.ts, SimTime::from_millis(t + 2_000));
        assert!(proxy.audit().verify());
    }

    /// Re-registering a device that holds packets is refused: the record
    /// stays, every held packet stays accounted for (held = released +
    /// expired + depth) and a later proof releases them all.
    #[test]
    fn reregistration_is_refused_and_keeps_held_packets() {
        let mut proxy = quarantine_proxy(10_000);
        let t = bootstrap(&mut proxy);
        assert_eq!(proxy.on_packet(&pkt(t, 235)), ProxyDecision::Quarantine);
        assert_eq!(
            proxy.on_packet(&pkt(t + 100, 235)),
            ProxyDecision::Quarantine
        );
        let audited = proxy.audit().len();

        assert!(!proxy.register_device(0, EventClassifier::simple_rule(235), 1));
        assert_eq!(proxy.audit().len(), audited);
        let reg = proxy.telemetry().registry();
        let held = reg.counter("fiat_quarantine_held_total", &[]);
        let released = reg.counter("fiat_quarantine_released_total", &[]);
        let expired = reg.counter("fiat_quarantine_expired_total", &[]);
        let depth = reg.gauge("fiat_quarantine_depth", &[]);
        let law = || {
            assert_eq!(
                held.get() as i64,
                (released.get() + expired.get()) as i64 + depth.get()
            );
        };
        law();
        assert_eq!(proxy.state_size().quarantine_held, 2);

        prove_human(&mut proxy, 1, t + 2_000);
        assert_eq!(proxy.take_quarantine_releases().len(), 2);
        assert_eq!(released.get(), 2);
        law();
    }

    #[test]
    fn quarantine_expires_at_deadline_and_audits_at_deadline() {
        let mut proxy = quarantine_proxy(10_000);
        let t = bootstrap(&mut proxy);

        assert_eq!(proxy.on_packet(&pkt(t, 235)), ProxyDecision::Quarantine);
        // A packet past the deadline reveals the expiry: the held packet
        // is demoted (audited at the *deadline*, not at observation
        // time) and the live packet drops as QuarantineExpired. It is
        // still within the event gap of nothing — 11 s > 5 s gap closes
        // the event — but the expiry seals the fate first, so the
        // sealed DropRest travels with the closed event, and the new
        // event re-quarantines.
        assert_eq!(
            proxy.on_packet(&pkt(t + 10_500, 235)),
            ProxyDecision::Quarantine,
            "expiry closed the old event; the new event opens a fresh quarantine"
        );
        let s = proxy.stats();
        assert_eq!(s.quarantine_expired, 1);
        assert_eq!(s.quarantined, 2);
        let expired = proxy
            .audit()
            .entries()
            .iter()
            .find(|e| e.verdict == AuditVerdict::QuarantineExpired)
            .unwrap();
        assert_eq!(expired.ts, SimTime::from_millis(t + 10_000));

        // Within the gap, the sealed fate governs the live remainder.
        let mut proxy = quarantine_proxy(2_000);
        let t = bootstrap(&mut proxy);
        assert_eq!(proxy.on_packet(&pkt(t, 235)), ProxyDecision::Quarantine);
        assert_eq!(
            proxy.on_packet(&pkt(t + 3_000, 235)),
            ProxyDecision::Drop(DropReason::QuarantineExpired),
            "3 s is past the 2 s deadline but inside the 5 s event gap"
        );
        assert_eq!(proxy.stats().dropped_quarantine, 1);
    }

    #[test]
    fn quarantine_release_at_exact_deadline_still_releases() {
        let mut proxy = quarantine_proxy(10_000);
        let t = bootstrap(&mut proxy);
        assert_eq!(proxy.on_packet(&pkt(t, 235)), ProxyDecision::Quarantine);
        // `now > deadline` expires; at exactly the deadline the proof
        // still counts (boundary mirrors the humanness window's `<=`).
        prove_human(&mut proxy, 1, t + 10_000);
        assert_eq!(proxy.take_quarantine_releases().len(), 1);
        assert_eq!(proxy.stats().quarantine_expired, 0);
    }

    #[test]
    fn proof_after_deadline_expires_instead_of_releasing() {
        let mut proxy = quarantine_proxy(10_000);
        let t = bootstrap(&mut proxy);
        assert_eq!(proxy.on_packet(&pkt(t, 235)), ProxyDecision::Quarantine);
        prove_human(&mut proxy, 1, t + 10_001);
        assert!(proxy.take_quarantine_releases().is_empty());
        let s = proxy.stats();
        assert_eq!(s.quarantine_expired, 1);
        let last = proxy.audit().entries().last().unwrap();
        assert_eq!(last.verdict, AuditVerdict::QuarantineExpired);
        assert_eq!(last.ts, SimTime::from_millis(t + 10_000));
    }

    #[test]
    fn second_concurrent_manual_event_demotes_immediately() {
        let mut proxy = quarantine_proxy(60_000);
        let t = bootstrap(&mut proxy);

        // Event A quarantines, then closes via the event gap (its record
        // survives: the proof may still arrive).
        assert_eq!(proxy.on_packet(&pkt(t, 235)), ProxyDecision::Quarantine);
        // Event B (6 s later, past the 5 s gap) finds the device's one
        // quarantine slot taken: immediate demotion, today's path.
        assert_eq!(
            proxy.on_packet(&pkt(t + 6_000, 235)),
            ProxyDecision::Drop(DropReason::ManualUnverified)
        );
        // The late proof still releases event A's held packet.
        prove_human(&mut proxy, 1, t + 8_000);
        assert_eq!(proxy.take_quarantine_releases().len(), 1);
        let s = proxy.stats();
        assert_eq!(s.quarantined, 1);
        assert_eq!(s.dropped_unverified, 1);
    }

    #[test]
    fn quarantine_capacity_overflow_sheds_packets() {
        let validator = HumannessValidator::with_operating_point(1.0, 1.0, 0);
        let config = ProxyConfig {
            proof_deadline: Some(SimDuration::from_secs(10)),
            quarantine_capacity: 2,
            ..ProxyConfig::default()
        };
        let mut proxy = FiatProxy::new(config, &SECRET, validator);
        proxy.register_device(0, EventClassifier::simple_rule(235), 1);
        proxy.start(SimTime::ZERO);
        let t = bootstrap(&mut proxy);

        assert_eq!(proxy.on_packet(&pkt(t, 235)), ProxyDecision::Quarantine);
        assert_eq!(
            proxy.on_packet(&pkt(t + 100, 235)),
            ProxyDecision::Quarantine
        );
        assert_eq!(
            proxy.on_packet(&pkt(t + 200, 235)),
            ProxyDecision::Drop(DropReason::ManualUnverified),
            "past the capacity the event sheds packets"
        );
        let s = proxy.stats();
        assert_eq!(s.quarantined, 2);
        assert_eq!(s.dropped_unverified, 1);
        // Release hands back exactly the capped record.
        prove_human(&mut proxy, 1, t + 1_000);
        assert_eq!(proxy.take_quarantine_releases().len(), 2);
    }

    #[test]
    fn repeated_quarantine_expiries_feed_lockout() {
        let validator = HumannessValidator::with_operating_point(1.0, 1.0, 0);
        let config = ProxyConfig {
            proof_deadline: Some(SimDuration::from_secs(2)),
            // Episodes must land inside one 60 s lockout window.
            ..ProxyConfig::default()
        };
        let mut proxy = FiatProxy::new(config, &SECRET, validator);
        proxy.register_device(0, EventClassifier::simple_rule(235), 1);
        proxy.start(SimTime::ZERO);
        let t = bootstrap(&mut proxy);

        // Four expiring quarantines within the window exceed the
        // tolerance of three, exactly like four immediate demotions:
        // episodes land at t+2 s, +12 s, +22 s, +32 s, and the fourth
        // expiry (seen by the last flush) locks the device.
        for k in 0..4u64 {
            assert_eq!(
                proxy.on_packet(&pkt(t + k * 10_000, 235)),
                ProxyDecision::Quarantine,
                "k={k}"
            );
            // Let each quarantine expire before the next event opens.
            proxy.flush(SimTime::from_millis(t + k * 10_000 + 9_000));
        }
        assert!(proxy.is_locked(0));
        assert_eq!(proxy.stats().quarantine_expired, 4);
        assert_eq!(proxy.telemetry().lockout_count(), 1);
        // And the revealing packet drops.
        assert_eq!(
            proxy.on_packet(&pkt(t + 40_000, 235)),
            ProxyDecision::Drop(DropReason::LockedOut)
        );
    }

    #[test]
    fn flush_expires_overdue_quarantine() {
        let mut proxy = quarantine_proxy(2_000);
        let t = bootstrap(&mut proxy);
        assert_eq!(proxy.on_packet(&pkt(t, 235)), ProxyDecision::Quarantine);
        proxy.flush(SimTime::from_millis(t + 30_000));
        let s = proxy.stats();
        assert_eq!(s.quarantine_expired, 1);
        let last = proxy.audit().entries().last().unwrap();
        assert_eq!(last.verdict, AuditVerdict::QuarantineExpired);
        assert_eq!(last.ts, SimTime::from_millis(t + 2_000));
        // Idempotent: the record resolved once.
        proxy.flush(SimTime::from_millis(t + 31_000));
        assert_eq!(proxy.stats().quarantine_expired, 1);
    }

    #[test]
    fn clear_lockout_preserves_pending_quarantine() {
        let mut proxy = quarantine_proxy(60_000);
        let t = bootstrap(&mut proxy);

        // Event A holds; four concurrent demotions lock the device.
        assert_eq!(proxy.on_packet(&pkt(t, 235)), ProxyDecision::Quarantine);
        for k in 1..5u64 {
            proxy.on_packet(&pkt(t + k * 6_000, 235));
        }
        assert!(proxy.is_locked(0));

        // The user clears the lockout; the held command still needs its
        // proof — and gets it, within the deadline.
        proxy.clear_lockout(0);
        prove_human(&mut proxy, 1, t + 40_000);
        assert_eq!(proxy.take_quarantine_releases().len(), 1);
        assert_eq!(proxy.stats().quarantined, 1);
    }

    #[test]
    fn quarantine_disabled_keeps_decisions_and_audit_identical() {
        // Belt-and-braces for the zero-cost default: a run with the
        // default config and one with quarantine explicitly disabled
        // produce identical decisions, stats, and audit chains.
        let drive = |mut proxy: FiatProxy| {
            let t = bootstrap(&mut proxy);
            let mut decisions = Vec::new();
            for k in 0..6u64 {
                decisions.push(proxy.on_packet(&pkt(t + k * 7_000, 235)));
            }
            proxy.flush(SimTime::from_millis(t + 120_000));
            (decisions, proxy.stats(), proxy.audit().head())
        };
        let a = drive(proxy_with_plug());
        let validator = HumannessValidator::with_operating_point(1.0, 1.0, 0);
        let config = ProxyConfig {
            proof_deadline: None,
            ..ProxyConfig::default()
        };
        let mut proxy = FiatProxy::new(config, &SECRET, validator);
        proxy.register_device(0, EventClassifier::simple_rule(235), 1);
        proxy.start(SimTime::ZERO);
        let b = drive(proxy);
        assert_eq!(a, b);
    }

    /// Restore snapshot bytes under `config` with the standard plug
    /// setup (fresh telemetry, same ceremony secret, same classifier).
    fn restore_with(config: ProxyConfig, bytes: &[u8]) -> Result<FiatProxy, SnapshotError> {
        let validator = HumannessValidator::with_operating_point(1.0, 1.0, 0);
        FiatProxy::restore(
            config,
            &SECRET,
            validator,
            ProxyTelemetry::default(),
            bytes,
            |_| EventClassifier::simple_rule(235),
        )
    }

    /// Restore snapshot bytes under the default config.
    fn restore_plug(bytes: &[u8]) -> FiatProxy {
        restore_with(ProxyConfig::default(), bytes).unwrap()
    }

    /// Where the audit entry count sits in snapshot `bytes`: past the
    /// version, the truncation count and the two optional hashes.
    fn audit_count_at(bytes: &[u8]) -> usize {
        let head_at = 12 + 1 + 32 * usize::from(bytes[12]);
        head_at + 1 + 32 * usize::from(bytes[head_at])
    }

    /// `bytes` with the newest audit entry cut: the count decremented
    /// and its 16-byte record removed.
    fn newest_entry_cut(bytes: &[u8]) -> Vec<u8> {
        let at = audit_count_at(bytes);
        let n = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        let newest = at + 4 + 16 * (n as usize - 1);
        let count = (n - 1).to_le_bytes();
        [
            &bytes[..at],
            &count,
            &bytes[at + 4..newest],
            &bytes[newest + 16..],
        ]
        .concat()
    }

    #[test]
    fn snapshot_restore_resumes_byte_identically() {
        // Twin proxies share a prefix; one is snapshotted and restored
        // mid-trace. Suffix decisions, stats, rule counts, and the audit
        // chain must be indistinguishable from the uninterrupted twin.
        let drive_prefix = |proxy: &mut FiatProxy| {
            let t = bootstrap(proxy);
            // A sealed-fate non-manual event left open...
            proxy.on_packet(&pkt(t, 999));
            // ...an unverified manual drop (audited, lockout credit)...
            let mut p = pkt(t + 10_000, 235);
            p.device = 0;
            proxy.on_packet(&p);
            // ...and an unknown device seen once.
            let mut u = pkt(t + 11_000, 50);
            u.device = 7;
            proxy.on_packet(&u);
            t
        };
        let mut uninterrupted = proxy_with_plug();
        let mut snapshotted = proxy_with_plug();
        let t = drive_prefix(&mut uninterrupted);
        drive_prefix(&mut snapshotted);

        let mut restored = restore_plug(&snapshotted.snapshot());
        assert_eq!(restored.rule_count(), uninterrupted.rule_count());
        assert_eq!(restored.audit().head(), uninterrupted.audit().head());

        // Resume: rule hits, the still-open event, a second manual drop,
        // and a flush must all replay identically.
        let suffix = [
            pkt(t + 11_500, 100), // rule hit
            pkt(t + 12_000, 999), // still within the open event's gap
            pkt(t + 20_000, 235), // fresh manual drop
        ];
        for p in &suffix {
            assert_eq!(uninterrupted.on_packet(p), restored.on_packet(p));
        }
        uninterrupted.flush(SimTime::from_millis(t + 120_000));
        restored.flush(SimTime::from_millis(t + 120_000));
        assert_eq!(uninterrupted.stats(), restored.stats());
        assert_eq!(uninterrupted.audit().head(), restored.audit().head());
        assert!(restored.audit().verify());
    }

    #[test]
    fn snapshot_preserves_zero_rtt_tickets_across_restore() {
        // A ticket issued before the snapshot keeps working after the
        // restore (the PSK-derived ticket secrets are re-derivable), and
        // its replay protection survives too.
        let mut proxy = proxy_with_plug();
        let t = bootstrap(&mut proxy);
        let mut app = FiatApp::new(&SECRET, 11);
        let ch = app.handshake_request();
        let sh = proxy.accept_handshake(&ch);
        app.complete_handshake(&sh).unwrap();
        let imu = ImuTrace::synthesize(MotionKind::HumanTouch, 500, 3);
        let z0 = app
            .authorize_zero_rtt("app", &imu, MotionKind::HumanTouch, t)
            .unwrap();
        proxy
            .on_auth_zero_rtt(&z0, SimTime::from_millis(t))
            .unwrap();

        let mut restored = restore_plug(&proxy.snapshot());
        // A replay of the pre-snapshot proof is still caught.
        assert_eq!(
            restored.on_auth_zero_rtt(&z0, SimTime::from_millis(t + 1)),
            Err(AuthError::Transport(fiat_quic::QuicError::Replayed))
        );
        // A fresh proof under the old ticket verifies.
        let z1 = app
            .authorize_zero_rtt("app", &imu, MotionKind::HumanTouch, t + 1000)
            .unwrap();
        assert_eq!(
            restored.on_auth_zero_rtt(&z1, SimTime::from_millis(t + 1000)),
            Ok(true)
        );
    }

    #[test]
    fn snapshot_bytes_round_trip_byte_identically() {
        let mut proxy = proxy_with_plug();
        let t = bootstrap(&mut proxy);
        proxy.on_packet(&pkt(t, 235));
        proxy.set_degraded(SimTime::from_millis(t + 1), true);
        let bytes = proxy.snapshot();
        assert_eq!(bytes, restore_plug(&bytes).snapshot());
        // And two snapshots of the same state encode identically.
        assert_eq!(bytes, proxy.snapshot());
    }

    #[test]
    fn restore_rejects_foreign_versions_and_tampered_audit() {
        let mut proxy = proxy_with_plug();
        let t = bootstrap(&mut proxy);
        proxy.on_packet(&pkt(t, 235));
        let good = proxy.snapshot();
        let refused = |bytes: &[u8]| restore_with(ProxyConfig::default(), bytes).err();

        let mut wrong_version = good.clone();
        let version = crate::snapshot::SNAPSHOT_VERSION + 1;
        wrong_version[..4].copy_from_slice(&version.to_le_bytes());
        assert_eq!(
            refused(&wrong_version),
            Some(SnapshotError::UnsupportedVersion(version))
        );

        // The oldest entry's verdict edited, its record re-encoded with a
        // valid checksum.
        let first = audit_count_at(&good) + 4;
        let record = good[first..first + 16].try_into().unwrap();
        let mut entry = AuditEntry::decode(&record).unwrap();
        entry.verdict = AuditVerdict::AllowedManualVerified;
        let mut tampered = good.clone();
        tampered[first..first + 16].copy_from_slice(&entry.encode());
        // The newest entry cut away: the shortened chain is well formed,
        // but it no longer ends at the stored head.
        let tail_cut = newest_entry_cut(&good);
        // A head that commits to nothing in the log.
        let mut foreign_head = good.clone();
        foreign_head[first - 36..first - 4].fill(0xA5);
        for bad in [tampered, tail_cut, foreign_head] {
            assert_eq!(refused(&bad), Some(SnapshotError::AuditChainInvalid));
        }
    }

    /// Restore a post-bootstrap plug snapshot written after `edit` of
    /// the live device, whose manual command has opened an event.
    fn restore_edited(edit: impl FnOnce(&mut DeviceSnapshot)) -> Result<FiatProxy, SnapshotError> {
        let mut proxy = proxy_with_plug();
        let t = bootstrap(&mut proxy);
        proxy.on_packet(&pkt(t, 235));
        let device = &mut proxy.devices.get_mut(&0).unwrap().rec;
        assert!(device.open.is_some());
        edit(device);
        restore_with(ProxyConfig::default(), &proxy.snapshot())
    }

    #[test]
    fn restore_refuses_a_pending_event_without_packets() {
        // Classification reads the first buffered packet: resuming would
        // panic on `flush` or the device's next packet after the gap.
        let err = restore_edited(|d| {
            let open = d.open.as_mut().unwrap();
            open.packets = EventPackets::new();
            open.fate = None;
        });
        assert_eq!(err.err(), Some(SnapshotError::InconsistentDevice(0)));
    }

    #[test]
    fn restore_refuses_a_first_n_window_outside_the_cap() {
        // Snapshot bytes are unauthenticated: a first-N window past the
        // cap would forward an unproven manual command packet by packet.
        let cap = ProxyConfig::default().classify_at_cap;
        for classify_at in [0, cap + 1, 10_000] {
            let err = restore_edited(|d| d.classify_at = classify_at);
            assert_eq!(
                err.err(),
                Some(SnapshotError::InconsistentDevice(0)),
                "classify_at {classify_at}"
            );
        }
        assert!(restore_edited(|d| d.classify_at = cap).is_ok());
    }

    #[test]
    fn restore_refuses_a_quarantine_fate_without_a_record() {
        // Later packets of a quarantine-fated event join the record:
        // with none, they would all be shed, and no release or expiry
        // would ever resolve the episode or credit it to the lockout.
        let err = restore_edited(|d| {
            d.open.as_mut().unwrap().fate = Some(EventFate::Quarantine);
            d.quarantine = None;
        });
        assert_eq!(err.err(), Some(SnapshotError::InconsistentDevice(0)));
    }

    #[test]
    fn restore_refuses_a_pending_event_at_its_classification_point() {
        // A pending event seals on its `classify_at`-th packet, so the
        // live path buffers at most `classify_at - 1` of them. (The
        // buffer holds at most `FEATURE_PACKETS`; the snapshot reader
        // refuses a longer list.)
        let pending = |classify_at: usize, n: usize| {
            restore_edited(|d| {
                d.classify_at = classify_at;
                let open = d.open.as_mut().unwrap();
                let first = open.packets[0].clone();
                open.packets = EventPackets::new();
                for _ in 0..n {
                    open.packets.push(&first);
                }
                open.fate = None;
            })
        };
        let cap = ProxyConfig::default().classify_at_cap;
        for (classify_at, n) in [(1, 1), (cap, cap), (2, cap)] {
            assert_eq!(
                pending(classify_at, n).err(),
                Some(SnapshotError::InconsistentDevice(0)),
                "{n} packets at classify_at {classify_at}"
            );
        }
        assert!(pending(cap, cap - 1).is_ok());
    }

    #[test]
    fn restore_refuses_a_quarantine_record_over_capacity() {
        // `Quarantine::admit` starts a record at one packet and `hold`
        // sheds packets once it reaches `quarantine_capacity`.
        let held = |n: usize| {
            restore_edited(|d| {
                let open = d.open.as_mut().unwrap();
                open.fate = Some(EventFate::Quarantine);
                d.quarantine = Some(QuarantineRecord {
                    packets: vec![open.packets[0].clone(); n],
                    class: EventClass::Manual,
                    deadline: open.last,
                });
            })
        };
        let capacity = ProxyConfig::default().quarantine_capacity;
        for n in [0, capacity + 1, 10_000] {
            assert_eq!(
                held(n).err(),
                Some(SnapshotError::InconsistentDevice(0)),
                "{n} held packets"
            );
        }
        assert!(held(1).is_ok());
        assert!(held(capacity).is_ok());
    }

    /// Device ids of the quarantine releases a [`ProxyHook`] saw.
    #[derive(Clone, Default)]
    struct ReleaseLog(Arc<std::sync::Mutex<Vec<u16>>>);

    impl ProxyHook for ReleaseLog {
        fn on_event(&self, ev: &ProxyEvent) {
            if let ProxyEvent::QuarantineReleased { device, .. } = *ev {
                self.0.lock().unwrap().push(device);
            }
        }
    }

    #[test]
    fn quarantine_resolution_follows_device_ids_not_hash_order() {
        // Every proxy's device map draws its own hash key, so devices
        // iterate in a different order in each fresh proxy. A proof must
        // still release, announce and audit the records in id order.
        for _ in 0..8 {
            let validator = HumannessValidator::with_operating_point(1.0, 1.0, 0);
            let config = ProxyConfig {
                proof_deadline: Some(SimDuration::from_secs(60)),
                ..ProxyConfig::default()
            };
            let mut proxy = FiatProxy::new(config, &SECRET, validator);
            for d in [5, 1, 3] {
                proxy.register_device(d, EventClassifier::simple_rule(235), 1);
            }
            let log = ReleaseLog::default();
            proxy.set_hook(Box::new(log.clone()));
            proxy.start(SimTime::ZERO);
            let t = bootstrap(&mut proxy);
            for (k, d) in [5, 1, 3].into_iter().enumerate() {
                assert_eq!(
                    proxy.on_packet(&pkt_dev(t + k as u64 * 1_000, 235, d)),
                    ProxyDecision::Quarantine
                );
            }
            prove_human(&mut proxy, 1, t + 5_000);
            let released: Vec<u16> = proxy
                .take_quarantine_releases()
                .iter()
                .map(|p| p.device)
                .collect();
            assert_eq!(released, [1, 3, 5]);
            assert_eq!(*log.0.lock().unwrap(), [1, 3, 5]);
            let audited: Vec<u16> = proxy
                .audit()
                .entries()
                .iter()
                .filter(|e| e.verdict == AuditVerdict::QuarantineReleased)
                .map(|e| e.device)
                .collect();
            assert_eq!(audited, [1, 3, 5]);
        }
    }

    // ---- bounded state (DESIGN §18) ------------------------------------

    fn pkt_dev(ts_ms: u64, size: u16, device: u16) -> PacketRecord {
        PacketRecord {
            device,
            ..pkt(ts_ms, size)
        }
    }

    #[test]
    fn record_cap_demotes_oldest_deadline_record() {
        let validator = HumannessValidator::with_operating_point(1.0, 1.0, 0);
        let config = ProxyConfig {
            proof_deadline: Some(SimDuration::from_secs(60)),
            max_quarantine_records: Some(2),
            ..ProxyConfig::default()
        };
        let mut proxy = FiatProxy::new(config, &SECRET, validator);
        for d in 0..3 {
            proxy.register_device(d, EventClassifier::simple_rule(235), 1);
        }
        proxy.start(SimTime::ZERO);
        let t = bootstrap(&mut proxy);

        assert_eq!(
            proxy.on_packet(&pkt_dev(t, 235, 0)),
            ProxyDecision::Quarantine
        );
        assert_eq!(
            proxy.on_packet(&pkt_dev(t + 1_000, 235, 1)),
            ProxyDecision::Quarantine
        );
        // A third concurrent record is over the cap: device 0's record
        // (oldest deadline) is demoted first, then the new one is held.
        assert_eq!(
            proxy.on_packet(&pkt_dev(t + 2_000, 235, 2)),
            ProxyDecision::Quarantine
        );
        assert_eq!(proxy.state_size().quarantine_records, 2);
        let s = proxy.stats();
        assert_eq!(s.quarantined, 3);
        assert_eq!(s.quarantine_expired, 1);
        let demoted = proxy
            .audit()
            .entries()
            .iter()
            .find(|e| e.verdict == AuditVerdict::QuarantineExpired)
            .unwrap();
        assert_eq!(demoted.device, 0);
        assert_eq!(
            demoted.ts,
            SimTime::from_millis(t + 2_000),
            "credited at demotion time, never the future deadline"
        );
        // A proof still releases the surviving records (devices 1, 2).
        prove_human(&mut proxy, 1, t + 3_000);
        assert_eq!(proxy.take_quarantine_releases().len(), 2);
        assert!(proxy.audit().verify());
    }

    #[test]
    fn record_cap_demotes_the_lower_id_on_equal_deadlines() {
        let validator = HumannessValidator::with_operating_point(1.0, 1.0, 0);
        let config = ProxyConfig {
            proof_deadline: Some(SimDuration::from_secs(60)),
            max_quarantine_records: Some(2),
            ..ProxyConfig::default()
        };
        let mut proxy = FiatProxy::new(config, &SECRET, validator);
        for d in [4, 2, 6] {
            proxy.register_device(d, EventClassifier::simple_rule(235), 1);
        }
        proxy.start(SimTime::ZERO);
        let t = bootstrap(&mut proxy);
        // Devices 4 and 2 are held at the same instant: equal deadlines.
        for (ts, d) in [(t, 4), (t, 2), (t + 1_000, 6)] {
            assert_eq!(
                proxy.on_packet(&pkt_dev(ts, 235, d)),
                ProxyDecision::Quarantine
            );
        }
        let demoted: Vec<u16> = proxy
            .audit()
            .entries()
            .iter()
            .filter(|e| e.verdict == AuditVerdict::QuarantineExpired)
            .map(|e| e.device)
            .collect();
        assert_eq!(demoted, [2]);
        assert_eq!(proxy.state_size().quarantine_records, 2);
    }

    #[test]
    fn restore_refuses_quarantine_records_over_the_record_cap() {
        // `Quarantine::admit` demotes a record before the home holds more
        // than `max(max_quarantine_records, 1)` of them.
        let config = |cap: Option<usize>| ProxyConfig {
            proof_deadline: Some(SimDuration::from_secs(60)),
            max_quarantine_records: cap,
            ..ProxyConfig::default()
        };
        let validator = || HumannessValidator::with_operating_point(1.0, 1.0, 0);
        let mut proxy = FiatProxy::new(config(Some(3)), &SECRET, validator());
        for d in 0..4 {
            proxy.register_device(d, EventClassifier::simple_rule(235), 1);
        }
        proxy.start(SimTime::ZERO);
        let t = bootstrap(&mut proxy);
        for (k, d) in [3, 1, 2].into_iter().enumerate() {
            assert_eq!(
                proxy.on_packet(&pkt_dev(t + k as u64 * 1_000, 235, d)),
                ProxyDecision::Quarantine
            );
        }
        let bytes = proxy.snapshot();
        let restore = |cap| restore_with(config(cap), &bytes);
        for (cap, past) in [(Some(2), 3), (Some(1), 2), (Some(0), 2)] {
            assert_eq!(
                restore(cap).err(),
                Some(SnapshotError::InconsistentDevice(past)),
                "cap {cap:?}"
            );
        }
        for cap in [Some(3), None] {
            let restored = restore(cap).expect("records within the cap");
            assert_eq!(restored.state_size().quarantine_records, 3);
        }
    }

    #[test]
    fn sealed_event_stops_buffering_packets() {
        // Drop-fated event: after the verdict the open event must not
        // keep buffering every in-gap packet (the unbounded-state bug
        // the soak accountant caught).
        let mut proxy = proxy_with_plug();
        let t = bootstrap(&mut proxy);
        proxy.on_packet(&pkt(t, 235));
        assert_eq!(proxy.state_size().open_packets, 1);
        for k in 1..5u64 {
            proxy.on_packet(&pkt(t + k * 1_000, 235));
        }
        assert_eq!(
            proxy.state_size().open_packets,
            1,
            "a sealed event no longer buffers"
        );

        // Quarantine-fated event: held packets live in the record only,
        // never a second copy in the open event.
        let mut proxy = quarantine_proxy(10_000);
        let t = bootstrap(&mut proxy);
        for k in 0..4u64 {
            assert_eq!(
                proxy.on_packet(&pkt(t + k * 500, 235)),
                ProxyDecision::Quarantine
            );
        }
        let size = proxy.state_size();
        assert_eq!(size.quarantine_held, 4);
        assert_eq!(size.open_packets, 1);
    }

    #[test]
    fn snapshot_restores_truncated_audit_chain() {
        let validator = HumannessValidator::with_operating_point(1.0, 1.0, 0);
        let config = ProxyConfig {
            max_audit_entries: Some(8),
            ..ProxyConfig::default()
        };
        let mut proxy = FiatProxy::new(config.clone(), &SECRET, validator);
        proxy.register_device(0, EventClassifier::simple_rule(235), 1);
        proxy.start(SimTime::ZERO);
        let t = bootstrap(&mut proxy);
        // Spaced manual drops stay under the lockout tolerance but push
        // the audit log past its cap several times over.
        for k in 0..12u64 {
            proxy.on_packet(&pkt(t + k * 40_000, 235));
        }
        assert!(proxy.audit().truncated() > 0);
        assert!(proxy.audit().checkpoint().is_some());
        assert!(proxy.audit().verify());

        // The snapshot round-trips the truncated chain byte-identically
        // and the restored log still verifies (from the checkpoint).
        let bytes = proxy.snapshot();
        let mut restored = restore_with(config, &bytes).unwrap();
        assert_eq!(restored.snapshot(), bytes);
        assert!(restored.audit().verify());
        assert_eq!(restored.audit().head(), proxy.audit().head());
        assert_eq!(restored.audit().truncated(), proxy.audit().truncated());

        // Resume both: the chains stay in lockstep across further
        // truncations.
        for k in 12..20u64 {
            let p = pkt(t + k * 40_000, 235);
            assert_eq!(proxy.on_packet(&p), restored.on_packet(&p));
        }
        assert_eq!(restored.audit().head(), proxy.audit().head());
        assert!(restored.audit().verify());
    }

    #[test]
    fn restore_refuses_a_tail_cut_truncated_audit_chain() {
        let config = ProxyConfig {
            max_audit_entries: Some(8),
            ..ProxyConfig::default()
        };
        let validator = HumannessValidator::with_operating_point(1.0, 1.0, 0);
        let mut proxy = FiatProxy::new(config.clone(), &SECRET, validator);
        proxy.register_device(0, EventClassifier::simple_rule(235), 1);
        proxy.start(SimTime::ZERO);
        let t = bootstrap(&mut proxy);
        for k in 0..12u64 {
            proxy.on_packet(&pkt(t + k * 40_000, 235));
        }
        assert!(proxy.audit().checkpoint().is_some());
        assert!(proxy.audit().len() > 1);
        // Drop the newest entry: the suffix still chains from the
        // checkpoint, but not to the stored head.
        let bytes = newest_entry_cut(&proxy.snapshot());
        assert_eq!(
            restore_with(config, &bytes).err(),
            Some(SnapshotError::AuditChainInvalid)
        );
    }

    #[test]
    fn snapshot_round_trips_lru_order_and_ghosts() {
        // Two periodic flows learned, cap 1: the older one is evicted to
        // a ghost, then touched once so the ghost carries re-learn state.
        let config = ProxyConfig {
            max_rules: Some(1),
            ..ProxyConfig::default()
        };
        let build = || {
            let validator = HumannessValidator::with_operating_point(1.0, 1.0, 0);
            let mut proxy = FiatProxy::new(
                ProxyConfig {
                    max_rules: Some(1),
                    ..ProxyConfig::default()
                },
                &SECRET,
                validator,
            );
            proxy.register_device(0, EventClassifier::simple_rule(235), 1);
            proxy.start(SimTime::ZERO);
            let mut t = 0;
            while t < 20 * 60 * 1000 {
                proxy.on_packet(&pkt(t, 100));
                proxy.on_packet(&pkt(t + 5_000, 150));
                t += 10_000;
            }
            // The size-100 flow (earlier last-seen) was evicted; touch
            // its ghost so last_ts/last_bin round-trip too.
            proxy.on_packet(&pkt(t, 100));
            (proxy, t)
        };
        let (mut uninterrupted, t) = build();
        let (snapshotted, _) = build();
        assert_eq!(snapshotted.rule_count(), 1);
        assert_eq!(snapshotted.state_size().rule_ghosts, 1);

        let (_, ghosts) = snapshotted.rules.as_ref().unwrap().snapshot();
        assert!(ghosts[0].last_ts.is_some());
        let bytes = snapshotted.snapshot();
        let mut restored = restore_with(config, &bytes).unwrap();
        // Restore → snapshot reproduces the exact bytes (LRU order and
        // ghost state are semantic, not incidental).
        assert_eq!(bytes, restored.snapshot());

        // Resume: the ghost re-promotes identically in both twins (two
        // more qualifying repeats at the same cadence).
        for k in 1..4u64 {
            let p = pkt(t + k * 10_000, 100);
            assert_eq!(uninterrupted.on_packet(&p), restored.on_packet(&p));
        }
        assert_eq!(uninterrupted.rule_count(), restored.rule_count());
        assert_eq!(
            uninterrupted.state_size().rule_ghosts,
            restored.state_size().rule_ghosts
        );
    }

    #[test]
    fn snapshot_bytes_are_pinned() {
        // Pins the serialized snapshot format itself: a fixed-seed home
        // whose snapshot holds every state record — rule ghosts, a proof
        // in the replay window, live quarantine records with their
        // quarantine-fated open events, an allow-fated open event,
        // lockout drops on a locked device, an unknown device, a
        // checkpoint-truncated audit chain, a DNS name shared between two
        // addresses and the evicted rule, and a live rule on an address
        // DNS never resolved, so both remote tags are present. A digest
        // change means the bytes changed and SNAPSHOT_VERSION must be
        // bumped. The bytes themselves are `tests/golden/snapshot_v5.bin`
        // (binary), which fiat-control's restore and fuzz tests read.
        let validator = HumannessValidator::with_operating_point(1.0, 1.0, 0);
        let config = ProxyConfig {
            proof_deadline: Some(SimDuration::from_secs(60)),
            max_rules: Some(1),
            max_audit_entries: Some(4),
            ..ProxyConfig::default()
        };
        let mut proxy = FiatProxy::new(config, &SECRET, validator);
        let mut dns = DnsTable::new();
        dns.observe_forward(Ipv4Addr::new(34, 0, 0, 1), "cloud.example.com");
        dns.observe_forward(Ipv4Addr::new(34, 0, 0, 2), "cloud.example.com");
        dns.observe_reverse(Ipv4Addr::new(10, 0, 0, 9), "ptr.example.net");
        proxy.set_dns(dns);
        for d in 0..3 {
            proxy.register_device(d, EventClassifier::simple_rule(235), 1);
        }
        proxy.start(SimTime::ZERO);
        let unresolved = |ts_ms| PacketRecord {
            remote_ip: Ipv4Addr::new(52, 0, 0, 9),
            ..pkt(ts_ms, 150)
        };
        let mut t = 0;
        while t < 20 * 60 * 1000 {
            proxy.on_packet(&pkt(t, 100));
            proxy.on_packet(&unresolved(t + 5_000));
            t += 10_000;
        }
        prove_human(&mut proxy, 5, t - 100_000);
        // Touches the evicted flow's ghost; the miss opens a non-manual
        // event on device 0.
        proxy.on_packet(&pkt(t, 100));
        proxy.on_packet(&pkt_dev(t + 1_000, 235, 1)); // held
        proxy.on_packet(&pkt_dev(t + 8_000, 235, 0)); // held
        for k in 1..=4u64 {
            // Slot taken: concurrent episodes drop, the fourth locks.
            proxy.on_packet(&pkt_dev(t + 8_000 + k * 6_000, 235, 0));
        }
        proxy.on_packet(&pkt_dev(t + 33_000, 999, 2)); // non-manual
        proxy.on_packet(&pkt_dev(t + 34_000, 50, 7)); // unknown device

        assert!(proxy.is_locked(0));
        let size = proxy.state_size();
        assert_eq!(size.rule_ghosts, 1);
        assert_eq!(size.quarantine_records, 2);
        assert_eq!(size.open_events, 3);
        assert!(proxy.audit().checkpoint().is_some());
        let bytes = proxy.snapshot();
        let hex: String = fiat_crypto::Sha256::digest(&bytes)
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(
            hex,
            "e69d7791b61a42b1bcd4bc57e22bfa69cbdb74f724fba9cd506ea61f394550a1"
        );
        assert!(bytes == include_bytes!("../../tests/golden/snapshot_v5.bin"));
    }

    #[test]
    fn degraded_mode_is_audited_and_counted() {
        let mut proxy = proxy_with_plug();
        let t = bootstrap(&mut proxy);
        assert!(!proxy.is_degraded());
        proxy.set_degraded(SimTime::from_millis(t), true);
        proxy.set_degraded(SimTime::from_millis(t), true); // idempotent
        assert!(proxy.is_degraded());
        proxy.on_packet(&pkt(t, 100));
        proxy.on_packet(&pkt(t + 100, 100));
        proxy.set_degraded(SimTime::from_millis(t + 200), false);
        proxy.on_packet(&pkt(t + 300, 100));

        assert_eq!(proxy.telemetry().degraded_decision_count(), 2);
        let transitions: Vec<_> = proxy
            .audit()
            .entries()
            .iter()
            .filter(|e| e.device == AUDIT_PROXY_DEVICE)
            .map(|e| e.verdict)
            .collect();
        assert_eq!(
            transitions,
            vec![
                AuditVerdict::DegradedModeEntered,
                AuditVerdict::DegradedModeExited
            ]
        );
        assert!(proxy.audit().verify());
        let g = proxy
            .telemetry()
            .registry()
            .gauge("fiat_proxy_degraded", &[]);
        assert_eq!(g.get(), 0);
    }

    /// The quarantine transitions a [`ProxyHook`] saw: releases, and
    /// expiries tagged with the device whose packet was being decided
    /// (if any).
    #[derive(Default)]
    struct Transitions {
        deciding: Option<u16>,
        expired: Vec<(Option<u16>, u16)>,
        released: u64,
    }

    #[derive(Clone, Default)]
    struct TransitionLog(Arc<std::sync::Mutex<Transitions>>);

    impl ProxyHook for TransitionLog {
        fn on_event(&self, ev: &ProxyEvent) {
            let mut log = self.0.lock().unwrap();
            match *ev {
                ProxyEvent::QuarantineReleased { .. } => log.released += 1,
                ProxyEvent::QuarantineExpired { device, .. } => {
                    let deciding = log.deciding;
                    log.expired.push((deciding, device));
                }
                _ => {}
            }
        }
    }

    #[test]
    fn state_gauges_match_state_after_every_operation() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        // Coverage across all seeds: lockout cleared, release, lazy
        // expiry, cap demotion, refused re-registration over open /
        // quarantined / locked state.
        let mut seen = [false; 7];
        for seed in 0..4u64 {
            let validator = HumannessValidator::with_operating_point(1.0, 1.0, 0);
            let config = ProxyConfig {
                proof_deadline: Some(SimDuration::from_secs(3)),
                max_quarantine_records: Some(2),
                ..ProxyConfig::default()
            };
            let mut proxy = FiatProxy::new(config, &SECRET, validator);
            let log = TransitionLog::default();
            proxy.set_hook(Box::new(log.clone()));
            let devices = 4u16;
            let register = |proxy: &mut FiatProxy, d: u16| {
                proxy.register_device(d, EventClassifier::simple_rule(235), 1 + d as usize % 3);
            };
            for d in 0..devices {
                register(&mut proxy, d);
            }
            proxy.start(SimTime::ZERO);
            let mut t = bootstrap(&mut proxy);
            let check = |proxy: &FiatProxy, step: usize| {
                let reg = proxy.telemetry().registry();
                let size = proxy.state_size();
                let gauge = |name: &str| reg.gauge(name, &[]).get();
                let locked = (0..devices).filter(|&d| proxy.is_locked(d)).count();
                assert_eq!(
                    gauge("fiat_quarantine_depth"),
                    size.quarantine_held as i64,
                    "seed {seed} step {step}"
                );
                assert_eq!(
                    gauge("fiat_proxy_open_events"),
                    size.open_events as i64,
                    "seed {seed} step {step}"
                );
                assert_eq!(
                    gauge("fiat_proxy_locked_devices"),
                    locked as i64,
                    "seed {seed} step {step}"
                );
            };
            let mut rng = StdRng::seed_from_u64(seed);
            for step in 0..2_000 {
                t += rng.gen_range(50..3_000);
                let now = SimTime::from_millis(t);
                let d = rng.gen_range(0..devices);
                match rng.gen_range(0..100) {
                    0..=84 => {
                        let size = if rng.gen_range(0..10) < 8 { 235 } else { 999 };
                        log.0.lock().unwrap().deciding = Some(d);
                        proxy.on_packet(&pkt_dev(t, size, d));
                        log.0.lock().unwrap().deciding = None;
                    }
                    85..=87 => prove_human(&mut proxy, step as u64, t),
                    88..=92 => {
                        seen[0] |= proxy.is_locked(d);
                        proxy.clear_lockout(d);
                    }
                    93..=96 => {
                        let dev = &proxy.devices[&d].rec;
                        seen[1] |= dev.open.is_some();
                        seen[2] |= dev.quarantine.is_some();
                        seen[3] |= dev.locked;
                        register(&mut proxy, d);
                    }
                    _ => proxy.flush(now),
                }
                proxy.take_quarantine_releases();
                check(&proxy, step);
            }
            proxy.flush(SimTime::from_millis(t + 60_000));
            check(&proxy, usize::MAX);
            assert!(proxy.audit().verify());
            let log = log.0.lock().unwrap();
            seen[4] |= log.released > 0;
            for &(deciding, expired) in &log.expired {
                // Lazy expiry fires for the deciding device (or outside
                // `on_packet`); the record cap demotes another device's.
                match deciding {
                    Some(d) if d != expired => seen[5] = true,
                    _ => seen[6] = true,
                }
            }
        }
        assert_eq!(
            seen, [true; 7],
            "cleared/open/quarantine/locked/release/demotion/expiry"
        );
    }

    #[test]
    fn retro_cascade_is_audited_verified_without_lockout_credit() {
        // Alexa(1) -> plug(0), 10 s cascade window; a 1 s human window so
        // only the cascade can vouch for the plug. The plug's event has
        // two packets — below its classify point of 5 — and closes by
        // gap, so it meets the verdict ladder retrospectively.
        let validator = HumannessValidator::with_operating_point(1.0, 1.0, 0);
        let config = ProxyConfig {
            human_valid_window: SimDuration::from_secs(1),
            ..ProxyConfig::default()
        };
        let mut proxy = FiatProxy::new(config, &SECRET, validator);
        proxy.register_device(0, EventClassifier::simple_rule(235), 5);
        proxy.register_device(1, EventClassifier::simple_rule(235), 1);
        let mut graph = crate::interactions::InteractionGraph::new(SimDuration::from_secs(10));
        graph.add_edge(1, 0).unwrap();
        proxy.set_interactions(graph);
        proxy.start(SimTime::ZERO);
        let t = bootstrap(&mut proxy);

        prove_human(&mut proxy, 1, t);
        assert_eq!(
            proxy.on_packet(&pkt_dev(t + 500, 235, 1)),
            ProxyDecision::Allow(AllowReason::ManualVerified)
        );
        for k in 0..2 {
            assert_eq!(
                proxy.on_packet(&pkt_dev(t + 2_000 + k * 100, 235, 0)),
                ProxyDecision::Allow(AllowReason::FirstN)
            );
        }
        // 5.9 s of silence closes the plug's event at its end, t+2.1 s:
        // past the human window, inside the trigger's cascade window.
        assert_eq!(
            proxy.on_packet(&pkt_dev(t + 8_000, 235, 0)),
            ProxyDecision::Allow(AllowReason::FirstN)
        );
        let last = proxy.audit().entries().last().unwrap().clone();
        assert_eq!(last.device, 0);
        assert_eq!(last.ts, SimTime::from_millis(t + 2_100));
        assert_eq!(last.verdict, AuditVerdict::AllowedManualVerified);
        assert_eq!(proxy.stats().retro_unverified, 0);
        assert!(proxy.devices[&0].rec.drops.is_empty(), "no lockout credit");
        assert!(!proxy.is_locked(0));
        assert!(proxy.audit().verify());
    }
}
