//! Versioned, serde-round-trippable home state snapshots.
//!
//! A [`HomeSnapshot`] captures everything a [`crate::FiatProxy`] needs to
//! resume mid-trace on another process (or fleet shard): learned rules,
//! open events, the lockout and quarantine state, the epoch-keyed 0-RTT
//! replay window, and the full audit chain. The contract, enforced by the
//! fleet determinism oracle, is that snapshot → restore → resume produces
//! decisions, stats, and an audit chain byte-identical to the
//! uninterrupted run.
//!
//! Design constraints that shape the format:
//!
//! - **Deterministic bytes.** Every collection is a canonically ordered
//!   `Vec` (rules and ghosts in LRU/stamp order — semantic state, since
//!   eviction follows it — devices by id, replay epochs and tickets
//!   ascending), and `DnsTable`'s own serde representation sorts by IP,
//!   so serializing the same state twice yields identical bytes — the
//!   property the round-trip proptest in `fiat-control` pins.
//! - **No live keys.** The QUIC 1-RTT session key is *not* serialized;
//!   a restored proxy requires clients to re-handshake for 1-RTT while
//!   0-RTT tickets (re-derivable from the pairing PSK + epoch) keep
//!   working. Classifiers are also not serialized — ML model weights are
//!   provisioning data, re-supplied by the caller at restore.
//! - **Versioned, no legacy reader.** [`HomeSnapshot::version`] must
//!   equal [`SNAPSHOT_VERSION`]; restore refuses anything else. Snapshots
//!   live only in memory for one migration, so no older version is ever
//!   read and a layout change is just a version bump.
//!
//! Known exclusions (documented residuals, DESIGN §17): the
//! interaction graph (`FiatProxy::set_interactions`), the
//! [`crate::ProxyEvent`] observer ([`crate::ProxyHook`]), and the
//! fingerprint gate (`FiatProxy::set_fingerprinter`) with its
//! per-stranger evidence windows are not captured; homes using any of
//! them must re-install them after restore, and the gate
//! re-fingerprints strangers from empty evidence.
//!
//! Version 3 layout: the [`HomeSnapshot`] fields in declaration order,
//! with the QUIC section as [`ServerImage`] itself. Each fact is stored
//! once: the audit chain is its retained entries, the 32-byte head, the
//! truncation checkpoint and ledger — not one hash per entry, since
//! restore recomputes every link and refuses a chain that does not end
//! at the stored head.

use crate::audit::AuditEntry;
use crate::classifier::EventClass;
use crate::pipeline::{AllowReason, DropReason, ProxyConfig, ProxyStats};
use fiat_net::{DnsTable, FlowKey, PacketRecord, SimTime};
use fiat_quic::ServerImage;
use serde::{Deserialize, Serialize};

/// Current snapshot layout version. Bump on any incompatible change to
/// the structs in this module; restore reads this version only.
pub const SNAPSHOT_VERSION: u32 = 3;

/// Why a snapshot could not be restored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotError {
    /// The snapshot's version field does not match [`SNAPSHOT_VERSION`].
    UnsupportedVersion(u32),
    /// The audit chain recomputed from the snapshot's entries does not
    /// end at its stored head (or a stored hash is not 32 bytes): the
    /// snapshot was tampered with or truncated and must not be resumed
    /// from.
    AuditChainInvalid,
    /// This device's state breaks an invariant the decision path relies
    /// on: its first-N window lies outside `1..=classify_at_cap`, its
    /// open event is pending with no buffered packets or
    /// quarantine-fated with no quarantine record, its quarantine record
    /// is empty or over `quarantine_capacity`, or its record is past
    /// `max_quarantine_records` (counting records in device-id order).
    /// Resuming it would forward unproven packets past the cap, hold
    /// more state than the live path allows, or panic on the device's
    /// next packet.
    InconsistentDevice(u16),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (expected {SNAPSHOT_VERSION})"
                )
            }
            SnapshotError::AuditChainInvalid => write!(f, "audit chain failed verification"),
            SnapshotError::InconsistentDevice(d) => {
                write!(f, "device {d}: state inconsistent with the decision path")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Full decision state of one home's proxy (see the module docs).
///
/// Compare snapshots through their serialized bytes (the canonical,
/// deterministic form) — `DnsTable` has no structural equality.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HomeSnapshot {
    /// Layout version ([`SNAPSHOT_VERSION`]).
    pub version: u32,
    /// When the proxy started (bootstrap anchor).
    pub started_at: Option<SimTime>,
    /// Humanness-proof freshness horizon.
    pub human_valid_until: SimTime,
    /// Handshake server-random counter (continues unique randoms).
    pub server_random_counter: u64,
    /// Whether the proxy was in control-plane degraded mode.
    pub degraded: bool,
    /// DNS knowledge (serialized sorted by IP; interner ids rebuilt on
    /// load).
    pub dns: DnsTable,
    /// Bootstrap capture, when the snapshot predates rule learning.
    pub bootstrap_buffer: Vec<PacketRecord>,
    /// Learned rules in stringly-keyed form, in LRU order
    /// (least-recently-matched first, the eviction order); `None` when
    /// bootstrap had not completed. Restored by re-interning against the
    /// restored [`HomeSnapshot::dns`].
    pub rules: Option<Vec<(u16, FlowKey)>>,
    /// Evicted-rule ghosts in LRU order (re-learn candidates; empty when
    /// no rule has been evicted or bootstrap had not completed).
    pub rule_ghosts: Vec<GhostSnapshot>,
    /// Unknown devices already audited fail-open, sorted.
    pub unknown_seen: Vec<u16>,
    /// Per-device decision state, sorted by device id.
    pub devices: Vec<DeviceSnapshot>,
    /// Quarantine releases not yet drained by the interception layer.
    pub released_packets: Vec<PacketRecord>,
    /// Decision counters so far.
    pub stats: ProxyStats,
    /// Audit entries. When the chain was checkpoint-truncated this is
    /// the retained suffix.
    pub audit_entries: Vec<AuditEntry>,
    /// Chain head ([`crate::audit::AuditLog::head`], 32 bytes, stored as
    /// `Vec<u8>` because the vendored serde has no fixed-array impls);
    /// `None` for a log that never held an entry. Restore recomputes
    /// the chain from the entries and requires it to end here.
    pub audit_head: Option<Vec<u8>>,
    /// Chain hash of the last truncated-away audit entry (32 bytes), if
    /// the log has ever been checkpoint-truncated; the suffix verifies
    /// from this anchor instead of genesis.
    pub audit_checkpoint: Option<Vec<u8>>,
    /// How many audit entries were truncated away before the retained
    /// suffix.
    pub audit_truncated: u64,
    /// QUIC server state (ticket issuance + epoch-keyed replay window).
    pub quic: ServerImage,
}

/// One device's decision state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceSnapshot {
    /// Device id.
    pub device: u16,
    /// First-N window (already clamped at registration).
    pub classify_at: usize,
    /// Open unpredictable event, if any.
    pub open: Option<OpenEvent>,
    /// Sliding-window unverified-drop episode times, oldest first.
    pub drops: Vec<SimTime>,
    /// Brute-force lockout flag.
    pub locked: bool,
    /// Pending-verdict quarantine record, if any.
    pub quarantine: Option<QuarantineRecord>,
}

impl DeviceSnapshot {
    /// Whether the device keeps the invariants the live path holds: the
    /// first-N window is one registration could have produced (within
    /// `1..=max(classify_at_cap, 1)`), a pending event has buffered the packets
    /// its classification reads but not yet reached its classification
    /// point (`1..classify_at` packets), a quarantine-fated event has the
    /// record its later packets join, and a quarantine record holds
    /// `1..=max(quarantine_capacity, 1)` packets.
    pub(crate) fn is_consistent(&self, config: &ProxyConfig) -> bool {
        if !(1..=config.classify_at_cap.max(1)).contains(&self.classify_at) {
            return false;
        }
        if let Some(q) = &self.quarantine {
            if !(1..=config.quarantine_capacity.max(1)).contains(&q.packets.len()) {
                return false;
            }
        }
        match &self.open {
            Some(e) if e.fate.is_none() => (1..self.classify_at).contains(&e.packets.len()),
            Some(e) if e.fate == Some(EventFate::Quarantine) => self.quarantine.is_some(),
            _ => true,
        }
    }
}

/// An open unpredictable event (live proxy state and its serialized
/// form alike).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpenEvent {
    /// Packets accumulated while the verdict is pending.
    pub packets: Vec<PacketRecord>,
    /// High-water timestamp (event-gap anchor).
    pub last: SimTime,
    /// Sealed fate, once classified.
    pub fate: Option<EventFate>,
}

/// The sealed verdict of an open event, applied to its later packets.
/// It carries the verdict's reason so every later packet of the event
/// is attributed to it (NonManual / ManualVerified / Cascade /
/// QuarantineReleased) or to the demotion that sealed it, not lumped
/// under a single label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventFate {
    /// Remaining packets allowed for this reason.
    AllowRest(AllowReason),
    /// Remaining packets dropped for this reason.
    DropRest(DropReason),
    /// Verdict pending: further packets join the quarantine record.
    Quarantine,
}

/// One evicted rule's re-learn ("ghost") state, stringly keyed like
/// [`HomeSnapshot::rules`] and re-interned on restore.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GhostSnapshot {
    /// Device id the evicted rule belonged to.
    pub device: u16,
    /// The evicted rule's flow key.
    pub key: FlowKey,
    /// Timestamp of the last packet seen on this ghost, if any.
    pub last_ts: Option<SimTime>,
    /// Tolerance bin of the last observed inter-arrival, if any.
    pub last_bin: Option<u64>,
}

/// A manual-classified event held pending its humanness proof. At most
/// one per device: the proxy quarantines the first unproven manual
/// event and demotes concurrent ones immediately, bounding held memory
/// to `quarantine_capacity` packets per device. The record outlives its
/// open event (the proof may arrive after the event-gap closes it) and
/// resolves lazily — released when a proof lands before `deadline`,
/// expired by the first operation that observes `now > deadline`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuarantineRecord {
    /// Held packets.
    pub packets: Vec<PacketRecord>,
    /// Class the event was given at its classification point.
    pub class: EventClass,
    /// Proof deadline.
    pub deadline: SimTime,
}
