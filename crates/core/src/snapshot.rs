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
//! - **Versioned.** [`HomeSnapshot::version`] must equal
//!   [`SNAPSHOT_VERSION`]; restore refuses anything else rather than
//!   guessing at a foreign layout.
//!
//! Known exclusions (documented residuals, DESIGN §17): the
//! interaction graph (`FiatProxy::set_interactions`), any installed
//! [`crate::ProxyHook`], and the fingerprint gate
//! (`FiatProxy::set_fingerprinter`) with its per-stranger evidence
//! windows are not captured; homes using any of them must re-install
//! them after restore, and the gate re-fingerprints strangers from
//! empty evidence.
//!
//! v2 (bounded-state, DESIGN §18) additions over v1: rules are emitted
//! in LRU order (least-recently-matched first) instead of sorted, so
//! eviction order survives the round trip; [`GhostSnapshot`]s carry the
//! evicted-rule re-learn state; and the audit section gains
//! [`HomeSnapshot::audit_checkpoint`] / [`HomeSnapshot::audit_truncated`]
//! so a checkpoint-truncated chain restores verifiably from its
//! checkpoint head rather than genesis.

use crate::audit::AuditEntry;
use crate::classifier::EventClass;
use crate::pipeline::{AllowReason, DropReason, ProxyStats};
use fiat_net::{DnsTable, FlowKey, PacketRecord, SimTime};
use fiat_quic::{ReplayEpochImage, ReplayImage, ServerImage};
use serde::{Deserialize, Serialize};

/// Current snapshot layout version. Bump on any incompatible change to
/// the structs in this module.
pub const SNAPSHOT_VERSION: u32 = 2;

/// Why a snapshot could not be restored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotError {
    /// The snapshot's version field does not match [`SNAPSHOT_VERSION`].
    UnsupportedVersion(u32),
    /// The exported audit chain fails verification: the snapshot was
    /// tampered with or truncated and must not be resumed from.
    AuditChainInvalid,
    /// This device's state breaks an invariant the decision path relies
    /// on: its first-N window lies outside `1..=classify_at_cap`, or its
    /// open event is pending with no buffered packets, or
    /// quarantine-fated with no quarantine record. Resuming it would
    /// forward unproven packets past the cap, or panic on the device's
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
    /// Audit entries, parallel to [`HomeSnapshot::audit_hashes`]. When
    /// the chain was checkpoint-truncated this is the retained suffix.
    pub audit_entries: Vec<AuditEntry>,
    /// Audit chain hashes, 32 bytes each (stored as `Vec<u8>` because
    /// the vendored serde has no fixed-array impls); restore re-verifies
    /// the chain and rejects malformed lengths.
    pub audit_hashes: Vec<Vec<u8>>,
    /// Chain hash of the last truncated-away audit entry (32 bytes), if
    /// the log has ever been checkpoint-truncated; the suffix verifies
    /// from this anchor instead of genesis.
    pub audit_checkpoint: Option<Vec<u8>>,
    /// How many audit entries were truncated away before the retained
    /// suffix.
    pub audit_truncated: u64,
    /// QUIC server state (ticket issuance + epoch-keyed replay window).
    pub quic: QuicServerSnapshot,
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
    /// its classification reads, and a quarantine-fated event has the
    /// record its later packets join.
    pub(crate) fn is_consistent(&self, classify_at_cap: usize) -> bool {
        if !(1..=classify_at_cap.max(1)).contains(&self.classify_at) {
            return false;
        }
        match &self.open {
            Some(e) if e.fate.is_none() => !e.packets.is_empty(),
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

/// QUIC server state: ticket issuance counter, current epoch, and the
/// epoch-keyed anti-replay store (serde mirror of
/// [`fiat_quic::ServerImage`] — the quic crate itself stays serde-free).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuicServerSnapshot {
    /// Next session-ticket id to issue.
    pub next_ticket_id: u64,
    /// Epoch new tickets are issued under.
    pub current_epoch: u32,
    /// Per-epoch replay capacity cap.
    pub replay_max_tickets: Option<usize>,
    /// Epochs below this are retired.
    pub replay_retired_below: u32,
    /// Total epochs retired so far.
    pub replay_retired_count: u64,
    /// Live epochs, ascending.
    pub replay_epochs: Vec<EpochSnapshot>,
}

/// One live replay epoch.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EpochSnapshot {
    /// Epoch number.
    pub epoch: u32,
    /// Highest ticket id evicted by the capacity cap, if any.
    pub evicted_watermark: Option<u64>,
    /// `(ticket id, sorted packet numbers)` pairs, ascending by id.
    pub entries: Vec<(u64, Vec<u64>)>,
}

impl From<&ServerImage> for QuicServerSnapshot {
    fn from(img: &ServerImage) -> Self {
        QuicServerSnapshot {
            next_ticket_id: img.next_ticket_id,
            current_epoch: img.current_epoch,
            replay_max_tickets: img.replay.max_tickets,
            replay_retired_below: img.replay.retired_below,
            replay_retired_count: img.replay.retired_count,
            replay_epochs: img
                .replay
                .epochs
                .iter()
                .map(|e| EpochSnapshot {
                    epoch: e.epoch,
                    evicted_watermark: e.evicted_watermark,
                    entries: e.entries.clone(),
                })
                .collect(),
        }
    }
}

impl From<&QuicServerSnapshot> for ServerImage {
    fn from(snap: &QuicServerSnapshot) -> Self {
        ServerImage {
            next_ticket_id: snap.next_ticket_id,
            current_epoch: snap.current_epoch,
            replay: ReplayImage {
                max_tickets: snap.replay_max_tickets,
                retired_below: snap.replay_retired_below,
                retired_count: snap.replay_retired_count,
                epochs: snap
                    .replay_epochs
                    .iter()
                    .map(|e| ReplayEpochImage {
                        epoch: e.epoch,
                        evicted_watermark: e.evicted_watermark,
                        entries: e.entries.clone(),
                    })
                    .collect(),
            },
        }
    }
}
