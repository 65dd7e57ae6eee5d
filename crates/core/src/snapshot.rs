//! Versioned home state snapshots and their canonical binary encoding.
//!
//! A snapshot captures everything a [`crate::FiatProxy`] needs to
//! resume mid-trace on another process (or fleet shard): learned rules,
//! open events, the lockout and quarantine state, the epoch-keyed 0-RTT
//! replay window, and the full audit chain. The contract, enforced by the
//! fleet determinism oracle, is that snapshot → restore → resume produces
//! decisions, stats, and an audit chain byte-identical to the
//! uninterrupted run.
//!
//! Design constraints that shape the format:
//!
//! - **Deterministic bytes.** Every collection is written in one
//!   canonical order (rules and ghosts in LRU/stamp order — semantic
//!   state, since eviction follows it — devices by id, unknown devices,
//!   replay epochs, tickets and nonces ascending, DNS domains by id and
//!   entries by IP), so encoding the same state twice yields identical
//!   bytes — the property the round-trip proptest in `fiat-control`
//!   pins.
//! - **No live keys.** The QUIC 1-RTT session key is *not* serialized;
//!   a restored proxy requires clients to re-handshake for 1-RTT while
//!   0-RTT tickets (re-derivable from the pairing PSK + epoch) keep
//!   working. Classifiers are also not serialized — ML model weights are
//!   provisioning data, re-supplied by the caller at restore.
//! - **Versioned, no legacy reader.** The leading `version` must equal
//!   [`SNAPSHOT_VERSION`]; restore refuses anything else. Snapshots
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
//! One encoder writes the bytes straight from the live proxy
//! ([`FiatProxy::snapshot`]), and one reader ([`FiatProxy::restore`])
//! walks them back in the same order into the proxy's own records:
//! nothing is copied to be encoded or decoded into a go-between. The
//! live proxy keeps each device's decision state as a
//! [`DeviceSnapshot`], its quarantine record inside, so restore reads
//! each device whole. The rule table's keys are stored as it holds
//! them ([`DeviceFlowKey`]), beside the DNS table's interner their
//! domain ids index, so restore resolves and interns nothing: an
//! address hits the same rule before and after a migration.
//!
//! ## Version 5 layout
//!
//! Integers are fixed-width little-endian. A `bool` or an option tag is
//! one byte, 0 or 1 (an option's value follows a 1). An enum is a
//! one-byte tag, in the variant's declaration order, followed by its
//! payload. A list is a `u32` count, then its elements. A string is a
//! `u32` byte count, then UTF-8. Each fact is stored once: the audit
//! chain is its retained entries, the 32-byte head, the truncation
//! checkpoint and ledger — not one hash per entry, since restore
//! recomputes every link and refuses a chain that does not end at the
//! stored head. The fields follow in this order:
//!
//! | Field | Encoding |
//! |---|---|
//! | `version` | `u32` |
//! | `audit_truncated` | `u64` |
//! | `audit_checkpoint`, `audit_head` | option of 32 bytes, each |
//! | `audit_entries` | list of 16-byte records, [`AuditEntry`]'s chain input |
//! | `started_at` | option of `u64` µs |
//! | `human_valid_until`, `server_random_counter` | `u64`, each |
//! | `degraded` | bool |
//! | `dns` | list of domain strings in id order, then list of (IPv4 octets, domain id, source tag), strictly ascending by address |
//! | `bootstrap_buffer` | list of packets |
//! | `rules` | option of a list of rule keys |
//! | `rule_ghosts` | list of (rule key, option `last_ts`, option `last_bin`) |
//! | `unknown_seen` | list of `u16`, strictly ascending |
//! | `devices` | list of devices |
//! | `released_packets` | list of packets |
//! | `stats` | the 16 [`ProxyStats`] counters as `u64`, in declaration order |
//! | `quic` | `next_ticket_id` `u64`, `current_epoch` `u32`, `replay_retired_below` `u32`, `replay_retired_count` `u64`, list of (epoch `u32`, list of (ticket `u64`, list of nonce `u64`)), each list strictly ascending |
//!
//! - A **packet** is 29 bytes: `ts` `u64`, `device` `u16`, direction
//!   tag, local and remote IPv4 octets, local and remote port `u16`,
//!   transport tag, TCP flags byte, TLS tag, `size` `u16`, label tag.
//! - A **domain id** is a `u32` index into the `dns` domain strings.
//! - A **rule key** is `device` `u16`, then tag 0 (Classic: source and
//!   destination IPv4, ports `u16`, proto byte, `size` `u16`) or tag 1
//!   (PortLess: remote, proto byte, `size` `u16`, direction byte). A
//!   remote is tag 0 and a domain id, or tag 1 and IPv4 octets.
//! - A **device** is `device` `u16`, `classify_at` `u64`, an option of
//!   the open event (list of at most [`FEATURE_PACKETS`] packets,
//!   `last` `u64`, option of the fate: tag 0 allow plus reason tag, 1
//!   drop plus reason tag, 2 quarantine), the `drops` list of `u64`,
//!   `locked` bool, and an option of the quarantine record (list of
//!   packets, class tag, `deadline` `u64`).
//!
//! Restore checks each field as it reads it, except the version and the
//! rule table's repeated keys and cap, which it checks once the last
//! byte is read (the table attaches its counters to the caller's
//! registry when it accepts its keys, and a refused input touches no
//! registry). It refuses, as
//! [`SnapshotError::Corrupt`], a count larger than the bytes left could
//! hold (count × the element's smallest encoding, checked before
//! anything is sized by it), an unknown tag, a bool or option tag that
//! is not 0 or 1, invalid UTF-8, a repeated domain, a domain id at or
//! past the domain count, DNS entries, unknown devices, replay epochs,
//! tickets or nonces that do not strictly ascend, an audit record whose
//! checksum fails, an open event with more packets than its inline
//! buffer holds, and trailing bytes. It refuses what no live proxy
//! under the restoring config holds with the other
//! [`SnapshotError`] variants: an audit chain that does not verify or
//! is over `max_audit_entries`, a device that breaks the decision
//! path's invariants, a rule key held twice, ghosts without rules, and
//! rules or ghosts over `max_rules`. The version is checked after the
//! last byte, so an earlier layout's bytes are `Corrupt`. Any bytes
//! restore accepts, the restored proxy writes back exactly.

use crate::audit::{AuditEntry, AuditLog};
use crate::classifier::{EventClass, EventClassifier};
use crate::features::FEATURE_PACKETS;
use crate::pipeline::{
    AllowReason, DeviceState, DropReason, FiatProxy, ProxyConfig, ProxyStats, ProxyTelemetry,
};
use crate::predict::RuleTable;
use fiat_net::dns::DnsSource;
use fiat_net::{
    DeviceFlowKey, Direction, DnsTable, FastMap, InternedFlowKey, PacketRecord, RemoteId, SimTime,
    TcpFlags, TlsVersion, TrafficClass, Transport,
};
use fiat_quic::{ReplayEpochImage, ServerImage};
use fiat_sensors::HumannessValidator;
use std::net::Ipv4Addr;

/// Current snapshot layout version. Bump on any incompatible change to
/// the layout in this module; restore reads this version only.
pub const SNAPSHOT_VERSION: u32 = 5;

/// Why a snapshot could not be restored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotError {
    /// The bytes are not one canonical version-5 encoding (the module
    /// docs list what the reader refuses).
    Corrupt,
    /// The bytes read as one version-5 encoding, but their leading
    /// version is not [`SNAPSHOT_VERSION`].
    UnsupportedVersion(u32),
    /// The audit chain recomputed from the snapshot's entries does not
    /// end at its stored head, its truncation ledger is impossible, or
    /// it holds more entries than `max_audit_entries`: the snapshot was
    /// tampered with or truncated and must not be resumed from.
    AuditChainInvalid,
    /// This device's state breaks an invariant the decision path relies
    /// on: its id is not above the previous device's in the list (a
    /// repeated or out-of-order id), its first-N window lies outside
    /// `1..=classify_at_cap` (the cap clamped to `1..=FEATURE_PACKETS`),
    /// its open event is pending with no buffered packets or
    /// quarantine-fated with no quarantine record, its
    /// quarantine record is empty or over `quarantine_capacity`, or its
    /// record is past `max_quarantine_records` (counting records in list
    /// order). Resuming it would forward unproven packets past the cap,
    /// hold more state than the live path allows, drop one of two
    /// records, or panic on the device's next packet.
    InconsistentDevice(u16),
    /// A key is repeated among the rules and ghosts, ghosts come without
    /// rules, or the rules or the ghosts are more than `max_rules`: the
    /// live table holds each key once, as a rule or a ghost, no ghosts
    /// before it is learned, and at most its cap of each.
    InconsistentRules,
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Corrupt => write!(f, "snapshot bytes did not parse"),
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
            SnapshotError::InconsistentRules => {
                write!(f, "repeated rule key, stray ghosts or rules over the cap")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// One device's decision state: the live proxy's own record of the
/// device (beside its classifier), not a copy made for the snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSnapshot {
    /// Device id.
    pub device: u16,
    /// First-N window (already clamped at registration).
    pub classify_at: usize,
    /// Open unpredictable event, if any.
    pub open: Option<OpenEvent>,
    /// Sliding-window unverified-drop episode times, oldest first,
    /// pruned from the front as they leave the lockout window.
    pub drops: Vec<SimTime>,
    /// Brute-force lockout flag.
    pub locked: bool,
    /// Pending-verdict quarantine record, if any.
    pub quarantine: Option<QuarantineRecord>,
}

impl DeviceSnapshot {
    /// Whether the device keeps the invariants the live path holds: the
    /// first-N window is one registration could have produced (within
    /// `1..=classify_at_cap`, the cap clamped to `1..=FEATURE_PACKETS`),
    /// a pending event has buffered the packets its classification reads
    /// but not yet reached its classification point (`1..classify_at`
    /// packets), a quarantine-fated event has the
    /// record its later packets join, and a quarantine record holds
    /// `1..=max(quarantine_capacity, 1)` packets.
    pub(crate) fn is_consistent(&self, config: &ProxyConfig) -> bool {
        if !(1..=config.max_classify_at()).contains(&self.classify_at) {
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
#[derive(Debug, Clone, PartialEq)]
pub struct OpenEvent {
    /// Packets accumulated while the verdict is pending.
    pub packets: EventPackets,
    /// High-water timestamp (event-gap anchor).
    pub last: SimTime,
    /// Sealed fate, once classified.
    pub fate: Option<EventFate>,
}

/// An open event's buffered packets, held inline: at most
/// [`FEATURE_PACKETS`], all the classifier reads. The live path never
/// needs more — a pending event holds fewer than its `classify_at`
/// packets (at most `FEATURE_PACKETS`, see `ProxyConfig::classify_at_cap`),
/// and pushes stop once its fate is sealed — so buffering a packet
/// never touches the heap. Dereferences to the buffered packets.
#[derive(Clone)]
pub struct EventPackets {
    len: usize,
    buf: [PacketRecord; FEATURE_PACKETS],
}

/// What the unused slots of an [`EventPackets`] hold.
const EMPTY_SLOT: PacketRecord = PacketRecord {
    ts: SimTime::ZERO,
    device: 0,
    direction: Direction::FromDevice,
    local_ip: Ipv4Addr::UNSPECIFIED,
    remote_ip: Ipv4Addr::UNSPECIFIED,
    local_port: 0,
    remote_port: 0,
    transport: Transport::Tcp,
    tcp_flags: TcpFlags(0),
    tls: TlsVersion::None,
    size: 0,
    label: TrafficClass::Control,
};

impl EventPackets {
    /// An empty buffer.
    pub const fn new() -> Self {
        EventPackets {
            len: 0,
            buf: [EMPTY_SLOT; FEATURE_PACKETS],
        }
    }

    /// Buffer one more packet.
    ///
    /// # Panics
    ///
    /// When the buffer already holds [`FEATURE_PACKETS`] packets.
    pub fn push(&mut self, pkt: &PacketRecord) {
        self.buf[self.len].clone_from(pkt);
        self.len += 1;
    }
}

impl Default for EventPackets {
    fn default() -> Self {
        Self::new()
    }
}

impl std::ops::Deref for EventPackets {
    type Target = [PacketRecord];

    fn deref(&self) -> &[PacketRecord] {
        &self.buf[..self.len]
    }
}

impl PartialEq for EventPackets {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl std::fmt::Debug for EventPackets {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The sealed verdict of an open event, applied to its later packets.
/// It carries the verdict's reason so every later packet of the event
/// is attributed to it (NonManual / ManualVerified / Cascade /
/// QuarantineReleased) or to the demotion that sealed it, not lumped
/// under a single label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventFate {
    /// Remaining packets allowed for this reason.
    AllowRest(AllowReason),
    /// Remaining packets dropped for this reason.
    DropRest(DropReason),
    /// Verdict pending: further packets join the quarantine record.
    Quarantine,
}

/// One evicted rule's re-learn ("ghost") state, keyed like the rules
/// ([`RuleTable::snapshot`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GhostSnapshot {
    /// The evicted rule's key.
    pub key: DeviceFlowKey,
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
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantineRecord {
    /// Held packets.
    pub packets: Vec<PacketRecord>,
    /// Class the event was given at its classification point.
    pub class: EventClass,
    /// Proof deadline.
    pub deadline: SimTime,
}

/// Smallest encodings of the list elements, which bound a list's count
/// by the bytes left before anything is sized by it.
const AUDIT_LEN: usize = 16;
const PACKET_LEN: usize = 29;
/// A PortLess rule key: device, tag, remote tag and id or address,
/// proto, size, dir.
const RULE_MIN: usize = 2 + 1 + 1 + 4 + 1 + 2 + 1;
const GHOST_MIN: usize = RULE_MIN + 2;
const DEVICE_MIN: usize = 2 + 8 + 1 + 4 + 1 + 1;
const DNS_ENTRY_LEN: usize = 4 + 4 + 1;
const EPOCH_MIN: usize = 4 + 4;
const TICKET_MIN: usize = 8 + 4;

/// Tag tables: a variant's tag is its index here (declaration order).
const DIRECTIONS: [Direction; 2] = [Direction::FromDevice, Direction::ToDevice];
const TRANSPORTS: [Transport; 2] = [Transport::Tcp, Transport::Udp];
const TLS_VERSIONS: [TlsVersion; 4] = [
    TlsVersion::None,
    TlsVersion::Tls10,
    TlsVersion::Tls12,
    TlsVersion::Tls13,
];
const EVENT_CLASSES: [EventClass; 3] = [
    EventClass::Control,
    EventClass::Automated,
    EventClass::Manual,
];
const DNS_SOURCES: [DnsSource; 2] = [DnsSource::Forward, DnsSource::Reverse];

/// Where [`Writer`] puts bytes: a byte count for the sizing pass, the
/// output for the writing pass.
trait Sink {
    fn put(&mut self, bytes: &[u8]);

    /// Put the `N` bytes `f` computes; the sizing pass skips computing
    /// them.
    fn put_with<const N: usize>(&mut self, f: impl FnOnce() -> [u8; N]) {
        self.put(&f());
    }

    /// The next bytes put hold `field`. Only the structure-aware tests
    /// listen.
    fn mark(&mut self, _field: Field) {}
}

impl Sink for usize {
    fn put(&mut self, bytes: &[u8]) {
        *self += bytes.len();
    }

    fn put_with<const N: usize>(&mut self, _: impl FnOnce() -> [u8; N]) {
        *self += N;
    }
}

impl Sink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// A value the reader checks, by kind: a list or string count, an enum
/// tag with its number of variants, a bool or option tag, the bytes of
/// a domain string, or a domain id. Only the tests read a tag's variant
/// count.
#[derive(Debug, Clone, Copy)]
#[cfg_attr(not(test), allow(dead_code))]
enum Field {
    Count,
    Tag(u8),
    Bool,
    Text,
    Domain,
}

/// The encoder.
struct Writer<S> {
    out: S,
}

impl<S: Sink> Writer<S> {
    fn u8(&mut self, v: u8) {
        self.out.put(&[v]);
    }

    fn u16(&mut self, v: u16) {
        self.out.put(&v.to_le_bytes());
    }

    fn u32(&mut self, v: u32) {
        self.out.put(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.out.put(&v.to_le_bytes());
    }

    fn bool(&mut self, v: bool) {
        self.out.mark(Field::Bool);
        self.u8(u8::from(v));
    }

    fn time(&mut self, t: SimTime) {
        self.u64(t.as_micros());
    }

    fn ip(&mut self, ip: Ipv4Addr) {
        self.out.put(&ip.octets());
    }

    /// Tag `at` of an enum with `of` variants.
    fn variant(&mut self, at: u8, of: u8) {
        self.out.mark(Field::Tag(of));
        self.u8(at);
    }

    fn tag<T: PartialEq>(&mut self, all: &[T], v: &T) {
        let at = all.iter().position(|x| x == v);
        self.variant(at.expect("every variant has a tag") as u8, all.len() as u8);
    }

    fn count(&mut self, n: usize) {
        self.out.mark(Field::Count);
        self.u32(u32::try_from(n).expect("a snapshot list fits a u32 count"));
    }

    fn list<I>(&mut self, items: I, mut f: impl FnMut(&mut Self, I::Item))
    where
        I: IntoIterator<IntoIter: ExactSizeIterator>,
    {
        let items = items.into_iter();
        self.count(items.len());
        for item in items {
            f(self, item);
        }
    }

    fn opt<T>(&mut self, v: Option<T>, f: impl FnOnce(&mut Self, T)) {
        self.bool(v.is_some());
        if let Some(v) = v {
            f(self, v);
        }
    }

    fn text(&mut self, text: &str) {
        self.count(text.len());
        self.out.mark(Field::Text);
        self.out.put(text.as_bytes());
    }

    fn domain(&mut self, id: u32) {
        self.out.mark(Field::Domain);
        self.u32(id);
    }

    /// The whole layout, read from the live proxy `p`; `s` holds its
    /// collections in their encoded order.
    fn snapshot(&mut self, p: &FiatProxy, s: &Sorted) {
        let audit = p.audit();
        self.u32(SNAPSHOT_VERSION);
        self.u64(audit.truncated());
        self.opt(audit.checkpoint().as_ref(), |w, h| w.out.put(h));
        self.opt(audit.head().as_ref(), |w, h| w.out.put(h));
        self.list(audit.entries(), |w, e| w.out.put_with(|| e.encode()));
        self.opt(p.started_at, Self::time);
        self.time(p.policy.human_valid_until);
        self.u64(p.server_random_counter);
        self.bool(p.degraded);
        self.list(p.dns.domains(), |w, d| w.text(d));
        self.list(&s.dns, |w, &(ip, domain, source)| {
            w.ip(ip);
            w.domain(domain);
            w.tag(&DNS_SOURCES, &source);
        });
        self.list(&p.bootstrap_buffer, Self::packet);
        self.opt(s.rules.as_ref(), |w, (rules, _)| w.list(rules, Self::key));
        let ghosts = s.rules.as_ref().map_or(&[][..], |(_, ghosts)| ghosts);
        self.list(ghosts, |w, g| {
            w.key(&g.key);
            w.opt(g.last_ts, Self::time);
            w.opt(g.last_bin, Self::u64);
        });
        self.list(&p.unknown.seen, |w, d| w.u16(*d));
        self.list(&s.devices, |w, d| w.device(d));
        self.list(&p.quarantine.released, Self::packet);
        self.stats(p.stats());
        self.quic(&s.quic);
    }

    fn packet(&mut self, p: &PacketRecord) {
        self.time(p.ts);
        self.u16(p.device);
        self.tag(&DIRECTIONS, &p.direction);
        self.ip(p.local_ip);
        self.ip(p.remote_ip);
        self.u16(p.local_port);
        self.u16(p.remote_port);
        self.tag(&TRANSPORTS, &p.transport);
        self.u8(p.tcp_flags.0);
        self.tag(&TLS_VERSIONS, &p.tls);
        self.u16(p.size);
        self.tag(&TrafficClass::ALL, &p.label);
    }

    fn key(&mut self, key: &DeviceFlowKey) {
        self.u16(key.device);
        match key.flow {
            InternedFlowKey::Classic {
                src_ip,
                dst_ip,
                src_port,
                dst_port,
                proto,
                size,
            } => {
                self.variant(0, 2);
                self.ip(src_ip);
                self.ip(dst_ip);
                self.u16(src_port);
                self.u16(dst_port);
                self.u8(proto);
                self.u16(size);
            }
            InternedFlowKey::PortLess {
                remote,
                proto,
                size,
                dir,
            } => {
                self.variant(1, 2);
                match remote {
                    RemoteId::Domain(id) => {
                        self.variant(0, 2);
                        self.domain(id);
                    }
                    RemoteId::Ip(ip) => {
                        self.variant(1, 2);
                        self.ip(ip);
                    }
                }
                self.u8(proto);
                self.u16(size);
                self.u8(dir);
            }
        }
    }

    fn device(&mut self, d: &DeviceSnapshot) {
        self.u16(d.device);
        self.u64(d.classify_at as u64);
        self.opt(d.open.as_ref(), |w, e| {
            w.list(e.packets.iter(), Self::packet);
            w.time(e.last);
            w.opt(e.fate, |w, fate| match fate {
                EventFate::AllowRest(why) => {
                    w.variant(0, 3);
                    w.tag(&AllowReason::ALL, &why);
                }
                EventFate::DropRest(why) => {
                    w.variant(1, 3);
                    w.tag(&DropReason::ALL, &why);
                }
                EventFate::Quarantine => w.variant(2, 3),
            });
        });
        self.list(&d.drops, |w, t| w.time(*t));
        self.bool(d.locked);
        self.opt(d.quarantine.as_ref(), |w, q| {
            w.list(&q.packets, Self::packet);
            w.tag(&EVENT_CLASSES, &q.class);
            w.time(q.deadline);
        });
    }

    fn stats(&mut self, mut s: ProxyStats) {
        for field in ProxyStats::FIELDS {
            self.u64(*field(&mut s));
        }
    }

    fn quic(&mut self, q: &ServerImage) {
        self.u64(q.next_ticket_id);
        self.u32(q.current_epoch);
        self.u32(q.replay_retired_below);
        self.u64(q.replay_retired_count);
        self.list(&q.replay_epochs, |w, e| {
            w.u32(e.epoch);
            w.list(&e.entries, |w, (ticket, nonces)| {
                w.u64(*ticket);
                w.list(nonces, |w, n| w.u64(*n));
            });
        });
    }
}

/// A live proxy's collections in their encoded order (devices by id,
/// rules and ghosts in LRU order, DNS entries by address, the replay
/// image), collected once for both of [`FiatProxy::snapshot`]'s passes.
struct Sorted<'a> {
    devices: Vec<&'a DeviceSnapshot>,
    rules: Option<(Vec<DeviceFlowKey>, Vec<GhostSnapshot>)>,
    dns: Vec<(Ipv4Addr, u32, DnsSource)>,
    quic: ServerImage,
}

impl<'a> Sorted<'a> {
    fn of(p: &'a FiatProxy) -> Self {
        let mut devices: Vec<_> = p.devices.values().map(|d| &d.rec).collect();
        devices.sort_unstable_by_key(|d| d.device);
        Sorted {
            devices,
            rules: p.rules.as_ref().map(RuleTable::snapshot),
            dns: p.dns.entries(),
            quic: p.quic.to_image(),
        }
    }
}

impl FiatProxy {
    /// The proxy's full decision state as canonical version-5 bytes,
    /// written straight from live state (see the module docs): the same
    /// state always gives the same bytes. A counting pass sizes the
    /// output, so the bytes are written into one allocation.
    pub fn snapshot(&self) -> Vec<u8> {
        let sorted = Sorted::of(self);
        let mut sized = Writer { out: 0 };
        sized.snapshot(self, &sorted);
        let mut w = Writer {
            out: Vec::with_capacity(sized.out),
        };
        w.snapshot(self, &sorted);
        w.out
    }

    /// Rebuild a proxy from [`FiatProxy::snapshot`]'s bytes and resume
    /// deciding. One walk reads the bytes in layout order and checks
    /// each field as it reads it (the module docs list the checks); the
    /// proxy is built only after the last byte, so refused bytes never
    /// reach `telemetry`'s registry.
    ///
    /// `ceremony_secret` must be the secret the snapshotted proxy was
    /// paired with: the pairing PSK (and with it the per-epoch ticket
    /// secrets clients hold) is re-derived, so issued 0-RTT tickets keep
    /// working across the restore. The 1-RTT session key is deliberately
    /// not part of a snapshot — clients re-handshake for 1-RTT.
    /// `classifiers` re-supplies each device's classifier (model weights
    /// are provisioning data, not state).
    ///
    /// Restore is telemetry-silent: gauges and counters in `telemetry`
    /// are *not* replayed, because the registry that witnessed the
    /// pre-snapshot traffic already counted it. A fleet that folds the
    /// old and new registries additively gets totals byte-identical to
    /// an uninterrupted run — the invariant the fleet rebalance tests
    /// pin. The interaction graph, any hook and the fingerprint gate
    /// are not part of a snapshot; re-install them after restore if the
    /// home uses them (the gate's evidence windows restart empty).
    ///
    /// Snapshot bytes are not authenticated, so restore accepts only
    /// state a live proxy under `config` could hold, and refuses the
    /// rest with the [`SnapshotError`] that names it. The first refusal
    /// in layout order is the one reported, except that the version and
    /// the rule table are checked after the last byte.
    pub fn restore(
        config: ProxyConfig,
        ceremony_secret: &[u8; 32],
        validator: HumannessValidator,
        telemetry: ProxyTelemetry,
        bytes: &[u8],
        classifiers: impl FnMut(u16) -> EventClassifier,
    ) -> Result<FiatProxy, SnapshotError> {
        let mut r = Reader { bytes, domains: 0 };
        r.restore(config, ceremony_secret, validator, telemetry, classifiers)
    }
}

/// What a [`Reader`] read, or why the bytes are refused.
type Read<T> = Result<T, SnapshotError>;

/// `Ok(())` when `ok`, else `err`.
fn check(ok: bool, err: SnapshotError) -> Read<()> {
    ok.then_some(()).ok_or(err)
}

/// The decoder: the bytes not yet read, and how many domains the DNS
/// table holds once it is read, to refuse an id past them. A read that
/// the bytes do not hold is [`SnapshotError::Corrupt`].
struct Reader<'a> {
    bytes: &'a [u8],
    domains: u32,
}

impl<'a> Reader<'a> {
    /// The whole layout, in [`Writer::snapshot`]'s order, each field
    /// checked as it is read, then the proxy built from what was read.
    /// The rule table is built last, since it attaches its counters to
    /// `telemetry`'s registry once it accepts its keys.
    fn restore(
        &mut self,
        config: ProxyConfig,
        ceremony_secret: &[u8; 32],
        validator: HumannessValidator,
        telemetry: ProxyTelemetry,
        mut classifiers: impl FnMut(u16) -> EventClassifier,
    ) -> Read<FiatProxy> {
        use SnapshotError::{AuditChainInvalid, Corrupt, InconsistentDevice, InconsistentRules};
        let version = self.u32()?;
        let truncated = self.u64()?;
        let checkpoint = self.opt(Self::array)?;
        let head = self.opt(Self::array)?;
        let entries = self.list(AUDIT_LEN, |r| {
            AuditEntry::decode(&r.array()?).ok_or(Corrupt)
        })?;
        let max_entries = config.max_audit_entries;
        check(
            max_entries.is_none_or(|max| entries.len() <= max),
            AuditChainInvalid,
        )?;
        let mut audit = AuditLog::from_parts_at(checkpoint, truncated, entries, head)
            .ok_or(AuditChainInvalid)?;
        audit.set_max_entries(max_entries);
        let started_at = self.opt(Self::time)?;
        let human_valid_until = self.time()?;
        let server_random_counter = self.u64()?;
        let degraded = self.bool()?;
        let dns = self.dns()?;
        let bootstrap_buffer = self.list(PACKET_LEN, Self::packet)?;
        let rules = self.opt(|r| r.list(RULE_MIN, Self::key))?;
        let ghosts = self.list(GHOST_MIN, Self::ghost)?;
        check(rules.is_some() || ghosts.is_empty(), InconsistentRules)?;
        let unknown_seen = self.ascending(2, Self::u16, |&d| d)?;
        // Devices ascend by id, each is consistent, and each record is
        // within the record cap, counting in list order.
        let record_cap = config
            .max_quarantine_records
            .map_or(usize::MAX, |c| c.max(1));
        let n = self.count(DEVICE_MIN)?;
        let mut devices = FastMap::default();
        devices.reserve(n);
        let (mut prev, mut records) = (None, 0);
        for _ in 0..n {
            let rec = self.device()?;
            records += usize::from(rec.quarantine.is_some());
            let ok = prev < Some(rec.device) && rec.is_consistent(&config) && records <= record_cap;
            check(ok, InconsistentDevice(rec.device))?;
            prev = Some(rec.device);
            let classifier = classifiers(rec.device);
            devices.insert(rec.device, DeviceState { classifier, rec });
        }
        let released = self.list(PACKET_LEN, Self::packet)?;
        let stats = self.stats()?;
        let quic = self.quic()?;
        check(self.bytes.is_empty(), Corrupt)?;
        check(
            version == SNAPSHOT_VERSION,
            SnapshotError::UnsupportedVersion(version),
        )?;
        let rules = rules
            .map(|rules| {
                let (tolerance, cap) = (config.tolerance, config.max_rules);
                RuleTable::restore(&rules, &ghosts, tolerance, cap, telemetry.registry())
                    .ok_or(InconsistentRules)
            })
            .transpose()?;
        let mut proxy = FiatProxy::with_telemetry(config, ceremony_secret, validator, telemetry);
        proxy.quic.restore_image(&quic);
        proxy.rules = rules;
        proxy.devices = devices;
        proxy.policy.human_valid_until = human_valid_until;
        proxy.policy.audit = audit;
        proxy.policy.stats = stats;
        proxy.dns = dns;
        proxy.started_at = started_at;
        proxy.bootstrap_buffer = bootstrap_buffer;
        proxy.server_random_counter = server_random_counter;
        proxy.quarantine.released = released;
        proxy.unknown.seen = unknown_seen.into_iter().collect();
        proxy.degraded = degraded;
        Ok(proxy)
    }

    fn array<const N: usize>(&mut self) -> Read<[u8; N]> {
        let (head, rest) = self
            .bytes
            .split_first_chunk()
            .ok_or(SnapshotError::Corrupt)?;
        self.bytes = rest;
        Ok(*head)
    }

    fn u8(&mut self) -> Read<u8> {
        self.array().map(u8::from_le_bytes)
    }

    fn u16(&mut self) -> Read<u16> {
        self.array().map(u16::from_le_bytes)
    }

    fn u32(&mut self) -> Read<u32> {
        self.array().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Read<u64> {
        self.array().map(u64::from_le_bytes)
    }

    fn bool(&mut self) -> Read<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Corrupt),
        }
    }

    fn time(&mut self) -> Read<SimTime> {
        self.u64().map(SimTime::from_micros)
    }

    fn ip(&mut self) -> Read<Ipv4Addr> {
        self.array().map(Ipv4Addr::from)
    }

    fn tag<T: Copy>(&mut self, all: &[T]) -> Read<T> {
        let at = usize::from(self.u8()?);
        all.get(at).copied().ok_or(SnapshotError::Corrupt)
    }

    /// A list count, refused unless `count × min` bytes are left.
    fn count(&mut self, min: usize) -> Read<usize> {
        let n = usize::try_from(self.u32()?).map_err(|_| SnapshotError::Corrupt)?;
        let fits = n
            .checked_mul(min)
            .is_some_and(|len| len <= self.bytes.len());
        check(fits, SnapshotError::Corrupt).map(|()| n)
    }

    fn list<T>(&mut self, min: usize, mut f: impl FnMut(&mut Self) -> Read<T>) -> Read<Vec<T>> {
        let n = self.count(min)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(f(self)?);
        }
        Ok(out)
    }

    /// A list whose elements' `key`s strictly ascend: the one order of
    /// each set the live proxy holds, so no two encodings decode alike.
    fn ascending<T, K: Ord>(
        &mut self,
        min: usize,
        f: impl FnMut(&mut Self) -> Read<T>,
        key: impl Fn(&T) -> K,
    ) -> Read<Vec<T>> {
        let items = self.list(min, f)?;
        let ascends = items.windows(2).all(|w| key(&w[0]) < key(&w[1]));
        check(ascends, SnapshotError::Corrupt).map(|()| items)
    }

    fn opt<T>(&mut self, f: impl FnOnce(&mut Self) -> Read<T>) -> Read<Option<T>> {
        match self.bool()? {
            false => Ok(None),
            true => f(self).map(Some),
        }
    }

    fn text(&mut self) -> Read<&'a str> {
        let len = self.count(1)?;
        let (text, rest) = self.bytes.split_at(len);
        self.bytes = rest;
        std::str::from_utf8(text).map_err(|_| SnapshotError::Corrupt)
    }

    fn domain(&mut self) -> Read<u32> {
        let id = self.u32()?;
        check(id < self.domains, SnapshotError::Corrupt).map(|()| id)
    }

    fn dns(&mut self) -> Read<DnsTable> {
        let domains = self.list(4, Self::text)?;
        self.domains = u32::try_from(domains.len()).map_err(|_| SnapshotError::Corrupt)?;
        let entry = |r: &mut Self| Ok((r.ip()?, r.domain()?, r.tag(&DNS_SOURCES)?));
        let entries = self.ascending(DNS_ENTRY_LEN, entry, |e| e.0)?;
        DnsTable::from_parts(domains, entries).ok_or(SnapshotError::Corrupt)
    }

    fn packet(&mut self) -> Read<PacketRecord> {
        Ok(PacketRecord {
            ts: self.time()?,
            device: self.u16()?,
            direction: self.tag(&DIRECTIONS)?,
            local_ip: self.ip()?,
            remote_ip: self.ip()?,
            local_port: self.u16()?,
            remote_port: self.u16()?,
            transport: self.tag(&TRANSPORTS)?,
            tcp_flags: TcpFlags(self.u8()?),
            tls: self.tag(&TLS_VERSIONS)?,
            size: self.u16()?,
            label: self.tag(&TrafficClass::ALL)?,
        })
    }

    /// An open event's packet list, refused past [`FEATURE_PACKETS`]:
    /// more than the live path ever buffers.
    fn event_packets(&mut self) -> Read<EventPackets> {
        let n = self.count(PACKET_LEN)?;
        check(n <= FEATURE_PACKETS, SnapshotError::Corrupt)?;
        let mut packets = EventPackets::new();
        for _ in 0..n {
            packets.push(&self.packet()?);
        }
        Ok(packets)
    }

    fn key(&mut self) -> Read<DeviceFlowKey> {
        let device = self.u16()?;
        let flow = match self.u8()? {
            0 => InternedFlowKey::Classic {
                src_ip: self.ip()?,
                dst_ip: self.ip()?,
                src_port: self.u16()?,
                dst_port: self.u16()?,
                proto: self.u8()?,
                size: self.u16()?,
            },
            1 => InternedFlowKey::PortLess {
                remote: match self.u8()? {
                    0 => RemoteId::Domain(self.domain()?),
                    1 => RemoteId::Ip(self.ip()?),
                    _ => return Err(SnapshotError::Corrupt),
                },
                proto: self.u8()?,
                size: self.u16()?,
                dir: self.u8()?,
            },
            _ => return Err(SnapshotError::Corrupt),
        };
        Ok(DeviceFlowKey { device, flow })
    }

    fn ghost(&mut self) -> Read<GhostSnapshot> {
        Ok(GhostSnapshot {
            key: self.key()?,
            last_ts: self.opt(Self::time)?,
            last_bin: self.opt(Self::u64)?,
        })
    }

    fn device(&mut self) -> Read<DeviceSnapshot> {
        Ok(DeviceSnapshot {
            device: self.u16()?,
            classify_at: usize::try_from(self.u64()?).map_err(|_| SnapshotError::Corrupt)?,
            open: self.opt(|r| {
                Ok(OpenEvent {
                    packets: r.event_packets()?,
                    last: r.time()?,
                    fate: r.opt(|r| match r.u8()? {
                        0 => r.tag(&AllowReason::ALL).map(EventFate::AllowRest),
                        1 => r.tag(&DropReason::ALL).map(EventFate::DropRest),
                        2 => Ok(EventFate::Quarantine),
                        _ => Err(SnapshotError::Corrupt),
                    })?,
                })
            })?,
            drops: self.list(8, Self::time)?,
            locked: self.bool()?,
            quarantine: self.opt(|r| {
                Ok(QuarantineRecord {
                    packets: r.list(PACKET_LEN, Self::packet)?,
                    class: r.tag(&EVENT_CLASSES)?,
                    deadline: r.time()?,
                })
            })?,
        })
    }

    fn stats(&mut self) -> Read<ProxyStats> {
        let mut s = ProxyStats::default();
        for field in ProxyStats::FIELDS {
            *field(&mut s) = self.u64()?;
        }
        Ok(s)
    }

    fn quic(&mut self) -> Read<ServerImage> {
        Ok(ServerImage {
            next_ticket_id: self.u64()?,
            current_epoch: self.u32()?,
            replay_retired_below: self.u32()?,
            replay_retired_count: self.u64()?,
            replay_epochs: self.ascending(EPOCH_MIN, Self::epoch, |e| e.epoch)?,
        })
    }

    fn epoch(&mut self) -> Read<ReplayEpochImage> {
        let epoch = self.u32()?;
        let ticket = |r: &mut Self| Ok((r.u64()?, r.ascending(8, Self::u64, |&n| n)?));
        let entries = self.ascending(TICKET_MIN, ticket, |&(ticket, _)| ticket)?;
        Ok(ReplayEpochImage { epoch, entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fiat_net::SimDuration;

    const FIXTURE: &[u8] = include_bytes!("../tests/golden/snapshot_v5.bin");

    /// `bytes` restored under the config of the home the fixture was
    /// taken from.
    fn restored(bytes: &[u8]) -> Read<FiatProxy> {
        let config = ProxyConfig {
            proof_deadline: Some(SimDuration::from_secs(60)),
            max_rules: Some(1),
            max_audit_entries: Some(4),
            ..ProxyConfig::default()
        };
        FiatProxy::restore(
            config,
            &[0x77; 32],
            HumannessValidator::with_operating_point(1.0, 1.0, 0),
            ProxyTelemetry::default(),
            bytes,
            |_| EventClassifier::simple_rule(235),
        )
    }

    /// A sink that records where each checked value sits.
    #[derive(Default)]
    struct Fields {
        len: usize,
        marks: Vec<(usize, Field)>,
    }

    impl Sink for Fields {
        fn put(&mut self, bytes: &[u8]) {
            self.len += bytes.len();
        }

        fn mark(&mut self, field: Field) {
            self.marks.push((self.len, field));
        }
    }

    /// `FIXTURE` with `value` written over the bytes at `at`.
    fn edited(at: usize, value: &[u8]) -> Vec<u8> {
        let mut bytes = FIXTURE.to_vec();
        bytes[at..at + value.len()].copy_from_slice(value);
        bytes
    }

    #[test]
    fn every_value_edit_is_refused() {
        // Walk the fixture home's structure: every count, tag, bool,
        // domain string and domain id the encoder wrote, at its offset.
        let home = restored(FIXTURE).expect("the fixture restores");
        let domains = home.dns.domains().len() as u32;
        let mut w = Writer {
            out: Fields::default(),
        };
        w.snapshot(&home, &Sorted::of(&home));
        assert_eq!(w.out.len, FIXTURE.len());
        let mut seen = Vec::new();
        for &(at, field) in &w.out.marks {
            let edits = match field {
                // Past any count the bytes left could hold: the whole
                // range, and one more element than bytes remain.
                Field::Count => {
                    let left = (FIXTURE.len() - at - 4) as u32;
                    vec![
                        edited(at, &u32::MAX.to_le_bytes()),
                        edited(at, &(left + 1).to_le_bytes()),
                    ]
                }
                Field::Tag(of) => vec![edited(at, &[of])],
                Field::Bool => vec![edited(at, &[2])],
                // 0xFF never occurs in UTF-8.
                Field::Text => vec![edited(at, &[0xFF])],
                // An id past the domains is refused; the last domain's
                // reads. The marks include a rule's and a ghost's.
                Field::Domain => {
                    let last = edited(at, &(domains - 1).to_le_bytes());
                    let err = restored(&last).err();
                    assert_ne!(err, Some(SnapshotError::Corrupt), "id at byte {at}");
                    vec![
                        edited(at, &domains.to_le_bytes()),
                        edited(at, &u32::MAX.to_le_bytes()),
                    ]
                }
            };
            for bytes in edits {
                assert_eq!(
                    restored(&bytes).err(),
                    Some(SnapshotError::Corrupt),
                    "{field:?} edit at byte {at}"
                );
            }
            let kind = std::mem::discriminant(&field);
            if !seen.contains(&kind) {
                seen.push(kind);
            }
        }
        assert_eq!(seen.len(), 5, "the fixture holds every kind of field");
    }

    #[test]
    fn only_the_canonical_encoding_restores() {
        let mut home = restored(FIXTURE).expect("the fixture restores");
        let mut dns = DnsTable::new();
        dns.observe_forward(Ipv4Addr::new(1, 1, 1, 1), "a.example");
        dns.observe_reverse(Ipv4Addr::new(2, 2, 2, 2), "b.example");
        home.set_dns(dns);
        let bytes = home.snapshot();
        assert_eq!(restored(&bytes).expect("restores").snapshot(), bytes);
        let find = |needle: &[u8]| bytes.windows(needle.len()).position(|w| w == needle);
        let refused = |at: usize, value: &[u8]| {
            let mut edited = bytes.clone();
            edited[at..at + value.len()].copy_from_slice(value);
            restored(&edited).err() == Some(SnapshotError::Corrupt)
        };
        // A repeated domain.
        assert!(refused(find(b"b.example").unwrap(), b"a.example"));
        // The entry count follows the last domain; each entry is its
        // address, domain id and source tag.
        let first = find(b"b.example").unwrap() + b"b.example".len() + 4;
        assert_eq!(bytes[first..first + 9], [1, 1, 1, 1, 0, 0, 0, 0, 0]);
        // An entry's domain id past the two domains.
        assert!(!refused(first + 4, &1u32.to_le_bytes()));
        assert!(refused(first + 4, &2u32.to_le_bytes()));
        // DNS entries that do not ascend by address.
        let second = first + 9;
        assert_eq!(bytes[second..second + 4], [2, 2, 2, 2]);
        assert!(refused(second, &[1, 1, 1, 1]));
        assert!(refused(second, &[0, 0, 0, 1]));
        // Trailing bytes.
        let mut longer = bytes.clone();
        longer.push(0);
        assert_eq!(restored(&longer).err(), Some(SnapshotError::Corrupt));
    }

    #[test]
    fn restore_refuses_repeated_or_out_of_order_device_ids() {
        // The live path writes each device once, in ascending id order.
        // A repeated id would silently keep one of its two records, and
        // the record cap counts records in list order. The edits rewrite
        // the fixture's device list in another order.
        let home = restored(FIXTURE).expect("the fixture restores");
        let devices = Sorted::of(&home).devices;
        let ids: Vec<u16> = devices.iter().map(|d| d.device).collect();
        assert_eq!(ids, [0, 1, 2]);
        let list = |order: &[usize]| {
            let mut w = Writer { out: Vec::new() };
            w.list(order, |w, &i| w.device(devices[i]));
            w.out
        };
        let whole = list(&[0, 1, 2]);
        let at = FIXTURE.windows(whole.len()).position(|w| *w == whole[..]);
        let at = at.expect("the device list");
        let reordered = |order: &[usize]| {
            let rest = &FIXTURE[at + whole.len()..];
            restored(&[&FIXTURE[..at], &list(order), rest].concat()).err()
        };
        assert_eq!(reordered(&[0, 1, 2]), None);
        let repeated = reordered(&[0, 1, 1, 2]);
        assert_eq!(repeated, Some(SnapshotError::InconsistentDevice(1)));
        let swapped = reordered(&[1, 0, 2]);
        assert_eq!(swapped, Some(SnapshotError::InconsistentDevice(0)));
    }

    #[test]
    fn an_open_event_longer_than_the_feature_window_is_refused() {
        // A device record with a pending open event of `n` packets, as
        // the encoder lays it out.
        let device = |n: usize| {
            let packets = vec![EMPTY_SLOT; n];
            let mut w = Writer { out: Vec::new() };
            w.u16(3);
            w.u64(FEATURE_PACKETS as u64);
            w.bool(true);
            w.list(&packets, Writer::packet);
            w.time(SimTime::from_secs(9));
            w.bool(false);
            w.list(&[], |w, t| w.time(*t));
            w.bool(false);
            w.bool(false);
            w.out
        };
        let read = |bytes: &[u8]| Reader { bytes, domains: 0 }.device();
        let five = read(&device(FEATURE_PACKETS)).expect("a full window decodes");
        assert_eq!(five.open.unwrap().packets.len(), FEATURE_PACKETS);
        assert!(read(&device(FEATURE_PACKETS + 1)).is_err());
    }

    #[test]
    fn tag_tables_follow_declaration_order() {
        // The v5 tags are the variants' declaration order, which is also
        // their discriminant order.
        assert!(DIRECTIONS.iter().enumerate().all(|(i, &v)| v as usize == i));
        assert!(TRANSPORTS.iter().enumerate().all(|(i, &v)| v as usize == i));
        assert!(TLS_VERSIONS
            .iter()
            .enumerate()
            .all(|(i, &v)| v as usize == i));
        assert!(EVENT_CLASSES
            .iter()
            .enumerate()
            .all(|(i, &v)| v as usize == i));
        assert!(DNS_SOURCES
            .iter()
            .enumerate()
            .all(|(i, &v)| v as usize == i));
        assert!(TrafficClass::ALL
            .iter()
            .enumerate()
            .all(|(i, &v)| v as usize == i));
        assert!(AllowReason::ALL
            .iter()
            .enumerate()
            .all(|(i, &v)| v as usize == i));
        assert!(DropReason::ALL
            .iter()
            .enumerate()
            .all(|(i, &v)| v as usize == i));
    }
}
