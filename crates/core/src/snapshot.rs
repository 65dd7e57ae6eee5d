//! Versioned home state snapshots and their canonical binary encoding.
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
//! One encoder writes the bytes straight from the live proxy
//! ([`FiatProxy::snapshot`]): nothing is copied to be encoded.
//! [`HomeSnapshot`] is what [`HomeSnapshot::from_bytes`] decodes and
//! [`FiatProxy::restore`] consumes. The live proxy keeps each
//! device's decision state as a [`DeviceSnapshot`], its quarantine
//! record inside, so restore moves each device in whole. The rule
//! table's keys are stored as it holds them ([`DeviceFlowKey`]), beside
//! the DNS table's interner their domain ids index, so restore resolves
//! and interns nothing: an address hits the same rule before and after a
//! migration.
//!
//! ## Version 5 layout
//!
//! [`FiatProxy::snapshot`] writes one canonical binary encoding
//! and [`HomeSnapshot::from_bytes`] reads it back. Integers are fixed-width
//! little-endian. A `bool` or an option tag is one byte, 0 or 1 (an
//! option's value follows a 1). An enum is a one-byte tag, in the
//! variant's declaration order, followed by its payload. A list is a
//! `u32` count, then its elements. A string is a `u32` byte count, then
//! UTF-8. Each fact is stored once: the audit chain is its retained
//! entries, the 32-byte head, the truncation checkpoint and ledger — not
//! one hash per entry, since restore recomputes every link and refuses a
//! chain that does not end at the stored head. The fields follow in
//! [`HomeSnapshot`]'s declaration order:
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
//! The reader checks every count against the bytes left (count × the
//! element's smallest encoding) before it sizes anything by it. It
//! refuses an unknown tag, a bool or option tag that is not 0 or 1,
//! invalid UTF-8, a repeated domain, a domain id at or past the domain
//! count, DNS entries, unknown devices, replay epochs, tickets or nonces
//! that do not strictly ascend, an audit record whose checksum fails,
//! an open event with more packets than its inline buffer holds, and
//! trailing bytes. The reader checks shape only; every semantic check
//! (version, audit chain, device invariants, repeated rule keys, caps)
//! is [`FiatProxy::restore`]'s. Together they are canonical: any
//! bytes restore accepts, the restored proxy writes back (except rules
//! or audit entries over the config's caps, which restore trims).

use crate::audit::AuditEntry;
use crate::classifier::EventClass;
use crate::features::FEATURE_PACKETS;
use crate::pipeline::{AllowReason, DropReason, FiatProxy, ProxyConfig, ProxyStats};
use crate::predict::RuleTable;
use fiat_net::dns::DnsSource;
use fiat_net::{
    DeviceFlowKey, Direction, DnsTable, InternedFlowKey, PacketRecord, RemoteId, SimTime, TcpFlags,
    TlsVersion, TrafficClass, Transport,
};
use fiat_quic::{ReplayEpochImage, ServerImage};
use std::net::Ipv4Addr;

/// Current snapshot layout version. Bump on any incompatible change to
/// the structs in this module; restore reads this version only.
pub const SNAPSHOT_VERSION: u32 = 5;

/// Why a snapshot could not be restored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotError {
    /// The snapshot's version field does not match [`SNAPSHOT_VERSION`].
    UnsupportedVersion(u32),
    /// The audit chain recomputed from the snapshot's entries does not
    /// end at its stored head, or its truncation ledger is impossible:
    /// the snapshot was tampered with or truncated and must not be
    /// resumed from.
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
    /// A key is repeated among the rules and ghosts, or ghosts come
    /// without rules: the live table holds each key once, as a rule or a
    /// ghost, and no ghosts before it is learned.
    InconsistentRules,
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
            SnapshotError::InconsistentRules => write!(f, "repeated rule key or stray ghosts"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Full decision state of one home's proxy, as
/// [`HomeSnapshot::from_bytes`] decodes it and
/// [`FiatProxy::restore`] consumes it (see the module docs).
///
/// Compare homes through the bytes [`FiatProxy::snapshot`] writes
/// (the canonical form) — `DnsTable` has no structural equality.
#[derive(Debug, Clone)]
pub struct HomeSnapshot {
    /// Layout version ([`SNAPSHOT_VERSION`]).
    pub version: u32,
    /// How many audit entries were truncated away before the retained
    /// suffix.
    pub audit_truncated: u64,
    /// Chain hash of the last truncated-away audit entry, if the log has
    /// ever been checkpoint-truncated; the suffix verifies from this
    /// anchor instead of genesis.
    pub audit_checkpoint: Option<[u8; 32]>,
    /// Chain head ([`crate::audit::AuditLog::head`]); `None` for a log
    /// that never held an entry. Restore recomputes the chain from the
    /// entries and requires it to end here.
    pub audit_head: Option<[u8; 32]>,
    /// Audit entries. When the chain was checkpoint-truncated this is
    /// the retained suffix.
    pub audit_entries: Vec<AuditEntry>,
    /// When the proxy started (bootstrap anchor).
    pub started_at: Option<SimTime>,
    /// Humanness-proof freshness horizon.
    pub human_valid_until: SimTime,
    /// Handshake server-random counter (continues unique randoms).
    pub server_random_counter: u64,
    /// Whether the proxy was in control-plane degraded mode.
    pub degraded: bool,
    /// DNS knowledge with its interner, whose domain ids the rule keys
    /// use (encoded as its domains in id order and its entries sorted
    /// by IP; restore keeps every id).
    pub dns: DnsTable,
    /// Bootstrap capture, when the snapshot predates rule learning.
    pub bootstrap_buffer: Vec<PacketRecord>,
    /// Learned rules, keyed as the rule table keys them (PortLess
    /// remotes by [`HomeSnapshot::dns`] domain id or unresolved
    /// address), in LRU order (least-recently-matched first, the
    /// eviction order); `None` when bootstrap had not completed.
    pub rules: Option<Vec<DeviceFlowKey>>,
    /// Evicted-rule ghosts in LRU order (re-learn candidates; empty when
    /// no rule has been evicted or bootstrap had not completed).
    pub rule_ghosts: Vec<GhostSnapshot>,
    /// Unknown devices already audited fail-open, sorted.
    pub unknown_seen: Vec<u16>,
    /// Per-device decision state, strictly ascending by device id.
    pub devices: Vec<DeviceSnapshot>,
    /// Quarantine releases not yet drained by the interception layer.
    pub released_packets: Vec<PacketRecord>,
    /// Decision counters so far.
    pub stats: ProxyStats,
    /// QUIC server state (ticket issuance + epoch-keyed replay window).
    pub quic: ServerImage,
}

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

/// One evicted rule's re-learn ("ghost") state, keyed like
/// [`HomeSnapshot::rules`].
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

impl HomeSnapshot {
    /// Read [`FiatProxy::snapshot`]'s encoding back. `None` when the
    /// bytes are not exactly one canonical encoding (the module docs list
    /// what the reader refuses). Whether the decoded state may be resumed
    /// from is [`FiatProxy::restore`]'s decision.
    pub fn from_bytes(bytes: &[u8]) -> Option<HomeSnapshot> {
        let mut r = Reader { bytes, domains: 0 };
        let snap = HomeSnapshot {
            version: r.u32()?,
            audit_truncated: r.u64()?,
            audit_checkpoint: r.opt(Reader::array)?,
            audit_head: r.opt(Reader::array)?,
            audit_entries: r.list(AUDIT_LEN, |r| AuditEntry::decode(&r.array()?))?,
            started_at: r.opt(Reader::time)?,
            human_valid_until: r.time()?,
            server_random_counter: r.u64()?,
            degraded: r.bool()?,
            dns: r.dns()?,
            bootstrap_buffer: r.list(PACKET_LEN, Reader::packet)?,
            rules: r.opt(|r| r.list(RULE_MIN, Reader::key))?,
            rule_ghosts: r.list(GHOST_MIN, Reader::ghost)?,
            unknown_seen: r.ascending(2, Reader::u16, |&d| d)?,
            devices: r.list(DEVICE_MIN, Reader::device)?,
            released_packets: r.list(PACKET_LEN, Reader::packet)?,
            stats: r.stats()?,
            quic: r.quic()?,
        };
        r.bytes.is_empty().then_some(snap)
    }
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
}

/// The decoder: the bytes not yet read, and how many domains the DNS
/// table holds once it is read, to refuse an id past them.
struct Reader<'a> {
    bytes: &'a [u8],
    domains: u32,
}

impl<'a> Reader<'a> {
    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        let (head, rest) = self.bytes.split_first_chunk()?;
        self.bytes = rest;
        Some(*head)
    }

    fn u8(&mut self) -> Option<u8> {
        self.array().map(u8::from_le_bytes)
    }

    fn u16(&mut self) -> Option<u16> {
        self.array().map(u16::from_le_bytes)
    }

    fn u32(&mut self) -> Option<u32> {
        self.array().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Option<u64> {
        self.array().map(u64::from_le_bytes)
    }

    fn bool(&mut self) -> Option<bool> {
        match self.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    fn time(&mut self) -> Option<SimTime> {
        self.u64().map(SimTime::from_micros)
    }

    fn ip(&mut self) -> Option<Ipv4Addr> {
        self.array().map(Ipv4Addr::from)
    }

    fn tag<T: Copy>(&mut self, all: &[T]) -> Option<T> {
        all.get(usize::from(self.u8()?)).copied()
    }

    /// A list count, refused unless `count × min` bytes are left.
    fn count(&mut self, min: usize) -> Option<usize> {
        let n = usize::try_from(self.u32()?).ok()?;
        (n.checked_mul(min)? <= self.bytes.len()).then_some(n)
    }

    fn list<T>(&mut self, min: usize, mut f: impl FnMut(&mut Self) -> Option<T>) -> Option<Vec<T>> {
        let n = self.count(min)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(f(self)?);
        }
        Some(out)
    }

    /// A list whose elements' `key`s strictly ascend: the one order of
    /// each set the live proxy holds, so no two encodings decode alike.
    fn ascending<T, K: Ord>(
        &mut self,
        min: usize,
        f: impl FnMut(&mut Self) -> Option<T>,
        key: impl Fn(&T) -> K,
    ) -> Option<Vec<T>> {
        let items = self.list(min, f)?;
        items
            .windows(2)
            .all(|w| key(&w[0]) < key(&w[1]))
            .then_some(items)
    }

    fn opt<T>(&mut self, f: impl FnOnce(&mut Self) -> Option<T>) -> Option<Option<T>> {
        match self.bool()? {
            false => Some(None),
            true => f(self).map(Some),
        }
    }

    fn text(&mut self) -> Option<&'a str> {
        let len = self.count(1)?;
        let (text, rest) = self.bytes.split_at(len);
        self.bytes = rest;
        std::str::from_utf8(text).ok()
    }

    fn domain(&mut self) -> Option<u32> {
        self.u32().filter(|&id| id < self.domains)
    }

    fn dns(&mut self) -> Option<DnsTable> {
        let domains = self.list(4, Self::text)?;
        self.domains = u32::try_from(domains.len()).ok()?;
        let entry = |r: &mut Self| Some((r.ip()?, r.domain()?, r.tag(&DNS_SOURCES)?));
        DnsTable::from_parts(domains, self.ascending(DNS_ENTRY_LEN, entry, |e| e.0)?)
    }

    fn packet(&mut self) -> Option<PacketRecord> {
        Some(PacketRecord {
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
    fn event_packets(&mut self) -> Option<EventPackets> {
        let n = self.count(PACKET_LEN)?;
        if n > FEATURE_PACKETS {
            return None;
        }
        let mut packets = EventPackets::new();
        for _ in 0..n {
            packets.push(&self.packet()?);
        }
        Some(packets)
    }

    fn key(&mut self) -> Option<DeviceFlowKey> {
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
                    _ => return None,
                },
                proto: self.u8()?,
                size: self.u16()?,
                dir: self.u8()?,
            },
            _ => return None,
        };
        Some(DeviceFlowKey { device, flow })
    }

    fn ghost(&mut self) -> Option<GhostSnapshot> {
        Some(GhostSnapshot {
            key: self.key()?,
            last_ts: self.opt(Self::time)?,
            last_bin: self.opt(Self::u64)?,
        })
    }

    fn device(&mut self) -> Option<DeviceSnapshot> {
        Some(DeviceSnapshot {
            device: self.u16()?,
            classify_at: usize::try_from(self.u64()?).ok()?,
            open: self.opt(|r| {
                Some(OpenEvent {
                    packets: r.event_packets()?,
                    last: r.time()?,
                    fate: r.opt(|r| match r.u8()? {
                        0 => r.tag(&AllowReason::ALL).map(EventFate::AllowRest),
                        1 => r.tag(&DropReason::ALL).map(EventFate::DropRest),
                        2 => Some(EventFate::Quarantine),
                        _ => None,
                    })?,
                })
            })?,
            drops: self.list(8, Self::time)?,
            locked: self.bool()?,
            quarantine: self.opt(|r| {
                Some(QuarantineRecord {
                    packets: r.list(PACKET_LEN, Self::packet)?,
                    class: r.tag(&EVENT_CLASSES)?,
                    deadline: r.time()?,
                })
            })?,
        })
    }

    fn stats(&mut self) -> Option<ProxyStats> {
        let mut s = ProxyStats::default();
        for field in ProxyStats::FIELDS {
            *field(&mut s) = self.u64()?;
        }
        Some(s)
    }

    fn quic(&mut self) -> Option<ServerImage> {
        Some(ServerImage {
            next_ticket_id: self.u64()?,
            current_epoch: self.u32()?,
            replay_retired_below: self.u32()?,
            replay_retired_count: self.u64()?,
            replay_epochs: self.ascending(EPOCH_MIN, Self::epoch, |e| e.epoch)?,
        })
    }

    fn epoch(&mut self) -> Option<ReplayEpochImage> {
        let epoch = self.u32()?;
        let ticket = |r: &mut Self| Some((r.u64()?, r.ascending(8, Self::u64, |&n| n)?));
        let entries = self.ascending(TICKET_MIN, ticket, |&(ticket, _)| ticket)?;
        Some(ReplayEpochImage { epoch, entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::EventClassifier;
    use crate::pipeline::ProxyTelemetry;
    use fiat_net::SimDuration;
    use fiat_sensors::HumannessValidator;

    const FIXTURE: &[u8] = include_bytes!("../tests/golden/snapshot_v5.bin");

    /// `bytes` decoded and restored under the config of the home the
    /// fixture was taken from; `None` if either step refuses them.
    fn restored(bytes: &[u8]) -> Option<FiatProxy> {
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
            HomeSnapshot::from_bytes(bytes)?,
            |_| EventClassifier::simple_rule(235),
        )
        .ok()
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
                // decodes. The marks include a rule's and a ghost's.
                Field::Domain => {
                    let last = edited(at, &(domains - 1).to_le_bytes());
                    assert!(HomeSnapshot::from_bytes(&last).is_some(), "id at byte {at}");
                    vec![
                        edited(at, &domains.to_le_bytes()),
                        edited(at, &u32::MAX.to_le_bytes()),
                    ]
                }
            };
            for bytes in edits {
                // `restore_home` answers `None` with `RestoreError::Corrupt`.
                assert!(
                    HomeSnapshot::from_bytes(&bytes).is_none(),
                    "{field:?} edit at byte {at} decoded"
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
    fn only_the_canonical_encoding_decodes() {
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
            HomeSnapshot::from_bytes(&edited).is_none()
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
        assert!(HomeSnapshot::from_bytes(&longer).is_none());
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
        assert!(read(&device(FEATURE_PACKETS + 1)).is_none());
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
