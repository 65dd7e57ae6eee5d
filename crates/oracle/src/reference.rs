//! A deliberately naive reference implementation of the FIAT decision
//! path, written straight from the paper and DESIGN.md.
//!
//! [`ReferenceProxy`] mirrors every *documented* behaviour of
//! `fiat_core::FiatProxy` — bootstrap, rule learning, rule matching,
//! event grouping, classify-at-N, humanness gating, interaction
//! cascades, brute-force lockout, retrospective closure, `flush` — but
//! shares none of its machinery:
//!
//! - no interned flow keys: every packet allocates a stringly
//!   [`FlowKey`] (beside whether DNS left the remote unresolved, so
//!   an unresolved address never shares a bucket with a domain spelled
//!   like it), and the rule "table" is a linear `Vec` scan kept in
//!   LRU order (least recently matched at the front) — the bounded-mode
//!   eviction and ghost re-learn policies (DESIGN §18) are re-derived
//!   here over plain `Vec`s, not imported;
//! - no rule-table type: learning is an O(n²) bucket-and-scan rewrite
//!   of the §2.1 heuristic, with its own hard-coded 1 s minimum rule
//!   interval (deliberately *not* imported from `fiat_core::predict`,
//!   so a silent change to the constant shows up as a divergence);
//! - no `VecDeque` lockout window: a plain `Vec` re-filtered on every
//!   drop;
//! - no hash chain: the audit trail is a bare `Vec<AuditEntry>` the
//!   fuzzer compares entry-by-entry against the real log, truncated
//!   from the front under `max_audit_entries` exactly like the real
//!   log's checkpointed truncation (keep half, count the dropped);
//! - no interaction-graph type: cascades recurse over a flat edge list.
//!
//! The only components shared with the real proxy are *inputs and
//! vocabulary*: `PacketRecord`, `DnsTable`, `ProxyConfig`,
//! `ProxyDecision`/`ProxyStats`, `AuditEntry`, and the
//! [`EventClassifier`] itself — the oracle checks the decision *path*,
//! not the classifier's ML, so both sides must consult the identical
//! classifier or every comparison would drown in model noise.
//!
//! Keep this file boring. When it disagrees with `FiatProxy`, the bug is
//! decided by reading DESIGN.md, not by making this file cleverer.

use fiat_core::audit::{AuditEntry, AuditVerdict};
use fiat_core::classifier::EventClass;
use fiat_core::features::FEATURE_PACKETS;
use fiat_core::{
    AllowReason, DropReason, EventClassifier, FingerprintVerdict, ProxyConfig, ProxyDecision,
    ProxyStats, UnpredictableEvent,
};
use fiat_fingerprint::{ClassSignature, MatcherConfig, FEATURE_COUNT, MAX_CLAIM_DOMAINS};
use fiat_net::{DnsTable, FlowDef, FlowKey, PacketRecord, SimDuration, SimTime};
use std::collections::BTreeMap;

/// §2.1: a repeating interval must be at least this long to be a rule
/// (shorter repeats are bursts, not schedules). Redeclared here on
/// purpose — see the module docs.
const MIN_RULE_INTERVAL: SimDuration = SimDuration::from_secs(1);

/// A rule bucket: the device, its stringly flow key, and whether the
/// PortLess remote is an address DNS never resolved. The flag keeps that
/// address apart from a domain named like its dotted quad, which the
/// string alone would merge, and sorts the domain first on a tie, as
/// the real table's keys do.
type RefKey = (u16, FlowKey, bool);

/// What the rest of an open event's packets get once it is decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fate {
    AllowRest(AllowReason),
    DropRest(DropReason),
    /// Verdict pending: further packets join the quarantine record.
    Quarantine,
}

/// A manual event held pending its humanness proof (DESIGN §14): at most
/// one per device, resolved lazily — released by a proof arriving at or
/// before `deadline`, expired by the first operation observing
/// `now > deadline` (with the episode backdated to the deadline).
#[derive(Debug, Clone)]
struct RefQuarantine {
    /// Held-packet count (the reference never forwards, so the packets
    /// themselves are not needed — only their accounting).
    held: u64,
    class: EventClass,
    deadline: SimTime,
}

#[derive(Debug, Clone)]
struct RefEvent {
    packets: Vec<PacketRecord>,
    /// High-water mark of observed timestamps, never rewound: a
    /// backwards (reordered) packet joins the event — its saturating
    /// gap reads as zero — but must not shrink the gap the next
    /// in-order packet measures.
    last: SimTime,
    fate: Option<Fate>,
}

struct RefDevice {
    classifier: EventClassifier,
    classify_at: usize,
    open: Option<RefEvent>,
    /// Unverified-manual episode times inside the sliding lockout
    /// window, clamped to a monotone high-water mark exactly like the
    /// real proxy's deque (`SimTime` subtraction saturates, so a
    /// non-monotone history would never expire).
    drops: Vec<SimTime>,
    locked: bool,
    quarantine: Option<RefQuarantine>,
}

/// An evicted rule's re-learn state: the flow re-promotes once it
/// repeats a qualifying interval (two consecutive inter-arrivals in the
/// same tolerance bin, the second at least [`MIN_RULE_INTERVAL`] long).
/// Bootstrap learning tests the bin's first interval instead; the two
/// agree whenever the bin is 1 µs wide.
#[derive(Debug, Clone)]
struct RefGhost {
    key: RefKey,
    last_ts: Option<SimTime>,
    last_bin: Option<u64>,
}

/// One unknown device's open fingerprint evidence, kept naive: the raw
/// packets are stored whole and the histogram is recomputed from scratch
/// at seal time (the real engine folds incrementally into a fixed
/// array). Claimed domains are plain strings, not interned ids.
#[derive(Debug, Clone, Default)]
struct RefEvidence {
    /// `(timestamp µs, wire size, from_device, udp)` per packet, in
    /// arrival order.
    packets: Vec<(u64, u16, bool, bool)>,
    claims: Vec<String>,
    /// Wrong class a previous full window confidently matched. While
    /// armed the device's traffic reads `NoMatch` (dropped); a second
    /// window confidently matching *any* wrong class seals `Spoof` —
    /// exactly one restart, no re-arming.
    candidate: Option<u16>,
}

/// Naive mirror of the `fiat-fingerprint` evidence engine (DESIGN §19).
///
/// Shares only *data* with the real engine — the learned
/// [`ClassSignature`] exemplars/domains and the [`MatcherConfig`]
/// numbers, the same way the oracle shares the event classifier — but
/// none of the arithmetic: bucket ladders are independent hard-coded
/// `if` chains, per-mille normalization and L1 distances are recomputed
/// from raw stored packets at seal time, and claimed-class resolution is
/// a linear string scan instead of interned-id binary search. A silent
/// change to a threshold constant or to the window/LRU/two-window
/// semantics in `fiat-fingerprint` therefore shows up as a divergence.
struct RefFingerprint {
    sigs: Vec<ClassSignature>,
    cfg: MatcherConfig,
    tracked: Vec<(u16, RefEvidence)>,
    sealed: Vec<(u16, FingerprintVerdict)>,
}

impl RefFingerprint {
    fn new(sigs: Vec<ClassSignature>, mut cfg: MatcherConfig) -> RefFingerprint {
        // The same clamps the real engine applies at construction.
        cfg.claim_domains = cfg.claim_domains.min(MAX_CLAIM_DOMAINS);
        cfg.evidence_window = cfg.evidence_window.max(1);
        cfg.max_tracked = cfg.max_tracked.max(1);
        cfg.max_sealed = cfg.max_sealed.max(1);
        RefFingerprint {
            sigs,
            cfg,
            tracked: Vec::new(),
            sealed: Vec::new(),
        }
    }

    /// Redeclared feature layout: 16 size buckets × 2 directions, 8
    /// inter-arrival buckets, 8 size-delta buckets, 2 transport counts.
    /// The literal ladders below are *not* imported from
    /// `fiat_fingerprint::features` — that is the point.
    fn ref_size_bucket(size: u16) -> usize {
        if size <= 64 {
            0
        } else if size <= 80 {
            1
        } else if size <= 96 {
            2
        } else if size <= 112 {
            3
        } else if size <= 128 {
            4
        } else if size <= 160 {
            5
        } else if size <= 192 {
            6
        } else if size <= 224 {
            7
        } else if size <= 256 {
            8
        } else if size <= 320 {
            9
        } else if size <= 384 {
            10
        } else if size <= 512 {
            11
        } else if size <= 768 {
            12
        } else if size <= 1024 {
            13
        } else if size <= 2048 {
            14
        } else {
            15
        }
    }

    fn ref_iat_bucket(ms: u64) -> usize {
        if ms <= 16 {
            0
        } else if ms <= 256 {
            1
        } else if ms <= 4_096 {
            2
        } else if ms <= 30_000 {
            3
        } else if ms <= 60_000 {
            4
        } else if ms <= 90_000 {
            5
        } else if ms <= 240_000 {
            6
        } else {
            7
        }
    }

    fn ref_delta_bucket(delta: u16) -> usize {
        if delta == 0 {
            0
        } else if delta <= 4 {
            1
        } else if delta <= 8 {
            2
        } else if delta <= 16 {
            3
        } else if delta <= 32 {
            4
        } else if delta <= 64 {
            5
        } else if delta <= 256 {
            6
        } else {
            7
        }
    }

    /// Recompute the per-mille window profile from the raw packets —
    /// histogram, then per-group normalization over the literal group
    /// bounds (size 0..32, IAT 32..40, delta 40..48, transport 48..50).
    fn ref_profile(packets: &[(u64, u16, bool, bool)]) -> [u16; FEATURE_COUNT] {
        let mut hist = [0u64; FEATURE_COUNT];
        let mut prev: Option<(u64, u16)> = None;
        for &(ts_us, size, from_device, udp) in packets {
            let base = if from_device { 0 } else { 16 };
            hist[base + Self::ref_size_bucket(size)] += 1;
            if let Some((prev_us, prev_size)) = prev {
                let gap_ms = ts_us.saturating_sub(prev_us) / 1_000;
                hist[32 + Self::ref_iat_bucket(gap_ms)] += 1;
                let delta = size.abs_diff(prev_size);
                hist[40 + Self::ref_delta_bucket(delta)] += 1;
            }
            prev = Some((ts_us, size));
            if udp {
                hist[49] += 1;
            } else {
                hist[48] += 1;
            }
        }
        let mut out = [0u16; FEATURE_COUNT];
        for (start, end) in [(0usize, 32usize), (32, 40), (40, 48), (48, 50)] {
            let total: u64 = hist[start..end].iter().sum();
            if total == 0 {
                continue;
            }
            for i in start..end {
                out[i] = (hist[i] * 1000 / total) as u16;
            }
        }
        out
    }

    /// Nearest-exemplar L1 distance to one class.
    fn ref_class_distance(sig: &ClassSignature, obs: &[u16; FEATURE_COUNT]) -> u32 {
        let mut best = u32::MAX;
        for e in &sig.exemplars {
            let mut d = 0u32;
            for i in 0..FEATURE_COUNT {
                d += u32::from(e[i].abs_diff(obs[i]));
            }
            best = best.min(d);
        }
        best
    }

    /// The confident behavioral match: nearest class under the distance
    /// threshold, with the runner-up at least `min_margin` behind. Ties
    /// keep the lowest index, like the real matcher.
    fn ref_behavioral(&self, obs: &[u16; FEATURE_COUNT]) -> Option<u16> {
        let dists: Vec<u32> = self
            .sigs
            .iter()
            .map(|s| Self::ref_class_distance(s, obs))
            .collect();
        let mut best: Option<(usize, u32)> = None;
        for (i, &d) in dists.iter().enumerate() {
            if best.is_none_or(|(_, bd)| d < bd) {
                best = Some((i, d));
            }
        }
        let (bi, bd) = best?;
        if bd > self.cfg.max_distance {
            return None;
        }
        let runner = dists
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != bi)
            .map(|(_, &d)| d)
            .min()
            .unwrap_or(u32::MAX);
        if runner != u32::MAX && runner - bd < self.cfg.min_margin {
            return None;
        }
        Some(bi as u16)
    }

    /// The class the device claims by its destinations: most overlap
    /// between its claimed domains and a class's domain vocabulary,
    /// ties toward the lowest index, zero overlap is no claim.
    fn ref_claimed(&self, claims: &[String]) -> Option<u16> {
        let mut best: Option<(u16, usize)> = None;
        for (i, sig) in self.sigs.iter().enumerate() {
            let overlap = claims.iter().filter(|c| sig.domains.contains(c)).count();
            if overlap > 0 && best.is_none_or(|(_, b)| overlap > b) {
                best = Some((i as u16, overlap));
            }
        }
        best.map(|(i, _)| i)
    }

    /// Seal a window's raw evidence: behavioral nearest-signature
    /// decision crossed with the claimed class.
    fn seal_verdict(&self, ev: &RefEvidence) -> FingerprintVerdict {
        let obs = Self::ref_profile(&ev.packets);
        match self.ref_behavioral(&obs) {
            Some(b) => match self.ref_claimed(&ev.claims) {
                Some(c) if c != b => FingerprintVerdict::Spoof {
                    claimed: c,
                    matched: b,
                },
                _ => FingerprintVerdict::Match(b),
            },
            None => FingerprintVerdict::NoMatch,
        }
    }

    /// Record a sealed verdict in the LRU cache.
    fn commit(&mut self, device: u16, verdict: FingerprintVerdict) {
        if self.sealed.len() >= self.cfg.max_sealed {
            self.sealed.remove(0);
        }
        self.sealed.push((device, verdict));
    }

    /// Mirror of `FingerprintEngine::observe`: cached sealed verdict
    /// (LRU-refreshed on replay), else accumulate into the device's
    /// LRU-capped window; a full window seals — with the one-restart
    /// spoof confirmation rule (armed candidate drops traffic, any
    /// confident wrong class confirms) and forced evictions sealing
    /// their partial evidence. Returns the verdict plus the just-sealed
    /// edge (which is when the audit entry is written).
    fn observe(&mut self, pkt: &PacketRecord, dns: &DnsTable) -> (FingerprintVerdict, bool) {
        if let Some(i) = self.sealed.iter().position(|(d, _)| *d == pkt.device) {
            let entry = self.sealed.remove(i);
            let v = entry.1;
            self.sealed.push(entry);
            return (v, false);
        }
        match self.tracked.iter().position(|(d, _)| *d == pkt.device) {
            Some(i) => {
                // Touch: the active window moves to the back; the
                // eviction victim is always the least recently active.
                let entry = self.tracked.remove(i);
                self.tracked.push(entry);
            }
            None => {
                if self.tracked.len() >= self.cfg.max_tracked {
                    // Forced eviction seals the victim with its partial
                    // evidence (un-confirmed Spoof demoted to NoMatch),
                    // like the real engine: a discarded open window
                    // would be an attacker-resettable fail-open.
                    let (victim, ev) = self.tracked.remove(0);
                    let verdict = match self.seal_verdict(&ev) {
                        FingerprintVerdict::Spoof { .. } if ev.candidate.is_none() => {
                            FingerprintVerdict::NoMatch
                        }
                        v => v,
                    };
                    self.commit(victim, verdict);
                }
                self.tracked.push((pkt.device, RefEvidence::default()));
            }
        };
        let idx = self.tracked.len() - 1;
        let ev = &mut self.tracked[idx].1;
        ev.packets.push((
            pkt.ts.as_micros(),
            pkt.size,
            pkt.direction == fiat_net::Direction::FromDevice,
            pkt.transport == fiat_net::Transport::Udp,
        ));
        if ev.claims.len() < self.cfg.claim_domains {
            if let fiat_net::RemoteId::Domain(id) = dns.remote_id(pkt.remote_ip) {
                let d = dns.domain_str(id);
                if !ev.claims.iter().any(|c| c == d) {
                    ev.claims.push(d.to_string());
                }
            }
        }
        if (ev.packets.len() as u32) < self.cfg.evidence_window {
            // An armed candidate quarantines the device while the
            // confirmation window fills: NoMatch (drop), never Pending.
            let v = if ev.candidate.is_some() {
                FingerprintVerdict::NoMatch
            } else {
                FingerprintVerdict::Pending
            };
            return (v, false);
        }

        let verdict = self.seal_verdict(&self.tracked[idx].1);
        if let FingerprintVerdict::Spoof { matched, .. } = verdict {
            let ev = &mut self.tracked[idx].1;
            if ev.candidate.is_none() {
                // First contradictory window: restart with the candidate
                // armed; the device reads as NoMatch (quarantined, not
                // yet accused). Any confident wrong class in the second
                // window confirms — no re-arming.
                ev.packets.clear();
                ev.claims.clear();
                ev.candidate = Some(matched);
                return (FingerprintVerdict::NoMatch, false);
            }
        }
        let (device, _) = self.tracked.remove(idx);
        self.commit(device, verdict);
        (verdict, true)
    }
}

/// Naive reference decision pipeline. See the module docs.
pub struct ReferenceProxy {
    config: ProxyConfig,
    dns: DnsTable,
    started_at: Option<SimTime>,
    bootstrap_buffer: Vec<PacketRecord>,
    /// `None` until the first post-bootstrap packet triggers learning.
    /// Kept in LRU order: least recently matched at the front, so the
    /// bounded-mode eviction victim is always `rules[0]`.
    rules: Option<Vec<RefKey>>,
    /// Evicted-rule ghosts, LRU order like `rules`.
    ghosts: Vec<RefGhost>,
    devices: BTreeMap<u16, RefDevice>,
    unknown_seen: Vec<u16>,
    /// Naive fingerprint mirror; `None` means the gate is uninstalled
    /// (the legacy unknown-device fail-open applies, gate knob or not),
    /// exactly like the real proxy's optional boxed gate.
    fingerprint: Option<RefFingerprint>,
    human_valid_until: SimTime,
    /// Interaction DAG as a flat `trigger → target` edge list, plus the
    /// last authorized time per device. `None` means no graph installed
    /// (the real proxy distinguishes "no graph" from "empty graph").
    interactions: Option<RefGraph>,
    stats: ProxyStats,
    audit: Vec<AuditEntry>,
    /// Entries truncated off the front of `audit` by the cap.
    audit_truncated: u64,
}

#[derive(Debug, Default)]
struct RefGraph {
    cascade_window: SimDuration,
    edges: Vec<(u16, u16)>,
    authorized_at: BTreeMap<u16, SimTime>,
}

impl RefGraph {
    /// §7 cascade: an edge `trigger → target` covers `target` while the
    /// trigger was authorized within the window, or is itself covered.
    /// Plain recursion over the edge list; callers keep the graph
    /// acyclic (the real `InteractionGraph::add_edge` enforces it).
    fn cascade_covers(&self, target: u16, now: SimTime) -> bool {
        self.edges
            .iter()
            .filter(|&&(_, t)| t == target)
            .any(|&(trigger, _)| {
                let fresh = self
                    .authorized_at
                    .get(&trigger)
                    .is_some_and(|&t| now.since(t) <= self.cascade_window && now >= t);
                fresh || self.cascade_covers(trigger, now)
            })
    }
}

impl ReferenceProxy {
    /// Reference proxy with the same configuration the real proxy runs.
    pub fn new(config: ProxyConfig) -> Self {
        ReferenceProxy {
            config,
            dns: DnsTable::new(),
            started_at: None,
            bootstrap_buffer: Vec::new(),
            rules: None,
            ghosts: Vec::new(),
            devices: BTreeMap::new(),
            unknown_seen: Vec::new(),
            fingerprint: None,
            human_valid_until: SimTime::ZERO,
            interactions: None,
            stats: ProxyStats::default(),
            audit: Vec::new(),
            audit_truncated: 0,
        }
    }

    /// Register a device, mirroring `FiatProxy::register_device`'s
    /// first-N clamp: `min(N, classify_at_cap, FEATURE_PACKETS).max(1)`
    /// (the classifier reads at most `FEATURE_PACKETS`, and the proxy's
    /// event buffer holds no more), and its refusal of an id already
    /// registered (`false`, state untouched).
    pub fn register_device(
        &mut self,
        device: u16,
        classifier: EventClassifier,
        min_packets_to_complete: usize,
    ) -> bool {
        if self.devices.contains_key(&device) {
            return false;
        }
        let classify_at = min_packets_to_complete
            .min(self.config.classify_at_cap)
            .clamp(1, FEATURE_PACKETS);
        self.devices.insert(
            device,
            RefDevice {
                classifier,
                classify_at,
                open: None,
                drops: Vec::new(),
                locked: false,
                quarantine: None,
            },
        );
        true
    }

    /// Provide the capture's DNS knowledge.
    pub fn set_dns(&mut self, dns: DnsTable) {
        self.dns = dns;
    }

    /// Install the naive fingerprint mirror over shared learned
    /// signatures and matcher numbers (effective only when
    /// `ProxyConfig::fingerprint_unknown` is set, mirroring
    /// `FiatProxy::set_fingerprinter`).
    pub fn set_fingerprint(&mut self, sigs: Vec<ClassSignature>, cfg: MatcherConfig) {
        self.fingerprint = Some(RefFingerprint::new(sigs, cfg));
    }

    /// Begin operation; bootstrap runs until `now + config.bootstrap`.
    pub fn start(&mut self, now: SimTime) {
        self.started_at = Some(now);
    }

    /// Install an interaction DAG with the given cascade window.
    pub fn set_interactions(&mut self, cascade_window: SimDuration, edges: &[(u16, u16)]) {
        self.interactions = Some(RefGraph {
            cascade_window,
            edges: edges.to_vec(),
            authorized_at: BTreeMap::new(),
        });
    }

    /// A successful humanness proof at `now` refreshes the validity
    /// window (the transport/crypto half of `on_auth_zero_rtt` is out of
    /// the oracle's scope; the fuzzer drives the real side with genuine
    /// evidence and a perfect validator so both sides land here). With
    /// quarantine enabled the proof also resolves every pending record,
    /// in ascending device order: releases within the deadline, expiries
    /// past it.
    pub fn verify_human(&mut self, now: SimTime) {
        self.human_valid_until = now + self.config.human_valid_window;
        if self.config.proof_deadline.is_none() {
            return;
        }
        let ids: Vec<u16> = self
            .devices
            .iter()
            .filter(|(_, d)| d.quarantine.is_some())
            .map(|(&id, _)| id)
            .collect();
        for id in ids {
            let deadline = self.devices[&id]
                .quarantine
                .as_ref()
                .expect("filtered above")
                .deadline;
            if now > deadline {
                self.expire_quarantine(id, now);
                continue;
            }
            let dev = self.devices.get_mut(&id).expect("filtered above");
            let q = dev.quarantine.take().expect("filtered above");
            if let Some(open) = &mut dev.open {
                if open.fate == Some(Fate::Quarantine) {
                    open.fate = Some(Fate::AllowRest(AllowReason::QuarantineReleased));
                }
            }
            if let Some(g) = &mut self.interactions {
                g.authorized_at.insert(id, now);
            }
            self.push_audit(AuditEntry {
                ts: now,
                device: id,
                class: q.class,
                verdict: AuditVerdict::QuarantineReleased,
            });
        }
    }

    /// §5.4 manual verification: unlock, forget the episode history, and
    /// discard the open (fate `DropRest`) event. A pending quarantine is
    /// deliberately untouched — the user vouched for the device, not for
    /// the held command, which still awaits its proof.
    pub fn clear_lockout(&mut self, device: u16) {
        if let Some(d) = self.devices.get_mut(&device) {
            d.locked = false;
            d.drops.clear();
            d.open = None;
        }
    }

    /// Demote an expired (or cap-demoted) quarantine: held packets
    /// discarded, episode credited to the lockout window at
    /// `min(now, deadline)` — the deadline itself for a lazy expiry,
    /// the demotion time for a record-cap demotion — audit entry
    /// stamped likewise, and the open event (if still the quarantined
    /// one) sealed as `QuarantineExpired`.
    fn expire_quarantine(&mut self, device: u16, now: SimTime) {
        let dev = self.devices.get_mut(&device).expect("caller checked");
        let q = dev.quarantine.take().expect("caller checked");
        let at = now.min(q.deadline);
        self.stats.quarantine_expired += q.held;
        let locked = record_unverified_drop(&mut dev.drops, at, &self.config);
        if locked && !dev.locked {
            dev.locked = true;
        }
        if let Some(open) = &mut dev.open {
            if open.fate == Some(Fate::Quarantine) {
                open.fate = Some(Fate::DropRest(DropReason::QuarantineExpired));
            }
        }
        self.push_audit(AuditEntry {
            ts: at,
            device,
            class: q.class,
            verdict: AuditVerdict::QuarantineExpired,
        });
    }

    /// Demote the live record with the oldest deadline (ties: lowest
    /// device id), mirroring the real proxy's record-cap enforcement.
    fn demote_oldest_quarantine(&mut self, now: SimTime) {
        let mut victim: Option<(SimTime, u16)> = None;
        for (&id, d) in &self.devices {
            if let Some(q) = &d.quarantine {
                let cand = (q.deadline, id);
                if victim.is_none_or(|v| cand < v) {
                    victim = Some(cand);
                }
            }
        }
        if let Some((_, id)) = victim {
            self.expire_quarantine(id, now);
        }
    }

    /// Append an audit entry, enforcing `max_audit_entries` exactly like
    /// the real log's checkpointed truncation: past the cap, drop the
    /// oldest half in one block and count the dropped entries.
    fn push_audit(&mut self, entry: AuditEntry) {
        self.audit.push(entry);
        if let Some(max) = self.config.max_audit_entries {
            if self.audit.len() > max {
                let keep = max / 2;
                let drop_n = self.audit.len() - keep;
                self.audit.drain(..drop_n);
                self.audit_truncated += drop_n as u64;
            }
        }
    }

    /// Decision counters so far.
    pub fn stats(&self) -> ProxyStats {
        self.stats
    }

    /// The audit trail, in append order (no hash chain — the fuzzer
    /// checks the real proxy's chain separately).
    pub fn audit_entries(&self) -> &[AuditEntry] {
        &self.audit
    }

    /// Entries truncated off the front of the audit trail by the cap
    /// (compare with the real log's `truncated()`).
    pub fn audit_truncated(&self) -> u64 {
        self.audit_truncated
    }

    /// Live learned-rule count (0 while bootstrap is still running).
    pub fn rule_count(&self) -> usize {
        self.rules.as_ref().map_or(0, Vec::len)
    }

    /// Evicted-rule ghost count.
    pub fn ghost_count(&self) -> usize {
        self.ghosts.len()
    }

    /// Whether a device is locked out.
    pub fn is_locked(&self, device: u16) -> bool {
        self.devices.get(&device).is_some_and(|d| d.locked)
    }

    /// Decide one packet and count the verdict.
    pub fn on_packet(&mut self, pkt: &PacketRecord) -> ProxyDecision {
        let d = self.decide(pkt);
        match d {
            ProxyDecision::Allow(AllowReason::Bootstrap) => self.stats.bootstrap += 1,
            ProxyDecision::Allow(AllowReason::RuleHit) => self.stats.rule_hit += 1,
            ProxyDecision::Allow(AllowReason::FirstN) => self.stats.first_n += 1,
            ProxyDecision::Allow(AllowReason::NonManual) => self.stats.non_manual += 1,
            ProxyDecision::Allow(AllowReason::ManualVerified) => self.stats.manual_verified += 1,
            ProxyDecision::Allow(AllowReason::Cascade) => self.stats.cascade += 1,
            ProxyDecision::Allow(AllowReason::UnknownDevice) => self.stats.unknown_device += 1,
            ProxyDecision::Allow(AllowReason::QuarantineReleased) => {
                self.stats.quarantine_released += 1
            }
            ProxyDecision::Allow(AllowReason::FingerprintMatched) => {
                self.stats.fingerprint_matched += 1
            }
            ProxyDecision::Drop(DropReason::UnknownQuarantined) => self.stats.dropped_unknown += 1,
            ProxyDecision::Drop(DropReason::ManualUnverified) => self.stats.dropped_unverified += 1,
            ProxyDecision::Drop(DropReason::LockedOut) => self.stats.dropped_lockout += 1,
            ProxyDecision::Drop(DropReason::QuarantineExpired) => {
                self.stats.dropped_quarantine += 1
            }
            ProxyDecision::Quarantine => self.stats.quarantined += 1,
        }
        d
    }

    /// Figure 4, step by step, in the documented order: lockout check,
    /// bootstrap, lazy rule learning, rule match, unknown-device
    /// fail-open, stale-event closure (with retrospective verdict),
    /// first-N allowance, classification, humanness/cascade gating,
    /// lockout accounting.
    fn decide(&mut self, pkt: &PacketRecord) -> ProxyDecision {
        let now = pkt.ts;
        let started = self.started_at.expect("reference proxy not started");

        if self.devices.get(&pkt.device).is_some_and(|d| d.locked) {
            return ProxyDecision::Drop(DropReason::LockedOut);
        }

        if now - started < self.config.bootstrap {
            self.bootstrap_buffer.push(pkt.clone());
            return ProxyDecision::Allow(AllowReason::Bootstrap);
        }
        if self.rules.is_none() {
            let rules = self.learn_rules();
            self.rules = Some(rules);
            // The cap applies from the moment the table is born, exactly
            // like the real proxy's post-learn `set_capacity`.
            self.apply_rule_cap();
        }

        let key = self.key_of(pkt);
        let rules = self.rules.as_mut().expect("rules learned");
        if let Some(pos) = rules.iter().position(|k| *k == key) {
            // LRU touch: a hit moves the rule to the most-recently-
            // matched end, so `rules[0]` stays the eviction victim.
            let k = rules.remove(pos);
            rules.push(k);
            return ProxyDecision::Allow(AllowReason::RuleHit);
        }
        if self.advance_ghost(&key, now) {
            return ProxyDecision::Allow(AllowReason::RuleHit);
        }

        // Captured before the device borrow, exactly like the real
        // proxy: the window is global state, not per-device.
        let human_fresh = now <= self.human_valid_until;
        let gap = self.config.event_gap;

        if !self.devices.contains_key(&pkt.device) {
            // Fingerprint gate first (when installed and enabled): the
            // behavioral verdict decides, and the legacy fail-open below
            // never runs for this device.
            if self.config.fingerprint_unknown && self.fingerprint.is_some() {
                let (verdict, just_sealed) = {
                    let fp = self.fingerprint.as_mut().expect("checked above");
                    fp.observe(pkt, &self.dns)
                };
                if just_sealed {
                    self.push_audit(AuditEntry {
                        ts: now,
                        device: pkt.device,
                        class: EventClass::Control,
                        verdict: match verdict {
                            FingerprintVerdict::Match(_) => AuditVerdict::FingerprintMatched,
                            FingerprintVerdict::Spoof { .. } => AuditVerdict::SpoofSuspected,
                            _ => AuditVerdict::UnknownQuarantined,
                        },
                    });
                }
                return match verdict {
                    FingerprintVerdict::Pending => ProxyDecision::Allow(AllowReason::UnknownDevice),
                    FingerprintVerdict::Match(_) => {
                        ProxyDecision::Allow(AllowReason::FingerprintMatched)
                    }
                    FingerprintVerdict::Spoof { .. } | FingerprintVerdict::NoMatch => {
                        ProxyDecision::Drop(DropReason::UnknownQuarantined)
                    }
                };
            }
            // Fail open for unenrolled devices, audited once per device.
            if !self.unknown_seen.contains(&pkt.device) {
                self.unknown_seen.push(pkt.device);
                self.push_audit(AuditEntry {
                    ts: now,
                    device: pkt.device,
                    class: EventClass::Control,
                    verdict: AuditVerdict::AllowedUnknownDevice,
                });
            }
            return ProxyDecision::Allow(AllowReason::UnknownDevice);
        }

        // Lazy quarantine expiry: the first packet observed past the
        // deadline demotes the pending record before anything else
        // touches the device, and if the demotion locked the device this
        // packet drops right here.
        if self
            .devices
            .get(&pkt.device)
            .is_some_and(|d| d.quarantine.as_ref().is_some_and(|q| now > q.deadline))
        {
            self.expire_quarantine(pkt.device, now);
            if self.devices[&pkt.device].locked {
                return ProxyDecision::Drop(DropReason::LockedOut);
            }
        }

        // Close a stale event; sub-first-N closures get a retrospective
        // verdict, and if that verdict locked the device this packet is
        // dropped without opening a fresh event.
        let human_valid_until = self.human_valid_until;
        let stale = {
            let dev = self.devices.get_mut(&pkt.device).expect("checked above");
            if dev.open.as_ref().is_some_and(|e| now - e.last >= gap) {
                dev.open.take()
            } else {
                None
            }
        };
        if let Some(ev) = stale {
            if ev.fate.is_none() {
                self.retro_close(pkt.device, ev, human_valid_until);
                if self.devices[&pkt.device].locked {
                    return ProxyDecision::Drop(DropReason::LockedOut);
                }
            }
        }

        let dev = self.devices.get_mut(&pkt.device).expect("checked above");
        let quarantine_pending = dev.quarantine.is_some();
        let open = dev.open.get_or_insert_with(|| RefEvent {
            packets: Vec::new(),
            last: now,
            fate: None,
        });
        // Buffer only while the verdict is pending: a sealed event's
        // packets are never re-read, so holding them would grow memory
        // for as long as the event stays open (the unbounded-state bug
        // DESIGN §18 fixed).
        if open.fate.is_none() {
            open.packets.push(pkt.clone());
        }
        open.last = open.last.max(now);

        if let Some(fate) = open.fate {
            return match fate {
                Fate::AllowRest(reason) => ProxyDecision::Allow(reason),
                Fate::DropRest(reason) => ProxyDecision::Drop(reason),
                Fate::Quarantine => {
                    // Join the pending record while it has room; past
                    // capacity the overflow sheds as a plain unverified
                    // drop (no audit entry, no lockout credit).
                    let q = dev.quarantine.as_mut().expect("fate implies record");
                    if (q.held as usize) < self.config.quarantine_capacity {
                        q.held += 1;
                        ProxyDecision::Quarantine
                    } else {
                        ProxyDecision::Drop(DropReason::ManualUnverified)
                    }
                }
            };
        }

        if open.packets.len() < dev.classify_at {
            return ProxyDecision::Allow(AllowReason::FirstN);
        }

        // Classification point: the event so far, first packets as
        // features.
        let ev = UnpredictableEvent {
            device: pkt.device,
            packets: (0..open.packets.len()).collect(),
            start: open.packets[0].ts,
            end: open.last,
        };
        let class = dev.classifier.classify_event(&ev, &open.packets);
        if !class.is_manual() {
            open.fate = Some(Fate::AllowRest(AllowReason::NonManual));
            self.push_audit(AuditEntry {
                ts: now,
                device: pkt.device,
                class,
                verdict: AuditVerdict::AllowedNonManual,
            });
            return ProxyDecision::Allow(AllowReason::NonManual);
        }

        if human_fresh {
            open.fate = Some(Fate::AllowRest(AllowReason::ManualVerified));
            if let Some(g) = &mut self.interactions {
                g.authorized_at.insert(pkt.device, now);
            }
            self.push_audit(AuditEntry {
                ts: now,
                device: pkt.device,
                class,
                verdict: AuditVerdict::AllowedManualVerified,
            });
            return ProxyDecision::Allow(AllowReason::ManualVerified);
        }

        if self
            .interactions
            .as_ref()
            .is_some_and(|g| g.cascade_covers(pkt.device, now))
        {
            open.fate = Some(Fate::AllowRest(AllowReason::Cascade));
            if let Some(g) = &mut self.interactions {
                g.authorized_at.insert(pkt.device, now);
            }
            self.push_audit(AuditEntry {
                ts: now,
                device: pkt.device,
                class,
                verdict: AuditVerdict::AllowedCascade,
            });
            return ProxyDecision::Allow(AllowReason::Cascade);
        }

        // Unverified manual verdict. With a proof deadline configured
        // and no record already pending, hold the event instead of
        // demoting it (DESIGN §14); a second concurrent manual event on
        // the same device demotes immediately — one record per device.
        if let Some(dl) = self.config.proof_deadline {
            if !quarantine_pending {
                // Home-wide record cap: admitting this record past it
                // demotes the oldest-deadline record first, before the
                // new record joins (mirrors the real proxy's ordering).
                if let Some(cap) = self.config.max_quarantine_records {
                    let live = self
                        .devices
                        .values()
                        .filter(|d| d.quarantine.is_some())
                        .count();
                    if live >= cap.max(1) {
                        self.demote_oldest_quarantine(now);
                    }
                }
                let dev = self.devices.get_mut(&pkt.device).expect("checked above");
                dev.quarantine = Some(RefQuarantine {
                    held: 1,
                    class,
                    deadline: now + dl,
                });
                if let Some(open) = &mut dev.open {
                    open.fate = Some(Fate::Quarantine);
                }
                return ProxyDecision::Quarantine;
            }
        }

        open.fate = Some(Fate::DropRest(DropReason::ManualUnverified));
        let locked = record_unverified_drop(&mut dev.drops, now, &self.config);
        if locked {
            dev.locked = true;
        }
        self.push_audit(AuditEntry {
            ts: now,
            device: pkt.device,
            class,
            verdict: if locked {
                AuditVerdict::LockedOut
            } else {
                AuditVerdict::DroppedUnverified
            },
        });
        ProxyDecision::Drop(DropReason::ManualUnverified)
    }

    /// Close every open event whose gap expired by `now`, in ascending
    /// device order (matching the real proxy's sorted flush).
    pub fn flush(&mut self, now: SimTime) {
        let gap = self.config.event_gap;
        let human_valid_until = self.human_valid_until;
        let ids: Vec<u16> = self.devices.keys().copied().collect();
        for id in ids {
            if self.devices[&id]
                .quarantine
                .as_ref()
                .is_some_and(|q| now > q.deadline)
            {
                self.expire_quarantine(id, now);
            }
            let dev = self.devices.get_mut(&id).expect("id from keys()");
            let stale = if dev.open.as_ref().is_some_and(|e| now - e.last >= gap) {
                dev.open.take()
            } else {
                None
            };
            if let Some(ev) = stale {
                if ev.fate.is_none() {
                    self.retro_close(id, ev, human_valid_until);
                }
            }
        }
    }

    /// Retrospective verdict for an event that closed before reaching
    /// its classification point: audited at the event's end time, and an
    /// unverified manual outcome counts toward the lockout (the packets
    /// already left, so nothing is dropped). Verified/cascade outcomes
    /// do not refresh the interaction graph — the event is over.
    fn retro_close(&mut self, device: u16, event: RefEvent, human_valid_until: SimTime) {
        let end = event.last;
        let ev = UnpredictableEvent {
            device,
            packets: (0..event.packets.len()).collect(),
            start: event.packets[0].ts,
            end,
        };
        let dev = self.devices.get_mut(&device).expect("caller checked");
        let class = dev.classifier.classify_event(&ev, &event.packets);
        if !class.is_manual() {
            self.push_audit(AuditEntry {
                ts: end,
                device,
                class,
                verdict: AuditVerdict::AllowedNonManual,
            });
            return;
        }
        let vouched = end <= human_valid_until
            || self
                .interactions
                .as_ref()
                .is_some_and(|g| g.cascade_covers(device, end));
        if vouched {
            self.push_audit(AuditEntry {
                ts: end,
                device,
                class,
                verdict: AuditVerdict::AllowedManualVerified,
            });
            return;
        }
        self.stats.retro_unverified += 1;
        let locked = record_unverified_drop(&mut dev.drops, end, &self.config);
        if locked && !dev.locked {
            dev.locked = true;
        }
        self.push_audit(AuditEntry {
            ts: end,
            device,
            class,
            verdict: if locked {
                AuditVerdict::LockedOut
            } else {
                AuditVerdict::DroppedUnverified
            },
        });
    }

    /// A packet's rule bucket.
    fn key_of(&self, pkt: &PacketRecord) -> RefKey {
        let def = self.config.flow_def;
        let unresolved = def == FlowDef::PortLess && !self.dns.contains(pkt.remote_ip);
        (pkt.device, FlowKey::of(def, pkt, &self.dns), unresolved)
    }

    /// §2.1 rule learning, rewritten naively: bucket the bootstrap
    /// capture by [`RefKey`] in arrival order, bin consecutive
    /// inter-arrivals by the tolerance (the first interval seen in a bin
    /// is its representative), and keep buckets where some bin repeats
    /// (≥ 2 pairs) with a representative of at least
    /// [`MIN_RULE_INTERVAL`]. Out-of-order arrivals saturate to a zero
    /// interval, which can never found a rule. Qualifying buckets are
    /// returned sorted by (last packet seen, key), so the newborn table
    /// is already in LRU order — least recently seen flow at the front.
    fn learn_rules(&self) -> Vec<RefKey> {
        let mut buckets: Vec<(RefKey, Vec<SimTime>)> = Vec::new();
        for p in &self.bootstrap_buffer {
            let key = self.key_of(p);
            match buckets.iter_mut().find(|(k, _)| *k == key) {
                Some((_, times)) => times.push(p.ts),
                None => buckets.push((key, vec![p.ts])),
            }
        }
        let tol = self.config.tolerance.as_micros().max(1);
        let mut qualifying: Vec<(SimTime, RefKey)> = Vec::new();
        for (key, times) in buckets {
            // (bin, representative interval, pair count)
            let mut bins: Vec<(u64, SimDuration, u32)> = Vec::new();
            for w in times.windows(2) {
                let iv = w[1] - w[0];
                let b = iv.as_micros() / tol;
                match bins.iter_mut().find(|(bin, _, _)| *bin == b) {
                    Some((_, _, n)) => *n += 1,
                    None => bins.push((b, iv, 1)),
                }
            }
            if bins
                .iter()
                .any(|&(_, iv, n)| n >= 2 && iv >= MIN_RULE_INTERVAL)
            {
                qualifying.push((*times.last().expect("bucket nonempty"), key));
            }
        }
        qualifying.sort();
        qualifying.into_iter().map(|(_, key)| key).collect()
    }

    /// Advance the re-learn pattern of an evicted rule. Every touch
    /// refreshes the ghost's LRU position; two consecutive
    /// inter-arrivals in the same tolerance bin, at least
    /// [`MIN_RULE_INTERVAL`] apart, promote the ghost back into the
    /// rule table — and the promoting packet itself counts as a hit.
    fn advance_ghost(&mut self, key: &RefKey, now: SimTime) -> bool {
        let Some(pos) = self.ghosts.iter().position(|g| g.key == *key) else {
            return false;
        };
        let mut g = self.ghosts.remove(pos);
        let mut promote = false;
        if let Some(prev) = g.last_ts {
            let iv = now - prev;
            let bin = iv.as_micros() / self.config.tolerance.as_micros().max(1);
            promote = g.last_bin == Some(bin) && iv >= MIN_RULE_INTERVAL;
            g.last_bin = Some(bin);
        }
        g.last_ts = Some(now);
        if promote {
            self.insert_rule(key.clone());
        } else {
            self.ghosts.push(g);
        }
        promote
    }

    /// Insert (or refresh) a rule at the most-recently-matched end,
    /// dropping any ghost for the same key, then enforce the cap.
    fn insert_rule(&mut self, key: RefKey) {
        self.ghosts.retain(|g| g.key != key);
        let rules = self.rules.as_mut().expect("rules learned");
        rules.retain(|k| *k != key);
        rules.push(key);
        self.apply_rule_cap();
    }

    /// Evict least-recently-matched rules (the front of the `Vec`) into
    /// ghosts until the table fits `max_rules`; the ghost list obeys the
    /// same cap, dropping its own least-recently-touched entries.
    fn apply_rule_cap(&mut self) {
        let Some(cap) = self.config.max_rules else {
            return;
        };
        let rules = self.rules.as_mut().expect("rules learned");
        while rules.len() > cap {
            let key = rules.remove(0);
            self.ghosts.push(RefGhost {
                key,
                last_ts: None,
                last_bin: None,
            });
            while self.ghosts.len() > cap {
                self.ghosts.remove(0);
            }
        }
    }
}

/// Sliding lockout window over a monotone-clamped episode list: clamp
/// `at` to the newest recorded episode, record it, forget episodes older
/// than the window, and report whether the count now exceeds the
/// tolerance.
fn record_unverified_drop(drops: &mut Vec<SimTime>, at: SimTime, config: &ProxyConfig) -> bool {
    let at = drops.last().map_or(at, |&newest| newest.max(at));
    drops.push(at);
    drops.retain(|&t| at - t <= config.lockout_window);
    drops.len() as u32 > config.lockout_threshold
}
