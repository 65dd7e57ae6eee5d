//! The §2.1 predictability heuristic.
//!
//! Packets are bucketed by flow key ([`FlowDef::Classic`] 6-tuple or
//! [`FlowDef::PortLess`]); within a bucket, the inter-arrival time of each
//! consecutive packet pair is computed. If an inter-arrival matches any
//! previously computed inter-arrival for that bucket, *all packets
//! associated with that inter-arrival — previous or future — are
//! predictable*. Real traffic jitters by tens of milliseconds, so
//! intervals are quantized into tolerance bins before matching.

use fiat_net::{
    DnsTable, FlowDef, InternedFlowKey, PacketRecord, SimDuration, SimTime, TrafficClass,
};
use fiat_telemetry::{Counter, MetricRegistry};
use std::collections::{HashMap, HashSet};

/// Default interval quantization bin: one microsecond, i.e. exact
/// matching at capture resolution — what the paper's heuristic does.
/// Timer-driven IoT control traffic re-fires at coarse scheduler ticks,
/// so its inter-arrival values repeat exactly; the irregular gaps inside
/// command bursts are effectively continuous and (almost) never do.
/// Coarser bins trade false "predictable" matches for jitter tolerance —
/// the `ablation_flowdef` bench sweeps this.
pub const DEFAULT_TOLERANCE: SimDuration = SimDuration::from_micros(1);

/// Offline analyzer: marks each packet of a trace predictable or not.
#[derive(Debug, Clone)]
pub struct PredictabilityEngine {
    /// Flow definition for bucketing.
    pub def: FlowDef,
    /// Interval quantization bin.
    pub tolerance: SimDuration,
}

impl PredictabilityEngine {
    /// Engine with the given flow definition and default tolerance.
    pub fn new(def: FlowDef) -> Self {
        PredictabilityEngine {
            def,
            tolerance: DEFAULT_TOLERANCE,
        }
    }

    /// Override the tolerance bin (for the gap-threshold ablation).
    pub fn with_tolerance(mut self, tolerance: SimDuration) -> Self {
        assert!(tolerance > SimDuration::ZERO, "tolerance must be positive");
        self.tolerance = tolerance;
        self
    }

    pub(crate) fn bin(&self, d: SimDuration) -> u64 {
        d.as_micros() / self.tolerance.as_micros().max(1)
    }

    /// Analyze packets (with the trace's DNS table), returning one flag
    /// per packet: `true` = predictable.
    pub fn analyze(&self, packets: &[PacketRecord], dns: &DnsTable) -> Vec<bool> {
        // Bucket id -> list of (packet index, timestamp), in trace order.
        // Keys are interned ([`InternedFlowKey`]), so bucketing allocates
        // only for the bucket vectors, never per packet for the key.
        let mut buckets: HashMap<(u16, InternedFlowKey), Vec<(usize, SimTime)>> = HashMap::new();
        for (i, p) in packets.iter().enumerate() {
            let key = (p.device, InternedFlowKey::of(self.def, p, dns));
            buckets.entry(key).or_default().push((i, p.ts));
        }

        let mut predictable = vec![false; packets.len()];
        for members in buckets.values() {
            // interval bin -> packet indices associated with it.
            let mut by_bin: HashMap<u64, Vec<usize>> = HashMap::new();
            for w in members.windows(2) {
                let (i_prev, t_prev) = w[0];
                let (i_cur, t_cur) = w[1];
                let b = self.bin(t_cur - t_prev);
                let entry = by_bin.entry(b).or_default();
                entry.push(i_prev);
                entry.push(i_cur);
            }
            for indices in by_bin.values() {
                // An interval value seen at least twice (i.e. >= 3 distinct
                // packets involved across >= 2 pairs) is a repeat.
                if indices.len() >= 4 {
                    for &i in indices {
                        predictable[i] = true;
                    }
                }
            }
        }
        predictable
    }

    /// Analyze and summarize per device and traffic class.
    pub fn report(&self, packets: &[PacketRecord], dns: &DnsTable) -> PredictabilityReport {
        let flags = self.analyze(packets, dns);
        let mut per_device: HashMap<u16, ClassCounts> = HashMap::new();
        for (p, &f) in packets.iter().zip(&flags) {
            per_device.entry(p.device).or_default().add(p.label, f);
        }
        PredictabilityReport { per_device, flags }
    }

    /// For Figure 1(c): for each predictable bucket, the maximum matched
    /// interval, weighted by the bucket's predictable packet count.
    /// Returns `(max_interval, n_predictable_packets)` per bucket.
    pub fn max_intervals(
        &self,
        packets: &[PacketRecord],
        dns: &DnsTable,
    ) -> Vec<(SimDuration, usize)> {
        let mut buckets: HashMap<(u16, InternedFlowKey), Vec<SimTime>> = HashMap::new();
        for p in packets {
            buckets
                .entry((p.device, InternedFlowKey::of(self.def, p, dns)))
                .or_default()
                .push(p.ts);
        }
        let mut out = Vec::new();
        for times in buckets.values() {
            let mut by_bin: HashMap<u64, (SimDuration, HashSet<usize>)> = HashMap::new();
            for (k, w) in times.windows(2).enumerate() {
                let iv = w[1] - w[0];
                let e = by_bin.entry(self.bin(iv)).or_insert((iv, HashSet::new()));
                e.0 = e.0.max(iv);
                e.1.insert(k);
                e.1.insert(k + 1);
            }
            let mut max_iv = SimDuration::ZERO;
            let mut n = HashSet::new();
            for (iv, idx) in by_bin.values() {
                if idx.len() >= 3 {
                    max_iv = max_iv.max(*iv);
                    n.extend(idx.iter().copied());
                }
            }
            if !n.is_empty() {
                out.push((max_iv, n.len()));
            }
        }
        out
    }
}

/// Per-class predictable/total counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassCounts {
    counts: [(u64, u64); 3], // (predictable, total) per class
}

impl ClassCounts {
    fn class_idx(c: TrafficClass) -> usize {
        match c {
            TrafficClass::Control => 0,
            TrafficClass::Automated => 1,
            TrafficClass::Manual => 2,
        }
    }

    fn add(&mut self, class: TrafficClass, predictable: bool) {
        let (p, t) = &mut self.counts[Self::class_idx(class)];
        *t += 1;
        if predictable {
            *p += 1;
        }
    }

    /// Fraction of packets of `class` that were predictable (0 if none).
    pub fn fraction(&self, class: TrafficClass) -> f64 {
        let (p, t) = self.counts[Self::class_idx(class)];
        if t == 0 {
            0.0
        } else {
            p as f64 / t as f64
        }
    }

    /// Total packets of `class`.
    pub fn total(&self, class: TrafficClass) -> u64 {
        self.counts[Self::class_idx(class)].1
    }
}

/// Summary of a predictability analysis.
#[derive(Debug, Clone)]
pub struct PredictabilityReport {
    /// Per-device class counters.
    pub per_device: HashMap<u16, ClassCounts>,
    /// The raw per-packet flags (aligned with the analyzed slice).
    pub flags: Vec<bool>,
}

impl PredictabilityReport {
    /// Predictable fraction for one device and class.
    pub fn fraction(&self, device: u16, class: TrafficClass) -> f64 {
        self.per_device
            .get(&device)
            .map_or(0.0, |c| c.fraction(class))
    }
}

/// Minimum repeating interval for a bucket to become an allow rule.
///
/// Rules target periodic *control* flows, whose periods run from ~10 s to
/// 10 min (Fig 1c). A single command burst also repeats an interval — a
/// camera's 33 ms video cadence — but admitting it as a rule would let a
/// later unauthorized command stream straight through the proxy, so
/// sub-second repeats never make rules (they still count as predictable
/// in the offline analysis, as in Fig 2).
pub const MIN_RULE_INTERVAL: SimDuration = SimDuration::from_secs(1);

/// Telemetry handles for rule learning and enforcement lookups. The
/// default is a set of detached counters (not owned by any registry), so
/// uninstrumented callers pay one relaxed atomic op and nothing else.
#[derive(Debug, Clone, Default)]
pub struct RuleTelemetry {
    /// Bootstrap flow buckets admitted as rules.
    pub buckets_learned: Counter,
    /// Bootstrap flow buckets examined but rejected (no qualifying
    /// repeating interval).
    pub buckets_rejected: Counter,
    /// Enforcement-time lookups that hit a rule.
    pub match_hits: Counter,
    /// Enforcement-time lookups that missed.
    pub match_misses: Counter,
}

impl RuleTelemetry {
    /// Handles registered in `registry` under the `fiat_rules_*` names.
    pub fn registered(registry: &MetricRegistry) -> Self {
        registry.describe(
            "fiat_rules_buckets_total",
            "Bootstrap flow buckets examined for rules, by outcome.",
        );
        registry.describe(
            "fiat_rules_match_total",
            "Rule-table lookups at enforcement time, by outcome.",
        );
        RuleTelemetry {
            buckets_learned: registry
                .counter("fiat_rules_buckets_total", &[("outcome", "learned")]),
            buckets_rejected: registry
                .counter("fiat_rules_buckets_total", &[("outcome", "rejected")]),
            match_hits: registry.counter("fiat_rules_match_total", &[("outcome", "hit")]),
            match_misses: registry.counter("fiat_rules_match_total", &[("outcome", "miss")]),
        }
    }
}

/// Exported state of one evicted-rule ghost (see [`RuleTable`]): enough
/// to resume the re-learn pattern match after a snapshot restore.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GhostState {
    /// Device the evicted rule belonged to.
    pub device: u16,
    /// The evicted flow key.
    pub key: InternedFlowKey,
    /// Timestamp of the last miss on this key, if any.
    pub last_ts: Option<SimTime>,
    /// Quantized inter-arrival bin of the last miss pair, if any.
    pub last_bin: Option<u64>,
}

/// Per-ghost re-learn progress: a rule evicted by the LRU cap leaves a
/// ghost behind, and the ghost re-promotes to a rule when the flow
/// repeats a qualifying interval again — exactly the evidence the
/// bootstrap learner demanded.
#[derive(Debug, Clone, Copy)]
struct Ghost {
    last_ts: Option<SimTime>,
    last_bin: Option<u64>,
    stamp: u64,
}

/// The enforcement-time rule table (§5.4 "Rules Creation"): flows observed
/// as predictable during the bootstrap window become allow rules; a rule
/// hit at enforcement time means "predictable, allow".
///
/// ## Bounded mode (LRU + ghost re-learn)
///
/// With [`RuleTable::set_capacity`] the table holds at most `cap` rules:
/// inserting past the cap evicts the least-recently-*matched* rule
/// (deterministically — every touch takes a unique monotonic stamp, so
/// the minimum is unambiguous). An evicted rule is not forgotten
/// outright: it becomes a *ghost*, and if the flow keeps repeating a
/// qualifying interval (two consecutive inter-arrivals in the same
/// tolerance bin, at least [`MIN_RULE_INTERVAL`] long — the same
/// evidence bootstrap learning demanded) it re-promotes to a live rule.
/// Eviction therefore costs an evicted periodic flow a couple of
/// event-path traversals (latency), never a false drop, while a hostile
/// device cycling fresh keys can never grow the table past the cap —
/// fresh keys were never learned, so they have no ghost and no re-learn
/// path. Ghosts are capped at the same size and evicted the same way.
#[derive(Debug, Clone, Default)]
pub struct RuleTable {
    rules: HashMap<(u16, InternedFlowKey), u64>,
    ghosts: HashMap<(u16, InternedFlowKey), Ghost>,
    stamp: u64,
    cap: Option<usize>,
    /// Interval quantization bin for ghost re-learn, µs (0 acts as 1).
    tolerance_us: u64,
    telemetry: RuleTelemetry,
}

impl RuleTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Learn rules from a bootstrap capture: a bucket becomes a rule when
    /// it repeats an interval of at least [`MIN_RULE_INTERVAL`].
    pub fn learn(
        engine: &PredictabilityEngine,
        packets: &[PacketRecord],
        dns: &DnsTable,
    ) -> RuleTable {
        Self::learn_instrumented(engine, packets, dns, RuleTelemetry::default())
    }

    /// [`RuleTable::learn`], reporting bucket outcomes and subsequent
    /// lookup hits/misses through `telemetry`.
    pub fn learn_instrumented(
        engine: &PredictabilityEngine,
        packets: &[PacketRecord],
        dns: &DnsTable,
        telemetry: RuleTelemetry,
    ) -> RuleTable {
        let mut buckets: HashMap<(u16, InternedFlowKey), Vec<SimTime>> = HashMap::new();
        for p in packets {
            buckets
                .entry((p.device, InternedFlowKey::of(engine.def, p, dns)))
                .or_default()
                .push(p.ts);
        }
        // Qualifying buckets get their LRU stamps in (last-seen, key)
        // order, so "least recently matched" is well-defined — and
        // deterministic — from the moment the table is born.
        let mut qualifying: Vec<(SimTime, (u16, InternedFlowKey))> = Vec::new();
        for (key, times) in buckets {
            let mut counts: HashMap<u64, (SimDuration, u32)> = HashMap::new();
            for w in times.windows(2) {
                let iv = w[1] - w[0];
                let e = counts.entry(engine.bin(iv)).or_insert((iv, 0));
                e.1 += 1;
            }
            if counts
                .values()
                .any(|(iv, n)| *n >= 2 && *iv >= MIN_RULE_INTERVAL)
            {
                telemetry.buckets_learned.inc();
                qualifying.push((*times.last().expect("qualifying bucket nonempty"), key));
            } else {
                telemetry.buckets_rejected.inc();
            }
        }
        qualifying.sort();
        let mut table = RuleTable {
            tolerance_us: engine.tolerance.as_micros(),
            telemetry,
            ..RuleTable::default()
        };
        for (_, key) in qualifying {
            table.stamp += 1;
            table.rules.insert(key, table.stamp);
        }
        table
    }

    /// Whether a packet hits a learned rule, without touching LRU or
    /// ghost state (read-only observers; the enforcement path uses
    /// [`RuleTable::matches_touch`]). The lookup key is interned
    /// ([`InternedFlowKey`]) and never touches the heap. Rules only match
    /// against the same `DnsTable` (interner) they were learned with.
    pub fn matches(&self, def: FlowDef, pkt: &PacketRecord, dns: &DnsTable) -> bool {
        let hit = self
            .rules
            .contains_key(&(pkt.device, InternedFlowKey::of(def, pkt, dns)));
        if hit {
            self.telemetry.match_hits.inc();
        } else {
            self.telemetry.match_misses.inc();
        }
        hit
    }

    /// [`RuleTable::matches`] for the enforcement hot path: a hit
    /// refreshes the rule's LRU stamp; a miss advances the key's ghost
    /// (if the rule was evicted) and re-promotes it once the flow repeats
    /// a qualifying interval — the packet completing the pattern already
    /// counts as a hit.
    pub fn matches_touch(&mut self, def: FlowDef, pkt: &PacketRecord, dns: &DnsTable) -> bool {
        let key = (pkt.device, InternedFlowKey::of(def, pkt, dns));
        if let Some(stamp) = self.rules.get_mut(&key) {
            self.stamp += 1;
            *stamp = self.stamp;
            self.telemetry.match_hits.inc();
            return true;
        }
        if self.advance_ghost(key, pkt.ts) {
            self.telemetry.match_hits.inc();
            return true;
        }
        self.telemetry.match_misses.inc();
        false
    }

    /// Advance the re-learn pattern for an evicted key; `true` when this
    /// packet completed the qualifying repeat and the rule was promoted
    /// back into the table.
    fn advance_ghost(&mut self, key: (u16, InternedFlowKey), ts: SimTime) -> bool {
        let Some(g) = self.ghosts.get_mut(&key) else {
            return false;
        };
        self.stamp += 1;
        g.stamp = self.stamp;
        let mut promote = false;
        if let Some(prev) = g.last_ts {
            let iv = ts - prev;
            let bin = iv.as_micros() / self.tolerance_us.max(1);
            promote = g.last_bin == Some(bin) && iv >= MIN_RULE_INTERVAL;
            g.last_bin = Some(bin);
        }
        g.last_ts = Some(ts);
        if promote {
            self.ghosts.remove(&key);
            self.insert(key.0, key.1);
        }
        promote
    }

    /// Number of live rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Number of evicted-rule ghosts currently tracked.
    pub fn ghost_len(&self) -> usize {
        self.ghosts.len()
    }

    /// Cap the table (and its ghost set) at `cap` entries, evicting
    /// least-recently-matched rules immediately if already over. `None`
    /// restores the unbounded historical behavior.
    pub fn set_capacity(&mut self, cap: Option<usize>) {
        self.cap = cap;
        self.evict_rules_over_cap();
        self.evict_ghosts_over_cap();
    }

    /// Configured rule cap.
    pub fn capacity(&self) -> Option<usize> {
        self.cap
    }

    /// Override the ghost re-learn tolerance bin (defaults to the learn
    /// engine's; restore paths re-supply it from config).
    pub fn set_tolerance(&mut self, tolerance: SimDuration) {
        self.tolerance_us = tolerance.as_micros();
    }

    fn evict_rules_over_cap(&mut self) {
        let Some(cap) = self.cap else { return };
        while self.rules.len() > cap {
            // Unique stamps make the minimum unambiguous, so eviction is
            // deterministic regardless of hash iteration order.
            let victim = *self
                .rules
                .iter()
                .min_by_key(|(_, s)| **s)
                .expect("nonempty over-cap table")
                .0;
            self.rules.remove(&victim);
            self.stamp += 1;
            self.ghosts.insert(
                victim,
                Ghost {
                    last_ts: None,
                    last_bin: None,
                    stamp: self.stamp,
                },
            );
            self.evict_ghosts_over_cap();
        }
    }

    fn evict_ghosts_over_cap(&mut self) {
        let Some(cap) = self.cap else { return };
        while self.ghosts.len() > cap {
            let victim = *self
                .ghosts
                .iter()
                .min_by_key(|(_, g)| g.stamp)
                .expect("nonempty over-cap ghosts")
                .0;
            self.ghosts.remove(&victim);
        }
    }

    /// Insert a rule directly (used for the §7 DAG-style allow rules,
    /// e.g. "always allow Alexa → smart light"). Intern the key (via
    /// `FlowKey::intern`) against the same `DnsTable` later lookups use.
    /// In bounded mode an over-cap insert evicts the least-recently-
    /// matched rule into a ghost.
    pub fn insert(&mut self, device: u16, key: InternedFlowKey) {
        let k = (device, key);
        self.stamp += 1;
        self.rules.insert(k, self.stamp);
        self.ghosts.remove(&k);
        self.evict_rules_over_cap();
    }

    /// Restore one ghost (snapshot restore path); appended in call order,
    /// so feeding [`RuleTable::export_ghosts`] back preserves the
    /// eviction order.
    pub fn insert_ghost(&mut self, g: GhostState) {
        self.stamp += 1;
        self.ghosts.insert(
            (g.device, g.key),
            Ghost {
                last_ts: g.last_ts,
                last_bin: g.last_bin,
                stamp: self.stamp,
            },
        );
        self.evict_ghosts_over_cap();
    }

    /// Empty table reporting lookup outcomes through `telemetry` — the
    /// restore half of a snapshot, where rules are re-inserted rather
    /// than re-learned (re-learning would double the bucket counters).
    pub fn with_telemetry(telemetry: RuleTelemetry) -> Self {
        RuleTable {
            telemetry,
            ..RuleTable::default()
        }
    }

    /// Iterate the learned `(device, key)` rules, in arbitrary (hash)
    /// order. Callers that need determinism — e.g. a snapshot — must
    /// use [`RuleTable::export_lru`] or sort after resolving.
    pub fn iter(&self) -> impl Iterator<Item = &(u16, InternedFlowKey)> {
        self.rules.keys()
    }

    /// Live rules in LRU order, least recently matched first. Re-inserting
    /// them in this order (as snapshot restore does) reproduces the
    /// eviction order exactly, so a restored proxy evicts the same rules
    /// the uninterrupted one would.
    pub fn export_lru(&self) -> Vec<(u16, InternedFlowKey)> {
        let mut v: Vec<(u64, (u16, InternedFlowKey))> =
            self.rules.iter().map(|(k, s)| (*s, *k)).collect();
        v.sort_unstable_by_key(|(s, _)| *s);
        v.into_iter().map(|(_, k)| k).collect()
    }

    /// Evicted-rule ghosts in LRU order, least recently touched first
    /// (same restore contract as [`RuleTable::export_lru`]).
    pub fn export_ghosts(&self) -> Vec<GhostState> {
        let mut v: Vec<(u64, GhostState)> = self
            .ghosts
            .iter()
            .map(|(k, g)| {
                (
                    g.stamp,
                    GhostState {
                        device: k.0,
                        key: k.1,
                        last_ts: g.last_ts,
                        last_bin: g.last_bin,
                    },
                )
            })
            .collect();
        v.sort_unstable_by_key(|(s, _)| *s);
        v.into_iter().map(|(_, g)| g).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fiat_net::{Direction, TcpFlags, TlsVersion, Transport};
    use std::net::Ipv4Addr;

    fn pkt(ts_ms: u64, size: u16, port: u16) -> PacketRecord {
        PacketRecord {
            ts: SimTime::from_millis(ts_ms),
            device: 0,
            direction: Direction::FromDevice,
            local_ip: Ipv4Addr::new(192, 168, 1, 10),
            remote_ip: Ipv4Addr::new(34, 0, 0, 1),
            local_port: port,
            remote_port: 443,
            transport: Transport::Tcp,
            tcp_flags: TcpFlags::ack(),
            tls: TlsVersion::None,
            size,
            label: TrafficClass::Control,
        }
    }

    #[test]
    fn periodic_flow_is_fully_predictable() {
        let packets: Vec<PacketRecord> = (0..10).map(|i| pkt(i * 1000, 100, 5000)).collect();
        let eng = PredictabilityEngine::new(FlowDef::PortLess);
        let flags = eng.analyze(&packets, &DnsTable::new());
        assert!(flags.iter().all(|&f| f), "{flags:?}");
    }

    #[test]
    fn two_packet_flow_never_predictable() {
        // Only one interval: cannot match a previous interval.
        let packets = vec![pkt(0, 235, 5000), pkt(100, 235, 5000)];
        let eng = PredictabilityEngine::new(FlowDef::PortLess);
        let flags = eng.analyze(&packets, &DnsTable::new());
        assert_eq!(flags, vec![false, false]);
    }

    #[test]
    fn irregular_intervals_unpredictable() {
        // Distinct intervals in distinct bins never repeat.
        let times = [0u64, 1000, 3500, 9000, 20000];
        let packets: Vec<PacketRecord> = times.iter().map(|&t| pkt(t, 100, 5000)).collect();
        let eng = PredictabilityEngine::new(FlowDef::PortLess);
        let flags = eng.analyze(&packets, &DnsTable::new());
        assert!(flags.iter().all(|&f| !f), "{flags:?}");
    }

    #[test]
    fn jitter_within_tolerance_still_matches() {
        // Period 1000 ms with ±80 ms jitter lands in the same 250 ms bin
        // often enough that most packets are predictable.
        let times = [0u64, 1010, 2020, 3080, 4100, 5150, 6170];
        let packets: Vec<PacketRecord> = times.iter().map(|&t| pkt(t, 100, 5000)).collect();
        let eng = PredictabilityEngine::new(FlowDef::PortLess);
        let flags = eng.analyze(&packets, &DnsTable::new());
        let frac = flags.iter().filter(|&&f| f).count() as f64 / flags.len() as f64;
        assert!(frac > 0.8, "{flags:?}");
    }

    #[test]
    fn port_churn_breaks_classic_not_portless() {
        // Same flow, but the source port changes every 2 packets.
        let packets: Vec<PacketRecord> = (0..12)
            .map(|i| pkt(i * 1000, 100, 5000 + (i / 2) as u16))
            .collect();
        let dns = DnsTable::new();
        let classic = PredictabilityEngine::new(FlowDef::Classic).analyze(&packets, &dns);
        let portless = PredictabilityEngine::new(FlowDef::PortLess).analyze(&packets, &dns);
        assert!(classic.iter().all(|&f| !f), "classic: {classic:?}");
        assert!(portless.iter().all(|&f| f), "portless: {portless:?}");
    }

    #[test]
    fn different_sizes_bucket_separately() {
        let mut packets = Vec::new();
        for i in 0..6 {
            packets.push(pkt(i * 1000, 100, 5000));
        }
        // Interleaved one-off packets of unique sizes stay unpredictable.
        packets.push(pkt(150, 999, 5000));
        packets.push(pkt(2150, 888, 5000));
        packets.sort_by_key(|p| p.ts);
        let eng = PredictabilityEngine::new(FlowDef::PortLess);
        let flags = eng.analyze(&packets, &DnsTable::new());
        for (p, f) in packets.iter().zip(&flags) {
            assert_eq!(*f, p.size == 100, "size {} flagged {}", p.size, f);
        }
    }

    #[test]
    fn report_aggregates_by_class() {
        let mut packets: Vec<PacketRecord> = (0..10).map(|i| pkt(i * 1000, 100, 5000)).collect();
        let mut manual = pkt(2500, 777, 6000);
        manual.label = TrafficClass::Manual;
        packets.push(manual);
        packets.sort_by_key(|p| p.ts);
        let eng = PredictabilityEngine::new(FlowDef::PortLess);
        let rep = eng.report(&packets, &DnsTable::new());
        assert_eq!(rep.fraction(0, TrafficClass::Control), 1.0);
        assert_eq!(rep.fraction(0, TrafficClass::Manual), 0.0);
    }

    #[test]
    fn max_intervals_reports_period() {
        let packets: Vec<PacketRecord> = (0..10).map(|i| pkt(i * 60_000, 100, 5000)).collect();
        let eng = PredictabilityEngine::new(FlowDef::PortLess);
        let iv = eng.max_intervals(&packets, &DnsTable::new());
        assert_eq!(iv.len(), 1);
        assert_eq!(iv[0].0, SimDuration::from_secs(60));
        assert_eq!(iv[0].1, 10);
    }

    #[test]
    fn devices_do_not_share_buckets() {
        // Identical flows on two devices are independent: 2 packets each,
        // so neither is predictable even though combined they would be.
        let mut packets = vec![pkt(0, 100, 5000), pkt(1000, 100, 5000)];
        let mut p3 = pkt(2000, 100, 5000);
        p3.device = 1;
        let mut p4 = pkt(3000, 100, 5000);
        p4.device = 1;
        packets.push(p3);
        packets.push(p4);
        let eng = PredictabilityEngine::new(FlowDef::PortLess);
        let flags = eng.analyze(&packets, &DnsTable::new());
        assert!(flags.iter().all(|&f| !f));
    }

    #[test]
    fn rule_table_learns_predictable_buckets() {
        let packets: Vec<PacketRecord> = (0..10).map(|i| pkt(i * 1000, 100, 5000)).collect();
        let dns = DnsTable::new();
        let eng = PredictabilityEngine::new(FlowDef::PortLess);
        let rules = RuleTable::learn(&eng, &packets, &dns);
        assert_eq!(rules.len(), 1);
        // A fresh packet of the same flow hits; a different size misses.
        assert!(rules.matches(FlowDef::PortLess, &pkt(99_000, 100, 60_000), &dns));
        assert!(!rules.matches(FlowDef::PortLess, &pkt(99_000, 101, 60_000), &dns));
    }

    #[test]
    fn rule_table_empty_from_unpredictable_bootstrap() {
        let packets = vec![pkt(0, 1, 1), pkt(777, 2, 2), pkt(9999, 3, 3)];
        let dns = DnsTable::new();
        let eng = PredictabilityEngine::new(FlowDef::PortLess);
        let rules = RuleTable::learn(&eng, &packets, &dns);
        assert!(rules.is_empty());
    }

    #[test]
    #[should_panic(expected = "tolerance must be positive")]
    fn zero_tolerance_rejected() {
        let _ = PredictabilityEngine::new(FlowDef::PortLess).with_tolerance(SimDuration::ZERO);
    }

    fn key_of(size: u16, dns: &DnsTable) -> InternedFlowKey {
        InternedFlowKey::of(FlowDef::PortLess, &pkt(0, size, 1), dns)
    }

    #[test]
    fn hostile_key_churn_cannot_grow_table_past_cap() {
        // The satellite-1 regression: a hostile device cycling fresh flow
        // keys — whether through direct inserts or enforcement lookups —
        // can never grow the bounded table (or its ghost set) past the
        // cap.
        let dns = DnsTable::new();
        let eng = PredictabilityEngine::new(FlowDef::PortLess);
        let packets: Vec<PacketRecord> = (0..10).map(|i| pkt(i * 10_000, 100, 5000)).collect();
        let mut rules = RuleTable::learn(&eng, &packets, &dns);
        rules.set_capacity(Some(4));
        for i in 0..1000u64 {
            rules.insert(0, key_of(200 + (i % 50_000) as u16, &dns));
            assert!(rules.len() <= 4, "iteration {i}: {} rules", rules.len());
            assert!(rules.ghost_len() <= 4, "iteration {i}");
        }
        let mut touched = rules.clone();
        for i in 0..1000u64 {
            // Fresh keys were never learned: no rule, no ghost, no growth.
            assert!(!touched.matches_touch(
                FlowDef::PortLess,
                &pkt(i * 1000, 10_000 + (i % 50_000) as u16, 9),
                &dns
            ));
        }
        assert_eq!(touched.len(), rules.len());
        assert_eq!(touched.ghost_len(), rules.ghost_len());
    }

    #[test]
    fn evicted_rule_relearns_after_qualifying_repeat() {
        // Eviction costs an evicted periodic flow latency (two event-path
        // misses), never permanence: the qualifying repeat re-promotes it.
        let dns = DnsTable::new();
        let eng = PredictabilityEngine::new(FlowDef::PortLess);
        let packets: Vec<PacketRecord> = (0..10).map(|i| pkt(i * 10_000, 100, 5000)).collect();
        let mut rules = RuleTable::learn(&eng, &packets, &dns);
        rules.set_capacity(Some(1));
        rules.insert(0, key_of(222, &dns)); // evicts the learned rule
        assert_eq!(rules.len(), 1);
        assert_eq!(rules.ghost_len(), 1);
        assert!(!rules.matches(FlowDef::PortLess, &pkt(100_000, 100, 9), &dns));

        // The periodic flow resumes at its 10 s cadence: the third packet
        // completes two equal intervals and hits again.
        assert!(!rules.matches_touch(FlowDef::PortLess, &pkt(200_000, 100, 9), &dns));
        assert!(!rules.matches_touch(FlowDef::PortLess, &pkt(210_000, 100, 9), &dns));
        assert!(rules.matches_touch(FlowDef::PortLess, &pkt(220_000, 100, 9), &dns));
        assert_eq!(rules.len(), 1, "cap still holds after re-promotion");
        assert!(rules.matches(FlowDef::PortLess, &pkt(230_000, 100, 9), &dns));
    }

    #[test]
    fn sub_second_repeats_never_repromote() {
        // Same guard as bootstrap learning: a command burst repeating a
        // 33 ms cadence must not resurrect an evicted rule.
        let dns = DnsTable::new();
        let eng = PredictabilityEngine::new(FlowDef::PortLess);
        let packets: Vec<PacketRecord> = (0..10).map(|i| pkt(i * 10_000, 100, 5000)).collect();
        let mut rules = RuleTable::learn(&eng, &packets, &dns);
        rules.set_capacity(Some(1));
        rules.insert(0, key_of(222, &dns));
        for i in 0..20u64 {
            assert!(!rules.matches_touch(FlowDef::PortLess, &pkt(200_000 + i * 33, 100, 9), &dns));
        }
    }

    #[test]
    fn eviction_is_least_recently_matched() {
        let dns = DnsTable::new();
        let eng = PredictabilityEngine::new(FlowDef::PortLess);
        let mut packets: Vec<PacketRecord> = (0..6).map(|i| pkt(i * 10_000, 100, 5000)).collect();
        packets.extend((0..6).map(|i| pkt(i * 10_000 + 500, 200, 5000)));
        packets.sort_by_key(|p| p.ts);
        let mut rules = RuleTable::learn(&eng, &packets, &dns);
        assert_eq!(rules.len(), 2);
        rules.set_capacity(Some(2));
        // Touch the size-100 rule; the size-200 rule is now LRU, so the
        // next insert evicts it and not the fresh match.
        assert!(rules.matches_touch(FlowDef::PortLess, &pkt(70_000, 100, 9), &dns));
        rules.insert(0, key_of(55, &dns));
        assert!(rules.matches(FlowDef::PortLess, &pkt(80_000, 100, 9), &dns));
        assert!(!rules.matches(FlowDef::PortLess, &pkt(80_000, 200, 9), &dns));
    }

    #[test]
    fn export_lru_round_trips_eviction_order() {
        let dns = DnsTable::new();
        let (k1, k2, k3) = (key_of(11, &dns), key_of(12, &dns), key_of(13, &dns));
        let mut rules = RuleTable::new();
        rules.insert(0, k1);
        rules.insert(0, k2);
        rules.insert(0, k3);
        rules.insert(0, k1); // refresh: k1 is now the most recent
        assert_eq!(rules.export_lru(), vec![(0, k2), (0, k3), (0, k1)]);

        // Re-inserting the export reproduces the order (restore contract).
        let mut restored = RuleTable::new();
        for (d, k) in rules.export_lru() {
            restored.insert(d, k);
        }
        assert_eq!(restored.export_lru(), rules.export_lru());
        restored.set_capacity(Some(2));
        assert_eq!(restored.export_lru(), vec![(0, k3), (0, k1)]);
        assert_eq!(
            restored.export_ghosts(),
            vec![GhostState {
                device: 0,
                key: k2,
                last_ts: None,
                last_bin: None
            }]
        );
    }

    #[test]
    fn instrumented_learning_counts_buckets_and_lookups() {
        // One periodic bucket (becomes a rule) plus one two-packet bucket
        // (rejected).
        let mut packets: Vec<PacketRecord> = (0..10).map(|i| pkt(i * 1000, 100, 5000)).collect();
        packets.push(pkt(300, 999, 5000));
        packets.push(pkt(700, 999, 5000));
        packets.sort_by_key(|p| p.ts);
        let dns = DnsTable::new();
        let eng = PredictabilityEngine::new(FlowDef::PortLess);
        let registry = MetricRegistry::new();
        let telemetry = RuleTelemetry::registered(&registry);
        let rules = RuleTable::learn_instrumented(&eng, &packets, &dns, telemetry.clone());
        assert_eq!(telemetry.buckets_learned.get(), 1);
        assert_eq!(telemetry.buckets_rejected.get(), 1);

        assert!(rules.matches(FlowDef::PortLess, &pkt(99_000, 100, 60_000), &dns));
        assert!(!rules.matches(FlowDef::PortLess, &pkt(99_000, 101, 60_000), &dns));
        assert_eq!(telemetry.match_hits.get(), 1);
        assert_eq!(telemetry.match_misses.get(), 1);
        // The registry sees the same counts (handles are shared).
        assert!(registry
            .render_prometheus()
            .contains("fiat_rules_match_total{outcome=\"hit\"} 1"));
    }
}
