//! The §2.1 predictability heuristic.
//!
//! Packets are bucketed by flow key ([`FlowDef::Classic`] 6-tuple or
//! [`FlowDef::PortLess`]); within a bucket, the inter-arrival time of each
//! consecutive packet pair is computed. If an inter-arrival matches any
//! previously computed inter-arrival for that bucket, *all packets
//! associated with that inter-arrival — previous or future — are
//! predictable*. Real traffic jitters by tens of milliseconds, so
//! intervals are quantized into tolerance bins before matching.
//!
//! One private pass buckets the packets and summarizes each bucket's
//! bins; a bin *repeats* when it holds two pairs. The figures' `analyze`
//! and `max_intervals` and the proxy's [`RuleTable::learn`] are folds
//! over it, so the figures measure the rules the proxy learns.

use crate::snapshot::GhostSnapshot;
use fiat_net::{
    DeviceFlowKey, DnsTable, FastMap, FlowDef, InternedFlowKey, PacketRecord, SimDuration, SimTime,
    TrafficClass,
};
use fiat_telemetry::{CounterCell, Family, MetricRegistry, PartWriter, SchemaPart};
use std::collections::HashMap;

/// Default interval quantization bin: one microsecond, i.e. exact
/// matching at capture resolution — what the paper's heuristic does.
/// Timer-driven IoT control traffic re-fires at coarse scheduler ticks,
/// so its inter-arrival values repeat exactly; the irregular gaps inside
/// command bursts are effectively continuous and (almost) never do.
/// Coarser bins trade false "predictable" matches for jitter tolerance;
/// only the proxy's `ProxyConfig::tolerance` (this by default) sets one.
pub const DEFAULT_TOLERANCE: SimDuration = SimDuration::from_micros(1);

/// A bucket: device and flow key, hashed as two or three packed words.
type Key = DeviceFlowKey;

/// A packet's bucket.
fn bucket_key(def: FlowDef, p: &PacketRecord, dns: &DnsTable) -> Key {
    Key {
        device: p.device,
        flow: InternedFlowKey::of(def, p, dns),
    }
}

/// An interval's tolerance bin (a zero tolerance acts as 1 µs).
fn bin(interval: SimDuration, tolerance: SimDuration) -> u64 {
    interval.as_micros() / tolerance.as_micros().max(1)
}

/// One tolerance bin of a bucket: its first interval in trace order,
/// its largest, and how many consecutive packet pairs fall in it.
#[derive(Debug, Clone, Copy, Default)]
struct Bin {
    first: SimDuration,
    max: SimDuration,
    pairs: u32,
}

impl Bin {
    /// The interval repeated: two pairs share the bin.
    fn repeats(&self) -> bool {
        self.pairs >= 2
    }
}

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

    /// Override the tolerance bin (the proxy's `ProxyConfig::tolerance`).
    pub fn with_tolerance(mut self, tolerance: SimDuration) -> Self {
        assert!(tolerance > SimDuration::ZERO, "tolerance must be positive");
        self.tolerance = tolerance;
        self
    }

    /// The bucketing pass: calls `fold` with each bucket's key, its
    /// packet indices in trace order, and its bins. A counting sort
    /// lays every bucket's indices out in one array, and one bin map
    /// serves every bucket, so nothing is allocated per bucket or bin.
    fn for_each_bucket(
        &self,
        packets: &[PacketRecord],
        dns: &DnsTable,
        mut fold: impl FnMut(Key, &[usize], &FastMap<u64, Bin>),
    ) {
        // Each key's dense id, in order of first appearance.
        let mut ids: FastMap<Key, usize> = FastMap::default();
        let bucket_of: Vec<usize> = packets
            .iter()
            .map(|p| {
                let next = ids.len();
                *ids.entry(bucket_key(self.def, p, dns)).or_insert(next)
            })
            .collect();
        // `end[b]` counts bucket b's packets, then holds its first slot
        // in `order`, and after the fill one past its last, so bucket b
        // is `end[b - 1]..end[b]`.
        let mut end = vec![0; ids.len()];
        for &b in &bucket_of {
            end[b] += 1;
        }
        let mut start = 0;
        for slot in &mut end {
            (*slot, start) = (start, start + *slot);
        }
        let mut order = vec![0; packets.len()];
        for (i, &b) in bucket_of.iter().enumerate() {
            order[end[b]] = i;
            end[b] += 1;
        }
        let mut bins: FastMap<u64, Bin> = FastMap::default();
        for (&key, &b) in &ids {
            let members = &order[b.checked_sub(1).map_or(0, |p| end[p])..end[b]];
            bins.clear();
            for pair in members.windows(2) {
                let iv = packets[pair[1]].ts - packets[pair[0]].ts;
                let e = bins.entry(bin(iv, self.tolerance)).or_default();
                if e.pairs == 0 {
                    e.first = iv;
                }
                e.max = e.max.max(iv);
                e.pairs += 1;
            }
            fold(key, members, &bins);
        }
    }

    /// Analyze packets (with the trace's DNS table), returning one flag
    /// per packet: `true` = predictable, i.e. one end of a pair whose
    /// bin repeats.
    pub fn analyze(&self, packets: &[PacketRecord], dns: &DnsTable) -> Vec<bool> {
        let mut predictable = vec![false; packets.len()];
        self.for_each_bucket(packets, dns, |_, members, bins| {
            for pair in members.windows(2) {
                let iv = packets[pair[1]].ts - packets[pair[0]].ts;
                if bins[&bin(iv, self.tolerance)].repeats() {
                    predictable[pair[0]] = true;
                    predictable[pair[1]] = true;
                }
            }
        });
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
        let flags = self.analyze(packets, dns);
        let mut out = Vec::new();
        self.for_each_bucket(packets, dns, |_, members, bins| {
            let repeating = bins.values().filter(|b| b.repeats());
            if let Some(max_iv) = repeating.map(|b| b.max).max() {
                out.push((max_iv, members.iter().filter(|&&i| flags[i]).count()));
            }
        });
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

/// The rule table's own cells of the `fiat_rules_*` series: bucket
/// outcomes at learning and lookup outcomes at enforcement. The table is
/// their one writer ([`MetricRegistry::attach_writer`]), so a lookup's
/// count is a relaxed load and a store, not a locked instruction. The
/// default is a set of detached cells that no registry reads.
#[derive(Debug)]
pub struct RuleTelemetry {
    cells: PartWriter,
    learned: CounterCell,
    rejected: CounterCell,
    hits: CounterCell,
    misses: CounterCell,
}

impl Default for RuleTelemetry {
    fn default() -> Self {
        Self::over(PartWriter::detached(&RULE_METRICS))
    }
}

/// The `fiat_rules_*` series, attached when rules are learned or
/// restored, so they stay absent from a registry until then.
static RULE_METRICS: SchemaPart = SchemaPart::new(&[
    Family::counter(
        "fiat_rules_buckets_total",
        "Bootstrap flow buckets examined for rules, by outcome.",
        &[&[("outcome", "learned")], &[("outcome", "rejected")]],
    ),
    Family::counter(
        "fiat_rules_match_total",
        "Rule-table lookups at enforcement time, by outcome.",
        &[&[("outcome", "hit")], &[("outcome", "miss")]],
    ),
]);

impl RuleTelemetry {
    /// This table's own cells of the `fiat_rules_*` series of
    /// `registry`.
    pub fn registered(registry: &MetricRegistry) -> Self {
        Self::over(registry.attach_writer(&RULE_METRICS))
    }

    /// Count one enforcement lookup.
    fn note_match(&mut self, hit: bool) {
        let c = if hit { self.hits } else { self.misses };
        self.cells.inc(c);
    }

    fn over(cells: PartWriter) -> Self {
        RuleTelemetry {
            learned: cells.counter(0, 0),
            rejected: cells.counter(0, 1),
            hits: cells.counter(1, 0),
            misses: cells.counter(1, 1),
            cells,
        }
    }
}

/// Per-ghost re-learn progress: the previous sighting and the bin of
/// the previous interval (not its value, so the floor can only test the
/// promoting interval; see [`RuleTable`]).
#[derive(Debug, Clone, Copy, Default)]
struct Ghost {
    last_ts: Option<SimTime>,
    last_bin: Option<u64>,
    stamp: u64,
}

/// The key of a nonempty map with the least recent stamp. Stamps are
/// unique, so the minimum does not depend on hash iteration order.
fn least_recent<V>(map: &FastMap<Key, V>, stamp: impl Fn(&V) -> u64) -> Key {
    let (key, _) = map.iter().min_by_key(|(_, v)| stamp(v)).expect("nonempty");
    *key
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
/// outright: it becomes a *ghost*, and it re-promotes to a live rule
/// when two consecutive inter-arrivals share a tolerance bin and the
/// second is at least [`MIN_RULE_INTERVAL`]. (Bootstrap tests a
/// repeating bin's *first* interval; with 1 µs bins the two are equal.)
/// Eviction therefore costs an evicted periodic flow a couple of
/// event-path traversals (latency), never a false drop, while a hostile
/// device cycling fresh keys can never grow the table past the cap —
/// fresh keys were never learned, so they have no ghost and no re-learn
/// path. Ghosts are capped at the same size and evicted the same way.
#[derive(Debug, Default)]
pub struct RuleTable {
    rules: FastMap<Key, u64>,
    ghosts: FastMap<Key, Ghost>,
    stamp: u64,
    cap: Option<usize>,
    /// Interval quantization bin for ghost re-learn.
    tolerance: SimDuration,
    telemetry: RuleTelemetry,
}

impl RuleTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Learn rules from a bootstrap capture: a bucket becomes a rule when
    /// one of its bins repeats (holds two pairs) and that bin's first
    /// interval is at least [`MIN_RULE_INTERVAL`].
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
        mut telemetry: RuleTelemetry,
    ) -> RuleTable {
        // Qualifying buckets get their LRU stamps in (last-seen, key)
        // order, so "least recently matched" is well-defined — and
        // deterministic — from the moment the table is born.
        let mut qualifying: Vec<(SimTime, Key)> = Vec::new();
        let t = &mut telemetry;
        engine.for_each_bucket(packets, dns, |key, members, bins| {
            if bins
                .values()
                .any(|b| b.repeats() && b.first >= MIN_RULE_INTERVAL)
            {
                t.cells.inc(t.learned);
                let last = *members.last().expect("buckets are nonempty");
                qualifying.push((packets[last].ts, key));
            } else {
                t.cells.inc(t.rejected);
            }
        });
        qualifying.sort();
        let mut table = RuleTable {
            tolerance: engine.tolerance,
            telemetry,
            ..RuleTable::default()
        };
        for (_, key) in qualifying {
            table.insert(key.device, key.flow);
        }
        table
    }

    /// Whether a packet hits a learned rule. The lookup key is interned
    /// ([`InternedFlowKey`]) and never touches the heap; rules only match
    /// against the same `DnsTable` (interner) they were learned with. A
    /// hit refreshes the rule's LRU stamp; a miss advances the key's
    /// ghost (if the rule was evicted) and re-promotes it once the flow
    /// repeats a qualifying interval — the packet completing the pattern
    /// already counts as a hit.
    pub fn matches_touch(&mut self, def: FlowDef, pkt: &PacketRecord, dns: &DnsTable) -> bool {
        let key = bucket_key(def, pkt, dns);
        if let Some(stamp) = self.rules.get_mut(&key) {
            self.stamp += 1;
            *stamp = self.stamp;
            self.telemetry.note_match(true);
            return true;
        }
        let hit = self.advance_ghost(key, pkt.ts);
        self.telemetry.note_match(hit);
        hit
    }

    /// Advance the re-learn pattern for an evicted key; `true` when this
    /// packet completed the qualifying repeat and the rule was promoted
    /// back into the table.
    fn advance_ghost(&mut self, key: Key, ts: SimTime) -> bool {
        let Some(g) = self.ghosts.get_mut(&key) else {
            return false;
        };
        self.stamp += 1;
        g.stamp = self.stamp;
        let mut promote = false;
        if let Some(prev) = g.last_ts {
            let iv = ts - prev;
            let b = bin(iv, self.tolerance);
            promote = g.last_bin == Some(b) && iv >= MIN_RULE_INTERVAL;
            g.last_bin = Some(b);
        }
        g.last_ts = Some(ts);
        if promote {
            self.ghosts.remove(&key);
            self.insert(key.device, key.flow);
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
        self.evict_over_cap();
    }

    /// Evict least-recently-matched rules into ghosts, then the least
    /// recently touched ghosts, until both fit the cap.
    fn evict_over_cap(&mut self) {
        let Some(cap) = self.cap else { return };
        while self.rules.len() > cap {
            let victim = least_recent(&self.rules, |&s| s);
            self.rules.remove(&victim);
            self.stamp += 1;
            let ghost = Ghost {
                stamp: self.stamp,
                ..Ghost::default()
            };
            self.ghosts.insert(victim, ghost);
        }
        while self.ghosts.len() > cap {
            let victim = least_recent(&self.ghosts, |g| g.stamp);
            self.ghosts.remove(&victim);
        }
    }

    /// Insert a rule directly (used for the §7 DAG-style allow rules,
    /// e.g. "always allow Alexa → smart light"). Build the key
    /// ([`InternedFlowKey::of`]) from the same `DnsTable` later lookups
    /// use. In bounded mode an over-cap insert evicts the least-recently-
    /// matched rule into a ghost.
    pub fn insert(&mut self, device: u16, key: InternedFlowKey) {
        let k = Key { device, flow: key };
        self.stamp += 1;
        self.rules.insert(k, self.stamp);
        self.ghosts.remove(&k);
        self.evict_over_cap();
    }

    /// The table as a snapshot stores it: live rules, then evicted-rule
    /// ghosts, each in LRU order (least recently matched or touched
    /// first), with their keys as the table holds them. Stamps are
    /// unique, so the order is the eviction order and does not depend on
    /// hash order.
    pub fn snapshot(&self) -> (Vec<DeviceFlowKey>, Vec<GhostSnapshot>) {
        let mut rules: Vec<_> = self.rules.keys().copied().collect();
        rules.sort_unstable_by_key(|k| self.rules[k]);
        let ghost = |(&key, g): (&Key, &Ghost)| GhostSnapshot {
            key,
            last_ts: g.last_ts,
            last_bin: g.last_bin,
        };
        let mut ghosts: Vec<_> = self.ghosts.iter().map(ghost).collect();
        ghosts.sort_unstable_by_key(|g| self.ghosts[&g.key].stamp);
        (rules, ghosts)
    }

    /// Rebuild a table from [`RuleTable::snapshot`]'s lists, whose keys
    /// are only meaningful against the `DnsTable` snapshotted with them.
    /// Rules, then ghosts, take fresh stamps in list order, which
    /// reproduces the snapshotted eviction order. `None` when a key
    /// appears twice among the rules and ghosts, or when the rules or
    /// the ghosts are more than `cap`: a live table holds each key once,
    /// as a rule or as a ghost, and never more of either than its cap.
    /// `tolerance` is the ghost re-learn bin. Once the lists are
    /// accepted, lookups report into `registry`'s `fiat_rules_*` series;
    /// the bucket counters stay untouched, since re-learning would count
    /// the buckets twice.
    pub fn restore(
        rules: &[DeviceFlowKey],
        ghosts: &[GhostSnapshot],
        tolerance: SimDuration,
        cap: Option<usize>,
        registry: &MetricRegistry,
    ) -> Option<RuleTable> {
        if cap.is_some_and(|cap| rules.len().max(ghosts.len()) > cap) {
            return None;
        }
        let (mut live, mut evicted, mut stamp) = (FastMap::default(), FastMap::default(), 0);
        for key in rules {
            stamp += 1;
            if live.insert(*key, stamp).is_some() {
                return None;
            }
        }
        for g in ghosts {
            stamp += 1;
            let ghost = Ghost {
                last_ts: g.last_ts,
                last_bin: g.last_bin,
                stamp,
            };
            if live.contains_key(&g.key) || evicted.insert(g.key, ghost).is_some() {
                return None;
            }
        }
        Some(RuleTable {
            rules: live,
            ghosts: evicted,
            stamp,
            cap,
            tolerance,
            telemetry: RuleTelemetry::registered(registry),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fiat_net::{Direction, TcpFlags, TlsVersion, Transport};
    use std::hash::BuildHasher;
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
        // Period ~1 s with 10–60 ms of jitter: no interval repeats
        // exactly, but all six land in one 250 ms bin.
        let times = [0u64, 1010, 2030, 3060, 4100, 5150, 6210];
        let packets: Vec<PacketRecord> = times.iter().map(|&t| pkt(t, 100, 5000)).collect();
        let dns = DnsTable::new();
        let binned = PredictabilityEngine::new(FlowDef::PortLess)
            .with_tolerance(SimDuration::from_millis(250))
            .analyze(&packets, &dns);
        assert!(binned.iter().all(|&f| f), "{binned:?}");
        let exact = PredictabilityEngine::new(FlowDef::PortLess).analyze(&packets, &dns);
        assert!(exact.iter().all(|&f| !f), "{exact:?}");
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
        let mut rules = RuleTable::learn(&eng, &packets, &dns);
        assert_eq!(rules.len(), 1);
        // A fresh packet of the same flow hits; a different size misses.
        assert!(rules.matches_touch(FlowDef::PortLess, &pkt(99_000, 100, 60_000), &dns));
        assert!(!rules.matches_touch(FlowDef::PortLess, &pkt(99_000, 101, 60_000), &dns));
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
        let (len, ghosts) = (rules.len(), rules.ghost_len());
        for i in 0..1000u64 {
            // Fresh keys were never learned: no rule, no ghost, no growth.
            assert!(!rules.matches_touch(
                FlowDef::PortLess,
                &pkt(i * 1000, 10_000 + (i % 50_000) as u16, 9),
                &dns
            ));
        }
        assert_eq!(rules.len(), len);
        assert_eq!(rules.ghost_len(), ghosts);
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
        assert!(!rules.matches_touch(FlowDef::PortLess, &pkt(100_000, 100, 9), &dns));

        // The periodic flow resumes at its 10 s cadence: the third packet
        // completes two equal intervals and hits again.
        assert!(!rules.matches_touch(FlowDef::PortLess, &pkt(200_000, 100, 9), &dns));
        assert!(!rules.matches_touch(FlowDef::PortLess, &pkt(210_000, 100, 9), &dns));
        assert!(rules.matches_touch(FlowDef::PortLess, &pkt(220_000, 100, 9), &dns));
        assert_eq!(rules.len(), 1, "cap still holds after re-promotion");
        assert!(rules.matches_touch(FlowDef::PortLess, &pkt(230_000, 100, 9), &dns));
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
    fn rule_floor_tests_the_bins_first_interval() {
        // 950 ms and 1100 ms share a 300 ms bin. Bootstrap tests the
        // bin's first interval against the 1 s floor; Fig 1(c) reports
        // the bin's largest.
        let dns = DnsTable::new();
        let eng = PredictabilityEngine::new(FlowDef::PortLess)
            .with_tolerance(SimDuration::from_millis(300));
        for (times, rules) in [([0u64, 950, 2050], 0), ([0, 1100, 2050], 1)] {
            let packets: Vec<PacketRecord> = times.iter().map(|&t| pkt(t, 100, 5000)).collect();
            assert_eq!(
                RuleTable::learn(&eng, &packets, &dns).len(),
                rules,
                "{times:?}"
            );
            let iv = eng.max_intervals(&packets, &dns);
            assert_eq!(iv, vec![(SimDuration::from_millis(1100), 3)], "{times:?}");
        }
    }

    #[test]
    fn ghost_floor_tests_the_promoting_interval() {
        // A ghost keeps only the previous interval's bin, so it tests
        // the second interval against the floor: 950 ms then 1100 ms
        // promotes, 1100 ms then 950 ms does not (the reverse of
        // bootstrap above). Only a bin wider than 1 µs can tell.
        let dns = DnsTable::new();
        let eng = PredictabilityEngine::new(FlowDef::PortLess)
            .with_tolerance(SimDuration::from_millis(300));
        let packets: Vec<PacketRecord> = (0..10).map(|i| pkt(i * 10_000, 100, 5000)).collect();
        for (gaps, promotes) in [([950u64, 1100], true), ([1100, 950], false)] {
            let mut rules = RuleTable::learn(&eng, &packets, &dns);
            rules.set_capacity(Some(1));
            rules.insert(0, key_of(222, &dns)); // evicts the learned rule
            let mut t = 200_000;
            assert!(!rules.matches_touch(FlowDef::PortLess, &pkt(t, 100, 9), &dns));
            t += gaps[0];
            assert!(!rules.matches_touch(FlowDef::PortLess, &pkt(t, 100, 9), &dns));
            t += gaps[1];
            let hit = rules.matches_touch(FlowDef::PortLess, &pkt(t, 100, 9), &dns);
            assert_eq!(hit, promotes, "{gaps:?}");
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
        assert!(rules.matches_touch(FlowDef::PortLess, &pkt(80_000, 100, 9), &dns));
        assert!(!rules.matches_touch(FlowDef::PortLess, &pkt(80_000, 200, 9), &dns));
    }

    #[test]
    fn snapshot_restore_round_trips_eviction_order() {
        let dns = DnsTable::new();
        let (k1, k2, k3) = (key_of(11, &dns), key_of(12, &dns), key_of(13, &dns));
        let mut rules = RuleTable::new();
        rules.insert(0, k1);
        rules.insert(0, k2);
        rules.insert(0, k3);
        rules.insert(0, k1); // refresh: k1 is now the most recent
        let keyed = |flows: &[InternedFlowKey]| -> Vec<Key> {
            flows.iter().map(|&flow| Key { device: 0, flow }).collect()
        };
        let (lru, ghosts) = rules.snapshot();
        assert_eq!(lru, keyed(&[k2, k3, k1]));
        assert!(ghosts.is_empty());

        // Restoring the lists reproduces the order; a lower cap then
        // evicts the least recently matched rule into a ghost.
        let registry = MetricRegistry::new();
        let restore = |rules: &[Key], ghosts: &[GhostSnapshot], cap| {
            RuleTable::restore(rules, ghosts, DEFAULT_TOLERANCE, cap, &registry)
        };
        assert_eq!(
            restore(&lru, &ghosts, None).unwrap().snapshot(),
            (lru.clone(), Vec::new())
        );
        // A key held twice, as two rules, two ghosts, or a rule and a
        // ghost, is no table the live path builds.
        let ghost = GhostSnapshot {
            key: lru[0],
            last_ts: None,
            last_bin: None,
        };
        assert!(restore(&[lru[0], lru[0]], &[], None).is_none());
        assert!(restore(&[], &[ghost.clone(), ghost.clone()], None).is_none());
        assert!(restore(&lru[..1], std::slice::from_ref(&ghost), None).is_none());
        assert!(restore(&lru[1..], &[ghost], None).is_some());
        // More rules than the cap is no table the live path holds.
        assert!(restore(&lru, &ghosts, Some(2)).is_none());
        let mut table = restore(&lru, &ghosts, Some(3)).unwrap();
        table.set_capacity(Some(2));
        let (lru, ghosts) = table.snapshot();
        assert_eq!(lru, keyed(&[k3, k1]));
        assert_eq!(
            ghosts,
            vec![GhostSnapshot {
                key: keyed(&[k2])[0],
                last_ts: None,
                last_bin: None
            }]
        );
    }

    #[test]
    fn restored_rule_stays_on_its_address() {
        // DNS answers are on-path input: 6.6.6.6 resolves to the name
        // "34.0.0.1", while 34.0.0.1 itself never resolved. The rule
        // learned on the unresolved address must stay on that address
        // through snapshot and restore, not move to the domain spelled
        // like it.
        let spoofed = Ipv4Addr::new(6, 6, 6, 6);
        let mut dns = DnsTable::new();
        dns.observe_forward(spoofed, "34.0.0.1");
        let eng = PredictabilityEngine::new(FlowDef::PortLess);
        let packets: Vec<PacketRecord> = (0..10).map(|i| pkt(i * 1000, 100, 5000)).collect();
        let mut learned = RuleTable::learn(&eng, &packets, &dns);
        let (rules, ghosts) = learned.snapshot();
        let registry = MetricRegistry::new();
        let mut restored = RuleTable::restore(&rules, &ghosts, DEFAULT_TOLERANCE, None, &registry)
            .expect("each key once");
        let to_address = pkt(99_000, 100, 9);
        let to_domain = PacketRecord {
            remote_ip: spoofed,
            ..to_address.clone()
        };
        for table in [&mut learned, &mut restored] {
            assert!(table.matches_touch(FlowDef::PortLess, &to_address, &dns));
            assert!(!table.matches_touch(FlowDef::PortLess, &to_domain, &dns));
        }
    }

    #[test]
    fn eviction_order_is_independent_of_the_hash_key() {
        // Every map draws its own hash key, so two tables learned from one
        // bootstrap iterate in different orders. Eviction and the snapshot
        // go by stamp, so both must still end in the same state.
        let dns = DnsTable::new();
        let eng = PredictabilityEngine::new(FlowDef::PortLess);
        let flows = 12u64;
        let packets: Vec<PacketRecord> = (0..10)
            .flat_map(|i| (0..flows).map(move |f| pkt(i * 10_000 + f, 100 + f as u16, 5000)))
            .collect();
        let mut a = RuleTable::learn(&eng, &packets, &dns);
        let mut b = RuleTable::learn(&eng, &packets, &dns);
        let probe = Key {
            device: 0,
            flow: key_of(100, &dns),
        };
        assert_ne!(
            a.rules.hasher().hash_one(probe),
            b.rules.hasher().hash_one(probe),
            "the two tables must hash under different keys"
        );
        let mut promoted = 0;
        for t in [&mut a, &mut b] {
            assert_eq!(t.len(), flows as usize);
            t.set_capacity(Some(8));
            for size in 500..506 {
                t.insert(0, key_of(size, &dns));
            }
            // The learned flows resume at their 10 s cadence: live rules
            // hit, and ghosts re-promote on the third packet, each an
            // over-cap insert that evicts another rule.
            for round in 0..3 {
                for f in 0..flows {
                    let p = pkt(1_000_000 + round * 10_000 + f, 100 + f as u16, 9);
                    let key = Key {
                        device: 0,
                        flow: key_of(p.size, &dns),
                    };
                    let ghost = t.ghosts.contains_key(&key);
                    if t.matches_touch(FlowDef::PortLess, &p, &dns) && ghost {
                        promoted += 1;
                    }
                }
            }
            assert!(t.len() <= 8 && t.ghost_len() <= 8);
        }
        assert!(promoted > 0, "no ghost re-promoted");
        assert_eq!(a.snapshot(), b.snapshot());
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
        let mut rules = RuleTable::learn_instrumented(&eng, &packets, &dns, telemetry);
        let count = |name, outcome| registry.counter(name, &[("outcome", outcome)]).get();
        assert_eq!(count("fiat_rules_buckets_total", "learned"), 1);
        assert_eq!(count("fiat_rules_buckets_total", "rejected"), 1);

        assert!(rules.matches_touch(FlowDef::PortLess, &pkt(99_000, 100, 60_000), &dns));
        assert!(!rules.matches_touch(FlowDef::PortLess, &pkt(99_000, 101, 60_000), &dns));
        assert_eq!(count("fiat_rules_match_total", "hit"), 1);
        assert_eq!(count("fiat_rules_match_total", "miss"), 1);
        // The exposition reads the table's own cells.
        assert!(registry
            .render_prometheus()
            .contains("fiat_rules_match_total{outcome=\"hit\"} 1"));
    }
}
