//! Per-class behavioral signatures learned from labeled traces.

use crate::features::{fold_packet, l1, profile, FEATURE_COUNT};
use crate::MatcherConfig;
use fiat_net::{DnsTable, PacketRecord, RemoteId, SimTime, Trace};
use std::collections::HashMap;

/// Exemplar windows kept per class after stride sampling. Bounds the
/// per-seal matching cost at `classes x MAX_EXEMPLARS` L1 distances.
pub const MAX_EXEMPLARS: usize = 96;

/// One device class's learned signature: a set of exemplar window
/// profiles plus the sorted set of cloud domains the class was seen
/// contacting (the vocabulary the claimed-class resolution searches).
///
/// A class is *not* one average profile: a camera's keep-alive windows
/// and its streaming windows look nothing alike, and blending them
/// produces a centroid matching neither. Training instead chops each
/// labeled trace into consecutive evidence-window-sized chunks — the
/// same unit the online engine accumulates — and keeps a bounded sample
/// of their profiles. Distance to a class is the distance to its
/// nearest exemplar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassSignature {
    /// Class label (e.g. `"camera"`).
    pub label: String,
    /// Sampled per-mille window profiles (see [`crate::features::profile`]).
    pub exemplars: Vec<[u16; FEATURE_COUNT]>,
    /// Domains contacted in training, sorted for binary search.
    pub domains: Vec<String>,
    /// Training packets behind the exemplars.
    pub packets: u64,
}

impl ClassSignature {
    /// L1 distance from `obs` to the nearest exemplar (`u32::MAX` when
    /// the class has none).
    pub fn distance(&self, obs: &[u16; FEATURE_COUNT]) -> u32 {
        self.exemplars
            .iter()
            .map(|e| l1(e, obs))
            .min()
            .unwrap_or(u32::MAX)
    }
}

/// The learned signature set, in stable (training) order. Index identity
/// matters: verdicts refer to signatures by index, and ties in matching
/// and claim resolution break toward the lowest index.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SignatureSet {
    sigs: Vec<ClassSignature>,
}

impl SignatureSet {
    /// Learn one signature per `(label, trace)` pair, in order, chopping
    /// each trace into consecutive `window`-packet chunks per device id
    /// (so a multi-device trace does not smear cadences) and sampling at
    /// most [`MAX_EXEMPLARS`] chunk profiles per class with a uniform
    /// stride. Partial trailing chunks are dropped. `window` should be
    /// the engine's `evidence_window` so training and online windows
    /// come from the same distribution.
    pub fn learn(corpus: &[(String, Trace)], window: u32) -> SignatureSet {
        let window = window.max(1);
        let sigs = corpus
            .iter()
            .map(|(label, trace)| {
                type Open = ([u32; FEATURE_COUNT], u32, SimTime, u16);
                let mut open: HashMap<u16, Open> = HashMap::new();
                let mut chunks: Vec<[u16; FEATURE_COUNT]> = Vec::new();
                for pkt in &trace.packets {
                    let (hist, seen, last_ts, last_size) =
                        open.entry(pkt.device)
                            .or_insert(([0; FEATURE_COUNT], 0, SimTime::ZERO, 0));
                    let prev = (*seen > 0).then_some((*last_ts, *last_size));
                    fold_packet(hist, pkt, prev);
                    *last_ts = pkt.ts;
                    *last_size = pkt.size;
                    *seen += 1;
                    if *seen == window {
                        chunks.push(profile(hist));
                        *hist = [0; FEATURE_COUNT];
                        *seen = 0;
                    }
                }
                let exemplars = if chunks.len() <= MAX_EXEMPLARS {
                    chunks
                } else {
                    (0..MAX_EXEMPLARS)
                        .map(|i| chunks[i * chunks.len() / MAX_EXEMPLARS])
                        .collect()
                };
                let mut domains: Vec<String> = Vec::new();
                for pkt in &trace.packets {
                    if let RemoteId::Domain(id) = trace.dns.remote_id(pkt.remote_ip) {
                        let d = trace.dns.domain_str(id);
                        if !domains.iter().any(|x| x == d) {
                            domains.push(d.to_string());
                        }
                    }
                }
                domains.sort();
                ClassSignature {
                    label: label.clone(),
                    exemplars,
                    domains,
                    packets: trace.packets.len() as u64,
                }
            })
            .collect();
        SignatureSet { sigs }
    }

    /// Build a set directly from signatures (training order is index
    /// order). Used by the oracle mirror and tests.
    pub fn from_signatures(sigs: Vec<ClassSignature>) -> SignatureSet {
        SignatureSet { sigs }
    }

    /// The signatures, in training order.
    pub fn signatures(&self) -> &[ClassSignature] {
        &self.sigs
    }

    /// Number of classes.
    pub fn len(&self) -> usize {
        self.sigs.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.sigs.is_empty()
    }

    /// Label of the signature at `idx`, if any.
    pub fn label(&self, idx: u16) -> Option<&str> {
        self.sigs.get(idx as usize).map(|s| s.label.as_str())
    }

    /// Nearest signature to `obs` with its distance and the runner-up
    /// distance (`u32::MAX` with a single signature). Ties keep the
    /// lowest index. `None` on an empty set.
    pub fn nearest(&self, obs: &[u16; FEATURE_COUNT]) -> Option<(u16, u32, u32)> {
        let mut best: Option<(u16, u32)> = None;
        let mut runner = u32::MAX;
        for (i, sig) in self.sigs.iter().enumerate() {
            let d = sig.distance(obs);
            match best {
                None => best = Some((i as u16, d)),
                Some((_, bd)) if d < bd => {
                    runner = bd;
                    best = Some((i as u16, d));
                }
                Some(_) => runner = runner.min(d),
            }
        }
        best.map(|(i, d)| (i, d, runner))
    }

    /// The confident behavioral match for `obs` under `cfg`: the nearest
    /// signature, accepted only when it is both close enough
    /// (`max_distance`) and unambiguous (`min_margin` ahead of the
    /// runner-up). Anything else is an explicit no-confident-match.
    pub fn confident_match(&self, obs: &[u16; FEATURE_COUNT], cfg: &MatcherConfig) -> Option<u16> {
        let (idx, dist, runner) = self.nearest(obs)?;
        if dist > cfg.max_distance {
            return None;
        }
        if runner != u32::MAX && runner - dist < cfg.min_margin {
            return None;
        }
        Some(idx)
    }

    /// Resolve the class a device *claims* by its destinations: the
    /// signature whose domain set overlaps the claimed domains most
    /// (ties toward the lowest index), or `None` when nothing overlaps.
    /// Claimed domains arrive as interned ids resolved through `dns`, so
    /// the lookup allocates nothing.
    pub fn claimed_class(&self, claims: &[u32], dns: &DnsTable) -> Option<u16> {
        let mut best: Option<(u16, usize)> = None;
        for (i, sig) in self.sigs.iter().enumerate() {
            let overlap = claims
                .iter()
                .filter(|&&id| {
                    sig.domains
                        .binary_search_by(|d| d.as_str().cmp(dns.domain_str(id)))
                        .is_ok()
                })
                .count();
            if overlap > 0 && best.is_none_or(|(_, b)| overlap > b) {
                best = Some((i as u16, overlap));
            }
        }
        best.map(|(i, _)| i)
    }

    /// Identify a new device from a capture window (§7: "one model per
    /// IoT device ... applied automatically as FIAT identifies a new
    /// device"): the [`claimed_class`](Self::claimed_class) of the
    /// distinct destination domains in `packets`, the same
    /// `RemoteId::Domain` ids the engine records as claims. `None` when
    /// the window contacts no known domain.
    pub fn identify(&self, packets: &[PacketRecord], dns: &DnsTable) -> Option<u16> {
        let mut claims: Vec<u32> = Vec::new();
        for pkt in packets {
            if let RemoteId::Domain(id) = dns.remote_id(pkt.remote_ip) {
                if !claims.contains(&id) {
                    claims.push(id);
                }
            }
        }
        self.claimed_class(&claims, dns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(label: &str, hots: &[usize], domains: &[&str]) -> ClassSignature {
        let exemplars = hots
            .iter()
            .map(|&hot| {
                let mut p = [0u16; FEATURE_COUNT];
                p[hot] = 1000;
                p
            })
            .collect();
        let mut domains: Vec<String> = domains.iter().map(|d| d.to_string()).collect();
        domains.sort();
        ClassSignature {
            label: label.to_string(),
            exemplars,
            domains,
            packets: 100,
        }
    }

    fn set(sigs: Vec<ClassSignature>) -> SignatureSet {
        SignatureSet { sigs }
    }

    #[test]
    fn nearest_prefers_smallest_distance_then_lowest_index() {
        let s = set(vec![
            sig("a", &[0], &[]),
            sig("b", &[1], &[]),
            sig("c", &[1], &[]),
        ]);
        let mut obs = [0u16; FEATURE_COUNT];
        obs[1] = 1000;
        let (idx, d, runner) = s.nearest(&obs).unwrap();
        assert_eq!(idx, 1); // exact match, and index 1 beats the tied index 2
        assert_eq!(d, 0);
        assert_eq!(runner, 0); // the tied duplicate is the runner-up
    }

    #[test]
    fn class_distance_is_nearest_exemplar() {
        // A class with two regimes (buckets 0 and 5): an observation in
        // either regime is distance 0, not distance to their blend.
        let s = set(vec![sig("two-regime", &[0, 5], &[])]);
        let mut obs = [0u16; FEATURE_COUNT];
        obs[5] = 1000;
        assert_eq!(s.nearest(&obs), Some((0, 0, u32::MAX)));
        assert_eq!(s.signatures()[0].distance(&obs), 0);
    }

    #[test]
    fn confident_match_enforces_threshold_and_margin() {
        let cfg = MatcherConfig {
            max_distance: 500,
            min_margin: 100,
            ..MatcherConfig::default()
        };
        let s = set(vec![sig("a", &[0], &[]), sig("b", &[1], &[])]);
        let mut near_a = [0u16; FEATURE_COUNT];
        near_a[0] = 900;
        near_a[2] = 100;
        // dist(a) = 200, dist(b) = 2000: clear accept.
        assert_eq!(s.confident_match(&near_a, &cfg), Some(0));

        // Equidistant between a and b: margin kills it.
        let mut ambiguous = [0u16; FEATURE_COUNT];
        ambiguous[0] = 500;
        ambiguous[1] = 500;
        assert_eq!(s.confident_match(&ambiguous, &cfg), None);

        // Far from everything: threshold kills it.
        let mut far = [0u16; FEATURE_COUNT];
        far[5] = 1000;
        assert_eq!(s.confident_match(&far, &cfg), None);
    }

    #[test]
    fn single_signature_skips_the_margin_rule() {
        let cfg = MatcherConfig {
            max_distance: 500,
            min_margin: 100,
            ..MatcherConfig::default()
        };
        let s = set(vec![sig("only", &[0], &[])]);
        let mut obs = [0u16; FEATURE_COUNT];
        obs[0] = 1000;
        assert_eq!(s.confident_match(&obs, &cfg), Some(0));
    }

    fn packet(ts: SimTime, device: u16, remote: &str) -> PacketRecord {
        use fiat_net::{Direction, TcpFlags, TlsVersion, TrafficClass, Transport};
        PacketRecord {
            ts,
            device,
            direction: Direction::FromDevice,
            local_ip: "192.168.1.2".parse().unwrap(),
            remote_ip: remote.parse().unwrap(),
            local_port: 40_000,
            remote_port: 443,
            transport: Transport::Tcp,
            tcp_flags: TcpFlags::psh_ack(),
            tls: TlsVersion::Tls13,
            size: 100,
            label: TrafficClass::Control,
        }
    }

    #[test]
    fn learn_chunks_per_device_and_caps_exemplars() {
        let mut trace = Trace::new();
        for i in 0..500u64 {
            let ts = SimTime::from_millis(i * 7);
            trace.packets.push(packet(ts, (i % 2) as u16, "10.0.0.1"));
        }
        trace.finish();
        let s = SignatureSet::learn(&[("x".to_string(), trace)], 4);
        // 500 packets over 2 devices = 125 windows of 4 each, capped.
        assert_eq!(s.signatures()[0].exemplars.len(), MAX_EXEMPLARS);
        // Identical traffic: every exemplar is the same profile.
        let first = s.signatures()[0].exemplars[0];
        assert!(s.signatures()[0].exemplars.iter().all(|e| *e == first));
    }

    #[test]
    fn claimed_class_by_domain_overlap() {
        let mut dns = DnsTable::new();
        let plug = dns.intern_domain("relay.plug.example");
        let cam = dns.intern_domain("api.cam.example");
        let other = dns.intern_domain("unrelated.example");
        let s = set(vec![
            sig("plug", &[0], &["plug.example", "relay.plug.example"]),
            sig("cam", &[1], &["api.cam.example", "stun.cam.example"]),
        ]);
        assert_eq!(s.claimed_class(&[plug], &dns), Some(0));
        assert_eq!(s.claimed_class(&[cam, other], &dns), Some(1));
        assert_eq!(s.claimed_class(&[other], &dns), None);
        assert_eq!(s.claimed_class(&[], &dns), None);
        // More overlap wins; equal overlap keeps the lower index.
        assert_eq!(s.claimed_class(&[plug, cam], &dns), Some(0));
    }

    #[test]
    fn identify_resolves_the_windows_distinct_domains() {
        let pkt = |remote: &str| packet(SimTime::ZERO, 0, remote);
        let mut dns = DnsTable::new();
        dns.observe_forward("10.0.0.1".parse().unwrap(), "relay.plug.example");
        dns.observe_forward("10.0.0.2".parse().unwrap(), "api.cam.example");
        dns.observe_forward("10.0.0.3".parse().unwrap(), "stun.cam.example");
        let s = set(vec![
            sig("plug", &[0], &["relay.plug.example"]),
            sig("cam", &[1], &["api.cam.example", "stun.cam.example"]),
        ]);
        // Repeats of one plug domain do not outweigh two distinct camera
        // domains: claims are counted once each.
        let w = [
            pkt("10.0.0.1"),
            pkt("10.0.0.1"),
            pkt("10.0.0.1"),
            pkt("10.0.0.2"),
            pkt("10.0.0.3"),
        ];
        assert_eq!(s.identify(&w, &dns), Some(1));
        assert_eq!(s.identify(&w[..1], &dns), Some(0));
        // An unresolved address claims nothing.
        assert_eq!(s.identify(&[pkt("10.9.9.9")], &dns), None);
        assert_eq!(s.identify(&[], &dns), None);
    }
}
