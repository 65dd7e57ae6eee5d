//! DNS name knowledge used by the PortLess flow definition.
//!
//! §2.1 of the paper replaces the destination IP with its domain name,
//! obtained either from DNS requests seen in the trace or via reverse DNS
//! lookups against a fixed recursive resolver. We model both: observed
//! forward mappings are authoritative; reverse lookups may return a
//! canonical alias (e.g. CDN PTR names), which the paper notes can reduce
//! accuracy versus in-trace DNS.
//!
//! Every distinct domain string is interned to a dense `u32` id at
//! observation time, so the per-packet rule-match path can bucket flows by
//! [`RemoteId`](crate::flow::RemoteId) without ever materializing a
//! `String`. Ids are local to one table (and preserved by [`DnsTable::merge`]
//! only for domains already interned on the receiving side);
//! [`DnsTable::from_parts`] rebuilds a table with every id in place.

use crate::hash::FastMap;
use std::net::Ipv4Addr;

/// How a domain mapping was learned; forward (in-trace DNS) beats reverse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DnsSource {
    /// Observed an actual DNS response in the trace.
    Forward,
    /// Obtained via reverse (PTR) lookup; may be an alias.
    Reverse,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    domain: u32,
    source: DnsSource,
}

/// IP → domain-name table with a built-in domain interner.
#[derive(Debug, Clone, Default)]
pub struct DnsTable {
    /// Keyed by the address as a `u32`: one hash fold per lookup, where
    /// an `Ipv4Addr` key hashes as a length-prefixed byte slice.
    entries: FastMap<u32, Entry>,
    domains: Vec<String>,
    index: FastMap<String, u32>,
}

impl DnsTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a domain string, returning its dense id (stable for the
    /// lifetime of this table).
    pub fn intern_domain(&mut self, domain: &str) -> u32 {
        if let Some(&id) = self.index.get(domain) {
            return id;
        }
        let id = self.domains.len() as u32;
        self.domains.push(domain.to_string());
        self.index.insert(domain.to_string(), id);
        id
    }

    /// The domain string behind an interned id.
    pub fn domain_str(&self, id: u32) -> &str {
        &self.domains[id as usize]
    }

    /// Record a mapping observed from an in-trace DNS response. Forward
    /// mappings always overwrite reverse ones.
    pub fn observe_forward(&mut self, ip: Ipv4Addr, domain: impl AsRef<str>) {
        let domain = self.intern_domain(domain.as_ref());
        self.entries.insert(
            u32::from(ip),
            Entry {
                domain,
                source: DnsSource::Forward,
            },
        );
    }

    /// Record a mapping obtained via reverse lookup. Does not overwrite an
    /// existing forward mapping.
    pub fn observe_reverse(&mut self, ip: Ipv4Addr, domain: impl AsRef<str>) {
        let domain = self.intern_domain(domain.as_ref());
        let e = self.entries.entry(u32::from(ip)).or_insert(Entry {
            domain,
            source: DnsSource::Reverse,
        });
        if e.source == DnsSource::Reverse {
            e.domain = domain;
        }
    }

    /// Resolve an IP to the best-known name. Unknown IPs fall back to the
    /// dotted-quad string, which keeps PortLess at least as accurate as
    /// using raw IPs (§2.1 footnote 1).
    pub fn name_of(&self, ip: Ipv4Addr) -> String {
        self.entries
            .get(&u32::from(ip))
            .map(|e| self.domains[e.domain as usize].clone())
            .unwrap_or_else(|| ip.to_string())
    }

    /// Resolve an IP to its interned remote id without allocating: known
    /// IPs yield their domain id, unknown IPs carry the address itself.
    /// This is the per-packet hot-path counterpart of [`DnsTable::name_of`].
    pub fn remote_id(&self, ip: Ipv4Addr) -> crate::flow::RemoteId {
        match self.entries.get(&u32::from(ip)) {
            Some(e) => crate::flow::RemoteId::Domain(e.domain),
            None => crate::flow::RemoteId::Ip(ip),
        }
    }

    /// Whether the table knows this IP.
    pub fn contains(&self, ip: Ipv4Addr) -> bool {
        self.entries.contains_key(&u32::from(ip))
    }

    /// How the mapping for `ip` was learned, if known.
    pub fn source_of(&self, ip: Ipv4Addr) -> Option<DnsSource> {
        self.entries.get(&u32::from(ip)).map(|e| e.source)
    }

    /// Number of known IPs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The interner: every domain string, at its id.
    pub fn domains(&self) -> &[String] {
        &self.domains
    }

    /// All entries as (ip, domain id, source), ascending by IP.
    pub fn entries(&self) -> Vec<(Ipv4Addr, u32, DnsSource)> {
        let mut out: Vec<_> = self
            .entries
            .iter()
            .map(|(&ip, e)| (Ipv4Addr::from(ip), e.domain, e.source))
            .collect();
        out.sort_unstable_by_key(|&(ip, _, _)| u32::from(ip));
        out
    }

    /// Rebuild a table from [`DnsTable::domains`] and
    /// [`DnsTable::entries`], so every domain keeps its id. `None` when
    /// a domain repeats or an entry names an id past the domain list.
    pub fn from_parts<'a>(
        domains: impl IntoIterator<Item = &'a str>,
        entries: impl IntoIterator<Item = (Ipv4Addr, u32, DnsSource)>,
    ) -> Option<DnsTable> {
        let mut dns = DnsTable::new();
        for domain in domains {
            let id = dns.domains.len() as u32;
            if dns.intern_domain(domain) != id {
                return None;
            }
        }
        for (ip, domain, source) in entries {
            if domain as usize >= dns.domains.len() {
                return None;
            }
            dns.entries.insert(u32::from(ip), Entry { domain, source });
        }
        Some(dns)
    }

    /// Merge another table into this one, respecting forward-beats-reverse.
    pub fn merge(&mut self, other: &DnsTable) {
        for (&ip, e) in &other.entries {
            let ip = Ipv4Addr::from(ip);
            let domain = other.domains[e.domain as usize].clone();
            match e.source {
                DnsSource::Forward => self.observe_forward(ip, domain),
                DnsSource::Reverse => self.observe_reverse(ip, domain),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::RemoteId;

    const IP: Ipv4Addr = Ipv4Addr::new(142, 250, 80, 46);

    #[test]
    fn unknown_ip_falls_back_to_dotted_quad() {
        let t = DnsTable::new();
        assert_eq!(t.name_of(IP), "142.250.80.46");
        assert!(!t.contains(IP));
        assert_eq!(t.remote_id(IP), RemoteId::Ip(IP));
    }

    #[test]
    fn forward_mapping_wins_over_reverse() {
        let mut t = DnsTable::new();
        t.observe_reverse(IP, "lga34s32-in-f14.1e100.net");
        assert_eq!(t.name_of(IP), "lga34s32-in-f14.1e100.net");
        t.observe_forward(IP, "google.com");
        assert_eq!(t.name_of(IP), "google.com");
        // Reverse cannot displace forward.
        t.observe_reverse(IP, "alias.example");
        assert_eq!(t.name_of(IP), "google.com");
        assert_eq!(t.source_of(IP), Some(DnsSource::Forward));
    }

    #[test]
    fn reverse_updates_reverse() {
        let mut t = DnsTable::new();
        t.observe_reverse(IP, "a.example");
        t.observe_reverse(IP, "b.example");
        assert_eq!(t.name_of(IP), "b.example");
    }

    #[test]
    fn merge_respects_priority() {
        let mut a = DnsTable::new();
        a.observe_reverse(IP, "reverse.example");
        let mut b = DnsTable::new();
        b.observe_forward(IP, "forward.example");
        a.merge(&b);
        assert_eq!(a.name_of(IP), "forward.example");
        // Merging a reverse-only table cannot displace it.
        let mut c = DnsTable::new();
        c.observe_reverse(IP, "other.example");
        a.merge(&c);
        assert_eq!(a.name_of(IP), "forward.example");
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn interning_is_stable_and_shared() {
        let mut t = DnsTable::new();
        let a = t.intern_domain("iot.vendor.example");
        let b = t.intern_domain("iot.vendor.example");
        assert_eq!(a, b);
        assert_eq!(t.domain_str(a), "iot.vendor.example");
        t.observe_forward(IP, "iot.vendor.example");
        assert_eq!(t.remote_id(IP), RemoteId::Domain(a));
        assert_eq!(t.domains(), ["iot.vendor.example"]);
    }

    #[test]
    fn from_parts_keeps_every_id() {
        let mut t = DnsTable::new();
        t.intern_domain("unused.example");
        t.observe_reverse(IP, "ptr.example");
        t.observe_forward(IP, "forward.example");
        t.observe_forward(Ipv4Addr::new(1, 2, 3, 4), "142.250.80.46");
        let entries = t.entries();
        let names = t.domains().iter().map(String::as_str);
        let back = DnsTable::from_parts(names, entries.clone()).unwrap();
        assert_eq!(back.domains(), t.domains());
        assert_eq!(back.entries(), entries);
        assert_eq!(back.remote_id(IP), t.remote_id(IP));
        assert_eq!(back.source_of(IP), Some(DnsSource::Forward));
        // A repeated domain, or an entry past the domain list.
        assert!(DnsTable::from_parts(["a", "b", "a"], []).is_none());
        assert!(DnsTable::from_parts(["a"], [(IP, 1, DnsSource::Forward)]).is_none());
    }

    #[test]
    fn two_ips_same_domain_share_remote_id() {
        let mut t = DnsTable::new();
        let other = Ipv4Addr::new(99, 9, 9, 9);
        t.observe_forward(IP, "cdn.example");
        t.observe_forward(other, "cdn.example");
        assert_eq!(t.remote_id(IP), t.remote_id(other));
        let unknown_a = Ipv4Addr::new(10, 0, 0, 1);
        let unknown_b = Ipv4Addr::new(10, 0, 0, 2);
        assert_ne!(t.remote_id(unknown_a), t.remote_id(unknown_b));
    }
}
