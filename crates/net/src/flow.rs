//! The paper's two flow definitions (§2.1).
//!
//! Packets are assigned to buckets; predictability is judged per bucket.
//!
//! - **Classic**: the 6-tuple `<ip_src, ip_dst, port_src, port_dst, proto,
//!   size>`.
//! - **PortLess**: drops both ports and replaces the destination IP with
//!   its domain name, because many IoT devices talk to the same endpoint
//!   from ever-changing ephemeral ports. The bucket becomes
//!   `<device-side endpoint, remote domain, proto, size>` — we keep packet
//!   direction in the key so that a request and its same-sized response do
//!   not alias.

use crate::dns::DnsTable;
use crate::packet::PacketRecord;
use std::hash::{Hash, Hasher};
use std::net::Ipv4Addr;

/// Which flow definition to bucket with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlowDef {
    /// 6-tuple with ports and raw IPs.
    Classic,
    /// Ports dropped, remote IP replaced by its domain name.
    PortLess,
}

impl FlowDef {
    /// Both definitions, for sweeps.
    pub const ALL: [FlowDef; 2] = [FlowDef::Classic, FlowDef::PortLess];
}

impl std::fmt::Display for FlowDef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlowDef::Classic => write!(f, "Classic"),
            FlowDef::PortLess => write!(f, "PortLess"),
        }
    }
}

/// A bucket key under one of the two flow definitions, with the PortLess
/// remote spelled out as a string: the naive form the differential
/// oracle's reference keys on. A domain spelled like a dotted quad shares
/// its string with the unresolved address, which [`InternedFlowKey`]
/// keeps apart. Ordered (derive order: variant, then fields
/// lexicographically), so naive rule lists sort canonically.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FlowKey {
    /// Classic 6-tuple.
    Classic {
        /// Source IP as on the wire.
        src_ip: Ipv4Addr,
        /// Destination IP as on the wire.
        dst_ip: Ipv4Addr,
        /// Source port.
        src_port: u16,
        /// Destination port.
        dst_port: u16,
        /// IANA protocol number.
        proto: u8,
        /// Packet size.
        size: u16,
    },
    /// PortLess 4-tuple (plus direction to avoid request/response aliasing).
    PortLess {
        /// Remote endpoint domain name (or dotted quad if unknown).
        remote: String,
        /// IANA protocol number.
        proto: u8,
        /// Packet size.
        size: u16,
        /// Direction code (0 = from device, 1 = to device).
        dir: u8,
    },
}

impl FlowKey {
    /// Bucket a packet under the given flow definition.
    ///
    /// Allocates a `String` for the PortLess remote name; per-packet code
    /// (rule matching, predictability bucketing) should use
    /// [`InternedFlowKey::of`] instead, which is allocation-free.
    pub fn of(def: FlowDef, pkt: &PacketRecord, dns: &DnsTable) -> FlowKey {
        match def {
            FlowDef::Classic => FlowKey::Classic {
                src_ip: pkt.src_ip(),
                dst_ip: pkt.dst_ip(),
                src_port: pkt.src_port(),
                dst_port: pkt.dst_port(),
                proto: pkt.transport.proto_number(),
                size: pkt.size,
            },
            FlowDef::PortLess => FlowKey::PortLess {
                remote: dns.name_of(pkt.remote_ip),
                proto: pkt.transport.proto_number(),
                size: pkt.size,
                dir: pkt.direction.feature_code() as u8,
            },
        }
    }
}

/// An interned remote endpoint: the dense id of a known domain (from the
/// [`DnsTable`] interner), or the raw address for IPs the table has never
/// resolved. `Copy`, so flow keys built from it never touch the heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RemoteId {
    /// Interned domain id (resolve with [`DnsTable::domain_str`]).
    Domain(u32),
    /// Unresolved IP fallback (distinct IPs stay distinct, exactly like
    /// the dotted-quad fallback of [`DnsTable::name_of`]).
    Ip(Ipv4Addr),
}

/// The allocation-free (interned) form of [`FlowKey`], used on the
/// per-packet hot path: rule-table lookups and predictability bucketing.
/// Ids are only meaningful relative to the [`DnsTable`] that produced
/// them, so a snapshot stores them beside that table's interner
/// ([`DnsTable::domains`]) and restore rebuilds both as they were.
/// Ordered (derive order) so table-wide operations — LRU stamp
/// assignment at learn time, eviction tie-breaks — can iterate
/// deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum InternedFlowKey {
    /// Classic 6-tuple (identical to [`FlowKey::Classic`]).
    Classic {
        /// Source IP as on the wire.
        src_ip: Ipv4Addr,
        /// Destination IP as on the wire.
        dst_ip: Ipv4Addr,
        /// Source port.
        src_port: u16,
        /// Destination port.
        dst_port: u16,
        /// IANA protocol number.
        proto: u8,
        /// Packet size.
        size: u16,
    },
    /// PortLess 4-tuple with the remote interned.
    PortLess {
        /// Interned remote endpoint.
        remote: RemoteId,
        /// IANA protocol number.
        proto: u8,
        /// Packet size.
        size: u16,
        /// Direction code (0 = from device, 1 = to device).
        dir: u8,
    },
}

impl InternedFlowKey {
    /// Bucket a packet under the given flow definition without heap
    /// allocation (the interned counterpart of [`FlowKey::of`]).
    #[inline]
    pub fn of(def: FlowDef, pkt: &PacketRecord, dns: &DnsTable) -> InternedFlowKey {
        match def {
            FlowDef::Classic => InternedFlowKey::Classic {
                src_ip: pkt.src_ip(),
                dst_ip: pkt.dst_ip(),
                src_port: pkt.src_port(),
                dst_port: pkt.dst_port(),
                proto: pkt.transport.proto_number(),
                size: pkt.size,
            },
            FlowDef::PortLess => InternedFlowKey::PortLess {
                remote: dns.remote_id(pkt.remote_ip),
                proto: pkt.transport.proto_number(),
                size: pkt.size,
                dir: pkt.direction.feature_code() as u8,
            },
        }
    }
}

/// A device's flow bucket: the key of the proxy's rule table and of
/// bootstrap bucketing, probed on every packet.
///
/// Its `Hash` packs the fields injectively into 64-bit words, so a
/// [`FoldHasher`](crate::hash::FoldHasher) folds two words for a PortLess
/// key and three for a Classic one, instead of one word per field and
/// enum tag. Ordered like the `(device, flow)` tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct DeviceFlowKey {
    /// Device id.
    pub device: u16,
    /// The packet's flow key.
    pub flow: InternedFlowKey,
}

impl DeviceFlowKey {
    /// The words `Hash` writes, and how many of them: bit 0 of the first
    /// word is the flow variant, so the length follows from the first
    /// word and distinct keys write distinct word sequences.
    ///
    /// - PortLess: `[1 | remote tag << 1 | dir << 2 | proto << 10 |
    ///   size << 18 | device << 34, remote id or address]`.
    /// - Classic: `[proto << 1 | size << 9 | device << 25 |
    ///   src_port << 41, src_ip << 32 | dst_ip, dst_port]`.
    #[inline]
    fn words(&self) -> ([u64; 3], usize) {
        let device = u64::from(self.device);
        match self.flow {
            InternedFlowKey::PortLess {
                remote,
                proto,
                size,
                dir,
            } => {
                let (tag, remote) = match remote {
                    RemoteId::Domain(id) => (0, id),
                    RemoteId::Ip(ip) => (1, u32::from(ip)),
                };
                let head = 1
                    | tag << 1
                    | u64::from(dir) << 2
                    | u64::from(proto) << 10
                    | u64::from(size) << 18
                    | device << 34;
                ([head, u64::from(remote), 0], 2)
            }
            InternedFlowKey::Classic {
                src_ip,
                dst_ip,
                src_port,
                dst_port,
                proto,
                size,
            } => {
                let head = u64::from(proto) << 1
                    | u64::from(size) << 9
                    | device << 25
                    | u64::from(src_port) << 41;
                let ips = u64::from(u32::from(src_ip)) << 32 | u64::from(u32::from(dst_ip));
                ([head, ips, u64::from(dst_port)], 3)
            }
        }
    }
}

impl Hash for DeviceFlowKey {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        let (words, n) = self.words();
        for &w in &words[..n] {
            state.write_u64(w);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Direction, TcpFlags, TlsVersion, TrafficClass, Transport};
    use crate::time::SimTime;

    fn pkt(remote_port: u16, size: u16, direction: Direction) -> PacketRecord {
        PacketRecord {
            ts: SimTime::ZERO,
            device: 0,
            direction,
            local_ip: Ipv4Addr::new(192, 168, 1, 20),
            remote_ip: Ipv4Addr::new(52, 84, 1, 1),
            local_port: 49152,
            remote_port,
            transport: Transport::Tcp,
            tcp_flags: TcpFlags::ack(),
            tls: TlsVersion::Tls12,
            size,
            label: TrafficClass::Control,
        }
    }

    #[test]
    fn classic_distinguishes_ports() {
        let dns = DnsTable::new();
        let a = FlowKey::of(
            FlowDef::Classic,
            &pkt(443, 100, Direction::FromDevice),
            &dns,
        );
        let b = FlowKey::of(
            FlowDef::Classic,
            &pkt(8443, 100, Direction::FromDevice),
            &dns,
        );
        assert_ne!(a, b);
    }

    #[test]
    fn portless_ignores_ports() {
        let dns = DnsTable::new();
        let a = FlowKey::of(
            FlowDef::PortLess,
            &pkt(443, 100, Direction::FromDevice),
            &dns,
        );
        let b = FlowKey::of(
            FlowDef::PortLess,
            &pkt(8443, 100, Direction::FromDevice),
            &dns,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn portless_uses_domain_name() {
        let mut dns = DnsTable::new();
        dns.observe_forward(Ipv4Addr::new(52, 84, 1, 1), "iot.vendor.example");
        let k = FlowKey::of(
            FlowDef::PortLess,
            &pkt(443, 100, Direction::FromDevice),
            &dns,
        );
        match k {
            FlowKey::PortLess { remote, .. } => assert_eq!(remote, "iot.vendor.example"),
            _ => panic!("wrong variant"),
        }
    }

    #[test]
    fn portless_same_domain_different_ip_aliases_together() {
        // A device switching between two CDN IPs of the same service keeps
        // one PortLess bucket — the motivating case for the definition.
        let mut dns = DnsTable::new();
        dns.observe_forward(Ipv4Addr::new(52, 84, 1, 1), "iot.vendor.example");
        dns.observe_forward(Ipv4Addr::new(99, 9, 9, 9), "iot.vendor.example");
        let mut p2 = pkt(443, 100, Direction::FromDevice);
        p2.remote_ip = Ipv4Addr::new(99, 9, 9, 9);
        let a = FlowKey::of(
            FlowDef::PortLess,
            &pkt(443, 100, Direction::FromDevice),
            &dns,
        );
        let b = FlowKey::of(FlowDef::PortLess, &p2, &dns);
        assert_eq!(a, b);
        // Classic keeps them apart.
        let ca = FlowKey::of(
            FlowDef::Classic,
            &pkt(443, 100, Direction::FromDevice),
            &dns,
        );
        let cb = FlowKey::of(FlowDef::Classic, &p2, &dns);
        assert_ne!(ca, cb);
    }

    #[test]
    fn size_always_distinguishes() {
        let dns = DnsTable::new();
        for def in FlowDef::ALL {
            let a = FlowKey::of(def, &pkt(443, 100, Direction::FromDevice), &dns);
            let b = FlowKey::of(def, &pkt(443, 101, Direction::FromDevice), &dns);
            assert_ne!(a, b, "{def}");
        }
    }

    /// Read [`DeviceFlowKey::words`] back into the key.
    fn unpack(words: &[u64]) -> DeviceFlowKey {
        let bits = |w: u64, at: u32, width: u32| (w >> at) & ((1 << width) - 1);
        let head = words[0];
        if head & 1 == 1 {
            assert_eq!(words.len(), 2);
            assert_eq!(head >> 50, 0, "unused bits stay clear");
            assert_eq!(words[1] >> 32, 0);
            let remote = words[1] as u32;
            DeviceFlowKey {
                device: bits(head, 34, 16) as u16,
                flow: InternedFlowKey::PortLess {
                    remote: match bits(head, 1, 1) {
                        0 => RemoteId::Domain(remote),
                        _ => RemoteId::Ip(Ipv4Addr::from(remote)),
                    },
                    dir: bits(head, 2, 8) as u8,
                    proto: bits(head, 10, 8) as u8,
                    size: bits(head, 18, 16) as u16,
                },
            }
        } else {
            assert_eq!(words.len(), 3);
            assert_eq!(head >> 57, 0, "unused bits stay clear");
            assert_eq!(words[2] >> 16, 0);
            DeviceFlowKey {
                device: bits(head, 25, 16) as u16,
                flow: InternedFlowKey::Classic {
                    proto: bits(head, 1, 8) as u8,
                    size: bits(head, 9, 16) as u16,
                    src_port: bits(head, 41, 16) as u16,
                    src_ip: Ipv4Addr::from((words[1] >> 32) as u32),
                    dst_ip: Ipv4Addr::from(words[1] as u32),
                    dst_port: words[2] as u16,
                },
            }
        }
    }

    #[test]
    fn device_flow_key_packing_is_injective() {
        // The packing has an inverse, so no two keys share a word
        // sequence: every field at its extremes and at random values.
        let mut state = 23u64;
        let mut next = move || {
            // splitmix64
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        // Each field: zero, one, all ones or a random value.
        let mut pick = move || {
            let r = next();
            [0, 1, u64::MAX, r >> 2][(r & 3) as usize]
        };
        for _ in 0..20_000 {
            let (a, b) = (pick() as u32, pick() as u32);
            let flow = if pick() & 1 == 0 {
                InternedFlowKey::PortLess {
                    remote: if pick() & 1 == 0 {
                        RemoteId::Domain(a)
                    } else {
                        RemoteId::Ip(Ipv4Addr::from(a))
                    },
                    proto: pick() as u8,
                    size: pick() as u16,
                    dir: pick() as u8,
                }
            } else {
                InternedFlowKey::Classic {
                    src_ip: Ipv4Addr::from(a),
                    dst_ip: Ipv4Addr::from(b),
                    src_port: pick() as u16,
                    dst_port: pick() as u16,
                    proto: pick() as u8,
                    size: pick() as u16,
                }
            };
            let device = pick() as u16;
            let key = DeviceFlowKey { device, flow };
            let (words, n) = key.words();
            assert_eq!(unpack(&words[..n]), key);
        }
    }

    #[test]
    fn direction_distinguishes_portless() {
        let dns = DnsTable::new();
        let a = FlowKey::of(
            FlowDef::PortLess,
            &pkt(443, 100, Direction::FromDevice),
            &dns,
        );
        let b = FlowKey::of(FlowDef::PortLess, &pkt(443, 100, Direction::ToDevice), &dns);
        assert_ne!(a, b);
    }
}
