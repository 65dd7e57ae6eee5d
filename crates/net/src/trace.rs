//! Labeled packet trace container.
//!
//! A [`Trace`] is a time-ordered sequence of [`PacketRecord`]s plus the DNS
//! knowledge collected alongside (as a capture of DNS responses would
//! provide). It is what dataset generators emit and what the predictability
//! analysis and the proxy consume.

use crate::dns::DnsTable;
use crate::packet::{PacketRecord, TrafficClass};
use crate::time::{SimDuration, SimTime};

/// A labeled, time-ordered packet trace for one or more devices.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Packets in non-decreasing timestamp order.
    pub packets: Vec<PacketRecord>,
    /// DNS mappings observed during the capture.
    pub dns: DnsTable,
}

impl Trace {
    /// Empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a packet, keeping time order. Packets may be pushed slightly
    /// out of order by independent generators; they are re-sorted on
    /// [`Trace::finish`].
    pub fn push(&mut self, pkt: PacketRecord) {
        self.packets.push(pkt);
    }

    /// Stable-sort packets by timestamp. Call once after generation.
    pub fn finish(&mut self) {
        self.packets.sort_by_key(|p| p.ts);
    }

    /// Number of packets.
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    /// Whether the trace holds no packets.
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }

    /// Total bytes across all packets.
    pub fn total_bytes(&self) -> u64 {
        self.packets.iter().map(|p| p.size as u64).sum()
    }

    /// Duration from first to last packet.
    pub fn duration(&self) -> SimDuration {
        match (self.packets.first(), self.packets.last()) {
            (Some(f), Some(l)) => l.ts - f.ts,
            _ => SimDuration::ZERO,
        }
    }

    /// Iterator over packets of one device.
    pub fn device_packets(&self, device: u16) -> impl Iterator<Item = &PacketRecord> {
        self.packets.iter().filter(move |p| p.device == device)
    }

    /// Distinct device ids present, sorted.
    pub fn devices(&self) -> Vec<u16> {
        let mut ids: Vec<u16> = self.packets.iter().map(|p| p.device).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Count packets with a given label for a device.
    pub fn count_labeled(&self, device: u16, label: TrafficClass) -> usize {
        self.device_packets(device)
            .filter(|p| p.label == label)
            .count()
    }

    /// Sub-trace restricted to a time window `[from, to)`. DNS is shared.
    pub fn window(&self, from: SimTime, to: SimTime) -> Trace {
        Trace {
            packets: self
                .packets
                .iter()
                .filter(|p| p.ts >= from && p.ts < to)
                .cloned()
                .collect(),
            dns: self.dns.clone(),
        }
    }

    /// Merge another trace into this one (re-sorts, merges DNS).
    pub fn merge(&mut self, other: Trace) {
        self.packets.extend(other.packets);
        self.dns.merge(&other.dns);
        self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Direction, TcpFlags, TlsVersion, Transport};
    use std::net::Ipv4Addr;

    fn pkt(ts_s: u64, device: u16, label: TrafficClass) -> PacketRecord {
        PacketRecord {
            ts: SimTime::from_secs(ts_s),
            device,
            direction: Direction::FromDevice,
            local_ip: Ipv4Addr::new(192, 168, 1, 10),
            remote_ip: Ipv4Addr::new(1, 2, 3, 4),
            local_port: 40000,
            remote_port: 443,
            transport: Transport::Tcp,
            tcp_flags: TcpFlags::ack(),
            tls: TlsVersion::None,
            size: 100,
            label,
        }
    }

    #[test]
    fn finish_sorts_by_time() {
        let mut t = Trace::new();
        t.push(pkt(5, 0, TrafficClass::Control));
        t.push(pkt(1, 0, TrafficClass::Control));
        t.push(pkt(3, 0, TrafficClass::Control));
        t.finish();
        let ts: Vec<u64> = t.packets.iter().map(|p| p.ts.as_micros()).collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn accounting() {
        let mut t = Trace::new();
        t.push(pkt(0, 0, TrafficClass::Control));
        t.push(pkt(10, 1, TrafficClass::Manual));
        t.push(pkt(20, 0, TrafficClass::Manual));
        t.finish();
        assert_eq!(t.len(), 3);
        assert_eq!(t.total_bytes(), 300);
        assert_eq!(t.duration(), SimDuration::from_secs(20));
        assert_eq!(t.devices(), vec![0, 1]);
        assert_eq!(t.count_labeled(0, TrafficClass::Manual), 1);
        assert_eq!(t.count_labeled(0, TrafficClass::Control), 1);
        assert_eq!(t.device_packets(1).count(), 1);
    }

    #[test]
    fn window_is_half_open() {
        let mut t = Trace::new();
        for s in 0..10 {
            t.push(pkt(s, 0, TrafficClass::Control));
        }
        t.finish();
        let w = t.window(SimTime::from_secs(2), SimTime::from_secs(5));
        assert_eq!(w.len(), 3); // seconds 2, 3, 4
    }

    #[test]
    fn merge_combines_and_sorts() {
        let mut a = Trace::new();
        a.push(pkt(10, 0, TrafficClass::Control));
        let mut b = Trace::new();
        b.push(pkt(5, 1, TrafficClass::Control));
        b.dns
            .observe_forward(Ipv4Addr::new(1, 2, 3, 4), "x.example");
        a.merge(b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.packets[0].device, 1);
        assert_eq!(a.dns.name_of(Ipv4Addr::new(1, 2, 3, 4)), "x.example");
    }
}
