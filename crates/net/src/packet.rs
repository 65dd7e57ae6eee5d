//! Packet metadata records — the unit of observation for FIAT.
//!
//! The proxy never inspects payloads (they are encrypted anyway); a packet
//! is fully described for FIAT's purposes by the fields of [`PacketRecord`],
//! which mirror what §2.1 of the paper records per packet: arrival
//! timestamp, size, endpoints, transport protocol and ports, plus the TCP
//! flags and TLS version used by the §4 event features.

use crate::time::SimTime;
use std::fmt;
use std::net::Ipv4Addr;

/// Transport protocol of a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Transport {
    /// Transmission Control Protocol.
    Tcp,
    /// User Datagram Protocol.
    Udp,
}

impl Transport {
    /// IANA protocol number (6 = TCP, 17 = UDP).
    pub fn proto_number(self) -> u8 {
        match self {
            Transport::Tcp => 6,
            Transport::Udp => 17,
        }
    }
}

impl fmt::Display for Transport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Transport::Tcp => write!(f, "TCP"),
            Transport::Udp => write!(f, "UDP"),
        }
    }
}

/// TCP header flags, stored as the low 8 bits of the flags field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TcpFlags(pub u8);

impl TcpFlags {
    /// FIN flag bit.
    pub const FIN: u8 = 0x01;
    /// SYN flag bit.
    pub const SYN: u8 = 0x02;
    /// RST flag bit.
    pub const RST: u8 = 0x04;
    /// PSH flag bit.
    pub const PSH: u8 = 0x08;
    /// ACK flag bit.
    pub const ACK: u8 = 0x10;

    /// Plain ACK (data or pure ack).
    pub fn ack() -> Self {
        TcpFlags(Self::ACK)
    }

    /// SYN (connection open).
    pub fn syn() -> Self {
        TcpFlags(Self::SYN)
    }

    /// SYN+ACK (connection accept).
    pub fn syn_ack() -> Self {
        TcpFlags(Self::SYN | Self::ACK)
    }

    /// PSH+ACK (data push).
    pub fn psh_ack() -> Self {
        TcpFlags(Self::PSH | Self::ACK)
    }

    /// FIN+ACK (close).
    pub fn fin_ack() -> Self {
        TcpFlags(Self::FIN | Self::ACK)
    }

    /// Whether a given flag bit is set.
    pub fn has(self, bit: u8) -> bool {
        self.0 & bit != 0
    }
}

/// TLS protocol version observed in a ClientHello/record header, if any.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TlsVersion {
    /// No TLS observed on this packet.
    None,
    /// TLS 1.0 (0x0301).
    Tls10,
    /// TLS 1.2 (0x0303).
    Tls12,
    /// TLS 1.3 (negotiated via supported_versions).
    Tls13,
}

impl TlsVersion {
    /// Numeric code used as an ML feature (0 = none).
    pub fn feature_code(self) -> f64 {
        match self {
            TlsVersion::None => 0.0,
            TlsVersion::Tls10 => 1.0,
            TlsVersion::Tls12 => 2.0,
            TlsVersion::Tls13 => 3.0,
        }
    }
}

/// Direction of a packet relative to the IoT device it concerns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Sent by the IoT device toward the cloud/phone.
    FromDevice,
    /// Received by the IoT device.
    ToDevice,
}

impl Direction {
    /// Numeric code used as an ML feature.
    pub fn feature_code(self) -> f64 {
        match self {
            Direction::FromDevice => 0.0,
            Direction::ToDevice => 1.0,
        }
    }
}

/// Ground-truth label of the traffic class (§2): control traffic keeps the
/// device operating, automated traffic is triggered by routines (IFTTT,
/// schedules), manual traffic by a human in a companion app.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrafficClass {
    /// Device housekeeping: keep-alives, telemetry, NTP, DNS.
    Control,
    /// Routine-triggered commands ("turn on the heat at 6pm").
    Automated,
    /// Human-triggered commands via the companion app.
    Manual,
}

impl TrafficClass {
    /// All classes in a fixed order.
    pub const ALL: [TrafficClass; 3] = [
        TrafficClass::Control,
        TrafficClass::Automated,
        TrafficClass::Manual,
    ];
}

impl fmt::Display for TrafficClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrafficClass::Control => write!(f, "control"),
            TrafficClass::Automated => write!(f, "automated"),
            TrafficClass::Manual => write!(f, "manual"),
        }
    }
}

/// One observed packet, as recorded by the capture point.
#[derive(Debug, Clone, PartialEq)]
pub struct PacketRecord {
    /// Arrival timestamp at the capture point.
    pub ts: SimTime,
    /// Index of the IoT device this packet belongs to (capture is per
    /// device MAC, as in the testbed).
    pub device: u16,
    /// Direction relative to the IoT device.
    pub direction: Direction,
    /// Local (device-side) IPv4 address.
    pub local_ip: Ipv4Addr,
    /// Remote (cloud/phone-side) IPv4 address.
    pub remote_ip: Ipv4Addr,
    /// Local port.
    pub local_port: u16,
    /// Remote port.
    pub remote_port: u16,
    /// Transport protocol.
    pub transport: Transport,
    /// TCP flags (zeroed for UDP).
    pub tcp_flags: TcpFlags,
    /// TLS version if the packet carries a TLS record, else `None`.
    pub tls: TlsVersion,
    /// Total packet size in bytes (as on the wire).
    pub size: u16,
    /// Ground-truth label (available in testbed traces; the proxy does not
    /// see this).
    pub label: TrafficClass,
}

impl PacketRecord {
    /// Source IP as seen on the wire.
    pub fn src_ip(&self) -> Ipv4Addr {
        match self.direction {
            Direction::FromDevice => self.local_ip,
            Direction::ToDevice => self.remote_ip,
        }
    }

    /// Destination IP as seen on the wire.
    pub fn dst_ip(&self) -> Ipv4Addr {
        match self.direction {
            Direction::FromDevice => self.remote_ip,
            Direction::ToDevice => self.local_ip,
        }
    }

    /// Source port as seen on the wire.
    pub fn src_port(&self) -> u16 {
        match self.direction {
            Direction::FromDevice => self.local_port,
            Direction::ToDevice => self.remote_port,
        }
    }

    /// Destination port as seen on the wire.
    pub fn dst_port(&self) -> u16 {
        match self.direction {
            Direction::FromDevice => self.remote_port,
            Direction::ToDevice => self.local_port,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(direction: Direction) -> PacketRecord {
        PacketRecord {
            ts: SimTime::from_secs(1),
            device: 0,
            direction,
            local_ip: Ipv4Addr::new(192, 168, 1, 10),
            remote_ip: Ipv4Addr::new(34, 1, 2, 3),
            local_port: 50000,
            remote_port: 443,
            transport: Transport::Tcp,
            tcp_flags: TcpFlags::psh_ack(),
            tls: TlsVersion::Tls12,
            size: 235,
            label: TrafficClass::Control,
        }
    }

    #[test]
    fn wire_view_from_device() {
        let p = pkt(Direction::FromDevice);
        assert_eq!(p.src_ip(), Ipv4Addr::new(192, 168, 1, 10));
        assert_eq!(p.dst_ip(), Ipv4Addr::new(34, 1, 2, 3));
        assert_eq!(p.src_port(), 50000);
        assert_eq!(p.dst_port(), 443);
    }

    #[test]
    fn wire_view_to_device() {
        let p = pkt(Direction::ToDevice);
        assert_eq!(p.src_ip(), Ipv4Addr::new(34, 1, 2, 3));
        assert_eq!(p.dst_ip(), Ipv4Addr::new(192, 168, 1, 10));
        assert_eq!(p.src_port(), 443);
        assert_eq!(p.dst_port(), 50000);
    }

    #[test]
    fn tcp_flags_bits() {
        assert!(TcpFlags::syn_ack().has(TcpFlags::SYN));
        assert!(TcpFlags::syn_ack().has(TcpFlags::ACK));
        assert!(!TcpFlags::syn().has(TcpFlags::ACK));
        assert!(TcpFlags::fin_ack().has(TcpFlags::FIN));
        assert!(!TcpFlags::ack().has(TcpFlags::RST));
    }

    #[test]
    fn feature_codes_distinct() {
        let codes = [
            TlsVersion::None.feature_code(),
            TlsVersion::Tls10.feature_code(),
            TlsVersion::Tls12.feature_code(),
            TlsVersion::Tls13.feature_code(),
        ];
        for i in 0..codes.len() {
            for j in i + 1..codes.len() {
                assert_ne!(codes[i], codes[j]);
            }
        }
        assert_ne!(
            Direction::FromDevice.feature_code(),
            Direction::ToDevice.feature_code()
        );
    }

    #[test]
    fn proto_numbers() {
        assert_eq!(Transport::Tcp.proto_number(), 6);
        assert_eq!(Transport::Udp.proto_number(), 17);
    }
}
