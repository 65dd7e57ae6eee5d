//! The 66-feature event representation (§4.1).
//!
//! For each of the first (up to) five packets of an unpredictable event:
//! direction, transport protocol, TCP flags, TLS version, packet length,
//! inter-arrival time from the previous packet, source and destination
//! ports, and the four destination-IP octets — 12 features × 5 packets.
//! Plus six aggregates: mean/std of packet sizes, mean/std of
//! inter-arrival times, packet count, and total bytes. 66 in all.
//! Events shorter than five packets zero-fill the missing slots.
//!
//! There is one feature function, [`event_features_into`]: it reads an
//! event's packets in time order and writes the 66 values into a fixed
//! array, with sizes and inter-arrival times in stack arrays, so the
//! proxy extracts at its classification point without touching the
//! heap. [`event_features`] is the thin `Vec` wrapper that training,
//! Tables 2–5 and the oracle's reference call over indexed events.

use crate::events::UnpredictableEvent;
use fiat_net::PacketRecord;

/// Packets considered per event (the paper's first N = 5).
pub const FEATURE_PACKETS: usize = 5;

/// Features per packet slot.
const PER_PACKET: usize = 12;

/// Aggregate features appended after the per-packet block.
const AGGREGATES: usize = 6;

/// Total feature count: 12 × 5 + 6 = 66.
pub const EVENT_FEATURE_COUNT: usize = FEATURE_PACKETS * PER_PACKET + AGGREGATES;

/// Names of the 66 features, matching [`event_features`] order. The
/// naming follows Table 4 of the paper (pkt1-proto, pkt1-dst-ip1, ...).
pub fn event_feature_names() -> Vec<String> {
    let mut names = Vec::with_capacity(EVENT_FEATURE_COUNT);
    for k in 1..=FEATURE_PACKETS {
        names.push(format!("pkt{k}-direction"));
        names.push(format!("pkt{k}-proto"));
        names.push(format!("pkt{k}-tcp-flags"));
        names.push(format!("pkt{k}-tls"));
        names.push(format!("pkt{k}-len"));
        names.push(format!("pkt{k}-iat"));
        names.push(format!("pkt{k}-src-port"));
        names.push(format!("pkt{k}-dst-port"));
        for o in 1..=4 {
            names.push(format!("pkt{k}-dst-ip{o}"));
        }
    }
    names.extend(
        [
            "mean-len",
            "std-len",
            "mean-iat",
            "std-iat",
            "n-pkts",
            "total-bytes",
        ]
        .map(String::from),
    );
    names
}

/// Extract the 66 features of `event` over the original packet slice:
/// [`event_features_into`] over the event's packets, copied out.
pub fn event_features(event: &UnpredictableEvent, packets: &[PacketRecord]) -> Vec<f64> {
    let mut out = [0.0; EVENT_FEATURE_COUNT];
    event_features_into(&mut out, event.packets.iter().map(|&i| &packets[i]));
    out.to_vec()
}

/// Write the 66 features of an event into `out`, from its packets in
/// time order. Reads at most [`FEATURE_PACKETS`] of them and touches no
/// heap, so the proxy extracts straight from its inline event buffer.
pub fn event_features_into<'a>(
    out: &mut [f64; EVENT_FEATURE_COUNT],
    packets: impl IntoIterator<Item = &'a PacketRecord>,
) {
    let mut sizes = [0.0; FEATURE_PACKETS];
    let mut iats = [0.0; FEATURE_PACKETS];
    let mut n = 0;
    let mut prev_ts = None;
    for (p, slot) in packets
        .into_iter()
        .take(FEATURE_PACKETS)
        .zip(out.chunks_exact_mut(PER_PACKET))
    {
        // The first packet has no inter-arrival time; the aggregates
        // read the other packets' `n - 1` of them.
        let iat = prev_ts.map_or(0.0, |t| (p.ts - t).as_secs_f64());
        if n > 0 {
            iats[n - 1] = iat;
        }
        prev_ts = Some(p.ts);
        sizes[n] = p.size as f64;
        n += 1;
        // The "destination" IP features describe the flow's remote
        // endpoint regardless of packet direction (otherwise they would
        // merely re-encode the direction bit via the LAN prefix; Table 4
        // finds them uninformative).
        let [a, b, c, d] = p.remote_ip.octets();
        slot.copy_from_slice(&[
            p.direction.feature_code(),
            p.transport.proto_number() as f64,
            p.tcp_flags.0 as f64,
            p.tls.feature_code(),
            p.size as f64,
            iat,
            p.src_port() as f64,
            p.dst_port() as f64,
            a as f64,
            b as f64,
            c as f64,
            d as f64,
        ]);
    }
    out[n * PER_PACKET..FEATURE_PACKETS * PER_PACKET].fill(0.0);

    // Aggregates over the same first-N window (what the proxy has seen by
    // decision time).
    let sizes = &sizes[..n];
    let iats = &iats[..n.saturating_sub(1)];
    out[FEATURE_PACKETS * PER_PACKET..].copy_from_slice(&[
        mean(sizes),
        std_dev(sizes),
        mean(iats),
        std_dev(iats),
        // Only the first-N window is known at decision time (§4.1:
        // features come from "the first (up to) 5 packets"); using the
        // final event length would leak information the proxy cannot
        // have yet.
        n as f64,
        sizes.iter().sum(),
    ]);
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

fn std_dev(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let m = mean(v);
    (v.iter().map(|x| (x - m).powi(2)).sum::<f64>() / v.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fiat_net::{Direction, SimTime, TcpFlags, TlsVersion, TrafficClass, Transport};
    use proptest::prelude::*;
    use std::net::Ipv4Addr;

    /// The first feature implementation (one `Vec` per intermediate),
    /// kept as the oracle the fixed-array extraction must match bit for
    /// bit.
    fn reference_features(event: &UnpredictableEvent, packets: &[PacketRecord]) -> Vec<f64> {
        let mut out = Vec::with_capacity(EVENT_FEATURE_COUNT);
        let first_n: Vec<&PacketRecord> = event
            .packets
            .iter()
            .take(FEATURE_PACKETS)
            .map(|&i| &packets[i])
            .collect();
        let mut prev_ts = None;
        for slot in 0..FEATURE_PACKETS {
            match first_n.get(slot) {
                Some(p) => {
                    let iat = match prev_ts {
                        Some(t) => (p.ts - t).as_secs_f64(),
                        None => 0.0,
                    };
                    prev_ts = Some(p.ts);
                    out.push(p.direction.feature_code());
                    out.push(p.transport.proto_number() as f64);
                    out.push(p.tcp_flags.0 as f64);
                    out.push(p.tls.feature_code());
                    out.push(p.size as f64);
                    out.push(iat);
                    out.push(p.src_port() as f64);
                    out.push(p.dst_port() as f64);
                    out.extend(p.remote_ip.octets().iter().map(|&o| o as f64));
                }
                None => out.extend(std::iter::repeat_n(0.0, PER_PACKET)),
            }
        }
        let sizes: Vec<f64> = first_n.iter().map(|p| p.size as f64).collect();
        let iats: Vec<f64> = first_n
            .windows(2)
            .map(|w| (w[1].ts - w[0].ts).as_secs_f64())
            .collect();
        let mean = |v: &[f64]| {
            if v.is_empty() {
                0.0
            } else {
                v.iter().sum::<f64>() / v.len() as f64
            }
        };
        let std_dev = |v: &[f64]| {
            if v.is_empty() {
                return 0.0;
            }
            let m = mean(v);
            (v.iter().map(|x| (x - m).powi(2)).sum::<f64>() / v.len() as f64).sqrt()
        };
        out.push(mean(&sizes));
        out.push(std_dev(&sizes));
        out.push(mean(&iats));
        out.push(std_dev(&iats));
        out.push(first_n.len() as f64);
        out.push(sizes.iter().sum());
        out
    }

    proptest! {
        /// Events of 0–8 packets with arbitrary headers and timestamps
        /// in any order (a reordered capture's IATs saturate to zero):
        /// every feature of `event_features_into`, and of its `Vec`
        /// wrapper, equals the oracle's bit for bit.
        #[test]
        fn features_match_the_reference_bit_for_bit(
            raw in prop::collection::vec(
                (0u64..20_000_000, any::<u16>(), any::<u16>(), any::<u16>(), any::<u8>(), any::<u32>(), 0u8..4),
                0..9,
            )
        ) {
            let tls = [TlsVersion::None, TlsVersion::Tls10, TlsVersion::Tls12, TlsVersion::Tls13];
            let packets: Vec<PacketRecord> = raw
                .iter()
                .map(|&(ts, size, local_port, remote_port, flags, ip, kind)| PacketRecord {
                    ts: SimTime::from_micros(ts),
                    direction: if kind & 1 == 0 { Direction::FromDevice } else { Direction::ToDevice },
                    remote_ip: Ipv4Addr::from(ip),
                    local_port,
                    remote_port,
                    transport: if kind & 2 == 0 { Transport::Tcp } else { Transport::Udp },
                    tcp_flags: TcpFlags(flags),
                    tls: tls[usize::from(flags % 4)],
                    ..pkt(0, size)
                })
                .collect();
            let event = UnpredictableEvent {
                device: 0,
                packets: (0..packets.len()).collect(),
                start: SimTime::ZERO,
                end: SimTime::ZERO,
            };
            let want: Vec<u64> = reference_features(&event, &packets).iter().map(|f| f.to_bits()).collect();
            let got: Vec<u64> = event_features(&event, &packets).iter().map(|f| f.to_bits()).collect();
            prop_assert_eq!(&got, &want);
            // Into a dirty array: every slot is written.
            let mut out = [f64::NAN; EVENT_FEATURE_COUNT];
            event_features_into(&mut out, &packets);
            let got: Vec<u64> = out.iter().map(|f| f.to_bits()).collect();
            prop_assert_eq!(got, want);
        }
    }

    fn pkt(ts_ms: u64, size: u16) -> PacketRecord {
        PacketRecord {
            ts: SimTime::from_millis(ts_ms),
            device: 0,
            direction: Direction::ToDevice,
            local_ip: Ipv4Addr::new(192, 168, 1, 10),
            remote_ip: Ipv4Addr::new(34, 12, 34, 56),
            local_port: 5000,
            remote_port: 443,
            transport: Transport::Tcp,
            tcp_flags: TcpFlags::psh_ack(),
            tls: TlsVersion::Tls12,
            size,
            label: TrafficClass::Manual,
        }
    }

    fn event_of(packets: &[PacketRecord]) -> UnpredictableEvent {
        UnpredictableEvent {
            device: 0,
            packets: (0..packets.len()).collect(),
            start: packets[0].ts,
            end: packets.last().unwrap().ts,
        }
    }

    #[test]
    fn names_count_and_uniqueness() {
        let names = event_feature_names();
        assert_eq!(names.len(), EVENT_FEATURE_COUNT);
        assert_eq!(EVENT_FEATURE_COUNT, 66);
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 66);
        assert!(names.contains(&"pkt1-proto".to_string()));
        assert!(names.contains(&"pkt3-tls".to_string()));
        assert!(names.contains(&"pkt1-dst-ip4".to_string()));
    }

    #[test]
    fn full_event_features() {
        let packets: Vec<PacketRecord> = (0..5).map(|i| pkt(i * 100, 200 + i as u16)).collect();
        let ev = event_of(&packets);
        let f = event_features(&ev, &packets);
        let names = event_feature_names();
        let get = |n: &str| f[names.iter().position(|x| x == n).unwrap()];
        assert_eq!(get("pkt1-direction"), 1.0); // ToDevice
        assert_eq!(get("pkt1-proto"), 6.0);
        assert_eq!(get("pkt1-len"), 200.0);
        assert_eq!(get("pkt1-iat"), 0.0); // first packet has no IAT
        assert!((get("pkt2-iat") - 0.1).abs() < 1e-9);
        assert_eq!(get("pkt1-dst-ip1"), 34.0); // remote endpoint octet
        assert_eq!(get("n-pkts"), 5.0);
        assert_eq!(get("mean-len"), 202.0);
        assert_eq!(get("total-bytes"), 1010.0);
        assert!((get("mean-iat") - 0.1).abs() < 1e-9);
        assert!(get("std-iat").abs() < 1e-9);
    }

    #[test]
    fn short_event_zero_fills() {
        let packets: Vec<PacketRecord> = (0..2).map(|i| pkt(i * 50, 235)).collect();
        let ev = event_of(&packets);
        let f = event_features(&ev, &packets);
        assert_eq!(f.len(), 66);
        let names = event_feature_names();
        let idx = |n: &str| names.iter().position(|x| x == n).unwrap();
        // Slots 3..5 all zero.
        for k in 3..=5 {
            assert_eq!(f[idx(&format!("pkt{k}-len"))], 0.0);
            assert_eq!(f[idx(&format!("pkt{k}-proto"))], 0.0);
        }
        assert_eq!(f[idx("n-pkts")], 2.0);
        assert_eq!(f[idx("total-bytes")], 470.0);
    }

    #[test]
    fn long_event_uses_first_five_only() {
        let packets: Vec<PacketRecord> = (0..50).map(|i| pkt(i * 10, 100 + i as u16)).collect();
        let ev = event_of(&packets);
        let f = event_features(&ev, &packets);
        let names = event_feature_names();
        let idx = |n: &str| names.iter().position(|x| x == n).unwrap();
        // Aggregate length stats computed over packets 0..5 (sizes 100..104).
        assert_eq!(f[idx("mean-len")], 102.0);
        // n-pkts is capped at the decision window.
        assert_eq!(f[idx("n-pkts")], 5.0);
    }

    #[test]
    fn direction_affects_port_and_ip_features() {
        let mut p = pkt(0, 100);
        p.direction = Direction::FromDevice;
        let packets = vec![p];
        let ev = event_of(&packets);
        let f = event_features(&ev, &packets);
        let names = event_feature_names();
        let idx = |n: &str| names.iter().position(|x| x == n).unwrap();
        // FromDevice: src port is the local 5000, dst is remote 443.
        assert_eq!(f[idx("pkt1-src-port")], 5000.0);
        assert_eq!(f[idx("pkt1-dst-port")], 443.0);
        assert_eq!(f[idx("pkt1-dst-ip1")], 34.0); // remote either way
    }
}
