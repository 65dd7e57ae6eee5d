//! Generative IoT device model.
//!
//! A device is described by (a) its *periodic control flows* — the
//! constant-size, constant-pace packets that make IoT traffic predictable
//! (§2) — and (b) one *event shape* per traffic class for the bursty,
//! unpredictable part: app-triggered manual commands, routine-triggered
//! automated commands, and occasional irregular control chatter (the
//! Nest-E's hourly quirk, §3.2).

use crate::location::Location;
use fiat_net::{
    Direction, PacketRecord, SimDuration, SimTime, TcpFlags, TlsVersion, Trace, TrafficClass,
    Transport,
};
use rand::rngs::StdRng;
use rand::Rng;
use std::net::Ipv4Addr;

/// Broad device category (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// Echo Dot, Home Mini, Google Home.
    SmartSpeaker,
    /// WyzeCam, Blink.
    Camera,
    /// SP10, WP3.
    SmartPlug,
    /// Nest-E.
    Thermostat,
    /// E4 Mop Robot.
    RobotVacuum,
}

/// A periodic control flow: one packet per period, constant size, fixed
/// endpoint. `port_churn_every` models devices that re-open connections
/// from fresh ephemeral ports — the behaviour that breaks the Classic
/// 6-tuple definition and motivates PortLess (§2.1).
#[derive(Debug, Clone)]
pub struct PeriodicFlow {
    /// Vendor domain (pre-localization), e.g. "avs.amazon.com".
    pub domain: String,
    /// Packet direction relative to the device.
    pub direction: Direction,
    /// Transport protocol.
    pub transport: Transport,
    /// Constant packet size.
    pub size: u16,
    /// Period between packets.
    pub period: SimDuration,
    /// Uniform timing jitter in milliseconds (small vs the matcher bin).
    pub jitter_ms: u64,
    /// Re-draw the device-side ephemeral port every this many packets
    /// (`0` = stable port).
    pub port_churn_every: u32,
    /// Number of distinct cloud IPs the domain resolves to (round-robin).
    pub replica_ips: u8,
    /// TLS version carried by the flow's packets.
    pub tls: TlsVersion,
}

/// A constant-rate streaming tail appended to an event (camera video:
/// packets at a fixed size and pace, which the bucket heuristic learns as
/// predictable — §3.2's explanation for cameras' 60-65 % manual
/// predictability).
#[derive(Debug, Clone, Copy)]
pub struct StreamTail {
    /// Packet count range (inclusive).
    pub n: (usize, usize),
    /// Constant packet size.
    pub size: u16,
    /// Constant inter-arrival in milliseconds.
    pub iat_ms: u64,
}

/// Shape of a bursty event for one traffic class.
#[derive(Debug, Clone)]
pub struct EventShape {
    /// Packet count range (inclusive), before any streaming tail.
    pub n_packets: (usize, usize),
    /// Direction of the first packet (commands arrive ToDevice).
    pub first_direction: Direction,
    /// Transport protocol of the event's packets.
    pub transport: Transport,
    /// TLS version on the first packets.
    pub tls: TlsVersion,
    /// Size palette; each packet draws one (plus jitter).
    pub sizes: Vec<u16>,
    /// Uniform size jitter (± bytes).
    pub size_jitter: u16,
    /// Intra-event inter-arrival range in milliseconds (irregular).
    pub iat_ms: (u64, u64),
    /// TCP flags on the first packet.
    pub first_flags: TcpFlags,
    /// Vendor domain the event talks to.
    pub domain: String,
    /// Optional constant-rate tail.
    pub stream: Option<StreamTail>,
}

/// A complete generative device model.
#[derive(Debug, Clone)]
pub struct DeviceModel {
    /// Device name as in Table 1 (e.g. "EchoDot4").
    pub name: String,
    /// Category.
    pub kind: DeviceKind,
    /// Unique endpoint base for cloud IP derivation.
    pub endpoint_base: u16,
    /// Periodic control flows.
    pub control_flows: Vec<PeriodicFlow>,
    /// Shape of irregular (unpredictable) control events, with rate/day.
    pub control_events: Option<(EventShape, f64)>,
    /// Shape of automated (routine) events.
    pub automated: Option<EventShape>,
    /// Shape of manual (human) events.
    pub manual: Option<EventShape>,
    /// Minimum packets the device needs to execute a command (§3.3's N).
    pub min_packets_to_complete: usize,
    /// Distinctive notification packet size for simple-rule devices
    /// (SP10 / WP3 / Nest-E, §4: "the size of the notification packets
    /// (267 and 235 Bytes) is a distinctive feature").
    pub simple_rule_size: Option<u16>,
    /// Probability that a non-manual event is generated with the manual
    /// shape (and vice versa) — models the class overlap that keeps the
    /// paper's F1 scores below 1.0 for complex devices.
    pub confusion: f64,
}

impl DeviceModel {
    /// Whether §5's access control uses a size rule instead of ML.
    pub fn uses_simple_rule(&self) -> bool {
        self.simple_rule_size.is_some()
    }

    /// The command size an ideal size rule keys on: the declared
    /// simple-rule size, else the first size of the manual event
    /// palette. `None` for a device that models no manual commands.
    pub fn command_size(&self) -> Option<u16> {
        self.simple_rule_size
            .or_else(|| self.manual.as_ref().map(|m| m.sizes[0]))
    }

    /// The device's LAN IP given its index.
    pub fn lan_ip(device_idx: u16) -> Ipv4Addr {
        let [hi, lo] = device_idx.to_be_bytes();
        Ipv4Addr::new(192, 168, hi.wrapping_add(1), lo.wrapping_add(10))
    }

    /// Emit all periodic control-flow packets over `[0, duration)` into
    /// `trace`, registering DNS mappings.
    pub fn emit_control(
        &self,
        trace: &mut Trace,
        device_idx: u16,
        location: Location,
        duration: SimDuration,
        rng: &mut StdRng,
    ) {
        let lan_ip = Self::lan_ip(device_idx);
        for (fi, flow) in self.control_flows.iter().enumerate() {
            let domain = location.localize_domain(&flow.domain);
            let endpoint = self.endpoint_base + fi as u16;
            // Register all replicas in DNS.
            for r in 0..flow.replica_ips.max(1) {
                trace
                    .dns
                    .observe_forward(location.cloud_ip(endpoint, r), domain.clone());
            }
            let mut t = SimTime::ZERO
                + SimDuration::from_millis(rng.gen_range(0..flow.period.as_millis().max(1)));
            let mut port = ephemeral_port(rng);
            let mut count = 0u32;
            let mut replica = 0u8;
            while t < SimTime::ZERO + duration {
                if flow.port_churn_every > 0
                    && count > 0
                    && count.is_multiple_of(flow.port_churn_every)
                {
                    port = ephemeral_port(rng);
                }
                trace.push(PacketRecord {
                    ts: t,
                    device: device_idx,
                    direction: flow.direction,
                    local_ip: lan_ip,
                    remote_ip: location.cloud_ip(endpoint, replica),
                    local_port: port,
                    remote_port: 443,
                    transport: flow.transport,
                    tcp_flags: if flow.transport == Transport::Tcp {
                        TcpFlags::psh_ack()
                    } else {
                        TcpFlags::default()
                    },
                    tls: flow.tls,
                    size: flow.size,
                    label: TrafficClass::Control,
                });
                replica = (replica + 1) % flow.replica_ips.max(1);
                count += 1;
                // Timer-driven firmware reschedules in coarse ticks: the
                // jitter takes a handful of discrete 10 ms values, so
                // interval values repeat exactly (what makes the traffic
                // predictable under exact inter-arrival matching).
                let jitter = if flow.jitter_ms == 0 {
                    SimDuration::ZERO
                } else {
                    SimDuration::from_millis(rng.gen_range(0..=flow.jitter_ms / 10) * 10)
                };
                t = t + flow.period + jitter;
            }
        }
    }

    /// Emit one bursty event of the given class starting at `start`;
    /// returns the event's packets (already pushed into `trace`).
    ///
    /// With probability [`DeviceModel::confusion`], the event is drawn
    /// using another class's shape while keeping its true label.
    pub fn emit_event(
        &self,
        trace: &mut Trace,
        device_idx: u16,
        location: Location,
        class: TrafficClass,
        start: SimTime,
        rng: &mut StdRng,
    ) -> usize {
        self.emit_event_with_confusion(trace, device_idx, location, class, start, rng, 1.0)
    }

    /// Like [`DeviceModel::emit_event`], but scaling the class-confusion
    /// probability. Scripted operations (ADB automation, as in the
    /// paper's §6 accuracy runs) are uniform and rarely ambiguous
    /// (scale ≈ 0.15); free-form human use is messier (scale 1.0).
    #[allow(clippy::too_many_arguments)]
    pub fn emit_event_with_confusion(
        &self,
        trace: &mut Trace,
        device_idx: u16,
        location: Location,
        class: TrafficClass,
        start: SimTime,
        rng: &mut StdRng,
        confusion_scale: f64,
    ) -> usize {
        let shape = self.shape_for(class, rng, confusion_scale);
        let Some(shape) = shape else { return 0 };
        let lan_ip = Self::lan_ip(device_idx);
        let domain = location.localize_domain(&shape.domain);
        // All event classes share one relay endpoint per device: commands
        // ride the same cloud relay regardless of the trigger, so destination
        // IPs carry no class signal (Table 4: zero permutation importance).
        let endpoint = self.endpoint_base + 40;
        trace
            .dns
            .observe_forward(location.cloud_ip(endpoint, 0), domain.clone());
        let remote_ip = location.cloud_ip(endpoint, 0);
        let port = ephemeral_port(rng);

        let n = rng.gen_range(shape.n_packets.0..=shape.n_packets.1);
        let mut t = start;
        let mut emitted = 0usize;
        for i in 0..n {
            let base = shape.sizes[rng.gen_range(0..shape.sizes.len())];
            let size = if shape.size_jitter == 0 {
                base
            } else {
                let j = rng.gen_range(0..=2 * shape.size_jitter as i32) - shape.size_jitter as i32;
                (base as i32 + j).clamp(40, 1500) as u16
            };
            let direction = if i == 0 {
                shape.first_direction
            } else if rng.gen_bool(0.5) {
                Direction::FromDevice
            } else {
                Direction::ToDevice
            };
            trace.push(PacketRecord {
                ts: t,
                device: device_idx,
                direction,
                local_ip: lan_ip,
                remote_ip,
                local_port: port,
                remote_port: 443,
                transport: shape.transport,
                tcp_flags: if i == 0 {
                    shape.first_flags
                } else if shape.transport == Transport::Tcp {
                    TcpFlags::ack()
                } else {
                    TcpFlags::default()
                },
                tls: if i < 3 { shape.tls } else { TlsVersion::None },
                size,
                label: class,
            });
            emitted += 1;
            // Command-burst gaps are continuous (human/network timing):
            // microsecond resolution ensures intervals never repeat.
            t += SimDuration::from_micros(
                rng.gen_range(shape.iat_ms.0 * 1000..=shape.iat_ms.1 * 1000),
            );
        }
        if let Some(stream) = shape.stream {
            let sn = rng.gen_range(stream.n.0..=stream.n.1);
            for _ in 0..sn {
                t += SimDuration::from_millis(stream.iat_ms);
                trace.push(PacketRecord {
                    ts: t,
                    device: device_idx,
                    direction: Direction::FromDevice,
                    local_ip: lan_ip,
                    remote_ip,
                    local_port: port,
                    remote_port: 443,
                    transport: shape.transport,
                    tcp_flags: if shape.transport == Transport::Tcp {
                        TcpFlags::ack()
                    } else {
                        TcpFlags::default()
                    },
                    tls: TlsVersion::None,
                    size: stream.size,
                    label: class,
                });
                emitted += 1;
            }
        }
        emitted
    }

    fn shape_for(
        &self,
        class: TrafficClass,
        rng: &mut StdRng,
        confusion_scale: f64,
    ) -> Option<EventShape> {
        let confused = rng.gen_bool((self.confusion * confusion_scale).clamp(0.0, 1.0));
        let pick = |c: TrafficClass| -> Option<&EventShape> {
            match c {
                TrafficClass::Manual => self.manual.as_ref(),
                TrafficClass::Automated => self.automated.as_ref(),
                TrafficClass::Control => self.control_events.as_ref().map(|(s, _)| s),
            }
        };
        let effective = if confused {
            // Swap manual <-> non-manual shape.
            match class {
                TrafficClass::Manual => pick(TrafficClass::Automated)
                    .or_else(|| pick(TrafficClass::Control))
                    .or_else(|| pick(TrafficClass::Manual)),
                _ => pick(TrafficClass::Manual).or_else(|| pick(class)),
            }
        } else {
            pick(class)
        };
        effective.cloned()
    }
}

fn ephemeral_port(rng: &mut StdRng) -> u16 {
    rng.gen_range(49152..=65535)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn plug_model() -> DeviceModel {
        DeviceModel {
            name: "TestPlug".to_string(),
            kind: DeviceKind::SmartPlug,
            endpoint_base: 100,
            control_flows: vec![PeriodicFlow {
                domain: "plug.vendor.com".to_string(),
                direction: Direction::FromDevice,
                transport: Transport::Tcp,
                size: 60,
                period: SimDuration::from_secs(60),
                jitter_ms: 20,
                port_churn_every: 0,
                replica_ips: 1,
                tls: TlsVersion::Tls12,
            }],
            control_events: None,
            automated: Some(EventShape {
                n_packets: (2, 2),
                first_direction: Direction::ToDevice,
                transport: Transport::Tcp,
                tls: TlsVersion::Tls12,
                sizes: vec![235],
                size_jitter: 0,
                iat_ms: (30, 120),
                first_flags: TcpFlags::psh_ack(),
                domain: "relay.vendor.com".to_string(),
                stream: None,
            }),
            manual: Some(EventShape {
                n_packets: (2, 2),
                first_direction: Direction::ToDevice,
                transport: Transport::Tcp,
                tls: TlsVersion::Tls12,
                sizes: vec![235],
                size_jitter: 0,
                iat_ms: (30, 120),
                first_flags: TcpFlags::psh_ack(),
                domain: "relay.vendor.com".to_string(),
                stream: None,
            }),
            min_packets_to_complete: 1,
            simple_rule_size: Some(235),
            confusion: 0.0,
        }
    }

    #[test]
    fn control_flow_emits_periodic_packets() {
        let m = plug_model();
        let mut trace = Trace::new();
        let mut rng = StdRng::seed_from_u64(0);
        m.emit_control(
            &mut trace,
            0,
            Location::Us,
            SimDuration::from_mins(10),
            &mut rng,
        );
        trace.finish();
        // ~10 packets (one per minute), all labeled control, size 60.
        assert!(trace.len() >= 8 && trace.len() <= 11, "{}", trace.len());
        assert!(trace.packets.iter().all(|p| p.size == 60));
        assert!(trace
            .packets
            .iter()
            .all(|p| p.label == TrafficClass::Control));
        // DNS registered.
        assert!(trace.dns.contains(Location::Us.cloud_ip(100, 0)));
    }

    #[test]
    fn manual_event_has_exact_plug_shape() {
        let m = plug_model();
        let mut trace = Trace::new();
        let mut rng = StdRng::seed_from_u64(1);
        let n = m.emit_event(
            &mut trace,
            0,
            Location::Us,
            TrafficClass::Manual,
            SimTime::from_secs(5),
            &mut rng,
        );
        assert_eq!(n, 2);
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.packets[0].size, 235);
        assert_eq!(trace.packets[0].direction, Direction::ToDevice);
        assert_eq!(trace.packets[0].label, TrafficClass::Manual);
    }

    #[test]
    fn streaming_tail_is_constant_rate() {
        let mut m = plug_model();
        m.manual = Some(EventShape {
            stream: Some(StreamTail {
                n: (10, 10),
                size: 1400,
                iat_ms: 33,
            }),
            ..m.manual.clone().unwrap()
        });
        let mut trace = Trace::new();
        let mut rng = StdRng::seed_from_u64(2);
        let n = m.emit_event(
            &mut trace,
            0,
            Location::Us,
            TrafficClass::Manual,
            SimTime::ZERO,
            &mut rng,
        );
        trace.finish();
        assert_eq!(n, 12);
        let tail: Vec<&PacketRecord> = trace.packets.iter().filter(|p| p.size == 1400).collect();
        assert_eq!(tail.len(), 10);
        // Constant inter-arrival.
        for w in tail.windows(2) {
            assert_eq!((w[1].ts - w[0].ts).as_millis(), 33);
        }
    }

    #[test]
    fn location_changes_endpoints() {
        let m = plug_model();
        let mut us = Trace::new();
        let mut de = Trace::new();
        let mut rng = StdRng::seed_from_u64(3);
        m.emit_control(
            &mut us,
            0,
            Location::Us,
            SimDuration::from_mins(5),
            &mut rng,
        );
        let mut rng = StdRng::seed_from_u64(3);
        m.emit_control(
            &mut de,
            0,
            Location::Germany,
            SimDuration::from_mins(5),
            &mut rng,
        );
        assert_ne!(us.packets[0].remote_ip, de.packets[0].remote_ip);
        assert_eq!(
            de.dns.name_of(Location::Germany.cloud_ip(100, 0)),
            "plug.vendor.com" // no .com rewrite here? plug.vendor.com has .com
                .replace(".com", ".de")
        );
    }

    #[test]
    fn port_churn_rotates_ports() {
        let mut m = plug_model();
        m.control_flows[0].port_churn_every = 2;
        let mut trace = Trace::new();
        let mut rng = StdRng::seed_from_u64(4);
        m.emit_control(
            &mut trace,
            0,
            Location::Us,
            SimDuration::from_mins(10),
            &mut rng,
        );
        let ports: Vec<u16> = trace.packets.iter().map(|p| p.local_port).collect();
        let distinct: std::collections::HashSet<u16> = ports.iter().copied().collect();
        assert!(distinct.len() > 1, "expected port churn, got {distinct:?}");
    }

    #[test]
    fn confusion_swaps_shapes() {
        let mut m = plug_model();
        m.confusion = 1.0; // always confused
        m.automated = Some(EventShape {
            sizes: vec![999],
            ..m.automated.clone().unwrap()
        });
        let mut trace = Trace::new();
        let mut rng = StdRng::seed_from_u64(5);
        // Manual event drawn with the automated shape (size 999) but
        // manual label.
        m.emit_event(
            &mut trace,
            0,
            Location::Us,
            TrafficClass::Manual,
            SimTime::ZERO,
            &mut rng,
        );
        assert!(trace
            .packets
            .iter()
            .all(|p| p.label == TrafficClass::Manual));
        assert_eq!(trace.packets[0].size, 999);
    }

    #[test]
    fn lan_ips_unique_across_devices() {
        let a = DeviceModel::lan_ip(0);
        let b = DeviceModel::lan_ip(1);
        let c = DeviceModel::lan_ip(300);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }
}
