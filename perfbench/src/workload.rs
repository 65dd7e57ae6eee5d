//! Seeded inputs for the three workloads. Everything here runs before any
//! timed region: captures, stranger traffic, the proof schedule and the
//! sealed proof packets the phones will send.

use fiat_control::{enroll_home, DeviceSpec, HomeProvision};
use fiat_core::{EventClassifier, ProxyConfig, ProxyTelemetry};
use fiat_fleet::{build_workloads, HomeWorkload};
use fiat_net::{PacketRecord, SimDuration, SimTime, Trace, TrafficClass};
use fiat_quic::{Packet, ZeroRttPacket};
use fiat_sensors::{HumannessValidator, ImuTrace, MotionKind};
use fiat_telemetry::{ManualClock, MetricRegistry};
use fiat_trace::{
    class_trace, fingerprint_corpus, spoofed_trace, testbed_devices, Location, TestbedConfig,
    TestbedTrace, CORPUS_CLASSES,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Ceremony secret and enrollment seed. They equal the fleet runtime's,
/// so a `steady` or `churn` home provisioned here is the home
/// `fiat_fleet::run_sequential` provisions, and their stats must agree.
pub const SECRET: [u8; 32] = [0xF1; 32];
pub const ENROLL_SEED: u64 = 0xF1EE;

/// Device ids of the two strangers each `proof_storm` home sees.
const STRANGER_BENIGN: u16 = 100;
const STRANGER_SPOOF: u16 = 101;

/// `(claimed, behaved)` testbed indices of the spoofed stranger; these
/// pairs seal as `Spoof` in the fingerprint experiment.
const SPOOF_PAIRS: [(usize, usize); 3] = [(3, 2), (2, 0), (0, 3)];

/// The proof a phone sends this long before the first packet of the
/// manual event it vouches for.
const PROOF_LEAD: SimDuration = SimDuration::from_millis(200);

/// A packet of a proven manual event this long after the event start is
/// still part of it for the false-drop check.
const PROVEN_SPAN: SimDuration = SimDuration::from_secs(25);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Steady,
    Churn,
    ProofStorm,
}

impl Kind {
    pub fn parse(s: &str) -> Option<Kind> {
        match s {
            "steady" => Some(Kind::Steady),
            "churn" => Some(Kind::Churn),
            "proof_storm" => Some(Kind::ProofStorm),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::Steady => "steady",
            Kind::Churn => "churn",
            Kind::ProofStorm => "proof_storm",
        }
    }

    /// Homes and simulated days per home at scale 1.
    fn size(self) -> (usize, f64) {
        match self {
            Kind::Steady => (32, 1.0),
            Kind::Churn => (1000, 0.025),
            Kind::ProofStorm => (40, 0.25),
        }
    }

    /// Per-workload seed salt, so one `--seed` gives unrelated inputs
    /// to different workloads.
    fn salt(self) -> u64 {
        match self {
            Kind::Steady => 0x57ea_d000,
            Kind::Churn => 0xc4a2_0000,
            Kind::ProofStorm => 0x9f00_f000,
        }
    }

    pub fn proxy_config(self) -> ProxyConfig {
        match self {
            Kind::ProofStorm => ProxyConfig {
                proof_deadline: Some(SimDuration::from_secs(10)),
                fingerprint_unknown: true,
                ..ProxyConfig::default()
            },
            _ => ProxyConfig::default(),
        }
    }
}

/// How a proof travels to the proxy.
pub enum Wire {
    Zero(ZeroRttPacket),
    One(Packet),
}

/// One sealed humanness proof.
pub struct Proof {
    /// Delivery time.
    pub at: SimTime,
    /// Device of the manual event it vouches for (the user clears that
    /// device's lockout, if any, when proving presence).
    pub device: u16,
    /// Whether the IMU capture behind it is a human touch; `false` is a
    /// bot-driven proof the validator must reject.
    pub human: bool,
    pub wire: Wire,
}

/// One step of a `proof_storm` home's closed loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Act {
    Packet(u32),
    Proof(u32),
    Migrate,
}

/// The time-ordered closed loop of one `proof_storm` home.
pub struct Script {
    pub acts: Vec<Act>,
    pub proofs: Vec<Proof>,
    /// Per packet: part of a manual event whose genuine proof was sent.
    pub proven: Vec<bool>,
    /// Flush time after the last packet.
    pub end: SimTime,
}

pub struct Inputs {
    pub kind: Kind,
    pub homes: Vec<HomeWorkload>,
    /// One per home for `proof_storm`; empty otherwise (the loop is the
    /// capture in packet order).
    pub scripts: Vec<Script>,
    /// Fingerprint training corpus (`proof_storm` only).
    pub corpus: Vec<(String, Trace)>,
    pub packets: u64,
}

/// The fleet runtime's classifier choice: the size rule for simple
/// devices, "never manual" for the rest.
pub fn classifier(capture: &TestbedTrace, device: u16) -> EventClassifier {
    let size = capture
        .devices
        .get(device as usize)
        .and_then(|d| d.simple_rule_size)
        .unwrap_or(0);
    EventClassifier::simple_rule(size)
}

pub fn provision(kind: Kind, capture: &TestbedTrace) -> HomeProvision {
    HomeProvision {
        config: kind.proxy_config(),
        ceremony_secret: SECRET,
        seed: ENROLL_SEED,
        dns: capture.trace.dns.clone(),
        devices: (0..capture.devices.len() as u16)
            .map(|i| DeviceSpec {
                device: i,
                classifier: classifier(capture, i),
                min_packets_to_complete: capture.devices[i as usize].min_packets_to_complete,
            })
            .collect(),
        start_at: SimTime::ZERO,
    }
}

pub fn validator() -> HumannessValidator {
    HumannessValidator::with_operating_point(1.0, 1.0, 0)
}

/// A home's telemetry on a never-ticking clock, as the fleet runs it.
pub fn telemetry() -> ProxyTelemetry {
    ProxyTelemetry::new(MetricRegistry::new(), Arc::new(ManualClock::new()))
}

pub fn generate(kind: Kind, seed: u64, scale: f64) -> Inputs {
    let (base_homes, days) = kind.size();
    let homes = ((base_homes as f64 * scale).round() as usize).max(2);
    let seed = seed ^ kind.salt();
    let (homes, scripts, corpus) = match kind {
        Kind::Steady | Kind::Churn => (build_workloads(homes, days, seed), Vec::new(), Vec::new()),
        Kind::ProofStorm => {
            let (homes, scripts) = (0..homes as u32).map(|h| storm_home(h, days, seed)).unzip();
            (homes, scripts, fingerprint_corpus(seed ^ 0xf1a7))
        }
    };
    let packets = homes
        .iter()
        .map(|w: &HomeWorkload| w.capture.trace.packets.len() as u64)
        .sum();
    Inputs {
        kind,
        homes,
        scripts,
        corpus,
        packets,
    }
}

/// `trace` cut to its first `window` and moved `offset` later.
fn shifted(trace: Trace, offset: SimDuration, window: SimDuration) -> Trace {
    let cut = SimTime::ZERO + window;
    Trace {
        packets: trace
            .packets
            .into_iter()
            .filter(|p| p.ts < cut)
            .map(|mut p| {
                p.ts += offset;
                p
            })
            .collect(),
        dns: trace.dns,
    }
}

/// One `proof_storm` home: a heavy-manual-use testbed capture, two
/// strangers (one benign, one spoofed), an unproven command burst that
/// locks a device out, the phone's proofs, and a mid-capture migration.
fn storm_home(h: u32, days: f64, seed: u64) -> (HomeWorkload, Script) {
    let home_seed = seed.wrapping_add(u64::from(h).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let devices = testbed_devices();
    let mut capture = TestbedTrace::generate(TestbedConfig {
        location: Location::Us,
        days,
        seed: home_seed,
        manual_per_day: 120.0,
        routines_per_day: 10.0,
        confusion_scale: 0.15,
    });
    let mut rng = StdRng::seed_from_u64(home_seed ^ 0x5707);
    let duration = SimDuration::from_secs((days * 86_400.0) as u64);
    let midpoint = SimTime::ZERO + SimDuration::from_micros(duration.as_micros() / 2);

    // Strangers arrive after bootstrap and leave long before the
    // migration, so none straddles it (the fingerprint gate's state is
    // not part of a snapshot).
    let arrive = SimDuration::from_mins(25);
    let stay = SimDuration::from_mins(30);
    let (_, benign_model) = CORPUS_CLASSES[h as usize % CORPUS_CLASSES.len()];
    let benign = class_trace(&devices[benign_model], STRANGER_BENIGN, home_seed ^ 0xb1);
    let (claimed, behaved) = SPOOF_PAIRS[h as usize % SPOOF_PAIRS.len()];
    let spoof = spoofed_trace(
        &devices[claimed],
        &devices[behaved],
        STRANGER_SPOOF,
        stay,
        home_seed ^ 0x5b,
    );
    capture.trace.merge(shifted(benign, arrive, stay));
    capture.trace.merge(shifted(spoof, arrive, stay));

    // The phone proves every manual interaction, mostly over 0-RTT; some
    // fall back to 1-RTT (only before the migration: a restored proxy
    // has no 1-RTT session key until the phone re-handshakes); a few are
    // never sent. A bot occasionally sends a non-human proof.
    struct Planned {
        at: SimTime,
        device: u16,
        human: bool,
        one_rtt: bool,
    }
    let mut planned: Vec<Planned> = Vec::new();
    let mut proven_events: Vec<(u16, SimTime)> = Vec::new();
    for e in capture
        .events
        .iter()
        .filter(|e| e.class == TrafficClass::Manual)
    {
        let r: f64 = rng.gen();
        if r >= 0.05 {
            let at = e.start.checked_sub(PROOF_LEAD).unwrap_or(SimTime::ZERO);
            planned.push(Planned {
                at,
                device: e.device,
                human: true,
                one_rtt: r < 0.15 && at < midpoint,
            });
            proven_events.push((e.device, e.start));
        }
        if rng.gen::<f64>() < 0.04 {
            planned.push(Planned {
                at: e.start + SimDuration::from_secs(2),
                device: e.device,
                human: false,
                one_rtt: false,
            });
        }
    }
    planned.sort_by_key(|p| p.at);

    // Unproven burst: five commands to the size-rule N = 1 device, 6 s
    // apart, in a stretch no proof and none of the device's own events
    // cover — the fourth unverified episode inside the lockout window
    // locks the device.
    if let Some(target) = (0..capture.devices.len() as u16).find(|&d| {
        let m = &capture.devices[d as usize];
        m.simple_rule_size.is_some() && m.min_packets_to_complete == 1
    }) {
        let template = capture
            .trace
            .packets
            .iter()
            .find(|p| p.device == target && p.label == TrafficClass::Manual)
            .cloned();
        if let Some(template) = template {
            let proof_times: Vec<SimTime> = planned.iter().map(|p| p.at).collect();
            let target_times: Vec<SimTime> = capture
                .trace
                .device_packets(target)
                .filter(|p| p.label != TrafficClass::Control)
                .map(|p| p.ts)
                .collect();
            let quiet = |t: SimTime| {
                let lo = t
                    .checked_sub(SimDuration::from_secs(40))
                    .unwrap_or(SimTime::ZERO);
                let hi = t + SimDuration::from_secs(70);
                let empty = |times: &[SimTime]| {
                    let i = times.partition_point(|&x| x < lo);
                    times.get(i).is_none_or(|&x| x > hi)
                };
                empty(&proof_times) && empty(&target_times)
            };
            let mut t = SimTime::ZERO + SimDuration::from_mins(60);
            while t < midpoint && !quiet(t) {
                t += SimDuration::from_secs(10);
            }
            if t < midpoint {
                let burst: Vec<PacketRecord> = (0..5u64)
                    .map(|k| PacketRecord {
                        ts: t + SimDuration::from_secs(6 * k),
                        ..template.clone()
                    })
                    .collect();
                capture.trace.packets.extend(burst);
                capture.trace.finish();
            }
        }
    }

    let packets = &capture.trace.packets;
    proven_events.sort_unstable();
    let proven: Vec<bool> = packets
        .iter()
        .map(|p| {
            // Latest proven start of this device at or before the packet.
            let i = proven_events.partition_point(|&e| e <= (p.device, p.ts));
            p.label == TrafficClass::Manual
                && i > 0
                && proven_events[i - 1].0 == p.device
                && p.ts < proven_events[i - 1].1 + PROVEN_SPAN
        })
        .collect();

    // Seal the proofs with the phone enrollment hands out. Enrollment is
    // deterministic, so every round's freshly enrolled proxy accepts
    // them.
    let mut app = enroll_home(
        provision(Kind::ProofStorm, &capture),
        &SECRET,
        validator(),
        telemetry(),
        None,
    )
    .expect("shared ceremony secret always enrolls")
    .app;
    let touch = ImuTrace::synthesize(MotionKind::HumanTouch, 500, home_seed ^ 0x1a);
    let bot = ImuTrace::synthesize(MotionKind::Resting, 500, home_seed ^ 0x2b);
    let proofs: Vec<Proof> = planned
        .iter()
        .map(|p| {
            let (imu, kind) = if p.human {
                (&touch, MotionKind::HumanTouch)
            } else {
                (&bot, MotionKind::Resting)
            };
            let ts = p.at.as_micros();
            let wire = if p.one_rtt {
                Wire::One(
                    app.authorize_one_rtt("iot.app", imu, kind, ts)
                        .expect("1-RTT seal after handshake"),
                )
            } else {
                Wire::Zero(
                    app.authorize_zero_rtt("iot.app", imu, kind, ts)
                        .expect("0-RTT seal with a ticket"),
                )
            };
            Proof {
                at: p.at,
                device: p.device,
                human: p.human,
                wire,
            }
        })
        .collect();

    // Proofs land before packets of the same instant, the migration
    // after proofs and before packets.
    let mut timed: Vec<(SimTime, u8, Act)> = Vec::with_capacity(packets.len() + proofs.len() + 1);
    timed.extend(
        proofs
            .iter()
            .enumerate()
            .map(|(i, p)| (p.at, 0, Act::Proof(i as u32))),
    );
    timed.push((midpoint, 1, Act::Migrate));
    timed.extend(
        packets
            .iter()
            .enumerate()
            .map(|(i, p)| (p.ts, 2, Act::Packet(i as u32))),
    );
    timed.sort_by_key(|&(t, rank, _)| (t, rank));
    let end = packets.last().map_or(SimTime::ZERO, |p| p.ts) + SimDuration::from_secs(60);
    let script = Script {
        acts: timed.into_iter().map(|(_, _, a)| a).collect(),
        proofs,
        proven,
        end,
    };
    (HomeWorkload { home: h, capture }, script)
}
