//! Seeded differential fuzzer: drive the real `FiatProxy` and the naive
//! [`ReferenceProxy`] op-by-op over
//! timestamp-chaos traces and report the first point they disagree.
//!
//! A scenario is testbed traffic (the paper's 10-device matrix) put
//! through seeded chaos mutations — adjacent swaps, long-range
//! backwards moves, duplicates, segment clock skew, boundary-exact
//! event-gap and bootstrap-edge probes — interleaved with humanness
//! proofs, `flush` calls (including back-to-back flushes and
//! flush-then-older-packet), and lockout clears. Both proxies run the
//! identical op list; the oracle compares every per-packet decision,
//! the final [`ProxyStats`], the audit trail entry-by-entry, and the
//! real proxy's hash chain. On divergence, a greedy chunk-removal
//! shrinker minimizes the op list before reporting.

use crate::reference::ReferenceProxy;
use fiat_core::audit::AuditEntry;
use fiat_core::{EventClassifier, FiatApp, FiatProxy, ProxyConfig, ProxyDecision, ProxyStats};
use fiat_fingerprint::{FingerprintEngine, MatcherConfig, SignatureSet};
use fiat_net::{
    Direction, DnsTable, PacketRecord, SimDuration, SimTime, TcpFlags, TlsVersion, TrafficClass,
    Transport,
};
use fiat_sensors::{HumannessValidator, ImuTrace, MotionKind};
use fiat_trace::{
    class_trace, fingerprint_corpus, spoofed_trace, testbed_devices, TestbedConfig, TestbedTrace,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;

/// Pairing-ceremony secret shared by the fuzzer's proxy and app.
const SECRET: [u8; 32] = [0x5a; 32];

/// One step of a differential run. Ops are plain data so any subset of
/// a scenario's op list is itself a valid (shrunk) scenario.
#[derive(Debug, Clone)]
pub enum Op {
    /// Decide one packet on both sides and compare the verdicts.
    Packet(PacketRecord),
    /// A genuine humanness proof lands at this time (0-RTT on the real
    /// side, a window refresh on the reference).
    VerifyHuman(SimTime),
    /// Close stale events on both sides.
    Flush(SimTime),
    /// The user manually verifies a locked-out device.
    ClearLockout(u16),
}

/// Fingerprint-gate setup shared by both sides of a scenario: the seed
/// the labeled training corpus derives from, plus the matcher numbers.
/// The real side runs a `FingerprintEngine` over the learned signatures;
/// the reference side runs the naive mirror over the *same* signatures
/// (shared data, independent arithmetic — like the event classifier).
#[derive(Debug, Clone)]
pub struct FingerprintSetup {
    /// Seed for [`fiat_trace::fingerprint_corpus()`].
    pub corpus_seed: u64,
    /// Evidence-window and matcher parameters.
    pub matcher: MatcherConfig,
}

/// A complete differential scenario: shared configuration, the device
/// matrix, the interaction DAG, DNS knowledge, and the op list.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Shared proxy configuration (both sides run exactly this).
    pub config: ProxyConfig,
    /// `(device id, simple-rule manual size, N)` registrations.
    pub devices: Vec<(u16, u16, usize)>,
    /// Interaction DAG edges (`trigger → target`, acyclic).
    pub edges: Vec<(u16, u16)>,
    /// Cascade window for the DAG.
    pub cascade_window: SimDuration,
    /// DNS observed during the capture.
    pub dns: DnsTable,
    /// Fingerprint gate trained on both sides (`None` leaves the
    /// legacy unknown-device fail-open in force).
    pub fingerprint: Option<FingerprintSetup>,
    /// The op list, in execution order.
    pub ops: Vec<Op>,
}

impl Scenario {
    /// Number of packet ops.
    pub fn packet_count(&self) -> usize {
        self.ops
            .iter()
            .filter(|o| matches!(o, Op::Packet(_)))
            .count()
    }
}

/// Chaos applied while building a scenario, for the report.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChaosStats {
    /// Adjacent packet swaps (single-step reordering).
    pub swaps: u64,
    /// Long-range backwards moves (a packet delivered early).
    pub moves: u64,
    /// Duplicated packets.
    pub dups: u64,
    /// Packets whose timestamp was skewed by a segment clock shift.
    pub skewed: u64,
    /// Injected boundary-exact probes (event gap, bootstrap edge).
    pub boundary_probes: u64,
    /// Injected quarantine probes (held-then-released and
    /// held-then-expired manual bursts).
    pub quarantine_probes: u64,
    /// Injected unknown-device fingerprint packets (genuine, spoofed,
    /// unclassifiable, and cache-flood traffic).
    pub fingerprint_probes: u64,
    /// Interleaved humanness proofs.
    pub verify_ops: u64,
    /// Interleaved flush calls.
    pub flush_ops: u64,
    /// Interleaved lockout clears.
    pub clear_ops: u64,
}

impl std::ops::AddAssign for ChaosStats {
    fn add_assign(&mut self, rhs: ChaosStats) {
        self.swaps += rhs.swaps;
        self.moves += rhs.moves;
        self.dups += rhs.dups;
        self.skewed += rhs.skewed;
        self.boundary_probes += rhs.boundary_probes;
        self.quarantine_probes += rhs.quarantine_probes;
        self.fingerprint_probes += rhs.fingerprint_probes;
        self.verify_ops += rhs.verify_ops;
        self.flush_ops += rhs.flush_ops;
        self.clear_ops += rhs.clear_ops;
    }
}

/// Where and how the two implementations disagreed.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)] // error-path only; ProxyStats inline keeps reporting simple
pub enum DivergenceKind {
    /// Per-packet verdicts differ.
    Decision {
        /// The real proxy's verdict.
        real: ProxyDecision,
        /// The reference's verdict.
        reference: ProxyDecision,
        /// Device the packet belongs to.
        device: u16,
        /// Packet timestamp.
        ts: SimTime,
    },
    /// End-of-run decision counters differ.
    Stats {
        /// The real proxy's counters.
        real: ProxyStats,
        /// The reference's counters.
        reference: ProxyStats,
    },
    /// Audit trails differ in length.
    AuditLength {
        /// Real entry count.
        real: usize,
        /// Reference entry count.
        reference: usize,
    },
    /// Audit trails differ at an entry.
    AuditEntry {
        /// Index of the first differing entry.
        index: usize,
        /// The real proxy's entry.
        real: AuditEntry,
        /// The reference's entry.
        reference: AuditEntry,
    },
    /// The real proxy's own hash chain failed to verify.
    AuditChain,
}

impl DivergenceKind {
    /// Stable label for metrics/grouping: `decision`, `stats`, or
    /// `audit`.
    pub fn label(&self) -> &'static str {
        match self {
            DivergenceKind::Decision { .. } => "decision",
            DivergenceKind::Stats { .. } => "stats",
            DivergenceKind::AuditLength { .. }
            | DivergenceKind::AuditEntry { .. }
            | DivergenceKind::AuditChain => "audit",
        }
    }
}

/// First point of disagreement in a scenario run.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Index into [`Scenario::ops`] (ops.len() for end-state checks).
    pub op_index: usize,
    /// What disagreed.
    pub kind: DivergenceKind,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            DivergenceKind::Decision {
                real,
                reference,
                device,
                ts,
            } => write!(
                f,
                "op {}: decision mismatch on device {} at {} µs: real {:?} vs reference {:?}",
                self.op_index,
                device,
                ts.as_micros(),
                real,
                reference
            ),
            DivergenceKind::Stats { real, reference } => write!(
                f,
                "end state: stats mismatch: real {real:?} vs reference {reference:?}"
            ),
            DivergenceKind::AuditLength { real, reference } => write!(
                f,
                "end state: audit length mismatch: real {real} vs reference {reference}"
            ),
            DivergenceKind::AuditEntry {
                index,
                real,
                reference,
            } => write!(
                f,
                "end state: audit entry {index} mismatch: real {real:?} vs reference {reference:?}"
            ),
            DivergenceKind::AuditChain => {
                write!(f, "end state: real proxy audit hash chain failed to verify")
            }
        }
    }
}

/// Build the real proxy for a scenario: perfect humanness validator (so
/// proofs depend only on timing, not validator noise), simple-rule
/// classifiers (shared with the reference — the oracle checks the
/// decision path, not the model), and the scenario's interaction DAG.
fn build_real(sc: &Scenario) -> FiatProxy {
    let validator = HumannessValidator::with_operating_point(1.0, 1.0, 0);
    let mut proxy = FiatProxy::new(sc.config.clone(), &SECRET, validator);
    for &(id, size, n) in &sc.devices {
        proxy.register_device(id, EventClassifier::simple_rule(size), n);
    }
    if !sc.edges.is_empty() {
        let mut g = fiat_core::InteractionGraph::new(sc.cascade_window);
        for &(a, b) in &sc.edges {
            g.add_edge(a, b).expect("scenario edges are acyclic");
        }
        proxy.set_interactions(g);
    }
    proxy.set_dns(sc.dns.clone());
    if let Some(fp) = &sc.fingerprint {
        let sigs = learn_signatures(fp);
        proxy.set_fingerprinter(Box::new(FingerprintEngine::new(sigs, fp.matcher)));
    }
    proxy.start(SimTime::ZERO);
    proxy
}

fn build_reference(sc: &Scenario, config: &ProxyConfig) -> ReferenceProxy {
    let mut reference = ReferenceProxy::new(config.clone());
    for &(id, size, n) in &sc.devices {
        reference.register_device(id, EventClassifier::simple_rule(size), n);
    }
    if !sc.edges.is_empty() {
        reference.set_interactions(sc.cascade_window, &sc.edges);
    }
    reference.set_dns(sc.dns.clone());
    if let Some(fp) = &sc.fingerprint {
        let sigs = learn_signatures(fp);
        reference.set_fingerprint(sigs.signatures().to_vec(), fp.matcher);
    }
    reference.start(SimTime::ZERO);
    reference
}

/// Train the signature set a setup describes (shared by both sides —
/// training is an *input* to the decision path, like the classifier; the
/// differential check covers the online matching, not learning).
fn learn_signatures(fp: &FingerprintSetup) -> SignatureSet {
    let corpus = fingerprint_corpus(fp.corpus_seed);
    SignatureSet::learn(&corpus, fp.matcher.evidence_window)
}

/// Run one scenario differentially; `None` means full agreement.
pub fn run_scenario(sc: &Scenario) -> Option<Divergence> {
    run_scenario_with_real_config(sc, &sc.config)
}

/// [`run_scenario`], but the real proxy gets its own configuration.
/// With `real_config == sc.config` this is the oracle proper; with a
/// deliberately perturbed config it is a self-test that the oracle
/// actually detects semantic drift (used in tests and CI).
pub fn run_scenario_with_real_config(
    sc: &Scenario,
    real_config: &ProxyConfig,
) -> Option<Divergence> {
    let sc_real = Scenario {
        config: real_config.clone(),
        ..sc.clone()
    };
    run_pair(build_real(&sc_real), build_reference(sc, &sc.config), sc)
}

/// [`run_scenario`], but the real side's fingerprint engine gets its own
/// matcher numbers while the naive mirror keeps the scenario's. With a
/// perturbed matcher this is the fingerprint drift self-test: a silent
/// change to a threshold or the evidence window must surface as a
/// divergence.
pub fn run_scenario_with_real_matcher(
    sc: &Scenario,
    real_matcher: MatcherConfig,
) -> Option<Divergence> {
    let fp = sc
        .fingerprint
        .clone()
        .expect("scenario has no fingerprint setup to perturb");
    let sc_real = Scenario {
        fingerprint: Some(FingerprintSetup {
            matcher: real_matcher,
            ..fp
        }),
        ..sc.clone()
    };
    run_pair(build_real(&sc_real), build_reference(sc, &sc.config), sc)
}

/// Drive one prebuilt real/reference pair through a scenario's op list
/// and compare decisions, stats, audit trail, and the hash chain.
fn run_pair(
    mut real: FiatProxy,
    mut reference: ReferenceProxy,
    sc: &Scenario,
) -> Option<Divergence> {
    // One handshake up front; each VerifyHuman op reuses the ticket
    // with a fresh 0-RTT nonce.
    let mut app = FiatApp::new(&SECRET, 1);
    let ch = app.handshake_request();
    let sh = real.accept_handshake(&ch);
    app.complete_handshake(&sh).expect("fuzzer handshake");
    let imu = ImuTrace::synthesize(MotionKind::HumanTouch, 500, 7);

    for (i, op) in sc.ops.iter().enumerate() {
        match op {
            Op::Packet(pkt) => {
                let a = real.on_packet(pkt);
                let b = reference.on_packet(pkt);
                if a != b {
                    return Some(Divergence {
                        op_index: i,
                        kind: DivergenceKind::Decision {
                            real: a,
                            reference: b,
                            device: pkt.device,
                            ts: pkt.ts,
                        },
                    });
                }
            }
            Op::VerifyHuman(at) => {
                let z = app
                    .authorize_zero_rtt("iot.app", &imu, MotionKind::HumanTouch, at.as_micros())
                    .expect("0-RTT seal");
                let ok = real.on_auth_zero_rtt(&z, *at).expect("genuine evidence");
                assert!(ok, "perfect validator must verify genuine evidence");
                reference.verify_human(*at);
            }
            Op::Flush(at) => {
                real.flush(*at);
                reference.flush(*at);
            }
            Op::ClearLockout(device) => {
                real.clear_lockout(*device);
                reference.clear_lockout(*device);
            }
        }
    }

    let end = sc.ops.len();
    let (rs, fs) = (real.stats(), reference.stats());
    if rs != fs {
        return Some(Divergence {
            op_index: end,
            kind: DivergenceKind::Stats {
                real: rs,
                reference: fs,
            },
        });
    }
    let ra = real.audit().entries();
    let fa = reference.audit_entries();
    if ra.len() != fa.len() {
        return Some(Divergence {
            op_index: end,
            kind: DivergenceKind::AuditLength {
                real: ra.len(),
                reference: fa.len(),
            },
        });
    }
    for (idx, (a, b)) in ra.iter().zip(fa).enumerate() {
        if a != b {
            return Some(Divergence {
                op_index: end,
                kind: DivergenceKind::AuditEntry {
                    index: idx,
                    real: a.clone(),
                    reference: b.clone(),
                },
            });
        }
    }
    if !real.audit().verify() {
        return Some(Divergence {
            op_index: end,
            kind: DivergenceKind::AuditChain,
        });
    }
    None
}

/// Generate one chaos scenario over the 10-device testbed matrix.
///
/// The shared config shortens bootstrap to 10 minutes so most of the
/// capture exercises the post-bootstrap decision path, and raises the
/// manual-event rate so humanness gating, lockouts, and retro closures
/// all fire. `quick` scales the capture down for smoke tests.
pub fn build_scenario(seed: u64, quick: bool) -> (Scenario, ChaosStats) {
    let days = if quick { 0.022 } else { 0.06 };
    let tb = TestbedTrace::generate(TestbedConfig {
        days,
        manual_per_day: 60.0,
        routines_per_day: 30.0,
        seed,
        ..Default::default()
    });
    // An aggressive lockout (one tolerated episode in a 30-minute
    // window) makes the lockout/clear/retro-lock interplay actually
    // fire on a short capture; both sides share the knob, so the oracle
    // still compares like with like.
    // Quarantine is on (3 s proof deadline) so every scenario also
    // exercises the hold/release/expire state machine differentially.
    let config = ProxyConfig {
        bootstrap: SimDuration::from_mins(10),
        lockout_threshold: 1,
        lockout_window: SimDuration::from_mins(30),
        proof_deadline: Some(SimDuration::from_secs(3)),
        fingerprint_unknown: true,
        ..Default::default()
    };
    // Tight LRU caps so the tracked-window and sealed-verdict eviction
    // paths actually fire on a short capture; thresholds stay at their
    // defaults so the genuine/spoofed/unclassifiable probes land their
    // intended verdicts.
    let matcher = MatcherConfig {
        max_tracked: 48,
        max_sealed: 4,
        ..MatcherConfig::default()
    };
    let devices: Vec<(u16, u16, usize)> = tb
        .devices
        .iter()
        .enumerate()
        .map(|(i, d)| {
            // Simple-rule classifier for every device: the rule size for
            // simple-rule devices, else the device's first manual palette
            // size so manual events still classify as manual. Shared
            // verbatim with the reference side.
            let size = d.command_size().unwrap_or(0);
            (i as u16, size, d.min_packets_to_complete)
        })
        .collect();

    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut stats = ChaosStats::default();
    let mut packets = tb.trace.packets.clone();
    let mut dns = tb.trace.dns.clone();
    inject_fingerprint_traffic(&mut packets, &mut dns, &config, seed, &mut stats);
    mutate_packets(&mut packets, &mut rng, &config, &mut stats);
    inject_manual_fragments(&mut packets, &devices, &mut rng, &config, &mut stats);
    let mut forced_proofs = inject_cascade_probes(&mut packets, &devices, &mut rng, &config);
    forced_proofs.extend(inject_quarantine_probes(
        &mut packets,
        &devices,
        &mut rng,
        &config,
        &mut stats,
    ));
    forced_proofs.sort_unstable();
    let mut next_forced = 0usize;

    // Ground-truth manual event starts, for targeted humanness proofs.
    let mut manual_starts: Vec<SimTime> = tb
        .events
        .iter()
        .filter(|e| e.class == fiat_net::TrafficClass::Manual)
        .map(|e| e.start)
        .collect();
    manual_starts.sort_unstable();
    let mut next_manual = 0usize;

    let end = packets.last().map_or(SimTime::ZERO, |p| p.ts);
    let gap = config.event_gap;
    let mut ops: Vec<Op> = Vec::with_capacity(packets.len() + 64);
    for p in packets {
        // Proofs the cascade probes depend on land unconditionally.
        while next_forced < forced_proofs.len() && forced_proofs[next_forced] <= p.ts {
            ops.push(Op::VerifyHuman(forced_proofs[next_forced]));
            stats.verify_ops += 1;
            next_forced += 1;
        }
        // A humanness proof shortly before roughly half the genuine
        // manual events, so verified-manual (and its absence) both
        // occur; occasionally the proof lands exactly one validity
        // window early — the `now <= human_valid_until` boundary.
        while next_manual < manual_starts.len() && manual_starts[next_manual] <= p.ts {
            let start = manual_starts[next_manual];
            next_manual += 1;
            if rng.gen_range(0..2u32) == 0 {
                let at = if rng.gen_range(0..6u32) == 0 {
                    SimTime::from_micros(
                        start
                            .as_micros()
                            .saturating_sub(config.human_valid_window.as_micros()),
                    )
                } else {
                    SimTime::from_micros(
                        start
                            .as_micros()
                            .saturating_sub(rng.gen_range(0..3_000_000)),
                    )
                };
                ops.push(Op::VerifyHuman(at));
                stats.verify_ops += 1;
            }
        }
        // Sprinkle non-packet ops between packets.
        if rng.gen_range(0..400u32) == 0 {
            let at =
                SimTime::from_micros(p.ts.as_micros().saturating_sub(rng.gen_range(0..2_000_000)));
            ops.push(Op::VerifyHuman(at));
            stats.verify_ops += 1;
        }
        if rng.gen_range(0..600u32) == 0 {
            let at = p.ts + SimDuration::from_micros(rng.gen_range(0..=gap.as_micros() * 2));
            ops.push(Op::Flush(at));
            stats.flush_ops += 1;
        }
        if rng.gen_range(0..500u32) == 0 {
            ops.push(Op::ClearLockout(rng.gen_range(0..10) as u16));
            stats.clear_ops += 1;
        }
        // Stranger in the house: the same packet also shows up under an
        // unregistered device id (fail-open path, audited once).
        if rng.gen_range(0..800u32) == 0 {
            let mut stranger = p.clone();
            stranger.device = 240 + rng.gen_range(0..3) as u16;
            ops.push(Op::Packet(stranger));
        }
        ops.push(Op::Packet(p));
    }

    // Forced proofs landing after the last packet still matter: a
    // quarantine-release probe near the end of the capture depends on
    // its proof arriving before the trailing flushes expire the record.
    while next_forced < forced_proofs.len() {
        ops.push(Op::VerifyHuman(forced_proofs[next_forced]));
        stats.verify_ops += 1;
        next_forced += 1;
    }

    // Trailing probes: double flush (idempotence), then an older packet
    // after the flush (must start a fresh event, not resurrect the
    // flushed one), then a final flush to close it.
    let final_flush = end + gap + gap;
    ops.push(Op::Flush(final_flush));
    ops.push(Op::Flush(final_flush));
    stats.flush_ops += 2;
    let older = ops.iter().rev().find_map(|o| match o {
        Op::Packet(p) => Some(p.clone()),
        _ => None,
    });
    if let Some(mut p) = older {
        p.ts = SimTime::from_micros(p.ts.as_micros().saturating_sub(gap.as_micros()));
        ops.push(Op::Packet(p));
        ops.push(Op::Flush(final_flush + gap + gap));
        stats.flush_ops += 1;
    }

    (
        Scenario {
            config,
            devices,
            // A small DAG over the matrix: voice assistants vouch for
            // the plugs/thermostat they command (§7's Alexa → light).
            // The window is wide enough that a cascade can outlive the
            // 30 s humanness window — the regime where the cascade path
            // is actually the deciding branch.
            edges: vec![(0, 3), (0, 5), (4, 9)],
            cascade_window: SimDuration::from_secs(120),
            dns,
            fingerprint: Some(FingerprintSetup {
                corpus_seed: seed ^ 0xf1f1,
                matcher,
            }),
            ops,
        },
        stats,
    )
}

/// Inject unknown-MAC traffic for the fingerprint gate, post-bootstrap
/// so it reaches the behavioral path instead of the bootstrap buffer:
///
/// - device 200: a genuine (but unregistered) camera — should match;
/// - device 201: a plug-claiming device with camera wire behavior — the
///   spoof path, including the two-window confirmation restart;
/// - device 202: constant-size machine-gun chatter matching no trained
///   class — the explicit no-match;
/// - devices 300..: one-window-short visitors that overflow the tracked
///   LRU cache, exercising open-window eviction and re-tracking.
///
/// Each probe trace's DNS is merged into the capture's table so claimed
/// classes resolve on both sides.
fn inject_fingerprint_traffic(
    packets: &mut Vec<PacketRecord>,
    dns: &mut DnsTable,
    config: &ProxyConfig,
    seed: u64,
    stats: &mut ChaosStats,
) {
    let devices = testbed_devices();
    let start = SimTime::ZERO + config.bootstrap + SimDuration::from_secs(60);

    let mut add = |trace: fiat_net::Trace, cap: usize, stats: &mut ChaosStats| {
        dns.merge(&trace.dns);
        for pkt in trace.packets.iter().take(cap) {
            let mut p = pkt.clone();
            p.ts = SimTime::from_micros(start.as_micros() + pkt.ts.as_micros());
            insert_sorted(packets, p);
            stats.fingerprint_probes += 1;
        }
    };
    // WyzeCam is testbed index 2 (trained class 1), SP10 plug index 3
    // (trained class 2).
    add(class_trace(&devices[2], 200, seed ^ 0xa1), 60, stats);
    add(
        spoofed_trace(
            &devices[3],
            &devices[2],
            201,
            SimDuration::from_secs(7200),
            seed ^ 0xa2,
        ),
        110,
        stats,
    );

    let synth = |ts: SimTime, device: u16, size: u16| PacketRecord {
        ts,
        device,
        direction: Direction::FromDevice,
        local_ip: std::net::Ipv4Addr::new(192, 168, 9, (device % 250) as u8),
        remote_ip: std::net::Ipv4Addr::new(198, 51, 100, 7),
        local_port: 40_000,
        remote_port: 443,
        transport: Transport::Tcp,
        tcp_flags: TcpFlags::psh_ack(),
        tls: TlsVersion::Tls13,
        size,
        label: TrafficClass::Control,
    };
    for i in 0..40u64 {
        let ts = SimTime::from_micros(start.as_micros() + 10_000_000 + i * 123_000);
        insert_sorted(packets, synth(ts, 202, 999));
        stats.fingerprint_probes += 1;
    }
    for id in 0..60u64 {
        for j in 0..2u64 {
            let ts = SimTime::from_micros(start.as_micros() + id * 977_000 + j * 500_000);
            insert_sorted(packets, synth(ts, 300 + id as u16, 100 + (id % 7) as u16));
            stats.fingerprint_probes += 1;
        }
    }
}

/// Apply the timestamp-chaos mutations in place.
fn mutate_packets(
    packets: &mut Vec<PacketRecord>,
    rng: &mut StdRng,
    config: &ProxyConfig,
    stats: &mut ChaosStats,
) {
    let n = packets.len();
    if n < 32 {
        return;
    }

    // Adjacent swaps: one-step reordering across the whole capture.
    for _ in 0..n / 40 {
        let i = rng.gen_range(0..n - 1);
        packets.swap(i, i + 1);
        stats.swaps += 1;
    }

    // Long-range backwards moves: a late packet delivered early (its
    // timestamp still reads "future" relative to its neighbours).
    for _ in 0..n / 120 {
        let j = rng.gen_range(8..packets.len());
        let k = j - rng.gen_range(2..8);
        let p = packets.remove(j);
        packets.insert(k, p);
        stats.moves += 1;
    }

    // Duplicates: the same packet observed twice, possibly far apart.
    for _ in 0..n / 150 {
        let i = rng.gen_range(0..packets.len());
        let p = packets[i].clone();
        let at = rng.gen_range(i..=packets.len().min(i + 200));
        packets.insert(at.min(packets.len()), p);
        stats.dups += 1;
    }

    // Segment clock skew: a contiguous run shifted up to ±2 s, leaving
    // its packets out of order relative to both neighbours.
    for _ in 0..6 {
        let a = rng.gen_range(0..packets.len());
        let len = rng.gen_range(5..60).min(packets.len() - a);
        let delta = rng.gen_range(-2_000_000i64..=2_000_000);
        for p in &mut packets[a..a + len] {
            let us = (p.ts.as_micros() as i64 + delta).max(0);
            p.ts = SimTime::from_micros(us as u64);
            stats.skewed += 1;
        }
    }

    // Boundary-exact probes. Event gap: a cloned packet exactly at, and
    // 1 µs inside, the gap after its template — the strict `>= gap`
    // closure edge. Bootstrap: clones straddling `start + bootstrap` by
    // exactly 0 and 1 µs — the strict `< bootstrap` learning edge.
    for _ in 0..8 {
        let i = rng.gen_range(0..packets.len());
        let mut at_gap = packets[i].clone();
        at_gap.ts = packets[i].ts + config.event_gap;
        let mut inside_gap = packets[i].clone();
        inside_gap.ts = packets[i].ts + (config.event_gap - SimDuration::from_micros(1));
        let pos = (i + 1).min(packets.len());
        packets.insert(pos, at_gap);
        packets.insert(pos, inside_gap);
        stats.boundary_probes += 2;
    }
    let boot = SimTime::ZERO + config.bootstrap;
    for (k, probe_ts) in [
        (0usize, boot),
        (1, SimTime::from_micros(boot.as_micros() - 1)),
    ] {
        let template = packets[k * 7 % packets.len()].clone();
        let mut p = template;
        p.ts = probe_ts;
        let pos = packets
            .iter()
            .position(|q| q.ts >= probe_ts)
            .unwrap_or(packets.len());
        packets.insert(pos, p);
        stats.boundary_probes += 1;
    }
}

/// Inject cascade probes: a proof-covered 5-packet manual burst on a
/// trigger device (authorizing it in the interaction graph), then a
/// single manual-size packet on its target 40 s later — after the 30 s
/// humanness window has expired but inside the cascade window, so only
/// the cascade branch can allow it. Returns the proof times the op
/// builder must emit unconditionally.
fn inject_cascade_probes(
    packets: &mut Vec<PacketRecord>,
    devices: &[(u16, u16, usize)],
    rng: &mut StdRng,
    config: &ProxyConfig,
) -> Vec<SimTime> {
    let mut proofs = Vec::new();
    if packets.len() < 64 {
        return proofs;
    }
    // Mirrors the scenario's DAG below: 0 → 3 and 4 → 9.
    for &(trigger, target) in &[(0u16, 3u16), (4, 9)] {
        let (Some(&(_, tr_size, _)), Some(&(_, tg_size, _))) = (
            devices.iter().find(|d| d.0 == trigger),
            devices.iter().find(|d| d.0 == target),
        ) else {
            continue;
        };
        let (Some(tr_tpl), Some(tg_tpl)) = (
            packets.iter().find(|p| p.device == trigger).cloned(),
            packets.iter().find(|p| p.device == target).cloned(),
        ) else {
            continue;
        };
        let anchor = packets[rng.gen_range(packets.len() / 2..packets.len())].ts;
        let t0 = anchor + config.event_gap * 4;
        proofs.push(SimTime::from_micros(
            t0.as_micros().saturating_sub(1_000_000),
        ));
        for k in 0..5u64 {
            let mut p = tr_tpl.clone();
            p.size = tr_size;
            p.ts = t0 + SimDuration::from_micros(k * 200_000);
            insert_sorted(packets, p);
        }
        let mut p = tg_tpl.clone();
        p.size = tg_size;
        p.ts = t0 + SimDuration::from_secs(40);
        insert_sorted(packets, p);
    }
    proofs
}

/// Inject quarantine probes: manual bursts long enough to reach their
/// classification point in quiet time (so they classify unproven and the
/// proxy must *hold* them), one followed by a humanness proof 1 s after
/// the burst — inside the 3 s deadline, so the record must release —
/// and one left alone, so the next packet or flush past the deadline
/// must expire it. Returns the proof times the op builder emits
/// unconditionally.
fn inject_quarantine_probes(
    packets: &mut Vec<PacketRecord>,
    devices: &[(u16, u16, usize)],
    rng: &mut StdRng,
    config: &ProxyConfig,
    stats: &mut ChaosStats,
) -> Vec<SimTime> {
    let mut proofs = Vec::new();
    if config.proof_deadline.is_none() || packets.len() < 64 {
        return proofs;
    }
    let candidates: Vec<(u16, u16, usize)> = devices
        .iter()
        .filter(|&&(_, size, n)| size > 0 && n.min(config.classify_at_cap) >= 2)
        .copied()
        .collect();
    for (k, release) in [(0usize, true), (1, false)] {
        let Some(&(id, size, n)) = candidates.get(k * 2 % candidates.len().max(1)) else {
            continue;
        };
        let Some(tpl) = packets.iter().find(|p| p.device == id).cloned() else {
            continue;
        };
        let anchor = packets[rng.gen_range(packets.len() / 3..packets.len())].ts;
        let t0 = anchor + config.event_gap * 5;
        let burst = n.min(config.classify_at_cap).max(1) as u64 + 2;
        for j in 0..burst {
            let mut p = tpl.clone();
            p.size = size;
            p.ts = t0 + SimDuration::from_micros(j * 150_000);
            insert_sorted(packets, p);
            stats.quarantine_probes += 1;
        }
        if release {
            let last = t0 + SimDuration::from_micros((burst - 1) * 150_000);
            proofs.push(last + SimDuration::from_secs(1));
        }
    }
    proofs
}

fn insert_sorted(packets: &mut Vec<PacketRecord>, p: PacketRecord) {
    let pos = packets
        .iter()
        .position(|q| q.ts >= p.ts)
        .unwrap_or(packets.len());
    packets.insert(pos, p);
}

/// Inject short unverified-manual fragments: pairs of manual-size
/// packets 150 ms apart for devices whose first-N window is at least 3,
/// parked in quiet time 3 event gaps after a random anchor. The pair
/// closes below its classification point, so its verdict must come from
/// the retrospective path (and, unproven, count toward the lockout) —
/// the fragment-and-pause evasion the retro path exists to defeat.
fn inject_manual_fragments(
    packets: &mut Vec<PacketRecord>,
    devices: &[(u16, u16, usize)],
    rng: &mut StdRng,
    config: &ProxyConfig,
    stats: &mut ChaosStats,
) {
    let frag_devices: Vec<(u16, u16)> = devices
        .iter()
        .filter(|&&(_, _, n)| n.min(config.classify_at_cap) >= 3)
        .map(|&(id, size, _)| (id, size))
        .collect();
    if frag_devices.is_empty() || packets.len() < 64 {
        return;
    }
    for _ in 0..8 {
        let (id, size) = frag_devices[rng.gen_range(0..frag_devices.len())];
        let Some(template) = packets.iter().find(|p| p.device == id).cloned() else {
            continue;
        };
        let anchor = packets[rng.gen_range(packets.len() / 2..packets.len())].ts;
        for dt in [0u64, 150_000] {
            let mut frag = template.clone();
            frag.size = size;
            frag.ts = anchor + config.event_gap * 3 + SimDuration::from_micros(dt);
            let pos = packets
                .iter()
                .position(|q| q.ts >= frag.ts)
                .unwrap_or(packets.len());
            packets.insert(pos, frag);
            stats.boundary_probes += 1;
        }
    }
}

/// Greedily shrink a divergent scenario by chunk removal: drop halves,
/// then quarters, … then single ops, keeping any removal that still
/// diverges under `real_config` on the real side (pass `&sc.config` for
/// the oracle proper). `budget` bounds the number of replays.
pub fn shrink(sc: &Scenario, real_config: &ProxyConfig, budget: usize) -> Scenario {
    let mut ops = sc.ops.clone();
    let mut replays = 0usize;
    let mut chunk = (ops.len() / 2).max(1);
    loop {
        let mut i = 0;
        while i + chunk <= ops.len() && replays < budget {
            let mut candidate = ops.clone();
            candidate.drain(i..i + chunk);
            let trial = Scenario {
                ops: candidate.clone(),
                ..sc.clone()
            };
            replays += 1;
            if run_scenario_with_real_config(&trial, real_config).is_some() {
                ops = candidate;
            } else {
                i += chunk;
            }
        }
        if chunk == 1 || replays >= budget {
            break;
        }
        chunk = (chunk / 2).max(1);
    }
    Scenario { ops, ..sc.clone() }
}

/// One confirmed divergence, shrunk and rendered for the report (and
/// for the DESIGN.md known-divergence ledger, should it ever be
/// deliberate).
#[derive(Debug, Clone)]
pub struct DivergenceReport {
    /// Seed of the scenario that exposed it.
    pub scenario_seed: u64,
    /// Op index within the *shrunk* scenario.
    pub op_index: usize,
    /// Stable kind label (`decision` / `stats` / `audit`).
    pub kind: &'static str,
    /// Human-readable description of the disagreement.
    pub detail: String,
    /// Op count of the original scenario.
    pub original_ops: usize,
    /// Op count after shrinking.
    pub shrunk_ops: usize,
}

/// Aggregate result of a differential run.
#[derive(Debug, Clone)]
pub struct OracleReport {
    /// Master seed.
    pub seed: u64,
    /// Scenarios executed.
    pub scenarios: usize,
    /// Total packet ops driven through both proxies.
    pub packets: u64,
    /// Total ops of any kind.
    pub ops: u64,
    /// Chaos applied across all scenarios.
    pub chaos: ChaosStats,
    /// Divergences found (empty = the implementations agree).
    pub divergences: Vec<DivergenceReport>,
}

impl OracleReport {
    /// Whether the run found no divergence.
    pub fn passed(&self) -> bool {
        self.divergences.is_empty()
    }
}

/// Run the differential oracle: seeded scenarios over the 10-device
/// matrix until at least `target_packets` packet ops have been driven
/// through both implementations. Every divergence is shrunk (bounded
/// replays) and reported; the run continues to the next scenario so one
/// bug does not mask another.
pub fn run_differential(seed: u64, quick: bool, target_packets: u64) -> OracleReport {
    let mut report = OracleReport {
        seed,
        scenarios: 0,
        packets: 0,
        ops: 0,
        chaos: ChaosStats::default(),
        divergences: Vec::new(),
    };
    let mut si = 0u64;
    while report.packets < target_packets {
        let scenario_seed = seed
            .wrapping_mul(1_000_003)
            .wrapping_add(si.wrapping_shl(32));
        let (sc, chaos) = build_scenario(scenario_seed, quick);
        report.scenarios += 1;
        report.packets += sc.packet_count() as u64;
        report.ops += sc.ops.len() as u64;
        report.chaos += chaos;
        if run_scenario(&sc).is_some() {
            let shrunk = shrink(&sc, &sc.config, 160);
            let d = run_scenario(&shrunk).expect("shrink preserves divergence");
            report.divergences.push(DivergenceReport {
                scenario_seed,
                op_index: d.op_index,
                kind: d.kind.label(),
                detail: d.to_string(),
                original_ops: sc.ops.len(),
                shrunk_ops: shrunk.ops.len(),
            });
        }
        si += 1;
    }
    report
}

/// Render a report as the `experiments oracle` text artifact.
pub fn render_report(report: &OracleReport) -> String {
    let mut out = String::new();
    writeln!(out, "# Differential decision oracle").unwrap();
    writeln!(
        out,
        "seed: {}  scenarios: {}  packets: {}  ops: {}",
        report.seed, report.scenarios, report.packets, report.ops
    )
    .unwrap();
    let c = &report.chaos;
    writeln!(
        out,
        "chaos: {} swaps, {} moves, {} dups, {} skewed, {} boundary probes, {} quarantine probes, {} fingerprint probes",
        c.swaps,
        c.moves,
        c.dups,
        c.skewed,
        c.boundary_probes,
        c.quarantine_probes,
        c.fingerprint_probes
    )
    .unwrap();
    writeln!(
        out,
        "interleaved: {} humanness proofs, {} flushes, {} lockout clears",
        c.verify_ops, c.flush_ops, c.clear_ops
    )
    .unwrap();
    writeln!(out).unwrap();
    if report.divergences.is_empty() {
        writeln!(
            out,
            "no divergence: the naive reference and the real proxy agree on every \
             decision, counter, and audit entry"
        )
        .unwrap();
        writeln!(out, "(known-divergence ledger in DESIGN.md: empty)").unwrap();
    } else {
        for d in &report.divergences {
            writeln!(
                out,
                "DIVERGENCE seed={} op={} ({} ops, shrunk from {}):\n  {}",
                d.scenario_seed, d.op_index, d.shrunk_ops, d.original_ops, d.detail
            )
            .unwrap();
        }
        writeln!(
            out,
            "\nEvery divergence above must be fixed in fiat-core or recorded in \
             DESIGN.md's known-divergence ledger."
        )
        .unwrap();
    }
    writeln!(
        out,
        "\nverdict: {}",
        if report.passed() {
            "PASS"
        } else {
            "DIVERGENCE"
        }
    )
    .unwrap();
    out
}
