//! Attacker strategies: each targets one defense layer of the decision
//! path.
//!
//! A strategy is a pure planner: given the [`Recon`] an on-LAN attacker
//! can legitimately gather (the target's LAN/relay addresses, its command
//! packet size, the pacing of its keep-alive flows — all visible to a
//! passive sniffer) plus a seeded RNG, it emits a deterministic list of
//! [`AttackAction`]s. The harness interleaves those with benign
//! background traffic and drives the proxy; strategies never touch the
//! proxy directly, so they cannot cheat.

use fiat_core::ProxyConfig;
use fiat_net::{
    Direction, PacketRecord, SimDuration, SimTime, TcpFlags, TlsVersion, TrafficClass, Transport,
};
use rand::rngs::StdRng;
use rand::Rng;
use std::net::Ipv4Addr;

/// Source port the attacker's injected packets use. PortLess bucketing
/// ignores ports, so this leaks nothing to the rule matcher; it only
/// keeps injected packets recognizable in debug dumps.
pub const ATTACKER_PORT: u16 = 55_555;

/// What a passive on-LAN attacker knows about the target before striking.
#[derive(Debug, Clone)]
pub struct Recon {
    /// Target device index.
    pub device: u16,
    /// Target device name (Table 1).
    pub device_name: String,
    /// The device's LAN address (ARP-visible).
    pub lan_ip: Ipv4Addr,
    /// The cloud relay endpoint commands ride (sniffed from past events).
    pub relay_ip: Ipv4Addr,
    /// The device's distinctive command packet size.
    pub command_size: u16,
    /// Packets the device needs to execute a command (§3.3's N).
    pub min_packets: usize,
    /// The proxy's first-N classify point for this device.
    pub classify_at: usize,
    /// Size of an observed periodic keep-alive flow.
    pub rule_size: u16,
    /// Remote endpoint of that keep-alive flow.
    pub rule_ip: Ipv4Addr,
    /// Direction of that keep-alive flow.
    pub rule_direction: Direction,
    /// Transport of that keep-alive flow.
    pub rule_transport: Transport,
    /// TLS version of that keep-alive flow.
    pub rule_tls: TlsVersion,
    /// When the proxy started bootstrapping.
    pub bootstrap_start: SimTime,
    /// When rule learning closes.
    pub bootstrap_end: SimTime,
    /// When the attack window opens (after the legitimate command).
    pub attack_start: SimTime,
    /// End of the simulated run.
    pub attack_end: SimTime,
    /// The proxy's event grouping gap.
    pub event_gap: SimDuration,
    /// Unverified-manual events tolerated before lockout.
    pub lockout_threshold: u32,
    /// The lockout counting window.
    pub lockout_window: SimDuration,
}

impl Recon {
    /// A command-shaped packet toward the device at `ts` (what the real
    /// app's traffic looks like on the wire).
    pub fn command_packet(&self, ts: SimTime) -> PacketRecord {
        PacketRecord {
            ts,
            device: self.device,
            direction: Direction::ToDevice,
            local_ip: self.lan_ip,
            remote_ip: self.relay_ip,
            local_port: ATTACKER_PORT,
            remote_port: 443,
            transport: Transport::Tcp,
            tcp_flags: TcpFlags::psh_ack(),
            tls: TlsVersion::Tls12,
            size: self.command_size,
            label: TrafficClass::Manual,
        }
    }

    /// A packet shaped exactly like the observed keep-alive flow at `ts`
    /// (same PortLess bucket: remote, proto, size, direction).
    pub fn rule_shaped_packet(&self, ts: SimTime) -> PacketRecord {
        PacketRecord {
            ts,
            device: self.device,
            direction: self.rule_direction,
            local_ip: self.lan_ip,
            remote_ip: self.rule_ip,
            local_port: ATTACKER_PORT,
            remote_port: 443,
            transport: self.rule_transport,
            tcp_flags: if self.rule_transport == Transport::Tcp {
                TcpFlags::psh_ack()
            } else {
                TcpFlags::default()
            },
            tls: self.rule_tls,
            size: self.rule_size,
            label: TrafficClass::Control,
        }
    }
}

/// One step of an attack plan.
#[derive(Debug, Clone)]
pub enum AttackAction {
    /// Put a crafted packet on the wire (the proxy decides it like
    /// everything else).
    Inject(PacketRecord),
    /// Re-send the sniffed 0-RTT authorization packet at `at` (§5.3's
    /// replay attack — the harness holds the captured ciphertext).
    ReplayAuth {
        /// When to replay.
        at: SimTime,
    },
    /// The victim clears the device lockout at `at` (models the §5.4
    /// user verification; lets strategies probe the post-clear window).
    ClearLockout {
        /// When the victim clears.
        at: SimTime,
    },
    /// After the run, tamper with the exported audit log (rewrite one
    /// incriminating entry) and see whether verification catches it.
    TamperAudit,
    /// The control plane's key lifecycle rotates the ticket epoch at `at`
    /// and retires every older epoch. Not an attacker capability — the
    /// strategy models *waiting through* scheduled rotations so a sniffed
    /// ticket goes stale.
    RotateEpochs {
        /// When the scheduled rotation fires.
        at: SimTime,
    },
    /// Replay a second sniffed 0-RTT authorization whose original the
    /// on-path attacker dropped before it reached the proxy — its
    /// (ticket, nonce) pair is fresh in the replay store, so only the
    /// epoch lifecycle stands between the capture and an open humanness
    /// window.
    ReplayStaleAuth {
        /// When to replay the withheld capture.
        at: SimTime,
    },
}

/// An attacker strategy: a named, seeded plan against one defense layer.
pub trait AttackStrategy {
    /// Stable identifier (metric label, scorecard row).
    fn name(&self) -> &'static str;
    /// The defense layer this strategy probes (scorecard annotation).
    fn defense(&self) -> &'static str;
    /// The proxy configuration the run should use. Defaults to the
    /// production configuration untouched; strategies probing an opt-in
    /// feature (e.g. the pending-verdict quarantine) override this to
    /// switch it on — the harness builds the proxy from this, so the
    /// scorecard covers the feature's attack surface too.
    fn config(&self, base: ProxyConfig) -> ProxyConfig {
        base
    }
    /// Produce the full action plan for one run.
    fn plan(&self, recon: &Recon, rng: &mut StdRng) -> Vec<AttackAction>;
}

/// Micro-jittered inter-packet spacing for command bursts (human-ish
/// microsecond timing, like the real app's traffic).
fn burst_iat(rng: &mut StdRng) -> SimDuration {
    SimDuration::from_micros(rng.gen_range(80_000..120_000))
}

/// §5.3 replay: re-send a sniffed 0-RTT authorization, then fire the
/// command as if the human window were open. Defeated by the
/// (ticket, nonce) anti-replay store: the auth is rejected, no humanness
/// window opens, and the command drops as unverified manual.
pub struct ReplayAttack;

impl AttackStrategy for ReplayAttack {
    fn name(&self) -> &'static str {
        "replay"
    }
    fn defense(&self) -> &'static str {
        "0-RTT anti-replay store (fiat-quic)"
    }
    fn plan(&self, recon: &Recon, rng: &mut StdRng) -> Vec<AttackAction> {
        let mut actions = vec![AttackAction::ReplayAuth {
            at: recon.attack_start,
        }];
        let mut t = recon.attack_start + SimDuration::from_millis(50);
        for _ in 0..recon.min_packets.max(1) {
            actions.push(AttackAction::Inject(recon.command_packet(t)));
            t += burst_iat(rng);
        }
        actions
    }
}

/// §5.3 replay, key-lifecycle variant: the attacker intercepts and
/// *drops* a 0-RTT authorization on-path (so its nonce is never burned
/// at the proxy), then sits on the capture while the control plane's
/// scheduled key lifecycle rotates the ticket epoch and retires the old
/// one; only then replays it and fires the command. The nonce-keyed
/// anti-replay store alone cannot stop this — the pair is fresh.
/// Defeated by epoch retirement: the ticket's epoch is no longer live,
/// the proxy answers `RetiredEpoch` before consulting the replay store,
/// no humanness window opens, and the command drops as unverified
/// manual.
pub struct StaleEpochReplay;

impl AttackStrategy for StaleEpochReplay {
    fn name(&self) -> &'static str {
        "stale-epoch-replay"
    }
    fn defense(&self) -> &'static str {
        "ticket-epoch retirement (fiat-control key lifecycle)"
    }
    fn plan(&self, recon: &Recon, rng: &mut StdRng) -> Vec<AttackAction> {
        let mut actions = vec![
            AttackAction::RotateEpochs {
                at: recon.attack_start,
            },
            AttackAction::ReplayStaleAuth {
                at: recon.attack_start + SimDuration::from_secs(1),
            },
        ];
        let mut t = recon.attack_start + SimDuration::from_millis(1050);
        for _ in 0..recon.min_packets.max(1) {
            actions.push(AttackAction::Inject(recon.command_packet(t)));
            t += burst_iat(rng);
        }
        actions
    }
}

/// Bucket mimicry: shape packets to the PortLess bucket of a learned
/// keep-alive rule (remote, proto, size, direction) and send them at line
/// rate. Learned rules are unthrottled, so this *delivers* — a documented
/// residual risk: an on-LAN spoofing attacker can ride any minted bucket.
pub struct BucketMimicry;

impl AttackStrategy for BucketMimicry {
    fn name(&self) -> &'static str {
        "mimicry"
    }
    fn defense(&self) -> &'static str {
        "PortLess allow rules (residual risk: unthrottled)"
    }
    fn plan(&self, recon: &Recon, rng: &mut StdRng) -> Vec<AttackAction> {
        let mut actions = Vec::new();
        let mut t = recon.attack_start + SimDuration::from_millis(20);
        for _ in 0..recon.min_packets.max(2) {
            actions.push(AttackAction::Inject(recon.rule_shaped_packet(t)));
            t += burst_iat(rng);
        }
        actions
    }
}

/// Rule poisoning, slow variant: during bootstrap, inject a spoofed
/// periodic command-shaped flow (period ≥ the rule floor) so the proxy
/// mints an allow rule for the device's own command bucket; then fire the
/// command through it. Succeeds — the documented bootstrap trust
/// assumption (§5.2): rules minted from a poisoned bootstrap are honored.
pub struct RulePoisonSlow;

/// Poisoning cadence for the slow variant (well above the rule floor).
const POISON_SLOW_PERIOD: SimDuration = SimDuration::from_secs(20);

impl AttackStrategy for RulePoisonSlow {
    fn name(&self) -> &'static str {
        "poison-slow"
    }
    fn defense(&self) -> &'static str {
        "bootstrap rule minting (residual risk: poisoned bootstrap)"
    }
    fn plan(&self, recon: &Recon, rng: &mut StdRng) -> Vec<AttackAction> {
        let mut actions = Vec::new();
        let mut t = recon.bootstrap_start + SimDuration::from_secs(15);
        while t + SimDuration::from_secs(5) < recon.bootstrap_end {
            actions.push(AttackAction::Inject(recon.command_packet(t)));
            t += POISON_SLOW_PERIOD;
        }
        let mut t = recon.attack_start + SimDuration::from_millis(20);
        for _ in 0..recon.min_packets.max(1) {
            actions.push(AttackAction::Inject(recon.command_packet(t)));
            t += burst_iat(rng);
        }
        actions
    }
}

/// Rule poisoning, fast variant: same play, but the poison flow repeats
/// sub-second. Defeated by the `MIN_RULE_INTERVAL` floor — buckets whose
/// repeating interval is under one second never become rules, so the
/// exploitation burst hits the manual path and drops.
pub struct RulePoisonFast;

impl AttackStrategy for RulePoisonFast {
    fn name(&self) -> &'static str {
        "poison-fast"
    }
    fn defense(&self) -> &'static str {
        "MIN_RULE_INTERVAL floor on minted rules"
    }
    fn plan(&self, recon: &Recon, rng: &mut StdRng) -> Vec<AttackAction> {
        let mut actions = Vec::new();
        let mut t = recon.bootstrap_start + SimDuration::from_secs(15);
        let poison_end = t + SimDuration::from_secs(90);
        while t < poison_end {
            actions.push(AttackAction::Inject(recon.command_packet(t)));
            t += SimDuration::from_millis(500);
        }
        let mut t = recon.attack_start + SimDuration::from_millis(20);
        for _ in 0..recon.min_packets.max(1) {
            actions.push(AttackAction::Inject(recon.command_packet(t)));
            t += burst_iat(rng);
        }
        actions
    }
}

/// Lockout probing: single command attempts paced at the brute-force
/// tolerance (never locking), then a burst past it, then an immediate
/// retry after the victim clears the lockout. Every attempt drops as
/// unverified manual; the bursts land the device in lockout twice.
pub struct LockoutProbe;

impl AttackStrategy for LockoutProbe {
    fn name(&self) -> &'static str {
        "lockout-probe"
    }
    fn defense(&self) -> &'static str {
        "unverified-manual drop + brute-force lockout"
    }
    fn plan(&self, recon: &Recon, _rng: &mut StdRng) -> Vec<AttackAction> {
        let mut actions = Vec::new();
        // Phase A: exactly `lockout_threshold` probes inside one window —
        // at the tolerance, never over it.
        for k in 0..recon.lockout_threshold as u64 {
            let at = recon.attack_start + SimDuration::from_secs(25 * k);
            actions.push(AttackAction::Inject(recon.command_packet(at)));
        }
        // Phase B: a burst past the tolerance (threshold + 2 probes,
        // each its own event).
        for k in 0..(recon.lockout_threshold as u64 + 2) {
            let at = recon.attack_start + SimDuration::from_secs(90 + 6 * k);
            actions.push(AttackAction::Inject(recon.command_packet(at)));
        }
        // Phase C: the victim clears the lockout; the attacker retries
        // immediately — the post-clear window must re-lock.
        actions.push(AttackAction::ClearLockout {
            at: recon.attack_start + SimDuration::from_secs(150),
        });
        for k in 0..(recon.lockout_threshold as u64 + 2) {
            let at = recon.attack_start + SimDuration::from_secs(160 + 6 * k);
            actions.push(AttackAction::Inject(recon.command_packet(at)));
        }
        actions
    }
}

/// Gap evasion: split the command into fragments shorter than the
/// classify point, separated by silences longer than the event gap, so no
/// fragment is ever classified inline. Defeated by retrospective
/// classification: each closing fragment is audited and counted toward
/// the lockout, and fragments can never assemble a contiguous
/// command-completing run.
pub struct GapEvasion;

impl AttackStrategy for GapEvasion {
    fn name(&self) -> &'static str {
        "gap-evasion"
    }
    fn defense(&self) -> &'static str {
        "retrospective event classification + lockout"
    }
    fn plan(&self, recon: &Recon, rng: &mut StdRng) -> Vec<AttackAction> {
        let frag_len = recon.classify_at.saturating_sub(1).max(1);
        let n_frags = recon.min_packets.div_ceil(frag_len).clamp(6, 12);
        let frag_spacing = recon.event_gap + SimDuration::from_secs(1);
        let mut actions = Vec::new();
        for f in 0..n_frags as u64 {
            let mut t = recon.attack_start + frag_spacing * f;
            for _ in 0..frag_len {
                actions.push(AttackAction::Inject(recon.command_packet(t)));
                t += SimDuration::from_micros(rng.gen_range(40_000..60_000));
            }
        }
        actions
    }
}

/// Audit tampering: issue a couple of doomed command attempts (leaving
/// incriminating drop records), then rewrite one of them to an allow in
/// the exported log. Caught by the hash chain: `verify_chain` fails on
/// the tampered export.
pub struct AuditTamper;

impl AttackStrategy for AuditTamper {
    fn name(&self) -> &'static str {
        "audit-tamper"
    }
    fn defense(&self) -> &'static str {
        "hash-chained audit log (verify_chain)"
    }
    fn plan(&self, recon: &Recon, _rng: &mut StdRng) -> Vec<AttackAction> {
        vec![
            AttackAction::Inject(recon.command_packet(recon.attack_start)),
            AttackAction::Inject(
                recon.command_packet(recon.attack_start + SimDuration::from_secs(10)),
            ),
            AttackAction::TamperAudit,
        ]
    }
}

/// Quarantine probing: the run enables the pending-verdict quarantine
/// (10 s proof deadline) and checks the degradation path opens no new
/// hole. Full command bursts reach their classification point unproven,
/// so they are *held* — never delivered — and expire into lockout
/// credit; sub-classify-point fragments must still hit the retrospective
/// path exactly as hard as without quarantine. Blocked, or the
/// quarantine made gap evasion easier.
pub struct QuarantineProbe;

/// Proof deadline the quarantine probe runs under.
const PROBE_PROOF_DEADLINE: SimDuration = SimDuration::from_secs(10);

impl AttackStrategy for QuarantineProbe {
    fn name(&self) -> &'static str {
        "quarantine-probe"
    }
    fn defense(&self) -> &'static str {
        "pending-verdict quarantine (hold, expiry, lockout credit)"
    }
    fn config(&self, base: ProxyConfig) -> ProxyConfig {
        ProxyConfig {
            proof_deadline: Some(PROBE_PROOF_DEADLINE),
            ..base
        }
    }
    fn plan(&self, recon: &Recon, rng: &mut StdRng) -> Vec<AttackAction> {
        let mut actions = Vec::new();
        // Phase A: gap-evasion fragments, same shape as [`GapEvasion`] —
        // quarantine must not blunt the retrospective path.
        let frag_len = recon.classify_at.saturating_sub(1).max(1);
        let frag_spacing = recon.event_gap + SimDuration::from_secs(1);
        for f in 0..4u64 {
            let mut t = recon.attack_start + frag_spacing * f;
            for _ in 0..frag_len {
                actions.push(AttackAction::Inject(recon.command_packet(t)));
                t += SimDuration::from_micros(rng.gen_range(40_000..60_000));
            }
        }
        // Phase B: full command bursts that reach classification and are
        // held, paced past the proof deadline so each new burst first
        // expires the previous record (feeding the lockout window) and
        // then re-quarantines.
        let burst_len = recon.min_packets.max(recon.classify_at).max(1);
        let mut t0 = recon.attack_start + frag_spacing * 5;
        for _ in 0..3 {
            let mut t = t0;
            for _ in 0..burst_len {
                actions.push(AttackAction::Inject(recon.command_packet(t)));
                t += burst_iat(rng);
            }
            t0 = t0 + PROBE_PROOF_DEADLINE + SimDuration::from_secs(5);
        }
        actions
    }
}

/// Device id the spoofing attacker's unknown MAC maps to (any id the
/// testbed does not register).
pub const SPOOFED_DEVICE: u16 = 999;

/// Device spoofing: a rogue device joins the LAN under an *unregistered*
/// MAC, points its traffic at the target's cloud relay (the address-level
/// half of an impersonation — everything a MAC/DNS spoofer controls), and
/// pumps command traffic at the home. Its wire behavior is its own TLS
/// stack's, not the claimed device class's, which it cannot fake.
///
/// With `gate: false` this is the negative control for the legacy
/// unknown-MAC fail-open: every packet rides `AllowReason::UnknownDevice`
/// and the command completes (`allowed`). With `gate: true` the run
/// enables `ProxyConfig::fingerprint_unknown`: the behavioral gate
/// accumulates its bounded evidence window and quarantines the device —
/// `blocked` outright, or `detected` on an N=1 target whose single
/// command slipped through the provisional window before the verdict
/// sealed (the audit carries the quarantine/spoof entry either way).
pub struct DeviceSpoofing {
    /// Whether the run switches the fingerprint gate on.
    pub gate: bool,
}

impl AttackStrategy for DeviceSpoofing {
    fn name(&self) -> &'static str {
        "device-spoofing"
    }
    fn defense(&self) -> &'static str {
        "behavioral fingerprint gate (unknown-MAC quarantine)"
    }
    fn config(&self, base: ProxyConfig) -> ProxyConfig {
        ProxyConfig {
            fingerprint_unknown: self.gate,
            ..base
        }
    }
    fn plan(&self, recon: &Recon, rng: &mut StdRng) -> Vec<AttackAction> {
        // Two sustained pushes: the first outlives any plausible
        // evidence window (so the verdict seals mid-stream), the second
        // starts a minute later and must land on the *cached* sealed
        // verdict. Sizes are the attacker stack's own (~1 KiB frames),
        // not the device class's distinctive command size.
        let mut actions = Vec::new();
        let mut push = |start: SimTime, count: usize, rng: &mut StdRng| {
            let mut t = start;
            for i in 0..count {
                let mut p = recon.command_packet(t);
                p.device = SPOOFED_DEVICE;
                p.local_ip = Ipv4Addr::new(192, 168, 1, 199);
                p.size = if i % 2 == 0 { 999 } else { 1001 };
                actions.push(AttackAction::Inject(p));
                t += SimDuration::from_micros(rng.gen_range(120_000..180_000));
            }
        };
        push(recon.attack_start, 60, rng);
        push(recon.attack_start + SimDuration::from_secs(60), 20, rng);
        actions
    }
}

/// The standard red-team panel, in scorecard order.
pub fn standard_strategies() -> Vec<Box<dyn AttackStrategy>> {
    vec![
        Box::new(ReplayAttack),
        Box::new(StaleEpochReplay),
        Box::new(BucketMimicry),
        Box::new(RulePoisonSlow),
        Box::new(RulePoisonFast),
        Box::new(LockoutProbe),
        Box::new(GapEvasion),
        Box::new(AuditTamper),
        Box::new(QuarantineProbe),
        Box::new(DeviceSpoofing { gate: true }),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn recon() -> Recon {
        Recon {
            device: 3,
            device_name: "SP10".to_string(),
            lan_ip: Ipv4Addr::new(192, 168, 1, 13),
            relay_ip: Ipv4Addr::new(34, 0, 0, 190),
            command_size: 267,
            min_packets: 1,
            classify_at: 1,
            rule_size: 60,
            rule_ip: Ipv4Addr::new(34, 0, 0, 150),
            rule_direction: Direction::FromDevice,
            rule_transport: Transport::Tcp,
            rule_tls: TlsVersion::Tls10,
            bootstrap_start: SimTime::ZERO,
            bootstrap_end: SimTime::from_secs(1200),
            attack_start: SimTime::from_secs(1380),
            attack_end: SimTime::from_secs(1800),
            event_gap: SimDuration::from_secs(5),
            lockout_threshold: 3,
            lockout_window: SimDuration::from_secs(60),
        }
    }

    #[test]
    fn plans_are_deterministic_per_seed() {
        for s in standard_strategies() {
            let a = s.plan(&recon(), &mut StdRng::seed_from_u64(7));
            let b = s.plan(&recon(), &mut StdRng::seed_from_u64(7));
            assert_eq!(a.len(), b.len(), "{}", s.name());
            for (x, y) in a.iter().zip(&b) {
                match (x, y) {
                    (AttackAction::Inject(p), AttackAction::Inject(q)) => assert_eq!(p, q),
                    (AttackAction::ReplayAuth { at: p }, AttackAction::ReplayAuth { at: q }) => {
                        assert_eq!(p, q)
                    }
                    (
                        AttackAction::ClearLockout { at: p },
                        AttackAction::ClearLockout { at: q },
                    ) => assert_eq!(p, q),
                    (AttackAction::TamperAudit, AttackAction::TamperAudit) => {}
                    (
                        AttackAction::RotateEpochs { at: p },
                        AttackAction::RotateEpochs { at: q },
                    ) => {
                        assert_eq!(p, q)
                    }
                    (
                        AttackAction::ReplayStaleAuth { at: p },
                        AttackAction::ReplayStaleAuth { at: q },
                    ) => assert_eq!(p, q),
                    _ => panic!("plan shape diverged for {}", s.name()),
                }
            }
        }
    }

    #[test]
    fn poison_slow_stays_inside_bootstrap_and_over_the_floor() {
        let r = recon();
        let plan = RulePoisonSlow.plan(&r, &mut StdRng::seed_from_u64(1));
        let poison: Vec<SimTime> = plan
            .iter()
            .filter_map(|a| match a {
                AttackAction::Inject(p) if p.ts < r.bootstrap_end => Some(p.ts),
                _ => None,
            })
            .collect();
        assert!(poison.len() >= 3, "needs repeats to mint a rule");
        for w in poison.windows(2) {
            assert!(w[1] - w[0] >= SimDuration::from_secs(1));
        }
    }

    #[test]
    fn gap_evasion_fragments_stay_below_classify_point() {
        let mut r = recon();
        r.min_packets = 41;
        r.classify_at = 5;
        let plan = GapEvasion.plan(&r, &mut StdRng::seed_from_u64(3));
        // Group injected packets into fragments by the event gap.
        let mut frag_sizes = Vec::new();
        let mut last: Option<SimTime> = None;
        let mut current = 0usize;
        for a in &plan {
            if let AttackAction::Inject(p) = a {
                if let Some(prev) = last {
                    if p.ts - prev >= r.event_gap {
                        frag_sizes.push(current);
                        current = 0;
                    }
                }
                current += 1;
                last = Some(p.ts);
            }
        }
        frag_sizes.push(current);
        assert!(frag_sizes.len() >= 6);
        for s in frag_sizes {
            assert!(
                s < r.classify_at,
                "fragment of {s} packets would classify inline"
            );
        }
    }
}
