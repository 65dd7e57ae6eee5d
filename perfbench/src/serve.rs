//! The closed loop: provision each home, then replay its inputs through
//! the proxy one call at a time, the next call starting only after the
//! previous one returned. One skeleton serves the untraced and the traced
//! run; a [`Probe`] decides what gets timed.

use crate::workload::{self, Act, Inputs, Kind, Script, Wire, SECRET};
use fiat_control::{enroll_home, restore_home, snapshot_home, EnrollError};
use fiat_core::audit::AuditVerdict;
use fiat_core::{FiatProxy, ProxyDecision, ProxyStats};
use fiat_fingerprint::{FingerprintEngine, MatcherConfig, SignatureSet};
use fiat_net::PacketRecord;
use fiat_telemetry::MetricRegistry;
use std::time::{Duration, Instant};

/// Calls a probe may time besides `on_packet`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// `SignatureSet::learn` (set-up, `proof_storm`).
    Learn,
    /// A home's `MetricRegistry` and `ProxyTelemetry` (set-up).
    RegistryNew,
    /// `enroll_home` plus installing the fingerprint gate (set-up).
    Enroll,
    /// One proof delivery (`on_auth_zero_rtt`/`on_auth_one_rtt`).
    Auth,
    /// `snapshot_home`.
    Snapshot,
    /// `restore_home` plus re-installing the fingerprint gate.
    Restore,
    /// End-of-capture `flush`.
    Flush,
    /// Folding a home's registries into the round's.
    Merge,
    /// `AuditLog::verify` (a check, outside the serving phase).
    AuditVerify,
}

pub const CALLS: usize = 9;

pub trait Probe {
    /// Decide packet `index` of the home's capture.
    fn packet(&mut self, proxy: &mut FiatProxy, index: u32, pkt: &PacketRecord) -> ProxyDecision;

    /// Run one other call.
    fn call<R>(&mut self, call: Call, f: impl FnOnce() -> R) -> R;

    /// A home finished; `report` is final. Per-home replays hook in here.
    fn home_done(
        &mut self,
        _inputs: &Inputs,
        _home: usize,
        _sigs: Option<&SignatureSet>,
        _report: &HomeReport,
        _ctx: &mut Ctx,
    ) {
    }
}

/// `on_packet` calls are timed one in this many, by packet index within
/// a round.
pub const SAMPLE_EVERY: u64 = 16;

/// One home's pass through the untraced loop.
pub struct HomePass {
    pub home: usize,
    pub setup: Duration,
    pub serve: Duration,
}

/// The untraced probe: one `on_packet` call in [`SAMPLE_EVERY`] timed,
/// every proof delivery and migration timed.
#[derive(Default)]
pub struct Sampled {
    seen: u64,
    /// The sampled `on_packet` times, in packet order: the same packets
    /// in every round.
    pub decide_ns: Vec<u64>,
    pub auth_ns: Vec<u64>,
    pub migrate_ns: Vec<u64>,
    snapshot_ns: u64,
    /// Every finished home's pass, in home order.
    pub homes: Vec<HomePass>,
}

impl Probe for Sampled {
    #[inline]
    fn packet(&mut self, proxy: &mut FiatProxy, _index: u32, pkt: &PacketRecord) -> ProxyDecision {
        self.seen += 1;
        if !self.seen.is_multiple_of(SAMPLE_EVERY) {
            return proxy.on_packet(pkt);
        }
        let t = Instant::now();
        let d = proxy.on_packet(pkt);
        self.decide_ns.push(t.elapsed().as_nanos() as u64);
        d
    }

    fn call<R>(&mut self, call: Call, f: impl FnOnce() -> R) -> R {
        if !matches!(call, Call::Auth | Call::Snapshot | Call::Restore) {
            return f();
        }
        let t = Instant::now();
        let r = f();
        let ns = t.elapsed().as_nanos() as u64;
        match call {
            Call::Auth => self.auth_ns.push(ns),
            Call::Snapshot => self.snapshot_ns = ns,
            _ => self.migrate_ns.push(self.snapshot_ns + ns),
        }
        r
    }

    fn home_done(
        &mut self,
        _inputs: &Inputs,
        home: usize,
        _sigs: Option<&SignatureSet>,
        report: &HomeReport,
        _ctx: &mut Ctx,
    ) {
        self.homes.push(HomePass {
            home,
            setup: report.setup,
            serve: report.serve,
        });
    }
}

/// What one home's loop produced.
#[derive(Debug, Clone, Default)]
pub struct HomeReport {
    /// Set-up time (enrollment).
    pub setup: Duration,
    /// Serving time: every call from the first packet through the
    /// registry merge.
    pub serve: Duration,
    pub packets: u64,
    pub stats: ProxyStats,
    pub proofs: u64,
    pub verified: u64,
    pub rejected: u64,
    pub auth_errors: u64,
    pub one_rtt: u64,
    pub migrated: u64,
    pub snapshot_bytes: u64,
    pub audit_appends: u64,
    /// Fingerprint verdicts sealed into the audit chain: match, spoof,
    /// no match.
    pub seals: [u64; 3],
    /// Metric series in the home's registry.
    pub series: u64,
    /// Lockouts entered, over every registry the home reported into.
    pub lockouts: u64,
}

impl HomeReport {
    fn add(&mut self, o: &HomeReport) {
        self.setup += o.setup;
        self.serve += o.serve;
        self.packets += o.packets;
        self.stats += o.stats;
        self.proofs += o.proofs;
        self.verified += o.verified;
        self.rejected += o.rejected;
        self.auth_errors += o.auth_errors;
        self.one_rtt += o.one_rtt;
        self.migrated += o.migrated;
        self.snapshot_bytes += o.snapshot_bytes;
        self.audit_appends += o.audit_appends;
        for (acc, n) in self.seals.iter_mut().zip(o.seals) {
            *acc += n;
        }
        self.series += o.series;
        self.lockouts += o.lockouts;
    }
}

/// Operation and check accounting shared by a whole run.
#[derive(Debug, Default)]
pub struct Ctx {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Ctx {
    /// Count `n` failed operations or checks; the first few messages are
    /// kept for the report.
    pub fn fail_n(&mut self, n: u64, msg: String) {
        self.failed += n;
        if self.messages.len() < 20 {
            self.messages.push(msg);
        }
    }

    pub fn fail(&mut self, msg: String) {
        self.fail_n(1, msg);
    }

    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.fail(msg());
        }
    }
}

/// One pass over every home of a workload.
pub struct Round {
    /// `learn` plus every home's set-up.
    pub setup: Duration,
    pub serve: Duration,
    /// One-time training of the round (`SignatureSet::learn`).
    pub learn: Duration,
    /// Per home, the serving time of its untraced twin pass (empty
    /// without twins).
    pub twin_serve: Vec<Duration>,
    pub total: HomeReport,
    pub registry: MetricRegistry,
}

impl Round {
    pub fn pps(&self) -> f64 {
        self.total.packets as f64 / self.serve.as_secs_f64()
    }

    pub fn setup_share(&self) -> f64 {
        self.setup.as_secs_f64() / (self.setup + self.serve).as_secs_f64()
    }
}

fn engine(sigs: &SignatureSet) -> Box<FingerprintEngine> {
    Box::new(FingerprintEngine::new(
        sigs.clone(),
        MatcherConfig::default(),
    ))
}

/// Provision one home: its registry and telemetry, then the control
/// plane's enrollment (ceremony, registry, devices, first handshake).
fn setup_home<P: Probe>(
    probe: &mut P,
    kind: Kind,
    home: &fiat_fleet::HomeWorkload,
    sigs: Option<&SignatureSet>,
) -> Result<(FiatProxy, MetricRegistry), EnrollError> {
    let (registry, telemetry) = probe.call(Call::RegistryNew, || {
        let telemetry = workload::telemetry();
        (telemetry.registry().clone(), telemetry)
    });
    let proxy = probe.call(Call::Enroll, || {
        let mut proxy = enroll_home(
            workload::provision(kind, &home.capture),
            &SECRET,
            workload::validator(),
            telemetry,
            None,
        )?
        .proxy;
        if let Some(s) = sigs {
            proxy.set_fingerprinter(engine(s));
        }
        Ok(proxy)
    })?;
    Ok((proxy, registry))
}

/// Run every home once. Set-up and serving are timed per home and
/// summed; checks run outside both. With `twin`, each home is also served
/// once untraced, right before or after `probe` serves it, and that
/// serving time lands in [`Round::twin_serve`]: the traced run compares
/// itself with an untraced run of the same home milliseconds apart, so
/// the host's slow drifts cancel.
pub fn run_round<P: Probe>(inputs: &Inputs, probe: &mut P, twin: bool, ctx: &mut Ctx) -> Round {
    let mut learn = Duration::ZERO;
    let mut twin_serve = vec![Duration::ZERO; if twin { inputs.homes.len() } else { 0 }];
    let sigs = (inputs.kind == Kind::ProofStorm).then(|| {
        let t = Instant::now();
        let window = MatcherConfig::default().evidence_window;
        let sigs = probe.call(Call::Learn, || SignatureSet::learn(&inputs.corpus, window));
        learn = t.elapsed();
        sigs
    });
    let sigs = sigs.as_ref();
    let registry = MetricRegistry::new();
    let mut total = HomeReport::default();
    for (h, home) in inputs.homes.iter().enumerate() {
        // Alternate which pass serves a home first, so the warmer caches
        // of the second pass favour neither.
        let twin_first = h % 2 == 0;
        if twin && twin_first {
            twin_serve[h] = serve_untraced(inputs, h, sigs, ctx);
        }
        let t = Instant::now();
        let provisioned = setup_home(probe, inputs.kind, home, sigs);
        let setup = t.elapsed();
        ctx.attempted += 1;
        let (proxy, home_registry) = match provisioned {
            Ok(p) => p,
            Err(e) => {
                ctx.fail(format!("home {h}: enrollment failed: {e}"));
                continue;
            }
        };
        let mut report = serve_home(probe, inputs, h, sigs, proxy, home_registry, &registry, ctx);
        report.setup = setup;
        if twin && !twin_first {
            twin_serve[h] = serve_untraced(inputs, h, sigs, ctx);
        }
        probe.home_done(inputs, h, sigs, &report, ctx);
        total.add(&report);
    }
    Round {
        setup: learn + total.setup,
        serve: total.serve,
        learn,
        twin_serve,
        total,
        registry,
    }
}

/// A probe that times nothing.
struct Plain;

impl Probe for Plain {
    fn packet(&mut self, proxy: &mut FiatProxy, _index: u32, pkt: &PacketRecord) -> ProxyDecision {
        proxy.on_packet(pkt)
    }

    fn call<R>(&mut self, _call: Call, f: impl FnOnce() -> R) -> R {
        f()
    }
}

/// Serve home `h` once more, untraced; returns the serving time.
fn serve_untraced(
    inputs: &Inputs,
    h: usize,
    sigs: Option<&SignatureSet>,
    ctx: &mut Ctx,
) -> Duration {
    let Ok((proxy, home_registry)) = setup_home(&mut Plain, inputs.kind, &inputs.homes[h], sigs)
    else {
        return Duration::ZERO;
    };
    let scratch = MetricRegistry::new();
    serve_home(
        &mut Plain,
        inputs,
        h,
        sigs,
        proxy,
        home_registry,
        &scratch,
        ctx,
    )
    .serve
}

/// One home's closed loop.
#[allow(clippy::too_many_arguments)]
fn serve_home<P: Probe>(
    probe: &mut P,
    inputs: &Inputs,
    h: usize,
    sigs: Option<&SignatureSet>,
    mut proxy: FiatProxy,
    home_registry: MetricRegistry,
    round_registry: &MetricRegistry,
    ctx: &mut Ctx,
) -> HomeReport {
    let capture = &inputs.homes[h].capture;
    let packets = &capture.trace.packets;
    let mut report = HomeReport::default();
    let mut registries = vec![home_registry];
    let start = Instant::now();
    match inputs.scripts.get(h) {
        None => {
            for (i, pkt) in packets.iter().enumerate() {
                probe.packet(&mut proxy, i as u32, pkt);
            }
            report.packets = packets.len() as u64;
        }
        Some(script) => serve_script(
            probe,
            inputs.kind,
            capture,
            script,
            sigs,
            &mut proxy,
            &mut registries,
            &mut report,
            ctx,
            h,
        ),
    }
    probe.call(Call::Merge, || {
        for r in &registries {
            round_registry.merge_from(r);
        }
    });
    report.serve = start.elapsed();

    report.stats = proxy.stats();
    report.audit_appends = proxy.audit().total_appended();
    report.series = registries[0].len() as u64;
    report.lockouts = registries
        .iter()
        .map(|r| r.counter("fiat_proxy_lockouts_total", &[]).get())
        .sum();
    for e in proxy.audit().entries() {
        match e.verdict {
            AuditVerdict::FingerprintMatched => report.seals[0] += 1,
            AuditVerdict::SpoofSuspected => report.seals[1] += 1,
            AuditVerdict::UnknownQuarantined => report.seals[2] += 1,
            _ => {}
        }
    }
    ctx.attempted += report.packets + report.proofs + report.migrated;
    ctx.check(report.stats.total() == report.packets, || {
        format!(
            "home {h}: ProxyStats::total() = {} but {} packets were decided",
            report.stats.total(),
            report.packets
        )
    });
    let chain_ok = probe.call(Call::AuditVerify, || proxy.audit().verify());
    ctx.check(chain_ok, || {
        format!("home {h}: audit chain failed to verify")
    });
    report
}

/// The `proof_storm` loop: packets, proofs and the migration in time
/// order, then a flush.
#[allow(clippy::too_many_arguments)]
fn serve_script<P: Probe>(
    probe: &mut P,
    kind: Kind,
    capture: &fiat_trace::TestbedTrace,
    script: &Script,
    sigs: Option<&SignatureSet>,
    proxy: &mut FiatProxy,
    registries: &mut Vec<MetricRegistry>,
    report: &mut HomeReport,
    ctx: &mut Ctx,
    h: usize,
) {
    let packets = &capture.trace.packets;
    let mut false_drops = 0u64;
    for &act in &script.acts {
        match act {
            Act::Packet(i) => {
                let d = probe.packet(proxy, i, &packets[i as usize]);
                report.packets += 1;
                if script.proven[i as usize] && matches!(d, ProxyDecision::Drop(_)) {
                    false_drops += 1;
                }
            }
            Act::Proof(j) => {
                let proof = &script.proofs[j as usize];
                let result = probe.call(Call::Auth, || {
                    // Proving presence is also how the user clears a
                    // lockout (§5.4).
                    if proof.human && proxy.is_locked(proof.device) {
                        proxy.clear_lockout(proof.device);
                    }
                    let r = match &proof.wire {
                        Wire::Zero(z) => proxy.on_auth_zero_rtt(z, proof.at),
                        Wire::One(p) => proxy.on_auth_one_rtt(p, proof.at),
                    };
                    proxy.take_quarantine_releases();
                    r
                });
                report.proofs += 1;
                if matches!(proof.wire, Wire::One(_)) {
                    report.one_rtt += 1;
                }
                match result {
                    Ok(true) => report.verified += 1,
                    Ok(false) => report.rejected += 1,
                    Err(_) => report.auth_errors += 1,
                }
                if result != Ok(proof.human) {
                    ctx.fail(format!(
                        "home {h}: proof {j} (human: {}) answered {result:?}",
                        proof.human
                    ));
                }
            }
            Act::Migrate => {
                let bytes = probe.call(Call::Snapshot, || snapshot_home(proxy, None));
                let telemetry = workload::telemetry();
                let fresh = telemetry.registry().clone();
                let restored = probe.call(Call::Restore, || {
                    restore_home(
                        &bytes,
                        kind.proxy_config(),
                        &SECRET,
                        workload::validator(),
                        telemetry,
                        |d| workload::classifier(capture, d),
                        None,
                    )
                    .map(|mut p| {
                        if let Some(s) = sigs {
                            p.set_fingerprinter(engine(s));
                        }
                        p
                    })
                });
                report.migrated += 1;
                report.snapshot_bytes += bytes.len() as u64;
                match restored {
                    Ok(p) => {
                        *proxy = p;
                        registries.push(fresh);
                    }
                    Err(e) => ctx.fail(format!("home {h}: restore failed: {e}")),
                }
            }
        }
    }
    probe.call(Call::Flush, || {
        proxy.flush(script.end);
        proxy.take_quarantine_releases();
    });
    if false_drops > 0 {
        ctx.fail_n(
            false_drops,
            format!("home {h}: {false_drops} packets of proven manual events dropped"),
        );
    }
}
