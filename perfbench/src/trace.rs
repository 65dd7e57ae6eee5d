//! The traced run. Every call into the proxy is timed from the
//! benchmark's side and attributed to a layer: `on_packet` by the path it
//! took, the other calls by kind. After each home, standalone replays of
//! single layers run on that home's inputs and decisions, and their
//! counts are checked against the pipeline's. Spans and counts stay in
//! memory until the run ends.

use crate::serve::{Call, Ctx, HomeReport, Probe, Round, CALLS};
use crate::stats::{median, quantile};
use crate::workload::{self, Inputs, Kind, Wire, ENROLL_SEED, SECRET};
use fiat_core::pipeline::ProxyConfig;
use fiat_core::{
    AllowReason, AuthMessage, DropReason, FiatApp, FiatProxy, FingerprintGate, FingerprintVerdict,
    PredictabilityEngine, ProxyDecision, RuleTable, StateSize, UnpredictableEvent,
};
use fiat_crypto::TeeKeystore;
use fiat_fingerprint::{FingerprintEngine, MatcherConfig, SignatureSet};
use fiat_net::PacketRecord;
use fiat_probe::thread_allocations;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// The path one `on_packet` call took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Path {
    Bootstrap,
    /// First packet after bootstrap: carries `RuleTable::learn`.
    Learn,
    RuleHit,
    FirstN,
    /// Classification point of an event.
    Classify,
    /// Later packet of an event whose verdict is sealed (or a locked
    /// device).
    Sealed,
    /// Held in pending-verdict quarantine.
    Quarantine,
    /// Unregistered device (legacy fail-open or the fingerprint gate).
    Unknown,
}

const PATH_NAMES: [&str; 8] = [
    "bootstrap",
    "learn",
    "rule_hit",
    "first_n",
    "classify",
    "sealed",
    "quarantine",
    "unknown",
];

/// The calls of the serving phase besides `on_packet`.
const SERVING_CALLS: [Call; 5] = [
    Call::Auth,
    Call::Snapshot,
    Call::Restore,
    Call::Flush,
    Call::Merge,
];

/// Packets between state-size samples (quarantine entries are sampled
/// as they happen).
const STATE_SAMPLE_EVERY: u64 = 1024;

/// A sum of timed calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct Acc {
    pub ns: u64,
    pub n: u64,
}

impl Acc {
    fn add(&mut self, ns: u64) {
        self.add_batch(ns, 1);
    }

    fn add_batch(&mut self, ns: u64, n: u64) {
        self.ns += ns;
        self.n += n;
    }

    fn merge(&mut self, o: Acc) {
        self.add_batch(o.ns, o.n);
    }

    fn mean_ns(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.ns as f64 / self.n as f64
        }
    }
}

/// Exact per-round counts: they must repeat in every round and every run
/// at one seed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    pub paths: [u64; 8],
    /// Learn packets the proxy decided as rule hits.
    pub learn_rule_hits: u64,
    pub allocs: u64,
    pub predict_hits: u64,
    pub rules: u64,
    pub learned_homes: u64,
    pub classified: u64,
    /// Standalone fingerprint replay verdicts: match, spoof, no match.
    pub fp_seals: [u64; 3],
    /// Standalone proof replay: verified, rejected, errors.
    pub auth: [u64; 3],
    pub state: StateSize,
}

/// Scratch state for the home in progress.
#[derive(Default)]
struct HomeScratch {
    /// `(packet index, decision)` in decision order.
    decisions: Vec<(u32, ProxyDecision)>,
    /// Decision count at the migration, if the home migrated.
    migrated_at: Option<usize>,
    /// Each device's previous decision, by device id.
    prev: Vec<Option<ProxyDecision>>,
    /// Each device's latest first-N packets (the open event's).
    first_n: HashMap<u16, Vec<PacketRecord>>,
    /// Packets of each classified event, classification point last.
    points: Vec<Vec<PacketRecord>>,
}

/// The serving-phase spans of one home's traced pass.
#[derive(Debug, Clone, Copy)]
pub struct HomeSpans {
    pub home: usize,
    /// Summed span time and span count.
    pub spans: Acc,
    pub serve: Duration,
}

/// The traced probe: spans per path and per call, plus replays.
#[derive(Default)]
pub struct Traced {
    /// Every finished home's serving spans, in home order.
    pub homes: Vec<HomeSpans>,
    home_spans: Acc,
    pub paths: [Acc; 8],
    pub calls: [Acc; CALLS],
    pub auth_ns: Vec<u64>,
    pub migrate_ns: Vec<u64>,
    snapshot_ns: u64,
    pub predict_learn: Acc,
    pub predict_match: Acc,
    pub classify: Acc,
    pub quic_open: Acc,
    pub crypto_verify: Acc,
    pub sensors_validate: Acc,
    pub fp_observe: Acc,
    pub counts: Counts,
    decided: u64,
    home: HomeScratch,
}

fn path_of(d: ProxyDecision, learned: bool, audit_grew: bool, prev: Option<ProxyDecision>) -> Path {
    use ProxyDecision::{Allow, Drop, Quarantine};
    if learned {
        return Path::Learn;
    }
    match d {
        Allow(AllowReason::Bootstrap) => Path::Bootstrap,
        Allow(AllowReason::RuleHit) => Path::RuleHit,
        Allow(AllowReason::FirstN) => Path::FirstN,
        Allow(AllowReason::UnknownDevice | AllowReason::FingerprintMatched)
        | Drop(DropReason::UnknownQuarantined) => Path::Unknown,
        Allow(AllowReason::NonManual | AllowReason::ManualVerified | AllowReason::Cascade)
        | Drop(DropReason::ManualUnverified)
            if audit_grew =>
        {
            Path::Classify
        }
        // A quarantine record is only ever admitted at a classification
        // point; later packets of the event are held behind it.
        Quarantine if prev != Some(Quarantine) => Path::Classify,
        Quarantine => Path::Quarantine,
        _ => Path::Sealed,
    }
}

impl Probe for Traced {
    fn packet(&mut self, proxy: &mut FiatProxy, index: u32, pkt: &PacketRecord) -> ProxyDecision {
        let rules_before = proxy.rule_count();
        let audit_before = proxy.audit().total_appended();
        let allocs_before = thread_allocations();
        let t = Instant::now();
        let d = proxy.on_packet(pkt);
        let ns = t.elapsed().as_nanos() as u64;
        self.counts.allocs += thread_allocations() - allocs_before;

        let learned = rules_before == 0 && proxy.rule_count() > 0;
        let audit_grew = proxy.audit().total_appended() > audit_before;
        let slot = pkt.device as usize;
        if slot >= self.home.prev.len() {
            self.home.prev.resize(slot + 1, None);
        }
        let prev = self.home.prev[slot].replace(d);
        let path = path_of(d, learned, audit_grew, prev);
        self.paths[path as usize].add(ns);
        self.home_spans.add(ns);
        self.counts.paths[path as usize] += 1;
        self.home.decisions.push((index, d));
        if learned && d == ProxyDecision::Allow(AllowReason::RuleHit) {
            self.counts.learn_rule_hits += 1;
        }
        match path {
            Path::FirstN => {
                let ring = self.home.first_n.entry(pkt.device).or_default();
                if ring.len() == ProxyConfig::default().classify_at_cap {
                    ring.remove(0);
                }
                ring.push(pkt.clone());
            }
            Path::Classify => {
                let mut event = self.home.first_n.remove(&pkt.device).unwrap_or_default();
                event.push(pkt.clone());
                self.home.points.push(event);
            }
            _ => {}
        }
        self.decided += 1;
        if d == ProxyDecision::Quarantine || self.decided.is_multiple_of(STATE_SAMPLE_EVERY) {
            self.counts.state = self.counts.state.max_fields(proxy.state_size());
        }
        d
    }

    fn call<R>(&mut self, call: Call, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        let ns = t.elapsed().as_nanos() as u64;
        self.calls[call as usize].add(ns);
        if SERVING_CALLS.contains(&call) {
            self.home_spans.add(ns);
        }
        match call {
            Call::Auth => self.auth_ns.push(ns),
            Call::Snapshot => self.snapshot_ns = ns,
            Call::Restore => {
                self.migrate_ns.push(self.snapshot_ns + ns);
                self.home.migrated_at = Some(self.home.decisions.len());
            }
            _ => {}
        }
        r
    }

    fn home_done(
        &mut self,
        inputs: &Inputs,
        h: usize,
        sigs: Option<&SignatureSet>,
        report: &HomeReport,
        ctx: &mut Ctx,
    ) {
        self.homes.push(HomeSpans {
            home: h,
            spans: std::mem::take(&mut self.home_spans),
            serve: report.serve,
        });
        let home = std::mem::take(&mut self.home);
        self.replay_predict(inputs, h, &home, report, ctx);
        self.replay_classifier(inputs, h, &home);
        if let Some(sigs) = sigs {
            self.replay_fingerprint(inputs, h, &home, sigs, report, ctx);
        }
        if inputs.kind == Kind::ProofStorm {
            self.replay_proofs(inputs, h, report, ctx);
        }
    }
}

impl Traced {
    /// `RuleTable::learn` on the packets the pipeline buffered during
    /// bootstrap, then `matches_touch` on every later packet that reached
    /// the rule match (all but lock-check drops). Hits must equal
    /// `ProxyStats::rule_hit`.
    fn replay_predict(
        &mut self,
        inputs: &Inputs,
        h: usize,
        home: &HomeScratch,
        report: &HomeReport,
        ctx: &mut Ctx,
    ) {
        let capture = &inputs.homes[h].capture;
        let packets = &capture.trace.packets;
        let config = inputs.kind.proxy_config();
        let engine = PredictabilityEngine::new(config.flow_def).with_tolerance(config.tolerance);
        let boot = ProxyDecision::Allow(AllowReason::Bootstrap);
        let locked = ProxyDecision::Drop(DropReason::LockedOut);
        let prefix: Vec<PacketRecord> = home
            .decisions
            .iter()
            .filter(|&&(_, d)| d == boot)
            .map(|&(i, _)| packets[i as usize].clone())
            .collect();
        let suffix: Vec<&PacketRecord> = home
            .decisions
            .iter()
            .filter(|&&(_, d)| d != boot && d != locked)
            .map(|&(i, _)| &packets[i as usize])
            .collect();
        if suffix.is_empty() {
            return;
        }
        let t = Instant::now();
        let mut table = RuleTable::learn(&engine, &prefix, &capture.trace.dns);
        table.set_capacity(config.max_rules);
        self.predict_learn.add(t.elapsed().as_nanos() as u64);
        let t = Instant::now();
        let hits = suffix
            .iter()
            .filter(|p| table.matches_touch(config.flow_def, p, &capture.trace.dns))
            .count() as u64;
        self.predict_match
            .add_batch(t.elapsed().as_nanos() as u64, suffix.len() as u64);
        self.counts.predict_hits += hits;
        self.counts.rules += table.len() as u64;
        // The pipeline's learn packet is seen as the rule count leaving 0.
        self.counts.learned_homes += u64::from(!table.is_empty());
        ctx.check(hits == report.stats.rule_hit, || {
            format!(
                "home {h}: standalone rule match hit {hits}, pipeline rule_hit {}",
                report.stats.rule_hit
            )
        });
    }

    /// `classify_event` on each event the pipeline classified, built
    /// from the packets it had seen at the classification point.
    fn replay_classifier(&mut self, inputs: &Inputs, h: usize, home: &HomeScratch) {
        let capture = &inputs.homes[h].capture;
        let cap = inputs.kind.proxy_config().classify_at_cap;
        for event in &home.points {
            let last = event.last().expect("classification point recorded");
            let classify_at = capture
                .devices
                .get(last.device as usize)
                .map_or(1, |d| d.min_packets_to_complete.min(cap).max(1));
            let packets = &event[event.len().saturating_sub(classify_at)..];
            let ev = UnpredictableEvent {
                device: last.device,
                packets: (0..packets.len()).collect(),
                start: packets[0].ts,
                end: packets.iter().map(|p| p.ts).max().expect("non-empty"),
            };
            let classifier = workload::classifier(capture, last.device);
            let t = Instant::now();
            std::hint::black_box(classifier.classify_event(&ev, packets));
            self.classify.add(t.elapsed().as_nanos() as u64);
            self.counts.classified += 1;
        }
    }

    /// A fresh `FingerprintEngine` (fresh again at the migration, as the
    /// restored proxy's is) observing the packets the pipeline sent to
    /// its gate. Sealed verdicts must equal the audit chain's.
    fn replay_fingerprint(
        &mut self,
        inputs: &Inputs,
        h: usize,
        home: &HomeScratch,
        sigs: &SignatureSet,
        report: &HomeReport,
        ctx: &mut Ctx,
    ) {
        let capture = &inputs.homes[h].capture;
        let fresh = || FingerprintEngine::new(sigs.clone(), MatcherConfig::default());
        let unknown = |d: ProxyDecision| {
            matches!(
                d,
                ProxyDecision::Allow(AllowReason::UnknownDevice | AllowReason::FingerprintMatched)
                    | ProxyDecision::Drop(DropReason::UnknownQuarantined)
            )
        };
        let split = home.migrated_at.unwrap_or(home.decisions.len());
        let mut seals = [0u64; 3];
        for part in [&home.decisions[..split], &home.decisions[split..]] {
            let observed: Vec<&PacketRecord> = part
                .iter()
                .filter(|&&(_, d)| unknown(d))
                .map(|&(i, _)| &capture.trace.packets[i as usize])
                .collect();
            let mut engine = fresh();
            let t = Instant::now();
            for p in &observed {
                let obs = engine.observe(p, &capture.trace.dns);
                if obs.just_sealed {
                    match obs.verdict {
                        FingerprintVerdict::Match(_) => seals[0] += 1,
                        FingerprintVerdict::Spoof { .. } => seals[1] += 1,
                        _ => seals[2] += 1,
                    }
                }
            }
            self.fp_observe
                .add_batch(t.elapsed().as_nanos() as u64, observed.len() as u64);
        }
        for (acc, n) in self.counts.fp_seals.iter_mut().zip(seals) {
            *acc += n;
        }
        ctx.check(seals == report.seals, || {
            format!(
                "home {h}: standalone fingerprint seals {seals:?}, audit chain {:?}",
                report.seals
            )
        });
    }

    /// The home's proofs opened by a standalone QUIC server paired
    /// through `fiat_core::pair` with the home's ceremony secret, then
    /// HMAC-verified and validated. Outcomes must equal the proxy's.
    fn replay_proofs(&mut self, inputs: &Inputs, h: usize, report: &HomeReport, ctx: &mut Ctx) {
        let script = &inputs.scripts[h];
        let store = TeeKeystore::new();
        let (keys, psk) = fiat_core::pair(&store, &SECRET);
        let mut server = fiat_quic::Server::new(psk);
        // The phone's first handshake, as enrollment ran it: same client
        // seed, and the proxy's first server random.
        let hello = FiatApp::new(&SECRET, ENROLL_SEED ^ 0x61_70_70).handshake_request();
        let mut random = [0u8; 32];
        random[..8].copy_from_slice(&1u64.to_be_bytes());
        server.accept(&hello, random);
        let mut validator = workload::validator();
        let mut auth = [0u64; 3];
        for proof in &script.proofs {
            let t = Instant::now();
            let payload = match &proof.wire {
                Wire::Zero(z) => server.accept_zero_rtt(z),
                Wire::One(p) => server.open(p),
            };
            self.quic_open.add(t.elapsed().as_nanos() as u64);
            let Some((msg, tag)) = payload.as_deref().ok().and_then(FiatApp::split_payload) else {
                auth[2] += 1;
                continue;
            };
            let t = Instant::now();
            let signed = store
                .verify(keys.sign_key, msg, tag)
                .expect("sealed sign key");
            self.crypto_verify.add(t.elapsed().as_nanos() as u64);
            let Some(m) = AuthMessage::decode(msg).filter(|_| signed) else {
                auth[2] += 1;
                continue;
            };
            let t = Instant::now();
            let human = validator.validate_features(&m.features, m.truth);
            self.sensors_validate.add(t.elapsed().as_nanos() as u64);
            auth[if human { 0 } else { 1 }] += 1;
        }
        for (acc, n) in self.counts.auth.iter_mut().zip(auth) {
            *acc += n;
        }
        let pipeline = [report.verified, report.rejected, report.auth_errors];
        ctx.check(auth == pipeline, || {
            format!("home {h}: standalone proof outcomes {auth:?}, proxy {pipeline:?}")
        });
    }
}

/// Everything one traced round measured.
pub struct TracedRound {
    pub probe: Traced,
    /// The traced round, with its untraced twin's serving time.
    pub round: Round,
    pub render_ns: u64,
    pub fleet_plan_ns: u64,
    pub fleet_steals: u64,
    pub fleet_merge_wait_share: f64,
    pub fleet_decide_share: f64,
}

/// Cross-checks over the traced rounds: counts repeat in every round, the
/// paths partition the decided packets, and the standalone replays count
/// what the pipeline counted.
pub fn check_rounds(rounds: &[TracedRound], ctx: &mut Ctx) {
    let c = &rounds[0].probe.counts;
    for (k, r) in rounds.iter().enumerate().skip(1) {
        ctx.check(&r.probe.counts == c, || {
            format!("traced round {k} counts differ from round 0")
        });
    }
    let s = &rounds[0].round.total.stats;
    let mut check = |name: &str, ours: u64, pipeline: u64| {
        let ok = ours == pipeline;
        println!(
            "cross-check {name}: {ours} == {pipeline} {}",
            if ok { "ok" } else { "FAILED" }
        );
        ctx.check(ok, || format!("cross-check {name}: {ours} != {pipeline}"));
    };
    check(
        "paths == ProxyStats::total",
        c.paths.iter().sum(),
        s.total(),
    );
    check(
        "bootstrap path == ProxyStats::bootstrap",
        c.paths[Path::Bootstrap as usize],
        s.bootstrap,
    );
    check(
        "rule_hit path (+ learn hits) == ProxyStats::rule_hit",
        c.paths[Path::RuleHit as usize] + c.learn_rule_hits,
        s.rule_hit,
    );
    check(
        "predict hits == ProxyStats::rule_hit",
        c.predict_hits,
        s.rule_hit,
    );
    check(
        "predict learns == learn path",
        c.learned_homes,
        c.paths[Path::Learn as usize],
    );
    check(
        "classifier replays == classify path",
        c.classified,
        c.paths[Path::Classify as usize],
    );
    let t = &rounds[0].round.total;
    check(
        "fingerprint replay seals == audit seals",
        c.fp_seals.iter().sum(),
        t.seals.iter().sum(),
    );
    check(
        "proof replay outcomes == proxy outcomes",
        c.auth.iter().sum(),
        t.verified + t.rejected + t.auth_errors,
    );
}

/// Share of a traced round's wall time spent on per-home fixed cost:
/// set-up, the learn packet, and the registry merge (median over rounds).
pub fn fixed_cost_share(rounds: &[TracedRound]) -> f64 {
    let shares: Vec<f64> = rounds
        .iter()
        .map(|r| {
            let fixed = r.round.setup.as_nanos() as u64
                + r.probe.paths[Path::Learn as usize].ns
                + r.probe.calls[Call::Merge as usize].ns;
            fixed as f64 / (r.round.setup + r.round.serve).as_nanos() as f64
        })
        .collect();
    median(&shares)
}

/// Median cost of an empty span (`Instant::now` then `elapsed`), which
/// every per-call time includes once.
pub fn span_overhead_ns() -> f64 {
    let samples: Vec<f64> = (0..20_000)
        .map(|_| {
            let t = Instant::now();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples)
}

/// A per-layer metric: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// Fold the traced rounds into the per-layer metrics. Times are means
/// over every round; counts are one round's (they repeat exactly).
pub fn layer_metrics(rounds: &mut [TracedRound], span_ns: f64, homes: usize) -> Vec<Metric> {
    let mut paths = [Acc::default(); 8];
    let mut calls = [Acc::default(); CALLS];
    let mut total = Traced::default();
    // Per home, over the rounds: the fastest attributed time (spans less
    // the timer cost each carries), traced serving time and untraced twin
    // serving time.
    let mut attributed = vec![f64::INFINITY; homes];
    let mut serve = vec![f64::INFINITY; homes];
    let mut twin = vec![f64::INFINITY; homes];
    for r in rounds.iter_mut() {
        for s in &r.probe.homes {
            let own = s.spans.ns as f64 - span_ns * s.spans.n as f64;
            attributed[s.home] = attributed[s.home].min(own);
            serve[s.home] = serve[s.home].min(s.serve.as_nanos() as f64);
        }
        for (h, t) in r.round.twin_serve.iter().enumerate() {
            twin[h] = twin[h].min(t.as_nanos() as f64);
        }
        for (acc, a) in paths.iter_mut().zip(r.probe.paths) {
            acc.merge(a);
        }
        for (acc, a) in calls.iter_mut().zip(r.probe.calls) {
            acc.merge(a);
        }
        total.predict_learn.merge(r.probe.predict_learn);
        total.predict_match.merge(r.probe.predict_match);
        total.classify.merge(r.probe.classify);
        total.quic_open.merge(r.probe.quic_open);
        total.crypto_verify.merge(r.probe.crypto_verify);
        total.sensors_validate.merge(r.probe.sensors_validate);
        total.fp_observe.merge(r.probe.fp_observe);
        total.auth_ns.append(&mut r.probe.auth_ns);
        total.migrate_ns.append(&mut r.probe.migrate_ns);
    }
    let sum = |v: &[f64]| v.iter().filter(|x| x.is_finite()).sum::<f64>();
    let first = &rounds[0];
    let counts = &first.probe.counts;
    let report = &first.round.total;
    let home_count = homes.max(1) as f64;
    // A per-call mean less the one span it paid for.
    let call_ns = |a: &Acc| (a.mean_ns() - span_ns).max(0.0);
    let us = |ns: f64| ns / 1e3;
    let per_round = |x: u64| x as f64;
    let mut m: Vec<Metric> = Vec::new();
    let mut put = |name: &str, value: f64, unit: &'static str| m.push((name.into(), value, unit));

    for (k, name) in PATH_NAMES.iter().enumerate() {
        if *name == "learn" {
            put("pipeline.learn_us", us(call_ns(&paths[k])), "us");
        } else {
            put(&format!("pipeline.{name}_ns"), call_ns(&paths[k]), "ns");
        }
        put(
            &format!("pipeline.{name}.count"),
            per_round(counts.paths[k]),
            "count",
        );
    }
    let path_ns: u64 = paths.iter().map(|a| a.ns).sum();
    let rule_hit = Path::RuleHit as usize;
    put(
        "pipeline.fast_path_share",
        paths[rule_hit].ns as f64 / path_ns.max(1) as f64,
        "ratio",
    );
    put(
        "pipeline.allocs_per_pkt",
        counts.allocs as f64 / report.packets.max(1) as f64,
        "allocs/pkt",
    );
    let match_ns = total.predict_match.mean_ns();
    put("predict.learn_us", us(total.predict_learn.mean_ns()), "us");
    put("predict.match_ns", match_ns, "ns");
    put(
        "predict.rules_per_home",
        counts.rules as f64 / counts.learned_homes.max(1) as f64,
        "count",
    );
    put(
        "pipeline.fast_path_overhead_ns",
        call_ns(&paths[rule_hit]) - match_ns,
        "ns",
    );
    put("classifier.classify_ns", total.classify.mean_ns(), "ns");
    put("quic.open_us", us(total.quic_open.mean_ns()), "us");
    put("crypto.verify_us", us(total.crypto_verify.mean_ns()), "us");
    put(
        "sensors.validate_us",
        us(total.sensors_validate.mean_ns()),
        "us",
    );
    put("auth.verified", per_round(report.verified), "count");
    put("auth.rejected", per_round(report.rejected), "count");
    put("auth.errors", per_round(report.auth_errors), "count");
    put("quic.one_rtt_fallbacks", per_round(report.one_rtt), "count");
    put("auth.p50_us", us(quantile(&mut total.auth_ns, 0.50)), "us");
    put("auth.p99_us", us(quantile(&mut total.auth_ns, 0.99)), "us");
    put("fingerprint.observe_ns", total.fp_observe.mean_ns(), "ns");
    put(
        "fingerprint.learn_ms",
        calls[Call::Learn as usize].mean_ns() / 1e6,
        "ms",
    );
    put(
        "fingerprint.sealed.match",
        per_round(report.seals[0]),
        "count",
    );
    put(
        "fingerprint.sealed.spoof",
        per_round(report.seals[1]),
        "count",
    );
    put(
        "fingerprint.sealed.nomatch",
        per_round(report.seals[2]),
        "count",
    );
    put(
        "control.enroll_us",
        us(call_ns(&calls[Call::Enroll as usize])),
        "us",
    );
    put(
        "control.snapshot_us",
        us(call_ns(&calls[Call::Snapshot as usize])),
        "us",
    );
    put(
        "control.restore_us",
        us(call_ns(&calls[Call::Restore as usize])),
        "us",
    );
    put(
        "control.snapshot_bytes",
        report.snapshot_bytes as f64 / report.migrated.max(1) as f64,
        "bytes",
    );
    put(
        "control.migrate_p50_us",
        us(quantile(&mut total.migrate_ns, 0.50)),
        "us",
    );
    put(
        "telemetry.registry_new_us",
        us(call_ns(&calls[Call::RegistryNew as usize])),
        "us",
    );
    put(
        "telemetry.merge_us",
        us(call_ns(&calls[Call::Merge as usize])),
        "us",
    );
    put(
        "telemetry.series_per_home",
        report.series as f64 / home_count,
        "count",
    );
    put(
        "telemetry.render_us",
        us(median(
            &rounds
                .iter()
                .map(|r| r.render_ns as f64)
                .collect::<Vec<_>>(),
        )),
        "us",
    );
    let med = |f: &dyn Fn(&TracedRound) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    put("fleet.plan_us", us(med(&|r| r.fleet_plan_ns as f64)), "us");
    put("fleet.steals", med(&|r| r.fleet_steals as f64), "count");
    put(
        "fleet.merge_wait_share",
        med(&|r| r.fleet_merge_wait_share),
        "ratio",
    );
    put(
        "fleet.decide_share",
        med(&|r| r.fleet_decide_share),
        "ratio",
    );
    put("audit.appends", per_round(report.audit_appends), "count");
    put(
        "audit.verify_us",
        us(call_ns(&calls[Call::AuditVerify as usize])),
        "us",
    );
    put("state.total_hwm", counts.state.total() as f64, "count");
    put("state.rules_hwm", counts.state.rules as f64, "count");
    put(
        "state.quarantine_hwm",
        counts.state.quarantine_held as f64,
        "count",
    );
    // Attributed serving time over the untraced twins' serving time, and
    // traced pps over untraced pps (the same packets, so a time ratio).
    put("trace.coverage", sum(&attributed) / sum(&twin), "ratio");
    put("trace.overhead", sum(&twin) / sum(&serve), "ratio");
    m
}
