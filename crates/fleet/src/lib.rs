//! Sharded multi-home proxy runtime.
//!
//! The paper deploys one FIAT proxy per home; the ROADMAP north star is a
//! provider-scale service running millions of them. This crate
//! partitions H simulated homes across T worker threads ("shards"), each
//! shard owning the [`fiat_core::FiatProxy`] instances for the homes it
//! runs, then folds the per-home [`MetricRegistry`] snapshots and
//! [`ProxyStats`] into one fleet-wide view.
//!
//! Homes enter the fleet through the control plane: [`run_home`]
//! provisions each proxy with [`fiat_control::enroll_home`] (the mutual-
//! auth ceremony, device registration, and first session ticket), and
//! [`run_sharded_rebalancing`] exercises the control plane's home
//! migration mid-capture — snapshot, restore into a fresh registry,
//! resume — which must be invisible in the merged fleet view.
//!
//! Determinism is the design constraint: a sharded run must produce a
//! fleet view *identical* to a sequential reference run, or every
//! throughput/accuracy table built on it is suspect. Three choices make
//! that hold:
//!
//! - every home gets its **own** registry, and per-home registries are
//!   folded by *addition*, which is commutative and associative;
//! - the deterministic `registry` holds counters and gauges only: each
//!   proxy times its stages on a [`WallClock`] into a separate `timing`
//!   registry, folded the same way but never compared, so fleet stage
//!   latencies are real numbers and wall-clock noise stays out of the
//!   byte-identity check;
//! - work distribution never touches a home's *content*: the
//!   [`partition`] module plans a static cost-aware assignment and lets
//!   shards claim (and steal) homes through atomic cursors, so *which*
//!   shard runs a home is scheduling-dependent, but — because folding is
//!   additive — the merged view cannot be.
//!
//! Workloads are materialized in a slice, so shards claim them directly
//! with no hand-off channel: a feeder thread round-robining homes into
//! bounded channels stalled every shard behind one full queue.
//!
//! Every sharded entry point runs one plan/claim/decide/merge loop,
//! parameterised only by how a home is run. The loop always does its
//! per-home accounting — claim / decide / merge time, steals and
//! allocation attribution, a few clock reads per *home*, never per
//! packet — and [`run_sharded_probed`] is the entry point that returns
//! it. The flight recorder stays opt-in through
//! [`ProbeConfig::recorder_capacity`]: when on, every proxy gets a
//! [`ProxyHook`] that writes each [`ProxyEvent`] into its shard's ring.

use fiat_control::{enroll_home, restore_home, snapshot_home, DeviceSpec, HomeProvision};
use fiat_core::{
    EventClassifier, FiatProxy, ProxyConfig, ProxyEvent, ProxyHook, ProxyStats, ProxyTelemetry,
};
use fiat_net::{PacketRecord, SimTime};
use fiat_probe::{
    AllocScope, FleetProfile, FlightRecorder, ProbeConfig, ShardProfile, ShardRecorder, Stage,
    TraceEvent, TraceKind, SEQ_ASSIGNED, SEQ_CLAIMED, SEQ_FINISHED, SEQ_FIRST_HOOK,
};
use fiat_sensors::HumannessValidator;
use fiat_telemetry::{MetricRegistry, WallClock};
use fiat_trace::{Location, TestbedConfig, TestbedTrace};
use std::cell::Cell;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub mod partition;

pub use partition::{Claim, PartitionPlan};

/// Pairing secret shared by every simulated home's phone and proxy (the
/// fleet provisions every home through the real control-plane enrollment
/// ceremony, but all simulated ceremonies share one secret).
const SECRET: [u8; 32] = [0xF1; 32];

/// Nonce seed for the simulated enrollment ceremonies. Nonces never
/// influence packet decisions, so one fixed seed keeps provisioning
/// deterministic without threading per-home randomness through the
/// claim loop.
const ENROLL_SEED: u64 = 0xF1EE;

/// One simulated home: an id plus its generated capture.
pub struct HomeWorkload {
    /// Home id (dense, `0..homes`).
    pub home: u32,
    /// The home's labeled capture (trace, DNS, ground truth, devices).
    pub capture: TestbedTrace,
}

/// Estimated decide cost of one home, for the partition plan: packet
/// count is what the shard loop's work is linear in. Clamped to ≥ 1 so
/// degenerate empty homes stay claimable and countable.
pub fn home_cost(w: &HomeWorkload) -> u64 {
    (w.capture.trace.packets.len() as u64).max(1)
}

/// What one home's proxy produced.
pub struct HomeRun {
    /// Decision counters.
    pub stats: ProxyStats,
    /// The home's private metric registry (counters and gauges).
    pub registry: MetricRegistry,
    /// The home's stage-latency histograms (wall-clock, never compared).
    pub timing: MetricRegistry,
    /// Packets pushed through `on_packet`.
    pub packets: u64,
}

/// A shard's folded view of the homes it ran.
#[derive(Default)]
pub struct ShardOutcome {
    /// Shard index.
    pub shard: usize,
    /// Homes this shard processed (its static assignment plus steals —
    /// under load this split is scheduling-dependent; the fleet totals
    /// are not).
    pub homes: usize,
    /// Packets this shard decided.
    pub packets: u64,
    /// Folded decision counters.
    pub stats: ProxyStats,
    /// Folded metric registry.
    pub registry: MetricRegistry,
    /// Folded stage-latency histograms.
    pub timing: MetricRegistry,
}

impl ShardOutcome {
    /// Fold one home's run in by addition.
    fn absorb(&mut self, run: &HomeRun) {
        self.registry.merge_from(&run.registry);
        self.timing.merge_from(&run.timing);
        self.stats += run.stats;
        self.packets += run.packets;
        self.homes += 1;
    }
}

/// The fleet-wide merged view of a run.
pub struct FleetOutcome {
    /// Homes processed.
    pub homes: usize,
    /// Shards used (1 for the sequential reference).
    pub shards: usize,
    /// Total packets decided.
    pub packets: u64,
    /// Fleet-wide decision counters.
    pub stats: ProxyStats,
    /// Fleet-wide metric registry (per-home registries folded by
    /// addition).
    pub registry: MetricRegistry,
    /// Fleet-wide stage-latency histograms, folded like `registry`.
    /// Wall-clock samples: never part of a byte-identity comparison.
    pub timing: MetricRegistry,
    /// Per-shard breakdown, in shard order.
    pub per_shard: Vec<ShardOutcome>,
}

/// Build `homes` independent home workloads. Each home gets its own
/// deterministic capture seeded from `seed` and its id, so workloads are
/// reproducible and distinct.
pub fn build_workloads(homes: usize, days: f64, seed: u64) -> Vec<HomeWorkload> {
    (0..homes)
        .map(|h| HomeWorkload {
            home: h as u32,
            capture: TestbedTrace::generate(TestbedConfig {
                location: Location::Us,
                days,
                seed: seed.wrapping_add((h as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                manual_per_day: 12.0,
                routines_per_day: 10.0,
                confusion_scale: 0.15,
            }),
        })
        .collect()
}

/// Simple-rule classifier for one device: classify by command size; ML
/// devices fall back to a size no packet carries (0), i.e. everything is
/// non-manual — cheap and deterministic, which is what a throughput
/// fleet needs.
fn fleet_classifier(capture: &TestbedTrace, device: u16) -> EventClassifier {
    let size = capture
        .devices
        .get(device as usize)
        .and_then(|d| d.simple_rule_size)
        .unwrap_or(0);
    EventClassifier::simple_rule(size)
}

/// The control-plane provisioning request for one simulated home.
fn provision(capture: &TestbedTrace) -> HomeProvision {
    HomeProvision {
        config: ProxyConfig::default(),
        ceremony_secret: SECRET,
        seed: ENROLL_SEED,
        dns: capture.trace.dns.clone(),
        devices: (0..capture.devices.len() as u16)
            .map(|i| DeviceSpec {
                device: i,
                classifier: fleet_classifier(capture, i),
                min_packets_to_complete: capture.devices[i as usize].min_packets_to_complete,
            })
            .collect(),
        start_at: SimTime::ZERO,
    }
}

/// The validator and telemetry every fleet proxy runs with: no humanness
/// evidence is ever injected, counters and gauges report into
/// `registry`, and stages are timed on a [`WallClock`] into the
/// telemetry's own timing registry.
fn wiring(registry: &MetricRegistry) -> (HumannessValidator, ProxyTelemetry) {
    (
        HumannessValidator::with_operating_point(1.0, 1.0, 0),
        ProxyTelemetry::new(registry.clone(), Arc::new(WallClock::new())),
    )
}

/// A freshly enrolled proxy for one home, reporting into `registry`.
/// Provisioning goes through the real control-plane ceremony
/// ([`fiat_control::enroll_home`]: mutual auth, device registration,
/// first session ticket).
fn enroll(capture: &TestbedTrace, registry: &MetricRegistry) -> FiatProxy {
    let (validator, telemetry) = wiring(registry);
    enroll_home(provision(capture), &SECRET, validator, telemetry, None)
        .expect("fleet enrollment: shared ceremony secret always verifies")
        .proxy
}

/// Run one home's capture through a freshly enrolled proxy and return its
/// stats and private registries. Deterministic apart from `timing`:
/// devices use their scripted simple-rule classifiers, and no humanness
/// evidence is injected (unverified manual events drop, exactly as an
/// unattended home would behave).
pub fn run_home(capture: &TestbedTrace) -> HomeRun {
    run_home_with_hook(capture, None)
}

/// [`run_home`] with an optional decision-path observer installed on the
/// proxy (the flight recorder). The hook sees transitions; it never
/// touches the home's registry, so a hooked run produces the same
/// [`HomeRun`] as an unhooked one.
fn run_home_with_hook(capture: &TestbedTrace, hook: Option<Box<dyn ProxyHook>>) -> HomeRun {
    let registry = MetricRegistry::new();
    let mut proxy = enroll(capture, &registry);
    if let Some(h) = hook {
        proxy.set_hook(h);
    }
    for pkt in &capture.trace.packets {
        proxy.on_packet(pkt);
    }
    HomeRun {
        stats: proxy.stats(),
        registry,
        timing: proxy.telemetry().timing().clone(),
        packets: capture.trace.packets.len() as u64,
    }
}

/// Run one home's capture with a mid-run rebalance at packet index
/// `split_at`: decide the first `split_at` packets, snapshot the proxy
/// to serialized bytes ([`fiat_control::snapshot_home`]), restore it
/// into a **fresh** registry — exactly what a destination shard does
/// when a home migrates — and decide the rest on the restored proxy.
///
/// Restore is telemetry-silent and [`ProxyStats`] travel inside the
/// snapshot, so folding the pre-move and post-move registries by
/// addition yields a [`HomeRun`] byte-identical to an uninterrupted
/// [`run_home`] — the property the fleet rebalance tests pin at every
/// shard count.
fn run_home_rebalanced(capture: &TestbedTrace, split_at: usize) -> HomeRun {
    let registry_before = MetricRegistry::new();
    let mut proxy = enroll(capture, &registry_before);
    let split_at = split_at.min(capture.trace.packets.len());
    for pkt in &capture.trace.packets[..split_at] {
        proxy.on_packet(pkt);
    }
    let bytes = snapshot_home(&proxy, None);
    let timing = proxy.telemetry().timing().clone();
    let registry_after = MetricRegistry::new();
    let (validator, telemetry) = wiring(&registry_after);
    proxy = restore_home(
        &bytes,
        ProxyConfig::default(),
        &SECRET,
        validator,
        telemetry,
        |d| fleet_classifier(capture, d),
        None,
    )
    .expect("fleet rebalance: own snapshot always restores");
    for pkt in &capture.trace.packets[split_at..] {
        proxy.on_packet(pkt);
    }
    let registry = MetricRegistry::new();
    registry.merge_from(&registry_before);
    registry.merge_from(&registry_after);
    timing.merge_from(proxy.telemetry().timing());
    HomeRun {
        stats: proxy.stats(),
        registry,
        timing,
        packets: capture.trace.packets.len() as u64,
    }
}

fn fold(outcomes: Vec<ShardOutcome>, shards: usize) -> FleetOutcome {
    let registry = MetricRegistry::new();
    let timing = MetricRegistry::new();
    let mut stats = ProxyStats::default();
    let mut packets = 0u64;
    let mut homes = 0usize;
    for o in &outcomes {
        registry.merge_from(&o.registry);
        timing.merge_from(&o.timing);
        stats += o.stats;
        packets += o.packets;
        homes += o.homes;
    }
    FleetOutcome {
        homes,
        shards,
        packets,
        stats,
        registry,
        timing,
        per_shard: outcomes,
    }
}

/// Run the fleet across `shards` worker threads. The workload slice is
/// partitioned up front by estimated cost ([`PartitionPlan::build`],
/// greedy LPT on packet counts); each worker drains its own queue
/// through an atomic claim cursor and then steals from the queue with
/// the most remaining cost, so one pathologically expensive home cannot
/// serialize the fleet and no hand-off channel exists to block on.
/// Shard outcomes fold into the fleet view by addition, which is what
/// keeps the merged result byte-identical to [`run_sequential`] no
/// matter which shard ends up running which home.
pub fn run_sharded(workloads: &[HomeWorkload], shards: usize) -> FleetOutcome {
    run_fleet(
        workloads,
        shards,
        &ProbeConfig::default(),
        &run_home_with_hook,
    )
    .fleet
}

/// [`run_sharded`] where every home is rebalanced mid-capture: each
/// proxy is snapshotted at its midpoint packet and restored into a fresh
/// registry before resuming. The merged view
/// must stay byte-identical to the uninterrupted [`run_sequential`]
/// reference at every shard count — the fleet-level proof that a
/// control-plane home migration is invisible in every counter.
pub fn run_sharded_rebalancing(workloads: &[HomeWorkload], shards: usize) -> FleetOutcome {
    // The recorder is off, so no hook is ever handed in.
    let rebalanced = |capture: &TestbedTrace, _: Option<Box<dyn ProxyHook>>| {
        run_home_rebalanced(capture, capture.trace.packets.len() / 2)
    };
    run_fleet(workloads, shards, &ProbeConfig::default(), &rebalanced).fleet
}

/// Bridges the proxy's [`ProxyEvent`]s into a shard's flight recorder
/// ring. One per home run; it stamps every event with the
/// home id and the home's own sequence counter, which is what lets the
/// recorder merge deterministically even though work stealing makes the
/// recording shard scheduling-dependent.
struct RecorderHook {
    home: u32,
    seq: Cell<u64>,
    ring: Arc<ShardRecorder>,
}

impl RecorderHook {
    fn new(home: u32, ring: Arc<ShardRecorder>) -> Self {
        RecorderHook {
            home,
            seq: Cell::new(SEQ_FIRST_HOOK),
            ring,
        }
    }
}

impl ProxyHook for RecorderHook {
    fn on_event(&self, ev: &ProxyEvent) {
        let (ts, device, detail, arg) = match *ev {
            ProxyEvent::Decided {
                ts,
                device,
                decision,
            } => (ts, device, decision.reason_str(), 0),
            ProxyEvent::Proof { ts, verified } => {
                (ts, 0, if verified { "verified" } else { "rejected" }, 0)
            }
            ProxyEvent::Lockout { ts, device } | ProxyEvent::QuarantineHeld { ts, device } => {
                (ts, device, "", 0)
            }
            // No simulated timestamp (a user action, not a packet):
            // recorded at the sim origin, so the (ts_us, home, seq) merge
            // sorts the clear ahead of every event of its home.
            ProxyEvent::LockoutCleared { device } => (SimTime::ZERO, device, "", 0),
            ProxyEvent::QuarantineReleased {
                ts,
                device,
                packets,
            }
            | ProxyEvent::QuarantineExpired {
                ts,
                device,
                packets,
            } => (ts, device, "", packets),
        };
        let seq = self.seq.get();
        self.seq.set(seq + 1);
        self.ring.record(TraceEvent {
            ts_us: ts.as_micros(),
            home: self.home,
            seq,
            device,
            kind: TraceKind::Proxy(ev.name()),
            detail,
            arg,
        });
    }
}

/// First and last simulated packet timestamps of a capture (both 0 when
/// it is empty), for home lifecycle trace events.
fn sim_span(capture: &TestbedTrace) -> (u64, u64) {
    let packets = &capture.trace.packets;
    let us = |p: Option<&PacketRecord>| p.map_or(0, |p| p.ts.as_micros());
    (us(packets.first()), us(packets.last()))
}

/// A home-lifecycle trace event. `seq` is one of the lifecycle slots
/// ([`SEQ_ASSIGNED`], [`SEQ_CLAIMED`], [`SEQ_FINISHED`]), and each slot
/// has its own kind.
fn lifecycle(home: u32, seq: u64, ts_us: u64, arg: u64) -> TraceEvent {
    let kind = match seq {
        SEQ_ASSIGNED => TraceKind::HomeEnqueued,
        SEQ_CLAIMED => TraceKind::HomeDequeued,
        _ => TraceKind::HomeFinished,
    };
    TraceEvent {
        ts_us,
        home,
        seq,
        device: 0,
        kind,
        detail: "",
        arg,
    }
}

/// What a probed fleet run produced: the (unchanged) fleet view, the
/// per-shard stage accounting, and the flight recorder if one was on.
pub struct ProbedOutcome {
    /// The merged fleet view — identical to what [`run_sharded`] (and
    /// the sequential reference) produce for the same workloads.
    pub fleet: FleetOutcome,
    /// Per-shard / per-stage wall-time accounting, with the
    /// coordinator's plan and barrier-skew costs on their own row.
    pub profile: FleetProfile,
    /// The flight recorder, when `probes.recorder_capacity > 0`.
    pub recorder: Option<FlightRecorder>,
}

/// [`run_sharded`] with observability: per-shard stage accounting
/// (claim / decide / merge on the shard rows, partition planning and
/// join-barrier skew on the coordinator row), steal counters, per-stage
/// allocation attribution (when the binary installs
/// [`fiat_probe::CountingAllocator`]), and an optional flight recorder
/// hooked into every proxy's decision path.
///
/// The probes only *observe*: per-home registries still fold by
/// addition, so the merged `fleet` view stays byte-identical to
/// [`run_sequential`] (apart from its wall-clock `timing`).
pub fn run_sharded_probed(
    workloads: &[HomeWorkload],
    shards: usize,
    probes: &ProbeConfig,
) -> ProbedOutcome {
    run_fleet(workloads, shards, probes, &run_home_with_hook)
}

/// The one plan/claim/decide/merge loop behind every sharded entry
/// point, generic over how one home is run (`runner` gets the recorder
/// hook to install when the flight recorder is on).
fn run_fleet<F>(
    workloads: &[HomeWorkload],
    shards: usize,
    probes: &ProbeConfig,
    runner: &F,
) -> ProbedOutcome
where
    F: Fn(&TestbedTrace, Option<Box<dyn ProxyHook>>) -> HomeRun + Sync,
{
    let shards = shards.clamp(1, workloads.len().max(1));
    let run_start = Instant::now();
    let recorder = (probes.recorder_capacity > 0)
        .then(|| FlightRecorder::new(shards, probes.recorder_capacity));

    // Coordinator: build the plan, timed and alloc-attributed onto its
    // own row (never a shard's).
    let mut coordinator = ShardProfile::new(0);
    let plan_alloc = AllocScope::enter();
    let t = Instant::now();
    let costs: Vec<u64> = workloads.iter().map(home_cost).collect();
    let plan = PartitionPlan::build(&costs, shards);
    coordinator.add(Stage::Dispatch, t.elapsed());
    coordinator.add_allocs(Stage::Dispatch, plan_alloc.delta());

    if let Some(r) = &recorder {
        let ring = r.shard(r.coordinator_index());
        for w in workloads {
            let (first_ts, _) = sim_span(&w.capture);
            let packets = w.capture.trace.packets.len() as u64;
            ring.record(lifecycle(w.home, SEQ_ASSIGNED, first_ts, packets));
        }
    }

    let mut results: Vec<(ShardOutcome, ShardProfile)> = Vec::with_capacity(shards);
    std::thread::scope(|s| {
        let plan = &plan;
        let handles: Vec<_> = (0..shards)
            .map(|shard| {
                let ring = recorder.as_ref().map(|r| r.shard(shard));
                s.spawn(move || {
                    let shard_start = Instant::now();
                    let mut profile = ShardProfile::new(shard);
                    profile.assigned = plan.assigned(shard) as u64;
                    let mut outcome = ShardOutcome {
                        shard,
                        ..ShardOutcome::default()
                    };
                    loop {
                        let t = Instant::now();
                        let claim = plan.claim(shard);
                        profile.add(Stage::Recv, t.elapsed());
                        let Some(c) = claim else { break };
                        if c.stolen {
                            profile.steals += 1;
                        }
                        let w = &workloads[c.home];
                        let (first_ts, last_ts) = sim_span(&w.capture);
                        if let Some(ring) = &ring {
                            ring.record(lifecycle(w.home, SEQ_CLAIMED, first_ts, 0));
                        }
                        let hook = ring.as_ref().map(|r| {
                            Box::new(RecorderHook::new(w.home, Arc::clone(r))) as Box<dyn ProxyHook>
                        });
                        let alloc = AllocScope::enter();
                        let t = Instant::now();
                        let run = runner(&w.capture, hook);
                        profile.add(Stage::Decide, t.elapsed());
                        profile.add_allocs(Stage::Decide, alloc.delta());
                        if let Some(ring) = &ring {
                            ring.record(lifecycle(w.home, SEQ_FINISHED, last_ts, run.packets));
                        }
                        let alloc = AllocScope::enter();
                        let t = Instant::now();
                        outcome.absorb(&run);
                        profile.add(Stage::Merge, t.elapsed());
                        profile.add_allocs(Stage::Merge, alloc.delta());
                    }
                    profile.wall_nanos = shard_start.elapsed().as_nanos() as u64;
                    profile.homes = outcome.homes as u64;
                    profile.packets = outcome.packets;
                    (outcome, profile)
                })
            })
            .collect();
        results = handles
            .into_iter()
            .map(|h| h.join().expect("shard worker panicked"))
            .collect();
    });
    let mut outcomes = Vec::with_capacity(shards);
    let mut profiles = Vec::with_capacity(shards);
    for (outcome, profile) in results {
        outcomes.push(outcome);
        profiles.push(profile);
    }
    // Join-barrier skew: how much longer the slowest shard ran than the
    // fastest. With cost-aware partitioning plus stealing this should
    // be a sliver; a large value means the tail is not being stolen.
    let max_wall = profiles.iter().map(|p| p.wall_nanos).max().unwrap_or(0);
    let min_wall = profiles.iter().map(|p| p.wall_nanos).min().unwrap_or(0);
    coordinator.add(Stage::MergeWait, Duration::from_nanos(max_wall - min_wall));
    // The coordinator row covers exactly its own accounted work, so its
    // idle residual is zero and it can never read as a fleet-sized cost.
    coordinator.wall_nanos =
        coordinator.stage_nanos(Stage::Dispatch) + coordinator.stage_nanos(Stage::MergeWait);
    let t = Instant::now();
    let fleet = fold(outcomes, shards);
    let fold_nanos = t.elapsed().as_nanos() as u64;
    let profile = FleetProfile {
        shards: profiles,
        coordinator,
        wall_nanos: run_start.elapsed().as_nanos() as u64,
        fold_nanos,
        recorder_events: recorder.as_ref().map(|r| (r.total(), r.dropped())),
    };
    ProbedOutcome {
        fleet,
        profile,
        recorder,
    }
}

/// The sequential reference: every home in order on the calling thread,
/// no claim queues, no worker threads. [`run_sharded`] must merge to
/// exactly this outcome (stats equality and byte-identical registry
/// exposition; `timing` is wall-clock and never compared).
pub fn run_sequential(workloads: &[HomeWorkload]) -> FleetOutcome {
    let mut outcome = ShardOutcome::default();
    for w in workloads {
        outcome.absorb(&run_home(&w.capture));
    }
    fold(vec![outcome], 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fiat_core::DECIDE_SAMPLE_EVERY;

    fn small_workloads() -> Vec<HomeWorkload> {
        build_workloads(4, 0.05, 42)
    }

    /// One pathologically expensive home (10x the capture length) among
    /// seven cheap ones — the dispatch-skew scenario from the old
    /// round-robin design's worst case.
    fn skewed_workloads() -> Vec<HomeWorkload> {
        let capture = |days: f64, seed: u64| {
            TestbedTrace::generate(TestbedConfig {
                location: Location::Us,
                days,
                seed,
                manual_per_day: 12.0,
                routines_per_day: 10.0,
                confusion_scale: 0.15,
            })
        };
        let mut v = vec![HomeWorkload {
            home: 0,
            capture: capture(0.5, 1999),
        }];
        for h in 1..8u32 {
            v.push(HomeWorkload {
                home: h,
                capture: capture(0.05, 1999 + h as u64),
            });
        }
        v
    }

    #[test]
    fn workloads_are_distinct_and_reproducible() {
        let a = small_workloads();
        let b = small_workloads();
        assert_eq!(a.len(), 4);
        for (wa, wb) in a.iter().zip(&b) {
            assert_eq!(wa.capture.trace.len(), wb.capture.trace.len());
        }
        // Different homes see different traffic (different seeds).
        assert_ne!(
            a[0].capture.trace.packets.len(),
            0,
            "home 0 generated no traffic"
        );
        let ts0: Vec<_> = a[0].capture.trace.packets.iter().map(|p| p.ts).collect();
        let ts1: Vec<_> = a[1].capture.trace.packets.iter().map(|p| p.ts).collect();
        assert_ne!(ts0, ts1);
    }

    #[test]
    fn sharded_run_matches_sequential_reference() {
        let workloads = small_workloads();
        let reference = run_sequential(&workloads);
        for shards in [1, 2, 3, 4] {
            let fleet = run_sharded(&workloads, shards);
            assert_eq!(fleet.stats, reference.stats, "{shards} shards");
            assert_eq!(fleet.packets, reference.packets, "{shards} shards");
            assert_eq!(fleet.homes, reference.homes, "{shards} shards");
            // Byte-identical fleet-wide exposition: counters, gauges, and
            // histograms all merged to exactly the same values.
            assert_eq!(
                fleet.registry.render_prometheus(),
                reference.registry.render_prometheus(),
                "{shards} shards"
            );
        }
    }

    #[test]
    fn rebalanced_fleet_is_byte_identical_to_uninterrupted_sequential() {
        // The tentpole property: migrating every home mid-capture
        // (snapshot → restore into a fresh registry → resume) merges to
        // exactly the uninterrupted reference at every shard count.
        let workloads = small_workloads();
        let reference = run_sequential(&workloads);
        for shards in [1, 2, 3, 4] {
            let fleet = run_sharded_rebalancing(&workloads, shards);
            assert_eq!(fleet.stats, reference.stats, "{shards} shards");
            assert_eq!(fleet.packets, reference.packets, "{shards} shards");
            assert_eq!(fleet.homes, reference.homes, "{shards} shards");
            assert_eq!(
                fleet.registry.render_prometheus(),
                reference.registry.render_prometheus(),
                "{shards} shards"
            );
        }
    }

    #[test]
    fn rebalance_is_invisible_at_any_split_point() {
        let workloads = build_workloads(1, 0.05, 9);
        let capture = &workloads[0].capture;
        let n = capture.trace.packets.len();
        assert!(n > 3, "capture too small to split meaningfully");
        let plain = run_home(capture);
        // Before any packet, mid-stream, and after the last packet: a
        // snapshot/restore cycle never shows up in stats or exposition.
        for split in [0, 1, n / 3, n / 2, n] {
            let moved = run_home_rebalanced(capture, split);
            assert_eq!(moved.stats, plain.stats, "split {split}");
            assert_eq!(moved.packets, plain.packets, "split {split}");
            assert_eq!(
                moved.registry.render_prometheus(),
                plain.registry.render_prometheus(),
                "split {split}"
            );
        }
    }

    #[test]
    fn shards_partition_the_homes() {
        let workloads = small_workloads();
        // The static plan balances cost: 4 similar homes over 2 shards
        // is 2 + 2 before any stealing.
        let costs: Vec<u64> = workloads.iter().map(home_cost).collect();
        let plan = PartitionPlan::build(&costs, 2);
        assert_eq!(plan.assigned(0), 2);
        assert_eq!(plan.assigned(1), 2);
        // The run covers every home and packet exactly once, whatever
        // stealing did to the per-shard split.
        let fleet = run_sharded(&workloads, 2);
        assert_eq!(fleet.per_shard.len(), 2);
        assert_eq!(fleet.per_shard.iter().map(|s| s.homes).sum::<usize>(), 4);
        assert_eq!(
            fleet.per_shard.iter().map(|s| s.packets).sum::<u64>(),
            fleet.packets
        );
    }

    #[test]
    fn oversized_shard_count_is_clamped() {
        let workloads = build_workloads(2, 0.05, 7);
        let fleet = run_sharded(&workloads, 16);
        assert_eq!(fleet.shards, 2);
        assert_eq!(fleet.homes, 2);
    }

    #[test]
    fn empty_and_clamped_runs_agree_between_entry_points() {
        // Empty workload: both entry points clamp to one shard, decide
        // nothing, and merge to the same (empty) view.
        let empty: Vec<HomeWorkload> = Vec::new();
        let plain = run_sharded(&empty, 4);
        let probed = run_sharded_probed(&empty, 4, &ProbeConfig::default());
        assert_eq!(plain.shards, 1);
        assert_eq!(probed.fleet.shards, 1);
        assert_eq!(plain.homes, 0);
        assert_eq!(probed.fleet.homes, 0);
        assert_eq!(plain.packets, 0);
        assert_eq!(probed.fleet.packets, 0);
        assert_eq!(plain.stats, probed.fleet.stats);
        assert_eq!(
            plain.registry.render_prometheus(),
            probed.fleet.registry.render_prometheus()
        );
        // shards > homes clamps identically in both entry points.
        let two = build_workloads(2, 0.05, 7);
        let plain = run_sharded(&two, 16);
        let probed = run_sharded_probed(&two, 16, &ProbeConfig::profiling());
        assert_eq!(plain.shards, 2);
        assert_eq!(probed.fleet.shards, 2);
        assert_eq!(probed.profile.shards.len(), 2);
        assert_eq!(plain.stats, probed.fleet.stats);
        assert_eq!(
            plain.registry.render_prometheus(),
            probed.fleet.registry.render_prometheus()
        );
    }

    #[test]
    fn skewed_corpus_is_deterministic_and_isolates_the_expensive_home() {
        let workloads = skewed_workloads();
        let costs: Vec<u64> = workloads.iter().map(home_cost).collect();
        assert!(
            costs[0] > 3 * costs[1..].iter().copied().max().unwrap(),
            "corpus is not skewed enough to test anything: {costs:?}"
        );
        // The plan gives the expensive home a shard to itself, so the
        // cheap homes can proceed on the other shards from t=0 instead
        // of queueing behind it (the old design serialized here).
        let plan = PartitionPlan::build(&costs, 4);
        assert_eq!(plan.assigned_homes(0), &[0]);
        // Determinism holds under skew for both entry points at every
        // shard count.
        let reference = run_sequential(&workloads);
        for shards in [2, 4, 8] {
            let fleet = run_sharded(&workloads, shards);
            assert_eq!(fleet.stats, reference.stats, "{shards} shards");
            assert_eq!(
                fleet.registry.render_prometheus(),
                reference.registry.render_prometheus(),
                "{shards} shards"
            );
            let probed = run_sharded_probed(&workloads, shards, &ProbeConfig::profiling());
            assert_eq!(
                probed.fleet.stats, reference.stats,
                "{shards} shards probed"
            );
            assert_eq!(
                probed.fleet.registry.render_prometheus(),
                reference.registry.render_prometheus(),
                "{shards} shards probed"
            );
        }
    }

    #[test]
    fn skewed_corpus_speeds_up_when_cores_allow() {
        // The serialization regression proper: with one expensive home
        // among cheap ones, 4 shards must beat 1 shard. Wall-clock
        // speedup needs real cores, so the assertion only arms on hosts
        // with ≥ 4 (CI runners qualify; the structural guarantees are
        // covered above either way).
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        if cores < 4 {
            eprintln!("skipping wall-clock speedup assertion: host has {cores} core(s)");
            return;
        }
        let workloads = skewed_workloads();
        let best_of = |shards: usize| {
            (0..2)
                .map(|_| {
                    let t = Instant::now();
                    let fleet = run_sharded(&workloads, shards);
                    assert!(fleet.packets > 0);
                    t.elapsed()
                })
                .min()
                .unwrap()
        };
        let t1 = best_of(1);
        let t4 = best_of(4);
        let speedup = t1.as_secs_f64() / t4.as_secs_f64().max(1e-9);
        assert!(
            speedup >= 1.2,
            "skewed 4-shard run must not serialize: speedup {speedup:.2}x (1 shard {t1:?}, 4 shards {t4:?})"
        );
    }

    #[test]
    fn probed_run_preserves_determinism() {
        // The whole point of the probe layer: observing the fleet must
        // not change what it computes. Probed runs (recorder on and off)
        // merge byte-identically to the sequential reference.
        let workloads = small_workloads();
        let reference = run_sequential(&workloads);
        for probes in [ProbeConfig::default(), ProbeConfig::profiling()] {
            for shards in [1, 2, 4] {
                let probed = run_sharded_probed(&workloads, shards, &probes);
                assert_eq!(probed.fleet.stats, reference.stats, "{shards} shards");
                assert_eq!(
                    probed.fleet.registry.render_prometheus(),
                    reference.registry.render_prometheus(),
                    "{shards} shards, recorder_capacity {}",
                    probes.recorder_capacity
                );
            }
        }
    }

    #[test]
    fn probed_run_accounts_its_wall_time() {
        let workloads = small_workloads();
        let probed = run_sharded_probed(&workloads, 2, &ProbeConfig::default());
        // The acceptance bar: the per-shard breakdown explains >= 95% of
        // each shard's measured wall time (100% by construction).
        assert!(probed.profile.coverage() >= 0.95);
        assert_eq!(probed.profile.shards.len(), 2);
        assert_eq!(
            probed.profile.shards.iter().map(|s| s.homes).sum::<u64>(),
            4
        );
        assert_eq!(
            probed
                .profile
                .shards
                .iter()
                .map(|s| s.assigned)
                .sum::<u64>(),
            4
        );
        assert_eq!(
            probed.profile.shards.iter().map(|s| s.packets).sum::<u64>(),
            probed.fleet.packets
        );
        // The fleet decided something, so decide time is non-zero (a
        // single shard may have had its whole queue stolen under a
        // hostile scheduler, so assert the total, not each row).
        assert!(probed.profile.stage_total(Stage::Decide) > 0);
        // Plan cost lives on the coordinator row, not a shard's.
        for sp in &probed.profile.shards {
            assert_eq!(sp.stage_nanos(Stage::Dispatch), 0, "shard {}", sp.shard);
            assert_eq!(sp.stage_nanos(Stage::MergeWait), 0, "shard {}", sp.shard);
        }
        assert!(!probed.profile.top_bottleneck().is_empty());
        // Probes off: no recorder was built.
        assert!(probed.recorder.is_none());
        assert!(probed.profile.recorder_events.is_none());
    }

    #[test]
    fn flight_recorder_timeline_is_reproducible() {
        let workloads = small_workloads();
        let run = || {
            // Rings sized to retain the whole run: a complete timeline
            // must be byte-identical across runs even though stealing
            // makes the recording shard scheduling-dependent.
            let probes = ProbeConfig {
                recorder_capacity: 1 << 15,
            };
            let probed = run_sharded_probed(&workloads, 2, &probes);
            let recorder = probed.recorder.expect("recorder on");
            assert_eq!(recorder.evicted_ratio(), 0.0, "ring too small for corpus");
            recorder.to_jsonl()
        };
        let a = run();
        let b = run();
        assert!(!a.is_empty());
        assert_eq!(a, b, "merged trace must not depend on scheduling");
        // The timeline carries packet decisions and the full home
        // lifecycle.
        assert!(a.contains("\"kind\":\"packet_decided\""));
        assert!(a.contains("\"kind\":\"home_enqueued\""));
        assert!(a.contains("\"kind\":\"home_finished\""));
    }

    #[test]
    fn recorder_hook_maps_every_proxy_event() {
        use fiat_core::{AllowReason, DropReason, ProxyDecision};
        let recorder = FlightRecorder::new(1, 16);
        let hook = RecorderHook::new(5, recorder.shard(0));
        let at = SimTime::from_micros;
        let decided = |ts, device, decision| ProxyEvent::Decided {
            ts: at(ts),
            device,
            decision,
        };
        let events = [
            decided(10, 2, ProxyDecision::Allow(AllowReason::RuleHit)),
            decided(11, 2, ProxyDecision::Drop(DropReason::LockedOut)),
            decided(12, 3, ProxyDecision::Quarantine),
            ProxyEvent::Proof {
                ts: at(20),
                verified: true,
            },
            ProxyEvent::Proof {
                ts: at(21),
                verified: false,
            },
            ProxyEvent::Lockout {
                ts: at(30),
                device: 2,
            },
            ProxyEvent::LockoutCleared { device: 2 },
            ProxyEvent::QuarantineHeld {
                ts: at(40),
                device: 3,
            },
            ProxyEvent::QuarantineReleased {
                ts: at(50),
                device: 3,
                packets: 4,
            },
            ProxyEvent::QuarantineExpired {
                ts: at(60),
                device: 3,
                packets: 7,
            },
        ];
        for ev in &events {
            hook.on_event(ev);
        }
        let line = |ts: u64, seq: u64, device: u16, kind: &str, detail: &str, arg: u64| {
            format!(
                "{{\"ts_us\":{ts},\"home\":5,\"seq\":{seq},\"device\":{device},\
                 \"kind\":\"{kind}\",\"detail\":\"{detail}\",\"arg\":{arg}}}\n"
            )
        };
        // A clear has no simulated time: it is recorded at ts 0, so the
        // (ts_us, home, seq) merge puts it ahead of all its home's events.
        let expected = [
            line(0, 8, 2, "lockout_cleared", "", 0),
            line(10, 2, 2, "packet_decided", "rule_hit", 0),
            line(11, 3, 2, "packet_decided", "locked_out", 0),
            line(12, 4, 3, "packet_decided", "pending_proof", 0),
            line(20, 5, 0, "proof_arrival", "verified", 0),
            line(21, 6, 0, "proof_arrival", "rejected", 0),
            line(30, 7, 2, "lockout_entered", "", 0),
            line(40, 9, 3, "quarantine_held", "", 0),
            line(50, 10, 3, "quarantine_released", "", 4),
            line(60, 11, 3, "quarantine_expired", "", 7),
        ]
        .concat();
        assert_eq!(recorder.to_jsonl(), expected);
    }

    /// Decide samples a fleet of un-restored proxies records: one in
    /// [`DECIDE_SAMPLE_EVERY`] of each home's packets, rounded up.
    fn decide_samples(workloads: &[HomeWorkload]) -> u64 {
        workloads
            .iter()
            .map(|w| (w.capture.trace.packets.len() as u64).div_ceil(DECIDE_SAMPLE_EVERY))
            .sum()
    }

    #[test]
    fn fleet_registry_aggregates_per_home_counts() {
        let workloads = small_workloads();
        let fleet = run_sequential(&workloads);
        // Every packet was decided exactly once, and the per-home decide
        // samples folded into the fleet's timing registry.
        assert_eq!(fleet.stats.total(), fleet.packets);
        let decide = fleet
            .timing
            .histogram("fiat_proxy_stage_ns", &[("stage", "decide")]);
        assert_eq!(decide.count(), decide_samples(&workloads));
        // Device gauges sum across homes.
        let devices = fleet.registry.gauge("fiat_proxy_devices", &[]).get();
        let per_home = workloads[0].capture.devices.len() as i64;
        assert_eq!(devices, per_home * workloads.len() as i64);
    }

    #[test]
    fn stage_timing_stays_out_of_the_deterministic_registry() {
        let workloads = small_workloads();
        let reference = run_sequential(&workloads);
        let exposition = reference.registry.render_prometheus();
        assert!(
            !exposition.contains("fiat_proxy_stage"),
            "a stage sample landed in the deterministic registry"
        );
        // A sharded run times real wall-clock stages, yet its registry
        // stays byte-identical to the sequential one.
        let fleet = run_sharded(&workloads, 2);
        assert_eq!(fleet.registry.render_prometheus(), exposition);
        let decide = fleet
            .timing
            .histogram("fiat_proxy_stage_ns", &[("stage", "decide")]);
        assert_eq!(decide.count(), decide_samples(&workloads));
        assert!(decide.sum() > 0, "fleet decide latencies are all zero");
    }
}
