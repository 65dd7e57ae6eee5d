//! FIAT proxy benchmark.
//!
//! ```text
//! perfbench --workload <steady|churn|proof_storm> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's inputs from the seed, then replays them in a
//! single-threaded closed loop through the proxy's public API in rounds
//! until `--seconds` have passed, checking every round's outputs. With
//! `--trace 0` it reports the end-to-end metrics, with `--trace 1` the
//! per-layer ones. The last line of standard output is one JSON object;
//! the exit code is non-zero if any check failed. See README.md.

mod serve;
mod stats;
mod trace;
mod workload;

use fiat_core::ProxyStats;
use fiat_fleet::HomeWorkload;
use fiat_telemetry::MetricRegistry;
use serve::{run_round, Ctx, Round, Sampled};
use stats::{binned_quantile, median, quantile};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{layer_metrics, Metric, Traced, TracedRound};
use workload::{Inputs, Kind};

#[global_allocator]
static ALLOC: fiat_probe::CountingAllocator = fiat_probe::CountingAllocator;

const USAGE: &str = "usage: perfbench --workload <steady|churn|proof_storm> --seed <n> \
                     --seconds <s> --trace <0|1> [--scale <f>]";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Multiplies the workload's home count (tests run tiny scales).
    scale: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scale = 1.0;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(&value).ok_or(bad(()))?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad(()))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad(()))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(())),
                })
            }
            "--scale" => scale = value.parse::<f64>().map_err(|_| bad(()))?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && scale > 0.0) {
        return Err("--seconds and --scale must be positive".into());
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        scale,
    })
}

/// The sequential fleet run of the same homes: the reference the loop
/// and the sharded runtime must reproduce.
struct Reference {
    fleet: fiat_fleet::FleetOutcome,
    exposition: String,
    shards: usize,
}

/// Checks every round must pass: stats and exposition equal to the
/// sequential fleet (`steady`, `churn`: the loop provisions exactly the
/// fleet's homes).
fn check_round(inputs: &Inputs, round: &Round, reference: &Reference, ctx: &mut Ctx) {
    if inputs.kind == Kind::ProofStorm {
        return;
    }
    ctx.check(round.total.stats == reference.fleet.stats, || {
        format!(
            "loop stats {:?} differ from fiat_fleet::run_sequential {:?}",
            round.total.stats, reference.fleet.stats
        )
    });
    ctx.check(
        round.registry.render_prometheus() == reference.exposition,
        || "loop exposition differs from fiat_fleet::run_sequential".into(),
    );
}

fn check_fleet(
    stats: &ProxyStats,
    registry: &MetricRegistry,
    reference: &Reference,
    ctx: &mut Ctx,
) {
    ctx.check(
        *stats == reference.fleet.stats && registry.render_prometheus() == reference.exposition,
        || "fiat_fleet::run_sharded differs from run_sequential".into(),
    );
}

/// `run_sharded` is timed on this many consecutive slices of the homes,
/// so that, like a home's serving time, each slice keeps its fastest
/// time over the rounds.
const FLEET_SLICES: usize = 8;

/// The homes in up to [`FLEET_SLICES`] consecutive slices, each a multiple
/// of `shards` homes long but the last, so no slice idles a shard by its
/// size alone.
fn fleet_slices(homes: &[HomeWorkload], shards: usize) -> Vec<&[HomeWorkload]> {
    let per = homes.len().div_ceil(FLEET_SLICES).next_multiple_of(shards);
    homes.chunks(per.max(1)).collect()
}

/// One sharded fleet run over every slice: each slice's time, and the
/// slices' outcomes folded by addition, as the fleet folds its shards.
fn run_fleet(
    slices: &[&[HomeWorkload]],
    shards: usize,
) -> (Vec<Duration>, ProxyStats, MetricRegistry) {
    let registry = MetricRegistry::new();
    let mut stats = ProxyStats::default();
    let took = slices
        .iter()
        .map(|slice| {
            let t = Instant::now();
            let fleet = fiat_fleet::run_sharded(slice, shards);
            let took = t.elapsed();
            stats += fleet.stats;
            registry.merge_from(&fleet.registry);
            took
        })
        .collect();
    (took, stats, registry)
}

/// Workload-shape guards: the shares each workload claims, printed and
/// checked so a size edit cannot turn one workload into another.
fn guards(inputs: &Inputs, round: &Round, setup_share: f64, ctx: &mut Ctx) {
    let t = &round.total;
    let packets = t.packets.max(1) as f64;
    let homes = inputs.homes.len() as u64;
    let mut guard = |name: &str, value: f64, ok: bool, want: &str| {
        println!(
            "guard {name} = {value:.4} ({want}) {}",
            if ok { "ok" } else { "FAILED" }
        );
        ctx.check(ok, || {
            format!("workload guard {name} = {value:.4}, want {want}")
        });
    };
    match inputs.kind {
        Kind::Steady => {
            let hits = t.stats.rule_hit as f64 / packets;
            guard("rule_hit_share", hits, hits >= 0.75, ">= 0.75");
            guard("setup_share", setup_share, setup_share <= 0.02, "<= 0.02");
        }
        Kind::Churn => {
            let boot = t.stats.bootstrap as f64 / packets;
            guard("bootstrap_share", boot, boot >= 0.40, ">= 0.40");
            guard("setup_share", setup_share, setup_share >= 0.02, ">= 0.02");
        }
        Kind::ProofStorm => {
            let non_hit = 1.0 - t.stats.rule_hit as f64 / packets;
            guard("non_rule_hit_share", non_hit, non_hit >= 0.20, ">= 0.20");
            let v = t.verified as f64;
            guard("proofs_verified", v, t.verified >= homes, ">= 1 per home");
            let (matched, quarantined) = (t.seals[0], t.seals[1] + t.seals[2]);
            guard(
                "fingerprint_match_seals",
                matched as f64,
                matched > 0,
                ">= 1",
            );
            guard(
                "fingerprint_quarantine_seals",
                quarantined as f64,
                quarantined > 0,
                ">= 1",
            );
            let m = t.migrated as f64;
            guard("homes_migrated", m, t.migrated == homes, "every home");
            guard("lockouts", t.lockouts as f64, t.lockouts > 0, ">= 1");
        }
    }
}

/// One untimed round first, so caches and the allocator's arenas are warm
/// when timing starts. Its checks still count.
fn warm_up(inputs: &Inputs, ctx: &mut Ctx) {
    run_round(inputs, &mut Sampled::default(), false, ctx);
}

fn untraced(inputs: &Inputs, args: &Args, reference: &Reference, ctx: &mut Ctx) -> Vec<Metric> {
    warm_up(inputs, ctx);
    let start = Instant::now();
    // Every round does the same work, so each unit of it keeps its
    // fastest time over the rounds: each home's set-up and serving, each
    // sampled `on_packet` call, each fleet slice. The host's slow phases
    // (seconds long, up to ~30% slower) then drop out.
    let mut setup_best = vec![Duration::MAX; inputs.homes.len()];
    let mut serve_best = vec![Duration::MAX; inputs.homes.len()];
    let mut decide_best: Vec<u64> = Vec::new();
    let slices = fleet_slices(&inputs.homes, reference.shards);
    let mut fleet_best = vec![Duration::MAX; slices.len()];
    let (mut learn, mut pps) = (Duration::MAX, vec![]);
    let (mut auth_ns, mut migrate_ns) = (vec![], vec![]);
    let mut first: Option<Round> = None;
    while first.is_none() || start.elapsed().as_secs_f64() < args.seconds {
        let mut probe = Sampled::default();
        let round = run_round(inputs, &mut probe, false, ctx);
        check_round(inputs, &round, reference, ctx);
        let (took, stats, registry) = run_fleet(&slices, reference.shards);
        check_fleet(&stats, &registry, reference, ctx);

        learn = learn.min(round.learn);
        pps.push(round.pps());
        for (best, t) in fleet_best.iter_mut().zip(took) {
            *best = (*best).min(t);
        }
        for pass in &probe.homes {
            setup_best[pass.home] = setup_best[pass.home].min(pass.setup);
            serve_best[pass.home] = serve_best[pass.home].min(pass.serve);
        }
        if decide_best.is_empty() {
            decide_best = std::mem::take(&mut probe.decide_ns);
        } else {
            for (best, ns) in decide_best.iter_mut().zip(&probe.decide_ns) {
                *best = (*best).min(*ns);
            }
        }
        auth_ns.append(&mut probe.auth_ns);
        migrate_ns.append(&mut probe.migrate_ns);
        first.get_or_insert(round);
    }
    let round = first.expect("at least one round");
    let listed: Vec<String> = pps.iter().map(|p| format!("{:.0}", p / 1e3)).collect();
    println!("rounds: {} (kpps: {})", pps.len(), listed.join(" "));
    let served = |best: &[Duration]| {
        best.iter()
            .filter(|&&d| d != Duration::MAX)
            .sum::<Duration>()
    };
    let serve = served(&serve_best);
    let setup = learn + served(&setup_best);
    let mut decide_ns = decide_best;
    let setup_share = setup.as_secs_f64() / (setup + serve).as_secs_f64();
    guards(inputs, &round, setup_share, ctx);
    if inputs.kind == Kind::ProofStorm {
        let t = &round.total;
        println!(
            "proofs per round: {} ({} verified, {} rejected, {} errors, {} over 1-RTT); \
             auth_p50_us {:.3} auth_p99_us {:.3} (n = {}); migrate_p50_us {:.3} (n = {})",
            t.proofs,
            t.verified,
            t.rejected,
            t.auth_errors,
            t.one_rtt,
            quantile(&mut auth_ns, 0.50) / 1e3,
            quantile(&mut auth_ns, 0.99) / 1e3,
            auth_ns.len(),
            quantile(&mut migrate_ns, 0.50) / 1e3,
            migrate_ns.len(),
        );
    }
    let fastest_fleet = inputs.packets as f64 / served(&fleet_best).as_secs_f64();
    vec![
        ("setup_s".into(), setup.as_secs_f64(), "s"),
        (
            "pps".into(),
            round.total.packets as f64 / serve.as_secs_f64(),
            "packets/s",
        ),
        (
            "decide_p50_ns".into(),
            binned_quantile(&mut decide_ns, 0.50),
            "ns",
        ),
        (
            "decide_p99_ns".into(),
            binned_quantile(&mut decide_ns, 0.99),
            "ns",
        ),
        ("fleet_pps".into(), fastest_fleet, "packets/s"),
    ]
}

fn traced(inputs: &Inputs, args: &Args, reference: &Reference, ctx: &mut Ctx) -> Vec<Metric> {
    let span_ns = trace::span_overhead_ns();
    println!("span overhead: {span_ns:.1} ns per timed call (subtracted from per-call means)");
    warm_up(inputs, ctx);
    let start = Instant::now();
    let mut rounds: Vec<TracedRound> = Vec::new();
    while rounds.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let mut probe = Traced::default();
        let round = run_round(inputs, &mut probe, true, ctx);
        check_round(inputs, &round, reference, ctx);
        let t = Instant::now();
        std::hint::black_box(round.registry.render_prometheus());
        let render_ns = t.elapsed().as_nanos() as u64;
        let probed = fiat_fleet::run_sharded_probed(
            &inputs.homes,
            reference.shards,
            &fiat_probe::ProbeConfig::default(),
        );
        check_fleet(&probed.fleet.stats, &probed.fleet.registry, reference, ctx);
        let p = &probed.profile;
        rounds.push(TracedRound {
            render_ns,
            fleet_plan_ns: p.coordinator.stage_nanos(fiat_probe::Stage::Dispatch),
            fleet_steals: p.shards.iter().map(|s| s.steals).sum(),
            fleet_merge_wait_share: p.stage_share(fiat_probe::Stage::MergeWait),
            fleet_decide_share: p.stage_share(fiat_probe::Stage::Decide),
            probe,
            round,
        });
    }
    println!("rounds: {}", rounds.len());
    trace::check_rounds(&rounds, ctx);
    let first = &rounds[0].round;
    let shares: Vec<f64> = rounds.iter().map(|r| r.round.setup_share()).collect();
    guards(inputs, first, median(&shares), ctx);
    let metrics = layer_metrics(&mut rounds, span_ns, inputs.homes.len());
    let value = |name: &str| metrics.iter().find(|m| m.0 == name).map_or(0.0, |m| m.1);
    // The attribution bar holds at the workloads' real sizes; at the
    // tests' tiny scales a few homes' timing noise dominates the ratio.
    let coverage = value("trace.coverage");
    let enforced = args.scale >= 1.0;
    let ok = coverage >= 0.95 || !enforced;
    println!(
        "guard trace_coverage = {coverage:.4} (>= 0.95{}) {}",
        if enforced {
            ""
        } else {
            ", not enforced below scale 1"
        },
        if ok { "ok" } else { "FAILED" }
    );
    ctx.check(ok, || {
        format!("traced spans cover {coverage:.4} of serving time")
    });
    if inputs.kind == Kind::Churn {
        let share = trace::fixed_cost_share(&rounds);
        let ok = share >= 0.15;
        println!(
            "guard setup_learn_merge_share = {share:.4} (>= 0.15) {}",
            if ok { "ok" } else { "FAILED" }
        );
        ctx.check(ok, || {
            format!("churn set-up + learn + merge share {share:.4}")
        });
    }
    metrics
}

/// A JSON number with every digit the measurement has.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "host: nproc {nproc}, seed {}, profile {profile}, workload {}, trace {}, seconds {}, scale {}",
        args.seed,
        args.kind.name(),
        u8::from(args.trace),
        args.seconds,
        args.scale
    );
    let t = Instant::now();
    let inputs = workload::generate(args.kind, args.seed, args.scale);
    let proofs: usize = inputs.scripts.iter().map(|s| s.proofs.len()).sum();
    println!(
        "inputs: {} homes, {} packets, {} proofs per round (generated in {:.2} s)",
        inputs.homes.len(),
        inputs.packets,
        proofs,
        t.elapsed().as_secs_f64()
    );
    let fleet = fiat_fleet::run_sequential(&inputs.homes);
    let reference = Reference {
        exposition: fleet.registry.render_prometheus(),
        fleet,
        shards: nproc.min(inputs.homes.len()),
    };

    let mut ctx = Ctx::default();
    let metrics = if args.trace {
        traced(&inputs, &args, &reference, &mut ctx)
    } else {
        untraced(&inputs, &args, &reference, &mut ctx)
    };
    // Peak resident set, where the platform reports it.
    if let Some(peak) = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .map(str::to_owned)
        })
    {
        println!("memory: {peak}");
    }
    let failed_ratio = ctx.failed as f64 / ctx.attempted.max(1) as f64;
    println!(
        "operations: {} attempted, {} failed, failed_ratio {failed_ratio}",
        ctx.attempted, ctx.failed
    );
    for msg in &ctx.messages {
        println!("FAILED: {msg}");
    }
    for (name, value, unit) in &metrics {
        println!("metric {name} = {} {unit}", json_number(*value));
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ctx.failed == 0,
        ctx.attempted.max(1),
        ctx.failed,
        body.join(", ")
    );
    if ctx.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
