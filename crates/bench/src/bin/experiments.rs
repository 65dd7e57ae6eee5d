//! Regenerate every table and figure of the FIAT paper.
//!
//! ```text
//! experiments all                 # everything (slow; use --release)
//! experiments fig1a|fig1b|fig1c|inspector
//! experiments fig2
//! experiments hyperparams [--fast] # §4.1 sweep; --fast skips the MLP
//! experiments table2 [--fast]     # --fast skips the MLP/forest/boosting
//! experiments table3|table4|table5
//! experiments table6
//! experiments table7
//! experiments tolerance
//! experiments appendixa
//! experiments fleet [--homes H] [--shards T] [--full]  # sharded multi-home throughput sweep
//! experiments profile [--quick|--full]  # shard-scaling profile: per-stage breakdown + bottleneck
//! experiments attack [--quick]    # adversarial red-team scorecard
//! experiments fingerprint [--quick] # behavioral unknown-device gate: accuracy, spoofs, flip
//! experiments oracle [--quick]    # differential decision oracle vs naive reference
//! experiments chaos [--quick]     # chaos soak: fault injection vs graceful degradation
//! experiments control [--quick]   # control plane: enrollment, epoch lifecycle, outage, rebalance
//! experiments soak [--quick]      # long-horizon soak: weeks of streamed traffic under a memory budget
//! ```
//!
//! Scale knobs: `--days N` (testbed capture length, default 8),
//! `--seed N` (default 42). The fleet sweep adds `--homes H` (default 8)
//! and `--shards T` (max worker threads, default 8); it is not part of
//! `all` — it measures this implementation, not a paper artifact. The
//! profile sweep defaults to the 1k-home corpus at 0.05 days; `--quick`
//! shrinks it to 32 homes for CI smokes and `--full` grows it to the
//! 10k-home corpus (the provider-scale trajectory point — also accepted
//! by `fleet`), unless `--homes`/`--days` override. Output is plain
//! text; every row is also
//! mirrored to `results/<name>.txt` when `--save` is given, along with a
//! telemetry snapshot in `results/<name>_metrics.json` (harness timings
//! for every experiment; full proxy decision-path metrics for those that
//! drive a `FiatProxy`, e.g. table6). With `--save`, `fleet`, `profile`,
//! and `soak` also append a trajectory record to `BENCH_fleet.json`,
//! `profile` dumps its flight-recorder timeline to
//! `results/trace_profile.jsonl`, and `soak` writes its deterministic
//! two-leg report to `results/soak_report.json`. The long soak is not
//! part of `all` — `--quick` runs the CI smoke fleet (500 homes × 15
//! simulated days), the default is the full four-week fleet.

use fiat_bench::ml_tables::ModelKind;
use fiat_bench::{
    attack_exp, bench_log, chaos_exp, control_exp, fig1, fig2, fingerprint_exp, fleet_exp,
    ml_tables, oracle_exp, profile_exp, soak_exp, table6, table7, tolerance,
};
use fiat_core::ErrorModel;
use fiat_telemetry::{MetricRegistry, Span, WallClock};
use std::fmt::Write as _;
use std::path::Path;

// Count heap allocations (process-wide and per shard thread) so
// `experiments profile` can attribute them to shard stages. Two relaxed
// atomic bumps per allocation; every other experiment is unaffected
// beyond that.
#[global_allocator]
static ALLOC: fiat_probe::CountingAllocator = fiat_probe::CountingAllocator;

struct Args {
    days: Option<f64>,
    seed: u64,
    fast: bool,
    save: bool,
    quick: bool,
    full: bool,
    homes: Option<usize>,
    shards: usize,
}

fn parse_args(rest: &[String]) -> Args {
    let mut a = Args {
        days: None,
        seed: 42,
        fast: false,
        save: false,
        quick: false,
        full: false,
        homes: None,
        shards: 8,
    };
    let mut i = 0;
    while i < rest.len() {
        match rest[i].as_str() {
            "--days" => {
                a.days = Some(
                    rest.get(i + 1)
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| die("--days needs a number")),
                );
                i += 1;
            }
            "--seed" => {
                a.seed = rest
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--seed needs a number"));
                i += 1;
            }
            "--homes" => {
                a.homes = Some(
                    rest.get(i + 1)
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| die("--homes needs a number")),
                );
                i += 1;
            }
            "--shards" => {
                a.shards = rest
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--shards needs a number"));
                i += 1;
            }
            "--fast" => a.fast = true,
            "--save" => a.save = true,
            "--quick" => a.quick = true,
            "--full" => a.full = true,
            other => die(&format!("unknown flag {other}")),
        }
        i += 1;
    }
    a
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn appendixa_text() -> String {
    let mut out = String::new();
    writeln!(out, "# Appendix A: closed-form FP/FN model").unwrap();
    writeln!(
        out,
        "{:<26} {:>8} {:>8} {:>8} {:>10}",
        "operating point", "FP-N %", "FP-M %", "FN %", "FN term2 %"
    )
    .unwrap();
    for (label, rm, rnm) in [
        ("EchoDot4 (.980/.985)", 0.980, 0.985),
        ("E4 (.960/.955)", 0.960, 0.955),
        ("perfect (1.0/1.0)", 1.0, 1.0),
    ] {
        let m = ErrorModel::with_paper_validator(rm, rnm);
        writeln!(
            out,
            "{:<26} {:>8.2} {:>8.2} {:>8.2} {:>10.2}",
            label,
            m.fp_non_manual() * 100.0,
            m.fp_manual() * 100.0,
            m.false_negative() * 100.0,
            m.r_manual * (1.0 - m.r_non_human) * 100.0,
        )
        .unwrap();
    }
    writeln!(
        out,
        "\nNote: the paper's eq. (3) as printed multiplies by R_human (0.934)\n\
         instead of R_non_human (0.982); its Table 6 numbers follow the\n\
         printed form. `fp_non_manual_as_printed` reproduces them:"
    )
    .unwrap();
    let m = ErrorModel::with_paper_validator(0.980, 0.985);
    writeln!(
        out,
        "EchoDot4 printed FP-N: {:.2}% (paper: 1.40%)",
        m.fp_non_manual_as_printed() * 100.0
    )
    .unwrap();
    out
}

fn run_one(name: &str, args: &Args, registry: &MetricRegistry) -> Option<String> {
    let days = args.days.unwrap_or(8.0);
    let seed = args.seed;
    let text = match name {
        "fig1a" => fig1::fig1a(seed),
        "fig1b" => fig1::fig1b_text(65, 104, 6, seed),
        "fig1c" => fig1::fig1c_text(65, 10, seed),
        "inspector" => {
            let (fractions, median) = fig1::inspector(40, 4, seed);
            let above = fractions.iter().filter(|&&f| f > 0.85).count();
            format!(
                "# IoT-Inspector-style 5 s aggregation\n\
                 devices: {}  median predictability: {:.3}\n\
                 devices above 85 %: {} ({:.0}%)  (paper: half of devices > 85 %)\n",
                fractions.len(),
                median,
                above,
                100.0 * above as f64 / fractions.len() as f64
            )
        }
        "fig2" => fig2::fig2_text(days, seed),
        "hyperparams" => ml_tables::hyperparams_text(days, seed, !args.fast),
        "table2" => {
            let models: &[ModelKind] = if args.fast {
                &[
                    ModelKind::NearestCentroid,
                    ModelKind::BernoulliNb,
                    ModelKind::GaussianNb,
                    ModelKind::DecisionTree,
                    ModelKind::KNearestNeighbors,
                ]
            } else {
                &ModelKind::ALL
            };
            ml_tables::table2_text(days, seed, models)
        }
        "table3" => ml_tables::table3_text(days, seed),
        "table4" => ml_tables::table4_text(days, seed, 50),
        "table5" => ml_tables::table5_text(days, seed),
        "table6" => table6::table6_text(days.max(4.0), 2.0, seed, Some(registry)),
        "table7" => table7::table7_text(200, seed),
        "fleet" => {
            let homes = args.homes.unwrap_or(if args.full { 10_000 } else { 8 });
            // The 10k-home corpus pairs with a short capture (same as the
            // profile sweep) — provider scale comes from home count, not
            // per-home trace length.
            let days = args.days.unwrap_or(if args.full { 0.05 } else { 8.0 });
            let report = fleet_exp::fleet_benchmark(homes, args.shards, days, seed, Some(registry));
            if args.save {
                let record = fleet_exp::fleet_bench_record(&report, days, seed);
                if let Err(e) =
                    bench_log::append_fleet_record(Path::new(bench_log::BENCH_FLEET_PATH), &record)
                {
                    eprintln!("warning: {} not updated: {e}", bench_log::BENCH_FLEET_PATH);
                }
            }
            fleet_exp::fleet_report_text(&report, days, seed)
        }
        "profile" => {
            // The profiling sweep defaults to the 1k-home corpus at a
            // short capture; --quick shrinks the corpus for CI smokes,
            // --full grows it to the 10k-home trajectory point.
            let homes = args.homes.unwrap_or(match (args.quick, args.full) {
                (true, _) => 32,
                (_, true) => 10_000,
                _ => 1000,
            });
            let days = args.days.unwrap_or(0.05);
            let report = profile_exp::profile_run(homes, args.shards, days, seed, Some(registry));
            if args.save {
                std::fs::create_dir_all("results").expect("create results dir");
                if let Some(trace) = &report.trace_jsonl {
                    std::fs::write("results/trace_profile.jsonl", trace)
                        .expect("write flight-recorder trace");
                }
                if let Err(e) = bench_log::append_fleet_record(
                    Path::new(bench_log::BENCH_FLEET_PATH),
                    &report.record,
                ) {
                    eprintln!("warning: {} not updated: {e}", bench_log::BENCH_FLEET_PATH);
                }
            }
            report.text
        }
        "soak" => {
            let outcome = soak_exp::soak_outcome(seed, args.quick, Some(registry));
            if args.save {
                std::fs::create_dir_all("results").expect("create results dir");
                // The deterministic two-leg report (no wall times) —
                // byte-identical across runs at the same seed, unlike
                // the registry snapshot the main loop writes.
                std::fs::write("results/soak_report.json", &outcome.json)
                    .expect("write soak report");
                if let Err(e) = bench_log::append_fleet_record(
                    Path::new(bench_log::BENCH_FLEET_PATH),
                    &outcome.bench_record(seed),
                ) {
                    eprintln!("warning: {} not updated: {e}", bench_log::BENCH_FLEET_PATH);
                }
            }
            outcome.text
        }
        "attack" => attack_exp::attack_text(seed, args.quick, Some(registry)),
        "fingerprint" => fingerprint_exp::fingerprint_text(seed, args.quick, Some(registry)),
        "oracle" => oracle_exp::oracle_text(seed, args.quick, Some(registry)),
        "chaos" => chaos_exp::chaos_text(seed, args.quick, Some(registry)),
        "control" => control_exp::control_text(seed, args.quick, Some(registry)),
        "tolerance" => tolerance::tolerance_text(),
        "appendixa" => appendixa_text(),
        _ => return None,
    };
    Some(text)
}

const ALL: [&str; 19] = [
    "fig1a",
    "fig1b",
    "fig1c",
    "inspector",
    "fig2",
    "hyperparams",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "table7",
    "tolerance",
    "appendixa",
    "attack",
    "fingerprint",
    "oracle",
    "chaos",
    "control",
];

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!(
            "usage: experiments <all|fleet|profile|soak|{}> [--days N] [--seed N] [--fast] [--save] \
             [--quick] [--full] [--homes H] [--shards T]",
            ALL.join("|")
        );
        std::process::exit(2);
    };
    let args = parse_args(rest);

    let names: Vec<&str> = if cmd == "all" {
        ALL.to_vec()
    } else {
        vec![cmd.as_str()]
    };
    for name in names {
        // A fresh registry per experiment: harness timings plus whatever
        // the experiment itself reports (table6 plumbs it into its
        // proxies), snapshotted next to the text output.
        let registry = MetricRegistry::new();
        registry.describe(
            "fiat_experiment_duration_us",
            "Wall time of one experiment run.",
        );
        registry.describe(
            "fiat_experiment_output_bytes",
            "Size of the experiment's rendered text output.",
        );
        registry.describe(
            "fiat_experiment_seed",
            "The --seed value this run used (for reproducing saved output).",
        );
        registry
            .gauge("fiat_experiment_seed", &[("experiment", name)])
            .set(args.seed as i64);
        let clock = WallClock::new();
        let duration = registry.histogram("fiat_experiment_duration_us", &[("experiment", name)]);
        let span = Span::enter(&duration, &clock);
        let Some(text) = run_one(name, &args, &registry) else {
            die(&format!("unknown experiment {name}"));
        };
        span.exit();
        registry
            .gauge("fiat_experiment_output_bytes", &[("experiment", name)])
            .set(text.len() as i64);
        println!("{text}");
        if args.save {
            std::fs::create_dir_all("results").expect("create results dir");
            std::fs::write(format!("results/{name}.txt"), &text).expect("write result");
            std::fs::write(
                format!("results/{name}_metrics.json"),
                registry.render_json(),
            )
            .expect("write metrics snapshot");
        }
    }
}
