//! The fleet throughput experiment: sweep shard counts over a fixed
//! multi-home corpus and report packets/s, verifying at every point that
//! the sharded run merges to the exact sequential fleet view.
//!
//! This is the repo's first throughput trajectory (BENCH_*.json material)
//! rather than a paper artifact: the paper runs one proxy per home; the
//! ROADMAP target is a provider-scale fleet.

use crate::bench_log::{self, BenchRecord, BenchRow};
use fiat_fleet::{build_workloads, run_sequential, run_sharded, FleetOutcome};
use fiat_telemetry::MetricRegistry;
use std::fmt::Write as _;
use std::time::Instant;

/// One measured sweep point.
#[derive(Debug, Clone)]
pub struct FleetRow {
    /// Worker threads used.
    pub shards: usize,
    /// Packets decided across all homes.
    pub packets: u64,
    /// Wall time of the sharded run, microseconds.
    pub micros: u64,
    /// Throughput in packets per second.
    pub pps: f64,
    /// Whether this run's merged stats and registry exposition were
    /// byte-identical to the sequential reference.
    pub deterministic: bool,
}

/// Full sweep output.
pub struct FleetReport {
    /// Sweep points, in increasing shard count.
    pub rows: Vec<FleetRow>,
    /// Homes in the corpus.
    pub homes: usize,
    /// The sequential reference outcome (fleet-wide merged view).
    pub reference: FleetOutcome,
}

/// Shard counts to sweep: powers of two up to and including `max`.
pub fn shard_counts(max: usize) -> Vec<usize> {
    let max = max.max(1);
    let mut counts = Vec::new();
    let mut s = 1;
    while s < max {
        counts.push(s);
        s *= 2;
    }
    counts.push(max);
    counts
}

/// Run the sweep. Corpus generation and the sequential reference run are
/// outside the timed region; each sweep point times only `run_sharded`.
/// With a registry, per-shard-count throughput lands in
/// `fiat_fleet_packets_per_sec{shards="N"}` gauges.
pub fn fleet_benchmark(
    homes: usize,
    shards_max: usize,
    days: f64,
    seed: u64,
    registry: Option<&MetricRegistry>,
) -> FleetReport {
    let workloads = build_workloads(homes, days, seed);
    let reference = run_sequential(&workloads);
    if let Some(r) = registry {
        r.describe(
            "fiat_fleet_packets_per_sec",
            "Fleet decision throughput at each swept shard count.",
        );
        r.describe("fiat_fleet_homes", "Homes in the fleet corpus.");
        r.describe("fiat_fleet_packets", "Packets decided per full fleet run.");
        r.gauge("fiat_fleet_homes", &[]).set(homes as i64);
        r.gauge("fiat_fleet_packets", &[])
            .set(reference.packets as i64);
    }

    let mut rows = Vec::new();
    for shards in shard_counts(shards_max) {
        let t0 = Instant::now();
        let fleet = run_sharded(&workloads, shards);
        let micros = (t0.elapsed().as_micros() as u64).max(1);
        let deterministic = fleet.stats == reference.stats
            && fleet.packets == reference.packets
            && fleet.registry.render_prometheus() == reference.registry.render_prometheus();
        let pps = fleet.packets as f64 * 1e6 / micros as f64;
        if let Some(r) = registry {
            r.gauge(
                "fiat_fleet_packets_per_sec",
                &[("shards", shards.to_string().as_str())],
            )
            .set(pps as i64);
        }
        rows.push(FleetRow {
            shards,
            packets: fleet.packets,
            micros,
            pps,
            deterministic,
        });
    }
    FleetReport {
        rows,
        homes,
        reference,
    }
}

/// Lower a sweep into a `BENCH_fleet.json` trajectory record.
pub fn fleet_bench_record(report: &FleetReport, days: f64, seed: u64) -> BenchRecord {
    BenchRecord {
        date: bench_log::today_utc(),
        source: "fleet",
        note: None,
        seed,
        homes: report.homes,
        days,
        rows: report
            .rows
            .iter()
            .map(|r| BenchRow {
                shards: r.shards,
                packets: r.packets,
                wall_ms: r.micros as f64 / 1e3,
                pps: r.pps,
            })
            .collect(),
        stages: Vec::new(),
        bottleneck: None,
    }
}

/// Render an already-run sweep as text (the `experiments fleet` output).
pub fn fleet_report_text(report: &FleetReport, days: f64, seed: u64) -> String {
    let s = &report.reference.stats;
    let mut out = String::new();
    writeln!(
        out,
        "# Fleet throughput: {} homes x {} days (seed {seed})",
        report.homes, days
    )
    .unwrap();
    writeln!(
        out,
        "corpus: {} packets; merged stats: total={} rule_hit={} dropped={}",
        report.reference.packets,
        s.total(),
        s.rule_hit,
        s.dropped(),
    )
    .unwrap();
    writeln!(
        out,
        "{:>6} {:>12} {:>12} {:>12} {:>13}",
        "shards", "packets", "wall-ms", "packets/s", "deterministic"
    )
    .unwrap();
    let base = report.rows.first().map(|r| r.pps).unwrap_or(0.0);
    for r in &report.rows {
        writeln!(
            out,
            "{:>6} {:>12} {:>12.1} {:>12.0} {:>13} ({:.2}x)",
            r.shards,
            r.packets,
            r.micros as f64 / 1e3,
            r.pps,
            if r.deterministic { "yes" } else { "NO" },
            if base > 0.0 { r.pps / base } else { 0.0 },
        )
        .unwrap();
    }
    if report.rows.iter().all(|r| r.deterministic) {
        writeln!(
            out,
            "every sharded run merged to the sequential reference exactly"
        )
        .unwrap();
    } else {
        writeln!(out, "WARNING: sharded merge diverged from the reference").unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_count_sweep_shape() {
        assert_eq!(shard_counts(1), vec![1]);
        assert_eq!(shard_counts(2), vec![1, 2]);
        assert_eq!(shard_counts(8), vec![1, 2, 4, 8]);
        assert_eq!(shard_counts(6), vec![1, 2, 4, 6]);
        assert_eq!(shard_counts(0), vec![1]);
    }

    #[test]
    fn benchmark_is_deterministic_and_instrumented() {
        let registry = MetricRegistry::new();
        let report = fleet_benchmark(3, 2, 0.05, 11, Some(&registry));
        assert_eq!(report.rows.len(), 2);
        assert!(report.rows.iter().all(|r| r.deterministic));
        assert!(report.rows.iter().all(|r| r.packets > 0));
        assert!(
            registry
                .gauge("fiat_fleet_packets_per_sec", &[("shards", "2")])
                .get()
                > 0
        );
        assert_eq!(
            registry.gauge("fiat_fleet_packets", &[]).get() as u64,
            report.reference.packets
        );
        let text = fleet_report_text(&report, 0.05, 11);
        assert!(text.contains("packets/s"));
        assert!(text.contains("sequential reference"));
    }
}
