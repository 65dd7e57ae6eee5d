//! Per-shard wall-time accounting for the fleet runtime.
//!
//! The shard loop is a state machine — claim a home (own queue or a
//! steal), decide it, merge its registry, repeat — and the coordinator
//! thread adds two costs of its own: building the partition plan and
//! waiting at the join barrier. A [`ShardProfile`] buckets one thread's
//! run into named [`Stage`]s whose sum, with the residual reported as
//! [`Stage::Idle`], equals that thread's measured wall time by
//! construction — so the breakdown always accounts for 100% of where
//! the time went, and a flat scaling curve decomposes into named,
//! rankable costs.
//!
//! Every stage in a row is measured *on that row's thread*. Coordinator
//! stages ([`Stage::Dispatch`] plan time, [`Stage::MergeWait`] barrier
//! skew) live on their own `coord` row in [`FleetProfile`], never inside
//! a shard's row — PR 6's profiler folded feeder time into shard rows,
//! which made stage totals exceed wall time at low shard counts and the
//! ranker emit a bogus "dispatch 98.6%" verdict. The ranker now
//! normalizes each stage against the wall time of the thread that
//! measured it, so cross-thread over-accounting cannot happen.

use fiat_telemetry::MetricRegistry;
use std::fmt::Write as _;
use std::time::Duration;

/// A named time bucket in the shard/fleet breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Shard claiming its next home (own queue or a steal scan).
    Recv,
    /// Shard running a home's capture through its proxy (useful work).
    Decide,
    /// Shard folding a finished home's registry and stats into its own.
    Merge,
    /// Coordinator building the cost-aware partition plan.
    Dispatch,
    /// Join-barrier skew: how much later the last shard finished than
    /// the first (coordinator row).
    MergeWait,
    /// Residual: a thread's wall time not attributed to any measured
    /// stage (loop bookkeeping, probe overhead itself).
    Idle,
}

impl Stage {
    /// All stages, in breakdown-table column order.
    pub const ALL: [Stage; 6] = [
        Stage::Recv,
        Stage::Decide,
        Stage::Merge,
        Stage::Dispatch,
        Stage::MergeWait,
        Stage::Idle,
    ];

    /// Directly measured stages (everything but the derived residual).
    pub const MEASURED: [Stage; 5] = [
        Stage::Recv,
        Stage::Decide,
        Stage::Merge,
        Stage::Dispatch,
        Stage::MergeWait,
    ];

    /// Stages accumulated inside the shard claim loop.
    pub const IN_SHARD: [Stage; 3] = [Stage::Recv, Stage::Decide, Stage::Merge];

    /// Stages measured on the coordinator thread.
    pub const COORDINATOR: [Stage; 2] = [Stage::Dispatch, Stage::MergeWait];

    /// Stable snake_case name used as the telemetry `stage` label.
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Recv => "recv",
            Stage::Decide => "decide",
            Stage::Merge => "merge",
            Stage::Dispatch => "dispatch",
            Stage::MergeWait => "merge_wait",
            Stage::Idle => "idle",
        }
    }

    /// What to suspect when this stage dominates non-decide time.
    fn suspicion(self) -> &'static str {
        match self {
            Stage::Recv => "work-claim overhead: shards contending on the claim queues",
            Stage::Decide => "serial per-home decide cost (allocation or locks in the shard loop)",
            Stage::Merge => "per-home registry merge cost inside the shard loop",
            Stage::Dispatch => "partition planning cost on the coordinator",
            Stage::MergeWait => {
                "join-barrier skew: uneven shard finish times (stealing not keeping up)"
            }
            Stage::Idle => "unattributed shard time (probe or loop overhead)",
        }
    }

    fn index(self) -> usize {
        match self {
            Stage::Recv => 0,
            Stage::Decide => 1,
            Stage::Merge => 2,
            Stage::Dispatch => 3,
            Stage::MergeWait => 4,
            Stage::Idle => 5,
        }
    }
}

/// One thread's accounted run (a shard's claim loop, or the
/// coordinator's plan + barrier row).
#[derive(Debug, Clone, Default)]
pub struct ShardProfile {
    /// Shard index (unused on the coordinator row).
    pub shard: usize,
    /// Nanoseconds per stage ([`Stage::index`] order). `Idle` is not
    /// written directly; it is derived as the wall residual.
    nanos: [u64; 6],
    /// Heap allocations per stage (from [`crate::alloc`]'s per-thread
    /// counter; all zero unless the binary installs the counting
    /// allocator).
    allocs: [u64; 6],
    /// The thread's total accounted wall time.
    pub wall_nanos: u64,
    /// Homes this shard decided (assigned claims plus steals).
    pub homes: u64,
    /// Packets this shard decided.
    pub packets: u64,
    /// Homes the partition plan statically assigned to this shard.
    pub assigned: u64,
    /// Homes this shard claimed from *other* shards' queues.
    pub steals: u64,
}

impl ShardProfile {
    /// An empty profile for `shard`.
    pub fn new(shard: usize) -> Self {
        ShardProfile {
            shard,
            ..Default::default()
        }
    }

    /// Add measured time to a stage.
    pub fn add(&mut self, stage: Stage, d: Duration) {
        self.nanos[stage.index()] += d.as_nanos() as u64;
    }

    /// Add an allocation count to a stage.
    pub fn add_allocs(&mut self, stage: Stage, n: u64) {
        self.allocs[stage.index()] += n;
    }

    /// Nanoseconds attributed to a stage. [`Stage::Idle`] is the wall
    /// residual after every measured stage (zero if over-accounted).
    pub fn stage_nanos(&self, stage: Stage) -> u64 {
        if stage == Stage::Idle {
            let accounted: u64 = Stage::MEASURED.iter().map(|s| self.nanos[s.index()]).sum();
            self.wall_nanos.saturating_sub(accounted)
        } else {
            self.nanos[stage.index()]
        }
    }

    /// Allocations attributed to a stage.
    pub fn stage_allocs(&self, stage: Stage) -> u64 {
        self.allocs[stage.index()]
    }

    /// Fraction of this thread's wall time accounted by measured stages
    /// plus the idle residual (1.0 by construction unless stages
    /// over-accounted past the wall, which caps at 1.0 too).
    pub fn coverage(&self) -> f64 {
        if self.wall_nanos == 0 {
            return 1.0;
        }
        let total: u64 = Stage::MEASURED
            .iter()
            .map(|s| self.stage_nanos(*s))
            .sum::<u64>()
            + self.stage_nanos(Stage::Idle);
        (total as f64 / self.wall_nanos as f64).min(1.0)
    }
}

/// The whole fleet run, accounted.
#[derive(Debug, Clone, Default)]
pub struct FleetProfile {
    /// Per-shard profiles, in shard order.
    pub shards: Vec<ShardProfile>,
    /// The coordinator thread's row: [`Stage::Dispatch`] (partition
    /// planning) and [`Stage::MergeWait`] (join-barrier skew), with
    /// `wall_nanos` equal to their sum so the row covers itself. Never
    /// folded into a shard's row.
    pub coordinator: ShardProfile,
    /// Wall time of the whole sharded run (plan to fold complete).
    pub wall_nanos: u64,
    /// Time the collector spent folding shard outcomes after the
    /// barrier.
    pub fold_nanos: u64,
    /// Flight-recorder volume, if one ran: (recorded, evicted).
    pub recorder_events: Option<(u64, u64)>,
}

impl FleetProfile {
    /// Total nanoseconds for one stage across every row (shards plus
    /// the coordinator; each stage is only ever non-zero on the thread
    /// kind that measures it).
    pub fn stage_total(&self, stage: Stage) -> u64 {
        self.shards
            .iter()
            .map(|s| s.stage_nanos(stage))
            .sum::<u64>()
            + self.coordinator.stage_nanos(stage)
    }

    fn shard_wall(&self) -> u64 {
        self.shards.iter().map(|s| s.wall_nanos).sum()
    }

    /// A stage's share of the wall time of the thread kind that
    /// measures it: shard stages against total shard wall time,
    /// coordinator stages against the fleet run's wall. 0.0 when
    /// nothing ran; capped at 1.0.
    pub fn stage_share(&self, stage: Stage) -> f64 {
        let (num, den) = if Stage::COORDINATOR.contains(&stage) {
            (self.coordinator.stage_nanos(stage), self.wall_nanos)
        } else {
            (
                self.shards.iter().map(|s| s.stage_nanos(stage)).sum(),
                self.shard_wall(),
            )
        };
        if den == 0 {
            0.0
        } else {
            (num as f64 / den as f64).min(1.0)
        }
    }

    /// Minimum per-shard coverage: how much of each shard's measured
    /// wall time the breakdown explains. The acceptance bar is ≥ 0.95;
    /// by construction (idle = residual) this is 1.0.
    pub fn coverage(&self) -> f64 {
        self.shards.iter().map(|s| s.coverage()).fold(1.0, f64::min)
    }

    /// Non-decide stages ranked by share of the wall time of the thread
    /// that measured them, largest first — the suspected parallelism
    /// eaters. Shard stages and coordinator stages are each normalized
    /// on their own thread kind, so a stage can never be blamed for
    /// more time than its thread had (the PR 6 over-accounting bug).
    pub fn ranked_suspects(&self) -> Vec<(Stage, f64)> {
        let mut v: Vec<(Stage, f64)> = [
            Stage::Recv,
            Stage::Merge,
            Stage::Idle,
            Stage::Dispatch,
            Stage::MergeWait,
        ]
        .iter()
        .map(|&s| (s, self.stage_share(s)))
        .collect();
        v.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        v
    }

    /// The ranked "top suspected bottleneck" line for the profile
    /// report. Always non-empty.
    pub fn top_bottleneck(&self) -> String {
        match self.ranked_suspects().into_iter().next() {
            Some((stage, share)) => format!(
                "top suspected bottleneck: {} {:.1}% — {}",
                stage.as_str(),
                share * 100.0,
                stage.suspicion()
            ),
            None => "top suspected bottleneck: none (no shards profiled)".to_string(),
        }
    }

    /// Render the per-thread / per-stage breakdown table
    /// (milliseconds): one row per shard, one `coord` row for the
    /// coordinator's own stages, and a fleet totals row.
    pub fn breakdown_table(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{:>6} {:>9}", "shard", "wall-ms");
        for s in Stage::ALL {
            let _ = write!(out, " {:>10}", s.as_str());
        }
        let _ = writeln!(
            out,
            " {:>8} {:>8} {:>7} {:>12}",
            "homes", "assigned", "steals", "allocs"
        );
        let ms = |n: u64| n as f64 / 1e6;
        let row_allocs =
            |sp: &ShardProfile| -> u64 { Stage::ALL.iter().map(|s| sp.stage_allocs(*s)).sum() };
        for sp in &self.shards {
            let _ = write!(out, "{:>6} {:>9.1}", sp.shard, ms(sp.wall_nanos));
            for s in Stage::ALL {
                let _ = write!(out, " {:>10.1}", ms(sp.stage_nanos(s)));
            }
            let _ = writeln!(
                out,
                " {:>8} {:>8} {:>7} {:>12}",
                sp.homes,
                sp.assigned,
                sp.steals,
                row_allocs(sp)
            );
        }
        let _ = write!(
            out,
            "{:>6} {:>9.1}",
            "coord",
            ms(self.coordinator.wall_nanos)
        );
        for s in Stage::ALL {
            let _ = write!(out, " {:>10.1}", ms(self.coordinator.stage_nanos(s)));
        }
        let _ = writeln!(
            out,
            " {:>8} {:>8} {:>7} {:>12}",
            0,
            0,
            0,
            row_allocs(&self.coordinator)
        );
        let _ = write!(out, "{:>6} {:>9.1}", "total", ms(self.shard_wall()));
        for s in Stage::ALL {
            let _ = write!(out, " {:>10.1}", ms(self.stage_total(s)));
        }
        let homes: u64 = self.shards.iter().map(|s| s.homes).sum();
        let assigned: u64 = self.shards.iter().map(|s| s.assigned).sum();
        let steals: u64 = self.shards.iter().map(|s| s.steals).sum();
        let allocs: u64 =
            self.shards.iter().map(row_allocs).sum::<u64>() + row_allocs(&self.coordinator);
        let _ = writeln!(
            out,
            " {:>8} {:>8} {:>7} {:>12}",
            homes, assigned, steals, allocs
        );
        out
    }

    /// Publish the profile into a registry (the probe registry, *not*
    /// the deterministic merged fleet registry):
    /// `fiat_fleet_shard_busy_ms{shard,stage}` (shard rows plus
    /// `shard="coord"` for coordinator stages),
    /// `fiat_fleet_assigned_homes{shard}`,
    /// `fiat_fleet_steals_total{shard}`,
    /// `fiat_fleet_shard_allocs{shard,stage}`, the
    /// `fiat_fleet_merge_wait_us` barrier-skew histogram, and — when a
    /// flight recorder ran — the `fiat_probe_ring_evicted_ratio` gauge.
    pub fn publish(&self, registry: &MetricRegistry) {
        registry.describe(
            "fiat_fleet_shard_busy_ms",
            "Wall time a thread spent in each accounted stage (coordinator stages under shard=\"coord\").",
        );
        registry.describe(
            "fiat_fleet_assigned_homes",
            "Homes the cost-aware partition plan statically assigned to each shard.",
        );
        registry.describe(
            "fiat_fleet_steals_total",
            "Homes a shard claimed from other shards' queues (work-stealing tail).",
        );
        registry.describe(
            "fiat_fleet_shard_allocs",
            "Heap allocations attributed to a shard stage (0 unless the counting allocator is installed).",
        );
        registry.describe(
            "fiat_fleet_merge_wait_us",
            "Join-barrier skew: how much later the last shard finished than the first.",
        );
        let merge_wait = registry.histogram("fiat_fleet_merge_wait_us", &[]);
        for sp in &self.shards {
            let shard = sp.shard.to_string();
            for s in Stage::ALL {
                let labels = [("shard", shard.as_str()), ("stage", s.as_str())];
                registry
                    .gauge("fiat_fleet_shard_busy_ms", &labels)
                    .set((sp.stage_nanos(s) / 1_000_000) as i64);
                registry
                    .gauge("fiat_fleet_shard_allocs", &labels)
                    .set(sp.stage_allocs(s) as i64);
            }
            registry
                .gauge("fiat_fleet_assigned_homes", &[("shard", shard.as_str())])
                .set(sp.assigned as i64);
            registry
                .counter("fiat_fleet_steals_total", &[("shard", shard.as_str())])
                .add(sp.steals);
        }
        for s in Stage::COORDINATOR {
            registry
                .gauge(
                    "fiat_fleet_shard_busy_ms",
                    &[("shard", "coord"), ("stage", s.as_str())],
                )
                .set((self.coordinator.stage_nanos(s) / 1_000_000) as i64);
        }
        merge_wait.record(self.coordinator.stage_nanos(Stage::MergeWait) / 1_000);
        if let Some((total, dropped)) = self.recorder_events {
            registry.describe(
                "fiat_probe_ring_evicted_ratio",
                "Per-mille of flight-recorder events evicted from the bounded rings (1000 = nothing retained).",
            );
            let permille = dropped.saturating_mul(1000).checked_div(total).unwrap_or(0) as i64;
            registry
                .gauge("fiat_probe_ring_evicted_ratio", &[])
                .set(permille);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile_with(shard: usize, wall_ms: u64, decide_ms: u64, recv_ms: u64) -> ShardProfile {
        let mut p = ShardProfile::new(shard);
        p.wall_nanos = wall_ms * 1_000_000;
        p.add(Stage::Decide, Duration::from_millis(decide_ms));
        p.add(Stage::Recv, Duration::from_millis(recv_ms));
        p
    }

    fn coordinator_with(dispatch_ms: u64, skew_ms: u64) -> ShardProfile {
        let mut c = ShardProfile::new(0);
        c.add(Stage::Dispatch, Duration::from_millis(dispatch_ms));
        c.add(Stage::MergeWait, Duration::from_millis(skew_ms));
        c.wall_nanos = (dispatch_ms + skew_ms) * 1_000_000;
        c
    }

    #[test]
    fn idle_is_the_wall_residual_and_coverage_is_total() {
        let p = profile_with(0, 100, 60, 25);
        assert_eq!(p.stage_nanos(Stage::Decide), 60_000_000);
        assert_eq!(p.stage_nanos(Stage::Idle), 15_000_000);
        assert!((p.coverage() - 1.0).abs() < 1e-9);
        // Over-accounting (stages > wall) caps coverage at 1.0.
        let p = profile_with(1, 10, 20, 0);
        assert_eq!(p.stage_nanos(Stage::Idle), 0);
        assert!(p.coverage() <= 1.0);
    }

    #[test]
    fn fleet_coverage_meets_the_acceptance_bar() {
        let fp = FleetProfile {
            shards: vec![profile_with(0, 100, 70, 20), profile_with(1, 100, 40, 55)],
            coordinator: coordinator_with(1, 2),
            wall_nanos: 110_000_000,
            fold_nanos: 1_000_000,
            recorder_events: None,
        };
        assert!(fp.coverage() >= 0.95);
        assert!((fp.stage_share(Stage::Decide) - 0.55).abs() < 1e-9);
    }

    #[test]
    fn bottleneck_ranking_names_the_dominant_non_decide_stage() {
        let a = profile_with(0, 100, 30, 65);
        let fp = FleetProfile {
            shards: vec![a],
            coordinator: coordinator_with(0, 1),
            wall_nanos: 100_000_000,
            fold_nanos: 0,
            recorder_events: None,
        };
        let top = fp.top_bottleneck();
        assert!(top.starts_with("top suspected bottleneck: recv"), "{top}");
        assert!(top.contains("claim"), "{top}");
        let ranked = fp.ranked_suspects();
        assert_eq!(ranked[0].0, Stage::Recv);
        assert!(ranked.windows(2).all(|w| w[0].1 >= w[1].1));
    }

    #[test]
    fn coordinator_stages_stay_off_shard_rows_and_rank_against_fleet_wall() {
        // The PR 6 regression: at shards=1 the feeder's blocked time was
        // folded into shard 0's row, so stage totals summed to ~2x the
        // wall and the ranker proclaimed "dispatch 98.6%". With the
        // coordinator on its own row, shard stage totals can never
        // exceed shard wall, and coordinator stages normalize against
        // the fleet wall.
        let shard = profile_with(0, 893, 837, 23);
        let fp = FleetProfile {
            shards: vec![shard],
            coordinator: coordinator_with(2, 4),
            wall_nanos: 894_000_000,
            fold_nanos: 0,
            recorder_events: None,
        };
        // Shard rows account to exactly their own wall.
        let shard_stage_sum: u64 = Stage::ALL
            .iter()
            .map(|&s| fp.shards[0].stage_nanos(s))
            .sum();
        assert_eq!(shard_stage_sum, fp.shards[0].wall_nanos);
        // Dispatch is tiny relative to the fleet wall, so the verdict
        // cannot be a bogus dispatch blame.
        assert!(fp.stage_share(Stage::Dispatch) < 0.01);
        let top = fp.top_bottleneck();
        assert!(!top.contains("dispatch"), "{top}");
        // Every ranked share is a sane fraction.
        for (stage, share) in fp.ranked_suspects() {
            assert!(
                (0.0..=1.0).contains(&share),
                "{} share {share}",
                stage.as_str()
            );
        }
    }

    #[test]
    fn breakdown_table_has_all_stages_a_coord_row_and_a_total_row() {
        let fp = FleetProfile {
            shards: vec![profile_with(0, 50, 40, 5), profile_with(1, 50, 35, 10)],
            coordinator: coordinator_with(1, 3),
            wall_nanos: 55_000_000,
            fold_nanos: 0,
            recorder_events: None,
        };
        let t = fp.breakdown_table();
        for s in Stage::ALL {
            assert!(t.contains(s.as_str()), "missing {}", s.as_str());
        }
        assert!(t.contains("coord"));
        assert!(t.contains("assigned"));
        assert!(t.contains("steals"));
        assert!(t.contains("total"));
        assert_eq!(t.lines().count(), 5); // header + 2 shards + coord + total
    }

    #[test]
    fn publish_writes_probe_metrics() {
        let mut p = profile_with(0, 100, 60, 25);
        p.assigned = 5;
        p.steals = 2;
        p.add_allocs(Stage::Decide, 11);
        let fp = FleetProfile {
            shards: vec![p],
            coordinator: coordinator_with(1, 7),
            wall_nanos: 100_000_000,
            fold_nanos: 0,
            recorder_events: Some((1000, 250)),
        };
        let r = MetricRegistry::new();
        fp.publish(&r);
        assert_eq!(
            r.gauge(
                "fiat_fleet_shard_busy_ms",
                &[("shard", "0"), ("stage", "decide")]
            )
            .get(),
            60
        );
        assert_eq!(
            r.gauge(
                "fiat_fleet_shard_busy_ms",
                &[("shard", "coord"), ("stage", "merge_wait")]
            )
            .get(),
            7
        );
        assert_eq!(
            r.gauge("fiat_fleet_assigned_homes", &[("shard", "0")])
                .get(),
            5
        );
        assert_eq!(
            r.counter("fiat_fleet_steals_total", &[("shard", "0")])
                .get(),
            2
        );
        assert_eq!(
            r.gauge(
                "fiat_fleet_shard_allocs",
                &[("shard", "0"), ("stage", "decide")]
            )
            .get(),
            11
        );
        let h = r.histogram("fiat_fleet_merge_wait_us", &[]);
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), 7_000);
        assert_eq!(r.gauge("fiat_probe_ring_evicted_ratio", &[]).get(), 250);
    }

    #[test]
    fn publish_writes_every_shard_alloc_series_even_at_zero() {
        let fp = FleetProfile {
            shards: vec![profile_with(0, 10, 5, 1), profile_with(1, 10, 5, 1)],
            coordinator: coordinator_with(1, 1),
            wall_nanos: 10_000_000,
            fold_nanos: 0,
            recorder_events: None,
        };
        let r = MetricRegistry::new();
        fp.publish(&r);
        let gauges = r.snapshot().gauges;
        // (shard, stage) of every zero-valued allocation series; labels
        // are sorted by key, so shard comes first.
        let zero_allocs: Vec<(&str, &str)> = gauges
            .iter()
            .filter(|g| g.name == "fiat_fleet_shard_allocs" && g.value == 0)
            .map(|g| (g.labels[0].1.as_str(), g.labels[1].1.as_str()))
            .collect();
        assert_eq!(zero_allocs.len(), 2 * Stage::ALL.len());
        for shard in ["0", "1"] {
            for s in Stage::ALL {
                assert!(zero_allocs.contains(&(shard, s.as_str())), "{shard} {s:?}");
            }
        }
    }
}
