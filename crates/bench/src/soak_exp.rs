//! The long-horizon soak experiment: weeks of streamed per-home traffic
//! under a hard memory budget (DESIGN §18, ROADMAP 5).
//!
//! Not a paper artifact — like the chaos soak this measures *this
//! implementation*: every bounded-state policy (rule-table LRU eviction,
//! quarantine record cap, checkpointed audit truncation, epoch-scoped
//! replay windows) must hold a hostile multi-week schedule inside
//! [`LongSoakConfig::budget`] with **zero false drops**, and the
//! snapshot-restore replay leg must stay in byte-identical lockstep with
//! the streamed original. A caps-disabled negative control must breach
//! the same budget — otherwise the accountant measures nothing. Output
//! is deterministic for a fixed seed and ends with a `soak: PASS` /
//! `SOAK REGRESSION` trailer CI greps for.

use crate::bench_log::{self, BenchRecord, BenchRow};
use crate::json::Value;
use fiat_chaos::{run_long_soak, LongSoakConfig, LongSoakReport};
use fiat_core::{ProxyStats, StateSize};
use fiat_telemetry::MetricRegistry;
use std::fmt::Write as _;

/// Both legs of one soak run plus the artifacts the CLI writes.
#[derive(Debug, Clone)]
pub struct SoakOutcome {
    /// Rendered text output (ends with the CI trailer).
    pub text: String,
    /// Deterministic report JSON (`results/soak_report.json`): the two
    /// legs only — no wall times, so two runs at the same seed are
    /// byte-identical.
    pub json: String,
    /// Capped-leg report.
    pub capped: LongSoakReport,
    /// Negative-control report.
    pub negative: LongSoakReport,
    /// Capped-leg wall time, milliseconds (not part of `json`).
    pub wall_ms: f64,
}

impl SoakOutcome {
    /// PASS = capped leg clean AND the negative control proves the
    /// accountant can see unbounded growth.
    pub fn passed(&self) -> bool {
        self.capped.passed() && self.negative.budget_breaches > 0
    }

    /// Trajectory record for `BENCH_fleet.json`: the capped leg as one
    /// single-shard row, with the verdict in the note.
    pub fn bench_record(&self, seed: u64) -> BenchRecord {
        let r = &self.capped;
        let pps = if self.wall_ms > 0.0 {
            r.packets as f64 / (self.wall_ms / 1_000.0)
        } else {
            0.0
        };
        BenchRecord {
            date: bench_log::today_utc(),
            source: "soak",
            note: Some(format!(
                "long soak: {} homes x {} days, hwm total {} / budget {}, {}",
                r.homes,
                r.days,
                r.hwm.total(),
                r.budget,
                if self.passed() { "PASS" } else { "REGRESSION" }
            )),
            seed,
            homes: r.homes as usize,
            days: f64::from(r.days),
            rows: vec![BenchRow {
                shards: 1,
                packets: r.packets,
                wall_ms: self.wall_ms,
                pps,
            }],
            stages: Vec::new(),
            bottleneck: None,
        }
    }
}

/// Lowers a report field into the JSON data model.
trait Lower {
    fn lower(&self) -> Value;
}

macro_rules! lower_primitive {
    ($($ty:ty),*) => {$(
        impl Lower for $ty {
            fn lower(&self) -> Value {
                Value::U64(*self as u64)
            }
        }
    )*};
}

lower_primitive!(u32, u64, usize);

/// One JSON object per struct, fields in declaration order. The
/// destructuring names every field, so a field added to one of these
/// structs fails to compile until it is placed in the document.
macro_rules! lower_struct {
    ($($ty:ident { $($field:ident),* $(,)? })*) => {$(
        impl Lower for $ty {
            fn lower(&self) -> Value {
                let $ty { $($field),* } = self;
                Value::Obj(vec![$((stringify!($field).to_string(), $field.lower())),*])
            }
        }
    )*};
}

lower_struct! {
    LongSoakReport {
        homes,
        days,
        packets,
        manual_events,
        proofs_delivered,
        false_drops,
        budget,
        samples,
        budget_breaches,
        hwm,
        audit_truncated,
        audit_appended,
        replay_checked,
        replay_decision_mismatches,
        replay_state_mismatches,
        stats,
    }
    StateSize {
        rules,
        rule_ghosts,
        open_events,
        open_packets,
        quarantine_records,
        quarantine_held,
        audit_entries,
        replay_tickets,
        replay_entries,
        replay_epochs,
        bootstrap_buffered,
        released_pending,
        fingerprint_evidence,
    }
    ProxyStats {
        bootstrap,
        rule_hit,
        first_n,
        non_manual,
        manual_verified,
        cascade,
        unknown_device,
        dropped_unverified,
        dropped_lockout,
        retro_unverified,
        quarantined,
        quarantine_released,
        dropped_quarantine,
        quarantine_expired,
        fingerprint_matched,
        dropped_unknown,
    }
}

/// Deterministic two-leg JSON document, `{"capped":…,"negative":…}`.
fn render_json(capped: &LongSoakReport, negative: &LongSoakReport) -> String {
    let doc = Value::Obj(vec![
        ("capped".to_string(), capped.lower()),
        ("negative".to_string(), negative.lower()),
    ]);
    let mut json = String::new();
    doc.write_to(&mut json);
    json.push('\n');
    json
}

fn leg_row(out: &mut String, name: &str, r: &LongSoakReport) {
    writeln!(
        out,
        "{:<9} {:>5} {:>4} {:>9} {:>6} {:>11} {:>7} {:>8} {:>9} {:>10} {:>8}",
        name,
        r.homes,
        r.days,
        r.packets,
        r.proofs_delivered,
        r.false_drops,
        r.samples,
        r.budget_breaches,
        r.hwm.total(),
        r.audit_truncated,
        r.replay_checked,
    )
    .unwrap();
}

/// Publish the capped leg's per-home high-water marks of the
/// budget-covered surfaces (`fiat_state_*_hwm`: the worst home over the
/// whole run). The negative control is not published: its deliberately
/// unbounded state is the evidence in the text, not a fleet number.
fn publish(capped: &LongSoakReport, registry: &MetricRegistry) {
    let h = &capped.hwm;
    for (name, help, v) in [
        (
            "fiat_state_rules_hwm",
            "High-water mark of live rule-table entries (LRU-capped).",
            h.rules,
        ),
        (
            "fiat_state_quarantine_records_hwm",
            "High-water mark of concurrent pending-verdict quarantine records \
             (demotion-capped).",
            h.quarantine_records,
        ),
        (
            "fiat_state_quarantine_held_hwm",
            "High-water mark of packets held across all quarantine records.",
            h.quarantine_held,
        ),
        (
            "fiat_state_audit_entries_hwm",
            "High-water mark of in-memory audit chain length (truncation-capped).",
            h.audit_entries,
        ),
    ] {
        registry.describe(name, help);
        registry.gauge(name, &[]).set(v as i64);
    }
}

/// Run both legs at explicit configurations (tests use scaled-down
/// fleets; the CLI passes `quick`/`full` + `negative`).
pub fn soak_outcome_with(
    capped_cfg: &LongSoakConfig,
    negative_cfg: &LongSoakConfig,
    seed: u64,
    registry: &MetricRegistry,
) -> SoakOutcome {
    let start = std::time::Instant::now();
    let capped = run_long_soak(capped_cfg);
    let wall_ms = start.elapsed().as_secs_f64() * 1_000.0;
    let negative = run_long_soak(negative_cfg);
    publish(&capped, registry);

    let mut out = String::new();
    writeln!(
        out,
        "# Long-horizon soak: bounded state under a memory budget"
    )
    .unwrap();
    writeln!(
        out,
        "seed: {seed}  budget: {} state elements/home  caps: rules {:?}, quarantine records {:?}, \
         audit entries {:?}",
        capped.budget,
        capped_cfg.proxy_config().max_rules,
        capped_cfg.proxy_config().max_quarantine_records,
        capped_cfg.proxy_config().max_audit_entries,
    )
    .unwrap();
    writeln!(out).unwrap();
    writeln!(
        out,
        "{:<9} {:>5} {:>4} {:>9} {:>6} {:>11} {:>7} {:>8} {:>9} {:>10} {:>8}",
        "leg",
        "homes",
        "days",
        "packets",
        "proven",
        "false-drops",
        "samples",
        "breaches",
        "hwm-total",
        "truncated",
        "replayed",
    )
    .unwrap();
    leg_row(&mut out, "capped", &capped);
    leg_row(&mut out, "uncapped", &negative);
    writeln!(out).unwrap();
    let h = &capped.hwm;
    writeln!(
        out,
        "capped hwm: rules {} (+{} ghosts)  open {}/{} pkts  quarantine {} rec / {} held  \
         audit {}  replay {} tkt / {} ent / {} ep",
        h.rules,
        h.rule_ghosts,
        h.open_events,
        h.open_packets,
        h.quarantine_records,
        h.quarantine_held,
        h.audit_entries,
        h.replay_tickets,
        h.replay_entries,
        h.replay_epochs,
    )
    .unwrap();
    writeln!(
        out,
        "audit chain: {} appended, {} truncated behind checkpoints (capped leg)",
        capped.audit_appended, capped.audit_truncated
    )
    .unwrap();
    writeln!(
        out,
        "replay leg: {} homes restored mid-soak, {} decision mismatches, {} state mismatches",
        capped.replay_checked, capped.replay_decision_mismatches, capped.replay_state_mismatches
    )
    .unwrap();
    writeln!(
        out,
        "negative control (caps off): {} budget breaches across {} samples, audit hwm {}",
        negative.budget_breaches, negative.samples, negative.hwm.audit_entries
    )
    .unwrap();
    writeln!(out).unwrap();

    let outcome_line = if capped.passed() && negative.budget_breaches > 0 {
        format!(
            "soak: PASS ({} homes x {} days streamed: 0 false drops, 0 budget breaches, \
             {} replayed homes in lockstep; negative control breached {} times)",
            capped.homes, capped.days, capped.replay_checked, negative.budget_breaches
        )
    } else if !capped.passed() {
        format!(
            "SOAK REGRESSION: {} false drops, {} budget breaches, {} replay decision mismatches, \
             {} replay state mismatches",
            capped.false_drops,
            capped.budget_breaches,
            capped.replay_decision_mismatches,
            capped.replay_state_mismatches
        )
    } else {
        "SOAK REGRESSION: the caps-disabled negative control never breached the budget — \
         the accountant is not measuring growth"
            .to_string()
    };
    writeln!(out, "{outcome_line}").unwrap();

    let json = render_json(&capped, &negative);
    SoakOutcome {
        text: out,
        json,
        capped,
        negative,
        wall_ms,
    }
}

/// Run the experiment at CLI scale: `quick` = the CI smoke fleet,
/// otherwise the full four-week fleet.
pub fn soak_outcome(seed: u64, quick: bool, registry: &MetricRegistry) -> SoakOutcome {
    let capped = if quick {
        LongSoakConfig::quick(seed)
    } else {
        LongSoakConfig::full(seed)
    };
    soak_outcome_with(&capped, &LongSoakConfig::negative(seed), seed, registry)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_pair(seed: u64) -> (LongSoakConfig, LongSoakConfig) {
        let capped = LongSoakConfig {
            homes: 4,
            days: 15,
            replay_every: 2,
            ..LongSoakConfig::quick(seed)
        };
        let negative = LongSoakConfig {
            homes: 2,
            ..LongSoakConfig::negative(seed)
        };
        (capped, negative)
    }

    #[test]
    fn tiny_soak_passes_with_trailer() {
        let (c, n) = tiny_pair(42);
        let out = soak_outcome_with(&c, &n, 42, &MetricRegistry::new());
        assert!(out.passed(), "{}", out.text);
        assert!(out.text.contains("soak: PASS"), "{}", out.text);
        assert!(!out.text.contains("SOAK REGRESSION"), "{}", out.text);
        let record = out.bench_record(42);
        assert_eq!(record.source, "soak");
        assert!(record.note.as_deref().unwrap_or("").contains("PASS"));
    }

    #[test]
    fn report_json_is_byte_identical_across_runs() {
        let (c, n) = tiny_pair(7);
        let a = soak_outcome_with(&c, &n, 7, &MetricRegistry::new());
        let b = soak_outcome_with(&c, &n, 7, &MetricRegistry::new());
        assert_eq!(a.json, b.json);
        assert_eq!(a.text, b.text);
        assert!(a.json.contains("\"capped\""));
        assert!(a.json.contains("\"budget_breaches\""));
    }

    /// `results/soak_report.json`'s layout, pinned byte for byte: field
    /// names, field order and number formatting.
    #[test]
    fn report_json_matches_golden() {
        let (c, n) = tiny_pair(7);
        let out = soak_outcome_with(&c, &n, 7, &MetricRegistry::new());
        assert_eq!(
            out.json,
            include_str!("../tests/golden/soak_report_tiny7.json")
        );
    }

    #[test]
    fn registry_collects_state_gauges() {
        let registry = MetricRegistry::new();
        let (c, n) = tiny_pair(42);
        let out = soak_outcome_with(&c, &n, 42, &registry);
        let h = &out.capped.hwm;
        assert!(h.rules > 0);
        let gauges = registry.snapshot().gauges;
        let published: Vec<(&str, i64)> =
            gauges.iter().map(|g| (g.name.as_str(), g.value)).collect();
        assert_eq!(
            published,
            [
                ("fiat_state_audit_entries_hwm", h.audit_entries as i64),
                ("fiat_state_quarantine_held_hwm", h.quarantine_held as i64),
                (
                    "fiat_state_quarantine_records_hwm",
                    h.quarantine_records as i64
                ),
                ("fiat_state_rules_hwm", h.rules as i64),
            ]
        );
    }
}
