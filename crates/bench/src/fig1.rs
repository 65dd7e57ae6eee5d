//! Figure 1 and the IoT Inspector analysis (§2.2).
//!
//! - **Fig 1(a)**: the 8 predictable flows of a Bose SoundTouch 10 over
//!   30 minutes — emitted as per-flow packet time series.
//! - **Fig 1(b)**: CDFs of per-device predictable-traffic percentage for
//!   a YourThings-like corpus and a Mon(IoT)r-like corpus (idle/active),
//!   Classic vs PortLess.
//! - **Fig 1(c)**: CDF of the maximum interval of predictable flows,
//!   weighted by predictable packets.
//! - **Inspector**: the same bucketing applied to 5-second aggregates.

use crate::{cdf, weighted_cdf};
use fiat_core::PredictabilityEngine;
use fiat_net::{FlowDef, Trace};
use fiat_trace::datasets::{aggregate_5s, moniotr_like, soundtouch_flows, yourthings_like};
use std::collections::BTreeMap;
use std::fmt::Write;

/// Fig 1(a): per-flow packet timestamps for the SoundTouch-like device.
pub fn fig1a(seed: u64) -> String {
    let trace = soundtouch_flows(seed);
    let mut flows: BTreeMap<u16, Vec<f64>> = BTreeMap::new();
    for p in &trace.packets {
        flows.entry(p.size).or_default().push(p.ts.as_secs_f64());
    }
    let mut out = String::new();
    writeln!(out, "# Fig 1(a): Bose SoundTouch 10 flows over 30 minutes").unwrap();
    writeln!(
        out,
        "# flow(size B) | packets | first..last (s) | mean period (s)"
    )
    .unwrap();
    for (size, ts) in &flows {
        let period = if ts.len() > 1 {
            (ts.last().unwrap() - ts.first().unwrap()) / (ts.len() - 1) as f64
        } else {
            0.0
        };
        writeln!(
            out,
            "flow size={size:>5}  n={:>4}  span={:>7.1}..{:<7.1}  period={period:>6.1}",
            ts.len(),
            ts.first().unwrap(),
            ts.last().unwrap()
        )
        .unwrap();
    }
    let eng = PredictabilityEngine::new(FlowDef::PortLess);
    let flags = eng.analyze(&trace.packets, &trace.dns);
    let frac = flags.iter().filter(|&&f| f).count() as f64 / flags.len() as f64;
    writeln!(out, "overall predictable fraction: {frac:.3}").unwrap();
    out
}

fn device_fractions(traces: &[(String, &Trace)], def: FlowDef) -> Vec<f64> {
    let eng = PredictabilityEngine::new(def);
    traces
        .iter()
        .map(|(_, t)| {
            let flags = eng.analyze(&t.packets, &t.dns);
            if flags.is_empty() {
                0.0
            } else {
                flags.iter().filter(|&&f| f).count() as f64 / flags.len() as f64
            }
        })
        .collect()
}

/// Fig 1(b) result: CDF series per (corpus, flow definition).
pub struct Fig1b {
    /// (series name, CDF points (predictable fraction, cum. devices)).
    pub series: Vec<(String, Vec<(f64, f64)>)>,
}

/// Compute Fig 1(b). `n_yt`/`n_mon` control corpus sizes (65 and 104 in
/// the paper).
pub fn fig1b(n_yt: usize, n_mon: usize, hours: u64, seed: u64) -> Fig1b {
    let yt = yourthings_like(n_yt, hours, seed);
    let mon = moniotr_like(n_mon, seed.wrapping_add(1));
    let mut series = Vec::new();
    for def in FlowDef::ALL {
        let traces: Vec<(String, &Trace)> = yt.iter().map(|d| (d.name.clone(), &d.trace)).collect();
        let mut fr = device_fractions(&traces, def);
        series.push((format!("YourThings-{def}"), cdf(&mut fr, 20)));

        let idle: Vec<(String, &Trace)> = mon
            .idle
            .iter()
            .map(|d| (d.name.clone(), &d.trace))
            .collect();
        let mut fr = device_fractions(&idle, def);
        series.push((format!("MonIoTr-idle-{def}"), cdf(&mut fr, 20)));

        let active: Vec<(String, &Trace)> = mon
            .active
            .iter()
            .map(|d| (d.name.clone(), &d.trace))
            .collect();
        let mut fr = device_fractions(&active, def);
        series.push((format!("MonIoTr-active-{def}"), cdf(&mut fr, 20)));
    }
    Fig1b { series }
}

/// Render Fig 1(b) as text.
pub fn fig1b_text(n_yt: usize, n_mon: usize, hours: u64, seed: u64) -> String {
    let f = fig1b(n_yt, n_mon, hours, seed);
    let mut out = String::new();
    writeln!(
        out,
        "# Fig 1(b): CDF of predictable-traffic fraction across devices"
    )
    .unwrap();
    for (name, pts) in &f.series {
        let med = pts
            .iter()
            .find(|(_, q)| *q >= 0.5)
            .map(|(x, _)| *x)
            .unwrap_or(0.0);
        let p20 = pts
            .iter()
            .find(|(_, q)| *q >= 0.2)
            .map(|(x, _)| *x)
            .unwrap_or(0.0);
        writeln!(
            out,
            "{name:<28} p20={p20:.3} median={med:.3} series={}",
            pts.iter()
                .map(|(x, q)| format!("({x:.2},{q:.2})"))
                .collect::<Vec<_>>()
                .join(" ")
        )
        .unwrap();
    }
    out
}

/// Fig 1(c): weighted CDF of max predictable-flow intervals (seconds).
pub fn fig1c(n_yt: usize, hours: u64, seed: u64) -> Vec<(f64, f64)> {
    let yt = yourthings_like(n_yt, hours, seed);
    let eng = PredictabilityEngine::new(FlowDef::PortLess);
    let mut pairs: Vec<(f64, f64)> = Vec::new();
    for d in &yt {
        for (iv, n) in eng.max_intervals(&d.trace.packets, &d.trace.dns) {
            pairs.push((iv.as_secs_f64(), n as f64));
        }
    }
    weighted_cdf(&mut pairs)
}

/// Render Fig 1(c) as text.
pub fn fig1c_text(n_yt: usize, hours: u64, seed: u64) -> String {
    let c = fig1c(n_yt, hours, seed);
    let mut out = String::new();
    writeln!(
        out,
        "# Fig 1(c): CDF of max interval of predictable flows (s)"
    )
    .unwrap();
    for q in [0.5, 0.8, 0.9, 0.95, 1.0] {
        if let Some((x, _)) = c.iter().find(|(_, cq)| *cq >= q) {
            writeln!(out, "p{:<3.0} = {x:>7.1} s", q * 100.0).unwrap();
        }
    }
    if let Some((max, _)) = c.last() {
        writeln!(out, "max  = {max:>7.1} s  (paper: <= 600 s)").unwrap();
    }
    out
}

/// IoT Inspector: predictability over 5 s aggregates; returns per-device
/// fractions and the median.
pub fn inspector(n_devices: usize, hours: u64, seed: u64) -> (Vec<f64>, f64) {
    let corpus = yourthings_like(n_devices, hours, seed);
    let eng = PredictabilityEngine::new(FlowDef::PortLess);
    let mut fractions: Vec<f64> = corpus
        .iter()
        .map(|d| {
            let agg = aggregate_5s(&d.trace);
            let flags = eng.analyze(&agg.packets, &agg.dns);
            if flags.is_empty() {
                0.0
            } else {
                flags.iter().filter(|&&f| f).count() as f64 / flags.len() as f64
            }
        })
        .collect();
    fractions.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = fractions[fractions.len() / 2];
    (fractions, median)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1a_reports_eight_predictable_flows() {
        let text = fig1a(0);
        assert_eq!(text.matches("flow size=").count(), 8);
        // The SoundTouch flows are strictly periodic: nearly everything
        // is predictable.
        let frac: f64 = text
            .lines()
            .find(|l| l.starts_with("overall"))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
            .unwrap();
        assert!(frac > 0.95, "predictable fraction {frac}");
    }

    #[test]
    fn fig1b_portless_beats_classic_on_yourthings() {
        let f = fig1b(12, 6, 2, 0);
        let median = |name: &str| -> f64 {
            f.series
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, pts)| pts.iter().find(|(_, q)| *q >= 0.5).unwrap().0)
                .unwrap()
        };
        assert!(
            median("YourThings-PortLess") > median("YourThings-Classic"),
            "PortLess {} vs Classic {}",
            median("YourThings-PortLess"),
            median("YourThings-Classic")
        );
    }

    #[test]
    fn fig1b_idle_more_predictable_than_active() {
        let f = fig1b(6, 10, 2, 1);
        let median = |name: &str| -> f64 {
            f.series
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, pts)| pts.iter().find(|(_, q)| *q >= 0.5).unwrap().0)
                .unwrap()
        };
        assert!(median("MonIoTr-idle-PortLess") > median("MonIoTr-active-PortLess"));
    }

    #[test]
    fn fig1c_bounded_by_ten_minutes() {
        let c = fig1c(10, 3, 0);
        assert!(!c.is_empty());
        let max = c.last().unwrap().0;
        // Generator draws periods up to 600 s; jitter adds a bit.
        assert!(max <= 660.0, "max interval {max}");
        // Most predictable traffic repeats within 5 minutes.
        let within_5min = c
            .iter()
            .filter(|(x, _)| *x <= 300.0)
            .map(|(_, q)| *q)
            .next_back()
            .unwrap_or(0.0);
        assert!(within_5min >= 0.6, "within 5 min: {within_5min}");
    }

    #[test]
    fn inspector_median_reasonable() {
        let (fractions, median) = inspector(8, 2, 0);
        assert_eq!(fractions.len(), 8);
        assert!(fractions.iter().all(|f| (0.0..=1.0).contains(f)));
        // Aggregation erodes predictability but periodic flows with
        // periods >= 10 s mostly survive 5 s windowing.
        assert!(median > 0.3, "median {median}");
    }
}
