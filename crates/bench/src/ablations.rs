//! Ablations of the design choices DESIGN.md calls out: the
//! Classic-vs-PortLess flow definition, the event-gap threshold, the
//! bootstrap duration, the auth channel (0-RTT vs 1-RTT vs TCP+TLS), and
//! the first-N classification point. Each table prints the quality metric
//! the choice trades against.
//!
//! The inputs are fixed — a half-day testbed capture at its default
//! seed, `HomeNetwork::new(7)`, 500 channel samples — so `--days` and
//! `--seed` do not apply.

use fiat_core::{group_events, PredictabilityEngine, RuleTable};
use fiat_net::{FlowDef, SimDuration, SimTime};
use fiat_simnet::{HomeNetwork, PhoneLocation};
use fiat_trace::{TestbedConfig, TestbedTrace};
use std::fmt::Write;

/// Channel samples averaged per (location, protocol) cell.
const CHANNEL_SAMPLES: u64 = 500;

/// Render all five ablation tables.
pub fn ablations_text() -> String {
    let cap = TestbedTrace::generate(TestbedConfig {
        days: 0.5,
        ..Default::default()
    });
    let (packets, dns) = (&cap.trace.packets, &cap.trace.dns);
    let mut out = String::new();

    writeln!(out, "# Ablation: flow definition").unwrap();
    for def in FlowDef::ALL {
        let flags = PredictabilityEngine::new(def).analyze(packets, dns);
        let frac = flags.iter().filter(|&&f| f).count() as f64 / flags.len() as f64;
        writeln!(out, "flowdef {def}: predictable fraction {frac:.3}").unwrap();
    }

    let engine = PredictabilityEngine::new(FlowDef::PortLess);
    let flags = engine.analyze(packets, dns);
    writeln!(out, "\n# Ablation: event-gap threshold").unwrap();
    for gap_s in [1u64, 2, 5, 10, 30] {
        let n = group_events(packets, &flags, SimDuration::from_secs(gap_s)).len();
        writeln!(out, "gap {gap_s}s: {n} events").unwrap();
    }

    writeln!(out, "\n# Ablation: bootstrap duration").unwrap();
    for mins in [5u64, 10, 20, 40] {
        let window = cap
            .trace
            .window(SimTime::ZERO, SimTime::ZERO + SimDuration::from_mins(mins));
        let rules = RuleTable::learn(&engine, &window.packets, dns);
        writeln!(out, "bootstrap {mins}min: {} rules", rules.len()).unwrap();
    }

    // 0-RTT is one phone→proxy flight, 1-RTT three, TCP+TLS five.
    writeln!(out, "\n# Ablation: auth channel (mean evidence latency)").unwrap();
    for loc in [PhoneLocation::Lan, PhoneLocation::Mobile] {
        for (name, flights) in [("0rtt", 1u32), ("1rtt", 3), ("tcp_tls", 5)] {
            let mut net = HomeNetwork::new(7);
            let mut mean = SimDuration::ZERO;
            for _ in 0..CHANNEL_SAMPLES {
                let mut t = SimDuration::ZERO;
                for _ in 0..flights {
                    t += net.phone_to_proxy(loc);
                }
                mean += t / CHANNEL_SAMPLES;
            }
            writeln!(out, "channel {name} {loc}: mean {mean}").unwrap();
        }
    }

    // How long the proxy waits (packets) before deciding, against the
    // share of events long enough to be decided at all.
    let events = group_events(packets, &flags, SimDuration::from_secs(5));
    writeln!(out, "\n# Ablation: first-N classification point").unwrap();
    for n in [1usize, 3, 5, 10] {
        let decidable: Vec<_> = events.iter().filter(|e| e.len() >= n).collect();
        let mean_delay_ms = decidable
            .iter()
            .map(|e| (packets[e.packets[n - 1]].ts - e.start).as_millis_f64())
            .sum::<f64>()
            / decidable.len().max(1) as f64;
        writeln!(
            out,
            "first-N {n}: {}/{} events decidable, mean decision delay {mean_delay_ms:.0} ms",
            decidable.len(),
            events.len()
        )
        .unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fiat_net::{InternedFlowKey, RemoteId};

    #[test]
    fn ablation_numbers_are_pinned() {
        let expected = "\
# Ablation: flow definition
flowdef Classic: predictable fraction 0.940
flowdef PortLess: predictable fraction 0.969

# Ablation: event-gap threshold
gap 1s: 132 events
gap 2s: 127 events
gap 5s: 78 events
gap 10s: 78 events
gap 30s: 78 events

# Ablation: bootstrap duration
bootstrap 5min: 16 rules
bootstrap 10min: 20 rules
bootstrap 20min: 25 rules
bootstrap 40min: 32 rules

# Ablation: auth channel (mean evidence latency)
channel 0rtt LAN: mean 5.204ms
channel 1rtt LAN: mean 16.189ms
channel tcp_tls LAN: mean 27.306ms
channel 0rtt Mobile: mean 97.232ms
channel 1rtt Mobile: mean 293.970ms
channel tcp_tls Mobile: mean 488.528ms

# Ablation: first-N classification point
first-N 1: 78/78 events decidable, mean decision delay 0 ms
first-N 3: 65/78 events decidable, mean decision delay 1548 ms
first-N 5: 42/78 events decidable, mean decision delay 3670 ms
first-N 10: 16/78 events decidable, mean decision delay 1661 ms
";
        assert_eq!(ablations_text(), expected);
    }

    #[test]
    fn bootstrap_rules_are_pinned() {
        // The 20-minute bootstrap row's rules, in LRU order: device,
        // remote, protocol, size, direction.
        let expected = "\
2 stun.wyzecam.com 17 102 0
1 cast-edge.google.com 6 311 0
0 device-metrics.amazon.com 6 489 0
0 dns.amazon.com 17 70 0
4 cast-edge.google.com 6 311 0
7 api.roborock.com 6 133 1
5 nest-weave.google.com 6 131 0
5 nest-weave.google.com 6 144 1
3 teckin.com 6 60 0
3 teckin.com 6 66 1
8 rest-prod.immedia-semi.com 6 104 1
2 api.wyzecam.com 6 97 1
6 avs.amazon.com 6 66 0
9 gosund.com 6 66 1
2 api.wyzecam.com 6 88 0
4 clients.google.com 6 92 0
1 clients.google.com 6 105 1
0 avs.amazon.com 6 123 1
7 api.roborock.com 6 120 0
1 clients.google.com 6 92 0
0 avs.amazon.com 6 66 0
9 gosund.com 6 60 0
8 rest-prod.immedia-semi.com 6 95 0
6 avs.amazon.com 6 123 1
4 clients.google.com 6 105 1
";
        let cap = TestbedTrace::generate(TestbedConfig {
            days: 0.5,
            ..Default::default()
        });
        let window = cap
            .trace
            .window(SimTime::ZERO, SimTime::ZERO + SimDuration::from_mins(20));
        let engine = PredictabilityEngine::new(FlowDef::PortLess);
        let rules = RuleTable::learn(&engine, &window.packets, &cap.trace.dns);
        let mut got = String::new();
        for key in rules.snapshot().0 {
            let InternedFlowKey::PortLess {
                remote,
                proto,
                size,
                dir,
            } = key.flow
            else {
                panic!("PortLess engine learned {key:?}");
            };
            let remote = match remote {
                RemoteId::Domain(id) => cap.trace.dns.domain_str(id).to_string(),
                RemoteId::Ip(ip) => ip.to_string(),
            };
            writeln!(got, "{} {remote} {proto} {size} {dir}", key.device).unwrap();
        }
        assert_eq!(got, expected);
    }
}
