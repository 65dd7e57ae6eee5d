//! Laws the real proxy's exported data obeys on its own, checked without
//! the reference model.
//!
//! Lockstep compares two proxies with each other; a law compares one
//! proxy with itself, so it catches a fault both sides would share. The
//! fuzzer checks every law after every op.

use fiat_core::{AllowReason, DropReason, FiatProxy, ProxyDecision};

/// The decisions family of the proxy's registry.
const DECISIONS: &str = "fiat_proxy_decisions_total";

/// A law the proxy broke.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LawViolation {
    /// A `fiat_proxy_decisions_total` series differs from the
    /// [`fiat_core::ProxyStats`] field counting the same decision.
    Publication {
        /// The decision whose series is off.
        decision: ProxyDecision,
        /// The series' value in the registry.
        published: u64,
        /// The stats field's value.
        counted: u64,
    },
}

impl std::fmt::Display for LawViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LawViolation::Publication {
                decision,
                published,
                counted,
            } => write!(
                f,
                "publication: {DECISIONS}{{decision=\"{}\",reason=\"{}\"}} is {published}, \
                 ProxyStats counts {counted}",
                decision.decision_str(),
                decision.reason_str()
            ),
        }
    }
}

/// Check every law on `proxy`, which must be the only proxy reporting
/// into its registry and must not have been restored (a restored proxy
/// keeps its stats but reports into a fresh registry).
///
/// - **Publication.** Each `fiat_proxy_decisions_total` series equals
///   the [`fiat_core::ProxyStats`] field that counts the same decision:
///   the registry publishes every decision as it is made.
pub fn check(proxy: &FiatProxy) -> Result<(), LawViolation> {
    let registry = proxy.telemetry().registry();
    let stats = proxy.stats();
    let decisions = AllowReason::ALL
        .map(ProxyDecision::Allow)
        .into_iter()
        .chain(DropReason::ALL.map(ProxyDecision::Drop))
        .chain([ProxyDecision::Quarantine]);
    for decision in decisions {
        let labels = [
            ("decision", decision.decision_str()),
            ("reason", decision.reason_str()),
        ];
        let published = registry.counter(DECISIONS, &labels).get();
        let counted = stats.decided(decision);
        if published != counted {
            return Err(LawViolation::Publication {
                decision,
                published,
                counted,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fiat_core::{ProxyConfig, ProxyTelemetry};
    use fiat_net::{Direction, PacketRecord, SimTime, TcpFlags, TlsVersion, TrafficClass};
    use fiat_sensors::HumannessValidator;
    use fiat_telemetry::{ManualClock, MetricRegistry};
    use std::net::Ipv4Addr;
    use std::sync::Arc;

    #[test]
    fn a_second_writer_on_the_registry_breaks_publication() {
        let registry = MetricRegistry::new();
        let proxy = || {
            let telemetry = ProxyTelemetry::new(registry.clone(), Arc::new(ManualClock::new()));
            let validator = HumannessValidator::with_operating_point(1.0, 1.0, 0);
            let mut p =
                FiatProxy::with_telemetry(ProxyConfig::default(), &[7; 32], validator, telemetry);
            p.start(SimTime::ZERO);
            p
        };
        let (mut a, b) = (proxy(), proxy());
        a.on_packet(&PacketRecord {
            ts: SimTime::ZERO,
            device: 0,
            direction: Direction::FromDevice,
            local_ip: Ipv4Addr::new(192, 168, 1, 2),
            remote_ip: Ipv4Addr::new(34, 0, 0, 1),
            local_port: 40_000,
            remote_port: 443,
            transport: fiat_net::Transport::Tcp,
            tcp_flags: TcpFlags::ack(),
            tls: TlsVersion::None,
            size: 100,
            label: TrafficClass::Control,
        });
        assert_eq!(check(&a), Ok(()));
        assert_eq!(
            check(&b),
            Err(LawViolation::Publication {
                decision: ProxyDecision::Allow(AllowReason::Bootstrap),
                published: 1,
                counted: 0,
            })
        );
    }
}
