//! The manual-event ledger: per-event packet accounting behind the
//! **false drops** number of the chaos soak and the control sweep.
//!
//! Every genuine post-bootstrap manual event gets one record. The
//! harness credits each decided packet to the event it belongs to (the
//! device's latest event starting at or before the packet), credits
//! packets the proxy later releases from quarantine the same way, and
//! marks the event once its proof verifies. An event *lost packets* if
//! any were dropped outright or held and never released; with a verified
//! proof that is a false drop, without one an unproven drop.

use fiat_core::{FiatProxy, ProxyDecision};
use fiat_net::{PacketRecord, SimDuration, SimTime, TrafficClass};
use fiat_trace::testbed::GroundTruthEvent;

/// The user touches the phone this long before the first command packet.
const PROOF_LEAD: SimDuration = SimDuration::from_millis(200);

/// One genuine manual event's packet accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventRecord {
    /// The commanded device.
    pub device: u16,
    /// The event's first packet time.
    pub start: SimTime,
    /// Whether a proof for this event verified at the proxy.
    pub verified: bool,
    /// Packets dropped outright.
    pub drops: u64,
    /// Packets held in quarantine.
    pub held: u64,
    /// Held packets the proxy later released.
    pub released: u64,
}

impl EventRecord {
    /// When the event's proof leaves the phone: 200 ms (the user touching
    /// the phone) ahead of its first packet.
    pub fn proof_at(&self) -> SimTime {
        SimTime::from_micros(
            self.start
                .as_micros()
                .saturating_sub(PROOF_LEAD.as_micros()),
        )
    }

    /// Packets the event finally lost: dropped, or held and never
    /// released.
    pub fn lost(&self) -> u64 {
        self.drops + self.held.saturating_sub(self.released)
    }
}

/// The ledger's event-level verdicts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LedgerTally {
    /// Events whose proof verified.
    pub verified: u64,
    /// Verified events that still lost packets.
    pub false_drops: u64,
    /// Unverified events that lost packets.
    pub unproven_drops: u64,
}

/// Per-event records of one harness run, with the lookup that credits a
/// packet to its event.
pub struct ManualLedger {
    boot_end: SimTime,
    events: Vec<EventRecord>,
    /// `(device, start µs, event index)`, sorted.
    index: Vec<(u16, u64, usize)>,
}

impl ManualLedger {
    /// One record per manual event starting at or after `boot_end`, in
    /// capture order.
    pub fn new(events: &[GroundTruthEvent], boot_end: SimTime) -> Self {
        let events: Vec<EventRecord> = events
            .iter()
            .filter(|e| e.class == TrafficClass::Manual && e.start >= boot_end)
            .map(|e| EventRecord {
                device: e.device,
                start: e.start,
                verified: false,
                drops: 0,
                held: 0,
                released: 0,
            })
            .collect();
        let mut index: Vec<_> = events
            .iter()
            .enumerate()
            .map(|(i, e)| (e.device, e.start.as_micros(), i))
            .collect();
        index.sort_unstable();
        ManualLedger {
            boot_end,
            events,
            index,
        }
    }

    /// The records, in capture order (indices are event ids).
    pub fn events(&self) -> &[EventRecord] {
        &self.events
    }

    /// The device's latest event starting at or before `ts`.
    fn lookup(&self, device: u16, ts: SimTime) -> Option<usize> {
        let pos = self
            .index
            .partition_point(|&(d, s, _)| (d, s) <= (device, ts.as_micros()));
        let &(d, _, idx) = self.index.get(pos.checked_sub(1)?)?;
        (d == device).then_some(idx)
    }

    /// Credit one decided packet: a post-bootstrap manual packet that
    /// was dropped or held counts against its event.
    pub fn on_decision(&mut self, pkt: &PacketRecord, decision: ProxyDecision) {
        if pkt.label != TrafficClass::Manual || pkt.ts < self.boot_end {
            return;
        }
        if let Some(e) = self.lookup(pkt.device, pkt.ts) {
            match decision {
                ProxyDecision::Allow(_) => {}
                ProxyDecision::Drop(_) => self.events[e].drops += 1,
                ProxyDecision::Quarantine => self.events[e].held += 1,
            }
        }
    }

    /// Credit packets released from quarantine to their events.
    fn credit_releases(&mut self, released: Vec<PacketRecord>) {
        for rel in released {
            if rel.label == TrafficClass::Manual {
                if let Some(e) = self.lookup(rel.device, rel.ts) {
                    self.events[e].released += 1;
                }
            }
        }
    }

    /// Settle one proof exchange for event `idx`. A verified proof marks
    /// the event and, since the user is at the phone, clears any standing
    /// lockout on the commanded device. Either way the proof may have
    /// released held packets on any device; they are credited here.
    pub fn on_proof(&mut self, proxy: &mut FiatProxy, idx: usize, verified: bool) {
        if verified {
            self.events[idx].verified = true;
            proxy.clear_lockout(self.events[idx].device);
        }
        self.credit_releases(proxy.take_quarantine_releases());
    }

    /// The event-level verdicts.
    pub fn tally(&self) -> LedgerTally {
        let mut t = LedgerTally::default();
        for e in &self.events {
            let lost = e.lost() > 0;
            if e.verified {
                t.verified += 1;
                t.false_drops += u64::from(lost);
            } else {
                t.unproven_drops += u64::from(lost);
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fiat_core::{AllowReason, DropReason};
    use fiat_net::{Direction, TcpFlags, TlsVersion, Transport};
    use std::net::Ipv4Addr;

    const DROP: ProxyDecision = ProxyDecision::Drop(DropReason::ManualUnverified);

    fn event(device: u16, start_s: u64) -> GroundTruthEvent {
        GroundTruthEvent {
            device,
            class: TrafficClass::Manual,
            start: SimTime::from_secs(start_s),
            n_packets: 3,
        }
    }

    fn manual(device: u16, ts_s: u64) -> PacketRecord {
        PacketRecord {
            ts: SimTime::from_secs(ts_s),
            device,
            direction: Direction::ToDevice,
            local_ip: Ipv4Addr::new(192, 168, 1, 10),
            remote_ip: Ipv4Addr::new(34, 0, 0, 1),
            local_port: 4000,
            remote_port: 443,
            transport: Transport::Tcp,
            tcp_flags: TcpFlags::psh_ack(),
            tls: TlsVersion::Tls12,
            size: 300,
            label: TrafficClass::Manual,
        }
    }

    fn touched(e: &EventRecord) -> u64 {
        e.drops + e.held + e.released
    }

    #[test]
    fn packets_and_releases_credit_the_right_event() {
        // Device 1 has events at 100 s and 200 s, device 2 at 150 s; the
        // 5 s event is inside bootstrap and never indexed.
        let evs = [event(1, 200), event(2, 150), event(1, 100), event(1, 5)];
        let mut ledger = ManualLedger::new(&evs, SimTime::from_secs(60));
        assert_eq!(ledger.events().len(), 3);
        assert_eq!(ledger.events()[2].proof_at(), SimTime::from_millis(99_800));

        // A packet exactly at an event's start credits that event.
        ledger.on_decision(&manual(1, 200), DROP);
        assert_eq!(ledger.events()[0].drops, 1);
        // Between two events it credits the earlier one.
        ledger.on_decision(&manual(1, 199), ProxyDecision::Quarantine);
        assert_eq!(ledger.events()[2].held, 1);
        // Before the device's first indexed event it credits nothing,
        // although device 1 has an earlier event; so do allowed packets,
        // non-manual packets and manual packets inside bootstrap.
        ledger.on_decision(&manual(2, 120), DROP);
        ledger.on_decision(&manual(2, 151), ProxyDecision::Allow(AllowReason::RuleHit));
        let mut control = manual(2, 151);
        control.label = TrafficClass::Control;
        ledger.on_decision(&control, DROP);
        ledger.on_decision(&manual(1, 30), DROP);
        assert_eq!(touched(&ledger.events()[1]), 0);
        assert_eq!(ledger.events()[0].drops, 1);
        assert_eq!(ledger.events()[2].drops, 0);

        // A release lands on the event it belongs to, and only there.
        ledger.credit_releases(vec![manual(1, 199), manual(2, 120)]);
        assert_eq!(ledger.events()[2].released, 1);
        assert_eq!(ledger.events()[0].released, 0);
        assert_eq!(touched(&ledger.events()[1]), 0);
    }

    #[test]
    fn tally_splits_false_from_unproven_drops() {
        let evs = [event(1, 100), event(2, 100), event(3, 100), event(4, 100)];
        let mut ledger = ManualLedger::new(&evs, SimTime::ZERO);
        // Event 0: verified, held then released: lost nothing.
        ledger.events[0].verified = true;
        ledger.on_decision(&manual(1, 101), ProxyDecision::Quarantine);
        ledger.credit_releases(vec![manual(1, 101)]);
        // Event 1: verified, one packet dropped: a false drop.
        ledger.events[1].verified = true;
        ledger.on_decision(&manual(2, 101), DROP);
        // Event 2: unverified, held and never released: an unproven drop.
        ledger.on_decision(&manual(3, 101), ProxyDecision::Quarantine);
        // Event 3: unverified and clean.
        assert_eq!(ledger.events()[0].lost(), 0);
        assert_eq!(ledger.events()[2].lost(), 1);
        assert_eq!(
            ledger.tally(),
            LedgerTally {
                verified: 2,
                false_drops: 1,
                unproven_drops: 1,
            }
        );
    }
}
