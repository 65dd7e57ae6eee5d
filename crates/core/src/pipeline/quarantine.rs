//! The pending-verdict quarantine state machine.
//!
//! A manual-classified event whose humanness proof has not arrived is
//! *held* instead of dropped when [`ProxyConfig::proof_deadline`] is set:
//! the proof may merely be late. The held event is a [`QuarantineRecord`]
//! that lives on its device's own record (`DeviceSnapshot::quarantine`,
//! at most one per device), and it moves through these transitions, each
//! a function of [`Quarantine`]:
//!
//! - **admit** — the first unproven manual event of a device opens a
//!   record, demoting the oldest-deadline record first when the home is
//!   at [`ProxyConfig::max_quarantine_records`];
//! - **hold** — later packets of the event join the record, up to
//!   [`ProxyConfig::quarantine_capacity`];
//! - **release** — a fresh proof releases every record still within its
//!   deadline, in device-id order: the held packets are forwarded late,
//!   the event sealed as `QuarantineReleased`;
//! - **expire** — the first operation that observes `now > deadline`
//!   (a packet of the device, a proof, a flush), or a cap demotion,
//!   discards the held packets and credits the episode to the lockout
//!   window.
//!
//! `FiatProxy::register_device` refuses an id already registered, so a
//! record leaves only by release or expiry.
//! Each transition writes its effects here and only here: the audit
//! entry, and one [`ProxyEvent`] that folds into the
//! [`ProxyStats`](super::ProxyStats) secondary counts, the
//! `fiat_quarantine_*` counters and depth gauge, and the hook.

#[cfg(doc)]
use super::ProxyConfig;
use super::{AllowReason, DeviceState, DropReason, Policy, ProxyDecision, ProxyEvent};
use crate::audit::AuditVerdict;
use crate::classifier::EventClass;
use crate::snapshot::{EventFate, QuarantineRecord};
use fiat_net::{FastMap, PacketRecord, SimTime};

/// Released packets the interception layer has not drained yet, plus
/// the transitions of the records on the devices.
#[derive(Default)]
pub(crate) struct Quarantine {
    /// Released packets, in release order.
    pub(crate) released: Vec<PacketRecord>,
}

impl Quarantine {
    /// Hold an unproven manual event of `pkt.device` pending its proof,
    /// or return `None` when quarantine is off or the device already has
    /// a verdict pending — one record per device bounds held state, and
    /// a concurrent second event takes the immediate-demotion path.
    pub(super) fn admit(
        policy: &mut Policy,
        devices: &mut FastMap<u16, DeviceState>,
        pkt: &PacketRecord,
        class: EventClass,
    ) -> Option<ProxyDecision> {
        let deadline = policy.config.proof_deadline?;
        if devices.get(&pkt.device)?.rec.quarantine.is_some() {
            return None;
        }
        let now = pkt.ts;
        // Home-wide record cap: demote the record with the oldest
        // deadline (ties: lowest device id) as if its deadline had
        // passed.
        if let Some(cap) = policy.config.max_quarantine_records {
            let order = |d: &DeviceState| Some((d.rec.quarantine.as_ref()?.deadline, d.rec.device));
            if devices.values().filter_map(order).count() >= cap.max(1) {
                let (q, victim) = devices
                    .values_mut()
                    .filter(|d| d.rec.quarantine.is_some())
                    .min_by_key(|d| order(d))
                    .and_then(|d| Some((d.rec.quarantine.take()?, d)))
                    .expect("cap is at least one record");
                Self::expire(policy, victim, q, now);
            }
        }
        let dev = devices.get_mut(&pkt.device)?;
        dev.rec.quarantine = Some(QuarantineRecord {
            packets: vec![pkt.clone()],
            class,
            deadline: now + deadline,
        });
        if let Some(open) = &mut dev.rec.open {
            open.fate = Some(EventFate::Quarantine);
        }
        policy.emit(ProxyEvent::QuarantineHeld {
            ts: pkt.ts,
            device: pkt.device,
        });
        Some(ProxyDecision::Quarantine)
    }

    /// A later packet of a quarantined event joins its device's record
    /// `q` — or, with no room there (past
    /// [`ProxyConfig::quarantine_capacity`]), is shed. A shed packet gets
    /// no audit entry and no lockout credit: the episode is already
    /// pending exactly one verdict.
    pub(super) fn hold(
        policy: &mut Policy,
        q: Option<&mut QuarantineRecord>,
        pkt: &PacketRecord,
    ) -> ProxyDecision {
        let capacity = policy.config.quarantine_capacity;
        let Some(q) = q.filter(|q| q.packets.len() < capacity) else {
            return ProxyDecision::Drop(DropReason::ManualUnverified);
        };
        q.packets.push(pkt.clone());
        policy.emit(ProxyEvent::QuarantineHeld {
            ts: pkt.ts,
            device: pkt.device,
        });
        ProxyDecision::Quarantine
    }

    /// A fresh humanness proof landed at `now`: release every record
    /// still within its deadline and expire the ones the proof missed,
    /// in device-id order so the audit trail is deterministic.
    pub(super) fn resolve(
        &mut self,
        policy: &mut Policy,
        devices: &mut FastMap<u16, DeviceState>,
        now: SimTime,
    ) {
        let mut held: Vec<(QuarantineRecord, &mut DeviceState)> = devices
            .values_mut()
            .filter_map(|d| Some((d.rec.quarantine.take()?, d)))
            .collect();
        held.sort_unstable_by_key(|(_, d)| d.rec.device);
        for (q, dev) in held {
            if now > q.deadline {
                Self::expire(policy, dev, q, now);
                continue;
            }
            let id = dev.rec.device;
            policy.emit(ProxyEvent::QuarantineReleased {
                ts: now,
                device: id,
                packets: q.packets.len() as u64,
            });
            self.released.extend(q.packets);
            let reason = AllowReason::QuarantineReleased;
            policy.allow(id, q.class, reason, now);
            dev.seal_quarantined(EventFate::AllowRest(reason));
        }
    }

    /// Lazily expire the device's record if `now` is past its deadline;
    /// returns whether it did.
    pub(super) fn expire_overdue(policy: &mut Policy, dev: &mut DeviceState, now: SimTime) -> bool {
        let Some(q) = dev.rec.quarantine.take_if(|q| now > q.deadline) else {
            return false;
        };
        Self::expire(policy, dev, q, now);
        true
    }

    /// Demote `q`, an expired (or cap-demoted) record just taken off
    /// `dev`: the held packets are discarded, the episode counts toward
    /// the lockout window, and the open event (if still this one) seals
    /// as `QuarantineExpired`. The episode time is `min(now, deadline)`:
    /// for a lazy expiry that is the deadline itself — the outcome must
    /// not depend on when it is observed — while a cap demotion lands
    /// before its deadline and is credited at the demotion time, never a
    /// future timestamp that would poison the monotone lockout clamp.
    fn expire(policy: &mut Policy, dev: &mut DeviceState, q: QuarantineRecord, now: SimTime) {
        let at = now.min(q.deadline);
        let device = dev.rec.device;
        policy.emit(ProxyEvent::QuarantineExpired {
            ts: at,
            device,
            packets: q.packets.len() as u64,
        });
        policy.unverified_episode(dev, at);
        policy.record(at, device, q.class, AuditVerdict::QuarantineExpired);
        dev.seal_quarantined(EventFate::DropRest(DropReason::QuarantineExpired));
    }
}

impl DeviceState {
    /// Re-seal an open event still waiting on this device's quarantine
    /// record with the record's outcome.
    fn seal_quarantined(&mut self, fate: EventFate) {
        if let Some(open) = &mut self.rec.open {
            if open.fate == Some(EventFate::Quarantine) {
                open.fate = Some(fate);
            }
        }
    }
}
