//! The pending-verdict quarantine state machine.
//!
//! A manual-classified event whose humanness proof has not arrived is
//! *held* instead of dropped when [`ProxyConfig::proof_deadline`] is set:
//! the proof may merely be late. One [`QuarantineRecord`] per device
//! moves through these transitions, each a method of [`Quarantine`]:
//!
//! - **admit** — the first unproven manual event of a device opens a
//!   record, demoting the oldest-deadline record first when the home is
//!   at [`ProxyConfig::max_quarantine_records`];
//! - **hold** — later packets of the event join the record, up to
//!   [`ProxyConfig::quarantine_capacity`];
//! - **release** — a fresh proof releases every record still within its
//!   deadline: the held packets are forwarded late, the event sealed as
//!   `QuarantineReleased`;
//! - **expire** — the first operation that observes `now > deadline`
//!   (a packet of the device, a proof, a flush), or a cap demotion,
//!   discards the held packets and credits the episode to the lockout
//!   window;
//! - **discard** — re-registering the device drops its record with the
//!   rest of its state.
//!
//! Each transition writes its effects here and only here: the audit
//! entry, and one [`ProxyEvent`] that folds into the
//! [`ProxyStats`](super::ProxyStats) secondary counts, the
//! `fiat_quarantine_*` counters and depth gauge, and the hook.

#[cfg(doc)]
use super::ProxyConfig;
use super::{
    AllowReason, DeviceState, DropReason, Policy, ProxyDecision, ProxyEvent, ProxyTelemetry,
};
use crate::audit::AuditVerdict;
use crate::classifier::EventClass;
use crate::snapshot::{EventFate, QuarantineRecord};
use fiat_net::{FastMap, PacketRecord, SimTime};
use std::collections::BTreeMap;

/// Every live quarantine record of the home, plus the released packets
/// the interception layer has not drained yet. Outside the transitions
/// below, the proxy only reads both (snapshots, state accounting),
/// rebuilds them on restore, and drains `released`.
#[derive(Default)]
pub(super) struct Quarantine {
    /// Live records by device id. Sorted, so a proof resolves them in a
    /// deterministic order.
    pub(super) records: BTreeMap<u16, QuarantineRecord>,
    /// Released packets, in release order.
    pub(super) released: Vec<PacketRecord>,
}

impl Quarantine {
    /// Hold an unproven manual event of `pkt.device` pending its proof,
    /// or return `None` when quarantine is off or the device already has
    /// a verdict pending — one record per device bounds held state, and
    /// a concurrent second event takes the immediate-demotion path.
    pub(super) fn admit(
        &mut self,
        policy: &mut Policy,
        devices: &mut FastMap<u16, DeviceState>,
        pkt: &PacketRecord,
        class: EventClass,
    ) -> Option<ProxyDecision> {
        let deadline = policy.config.proof_deadline?;
        if self.records.contains_key(&pkt.device) {
            return None;
        }
        let now = pkt.ts;
        // Home-wide record cap: demote the record with the oldest
        // deadline (ties: lowest device id) as if its deadline had
        // passed.
        if let Some(cap) = policy.config.max_quarantine_records {
            if self.records.len() >= cap.max(1) {
                let (&victim, _) = self
                    .records
                    .iter()
                    .min_by_key(|&(&id, q)| (q.deadline, id))
                    .expect("cap is at least one record");
                let q = self.records.remove(&victim).expect("victim from scan");
                let dev = devices.get_mut(&victim).expect("records belong to devices");
                Self::expire(policy, victim, dev, q, now);
            }
        }
        self.records.insert(
            pkt.device,
            QuarantineRecord {
                packets: vec![pkt.clone()],
                class,
                deadline: now + deadline,
            },
        );
        let dev = devices
            .get_mut(&pkt.device)
            .expect("admitted devices are registered");
        if let Some(open) = &mut dev.open {
            open.fate = Some(EventFate::Quarantine);
        }
        policy.emit(ProxyEvent::QuarantineHeld {
            ts: pkt.ts,
            device: pkt.device,
        });
        Some(ProxyDecision::Quarantine)
    }

    /// A later packet of a quarantined event: hold it, or — past
    /// [`ProxyConfig::quarantine_capacity`] — shed it. A shed packet gets
    /// no audit entry and no lockout credit: the episode is already
    /// pending exactly one verdict.
    pub(super) fn hold(&mut self, policy: &mut Policy, pkt: &PacketRecord) -> ProxyDecision {
        let q = self
            .records
            .get_mut(&pkt.device)
            .expect("quarantine fate implies a live record");
        if q.packets.len() >= policy.config.quarantine_capacity {
            return ProxyDecision::Drop(DropReason::ManualUnverified);
        }
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
        for (id, q) in std::mem::take(&mut self.records) {
            let dev = devices.get_mut(&id).expect("records belong to devices");
            if now > q.deadline {
                Self::expire(policy, id, dev, q, now);
                continue;
            }
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
    pub(super) fn expire_overdue(
        &mut self,
        policy: &mut Policy,
        device: u16,
        dev: &mut DeviceState,
        now: SimTime,
    ) -> bool {
        if self.records.get(&device).is_none_or(|q| now <= q.deadline) {
            return false;
        }
        let q = self.records.remove(&device).expect("checked above");
        Self::expire(policy, device, dev, q, now);
        true
    }

    /// Demote an expired (or cap-demoted) record: the held packets are
    /// discarded, the episode counts toward the lockout window, and the
    /// open event (if still this one) seals as `QuarantineExpired`. The
    /// episode time is `min(now, deadline)`: for a lazy expiry that is
    /// the deadline itself — the outcome must not depend on when it is
    /// observed — while a cap demotion lands before its deadline and is
    /// credited at the demotion time, never a future timestamp that
    /// would poison the monotone lockout clamp.
    fn expire(
        policy: &mut Policy,
        device: u16,
        dev: &mut DeviceState,
        q: QuarantineRecord,
        now: SimTime,
    ) {
        let at = now.min(q.deadline);
        policy.emit(ProxyEvent::QuarantineExpired {
            ts: at,
            device,
            packets: q.packets.len() as u64,
        });
        policy.unverified_episode(device, dev, at);
        policy.record(at, device, q.class, AuditVerdict::QuarantineExpired);
        dev.seal_quarantined(EventFate::DropRest(DropReason::QuarantineExpired));
    }

    /// Re-registration discards the device's record with the rest of its
    /// state; keep the depth gauge honest.
    pub(super) fn discard(&mut self, telemetry: &ProxyTelemetry, device: u16) {
        if let Some(q) = self.records.remove(&device) {
            telemetry.quarantine_depth.add(-(q.packets.len() as i64));
        }
    }
}

impl DeviceState {
    /// Re-seal an open event still waiting on this device's quarantine
    /// record with the record's outcome.
    fn seal_quarantined(&mut self, fate: EventFate) {
        if let Some(open) = &mut self.open {
            if open.fate == Some(EventFate::Quarantine) {
                open.fate = Some(fate);
            }
        }
    }
}
