//! Traffic of unregistered devices.
//!
//! An unknown MAC never reaches the event ladder: it has no classifier
//! and no first-N window. [`UnknownDevices`] decides its packets on its
//! own, one of two ways:
//!
//! - **Fingerprint gate** (when [`ProxyConfig::fingerprint_unknown`] is
//!   set and a [`FingerprintGate`] is installed): packets are allowed
//!   while the evidence window fills, then the sealed verdict —
//!   matched / spoof suspected / no match — decides every later packet.
//! - **Fail open** (the incremental-deployment default): every packet is
//!   allowed, and each device is audited once, at first sighting.

use super::{AllowReason, DropReason, Policy, ProxyDecision};
#[cfg(doc)]
use super::{FiatProxy, ProxyConfig};
use crate::audit::AuditVerdict;
use crate::classifier::EventClass;
use fiat_net::{DnsTable, PacketRecord};
use std::collections::BTreeSet;

/// Behavioral identity verdict for one unknown device, produced by a
/// [`FingerprintGate`] once its evidence window seals (and cached for
/// every later packet of the same device).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FingerprintVerdict {
    /// Still accumulating evidence: the window has not sealed yet.
    Pending,
    /// Behavior confidently matched the signature at this index, and it
    /// is consistent with the class the device claims (or the device
    /// claims nothing recognizable).
    Match(u16),
    /// Behavior confidently matched a *different* signature than the
    /// class the device claims by its destinations — spoof suspected.
    Spoof {
        /// Signature index of the claimed class.
        claimed: u16,
        /// Signature index the behavior actually matched.
        matched: u16,
    },
    /// No signature within the confidence threshold (or the margin to
    /// the runner-up was too thin): explicit no-confident-match.
    NoMatch,
}

/// One [`FingerprintGate::observe`] result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FingerprintObservation {
    /// The verdict as of this packet.
    pub verdict: FingerprintVerdict,
    /// `true` exactly once per device: on the packet that sealed its
    /// evidence window. The proxy writes the audit entry on this edge.
    pub just_sealed: bool,
}

/// Online behavioral device-identity matcher, installed with
/// [`FiatProxy::set_fingerprinter`] and consulted for every packet of an
/// *unregistered* device when [`ProxyConfig::fingerprint_unknown`] is
/// set. The concrete matcher lives in `fiat-fingerprint`; the trait keeps
/// the dependency arrow pointing into `fiat-core`, as the
/// [`super::ProxyEvent`] observer [`super::ProxyHook`] does.
pub trait FingerprintGate: Send {
    /// Fold one packet of an unknown device into its evidence window and
    /// report the current verdict. Must be deterministic and, once a
    /// device's window has sealed, allocation-free.
    fn observe(&mut self, pkt: &PacketRecord, dns: &DnsTable) -> FingerprintObservation;
    /// Entries currently held (open evidence windows + cached sealed
    /// verdicts) for [`FiatProxy::state_size`] accounting.
    fn state_size(&self) -> usize;
}

/// The proxy's unknown-device state.
#[derive(Default)]
pub(crate) struct UnknownDevices {
    /// The installed fingerprint gate: runtime wiring, not snapshotted,
    /// so it is re-installed after restore.
    pub(super) gate: Option<Box<dyn FingerprintGate>>,
    /// Devices already audited fail-open (sorted, as snapshotted).
    pub(crate) seen: BTreeSet<u16>,
}

impl UnknownDevices {
    /// Decide one packet of an unregistered device.
    pub(super) fn decide(
        &mut self,
        policy: &mut Policy,
        pkt: &PacketRecord,
        dns: &DnsTable,
    ) -> ProxyDecision {
        // Unknown traffic has no classifier to consult; Control is the
        // neutral placeholder class in its audit entries.
        let class = EventClass::Control;
        if policy.config.fingerprint_unknown {
            if let Some(gate) = self.gate.as_mut() {
                // Packets pass while evidence accumulates (a bounded
                // window, so an attacker cannot complete a long command
                // before the verdict). One audit entry per device,
                // written on the sealing edge.
                let obs = gate.observe(pkt, dns);
                if obs.just_sealed {
                    let verdict = match obs.verdict {
                        FingerprintVerdict::Match(_) => AuditVerdict::FingerprintMatched,
                        FingerprintVerdict::Spoof { .. } => AuditVerdict::SpoofSuspected,
                        _ => AuditVerdict::UnknownQuarantined,
                    };
                    policy.record(pkt.ts, pkt.device, class, verdict);
                }
                return match obs.verdict {
                    FingerprintVerdict::Pending => ProxyDecision::Allow(AllowReason::UnknownDevice),
                    FingerprintVerdict::Match(_) => {
                        ProxyDecision::Allow(AllowReason::FingerprintMatched)
                    }
                    FingerprintVerdict::Spoof { .. } | FingerprintVerdict::NoMatch => {
                        ProxyDecision::Drop(DropReason::UnknownQuarantined)
                    }
                };
            }
        }
        // Fail open, attributed to its own reason (not FirstN) so the
        // stat and per-reason counter stay honest. Audited once per
        // device so the operator can see which devices bypass
        // enforcement entirely; per-packet entries would let an
        // unenrolled chatty device flood the hash chain.
        if self.seen.insert(pkt.device) {
            let verdict = AuditVerdict::AllowedUnknownDevice;
            policy.record(pkt.ts, pkt.device, class, verdict);
        }
        ProxyDecision::Allow(AllowReason::UnknownDevice)
    }
}
