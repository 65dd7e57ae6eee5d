//! The online evidence-window engine behind [`FingerprintGate`].

use crate::features::{fold_packet, profile, FEATURE_COUNT};
use crate::SignatureSet;
use fiat_core::{FingerprintGate, FingerprintObservation, FingerprintVerdict};
use fiat_net::{DnsTable, PacketRecord, RemoteId, SimTime};

/// Most claimed-domain slots an evidence record can hold
/// ([`MatcherConfig::claim_domains`] is clamped to this).
pub const MAX_CLAIM_DOMAINS: usize = 8;

/// Matcher and evidence-window parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatcherConfig {
    /// Packets accumulated per unknown device before the verdict seals.
    /// Must stay below the smallest command-completion threshold the
    /// deployment cares about (the testbed's WyzeCam needs 41), so an
    /// impersonator cannot finish a long command inside the window.
    pub evidence_window: u32,
    /// Maximum L1 profile distance (per-mille units) for a confident
    /// match.
    pub max_distance: u32,
    /// Minimum lead over the runner-up signature; anything closer is
    /// ambiguous and degrades to no-confident-match rather than risking
    /// a cross-class flip.
    pub min_margin: u32,
    /// Concurrent open evidence windows. Past the cap the
    /// least-recently-active window is evicted — and *sealed* with its
    /// partial evidence, so eviction is never a free evidence reset.
    pub max_tracked: usize,
    /// Cached sealed verdicts (least-recently-replayed eviction past
    /// the cap).
    pub max_sealed: usize,
    /// Distinct destination domains recorded as the device's *claim*
    /// (clamped to [`MAX_CLAIM_DOMAINS`]).
    pub claim_domains: usize,
}

impl Default for MatcherConfig {
    fn default() -> Self {
        MatcherConfig {
            evidence_window: 24,
            max_distance: 1500,
            min_margin: 400,
            max_tracked: 64,
            max_sealed: 256,
            claim_domains: 4,
        }
    }
}

/// Fixed-size evidence for one unknown device's open window.
#[derive(Debug, Clone, Copy)]
struct Evidence {
    hist: [u32; FEATURE_COUNT],
    seen: u32,
    last_ts: SimTime,
    last_size: u16,
    claims: [u32; MAX_CLAIM_DOMAINS],
    n_claims: usize,
    /// Class a previous full window confidently matched *against* the
    /// device's claim. A single contradictory window (e.g. one media
    /// burst reshaped by a padding countermeasure into another class's
    /// buckets) only restarts the window with this candidate armed, and
    /// the device's traffic is dropped (`NoMatch`) while the
    /// confirmation window fills; a second consecutive window that
    /// confidently matches *any* wrong class seals the spoof verdict.
    /// Exactly one restart — an attacker alternating mimicry between
    /// classes cannot re-arm forever.
    candidate: Option<u16>,
}

impl Evidence {
    fn new() -> Evidence {
        Evidence {
            hist: [0; FEATURE_COUNT],
            seen: 0,
            last_ts: SimTime::ZERO,
            last_size: 0,
            claims: [0; MAX_CLAIM_DOMAINS],
            n_claims: 0,
            candidate: None,
        }
    }

    /// Restart the window for a second opinion, keeping only the armed
    /// spoof candidate.
    fn restart(&mut self, candidate: u16) {
        *self = Evidence::new();
        self.candidate = Some(candidate);
    }
}

/// The production fingerprint gate: accumulates a bounded per-device
/// evidence window, seals it with one nearest-signature decision, and
/// caches the sealed verdict for every later packet.
///
/// Determinism and allocation discipline: all state lives in two
/// `Vec`s preallocated to their caps and kept in LRU order (front =
/// eviction victim; touches move to the back without reallocating),
/// every decision is integer arithmetic, and after a device's window
/// seals its packets cost one linear scan and zero allocations (pinned
/// by `tests/zero_alloc.rs`).
pub struct FingerprintEngine {
    signatures: SignatureSet,
    cfg: MatcherConfig,
    tracked: Vec<(u16, Evidence)>,
    sealed: Vec<(u16, FingerprintVerdict)>,
    sealed_total: [u64; 3],
}

impl FingerprintEngine {
    /// Engine over a learned signature set.
    pub fn new(signatures: SignatureSet, mut cfg: MatcherConfig) -> FingerprintEngine {
        cfg.claim_domains = cfg.claim_domains.min(MAX_CLAIM_DOMAINS);
        cfg.evidence_window = cfg.evidence_window.max(1);
        cfg.max_tracked = cfg.max_tracked.max(1);
        cfg.max_sealed = cfg.max_sealed.max(1);
        FingerprintEngine {
            signatures,
            tracked: Vec::with_capacity(cfg.max_tracked),
            sealed: Vec::with_capacity(cfg.max_sealed),
            sealed_total: [0; 3],
            cfg,
        }
    }

    /// The signature set the engine matches against.
    pub fn signatures(&self) -> &SignatureSet {
        &self.signatures
    }

    /// Sealed verdict cached for `device`, if its window has closed.
    pub fn sealed_verdict(&self, device: u16) -> Option<FingerprintVerdict> {
        self.sealed
            .iter()
            .find(|(d, _)| *d == device)
            .map(|&(_, v)| v)
    }

    /// Windows sealed so far as `[matched, spoof_suspected, no_match]`.
    pub fn sealed_counts(&self) -> [u64; 3] {
        self.sealed_total
    }

    /// Seal the evidence in `ev`: behavioral nearest-signature decision
    /// crossed with the claimed class.
    fn seal(&self, ev: &Evidence, dns: &DnsTable) -> FingerprintVerdict {
        let obs = profile(&ev.hist);
        let behavioral = self.signatures.confident_match(&obs, &self.cfg);
        match behavioral {
            // A confident behavioral identity that contradicts the
            // claimed class is the spoof signal. Matching the claim (or
            // claiming nothing recognizable) is a provisional pass.
            Some(b) => match self
                .signatures
                .claimed_class(&ev.claims[..ev.n_claims], dns)
            {
                Some(c) if c != b => FingerprintVerdict::Spoof {
                    claimed: c,
                    matched: b,
                },
                _ => FingerprintVerdict::Match(b),
            },
            // No confident behavior — including a genuine device under
            // padding/shaping countermeasures — is *never* attributed to
            // another class: it degrades to the explicit no-match.
            None => FingerprintVerdict::NoMatch,
        }
    }

    /// Record a sealed verdict in the LRU cache and the totals.
    fn commit(&mut self, device: u16, verdict: FingerprintVerdict) {
        self.sealed_total[match verdict {
            FingerprintVerdict::Match(_) => 0,
            FingerprintVerdict::Spoof { .. } => 1,
            _ => 2,
        }] += 1;
        if self.sealed.len() >= self.cfg.max_sealed {
            self.sealed.remove(0);
        }
        self.sealed.push((device, verdict));
    }
}

impl FingerprintGate for FingerprintEngine {
    fn observe(&mut self, pkt: &PacketRecord, dns: &DnsTable) -> FingerprintObservation {
        // Steady state: the device's verdict is already sealed. The
        // replay refreshes the entry's LRU slot, so an active device's
        // verdict cannot be flushed out of the cache by a burst of
        // throwaway-MAC seals (which would reopen its Pending window).
        if let Some(i) = self.sealed.iter().position(|(d, _)| *d == pkt.device) {
            let entry = self.sealed.remove(i);
            let v = entry.1;
            self.sealed.push(entry);
            return FingerprintObservation {
                verdict: v,
                just_sealed: false,
            };
        }

        // Find the device's evidence window, refreshing its LRU slot,
        // or open one. Past the cap the least-recently-active window is
        // evicted — a one-shot throwaway MAC, not a device that is
        // actively sending — and the victim is *sealed* with whatever
        // partial evidence it has, rather than discarded: silently
        // dropping an open window would let a device that floods
        // throwaway MACs reset its own evidence each cycle and stay
        // Pending (allowed) forever. An un-confirmed Spoof from partial
        // evidence is demoted to NoMatch — still quarantined, but the
        // accusation keeps requiring a prior full contradictory window.
        match self.tracked.iter().position(|(d, _)| *d == pkt.device) {
            Some(i) => {
                let entry = self.tracked.remove(i);
                self.tracked.push(entry);
            }
            None => {
                if self.tracked.len() >= self.cfg.max_tracked {
                    let (victim, ev) = self.tracked.remove(0);
                    let verdict = match self.seal(&ev, dns) {
                        FingerprintVerdict::Spoof { .. } if ev.candidate.is_none() => {
                            FingerprintVerdict::NoMatch
                        }
                        v => v,
                    };
                    self.commit(victim, verdict);
                }
                self.tracked.push((pkt.device, Evidence::new()));
            }
        };
        let idx = self.tracked.len() - 1;

        let ev = &mut self.tracked[idx].1;
        let prev = (ev.seen > 0).then_some((ev.last_ts, ev.last_size));
        fold_packet(&mut ev.hist, pkt, prev);
        ev.last_ts = pkt.ts;
        ev.last_size = pkt.size;
        ev.seen += 1;
        if ev.n_claims < self.cfg.claim_domains {
            if let RemoteId::Domain(id) = dns.remote_id(pkt.remote_ip) {
                if !ev.claims[..ev.n_claims].contains(&id) {
                    ev.claims[ev.n_claims] = id;
                    ev.n_claims += 1;
                }
            }
        }

        if ev.seen < self.cfg.evidence_window {
            // While a spoof candidate is armed the device is already
            // quarantined: its confirmation-window traffic reads NoMatch
            // (drop), never Pending (allow) — otherwise a spoofer whose
            // first window sealed contradictory would get a second
            // window of forwarded packets, enough to finish a command.
            return FingerprintObservation {
                verdict: if ev.candidate.is_some() {
                    FingerprintVerdict::NoMatch
                } else {
                    FingerprintVerdict::Pending
                },
                just_sealed: false,
            };
        }

        // Window full: decide. Only the first window forwards traffic
        // (the confirmation window reads NoMatch throughout), so at most
        // `evidence_window - 1` packets of an unknown device are ever
        // forwarded, spoofer or not.
        let ev = self.tracked[idx].1;
        let verdict = self.seal(&ev, dns);
        if let FingerprintVerdict::Spoof { matched, .. } = verdict {
            if ev.candidate.is_none() {
                // First contradictory window: arm the candidate and
                // demand a second contradictory window before the
                // accusation. Until then the device's traffic reads as
                // NoMatch — quarantined, but not yet branded a spoofer.
                self.tracked[idx].1.restart(matched);
                return FingerprintObservation {
                    verdict: FingerprintVerdict::NoMatch,
                    just_sealed: false,
                };
            }
            // Candidate armed: any confident wrong class confirms. A
            // genuine device's fluke window is followed by Match or
            // NoMatch; only sustained wrong-class behavior lands here,
            // and letting a different wrong class re-arm would let an
            // attacker alternate mimicry between two classes and never
            // seal.
        }
        let (device, _) = self.tracked.remove(idx);
        self.commit(device, verdict);
        FingerprintObservation {
            verdict,
            just_sealed: true,
        }
    }

    fn state_size(&self) -> usize {
        self.tracked.len() + self.sealed.len()
    }
}
