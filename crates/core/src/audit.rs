//! Tamper-evident audit log (§7 "Technology Acceptance").
//!
//! The proxy logs every unpredictable event it decides — class, verdict,
//! whether a human was verified — in a SHA-256 hash chain. An attacker
//! wanting to hide a silent false negative must rewrite the chain, which
//! requires breaking into the proxy's TEE (out of the threat model).
//!
//! ## Checkpointed truncation
//!
//! A proxy that runs for months cannot keep every entry in memory, so the
//! log supports a bounded mode ([`AuditLog::set_max_entries`]): when the
//! in-memory chain exceeds the cap, the oldest half is dropped in one
//! block and the chain hash of the *last dropped entry* becomes the
//! **checkpoint** — the trust anchor the surviving suffix chains from.
//! Truncation discards entry bodies, never hash-chain integrity: the
//! checkpoint commits to everything dropped (it is the head of the
//! dropped prefix), so [`verify_chain_from`] validates the suffix exactly
//! as [`verify_chain`] validates a full log, and an external verifier who
//! archived the dropped prefix can still join the two at the checkpoint.

use crate::classifier::EventClass;
use fiat_crypto::Sha256;
use fiat_net::SimTime;
use serde::{Deserialize, Serialize};

/// Sentinel device id for proxy-wide audit entries (degraded-mode
/// transitions) that concern no single device.
pub const AUDIT_PROXY_DEVICE: u16 = u16::MAX;

/// Verdict recorded for an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AuditVerdict {
    /// Event allowed as non-manual.
    AllowedNonManual,
    /// Manual event allowed after humanness validation.
    AllowedManualVerified,
    /// Manual event allowed via an interaction-graph cascade (§7).
    AllowedCascade,
    /// Manual event dropped (no human verified).
    DroppedUnverified,
    /// Device locked out (brute-force protection).
    LockedOut,
    /// Traffic of an unregistered device allowed fail-open (incremental
    /// deployment). Recorded once per device, at first sighting.
    AllowedUnknownDevice,
    /// A quarantined manual event released retroactively: its humanness
    /// proof arrived (late but) before the proof deadline.
    QuarantineReleased,
    /// A quarantined manual event demoted at its proof deadline: no proof
    /// arrived in time, so the held packets were discarded and the
    /// episode counted toward the lockout.
    QuarantineExpired,
    /// The proxy lost its control plane and entered degraded mode:
    /// decisions from here on ran against last-known-good key epochs.
    /// Recorded with the [`AUDIT_PROXY_DEVICE`] sentinel — the
    /// transition concerns the proxy, not a device.
    DegradedModeEntered,
    /// The control plane came back; the proxy left degraded mode.
    DegradedModeExited,
    /// An unknown device's traffic behaviorally matched its claimed
    /// class: provisional allow, recorded once when the fingerprint
    /// evidence window sealed.
    FingerprintMatched,
    /// An unknown device's traffic behaviorally matched a *different*
    /// class than the one it claims (spoof suspected): quarantined.
    SpoofSuspected,
    /// An unknown device produced no confident behavioral match inside
    /// the evidence window: quarantined instead of the legacy fail-open.
    UnknownQuarantined,
}

/// One audit record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AuditEntry {
    /// Decision time.
    pub ts: SimTime,
    /// Device concerned.
    pub device: u16,
    /// Classifier output.
    pub class: EventClass,
    /// Verdict applied.
    pub verdict: AuditVerdict,
}

impl AuditEntry {
    /// Deterministic 16-byte record fed to the hash chain:
    /// timestamp µs (8, BE) | device (2, BE) | class label (1) |
    /// verdict (1) | FNV-1a-32 of the first 12 bytes (4, BE). The
    /// trailing checksum makes every byte load-bearing — a record
    /// truncated or padded by a buggy (or malicious) serializer cannot
    /// produce the same chain input as a well-formed one.
    fn encode(&self) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&self.ts.as_micros().to_be_bytes());
        out[8..10].copy_from_slice(&self.device.to_be_bytes());
        out[10] = self.class.label() as u8;
        out[11] = match self.verdict {
            AuditVerdict::AllowedNonManual => 0,
            AuditVerdict::AllowedManualVerified => 1,
            AuditVerdict::DroppedUnverified => 2,
            AuditVerdict::LockedOut => 3,
            AuditVerdict::AllowedCascade => 4,
            AuditVerdict::AllowedUnknownDevice => 5,
            // Later additions take the next free code so the pinned
            // golden vectors for 0..=5 stay valid.
            AuditVerdict::QuarantineReleased => 6,
            AuditVerdict::QuarantineExpired => 7,
            AuditVerdict::DegradedModeEntered => 8,
            AuditVerdict::DegradedModeExited => 9,
            AuditVerdict::FingerprintMatched => 10,
            AuditVerdict::SpoofSuspected => 11,
            AuditVerdict::UnknownQuarantined => 12,
        };
        let mut fnv: u32 = 0x811c_9dc5;
        for &b in &out[..12] {
            fnv ^= u32::from(b);
            fnv = fnv.wrapping_mul(0x0100_0193);
        }
        out[12..].copy_from_slice(&fnv.to_be_bytes());
        out
    }
}

/// Verify an exported (entries, hashes) pair against the chain rules,
/// independent of any [`AuditLog`] instance.
///
/// This is what an external verifier (the companion app, or the
/// red-team scorecard in `fiat-attack`) runs over a log it received:
/// `true` iff every stored hash equals `SHA-256(prev || record)` walking
/// from the genesis tag, and the two slices have equal length. Any
/// rewritten entry, flipped hash byte, deletion, or reordering breaks at
/// least one link.
pub fn verify_chain(entries: &[AuditEntry], hashes: &[[u8; 32]]) -> bool {
    verify_chain_with(b"fiat-audit-genesis", entries, hashes)
}

/// Verify an exported `(entries, hashes)` suffix whose chain starts at a
/// truncation `checkpoint` instead of genesis: `true` iff every stored
/// hash equals `SHA-256(prev || record)` walking from the checkpoint.
/// This is what a verifier runs over a log that was checkpoint-truncated
/// (see the module docs) — the checkpoint is the chain hash of the last
/// dropped entry and commits to the whole dropped prefix.
pub fn verify_chain_from(
    checkpoint: &[u8; 32],
    entries: &[AuditEntry],
    hashes: &[[u8; 32]],
) -> bool {
    verify_chain_with(checkpoint, entries, hashes)
}

fn verify_chain_with(anchor: &[u8], entries: &[AuditEntry], hashes: &[[u8; 32]]) -> bool {
    if entries.len() != hashes.len() {
        return false;
    }
    let mut prev: Vec<u8> = anchor.to_vec();
    for (e, stored) in entries.iter().zip(hashes) {
        let mut h = Sha256::new();
        h.update(&prev);
        h.update(&e.encode());
        if &h.finalize() != stored {
            return false;
        }
        prev = stored.to_vec();
    }
    true
}

/// Hash-chained audit log.
#[derive(Debug, Default)]
pub struct AuditLog {
    entries: Vec<AuditEntry>,
    hashes: Vec<[u8; 32]>,
    /// Truncation checkpoint: chain hash of the last dropped entry, or
    /// `None` when the chain still starts at genesis.
    checkpoint: Option<[u8; 32]>,
    /// Entries dropped by checkpointed truncation so far.
    truncated: u64,
    /// In-memory entry cap; `None` = unbounded (the historical default).
    max_entries: Option<usize>,
}

impl AuditLog {
    /// Empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuild a log from exported `(entries, hashes)` — the restore half
    /// of a snapshot — whose chain starts at a truncation `checkpoint`
    /// (`None` = genesis) with `truncated` entries already dropped.
    /// Returns `None` when the suffix fails verification from the given
    /// anchor: a snapshot that does not verify was tampered with (or
    /// truncated) and must not be resumed from.
    pub fn from_parts_at(
        checkpoint: Option<[u8; 32]>,
        truncated: u64,
        entries: Vec<AuditEntry>,
        hashes: Vec<[u8; 32]>,
    ) -> Option<Self> {
        let ok = match &checkpoint {
            Some(cp) => verify_chain_from(cp, &entries, &hashes),
            None => verify_chain(&entries, &hashes),
        };
        if !ok {
            return None;
        }
        Some(AuditLog {
            entries,
            hashes,
            checkpoint,
            truncated,
            max_entries: None,
        })
    }

    /// Bound the in-memory chain: when an append pushes the length past
    /// `max`, the oldest half is dropped in one block and the checkpoint
    /// advances (see the module docs). `None` restores the unbounded
    /// historical behavior. An over-cap log is truncated immediately.
    pub fn set_max_entries(&mut self, max: Option<usize>) {
        self.max_entries = max;
        self.enforce_cap();
    }

    /// Truncation checkpoint (chain hash of the last dropped entry), or
    /// `None` while the chain still starts at genesis.
    pub fn checkpoint(&self) -> Option<[u8; 32]> {
        self.checkpoint
    }

    /// Entries dropped by checkpointed truncation so far.
    pub fn truncated(&self) -> u64 {
        self.truncated
    }

    fn enforce_cap(&mut self) {
        let Some(max) = self.max_entries else { return };
        if self.entries.len() <= max {
            return;
        }
        // Drop down to half the cap in one block so truncation cost is
        // amortized O(1) per append, not O(n) on every over-cap entry.
        let keep = max / 2;
        let drop_n = self.entries.len() - keep;
        self.checkpoint = Some(self.hashes[drop_n - 1]);
        self.truncated += drop_n as u64;
        self.entries.drain(..drop_n);
        self.hashes.drain(..drop_n);
    }

    /// Append an entry, extending the hash chain.
    pub fn append(&mut self, entry: AuditEntry) {
        let prev: &[u8] = match self.hashes.last() {
            Some(h) => h,
            None => match &self.checkpoint {
                Some(cp) => cp,
                None => b"fiat-audit-genesis",
            },
        };
        let mut h = Sha256::new();
        h.update(prev);
        h.update(&entry.encode());
        self.hashes.push(h.finalize());
        self.entries.push(entry);
        self.enforce_cap();
    }

    /// Entries currently in memory, in order (the suffix after any
    /// checkpointed truncation).
    pub fn entries(&self) -> &[AuditEntry] {
        &self.entries
    }

    /// Number of entries currently in memory.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the in-memory log is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries ever appended, including truncated ones.
    pub fn total_appended(&self) -> u64 {
        self.truncated + self.entries.len() as u64
    }

    /// Head hash committing to the whole log (what the TEE would attest).
    /// Falls back to the checkpoint when every in-memory entry has been
    /// truncated — the commitment to history never regresses.
    pub fn head(&self) -> Option<[u8; 32]> {
        self.hashes.last().copied().or(self.checkpoint)
    }

    /// Per-entry chain hashes, parallel to [`entries`](Self::entries).
    /// Export both and an external party can re-verify the chain with
    /// [`verify_chain`] (or [`verify_chain_from`] the checkpoint, for a
    /// truncated log) without trusting this process.
    pub fn hashes(&self) -> &[[u8; 32]] {
        &self.hashes
    }

    /// Verify the chain against the stored entries; `false` if any entry
    /// or hash was altered. A truncated log verifies from its checkpoint.
    pub fn verify(&self) -> bool {
        match &self.checkpoint {
            Some(cp) => verify_chain_from(cp, &self.entries, &self.hashes),
            None => verify_chain(&self.entries, &self.hashes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(ts_s: u64, device: u16, verdict: AuditVerdict) -> AuditEntry {
        AuditEntry {
            ts: SimTime::from_secs(ts_s),
            device,
            class: EventClass::Manual,
            verdict,
        }
    }

    #[test]
    fn chain_verifies_when_untouched() {
        let mut log = AuditLog::new();
        for i in 0..10 {
            log.append(entry(i, 0, AuditVerdict::AllowedManualVerified));
        }
        assert!(log.verify());
        assert_eq!(log.len(), 10);
        assert!(log.head().is_some());
    }

    #[test]
    fn tampering_with_entry_detected() {
        let mut log = AuditLog::new();
        log.append(entry(1, 0, AuditVerdict::DroppedUnverified));
        log.append(entry(2, 0, AuditVerdict::AllowedNonManual));
        // Attacker rewrites the drop into an allow.
        log.entries[0].verdict = AuditVerdict::AllowedManualVerified;
        assert!(!log.verify());
    }

    #[test]
    fn tampering_with_hash_detected() {
        let mut log = AuditLog::new();
        log.append(entry(1, 0, AuditVerdict::DroppedUnverified));
        log.append(entry(2, 0, AuditVerdict::AllowedNonManual));
        log.hashes[0][0] ^= 1;
        assert!(!log.verify());
    }

    #[test]
    fn removing_entry_detected() {
        let mut log = AuditLog::new();
        log.append(entry(1, 0, AuditVerdict::DroppedUnverified));
        log.append(entry(2, 0, AuditVerdict::AllowedNonManual));
        // Deleting the incriminating entry but keeping its hash breaks the
        // count invariant; deleting both breaks the successor's link.
        log.entries.remove(0);
        assert!(!log.verify());
    }

    #[test]
    fn verify_chain_on_exported_copy() {
        // An external verifier works from (entries, hashes) snapshots,
        // not the log object. Tampering with either side of the export
        // must fail verification.
        let mut log = AuditLog::new();
        for i in 0..6 {
            let verdict = if i == 3 {
                AuditVerdict::DroppedUnverified
            } else {
                AuditVerdict::AllowedManualVerified
            };
            log.append(entry(i, 2, verdict));
        }
        let entries: Vec<AuditEntry> = log.entries().to_vec();
        let hashes: Vec<[u8; 32]> = log.hashes().to_vec();
        assert_eq!(hashes.len(), entries.len());
        assert!(verify_chain(&entries, &hashes));

        // Rewriting the incriminating drop into an allow.
        let mut tampered = entries.clone();
        tampered[3].verdict = AuditVerdict::AllowedManualVerified;
        assert!(!verify_chain(&tampered, &hashes));

        // Truncating the tail (hiding the most recent records).
        assert!(!verify_chain(&entries[..4], &hashes));
        assert!(!verify_chain(&entries, &hashes[..4]));
    }

    #[test]
    fn verify_chain_detects_reordering() {
        // Swapping two records *and* their hashes keeps each pairwise
        // (entry, hash) association intact, but breaks the prev-links on
        // both sides of the swap.
        let mut log = AuditLog::new();
        for i in 0..5 {
            log.append(entry(i, 1, AuditVerdict::DroppedUnverified));
        }
        let mut entries: Vec<AuditEntry> = log.entries().to_vec();
        let mut hashes: Vec<[u8; 32]> = log.hashes().to_vec();
        entries.swap(1, 3);
        hashes.swap(1, 3);
        assert!(!verify_chain(&entries, &hashes));
    }

    #[test]
    fn from_parts_restores_and_rejects_tampering() {
        let mut log = AuditLog::new();
        for i in 0..4 {
            log.append(entry(i, 1, AuditVerdict::AllowedManualVerified));
        }
        let entries = log.entries().to_vec();
        let hashes = log.hashes().to_vec();

        // A faithful export restores and the chain still extends.
        let mut restored =
            AuditLog::from_parts_at(None, 0, entries.clone(), hashes.clone()).unwrap();
        assert_eq!(restored.head(), log.head());
        restored.append(entry(9, 1, AuditVerdict::DroppedUnverified));
        log.append(entry(9, 1, AuditVerdict::DroppedUnverified));
        assert_eq!(restored.head(), log.head());
        assert!(restored.verify());

        // A tampered export must not produce a log.
        let mut bad = entries.clone();
        bad[2].verdict = AuditVerdict::LockedOut;
        assert!(AuditLog::from_parts_at(None, 0, bad, hashes.clone()).is_none());
        assert!(AuditLog::from_parts_at(None, 0, entries[..3].to_vec(), hashes).is_none());
    }

    #[test]
    fn degraded_mode_verdicts_take_next_codes() {
        // Codes 8/9 extend the documented encoding without disturbing
        // the pinned golden vectors for 0..=7.
        let enter = AuditEntry {
            ts: SimTime::from_secs(1),
            device: AUDIT_PROXY_DEVICE,
            class: EventClass::Control,
            verdict: AuditVerdict::DegradedModeEntered,
        };
        let exit = AuditEntry {
            ts: SimTime::from_secs(2),
            device: AUDIT_PROXY_DEVICE,
            class: EventClass::Control,
            verdict: AuditVerdict::DegradedModeExited,
        };
        let mut log = AuditLog::new();
        log.append(enter);
        log.append(exit);
        assert!(log.verify());
        let mut other = AuditLog::new();
        other.append(AuditEntry {
            verdict: AuditVerdict::DegradedModeExited,
            ..log.entries()[0].clone()
        });
        assert_ne!(log.hashes()[0], other.hashes()[0]);
    }

    #[test]
    fn empty_log() {
        let log = AuditLog::new();
        assert!(log.verify());
        assert!(log.is_empty());
        assert_eq!(log.head(), None);
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn golden_chain_hashes_are_pinned() {
        // Golden vectors computed independently (Python hashlib) from the
        // documented record layout: ts µs (8, BE) | device (2, BE) |
        // class (1) | verdict (1) | FNV-1a-32 of bytes 0..12 (4, BE),
        // chained as SHA-256(prev || record) from b"fiat-audit-genesis".
        // A change to the encoding or the chain breaks this test — bump
        // the vectors only on a deliberate format change.
        let e1 = AuditEntry {
            ts: SimTime::from_secs(1),
            device: 7,
            class: EventClass::Manual,
            verdict: AuditVerdict::DroppedUnverified,
        };
        let e2 = AuditEntry {
            ts: SimTime::from_secs(2),
            device: 7,
            class: EventClass::Control,
            verdict: AuditVerdict::AllowedNonManual,
        };
        assert_eq!(hex(&e1.encode()), "00000000000f424000070202ad0d7503");
        assert_eq!(hex(&e2.encode()), "00000000001e84800007000000eb04ae");

        let mut log = AuditLog::new();
        log.append(e1);
        assert_eq!(
            hex(&log.head().unwrap()),
            "7d4ad8078ba7ed8d2a38da40f1a0c5c6ff71b617f7557b1e064c1db2dc61f6c9"
        );
        log.append(e2);
        assert_eq!(
            hex(&log.head().unwrap()),
            "f390779bf447069fc045fd0dbc8102481010c136974ce547a97402287bc59b88"
        );
        assert!(log.verify());
    }

    #[test]
    fn checkpointed_truncation_keeps_chain_verifiable() {
        let mut bounded = AuditLog::new();
        bounded.set_max_entries(Some(8));
        let mut unbounded = AuditLog::new();
        for i in 0..40 {
            let e = entry(i, 2, AuditVerdict::DroppedUnverified);
            bounded.append(e.clone());
            unbounded.append(e);
        }
        // The cap held, entries were dropped, and the commitment to the
        // full history is unchanged: both logs attest the same head.
        assert!(bounded.len() <= 8);
        assert!(bounded.truncated() > 0);
        assert_eq!(bounded.total_appended(), 40);
        assert_eq!(bounded.head(), unbounded.head());
        assert!(bounded.verify());

        // The suffix verifies from the checkpoint, not from genesis.
        let cp = bounded.checkpoint().expect("truncation sets checkpoint");
        assert!(verify_chain_from(&cp, bounded.entries(), bounded.hashes()));
        assert!(!verify_chain(bounded.entries(), bounded.hashes()));

        // The checkpoint is the chain hash of the last dropped entry, so
        // an archived prefix joins the live suffix at the checkpoint.
        let dropped = bounded.truncated() as usize;
        assert_eq!(cp, unbounded.hashes()[dropped - 1]);
        assert!(verify_chain(
            &unbounded.entries()[..dropped],
            &unbounded.hashes()[..dropped]
        ));
    }

    #[test]
    fn truncated_log_restores_via_from_parts_at() {
        let mut log = AuditLog::new();
        log.set_max_entries(Some(6));
        for i in 0..20 {
            log.append(entry(i, 1, AuditVerdict::AllowedManualVerified));
        }
        let cp = log.checkpoint();
        let truncated = log.truncated();
        let entries = log.entries().to_vec();
        let hashes = log.hashes().to_vec();

        // A faithful export restores from the checkpoint and the chain
        // still extends identically to the original.
        let mut restored = AuditLog::from_parts_at(cp, truncated, entries.clone(), hashes.clone())
            .expect("restores");
        assert_eq!(restored.head(), log.head());
        assert_eq!(restored.truncated(), log.truncated());
        restored.append(entry(99, 1, AuditVerdict::DroppedUnverified));
        log.append(entry(99, 1, AuditVerdict::DroppedUnverified));
        assert_eq!(restored.head(), log.head());
        assert!(restored.verify());

        // Genesis-anchored restore of a truncated suffix must refuse —
        // and so must a tampered suffix from the right checkpoint.
        assert!(AuditLog::from_parts_at(None, 0, entries.clone(), hashes.clone()).is_none());
        let mut bad = entries.clone();
        bad[0].verdict = AuditVerdict::LockedOut;
        assert!(AuditLog::from_parts_at(cp, truncated, bad, hashes).is_none());
    }

    #[test]
    fn head_falls_back_to_checkpoint_when_all_entries_truncated() {
        let mut log = AuditLog::new();
        log.set_max_entries(Some(1));
        log.append(entry(1, 0, AuditVerdict::DroppedUnverified));
        let head_before = log.head();
        log.append(entry(2, 0, AuditVerdict::DroppedUnverified));
        // max 1 keeps max/2 = 0 entries: everything is truncated, but the
        // head still commits to both entries (and never regresses).
        assert!(log.is_empty());
        assert_eq!(log.truncated(), 2);
        assert!(log.head().is_some());
        assert_ne!(log.head(), head_before);
        assert!(log.verify());
    }

    #[test]
    fn encode_uses_all_sixteen_bytes() {
        // The checksum tail must depend on the header: entries differing
        // in any field produce different trailing bytes, and no entry
        // leaves them zero.
        let a = entry(1, 0, AuditVerdict::DroppedUnverified).encode();
        let b = entry(1, 1, AuditVerdict::DroppedUnverified).encode();
        let c = entry(1, 0, AuditVerdict::LockedOut).encode();
        assert_ne!(a[12..], b[12..]);
        assert_ne!(a[12..], c[12..]);
        assert_ne!(a[12..], [0u8; 4]);
    }
}
