//! Tamper-evident audit log (§7 "Technology Acceptance").
//!
//! The proxy logs every unpredictable event it decides — class, verdict,
//! whether a human was verified — in a SHA-256 hash chain. An attacker
//! wanting to hide a silent false negative must rewrite the chain, which
//! requires breaking into the proxy's TEE (out of the threat model).
//!
//! The log keeps one commitment: the **head**, the chain hash of the
//! newest entry, which commits to the whole history (it is what the TEE
//! would attest). No per-entry hash is stored; [`verify_chain`]
//! recomputes the links from the entries and compares the result with
//! the head. A snapshot holds exactly the same facts as memory.
//!
//! ## Checkpointed truncation
//!
//! A proxy that runs for months cannot keep every entry in memory, so the
//! log supports a bounded mode ([`AuditLog::set_max_entries`]): when the
//! in-memory chain exceeds the cap, the oldest half is dropped in one
//! block and the chain is computed over that block onto the previous
//! anchor. Its last link — the chain hash of the *last dropped entry* —
//! becomes the **checkpoint**, the trust anchor the surviving suffix
//! chains from. Truncation discards entry bodies, never hash-chain
//! integrity: the checkpoint commits to everything dropped (it is the
//! head of the dropped prefix), the head does not move, and an external
//! verifier who archived the dropped prefix can still join the two at
//! the checkpoint.

use crate::classifier::EventClass;
use fiat_crypto::Sha256;
use fiat_net::SimTime;

/// Sentinel device id for proxy-wide audit entries (degraded-mode
/// transitions) that concern no single device.
pub const AUDIT_PROXY_DEVICE: u16 = u16::MAX;

/// Verdict recorded for an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
#[derive(Debug, Clone, PartialEq)]
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
    /// Deterministic 16-byte record fed to the hash chain (and stored
    /// as is in a home snapshot): timestamp µs (8, BE) | device (2, BE)
    /// | class label (1) | verdict (1) | FNV-1a-32 of the first 12 bytes
    /// (4, BE). The trailing checksum makes every byte load-bearing — a
    /// record truncated or padded by a buggy (or malicious) serializer
    /// cannot produce the same chain input as a well-formed one.
    pub(crate) fn encode(&self) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&self.ts.as_micros().to_be_bytes());
        out[8..10].copy_from_slice(&self.device.to_be_bytes());
        out[10] = self.class.label() as u8;
        out[11] = VERDICT_CODES
            .iter()
            .position(|&v| v == self.verdict)
            .expect("every verdict has a code") as u8;
        let sum = fnv1a(&out[..12]);
        out[12..].copy_from_slice(&sum.to_be_bytes());
        out
    }

    /// Inverse of [`AuditEntry::encode`]: `None` when the class label or
    /// verdict code is out of range or the checksum does not match.
    pub(crate) fn decode(record: &[u8; 16]) -> Option<AuditEntry> {
        if fnv1a(&record[..12]).to_be_bytes() != record[12..] || record[10] > 2 {
            return None;
        }
        let ts: [u8; 8] = record[..8].try_into().expect("eight bytes");
        Some(AuditEntry {
            ts: SimTime::from_micros(u64::from_be_bytes(ts)),
            device: u16::from_be_bytes([record[8], record[9]]),
            class: EventClass::from_label(usize::from(record[10])),
            verdict: *VERDICT_CODES.get(usize::from(record[11]))?,
        })
    }
}

/// Each verdict's code in the chain record, by position. Later
/// additions take the next free code so the pinned golden vectors for
/// the earlier codes stay valid.
const VERDICT_CODES: [AuditVerdict; 13] = [
    AuditVerdict::AllowedNonManual,
    AuditVerdict::AllowedManualVerified,
    AuditVerdict::DroppedUnverified,
    AuditVerdict::LockedOut,
    AuditVerdict::AllowedCascade,
    AuditVerdict::AllowedUnknownDevice,
    AuditVerdict::QuarantineReleased,
    AuditVerdict::QuarantineExpired,
    AuditVerdict::DegradedModeEntered,
    AuditVerdict::DegradedModeExited,
    AuditVerdict::FingerprintMatched,
    AuditVerdict::SpoofSuspected,
    AuditVerdict::UnknownQuarantined,
];

/// FNV-1a-32, the record checksum.
fn fnv1a(bytes: &[u8]) -> u32 {
    bytes.iter().fold(0x811c_9dc5, |h, &b| {
        (h ^ u32::from(b)).wrapping_mul(0x0100_0193)
    })
}

/// Verify an exported log against the head that commits to it,
/// independent of any [`AuditLog`] instance.
///
/// This is what an external verifier (the companion app, or the
/// red-team scorecard in `fiat-attack`) runs over a log it received:
/// `true` iff chaining `entries` as `SHA-256(prev || record)` from the
/// truncation `checkpoint` (`None` = the genesis tag) ends at `head`.
/// Any rewritten, deleted, added or reordered entry changes the result.
/// A log with no entries ends where it starts: at the checkpoint, or at
/// no head at all.
pub fn verify_chain(
    checkpoint: Option<&[u8; 32]>,
    entries: &[AuditEntry],
    head: Option<[u8; 32]>,
) -> bool {
    chain(checkpoint.copied(), entries) == head
}

/// Chain `entries` onto `prev` (`None` = genesis) and return the last
/// link, or `prev` itself when there are no entries.
fn chain(prev: Option<[u8; 32]>, entries: &[AuditEntry]) -> Option<[u8; 32]> {
    entries.iter().fold(prev, |prev, e| Some(link(prev, e)))
}

/// One chain link: `SHA-256(prev || record)`, where a missing `prev` is
/// the genesis tag. At most 32 + 16 bytes, so one padded block.
fn link(prev: Option<[u8; 32]>, entry: &AuditEntry) -> [u8; 32] {
    let prev = prev.as_ref().map_or(GENESIS, |p| p.as_slice());
    let mut input = [0u8; 32 + 16];
    input[..prev.len()].copy_from_slice(prev);
    input[prev.len()..prev.len() + 16].copy_from_slice(&entry.encode());
    Sha256::digest_one_block(&input[..prev.len() + 16])
}

/// The anchor an untruncated chain starts from.
const GENESIS: &[u8] = b"fiat-audit-genesis";

/// Hash-chained audit log: the entries in memory, the checkpoint they
/// chain from, and the head that commits to the whole history.
#[derive(Debug, Default)]
pub struct AuditLog {
    entries: Vec<AuditEntry>,
    /// Truncation checkpoint: chain hash of the last dropped entry, or
    /// `None` when the chain still starts at genesis.
    checkpoint: Option<[u8; 32]>,
    /// Entries dropped by checkpointed truncation so far.
    truncated: u64,
    /// Chain hash of the newest entry ever appended, or `None` for a
    /// log that never had one.
    head: Option<[u8; 32]>,
    /// In-memory entry cap; `None` = unbounded (the historical default).
    max_entries: Option<usize>,
}

impl AuditLog {
    /// Empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuild a log from its exported parts — the restore half of a
    /// snapshot: the truncation `checkpoint` (`None` = genesis), the
    /// `truncated` count, the entries in memory and the
    /// [`head`](Self::head). Returns `None` unless [`verify_chain`]
    /// accepts the entries from the checkpoint to `head` (a snapshot
    /// whose entries were edited, reordered, added or cut at either end
    /// must not be resumed from), or when exactly one of `checkpoint`
    /// and `truncated > 0` is set: live truncation always sets both.
    pub fn from_parts_at(
        checkpoint: Option<[u8; 32]>,
        truncated: u64,
        entries: Vec<AuditEntry>,
        head: Option<[u8; 32]>,
    ) -> Option<Self> {
        let ledger_ok = checkpoint.is_some() == (truncated > 0);
        (ledger_ok && verify_chain(checkpoint.as_ref(), &entries, head)).then_some(AuditLog {
            entries,
            checkpoint,
            truncated,
            head,
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
        self.checkpoint = chain(self.checkpoint, &self.entries[..drop_n]);
        self.truncated += drop_n as u64;
        self.entries.drain(..drop_n);
    }

    /// Append an entry, extending the hash chain.
    pub fn append(&mut self, entry: AuditEntry) {
        self.head = Some(link(self.head, &entry));
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
    /// Export it with the [`entries`](Self::entries) and the
    /// [`checkpoint`](Self::checkpoint), and an external party can
    /// re-verify the chain with [`verify_chain`] without trusting this
    /// process. Truncation never moves it: when every in-memory entry
    /// has been dropped, it equals the checkpoint.
    pub fn head(&self) -> Option<[u8; 32]> {
        self.head
    }

    /// Verify the chain against the stored entries; `false` if any entry
    /// or the head was altered. A truncated log verifies from its
    /// checkpoint.
    pub fn verify(&self) -> bool {
        verify_chain(self.checkpoint.as_ref(), &self.entries, self.head)
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
        log.head.as_mut().unwrap()[0] ^= 1;
        assert!(!log.verify());
    }

    #[test]
    fn removing_entry_detected() {
        let mut log = AuditLog::new();
        log.append(entry(1, 0, AuditVerdict::DroppedUnverified));
        log.append(entry(2, 0, AuditVerdict::AllowedNonManual));
        // Deleting the incriminating entry changes the chain the head
        // commits to.
        log.entries.remove(0);
        assert!(!log.verify());
    }

    #[test]
    fn verify_chain_on_exported_copy() {
        // An external verifier works from an (entries, head) export, not
        // the log object. Tampering with either side of the export must
        // fail verification.
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
        let head = log.head();
        assert!(verify_chain(None, &entries, head));

        // Rewriting the incriminating drop into an allow.
        let mut tampered = entries.clone();
        tampered[3].verdict = AuditVerdict::AllowedManualVerified;
        assert!(!verify_chain(None, &tampered, head));

        // Truncating the tail (hiding the most recent records), or
        // presenting an older head with the full entries.
        assert!(!verify_chain(None, &entries[..4], head));
        let mut older = AuditLog::new();
        for e in &entries[..4] {
            older.append(e.clone());
        }
        assert!(!verify_chain(None, &entries, older.head()));

        // A flipped head byte, or no head at all.
        let mut flipped = head.unwrap();
        flipped[31] ^= 1;
        assert!(!verify_chain(None, &entries, Some(flipped)));
        assert!(!verify_chain(None, &entries, None));
    }

    #[test]
    fn verify_chain_detects_reordering() {
        // Swapping two records keeps the same multiset of entries, but
        // every link from the first swapped one on changes, so the chain
        // no longer ends at the head.
        let mut log = AuditLog::new();
        for i in 0..5 {
            log.append(entry(i, 1, AuditVerdict::DroppedUnverified));
        }
        let mut entries: Vec<AuditEntry> = log.entries().to_vec();
        assert!(verify_chain(None, &entries, log.head()));
        entries.swap(1, 3);
        assert!(!verify_chain(None, &entries, log.head()));
    }

    #[test]
    fn from_parts_restores_and_rejects_tampering() {
        let mut log = AuditLog::new();
        for i in 0..4 {
            log.append(entry(i, 1, AuditVerdict::AllowedManualVerified));
        }
        let entries = log.entries().to_vec();
        let head = log.head();

        // A faithful export restores and the chain still extends.
        let mut restored = AuditLog::from_parts_at(None, 0, entries.clone(), head).unwrap();
        assert_eq!(restored.head(), log.head());
        restored.append(entry(9, 1, AuditVerdict::DroppedUnverified));
        log.append(entry(9, 1, AuditVerdict::DroppedUnverified));
        assert_eq!(restored.head(), log.head());
        assert!(restored.verify());

        // A tampered export must not produce a log: an edited entry, a
        // cut tail, a cut head, or a head that commits to nothing.
        let mut bad = entries.clone();
        bad[2].verdict = AuditVerdict::LockedOut;
        assert!(AuditLog::from_parts_at(None, 0, bad, head).is_none());
        assert!(AuditLog::from_parts_at(None, 0, entries[..3].to_vec(), head).is_none());
        assert!(AuditLog::from_parts_at(None, 0, entries[1..].to_vec(), head).is_none());
        assert!(AuditLog::from_parts_at(None, 0, entries.clone(), None).is_none());
        // An empty log has no head.
        assert!(AuditLog::from_parts_at(None, 0, Vec::new(), None).is_some());
        assert!(AuditLog::from_parts_at(None, 0, Vec::new(), head).is_none());
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
        let mut first = AuditLog::new();
        first.append(log.entries()[0].clone());
        let mut other = AuditLog::new();
        other.append(AuditEntry {
            verdict: AuditVerdict::DegradedModeExited,
            ..log.entries()[0].clone()
        });
        assert_ne!(first.head(), other.head());
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
        // `heads[n]` is the head of an unbounded log after `n` appends.
        fn check(bounded: &AuditLog, heads: &[Option<[u8; 32]>], cap: usize) {
            let n = heads.len() - 1;
            let ctx = format!("cap {cap}, {n} appends");
            assert!(bounded.len() <= cap, "{ctx}");
            assert_eq!(bounded.total_appended(), n as u64, "{ctx}");
            // The checkpoint is the chain hash of the last dropped entry,
            // so an archived prefix joins the live suffix at it.
            let cp = bounded.checkpoint();
            assert_eq!(cp, heads[bounded.truncated() as usize], "{ctx}");
            // The suffix verifies from the checkpoint, and the commitment
            // to the full history is unchanged.
            assert!(
                verify_chain(cp.as_ref(), bounded.entries(), bounded.head()),
                "{ctx}"
            );
            assert_eq!(bounded.head(), heads[n], "{ctx}");
        }
        for cap in 1..=9 {
            let mut bounded = AuditLog::new();
            bounded.set_max_entries(Some(cap));
            let mut unbounded = AuditLog::new();
            let mut heads = vec![None];
            check(&bounded, &heads, cap);
            for i in 0..40 {
                let e = entry(i, 2, AuditVerdict::DroppedUnverified);
                bounded.append(e.clone());
                unbounded.append(e);
                heads.push(unbounded.head());
                check(&bounded, &heads, cap);
            }
            assert!(bounded.truncated() > 0, "cap {cap}");
        }

        // A truncated suffix does not verify from genesis.
        let mut bounded = AuditLog::new();
        bounded.set_max_entries(Some(8));
        for i in 0..40 {
            bounded.append(entry(i, 2, AuditVerdict::DroppedUnverified));
        }
        assert!(!bounded.is_empty());
        assert!(!verify_chain(None, bounded.entries(), bounded.head()));
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
        let head = log.head();

        // A faithful export restores from the checkpoint and the chain
        // still extends identically to the original.
        let mut restored =
            AuditLog::from_parts_at(cp, truncated, entries.clone(), head).expect("restores");
        assert_eq!(restored.head(), log.head());
        assert_eq!(restored.truncated(), log.truncated());
        restored.append(entry(99, 1, AuditVerdict::DroppedUnverified));
        log.append(entry(99, 1, AuditVerdict::DroppedUnverified));
        assert_eq!(restored.head(), log.head());
        assert!(restored.verify());

        // Genesis-anchored restore of a truncated suffix must refuse —
        // and so must a tampered or tail-cut suffix from the right
        // checkpoint.
        assert!(AuditLog::from_parts_at(None, 0, entries.clone(), head).is_none());
        let mut bad = entries.clone();
        bad[0].verdict = AuditVerdict::LockedOut;
        assert!(AuditLog::from_parts_at(cp, truncated, bad, head).is_none());
        let cut = entries[..entries.len() - 1].to_vec();
        assert!(AuditLog::from_parts_at(cp, truncated, cut, head).is_none());

        // A truncation ledger the live log cannot produce: a truncated
        // count with no checkpoint, or a checkpoint with nothing dropped.
        let mut suffix = AuditLog::new();
        for e in &entries {
            suffix.append(e.clone());
        }
        assert!(AuditLog::from_parts_at(None, truncated, entries.clone(), suffix.head()).is_none());
        assert!(AuditLog::from_parts_at(cp, 0, entries.clone(), head).is_none());
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
    fn link_is_the_streaming_digest_of_prev_and_record() {
        let e = entry(7, 3, AuditVerdict::LockedOut);
        let streaming = |prev: &[u8]| {
            let mut h = Sha256::new();
            h.update(prev);
            h.update(&e.encode());
            h.finalize()
        };
        assert_eq!(link(None, &e), streaming(GENESIS));
        let prev = link(None, &e);
        assert_eq!(link(Some(prev), &e), streaming(&prev));
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
