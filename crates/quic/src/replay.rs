//! Server-side 0-RTT anti-replay store, keyed by ticket epoch.
//!
//! §5.3: "given only few devices are authorized within a household, it is
//! feasible for the IoT proxy to keep a state of all previously held
//! connections, which would prevent a replay attack." We remember every
//! accepted (ticket, nonce) pair, with an optional capacity bound that
//! evicts the *oldest ticket wholesale* (never individual nonces — partial
//! eviction would re-open the replay window for that ticket).
//!
//! The store is partitioned by **ticket epoch** (the key-lifecycle
//! generation the ticket was issued under). The control plane retires old
//! epochs wholesale via [`retire_below`]: a retired epoch's entire nonce
//! history is dropped in one step, which is what bounds the store's
//! memory across key rotations — live state is at most
//! `live_epochs × max_tickets` ticket sets. Early data under a retired
//! epoch must be refused outright ([`is_retired`]); without its nonce
//! history a verbatim replay would look fresh, exactly the hazard the
//! per-ticket eviction watermark already guards inside one epoch.
//!
//! [`retire_below`]: ReplayStore::retire_below
//! [`is_retired`]: ReplayStore::is_retired

use crate::connection::ServerImage;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashSet};

/// Per-epoch replay state: per-ticket sets of accepted early-data nonces
/// plus the eviction watermark for this epoch's capacity bound.
#[derive(Debug, Default, Clone)]
struct EpochState {
    seen: BTreeMap<u64, HashSet<u64>>,
    /// Highest ticket id ever evicted in this epoch. Tickets at or below
    /// this watermark have lost their nonce sets, so their early data can
    /// no longer be replay-checked and must be rejected wholesale via
    /// [`ReplayStore::is_stale_in`].
    evicted_watermark: Option<u64>,
}

impl EpochState {
    fn entries(&self) -> usize {
        self.seen.values().map(HashSet::len).sum()
    }
}

/// Outcome of recording a (ticket, nonce) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InsertOutcome {
    /// `true` if the pair was fresh, `false` on a detected replay.
    pub fresh: bool,
    /// Nonce entries discarded by capacity eviction as a side effect
    /// (whole tickets evicted from the same epoch).
    pub evicted_entries: usize,
}

/// Replay store: per-epoch, per-ticket sets of accepted early-data
/// nonces.
#[derive(Debug, Default)]
pub struct ReplayStore {
    epochs: BTreeMap<u32, EpochState>,
    max_tickets: Option<usize>,
    /// Epochs strictly below this are retired: their nonce history is
    /// gone and early data under them is refused wholesale.
    retired_below: u32,
    /// Epochs retired over the store's lifetime (monotone).
    retired_count: u64,
}

impl ReplayStore {
    /// Unbounded store (fine for a household's handful of devices).
    pub fn new() -> Self {
        Self::default()
    }

    /// Store that retains at most `max_tickets` tickets *per epoch*,
    /// evicting oldest ticket ids first. Eviction discards a ticket's
    /// whole nonce set, so the caller MUST consult
    /// [`is_stale_in`](ReplayStore::is_stale_in) before
    /// `check_and_insert_in` and reject early data for evicted tickets
    /// outright — otherwise a replayed packet for an evicted ticket would
    /// look fresh.
    pub fn with_capacity(max_tickets: usize) -> Self {
        ReplayStore {
            max_tickets: Some(max_tickets.max(1)),
            ..ReplayStore::default()
        }
    }

    /// Record (ticket, nonce) under `epoch`. A detected replay leaves the
    /// store untouched, and capacity eviction never removes the ticket
    /// just touched — evicting it would discard the nonce set recorded a
    /// moment ago and accept the next identical replay as fresh. The
    /// caller is responsible for refusing retired epochs first
    /// ([`is_retired`](ReplayStore::is_retired)); inserting into one
    /// would silently resurrect it.
    pub fn check_and_insert_in(&mut self, epoch: u32, ticket: u64, nonce: u64) -> InsertOutcome {
        if self.contains_in(epoch, ticket, nonce) {
            return InsertOutcome {
                fresh: false,
                evicted_entries: 0,
            };
        }
        let state = self.epochs.entry(epoch).or_default();
        state.seen.entry(ticket).or_default().insert(nonce);
        let mut evicted_entries = 0;
        if let Some(cap) = self.max_tickets {
            while state.seen.len() > cap {
                let oldest = *state
                    .seen
                    .keys()
                    .find(|&&t| t != ticket)
                    .expect("len > cap >= 1 implies another ticket exists");
                evicted_entries += state.seen.remove(&oldest).map_or(0, |s| s.len());
                state.evicted_watermark =
                    Some(state.evicted_watermark.map_or(oldest, |w| w.max(oldest)));
            }
        }
        InsertOutcome {
            fresh: true,
            evicted_entries,
        }
    }

    /// Whether a pair has been recorded under `epoch`.
    pub fn contains_in(&self, epoch: u32, ticket: u64, nonce: u64) -> bool {
        self.epochs
            .get(&epoch)
            .and_then(|e| e.seen.get(&ticket))
            .is_some_and(|s| s.contains(&nonce))
    }

    /// Number of tickets tracked across all live epochs.
    pub fn tickets(&self) -> usize {
        self.epochs.values().map(|e| e.seen.len()).sum()
    }

    /// Accepted (ticket, nonce) entries tracked under `epoch`.
    pub fn entries_in(&self, epoch: u32) -> usize {
        self.epochs.get(&epoch).map_or(0, EpochState::entries)
    }

    /// Accepted (ticket, nonce) entries tracked across all live epochs.
    pub fn total_entries(&self) -> usize {
        self.epochs.values().map(EpochState::entries).sum()
    }

    /// Epochs holding live state, in increasing order.
    pub fn live_epochs(&self) -> Vec<u32> {
        self.epochs.keys().copied().collect()
    }

    /// Whether a ticket id falls at or below `epoch`'s eviction
    /// watermark: its nonce history is gone (or would sort below ids
    /// already discarded), so early data under it cannot be
    /// replay-checked. Tickets still tracked are never stale, whatever
    /// their id.
    pub fn is_stale_in(&self, epoch: u32, ticket: u64) -> bool {
        let Some(state) = self.epochs.get(&epoch) else {
            return false;
        };
        !state.seen.contains_key(&ticket) && state.evicted_watermark.is_some_and(|w| ticket <= w)
    }

    /// Whether `epoch` has been retired: its whole nonce history was
    /// dropped, so early data under it is refused wholesale.
    pub fn is_retired(&self, epoch: u32) -> bool {
        epoch < self.retired_below
    }

    /// The oldest epoch still served (everything below is retired).
    pub fn retired_below(&self) -> u32 {
        self.retired_below
    }

    /// Epochs retired over the store's lifetime.
    pub fn retired_count(&self) -> u64 {
        self.retired_count
    }

    /// Retire every epoch strictly below `min_live`, dropping its whole
    /// nonce history — this is the bounded-memory lever of the key
    /// lifecycle. Returns `(newly_retired, dropped)` where `dropped`
    /// lists `(epoch, entries)` for each epoch whose state was discarded
    /// (so callers can settle per-epoch gauges). Idempotent: retiring
    /// below an already-retired boundary is a no-op.
    pub fn retire_below(&mut self, min_live: u32) -> (u32, Vec<(u32, usize)>) {
        if min_live <= self.retired_below {
            return (0, Vec::new());
        }
        let newly = min_live - self.retired_below;
        self.retired_below = min_live;
        self.retired_count += u64::from(newly);
        let keep = self.epochs.split_off(&min_live);
        let dropped = std::mem::replace(&mut self.epochs, keep)
            .into_iter()
            .map(|(epoch, state)| (epoch, state.entries()))
            .collect();
        (newly, dropped)
    }

    /// The store's half of a [`ServerImage`]: the `replay_*` fields,
    /// sorted so two equal stores produce identical images. The issuance
    /// fields stay zero; [`Server::to_image`](crate::Server::to_image)
    /// fills them.
    pub(crate) fn to_image(&self) -> ServerImage {
        ServerImage {
            replay_max_tickets: self.max_tickets,
            replay_retired_below: self.retired_below,
            replay_retired_count: self.retired_count,
            replay_epochs: self
                .epochs
                .iter()
                .map(|(&epoch, state)| ReplayEpochImage {
                    epoch,
                    evicted_watermark: state.evicted_watermark,
                    entries: state
                        .seen
                        .iter()
                        .map(|(&t, nonces)| {
                            let mut ns: Vec<u64> = nonces.iter().copied().collect();
                            ns.sort_unstable();
                            (t, ns)
                        })
                        .collect(),
                })
                .collect(),
            ..ServerImage::default()
        }
    }

    /// Rebuild a store from an image's `replay_*` fields.
    pub(crate) fn from_image(img: &ServerImage) -> Self {
        ReplayStore {
            epochs: img
                .replay_epochs
                .iter()
                .map(|e| {
                    (
                        e.epoch,
                        EpochState {
                            seen: e
                                .entries
                                .iter()
                                .map(|(t, ns)| (*t, ns.iter().copied().collect()))
                                .collect(),
                            evicted_watermark: e.evicted_watermark,
                        },
                    )
                })
                .collect(),
            max_tickets: img.replay_max_tickets,
            retired_below: img.replay_retired_below,
            retired_count: img.replay_retired_count,
        }
    }
}

/// One live epoch's replay state inside a [`ServerImage`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplayEpochImage {
    /// The epoch.
    pub epoch: u32,
    /// Highest ticket id evicted by the capacity cap, if any.
    pub evicted_watermark: Option<u64>,
    /// `(ticket, sorted nonces)` pairs in increasing ticket order.
    pub entries: Vec<(u64, Vec<u64>)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_then_replay() {
        let mut r = ReplayStore::new();
        assert!(r.check_and_insert_in(0, 1, 10).fresh);
        assert!(!r.check_and_insert_in(0, 1, 10).fresh);
        assert!(r.check_and_insert_in(0, 1, 11).fresh);
        assert!(r.check_and_insert_in(0, 2, 10).fresh); // different ticket, same nonce
        assert!(r.contains_in(0, 1, 10));
        assert!(!r.contains_in(0, 3, 10));
    }

    #[test]
    fn capacity_evicts_oldest_ticket_wholesale() {
        let mut r = ReplayStore::with_capacity(2);
        r.check_and_insert_in(0, 1, 1);
        r.check_and_insert_in(0, 2, 1);
        r.check_and_insert_in(0, 3, 1);
        assert_eq!(r.tickets(), 2);
        assert!(!r.contains_in(0, 1, 1), "oldest ticket evicted");
        assert!(r.contains_in(0, 2, 1));
        assert!(r.contains_in(0, 3, 1));
    }

    #[test]
    fn zero_capacity_clamped_to_one() {
        let mut r = ReplayStore::with_capacity(0);
        assert!(r.check_and_insert_in(0, 1, 1).fresh);
        assert!(!r.check_and_insert_in(0, 1, 1).fresh);
    }

    #[test]
    fn replayed_low_id_ticket_at_capacity_stays_rejected() {
        // Regression: at capacity, inserting a ticket id lower than every
        // tracked id used to evict the just-touched ticket itself, so the
        // identical 0-RTT packet replayed again was accepted as fresh.
        let mut r = ReplayStore::with_capacity(2);
        r.check_and_insert_in(0, 5, 1);
        r.check_and_insert_in(0, 6, 1);
        assert!(
            r.check_and_insert_in(0, 1, 42).fresh,
            "first presentation is fresh"
        );
        assert!(
            !r.check_and_insert_in(0, 1, 42).fresh,
            "first replay rejected"
        );
        assert!(
            !r.check_and_insert_in(0, 1, 42).fresh,
            "second replay rejected"
        );
        assert!(r.contains_in(0, 1, 42));
        assert_eq!(r.tickets(), 2);
    }

    #[test]
    fn detected_replay_does_not_mutate_store() {
        let mut r = ReplayStore::with_capacity(2);
        r.check_and_insert_in(0, 5, 1);
        r.check_and_insert_in(0, 6, 1);
        assert!(!r.check_and_insert_in(0, 5, 1).fresh);
        assert_eq!(r.tickets(), 2);
        assert!(r.contains_in(0, 5, 1));
        assert!(r.contains_in(0, 6, 1));
    }

    #[test]
    fn eviction_marks_ticket_stale() {
        let mut r = ReplayStore::with_capacity(2);
        r.check_and_insert_in(0, 1, 1);
        r.check_and_insert_in(0, 2, 1);
        assert!(!r.is_stale_in(0, 1), "tracked tickets are not stale");
        r.check_and_insert_in(0, 3, 1); // evicts ticket 1
        assert!(r.is_stale_in(0, 1));
        assert!(!r.is_stale_in(0, 2));
        assert!(!r.is_stale_in(0, 3));
        // An id below the watermark that was never tracked is stale too:
        // it sorts below ids already discarded.
        assert!(r.is_stale_in(0, 0));
        // Untracked ids above the watermark are merely unknown, not stale.
        assert!(!r.is_stale_in(0, 9));
    }

    #[test]
    fn unbounded_store_never_goes_stale() {
        let mut r = ReplayStore::new();
        for t in 0..100 {
            r.check_and_insert_in(0, t, 0);
        }
        assert!(!r.is_stale_in(0, 0));
        assert!(!r.is_stale_in(0, 999));
    }

    #[test]
    fn many_nonces_per_ticket() {
        let mut r = ReplayStore::new();
        for n in 0..1000 {
            assert!(r.check_and_insert_in(0, 7, n).fresh);
        }
        for n in 0..1000 {
            assert!(!r.check_and_insert_in(0, 7, n).fresh);
        }
        assert_eq!(r.tickets(), 1);
    }

    // ---- epoch partitioning and retirement -----------------------------

    #[test]
    fn epochs_partition_replay_state() {
        let mut r = ReplayStore::new();
        assert!(r.check_and_insert_in(0, 1, 10).fresh);
        // Same (ticket, nonce) under a different epoch is a different
        // key: the early key differs, so this is fresh traffic.
        assert!(r.check_and_insert_in(1, 1, 10).fresh);
        assert!(!r.check_and_insert_in(0, 1, 10).fresh);
        assert!(!r.check_and_insert_in(1, 1, 10).fresh);
        assert!(r.contains_in(0, 1, 10));
        assert!(r.contains_in(1, 1, 10));
        assert!(!r.contains_in(2, 1, 10));
        assert_eq!(r.live_epochs(), vec![0, 1]);
        assert_eq!(r.entries_in(0), 1);
        assert_eq!(r.total_entries(), 2);
    }

    #[test]
    fn retirement_drops_whole_epochs_and_is_idempotent() {
        let mut r = ReplayStore::new();
        r.check_and_insert_in(0, 1, 1);
        r.check_and_insert_in(0, 2, 1);
        r.check_and_insert_in(1, 3, 1);
        r.check_and_insert_in(2, 4, 1);
        let (newly, dropped) = r.retire_below(2);
        assert_eq!(newly, 2);
        assert_eq!(dropped, vec![(0, 2), (1, 1)]);
        assert!(r.is_retired(0) && r.is_retired(1));
        assert!(!r.is_retired(2));
        assert_eq!(r.retired_count(), 2);
        assert_eq!(r.live_epochs(), vec![2]);
        // Idempotent: same or lower boundary retires nothing further.
        assert_eq!(r.retire_below(2), (0, Vec::new()));
        assert_eq!(r.retire_below(1), (0, Vec::new()));
        assert_eq!(r.retired_count(), 2);
    }

    #[test]
    fn capacity_is_per_epoch_and_retirement_bounds_memory() {
        // The bounded-memory contract of DESIGN §14's replay-layer risk:
        // per-epoch ticket capacity × a sliding window of live epochs.
        // Rotate through many epochs retiring all but the last two; live
        // state must never exceed 2 epochs × 2 tickets.
        let mut r = ReplayStore::with_capacity(2);
        for epoch in 0u32..50 {
            for ticket in 0u64..10 {
                r.check_and_insert_in(epoch, u64::from(epoch) * 100 + ticket, 1);
            }
            r.retire_below(epoch.saturating_sub(1));
            assert!(r.live_epochs().len() <= 2, "window leaked: {r:?}");
            assert!(r.tickets() <= 4, "cap leaked: {} tickets", r.tickets());
            assert!(r.total_entries() <= 4);
        }
        assert_eq!(r.retired_count(), 48);
        // Early data under any retired epoch is refused wholesale.
        assert!(r.is_retired(0));
        assert!(r.is_retired(47));
        assert!(!r.is_retired(48) && !r.is_retired(49));
    }

    #[test]
    fn insert_outcome_reports_evicted_entries() {
        let mut r = ReplayStore::with_capacity(1);
        r.check_and_insert_in(0, 1, 1);
        r.check_and_insert_in(0, 1, 2);
        r.check_and_insert_in(0, 1, 3);
        // Inserting ticket 2 evicts ticket 1's three nonces wholesale.
        let out = r.check_and_insert_in(0, 2, 1);
        assert!(out.fresh);
        assert_eq!(out.evicted_entries, 3);
        assert_eq!(r.entries_in(0), 1);
    }

    #[test]
    fn image_round_trip_is_lossless() {
        let mut r = ReplayStore::with_capacity(3);
        for epoch in 0..3u32 {
            for t in 0..3u64 {
                for n in 0..4u64 {
                    r.check_and_insert_in(epoch, t + u64::from(epoch), n);
                }
            }
        }
        r.check_and_insert_in(1, 99, 7); // force an eviction watermark
        r.retire_below(1);
        let img = r.to_image();
        let mut back = ReplayStore::from_image(&img);
        assert_eq!(back.to_image(), img);
        assert_eq!(back.tickets(), r.tickets());
        assert_eq!(back.retired_below(), 1);
        assert_eq!(back.retired_count(), 1);
        // Behavior survives the round trip: replays stay replays, stale
        // stays stale, retired stays retired.
        assert!(!back.check_and_insert_in(1, 99, 7).fresh);
        assert!(back.is_retired(0));
    }

    #[test]
    fn images_are_deterministic() {
        let build = || {
            let mut r = ReplayStore::new();
            for n in [5u64, 3, 9, 1, 7] {
                r.check_and_insert_in(2, 4, n);
            }
            r.to_image()
        };
        assert_eq!(build(), build());
        assert_eq!(build().replay_epochs[0].entries[0].1, vec![1, 3, 5, 7, 9]);
    }
}
