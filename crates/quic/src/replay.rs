//! Server-side 0-RTT anti-replay store, keyed by ticket epoch.
//!
//! §5.3: "given only few devices are authorized within a household, it is
//! feasible for the IoT proxy to keep a state of all previously held
//! connections, which would prevent a replay attack." We remember every
//! accepted (ticket, nonce) pair; the store has no capacity bound, so a
//! nonce is never forgotten while its epoch is live.
//!
//! The store is partitioned by **ticket epoch** (the key-lifecycle
//! generation the ticket was issued under). The control plane retires old
//! epochs wholesale via [`retire_below`]: a retired epoch's entire nonce
//! history is dropped in one step, which is what bounds the store's
//! memory across key rotations — live state is the accepted proofs of
//! the live epochs only. Early data under a retired epoch must be
//! refused outright ([`is_retired`]); without its nonce history a
//! verbatim replay would look fresh.
//!
//! [`retire_below`]: ReplayStore::retire_below
//! [`is_retired`]: ReplayStore::is_retired

use crate::connection::ServerImage;
use std::collections::{BTreeMap, HashSet};

/// Per-epoch replay state: per-ticket sets of accepted early-data nonces.
type EpochState = BTreeMap<u64, HashSet<u64>>;

fn entries(state: &EpochState) -> usize {
    state.values().map(HashSet::len).sum()
}

/// Replay store: per-epoch, per-ticket sets of accepted early-data
/// nonces.
#[derive(Debug, Default)]
pub struct ReplayStore {
    epochs: BTreeMap<u32, EpochState>,
    /// Epochs strictly below this are retired: their nonce history is
    /// gone and early data under them is refused wholesale.
    retired_below: u32,
    /// Epochs retired over the store's lifetime (monotone).
    retired_count: u64,
}

impl ReplayStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record (ticket, nonce) under `epoch`: `true` if the pair was
    /// fresh, `false` on a detected replay, which leaves the store
    /// untouched. The caller is responsible for refusing retired epochs
    /// first ([`is_retired`](ReplayStore::is_retired)); inserting into
    /// one would silently resurrect it.
    pub fn check_and_insert_in(&mut self, epoch: u32, ticket: u64, nonce: u64) -> bool {
        self.epochs
            .entry(epoch)
            .or_default()
            .entry(ticket)
            .or_default()
            .insert(nonce)
    }

    /// Whether a pair has been recorded under `epoch`.
    pub fn contains_in(&self, epoch: u32, ticket: u64, nonce: u64) -> bool {
        self.epochs
            .get(&epoch)
            .and_then(|e| e.get(&ticket))
            .is_some_and(|s| s.contains(&nonce))
    }

    /// Number of tickets tracked across all live epochs.
    pub fn tickets(&self) -> usize {
        self.epochs.values().map(BTreeMap::len).sum()
    }

    /// Accepted (ticket, nonce) entries tracked under `epoch`.
    pub fn entries_in(&self, epoch: u32) -> usize {
        self.epochs.get(&epoch).map_or(0, entries)
    }

    /// Accepted (ticket, nonce) entries tracked across all live epochs.
    pub fn total_entries(&self) -> usize {
        self.epochs.values().map(entries).sum()
    }

    /// Epochs holding live state, in increasing order.
    pub fn live_epochs(&self) -> Vec<u32> {
        self.epochs.keys().copied().collect()
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
            .map(|(epoch, state)| (epoch, entries(&state)))
            .collect();
        (newly, dropped)
    }

    /// The store's half of a [`ServerImage`]: the `replay_*` fields,
    /// sorted so two equal stores produce identical images. The issuance
    /// fields stay zero; [`Server::to_image`](crate::Server::to_image)
    /// fills them.
    pub(crate) fn to_image(&self) -> ServerImage {
        ServerImage {
            replay_retired_below: self.retired_below,
            replay_retired_count: self.retired_count,
            replay_epochs: self
                .epochs
                .iter()
                .map(|(&epoch, state)| ReplayEpochImage {
                    epoch,
                    entries: state
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
                    let state = e
                        .entries
                        .iter()
                        .map(|(t, ns)| (*t, ns.iter().copied().collect()))
                        .collect();
                    (e.epoch, state)
                })
                .collect(),
            retired_below: img.replay_retired_below,
            retired_count: img.replay_retired_count,
        }
    }
}

/// One live epoch's replay state inside a [`ServerImage`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayEpochImage {
    /// The epoch.
    pub epoch: u32,
    /// `(ticket, sorted nonces)` pairs in increasing ticket order.
    pub entries: Vec<(u64, Vec<u64>)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_then_replay() {
        let mut r = ReplayStore::new();
        assert!(r.check_and_insert_in(0, 1, 10));
        assert!(!r.check_and_insert_in(0, 1, 10));
        assert!(r.check_and_insert_in(0, 1, 11));
        assert!(r.check_and_insert_in(0, 2, 10)); // different ticket, same nonce
        assert!(r.contains_in(0, 1, 10));
        assert!(!r.contains_in(0, 3, 10));
    }

    #[test]
    fn detected_replay_does_not_mutate_store() {
        let mut r = ReplayStore::new();
        r.check_and_insert_in(0, 5, 1);
        r.check_and_insert_in(0, 6, 1);
        let before = r.to_image();
        assert!(!r.check_and_insert_in(0, 5, 1));
        assert_eq!(r.to_image(), before);
        assert_eq!(r.tickets(), 2);
        assert!(r.contains_in(0, 5, 1));
        assert!(r.contains_in(0, 6, 1));
    }

    #[test]
    fn many_nonces_per_ticket() {
        let mut r = ReplayStore::new();
        for n in 0..1000 {
            assert!(r.check_and_insert_in(0, 7, n));
        }
        for n in 0..1000 {
            assert!(!r.check_and_insert_in(0, 7, n));
        }
        assert_eq!(r.tickets(), 1);
    }

    // ---- epoch partitioning and retirement -----------------------------

    #[test]
    fn epochs_partition_replay_state() {
        let mut r = ReplayStore::new();
        assert!(r.check_and_insert_in(0, 1, 10));
        // Same (ticket, nonce) under a different epoch is a different
        // key: the early key differs, so this is fresh traffic.
        assert!(r.check_and_insert_in(1, 1, 10));
        assert!(!r.check_and_insert_in(0, 1, 10));
        assert!(!r.check_and_insert_in(1, 1, 10));
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
    fn retirement_bounds_memory() {
        // The bounded-memory contract of DESIGN §14's replay-layer risk:
        // a sliding window of live epochs. Rotate through many epochs
        // retiring all but the last two; live state must never exceed
        // the two live epochs' accepted proofs.
        let mut r = ReplayStore::new();
        for epoch in 0u32..50 {
            for ticket in 0u64..10 {
                r.check_and_insert_in(epoch, u64::from(epoch) * 100 + ticket, 1);
            }
            r.retire_below(epoch.saturating_sub(1));
            assert!(r.live_epochs().len() <= 2, "window leaked: {r:?}");
            assert!(r.tickets() <= 20, "{} tickets", r.tickets());
            assert!(r.total_entries() <= 20);
        }
        assert_eq!(r.retired_count(), 48);
        // Early data under any retired epoch is refused wholesale.
        assert!(r.is_retired(0));
        assert!(r.is_retired(47));
        assert!(!r.is_retired(48) && !r.is_retired(49));
    }

    #[test]
    fn image_round_trip_is_lossless() {
        let mut r = ReplayStore::new();
        for epoch in 0..3u32 {
            for t in 0..3u64 {
                for n in 0..4u64 {
                    r.check_and_insert_in(epoch, t + u64::from(epoch), n);
                }
            }
        }
        r.retire_below(1);
        let img = r.to_image();
        let mut back = ReplayStore::from_image(&img);
        assert_eq!(back.to_image(), img);
        assert_eq!(back.tickets(), r.tickets());
        assert_eq!(back.total_entries(), r.total_entries());
        assert_eq!(back.retired_below(), 1);
        assert_eq!(back.retired_count(), 1);
        // Behavior survives the round trip: replays stay replays, fresh
        // nonces stay fresh, retired stays retired.
        assert!(!back.check_and_insert_in(1, 3, 3));
        assert!(back.check_and_insert_in(1, 3, 4));
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
