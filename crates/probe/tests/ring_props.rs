//! Property tests on the flight-recorder ring buffer: eviction must keep
//! each shard's retained events in record order with the tail intact,
//! and the deterministic merge must not depend on which ring (= which
//! shard, under work stealing) a home's stream landed in.

use fiat_probe::{FlightRecorder, ShardRecorder, TraceEvent, TraceKind};
use proptest::prelude::*;

fn ev(ts_us: u64, home: u32, seq: u64) -> TraceEvent {
    TraceEvent {
        ts_us,
        home,
        seq,
        device: 0,
        kind: TraceKind::Proxy("packet_decided"),
        detail: "rule_hit",
        arg: 0,
    }
}

proptest! {
    /// Whatever the capacity and event stream, the retained window is
    /// exactly the most recent `min(n, capacity)` events, in record
    /// order, with an eviction count that accounts for the rest.
    #[test]
    fn eviction_preserves_order_and_keeps_the_tail(
        capacity in 1usize..64,
        ts in prop::collection::vec(0u64..1_000_000, 0..200),
    ) {
        let r = ShardRecorder::new(capacity);
        for (i, &t) in ts.iter().enumerate() {
            r.record(ev(t, 0, i as u64));
        }
        let kept = r.events();
        let expect_len = ts.len().min(capacity);
        prop_assert_eq!(kept.len(), expect_len);
        prop_assert_eq!(r.total(), ts.len() as u64);
        prop_assert_eq!(r.dropped(), (ts.len() - expect_len) as u64);
        // The window is the tail of the stream, in order: per-home seqs
        // are consecutive and end at total-1, and timestamps replay the
        // input tail exactly.
        for (i, e) in kept.iter().enumerate() {
            let pos = ts.len() - expect_len + i;
            prop_assert_eq!(e.seq, pos as u64);
            prop_assert_eq!(e.ts_us, ts[pos]);
        }
        // The eviction ratio matches the drop accounting.
        let fr_like_ratio = if ts.is_empty() {
            0.0
        } else {
            r.dropped() as f64 / r.total() as f64
        };
        prop_assert!((0.0..=1.0).contains(&fr_like_ratio));
    }

    /// The merged fleet timeline is sorted by (ts, home, seq), never
    /// reorders one home's stream (monotone in (ts, seq) as a home's
    /// decision stream is), and — the work-stealing guarantee — is
    /// byte-identical no matter which shard's ring each home's stream
    /// was recorded into.
    #[test]
    fn merge_is_sorted_stable_and_placement_independent(
        a in prop::collection::vec(0u64..10_000, 0..60),
        b in prop::collection::vec(0u64..10_000, 0..60),
        flip in any::<bool>(),
    ) {
        let (mut a, mut b) = (a, b);
        a.sort_unstable();
        b.sort_unstable();
        let record_all = |fr: &FlightRecorder, swap: bool| {
            let (ring_a, ring_b) = if swap {
                (fr.shard(1), fr.shard(0))
            } else {
                (fr.shard(0), fr.shard(1))
            };
            for (i, &t) in a.iter().enumerate() {
                ring_a.record(ev(t, 0, i as u64));
            }
            for (i, &t) in b.iter().enumerate() {
                ring_b.record(ev(t, 1, i as u64));
            }
        };
        // Capacity large enough that nothing evicts: placement must not
        // matter at all.
        let fr1 = FlightRecorder::new(2, 64);
        record_all(&fr1, false);
        let fr2 = FlightRecorder::new(2, 64);
        record_all(&fr2, flip);
        prop_assert_eq!(fr1.to_jsonl(), fr2.to_jsonl());

        let merged = fr1.merged();
        let keys: Vec<(u64, u32, u64)> =
            merged.iter().map(|e| (e.ts_us, e.home, e.seq)).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        prop_assert_eq!(&keys, &sorted);
        // Per-home subsequences keep record order (seq strictly
        // increasing).
        for home in 0..2u32 {
            let seqs: Vec<u64> = merged
                .iter()
                .filter(|e| e.home == home)
                .map(|e| e.seq)
                .collect();
            prop_assert!(seqs.windows(2).all(|w| w[0] < w[1]));
        }
    }
}
