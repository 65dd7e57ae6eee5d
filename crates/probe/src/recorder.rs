//! The flight recorder: bounded per-shard rings of structured trace
//! events, merged deterministically on the simulated clock.
//!
//! Counters compress history; a regression (a false drop, a posture
//! flip) needs the *sequence* that led to it. Each shard owns a ring of
//! the most recent [`TraceEvent`]s — event timestamps come from the
//! simulated packet clock, so two runs of the same seed record the same
//! timeline — and [`FlightRecorder::merged`] interleaves rings by
//! `(sim_ts_us, home, seq)`, where `seq` is the event's position in its
//! *home's* stream. Keying the merge on the home (not the recording
//! shard) matters since work stealing: which shard runs a home can
//! differ run to run, but a home's own event stream is deterministic —
//! so the merged timeline is reproducible across both thread scheduling
//! *and* work placement, as long as nothing was evicted. Rings are
//! bounded and evict oldest-first: memory is `O(shards × capacity)` no
//! matter how long the run, and [`FlightRecorder::evicted_ratio`] tells
//! a reader how much of the stream the retained window actually covers
//! (an evicting run's window is placement-dependent — the eviction
//! ratio is the honesty line the report must surface).
//!
//! Lock cost: one uncontended `Mutex` per shard (only that shard's
//! thread records into it), taken once per event. A run with
//! `recorder_capacity == 0` never constructs a recorder at all.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// Per-home sequence number for the coordinator-side "home assigned to
/// a shard queue" event — first in every home's stream.
pub const SEQ_ASSIGNED: u64 = 0;
/// Per-home sequence number for the shard-side "home claimed" event.
pub const SEQ_CLAIMED: u64 = 1;
/// First per-home sequence number available to proxy hook events.
pub const SEQ_FIRST_HOOK: u64 = 2;
/// Per-home sequence number for the "home finished" event — sorts after
/// every hook event the home could have produced.
pub const SEQ_FINISHED: u64 = u64::MAX;

/// What happened. Packet-level kinds come from the proxy's transition
/// hooks; home-level kinds from the fleet plan and shard claim loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A home was assigned to a shard's claim queue (coordinator side).
    HomeEnqueued,
    /// A shard claimed a home workload (its own queue or a steal).
    HomeDequeued,
    /// A shard finished deciding a home's capture.
    HomeFinished,
    /// The proxy decided one packet (`detail` carries the reason label).
    PacketDecided,
    /// A humanness proof arrived (`detail`: verified / rejected).
    ProofArrival,
    /// A device entered brute-force lockout.
    LockoutEntered,
    /// A lockout was manually cleared.
    LockoutCleared,
    /// A packet was held in pending-verdict quarantine.
    QuarantineHeld,
    /// A quarantine record was released by a late proof (`arg`: packets).
    QuarantineReleased,
    /// A quarantine record expired at its deadline (`arg`: packets).
    QuarantineExpired,
}

impl TraceKind {
    /// Stable snake_case name used in the JSONL dump.
    pub fn as_str(self) -> &'static str {
        match self {
            TraceKind::HomeEnqueued => "home_enqueued",
            TraceKind::HomeDequeued => "home_dequeued",
            TraceKind::HomeFinished => "home_finished",
            TraceKind::PacketDecided => "packet_decided",
            TraceKind::ProofArrival => "proof_arrival",
            TraceKind::LockoutEntered => "lockout_entered",
            TraceKind::LockoutCleared => "lockout_cleared",
            TraceKind::QuarantineHeld => "quarantine_held",
            TraceKind::QuarantineReleased => "quarantine_released",
            TraceKind::QuarantineExpired => "quarantine_expired",
        }
    }
}

/// One recorded event. `Copy`, no heap: recording into a warm ring
/// allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated-clock timestamp (microseconds) — the primary
    /// deterministic merge key, not wall time.
    pub ts_us: u64,
    /// Home the event belongs to.
    pub home: u32,
    /// Position in the home's event stream (the [`SEQ_ASSIGNED`] /
    /// [`SEQ_CLAIMED`] / hook / [`SEQ_FINISHED`] contract) — the merge
    /// tiebreaker within one home.
    pub seq: u64,
    /// Device within the home (0 for home-level events).
    pub device: u16,
    /// Event kind.
    pub kind: TraceKind,
    /// Kind-specific label (decision reason, proof result); `""` when
    /// the kind needs none.
    pub detail: &'static str,
    /// Kind-specific magnitude (packet counts for quarantine resolution
    /// and home lifecycle events).
    pub arg: u64,
}

#[derive(Debug)]
struct Ring {
    buf: VecDeque<TraceEvent>,
    capacity: usize,
    total: u64,
    dropped: u64,
}

/// One shard's bounded event ring. Thread-safe (the owning shard records
/// while the collector later reads), evicts oldest-first.
#[derive(Debug)]
pub struct ShardRecorder {
    ring: Mutex<Ring>,
}

impl ShardRecorder {
    /// A ring holding at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        ShardRecorder {
            ring: Mutex::new(Ring {
                buf: VecDeque::with_capacity(capacity),
                capacity,
                total: 0,
                dropped: 0,
            }),
        }
    }

    /// Record an event, evicting the oldest when full. Allocation-free
    /// once the ring has filled (the `VecDeque` is pre-sized and
    /// `TraceEvent` is `Copy`).
    pub fn record(&self, event: TraceEvent) {
        let mut r = self.ring.lock().unwrap();
        if r.buf.len() == r.capacity {
            r.buf.pop_front();
            r.dropped += 1;
        }
        r.total += 1;
        r.buf.push_back(event);
    }

    /// Events currently retained, oldest first (record order).
    pub fn events(&self) -> Vec<TraceEvent> {
        self.ring.lock().unwrap().buf.iter().copied().collect()
    }

    /// Events evicted to make room.
    pub fn dropped(&self) -> u64 {
        self.ring.lock().unwrap().dropped
    }

    /// Events ever recorded (retained + evicted).
    pub fn total(&self) -> u64 {
        self.ring.lock().unwrap().total
    }
}

/// The fleet-wide recorder: one ring per shard plus one for the
/// coordinator thread (index `shards`).
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    shards: Vec<Arc<ShardRecorder>>,
}

impl FlightRecorder {
    /// Ring index used by the coordinator (plan/collect) thread.
    pub fn coordinator_index(&self) -> usize {
        self.shards.len() - 1
    }

    /// A recorder with `shards` worker rings plus the coordinator ring,
    /// each holding `capacity` events.
    pub fn new(shards: usize, capacity: usize) -> Self {
        FlightRecorder {
            shards: (0..shards + 1)
                .map(|_| Arc::new(ShardRecorder::new(capacity)))
                .collect(),
        }
    }

    /// Handle to one shard's ring (the coordinator ring is the last
    /// index).
    pub fn shard(&self, shard: usize) -> Arc<ShardRecorder> {
        Arc::clone(&self.shards[shard])
    }

    /// Total events evicted across all rings.
    pub fn dropped(&self) -> u64 {
        self.shards.iter().map(|s| s.dropped()).sum()
    }

    /// Total events ever recorded across all rings.
    pub fn total(&self) -> u64 {
        self.shards.iter().map(|s| s.total()).sum()
    }

    /// Fraction of recorded events that were evicted (0.0 when nothing
    /// was recorded). Above ~0.1 the merged timeline is a narrow window
    /// onto the run, not the run — report it.
    pub fn evicted_ratio(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.dropped() as f64 / total as f64
        }
    }

    /// All retained events, merged into one deterministic timeline:
    /// ordered by simulated timestamp, ties broken by home then by the
    /// home's own sequence. Two runs of the same seed produce the same
    /// merged timeline regardless of thread scheduling or which shard
    /// ended up running which home — provided nothing was evicted
    /// (check [`Self::evicted_ratio`]).
    pub fn merged(&self) -> Vec<TraceEvent> {
        let mut all: Vec<TraceEvent> = self.shards.iter().flat_map(|s| s.events()).collect();
        all.sort_by_key(|e| (e.ts_us, e.home, e.seq));
        all
    }

    /// Render the merged timeline as JSON Lines (one event object per
    /// line), ready for `results/trace_*.jsonl`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in self.merged() {
            let _ = writeln!(
                out,
                "{{\"ts_us\":{},\"home\":{},\"seq\":{},\"device\":{},\
                 \"kind\":\"{}\",\"detail\":\"{}\",\"arg\":{}}}",
                e.ts_us,
                e.home,
                e.seq,
                e.device,
                e.kind.as_str(),
                e.detail,
                e.arg,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts_us: u64, home: u32, seq: u64) -> TraceEvent {
        TraceEvent {
            ts_us,
            home,
            seq,
            device: 0,
            kind: TraceKind::PacketDecided,
            detail: "rule_hit",
            arg: 0,
        }
    }

    #[test]
    fn ring_keeps_most_recent_and_counts_evictions() {
        let r = ShardRecorder::new(3);
        for i in 0..5 {
            r.record(ev(i, 0, i));
        }
        let kept = r.events();
        assert_eq!(kept.len(), 3);
        assert_eq!(
            kept.iter().map(|e| e.ts_us).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
        assert_eq!(r.dropped(), 2);
        assert_eq!(r.total(), 5);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let r = ShardRecorder::new(0);
        r.record(ev(1, 0, 0));
        r.record(ev(2, 0, 1));
        assert_eq!(r.events().len(), 1);
        assert_eq!(r.events()[0].ts_us, 2);
    }

    #[test]
    fn merge_orders_by_ts_then_home_then_seq() {
        let fr = FlightRecorder::new(2, 16);
        // Shard 1 records first in wall time, but its events carry later
        // simulated timestamps: the merge must follow the sim clock, and
        // same-timestamp ties must follow (home, seq), not the ring.
        fr.shard(1).record(ev(50, 3, 2));
        fr.shard(1).record(ev(10, 3, 3));
        fr.shard(0).record(ev(10, 1, 5));
        fr.shard(0).record(ev(10, 1, 4));
        let merged = fr.merged();
        let order: Vec<(u64, u32, u64)> = merged.iter().map(|e| (e.ts_us, e.home, e.seq)).collect();
        assert_eq!(order, vec![(10, 1, 4), (10, 1, 5), (10, 3, 3), (50, 3, 2)]);
    }

    #[test]
    fn merged_timeline_is_placement_independent() {
        // The same homes recorded into *different* rings (as work
        // stealing would do) must merge to the same timeline.
        let mk = |steal: bool| {
            let fr = FlightRecorder::new(2, 8);
            let (ring_a, ring_b) = if steal {
                (fr.shard(1), fr.shard(0))
            } else {
                (fr.shard(0), fr.shard(1))
            };
            ring_a.record(ev(1, 0, SEQ_FIRST_HOOK));
            ring_a.record(ev(3, 0, SEQ_FIRST_HOOK + 1));
            ring_b.record(ev(2, 1, SEQ_FIRST_HOOK));
            ring_b.record(ev(7, 1, SEQ_FIRST_HOOK + 1));
            fr.to_jsonl()
        };
        assert_eq!(mk(false), mk(true));
    }

    #[test]
    fn lifecycle_seqs_bracket_hook_events() {
        // Assigned < claimed < hooks < finished within one home at one
        // timestamp.
        let fr = FlightRecorder::new(1, 8);
        let ring = fr.shard(0);
        let mut e = ev(5, 0, SEQ_FINISHED);
        e.kind = TraceKind::HomeFinished;
        ring.record(e);
        ring.record(ev(5, 0, SEQ_FIRST_HOOK));
        let mut e = ev(5, 0, SEQ_ASSIGNED);
        e.kind = TraceKind::HomeEnqueued;
        ring.record(e);
        let mut e = ev(5, 0, SEQ_CLAIMED);
        e.kind = TraceKind::HomeDequeued;
        ring.record(e);
        let kinds: Vec<&str> = fr.merged().iter().map(|e| e.kind.as_str()).collect();
        assert_eq!(
            kinds,
            vec![
                "home_enqueued",
                "home_dequeued",
                "packet_decided",
                "home_finished"
            ]
        );
    }

    #[test]
    fn eviction_ratio_reflects_drops() {
        let fr = FlightRecorder::new(1, 4);
        assert_eq!(fr.evicted_ratio(), 0.0);
        for i in 0..4 {
            fr.shard(0).record(ev(i, 0, i));
        }
        assert_eq!(fr.evicted_ratio(), 0.0);
        for i in 4..16 {
            fr.shard(0).record(ev(i, 0, i));
        }
        assert!((fr.evicted_ratio() - 12.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn jsonl_shape() {
        let fr = FlightRecorder::new(1, 8);
        fr.shard(0).record(TraceEvent {
            ts_us: 42,
            home: 7,
            seq: 9,
            device: 3,
            kind: TraceKind::QuarantineReleased,
            detail: "",
            arg: 9,
        });
        let jsonl = fr.to_jsonl();
        assert_eq!(jsonl.lines().count(), 1);
        assert!(jsonl.contains("\"ts_us\":42"));
        assert!(jsonl.contains("\"home\":7"));
        assert!(jsonl.contains("\"seq\":9"));
        assert!(jsonl.contains("\"kind\":\"quarantine_released\""));
        assert!(jsonl.contains("\"arg\":9"));
        assert!(jsonl.ends_with('\n'));
    }

    #[test]
    fn coordinator_ring_is_extra() {
        let fr = FlightRecorder::new(4, 8);
        assert_eq!(fr.coordinator_index(), 4);
        fr.shard(fr.coordinator_index()).record(ev(1, 0, 0));
        assert_eq!(fr.total(), 1);
    }
}
