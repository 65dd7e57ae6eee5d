//! # fiat-probe — profiling and tracing probes for the fleet runtime
//!
//! ROADMAP item 1 asks *why* the sharded runtime gains only 1.06x from
//! 1→2 shards. Counters (PR 1) say what the fleet decided; nothing says
//! where the parallelism goes. This crate supplies the missing layer,
//! with the same constraints as `fiat-telemetry`: zero external
//! dependencies, and **off by default** — the decide hot path must not
//! pay for probes nobody turned on (proven by the allocation regression
//! test in `tests/overhead.rs`).
//!
//! Three probes:
//!
//! - [`profile`] — per-thread wall-time accounting. A [`ShardProfile`]
//!   buckets a shard's claim loop into named stages (recv / decide /
//!   merge / idle) and the coordinator's plan + join-barrier costs into
//!   a separate `coord` row, so a flat scaling curve decomposes into
//!   costs with names; [`FleetProfile`] folds rows, ranks suspected
//!   bottlenecks (each stage normalized against the wall time of the
//!   thread that measured it — no cross-thread over-accounting), and
//!   publishes `fiat_fleet_shard_busy_ms{shard,stage}`, assigned-homes
//!   gauges, steal counters, a barrier-skew histogram, and the
//!   flight-recorder eviction-ratio gauge.
//! - [`recorder`] — a flight recorder: bounded per-shard ring buffers of
//!   structured [`TraceEvent`]s (packet decided, proof arrival, lockout
//!   and quarantine transitions, home lifecycle), merged
//!   deterministically on the simulated clock keyed by
//!   `(ts, home, per-home seq)` — stable under work stealing — and
//!   rendered as JSONL ([`FlightRecorder::to_jsonl`]), so an anomaly
//!   comes with a causal packet-level timeline instead of just counters.
//! - [`alloc`] — the counting `#[global_allocator]` from PR 2's
//!   one-off proof test, promoted to a reusable probe with per-thread
//!   counters so a shard can attribute allocations to the stage that
//!   made them.
//!
//! The probes observe; they never feed the deterministic merged
//! registries, so a probed fleet run still merges byte-identically to
//! the sequential reference. Shards claim homes through atomic cursors
//! rather than channels, so there is no queue for a probe to measure;
//! work distribution shows up as the `Recv` (claim) stage and the steal
//! counters instead.

pub mod alloc;
pub mod profile;
pub mod recorder;

pub use alloc::{global_allocations, thread_allocations, AllocScope, CountingAllocator};
pub use profile::{FleetProfile, ShardProfile, Stage};
pub use recorder::{
    FlightRecorder, ShardRecorder, TraceEvent, TraceKind, SEQ_ASSIGNED, SEQ_CLAIMED, SEQ_FINISHED,
    SEQ_FIRST_HOOK,
};

/// What a fleet run should record beyond its always-on per-home stage
/// accounting. [`ProbeConfig::default`] records nothing: no flight
/// recorder, no proxy hook.
#[derive(Debug, Clone, Default)]
pub struct ProbeConfig {
    /// Flight-recorder ring capacity per shard; `0` disables the
    /// recorder entirely (no ring allocation, no per-decision hook).
    pub recorder_capacity: usize,
}

impl ProbeConfig {
    /// The configuration `experiments profile` runs with: stage
    /// accounting plus a flight recorder sized to keep the recent tail
    /// of each shard's decision stream.
    pub fn profiling() -> Self {
        ProbeConfig {
            recorder_capacity: 4096,
        }
    }
}
