//! Counting the locked instructions telemetry makes.
//!
//! Every atomic read-modify-write on a telemetry cell (a `fetch_add` or
//! `fetch_max`) goes through one of this module's two helpers. On x86_64
//! each is a `lock`-prefixed instruction, the cost a per-packet path
//! cannot afford. With the `count-work` feature on, each also bumps a
//! per-thread count that `locked_ops` reads, so tests can pin exactly
//! how many locked operations an operation makes. Only tests turn the
//! feature on: with it off the count compiles away.

use std::sync::atomic::{AtomicU64, Ordering};

#[cfg(feature = "count-work")]
thread_local! {
    static LOCKED_OPS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Locked read-modify-writes this thread has made on telemetry cells.
#[cfg(feature = "count-work")]
pub fn locked_ops() -> u64 {
    LOCKED_OPS.with(std::cell::Cell::get)
}

#[inline(always)]
fn note_locked() {
    #[cfg(feature = "count-work")]
    LOCKED_OPS.with(|n| n.set(n.get() + 1));
}

/// `cell += n` as one relaxed `fetch_add` (any number of writers).
#[inline]
pub(crate) fn rmw_add(cell: &AtomicU64, n: u64) {
    note_locked();
    cell.fetch_add(n, Ordering::Relaxed);
}

/// `cell = max(cell, v)` as one relaxed `fetch_max`.
#[inline]
pub(crate) fn rmw_max(cell: &AtomicU64, v: u64) {
    note_locked();
    cell.fetch_max(v, Ordering::Relaxed);
}

/// `cell += n` as a relaxed load and a store: no locked instruction,
/// and sound only when the caller is the cell's one writer.
#[inline]
pub(crate) fn owned_add(cell: &AtomicU64, n: u64) {
    cell.store(
        cell.load(Ordering::Relaxed).wrapping_add(n),
        Ordering::Relaxed,
    );
}
