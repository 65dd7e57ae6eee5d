//! Pluggable time sources for span timing.
//!
//! The proxy runs in two worlds: real deployments measure stage latency
//! with the monotonic OS clock, while the deterministic experiments run
//! on simulated time. Both are expressed as nanoseconds since an
//! arbitrary origin, so a single `u64`-returning trait covers them and histograms never need to know which world
//! produced a sample.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A monotonic clock.
pub trait Clock: Send + Sync {
    /// Nanoseconds elapsed since the clock's origin.
    fn now_nanos(&self) -> u64;
}

/// Real wall time via [`std::time::Instant`], anchored at construction.
#[derive(Debug, Clone)]
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    /// A wall clock whose origin is "now".
    pub fn new() -> Self {
        WallClock {
            origin: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for WallClock {
    fn now_nanos(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// A manually driven clock for simulated time (`SimTime` maps 1:1 onto
/// its microsecond counter) that reports micros × 1000 as nanoseconds.
/// Clones share the same underlying counter,
/// so one owner can advance time while spans observe it.
#[derive(Debug, Clone, Default)]
pub struct ManualClock {
    micros: Arc<AtomicU64>,
}

impl ManualClock {
    /// A manual clock starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the absolute time in microseconds (monotonicity is the
    /// caller's contract; setting backwards yields zero-length spans
    /// rather than panics).
    pub fn set_micros(&self, us: u64) {
        self.micros.store(us, Ordering::Relaxed);
    }

    /// Advance the clock by `us` microseconds.
    pub fn advance_micros(&self, us: u64) {
        self.micros.fetch_add(us, Ordering::Relaxed);
    }
}

impl Clock for ManualClock {
    fn now_nanos(&self) -> u64 {
        self.micros.load(Ordering::Relaxed).saturating_mul(1000)
    }
}

impl<C: Clock + ?Sized> Clock for Arc<C> {
    fn now_nanos(&self) -> u64 {
        (**self).now_nanos()
    }
}

impl<C: Clock + ?Sized> Clock for &C {
    fn now_nanos(&self) -> u64 {
        (**self).now_nanos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotone() {
        let c = WallClock::new();
        let a = c.now_nanos();
        let b = c.now_nanos();
        assert!(b >= a);
    }

    #[test]
    fn wall_clock_resolves_below_a_microsecond() {
        // Sub-microsecond stages must not all truncate to zero: some
        // read is not a whole number of microseconds.
        let c = WallClock::new();
        let fine = (0..1000).any(|_| !c.now_nanos().is_multiple_of(1000));
        assert!(fine, "WallClock::now_nanos has only microsecond resolution");
    }

    #[test]
    fn manual_clock_shares_state_across_clones() {
        let c = ManualClock::new();
        let c2 = c.clone();
        c.set_micros(100);
        assert_eq!(c2.now_nanos(), 100_000);
        c2.advance_micros(50);
        assert_eq!(c.now_nanos(), 150_000);
    }

    #[test]
    fn clock_through_arc_and_ref() {
        let m = ManualClock::new();
        let c: Arc<dyn Clock> = Arc::new(m.clone());
        m.set_micros(3);
        assert_eq!(c.now_nanos(), 3000);
        let w = WallClock::new();
        let r: &dyn Clock = &w;
        let _ = r.now_nanos();
    }
}
