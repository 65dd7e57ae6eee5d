//! Stage-latency spans.
//!
//! A [`Span`] measures the time between `enter` and `exit` (or drop) on
//! a pluggable [`Clock`] and records the elapsed nanoseconds into a
//! [`Histogram`]. The proxy wraps each once-per-job stage of its decision
//! path (rule learning, classification, humanness validation) in one:
//!
//! ```
//! use fiat_telemetry::{Clock, ManualClock, MetricRegistry, Span};
//!
//! let reg = MetricRegistry::new();
//! let clock = ManualClock::new();
//! let hist = reg.histogram("stage_ns", &[("stage", "classification")]);
//! {
//!     let _span = Span::enter(&hist, &clock);
//!     clock.advance_micros(42); // ... the stage runs ...
//! } // drop records 42 µs = 42 000 ns
//! assert_eq!(hist.count(), 1);
//! assert_eq!(hist.max(), 42_000);
//! ```

use crate::clock::Clock;
use crate::metrics::Histogram;

/// An in-flight stage timing; records into its histogram on [`Span::exit`]
/// or drop.
#[must_use = "a span records when it is dropped or exited"]
pub struct Span<'c> {
    hist: Histogram,
    clock: &'c dyn Clock,
    start: u64,
    armed: bool,
}

impl<'c> Span<'c> {
    /// Start timing a stage against `hist` using `clock`.
    pub fn enter(hist: &Histogram, clock: &'c dyn Clock) -> Self {
        Span {
            hist: hist.clone(),
            clock,
            start: clock.now_nanos(),
            armed: true,
        }
    }

    /// Elapsed nanoseconds so far (saturating if the clock went
    /// backwards).
    pub fn elapsed_nanos(&self) -> u64 {
        self.clock.now_nanos().saturating_sub(self.start)
    }

    /// Stop and record, returning the elapsed nanoseconds.
    pub fn exit(mut self) -> u64 {
        let ns = self.elapsed_nanos();
        self.hist.record(ns);
        self.armed = false;
        ns
    }

    /// Abandon the span without recording (e.g. on an error path that
    /// should not pollute the latency distribution).
    pub fn cancel(mut self) {
        self.armed = false;
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.hist.record(self.elapsed_nanos());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    #[test]
    fn span_records_on_drop() {
        let clock = ManualClock::new();
        let h = Histogram::new();
        {
            let _s = Span::enter(&h, &clock);
            clock.advance_micros(100);
        }
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), 100_000);
    }

    #[test]
    fn span_exit_returns_elapsed() {
        let clock = ManualClock::new();
        let h = Histogram::new();
        let s = Span::enter(&h, &clock);
        clock.advance_micros(7);
        assert_eq!(s.exit(), 7000);
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), 7000);
    }

    #[test]
    fn span_cancel_records_nothing() {
        let clock = ManualClock::new();
        let h = Histogram::new();
        let s = Span::enter(&h, &clock);
        clock.advance_micros(5);
        s.cancel();
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn backwards_clock_saturates_to_zero() {
        let clock = ManualClock::new();
        clock.set_micros(1000);
        let h = Histogram::new();
        let s = Span::enter(&h, &clock);
        clock.set_micros(500);
        assert_eq!(s.exit(), 0);
    }

    #[test]
    fn nested_spans_record_independently() {
        let clock = ManualClock::new();
        let outer = Histogram::new();
        let inner = Histogram::new();
        {
            let _o = Span::enter(&outer, &clock);
            clock.advance_micros(10);
            {
                let _i = Span::enter(&inner, &clock);
                clock.advance_micros(5);
            }
            clock.advance_micros(10);
        }
        assert_eq!(inner.max(), 5000);
        assert_eq!(outer.max(), 25_000);
    }
}
