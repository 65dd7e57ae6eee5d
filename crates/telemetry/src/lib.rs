//! # fiat-telemetry — observability for the FIAT proxy decision path
//!
//! A zero-dependency measurement layer sized for a line-rate packet
//! decider on small hardware:
//!
//! - [`MetricRegistry`] — thread-safe, named [`Counter`]s, [`Gauge`]s and
//!   log-linear-bucket [`Histogram`]s (p50/p90/p99/max queries, one
//!   relaxed atomic op per update on the hot path).
//! - [`Span`] — stage-latency timing driven by a pluggable [`Clock`], so
//!   real deployments use the OS monotonic clock ([`WallClock`]) while
//!   deterministic experiments drive simulated time ([`ManualClock`]).
//! - [`Snapshot`] exposition — Prometheus text format and a
//!   `serde_json`-compatible JSON document, both rendered without any
//!   serialization dependency.
//! - [`AttackMetrics`] — outcome counters and a time-to-block histogram
//!   for the `fiat-attack` red-team harness.
//! - [`OracleMetrics`] — replay volume and divergence counters for the
//!   `fiat-oracle` differential decision oracle.
//! - [`ChaosMetrics`] — injected-fault, proof-retry, and false-drop
//!   counters for the `fiat-chaos` fault-injection harness.
//! - [`ControlMetrics`] — enrollment, epoch-rotation, snapshot, and
//!   degraded-mode counters for the `fiat-control` control plane.
//! - [`StateMetrics`] — bounded-state gauges + high-water marks
//!   (`fiat_state_*`) for the long-horizon soak's per-home accountant.
//!
//! ```
//! use fiat_telemetry::{ManualClock, MetricRegistry, Span};
//!
//! let reg = MetricRegistry::new();
//! let clock = ManualClock::new();
//! reg.describe("fiat_proxy_decisions_total", "Packets decided, by reason.");
//! reg.counter("fiat_proxy_decisions_total", &[("reason", "rule_hit")]).inc();
//! let stage = reg.histogram("fiat_proxy_stage_us", &[("stage", "rule_match")]);
//! {
//!     let _span = Span::enter(&stage, &clock);
//!     clock.advance_micros(12);
//! }
//! assert!(reg.render_prometheus().contains("fiat_proxy_decisions_total"));
//! assert!(reg.render_json().starts_with("{\"counters\":["));
//! ```

pub mod attack;
pub mod chaos;
pub mod clock;
pub mod control;
pub mod expose;
pub mod metrics;
pub mod oracle;
pub mod span;
pub mod state;

pub use attack::AttackMetrics;
pub use chaos::ChaosMetrics;
pub use clock::{Clock, ManualClock, WallClock};
pub use control::ControlMetrics;
pub use expose::{CounterSample, GaugeSample, HistogramSample, Snapshot};
pub use metrics::{Counter, Gauge, Histogram, MetricRegistry, NUM_BUCKETS};
pub use oracle::OracleMetrics;
pub use span::Span;
pub use state::{StateMetrics, StatePair};
