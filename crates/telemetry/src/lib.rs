//! # fiat-telemetry — observability for the FIAT proxy decision path
//!
//! A zero-dependency measurement layer sized for a line-rate packet
//! decider on small hardware:
//!
//! - [`MetricRegistry`] — thread-safe, named [`Counter`]s, [`Gauge`]s and
//!   log-linear-bucket [`Histogram`]s (p50/p90/p99/max queries, one
//!   relaxed atomic op per update on the hot path).
//! - [`SchemaPart`] — metric families declared once as a `static` table
//!   and attached to a registry as one cell array, so a component's
//!   telemetry is built with one allocation and merged element by
//!   element.
//! - [`Span`] — stage-latency timing driven by a pluggable [`Clock`], so
//!   real deployments use the OS monotonic clock ([`WallClock`]) while
//!   deterministic experiments drive simulated time ([`ManualClock`]).
//! - [`Snapshot`] exposition — Prometheus text format and a
//!   `serde_json`-compatible JSON document, both rendered without any
//!   serialization dependency.
//!
//! The crate holds only these primitives. Metric families belong to the
//! layer that owns the numbers: the proxy declares its decision-path
//! schema parts in `fiat-core` (and the channel's in `fiat-quic`), the control plane keeps its lifecycle handle
//! (`fiat_control::ControlMetrics`), and each `fiat-bench` experiment
//! publishes its harness report (red-team, oracle, chaos, long soak)
//! into the registry once the run has finished.
//!
//! ```
//! use fiat_telemetry::{ManualClock, MetricRegistry, Span};
//!
//! let reg = MetricRegistry::new();
//! let clock = ManualClock::new();
//! reg.describe("fiat_proxy_decisions_total", "Packets decided, by reason.");
//! reg.counter("fiat_proxy_decisions_total", &[("reason", "rule_hit")]).inc();
//! let stage = reg.histogram("fiat_proxy_stage_ns", &[("stage", "classification")]);
//! {
//!     let _span = Span::enter(&stage, &clock);
//!     clock.advance_micros(12);
//! }
//! assert!(reg.render_prometheus().contains("fiat_proxy_decisions_total"));
//! assert!(reg.render_json().starts_with("{\"counters\":["));
//! ```

pub mod clock;
pub mod expose;
pub mod metrics;
pub mod schema;
pub mod span;

pub use clock::{Clock, ManualClock, WallClock};
pub use expose::{CounterSample, GaugeSample, HistogramSample, Snapshot};
pub use metrics::{Counter, Gauge, Histogram, MetricRegistry, NUM_BUCKETS};
pub use schema::{Family, LabelSet, MetricKind, PartCells, SchemaPart};
pub use span::Span;
