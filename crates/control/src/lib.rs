//! fiat-control — the proxy-cluster control plane.
//!
//! Everything below the pipeline treats a home as already provisioned:
//! the ceremony happened, tickets exist, epochs rotate by fiat. This
//! crate is where those facts come from. It models the control plane a
//! FIAT deployment runs beside its data plane:
//!
//! - [`enroll`] — the phone ↔ proxy mutual-auth enrollment ceremony:
//!   three messages over the pairing-derived keys, device provisioning,
//!   and the first session ticket. A home that fails mutual auth gets
//!   nothing — no devices, no tickets, no state.
//! - [`lifecycle`] — ticket-epoch key lifecycle: scheduled rotation,
//!   bounded-window retirement (replay-store memory stays bounded), and
//!   the retired-epoch 0-RTT → 1-RTT fallback that makes rotation
//!   invisible to users.
//! - [`rebalance`] — home snapshot/restore: canonical serialized bytes
//!   of a proxy's full decision state, and the restore path a fleet
//!   uses to move a home between shards byte-identically.
//! - [`metrics`] — [`ControlMetrics`], the `fiat_control_*` lifecycle
//!   counters the functions above record into when handed one.
//! - [`sweep`] — the end-to-end experiment cell: enroll → rotate →
//!   outage → recover on the paper's testbed, with the degraded-mode
//!   sliding window contrasted against the unsafe keep-retiring
//!   baseline, surfaced as `experiments control`.
//!
//! Degraded mode is the crate's availability story: when the control
//! plane is unreachable, the proxy freezes its live-epoch window — it
//! cannot grow (bounded memory) and cannot shrink (last-known-good
//! tickets keep authenticating) — flags every decision it takes in the
//! audit chain and telemetry, and recovers cleanly on reconnect.

pub mod enroll;
pub mod lifecycle;
pub mod metrics;
pub mod rebalance;
pub mod sweep;

pub use enroll::{
    enroll_home, DeviceSpec, EnrollChallenge, EnrollError, EnrollProof, EnrollRequest,
    EnrolledHome, HomeProvision, PhoneEnroller, ProxyEnroller,
};
pub use lifecycle::{KeyLifecycle, LifecyclePolicy};
pub use metrics::ControlMetrics;
pub use rebalance::{restore_home, snapshot_home, RestoreError};
pub use sweep::{run_control_sweep, ControlConfig, ControlReport};
