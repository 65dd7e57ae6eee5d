//! # FIAT — Frictionless Authentication of IoT Traffic
//!
//! A from-scratch Rust reproduction of *FIAT: Frictionless Authentication
//! of IoT Traffic* (Xiao & Varvello, CoNEXT '22): a third-party, passive
//! system that authorizes home-IoT traffic by learning its predictable
//! part and validating the human behind the unpredictable part.
//!
//! This umbrella crate re-exports the workspace:
//!
//! - [`core`] (`fiat-core`) — the FIAT system: predictability engine,
//!   event grouping, event classification, access-control pipeline,
//!   client app model, pairing, audit log.
//! - [`net`] (`fiat-net`) — packets, flow keys, DNS, traces.
//! - [`ml`] (`fiat-ml`) — the nine classifiers, metrics, CV, permutation
//!   importance.
//! - [`sensors`] (`fiat-sensors`) — IMU synthesis and humanness
//!   verification.
//! - [`quic`] (`fiat-quic`) — the 0-RTT secure channel.
//! - [`crypto`] (`fiat-crypto`) — SHA-256 / HMAC / HKDF /
//!   ChaCha20-Poly1305 and the TEE keystore model.
//! - [`simnet`] (`fiat-simnet`) — the deterministic home-network
//!   simulator.
//! - [`trace`] (`fiat-trace`) — testbed device models and dataset
//!   synthesis.
//! - [`telemetry`] (`fiat-telemetry`) — metrics, stage-latency spans,
//!   and Prometheus/JSON exposition.
//! - [`fleet`] (`fiat-fleet`) — the sharded multi-home proxy runtime
//!   with deterministic fleet-wide telemetry merging.
//! - [`attack`] (`fiat-attack`) — the adversarial red-team harness:
//!   seeded attacker strategies scored against a live proxy.
//! - [`oracle`] (`fiat-oracle`) — the differential decision oracle: a
//!   naive reference pipeline plus a seeded timestamp-chaos fuzzer that
//!   checks the real proxy against it op by op.
//!
//! ## Quickstart
//!
//! ```
//! use fiat::prelude::*;
//!
//! // Generate a small testbed capture and measure predictability.
//! let capture = TestbedTrace::generate(TestbedConfig {
//!     days: 0.05,
//!     ..Default::default()
//! });
//! let engine = PredictabilityEngine::new(FlowDef::PortLess);
//! let report = engine.report(&capture.trace.packets, &capture.trace.dns);
//! let frac = report.fraction(0, TrafficClass::Control);
//! assert!(frac > 0.5, "control traffic should be mostly predictable");
//! ```

pub use fiat_attack as attack;
pub use fiat_core as core;
pub use fiat_crypto as crypto;
pub use fiat_fleet as fleet;
pub use fiat_ml as ml;
pub use fiat_net as net;
pub use fiat_oracle as oracle;
pub use fiat_probe as probe;
pub use fiat_quic as quic;
pub use fiat_sensors as sensors;
pub use fiat_simnet as simnet;
pub use fiat_telemetry as telemetry;
pub use fiat_trace as trace;

/// The most commonly used types, in one import.
pub mod prelude {
    pub use fiat_core::{
        group_events, EventClass, EventClassifier, FiatApp, FiatProxy, PredictabilityEngine,
        ProxyConfig, ProxyDecision, RuleTable, EVENT_GAP,
    };
    pub use fiat_fleet::{
        build_workloads, run_sequential, run_sharded, FleetOutcome, PartitionPlan,
    };
    pub use fiat_net::{
        Direction, FlowDef, FlowKey, InternedFlowKey, PacketRecord, RemoteId, SimDuration, SimTime,
        Trace, TrafficClass, Transport,
    };
    pub use fiat_sensors::{HumannessValidator, ImuTrace, MotionKind};
    pub use fiat_simnet::{HomeNetwork, PhoneLocation};
    pub use fiat_telemetry::{MetricRegistry, Span};
    pub use fiat_trace::{testbed_devices, Location, TestbedConfig, TestbedTrace};
}
