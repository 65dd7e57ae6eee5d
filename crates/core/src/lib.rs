//! FIAT: frictionless authentication of IoT traffic (CoNEXT '22).
//!
//! The paper's contribution, assembled from the substrate crates:
//!
//! - [`predict`]: the §2.1 bucket heuristic that decides which packets are
//!   predictable (same size + same endpoint + repeating inter-arrival),
//!   under both Classic and PortLess flow definitions, plus the learned
//!   rule table the proxy enforces after bootstrap.
//! - [`events`]: grouping of unpredictable packets into events with the
//!   §3.2 five-second gap rule.
//! - [`features`]: the 66-dimensional event featurizer over the first
//!   (up to) five packets of an unpredictable event (§4.1).
//! - [`classifier`]: per-device manual-event classification — the §4 size
//!   rule for simple devices (SP10, WP3, Nest-E) and an ML model
//!   (BernoulliNB by default) for the rest — and the §7
//!   per-device-and-version model registry. A new device is identified
//!   by `fiat-fingerprint`'s `SignatureSet::identify`, the same
//!   signatures the unknown-device gate runs.
//! - [`client`]: the phone-side FIAT app model — foreground-app detection,
//!   sensor sampling, TEE-backed signing, QUIC transfer — with the
//!   Table 7 latency breakdown.
//! - [`pairing`]: the offline pairing ceremony that seeds both TEEs with
//!   the shared key (§5.4 "Pairing").
//! - [`pipeline`]: the proxy's access-control procedure of Figure 4,
//!   including the first-N allowance, humanness gating, brute-force
//!   lockout, and the audit trail.
//! - [`interactions`]: the §7 device-interaction DAG (Alexa → smart
//!   light) that lets authorized devices vouch for downstream commands.
//! - [`audit`]: hash-chained, tamper-evident log of every unpredictable
//!   event and decision (§7 "Technology Acceptance").
//! - [`snapshot`]: versioned export of a proxy's full decision state in a
//!   canonical binary encoding, so a home can move between fleet shards or
//!   survive a restart without losing rules, events, or its audit chain.
//! - [`analysis`]: the Appendix A closed-form false-positive/negative
//!   model.

pub mod analysis;
pub mod audit;
pub mod classifier;
pub mod client;
pub mod events;
pub mod features;
pub mod interactions;
pub mod pairing;
pub mod pipeline;
pub mod predict;
pub mod snapshot;

pub use analysis::ErrorModel;
pub use classifier::{EventClass, EventClassifier, ModelRegistry};
pub use client::{
    AuthAttempt, AuthMessage, AuthView, DeliveryResult, FiatApp, LatencyBreakdown, RetryOutcome,
    RetryPolicy,
};
pub use events::{group_events, UnpredictableEvent, EVENT_GAP};
pub use features::{event_feature_names, event_features, event_features_into, EVENT_FEATURE_COUNT};
pub use interactions::InteractionGraph;
pub use pairing::pair;
pub use pipeline::{
    AllowReason, DropReason, FiatProxy, FingerprintGate, FingerprintObservation,
    FingerprintVerdict, ProxyConfig, ProxyDecision, ProxyEvent, ProxyHook, ProxyStats,
    ProxyTelemetry, StateSize, DECIDE_SAMPLE_EVERY,
};
pub use predict::{PredictabilityEngine, PredictabilityReport, RuleTable, RuleTelemetry};
pub use snapshot::{GhostSnapshot, SnapshotError, SNAPSHOT_VERSION};
