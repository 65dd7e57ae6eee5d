//! # fiat-chaos — seeded fault injection and graceful degradation
//!
//! FIAT's decision path assumes the humanness proof *arrives*: the phone
//! seals evidence, the proxy verifies it, and manual traffic flows. This
//! crate breaks that assumption on purpose. A seeded [`FaultPlan`]
//! drops, duplicates, delays, and corrupts frames on the QUIC proof
//! channel ([`ProofChannel`]) and models phone-offline windows and
//! sensor-unavailable intervals. Device packets are never faulted. The
//! zero-fault plan rolls nothing, so the channel draws only its base
//! latencies — chaos is strictly opt-in.
//!
//! Against that, the graceful-degradation story:
//!
//! - the client retries with capped exponential backoff + jitter,
//!   re-signing every attempt and falling back to 1-RTT when 0-RTT is
//!   rejected ([`ResilientClient`] over
//!   [`fiat_core::FiatApp::authorize_with_retry`]);
//! - the proxy holds unproven manual packets in a bounded
//!   pending-verdict quarantine until a proof deadline instead of
//!   dropping them outright (`ProxyConfig::proof_deadline`).
//!
//! The [`soak`] harness measures the composition on the paper's
//! 10-device testbed: **false drops** — genuine manual events that lost
//! packets despite an eventually-delivered proof — must be zero with
//! retries at the default deadline, and disabling retries must show
//! measurable degradation (otherwise the harness proves nothing). The
//! [`ManualLedger`] does that per-event accounting, here and in the
//! `fiat-control` sweep.
//! `experiments chaos` sweeps fault rates × latency profiles and writes
//! the scorecard with a PASS/REGRESSION trailer.
//!
//! The [`long_soak`] harness asks the *weeks* question instead of the
//! hours one: hundreds of homes × weeks of streamed simulated traffic,
//! with a per-home state-size accountant asserting a hard memory budget
//! at every sample, a snapshot-restore lockstep replay leg, and a
//! caps-disabled negative control that must breach the same budget.
//! `experiments soak` runs both legs and gates on zero false drops and
//! zero breaches (DESIGN §18, ROADMAP 5).

pub mod channel;
pub mod fault;
pub mod ledger;
pub mod long_soak;
pub mod resilient;
pub mod soak;

pub use channel::{corrupt_attempt, ChannelVerdict, ProofChannel};
pub use fault::{FaultKind, FaultPlan, FAULT_KINDS};
pub use ledger::ManualLedger;
pub use long_soak::{run_long_soak, HomeSim, LongSoakConfig, LongSoakReport};
pub use resilient::{ProofFrame, ProofPlan, ResilientClient};
pub use soak::{run_soak, SoakConfig, SoakReport};
