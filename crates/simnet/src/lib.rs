//! Deterministic discrete-event home-network simulator.
//!
//! The paper's latency evaluation (Table 7) measures FIAT's authentication
//! race: the humanness proof travelling phone → proxy must beat the IoT
//! command travelling phone → vendor cloud → device. This crate provides
//! the pieces to stage that race reproducibly:
//!
//! - [`event`]: a seeded, deterministic discrete-event scheduler. Events
//!   at equal timestamps fire in insertion order (no wall clock, no
//!   `HashMap` iteration order anywhere).
//! - [`link`]: latency profiles (LAN WiFi, LTE, WAN, VPN detours) with
//!   seeded jitter.
//! - [`home`]: the home topology — phone, IoT proxy, IoT devices, vendor
//!   cloud — and path-latency composition for LAN and mobile scenarios.
//! - [`intercept`]: the NFQUEUE-style interception point: every forwarded
//!   packet is held until a verdict callback decides Allow or Drop
//!   (§5.4 "Traffic Intercept").
//! - [`tcp`]: RFC 6298-style retransmission backoff, used for the §6
//!   finding that devices tolerate ~2 s of added validation delay.
//!
//! The paper inserts its proxy by ARP spoofing (§5.4); the simulator
//! routes traffic through the interception point directly instead.

pub mod event;
pub mod home;
pub mod intercept;
pub mod link;
pub mod tcp;

pub use event::Scheduler;
pub use home::{HomeNetwork, PhoneLocation};
pub use intercept::{FaultInjector, InterceptQueue, Verdict};
pub use link::LatencyProfile;
