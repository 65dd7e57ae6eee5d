//! Deterministic home-network simulator.
//!
//! The paper's latency evaluation (Table 7) measures FIAT's authentication
//! race: the humanness proof travelling phone → proxy must beat the IoT
//! command travelling phone → vendor cloud → device. This crate provides
//! the pieces to stage that race reproducibly (harnesses order simulated
//! time themselves, with a stable-sorted `Vec` of timestamped events):
//!
//! - [`link`]: latency profiles (LAN WiFi, LTE, WAN, VPN detours) with
//!   seeded jitter.
//! - [`home`]: the home topology — phone, IoT proxy, IoT devices, vendor
//!   cloud — and path-latency composition for LAN and mobile scenarios.
//! - [`tcp`]: RFC 6298-style retransmission backoff, used for the §6
//!   finding that devices tolerate ~2 s of added validation delay.
//!
//! The paper inserts its proxy by ARP spoofing and gives each packet an
//! NFQUEUE verdict (§5.4); this crate models no interception point. The
//! harnesses hand each packet to `FiatProxy::on_packet` directly, and
//! the simulator supplies only the latencies around that call.

pub mod home;
pub mod link;
pub mod tcp;

pub use home::{HomeNetwork, PhoneLocation};
pub use link::LatencyProfile;
