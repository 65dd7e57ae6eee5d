//! Packet and flow model for FIAT.
//!
//! FIAT is a passive system: everything it learns, it learns from packet
//! *metadata* — sizes, endpoints, ports, protocol, TCP flags, TLS version,
//! and timing. This crate defines:
//!
//! - [`time`]: simulated time (`SimTime`, `SimDuration`) used everywhere;
//!   deterministic, microsecond resolution, no wall clock.
//! - [`packet`]: the packet metadata record ([`PacketRecord`]) and its
//!   vocabulary (direction, transport, TCP flags, TLS version, labels).
//! - [`flow`]: the paper's two flow definitions — "Classic" 6-tuple and
//!   "PortLess" (ports dropped, destination IP replaced by domain name).
//! - [`dns`]: the DNS table used for the PortLess mapping, including
//!   reverse lookups and domain aliases (§2.1 footnote 1).
//! - [`trace`]: a labeled trace container.
//! - [`hash`]: the keyed fold-multiply hasher behind the per-packet maps
//!   ([`FastMap`]).
//!
//! The proxy sees traffic through simulated interception, never as wire
//! bytes, so there is no frame or capture-file codec here.

pub mod dns;
pub mod flow;
pub mod hash;
pub mod packet;
pub mod time;
pub mod trace;

pub use dns::DnsTable;
pub use flow::{DeviceFlowKey, FlowDef, FlowKey, InternedFlowKey, RemoteId};
pub use hash::{FastMap, FoldState};
pub use packet::{Direction, PacketRecord, TcpFlags, TlsVersion, TrafficClass, Transport};
pub use time::{SimDuration, SimTime};
pub use trace::Trace;
