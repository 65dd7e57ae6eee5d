//! Minimal QUIC-like secure channel for FIAT's auth messages.
//!
//! §5.3 picks QUIC for the phone → proxy channel because (a) 0-RTT/1-RTT
//! beats TCP+TLS setup latency, and (b) everything including transport
//! metadata is encrypted. This crate reproduces the properties FIAT's
//! evaluation relies on, not all of RFC 9000:
//!
//! - [`connection`]: PSK-based 1-RTT handshake with session-ticket
//!   issuance, 0-RTT resumption, and AEAD packet protection with
//!   monotonically increasing packet numbers.
//! - [`replay`]: the server-side anti-replay store. §5.3 notes 0-RTT is
//!   replayable in general, but a home proxy serves few devices and can
//!   afford to remember every 0-RTT packet it has accepted.

pub mod connection;
pub mod replay;

pub use connection::{
    Client, ClientHello, Packet, QuicError, Server, ServerHello, ServerImage, ServerTelemetry,
    SessionTicket, ZeroRttPacket,
};
pub use replay::{ReplayEpochImage, ReplayStore};
