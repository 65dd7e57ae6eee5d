//! PSK-authenticated handshake, session tickets, and packet protection.
//!
//! Key schedule (all HKDF-SHA256 from the pairing PSK established at
//! §5.4 "Pairing"):
//!
//! ```text
//! handshake_secret = HKDF-Extract(salt="fiat-quic", ikm=PSK)
//! session_key      = HKDF-Expand(handshake_secret,
//!                                "1rtt" || client_random || server_random)
//! ticket_secret    = HKDF-Expand(Extract("fiat-ticket", PSK),
//!                                "ticket" || ticket_id || epoch)
//! early_key        = HKDF-Expand(Extract("fiat-0rtt", ticket_secret), "early")
//! ```
//!
//! Packets are ChaCha20-Poly1305 sealed with the packet number as nonce
//! and direction tag as AAD, so reflected or re-ordered ciphertext fails
//! authentication.
//!
//! Tickets carry the **epoch** they were issued under. The control plane
//! rotates the server's current epoch ([`Server::rotate_epoch`]) and
//! retires old ones ([`Server::retire_epochs_below`]); a retired epoch's
//! early keys and replay history are dead, so a 0-RTT proof under it is
//! answered [`QuicError::RetiredEpoch`] and the client falls back to a
//! 1-RTT re-handshake. Retirement is the only way the server forgets an
//! accepted 0-RTT nonce: the anti-replay store has no capacity bound.

use crate::replay::{ReplayEpochImage, ReplayStore};
use fiat_crypto::{aead, Hkdf};
use fiat_telemetry::{Counter, Family, Gauge, MetricRegistry, SchemaPart};

/// Errors surfaced by the channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuicError {
    /// AEAD open failed: wrong key, tampering, or wrong direction.
    DecryptFailed,
    /// The session ticket is unknown to this server.
    UnknownTicket,
    /// This exact 0-RTT packet was already accepted once.
    Replayed,
    /// Handshake message arrived in the wrong state.
    BadState,
    /// Packet number not strictly greater than the last accepted one.
    StalePacketNumber,
    /// The ticket's key epoch was retired by the control plane; its early
    /// keys and replay history are gone, so early data under it is
    /// refused and the client must redo a 1-RTT handshake.
    RetiredEpoch,
}

impl std::fmt::Display for QuicError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuicError::DecryptFailed => write!(f, "packet failed authentication"),
            QuicError::UnknownTicket => write!(f, "unknown session ticket"),
            QuicError::Replayed => write!(f, "0-RTT replay detected"),
            QuicError::BadState => write!(f, "handshake message in wrong state"),
            QuicError::StalePacketNumber => write!(f, "stale packet number"),
            QuicError::RetiredEpoch => write!(f, "session ticket epoch retired"),
        }
    }
}

impl std::error::Error for QuicError {}

/// First flight of the 1-RTT handshake.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientHello {
    /// Client random contribution.
    pub client_random: [u8; 32],
}

/// Server reply: random, plus a ticket for future 0-RTT.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerHello {
    /// Server random contribution.
    pub server_random: [u8; 32],
    /// Ticket enabling 0-RTT resumption.
    pub ticket: SessionTicket,
}

/// A session ticket (opaque id; secret stays server-side).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SessionTicket {
    /// Server-chosen identifier.
    pub id: u64,
    /// Key-lifecycle epoch the ticket was issued under; bound into the
    /// ticket secret, so tickets die with their epoch.
    pub epoch: u32,
}

/// A protected 1-RTT packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Strictly increasing per-direction packet number (also the nonce).
    pub number: u64,
    /// Sealed payload.
    pub ciphertext: Vec<u8>,
}

/// A protected 0-RTT packet: early data bound to a ticket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZeroRttPacket {
    /// Which ticket's early key sealed this.
    pub ticket: SessionTicket,
    /// Client-chosen nonce for this early-data packet.
    pub nonce: u64,
    /// Sealed payload.
    pub ciphertext: Vec<u8>,
}

fn nonce_bytes(direction: u8, n: u64) -> [u8; aead::NONCE_LEN] {
    let mut out = [0u8; aead::NONCE_LEN];
    out[0] = direction;
    out[4..].copy_from_slice(&n.to_be_bytes());
    out
}

fn session_key(psk: &[u8; 32], client_random: &[u8; 32], server_random: &[u8; 32]) -> [u8; 32] {
    let hk = Hkdf::extract(b"fiat-quic", psk);
    let mut info = [0u8; 4 + 64];
    info[..4].copy_from_slice(b"1rtt");
    info[4..36].copy_from_slice(client_random);
    info[36..].copy_from_slice(server_random);
    let mut key = [0u8; 32];
    hk.expand(&info, &mut key);
    key
}

fn early_key(ticket_secret: &[u8; 32]) -> [u8; 32] {
    let mut key = [0u8; 32];
    Hkdf::extract(b"fiat-0rtt", ticket_secret).expand(b"early", &mut key);
    key
}

const DIR_CLIENT_TO_SERVER: u8 = 0;
const DIR_SERVER_TO_CLIENT: u8 = 1;

/// One end of an established 1-RTT session: the session key, the
/// direction byte this end seals under and the one it opens under, and
/// the last packet number sent and accepted.
struct Session {
    key: [u8; 32],
    send_dir: u8,
    recv_dir: u8,
    send_pn: u64,
    recv_pn: u64,
}

impl Session {
    fn new(key: [u8; 32], send_dir: u8, recv_dir: u8) -> Self {
        Session {
            key,
            send_dir,
            recv_dir,
            send_pn: 0,
            recv_pn: 0,
        }
    }

    fn seal(&mut self, data: &[u8]) -> Packet {
        self.send_pn += 1;
        let n = self.send_pn;
        Packet {
            number: n,
            ciphertext: aead::seal(&self.key, &nonce_bytes(self.send_dir, n), b"1rtt", data),
        }
    }

    /// Open a peer packet; a failed open leaves `recv_pn` where it was.
    fn open(&mut self, pkt: &Packet) -> Result<Vec<u8>, QuicError> {
        if pkt.number <= self.recv_pn {
            return Err(QuicError::StalePacketNumber);
        }
        let out = aead::open(
            &self.key,
            &nonce_bytes(self.recv_dir, pkt.number),
            b"1rtt",
            &pkt.ciphertext,
        )
        .map_err(|_| QuicError::DecryptFailed)?;
        self.recv_pn = pkt.number;
        Ok(out)
    }
}

enum ClientState {
    Idle,
    AwaitingServerHello { client_random: [u8; 32] },
    Established,
}

/// Client (phone) side of the channel.
pub struct Client {
    psk: [u8; 32],
    state: ClientState,
    session: Option<Session>,
    ticket: Option<(SessionTicket, [u8; 32])>, // ticket + early key
    zero_rtt_nonce: u64,
}

impl Client {
    /// New client holding the pairing PSK.
    pub fn new(psk: [u8; 32]) -> Self {
        Client {
            psk,
            state: ClientState::Idle,
            session: None,
            ticket: None,
            zero_rtt_nonce: 0,
        }
    }

    /// Begin a 1-RTT handshake. `client_random` must be fresh per
    /// connection (caller provides randomness; the library stays
    /// deterministic).
    pub fn start_handshake(&mut self, client_random: [u8; 32]) -> ClientHello {
        self.state = ClientState::AwaitingServerHello { client_random };
        ClientHello { client_random }
    }

    /// Complete the handshake with the server's reply; stores the ticket
    /// for later 0-RTT. Note: the ticket's early key is derived from the
    /// PSK and ticket id, matching the server's bookkeeping.
    pub fn finish_handshake(&mut self, hello: &ServerHello) -> Result<(), QuicError> {
        let ClientState::AwaitingServerHello { client_random } = self.state else {
            return Err(QuicError::BadState);
        };
        let key = session_key(&self.psk, &client_random, &hello.server_random);
        self.session = Some(Session::new(
            key,
            DIR_CLIENT_TO_SERVER,
            DIR_SERVER_TO_CLIENT,
        ));
        // The client derives the same ticket secret the server stored:
        // HKDF(PSK, "ticket" || id || epoch) — tickets are PSK- and
        // epoch-bound.
        let secret = ticket_secret(&self.psk, hello.ticket.id, hello.ticket.epoch);
        self.ticket = Some((hello.ticket, early_key(&secret)));
        self.state = ClientState::Established;
        Ok(())
    }

    /// Whether a ticket is cached for 0-RTT.
    pub fn can_zero_rtt(&self) -> bool {
        self.ticket.is_some()
    }

    /// Drop the cached ticket (and its early key). The resilience path
    /// calls this after the server answers [`QuicError::RetiredEpoch`] or
    /// [`QuicError::UnknownTicket`] — the ticket's epoch was retired (or
    /// the server never issued it), so the only way back to 0-RTT is a
    /// fresh handshake and a re-signed proof under the new ticket.
    pub fn forget_ticket(&mut self) {
        self.ticket = None;
    }

    /// Seal application data on the established 1-RTT connection.
    pub fn seal(&mut self, data: &[u8]) -> Result<Packet, QuicError> {
        Ok(self.session.as_mut().ok_or(QuicError::BadState)?.seal(data))
    }

    /// Open a server-to-client packet.
    pub fn open(&mut self, pkt: &Packet) -> Result<Vec<u8>, QuicError> {
        self.session.as_mut().ok_or(QuicError::BadState)?.open(pkt)
    }

    /// Seal early data for 0-RTT using the cached ticket.
    pub fn seal_zero_rtt(&mut self, data: &[u8]) -> Result<ZeroRttPacket, QuicError> {
        let (ticket, ekey) = self.ticket.ok_or(QuicError::BadState)?;
        self.zero_rtt_nonce += 1;
        let n = self.zero_rtt_nonce;
        Ok(ZeroRttPacket {
            ticket,
            nonce: n,
            ciphertext: aead::seal(&ekey, &nonce_bytes(DIR_CLIENT_TO_SERVER, n), b"0rtt", data),
        })
    }
}

fn ticket_secret(psk: &[u8; 32], id: u64, epoch: u32) -> [u8; 32] {
    let mut info = [0u8; 18];
    info[..6].copy_from_slice(b"ticket");
    info[6..14].copy_from_slice(&id.to_be_bytes());
    info[14..].copy_from_slice(&epoch.to_be_bytes());
    let mut out = [0u8; 32];
    Hkdf::extract(b"fiat-ticket", psk).expand(&info, &mut out);
    out
}

/// The channel's fixed `fiat_quic_*` series. `fiat_quic_replay_entries`
/// declares only its help text: its series are per ticket epoch, created
/// by name as epochs first take entries.
static QUIC_METRICS: SchemaPart = SchemaPart::new(&[
    Family::counter(
        "fiat_quic_handshakes_total",
        "1-RTT handshakes accepted by the proxy.",
        &[&[]],
    ),
    Family::counter(
        "fiat_quic_one_rtt_total",
        "1-RTT packets processed by the proxy, by result.",
        &[&[("result", "accepted")], &[("result", "rejected")]],
    ),
    Family::counter(
        "fiat_quic_zero_rtt_total",
        "0-RTT packets processed by the proxy, by result.",
        &[
            &[("result", "accepted")],
            &[("result", "replayed")],
            &[("result", "retired_epoch")],
            &[("result", "rejected")],
        ],
    ),
    Family::gauge(
        REPLAY_ENTRIES,
        "Accepted 0-RTT (ticket, nonce) entries tracked, per ticket epoch.",
        &[],
    ),
    Family::counter(
        "fiat_quic_epochs_retired_total",
        "Replay-store ticket epochs retired by the key lifecycle.",
        &[&[]],
    ),
]);

const REPLAY_ENTRIES: &str = "fiat_quic_replay_entries";

/// Counters for the server (proxy) side of the channel. Defaults to
/// detached counters so an uninstrumented [`Server`] costs one relaxed
/// atomic op per packet; [`ServerTelemetry::registered`] exposes the same
/// handles through a registry.
#[derive(Debug, Clone, Default)]
pub struct ServerTelemetry {
    /// 1-RTT handshakes accepted (each issues a ticket).
    pub handshakes: Counter,
    /// 1-RTT packets opened successfully.
    pub one_rtt_accepted: Counter,
    /// 1-RTT packets rejected (bad state, stale number, decrypt failure).
    pub one_rtt_rejected: Counter,
    /// 0-RTT packets accepted.
    pub zero_rtt_accepted: Counter,
    /// 0-RTT packets rejected by the anti-replay store (§5.3 attack).
    pub zero_rtt_replayed: Counter,
    /// 0-RTT packets refused because their ticket's epoch was retired
    /// (the client falls back to 1-RTT).
    pub zero_rtt_retired: Counter,
    /// Other 0-RTT rejections (unknown ticket, decrypt failure).
    pub zero_rtt_rejected: Counter,
    /// Replay-store epochs retired over the server's lifetime.
    pub epochs_retired: Counter,
    /// Registry for per-epoch replay-entry gauges (labels resolve on
    /// demand as epochs rotate); `None` when detached.
    pub registry: Option<MetricRegistry>,
    /// Replay-entry gauges resolved so far, one per live epoch.
    replay_gauges: Vec<(u32, Gauge)>,
}

impl ServerTelemetry {
    /// Handles to the `fiat_quic_*` series of `registry`.
    pub fn registered(registry: &MetricRegistry) -> Self {
        let cells = registry.attach(&QUIC_METRICS);
        ServerTelemetry {
            handshakes: cells.counter(0, 0),
            one_rtt_accepted: cells.counter(1, 0),
            one_rtt_rejected: cells.counter(1, 1),
            zero_rtt_accepted: cells.counter(2, 0),
            zero_rtt_replayed: cells.counter(2, 1),
            zero_rtt_retired: cells.counter(2, 2),
            zero_rtt_rejected: cells.counter(2, 3),
            epochs_retired: cells.counter(4, 0),
            registry: Some(registry.clone()),
            replay_gauges: Vec::new(),
        }
    }

    /// Gauge of replay entries tracked under one epoch (`None` when
    /// detached), resolved by name on the epoch's first use and kept
    /// until the epoch retires. Updated with deltas, never `set`, so
    /// per-home registries still fold additively in the fleet merge.
    fn replay_entries(&mut self, epoch: u32) -> Option<&Gauge> {
        let registry = self.registry.as_ref()?;
        let i = match self.replay_gauges.iter().position(|(e, _)| *e == epoch) {
            Some(i) => i,
            None => {
                let gauge = registry.gauge(REPLAY_ENTRIES, &[("epoch", &epoch.to_string())]);
                self.replay_gauges.push((epoch, gauge));
                self.replay_gauges.len() - 1
            }
        };
        Some(&self.replay_gauges[i].1)
    }
}

/// A [`Server`]'s resumable state, encoded as the `quic` section of a
/// home snapshot (field order is that section's layout).
/// The 1-RTT session key is deliberately absent: sessions do not
/// survive a restore; clients re-handshake. Ticket issuance state and
/// the anti-replay store DO survive, so a restored proxy keeps refusing
/// every 0-RTT packet the original already burned.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServerImage {
    /// Next ticket id to issue.
    pub next_ticket_id: u64,
    /// Epoch new tickets are issued under.
    pub current_epoch: u32,
    /// Epochs strictly below this are retired.
    pub replay_retired_below: u32,
    /// Epochs retired over the store's lifetime.
    pub replay_retired_count: u64,
    /// Live replay epochs, ascending.
    pub replay_epochs: Vec<ReplayEpochImage>,
}

/// Server (IoT proxy) side of the channel.
pub struct Server {
    psk: [u8; 32],
    session: Option<Session>,
    /// The early key of the last ticket whose 0-RTT packet authenticated,
    /// as the client keeps it. A pure function of the PSK, the ticket id
    /// and the epoch, so it is not part of [`ServerImage`].
    early: Option<(SessionTicket, [u8; 32])>,
    next_ticket_id: u64,
    current_epoch: u32,
    replay: ReplayStore,
    telemetry: ServerTelemetry,
}

impl Server {
    /// New server holding the pairing PSK.
    pub fn new(psk: [u8; 32]) -> Self {
        Server {
            psk,
            session: None,
            early: None,
            next_ticket_id: 1,
            current_epoch: 0,
            replay: ReplayStore::new(),
            telemetry: ServerTelemetry::default(),
        }
    }

    /// Report through externally supplied counters (typically
    /// [`ServerTelemetry::registered`] in a shared registry).
    pub fn set_telemetry(&mut self, telemetry: ServerTelemetry) {
        self.telemetry = telemetry;
    }

    /// The server's counters.
    pub fn telemetry(&self) -> &ServerTelemetry {
        &self.telemetry
    }

    /// The anti-replay store, for inspection (e.g. the red-team harness
    /// checking that a replayed (ticket, nonce) pair really was burned).
    pub fn replay_store(&self) -> &ReplayStore {
        &self.replay
    }

    /// The key-lifecycle epoch new tickets are issued under.
    pub fn current_epoch(&self) -> u32 {
        self.current_epoch
    }

    /// The oldest epoch still served; 0-RTT under anything older is
    /// refused with [`QuicError::RetiredEpoch`].
    pub fn oldest_live_epoch(&self) -> u32 {
        self.replay.retired_below()
    }

    /// Advance the key-lifecycle epoch: tickets issued from now on bind
    /// the new epoch's secrets. Previously issued tickets keep working
    /// until their epoch is retired, so rotation alone never breaks
    /// 0-RTT. Returns the new epoch.
    pub fn rotate_epoch(&mut self) -> u32 {
        self.current_epoch += 1;
        self.current_epoch
    }

    /// Retire every epoch strictly below `min_live` (clamped so the
    /// current epoch always stays live), dropping its replay history —
    /// the bounded-memory half of the key lifecycle. Returns the number
    /// of epochs newly retired.
    pub fn retire_epochs_below(&mut self, min_live: u32) -> u32 {
        let (newly, dropped) = self.replay.retire_below(min_live.min(self.current_epoch));
        if newly > 0 {
            self.telemetry.epochs_retired.add(u64::from(newly));
            for (epoch, entries) in dropped {
                if entries > 0 {
                    if let Some(g) = self.telemetry.replay_entries(epoch) {
                        g.add(-(entries as i64));
                    }
                }
            }
            let live = self.replay.retired_below();
            self.telemetry.replay_gauges.retain(|(e, _)| *e >= live);
        }
        newly
    }

    /// The resumable channel state (ticket issuance, epoch, anti-replay
    /// store) for a home snapshot.
    pub fn to_image(&self) -> ServerImage {
        ServerImage {
            next_ticket_id: self.next_ticket_id,
            current_epoch: self.current_epoch,
            ..self.replay.to_image()
        }
    }

    /// Restore channel state from an image. Telemetry is deliberately
    /// untouched: restored replay entries were already counted by the
    /// registry that witnessed them, so re-counting here would double
    /// them in an additive fleet merge. The 1-RTT session (if any) is
    /// dropped; clients re-handshake. The early-key cache is dropped too
    /// and refills on the next authenticated 0-RTT packet.
    pub fn restore_image(&mut self, img: &ServerImage) {
        self.next_ticket_id = img.next_ticket_id;
        self.current_epoch = img.current_epoch;
        self.replay = ReplayStore::from_image(img);
        self.session = None;
        self.early = None;
    }

    /// Accept a ClientHello; returns the ServerHello carrying a fresh
    /// ticket. `server_random` is caller-provided for determinism.
    pub fn accept(&mut self, hello: &ClientHello, server_random: [u8; 32]) -> ServerHello {
        let key = session_key(&self.psk, &hello.client_random, &server_random);
        self.session = Some(Session::new(
            key,
            DIR_SERVER_TO_CLIENT,
            DIR_CLIENT_TO_SERVER,
        ));
        let id = self.next_ticket_id;
        self.next_ticket_id += 1;
        self.telemetry.handshakes.inc();
        ServerHello {
            server_random,
            ticket: SessionTicket {
                id,
                epoch: self.current_epoch,
            },
        }
    }

    /// Open a client-to-server 1-RTT packet.
    pub fn open(&mut self, pkt: &Packet) -> Result<Vec<u8>, QuicError> {
        let out = self
            .session
            .as_mut()
            .ok_or(QuicError::BadState)
            .and_then(|session| session.open(pkt));
        match out {
            Ok(_) => self.telemetry.one_rtt_accepted.inc(),
            Err(_) => self.telemetry.one_rtt_rejected.inc(),
        }
        out
    }

    /// Seal a server-to-client packet.
    pub fn seal(&mut self, data: &[u8]) -> Result<Packet, QuicError> {
        Ok(self.session.as_mut().ok_or(QuicError::BadState)?.seal(data))
    }

    /// Accept a 0-RTT packet: ticket must have been issued by this server
    /// and the (ticket, nonce) pair never seen before.
    pub fn accept_zero_rtt(&mut self, pkt: &ZeroRttPacket) -> Result<Vec<u8>, QuicError> {
        let out = self.accept_zero_rtt_inner(pkt);
        match out {
            Ok(_) => self.telemetry.zero_rtt_accepted.inc(),
            Err(QuicError::Replayed) => self.telemetry.zero_rtt_replayed.inc(),
            Err(QuicError::RetiredEpoch) => self.telemetry.zero_rtt_retired.inc(),
            Err(_) => self.telemetry.zero_rtt_rejected.inc(),
        }
        out
    }

    fn accept_zero_rtt_inner(&mut self, pkt: &ZeroRttPacket) -> Result<Vec<u8>, QuicError> {
        let SessionTicket { id, epoch } = pkt.ticket;
        if id == 0 || id >= self.next_ticket_id || epoch > self.current_epoch {
            return Err(QuicError::UnknownTicket);
        }
        // A retired epoch's whole nonce history is gone: inserting into
        // it would accept a verbatim replay as fresh AND resurrect state
        // the lifecycle just reclaimed. Refuse the epoch wholesale; the
        // client re-handshakes under the current one.
        if self.replay.is_retired(epoch) {
            return Err(QuicError::RetiredEpoch);
        }
        // Open before recording the nonce: ticket ids and nonces are
        // predictable, so recording unauthenticated packets would let a
        // forger burn the genuine client's nonces. A verbatim replay
        // still opens, then hits the store. The early-key cache follows
        // the same rule: only a key that just authenticated is kept.
        let key = match self.early {
            Some((ticket, key)) if ticket == pkt.ticket => key,
            _ => early_key(&ticket_secret(&self.psk, id, epoch)),
        };
        let plaintext = aead::open(
            &key,
            &nonce_bytes(DIR_CLIENT_TO_SERVER, pkt.nonce),
            b"0rtt",
            &pkt.ciphertext,
        )
        .map_err(|_| QuicError::DecryptFailed)?;
        self.early = Some((pkt.ticket, key));
        if !self.replay.check_and_insert_in(epoch, id, pkt.nonce) {
            return Err(QuicError::Replayed);
        }
        if let Some(g) = self.telemetry.replay_entries(epoch) {
            g.add(1);
        }
        Ok(plaintext)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PSK: [u8; 32] = [0x11; 32];

    fn handshake(client: &mut Client, server: &mut Server) {
        let ch = client.start_handshake([1u8; 32]);
        let sh = server.accept(&ch, [2u8; 32]);
        client.finish_handshake(&sh).unwrap();
    }

    #[test]
    fn one_rtt_roundtrip_both_directions() {
        let mut c = Client::new(PSK);
        let mut s = Server::new(PSK);
        handshake(&mut c, &mut s);
        let p = c.seal(b"auth evidence").unwrap();
        assert_eq!(s.open(&p).unwrap(), b"auth evidence");
        let r = s.seal(b"ack").unwrap();
        assert_eq!(c.open(&r).unwrap(), b"ack");
    }

    #[test]
    fn mismatched_psk_fails() {
        let mut c = Client::new(PSK);
        let mut s = Server::new([0x22; 32]);
        handshake(&mut c, &mut s);
        let p = c.seal(b"data").unwrap();
        assert_eq!(s.open(&p), Err(QuicError::DecryptFailed));
    }

    #[test]
    fn zero_rtt_after_ticket() {
        let mut c = Client::new(PSK);
        let mut s = Server::new(PSK);
        assert!(!c.can_zero_rtt());
        handshake(&mut c, &mut s);
        assert!(c.can_zero_rtt());
        let z = c.seal_zero_rtt(b"fast evidence").unwrap();
        assert_eq!(s.accept_zero_rtt(&z).unwrap(), b"fast evidence");
    }

    #[test]
    fn zero_rtt_replay_rejected() {
        let mut c = Client::new(PSK);
        let mut s = Server::new(PSK);
        handshake(&mut c, &mut s);
        let z = c.seal_zero_rtt(b"once only").unwrap();
        assert!(s.accept_zero_rtt(&z).is_ok());
        // Verbatim replay (the §5.3 attack) is caught by the store.
        assert_eq!(s.accept_zero_rtt(&z), Err(QuicError::Replayed));
        // The burned pair is observable through the store accessor.
        assert!(s.replay_store().contains_in(0, z.ticket.id, z.nonce));
        // A fresh 0-RTT packet still works.
        let z2 = c.seal_zero_rtt(b"again").unwrap();
        assert_eq!(s.accept_zero_rtt(&z2).unwrap(), b"again");
    }

    #[test]
    fn forged_zero_rtt_packets_burn_no_nonces() {
        let mut c = Client::new(PSK);
        let mut s = Server::new(PSK);
        handshake(&mut c, &mut s);
        let before = s.replay_store().total_entries();
        // Ticket ids and client nonces both count up from 1, so a forger
        // can aim at the genuine client's next nonces.
        for nonce in 1..=64 {
            let forged = ZeroRttPacket {
                ticket: SessionTicket { id: 1, epoch: 0 },
                nonce,
                ciphertext: Vec::new(),
            };
            assert_eq!(s.accept_zero_rtt(&forged), Err(QuicError::DecryptFailed));
        }
        assert_eq!(s.replay_store().total_entries(), before);
        let z = c.seal_zero_rtt(b"genuine proof").unwrap();
        assert_eq!(s.accept_zero_rtt(&z).unwrap(), b"genuine proof");
        assert_eq!(s.accept_zero_rtt(&z), Err(QuicError::Replayed));
    }

    #[test]
    fn forged_zero_rtt_packets_leave_the_early_key_cache_alone() {
        let mut c = Client::new(PSK);
        let mut s = Server::new(PSK);
        handshake(&mut c, &mut s); // ticket 1
        let mut other = Client::new(PSK);
        handshake(&mut other, &mut s); // ticket 2
        let first = c.seal_zero_rtt(b"first proof").unwrap();
        assert_eq!(s.accept_zero_rtt(&first).unwrap(), b"first proof");
        let cached = s.early;
        assert_eq!(cached.map(|(ticket, _)| ticket), Some(first.ticket));
        let image = s.to_image();

        // A client holding the genuine ticket under another PSK seals with
        // a wrong early key, at the genuine client's next nonces.
        let mut wrong = Client::new([0x22; 32]);
        wrong.start_handshake([9; 32]);
        wrong
            .finish_handshake(&ServerHello {
                server_random: [0; 32],
                ticket: first.ticket,
            })
            .unwrap();
        let mut forged = Vec::new();
        for _ in 0..4 {
            let z = wrong.seal_zero_rtt(b"forged proof").unwrap();
            // The same bytes aimed at the other valid ticket id.
            let mut retargeted = z.clone();
            retargeted.ticket.id = 2;
            forged.extend([z, retargeted]);
        }
        // The genuine ciphertext replayed at the genuine ticket's next
        // nonces, and under the other ticket.
        for nonce in 2..=5 {
            forged.push(ZeroRttPacket {
                nonce,
                ..first.clone()
            });
        }
        let mut moved = first.clone();
        moved.ticket.id = 2;
        forged.push(moved);
        for z in &forged {
            assert_eq!(s.accept_zero_rtt(z), Err(QuicError::DecryptFailed));
            assert_eq!(s.early, cached, "{z:?}");
            assert_eq!(s.to_image(), image, "{z:?}");
        }

        // The genuine client's next packets still open over 0-RTT, on the
        // cached key and on a rebuilt server's cold one alike.
        let genuine: Vec<_> = (0..3)
            .map(|i| c.seal_zero_rtt(&[b'p', i]).unwrap())
            .collect();
        let mut rebuilt = Server::new(PSK);
        rebuilt.restore_image(&image);
        assert_eq!(rebuilt.early, None);
        for z in &genuine {
            let plaintext = s.accept_zero_rtt(z).unwrap();
            assert_eq!(rebuilt.accept_zero_rtt(z).unwrap(), plaintext);
        }
        assert_eq!(s.to_image(), rebuilt.to_image());
        assert_eq!(rebuilt.accept_zero_rtt(&first), Err(QuicError::Replayed));
        for z in &forged {
            assert_eq!(rebuilt.accept_zero_rtt(z), Err(QuicError::DecryptFailed));
        }

        // A genuine packet under the other ticket takes the cache over;
        // the first ticket then derives its key afresh.
        let z = other.seal_zero_rtt(b"other phone").unwrap();
        assert_eq!(s.accept_zero_rtt(&z).unwrap(), b"other phone");
        assert_eq!(s.early.map(|(ticket, _)| ticket), Some(z.ticket));
        let z = c.seal_zero_rtt(b"back again").unwrap();
        assert_eq!(s.accept_zero_rtt(&z).unwrap(), b"back again");
        assert_eq!(s.early, cached);
    }

    #[test]
    fn unknown_ticket_rejected() {
        let mut c = Client::new(PSK);
        let mut s = Server::new(PSK);
        handshake(&mut c, &mut s);
        let mut z = c.seal_zero_rtt(b"x").unwrap();
        z.ticket.id = 999;
        assert_eq!(s.accept_zero_rtt(&z), Err(QuicError::UnknownTicket));
    }

    #[test]
    fn tampered_packet_rejected() {
        let mut c = Client::new(PSK);
        let mut s = Server::new(PSK);
        handshake(&mut c, &mut s);
        let mut p = c.seal(b"data").unwrap();
        let n = p.ciphertext.len();
        p.ciphertext[n - 1] ^= 1;
        assert_eq!(s.open(&p), Err(QuicError::DecryptFailed));
    }

    #[test]
    fn stale_packet_number_rejected() {
        let mut c = Client::new(PSK);
        let mut s = Server::new(PSK);
        handshake(&mut c, &mut s);
        let p1 = c.seal(b"one").unwrap();
        let p2 = c.seal(b"two").unwrap();
        assert!(s.open(&p2).is_ok());
        // Old packet replayed at 1-RTT level.
        assert_eq!(s.open(&p1), Err(QuicError::StalePacketNumber));
    }

    #[test]
    fn send_before_handshake_fails() {
        let mut c = Client::new(PSK);
        assert_eq!(c.seal(b"x").unwrap_err(), QuicError::BadState);
        assert_eq!(c.seal_zero_rtt(b"x").unwrap_err(), QuicError::BadState);
    }

    #[test]
    fn direction_binding_prevents_reflection() {
        let mut c = Client::new(PSK);
        let mut s = Server::new(PSK);
        handshake(&mut c, &mut s);
        // A client packet reflected back to the client must not decrypt.
        let p = c.seal(b"secret").unwrap();
        assert_eq!(c.open(&p), Err(QuicError::DecryptFailed));
    }

    #[test]
    fn server_telemetry_counts_every_path() {
        let registry = MetricRegistry::new();
        let mut c = Client::new(PSK);
        let mut s = Server::new(PSK);
        s.set_telemetry(ServerTelemetry::registered(&registry));
        handshake(&mut c, &mut s);
        assert_eq!(s.telemetry().handshakes.get(), 1);

        let p = c.seal(b"data").unwrap();
        assert!(s.open(&p).is_ok());
        assert_eq!(s.open(&p), Err(QuicError::StalePacketNumber));
        assert_eq!(s.telemetry().one_rtt_accepted.get(), 1);
        assert_eq!(s.telemetry().one_rtt_rejected.get(), 1);

        let z = c.seal_zero_rtt(b"early").unwrap();
        assert!(s.accept_zero_rtt(&z).is_ok());
        assert_eq!(s.accept_zero_rtt(&z), Err(QuicError::Replayed));
        let mut bad = c.seal_zero_rtt(b"x").unwrap();
        bad.ticket.id = 999;
        assert_eq!(s.accept_zero_rtt(&bad), Err(QuicError::UnknownTicket));
        assert_eq!(s.telemetry().zero_rtt_accepted.get(), 1);
        assert_eq!(s.telemetry().zero_rtt_replayed.get(), 1);
        assert_eq!(s.telemetry().zero_rtt_rejected.get(), 1);

        // The registry exposes the same counts.
        let text = registry.render_prometheus();
        assert!(text.contains("fiat_quic_handshakes_total 1"));
        assert!(text.contains("fiat_quic_zero_rtt_total{result=\"replayed\"} 1"));
    }

    #[test]
    fn forget_ticket_disables_zero_rtt_until_rehandshake() {
        let mut c = Client::new(PSK);
        let mut s = Server::new(PSK);
        handshake(&mut c, &mut s);
        assert!(c.can_zero_rtt());
        c.forget_ticket();
        assert!(!c.can_zero_rtt());
        assert_eq!(c.seal_zero_rtt(b"x").unwrap_err(), QuicError::BadState);
        // The 1-RTT session key survives: evidence can still flow.
        let p = c.seal(b"fallback").unwrap();
        assert_eq!(s.open(&p).unwrap(), b"fallback");
        // A new handshake restores 0-RTT under a fresh ticket.
        handshake(&mut c, &mut s);
        let z = c.seal_zero_rtt(b"again").unwrap();
        assert_eq!(s.accept_zero_rtt(&z).unwrap(), b"again");
    }

    #[test]
    fn wrong_psk_handshake_yields_mismatched_keys_everywhere() {
        // Negative path: a handshake "succeeds" structurally with a wrong
        // PSK, but every sealed artifact fails authentication — 1-RTT in
        // both directions and 0-RTT early data alike.
        let mut c = Client::new([0x33; 32]);
        let mut s = Server::new(PSK);
        handshake(&mut c, &mut s);
        let p = c.seal(b"data").unwrap();
        assert_eq!(s.open(&p), Err(QuicError::DecryptFailed));
        let r = s.seal(b"reply").unwrap();
        assert_eq!(c.open(&r), Err(QuicError::DecryptFailed));
        let z = c.seal_zero_rtt(b"early").unwrap();
        assert_eq!(s.accept_zero_rtt(&z), Err(QuicError::DecryptFailed));
    }

    #[test]
    fn open_on_corrupted_or_truncated_packet_fails_cleanly() {
        let mut c = Client::new(PSK);
        let mut s = Server::new(PSK);
        handshake(&mut c, &mut s);
        // Corrupted: flip one ciphertext bit.
        let mut corrupt = c.seal(b"payload bytes").unwrap();
        corrupt.ciphertext[0] ^= 0x80;
        assert_eq!(s.open(&corrupt), Err(QuicError::DecryptFailed));
        // Truncated below the AEAD tag length.
        let mut truncated = c.seal(b"payload bytes").unwrap();
        truncated.ciphertext.truncate(4);
        assert_eq!(s.open(&truncated), Err(QuicError::DecryptFailed));
        // Empty ciphertext is the degenerate truncation.
        let mut empty = c.seal(b"payload bytes").unwrap();
        empty.ciphertext.clear();
        assert_eq!(s.open(&empty), Err(QuicError::DecryptFailed));
        // A failed open must not advance recv_pn: the next intact packet
        // still decrypts.
        let p = c.seal(b"intact").unwrap();
        assert_eq!(s.open(&p).unwrap(), b"intact");
    }

    #[test]
    fn zero_rtt_nonce_reuse_is_replay_only_when_authentic() {
        // Sequence-number reuse on the 0-RTT path: a verbatim replay of an
        // accepted (ticket, nonce) pair opens and is then refused by the
        // replay store; a forgery reusing the pair with other bytes fails
        // the AEAD before it reaches the store.
        let mut c = Client::new(PSK);
        let mut s = Server::new(PSK);
        handshake(&mut c, &mut s);
        let z = c.seal_zero_rtt(b"original").unwrap();
        assert!(s.accept_zero_rtt(&z).is_ok());
        let forged = ZeroRttPacket {
            ticket: z.ticket,
            nonce: z.nonce,
            ciphertext: vec![0xAA; 48],
        };
        assert_eq!(s.accept_zero_rtt(&forged), Err(QuicError::DecryptFailed));
        assert_eq!(s.accept_zero_rtt(&z), Err(QuicError::Replayed));
        // 1-RTT sequence reuse is the analogous exact variant.
        let p1 = c.seal(b"one").unwrap();
        assert!(s.open(&p1).is_ok());
        let reused = Packet {
            number: p1.number,
            ciphertext: c.seal(b"two").unwrap().ciphertext,
        };
        assert_eq!(s.open(&reused), Err(QuicError::StalePacketNumber));
    }

    #[test]
    fn tickets_are_per_connection_and_increasing() {
        let mut s = Server::new(PSK);
        let t1 = s
            .accept(
                &ClientHello {
                    client_random: [0; 32],
                },
                [1; 32],
            )
            .ticket;
        let t2 = s
            .accept(
                &ClientHello {
                    client_random: [0; 32],
                },
                [1; 32],
            )
            .ticket;
        assert!(t2.id > t1.id);
        assert_eq!(t1.epoch, 0);
        assert_eq!(t2.epoch, 0);
    }

    // ---- ticket-epoch key lifecycle ------------------------------------

    #[test]
    fn rotation_alone_keeps_old_epoch_tickets_working() {
        let mut c = Client::new(PSK);
        let mut s = Server::new(PSK);
        handshake(&mut c, &mut s); // epoch-0 ticket
        assert_eq!(s.rotate_epoch(), 1);
        assert_eq!(s.current_epoch(), 1);
        // The old ticket's epoch is still live: 0-RTT keeps working
        // across the rotation (no flag day), replay protection included.
        let z = c.seal_zero_rtt(b"pre-rotation ticket").unwrap();
        assert_eq!(s.accept_zero_rtt(&z).unwrap(), b"pre-rotation ticket");
        assert_eq!(s.accept_zero_rtt(&z), Err(QuicError::Replayed));
        // New handshakes issue epoch-1 tickets.
        let mut c2 = Client::new(PSK);
        handshake(&mut c2, &mut s);
        let z2 = c2.seal_zero_rtt(b"new epoch").unwrap();
        assert_eq!(z2.ticket.epoch, 1);
        assert_eq!(s.accept_zero_rtt(&z2).unwrap(), b"new epoch");
    }

    #[test]
    fn replay_across_epoch_retirement_is_rejected() {
        // The stale-epoch-replay attack: sniff an accepted 0-RTT proof,
        // wait for the lifecycle to rotate and retire its epoch (which
        // drops the epoch's nonce history wholesale), replay it. Without
        // the retired-epoch check the replay would pass the replay store
        // as fresh.
        let mut c = Client::new(PSK);
        let mut s = Server::new(PSK);
        handshake(&mut c, &mut s); // epoch-0 ticket
        let sniffed = c.seal_zero_rtt(b"proof").unwrap();
        assert!(s.accept_zero_rtt(&sniffed).is_ok());

        s.rotate_epoch();
        assert_eq!(s.retire_epochs_below(1), 1);
        assert_eq!(s.oldest_live_epoch(), 1);

        // The replayed proof — and any fresh early data under the dead
        // epoch — is refused; the client's recovery is a re-handshake.
        assert_eq!(s.accept_zero_rtt(&sniffed), Err(QuicError::RetiredEpoch));
        let fresh = c.seal_zero_rtt(b"fresh but dead epoch").unwrap();
        assert_eq!(s.accept_zero_rtt(&fresh), Err(QuicError::RetiredEpoch));

        c.forget_ticket();
        handshake(&mut c, &mut s); // epoch-1 ticket
        let z = c.seal_zero_rtt(b"recovered").unwrap();
        assert_eq!(s.accept_zero_rtt(&z).unwrap(), b"recovered");
        assert_eq!(s.accept_zero_rtt(&z), Err(QuicError::Replayed));
    }

    #[test]
    fn retirement_never_outruns_the_current_epoch() {
        let mut s = Server::new(PSK);
        s.rotate_epoch(); // epoch 1
        assert_eq!(s.retire_epochs_below(99), 1, "clamped to current epoch");
        assert_eq!(s.oldest_live_epoch(), 1);
        let mut c = Client::new(PSK);
        handshake(&mut c, &mut s);
        let z = c.seal_zero_rtt(b"current epoch survives").unwrap();
        assert!(s.accept_zero_rtt(&z).is_ok());
        // Idempotent.
        assert_eq!(s.retire_epochs_below(1), 0);
    }

    #[test]
    fn future_epoch_tickets_are_unknown() {
        let mut c = Client::new(PSK);
        let mut s = Server::new(PSK);
        handshake(&mut c, &mut s);
        let mut z = c.seal_zero_rtt(b"x").unwrap();
        z.ticket.epoch = 7; // forged: the server never issued epoch 7
        assert_eq!(s.accept_zero_rtt(&z), Err(QuicError::UnknownTicket));
    }

    #[test]
    fn replay_gauges_track_live_entries_per_epoch() {
        let registry = MetricRegistry::new();
        let mut s = Server::new(PSK);
        s.set_telemetry(ServerTelemetry::registered(&registry));
        let check = |s: &Server| {
            for epoch in 0..=s.current_epoch() {
                let gauge = registry.gauge(REPLAY_ENTRIES, &[("epoch", &epoch.to_string())]);
                let live = s.replay_store().entries_in(epoch) as i64;
                assert_eq!(gauge.get(), live, "epoch {epoch}");
            }
            let oldest = s.oldest_live_epoch();
            assert!(s
                .telemetry()
                .replay_gauges
                .iter()
                .all(|(e, _)| *e >= oldest));
        };
        let mut clients = Vec::new();
        for round in 0..4u8 {
            for _ in 0..3 {
                let mut c = Client::new(PSK);
                handshake(&mut c, &mut s);
                clients.push(c);
            }
            for c in &mut clients {
                for msg in [[round].as_ref(), b"again".as_ref()] {
                    let _ = s.accept_zero_rtt(&c.seal_zero_rtt(msg).unwrap());
                }
            }
            check(&s);
            s.rotate_epoch();
            if round >= 1 {
                assert_eq!(s.retire_epochs_below(u32::from(round)), 1);
            }
            check(&s);
        }
        assert_eq!(s.telemetry().replay_gauges.len(), 1);
    }

    #[test]
    fn epoch_telemetry_tracks_entries_and_retirements() {
        let registry = MetricRegistry::new();
        let mut s = Server::new(PSK);
        s.set_telemetry(ServerTelemetry::registered(&registry));
        let mut c = Client::new(PSK);
        handshake(&mut c, &mut s);
        for msg in [b"a".as_ref(), b"b".as_ref()] {
            assert!(s.accept_zero_rtt(&c.seal_zero_rtt(msg).unwrap()).is_ok());
        }
        s.rotate_epoch();
        let mut c2 = Client::new(PSK);
        handshake(&mut c2, &mut s);
        assert!(s.accept_zero_rtt(&c2.seal_zero_rtt(b"c").unwrap()).is_ok());

        let text = registry.render_prometheus();
        assert!(
            text.contains("fiat_quic_replay_entries{epoch=\"0\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("fiat_quic_replay_entries{epoch=\"1\"} 1"),
            "{text}"
        );

        // Retiring epoch 0 settles its gauge back to zero and counts the
        // retirement; the refused replay shows up under its own result.
        let stale = c.seal_zero_rtt(b"late").unwrap();
        assert_eq!(s.retire_epochs_below(1), 1);
        assert_eq!(s.accept_zero_rtt(&stale), Err(QuicError::RetiredEpoch));
        let text = registry.render_prometheus();
        assert!(
            text.contains("fiat_quic_replay_entries{epoch=\"0\"} 0"),
            "{text}"
        );
        assert!(text.contains("fiat_quic_epochs_retired_total 1"), "{text}");
        assert!(
            text.contains("fiat_quic_zero_rtt_total{result=\"retired_epoch\"} 1"),
            "{text}"
        );
        assert_eq!(s.telemetry().zero_rtt_retired.get(), 1);
    }

    #[test]
    fn server_image_round_trip_preserves_replay_and_issuance() {
        let mut c = Client::new(PSK);
        let mut s = Server::new(PSK);
        handshake(&mut c, &mut s);
        let z = c.seal_zero_rtt(b"burned").unwrap();
        assert!(s.accept_zero_rtt(&z).is_ok());
        s.rotate_epoch();
        let img = s.to_image();

        let mut restored = Server::new(PSK);
        restored.restore_image(&img);
        assert_eq!(restored.current_epoch(), 1);
        assert_eq!(restored.to_image(), img);
        // The burned (ticket, nonce) pair stays burned after restore.
        assert_eq!(restored.accept_zero_rtt(&z), Err(QuicError::Replayed));
        // Ticket issuance continues where it left off (no id reuse).
        let t = restored
            .accept(
                &ClientHello {
                    client_random: [0; 32],
                },
                [1; 32],
            )
            .ticket;
        assert_eq!(t.id, 2);
        assert_eq!(t.epoch, 1);
    }

    #[test]
    fn restore_drops_the_one_rtt_session() {
        let mut c = Client::new(PSK);
        let mut s = Server::new(PSK);
        handshake(&mut c, &mut s);
        let before = c.seal(b"pre-snapshot").unwrap();
        let img = s.to_image();

        // Restoring over the live server drops its session: a packet
        // sealed under the pre-snapshot session is refused before any
        // AEAD work, and so is sealing.
        s.restore_image(&img);
        assert_eq!(s.open(&before), Err(QuicError::BadState));
        assert_eq!(s.seal(b"reply").unwrap_err(), QuicError::BadState);

        // A fresh handshake brings 1-RTT back in both directions.
        handshake(&mut c, &mut s);
        let p = c.seal(b"post-restore").unwrap();
        assert_eq!(s.open(&p).unwrap(), b"post-restore");
        let r = s.seal(b"ack").unwrap();
        assert_eq!(c.open(&r).unwrap(), b"ack");
    }
}
