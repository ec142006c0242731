//! A sans-IO QUIC endpoint built for measuring ECN support.
//!
//! This crate is the reproduction of the paper's primary methodological
//! contribution: a QUIC client that
//!
//! * sets ECN codepoints on its outgoing packets ("uses" ECN),
//! * counts the codepoints it receives,
//! * reads the ECN counters mirrored back by the server in `ACK_ECN` frames,
//! * and runs the RFC 9000 §13.4.2 **ECN validation** algorithm (Figure 1 of
//!   the paper) to decide whether ECN can actually be used on the path —
//!   with the paper's reduced budget of 5 testing packets and 2 timeouts
//!   (§4.1/§4.4) or the RFC defaults.
//!
//! It also contains a QUIC **server** whose ECN behaviour is configurable via
//! [`behavior::ServerBehavior`] so that the deployed stacks the paper
//! encounters in the wild (LiteSpeed lsquic, Google quiche, Cloudflare
//! quiche, Amazon s2n-quic, …) can be modelled faithfully, including their
//! bugs (undercounting after the handshake, mirroring `ECT(0)` arrivals in
//! the `ECT(1)` counter, not mirroring at all).
//!
//! Both endpoints follow the quinn-proto style sans-IO interface:
//! [`handle_datagram`](client::ClientConnection::handle_datagram),
//! [`poll_transmit`](client::ClientConnection::poll_transmit),
//! [`poll_timeout`](client::ClientConnection::poll_timeout) and
//! [`handle_timeout`](client::ClientConnection::handle_timeout); the
//! [`driver`] module couples a client, a server and a
//! [`DuplexPath`](qem_netsim::DuplexPath) into a complete simulated
//! connection.
//!
//! Cryptography (TLS, header protection, AEAD) is intentionally not
//! implemented — see `DESIGN.md` for the substitution argument.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod app;
pub mod behavior;
pub mod client;
pub mod driver;
pub mod ecn;
pub mod handshake;
pub mod http;
pub mod outbox;
pub mod server;
pub mod spaces;
pub mod transport_params;

pub use app::{AppChunk, AppDataSource, BulkObject, FrameSource, StreamPacketizer};
pub use behavior::{EcnMirroringBehavior, ServerBehavior, Versions};
pub use client::{ClientConfig, ClientConnection, ClientEcnMode, ClientReport};
pub use driver::{
    ConnectionOutcome, ConnectionRun, DriverConfig, QuicFlow, QuicScratch, RunOutcome,
};
pub use ecn::{EcnConfig, EcnValidationFailure, EcnValidationState, EcnValidator};
/// The type of [`ClientReport::version`], for crates that read reports
/// without depending on `qem-packet` themselves.
pub use qem_packet::quic::QuicVersion;
pub use server::ServerConnection;
pub use transport_params::TransportParameters;

/// Connection-ID length used by every endpoint in this reproduction.
pub const CID_LEN: usize = 8;
