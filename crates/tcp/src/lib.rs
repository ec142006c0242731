//! A minimal TCP endpoint pair with RFC 3168 ECN support.
//!
//! The paper compares ECN support via QUIC against ECN support via TCP for
//! the same domains (§4.1, §6.3, Figure 6).  Its TCP instrumentation consists
//! of three pieces, all reproduced here:
//!
//! * Linux's `tcpinfo`, from which the scanner reads whether ECN was
//!   *negotiated* (the ECN-setup SYN / SYN-ACK exchange succeeded) —
//!   [`TcpReport::negotiated`];
//! * an eBPF program counting the ECN codepoints seen on incoming segments —
//!   [`TcpReport::received_ecn`] and [`TcpReport::server_observed_ecn`];
//! * the TCP flags of the segments themselves, showing whether a `CE` mark
//!   was echoed back via the `ECE` flag — [`TcpReport::ce_mirrored`].
//!
//! The implementation is a compact, deterministic connection simulation (not
//! a full retransmitting TCP): the paper's TCP findings depend only on the
//! handshake flags and the ECE echo, both of which are faithfully modelled,
//! including the CWR handshake that clears the echo.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod app;
pub mod behavior;
pub mod connection;

pub use app::SegmentPacketizer;
pub use behavior::TcpServerBehavior;
pub use connection::{TcpClientConfig, TcpConnectionRun, TcpFlow, TcpReport};
