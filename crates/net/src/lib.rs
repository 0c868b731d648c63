//! # miniraid-net — reliable ordered message passing
//!
//! The communication substrate the paper assumes (§1.2, assumption 1):
//! "a reliable message passing facility: no messages were lost; messages
//! arrived and were processed in the order that they were sent; and no
//! errors in transmission altered the messages."
//!
//! Provides:
//! * a binary wire [`codec`] for every protocol message,
//! * an in-process [`channel`] transport (`std::sync::mpsc` channels, one Unix
//!   process — exactly the paper's mini-RAID deployment shape),
//! * a [`tcp`] transport over `std::net` for multi-process deployments,
//!   whose mailbox waits on its own sockets (one `ppoll`, declared in the
//!   crate's one foreign-call module),
//! * a [`delay`] decorator injecting a fixed per-message latency (the
//!   paper measured 9 ms per intersite communication),
//! * a [`fault`] decorator injecting seeded drop/duplicate/delay/
//!   partition faults for robustness testing,
//! * a [`reliable`] session layer (sequence numbers, cumulative acks,
//!   retransmission, dedup/reorder buffering) that *earns* the paper's
//!   reliability assumption over a lossy substrate.

#![warn(missing_docs)]

pub mod channel;
pub mod codec;
pub mod delay;
pub mod fault;
mod ppoll;
pub mod reliable;
pub mod tcp;
pub mod transport;

pub use channel::{ChannelMailbox, ChannelNetwork, ChannelTransport};
pub use delay::DelayTransport;
pub use fault::{FaultControl, FaultCounts, FaultPlan, FaultTransport};
pub use reliable::{reliable, ReliableConfig, ReliableMailbox, ReliableTransport};
pub use tcp::{AddressPlan, TcpEndpoint, TcpMailbox, TcpTransport};
pub use transport::{Mailbox, RecvError, Transport, TransportStats};

use miniraid_core::ids::SiteId;

/// Errors surfaced by the network layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// Destination outside the configured site set.
    UnknownSite(SiteId),
    /// A malformed frame or payload.
    Codec(&'static str),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::UnknownSite(site) => write!(f, "unknown destination {site}"),
            NetError::Codec(reason) => write!(f, "codec error: {reason}"),
        }
    }
}

impl std::error::Error for NetError {}
