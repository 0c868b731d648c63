//! Transport abstractions.
//!
//! The paper assumes "a reliable message passing facility: no messages
//! were lost; messages arrived and were processed in the order that they
//! were sent; and no errors in transmission altered the messages."
//! Both provided transports give per-sender FIFO, no-loss, no-corruption
//! delivery: [`crate::channel::ChannelNetwork`] in process, and
//! [`crate::tcp::TcpEndpoint`] across processes.

use std::time::Duration;

use miniraid_core::ids::SiteId;
use miniraid_core::messages::Message;

use crate::NetError;

/// The sending half owned by one site.
pub trait Transport: Send {
    /// Send `msg` to `to`. Returns an error only for local failures
    /// (unknown destination, closed network) — a crashed remote is
    /// indistinguishable from a slow one, as in any real network.
    fn send(&self, to: SiteId, msg: &Message) -> Result<(), NetError>;

    /// Send several messages to `to` at once. Transports that frame
    /// their wire traffic override this to coalesce the batch into a
    /// single `MsgBatch` frame (one syscall / one channel operation per
    /// peer per engine step); the default just sends them in order.
    fn send_batch(&self, to: SiteId, msgs: &[Message]) -> Result<(), NetError> {
        for msg in msgs {
            self.send(to, msg)?;
        }
        Ok(())
    }

    /// This endpoint's own site id.
    fn local_id(&self) -> SiteId;

    /// Cumulative robustness counters for this transport stack.
    /// Decorators add their own contribution to the wrapped transport's;
    /// plain transports report zeros.
    fn stats(&self) -> TransportStats {
        TransportStats::default()
    }
}

/// Cumulative counters exposed by a transport stack (see
/// [`Transport::stats`]). Decorators sum their own counts with the
/// wrapped transport's, so the top of the stack reports the whole story.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Sequenced frames retransmitted by the reliable session layer.
    pub retransmits: u64,
    /// Duplicate or stale sequenced frames dropped before delivery.
    pub dup_drops: u64,
    /// TCP reconnect attempts after a peer connection died.
    pub reconnects: u64,
    /// Times the TCP mailbox's `ppoll` returned with a socket ready.
    pub tcp_wakeups: u64,
    /// `read` calls the TCP mailbox made on accepted connections.
    pub tcp_reads: u64,
    /// Messages the TCP mailbox decoded; over `tcp_wakeups`, the
    /// batching one wake-up buys.
    pub tcp_msgs_in: u64,
}

impl TransportStats {
    /// Component-wise sum (decorator's own counts + inner transport's).
    pub fn merge(self, other: TransportStats) -> TransportStats {
        TransportStats {
            retransmits: self.retransmits + other.retransmits,
            dup_drops: self.dup_drops + other.dup_drops,
            reconnects: self.reconnects + other.reconnects,
            tcp_wakeups: self.tcp_wakeups + other.tcp_wakeups,
            tcp_reads: self.tcp_reads + other.tcp_reads,
            tcp_msgs_in: self.tcp_msgs_in + other.tcp_msgs_in,
        }
    }
}

/// The receiving half owned by one site.
pub trait Mailbox: Send {
    /// Block up to `timeout` for the next message.
    fn recv_timeout(&self, timeout: Duration) -> Result<(SiteId, Message), RecvError>;

    /// Non-blocking receive: the next already-delivered message, if any.
    /// Site loops use this to drain their whole mailbox per iteration.
    fn try_recv(&self) -> Result<(SiteId, Message), RecvError> {
        self.recv_timeout(Duration::from_millis(0))
    }
}

/// Receive failure modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvError {
    /// Nothing arrived within the timeout.
    Timeout,
    /// The network was shut down; no further messages will arrive.
    Disconnected,
}

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecvError::Timeout => f.write_str("receive timed out"),
            RecvError::Disconnected => f.write_str("network disconnected"),
        }
    }
}

impl std::error::Error for RecvError {}
