//! In-process transport over `std::sync::mpsc` channels.
//!
//! Messages are serialized through the binary codec on send and decoded
//! on receive, so the wire format is exercised even in-process (the
//! cluster integration tests rely on this).

use std::collections::VecDeque;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::Duration;

use bytes::{Bytes, BytesMut};
use parking_lot::Mutex;

use miniraid_core::ids::SiteId;
use miniraid_core::messages::Message;

use crate::transport::{Mailbox, RecvError, Transport};
use crate::{codec, NetError};

type Frame = (SiteId, Bytes); // (from, payload: single message or MsgBatch)

/// A fully connected in-process network of `n` endpoints.
pub struct ChannelNetwork;

impl ChannelNetwork {
    /// Build `n` endpoints; endpoint `i` is for site `i`.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(n: usize) -> Vec<(ChannelTransport, ChannelMailbox)> {
        let mut senders: Vec<Sender<Frame>> = Vec::with_capacity(n);
        let mut receivers: Vec<Receiver<Frame>> = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = channel();
            senders.push(tx);
            receivers.push(rx);
        }
        receivers
            .into_iter()
            .enumerate()
            .map(|(i, rx)| {
                (
                    ChannelTransport {
                        local: SiteId(i as u8),
                        peers: senders.clone(),
                        scratch: Arc::new(Mutex::new(BytesMut::with_capacity(256))),
                    },
                    ChannelMailbox {
                        rx,
                        pending: Mutex::new(VecDeque::new()),
                    },
                )
            })
            .collect()
    }
}

/// Sending half of a channel endpoint.
#[derive(Clone)]
pub struct ChannelTransport {
    local: SiteId,
    peers: Vec<Sender<Frame>>,
    /// Reused encode buffer: one allocation per frame (the channel
    /// payload) instead of per-message scratch churn.
    scratch: Arc<Mutex<BytesMut>>,
}

impl ChannelTransport {
    fn deliver(&self, to: SiteId, payload: Bytes) -> Result<(), NetError> {
        let tx = self
            .peers
            .get(to.index())
            .ok_or(NetError::UnknownSite(to))?;
        // A receiver dropped means that site's process is gone; the
        // paper's model treats that as a (detectable) site failure, not a
        // sender error.
        let _ = tx.send((self.local, payload));
        Ok(())
    }
}

impl Transport for ChannelTransport {
    fn send(&self, to: SiteId, msg: &Message) -> Result<(), NetError> {
        let payload = {
            let mut scratch = self.scratch.lock();
            scratch.clear();
            codec::encode_into(&mut scratch, msg);
            Bytes::copy_from_slice(&scratch)
        };
        self.deliver(to, payload)
    }

    fn send_batch(&self, to: SiteId, msgs: &[Message]) -> Result<(), NetError> {
        match msgs {
            [] => Ok(()),
            [msg] => self.send(to, msg),
            msgs => {
                let payload = {
                    let mut scratch = self.scratch.lock();
                    scratch.clear();
                    codec::encode_batch_into(&mut scratch, msgs);
                    Bytes::copy_from_slice(&scratch)
                };
                self.deliver(to, payload)
            }
        }
    }

    fn local_id(&self) -> SiteId {
        self.local
    }
}

/// Receiving half of a channel endpoint.
pub struct ChannelMailbox {
    rx: Receiver<Frame>,
    /// Messages decoded from a batch frame beyond the first, handed out
    /// by subsequent receives (preserving per-sender FIFO order).
    pending: Mutex<VecDeque<(SiteId, Message)>>,
}

impl Mailbox for ChannelMailbox {
    fn recv_timeout(&self, timeout: Duration) -> Result<(SiteId, Message), RecvError> {
        if let Some(first) = self.pending.lock().pop_front() {
            return Ok(first);
        }
        match self.rx.recv_timeout(timeout) {
            Ok((from, payload)) => {
                let msgs = codec::decode_many(&payload).map_err(|_| RecvError::Disconnected)?;
                let mut iter = msgs.into_iter();
                let first = iter.next().ok_or(RecvError::Disconnected)?;
                let mut pending = self.pending.lock();
                for msg in iter {
                    pending.push_back((from, msg));
                }
                Ok((from, first))
            }
            Err(RecvTimeoutError::Timeout) => Err(RecvError::Timeout),
            Err(RecvTimeoutError::Disconnected) => Err(RecvError::Disconnected),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use miniraid_core::ids::TxnId;

    #[test]
    fn messages_flow_between_endpoints() {
        let mut endpoints = ChannelNetwork::new(3);
        let (t2, _m2) = endpoints.pop().unwrap();
        let (_t1, m1) = endpoints.pop().unwrap();
        let (_t0, m0) = endpoints.pop().unwrap();
        t2.send(SiteId(0), &Message::Commit { txn: TxnId(9) })
            .unwrap();
        let (from, msg) = m0.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(from, SiteId(2));
        assert_eq!(msg, Message::Commit { txn: TxnId(9) });
        assert_eq!(
            m1.recv_timeout(Duration::from_millis(10)),
            Err(RecvError::Timeout)
        );
    }

    #[test]
    fn per_sender_fifo_order() {
        let mut endpoints = ChannelNetwork::new(2);
        let (_t1, m1) = endpoints.pop().unwrap();
        let (t0, _m0) = endpoints.pop().unwrap();
        for i in 0..100u64 {
            t0.send(SiteId(1), &Message::Commit { txn: TxnId(i) })
                .unwrap();
        }
        for i in 0..100u64 {
            let (_, msg) = m1.recv_timeout(Duration::from_secs(1)).unwrap();
            assert_eq!(msg, Message::Commit { txn: TxnId(i) });
        }
    }

    #[test]
    fn unknown_destination_is_an_error() {
        let mut endpoints = ChannelNetwork::new(1);
        let (t0, _m0) = endpoints.pop().unwrap();
        assert!(matches!(
            t0.send(SiteId(5), &Message::Commit { txn: TxnId(0) }),
            Err(NetError::UnknownSite(SiteId(5)))
        ));
    }

    #[test]
    fn dropped_receiver_does_not_error_sender() {
        let mut endpoints = ChannelNetwork::new(2);
        let (_t1, m1) = endpoints.pop().unwrap();
        let (t0, _m0) = endpoints.pop().unwrap();
        drop(m1);
        assert!(t0
            .send(SiteId(1), &Message::Commit { txn: TxnId(0) })
            .is_ok());
    }
}
