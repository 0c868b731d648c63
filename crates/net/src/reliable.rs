//! Reliable session layer: a [`Transport`]/[`Mailbox`] decorator pair
//! that earns the paper's "reliable, ordered message passing" assumption
//! over a lossy substrate.
//!
//! Sender side: every non-management message gets a per-peer monotonic
//! sequence number (wrapped in [`Message::Seq`]) and is kept until the
//! peer's cumulative acknowledgement covers it; a pump thread retransmits
//! all unacked frames of a link with jittered exponential backoff.
//!
//! Receiver side: sequenced frames are delivered exactly once and in
//! order — duplicates and stale epochs are dropped, gaps are buffered in
//! a reorder window until the missing frame arrives. Each received
//! sequenced frame is answered with a cumulative [`Message::SeqAck`]
//! (acks are themselves unsequenced: a lost ack is repaired by the ack of
//! the next retransmission).
//!
//! Epochs disambiguate restarts in both directions. A restarted *sender*
//! picks a higher epoch, so the peer resets its receive state instead of
//! discarding the new sequence space as duplicates. A restarted
//! *receiver* is detected through the acks: every [`Message::SeqAck`]
//! carries the receiver's own epoch, and a sender that sees it change
//! renumbers its unacked frames from 1 under a bumped link epoch — the
//! fresh receive state expects numbering from 1, and without the reset
//! the link would deadlock waiting for sequence numbers that already
//! went by.
//!
//! Management-plane traffic bypasses sequencing entirely — the managing
//! site is out-of-band and its transports don't speak this protocol.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use parking_lot::{Condvar, Mutex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use miniraid_core::ids::SiteId;
use miniraid_core::messages::{is_management, Message};

use crate::transport::{Mailbox, RecvError, Transport, TransportStats};
use crate::NetError;

/// Tuning for the reliable session layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReliableConfig {
    /// First retransmission timeout of a link (doubles per retry).
    pub initial_rto: Duration,
    /// Backoff ceiling.
    pub max_rto: Duration,
    /// Sender epoch; must be strictly greater after a process restart.
    /// `None` derives one from the wall clock (microseconds since the
    /// Unix epoch), which restarts strictly later than the previous run.
    pub epoch: Option<u64>,
}

impl Default for ReliableConfig {
    fn default() -> Self {
        ReliableConfig {
            initial_rto: Duration::from_millis(30),
            max_rto: Duration::from_millis(400),
            epoch: None,
        }
    }
}

struct SendLink {
    /// This link's sending epoch. Starts at the transport's epoch and is
    /// bumped when the *peer* restarts: the peer's fresh receive state
    /// expects numbering from 1, so the link renumbers its unacked
    /// frames under a new epoch (which also tells the peer to discard
    /// any buffered frames of the old numbering).
    epoch: u64,
    /// Next sequence number to assign (numbering starts at 1).
    next_seq: u64,
    /// Sent but not yet cumulatively acked, oldest first.
    unacked: VecDeque<(u64, Message)>,
    /// The peer's receiver epoch as last reported in its acks; a change
    /// means the peer restarted.
    peer_epoch: Option<u64>,
    rto: Duration,
    /// Next retransmission deadline; `None` while nothing is in flight.
    due: Option<Instant>,
}

impl SendLink {
    fn new(epoch: u64, initial_rto: Duration) -> Self {
        SendLink {
            epoch,
            next_seq: 1,
            unacked: VecDeque::new(),
            peer_epoch: None,
            rto: initial_rto,
            due: None,
        }
    }
}

struct RecvLink {
    /// Sender epoch this receive state belongs to.
    epoch: u64,
    /// Next in-order sequence number to deliver.
    next_expected: u64,
    /// Out-of-order arrivals awaiting the gap fill.
    reorder: BTreeMap<u64, Message>,
}

impl RecvLink {
    fn new(epoch: u64) -> Self {
        RecvLink {
            epoch,
            next_expected: 1,
            reorder: BTreeMap::new(),
        }
    }
}

struct State {
    send: HashMap<SiteId, SendLink>,
    recv: HashMap<SiteId, RecvLink>,
    /// Jitter source for backoff (seeded from the epoch: deterministic
    /// per process, uncorrelated across sites).
    rng: StdRng,
    retransmits: u64,
    dup_drops: u64,
    shutdown: bool,
}

struct Shared<T> {
    inner: T,
    cfg: ReliableConfig,
    epoch: u64,
    local: SiteId,
    state: Mutex<State>,
    cv: Condvar,
}

impl<T: Transport> Shared<T> {
    /// Register `msg` on the link to `to`, returning the wrapped frame.
    fn sequence(&self, to: SiteId, msg: &Message) -> Message {
        let mut st = self.state.lock();
        let initial_rto = self.cfg.initial_rto;
        let epoch = self.epoch;
        let link = st
            .send
            .entry(to)
            .or_insert_with(|| SendLink::new(epoch, initial_rto));
        let seq = link.next_seq;
        link.next_seq += 1;
        link.unacked.push_back((seq, msg.clone()));
        if link.due.is_none() {
            link.due = Some(Instant::now() + link.rto);
            self.cv.notify_one();
        }
        Message::Seq {
            epoch: link.epoch,
            seq,
            inner: Box::new(msg.clone()),
        }
    }

    /// Apply a cumulative ack from `from`. `receiver` is the peer's own
    /// epoch: when it changes, the peer restarted and lost its receive
    /// state, so the link renumbers everything still unacked from 1
    /// under a bumped epoch and retransmits immediately.
    fn on_ack(&self, from: SiteId, epoch: u64, cumulative: u64, receiver: u64) {
        let mut st = self.state.lock();
        let Some(link) = st.send.get_mut(&from) else {
            return;
        };
        if epoch != link.epoch {
            return; // ack for an older incarnation of this link
        }
        if link.peer_epoch.is_some_and(|p| p != receiver) {
            link.epoch += 1;
            link.peer_epoch = Some(receiver);
            let mut seq = 1;
            for (s, _) in link.unacked.iter_mut() {
                *s = seq;
                seq += 1;
            }
            link.next_seq = seq;
            link.rto = self.cfg.initial_rto;
            if link.unacked.is_empty() {
                link.due = None;
            } else {
                link.due = Some(Instant::now());
                self.cv.notify_one();
            }
            return;
        }
        link.peer_epoch = Some(receiver);
        while link
            .unacked
            .front()
            .is_some_and(|(seq, _)| *seq <= cumulative)
        {
            link.unacked.pop_front();
        }
        if link.unacked.is_empty() {
            link.due = None;
            link.rto = self.cfg.initial_rto;
        }
    }

    /// Accept a sequenced frame, appending in-order deliveries to
    /// `ready`. Returns the cumulative ack to send back, if any.
    fn on_seq(
        &self,
        from: SiteId,
        epoch: u64,
        seq: u64,
        inner: Message,
        ready: &mut VecDeque<(SiteId, Message)>,
    ) -> Option<Message> {
        let mut st = self.state.lock();
        let link = st.recv.entry(from).or_insert_with(|| RecvLink::new(epoch));
        if epoch < link.epoch {
            st.dup_drops += 1;
            return None; // frame from before the sender's restart
        }
        if epoch > link.epoch {
            // The sender restarted: its sequence space starts over.
            *link = RecvLink::new(epoch);
        }
        if seq < link.next_expected {
            st.dup_drops += 1; // already delivered; re-ack below
        } else if seq == link.next_expected {
            ready.push_back((from, inner));
            link.next_expected += 1;
            while let Some(msg) = link.reorder.remove(&link.next_expected) {
                ready.push_back((from, msg));
                link.next_expected += 1;
            }
        } else if link.reorder.insert(seq, inner).is_some() {
            st.dup_drops += 1; // duplicate of a buffered out-of-order frame
        }
        let cumulative = st.recv[&from].next_expected - 1;
        Some(Message::SeqAck {
            epoch,
            cumulative,
            receiver: self.epoch,
        })
    }
}

/// Wrap a transport/mailbox pair with the reliable session layer.
///
/// The two halves share retransmission state; keep both alive for the
/// lifetime of the endpoint. `T: Sync` because the inner transport is
/// driven from three places: the caller's sends, the retransmit pump,
/// and the mailbox's acks.
pub fn reliable<T, M>(
    transport: T,
    mailbox: M,
    cfg: ReliableConfig,
) -> (ReliableTransport<T>, ReliableMailbox<T, M>)
where
    T: Transport + Sync + 'static,
    M: Mailbox,
{
    let epoch = cfg.epoch.unwrap_or_else(|| {
        SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(1)
            .max(1)
    });
    let local = transport.local_id();
    let shared = Arc::new(Shared {
        inner: transport,
        cfg,
        epoch,
        local,
        state: Mutex::new(State {
            send: HashMap::new(),
            recv: HashMap::new(),
            rng: StdRng::seed_from_u64(epoch ^ (local.0 as u64) << 56),
            retransmits: 0,
            dup_drops: 0,
            shutdown: false,
        }),
        cv: Condvar::new(),
    });
    spawn_retransmit_pump(Arc::clone(&shared));
    (
        ReliableTransport {
            shared: Arc::clone(&shared),
        },
        ReliableMailbox {
            inner: mailbox,
            shared,
            ready: Mutex::new(VecDeque::new()),
        },
    )
}

fn spawn_retransmit_pump<T: Transport + Sync + 'static>(shared: Arc<Shared<T>>) {
    std::thread::Builder::new()
        .name(format!("miniraid-rexmit-{}", shared.local.0))
        .spawn(move || loop {
            // Collect every link whose retransmission deadline passed,
            // then send outside the lock (the inner transport may block).
            let mut resend: Vec<(SiteId, Vec<Message>)> = Vec::new();
            {
                let mut st = shared.state.lock();
                loop {
                    if st.shutdown {
                        return;
                    }
                    let now = Instant::now();
                    let mut earliest: Option<Instant> = None;
                    // Split the borrow: jitter draws need `rng` while the
                    // links are walked, so take the RNG out for the pass.
                    let mut rng = StdRng::seed_from_u64(st.rng.random());
                    for (&to, link) in st.send.iter_mut() {
                        let Some(due) = link.due else { continue };
                        if due <= now {
                            let frames: Vec<Message> = link
                                .unacked
                                .iter()
                                .map(|(seq, msg)| Message::Seq {
                                    epoch: link.epoch,
                                    seq: *seq,
                                    inner: Box::new(msg.clone()),
                                })
                                .collect();
                            // Jittered exponential backoff: double, cap,
                            // stretch by up to 25%.
                            let doubled = (link.rto * 2).min(shared.cfg.max_rto);
                            let jitter = 1.0 + rng.random::<f64>() * 0.25;
                            link.rto = doubled.mul_f64(jitter).min(shared.cfg.max_rto * 2);
                            let next = now + link.rto;
                            link.due = Some(next);
                            earliest = Some(earliest.map_or(next, |e: Instant| e.min(next)));
                            if !frames.is_empty() {
                                resend.push((to, frames));
                            }
                        } else {
                            earliest = Some(earliest.map_or(due, |e: Instant| e.min(due)));
                        }
                    }
                    if !resend.is_empty() {
                        let n: u64 = resend.iter().map(|(_, f)| f.len() as u64).sum();
                        st.retransmits += n;
                        break;
                    }
                    match earliest {
                        Some(due) => {
                            shared.cv.wait_until(&mut st, due);
                        }
                        None => shared.cv.wait(&mut st),
                    }
                }
            }
            for (to, frames) in resend {
                let _ = shared.inner.send_batch(to, &frames);
            }
        })
        .expect("spawn retransmit pump");
}

/// Sending half of the reliable session layer.
pub struct ReliableTransport<T: Transport + Sync> {
    shared: Arc<Shared<T>>,
}

impl<T: Transport + Sync> Transport for ReliableTransport<T> {
    fn send(&self, to: SiteId, msg: &Message) -> Result<(), NetError> {
        if is_management(msg) {
            return self.shared.inner.send(to, msg);
        }
        let wrapped = self.shared.sequence(to, msg);
        self.shared.inner.send(to, &wrapped)
    }

    fn send_batch(&self, to: SiteId, msgs: &[Message]) -> Result<(), NetError> {
        if msgs.is_empty() {
            return Ok(());
        }
        let wrapped: Vec<Message> = msgs
            .iter()
            .map(|msg| {
                if is_management(msg) {
                    msg.clone()
                } else {
                    self.shared.sequence(to, msg)
                }
            })
            .collect();
        self.shared.inner.send_batch(to, &wrapped)
    }

    fn local_id(&self) -> SiteId {
        self.shared.local
    }

    fn stats(&self) -> TransportStats {
        let st = self.shared.state.lock();
        TransportStats {
            retransmits: st.retransmits,
            dup_drops: st.dup_drops,
            ..TransportStats::default()
        }
        .merge(self.shared.inner.stats())
    }
}

impl<T: Transport + Sync> Drop for ReliableTransport<T> {
    fn drop(&mut self) {
        self.shared.state.lock().shutdown = true;
        self.shared.cv.notify_all();
    }
}

/// Receiving half of the reliable session layer.
pub struct ReliableMailbox<T: Transport + Sync, M: Mailbox> {
    inner: M,
    shared: Arc<Shared<T>>,
    /// In-order messages decoded but not yet handed to the caller.
    ready: Mutex<VecDeque<(SiteId, Message)>>,
}

impl<T: Transport + Sync, M: Mailbox> Mailbox for ReliableMailbox<T, M> {
    fn recv_timeout(&self, timeout: Duration) -> Result<(SiteId, Message), RecvError> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(next) = self.ready.lock().pop_front() {
                return Ok(next);
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            let (from, msg) = self.inner.recv_timeout(remaining)?;
            match msg {
                Message::Seq { epoch, seq, inner } => {
                    let ack = {
                        let mut ready = self.ready.lock();
                        self.shared.on_seq(from, epoch, seq, *inner, &mut ready)
                    };
                    if let Some(ack) = ack {
                        let _ = self.shared.inner.send(from, &ack);
                    }
                }
                Message::SeqAck {
                    epoch,
                    cumulative,
                    receiver,
                } => {
                    self.shared.on_ack(from, epoch, cumulative, receiver);
                }
                // Unsequenced traffic (management plane, or a peer not
                // running the layer) passes straight through.
                other => return Ok((from, other)),
            }
            if remaining.is_zero() {
                // The deadline has passed; only already-buffered messages
                // may still be returned (checked at loop top).
                if self.ready.lock().is_empty() {
                    return Err(RecvError::Timeout);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::ChannelNetwork;
    use crate::fault::{FaultPlan, FaultTransport};
    use miniraid_core::ids::TxnId;
    use miniraid_core::messages::Command;

    fn cfg() -> ReliableConfig {
        ReliableConfig {
            initial_rto: Duration::from_millis(10),
            max_rto: Duration::from_millis(80),
            epoch: Some(7),
        }
    }

    #[test]
    fn lossless_link_is_transparent() {
        let mut endpoints = ChannelNetwork::new(2);
        let (t1, m1) = endpoints.pop().unwrap();
        let (t0, m0) = endpoints.pop().unwrap();
        let (rt0, _rm0) = reliable(t0, m0, cfg());
        let (_rt1, rm1) = reliable(t1, m1, cfg());
        for i in 0..20u64 {
            rt0.send(SiteId(1), &Message::Commit { txn: TxnId(i) })
                .unwrap();
        }
        for i in 0..20u64 {
            let (from, msg) = rm1.recv_timeout(Duration::from_secs(2)).unwrap();
            assert_eq!(from, SiteId(0));
            assert_eq!(msg, Message::Commit { txn: TxnId(i) });
        }
    }

    #[test]
    fn heavy_loss_and_duplication_still_delivers_in_order() {
        let mut endpoints = ChannelNetwork::new(2);
        let (t1, m1) = endpoints.pop().unwrap();
        let (t0, m0) = endpoints.pop().unwrap();
        let plan = FaultPlan {
            seed: 1234,
            drop: 0.3,
            duplicate: 0.2,
            delay: 0.3,
            max_delay: Duration::from_millis(15),
        };
        let (faulty0, _c0) = FaultTransport::new(t0, plan);
        let (faulty1, _c1) = FaultTransport::new(t1, FaultPlan { seed: 4321, ..plan });
        let (rt0, rm0) = reliable(faulty0, m0, cfg());
        let (rt1, rm1) = reliable(faulty1, m1, cfg());
        // Both directions at once: 0 -> 1 data, and 1 -> 0 data, with
        // each side's acks travelling over its own faulty transport.
        for i in 0..60u64 {
            rt0.send(SiteId(1), &Message::Commit { txn: TxnId(i) })
                .unwrap();
            rt1.send(SiteId(0), &Message::CommitAck { txn: TxnId(i) })
                .unwrap();
        }
        for i in 0..60u64 {
            let (_, msg) = rm1.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(msg, Message::Commit { txn: TxnId(i) }, "in order at 1");
            let (_, msg) = rm0.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(msg, Message::CommitAck { txn: TxnId(i) }, "in order at 0");
        }
        let stats = rt0.stats();
        assert!(stats.retransmits > 0, "loss forced retransmissions");
    }

    #[test]
    fn duplicates_are_dropped_not_delivered_twice() {
        let mut endpoints = ChannelNetwork::new(2);
        let (t1, m1) = endpoints.pop().unwrap();
        let (t0, m0) = endpoints.pop().unwrap();
        let plan = FaultPlan {
            seed: 5,
            drop: 0.0,
            duplicate: 1.0, // every frame twice
            delay: 0.0,
            max_delay: Duration::ZERO,
        };
        let (faulty0, _c0) = FaultTransport::new(t0, plan);
        let (rt0, _rm0) = reliable(faulty0, m0, cfg());
        let (_rt1, rm1) = reliable(t1, m1, cfg());
        for i in 0..10u64 {
            rt0.send(SiteId(1), &Message::Commit { txn: TxnId(i) })
                .unwrap();
        }
        for i in 0..10u64 {
            let (_, msg) = rm1.recv_timeout(Duration::from_secs(2)).unwrap();
            assert_eq!(msg, Message::Commit { txn: TxnId(i) });
        }
        assert_eq!(
            rm1.recv_timeout(Duration::from_millis(60)),
            Err(RecvError::Timeout),
            "no duplicate deliveries"
        );
    }

    #[test]
    fn higher_epoch_resets_the_receive_link() {
        let mut endpoints = ChannelNetwork::new(2);
        let (t1, m1) = endpoints.pop().unwrap();
        let (t0, m0) = endpoints.pop().unwrap();
        let (_rt1, rm1) = reliable(t1, m1, cfg());
        // First incarnation sends seq 1..=3 in epoch 7.
        let (rt0, rm0) = reliable(t0.clone(), m0, cfg());
        for i in 0..3u64 {
            rt0.send(SiteId(1), &Message::Commit { txn: TxnId(i) })
                .unwrap();
            rm1.recv_timeout(Duration::from_secs(2)).unwrap();
        }
        drop(rt0);
        drop(rm0);
        // Restarted incarnation begins at seq 1 again, in a later epoch;
        // the receiver must deliver rather than treat it as a duplicate.
        let (rt0b, _rm0b) = reliable(
            t0,
            crate::channel::ChannelNetwork::new(1).pop().unwrap().1,
            ReliableConfig {
                epoch: Some(8),
                ..cfg()
            },
        );
        rt0b.send(SiteId(1), &Message::Commit { txn: TxnId(99) })
            .unwrap();
        let (_, msg) = rm1.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(msg, Message::Commit { txn: TxnId(99) });
    }

    #[test]
    fn peer_restart_renumbers_unacked_frames() {
        let mut endpoints = ChannelNetwork::new(2);
        let (t1, m1) = endpoints.pop().unwrap();
        let (t0, m0) = endpoints.pop().unwrap();
        let (rt0, rm0) = reliable(t0, m0, cfg()); // epoch 7
        for i in 0..3u64 {
            rt0.send(SiteId(1), &Message::Commit { txn: TxnId(i) })
                .unwrap();
        }
        // The raw peer sees Seq{epoch 7, seq 1..=3}.
        let mut top_seq = 0;
        while top_seq < 3 {
            match m1.recv_timeout(Duration::from_secs(1)).unwrap() {
                (_, Message::Seq { epoch, seq, .. }) => {
                    assert_eq!(epoch, 7);
                    top_seq = top_seq.max(seq);
                }
                other => panic!("unexpected frame {other:?}"),
            }
        }
        // Ack the first two, reporting receiver epoch 100...
        t1.send(
            SiteId(0),
            &Message::SeqAck {
                epoch: 7,
                cumulative: 2,
                receiver: 100,
            },
        )
        .unwrap();
        let _ = rm0.recv_timeout(Duration::from_millis(50)); // consume the ack
                                                             // ...then "restart": epoch 200, nothing delivered.
        t1.send(
            SiteId(0),
            &Message::SeqAck {
                epoch: 7,
                cumulative: 0,
                receiver: 200,
            },
        )
        .unwrap();
        let _ = rm0.recv_timeout(Duration::from_millis(50));
        // The surviving unacked frame (originally seq 3) must come back
        // renumbered from 1 under a bumped link epoch.
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            match m1.recv_timeout(Duration::from_millis(200)) {
                Ok((_, Message::Seq { epoch, seq, inner })) if epoch > 7 => {
                    assert_eq!(seq, 1, "unacked tail renumbered from 1");
                    assert_eq!(*inner, Message::Commit { txn: TxnId(2) });
                    return;
                }
                _ if Instant::now() > deadline => {
                    panic!("no renumbered retransmission arrived")
                }
                _ => {}
            }
        }
    }

    #[test]
    fn management_traffic_bypasses_sequencing() {
        let mut endpoints = ChannelNetwork::new(2);
        let (_t1, m1) = endpoints.pop().unwrap();
        let (t0, m0) = endpoints.pop().unwrap();
        let (rt0, _rm0) = reliable(t0, m0, cfg());
        rt0.send(SiteId(1), &Message::Mgmt(Command::Fail)).unwrap();
        // The raw mailbox sees the command unwrapped: no Seq framing.
        let (_, msg) = m1.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(msg, Message::Mgmt(Command::Fail));
    }
}
