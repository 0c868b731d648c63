//! TCP transport over `std::net` — real sockets, no async runtime, and
//! no thread between the kernel and the thread that owns the mailbox.
//!
//! Framing: `[u32 payload_len (LE)][u8 from][payload]`. Each endpoint
//! binds `127.0.0.1:base_port + site`. Outbound connections are
//! established lazily and cached; TCP gives per-connection FIFO,
//! satisfying the paper's ordered-delivery assumption.
//!
//! # Who waits where
//!
//! | | before (PRs 1–16) | now |
//! |---|---|---|
//! | inbound frame | kernel → a reader thread per connection (two `read_exact`s, a fresh `Vec`) → channel → site thread wakes | kernel → site thread (one `ppoll`, one `read` per ready socket) |
//! | hand-offs per message | 2 (reader wakes, then site wakes) | 1 (site wakes) |
//! | outbound frame | `set_nonblocking`, `peek`, `set_nonblocking`, `write` | one atomic load, `write` |
//! | threads per endpoint | 1 acceptor + 1 per inbound connection | 0 inbound; 1 parked watcher per outbound connection |
//!
//! **Inbound.** [`TcpMailbox`] owns the non-blocking listener, the
//! accepted non-blocking connections (each with a receive buffer it
//! reuses) and a queue of decoded messages. `recv_timeout` answers from
//! the queue if it can; otherwise it waits in one [`crate::ppoll`] call
//! over listener and connections for the caller's timeout, reads each
//! ready socket once, and decodes every complete frame that has arrived
//! through the pure [`drain_frames`]. A thread that comes back from work
//! therefore picks up everything that arrived meanwhile in one wake-up,
//! which is why the gain under load is larger than the unloaded one
//! (`miniraid_tcp_msgs_in_total / miniraid_tcp_wakeups_total`).
//!
//! **Outbound.** A write to a peer process that has exited succeeds (the
//! kernel buffers past the peer's FIN), so the sender must learn of the
//! exit some other way. Nothing is ever sent back on an outbound
//! connection, so the first thing a `read` on it returns is the peer's
//! FIN or reset: each cached connection has a watcher thread parked in
//! that `read`, which raises the connection's `dead` flag. The watcher
//! runs once per connection lifetime, never per message — it is off the
//! message path — and [`Outbound`]'s `Drop` shuts the socket down and
//! joins it.
//!
//! **Back-pressure.** With no reader thread emptying sockets into an
//! unbounded channel, unread bytes stay in kernel buffers, and a peer
//! that stops reading eventually blocks `write_all` inside a site loop.
//! Outbound sockets therefore carry a write timeout of
//! [`RECONNECT_MAX`]: a timed-out (possibly torn) write drops the
//! connection and takes the back-off-gated reconnect, and the receiver
//! discards the partial frame with its connection. By the paper's model
//! a site that will not take a message for a second is down.

use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::{BufMut, BytesMut};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use miniraid_core::ids::SiteId;
use miniraid_core::messages::Message;

use crate::ppoll::{self, PollFd};
use crate::transport::{Mailbox, RecvError, Transport, TransportStats};
use crate::{codec, NetError};

/// First reconnect backoff interval after a connection dies.
const RECONNECT_BASE: Duration = Duration::from_millis(20);
/// Backoff ceiling: a persistently dead peer is probed at most this
/// often per send path. Also the longest a write may stall before the
/// peer counts as down.
const RECONNECT_MAX: Duration = Duration::from_millis(1000);
/// Frame header: `[u32 payload_len (LE)][u8 from]`.
const HEADER_LEN: usize = 5;
/// Largest payload a frame may announce; a longer one is corruption.
const MAX_PAYLOAD: usize = 1 << 26;
/// Bytes asked of the kernel per `read`: several hundred protocol
/// messages, so one read usually empties the socket.
const READ_CHUNK: usize = 64 << 10;

/// Address plan: site `i` listens on `base_port + i`.
#[derive(Debug, Clone, Copy)]
pub struct AddressPlan {
    /// First port; site `i` uses `base_port + i`.
    pub base_port: u16,
}

impl AddressPlan {
    /// Socket address of a site.
    pub fn addr(&self, site: SiteId) -> SocketAddr {
        SocketAddr::from(([127, 0, 0, 1], self.base_port + site.0 as u16))
    }
}

/// One site's TCP endpoint: create with [`TcpEndpoint::bind`].
pub struct TcpEndpoint;

impl TcpEndpoint {
    /// Bind the listener for `site` and return the transport/mailbox
    /// pair. Dropping the mailbox closes the listener and every accepted
    /// connection, so the port can be bound again.
    pub fn bind(site: SiteId, plan: AddressPlan) -> std::io::Result<(TcpTransport, TcpMailbox)> {
        let listener = TcpListener::bind(plan.addr(site))?;
        listener.set_nonblocking(true)?;
        let received = Arc::new(RecvCounters::default());
        Ok((
            TcpTransport {
                local: site,
                plan,
                conns: Arc::new(Mutex::new(HashMap::new())),
                scratch: Arc::new(Mutex::new(BytesMut::with_capacity(256))),
                reconn: Arc::new(Mutex::new(ReconnectState {
                    backoff: HashMap::new(),
                    rng: StdRng::seed_from_u64(site.0 as u64 + 1),
                    attempts: 0,
                })),
                received: Arc::clone(&received),
            },
            TcpMailbox {
                inbox: Mutex::new(Inbox {
                    listener,
                    conns: Vec::new(),
                    ready: VecDeque::new(),
                    fds: Vec::new(),
                    chunk: vec![0; READ_CHUNK].into_boxed_slice(),
                }),
                received,
            },
        ))
    }
}

/// What the receiving half counts, shared with the sending half so that
/// [`Transport::stats`] can report it. Statistics only: `Relaxed`.
#[derive(Default)]
struct RecvCounters {
    /// `ppoll` returns with something ready.
    wakeups: AtomicU64,
    /// `read` calls on accepted connections.
    reads: AtomicU64,
    /// Messages decoded into the ready queue.
    msgs_in: AtomicU64,
}

/// Reconnect gating per peer: after a connection dies, probe attempts
/// back off exponentially (with jitter) up to [`RECONNECT_MAX`], so a
/// flapping or dead peer costs the site loop at most one refused connect
/// per backoff window instead of one per send.
struct ReconnectState {
    backoff: HashMap<SiteId, PeerBackoff>,
    rng: StdRng,
    /// Reconnect attempts actually made (exposed via `Transport::stats`).
    attempts: u64,
}

struct PeerBackoff {
    /// No attempt before this instant; sends meanwhile are dropped
    /// immediately (site-down semantics, no syscall).
    until: Instant,
    /// Current backoff interval (doubles per failure, jittered).
    delay: Duration,
}

/// A cached outbound connection and the watcher that learns of the
/// peer's exit from the stream's own EOF.
struct Outbound {
    stream: TcpStream,
    /// Raised by the watcher once the peer has sent FIN or reset.
    /// Publishes nothing but itself: `Relaxed`.
    dead: Arc<AtomicBool>,
    watcher: Option<JoinHandle<()>>,
}

impl Outbound {
    fn open(stream: TcpStream) -> std::io::Result<Outbound> {
        stream.set_nodelay(true).ok();
        stream.set_write_timeout(Some(RECONNECT_MAX))?;
        let mut watched = stream.try_clone()?;
        let dead = Arc::new(AtomicBool::new(false));
        let raise = Arc::clone(&dead);
        let watcher = std::thread::Builder::new()
            .name("miniraid-watch".into())
            .spawn(move || {
                // Nothing is ever sent back on an outbound connection, so
                // whatever ends this read — EOF, a reset, `Drop`'s
                // shutdown, even stray bytes — ends the connection's use.
                let mut probe = [0u8; 1];
                loop {
                    match watched.read(&mut probe) {
                        Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                        _ => break,
                    }
                }
                raise.store(true, Ordering::Relaxed);
            })?;
        Ok(Outbound {
            stream,
            dead,
            watcher: Some(watcher),
        })
    }
}

impl Drop for Outbound {
    fn drop(&mut self) {
        // Wakes the watcher's `read` (the clone shares the socket), so
        // the join is prompt and no thread outlives its connection.
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(watcher) = self.watcher.take() {
            let _ = watcher.join();
        }
    }
}

/// Sending half of a TCP endpoint. Cloneable; connections are shared.
#[derive(Clone)]
pub struct TcpTransport {
    local: SiteId,
    plan: AddressPlan,
    conns: Arc<Mutex<HashMap<SiteId, Outbound>>>,
    /// Reused frame-encode buffer: one `write_all` per frame, no
    /// per-message allocation.
    scratch: Arc<Mutex<BytesMut>>,
    reconn: Arc<Mutex<ReconnectState>>,
    received: Arc<RecvCounters>,
}

impl TcpTransport {
    fn connect(&self, to: SiteId) -> std::io::Result<Outbound> {
        // Retry briefly: peers may still be binding during startup.
        let addr = self.plan.addr(to);
        let mut delay = Duration::from_millis(5);
        for _ in 0..8 {
            match TcpStream::connect_timeout(&addr, Duration::from_millis(200)) {
                Ok(s) => return Outbound::open(s),
                Err(_) => std::thread::sleep(delay),
            }
            delay = delay.saturating_mul(2).min(Duration::from_millis(100));
        }
        self.reconnect(to)
    }

    /// One fast connect attempt, for replacing a cached connection whose
    /// peer went away. No retry loop: the peer was demonstrably up
    /// before, so refusal means it is down now, and blocking the site
    /// loop in retries would delay protocol messages to live peers past
    /// their failure-detection timeouts. Repeat attempts are governed by
    /// the jittered exponential backoff in [`ReconnectState`].
    fn reconnect(&self, to: SiteId) -> std::io::Result<Outbound> {
        Outbound::open(TcpStream::connect_timeout(
            &self.plan.addr(to),
            Duration::from_millis(200),
        )?)
    }

    /// True if the backoff window for `to` is still open (skip the
    /// attempt and drop the frame).
    fn in_backoff(&self, to: SiteId) -> bool {
        let reconn = self.reconn.lock();
        reconn
            .backoff
            .get(&to)
            .is_some_and(|b| Instant::now() < b.until)
    }

    /// Record a reconnect attempt's outcome, widening or clearing the
    /// peer's backoff window.
    fn note_reconnect(&self, to: SiteId, ok: bool) {
        let mut reconn = self.reconn.lock();
        reconn.attempts += 1;
        if ok {
            reconn.backoff.remove(&to);
            return;
        }
        let doubled = reconn
            .backoff
            .get(&to)
            .map_or(RECONNECT_BASE, |b| (b.delay * 2).min(RECONNECT_MAX));
        let jitter = 1.0 + reconn.rng.random::<f64>() * 0.25;
        let delay = doubled.mul_f64(jitter);
        reconn.backoff.insert(
            to,
            PeerBackoff {
                until: Instant::now() + delay,
                delay: doubled,
            },
        );
    }
}

impl TcpTransport {
    /// Write a complete frame, trying the cached connection first.
    ///
    /// A dead peer is a detectable-by-timeout site failure, not a sender
    /// error, so a final failure is reported as Ok (the message is "lost
    /// with the site", matching the paper's model where a down site
    /// simply does not respond).
    fn write_frame(&self, to: SiteId, frame: &[u8]) -> Result<(), NetError> {
        let mut conns = self.conns.lock();
        let mut had_cached = false;
        if let Some(conn) = conns.get_mut(&to) {
            // A cached stream to a peer process that exited still accepts
            // writes (the kernel buffers the frame past the peer's FIN),
            // silently losing the message, so the watcher's flag is
            // checked first: drop the stream and reconnect — the peer may
            // have rebound its port (e.g. consecutive one-shot
            // `miniraid-ctl` invocations reusing the manager address). A
            // write that fails or times out may have torn a frame, and
            // takes the same way out.
            if !conn.dead.load(Ordering::Relaxed) && conn.stream.write_all(frame).is_ok() {
                return Ok(());
            }
            conns.remove(&to);
            had_cached = true;
        }
        // First-ever connection: retry around startup races. Replacing a
        // dead cached connection (or re-probing a peer already in
        // backoff): a single fast attempt gated by the per-peer backoff
        // window, so a crashed peer costs one refused connect per window
        // rather than one per send.
        let reconnecting = had_cached || self.reconn.lock().backoff.contains_key(&to);
        let attempt = if reconnecting {
            if self.in_backoff(to) {
                return Ok(()); // frame dropped: peer treated as down
            }
            let attempt = self.reconnect(to);
            self.note_reconnect(to, attempt.is_ok());
            attempt
        } else {
            self.connect(to)
        };
        if let Ok(mut conn) = attempt {
            if conn.stream.write_all(frame).is_ok() {
                conns.insert(to, conn);
            }
        }
        Ok(())
    }

    /// Encode `msgs` as one frame in the shared scratch buffer and write
    /// it.
    fn send_frame(&self, to: SiteId, msgs: &[Message]) -> Result<(), NetError> {
        let mut scratch = self.scratch.lock();
        encode_frame(&mut scratch, self.local, msgs);
        self.write_frame(to, &scratch)
    }
}

/// Replace `buf` by one frame carrying `msgs` (at least one; several
/// travel as a `MsgBatch`): `[u32 payload_len][u8 from][payload]`.
fn encode_frame(buf: &mut BytesMut, from: SiteId, msgs: &[Message]) {
    buf.clear();
    buf.put_u32_le(0); // patched below
    buf.put_u8(from.0);
    match msgs {
        [msg] => codec::encode_into(buf, msg),
        msgs => codec::encode_batch_into(buf, msgs),
    }
    let len = (buf.len() - HEADER_LEN) as u32;
    buf[..4].copy_from_slice(&len.to_le_bytes());
}

impl Transport for TcpTransport {
    fn send(&self, to: SiteId, msg: &Message) -> Result<(), NetError> {
        self.send_frame(to, std::slice::from_ref(msg))
    }

    fn send_batch(&self, to: SiteId, msgs: &[Message]) -> Result<(), NetError> {
        if msgs.is_empty() {
            return Ok(());
        }
        self.send_frame(to, msgs)
    }

    fn local_id(&self) -> SiteId {
        self.local
    }

    fn stats(&self) -> TransportStats {
        TransportStats {
            reconnects: self.reconn.lock().attempts,
            tcp_wakeups: self.received.wakeups.load(Ordering::Relaxed),
            tcp_reads: self.received.reads.load(Ordering::Relaxed),
            tcp_msgs_in: self.received.msgs_in.load(Ordering::Relaxed),
            ..TransportStats::default()
        }
    }
}

/// Decode every complete frame at the front of `buf` into `ready` and
/// remove it, leaving a trailing partial frame for the next read to
/// finish. Returns `false` — having delivered the frames before it and
/// nothing after — on a frame that announces more than [`MAX_PAYLOAD`]
/// bytes or whose payload does not decode: the connection is corrupt
/// and is to be dropped.
fn drain_frames(buf: &mut Vec<u8>, ready: &mut VecDeque<(SiteId, Message)>) -> bool {
    let mut at = 0;
    let intact = loop {
        let Some((header, rest)) = buf[at..].split_first_chunk::<HEADER_LEN>() else {
            break true;
        };
        let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as usize;
        if len > MAX_PAYLOAD {
            break false;
        }
        let Some(payload) = rest.get(..len) else {
            break true;
        };
        let Ok(msgs) = codec::decode_many(payload) else {
            break false;
        };
        let from = SiteId(header[4]);
        ready.extend(msgs.into_iter().map(|msg| (from, msg)));
        at += HEADER_LEN + len;
    };
    buf.drain(..at);
    intact
}

/// An accepted connection and the bytes of its last, still incomplete
/// frame.
struct Inbound {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Inbound {
    /// One `read` of a socket `ppoll` reported ready, decoding whatever
    /// it completes. `false` once the connection is finished: closed by
    /// the peer, failed, or corrupt (its partial frame goes with it).
    fn fill(
        &mut self,
        chunk: &mut [u8],
        ready: &mut VecDeque<(SiteId, Message)>,
        received: &RecvCounters,
    ) -> bool {
        received.reads.fetch_add(1, Ordering::Relaxed);
        match self.stream.read(chunk) {
            Ok(0) => false,
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                drain_frames(&mut self.buf, ready)
            }
            Err(e) => matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted),
        }
    }
}

/// Everything the receiving half owns; behind a mutex only because
/// [`Mailbox`] methods take `&self` — one thread uses it.
struct Inbox {
    listener: TcpListener,
    conns: Vec<Inbound>,
    /// Decoded but not yet handed to the caller.
    ready: VecDeque<(SiteId, Message)>,
    /// Reused `ppoll` set: the listener, then `conns` in order.
    fds: Vec<PollFd>,
    /// Reused target of every `read`.
    chunk: Box<[u8]>,
}

impl Inbox {
    /// Wait up to `timeout` for the listener or a connection to become
    /// readable, then read each ready connection once, drop the finished
    /// ones and accept whoever is waiting. Returns whether anything was
    /// ready.
    fn pump(&mut self, timeout: Duration, received: &RecvCounters) -> bool {
        self.fds.clear();
        self.fds.push(PollFd::readable(self.listener.as_raw_fd()));
        self.fds.extend(
            self.conns
                .iter()
                .map(|conn| PollFd::readable(conn.stream.as_raw_fd())),
        );
        if ppoll::wait(&mut self.fds, timeout) == 0 {
            return false;
        }
        received.wakeups.fetch_add(1, Ordering::Relaxed);
        let queued = self.ready.len();
        let (listener_fd, conn_fds) = self.fds.split_first().expect("listener is always polled");
        let mut conn_fds = conn_fds.iter();
        let (ready, chunk) = (&mut self.ready, &mut self.chunk);
        self.conns.retain_mut(|conn| {
            let fd = conn_fds.next().expect("one pollfd per connection");
            !fd.is_ready() || conn.fill(chunk, ready, received)
        });
        if listener_fd.is_ready() {
            // Non-blocking listener: `WouldBlock` ends the backlog. An
            // accepted socket does not inherit the flag.
            while let Ok((stream, _peer)) = self.listener.accept() {
                if stream.set_nonblocking(true).is_ok() {
                    self.conns.push(Inbound {
                        stream,
                        buf: Vec::new(),
                    });
                }
            }
        }
        let decoded = (self.ready.len() - queued) as u64;
        received.msgs_in.fetch_add(decoded, Ordering::Relaxed);
        true
    }
}

/// Receiving half of a TCP endpoint: the listener, the accepted
/// connections and the decoded-message queue, all driven by whichever
/// thread calls [`Mailbox::recv_timeout`]. Never reports
/// [`RecvError::Disconnected`]: with no connections it waits for one.
pub struct TcpMailbox {
    inbox: Mutex<Inbox>,
    received: Arc<RecvCounters>,
}

impl Mailbox for TcpMailbox {
    fn recv_timeout(&self, timeout: Duration) -> Result<(SiteId, Message), RecvError> {
        let mut inbox = self.inbox.lock();
        if let Some(pair) = inbox.ready.pop_front() {
            return Ok(pair);
        }
        let start = Instant::now();
        let mut left = timeout;
        loop {
            let woke = inbox.pump(left, &self.received);
            if let Some(pair) = inbox.ready.pop_front() {
                return Ok(pair);
            }
            // Something ready need not be a whole message (a connection
            // accepted, half a frame): wait out the rest of the timeout.
            left = timeout.saturating_sub(start.elapsed());
            if !woke && left.is_zero() {
                return Err(RecvError::Timeout);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use miniraid_core::ids::TxnId;

    fn plan() -> AddressPlan {
        // Unique-ish base port per test process.
        AddressPlan {
            base_port: 21000 + (std::process::id() % 2000) as u16,
        }
    }

    #[test]
    fn tcp_roundtrip_and_order() {
        let plan = plan();
        let (t0, _m0) = TcpEndpoint::bind(SiteId(0), plan).unwrap();
        let (_t1, m1) = TcpEndpoint::bind(SiteId(1), plan).unwrap();
        for i in 0..50u64 {
            t0.send(SiteId(1), &Message::Commit { txn: TxnId(i) })
                .unwrap();
        }
        for i in 0..50u64 {
            let (from, msg) = m1.recv_timeout(Duration::from_secs(2)).unwrap();
            assert_eq!(from, SiteId(0));
            assert_eq!(msg, Message::Commit { txn: TxnId(i) });
        }
    }

    #[test]
    fn reconnects_after_peer_rebinds() {
        // One-shot manager processes (miniraid-ctl) bind, exchange a few
        // messages, and exit; the next invocation rebinds the same port.
        // The cached outbound stream at the site must not swallow frames
        // written after the first manager exited.
        let plan = AddressPlan {
            base_port: 25500 + (std::process::id() % 2000) as u16,
        };
        let (t0, _m0) = TcpEndpoint::bind(SiteId(0), plan).unwrap();
        {
            // First "manager": a raw listener standing in for a process
            // that accepts one connection and then exits (closing both
            // the listener and the accepted socket, unlike an in-process
            // TcpEndpoint whose accept thread lives on).
            let listener = std::net::TcpListener::bind(plan.addr(SiteId(1))).unwrap();
            t0.send(SiteId(1), &Message::Commit { txn: TxnId(1) })
                .unwrap();
            let (_conn, _) = listener.accept().unwrap();
        } // sockets closed: t0's cached stream is now half-closed
        std::thread::sleep(Duration::from_millis(50));
        let (_t1, m1) = TcpEndpoint::bind(SiteId(1), plan).unwrap();
        t0.send(SiteId(1), &Message::Commit { txn: TxnId(2) })
            .unwrap();
        let (from, msg) = m1.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(from, SiteId(0));
        assert_eq!(msg, Message::Commit { txn: TxnId(2) });
    }

    #[test]
    fn reconnect_attempts_back_off_and_are_counted() {
        let plan = AddressPlan {
            base_port: 24500 + (std::process::id() % 2000) as u16,
        };
        let (t0, _m0) = TcpEndpoint::bind(SiteId(0), plan).unwrap();
        {
            // A peer that accepts one connection and then goes away.
            let listener = std::net::TcpListener::bind(plan.addr(SiteId(1))).unwrap();
            t0.send(SiteId(1), &Message::Commit { txn: TxnId(1) })
                .unwrap();
            let (_conn, _) = listener.accept().unwrap();
        }
        std::thread::sleep(Duration::from_millis(50));
        // A burst of sends to the now-dead peer: the first probe fails
        // and opens a backoff window; the rest are dropped without a
        // connect syscall, so the burst completes far faster than one
        // refused connect per send would allow.
        let start = std::time::Instant::now();
        for i in 0..200u64 {
            t0.send(SiteId(1), &Message::Commit { txn: TxnId(i) })
                .unwrap();
        }
        let elapsed = start.elapsed();
        let attempts = t0.stats().reconnects;
        assert!(attempts >= 1, "at least one probe was made");
        assert!(
            attempts < 50,
            "backoff capped probing: {attempts} attempts for 200 sends"
        );
        assert!(
            elapsed < Duration::from_secs(2),
            "burst not serialized behind refused connects ({elapsed:?})"
        );
    }

    #[test]
    fn send_to_dead_peer_does_not_error() {
        let plan = AddressPlan {
            base_port: 23500 + (std::process::id() % 2000) as u16,
        };
        let (t0, _m0) = TcpEndpoint::bind(SiteId(0), plan).unwrap();
        // Site 1 never bound: the send is swallowed (site down semantics).
        assert!(t0
            .send(SiteId(1), &Message::Commit { txn: TxnId(0) })
            .is_ok());
    }

    // ---- framing, without sockets -------------------------------------

    use proptest::prelude::*;

    type Ready = VecDeque<(SiteId, Message)>;

    fn commit(i: u64) -> Message {
        Message::Commit { txn: TxnId(i) }
    }

    /// The bytes `TcpTransport::send_frame` would write.
    fn frame(from: u8, msgs: &[Message]) -> Vec<u8> {
        let mut buf = BytesMut::new();
        encode_frame(&mut buf, SiteId(from), msgs);
        buf.to_vec()
    }

    fn tagged(from: u8, msgs: &[Message]) -> Vec<(SiteId, Message)> {
        msgs.iter().map(|m| (SiteId(from), m.clone())).collect()
    }

    #[test]
    fn several_frames_in_one_chunk_all_decode() {
        let batch = [commit(2), commit(3), commit(4)];
        let mut buf = frame(0, &[commit(1)]);
        buf.extend(frame(1, &batch));
        buf.extend(frame(0, &[commit(5)]));
        let mut ready = Ready::new();
        assert!(drain_frames(&mut buf, &mut ready));
        assert!(buf.is_empty());
        let mut want = tagged(0, &[commit(1)]);
        want.extend(tagged(1, &batch));
        want.extend(tagged(0, &[commit(5)]));
        assert_eq!(Vec::from(ready), want);
    }

    #[test]
    fn a_frame_split_across_three_reads_is_delivered_once_after_the_last_byte() {
        let bytes = frame(2, &[commit(7), commit(8)]);
        let (mut buf, mut ready) = (Vec::new(), Ready::new());
        // Inside the header, inside the payload, then the rest.
        for piece in [&bytes[..3], &bytes[3..bytes.len() - 1]] {
            buf.extend_from_slice(piece);
            assert!(drain_frames(&mut buf, &mut ready));
            assert!(ready.is_empty(), "delivered before the frame was whole");
        }
        buf.extend_from_slice(&bytes[bytes.len() - 1..]);
        assert!(drain_frames(&mut buf, &mut ready));
        assert_eq!(Vec::from(ready), tagged(2, &[commit(7), commit(8)]));
        assert!(buf.is_empty());
    }

    #[test]
    fn an_oversized_or_corrupt_frame_ends_delivery() {
        let oversized = {
            let mut header = ((MAX_PAYLOAD + 1) as u32).to_le_bytes().to_vec();
            header.push(0);
            header
        };
        let corrupt = {
            let mut bytes = frame(0, &[commit(2)]);
            bytes[HEADER_LEN] = 0xFF; // no such message tag
            bytes
        };
        for bad in [oversized, corrupt] {
            let mut buf = frame(0, &[commit(1)]);
            buf.extend(&bad);
            buf.extend(frame(0, &[commit(3)]));
            let mut ready = Ready::new();
            assert!(!drain_frames(&mut buf, &mut ready));
            assert_eq!(Vec::from(ready), tagged(0, &[commit(1)]));
        }
        // The largest admissible length is merely incomplete.
        let mut buf = (MAX_PAYLOAD as u32).to_le_bytes().to_vec();
        buf.push(0);
        assert!(drain_frames(&mut buf, &mut Ready::new()));
        assert_eq!(buf.len(), HEADER_LEN);
    }

    /// Messages of varying encoded length, so that cuts land in headers,
    /// payloads and batch envelopes alike.
    fn arb_message() -> impl Strategy<Value = Message> {
        prop_oneof![
            any::<u64>().prop_map(commit),
            (any::<u64>(), any::<bool>())
                .prop_map(|(t, ok)| Message::UpdateAck { txn: TxnId(t), ok }),
            (0usize..300).prop_map(|n| Message::MetricsResponse {
                text: "m".repeat(n)
            }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// However the kernel cuts the byte stream into reads, the
        /// messages come out the same, once each, in order.
        #[test]
        fn delivery_does_not_depend_on_where_the_stream_is_cut(
            frames in proptest::collection::vec(
                (any::<u8>(), proptest::collection::vec(arb_message(), 1..5)),
                1..12,
            ),
            cuts in proptest::collection::vec(1usize..64, 1..40),
        ) {
            let mut stream = Vec::new();
            let mut want = Vec::new();
            for (from, msgs) in &frames {
                stream.extend(frame(*from, msgs));
                want.extend(tagged(*from, msgs));
            }
            let (mut buf, mut ready) = (Vec::new(), Ready::new());
            let mut rest = stream.as_slice();
            for cut in cuts.iter().cycle() {
                if rest.is_empty() {
                    break;
                }
                let (piece, tail) = rest.split_at((*cut).min(rest.len()));
                buf.extend_from_slice(piece);
                prop_assert!(drain_frames(&mut buf, &mut ready));
                rest = tail;
            }
            prop_assert!(buf.is_empty());
            prop_assert_eq!(Vec::from(ready), want);
        }
    }

    // ---- sockets: waiting, isolation, back-pressure, teardown ----------

    /// A port range of this test's own (the four above use 21000–27500).
    fn plan_at(base: u16) -> AddressPlan {
        AddressPlan {
            base_port: base + (std::process::id() % 2000) as u16,
        }
    }

    const WAIT: Duration = Duration::from_secs(2);

    #[test]
    fn a_corrupt_frame_drops_only_its_own_connection() {
        let plan = plan_at(9000);
        let (t0, _m0) = TcpEndpoint::bind(SiteId(0), plan).unwrap();
        let (_t1, m1) = TcpEndpoint::bind(SiteId(1), plan).unwrap();
        t0.send(SiteId(1), &commit(1)).unwrap();
        assert_eq!(m1.recv_timeout(WAIT).unwrap(), (SiteId(0), commit(1)));

        let mut vandal = TcpStream::connect(plan.addr(SiteId(1))).unwrap();
        let mut bytes = frame(9, &[commit(2)]);
        bytes[HEADER_LEN] = 0xFF;
        bytes.extend(frame(9, &[commit(3)]));
        vandal.write_all(&bytes).unwrap();
        vandal
            .set_read_timeout(Some(Duration::from_millis(20)))
            .unwrap();
        // The mailbox closes the vandal's connection the next time it is
        // pumped past those bytes, and delivers nothing from it.
        let start = Instant::now();
        loop {
            assert_eq!(m1.try_recv(), Err(RecvError::Timeout));
            match vandal.read(&mut [0u8; 1]) {
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    assert!(start.elapsed() < WAIT, "corrupt connection left open");
                }
                closed => break assert!(matches!(closed, Ok(0) | Err(_))),
            }
        }
        // Site 0's connection never noticed.
        t0.send(SiteId(1), &commit(4)).unwrap();
        assert_eq!(m1.recv_timeout(WAIT).unwrap(), (SiteId(0), commit(4)));
        assert_eq!(t0.stats().reconnects, 0);
    }

    #[test]
    fn each_sender_is_fifo_across_a_thousand_frames_from_two_senders() {
        let plan = plan_at(11000);
        let (t0, _m0) = TcpEndpoint::bind(SiteId(0), plan).unwrap();
        let (t1, _m1) = TcpEndpoint::bind(SiteId(1), plan).unwrap();
        let (_t2, m2) = TcpEndpoint::bind(SiteId(2), plan).unwrap();
        std::thread::scope(|scope| {
            for t in [&t0, &t1] {
                scope.spawn(move || {
                    for i in 0..500u64 {
                        t.send(SiteId(2), &commit(i)).unwrap();
                    }
                });
            }
            let mut next = [0u64; 2];
            for _ in 0..1000 {
                let (from, msg) = m2.recv_timeout(WAIT).unwrap();
                assert_eq!(msg, commit(next[from.0 as usize]));
                next[from.0 as usize] += 1;
            }
            assert_eq!(next, [500, 500]);
        });
        assert_eq!(m2.try_recv(), Err(RecvError::Timeout));
    }

    #[test]
    fn an_idle_wait_lasts_its_timeout_not_a_tick() {
        let (_t0, m0) = TcpEndpoint::bind(SiteId(0), plan_at(13000)).unwrap();
        let linger = Duration::from_micros(150);
        // The shortest of several tries: the scheduler may stretch any
        // one of them, a millisecond-rounded wait stretches them all.
        let mut shortest = Duration::MAX;
        for _ in 0..20 {
            let start = Instant::now();
            assert_eq!(m0.recv_timeout(linger), Err(RecvError::Timeout));
            let took = start.elapsed();
            assert!(took >= linger, "returned early: {took:?}");
            shortest = shortest.min(took);
        }
        assert!(
            shortest < Duration::from_millis(1),
            "150 us wait took {shortest:?}"
        );
        let start = Instant::now();
        for _ in 0..20 {
            assert_eq!(m0.try_recv(), Err(RecvError::Timeout));
        }
        assert!(
            start.elapsed() < Duration::from_millis(100),
            "try_recv blocks"
        );
    }

    #[test]
    fn queued_messages_are_handed_over_without_another_wait() {
        let plan = plan_at(15000);
        let (t0, _m0) = TcpEndpoint::bind(SiteId(0), plan).unwrap();
        let (t1, m1) = TcpEndpoint::bind(SiteId(1), plan).unwrap();
        t0.send_batch(SiteId(1), &[commit(1), commit(2), commit(3)])
            .unwrap();
        assert_eq!(m1.recv_timeout(WAIT).unwrap().1, commit(1));
        // One frame, one read: the other two are already decoded.
        let after_first = t1.stats();
        assert_eq!(after_first.tcp_msgs_in, 3);
        assert_eq!(m1.recv_timeout(WAIT).unwrap().1, commit(2));
        assert_eq!(m1.try_recv().unwrap().1, commit(3));
        assert_eq!(t1.stats(), after_first, "a queued message cost a syscall");
        assert!(after_first.tcp_wakeups >= 1 && after_first.tcp_reads >= 1);
    }

    #[test]
    fn a_peer_that_stops_reading_does_not_wedge_the_sender() {
        let plan = plan_at(17000);
        let (t0, _m0) = TcpEndpoint::bind(SiteId(0), plan).unwrap();
        // Bound, so connects succeed into the backlog, but never pumped:
        // every byte stays in kernel socket buffers until they are full.
        let (_t1, _m1) = TcpEndpoint::bind(SiteId(1), plan).unwrap();
        let big = Message::MetricsResponse {
            text: "x".repeat(1 << 20),
        };
        // Far more than a localhost socket pair buffers (a few MB), so
        // without the write timeout some send here never returns.
        let mut stalled = 0;
        for _ in 0..48 {
            let start = Instant::now();
            t0.send(SiteId(1), &big).unwrap();
            let took = start.elapsed();
            assert!(took < RECONNECT_MAX * 3, "send blocked for {took:?}");
            if took >= RECONNECT_MAX {
                stalled += 1;
                if stalled == 2 {
                    break;
                }
            }
        }
        assert!(stalled >= 1, "the socket buffers never filled");
        // Each stall dropped the torn connection and reconnected.
        assert!(t0.stats().reconnects >= 1);
    }

    #[test]
    fn a_dropped_endpoint_lets_go_of_its_port() {
        let plan = plan_at(19000);
        let (t0, _m0) = TcpEndpoint::bind(SiteId(0), plan).unwrap();
        for round in 0..3u64 {
            let (t1, m1) = TcpEndpoint::bind(SiteId(1), plan).expect("port free again");
            t0.send(SiteId(1), &commit(round)).unwrap();
            assert_eq!(m1.recv_timeout(WAIT).unwrap(), (SiteId(0), commit(round)));
            drop((t1, m1));
            // Let t0's watcher see the FIN, as in
            // `reconnects_after_peer_rebinds`.
            std::thread::sleep(Duration::from_millis(50));
        }
    }
}
