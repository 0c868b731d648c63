//! A database site as an OS thread: the sans-IO engine plus a real
//! transport, a mailbox, and local timer queues.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use miniraid_core::engine::{Input, Output, SiteEngine, TimerId};
use miniraid_core::ids::{SiteId, TxnId};
use miniraid_core::messages::{Command, Message};
use miniraid_core::session::SiteStatus;
use miniraid_core::trace::EventKind;
use miniraid_net::{Mailbox, RecvError, Transport};
use miniraid_shard::{MapStore, XLogStore};
use miniraid_storage::DurableStore;

use crate::obs::{render_plain, SiteObs};

/// Real-time timer durations for a threaded deployment. Participant
/// timeouts exceed coordinator timeouts (see the simulator's
/// `TimingConfig` for the rationale).
#[derive(Debug, Clone, Copy)]
pub struct ClusterTiming {
    /// Coordinator waiting for phase-one acks.
    pub ack_timeout: Duration,
    /// Coordinator waiting for commit acks.
    pub commit_ack_timeout: Duration,
    /// Participant waiting for commit/abort.
    pub participant_timeout: Duration,
    /// Coordinator waiting for a copy response.
    pub copier_timeout: Duration,
    /// Coordinator waiting for a remote read response.
    pub read_timeout: Duration,
    /// Recovering site waiting for `RecoveryInfo`.
    pub recovery_timeout: Duration,
    /// Delay between batch copier rounds.
    pub batch_copier_delay: Duration,
}

impl Default for ClusterTiming {
    fn default() -> Self {
        ClusterTiming {
            ack_timeout: Duration::from_millis(150),
            commit_ack_timeout: Duration::from_millis(150),
            participant_timeout: Duration::from_millis(500),
            copier_timeout: Duration::from_millis(150),
            read_timeout: Duration::from_millis(150),
            recovery_timeout: Duration::from_millis(200),
            batch_copier_delay: Duration::from_millis(10),
        }
    }
}

impl ClusterTiming {
    fn duration(&self, id: TimerId) -> Duration {
        match id {
            TimerId::AckTimeout(_) => self.ack_timeout,
            TimerId::CommitAckTimeout(_) => self.commit_ack_timeout,
            TimerId::ParticipantTimeout(_) => self.participant_timeout,
            TimerId::CopierTimeout(_) => self.copier_timeout,
            TimerId::ReadTimeout(_) => self.read_timeout,
            TimerId::RecoveryInfoTimeout(_) => self.recovery_timeout,
            TimerId::BatchCopier => self.batch_copier_delay,
        }
    }
}

/// Number of [`TimerId`] kinds, i.e. of timer queues.
const TIMER_KINDS: usize = 7;

fn timer_kind(id: &TimerId) -> usize {
    match id {
        TimerId::AckTimeout(_) => 0,
        TimerId::CommitAckTimeout(_) => 1,
        TimerId::ParticipantTimeout(_) => 2,
        TimerId::CopierTimeout(_) => 3,
        TimerId::ReadTimeout(_) => 4,
        TimerId::RecoveryInfoTimeout(_) => 5,
        TimerId::BatchCopier => 6,
    }
}

/// The site loop's armed timers: one FIFO queue per [`TimerId`] kind.
/// Every timer of a kind has the same [`ClusterTiming`] duration and the
/// clock is monotonic, so each queue is sorted by due time as armed; the
/// next timer to fire is the earliest front, ties broken by arm order.
///
/// The engine never cancels a timer (there is no such `Output`); the loop
/// asks it instead — [`SiteEngine::timer_live`] — and [`Timers::purge`]
/// drops entries whose wait has ended from the front of each queue.
/// Transactions complete roughly in the order they armed, so a queue
/// holds about the waits in flight rather than one corpse per timer armed
/// during the last timeout, and the loop sleeps until the first deadline
/// something still depends on.
#[derive(Default)]
struct Timers {
    queues: [VecDeque<(Instant, u64, TimerId)>; TIMER_KINDS],
    /// Arm order, the tie-breaker between equal deadlines.
    seq: u64,
    fired: u64,
    dropped_dead: u64,
}

impl Timers {
    fn arm(&mut self, due: Instant, id: TimerId) {
        self.seq += 1;
        let queue = &mut self.queues[timer_kind(&id)];
        debug_assert!(queue.back().is_none_or(|(last, _, _)| *last <= due));
        queue.push_back((due, self.seq, id));
    }

    /// Drop dead entries from the front of each queue, stopping at the
    /// first live one (a dead entry behind it waits its turn: it costs
    /// memory, not a wake-up).
    fn purge(&mut self, live: impl Fn(&TimerId) -> bool) {
        for queue in &mut self.queues {
            while queue.front().is_some_and(|(_, _, id)| !live(id)) {
                queue.pop_front();
                self.dropped_dead += 1;
            }
        }
    }

    /// The queue whose front fires next, with that front's deadline.
    fn next(&self) -> Option<(usize, Instant)> {
        self.queues
            .iter()
            .enumerate()
            .filter_map(|(kind, queue)| queue.front().map(|(due, seq, _)| (*due, *seq, kind)))
            .min()
            .map(|(due, _, kind)| (kind, due))
    }

    /// The earliest deadline armed, if any.
    fn next_due(&self) -> Option<Instant> {
        self.next().map(|(_, due)| due)
    }

    /// Take the next timer to fire if it is due at `now`.
    fn pop_due(&mut self, now: Instant) -> Option<TimerId> {
        let (kind, due) = self.next()?;
        if due > now {
            return None;
        }
        self.fired += 1;
        self.queues[kind].pop_front().map(|(_, _, id)| id)
    }

    fn clear(&mut self) {
        self.queues.iter_mut().for_each(VecDeque::clear);
    }

    fn pending(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }
}

/// Items hydrated per event-loop iteration while a restart image is
/// draining in the background (instant restart).
const HYDRATE_CHUNK: u32 = 256;

/// Durable-mode state carried by the site loop: the store plus reusable
/// buffers. The group commit itself needs no state: `perform` syncs once
/// at the end of every drain, before any of the drain's messages leave.
struct DurableCtx {
    store: DurableStore,
    /// Reused conversion buffers (`ItemId`-keyed engine output to
    /// `u32`-keyed storage input) — the commit hot path allocates
    /// nothing in steady state.
    write_scratch: Vec<(u32, miniraid_storage::ItemValue)>,
    lock_scratch: Vec<(u32, u64)>,
    /// Transactions whose commit records await the covering group
    /// fsync, in append order — each gets a `wal_fsync` trace event
    /// when the sync retires it.
    pending_txns: Vec<TxnId>,
}

impl DurableCtx {
    fn new(store: DurableStore) -> DurableCtx {
        DurableCtx {
            store,
            write_scratch: Vec::new(),
            lock_scratch: Vec::new(),
            pending_txns: Vec::new(),
        }
    }
}

/// Fsync the REDO log; on success emit one `wal_fsync` trace event per
/// commit record the sync durably retired (the tracer's registry stamps
/// each with its transaction's causal trace, so a covering group fsync
/// shows up inside the cross-shard span tree it unblocked).
fn sync_durable(
    engine: &SiteEngine,
    d: &mut DurableCtx,
) -> Result<(), miniraid_storage::StorageError> {
    let res = d.store.sync();
    if res.is_ok() {
        let retired = d.pending_txns.len() as u32;
        for txn in d.pending_txns.drain(..) {
            engine
                .tracer()
                .emit(Some(txn), EventKind::WalFsync { retired });
        }
    }
    res
}

/// Wrap an outbound message in [`Message::Traced`] when its transaction
/// is bound to a causal trace (one relaxed atomic load when no traces
/// are live, so untraced deployments pay essentially nothing).
fn wrap_traced(engine: &SiteEngine, msg: Message) -> Message {
    match msg.txn_id().map(|t| engine.tracer().trace_of(t)) {
        Some(trace) if trace != 0 => Message::Traced {
            trace,
            inner: Box::new(msg),
        },
        _ => msg,
    }
}

/// Send every queued frame, returning the inner buffers to the pool.
fn flush_outbound<T: Transport>(
    engine: &mut SiteEngine,
    transport: &T,
    list: &mut Vec<(SiteId, Vec<Message>)>,
    pool: &mut Vec<Vec<Message>>,
) {
    for (to, mut msgs) in list.drain(..) {
        if msgs.len() > 1 {
            engine.note_batch_frame(msgs.len());
        }
        let _ = transport.send_batch(to, &msgs);
        msgs.clear();
        pool.push(msgs);
    }
}

/// Discard queued frames (durable failure: nothing may announce state
/// that didn't reach stable storage).
fn discard_outbound(list: &mut Vec<(SiteId, Vec<Message>)>, pool: &mut Vec<Vec<Message>>) {
    for (_, mut msgs) in list.drain(..) {
        msgs.clear();
        pool.push(msgs);
    }
}

/// A durable write or sync failed: the site goes down instead of
/// panicking. The drain's outbound messages are discarded, the store
/// handle is dropped, and the loop keeps serving metrics scrapes — the
/// observer sits outside the failure model.
fn fail_durable(
    engine: &mut SiteEngine,
    durable: &mut Option<DurableCtx>,
    timers: &mut Timers,
    manager: SiteId,
    outbound: &mut Vec<(SiteId, Vec<Message>)>,
    pool: &mut Vec<Vec<Message>>,
    err: miniraid_storage::StorageError,
) {
    eprintln!(
        "site {}: durable write failed ({err}); transitioning to down",
        engine.id().0
    );
    discard_outbound(outbound, pool);
    *durable = None;
    timers.clear();
    let _ = engine.handle_owned(Input::Deliver {
        from: manager,
        msg: Message::Mgmt(Command::Fail),
    });
}

/// Serve a metrics scrape without touching the engine state machine:
/// the reply goes straight out on the transport. Transport-layer, WAL
/// and timer counters are folded into the engine's metrics just before
/// rendering.
fn serve_metrics<T: Transport>(
    engine: &mut SiteEngine,
    transport: &T,
    obs: &Option<SiteObs>,
    durable: &Option<DurableCtx>,
    timers: &Timers,
    map: &Option<MapStore>,
    from: SiteId,
) {
    let stats = transport.stats();
    engine.note_transport(stats.retransmits, stats.dup_drops, stats.reconnects);
    engine.note_timers(timers.pending() as u64, timers.fired, timers.dropped_dead);
    if let Some(d) = durable {
        let c = d.store.counters();
        engine.note_wal(c.fsyncs(), c.commits(), c.records());
    }
    let mut text = match obs {
        Some(obs) => obs.render(engine),
        None => render_plain(engine),
    };
    if let Some(d) = durable {
        text.push_str(&miniraid_obs::expo::render_wal(
            engine.id(),
            d.store.counters().checkpoints(),
            d.store.log_bytes(),
        ));
    }
    // Only the TCP mailbox wakes on sockets, and a scrape that arrived
    // over one has woken it at least once.
    if stats.tcp_wakeups > 0 {
        text.push_str(&miniraid_obs::expo::render_tcp(
            engine.id(),
            stats.tcp_wakeups,
            stats.tcp_reads,
            stats.tcp_msgs_in,
        ));
    }
    if let Some(store) = map {
        text.push_str(&miniraid_obs::expo::render_reshard(
            engine.id(),
            store.epoch(),
            store.migrating_items(),
            store.copy_installs(),
        ));
    }
    let _ = transport.send(from, &Message::MetricsResponse { text });
}

/// Serve the site's `XDecisionLog` replica without touching the engine
/// state machine: like metrics scrapes, decision-log appends and
/// queries are answered even while the site is "down" — the log plays
/// the role of the site's stable storage, which survives an engine
/// crash the way the WAL does, and the quorum rule covers replicas
/// whose whole host is unreachable.
fn serve_xlog<T: Transport>(transport: &T, xlog: &mut XLogStore, from: SiteId, msg: Message) {
    let reply = match msg {
        Message::XLogAppend { epoch, record } => xlog.append(epoch, record),
        Message::XLogQuery { epoch } => xlog.query(epoch),
        _ => return,
    };
    let _ = transport.send(from, &reply);
}

/// Serve the site's shard-map store without touching the engine state
/// machine. Map installs and queries are answered even while the site
/// is "down" (like metrics scrapes and the decision log — the map is
/// routing state, not database state), `XLogRetire` garbage-collects
/// the decision-log replica once a cross-shard outcome is fully
/// acknowledged, and `Mgmt(Begin)` frames pass the admission gate: a
/// transaction routed under a stale or wrong-owner map is answered
/// with `WrongEpoch` instead of ever reaching the engine, which is
/// what makes stale-map coordinators unable to commit after a cutover.
///
/// Returns the message the engine should still see, or `None` when it
/// was fully handled (or rejected) here.
fn gate_map<T: Transport>(
    transport: &T,
    map: &mut Option<MapStore>,
    xlog: &mut XLogStore,
    from: SiteId,
    msg: Message,
) -> Option<Message> {
    match msg {
        Message::MapChange {
            epoch,
            assignment,
            migrating,
        } => {
            if let Some(store) = map.as_mut() {
                let ack = store.install(epoch, assignment, migrating);
                let _ = transport.send(from, &ack);
            }
            None
        }
        Message::MapQuery => {
            if let Some(store) = map.as_ref() {
                let _ = transport.send(from, &store.serve_query());
            }
            None
        }
        Message::XLogRetire { epoch, txn } => {
            // GC is fenced like appends: only the current coordinator
            // epoch (or a newer one) may drop a decision record.
            if epoch >= xlog.highest_epoch() {
                xlog.retire(txn);
            }
            None
        }
        msg @ (Message::Mgmt(Command::Begin(_)) | Message::Traced { .. }) => {
            let Some(store) = map.as_mut() else {
                return Some(msg);
            };
            let txn = match &msg {
                Message::Mgmt(Command::Begin(txn)) => Some(txn),
                Message::Traced { inner, .. } => match inner.as_ref() {
                    Message::Mgmt(Command::Begin(txn)) => Some(txn),
                    _ => None,
                },
                _ => None,
            };
            match txn {
                Some(t) => match store.admits(t) {
                    Ok(()) => Some(msg),
                    Err(epoch) => {
                        let _ = transport.send(from, &Message::WrongEpoch { txn: t.id, epoch });
                        None
                    }
                },
                None => Some(msg),
            }
        }
        msg => Some(msg),
    }
}

/// What a site runs with besides its engine and endpoints. Every part is
/// optional; `SiteParts::default()` is the paper's in-memory site.
#[derive(Default)]
pub struct SiteParts {
    /// WAL-backed durable store: every `Output::Persist` is logged, and
    /// fsynced before any message of the same mailbox drain leaves, so a
    /// restarted process can preload the committed image.
    pub store: Option<DurableStore>,
    /// Observability: metrics scrapes include latency histograms, and the
    /// JSONL trace (if any) is flushed when the site terminates.
    pub obs: Option<SiteObs>,
    /// Live shard-map store of a mapped (live-reshardable) deployment:
    /// the site answers `MapChange`/`MapQuery`, GC's its decision-log
    /// replica on `XLogRetire`, gates every incoming `Mgmt(Begin)`
    /// through the installed map (stale routes bounce with `WrongEpoch`),
    /// and appends the `miniraid_reshard_*` family to its metrics.
    pub map: Option<MapStore>,
}

/// Run one site until it terminates; the body of a dedicated thread
/// (see `ClusterBuilder`) or of a site process. The site answers
/// [`Message::MetricsRequest`] with a Prometheus-style text exposition
/// — with latency histograms when [`SiteParts::obs`] is attached, with
/// counters only otherwise. Metrics requests are answered even while
/// the site is "down": the observer is outside the failure model, like
/// the paper's measurement harness.
pub fn run_site<T: Transport, M: Mailbox>(
    mut engine: SiteEngine,
    transport: T,
    mailbox: M,
    manager: SiteId,
    timing: ClusterTiming,
    parts: SiteParts,
) {
    let SiteParts {
        store,
        obs,
        mut map,
    } = parts;
    let mut timers = Timers::default();
    let mut out: Vec<Output> = Vec::new();
    // This site's XDecisionLog replica (populated only when it belongs
    // to the designated log group of a sharded topology).
    let mut xlog = XLogStore::new();
    // Per-peer outbound frames under construction, and the buffer pool
    // they recycle through (no per-drain allocation in steady state).
    let mut outbound: Vec<(SiteId, Vec<Message>)> = Vec::new();
    let mut pool: Vec<Vec<Message>> = Vec::new();
    let mut durable = store.map(DurableCtx::new);

    loop {
        // Background replay after an instant restart: hydrate a chunk of
        // the engine's restart image per iteration, and keep iterations
        // short until replay completes.
        let hydrating = engine.hydration_remaining() > 0 && engine.hydrate_step(HYDRATE_CHUNK) > 0;

        // Forget timers nothing waits on any more and fire the due ones
        // among the rest (firing one can end the wait behind another).
        let mut now = Instant::now();
        loop {
            timers.purge(|id| engine.timer_live(id));
            let Some(id) = timers.pop_due(now) else {
                break;
            };
            out.clear();
            engine.handle(Input::Timer(id), &mut out);
            perform(
                &mut engine,
                &transport,
                manager,
                &timing,
                &mut timers,
                &mut out,
                &mut durable,
                &mut outbound,
                &mut pool,
            );
            now = Instant::now();
        }

        // Wait until the next timer deadline (or a polling default),
        // capped by background replay. After the purge that deadline is
        // one something still waits on: a site whose transactions
        // complete in time parks until a message arrives.
        let mut wait = timers
            .next_due()
            .map(|due| due.saturating_duration_since(now))
            .unwrap_or(Duration::from_millis(50));
        if hydrating {
            wait = wait.min(Duration::from_millis(1));
        }

        // Drain the whole mailbox this iteration: block for the first
        // message, then take whatever else is already queued. All outputs
        // accumulate so sends to the same peer coalesce into one frame —
        // and commit records from every transaction in the drain share
        // one fsync. The drain is the group: under load, what arrives
        // during one fsync is the next drain, so groups grow with the
        // fsync's cost and nothing waits for company.
        out.clear();
        let mut next = mailbox.recv_timeout(wait);
        let drained = next.is_ok();
        loop {
            match next {
                Ok((from, Message::MetricsRequest)) => {
                    serve_metrics(&mut engine, &transport, &obs, &durable, &timers, &map, from)
                }
                Ok((from, msg @ (Message::XLogAppend { .. } | Message::XLogQuery { .. }))) => {
                    serve_xlog(&transport, &mut xlog, from, msg)
                }
                Ok((from, msg)) => {
                    if let Some(msg) = gate_map(&transport, &mut map, &mut xlog, from, msg) {
                        engine.handle(Input::Deliver { from, msg }, &mut out)
                    }
                }
                Err(RecvError::Timeout) => break,
                Err(RecvError::Disconnected) => return,
            }
            next = mailbox.try_recv();
        }
        if drained {
            perform(
                &mut engine,
                &transport,
                manager,
                &timing,
                &mut timers,
                &mut out,
                &mut durable,
                &mut outbound,
                &mut pool,
            );
        }

        if engine.status() == SiteStatus::Terminating {
            if let Some(obs) = &obs {
                obs.flush();
            }
            return;
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn perform<T: Transport>(
    engine: &mut SiteEngine,
    transport: &T,
    manager: SiteId,
    timing: &ClusterTiming,
    timers: &mut Timers,
    out: &mut Vec<Output>,
    durable: &mut Option<DurableCtx>,
    outbound: &mut Vec<(SiteId, Vec<Message>)>,
    pool: &mut Vec<Vec<Message>>,
) {
    // Sends are grouped per destination and flushed as one frame each
    // (`Transport::send_batch`), preserving per-peer FIFO order. Persist
    // outputs only *append* REDO records; the one fsync that covers them
    // all comes after the loop, before any frame leaves.
    let mut persist_error: Option<miniraid_storage::StorageError> = None;
    let now = Instant::now();
    for output in out.drain(..) {
        if persist_error.is_some() {
            break;
        }
        let mut queue =
            |to: SiteId, msg: Message| match outbound.iter_mut().find(|(peer, _)| *peer == to) {
                Some((_, msgs)) => msgs.push(msg),
                None => {
                    let mut msgs = pool.pop().unwrap_or_default();
                    msgs.push(msg);
                    outbound.push((to, msgs));
                }
            };
        match output {
            Output::Persist {
                txn,
                writes,
                faillocks,
            } => {
                if let Some(d) = durable.as_mut() {
                    d.write_scratch.clear();
                    d.write_scratch
                        .extend(writes.iter().map(|(item, v)| (item.0, *v)));
                    d.lock_scratch.clear();
                    d.lock_scratch
                        .extend(faillocks.iter().map(|(item, w)| (item.0, *w)));
                    // One self-contained REDO record carries the write
                    // set and its fail-lock words; lock-only traffic
                    // (e.g. clears) rides a standalone record. Neither
                    // forces an fsync of its own.
                    let res = if d.write_scratch.is_empty() {
                        d.store.log_faillocks(&d.lock_scratch)
                    } else {
                        d.pending_txns.push(txn);
                        d.store
                            .commit_with_locks(txn.0, &d.write_scratch, &d.lock_scratch)
                    };
                    if let Err(err) = res {
                        persist_error = Some(err);
                    }
                }
            }
            Output::Send { to, msg } => queue(to, wrap_traced(engine, msg)),
            Output::SetTimer(id) => timers.arm(now + timing.duration(id), id),
            Output::Report(report) => {
                queue(manager, wrap_traced(engine, Message::MgmtReport(report)))
            }
            Output::BecameOperational { session } => {
                if let Some(d) = durable.as_mut() {
                    // Buffered append: the MgmtRecovered announcement
                    // below leaves after the drain's fsync covers it.
                    if let Err(err) = d.store.log_session(session.0) {
                        persist_error = Some(err);
                        continue;
                    }
                }
                queue(manager, Message::MgmtRecovered { session });
            }
            Output::DataRecoveryComplete => {
                let session = engine.session();
                queue(manager, Message::MgmtDataRecovered { session });
            }
            Output::RecoveryFailed | Output::Work(_) => {} // Persist handled above.
        }
    }
    // The group commit: one fsync for everything this drain appended (a
    // no-op if it appended nothing), then the drain's frames. Nothing is
    // held across drains, so each peer receives its messages in output
    // order, and none leaves before the fsync covering what it claims.
    let synced = match (persist_error, durable.as_mut()) {
        (Some(err), _) => Err(err),
        (None, Some(d)) => sync_durable(engine, d),
        (None, None) => Ok(()),
    };
    if let Err(err) = synced {
        return fail_durable(engine, durable, timers, manager, outbound, pool, err);
    }
    flush_outbound(engine, transport, outbound, pool);
    // With the frames gone, one call keeps the log bounded: it rotates
    // the log when it has outgrown its snapshot (the snapshot of the
    // engine's table is written off this thread) and reports a failed
    // snapshot write.
    if let Some(d) = durable.as_mut() {
        if let Err(err) = d.store.checkpoint_if_due(|| engine.checkpoint_view()) {
            fail_durable(engine, durable, timers, manager, outbound, pool, err);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing() -> ClusterTiming {
        ClusterTiming {
            ack_timeout: Duration::from_millis(30),
            commit_ack_timeout: Duration::from_millis(30),
            participant_timeout: Duration::from_millis(100),
            copier_timeout: Duration::from_millis(20),
            read_timeout: Duration::from_millis(20),
            recovery_timeout: Duration::from_millis(50),
            batch_copier_delay: Duration::from_millis(1),
        }
    }

    /// Arm `ids` the way `perform` does, `step` apart, and return the
    /// `(due, arm order, id)` of each.
    fn arm_all(
        timers: &mut Timers,
        start: Instant,
        step: Duration,
        ids: &[TimerId],
    ) -> Vec<(Instant, usize, TimerId)> {
        let timing = timing();
        let mut armed = Vec::new();
        for (k, id) in ids.iter().enumerate() {
            let due = start + step * k as u32 + timing.duration(*id);
            timers.arm(due, *id);
            armed.push((due, k, *id));
        }
        armed
    }

    #[test]
    fn fire_order_is_deadline_then_arm_order() {
        let ids = [
            TimerId::ParticipantTimeout(TxnId(1)),
            TimerId::AckTimeout(TxnId(2)),
            TimerId::BatchCopier,
            TimerId::CopierTimeout(miniraid_core::ids::ReqId(3)),
            TimerId::RecoveryInfoTimeout(0),
            TimerId::CommitAckTimeout(TxnId(2)),
            TimerId::ReadTimeout(miniraid_core::ids::ReqId(4)),
            TimerId::AckTimeout(TxnId(5)),
            TimerId::ParticipantTimeout(TxnId(5)),
            TimerId::BatchCopier,
        ];
        // With all arms at one instant equal durations tie and arm order
        // decides; 7 ms apart, the durations interleave the kinds.
        for step in [Duration::ZERO, Duration::from_millis(7)] {
            let mut timers = Timers::default();
            let start = Instant::now();
            let mut expected = arm_all(&mut timers, start, step, &ids);
            expected.sort_by_key(|(due, seq, _)| (*due, *seq));
            assert_eq!(timers.pending(), ids.len());
            assert_eq!(timers.next_due(), Some(expected[0].0));

            let end = start + Duration::from_secs(1);
            let fired: Vec<TimerId> = std::iter::from_fn(|| timers.pop_due(end)).collect();
            let expected: Vec<TimerId> = expected.into_iter().map(|(_, _, id)| id).collect();
            assert_eq!(fired, expected);
            assert_eq!((timers.pending(), timers.fired), (0, ids.len() as u64));
        }
    }

    #[test]
    fn nothing_fires_before_its_deadline() {
        let mut timers = Timers::default();
        let start = Instant::now();
        arm_all(
            &mut timers,
            start,
            Duration::ZERO,
            &[TimerId::AckTimeout(TxnId(1))],
        );
        assert_eq!(timers.pop_due(start + Duration::from_millis(29)), None);
        assert_eq!(
            timers.pop_due(start + Duration::from_millis(30)),
            Some(TimerId::AckTimeout(TxnId(1)))
        );
    }

    #[test]
    fn purge_drops_dead_fronts_and_stops_at_the_first_live_one() {
        let mut timers = Timers::default();
        let ack = |t| TimerId::AckTimeout(TxnId(t));
        let ids = [
            ack(1),
            ack(2),
            ack(3),
            ack(4),
            TimerId::ParticipantTimeout(TxnId(1)),
        ];
        arm_all(&mut timers, Instant::now(), Duration::from_millis(1), &ids);
        // 1, 2 and 4 completed; 3 still waits, so 4 stays queued behind it.
        let live = |id: &TimerId| *id == ack(3) || matches!(id, TimerId::ParticipantTimeout(_));
        timers.purge(live);
        assert_eq!((timers.pending(), timers.dropped_dead), (3, 2));
        timers.purge(live);
        assert_eq!(
            (timers.pending(), timers.dropped_dead),
            (3, 2),
            "idempotent"
        );
        // Once 3 completes too, its queue empties; the other is untouched.
        timers.purge(|id| matches!(id, TimerId::ParticipantTimeout(_)));
        assert_eq!((timers.pending(), timers.dropped_dead), (1, 4));
        assert_eq!(timers.fired, 0);

        timers.clear();
        assert_eq!((timers.pending(), timers.next_due()), (0, None));
    }

    #[test]
    fn a_rearmed_participant_timeout_keeps_both_entries() {
        // A redelivered CopyUpdate arms the same id again. While the
        // transaction is pending both entries are live and stay queued,
        // as they did in the heap (in the loop, the first to fire ends
        // the wait and the purge then drops the other).
        let mut timers = Timers::default();
        let id = TimerId::ParticipantTimeout(TxnId(9));
        let start = Instant::now();
        arm_all(&mut timers, start, Duration::from_millis(5), &[id, id]);
        timers.purge(|_| true);
        assert_eq!(timers.pending(), 2);
        let end = start + Duration::from_secs(1);
        assert_eq!(timers.pop_due(end), Some(id));
        assert_eq!(timers.pop_due(end), Some(id));
        assert_eq!(timers.pop_due(end), None);
    }

    // ---- the durability rule: one fsync per drain, sends after it ------

    use std::sync::{Arc, Mutex};

    use miniraid_core::config::ProtocolConfig;
    use miniraid_core::ids::{ItemId, SessionNumber};
    use miniraid_storage::{ItemValue, WalCounters};

    /// One frame as it left, with the WAL's record and fsync counts at
    /// that instant.
    #[derive(Debug)]
    struct Sent {
        to: SiteId,
        msgs: Vec<Message>,
        records: u64,
        fsyncs: u64,
    }

    struct Recorder {
        wal: Arc<WalCounters>,
        sent: Mutex<Vec<Sent>>,
    }

    impl Transport for Recorder {
        fn send(&self, to: SiteId, msg: &Message) -> Result<(), miniraid_net::NetError> {
            self.send_batch(to, std::slice::from_ref(msg))
        }

        fn send_batch(&self, to: SiteId, msgs: &[Message]) -> Result<(), miniraid_net::NetError> {
            self.sent.lock().unwrap().push(Sent {
                to,
                msgs: msgs.to_vec(),
                records: self.wal.records(),
                fsyncs: self.wal.fsyncs(),
            });
            Ok(())
        }

        fn local_id(&self) -> SiteId {
            SiteId(0)
        }
    }

    const MANAGER: SiteId = SiteId(3);

    /// Site 0 of three with a real store in a temp dir, driven one
    /// drain (one `perform`) at a time.
    struct Drains {
        engine: SiteEngine,
        transport: Recorder,
        timers: Timers,
        durable: Option<DurableCtx>,
        outbound: Vec<(SiteId, Vec<Message>)>,
        pool: Vec<Vec<Message>>,
        dir: std::path::PathBuf,
    }

    impl Drains {
        fn new(name: &str) -> Drains {
            let dir = std::env::temp_dir()
                .join(format!("miniraid-site-drain-{name}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let store = DurableStore::open(&dir, 16).unwrap();
            let config = ProtocolConfig {
                db_size: 16,
                n_sites: 3,
                emit_persistence: true,
                ..ProtocolConfig::default()
            };
            Drains {
                engine: SiteEngine::new(SiteId(0), config),
                transport: Recorder {
                    wal: store.counters(),
                    sent: Mutex::new(Vec::new()),
                },
                timers: Timers::default(),
                durable: Some(DurableCtx::new(store)),
                outbound: Vec::new(),
                pool: Vec::new(),
                dir,
            }
        }

        fn drain(&mut self, outputs: Vec<Output>) {
            let mut out = outputs;
            perform(
                &mut self.engine,
                &self.transport,
                MANAGER,
                &timing(),
                &mut self.timers,
                &mut out,
                &mut self.durable,
                &mut self.outbound,
                &mut self.pool,
            );
        }

        fn sent(&self) -> std::sync::MutexGuard<'_, Vec<Sent>> {
            self.transport.sent.lock().unwrap()
        }

        fn wal(&self) -> (u64, u64) {
            (self.transport.wal.records(), self.transport.wal.fsyncs())
        }
    }

    impl Drop for Drains {
        fn drop(&mut self) {
            self.durable = None;
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }

    fn persist(txn: u64) -> Output {
        Output::Persist {
            txn: TxnId(txn),
            writes: vec![(ItemId(txn as u32), ItemValue::new(txn, txn))],
            faillocks: Vec::new(),
        }
    }

    /// A message that says which output it came from.
    fn send(to: u8, tag: u64) -> Output {
        Output::Send {
            to: SiteId(to),
            msg: Message::XLogQuery { epoch: tag },
        }
    }

    #[test]
    fn a_drain_that_persists_is_one_fsync_and_every_send_follows_it() {
        let mut d = Drains::new("one-fsync");
        let mut outputs = Vec::new();
        for k in 1..=5 {
            outputs.push(persist(k));
            outputs.push(send(1 + (k % 2) as u8, k));
        }
        d.drain(outputs);
        assert_eq!(d.wal(), (5, 1), "five records, one fsync");
        let sent = d.sent();
        assert_eq!(sent.len(), 2, "one frame per peer");
        for frame in sent.iter() {
            assert_eq!((frame.records, frame.fsyncs), (5, 1), "{frame:?}");
        }
    }

    #[test]
    fn a_drain_without_persist_costs_no_fsync_and_sends_at_once() {
        let mut d = Drains::new("no-fsync");
        d.drain(vec![send(1, 1), send(2, 2), send(1, 3)]);
        assert_eq!(d.wal(), (0, 0));
        let sent = d.sent();
        assert_eq!(sent.len(), 2);
        assert!(sent.iter().all(|f| (f.records, f.fsyncs) == (0, 0)));
    }

    #[test]
    fn a_recovery_announcement_leaves_after_its_session_record_is_synced() {
        let mut d = Drains::new("session");
        d.drain(vec![Output::BecameOperational {
            session: SessionNumber(3),
        }]);
        let sent = d.sent();
        assert_eq!(sent.len(), 1);
        assert_eq!(sent[0].to, MANAGER);
        assert_eq!(
            sent[0].msgs,
            [Message::MgmtRecovered {
                session: SessionNumber(3)
            }]
        );
        assert_eq!((sent[0].records, sent[0].fsyncs), (1, 1));
        drop(sent);
        drop(d.durable.take());
        let mut store = DurableStore::open(&d.dir, 16).unwrap();
        assert_eq!(store.take_recovered().unwrap().session, 3);
    }

    #[test]
    fn a_checkpoint_starts_after_the_frames_and_a_failed_snapshot_steps_the_site_down() {
        let mut d = Drains::new("snapshot-fails");
        // A directory where the snapshot goes: its rename must fail.
        std::fs::create_dir_all(d.dir.join("site.snap").join("in-the-way")).unwrap();
        let all_items = || Output::Persist {
            txn: TxnId(1),
            writes: (0..16).map(|i| (ItemId(i), ItemValue::new(1, 1))).collect(),
            faillocks: Vec::new(),
        };
        // Three such records outgrow four 16-item snapshots (4 x 276 B).
        d.drain(vec![all_items(), all_items(), all_items(), send(1, 1)]);
        let first = d.sent().first().map(|f| (f.records, f.fsyncs));
        assert_eq!(
            first,
            Some((3, 1)),
            "the frame left before the rotation logged anything"
        );
        assert!(d.dir.join("site.redo.prev").exists(), "the log rotated");
        // The next drain after the snapshot writer gave up collects its
        // error and steps the site down.
        let deadline = Instant::now() + Duration::from_secs(5);
        while d.durable.is_some() {
            assert!(Instant::now() < deadline, "the failure never surfaced");
            std::thread::sleep(Duration::from_millis(5));
            d.drain(Vec::new());
        }
        assert_eq!(d.engine.status(), SiteStatus::Down);
    }

    #[test]
    fn per_peer_order_is_output_order_across_drains() {
        let mut d = Drains::new("fifo");
        let first = vec![
            send(1, 1),
            persist(1),
            send(2, 2),
            send(1, 3),
            persist(2),
            send(1, 4),
            send(2, 5),
        ];
        let second = vec![send(2, 6), send(1, 7)];
        let mut expected: Vec<(SiteId, u64)> = Vec::new();
        for output in first.iter().chain(&second) {
            if let Output::Send {
                to,
                msg: Message::XLogQuery { epoch },
            } = output
            {
                expected.push((*to, *epoch));
            }
        }
        d.drain(first);
        d.drain(second);
        assert_eq!(d.wal(), (2, 1), "the second drain appended nothing");
        let sent = d.sent();
        assert_eq!(sent.len(), 4, "two frames per drain, nothing held over");
        for peer in [SiteId(1), SiteId(2)] {
            let got: Vec<u64> = sent
                .iter()
                .filter(|f| f.to == peer)
                .flat_map(|f| &f.msgs)
                .map(|m| match m {
                    Message::XLogQuery { epoch } => *epoch,
                    other => panic!("unexpected {other:?}"),
                })
                .collect();
            let want: Vec<u64> = expected
                .iter()
                .filter(|(to, _)| *to == peer)
                .map(|(_, tag)| *tag)
                .collect();
            assert_eq!(got, want, "peer {}", peer.0);
        }
    }
}
