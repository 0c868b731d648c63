//! The traced run: replay the head of a workload's seeded stream through
//! the layers single-threaded, inside the benchmark process, one
//! transaction to quiescence at a time, with a span around every call.
//!
//! Generator -> (sharded) router, cross-shard coordinator, decision log
//! -> engines; every message an engine emits goes through the codec
//! (and, like on the wire, inside its shard envelope); every `Persist`
//! of a durable workload is appended and fsynced. Calls are sequential,
//! so a span's self time is its duration, and counts repeat exactly for
//! a given seed.

use std::collections::{BTreeMap, VecDeque};
use std::path::Path;
use std::time::Instant;

use crate::span::{blocking_path, Span, SpanId, NONE};
use crate::stats::{percentile, ratio};
use crate::sut::{
    decode, encode_into, Command, Engine, Input, Message, Output, Route, ShardLayer, SiteId, Store,
    SutSpec, TimerId, Topology, Transaction, TxnId, WireBuf, XAction, XDecisionRecord, XLog,
};
use crate::workload::{stamp, Stream};

/// Calls the walk times, each into one layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Gen,
    Route,
    XCoord,
    XLogCall,
    Encode,
    Decode,
    HandleCoord,
    HandlePart,
    HandleTimer,
    HandleControl,
    Append,
    Sync,
}

const OPS: usize = Op::Sync as usize + 1;

impl Op {
    fn layer(self) -> &'static str {
        match self {
            Op::Gen => "txn",
            Op::Route | Op::XCoord | Op::XLogCall => "shard",
            Op::Encode | Op::Decode => "net",
            Op::HandleCoord | Op::HandlePart | Op::HandleTimer | Op::HandleControl => "core",
            Op::Append | Op::Sync => "storage",
        }
    }

    fn name(self) -> &'static str {
        match self {
            Op::Gen => "next_txn",
            Op::Route => "classify",
            Op::XCoord => "xcoord",
            Op::XLogCall => "xlog",
            Op::Encode => "encode",
            Op::Decode => "decode",
            Op::HandleCoord => "handle@coordinator",
            Op::HandlePart => "handle@participant",
            Op::HandleTimer => "handle timer",
            Op::HandleControl => "handle command",
            Op::Append => "commit_with_locks",
            Op::Sync => "sync",
        }
    }
}

/// Spans and per-call totals. With `on` false nothing is timed: that is
/// the span-free pass the overhead is measured against.
struct Recorder {
    on: bool,
    /// Keep the current transaction's spans (totals are kept regardless).
    keep: bool,
    epoch: Instant,
    txn: u64,
    spans: Vec<Span>,
    calls: [u64; OPS],
    ns: [u64; OPS],
}

impl Recorder {
    fn timed<R>(
        &mut self,
        op: Op,
        what: &'static str,
        parent: SpanId,
        f: impl FnOnce() -> R,
    ) -> (R, SpanId) {
        if !self.on {
            return (f(), NONE);
        }
        let start = self.epoch.elapsed().as_nanos() as u64;
        let r = f();
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.calls[op as usize] += 1;
        self.ns[op as usize] += end - start;
        if !self.keep {
            return (r, NONE);
        }
        self.spans.push(Span {
            name: op.name(),
            what,
            layer: op.layer(),
            txn: self.txn,
            start_ns: start,
            end_ns: end,
            parent,
        });
        (r, (self.spans.len() - 1) as SpanId)
    }
}

/// The client endpoint's address in a hop.
const MANAGER: usize = usize::MAX;

struct Hop {
    from: usize,
    to: usize,
    msg: Message,
    cause: SpanId,
}

/// What the walked transactions add up to; the per-layer metrics are
/// ratios of these.
#[derive(Debug, Default)]
struct Tally {
    txns: u64,
    readonly_txns: u64,
    cross_txns: u64,
    msgs: u64,
    readonly_msgs: u64,
    cross_msgs: u64,
    bytes: u64,
    handle_calls: u64,
    coord_ns: u64,
    part_ns: u64,
    xlog_appends: u64,
    copy_serve_ns: u64,
    copy_items: u64,
    /// Blocking-path sum of every transaction whose spans were kept, ns.
    paths: Vec<u64>,
}

struct Walker {
    rec: Recorder,
    n_sites: usize,
    sharded: bool,
    engines: Vec<Engine>,
    stores: Vec<Option<Store>>,
    /// Armed timers per engine, in arming order, with the span that armed them.
    timers: Vec<Vec<(TimerId, SpanId)>>,
    queue: VecDeque<Hop>,
    /// What reached the client endpoint: `(from, message, decode span)`.
    inbox: Vec<(usize, Message, SpanId)>,
    buf: WireBuf,
    out: Vec<Output>,
    /// Coordinating engines of the transaction being walked.
    coords: Vec<usize>,
    next_coord: Vec<usize>,
    up: Vec<bool>,
    became_operational: bool,
    data_recovered: bool,
    tally: Tally,
    /// Tally-relevant context of the transaction being walked.
    in_readonly: bool,
    in_cross: bool,
}

impl Walker {
    fn new(spec: &SutSpec, dir: &Path, on: bool) -> std::io::Result<Walker> {
        let n = spec.physical_sites() as usize;
        let durable = matches!(spec.topology, Topology::Durable { .. });
        let mut stores = Vec::new();
        for p in 0..n {
            stores.push(if durable {
                Some(Store::open(
                    &dir.join(format!("walk-site-{p}")),
                    spec.db_size,
                )?)
            } else {
                None
            });
        }
        Ok(Walker {
            rec: Recorder {
                on,
                keep: on,
                epoch: Instant::now(),
                txn: 0,
                spans: Vec::new(),
                calls: [0; OPS],
                ns: [0; OPS],
            },
            n_sites: spec.n_sites as usize,
            sharded: spec.groups() > 1,
            engines: (0..n)
                .map(|p| Engine::new(SiteId((p % spec.n_sites as usize) as u8), spec))
                .collect(),
            stores,
            timers: vec![Vec::new(); n],
            queue: VecDeque::new(),
            inbox: Vec::new(),
            buf: WireBuf::new(),
            out: Vec::new(),
            coords: Vec::new(),
            next_coord: vec![0; spec.groups() as usize],
            up: vec![true; n],
            became_operational: false,
            data_recovered: false,
            tally: Tally::default(),
            in_readonly: false,
            in_cross: false,
        })
    }

    fn group_of(&self, physical: usize) -> usize {
        physical / self.n_sites
    }

    /// Round-robin over the group's engines believed up.
    fn pick_coordinator(&mut self, group: usize) -> usize {
        loop {
            let local = self.next_coord[group];
            self.next_coord[group] = (local + 1) % self.n_sites;
            let p = group * self.n_sites + local;
            if self.up[p] {
                return p;
            }
        }
    }

    fn count_msg(&mut self, bytes: usize) {
        self.tally.msgs += 1;
        self.tally.bytes += bytes as u64;
        if self.in_readonly {
            self.tally.readonly_msgs += 1;
        }
        if self.in_cross {
            self.tally.cross_msgs += 1;
        }
    }

    /// One message over the wire: encode, decode, and hand to whoever it
    /// is for. Returns the decode span.
    fn wire(&mut self, hop: &Hop) -> (Message, SpanId) {
        let kind = hop.msg.kind();
        // Between sharded sites and their client every frame travels in
        // its group's envelope.
        let group = self.group_of(if hop.to == MANAGER { hop.from } else { hop.to });
        let framed;
        let on_wire = if self.sharded {
            framed = Message::ShardEnv {
                shard: group as u8,
                inner: Box::new(hop.msg.clone()),
            };
            &framed
        } else {
            &hop.msg
        };
        let buf = &mut self.buf;
        let (_, enc) = self
            .rec
            .timed(Op::Encode, kind, hop.cause, || encode_into(buf, on_wire));
        let len = self.buf.as_slice().len();
        self.count_msg(len);
        let bytes = self.buf.as_slice();
        let (msg, dec) = self.rec.timed(Op::Decode, kind, enc, || decode(bytes));
        let msg = match msg {
            Message::ShardEnv { inner, .. } => *inner,
            plain => plain,
        };
        (msg, dec)
    }

    fn deliver(&mut self, hop: Hop) {
        let (msg, dec) = self.wire(&hop);
        if hop.to == MANAGER {
            self.inbox.push((hop.from, msg, dec));
            return;
        }
        let from = if hop.from == MANAGER {
            SiteId(self.n_sites as u8)
        } else {
            SiteId((hop.from % self.n_sites) as u8)
        };
        let copy_items = match &msg {
            Message::CopyRequest { items, .. } => items.len() as u64,
            _ => 0,
        };
        let op = if self.coords.contains(&hop.to) {
            Op::HandleCoord
        } else {
            Op::HandlePart
        };
        let kind = msg.kind();
        let before = self.rec.ns[op as usize];
        self.handle(hop.to, op, kind, dec, Input::Deliver { from, msg });
        let spent = self.rec.ns[op as usize] - before;
        self.tally.handle_calls += 1;
        match op {
            Op::HandleCoord => self.tally.coord_ns += spent,
            _ => self.tally.part_ns += spent,
        }
        if copy_items > 0 {
            self.tally.copy_serve_ns += spent;
            self.tally.copy_items += copy_items;
        }
    }

    /// One timed `SiteEngine::handle` at engine `at`, its outputs carried
    /// out. Returns the call's span.
    fn handle(
        &mut self,
        at: usize,
        op: Op,
        what: &'static str,
        parent: SpanId,
        input: Input,
    ) -> SpanId {
        let mut out = std::mem::take(&mut self.out);
        let engine = &mut self.engines[at];
        let (_, span) = self
            .rec
            .timed(op, what, parent, || engine.handle(input, &mut out));
        self.perform(at, span, &mut out);
        self.out = out;
        span
    }

    /// Carry out an engine's outputs the way the site loop does.
    fn perform(&mut self, at: usize, mut cause: SpanId, out: &mut Vec<Output>) {
        let base = self.group_of(at) * self.n_sites;
        for output in out.drain(..) {
            match output {
                Output::Send { to, msg } => {
                    let to = if to.index() == self.n_sites {
                        MANAGER
                    } else {
                        base + to.index()
                    };
                    self.queue.push_back(Hop {
                        from: at,
                        to,
                        msg,
                        cause,
                    });
                }
                Output::Report(report) => self.queue.push_back(Hop {
                    from: at,
                    to: MANAGER,
                    msg: Message::MgmtReport(report),
                    cause,
                }),
                Output::SetTimer(id) => self.timers[at].push((id, cause)),
                Output::Persist {
                    txn,
                    writes,
                    faillocks,
                } => {
                    if let Some(store) = self.stores[at].as_mut() {
                        let (_, a) = self.rec.timed(Op::Append, "", cause, || {
                            store.append(txn, &writes, &faillocks)
                        });
                        // Durability precedes every message that
                        // announces it: later sends hang off the fsync.
                        let (_, s) = self.rec.timed(Op::Sync, "", a, || store.sync());
                        cause = s;
                    }
                }
                Output::BecameOperational { .. } => self.became_operational = true,
                Output::DataRecoveryComplete => self.data_recovered = true,
                Output::RecoveryFailed | Output::Work(_) => {}
            }
        }
    }

    fn drain_queue(&mut self) {
        while let Some(hop) = self.queue.pop_front() {
            self.deliver(hop);
        }
    }

    fn control(&mut self, at: usize, cmd: Command, what: &'static str) -> SpanId {
        self.handle(at, Op::HandleControl, what, NONE, Input::Control(cmd))
    }

    /// Fire the first armed timer at `at` that `pick` selects.
    fn fire(&mut self, at: usize, pick: impl Fn(&TimerId) -> bool) -> bool {
        let Some(pos) = self.timers[at].iter().position(|(id, _)| pick(id)) else {
            return false;
        };
        let (id, cause) = self.timers[at].remove(pos);
        self.handle(at, Op::HandleTimer, "", cause, Input::Timer(id));
        true
    }

    /// Timers of a finished transaction are stale; recovery's stay armed.
    fn drop_stale_timers(&mut self) {
        for t in &mut self.timers {
            t.retain(|(id, _)| {
                matches!(id, TimerId::BatchCopier | TimerId::RecoveryInfoTimeout(_))
            });
        }
    }

    /// Whether the client's inbox holds `txn`'s report, and its outcome.
    fn reported(&self, txn: TxnId) -> Option<bool> {
        self.inbox.iter().find_map(|(_, m, _)| match m {
            Message::MgmtReport(r) if r.txn == txn => Some(r.outcome.is_committed()),
            _ => None,
        })
    }

    /// Walk one single-group transaction (local item names) at `coord`
    /// to its report. A coordinator left waiting on a dead participant
    /// gets its ack timer fired, as its site loop eventually would.
    fn single(&mut self, coord: usize, txn: Transaction, cause: SpanId) -> bool {
        let id = txn.id;
        self.coords.clear();
        self.coords.push(coord);
        self.queue.push_back(Hop {
            from: MANAGER,
            to: coord,
            msg: Message::Mgmt(Command::Begin(txn)),
            cause,
        });
        loop {
            self.drain_queue();
            if let Some(committed) = self.reported(id) {
                return committed;
            }
            let fired = self.fire(
                coord,
                |t| matches!(t, TimerId::AckTimeout(t) | TimerId::CommitAckTimeout(t) if *t == id),
            );
            assert!(fired, "{id} is stuck with no timer to fire");
        }
    }

    /// Replicate a decision record to every log replica (group 0's
    /// sites) and collect the acks; the quorum-completing ack causes
    /// whatever was waiting on the record.
    fn log_append(
        &mut self,
        shard: &ShardLayer,
        xlogs: &mut [XLog],
        record: &XDecisionRecord,
        cause: SpanId,
    ) -> SpanId {
        const EPOCH: u64 = 1;
        let mut last = cause;
        for (r, xlog) in xlogs.iter_mut().enumerate() {
            let site = shard.physical_site(0, SiteId(r as u8)).index();
            let hop = Hop {
                from: MANAGER,
                to: site,
                msg: Message::XLogAppend {
                    epoch: EPOCH,
                    record: record.clone(),
                },
                cause,
            };
            let (msg, dec) = self.wire(&hop);
            let Message::XLogAppend { epoch, record } = msg else {
                unreachable!("decoded what was encoded")
            };
            let (ack, span) = self
                .rec
                .timed(Op::XLogCall, "append", dec, || xlog.append(epoch, record));
            self.tally.xlog_appends += 1;
            let back = Hop {
                from: site,
                to: MANAGER,
                msg: ack,
                cause: span,
            };
            last = self.wire(&back).1;
        }
        last
    }

    /// Walk one cross-shard transaction through the top-level 2PC.
    fn cross(
        &mut self,
        shard: &mut ShardLayer,
        xlogs: &mut [XLog],
        branches: Vec<(u8, Transaction)>,
        cause: SpanId,
    ) -> bool {
        let id = branches[0].1.id;
        let xc = &mut shard.xcoord;
        let (actions, begun) = self
            .rec
            .timed(Op::XCoord, "begin", cause, || xc.begin(branches.clone()));
        // Replicate-then-act: the begin record is on the log before any
        // prepare leaves.
        let mut record = XDecisionRecord {
            txn: id,
            branches,
            votes: Vec::new(),
            outcome: None,
        };
        let logged = self.log_append(shard, xlogs, &record, begun);
        self.coords.clear();
        let mut branch_coord = BTreeMap::new();
        for action in actions {
            if let XAction::Prepare { group, branch } = action {
                let coord = self.pick_coordinator(group as usize);
                self.coords.push(coord);
                branch_coord.insert(group, coord);
                self.queue.push_back(Hop {
                    from: MANAGER,
                    to: coord,
                    msg: Message::ShardPrepare { txn: branch },
                    cause: logged,
                });
            }
        }
        let mut outcome = None;
        while outcome.is_none() {
            self.drain_queue();
            assert!(!self.inbox.is_empty(), "{id}: cross-shard commit is stuck");
            for (from, msg, span) in std::mem::take(&mut self.inbox) {
                let group = self.group_of(from) as u8;
                let xc = &mut shard.xcoord;
                let actions = match msg {
                    Message::ShardVote { txn, ok } => {
                        record.votes.push((group, ok));
                        self.rec
                            .timed(Op::XCoord, "on_vote", span, || xc.on_vote(group, txn, ok))
                    }
                    Message::MgmtReport(r) => {
                        self.rec.timed(Op::XCoord, "on_branch_report", span, || {
                            xc.on_branch_report(
                                group,
                                r.txn,
                                r.outcome.is_committed(),
                                &r.read_results,
                            )
                        })
                    }
                    other => panic!("{id}: unexpected {} at the client", other.kind()),
                };
                let (actions, mut cause) = actions;
                let mut commit_logged = false;
                for action in actions {
                    match action {
                        XAction::Decide { group, txn, commit } => {
                            if commit && !commit_logged {
                                // The commit record is on the log before
                                // any commit decide leaves.
                                record.outcome = Some(true);
                                cause = self.log_append(shard, xlogs, &record, cause);
                                commit_logged = true;
                            }
                            self.queue.push_back(Hop {
                                from: MANAGER,
                                to: branch_coord[&group],
                                msg: Message::ShardDecide { txn, commit },
                                cause,
                            });
                        }
                        XAction::Finished { txn, committed, .. } => {
                            for (r, xlog) in xlogs.iter_mut().enumerate() {
                                let hop = Hop {
                                    from: MANAGER,
                                    to: shard.physical_site(0, SiteId(r as u8)).index(),
                                    msg: Message::XLogRetire { epoch: 1, txn },
                                    cause,
                                };
                                let (_, dec) = self.wire(&hop);
                                self.rec
                                    .timed(Op::XLogCall, "retire", dec, || xlog.retire(txn));
                            }
                            outcome = Some(committed);
                        }
                        XAction::Prepare { .. } => unreachable!("prepares come from begin"),
                    }
                }
            }
        }
        outcome.expect("loop ends with an outcome")
    }
}

/// How the walk of `fail-recover` is shaped.
#[derive(Debug, Clone, Copy)]
pub struct FailPlan {
    /// Committed transactions while the failed engine is down.
    pub down_txns: u64,
}

/// One batch-copier round is fired per this many foreground
/// transactions of the recovering period: the live site loop's 1 ms
/// copier delay at roughly 30 k txn/s.
const TXNS_PER_COPIER_ROUND: u64 = 32;
/// Transactions of a walk (of each period of the `fail-recover` walk)
/// whose spans are kept; totals cover all of them. Some 25 spans a
/// transaction at 110 bytes a line: 5 000 keep a span file near 14 MB,
/// whose write-back does not slow the next run down.
const SPAN_TXNS: u64 = 5_000;

pub struct WalkResult {
    /// Per-layer metrics by name.
    pub metrics: BTreeMap<&'static str, f64>,
    pub spans: Vec<Span>,
    /// Wall time of the whole pass, ns.
    pub wall_ns: u64,
}

/// Replay the first `txns` transactions of `stream`. With `spans` false
/// nothing is timed but the pass as a whole.
pub fn walk(
    spec: &SutSpec,
    stream: &mut Stream,
    txns: usize,
    dir: &Path,
    spans: bool,
    fail: Option<FailPlan>,
) -> std::io::Result<WalkResult> {
    let mut w = Walker::new(spec, dir, spans)?;
    let mut shard = w.sharded.then(|| ShardLayer::new(spec));
    let mut xlogs: Vec<XLog> = (0..if w.sharded { w.n_sites } else { 0 })
        .map(|_| XLog::new())
        .collect();
    let mut next_id = 0u64;
    let mut metrics = BTreeMap::new();
    let started = Instant::now();

    // One logical transaction: generate, route, walk; an aborted one is
    // walked again under a fresh id, as the closed loop resubmits it.
    let mut one = |w: &mut Walker, shard: &mut Option<ShardLayer>, xlogs: &mut Vec<XLog>| {
        next_id += 1;
        w.rec.txn = next_id;
        let (mut txn, gen) = w
            .rec
            .timed(Op::Gen, "", NONE, || stream.next_txn(TxnId(next_id)));
        loop {
            w.in_readonly = txn.is_read_only();
            w.tally.txns += 1;
            w.tally.readonly_txns += w.in_readonly as u64;
            let first_span = w.rec.spans.len();
            let committed = match shard {
                None => {
                    let coord = w.pick_coordinator(0);
                    w.single(coord, txn.clone(), gen)
                }
                Some(shard) => {
                    let s = &*shard;
                    let (route, routed) = w.rec.timed(Op::Route, "", gen, || s.classify(&txn));
                    match route {
                        Route::Single { group, txn } => {
                            let coord = w.pick_coordinator(group as usize);
                            w.single(coord, txn, routed)
                        }
                        Route::Multi { branches } => {
                            w.in_cross = true;
                            w.tally.cross_txns += 1;
                            let done = w.cross(shard, xlogs, branches, routed);
                            w.in_cross = false;
                            done
                        }
                    }
                }
            };
            w.drop_stale_timers();
            w.inbox.clear();
            if w.rec.keep && w.rec.spans.len() > first_span {
                // The blocking path starts where the client's clock
                // does: at the first call after generating and routing.
                let end = w.rec.spans.len();
                w.tally
                    .paths
                    .push(blocking_path(&w.rec.spans, first_span as SpanId, end));
            }
            if committed {
                return;
            }
            next_id += 1;
            w.rec.txn = next_id;
            txn = stamp(&txn, TxnId(next_id));
        }
    };

    match fail {
        None => {
            for k in 0..txns as u64 {
                w.rec.keep = w.rec.on && k < SPAN_TXNS;
                one(&mut w, &mut shard, &mut xlogs);
            }
        }
        Some(plan) => {
            const FAILED: usize = 0;
            // Down period.
            w.control(FAILED, Command::Fail, "Fail");
            w.up[FAILED] = false;
            let locks_before: u64 = w.engines.iter().map(|e| e.counts().faillocks_set).sum();
            for k in 0..plan.down_txns {
                w.rec.keep = w.rec.on && k < SPAN_TXNS;
                one(&mut w, &mut shard, &mut xlogs);
            }
            let locks: u64 = w.engines.iter().map(|e| e.counts().faillocks_set).sum();
            metrics.insert(
                "core.faillocks_set_per_down_txn",
                (locks - locks_before) as f64 / plan.down_txns as f64,
            );
            // Type-1 control transaction.
            w.rec.keep = w.rec.on;
            w.rec.txn = 0;
            let first = w.rec.spans.len();
            w.control(FAILED, Command::Recover, "Recover");
            w.drain_queue();
            assert!(w.became_operational, "the walked recovery did not finish");
            if w.rec.on {
                let end = w.rec.spans.len();
                metrics.insert(
                    "core.ct1_us",
                    blocking_path(&w.rec.spans, first as SpanId, end) as f64 / 1e3,
                );
            }
            w.up[FAILED] = true;
            // Recovering period, to DataRecoveryComplete.
            let copiers_before = w.engines[FAILED].counts().copier_requests;
            let (coord_ns_before, txns_before) = (w.tally.coord_ns, w.tally.txns);
            let mut k = 0u64;
            while !w.data_recovered {
                w.rec.keep = w.rec.on && k < SPAN_TXNS;
                one(&mut w, &mut shard, &mut xlogs);
                k += 1;
                if k.is_multiple_of(TXNS_PER_COPIER_ROUND) {
                    w.rec.txn = 0;
                    w.coords.clear();
                    if w.fire(FAILED, |t| matches!(t, TimerId::BatchCopier)) {
                        w.drain_queue();
                    }
                }
                assert!(
                    k < 100 * plan.down_txns,
                    "the walked data recovery never completed"
                );
            }
            metrics.insert("core.txns_to_recover", k as f64);
            metrics.insert(
                "core.copier_requests_per_recovery",
                (w.engines[FAILED].counts().copier_requests - copiers_before) as f64,
            );
            metrics.insert(
                "core.copier_serve_ns_per_item",
                ratio(w.tally.copy_serve_ns, w.tally.copy_items),
            );
            metrics.insert(
                "core.recovering_coord_ns_per_txn",
                ratio(
                    w.tally.coord_ns - coord_ns_before,
                    w.tally.txns - txns_before,
                ),
            );
        }
    }
    let wall_ns = started.elapsed().as_nanos() as u64;

    let t = &w.tally;
    let ns = |op: Op| w.rec.ns[op as usize];
    let calls = |op: Op| w.rec.calls[op as usize];
    metrics.insert("txn.gen_ns_per_txn", ratio(ns(Op::Gen), calls(Op::Gen)));
    metrics.insert("core.coord_ns_per_txn", ratio(t.coord_ns, t.txns));
    metrics.insert("core.part_ns_per_txn", ratio(t.part_ns, t.txns));
    metrics.insert("core.handle_calls_per_txn", ratio(t.handle_calls, t.txns));
    metrics.insert("core.msgs_per_txn", ratio(t.msgs, t.txns));
    metrics.insert(
        "core.msgs_per_readonly_txn",
        ratio(t.readonly_msgs, t.readonly_txns),
    );
    metrics.insert(
        "net.encode_ns_per_msg",
        ratio(ns(Op::Encode), calls(Op::Encode)),
    );
    metrics.insert(
        "net.decode_ns_per_msg",
        ratio(ns(Op::Decode), calls(Op::Decode)),
    );
    metrics.insert("net.bytes_per_msg", ratio(t.bytes, t.msgs));
    metrics.insert("net.bytes_per_txn", ratio(t.bytes, t.txns));
    if w.sharded {
        metrics.insert(
            "shard.route_ns_per_txn",
            ratio(ns(Op::Route), calls(Op::Route)),
        );
        metrics.insert(
            "shard.xcoord_ns_per_xtxn",
            ratio(ns(Op::XCoord), t.cross_txns),
        );
        metrics.insert(
            "shard.xlog_ns_per_xtxn",
            ratio(ns(Op::XLogCall), t.cross_txns),
        );
        metrics.insert("shard.msgs_per_xtxn", ratio(t.cross_msgs, t.cross_txns));
        metrics.insert(
            "shard.xlog_appends_per_xtxn",
            ratio(t.xlog_appends, t.cross_txns),
        );
        metrics.insert("shard.cross_share", ratio(t.cross_txns, t.txns));
    }
    if w.stores.iter().any(Option::is_some) {
        metrics.insert(
            "storage.append_ns_per_commit",
            ratio(ns(Op::Append), calls(Op::Append)),
        );
        let mut syncs: Vec<u64> = w
            .rec
            .spans
            .iter()
            .filter(|s| s.layer == "storage" && s.name == Op::Sync.name())
            .map(Span::duration)
            .collect();
        syncs.sort_unstable();
        if let Some(q) = percentile(&syncs, 50.0) {
            metrics.insert("storage.fsync_us_p50", q.value / 1e3);
        }
    }
    let mut paths = w.tally.paths.clone();
    paths.sort_unstable();
    if let Some(q) = percentile(&paths, 50.0) {
        metrics.insert("walk.blocking_path_p50_us", q.value / 1e3);
    }
    Ok(WalkResult {
        metrics,
        spans: std::mem::take(&mut w.rec.spans),
        wall_ns,
    })
}
