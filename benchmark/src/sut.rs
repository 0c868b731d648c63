//! The pinned surface: every call into a miniraid crate is in this file.
//!
//! The rest of the benchmark sees the system under test only through the
//! functions and re-exported types below, so a later simplification PR
//! can read here which public items of the repository are load-bearing
//! for the benchmark (README.md lists the signatures).

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use bytes::BytesMut;
use miniraid_cluster::{Cluster, ClusterTiming, ManagingClient, ShardedClient};
use miniraid_core::config::{ProtocolConfig, TwoStepRecovery};
use miniraid_core::engine::SiteEngine;
use miniraid_net::{
    ChannelMailbox, ChannelNetwork, ChannelTransport, Mailbox, TcpEndpoint, TcpMailbox,
    TcpTransport, Transport,
};
use miniraid_shard::{ShardSpec, XCoordinator, XLogStore};
use miniraid_storage::{DurableStore, WalCounters};
use miniraid_txn::workload::{UniformGen, WorkloadGen, ZipfGen};

pub use miniraid_core::engine::{Input, Output, TimerId};
pub use miniraid_core::ids::{ItemId, SiteId, TxnId};
pub use miniraid_core::messages::{Command, Message, XDecisionRecord};
pub use miniraid_core::ops::{Operation, Transaction};
pub use miniraid_shard::{Route, XAction};
pub use miniraid_storage::ItemValue;

// ---- configuration -------------------------------------------------------

/// Which public launcher a workload uses.
#[derive(Debug, Clone, PartialEq)]
pub enum Topology {
    /// `Cluster::launch`: site threads over in-process channels.
    Mem,
    /// `Cluster::launch_observed`: as `Mem` with a tracer on every engine.
    Observed,
    /// `Cluster::launch_tcp` on `base_port ..= base_port + n_sites`.
    Tcp { base_port: u16 },
    /// `Cluster::launch_durable_instrumented` under this directory.
    Durable { dir: std::path::PathBuf },
    /// `Cluster::launch_sharded` with `groups` replication groups.
    Sharded { groups: u8 },
}

/// Failure-detection timers of the site threads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Timing {
    /// Every `ClusterTiming` timeout at 3 s: a scheduler or fsync stall
    /// on a shared two-core box must not be taken for a site failure.
    FaultFree,
    /// Failure detection at work: `ClusterTiming::default()` with every
    /// timeout stretched from 150/200/500 ms to 500/500/1500 ms, and a
    /// 1 ms batch copier delay so recovery is bounded by copier service.
    /// At the defaults a scheduler stall of this shared box was taken for
    /// a site failure in about 1 run in 50 (the excluded site steps down
    /// and its in-flight transactions never report); the ratios between
    /// the timers are kept.
    Detecting,
}

/// Everything that shapes the system under test for one workload.
#[derive(Debug, Clone)]
pub struct SutSpec {
    pub topology: Topology,
    /// Items per replication group.
    pub db_size: u32,
    /// Sites per replication group.
    pub n_sites: u8,
    pub max_inflight: usize,
    pub timing: Timing,
    /// `(threshold, batch_size)` of `TwoStepRecovery`.
    pub two_step: Option<(f64, u32)>,
}

impl SutSpec {
    fn config(&self) -> ProtocolConfig {
        ProtocolConfig {
            db_size: self.db_size,
            n_sites: self.n_sites,
            max_inflight: self.max_inflight,
            two_step_recovery: self
                .two_step
                .map(|(threshold, batch_size)| TwoStepRecovery {
                    threshold,
                    batch_size,
                }),
            emit_persistence: matches!(self.topology, Topology::Durable { .. }),
            ..ProtocolConfig::default()
        }
    }

    fn timing(&self) -> ClusterTiming {
        match self.timing {
            Timing::FaultFree => {
                let t = Duration::from_secs(3);
                ClusterTiming {
                    ack_timeout: t,
                    commit_ack_timeout: t,
                    participant_timeout: t,
                    copier_timeout: t,
                    read_timeout: t,
                    recovery_timeout: t,
                    ..ClusterTiming::default()
                }
            }
            Timing::Detecting => {
                let t = Duration::from_millis(500);
                ClusterTiming {
                    ack_timeout: t,
                    commit_ack_timeout: t,
                    participant_timeout: 3 * t,
                    copier_timeout: t,
                    read_timeout: t,
                    recovery_timeout: t,
                    batch_copier_delay: Duration::from_millis(1),
                }
            }
        }
    }

    /// Replication groups (1 unless sharded).
    pub fn groups(&self) -> u8 {
        match self.topology {
            Topology::Sharded { groups } => groups,
            _ => 1,
        }
    }

    /// Physical database sites.
    pub fn physical_sites(&self) -> u8 {
        self.groups() * self.n_sites
    }

    fn shard_spec(&self) -> ShardSpec {
        ShardSpec::new(self.groups(), self.n_sites, self.db_size)
    }
}

// ---- the running system --------------------------------------------------

/// One transaction's outcome as a client endpoint reports it.
#[derive(Debug, Clone)]
pub struct Report {
    pub txn: TxnId,
    pub committed: bool,
    pub reads: Vec<(ItemId, ItemValue)>,
}

enum Client {
    Chan(ManagingClient<ChannelTransport, ChannelMailbox>),
    Tcp(ManagingClient<TcpTransport, TcpMailbox>),
    Shard(Box<ShardedClient<ChannelTransport, ChannelMailbox>>),
}

/// Run `$body` with `$c` bound to whichever `ManagingClient` this is;
/// `$shard` handles the sharded client.
macro_rules! with_client {
    ($self:expr, $c:ident => $body:expr, $s:ident => $shard:expr) => {
        match &mut $self.client {
            Client::Chan($c) => $body,
            Client::Tcp($c) => $body,
            Client::Shard($s) => $shard,
        }
    };
}

/// Cumulative WAL counters summed over the sites of a durable cluster.
#[derive(Debug, Clone, Copy, Default)]
pub struct WalTotals {
    pub fsyncs: u64,
    pub commits: u64,
    pub bytes: u64,
}

/// `XCoordinator` self-counters of the sharded client.
#[derive(Debug, Clone, Copy, Default)]
pub struct XCounts {
    pub aborted: u64,
    pub redrives: u64,
}

/// A launched cluster and its one client endpoint.
pub struct Sut {
    cluster: Cluster,
    client: Client,
    wal: Vec<Arc<WalCounters>>,
}

const JOIN_PATIENCE: Duration = Duration::from_secs(10);

impl Sut {
    pub fn launch(spec: &SutSpec) -> std::io::Result<Sut> {
        let (config, timing) = (spec.config(), spec.timing());
        let mut wal = Vec::new();
        let (cluster, client) = match &spec.topology {
            Topology::Mem => {
                let (cluster, client) = Cluster::launch(config, timing);
                (cluster, Client::Chan(client))
            }
            Topology::Observed => {
                let (cluster, client, _hubs) = Cluster::launch_observed(config, timing, None)?;
                (cluster, Client::Chan(client))
            }
            Topology::Tcp { base_port } => {
                let (cluster, client) = Cluster::launch_tcp(config, timing, *base_port)?;
                (cluster, Client::Tcp(client))
            }
            Topology::Durable { dir } => {
                let (cluster, client, counters) =
                    Cluster::launch_durable_instrumented(config, timing, dir)?;
                wal = counters;
                (cluster, Client::Chan(client))
            }
            Topology::Sharded { .. } => {
                let (cluster, client) = Cluster::launch_sharded(spec.shard_spec(), config, timing);
                (cluster, Client::Shard(Box::new(client)))
            }
        };
        Ok(Sut {
            cluster,
            client,
            wal,
        })
    }

    pub fn next_txn_id(&mut self) -> TxnId {
        with_client!(self, c => c.next_txn_id(), s => s.next_txn_id())
    }

    /// An id above every id of an earlier incarnation of a durable
    /// cluster (ids are versions, and a restarted client's counter starts
    /// over): `ManagingClient::next_txn_id_from_clock`.
    pub fn next_txn_id_from_clock(&mut self) -> TxnId {
        with_client!(self, c => c.next_txn_id_from_clock(), s => s.next_txn_id())
    }

    /// Submit without waiting. `coordinator` picks the coordinating
    /// site; the sharded client routes by item and ignores it.
    pub fn submit(&mut self, coordinator: SiteId, txn: Transaction) {
        with_client!(self, c => c.submit_txn(coordinator, txn), s => s.submit(txn))
    }

    /// Append every outcome that has arrived; never blocks. The sharded
    /// client is driven with `drain_finished` only: `pump_for`'s 10 ms
    /// receive slice would overshoot after the last report.
    pub fn drain(&mut self, out: &mut Vec<Report>) {
        match &mut self.client {
            Client::Chan(c) => out.extend(c.drain_reports().into_iter().map(plain_report)),
            Client::Tcp(c) => out.extend(c.drain_reports().into_iter().map(plain_report)),
            Client::Shard(s) => out.extend(s.drain_finished().into_iter().map(sharded_report)),
        }
    }

    /// Run one transaction at one physical site and wait for its report
    /// (item names are global; on a sharded cluster the transaction must
    /// stay inside that site's group).
    pub fn run_at(&mut self, site: SiteId, txn: Transaction, deadline: Duration) -> Option<Report> {
        with_client!(self,
            c => c.run_txn(site, txn, deadline).ok().map(plain_report),
            s => s.run_txn_at(site, txn, deadline).ok().map(sharded_report)
        )
    }

    pub fn fail(&mut self, site: SiteId) {
        with_client!(self, c => c.fail(site), s => s.fail(site))
    }

    /// Send `Recover` and wait until the site reports operational.
    pub fn recover(&mut self, site: SiteId, deadline: Duration) -> bool {
        with_client!(self, c => c.recover(site, deadline).is_ok(), s => s.recover(site, deadline).is_ok())
    }

    /// True once a `MgmtDataRecovered` announcement has been drained
    /// (never blocks; the sharded client does not surface it).
    pub fn data_recovered(&mut self) -> bool {
        with_client!(self, c => c.wait_data_recovered(Duration::ZERO).is_ok(), _s => false)
    }

    /// A site's exposition text, parsed for the counters the benchmark reads.
    pub fn scrape(&mut self, site: SiteId) -> Option<Scrape> {
        let text = with_client!(self,
            c => c.fetch_metrics(site, Duration::from_secs(5)).ok(),
            s => s.fetch_metrics(site, Duration::from_secs(5)).ok()
        )?;
        let sample = miniraid_obs::watch::parse_site_sample(site.0, &text);
        let abort = |reason: &str| {
            sample
                .aborts
                .iter()
                .find(|(r, _)| r == reason)
                .map_or(0, |(_, n)| *n)
        };
        Some(Scrape {
            up: sample.up,
            committed: sample.txns_committed,
            aborts_site_down: abort("site_not_operational"),
            aborts_participant_failed: abort("participant_failed"),
            retransmits: sample.retransmits,
            lock_waits: counter(&text, "miniraid_lock_waits"),
            lock_grants_immediate: counter(&text, "miniraid_lock_grants_immediate"),
            inflight_high_water: counter(&text, "miniraid_inflight_high_water"),
            reconnects: counter(&text, "miniraid_transport_reconnects"),
        })
    }

    pub fn wal_totals(&self) -> WalTotals {
        let mut t = WalTotals::default();
        for c in &self.wal {
            t.fsyncs += c.fsyncs();
            t.commits += c.commits();
            t.bytes += c.bytes();
        }
        t
    }

    pub fn xcounts(&self) -> XCounts {
        match &self.client {
            Client::Shard(s) => {
                let m = s.xmetrics();
                XCounts {
                    aborted: m.aborted,
                    redrives: m.redrives,
                }
            }
            _ => XCounts::default(),
        }
    }

    /// Clean shutdown: `Terminate` to every site, then join the threads.
    pub fn terminate(mut self) {
        with_client!(self, c => c.terminate_all(), s => s.terminate_all());
        self.cluster.join(JOIN_PATIENCE);
    }
}

fn plain_report(r: miniraid_core::messages::TxnReport) -> Report {
    Report {
        txn: r.txn,
        committed: r.outcome.is_committed(),
        reads: r.read_results,
    }
}

fn sharded_report(r: miniraid_cluster::ShardedReport) -> Report {
    Report {
        txn: r.txn,
        committed: r.committed(),
        reads: r.read_results,
    }
}

/// The counters read from one site's exposition text.
#[derive(Debug, Clone, Copy, Default)]
pub struct Scrape {
    pub up: bool,
    pub committed: u64,
    pub aborts_site_down: u64,
    pub aborts_participant_failed: u64,
    pub retransmits: u64,
    pub lock_waits: u64,
    pub lock_grants_immediate: u64,
    pub inflight_high_water: u64,
    pub reconnects: u64,
}

/// `parse_site_sample` keeps only what `watch` shows; the lock and
/// transport counters are read from the same text by series name.
fn counter(text: &str, name: &str) -> u64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| {
            let (series, value) = l.rsplit_once(' ')?;
            (series.split('{').next()? == name).then(|| value.parse::<f64>().ok())?
        })
        .map_or(0, |v| v as u64)
}

// ---- txn: the repository's generators ------------------------------------

/// Key distribution and read share of a generated stream.
#[derive(Debug, Clone, Copy)]
pub enum Mix {
    Uniform { read_fraction: f64 },
    Zipf { theta: f64, read_fraction: f64 },
}

/// `UniformGen` or `ZipfGen` over `db_size` items, 1..=`max_ops` operations.
pub struct Gen(Box<dyn WorkloadGen + Send>);

impl Gen {
    pub fn new(mix: Mix, seed: u64, db_size: u32, max_ops: u32) -> Gen {
        match mix {
            Mix::Uniform { read_fraction } => Gen(Box::new(UniformGen::with_read_fraction(
                seed,
                db_size,
                max_ops,
                read_fraction,
            ))),
            Mix::Zipf {
                theta,
                read_fraction,
            } => Gen(Box::new(ZipfGen::new(
                seed,
                db_size,
                max_ops,
                theta,
                read_fraction,
            ))),
        }
    }

    pub fn next_txn(&mut self, id: TxnId) -> Transaction {
        self.0.next_txn(id)
    }
}

// ---- core: a benchmark-owned engine ---------------------------------------

/// Engine self-counters the walk reads.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineCounts {
    pub faillocks_set: u64,
    pub copier_requests: u64,
}

/// `SiteEngine::{new, handle}` for the layer walk.
pub struct Engine(SiteEngine);

impl Engine {
    /// Site `id` of one replication group of `spec`.
    pub fn new(id: SiteId, spec: &SutSpec) -> Engine {
        Engine(SiteEngine::new(id, spec.config()))
    }

    pub fn handle(&mut self, input: Input, out: &mut Vec<Output>) {
        self.0.handle(input, out)
    }

    pub fn counts(&self) -> EngineCounts {
        let m = self.0.metrics();
        EngineCounts {
            faillocks_set: m.faillocks_set,
            copier_requests: m.copier_requests,
        }
    }
}

// ---- net: codec and benchmark-owned endpoints -----------------------------

/// Reusable encode buffer for [`encode_into`].
pub struct WireBuf(BytesMut);

impl WireBuf {
    pub fn new() -> WireBuf {
        WireBuf(BytesMut::with_capacity(256))
    }

    pub fn as_slice(&self) -> &[u8] {
        &self.0
    }
}

/// `codec::encode_into` into a cleared buffer.
pub fn encode_into(buf: &mut WireBuf, msg: &Message) {
    buf.0.clear();
    miniraid_net::codec::encode_into(&mut buf.0, msg);
}

/// `codec::decode`.
pub fn decode(bytes: &[u8]) -> Message {
    miniraid_net::codec::decode(bytes).expect("decode what encode_into wrote")
}

/// A `CopyUpdate` as a three-site coordinator sends it for two writes.
pub fn sample_copy_update() -> Message {
    let session = miniraid_core::ids::SessionNumber::FIRST;
    Message::CopyUpdate {
        txn: TxnId(1988),
        writes: vec![
            (ItemId(17), ItemValue::new(1988, 1988)),
            (ItemId(70_001), ItemValue::new(1988, 1988)),
        ],
        snapshot: vec![session; 3],
        clears: Vec::new(),
        up_mask: 0b111,
    }
}

/// Two connected endpoints owned by the benchmark, for the hop timing.
pub struct Pair {
    a: (Box<dyn Transport>, Box<dyn Mailbox>),
    b: (Box<dyn Transport>, Box<dyn Mailbox>),
}

impl Pair {
    pub fn channel() -> Pair {
        let mut ends = ChannelNetwork::new(2);
        let (tb, mb) = ends.pop().expect("endpoint 1");
        let (ta, ma) = ends.pop().expect("endpoint 0");
        Pair {
            a: (Box::new(ta), Box::new(ma)),
            b: (Box::new(tb), Box::new(mb)),
        }
    }

    /// Endpoints of sites 0 and 1 on `base_port` and `base_port + 1`.
    pub fn tcp(base_port: u16) -> std::io::Result<Pair> {
        let plan = miniraid_net::AddressPlan { base_port };
        let (ta, ma) = TcpEndpoint::bind(SiteId(0), plan)?;
        let (tb, mb) = TcpEndpoint::bind(SiteId(1), plan)?;
        Ok(Pair {
            a: (Box::new(ta), Box::new(ma)),
            b: (Box::new(tb), Box::new(mb)),
        })
    }

    /// One ping-pong: `msg` from endpoint 0 to 1 and back, through
    /// `Transport::send` and `Mailbox::recv_timeout` each way.
    pub fn ping_pong(&self, msg: &Message) -> bool {
        let wait = Duration::from_secs(2);
        self.a.0.send(SiteId(1), msg).is_ok()
            && self.b.1.recv_timeout(wait).is_ok()
            && self.b.0.send(SiteId(0), msg).is_ok()
            && self.a.1.recv_timeout(wait).is_ok()
    }
}

// ---- storage: a benchmark-owned durable store ------------------------------

/// `DurableStore` for the layer walk and the restart measurements.
pub struct Store {
    store: DurableStore,
    /// Reused conversion buffers (`ItemId`-keyed engine output to
    /// `u32`-keyed storage input), as the site loop keeps them, so the
    /// timed append allocates nothing.
    writes: Vec<(u32, ItemValue)>,
    locks: Vec<(u32, u64)>,
}

impl Store {
    /// `DurableStore::open`: scans the log `dir` holds, applies nothing.
    pub fn open(dir: &Path, db_size: u32) -> std::io::Result<Store> {
        DurableStore::open(dir, db_size)
            .map(|store| Store {
                store,
                writes: Vec::new(),
                locks: Vec::new(),
            })
            .map_err(|e| std::io::Error::other(e.to_string()))
    }

    /// `DurableStore::commit_with_locks` of one `Output::Persist`.
    pub fn append(&mut self, txn: TxnId, writes: &[(ItemId, ItemValue)], locks: &[(ItemId, u64)]) {
        self.writes.clear();
        self.writes.extend(writes.iter().map(|(i, v)| (i.0, *v)));
        self.locks.clear();
        self.locks.extend(locks.iter().map(|(i, w)| (i.0, *w)));
        self.store
            .commit_with_locks(txn.0, &self.writes, &self.locks)
            .expect("append to the walk's log");
    }

    /// `DurableStore::sync`: one fsync for everything appended since.
    pub fn sync(&mut self) {
        self.store.sync().expect("fsync the walk's log");
    }

    /// Items a restart still has to replay.
    pub fn pending_items(&self) -> u32 {
        self.store.pending_items()
    }

    /// `DurableStore::hydrate_all`.
    pub fn hydrate_all(&mut self) {
        self.store.hydrate_all().expect("replay the log");
    }
}

// ---- shard: router, cross-shard coordinator, decision log ------------------

/// The shard layer's three sans-IO parts over one topology.
pub struct ShardLayer {
    spec: ShardSpec,
    pub xcoord: XCoord,
}

impl ShardLayer {
    pub fn new(spec: &SutSpec) -> ShardLayer {
        let s = spec.shard_spec();
        ShardLayer {
            spec: s,
            xcoord: XCoord(XCoordinator::new(s)),
        }
    }

    /// `router::classify`.
    pub fn classify(&self, txn: &Transaction) -> Route {
        miniraid_shard::classify(&self.spec, txn)
    }

    /// Physical site of group-local site `local` in `group`.
    pub fn physical_site(&self, group: u8, local: SiteId) -> SiteId {
        self.spec.physical_site(group, local)
    }
}

/// `XCoordinator::{begin, on_vote, on_branch_report}`.
pub struct XCoord(XCoordinator);

impl XCoord {
    pub fn begin(&mut self, branches: Vec<(u8, Transaction)>) -> Vec<XAction> {
        self.0.begin(branches)
    }

    pub fn on_vote(&mut self, group: u8, txn: TxnId, ok: bool) -> Vec<XAction> {
        self.0.on_vote(group, txn, ok)
    }

    pub fn on_branch_report(
        &mut self,
        group: u8,
        txn: TxnId,
        committed: bool,
        reads: &[(ItemId, ItemValue)],
    ) -> Vec<XAction> {
        self.0.on_branch_report(group, txn, committed, reads)
    }
}

/// `XLogStore::{append, retire}`: one decision-log replica.
pub struct XLog(XLogStore);

impl XLog {
    pub fn new() -> XLog {
        XLog(XLogStore::new())
    }

    /// Returns the replica's `XLogAck`.
    pub fn append(&mut self, epoch: u64, record: XDecisionRecord) -> Message {
        self.0.append(epoch, record)
    }

    pub fn retire(&mut self, txn: TxnId) {
        self.0.retire(txn)
    }
}

// ---- obs ------------------------------------------------------------------

/// `LatencyHistogram::record`, the per-event cost every traced site pays.
pub struct Hist(miniraid_obs::LatencyHistogram);

impl Hist {
    pub fn new() -> Hist {
        Hist(miniraid_obs::LatencyHistogram::new())
    }

    pub fn record(&mut self, micros: u64) {
        self.0.record(micros)
    }

    pub fn count(&self) -> u64 {
        self.0.count()
    }
}
