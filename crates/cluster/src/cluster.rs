//! Cluster assembly: one [`ClusterBuilder`] composes a site's transport
//! layers, durability, tracing and topology, spawns one thread per site,
//! and hands back the managing client.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use miniraid_core::config::ProtocolConfig;
use miniraid_core::engine::SiteEngine;
use miniraid_core::ids::{ItemId, SessionNumber, SiteId};
use miniraid_core::trace::{SystemClock, Tracer};
use miniraid_net::channel::{ChannelMailbox, ChannelNetwork, ChannelTransport};
use miniraid_net::delay::DelayTransport;
use miniraid_net::fault::{FaultControl, FaultPlan, FaultTransport};
use miniraid_net::reliable::{reliable, ReliableConfig};
use miniraid_net::tcp::{AddressPlan, TcpEndpoint, TcpMailbox, TcpTransport};
use miniraid_net::{Mailbox, Transport};
use miniraid_obs::MetricsHub;
use miniraid_shard::{MapStore, ShardMap, ShardSpec};
use miniraid_storage::{DurableStore, WalCounters};

use crate::control::ManagingClient;
use crate::obs::SiteObs;
use crate::shard_client::ShardedClient;
use crate::shard_site::{ShardMailbox, ShardTransport};
use crate::site::{run_site, ClusterTiming, SiteParts};

/// A running cluster: join handles for every site thread.
pub struct Cluster {
    handles: Vec<JoinHandle<()>>,
}

/// What [`ClusterBuilder::launch`] hands back. Each vector holds one
/// entry per physical site when its option was set, and is empty
/// otherwise.
pub struct Launched<C> {
    /// The site threads.
    pub cluster: Cluster,
    /// The managing client at the physical manager id.
    pub client: C,
    /// Per-site metrics hubs ([`Tracing::Observed`]), for in-process
    /// latency and abort inspection.
    pub hubs: Vec<Arc<MetricsHub>>,
    /// Per-site fault handles ([`ClusterBuilder::faults`]), for
    /// scripting partitions.
    pub controls: Vec<FaultControl>,
    /// Per-site WAL counters ([`ClusterBuilder::durable`]): fsyncs,
    /// commit records and bytes, without scraping metrics.
    pub wal: Vec<Arc<WalCounters>>,
}

/// What every site's engine emits its protocol events into.
#[derive(Debug, Clone, Default)]
pub enum Tracing {
    /// No tracer: an event costs one disabled check.
    #[default]
    Off,
    /// A tracer into a sink that discards: clock stamp and dynamic
    /// dispatch are paid, so a benchmark's numbers bound the tracing
    /// overhead a real deployment pays.
    NullSink,
    /// A [`SiteObs`] per site: a metrics hub (returned in
    /// [`Launched::hubs`]; scrapes then include latency histograms) and,
    /// with a directory, JSONL streams `site-<i>.jsonl` plus — for a
    /// sharded client, which allocates the per-transaction trace ids —
    /// `client.jsonl`, from which `miniraid-ctl trace` reassembles one
    /// span tree per transaction across the whole topology.
    Observed(Option<PathBuf>),
}

/// One physical site's place in a [`Topology`].
pub struct Seat {
    /// The engine's id (group-local in a sharded topology).
    pub id: SiteId,
    /// The engine's configuration.
    pub config: ProtocolConfig,
    /// Replication group (0 when there is one).
    pub group: u8,
    /// The id the engine addresses the managing site by.
    pub manager: SiteId,
    /// The site thread's name.
    pub name: String,
    /// Shard translation between the engine and its transport.
    pub shard: Option<ShardSpec>,
    /// Live shard-map store (mapped topologies).
    pub map: Option<MapStore>,
}

/// How a launch places its sites into replication groups; fixes the
/// managing client's type.
pub trait Topology {
    /// The managing client over a manager endpoint `(T, M)`.
    type Client<T: Transport, M: Mailbox>;
    /// Physical database sites.
    fn n_sites(&self, config: &ProtocolConfig) -> u8;
    /// Where physical site `site` sits.
    fn seat(&self, site: u8, config: &ProtocolConfig) -> Seat;
    /// Wrap the manager endpoint; `trace_dir` is the launch's trace
    /// directory, if any.
    fn client<T: Transport, M: Mailbox>(
        &self,
        transport: T,
        mailbox: M,
        config: &ProtocolConfig,
        trace_dir: Option<&Path>,
    ) -> Self::Client<T, M>;
}

/// One replication group of `config.n_sites` sites — the paper's
/// cluster. Site `i` runs in thread `miniraid-site-<i>`; the managing
/// client is site id `n_sites`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Single;

impl Topology for Single {
    type Client<T: Transport, M: Mailbox> = ManagingClient<T, M>;

    fn n_sites(&self, config: &ProtocolConfig) -> u8 {
        config.n_sites
    }

    fn seat(&self, site: u8, config: &ProtocolConfig) -> Seat {
        Seat {
            id: SiteId(site),
            config: config.clone(),
            group: 0,
            manager: SiteId(config.n_sites),
            name: format!("miniraid-site-{site}"),
            shard: None,
            map: None,
        }
    }

    fn client<T: Transport, M: Mailbox>(
        &self,
        transport: T,
        mailbox: M,
        config: &ProtocolConfig,
        _trace_dir: Option<&Path>,
    ) -> ManagingClient<T, M> {
        ManagingClient::new(transport, mailbox, config.n_sites)
    }
}

/// A sharded topology: physical sites `0..n_physical_sites()`, each
/// running one engine for its replication group (`config` narrowed per
/// group — see [`ShardSpec::group_config`]), with the sharded managing
/// client at the physical manager id. Groups are fully independent
/// clusters: session vectors, fail-locks and control transactions never
/// cross a group boundary.
impl Topology for ShardSpec {
    type Client<T: Transport, M: Mailbox> = ShardedClient<T, M>;

    fn n_sites(&self, _config: &ProtocolConfig) -> u8 {
        self.n_physical_sites()
    }

    fn seat(&self, site: u8, config: &ProtocolConfig) -> Seat {
        let (group, local) = self.local_site(SiteId(site));
        Seat {
            id: local,
            config: self.group_config(config),
            group,
            manager: self.local_manager_alias(),
            name: format!("miniraid-shard-{group}-{}", local.0),
            shard: Some(*self),
            map: None,
        }
    }

    fn client<T: Transport, M: Mailbox>(
        &self,
        transport: T,
        mailbox: M,
        config: &ProtocolConfig,
        trace_dir: Option<&Path>,
    ) -> ShardedClient<T, M> {
        let mut client = ShardedClient::with_config(transport, mailbox, *self, config);
        if let Some(dir) = trace_dir {
            if let Ok(sink) = miniraid_obs::json::JsonlSink::create(dir.join("client.jsonl")) {
                client.set_tracer(Tracer::new(
                    SiteId(self.n_physical_sites()),
                    Arc::new(SystemClock::new()),
                    Arc::new(sink),
                ));
            }
        }
        client
    }
}

/// A *mapped* sharded topology: item placement is governed by a live,
/// epoch-versioned [`ShardMap`] instead of the spec's frozen modulo
/// stripe. Every group engine is configured over the full global
/// keyspace (see [`ShardSpec::mapped_config`]), each site carries a
/// [`MapStore`] preloaded with `initial`, and the site loop gates
/// incoming transactions through it: a begin routed under a stale map
/// bounces with `WrongEpoch` instead of reaching the engine. This is the
/// topology the `Resharder` migrates live.
#[derive(Debug, Clone)]
pub struct Mapped {
    /// Groups and sites per group.
    pub spec: ShardSpec,
    /// The map every site and the client start from.
    pub initial: ShardMap,
}

impl Topology for Mapped {
    type Client<T: Transport, M: Mailbox> = ShardedClient<T, M>;

    fn n_sites(&self, _config: &ProtocolConfig) -> u8 {
        self.spec.n_physical_sites()
    }

    fn seat(&self, site: u8, config: &ProtocolConfig) -> Seat {
        let mut seat = self.spec.seat(site, config);
        seat.config = self.spec.mapped_config(config);
        seat.name = format!("miniraid-mapped-{}-{}", seat.group, seat.id.0);
        let mut map = MapStore::new(seat.group);
        map.install(
            self.initial.epoch,
            self.initial.assignment.clone(),
            self.initial.migrating.clone(),
        );
        seat.map = Some(map);
        seat
    }

    fn client<T: Transport, M: Mailbox>(
        &self,
        transport: T,
        mailbox: M,
        config: &ProtocolConfig,
        trace_dir: Option<&Path>,
    ) -> ShardedClient<T, M> {
        let mut client = self.spec.client(transport, mailbox, config, trace_dir);
        client.set_map(self.initial.clone());
        client
    }
}

/// The one way to launch a threaded cluster. `new(config, timing)` is
/// the paper's cluster: [`Single`] topology over in-process channels,
/// nothing layered. Each setter adds one orthogonal choice; the
/// terminal picks channels ([`ClusterBuilder::launch`]) or localhost TCP
/// ([`ClusterBuilder::launch_tcp`]). The manager's endpoint always stays
/// plain: the managing client is the out-of-band measurement harness.
///
/// ```no_run
/// # use miniraid_cluster::{ClusterBuilder, ClusterTiming};
/// # use miniraid_core::config::ProtocolConfig;
/// # use miniraid_net::fault::FaultPlan;
/// let launched = ClusterBuilder::new(ProtocolConfig::default(), ClusterTiming::default())
///     .faults(FaultPlan::none(7), true)
///     .launch()?;
/// # Ok::<(), std::io::Error>(())
/// ```
pub struct ClusterBuilder<P = Single> {
    config: ProtocolConfig,
    timing: ClusterTiming,
    topology: P,
    latency: Option<Duration>,
    faults: Option<(FaultPlan, bool)>,
    durable: Option<PathBuf>,
    tracing: Tracing,
}

impl ClusterBuilder {
    /// `config.n_sites` sites in one group, over channels.
    pub fn new(config: ProtocolConfig, timing: ClusterTiming) -> Self {
        ClusterBuilder {
            config,
            timing,
            topology: Single,
            latency: None,
            faults: None,
            durable: None,
            tracing: Tracing::Off,
        }
    }
}

impl<P: Topology> ClusterBuilder<P> {
    /// Place the sites by `topology`: a [`ShardSpec`] or a [`Mapped`]
    /// spec (both hand back a [`ShardedClient`]).
    pub fn topology<Q: Topology>(self, topology: Q) -> ClusterBuilder<Q> {
        ClusterBuilder {
            config: self.config,
            timing: self.timing,
            topology,
            latency: self.latency,
            faults: self.faults,
            durable: self.durable,
            tracing: self.tracing,
        }
    }

    /// A fixed per-send latency on every site's transport, below any
    /// shard translation, like the paper's measured 9 ms intersite
    /// communication cost: what makes pipelining and group-level
    /// parallelism measurable.
    pub fn latency(mut self, latency: Duration) -> Self {
        self.latency = Some(latency);
        self
    }

    /// Seeded fault injection on every site's transport, each site with
    /// its own stream ([`FaultPlan::for_site`]) so a whole run replays
    /// from `plan.seed`, and — when `with_reliable` — the reliable
    /// session layer on top, so lost, duplicated and reordered frames are
    /// retransmitted and deduplicated before the engine sees them.
    /// `with_reliable = false` is the negative control: the engines face
    /// the raw lossy link, which the paper's protocol does *not* tolerate
    /// (its §1.2 assumption 1 presumes reliable delivery).
    pub fn faults(mut self, plan: FaultPlan, with_reliable: bool) -> Self {
        self.faults = Some((plan, with_reliable));
        self
    }

    /// WAL-backed storage under `dir/site-<i>/`, with `emit_persistence`
    /// forced on. Each site recovers its committed image from disk before
    /// joining. On a restart, each group's site with the highest
    /// committed transaction comes up operational; the others come up
    /// *down* (a process restart is a site failure in the paper's model)
    /// and rejoin with `recover`, whose type-1 control transaction and
    /// copiers refresh whatever their preloaded copy missed.
    pub fn durable(mut self, dir: &Path) -> Self {
        self.durable = Some(dir.to_path_buf());
        self
    }

    /// What the engines trace into (default [`Tracing::Off`]).
    pub fn tracing(mut self, tracing: Tracing) -> Self {
        self.tracing = tracing;
        self
    }

    /// Launch over in-process channels.
    pub fn launch(self) -> std::io::Result<Launched<P::Client<ChannelTransport, ChannelMailbox>>> {
        let n = self.topology.n_sites(&self.config);
        let mut endpoints = ChannelNetwork::new(n as usize + 1);
        let manager = endpoints.pop().expect("manager endpoint");
        self.start(endpoints, manager)
    }

    /// Launch over TCP on localhost: site `i` listens on
    /// `base_port + i`, the manager on `base_port + n_sites`.
    pub fn launch_tcp(
        self,
        base_port: u16,
    ) -> std::io::Result<Launched<P::Client<TcpTransport, TcpMailbox>>> {
        let n = self.topology.n_sites(&self.config);
        let plan = AddressPlan { base_port };
        let sites = (0..n)
            .map(|i| TcpEndpoint::bind(SiteId(i), plan))
            .collect::<std::io::Result<Vec<_>>>()?;
        let manager = TcpEndpoint::bind(SiteId(n), plan)?;
        self.start(sites, manager)
    }

    /// The one spawn loop: site `i` gets `sites[i]`.
    fn start<T, M>(
        self,
        sites: Vec<(T, M)>,
        (mgr_transport, mgr_mailbox): (T, M),
    ) -> std::io::Result<Launched<P::Client<T, M>>>
    where
        T: Transport + Sync + 'static,
        M: Mailbox + 'static,
    {
        let mut config = self.config;
        config.emit_persistence |= self.durable.is_some();
        let trace_dir = match &self.tracing {
            Tracing::Observed(dir) => dir.as_deref(),
            _ => None,
        };
        if let Some(dir) = trace_dir {
            std::fs::create_dir_all(dir)?;
        }
        let seats: Vec<Seat> = (0..sites.len() as u8)
            .map(|i| self.topology.seat(i, &config))
            .collect();
        let stores = seats
            .iter()
            .enumerate()
            .map(|(i, seat)| match &self.durable {
                Some(dir) => {
                    DurableStore::open(&dir.join(format!("site-{i}")), seat.config.db_size)
                        .map(Some)
                        .map_err(std::io::Error::other)
                }
                None => Ok(None),
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        let last: Vec<u64> = stores
            .iter()
            .map(|s| s.as_ref().map_or(0, DurableStore::last_txn))
            .collect();
        let rejoining = rejoining(&seats, &last);

        let mut handles = Vec::with_capacity(seats.len());
        let (mut hubs, mut controls, mut wal) = (Vec::new(), Vec::new(), Vec::new());
        let layers = sites.into_iter().zip(seats).zip(stores).zip(rejoining);
        for (i, ((((transport, mailbox), seat), mut store), rejoin)) in layers.enumerate() {
            let mut engine = SiteEngine::new(seat.id, seat.config);
            if let Some(store) = &mut store {
                wal.push(store.counters());
                restore(&mut engine, store);
            }
            if rejoin {
                engine.assume_failed();
            }
            let obs = match &self.tracing {
                Tracing::Off => None,
                Tracing::NullSink => {
                    engine.set_tracer(Tracer::new(
                        seat.id,
                        Arc::new(SystemClock::new()),
                        Arc::new(miniraid_obs::NullSink),
                    ));
                    None
                }
                Tracing::Observed(dir) => {
                    let path = dir.as_ref().map(|d| d.join(format!("site-{i}.jsonl")));
                    let obs = SiteObs::attach(&mut engine, path.as_deref())?;
                    hubs.push(obs.hub().clone());
                    Some(obs)
                }
            };
            let faults = self
                .faults
                .map(|(plan, with_reliable)| (plan.for_site(i as u8), with_reliable));
            let site = Site {
                name: seat.name,
                engine,
                manager: seat.manager,
                timing: self.timing,
                parts: SiteParts {
                    store,
                    obs,
                    map: seat.map,
                },
                shard: seat.shard.map(|spec| (spec, seat.group)),
            };
            handles.push(match self.latency {
                Some(latency) => with_faults(
                    site,
                    DelayTransport::new(transport, latency),
                    mailbox,
                    faults,
                    &mut controls,
                ),
                None => with_faults(site, transport, mailbox, faults, &mut controls),
            });
        }
        let client = self
            .topology
            .client(mgr_transport, mgr_mailbox, &config, trace_dir);
        Ok(Launched {
            cluster: Cluster { handles },
            client,
            hubs,
            controls,
            wal,
        })
    }
}

/// Which sites of a durable restart come up down. In each group that
/// holds state, the bootstrap authority — the site with the highest
/// committed transaction — comes up operational; the rest rejoin through
/// type-1 control transactions (and copier refreshes).
fn rejoining(seats: &[Seat], last: &[u64]) -> Vec<bool> {
    (0..seats.len())
        .map(|i| {
            let group = || (0..seats.len()).filter(|&j| seats[j].group == seats[i].group);
            group().any(|j| last[j] > 0) && group().max_by_key(|&j| last[j]) != Some(i)
        })
        .collect()
}

/// Move what a store recovered into a fresh engine — the one restore
/// path of every launcher (`ClusterBuilder::durable` and the
/// `miniraid-site` process). The recovered table moves into the engine,
/// so the store keeps none. Fail-lock words and the session always load,
/// whether or not anything committed. Instant restart: logged values
/// reach the engine as a lazy restart image — items hydrate on first
/// touch or via the site loop's background replay, so the site is
/// operational before the log is re-applied. Whether the site then
/// comes up down is the launcher's call ([`SiteEngine::assume_failed`]).
pub fn restore(engine: &mut SiteEngine, store: &mut DurableStore) {
    let Some(found) = store.take_recovered() else {
        return;
    };
    engine.preload_table(found.table);
    engine.preload_lazy(found.image);
    engine.preload_faillocks(
        found
            .faillocks
            .into_iter()
            .map(|(item, word)| (ItemId(item), word)),
    );
    if found.session > 0 {
        engine.preload_session(SessionNumber(found.session));
    }
}

/// One site, ready to run once its transport is layered.
struct Site {
    name: String,
    engine: SiteEngine,
    manager: SiteId,
    timing: ClusterTiming,
    parts: SiteParts,
    shard: Option<(ShardSpec, u8)>,
}

/// Layer faults and the reliable session over a site's transport, then
/// hand it to [`with_shard`]. The legal frame nesting is
/// `Seq { ShardEnv {..} }`: reliability sits below the shard translation.
fn with_faults<T, M>(
    site: Site,
    transport: T,
    mailbox: M,
    faults: Option<(FaultPlan, bool)>,
    controls: &mut Vec<FaultControl>,
) -> JoinHandle<()>
where
    T: Transport + Sync + 'static,
    M: Mailbox + 'static,
{
    let Some((plan, with_reliable)) = faults else {
        return with_shard(site, transport, mailbox);
    };
    let (transport, control) = FaultTransport::new(transport, plan);
    controls.push(control);
    if !with_reliable {
        return with_shard(site, transport, mailbox);
    }
    // Threads never restart mid-run, so a fixed epoch keeps whole-cluster
    // runs deterministic.
    let cfg = ReliableConfig {
        epoch: Some(1),
        ..ReliableConfig::default()
    };
    let (transport, mailbox) = reliable(transport, mailbox, cfg);
    with_shard(site, transport, mailbox)
}

/// Put the shard translation (if any) outermost and spawn the site thread.
fn with_shard<T: Transport + 'static, M: Mailbox + 'static>(
    site: Site,
    transport: T,
    mailbox: M,
) -> JoinHandle<()> {
    match site.shard {
        Some((spec, group)) => spawn(
            site,
            ShardTransport::new(transport, spec, group),
            ShardMailbox::new(mailbox, spec, group),
        ),
        None => spawn(site, transport, mailbox),
    }
}

fn spawn<T: Transport + 'static, M: Mailbox + 'static>(
    site: Site,
    transport: T,
    mailbox: M,
) -> JoinHandle<()> {
    let Site {
        name,
        engine,
        manager,
        timing,
        parts,
        ..
    } = site;
    std::thread::Builder::new()
        .name(name)
        .spawn(move || run_site(engine, transport, mailbox, manager, timing, parts))
        .expect("spawn site thread")
}

impl Cluster {
    /// `ClusterBuilder::new(config, timing).launch()`. This and the four
    /// launchers below stay for `benchmark/src/sut.rs`, which pins their
    /// signatures, until a benchmark-typed change moves it to
    /// [`ClusterBuilder`]; new callers use the builder.
    pub fn launch(
        config: ProtocolConfig,
        timing: ClusterTiming,
    ) -> (Cluster, ManagingClient<ChannelTransport, ChannelMailbox>) {
        ClusterBuilder::new(config, timing)
            .launch()
            .map(|l| (l.cluster, l.client))
            .expect("a channel launch without files cannot fail")
    }

    /// [`Tracing::Observed`] over channels, with the metrics hubs.
    #[allow(clippy::type_complexity)]
    pub fn launch_observed(
        config: ProtocolConfig,
        timing: ClusterTiming,
        trace_dir: Option<&Path>,
    ) -> std::io::Result<(
        Cluster,
        ManagingClient<ChannelTransport, ChannelMailbox>,
        Vec<Arc<MetricsHub>>,
    )> {
        ClusterBuilder::new(config, timing)
            .tracing(Tracing::Observed(trace_dir.map(Path::to_path_buf)))
            .launch()
            .map(|l| (l.cluster, l.client, l.hubs))
    }

    /// [`ClusterBuilder::durable`] over channels, with the WAL counters.
    #[allow(clippy::type_complexity)]
    pub fn launch_durable_instrumented(
        config: ProtocolConfig,
        timing: ClusterTiming,
        dir: &Path,
    ) -> std::io::Result<(
        Cluster,
        ManagingClient<ChannelTransport, ChannelMailbox>,
        Vec<Arc<WalCounters>>,
    )> {
        ClusterBuilder::new(config, timing)
            .durable(dir)
            .launch()
            .map(|l| (l.cluster, l.client, l.wal))
    }

    /// `ClusterBuilder::new(config, timing).launch_tcp(base_port)`.
    pub fn launch_tcp(
        config: ProtocolConfig,
        timing: ClusterTiming,
        base_port: u16,
    ) -> std::io::Result<(Cluster, ManagingClient<TcpTransport, TcpMailbox>)> {
        ClusterBuilder::new(config, timing)
            .launch_tcp(base_port)
            .map(|l| (l.cluster, l.client))
    }

    /// A [`ShardSpec`] topology over channels.
    pub fn launch_sharded(
        spec: ShardSpec,
        config: ProtocolConfig,
        timing: ClusterTiming,
    ) -> (Cluster, ShardedClient<ChannelTransport, ChannelMailbox>) {
        ClusterBuilder::new(config, timing)
            .topology(spec)
            .launch()
            .map(|l| (l.cluster, l.client))
            .expect("a channel launch without files cannot fail")
    }

    /// Wait for every site thread to exit (after `terminate_all`). Call
    /// `join` with a bounded patience in tests.
    pub fn join(self, patience: Duration) {
        let deadline = std::time::Instant::now() + patience;
        for handle in self.handles {
            // There is no timed join in std; poll with is_finished.
            while !handle.is_finished() && std::time::Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(5));
            }
            if handle.is_finished() {
                let _ = handle.join();
            }
            // A site that missed Terminate (because it was "down") is a
            // detached daemon thread; it parks on its mailbox harmlessly.
        }
    }
}
