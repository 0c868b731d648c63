//! Chaos harness: randomized schedules of site kills, recoveries,
//! one-way partitions, and transport faults against a *live* cluster,
//! with continuous invariant checks.
//!
//! The schedule is drawn from a seeded RNG, so a violating run is
//! reproducible from one number. Every action and every observation is
//! appended to an in-memory JSONL trace; on violation the harness
//! reports the seed and the trace so the exact schedule can be replayed.
//!
//! Invariants checked while the schedule runs and at the end:
//!
//! 1. **No committed write is lost.** Once the managing client sees a
//!    commit report for a write of item `x`, every later committed read
//!    of `x` returns that value or a *newer* acceptable one (a write
//!    whose outcome report timed out is "in doubt" and stays acceptable
//!    — it may have committed inside the cluster).
//! 2. **All available copies converge.** After partitions heal and every
//!    site is failed-and-recovered, full-database reads through each
//!    site return identical `(version, data)` vectors, and each item's
//!    final value is acceptable to the oracle.
//! 3. **The observer stays served.** Metrics scrapes succeed throughout,
//!    even against sites that are down — the paper's measurement harness
//!    sits outside the failure model.
//!
//! Uniform 2PC decisions are implied by (1)+(2) for this closed-loop
//! driver: a split decision leaves one copy with a write the others
//! never apply, which the convergence check reports as divergence.
//!
//! Partitions are *full isolations* of a single site: every link to and
//! from the victim is blocked, which is the network analogue of the
//! paper's fail-stop site failure (the survivors detect it through 2PC
//! timeouts and set fail-locks — a different code path than a managed
//! `Fail` command). Arbitrary one-way partitions are deliberately *not*
//! scheduled: the paper's protocol assumes failure detection is
//! accurate, and a half-open link lets an excluded site keep serving
//! stale reads — a model violation, not a protocol bug (see DESIGN.md
//! §9). The `FaultTransport` still supports one-way blocks for targeted
//! tests of that very phenomenon.

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use miniraid_core::config::ProtocolConfig;
use miniraid_core::error::AbortReason;
use miniraid_core::ids::{ItemId, SiteId};
use miniraid_core::messages::TxnOutcome;
use miniraid_core::ops::{Operation, Transaction};
use miniraid_core::trace::{ChaosAction, EventKind};
use miniraid_net::fault::{FaultControl, FaultPlan};
use miniraid_net::{Mailbox, Transport};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use miniraid_shard::{MigrationPlan, PlanOp, ShardMap, ShardSpec};

use crate::cluster::{ClusterBuilder, Launched, Mapped, Tracing};
use crate::control::{ControlError, ManagingClient};
use crate::resharder::{ReshardKillPoint, ReshardStats, Resharder};
use crate::shard_client::{CoordKillPoint, ShardedClient};
use crate::site::ClusterTiming;

/// Knobs for one chaos run.
#[derive(Debug, Clone)]
pub struct ChaosOptions {
    /// Master seed: drives the schedule RNG and the per-site fault RNGs.
    pub seed: u64,
    /// Schedule steps (each step is one action: a txn, a kill, a
    /// recovery, or a partition change).
    pub steps: u32,
    /// Database sites.
    pub n_sites: u8,
    /// Items per database copy.
    pub db_size: u32,
    /// Per-frame drop probability on every site's transport.
    pub drop: f64,
    /// Per-frame duplication probability.
    pub duplicate: f64,
    /// Layer the reliable session protocol over the faulty links. With
    /// faults on and this off, the run is the negative control: the
    /// paper's protocol assumes reliable delivery and is expected to
    /// violate convergence under loss.
    pub with_reliable: bool,
    /// Write every site's protocol events (fail-lock set/clear, copier
    /// rounds, session changes) to `<dir>/site-<i>.jsonl`, so a seeded
    /// violation can be replayed and diagnosed at the engine level.
    pub trace_dir: Option<PathBuf>,
}

impl Default for ChaosOptions {
    fn default() -> Self {
        ChaosOptions {
            seed: 1,
            steps: 60,
            n_sites: 4,
            db_size: 16,
            drop: 0.10,
            duplicate: 0.05,
            with_reliable: true,
            trace_dir: None,
        }
    }
}

/// What one chaos run produced.
#[derive(Debug, Default)]
pub struct ChaosOutcome {
    /// Invariant violations, in discovery order. Empty means the run
    /// passed.
    pub violations: Vec<String>,
    /// JSONL trace of every action and observation.
    pub trace: Vec<String>,
    /// Writes the managing client saw commit.
    pub committed_writes: u32,
    /// Writes whose outcome report timed out (in doubt).
    pub in_doubt_writes: u32,
    /// Transactions the cluster aborted.
    pub aborted: u32,
    /// The converged database image `(item, version, data)`, when the
    /// convergence phase completed.
    pub final_db: Vec<(u32, u64, u64)>,
    /// Coordinator crashes injected (sharded runs with
    /// [`ShardChaosOptions::kill_coordinator`]; zero otherwise).
    pub coordinator_crashes: u64,
    /// In-doubt transactions adopted from the decision log by a
    /// successor coordinator.
    pub takeovers: u64,
    /// Takeover latency (crash to every orphan resolved), median, µs.
    pub takeover_p50_us: u64,
    /// Takeover latency, 99th percentile, µs.
    pub takeover_p99_us: u64,
    /// Copy legs the resharder installed (reshard runs; zero otherwise).
    pub items_migrated: u64,
    /// The shard-map epoch the cluster ended on (reshard runs).
    pub map_epoch: u64,
    /// `WrongEpoch` bounces the client retried (reshard runs).
    pub stale_bounces: u64,
    /// Times an abandoned resharder was resumed by a successor.
    pub resharder_resumes: u64,
}

impl ChaosOutcome {
    /// True when every invariant held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The oracle's view of one item: the last write known committed, plus
/// every write whose outcome the managing client never learned. A read
/// returning anything outside this set — or the initial value after a
/// known commit — is a violation.
#[derive(Debug, Default, Clone)]
struct ItemOracle {
    last_committed: Option<(u64, u64)>,
    in_doubt: Vec<(u64, u64)>,
}

impl ItemOracle {
    fn acceptable(&self, version: u64, data: u64) -> bool {
        if version == 0 && data == 0 {
            return self.last_committed.is_none();
        }
        self.last_committed == Some((version, data)) || self.in_doubt.contains(&(version, data))
    }

    /// `acceptable`, widened for mapped-mode retries: a bounced write
    /// re-stamped with a fresh (later) transaction id may commit under
    /// a version the oracle never learned (the report itself can be
    /// lost to a kill). Harness write data is the *original* txn id —
    /// globally unique per logical write — so a value whose data
    /// matches an in-doubt write and whose version is no older than
    /// that write's original id can only be that write's re-stamped
    /// resolution.
    fn acceptable_retried(&self, version: u64, data: u64) -> bool {
        self.acceptable(version, data)
            || self
                .in_doubt
                .iter()
                .any(|&(v, d)| d == data && version >= v)
    }

    fn describe(&self) -> String {
        format!(
            "last_committed={:?} in_doubt={:?}",
            self.last_committed, self.in_doubt
        )
    }
}

const TXN_WAIT: Duration = Duration::from_secs(3);
const MGMT_WAIT: Duration = Duration::from_secs(5);

struct Harness<T: Transport, M: Mailbox> {
    client: ManagingClient<T, M>,
    controls: Vec<FaultControl>,
    oracle: HashMap<u32, ItemOracle>,
    /// Sites the harness believes are up (its own actions; the protocol
    /// may additionally consider a partitioned site down).
    up: Vec<bool>,
    /// Sites currently cut off from every peer (network-level failure).
    isolated: Vec<bool>,
    /// Coordinator of the most recent write the client saw commit — the
    /// bootstrap choice if the run ends in total failure (it participated
    /// in every commit before its own last one, so its fail-lock table
    /// and session vector are as complete as any site's).
    last_commit_coordinator: Option<u8>,
    outcome: ChaosOutcome,
    opts: ChaosOptions,
}

impl<T: Transport, M: Mailbox> Harness<T, M> {
    fn trace(&mut self, line: String) {
        self.outcome.trace.push(line);
    }

    fn violation(&mut self, step: u32, what: String) {
        self.outcome
            .trace
            .push(format!("{{\"step\":{step},\"violation\":\"{what}\"}}"));
        self.outcome.violations.push(format!("step {step}: {what}"));
    }

    /// Harvest outcome reports that arrived after their submitter gave
    /// up waiting: a late *abort* removes the write from the in-doubt
    /// set (the oracle gets stricter); a late commit leaves it
    /// acceptable.
    fn harvest_late_reports(&mut self) {
        for report in self.client.drain_reports() {
            if matches!(report.outcome, TxnOutcome::Aborted(_)) {
                for oracle in self.oracle.values_mut() {
                    oracle.in_doubt.retain(|(v, _)| *v != report.txn.0);
                }
            }
        }
    }

    fn run_write(&mut self, step: u32, rng: &mut StdRng) {
        let ups: Vec<u8> = (0..self.opts.n_sites)
            .filter(|i| self.up[*i as usize])
            .collect();
        let Some(&site) = ups.get(rng.random_range(0..ups.len())) else {
            return;
        };
        let item = rng.random_range(0..self.opts.db_size);
        let id = self.client.next_txn_id();
        let data = id.0; // unique payload: the txn id itself
        self.trace(format!(
            "{{\"step\":{step},\"action\":\"write\",\"site\":{site},\"item\":{item},\"txn\":{}}}",
            id.0
        ));
        let txn = Transaction::new(id, vec![Operation::Write(ItemId(item), data)]);
        match self.client.run_txn(SiteId(site), txn, TXN_WAIT) {
            Ok(report) => {
                let oracle = self.oracle.entry(item).or_default();
                if report.outcome.is_committed() {
                    oracle.last_committed = Some((id.0, data));
                    self.last_commit_coordinator = Some(site);
                    self.outcome.committed_writes += 1;
                    self.trace(format!(
                        "{{\"step\":{step},\"observed\":\"committed\",\"txn\":{}}}",
                        id.0
                    ));
                } else {
                    self.outcome.aborted += 1;
                    self.trace(format!(
                        "{{\"step\":{step},\"observed\":\"aborted\",\"txn\":{}}}",
                        id.0
                    ));
                }
            }
            Err(ControlError::Timeout(_)) => {
                // In doubt: it may yet commit inside the cluster.
                self.oracle
                    .entry(item)
                    .or_default()
                    .in_doubt
                    .push((id.0, data));
                self.outcome.in_doubt_writes += 1;
                self.trace(format!(
                    "{{\"step\":{step},\"observed\":\"in_doubt\",\"txn\":{}}}",
                    id.0
                ));
            }
            Err(ControlError::Disconnected) => {
                self.violation(step, "manager disconnected".into());
            }
        }
    }

    fn run_read(&mut self, step: u32, rng: &mut StdRng) {
        let ups: Vec<u8> = (0..self.opts.n_sites)
            .filter(|i| self.up[*i as usize])
            .collect();
        let Some(&site) = ups.get(rng.random_range(0..ups.len())) else {
            return;
        };
        let item = rng.random_range(0..self.opts.db_size);
        let id = self.client.next_txn_id();
        self.trace(format!(
            "{{\"step\":{step},\"action\":\"read\",\"site\":{site},\"item\":{item},\"txn\":{}}}",
            id.0
        ));
        let txn = Transaction::new(id, vec![Operation::Read(ItemId(item))]);
        match self.client.run_txn(SiteId(site), txn, TXN_WAIT) {
            Ok(report) if report.outcome.is_committed() => {
                let (version, data) = report
                    .read_results
                    .first()
                    .map(|(_, v)| (v.version, v.data))
                    .unwrap_or((0, 0));
                let oracle = self.oracle.entry(item).or_default().clone();
                if !oracle.acceptable(version, data) {
                    self.violation(
                        step,
                        format!(
                            "read of item {item} via site {site} returned \
                             version={version} data={data}, outside the \
                             acceptable set ({})",
                            oracle.describe()
                        ),
                    );
                }
            }
            Ok(_) => self.outcome.aborted += 1,
            Err(ControlError::Timeout(_)) => {
                self.trace(format!("{{\"step\":{step},\"observed\":\"read_timeout\"}}"));
            }
            Err(ControlError::Disconnected) => {
                self.violation(step, "manager disconnected".into());
            }
        }
    }

    /// Scrape a random site's metrics — works even against down sites.
    fn scrape(&mut self, step: u32, rng: &mut StdRng) {
        let site = rng.random_range(0..self.opts.n_sites);
        if self.client.fetch_metrics(SiteId(site), MGMT_WAIT).is_err() {
            self.violation(step, format!("metrics scrape of site {site} failed"));
        }
    }

    /// Re-derive every site's outbound block set from the `isolated`
    /// flags: the link i→j is blocked iff either endpoint is isolated.
    /// Computing the whole matrix (instead of editing blocks
    /// incrementally) means healing one site can never accidentally
    /// reopen links that belong to a *different* site's isolation.
    /// New blocks are installed before old ones are lifted, so no frame
    /// slips through mid-update.
    fn apply_blocks(&self) {
        for (i, control) in self.controls.iter().enumerate() {
            for peer in 0..self.opts.n_sites {
                if peer as usize == i {
                    continue;
                }
                if self.isolated[i] || self.isolated[peer as usize] {
                    control.block_to(SiteId(peer));
                } else {
                    control.unblock_to(SiteId(peer));
                }
            }
        }
    }

    /// Cut a site off from every peer: block its outbound links and
    /// every peer's link toward it. The survivors will detect the
    /// "failure" through their 2PC timeouts.
    fn isolate(&mut self, step: u32, site: u8) {
        self.isolated[site as usize] = true;
        self.apply_blocks();
        self.up[site as usize] = false;
        self.trace(format!(
            "{{\"step\":{step},\"action\":\"isolate\",\"site\":{site}}}"
        ));
    }

    /// Reconnect an isolated site and re-integrate it: its protocol
    /// state is arbitrary after the survivors excluded it, so it rejoins
    /// the way a restarted site does — fail, then recover. The fail is
    /// issued *before* the links reopen (management traffic bypasses the
    /// blocks): a still-Up site behind a partition holds a stale
    /// worldview, and letting it speak first can poison the survivors —
    /// its leftover 2PC state yields failure announcements carrying
    /// live session numbers that mark healthy sites down in everyone's
    /// vectors, and a later recovery may then pick the stale site as its
    /// state donor. A down engine ignores all non-management traffic, so
    /// failing first makes the rejoin indistinguishable from a crash.
    fn heal_isolation(&mut self, step: u32, site: u8) {
        self.client.fail(SiteId(site));
        std::thread::sleep(Duration::from_millis(50));
        self.isolated[site as usize] = false;
        self.apply_blocks();
        self.trace(format!(
            "{{\"step\":{step},\"action\":\"heal\",\"site\":{site}}}"
        ));
        match self.client.recover(SiteId(site), MGMT_WAIT) {
            Ok(_) => self.up[site as usize] = true,
            Err(ControlError::Timeout(_)) => {
                // Stays down; a later recover step or the convergence
                // phase retries.
                self.trace(format!(
                    "{{\"step\":{step},\"observed\":\"recover_timeout\",\"site\":{site}}}"
                ));
            }
            Err(ControlError::Disconnected) => {
                self.violation(step, "manager disconnected".into());
            }
        }
    }

    /// Heal everything, fail-and-recover every site (normalizing any
    /// divergent up/down perception the failures caused), then read
    /// the full database through every site and compare.
    fn converge(&mut self) {
        let step = self.opts.steps; // trace label for the final phase

        // Fail every still-isolated site *before* reconnecting it (same
        // rationale as `heal_isolation`: a stale-Up site speaking first
        // can poison the survivors' session vectors and get picked as a
        // recovery-state donor). Management commands bypass the blocks.
        for i in 0..self.opts.n_sites {
            if self.isolated[i as usize] {
                self.client.fail(SiteId(i));
            }
        }
        std::thread::sleep(Duration::from_millis(50));

        for flag in self.isolated.iter_mut() {
            *flag = false;
        }
        for control in &self.controls {
            control.unblock_all();
        }
        self.trace(format!("{{\"step\":{step},\"action\":\"heal_all\"}}"));
        // Let in-flight transactions resolve before normalizing.
        std::thread::sleep(Duration::from_millis(1200));
        self.harvest_late_reports();

        // First bring every down site back while the surviving up sites
        // can serve as state donors. (Failing a survivor first could
        // leave zero operational sites; recovery needs a donor.)
        let mut stuck: Vec<u8> = Vec::new();
        for i in 0..self.opts.n_sites {
            if self.up[i as usize] {
                continue;
            }
            match self.client.recover(SiteId(i), MGMT_WAIT) {
                Ok(session) => {
                    self.up[i as usize] = true;
                    self.trace(format!(
                        "{{\"step\":{step},\"action\":\"rejoin\",\"site\":{i},\"session\":{}}}",
                        session.0
                    ));
                }
                Err(ControlError::Timeout(_)) => stuck.push(i),
                Err(e) => {
                    self.violation(step, format!("site {i} failed to rejoin: {e}"));
                    return;
                }
            }
        }

        // A recovery that found no donor means the run ended in *total
        // failure*: under message loss, crossing failure announcements
        // can make the last two operational sites each exclude the other
        // — and the fail-stop step-down then takes both down, invisibly
        // to the harness's own up/down bookkeeping. The paper's answer
        // is that the last site to fail recovers first from its own
        // state. Fail everything (a no-op on already-down engines, and
        // the normalization pass below re-recovers every site anyway),
        // bootstrap the coordinator of the last committed write, and
        // retry the rejoins with it as the donor.
        if !stuck.is_empty() {
            for i in 0..self.opts.n_sites {
                self.client.fail(SiteId(i));
                self.up[i as usize] = false;
            }
            std::thread::sleep(Duration::from_millis(50));
            let seed_site = self.last_commit_coordinator.unwrap_or(0);
            match self.client.bootstrap(SiteId(seed_site), MGMT_WAIT) {
                Ok(session) => {
                    self.up[seed_site as usize] = true;
                    self.trace(format!(
                        "{{\"step\":{step},\"action\":\"bootstrap\",\"site\":{seed_site},\"session\":{}}}",
                        session.0
                    ));
                }
                Err(e) => {
                    self.violation(
                        step,
                        format!("total-failure bootstrap of site {seed_site} failed: {e}"),
                    );
                    return;
                }
            }
            for i in 0..self.opts.n_sites {
                if self.up[i as usize] {
                    continue;
                }
                match self.client.recover(SiteId(i), MGMT_WAIT) {
                    Ok(session) => {
                        self.up[i as usize] = true;
                        self.trace(format!(
                            "{{\"step\":{step},\"action\":\"rejoin\",\"site\":{i},\"session\":{}}}",
                            session.0
                        ));
                    }
                    Err(e) => {
                        self.violation(step, format!("site {i} failed to rejoin: {e}"));
                        return;
                    }
                }
            }
        }

        // Then cycle every site through fail + recover: each one rebuilds
        // its session vector and fail-lock table from an operational peer,
        // clearing any divergent up/down perception left by the schedule.
        for i in 0..self.opts.n_sites {
            self.client.fail(SiteId(i));
            std::thread::sleep(Duration::from_millis(50));
            match self.client.recover(SiteId(i), MGMT_WAIT) {
                Ok(session) => self.trace(format!(
                    "{{\"step\":{step},\"action\":\"normalize\",\"site\":{i},\"session\":{}}}",
                    session.0
                )),
                Err(e) => {
                    self.violation(step, format!("site {i} failed to recover: {e}"));
                    return;
                }
            }
            self.up[i as usize] = true;
        }
        self.harvest_late_reports();

        // Up to two read rounds: the first may race a just-resolved
        // in-doubt transaction; a repeat must agree.
        for attempt in 0..2 {
            match self.read_all_sites(step) {
                Ok(db) => {
                    for &(item, version, data) in &db {
                        let oracle = self.oracle.entry(item).or_default().clone();
                        if !oracle.acceptable(version, data) {
                            self.violation(
                                step,
                                format!(
                                    "converged item {item} has version={version} \
                                     data={data}, outside the acceptable set ({})",
                                    oracle.describe()
                                ),
                            );
                        }
                    }
                    self.outcome.final_db = db;
                    return;
                }
                Err(divergence) if attempt == 0 => {
                    self.trace(format!(
                        "{{\"step\":{step},\"observed\":\"divergence_retry\",\"detail\":\"{divergence}\"}}"
                    ));
                    std::thread::sleep(Duration::from_millis(1000));
                }
                Err(divergence) => {
                    self.violation(step, format!("copies diverged: {divergence}"));
                    return;
                }
            }
        }
    }

    /// One full-database read through every site. `Ok` carries the
    /// agreed image; `Err` describes the first divergence.
    #[allow(clippy::type_complexity)]
    fn read_all_sites(&mut self, step: u32) -> Result<Vec<(u32, u64, u64)>, String> {
        let mut reference: Option<(u8, Vec<(u32, u64, u64)>)> = None;
        for site in 0..self.opts.n_sites {
            let ops: Vec<Operation> = (0..self.opts.db_size)
                .map(|i| Operation::Read(ItemId(i)))
                .collect();
            let id = self.client.next_txn_id();
            let report = self
                .client
                .run_txn(SiteId(site), Transaction::new(id, ops), MGMT_WAIT)
                .map_err(|e| format!("full read via site {site}: {e}"))?;
            if !report.outcome.is_committed() {
                return Err(format!(
                    "full read via site {site} aborted: {:?}",
                    report.outcome
                ));
            }
            let image: Vec<(u32, u64, u64)> = report
                .read_results
                .iter()
                .map(|(item, v)| (item.0, v.version, v.data))
                .collect();
            self.trace(format!(
                "{{\"step\":{step},\"observed\":\"full_read\",\"site\":{site},\"items\":{}}}",
                image.len()
            ));
            match &reference {
                None => reference = Some((site, image)),
                Some((ref_site, ref_image)) => {
                    if *ref_image != image {
                        let detail = ref_image
                            .iter()
                            .zip(&image)
                            .find(|(a, b)| a != b)
                            .map(|(a, b)| {
                                format!(
                                    "item {}: site {ref_site} has (v{},d{}), site {site} has (v{},d{})",
                                    a.0, a.1, a.2, b.1, b.2
                                )
                            })
                            .unwrap_or_else(|| "length mismatch".into());
                        return Err(detail);
                    }
                }
            }
        }
        Ok(reference.map(|(_, image)| image).unwrap_or_default())
    }
}

/// Chaos tracing: observed sites streaming into `dir`, or none.
fn traced(dir: &Option<PathBuf>) -> Tracing {
    dir.clone()
        .map_or(Tracing::Off, |dir| Tracing::Observed(Some(dir)))
}

/// Run one randomized chaos schedule against a threaded channel cluster
/// and return what happened. The caller decides what to do with
/// violations (tests assert emptiness; the `chaos` binary prints the
/// trace and exits nonzero).
pub fn run_thread_chaos(opts: ChaosOptions) -> ChaosOutcome {
    let config = ProtocolConfig {
        db_size: opts.db_size,
        n_sites: opts.n_sites,
        ..ProtocolConfig::default()
    };
    let plan = FaultPlan {
        drop: opts.drop,
        duplicate: opts.duplicate,
        ..FaultPlan::none(opts.seed)
    };
    let Launched {
        cluster,
        client,
        controls,
        ..
    } = ClusterBuilder::new(config, ClusterTiming::default())
        .faults(plan, opts.with_reliable)
        .tracing(traced(&opts.trace_dir))
        .launch()
        .expect("launch chaos cluster");

    let mut harness = Harness {
        client,
        controls,
        oracle: HashMap::new(),
        up: vec![true; opts.n_sites as usize],
        isolated: vec![false; opts.n_sites as usize],
        last_commit_coordinator: None,
        outcome: ChaosOutcome::default(),
        opts: opts.clone(),
    };
    harness.trace(format!(
        "{{\"seed\":{},\"steps\":{},\"n_sites\":{},\"drop\":{},\"duplicate\":{},\"reliable\":{}}}",
        opts.seed, opts.steps, opts.n_sites, opts.drop, opts.duplicate, opts.with_reliable
    ));

    let mut rng = StdRng::seed_from_u64(opts.seed);
    for step in 0..opts.steps {
        if !harness.outcome.violations.is_empty() {
            break; // stop at first violation; the trace explains it
        }
        harness.harvest_late_reports();
        let up_count = harness.up.iter().filter(|u| **u).count();
        let roll = rng.random_range(0..100u32);
        if roll < 8 && up_count > 1 {
            // Kill a random up site.
            let victims: Vec<u8> = (0..opts.n_sites)
                .filter(|i| harness.up[*i as usize])
                .collect();
            let site = victims[rng.random_range(0..victims.len())];
            harness.client.fail(SiteId(site));
            harness.up[site as usize] = false;
            harness.trace(format!(
                "{{\"step\":{step},\"action\":\"kill\",\"site\":{site}}}"
            ));
        } else if roll < 18 && up_count < opts.n_sites as usize {
            // Recover a random down site (isolated sites can't: they are
            // unreachable from the peers recovery needs).
            let downs: Vec<u8> = (0..opts.n_sites)
                .filter(|i| !harness.up[*i as usize] && !harness.isolated[*i as usize])
                .collect();
            if downs.is_empty() {
                continue;
            }
            let site = downs[rng.random_range(0..downs.len())];
            harness.trace(format!(
                "{{\"step\":{step},\"action\":\"recover\",\"site\":{site}}}"
            ));
            match harness.client.recover(SiteId(site), MGMT_WAIT) {
                Ok(_) => harness.up[site as usize] = true,
                Err(ControlError::Timeout(_)) => {
                    // Recovery can stall while its peers are faulted or
                    // partitioned; the site stays down and a later step
                    // (or the convergence phase) retries.
                    harness.trace(format!(
                        "{{\"step\":{step},\"observed\":\"recover_timeout\",\"site\":{site}}}"
                    ));
                }
                Err(ControlError::Disconnected) => {
                    harness.violation(step, "manager disconnected".into());
                }
            }
        } else if roll < 24 && up_count > 1 {
            // Network-isolate a random up site (full cut, both ways).
            let candidates: Vec<u8> = (0..opts.n_sites)
                .filter(|i| harness.up[*i as usize] && !harness.isolated[*i as usize])
                .collect();
            if !candidates.is_empty() {
                let site = candidates[rng.random_range(0..candidates.len())];
                harness.isolate(step, site);
            }
        } else if roll < 30 {
            // Heal a random isolated site and re-integrate it.
            let isolated: Vec<u8> = (0..opts.n_sites)
                .filter(|i| harness.isolated[*i as usize])
                .collect();
            if !isolated.is_empty() {
                let site = isolated[rng.random_range(0..isolated.len())];
                harness.heal_isolation(step, site);
            }
        } else if roll < 34 {
            harness.scrape(step, &mut rng);
        } else if roll < 75 {
            harness.run_write(step, &mut rng);
        } else {
            harness.run_read(step, &mut rng);
        }
    }

    if harness.outcome.violations.is_empty() {
        harness.converge();
    }

    let mut outcome = std::mem::take(&mut harness.outcome);
    harness.client.terminate_all();
    cluster.join(Duration::from_secs(5));
    outcome.trace.push(format!(
        "{{\"summary\":{{\"committed\":{},\"in_doubt\":{},\"aborted\":{},\"violations\":{}}}}}",
        outcome.committed_writes,
        outcome.in_doubt_writes,
        outcome.aborted,
        outcome.violations.len()
    ));
    outcome
}

/// Knobs for a sharded chaos run: several independent replication
/// groups under one [`ShardedClient`], with single- and cross-shard
/// traffic, site kills and recoveries, and faulty links.
#[derive(Debug, Clone)]
pub struct ShardChaosOptions {
    /// Master seed: drives the schedule RNG and the per-site fault RNGs.
    pub seed: u64,
    /// Schedule steps.
    pub steps: u32,
    /// Replication groups.
    pub n_groups: u8,
    /// Database sites per group.
    pub sites_per_group: u8,
    /// Items per group (each group's sites replicate this slice).
    pub group_db_size: u32,
    /// Percent of data writes that span two groups (cross-shard 2PC).
    pub cross_pct: u32,
    /// Per-frame drop probability on every site's transport.
    pub drop: f64,
    /// Per-frame duplication probability.
    pub duplicate: f64,
    /// Layer the reliable session protocol over the faulty links.
    pub with_reliable: bool,
    /// Repeatedly kill the cross-shard coordinator at this kill-point:
    /// the harness arms the one-shot kill, lets the takeover run, and
    /// re-arms once the successor has resolved every orphan. `None`
    /// leaves the coordinator immortal (the pre-decision-log model).
    pub kill_coordinator: Option<CoordKillPoint>,
    /// Override [`ProtocolConfig::shard_vote_timeout_ms`] — the
    /// successor's takeover delay after a coordinator crash. `None`
    /// keeps the config default (the timer-sweep lever).
    pub shard_vote_timeout_ms: Option<u64>,
    /// Override [`ProtocolConfig::shard_redrive_interval_ms`] — the
    /// decide/append retry cadence. `None` keeps the config default.
    pub shard_redrive_interval_ms: Option<u64>,
    /// The observability scenario: per-site and client (`client.jsonl`)
    /// JSONL streams under this directory, and WAL-backed sites, so
    /// traced transactions carry their covering group fsync in the span
    /// tree.
    pub trace_dir: Option<PathBuf>,
}

impl Default for ShardChaosOptions {
    fn default() -> Self {
        ShardChaosOptions {
            seed: 1,
            steps: 60,
            n_groups: 2,
            sites_per_group: 2,
            group_db_size: 8,
            cross_pct: 30,
            drop: 0.10,
            duplicate: 0.05,
            with_reliable: true,
            kill_coordinator: None,
            shard_vote_timeout_ms: None,
            shard_redrive_interval_ms: None,
            trace_dir: None,
        }
    }
}

struct ShardHarness<T: Transport, M: Mailbox> {
    client: ShardedClient<T, M>,
    spec: ShardSpec,
    /// Oracle keyed by *global* item id.
    oracle: HashMap<u32, ItemOracle>,
    /// Per-physical-site up/down belief (the harness's own actions).
    up: Vec<bool>,
    /// Write sets of transactions whose final outcome the harness has
    /// not yet recorded: `txn id → (cross_shard, [(item, data)])`.
    /// Entries persist across a report timeout so a late resolution
    /// (harvested from the client) still updates the oracle.
    pending_writes: HashMap<u64, (bool, Vec<(u32, u64)>)>,
    /// Cross-shard transaction ids the top-level coordinator decided to
    /// abort: their version stamp must appear on *no* item afterwards
    /// (atomicity — no branch may have committed).
    aborted_cross: Vec<u64>,
    outcome: ChaosOutcome,
    opts: ShardChaosOptions,
}

impl<T: Transport, M: Mailbox> ShardHarness<T, M> {
    fn trace(&mut self, line: String) {
        self.outcome.trace.push(line);
    }

    /// Emit a schedule action as a [`EventKind::Chaos`] annotation into
    /// the client's trace stream (no-op when tracing is off), so a
    /// captured JSONL file interleaves kills and recoveries with the
    /// transaction spans they disturbed.
    fn annotate(&self, action: ChaosAction, target: SiteId) {
        self.client
            .tracer()
            .emit_traced(None, 0, EventKind::Chaos { action, target });
    }

    fn violation(&mut self, step: u32, what: String) {
        self.outcome
            .trace
            .push(format!("{{\"step\":{step},\"violation\":\"{what}\"}}"));
        self.outcome.violations.push(format!("step {step}: {what}"));
    }

    /// Record a transaction's final outcome against the oracle. Safe to
    /// call for ids the harness never tracked (reads, duplicates): those
    /// are ignored. A commit promotes `last_committed` only when the
    /// transaction id is *newer* than what's recorded — cross-shard
    /// transactions can resolve late, after a younger single-shard write
    /// to the same item already committed, and version ordering
    /// (`put_if_fresher`) makes the younger write the survivor.
    fn record_outcome(&mut self, step: u32, txn: u64, committed: bool) {
        let Some((cross, writes)) = self.pending_writes.remove(&txn) else {
            return;
        };
        if committed {
            for &(item, data) in &writes {
                let oracle = self.oracle.entry(item).or_default();
                let newer = match oracle.last_committed {
                    Some((v, _)) => txn > v,
                    None => true,
                };
                if newer {
                    oracle.last_committed = Some((txn, data));
                }
                oracle.in_doubt.retain(|(v, _)| *v != txn);
            }
            self.outcome.committed_writes += 1;
            self.trace(format!(
                "{{\"step\":{step},\"observed\":\"committed\",\"txn\":{txn},\"cross\":{cross}}}"
            ));
        } else {
            for &(item, _) in &writes {
                self.oracle
                    .entry(item)
                    .or_default()
                    .in_doubt
                    .retain(|(v, _)| *v != txn);
            }
            if cross {
                self.aborted_cross.push(txn);
            }
            self.outcome.aborted += 1;
            self.trace(format!(
                "{{\"step\":{step},\"observed\":\"aborted\",\"txn\":{txn},\"cross\":{cross}}}"
            ));
        }
    }

    /// Harvest outcomes that arrived after their submitter gave up
    /// waiting (late re-driven commits, late global aborts).
    fn harvest(&mut self, step: u32) {
        for report in self.client.drain_finished() {
            self.record_outcome(step, report.txn.0, report.committed());
        }
    }

    fn run_write(&mut self, step: u32, rng: &mut StdRng) {
        let id = self.client.next_txn_id();
        let data = id.0;
        let cross = self.spec.n_groups >= 2 && rng.random_range(0..100u32) < self.opts.cross_pct;
        let ops: Vec<Operation> = if cross {
            // Two distinct groups, one item in each.
            let g1 = rng.random_range(0..self.spec.n_groups);
            let g2 = (g1 + 1 + rng.random_range(0..self.spec.n_groups - 1)) % self.spec.n_groups;
            let mut items = [
                self.spec
                    .globalize(g1, ItemId(rng.random_range(0..self.opts.group_db_size))),
                self.spec
                    .globalize(g2, ItemId(rng.random_range(0..self.opts.group_db_size))),
            ];
            items.sort();
            items.iter().map(|&i| Operation::Write(i, data)).collect()
        } else {
            let item = rng.random_range(0..self.spec.global_db_size());
            vec![Operation::Write(ItemId(item), data)]
        };
        let writes: Vec<(u32, u64)> = ops
            .iter()
            .map(|op| match op {
                Operation::Write(item, d) => (item.0, *d),
                Operation::Read(_) => unreachable!("write-only ops"),
            })
            .collect();
        self.trace(format!(
            "{{\"step\":{step},\"action\":\"write\",\"txn\":{},\"cross\":{cross},\"items\":{:?}}}",
            id.0,
            writes.iter().map(|(i, _)| *i).collect::<Vec<_>>()
        ));
        self.pending_writes.insert(id.0, (cross, writes.clone()));
        match self.client.run_txn(Transaction::new(id, ops), TXN_WAIT) {
            Ok(report) => self.record_outcome(step, id.0, report.committed()),
            Err(ControlError::Timeout(_)) => {
                // In doubt: the write set stays in `pending_writes`, so
                // a late resolution harvested from the client resolves
                // the doubt either way.
                for (item, data) in writes {
                    self.oracle
                        .entry(item)
                        .or_default()
                        .in_doubt
                        .push((id.0, data));
                }
                self.outcome.in_doubt_writes += 1;
                self.trace(format!(
                    "{{\"step\":{step},\"observed\":\"in_doubt\",\"txn\":{}}}",
                    id.0
                ));
            }
            Err(ControlError::Disconnected) => {
                self.violation(step, "manager disconnected".into());
            }
        }
    }

    fn run_read(&mut self, step: u32, rng: &mut StdRng) {
        let item = rng.random_range(0..self.spec.global_db_size());
        let id = self.client.next_txn_id();
        self.trace(format!(
            "{{\"step\":{step},\"action\":\"read\",\"item\":{item},\"txn\":{}}}",
            id.0
        ));
        let txn = Transaction::new(id, vec![Operation::Read(ItemId(item))]);
        match self.client.run_txn(txn, TXN_WAIT) {
            Ok(report) if report.committed() => {
                let (version, data) = report
                    .read_results
                    .first()
                    .map(|(_, v)| (v.version, v.data))
                    .unwrap_or((0, 0));
                let oracle = self.oracle.entry(item).or_default().clone();
                if !oracle.acceptable(version, data) {
                    self.violation(
                        step,
                        format!(
                            "read of item {item} returned version={version} \
                             data={data}, outside the acceptable set ({})",
                            oracle.describe()
                        ),
                    );
                }
            }
            Ok(_) => self.outcome.aborted += 1,
            Err(ControlError::Timeout(_)) => {
                self.trace(format!("{{\"step\":{step},\"observed\":\"read_timeout\"}}"));
            }
            Err(ControlError::Disconnected) => {
                self.violation(step, "manager disconnected".into());
            }
        }
    }

    fn scrape(&mut self, step: u32, rng: &mut StdRng) {
        let site = rng.random_range(0..self.spec.n_physical_sites());
        if self.client.fetch_metrics(SiteId(site), MGMT_WAIT).is_err() {
            self.violation(step, format!("metrics scrape of site {site} failed"));
        }
    }

    /// Sites whose group would keep at least one up member if they were
    /// killed — the sharded schedule never takes a whole group down on
    /// purpose (recovery needs an in-group donor), though crossing
    /// failure announcements under loss can still do it invisibly; the
    /// convergence phase's bootstrap fallback handles that.
    fn killable(&self) -> Vec<u8> {
        (0..self.spec.n_physical_sites())
            .filter(|&s| {
                if !self.up[s as usize] {
                    return false;
                }
                let (group, _) = self.spec.local_site(SiteId(s));
                self.spec
                    .group_members(group)
                    .iter()
                    .filter(|m| self.up[m.index()])
                    .count()
                    >= 2
            })
            .collect()
    }

    /// Probe whether a site's engine is actually operational: a down
    /// engine aborts any submitted transaction with
    /// `SiteNotOperational`. Crossing failure announcements under loss
    /// can step a site down *invisibly* (the harness still believes it
    /// up), and recovery donor selection must not count such a site.
    /// A probe timeout (e.g. blocked behind a parked branch's lock) is
    /// treated as operational.
    fn probe_up(&mut self, site: SiteId) -> bool {
        let (group, _) = self.spec.local_site(site);
        let id = self.client.next_txn_id();
        let probe = Transaction::new(
            id,
            vec![Operation::Read(self.spec.globalize(group, ItemId(0)))],
        );
        match self
            .client
            .run_txn_at(site, probe, Duration::from_millis(1500))
        {
            Ok(report) => !matches!(
                report.outcome,
                TxnOutcome::Aborted(AbortReason::SiteNotOperational)
            ),
            Err(_) => true,
        }
    }

    /// Total-group-failure recovery, the paper's "the last site to fail
    /// recovers first from its own state": fail every member, bootstrap
    /// the member that reported the group's most recent commit (it was
    /// provably operational at that commit, so its copy is as complete
    /// as any member's), then recover the rest from it. Returns false
    /// (after recording a violation) when the group cannot be revived.
    fn group_reset(&mut self, step: u32, group: u8) -> bool {
        let members = self.spec.group_members(group);
        let seed_site = self
            .client
            .last_commit_coordinator(group)
            .unwrap_or(members[0]);
        for m in &members {
            self.annotate(ChaosAction::Kill, *m);
            self.client.fail(*m);
            self.up[m.index()] = false;
        }
        std::thread::sleep(Duration::from_millis(50));
        self.annotate(ChaosAction::Bootstrap, seed_site);
        match self.client.bootstrap(seed_site, MGMT_WAIT) {
            Ok(session) => {
                self.up[seed_site.index()] = true;
                self.trace(format!(
                    "{{\"step\":{step},\"action\":\"bootstrap\",\"group\":{group},\"site\":{},\"session\":{}}}",
                    seed_site.0, session.0
                ));
            }
            Err(e) => {
                self.violation(
                    step,
                    format!("group {group} bootstrap of site {seed_site} failed: {e}"),
                );
                return false;
            }
        }
        for m in &members {
            if self.up[m.index()] {
                continue;
            }
            self.annotate(ChaosAction::Recover, *m);
            match self.client.recover(*m, MGMT_WAIT) {
                Ok(_) => self.up[m.index()] = true,
                Err(e) => {
                    self.violation(step, format!("site {m} failed to rejoin: {e}"));
                    return false;
                }
            }
        }
        true
    }

    /// Recover every down site, pump cross-shard work dry, normalize
    /// every site, then read each group's slice through each of its
    /// members and compare — per-group convergence plus cross-shard
    /// atomicity (no aborted cross-shard id on any item).
    fn converge(&mut self) {
        let step = self.opts.steps;
        self.trace(format!("{{\"step\":{step},\"action\":\"converge\"}}"));

        // Find out which sites are *actually* operational (invisible
        // step-downs included), then bring every down site back while
        // its group's true survivors can donate state. A group with no
        // operational member left gets the total-failure reset.
        for i in 0..self.spec.n_physical_sites() {
            if self.up[i as usize] && !self.probe_up(SiteId(i)) {
                self.up[i as usize] = false;
                self.trace(format!(
                    "{{\"step\":{step},\"observed\":\"invisible_down\",\"site\":{i}}}"
                ));
            }
        }
        for group in 0..self.spec.n_groups {
            let mut need_reset = false;
            for m in self.spec.group_members(group) {
                if self.up[m.index()] {
                    continue;
                }
                self.annotate(ChaosAction::Recover, m);
                match self.client.recover(m, MGMT_WAIT) {
                    Ok(session) => {
                        self.up[m.index()] = true;
                        self.trace(format!(
                            "{{\"step\":{step},\"action\":\"rejoin\",\"site\":{},\"session\":{}}}",
                            m.0, session.0
                        ));
                    }
                    Err(ControlError::Timeout(_)) => {
                        need_reset = true;
                        break;
                    }
                    Err(e) => {
                        self.violation(step, format!("site {m} failed to rejoin: {e}"));
                        return;
                    }
                }
            }
            if need_reset && !self.group_reset(step, group) {
                return;
            }
        }

        // Drain the cross-shard pipeline: every committed-but-
        // unconfirmed branch must confirm through the re-drive loop. A
        // pipeline that never drains is a blocked cross-shard commit —
        // exactly the violation the re-drive protocol exists to prevent.
        let drain_deadline = Instant::now() + Duration::from_secs(10);
        while self.client.pending_cross() > 0 {
            if Instant::now() >= drain_deadline {
                let n = self.client.pending_cross();
                self.violation(
                    step,
                    format!("{n} cross-shard transaction(s) stuck unresolved after heal"),
                );
                return;
            }
            let _ = self.client.pump_for(Duration::from_millis(100));
            self.harvest(step);
        }
        self.harvest(step);

        // Cycle every site through fail + recover to clear divergent
        // up/down perception, exactly as the unsharded converge does. A
        // timeout here means the site's donors went down invisibly
        // after the rejoin pass — reset the whole group.
        for i in 0..self.spec.n_physical_sites() {
            self.annotate(ChaosAction::Kill, SiteId(i));
            self.client.fail(SiteId(i));
            std::thread::sleep(Duration::from_millis(50));
            self.annotate(ChaosAction::Recover, SiteId(i));
            match self.client.recover(SiteId(i), MGMT_WAIT) {
                Ok(session) => {
                    self.up[i as usize] = true;
                    self.trace(format!(
                        "{{\"step\":{step},\"action\":\"normalize\",\"site\":{i},\"session\":{}}}",
                        session.0
                    ));
                }
                Err(ControlError::Timeout(_)) => {
                    let (group, _) = self.spec.local_site(SiteId(i));
                    self.up[i as usize] = false;
                    if !self.group_reset(step, group) {
                        return;
                    }
                }
                Err(e) => {
                    self.violation(step, format!("site {i} failed to recover: {e}"));
                    return;
                }
            }
        }
        self.harvest(step);

        // Up to two read rounds per group (the first may race a
        // just-resolved in-doubt transaction; a repeat must agree).
        let mut final_db: Vec<(u32, u64, u64)> = Vec::new();
        for group in 0..self.spec.n_groups {
            let image = match self.read_group_all(step, group) {
                Ok(image) => image,
                Err(divergence) => {
                    self.trace(format!(
                        "{{\"step\":{step},\"observed\":\"divergence_retry\",\"group\":{group},\"detail\":\"{divergence}\"}}"
                    ));
                    std::thread::sleep(Duration::from_millis(1000));
                    match self.read_group_all(step, group) {
                        Ok(image) => image,
                        Err(divergence) => {
                            self.violation(
                                step,
                                format!("group {group} copies diverged: {divergence}"),
                            );
                            return;
                        }
                    }
                }
            };
            final_db.extend(image);
        }
        final_db.sort_by_key(|&(item, _, _)| item);

        let aborted_cross = self.aborted_cross.clone();
        for &(item, version, data) in &final_db {
            let oracle = self.oracle.entry(item).or_default().clone();
            if !oracle.acceptable(version, data) {
                self.violation(
                    step,
                    format!(
                        "converged item {item} has version={version} data={data}, \
                         outside the acceptable set ({})",
                        oracle.describe()
                    ),
                );
            }
            if aborted_cross.contains(&version) {
                self.violation(
                    step,
                    format!(
                        "atomicity: item {item} carries version {version} of a \
                         globally aborted cross-shard transaction"
                    ),
                );
            }
        }
        self.outcome.final_db = final_db;
    }

    /// Read one group's full slice through every member and compare.
    /// `Ok` carries the agreed image (global item names); `Err`
    /// describes the first divergence.
    #[allow(clippy::type_complexity)]
    fn read_group_all(&mut self, step: u32, group: u8) -> Result<Vec<(u32, u64, u64)>, String> {
        let ops: Vec<Operation> = (0..self.opts.group_db_size)
            .map(|i| Operation::Read(self.spec.globalize(group, ItemId(i))))
            .collect();
        let mut reference: Option<(SiteId, Vec<(u32, u64, u64)>)> = None;
        for member in self.spec.group_members(group) {
            let id = self.client.next_txn_id();
            let report = self
                .client
                .run_txn_at(member, Transaction::new(id, ops.clone()), MGMT_WAIT)
                .map_err(|e| format!("full read via site {member}: {e}"))?;
            if !report.committed() {
                return Err(format!(
                    "full read via site {member} aborted: {:?}",
                    report.outcome
                ));
            }
            let image: Vec<(u32, u64, u64)> = report
                .read_results
                .iter()
                .map(|(item, v)| (item.0, v.version, v.data))
                .collect();
            self.trace(format!(
                "{{\"step\":{step},\"observed\":\"full_read\",\"group\":{group},\"site\":{},\"items\":{}}}",
                member.0,
                image.len()
            ));
            match &reference {
                None => reference = Some((member, image)),
                Some((ref_site, ref_image)) => {
                    if *ref_image != image {
                        let detail = ref_image
                            .iter()
                            .zip(&image)
                            .find(|(a, b)| a != b)
                            .map(|(a, b)| {
                                format!(
                                    "item {}: site {ref_site} has (v{},d{}), site {} has (v{},d{})",
                                    a.0, a.1, a.2, member.0, b.1, b.2
                                )
                            })
                            .unwrap_or_else(|| "length mismatch".into());
                        return Err(detail);
                    }
                }
            }
        }
        Ok(reference.map(|(_, image)| image).unwrap_or_default())
    }
}

/// Run one randomized chaos schedule against a *sharded* threaded
/// cluster: several independent replication groups, single- and
/// cross-shard transactions, kills and recoveries (never taking a whole
/// group down on purpose), lossy links. On top of the unsharded
/// invariants — applied per group — the oracle checks cross-shard
/// atomicity: a globally aborted transaction's version stamp must
/// appear on no item, and a committed one must eventually confirm on
/// every branch (a stuck cross-shard pipeline after healing is a
/// violation).
pub fn run_sharded_chaos(opts: ShardChaosOptions) -> ChaosOutcome {
    let spec = ShardSpec::new(opts.n_groups, opts.sites_per_group, opts.group_db_size);
    let plan = FaultPlan {
        drop: opts.drop,
        duplicate: opts.duplicate,
        ..FaultPlan::none(opts.seed)
    };
    let defaults = ProtocolConfig::default();
    let config = ProtocolConfig {
        shard_vote_timeout_ms: opts
            .shard_vote_timeout_ms
            .unwrap_or(defaults.shard_vote_timeout_ms),
        shard_redrive_interval_ms: opts
            .shard_redrive_interval_ms
            .unwrap_or(defaults.shard_redrive_interval_ms),
        ..defaults
    };
    // Timer constraint of the decision-log design (DESIGN.md §13): a
    // parked branch's participants legitimately wait through a
    // coordinator crash + takeover — one vote timeout (the successor's
    // takeover delay), a quorum-read round (bounded by another vote
    // timeout under loss), plus one re-drive. A participant timeout
    // shorter than that budget declares the *parked* branch coordinator
    // failed mid-takeover and fail-locks its own staged copies, wrongly.
    let mut timing = ClusterTiming::default();
    let takeover_budget =
        Duration::from_millis(2 * config.shard_vote_timeout_ms + config.shard_redrive_interval_ms);
    if timing.participant_timeout < takeover_budget {
        timing.participant_timeout = takeover_budget;
    }
    let mut builder = ClusterBuilder::new(config, timing)
        .topology(spec)
        .faults(plan, opts.with_reliable)
        .tracing(traced(&opts.trace_dir));
    if opts.trace_dir.is_some() {
        // A traced run backs its sites with the WAL (see `trace_dir`).
        builder = builder.durable(
            &std::env::temp_dir().join(format!("miniraid-shard-wal-{}", std::process::id())),
        );
    }
    let Launched {
        cluster, client, ..
    } = builder.launch().expect("launch sharded chaos cluster");

    let mut harness = ShardHarness {
        client,
        spec,
        oracle: HashMap::new(),
        up: vec![true; spec.n_physical_sites() as usize],
        pending_writes: HashMap::new(),
        aborted_cross: Vec::new(),
        outcome: ChaosOutcome::default(),
        opts: opts.clone(),
    };
    harness.trace(format!(
        "{{\"mode\":\"sharded\",\"seed\":{},\"steps\":{},\"groups\":{},\"sites_per_group\":{},\"cross_pct\":{},\"drop\":{},\"duplicate\":{},\"reliable\":{},\"kill_coordinator\":{:?}}}",
        opts.seed,
        opts.steps,
        opts.n_groups,
        opts.sites_per_group,
        opts.cross_pct,
        opts.drop,
        opts.duplicate,
        opts.with_reliable,
        opts.kill_coordinator.map(|kp| kp.name())
    ));

    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut seen_crashes = 0u64;
    for step in 0..opts.steps {
        if !harness.outcome.violations.is_empty() {
            break;
        }
        harness.harvest(step);
        // Coordinator-kill schedule: keep the one-shot kill armed while
        // no takeover is in flight, so the coordinator keeps dying at
        // the chosen point for as long as the run submits cross-shard
        // work. (The last armed kill may fire during the convergence
        // drain — the takeover must still resolve it.)
        if let Some(kp) = opts.kill_coordinator {
            let crashes = harness.client.coordinator_crashes();
            if crashes > seen_crashes {
                seen_crashes = crashes;
                harness.trace(format!(
                    "{{\"step\":{step},\"observed\":\"coordinator_crash\",\"kill_point\":\"{}\",\"count\":{crashes}}}",
                    kp.name()
                ));
            }
            if harness.client.armed_kill_point().is_none() && !harness.client.takeover_pending() {
                harness.client.arm_coordinator_kill(kp);
                harness.trace(format!(
                    "{{\"step\":{step},\"action\":\"arm_kill_coordinator\",\"kill_point\":\"{}\"}}",
                    kp.name()
                ));
            }
        }
        let roll = rng.random_range(0..100u32);
        if roll < 8 {
            let victims = harness.killable();
            if victims.is_empty() {
                continue;
            }
            let site = victims[rng.random_range(0..victims.len())];
            harness.annotate(ChaosAction::Kill, SiteId(site));
            harness.client.fail(SiteId(site));
            harness.up[site as usize] = false;
            harness.trace(format!(
                "{{\"step\":{step},\"action\":\"kill\",\"site\":{site}}}"
            ));
        } else if roll < 18 {
            let downs: Vec<u8> = (0..spec.n_physical_sites())
                .filter(|i| !harness.up[*i as usize])
                .collect();
            if downs.is_empty() {
                continue;
            }
            let site = downs[rng.random_range(0..downs.len())];
            harness.annotate(ChaosAction::Recover, SiteId(site));
            harness.trace(format!(
                "{{\"step\":{step},\"action\":\"recover\",\"site\":{site}}}"
            ));
            match harness.client.recover(SiteId(site), MGMT_WAIT) {
                Ok(_) => harness.up[site as usize] = true,
                Err(ControlError::Timeout(_)) => {
                    harness.trace(format!(
                        "{{\"step\":{step},\"observed\":\"recover_timeout\",\"site\":{site}}}"
                    ));
                }
                Err(ControlError::Disconnected) => {
                    harness.violation(step, "manager disconnected".into());
                }
            }
        } else if roll < 22 {
            harness.scrape(step, &mut rng);
        } else if roll < 75 {
            harness.run_write(step, &mut rng);
        } else {
            harness.run_read(step, &mut rng);
        }
    }

    if harness.outcome.violations.is_empty() {
        harness.converge();
    }

    let xm = harness.client.xmetrics();
    let crashes = harness.client.coordinator_crashes();
    let cross_hist = harness.client.cross_commit_latency.clone();
    let takeover_hist = harness.client.takeover_latency.clone();
    let mut outcome = std::mem::take(&mut harness.outcome);
    outcome.coordinator_crashes = crashes;
    outcome.takeovers = xm.takeovers;
    outcome.takeover_p50_us = takeover_hist.quantile(0.5);
    outcome.takeover_p99_us = takeover_hist.quantile(0.99);
    harness.client.terminate_all();
    cluster.join(Duration::from_secs(5));
    outcome.trace.push(format!(
        "{{\"summary\":{{\"committed\":{},\"in_doubt\":{},\"aborted\":{},\"cross_begun\":{},\"cross_committed\":{},\"cross_aborted\":{},\"cross_redrives\":{},\"cross_commit_p50_us\":{},\"coordinator_crashes\":{crashes},\"takeovers\":{},\"takeover_p50_us\":{},\"violations\":{}}}}}",
        outcome.committed_writes,
        outcome.in_doubt_writes,
        outcome.aborted,
        xm.begun,
        xm.committed,
        xm.aborted,
        xm.redrives,
        cross_hist.quantile(0.5),
        xm.takeovers,
        takeover_hist.quantile(0.5),
        outcome.violations.len()
    ));
    outcome
}

/// Knobs for a reshard chaos run: a *mapped* threaded cluster (items
/// named globally, ownership decided by an epoch-versioned
/// [`ShardMap`]) migrating live under foreground traffic, with a kill
/// scheduled mid-migration.
#[derive(Debug, Clone)]
pub struct ReshardChaosOptions {
    /// Seed for the foreground schedule, the migration plan, the kill
    /// point placement and the fault plan.
    pub seed: u64,
    /// Replication groups (at least 2 — a migration needs somewhere to
    /// go).
    pub n_groups: u8,
    /// Sites per group.
    pub sites_per_group: u8,
    /// Global keyspace size (rounded up to a multiple of `n_groups`).
    pub db_size: u32,
    /// What to kill mid-migration (`None`: fault-free migration).
    pub kill: Option<ReshardKillPoint>,
    /// Per-message drop probability on non-management frames.
    pub drop: f64,
    /// Per-message duplicate probability.
    pub duplicate: f64,
    /// Re-send dropped 2PC frames (the reliable-delivery layer).
    pub with_reliable: bool,
    /// Per-site and client (`client.jsonl`) JSONL streams under this
    /// directory; the engines then also emit their persistence outputs.
    pub trace_dir: Option<PathBuf>,
}

impl Default for ReshardChaosOptions {
    fn default() -> Self {
        ReshardChaosOptions {
            seed: 7,
            n_groups: 2,
            sites_per_group: 2,
            db_size: 48,
            kill: None,
            drop: 0.0,
            duplicate: 0.0,
            with_reliable: true,
            trace_dir: None,
        }
    }
}

/// Oracle + schedule state for a reshard run. Deliberately does *not*
/// own the client: the resharder's interleave hook receives the client
/// by parameter while the closure captures this context, so both can
/// be borrowed mutably at once.
struct ReshardCtx {
    spec: ShardSpec,
    /// Global keyspace size.
    db_size: u32,
    /// Oracle keyed by global item id.
    oracle: HashMap<u32, ItemOracle>,
    /// Write sets of transactions whose final outcome is unrecorded:
    /// `txn id → [(item, data)]`.
    pending_writes: HashMap<u64, Vec<(u32, u64)>>,
    /// Per-physical-site up/down belief (the harness's own kills).
    up: Vec<bool>,
    outcome: ChaosOutcome,
    /// Foreground step counter (for trace lines).
    step: u32,
}

impl ReshardCtx {
    fn trace(&mut self, line: String) {
        self.outcome.trace.push(line);
    }

    fn violation(&mut self, what: String) {
        let step = self.step;
        self.outcome
            .trace
            .push(format!("{{\"step\":{step},\"violation\":\"{what}\"}}"));
        self.outcome.violations.push(format!("step {step}: {what}"));
    }

    /// Record a transaction's final outcome against the oracle (same
    /// newer-id-wins promotion as the sharded harness: a bounced write
    /// can resolve late, after a younger write to the same item).
    /// `version` is the id the write finally committed under
    /// (`committed_as`) — it differs from `txn` when a `WrongEpoch`
    /// bounce re-stamped the retry with a fresh, later id, and it is
    /// the version stamp the copies actually carry.
    fn record_outcome(&mut self, txn: u64, version: u64, committed: bool) {
        let Some(writes) = self.pending_writes.remove(&txn) else {
            return;
        };
        let step = self.step;
        if committed {
            for &(item, data) in &writes {
                let oracle = self.oracle.entry(item).or_default();
                let newer = match oracle.last_committed {
                    Some((v, _)) => version > v,
                    None => true,
                };
                if newer {
                    oracle.last_committed = Some((version, data));
                }
                oracle.in_doubt.retain(|(v, _)| *v != txn);
            }
            self.outcome.committed_writes += 1;
            self.trace(format!(
                "{{\"step\":{step},\"observed\":\"committed\",\"txn\":{txn},\"as\":{version}}}"
            ));
        } else {
            for &(item, _) in &writes {
                self.oracle
                    .entry(item)
                    .or_default()
                    .in_doubt
                    .retain(|(v, _)| *v != txn);
            }
            self.outcome.aborted += 1;
            self.trace(format!(
                "{{\"step\":{step},\"observed\":\"aborted\",\"txn\":{txn}}}"
            ));
        }
    }

    /// Harvest outcomes that arrived after their submitter gave up
    /// waiting (bounced writes re-routed post-cutover, late commits).
    fn harvest<T: Transport, M: Mailbox>(&mut self, client: &mut ShardedClient<T, M>) {
        for report in client.drain_finished() {
            self.record_outcome(report.txn.0, report.committed_as.0, report.committed());
        }
    }

    /// One foreground step: a single-item write or read through mapped
    /// routing, checked against the oracle.
    fn fg_step<T: Transport, M: Mailbox>(
        &mut self,
        client: &mut ShardedClient<T, M>,
        rng: &mut StdRng,
    ) {
        self.step += 1;
        let step = self.step;
        let item = rng.random_range(0..self.db_size);
        if rng.random_range(0..100u32) < 65 {
            let id = client.next_txn_id();
            let data = id.0;
            self.pending_writes.insert(id.0, vec![(item, data)]);
            self.trace(format!(
                "{{\"step\":{step},\"action\":\"write\",\"txn\":{},\"item\":{item}}}",
                id.0
            ));
            let txn = Transaction::new(id, vec![Operation::Write(ItemId(item), data)]);
            match client.run_txn(txn, TXN_WAIT) {
                Ok(report) => self.record_outcome(id.0, report.committed_as.0, report.committed()),
                Err(ControlError::Timeout(_)) => {
                    // In doubt: the write set stays pending, so a late
                    // resolution (a bounce retried past cutover) still
                    // settles the oracle either way.
                    self.oracle
                        .entry(item)
                        .or_default()
                        .in_doubt
                        .push((id.0, data));
                    self.outcome.in_doubt_writes += 1;
                    self.trace(format!(
                        "{{\"step\":{step},\"observed\":\"in_doubt\",\"txn\":{}}}",
                        id.0
                    ));
                }
                Err(ControlError::Disconnected) => {
                    self.violation("manager disconnected".into());
                }
            }
        } else {
            let id = client.next_txn_id();
            self.trace(format!(
                "{{\"step\":{step},\"action\":\"read\",\"item\":{item},\"txn\":{}}}",
                id.0
            ));
            let txn = Transaction::new(id, vec![Operation::Read(ItemId(item))]);
            match client.run_txn(txn, TXN_WAIT) {
                Ok(report) if report.committed() => {
                    let (version, data) = report
                        .read_results
                        .first()
                        .map(|(_, v)| (v.version, v.data))
                        .unwrap_or((0, 0));
                    let oracle = self.oracle.entry(item).or_default().clone();
                    if !oracle.acceptable_retried(version, data) {
                        self.violation(format!(
                            "read of item {item} returned version={version} \
                             data={data}, outside the acceptable set ({})",
                            oracle.describe()
                        ));
                    }
                }
                Ok(_) => self.outcome.aborted += 1,
                Err(ControlError::Timeout(_)) => {
                    self.trace(format!("{{\"step\":{step},\"observed\":\"read_timeout\"}}"));
                }
                Err(ControlError::Disconnected) => {
                    self.violation("manager disconnected".into());
                }
            }
        }
    }

    /// Kill one up member of `group`, keeping at least one member
    /// alive (recovery needs an in-group donor).
    fn kill_member<T: Transport, M: Mailbox>(
        &mut self,
        client: &mut ShardedClient<T, M>,
        rng: &mut StdRng,
        group: u8,
    ) {
        let ups: Vec<SiteId> = self
            .spec
            .group_members(group)
            .into_iter()
            .filter(|m| self.up[m.index()])
            .collect();
        if ups.len() < 2 {
            self.trace(format!(
                "{{\"step\":{},\"observed\":\"kill_skipped\",\"group\":{group}}}",
                self.step
            ));
            return;
        }
        let victim = ups[rng.random_range(0..ups.len())];
        client.tracer().emit_traced(
            None,
            0,
            EventKind::Chaos {
                action: ChaosAction::Kill,
                target: victim,
            },
        );
        client.fail(victim);
        self.up[victim.index()] = false;
        self.trace(format!(
            "{{\"step\":{},\"action\":\"kill\",\"site\":{},\"group\":{group}}}",
            self.step, victim.0
        ));
    }

    /// Read `items` through every member of `group` (mapped routing,
    /// identity names) and compare. `Ok` carries the agreed image;
    /// `Err` describes the first divergence.
    fn read_group_mapped<T: Transport, M: Mailbox>(
        &mut self,
        client: &mut ShardedClient<T, M>,
        group: u8,
        items: &[u32],
    ) -> Result<Vec<(u32, u64, u64)>, String> {
        type ItemImage = Vec<(u32, u64, u64)>;
        let ops: Vec<Operation> = items.iter().map(|&i| Operation::Read(ItemId(i))).collect();
        let mut reference: Option<(SiteId, ItemImage)> = None;
        for member in self.spec.group_members(group) {
            let id = client.next_txn_id();
            let report = client
                .run_mapped_at(member, Transaction::new(id, ops.clone()), false, MGMT_WAIT)
                .map_err(|e| format!("mapped read via site {member}: {e}"))?;
            if !report.committed() {
                return Err(format!(
                    "mapped read via site {member} aborted: {:?}",
                    report.outcome
                ));
            }
            let image: Vec<(u32, u64, u64)> = report
                .read_results
                .iter()
                .map(|(item, v)| (item.0, v.version, v.data))
                .collect();
            self.trace(format!(
                "{{\"step\":{},\"observed\":\"full_read\",\"group\":{group},\"site\":{},\"items\":{}}}",
                self.step,
                member.0,
                image.len()
            ));
            match &reference {
                None => reference = Some((member, image)),
                Some((ref_site, ref_image)) => {
                    if *ref_image != image {
                        let detail = ref_image
                            .iter()
                            .zip(&image)
                            .find(|(a, b)| a != b)
                            .map(|(a, b)| {
                                format!(
                                    "item {}: site {ref_site} has (v{},d{}), site {} has (v{},d{})",
                                    a.0, a.1, a.2, member.0, b.1, b.2
                                )
                            })
                            .unwrap_or_else(|| "length mismatch".into());
                        return Err(detail);
                    }
                }
            }
        }
        Ok(reference.map(|(_, image)| image).unwrap_or_default())
    }

    /// Post-migration convergence: recover the kills, drain the mapped
    /// pipeline, then check the run's two invariants — **no item lost**
    /// (every copy agrees with the oracle's acceptable set under the
    /// final map) and **no item double-owned** (the old donor rejects a
    /// post-cutover write of a migrated item with `StaleShardMap`,
    /// while the new owner commits one).
    fn converge<T: Transport, M: Mailbox>(
        &mut self,
        client: &mut ShardedClient<T, M>,
        migrated: &[u32],
        donor_group: u8,
    ) {
        self.trace(format!(
            "{{\"step\":{},\"action\":\"converge\"}}",
            self.step
        ));
        for i in 0..self.spec.n_physical_sites() {
            if self.up[i as usize] {
                continue;
            }
            client.tracer().emit_traced(
                None,
                0,
                EventKind::Chaos {
                    action: ChaosAction::Recover,
                    target: SiteId(i),
                },
            );
            match client.recover(SiteId(i), MGMT_WAIT) {
                Ok(session) => {
                    self.up[i as usize] = true;
                    self.trace(format!(
                        "{{\"step\":{},\"action\":\"rejoin\",\"site\":{i},\"session\":{}}}",
                        self.step, session.0
                    ));
                }
                Err(e) => {
                    self.violation(format!("site {i} failed to rejoin: {e}"));
                    return;
                }
            }
        }

        // Drain in-flight and bounced mapped transactions. Entries
        // whose coordinator died with the Begin can never report —
        // after the deadline those stay in doubt, which the oracle's
        // acceptable set already covers.
        let drain_deadline = Instant::now() + Duration::from_secs(10);
        while client.pending_mapped() > 0 && Instant::now() < drain_deadline {
            let _ = client.pump_for(Duration::from_millis(100));
            self.harvest(client);
        }
        self.harvest(client);
        if client.pending_mapped() > 0 {
            self.trace(format!(
                "{{\"step\":{},\"observed\":\"stranded_mapped\",\"count\":{}}}",
                self.step,
                client.pending_mapped()
            ));
        }

        let map = match client.map() {
            Some(m) => m.clone(),
            None => {
                self.violation("client lost its shard map".into());
                return;
            }
        };
        if !map.migrating.is_empty() {
            self.violation(format!(
                "migration still in flight after convergence (epoch {})",
                map.epoch
            ));
            return;
        }
        self.outcome.map_epoch = map.epoch;

        // No item lost: member-compare reads of every group's owned
        // slice under the final map, each value inside the oracle's
        // acceptable set. Up to two rounds (the first may race a
        // just-resolved in-doubt transaction).
        let mut final_db: Vec<(u32, u64, u64)> = Vec::new();
        for group in 0..self.spec.n_groups {
            let items: Vec<u32> = (0..self.db_size)
                .filter(|&i| map.owner(i) == group)
                .collect();
            if items.is_empty() {
                // A merged-away donor owns nothing; its copies serve no
                // reads and cannot lose an item.
                continue;
            }
            let image = match self.read_group_mapped(client, group, &items) {
                Ok(image) => image,
                Err(divergence) => {
                    self.trace(format!(
                        "{{\"step\":{},\"observed\":\"divergence_retry\",\"group\":{group},\"detail\":\"{divergence}\"}}",
                        self.step
                    ));
                    std::thread::sleep(Duration::from_millis(1000));
                    self.harvest(client);
                    match self.read_group_mapped(client, group, &items) {
                        Ok(image) => image,
                        Err(divergence) => {
                            self.violation(format!("group {group} copies diverged: {divergence}"));
                            return;
                        }
                    }
                }
            };
            final_db.extend(image);
        }
        final_db.sort_by_key(|&(item, _, _)| item);
        for &(item, version, data) in &final_db {
            let oracle = self.oracle.entry(item).or_default().clone();
            if !oracle.acceptable_retried(version, data) {
                self.violation(format!(
                    "item lost: converged item {item} has version={version} \
                     data={data}, outside the acceptable set ({})",
                    oracle.describe()
                ));
            }
        }
        self.outcome.final_db = final_db;

        // No item double-owned: the old donor must bounce a write of a
        // migrated item — a commit would mean two groups accept writes
        // for the same item under the final epoch.
        if let Some(&probe_item) = migrated.first() {
            if map.owner(probe_item) != donor_group {
                let member = self.spec.group_members(donor_group)[0];
                let id = client.next_txn_id();
                let txn = Transaction::new(id, vec![Operation::Write(ItemId(probe_item), 0)]);
                match client.run_mapped_at(member, txn, false, MGMT_WAIT) {
                    Ok(report) if report.committed() => {
                        self.violation(format!(
                            "double owner: donor group {donor_group} committed a write \
                             of migrated item {probe_item} after cutover"
                        ));
                    }
                    Ok(report) => {
                        let stale = matches!(
                            report.outcome,
                            TxnOutcome::Aborted(AbortReason::StaleShardMap)
                        );
                        self.trace(format!(
                            "{{\"step\":{},\"observed\":\"donor_probe_rejected\",\"item\":{probe_item},\"stale_shard_map\":{stale}}}",
                            self.step
                        ));
                    }
                    Err(e) => {
                        self.violation(format!("double-owner probe at the donor: {e}"));
                    }
                }
            }
            // ...and the new owner must serve one (cutover liveness).
            let id = client.next_txn_id();
            self.pending_writes.insert(id.0, vec![(probe_item, id.0)]);
            let txn = Transaction::new(id, vec![Operation::Write(ItemId(probe_item), id.0)]);
            match client.run_txn(txn, TXN_WAIT) {
                Ok(report) if report.committed() => {
                    self.record_outcome(id.0, report.committed_as.0, true)
                }
                Ok(report) => {
                    self.violation(format!(
                        "post-cutover write of migrated item {probe_item} aborted: {:?}",
                        report.outcome
                    ));
                }
                Err(e) => {
                    self.violation(format!(
                        "post-cutover write of migrated item {probe_item}: {e}"
                    ));
                }
            }
        }
    }
}

/// Run one randomized reshard chaos schedule: launch a mapped cluster,
/// derive a seed-dependent migration plan (a range move, a split, or a
/// whole-group merge), drive it with the [`Resharder`] while foreground
/// transactions interleave with every copy leg, kill the configured
/// target mid-copy, then converge and check the two migration
/// invariants — no item lost, no item double-owned. A killed resharder
/// is resumed by a successor from the installed epochs
/// ([`Resharder::resume`]).
pub fn run_reshard_chaos(opts: ReshardChaosOptions) -> ChaosOutcome {
    assert!(opts.n_groups >= 2, "a migration needs at least two groups");
    let per = opts.db_size.div_ceil(opts.n_groups as u32).max(2);
    let db_size = per * opts.n_groups as u32;
    let spec = ShardSpec::new(opts.n_groups, opts.sites_per_group, per);
    let fault_plan = FaultPlan {
        drop: opts.drop,
        duplicate: opts.duplicate,
        ..FaultPlan::none(opts.seed)
    };
    let defaults = ProtocolConfig::default();
    let config = ProtocolConfig {
        emit_persistence: opts.trace_dir.is_some(),
        ..defaults
    };
    let mut timing = ClusterTiming::default();
    let takeover_budget =
        Duration::from_millis(2 * config.shard_vote_timeout_ms + config.shard_redrive_interval_ms);
    if timing.participant_timeout < takeover_budget {
        timing.participant_timeout = takeover_budget;
    }
    let initial = ShardMap::blocked(opts.n_groups, db_size);
    let Launched {
        cluster,
        mut client,
        ..
    } = ClusterBuilder::new(config, timing)
        .topology(Mapped {
            spec,
            initial: initial.clone(),
        })
        .faults(fault_plan, opts.with_reliable)
        .tracing(traced(&opts.trace_dir))
        .launch()
        .expect("launch mapped chaos cluster");

    let mut ctx = ReshardCtx {
        spec,
        db_size,
        oracle: HashMap::new(),
        pending_writes: HashMap::new(),
        up: vec![true; spec.n_physical_sites() as usize],
        outcome: ChaosOutcome::default(),
        step: 0,
    };
    ctx.trace(format!(
        "{{\"mode\":\"reshard\",\"seed\":{},\"groups\":{},\"sites_per_group\":{},\"db_size\":{db_size},\"kill\":{:?},\"drop\":{},\"duplicate\":{},\"reliable\":{}}}",
        opts.seed,
        opts.n_groups,
        opts.sites_per_group,
        opts.kill.map(|k| k.name()),
        opts.drop,
        opts.duplicate,
        opts.with_reliable
    ));

    let mut rng = StdRng::seed_from_u64(opts.seed);

    // Warm up: one committed write per item, so every migrating item
    // carries real state the copier must not lose.
    for item in 0..db_size {
        let id = client.next_txn_id();
        ctx.pending_writes.insert(id.0, vec![(item, id.0)]);
        let txn = Transaction::new(id, vec![Operation::Write(ItemId(item), id.0)]);
        match client.run_txn(txn, TXN_WAIT) {
            Ok(report) => ctx.record_outcome(id.0, report.committed_as.0, report.committed()),
            Err(_) => {
                ctx.oracle
                    .entry(item)
                    .or_default()
                    .in_doubt
                    .push((id.0, id.0));
                ctx.outcome.in_doubt_writes += 1;
            }
        }
    }

    // A seed-dependent plan over the blocked layout: move half a
    // block, split a block at its midpoint, or merge a whole group
    // into its neighbour.
    let g = rng.random_range(0..opts.n_groups);
    let to = (g + 1) % opts.n_groups;
    let (lo, hi) = (g as u32 * per, g as u32 * per + per);
    let op = match rng.random_range(0..3u32) {
        0 => PlanOp::Move {
            lo,
            hi: lo + per / 2,
            to,
        },
        1 => PlanOp::Split {
            lo,
            hi,
            at: lo + per / 2,
            to,
        },
        _ => PlanOp::Merge { from: g, to },
    };
    let plan = MigrationPlan { ops: vec![op] };
    ctx.trace(format!(
        "{{\"action\":\"plan\",\"detail\":\"{:?}\"}}",
        plan.ops
    ));

    let base = client.map().cloned().unwrap_or(initial);
    let mut resharder = match Resharder::plan(&base, &plan, opts.n_groups, TXN_WAIT) {
        Ok(r) => r,
        Err(e) => {
            ctx.violation(format!("plan rejected: {e}"));
            let outcome = std::mem::take(&mut ctx.outcome);
            client.terminate_all();
            cluster.join(Duration::from_secs(5));
            return outcome_summary(outcome, 0, 0, 0);
        }
    };
    let migrated = resharder.map().migrating_items();
    let donor_group = resharder.map().migrating[0].donor;
    let recipient_group = resharder.map().migrating[0].recipient;
    let total = migrated.len() as u64;
    let kill_at = rng.random_range(1..=total.max(1));
    let mut killed = opts.kill.is_none();

    let run = resharder.run(&mut client, |client, copied, _total| {
        ctx.harvest(client);
        ctx.fg_step(client, &mut rng);
        if !killed && copied >= kill_at {
            killed = true;
            match opts.kill.expect("kill point armed") {
                ReshardKillPoint::Resharder => {
                    ctx.trace(format!(
                        "{{\"step\":{},\"action\":\"kill_resharder\",\"copied\":{copied}}}",
                        ctx.step
                    ));
                    return false;
                }
                ReshardKillPoint::Donor => ctx.kill_member(client, &mut rng, donor_group),
                ReshardKillPoint::Recipient => ctx.kill_member(client, &mut rng, recipient_group),
            }
        }
        true
    });
    let mut stats = match run {
        Ok(s) => s,
        Err(e) => {
            ctx.violation(format!("resharder failed: {e}"));
            ReshardStats::default()
        }
    };

    // A killed resharder's successor adopts the installed epochs and
    // replays the migration from wherever it stands.
    let mut revivals = 0;
    while !stats.completed && ctx.outcome.violations.is_empty() && revivals < 3 {
        revivals += 1;
        for _ in 0..4 {
            ctx.fg_step(&mut client, &mut rng);
        }
        match Resharder::resume(&mut client, MGMT_WAIT) {
            Ok(Some(mut successor)) => {
                ctx.outcome.resharder_resumes += 1;
                ctx.trace(format!(
                    "{{\"step\":{},\"action\":\"resume\",\"epoch\":{}}}",
                    ctx.step,
                    successor.map().epoch
                ));
                match successor.run(&mut client, |client, _, _| {
                    ctx.harvest(client);
                    true
                }) {
                    Ok(s2) => {
                        stats.items_copied += s2.items_copied;
                        stats.items_skipped += s2.items_skipped;
                        stats.map_epoch = s2.map_epoch;
                        stats.completed = s2.completed;
                    }
                    Err(e) => {
                        ctx.violation(format!("resumed resharder failed: {e}"));
                    }
                }
            }
            Ok(None) => stats.completed = true,
            Err(e) => {
                ctx.violation(format!("resume probe failed: {e}"));
            }
        }
    }
    if !stats.completed && ctx.outcome.violations.is_empty() {
        ctx.violation("migration never completed".into());
    }

    // Post-cutover foreground traffic, then the convergence checks.
    if ctx.outcome.violations.is_empty() {
        for _ in 0..8 {
            ctx.fg_step(&mut client, &mut rng);
        }
        ctx.converge(&mut client, &migrated, donor_group);
    }

    let mut outcome = std::mem::take(&mut ctx.outcome);
    outcome.items_migrated = stats.items_copied;
    if outcome.map_epoch == 0 {
        outcome.map_epoch = stats.map_epoch;
    }
    outcome.stale_bounces = client.stale_bounces;
    client.terminate_all();
    cluster.join(Duration::from_secs(5));
    outcome_summary(
        outcome,
        stats.items_total,
        stats.items_copied,
        stats.items_skipped,
    )
}

/// Append the run's summary trace line and return the outcome.
fn outcome_summary(
    mut outcome: ChaosOutcome,
    items_total: u64,
    items_copied: u64,
    items_skipped: u64,
) -> ChaosOutcome {
    outcome.trace.push(format!(
        "{{\"summary\":{{\"committed\":{},\"in_doubt\":{},\"aborted\":{},\"items_total\":{items_total},\"items_copied\":{items_copied},\"items_skipped\":{items_skipped},\"map_epoch\":{},\"stale_bounces\":{},\"resumes\":{},\"violations\":{}}}}}",
        outcome.committed_writes,
        outcome.in_doubt_writes,
        outcome.aborted,
        outcome.map_epoch,
        outcome.stale_bounces,
        outcome.resharder_resumes,
        outcome.violations.len()
    ));
    outcome
}

/// Knobs for a process-mode chaos run: real `miniraid-site` OS
/// processes over TCP with WAL-backed durable stores, killed with
/// SIGKILL mid-transaction and restarted from their logs.
#[derive(Debug, Clone)]
pub struct ProcChaosOptions {
    /// Master seed for the schedule RNG and per-site fault plans.
    pub seed: u64,
    /// Kill/restart cycles to run.
    pub kills: u32,
    /// Closed-loop writes between kills.
    pub writes_per_round: u32,
    /// Database sites (each its own OS process).
    pub n_sites: u8,
    /// Items per database copy.
    pub db_size: u32,
    /// Site `i` listens on `base_port + i`; the manager on
    /// `base_port + n_sites`.
    pub base_port: u16,
    /// Path to the `miniraid-site` binary.
    pub site_bin: std::path::PathBuf,
    /// Directory for the per-site WALs (must outlive the run).
    pub durable_dir: std::path::PathBuf,
    /// Per-frame drop probability injected inside each site process.
    pub drop: f64,
    /// Per-frame duplication probability.
    pub duplicate: f64,
    /// Enable the reliable session layer inside each site process.
    pub with_reliable: bool,
}

struct Procs(Vec<Option<std::process::Child>>);

impl Drop for Procs {
    fn drop(&mut self) {
        for child in self.0.iter_mut().flatten() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

fn spawn_site(opts: &ProcChaosOptions, site: u8) -> std::io::Result<std::process::Child> {
    let mut cmd = std::process::Command::new(&opts.site_bin);
    cmd.args([
        site.to_string(),
        opts.n_sites.to_string(),
        opts.base_port.to_string(),
        opts.db_size.to_string(),
    ])
    .arg(&opts.durable_dir)
    .stderr(std::process::Stdio::null());
    if opts.drop > 0.0 || opts.duplicate > 0.0 {
        // The per-site seed a threaded cluster derives.
        let seed = FaultPlan::none(opts.seed).for_site(site).seed;
        cmd.env(
            "MINIRAID_FAULTS",
            format!("{seed}:{}:{}", opts.drop, opts.duplicate),
        );
    }
    if opts.with_reliable {
        cmd.env("MINIRAID_RELIABLE", "1");
    }
    cmd.spawn()
}

/// Run a kill-heavy chaos schedule against real OS processes: each
/// round does some closed-loop writes, then SIGKILLs a random site
/// *while a write coordinated by that site is in flight*, restarts it
/// from its WAL, and re-integrates it through fail/recover. The same
/// oracle and convergence checks as [`run_thread_chaos`] apply; a
/// coordinator killed between Prepare and its commit decision must
/// leave every participant with the same outcome, which the final
/// convergence pass verifies.
pub fn run_process_chaos(opts: &ProcChaosOptions) -> ChaosOutcome {
    use miniraid_net::tcp::{AddressPlan, TcpEndpoint};

    let mut procs = Procs(Vec::new());
    for i in 0..opts.n_sites {
        match spawn_site(opts, i) {
            Ok(child) => procs.0.push(Some(child)),
            Err(e) => {
                let mut outcome = ChaosOutcome::default();
                outcome.violations.push(format!("spawn site {i}: {e}"));
                return outcome;
            }
        }
    }
    std::thread::sleep(Duration::from_millis(400)); // let the ports bind

    let plan = AddressPlan {
        base_port: opts.base_port,
    };
    let (transport, mailbox) = match TcpEndpoint::bind(SiteId(opts.n_sites), plan) {
        Ok(pair) => pair,
        Err(e) => {
            let mut outcome = ChaosOutcome::default();
            outcome.violations.push(format!("bind manager: {e}"));
            return outcome;
        }
    };
    let client = ManagingClient::new(transport, mailbox, opts.n_sites);

    let mut harness = Harness {
        client,
        controls: Vec::new(),
        oracle: HashMap::new(),
        up: vec![true; opts.n_sites as usize],
        isolated: vec![false; opts.n_sites as usize],
        last_commit_coordinator: None,
        outcome: ChaosOutcome::default(),
        opts: ChaosOptions {
            seed: opts.seed,
            steps: opts.kills,
            n_sites: opts.n_sites,
            db_size: opts.db_size,
            drop: opts.drop,
            duplicate: opts.duplicate,
            with_reliable: opts.with_reliable,
            trace_dir: None,
        },
    };
    harness.trace(format!(
        "{{\"mode\":\"proc\",\"seed\":{},\"kills\":{},\"n_sites\":{},\"drop\":{},\"duplicate\":{},\"reliable\":{}}}",
        opts.seed, opts.kills, opts.n_sites, opts.drop, opts.duplicate, opts.with_reliable
    ));

    let mut rng = StdRng::seed_from_u64(opts.seed);
    for round in 0..opts.kills {
        if !harness.outcome.violations.is_empty() {
            break;
        }
        for _ in 0..opts.writes_per_round {
            harness.run_write(round, &mut rng);
        }
        harness.harvest_late_reports();

        // SIGKILL a site while it coordinates an in-flight write: the
        // crash can land between Prepare and the commit decision.
        let victim = rng.random_range(0..opts.n_sites);
        let item = rng.random_range(0..opts.db_size);
        let id = harness.client.next_txn_id();
        harness.client.submit_txn(
            SiteId(victim),
            Transaction::new(id, vec![Operation::Write(ItemId(item), id.0)]),
        );
        harness
            .oracle
            .entry(item)
            .or_default()
            .in_doubt
            .push((id.0, id.0));
        harness.outcome.in_doubt_writes += 1;
        if let Some(child) = procs.0[victim as usize].as_mut() {
            let _ = child.kill();
            let _ = child.wait();
        }
        harness.trace(format!(
            "{{\"round\":{round},\"action\":\"kill9\",\"site\":{victim},\"inflight_txn\":{}}}",
            id.0
        ));
        harness.up[victim as usize] = false;

        // Give the survivors time to detect the crash (participant
        // timeouts) and the OS time to free the port, then restart the
        // victim from its WAL.
        std::thread::sleep(Duration::from_millis(700));
        match spawn_site(opts, victim) {
            Ok(child) => procs.0[victim as usize] = Some(child),
            Err(e) => {
                harness.violation(round, format!("respawn site {victim}: {e}"));
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(400));
        harness.trace(format!(
            "{{\"round\":{round},\"action\":\"respawn\",\"site\":{victim}}}"
        ));
        // A fresh process may come up "up" (empty WAL) or waiting to
        // recover (non-empty WAL): fail first to normalize, then
        // recover.
        harness.client.fail(SiteId(victim));
        std::thread::sleep(Duration::from_millis(100));
        match harness.client.recover(SiteId(victim), MGMT_WAIT) {
            Ok(session) => {
                harness.up[victim as usize] = true;
                harness.trace(format!(
                    "{{\"round\":{round},\"action\":\"recover\",\"site\":{victim},\"session\":{}}}",
                    session.0
                ));
            }
            Err(e) => {
                harness.violation(round, format!("site {victim} failed to rejoin: {e}"));
                break;
            }
        }
        harness.harvest_late_reports();
    }

    if harness.outcome.violations.is_empty() {
        harness.converge();
    }

    let mut outcome = std::mem::take(&mut harness.outcome);
    harness.client.terminate_all();
    std::thread::sleep(Duration::from_millis(300));
    drop(procs);
    outcome.trace.push(format!(
        "{{\"summary\":{{\"committed\":{},\"in_doubt\":{},\"aborted\":{},\"violations\":{}}}}}",
        outcome.committed_writes,
        outcome.in_doubt_writes,
        outcome.aborted,
        outcome.violations.len()
    ));
    outcome
}
