//! Run one database site as a standalone OS process over TCP — the
//! paper's deployment shape ("database sites were implemented as Unix
//! processes"), but across real processes and sockets.
//!
//! ```text
//! miniraid-site <site_id> <n_sites> <base_port> [db_size] [durable_dir]
//! ```
//!
//! Site `i` listens on `base_port + i`; the managing process
//! (`miniraid-ctl`) uses id `n_sites` on `base_port + n_sites`. The
//! process exits when it receives a Terminate command.
//!
//! Observability is always on: the site answers `miniraid-ctl metrics`
//! scrapes with counters and latency histograms. Set
//! `MINIRAID_TRACE=<dir>` to additionally write a JSONL protocol trace
//! to `<dir>/site-<id>.jsonl` for offline `miniraid-ctl trace` analysis.
//!
//! Robustness knobs:
//! * `MINIRAID_FAULTS=seed:drop:dup[:delay_p:delay_ms]` wraps the TCP
//!   transport in a seeded fault injector (see `FaultPlan::parse`).
//! * `MINIRAID_RELIABLE=1` layers the reliable session protocol
//!   (sequence numbers + retransmission + dedup) over the transport, so
//!   the site tolerates the injected — or real — frame loss.

use miniraid_cluster::obs::SiteObs;
use miniraid_cluster::site::{run_site, ClusterTiming, SiteParts};
use miniraid_core::config::{ProtocolConfig, TwoStepRecovery};
use miniraid_core::engine::SiteEngine;
use miniraid_core::ids::SiteId;
use miniraid_net::fault::{FaultPlan, FaultTransport};
use miniraid_net::reliable::{reliable, ReliableConfig};
use miniraid_net::tcp::{AddressPlan, TcpEndpoint};

fn main() {
    let mut args = std::env::args().skip(1);
    let usage = "usage: miniraid-site <site_id> <n_sites> <base_port> [db_size] [durable_dir]";
    let site_id: u8 = args.next().and_then(|s| s.parse().ok()).expect(usage);
    let n_sites: u8 = args.next().and_then(|s| s.parse().ok()).expect(usage);
    let base_port: u16 = args.next().and_then(|s| s.parse().ok()).expect(usage);
    let db_size: u32 = args.next().and_then(|s| s.parse().ok()).unwrap_or(50);
    let durable_dir = args.next();

    let mut config = ProtocolConfig {
        db_size,
        n_sites,
        two_step_recovery: Some(TwoStepRecovery::default()),
        ..ProtocolConfig::default()
    };
    let plan = AddressPlan { base_port };
    let (transport, mailbox) = TcpEndpoint::bind(SiteId(site_id), plan).expect("bind site port");
    let manager = SiteId(n_sites);
    let trace_path = std::env::var_os("MINIRAID_TRACE").map(|dir| {
        let dir = std::path::PathBuf::from(dir);
        std::fs::create_dir_all(&dir).expect("create trace dir");
        dir.join(format!("site-{site_id}.jsonl"))
    });
    eprintln!(
        "miniraid-site {site_id}/{n_sites} listening on {} ({} items{}{})",
        plan.addr(SiteId(site_id)),
        db_size,
        durable_dir.as_deref().map(|_| ", durable").unwrap_or(""),
        trace_path
            .as_deref()
            .map(|p| format!(", tracing to {}", p.display()))
            .unwrap_or_default()
    );

    let store = durable_dir.map(|dir| {
        config.emit_persistence = true;
        let dir = std::path::Path::new(&dir).join(format!("site-{site_id}"));
        miniraid_storage::DurableStore::open(&dir, db_size).expect("open durable store")
    });
    let mut engine = SiteEngine::new(SiteId(site_id), config);
    if let Some(store) = &store {
        if store.last_txn() > 0 {
            // Instant restart: checkpoint values load eagerly (already
            // in memory), WAL records replay lazily in the site loop's
            // background — the process is operational immediately.
            engine.preload_db(
                store
                    .mem()
                    .iter()
                    .filter(|(_, v)| v.version > 0)
                    .map(|(item, v)| (miniraid_core::ids::ItemId(item), v)),
            );
            engine.preload_lazy(store.image());
            engine.preload_faillocks(
                store
                    .faillocks()
                    .iter()
                    .map(|(item, word)| (miniraid_core::ids::ItemId(*item), *word)),
            );
            if store.session() > 0 {
                engine.preload_session(miniraid_core::ids::SessionNumber(store.session()));
            }
            // A restarted process rejoins via Recover.
            engine.assume_failed();
        }
    }
    let parts = SiteParts {
        store,
        obs: Some(SiteObs::attach(&mut engine, trace_path.as_deref()).expect("open trace file")),
        map: None,
    };
    let timing = ClusterTiming::default();

    let faults = std::env::var("MINIRAID_FAULTS")
        .ok()
        .map(|spec| FaultPlan::parse(&spec).expect("MINIRAID_FAULTS"));
    let reliable_on = std::env::var("MINIRAID_RELIABLE").is_ok_and(|v| v != "0");
    if faults.is_some() || reliable_on {
        eprintln!("miniraid-site {site_id}: faults={faults:?} reliable={reliable_on}");
    }
    // The default `ReliableConfig` derives a fresh epoch from the wall
    // clock, so peers recognise a restarted process and reset their
    // receive links instead of discarding its "stale" sequence numbers.
    match (faults, reliable_on) {
        (None, false) => run_site(engine, transport, mailbox, manager, timing, parts),
        (Some(plan), false) => {
            let (transport, _control) = FaultTransport::new(transport, plan);
            run_site(engine, transport, mailbox, manager, timing, parts);
        }
        (None, true) => {
            let (transport, mailbox) = reliable(transport, mailbox, ReliableConfig::default());
            run_site(engine, transport, mailbox, manager, timing, parts);
        }
        (Some(plan), true) => {
            let (transport, _control) = FaultTransport::new(transport, plan);
            let (transport, mailbox) = reliable(transport, mailbox, ReliableConfig::default());
            run_site(engine, transport, mailbox, manager, timing, parts);
        }
    }
    eprintln!("miniraid-site {site_id} terminated");
}
