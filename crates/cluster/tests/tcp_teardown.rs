//! A TCP cluster that is terminated and joined leaves nothing behind:
//! no thread and no bound port. Alone in its file, hence alone in its
//! process, so every `miniraid-*` thread it sees is its own.

#![cfg(target_os = "linux")]

use std::time::{Duration, Instant};

use miniraid_cluster::{Cluster, ClusterTiming};
use miniraid_core::config::ProtocolConfig;
use miniraid_core::ids::{ItemId, SiteId};
use miniraid_core::ops::{Operation, Transaction};

const WAIT: Duration = Duration::from_secs(5);

/// Names of this process's live threads that start with `miniraid-`.
fn miniraid_threads() -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_owned())
        .filter(|name| name.starts_with("miniraid-"))
        .collect();
    names.sort();
    names
}

#[test]
fn a_terminated_tcp_cluster_leaves_no_thread_and_no_port() {
    let base_port = 28000 + (std::process::id() % 1000) as u16;
    let config = ProtocolConfig {
        db_size: 20,
        n_sites: 3,
        ..ProtocolConfig::default()
    };
    for round in 0..2 {
        // The second round binds the ports the first one held.
        let (cluster, mut client) =
            Cluster::launch_tcp(config.clone(), ClusterTiming::default(), base_port)
                .unwrap_or_else(|e| panic!("round {round}: {e}"));
        let id = client.next_txn_id();
        let report = client
            .run_txn(
                SiteId(round),
                Transaction::new(id, vec![Operation::Write(ItemId(3), 7)]),
                WAIT,
            )
            .unwrap();
        assert!(report.outcome.is_committed());

        // While it runs: site threads, and one parked watcher per
        // outbound connection — nothing per inbound connection, nothing
        // accepting.
        let running = miniraid_threads();
        assert!(running.iter().any(|n| n == "miniraid-watch"), "{running:?}");
        assert!(
            running
                .iter()
                .all(|n| n == "miniraid-watch" || n.starts_with("miniraid-site-")),
            "{running:?}"
        );

        // The scrape carries the receive-side family, and it adds up:
        // the request itself came in through a wake-up and a read.
        let text = client.fetch_metrics(SiteId(0), WAIT).unwrap();
        let series = |name: &str| -> u64 {
            let line = text.lines().find(|l| l.starts_with(&format!("{name}{{")));
            let line = line.unwrap_or_else(|| panic!("{name} not exposed"));
            line.rsplit_once(' ').unwrap().1.parse().unwrap()
        };
        assert!(series("miniraid_tcp_wakeups_total") >= 1);
        assert!(series("miniraid_tcp_reads_total") >= 1);
        assert!(
            series("miniraid_tcp_msgs_in_total") >= 2,
            "a begin and this scrape"
        );

        client.terminate_all();
        cluster.join(WAIT);
        drop(client);
        // Each transport's `Drop` joined its watchers; a joined thread
        // may linger in procfs for a moment.
        let start = Instant::now();
        while !miniraid_threads().is_empty() {
            assert!(
                start.elapsed() < WAIT,
                "left over: {:?}",
                miniraid_threads()
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}
