//! Live cluster health aggregation for `miniraid-ctl watch`.
//!
//! A watcher scrapes every site's Prometheus-style exposition text on an
//! interval (sites answer even while down — the observer sits outside
//! the failure model, like the paper's measurement harness), parses the
//! handful of health-relevant series back out, and renders a refreshing
//! table: liveness and session epoch, commit-latency and lock-wait
//! quantiles, abort deltas by reason since the previous round, fsyncs
//! per committed transaction, reliable-layer retransmits, and the timers
//! queued in the site loop. A `--jsonl` mode emits one machine-readable
//! line per site per round instead.
//!
//! Parsing is deliberately tolerant: a series that is absent (e.g. no
//! histograms because the site runs without a hub) reads as zero, so the
//! watcher works against any site build.

use std::collections::HashMap;
use std::fmt::Write;

/// One parsed scrape of one site.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SiteSample {
    /// Database site id.
    pub site: u8,
    /// `miniraid_site_up` gauge (false when absent: old exposition).
    pub up: bool,
    /// `miniraid_site_session` gauge.
    pub session: u64,
    /// `miniraid_recovery_faillocks_outstanding` gauge: the site's own
    /// copies still fail-locked (0 when fully recovered).
    pub stale: u64,
    /// Commit latency p50 in microseconds.
    pub commit_p50_us: u64,
    /// Commit latency p99 in microseconds.
    pub commit_p99_us: u64,
    /// Lock-wait p99 in microseconds.
    pub lock_wait_p99_us: u64,
    /// Cumulative committed transactions (coordinator side).
    pub txns_committed: u64,
    /// Cumulative aborts by reason, as exposed.
    pub aborts: Vec<(String, u64)>,
    /// Cumulative REDO-WAL fsyncs.
    pub wal_fsyncs: u64,
    /// Cumulative reliable-transport retransmissions.
    pub retransmits: u64,
    /// `miniraid_timers_pending` gauge: timers queued in the site loop
    /// (about the in-flight waits; `rate × timeout` would mean the loop
    /// is carrying dead ones again).
    pub timers_pending: u64,
    /// `miniraid_reshard_map_epoch` gauge: the installed shard-map
    /// epoch (0 when the site runs unmapped).
    pub map_epoch: u64,
    /// `miniraid_reshard_migrating_items` gauge: items still inside
    /// in-flight ranges under the installed map.
    pub migrating_items: u64,
    /// `miniraid_reshard_copy_installs` counter: copy/write-through
    /// legs admitted as a migration recipient.
    pub copy_installs: u64,
}

impl SiteSample {
    /// Total cumulative aborts across all reasons.
    pub fn aborts_total(&self) -> u64 {
        self.aborts.iter().map(|(_, n)| n).sum()
    }

    /// Group-commit efficiency: fsyncs per committed transaction
    /// (0 when nothing committed yet).
    pub fn fsyncs_per_txn(&self) -> f64 {
        if self.txns_committed == 0 {
            0.0
        } else {
            self.wal_fsyncs as f64 / self.txns_committed as f64
        }
    }
}

/// A parsed exposition line: series name, label pairs, value.
type ParsedLine<'a> = (&'a str, Vec<(&'a str, &'a str)>, f64);

/// Parse one `name{label="v",...} value` exposition line; `# TYPE` and
/// blank lines return `None`.
fn parse_line(line: &str) -> Option<ParsedLine<'_>> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return None;
    }
    let (series, value) = line.rsplit_once(' ')?;
    let value: f64 = value.parse().ok()?;
    match series.split_once('{') {
        Some((name, rest)) => {
            let body = rest.strip_suffix('}')?;
            let mut labels = Vec::new();
            for pair in body.split(',') {
                if pair.is_empty() {
                    continue;
                }
                let (k, v) = pair.split_once('=')?;
                labels.push((k, v.trim_matches('"')));
            }
            Some((name, labels, value))
        }
        None => Some((series, Vec::new(), value)),
    }
}

/// Parse a site's exposition text into the health-relevant sample.
/// Absent series read as zero; `site` is taken from the scrape target,
/// not the text (a confused site cannot misfile its own row).
pub fn parse_site_sample(site: u8, text: &str) -> SiteSample {
    let mut sample = SiteSample {
        site,
        ..SiteSample::default()
    };
    for line in text.lines() {
        let Some((name, labels, value)) = parse_line(line) else {
            continue;
        };
        let label = |key: &str| labels.iter().find(|(k, _)| *k == key).map(|(_, v)| *v);
        match name {
            "miniraid_site_up" => sample.up = value != 0.0,
            "miniraid_site_session" => sample.session = value as u64,
            "miniraid_recovery_faillocks_outstanding" => sample.stale = value as u64,
            "miniraid_commit_latency_us" => match label("quantile") {
                Some("0.5") => sample.commit_p50_us = value as u64,
                Some("0.99") => sample.commit_p99_us = value as u64,
                _ => {}
            },
            "miniraid_lock_wait_us" if label("quantile") == Some("0.99") => {
                sample.lock_wait_p99_us = value as u64;
            }
            "miniraid_txns_committed" => sample.txns_committed = value as u64,
            "miniraid_txns_aborted" => {
                if let Some(reason) = label("reason") {
                    sample.aborts.push((reason.to_string(), value as u64));
                }
            }
            "miniraid_wal_fsyncs" => sample.wal_fsyncs = value as u64,
            "miniraid_transport_retransmits" => sample.retransmits = value as u64,
            "miniraid_timers_pending" => sample.timers_pending = value as u64,
            "miniraid_reshard_map_epoch" => sample.map_epoch = value as u64,
            "miniraid_reshard_migrating_items" => sample.migrating_items = value as u64,
            "miniraid_reshard_copy_installs" => sample.copy_installs = value as u64,
            _ => {}
        }
    }
    sample
}

/// Abort-reason deltas versus a previous round's sample of the same
/// site: `(reason, increase)` for every reason that grew. Empty on the
/// first round (no baseline) and in a quiet interval.
pub fn abort_deltas(prev: Option<&SiteSample>, now: &SiteSample) -> Vec<(String, u64)> {
    let baseline: HashMap<&str, u64> = prev
        .map(|p| p.aborts.iter().map(|(r, n)| (r.as_str(), *n)).collect())
        .unwrap_or_default();
    now.aborts
        .iter()
        .filter_map(|(reason, n)| {
            let before = baseline.get(reason.as_str()).copied().unwrap_or(0);
            (*n > before).then(|| (reason.clone(), n - before))
        })
        .collect()
}

/// Render one watch round as a human table. `prev` (the previous
/// round's samples, by site) turns cumulative abort counters into
/// per-interval deltas; `header` is the caller's context line (cluster
/// coordinates, cross-shard timer settings).
pub fn render_watch(header: &str, samples: &[SiteSample], prev: &[SiteSample]) -> String {
    let mut out = String::with_capacity(1024);
    let _ = writeln!(out, "{header}");
    let _ = writeln!(
        out,
        "{:<5} {:<6} {:<8} {:>8} {:>10} {:>10} {:>12} {:>10} {:>10} {:>8} {:>7} {:>10}  aborts (Δ)",
        "site",
        "state",
        "session",
        "stale",
        "p50(µs)",
        "p99(µs)",
        "lockw99(µs)",
        "commits",
        "fsync/txn",
        "rexmit",
        "timers",
        "map/migr",
    );
    for s in samples {
        let before = prev.iter().find(|p| p.site == s.site);
        let mut deltas = abort_deltas(before, s);
        // Copy-install progress rides the delta column: a recipient
        // mid-migration shows `copies+N` each round the copier (or the
        // commit-time write-through) lands legs on it.
        let copied_before = before.map(|p| p.copy_installs).unwrap_or(0);
        if s.copy_installs > copied_before {
            deltas.push(("copies".into(), s.copy_installs - copied_before));
        }
        let delta_str = if deltas.is_empty() {
            "-".to_string()
        } else {
            deltas
                .iter()
                .map(|(r, n)| format!("{r}+{n}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        // `-` for an unmapped site; `e<epoch>:<migrating>` once a shard
        // map is installed (migrating drops to 0 at cutover).
        let reshard = if s.map_epoch == 0 {
            "-".to_string()
        } else {
            format!("e{}:{}", s.map_epoch, s.migrating_items)
        };
        let _ = writeln!(
            out,
            "{:<5} {:<6} {:<8} {:>8} {:>10} {:>10} {:>12} {:>10} {:>10.2} {:>8} {:>7} {:>10}  {}",
            s.site,
            if s.up { "up" } else { "DOWN" },
            s.session,
            s.stale,
            s.commit_p50_us,
            s.commit_p99_us,
            s.lock_wait_p99_us,
            s.txns_committed,
            s.fsyncs_per_txn(),
            s.retransmits,
            s.timers_pending,
            reshard,
            delta_str
        );
    }
    out
}

/// Render one site's round as a JSONL record for machine capture
/// (`miniraid-ctl watch --jsonl`). Schema is stable: one object per
/// site per round, cumulative counters plus per-interval abort deltas.
pub fn render_watch_jsonl(round: u64, sample: &SiteSample, prev: Option<&SiteSample>) -> String {
    let deltas = abort_deltas(prev, sample);
    let mut out = String::with_capacity(256);
    let _ = write!(
        out,
        "{{\"round\":{round},\"site\":{},\"up\":{},\"session\":{},\"stale\":{},\
         \"commit_p50_us\":{},\"commit_p99_us\":{},\"lock_wait_p99_us\":{},\
         \"txns_committed\":{},\"wal_fsyncs\":{},\"retransmits\":{},\
         \"timers_pending\":{},\"map_epoch\":{},\"migrating_items\":{},\"copy_installs\":{},\"abort_deltas\":{{",
        sample.site,
        sample.up,
        sample.session,
        sample.stale,
        sample.commit_p50_us,
        sample.commit_p99_us,
        sample.lock_wait_p99_us,
        sample.txns_committed,
        sample.wal_fsyncs,
        sample.retransmits,
        sample.timers_pending,
        sample.map_epoch,
        sample.migrating_items,
        sample.copy_installs,
    );
    for (i, (reason, n)) in deltas.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{reason}\":{n}");
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXPO: &str = "\
# TYPE miniraid_site_up gauge
miniraid_site_up{site=\"2\"} 1
# TYPE miniraid_site_session gauge
miniraid_site_session{site=\"2\"} 7
# TYPE miniraid_recovery_faillocks_outstanding gauge
miniraid_recovery_faillocks_outstanding{site=\"2\"} 41
# TYPE miniraid_txns_committed counter
miniraid_txns_committed{site=\"2\"} 40
# TYPE miniraid_txns_aborted counter
miniraid_txns_aborted{site=\"2\",reason=\"data_unavailable\"} 3
miniraid_txns_aborted{site=\"2\",reason=\"participant_failed\"} 1
# TYPE miniraid_wal_fsyncs counter
miniraid_wal_fsyncs{site=\"2\"} 10
# TYPE miniraid_transport_retransmits counter
miniraid_transport_retransmits{site=\"2\"} 5
# TYPE miniraid_timers_pending gauge
miniraid_timers_pending{site=\"2\"} 17
# TYPE miniraid_commit_latency_us summary
miniraid_commit_latency_us{site=\"2\",quantile=\"0.5\"} 120
miniraid_commit_latency_us{site=\"2\",quantile=\"0.9\"} 300
miniraid_commit_latency_us{site=\"2\",quantile=\"0.99\"} 900
# TYPE miniraid_lock_wait_us summary
miniraid_lock_wait_us{site=\"2\",quantile=\"0.99\"} 55
# TYPE miniraid_reshard_map_epoch gauge
miniraid_reshard_map_epoch{site=\"2\"} 3
# TYPE miniraid_reshard_migrating_items gauge
miniraid_reshard_migrating_items{site=\"2\"} 12
# TYPE miniraid_reshard_copy_installs counter
miniraid_reshard_copy_installs{site=\"2\"} 9
";

    #[test]
    fn parses_health_series() {
        let s = parse_site_sample(2, EXPO);
        assert!(s.up);
        assert_eq!(s.session, 7);
        assert_eq!(s.stale, 41);
        assert_eq!(s.commit_p50_us, 120);
        assert_eq!(s.commit_p99_us, 900);
        assert_eq!(s.lock_wait_p99_us, 55);
        assert_eq!(s.txns_committed, 40);
        assert_eq!(s.wal_fsyncs, 10);
        assert_eq!(s.retransmits, 5);
        assert_eq!(s.timers_pending, 17);
        assert_eq!(s.aborts_total(), 4);
        assert!((s.fsyncs_per_txn() - 0.25).abs() < 1e-9);
        assert_eq!(s.map_epoch, 3);
        assert_eq!(s.migrating_items, 12);
        assert_eq!(s.copy_installs, 9);
    }

    #[test]
    fn missing_series_read_as_zero() {
        let s = parse_site_sample(0, "# nothing here\n");
        assert!(!s.up);
        assert_eq!(s.commit_p99_us, 0);
        assert_eq!(s.aborts_total(), 0);
        assert_eq!(s.fsyncs_per_txn(), 0.0);
    }

    #[test]
    fn abort_deltas_are_per_interval() {
        let before = parse_site_sample(2, EXPO);
        let mut after = before.clone();
        after.aborts = vec![
            ("data_unavailable".into(), 5),
            ("participant_failed".into(), 1),
        ];
        let deltas = abort_deltas(Some(&before), &after);
        assert_eq!(deltas, vec![("data_unavailable".to_string(), 2)]);
        // First round: no baseline, no deltas reported.
        assert!(abort_deltas(None, &before).iter().all(|(_, n)| *n > 0));
    }

    #[test]
    fn table_marks_down_sites_and_deltas() {
        let mut a = parse_site_sample(0, EXPO);
        a.site = 0;
        a.up = false;
        let b = parse_site_sample(1, EXPO);
        let mut prev = b.clone();
        prev.aborts = vec![("data_unavailable".into(), 1)];
        let table = render_watch("header line", &[a, b], std::slice::from_ref(&prev));
        assert!(table.starts_with("header line\n"));
        assert!(table.contains("DOWN"));
        assert!(table.contains("data_unavailable+2"));
    }

    #[test]
    fn migration_progress_has_a_column_and_delta() {
        let s = parse_site_sample(2, EXPO);
        let mut prev = s.clone();
        prev.copy_installs = 4;
        let table = render_watch("h", std::slice::from_ref(&s), std::slice::from_ref(&prev));
        assert!(table.contains("map/migr"));
        assert!(table.contains("stale"));
        assert!(table.contains("timers"));
        assert!(table.contains("e3:12"));
        assert!(table.contains("copies+5"));
        // An unmapped site renders a dash, not a zero epoch.
        let bare = parse_site_sample(0, "# nothing\n");
        let table = render_watch("h", &[bare], &[]);
        assert!(table.contains(" -"));
    }

    #[test]
    fn jsonl_round_is_machine_parseable() {
        let s = parse_site_sample(2, EXPO);
        // First round: no baseline, so the cumulative counters double
        // as the deltas.
        let first = render_watch_jsonl(0, &s, None);
        assert!(
            first.contains("\"abort_deltas\":{\"data_unavailable\":3,\"participant_failed\":1}")
        );
        // Steady state: identical scrape, no deltas.
        let line = render_watch_jsonl(3, &s, Some(&s));
        assert!(line.starts_with("{\"round\":3,\"site\":2,\"up\":true,"));
        assert!(line.contains("\"commit_p99_us\":900"));
        assert!(line.ends_with("\"abort_deltas\":{}}"));
    }
}
