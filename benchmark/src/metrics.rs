//! The metric tables: every name the benchmark prints, with its unit,
//! its direction and (end to end) the share of the parent's median by
//! which it may worsen. BENCHMARK.json is rendered from these tables.

use crate::workload::WORKLOADS;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Allowed worsening as a share of the parent's median (end to end only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Every workload reports every one;
/// README.md says what each means where a workload has no failure, no
/// restart image or no second replication group.
pub const END_TO_END: [Metric; 13] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("commit_tps", "1/s", Higher, 0.25),
    e2e("commit_p50_us", "us", Lower, 0.25),
    e2e("commit_p95_us", "us", Lower, 0.25),
    e2e("unloaded_p50_us", "us", Lower, 0.25),
    e2e("readonly_p50_us", "us", Lower, 0.25),
    e2e("update_p50_us", "us", Lower, 0.25),
    e2e("cross_p50_us", "us", Lower, 0.25),
    e2e("degraded_tps", "1/s", Higher, 0.25),
    e2e("recovering_tps", "1/s", Higher, 0.25),
    e2e("recover_s", "s", Lower, 0.25),
    e2e("failover_gap_ms", "ms", Lower, 0.25),
    e2e("restart_s", "s", Lower, 0.25),
];

/// Single layers (the crates), from the traced walk, from public
/// counters read after the measured phase, or from a micro-measurement
/// on benchmark-owned objects. A metric whose layer a workload does not
/// use reads 0 there.
pub const PER_LAYER: [Metric; 53] = [
    layer("txn.gen_ns_per_txn", "ns/txn", Lower),
    layer("shard.route_ns_per_txn", "ns/txn", Lower),
    layer("shard.xcoord_ns_per_xtxn", "ns/xtxn", Lower),
    layer("shard.xlog_ns_per_xtxn", "ns/xtxn", Lower),
    layer("shard.msgs_per_xtxn", "msgs/xtxn", Lower),
    layer("shard.xlog_appends_per_xtxn", "count/xtxn", Lower),
    layer("shard.cross_share", "share", Lower),
    layer("shard.vote_timeouts", "count", Lower),
    layer("shard.redrives", "count", Lower),
    layer("core.coord_ns_per_txn", "ns/txn", Lower),
    layer("core.part_ns_per_txn", "ns/txn", Lower),
    layer("core.handle_calls_per_txn", "calls/txn", Lower),
    layer("core.msgs_per_txn", "msgs/txn", Lower),
    layer("core.msgs_per_readonly_txn", "msgs/txn", Lower),
    layer("core.lock_wait_share", "share", Lower),
    layer("core.inflight_high_water", "count", Higher),
    layer("core.aborts_site_down", "count", Lower),
    layer("core.aborts_participant_failed", "count", Lower),
    layer("core.faillocks_set_per_down_txn", "count/txn", Lower),
    layer("core.txns_to_recover", "count", Lower),
    layer("core.copier_requests_per_recovery", "count", Lower),
    layer("core.ct1_us", "us", Lower),
    layer("core.copier_serve_ns_per_item", "ns/item", Lower),
    layer("core.recovering_coord_ns_per_txn", "ns/txn", Lower),
    layer("net.encode_ns_per_msg", "ns/msg", Lower),
    layer("net.decode_ns_per_msg", "ns/msg", Lower),
    layer("net.bytes_per_msg", "B/msg", Lower),
    layer("net.bytes_per_txn", "B/txn", Lower),
    layer("net.chan_hop_us", "us", Lower),
    layer("net.tcp_hop_us", "us", Lower),
    layer("net.reconnects", "count", Lower),
    layer("net.retransmits", "count", Lower),
    layer("storage.append_ns_per_commit", "ns/commit", Lower),
    layer("storage.fsync_us_p50", "us", Lower),
    layer("storage.open_scan_ms", "ms", Lower),
    layer("storage.hydrate_ns_per_item", "ns/item", Lower),
    layer("storage.fsyncs_per_txn", "count/txn", Lower),
    layer("storage.commits_per_fsync", "count", Higher),
    layer("storage.wal_bytes_per_txn", "B/txn", Lower),
    layer("storage.write_amp", "ratio", Lower),
    layer("storage.log_bytes_after_run", "B", Lower),
    layer("cluster.launch_ms", "ms", Lower),
    layer("cluster.submit_ns_per_txn", "ns/txn", Lower),
    layer("cluster.drain_ns_per_report", "ns/report", Lower),
    layer("cluster.generator_busy_share", "share", Lower),
    layer("cluster.unattributed_us", "us", Lower),
    layer("cluster.failed_share", "share", Lower),
    layer("cluster.commit_p99_us", "us", Lower),
    layer("obs.hist_record_ns", "ns", Lower),
    layer("obs.scrape_ms", "ms", Lower),
    layer("obs.tracer_on_tps_ratio", "ratio", Higher),
    layer("walk.blocking_path_p50_us", "us", Lower),
    layer("walk.span_overhead_pct", "%", Lower),
];

/// Seconds one run measures for; the driver passes it as `--seconds`.
pub const RUN_SECONDS: u64 = 12;

fn better(b: Better) -> &'static str {
    match b {
        Lower => "lower",
        Higher => "higher",
    }
}

/// BENCHMARK.json, rendered from the tables above.
pub fn manifest() -> String {
    let rows = |rows: Vec<String>| rows.join(",\n");
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        rows(WORKLOADS
            .iter()
            .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
            .collect()),
        rows(END_TO_END
            .iter()
            .map(|m| format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                better(m.better),
                m.bound
            ))
            .collect()),
        rows(PER_LAYER
            .iter()
            .map(|m| format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                better(m.better)
            ))
            .collect()),
    )
}

/// Compare two sets of end-to-end results, each a list of `workload
/// metric value` triples: the lines where the second is worse than the
/// first by more than the metric's bound.
pub fn regressions(
    first: &[(String, String, f64)],
    second: &[(String, String, f64)],
) -> Vec<String> {
    let mut out = Vec::new();
    for (workload, name, a) in first {
        let Some(m) = END_TO_END.iter().find(|m| m.name == name) else {
            continue;
        };
        let Some((_, _, b)) = second.iter().find(|(w, n, _)| w == workload && n == name) else {
            out.push(format!("{workload} {name}: missing from the second set"));
            continue;
        };
        let worse = match m.better {
            Lower => b - a,
            Higher => a - b,
        } / a;
        if worse > m.bound {
            out.push(format!(
                "{workload} {name}: {a} -> {b} {} is {:.1} % worse, bound {:.0} %",
                m.unit,
                worse * 100.0,
                m.bound * 100.0
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str, max: usize) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name.chars().next().unwrap().is_ascii_alphanumeric()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn tables_meet_the_benchmark_contract() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(well_formed(n, 64), "{n}");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used once");
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(m.unit.len() <= 16 && !m.unit.is_empty(), "{}", m.name);
            assert!(
                m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}: unit {}",
                m.name,
                m.unit
            );
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(setup.unit == "s" && setup.better == Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        for w in &WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n') && !w.why.contains('"'),
                "{}",
                w.name
            );
        }
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(manifest().len() <= 64 * 1024);
    }

    #[test]
    fn benchmark_json_is_the_rendered_manifest() {
        assert_eq!(include_str!("../../BENCHMARK.json"), manifest());
    }

    #[test]
    fn regressions_respect_direction_and_bound() {
        let row = |w: &str, n: &str, v: f64| (w.to_string(), n.to_string(), v);
        let first = vec![
            row("mem-rw", "commit_tps", 1000.0),
            row("mem-rw", "commit_p50_us", 100.0),
            row("mem-rw", "setup_s", 1.0),
        ];
        let within = vec![
            row("mem-rw", "commit_tps", 900.0),
            row("mem-rw", "commit_p50_us", 110.0),
            row("mem-rw", "setup_s", 0.5),
        ];
        assert!(regressions(&first, &within).is_empty());
        let worse = vec![
            row("mem-rw", "commit_tps", 700.0),
            row("mem-rw", "commit_p50_us", 90.0),
        ];
        let found = regressions(&first, &worse);
        assert_eq!(found.len(), 2, "{found:?}");
        assert!(found[0].contains("commit_tps") && found[1].contains("setup_s"));
    }
}
