//! JSONL trace encoding: one flat JSON object per event per line.
//!
//! Hand-rolled on purpose — the workspace has no serialization library
//! (it builds offline from `vendor/`), so both the encoder and the
//! schema-validating parser live here. The schema is flat and stable:
//!
//! ```json
//! {"t":"commit","site":0,"txn":17,"lt":42,"wt":1712345678901}
//! ```
//!
//! `t` is [`EventKind::name`], `site` the emitting site, `txn` the
//! transaction id (omitted for events outside a transaction), `tid`
//! the causal trace id (omitted when 0 — untraced events serialize
//! exactly as before trace propagation existed), `lt` the logical
//! stamp and `wt` wall-clock microseconds. Kind-specific fields ride
//! alongside (`parts`, `from`, `ok`, `reason`, `coord`, `target`,
//! `requester`, `count`, `ctype`, `peer`, `session`, `up`, `branches`,
//! `shard`, `commit`, `retired`, `action`).

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

use miniraid_core::error::AbortReason;
use miniraid_core::ids::{SessionNumber, SiteId, TxnId};
use miniraid_core::trace::{EventKind, Stamp, TraceEvent, TraceSink};

/// Stable wire name of an abort reason.
pub fn reason_name(reason: AbortReason) -> &'static str {
    match reason {
        AbortReason::DataUnavailable => "data_unavailable",
        AbortReason::CopierTargetFailed => "copier_target_failed",
        AbortReason::ParticipantFailed => "participant_failed",
        AbortReason::SessionMismatch => "session_mismatch",
        AbortReason::SiteNotOperational => "site_not_operational",
        AbortReason::GlobalAbort => "global_abort",
        AbortReason::StaleShardMap => "stale_shard_map",
    }
}

fn reason_from_name(name: &str) -> Option<AbortReason> {
    Some(match name {
        "data_unavailable" => AbortReason::DataUnavailable,
        "copier_target_failed" => AbortReason::CopierTargetFailed,
        "participant_failed" => AbortReason::ParticipantFailed,
        "session_mismatch" => AbortReason::SessionMismatch,
        "site_not_operational" => AbortReason::SiteNotOperational,
        "global_abort" => AbortReason::GlobalAbort,
        "stale_shard_map" => AbortReason::StaleShardMap,
        _ => return None,
    })
}

/// Encode one event as a single JSON line (no trailing newline).
pub fn encode_event(event: &TraceEvent) -> String {
    let mut s = String::with_capacity(96);
    encode_event_into(event, &mut s);
    s
}

/// Encode one event into a caller-supplied buffer (appended, no
/// trailing newline) — the hot-path variant: a reused buffer makes
/// trace emission allocation-free in steady state.
pub fn encode_event_into(event: &TraceEvent, s: &mut String) {
    use std::fmt::Write as _;
    let _ = write!(
        s,
        "{{\"t\":\"{}\",\"site\":{}",
        event.kind.name(),
        event.site.0
    );
    if let Some(txn) = event.txn {
        let _ = write!(s, ",\"txn\":{}", txn.0);
    }
    if event.trace != 0 {
        let _ = write!(s, ",\"tid\":{}", event.trace);
    }
    let _ = write!(
        s,
        ",\"lt\":{},\"wt\":{}",
        event.at.logical, event.at.wall_micros
    );
    match event.kind {
        EventKind::PreparePhase { participants } => {
            let _ = write!(s, ",\"parts\":{participants}");
        }
        EventKind::Vote { from, ok } => {
            let _ = write!(s, ",\"from\":{},\"ok\":{}", from.0, ok);
        }
        EventKind::Abort { reason } => {
            let _ = write!(s, ",\"reason\":\"{}\"", reason_name(reason));
        }
        EventKind::ParticipantPrepared { coordinator } => {
            let _ = write!(s, ",\"coord\":{}", coordinator.0);
        }
        EventKind::CopierRequest { target } => {
            let _ = write!(s, ",\"target\":{}", target.0);
        }
        EventKind::CopierServe { site } => {
            let _ = write!(s, ",\"requester\":{}", site.0);
        }
        EventKind::FailLocksSet { count } | EventKind::FailLocksCleared { count } => {
            let _ = write!(s, ",\"count\":{count}");
        }
        EventKind::ControlTxn { ctype } => {
            let _ = write!(s, ",\"ctype\":{ctype}");
        }
        EventKind::RecoveryServe { site } => {
            let _ = write!(s, ",\"requester\":{}", site.0);
        }
        EventKind::RecoveryMerge { from, merged } => {
            let _ = write!(s, ",\"from\":{},\"merged\":{}", from.0, merged);
        }
        EventKind::SessionChange { site, session, up } => {
            let _ = write!(
                s,
                ",\"peer\":{},\"session\":{},\"up\":{}",
                site.0, session.0, up
            );
        }
        EventKind::XBegin { branches } => {
            let _ = write!(s, ",\"branches\":{branches}");
        }
        EventKind::XPrepare { shard } => {
            let _ = write!(s, ",\"shard\":{shard}");
        }
        EventKind::XVote { shard, ok } => {
            let _ = write!(s, ",\"shard\":{shard},\"ok\":{ok}");
        }
        EventKind::XDecide { commit } => {
            let _ = write!(s, ",\"commit\":{commit}");
        }
        EventKind::XLogReplicate { replicas, decided } => {
            let _ = write!(s, ",\"replicas\":{replicas},\"decided\":{decided}");
        }
        EventKind::XTakeover { commit } => {
            let _ = write!(s, ",\"commit\":{commit}");
        }
        EventKind::WalFsync { retired } => {
            let _ = write!(s, ",\"retired\":{retired}");
        }
        EventKind::MigrateStart { epoch } | EventKind::MigrateCutover { epoch } => {
            let _ = write!(s, ",\"epoch\":{epoch}");
        }
        EventKind::MigrateCopy { item } => {
            let _ = write!(s, ",\"item\":{item}");
        }
        EventKind::Chaos { action, target } => {
            let _ = write!(
                s,
                ",\"action\":\"{}\",\"target\":{}",
                action.name(),
                target.0
            );
        }
        EventKind::TxnAdmit
        | EventKind::LockWait
        | EventKind::LockGrant
        | EventKind::TxnStart
        | EventKind::Decide
        | EventKind::Commit
        | EventKind::ParticipantCommitted => {}
    }
    s.push('}');
}

/// A parsed flat-JSON value.
enum Val {
    Num(u64),
    Bool(bool),
    Str(String),
}

/// Parse one flat JSON object (string / unsigned-number / bool values
/// only — exactly the trace schema). Returns key→value pairs or an
/// error description.
fn parse_flat(line: &str) -> Result<Vec<(String, Val)>, String> {
    let mut chars = line.trim().char_indices().peekable();
    let s = line.trim();
    let mut fields = Vec::new();

    let expect =
        |chars: &mut std::iter::Peekable<std::str::CharIndices>, want: char| match chars.next() {
            Some((_, c)) if c == want => Ok(()),
            Some((i, c)) => Err(format!("expected '{want}' at byte {i}, found '{c}'")),
            None => Err(format!("expected '{want}', found end of line")),
        };

    expect(&mut chars, '{')?;
    if let Some((_, '}')) = chars.peek() {
        return Ok(fields);
    }
    loop {
        // key
        expect(&mut chars, '"')?;
        let mut key = String::new();
        loop {
            match chars.next() {
                Some((_, '"')) => break,
                Some((_, c)) => key.push(c),
                None => return Err("unterminated key".into()),
            }
        }
        expect(&mut chars, ':')?;
        // value
        let val = match chars.peek().copied() {
            Some((_, '"')) => {
                chars.next();
                let mut v = String::new();
                loop {
                    match chars.next() {
                        Some((_, '"')) => break,
                        Some((_, c)) => v.push(c),
                        None => return Err("unterminated string value".into()),
                    }
                }
                Val::Str(v)
            }
            Some((i, c)) if c == 't' || c == 'f' => {
                let rest = &s[i..];
                if rest.starts_with("true") {
                    for _ in 0..4 {
                        chars.next();
                    }
                    Val::Bool(true)
                } else if rest.starts_with("false") {
                    for _ in 0..5 {
                        chars.next();
                    }
                    Val::Bool(false)
                } else {
                    return Err(format!("bad literal at byte {i}"));
                }
            }
            Some((i, c)) if c.is_ascii_digit() => {
                let mut v: u64 = 0;
                let mut any = false;
                while let Some((_, d)) = chars.peek().copied() {
                    if let Some(digit) = d.to_digit(10) {
                        v = v
                            .checked_mul(10)
                            .and_then(|v| v.checked_add(digit as u64))
                            .ok_or_else(|| format!("number overflow at byte {i}"))?;
                        any = true;
                        chars.next();
                    } else {
                        break;
                    }
                }
                if !any {
                    return Err(format!("empty number at byte {i}"));
                }
                Val::Num(v)
            }
            Some((i, c)) => return Err(format!("unexpected value start '{c}' at byte {i}")),
            None => return Err("truncated object".into()),
        };
        fields.push((key, val));
        match chars.next() {
            Some((_, ',')) => continue,
            Some((_, '}')) => break,
            Some((i, c)) => return Err(format!("expected ',' or '}}' at byte {i}, found '{c}'")),
            None => return Err("truncated object".into()),
        }
    }
    if chars.next().is_some() {
        return Err("trailing bytes after object".into());
    }
    Ok(fields)
}

/// Parse one JSONL trace line back into a [`TraceEvent`], validating
/// the schema (unknown kinds and missing kind-specific fields are
/// errors).
pub fn parse_event(line: &str) -> Result<TraceEvent, String> {
    let fields = parse_flat(line)?;
    let get_num = |key: &str| -> Option<u64> {
        fields.iter().find_map(|(k, v)| match v {
            Val::Num(n) if k == key => Some(*n),
            _ => None,
        })
    };
    let get_bool = |key: &str| -> Option<bool> {
        fields.iter().find_map(|(k, v)| match v {
            Val::Bool(b) if k == key => Some(*b),
            _ => None,
        })
    };
    let get_str = |key: &str| -> Option<&str> {
        fields.iter().find_map(|(k, v)| match v {
            Val::Str(sv) if k == key => Some(sv.as_str()),
            _ => None,
        })
    };

    let t = get_str("t").ok_or("missing \"t\"")?;
    let site = SiteId(get_num("site").ok_or("missing \"site\"")? as u8);
    let txn = get_num("txn").map(TxnId);
    let trace = get_num("tid").unwrap_or(0);
    let at = Stamp {
        logical: get_num("lt").ok_or("missing \"lt\"")?,
        wall_micros: get_num("wt").ok_or("missing \"wt\"")?,
    };
    let kind = match t {
        "txn_admit" => EventKind::TxnAdmit,
        "lock_wait" => EventKind::LockWait,
        "lock_grant" => EventKind::LockGrant,
        "txn_start" => EventKind::TxnStart,
        "decide" => EventKind::Decide,
        "commit" => EventKind::Commit,
        "part_committed" => EventKind::ParticipantCommitted,
        "prepare" => EventKind::PreparePhase {
            participants: get_num("parts").ok_or("prepare missing \"parts\"")? as u8,
        },
        "vote" => EventKind::Vote {
            from: SiteId(get_num("from").ok_or("vote missing \"from\"")? as u8),
            ok: get_bool("ok").ok_or("vote missing \"ok\"")?,
        },
        "abort" => EventKind::Abort {
            reason: get_str("reason")
                .and_then(reason_from_name)
                .ok_or("abort missing/unknown \"reason\"")?,
        },
        "part_prepared" => EventKind::ParticipantPrepared {
            coordinator: SiteId(get_num("coord").ok_or("part_prepared missing \"coord\"")? as u8),
        },
        "copier_req" => EventKind::CopierRequest {
            target: SiteId(get_num("target").ok_or("copier_req missing \"target\"")? as u8),
        },
        "copier_serve" => EventKind::CopierServe {
            site: SiteId(get_num("requester").ok_or("copier_serve missing \"requester\"")? as u8),
        },
        "faillocks_set" => EventKind::FailLocksSet {
            count: get_num("count").ok_or("faillocks_set missing \"count\"")? as u32,
        },
        "faillocks_cleared" => EventKind::FailLocksCleared {
            count: get_num("count").ok_or("faillocks_cleared missing \"count\"")? as u32,
        },
        "control" => EventKind::ControlTxn {
            ctype: get_num("ctype").ok_or("control missing \"ctype\"")? as u8,
        },
        "recovery_serve" => EventKind::RecoveryServe {
            site: SiteId(get_num("requester").ok_or("recovery_serve missing \"requester\"")? as u8),
        },
        "recovery_merge" => EventKind::RecoveryMerge {
            from: SiteId(get_num("from").ok_or("recovery_merge missing \"from\"")? as u8),
            merged: get_bool("merged").ok_or("recovery_merge missing \"merged\"")?,
        },
        "session" => EventKind::SessionChange {
            site: SiteId(get_num("peer").ok_or("session missing \"peer\"")? as u8),
            session: SessionNumber(get_num("session").ok_or("session missing \"session\"")?),
            up: get_bool("up").ok_or("session missing \"up\"")?,
        },
        "x_begin" => EventKind::XBegin {
            branches: get_num("branches").ok_or("x_begin missing \"branches\"")? as u8,
        },
        "x_prepare" => EventKind::XPrepare {
            shard: get_num("shard").ok_or("x_prepare missing \"shard\"")? as u8,
        },
        "x_vote" => EventKind::XVote {
            shard: get_num("shard").ok_or("x_vote missing \"shard\"")? as u8,
            ok: get_bool("ok").ok_or("x_vote missing \"ok\"")?,
        },
        "x_decide" => EventKind::XDecide {
            commit: get_bool("commit").ok_or("x_decide missing \"commit\"")?,
        },
        "x_log_replicate" => EventKind::XLogReplicate {
            replicas: get_num("replicas").ok_or("x_log_replicate missing \"replicas\"")? as u8,
            decided: get_bool("decided").ok_or("x_log_replicate missing \"decided\"")?,
        },
        "x_takeover" => EventKind::XTakeover {
            commit: get_bool("commit").ok_or("x_takeover missing \"commit\"")?,
        },
        "wal_fsync" => EventKind::WalFsync {
            retired: get_num("retired").ok_or("wal_fsync missing \"retired\"")? as u32,
        },
        "migrate_start" => EventKind::MigrateStart {
            epoch: get_num("epoch").ok_or("migrate_start missing \"epoch\"")?,
        },
        "migrate_copy" => EventKind::MigrateCopy {
            item: get_num("item").ok_or("migrate_copy missing \"item\"")? as u32,
        },
        "migrate_cutover" => EventKind::MigrateCutover {
            epoch: get_num("epoch").ok_or("migrate_cutover missing \"epoch\"")?,
        },
        "chaos" => EventKind::Chaos {
            action: get_str("action")
                .and_then(miniraid_core::trace::ChaosAction::from_name)
                .ok_or("chaos missing/unknown \"action\"")?,
            target: SiteId(get_num("target").ok_or("chaos missing \"target\"")? as u8),
        },
        other => return Err(format!("unknown event kind \"{other}\"")),
    };
    Ok(TraceEvent {
        site,
        txn,
        trace,
        at,
        kind,
    })
}

/// A [`TraceSink`] appending one JSON line per event to a file.
///
/// The line buffer lives behind the same mutex as the writer and is
/// reused across events, so recording allocates nothing in steady
/// state.
pub struct JsonlSink {
    inner: Mutex<JsonlInner>,
}

struct JsonlInner {
    writer: BufWriter<File>,
    scratch: String,
}

impl std::fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("JsonlSink")
    }
}

impl JsonlSink {
    /// Create (truncate) `path` and write events to it.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let file = File::create(path)?;
        Ok(JsonlSink {
            inner: Mutex::new(JsonlInner {
                writer: BufWriter::new(file),
                scratch: String::with_capacity(96),
            }),
        })
    }

    /// Flush buffered lines to the file.
    pub fn flush(&self) -> std::io::Result<()> {
        self.inner
            .lock()
            .expect("jsonl sink poisoned")
            .writer
            .flush()
    }
}

impl TraceSink for JsonlSink {
    fn record(&self, event: TraceEvent) {
        let mut guard = self.inner.lock().expect("jsonl sink poisoned");
        let inner = &mut *guard;
        inner.scratch.clear();
        encode_event_into(&event, &mut inner.scratch);
        inner.scratch.push('\n');
        let _ = inner.writer.write_all(inner.scratch.as_bytes());
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        if let Ok(mut inner) = self.inner.lock() {
            let _ = inner.writer.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(event: TraceEvent) {
        let line = encode_event(&event);
        let back = parse_event(&line).unwrap_or_else(|e| panic!("parse {line}: {e}"));
        assert_eq!(back, event, "line: {line}");
    }

    #[test]
    fn all_kinds_roundtrip() {
        let at = Stamp {
            logical: 3,
            wall_micros: 1_234_567,
        };
        let kinds = [
            EventKind::TxnAdmit,
            EventKind::LockWait,
            EventKind::LockGrant,
            EventKind::TxnStart,
            EventKind::PreparePhase { participants: 3 },
            EventKind::Vote {
                from: SiteId(2),
                ok: true,
            },
            EventKind::Vote {
                from: SiteId(1),
                ok: false,
            },
            EventKind::Decide,
            EventKind::Commit,
            EventKind::Abort {
                reason: AbortReason::ParticipantFailed,
            },
            EventKind::ParticipantPrepared {
                coordinator: SiteId(0),
            },
            EventKind::ParticipantCommitted,
            EventKind::CopierRequest { target: SiteId(1) },
            EventKind::CopierServe { site: SiteId(2) },
            EventKind::FailLocksSet { count: 12 },
            EventKind::FailLocksCleared { count: 7 },
            EventKind::ControlTxn { ctype: 2 },
            EventKind::SessionChange {
                site: SiteId(3),
                session: SessionNumber(4),
                up: false,
            },
            EventKind::XBegin { branches: 2 },
            EventKind::XPrepare { shard: 1 },
            EventKind::XVote { shard: 0, ok: true },
            EventKind::XVote {
                shard: 1,
                ok: false,
            },
            EventKind::XDecide { commit: true },
            EventKind::XLogReplicate {
                replicas: 2,
                decided: false,
            },
            EventKind::XLogReplicate {
                replicas: 3,
                decided: true,
            },
            EventKind::XTakeover { commit: true },
            EventKind::XTakeover { commit: false },
            EventKind::WalFsync { retired: 3 },
            EventKind::MigrateStart { epoch: 4 },
            EventKind::MigrateCopy { item: 17 },
            EventKind::MigrateCutover { epoch: 6 },
            EventKind::Chaos {
                action: miniraid_core::trace::ChaosAction::Kill,
                target: SiteId(2),
            },
            EventKind::Chaos {
                action: miniraid_core::trace::ChaosAction::Isolate,
                target: SiteId(0),
            },
        ];
        for kind in kinds {
            roundtrip(TraceEvent {
                site: SiteId(1),
                txn: Some(TxnId(42)),
                trace: 0,
                at,
                kind,
            });
            roundtrip(TraceEvent {
                site: SiteId(0),
                txn: None,
                trace: 0,
                at,
                kind,
            });
            // With a causal trace id attached.
            roundtrip(TraceEvent {
                site: SiteId(2),
                txn: Some(TxnId(7)),
                trace: 0x0007_0000_0000_0001,
                at,
                kind,
            });
        }
    }

    #[test]
    fn untraced_events_serialize_without_tid() {
        let event = TraceEvent {
            site: SiteId(0),
            txn: Some(TxnId(1)),
            trace: 0,
            at: Stamp {
                logical: 1,
                wall_micros: 2,
            },
            kind: EventKind::Commit,
        };
        let line = encode_event(&event);
        assert!(!line.contains("tid"), "trace-off line grew a field: {line}");
        assert_eq!(
            line,
            "{\"t\":\"commit\",\"site\":0,\"txn\":1,\"lt\":1,\"wt\":2}"
        );
        // And a traced one carries it between txn and lt.
        let traced = TraceEvent { trace: 9, ..event };
        assert_eq!(
            encode_event(&traced),
            "{\"t\":\"commit\",\"site\":0,\"txn\":1,\"tid\":9,\"lt\":1,\"wt\":2}"
        );
    }

    #[test]
    fn malformed_lines_are_rejected() {
        for bad in [
            "",
            "{",
            "not json",
            "{\"t\":\"commit\"}", // missing site/lt/wt
            "{\"t\":\"nope\",\"site\":0,\"lt\":0,\"wt\":0}", // unknown kind
            "{\"t\":\"vote\",\"site\":0,\"lt\":0,\"wt\":0}", // missing vote fields
            "{\"t\":\"commit\",\"site\":0,\"lt\":0,\"wt\":0} trailing",
        ] {
            assert!(parse_event(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let dir = std::env::temp_dir().join("miniraid-obs-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        let sink = JsonlSink::create(&path).unwrap();
        for n in 0..5u64 {
            sink.record(TraceEvent {
                site: SiteId(0),
                txn: Some(TxnId(n)),
                trace: n,
                at: Stamp {
                    logical: n,
                    wall_micros: n * 100,
                },
                kind: EventKind::Commit,
            });
        }
        sink.flush().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        for line in lines {
            parse_event(line).unwrap();
        }
        let _ = std::fs::remove_file(&path);
    }
}
