//! Micro-benchmarks of the protocol's primitive data structures: the
//! real-hardware costs behind the paper's measured overheads.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use miniraid_core::config::ProtocolConfig;
use miniraid_core::engine::{Input, SiteEngine};
use miniraid_core::faillock::FailLockTable;
use miniraid_core::ids::{ItemId, SessionNumber, SiteId, TxnId};
use miniraid_core::messages::{Command, Message};
use miniraid_core::packed::PackedSiteTable;
use miniraid_core::session::SessionVector;
use miniraid_net::codec::{decode, encode};
use miniraid_storage::{ItemValue, MemStore};

fn bench_faillocks(c: &mut Criterion) {
    let mut group = c.benchmark_group("faillock");
    group.bench_function("set_clear_bit", |b| {
        let mut table = FailLockTable::new(50, 4);
        b.iter(|| {
            table.set(black_box(ItemId(17)), black_box(SiteId(2)));
            table.clear(black_box(ItemId(17)), black_box(SiteId(2)));
        })
    });
    group.bench_function("maintain_on_commit", |b| {
        let mut table = FailLockTable::new(50, 4);
        let mut vector = SessionVector::new(4);
        vector.mark_down(SiteId(3));
        b.iter(|| table.maintain_on_commit(black_box(ItemId(9)), &vector))
    });
    // The fail-recover shape: 100 000 items, 65 000 stale for one site.
    let mut recovering = FailLockTable::new(100_000, 3);
    for i in 0..65_000 {
        recovering.set(ItemId(i), SiteId(2));
    }
    group.bench_function("count_locked_for_db100k", |b| {
        b.iter(|| recovering.count_locked_for(black_box(SiteId(2))))
    });
    group.bench_function("items_locked_for_db100k", |b| {
        b.iter(|| recovering.items_locked_for(black_box(SiteId(2))))
    });
    group.bench_function("snapshot_install_db4096", |b| {
        let table = FailLockTable::new(4096, 8);
        let snap = table.snapshot();
        let mut target = FailLockTable::new(4096, 8);
        b.iter(|| target.install_snapshot(black_box(&snap)))
    });
    group.finish();
}

/// A recovering site (type-1 done, copies still fail-locked) takes part
/// in a commit: `CopyUpdate` then `Commit`. The per-commit recovery
/// bookkeeping must not depend on the database size.
fn bench_commit_while_recovering(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine");
    for (name, db_size) in [
        ("commit_while_recovering_db1k", 1_000u32),
        ("commit_while_recovering_db1m", 1_000_000),
    ] {
        let config = ProtocolConfig {
            db_size,
            n_sites: 2,
            ..ProtocolConfig::default()
        };
        let mut engine = SiteEngine::new(SiteId(1), config);
        let mut out = Vec::new();
        engine.handle(Input::Control(Command::Fail), &mut out);
        engine.handle(Input::Control(Command::Recover), &mut out);
        // Site 0's answer: the upper half of our copies is stale.
        let mut faillocks = vec![0u64; db_size as usize];
        faillocks[db_size as usize / 2..].fill(0b10);
        let info = Message::RecoveryInfo {
            vector: (0..2).map(|s| engine.vector().record(SiteId(s))).collect(),
            faillocks: PackedSiteTable::pack(&faillocks),
            holders: PackedSiteTable::pack(&vec![0b11; db_size as usize]),
            backups: PackedSiteTable::pack(&vec![0; db_size as usize]),
        };
        engine.handle(
            Input::Deliver {
                from: SiteId(0),
                msg: info,
            },
            &mut out,
        );
        assert!(engine.is_up() && engine.own_stale_count() == db_size / 2);
        let snapshot = engine.vector().session_snapshot();
        let mut txn = 0u64;
        group.bench_function(name, |b| {
            b.iter(|| {
                txn += 1;
                out.clear();
                let update = Message::CopyUpdate {
                    txn: TxnId(txn),
                    writes: vec![(ItemId(7), ItemValue::new(txn, txn))],
                    snapshot: snapshot.clone(),
                    clears: vec![],
                    up_mask: 0b11,
                };
                for msg in [update, Message::Commit { txn: TxnId(txn) }] {
                    let from = SiteId(0);
                    engine.handle(Input::Deliver { from, msg }, &mut out);
                }
                black_box(out.len())
            })
        });
        assert_eq!(engine.db().get(7).unwrap().version, txn);
    }
    group.finish();
}

fn bench_session_vector(c: &mut Criterion) {
    let mut group = c.benchmark_group("session_vector");
    group.bench_function("snapshot_4_sites", |b| {
        let vector = SessionVector::new(4);
        b.iter(|| black_box(vector.session_snapshot()))
    });
    group.bench_function("operational_peers_64_sites", |b| {
        let mut vector = SessionVector::new(64);
        for s in (0..64).step_by(4) {
            vector.mark_down(SiteId(s));
        }
        b.iter(|| black_box(vector.operational_peers(SiteId(1))))
    });
    group.bench_function("apply_failure_announcement", |b| {
        let mut vector = SessionVector::new(4);
        b.iter(|| vector.apply_failure_announcement(black_box(SiteId(2)), SessionNumber(1)))
    });
    group.finish();
}

fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec");
    let copy_update = Message::CopyUpdate {
        txn: TxnId(42),
        writes: (0..5)
            .map(|i| (ItemId(i), ItemValue::new(i as u64, 42)))
            .collect(),
        snapshot: vec![SessionNumber(1); 4],
        clears: vec![],
        up_mask: 0b1111,
    };
    group.bench_function("encode_copy_update", |b| {
        b.iter(|| black_box(encode(black_box(&copy_update))))
    });
    let encoded = encode(&copy_update);
    group.bench_function("decode_copy_update", |b| {
        b.iter(|| black_box(decode(black_box(&encoded)).unwrap()))
    });
    let info = Message::RecoveryInfo {
        vector: vec![
            miniraid_core::session::SiteRecord {
                session: SessionNumber(3),
                status: miniraid_core::session::SiteStatus::Up,
            };
            4
        ],
        faillocks: PackedSiteTable::pack(&[0xAAAA; 4096]),
        holders: PackedSiteTable::pack(&[u64::MAX; 4096]),
        backups: PackedSiteTable::pack(&[0; 4096]),
    };
    group.bench_function("encode_recovery_info_db4096", |b| {
        b.iter(|| black_box(encode(black_box(&info))))
    });
    let encoded_info = encode(&info);
    group.bench_function("decode_recovery_info_db4096", |b| {
        b.iter(|| black_box(decode(black_box(&encoded_info)).unwrap()))
    });
    // One donor's answer on the fail-recover workload, there and back.
    let mut stale = vec![0u64; 100_000];
    stale[..65_000].fill(0b100);
    let info = Message::RecoveryInfo {
        vector: vec![
            miniraid_core::session::SiteRecord {
                session: SessionNumber(3),
                status: miniraid_core::session::SiteStatus::Up,
            };
            3
        ],
        faillocks: PackedSiteTable::pack(&stale),
        holders: PackedSiteTable::pack(&vec![0b111; 100_000]),
        backups: PackedSiteTable::pack(&vec![0; 100_000]),
    };
    group.bench_function("recovery_info_encode_decode_db100k", |b| {
        b.iter(|| black_box(decode(&encode(black_box(&info))).unwrap()))
    });
    group.finish();
}

fn bench_storage(c: &mut Criterion) {
    let mut group = c.benchmark_group("storage");
    group.bench_function("memstore_put_get", |b| {
        let mut store = MemStore::new(1024);
        b.iter(|| {
            store.put(black_box(513), ItemValue::new(9, 4)).unwrap();
            black_box(store.get(black_box(513)).unwrap())
        })
    });
    group.bench_function("memstore_digest_db1024", |b| {
        let store = MemStore::new(1024);
        b.iter(|| black_box(store.digest()))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_faillocks,
    bench_commit_while_recovering,
    bench_session_vector,
    bench_codec,
    bench_storage
);
criterion_main!(benches);
