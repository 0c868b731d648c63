//! The six named workloads and the seeded transaction stream each one
//! draws from. The program under test only ever sees generated
//! transactions; `--seed` fixes the stream.

use crate::sut::{Gen, ItemId, Mix, Operation, SutSpec, Timing, Topology, Transaction, TxnId};

/// Items per replication group: the paper's generator at 2 000x its
/// 50-item hot set, so the working set is far beyond a cache-line budget.
pub const DB_SIZE: u32 = 100_000;
/// Transactions have 1..=5 operations, as in the paper's Experiment 2.
pub const MAX_OPS: u32 = 5;
/// Logical clients of the saturated phase unless a workload states otherwise.
pub const CLIENTS: usize = 24;

/// One named workload: the system it launches and the stream it offers.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    /// One line for BENCHMARK.json: which layers it stresses and why.
    pub why: &'static str,
    pub kind: Kind,
    pub mix: Mix,
    pub clients: usize,
    /// Share of all transactions that span two replication groups.
    pub cross_share: f64,
    /// Transactions the layer walk replays.
    pub walk_txns: usize,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    Mem,
    Tcp,
    Durable,
    Sharded,
    /// `Mem` with failure detection on; fail/recover cycles replace the
    /// saturated phase.
    FailRecover,
}

const RW: Mix = Mix::Uniform { read_fraction: 0.5 };

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "mem-rw",
        why: "baseline: 3 in-memory sites over channels, uniform keys, 50 % reads; core (engine, locks, 2PC) and the cluster site loop do most of the work, storage, TCP and shard none",
        kind: Kind::Mem,
        mix: RW,
        clients: CLIENTS,
        cross_share: 0.0,
        walk_txns: 20_000,
    },
    Workload {
        name: "mem-read",
        why: "Zipf 0.99 keys, 95 % reads: most transactions commit locally, so admission, shared locks on hot keys and the report path dominate and 2PC and net almost vanish",
        kind: Kind::Mem,
        mix: Mix::Zipf {
            theta: 0.99,
            read_fraction: 0.95,
        },
        clients: CLIENTS,
        cross_share: 0.0,
        walk_txns: 20_000,
    },
    Workload {
        name: "tcp-rw",
        why: "mem-rw over localhost TCP: the channel transport already runs the codec, so the difference from mem-rw is sockets, framing and syscalls in net",
        kind: Kind::Tcp,
        mix: RW,
        clients: CLIENTS,
        cross_share: 0.0,
        walk_txns: 20_000,
    },
    Workload {
        name: "wal-write",
        why: "durable sites, 20 % reads, 16 clients, default group commit: storage append and fsync dominate; the restart afterwards uses storage the other way round (scan and lazy hydrate)",
        kind: Kind::Durable,
        mix: Mix::Uniform { read_fraction: 0.2 },
        clients: 16,
        cross_share: 0.0,
        // Every Persist of the walk is fsynced on its own.
        walk_txns: 2_000,
    },
    Workload {
        name: "shard-cross",
        why: "2 groups of 2 sites, 20 % of transactions span both: shard (router, XCoordinator, XLogStore) and the ShardedClient inside the generator thread do the extra work",
        kind: Kind::Sharded,
        mix: RW,
        clients: CLIENTS,
        cross_share: 0.2,
        walk_txns: 20_000,
    },
    Workload {
        name: "fail-recover",
        why: "mem-rw mix with failure detection at work (500 ms timers); three fail, degraded load, recover cycles (the paper's Experiments 2-3 at scale): copier, control-transaction and fail-lock code in core",
        kind: Kind::FailRecover,
        mix: RW,
        clients: CLIENTS,
        cross_share: 0.0,
        walk_txns: 20_000,
    },
];

/// Commits of `fail-recover`'s down period: 50 000 at the benchmark's
/// 12 s, fewer for a shorter try-out.
pub fn down_txns(seconds: u64) -> u64 {
    (seconds * 4200).min(50_000)
}

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The system this workload launches. `dir` and `base_port` are
    /// deployment settings only the durable and TCP workloads use.
    pub fn sut(&self, dir: &std::path::Path, base_port: u16) -> SutSpec {
        let topology = match self.kind {
            Kind::Mem | Kind::FailRecover => Topology::Mem,
            Kind::Tcp => Topology::Tcp { base_port },
            Kind::Durable => Topology::Durable {
                dir: dir.to_path_buf(),
            },
            Kind::Sharded => Topology::Sharded { groups: 2 },
        };
        let fail_recover = self.kind == Kind::FailRecover;
        SutSpec {
            topology,
            db_size: DB_SIZE,
            n_sites: if self.kind == Kind::Sharded { 2 } else { 3 },
            max_inflight: 8,
            timing: if fail_recover {
                Timing::Detecting
            } else {
                Timing::FaultFree
            },
            // Threshold 0.2 is the repository's default; 256 items a
            // round keeps the sweep bounded by copier service.
            two_step: fail_recover.then_some((0.2, 256)),
        }
    }

    pub fn stream(&self, seed: u64) -> Stream {
        let groups = if self.kind == Kind::Sharded { 2 } else { 1 };
        Stream::new(self.mix, seed, groups, self.cross_share)
    }
}

/// SplitMix64: the benchmark's own draws (home group, cross-shard
/// choice), independent of the repository's generators.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The seeded transaction stream of one workload.
pub struct Stream {
    gen: Gen,
    rng: SplitMix64,
    groups: u8,
    /// Probability that a transaction of two or more operations gets one
    /// of them moved to the other group.
    cross_draw: f64,
}

impl Stream {
    fn new(mix: Mix, seed: u64, groups: u8, cross_share: f64) -> Stream {
        // A one-operation transaction cannot span groups; the draw is
        // over the (MAX_OPS - 1) / MAX_OPS that can, so that
        // `cross_share` of *all* transactions cross.
        let can_cross = (MAX_OPS - 1) as f64 / MAX_OPS as f64;
        Stream {
            gen: Gen::new(mix, seed, DB_SIZE, MAX_OPS),
            rng: SplitMix64::new(seed ^ 0x6d69_6e69_7261_6964),
            groups,
            cross_draw: cross_share / can_cross,
        }
    }

    /// The next transaction of the stream, stamped with `id`. Write data
    /// is the transaction id, so a copy whose `data == version` names its
    /// writer. On a sharded topology the generated (group-local) items
    /// are placed in a seeded home group, and with probability
    /// `cross_draw` one operation is moved to the other group.
    pub fn next_txn(&mut self, id: TxnId) -> Transaction {
        let mut txn = stamp(&self.gen.next_txn(id), id);
        if self.groups > 1 {
            let groups = self.groups as u32;
            // Three draws per transaction whatever its shape, so the
            // stream of one seed never depends on earlier outcomes.
            let home = (self.rng.next_u64() % groups as u64) as u32;
            let crosses = self.rng.next_f64() < self.cross_draw && txn.ops.len() >= 2;
            let moved = (self.rng.next_u64() % txn.ops.len() as u64) as usize;
            for (k, op) in txn.ops.iter_mut().enumerate() {
                let group = if crosses && k == moved {
                    (home + 1) % groups
                } else {
                    home
                };
                let global = ItemId(op.item().0 * groups + group);
                *op = match *op {
                    Operation::Read(_) => Operation::Read(global),
                    Operation::Write(_, v) => Operation::Write(global, v),
                };
            }
        }
        txn
    }
}

/// `txn` under a new id, every write carrying that id as its data (the
/// closed loop resubmits an aborted transaction under a fresh id).
pub fn stamp(txn: &Transaction, id: TxnId) -> Transaction {
    let ops = txn
        .ops
        .iter()
        .map(|op| match *op {
            Operation::Read(item) => Operation::Read(item),
            Operation::Write(item, _) => Operation::Write(item, id.0),
        })
        .collect();
    Transaction::new(id, ops)
}

/// Replication groups `txn` touches when items stripe over `groups`.
pub fn groups_touched(txn: &Transaction, groups: u8) -> usize {
    let mut seen = 0u64;
    for op in &txn.ops {
        seen |= 1 << (op.item().0 % groups as u32);
    }
    seen.count_ones() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_the_same_first_thousand_transactions() {
        for w in &WORKLOADS {
            let (mut a, mut b, mut c) = (w.stream(1988), w.stream(1988), w.stream(1989));
            let mut differs = false;
            for k in 1..=1000 {
                let ta = a.next_txn(TxnId(k));
                assert_eq!(ta, b.next_txn(TxnId(k)), "{} txn {k}", w.name);
                differs |= ta != c.next_txn(TxnId(k));
                assert!((1..=MAX_OPS as usize).contains(&ta.ops.len()));
                for op in &ta.ops {
                    if let Operation::Write(_, data) = op {
                        assert_eq!(*data, k, "write data is the transaction id");
                    }
                }
            }
            assert!(differs, "{}: another seed gives another stream", w.name);
        }
    }

    #[test]
    fn a_fifth_of_shard_cross_transactions_span_both_groups() {
        let w = by_name("shard-cross").unwrap();
        let mut s = w.stream(1988);
        let n = 100_000;
        let mut cross = 0;
        for k in 1..=n {
            let t = s.next_txn(TxnId(k));
            assert!(t.ops.iter().all(|op| op.item().0 < 2 * DB_SIZE));
            match groups_touched(&t, 2) {
                1 => {}
                2 => cross += 1,
                g => panic!("{g} groups"),
            }
        }
        let share = cross as f64 / n as f64;
        assert!((0.19..=0.21).contains(&share), "cross share {share}");
    }

    #[test]
    fn unsharded_streams_stay_in_one_group() {
        let mut s = by_name("mem-rw").unwrap().stream(7);
        for k in 1..=1000 {
            let t = s.next_txn(TxnId(k));
            assert!(t.ops.iter().all(|op| op.item().0 < DB_SIZE));
        }
    }
}
