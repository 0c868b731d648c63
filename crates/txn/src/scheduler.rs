//! Transaction schedulers over a single-site store.
//!
//! [`SerialScheduler`] reproduces the paper's assumption 2 ("transactions
//! were processed serially"); [`LockingScheduler`] interleaves operations
//! under strict 2PL with deadlock-victim aborts and retries, validating
//! that the lock manager provides conflict-serializable executions —
//! the integration path the paper names as future work.

use std::collections::{HashMap, VecDeque};

use miniraid_core::ids::TxnId;
use miniraid_core::ops::{Operation, Transaction};

use crate::history::HistoryOp;
use miniraid_core::locks::{LockManager, LockMode, LockResult};

/// Result of executing a batch of transactions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchResult {
    /// Final database image.
    pub db: Vec<u64>,
    /// Commit order.
    pub commit_order: Vec<TxnId>,
    /// Values observed by each transaction's reads, in op order.
    pub reads: HashMap<TxnId, Vec<u64>>,
    /// Deadlock-victim aborts that were retried.
    pub deadlock_aborts: u32,
    /// The executed operation history (committed transactions only), for
    /// serializability checking.
    pub history: Vec<HistoryOp>,
}

/// Execute transactions one at a time, in order.
pub struct SerialScheduler;

impl SerialScheduler {
    /// Run `txns` serially over a fresh database of `db_size` items.
    pub fn run(db_size: u32, txns: &[Transaction]) -> BatchResult {
        let mut db = vec![0u64; db_size as usize];
        let mut reads: HashMap<TxnId, Vec<u64>> = HashMap::new();
        let mut commit_order = Vec::new();
        let mut history = Vec::new();
        for txn in txns {
            let entry = reads.entry(txn.id).or_default();
            for op in &txn.ops {
                history.push(HistoryOp {
                    txn: txn.id,
                    item: op.item(),
                    is_write: op.is_write(),
                });
                match op {
                    Operation::Read(item) => entry.push(db[item.index()]),
                    Operation::Write(item, value) => db[item.index()] = *value,
                }
            }
            commit_order.push(txn.id);
        }
        BatchResult {
            db,
            commit_order,
            reads,
            deadlock_aborts: 0,
            history,
        }
    }
}

#[derive(Debug)]
struct Running {
    txn: Transaction,
    /// Next op index to execute.
    pc: usize,
    /// Writes staged until commit (strict 2PL still applies writes at
    /// operation time in many systems; we stage to give clean aborts).
    staged: Vec<(usize, u64)>,
    reads: Vec<u64>,
    /// Operations executed so far (discarded if the txn aborts/retries).
    ops_done: Vec<HistoryOp>,
}

/// Interleave transactions round-robin under strict two-phase locking.
pub struct LockingScheduler;

impl LockingScheduler {
    /// Run `txns` with an interleaving that advances each live
    /// transaction one operation per round. Deadlock victims abort,
    /// release, and retry from scratch.
    pub fn run(db_size: u32, txns: &[Transaction]) -> BatchResult {
        let mut db = vec![0u64; db_size as usize];
        let mut lm = LockManager::new();
        let mut live: VecDeque<Running> = txns
            .iter()
            .map(|t| Running {
                txn: t.clone(),
                pc: 0,
                staged: Vec::new(),
                reads: Vec::new(),
                ops_done: Vec::new(),
            })
            .collect();
        let mut blocked: HashMap<TxnId, Running> = HashMap::new();
        let mut result = BatchResult {
            db: Vec::new(),
            commit_order: Vec::new(),
            reads: HashMap::new(),
            deadlock_aborts: 0,
            history: Vec::new(),
        };

        while let Some(mut running) = live.pop_front() {
            // Advance this transaction until it blocks, aborts or commits.
            loop {
                if running.pc == running.txn.ops.len() {
                    // Commit: apply staged writes, release locks.
                    for (idx, value) in &running.staged {
                        db[*idx] = *value;
                    }
                    result.commit_order.push(running.txn.id);
                    result.reads.insert(running.txn.id, running.reads);
                    result.history.append(&mut running.ops_done);
                    for woken in lm.release_all(running.txn.id) {
                        if let Some(r) = blocked.remove(&woken) {
                            live.push_back(r);
                        }
                    }
                    break;
                }
                let op = running.txn.ops[running.pc];
                let (item, mode) = match op {
                    Operation::Read(item) => (item, LockMode::Shared),
                    Operation::Write(item, _) => (item, LockMode::Exclusive),
                };
                match lm.acquire(running.txn.id, item, mode) {
                    LockResult::Granted => {
                        running.ops_done.push(HistoryOp {
                            txn: running.txn.id,
                            item,
                            is_write: matches!(op, Operation::Write(..)),
                        });
                        match op {
                            Operation::Read(item) => {
                                // Read-your-writes over staged state.
                                let staged = running
                                    .staged
                                    .iter()
                                    .rev()
                                    .find(|(idx, _)| *idx == item.index())
                                    .map(|(_, v)| *v);
                                running.reads.push(staged.unwrap_or(db[item.index()]));
                            }
                            Operation::Write(item, value) => {
                                running.staged.push((item.index(), value));
                            }
                        }
                        running.pc += 1;
                    }
                    LockResult::Waiting => {
                        blocked.insert(running.txn.id, running);
                        break;
                    }
                    LockResult::Deadlock => {
                        // Victim: abort, release, retry from scratch.
                        result.deadlock_aborts += 1;
                        for woken in lm.release_all(running.txn.id) {
                            if let Some(r) = blocked.remove(&woken) {
                                live.push_back(r);
                            }
                        }
                        running.pc = 0;
                        running.staged.clear();
                        running.reads.clear();
                        running.ops_done.clear();
                        live.push_back(running);
                        break;
                    }
                }
            }
        }
        assert!(blocked.is_empty(), "no transaction left blocked");
        result.db = db;
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{UniformGen, WorkloadGen};
    use miniraid_core::ids::ItemId;

    fn txn(id: u64, ops: Vec<Operation>) -> Transaction {
        Transaction::new(TxnId(id), ops)
    }

    #[test]
    fn serial_scheduler_applies_in_order() {
        let txns = vec![
            txn(1, vec![Operation::Write(ItemId(0), 10)]),
            txn(
                2,
                vec![Operation::Read(ItemId(0)), Operation::Write(ItemId(0), 20)],
            ),
        ];
        let r = SerialScheduler::run(4, &txns);
        assert_eq!(r.db[0], 20);
        assert_eq!(r.reads[&TxnId(2)], vec![10]);
        assert_eq!(r.commit_order, vec![TxnId(1), TxnId(2)]);
    }

    #[test]
    fn locking_scheduler_is_equivalent_to_its_commit_order() {
        let mut gen = UniformGen::new(11, 16, 6);
        let txns: Vec<Transaction> = (1..=40).map(|i| gen.next_txn(TxnId(i))).collect();
        let locked = LockingScheduler::run(16, &txns);
        // Re-execute serially in the commit order the locking run chose:
        // the final database must match (conflict-serializability).
        let by_id: HashMap<TxnId, &Transaction> = txns.iter().map(|t| (t.id, t)).collect();
        let ordered: Vec<Transaction> = locked
            .commit_order
            .iter()
            .map(|id| (*by_id[id]).clone())
            .collect();
        let serial = SerialScheduler::run(16, &ordered);
        assert_eq!(locked.db, serial.db);
        // Reads must match too.
        for id in &locked.commit_order {
            assert_eq!(locked.reads[id], serial.reads[id], "reads of {id}");
        }
        assert_eq!(locked.commit_order.len(), 40);
    }

    #[test]
    fn deadlock_victims_retry_and_commit() {
        // Classic crossing pattern: T1 locks 0 then 1, T2 locks 1 then 0.
        let txns = vec![
            txn(
                1,
                vec![
                    Operation::Write(ItemId(0), 1),
                    Operation::Write(ItemId(1), 1),
                ],
            ),
            txn(
                2,
                vec![
                    Operation::Write(ItemId(1), 2),
                    Operation::Write(ItemId(0), 2),
                ],
            ),
        ];
        let r = LockingScheduler::run(2, &txns);
        assert_eq!(r.commit_order.len(), 2, "both eventually commit");
        // Final state is one of the two serial outcomes.
        assert!(r.db == vec![1, 1] || r.db == vec![2, 2]);
    }

    #[test]
    fn disjoint_transactions_all_commit_without_aborts() {
        let txns: Vec<Transaction> = (0..8)
            .map(|i| txn(i + 1, vec![Operation::Write(ItemId(i as u32), i + 1)]))
            .collect();
        let r = LockingScheduler::run(8, &txns);
        assert_eq!(r.deadlock_aborts, 0);
        assert_eq!(r.db, (1..=8).collect::<Vec<u64>>());
    }
}
