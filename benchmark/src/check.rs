//! The correctness check: after a workload quiesces, read every item at
//! every site and compare the copies with each other and with what the
//! generator was told.

use std::time::Duration;

use crate::load::Ledger;
use crate::sut::{ItemId, ItemValue, Operation, SiteId, Sut, SutSpec, Transaction};

/// Operations per checking (and loading) transaction.
const CHUNK: u32 = 1000;
const READ_PATIENCE: Duration = Duration::from_secs(20);

/// The keyspace in chunks of up to `CHUNK` global item names, each
/// inside one replication group: `(group, items)`.
pub fn group_chunks(spec: &SutSpec) -> Vec<(u8, Vec<ItemId>)> {
    let groups = spec.groups() as u32;
    let mut chunks = Vec::new();
    for group in 0..groups {
        for first in (0..spec.db_size).step_by(CHUNK as usize) {
            let last = (first + CHUNK).min(spec.db_size);
            let items = (first..last).map(|l| ItemId(l * groups + group)).collect();
            chunks.push((group as u8, items));
        }
    }
    chunks
}

/// Read-one serves a read from the coordinator's own copy, so a
/// transaction of reads routed to each site in turn returns that site's
/// copies. Fails unless, for every item: all copies agree; the copy's
/// `data` equals its `version` (write data is the writer's transaction
/// id); the version is not a transaction reported aborted; and it is no
/// older than the last acknowledged writer of the item. Returns the
/// number of copies read.
pub fn check(sut: &mut Sut, spec: &SutSpec, ledger: &Ledger) -> Result<u64, String> {
    let mut copies = 0u64;
    for (group, items) in group_chunks(spec) {
        let mut reference: Option<Vec<(ItemId, ItemValue)>> = None;
        for local in 0..spec.n_sites {
            let site = SiteId(group * spec.n_sites + local);
            let id = sut.next_txn_id();
            let txn = Transaction::new(id, items.iter().map(|i| Operation::Read(*i)).collect());
            let report = sut
                .run_at(site, txn, READ_PATIENCE)
                .ok_or_else(|| format!("{site}: no report for a checking read"))?;
            if !report.committed {
                return Err(format!("{site}: checking read aborted"));
            }
            let mut reads = report.reads;
            reads.sort_by_key(|(i, _)| *i);
            if reads.len() != items.len() {
                return Err(format!(
                    "{site}: {} of {} reads returned",
                    reads.len(),
                    items.len()
                ));
            }
            copies += reads.len() as u64;
            match &reference {
                None => {
                    for (item, v) in &reads {
                        verify_copy(*item, *v, ledger)?;
                    }
                    reference = Some(reads);
                }
                Some(reference) => {
                    if let Some(((item, a), (_, b))) =
                        reference.iter().zip(&reads).find(|(a, b)| a != b)
                    {
                        return Err(format!(
                            "{item}: {site} holds {b:?}, the group's first site {a:?}"
                        ));
                    }
                }
            }
        }
    }
    Ok(copies)
}

fn verify_copy(item: ItemId, v: ItemValue, ledger: &Ledger) -> Result<(), String> {
    if v.data != v.version {
        return Err(format!(
            "{item}: data {} under version {}",
            v.data, v.version
        ));
    }
    if ledger.aborted.contains(&v.version) {
        return Err(format!(
            "{item}: written by aborted transaction {}",
            v.version
        ));
    }
    let acked = ledger.acked[item.index()];
    if v.version < acked {
        return Err(format!(
            "{item}: version {} is older than acknowledged writer {acked}",
            v.version
        ));
    }
    if v.version != acked && ledger.unreported == 0 {
        return Err(format!(
            "{item}: version {} was never acknowledged (last acknowledged {acked})",
            v.version
        ));
    }
    Ok(())
}
