//! The closed-loop generator: one thread, one client endpoint, a fixed
//! number of logical clients that each submit their next transaction
//! when the previous one reports.

use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

use crate::sut::{Operation, Report, SiteId, Sut, Transaction, TxnId};
use crate::workload::{groups_touched, stamp, Stream};

/// A logical transaction is resubmitted under a fresh id this many times
/// before it counts as failed.
const MAX_ATTEMPTS: u32 = 5;
/// How long a quiesce waits for outstanding reports.
const QUIESCE_PATIENCE: Duration = Duration::from_secs(10);
/// A submission silent for this long is taken for lost and resubmitted:
/// a coordinator that a false failure detection made step down takes its
/// in-flight transactions with it, and they never report. Far above any
/// latency a run shows, the 500 ms failover gap included.
const REPORT_PATIENCE: Duration = Duration::from_secs(2);
/// Idle park between polls of the client endpoint. The endpoints offer
/// no blocking receive for "any report", so the generator polls: with
/// more than one logical client it parks this long when nothing moved,
/// leaving the cores to the sites; with one client it spins, so that the
/// latency it reads is the blocking path and not its own wake-up (a
/// `yield_now` poll spread `tcp-rw`'s unloaded p50 over 170-260 us, a
/// 20 us park over 440-610 us, spinning over 115-135 us).
const IDLE_PARK: Duration = Duration::from_micros(20);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    ReadOnly,
    Update,
}

/// One committed logical transaction.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Commit report time, ns since the driver's epoch.
    pub done_ns: u64,
    /// First submission to commit report, ns (retries included).
    pub latency_ns: u64,
    pub class: Class,
    /// Spanned every replication group of the topology.
    pub widest: bool,
}

/// What the correctness check needs to know about the run.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Highest acknowledged writer of each global item, by item id.
    pub acked: Vec<u64>,
    /// Transactions reported aborted.
    pub aborted: HashSet<u64>,
    /// Submitted and never reported.
    pub unreported: u64,
}

/// Counts since the driver started.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// Logical transactions started.
    pub attempted: u64,
    /// Logical transactions that never committed.
    pub failed: u64,
    /// Submissions (first tries and retries).
    pub submitted: u64,
    /// Submissions reported aborted or never reported.
    pub aborted: u64,
    /// Write operations of committed transactions.
    pub committed_writes: u64,
}

/// Time the generator thread spent inside the client calls (trace runs).
#[derive(Debug, Clone, Copy, Default)]
pub struct GenSpans {
    pub submit_ns: u64,
    pub submit_calls: u64,
    pub drain_ns: u64,
    pub drain_reports: u64,
    pub parked_ns: u64,
}

struct Slot {
    txn: Transaction,
    first_submit: Instant,
    /// When and where this attempt was submitted.
    submitted: Instant,
    site: SiteId,
    attempts: u32,
}

pub struct Driver<'a> {
    pub sut: &'a mut Sut,
    stream: &'a mut Stream,
    groups: u8,
    epoch: Instant,
    /// Physical sites the generator believes up (it commanded the rest down).
    pub up: Vec<bool>,
    next_site: usize,
    slots: HashMap<TxnId, Slot>,
    /// Logical clients allowed in flight.
    clients: usize,
    /// When silent submissions were last looked for.
    expiry_checked: Instant,
    scratch: Vec<Report>,
    pub samples: Vec<Sample>,
    pub counts: Counts,
    pub ledger: Ledger,
    /// Spans around the client calls; `None` in untraced runs.
    pub spans: Option<GenSpans>,
}

impl<'a> Driver<'a> {
    pub fn new(
        sut: &'a mut Sut,
        stream: &'a mut Stream,
        groups: u8,
        sites: u8,
        ledger: Ledger,
        traced: bool,
    ) -> Driver<'a> {
        Driver {
            sut,
            stream,
            groups,
            epoch: Instant::now(),
            up: vec![true; sites as usize],
            next_site: 0,
            slots: HashMap::new(),
            clients: 0,
            expiry_checked: Instant::now(),
            scratch: Vec::new(),
            samples: Vec::new(),
            counts: Counts::default(),
            ledger,
            spans: traced.then(GenSpans::default),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start a window with `clients` logical clients: samples and the
    /// generator's spans restart; counts, the ledger and in-flight
    /// transactions carry over.
    pub fn begin(&mut self, clients: usize) {
        self.clients = clients;
        self.samples.clear();
        if let Some(s) = &mut self.spans {
            *s = GenSpans::default();
        }
    }

    /// Change the number of logical clients without restarting the window.
    pub fn set_clients(&mut self, clients: usize) {
        self.clients = clients;
    }

    /// Round-robin over the sites believed up.
    fn pick_site(&mut self) -> SiteId {
        for _ in 0..self.up.len() {
            let s = self.next_site;
            self.next_site = (s + 1) % self.up.len();
            if self.up[s] {
                return SiteId(s as u8);
            }
        }
        panic!("every site is down");
    }

    /// Submit at the next site in turn; a retry avoids the site that
    /// aborted or lost the previous attempt.
    fn submit(
        &mut self,
        txn: Transaction,
        first_submit: Instant,
        attempts: u32,
        avoid: Option<SiteId>,
    ) {
        let mut site = self.pick_site();
        if Some(site) == avoid {
            site = self.pick_site();
        }
        self.counts.submitted += 1;
        let id = txn.id;
        let t0 = self.spans.is_some().then(Instant::now);
        self.sut.submit(site, txn.clone());
        if let (Some(t0), Some(s)) = (t0, &mut self.spans) {
            s.submit_ns += t0.elapsed().as_nanos() as u64;
            s.submit_calls += 1;
        }
        self.slots.insert(
            id,
            Slot {
                txn,
                first_submit,
                submitted: Instant::now(),
                site,
                attempts,
            },
        );
    }

    /// Take whatever has reported; returns how many reports arrived.
    /// Committed transactions become samples, aborted ones are
    /// resubmitted under a fresh id.
    fn collect(&mut self) -> usize {
        let mut reports = std::mem::take(&mut self.scratch);
        reports.clear();
        let t0 = self.spans.is_some().then(Instant::now);
        self.sut.drain(&mut reports);
        if let (Some(t0), Some(s)) = (t0, &mut self.spans) {
            s.drain_ns += t0.elapsed().as_nanos() as u64;
            s.drain_reports += reports.len() as u64;
        }
        let n = reports.len();
        let now = Instant::now();
        for report in reports.drain(..) {
            // An unknown id is a report the quiesce gave up on.
            let Some(slot) = self.slots.remove(&report.txn) else {
                continue;
            };
            match report.committed {
                true => {
                    let mut class = Class::ReadOnly;
                    for op in &slot.txn.ops {
                        if let Operation::Write(item, _) = op {
                            class = Class::Update;
                            self.counts.committed_writes += 1;
                            let e = &mut self.ledger.acked[item.index()];
                            *e = (*e).max(report.txn.0);
                        }
                    }
                    self.samples.push(Sample {
                        done_ns: now.duration_since(self.epoch).as_nanos() as u64,
                        latency_ns: now.duration_since(slot.first_submit).as_nanos() as u64,
                        class,
                        widest: groups_touched(&slot.txn, self.groups) == self.groups as usize,
                    });
                }
                false => {
                    self.ledger.aborted.insert(report.txn.0);
                    self.retry(slot);
                }
            }
        }
        self.scratch = reports;
        n
    }

    /// An aborted or lost submission: try again under a fresh id.
    fn retry(&mut self, slot: Slot) {
        self.counts.aborted += 1;
        if slot.attempts < MAX_ATTEMPTS {
            let id = self.sut.next_txn_id();
            let again = stamp(&slot.txn, id);
            self.submit(again, slot.first_submit, slot.attempts + 1, Some(slot.site));
        } else {
            self.counts.failed += 1;
        }
    }

    /// Give up on submissions silent for `REPORT_PATIENCE` and resubmit
    /// them (looked for at most every 50 ms).
    fn expire_silent(&mut self) {
        let now = Instant::now();
        if now.duration_since(self.expiry_checked) < Duration::from_millis(50) {
            return;
        }
        self.expiry_checked = now;
        let silent: Vec<TxnId> = self
            .slots
            .iter()
            .filter(|(_, s)| now.duration_since(s.submitted) > REPORT_PATIENCE)
            .map(|(id, _)| *id)
            .collect();
        for id in silent {
            let slot = self.slots.remove(&id).expect("listed above");
            self.ledger.unreported += 1;
            self.retry(slot);
        }
    }

    /// One turn of the loop: collect reports, then let every idle
    /// logical client submit its next transaction. Parks briefly when
    /// nothing moved.
    pub fn step(&mut self) {
        let reported = self.collect();
        let mut submitted = 0;
        while self.slots.len() < self.clients {
            let id = self.sut.next_txn_id();
            let txn = self.stream.next_txn(id);
            self.counts.attempted += 1;
            self.submit(txn, Instant::now(), 1, None);
            submitted += 1;
        }
        if reported == 0 && submitted == 0 {
            self.expire_silent();
            self.park();
        }
    }

    fn park(&mut self) {
        let t0 = self.spans.is_some().then(Instant::now);
        if self.clients == 1 {
            std::hint::spin_loop();
        } else {
            std::thread::sleep(IDLE_PARK);
        }
        if let (Some(t0), Some(s)) = (t0, &mut self.spans) {
            s.parked_ns += t0.elapsed().as_nanos() as u64;
        }
    }

    /// Run the loop for `duration`; returns the window `(from, to)` in ns
    /// since the driver's epoch.
    pub fn run_for(&mut self, duration: Duration) -> (u64, u64) {
        let from = self.now_ns();
        let until = Instant::now() + duration;
        while Instant::now() < until {
            self.step();
        }
        (from, self.now_ns())
    }

    /// Stop submitting new logical transactions and wait until every
    /// one in flight has reported (retries of aborted ones included).
    /// Whatever is still silent after the patience counts as failed.
    pub fn quiesce(&mut self) {
        self.clients = 0;
        let until = Instant::now() + QUIESCE_PATIENCE;
        while !self.slots.is_empty() && Instant::now() < until {
            if self.collect() == 0 {
                self.expire_silent();
                self.park();
            }
        }
        let silent = self.slots.len() as u64;
        self.slots.clear();
        self.ledger.unreported += silent;
        self.counts.aborted += silent;
        self.counts.failed += silent;
    }
}

/// Latencies of the samples inside `[from, to]` that `keep` selects,
/// sorted, in ns.
pub fn latencies(
    samples: &[Sample],
    from: u64,
    to: u64,
    keep: impl Fn(&Sample) -> bool,
) -> Vec<u64> {
    let mut v: Vec<u64> = samples
        .iter()
        .filter(|s| (from..=to).contains(&s.done_ns) && keep(s))
        .map(|s| s.latency_ns)
        .collect();
    v.sort_unstable();
    v
}
