//! Seeded fault injection: a [`Transport`] decorator that drops,
//! duplicates, delays (and thereby reorders) frames from a deterministic
//! RNG, plus runtime one-way partitions via a [`FaultControl`] handle.
//!
//! Faults apply at *frame* granularity (a coalesced batch is one frame,
//! as on a real wire) and never touch management-plane traffic — the
//! managing site is the experiment harness, not part of the system under
//! test. Layer the reliable session layer (`crate::reliable`) *above*
//! this decorator so sequenced frames are the ones subjected to faults.

use std::collections::BinaryHeap;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use miniraid_core::ids::SiteId;
use miniraid_core::messages::{is_management, Message};

use crate::transport::{Transport, TransportStats};
use crate::NetError;

/// Per-link fault probabilities and the RNG seed that drives them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// RNG seed; the same plan over the same traffic injects the same
    /// faults.
    pub seed: u64,
    /// Probability a frame is silently dropped.
    pub drop: f64,
    /// Probability a frame is sent twice (the duplicate is also delayed,
    /// so it typically arrives out of order).
    pub duplicate: f64,
    /// Probability a frame is held back for a random interval (delivery
    /// then races later sends — this is the reordering mechanism).
    pub delay: f64,
    /// Upper bound on the random hold-back interval.
    pub max_delay: Duration,
}

impl FaultPlan {
    /// A plan that injects nothing (useful as a control).
    pub fn none(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop: 0.0,
            duplicate: 0.0,
            delay: 0.0,
            max_delay: Duration::ZERO,
        }
    }

    /// Site `site`'s own plan: the same probabilities, and a seed
    /// derived from this one (`seed + 0x9e3779b97f4a7c15 * (site + 1)`,
    /// wrapping), so every site of a cluster draws a distinct stream and
    /// a whole run replays from one number.
    pub fn for_site(self, site: u8) -> Self {
        FaultPlan {
            seed: self
                .seed
                .wrapping_add(0x9e3779b97f4a7c15u64.wrapping_mul(site as u64 + 1)),
            ..self
        }
    }

    /// Parse the `MINIRAID_FAULTS` env format
    /// `seed:drop:dup[:delay_p:delay_ms]`, e.g. `42:0.1:0.05:0.2:30`.
    /// Trailing fields default to zero.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut parts = spec.split(':');
        let mut field = |name: &str| -> Result<Option<f64>, String> {
            match parts.next() {
                None => Ok(None),
                Some(raw) => raw
                    .trim()
                    .parse::<f64>()
                    .map(Some)
                    .map_err(|_| format!("bad {name} in fault spec {spec:?}")),
            }
        };
        let seed = field("seed")?.ok_or_else(|| format!("empty fault spec {spec:?}"))? as u64;
        let drop = field("drop rate")?.unwrap_or(0.0);
        let duplicate = field("duplicate rate")?.unwrap_or(0.0);
        let delay = field("delay rate")?.unwrap_or(0.0);
        let delay_ms = field("delay ms")?.unwrap_or(0.0);
        for (name, p) in [("drop", drop), ("duplicate", duplicate), ("delay", delay)] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} rate {p} outside [0, 1]"));
            }
        }
        if field("extra")?.is_some() {
            return Err(format!("trailing fields in fault spec {spec:?}"));
        }
        Ok(FaultPlan {
            seed,
            drop,
            duplicate,
            delay,
            max_delay: Duration::from_millis(delay_ms.max(0.0) as u64),
        })
    }
}

/// Counts of faults actually injected (for logging and assertions).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Frames dropped.
    pub dropped: u64,
    /// Frames duplicated.
    pub duplicated: u64,
    /// Frames delayed.
    pub delayed: u64,
    /// Frames suppressed by an active one-way partition.
    pub partitioned: u64,
}

#[derive(Default)]
struct ControlState {
    /// Destinations this endpoint currently cannot reach (one-way: the
    /// reverse direction is governed by the peer's own control).
    blocked: HashSet<SiteId>,
}

/// Runtime switchboard for partitions, shared with a chaos driver.
#[derive(Clone, Default)]
pub struct FaultControl {
    state: Arc<Mutex<ControlState>>,
}

impl FaultControl {
    /// Cut the link *from* this endpoint *to* `site` (one-way).
    pub fn block_to(&self, site: SiteId) {
        self.state.lock().blocked.insert(site);
    }

    /// Restore the link to `site`.
    pub fn unblock_to(&self, site: SiteId) {
        self.state.lock().blocked.remove(&site);
    }

    /// Heal all partitions created through this control.
    pub fn unblock_all(&self) {
        self.state.lock().blocked.clear();
    }

    fn is_blocked(&self, site: SiteId) -> bool {
        self.state.lock().blocked.contains(&site)
    }
}

struct Held {
    due: Instant,
    seq: u64,
    to: SiteId,
    msgs: Vec<Message>,
}

impl PartialEq for Held {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl Eq for Held {}
impl PartialOrd for Held {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Held {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap by due time (BinaryHeap is a max-heap).
        other.due.cmp(&self.due).then(other.seq.cmp(&self.seq))
    }
}

#[derive(Default)]
struct HoldQueue {
    heap: BinaryHeap<Held>,
    next_seq: u64,
    shutdown: bool,
}

struct FaultState {
    rng: StdRng,
    counts: FaultCounts,
}

struct Shared {
    queue: Mutex<HoldQueue>,
    cv: Condvar,
}

/// The fault-injecting transport decorator. See the module docs.
pub struct FaultTransport<T: Transport + Sync> {
    inner: Arc<T>,
    plan: FaultPlan,
    state: Mutex<FaultState>,
    control: FaultControl,
    shared: Arc<Shared>,
    local: SiteId,
}

impl<T: Transport + Sync + 'static> FaultTransport<T> {
    /// Wrap `inner` under `plan`. The returned [`FaultControl`] clone
    /// flips partitions at runtime.
    pub fn new(inner: T, plan: FaultPlan) -> (Self, FaultControl) {
        let local = inner.local_id();
        let inner = Arc::new(inner);
        let shared = Arc::new(Shared {
            queue: Mutex::new(HoldQueue::default()),
            cv: Condvar::new(),
        });
        let control = FaultControl::default();
        let pump_shared = Arc::clone(&shared);
        let pump_inner = Arc::clone(&inner);
        std::thread::Builder::new()
            .name(format!("miniraid-fault-{}", local.0))
            .spawn(move || loop {
                let next: Held = {
                    let mut q = pump_shared.queue.lock();
                    loop {
                        if q.shutdown && q.heap.is_empty() {
                            return;
                        }
                        match q.heap.peek() {
                            Some(top) if top.due <= Instant::now() => {
                                break q.heap.pop().expect("peeked");
                            }
                            Some(top) => {
                                let due = top.due;
                                pump_shared.cv.wait_until(&mut q, due);
                            }
                            None => pump_shared.cv.wait(&mut q),
                        }
                    }
                };
                let _ = pump_inner.send_batch(next.to, &next.msgs);
            })
            .expect("spawn fault pump");
        let transport = FaultTransport {
            inner,
            plan,
            state: Mutex::new(FaultState {
                rng: StdRng::seed_from_u64(plan.seed),
                counts: FaultCounts::default(),
            }),
            control: control.clone(),
            shared,
            local,
        };
        (transport, control)
    }
}

impl<T: Transport + Sync> FaultTransport<T> {
    /// Faults injected so far.
    pub fn counts(&self) -> FaultCounts {
        self.state.lock().counts
    }

    fn hold(&self, to: SiteId, msgs: Vec<Message>, delay: Duration) {
        let mut q = self.shared.queue.lock();
        let seq = q.next_seq;
        q.next_seq += 1;
        q.heap.push(Held {
            due: Instant::now() + delay,
            seq,
            to,
            msgs,
        });
        self.shared.cv.notify_one();
    }

    fn send_frame(&self, to: SiteId, msgs: &[Message]) -> Result<(), NetError> {
        // Management traffic is the harness's out-of-band channel: it
        // bypasses every fault, as does a frame containing any of it
        // (the site loop never mixes planes in one batch).
        if msgs.iter().any(is_management) {
            return self.inner.send_batch(to, msgs);
        }
        if self.control.is_blocked(to) {
            self.state.lock().counts.partitioned += 1;
            return Ok(());
        }
        // All RNG rolls for one frame happen under a single lock so
        // concurrent senders cannot interleave draws mid-frame (keeps
        // single-threaded traffic fully deterministic for a given seed).
        let (dropped, duplicated, delay) = {
            let mut st = self.state.lock();
            let dropped = st.rng.random_bool(self.plan.drop);
            let duplicated = !dropped && st.rng.random_bool(self.plan.duplicate);
            let delayed = !dropped && st.rng.random_bool(self.plan.delay);
            let max_ms = self.plan.max_delay.as_millis() as u64;
            let delay = if (delayed || duplicated) && max_ms > 0 {
                Duration::from_millis(st.rng.random_range(1..=max_ms))
            } else {
                Duration::from_millis(1)
            };
            if dropped {
                st.counts.dropped += 1;
            }
            if duplicated {
                st.counts.duplicated += 1;
            }
            if delayed {
                st.counts.delayed += 1;
            }
            (
                dropped,
                duplicated,
                if delayed { Some(delay) } else { None },
            )
        };
        if dropped {
            return Ok(());
        }
        match delay {
            Some(d) => self.hold(to, msgs.to_vec(), d),
            None => self.inner.send_batch(to, msgs)?,
        }
        if duplicated {
            // The duplicate travels through the hold queue, so it lands
            // after (and raced against) subsequent sends.
            self.hold(to, msgs.to_vec(), Duration::from_millis(2));
        }
        Ok(())
    }
}

impl<T: Transport + Sync> Transport for FaultTransport<T> {
    fn send(&self, to: SiteId, msg: &Message) -> Result<(), NetError> {
        self.send_frame(to, std::slice::from_ref(msg))
    }

    fn send_batch(&self, to: SiteId, msgs: &[Message]) -> Result<(), NetError> {
        if msgs.is_empty() {
            return Ok(());
        }
        self.send_frame(to, msgs)
    }

    fn local_id(&self) -> SiteId {
        self.local
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }
}

impl<T: Transport + Sync> Drop for FaultTransport<T> {
    fn drop(&mut self) {
        self.shared.queue.lock().shutdown = true;
        self.shared.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::ChannelNetwork;
    use crate::transport::{Mailbox, RecvError};
    use miniraid_core::ids::TxnId;
    use miniraid_core::messages::Command;

    #[test]
    fn plan_parsing() {
        let plan = FaultPlan::parse("42:0.1:0.05:0.2:30").unwrap();
        assert_eq!(plan.seed, 42);
        assert!((plan.drop - 0.1).abs() < 1e-9);
        assert!((plan.duplicate - 0.05).abs() < 1e-9);
        assert!((plan.delay - 0.2).abs() < 1e-9);
        assert_eq!(plan.max_delay, Duration::from_millis(30));
        let short = FaultPlan::parse("7:0.5").unwrap();
        assert_eq!(short.seed, 7);
        assert_eq!(short.duplicate, 0.0);
        assert!(FaultPlan::parse("").is_err());
        assert!(FaultPlan::parse("1:2.0").is_err());
        assert!(FaultPlan::parse("1:0:0:0:0:9").is_err());
        assert!(FaultPlan::parse("x:0.1").is_err());
    }

    #[test]
    fn per_site_seeds_replay_recorded_runs() {
        // Recorded chaos seeds replay only while these stay put.
        let seeds = |seed| (0..5).map(move |i| FaultPlan::none(seed).for_site(i).seed);
        assert!(seeds(1).eq([
            11400714819323198486,
            4354685564936845355,
            15755400384260043840,
            8709371129873690709,
            1663341875487337578,
        ]));
        assert!(seeds(7).eq([
            11400714819323198492,
            4354685564936845361,
            15755400384260043846,
            8709371129873690715,
            1663341875487337584,
        ]));
        let plan = FaultPlan::parse("3:0.1:0.05:0.2:30").unwrap();
        assert_eq!(
            FaultPlan {
                seed: 3,
                ..plan.for_site(2)
            },
            plan
        );
    }

    #[test]
    fn drops_are_deterministic_for_a_seed() {
        let run = || {
            let mut endpoints = ChannelNetwork::new(2);
            let (_t1, m1) = endpoints.pop().unwrap();
            let (t0, _m0) = endpoints.pop().unwrap();
            let plan = FaultPlan {
                seed: 99,
                drop: 0.5,
                duplicate: 0.0,
                delay: 0.0,
                max_delay: Duration::ZERO,
            };
            let (faulty, _ctl) = FaultTransport::new(t0, plan);
            for i in 0..50u64 {
                faulty
                    .send(SiteId(1), &Message::Commit { txn: TxnId(i) })
                    .unwrap();
            }
            let mut got = Vec::new();
            while let Ok((_, msg)) = m1.recv_timeout(Duration::from_millis(50)) {
                got.push(msg);
            }
            (faulty.counts(), got)
        };
        let (c1, got1) = run();
        let (c2, got2) = run();
        assert_eq!(c1, c2);
        assert_eq!(got1, got2);
        assert!(c1.dropped > 0, "a 50% plan drops something in 50 frames");
        assert_eq!(got1.len() as u64 + c1.dropped, 50);
    }

    #[test]
    fn management_traffic_bypasses_faults() {
        let mut endpoints = ChannelNetwork::new(2);
        let (_t1, m1) = endpoints.pop().unwrap();
        let (t0, _m0) = endpoints.pop().unwrap();
        let plan = FaultPlan {
            seed: 1,
            drop: 1.0, // drop everything non-management
            duplicate: 0.0,
            delay: 0.0,
            max_delay: Duration::ZERO,
        };
        let (faulty, ctl) = FaultTransport::new(t0, plan);
        ctl.block_to(SiteId(1));
        faulty
            .send(SiteId(1), &Message::Mgmt(Command::Fail))
            .unwrap();
        let (_, msg) = m1.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(msg, Message::Mgmt(Command::Fail));
    }

    #[test]
    fn one_way_partition_blocks_until_healed() {
        let mut endpoints = ChannelNetwork::new(2);
        let (_t1, m1) = endpoints.pop().unwrap();
        let (t0, _m0) = endpoints.pop().unwrap();
        let (faulty, ctl) = FaultTransport::new(t0, FaultPlan::none(5));
        ctl.block_to(SiteId(1));
        faulty
            .send(SiteId(1), &Message::Commit { txn: TxnId(1) })
            .unwrap();
        assert_eq!(
            m1.recv_timeout(Duration::from_millis(30)),
            Err(RecvError::Timeout)
        );
        ctl.unblock_all();
        faulty
            .send(SiteId(1), &Message::Commit { txn: TxnId(2) })
            .unwrap();
        let (_, msg) = m1.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(msg, Message::Commit { txn: TxnId(2) });
        assert_eq!(faulty.counts().partitioned, 1);
    }

    #[test]
    fn duplicates_arrive_twice() {
        let mut endpoints = ChannelNetwork::new(2);
        let (_t1, m1) = endpoints.pop().unwrap();
        let (t0, _m0) = endpoints.pop().unwrap();
        let plan = FaultPlan {
            seed: 3,
            drop: 0.0,
            duplicate: 1.0,
            delay: 0.0,
            max_delay: Duration::ZERO,
        };
        let (faulty, _ctl) = FaultTransport::new(t0, plan);
        faulty
            .send(SiteId(1), &Message::Commit { txn: TxnId(9) })
            .unwrap();
        let mut got = 0;
        while m1.recv_timeout(Duration::from_millis(100)).is_ok() {
            got += 1;
        }
        assert_eq!(got, 2);
        assert_eq!(faulty.counts().duplicated, 1);
    }
}
