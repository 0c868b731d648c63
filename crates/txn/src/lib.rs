//! # miniraid-txn — workloads and concurrency control
//!
//! The transaction-generation side of the paper's testbed, plus the
//! concurrency control the paper explicitly factored out but planned to
//! add ("we also plan to run this protocol in the complete RAID system
//! and take into account other factors such as concurrency control").
//!
//! * [`workload`] — the paper's generator (uniform items from a
//!   frequently-referenced hot set, equal read/write probability, random
//!   size 1..=max) plus a Zipf-skewed variant.
//! * [`et1`] — an ET1/DebitCredit-style generator (Anon et al., "A
//!   measure of transaction processing power", 1985), the benchmark the
//!   paper names as future work.
//! * [`wisconsin`] — a Wisconsin-benchmark-style generator (Bitton,
//!   DeWitt, Turbyfill 1983), the paper's other named future benchmark.
//! * [`scheduler`] — serial execution (the paper's assumption 2) and a
//!   2PL-interleaved scheduler for single-site validation of the lock
//!   manager, the strict two-phase-locking manager with wait-for-graph
//!   deadlock detection in `miniraid_core::locks` (where the pipelined
//!   site engine uses it).

#![warn(missing_docs)]

pub mod et1;
pub mod history;
pub mod scheduler;
pub mod wisconsin;
pub mod workload;

pub use et1::Et1Gen;
pub use wisconsin::WisconsinGen;
pub use workload::{UniformGen, WorkloadGen, ZipfGen};
