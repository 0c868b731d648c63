//! # miniraid-core — replicated copy control
//!
//! A faithful, production-quality implementation of the replicated copy
//! control protocol studied in:
//!
//! > B. Bhargava, P. Noll, D. Sabo. *An Experimental Analysis of
//! > Replicated Copy Control During Site Failure and Recovery.*
//! > Purdue CSD-TR-692 (1987) / ICDE 1988.
//!
//! The protocol keeps replicated copies consistent across site failures
//! and recoveries using four mechanisms:
//!
//! * **Session numbers** ([`ids::SessionNumber`]) identify each
//!   operational period of a site and detect status changes during a
//!   transaction's execution.
//! * **Nominal session vectors** ([`session::SessionVector`]) record each
//!   site's perceived session number and status of every other site; only
//!   sites shown operational participate in the protocol.
//! * **Fail-locks** ([`faillock::FailLockTable`]) mark copies that missed
//!   an update while their site was down, letting a recovering site
//!   distinguish up-to-date from out-of-date items and serve the former
//!   immediately.
//! * **Control transactions** ([`engine`]) propagate status changes:
//!   type 1 announces a recovery and transfers state to the recovering
//!   site, type 2 announces detected failures, and type 3 (proposed in
//!   the paper's §3.2, implemented here) creates backup copies in
//!   partially replicated databases.
//!
//! Transactions follow the **read-one/write-all-available** (ROWAA)
//! strategy with two-phase commit, exactly as in the paper's Appendix A;
//! a recovering site refreshes out-of-date copies with **copier
//! transactions**, on demand or — with
//! [`config::TwoStepRecovery`] — in proactive batches.
//!
//! The whole protocol lives in a sans-IO state machine,
//! [`engine::SiteEngine`]: drivers deliver [`engine::Input`]s and execute
//! [`engine::Output`]s. The `miniraid-sim` crate drives it under a
//! deterministic virtual clock (reproducing the paper's experiments);
//! `miniraid-cluster` drives it on real threads over real transports.
//!
//! ## Quick example
//!
//! ```
//! use miniraid_core::config::ProtocolConfig;
//! use miniraid_core::engine::{Input, Output, SiteEngine};
//! use miniraid_core::ids::{ItemId, SiteId, TxnId};
//! use miniraid_core::messages::Command;
//! use miniraid_core::ops::{Operation, Transaction};
//!
//! // A 1-site "cluster" commits locally without messages.
//! let config = ProtocolConfig { n_sites: 1, db_size: 8, ..Default::default() };
//! let mut site = SiteEngine::new(SiteId(0), config);
//! let txn = Transaction::new(TxnId(1), vec![Operation::Write(ItemId(3), 42)]);
//! let outputs = site.handle_owned(Input::Control(Command::Begin(txn)));
//! assert!(outputs.iter().any(|o| matches!(o, Output::Report(r) if r.outcome.is_committed())));
//! assert_eq!(site.db().get(3).unwrap().data, 42);
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod deadlock;
pub mod engine;
pub mod error;
pub mod faillock;
pub mod ids;
pub mod locks;
pub mod messages;
pub mod metrics;
pub mod ops;
pub mod packed;
pub mod partial;
pub mod session;
pub mod trace;

pub use config::ProtocolConfig;
pub use engine::SiteEngine;
pub use ids::{ItemId, SessionNumber, SiteId, TxnId};
pub use messages::{Command, Message, TxnOutcome, TxnReport};
pub use ops::{Operation, Transaction};

/// Re-export of the storage value type used across the protocol.
pub use miniraid_storage::ItemValue;
