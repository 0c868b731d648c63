//! # miniraid-cluster — the protocol on real threads and sockets
//!
//! The non-simulated deployment of the replication engine: each database
//! site is an OS thread running the same
//! [`miniraid_core::engine::SiteEngine`] the simulator drives, connected
//! by a real transport (in-process channels or TCP on localhost), with a
//! managing client playing the paper's managing site. This is "real
//! transaction processing on real sites with real message passing".

#![warn(missing_docs)]

pub mod chaos;
pub mod cluster;
pub mod control;
pub mod obs;
pub mod resharder;
pub mod shard_client;
pub mod shard_site;
pub mod site;

pub use chaos::{
    run_process_chaos, run_reshard_chaos, run_sharded_chaos, run_thread_chaos, ChaosOptions,
    ChaosOutcome, ProcChaosOptions, ReshardChaosOptions, ShardChaosOptions,
};
pub use cluster::{Cluster, ClusterBuilder, Launched, Mapped, Seat, Single, Topology, Tracing};
pub use control::{ControlError, ManagingClient};
pub use obs::SiteObs;
pub use resharder::{ReshardKillPoint, ReshardStats, Resharder};
pub use shard_client::{CoordKillPoint, ShardedClient, ShardedReport};
pub use shard_site::{ShardMailbox, ShardTransport};
pub use site::{ClusterTiming, SiteParts};
