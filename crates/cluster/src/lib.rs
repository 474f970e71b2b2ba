//! `asdr_cluster` — sharded serving over the
//! [`RenderService`](asdr_serve::RenderService) (ROADMAP "serving
//! scale-out": the step from one warm process to a fleet).
//!
//! One process, one scheduler, one worker pool is not "heavy traffic from
//! millions of users". This crate adds the cluster layer:
//!
//! * [`router::Fleet`] — one router over any set of [`Shard`]s:
//!   consistent-hashes requests by scene name (64 virtual nodes per
//!   shard), admits by predicted cost with spill-over to the least-loaded
//!   shard, and owns health eviction, hedging, failover, re-warm, and the
//!   autoscaler. [`LocalFleet`] routes over in-process [`LocalShard`]s,
//!   [`RemoteFleet`] over `asdr-shardd` processes ([`RemoteShard`]).
//!   Shards run separate [`ModelStore`](asdr_serve::ModelStore)s over one
//!   checkpoint directory, so the store's cross-process lock-file
//!   single-flight keeps fits deduplicated cluster-wide — and images stay
//!   byte-identical to a single service.
//! * [`cost::CostModel`] — learns per-(scene, resolution) render cost
//!   online from completed request latencies (seeded from probe-point
//!   counts); the router's admission budget is in its predicted
//!   milliseconds, and `ClusterStats` reports predicted-vs-actual error.
//! * [`autoscale`] — a controller that grows/shrinks each shard's worker
//!   pool between configured bounds from its rolling deadline-miss rate
//!   and predicted backlog, with watermark-gap + cooldown hysteresis.
//! * [`stats::ClusterStats`] — per-shard throughput and latency
//!   percentiles, miss rate, scaling events, failure counters, and
//!   fit-dedup counters, with the JSON artifact the `asdr-cluster` binary
//!   emits.
//!
//! ```no_run
//! use asdr_cluster::{AutoscalerConfig, FleetConfig, LocalFleet};
//! use asdr_scenes::registry;
//! use asdr_serve::{ModelStore, RenderProfile, RenderRequest, RenderService};
//! use std::sync::Arc;
//!
//! // three shards, each with its own store over one checkpoint directory
//! let shard = || {
//!     let store = ModelStore::builder().dir("/tmp/asdr-ckpts").build();
//!     RenderService::builder(RenderProfile::tiny()).store(Arc::new(store))
//! };
//! let autoscale = Some(AutoscalerConfig::default());
//! let cluster = LocalFleet::local(3, shard, FleetConfig { autoscale, ..FleetConfig::local() })
//!     .unwrap();
//! let ticket = cluster.submit(RenderRequest::frame(registry::handle("Mic"), 48)).unwrap();
//! let result = ticket.wait().expect("request completed");
//! println!("shard {} rendered {} in {} us", ticket.shard(), result.scene, result.latency_us);
//! println!("{}", cluster.shutdown().to_json());
//! ```

#![warn(missing_docs)]

pub mod autoscale;
pub mod cost;
pub mod local;
pub mod net;
pub mod remote;
pub mod router;
pub mod stats;
pub mod wire;

pub use autoscale::{AutoscalerConfig, ScaleEvent, ScaleReason, ShardController};
pub use cost::{CostModel, CostStats};
pub use local::{LocalFleet, LocalShard, LocalTicket};
pub use net::{Listener, ShardAddr, Stream};
pub use remote::{RemoteFleet, RemoteShard, RemoteTicket};
pub use router::{
    Done, Fleet, FleetConfig, FleetError, FleetTicket, HashRing, Shard, ShardError, ShardTicket,
};
pub use stats::{ClusterStats, FleetStats, ShardStats};
