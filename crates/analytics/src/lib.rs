//! Streaming flow-event analytics for the NetSeer reproduction.
//!
//! The collector's event store answers *retrospective* queries; this
//! crate answers the paper's *operational* questions (§6) online, in
//! bounded memory, under the repo's ledger-invariant discipline:
//!
//! * **Where is the network hurting?** Tumbling + sliding time-window
//!   aggregates per (device, event type, drop reason) — [`window`].
//! * **Which flows are the victims?** A Space-Saving top-k sketch with
//!   provable error bounds — [`topk`].
//! * **Which link is eating packets?** A cross-device correlator joining
//!   upstream ring-buffer loss reports with downstream gap notifications
//!   — [`correlate`].
//! * **Did we break the SLA, and when?** Per-device breach windows —
//!   [`sla`].
//!
//! [`AnalyticsEngine`] composes these into a flow-hash-sharded pipeline
//! subscribed to the [`Collector`](netseer::recovery::Collector)'s
//! exactly-once delivery stream, with coordinated checkpoints so the
//! analytics state survives collector crashes. Every ingested event gets
//! exactly one disposition in [`AnalyticsLedger`], extending the
//! transport's delivery ledger to the end of the pipeline.

#![warn(missing_docs)]

pub mod correlate;
pub mod engine;
pub mod shard;
pub mod sla;
pub mod topk;
pub mod window;
pub mod wire;

pub use correlate::{Correlator, GapReport, LinkId, LinkMap, LinkVerdict};
pub use engine::{flow_shard_hash, AnalyticsConfig, AnalyticsEngine, UPSTREAM_STREAM_CAP};
pub use shard::{AnalyticsLedger, ShardWorker};
pub use sla::{BreachWindow, SlaEvaluator, SlaPolicy};
pub use topk::{SpaceSaving, TopKEntry};
pub use window::{AggKey, WindowAggregator, WindowStats};
pub use wire::{harvest_gap_reports, link_map_from_sim};
