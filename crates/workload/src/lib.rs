//! Concurrent query serving over the ELink clustering (the workload layer).
//!
//! The preceding crates build and maintain the distributed clustering
//! (`elink-core`) and answer one query at a time (`elink-query`). This
//! crate turns that into a *serving system*:
//!
//! - [`gen`] — deterministic workload generation: seeded open/closed-loop
//!   arrival processes over a zipf-skewed mixed range/path template table,
//!   plus a background feature-update stream.
//! - [`plan`] — the per-node serving plan (cluster trees, M-tree child
//!   entries, backbone adjacency) distributed at deployment time.
//! - [`protocol`] — the serving protocol: query multiplexing with
//!   per-query cost attribution, single-flight M-tree descents shared by
//!   co-located queries (in-network batching), per-template result caches
//!   at routing nodes invalidated by §6 slack-exceeding updates.
//! - [`engine`] — the harness: builds the deployment and drives the fleet
//!   concurrently (benchmark) or sequentially (correctness oracle).
//! - [`report`] — the `elink-workload/v2` SLO document.
//!
//! See DESIGN.md §9 for the arrival models, the batching rule, and the
//! cache-invalidation correctness argument.

#![warn(missing_docs)]

pub mod chaos;
/// Deployment + concurrent serving driver (`WorkloadSim`).
pub mod engine;
/// Seeded workload generation: templates, arrivals, updates.
pub mod gen;
/// Per-node serving plans distributed at deployment.
pub mod plan;
/// The serving protocol: descents, replies, caching, recovery.
pub mod protocol;
/// Serving QoS policy: admission ladder, eviction, adaptive windows.
pub mod qos;
/// SLO folding: latency percentiles and the `elink-workload/v2` document.
pub mod report;
/// Standing-query subscription state machines (client/coordinator/watcher).
pub mod subscribe;

pub use chaos::{
    default_grid, default_sub_grid, run_campaign, run_cell, run_sub_cell, ChaosCell, ChaosReport,
    FaultSpec, SubChaosCell, SubFaultSpec, CHAOS_SCHEMA,
};
pub use engine::{expected_matches, ServeOptions, WorkloadRun, WorkloadSim};
pub use gen::{build_schedule, Arrival, Schedule, Template, WorkloadSpec};
pub use plan::{ChildEntry, DeadlinePlan, NodePlan, ServingPlan};
pub use protocol::{CompletedQuery, ServeMsg, ServeNode, Shared};
pub use qos::{AdaptiveWindow, Admission};
pub use report::{percentile, LatencySummary, SloReport, SCHEMA};
pub use subscribe::{ClientSub, PushVerdict, SubState};
