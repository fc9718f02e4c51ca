//! **ELink** — the paper's distributed spatial δ-clustering algorithm
//! (§3–§6), implemented as message-passing protocols on the
//! [`elink_netsim`] discrete-event simulator.
//!
//! # Overview
//!
//! ELink partitions a sensor network into *δ-clusters*: connected subgraphs
//! whose members' pairwise feature distance is at most δ (Definition 1).
//! Finding the minimum-cardinality δ-clustering is NP-complete and
//! inapproximable (Theorem 1), so ELink is a scheduling heuristic: cluster
//! growth starts from *sentinel sets* — quadtree cell leaders, level by
//! level — each sentinel growing a cluster of nodes within δ/2 of its own
//! feature (triangle inequality then gives pairwise δ-compactness). Nodes
//! may switch clusters at most `c` times when the switch improves root
//! distance by at least φ.
//!
//! Two signalling disciplines order the levels:
//!
//! * [`run_implicit`] (§4) — synchronous networks; each sentinel at level l
//!   arms a timer `T = Σ_{j<l} t_j`, `t_l = κ(1 + 1/2 + … + 1/2^l)`,
//!   `κ = (1+γ)√(N/2)`.
//! * [`run_explicit`] (§5) — asynchronous networks; `ack1/ack2` completion
//!   waves inside cluster trees, then `phase 1`/`phase 2` sweeps up and down
//!   the quadtree, then `start` messages to the next level.
//!
//! Both run in `O(√N log N)` time and `O(N)` messages (Theorems 2 & 3);
//! the integration tests check these growth curves empirically.
//!
//! [`run_unordered`] implements the §5 ablation (all sentinels at once) that
//! the paper notes has "poor clustering quality due to excessive contention".
//!
//! [`maintenance`] implements the §6 slack-parameterized update protocol
//! (conditions A₁–A₃).

// Every public item must carry a doc comment (simlint pub-doc-coverage
// enforces the same invariant pre-rustdoc).
#![warn(missing_docs)]

pub mod clustering;
/// ELink protocol parameters (δ, switching budget, thresholds).
pub mod config;
/// Analytic §6 maintenance cost model (updates, slack rule).
pub mod maintenance;
/// Message-passing maintenance layer (updates, re-anchoring, failover).
pub mod maintenance_protocol;
/// Per-node neighbor/cluster bookkeeping tables.
pub mod node_table;
/// The ELink growth protocol (§4–§5): expand, merge, switch waves.
pub mod protocol;
/// Static quadtree leadership metadata shared by all nodes.
pub mod quadinfo;
/// One-call drivers that wire nodes, network and simulator together.
pub mod runner;

pub use clustering::{validate_delta_clustering, ClusterInfo, Clustering, ValidationError};
pub use config::ElinkConfig;
pub use maintenance::{MaintenanceSim, UpdateOutcome};
pub use maintenance_protocol::{maintenance_nodes, slack_conditions_hold, MaintMsg, MaintNode};
pub use node_table::{FlatMap, FlatSet, NodeHandle, NodeTable};
pub use protocol::{stray, ElinkMsg, ElinkNode, SignalMode};
pub use runner::{
    build_sim, run_explicit, run_implicit, run_unordered, run_with_link, run_with_options,
    ElinkOutcome, RunOptions,
};
