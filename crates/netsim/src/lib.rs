//! Deterministic discrete-event simulator for in-network protocols.
//!
//! The paper evaluates ELink on sensor networks (Crossbow Mica2 motes); all
//! of its metrics — message counts and logical running time — are functions
//! of the communication graph, the protocol logic and the per-hop link
//! behaviour, so a discrete-event simulator is a faithful substitute for the
//! hardware (see DESIGN.md, substitutions).
//!
//! # Layering
//!
//! ```text
//!                Protocol impls (ElinkNode, MaintNode, SfNode, ...)
//!                      │  on_start / on_message / on_timer
//!                      ▼
//!  ┌──────────────────────────────────────────────────────────────────┐
//!  │ engine   event queue + run loop; Ctx handle (send, unicast,      │
//!  │          broadcast_neighbors, timers, neighbors &[u32],         │
//!  │          metrics/phase_enter/phase_exit)                        │
//!  └────┬──────────────┬────────────────┬───────────────┬────────────┘
//!       │ hop()/       │ record_tx/     │ every event   │ counters,
//!       │ is_alive()   │ record_rx      │               │ histograms,
//!       ▼              ▼                ▼               ▼ phase spans
//!  ┌──────────┐  ┌───────────┐   ┌─────────────┐  ┌─────────────┐
//!  │ link     │  │ stats     │   │ trace       │  │ metrics     │
//!  │ LossyLink│  │ CostBook  │   │ TraceSink   │  │ Metrics     │
//!  │ (delay,  │  │ ├ per-kind│   │ ├ RingBuffer│  │ ├ Histogram │
//!  │  loss,   │  │ │ (§8.2)  │   │ ├ Counting  │  │ └ PhaseStats│
//!  │  crash,  │  │ └ per-node│   │ └ Jsonl     │  │  (sim-time  │
//!  │  cut,    │  │   tx/rx/  │   │  (optional) │  │   only)     │
//!  │  capacity)  │   energy  │   └─────────────┘  └─────────────┘
//!  └──────────┘  └───────────┘
//! ```
//!
//! * [`engine`] owns the event queue and dispatch loop. Protocols implement
//!   [`Protocol`] and interact through [`Ctx`]. Every link-level
//!   transmission takes one per-hop step — fault roll, bill, price;
//!   multi-hop [`Ctx::unicast`] walks the shortest path hop by hop.
//! * [`link`] decides per-hop fate through one model, [`LossyLink`]:
//!   bounded uniform delay, drop probability, scheduled node
//!   crash/recover windows, partition masks and an optional capacity —
//!   all seeded and deterministic. §4's synchronous links are the
//!   [`SyncLink`] preset and §5's bounded uniform delays are
//!   `LossyLink::new(min, max)`; [`FairShareLink`] (capacity only) is the
//!   other preset. [`ScriptedLink`] replays model-checker schedules.
//! * [`flow`] prices transmissions on a link with a capacity: each
//!   directed link's capacity is shared max-min-fairly across in-flight
//!   transfers through a [`FlowTable`] of tentative-completion events —
//!   messages queue behind each other, [`Ctx::max_delivery_delay`]
//!   stretches with the backlog, and `net.queued_ms` /
//!   [`Simulator::link_utilization`] expose the congestion. See
//!   `docs/SUBSTRATE.md` for the substrate contract.
//! * [`stats`] is the unified accounting layer. [`CostBook`] records §8.2
//!   per-kind costs ("a message can transmit a single coefficient or a data
//!   value": `scalars × hops`, at least 1 per hop) plus per-node tx/rx
//!   tallies and an energy estimate. Analytic cost models (query planning,
//!   non-protocol baselines, §6 maintenance) record through the same API, so
//!   simulated and analytic bills merge and report identically.
//! * [`trace`] is an optional observer: a [`TraceSink`] receives every
//!   send/deliver/drop/timer event for tests ([`RingBufferTrace`]), cheap
//!   experiment instrumentation ([`CountingTrace`]), or offline analysis
//!   ([`JsonlTrace`] streams JSON Lines). Traces count per *logical
//!   message*; `CostBook` bills per *hop* — see the [`trace`] module docs
//!   for the contract.
//! * [`reliable`] holds the configuration and timing policy of the engine's
//!   optional ARQ sublayer ([`Simulator::enable_arq`]): per-link
//!   ack/retransmit/dedup that makes `send`/`unicast` survive lossy links
//!   without any protocol changes, billed first-class through [`CostBook`]
//!   (`net.retx`/`net.ack` kinds).
//! * [`metrics`] is the deterministic observability registry: named
//!   counters, gauges, [`Histogram`]s (e.g. `net.unicast_hops`) and
//!   [`PhaseStats`] simulated-time phase envelopes, fed by the engine and
//!   by protocols via [`Ctx::metrics`]/[`Ctx::phase_enter`]. Everything is
//!   `BTreeMap`-backed and free of wall-clock, so same-seed runs produce
//!   byte-identical registries.
//!
//! # Drop & crash semantics
//!
//! Transmissions are charged when the radio fires, not when the message
//! arrives: a hop the link drops, or a message that dies entering a crashed
//! relay, bills every hop it traversed and is never delivered. Nodes inside
//! a crash window receive nothing and their timers are lost (not deferred) —
//! protocol state freezes while down and resumes on recovery.

// Every public item must carry a doc comment (simlint pub-doc-coverage
// enforces the same invariant pre-rustdoc).
#![warn(missing_docs)]

pub mod canon;
/// Event queue, dispatch loop and the `Ctx` protocol handle.
pub mod engine;
/// Capacity pricing: fair-shared link capacity (`FlowTable`).
pub mod flow;
/// The link model (`LossyLink`), its presets, and the scripted replay link.
pub mod link;
/// Deterministic counters, gauges, histograms and phase spans.
pub mod metrics;
/// ARQ sublayer configuration and retransmission timing policy.
pub mod reliable;
/// Event schedulers: binary heap and calendar queue.
pub mod scheduler;
/// Unified cost accounting (`CostBook`): per-kind and per-node bills.
pub mod stats;
/// Optional event-stream observers (ring buffer, counting, JSONL).
pub mod trace;

pub use canon::{canon_f64, fnv1a, Canonicalize};
pub use engine::{
    Ctx, FlowsSnapshot, McEvent, Protocol, QueryId, SimNetwork, SimTime, Simulator, TimerToken,
};
pub use flow::{FlowTable, LinkUtil};
pub use link::{
    FairShareLink, FlowParams, HopOutcome, LinkModel, LossyLink, ScriptedLink, SyncLink,
};
pub use metrics::{Histogram, Metrics, PhaseGuard, PhaseStats};
pub use reliable::{ArqConfig, KIND_ACK, KIND_RETX};
pub use scheduler::{EventHandle, EventToken, Scheduler, SchedulerKind};
pub use stats::{
    qid_kind, CostBook, KindStats, MessageStats, NodeStats, QID_SUB_CONTROL, QID_SUB_PUSH,
    QID_SUB_REPAIR,
};
pub use trace::{CountingTrace, DropReason, JsonlTrace, RingBufferTrace, TraceEvent, TraceSink};
