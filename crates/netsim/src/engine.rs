//! The discrete-event engine: event queue, run loop, and the [`Ctx`] handle
//! protocols use to interact with the network.
//!
//! The engine is link-model agnostic: every link-level transmission takes
//! one per-hop step through the [`LinkModel`] in force — fault roll, bill,
//! price (the drawn delay, or a flow when the link has a capacity) — and
//! the link also decides node liveness. Dropped messages are charged for
//! the hops they traversed but never delivered; messages and timers
//! addressed to a crashed node are silently lost (the node's protocol
//! state freezes while it is down and resumes on recovery). A timer scheduled *before* an outage is
//! cleared even when the node is back up at the firing time — reboots lose
//! volatile state (see [`LinkModel::crashed_in_window`]).
//!
//! With [`Simulator::enable_arq`] the engine additionally runs the
//! [`reliable`](crate::reliable) ARQ sublayer underneath every
//! `send`/`unicast`: each link transmission is acknowledged, retransmitted
//! on seeded exponential-backoff timeouts, deduplicated at the receiver by
//! `(src, seq)`, and abandoned after a bounded retry budget. Protocols are
//! oblivious — the same protocol code runs reliably or unreliably depending
//! only on the simulator configuration.

use crate::flow::{FlowFired, FlowResched, FlowStarted, FlowTable, LinkUtil};
use crate::link::{HopOutcome, LinkModel};
use crate::metrics::Metrics;
use crate::reliable::{self, ArqConfig, KIND_ACK, KIND_RETX};
use crate::scheduler::{EventToken, PoppedEvent, Scheduler, SchedulerKind};
use crate::stats::{CostBook, MessageStats};
use crate::trace::{DropReason, TraceEvent, TraceSink};
use elink_topology::{RoutingTable, Topology};
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};

/// Simulated time in ticks. In synchronous mode one hop = one tick, matching
/// the paper's "worst-case delay over a hop is a single time unit" (§4).
pub type SimTime = u64;

/// Identifier of an in-flight query in a serving workload. Tagged sends
/// ([`Ctx::send_tagged`], [`Ctx::unicast_tagged`]) stamp this id on trace
/// events and attribute the transmission to the query's ledger in
/// [`CostBook`], threading query attribution through timer-callback sends
/// that plain `kind` strings cannot distinguish.
pub type QueryId = u64;

/// A per-node protocol state machine.
///
/// The simulator owns one instance per node. All communication and timer
/// manipulation goes through the [`Ctx`] handle; the engine guarantees
/// deterministic delivery order for a given seed.
pub trait Protocol {
    /// The protocol's message type.
    type Msg: Clone;

    /// Invoked once at time 0 for every node.
    fn on_start(&mut self, _ctx: &mut Ctx<'_, Self::Msg>) {}

    /// Invoked when a message addressed to this node arrives.
    fn on_message(&mut self, from: usize, msg: Self::Msg, ctx: &mut Ctx<'_, Self::Msg>);

    /// Invoked when a timer set via [`Ctx::set_timer`] fires.
    fn on_timer(&mut self, _timer: u64, _ctx: &mut Ctx<'_, Self::Msg>) {}
}

/// A topology plus its (expensive, shareable) routing table.
///
/// Build once per topology and share across simulator runs with `clone()`
/// (both members are `Arc`s). The routing table — `O(n²)` storage, one BFS
/// per node to build — is constructed lazily on first use: protocols that
/// only ever `send`/`broadcast_neighbors` (e.g. implicit-mode ELink, the
/// regime of the 64k-node scaling bench) never pay for it.
#[derive(Clone)]
pub struct SimNetwork {
    topology: Arc<Topology>,
    routing: Arc<OnceLock<RoutingTable>>,
}

impl SimNetwork {
    /// Builds the network support structures for a topology.
    pub fn new(topology: Topology) -> Self {
        SimNetwork {
            topology: Arc::new(topology),
            routing: Arc::new(OnceLock::new()),
        }
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The shared topology handle (cheap to clone).
    pub fn topology_arc(&self) -> &Arc<Topology> {
        &self.topology
    }

    /// The routing table, built on first call and shared across clones.
    pub fn routing(&self) -> &RoutingTable {
        self.routing
            .get_or_init(|| RoutingTable::build(self.topology.graph()))
    }

    /// Whether the routing table has been materialized — the 64k scaling
    /// bench asserts it stays `false` on broadcast-only runs.
    pub fn routing_built(&self) -> bool {
        self.routing.get().is_some()
    }
}

#[derive(Clone)]
enum EventKind<M> {
    Start,
    Deliver {
        from: usize,
        msg: M,
        query: Option<QueryId>,
    },
    Timer {
        id: u64,
        /// When the timer was armed; a crash window opening after this and
        /// on or before the firing time clears the timer.
        scheduled: SimTime,
    },
    /// ARQ data copy arriving at `node` over one link (engine-internal).
    ArqData {
        seq: u64,
        /// Logical origin — what the protocol sees as `from`.
        src: usize,
        /// The radio that transmitted this copy (link-level sender).
        link_from: usize,
        /// Final destination of the logical message.
        dst: usize,
        msg: M,
        kind: &'static str,
        scalars: u64,
        query: Option<QueryId>,
        /// The sender's slab slot for this transfer, echoed back in the
        /// ack so the sender can clear it without a map lookup.
        xfer: u32,
    },
    /// ARQ link-level acknowledgment arriving back at a link sender.
    ArqAck {
        seq: u64,
        /// Slab slot of the transfer being acknowledged (validated against
        /// `(seq, holder)` — slots are recycled, stale acks are ignored).
        xfer: u32,
    },
    /// ARQ retransmission timeout at a link sender.
    ArqRetx {
        seq: u64,
        xfer: u32,
        scheduled: SimTime,
    },
    /// Tentative completion of flow slot `flow` at generation `gen` under a
    /// flow-model link (engine-internal). Fires at the completion tick
    /// predicted when it was scheduled. When a later link transition moves
    /// the prediction, the engine cancels this event in the scheduler and
    /// queues the new one, so only current predictions ever fire. In
    /// capture mode nothing is cancelled: the model checker may dispatch a
    /// superseded event, whose generation mismatch marks it stale and
    /// ignored.
    FlowDone {
        flow: u32,
        gen: u32,
    },
}

/// A multi-hop unicast message in flight, as the forward walk carries it
/// from relay to relay.
#[derive(Clone)]
struct Relay<M> {
    src: usize,
    dst: usize,
    msg: M,
    kind: &'static str,
    scalars: u64,
    query: Option<QueryId>,
}

/// What one link-level transmission carries to its receiver, and what is
/// stored with each in-flight flow under capacity pricing. Clonable (for
/// `M: Clone`) so the model checker can snapshot in-flight flows.
#[derive(Clone)]
enum FlowJob<M> {
    /// An event to dispatch at the receiver: a single-hop delivery or an
    /// ARQ data/ack copy.
    Event(EventKind<M>),
    /// One leg of a multi-hop unicast: deliver at `dst`, otherwise bill the
    /// relay and forward the next leg.
    Relay(Relay<M>),
}

/// Fate of one link-level transmission (see [`Core::transmit`]).
enum Hop {
    /// The fault roll dropped it (counted in `net.drops.loss`).
    Lost,
    /// Fixed pricing: the transmission arrives at this tick.
    Arrives(SimTime),
    /// Capacity pricing: the job waits in the flow table, predicted to
    /// finish at this tick.
    Queued(SimTime),
}

/// A captured engine event: what the engine *would* have enqueued, handed
/// to an external driver (the `elink-mc` model checker) instead. Opaque —
/// the payload stays engine-internal so the checker cannot construct
/// deliveries the engine itself could not produce; the only way to mint one
/// from outside is [`McEvent::external`], which mirrors
/// [`Simulator::inject`].
///
/// `time` is the *earliest* tick the event can fire (the engine's own
/// scheduling time under the capture link); a checker may dispatch a
/// message event later, within its delivery window.
pub struct McEvent<M> {
    time: SimTime,
    node: usize,
    kind: EventKind<M>,
}

impl<M: Clone> Clone for McEvent<M> {
    fn clone(&self) -> Self {
        McEvent {
            time: self.time,
            node: self.node,
            kind: self.kind.clone(),
        }
    }
}

impl<M> McEvent<M> {
    /// Earliest tick this event can fire.
    pub fn time(&self) -> SimTime {
        self.time
    }

    /// The node the event is addressed to.
    pub fn node(&self) -> usize {
        self.node
    }

    /// Whether this is a message-class event (a logical delivery or an ARQ
    /// data/ack copy) — the class with a flexible delivery window that a
    /// checker may reorder, drop or duplicate.
    pub fn is_message(&self) -> bool {
        matches!(
            self.kind,
            EventKind::Deliver { .. } | EventKind::ArqData { .. } | EventKind::ArqAck { .. }
        )
    }

    /// Whether this is a timer-class event (protocol timer or ARQ
    /// retransmission timeout) — fires at exactly [`McEvent::time`], never
    /// reordered against other timers and never dropped by the fault layer.
    pub fn is_timer(&self) -> bool {
        matches!(
            self.kind,
            EventKind::Timer { .. } | EventKind::ArqRetx { .. }
        )
    }

    /// Whether this is a flow-class event (the tentative completion of an
    /// in-flight transfer under a flow-model link). Flow events fire at
    /// exactly [`McEvent::time`] — the completion tick the flow table
    /// predicted — and are never dropped, duplicated or reordered by the
    /// fault layer: the contention schedule is physics, not an adversary.
    pub fn is_flow(&self) -> bool {
        matches!(self.kind, EventKind::FlowDone { .. })
    }

    /// Logical origin of a message-class event (`None` for timers/boot).
    pub fn origin(&self) -> Option<usize> {
        match &self.kind {
            EventKind::Deliver { from, .. } => Some(*from),
            EventKind::ArqData { src, .. } => Some(*src),
            _ => None,
        }
    }

    /// The message payload, for deliveries (`None` for timers/boot/ARQ
    /// bookkeeping). Replay harnesses clone this to re-inject duplicates.
    pub fn message(&self) -> Option<&M> {
        match &self.kind {
            EventKind::Deliver { msg, .. } => Some(msg),
            _ => None,
        }
    }

    /// Builds an external-injection event: delivery of `msg` to `node` at
    /// `time` from a fictitious source (`from = node`), exactly what
    /// [`Simulator::inject`] enqueues. The one constructor available outside
    /// the engine.
    pub fn external(time: SimTime, node: usize, msg: M) -> Self {
        McEvent {
            time,
            node,
            kind: EventKind::Deliver {
                from: node,
                msg,
                query: None,
            },
        }
    }
}

impl<M: std::fmt::Debug> McEvent<M> {
    /// Canonical description of the event with times expressed relative to
    /// `origin_time`, for state fingerprinting: two pending sets that differ
    /// only by a uniform time shift describe identically. Excludes
    /// scheduling-order identifiers and the `Timer::scheduled` arm time
    /// (both invisible to future protocol behaviour under a crash-free
    /// capture link).
    pub fn describe(&self, origin_time: SimTime) -> String {
        let rel = self.time as i128 - origin_time as i128;
        match &self.kind {
            EventKind::Start => format!("start n{}", self.node),
            EventKind::Deliver { from, msg, query } => format!(
                "deliver n{} t{rel} from{} q{:?} {:?}",
                self.node, from, query, msg
            ),
            EventKind::Timer { id, .. } => format!("timer n{} t{rel} id{id}", self.node),
            EventKind::ArqData {
                seq,
                src,
                link_from,
                dst,
                msg,
                kind,
                scalars,
                query,
                ..
            } => format!(
                "arqdata n{} t{rel} seq{seq} src{src} lf{link_from} dst{dst} k{kind} s{scalars} q{query:?} {msg:?}",
                self.node
            ),
            EventKind::ArqAck { seq, .. } => format!("arqack n{} t{rel} seq{seq}", self.node),
            EventKind::ArqRetx { seq, .. } => format!("arqretx n{} t{rel} seq{seq}", self.node),
            EventKind::FlowDone { flow, gen } => {
                format!("flowdone n{} t{rel} f{flow} g{gen}", self.node)
            }
        }
    }
}

/// A snapshot of the engine's flow table (all in-flight transfers and
/// their continuations), taken with [`Simulator::flows_snapshot`] and
/// restored with [`Simulator::flows_restore`]. Opaque — the contention
/// state stays engine-internal; the model checker stores one per explored
/// state so branching exploration can save and restore the shared link
/// state alongside node state. For per-message links the snapshot is empty
/// and restoring it is a no-op.
pub struct FlowsSnapshot<M>(Option<FlowTable<FlowJob<M>>>);

impl<M: Clone> Clone for FlowsSnapshot<M> {
    fn clone(&self) -> Self {
        FlowsSnapshot(self.0.clone())
    }
}

impl<M> FlowsSnapshot<M> {
    /// Whether the snapshot carries flow state at all (false for
    /// per-message links — such snapshots fingerprint as empty).
    pub fn is_flow_model(&self) -> bool {
        self.0.is_some()
    }

    /// Canonical description of the snapshotted contention state with times
    /// expressed relative to `origin_time`, for state fingerprinting —
    /// generation watermarks included, so two states whose queued
    /// tentative-completion events could validate differently never merge.
    /// Empty string for per-message links.
    pub fn describe(&self, origin_time: SimTime) -> String {
        self.0
            .as_ref()
            .map(|t| t.canonical(origin_time))
            .unwrap_or_default()
    }
}

/// One in-progress stop-and-wait link transfer of the ARQ sublayer,
/// identified by `(seq, holder)` — a logical message's `seq` is constant
/// along its route, so the holder (current link sender) disambiguates
/// chained transfers. Transfers live in a free-listed slab; the identity
/// pair is stored in the slot so events addressing a recycled slot are
/// recognized as stale.
struct LinkXfer<M> {
    seq: u64,
    holder: usize,
    src: usize,
    next: usize,
    dst: usize,
    msg: M,
    kind: &'static str,
    scalars: u64,
    query: Option<QueryId>,
    attempt: u32,
}

/// Engine-side state of the ARQ sublayer (present when
/// [`Simulator::enable_arq`] was called).
struct ArqState<M> {
    next_seq: u64,
    /// Active link transfers awaiting an ack: a dense slab addressed by
    /// the `xfer` slot index carried in ARQ events.
    pending: Vec<Option<LinkXfer<M>>>,
    /// Recycled `pending` slots.
    free: Vec<u32>,
    /// Receiver-side dedup: `(receiver, seq)` pairs already accepted.
    seen: BTreeSet<(usize, u64)>,
}

impl<M> ArqState<M> {
    fn alloc(&mut self, x: LinkXfer<M>) -> u32 {
        match self.free.pop() {
            Some(h) => {
                self.pending[h as usize] = Some(x);
                h
            }
            None => {
                let h = u32::try_from(self.pending.len()).expect("ARQ slab overflow"); // simlint: allow(no-panic-in-protocol): structural capacity invariant (u32 ids), not a fault path
                self.pending.push(Some(x));
                h
            }
        }
    }

    /// Validated lookup: `None` if the slot is empty or was recycled for a
    /// different `(seq, holder)` transfer since the event was scheduled.
    fn get(&self, h: u32, seq: u64, holder: usize) -> Option<&LinkXfer<M>> {
        self.pending
            .get(h as usize)?
            .as_ref()
            .filter(|x| x.seq == seq && x.holder == holder)
    }

    fn get_mut(&mut self, h: u32, seq: u64, holder: usize) -> Option<&mut LinkXfer<M>> {
        self.pending
            .get_mut(h as usize)?
            .as_mut()
            .filter(|x| x.seq == seq && x.holder == holder)
    }

    /// Clears the transfer if the slot still holds it (stale events are
    /// no-ops, matching the old map's `remove(&(seq, holder))`).
    fn remove(&mut self, h: u32, seq: u64, holder: usize) {
        if self.get(h, seq, holder).is_some() {
            self.pending[h as usize] = None;
            self.free.push(h);
        }
    }
}

/// Engine internals shared between the run loop and [`Ctx`].
struct Core<M> {
    now: SimTime,
    queue: Scheduler<EventKind<M>>,
    costs: CostBook,
    metrics: Metrics,
    link: Box<dyn LinkModel>,
    trace: Option<Box<dyn TraceSink>>,
    rng: rand::rngs::StdRng,
    network: SimNetwork,
    events_processed: u64,
    arq: Option<ArqState<M>>,
    /// Present iff the installed link advertises
    /// [`FlowParams`](crate::link::FlowParams): every transmission is then
    /// priced through capacity sharing instead of [`LinkModel::hop`].
    flows: Option<FlowTable<FlowJob<M>>>,
    /// The queued completion event of each flow slot, so a re-prediction
    /// can cancel the one it supersedes. Indexed by flow slot; `None` once
    /// the event fired. Always empty in capture mode, where nothing is
    /// queued and superseded events are told apart by their generation.
    flow_tokens: Vec<Option<EventToken>>,
    /// When present, [`Core::push`] appends to this buffer instead of the
    /// event queue — the model checker's capture seam. Everything else
    /// (billing, tracing, link decisions) runs unchanged, so a captured
    /// dispatch is bit-for-bit the engine's own dispatch.
    capture: Option<Vec<McEvent<M>>>,
    /// Nodes forced dead for liveness queries regardless of the link
    /// model. The model checker's capture link is pristine — crash state
    /// lives in the explored path, not in link crash windows — so the
    /// checker installs the explored state's crashed set here before each
    /// captured dispatch; otherwise protocol-level failure detection
    /// ([`Ctx::is_alive`]) would diverge between exploration and replay.
    /// Empty outside the capture seam.
    dead_override: BTreeSet<usize>,
}

impl<M> Core<M> {
    /// Queues an event and returns its cancellation token, or captures it
    /// (and returns `None`: a captured event belongs to the checker).
    fn push(&mut self, time: SimTime, node: usize, kind: EventKind<M>) -> Option<EventToken> {
        if let Some(buf) = &mut self.capture {
            buf.push(McEvent { time, node, kind });
            return None;
        }
        Some(self.queue.push(time, node, kind))
    }

    fn trace(&mut self, event: TraceEvent) {
        if let Some(sink) = &mut self.trace {
            sink.record(event);
        }
    }

    /// Queues the tentative-completion events a flow-table transition
    /// produced (new predictions and invalidation-driven reschedules
    /// alike). A re-predicted flow's previous completion is cancelled here
    /// and counted under `net.flow.stale`; in capture mode it stays with
    /// the checker and is recognized as stale when dispatched.
    fn push_flow_resched(&mut self, resched: Vec<FlowResched>) {
        for (flow, gen, at, node) in resched {
            let kind = EventKind::FlowDone { flow, gen };
            if self.capture.is_some() {
                self.push(at, node, kind);
                continue;
            }
            let slot = flow as usize;
            if slot >= self.flow_tokens.len() {
                self.flow_tokens.resize(slot + 1, None);
            }
            if let Some(old) = self.flow_tokens[slot].take() {
                if self.queue.cancel(old) {
                    self.metrics.inc("net.flow.stale");
                }
            }
            self.flow_tokens[slot] = Some(self.queue.push(at, node, kind));
        }
    }

    /// Whether `node` is up at `time` under the link, and not forced dead by
    /// the model checker's override.
    fn alive(&self, node: usize, time: SimTime) -> bool {
        !self.dead_override.contains(&node) && self.link.is_alive(node, time)
    }

    /// Worst-case ticks for one hop of a `scalars`-sized message: the link's
    /// delay bound under fixed pricing; under capacity pricing the solo
    /// service time, stretched to the largest predicted remaining sojourn
    /// in flight when `contended`.
    fn hop_bound(&self, contended: bool, scalars: u64) -> u64 {
        match &self.flows {
            Some(table) if contended => table
                .horizon(self.now)
                .max(table.uncontended_sojourn(scalars)),
            Some(table) => table.uncontended_sojourn(scalars),
            None => self.link.max_hop_delay(),
        }
    }

    /// Worst-case ticks for one successful neighbor delivery: the hop bound
    /// of a one-scalar message, through the full ARQ retry envelope when
    /// reliable delivery is on.
    fn delivery_bound(&self, contended: bool) -> u64 {
        let hop = self.hop_bound(contended, 1);
        if self.arq.is_some() {
            reliable::worst_case_link_delivery(hop)
        } else {
            hop
        }
    }

    /// The per-hop step every link-level transmission takes — protocol
    /// sends, unicast legs, ARQ data copies and acks alike. Rolls the link
    /// faults ([`LinkModel::hop`]), bills the sender (and the query's
    /// ledger when tagged), then prices the hop: a capacity link ignores
    /// the drawn delay and takes `job` into the flow table; otherwise the
    /// transmission arrives `delay` ticks after `t`, and an event job is
    /// taken onto the queue at `to`. A fixed-priced unicast leg stays in
    /// `job` (never moved per hop) for the forward walk to carry on.
    // Forced inline: this runs once per hop of every message, and as an
    // out-of-line call it made multi-hop unicast measurably slower.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn transmit(
        &mut self,
        from: usize,
        to: usize,
        t: SimTime,
        kind: &'static str,
        scalars: u64,
        query: Option<QueryId>,
        job: &mut Option<FlowJob<M>>,
    ) -> Hop {
        let outcome = self.link.hop(from, to, t, &mut self.rng);
        self.costs.record_tx(from, kind, 1, scalars);
        if let Some(qid) = query {
            self.costs.attribute_query(qid, 1, scalars);
        }
        let HopOutcome::Deliver { delay } = outcome else {
            self.metrics.inc("net.drops.loss");
            return Hop::Lost;
        };
        if let Some(table) = &mut self.flows {
            let Some(job) = job.take() else {
                debug_assert!(false, "transmit without a job");
                return Hop::Lost;
            };
            // The prediction reflects current contention; the ARQ layer
            // sizes its RTOs from it.
            let FlowStarted {
                predicted_finish,
                resched,
            } = table.start(from, to, scalars, self.now, job);
            let active = table.active() as i64;
            let peak = table.peak_active() as i64;
            self.push_flow_resched(resched);
            self.metrics.set_gauge("net.flows.active", active);
            self.metrics.set_gauge("net.flows.peak", peak);
            return Hop::Queued(predicted_finish);
        }
        let at = t + delay;
        if let Some(FlowJob::Event(event)) = job.take_if(|j| matches!(j, FlowJob::Event(_))) {
            self.push(at, to, event);
        }
        Hop::Arrives(at)
    }

    /// A unicast leg from `src` to `dst` reaches relay `node` at `time`: a
    /// dead relay swallows it, a live one records the reception. Returns
    /// whether to forward.
    fn relay_receives(
        &mut self,
        node: usize,
        time: SimTime,
        src: usize,
        dst: usize,
        query: Option<QueryId>,
    ) -> bool {
        if !self.alive(node, time) {
            self.metrics.inc("net.drops.node_down");
            self.trace(TraceEvent::Drop {
                time,
                from: src,
                to: dst,
                reason: DropReason::NodeDown,
                query,
            });
            return false;
        }
        self.costs.record_rx(node);
        true
    }

    /// Carries a unicast leg on from `cur` at tick `t`, one
    /// [`Core::transmit`] per hop of the shortest path. Fixed pricing walks
    /// the whole route now, drawing every hop delay at send time; capacity
    /// pricing queues the next leg, and `Simulator::flow_relay` resumes the
    /// walk when it completes. The query's ledger is billed once per walk,
    /// for every hop transmitted (the lost one included), not once per hop.
    fn forward(&mut self, mut cur: usize, mut t: SimTime, leg: Relay<M>) {
        // Materialize the lazy table up front, then walk it through a
        // cloned handle so the loop below can borrow `self` mutably.
        self.network.routing();
        let routing = Arc::clone(&self.network.routing);
        let routing = routing.get().expect("routing table just built"); // simlint: allow(no-panic-in-protocol): populated by the routing() call two lines up, cannot fail
        let (src, dst, query) = (leg.src, leg.dst, leg.query);
        let (kind, scalars) = (leg.kind, leg.scalars);
        let mut job = Some(FlowJob::Relay(leg));
        let mut hops = 0;
        loop {
            let next = routing
                .next_hop(cur, dst)
                // simlint: allow(no-panic-in-protocol): the sender checked the destination is routable, so every prefix of the path is routable; a miss is engine corruption, not an injected fault
                .expect("routing invariant: prefix of a known path");
            hops += 1;
            match self.transmit(cur, next, t, kind, scalars, None, &mut job) {
                Hop::Lost => {
                    self.trace(TraceEvent::Drop {
                        time: t,
                        from: src,
                        to: dst,
                        reason: DropReason::Loss,
                        query,
                    });
                    break;
                }
                Hop::Queued(_) => break,
                Hop::Arrives(at) if next == dst => {
                    // Final-hop reception is recorded at dispatch time,
                    // where liveness is re-checked.
                    if let Some(FlowJob::Relay(leg)) = job {
                        let msg = leg.msg;
                        self.push(
                            at,
                            dst,
                            EventKind::Deliver {
                                from: src,
                                msg,
                                query,
                            },
                        );
                    }
                    break;
                }
                Hop::Arrives(at) => {
                    if !self.relay_receives(next, at, src, dst, query) {
                        break;
                    }
                    (cur, t) = (next, at);
                }
            }
        }
        if let Some(qid) = query {
            self.costs.attribute_query(qid, hops, scalars);
        }
    }
}

impl<M: Clone> Core<M> {
    /// Starts a reliable logical message: allocates its `(src, seq)`
    /// identity, traces the one-per-message `Send`, and launches the first
    /// link transfer towards `first_next`.
    #[allow(clippy::too_many_arguments)]
    fn arq_send_message(
        &mut self,
        src: usize,
        first_next: usize,
        dst: usize,
        msg: M,
        kind: &'static str,
        scalars: u64,
        query: Option<QueryId>,
    ) {
        let Some(arq) = &mut self.arq else {
            debug_assert!(false, "arq_send_message without ARQ enabled");
            return;
        };
        let seq = arq.next_seq;
        arq.next_seq += 1;
        let now = self.now;
        self.trace(TraceEvent::Send {
            time: now,
            from: src,
            to: dst,
            query,
            retx: false,
        });
        self.arq_begin_link(seq, src, first_next, src, dst, msg, kind, scalars, query);
    }

    /// Creates the `(seq, holder)` link transfer in the slab and fires its
    /// first attempt.
    #[allow(clippy::too_many_arguments)]
    fn arq_begin_link(
        &mut self,
        seq: u64,
        holder: usize,
        next: usize,
        src: usize,
        dst: usize,
        msg: M,
        kind: &'static str,
        scalars: u64,
        query: Option<QueryId>,
    ) {
        let Some(arq) = &mut self.arq else { return };
        let xfer = arq.alloc(LinkXfer {
            seq,
            holder,
            src,
            next,
            dst,
            msg,
            kind,
            scalars,
            query,
            attempt: 0,
        });
        self.arq_attempt(xfer, seq, holder);
    }

    /// One transmission attempt of an active link transfer: bills the radio
    /// (original kind on the first attempt, `net.retx` afterwards), rolls
    /// the link dice, and arms the next retransmission timeout with seeded
    /// backoff jitter.
    fn arq_attempt(&mut self, xfer: u32, seq: u64, holder: usize) {
        let Some(arq) = &self.arq else { return };
        let Some(x) = arq.get(xfer, seq, holder) else {
            return;
        };
        let (next, src, dst, kind, scalars, query, attempt) =
            (x.next, x.src, x.dst, x.kind, x.scalars, x.query, x.attempt);
        let msg = x.msg.clone();
        let now = self.now;
        let billing_kind = if attempt == 0 { kind } else { KIND_RETX };
        if attempt > 0 {
            self.metrics.inc("net.retx");
            self.trace(TraceEvent::Send {
                time: now,
                from: holder,
                to: next,
                query,
                retx: true,
            });
        }
        let data = EventKind::ArqData {
            seq,
            src,
            link_from: holder,
            dst,
            msg,
            kind,
            scalars,
            query,
            xfer,
        };
        // RTO base: the static delay envelope under fixed pricing; under
        // capacity pricing the transfer's predicted sojourn under *current
        // contention* — a congested link legitimately takes longer, and a
        // static RTO there would retransmit into the very queue that is the
        // cause of the delay. A copy lost before entering the queue sizes
        // the RTO from the contention envelope the retry will face.
        let job = &mut Some(FlowJob::Event(data));
        let delay_estimate =
            match self.transmit(holder, next, now, billing_kind, scalars, query, job) {
                Hop::Queued(finish) => finish.saturating_sub(now).max(1),
                Hop::Lost | Hop::Arrives(_) => self.hop_bound(true, scalars),
            };
        let rto =
            reliable::rto(attempt, delay_estimate) + self.rng.gen_range(0..=reliable::JITTER_MAX);
        self.push(
            now + rto,
            holder,
            EventKind::ArqRetx {
                seq,
                xfer,
                scheduled: now,
            },
        );
    }

    /// Transmits a link-level ack `from → to` for `seq` (clearing slab slot
    /// `xfer` on arrival). Acks are billed under `net.ack` but are engine
    /// overhead, not logical messages: they are never traced and never
    /// query-attributed. Under capacity pricing acks ride the shared link
    /// too (minimum one-scalar demand), so reverse-path contention delays
    /// them honestly.
    fn arq_send_ack(&mut self, from: usize, to: usize, seq: u64, xfer: u32) {
        let job = &mut Some(FlowJob::Event(EventKind::ArqAck { seq, xfer }));
        self.transmit(from, to, self.now, KIND_ACK, 0, None, job);
    }
}

/// Names one timer armed by [`Ctx::set_timer`], for [`Ctx::cancel_timer`].
/// Holding a token is harmless once its timer fired: cancelling it then
/// returns `false` and touches nothing. Tokens minted in capture mode name
/// no queued event and cancel nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerToken(Option<EventToken>);

/// The per-callback handle protocols use to interact with the network.
pub struct Ctx<'a, M> {
    core: &'a mut Core<M>,
    node: usize,
}

impl<'a, M: Clone> Ctx<'a, M> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// This node's id.
    pub fn id(&self) -> usize {
        self.node
    }

    /// Number of nodes in the network.
    pub fn n(&self) -> usize {
        self.core.network.topology().n()
    }

    /// Neighbors of this node in the communication graph, as a borrowed
    /// slice — no allocation on this hot path.
    pub fn neighbors(&self) -> &[u32] {
        self.core.network.topology().graph().neighbors(self.node)
    }

    /// The largest possible hop delay under the link model in force;
    /// protocols use this for conservative timeouts (ELink leaf detection,
    /// §5).
    pub fn max_hop_delay(&self) -> u64 {
        self.core.link.max_hop_delay()
    }

    /// Worst-case ticks for one *successful* neighbor delivery: equal to
    /// [`Ctx::max_hop_delay`] on unreliable runs, and to the full ARQ retry
    /// envelope (every backoff round elapses, the last attempt lands) when
    /// the simulator runs reliably. Protocols that wait for a neighbor's
    /// reply must scale their timeouts by this, not by the raw hop delay —
    /// under ARQ a message may legitimately arrive after several backoff
    /// rounds.
    ///
    /// Under a link with a capacity ([`crate::FairShareLink`],
    /// [`crate::LossyLink::with_capacity`]) the hop bound is
    /// *contention-aware*: the largest predicted remaining sojourn across
    /// all transfers currently in flight (never below the uncontended
    /// single-scalar service time). Deadline math layered on this — serving
    /// `coverage` budgets, recovery timeouts — therefore stretches honestly
    /// as the network congests instead of timing out into a queue.
    pub fn max_delivery_delay(&self) -> u64 {
        self.core.delivery_bound(true)
    }

    /// The *uncontended* counterpart of [`Ctx::max_delivery_delay`]: the
    /// worst-case ticks for one successful neighbor delivery on an **idle**
    /// network. Under a flow-model link this is the single-scalar solo
    /// sojourn (through the full ARQ retry envelope when reliable delivery
    /// is on); for per-message links it equals [`Ctx::max_delivery_delay`].
    ///
    /// The pair forms the substrate's load signal: the integer ratio
    /// `max_delivery_delay / nominal_delivery_delay` is 1 on an idle
    /// network and grows with the queue backlog, letting admission layers
    /// compare current congestion against the idle envelope without any
    /// floating point (see `elink_workload::qos::admit_load`).
    pub fn nominal_delivery_delay(&self) -> u64 {
        self.core.delivery_bound(false)
    }

    /// Whether the engine is running the ARQ reliable-delivery sublayer.
    pub fn arq_enabled(&self) -> bool {
        self.core.arq.is_some()
    }

    /// Whether `node` is up right now under the link model (and not forced
    /// dead by the model checker's override).
    pub fn is_alive(&self, node: usize) -> bool {
        self.core.alive(node, self.core.now)
    }

    /// Sends a single-hop message to a direct neighbor. Charged as one
    /// transmission of `scalars` payload scalars under `kind` — also when
    /// the link drops it (the radio transmitted either way).
    ///
    /// # Panics
    /// Panics if `to` is not a neighbor (protocol bug).
    pub fn send(&mut self, to: usize, msg: M, kind: &'static str, scalars: u64) {
        self.send_internal(to, msg, kind, scalars, None);
    }

    /// Records a load-admission shed decision for `query` in the trace: a
    /// [`DropReason::Shed`] drop with `from == to`
    /// (no transmission was ever attempted). Costs nothing on the wire and
    /// charges no ledger — the point is that a refused query leaves a mark
    /// in the event log instead of vanishing.
    pub fn trace_shed(&mut self, query: QueryId) {
        let (now, node) = (self.core.now, self.node);
        self.core.trace(TraceEvent::Drop {
            time: now,
            from: node,
            to: node,
            reason: DropReason::Shed,
            query: Some(query),
        });
    }

    /// [`Ctx::send`] stamped with the query the message serves: the trace
    /// event carries `query`, and one hop × `scalars` is attributed to the
    /// query's [`CostBook`] ledger on top of the ordinary per-kind charge.
    /// Use this for all query-serving traffic — including sends made from
    /// timer callbacks, where the callback has no delivering message to
    /// inherit a tag from.
    ///
    /// # Panics
    /// Panics if `to` is not a neighbor (protocol bug).
    pub fn send_tagged(
        &mut self,
        to: usize,
        msg: M,
        kind: &'static str,
        scalars: u64,
        query: QueryId,
    ) {
        self.send_internal(to, msg, kind, scalars, Some(query));
    }

    fn send_internal(
        &mut self,
        to: usize,
        msg: M,
        kind: &'static str,
        scalars: u64,
        query: Option<QueryId>,
    ) {
        assert!(
            self.core.network.topology().graph().has_edge(self.node, to),
            "send: node {} is not a neighbor of {}",
            to,
            self.node
        );
        let from = self.node;
        if self.core.arq.is_some() {
            self.core
                .arq_send_message(from, to, to, msg, kind, scalars, query);
            return;
        }
        let now = self.core.now;
        self.core.trace(TraceEvent::Send {
            time: now,
            from,
            to,
            query,
            retx: false,
        });
        let job = &mut Some(FlowJob::Event(EventKind::Deliver { from, msg, query }));
        if let Hop::Lost = self.core.transmit(from, to, now, kind, scalars, query, job) {
            self.core.trace(TraceEvent::Drop {
                time: now,
                from,
                to,
                reason: DropReason::Loss,
                query,
            });
        }
    }

    /// Sends a message to every neighbor (clones the payload). Iterates the
    /// borrowed adjacency slice directly — the hottest loop in every
    /// flood-style phase allocates nothing.
    pub fn broadcast_neighbors(&mut self, msg: &M, kind: &'static str, scalars: u64) {
        let topology = Arc::clone(self.core.network.topology_arc());
        for &to in topology.graph().neighbors(self.node) {
            self.send(to as usize, msg.clone(), kind, scalars);
        }
    }

    /// Sends a message to an arbitrary node over shortest-path multi-hop
    /// routing, walking the route hop by hop through the link model. Charged
    /// `scalars × hops-traversed`; if the link drops the message at hop `k`,
    /// or a crashed relay swallows it, only those `k` transmissions are
    /// charged and nothing is delivered. Sending to self delivers
    /// immediately at zero cost. Returns `false` (without transmitting) only
    /// if `dst` is unreachable in the topology — a dropped message still
    /// returns `true`, since the sender cannot know the fate of a packet in
    /// flight.
    pub fn unicast(&mut self, dst: usize, msg: M, kind: &'static str, scalars: u64) -> bool {
        self.unicast_internal(dst, msg, kind, scalars, None)
    }

    /// [`Ctx::unicast`] stamped with the query the message serves: the trace
    /// events carry `query`, and every hop actually traversed is attributed
    /// to the query's [`CostBook`] ledger on top of the ordinary per-kind
    /// charge (a message dropped at hop `k` attributes those `k` hops, same
    /// as the wire charge).
    pub fn unicast_tagged(
        &mut self,
        dst: usize,
        msg: M,
        kind: &'static str,
        scalars: u64,
        query: QueryId,
    ) -> bool {
        self.unicast_internal(dst, msg, kind, scalars, Some(query))
    }

    fn unicast_internal(
        &mut self,
        dst: usize,
        msg: M,
        kind: &'static str,
        scalars: u64,
        query: Option<QueryId>,
    ) -> bool {
        let src = self.node;
        let now = self.core.now;
        if dst == src {
            self.core.push(
                now,
                dst,
                EventKind::Deliver {
                    from: src,
                    msg,
                    query,
                },
            );
            return true;
        }
        let Some(route_hops) = self.core.network.routing().hops(src, dst) else {
            return false;
        };
        self.core
            .metrics
            .observe("net.unicast_hops", route_hops as u64);
        if self.core.arq.is_some() {
            let Some(first) = self.core.network.routing().next_hop(src, dst) else {
                // hops() returned Some above; an unroutable first hop would
                // be routing-table corruption, not an injected fault.
                debug_assert!(false, "routable destination without a next hop");
                return false;
            };
            self.core
                .arq_send_message(src, first, dst, msg, kind, scalars, query);
            return true;
        }
        self.core.trace(TraceEvent::Send {
            time: now,
            from: src,
            to: dst,
            query,
            retx: false,
        });
        let leg = Relay {
            src,
            dst,
            msg,
            kind,
            scalars,
            query,
        };
        self.core.forward(src, now, leg);
        true
    }

    /// Hop distance to another node (`None` if unreachable).
    pub fn hops_to(&self, dst: usize) -> Option<u32> {
        self.core.network.routing().hops(self.node, dst)
    }

    /// Schedules `on_timer(id)` for this node after `delay` ticks and
    /// returns a token for [`Ctx::cancel_timer`]. The timer is lost if the
    /// node is down when it would fire, and also if the node crashed at any
    /// point between now and the firing time — a reboot clears pending
    /// timers along with the rest of volatile state.
    pub fn set_timer(&mut self, delay: SimTime, id: u64) -> TimerToken {
        let now = self.core.now;
        let node = self.node;
        TimerToken(
            self.core
                .push(now + delay, node, EventKind::Timer { id, scheduled: now }),
        )
    }

    /// Withdraws a timer armed by [`Ctx::set_timer`], so it never fires.
    /// Returns `false`, and does nothing, when the timer already fired or
    /// was cancelled. In capture mode nothing is cancelled: the model
    /// checker owns every captured timer, and a protocol's handler must
    /// recognize a timer that fires after its wave finished.
    pub fn cancel_timer(&mut self, token: TimerToken) -> bool {
        match token.0 {
            Some(t) if self.core.capture.is_none() => self.core.queue.cancel(t),
            _ => false,
        }
    }

    /// Records an out-of-band charge against the cost book — used by
    /// higher-level harnesses that account for costs computed analytically
    /// (e.g. result aggregation sizes).
    pub fn charge(&mut self, kind: &'static str, hops: u64, scalars: u64) {
        self.core.costs.record(kind, hops, scalars);
    }

    /// Attributes `hops × scalars` to query `qid`'s ledger without touching
    /// the wire aggregates (see [`CostBook::attribute_query`]). In-network
    /// batching uses this to co-bill riders of a shared packet: the packet
    /// is sent once via [`Ctx::send_tagged`] under its primary query, and
    /// each additional rider is attributed here.
    pub fn attribute_query(&mut self, qid: QueryId, hops: u64, scalars: u64) {
        self.core.costs.attribute_query(qid, hops, scalars);
    }

    /// The run's [`Metrics`] registry, for protocol-level counters and
    /// histograms beyond the phase helpers below.
    pub fn metrics(&mut self) -> &mut Metrics {
        &mut self.core.metrics
    }

    /// Records a phase-enter event for `name` at the current simulated time
    /// (see [`Metrics::phase_enter`]). Protocols mark phase boundaries with
    /// this so per-phase spans land in the run's registry.
    pub fn phase_enter(&mut self, name: &'static str) {
        let now = self.core.now;
        self.core.metrics.phase_enter(name, now);
    }

    /// Records a phase-exit (or activity) event for `name` at the current
    /// simulated time (see [`Metrics::phase_exit`]).
    pub fn phase_exit(&mut self, name: &'static str) {
        let now = self.core.now;
        self.core.metrics.phase_exit(name, now);
    }
}

/// The discrete-event simulator: a set of protocol instances plus the engine.
pub struct Simulator<P: Protocol> {
    nodes: Vec<P>,
    core: Core<P::Msg>,
    started: bool,
    /// Safety valve: maximum events before [`Simulator::run_to_completion`]
    /// aborts (protocol livelock protection in tests).
    pub max_events: u64,
}

impl<P: Protocol> Simulator<P> {
    /// Creates a simulator over `network` with one protocol instance per
    /// node. `link` accepts any [`LinkModel`], or a preset such as
    /// [`SyncLink`](crate::SyncLink) that converts into a
    /// [`LossyLink`](crate::LossyLink); `seed` drives all link-layer
    /// randomness.
    ///
    /// # Panics
    /// Panics if `nodes.len()` differs from the topology size.
    pub fn new(
        network: SimNetwork,
        link: impl Into<Box<dyn LinkModel>>,
        seed: u64,
        nodes: Vec<P>,
    ) -> Self {
        assert_eq!(
            nodes.len(),
            network.topology().n(),
            "one protocol instance per node required"
        );
        let n = network.topology().n();
        let link: Box<dyn LinkModel> = link.into();
        let flows = link.flow_params().map(FlowTable::new);
        let mut metrics = Metrics::new();
        if flows.is_some() {
            // Declare the contention surface up front so idle flow runs
            // still show the keys in metrics dumps.
            metrics.declare_counter("net.queued_ms");
            metrics.declare_counter("net.flow.stale");
            metrics.set_gauge("net.flows.active", 0);
            metrics.set_gauge("net.flows.peak", 0);
        }
        Simulator {
            nodes,
            core: Core {
                now: 0,
                queue: Scheduler::new(SchedulerKind::Calendar),
                costs: CostBook::with_nodes(n),
                metrics,
                link,
                trace: None,
                rng: rand::rngs::StdRng::seed_from_u64(seed),
                network,
                events_processed: 0,
                arq: None,
                flows,
                flow_tokens: Vec::new(),
                capture: None,
                dead_override: BTreeSet::new(),
            },
            started: false,
            max_events: 500_000_000,
        }
    }

    /// Enables the [`reliable`] ARQ sublayer: every
    /// subsequent `send`/`unicast` is delivered via per-link
    /// ack/retransmit/dedup instead of fire-and-forget. Registers the
    /// `net.retx`/`net.ack.dup`/`net.timeout` counters at zero so they
    /// appear in metrics dumps even on loss-free runs. Call before the run
    /// starts; protocols need no changes.
    pub fn enable_arq(&mut self, _: ArqConfig) {
        self.core.metrics.declare_counter("net.retx");
        self.core.metrics.declare_counter("net.ack.dup");
        self.core.metrics.declare_counter("net.timeout");
        self.core.arq = Some(ArqState {
            next_seq: 0,
            pending: Vec::new(),
            free: Vec::new(),
            seen: BTreeSet::new(),
        });
    }

    /// Selects the event-queue backend (default:
    /// [`SchedulerKind::Calendar`]). Both kinds produce byte-identical
    /// runs; see [`SchedulerKind`]. Call before the run starts.
    ///
    /// # Panics
    /// Panics if events are already queued (mid-run switches would lose
    /// them).
    pub fn set_scheduler(&mut self, kind: SchedulerKind) {
        assert!(
            !self.started && self.core.queue.is_empty(),
            "set_scheduler must be called before the run starts"
        );
        self.core.queue = Scheduler::new(kind);
    }

    /// The event-queue backend in force.
    pub fn scheduler_kind(&self) -> SchedulerKind {
        self.core.queue.kind()
    }

    /// High-water mark of simultaneously queued events over the run — the
    /// arena footprint the scaling bench reports as `peak_live_events`.
    pub fn peak_live_events(&self) -> usize {
        self.core.queue.peak_live()
    }

    /// Whether the ARQ reliable-delivery sublayer is enabled.
    pub fn arq_enabled(&self) -> bool {
        self.core.arq.is_some()
    }

    /// Worst-case ticks for one successful neighbor delivery on an idle
    /// network: what [`Ctx::nominal_delivery_delay`] reports to handlers,
    /// readable before and after a run.
    pub fn nominal_delivery_delay(&self) -> u64 {
        self.core.delivery_bound(false)
    }

    /// Attaches a [`TraceSink`] observing every engine event. Wrap the sink
    /// in `Arc<Mutex<_>>` and keep a clone to inspect it after the run.
    pub fn set_trace(&mut self, sink: impl TraceSink + 'static) {
        self.core.trace = Some(Box::new(sink));
    }

    /// Runs until the event queue is empty. Returns the final time.
    ///
    /// # Panics
    /// Panics if `max_events` is exceeded (indicates a protocol livelock).
    pub fn run_to_completion(&mut self) -> SimTime {
        self.ensure_started();
        while self.step() {}
        self.core.now
    }

    /// Runs until simulated time exceeds `deadline` or the queue drains.
    pub fn run_until(&mut self, deadline: SimTime) -> SimTime {
        self.ensure_started();
        loop {
            match self.core.queue.next_time() {
                Some(t) if t <= deadline => {
                    self.step();
                }
                _ => break,
            }
        }
        self.core.now = self.core.now.max(deadline);
        self.core.now
    }

    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for node in 0..self.nodes.len() {
            self.core.push(0, node, EventKind::Start);
        }
    }

    /// Processes one event; returns false when the queue is empty. Events
    /// addressed to a node that is down when they fire are dropped: its
    /// protocol state freezes until recovery. Timers (and ARQ sender state)
    /// armed before a crash window are cleared even if the node recovered
    /// before the firing time.
    fn step(&mut self) -> bool {
        let Some(PoppedEvent {
            time,
            node,
            payload: event_kind,
        }) = self.core.queue.pop()
        else {
            return false;
        };
        self.dispatch_event(time, node, event_kind);
        true
    }

    /// Dispatches one event exactly as [`Simulator::step`] would — the
    /// single delivery path shared by the run loop and the model checker's
    /// capture mode.
    fn dispatch_event(&mut self, time: SimTime, node: usize, event_kind: EventKind<P::Msg>) {
        self.core.now = time;
        self.core.events_processed += 1;
        assert!(
            self.core.events_processed <= self.max_events,
            "simulation exceeded {} events — livelock?",
            self.max_events
        );
        if let EventKind::FlowDone { flow, gen } = event_kind {
            // Link-level bookkeeping first (the flow must leave the table
            // either way); the continuation re-enters dispatch below, where
            // receiver liveness is checked with per-payload semantics.
            self.flow_fire(time, node, flow, gen);
            return;
        }
        if !self.core.alive(node, time) {
            match &event_kind {
                // Engine-internal ARQ bookkeeping is silent: the sender-side
                // state is simply lost with the crashed radio.
                EventKind::ArqRetx { seq, xfer, .. } => {
                    if let Some(arq) = &mut self.core.arq {
                        arq.remove(*xfer, *seq, node);
                    }
                }
                EventKind::ArqAck { .. } => {}
                EventKind::ArqData {
                    link_from, query, ..
                } => {
                    self.core.metrics.inc("net.drops.node_down");
                    let (from, query) = (*link_from, *query);
                    self.core.trace(TraceEvent::Drop {
                        time,
                        from,
                        to: node,
                        reason: DropReason::NodeDown,
                        query,
                    });
                }
                _ => {
                    let (from, query) = match &event_kind {
                        EventKind::Deliver { from, query, .. } => (*from, *query),
                        _ => (node, None),
                    };
                    self.core.metrics.inc("net.drops.node_down");
                    self.core.trace(TraceEvent::Drop {
                        time,
                        from,
                        to: node,
                        reason: DropReason::NodeDown,
                        query,
                    });
                }
            }
            return;
        }
        match event_kind {
            EventKind::Start => {
                let mut ctx = Ctx {
                    core: &mut self.core,
                    node,
                };
                self.nodes[node].on_start(&mut ctx);
            }
            EventKind::Deliver { from, msg, query } => {
                self.core.costs.record_rx(node);
                self.core.trace(TraceEvent::Deliver {
                    time,
                    from,
                    to: node,
                    query,
                });
                let mut ctx = Ctx {
                    core: &mut self.core,
                    node,
                };
                self.nodes[node].on_message(from, msg, &mut ctx);
            }
            EventKind::Timer { id, scheduled } => {
                if self.core.link.crashed_in_window(node, scheduled, time) {
                    // The node rebooted between arming and firing: the timer
                    // died with the volatile state that armed it.
                    self.core.metrics.inc("net.timers.cleared");
                    self.core.trace(TraceEvent::Drop {
                        time,
                        from: node,
                        to: node,
                        reason: DropReason::NodeDown,
                        query: None,
                    });
                    return;
                }
                self.core.trace(TraceEvent::Timer { time, node, id });
                let mut ctx = Ctx {
                    core: &mut self.core,
                    node,
                };
                self.nodes[node].on_timer(id, &mut ctx);
            }
            EventKind::ArqData {
                seq,
                src,
                link_from,
                dst,
                msg,
                kind,
                scalars,
                query,
                xfer,
            } => {
                self.core.costs.record_rx(node);
                // Ack every copy — the sender may be retrying because a
                // previous ack was lost.
                self.core.arq_send_ack(node, link_from, seq, xfer);
                let fresh = match &mut self.core.arq {
                    Some(arq) => arq.seen.insert((node, seq)),
                    None => true,
                };
                if !fresh {
                    self.core.metrics.inc("net.ack.dup");
                } else if node == dst {
                    self.core.trace(TraceEvent::Deliver {
                        time,
                        from: src,
                        to: node,
                        query,
                    });
                    let mut ctx = Ctx {
                        core: &mut self.core,
                        node,
                    };
                    self.nodes[node].on_message(src, msg, &mut ctx);
                } else {
                    // Relay: chain the next link transfer towards dst.
                    let Some(next) = self.core.network.routing().next_hop(node, dst) else {
                        debug_assert!(false, "relay without a route to dst");
                        return;
                    };
                    self.core
                        .arq_begin_link(seq, node, next, src, dst, msg, kind, scalars, query);
                }
            }
            EventKind::ArqAck { seq, xfer } => {
                if let Some(arq) = &mut self.core.arq {
                    arq.remove(xfer, seq, node);
                }
            }
            EventKind::FlowDone { .. } => {
                // Handled before the liveness gate above.
                debug_assert!(false, "FlowDone reached the post-liveness dispatch");
            }
            EventKind::ArqRetx {
                seq,
                xfer,
                scheduled,
            } => {
                if self.core.link.crashed_in_window(node, scheduled, time) {
                    // Crashed mid-transfer: the retransmission buffer is gone.
                    if let Some(arq) = &mut self.core.arq {
                        arq.remove(xfer, seq, node);
                    }
                    return;
                }
                let (give_up, retry) = match &mut self.core.arq {
                    Some(arq) => match arq.get_mut(xfer, seq, node) {
                        Some(x) if x.attempt >= reliable::MAX_RETRIES => (true, false),
                        Some(x) => {
                            x.attempt += 1;
                            (false, true)
                        }
                        None => (false, false),
                    },
                    None => (false, false),
                };
                if give_up {
                    if let Some(arq) = &mut self.core.arq {
                        arq.remove(xfer, seq, node);
                    }
                    self.core.metrics.inc("net.timeout");
                } else if retry {
                    self.core.arq_attempt(xfer, seq, node);
                }
            }
        }
    }

    /// Handles a tentative flow completion: a valid completion settles the
    /// link (freeing capacity for the survivors, whose new predictions are
    /// queued) and dispatches the stored continuation through the ordinary
    /// event path. Superseded completions are cancelled before they fire,
    /// except in capture mode, where a stale generation is counted and
    /// dropped here.
    fn flow_fire(&mut self, time: SimTime, node: usize, flow: u32, gen: u32) {
        let Some(table) = &mut self.core.flows else {
            debug_assert!(false, "FlowDone without a flow table");
            return;
        };
        if let Some(token) = self.core.flow_tokens.get_mut(flow as usize) {
            *token = None;
        }
        match table.fire(flow, gen, time) {
            FlowFired::Stale => {
                debug_assert!(
                    self.core.capture.is_some(),
                    "a superseded flow completion escaped cancellation"
                );
                self.core.metrics.inc("net.flow.stale");
            }
            FlowFired::Done {
                payload,
                sojourn,
                queued,
                pub_resched,
            } => {
                let active = table.active() as i64;
                self.core.push_flow_resched(pub_resched);
                self.core.metrics.add("net.queued_ms", queued);
                self.core.metrics.observe("net.flow.sojourn", sojourn);
                self.core.metrics.set_gauge("net.flows.active", active);
                match payload {
                    FlowJob::Event(event) => self.dispatch_event(time, node, event),
                    FlowJob::Relay(leg) => self.flow_relay(time, node, leg),
                }
            }
        }
    }

    /// A unicast leg completed at `node` under capacity pricing: deliver if
    /// this is the destination, otherwise resume the forward walk — with
    /// the same relay billing and drop semantics as the fixed-price walk.
    fn flow_relay(&mut self, time: SimTime, node: usize, leg: Relay<P::Msg>) {
        if node == leg.dst {
            // Final-hop reception: the Deliver arm re-checks liveness and
            // records rx, exactly as the fixed-price path does.
            let deliver = EventKind::Deliver {
                from: leg.src,
                msg: leg.msg,
                query: leg.query,
            };
            self.dispatch_event(time, node, deliver);
            return;
        }
        if self
            .core
            .relay_receives(node, time, leg.src, leg.dst, leg.query)
        {
            self.core.forward(node, time, leg);
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// Per-kind message statistics so far (aggregate view of the cost book).
    pub fn stats(&self) -> &MessageStats {
        self.core.costs.stats()
    }

    /// The full cost book: per-kind aggregates plus per-node tx/rx tallies.
    pub fn costs(&self) -> &CostBook {
        &self.core.costs
    }

    /// The run's metrics registry: phase spans, counters and histograms
    /// recorded by the engine (`net.unicast_hops`, drop counters) and by
    /// protocols through [`Ctx::metrics`]/[`Ctx::phase_enter`].
    pub fn metrics(&self) -> &Metrics {
        &self.core.metrics
    }

    /// Mutable registry access, for harness-level phases recorded between
    /// [`Simulator::run_until`] segments.
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.core.metrics
    }

    /// Extracts the registry, leaving an empty one behind — the cheap way
    /// for a runner to move metrics into its outcome struct.
    pub fn take_metrics(&mut self) -> Metrics {
        std::mem::take(&mut self.core.metrics)
    }

    /// Whether `node` is up at the current simulated time (honouring the
    /// model checker's dead-node override, see
    /// [`Simulator::set_dead_override`]).
    pub fn is_alive(&self, node: usize) -> bool {
        self.core.alive(node, self.core.now)
    }

    /// Replaces the set of nodes forced dead for liveness queries,
    /// irrespective of the link model. The model checker's capture link is
    /// pristine (crash state lives in its explored path), so the checker
    /// installs the current state's crashed set here before every captured
    /// dispatch — keeping protocol-level failure detection identical
    /// between exploration and counterexample replay (where crashes are
    /// scripted into the link instead).
    pub fn set_dead_override(&mut self, dead: impl IntoIterator<Item = usize>) {
        self.core.dead_override = dead.into_iter().collect();
    }

    /// Immutable access to the protocol instances (for extracting results).
    pub fn nodes(&self) -> &[P] {
        &self.nodes
    }

    /// Mutable access to the protocol instances (for injecting state between
    /// phases, e.g. streaming feature updates).
    pub fn nodes_mut(&mut self) -> &mut [P] {
        &mut self.nodes
    }

    /// The simulated network.
    pub fn network(&self) -> &SimNetwork {
        &self.core.network
    }

    /// Number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.core.events_processed
    }

    /// Injects an external event: schedules delivery of `msg` to `node` at
    /// `time` from a fictitious source (`from = node`), free of charge. Used
    /// by experiment harnesses to model sensing inputs.
    pub fn inject(&mut self, time: SimTime, node: usize, msg: P::Msg) {
        assert!(time >= self.core.now, "cannot inject into the past");
        self.core.push(
            time,
            node,
            EventKind::Deliver {
                from: node,
                msg,
                query: None,
            },
        );
    }

    /// Like [`Simulator::inject`], but the delivery carries an explicit
    /// logical sender, free of charge. Counterexample replay uses this to
    /// re-deliver a duplicated message with its true origin — duplication is
    /// a fault of the checker's virtual network that no [`LinkModel`] can
    /// produce on its own.
    pub fn inject_from(&mut self, time: SimTime, from: usize, node: usize, msg: P::Msg) {
        assert!(time >= self.core.now, "cannot inject into the past");
        self.core.push(
            time,
            node,
            EventKind::Deliver {
                from,
                msg,
                query: None,
            },
        );
    }

    /// Boots every node in id order under capture: each `on_start` runs
    /// through the ordinary dispatch path, but everything the handlers
    /// enqueue is returned to the caller instead of entering the event
    /// queue. First half of the model checker's drive cycle; pair with
    /// [`Simulator::capture_dispatch`].
    ///
    /// # Panics
    /// Panics if the run already started — capture and the run loop cannot
    /// share a boot.
    pub fn capture_boot(&mut self) -> Vec<McEvent<P::Msg>> {
        assert!(
            !self.started && self.core.queue.is_empty(),
            "capture_boot on an already-started simulator"
        );
        self.started = true;
        self.core.capture = Some(Vec::new());
        for node in 0..self.nodes.len() {
            self.dispatch_event(0, node, EventKind::Start);
        }
        self.core.capture.take().unwrap_or_default()
    }

    /// Dispatches one captured event at tick `at` (the checker's chosen
    /// delivery time, ≥ the event's earliest time) and returns the events
    /// the handler enqueued. Billing, tracing and link decisions run exactly
    /// as in [`Simulator::run_to_completion`] — this *is* the engine's
    /// dispatch, with only the queue swapped for the returned buffer.
    ///
    /// The caller owns scheduling: it must not dispatch into the past
    /// (`at ≥` the previous dispatch time) and is responsible for honouring
    /// delivery windows and timer exactness. State between dispatches lives
    /// in [`Simulator::nodes_mut`] — plus, under a flow-model link, in the
    /// shared flow table, which a checker saves and restores per explored
    /// state via [`Simulator::flows_snapshot`] / [`Simulator::flows_restore`]
    /// (flow events fire exactly at their predicted tick; see
    /// [`McEvent::is_flow`]). Node state plus flow snapshot is the *whole*
    /// protocol state by the determinism discipline (no RNG draws under a
    /// deterministic link without ARQ jitter).
    pub fn capture_dispatch(&mut self, at: SimTime, ev: &McEvent<P::Msg>) -> Vec<McEvent<P::Msg>>
    where
        P::Msg: Clone,
    {
        debug_assert!(at >= ev.time, "dispatch before the event's earliest time");
        self.started = true;
        self.core.capture = Some(Vec::new());
        self.dispatch_event(at, ev.node, ev.kind.clone());
        self.core.capture.take().unwrap_or_default()
    }

    /// Whether the link model in force is deterministic (no RNG draws), the
    /// precondition for branching exploration over captured dispatches.
    pub fn link_deterministic(&self) -> bool {
        self.core.link.is_deterministic()
    }

    /// Clones the engine's flow-table state (empty for per-message links).
    /// The model checker stores one snapshot per explored state and restores
    /// it before each branched dispatch, making the shared contention state
    /// part of the explored state exactly like node state.
    pub fn flows_snapshot(&self) -> FlowsSnapshot<P::Msg>
    where
        P::Msg: Clone,
    {
        FlowsSnapshot(self.core.flows.clone())
    }

    /// Installs a previously captured flow-table snapshot (see
    /// [`Simulator::flows_snapshot`]). Restoring an empty snapshot onto a
    /// flow-model engine (or vice versa) is a caller bug — the snapshot must
    /// come from this simulator's own seam.
    pub fn flows_restore(&mut self, snap: &FlowsSnapshot<P::Msg>)
    where
        P::Msg: Clone,
    {
        debug_assert_eq!(
            self.core.flows.is_some(),
            snap.0.is_some(),
            "flow snapshot does not match the installed link model"
        );
        self.core.flows = snap.0.clone();
        self.core.flow_tokens.clear();
    }

    /// Whether the engine prices transmissions through a flow table (the
    /// installed link advertises [`FlowParams`](crate::link::FlowParams)).
    pub fn flow_model(&self) -> bool {
        self.core.flows.is_some()
    }

    /// Cumulative per-directed-link utilization under a flow-model link
    /// (empty otherwise), ascending by `(from, to)`: busy ticks,
    /// milli-scalars served, and peak concurrent flows per link.
    pub fn link_utilization(&self) -> Vec<((usize, usize), LinkUtil)> {
        self.core
            .flows
            .as_ref()
            .map(|t| t.link_stats())
            .unwrap_or_default()
    }

    /// Folds a summary of the per-link utilization table into the metrics
    /// registry as gauges (`net.links.used`, `net.link.busy_peak_ticks`,
    /// `net.link.busy_total_ticks`, `net.link.served_scalars`,
    /// `net.link.peak_flows`). The registry keys are `&'static str`, so the
    /// full per-link breakdown stays on [`Simulator::link_utilization`];
    /// harnesses call this once before extracting metrics so reports carry
    /// the aggregate contention picture. No-op for per-message links.
    pub fn record_flow_gauges(&mut self) {
        let Some(table) = &self.core.flows else {
            return;
        };
        let stats = table.link_stats();
        let mut busiest = 0u64;
        let mut total_busy = 0u64;
        let mut served_milli = 0u64;
        let mut peak_flows = 0u64;
        for (_, util) in &stats {
            busiest = busiest.max(util.busy_ticks);
            total_busy += util.busy_ticks;
            served_milli += util.served_milli;
            peak_flows = peak_flows.max(util.peak_flows);
        }
        let peak_active = table.peak_active() as i64;
        self.core
            .metrics
            .set_gauge("net.links.used", stats.len() as i64);
        self.core
            .metrics
            .set_gauge("net.link.busy_peak_ticks", busiest as i64);
        self.core
            .metrics
            .set_gauge("net.link.busy_total_ticks", total_busy as i64);
        self.core
            .metrics
            .set_gauge("net.link.served_scalars", (served_milli / 1000) as i64);
        self.core
            .metrics
            .set_gauge("net.link.peak_flows", peak_flows as i64);
        self.core.metrics.set_gauge("net.flows.peak", peak_active);
    }

    /// The link model's delay bound (see [`LinkModel::max_hop_delay`]).
    pub fn max_hop_delay(&self) -> u64 {
        self.core.link.max_hop_delay()
    }

    /// Runs at most `k` dispatches (after booting all nodes, which counts
    /// its `n` `on_start` dispatches against `k`); returns how many ran.
    /// Counterexample replay uses this to halt the engine mid-schedule at
    /// the checker's violation point — `run_until` cannot split a tick, but
    /// a dispatch count can.
    pub fn run_events(&mut self, k: u64) -> u64 {
        self.ensure_started();
        let mut done = 0;
        while done < k && self.step() {
            done += 1;
        }
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::{LossyLink, SyncLink};
    use crate::trace::{CountingTrace, RingBufferTrace};
    use elink_topology::Topology;
    use std::sync::{Arc, Mutex};

    /// Flooding protocol: node 0 floods a token; everyone records receipt
    /// time and forwards once.
    #[derive(Clone)]
    struct Flood {
        seen: Option<SimTime>,
    }

    impl Protocol for Flood {
        type Msg = u32;

        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            if ctx.id() == 0 {
                self.seen = Some(ctx.now());
                ctx.broadcast_neighbors(&1, "flood", 1);
            }
        }

        fn on_message(&mut self, _from: usize, msg: u32, ctx: &mut Ctx<'_, u32>) {
            if self.seen.is_none() {
                self.seen = Some(ctx.now());
                ctx.broadcast_neighbors(&msg, "flood", 1);
            }
        }
    }

    fn flood_sim(link: impl Into<Box<dyn LinkModel>>, seed: u64) -> Simulator<Flood> {
        let network = SimNetwork::new(Topology::grid(4, 4));
        let nodes = (0..16).map(|_| Flood { seen: None }).collect();
        Simulator::new(network, link, seed, nodes)
    }

    #[test]
    fn flood_reaches_everyone_in_sync_time() {
        let mut sim = flood_sim(SyncLink, 0);
        sim.run_to_completion();
        for (v, node) in sim.nodes().iter().enumerate() {
            let expected = sim.network().routing().hops(0, v).unwrap() as u64;
            assert_eq!(node.seen, Some(expected), "node {v}");
        }
    }

    #[test]
    fn flood_message_count_bounded_by_degree_sum() {
        let mut sim = flood_sim(SyncLink, 0);
        sim.run_to_completion();
        // Each node broadcasts once: total packets = Σ degree = 2|E| = 48.
        assert_eq!(sim.stats().total_packets(), 48);
    }

    #[test]
    fn async_is_deterministic_per_seed() {
        let mut a = flood_sim(LossyLink::new(1, 5), 9);
        let mut b = flood_sim(LossyLink::new(1, 5), 9);
        a.run_to_completion();
        b.run_to_completion();
        let ta: Vec<_> = a.nodes().iter().map(|n| n.seen).collect();
        let tb: Vec<_> = b.nodes().iter().map(|n| n.seen).collect();
        assert_eq!(ta, tb);
        assert_eq!(a.stats().total_cost(), b.stats().total_cost());
    }

    #[test]
    fn async_seeds_change_timing() {
        let mut a = flood_sim(LossyLink::new(1, 10), 1);
        let mut b = flood_sim(LossyLink::new(1, 10), 2);
        a.run_to_completion();
        b.run_to_completion();
        let ta: Vec<_> = a.nodes().iter().map(|n| n.seen).collect();
        let tb: Vec<_> = b.nodes().iter().map(|n| n.seen).collect();
        assert_ne!(ta, tb, "different seeds should reorder deliveries");
    }

    /// Unicast protocol: node 0 unicasts to the far corner.
    struct Uni {
        got: bool,
    }

    impl Protocol for Uni {
        type Msg = ();

        fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
            if ctx.id() == 0 {
                let far = ctx.n() - 1;
                assert!(ctx.unicast(far, (), "uni", 4));
            }
        }

        fn on_message(&mut self, _from: usize, _msg: (), _ctx: &mut Ctx<'_, ()>) {
            self.got = true;
        }
    }

    #[test]
    fn unicast_charges_scalars_times_hops() {
        let network = SimNetwork::new(Topology::grid(4, 4));
        let nodes = (0..16).map(|_| Uni { got: false }).collect();
        let mut sim = Simulator::new(network, SyncLink, 0, nodes);
        sim.run_to_completion();
        assert!(sim.nodes()[15].got);
        // 0 -> 15 in a 4x4 grid is 6 hops; 4 scalars per hop.
        assert_eq!(sim.stats().kind("uni").packets, 6);
        assert_eq!(sim.stats().kind("uni").cost, 24);
        assert_eq!(sim.now(), 6);
    }

    #[test]
    fn unicast_to_self_is_free() {
        struct SelfSend {
            got: bool,
        }
        impl Protocol for SelfSend {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                if ctx.id() == 0 {
                    ctx.unicast(0, (), "self", 9);
                }
            }
            fn on_message(&mut self, _f: usize, _m: (), _c: &mut Ctx<'_, ()>) {
                self.got = true;
            }
        }
        let network = SimNetwork::new(Topology::grid(2, 2));
        let nodes = (0..4).map(|_| SelfSend { got: false }).collect();
        let mut sim = Simulator::new(network, SyncLink, 0, nodes);
        sim.run_to_completion();
        assert!(sim.nodes()[0].got);
        assert_eq!(sim.stats().total_cost(), 0);
    }

    /// Timer protocol: each node sets a timer = its id and records firing.
    struct Timers {
        fired_at: Option<SimTime>,
    }

    impl Protocol for Timers {
        type Msg = ();
        fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
            let id = ctx.id() as u64;
            ctx.set_timer(id * 10, id);
        }
        fn on_message(&mut self, _f: usize, _m: (), _c: &mut Ctx<'_, ()>) {}
        fn on_timer(&mut self, _t: u64, ctx: &mut Ctx<'_, ()>) {
            self.fired_at = Some(ctx.now());
        }
    }

    #[test]
    fn timers_fire_at_requested_times() {
        let network = SimNetwork::new(Topology::grid(1, 3));
        let nodes = (0..3).map(|_| Timers { fired_at: None }).collect();
        let mut sim = Simulator::new(network, SyncLink, 0, nodes);
        sim.run_to_completion();
        assert_eq!(sim.nodes()[0].fired_at, Some(0));
        assert_eq!(sim.nodes()[1].fired_at, Some(10));
        assert_eq!(sim.nodes()[2].fired_at, Some(20));
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let network = SimNetwork::new(Topology::grid(1, 3));
        let nodes = (0..3).map(|_| Timers { fired_at: None }).collect();
        let mut sim = Simulator::new(network, SyncLink, 0, nodes);
        sim.run_until(10);
        assert_eq!(sim.nodes()[1].fired_at, Some(10));
        assert_eq!(sim.nodes()[2].fired_at, None);
        sim.run_to_completion();
        assert_eq!(sim.nodes()[2].fired_at, Some(20));
    }

    #[test]
    fn inject_delivers_external_event() {
        struct Sink {
            got: Vec<(SimTime, u8)>,
        }
        impl Protocol for Sink {
            type Msg = u8;
            fn on_message(&mut self, _f: usize, m: u8, ctx: &mut Ctx<'_, u8>) {
                self.got.push((ctx.now(), m));
            }
        }
        let network = SimNetwork::new(Topology::grid(1, 2));
        let nodes = (0..2).map(|_| Sink { got: vec![] }).collect();
        let mut sim = Simulator::new(network, SyncLink, 0, nodes);
        sim.inject(5, 1, 42);
        sim.inject(3, 1, 7);
        sim.run_to_completion();
        assert_eq!(sim.nodes()[1].got, vec![(3, 7), (5, 42)]);
        assert_eq!(sim.stats().total_cost(), 0);
    }

    #[test]
    #[should_panic(expected = "not a neighbor")]
    fn send_to_non_neighbor_panics() {
        struct Bad;
        impl Protocol for Bad {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                if ctx.id() == 0 {
                    ctx.send(2, (), "bad", 1); // 0 and 2 are not adjacent in a path
                }
            }
            fn on_message(&mut self, _f: usize, _m: (), _c: &mut Ctx<'_, ()>) {}
        }
        let network = SimNetwork::new(Topology::grid(1, 3));
        let mut sim = Simulator::new(network, SyncLink, 0, vec![Bad, Bad, Bad]);
        sim.run_to_completion();
    }

    #[test]
    fn fifo_between_same_timestamp_events() {
        // Two messages sent in one callback with equal delay must arrive in
        // send order (seq tie-break).
        struct Order {
            got: Vec<u8>,
        }
        impl Protocol for Order {
            type Msg = u8;
            fn on_start(&mut self, ctx: &mut Ctx<'_, u8>) {
                if ctx.id() == 0 {
                    ctx.send(1, 1, "m", 1);
                    ctx.send(1, 2, "m", 1);
                }
            }
            fn on_message(&mut self, _f: usize, m: u8, _c: &mut Ctx<'_, u8>) {
                self.got.push(m);
            }
        }
        let network = SimNetwork::new(Topology::grid(1, 2));
        let mut sim = Simulator::new(
            network,
            SyncLink,
            0,
            vec![Order { got: vec![] }, Order { got: vec![] }],
        );
        sim.run_to_completion();
        assert_eq!(sim.nodes()[1].got, vec![1, 2]);
    }

    #[test]
    fn neighbor_slice_is_borrowed_and_matches_graph() {
        struct Check;
        impl Protocol for Check {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                let slice: &[u32] = ctx.neighbors();
                assert!(!slice.is_empty());
                assert!(slice.iter().all(|&v| (v as usize) < ctx.n()));
            }
            fn on_message(&mut self, _f: usize, _m: (), _c: &mut Ctx<'_, ()>) {}
        }
        let network = SimNetwork::new(Topology::grid(3, 3));
        let nodes = (0..9).map(|_| Check).collect();
        Simulator::new(network, SyncLink, 0, nodes).run_to_completion();
    }

    #[test]
    fn dropped_sends_are_charged_but_never_delivered() {
        // Drop everything: the flood dies at node 0 but its broadcasts are
        // still paid for.
        let mut sim = flood_sim(LossyLink::new(1, 1).with_drop_prob(1.0), 0);
        sim.run_to_completion();
        assert_eq!(sim.stats().kind("flood").packets, 2); // node 0's two neighbors
        for (v, node) in sim.nodes().iter().enumerate().skip(1) {
            assert_eq!(node.seen, None, "node {v} got a dropped message");
        }
    }

    #[test]
    fn crashed_node_is_skipped_and_recovers_frozen() {
        // 1x3 path; node 1 is down during [0, 15). Node 0 floods at t=0: the
        // token dies at node 1, so node 2 never hears it.
        let network = SimNetwork::new(Topology::grid(1, 3));
        let nodes = (0..3).map(|_| Flood { seen: None }).collect();
        let link = LossyLink::new(1, 1).with_crash(1, 0, Some(15));
        let mut sim = Simulator::new(network, link, 0, nodes);
        sim.run_to_completion();
        assert_eq!(sim.nodes()[0].seen, Some(0));
        assert_eq!(sim.nodes()[1].seen, None, "dead node must not receive");
        assert_eq!(
            sim.nodes()[2].seen,
            None,
            "flood must not pass the dead relay"
        );
        // The attempted transmission into the dead node was still charged.
        assert_eq!(sim.stats().kind("flood").packets, 1);
    }

    #[test]
    fn crashed_relay_swallows_unicast_and_charges_partial_hops() {
        // 1x4 path, 0 -> 3 is 3 hops; node 2 is permanently down, so the
        // message traverses 0->1 and dies entering 2: 2 hops charged.
        let network = SimNetwork::new(Topology::grid(1, 4));
        let nodes = (0..4).map(|_| Uni { got: false }).collect();
        let link = LossyLink::new(1, 1).with_crash(2, 0, None);
        let mut sim = Simulator::new(network, link, 0, nodes);
        sim.run_to_completion();
        assert!(!sim.nodes()[3].got);
        assert_eq!(sim.stats().kind("uni").packets, 2);
        assert_eq!(sim.stats().kind("uni").cost, 8);
    }

    #[test]
    fn timers_are_lost_while_down() {
        // Node 1's timer would fire at t=10 but it is down during [5, 50):
        // the timer is lost, not deferred.
        let network = SimNetwork::new(Topology::grid(1, 3));
        let nodes = (0..3).map(|_| Timers { fired_at: None }).collect();
        let link = LossyLink::new(1, 1).with_crash(1, 5, Some(50));
        let mut sim = Simulator::new(network, link, 0, nodes);
        sim.run_to_completion();
        assert_eq!(sim.nodes()[0].fired_at, Some(0));
        assert_eq!(sim.nodes()[1].fired_at, None);
        assert_eq!(sim.nodes()[2].fired_at, Some(20));
    }

    #[test]
    fn per_node_tallies_cover_flood() {
        let mut sim = flood_sim(SyncLink, 0);
        sim.run_to_completion();
        let book = sim.costs();
        // Every node broadcast once: tx = its degree; rx = its degree (one
        // copy from each neighbor).
        let graph_degrees: Vec<u64> = (0..16)
            .map(|v| sim.network().topology().graph().degree(v) as u64)
            .collect();
        for (v, &deg) in graph_degrees.iter().enumerate() {
            assert_eq!(book.node(v).tx_packets, deg, "tx of {v}");
            assert_eq!(book.node(v).rx_packets, deg, "rx of {v}");
        }
        assert_eq!(
            book.nodes().iter().map(|n| n.tx_packets).sum::<u64>(),
            book.total_packets()
        );
    }

    #[test]
    fn trace_sink_observes_engine_events() {
        let shared = Arc::new(Mutex::new(CountingTrace::new()));
        let mut sim = flood_sim(SyncLink, 0);
        sim.set_trace(Arc::clone(&shared));
        sim.run_to_completion();
        let trace = *shared.lock().unwrap();
        assert_eq!(trace.sends, 48);
        assert_eq!(trace.delivers, 48);
        assert_eq!(trace.drops, 0);
        assert_eq!(trace.timers, 0);
    }

    #[test]
    fn trace_records_drops_under_loss() {
        let shared = Arc::new(Mutex::new(CountingTrace::new()));
        let mut sim = flood_sim(LossyLink::new(1, 1).with_drop_prob(1.0), 0);
        sim.set_trace(Arc::clone(&shared));
        sim.run_to_completion();
        let trace = *shared.lock().unwrap();
        assert_eq!(trace.sends, 2);
        assert_eq!(trace.drops, 2);
        assert_eq!(trace.delivers, 0);
    }

    /// Regression pin for the multi-hop accounting contract (see
    /// [`crate::trace::CountingTrace`] and [`CostBook`] docs): on a 1×4
    /// line, a unicast 0 → 3 traverses 3 hops. The trace observes ONE
    /// `Send` (per logical message) and ONE `Deliver`; the cost book bills
    /// THREE packets (per link-level transmission: origin + two relays).
    #[test]
    fn multi_hop_contract_trace_per_message_book_per_hop() {
        let shared = Arc::new(Mutex::new(CountingTrace::new()));
        let network = SimNetwork::new(Topology::grid(1, 4));
        let nodes = (0..4).map(|_| Uni { got: false }).collect();
        let mut sim = Simulator::new(network, SyncLink, 0, nodes);
        sim.set_trace(Arc::clone(&shared));
        sim.run_to_completion();
        assert!(sim.nodes()[3].got);
        let trace = *shared.lock().unwrap();
        assert_eq!(trace.sends, 1, "trace counts logical messages");
        assert_eq!(trace.delivers, 1, "relays do not re-trace delivery");
        assert_eq!(
            sim.costs().kind("uni").packets,
            3,
            "cost book bills every link-level transmission"
        );
        // Per-node ledger: origin + both relays each paid one tx.
        for v in 0..3 {
            assert_eq!(sim.costs().node(v).tx_packets, 1, "tx of {v}");
        }
        assert_eq!(sim.costs().node(3).tx_packets, 0);
    }

    #[test]
    fn engine_metrics_record_unicast_hop_histogram() {
        let network = SimNetwork::new(Topology::grid(4, 4));
        let nodes = (0..16).map(|_| Uni { got: false }).collect();
        let mut sim = Simulator::new(network, SyncLink, 0, nodes);
        sim.run_to_completion();
        let h = sim.metrics().histogram("net.unicast_hops").unwrap();
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), 6); // 0 -> 15 on a 4x4 grid
    }

    #[test]
    fn engine_metrics_count_drops_by_reason() {
        let mut sim = flood_sim(LossyLink::new(1, 1).with_drop_prob(1.0), 0);
        sim.run_to_completion();
        assert_eq!(sim.metrics().counter("net.drops.loss"), 2);
        assert_eq!(sim.metrics().counter("net.drops.node_down"), 0);
    }

    #[test]
    fn ctx_phase_marks_land_in_simulator_metrics() {
        struct Phased;
        impl Protocol for Phased {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                ctx.phase_enter("work");
                ctx.set_timer(7, 1);
            }
            fn on_message(&mut self, _f: usize, _m: (), _c: &mut Ctx<'_, ()>) {}
            fn on_timer(&mut self, _t: u64, ctx: &mut Ctx<'_, ()>) {
                ctx.phase_exit("work");
                ctx.metrics().inc("work.done");
            }
        }
        let network = SimNetwork::new(Topology::grid(1, 2));
        let mut sim = Simulator::new(network, SyncLink, 0, vec![Phased, Phased]);
        let elapsed = sim.run_to_completion();
        let p = *sim.metrics().phase("work").unwrap();
        assert_eq!(p.entries, 2);
        assert_eq!((p.first_enter, p.last_exit), (0, 7));
        assert_eq!(p.last_exit, elapsed);
        assert_eq!(sim.metrics().counter("work.done"), 2);
        // take_metrics drains the registry.
        let mut sim2 = sim;
        let taken = sim2.take_metrics();
        assert_eq!(taken.counter("work.done"), 2);
        assert!(sim2.metrics().is_empty());
    }

    /// Tagged sends thread the query id end to end: trace events carry it,
    /// the per-query ledger bills it (per hop, like the wire charge), and
    /// rider co-billing via `attribute_query` stays off the wire aggregates.
    #[test]
    fn tagged_sends_attribute_queries_and_stamp_traces() {
        struct Tagged;
        impl Protocol for Tagged {
            type Msg = u8;
            fn on_start(&mut self, ctx: &mut Ctx<'_, u8>) {
                if ctx.id() == 0 {
                    // 0 -> 3 on a 1x4 line: 3 hops under query 5.
                    assert!(ctx.unicast_tagged(3, 1, "q", 2, 5));
                    ctx.set_timer(1, 0);
                }
            }
            fn on_message(&mut self, _f: usize, _m: u8, _c: &mut Ctx<'_, u8>) {}
            fn on_timer(&mut self, _t: u64, ctx: &mut Ctx<'_, u8>) {
                // Timer callbacks have no delivering message to inherit a tag
                // from; tagged sends close that attribution gap.
                ctx.send_tagged(1, 2, "q", 2, 6);
                // Co-bill query 7 as a rider on the same packet.
                ctx.attribute_query(7, 1, 2);
            }
        }
        let shared = Arc::new(Mutex::new(RingBufferTrace::new(64)));
        let network = SimNetwork::new(Topology::grid(1, 4));
        let nodes = (0..4).map(|_| Tagged).collect();
        let mut sim = Simulator::new(network, SyncLink, 0, nodes);
        sim.set_trace(Arc::clone(&shared));
        sim.run_to_completion();
        let book = sim.costs();
        assert_eq!(book.query(5).packets, 3, "unicast attributes per hop");
        assert_eq!(book.query(5).cost, 6);
        assert_eq!(book.query(6).packets, 1, "timer-callback send attributed");
        assert_eq!(book.query(7).cost, 2, "rider co-billed");
        // Rider attribution never touches wire totals: 3 + 1 packets only.
        assert_eq!(book.kind("q").packets, 4);
        let trace = shared.lock().unwrap();
        let tagged_sends: Vec<Option<u64>> = trace
            .events()
            .filter_map(|e| match e {
                TraceEvent::Send { query, .. } => Some(*query),
                _ => None,
            })
            .collect();
        assert_eq!(tagged_sends, vec![Some(5), Some(6)]);
        let tagged_delivers: Vec<Option<u64>> = trace
            .events()
            .filter_map(|e| match e {
                TraceEvent::Deliver { query, .. } => Some(*query),
                _ => None,
            })
            .collect();
        // The timer send (1 hop, fired at t=1) lands before the 3-hop unicast.
        assert_eq!(tagged_delivers, vec![Some(6), Some(5)]);
    }

    #[test]
    fn is_alive_reflects_link_model() {
        let network = SimNetwork::new(Topology::grid(1, 3));
        let nodes = (0..3).map(|_| Timers { fired_at: None }).collect();
        let link = LossyLink::new(1, 1).with_crash(2, 0, None);
        let sim = Simulator::new(network, link, 0, nodes);
        assert!(sim.is_alive(0));
        assert!(!sim.is_alive(2));
    }

    /// Unicast protocol that counts deliveries — ARQ dedup must keep this
    /// at exactly one even when lost acks force duplicate data copies.
    struct UniCount {
        got: u32,
    }

    impl Protocol for UniCount {
        type Msg = ();

        fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
            if ctx.id() == 0 {
                let far = ctx.n() - 1;
                assert!(ctx.unicast(far, (), "uni", 4));
            }
        }

        fn on_message(&mut self, _from: usize, _msg: (), _ctx: &mut Ctx<'_, ()>) {
            self.got += 1;
        }
    }

    fn arq_uni_sim(
        link: impl Into<Box<dyn LinkModel>>,
        seed: u64,
        n: usize,
    ) -> Simulator<UniCount> {
        let network = SimNetwork::new(Topology::grid(1, n));
        let nodes = (0..n).map(|_| UniCount { got: 0 }).collect();
        let mut sim = Simulator::new(network, link, seed, nodes);
        sim.enable_arq(ArqConfig::default());
        sim
    }

    #[test]
    fn arq_on_loss_free_links_bills_like_unreliable_plus_acks() {
        // 0 -> 3 on a 1x4 line: 3 hops, no loss. The payload bill is
        // identical to the unreliable engine (3 packets x 4 scalars) and the
        // only overhead is one 0-scalar ack per link.
        let mut sim = arq_uni_sim(SyncLink, 0, 4);
        sim.run_to_completion();
        assert_eq!(sim.nodes()[3].got, 1);
        assert_eq!(sim.stats().kind("uni").packets, 3);
        assert_eq!(sim.stats().kind("uni").cost, 12);
        assert_eq!(sim.stats().kind(crate::reliable::KIND_ACK).packets, 3);
        assert_eq!(sim.stats().kind(crate::reliable::KIND_RETX).packets, 0);
        assert_eq!(sim.metrics().counter("net.retx"), 0);
        assert_eq!(sim.metrics().counter("net.timeout"), 0);
        // declare_counter: ARQ counters are present (at 0) even untouched.
        assert!(sim.metrics().counters().any(|(k, _)| k == "net.ack.dup"));
    }

    #[test]
    fn arq_delivers_through_heavy_loss_with_bounded_retries() {
        // Half of all transmissions (data AND acks) die, yet the transfer
        // chain completes: per-link stop-and-wait with 8 retries fails with
        // probability 0.5^9 per link.
        let mut sim = arq_uni_sim(LossyLink::new(1, 1).with_drop_prob(0.5), 1, 4);
        sim.run_to_completion();
        assert_eq!(sim.nodes()[3].got, 1, "dedup must deliver exactly once");
        assert!(sim.metrics().counter("net.retx") > 0, "loss forces retries");
        assert_eq!(sim.metrics().counter("net.timeout"), 0);
        assert_eq!(
            sim.stats().kind(crate::reliable::KIND_RETX).packets,
            sim.metrics().counter("net.retx"),
            "every retransmission is billed under net.retx"
        );
        // First attempt of each of the 3 links is billed under the
        // message's own kind, exactly like an unreliable run.
        assert_eq!(sim.stats().kind("uni").packets, 3);
    }

    #[test]
    fn arq_gives_up_after_retry_budget_and_counts_timeout() {
        // Total blackout: the first link retries max_retries times, then
        // abandons the transfer. Nothing ever crosses.
        let mut sim = arq_uni_sim(LossyLink::new(1, 1).with_drop_prob(1.0), 0, 4);
        sim.run_to_completion();
        assert_eq!(sim.nodes()[3].got, 0);
        assert_eq!(sim.metrics().counter("net.timeout"), 1);
        let retries = u64::from(reliable::MAX_RETRIES);
        assert_eq!(sim.metrics().counter("net.retx"), retries);
        assert_eq!(sim.stats().kind("uni").packets, 1, "first attempt only");
        assert_eq!(
            sim.stats().kind(crate::reliable::KIND_RETX).packets,
            retries
        );
    }

    #[test]
    fn arq_dedup_reacks_duplicate_data_without_redelivery() {
        // Find lost-ack scenarios: scan seeds until a run produces at least
        // one duplicate data copy (sender retried because the ack died), and
        // assert the receiver re-acked it without a second delivery.
        let mut hit = false;
        for seed in 0..64 {
            let mut sim = arq_uni_sim(LossyLink::new(1, 1).with_drop_prob(0.4), seed, 3);
            sim.run_to_completion();
            for node in sim.nodes() {
                assert!(node.got <= 1, "seed {seed}: duplicate delivery");
            }
            if sim.metrics().counter("net.ack.dup") > 0 {
                hit = true;
                break;
            }
        }
        assert!(hit, "no seed in 0..64 exercised the lost-ack path");
    }

    #[test]
    fn arq_trace_contract_one_send_one_deliver_retx_flagged() {
        let shared = Arc::new(Mutex::new(CountingTrace::new()));
        let mut sim = arq_uni_sim(LossyLink::new(1, 1).with_drop_prob(0.5), 1, 4);
        sim.set_trace(Arc::clone(&shared));
        sim.run_to_completion();
        assert_eq!(sim.nodes()[3].got, 1);
        let trace = *shared.lock().unwrap();
        assert_eq!(trace.sends, 1, "one un-flagged Send per logical message");
        assert_eq!(trace.delivers, 1, "relays and dups never re-trace Deliver");
        assert_eq!(
            trace.retx,
            sim.metrics().counter("net.retx"),
            "every retransmission traces a retx-flagged Send"
        );
        assert!(trace.retx > 0);
    }

    #[test]
    fn arq_same_seed_runs_are_identical() {
        let run = |seed: u64| {
            let mut sim = arq_uni_sim(LossyLink::new(1, 3).with_drop_prob(0.3), seed, 6);
            sim.run_to_completion();
            (
                sim.now(),
                sim.stats().total_cost(),
                sim.metrics().counter("net.retx"),
                sim.nodes().iter().map(|n| n.got).collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).0, run(8).0, "different seeds retime the run");
    }

    #[test]
    fn arq_rides_out_a_partition_and_delivers_after_heal() {
        // {0,1} | {2,3} split until t=30: the 1->2 link transfer keeps
        // backing off and its later retransmission lands once the partition
        // heals. No protocol code is involved in the recovery.
        let side = vec![false, false, true, true];
        let link = LossyLink::new(1, 1).with_partition(side, 0, Some(30));
        let mut sim = arq_uni_sim(link, 0, 4);
        sim.run_to_completion();
        assert_eq!(sim.nodes()[3].got, 1, "delivery must resume after heal");
        assert!(sim.metrics().counter("net.retx") > 0);
        assert_eq!(sim.metrics().counter("net.timeout"), 0);
    }

    #[test]
    fn arq_data_into_crashed_node_traces_node_down_drop() {
        // Node 1 is down forever: every attempt of link 0->1 reaches a dead
        // radio. The sender exhausts its retries; each arriving copy is a
        // NodeDown drop, and nothing passes the dead relay.
        let shared = Arc::new(Mutex::new(CountingTrace::new()));
        let link = LossyLink::new(1, 1).with_crash(1, 0, None);
        let mut sim = arq_uni_sim(link, 0, 4);
        sim.set_trace(Arc::clone(&shared));
        sim.run_to_completion();
        assert_eq!(sim.nodes()[3].got, 0);
        assert_eq!(sim.metrics().counter("net.timeout"), 1);
        // max_retries + 1 data copies die at the dead radio, plus node 1's
        // own swallowed Start event.
        let expected = u64::from(reliable::MAX_RETRIES) + 2;
        assert_eq!(sim.metrics().counter("net.drops.node_down"), expected);
        let trace = *shared.lock().unwrap();
        assert_eq!(trace.drops, expected);
    }

    /// Regression for the crash-clearing rule: a timer armed before a crash
    /// window must NOT fire after the node reboots, even though the node is
    /// alive at the fire time (the volatile state that armed it is gone).
    #[test]
    fn timer_armed_before_crash_window_is_cleared_not_fired() {
        let network = SimNetwork::new(Topology::grid(1, 3));
        let nodes = (0..3).map(|_| Timers { fired_at: None }).collect();
        // Node 1 arms its timer at t=0 to fire at t=10, but reboots during
        // [5, 8) — alive again at the fire time.
        let link = LossyLink::new(1, 1).with_crash(1, 5, Some(8));
        let mut sim = Simulator::new(network, link, 0, nodes);
        sim.run_to_completion();
        assert_eq!(sim.nodes()[0].fired_at, Some(0));
        assert_eq!(
            sim.nodes()[1].fired_at,
            None,
            "timer must die with the reboot"
        );
        assert_eq!(sim.nodes()[2].fired_at, Some(20));
        assert_eq!(sim.metrics().counter("net.timers.cleared"), 1);
    }

    #[test]
    fn max_delivery_delay_expands_to_arq_envelope() {
        struct Probe {
            seen: Option<u64>,
        }
        impl Protocol for Probe {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                self.seen = Some(ctx.max_delivery_delay());
            }
            fn on_message(&mut self, _f: usize, _m: (), _c: &mut Ctx<'_, ()>) {}
        }
        let mk = |arq: bool| {
            let network = SimNetwork::new(Topology::grid(1, 2));
            let nodes = (0..2).map(|_| Probe { seen: None }).collect();
            let mut sim = Simulator::new(network, LossyLink::new(1, 3), 0, nodes);
            if arq {
                sim.enable_arq(ArqConfig::default());
            }
            sim.run_to_completion();
            sim.nodes()[0].seen.unwrap()
        };
        assert_eq!(mk(false), 3, "unreliable: plain max hop delay");
        assert_eq!(
            mk(true),
            reliable::worst_case_link_delivery(3),
            "reliable: full backoff envelope"
        );
    }

    // ---- flow-model (FairShareLink) integration ------------------------

    use crate::link::FairShareLink;

    #[test]
    fn flow_unlimited_matches_sync_flood_timing() {
        // Single-flow degenerate case: with no contention every hop costs
        // exactly the one-tick service floor — identical receipt times and
        // wire bill to SyncLink.
        let mut sync = flood_sim(SyncLink, 0);
        let mut flow = flood_sim(FairShareLink::unlimited(), 0);
        sync.run_to_completion();
        flow.run_to_completion();
        let ts: Vec<_> = sync.nodes().iter().map(|n| n.seen).collect();
        let tf: Vec<_> = flow.nodes().iter().map(|n| n.seen).collect();
        assert_eq!(ts, tf, "uncontended flow timing must equal SyncLink");
        assert_eq!(sync.stats().total_cost(), flow.stats().total_cost());
        assert_eq!(flow.metrics().counter("net.queued_ms"), 0);
    }

    #[test]
    fn flow_contention_delays_flood() {
        // Capacity 1 scalar/tick and 1-scalar messages: a node receiving
        // its neighbors' floods over a shared inbound link... every link is
        // point-to-point directed here, so contention arises only when one
        // sender bursts several messages onto the same link. The flood
        // sends one message per link, so instead drive contention with a
        // burst protocol: node 0 sends k messages to node 1 back-to-back.
        struct Burst {
            k: u64,
            arrivals: Vec<SimTime>,
        }
        impl Protocol for Burst {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                if ctx.id() == 0 {
                    for _ in 0..self.k {
                        ctx.send(1, (), "burst", 1);
                    }
                }
            }
            fn on_message(&mut self, _f: usize, _m: (), ctx: &mut Ctx<'_, ()>) {
                self.arrivals.push(ctx.now());
            }
        }
        let network = SimNetwork::new(Topology::grid(1, 2));
        let nodes = (0..2)
            .map(|_| Burst {
                k: 4,
                arrivals: vec![],
            })
            .collect();
        let mut sim = Simulator::new(network, FairShareLink::new(1), 0, nodes);
        sim.run_to_completion();
        // Four 1-scalar transfers sharing 1 scalar/tick: equal split means
        // all four progress together and drain at t=4 (processor sharing,
        // not FIFO) — the *last* completion is what capacity bounds.
        assert_eq!(sim.nodes()[1].arrivals, vec![4, 4, 4, 4]);
        // Each transfer alone would take 1 tick; three extra ticks of
        // queueing each.
        assert_eq!(sim.metrics().counter("net.queued_ms"), 12);
        let util = sim.link_utilization();
        assert_eq!(util.len(), 1);
        assert_eq!(util[0].0, (0, 1));
        assert_eq!(util[0].1.busy_ticks, 4);
        assert_eq!(util[0].1.served_milli, 4000);
        assert_eq!(util[0].1.peak_flows, 4);
    }

    #[test]
    fn flow_unicast_bills_like_per_message_path() {
        // Store-and-forward relaying under an uncontended flow link must
        // charge exactly what the per-message hop walk charges.
        let network = SimNetwork::new(Topology::grid(4, 4));
        let nodes = (0..16).map(|_| Uni { got: false }).collect();
        let mut sim = Simulator::new(network, FairShareLink::unlimited(), 0, nodes);
        sim.run_to_completion();
        assert!(sim.nodes()[15].got);
        assert_eq!(sim.stats().kind("uni").packets, 6);
        assert_eq!(sim.stats().kind("uni").cost, 24);
        assert_eq!(sim.now(), 6, "six store-and-forward legs of one tick");
    }

    #[test]
    fn flow_arq_delivers_and_sizes_rto_from_contention() {
        // ARQ data and acks ride flows; the transfer completes, is acked,
        // and no spurious retransmission fires on an idle link.
        let mut sim = arq_uni_sim(FairShareLink::new(4), 0, 4);
        sim.run_to_completion();
        assert_eq!(sim.nodes()[3].got, 1);
        assert_eq!(sim.metrics().counter("net.retx"), 0);
        assert_eq!(sim.metrics().counter("net.timeout"), 0);
    }

    #[test]
    fn flow_runs_identical_across_scheduler_backends() {
        let run = |kind: SchedulerKind| {
            let network = SimNetwork::new(Topology::grid(4, 4));
            let nodes = (0..16).map(|_| Flood { seen: None }).collect();
            let mut sim = Simulator::new(network, FairShareLink::new(2), 11, nodes);
            sim.set_scheduler(kind);
            let trace = Arc::new(Mutex::new(CountingTrace::new()));
            sim.set_trace(Arc::clone(&trace));
            sim.run_to_completion();
            let counts = *trace.lock().unwrap();
            (
                sim.now(),
                sim.stats().total_cost(),
                sim.nodes().iter().map(|n| n.seen).collect::<Vec<_>>(),
                counts.sends,
                counts.delivers,
                sim.metrics().counter("net.queued_ms"),
            )
        };
        assert_eq!(
            run(SchedulerKind::Heap),
            run(SchedulerKind::Calendar),
            "flow runs must be byte-identical across scheduler backends"
        );
    }

    /// The flow table, not the drawn delay, times a transmission on a link
    /// with a capacity, so the delay range must not matter at all: not
    /// even through the RNG draws that decide which hops drop.
    #[test]
    fn capacity_links_ignore_the_delay_range() {
        let run = |delay_max: u64| {
            let link = LossyLink::new(1, delay_max)
                .with_drop_prob(0.2)
                .with_capacity(2);
            let mut sim = flood_sim(link, 5);
            sim.run_to_completion();
            (
                sim.now(),
                sim.costs().clone(),
                sim.nodes().iter().map(|n| n.seen).collect::<Vec<_>>(),
                sim.metrics().counter("net.drops.loss"),
            )
        };
        assert_eq!(run(1), run(2));
    }

    #[test]
    fn flow_backlog_stretches_max_delivery_delay() {
        // Node 0 bursts 8 one-scalar messages onto a capacity-1 link, then
        // reads the delivery horizon: it must cover the queued backlog, and
        // it must shrink back to the uncontended floor once drained.
        struct Gauge {
            before: Option<u64>,
            during: Option<u64>,
            after: Option<u64>,
        }
        impl Protocol for Gauge {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                if ctx.id() == 0 {
                    self.before = Some(ctx.max_delivery_delay());
                    for _ in 0..8 {
                        ctx.send(1, (), "burst", 1);
                    }
                    self.during = Some(ctx.max_delivery_delay());
                    ctx.set_timer(100, 1);
                }
            }
            fn on_message(&mut self, _f: usize, _m: (), _c: &mut Ctx<'_, ()>) {}
            fn on_timer(&mut self, _t: u64, ctx: &mut Ctx<'_, ()>) {
                self.after = Some(ctx.max_delivery_delay());
            }
        }
        let network = SimNetwork::new(Topology::grid(1, 2));
        let nodes = (0..2)
            .map(|_| Gauge {
                before: None,
                during: None,
                after: None,
            })
            .collect();
        let mut sim = Simulator::new(network, FairShareLink::new(1), 0, nodes);
        sim.run_to_completion();
        let g = &sim.nodes()[0];
        assert_eq!(g.before, Some(1), "idle: uncontended single-scalar floor");
        assert_eq!(g.during, Some(8), "backlog: 8 shared scalars at 1/tick");
        assert_eq!(g.after, Some(1), "drained: back to the floor");
    }

    #[test]
    fn flow_gauges_summarize_utilization() {
        let network = SimNetwork::new(Topology::grid(1, 2));
        let nodes = (0..2).map(|_| Burst2 { k: 3, scalars: 1 }).collect();
        let mut sim = Simulator::new(network, FairShareLink::new(1), 0, nodes);
        sim.run_to_completion();
        sim.record_flow_gauges();
        let m = sim.metrics();
        assert_eq!(m.gauge("net.links.used"), Some(1));
        // Three flows at rate ⌊1000/3⌋ = 333 milli/tick drain at tick 4 —
        // the integer floor forfeits up to k−1 milli-scalars/tick.
        assert_eq!(m.gauge("net.link.busy_peak_ticks"), Some(4));
        assert_eq!(m.gauge("net.link.served_scalars"), Some(3));
        assert_eq!(m.gauge("net.link.peak_flows"), Some(3));
        assert_eq!(m.gauge("net.flows.peak"), Some(3));
        assert_eq!(m.gauge("net.flows.active"), Some(0));
    }

    /// Node 0 sends `k` messages of `scalars` payload scalars to node 1 at
    /// boot, all onto the one directed link `0 → 1`.
    struct Burst2 {
        k: u64,
        scalars: u64,
    }
    impl Protocol for Burst2 {
        type Msg = ();
        fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
            if ctx.id() == 0 {
                for _ in 0..self.k {
                    ctx.send(1, (), "burst", self.scalars);
                }
            }
        }
        fn on_message(&mut self, _f: usize, _m: (), _c: &mut Ctx<'_, ()>) {}
    }

    /// A burst of k equal flows on one link re-predicts every earlier flow
    /// at each arrival. The superseded completions are cancelled, not left
    /// queued: the queue never holds more than the k current predictions
    /// (plus slack for boot), while `net.flow.stale` still counts every
    /// superseded prediction, k(k−1)/2 of them.
    #[test]
    fn superseded_flow_completions_leave_the_queue() {
        // Capacity lcm(1..=16) with flows of the same size: i flows share
        // it exactly, so every flow is predicted to finish at tick i and
        // each arrival moves every sibling.
        const K: u64 = 16;
        const CAP: u64 = 720_720;
        for kind in [SchedulerKind::Heap, SchedulerKind::Calendar] {
            let network = SimNetwork::new(Topology::grid(1, 2));
            let nodes = (0..2).map(|_| Burst2 { k: K, scalars: CAP }).collect();
            let mut sim = Simulator::new(network, FairShareLink::new(CAP), 0, nodes);
            sim.set_scheduler(kind);
            assert_eq!(sim.run_to_completion(), K, "{kind:?}: all drain at K");
            assert_eq!(
                sim.metrics().counter("net.flow.stale"),
                K * (K - 1) / 2,
                "{kind:?}"
            );
            assert!(
                sim.peak_live_events() as u64 <= K + 2,
                "{kind:?}: peak {} live events for {K} flows",
                sim.peak_live_events()
            );
        }
    }

    /// Node 0 arms a short timer and a long one, cancels the long one at
    /// once, and from the short one's handler tries to cancel both again.
    #[derive(Clone, Default)]
    struct Alarm {
        tokens: Vec<TimerToken>,
        cancels: Vec<bool>,
        fired: Vec<(u64, SimTime)>,
    }

    impl Protocol for Alarm {
        type Msg = ();
        fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
            if ctx.id() == 0 {
                self.tokens.push(ctx.set_timer(5, 1));
                self.tokens.push(ctx.set_timer(30, 2));
                let long = self.tokens[1];
                self.cancels.push(ctx.cancel_timer(long));
            }
        }
        fn on_message(&mut self, _f: usize, _m: (), _c: &mut Ctx<'_, ()>) {}
        fn on_timer(&mut self, id: u64, ctx: &mut Ctx<'_, ()>) {
            self.fired.push((id, ctx.now()));
            for t in self.tokens.clone() {
                self.cancels.push(ctx.cancel_timer(t));
            }
        }
    }

    fn alarm_sim(kind: SchedulerKind) -> Simulator<Alarm> {
        let network = SimNetwork::new(Topology::grid(1, 2));
        let mut sim = Simulator::new(network, SyncLink, 0, vec![Alarm::default(); 2]);
        sim.set_scheduler(kind);
        sim
    }

    #[test]
    fn cancelled_timer_never_fires() {
        for kind in [SchedulerKind::Heap, SchedulerKind::Calendar] {
            let mut sim = alarm_sim(kind);
            // The clock stops at the surviving timer: a cancelled one
            // neither fires nor advances simulated time.
            assert_eq!(sim.run_to_completion(), 5, "{kind:?}");
            assert_eq!(sim.nodes()[0].fired, vec![(1, 5)], "{kind:?}");
            assert!(sim.nodes()[0].cancels[0], "{kind:?}: a live timer cancels");
        }
    }

    #[test]
    fn cancelling_a_fired_timer_returns_false() {
        for kind in [SchedulerKind::Heap, SchedulerKind::Calendar] {
            let mut sim = alarm_sim(kind);
            sim.run_to_completion();
            // From the short timer's own handler: it has fired, and the
            // long one is already cancelled.
            assert_eq!(sim.nodes()[0].cancels, vec![true, false, false], "{kind:?}");
        }
    }

    #[test]
    fn cancel_timer_does_nothing_in_capture_mode() {
        let mut sim = alarm_sim(SchedulerKind::Calendar);
        let boot = sim.capture_boot();
        let timers: Vec<SimTime> = boot
            .iter()
            .filter(|ev| ev.is_timer())
            .map(|ev| ev.time())
            .collect();
        assert_eq!(timers, vec![5, 30], "the cancelled timer stays captured");
        assert_eq!(sim.nodes()[0].cancels, vec![false]);
    }

    #[test]
    fn capture_seam_supports_flow_links() {
        let network = SimNetwork::new(Topology::grid(2, 2));
        let nodes = (0..4).map(|_| Flood { seen: None }).collect();
        let mut sim: Simulator<Flood> = Simulator::new(network, FairShareLink::new(4), 0, nodes);
        let boot = sim.capture_boot();
        assert!(!boot.is_empty(), "node 0's flood must be captured");
        assert!(
            boot.iter().all(|ev| ev.is_flow()),
            "under a flow link every captured send is a tentative completion"
        );
        // Snapshot → dispatch → restore → dispatch: the harvest and the
        // contention fingerprint must replay byte-identically, which is
        // exactly the branching the model checker performs.
        let nodes_snap = sim.nodes().to_vec();
        let flows_snap = sim.flows_snapshot();
        let fp = flows_snap.describe(0);
        let first = &boot[0];
        let h1: Vec<String> = sim
            .capture_dispatch(first.time(), first)
            .iter()
            .map(|e| e.describe(0))
            .collect();
        sim.nodes_mut().clone_from_slice(&nodes_snap);
        sim.flows_restore(&flows_snap);
        assert_eq!(sim.flows_snapshot().describe(0), fp, "restore round-trips");
        let h2: Vec<String> = sim
            .capture_dispatch(first.time(), first)
            .iter()
            .map(|e| e.describe(0))
            .collect();
        assert_eq!(h1, h2, "restored flow state replays identically");
    }

    /// At boot every node pings each neighbor and unicasts to every node
    /// exactly three hops away; each unicast is answered once over three
    /// hops. No timers and no self-sends, so every billed hop is either
    /// received or dropped.
    struct Chatter;

    impl Protocol for Chatter {
        type Msg = u8;

        fn on_start(&mut self, ctx: &mut Ctx<'_, u8>) {
            for to in ctx.neighbors().to_vec() {
                ctx.send(to as usize, 0, "ping", 2);
            }
            for dst in 0..ctx.n() {
                if ctx.hops_to(dst) == Some(3) {
                    ctx.unicast(dst, 1, "ask", 3);
                }
            }
        }

        fn on_message(&mut self, from: usize, msg: u8, ctx: &mut Ctx<'_, u8>) {
            if msg == 1 {
                ctx.unicast(from, 2, "answer", 1);
            }
        }
    }

    /// Per-hop conservation on a composed link (loss plus a relay that
    /// crashes after boot), under fixed and capacity pricing alike: every
    /// billed hop ends as a reception, a loss, or a node-down drop.
    #[test]
    fn billed_hops_are_received_or_dropped() {
        for capacity in [None, Some(2)] {
            let mut link = LossyLink::new(1, 2)
                .with_drop_prob(0.15)
                .with_crash(5, 1, None);
            if let Some(c) = capacity {
                link = link.with_capacity(c);
            }
            let network = SimNetwork::new(Topology::grid(4, 4));
            let nodes = (0..16).map(|_| Chatter).collect();
            let mut sim = Simulator::new(network, link, 3, nodes);
            assert_eq!(sim.flow_model(), capacity.is_some());
            sim.run_to_completion();
            let costs = sim.costs();
            let billed: u64 = costs.nodes().iter().map(|n| n.tx_packets).sum();
            let received: u64 = costs.nodes().iter().map(|n| n.rx_packets).sum();
            let loss = sim.metrics().counter("net.drops.loss");
            let node_down = sim.metrics().counter("net.drops.node_down");
            assert!(loss > 0 && node_down > 0, "both drop paths exercised");
            assert!(costs.kind("answer").packets > 0, "unicasts got through");
            assert_eq!(
                billed,
                received + loss + node_down,
                "capacity {capacity:?}: billed {billed}, received {received}, \
                 lost {loss}, node-down {node_down}"
            );
        }
    }
}
