//! The virtual network: checker state, realizable transitions, fingerprints.
//!
//! A [`McState`] is one vertex of the schedule graph: protocol node states,
//! the in-flight event multiset, the crashed set, the clock, and the fault
//! budget spent so far. [`McSystem`] knows how to enumerate the *realizable*
//! transitions out of a state and to apply one by running the real handler
//! through the engine's capture seam.
//!
//! # The realizable time model
//!
//! The engine delivers a hop after a delay in `[1, D]` (`D` =
//! `max_hop_delay`) and fires timers at exact ticks, popping same-tick
//! events in insertion order. The checker mirrors that exactly:
//!
//! * **Windowed events** (network messages, `from ≠ node`): captured with
//!   all-ones hop delays, so an event born at `sent` arrives earliest at
//!   `ev.time = sent + hops`; stretching one hop to `D` bounds arrival by
//!   `deadline = ev.time + D − 1`. A delivery may be scheduled at any tick
//!   in that window.
//! * **Exact events** (timers, ARQ timeouts, self-deliveries, externals):
//!   fire at exactly `ev.time`, in engine pop order — the checker never
//!   reorders them against each other.
//! * **Same-tick order**: the engine pops a tick in insertion order
//!   (pre-run injections first, then mid-run pushes in push order). The
//!   checker assigns monotone sequence numbers at harvest — push order —
//!   and only allows a same-tick dispatch whose seq exceeds the previously
//!   dispatched one, so every explored tick ordering is the engine's own.
//!
//! Dispatch always happens at the *earliest* time consistent with the
//! chosen order (canonical timing): the state space enumerates orders, not
//! clock readings. Some engine-realizable same-tick interleavings are
//! thereby excluded by construction (they are engine-deterministic for a
//! fixed delay assignment); see DESIGN.md §12 for the argument.

use std::collections::BTreeSet;
use std::fmt::Debug;
use std::fmt::Write as _;

use elink_netsim::{fnv1a, Canonicalize, FlowsSnapshot, McEvent, Protocol, SimTime, Simulator};

/// How many faults of each class the explorer may inject along one path.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultBudget {
    /// Message deliveries the network may lose.
    pub max_drops: u32,
    /// Messages the network may deliver twice.
    pub max_duplicates: u32,
    /// Nodes that may crash (permanently) before or after a handler.
    pub max_crashes: u32,
}

/// Exploration parameters.
#[derive(Debug, Clone, Copy)]
pub struct McConfig {
    /// The link delay bound `D`; must equal the capture link's
    /// `max_hop_delay` so protocol timeouts are computed for the same delay
    /// envelope the checker explores.
    pub delay_bound: u64,
    /// Fault-injection budget per path.
    pub faults: FaultBudget,
    /// Maximum transitions along one path before it is truncated.
    pub max_depth: usize,
    /// Maximum states expanded before exploration aborts.
    pub max_states: u64,
}

impl McConfig {
    /// Fault-free exploration with the given delay bound and generous
    /// bounds.
    pub fn fault_free(delay_bound: u64) -> Self {
        McConfig {
            delay_bound,
            faults: FaultBudget::default(),
            max_depth: 256,
            max_states: 1_000_000,
        }
    }
}

/// One in-flight event plus the bookkeeping the checker and the replay
/// compiler need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PendingMeta {
    pub seq: u64,
    /// Dispatch time of the transition that created the event (0 for boot,
    /// the injection tick for externals).
    pub sent_at: SimTime,
    /// Enters the engine queue before the run (externals, duplicate
    /// copies): pops first within its tick.
    pub pre_run: bool,
    /// A duplicate copy minted by the fault layer; replayed via
    /// `inject_from` at its dispatch tick, so it has no delivery deadline.
    pub dup: bool,
}

pub(crate) struct Pending<M> {
    pub ev: McEvent<M>,
    pub meta: PendingMeta,
}

impl<M: Clone> Clone for Pending<M> {
    fn clone(&self) -> Self {
        Pending {
            ev: self.ev.clone(),
            meta: self.meta,
        }
    }
}

impl<M> Pending<M> {
    /// Exact-class events fire at `ev.time` in engine order: timers, ARQ
    /// bookkeeping, self/external deliveries (which never touch the radio —
    /// the engine enqueues them at an exact tick), and flow completions
    /// (the contention schedule is physics: a transfer finishes exactly
    /// when the flow table predicted, never earlier or later).
    pub fn exact(&self) -> bool {
        self.ev.is_timer() || self.ev.is_flow() || self.ev.origin() == Some(self.ev.node())
    }

    /// Latest realizable delivery tick for windowed events.
    pub fn deadline(&self, delay_bound: u64) -> SimTime {
        if self.meta.dup {
            SimTime::MAX
        } else {
            self.ev.time() + (delay_bound - 1)
        }
    }

    /// Engine pop order within a tick: pre-run injections first, then push
    /// order.
    pub fn pop_key(&self) -> (SimTime, u8, u64) {
        (
            self.ev.time(),
            if self.meta.pre_run { 0 } else { 1 },
            self.meta.seq,
        )
    }
}

/// One vertex of the schedule graph.
pub struct McState<P: Protocol> {
    /// Protocol state per node (crashed nodes keep their last state).
    pub nodes: Vec<P>,
    pub(crate) pending: Vec<Pending<P::Msg>>,
    /// Permanently crashed nodes.
    pub crashed: BTreeSet<usize>,
    /// Time of the last dispatch.
    pub now: SimTime,
    /// Seq of the last dispatch — same-tick dispatches must exceed it.
    pub(crate) last_seq: u64,
    pub(crate) next_seq: u64,
    /// Drops injected so far along this path.
    pub drops_used: u32,
    /// Duplicates injected so far along this path.
    pub dups_used: u32,
    /// Crashes injected so far along this path.
    pub crashes_used: u32,
    /// Transitions from the initial state.
    pub depth: usize,
    /// Snapshot of the engine's flow table (empty for per-message links):
    /// under a flow-model link the shared contention state is part of the
    /// explored state, restored into the engine before every dispatch.
    pub(crate) flows: FlowsSnapshot<P::Msg>,
}

impl<P: Protocol + Clone> Clone for McState<P>
where
    P::Msg: Clone,
{
    fn clone(&self) -> Self {
        McState {
            nodes: self.nodes.clone(),
            pending: self.pending.clone(),
            crashed: self.crashed.clone(),
            now: self.now,
            last_seq: self.last_seq,
            next_seq: self.next_seq,
            drops_used: self.drops_used,
            dups_used: self.dups_used,
            crashes_used: self.crashes_used,
            depth: self.depth,
            flows: self.flows.clone(),
        }
    }
}

impl<P: Protocol> McState<P> {
    /// No events in flight: a terminal (quiescent) state.
    pub fn quiescent(&self) -> bool {
        self.pending.is_empty()
    }

    /// Number of in-flight events.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// The in-flight entries (replay compiler introspection).
    pub(crate) fn pending_entries(&self) -> &[Pending<P::Msg>] {
        &self.pending
    }
}

/// The kind of a schedule-graph edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransitionKind {
    /// Deliver a windowed message at its earliest realizable tick.
    Deliver,
    /// Fire the next exact-class event at its scheduled tick.
    Fire,
    /// The network loses a message (fault).
    Drop,
    /// The network delivers a second copy of a message (fault).
    Duplicate,
    /// The target node crashes right before handling the event (fault);
    /// the event is lost with it.
    CrashBefore,
    /// The target node handles the event, then crashes (fault); its
    /// outgoing messages survive, its own timers die.
    CrashAfter,
}

/// One edge of the schedule graph: a kind applied to a pending event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    /// What happens.
    pub kind: TransitionKind,
    /// Seq of the pending event it targets.
    pub seq: u64,
}

/// What happened during a logged re-execution of a counterexample path —
/// the replay compiler turns this into link scripts, injections, and an
/// event-count cutoff.
pub(crate) enum LogEvent<M> {
    /// A transition dispatched pending `seq` at tick `at`.
    Dispatched { seq: u64, at: SimTime },
    /// A handler output harvested during a dispatch; `seq` is `None` when
    /// the event was discarded at harvest (destination or relay already
    /// crashed).
    Created { ev: McEvent<M>, seq: Option<u64> },
    /// The fault layer dropped pending `seq`.
    FaultDropped { seq: u64 },
    /// A duplicate copy `new_seq` was minted from pending `of_seq`.
    Duplicated { of_seq: u64, new_seq: u64 },
    /// `node`'s crash window opens at tick `at`.
    Crashed { node: usize, at: SimTime },
    /// Pending `seq` was purged by a crash.
    Purged { seq: u64 },
}

/// The checker's handle on a simulator: initial state plus the drive cycle.
pub struct McSystem<P: Protocol> {
    pub(crate) sim: Simulator<P>,
    init: McState<P>,
    /// Fate log, recorded only during counterexample compilation.
    pub(crate) log: Option<Vec<LogEvent<P::Msg>>>,
}

impl<P> McSystem<P>
where
    P: Protocol + Clone,
    P::Msg: Clone + Debug,
{
    /// Boots every node under capture and seeds the initial in-flight set
    /// with the boot harvest plus `externals` (e.g. query submissions) —
    /// which must all be scheduled at tick ≥ 1, so boot owns tick 0.
    pub fn new(mut sim: Simulator<P>, externals: Vec<(SimTime, usize, P::Msg)>) -> Self {
        let mut pending = Vec::new();
        let mut next_seq = 0u64;
        for (t, node, msg) in &externals {
            assert!(*t >= 1, "externals must be scheduled at tick >= 1");
            pending.push(Pending {
                ev: McEvent::external(*t, *node, msg.clone()),
                meta: PendingMeta {
                    seq: next_seq,
                    sent_at: *t,
                    pre_run: true,
                    dup: false,
                },
            });
            next_seq += 1;
        }
        for ev in sim.capture_boot() {
            pending.push(Pending {
                ev,
                meta: PendingMeta {
                    seq: next_seq,
                    sent_at: 0,
                    pre_run: false,
                    dup: false,
                },
            });
            next_seq += 1;
        }
        let nodes = sim.nodes().to_vec();
        let flows = sim.flows_snapshot();
        McSystem {
            sim,
            init: McState {
                nodes,
                pending,
                crashed: BTreeSet::new(),
                now: 0,
                last_seq: 0,
                next_seq,
                drops_used: 0,
                dups_used: 0,
                crashes_used: 0,
                depth: 0,
                flows,
            },
            log: None,
        }
    }

    /// The state right after boot (before any transition).
    pub fn init_state(&self) -> McState<P> {
        self.init.clone()
    }

    /// The underlying simulator (topology, routing, costs so far).
    pub fn sim(&self) -> &Simulator<P> {
        &self.sim
    }

    /// Asserts the preconditions for *branching* exploration: a
    /// deterministic link (no RNG draws — sibling branches must observe
    /// identical link behaviour) and no ARQ (its engine-side sender state
    /// is not snapshotted). The FIFO schedule needs neither.
    pub fn assert_explorable(&self, config: &McConfig) {
        assert!(
            self.sim.link_deterministic(),
            "branching exploration requires a deterministic link model"
        );
        assert!(
            !self.sim.arq_enabled(),
            "branching exploration does not support ARQ"
        );
        if self.sim.flow_model() {
            // Under a flow link every transmission is a flow continuation
            // dispatched inline by the engine, so the checker's fault layer
            // has no seam to drop, duplicate, or crash-purge individual
            // deliveries without diverging from engine semantics. Contended
            // cells explore contention, fault cells explore faults.
            assert!(
                config.faults.max_drops == 0
                    && config.faults.max_duplicates == 0
                    && config.faults.max_crashes == 0,
                "flow-model exploration must be fault-free (compose faults \
                 in the chaos grid instead)"
            );
        }
        assert_eq!(
            self.sim.max_hop_delay(),
            config.delay_bound,
            "capture link delay bound must match McConfig.delay_bound"
        );
        assert!(config.delay_bound >= 1);
    }

    /// Runs the FIFO-sequential schedule to quiescence: always dispatch the
    /// globally least pending event by engine pop order, at its exact tick,
    /// fault-free. This is byte-identical to
    /// `Simulator::run_to_completion` on the same construction (same link,
    /// seed, ARQ config, injections) — the cross-validation contract.
    /// Returns the simulator for inspection (nodes, costs, trace).
    ///
    /// # Panics
    /// Panics if more than `max_dispatches` events are processed
    /// (livelock guard).
    pub fn run_fifo(mut self, max_dispatches: u64) -> Simulator<P> {
        let mut pending = std::mem::take(&mut self.init.pending);
        let mut next_seq = self.init.next_seq;
        let mut dispatched = 0u64;
        while let Some(i) = (0..pending.len()).min_by_key(|&i| pending[i].pop_key()) {
            let p = pending.remove(i);
            dispatched += 1;
            assert!(dispatched <= max_dispatches, "FIFO schedule livelock?");
            for ev in self.sim.capture_dispatch(p.ev.time(), &p.ev) {
                pending.push(Pending {
                    ev,
                    meta: PendingMeta {
                        seq: next_seq,
                        sent_at: p.ev.time(),
                        pre_run: false,
                        dup: false,
                    },
                });
                next_seq += 1;
            }
        }
        self.sim
    }

    /// Earliest tick the checker may dispatch windowed event `m` in state
    /// `s`, honouring the same-tick insertion-order rule.
    fn earliest(s: &McState<P>, m: &Pending<P::Msg>) -> SimTime {
        let mut t = m.ev.time().max(s.now);
        if m.meta.dup {
            // A duplicate copy is replayed as a pre-run injection, which
            // pops first within its tick — it must open a fresh tick.
            t = t.max(s.now + 1);
        } else if t == s.now && m.meta.seq <= s.last_seq {
            // Same-tick, but the engine already popped past it: next tick.
            t = s.now + 1;
        }
        t
    }

    /// Whether dispatching windowed `m` at `t` keeps every other pending
    /// event schedulable in engine order.
    fn windowed_ok(
        s: &McState<P>,
        m: &Pending<P::Msg>,
        t: SimTime,
        delay_bound: u64,
        strict: bool,
    ) -> bool {
        if t > m.deadline(delay_bound) {
            return false;
        }
        for q in &s.pending {
            if q.meta.seq == m.meta.seq {
                continue;
            }
            if q.exact() {
                // Exact events fire at q.time; the engine pops them before
                // any same-tick event inserted later.
                let ok = t < q.ev.time()
                    || (!strict && t == q.ev.time() && !q.meta.pre_run && q.meta.seq > m.meta.seq);
                if !ok {
                    return false;
                }
            } else {
                let dl = q.deadline(delay_bound);
                let ok = t < dl || (!strict && t == dl && q.meta.seq > m.meta.seq);
                if !ok {
                    return false;
                }
            }
        }
        true
    }

    /// Enumerates the realizable transitions out of `s` in a deterministic
    /// order. Symmetric pending entries (identical canonical descriptors)
    /// generate transitions only for the least seq.
    pub fn transitions(&self, s: &McState<P>, config: &McConfig) -> Vec<Transition> {
        let d = config.delay_bound;
        let mut out = Vec::new();
        let mut seen_desc: BTreeSet<String> = BTreeSet::new();

        // The unique next exact-class event, if schedulable.
        if let Some(e) = s
            .pending
            .iter()
            .filter(|p| p.exact())
            .min_by_key(|p| p.pop_key())
        {
            let t = e.ev.time();
            debug_assert!(
                t > s.now || e.meta.seq > s.last_seq || e.meta.pre_run,
                "exact event stranded behind the clock"
            );
            let ok = s.pending.iter().filter(|q| !q.exact()).all(|q| {
                let dl = q.deadline(d);
                t < dl || (t == dl && (q.meta.seq > e.meta.seq || e.meta.pre_run))
            });
            if ok {
                out.push(Transition {
                    kind: TransitionKind::Fire,
                    seq: e.meta.seq,
                });
                self.push_crash_transitions(s, e, t, config, &mut out);
            }
        }

        for m in s.pending.iter().filter(|p| !p.exact()) {
            if !seen_desc.insert(format!(
                "{}{}{}",
                m.meta.pre_run as u8,
                m.meta.dup as u8,
                m.ev.describe(s.now)
            )) {
                continue;
            }
            let t = Self::earliest(s, m);
            if Self::windowed_ok(s, m, t, d, false) {
                out.push(Transition {
                    kind: TransitionKind::Deliver,
                    seq: m.meta.seq,
                });
                // Crash timing is canonicalized to a fresh tick with strict
                // separation from every other event (a sound subset of
                // crash schedules; see module docs).
                let tc = t.max(s.now + 1);
                if Self::windowed_ok(s, m, tc, d, true) {
                    self.push_crash_transitions(s, m, tc, config, &mut out);
                }
            }
            if s.drops_used < config.faults.max_drops {
                out.push(Transition {
                    kind: TransitionKind::Drop,
                    seq: m.meta.seq,
                });
            }
            if !m.meta.dup && s.dups_used < config.faults.max_duplicates {
                out.push(Transition {
                    kind: TransitionKind::Duplicate,
                    seq: m.meta.seq,
                });
            }
        }
        out
    }

    /// Appends crash-before/crash-after transitions targeting event `p`
    /// (dispatching at `t`) when the budget and tick constraints allow.
    fn push_crash_transitions(
        &self,
        s: &McState<P>,
        p: &Pending<P::Msg>,
        t: SimTime,
        config: &McConfig,
        out: &mut Vec<Transition>,
    ) {
        if s.crashes_used >= config.faults.max_crashes {
            return;
        }
        // A flow completion is link bookkeeping, not a node event: the
        // engine settles the table before any liveness gate, so crashing
        // "before" it would strand the flow in the snapshot and diverge.
        if p.ev.is_flow() {
            return;
        }
        let node = p.ev.node();
        // Crashing needs a fresh tick so the crash window covers whole
        // ticks consistently on replay; exact events cannot move.
        if p.exact() && t <= s.now {
            return;
        }
        out.push(Transition {
            kind: TransitionKind::CrashBefore,
            seq: p.meta.seq,
        });
        // CrashAfter opens its window at t+1; an exact event of the same
        // node at tick t would be delivered by the engine but purged by the
        // checker — forbid that boundary.
        let boundary_exact = s.pending.iter().any(|q| {
            q.meta.seq != p.meta.seq && q.exact() && q.ev.node() == node && q.ev.time() == t
        });
        if !boundary_exact {
            out.push(Transition {
                kind: TransitionKind::CrashAfter,
                seq: p.meta.seq,
            });
        }
    }

    /// The tick a transition dispatches (or injects its fault) at.
    pub fn dispatch_time(&self, s: &McState<P>, tr: Transition) -> SimTime {
        let p = self.pending_by_seq(s, tr.seq);
        match tr.kind {
            TransitionKind::Fire => p.ev.time(),
            TransitionKind::Deliver => Self::earliest(s, p),
            TransitionKind::Drop | TransitionKind::Duplicate => s.now,
            TransitionKind::CrashBefore | TransitionKind::CrashAfter => {
                if p.exact() {
                    p.ev.time()
                } else {
                    Self::earliest(s, p).max(s.now + 1)
                }
            }
        }
    }

    pub(crate) fn pending_by_seq<'a>(&self, s: &'a McState<P>, seq: u64) -> &'a Pending<P::Msg> {
        s.pending
            .iter()
            .find(|p| p.meta.seq == seq)
            .expect("transition targets a live pending event")
    }

    /// Applies `tr` to `s`, running the real handler through the capture
    /// seam when the transition dispatches one. Returns the successor
    /// state.
    pub fn apply(&mut self, s: &McState<P>, tr: Transition) -> McState<P> {
        let mut ns = s.clone();
        ns.depth += 1;
        let at = self.dispatch_time(s, tr);
        let idx = ns
            .pending
            .iter()
            .position(|p| p.meta.seq == tr.seq)
            .expect("transition targets a live pending event");
        match tr.kind {
            TransitionKind::Drop => {
                ns.pending.remove(idx);
                ns.drops_used += 1;
                if let Some(log) = &mut self.log {
                    log.push(LogEvent::FaultDropped { seq: tr.seq });
                }
            }
            TransitionKind::Duplicate => {
                let copy_ev = ns.pending[idx].ev.clone();
                let meta = PendingMeta {
                    seq: ns.next_seq,
                    sent_at: ns.pending[idx].meta.sent_at,
                    pre_run: true,
                    dup: true,
                };
                ns.next_seq += 1;
                ns.dups_used += 1;
                if let Some(log) = &mut self.log {
                    log.push(LogEvent::Duplicated {
                        of_seq: tr.seq,
                        new_seq: meta.seq,
                    });
                }
                ns.pending.push(Pending { ev: copy_ev, meta });
            }
            TransitionKind::Deliver | TransitionKind::Fire => {
                let p = ns.pending.remove(idx);
                self.run_dispatch(&mut ns, &p, at);
            }
            TransitionKind::CrashBefore => {
                let p = ns.pending.remove(idx);
                ns.now = at;
                ns.last_seq = p.meta.seq;
                ns.crashes_used += 1;
                if let Some(log) = &mut self.log {
                    // The target dies with the node: same fate as a purge
                    // (an exact-class target pops as a dead-node drop at
                    // replay and must be counted).
                    log.push(LogEvent::Purged { seq: p.meta.seq });
                }
                self.crash_node(&mut ns, p.ev.node(), at);
            }
            TransitionKind::CrashAfter => {
                let p = ns.pending.remove(idx);
                self.run_dispatch(&mut ns, &p, at);
                ns.crashes_used += 1;
                // Window opens at at+1: the handler's own outputs to other
                // nodes survive (already in flight), its self-state dies.
                self.crash_node(&mut ns, p.ev.node(), at + 1);
            }
        }
        ns
    }

    fn run_dispatch(&mut self, ns: &mut McState<P>, p: &Pending<P::Msg>, at: SimTime) {
        self.sim.nodes_mut().clone_from_slice(&ns.nodes);
        // The capture link is pristine — crash state lives in `ns.crashed`
        // — so install it as the engine's liveness override for this
        // dispatch; otherwise `ctx.is_alive` would report crashed nodes
        // alive during exploration (and the failover paths that replay
        // exercises through scripted link crashes would be unexplorable).
        self.sim.set_dead_override(ns.crashed.iter().copied());
        // Branching exploration shares one engine: restore this state's
        // contention snapshot before the dispatch mutates the flow table,
        // then capture the successor's snapshot after.
        self.sim.flows_restore(&ns.flows);
        let harvested = self.sim.capture_dispatch(at, &p.ev);
        ns.nodes.clone_from_slice(self.sim.nodes());
        ns.flows = self.sim.flows_snapshot();
        ns.now = at;
        ns.last_seq = p.meta.seq;
        if let Some(log) = &mut self.log {
            log.push(LogEvent::Dispatched {
                seq: p.meta.seq,
                at,
            });
        }
        for ev in harvested {
            let to_crashed = ns.crashed.contains(&ev.node());
            // A message routed through an already-crashed relay is swallowed
            // there: it reaches route position i at tick at+i ≥ at+1, and
            // every standing crash window opened at a tick ≤ now+1 ≤ at+1.
            let via_crashed = !to_crashed
                && ev
                    .origin()
                    .is_some_and(|o| o != ev.node() && self.route_hits(o, ev.node(), &ns.crashed));
            if to_crashed || via_crashed {
                // Lost with the dead node/relay; replay scripts the loss.
                if let Some(log) = &mut self.log {
                    log.push(LogEvent::Created { ev, seq: None });
                }
                continue;
            }
            let seq = ns.next_seq;
            ns.next_seq += 1;
            if let Some(log) = &mut self.log {
                log.push(LogEvent::Created {
                    ev: ev.clone(),
                    seq: Some(seq),
                });
            }
            ns.pending.push(Pending {
                ev,
                meta: PendingMeta {
                    seq,
                    sent_at: at,
                    pre_run: false,
                    dup: false,
                },
            });
        }
    }

    /// Whether the route `src → dst` passes through any node in `crashed`
    /// as an intermediate relay.
    fn route_hits(&self, src: usize, dst: usize, crashed: &BTreeSet<usize>) -> bool {
        if crashed.is_empty() || src == dst {
            return false;
        }
        let routing = self.sim.network().routing();
        let mut cur = src;
        while cur != dst {
            let Some(next) = routing.next_hop(cur, dst) else {
                return false;
            };
            if next != dst && crashed.contains(&next) {
                return true;
            }
            cur = next;
        }
        false
    }

    /// Purges events addressed to `node` and in-flight messages whose
    /// remaining route crosses it as a relay.
    fn crash_node(&mut self, ns: &mut McState<P>, node: usize, crash_at: SimTime) {
        ns.crashed.insert(node);
        if let Some(log) = &mut self.log {
            log.push(LogEvent::Crashed { node, at: crash_at });
        }
        let routing = self.sim.network().routing();
        let mut purged = Vec::new();
        ns.pending.retain(|p| {
            let keep = (|| {
                // Flow completions are link bookkeeping, not node events:
                // the table still holds the transfer and must settle it
                // (the continuation's delivery is liveness-gated instead).
                if p.ev.is_flow() {
                    return true;
                }
                if p.ev.node() == node {
                    return false;
                }
                // Duplicate copies replay via direct injection — no relays.
                if p.exact() || p.meta.dup {
                    return true;
                }
                let Some(src) = p.ev.origin() else {
                    return true;
                };
                // Walk the route; with slack on the last hop the message is
                // at route position i at tick sent_at + i. A relay crashed
                // at a tick ≤ that swallows it.
                let mut cur = src;
                let mut i = 0u64;
                while cur != p.ev.node() {
                    let Some(next) = routing.next_hop(cur, p.ev.node()) else {
                        return true;
                    };
                    i += 1;
                    if next != p.ev.node() && next == node && p.meta.sent_at + i >= crash_at {
                        return false;
                    }
                    cur = next;
                }
                true
            })();
            if !keep {
                purged.push(p.meta.seq);
            }
            keep
        });
        if let Some(log) = &mut self.log {
            log.extend(purged.into_iter().map(|seq| LogEvent::Purged { seq }));
        }
    }

    /// FNV-1a fingerprint over the canonicalized state. Node states render
    /// through [`Canonicalize`]; pending events concatenate in seq order
    /// (seq order is behaviourally meaningful — it is engine pop order)
    /// with times relative to `now`, so uniformly time-shifted states
    /// merge.
    pub fn fingerprint(&self, s: &McState<P>) -> u64
    where
        P: Canonicalize,
    {
        let mut out = String::new();
        for (i, node) in s.nodes.iter().enumerate() {
            let _ = write!(out, "n{i}=");
            if s.crashed.contains(&i) {
                out.push_str("x:");
            }
            node.canonicalize(&mut out);
            out.push(';');
        }
        let _ = write!(
            out,
            "|f{}.{}.{}|p:",
            s.drops_used, s.dups_used, s.crashes_used
        );
        for p in &s.pending {
            // A same-tick event the engine already popped past is blocked
            // until the next tick — that distinction is behavioural.
            let blocked = p.ev.time() <= s.now && p.meta.seq <= s.last_seq && !p.meta.pre_run;
            let _ = write!(
                out,
                "[{}{}{}{}]",
                if blocked { "B" } else { "" },
                if p.meta.pre_run { "P" } else { "" },
                if p.meta.dup { "D" } else { "" },
                p.ev.describe(s.now)
            );
        }
        // Flow-model links: the contention snapshot (generation watermarks
        // included) is behavioural state — two states whose tables differ
        // can price or invalidate future transfers differently.
        out.push_str(&s.flows.describe(s.now));
        fnv1a(out.as_bytes())
    }
}
