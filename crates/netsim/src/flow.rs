//! Capacity pricing: the engine-side [`FlowTable`] that prices every
//! transmission on a link with a capacity
//! ([`LossyLink::with_capacity`](crate::LossyLink::with_capacity), or the
//! [`FairShareLink`](crate::FairShareLink) preset).
//!
//! Without a capacity a hop costs a delay drawn once at send time, no
//! matter how much other traffic crosses the same link. That flatters
//! exactly the regime the serving benchmarks care about — heavy load never
//! queues. With a capacity each *directed link* carries an integer number
//! of payload scalars per tick, shared **max-min fairly** across all
//! transfers in flight on that link. With equal-weight transfers on a
//! single resource, the max-min allocation is the equal split
//! `capacity / k`, so a transfer's service rate drops as the link gets
//! busier and recovers as competitors finish.
//!
//! # Mechanics (all integer, deterministic)
//!
//! Work is tracked in **milli-scalars**: a message of `s` payload scalars
//! carries `max(1, s) × 1000` milli-scalars of service demand, and a link
//! of capacity `c` serves `c × 1000` milli-scalars per tick, split evenly
//! (integer floor, minimum 1) among its in-flight transfers. On every
//! *transition* of a link — a flow starting or finishing — the table
//!
//! 1. **settles** elapsed progress (`rate × elapsed`, exact integer
//!    arithmetic) against each flow's remaining demand,
//! 2. **recomputes** each unfinished flow's predicted completion
//!    `now + ⌈remaining / rate⌉`, and
//! 3. **reschedules** a *tentative completion event* for every flow whose
//!    prediction moved, bumping the flow's generation counter. The engine
//!    cancels the superseded event in its scheduler at that moment (and
//!    counts it under `net.flow.stale`), so a dead prediction never
//!    occupies the queue or gets dispatched. The generation stays the
//!    backstop: in the model checker's capture mode nothing is queued or
//!    cancelled, and a superseded event that is dispatched anyway is
//!    recognized as stale and ignored.
//!
//! Between transitions rates are constant, so predictions made at a
//! transition are exact: a completion event that fires with a current
//! generation finds its flow's remaining demand at exactly zero. No floats
//! ever enter an event key, and the scheduler's `(time, seq)` order is the
//! only tiebreak — the model is byte-identical across
//! [`SchedulerKind`](crate::SchedulerKind) backends and across reruns.
//!
//! A flow whose prediction *did not* move keeps its original queued event —
//! and therefore its original queue position. This is what makes the
//! degenerate case collapse exactly onto fixed pricing (see
//! [`FairShareLink::unlimited`](crate::FairShareLink::unlimited) and the
//! differential proptests): with infinite capacity every prediction is
//! `now + 1` forever, nothing is ever invalidated, and the event stream is
//! byte-identical to [`SyncLink`](crate::SyncLink).
//!
//! # What the engine does with it
//!
//! When the installed link advertises [`FlowParams`] (via
//! [`LinkModel::flow_params`](crate::LinkModel::flow_params)), the engine's
//! per-hop step still rolls the fault dice with
//! [`hop`](crate::LinkModel::hop) but ignores its delay, and opens a flow
//! per surviving link-level transmission — protocol sends, unicast relay
//! legs, ARQ data copies and acks alike. Completion dispatches the delivery
//! through the ordinary event path. Contention is observable:
//! `net.queued_ms` counts sojourn ticks in excess of the uncontended
//! service time, `net.flow.sojourn` histograms total per-transfer latency,
//! and [`Simulator::link_utilization`](crate::Simulator::link_utilization)
//! exposes per-link busy time and bytes served. See `docs/SUBSTRATE.md`
//! for the full substrate contract.

use crate::engine::SimTime;
use crate::link::FlowParams;

/// A tentative-completion event's address: which flow, and which
/// *generation* of that flow's prediction. The engine queues
/// `(flow, gen, at, node)` as a `FlowDone` event, cancelling the flow's
/// previous one; if a superseded event fires anyway (capture mode), the
/// generation mismatch marks it stale and it is ignored.
pub type FlowResched = (u32, u32, SimTime, usize);

/// Outcome of starting a flow: where (and when) its tentative completion
/// must be scheduled, plus reschedules for every sibling flow whose
/// prediction moved.
pub struct FlowStarted {
    /// Predicted completion tick of the new flow under current contention
    /// (its first tentative event is included in `resched`).
    pub predicted_finish: SimTime,
    /// Tentative-completion events to (re)schedule, new flow included.
    pub resched: Vec<FlowResched>,
}

/// Outcome of a tentative-completion event firing.
pub enum FlowFired<T> {
    /// The event's generation was invalidated by a later transition —
    /// ignore it; the flow's current tentative event is still pending.
    /// Only reachable in capture mode: outside it the engine cancels
    /// superseded events before they fire.
    Stale,
    /// The flow completed: deliver `payload` now.
    Done {
        /// The continuation the engine stored at flow start.
        payload: T,
        /// Total ticks from flow start to delivery.
        sojourn: u64,
        /// Sojourn ticks in excess of the uncontended service time — the
        /// queueing delay this transfer suffered (`net.queued_ms`).
        queued: u64,
        /// Sibling reschedules (the finisher's departure speeds them up).
        pub_resched: Vec<FlowResched>,
    },
}

/// Cumulative per-link utilization counters (see
/// [`FlowTable::link_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinkUtil {
    /// Ticks during which at least one flow was in flight on the link.
    pub busy_ticks: u64,
    /// Milli-scalars of service actually delivered.
    pub served_milli: u64,
    /// Most flows ever simultaneously in flight on the link.
    pub peak_flows: u64,
}

/// One in-flight transfer.
#[derive(Clone)]
struct Flow<T> {
    /// Directed link the flow occupies.
    link: (u32, u32),
    /// Remaining service demand (milli-scalars).
    remaining_milli: u64,
    /// Generation of the currently valid tentative-completion event.
    gen: u32,
    /// Predicted delivery tick under current contention.
    predicted_finish: SimTime,
    /// Tick the flow was started.
    enqueued: SimTime,
    /// Service ticks the transfer would take alone.
    uncontended: u64,
    /// Engine continuation delivered on completion.
    payload: Option<T>,
}

/// Per-directed-link sharing state.
#[derive(Default, Clone)]
struct LinkState {
    /// Destination of the link (the source is its row in
    /// [`FlowTable::links`]).
    to: u32,
    /// In-flight flow slots, in start order.
    flows: Vec<u32>,
    /// Last settle tick (progress applied up to here).
    last_settle: SimTime,
    util: LinkUtil,
}

/// Engine-side state of the flow model: all in-flight transfers, grouped
/// by directed link, with settle/recompute/reschedule bookkeeping. Owned
/// by the `Simulator` when the installed [`LinkModel`](crate::LinkModel) advertises
/// [`FlowParams`]; generic over the engine's continuation payload `T`.
///
/// Clonable (for `T: Clone`) so the model checker can snapshot the whole
/// contention state into an explored state and restore it before each
/// branched dispatch — see `Simulator::flows_snapshot`.
#[derive(Clone)]
pub struct FlowTable<T> {
    params: FlowParams,
    /// Flow slots; `None` = free. Generations survive slot reuse so a
    /// stale event addressing a recycled slot can never validate.
    flows: Vec<Option<Flow<T>>>,
    free: Vec<u32>,
    /// Every link that ever carried a flow, in one row per source node,
    /// each row sorted by destination: a lookup is a binary search over
    /// one node's out-links, and walking the rows in order visits links in
    /// ascending `(from, to)`.
    links: Vec<Vec<LinkState>>,
    /// Generation watermark per slot (monotone across reuse).
    slot_gen: Vec<u32>,
    active: usize,
    peak_active: usize,
}

impl<T> FlowTable<T> {
    /// An empty table for the given link parameters.
    pub fn new(params: FlowParams) -> Self {
        assert!(params.capacity_milli >= 1, "flow capacity must be >= 1");
        FlowTable {
            params,
            flows: Vec::new(),
            free: Vec::new(),
            links: Vec::new(),
            slot_gen: Vec::new(),
            active: 0,
            peak_active: 0,
        }
    }

    /// The state of `link`, created empty on its first flow.
    fn link_entry(links: &mut Vec<Vec<LinkState>>, (from, to): (u32, u32)) -> &mut LinkState {
        let from = from as usize;
        if from >= links.len() {
            links.resize_with(from + 1, Vec::new);
        }
        let row = &mut links[from];
        let i = match row.binary_search_by_key(&to, |s| s.to) {
            Ok(i) => i,
            Err(i) => {
                row.insert(
                    i,
                    LinkState {
                        to,
                        ..LinkState::default()
                    },
                );
                i
            }
        };
        &mut row[i]
    }

    /// Links that ever carried a flow, ascending by `(from, to)`.
    fn links_in_order(&self) -> impl Iterator<Item = ((u32, u32), &LinkState)> {
        self.links
            .iter()
            .enumerate()
            .flat_map(|(from, row)| row.iter().map(move |s| ((from as u32, s.to), s)))
    }

    /// Applies elapsed progress to every unfinished flow on `link`.
    /// Between transitions the per-flow rate is constant, so this is exact
    /// integer arithmetic: `rate × elapsed`, capped at the remaining
    /// demand.
    fn settle(flows: &mut [Option<Flow<T>>], state: &mut LinkState, rate: u64, now: SimTime) {
        let elapsed = now.saturating_sub(state.last_settle);
        state.last_settle = now;
        if elapsed == 0 || state.flows.is_empty() {
            return;
        }
        state.util.busy_ticks += elapsed;
        let progress = (u128::from(rate) * u128::from(elapsed)).min(u128::from(u64::MAX)) as u64;
        for &slot in &state.flows {
            let Some(flow) = flows.get_mut(slot as usize).and_then(Option::as_mut) else {
                debug_assert!(false, "link membership points at a free slot");
                continue;
            };
            let applied = flow.remaining_milli.min(progress);
            flow.remaining_milli -= applied;
            state.util.served_milli += applied;
        }
    }

    /// Recomputes predicted completions for every unfinished flow on
    /// `link` and returns reschedules for those whose prediction moved
    /// (bumping their generation, which invalidates the queued event).
    /// Flows already drained (`remaining == 0`: their completion event
    /// fires this tick) keep their prediction and their queued event.
    fn recompute(
        flows: &mut [Option<Flow<T>>],
        state: &LinkState,
        rate: u64,
        now: SimTime,
        out: &mut Vec<FlowResched>,
    ) {
        for &slot in &state.flows {
            let Some(flow) = flows.get_mut(slot as usize).and_then(Option::as_mut) else {
                continue;
            };
            if flow.remaining_milli == 0 {
                continue;
            }
            let service = flow.remaining_milli.div_ceil(rate);
            let finish = now + service;
            if finish != flow.predicted_finish {
                flow.gen = flow.gen.wrapping_add(1);
                flow.predicted_finish = finish;
                out.push((slot, flow.gen, finish, flow.link.1 as usize));
            }
        }
    }

    /// Opens a flow of `max(1, scalars)` payload scalars on the directed
    /// link `from → to` at tick `now`, storing `payload` as the engine
    /// continuation to hand back on completion. Returns the new flow's
    /// first tentative-completion event plus reschedules for every sibling
    /// whose prediction the arrival moved.
    pub fn start(
        &mut self,
        from: usize,
        to: usize,
        scalars: u64,
        now: SimTime,
        payload: T,
    ) -> FlowStarted {
        let link = (from as u32, to as u32);
        let size_milli = scalars.max(1).saturating_mul(1000);
        let uncontended = size_milli.div_ceil(self.params.capacity_milli).max(1);

        // Allocate the slot (generation watermark survives reuse).
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                let s = u32::try_from(self.flows.len()).expect("flow slab overflow"); // simlint: allow(no-panic-in-protocol): structural capacity invariant (u32 ids), not a fault path
                self.flows.push(None);
                self.slot_gen.push(0);
                s
            }
        };
        // Resume from the slot's watermark: the recompute below always
        // bumps past it (the placeholder finish never matches), so the new
        // flow's first event outranks every event ever issued for this slot.
        let gen = self.slot_gen[slot as usize];
        self.flows[slot as usize] = Some(Flow {
            link,
            remaining_milli: size_milli,
            gen,
            // Placeholder; recompute below assigns the real prediction and
            // emits the event (`!= finish` for any reachable finish).
            predicted_finish: SimTime::MAX,
            enqueued: now,
            uncontended,
            payload: Some(payload),
        });

        let state = Self::link_entry(&mut self.links, link);
        if state.flows.is_empty() {
            state.last_settle = now;
        }
        // Settle the link under the pre-arrival rate before membership
        // changes (settling reads only the link's members, so the new flow
        // is untouched).
        let pre_rate = (self.params.capacity_milli / state.flows.len().max(1) as u64).max(1);
        Self::settle(&mut self.flows, state, pre_rate, now);
        state.flows.push(slot);
        state.util.peak_flows = state.util.peak_flows.max(state.flows.len() as u64);
        self.active += 1;
        self.peak_active = self.peak_active.max(self.active);

        let rate = (self.params.capacity_milli / state.flows.len().max(1) as u64).max(1);
        let mut resched = Vec::new();
        Self::recompute(&mut self.flows, state, rate, now, &mut resched);
        let predicted_finish = self.flows[slot as usize]
            .as_ref()
            .map(|f| f.predicted_finish)
            .unwrap_or(now + 1);
        FlowStarted {
            predicted_finish,
            resched,
        }
    }

    /// Handles a tentative-completion event for `(slot, gen)` firing at
    /// `now`. A generation mismatch (the prediction was invalidated by a
    /// later transition) returns [`FlowFired::Stale`]; otherwise the flow
    /// is complete — its remaining demand has provably reached zero — and
    /// its payload plus sibling reschedules are returned.
    pub fn fire(&mut self, slot: u32, gen: u32, now: SimTime) -> FlowFired<T> {
        let valid = self
            .flows
            .get(slot as usize)
            .and_then(Option::as_ref)
            .is_some_and(|f| f.gen == gen);
        if !valid {
            return FlowFired::Stale;
        }
        let link = self.flows[slot as usize]
            .as_ref()
            .map(|f| f.link)
            .expect("validated above"); // simlint: allow(no-panic-in-protocol): validated two lines up, cannot fail
        let state = Self::link_entry(&mut self.links, link);
        let rate = (self.params.capacity_milli / state.flows.len().max(1) as u64).max(1);
        Self::settle(&mut self.flows, state, rate, now);

        let mut flow = self.flows[slot as usize].take().expect("validated above"); // simlint: allow(no-panic-in-protocol): validated above, cannot fail
        debug_assert_eq!(
            flow.remaining_milli, 0,
            "a current-generation completion event implies drained demand"
        );
        // Persist the watermark so generations stay monotone across slot
        // reuse — an event queued for any earlier life of this slot can
        // never validate against a later one.
        self.slot_gen[slot as usize] = flow.gen;
        state.flows.retain(|&s| s != slot);
        self.free.push(slot);
        self.active -= 1;

        let rate = (self.params.capacity_milli / state.flows.len().max(1) as u64).max(1);
        let mut resched = Vec::new();
        Self::recompute(&mut self.flows, state, rate, now, &mut resched);

        let sojourn = now.saturating_sub(flow.enqueued);
        FlowFired::Done {
            payload: flow.payload.take().expect("payload taken exactly once"), // simlint: allow(no-panic-in-protocol): set at start, taken only here
            sojourn,
            queued: sojourn.saturating_sub(flow.uncontended),
            pub_resched: resched,
        }
    }

    /// Largest predicted remaining sojourn (predicted finish − `now`)
    /// across all in-flight transfers — the contention-aware delivery
    /// horizon [`Ctx::max_delivery_delay`](crate::Ctx::max_delivery_delay)
    /// reports for flow links. Zero when the network is idle.
    pub fn horizon(&self, now: SimTime) -> u64 {
        self.flows
            .iter()
            .flatten()
            .map(|flow| flow.predicted_finish.saturating_sub(now))
            .max()
            .unwrap_or(0)
    }

    /// Uncontended sojourn of a `scalars`-sized transfer: solo service
    /// time, never below one tick.
    pub fn uncontended_sojourn(&self, scalars: u64) -> u64 {
        let size_milli = scalars.max(1).saturating_mul(1000);
        size_milli.div_ceil(self.params.capacity_milli).max(1)
    }

    /// Number of transfers currently in flight.
    pub fn active(&self) -> usize {
        self.active
    }

    /// Most transfers ever simultaneously in flight.
    pub fn peak_active(&self) -> usize {
        self.peak_active
    }

    /// Cumulative per-link utilization, ascending by `(from, to)`. Links
    /// appear once they have carried at least one flow and persist after
    /// draining, so end-of-run reads see the whole history.
    pub fn link_stats(&self) -> Vec<((usize, usize), LinkUtil)> {
        self.links_in_order()
            .map(|((a, b), s)| ((a as usize, b as usize), s.util))
            .collect()
    }

    /// The installed link parameters.
    pub fn params(&self) -> FlowParams {
        self.params
    }

    /// Canonical description of the full table state with times expressed
    /// relative to `now`, for model-checker state fingerprinting. Covers
    /// everything that can influence future behaviour: every in-flight flow
    /// (slot, generation, link, remaining demand, relative prediction and
    /// age, uncontended envelope), the free-list *in pop order* and the
    /// per-slot generation watermarks (both feed the identity of future
    /// tentative-completion events), and the per-link settle clocks. Two
    /// states that differ only by a uniform time shift describe identically.
    pub fn canonical(&self, now: SimTime) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(out, "fl[c{}", self.params.capacity_milli);
        for ((from, to), state) in self.links_in_order() {
            if state.flows.is_empty() {
                continue;
            }
            let settle = now as i128 - state.last_settle as i128;
            let _ = write!(out, "|{from}>{to}@{settle}:");
            for &slot in &state.flows {
                let Some(flow) = self.flows.get(slot as usize).and_then(Option::as_ref) else {
                    continue;
                };
                let fin = flow.predicted_finish as i128 - now as i128;
                let age = now as i128 - flow.enqueued as i128;
                let _ = write!(
                    out,
                    "(s{slot} g{} r{} f{fin} a{age} u{})",
                    flow.gen, flow.remaining_milli, flow.uncontended
                );
            }
        }
        let _ = write!(out, "|free:");
        for &slot in &self.free {
            let _ = write!(out, "{slot}.");
        }
        let _ = write!(out, "|gen:");
        for &g in &self.slot_gen {
            let _ = write!(out, "{g}.");
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(capacity: u64) -> FlowTable<&'static str> {
        FlowTable::new(FlowParams {
            capacity_milli: capacity * 1000,
        })
    }

    #[test]
    fn solo_flow_serves_at_full_capacity() {
        let mut t = table(4);
        // 8 scalars at 4/tick: 2 ticks of service.
        let started = t.start(0, 1, 8, 10, "a");
        assert_eq!(started.predicted_finish, 12);
        assert_eq!(started.resched, vec![(0, 1, 12, 1)]);
        match t.fire(0, 1, 12) {
            FlowFired::Done {
                payload,
                sojourn,
                queued,
                pub_resched,
            } => {
                assert_eq!(payload, "a");
                assert_eq!(sojourn, 2);
                assert_eq!(queued, 0, "solo flow never queues");
                assert!(pub_resched.is_empty());
            }
            FlowFired::Stale => panic!("current generation must not be stale"),
        }
        assert_eq!(t.active(), 0);
    }

    #[test]
    fn two_flows_share_the_link_equally() {
        let mut t = table(2);
        // Two 2-scalar transfers, same tick: alone each takes 1 tick;
        // sharing, each gets 1 scalar/tick and takes 2.
        let a = t.start(0, 1, 2, 0, "a");
        assert_eq!(a.predicted_finish, 1);
        let b = t.start(0, 1, 2, 0, "b");
        assert_eq!(b.predicted_finish, 2);
        // The arrival of b invalidated a's original prediction (1 → 2).
        assert!(b.resched.contains(&(0, 2, 2, 1)));
        assert!(b.resched.contains(&(1, 1, 2, 1)));
        // a's original event fires stale.
        assert!(matches!(t.fire(0, 1, 1), FlowFired::Stale));
        match t.fire(0, 2, 2) {
            FlowFired::Done {
                payload, queued, ..
            } => {
                assert_eq!(payload, "a");
                assert_eq!(queued, 1, "one tick of queueing behind b");
            }
            FlowFired::Stale => panic!("rescheduled event must be valid"),
        }
        match t.fire(1, 1, 2) {
            FlowFired::Done { payload, .. } => assert_eq!(payload, "b"),
            FlowFired::Stale => panic!("b finishes at its original prediction"),
        }
    }

    #[test]
    fn late_arrival_slows_only_the_remaining_work() {
        let mut t = table(2);
        // a: 4 scalars at 2/tick = 2 ticks solo, starting at 0.
        let a = t.start(0, 1, 4, 0, "a");
        assert_eq!(a.predicted_finish, 2);
        // b arrives at tick 1: a has 2000 milli left, now shared at
        // 1000/tick each → a finishes at 3, b (2 scalars) at 3.
        let b = t.start(0, 1, 2, 1, "b");
        assert_eq!(b.predicted_finish, 3);
        assert!(b.resched.contains(&(0, 2, 3, 1)), "a pushed to tick 3");
        assert!(matches!(t.fire(0, 1, 2), FlowFired::Stale));
        match t.fire(0, 2, 3) {
            FlowFired::Done { sojourn, .. } => assert_eq!(sojourn, 3),
            FlowFired::Stale => panic!("a's rescheduled completion is valid"),
        }
    }

    #[test]
    fn departure_speeds_up_survivors() {
        let mut t = table(2);
        // a: 2 scalars, b: 6 scalars, both at tick 0. Shared at 1/tick:
        // a done at 2; b then owns the link (4 milli-k left at 2/tick).
        t.start(0, 1, 2, 0, "a");
        let b = t.start(0, 1, 6, 0, "b");
        assert_eq!(b.predicted_finish, 6, "b priced at the shared rate");
        let resched = match t.fire(0, 2, 2) {
            FlowFired::Done { pub_resched, .. } => pub_resched,
            FlowFired::Stale => panic!("a completes at 2"),
        };
        // b: 6000 - 2×1000 = 4000 milli left at full 2000/tick → 2 more
        // ticks: finish 4, not 6.
        assert_eq!(resched, vec![(1, 2, 4, 1)]);
        assert!(matches!(t.fire(1, 1, 6), FlowFired::Stale));
        assert!(matches!(t.fire(1, 2, 4), FlowFired::Done { .. }));
    }

    #[test]
    fn links_are_independent() {
        let mut t = table(1);
        let a = t.start(0, 1, 1, 0, "a");
        let b = t.start(0, 2, 1, 0, "b");
        let c = t.start(2, 1, 1, 0, "c");
        // Three different directed links: nobody shares, all finish in 1.
        assert_eq!(a.predicted_finish, 1);
        assert_eq!(b.predicted_finish, 1);
        assert_eq!(c.predicted_finish, 1);
        assert_eq!(b.resched.len(), 1, "no cross-link invalidation");
    }

    #[test]
    fn unlimited_capacity_never_invalidates() {
        let link = crate::LossyLink::from(crate::FairShareLink::unlimited());
        let mut t = FlowTable::new(crate::LinkModel::flow_params(&link).unwrap());
        let a = t.start(0, 1, 50, 7, "a");
        assert_eq!(a.predicted_finish, 8, "service floor is one tick");
        let b = t.start(0, 1, 50, 7, "b");
        assert_eq!(b.predicted_finish, 8);
        assert_eq!(
            b.resched.len(),
            1,
            "arrival must not move the sibling's prediction"
        );
        assert!(matches!(t.fire(0, 1, 8), FlowFired::Done { .. }));
        assert!(matches!(t.fire(1, 1, 8), FlowFired::Done { .. }));
    }

    #[test]
    fn flow_arriving_and_finishing_within_one_tick_takes_the_floor() {
        let mut t = table(1000);
        // A 1-scalar transfer on a 1000-scalar/tick link: service rounds
        // up to the one-tick floor — a flow never finishes the tick it
        // arrives in (delay ≥ 1 engine invariant).
        let a = t.start(0, 1, 1, 5, "a");
        assert_eq!(a.predicted_finish, 6);
        match t.fire(0, 1, 6) {
            FlowFired::Done { sojourn, .. } => assert_eq!(sojourn, 1),
            FlowFired::Stale => panic!("valid"),
        }
    }

    #[test]
    fn stale_generations_never_validate_across_slot_reuse() {
        let mut t = table(1);
        t.start(0, 1, 1, 0, "a");
        assert!(matches!(t.fire(0, 1, 1), FlowFired::Done { .. }));
        // Slot 0 is recycled; its generation watermark advances, so the
        // old (slot 0, gen 1) event can never address the new flow.
        let b = t.start(0, 1, 1, 5, "b");
        assert_eq!(b.resched[0].0, 0, "slot recycled");
        assert_ne!(b.resched[0].1, 1, "generation watermark advanced");
        assert!(matches!(t.fire(0, 1, 6), FlowFired::Stale));
    }

    #[test]
    fn horizon_tracks_the_latest_predicted_finish() {
        let mut t = table(1);
        assert_eq!(t.horizon(0), 0);
        t.start(0, 1, 3, 0, "a");
        t.start(0, 1, 3, 0, "b");
        // Two 3-scalar flows at 1 scalar/tick shared: last finishes at 6.
        assert_eq!(t.horizon(0), 6);
        assert_eq!(t.horizon(4), 2);
    }

    #[test]
    fn utilization_counters_accumulate() {
        let mut t = table(2);
        t.start(0, 1, 2, 0, "a");
        t.start(0, 1, 2, 0, "b");
        assert!(matches!(t.fire(0, 2, 2), FlowFired::Done { .. }));
        assert!(matches!(t.fire(1, 1, 2), FlowFired::Done { .. }));
        let stats = t.link_stats();
        assert_eq!(stats.len(), 1);
        let ((from, to), util) = stats[0];
        assert_eq!((from, to), (0, 1));
        assert_eq!(util.busy_ticks, 2);
        assert_eq!(util.served_milli, 4000);
        assert_eq!(util.peak_flows, 2);
        assert_eq!(t.peak_active(), 2);
    }
}
