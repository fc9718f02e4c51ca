//! The link layer: per-hop delay, loss, node crash/recovery, partitions
//! and optional capacity.
//!
//! A [`LinkModel`] decides, for every attempted hop, whether the transmission
//! is delivered (and after what delay) or dropped, and whether a node is up
//! at a given time. All decisions are driven by the engine's seeded RNG, so a
//! run is fully deterministic per seed.
//!
//! [`LossyLink`] is the one link model of a simulated network: a bounded
//! uniform delay × independent loss × crash and partition schedule ×
//! optional fair-shared capacity. §5's bounded asynchronous setting is
//! `LossyLink::new(min, max)` itself; §4's synchronous setting and the pure
//! contention link are presets that convert into it: [`SyncLink`] (one tick
//! per hop) and [`FairShareLink`] (capacity only). [`ScriptedLink`] is the
//! only other implementation, for model-checker capture and counterexample
//! replay.

use crate::engine::SimTime;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::VecDeque;

/// Outcome of one attempted link-level transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HopOutcome {
    /// The hop succeeds after `delay` ticks (≥ 1).
    Deliver {
        /// Per-hop latency in ticks.
        delay: u64,
    },
    /// The transmission is lost. The sender still pays for it.
    Drop,
}

/// Parameters a capacity-priced link advertises to the engine (see
/// [`LinkModel::flow_params`] and [`LossyLink::with_capacity`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowParams {
    /// Per-directed-link capacity in **milli-scalars per tick** (≥ 1): a
    /// message of `s` payload scalars carries `max(1, s) × 1000`
    /// milli-scalars of service demand.
    pub capacity_milli: u64,
}

/// Per-hop behaviour of the network: latency, loss, and node liveness.
///
/// Implementations must be deterministic given the RNG stream: the engine
/// calls [`LinkModel::hop`] in a fixed order, so identical seeds reproduce
/// identical runs.
pub trait LinkModel {
    /// The largest possible hop delay under this model; protocols use this
    /// for conservative timeouts (e.g. ELink leaf detection, §5).
    fn max_hop_delay(&self) -> u64;

    /// Decides the fate of a transmission `from → to` started at `now`.
    fn hop(&self, from: usize, to: usize, now: SimTime, rng: &mut StdRng) -> HopOutcome;

    /// Whether `node` is up at `time`. Dead nodes receive no deliveries and
    /// their timers are silently dropped while down.
    fn is_alive(&self, _node: usize, _time: SimTime) -> bool {
        true
    }

    /// Whether `node` went down at any point in the window `(after, upto]`.
    /// The engine uses this to clear timers (and ARQ sender state) that were
    /// scheduled before a crash: a reboot loses volatile state, so a timer
    /// armed before the outage must not fire after recovery. `after` is the
    /// scheduling time (the node was necessarily alive then); a crash
    /// starting exactly at `upto` is also covered, though the plain
    /// [`LinkModel::is_alive`] check catches that case first.
    fn crashed_in_window(&self, _node: usize, _after: SimTime, _upto: SimTime) -> bool {
        false
    }

    /// Whether this model never consumes the engine RNG. Branching
    /// exploration (the `elink-mc` checker) requires a deterministic link:
    /// it re-dispatches from saved node state, and an RNG-consuming link
    /// would make sibling branches observe different streams.
    fn is_deterministic(&self) -> bool {
        false
    }

    /// `Some` iff the link has a capacity. The engine then prices every
    /// transmission through its [`FlowTable`](crate::FlowTable) — messages
    /// share the link's capacity and queue behind each other — and uses
    /// [`LinkModel::hop`] only for the fault roll, ignoring its delay.
    fn flow_params(&self) -> Option<FlowParams> {
        None
    }
}

/// A scheduled node outage.
#[derive(Debug, Clone, Copy)]
struct Crash {
    node: usize,
    from: SimTime,
    /// Exclusive recovery time; `None` = never recovers.
    until: Option<SimTime>,
}

/// The entries of `node` in `sorted`, a list ordered by `node_of`: two
/// binary searches instead of a scan of every crash, since liveness is
/// checked on every hop, delivery and timer.
fn node_range<T>(sorted: &[T], node: usize, node_of: impl Fn(&T) -> usize) -> &[T] {
    let lo = sorted.partition_point(|c| node_of(c) < node);
    let hi = lo + sorted[lo..].partition_point(|c| node_of(c) == node);
    &sorted[lo..hi]
}

/// A scheduled network partition: hops crossing between the two sides are
/// dropped during the window.
#[derive(Debug, Clone)]
struct Partition {
    /// `side[v]` = which half of the cut node `v` is on.
    side: Vec<bool>,
    from: SimTime,
    /// Exclusive healing time; `None` = never heals.
    until: Option<SimTime>,
}

/// The link model: bounded uniform delays plus independent per-hop drop
/// probability, scheduled node crashes, an optional partition window and an
/// optional per-link capacity. All randomness comes from the engine's
/// seeded RNG; a loss-free link with a fixed delay or a capacity draws
/// none.
///
/// # Examples
///
/// ```
/// use elink_netsim::{LinkModel, LossyLink};
///
/// // Delays in [1, 4], 20% independent loss, node 5 down during [10, 20).
/// let link = LossyLink::new(1, 4)
///     .with_drop_prob(0.2)
///     .with_crash(5, 10, Some(20));
/// assert_eq!(link.max_hop_delay(), 4);
/// assert!(link.is_alive(5, 9));
/// assert!(!link.is_alive(5, 15));   // down during the window
/// assert!(link.is_alive(5, 20));    // recovered (exclusive end)
/// // State armed before the outage is invalidated by it:
/// assert!(link.crashed_in_window(5, 0, 15));
/// // Random delays and loss consume the RNG; a fixed loss-free link does not.
/// assert!(!link.is_deterministic());
/// assert!(LossyLink::new(1, 1).with_crash(5, 10, None).is_deterministic());
/// ```
#[derive(Debug, Clone)]
pub struct LossyLink {
    delay_min: u64,
    delay_max: u64,
    /// Advertised [`LinkModel::max_hop_delay`]: `delay_max`, or the nominal
    /// timeout envelope a [`FairShareLink`] preset sets (queueing delay
    /// under overload is unbounded, so a capacity link has no hard bound).
    delay_cap: u64,
    drop_prob: f64,
    /// Sorted by node, so liveness checks visit only that node's windows.
    crashes: Vec<Crash>,
    partition: Option<Partition>,
    /// When set, the link also advertises [`FlowParams`]: transmissions are
    /// priced through fair capacity sharing while loss, crash and partition
    /// faults keep deciding *whether* each transmission survives.
    capacity: Option<u64>,
}

impl LossyLink {
    /// Loss-free bounded-delay links; add faults with the builder methods.
    pub fn new(delay_min: u64, delay_max: u64) -> Self {
        assert!(
            delay_min >= 1 && delay_max >= delay_min,
            "need 1 <= delay_min <= delay_max"
        );
        LossyLink {
            delay_min,
            delay_max,
            delay_cap: delay_max,
            drop_prob: 0.0,
            crashes: Vec::new(),
            partition: None,
            capacity: None,
        }
    }

    /// Shares each directed link's bandwidth max-min fairly at `capacity`
    /// payload scalars per tick, while the loss/crash/partition faults
    /// configured on this link stay in force. The engine then prices every
    /// transmission through the flow table and rolls the fault dice
    /// separately per transmission, so queueing collapse and message loss
    /// compose in one run.
    ///
    /// # Panics
    /// Panics if `capacity` is zero (a zero-capacity link cannot deliver).
    pub fn with_capacity(mut self, capacity: u64) -> Self {
        assert!(
            capacity >= 1,
            "link capacity must be >= 1 scalar/tick (zero-capacity links cannot deliver)"
        );
        self.capacity = Some(capacity);
        self
    }

    /// Independent drop probability applied to every hop.
    pub fn with_drop_prob(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "drop probability must be in [0, 1]"
        );
        self.drop_prob = p;
        self
    }

    /// Crashes `node` during `[from, until)`; `until = None` means the node
    /// never recovers.
    pub fn with_crash(mut self, node: usize, from: SimTime, until: Option<SimTime>) -> Self {
        if let Some(u) = until {
            assert!(u > from, "crash window must be non-empty");
        }
        let at = self.crashes.partition_point(|c| c.node <= node);
        self.crashes.insert(at, Crash { node, from, until });
        self
    }

    /// The crash windows of `node`.
    fn crashes_of(&self, node: usize) -> &[Crash] {
        node_range(&self.crashes, node, |c| c.node)
    }

    /// Partitions the network during `[from, until)`: hops between a node
    /// with `side[v] = true` and one with `side[v] = false` are dropped.
    pub fn with_partition(
        mut self,
        side: Vec<bool>,
        from: SimTime,
        until: Option<SimTime>,
    ) -> Self {
        if let Some(u) = until {
            assert!(u > from, "partition window must be non-empty");
        }
        self.partition = Some(Partition { side, from, until });
        self
    }

    fn partition_separates(&self, a: usize, b: usize, time: SimTime) -> bool {
        match &self.partition {
            Some(p) if time >= p.from && p.until.is_none_or(|u| time < u) => p.side[a] != p.side[b],
            _ => false,
        }
    }
}

impl LinkModel for LossyLink {
    fn max_hop_delay(&self) -> u64 {
        self.delay_cap
    }

    fn hop(&self, from: usize, to: usize, now: SimTime, rng: &mut StdRng) -> HopOutcome {
        // Draw the delay first so loss-free and lossy runs with the same
        // seed share the delay stream. A capacity link draws none: the flow
        // table times its transmissions and ignores this delay.
        let delay = if self.capacity.is_some() || self.delay_min == self.delay_max {
            self.delay_min
        } else {
            rng.gen_range(self.delay_min..=self.delay_max)
        };
        if self.partition_separates(from, to, now) {
            return HopOutcome::Drop;
        }
        if self.drop_prob > 0.0 && rng.gen_bool(self.drop_prob) {
            return HopOutcome::Drop;
        }
        HopOutcome::Deliver { delay }
    }

    fn is_alive(&self, node: usize, time: SimTime) -> bool {
        !self
            .crashes_of(node)
            .iter()
            .any(|c| time >= c.from && c.until.is_none_or(|u| time < u))
    }

    fn crashed_in_window(&self, node: usize, after: SimTime, upto: SimTime) -> bool {
        self.crashes_of(node)
            .iter()
            .any(|c| c.from > after && c.from <= upto)
    }

    fn is_deterministic(&self) -> bool {
        (self.capacity.is_some() || self.delay_min == self.delay_max) && self.drop_prob == 0.0
    }

    fn flow_params(&self) -> Option<FlowParams> {
        self.capacity.map(|capacity| FlowParams {
            capacity_milli: capacity.saturating_mul(1000),
        })
    }
}

/// Preset: synchronous loss-free links, every hop takes exactly one tick
/// (§4's "worst-case delay over a hop is a single time unit").
///
/// # Examples
///
/// ```
/// use elink_netsim::{HopOutcome, LinkModel, LossyLink, SyncLink};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let link = LossyLink::from(SyncLink);
/// let mut rng = StdRng::seed_from_u64(0);
/// // Every hop delivers after exactly one tick, for every pair and time.
/// assert_eq!(link.hop(3, 7, 42, &mut rng), HopOutcome::Deliver { delay: 1 });
/// assert_eq!(link.max_hop_delay(), 1);
/// assert!(link.is_deterministic());
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct SyncLink;

impl From<SyncLink> for LossyLink {
    fn from(_: SyncLink) -> Self {
        LossyLink::new(1, 1)
    }
}

/// Preset: loss-free, crash-free links whose only parameter is a capacity.
///
/// Each directed link `(from, to)` owns `capacity` payload scalars per tick
/// of bandwidth, shared max-min (= equally, for equal-weight flows) among
/// the transfers in flight on it (see [`crate::flow`]). Messages therefore
/// queue behind each other instead of sailing through independently: under
/// offered load beyond capacity, sojourn times grow without bound, which is
/// the knee the `contention` bench gate measures. Converts into a
/// [`LossyLink`] with a one-tick delay (no RNG) and the given capacity.
///
/// # Examples
///
/// ```
/// use elink_netsim::{FairShareLink, LinkModel, LossyLink};
///
/// // 8 scalars/tick per directed link.
/// let link = LossyLink::from(FairShareLink::new(8));
/// assert_eq!(link.flow_params().unwrap().capacity_milli, 8_000);
/// assert!(link.is_deterministic());
/// // The advertised hop delay is a nominal 1024-tick envelope.
/// assert_eq!(link.max_hop_delay(), 1024);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct FairShareLink {
    /// Link capacity in payload scalars per tick (≥ 1).
    capacity: u64,
    /// Advertised `max_hop_delay` envelope (nominal, not a hard bound).
    delay_cap: u64,
}

impl FairShareLink {
    /// A fair-sharing link of `capacity` payload scalars per tick per
    /// directed link and the default nominal delay envelope of 1024 ticks.
    ///
    /// # Panics
    /// Panics if `capacity` is zero — a zero-capacity link can never
    /// deliver anything, so constructing one is a configuration bug, not a
    /// runtime condition.
    pub fn new(capacity: u64) -> Self {
        assert!(
            capacity >= 1,
            "FairShareLink capacity must be >= 1 scalar/tick (zero-capacity links cannot deliver)"
        );
        FairShareLink {
            capacity,
            delay_cap: 1024,
        }
    }

    /// Effectively infinite capacity: every transfer is served in the
    /// one-tick floor regardless of concurrency — the same run as
    /// [`SyncLink`], which the differential proptests pin.
    pub fn unlimited() -> Self {
        // Divided by 1000 so capacity_milli cannot overflow u64.
        FairShareLink::new(u64::MAX / 1000)
    }

    /// Overrides the nominal [`max_hop_delay`](LinkModel::max_hop_delay)
    /// envelope (≥ 1). This value feeds legacy static timeout math only;
    /// queueing delay under overload is unbounded, and contention-aware
    /// protocols should consult
    /// [`Ctx::max_delivery_delay`](crate::Ctx::max_delivery_delay).
    pub fn with_delay_cap(mut self, delay_cap: u64) -> Self {
        assert!(delay_cap >= 1, "delay cap must be at least 1");
        self.delay_cap = delay_cap;
        self
    }
}

impl From<FairShareLink> for LossyLink {
    fn from(link: FairShareLink) -> Self {
        LossyLink {
            delay_cap: link.delay_cap,
            ..LossyLink::new(1, 1).with_capacity(link.capacity)
        }
    }
}

/// A fully scripted link: per-directed-pair FIFO queues of hop outcomes,
/// permanent crash points, and a configurable delay bound. The model
/// checker's two hats in one type:
///
/// * **Capture mode** ([`ScriptedLink::pristine`]): empty script — every hop
///   delivers with delay 1, but [`LinkModel::max_hop_delay`] still reports
///   the configured bound `d`, so protocol timeouts are computed for the
///   same delay envelope the checker explores (deliveries reordered within
///   `[send+1, send+d]`).
/// * **Replay mode**: a counterexample compiled into per-pair outcome queues
///   plus crash points makes the ordinary [`crate::Simulator`] reproduce the exact
///   schedule the checker found.
///
/// Unscripted hops (queue exhausted or pair absent) deliver with delay 1.
/// Deterministic: never touches the RNG.
#[derive(Debug, Clone)]
pub struct ScriptedLink {
    max_delay: u64,
    /// Interior-mutable because [`LinkModel::hop`] takes `&self`; the engine
    /// calls it single-threaded.
    script: std::cell::RefCell<std::collections::BTreeMap<(usize, usize), VecDeque<HopOutcome>>>,
    /// `(node, at)` crash points, sorted by node.
    crashes: Vec<(usize, SimTime)>,
}

impl ScriptedLink {
    /// An empty script with the given delay bound (`max_delay ≥ 1`): every
    /// hop delivers with delay 1.
    pub fn pristine(max_delay: u64) -> Self {
        assert!(max_delay >= 1, "delay bound must be at least 1");
        ScriptedLink {
            max_delay,
            script: std::cell::RefCell::new(std::collections::BTreeMap::new()),
            crashes: Vec::new(),
        }
    }

    /// Appends the outcome of the next transmission `from → to`.
    pub fn push_hop(&mut self, from: usize, to: usize, outcome: HopOutcome) {
        if let HopOutcome::Deliver { delay } = outcome {
            assert!(
                delay >= 1 && delay <= self.max_delay,
                "scripted delay {delay} outside [1, {}]",
                self.max_delay
            );
        }
        self.script
            .borrow_mut()
            .entry((from, to))
            .or_default()
            .push_back(outcome);
    }

    /// Crashes `node` permanently from tick `at` onwards.
    pub fn crash(&mut self, node: usize, at: SimTime) {
        let i = self.crashes.partition_point(|&(v, _)| v <= node);
        self.crashes.insert(i, (node, at));
    }

    /// The crash points of `node`.
    fn crashes_of(&self, node: usize) -> &[(usize, SimTime)] {
        node_range(&self.crashes, node, |&(v, _)| v)
    }
}

impl LinkModel for ScriptedLink {
    fn max_hop_delay(&self) -> u64 {
        self.max_delay
    }

    fn hop(&self, from: usize, to: usize, _now: SimTime, _rng: &mut StdRng) -> HopOutcome {
        self.script
            .borrow_mut()
            .get_mut(&(from, to))
            .and_then(|q| q.pop_front())
            .unwrap_or(HopOutcome::Deliver { delay: 1 })
    }

    fn is_alive(&self, node: usize, time: SimTime) -> bool {
        !self.crashes_of(node).iter().any(|&(_, at)| time >= at)
    }

    fn crashed_in_window(&self, node: usize, after: SimTime, upto: SimTime) -> bool {
        self.crashes_of(node)
            .iter()
            .any(|&(_, at)| at > after && at <= upto)
    }

    fn is_deterministic(&self) -> bool {
        true
    }
}

impl From<ScriptedLink> for Box<dyn LinkModel> {
    fn from(link: ScriptedLink) -> Self {
        Box::new(link)
    }
}

impl From<LossyLink> for Box<dyn LinkModel> {
    fn from(link: LossyLink) -> Self {
        Box::new(link)
    }
}

/// The presets box as the [`LossyLink`] they configure.
macro_rules! box_preset {
    ($($preset:ty),*) => {$(
        impl From<$preset> for Box<dyn LinkModel> {
            fn from(preset: $preset) -> Self {
                Box::new(LossyLink::from(preset))
            }
        }
    )*};
}

box_preset!(SyncLink, FairShareLink);

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngCore, SeedableRng};

    #[test]
    fn sync_link_is_unit_delay_and_lossless() {
        let link = LossyLink::from(SyncLink);
        let mut rng = StdRng::seed_from_u64(0);
        for t in 0..50 {
            assert_eq!(
                link.hop(0, 1, t, &mut rng),
                HopOutcome::Deliver { delay: 1 }
            );
        }
        assert_eq!(link.max_hop_delay(), 1);
        assert!(link.is_alive(3, 100));
    }

    #[test]
    fn async_link_stays_in_bounds() {
        let link = LossyLink::new(2, 7);
        let mut rng = StdRng::seed_from_u64(1);
        for t in 0..500 {
            match link.hop(0, 1, t, &mut rng) {
                HopOutcome::Deliver { delay } => assert!((2..=7).contains(&delay)),
                HopOutcome::Drop => panic!("loss-free link dropped"),
            }
        }
        assert_eq!(link.max_hop_delay(), 7);
    }

    #[test]
    fn lossy_drop_probability_is_roughly_honoured() {
        let link = LossyLink::new(1, 1).with_drop_prob(0.3);
        let mut rng = StdRng::seed_from_u64(2);
        let n = 10_000;
        let drops = (0..n)
            .filter(|&t| link.hop(0, 1, t, &mut rng) == HopOutcome::Drop)
            .count();
        let rate = drops as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.03, "drop rate {rate} far from 0.3");
    }

    #[test]
    fn crash_windows_control_liveness() {
        let link = LossyLink::new(1, 1)
            .with_crash(4, 10, Some(20))
            .with_crash(5, 15, None);
        assert!(link.is_alive(4, 9));
        assert!(!link.is_alive(4, 10));
        assert!(!link.is_alive(4, 19));
        assert!(link.is_alive(4, 20));
        assert!(link.is_alive(5, 14));
        assert!(!link.is_alive(5, 1_000_000));
        assert!(link.is_alive(6, 12));
    }

    #[test]
    fn crashed_in_window_detects_outages_between_schedule_and_fire() {
        let link = LossyLink::new(1, 1).with_crash(4, 10, Some(20));
        // Window strictly before the crash opens: clean.
        assert!(!link.crashed_in_window(4, 0, 9));
        // Crash opens inside the window — even if the node is back up by the
        // end of it.
        assert!(link.crashed_in_window(4, 0, 10));
        assert!(link.crashed_in_window(4, 5, 30));
        // Scheduled while the node was already alive again: the crash at 10
        // predates the window, so state armed at 20 survives.
        assert!(!link.crashed_in_window(4, 20, 100));
        // Other nodes are unaffected.
        assert!(!link.crashed_in_window(3, 0, 100));
        // Loss-free models never crash.
        assert!(!LossyLink::from(SyncLink).crashed_in_window(0, 0, u64::MAX));
    }

    #[test]
    fn partition_drops_crossing_hops_during_window() {
        let side = vec![false, false, true, true];
        let link = LossyLink::new(1, 1).with_partition(side, 10, Some(20));
        let mut rng = StdRng::seed_from_u64(3);
        // Before and after the window, crossing hops deliver.
        assert!(matches!(
            link.hop(0, 2, 5, &mut rng),
            HopOutcome::Deliver { .. }
        ));
        assert!(matches!(
            link.hop(0, 2, 20, &mut rng),
            HopOutcome::Deliver { .. }
        ));
        // During the window, crossing hops drop but same-side hops deliver.
        assert_eq!(link.hop(1, 2, 15, &mut rng), HopOutcome::Drop);
        assert!(matches!(
            link.hop(0, 1, 15, &mut rng),
            HopOutcome::Deliver { .. }
        ));
        assert!(matches!(
            link.hop(2, 3, 15, &mut rng),
            HopOutcome::Deliver { .. }
        ));
    }

    #[test]
    fn links_and_presets_box_as_link_models() {
        let sync: Box<dyn LinkModel> = SyncLink.into();
        assert_eq!(sync.max_hop_delay(), 1);
        let asym: Box<dyn LinkModel> = LossyLink::new(1, 5).into();
        assert_eq!(asym.max_hop_delay(), 5);
        let shared: Box<dyn LinkModel> = FairShareLink::new(2).into();
        assert!(shared.flow_params().is_some());
    }

    #[test]
    fn determinism_is_derived_from_delay_spread_and_loss() {
        assert!(LossyLink::from(SyncLink).is_deterministic());
        assert!(LossyLink::from(FairShareLink::new(4)).is_deterministic());
        assert!(LossyLink::new(1, 1)
            .with_crash(2, 5, None)
            .is_deterministic());
        assert!(!LossyLink::new(1, 2).is_deterministic());
        // A capacity link draws no delay, whatever its range.
        assert!(LossyLink::new(1, 2).with_capacity(4).is_deterministic());
        assert!(!LossyLink::new(1, 1).with_drop_prob(0.1).is_deterministic());
    }

    #[test]
    #[should_panic(expected = "capacity must be >= 1")]
    fn zero_capacity_link_is_rejected() {
        let _ = FairShareLink::new(0);
    }

    #[test]
    fn fair_share_preset_keeps_unit_delay_and_nominal_envelope() {
        let link = LossyLink::from(FairShareLink::new(4));
        let mut rng = StdRng::seed_from_u64(5);
        let mut untouched = rng.clone();
        assert_eq!(
            link.hop(0, 1, 0, &mut rng),
            HopOutcome::Deliver { delay: 1 }
        );
        assert_eq!(rng.next_u64(), untouched.next_u64(), "no RNG draw");
        assert_eq!(link.max_hop_delay(), 1024);
        let capped = LossyLink::from(FairShareLink::new(4).with_delay_cap(7));
        assert_eq!(capped.max_hop_delay(), 7);
        assert_eq!(
            capped.flow_params(),
            Some(FlowParams {
                capacity_milli: 4000
            })
        );
    }

    #[test]
    fn same_seed_same_decisions() {
        let link = LossyLink::new(1, 6).with_drop_prob(0.25);
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for t in 0..200 {
            assert_eq!(link.hop(0, 1, t, &mut a), link.hop(0, 1, t, &mut b));
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// The per-node crash index answers every liveness question exactly
        /// as a scan of the whole crash list does, for both link types,
        /// with several windows per node inserted in any order.
        #[test]
        fn indexed_crash_lookup_equals_linear_scan(
            windows in proptest::collection::vec(
                (0usize..6, 0u64..40, 1u64..20, proptest::bool::weighted(0.3)),
                0..24,
            ),
            probes in proptest::collection::vec((0usize..7, 0u64..70, 0u64..70), 1..40),
        ) {
            let mut lossy = LossyLink::new(1, 1);
            let mut scripted = ScriptedLink::pristine(1);
            for &(node, from, len, forever) in &windows {
                lossy = lossy.with_crash(node, from, (!forever).then_some(from + len));
                scripted.crash(node, from);
            }
            let all: Vec<(usize, SimTime, Option<SimTime>)> = windows
                .iter()
                .map(|&(node, from, len, forever)| (node, from, (!forever).then_some(from + len)))
                .collect();
            for &(node, a, b) in &probes {
                let (after, upto) = (a.min(b), a.max(b));
                let down = |v: usize, f: SimTime, u: Option<SimTime>| {
                    v == node && a >= f && u.is_none_or(|u| a < u)
                };
                let opened = |v: usize, f: SimTime| v == node && f > after && f <= upto;
                proptest::prop_assert_eq!(
                    lossy.is_alive(node, a),
                    !all.iter().any(|&(v, f, u)| down(v, f, u))
                );
                proptest::prop_assert_eq!(
                    lossy.crashed_in_window(node, after, upto),
                    all.iter().any(|&(v, f, _)| opened(v, f))
                );
                proptest::prop_assert_eq!(
                    scripted.is_alive(node, a),
                    !all.iter().any(|&(v, f, _)| down(v, f, None))
                );
                proptest::prop_assert_eq!(
                    scripted.crashed_in_window(node, after, upto),
                    all.iter().any(|&(v, f, _)| opened(v, f))
                );
            }
        }
    }
}
