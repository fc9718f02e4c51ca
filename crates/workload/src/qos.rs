//! Serving QoS policy for the standing-query engine: bounded subscription
//! tables with LRU/popularity eviction, arrival-rate-adaptive batch
//! windows, and per-client admission control that sheds or degrades before
//! overload.
//!
//! This module is *pure policy*: deterministic integer arithmetic over
//! state the protocol hands it, no messaging and no side effects. The
//! mechanics (who sends what when a subscription is shed, evicted, or
//! degraded) live in [`crate::subscribe`] and `protocol.rs`; keeping the
//! policy separate makes every decision unit-testable and keeps the
//! protocol handlers free of tuning arithmetic.
//!
//! # Admission ladder
//!
//! A coordinator admits a new subscription through three gates, evaluated
//! in order (DESIGN.md §14):
//!
//! 1. **Per-client cap** — a client already holding
//!    [`MAX_PER_CLIENT`](crate::qos::MAX_PER_CLIENT) live subscriptions
//!    at this coordinator is *shed* (the registration is refused with an
//!    honest `SubEnd`); one client cannot monopolize the table.
//! 2. **Degrade watermark** — once the table holds
//!    [`DEGRADE_WATERMARK`](crate::qos::DEGRADE_WATERMARK) entries, new
//!    subscriptions are admitted *degraded*: their template is watched
//!    only in the coordinator's own cluster (no backbone fan-out), so they
//!    cost O(1) clusters instead of O(all) and honestly report the reduced
//!    `coverage_milli` that narrower watch implies.
//! 3. **Capacity** — at [`MAX_SUBS`](crate::qos::MAX_SUBS) entries the
//!    table evicts its least-valuable entry (see below) to make room; the
//!    evicted client is told via `SubEnd` rather than silently dropped.
//!
//! # Eviction order
//!
//! The victim is the minimum by `(last_active, pushes, sid)`: least
//! recently active first (LRU), ties broken towards the less popular
//! subscription (fewer delivered pushes), then the smaller id for
//! determinism. Both signals matter: LRU alone would churn out a hot
//! subscription that happens to sit on a quiet template, popularity alone
//! would pin dead subscriptions forever.
//!
//! # Adaptive batch windows
//!
//! [`AdaptiveWindow`] tracks an EWMA of event inter-arrival gaps (integer
//! milli-ticks) and derives a coalescing window that *grows* as arrivals
//! densify: `window = clamp(min, max, min·max / ewma_gap)` with `min` =
//! [`WINDOW_MIN`](crate::qos::WINDOW_MIN) and `max` =
//! [`WINDOW_MAX`](crate::qos::WINDOW_MAX). Sparse churn
//! (gap ≥ `max`) pushes immediately (`min`), a churn storm (gap ≤ `min`)
//! caps the push fan-out rate near `1/max`. The same curve paces both
//! repair descents at watcher roots and push flushes at coordinators.

use elink_netsim::SimTime;

/// Hard capacity of a coordinator's subscription table; at capacity the
/// LRU/popularity victim is evicted to admit a newcomer.
pub const MAX_SUBS: usize = 64;

/// Occupancy at which new subscriptions are admitted *degraded*
/// (local-cluster watch only, honest reduced coverage).
pub const DEGRADE_WATERMARK: usize = 48;

/// Maximum live subscriptions one client may hold at one coordinator;
/// beyond it registrations are shed.
pub const MAX_PER_CLIENT: usize = 8;

/// Minimum coalescing window (ticks) of the adaptive batchers — the
/// latency floor paid under sparse churn.
pub const WINDOW_MIN: SimTime = 1;

/// Maximum coalescing window (ticks) — the push-rate cap under dense churn.
pub const WINDOW_MAX: SimTime = 32;

/// Load ladder: degrade incoming work once `backlog × 1000 ≥
/// DEGRADE_RATIO_MILLI × nominal` — queries answer from the initiator's
/// own cluster only, subscriptions are admitted with a local-cluster watch.
/// 1000 is the idle ratio, so 96 000 degrades at 96× the idle envelope.
///
/// 96× and 128× ([`SHED_RATIO_MILLI`]) are calibrated against the admission
/// arm of the cap-64 contention sweep (`BENCH_contention.json`): a healthy
/// serving wave keeps tens of flows in the air, so the backlog horizon sits
/// well above the idle envelope even far from saturation — thresholds this
/// high stay quiet at light load and fire inside the convex blow-up segment
/// past the queueing knee.
pub const DEGRADE_RATIO_MILLI: u64 = 96_000;

/// Load ladder: shed incoming work once `backlog × 1000 ≥
/// SHED_RATIO_MILLI × nominal` — queries get an immediate honest
/// zero-coverage answer, registrations an immediate refusal.
pub const SHED_RATIO_MILLI: u64 = 128_000;

// The orderings the ladders rely on.
const _: () = assert!(DEGRADE_WATERMARK <= MAX_SUBS);
const _: () = assert!(DEGRADE_RATIO_MILLI <= SHED_RATIO_MILLI);
const _: () = assert!(1 <= WINDOW_MIN && WINDOW_MIN <= WINDOW_MAX);

/// Outcome of the admission ladder for one registration attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Admit with a full (global) template watch.
    Full,
    /// Admit with a local-cluster-only watch (honest reduced coverage).
    Degraded,
    /// Refuse: the client is over its per-client cap.
    Shed,
}

impl Admission {
    /// The more severe of two admission decisions (`Shed` > `Degraded` >
    /// `Full`) — composing independent ladders (table occupancy × link
    /// load) takes the worst verdict.
    pub fn worst(self, other: Admission) -> Admission {
        fn rank(a: Admission) -> u8 {
            match a {
                Admission::Full => 0,
                Admission::Degraded => 1,
                Admission::Shed => 2,
            }
        }
        if rank(other) > rank(self) {
            other
        } else {
            self
        }
    }
}

/// Runs the load ladder: `backlog` is the node's current contention-aware
/// delivery envelope (`Ctx::max_delivery_delay`), `nominal` its idle
/// envelope (`Ctx::nominal_delivery_delay`). Their integer ratio is 1 on
/// an idle network and climbs as transfers pile onto shared links.
/// Pure integer arithmetic — cross-multiplied so no division ever rounds a
/// threshold away, so verdicts are byte-identical across reruns.
// simlint: hot
pub fn admit_load(backlog: u64, nominal: u64) -> Admission {
    let nominal = nominal.max(1);
    let scaled = u128::from(backlog) * 1000;
    if scaled >= u128::from(SHED_RATIO_MILLI) * u128::from(nominal) {
        Admission::Shed
    } else if scaled >= u128::from(DEGRADE_RATIO_MILLI) * u128::from(nominal) {
        Admission::Degraded
    } else {
        Admission::Full
    }
}

/// Runs the admission ladder: `occupancy` is the coordinator's current
/// table size, `client_subs` how many live entries this client already
/// holds there.
// simlint: hot
pub fn admit(occupancy: usize, client_subs: usize) -> Admission {
    if client_subs >= MAX_PER_CLIENT {
        Admission::Shed
    } else if occupancy >= DEGRADE_WATERMARK {
        Admission::Degraded
    } else {
        Admission::Full
    }
}

/// Picks the eviction victim among `(sid, last_active, pushes)` rows:
/// minimum by `(last_active, pushes, sid)`. Returns `None` on an empty
/// iterator. Deterministic for any iteration order.
pub fn evict_victim(rows: impl Iterator<Item = (u64, SimTime, u64)>) -> Option<u64> {
    rows.min_by_key(|&(sid, last_active, pushes)| (last_active, pushes, sid))
        .map(|(sid, _, _)| sid)
}

/// Arrival-rate-adaptive coalescing window (see the module docs for the
/// curve). Deterministic integer arithmetic only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptiveWindow {
    /// EWMA of the inter-arrival gap, in milli-ticks. Seeded at
    /// [`WINDOW_MAX`] ticks so a cold batcher starts at the latency floor.
    ewma_gap_milli: u64,
    last: Option<SimTime>,
}

impl Default for AdaptiveWindow {
    /// A fresh window tracker over `[WINDOW_MIN, WINDOW_MAX]` ticks.
    fn default() -> AdaptiveWindow {
        AdaptiveWindow {
            ewma_gap_milli: WINDOW_MAX * 1000,
            last: None,
        }
    }
}

impl AdaptiveWindow {
    /// Records one arrival at `now`, updating the gap EWMA (weight 1/4 on
    /// the new sample). Same-tick arrivals count as gap 0 and drive the
    /// window towards `max`.
    // simlint: hot
    pub fn observe(&mut self, now: SimTime) {
        if let Some(last) = self.last {
            let gap_milli = now.saturating_sub(last) * 1000;
            self.ewma_gap_milli = (3 * self.ewma_gap_milli + gap_milli) / 4;
        }
        self.last = Some(now);
    }

    /// The current coalescing window: `clamp(min, max, min·max/gap)` over
    /// the EWMA gap.
    // simlint: hot
    pub fn window(&self) -> SimTime {
        let gap = (self.ewma_gap_milli / 1000).max(1);
        (WINDOW_MIN * WINDOW_MAX / gap).clamp(WINDOW_MIN, WINDOW_MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_ladder_order() {
        assert_eq!(admit(0, 0), Admission::Full);
        assert_eq!(
            admit(DEGRADE_WATERMARK - 1, MAX_PER_CLIENT - 1),
            Admission::Full
        );
        assert_eq!(admit(DEGRADE_WATERMARK, 0), Admission::Degraded);
        assert_eq!(admit(MAX_SUBS - 1, MAX_PER_CLIENT - 1), Admission::Degraded);
        // The per-client cap outranks the degrade watermark.
        assert_eq!(admit(0, MAX_PER_CLIENT), Admission::Shed);
        assert_eq!(admit(MAX_SUBS - 1, MAX_PER_CLIENT + 3), Admission::Shed);
    }

    #[test]
    fn load_ladder_thresholds_are_exact() {
        // Idle network: ratio exactly 1000.
        assert_eq!(admit_load(7, 7), Admission::Full);
        // One tick under the degrade threshold (96× of 7 = 672) stays
        // Full; at it, Degraded.
        assert_eq!(admit_load(671, 7), Admission::Full);
        assert_eq!(admit_load(672, 7), Admission::Degraded);
        // At the shed threshold (128× of 7 = 896) exactly, Shed.
        assert_eq!(admit_load(895, 7), Admission::Degraded);
        assert_eq!(admit_load(896, 7), Admission::Shed);
        // A zero nominal (degenerate envelope) must not panic or divide.
        assert_eq!(admit_load(0, 0), Admission::Full);
        assert_eq!(admit_load(127, 0), Admission::Degraded);
        assert_eq!(admit_load(128, 0), Admission::Shed);
        // Saturation-scale backlogs must not overflow.
        assert_eq!(admit_load(u64::MAX, 1), Admission::Shed);
    }

    #[test]
    fn admission_worst_composes() {
        use Admission::*;
        assert_eq!(Full.worst(Degraded), Degraded);
        assert_eq!(Degraded.worst(Full), Degraded);
        assert_eq!(Degraded.worst(Shed), Shed);
        assert_eq!(Shed.worst(Full), Shed);
        assert_eq!(Full.worst(Full), Full);
    }

    #[test]
    fn eviction_is_lru_then_popularity_then_sid() {
        let rows = [(5u64, 40u64, 9u64), (3, 10, 7), (8, 10, 2), (1, 10, 2)];
        // last_active 10 ties → fewest pushes (2) ties → smallest sid.
        assert_eq!(evict_victim(rows.iter().copied()), Some(1));
        assert_eq!(evict_victim(std::iter::empty()), None);
    }

    #[test]
    fn adaptive_window_grows_under_dense_churn() {
        let mut w = AdaptiveWindow::default();
        assert_eq!(
            w.window(),
            WINDOW_MIN,
            "cold batcher sits at the latency floor"
        );
        // Dense arrivals (gap 1 ≪ min·max) push the window to the cap.
        for t in 0..64 {
            w.observe(t);
        }
        assert_eq!(w.window(), WINDOW_MAX);
        // Sparse arrivals decay it back to the floor.
        for k in 0..64 {
            w.observe(1000 + k * 500);
        }
        assert_eq!(w.window(), WINDOW_MIN);
    }

    #[test]
    fn adaptive_window_is_deterministic_and_clamped() {
        let mut a = AdaptiveWindow::default();
        for t in [5, 5, 9, 100, 101] {
            a.observe(t);
            let w = a.window();
            assert!(
                (WINDOW_MIN..=WINDOW_MAX).contains(&w),
                "window {w} out of bounds"
            );
        }
        let mut b = AdaptiveWindow::default();
        for t in [5, 5, 9, 100, 101] {
            b.observe(t);
        }
        assert_eq!(a, b);
    }
}
