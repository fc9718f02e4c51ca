//! Deterministic metrics registry: counters, gauges, histograms and
//! per-phase simulated-time spans.
//!
//! The registry complements [`CostBook`](crate::CostBook): the cost book is
//! the paper's §8.2 message bill (per-kind packets × scalars), while
//! [`Metrics`] answers *where the simulated time goes* (phase spans), *how
//! work is distributed* (histograms, e.g. hops per unicast) and *how often
//! things happen* (counters). Every container is `BTreeMap`-keyed by
//! `&'static str`, so iteration order — and therefore any report rendered
//! from a registry — is deterministic for a given seed (the same invariant
//! simlint's `no-unordered-iteration` rule enforces for protocol state).
//!
//! Wall-clock time deliberately has **no representation here**: netsim is a
//! protocol crate where `Instant` is banned (simlint
//! `no-wall-clock-or-ambient-rng`), and keeping host timing out of the
//! registry is what lets the `elink-bench` gates assert byte-identical
//! metric output across same-seed runs. Harnesses that want wall-clock
//! (the `elink-bench` crate) measure it outside the registry and only
//! print it, never writing it into a committed document.
//!
//! # Phase spans
//!
//! A *phase* is a named interval of simulated time ("growth.l2",
//! "maint.fetch", "query.descent"). Distributed protocols have no single
//! call stack to scope a phase to, so a phase is defined by its *events*:
//! every [`Metrics::phase_enter`] / [`Metrics::phase_exit`] stretches the
//! recorded `[first_enter, last_exit]` envelope, and overlapping activity
//! from many nodes lands in one span. Host-side harness code with a
//! natural scope can use the RAII [`PhaseGuard`] instead:
//!
//! ```
//! use elink_netsim::Metrics;
//!
//! let mut metrics = Metrics::new();
//! metrics.add("updates", 3);
//! metrics.observe("hops", 5);
//! {
//!     // RAII span: enters the phase at t=0, exits when the guard drops.
//!     let mut run = metrics.enter_phase("clustering", 0);
//!     run.at(42); // advance the phase clock as the simulation progresses
//! }
//! let phase = metrics.phase("clustering").unwrap();
//! assert_eq!((phase.first_enter, phase.last_exit), (0, 42));
//! assert_eq!(phase.span(), 42);
//! assert_eq!(metrics.counter("updates"), 3);
//! assert_eq!(metrics.histogram("hops").unwrap().count(), 1);
//! ```

use crate::engine::SimTime;
use std::collections::BTreeMap;

/// Default histogram bucket upper bounds: powers of two through 2¹⁶.
/// Suited to hop counts, message tallies and event counts, which is what
/// the engine and protocols observe.
const DEFAULT_BOUNDS: &[u64] = &[
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536,
];

/// A fixed-bucket histogram over `u64` samples.
///
/// Buckets are defined by strictly increasing *inclusive upper bounds*; a
/// sample lands in the first bucket whose bound is ≥ the sample, and
/// samples above the last bound land in the implicit overflow bucket.
/// Duplicate or unsorted bounds passed to [`Histogram::with_bounds`] are
/// sorted and deduplicated, so zero-width buckets cannot exist by
/// construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bounds: Vec<u64>,
    /// One count per bound, plus the trailing overflow bucket.
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::with_bounds(DEFAULT_BOUNDS)
    }
}

impl Histogram {
    /// An empty histogram with the default power-of-two bounds.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// An empty histogram with the given inclusive upper bounds. Bounds are
    /// sorted and deduplicated; an empty slice yields a histogram with only
    /// the overflow bucket.
    pub fn with_bounds(bounds: &[u64]) -> Histogram {
        let mut bounds = bounds.to_vec();
        bounds.sort_unstable();
        bounds.dedup();
        let buckets = bounds.len() + 1;
        Histogram {
            bounds,
            counts: vec![0; buckets],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let idx = self.bounds.partition_point(|&b| b < value);
        self.counts[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample (`None` before the first record).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample (`None` before the first record).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean sample value (`None` before the first record).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Count of samples that exceeded every bound.
    pub fn overflow(&self) -> u64 {
        // counts is never empty: with_bounds allocates bounds.len() + 1.
        self.counts.last().copied().unwrap_or(0)
    }

    /// Iterates `(inclusive upper bound, count)` per finite bucket, in
    /// bound order. The overflow bucket is reported by
    /// [`Histogram::overflow`].
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.bounds.iter().copied().zip(self.counts.iter().copied())
    }

    /// Merges another histogram's samples into this one. Both histograms
    /// must share identical bounds (merging across different bucket layouts
    /// would silently misbin); mismatched bounds merge only the scalar
    /// summary (count/sum/min/max) and dump bucket counts into overflow.
    pub fn merge(&mut self, other: &Histogram) {
        if self.bounds == other.bounds {
            for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
                *mine += theirs;
            }
        } else if let Some(last) = self.counts.last_mut() {
            *last += other.count;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Accumulated statistics for one named phase.
///
/// The span is an *envelope*: distributed protocols overlap (many nodes
/// grow trees concurrently), so a phase stretches from its earliest enter
/// to its latest exit rather than summing per-node intervals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseStats {
    /// Number of `phase_enter` events recorded.
    pub entries: u64,
    /// Simulated time of the earliest enter.
    pub first_enter: SimTime,
    /// Simulated time of the latest enter or exit.
    pub last_exit: SimTime,
}

impl PhaseStats {
    /// Envelope width in simulated ticks.
    pub fn span(&self) -> u64 {
        self.last_exit.saturating_sub(self.first_enter)
    }
}

/// The deterministic metrics registry. See the [module docs](self) for the
/// design; construction is free and recording never allocates beyond the
/// first touch of each name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, i64>,
    histograms: BTreeMap<&'static str, Histogram>,
    phases: BTreeMap<&'static str, PhaseStats>,
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.phases.is_empty()
    }

    // -- counters ---------------------------------------------------------

    /// Adds `v` to counter `name` (created at zero on first touch).
    pub fn add(&mut self, name: &'static str, v: u64) {
        *self.counters.entry(name).or_insert(0) += v;
    }

    /// Increments counter `name` by one.
    pub fn inc(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Current value of counter `name` (zero if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Registers counter `name` at zero without incrementing it, so it
    /// appears in [`Metrics::counters`] dumps even when the event it counts
    /// never happens (e.g. `net.retx` on a run that needed no
    /// retransmissions). A no-op if the counter already exists.
    pub fn declare_counter(&mut self, name: &'static str) {
        self.counters.entry(name).or_insert(0);
    }

    /// Iterates `(name, value)` over counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(&k, &v)| (k, v))
    }

    // -- gauges -----------------------------------------------------------

    /// Sets gauge `name` to `v` (last write wins).
    pub fn set_gauge(&mut self, name: &'static str, v: i64) {
        self.gauges.insert(name, v);
    }

    /// Current value of gauge `name`.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.get(name).copied()
    }

    /// Iterates `(name, value)` over gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&'static str, i64)> + '_ {
        self.gauges.iter().map(|(&k, &v)| (k, v))
    }

    // -- histograms -------------------------------------------------------

    /// Records `value` into histogram `name`, creating it with the default
    /// power-of-two bounds on first touch.
    pub fn observe(&mut self, name: &'static str, value: u64) {
        self.histograms.entry(name).or_default().record(value);
    }

    /// Pre-registers (or fetches) histogram `name` with explicit bounds.
    /// Bounds only apply on first registration; a later call with different
    /// bounds returns the existing histogram unchanged.
    pub fn histogram_with(&mut self, name: &'static str, bounds: &[u64]) -> &mut Histogram {
        self.histograms
            .entry(name)
            .or_insert_with(|| Histogram::with_bounds(bounds))
    }

    /// Histogram `name`, if any sample or registration touched it.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Iterates `(name, histogram)` in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        self.histograms.iter().map(|(&k, v)| (k, v))
    }

    // -- phases -----------------------------------------------------------

    /// Records a phase-enter event at simulated time `now`: bumps the entry
    /// count and stretches the phase envelope to include `now`.
    pub fn phase_enter(&mut self, name: &'static str, now: SimTime) {
        let p = self.phases.entry(name).or_insert(PhaseStats {
            entries: 0,
            first_enter: now,
            last_exit: now,
        });
        p.entries += 1;
        p.first_enter = p.first_enter.min(now);
        p.last_exit = p.last_exit.max(now);
    }

    /// Records a phase-exit (or activity) event at `now`: stretches the
    /// envelope without counting an entry. Exiting a phase never entered
    /// creates it with zero entries, so marks and enters can be mixed
    /// freely.
    pub fn phase_exit(&mut self, name: &'static str, now: SimTime) {
        let p = self.phases.entry(name).or_insert(PhaseStats {
            entries: 0,
            first_enter: now,
            last_exit: now,
        });
        p.first_enter = p.first_enter.min(now);
        p.last_exit = p.last_exit.max(now);
    }

    /// RAII phase span for host-side harness code: enters `name` at `now`
    /// and exits when the guard drops, at the latest time passed to
    /// [`PhaseGuard::at`] (or `now` if never advanced).
    pub fn enter_phase(&mut self, name: &'static str, now: SimTime) -> PhaseGuard<'_> {
        self.phase_enter(name, now);
        PhaseGuard {
            metrics: self,
            name,
            end: now,
        }
    }

    /// Statistics for phase `name`.
    pub fn phase(&self, name: &str) -> Option<&PhaseStats> {
        self.phases.get(name)
    }

    /// Iterates `(name, stats)` over phases in name order.
    pub fn phases(&self) -> impl Iterator<Item = (&'static str, PhaseStats)> + '_ {
        self.phases.iter().map(|(&k, &v)| (k, v))
    }

    // -- composition ------------------------------------------------------

    /// Merges another registry into this one: counters add, gauges take the
    /// other's value, histograms merge (see [`Histogram::merge`]), phase
    /// envelopes union.
    pub fn merge(&mut self, other: &Metrics) {
        for (k, v) in other.counters() {
            self.add(k, v);
        }
        for (k, v) in other.gauges() {
            self.set_gauge(k, v);
        }
        for (k, h) in other.histograms() {
            self.histograms.entry(k).or_default().merge(h);
        }
        for (k, p) in other.phases() {
            match self.phases.entry(k) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(p);
                }
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    let mine = e.get_mut();
                    mine.entries += p.entries;
                    mine.first_enter = mine.first_enter.min(p.first_enter);
                    mine.last_exit = mine.last_exit.max(p.last_exit);
                }
            }
        }
    }
}

/// RAII span over a phase; created by [`Metrics::enter_phase`]. Dropping
/// the guard records the phase exit at the latest [`PhaseGuard::at`] time.
pub struct PhaseGuard<'a> {
    metrics: &'a mut Metrics,
    name: &'static str,
    end: SimTime,
}

impl PhaseGuard<'_> {
    /// Advances the span's exit time (monotone: earlier times are kept).
    pub fn at(&mut self, now: SimTime) {
        self.end = self.end.max(now);
    }
}

impl Drop for PhaseGuard<'_> {
    fn drop(&mut self) {
        self.metrics.phase_exit(self.name, self.end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // -- histograms -------------------------------------------------------

    #[test]
    fn histogram_bins_inclusively_with_overflow() {
        let mut h = Histogram::with_bounds(&[2, 4, 8]);
        for v in [0, 2, 3, 4, 8, 9, 1000] {
            h.record(v);
        }
        let buckets: Vec<_> = h.buckets().collect();
        assert_eq!(buckets, vec![(2, 2), (4, 2), (8, 1)]);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.count(), 7);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(1000));
    }

    #[test]
    fn zero_width_buckets_are_impossible_by_construction() {
        // Duplicate and unsorted bounds collapse to a sorted, deduped set:
        // no bucket can have an empty value range.
        let h = Histogram::with_bounds(&[4, 2, 4, 4, 2]);
        let bounds: Vec<u64> = h.buckets().map(|(b, _)| b).collect();
        assert_eq!(bounds, vec![2, 4]);
    }

    #[test]
    fn empty_bounds_route_everything_to_overflow() {
        let mut h = Histogram::with_bounds(&[]);
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.buckets().count(), 0);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn extreme_values_saturate_not_wrap() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.sum(), u64::MAX); // saturating
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.max(), Some(u64::MAX));
    }

    #[test]
    fn empty_histogram_has_no_extrema() {
        let h = Histogram::new();
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn histogram_merge_same_bounds_adds_buckets() {
        let mut a = Histogram::with_bounds(&[2, 4]);
        let mut b = Histogram::with_bounds(&[2, 4]);
        a.record(1);
        b.record(3);
        b.record(100);
        a.merge(&b);
        let buckets: Vec<_> = a.buckets().collect();
        assert_eq!(buckets, vec![(2, 1), (4, 1)]);
        assert_eq!(a.overflow(), 1);
        assert_eq!(a.count(), 3);
    }

    #[test]
    fn histogram_merge_mismatched_bounds_keeps_summary() {
        let mut a = Histogram::with_bounds(&[2]);
        let mut b = Histogram::with_bounds(&[8]);
        b.record(5);
        a.merge(&b);
        assert_eq!(a.count(), 1);
        assert_eq!(a.sum(), 5);
        assert_eq!(a.overflow(), 1); // bucket detail degrades to overflow
    }

    // -- counters & gauges ------------------------------------------------

    #[test]
    fn counters_and_gauges_accumulate() {
        let mut m = Metrics::new();
        m.inc("a");
        m.add("a", 4);
        m.set_gauge("g", -3);
        m.set_gauge("g", 7);
        assert_eq!(m.counter("a"), 5);
        assert_eq!(m.counter("missing"), 0);
        assert_eq!(m.gauge("g"), Some(7));
        assert_eq!(m.gauge("missing"), None);
    }

    #[test]
    fn iteration_is_name_ordered() {
        let mut m = Metrics::new();
        m.inc("zebra");
        m.inc("alpha");
        m.observe("m2", 1);
        m.observe("m1", 1);
        let names: Vec<_> = m.counters().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["alpha", "zebra"]);
        let hists: Vec<_> = m.histograms().map(|(k, _)| k).collect();
        assert_eq!(hists, vec!["m1", "m2"]);
    }

    // -- phases -----------------------------------------------------------

    #[test]
    fn phase_envelope_stretches_over_events() {
        let mut m = Metrics::new();
        m.phase_enter("p", 10);
        m.phase_enter("p", 5); // an earlier node entered later in wall order
        m.phase_exit("p", 30);
        m.phase_exit("p", 20); // stale exit does not shrink the envelope
        let p = *m.phase("p").unwrap();
        assert_eq!(p.entries, 2);
        assert_eq!(p.first_enter, 5);
        assert_eq!(p.last_exit, 30);
        assert_eq!(p.span(), 25);
    }

    #[test]
    fn phase_guard_records_on_drop() {
        let mut m = Metrics::new();
        {
            let mut g = m.enter_phase("run", 3);
            g.at(17);
            g.at(11); // monotone: cannot move the end backwards
        }
        let p = *m.phase("run").unwrap();
        assert_eq!((p.entries, p.first_enter, p.last_exit), (1, 3, 17));
    }

    #[test]
    fn phase_guard_without_advance_is_zero_span() {
        let mut m = Metrics::new();
        m.enter_phase("noop", 9);
        let p = *m.phase("noop").unwrap();
        assert_eq!(p.span(), 0);
        assert_eq!(p.entries, 1);
    }

    #[test]
    fn merge_combines_all_families() {
        let mut a = Metrics::new();
        a.add("c", 1);
        a.observe("h", 2);
        a.phase_enter("p", 5);
        let mut b = Metrics::new();
        b.add("c", 2);
        b.set_gauge("g", 4);
        b.observe("h", 100_000);
        b.phase_enter("p", 1);
        b.phase_exit("p", 9);
        a.merge(&b);
        assert_eq!(a.counter("c"), 3);
        assert_eq!(a.gauge("g"), Some(4));
        assert_eq!(a.histogram("h").unwrap().count(), 2);
        let p = *a.phase("p").unwrap();
        assert_eq!((p.entries, p.first_enter, p.last_exit), (2, 1, 9));
    }
}
