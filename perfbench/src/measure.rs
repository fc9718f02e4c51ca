//! Measurement plumbing: wall-clock sampling, medians, nearest-rank
//! percentiles, the per-run metric sheet, and a timing [`Protocol`]
//! wrapper that attributes host time to protocol handlers from outside the
//! program.

use elink_netsim::{Ctx, Protocol};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

/// Runs `f` and returns its result with the elapsed wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = std::hint::black_box(f());
    (out, start.elapsed().as_secs_f64())
}

/// Runs rounds of `body(round, sub)` over every sub-workload `sub` in
/// `0..subs`: at least one round, and more until `seconds` of wall time
/// have passed. Rounds are never cut short, so every sub-workload is
/// measured equally often. Returns the number of rounds.
pub fn rounds(seconds: f64, subs: usize, mut body: impl FnMut(usize, usize)) -> usize {
    let start = Instant::now();
    let mut round = 0;
    loop {
        for sub in 0..subs {
            body(round, sub);
        }
        round += 1;
        if start.elapsed().as_secs_f64() >= seconds {
            return round;
        }
    }
}

/// Named samples grouped by sub-workload.
#[derive(Debug, Default)]
pub struct Series(BTreeMap<&'static str, Vec<Vec<f64>>>);

impl Series {
    /// Records one sample of `name` for sub-workload `sub`.
    pub fn push(&mut self, name: &'static str, sub: usize, value: f64) {
        let by_sub = self.0.entry(name).or_default();
        if by_sub.len() <= sub {
            by_sub.resize(sub + 1, Vec::new());
        }
        by_sub[sub].push(value);
    }

    /// The mean over sub-workloads of each one's median: the median damps
    /// host noise, the mean averages out how much work each seed draws.
    pub fn typical(&self, name: &str) -> f64 {
        let by_sub = &self.0[name];
        by_sub.iter().map(|s| median(s)).sum::<f64>() / by_sub.len() as f64
    }

    /// The median over every sample of `name`.
    pub fn median(&self, name: &str) -> f64 {
        median(&self.0[name].concat())
    }
}

/// Median of the samples (mean of the middle pair for an even count).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p`% of the
/// samples at or below it, i.e. `sorted[⌈p/100 · n⌉ − 1]`.
pub fn nearest_rank(sorted: &[u64], p: u64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p as usize * sorted.len()).div_ceil(100).max(1);
    sorted[rank - 1]
}

/// One workload's result: every metric it measured, its op accounting, and
/// every correctness problem found.
#[derive(Debug, Default)]
pub struct Sheet {
    /// `(name, unit, value)` in print order.
    pub rows: Vec<(&'static str, &'static str, f64)>,
    /// Free-form lines printed before the metrics.
    pub notes: Vec<String>,
    /// Operations attempted over every measured iteration.
    pub attempted: u64,
    /// Operations that failed over every measured iteration.
    pub failed: u64,
    /// Correctness violations, one line each (empty when correct).
    pub problems: Vec<String>,
}

impl Sheet {
    /// Records one metric.
    pub fn put(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.rows.push((name, unit, value));
    }

    /// Records [`Series::typical`] of each named series of `series`.
    pub fn put_typical(&mut self, series: &Series, rows: &[(&'static str, &'static str)]) {
        for &(name, unit) in rows {
            self.put(name, unit, series.typical(name));
        }
    }

    /// Records a correctness problem.
    pub fn fail(&mut self, problem: String) {
        self.problems.push(problem);
    }
}

/// Host time and call count accumulated by [`Timed`] handlers.
#[derive(Debug, Default)]
pub struct HandlerClock {
    nanos: Cell<u64>,
    calls: Cell<u64>,
}

impl HandlerClock {
    fn add(&self, start: Instant) {
        self.nanos
            .set(self.nanos.get() + start.elapsed().as_nanos() as u64);
        self.calls.set(self.calls.get() + 1);
    }

    /// Seconds spent inside handlers.
    pub fn seconds(&self) -> f64 {
        self.nanos.get() as f64 * 1e-9
    }

    /// Handler invocations.
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }
}

/// Wraps a protocol so every `on_start`/`on_message`/`on_timer` call is
/// timed into a shared [`HandlerClock`]. The wrapped node sees the same
/// context and messages, so a run of wrapped nodes replays the plain run.
pub struct Timed<P> {
    /// The wrapped protocol instance.
    pub inner: P,
    clock: Rc<HandlerClock>,
}

impl<P> Timed<P> {
    /// Wraps every node around one shared clock.
    pub fn wrap(nodes: Vec<P>, clock: &Rc<HandlerClock>) -> Vec<Timed<P>> {
        nodes
            .into_iter()
            .map(|inner| Timed {
                inner,
                clock: Rc::clone(clock),
            })
            .collect()
    }
}

impl<P: Protocol> Protocol for Timed<P> {
    type Msg = P::Msg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
        let start = Instant::now();
        self.inner.on_start(ctx);
        self.clock.add(start);
    }

    fn on_message(&mut self, from: usize, msg: Self::Msg, ctx: &mut Ctx<'_, Self::Msg>) {
        let start = Instant::now();
        self.inner.on_message(from, msg, ctx);
        self.clock.add(start);
    }

    fn on_timer(&mut self, timer: u64, ctx: &mut Ctx<'_, Self::Msg>) {
        let start = Instant::now();
        self.inner.on_timer(timer, ctx);
        self.clock.add(start);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_definition() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&s, 50), 50);
        assert_eq!(nearest_rank(&s, 99), 99);
        assert_eq!(nearest_rank(&[7], 99), 7);
        assert_eq!(nearest_rank(&[1, 2, 3], 50), 2);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
