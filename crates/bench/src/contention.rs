//! The offered-load × capacity × admission sweep behind
//! `BENCH_contention.json`.
//!
//! Every per-message link model prices transfers independently, so serving
//! latency is flat in offered load — which hides exactly the regime a
//! shared radio medium cares about. This bench drives the 1k-node serving
//! benchmark (the `workload` gate's deployment) over a
//! [`FairShareLink`](elink_netsim::FairShareLink) and sweeps the open-loop arrival gap across each link
//! capacity: as the offered rate approaches the bottleneck links'
//! capacity, transfers start queueing behind each other, and tail latency
//! leaves the flat region *superlinearly* — the queueing knee.
//!
//! At the saturating capacity
//! ([`ADMISSION_CAPACITY`](crate::contention::ADMISSION_CAPACITY)) every
//! offered load also runs with the load-admission ladder armed (the
//! [`elink_workload::qos::DEGRADE_RATIO_MILLI`] and
//! [`elink_workload::qos::SHED_RATIO_MILLI`] thresholds).
//! That A/B pair shows the cure and its price:
//!
//! * **bounded tail** — with admission on, the p99 of *served* work
//!   (admitted + degraded, shed excluded) must not blow up superlinearly
//!   past saturation the way the admission-off curve does;
//! * **no lost work** — every submission still completes: shed queries
//!   are explicit zero-coverage answers, so `done` matches the off side;
//! * **goodput** — exact (full-coverage) completions per 1000 ticks must
//!   not fall below the admission-off baseline at the heaviest load: the
//!   ladder trades coverage it could not have served in time for
//!   responsiveness, not for throughput.
//!
//! Everything in the report is a function of (deployment seed, workload
//! seed, grid), with no wall-clock fields at all: the
//! `elink-bench --check contention` gate reruns the whole sweep and
//! requires byte-identical documents.

use elink_metric::Absolute;
use elink_netsim::FairShareLink;
use elink_workload::{percentile, Arrival, ServeOptions, SloReport, WorkloadSim, WorkloadSpec};
use std::sync::Arc;

/// Schema identifier of the `BENCH_contention.json` document.
pub const CONTENTION_SCHEMA: &str = "elink-contention/v2";

/// One (capacity, offered-load, ladder-armed) cell of the sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContentionPoint {
    /// Per-directed-link capacity, scalars per tick.
    pub capacity: u64,
    /// Mean open-loop inter-arrival gap (ticks).
    pub mean_gap: u64,
    /// Offered load: queries per 1000 ticks (`1000 / mean_gap`).
    pub offered_milli: u64,
    /// Whether the load-admission ladder was armed.
    pub admission: bool,
    /// Queries completed (must equal the submitted count — contention
    /// shifts time and shedding is explicit completion, never loss).
    pub done: u64,
    /// Load ladder full-scope admissions (equals `done` when disarmed).
    pub admitted: u64,
    /// Load ladder degradations (local-cluster answers).
    pub degraded: u64,
    /// Load ladder sheds (immediate explicit zero-coverage answers).
    pub shed: u64,
    /// Completions with full coverage (exact answers).
    pub exact: u64,
    /// Median query latency (ticks).
    pub p50: u64,
    /// 90th-percentile query latency (ticks).
    pub p90: u64,
    /// 99th-percentile query latency (ticks).
    pub p99: u64,
    /// Maximum query latency (ticks).
    pub max: u64,
    /// Median latency of *served* queries (shed excluded), ticks.
    pub served_p50: u64,
    /// 99th-percentile latency of served queries, ticks.
    pub served_p99: u64,
    /// Maximum latency of served queries, ticks.
    pub served_max: u64,
    /// Achieved throughput, completions per 1000 ticks.
    pub throughput_milli: u64,
    /// Exact answers per 1000 ticks — the goodput the admission gate
    /// compares.
    pub goodput_milli: u64,
    /// Final simulated tick.
    pub sim_ticks: u64,
    /// Total excess queueing across all transfers (ticks spent waiting
    /// behind other flows) — the direct congestion integral.
    pub queued_ms: u64,
    /// Directed links that carried at least one flow.
    pub links_used: i64,
    /// Busy ticks on the busiest single link (the bottleneck residency).
    pub link_busy_peak: i64,
    /// Peak concurrent flows on any single link.
    pub link_peak_flows: i64,
    /// Engine events dispatched over the run.
    pub events: u64,
    /// Most events queued at once over the run.
    pub peak_events: u64,
}

/// The sweep grid: each capacity is swept over every arrival gap, heaviest
/// load last. The two capacities play different roles: the *smaller* one
/// saturates the deployment's bottleneck links inside the sweep, so its
/// p99 curve bends upward (the knee); the *larger* one clears the heaviest
/// offered load with headroom, so its curve stays flat — the control that
/// shows the bend is contention, not protocol overhead.
pub const CAPACITIES: [u64; 2] = [64, 256];
/// Open-loop mean inter-arrival gaps (ticks), lightest load first.
pub const MEAN_GAPS: [u64; 4] = [48, 12, 3, 1];
/// The capacity swept with the load-admission ladder both off and on: the
/// saturating one (the 256 control never congests, so admission would be
/// a no-op there).
pub const ADMISSION_CAPACITY: u64 = CAPACITIES[0];

/// The serving preset shared by every cell: the `workload` gate's 1k-node
/// terrain deployment, 120 mixed queries, query-only (updates would blur
/// the latency attribution), recovery off so backlogged queries wait
/// rather than give up.
fn preset(mean_gap: u64) -> (WorkloadSpec, f64) {
    let mut spec = WorkloadSpec::quick(42);
    spec.n_queries = 120;
    spec.n_updates = 0;
    spec.arrival = Arrival::Open { mean_gap };
    (spec, 300.0)
}

/// Runs one cell of the sweep over a prebuilt terrain dataset.
pub fn run_point(
    data: &elink_datasets::TerrainDataset,
    capacity: u64,
    mean_gap: u64,
    admission: bool,
) -> ContentionPoint {
    let (spec, delta) = preset(mean_gap);
    let mut opts = ServeOptions::for_delta(delta);
    opts.load_admission = admission;
    let sim = WorkloadSim::build_with_link(
        data.topology().clone(),
        data.features(),
        Arc::new(Absolute),
        delta,
        &spec,
        opts,
        FairShareLink::new(capacity),
        None,
    );
    let run = sim.run_concurrent();
    // Reuse the SLO folding for the percentile math over every completion.
    let slo = SloReport::from_run(&run);
    let mut served: Vec<u64> = run
        .completed
        .iter()
        .filter(|c| !c.shed)
        .map(|c| c.finished - c.submitted)
        .collect();
    served.sort_unstable();
    let exact = run
        .completed
        .iter()
        .filter(|c| c.coverage_milli == 1000)
        .count() as u64;
    ContentionPoint {
        capacity,
        mean_gap,
        offered_milli: 1000 / mean_gap,
        admission,
        done: slo.done,
        admitted: run.metrics.counter("serve.admitted"),
        degraded: run.metrics.counter("serve.degraded"),
        shed: run.metrics.counter("serve.shed"),
        exact,
        p50: slo.latency.p50,
        p90: slo.latency.p90,
        p99: slo.latency.p99,
        max: slo.latency.max,
        served_p50: percentile(&served, 50),
        served_p99: percentile(&served, 99),
        served_max: served.last().copied().unwrap_or(0),
        throughput_milli: slo.throughput_milli,
        goodput_milli: exact.saturating_mul(1000) / run.sim_ticks.max(1),
        sim_ticks: slo.sim_ticks,
        queued_ms: run.metrics.counter("net.queued_ms"),
        links_used: run.metrics.gauge("net.links.used").unwrap_or(0),
        link_busy_peak: run.metrics.gauge("net.link.busy_peak_ticks").unwrap_or(0),
        link_peak_flows: run.metrics.gauge("net.link.peak_flows").unwrap_or(0),
        events: run.events,
        peak_events: run.peak_events as u64,
    }
}

/// Runs the full sweep: [`CAPACITIES`] × [`MEAN_GAPS`] with the ladder
/// off, plus the ladder on at [`ADMISSION_CAPACITY`] — 12 cells.
pub fn run_sweep() -> Vec<ContentionPoint> {
    let data = elink_datasets::TerrainDataset::generate(1024, 6, 0.55, 7);
    let mut points = Vec::new();
    for &capacity in &CAPACITIES {
        for &mean_gap in &MEAN_GAPS {
            points.push(run_point(&data, capacity, mean_gap, false));
            if capacity == ADMISSION_CAPACITY {
                points.push(run_point(&data, capacity, mean_gap, true));
            }
        }
    }
    points
}

fn point_json(p: &ContentionPoint) -> String {
    format!(
        concat!(
            "{{\"capacity\":{},\"mean_gap\":{},\"offered_milli\":{},\"admission\":{},",
            "\"done\":{},\"admitted\":{},\"degraded\":{},\"shed\":{},\"exact\":{},",
            "\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{},",
            "\"served_p50\":{},\"served_p99\":{},\"served_max\":{},",
            "\"throughput_milli\":{},\"goodput_milli\":{},\"sim_ticks\":{},\"queued_ms\":{},",
            "\"links_used\":{},\"link_busy_peak\":{},\"link_peak_flows\":{},",
            "\"events\":{},\"peak_events\":{}}}"
        ),
        p.capacity,
        p.mean_gap,
        p.offered_milli,
        p.admission,
        p.done,
        p.admitted,
        p.degraded,
        p.shed,
        p.exact,
        p.p50,
        p.p90,
        p.p99,
        p.max,
        p.served_p50,
        p.served_p99,
        p.served_max,
        p.throughput_milli,
        p.goodput_milli,
        p.sim_ticks,
        p.queued_ms,
        p.links_used,
        p.link_busy_peak,
        p.link_peak_flows,
        p.events,
        p.peak_events,
    )
}

/// The full `BENCH_contention.json` payload. Every field is deterministic;
/// two runs of the same grid must produce byte-identical documents.
pub fn contention_report_json(points: &[ContentionPoint]) -> String {
    let cells: Vec<String> = points.iter().map(point_json).collect();
    format!(
        "{{\"schema\":\"{}\",\"results\":[\n{}\n]}}\n",
        CONTENTION_SCHEMA,
        cells.join(",\n")
    )
}

/// Audits the knee over the admission-off cells. Within each capacity's
/// sweep (lightest → heaviest load) p99 must be monotonically non-decreasing; on top of that the two
/// capacities must show their contrasting shapes:
///
/// * **smallest capacity** — *superlinear past saturation*: the p99-vs-
///   offered-load slope of the final segment must be at least twice the
///   slope of the first segment (the curve accelerates — a knee, not a
///   ramp), and the heaviest point must have recorded real queueing;
/// * **largest capacity** — *flat under headroom*: heaviest-load p99 stays
///   under 2× the lightest-load p99 across the whole sweep, pinning the
///   bend to contention rather than protocol overhead.
///
/// Returns a violation description, or `None` when the knee is present.
pub fn knee_violation(points: &[ContentionPoint]) -> Option<String> {
    for &capacity in &CAPACITIES {
        let sweep: Vec<&ContentionPoint> = points
            .iter()
            .filter(|p| p.capacity == capacity && !p.admission)
            .collect();
        if sweep.len() < 3 {
            return Some(format!("capacity {capacity}: fewer than 3 sweep points"));
        }
        for w in sweep.windows(2) {
            if w[1].p99 < w[0].p99 {
                return Some(format!(
                    "capacity {capacity}: p99 dropped from {} (gap {}) to {} (gap {})",
                    w[0].p99, w[0].mean_gap, w[1].p99, w[1].mean_gap
                ));
            }
        }
        let (light, heavy) = (sweep[0], sweep[sweep.len() - 1]);
        if capacity == CAPACITIES[0] {
            // Integer milli-slopes of the first and last sweep segments.
            let slope = |a: &ContentionPoint, b: &ContentionPoint| {
                (b.p99 - a.p99).saturating_mul(1000) / (b.offered_milli - a.offered_milli).max(1)
            };
            let first = slope(sweep[0], sweep[1]);
            let last = slope(sweep[sweep.len() - 2], heavy);
            if last < first.saturating_mul(2) {
                return Some(format!(
                    "capacity {capacity}: no knee — final p99 slope {last} \
                     not ≥ 2× the initial slope {first}"
                ));
            }
            if heavy.queued_ms == 0 {
                return Some(format!(
                    "capacity {capacity}: heaviest load recorded no queueing"
                ));
            }
        } else if heavy.p99 >= 2 * light.p99.max(1) {
            return Some(format!(
                "capacity {capacity}: headroom control not flat — p99 {} → {}",
                light.p99, heavy.p99
            ));
        }
    }
    None
}

/// Audits the admission A/B contract over the [`ADMISSION_CAPACITY`]
/// cells (see module docs):
///
/// 1. **No lost work** — at every gap, both sides complete every
///    submission (`done` equal), and on the on side the admission buckets
///    partition it.
/// 2. **The ladder bites** — at the heaviest load the on side actually
///    shed or degraded something (otherwise the thresholds are dead
///    letters and the comparison is vacuous).
/// 3. **Bounded tail** — the on side's served-p99 curve has no convex
///    blow-up segment: its final-segment milli-slope must stay *below*
///    2× its initial slope (the admission-off curve is required to bend
///    superlinearly by [`knee_violation`]; the whole point of the ladder
///    is that the on curve does not), and at the heaviest load the on
///    side's served p99 must be strictly below the off side's.
/// 4. **Goodput** — at the heaviest load, exact completions per 1000
///    ticks with admission on must be at least the admission-off value.
///
/// Returns a violation description, or `None` when the contract holds.
pub fn admission_violation(points: &[ContentionPoint]) -> Option<String> {
    let side = |armed: bool| -> Vec<&ContentionPoint> {
        points
            .iter()
            .filter(|p| p.capacity == ADMISSION_CAPACITY && p.admission == armed)
            .collect()
    };
    let (off, on) = (side(false), side(true));
    if off.len() != MEAN_GAPS.len() || on.len() != MEAN_GAPS.len() {
        return Some(format!(
            "incomplete sweep: {} off / {} on points (need {} each)",
            off.len(),
            on.len(),
            MEAN_GAPS.len()
        ));
    }
    for (o, a) in off.iter().zip(&on) {
        if o.mean_gap != a.mean_gap {
            return Some("off/on points out of phase".into());
        }
        if o.done != a.done {
            return Some(format!(
                "gap {}: admission lost work — done {} (off) vs {} (on)",
                o.mean_gap, o.done, a.done
            ));
        }
        if a.admitted + a.degraded + a.shed != a.done {
            return Some(format!(
                "gap {}: admission buckets {}+{}+{} do not partition done={}",
                a.mean_gap, a.admitted, a.degraded, a.shed, a.done
            ));
        }
    }
    let (on_heavy, off_heavy) = (on[on.len() - 1], off[off.len() - 1]);
    if on_heavy.shed + on_heavy.degraded == 0 {
        return Some(format!(
            "gap {}: the ladder never fired past saturation — thresholds are dead letters",
            on_heavy.mean_gap
        ));
    }
    // Anti-knee: milli-slope of served p99 vs offered load, first and
    // final segment of the armed sweep.
    let slope = |a: &ContentionPoint, b: &ContentionPoint| {
        b.served_p99
            .saturating_sub(a.served_p99)
            .saturating_mul(1000)
            / (b.offered_milli - a.offered_milli).max(1)
    };
    let first = slope(on[0], on[1]);
    let last = slope(on[on.len() - 2], on_heavy);
    if last >= first.max(1).saturating_mul(2) {
        return Some(format!(
            "admission-on p99 still blows up: final slope {last} ≥ 2× initial slope {first}"
        ));
    }
    if on_heavy.served_p99 >= off_heavy.served_p99 {
        return Some(format!(
            "heaviest load: admission-on served p99 {} not below admission-off {}",
            on_heavy.served_p99, off_heavy.served_p99
        ));
    }
    if on_heavy.goodput_milli < off_heavy.goodput_milli {
        return Some(format!(
            "heaviest load: admission-on goodput {} below admission-off {}",
            on_heavy.goodput_milli, off_heavy.goodput_milli
        ));
    }
    None
}

/// The `contention` gate: the full sweep, failing on a missing knee
/// ([`knee_violation`]) or a broken admission contract
/// ([`admission_violation`]).
pub struct ContentionGate;

impl crate::Gate for ContentionGate {
    type Report = Vec<ContentionPoint>;
    const NAME: &'static str = "contention";

    fn run(&self) -> Vec<ContentionPoint> {
        run_sweep()
    }

    fn summary(&self, points: &Vec<ContentionPoint>) -> String {
        let rows: Vec<String> = points
            .iter()
            .map(|p| {
                format!(
                    "cap={:<3} gap={:<3} admission={:<5} offered={:<5.3}/tick done={:<4} adm={:<4} deg={:<3} shed={:<3} exact={:<4} p50={:<5} p99={:<5} served_p99={:<5} goodput={:<4}/ktick queued={:<6} busiest_link={}t events={} peak_events={}",
                    p.capacity,
                    p.mean_gap,
                    p.admission,
                    p.offered_milli as f64 / 1000.0,
                    p.done,
                    p.admitted,
                    p.degraded,
                    p.shed,
                    p.exact,
                    p.p50,
                    p.p99,
                    p.served_p99,
                    p.goodput_milli,
                    p.queued_ms,
                    p.link_busy_peak,
                    p.events,
                    p.peak_events,
                )
            })
            .collect();
        rows.join("\n")
    }

    fn violations(&self, points: &Vec<ContentionPoint>) -> Vec<String> {
        let knee = knee_violation(points).map(|v| format!("knee: {v}"));
        let admission = admission_violation(points).map(|v| format!("admission: {v}"));
        knee.into_iter().chain(admission).collect()
    }

    fn json(&self, points: &Vec<ContentionPoint>) -> String {
        contention_report_json(points)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature sweep (small fleet, one capacity) exercises the full
    /// point pipeline: deterministic reruns, queueing visible under load,
    /// every query completed.
    #[test]
    fn mini_sweep_is_deterministic_and_queues_under_load() {
        let data = elink_datasets::TerrainDataset::generate(96, 6, 0.55, 7);
        let light = run_point(&data, 2, 24, false);
        let heavy = run_point(&data, 2, 1, false);
        let again = run_point(&data, 2, 1, false);
        assert_eq!(heavy, again, "same-seed points must be byte-identical");
        assert_eq!(light.done, heavy.done, "load must never lose queries");
        assert!(heavy.queued_ms > light.queued_ms);
        assert!(heavy.p99 >= light.p99);
        assert!(heavy.links_used > 0 && heavy.link_peak_flows > 0);
    }

    /// A miniature A/B pair on a small fleet: deterministic reruns, no
    /// lost work, and the admission buckets partition the completions.
    #[test]
    fn mini_ab_pair_is_deterministic_and_loses_nothing() {
        let data = elink_datasets::TerrainDataset::generate(96, 6, 0.55, 7);
        let off = run_point(&data, ADMISSION_CAPACITY, 1, false);
        let on = run_point(&data, ADMISSION_CAPACITY, 1, true);
        let again = run_point(&data, ADMISSION_CAPACITY, 1, true);
        assert_eq!(on, again, "same-seed points must be byte-identical");
        assert_eq!(off.done, on.done, "admission must never lose queries");
        assert_eq!(on.admitted + on.degraded + on.shed, on.done);
        assert_eq!(off.admitted, off.done, "disarmed side admits everything");
        assert_eq!(off.degraded + off.shed, 0);
    }

    #[test]
    fn report_is_schema_tagged_and_balanced() {
        let data = elink_datasets::TerrainDataset::generate(96, 6, 0.55, 7);
        let points = [
            run_point(&data, 4, 8, false),
            run_point(&data, ADMISSION_CAPACITY, 8, true),
        ];
        let json = contention_report_json(&points);
        assert!(json.contains("\"schema\":\"elink-contention/v2\""));
        assert!(json.contains("\"admission\":false") && json.contains("\"admission\":true"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    /// The committed 1k-node sweep, reduced to the fields the two audits
    /// read: p99 and served p99 per cell, plus the heaviest armed cell's
    /// admission buckets and goodput.
    fn committed_sweep() -> Vec<ContentionPoint> {
        let cell = |capacity, mean_gap, admission, p99| ContentionPoint {
            capacity,
            mean_gap,
            offered_milli: 1000 / mean_gap,
            admission,
            done: 120,
            admitted: 120,
            degraded: 0,
            shed: 0,
            exact: 120,
            p50: 0,
            p90: 0,
            p99,
            max: p99,
            served_p50: 0,
            served_p99: p99,
            served_max: p99,
            throughput_milli: 0,
            goodput_milli: 58,
            sim_ticks: 0,
            queued_ms: 1,
            links_used: 0,
            link_busy_peak: 0,
            link_peak_flows: 0,
            events: 0,
            peak_events: 0,
        };
        let mut points = Vec::new();
        for (gap, p99) in MEAN_GAPS.into_iter().zip([547, 585, 732, 1895]) {
            points.push(cell(64, gap, false, p99));
            points.push(cell(64, gap, true, p99));
        }
        for (gap, p99) in MEAN_GAPS.into_iter().zip([217, 221, 235, 240]) {
            points.push(cell(256, gap, false, p99));
        }
        let heavy_on = &mut points[7];
        (heavy_on.admitted, heavy_on.degraded, heavy_on.shed) = (91, 1, 28);
        (heavy_on.p99, heavy_on.served_p99, heavy_on.goodput_milli) = (1096, 1232, 69);
        points
    }

    /// Each clause of both audits fires when its condition breaks, and
    /// neither fires on the committed sweep.
    #[test]
    fn audits_fire_on_each_broken_clause() {
        assert_eq!(knee_violation(&committed_sweep()), None);
        assert_eq!(admission_violation(&committed_sweep()), None);
        let knee = |edit: fn(&mut [ContentionPoint])| {
            let mut points = committed_sweep();
            edit(&mut points);
            knee_violation(&points).expect("the knee audit should fire")
        };
        assert!(knee(|p| p[4].p99 = 500).contains("p99 dropped"));
        assert!(knee(|p| p[6].p99 = 800).contains("no knee"));
        assert!(knee(|p| p[6].queued_ms = 0).contains("no queueing"));
        assert!(knee(|p| p[11].p99 = 500).contains("not flat"));
        let admission = |edit: fn(&mut [ContentionPoint])| {
            let mut points = committed_sweep();
            edit(&mut points);
            admission_violation(&points).expect("the admission audit should fire")
        };
        assert!(admission(|p| p[7].done = 119).contains("lost work"));
        assert!(admission(|p| p[7].shed = 27).contains("do not partition"));
        assert!(
            admission(|p| (p[7].admitted, p[7].degraded, p[7].shed) = (120, 0, 0))
                .contains("dead letters")
        );
        assert!(admission(|p| p[7].served_p99 = 1600).contains("still blows up"));
        assert!(admission(|p| p[6].served_p99 = 1200).contains("not below"));
        assert!(admission(|p| p[7].goodput_milli = 57).contains("goodput"));
    }
}
