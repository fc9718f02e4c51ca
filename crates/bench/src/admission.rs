//! The load-admission A/B sweep behind `BENCH_admission.json`.
//!
//! The contention sweep (`contention.rs`) shows the problem: past the
//! saturation knee of a capacity-64 deployment, tail latency leaves the
//! flat region superlinearly. This bench shows the cure and its price.
//! Each offered-load point of the cap-64 sweep runs twice over the same
//! seeds — once with the load-admission ladder disarmed (the PR 9 ladder
//! is table-occupancy-only) and once armed with the default
//! [`LoadAdmission`](elink_workload::LoadAdmission) thresholds — and the
//! report carries both sides so the gate can compare them directly:
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
//! seed, grid) — deterministic integer arithmetic end to end, so the
//! `admission_report --check` CI gate reruns the sweep and requires
//! byte-identical documents.

use crate::contention::MEAN_GAPS;
use elink_metric::Absolute;
use elink_netsim::FairShareLink;
use elink_workload::{percentile, Arrival, LoadAdmission, ServeOptions, WorkloadSim, WorkloadSpec};
use std::sync::Arc;

/// Schema identifier of the `BENCH_admission.json` document.
pub const ADMISSION_SCHEMA: &str = "elink-admission/v1";

/// The A/B capacity: the sweep's saturating side (the 256 control of the
/// contention sweep never congests, so admission would be a no-op there).
pub const ADMISSION_CAPACITY: u64 = 64;

/// One (offered-load, ladder-armed) cell of the A/B sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdmissionPoint {
    /// Mean open-loop inter-arrival gap (ticks).
    pub mean_gap: u64,
    /// Offered load: queries per 1000 ticks (`1000 / mean_gap`).
    pub offered_milli: u64,
    /// Whether the load-admission ladder was armed.
    pub admission: bool,
    /// Queries completed (must equal the submitted count on both sides —
    /// shedding is explicit completion, never loss).
    pub done: u64,
    /// Load ladder full-scope admissions (equals `done` when disarmed).
    pub admitted: u64,
    /// Load ladder degradations (local-cluster answers).
    pub degraded: u64,
    /// Load ladder sheds (immediate explicit zero-coverage answers).
    pub shed: u64,
    /// Completions with full coverage (exact answers).
    pub exact: u64,
    /// Median latency of *served* queries (shed excluded), ticks.
    pub served_p50: u64,
    /// 99th-percentile latency of served queries, ticks.
    pub served_p99: u64,
    /// Maximum latency of served queries, ticks.
    pub served_max: u64,
    /// Exact answers per 1000 ticks — the goodput the gate compares.
    pub goodput_milli: u64,
    /// Final simulated tick.
    pub sim_ticks: u64,
    /// Total excess queueing across all transfers (ticks).
    pub queued_ms: u64,
}

/// The serving preset: identical to the contention sweep's (1k-node
/// terrain deployment, 120 mixed open-loop queries, query-only, recovery
/// off) so the two reports describe the same system.
fn preset(mean_gap: u64) -> (WorkloadSpec, f64) {
    let mut spec = WorkloadSpec::quick(42);
    spec.n_queries = 120;
    spec.n_updates = 0;
    spec.arrival = Arrival::Open { mean_gap };
    (spec, 300.0)
}

/// Runs one cell: the cap-64 deployment at `mean_gap`, ladder armed or
/// not.
pub fn run_point(
    data: &elink_datasets::TerrainDataset,
    mean_gap: u64,
    admission: bool,
) -> AdmissionPoint {
    let (spec, delta) = preset(mean_gap);
    let mut opts = ServeOptions::for_delta(delta);
    if admission {
        opts.qos.load = Some(LoadAdmission::default());
    }
    let sim = WorkloadSim::build_with_link(
        data.topology().clone(),
        data.features(),
        Arc::new(Absolute),
        delta,
        &spec,
        opts,
        FairShareLink::new(ADMISSION_CAPACITY),
        None,
    );
    let run = sim.run_concurrent();
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
    AdmissionPoint {
        mean_gap,
        offered_milli: 1000 / mean_gap,
        admission,
        done: run.completed.len() as u64,
        admitted: run.metrics.counter("serve.admitted"),
        degraded: run.metrics.counter("serve.degraded"),
        shed: run.metrics.counter("serve.shed"),
        exact,
        served_p50: percentile(&served, 50),
        served_p99: percentile(&served, 99),
        served_max: served.last().copied().unwrap_or(0),
        goodput_milli: exact.saturating_mul(1000) / run.sim_ticks.max(1),
        sim_ticks: run.sim_ticks,
        queued_ms: run.metrics.counter("net.queued_ms"),
    }
}

/// Runs the full A/B sweep: every contention gap, off then on.
pub fn run_sweep() -> Vec<AdmissionPoint> {
    let data = elink_datasets::TerrainDataset::generate(1024, 6, 0.55, 7);
    let mut points = Vec::new();
    for &mean_gap in &MEAN_GAPS {
        points.push(run_point(&data, mean_gap, false));
        points.push(run_point(&data, mean_gap, true));
    }
    points
}

fn point_json(p: &AdmissionPoint) -> String {
    format!(
        concat!(
            "{{\"mean_gap\":{},\"offered_milli\":{},\"admission\":{},",
            "\"done\":{},\"admitted\":{},\"degraded\":{},\"shed\":{},",
            "\"exact\":{},\"served_p50\":{},\"served_p99\":{},",
            "\"served_max\":{},\"goodput_milli\":{},\"sim_ticks\":{},",
            "\"queued_ms\":{}}}"
        ),
        p.mean_gap,
        p.offered_milli,
        p.admission,
        p.done,
        p.admitted,
        p.degraded,
        p.shed,
        p.exact,
        p.served_p50,
        p.served_p99,
        p.served_max,
        p.goodput_milli,
        p.sim_ticks,
        p.queued_ms,
    )
}

/// The full `BENCH_admission.json` payload. Every field is deterministic;
/// two runs of the same grid must produce byte-identical documents.
pub fn admission_report_json(points: &[AdmissionPoint]) -> String {
    let cells: Vec<String> = points.iter().map(point_json).collect();
    format!(
        "{{\"schema\":\"{}\",\"capacity\":{},\"results\":[\n{}\n]}}\n",
        ADMISSION_SCHEMA,
        ADMISSION_CAPACITY,
        cells.join(",\n")
    )
}

/// Audits the A/B contract over a full sweep (see module docs):
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
///    superlinearly by the contention gate; the whole point of the ladder
///    is that the on curve does not), and at the heaviest load the on
///    side's served p99 must be strictly below the off side's.
/// 4. **Goodput** — at the heaviest load, exact completions per 1000
///    ticks with admission on must be at least the admission-off value.
///
/// Returns a violation description, or `None` when the contract holds.
pub fn admission_violation(points: &[AdmissionPoint]) -> Option<String> {
    let side = |armed: bool| -> Vec<&AdmissionPoint> {
        points.iter().filter(|p| p.admission == armed).collect()
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
    let slope = |a: &AdmissionPoint, b: &AdmissionPoint| {
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

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature A/B pair on a small fleet: deterministic reruns, no
    /// lost work, and the admission buckets partition the completions.
    #[test]
    fn mini_ab_pair_is_deterministic_and_loses_nothing() {
        let data = elink_datasets::TerrainDataset::generate(96, 6, 0.55, 7);
        let off = run_point(&data, 1, false);
        let on = run_point(&data, 1, true);
        let again = run_point(&data, 1, true);
        assert_eq!(on, again, "same-seed points must be byte-identical");
        assert_eq!(off.done, on.done, "admission must never lose queries");
        assert_eq!(on.admitted + on.degraded + on.shed, on.done);
        assert_eq!(off.admitted, off.done, "disarmed side admits everything");
        assert_eq!(off.degraded + off.shed, 0);
    }

    #[test]
    fn report_is_schema_tagged_and_balanced() {
        let data = elink_datasets::TerrainDataset::generate(96, 6, 0.55, 7);
        let p = run_point(&data, 8, true);
        let json = admission_report_json(&[p]);
        assert!(json.contains("\"schema\":\"elink-admission/v1\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
