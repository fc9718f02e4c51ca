//! The seeded fault campaign behind `BENCH_chaos.json` (schema
//! `elink-chaos/v4`).
//!
//! The gate fails if any cell breaks liveness (a surviving initiator's
//! query wedged) or soundness (an answer disagreed with ground truth), or
//! if the pure-loss cells degraded any answer — loss alone must be
//! invisible behind the ARQ sublayer — or if a crash cell performed no
//! failover. It also holds the recovery deadlines to their contract
//! (DESIGN.md §10.2): in a crash-free cell no deadline may fire against
//! live state, and in a cell without capacity no query may outlast twice
//! its initiator's idle-network watchdog. The standing-subscription cells (leader crash
//! mid-subscription) must each observe a real failover, keep at least one
//! subscription alive, and deliver pushes; their push-soundness
//! violations count towards soundness.

use elink_metric::{Absolute, Metric};
use elink_workload::{default_sub_grid, run_campaign, run_sub_cell, ChaosReport, FaultSpec};
use std::sync::Arc;

/// The campaign grid: drop ∈ {0, 250}‰ × crash ∈ {0, 150}‰ plus one
/// partition cell and one composed capacity × loss × crash cell
/// (congestion pricing, drop faults, crashed leaders and the
/// load-admission ladder all active at once) — the fault classes the
/// recovery layer must survive, kept to six cells so the double-run
/// `--check` stays in CI budget.
fn grid() -> Vec<FaultSpec> {
    let cell = |drop_milli, crash_milli, partition, capacity| FaultSpec {
        drop_milli,
        crash_milli,
        partition,
        capacity,
    };
    vec![
        cell(0, 0, None, None),
        cell(250, 0, None, None),
        cell(0, 150, None, None),
        cell(250, 150, None, None),
        cell(100, 0, Some((400, 900)), None),
        cell(100, 150, None, Some(64)),
    ]
}

/// The `chaos` gate: a 192-node terrain deployment, 60 queries in each
/// of the six fault cells, plus the default standing-subscription cells.
pub struct ChaosGate;

impl crate::Gate for ChaosGate {
    type Report = ChaosReport;
    const NAME: &'static str = "chaos";

    fn run(&self) -> ChaosReport {
        let data = elink_datasets::TerrainDataset::generate(192, 6, 0.55, 7);
        let metric: Arc<dyn Metric> = Arc::new(Absolute);
        let features = data.features();
        let mut report = run_campaign(data.topology(), &features, &metric, 300.0, 60, 42, &grid());
        report.sub_cells = default_sub_grid()
            .into_iter()
            .map(|fault| {
                run_sub_cell(data.topology(), &features, &metric, 300.0, 42, fault)
                    .expect("campaign fixture offers no isolatable (non-relay) coordinator victim")
            })
            .collect();
        report
    }

    fn summary(&self, report: &ChaosReport) -> String {
        let mut out = format!(
            "chaos n={} queries/cell={} seed={} cells={}",
            report.n_nodes,
            report.n_queries,
            report.seed,
            report.cells.len()
        );
        for c in &report.cells {
            out.push_str(&format!(
                "\n  drop={}m crash={}m part={} cap={} | done={}/{} exact={} partial={} cov_mean={}m | adm={} deg={} shed={} queued={} | retx={} timeouts={} failovers={} | reissued={} echo_gaveup={} eval_gaveup={} resubmitted={} | p50={} p99={} makespan={} late={} | violations={}",
                c.fault.drop_milli,
                c.fault.crash_milli,
                c.fault.partition.is_some(),
                c.fault.capacity.unwrap_or(0),
                c.done,
                c.expected,
                c.exact,
                c.partial,
                c.coverage_mean_milli,
                c.admitted,
                c.degraded,
                c.shed,
                c.queued_ms,
                c.retx,
                c.timeouts,
                c.failovers,
                c.reissued,
                c.echo_gaveup,
                c.eval_gaveup,
                c.resubmitted,
                c.latency_p50_ticks,
                c.latency_p99_ticks,
                c.makespan_ticks,
                c.late,
                c.violations
            ));
        }
        for c in &report.sub_cells {
            out.push_str(&format!(
                "\n  sub drop={}m cap={} crash_at={} leader={} | reg={} adm={} active={} ended={} exact={} subset={} | pushes={} repairs={} resyncs={} gaveup={} failovers={} queued={} violations={}",
                c.fault.drop_milli,
                c.fault.capacity.unwrap_or(0),
                c.crash_at,
                c.crashed_leader,
                c.registered,
                c.admitted,
                c.active,
                c.ended,
                c.exact,
                c.subset,
                c.pushes,
                c.repairs,
                c.resyncs,
                c.contrib_gaveup,
                c.failovers,
                c.queued_ms,
                c.violations
            ));
        }
        out
    }

    fn violations(&self, report: &ChaosReport) -> Vec<String> {
        let mut out = Vec::new();
        if !report.all_sound() {
            out.push("a cell broke liveness or soundness".to_string());
        }
        for c in &report.cells {
            // Capacity cells are exempt from the loss-invisibility gate: the
            // load-admission ladder *intends* to degrade/shed under congestion.
            if c.fault.crash_milli == 0
                && c.fault.partition.is_none()
                && c.fault.capacity.is_none()
                && c.partial > 0
            {
                out.push(format!(
                    "pure loss (drop={}m) degraded {} answers — ARQ must absorb loss completely",
                    c.fault.drop_milli, c.partial
                ));
            }
            // The loss-only contract: without crashes every wave finishes
            // inside its budget, so no deadline fires against live state.
            if c.fault.crash_milli == 0 && c.deadlines_fired() {
                out.push(format!(
                    "crash-free cell (drop={}m) fired recovery deadlines: reissued={} echo_gaveup={} eval_gaveup={} resubmitted={}",
                    c.fault.drop_milli, c.reissued, c.echo_gaveup, c.eval_gaveup, c.resubmitted
                ));
            }
            // Without capacity the delivery envelope never stretches, so
            // two idle watchdogs bound every query.
            if c.fault.capacity.is_none() && c.late > 0 {
                out.push(format!(
                    "cell (drop={}m crash={}m) answered {} queries after twice their idle watchdog",
                    c.fault.drop_milli, c.fault.crash_milli, c.late
                ));
            }
            if c.fault.crash_milli > 0 && c.failovers == 0 {
                out.push(format!(
                    "crash cell (crash={}m) performed no failover",
                    c.fault.crash_milli
                ));
            }
        }
        for c in &report.sub_cells {
            if c.failovers == 0 || c.active == 0 || c.pushes == 0 {
                out.push(format!(
                    "sub cell (drop={}m) broke the failover serving contract (failovers={} active={} pushes={})",
                    c.fault.drop_milli, c.failovers, c.active, c.pushes
                ));
            }
        }
        out
    }

    fn json(&self, report: &ChaosReport) -> String {
        report.to_json()
    }
}
