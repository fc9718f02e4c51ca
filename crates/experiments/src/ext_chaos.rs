//! Ext-C — seeded fault campaign over the serving layer (the robustness
//! story: no counterpart figure in the paper, which assumes reliable
//! links).
//!
//! Sweeps a grid of per-hop drop rate × permanent crash fraction ×
//! mid-run partition window, serving a query-only workload over the ARQ
//! sublayer with the recovery layer armed, and reports liveness (done vs
//! expected), answer exactness, coverage degradation, retransmission and
//! failover counts. Expected shape: pure loss is fully absorbed by ARQ
//! (exact answers, zero partials, retransmissions only); crashes cost
//! coverage but never soundness; short partitions are ridden out on
//! retransmissions.

use crate::common::Table;
use elink_datasets::TerrainDataset;
use elink_metric::{Absolute, Metric};
use elink_workload::{default_grid, run_campaign, ChaosReport, FaultSpec};
use std::sync::Arc;

/// Parameters for the chaos campaign.
#[derive(Debug, Clone)]
pub struct Params {
    /// Sensors in the deployment.
    pub n_sensors: usize,
    /// Clustering threshold δ (elevation metres).
    pub delta: f64,
    /// Queries per cell.
    pub n_queries: usize,
    /// Campaign seed (schedule + link RNG).
    pub seed: u64,
    /// The fault grid.
    pub grid: Vec<FaultSpec>,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            n_sensors: 192,
            delta: 300.0,
            n_queries: 60,
            seed: 42,
            grid: default_grid(),
        }
    }
}

impl Params {
    /// Seconds-scale preset: one cell per fault class.
    pub fn quick() -> Params {
        Params {
            n_sensors: 96,
            delta: 300.0,
            n_queries: 30,
            seed: 42,
            grid: vec![
                FaultSpec {
                    drop_milli: 0,
                    crash_milli: 0,
                    partition: None,
                    capacity: None,
                },
                FaultSpec {
                    drop_milli: 250,
                    crash_milli: 0,
                    partition: None,
                    capacity: None,
                },
                FaultSpec {
                    drop_milli: 100,
                    crash_milli: 150,
                    partition: None,
                    capacity: None,
                },
                FaultSpec {
                    drop_milli: 100,
                    crash_milli: 0,
                    partition: Some((400, 900)),
                    capacity: None,
                },
            ],
        }
    }
}

/// Runs the campaign and returns the raw report (used by tests that need
/// more than the rendered table).
pub fn campaign(params: &Params) -> ChaosReport {
    let data = TerrainDataset::generate(params.n_sensors, 6, 0.55, 7);
    let metric: Arc<dyn Metric> = Arc::new(Absolute);
    run_campaign(
        data.topology(),
        &data.features(),
        &metric,
        params.delta,
        params.n_queries,
        params.seed,
        &params.grid,
    )
}

/// Regenerates the chaos-campaign table.
pub fn run(params: Params) -> Table {
    let report = campaign(&params);
    let rows = report
        .cells
        .iter()
        .map(|c| {
            vec![
                c.fault.drop_milli.to_string(),
                c.fault.crash_milli.to_string(),
                match c.fault.partition {
                    Some((f, u)) => format!("{f}..{u}"),
                    None => "-".into(),
                },
                format!("{}/{}", c.done, c.expected),
                c.exact.to_string(),
                c.partial.to_string(),
                c.coverage_mean_milli.to_string(),
                c.retx.to_string(),
                c.timeouts.to_string(),
                c.failovers.to_string(),
                c.violations.to_string(),
            ]
        })
        .collect();
    Table {
        id: "ext_chaos",
        title: format!(
            "Fault campaign, terrain ({} sensors, {} queries/cell, delta = {}, seed = {})",
            params.n_sensors, params.n_queries, params.delta, params.seed
        ),
        headers: vec![
            "drop_milli".into(),
            "crash_milli".into(),
            "partition".into(),
            "done/expected".into(),
            "exact".into(),
            "partial".into(),
            "cov_mean_milli".into(),
            "retx".into(),
            "timeouts".into(),
            "failovers".into(),
            "violations".into(),
        ],
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_campaign_is_live_sound_and_loss_invisible() {
        let report = campaign(&Params::quick());
        assert!(report.all_sound(), "liveness or soundness violated");
        // Cell 0: fault-free baseline — everything exact, nothing retried.
        let base = &report.cells[0];
        assert_eq!(base.partial, 0);
        assert_eq!(base.retx, 0);
        assert_eq!(base.failovers, 0);
        // Cell 1: pure loss — ARQ absorbs it completely: retransmissions
        // happen but every answer is still exact with full coverage.
        let lossy = &report.cells[1];
        assert!(lossy.retx > 0, "drop 0.25 produced no retransmissions");
        assert_eq!(lossy.partial, 0, "pure loss degraded an answer");
        assert_eq!(lossy.exact, lossy.done);
        assert_eq!(lossy.coverage_mean_milli, 1000);
        // Cell 2: crashes — answers stay sound (checked by all_sound) and
        // coverage honestly drops below full somewhere.
        let crashy = &report.cells[2];
        assert!(crashy.crashed > 0);
        assert!(crashy.partial > 0, "15% crashes degraded no answer");
        // Cell 3: a short partition is ridden out on retransmissions —
        // liveness held (all_sound) and retries spiked.
        let split = &report.cells[3];
        assert!(
            split.retx > lossy.retx / 10,
            "partition cell barely retried"
        );
    }

    #[test]
    fn same_seed_campaigns_are_byte_identical() {
        let p = Params::quick();
        let a = campaign(&p).to_json();
        let b = campaign(&p).to_json();
        assert_eq!(a, b, "chaos campaign is not deterministic");
    }
}
