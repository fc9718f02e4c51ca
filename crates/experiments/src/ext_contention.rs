//! Ext-C2 — load and contention on the serving layer (no counterpart
//! figure in the paper, which prices every message independently).
//!
//! Sweeps open-loop offered load × per-link capacity over a terrain
//! deployment served through a contention-aware
//! [`FairShareLink`](elink_netsim::FairShareLink): each directed link's
//! integer capacity is shared max-min-fairly across in-flight transfers,
//! so heavy query streams queue behind each other instead of sailing
//! through. Expected shape: at large capacity the latency columns are
//! flat in offered load; at small capacity they bend upward past the
//! saturation point — the queueing knee the `contention` bench gate
//! checks at 1k nodes (see EXPERIMENTS.md, Ext-C2).

use crate::common::Table;
use elink_datasets::TerrainDataset;
use elink_metric::Absolute;
use elink_netsim::FairShareLink;
use elink_workload::{Arrival, ServeOptions, SloReport, WorkloadSim, WorkloadSpec};
use std::sync::Arc;

/// Parameters for the contention sweep.
#[derive(Debug, Clone)]
pub struct Params {
    /// Sensors in the deployment.
    pub n_sensors: usize,
    /// Clustering threshold δ (elevation metres).
    pub delta: f64,
    /// Queries per sweep cell.
    pub n_queries: usize,
    /// Workload seed (schedule RNG).
    pub seed: u64,
    /// Per-directed-link capacities to sweep (scalars per tick).
    pub capacities: Vec<u64>,
    /// Open-loop mean inter-arrival gaps (ticks), lightest load first.
    pub mean_gaps: Vec<u64>,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            n_sensors: 256,
            delta: 300.0,
            n_queries: 80,
            seed: 42,
            capacities: vec![16, 64, 256],
            mean_gaps: vec![32, 8, 2, 1],
        }
    }
}

impl Params {
    /// Seconds-scale preset: one contended and one headroom capacity over
    /// a light/heavy load pair.
    pub fn quick() -> Params {
        Params {
            n_sensors: 96,
            delta: 300.0,
            n_queries: 24,
            seed: 42,
            capacities: vec![16, 128],
            mean_gaps: vec![24, 1],
        }
    }
}

/// One sweep cell's measurements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell {
    /// Per-directed-link capacity (scalars per tick).
    pub capacity: u64,
    /// Mean inter-arrival gap (ticks).
    pub mean_gap: u64,
    /// Completed queries.
    pub done: u64,
    /// Median / 99th-percentile / max query latency (ticks).
    pub p50: u64,
    /// 99th-percentile query latency (ticks).
    pub p99: u64,
    /// Maximum query latency (ticks).
    pub max: u64,
    /// Total excess queueing across transfers (ticks).
    pub queued_ms: u64,
    /// Busy ticks on the busiest directed link.
    pub link_busy_peak: i64,
}

/// Runs the full sweep, cells in (capacity-major, load-minor) order.
pub fn sweep(params: &Params) -> Vec<Cell> {
    let data = TerrainDataset::generate(params.n_sensors, 6, 0.55, 7);
    let mut cells = Vec::new();
    for &capacity in &params.capacities {
        for &mean_gap in &params.mean_gaps {
            let mut spec = WorkloadSpec::quick(params.seed);
            spec.n_queries = params.n_queries;
            spec.n_updates = 0;
            spec.arrival = Arrival::Open { mean_gap };
            let sim = WorkloadSim::build_with_link(
                data.topology().clone(),
                data.features(),
                Arc::new(Absolute),
                params.delta,
                &spec,
                ServeOptions::for_delta(params.delta),
                FairShareLink::new(capacity),
                None,
            );
            let run = sim.run_concurrent();
            let slo = SloReport::from_run(&run);
            cells.push(Cell {
                capacity,
                mean_gap,
                done: slo.done,
                p50: slo.latency.p50,
                p99: slo.latency.p99,
                max: slo.latency.max,
                queued_ms: run.metrics.counter("net.queued_ms"),
                link_busy_peak: run.metrics.gauge("net.link.busy_peak_ticks").unwrap_or(0),
            });
        }
    }
    cells
}

/// Regenerates the contention-sweep table.
pub fn run(params: Params) -> Table {
    let cells = sweep(&params);
    let rows = cells
        .iter()
        .map(|c| {
            vec![
                c.capacity.to_string(),
                c.mean_gap.to_string(),
                c.done.to_string(),
                c.p50.to_string(),
                c.p99.to_string(),
                c.max.to_string(),
                c.queued_ms.to_string(),
                c.link_busy_peak.to_string(),
            ]
        })
        .collect();
    Table {
        id: "ext_contention",
        title: format!(
            "Load × capacity sweep, terrain ({} sensors, {} queries/cell, delta = {}, seed = {})",
            params.n_sensors, params.n_queries, params.delta, params.seed
        ),
        headers: vec![
            "capacity".into(),
            "mean_gap".into(),
            "done".into(),
            "p50".into(),
            "p99".into(),
            "max".into(),
            "queued_ms".into(),
            "busiest_link_ticks".into(),
        ],
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_queues_under_load_and_loses_nothing() {
        let params = Params::quick();
        let cells = sweep(&params);
        assert_eq!(
            cells.len(),
            params.capacities.len() * params.mean_gaps.len()
        );
        for c in &cells {
            assert_eq!(
                c.done, params.n_queries as u64,
                "cap {} gap {}: contention lost a query",
                c.capacity, c.mean_gap
            );
        }
        // Contended capacity, heaviest load: real queueing, fatter tail
        // than its own light-load point.
        let light = &cells[0];
        let heavy = &cells[params.mean_gaps.len() - 1];
        assert!(heavy.queued_ms > light.queued_ms);
        assert!(heavy.p99 >= light.p99);
        // Headroom capacity queues strictly less than the contended one at
        // the same heaviest load.
        let heavy_roomy = cells.last().unwrap();
        assert!(heavy_roomy.queued_ms < heavy.queued_ms);
    }

    #[test]
    fn same_seed_sweeps_are_identical() {
        let params = Params::quick();
        assert_eq!(sweep(&params), sweep(&params), "sweep is not deterministic");
    }
}
