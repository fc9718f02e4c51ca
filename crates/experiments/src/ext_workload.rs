//! Ext-W — serving-layer SLOs under a concurrent query workload (the §7
//! query protocols driven as a serving system; no counterpart figure in
//! the paper, which evaluates queries one at a time).
//!
//! Sweeps the zipf skew of the template popularity distribution with the
//! routing-node result cache on and off, and reports cache hit-rate,
//! serving messages per query, latency percentiles, and batching riders.
//! Expected shape: skewed streams concentrate on few templates, so the
//! cached hit-rate rises with skew while messages per query fall; with the
//! cache disabled the hit-rate is zero and costs are flat in skew.

use crate::common::{fmt, Table};
use elink_datasets::TerrainDataset;
use elink_metric::Absolute;
use elink_workload::{ServeOptions, SloReport, WorkloadSim, WorkloadSpec};
use std::sync::Arc;

/// Parameters for the workload experiment.
#[derive(Debug, Clone)]
pub struct Params {
    /// Sensors in the deployment.
    pub n_sensors: usize,
    /// Clustering threshold δ (elevation metres).
    pub delta: f64,
    /// Zipf skews swept.
    pub skews: Vec<f64>,
    /// Queries per run.
    pub n_queries: usize,
    /// Background updates per run.
    pub n_updates: usize,
    /// Template-table size (must exceed the per-run query budget's reach
    /// for the skew axis to matter: when every template gets touched, all
    /// streams pay the same first-drill cost).
    pub n_templates: usize,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            n_sensors: 512,
            delta: 300.0,
            skews: vec![0.0, 0.7, 1.2],
            n_queries: 150,
            n_updates: 30,
            n_templates: 64,
        }
    }
}

impl Params {
    /// Seconds-scale preset.
    pub fn quick() -> Params {
        Params {
            n_sensors: 128,
            delta: 300.0,
            skews: vec![0.0, 1.2],
            n_queries: 50,
            n_updates: 10,
            n_templates: 24,
        }
    }
}

fn run_cell(params: &Params, zipf_s: f64, cache: bool) -> SloReport {
    let data = TerrainDataset::generate(params.n_sensors, 6, 0.55, 7);
    let mut spec = WorkloadSpec::quick(42);
    spec.zipf_s = zipf_s;
    spec.n_queries = params.n_queries;
    spec.n_updates = params.n_updates;
    spec.n_templates = params.n_templates;
    let mut opts = ServeOptions::for_delta(params.delta);
    opts.cache_enabled = cache;
    let sim = WorkloadSim::build(
        data.topology().clone(),
        data.features(),
        Arc::new(Absolute),
        params.delta,
        &spec,
        opts,
    );
    SloReport::from_run(&sim.run_concurrent())
}

/// Regenerates the serving-workload table.
pub fn run(params: Params) -> Table {
    let mut rows = Vec::new();
    for &zipf_s in &params.skews {
        for cache in [true, false] {
            let r = run_cell(&params, zipf_s, cache);
            rows.push(vec![
                fmt(zipf_s),
                (if cache { "on" } else { "off" }).to_string(),
                fmt(r.hit_rate_milli as f64 / 1000.0),
                fmt(r.msgs_per_query_milli as f64 / 1000.0),
                r.latency.p50.to_string(),
                r.latency.p90.to_string(),
                r.batch_riders.to_string(),
                r.done.to_string(),
            ]);
        }
    }
    Table {
        id: "ext_workload",
        title: format!(
            "Serving SLOs vs template skew, terrain ({} sensors, {} queries, delta = {})",
            params.n_sensors, params.n_queries, params.delta
        ),
        headers: vec![
            "zipf_s".into(),
            "cache".into(),
            "hit_rate".into(),
            "msgs_per_query".into(),
            "latency_p50".into(),
            "latency_p90".into(),
            "batch_riders".into(),
            "completed".into(),
        ],
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_only_helps_when_enabled() {
        let t = run(Params::quick());
        assert_eq!(t.rows.len(), 4);
        for row in &t.rows {
            let hit: f64 = row[2].parse().unwrap();
            if row[1] == "off" {
                assert_eq!(hit, 0.0, "disabled cache reported hits");
            }
        }
        // At the highest skew, the enabled cache must actually hit.
        let skewed_on = t
            .rows
            .iter()
            .find(|r| r[0] != "0" && r[1] == "on")
            .expect("skewed cache-on row");
        let hit: f64 = skewed_on[2].parse().unwrap();
        assert!(hit > 0.0, "skewed stream should produce cache hits");
    }

    #[test]
    fn every_cell_completes_all_queries() {
        let p = Params::quick();
        let t = run(p.clone());
        for row in &t.rows {
            let done: u64 = row[7].parse().unwrap();
            assert_eq!(done as usize, p.n_queries);
        }
    }
}
