//! The concurrent query-serving preset behind `BENCH_workload.json`
//! (schema `elink-workload/v2`): a mixed range/path stream of 120 queries
//! against a 1024-node terrain deployment with background feature
//! updates. The gate requires at least 100 completed queries and a
//! non-zero cache hit-rate.

use elink_metric::Absolute;
use elink_workload::{ServeOptions, SloReport, WorkloadSim, WorkloadSpec};
use std::sync::Arc;

/// The `workload` gate.
pub struct WorkloadGate;

impl crate::Gate for WorkloadGate {
    type Report = SloReport;
    const NAME: &'static str = "workload";

    fn run(&self) -> SloReport {
        let mut spec = WorkloadSpec::quick(42);
        spec.n_queries = 120;
        spec.n_updates = 40;
        let delta = 300.0;
        let data = elink_datasets::TerrainDataset::generate(1024, 6, 0.55, 7);
        let sim = WorkloadSim::build(
            data.topology().clone(),
            data.features(),
            Arc::new(Absolute),
            delta,
            &spec,
            ServeOptions::for_delta(delta),
        );
        SloReport::from_run(&sim.run_concurrent())
    }

    fn summary(&self, r: &SloReport) -> String {
        let milli = |v: u64| format!("{}.{:03}", v / 1000, v % 1000);
        format!(
            "workload n={} clusters={} queries={}/{} sim_ticks={}\n  \
             latency p50={} p90={} p99={} max={} | throughput={}/tick\n  \
             cache hits={} misses={} hit_rate={} evictions={} invalidations={}\n  \
             batching riders={} | msgs/query={} total_msgs={} attributed_cost={}",
            r.n_nodes,
            r.n_clusters,
            r.done,
            r.submitted,
            r.sim_ticks,
            r.latency.p50,
            r.latency.p90,
            r.latency.p99,
            r.latency.max,
            milli(r.throughput_milli),
            r.cache_hits,
            r.cache_misses,
            milli(r.hit_rate_milli),
            r.cache_evictions,
            r.invalidations,
            r.batch_riders,
            milli(r.msgs_per_query_milli),
            r.total_msgs,
            r.attributed_cost
        )
    }

    fn violations(&self, r: &SloReport) -> Vec<String> {
        let mut out = Vec::new();
        if r.done < 100 {
            out.push(format!("only {} queries completed (floor: 100)", r.done));
        }
        if r.cache_hits == 0 {
            out.push("cache hit-rate is zero".into());
        }
        out
    }

    fn json(&self, r: &SloReport) -> String {
        r.to_json()
    }
}
