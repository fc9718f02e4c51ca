//! SLO reporting: folds a [`WorkloadRun`] into
//! the machine-readable `elink-workload/v2` document behind the
//! `workload` bench gate (`BENCH_workload.json`).
//!
//! Every field is derived from deterministic simulator state; ratios are
//! reported in integer milli-units so the document is byte-stable across
//! runs of the same seed (the `--check` contract).

use crate::engine::WorkloadRun;
use elink_netsim::SimTime;

/// Schema identifier of the emitted document.
pub const SCHEMA: &str = "elink-workload/v2";

/// Latency percentiles over completed queries (ticks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencySummary {
    /// Completed-query count.
    pub count: u64,
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Maximum.
    pub max: u64,
    /// Mean in milli-ticks.
    pub mean_milli: u64,
}

/// The SLO report.
#[derive(Debug, Clone, PartialEq)]
pub struct SloReport {
    /// Fleet size.
    pub n_nodes: usize,
    /// Cluster count of the deployment.
    pub n_clusters: usize,
    /// Queries submitted (including lost ones).
    pub submitted: u64,
    /// Queries completed.
    pub done: u64,
    /// Final simulated tick.
    pub sim_ticks: SimTime,
    /// Per-query latency summary.
    pub latency: LatencySummary,
    /// Completed queries per 1000 ticks.
    pub throughput_milli: u64,
    /// Cache hits (descents avoided).
    pub cache_hits: u64,
    /// Cache misses (descents launched).
    pub cache_misses: u64,
    /// Hit rate in milli-units (hits / (hits+misses) * 1000).
    pub hit_rate_milli: u64,
    /// Cache entries evicted by invalidation climbs.
    pub cache_evictions: u64,
    /// Invalidation climb steps.
    pub invalidations: u64,
    /// Extra queries that rode a shared descent or reply packet.
    pub batch_riders: u64,
    /// Total wire messages of the run (all kinds).
    pub total_msgs: u64,
    /// Total wire cost (hops × scalars).
    pub total_cost: u64,
    /// Serving-layer messages per completed query, milli-units.
    pub msgs_per_query_milli: u64,
    /// Sum of per-query attributed cost from the query ledger.
    pub attributed_cost: u64,
    /// Updates received / absorbed / synchronized.
    pub updates_recv: u64,
    /// Updates absorbed by the slack rule (anchor untouched).
    pub updates_absorbed: u64,
    /// Slack-exceeding updates that re-anchored and invalidated.
    pub updates_sync: u64,
}

/// Nearest-rank percentile over an ascending slice: the smallest sample
/// with at least `p`% of the samples at or below it (0 when empty).
pub fn percentile(sorted: &[u64], p: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as u64).div_ceil(100).max(1) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

impl SloReport {
    /// Summarizes a finished run.
    pub fn from_run(run: &WorkloadRun) -> SloReport {
        let mut lats: Vec<u64> = run
            .completed
            .iter()
            .map(|c| c.finished - c.submitted)
            .collect();
        lats.sort_unstable();
        let count = lats.len() as u64;
        let sum: u64 = lats.iter().sum();
        let latency = LatencySummary {
            count,
            p50: percentile(&lats, 50),
            p90: percentile(&lats, 90),
            p99: percentile(&lats, 99),
            max: lats.last().copied().unwrap_or(0),
            mean_milli: (sum * 1000).checked_div(count).unwrap_or(0),
        };
        let m = &run.metrics;
        let hits = m.counter("wl.cache.hit");
        let misses = m.counter("wl.cache.miss");
        let done = m.counter("wl.query.done");
        let stats = run.costs.stats();
        let wl_msgs: u64 = run
            .costs
            .iter()
            .filter(|(k, _)| k.starts_with("wl_") && *k != "wl_plan")
            .map(|(_, s)| s.packets)
            .sum();
        SloReport {
            n_nodes: run.n_nodes,
            n_clusters: run.n_clusters,
            submitted: m.counter("wl.query.submitted"),
            done,
            sim_ticks: run.sim_ticks,
            latency,
            throughput_milli: (done * 1000).checked_div(run.sim_ticks).unwrap_or(0),
            cache_hits: hits,
            cache_misses: misses,
            hit_rate_milli: (hits * 1000).checked_div(hits + misses).unwrap_or(0),
            cache_evictions: m.counter("wl.cache.evict"),
            invalidations: m.counter("wl.cache.inval"),
            batch_riders: m.counter("wl.batch.riders"),
            total_msgs: stats.total_packets(),
            total_cost: stats.total_cost(),
            msgs_per_query_milli: (wl_msgs * 1000).checked_div(done).unwrap_or(0),
            attributed_cost: run.costs.total_query_cost(),
            updates_recv: m.counter("wl.update.recv"),
            updates_absorbed: m.counter("wl.update.absorbed"),
            updates_sync: m.counter("wl.update.sync"),
        }
    }

    /// The JSON document (single line, stable key order). Two runs of the
    /// same seed must produce byte-identical output.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"schema\":\"{schema}\",",
                "\"n_nodes\":{n_nodes},\"n_clusters\":{n_clusters},",
                "\"submitted\":{submitted},\"done\":{done},\"sim_ticks\":{sim_ticks},",
                "\"latency\":{{\"count\":{lc},\"p50\":{p50},\"p90\":{p90},",
                "\"p99\":{p99},\"max\":{lmax},\"mean_milli\":{lmean}}},",
                "\"throughput_milli\":{thr},",
                "\"cache\":{{\"hits\":{hits},\"misses\":{misses},",
                "\"hit_rate_milli\":{hitrate},\"evictions\":{evict},",
                "\"invalidations\":{inval}}},",
                "\"batch_riders\":{riders},",
                "\"messages\":{{\"total_msgs\":{tmsgs},\"total_cost\":{tcost},",
                "\"per_query_milli\":{mpq},\"attributed_cost\":{attr}}},",
                "\"updates\":{{\"recv\":{urecv},\"absorbed\":{uabs},\"sync\":{usync}}}}}"
            ),
            schema = SCHEMA,
            n_nodes = self.n_nodes,
            n_clusters = self.n_clusters,
            submitted = self.submitted,
            done = self.done,
            sim_ticks = self.sim_ticks,
            lc = self.latency.count,
            p50 = self.latency.p50,
            p90 = self.latency.p90,
            p99 = self.latency.p99,
            lmax = self.latency.max,
            lmean = self.latency.mean_milli,
            thr = self.throughput_milli,
            hits = self.cache_hits,
            misses = self.cache_misses,
            hitrate = self.hit_rate_milli,
            evict = self.cache_evictions,
            inval = self.invalidations,
            riders = self.batch_riders,
            tmsgs = self.total_msgs,
            tcost = self.total_cost,
            mpq = self.msgs_per_query_milli,
            attr = self.attributed_cost,
            urecv = self.updates_recv,
            uabs = self.updates_absorbed,
            usync = self.updates_sync,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [10, 20, 30, 40, 50];
        assert_eq!(percentile(&v, 50), 30);
        assert_eq!(percentile(&v, 0), 10);
        assert_eq!(percentile(&v, 100), 50);
        assert_eq!(percentile(&[], 50), 0);
        assert_eq!(percentile(&[7], 50), 7);
        // Even count: the median is the lower middle sample, not a
        // rounded interpolation towards the upper one.
        assert_eq!(percentile(&[10, 20, 30, 40], 50), 20);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50), 50);
        assert_eq!(percentile(&v, 99), 99);
        assert_eq!(percentile(&v, 100), 100);
    }
}
