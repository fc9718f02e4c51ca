//! The standing-query serving bench behind `BENCH_sub.json` (schema
//! `elink-sub/v2`).
//!
//! Three runs share one deployment preset (same topology, features, seed
//! and update stream):
//!
//! 1. **maintenance control** — updates only, no serving. Its wire bill is
//!    the shared churn cost (invalidation climbs, absorption) that both
//!    serving strategies pay identically.
//! 2. **push** — clients register standing subscriptions once; every
//!    subsequent update is served by the incremental repair + delta-push
//!    pipeline.
//! 3. **re-query** — no subscriptions; after every update each would-be
//!    subscriber re-issues a one-shot query for its template (the strategy
//!    a standing query replaces).
//!
//! Strategy cost = total wire messages − control messages, i.e. exactly
//! the serving traffic added on top of churn maintenance. The headline
//! ratio `requery/push` (milli) is the ISSUE acceptance metric (floor
//! 2000 = "at least 2× fewer messages per update"). Push latency
//! percentiles come from the per-client samples recorded at delivery.

use elink_metric::{Absolute, Metric};
use elink_workload::{expected_matches, percentile, ServeOptions, WorkloadSim, WorkloadSpec};
use std::sync::Arc;

/// Everything the `sub` gate prints and serializes. Every field is
/// deterministic for a fixed preset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubReport {
    /// Nodes in the deployment.
    pub n_nodes: usize,
    /// Clusters in the deployment.
    pub n_clusters: usize,
    /// Standing subscriptions registered.
    pub n_subscribers: usize,
    /// Background feature updates driven through both strategies.
    pub n_updates: usize,
    /// Subscriptions still live at the end of the push run.
    pub active_subs: usize,
    /// Pushes applied across all clients.
    pub pushes: u64,
    /// Incremental repair descents at watcher roots.
    pub repairs: u64,
    /// Per-cluster contributions reported to coordinators.
    pub contribs: u64,
    /// Push latency percentiles (ticks, nearest-rank over applied pushes).
    pub push_p50: u64,
    /// 90th percentile push latency.
    pub push_p90: u64,
    /// 99th percentile push latency.
    pub push_p99: u64,
    /// Maximum push latency.
    pub push_max: u64,
    /// Serving wire messages of the push strategy (total − control).
    pub push_msgs: u64,
    /// Serving wire messages of the re-query strategy (total − control).
    pub requery_msgs: u64,
    /// Push serving messages per update (milli).
    pub push_per_update_milli: u64,
    /// Re-query serving messages per update (milli).
    pub requery_per_update_milli: u64,
    /// `requery_msgs / push_msgs` in milli — the acceptance ratio.
    pub ratio_milli: u64,
}

/// The bench preset: a 256-node terrain deployment, 8 subscribers over the
/// zipf head, 48 slack-exceeding-prone updates. `scale=1` is the committed
/// preset; tests shrink it.
pub fn preset(scale: u32) -> (WorkloadSpec, f64, usize) {
    let mut spec = WorkloadSpec::quick(42);
    spec.n_queries = 0;
    spec.n_updates = 48 / scale as usize;
    spec.update_gap = 24;
    spec.n_subscribers = 8 / scale.min(4) as usize;
    let n_nodes = 256 / scale as usize;
    (spec, 300.0, n_nodes)
}

fn build(spec: &WorkloadSpec, delta: f64, n_nodes: usize) -> WorkloadSim {
    let data = elink_datasets::TerrainDataset::generate(n_nodes, 6, 0.55, 7);
    WorkloadSim::build(
        data.topology().clone(),
        data.features(),
        Arc::new(Absolute),
        delta,
        spec,
        ServeOptions::for_delta(delta),
    )
}

/// Runs the three-way comparison for one preset scale.
pub fn run_once(scale: u32) -> SubReport {
    let (spec, delta, n_nodes) = preset(scale);
    let metric: Arc<dyn Metric> = Arc::new(Absolute);

    // 1. Maintenance control: churn only. Schedules are seed-deterministic,
    //    so the update stream is identical across all three runs.
    let control = {
        let mut s = spec.clone();
        s.n_subscribers = 0;
        let mut sim = build(&s, delta, n_nodes);
        let updates = sim.schedule().updates.clone();
        for u in updates {
            sim.inject_update(u.at, u.node, u.feature);
        }
        sim.quiesce();
        sim.sim().costs().total_packets()
    };

    // 2. Push: register subscribers, then drive the same churn through the
    //    incremental repair pipeline. Each update quiesces before the next
    //    so the per-update serving cost is honest (no cross-update
    //    coalescing hides traffic the re-query strategy would also save).
    let (push_total, n_clusters, subs, report_core) = {
        let mut sim = build(&spec, delta, n_nodes);
        let subs = sim.schedule().subscriptions.clone();
        let updates = sim.schedule().updates.clone();
        for s in &subs {
            sim.inject_subscribe(s.at, s.client, s.sid, s.template);
        }
        sim.quiesce();
        for u in updates {
            let at = u.at.max(sim.sim().now());
            sim.inject_update(at, u.node, u.feature);
            sim.quiesce();
        }
        let total = sim.sim().costs().total_packets();
        let templates = sim.schedule().templates.clone();
        let anchors = sim.anchors();
        // Soundness gate: every surviving view must equal brute-force truth
        // over final anchors (fault-free runs reach full coverage).
        let mut active = 0usize;
        let mut lats: Vec<u64> = Vec::new();
        let mut pushes = 0u64;
        for node in sim.sim().nodes() {
            for (sid, c) in node.client_subs() {
                if !c.active {
                    continue;
                }
                active += 1;
                pushes += c.pushes;
                lats.extend_from_slice(&c.latencies);
                let truth =
                    expected_matches(&templates[c.template as usize], &anchors, metric.as_ref());
                assert_eq!(
                    c.view, truth,
                    "push view diverged from ground truth (sid {sid})"
                );
            }
        }
        lats.sort_unstable();
        let repairs = sim.sim().metrics().counter("wl.sub.repair");
        let contribs = sim.sim().metrics().counter("wl.sub.contrib");
        (
            total,
            sim.n_clusters(),
            subs,
            (active, pushes, lats, repairs, contribs),
        )
    };

    // 3. Re-query: the same subscriber set refreshes by one-shot queries
    //    after every update.
    let requery_total = {
        let mut s = spec.clone();
        s.n_subscribers = 0;
        let mut sim = build(&s, delta, n_nodes);
        let updates = sim.schedule().updates.clone();
        let mut qid = 1u64 << 20;
        // Initial answers (the push run's snapshots).
        for s in &subs {
            let at = s.at.max(sim.sim().now());
            sim.inject_query(at, s.client, qid, s.template);
            qid += 1;
        }
        sim.quiesce();
        for u in updates {
            let at = u.at.max(sim.sim().now());
            sim.inject_update(at, u.node, u.feature);
            sim.quiesce();
            for s in &subs {
                let at = sim.sim().now();
                sim.inject_query(at, s.client, qid, s.template);
                qid += 1;
            }
            sim.quiesce();
        }
        sim.sim().costs().total_packets()
    };

    let (active_subs, pushes, lats, repairs, contribs) = report_core;
    let push_msgs = push_total.saturating_sub(control);
    let requery_msgs = requery_total.saturating_sub(control);
    let n_updates = spec.n_updates as u64;
    SubReport {
        n_nodes,
        n_clusters,
        n_subscribers: spec.n_subscribers,
        n_updates: spec.n_updates,
        active_subs,
        pushes,
        repairs,
        contribs,
        push_p50: percentile(&lats, 50),
        push_p90: percentile(&lats, 90),
        push_p99: percentile(&lats, 99),
        push_max: lats.last().copied().unwrap_or(0),
        push_msgs,
        requery_msgs,
        push_per_update_milli: push_msgs * 1000 / n_updates.max(1),
        requery_per_update_milli: requery_msgs * 1000 / n_updates.max(1),
        ratio_milli: requery_msgs * 1000 / push_msgs.max(1),
    }
}

impl SubReport {
    /// The JSON document (schema `elink-sub/v2`).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"schema\":\"elink-sub/v2\",\"n_nodes\":{},\"n_clusters\":{},",
                "\"n_subscribers\":{},\"n_updates\":{},\"active_subs\":{},",
                "\"pushes\":{},\"repairs\":{},\"contribs\":{},",
                "\"push_latency\":{{\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{}}},",
                "\"push_msgs\":{},\"requery_msgs\":{},",
                "\"push_per_update_milli\":{},\"requery_per_update_milli\":{},",
                "\"ratio_milli\":{}}}"
            ),
            self.n_nodes,
            self.n_clusters,
            self.n_subscribers,
            self.n_updates,
            self.active_subs,
            self.pushes,
            self.repairs,
            self.contribs,
            self.push_p50,
            self.push_p90,
            self.push_p99,
            self.push_max,
            self.push_msgs,
            self.requery_msgs,
            self.push_per_update_milli,
            self.requery_per_update_milli,
            self.ratio_milli,
        )
    }
}

/// The `sub` gate: the committed preset (`scale = 1`). It requires every
/// subscription to survive the fault-free run and push to cost at least
/// 2× fewer serving messages per update than re-query.
pub struct SubGate;

impl crate::Gate for SubGate {
    type Report = SubReport;
    const NAME: &'static str = "sub";

    fn run(&self) -> SubReport {
        run_once(1)
    }

    fn summary(&self, r: &SubReport) -> String {
        let milli = |v: u64| format!("{}.{:03}", v / 1000, v % 1000);
        format!(
            "sub n={} clusters={} subscribers={} updates={}\n  \
             pushes={} repairs={} contribs={} | push latency p50={} p90={} p99={} max={}\n  \
             serving msgs: push={} requery={} | per update: push={} requery={} | ratio={}x",
            r.n_nodes,
            r.n_clusters,
            r.n_subscribers,
            r.n_updates,
            r.pushes,
            r.repairs,
            r.contribs,
            r.push_p50,
            r.push_p90,
            r.push_p99,
            r.push_max,
            r.push_msgs,
            r.requery_msgs,
            milli(r.push_per_update_milli),
            milli(r.requery_per_update_milli),
            milli(r.ratio_milli)
        )
    }

    fn violations(&self, r: &SubReport) -> Vec<String> {
        let mut out = Vec::new();
        if r.active_subs < r.n_subscribers {
            out.push(format!(
                "only {}/{} subscriptions survived a fault-free run",
                r.active_subs, r.n_subscribers
            ));
        }
        if r.ratio_milli < 2000 {
            out.push(format!(
                "push/requery ratio {}.{:03}x below the 2x floor",
                r.ratio_milli / 1000,
                r.ratio_milli % 1000
            ));
        }
        out
    }

    fn json(&self, r: &SubReport) -> String {
        r.to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mini_preset_is_deterministic_and_beats_requery() {
        let a = run_once(4);
        let b = run_once(4);
        assert_eq!(a.to_json(), b.to_json());
        assert!(a.pushes > 0, "no pushes delivered");
        assert!(a.repairs > 0, "no incremental repairs ran");
        assert!(
            a.ratio_milli >= 2000,
            "push must beat re-query 2x even at mini scale: ratio_milli={}",
            a.ratio_milli
        );
    }

    #[test]
    fn report_is_schema_tagged_and_balanced() {
        let j = run_once(4).to_json();
        assert!(j.starts_with("{\"schema\":\"elink-sub/v2\""));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert!(!j.contains("wall_ms"));
    }
}
