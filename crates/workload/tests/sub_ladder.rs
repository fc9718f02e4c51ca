//! The subscription occupancy ladder end to end: one coordinator's table
//! is driven past each rung of `qos` — the per-client cap (shed), the
//! degrade watermark (local-cluster watch) and the table capacity
//! (eviction) — through real registrations on a fault-free fleet.

use elink_datasets::TerrainDataset;
use elink_metric::{Absolute, Metric};
use elink_workload::qos::{DEGRADE_WATERMARK, MAX_PER_CLIENT, MAX_SUBS};
use elink_workload::subscribe::end_reason;
use elink_workload::{expected_matches, ServeOptions, WorkloadSim, WorkloadSpec};
use std::sync::Arc;

/// Large enough that the fleet's largest cluster holds more clients than
/// a full table has room for (`MAX_SUBS / MAX_PER_CLIENT + 1`).
const DELTA: f64 = 600.0;

#[test]
fn occupancy_ladder_sheds_degrades_and_evicts() {
    let data = TerrainDataset::generate(96, 6, 0.55, 7);
    let metric: Arc<dyn Metric> = Arc::new(Absolute);
    let mut spec = WorkloadSpec::quick(3);
    spec.n_queries = 0;
    spec.n_updates = 0;
    let mut sim = WorkloadSim::build(
        data.topology().clone(),
        data.features(),
        Arc::clone(&metric),
        DELTA,
        &spec,
        ServeOptions::for_delta(DELTA),
    );
    let n = sim.sim().nodes().len() as u64;
    let roots: Vec<usize> = (sim.sim().nodes().iter())
        .map(|nd| nd.plan().cluster_root)
        .collect();
    let coord = (0..roots.len())
        .max_by_key(|&r| roots.iter().filter(|&&x| x == r).count())
        .expect("non-empty fleet");
    let clients: Vec<usize> = (0..roots.len()).filter(|&v| roots[v] == coord).collect();
    let needed = MAX_SUBS / MAX_PER_CLIENT + 1;
    assert!(
        clients.len() >= needed,
        "largest cluster has {} members, the ladder needs {needed}",
        clients.len()
    );
    assert!(
        (clients.len() as u64) < n,
        "one cluster covers the fleet: degraded coverage would be full"
    );

    // The first client asks for one subscription over its cap; then
    // `needed - 1` more clients fill the table to its capacity and
    // one past it. Registrations are spaced so they reach the
    // coordinator in injection order. Full admissions watch template 0
    // and degraded ones template 1: a template view is shared by every
    // subscription on it, so a degraded subscription sharing a globally
    // watched template would still see full coverage.
    let mut registrations = vec![clients[0]; MAX_PER_CLIENT + 1];
    for &c in &clients[1..needed] {
        registrations.extend(std::iter::repeat_n(c, MAX_PER_CLIENT));
    }
    assert!(registrations.len() - 1 > MAX_SUBS);
    let spacing = 1
        + (clients.iter())
            .map(|&c| sim.sim().network().routing().hops(c, coord).unwrap())
            .max()
            .unwrap() as u64;
    for (k, &client) in registrations.iter().enumerate() {
        let at = 1 + k as u64 * spacing;
        // One earlier request was shed, so request `DEGRADE_WATERMARK + 1`
        // is the first to find the table at the watermark.
        let template = u16::from(k > DEGRADE_WATERMARK);
        sim.inject_subscribe(at, client, k as u64, template);
    }
    let anchors = sim.anchors();
    let templates = sim.schedule().templates.clone();
    let run = sim.run_concurrent();

    let m = &run.metrics;
    assert!(m.counter("wl.sub.shed") >= 1, "per-client cap never shed");
    assert!(
        m.counter("wl.sub.degraded") >= 1,
        "degrade watermark never fired"
    );
    assert!(m.counter("wl.sub.evicted") >= 1, "full table never evicted");
    // The rung counts follow from the registration sequence: one shed;
    // every admission from the watermark on is degraded; every
    // admission into a full table evicts.
    let admitted = registrations.len() as u64 - 1;
    assert_eq!(m.counter("wl.sub.shed"), 1);
    assert_eq!(
        m.counter("wl.sub.degraded"),
        admitted - DEGRADE_WATERMARK as u64
    );
    assert_eq!(m.counter("wl.sub.evicted"), admitted - MAX_SUBS as u64);

    let shed: Vec<_> = (run.subscriptions.iter())
        .filter(|s| s.end_reason == end_reason::SHED)
        .collect();
    assert_eq!(shed.len(), 1);
    assert_eq!(shed[0].sid, MAX_PER_CLIENT as u64, "the over-cap request");
    let evicted: Vec<_> = (run.subscriptions.iter())
        .filter(|s| s.end_reason == end_reason::EVICTED)
        .collect();
    assert_eq!(evicted.len() as u64, admitted - MAX_SUBS as u64);
    assert!(evicted.iter().all(|s| !s.active));

    // Live subscriptions are sound; the degraded ones report the reduced
    // coverage of their local-cluster watch.
    let live: Vec<_> = run.subscriptions.iter().filter(|s| s.active).collect();
    assert_eq!(live.len(), MAX_SUBS);
    for s in &live {
        assert!(s.version >= 1, "sid {} never received a snapshot", s.sid);
        let truth = expected_matches(&templates[s.template as usize], &anchors, metric.as_ref());
        assert!(
            s.view.iter().all(|v| truth.contains(v)),
            "sid {} view is not a subset of the truth",
            s.sid
        );
        if s.covered == n {
            assert_eq!(s.view, truth, "sid {} claims full coverage", s.sid);
        }
    }
    for s in live.iter().filter(|s| s.template == 1) {
        assert!(
            s.covered * 1000 / n < 1000,
            "degraded sid {} reports full coverage",
            s.sid
        );
    }
    assert!(live.iter().any(|s| s.template == 1));
}
