//! Serving-layer determinism and cache-correctness regressions.

use elink_datasets::TerrainDataset;
use elink_metric::{Absolute, Feature};
use elink_workload::{expected_matches, ServeOptions, SloReport, WorkloadSim, WorkloadSpec};
use std::sync::Arc;

const DELTA: f64 = 300.0;

fn build(seed: u64, opts: ServeOptions, spec: &WorkloadSpec) -> WorkloadSim {
    let data = TerrainDataset::generate(96, 6, 0.55, seed);
    WorkloadSim::build(
        data.topology().clone(),
        data.features(),
        Arc::new(Absolute),
        DELTA,
        spec,
        opts,
    )
}

/// Same seed ⇒ byte-identical cost books, metrics (including the latency
/// histogram and cache counters), completions, and report JSON.
#[test]
fn same_seed_runs_are_byte_identical() {
    let spec = WorkloadSpec::quick(17);
    let a = build(5, ServeOptions::for_delta(DELTA), &spec).run_concurrent();
    let b = build(5, ServeOptions::for_delta(DELTA), &spec).run_concurrent();
    assert_eq!(a.costs, b.costs, "cost books diverged");
    assert_eq!(a.metrics, b.metrics, "metrics registries diverged");
    assert_eq!(a.completed, b.completed, "completions diverged");
    assert_eq!(a.sim_ticks, b.sim_ticks);
    assert_eq!(
        SloReport::from_run(&a).to_json(),
        SloReport::from_run(&b).to_json(),
        "deterministic report views diverged"
    );
}

/// The cache changes costs, never answers: the same schedule replayed
/// sequentially with caches on and off returns identical match sets.
#[test]
fn cached_answers_equal_uncached_answers() {
    let spec = WorkloadSpec::quick(23);
    let mut on = ServeOptions::for_delta(DELTA);
    on.cache_enabled = true;
    let mut off = on;
    off.cache_enabled = false;
    let with_cache = build(9, on, &spec).run_sequential();
    let without = build(9, off, &spec).run_sequential();
    assert_eq!(with_cache.completed.len(), without.completed.len());
    for (c, u) in with_cache.completed.iter().zip(&without.completed) {
        assert_eq!(c.qid, u.qid);
        assert_eq!(c.matches, u.matches, "qid {} answers diverged", c.qid);
        assert_eq!(c.path, u.path, "qid {} paths diverged", c.qid);
    }
    assert!(
        with_cache.metrics.counter("wl.cache.hit") > 0,
        "cache-on replay never hit — the comparison is vacuous"
    );
    assert_eq!(without.metrics.counter("wl.cache.hit"), 0);
}

/// A burst of same-template queries shares one descent: riders are
/// recorded, every query completes, and all get the same (correct) answer.
/// The batch window is zero, so the burst is timed to reach one cluster
/// root in the same tick: eight initiators of the largest cluster each
/// submit `hops(initiator, root)` ticks before a common arrival tick.
#[test]
fn same_tick_burst_batches_descents() {
    let spec = WorkloadSpec::quick(31);
    let mut sim = build(3, ServeOptions::for_delta(DELTA), &spec);
    let template = 0u16;
    let truth = expected_matches(
        &sim.schedule().templates[template as usize],
        &sim.anchors(),
        &Absolute,
    );
    let roots: Vec<usize> = (sim.sim().nodes().iter())
        .map(|nd| nd.plan().cluster_root)
        .collect();
    let root = (0..roots.len())
        .max_by_key(|&r| roots.iter().filter(|&&x| x == r).count())
        .expect("non-empty fleet");
    let members: Vec<usize> = (0..roots.len()).filter(|&v| roots[v] == root).collect();
    let routing = sim.sim().network().routing();
    let hops: Vec<u64> = (0..8)
        .map(|i| u64::from(routing.hops(members[i % members.len()], root).unwrap()))
        .collect();
    let arrival = 1 + hops.iter().max().unwrap();
    for (i, h) in hops.iter().enumerate() {
        let initiator = members[i % members.len()];
        sim.inject_query(arrival - h, initiator, 10_000 + i as u64, template);
    }
    sim.quiesce();
    let metrics = sim.sim().metrics().clone();
    let completed: Vec<_> = sim
        .sim()
        .nodes()
        .iter()
        .flat_map(|nd| nd.completed().iter().cloned())
        .collect();
    assert_eq!(completed.len(), 8, "burst queries lost");
    for c in &completed {
        assert_eq!(c.matches, truth, "qid {} wrong under batching", c.qid);
    }
    assert!(
        metrics.counter("wl.batch.riders") > 0,
        "no descent sharing in a same-template burst"
    );
    // Co-billing: every rider is attributed the full shared packets, so
    // attributed query cost must exceed what the wire actually carried
    // for at least one query pair — the aggregate check below.
    let book = sim.sim().costs();
    assert!(book.queries().count() >= 8, "query ledger missing entries");
    assert!(book.total_query_cost() > 0);
}

/// An update racing a query must not poison the cache: after quiescence a
/// repeat query answers exactly per the post-update anchors.
#[test]
fn racing_update_does_not_poison_cache() {
    let spec = WorkloadSpec::quick(41);
    let mut sim = build(11, ServeOptions::for_delta(DELTA), &spec);
    let template = 0u16;
    let n = sim.sim().nodes().len();
    // A slack-exceeding update: move node 7 far away in feature space.
    let huge = Feature::scalar(99_999.0);
    sim.inject_query(1, 3 % n, 20_000, template);
    sim.inject_update(1, 7 % n, huge);
    sim.quiesce();
    assert!(
        sim.sim().metrics().counter("wl.update.sync") > 0,
        "update was absorbed; race not exercised"
    );
    // Ground truth over the settled anchors; the repeat query must agree.
    let truth = expected_matches(
        &sim.schedule().templates[template as usize],
        &sim.anchors(),
        &Absolute,
    );
    let at = sim.sim().now();
    sim.inject_query(at, 5 % n, 20_001, template);
    sim.quiesce();
    let repeat = sim
        .sim()
        .nodes()
        .iter()
        .flat_map(|nd| nd.completed().iter())
        .find(|c| c.qid == 20_001)
        .expect("repeat query completed")
        .matches
        .clone();
    assert_eq!(repeat, truth, "stale cache served after invalidation");
}

/// Absorbed (within-slack) updates leave anchors — and therefore every
/// cached answer — untouched: the cache keeps serving hits and the repeat
/// answer is unchanged.
#[test]
fn absorbed_updates_keep_cache_exact() {
    let spec = WorkloadSpec::quick(43);
    let mut sim = build(13, ServeOptions::for_delta(DELTA), &spec);
    let template = 0u16;
    sim.inject_query(1, 2, 30_000, template);
    sim.quiesce();
    let before = expected_matches(
        &sim.schedule().templates[template as usize],
        &sim.anchors(),
        &Absolute,
    );
    // Nudge a node within the slack (Δ = δ/4 = 75): absorbed, no climb.
    let anchors = sim.anchors();
    let nudged = Feature::scalar(anchors[4].components()[0] + 1.0);
    let at = sim.sim().now();
    sim.inject_update(at, 4, nudged);
    sim.quiesce();
    assert_eq!(sim.sim().metrics().counter("wl.update.sync"), 0);
    assert_eq!(sim.sim().metrics().counter("wl.cache.inval"), 0);
    assert_eq!(sim.anchors(), anchors, "absorbed update moved an anchor");
    let at = sim.sim().now();
    sim.inject_query(at, 9, 30_001, template);
    sim.quiesce();
    let repeat = sim
        .sim()
        .nodes()
        .iter()
        .flat_map(|nd| nd.completed().iter())
        .find(|c| c.qid == 30_001)
        .expect("repeat completed")
        .matches
        .clone();
    assert_eq!(repeat, before, "absorbed update changed an answer");
    assert!(sim.sim().metrics().counter("wl.cache.hit") > 0);
}

/// Closed-loop drives are as deterministic as open-loop ones.
#[test]
fn closed_loop_same_seed_determinism() {
    let mut spec = WorkloadSpec::quick(19);
    spec.arrival = elink_workload::Arrival::Closed {
        clients: 5,
        think: 3,
    };
    let a = build(7, ServeOptions::for_delta(DELTA), &spec).run_concurrent();
    let b = build(7, ServeOptions::for_delta(DELTA), &spec).run_concurrent();
    assert_eq!(a.costs, b.costs);
    assert_eq!(a.metrics, b.metrics);
    assert_eq!(a.completed, b.completed);
}

/// The echo convergecast forwards per-cluster runs up the backbone and the
/// coordinator merges them once. Runs are disjoint, so the wire bill of
/// `BackAgg` and `Down` is exactly that of flat, deduplicated lists: both
/// are pinned here for a deployment whose backbone has relaying levels,
/// and every answer must equal the ground truth.
#[test]
fn echo_runs_keep_convergecast_costs_and_answers() {
    let mut spec = WorkloadSpec::quick(7);
    spec.n_updates = 0; // truth = initial anchors under concurrency
    let sim = build(2, ServeOptions::for_delta(DELTA), &spec);
    let anchors = sim.anchors();
    let templates = sim.schedule().templates.clone();
    let relays = sim
        .sim()
        .nodes()
        .iter()
        .filter(|nd| nd.plan().backbone_peers.len() >= 2)
        .count();
    assert!(relays > 0, "backbone has no relaying level");
    let run = sim.run_concurrent();
    assert_eq!(run.completed.len(), spec.n_queries);
    for c in &run.completed {
        let truth = expected_matches(&templates[c.template as usize], &anchors, &Absolute);
        assert_eq!(c.matches, truth, "qid {} answer", c.qid);
    }
    // The bill of flat, deduplicated answer lists, which the runs must
    // reproduce exactly.
    let (back, down) = (run.costs.kind("wl_backagg"), run.costs.kind("wl_down"));
    assert_eq!((back.packets, back.cost), (1500, 12317), "wl_backagg bill");
    assert_eq!((down.packets, down.cost), (81, 2625), "wl_down bill");
}
