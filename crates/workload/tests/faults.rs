//! Fault-tolerance regression tests for the serving layer: loss-invisibility
//! under ARQ, and leader-crash failover.

use elink_metric::{Absolute, Feature, Metric};
use elink_netsim::{ArqConfig, LossyLink};
use elink_topology::Topology;
use elink_workload::{expected_matches, ServeOptions, WorkloadSim, WorkloadSpec};
use std::sync::Arc;

fn fixture(seed: u64) -> (Topology, Vec<Feature>, f64) {
    let data = elink_datasets::TerrainDataset::generate(96, 6, 0.55, seed);
    (data.topology().clone(), data.features(), 300.0)
}

/// Recovery-armed serving options (otherwise the library defaults).
fn recovery_opts(delta: f64) -> ServeOptions {
    let mut opts = ServeOptions::for_delta(delta);
    opts.recovery = true;
    opts
}

/// The serving-layer reliability headline: the full concurrent benchmark run
/// over links that drop 20% of all transmissions produces, query for query,
/// the *same answers* as the loss-free run on the same transport — the ARQ
/// sublayer absorbs every loss with bounded retries, no recovery deadline
/// ever fires against live state, and every answer reports full coverage.
#[test]
fn lossy_arq_benchmark_answers_are_identical_to_loss_free() {
    let (topo, features, delta) = fixture(7);
    let spec = WorkloadSpec::quick(11);
    let run = |drop: f64| {
        WorkloadSim::build_with_link(
            topo.clone(),
            features.clone(),
            Arc::new(Absolute),
            delta,
            &spec,
            recovery_opts(delta),
            LossyLink::new(1, 1).with_drop_prob(drop),
            Some(ArqConfig::default()),
        )
        .run_concurrent()
    };
    let loss_free = run(0.0);
    let lossy = run(0.2);

    assert_eq!(loss_free.completed.len(), spec.n_queries);
    assert_eq!(lossy.completed.len(), spec.n_queries);
    for (a, b) in loss_free.completed.iter().zip(&lossy.completed) {
        assert_eq!(a.qid, b.qid);
        assert_eq!(a.template, b.template);
        assert_eq!(
            a.matches, b.matches,
            "qid {}: answers diverge under loss",
            a.qid
        );
        assert_eq!(
            a.path, b.path,
            "qid {}: safe paths diverge under loss",
            a.qid
        );
        assert_eq!(
            a.coverage_milli, 1000,
            "qid {}: loss-free run not fully covered",
            a.qid
        );
        assert_eq!(
            b.coverage_milli, 1000,
            "qid {}: lossy run degraded to partial",
            b.qid
        );
    }
    // The recovery was transport-level only: retransmissions happened, no
    // link transfer exhausted its budget, no wave was forced partial.
    assert_eq!(loss_free.metrics.counter("net.retx"), 0);
    assert!(lossy.metrics.counter("net.retx") > 0);
    assert_eq!(lossy.metrics.counter("net.timeout"), 0);
    assert_eq!(lossy.metrics.counter("wl.query.partial"), 0);
    assert_eq!(lossy.metrics.counter("maint.failover"), 0);
}

/// Crash a cluster leader before the run starts: every query still
/// completes, answered by the deterministic failover successor
/// (lexicographically-least surviving member), and every answer equals the
/// ground truth over all *coverable* anchors — everything except the dead
/// ex-root, whose absence is honestly reported as partial coverage.
#[test]
fn leader_crash_fails_over_and_answers_remain_exact_over_survivors() {
    let (topo, features, delta) = fixture(7);
    let metric: Arc<dyn Metric> = Arc::new(Absolute);

    // Recover the deployment's leader set (the build's clustering is the
    // same deterministic implicit-ELink run).
    let net = elink_netsim::SimNetwork::new(topo.clone());
    let clustering = elink_core::run_implicit(
        &net,
        &features,
        Arc::clone(&metric),
        elink_core::ElinkConfig::for_delta(delta),
    )
    .clustering;
    // Victim selection: the leader of a real (≥3-member) cluster that no
    // alive-pair shortest-path route relays through. Routing is static
    // (built on the pristine topology), so crashing a relay would conflate
    // permanent transport unreachability with the recovery-layer contract
    // this test isolates; relay crashes are the chaos campaign's job.
    let routing = elink_topology::RoutingTable::build(topo.graph());
    let dead = clustering
        .clusters
        .iter()
        .filter(|c| c.members.len() >= 3)
        .map(|c| c.root)
        .find(|&leader| {
            let alive: Vec<usize> = (0..topo.n()).filter(|&v| v != leader).collect();
            alive.iter().all(|&a| {
                alive
                    .iter()
                    .filter(|&&b| a < b)
                    .all(|&b| routing.path(a, b).is_none_or(|p| !p.contains(&leader)))
            })
        })
        .expect("fixture has a non-relay leader of a real cluster");

    let mut spec = WorkloadSpec::quick(11);
    spec.n_updates = 0; // static anchors: ground truth is the initial features
    let sim = WorkloadSim::build_with_link(
        topo,
        features.clone(),
        Arc::clone(&metric),
        delta,
        &spec,
        recovery_opts(delta),
        LossyLink::new(1, 1).with_crash(dead, 1, None),
        Some(ArqConfig::default()),
    );
    let templates = sim.schedule().templates.clone();
    let expected_done = sim
        .schedule()
        .submissions
        .iter()
        .filter(|s| s.initiator != dead)
        .count();
    let run = sim.run_concurrent();

    assert!(
        run.metrics.counter("maint.failover") >= 1,
        "no failover happened"
    );
    assert_eq!(
        run.completed.len(),
        expected_done,
        "a surviving query wedged"
    );

    // With a non-relay victim no unicast between survivors is ever lost, so
    // the answers must be *exact* over the survivors, and the only coverage
    // gap is the dead ex-root itself — its current anchor is unknowable, so
    // every answer honestly reports (n-1)/n coverage and bumps the partial
    // counter.
    let n = features.len() as u64;
    let clean = ((n - 1) * 1000 / n) as u16;
    for c in &run.completed {
        let truth = expected_matches(&templates[c.template as usize], &features, metric.as_ref());
        let survivors: Vec<_> = truth.iter().copied().filter(|&v| v != dead).collect();
        assert_eq!(
            c.matches, survivors,
            "qid {}: answer differs from ground truth over survivors",
            c.qid
        );
        assert_eq!(
            c.coverage_milli, clean,
            "qid {}: coverage not (n-1)/n",
            c.qid
        );
    }
    assert_eq!(
        run.metrics.counter("wl.query.partial"),
        run.completed.len() as u64
    );
}

/// A load cell rather than a loss cell: serve the query-only campaign
/// schedule over a capacity-1 `FairShareLink` with the load-admission
/// ladder armed (capacity cells always arm it). Contention stretches the
/// clock and queues real ticks; the ladder may degrade or shed work, but
/// never silently — every submission completes in exactly one admission
/// bucket, every answer stays sound, and the cell audit reports zero
/// violations.
#[test]
fn contended_capacity_cell_stays_sound_and_queues() {
    let (topo, features, delta) = fixture(7);
    let metric: Arc<dyn Metric> = Arc::new(Absolute);
    let mut spec = WorkloadSpec::quick(11);
    spec.n_queries = 12;
    spec.n_updates = 0;
    let cell = |capacity: Option<u64>| {
        elink_workload::run_cell(
            &topo,
            &features,
            &metric,
            delta,
            &spec,
            elink_workload::FaultSpec {
                drop_milli: 0,
                crash_milli: 0,
                partition: None,
                capacity,
            },
        )
    };
    let contended = cell(Some(1));
    let uncontended = cell(None);

    // Liveness and soundness survive the backlog — shed queries included:
    // a shed is an explicit, immediate zero-coverage answer, never a
    // silent drop.
    assert_eq!(contended.done, contended.expected, "a query wedged");
    assert_eq!(contended.violations, 0, "an answer broke soundness");
    // Every submission lands in exactly one admission bucket.
    assert_eq!(
        contended.admitted + contended.degraded + contended.shed,
        contended.done,
        "admission buckets must partition the completed queries"
    );
    // The load actually bit: real queueing was recorded, none for the
    // per-message baseline.
    assert!(
        contended.queued_ms > 0,
        "capacity-1 cell recorded no queueing"
    );
    assert_eq!(uncontended.queued_ms, 0);
    // The per-message baseline runs with the ladder disarmed: everything
    // is admitted at full scope and answers exactly.
    assert_eq!(uncontended.admitted, uncontended.done);
    assert_eq!(uncontended.degraded + uncontended.shed, 0);
    assert_eq!(uncontended.exact, uncontended.done);
    // Queries the contended ladder admitted at full scope still answer
    // exactly — degradation is confined to the flagged queries.
    assert!(
        contended.exact >= contended.admitted,
        "a full-scope answer lost coverage"
    );
}

/// The standing-subscription load cell: the full subscription pipeline
/// (registration floods, repair descents, contributions, delta pushes,
/// acks) over a capacity-64 `FairShareLink`, where concurrent transfers
/// queue and the nominal per-hop envelope no longer bounds delivery. The
/// retransmit deadlines are sized by the backlog-aware
/// `Ctx::max_delivery_delay` envelope, so backlog alone must never fire
/// one: a single spurious retry here means the deadline ignored queueing.
#[test]
fn contended_subscriptions_never_fire_spurious_retries() {
    let (topo, features, delta) = fixture(7);
    let metric: Arc<dyn Metric> = Arc::new(Absolute);
    let n = topo.n() as u64;
    let mut spec = WorkloadSpec::quick(11);
    spec.n_queries = 0;
    spec.n_subscribers = 6;
    let mut sim = WorkloadSim::build_with_link(
        topo,
        features,
        Arc::clone(&metric),
        delta,
        &spec,
        recovery_opts(delta),
        elink_netsim::FairShareLink::new(64),
        Some(ArqConfig::default()),
    );
    let subs = sim.schedule().subscriptions.clone();
    let updates = sim.schedule().updates.clone();
    for s in &subs {
        sim.inject_subscribe(s.at, s.client, s.sid, s.template);
    }
    for u in &updates {
        sim.inject_update(u.at, u.node, u.feature.clone());
    }
    sim.quiesce();

    let templates = sim.schedule().templates.clone();
    let anchors = sim.anchors();
    for s in &subs {
        let node = &sim.sim().nodes()[s.client];
        let sub = node
            .client_sub(s.sid)
            .expect("subscription state missing at client");
        assert!(sub.active, "subscription {} died under load", s.sid);
        assert_eq!(sub.covered, n, "subscription {} lost coverage", s.sid);
        let truth = expected_matches(&templates[s.template as usize], &anchors, metric.as_ref());
        assert_eq!(
            sub.view, truth,
            "subscription {}: view diverged under contention",
            s.sid
        );
    }
    let m = sim.sim().metrics();
    // The load bit (transfers actually queued), yet no recovery deadline
    // mistook backlog for loss.
    assert!(m.counter("net.queued_ms") > 0, "capacity-64 never queued");
    assert_eq!(
        m.counter("wl.sub.push.retry"),
        0,
        "backlog fired a push retransmit"
    );
    assert_eq!(
        m.counter("wl.sub.contrib.retry"),
        0,
        "backlog fired a contribution retransmit"
    );
    assert!(m.counter("wl.sub.push") > 0, "no pushes at all");
}

/// The standing-subscription fault cell: drop faults plus a leader crash
/// landing mid-subscription (after the initial snapshots, before the
/// churn). The crash kills the coordinator of the first subscription; the
/// cell must observe a real failover, keep serving pushes through the
/// successor, and every surviving client's view must stay sound — exact
/// under full coverage, a subset of the last-known-anchor truth otherwise.
#[test]
fn leader_crash_mid_subscription_keeps_pushes_sound() {
    let (topo, features, delta) = fixture(7);
    let metric: Arc<dyn Metric> = Arc::new(Absolute);
    let cell = elink_workload::run_sub_cell(
        &topo,
        &features,
        &metric,
        delta,
        11,
        elink_workload::SubFaultSpec {
            drop_milli: 150,
            capacity: None,
        },
    )
    .expect("fixture offers no isolatable (non-relay) coordinator victim");
    assert!(cell.failovers >= 1, "the crash produced no takeover");
    assert_eq!(cell.violations, 0, "a push view broke soundness");
    assert!(cell.active >= 1, "no subscription survived the failover");
    assert!(cell.pushes > 0, "no pushes were applied after the crash");
    assert!(cell.repairs > 0, "churn drove no incremental repairs");
    // The takeover solicited re-registrations on top of the initial ones:
    // the successor re-admits subscriptions whose table died with the old
    // coordinator, so admissions outnumber client registrations.
    assert!(
        cell.admitted > cell.registered,
        "no post-crash re-registration was re-admitted (registered={} admitted={})",
        cell.registered,
        cell.admitted
    );
    // Determinism: the cell is a pure function of its inputs.
    let again = elink_workload::run_sub_cell(
        &topo,
        &features,
        &metric,
        delta,
        11,
        elink_workload::SubFaultSpec {
            drop_milli: 150,
            capacity: None,
        },
    )
    .expect("fixture offers no isolatable (non-relay) coordinator victim");
    assert_eq!(cell, again, "sub cell is not deterministic");
}
