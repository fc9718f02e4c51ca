//! Recovery deadlines sized from the serving plan (DESIGN.md §10.2): the
//! echo budgets nest along every backbone edge, every budget is at most
//! the fleet-wide bound it replaced, and a finished wave leaves no timer
//! behind.

use elink_metric::{Absolute, Feature, Metric};
use elink_netsim::{ArqConfig, LossyLink};
use elink_topology::Topology;
use elink_workload::{DeadlinePlan, ServeOptions, WorkloadSim, WorkloadSpec};
use std::sync::Arc;

/// The `chaos` gate's fleet: 192 terrain nodes at δ = 300.
fn chaos_fixture() -> (Topology, Vec<Feature>, f64) {
    let data = elink_datasets::TerrainDataset::generate(192, 6, 0.55, 7);
    (data.topology().clone(), data.features(), 300.0)
}

fn recovery_opts(delta: f64) -> ServeOptions {
    let mut opts = ServeOptions::for_delta(delta);
    opts.recovery = true;
    opts
}

/// The chaos deployment's deadline plan, its fleet size, and the idle
/// delivery envelope of the chaos transport (per-hop delay 1–2 through
/// the full ARQ retry envelope).
fn chaos_plan() -> (DeadlinePlan, u64, u64) {
    let (topo, features, delta) = chaos_fixture();
    let n = topo.n() as u64;
    let metric: Arc<dyn Metric> = Arc::new(Absolute);
    let sim = WorkloadSim::build_with_link(
        topo,
        features,
        metric,
        delta,
        &WorkloadSpec::quick(42),
        recovery_opts(delta),
        LossyLink::new(1, 2),
        Some(ArqConfig::default()),
    );
    let d = sim.sim().nominal_delivery_delay();
    (sim.deadline_plan().clone(), n, d)
}

#[test]
fn plan_deadlines_nest() {
    let (plan, n, chaos_d) = chaos_plan();
    let k = plan.backbone_ecc.len();
    assert!(k > 2, "the fixture must have a backbone to nest along");
    for d in [1, 2, chaos_d] {
        let t = plan.transit(d);
        for c in 0..k {
            for &(p, _) in &plan.backbone_away[c] {
                // Edge p → c: c answers for its subtree away from p. Every
                // seat p can fan out to c from — coordinator, or reached
                // from any other neighbor — waits longer than c's budget
                // plus the transit of c's answer.
                let child = plan.echo(c, Some(p), d);
                let mut seats = vec![plan.echo(p, None, d)];
                for &(q, _) in &plan.backbone_away[p] {
                    if q != c {
                        seats.push(plan.echo(p, Some(q), d));
                    }
                }
                for parent in seats {
                    assert!(
                        child + t < parent,
                        "d={d}: edge {p}->{c}: child {child} + transit {t} >= parent {parent}"
                    );
                }
            }
        }
        // Every new bound is at most the fleet-wide bound it replaced:
        // descents walked n + 1 tree edges, echoes k + 1 backbone levels.
        let old_eval = 2 * (n + 1) * d + 2 * t;
        let old_echo = (k as u64 + 1) * (old_eval + 2 * t);
        let old_init = 2 * old_echo + 4 * t;
        for c in 0..k {
            assert!(plan.descent(c, d) <= old_eval, "d={d}: descent of {c}");
            assert!(plan.echo(c, None, d) <= old_echo, "d={d}: echo at {c}");
            for &(p, _) in &plan.backbone_away[c] {
                assert!(plan.echo(c, Some(p), d) <= old_echo, "d={d}: echo {p}->{c}");
            }
            assert!(plan.watchdog(c, d) <= old_init, "d={d}: watchdog at {c}");
        }
    }
}

#[test]
fn backbone_heights_match_a_direct_walk() {
    let (plan, _, _) = chaos_plan();
    let k = plan.backbone_ecc.len();
    // Breadth-first eccentricity over the backbone adjacency.
    let ecc = |root: usize| {
        let mut dist = vec![u64::MAX; k];
        dist[root] = 0;
        let mut queue = std::collections::VecDeque::from([root]);
        while let Some(c) = queue.pop_front() {
            for &(p, _) in &plan.backbone_away[c] {
                if dist[p] == u64::MAX {
                    dist[p] = dist[c] + 1;
                    queue.push_back(p);
                }
            }
        }
        dist.into_iter().max().unwrap_or(0)
    };
    for c in 0..k {
        assert_eq!(plan.backbone_ecc[c], ecc(c), "eccentricity of {c}");
        // c's subtree away from p hangs one edge below p, so it is shorter
        // than p's eccentricity and no taller than c's own.
        for &(p, h) in &plan.backbone_away[c] {
            assert!(h < plan.backbone_ecc[p], "away height {p}->{c}");
            assert!(h <= plan.backbone_ecc[c], "away height {p}->{c}");
        }
    }
    assert!(plan.tree_height.iter().all(|&h| h < 192));
}

/// With recovery armed on a fault-free transport, every wave cancels its
/// deadline when it finishes: the run goes quiet at its last answer
/// instead of waiting out stale watchdogs.
#[test]
fn fault_free_recovery_run_ends_at_its_last_answer() {
    let data = elink_datasets::TerrainDataset::generate(96, 6, 0.55, 7);
    let delta = 300.0;
    let mut spec = WorkloadSpec::quick(11);
    spec.n_updates = 0;
    let run = WorkloadSim::build(
        data.topology().clone(),
        data.features(),
        Arc::new(Absolute),
        delta,
        &spec,
        recovery_opts(delta),
    )
    .run_concurrent();
    assert_eq!(run.completed.len(), spec.n_queries);
    let last = run.completed.iter().map(|c| c.finished).max().unwrap();
    assert_eq!(run.sim_ticks, last, "stale timers outlived the last answer");
    for counter in [
        "wl.recover.reissue",
        "wl.recover.echo_gaveup",
        "wl.recover.eval_gaveup",
        "wl.recover.resubmit",
    ] {
        assert_eq!(run.metrics.counter(counter), 0, "{counter}");
    }
}
