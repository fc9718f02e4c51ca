//! Regression tests for the layered netsim substrate: seed determinism of
//! the ELink and maintenance protocols under every link model, and ELink's
//! behaviour when the link layer crash-fails nodes mid-run.

use elink_core::maintenance_protocol::{maintenance_nodes, MaintMsg};
use elink_core::protocol::SignalMode;
use elink_core::{
    run_implicit, run_with_link, run_with_options, ElinkConfig, ElinkOutcome, RunOptions,
};
use elink_metric::{Absolute, Feature, Metric};
use elink_netsim::{ArqConfig, LinkModel, LossyLink, SimNetwork, Simulator, SyncLink};
use elink_topology::Topology;
use std::sync::Arc;

/// 6×6 grid with a smooth two-zone feature field.
fn grid_scenario() -> (SimNetwork, Vec<Feature>) {
    let topo = Topology::grid(6, 6);
    let features: Vec<Feature> = (0..topo.n())
        .map(|v| Feature::scalar(if v % 6 < 3 { 0.0 } else { 50.0 }))
        .collect();
    (SimNetwork::new(topo), features)
}

/// One swept link regime: name, transport, signalling mode, ARQ config.
type LinkRegime = (
    &'static str,
    Box<dyn LinkModel>,
    SignalMode,
    Option<ArqConfig>,
);

/// The three link regimes each determinism test sweeps. Explicit signalling
/// runs everywhere — under loss it rides the engine's ARQ sublayer, which
/// retransmits each dropped hop instead of letting the handshake stall.
fn link_regimes() -> Vec<LinkRegime> {
    vec![
        ("sync", SyncLink.into(), SignalMode::Explicit, None),
        (
            "async",
            LossyLink::new(1, 4).into(),
            SignalMode::Explicit,
            None,
        ),
        (
            "lossy",
            LossyLink::new(1, 3).with_drop_prob(0.15).into(),
            SignalMode::Explicit,
            Some(ArqConfig::default()),
        ),
    ]
}

/// (assignments, elapsed, per-kind cost bill) — everything a rerun must reproduce.
type RunSnapshot = (Vec<usize>, u64, Vec<(&'static str, u64, u64)>);

fn snapshot(outcome: &ElinkOutcome) -> RunSnapshot {
    (
        outcome.clustering.assignment.clone(),
        outcome.elapsed,
        outcome
            .costs
            .iter()
            .map(|(k, s)| (k, s.packets, s.cost))
            .collect(),
    )
}

#[test]
fn elink_is_deterministic_per_seed_under_every_link_model() {
    for (name, _, mode, arq) in link_regimes() {
        let runs: Vec<_> = (0..2)
            .map(|_| {
                let (network, features) = grid_scenario();
                let link = link_regimes()
                    .into_iter()
                    .find(|(n, _, _, _)| *n == name)
                    .unwrap()
                    .1;
                let outcome = run_with_options(
                    &network,
                    &features,
                    Arc::new(Absolute),
                    ElinkConfig::for_delta(10.0),
                    mode,
                    link,
                    9,
                    RunOptions {
                        arq,
                        ..RunOptions::default()
                    },
                );
                snapshot(&outcome)
            })
            .collect();
        assert_eq!(runs[0].0, runs[1].0, "{name}: cluster assignments diverge");
        assert_eq!(runs[0].1, runs[1].1, "{name}: completion times diverge");
        assert_eq!(runs[0].2, runs[1].2, "{name}: cost books diverge");
    }
}

#[test]
fn maintenance_protocol_is_deterministic_per_seed_under_every_link_model() {
    let (network, features) = grid_scenario();
    let metric: Arc<dyn Metric> = Arc::new(Absolute);
    let clustering = run_implicit(
        &network,
        &features,
        Arc::clone(&metric),
        ElinkConfig::for_delta(10.0),
    )
    .clustering;
    // A deterministic update stream: each touched node drifts a little.
    let stream: Vec<(usize, f64)> = (0..30)
        .map(|i| {
            let node = (i * 11 + 3) % features.len();
            let base = if node % 6 < 3 { 0.0 } else { 50.0 };
            (node, base + ((i % 5) as f64 - 2.0))
        })
        .collect();

    for (name, _, _, arq) in link_regimes() {
        let runs: Vec<_> = (0..2)
            .map(|_| {
                let link = link_regimes()
                    .into_iter()
                    .find(|(n, _, _, _)| *n == name)
                    .unwrap()
                    .1;
                let nodes =
                    maintenance_nodes(&clustering, Arc::clone(&metric), &features, 10.0, 1.0);
                let mut sim = Simulator::new(network.clone(), link, 9, nodes);
                if let Some(arq_config) = arq {
                    sim.enable_arq(arq_config);
                }
                sim.run_to_completion();
                for &(node, value) in &stream {
                    let now = sim.now();
                    sim.inject(now, node, MaintMsg::FeatureUpdate(Feature::scalar(value)));
                    sim.run_to_completion();
                }
                let roots: Vec<usize> = sim.nodes().iter().map(|n| n.root).collect();
                let bill: Vec<_> = sim
                    .costs()
                    .iter()
                    .map(|(k, s)| (k, s.packets, s.cost))
                    .collect();
                let ledger = sim.costs().nodes().to_vec();
                (roots, sim.now(), bill, ledger)
            })
            .collect();
        assert_eq!(runs[0].0, runs[1].0, "{name}: final roots diverge");
        assert_eq!(runs[0].1, runs[1].1, "{name}: final times diverge");
        assert_eq!(runs[0].2, runs[1].2, "{name}: cost books diverge");
        assert_eq!(runs[0].3, runs[1].3, "{name}: per-node ledgers diverge");
    }
}

#[test]
fn elink_is_deterministic_per_seed_on_random_uniform_topology() {
    // Same seed, twice, on an irregular (random-uniform) deployment: the
    // whole CostBook — per-kind bill AND per-node ledger — and the cluster
    // assignment must be bit-for-bit identical. This is the dynamic check
    // backing simlint's no-unordered-iteration rule: a HashMap order leak
    // into message emission shows up here as a diverging ledger.
    let topo = Topology::random_synthetic(60, 42);
    let features: Vec<Feature> = (0..topo.n())
        .map(|v| Feature::scalar(((v * 7) % 3) as f64 * 40.0))
        .collect();
    for (name, _, mode, arq) in link_regimes() {
        let runs: Vec<ElinkOutcome> = (0..2)
            .map(|_| {
                let network = SimNetwork::new(topo.clone());
                let link = link_regimes()
                    .into_iter()
                    .find(|(n, _, _, _)| *n == name)
                    .unwrap()
                    .1;
                run_with_options(
                    &network,
                    &features,
                    Arc::new(Absolute),
                    ElinkConfig::for_delta(10.0),
                    mode,
                    link,
                    7,
                    RunOptions {
                        arq,
                        ..RunOptions::default()
                    },
                )
            })
            .collect();
        assert_eq!(
            runs[0].clustering.assignment, runs[1].clustering.assignment,
            "{name}: cluster assignments diverge on random topology"
        );
        assert_eq!(
            runs[0].costs, runs[1].costs,
            "{name}: CostBook ledgers diverge on random topology"
        );
        assert_eq!(
            runs[0].elapsed, runs[1].elapsed,
            "{name}: completion times diverge on random topology"
        );
    }
}

/// The reliability headline: handshake-driven Explicit ELink, run over links
/// that drop 20% of all transmissions, produces the *same cluster
/// assignment* as the loss-free run with the same transport — the ARQ
/// sublayer absorbs every loss with bounded retries (no protocol changes),
/// and the protocol's conservative timeouts stretch to the ARQ delivery
/// envelope. The transport is held fixed on both sides because the timeout
/// scale is part of Explicit ELink's timing (exactly as sync vs async
/// networks may resolve expansion races differently); the claim under test
/// is that *loss itself* is invisible.
#[test]
fn explicit_over_arq_at_drop_02_matches_loss_free_assignment() {
    let config = ElinkConfig::for_delta(10.0);
    let run = |drop: f64| {
        let (network, features) = grid_scenario();
        run_with_options(
            &network,
            &features,
            Arc::new(Absolute),
            config,
            SignalMode::Explicit,
            LossyLink::new(1, 1).with_drop_prob(drop),
            11,
            RunOptions {
                arq: Some(ArqConfig::default()),
                ..RunOptions::default()
            },
        )
    };
    let loss_free = run(0.0);
    let lossy = run(0.2);
    assert_eq!(
        loss_free.clustering.assignment, lossy.clustering.assignment,
        "ARQ must make the lossy run converge to the loss-free clusters"
    );
    // The recovery was real: retransmissions happened, and none of the link
    // transfers exhausted its retry budget (no livelock, no lost handshake).
    assert_eq!(loss_free.metrics.counter("net.retx"), 0);
    assert!(lossy.metrics.counter("net.retx") > 0);
    assert_eq!(lossy.metrics.counter("net.timeout"), 0);
}

#[test]
fn elink_survives_crash_of_ten_percent_of_nodes_mid_run() {
    let topo = Topology::grid(8, 8);
    let n = topo.n();
    let features: Vec<Feature> = (0..n)
        .map(|v| Feature::scalar(if v % 8 < 4 { 0.0 } else { 100.0 }))
        .collect();
    let network = SimNetwork::new(topo.clone());
    let delta = 10.0;

    // Reference run to find the loss-free completion time, then crash ≥10%
    // of the nodes (spread over the grid, never recovering) at its midpoint.
    let reference = run_implicit(
        &network,
        &features,
        Arc::new(Absolute),
        ElinkConfig::for_delta(delta),
    );
    let crash_at = reference.elapsed / 2;
    assert!(crash_at > 0, "reference run finished instantly");
    let crashed: Vec<usize> = (0..7).map(|i| (i * 9 + 4) % n).collect();
    assert!(
        crashed.len() * 10 >= n,
        "need at least 10% of nodes crashed"
    );
    let mut link = LossyLink::new(1, 1);
    for &c in &crashed {
        link = link.with_crash(c, crash_at, None);
    }

    // Termination under crashes = this call returns (the implicit-mode
    // timer schedule is finite; the engine also has an event backstop).
    let outcome = run_with_link(
        &network,
        &features,
        Arc::new(Absolute),
        ElinkConfig::for_delta(delta),
        SignalMode::Implicit,
        link,
        3,
    );

    // Over every surviving connected component, the clustering must still be
    // made of valid δ-clusters: restrict each cluster to the component and
    // split it at crash sites; every surviving piece must be δ-compact.
    let alive: Vec<usize> = (0..n).filter(|v| !crashed.contains(v)).collect();
    let components = topo.graph().induced_components(&alive);
    assert!(!components.is_empty());
    let mut checked_pieces = 0usize;
    for comp in &components {
        let mut clusters: Vec<Vec<usize>> = Vec::new();
        for cid in 0..outcome.clustering.cluster_count() {
            let members: Vec<usize> = comp
                .iter()
                .copied()
                .filter(|&v| outcome.clustering.cluster_of(v) == cid)
                .collect();
            if !members.is_empty() {
                clusters.extend(topo.graph().induced_components(&members));
            }
        }
        // The pieces partition the component.
        let mut covered: Vec<usize> = clusters.iter().flatten().copied().collect();
        covered.sort_unstable();
        let mut expected = comp.clone();
        expected.sort_unstable();
        assert_eq!(
            covered, expected,
            "cluster pieces do not partition the component"
        );
        for piece in &clusters {
            checked_pieces += 1;
            for (a, &i) in piece.iter().enumerate() {
                for &j in &piece[a + 1..] {
                    let d = Absolute.distance(&features[i], &features[j]);
                    assert!(
                        d <= delta + 1e-9,
                        "surviving piece not δ-compact: d({i}, {j}) = {d}"
                    );
                }
            }
        }
    }
    assert!(checked_pieces >= 2, "degenerate crash scenario");
}
