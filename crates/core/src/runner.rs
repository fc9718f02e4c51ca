//! One-call runners for the three ELink variants.

use crate::clustering::Clustering;
use crate::config::ElinkConfig;
use crate::protocol::{ElinkNode, SignalMode};
use crate::quadinfo::QuadInfo;
use elink_metric::{Feature, Metric};
use elink_netsim::{
    ArqConfig, CostBook, LinkModel, Metrics, SchedulerKind, SimNetwork, SimTime, Simulator,
    SyncLink,
};
use std::sync::Arc;

/// Result of an ELink run: the clustering, the message bill, the observability
/// registry and the simulated completion time.
#[derive(Debug, Clone)]
pub struct ElinkOutcome {
    /// The extracted (validated-shape) clustering.
    pub clustering: Clustering,
    /// Message statistics (per kind and total; §8.2 cost model).
    pub costs: CostBook,
    /// Observability registry: per-level growth phase envelopes
    /// (`growth.l*`), synchronization phases (`sync.*`), hop histograms and
    /// drop counters accumulated during the run (see
    /// [`elink_netsim::metrics`]).
    pub metrics: Metrics,
    /// Simulated time at which the protocol quiesced.
    pub elapsed: SimTime,
    /// High-water mark of simultaneously live events in the scheduler —
    /// the arena footprint the scaling bench reports.
    pub peak_live_events: usize,
}

/// Extended run knobs beyond the link model: the optional ARQ sublayer and
/// the event-scheduler backend (differential testing and the scale bench
/// run the same workload under both [`SchedulerKind`]s).
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// When `Some`, every protocol message rides the engine's
    /// reliable-delivery sublayer ([`elink_netsim::reliable`]) — per-link
    /// ack/retransmit/dedup — and the protocol's conservative timeouts
    /// stretch to the ARQ worst-case envelope via
    /// [`elink_netsim::Ctx::max_delivery_delay`]. This is how Explicit
    /// ELink survives lossy links with the *same* output clustering as a
    /// loss-free run.
    pub arq: Option<ArqConfig>,
    /// Event-queue backend (default [`SchedulerKind::Calendar`]).
    pub scheduler: SchedulerKind,
}

/// Runs ELink in any [`SignalMode`] over an arbitrary [`LinkModel`] — the
/// general entry point behind [`run_implicit`]/[`run_explicit`]/
/// [`run_unordered`], and the one to use for lossy or crash-prone links
/// (e.g. `elink_netsim::LossyLink`). Crashed nodes freeze mid-protocol; the
/// extracted clustering reflects whatever state each node last reached.
pub fn run_with_link(
    network: &SimNetwork,
    features: &[Feature],
    metric: Arc<dyn Metric>,
    config: ElinkConfig,
    mode: SignalMode,
    link: impl Into<Box<dyn LinkModel>>,
    seed: u64,
) -> ElinkOutcome {
    run_with_options(
        network,
        features,
        metric,
        config,
        mode,
        link,
        seed,
        RunOptions::default(),
    )
}

/// Constructs the ELink simulator without running it — the seam the model
/// checker uses to drive the real protocol through its own schedules. The
/// construction is shared with [`run_with_options`], so checked state and
/// production state cannot drift.
pub fn build_sim(
    network: &SimNetwork,
    features: &[Feature],
    metric: Arc<dyn Metric>,
    config: ElinkConfig,
    mode: SignalMode,
    link: impl Into<Box<dyn LinkModel>>,
    seed: u64,
) -> Simulator<ElinkNode> {
    let topo = network.topology();
    let n = topo.n();
    assert_eq!(features.len(), n, "one feature per node");
    let quad = Arc::new(QuadInfo::build(topo));
    let nodes: Vec<ElinkNode> = (0..n)
        .map(|id| {
            ElinkNode::new(
                id,
                n,
                features[id].clone(),
                Arc::clone(&metric),
                config,
                mode,
                Arc::clone(&quad),
            )
        })
        .collect();
    Simulator::new(network.clone(), link, seed, nodes)
}

/// The fully-general runner: [`run_with_link`] plus the optional ARQ
/// sublayer and scheduler-backend selection via [`RunOptions`].
#[allow(clippy::too_many_arguments)]
pub fn run_with_options(
    network: &SimNetwork,
    features: &[Feature],
    metric: Arc<dyn Metric>,
    config: ElinkConfig,
    mode: SignalMode,
    link: impl Into<Box<dyn LinkModel>>,
    seed: u64,
    options: RunOptions,
) -> ElinkOutcome {
    let topo = network.topology();
    let mut sim = build_sim(
        network,
        features,
        Arc::clone(&metric),
        config,
        mode,
        link,
        seed,
    );
    sim.set_scheduler(options.scheduler);
    if let Some(arq_config) = options.arq {
        sim.enable_arq(arq_config);
    }
    let elapsed = sim.run_to_completion();
    let mut metrics = sim.take_metrics();
    let states: Vec<_> = sim
        .nodes()
        .iter()
        .enumerate()
        .map(|(id, node)| node.cluster_state(id))
        .collect();
    // Host-side extraction happens "at" quiescence in simulated time: a
    // zero-width span whose entry marks the extraction ran exactly once.
    let clustering = {
        let _guard = metrics.enter_phase("host.extract", elapsed);
        Clustering::from_node_states(&states, topo, metric.as_ref())
    };
    metrics.phase_enter("run", 0);
    metrics.phase_exit("run", elapsed);
    ElinkOutcome {
        clustering,
        costs: sim.costs().clone(),
        metrics,
        elapsed,
        peak_live_events: sim.peak_live_events(),
    }
}

/// Implicit-signalling ELink (§4) — synchronous networks only: level `l`
/// sentinels start on timers at `Σ_{j<l} t_j`.
///
/// ```
/// use elink_core::{run_implicit, ElinkConfig};
/// use elink_metric::{Absolute, Feature};
/// use elink_netsim::SimNetwork;
/// use elink_topology::Topology;
/// use std::sync::Arc;
///
/// let topology = Topology::grid(1, 8);
/// // Two feature zones: west ~0, east ~50.
/// let features: Vec<Feature> = (0..8)
///     .map(|v| Feature::scalar(if v < 4 { 0.0 } else { 50.0 }))
///     .collect();
/// let network = SimNetwork::new(topology);
/// let outcome = run_implicit(&network, &features, Arc::new(Absolute),
///                            ElinkConfig::for_delta(5.0));
/// assert_eq!(outcome.clustering.cluster_count(), 2);
/// ```
pub fn run_implicit(
    network: &SimNetwork,
    features: &[Feature],
    metric: Arc<dyn Metric>,
    config: ElinkConfig,
) -> ElinkOutcome {
    run_with_link(
        network,
        features,
        metric,
        config,
        SignalMode::Implicit,
        SyncLink,
        0,
    )
}

/// Explicit-signalling ELink (§5) — works on synchronous *and* asynchronous
/// networks; levels are ordered by `ack`/`phase`/`start` messages.
pub fn run_explicit(
    network: &SimNetwork,
    features: &[Feature],
    metric: Arc<dyn Metric>,
    config: ElinkConfig,
    link: impl Into<Box<dyn LinkModel>>,
    seed: u64,
) -> ElinkOutcome {
    run_with_link(
        network,
        features,
        metric,
        config,
        SignalMode::Explicit,
        link,
        seed,
    )
}

/// The §5 ablation: every sentinel expands at time 0 ("unordered
/// expansion"), trading clustering quality for `O(√N)` completion time.
pub fn run_unordered(
    network: &SimNetwork,
    features: &[Feature],
    metric: Arc<dyn Metric>,
    config: ElinkConfig,
    link: impl Into<Box<dyn LinkModel>>,
    seed: u64,
) -> ElinkOutcome {
    run_with_link(
        network,
        features,
        metric,
        config,
        SignalMode::Unordered,
        link,
        seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clustering::validate_delta_clustering;
    use elink_metric::Absolute;
    use elink_netsim::LossyLink;
    use elink_topology::Topology;

    /// 1×8 path with two obvious feature zones.
    fn two_zone() -> (SimNetwork, Vec<Feature>) {
        let topo = Topology::grid(1, 8);
        let features: Vec<Feature> = (0..8)
            .map(|v| Feature::scalar(if v < 4 { 0.0 } else { 100.0 }))
            .collect();
        (SimNetwork::new(topo), features)
    }

    #[test]
    fn implicit_clusters_two_zones() {
        let (net, features) = two_zone();
        let outcome = run_implicit(
            &net,
            &features,
            Arc::new(Absolute),
            ElinkConfig::for_delta(10.0),
        );
        assert_eq!(outcome.clustering.cluster_count(), 2);
        validate_delta_clustering(
            &outcome.clustering,
            net.topology(),
            &features,
            &Absolute,
            10.0,
        )
        .unwrap();
    }

    #[test]
    fn explicit_matches_implicit_on_sync_network() {
        // §8.4: "The Implicit and Explicit signalled ELink algorithms output
        // the same clusters".
        let (net, features) = two_zone();
        let config = ElinkConfig::for_delta(10.0);
        let a = run_implicit(&net, &features, Arc::new(Absolute), config);
        let b = run_explicit(&net, &features, Arc::new(Absolute), config, SyncLink, 0);
        assert_eq!(a.clustering.assignment, b.clustering.assignment);
        // ... but the explicit variant pays synchronization messages.
        assert!(b.costs.total_cost() > a.costs.total_cost());
    }

    #[test]
    fn single_cluster_when_delta_huge() {
        let (net, features) = two_zone();
        let outcome = run_implicit(
            &net,
            &features,
            Arc::new(Absolute),
            ElinkConfig::for_delta(1000.0),
        );
        assert_eq!(outcome.clustering.cluster_count(), 1);
    }

    #[test]
    fn all_singletons_when_delta_tiny() {
        let topo = Topology::grid(1, 5);
        let features: Vec<Feature> = (0..5).map(|v| Feature::scalar(v as f64 * 50.0)).collect();
        let net = SimNetwork::new(topo);
        let outcome = run_implicit(
            &net,
            &features,
            Arc::new(Absolute),
            ElinkConfig::for_delta(1.0),
        );
        assert_eq!(outcome.clustering.cluster_count(), 5);
    }

    #[test]
    fn explicit_works_on_async_network() {
        let (net, features) = two_zone();
        let outcome = run_explicit(
            &net,
            &features,
            Arc::new(Absolute),
            ElinkConfig::for_delta(10.0),
            LossyLink::new(1, 4),
            7,
        );
        assert_eq!(outcome.clustering.cluster_count(), 2);
        validate_delta_clustering(
            &outcome.clustering,
            net.topology(),
            &features,
            &Absolute,
            10.0,
        )
        .unwrap();
    }

    #[test]
    fn outcome_metrics_carry_phase_envelopes() {
        let (net, features) = two_zone();
        let outcome = run_implicit(
            &net,
            &features,
            Arc::new(Absolute),
            ElinkConfig::for_delta(10.0),
        );
        // The whole-run phase spans [0, elapsed].
        let run = outcome.metrics.phase("run").expect("run phase recorded");
        assert_eq!(run.entries, 1);
        assert_eq!(run.span(), outcome.elapsed);
        // At least one growth level ran, and its envelope fits in the run.
        let growth: Vec<_> = outcome
            .metrics
            .phases()
            .filter(|(name, _)| name.starts_with("growth."))
            .collect();
        assert!(!growth.is_empty(), "no growth phases recorded");
        for (name, stats) in growth {
            assert!(stats.entries > 0, "{name} has no entries");
            assert!(stats.last_exit <= outcome.elapsed);
        }
        // Host-side extraction ran exactly once, at quiescence.
        let extract = outcome.metrics.phase("host.extract").unwrap();
        assert_eq!(extract.entries, 1);
        assert_eq!(extract.span(), 0);
    }

    #[test]
    fn explicit_mode_records_sync_phases() {
        let (net, features) = two_zone();
        let outcome = run_explicit(
            &net,
            &features,
            Arc::new(Absolute),
            ElinkConfig::for_delta(10.0),
            SyncLink,
            0,
        );
        // Implicit mode has no synchronization messages; explicit mode must
        // record both the ack wave and the quadtree wave.
        assert!(outcome.metrics.phase("sync.acks").is_some());
        assert!(outcome.metrics.phase("sync.quadtree").is_some());
    }

    #[test]
    fn unordered_completes_and_validates() {
        let (net, features) = two_zone();
        let outcome = run_unordered(
            &net,
            &features,
            Arc::new(Absolute),
            ElinkConfig::for_delta(10.0),
            SyncLink,
            0,
        );
        validate_delta_clustering(
            &outcome.clustering,
            net.topology(),
            &features,
            &Absolute,
            10.0,
        )
        .unwrap();
    }
}
