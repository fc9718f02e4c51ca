//! Differential property tests for the event-scheduler backends.
//!
//! The calendar-queue refactor's contract is *observational equivalence*:
//! for any topology, feature field, signalling mode, link model and seed,
//! [`SchedulerKind::Heap`] and [`SchedulerKind::Calendar`] must produce
//! byte-identical runs — the same `CostBook`, the same assignments, and
//! the same event-by-event `JsonlTrace` stream. These tests drive the
//! simulator under both backends, including through the lossy-link + ARQ
//! stack where retransmission timers and per-tick drop draws make the
//! event queue busiest, and diff the full trace logs.

use elink_core::protocol::{ElinkNode, SignalMode};
use elink_core::quadinfo::QuadInfo;
use elink_core::{Clustering, ElinkConfig};
use elink_metric::{Absolute, Feature};
use elink_netsim::{
    ArqConfig, CostBook, JsonlTrace, LinkModel, LossyLink, SchedulerKind, SimNetwork, Simulator,
    SyncLink,
};
use elink_topology::Topology;
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

/// Everything observable about one run: the trace byte stream, the message
/// bill, the quiescence time and the extracted clustering.
struct RunView {
    trace: Vec<u8>,
    costs: CostBook,
    elapsed: u64,
    assignment: Vec<usize>,
    roots: Vec<usize>,
}

#[allow(clippy::too_many_arguments)]
fn run_traced(
    topology: &Topology,
    features: &[Feature],
    config: ElinkConfig,
    mode: SignalMode,
    link: Box<dyn LinkModel>,
    seed: u64,
    arq: Option<ArqConfig>,
    kind: SchedulerKind,
) -> RunView {
    let n = topology.n();
    let quad = Arc::new(QuadInfo::build(topology));
    let metric = Arc::new(Absolute);
    let nodes: Vec<ElinkNode> = (0..n)
        .map(|id| {
            ElinkNode::new(
                id,
                n,
                features[id].clone(),
                Arc::clone(&metric) as _,
                config,
                mode,
                Arc::clone(&quad),
            )
        })
        .collect();
    let network = SimNetwork::new(topology.clone());
    let mut sim = Simulator::new(network, link, seed, nodes);
    sim.set_scheduler(kind);
    let sink = Arc::new(Mutex::new(JsonlTrace::new(Vec::<u8>::new())));
    sim.set_trace(Arc::clone(&sink));
    if let Some(arq_config) = arq {
        sim.enable_arq(arq_config);
    }
    let elapsed = sim.run_to_completion();
    let states: Vec<_> = sim
        .nodes()
        .iter()
        .enumerate()
        .map(|(id, node)| node.cluster_state(id))
        .collect();
    let clustering = Clustering::from_node_states(&states, topology, &Absolute);
    let costs = sim.costs().clone();
    drop(sim);
    let trace = Arc::try_unwrap(sink)
        .expect("simulator dropped its trace handle")
        .into_inner()
        .unwrap()
        .into_inner();
    RunView {
        trace,
        costs,
        elapsed,
        roots: clustering.clusters.iter().map(|c| c.root).collect(),
        assignment: clustering.assignment,
    }
}

/// Asserts the two backends' views are byte-identical, labelling any
/// divergence with the first differing trace line.
fn assert_equivalent(heap: &RunView, calendar: &RunView, label: &str) -> Result<(), TestCaseError> {
    if heap.trace != calendar.trace {
        let a = String::from_utf8_lossy(&heap.trace);
        let b = String::from_utf8_lossy(&calendar.trace);
        for (i, (la, lb)) in a.lines().zip(b.lines()).enumerate() {
            prop_assert_eq!(la, lb, "{}: trace line {} diverges", label, i);
        }
        prop_assert_eq!(
            a.lines().count(),
            b.lines().count(),
            "{}: trace lengths diverge",
            label
        );
    }
    prop_assert_eq!(
        &heap.costs,
        &calendar.costs,
        "{}: cost books diverge",
        label
    );
    prop_assert_eq!(
        heap.elapsed,
        calendar.elapsed,
        "{}: elapsed diverges",
        label
    );
    prop_assert_eq!(
        &heap.assignment,
        &calendar.assignment,
        "{}: assignments diverge",
        label
    );
    prop_assert_eq!(&heap.roots, &calendar.roots, "{}: roots diverge", label);
    Ok(())
}

fn synthetic_features(n: usize, seed: u64, scale: f64) -> Vec<Feature> {
    (0..n)
        .map(|v| {
            let h = (v as u64)
                .wrapping_mul(0x9e3779b97f4a7c15)
                .wrapping_add(seed);
            let x = (h >> 11) as f64 / (1u64 << 53) as f64;
            Feature::scalar(x * scale)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Loss-free differential: random topology, features, δ, mode and
    /// async delays — Heap and Calendar agree byte-for-byte.
    #[test]
    fn backends_agree_loss_free(
        n in 8usize..48,
        topo_seed in 0u64..300,
        delta_frac in 0.1f64..1.0,
        seed in 0u64..64,
        mode_pick in 0usize..3,
        sync in proptest::bool::weighted(0.5),
    ) {
        let topology = Topology::random_synthetic(n, topo_seed);
        let scale = 100.0;
        let features = synthetic_features(n, topo_seed, scale);
        let config = ElinkConfig::for_delta((scale * delta_frac).max(1e-6));
        let mode = [SignalMode::Implicit, SignalMode::Explicit, SignalMode::Unordered][mode_pick];
        // Implicit mode assumes a synchronous network.
        let delay = if sync || mode == SignalMode::Implicit {
            LossyLink::from(SyncLink)
        } else {
            LossyLink::new(1, 5)
        };
        let run = |kind| {
            run_traced(&topology, &features, config, mode, delay.clone().into(), seed, None, kind)
        };
        assert_equivalent(&run(SchedulerKind::Heap), &run(SchedulerKind::Calendar), "loss-free")?;
    }

    /// Lossy + ARQ differential: the reliable-delivery sublayer floods the
    /// queue with retransmission timers and acks; the backends must still
    /// agree on every event.
    #[test]
    fn backends_agree_under_loss_with_arq(
        n in 8usize..40,
        topo_seed in 0u64..200,
        delta_frac in 0.1f64..1.0,
        seed in 0u64..64,
        drop_centi in 5u32..30,
    ) {
        let topology = Topology::random_synthetic(n, topo_seed);
        let scale = 100.0;
        let features = synthetic_features(n, topo_seed, scale);
        let config = ElinkConfig::for_delta((scale * delta_frac).max(1e-6));
        let drop = f64::from(drop_centi) / 100.0;
        let run = |kind| {
            run_traced(
                &topology,
                &features,
                config,
                SignalMode::Explicit,
                LossyLink::new(1, 3).with_drop_prob(drop).into(),
                seed,
                Some(ArqConfig::default()),
                kind,
            )
        };
        assert_equivalent(&run(SchedulerKind::Heap), &run(SchedulerKind::Calendar), "lossy+arq")?;
    }
}
