//! Differential property tests for the flow-level link model.
//!
//! Three contracts pin `FairShareLink` to the per-message substrate:
//!
//! 1. **Degenerate equivalence (byte-identical)** — with effectively
//!    infinite capacity no transfer ever contends, every service takes the
//!    one-tick floor, and a broadcast-only run is *byte-identical* (same
//!    `JsonlTrace` stream) to `LossyLink::new(1, 1)` — the
//!    zero-jitter per-message model with the same fixed delay. This works
//!    because an uncontended flow's tentative-completion event occupies
//!    exactly the queue slot the per-message `Deliver` would have, and is
//!    never invalidated (see `netsim::flow`).
//! 2. **Degenerate equivalence (full protocol)** — the real ELink growth
//!    protocol also unicasts, and multi-hop unicast is the one place the
//!    two substrates schedule differently: the per-message path walks the
//!    whole route at send time (the final `Deliver` gets an *early*
//!    scheduler sequence number), while the flow path is store-and-forward
//!    (the final delivery is enqueued by the last relay, a *late* sequence
//!    number). Timing, billing and protocol outcomes are identical — only
//!    the order of same-tick trace lines can differ — so the full-protocol
//!    test compares traces as per-tick sorted sequences and everything
//!    else (`CostBook`, elapsed, clustering) exactly.
//! 3. **Backend independence** — under real contention (finite capacity,
//!    invalidations and reschedules in play) Heap and Calendar schedulers
//!    must still agree event-for-event, the same guarantee the scheduler
//!    differential suite pins for per-message links.

use elink_core::protocol::{ElinkNode, SignalMode};
use elink_core::quadinfo::QuadInfo;
use elink_core::{Clustering, ElinkConfig};
use elink_metric::{Absolute, Feature};
use elink_netsim::{
    CostBook, Ctx, FairShareLink, JsonlTrace, LinkModel, LossyLink, Protocol, SchedulerKind,
    SimNetwork, Simulator,
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

fn run_traced(
    topology: &Topology,
    features: &[Feature],
    config: ElinkConfig,
    mode: SignalMode,
    link: Box<dyn LinkModel>,
    seed: u64,
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

/// A broadcast-only flood: several sources each flood a distinct token and
/// every node rebroadcasts each token the first time it sees it. No
/// unicast, so the flow substrate's store-and-forward relaying never runs
/// and the byte-identical degenerate claim applies to the whole trace.
struct MultiFlood {
    sources: Vec<u32>,
    seen: Vec<bool>,
}

impl Protocol for MultiFlood {
    type Msg = u32;

    fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
        let me = ctx.id() as u32;
        if self.sources.contains(&me) {
            self.seen[me as usize] = true;
            // Vary the payload size so billing (scalars × hops) is
            // exercised, not just event ordering.
            ctx.broadcast_neighbors(&me, "flood", 1 + (me as u64 % 3));
        }
    }

    fn on_message(&mut self, _from: usize, token: u32, ctx: &mut Ctx<'_, u32>) {
        if !self.seen[token as usize] {
            self.seen[token as usize] = true;
            ctx.broadcast_neighbors(&token, "flood", 1 + (token as u64 % 3));
        }
    }
}

/// Runs the multi-source flood under `link` and returns the raw trace
/// bytes plus the cost book.
fn run_flood(
    topology: &Topology,
    sources: &[u32],
    link: Box<dyn LinkModel>,
    seed: u64,
) -> (Vec<u8>, CostBook, u64) {
    let n = topology.n();
    let nodes = (0..n)
        .map(|_| MultiFlood {
            sources: sources.to_vec(),
            seen: vec![false; n],
        })
        .collect();
    let network = SimNetwork::new(topology.clone());
    let mut sim = Simulator::new(network, link, seed, nodes);
    let sink = Arc::new(Mutex::new(JsonlTrace::new(Vec::<u8>::new())));
    sim.set_trace(Arc::clone(&sink));
    let elapsed = sim.run_to_completion();
    let costs = sim.costs().clone();
    drop(sim);
    let trace = Arc::try_unwrap(sink)
        .expect("simulator dropped its trace handle")
        .into_inner()
        .unwrap()
        .into_inner();
    (trace, costs, elapsed)
}

/// Pulls the tick out of a `JsonlTrace` line (`{"t":N,...}`).
fn parse_tick(line: &str) -> u64 {
    line.strip_prefix("{\"t\":")
        .and_then(|rest| rest.split([',', '}']).next())
        .and_then(|num| num.parse().ok())
        .unwrap_or_else(|| panic!("trace line missing tick: {line}"))
}

/// Reorders trace lines within each tick into a canonical (sorted) order.
/// Ticks themselves stay in stream order; only same-tick permutations —
/// the one divergence multi-hop unicast store-and-forward can introduce —
/// are normalised away.
fn tick_sorted(trace: &[u8]) -> Vec<String> {
    let text = String::from_utf8_lossy(trace);
    let mut lines: Vec<(u64, String)> = text
        .lines()
        .map(|l| (parse_tick(l), l.to_string()))
        .collect();
    lines.sort();
    lines.into_iter().map(|(_, l)| l).collect()
}

/// Asserts two trace byte streams are identical, labelling any divergence
/// with the first differing line.
fn assert_traces_identical(a: &[u8], b: &[u8], label: &str) -> Result<(), TestCaseError> {
    if a != b {
        let ta = String::from_utf8_lossy(a);
        let tb = String::from_utf8_lossy(b);
        for (i, (la, lb)) in ta.lines().zip(tb.lines()).enumerate() {
            prop_assert_eq!(la, lb, "{}: trace line {} diverges", label, i);
        }
        prop_assert_eq!(
            ta.lines().count(),
            tb.lines().count(),
            "{}: trace lengths diverge",
            label
        );
    }
    Ok(())
}

/// Asserts two views agree on every observable, comparing traces modulo
/// same-tick ordering (see the module docs for why unicast permits that).
fn assert_equivalent_modulo_tick_order(
    a: &RunView,
    b: &RunView,
    label: &str,
) -> Result<(), TestCaseError> {
    let (sa, sb) = (tick_sorted(&a.trace), tick_sorted(&b.trace));
    for (i, (la, lb)) in sa.iter().zip(sb.iter()).enumerate() {
        prop_assert_eq!(la, lb, "{}: tick-sorted trace line {} diverges", label, i);
    }
    prop_assert_eq!(sa.len(), sb.len(), "{}: trace lengths diverge", label);
    prop_assert_eq!(&a.costs, &b.costs, "{}: cost books diverge", label);
    prop_assert_eq!(a.elapsed, b.elapsed, "{}: elapsed diverges", label);
    prop_assert_eq!(
        &a.assignment,
        &b.assignment,
        "{}: assignments diverge",
        label
    );
    prop_assert_eq!(&a.roots, &b.roots, "{}: roots diverge", label);
    Ok(())
}

/// Asserts two views are byte-identical on every observable, labelling any
/// divergence with the first differing trace line.
fn assert_equivalent(a: &RunView, b: &RunView, label: &str) -> Result<(), TestCaseError> {
    assert_traces_identical(&a.trace, &b.trace, label)?;
    prop_assert_eq!(&a.costs, &b.costs, "{}: cost books diverge", label);
    prop_assert_eq!(a.elapsed, b.elapsed, "{}: elapsed diverges", label);
    prop_assert_eq!(
        &a.assignment,
        &b.assignment,
        "{}: assignments diverge",
        label
    );
    prop_assert_eq!(&a.roots, &b.roots, "{}: roots diverge", label);
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

    /// Capacity = ∞, broadcast-only traffic ⇒ byte-identical to
    /// `LossyLink::new(1, 1)`, zero jitter (`min == max == 1`): the traced
    /// event stream, compared byte for byte, cannot tell the two models
    /// apart.
    #[test]
    fn unlimited_flow_is_byte_identical_for_broadcast_traffic(
        n in 8usize..48,
        topo_seed in 0u64..300,
        seed in 0u64..64,
        extra_sources in 0u32..3,
    ) {
        let topology = Topology::random_synthetic(n, topo_seed);
        let mut sources = vec![0u32];
        for s in 0..extra_sources {
            sources.push(((s + 1) as usize * n / 4) as u32 % n as u32);
        }
        sources.dedup();
        let (ft, fc, fe) = run_flood(
            &topology, &sources, FairShareLink::unlimited().into(), seed,
        );
        let (at, ac, ae) = run_flood(
            &topology, &sources, LossyLink::new(1, 1).into(), seed,
        );
        assert_traces_identical(&ft, &at, "flood flow-vs-async")?;
        prop_assert_eq!(&fc, &ac, "flood: cost books diverge");
        prop_assert_eq!(fe, ae, "flood: elapsed diverges");
    }

    /// Capacity = ∞, full ELink growth protocol ⇒ equivalent to
    /// `LossyLink::new(1, 1)` (zero jitter) on every observable. The growth
    /// protocol unicasts (quadtree phase-1/phase-2 waves), and multi-hop
    /// unicast is store-and-forward under the flow model, so same-tick
    /// trace lines may interleave differently — traces are compared as
    /// per-tick sorted sequences; costs, elapsed time and the final
    /// clustering must match exactly.
    #[test]
    fn unlimited_flow_equals_async_jitter_zero(
        n in 8usize..48,
        topo_seed in 0u64..300,
        delta_frac in 0.1f64..1.0,
        seed in 0u64..64,
        explicit in proptest::bool::weighted(0.5),
    ) {
        let topology = Topology::random_synthetic(n, topo_seed);
        let scale = 100.0;
        let features = synthetic_features(n, topo_seed, scale);
        let config = ElinkConfig::for_delta((scale * delta_frac).max(1e-6));
        let mode = if explicit { SignalMode::Explicit } else { SignalMode::Unordered };
        let flow = run_traced(
            &topology, &features, config, mode,
            FairShareLink::unlimited().into(), seed, SchedulerKind::Calendar,
        );
        let per_message = run_traced(
            &topology, &features, config, mode,
            LossyLink::new(1, 1).into(), seed, SchedulerKind::Calendar,
        );
        assert_equivalent_modulo_tick_order(&flow, &per_message, "flow-vs-async")?;
    }

    /// Finite capacity ⇒ real contention, invalidated predictions and
    /// rescheduled completions — Heap and Calendar must still agree on
    /// every event.
    #[test]
    fn contended_flow_agrees_across_backends(
        n in 8usize..40,
        topo_seed in 0u64..200,
        delta_frac in 0.1f64..1.0,
        seed in 0u64..64,
        capacity in 1u64..6,
    ) {
        let topology = Topology::random_synthetic(n, topo_seed);
        let scale = 100.0;
        let features = synthetic_features(n, topo_seed, scale);
        let config = ElinkConfig::for_delta((scale * delta_frac).max(1e-6));
        let run = |kind| {
            run_traced(
                &topology, &features, config, SignalMode::Explicit,
                FairShareLink::new(capacity).into(), seed, kind,
            )
        };
        assert_equivalent(&run(SchedulerKind::Heap), &run(SchedulerKind::Calendar), "contended")?;
    }
}
