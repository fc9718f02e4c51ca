//! The `growth` workload: implicit-signalling ELink clustering of a grid
//! fleet with the smooth two-frequency field of the scaling bench.
//!
//! The run only broadcasts, so the routing table is never built and no
//! serving layer runs: `core` and the scheduler do all the work. It is the
//! control on which a routing or serving change must predict no change.

use crate::alloc;
use crate::measure::{rounds, timed, HandlerClock, Series, Sheet, Timed};
use crate::serving::{count_trace, put_engine};
use crate::{sub_seed, Sizes, SUBS};
use elink_core::protocol::SignalMode;
use elink_core::{
    build_sim, run_with_options, validate_delta_clustering, Clustering, ElinkConfig, ElinkOutcome,
    RunOptions,
};
use elink_metric::{Absolute, Feature, Metric};
use elink_netsim::{CountingTrace, SchedulerKind, SimNetwork, Simulator, SyncLink};
use elink_topology::Topology;
use std::rc::Rc;
use std::sync::{Arc, Mutex};

/// Clustering threshold δ of the grid field.
const DELTA: f64 = 25.0;

/// The field `40·sin(x/17) + 40·cos(y/13)` over the grid, shifted by a
/// seed-derived origin so each seed clusters a different window of the
/// same field (seed 0 is the scaling bench's field itself).
fn field(side: usize, seed: u64) -> Vec<Feature> {
    let (ox, oy) = ((seed % 1009) as f64, (seed.wrapping_mul(31) % 1013) as f64);
    let mut out = Vec::with_capacity(side * side);
    for r in 0..side {
        for c in 0..side {
            let (x, y) = (c as f64 + ox, r as f64 + oy);
            out.push(Feature::scalar(
                40.0 * (x / 17.0).sin() + 40.0 * (y / 13.0).cos(),
            ));
        }
    }
    out
}

fn grow(net: &SimNetwork, features: &[Feature]) -> ElinkOutcome {
    let options = RunOptions {
        arq: None,
        scheduler: SchedulerKind::Calendar,
    };
    let (mode, config) = (SignalMode::Implicit, ElinkConfig::for_delta(DELTA));
    let metric = Arc::new(Absolute);
    run_with_options(net, features, metric, config, mode, SyncLink, 0, options)
}

/// One setup-and-grow iteration, timed as a user runs it.
struct Grown {
    setup_s: f64,
    run_s: f64,
    heap_bytes: usize,
    net: SimNetwork,
    features: Vec<Feature>,
    outcome: ElinkOutcome,
}

fn grow_once(side: usize, seed: u64) -> Grown {
    let base = alloc::reset_peak();
    let ((net, features), setup_s) = timed(|| {
        (
            SimNetwork::new(Topology::grid(side, side)),
            field(side, seed),
        )
    });
    let (outcome, run_s) = timed(|| grow(&net, &features));
    Grown {
        setup_s,
        run_s,
        heap_bytes: alloc::peak().saturating_sub(base),
        net,
        features,
        outcome,
    }
}

/// What must repeat exactly: the assignment, makespan and packet count.
fn same(a: &ElinkOutcome, clustering: &Clustering, ticks: u64, packets: u64) -> bool {
    a.clustering.assignment == clustering.assignment
        && a.elapsed == ticks
        && a.costs.total_packets() == packets
}

/// Validates each sub-workload's first clustering and requires every later
/// one to reproduce it.
struct Firsts(Vec<Option<ElinkOutcome>>);

impl Firsts {
    fn new() -> Firsts {
        Firsts((0..SUBS).map(|_| None).collect())
    }

    fn check(&mut self, sheet: &mut Sheet, sub: usize, g: Grown) {
        let n = g.features.len() as u64;
        sheet.attempted += n;
        match &self.0[sub] {
            None => {
                let (c, topo) = (&g.outcome.clustering, g.net.topology());
                let metric: &dyn Metric = &Absolute;
                if let Err(e) = validate_delta_clustering(c, topo, &g.features, metric, DELTA) {
                    sheet.fail(format!("sub-workload {sub}: invalid clustering: {e:?}"));
                    sheet.failed += n;
                }
                self.0[sub] = Some(g.outcome);
            }
            Some(first) => {
                let o = &g.outcome;
                if !same(first, &o.clustering, o.elapsed, o.costs.total_packets()) {
                    sheet.fail(format!("sub-workload {sub}: rerun diverged"));
                    sheet.failed += n;
                }
            }
        }
    }

    /// Mean makespan and packets per node over the sub-workloads.
    fn put_sim(self, sheet: &mut Sheet, n: usize) {
        let firsts: Vec<ElinkOutcome> = self.0.into_iter().flatten().collect();
        let k = firsts.len() as f64;
        let ticks: u64 = firsts.iter().map(|o| o.elapsed).sum();
        let packets: u64 = firsts.iter().map(|o| o.costs.total_packets()).sum();
        sheet.put("sim_ticks", "ticks", ticks as f64 / k);
        sheet.put("msgs_per_op", "msgs", packets as f64 / (k * n as f64));
        let failed = sheet.failed as f64 / sheet.attempted as f64;
        sheet.put("ops_failed_frac", "fraction", failed);
        sheet
            .notes
            .push("latency_* and coverage_mean_milli are serving metrics: n/a on growth".into());
    }
}

/// Grows every sub-workload's grid in rounds for `seconds`.
pub fn end_to_end(seed: u64, seconds: f64, sizes: &Sizes) -> Sheet {
    let side = sizes.grid_side;
    let n = side * side;
    let mut sheet = Sheet::default();
    let mut firsts = Firsts::new();
    let mut host = Series::default();
    let n_rounds = rounds(seconds, SUBS, |_, sub| {
        let g = grow_once(side, sub_seed(seed, sub));
        host.push("setup_s", sub, g.setup_s);
        host.push("run_s", sub, g.run_s);
        host.push("peak_heap_mb", sub, g.heap_bytes as f64 / alloc::MB);
        firsts.check(&mut sheet, sub, g);
    });
    sheet.notes.push(format!(
        "{n_rounds} rounds of {SUBS} grid+grow sub-workloads of {n} nodes; setup_s is the median, other host metrics the mean over sub-workloads of each one's median"
    ));
    let run_s = host.typical("run_s");
    sheet.put("setup_s", "s", host.median("setup_s"));
    sheet.put("run_s", "s", run_s);
    sheet.put("ops_per_s", "1/s", n as f64 / run_s);
    sheet.put("peak_heap_mb", "MB", host.typical("peak_heap_mb"));
    firsts.put_sim(&mut sheet, n);
    sheet
}

/// Every per-layer row of a layer `growth` never runs.
const IDLE: [(&str, &str); 31] = [
    ("topology.routing_build_s", "s"),
    ("topology.routing_mb", "MB"),
    ("query.index_build_s", "s"),
    ("query.backbone_build_s", "s"),
    ("workload.schedule_build_s", "s"),
    ("workload.plan_build_s", "s"),
    ("workload.setup_residual_s", "s"),
    ("workload.handler_s", "s"),
    ("workload.handler_calls", "count"),
    ("workload.cache_hit_ratio", "ratio"),
    ("workload.batch_riders", "count"),
    ("workload.invalidations", "count"),
    ("workload.sub_pushes", "count"),
    ("workload.sub_repairs", "count"),
    ("workload.partial", "count"),
    ("workload.gaveup", "count"),
    ("workload.failovers", "count"),
    ("workload.coverage_ceiling_milli", "milli"),
    ("netsim.flow_stale", "count"),
    ("netsim.queued_ticks", "ticks"),
    ("netsim.link_busy_peak_ticks", "ticks"),
    ("netsim.link_peak_flows", "count"),
    ("netsim.arq_retx", "count"),
    ("netsim.arq_timeouts", "count"),
    ("netsim.arq_useful_ratio", "ratio"),
    ("netsim.drops_loss", "count"),
    ("netsim.drops_node_down", "count"),
    ("latency_p50_ticks", "ticks"),
    ("latency_p99_ticks", "ticks"),
    ("latency_samples", "count"),
    ("coverage_mean_milli", "milli"),
];

/// Traced per-layer measurement. Per sub-workload and round: grow
/// untraced (the `core` time), then replay the growth on rebuilt
/// simulators — plain as the overhead baseline, and with timed handlers
/// plus a counting trace sink, which must reproduce the untraced
/// clustering exactly.
pub fn per_layer(seed: u64, seconds: f64, sizes: &Sizes) -> Sheet {
    let side = sizes.grid_side;
    let n = side * side;
    let mut sheet = Sheet::default();
    let mut firsts = Firsts::new();
    let (mut t, mut c) = (Series::default(), Series::default());
    let mut routing_builds = 0;
    let n_rounds = rounds(seconds, SUBS, |round, sub| {
        let g = grow_once(side, sub_seed(seed, sub));
        let metric: Arc<dyn Metric> = Arc::new(Absolute);
        let (mode, config) = (SignalMode::Implicit, ElinkConfig::for_delta(DELTA));
        let build = || {
            build_sim(
                &g.net,
                &g.features,
                metric.clone(),
                config,
                mode,
                SyncLink,
                0,
            )
        };

        let mut plain = build();
        let ((), plain_s) = timed(|| {
            plain.run_to_completion();
        });
        drop(plain);
        // Initial node states come from a fresh `build_sim`, so the
        // replica starts exactly where the untraced run started.
        let clock = Rc::new(HandlerClock::default());
        let sink = Arc::new(Mutex::new(CountingTrace::new()));
        let nodes = Timed::wrap(build().nodes().to_vec(), &clock);
        let mut traced = Simulator::new(g.net.clone(), SyncLink, 0, nodes);
        traced.set_scheduler(SchedulerKind::Calendar);
        traced.set_trace(sink.clone());
        let (ticks, traced_s) = timed(|| traced.run_to_completion());
        let states: Vec<_> = (traced.nodes().iter().enumerate())
            .map(|(id, t)| t.inner.cluster_state(id))
            .collect();
        let clustering = Clustering::from_node_states(&states, g.net.topology(), &Absolute);
        let packets = traced.costs().total_packets();
        if !same(&g.outcome, &clustering, ticks, packets) {
            sheet.fail(format!("sub-workload {sub}: traced replica diverged"));
        }

        for (name, v) in [
            ("core.growth_s", g.run_s),
            ("core.handler_s", clock.seconds()),
            ("netsim.engine_s", traced_s - clock.seconds()),
            ("netsim.trace_overhead_frac", traced_s / plain_s - 1.0),
        ] {
            t.push(name, sub, v);
        }
        if round == 0 {
            routing_builds += u64::from(g.net.routing_built());
            count_trace(&mut c, sub, &sink.lock().expect("trace sink poisoned"));
            c.push("netsim.events", sub, traced.events_processed() as f64);
            c.push(
                "netsim.peak_live_events",
                sub,
                traced.peak_live_events() as f64,
            );
            let per_node = g.outcome.costs.total_packets() as f64 / n as f64;
            c.push("core.msgs_per_node", sub, per_node);
            c.push(
                "core.peak_live_events",
                sub,
                g.outcome.peak_live_events as f64,
            );
        }
        firsts.check(&mut sheet, sub, g);
    });
    sheet.notes.push(format!(
        "{n_rounds} rounds of {SUBS} traced sub-workloads of {n} nodes; host times are the mean over sub-workloads of each one's median; counts are means per sub-workload"
    ));
    sheet.notes.push(format!(
        "core handlers {:.4} s vs engine {:.4} s; the traced replica reproduces the untraced clustering; trace overhead {:+.4}",
        t.typical("core.handler_s"),
        t.typical("netsim.engine_s"),
        t.typical("netsim.trace_overhead_frac"),
    ));
    let builds = routing_builds as f64 / SUBS as f64;
    sheet.put("topology.routing_builds", "count", builds);
    sheet.put_typical(&t, &[("core.growth_s", "s"), ("core.handler_s", "s")]);
    sheet.put_typical(
        &c,
        &[
            ("core.msgs_per_node", "msgs"),
            ("core.peak_live_events", "count"),
        ],
    );
    put_engine(&mut sheet, &t, &c);
    for (name, unit) in IDLE {
        sheet.put(name, unit, 0.0);
    }
    firsts.put_sim(&mut sheet, n);
    sheet
}
