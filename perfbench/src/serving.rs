//! The three serving workloads: `serve`, `contended` and `chaos`.
//!
//! All three deploy the same fixed 1024-node terrain fleet and differ in
//! the link model and the open-loop query stream. Every layer is timed
//! from here, around calls to the crates' public API.

use crate::alloc;
use crate::measure::{nearest_rank, rounds, timed, HandlerClock, Series, Sheet, Timed};
use crate::{sub_seed, Sizes, SUBS};
use elink_core::{run_implicit, ElinkConfig};
use elink_metric::{Absolute, Feature, Metric};
use elink_netsim::{
    ArqConfig, CountingTrace, FairShareLink, LinkModel, LossyLink, Metrics, Protocol, SimNetwork,
    SimTime, Simulator, SyncLink,
};
use elink_query::{Backbone, DistributedIndex};
use elink_topology::{NodeId, RoutingTable, Topology};
use elink_workload::{
    build_schedule, expected_matches, Arrival, CompletedQuery, FaultSpec, Schedule, ServeMsg,
    ServeNode, ServeOptions, ServingPlan, Template, WorkloadRun, WorkloadSim, WorkloadSpec,
};
use std::collections::hash_map::DefaultHasher;
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use std::rc::Rc;
use std::sync::{Arc, Mutex};

/// Clustering threshold δ of the terrain fleet.
const DELTA: f64 = 300.0;
/// Per-link capacity of `contended` (scalars per tick): past the queueing
/// knee of the 1k fleet at one query per tick.
const CONTENDED_CAPACITY: u64 = 64;
/// The `chaos` fault cell: per-hop drop and crashed-node share, ‰.
const CHAOS_FAULT: FaultSpec = FaultSpec {
    drop_milli: 100,
    crash_milli: 150,
    partition: None,
    capacity: None,
};

/// Which serving workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Serving {
    /// Handler-bound mixed reads, updates and standing queries.
    Serve,
    /// Flow-priced links past the queueing knee.
    Contended,
    /// Loss, crashes, ARQ and recovery.
    Chaos,
}

/// The fixed deployment every serving workload runs on.
pub struct Fleet {
    topology: Topology,
    features: Vec<Feature>,
    metric: Arc<dyn Metric>,
}

impl Fleet {
    /// The terrain deployment of `nodes` sensors (fixed dataset seed).
    pub fn terrain(nodes: usize) -> Fleet {
        let data = elink_datasets::TerrainDataset::generate(nodes, 6, 0.55, 7);
        Fleet {
            topology: data.topology().clone(),
            features: data.features(),
            metric: Arc::new(Absolute),
        }
    }

    fn n(&self) -> usize {
        self.topology.n()
    }
}

/// A workload's fixed shape: what `WorkloadSim::build_with_link` is given.
struct Shape {
    which: Serving,
    spec: WorkloadSpec,
    victims: Vec<NodeId>,
}

impl Shape {
    fn new(which: Serving, seed: u64, sizes: &Sizes, n: usize) -> Shape {
        // Base: 16 templates, zipf(1.0), a quarter of them path queries.
        let mut spec = WorkloadSpec::quick(seed);
        spec.n_updates = 0;
        let (queries, mean_gap) = match which {
            Serving::Serve => {
                // One update per five queries over the same span of ticks.
                spec.n_updates = sizes.serve_queries / 5;
                spec.update_gap = 20;
                spec.n_subscribers = sizes.subscribers;
                (sizes.serve_queries, 4)
            }
            Serving::Contended => (sizes.contended_queries, 1),
            Serving::Chaos => (sizes.chaos_queries, 8),
        };
        if which != Serving::Serve {
            // Many equally likely templates: how heavy the few popular
            // templates of a seed are would otherwise decide the load.
            spec.n_templates = 64;
            spec.zipf_s = 0.0;
        }
        spec.n_queries = queries;
        spec.arrival = Arrival::Open { mean_gap };
        let victims = match which {
            Serving::Chaos => CHAOS_FAULT.victims(n),
            _ => Vec::new(),
        };
        Shape {
            which,
            spec,
            victims,
        }
    }

    /// One shape per sub-workload of a run.
    fn all(which: Serving, seed: u64, sizes: &Sizes, n: usize) -> Vec<Shape> {
        (0..SUBS)
            .map(|sub| Shape::new(which, sub_seed(seed, sub), sizes, n))
            .collect()
    }

    fn options(&self) -> ServeOptions {
        let mut opts = ServeOptions::for_delta(DELTA);
        opts.recovery = self.which == Serving::Chaos;
        opts
    }

    fn link(&self) -> Box<dyn LinkModel> {
        match self.which {
            Serving::Serve => SyncLink.into(),
            Serving::Contended => FairShareLink::new(CONTENDED_CAPACITY).into(),
            Serving::Chaos => {
                let mut link =
                    LossyLink::new(1, 2).with_drop_prob(CHAOS_FAULT.drop_milli as f64 / 1000.0);
                for &v in &self.victims {
                    link = link.with_crash(v, 1, None);
                }
                link.into()
            }
        }
    }

    fn arq(&self) -> Option<ArqConfig> {
        (self.which == Serving::Chaos).then(ArqConfig::default)
    }

    fn survives(&self, v: NodeId) -> bool {
        self.victims.binary_search(&v).is_err()
    }
}

/// One deploy-and-serve iteration, timed as a user runs it.
struct Served {
    setup_s: f64,
    run_s: f64,
    heap_bytes: usize,
    schedule: Schedule,
    run: WorkloadRun,
    /// The deployment's network handle; shares the lazily built routing
    /// table with the run.
    net: SimNetwork,
    /// The fleet's initial node states, kept for the traced replica.
    nodes: Option<Vec<ServeNode>>,
}

fn serve_once(fleet: &Fleet, shape: &Shape, keep_nodes: bool) -> Served {
    let topology = fleet.topology.clone();
    let features = fleet.features.clone();
    let metric = Arc::clone(&fleet.metric);
    let (link, arq, opts) = (shape.link(), shape.arq(), shape.options());
    let base = alloc::reset_peak();
    let (ws, setup_s) = timed(|| {
        WorkloadSim::build_with_link(
            topology,
            features,
            metric,
            DELTA,
            &shape.spec,
            opts,
            link,
            arq,
        )
    });
    let schedule = ws.schedule().clone();
    let net = ws.sim().network().clone();
    let nodes = keep_nodes.then(|| ws.sim().nodes().to_vec());
    let (run, run_s) = timed(|| ws.run_concurrent());
    Served {
        setup_s,
        run_s,
        heap_bytes: alloc::peak().saturating_sub(base),
        schedule,
        run,
        net,
        nodes,
    }
}

/// A digest of everything a rerun must reproduce: every completed answer
/// (matches, path, coverage, finish tick) and the simulated makespan.
fn digest(completed: &[CompletedQuery], ticks: SimTime) -> u64 {
    let mut h = DefaultHasher::new();
    ticks.hash(&mut h);
    for c in completed {
        let answer = (
            c.qid,
            c.template,
            c.submitted,
            c.finished,
            c.coverage_milli,
            c.shed,
        );
        (answer, &c.matches, &c.path).hash(&mut h);
    }
    h.finish()
}

/// Correctness and simulated cost of runs, pooled over sub-workloads.
#[derive(Default)]
struct Audit {
    runs: u64,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    /// Simulated latency of every completed attempted query.
    latencies: Vec<u64>,
    coverage_sum: u64,
    /// Σ over attempted queries of the share of nodes (‰) the initiator
    /// can reach through surviving nodes.
    ceiling_sum: f64,
    ticks_sum: u64,
    /// Wire packets, without the analytically billed plan distribution
    /// that `WorkloadRun::costs` merges in.
    packets: u64,
}

impl Audit {
    fn absorb(&mut self, other: Audit) {
        self.runs += other.runs;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
        self.latencies.extend(other.latencies);
        self.coverage_sum += other.coverage_sum;
        self.ceiling_sum += other.ceiling_sum;
        self.ticks_sum += other.ticks_sum;
        self.packets += other.packets;
    }

    fn fail(&mut self, problem: String) {
        self.problems.push(problem);
        self.failed += 1;
    }
}

/// Marks every node reachable from `src` through nodes `ok` accepts.
fn bfs(topology: &Topology, src: NodeId, ok: impl Fn(NodeId) -> bool) -> Vec<bool> {
    let mut seen = vec![false; topology.n()];
    seen[src] = true;
    let mut queue = VecDeque::from([src]);
    while let Some(v) = queue.pop_front() {
        for &w in topology.graph().neighbors(v) {
            let w = w as usize;
            if !seen[w] && ok(w) {
                seen[w] = true;
                queue.push_back(w);
            }
        }
    }
    seen
}

/// Per template, each node's membership when it is the same for every
/// value the node's anchor can take in the schedule (its initial feature
/// and each of its updates), `None` when it depends on which one.
fn stable_membership(fleet: &Fleet, schedule: &Schedule) -> Vec<Vec<Option<bool>>> {
    let updated: Vec<Feature> = schedule.updates.iter().map(|u| u.feature.clone()).collect();
    schedule
        .templates
        .iter()
        .map(|t| {
            let mut member = vec![Some(false); fleet.n()];
            for v in expected_matches(t, &fleet.features, fleet.metric.as_ref()) {
                member[v] = Some(true);
            }
            let hits = expected_matches(t, &updated, fleet.metric.as_ref());
            for (i, u) in schedule.updates.iter().enumerate() {
                if member[u.node] != Some(hits.binary_search(&i).is_ok()) {
                    member[u.node] = None;
                }
            }
            member
        })
        .collect()
}

/// The first node whose stable membership `set` gets wrong.
fn misclassified(stable: &[Option<bool>], set: &[NodeId]) -> Option<NodeId> {
    (0..stable.len()).find(|&v| stable[v].is_some_and(|m| m != set.binary_search(&v).is_ok()))
}

/// Checks a path answer against its own unsafe set: a returned path must
/// run from source to destination over graph edges and safe nodes only,
/// and none may be returned only when no safe path exists.
fn path_problem(topology: &Topology, template: &Template, c: &CompletedQuery) -> Option<String> {
    let Template::Path { source, dest, .. } = *template else {
        return None;
    };
    let safe = |v: NodeId| c.matches.binary_search(&v).is_err();
    let ok = match &c.path {
        Some(p) => {
            p.first() == Some(&source)
                && p.last() == Some(&dest)
                && p.iter().all(|&v| safe(v))
                && p.windows(2).all(|w| topology.graph().has_edge(w[0], w[1]))
        }
        None => !(safe(source) && safe(dest) && bfs(topology, source, safe)[dest]),
    };
    (!ok).then(|| format!("qid {}: wrong safe path {:?}", c.qid, c.path))
}

/// Audits one run:
/// - `serve`: every answer is exact on each node whose membership is the
///   same for every anchor value the schedule gives it, and so is every
///   active subscriber's final view;
/// - `contended`: every answer has full coverage and equals the truth
///   over the initial features;
/// - `chaos`: full coverage ⇒ exact, partial ⇒ a subset of the truth, and
///   every query at a surviving initiator completes;
/// - every path answer is a valid safe path for its own unsafe set.
fn audit(fleet: &Fleet, shape: &Shape, schedule: &Schedule, run: &WorkloadRun) -> Audit {
    let n = fleet.n();
    let mut a = Audit {
        runs: 1,
        ticks_sum: run.sim_ticks,
        packets: run.costs.total_packets() - run.costs.kind("wl_plan").packets,
        ..Audit::default()
    };
    let stable = (shape.which == Serving::Serve).then(|| stable_membership(fleet, schedule));
    let truths: Vec<Vec<NodeId>> = schedule
        .templates
        .iter()
        .map(|t| expected_matches(t, &fleet.features, fleet.metric.as_ref()))
        .collect();
    let mut done = vec![false; schedule.submissions.len()];
    for c in &run.completed {
        let sub = schedule.submissions.get(c.qid as usize);
        let Some(sub) = sub.filter(|s| shape.survives(s.initiator) && !done[s.qid as usize]) else {
            a.fail(format!("qid {}: unexpected or duplicate completion", c.qid));
            continue;
        };
        done[sub.qid as usize] = true;
        a.latencies.push(c.finished - sub.at);
        a.coverage_sum += u64::from(c.coverage_milli);
        let truth = &truths[c.template as usize];
        let full = c.coverage_milli == 1000;
        let problem = if c.shed {
            Some(format!("qid {}: shed", c.qid))
        } else if shape.which != Serving::Chaos && !full {
            Some(format!(
                "qid {}: partial answer on a fault-free link",
                c.qid
            ))
        } else if let Some(stable) = &stable {
            misclassified(&stable[c.template as usize], &c.matches)
                .map(|v| format!("qid {}: node {v} misclassified", c.qid))
        } else if full && &c.matches != truth {
            Some(format!("qid {}: full-coverage answer is not exact", c.qid))
        } else if c.matches.iter().any(|m| truth.binary_search(m).is_err()) {
            Some(format!("qid {}: partial answer is not a subset", c.qid))
        } else {
            None
        };
        let template = &schedule.templates[c.template as usize];
        if let Some(p) = problem.or_else(|| path_problem(&fleet.topology, template, c)) {
            a.fail(p);
        }
    }
    for s in schedule
        .submissions
        .iter()
        .filter(|s| shape.survives(s.initiator))
    {
        a.attempted += 1;
        let reach = bfs(&fleet.topology, s.initiator, |v| shape.survives(v));
        a.ceiling_sum += 1000.0 * reach.iter().filter(|&&r| r).count() as f64 / n as f64;
        if !done[s.qid as usize] {
            a.fail(format!("qid {}: never completed", s.qid));
        }
    }
    if let Some(stable) = &stable {
        if run.subscriptions.len() != schedule.subscriptions.len() {
            a.fail("a scheduled subscription is missing".into());
        }
        // A view is exact on stable nodes when it claims full coverage, and
        // holds no stable non-member otherwise.
        for s in run.subscriptions.iter().filter(|s| s.active) {
            let member = &stable[s.template as usize];
            let wrong = if s.covered == n as u64 {
                misclassified(member, &s.view)
            } else {
                s.view.iter().copied().find(|&v| member[v] == Some(false))
            };
            if let Some(v) = wrong {
                a.fail(format!("sid {}: node {v} misclassified in view", s.sid));
            }
        }
    }
    a
}

/// Checks each run against the first run of its sub-workload: the first
/// is audited, every later one must reproduce its digest exactly.
struct Reruns {
    first: Vec<Option<(u64, Audit)>>,
}

impl Reruns {
    fn new() -> Reruns {
        Reruns {
            first: (0..SUBS).map(|_| None).collect(),
        }
    }

    fn check(&mut self, sheet: &mut Sheet, sub: usize, audit: impl FnOnce() -> Audit, d: u64) {
        match &self.first[sub] {
            None => self.first[sub] = Some((d, audit())),
            Some((first, _)) if *first != d => {
                sheet.fail(format!("sub-workload {sub}: rerun diverged"))
            }
            Some(_) => {}
        }
        let a = &self.first[sub].as_ref().expect("recorded").1;
        sheet.attempted += a.attempted;
        sheet.failed += a.failed;
    }

    fn pooled(self, sheet: &mut Sheet) -> Audit {
        let mut all = Audit::default();
        for (_, a) in self.first.into_iter().flatten() {
            all.absorb(a);
        }
        sheet.problems.extend(all.problems.iter().cloned());
        all
    }
}

/// Records the pooled simulated metrics.
fn record_sim(sheet: &mut Sheet, which: Serving, a: &mut Audit) {
    let ops = a.attempted.max(1) as f64;
    sheet.put("sim_ticks", "ticks", a.ticks_sum as f64 / a.runs as f64);
    sheet.put("msgs_per_op", "msgs", a.packets as f64 / ops);
    a.latencies.sort_unstable();
    let lat = &a.latencies;
    if lat.is_empty() {
        sheet
            .notes
            .push("no completed queries: latency omitted".into());
    } else {
        sheet.put("latency_p50_ticks", "ticks", nearest_rank(lat, 50) as f64);
        sheet.put("latency_p99_ticks", "ticks", nearest_rank(lat, 99) as f64);
    }
    sheet.put("latency_samples", "count", lat.len() as f64);
    let coverage = a.coverage_sum as f64 / lat.len().max(1) as f64;
    sheet.put("coverage_mean_milli", "milli", coverage);
    sheet.put("ops_failed_frac", "fraction", a.failed as f64 / ops);
    if which == Serving::Chaos {
        sheet.notes.push(format!(
            "coverage_mean_milli {coverage:.1} vs surviving-graph ceiling {:.1} (reported only)",
            a.ceiling_sum / ops
        ));
    }
}

/// End-to-end measurement: deploy and serve every sub-workload in rounds
/// for `seconds`, audit each sub-workload's first run, and require every
/// later run to reproduce it.
pub fn end_to_end(which: Serving, fleet: &Fleet, seed: u64, seconds: f64, sizes: &Sizes) -> Sheet {
    let shapes = Shape::all(which, seed, sizes, fleet.n());
    let mut sheet = Sheet::default();
    let mut reruns = Reruns::new();
    let mut host = Series::default();
    let n_rounds = rounds(seconds, SUBS, |_, sub| {
        let shape = &shapes[sub];
        let s = serve_once(fleet, shape, false);
        host.push("setup_s", sub, s.setup_s);
        host.push("run_s", sub, s.run_s);
        host.push("peak_heap_mb", sub, s.heap_bytes as f64 / alloc::MB);
        let d = digest(&s.run.completed, s.run.sim_ticks);
        reruns.check(
            &mut sheet,
            sub,
            || audit(fleet, shape, &s.schedule, &s.run),
            d,
        );
    });
    let mut pooled = reruns.pooled(&mut sheet);
    sheet.notes.push(format!(
        "{n_rounds} rounds of {SUBS} deploy+serve sub-workloads; setup_s is the median, other host metrics the mean over sub-workloads of each one's median"
    ));
    let run_s = host.typical("run_s");
    sheet.put("setup_s", "s", host.median("setup_s"));
    sheet.put("run_s", "s", run_s);
    let done = (pooled.attempted - pooled.failed) as f64 / SUBS as f64;
    sheet.put("ops_per_s", "1/s", done / run_s);
    sheet.put("peak_heap_mb", "MB", host.typical("peak_heap_mb"));
    record_sim(&mut sheet, which, &mut pooled);
    sheet
}

/// A serving simulator rebuilt from public parts, as `run_concurrent`
/// builds and drives it: same network, link, seed, ARQ and injections.
/// Returns it after the run with the run's host time.
fn replica<P: Protocol<Msg = ServeMsg>>(
    shape: &Shape,
    net: &SimNetwork,
    schedule: &Schedule,
    nodes: Vec<P>,
    trace: Option<Arc<Mutex<CountingTrace>>>,
) -> (Simulator<P>, f64) {
    let mut sim = Simulator::new(net.clone(), shape.link(), shape.spec.seed, nodes);
    if let Some(arq) = shape.arq() {
        sim.enable_arq(arq);
    }
    if let Some(sink) = trace {
        sim.set_trace(sink);
    }
    for s in &schedule.submissions {
        let (qid, template) = (s.qid, s.template);
        sim.inject(s.at, s.initiator, ServeMsg::Submit { qid, template });
    }
    for u in &schedule.updates {
        sim.inject(u.at, u.node, ServeMsg::Update(u.feature.clone()));
    }
    for s in &schedule.subscriptions {
        let (sid, template) = (s.sid, s.template);
        sim.inject(s.at, s.client, ServeMsg::Subscribe { sid, template });
    }
    let ((), secs) = timed(|| {
        sim.run_to_completion();
    });
    sim.record_flow_gauges();
    (sim, secs)
}

fn replica_digest<'a>(nodes: impl Iterator<Item = &'a ServeNode>, ticks: SimTime) -> u64 {
    let mut all: Vec<CompletedQuery> = nodes.flat_map(|n| n.completed().iter().cloned()).collect();
    all.sort_by_key(|c| c.qid);
    digest(&all, ticks)
}

/// Times each deploy stage, called in `build_with_link`'s order, into
/// `t`; returns the staged schedule and the stages' total time.
fn deploy_stages(fleet: &Fleet, shape: &Shape, sub: usize, t: &mut Series) -> (Schedule, f64) {
    let net = SimNetwork::new(fleet.topology.clone());
    let (metric, features) = (Arc::clone(&fleet.metric), &fleet.features);
    let config = ElinkConfig::for_delta(DELTA);
    let (outcome, growth_s) = timed(|| run_implicit(&net, features, metric, config));
    let clustering = &outcome.clustering;
    let ((index, _), index_s) =
        timed(|| DistributedIndex::build(clustering, features, fleet.metric.as_ref()));
    let (routing, routing_s) = timed(|| RoutingTable::build(fleet.topology.graph()));
    let ((backbone, _), backbone_s) = timed(|| Backbone::build(clustering, &routing));
    let (schedule, schedule_s) = timed(|| build_schedule(&shape.spec, features, DELTA));
    let topology = Arc::new(fleet.topology.clone());
    let templates = &schedule.templates;
    let (_, plan_s) =
        timed(|| ServingPlan::build(clustering, &index, &backbone, topology, features, templates));
    for (name, v) in [
        ("core.growth_s", growth_s),
        ("query.index_build_s", index_s),
        ("topology.routing_build_s", routing_s),
        ("query.backbone_build_s", backbone_s),
        ("workload.schedule_build_s", schedule_s),
        ("workload.plan_build_s", plan_s),
        (
            "core.msgs_per_node",
            outcome.costs.total_packets() as f64 / fleet.n() as f64,
        ),
        ("core.peak_live_events", outcome.peak_live_events as f64),
    ] {
        t.push(name, sub, v);
    }
    let staged = growth_s + index_s + routing_s + backbone_s + schedule_s + plan_s;
    (schedule, staged)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Run counters read from the traced replica's metrics registry, with the
/// name each is reported under.
const COUNTERS: [(&str, &str); 15] = [
    ("wl.cache.hit", "hit"),
    ("wl.cache.miss", "miss"),
    ("wl.batch.riders", "workload.batch_riders"),
    ("wl.cache.inval", "workload.invalidations"),
    ("wl.sub.push", "workload.sub_pushes"),
    ("wl.sub.repair", "workload.sub_repairs"),
    ("wl.query.partial", "workload.partial"),
    ("wl.recover.query_gaveup", "workload.gaveup"),
    ("maint.failover", "workload.failovers"),
    ("net.flow.stale", "netsim.flow_stale"),
    ("net.queued_ms", "netsim.queued_ticks"),
    ("net.retx", "netsim.arq_retx"),
    ("net.timeout", "netsim.arq_timeouts"),
    ("net.drops.loss", "netsim.drops_loss"),
    ("net.drops.node_down", "netsim.drops_node_down"),
];

/// Records the trace sink's counts of one run.
pub fn count_trace(c: &mut Series, sub: usize, trace: &CountingTrace) {
    for (name, v) in [
        ("netsim.trace_sends", trace.sends),
        ("netsim.trace_delivers", trace.delivers),
        ("netsim.trace_drops", trace.drops),
        ("netsim.trace_timers", trace.timers),
        ("retx", trace.retx),
    ] {
        c.push(name, sub, v as f64);
    }
}

/// Traced per-layer measurement. Per sub-workload and round: time each
/// deploy stage, deploy and serve untraced, then replay the run on a
/// rebuilt simulator twice — plain, and with timed handlers plus a
/// counting trace sink — and require both replicas to reproduce the
/// untraced answers exactly.
pub fn per_layer(which: Serving, fleet: &Fleet, seed: u64, seconds: f64, sizes: &Sizes) -> Sheet {
    let shapes = Shape::all(which, seed, sizes, fleet.n());
    let n = fleet.n();
    let mut sheet = Sheet::default();
    let mut reruns = Reruns::new();
    let (mut t, mut c) = (Series::default(), Series::default());
    let mut lazy_builds = 0;
    let n_rounds = rounds(seconds, SUBS, |round, sub| {
        let shape = &shapes[sub];
        let (staged_schedule, staged) = deploy_stages(fleet, shape, sub, &mut t);
        let s = serve_once(fleet, shape, true);
        let lazy = s.net.routing_built();
        let ((), force_s) = timed(|| {
            s.net.routing();
        });
        let nodes = s.nodes.expect("kept for the replica");
        let d = digest(&s.run.completed, s.run.sim_ticks);

        let (plain, plain_s) = replica(shape, &s.net, &s.schedule, nodes.clone(), None);
        if replica_digest(plain.nodes().iter(), plain.now()) != d {
            sheet.fail(format!("sub-workload {sub}: plain replica diverged"));
        }
        drop(plain);
        let clock = Rc::new(HandlerClock::default());
        let sink = Arc::new(Mutex::new(CountingTrace::new()));
        let wrapped = Timed::wrap(nodes, &clock);
        let (traced, traced_s) = replica(shape, &s.net, &s.schedule, wrapped, Some(sink.clone()));
        if replica_digest(traced.nodes().iter().map(|t| &t.inner), traced.now()) != d {
            sheet.fail(format!("sub-workload {sub}: traced replica diverged"));
        }
        for (name, v) in [
            ("workload.setup_residual_s", s.setup_s - staged),
            ("workload.handler_s", clock.seconds()),
            ("netsim.engine_s", traced_s - clock.seconds()),
            ("netsim.trace_overhead_frac", traced_s / plain_s - 1.0),
            ("force_s", force_s),
        ] {
            t.push(name, sub, v);
        }
        if round == 0 {
            lazy_builds += u64::from(lazy);
            let metrics: &Metrics = traced.metrics();
            for (counter, name) in COUNTERS {
                c.push(name, sub, metrics.counter(counter) as f64);
            }
            for (gauge, name) in [
                ("net.link.busy_peak_ticks", "netsim.link_busy_peak_ticks"),
                ("net.link.peak_flows", "netsim.link_peak_flows"),
            ] {
                c.push(name, sub, metrics.gauge(gauge).unwrap_or(0) as f64);
            }
            count_trace(&mut c, sub, &sink.lock().expect("trace sink poisoned"));
            c.push("workload.handler_calls", sub, clock.calls() as f64);
            c.push("netsim.events", sub, traced.events_processed() as f64);
            c.push(
                "netsim.peak_live_events",
                sub,
                traced.peak_live_events() as f64,
            );
            if staged_schedule != s.schedule {
                sheet.fail(format!("sub-workload {sub}: staged schedule differs"));
            }
        }
        reruns.check(
            &mut sheet,
            sub,
            || audit(fleet, shape, &s.schedule, &s.run),
            d,
        );
    });
    let mut pooled = reruns.pooled(&mut sheet);
    let builds = 1.0 + lazy_builds as f64 / SUBS as f64;
    sheet.notes.push(format!(
        "{n_rounds} rounds of {SUBS} traced sub-workloads; host times are the mean over sub-workloads of each one's median; counts are means per sub-workload"
    ));
    sheet.notes.push(format!(
        "routing: 1 explicit build in setup, and a lazy one during the run in {lazy_builds} of {SUBS} runs; forcing it afterwards took {:.6} s",
        t.typical("force_s")
    ));
    sheet.notes.push(format!(
        "handler {:.4} s vs engine {:.4} s; both replicas reproduce the untraced answers; trace overhead {:+.4}",
        t.typical("workload.handler_s"),
        t.typical("netsim.engine_s"),
        t.typical("netsim.trace_overhead_frac"),
    ));
    sheet.put("topology.routing_builds", "count", builds);
    let table_mb = 8.0 * (n * n) as f64 / alloc::MB;
    sheet.put("topology.routing_mb", "MB", builds * table_mb);
    sheet.put("core.handler_s", "s", 0.0);
    sheet.put_typical(
        &t,
        &[
            ("topology.routing_build_s", "s"),
            ("core.growth_s", "s"),
            ("core.msgs_per_node", "msgs"),
            ("core.peak_live_events", "count"),
            ("query.index_build_s", "s"),
            ("query.backbone_build_s", "s"),
            ("workload.schedule_build_s", "s"),
            ("workload.plan_build_s", "s"),
            ("workload.setup_residual_s", "s"),
            ("workload.handler_s", "s"),
        ],
    );
    sheet.put_typical(
        &c,
        &[
            ("workload.handler_calls", "count"),
            ("workload.batch_riders", "count"),
            ("workload.invalidations", "count"),
            ("workload.sub_pushes", "count"),
            ("workload.sub_repairs", "count"),
            ("workload.partial", "count"),
            ("workload.gaveup", "count"),
            ("workload.failovers", "count"),
            ("netsim.flow_stale", "count"),
            ("netsim.queued_ticks", "ticks"),
            ("netsim.link_busy_peak_ticks", "ticks"),
            ("netsim.link_peak_flows", "count"),
            ("netsim.arq_retx", "count"),
            ("netsim.arq_timeouts", "count"),
            ("netsim.drops_loss", "count"),
            ("netsim.drops_node_down", "count"),
        ],
    );
    let (hit, miss) = (c.typical("hit"), c.typical("miss"));
    sheet.put("workload.cache_hit_ratio", "ratio", ratio(hit, hit + miss));
    let ceiling = pooled.ceiling_sum / pooled.attempted.max(1) as f64;
    sheet.put("workload.coverage_ceiling_milli", "milli", ceiling);
    let sent = c.typical("netsim.trace_sends") + c.typical("retx");
    let useful = ratio(c.typical("netsim.trace_delivers"), sent);
    sheet.put("netsim.arq_useful_ratio", "ratio", useful);
    put_engine(&mut sheet, &t, &c);
    record_sim(&mut sheet, which, &mut pooled);
    sheet
}

/// The engine and trace-sink rows of every traced run: `t` holds the
/// engine time and trace overhead, `c` the counts.
pub fn put_engine(sheet: &mut Sheet, t: &Series, c: &Series) {
    let (engine, events) = (t.typical("netsim.engine_s"), c.typical("netsim.events"));
    sheet.put("netsim.ns_per_event", "ns", engine * 1e9 / events.max(1.0));
    sheet.put_typical(
        t,
        &[
            ("netsim.engine_s", "s"),
            ("netsim.trace_overhead_frac", "fraction"),
        ],
    );
    sheet.put_typical(
        c,
        &[
            ("netsim.events", "count"),
            ("netsim.peak_live_events", "count"),
            ("netsim.trace_sends", "count"),
            ("netsim.trace_delivers", "count"),
            ("netsim.trace_drops", "count"),
            ("netsim.trace_timers", "count"),
        ],
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A corrupted answer must be caught by the audit of every workload.
    #[test]
    fn audit_catches_a_wrong_answer() {
        let sizes = Sizes::SMOKE;
        let fleet = Fleet::terrain(sizes.nodes);
        for which in [Serving::Serve, Serving::Contended, Serving::Chaos] {
            let shape = Shape::new(which, 3, &sizes, fleet.n());
            let mut s = serve_once(&fleet, &shape, false);
            let clean = audit(&fleet, &shape, &s.schedule, &s.run);
            assert!(clean.problems.is_empty(), "{which:?}: {:?}", clean.problems);
            assert!(clean.attempted > 0);
            // Add a node every run must classify as a non-member.
            let stable = stable_membership(&fleet, &s.schedule);
            let c = &mut s.run.completed[0];
            let outsider = (0..fleet.n())
                .find(|&v| stable[c.template as usize][v] == Some(false))
                .expect("a stable non-member");
            if let Err(at) = c.matches.binary_search(&outsider) {
                c.matches.insert(at, outsider);
            }
            let broken = audit(&fleet, &shape, &s.schedule, &s.run);
            assert_eq!(broken.failed, 1, "{which:?}: {:?}", broken.problems);
        }
    }
}
