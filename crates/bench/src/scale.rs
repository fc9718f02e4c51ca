//! The 1k→64k scaling bench behind `BENCH_scale.json`.
//!
//! The paper's central claim is O(N)-message clustering (Theorem 3); this
//! bench puts the reproduction's msgs/node curve next to it at fleet sizes
//! up to 64k nodes — the "Fundamentals of Large Sensor Networks" regime —
//! and doubles as the scheduler-refactor scoreboard:
//!
//! * every size runs the identical workload under **both**
//!   [`SchedulerKind`](elink_netsim::SchedulerKind)s; the run digests (per-kind `CostBook`, per-node
//!   tallies, assignments, quiescence time) must be byte-identical, which
//!   is the determinism contract of the calendar-queue refactor;
//! * wall time is measured per backend and printed in the gate's summary
//!   (never in the document: single-shot wall clocks do not reproduce).
//!
//! Fleets are unit-spacing grids (`O(n)` construction) with a smooth
//! two-frequency feature field, clustered by implicit-mode ELink over a
//! synchronous link — the §4 configuration, which is broadcast-only.
//! Broadcast-only matters at this scale: the engine's routing table is
//! `O(n²)` memory (≈ 34 GiB at 64k) and is built lazily; the bench asserts
//! it was never materialized.

use elink_core::protocol::SignalMode;
use elink_core::{run_with_options, ElinkConfig, ElinkOutcome, RunOptions};
use elink_metric::{Absolute, Feature};
use elink_netsim::{SchedulerKind, SimNetwork, SyncLink};
use elink_topology::Topology;
use std::sync::Arc;
use std::time::Instant;

/// Grid sides of the committed sweep: 1k, 4k, 16k and 64k nodes.
pub const SIDES: [usize; 4] = [32, 64, 128, 256];

/// One fleet size's measurements.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    /// Fleet size (nodes).
    pub n: usize,
    /// Clusters in the output clustering.
    pub clusters: usize,
    /// Simulated quiescence time (ticks).
    pub sim_time: u64,
    /// Total link-level transmissions.
    pub messages: u64,
    /// Total payload bytes (8 per §8.2 scalar).
    pub bytes: u64,
    /// Messages per node — the curve to hold against the paper's O(N).
    pub msgs_per_node: f64,
    /// Bytes per node.
    pub bytes_per_node: f64,
    /// High-water mark of simultaneously live scheduler events.
    pub peak_live_events: usize,
    /// Wall-clock of the heap-backend run (the pre-refactor baseline),
    /// in milliseconds. Summary only; not part of the document.
    pub wall_ms_heap: u64,
    /// Wall-clock of the calendar-backend run, in milliseconds. Summary
    /// only; not part of the document.
    pub wall_ms_calendar: u64,
}

/// The smooth synthetic feature field: two incommensurate spatial
/// frequencies over the grid, producing region-shaped clusters at every
/// size without any O(n²) preprocessing.
fn grid_features(side: usize) -> Vec<Feature> {
    let mut out = Vec::with_capacity(side * side);
    for r in 0..side {
        for c in 0..side {
            let x = c as f64;
            let y = r as f64;
            let v = 40.0 * (x / 17.0).sin() + 40.0 * (y / 13.0).cos();
            out.push(Feature::scalar(v));
        }
    }
    out
}

/// δ for the scaling fleets: wide enough for multi-node clusters, narrow
/// enough that the field's ridges split the grid into many regions.
const SCALE_DELTA: f64 = 25.0;

/// FNV-1a over a byte stream — cheap, deterministic, dependency-free.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf29ce484222325)
    }
    fn write_u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }
}

/// A digest of everything the determinism contract covers: per-kind
/// message bills, per-node tx/rx tallies, the assignment vector, cluster
/// roots, and quiescence time. Two runs of the same seed must produce
/// byte-identical digests regardless of scheduler backend.
pub fn run_digest(outcome: &ElinkOutcome) -> String {
    let mut s = String::new();
    for (kind, st) in outcome.costs.iter() {
        s.push_str(&format!("{kind}:{}:{};", st.packets, st.cost));
    }
    s.push_str(&format!(
        "total:{}:{};elapsed:{};",
        outcome.costs.total_packets(),
        outcome.costs.total_cost(),
        outcome.elapsed
    ));
    let mut fnv = Fnv::new();
    for &a in &outcome.clustering.assignment {
        fnv.write_u64(a as u64);
    }
    for c in &outcome.clustering.clusters {
        fnv.write_u64(c.root as u64);
    }
    for node in outcome.costs.nodes() {
        fnv.write_u64(node.tx_packets);
        fnv.write_u64(node.rx_packets);
        fnv.write_u64(node.tx_cost);
    }
    s.push_str(&format!(
        "clusters:{};state_fnv:{:016x}",
        outcome.clustering.cluster_count(),
        fnv.0
    ));
    s
}

fn run_one(network: &SimNetwork, features: &[Feature], kind: SchedulerKind) -> (ElinkOutcome, u64) {
    let start = Instant::now();
    let outcome = run_with_options(
        network,
        features,
        Arc::new(Absolute),
        ElinkConfig::for_delta(SCALE_DELTA),
        SignalMode::Implicit,
        SyncLink,
        0,
        RunOptions {
            arq: None,
            scheduler: kind,
        },
    );
    (outcome, start.elapsed().as_millis() as u64)
}

/// Runs one fleet size under both scheduler backends.
///
/// # Panics
/// Panics if the two backends' run digests differ (the determinism
/// contract), or if the broadcast-only run materialized the O(n²) routing
/// table.
pub fn run_point(side: usize) -> ScalePoint {
    let topology = Topology::grid(side, side);
    let n = topology.n();
    let features = grid_features(side);
    let network = SimNetwork::new(topology);

    let (heap_outcome, wall_ms_heap) = run_one(&network, &features, SchedulerKind::Heap);
    let (outcome, wall_ms_calendar) = run_one(&network, &features, SchedulerKind::Calendar);

    let heap_digest = run_digest(&heap_outcome);
    let calendar_digest = run_digest(&outcome);
    assert_eq!(
        heap_digest, calendar_digest,
        "scheduler backends diverged at n={n}"
    );
    assert!(
        !network.routing_built(),
        "broadcast-only run materialized the O(n²) routing table"
    );

    let messages = outcome.costs.total_packets();
    let bytes = 8 * outcome.costs.total_cost();
    ScalePoint {
        n,
        clusters: outcome.clustering.cluster_count(),
        sim_time: outcome.elapsed,
        messages,
        bytes,
        msgs_per_node: messages as f64 / n as f64,
        bytes_per_node: bytes as f64 / n as f64,
        peak_live_events: outcome.peak_live_events,
        wall_ms_heap,
        wall_ms_calendar,
    }
}

/// Runs the bench over the given grid sides (see [`SIDES`]).
pub fn run_scale(sides: &[usize]) -> Vec<ScalePoint> {
    sides.iter().map(|&side| run_point(side)).collect()
}

fn point_json(p: &ScalePoint) -> String {
    format!(
        concat!(
            "{{\"n\":{},\"clusters\":{},\"sim_time\":{},\"messages\":{},\"bytes\":{},",
            "\"msgs_per_node\":{:.3},\"bytes_per_node\":{:.3},\"peak_live_events\":{}}}"
        ),
        p.n,
        p.clusters,
        p.sim_time,
        p.messages,
        p.bytes,
        p.msgs_per_node,
        p.bytes_per_node,
        p.peak_live_events
    )
}

/// The `BENCH_scale.json` document. Two same-seed runs must agree
/// byte-for-byte.
pub fn scale_report_json(points: &[ScalePoint]) -> String {
    let rows: Vec<String> = points.iter().map(point_json).collect();
    format!(
        "{{\"schema\":\"elink-scale/v2\",\"results\":[\n{}\n]}}\n",
        rows.join(",\n")
    )
}

/// The `scale` gate: every size in [`SIDES`]. Its acceptance clauses are
/// the assertions inside [`run_point`] — heap ≡ calendar digests and an
/// unbuilt routing table at every size — so a clean run is the proof.
pub struct ScaleGate;

impl crate::Gate for ScaleGate {
    type Report = Vec<ScalePoint>;
    const NAME: &'static str = "scale";

    fn run(&self) -> Vec<ScalePoint> {
        run_scale(&SIDES)
    }

    fn summary(&self, points: &Vec<ScalePoint>) -> String {
        let rows: Vec<String> = points
            .iter()
            .map(|p| {
                format!(
                    "n={:<6} clusters={:<5} msgs/node={:<8.2} bytes/node={:<9.2} peak_events={:<7} heap={}ms calendar={}ms ({:.2}x)",
                    p.n,
                    p.clusters,
                    p.msgs_per_node,
                    p.bytes_per_node,
                    p.peak_live_events,
                    p.wall_ms_heap,
                    p.wall_ms_calendar,
                    p.wall_ms_heap as f64 / p.wall_ms_calendar.max(1) as f64
                )
            })
            .collect();
        rows.join("\n")
    }

    fn json(&self, points: &Vec<ScalePoint>) -> String {
        scale_report_json(points)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The smallest fleet, both backends: digests equal (asserted inside
    /// `run_point`), messages O(N)-ish, peak events nonzero, routing lazy.
    #[test]
    fn quick_point_is_deterministic_across_backends() {
        let p = run_point(16);
        assert_eq!(p.n, 256);
        assert!(p.clusters > 1, "field should split the grid");
        assert!(p.messages > 0 && p.peak_live_events > 0);
        // O(N) claim sanity: broadcast-only ELink stays near a small
        // per-node constant (expand + switches), far below N.
        assert!(
            p.msgs_per_node < 64.0,
            "msgs/node {} blew past O(1)-per-node expectations",
            p.msgs_per_node
        );
    }

    #[test]
    fn report_is_reproducible_and_wall_free() {
        let a = scale_report_json(&run_scale(&[8, 16]));
        let b = scale_report_json(&run_scale(&[8, 16]));
        assert_eq!(a, b);
        assert!(!a.contains("wall_ms") && !a.contains("speedup"));
        for key in [
            "\"schema\":\"elink-scale/v2\"",
            "\"msgs_per_node\":",
            "\"peak_live_events\":",
        ] {
            assert!(a.contains(key), "missing {key}");
        }
    }
}
