//! The serving plan: per-node routing state distributed at deployment time.
//!
//! The plan snapshots the cluster trees, the M-tree child entries (anchor
//! feature, covering radius, static subtree membership), the per-cluster
//! member lists, and the backbone adjacency between cluster leaders —
//! everything a
//! [`ServeNode`](crate::protocol::ServeNode) needs to answer queries
//! without any global data structure at run time. Child-entry features and
//! radii are the *mutable* part: slack-exceeding updates repair them
//! through the invalidation climb (see [`crate::protocol`]).
//!
//! Plan distribution is charged analytically under the `wl_plan` kind: one
//! convergecast report per cluster-tree edge for the child entries (the
//! M-tree build of §7.1) plus a network-wide broadcast of the template
//! dictionary.

use crate::gen::Template;
use crate::protocol::BATCH_WINDOW;
use elink_core::Clustering;
use elink_metric::Feature;
use elink_netsim::CostBook;
use elink_query::{Backbone, DistributedIndex};
use elink_topology::{NodeId, Topology};
use std::sync::Arc;

/// Routing state for one M-tree child subtree.
#[derive(Debug, Clone)]
pub struct ChildEntry {
    /// The child node.
    pub child: NodeId,
    /// The child's anchor feature (updated by invalidation climbs).
    pub feature: Feature,
    /// Covering radius bound for the child's subtree (inflated, never
    /// tightened, by invalidation climbs).
    pub radius: f64,
    /// Static membership of the child's subtree (the §6-lite maintenance
    /// model keeps membership fixed; see DESIGN.md §9).
    pub subtree: Vec<NodeId>,
}

/// Per-node serving plan.
#[derive(Debug, Clone)]
pub struct NodePlan {
    /// This node's cluster root.
    pub cluster_root: NodeId,
    /// Cluster-tree parent (None at roots).
    pub parent: Option<NodeId>,
    /// M-tree child entries.
    pub entries: Vec<ChildEntry>,
    /// Own covering radius (inflated by invalidation climbs).
    pub radius: f64,
    /// All cluster members, ascending — populated at cluster roots only.
    pub members: Vec<NodeId>,
    /// Backbone-adjacent cluster leaders — populated at cluster roots only.
    pub backbone_peers: Vec<NodeId>,
}

/// The static plan quantities the recovery deadlines are sized from
/// (DESIGN.md §10.2): how tall each cluster tree is, and how many backbone
/// levels an echo spans from each seat. Multiplied by the delivery envelope
/// `D` in force when a deadline is armed, they give one budget per wave
/// instead of the fleet-wide worst case.
#[derive(Debug, Clone)]
pub struct DeadlinePlan {
    /// Network diameter in hops: one routed transit crosses at most this
    /// many links.
    pub diameter: u64,
    /// Height of every cluster tree in edges, by cluster index.
    pub tree_height: Vec<u64>,
    /// Backbone eccentricity of every cluster in backbone edges: the
    /// height of the echo tree a coordinator there spans.
    pub backbone_ecc: Vec<u64>,
    /// Per cluster, its backbone neighbors with the height (in backbone
    /// edges) of this cluster's backbone subtree away from each: what an
    /// echo participant reached from that neighbor is responsible for.
    pub backbone_away: Vec<Vec<(usize, u64)>>,
    /// The largest of `tree_height`.
    tallest: u64,
}

impl DeadlinePlan {
    /// Reads the heights off the cluster trees and the leader backbone.
    /// The backbone is a tree over `k` clusters; every cluster is rooted
    /// once, so the build costs O(k²) on top of one parent walk per node.
    pub fn build(clustering: &Clustering, backbone: &Backbone, diameter: u64) -> DeadlinePlan {
        let mut tree_height = vec![0u64; clustering.cluster_count()];
        for v in 0..clustering.n() {
            let h = &mut tree_height[clustering.cluster_of(v)];
            *h = (*h).max(clustering.tree_depth(v) as u64);
        }
        let k = backbone.cluster_count();
        let mut backbone_away: Vec<Vec<(usize, u64)>> = (0..k)
            .map(|c| backbone.neighbors(c).iter().map(|&(p, _)| (p, 0)).collect())
            .collect();
        let mut backbone_ecc = vec![0u64; k];
        let mut height = vec![0u64; k];
        let mut edges = Vec::with_capacity(k);
        for root in 0..k {
            edges.clear();
            backbone.walk_from(root, |p, c, _| edges.push((p, c)));
            height.fill(0);
            // Discovery order lists a parent edge before its child's
            // edges, so the reverse settles every subtree first.
            for &(p, c) in edges.iter().rev() {
                height[p] = height[p].max(height[c] + 1);
                if let Some(slot) = backbone_away[c].iter_mut().find(|(q, _)| *q == p) {
                    slot.1 = height[c];
                }
            }
            backbone_ecc[root] = height[root];
        }
        DeadlinePlan {
            diameter,
            tallest: tree_height.iter().copied().max().unwrap_or(0),
            tree_height,
            backbone_ecc,
            backbone_away,
        }
    }

    /// Worst-case one-way transit of a routed (multi-hop) message when one
    /// neighbor delivery takes at most `d` ticks.
    pub fn transit(&self, d: u64) -> u64 {
        (self.diameter + 1) * d
    }

    /// Descent budget in `cluster`: down and up its tree, plus a routed
    /// round trip for adopted children and degraded-mode probes.
    pub fn descent(&self, cluster: usize, d: u64) -> u64 {
        self.descent_of_height(self.tree_height[cluster], d)
    }

    fn descent_of_height(&self, height: u64, d: u64) -> u64 {
        2 * (height + 1) * d + 2 * self.transit(d)
    }

    /// One backbone level of an echo: the slowest cluster's descent, the
    /// batch window, and a fanout/convergecast round trip.
    fn level(&self, d: u64) -> u64 {
        self.descent_of_height(self.tallest, d) + BATCH_WINDOW + 2 * self.transit(d)
    }

    /// Backbone levels below an echo participant in `cluster`: the height
    /// of its subtree away from the neighbor cluster `from` that fanned out
    /// to it, else (at the coordinator, `from = None`) its eccentricity.
    fn echo_height(&self, cluster: usize, from: Option<usize>) -> u64 {
        from.and_then(|p| {
            self.backbone_away[cluster]
                .iter()
                .find(|&&(q, _)| q == p)
                .map(|&(_, h)| h)
        })
        .unwrap_or(self.backbone_ecc[cluster])
    }

    /// Echo budget of a participant in `cluster` reached from `from`: one
    /// level per backbone level it is responsible for, its own included.
    pub fn echo(&self, cluster: usize, from: Option<usize>, d: u64) -> u64 {
        (self.echo_height(cluster, from) + 1) * self.level(d)
    }

    /// Initiator watchdog for a query coordinated in `cluster`: a full echo
    /// plus its re-issue round, and the routes to and from the coordinator.
    pub fn watchdog(&self, cluster: usize, d: u64) -> u64 {
        2 * self.echo(cluster, None, d) + 4 * self.transit(d)
    }
}

/// The complete plan plus its distribution bill.
#[derive(Debug, Clone)]
pub struct ServingPlan {
    /// One plan per node.
    pub nodes: Vec<NodePlan>,
    /// Shared topology handle (initiators path-find locally over it).
    pub topology: Arc<Topology>,
}

impl ServingPlan {
    /// Builds the plan from a clustering, its M-tree index, and the leader
    /// backbone; `templates` is the query dictionary whose broadcast is
    /// part of the distribution bill.
    pub fn build(
        clustering: &Clustering,
        index: &DistributedIndex,
        backbone: &Backbone,
        topology: Arc<Topology>,
        features: &[Feature],
        templates: &[Template],
    ) -> (ServingPlan, CostBook) {
        let n = clustering.n();
        let dim = features.first().map_or(1, Feature::scalar_cost);
        let mut costs = CostBook::new();

        // Leader lookup: cluster index -> leader node.
        let leaders: Vec<NodeId> = clustering.clusters.iter().map(|c| c.root).collect();

        let mut nodes = Vec::with_capacity(n);
        for v in 0..n {
            let entries: Vec<ChildEntry> = index
                .children(v)
                .iter()
                .map(|&c| {
                    let mut subtree = index.subtree(c);
                    subtree.sort_unstable();
                    ChildEntry {
                        child: c,
                        feature: features[c].clone(),
                        radius: index.covering_radius(c),
                        subtree,
                    }
                })
                .collect();
            // Distribution: each child entry was convergecast one hop up the
            // cluster tree (feature + radius + membership ids).
            for e in &entries {
                costs.record("wl_plan", 1, dim + 1 + e.subtree.len() as u64);
            }
            let ci = clustering.cluster_of(v);
            let is_root = leaders[ci] == v;
            let (members, backbone_peers) = if is_root {
                let mut members = clustering.clusters[ci].members.clone();
                members.sort_unstable();
                let peers: Vec<NodeId> = backbone
                    .neighbors(ci)
                    .iter()
                    .map(|&(peer_ci, _)| leaders[peer_ci])
                    .collect();
                (members, peers)
            } else {
                (Vec::new(), Vec::new())
            };
            nodes.push(NodePlan {
                cluster_root: leaders[ci],
                parent: clustering.tree_parent[v],
                entries,
                radius: index.covering_radius(v),
                members,
                backbone_peers,
            });
        }

        // Template dictionary broadcast: every node receives every template
        // once (flood over a spanning structure: n transmissions per
        // template payload is the usual lower-bound accounting).
        let template_scalars: u64 = templates.iter().map(Template::scalar_cost).sum();
        costs.record("wl_plan", n as u64, template_scalars.max(1));

        (ServingPlan { nodes, topology }, costs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elink_core::{run_implicit, ElinkConfig};
    use elink_metric::Absolute;
    use elink_netsim::SimNetwork;
    use elink_topology::RoutingTable;

    fn build_fixture() -> (ServingPlan, Clustering) {
        let data = elink_datasets::TerrainDataset::generate(80, 6, 0.55, 5);
        let features = data.features();
        let net = SimNetwork::new(data.topology().clone());
        let outcome = run_implicit(
            &net,
            &features,
            Arc::new(Absolute),
            ElinkConfig::for_delta(300.0),
        );
        let (index, _) = DistributedIndex::build(&outcome.clustering, &features, &Absolute);
        let routing = RoutingTable::build(data.topology().graph());
        let (backbone, _) = Backbone::build(&outcome.clustering, &routing);
        let (plan, _) = ServingPlan::build(
            &outcome.clustering,
            &index,
            &backbone,
            Arc::new(data.topology().clone()),
            &features,
            &[],
        );
        (plan, outcome.clustering)
    }

    #[test]
    fn plan_mirrors_cluster_trees() {
        let (plan, clustering) = build_fixture();
        for v in 0..clustering.n() {
            assert_eq!(plan.nodes[v].parent, clustering.tree_parent[v]);
            assert_eq!(plan.nodes[v].cluster_root, clustering.root_of(v));
            let is_root = clustering.root_of(v) == v;
            assert_eq!(!plan.nodes[v].members.is_empty(), is_root);
            for e in &plan.nodes[v].entries {
                assert!(e.subtree.contains(&e.child));
            }
        }
    }

    #[test]
    fn roots_cover_all_members_exactly_once() {
        let (plan, clustering) = build_fixture();
        let mut seen = vec![false; clustering.n()];
        for node in &plan.nodes {
            for &m in &node.members {
                assert!(!seen[m], "member {m} in two clusters");
                seen[m] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "some node in no cluster");
    }

    #[test]
    fn backbone_peers_are_symmetric() {
        let (plan, clustering) = build_fixture();
        for v in 0..clustering.n() {
            for &p in &plan.nodes[v].backbone_peers {
                assert!(
                    plan.nodes[p].backbone_peers.contains(&v),
                    "backbone edge {v}-{p} not symmetric"
                );
            }
        }
    }
}
