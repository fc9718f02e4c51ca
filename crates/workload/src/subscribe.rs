//! Standing-query subscription state: the data structures and *pure*
//! transitions behind the `Sub*` messages of
//! [`ServeMsg`](crate::protocol::ServeMsg).
//!
//! A node plays up to three roles at once, each with its own state block
//! inside [`SubState`] (embedded in every
//! [`ServeNode`](crate::protocol::ServeNode)):
//!
//! * **Client** — holds [`ClientSub`] per registered subscription: the
//!   materialized result view, its version, and the honest coverage of the
//!   last push. The client applies snapshot and delta pushes with the
//!   version rules of [`ClientSub::apply_push`] — a delta only ever lands
//!   on the exact base version it was computed against, so a reordered or
//!   replayed push can never corrupt the view (it is ignored or answered
//!   with a resync request instead).
//! * **Coordinator** — a cluster root serving its cluster's subscribers.
//!   It keeps the bounded subscription table
//!   ([`SubEntry`](crate::subscribe::SubEntry) rows, admission and
//!   eviction policy from [`crate::qos`]) and one
//!   [`TemplateView`](crate::subscribe::TemplateView) per
//!   watched template: absolute per-cluster contributions merged into the
//!   current global answer, plus the arrival-rate-adaptive flush window
//!   pacing push fan-out.
//! * **Watcher** — every cluster root with a
//!   [`WatchState`](crate::subscribe::WatchState) for a
//!   template: it recomputes its *own cluster's* contribution when the
//!   invalidation climb dirties it and sends the absolute result to each
//!   registered coordinator (only when it actually changed — steady-state
//!   traffic is proportional to churn, and a cluster whose covering radius
//!   excludes the template resolves to an empty contribution without any
//!   descent, which is the leader-level pruning of backbone fan-out).
//!
//! Everything here is deterministic integer/`Vec` bookkeeping with no
//! messaging; the IO glue (sends, timers, repair descents) lives in
//! `protocol.rs` so this module stays unit-testable in isolation.

use crate::qos::AdaptiveWindow;
use elink_core::node_table::{apply_diff_sorted, diff_sorted, merge_runs, FlatMap, FlatSet};
use elink_netsim::SimTime;
use elink_topology::NodeId;

/// Why a subscription ended, as carried by `ServeMsg::SubEnd`.
pub mod end_reason {
    /// Refused at admission: the client exceeded its per-client cap.
    pub const SHED: u8 = 1;
    /// Evicted from a full table to admit a newer subscription.
    pub const EVICTED: u8 = 2;
    /// The coordinator gave up pushing to an unreachable client.
    pub const UNREACHABLE: u8 = 3;
}

/// Client-side record of one subscription.
#[derive(Debug, Clone)]
pub struct ClientSub {
    /// Template index subscribed to.
    pub template: u16,
    /// False once a `SubEnd` arrived.
    pub active: bool,
    /// [`end_reason`] code when inactive (0 while active).
    pub end_reason: u8,
    /// The materialized result view, ascending.
    pub view: Vec<NodeId>,
    /// Version of the last applied push.
    pub version: u64,
    /// Covered-node count of the last applied push (coverage honesty).
    pub covered: u64,
    /// Pushes applied so far.
    pub pushes: u64,
    /// A resync request is outstanding (cleared by the next snapshot).
    pub resync_sent: bool,
    /// Per-applied-push latency samples (ticks from the triggering change
    /// to delivery), in application order — the bench percentiles source.
    pub latencies: Vec<SimTime>,
}

/// Outcome of [`ClientSub::apply_push`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushVerdict {
    /// The push landed; the view advanced to `version`.
    Applied,
    /// Stale or duplicate push; view untouched.
    Ignored,
    /// Delta base mismatch: the caller should send one resync request.
    NeedResync,
}

impl ClientSub {
    /// A fresh, empty, active subscription for `template`.
    pub fn new(template: u16) -> ClientSub {
        ClientSub {
            template,
            active: true,
            end_reason: 0,
            view: Vec::new(),
            version: 0,
            covered: 0,
            pushes: 0,
            resync_sent: false,
            latencies: Vec::new(),
        }
    }

    /// Applies one push. Snapshots replace the view outright; deltas apply
    /// only on their exact base version — anything else is ignored (stale)
    /// or escalated to a resync (version gap). A delta can therefore never
    /// be applied against a view it was not computed from.
    pub fn apply_push(
        &mut self,
        version: u64,
        base_version: u64,
        snapshot: bool,
        adds: &[NodeId],
        removes: &[NodeId],
        covered: u64,
    ) -> PushVerdict {
        if !self.active || version <= self.version {
            return PushVerdict::Ignored;
        }
        if snapshot {
            self.view = adds.to_vec();
            self.version = version;
            self.covered = covered;
            self.pushes += 1;
            self.resync_sent = false;
            return PushVerdict::Applied;
        }
        if base_version != self.version {
            if self.resync_sent {
                return PushVerdict::Ignored;
            }
            self.resync_sent = true;
            return PushVerdict::NeedResync;
        }
        apply_diff_sorted(&mut self.view, adds, removes);
        self.version = version;
        self.covered = covered;
        self.pushes += 1;
        PushVerdict::Applied
    }
}

/// One cluster's absolute contribution to a template's answer, as stored
/// at a coordinator.
#[derive(Debug, Clone)]
pub struct ClusterContrib {
    /// The watcher root that produced it (a successor's fresh stream
    /// supersedes a dead predecessor's regardless of sequence numbers).
    pub origin: NodeId,
    /// Per-origin contribution sequence number (monotone).
    pub cseq: u64,
    /// Matching members of that cluster, ascending.
    pub matches: Vec<NodeId>,
    /// Members whose membership the watcher determined.
    pub covered: u64,
}

/// A coordinator's merged answer for one template, fed by per-cluster
/// contributions.
#[derive(Debug, Clone)]
pub struct TemplateView {
    /// Latest accepted contribution per cluster.
    pub contrib: FlatMap<usize, ClusterContrib>,
    /// Merged matches across clusters, ascending (clusters are disjoint).
    pub merged: Vec<NodeId>,
    /// Total covered nodes across contributions.
    pub covered: u64,
    /// Arrival-rate-adaptive push flush window.
    pub window: AdaptiveWindow,
    /// A flush timer is armed for this template.
    pub flush_armed: bool,
    /// Earliest trigger time among unflushed changes (push latency base).
    pub trigger: Option<SimTime>,
}

impl Default for TemplateView {
    /// A fresh, empty view.
    fn default() -> TemplateView {
        TemplateView {
            contrib: FlatMap::new(),
            merged: Vec::new(),
            covered: 0,
            window: AdaptiveWindow::default(),
            flush_armed: false,
            trigger: None,
        }
    }
}

impl TemplateView {
    /// Integrates one contribution; returns whether the merged view (or
    /// its coverage) changed. A contribution is accepted when the cluster
    /// is new, the origin changed (failover successor), or the sequence
    /// number advanced — late duplicates from a retry round are dropped.
    pub fn integrate(
        &mut self,
        cluster: usize,
        origin: NodeId,
        cseq: u64,
        matches: Vec<NodeId>,
        covered: u64,
    ) -> bool {
        if let Some(c) = self.contrib.get(&cluster) {
            if c.origin == origin && cseq <= c.cseq {
                return false;
            }
        }
        self.contrib.insert(
            cluster,
            ClusterContrib {
                origin,
                cseq,
                matches,
                covered,
            },
        );
        self.remerge()
    }

    /// Drops a cluster's contribution (its root died: nothing about its
    /// current content is known until the successor reports). Returns
    /// whether anything changed.
    pub fn zero_cluster(&mut self, cluster: usize) -> bool {
        if self.contrib.remove(&cluster).is_none() {
            return false;
        }
        self.remerge();
        true
    }

    /// Recomputes `merged`/`covered`; returns whether either changed.
    fn remerge(&mut self) -> bool {
        let merged = merge_runs(self.contrib.values().map(|c| c.matches.as_slice()));
        let covered: u64 = self.contrib.values().map(|c| c.covered).sum();
        let changed = merged != self.merged || covered != self.covered;
        self.merged = merged;
        self.covered = covered;
        changed
    }
}

/// A push the coordinator composed and (under recovery) may retransmit
/// until acked.
#[derive(Debug, Clone)]
pub struct SentPush {
    /// Version this push advances the client to.
    pub version: u64,
    /// The confirmed client version the delta was computed against (0 for
    /// snapshots).
    pub base_version: u64,
    /// The full view at `version` (becomes `acked` on ack).
    pub view: Vec<NodeId>,
    /// Covered count at `version`.
    pub covered: u64,
    /// Whether it was a snapshot.
    pub snapshot: bool,
    /// Delta adds (snapshot: the full view).
    pub adds: Vec<NodeId>,
    /// Delta removes (snapshot: empty).
    pub removes: Vec<NodeId>,
    /// Trigger time carried for the push-latency histogram.
    pub trigger: SimTime,
}

/// Coordinator-side row of the bounded subscription table.
#[derive(Debug, Clone)]
pub struct SubEntry {
    /// Subscribing client node.
    pub client: NodeId,
    /// Template index.
    pub template: u16,
    /// Admitted degraded: the coordinator watches only its own cluster for
    /// this subscription's template (honest reduced coverage).
    pub degraded: bool,
    /// Last view the client confirmed (fault-free runs confirm
    /// optimistically at send time): `(view, covered, version)`. `None`
    /// forces the next push to be a snapshot.
    pub acked: Option<(Vec<NodeId>, u64, u64)>,
    /// Version of the last composed push.
    pub version: u64,
    /// Push in flight awaiting ack (recovery only).
    pub sent: Option<SentPush>,
    /// Retransmissions spent on `sent`.
    pub retries: u8,
    /// Last registration/ack/resync activity (LRU eviction key).
    pub last_active: SimTime,
    /// Pushes composed for this subscription (popularity eviction key).
    pub pushes: u64,
}

impl SubEntry {
    /// A fresh table row for `client`/`template` registered at `now`.
    pub fn new(client: NodeId, template: u16, degraded: bool, now: SimTime) -> SubEntry {
        SubEntry {
            client,
            template,
            degraded,
            acked: None,
            version: 0,
            sent: None,
            retries: 0,
            last_active: now,
            pushes: 0,
        }
    }

    /// Composes the next push against the current merged view, or `None`
    /// when the client's confirmed state already matches. Snapshot pushes
    /// are forced while nothing is confirmed (`acked == None`); deltas are
    /// computed with [`diff_sorted`] against the confirmed view.
    pub fn compose_push(
        &mut self,
        merged: &[NodeId],
        covered: u64,
        trigger: SimTime,
    ) -> Option<SentPush> {
        let (snapshot, base_version, adds, removes) = match &self.acked {
            None => (true, 0, merged.to_vec(), Vec::new()),
            Some((view, acked_cov, acked_version)) => {
                let (adds, removes) = diff_sorted(view, merged);
                if adds.is_empty() && removes.is_empty() && *acked_cov == covered {
                    return None;
                }
                (false, *acked_version, adds, removes)
            }
        };
        self.version += 1;
        self.pushes += 1;
        let push = SentPush {
            version: self.version,
            base_version,
            view: merged.to_vec(),
            covered,
            snapshot,
            adds,
            removes,
            trigger,
        };
        self.sent = Some(push.clone());
        self.retries = 0;
        Some(push)
    }

    /// Confirms delivery of `version`: the sent view becomes the acked
    /// base for future deltas. Stale acks are ignored.
    pub fn confirm(&mut self, version: u64) -> bool {
        match self.sent.take() {
            Some(p) if p.version == version => {
                self.acked = Some((p.view, p.covered, p.version));
                true
            }
            other => {
                self.sent = other;
                false
            }
        }
    }
}

/// Watcher-side state: this cluster root recomputes its cluster's
/// contribution for a template on churn and reports it to coordinators.
#[derive(Debug, Clone, Default)]
pub struct WatchState {
    /// Coordinators to notify, ascending, deduplicated.
    pub coords: Vec<NodeId>,
    /// Contribution sequence number (monotone per watcher node).
    pub cseq: u64,
    /// Last contribution sent: `(matches, covered)` — unchanged results
    /// are not re-sent (churn-proportional traffic).
    pub last: Option<(Vec<NodeId>, u64)>,
    /// The template changed since the last repair completed.
    pub dirty: bool,
    /// A repair evaluation is in flight.
    pub repairing: bool,
    /// A repair flush timer is armed.
    pub armed: bool,
    /// Arrival-rate-adaptive repair window.
    pub window: AdaptiveWindow,
    /// Coordinators whose ack of `cseq` is outstanding (recovery only).
    pub unacked: Vec<NodeId>,
    /// A contribution retry timer is armed.
    pub retry_armed: bool,
    /// Retry rounds spent on the current `cseq`.
    pub retries: u8,
    /// Dirty-mark time of the oldest unrepaired change (latency base).
    pub trigger: SimTime,
}

impl WatchState {
    /// Registers a coordinator (idempotent); returns whether it was new.
    pub fn add_coord(&mut self, coord: NodeId) -> bool {
        match self.coords.binary_search(&coord) {
            Ok(_) => false,
            Err(pos) => {
                self.coords.insert(pos, coord);
                true
            }
        }
    }
}

/// All subscription state of one node, across its client, coordinator and
/// watcher roles.
#[derive(Debug, Clone)]
pub struct SubState {
    /// Client role: subscriptions this node registered.
    pub client: FlatMap<u64, ClientSub>,
    /// Coordinator role: the bounded subscription table.
    pub table: FlatMap<u64, SubEntry>,
    /// Coordinator role: merged per-template views.
    pub views: FlatMap<u16, TemplateView>,
    /// Watcher role: per-template watch registrations.
    pub watches: FlatMap<u16, WatchState>,
    /// Flood dedup: coordinators whose `SubWatch` for a template this root
    /// has already forwarded.
    pub seen_watch: FlatMap<u16, FlatSet<NodeId>>,
    /// Flood dedup: last takeover successor seen per cluster.
    pub seen_takeover: FlatMap<usize, NodeId>,
}

impl Default for SubState {
    fn default() -> Self {
        SubState {
            client: FlatMap::new(),
            table: FlatMap::new(),
            views: FlatMap::new(),
            watches: FlatMap::new(),
            seen_watch: FlatMap::new(),
            seen_takeover: FlatMap::new(),
        }
    }
}

impl SubState {
    /// Live subscriptions `client` holds in the coordinator table.
    pub fn client_load(&self, client: NodeId) -> usize {
        self.table.values().filter(|e| e.client == client).count()
    }

    /// Eviction rows for [`crate::qos::evict_victim`].
    pub fn eviction_rows(&self) -> impl Iterator<Item = (u64, SimTime, u64)> + '_ {
        self.table
            .iter()
            .map(|(&sid, e)| (sid, e.last_active, e.pushes))
    }

    /// Whether any table entry for `template` is admitted non-degraded
    /// (i.e. the global watch must stay registered).
    pub fn wants_global(&self, template: u16) -> bool {
        self.table
            .values()
            .any(|e| e.template == template && !e.degraded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_then_delta_then_stale_then_gap() {
        let mut c = ClientSub::new(3);
        assert_eq!(
            c.apply_push(1, 0, true, &[2, 5, 9], &[], 90),
            PushVerdict::Applied
        );
        assert_eq!(c.view, vec![2, 5, 9]);
        // Delta on the exact base applies.
        assert_eq!(
            c.apply_push(2, 1, false, &[7], &[5], 96),
            PushVerdict::Applied
        );
        assert_eq!(c.view, vec![2, 7, 9]);
        assert_eq!(c.covered, 96);
        // Replay of an old version is ignored.
        assert_eq!(
            c.apply_push(2, 1, false, &[7], &[5], 96),
            PushVerdict::Ignored
        );
        // A version gap asks for resync exactly once.
        assert_eq!(
            c.apply_push(9, 8, false, &[1], &[], 96),
            PushVerdict::NeedResync
        );
        assert_eq!(
            c.apply_push(10, 9, false, &[1], &[], 96),
            PushVerdict::Ignored
        );
        // The next snapshot clears the resync latch.
        assert_eq!(
            c.apply_push(11, 0, true, &[1, 2], &[], 96),
            PushVerdict::Applied
        );
        assert!(!c.resync_sent);
        assert_eq!(c.view, vec![1, 2]);
    }

    #[test]
    fn view_integration_is_per_origin_monotone() {
        let mut v = TemplateView::default();
        assert!(v.integrate(0, 10, 1, vec![1, 2], 5,));
        assert!(v.integrate(1, 20, 1, vec![7], 4));
        assert_eq!(v.merged, vec![1, 2, 7]);
        assert_eq!(v.covered, 9);
        // A stale duplicate from the same origin is dropped.
        assert!(!v.integrate(0, 10, 1, vec![9], 5));
        // A failover successor (new origin) supersedes at any cseq.
        assert!(v.integrate(0, 11, 1, vec![2], 4));
        assert_eq!(v.merged, vec![2, 7]);
        assert_eq!(v.covered, 8);
        // Zeroing a dead root's cluster drops its claims honestly.
        assert!(v.zero_cluster(1));
        assert_eq!(v.merged, vec![2]);
        assert_eq!(v.covered, 4);
        assert!(!v.zero_cluster(1));
    }

    #[test]
    fn compose_push_snapshots_then_deltas_then_skips_noops() {
        let mut e = SubEntry::new(4, 0, false, 10);
        // Nothing confirmed yet: first push is a snapshot.
        let p = e.compose_push(&[1, 5], 50, 12).expect("snapshot");
        assert!(p.snapshot);
        assert_eq!(p.adds, vec![1, 5]);
        assert!(e.confirm(p.version));
        // Confirmed base: the next push is a delta.
        let p = e.compose_push(&[1, 8], 50, 14).expect("delta");
        assert!(!p.snapshot);
        assert_eq!((p.adds.clone(), p.removes.clone()), (vec![8], vec![5]));
        assert!(e.confirm(p.version));
        // Unchanged view and coverage: no push at all.
        assert!(e.compose_push(&[1, 8], 50, 15).is_none());
        // Coverage-only movement still pushes (honesty must reach the
        // client even when the match set is unchanged).
        let p = e.compose_push(&[1, 8], 44, 16).expect("coverage push");
        assert!(p.adds.is_empty() && p.removes.is_empty());
        // A stale ack does not confirm the in-flight push.
        assert!(!e.confirm(p.version - 1));
        assert!(e.sent.is_some());
    }

    #[test]
    fn watch_coord_registration_dedups() {
        let mut w = WatchState::default();
        assert!(w.add_coord(9));
        assert!(w.add_coord(3));
        assert!(!w.add_coord(9));
        assert_eq!(w.coords, vec![3, 9]);
    }

    #[test]
    fn client_load_and_eviction_rows() {
        let mut s = SubState::default();
        s.table.insert(1, SubEntry::new(7, 0, false, 5));
        s.table.insert(2, SubEntry::new(7, 1, false, 9));
        s.table.insert(3, SubEntry::new(8, 0, true, 2));
        assert_eq!(s.client_load(7), 2);
        assert_eq!(s.client_load(9), 0);
        assert!(s.wants_global(0));
        assert!(s.wants_global(1));
        let victim = crate::qos::evict_victim(s.eviction_rows());
        assert_eq!(victim, Some(3), "oldest activity evicts first");
    }
}
