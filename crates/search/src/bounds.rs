//! Bound-dissemination policies and the node-leader broadcast tree.
//!
//! A branch-and-bound incumbent improvement is only useful once other
//! workers *see* it — and on a hierarchical machine, "seeing it" has a
//! per-level price. This module owns the policy vocabulary shared by every
//! backend and the topology-derived broadcast structure they implement it
//! with:
//!
//! * [`BoundPolicy`] — *when* a worker learns of an improvement:
//!   eagerly ([`Immediate`](BoundPolicy::Immediate)), on a refresh cadence
//!   ([`Periodic`](BoundPolicy::Periodic)), or along the machine's level
//!   structure ([`Hierarchical`](BoundPolicy::Hierarchical));
//! * [`BroadcastTree`] — *how* the hierarchical variant routes a value:
//!   the publishing worker hands it to its **node leader** (the first
//!   worker of its shared-memory node), leaders exchange it across the
//!   `node_prefix` boundary ring by ring
//!   (`MachineTopology::node_rings`), and each leader fans it out to its
//!   node's workers through shared memory;
//! * [`BoundPath`] / [`BoundFanout`] — the hop profile of one delivery
//!   and the message bill of one improvement, in *topology units* (level
//!   crossings and fabric ring ranks). Pricing them in nanoseconds is the
//!   executor's job (the simulator's `CostModel`); counting them is the
//!   same everywhere.
//!
//! # The three policies, concretely
//!
//! | policy | freshness | fabric messages per improvement |
//! |---|---|---|
//! | `Immediate` | every `bound()` sees the newest value after one flat hop | one per off-node worker (eager broadcast) |
//! | `Periodic { every }` | cached; refreshed every `every` processed nodes | 1 write-through, plus 1 per off-node refresh (pull) |
//! | `Hierarchical` | per-level delay: near workers learn before far ones | one per remote node **leader** (`nodes − 1`) |
//!
//! On the paper's 512-core testbed shape (128 nodes × 4 cores) an
//! `Immediate` improvement costs 508 fabric messages; `Hierarchical`
//! costs 127 — the per-level delay it introduces in exchange is exactly
//! what `paper ablation_bound` measures in wasted (stale-bound)
//! node expansions.

use std::cell::Cell;
use std::fmt;
use std::str::FromStr;

use macs_topo::MachineTopology;

/// How branch-and-bound incumbent improvements reach other workers.
///
/// Every backend (threaded GPI cells under MaCS and PaCCS, simulator
/// timeline) interprets the same three variants; only the final optimum is
/// policy-invariant — the tree size and the message volume are not, which
/// is the trade the paper's §VI discussion asks about.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BoundPolicy {
    /// Read the freshest global value before every node; eager flat
    /// broadcast on improvement. Exact, and the most fabric traffic.
    #[default]
    Immediate,
    /// Work from a cached value, refreshed every `every` processed nodes.
    /// Cheap, but every worker may prune on a bound up to `every` nodes
    /// stale.
    Periodic {
        /// Refresh cadence in processed nodes (clamped to ≥ 1).
        every: u32,
    },
    /// Route improvements over the node-leader broadcast tree derived
    /// from the machine topology (see [`BroadcastTree`]): publish to the
    /// node leader, leader exchange across the `node_prefix` boundary,
    /// shared-memory fan-out inside each node. Staleness grows with
    /// topological distance instead of being uniform.
    Hierarchical,
}

impl BoundPolicy {
    /// The canonical sweep order for ablation harnesses.
    pub const ALL: [BoundPolicy; 3] = [
        BoundPolicy::Immediate,
        BoundPolicy::Periodic { every: 32 },
        BoundPolicy::Hierarchical,
    ];
}

impl fmt::Display for BoundPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoundPolicy::Immediate => write!(f, "immediate"),
            BoundPolicy::Periodic { every } => write!(f, "periodic:{every}"),
            BoundPolicy::Hierarchical => write!(f, "hierarchical"),
        }
    }
}

impl FromStr for BoundPolicy {
    type Err = String;

    /// Parse `immediate`, `periodic[:k]` (default `k` = 32) or
    /// `hierarchical` — the `--bound-policy` argument of the bench bins.
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "immediate" => Ok(BoundPolicy::Immediate),
            "hierarchical" => Ok(BoundPolicy::Hierarchical),
            "periodic" => Ok(BoundPolicy::Periodic { every: 32 }),
            _ => match s.strip_prefix("periodic:") {
                Some(k) => {
                    let every: u32 = k.parse().map_err(|e| {
                        format!("bad periodic cadence {k:?} in bound policy {s:?}: {e}")
                    })?;
                    Ok(BoundPolicy::Periodic {
                        every: every.max(1),
                    })
                }
                None => Err(format!(
                    "unknown bound policy {s:?} (expected immediate, periodic[:k] \
                     or hierarchical)"
                )),
            },
        }
    }
}

/// Countdown gate for cached-read cadences — the `Periodic` refresh and
/// the hierarchical leader's mirror refresh. [`due`](RefreshGate::due)
/// returns `true` on the first call and then once every `every` calls, so
/// every backend shares one cadence semantics instead of hand-rolling the
/// countdown (and drifting by one, as copies do).
#[derive(Debug, Default)]
pub struct RefreshGate(Cell<u32>);

impl RefreshGate {
    pub fn new() -> Self {
        RefreshGate(Cell::new(0))
    }

    /// Should the caller refresh now? `true` once every `every` calls
    /// (`every` is clamped to ≥ 1; every call refreshes at 1).
    pub fn due(&self, every: u32) -> bool {
        let c = self.0.get();
        if c == 0 {
            self.0.set(every.max(1) - 1);
            true
        } else {
            self.0.set(c - 1);
            false
        }
    }
}

/// Hop profile of one bound delivery, in topology units. An executor
/// prices it: each intra-node hop is a coherence/level crossing
/// (`cross_level_ns`-class), the fabric hop — if any — is a
/// leader-to-leader message `fabric_ring` remote rings out
/// (`remote_latency × level_hop_factor^(ring−1)`-class).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BoundPath {
    /// Intra-node level crossings on the path (origin → leader plus
    /// leader → destination for cross-node deliveries; the direct
    /// shared-memory distance inside one node).
    pub intra_hops: usize,
    /// Remote ring rank of the leader-to-leader hop (`0` = no fabric hop,
    /// `1` = nearest remote ring).
    pub fabric_ring: usize,
}

/// The message bill of broadcasting one improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BoundFanout {
    /// Messages that cross the interconnect (the scalability-relevant
    /// volume the ablation harness reports).
    pub fabric_msgs: u64,
    /// Shared-memory deliveries (publish hop + per-node fan-out).
    pub intra_msgs: u64,
}

/// The node-leader broadcast tree of a [`MachineTopology`].
///
/// Each shared-memory node's **leader** is its first worker (the node is a
/// contiguous ID range, so `leader = node × node_size`). A worker that
/// improves the incumbent publishes to its leader through shared memory;
/// the leader exchanges the value with every other leader across the
/// `node_prefix` boundary, walking `MachineTopology::node_rings` nearest
/// ring first; each receiving leader fans out to its node's workers. The
/// value therefore reaches a destination after
/// [`path`](BroadcastTree::path) hops — more level crossings the further
/// the destination, which is what makes delivery delay grow with
/// [`MachineTopology::distance`].
#[derive(Clone, Debug)]
pub struct BroadcastTree {
    topo: MachineTopology,
}

impl BroadcastTree {
    pub fn new(topo: &MachineTopology) -> Self {
        BroadcastTree { topo: topo.clone() }
    }

    /// The machine this tree is derived from.
    pub fn topology(&self) -> &MachineTopology {
        &self.topo
    }

    /// The leader (first worker) of `w`'s shared-memory node.
    #[inline]
    pub fn leader_of(&self, w: usize) -> usize {
        self.topo.peers_of(w).start
    }

    /// Is `w` its node's leader?
    #[inline]
    pub fn is_leader(&self, w: usize) -> bool {
        self.leader_of(w) == w
    }

    /// Hop profile of a delivery spanning topological distance `d`
    /// (`0 ≤ d ≤ levels`). A function of the distance alone, so delivery
    /// delay is monotone in `distance()` under any monotone pricing:
    ///
    /// * `d = 0` — the submitter itself: no hops;
    /// * `d ≤ local_distance_max` — same node: `d` shared-memory level
    ///   crossings, no fabric hop;
    /// * otherwise — up to the origin's leader and down from the
    ///   destination's (`2 × local_distance_max` intra hops) around one
    ///   leader-to-leader fabric hop at ring `d − local_distance_max`.
    pub fn path_by_distance(&self, d: usize) -> BoundPath {
        debug_assert!(d <= self.topo.levels());
        let local = self.topo.local_distance_max();
        if d == 0 {
            BoundPath {
                intra_hops: 0,
                fabric_ring: 0,
            }
        } else if d <= local {
            BoundPath {
                intra_hops: d,
                fabric_ring: 0,
            }
        } else {
            BoundPath {
                intra_hops: 2 * local,
                fabric_ring: d - local,
            }
        }
    }

    /// Hop profile of a bound travelling from `origin` to `dest`.
    pub fn path(&self, origin: usize, dest: usize) -> BoundPath {
        self.path_by_distance(self.topo.distance(origin, dest))
    }

    /// Message bill of one hierarchical broadcast from `origin`: one
    /// fabric message per remote node leader (the per-ring sum over
    /// `node_rings`, i.e. `nodes − 1`) and one shared-memory delivery per
    /// non-originating worker inside each node.
    pub fn hierarchical_fanout(&self, origin: usize) -> BoundFanout {
        let fabric: u64 = self
            .topo
            .node_rings(self.leader_of(origin))
            .iter()
            .map(|ring| ring.len() as u64)
            .sum();
        let per_node = self.topo.node_size() as u64 - 1;
        BoundFanout {
            fabric_msgs: fabric,
            intra_msgs: self.topo.nodes() as u64 * per_node,
        }
    }

    /// Message bill of the flat eager broadcast (the `Immediate` pole):
    /// one direct message per other worker, fabric for everyone off the
    /// origin's node.
    pub fn eager_fanout(&self, origin: usize) -> BoundFanout {
        let total = self.topo.total_workers() as u64;
        let node = self.topo.peers_of(origin).len() as u64;
        BoundFanout {
            fabric_msgs: total - node,
            intra_msgs: node - 1,
        }
    }

    /// The bill: fabric messages one accepted improvement from `origin`
    /// costs under `policy` — the eager fan-out, one write-through to the
    /// root register on node 0 (readers pay at their own refresh), or one
    /// per remote leader. Threaded PaCCS and the simulator's bound fabric
    /// both charge by this function.
    pub fn improvement_msgs(&self, policy: BoundPolicy, origin: usize) -> u64 {
        match policy {
            BoundPolicy::Immediate => self.eager_fanout(origin).fabric_msgs,
            BoundPolicy::Periodic { .. } => (self.topo.node_of(origin) != 0) as u64,
            BoundPolicy::Hierarchical => self.hierarchical_fanout(origin).fabric_msgs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_parsing_round_trips() {
        for p in BoundPolicy::ALL {
            assert_eq!(p.to_string().parse::<BoundPolicy>().unwrap(), p);
        }
        assert_eq!(
            "periodic".parse::<BoundPolicy>().unwrap(),
            BoundPolicy::Periodic { every: 32 }
        );
        assert_eq!(
            "periodic:7".parse::<BoundPolicy>().unwrap(),
            BoundPolicy::Periodic { every: 7 }
        );
        assert_eq!(
            "periodic:0".parse::<BoundPolicy>().unwrap(),
            BoundPolicy::Periodic { every: 1 },
            "zero cadence clamps to 1"
        );
        for bad in ["", "eager", "periodic:", "periodic:x", "Immediate"] {
            assert!(
                bad.parse::<BoundPolicy>().is_err(),
                "{bad:?} must not parse"
            );
        }
    }

    #[test]
    fn refresh_gate_fires_every_n_calls() {
        let g = RefreshGate::new();
        let fired: Vec<bool> = (0..9).map(|_| g.due(3)).collect();
        assert_eq!(
            fired,
            [true, false, false, true, false, false, true, false, false]
        );
        let g = RefreshGate::new();
        assert!((0..5).all(|_| g.due(1)), "cadence 1 refreshes every call");
        let g = RefreshGate::new();
        assert!(g.due(0), "zero clamps to 1");
        assert!(g.due(0));
    }

    #[test]
    fn leaders_are_first_workers_of_their_node() {
        let topo = MachineTopology::try_new(&[2, 2, 2], 1).unwrap(); // 2 nodes of 4
        let tree = BroadcastTree::new(&topo);
        for w in 0..topo.total_workers() {
            let leader = tree.leader_of(w);
            assert_eq!(topo.node_of(leader), topo.node_of(w));
            assert_eq!(leader % topo.node_size(), 0);
            assert_eq!(tree.is_leader(w), w == leader);
        }
    }

    #[test]
    fn paths_grow_with_distance() {
        // [clusters, nodes, sockets, cores] with node boundary at 2:
        // distances 1–2 intra-node, 3–4 over the fabric.
        let topo = MachineTopology::try_new(&[2, 2, 2, 2], 2).unwrap();
        let tree = BroadcastTree::new(&topo);
        assert_eq!(
            tree.path_by_distance(0),
            BoundPath {
                intra_hops: 0,
                fabric_ring: 0
            }
        );
        assert_eq!(
            tree.path_by_distance(2),
            BoundPath {
                intra_hops: 2,
                fabric_ring: 0
            }
        );
        assert_eq!(
            tree.path_by_distance(3),
            BoundPath {
                intra_hops: 4,
                fabric_ring: 1
            }
        );
        assert_eq!(
            tree.path_by_distance(4),
            BoundPath {
                intra_hops: 4,
                fabric_ring: 2
            }
        );
        assert_eq!(tree.path(0, 1).fabric_ring, 0, "same socket");
        assert_eq!(tree.path(0, 15).fabric_ring, 2, "other cluster");
    }

    #[test]
    fn hierarchical_fanout_beats_eager_on_clusters() {
        // The paper's testbed class: 128 nodes × 4 cores.
        let topo = MachineTopology::try_clustered(512, 4).unwrap();
        let tree = BroadcastTree::new(&topo);
        let h = tree.hierarchical_fanout(5);
        let e = tree.eager_fanout(5);
        assert_eq!(h.fabric_msgs, 127, "one message per remote leader");
        assert_eq!(e.fabric_msgs, 508, "one message per remote worker");
        assert_eq!(h.intra_msgs, 128 * 3);
        assert_eq!(e.intra_msgs, 3);
    }

    #[test]
    fn improvement_msgs_is_the_three_arm_bill() {
        let shapes = [
            MachineTopology::try_new(&[4, 4], 1).unwrap(),
            MachineTopology::try_new(&[2, 2, 2], 1).unwrap(),
            MachineTopology::try_new(&[8, 2, 4], 1).unwrap(),
            MachineTopology::flat(8),
        ];
        for topo in shapes {
            let tree = BroadcastTree::new(&topo);
            for origin in 0..topo.total_workers() {
                // The two matches this function replaced, kept as the oracle.
                assert_eq!(
                    tree.improvement_msgs(BoundPolicy::Immediate, origin),
                    tree.eager_fanout(origin).fabric_msgs
                );
                assert_eq!(
                    tree.improvement_msgs(BoundPolicy::Periodic { every: 32 }, origin),
                    (topo.node_of(origin) != 0) as u64
                );
                assert_eq!(
                    tree.improvement_msgs(BoundPolicy::Hierarchical, origin),
                    tree.hierarchical_fanout(origin).fabric_msgs
                );
            }
        }
    }

    #[test]
    fn flat_machine_has_no_fabric_fanout() {
        let topo = MachineTopology::flat(8);
        let tree = BroadcastTree::new(&topo);
        let h = tree.hierarchical_fanout(0);
        assert_eq!(h.fabric_msgs, 0);
        assert_eq!(h.intra_msgs, 7);
        assert_eq!(tree.eager_fanout(0).fabric_msgs, 0);
        assert_eq!(tree.path(0, 7).fabric_ring, 0);
    }
}
