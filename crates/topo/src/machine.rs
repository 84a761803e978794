//! The N-level machine model: shapes, coordinates, distances, rings.

use std::fmt;
use std::ops::Range;

/// Upper bound on topology depth. Eight levels is already far deeper than
/// any machine hierarchy in the paper's class (core → socket → node →
/// rack → cluster is five); the bound keeps per-distance arrays fixed-size
/// in the hot stats paths.
pub const MAX_LEVELS: usize = 8;

/// Why a shape cannot describe a machine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TopoError {
    /// A topology needs at least one level.
    EmptyShape,
    /// A level with zero members makes every group below it empty.
    ZeroExtent { level: usize },
    /// More than [`MAX_LEVELS`] levels.
    TooManyLevels { got: usize },
    /// The worker count overflows `usize` (or is absurdly large).
    TooManyWorkers,
    /// `node_prefix` must be at most the number of levels.
    NodePrefixOutOfRange { node_prefix: usize, levels: usize },
    /// `clustered(total, cores_per_node)` needs `total` divisible by the
    /// node size.
    NotDivisible { total: usize, cores_per_node: usize },
    /// Topology detection could not read a sysfs file or directory.
    SysfsRead { path: String },
    /// Topology detection read a sysfs file it could not make sense of.
    SysfsParse { path: String, value: String },
    /// The detected core layout is not a uniform mixed-radix shape
    /// (e.g. sockets with differing core counts).
    IrregularLayout { detail: String },
    /// The sysfs tree lists no CPUs at all.
    NoCpus,
}

impl fmt::Display for TopoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopoError::EmptyShape => write!(f, "topology shape is empty (need >= 1 level)"),
            TopoError::ZeroExtent { level } => {
                write!(f, "topology level {level} has zero members")
            }
            TopoError::TooManyLevels { got } => {
                write!(f, "topology has {got} levels (maximum {MAX_LEVELS})")
            }
            TopoError::TooManyWorkers => write!(f, "topology worker count overflows"),
            TopoError::NodePrefixOutOfRange {
                node_prefix,
                levels,
            } => write!(
                f,
                "node prefix {node_prefix} out of range for a {levels}-level shape"
            ),
            TopoError::NotDivisible {
                total,
                cores_per_node,
            } => write!(
                f,
                "worker count {total} not a multiple of node size {cores_per_node}"
            ),
            TopoError::SysfsRead { path } => write!(f, "cannot read sysfs entry {path}"),
            TopoError::SysfsParse { path, value } => {
                write!(f, "cannot parse sysfs entry {path}: {value:?}")
            }
            TopoError::IrregularLayout { detail } => {
                write!(f, "machine layout is not mixed-radix: {detail}")
            }
            TopoError::NoCpus => write!(f, "sysfs tree lists no CPUs"),
        }
    }
}

impl std::error::Error for TopoError {}

/// An N-level machine: a mixed-radix shape (outermost level first) with
/// dense worker IDs and a designated shared-memory (`node`) boundary.
///
/// See the crate docs for the level model and the distance metric.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MachineTopology {
    /// Extent of each level, outermost first.
    shape: Vec<usize>,
    /// The outermost `node_prefix` levels identify a shared-memory node.
    node_prefix: usize,
    /// `sizes[p]` = workers per group with a fixed `p`-long coordinate
    /// prefix; `sizes[0] == total`, `sizes[levels] == 1`.
    sizes: Vec<usize>,
}

impl MachineTopology {
    /// Build a machine from its level shape (outermost first) and the
    /// number of outer levels that identify a shared-memory node.
    pub fn try_new(shape: &[usize], node_prefix: usize) -> Result<Self, TopoError> {
        if shape.is_empty() {
            return Err(TopoError::EmptyShape);
        }
        if shape.len() > MAX_LEVELS {
            return Err(TopoError::TooManyLevels { got: shape.len() });
        }
        if let Some(level) = shape.iter().position(|&e| e == 0) {
            return Err(TopoError::ZeroExtent { level });
        }
        if node_prefix > shape.len() {
            return Err(TopoError::NodePrefixOutOfRange {
                node_prefix,
                levels: shape.len(),
            });
        }
        // Suffix products: sizes[p] = Π shape[p..].
        let mut sizes = vec![1usize; shape.len() + 1];
        for p in (0..shape.len()).rev() {
            sizes[p] = sizes[p + 1]
                .checked_mul(shape[p])
                .ok_or(TopoError::TooManyWorkers)?;
        }
        Ok(MachineTopology {
            shape: shape.to_vec(),
            node_prefix,
            sizes,
        })
    }

    /// One flat shared-memory machine of `n` workers (1 level, everything
    /// local).
    pub fn flat(n: usize) -> Self {
        MachineTopology::try_new(&[n], 0).expect("flat topology")
    }

    /// The classic 2-level cluster: `nodes` shared-memory nodes of
    /// `cores_per_node` workers.
    pub fn try_two_level(nodes: usize, cores_per_node: usize) -> Result<Self, TopoError> {
        MachineTopology::try_new(&[nodes, cores_per_node], 1)
    }

    /// Split `total` workers into 2-level nodes of `cores_per_node`.
    pub fn try_clustered(total: usize, cores_per_node: usize) -> Result<Self, TopoError> {
        if cores_per_node == 0 {
            return Err(TopoError::ZeroExtent { level: 1 });
        }
        if total == 0 {
            return Err(TopoError::ZeroExtent { level: 0 });
        }
        if !total.is_multiple_of(cores_per_node) {
            return Err(TopoError::NotDivisible {
                total,
                cores_per_node,
            });
        }
        MachineTopology::try_two_level(total / cores_per_node, cores_per_node)
    }

    /// Panicking shorthand for [`MachineTopology::try_clustered`] — the
    /// paper's testbed shape (4 cores a node) at whatever scale.
    pub fn clustered(total: usize, cores_per_node: usize) -> Self {
        match MachineTopology::try_clustered(total, cores_per_node) {
            Ok(t) => t,
            Err(e) => panic!("{e}"),
        }
    }

    // ----- shape accessors --------------------------------------------------

    #[inline]
    pub fn levels(&self) -> usize {
        self.shape.len()
    }

    #[inline]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    #[inline]
    pub fn node_prefix(&self) -> usize {
        self.node_prefix
    }

    #[inline]
    pub fn total_workers(&self) -> usize {
        self.sizes[0]
    }

    /// The maximum possible distance between two workers (= levels).
    #[inline]
    pub fn max_distance(&self) -> usize {
        self.levels()
    }

    /// Distances `1..=local_distance_max()` stay inside one shared-memory
    /// node; larger ones cross the interconnect.
    #[inline]
    pub fn local_distance_max(&self) -> usize {
        self.levels() - self.node_prefix
    }

    /// Workers per group with a `p`-long coordinate prefix.
    #[inline]
    pub fn group_size(&self, prefix_len: usize) -> usize {
        self.sizes[prefix_len]
    }

    /// Flattened index of `w`'s group at prefix length `p` (0 = the whole
    /// machine).
    #[inline]
    pub fn group_index(&self, w: usize, prefix_len: usize) -> usize {
        debug_assert!(w < self.total_workers());
        w / self.sizes[prefix_len]
    }

    /// The contiguous worker range sharing `w`'s `p`-long prefix
    /// (including `w`).
    #[inline]
    pub fn group_range(&self, w: usize, prefix_len: usize) -> Range<usize> {
        let size = self.sizes[prefix_len];
        let start = (w / size) * size;
        start..start + size
    }

    /// Coordinate of `w` at one level (0 = outermost).
    #[inline]
    pub fn coord(&self, w: usize, level: usize) -> usize {
        debug_assert!(w < self.total_workers());
        (w / self.sizes[level + 1]) % self.shape[level]
    }

    /// All coordinates of `w`, outermost first.
    pub fn coords(&self, w: usize) -> Vec<usize> {
        (0..self.levels()).map(|l| self.coord(w, l)).collect()
    }

    /// Worker ID from coordinates (outermost first). Inverse of
    /// [`coords`](Self::coords).
    pub fn worker_at(&self, coords: &[usize]) -> usize {
        debug_assert_eq!(coords.len(), self.levels());
        coords
            .iter()
            .zip(self.sizes[1..].iter())
            .map(|(&c, &s)| c * s)
            .sum()
    }

    // ----- the distance metric ----------------------------------------------

    /// Topological distance: the number of levels (from the innermost)
    /// separating `a` and `b` from their lowest common ancestor. `0` iff
    /// `a == b`; at most [`levels`](Self::levels).
    #[inline]
    pub fn distance(&self, a: usize, b: usize) -> usize {
        debug_assert!(a < self.total_workers() && b < self.total_workers());
        // First level (outermost-first) whose group differs; ≤ MAX_LEVELS
        // iterations.
        for q in 0..self.levels() {
            if a / self.sizes[q + 1] != b / self.sizes[q + 1] {
                return self.levels() - q;
            }
        }
        0
    }

    /// Are `a` and `b` in the same shared-memory node?
    #[inline]
    pub fn is_local(&self, a: usize, b: usize) -> bool {
        a / self.sizes[self.node_prefix] == b / self.sizes[self.node_prefix]
    }

    // ----- node (shared-memory domain) view ---------------------------------

    /// Number of shared-memory nodes.
    #[inline]
    pub fn nodes(&self) -> usize {
        self.total_workers() / self.sizes[self.node_prefix]
    }

    /// Workers per node.
    #[inline]
    pub fn node_size(&self) -> usize {
        self.sizes[self.node_prefix]
    }

    /// Node hosting worker `w`.
    #[inline]
    pub fn node_of(&self, w: usize) -> usize {
        self.group_index(w, self.node_prefix)
    }

    /// Workers on node `n` (contiguous, including any caller on `n`).
    #[inline]
    pub fn workers_on(&self, n: usize) -> Range<usize> {
        debug_assert!(n < self.nodes());
        let size = self.node_size();
        n * size..(n + 1) * size
    }

    /// Workers co-located with `w`, *including* `w` itself.
    #[inline]
    pub fn peers_of(&self, w: usize) -> Range<usize> {
        self.group_range(w, self.node_prefix)
    }

    // ----- rings ------------------------------------------------------------

    /// The ring of workers at distance exactly `d` from `w`
    /// (`1 <= d <= levels`): the group at prefix `levels - d` minus the
    /// group at prefix `levels - d + 1`, i.e. two contiguous ID ranges.
    #[inline]
    pub fn peers_at(&self, w: usize, d: usize) -> PeerRing {
        debug_assert!(d >= 1 && d <= self.levels());
        let outer = self.group_range(w, self.levels() - d);
        let inner = self.group_range(w, self.levels() - d + 1);
        PeerRing {
            before: outer.start..inner.start,
            after: inner.end..outer.end,
        }
    }

    /// Per-distance victim rings for `w`, nearest first: element `i` holds
    /// the workers at distance `i + 1`, in ID order. Rings partition
    /// `0..total \ {w}`; empty rings (levels of extent 1) are kept so ring
    /// index and distance stay aligned.
    pub fn rings(&self, w: usize) -> Vec<Vec<usize>> {
        (1..=self.levels())
            .map(|d| self.peers_at(w, d).collect())
            .collect()
    }

    /// Remote *nodes* grouped by their distance from `w`, nearest ring
    /// first. Element `i` holds the nodes whose workers are at distance
    /// `local_distance_max() + 1 + i` from `w`. Every worker of a node is
    /// equidistant from `w` (they differ from `w` above the node
    /// boundary), so "node distance" is well defined.
    pub fn node_rings(&self, w: usize) -> Vec<Vec<usize>> {
        let node_size = self.node_size();
        (self.local_distance_max() + 1..=self.levels())
            .map(|d| {
                let ring = self.peers_at(w, d);
                let (before, after) = (ring.before, ring.after);
                before
                    .step_by(node_size.max(1))
                    .chain(after.step_by(node_size.max(1)))
                    .map(|first| first / node_size)
                    .collect()
            })
            .collect()
    }

    /// The ring of remote *nodes* at worker distance exactly `d` from `w`
    /// (`local_distance_max() < d <= levels`), as an O(1) view — the
    /// node-ID image of [`peers_at`](Self::peers_at). Above the node
    /// boundary every group is a whole number of nodes, so the two worker
    /// ranges map to two node ranges.
    #[inline]
    pub fn node_ring_at(&self, w: usize, d: usize) -> NodeRing {
        debug_assert!(d > self.local_distance_max() && d <= self.levels());
        let ns = self.node_size().max(1);
        let ring = self.peers_at(w, d);
        NodeRing {
            before: ring.before.start / ns..ring.before.end / ns,
            after: ring.after.start / ns..ring.after.end / ns,
        }
    }
}

impl fmt::Display for MachineTopology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let dims: Vec<String> = self.shape.iter().map(|e| e.to_string()).collect();
        write!(f, "{}", dims.join("x"))?;
        write!(f, " (node prefix {})", self.node_prefix)
    }
}

/// O(1) view of (and iterator over) a distance ring: the two contiguous
/// ID ranges on either side of the excluded inner group.
#[derive(Clone, Debug)]
pub struct PeerRing {
    pub(crate) before: Range<usize>,
    pub(crate) after: Range<usize>,
}

impl PeerRing {
    /// The ring `range \ {hole}`: every ID in a contiguous range except
    /// one. This is the *flat* scan — all co-located peers of a worker, or
    /// every node but the caller's own, in one ring — expressed without
    /// materialising it.
    #[inline]
    pub fn hole(range: Range<usize>, hole: usize) -> PeerRing {
        debug_assert!(range.contains(&hole));
        PeerRing {
            before: range.start..hole,
            after: hole + 1..range.end,
        }
    }

    /// Number of IDs in the ring.
    #[inline]
    pub fn len(&self) -> usize {
        (self.before.end - self.before.start) + (self.after.end - self.after.start)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th member of the ring (ID order), for rotation-based scans
    /// without materialising the ring.
    #[inline]
    pub fn get(&self, i: usize) -> usize {
        let nb = self.before.end - self.before.start;
        if i < nb {
            self.before.start + i
        } else {
            self.after.start + (i - nb)
        }
    }

    /// O(1) membership test.
    #[inline]
    pub fn contains(&self, w: usize) -> bool {
        self.before.contains(&w) || self.after.contains(&w)
    }
}

impl Iterator for PeerRing {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        self.before.next().or_else(|| self.after.next())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.len();
        (n, Some(n))
    }
}

impl ExactSizeIterator for PeerRing {}

/// O(1) view of a ring of remote *node* IDs: the same two-range shape as
/// a ring of workers, one level up (see
/// [`MachineTopology::node_ring_at`]).
pub type NodeRing = PeerRing;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_testbed_shape() {
        let t = MachineTopology::try_clustered(512, 4).unwrap();
        assert_eq!(t.levels(), 2);
        assert_eq!(t.nodes(), 128);
        assert_eq!(t.total_workers(), 512);
        assert_eq!(t.node_of(0), 0);
        assert_eq!(t.node_of(3), 0);
        assert_eq!(t.node_of(4), 1);
        assert_eq!(t.node_of(511), 127);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn clustered_requires_divisibility() {
        let _ = MachineTopology::clustered(10, 4);
    }

    #[test]
    fn four_level_distances() {
        // [clusters, nodes, sockets, cores] = [2, 2, 2, 2]; nodes are the
        // outer two levels.
        let t = MachineTopology::try_new(&[2, 2, 2, 2], 2).unwrap();
        assert_eq!(t.total_workers(), 16);
        assert_eq!(t.distance(0, 0), 0);
        assert_eq!(t.distance(0, 1), 1, "same socket");
        assert_eq!(t.distance(0, 2), 2, "other socket, same node");
        assert_eq!(t.distance(0, 4), 3, "other node, same cluster");
        assert_eq!(t.distance(0, 8), 4, "other cluster");
        assert_eq!(t.local_distance_max(), 2);
        assert!(t.is_local(0, 3));
        assert!(!t.is_local(0, 4));
        assert_eq!(t.nodes(), 4);
        assert_eq!(t.node_size(), 4);
    }

    #[test]
    fn rings_partition_the_machine() {
        let t = MachineTopology::try_new(&[2, 3, 2], 1).unwrap();
        for w in 0..t.total_workers() {
            let mut seen = vec![false; t.total_workers()];
            seen[w] = true;
            for d in 1..=t.levels() {
                for p in t.peers_at(w, d) {
                    assert_eq!(t.distance(w, p), d);
                    assert!(!seen[p], "worker {p} appears in two rings");
                    seen[p] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "rings must cover everyone");
        }
    }

    #[test]
    fn node_rings_list_remote_nodes_by_distance() {
        let t = MachineTopology::try_new(&[4, 2], 1).unwrap(); // 4 nodes of 2
        let rings = t.node_rings(0);
        assert_eq!(rings.len(), 1, "one level above the node = one ring");
        assert_eq!(rings[0], vec![1, 2, 3]);

        let t = MachineTopology::try_new(&[2, 2, 2], 2).unwrap(); // clusters of nodes
        let rings = t.node_rings(0);
        assert_eq!(rings, vec![vec![1], vec![2, 3]]);
    }

    #[test]
    fn flat_machine_is_all_local() {
        let t = MachineTopology::flat(8);
        assert_eq!(t.nodes(), 1);
        assert!(t.is_local(0, 7));
        assert_eq!(t.distance(0, 7), 1);
        assert_eq!(t.local_distance_max(), 1);
        assert!(t.node_rings(0).is_empty());
    }

    #[test]
    fn coords_roundtrip() {
        let t = MachineTopology::try_new(&[3, 2, 4], 1).unwrap();
        for w in 0..t.total_workers() {
            assert_eq!(t.worker_at(&t.coords(w)), w);
        }
        assert_eq!(t.coords(13), vec![1, 1, 1]); // 13 = 1*8 + 1*4 + 1
    }

    #[test]
    fn constructor_errors_are_descriptive() {
        assert_eq!(MachineTopology::try_new(&[], 0), Err(TopoError::EmptyShape));
        assert_eq!(
            MachineTopology::try_new(&[2, 0, 2], 1),
            Err(TopoError::ZeroExtent { level: 1 })
        );
        assert_eq!(
            MachineTopology::try_new(&[2; 9], 1),
            Err(TopoError::TooManyLevels { got: 9 })
        );
        assert_eq!(
            MachineTopology::try_new(&[2, 2], 3),
            Err(TopoError::NodePrefixOutOfRange {
                node_prefix: 3,
                levels: 2
            })
        );
        assert_eq!(
            MachineTopology::try_clustered(10, 4),
            Err(TopoError::NotDivisible {
                total: 10,
                cores_per_node: 4
            })
        );
        let msg = MachineTopology::try_clustered(10, 4)
            .unwrap_err()
            .to_string();
        assert!(msg.contains("10") && msg.contains("4"), "{msg}");
    }

    #[test]
    fn node_ring_at_matches_node_rings() {
        for (shape, prefix) in [
            (vec![4usize, 2], 1usize),
            (vec![2, 2, 2], 2),
            (vec![3, 2, 4, 2], 2),
            (vec![2, 3, 2, 2, 2], 3),
        ] {
            let t = MachineTopology::try_new(&shape, prefix).unwrap();
            for w in (0..t.total_workers()).step_by(3) {
                let eager = t.node_rings(w);
                for (i, ring) in eager.iter().enumerate() {
                    let d = t.local_distance_max() + 1 + i;
                    let view = t.node_ring_at(w, d);
                    assert_eq!(view.len(), ring.len());
                    let got: Vec<usize> = view.clone().collect();
                    assert_eq!(&got, ring, "w={w} d={d}");
                    for (k, &n) in ring.iter().enumerate() {
                        assert_eq!(view.get(k), n);
                        assert!(view.contains(n));
                    }
                    assert!(!view.contains(t.node_of(w)));
                }
            }
        }
    }

    #[test]
    fn hole_rings_skip_exactly_the_hole() {
        let peers = PeerRing::hole(4..9, 6);
        assert_eq!(peers.clone().collect::<Vec<_>>(), vec![4, 5, 7, 8]);
        assert_eq!(peers.len(), 4);
        assert!(peers.contains(5) && !peers.contains(6));
        assert_eq!(peers.get(2), 7);
        let nodes = NodeRing::hole(0..4, 0);
        assert_eq!(nodes.clone().collect::<Vec<_>>(), vec![1, 2, 3]);
        assert!(!nodes.contains(0));
    }

    #[test]
    fn ring_get_matches_iteration() {
        let t = MachineTopology::try_new(&[2, 2, 2], 1).unwrap();
        for d in 1..=3 {
            let ring = t.peers_at(5, d);
            let n = ring.len();
            let by_iter: Vec<usize> = ring.clone().collect();
            let by_get: Vec<usize> = (0..n).map(|i| ring.get(i)).collect();
            assert_eq!(by_iter, by_get);
        }
    }
}
