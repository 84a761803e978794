//! Distance-aware victim ordering with last-steal affinity.

use crate::machine::{MachineTopology, NodeRing, PeerRing, MAX_LEVELS};

/// An indexable set of victim candidates (worker or node IDs). The
/// ordering machinery is generic over this so callers can scan either a
/// materialised `Vec<usize>` (tests, the benchmark's ladder) or an O(1)
/// range view like [`PeerRing`] / [`NodeRing`] (both executions of the
/// steal protocol: materialising per-worker rings would cost O(workers²)
/// memory at 10⁵+ simulated cores).
pub trait Ring {
    fn len(&self) -> usize;
    /// The `i`-th member in ID order (`i < len()`).
    fn get(&self, i: usize) -> usize;
    fn contains(&self, v: usize) -> bool;
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Materialised rings: slices, `Vec`s and references to either.
impl<T: AsRef<[usize]> + ?Sized> Ring for T {
    fn len(&self) -> usize {
        self.as_ref().len()
    }
    fn get(&self, i: usize) -> usize {
        self.as_ref()[i]
    }
    fn contains(&self, v: usize) -> bool {
        self.as_ref().contains(&v)
    }
}

impl Ring for PeerRing {
    #[inline]
    fn len(&self) -> usize {
        PeerRing::len(self)
    }
    #[inline]
    fn get(&self, i: usize) -> usize {
        PeerRing::get(self, i)
    }
    #[inline]
    fn contains(&self, v: usize) -> bool {
        PeerRing::contains(self, v)
    }
}

/// How a thief orders its candidate victims.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ScanOrder {
    /// Level-by-level: all victims at distance 1 (same socket) before
    /// distance 2 (same node) before distance 3 (same cluster) …, with
    /// last-successful-steal affinity inside each ring.
    #[default]
    DistanceAware,
    /// The original flat scan: every co-located peer is equivalent, every
    /// remote node is equivalent — distance is only local vs. remote.
    Flat,
}

impl ScanOrder {
    /// Worker `w`'s `ri`-th local victim ring, nearest level first, as an
    /// O(1) range view (excludes `w`); `None` past the last. One ring per
    /// intra-node level, or — flat scan — a single ring of every
    /// co-located peer. Both executions of the steal protocol scan these
    /// same views; materialising them per worker would cost O(workers²)
    /// memory at 10⁵+ simulated cores.
    #[inline]
    pub fn local_ring(self, topo: &MachineTopology, w: usize, ri: usize) -> Option<PeerRing> {
        match self {
            ScanOrder::DistanceAware => {
                (ri < topo.local_distance_max()).then(|| topo.peers_at(w, ri + 1))
            }
            ScanOrder::Flat => (ri == 0).then(|| PeerRing::hole(topo.peers_of(w), w)),
        }
    }

    /// Worker `w`'s `ri`-th remote *node* ring, nearest first; `None` past
    /// the last. One ring per level above the node boundary, or — flat
    /// scan — a single ring of every other node; a single-node machine
    /// has none under either order.
    #[inline]
    pub fn node_ring(self, topo: &MachineTopology, w: usize, ri: usize) -> Option<NodeRing> {
        match self {
            _ if topo.nodes() <= 1 => None,
            ScanOrder::DistanceAware => (ri < topo.node_prefix())
                .then(|| topo.node_ring_at(w, topo.local_distance_max() + 1 + ri)),
            ScanOrder::Flat => (ri == 0).then(|| NodeRing::hole(0..topo.nodes(), topo.node_of(w))),
        }
    }
}

/// Per-thief victim-ranking state: for each distance ring, the last victim
/// that yielded work (*affinity*). A thief that just stole successfully
/// from `v` retries `v` first next time it reaches `v`'s ring — stolen
/// subtrees keep producing work, and going back to a warm victim skips the
/// scan and (for remote rings) the failed-request round trip.
///
/// Ranking is (distance, affinity, surplus): rings nearest-first, affinity
/// before the rest of a ring, and the caller's surplus estimates break
/// the remaining ties.
#[derive(Clone, Debug)]
pub struct VictimOrder {
    me: usize,
    /// `affinity[d - 1]` = last successful victim at distance `d`, or
    /// [`COLD`]. Held inline: both executions read it once per ring of
    /// every scan, and the simulator keeps one per virtual worker.
    affinity: [u32; MAX_LEVELS],
}

/// "No warm victim at this distance" (never a worker id: `new` refuses
/// machines that large).
const COLD: u32 = u32::MAX;

// The picks (and the ring accessors they call) are `#[inline]` by
// measurement: outlined, the simulator's scan costs +15 % host time an event.
impl VictimOrder {
    pub fn new(topo: &MachineTopology, me: usize) -> Self {
        assert!(
            topo.total_workers() <= COLD as usize,
            "worker ids must fit the inline affinity"
        );
        VictimOrder {
            me,
            affinity: [COLD; MAX_LEVELS],
        }
    }

    #[inline]
    pub fn me(&self) -> usize {
        self.me
    }

    /// The warm victim for distance `d`, if any.
    #[inline]
    pub fn affinity_at(&self, d: usize) -> Option<usize> {
        match self.affinity.get(d.wrapping_sub(1)) {
            Some(&v) if v != COLD => Some(v as usize),
            _ => None,
        }
    }

    /// Record a successful steal from `victim`.
    pub fn record_success(&mut self, topo: &MachineTopology, victim: usize) {
        let d = topo.distance(self.me, victim);
        if d >= 1 {
            self.affinity[d - 1] = victim as u32;
        }
    }

    /// Record a failed steal from `victim`: drop the affinity if it
    /// pointed there (a drained victim must not be pinned).
    pub fn record_failure(&mut self, topo: &MachineTopology, victim: usize) {
        let d = topo.distance(self.me, victim);
        if d >= 1 && self.affinity[d - 1] == victim as u32 {
            self.affinity[d - 1] = COLD;
        }
    }

    /// Rank one ring of candidates: affinity first, then the ring rotated
    /// by `rot` (the caller passes a random rotation to avoid convoys),
    /// affinity not repeated.
    #[inline]
    pub fn ring_order<'a, R: Ring + ?Sized>(
        &self,
        ring: &'a R,
        d: usize,
        rot: usize,
    ) -> impl Iterator<Item = usize> + 'a {
        warm_first(ring, self.affinity_at(d), rot)
    }

    /// Greedy pick over ordered rings: the first candidate (nearest ring,
    /// affinity first) whose `surplus` estimate is non-zero. `rot_for`
    /// supplies the scan start for a ring of the given length (draw it
    /// uniformly per ring — a shared rotation reduced mod ring length
    /// would bias the start). Returns `(victim, inspected)`: the pick and
    /// how many candidates' surplus was read to reach it (what a
    /// simulated thief is charged for).
    #[inline]
    pub fn pick_first<R: Ring>(
        &self,
        rings: impl IntoIterator<Item = R>,
        mut rot_for: impl FnMut(usize) -> usize,
        mut surplus: impl FnMut(usize) -> u64,
    ) -> (Option<usize>, u64) {
        let mut inspected = 0;
        for (i, ring) in rings.into_iter().enumerate() {
            let rot = rot_for(ring.len().max(1));
            for v in self.ring_order(&ring, i + 1, rot) {
                inspected += 1;
                if surplus(v) > 0 {
                    return (Some(v), inspected);
                }
            }
        }
        (None, inspected)
    }

    /// Repeat-free probe order over one ring of remote *nodes*: the node
    /// hosting this ring's affinity victim first, then the ring rotated
    /// by `rot` with the warm node not repeated. Taking `k` candidates
    /// from this probes `k` distinct nodes — a duplicate random draw can
    /// never burn an attempt.
    #[inline]
    pub fn node_probe_order<'a, R: Ring + ?Sized>(
        &self,
        topo: &MachineTopology,
        ring: &'a R,
        d: usize,
        rot: usize,
    ) -> impl Iterator<Item = usize> + 'a {
        warm_first(ring, self.affinity_at(d).map(|w| topo.node_of(w)), rot)
    }

    /// Remote pick over ordered rings of *nodes*: ring by ring (empty
    /// rings skipped), probe up to `attempts` distinct nodes in
    /// [`node_probe_order`](Self::node_probe_order) and settle on the
    /// first node where `best_on(node)` names a worker worth asking.
    /// `rot_for` is drawn once per non-empty ring. Returns
    /// `(victim, probes)` — the pick and how many nodes were scanned.
    #[inline]
    pub fn pick_node<R: Ring>(
        &self,
        topo: &MachineTopology,
        rings: impl IntoIterator<Item = R>,
        attempts: usize,
        mut rot_for: impl FnMut(usize) -> usize,
        mut best_on: impl FnMut(usize) -> Option<usize>,
    ) -> (Option<usize>, u64) {
        let mut probes = 0;
        for (i, ring) in rings.into_iter().enumerate() {
            if ring.is_empty() {
                continue;
            }
            let d = topo.local_distance_max() + 1 + i;
            let rot = rot_for(ring.len());
            for node in self.node_probe_order(topo, &ring, d, rot).take(attempts) {
                probes += 1;
                if let Some(w) = best_on(node) {
                    return (Some(w), probes);
                }
            }
        }
        (None, probes)
    }

    /// Max-surplus pick: inspect every candidate of the nearest non-empty
    /// ring (by surplus) and take the largest; only if a whole ring is dry
    /// move one ring out. Returns `(victim, inspected)` like
    /// [`pick_first`](Self::pick_first).
    #[inline]
    pub fn pick_max<R: Ring>(
        &self,
        rings: impl IntoIterator<Item = R>,
        mut surplus: impl FnMut(usize) -> u64,
    ) -> (Option<usize>, u64) {
        let mut inspected = 0;
        for (i, ring) in rings.into_iter().enumerate() {
            let warm = self.affinity_at(i + 1);
            inspected += ring.len() as u64;
            let best = (0..ring.len())
                .map(|k| ring.get(k))
                .map(|v| (surplus(v), Some(v) == warm, v))
                .filter(|&(s, _, _)| s > 0)
                // Affinity breaks surplus ties.
                .max_by_key(|&(s, warm, _)| (s, warm));
            if let Some((_, _, v)) = best {
                return (Some(v), inspected);
            }
        }
        (None, inspected)
    }
}

/// `warm` (if it is a member of `ring`) first, then the ring from index
/// `rot` round, `warm` not repeated.
fn warm_first<R: Ring + ?Sized>(
    ring: &R,
    warm: Option<usize>,
    rot: usize,
) -> impl Iterator<Item = usize> + '_ {
    let warm = warm.filter(|&w| ring.contains(w));
    let n = ring.len();
    // Callers draw `rot < n`; reduced once here, every index `< 2n` wraps
    // with one subtract instead of a division per candidate.
    let rot = if rot < n { rot } else { rot % n.max(1) };
    warm.into_iter().chain(
        (rot..rot + n)
            .map(move |i| ring.get(if i < n { i } else { i - n }))
            .filter(move |&v| Some(v) != warm),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> MachineTopology {
        // [nodes, sockets, cores] = [2, 2, 2]: worker 0's rings are
        // d=1 {1}, d=2 {2, 3}, d=3 {4..8}.
        MachineTopology::try_new(&[2, 2, 2], 1).unwrap()
    }

    #[test]
    fn affinity_tracks_success_and_failure() {
        let t = topo();
        let mut vo = VictimOrder::new(&t, 0);
        assert_eq!(vo.affinity_at(2), None);
        vo.record_success(&t, 3);
        assert_eq!(vo.affinity_at(2), Some(3));
        assert_eq!(vo.affinity_at(1), None, "other rings untouched");
        vo.record_failure(&t, 2);
        assert_eq!(vo.affinity_at(2), Some(3), "failure elsewhere keeps it");
        vo.record_failure(&t, 3);
        assert_eq!(vo.affinity_at(2), None, "failure on the warm victim clears");
    }

    #[test]
    fn ring_order_puts_affinity_first_without_repeats() {
        let t = topo();
        let mut vo = VictimOrder::new(&t, 0);
        vo.record_success(&t, 6);
        let ring: Vec<usize> = t.peers_at(0, 3).collect();
        let order: Vec<usize> = vo.ring_order(&ring, 3, 1).collect();
        assert_eq!(order[0], 6);
        assert_eq!(order.len(), ring.len());
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, ring);
    }

    #[test]
    fn ring_order_is_the_rotation_it_always_was() {
        for n in 0..=9usize {
            let ring: Vec<usize> = (0..n).map(|i| 10 + 3 * i).collect();
            let mut warms = vec![None, Some(7)]; // 7 is in no ring
            warms.extend(ring.iter().map(|&v| Some(v)));
            for warm in warms {
                let member = warm.filter(|&w| ring.as_slice().contains(&w));
                for rot in 0..(2 * n).max(1) {
                    let want: Vec<usize> = member
                        .into_iter()
                        .chain(
                            (0..n)
                                .map(|k| ring[(rot + k) % n])
                                .filter(|&v| Some(v) != member),
                        )
                        .collect();
                    let got: Vec<usize> = warm_first(&ring, warm, rot).collect();
                    assert_eq!(got, want, "n={n} warm={warm:?} rot={rot}");
                }
            }
        }
    }

    #[test]
    fn pick_first_prefers_near_rings() {
        let t = topo();
        let vo = VictimOrder::new(&t, 0);
        let rings = t.rings(0);
        // Everyone has surplus: nearest ring wins.
        assert_eq!(vo.pick_first(&rings, |_| 0, |_| 1), (Some(1), 1));
        // Only a far worker has surplus: every nearer candidate was read.
        let pick = vo.pick_first(&rings, |_| 0, |w| (w == 5) as u64);
        assert_eq!(pick, (Some(5), 5));
        assert_eq!(vo.pick_first(&rings, |_| 0, |_| 0), (None, 7));
    }

    #[test]
    fn node_probe_order_is_repeat_free_and_warm_first() {
        let t = MachineTopology::try_new(&[2, 2, 2], 2).unwrap(); // 4 nodes of 2
        let mut vo = VictimOrder::new(&t, 0);
        let ring: Vec<usize> = t.node_rings(0)[1].clone(); // nodes {2, 3}
        assert_eq!(ring, vec![2, 3]);
        vo.record_success(&t, 6); // worker 6 lives on node 3, distance 3
        for rot in 0..4 {
            let order: Vec<usize> = vo.node_probe_order(&t, &ring, 3, rot).collect();
            assert_eq!(order[0], 3, "warm node first");
            assert_eq!(order.len(), ring.len(), "every node exactly once");
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, ring);
        }
    }

    #[test]
    fn ring_order_agrees_across_ring_representations() {
        let t = MachineTopology::try_new(&[2, 2, 2, 2], 2).unwrap();
        let mut vo = VictimOrder::new(&t, 3);
        vo.record_success(&t, 9);
        for d in 1..=t.levels() {
            let view = t.peers_at(3, d);
            let slice: Vec<usize> = view.clone().collect();
            for rot in 0..=slice.len() {
                let by_view: Vec<usize> = vo.ring_order(&view, d, rot).collect();
                let by_slice: Vec<usize> = vo.ring_order(slice.as_slice(), d, rot).collect();
                assert_eq!(by_view, by_slice, "d={d} rot={rot}");
            }
        }
        // Node probes too, against the eager node rings.
        for (i, ring) in t.node_rings(3).iter().enumerate() {
            let d = t.local_distance_max() + 1 + i;
            let view = t.node_ring_at(3, d);
            let by_view: Vec<usize> = vo.node_probe_order(&t, &view, d, 1).collect();
            let by_slice: Vec<usize> = vo.node_probe_order(&t, ring.as_slice(), d, 1).collect();
            assert_eq!(by_view, by_slice);
        }
    }

    /// One thief's victim rings materialised the way the threaded runtime
    /// used to build them once per OS thread — the independent reference
    /// the lazy [`ScanOrder`] views are held to.
    fn eager_rings(
        order: ScanOrder,
        topo: &MachineTopology,
        w: usize,
    ) -> (Vec<Vec<usize>>, Vec<Vec<usize>>) {
        match order {
            ScanOrder::DistanceAware => {
                let local = (1..=topo.local_distance_max())
                    .map(|d| topo.peers_at(w, d).collect())
                    .collect();
                (local, topo.node_rings(w))
            }
            ScanOrder::Flat => {
                let local = vec![topo.peers_of(w).filter(|&p| p != w).collect()];
                let me = topo.node_of(w);
                let remote: Vec<usize> = (0..topo.nodes()).filter(|&n| n != me).collect();
                let remote = if remote.is_empty() {
                    Vec::new()
                } else {
                    vec![remote]
                };
                (local, remote)
            }
        }
    }

    fn local_views(
        order: ScanOrder,
        topo: &MachineTopology,
        w: usize,
    ) -> impl Iterator<Item = PeerRing> + '_ {
        (0..).map_while(move |ri| order.local_ring(topo, w, ri))
    }

    fn node_views(
        order: ScanOrder,
        topo: &MachineTopology,
        w: usize,
    ) -> impl Iterator<Item = NodeRing> + '_ {
        (0..).map_while(move |ri| order.node_ring(topo, w, ri))
    }

    fn view_rings(
        order: ScanOrder,
        topo: &MachineTopology,
        w: usize,
    ) -> (Vec<Vec<usize>>, Vec<Vec<usize>>) {
        (
            local_views(order, topo, w).map(|r| r.collect()).collect(),
            node_views(order, topo, w).map(|r| r.collect()).collect(),
        )
    }

    #[test]
    fn scan_order_views_and_picks_match_the_eager_rings() {
        let t = topo();
        let (local, remote) = view_rings(ScanOrder::DistanceAware, &t, 0);
        assert_eq!(local, vec![vec![1], vec![2, 3]]);
        assert_eq!(remote, vec![vec![1]]);
        let (local, remote) = view_rings(ScanOrder::Flat, &t, 0);
        assert_eq!(local, vec![vec![1, 2, 3]]);
        assert_eq!(remote, vec![vec![1]]);
        // No remote nodes → no remote rings under either order.
        let flat1 = MachineTopology::flat(4);
        assert!(view_rings(ScanOrder::Flat, &flat1, 0).1.is_empty());
        assert!(view_rings(ScanOrder::DistanceAware, &flat1, 0).1.is_empty());

        // Every pick returns the same victim and the same inspected /
        // probe count over materialised rings and over the lazy views.
        for (shape, prefix) in [(&[2usize, 2, 2][..], 1), (&[2, 2, 2, 2][..], 2)] {
            let t = MachineTopology::try_new(shape, prefix).unwrap();
            for order in [ScanOrder::DistanceAware, ScanOrder::Flat] {
                for w in 0..t.total_workers() {
                    let (local, remote) = eager_rings(order, &t, w);
                    assert_eq!(view_rings(order, &t, w), (local.clone(), remote.clone()));
                    let mut vo = VictimOrder::new(&t, w);
                    for salt in 0..4usize {
                        let surplus = |v: usize| ((v * 7 + w + salt) % 3) as u64;
                        let greedy = vo.pick_first(&local, |n| salt % n, surplus);
                        let views = local_views(order, &t, w);
                        assert_eq!(greedy, vo.pick_first(views, |n| salt % n, surplus));
                        let max = vo.pick_max(&local, surplus);
                        assert_eq!(max, vo.pick_max(local_views(order, &t, w), surplus));
                        let best_on = |n: usize| {
                            t.workers_on(n)
                                .filter(|&v| surplus(v) > 0)
                                .max_by_key(|&v| surplus(v))
                        };
                        for attempts in 1..=2 {
                            let far = vo.pick_node(&t, &remote, attempts, |n| salt % n, best_on);
                            let views = node_views(order, &t, w);
                            assert_eq!(
                                far,
                                vo.pick_node(&t, views, attempts, |n| salt % n, best_on)
                            );
                        }
                        // Warm the rings so the next round ranks affinity.
                        for v in [greedy.0, max.0].into_iter().flatten() {
                            vo.record_success(&t, v);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn pick_max_takes_largest_in_nearest_nonempty_ring() {
        let t = topo();
        let vo = VictimOrder::new(&t, 0);
        let rings = t.rings(0);
        // Ring d=2 has {2: 5 items, 3: 9 items}; ring d=3 has huge surplus
        // but must not be reached.
        let surplus = |w: usize| match w {
            2 => 5,
            3 => 9,
            4..=7 => 100,
            _ => 0,
        };
        assert_eq!(vo.pick_max(&rings, surplus), (Some(3), 3));
    }

    #[test]
    fn pick_max_breaks_surplus_ties_by_affinity() {
        let t = topo();
        let mut vo = VictimOrder::new(&t, 0);
        let rings = t.rings(0);
        // Workers 2 and 3 (ring d=2) hold equal surplus; 2 is warm.
        vo.record_success(&t, 2);
        assert_eq!(vo.pick_max(&rings, |w| (w >= 2) as u64 * 4).0, Some(2));
        // Without affinity the tie falls to the last of the ring.
        vo.record_failure(&t, 2);
        assert_eq!(vo.pick_max(&rings, |w| (w >= 2) as u64 * 4).0, Some(3));
        // A strictly larger pool still beats the warm one.
        vo.record_success(&t, 2);
        assert_eq!(vo.pick_max(&rings, |w| [0, 0, 4, 5][w.min(3)]).0, Some(3));
    }
}
