//! Seeded randomised tests (in-repo proptest substitute) for the topology
//! index math: coordinate/ID roundtrips, distance metric laws, ring
//! partitions and node bookkeeping across random level shapes, including
//! degenerate 1-level and deep 4-level machines.

use macs_topo::{MachineTopology, VictimOrder, MAX_LEVELS};

/// SplitMix64 — the same deterministic stream the runtime uses.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// A random machine: 1–4 levels, extents 1–5 (extent-1 levels exercise
/// empty rings), random node prefix.
fn random_topo(rng: &mut Rng) -> MachineTopology {
    let levels = 1 + rng.below(4);
    let shape: Vec<usize> = (0..levels).map(|_| 1 + rng.below(5)).collect();
    let node_prefix = rng.below(levels + 1);
    MachineTopology::try_new(&shape, node_prefix).unwrap()
}

#[test]
fn coords_roundtrip_and_group_math() {
    let mut rng = Rng(0xC0047);
    for _ in 0..200 {
        let t = random_topo(&mut rng);
        let total: usize = t.shape().iter().product();
        assert_eq!(t.total_workers(), total);
        for _ in 0..32 {
            let w = rng.below(total);
            let c = t.coords(w);
            assert_eq!(c.len(), t.levels());
            for (l, &cl) in c.iter().enumerate() {
                assert!(cl < t.shape()[l], "coord within extent");
                assert_eq!(t.coord(w, l), cl);
            }
            assert_eq!(t.worker_at(&c), w, "coords → id roundtrip");
            for p in 0..=t.levels() {
                let r = t.group_range(w, p);
                assert!(r.contains(&w), "group range contains its member");
                assert_eq!(r.len(), t.group_size(p));
                assert_eq!(r.start / t.group_size(p), t.group_index(w, p));
            }
        }
    }
}

#[test]
fn distance_metric_laws() {
    let mut rng = Rng(0xD157);
    for _ in 0..200 {
        let t = random_topo(&mut rng);
        let total = t.total_workers();
        for _ in 0..48 {
            let a = rng.below(total);
            let b = rng.below(total);
            let d = t.distance(a, b);
            assert_eq!(d, t.distance(b, a), "symmetry");
            assert_eq!(d == 0, a == b, "identity");
            assert!(d <= t.levels(), "bounded by depth");
            // Definitional check against coordinates: levels − common
            // prefix length.
            let (ca, cb) = (t.coords(a), t.coords(b));
            let common = ca.iter().zip(&cb).take_while(|(x, y)| x == y).count();
            assert_eq!(d, t.levels() - common);
            // Locality ⇔ distance within the node.
            assert_eq!(t.is_local(a, b), d <= t.local_distance_max());
            // Triangle inequality under the ultrametric (max) form.
            let c = rng.below(total);
            assert!(t.distance(a, c) <= d.max(t.distance(b, c)), "ultrametric");
        }
    }
}

#[test]
fn rings_partition_and_match_distances() {
    let mut rng = Rng(0x417);
    for _ in 0..120 {
        let t = random_topo(&mut rng);
        let total = t.total_workers();
        let w = rng.below(total);
        let rings = t.rings(w);
        assert_eq!(rings.len(), t.levels());
        let mut seen = vec![0u32; total];
        seen[w] += 1;
        for (i, ring) in rings.iter().enumerate() {
            assert_eq!(ring.len(), t.peers_at(w, i + 1).len());
            for &p in ring {
                assert_eq!(t.distance(w, p), i + 1, "ring index = distance");
                seen[p] += 1;
            }
        }
        assert!(
            seen.iter().all(|&s| s == 1),
            "rings + self partition 0..total exactly once"
        );
    }
}

#[test]
fn node_bookkeeping_is_consistent() {
    let mut rng = Rng(0x20DE);
    for _ in 0..120 {
        let t = random_topo(&mut rng);
        let total = t.total_workers();
        assert_eq!(t.nodes() * t.node_size(), total);
        for _ in 0..24 {
            let w = rng.below(total);
            let n = t.node_of(w);
            assert!(n < t.nodes());
            assert!(t.workers_on(n).contains(&w), "workers_on(node_of(w)) ∋ w");
            assert_eq!(t.peers_of(w), t.workers_on(n));
            for p in t.peers_of(w) {
                assert!(t.is_local(w, p));
                assert_eq!(t.node_of(p), n);
            }
        }
        // Remote node rings cover every other node exactly once, at the
        // right distance.
        let w = rng.below(total);
        let mut node_seen = vec![0u32; t.nodes()];
        node_seen[t.node_of(w)] += 1;
        for (i, ring) in t.node_rings(w).iter().enumerate() {
            let d = t.local_distance_max() + 1 + i;
            for &n in ring {
                node_seen[n] += 1;
                let first = t.workers_on(n).start;
                assert_eq!(t.distance(w, first), d, "node ring distance");
                assert!(!t.is_local(w, first));
            }
        }
        assert!(
            node_seen.iter().all(|&s| s == 1),
            "node rings partition the remote nodes"
        );
    }
}

#[test]
fn degenerate_shapes() {
    // 1-level, 1 worker: no rings, no peers, no distance.
    let t = MachineTopology::flat(1);
    assert_eq!(t.total_workers(), 1);
    assert_eq!(t.rings(0), vec![Vec::<usize>::new()]);
    assert!(t.node_rings(0).is_empty());

    // All-extent-1 deep machine: one worker, every ring empty.
    let t = MachineTopology::try_new(&[1, 1, 1, 1], 2).unwrap();
    assert_eq!(t.total_workers(), 1);
    assert!(t.rings(0).iter().all(|r| r.is_empty()));

    // node_prefix == levels: every worker is its own node.
    let t = MachineTopology::try_new(&[3, 2], 2).unwrap();
    assert_eq!(t.nodes(), 6);
    assert_eq!(t.node_size(), 1);
    assert!(!t.is_local(0, 1));
    assert_eq!(t.local_distance_max(), 0);
    assert_eq!(t.peers_of(4).len(), 1);

    // Deepest allowed machine builds.
    let t = MachineTopology::try_new(&[2; MAX_LEVELS], 3).unwrap();
    assert_eq!(t.total_workers(), 256);
    assert_eq!(t.distance(0, 255), MAX_LEVELS);
}

#[test]
fn victim_order_ranks_are_lawful_on_random_machines() {
    let mut rng = Rng(0x5BEEF);
    for _ in 0..80 {
        let t = random_topo(&mut rng);
        let total = t.total_workers();
        if total < 2 {
            continue;
        }
        let me = rng.below(total);
        let mut vo = VictimOrder::new(&t, me);
        let rings = t.rings(me);

        // A pick never returns me, and always a worker with surplus.
        let loaded: Vec<u64> = (0..total).map(|_| rng.next() % 3).collect();
        let (pick, inspected) = vo.pick_first(&rings, |n| rng.below(n), |w| loaded[w]);
        assert!(inspected < total as u64, "a scan never reads me");
        if let Some(v) = pick {
            let d = t.distance(me, v);
            assert_ne!(v, me);
            assert!(loaded[v] > 0);
            // Nothing with surplus sits strictly nearer.
            for (u, &l) in loaded.iter().enumerate() {
                if u != me && l > 0 {
                    assert!(t.distance(me, u) >= d, "nearer loaded victim missed");
                }
            }
            vo.record_success(&t, v);
            assert_eq!(vo.affinity_at(d), Some(v));
            // Affinity victim is ranked first within its ring.
            let order: Vec<usize> = vo.ring_order(&rings[d - 1], d, rng.below(total)).collect();
            assert_eq!(order.first(), Some(&v));
            vo.record_failure(&t, v);
            assert_eq!(vo.affinity_at(d), None);
        } else {
            assert!(
                (0..total).all(|w| w == me || loaded[w] == 0),
                "pick_first must find any loaded victim"
            );
        }

        // pick_max picks the max of the nearest non-empty ring.
        if let (Some(v), _) = vo.pick_max(&rings, |w| loaded[w]) {
            let d = t.distance(me, v);
            assert!(loaded[v] > 0);
            for &u in &rings[d - 1] {
                assert!(loaded[u] <= loaded[v], "not the ring maximum");
            }
        }
    }
}
