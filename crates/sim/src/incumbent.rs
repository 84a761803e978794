//! Branch-and-bound incumbent with virtual-time dissemination delay.
//!
//! The fabric replays one of the three [`BoundPolicy`] variants in virtual
//! time:
//!
//! * `Immediate` — the original flat model: an improvement becomes visible
//!   to every other worker after one uniform delay (the eager broadcast
//!   the paper calls unrealistically cheap at scale), billed at one fabric
//!   message per off-node worker;
//! * `Periodic { every }` — the value travels like `Immediate`, but each
//!   worker reads a *cached* copy refreshed every `every` processed nodes
//!   (one fabric pull per off-node refresh);
//! * `Hierarchical` — the value climbs the node-leader broadcast tree
//!   ([`BroadcastTree`]): per-level intra-node hops priced at
//!   `cross_level_ns`, one leader-to-leader fabric hop priced by remote
//!   ring (`remote_latency × level_hop_factor^(ring−1)`), so delivery
//!   delay is monotone in [`MachineTopology::distance`] — and the message
//!   bill drops to one per remote *leader*.
//!
//! Stale bounds are sound (they only prune less); the fabric additionally
//! counts how many node expansions ran under a bound worse than the best
//! value already submitted — the "wasted work" axis of the
//! `bound_ablation` trade-off.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use macs_runtime::{Incumbent, MachineTopology};
use macs_search::{BoundPolicy, BroadcastTree, RefreshGate};

use crate::cost::CostModel;

/// One submitted improvement: virtual submission instant, submitting
/// worker, value. Values are strictly decreasing along the list.
type BoundEvent = (u64, usize, i64);

/// The shared bound-dissemination fabric of one simulation: every
/// improvement ever submitted, plus the policy machinery that decides when
/// each virtual worker gets to see it.
pub struct BoundFabric {
    tree: BroadcastTree,
    policy: BoundPolicy,
    /// Uniform one-way delay of the flat (`Immediate`/`Periodic`) model.
    flat_delay_ns: u64,
    /// Per-level prices of the hierarchical path (`cross_level_ns`,
    /// `remote_latency_for`).
    costs: CostModel,
    events: RefCell<Vec<BoundEvent>>,
    /// Fabric messages spent disseminating bounds (broadcasts + pulls).
    msgs: Cell<u64>,
    /// Improvements accepted.
    updates: Cell<u64>,
}

impl BoundFabric {
    pub fn new(
        topo: &MachineTopology,
        policy: BoundPolicy,
        flat_delay_ns: u64,
        costs: &CostModel,
    ) -> Self {
        BoundFabric {
            tree: BroadcastTree::new(topo),
            policy,
            flat_delay_ns,
            costs: *costs,
            events: RefCell::new(Vec::new()),
            msgs: Cell::new(0),
            updates: Cell::new(0),
        }
    }

    pub fn policy(&self) -> BoundPolicy {
        self.policy
    }

    /// Fabric messages charged to bound dissemination so far.
    pub fn messages(&self) -> u64 {
        self.msgs.get()
    }

    /// Improvements accepted so far.
    pub fn updates(&self) -> u64 {
        self.updates.get()
    }

    /// Best value submitted so far regardless of visibility.
    pub fn global_min(&self) -> i64 {
        self.events
            .borrow()
            .last()
            .map(|&(_, _, v)| v)
            .unwrap_or(i64::MAX)
    }

    /// Best value *submitted* at or before `t` (what a zero-delay fabric
    /// would show) — the reference stale-bound expansions are counted
    /// against.
    pub fn submitted_min(&self, t: u64) -> i64 {
        let ev = self.events.borrow();
        // Newest-first: submission times are non-decreasing.
        for &(at, _, v) in ev.iter().rev() {
            if at <= t {
                return v;
            }
        }
        i64::MAX
    }

    /// One-way dissemination delay from `origin` to `dest` under the
    /// fabric's policy.
    pub fn delay_ns(&self, origin: usize, dest: usize) -> u64 {
        if origin == dest {
            return 0;
        }
        match self.policy {
            BoundPolicy::Immediate | BoundPolicy::Periodic { .. } => self.flat_delay_ns,
            BoundPolicy::Hierarchical => {
                let path = self.tree.path(origin, dest);
                let intra = self.costs.cross_level_ns * path.intra_hops as u64;
                let fabric = if path.fabric_ring == 0 {
                    0
                } else {
                    self.costs.remote_latency_for(path.fabric_ring)
                };
                intra + fabric
            }
        }
    }

    /// Best value visible to `dest` at time `t`.
    pub fn visible_to(&self, dest: usize, t: u64) -> i64 {
        let ev = self.events.borrow();
        let mut best = i64::MAX;
        // Values decrease along the list, so scan newest-first and stop at
        // the first delivered event — everything older is worse.
        for &(at, origin, v) in ev.iter().rev() {
            if at.saturating_add(self.delay_ns(origin, dest)) <= t {
                best = v;
                break;
            }
        }
        best
    }

    /// Submit an improvement from `origin` at virtual time `t`; bills the
    /// policy's broadcast fan-out. Returns `true` iff it strictly improved
    /// the best submitted value.
    fn submit(&self, origin: usize, t: u64, value: i64) -> bool {
        let mut ev = self.events.borrow_mut();
        if ev.last().map(|&(_, _, v)| value < v).unwrap_or(true) {
            // Submission instants must stay monotone for submitted_min's
            // newest-first scan.
            let at = ev.last().map(|&(a, _, _)| a.max(t)).unwrap_or(t);
            ev.push((at, origin, value));
            self.updates.set(self.updates.get() + 1);
            let bill = self.tree.improvement_msgs(self.policy, origin);
            self.msgs.set(self.msgs.get() + bill);
            true
        } else {
            false
        }
    }

    /// Bill one fabric pull (a periodic refresh crossing the fabric).
    fn charge_pull(&self, reader: usize) {
        if self.tree.topology().node_of(reader) != 0 {
            self.msgs.set(self.msgs.get() + 1);
        }
    }
}

impl std::fmt::Debug for BoundFabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BoundFabric")
            .field("policy", &self.policy)
            .field("events", &self.events.borrow().len())
            .field("msgs", &self.msgs.get())
            .finish()
    }
}

/// Per-virtual-worker incumbent handle. `now` is advanced by the simulator
/// before each `process()` call; the worker sees the global value delayed
/// by the fabric (and, under `Periodic`, by its own refresh cadence), plus
/// its own submissions immediately.
pub struct SimIncumbent {
    fabric: Rc<BoundFabric>,
    me: usize,
    now: Cell<u64>,
    own: Cell<i64>,
    /// Periodic policy: the cached copy and its refresh cadence.
    cache: Cell<i64>,
    gate: RefreshGate,
    /// Bound this worker last pruned with (`MAX` until the first read) —
    /// drained by the simulator's stale-expansion accounting.
    last_seen: Cell<i64>,
}

impl SimIncumbent {
    pub fn new(fabric: Rc<BoundFabric>, me: usize) -> Self {
        SimIncumbent {
            fabric,
            me,
            now: Cell::new(0),
            own: Cell::new(i64::MAX),
            cache: Cell::new(i64::MAX),
            gate: RefreshGate::new(),
            last_seen: Cell::new(i64::MAX),
        }
    }

    /// Advance this worker's clock (simulator-internal).
    pub fn set_now(&self, t: u64) {
        self.now.set(t);
    }

    /// The bound the worker last read, resetting the record
    /// (simulator-internal, for stale-expansion accounting).
    pub fn take_last_seen(&self) -> i64 {
        self.last_seen.replace(i64::MAX)
    }
}

impl Incumbent for SimIncumbent {
    fn get(&self) -> i64 {
        let visible = match self.fabric.policy() {
            BoundPolicy::Periodic { every } => {
                if self.gate.due(every) {
                    self.fabric.charge_pull(self.me);
                    let v = self.fabric.visible_to(self.me, self.now.get());
                    self.cache.set(v);
                    v
                } else {
                    self.cache.get()
                }
            }
            _ => self.fabric.visible_to(self.me, self.now.get()),
        };
        let v = visible.min(self.own.get());
        self.last_seen.set(v);
        v
    }

    fn submit(&self, value: i64) -> bool {
        self.own.set(self.own.get().min(value));
        self.fabric.submit(self.me, self.now.get(), value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fabric(policy: BoundPolicy, delay: u64) -> Rc<BoundFabric> {
        let topo = MachineTopology::try_clustered(8, 4).unwrap();
        Rc::new(BoundFabric::new(
            &topo,
            policy,
            delay,
            &CostModel::woodcrest_ib(1_000),
        ))
    }

    #[test]
    fn delay_hides_fresh_bounds() {
        let fb = fabric(BoundPolicy::Immediate, 1_000);
        let a = SimIncumbent::new(Rc::clone(&fb), 0);
        let b = SimIncumbent::new(Rc::clone(&fb), 4);
        a.set_now(5_000);
        b.set_now(5_000);
        assert!(a.submit(100));
        // The submitter sees its own bound immediately …
        assert_eq!(a.get(), 100);
        // … the other worker still sees nothing.
        assert_eq!(b.get(), i64::MAX);
        b.set_now(6_000);
        assert_eq!(b.get(), 100);
    }

    #[test]
    fn non_improving_submissions_are_rejected() {
        let fb = fabric(BoundPolicy::Immediate, 0);
        let a = SimIncumbent::new(Rc::clone(&fb), 0);
        a.set_now(1);
        assert!(a.submit(50));
        assert!(!a.submit(70));
        assert!(a.submit(49));
        assert_eq!(fb.global_min(), 49);
        assert_eq!(fb.updates(), 2);
    }

    #[test]
    fn periodic_reads_are_cached_between_refreshes() {
        let fb = fabric(BoundPolicy::Periodic { every: 3 }, 0);
        let a = SimIncumbent::new(Rc::clone(&fb), 0);
        let b = SimIncumbent::new(Rc::clone(&fb), 4);
        b.set_now(10);
        assert_eq!(b.get(), i64::MAX, "refresh before any submission");
        a.set_now(20);
        a.submit(7);
        b.set_now(30);
        assert_eq!(b.get(), i64::MAX, "cached: cadence not yet elapsed");
        assert_eq!(b.get(), i64::MAX);
        assert_eq!(b.get(), 7, "third read refreshes");
    }

    #[test]
    fn hierarchical_delivery_is_monotone_in_distance() {
        // 2 clusters × 2 nodes × 2 sockets × 2 cores, fabric above level 2.
        let topo = MachineTopology::try_new(&[2, 2, 2, 2], 2).unwrap();
        let fb = BoundFabric::new(
            &topo,
            BoundPolicy::Hierarchical,
            2_000,
            &CostModel::woodcrest_ib(1_000),
        );
        for origin in [0usize, 5, 13] {
            let mut by_distance: Vec<(usize, u64)> = (0..topo.total_workers())
                .map(|w| (topo.distance(origin, w), fb.delay_ns(origin, w)))
                .collect();
            by_distance.sort();
            for pair in by_distance.windows(2) {
                assert!(
                    pair[0].1 <= pair[1].1,
                    "delay must not shrink with distance: {pair:?} from {origin}"
                );
            }
            // Strictly increasing across distinct distances.
            for d in 1..topo.levels() {
                let at = |dd| {
                    by_distance
                        .iter()
                        .find(|&&(x, _)| x == dd)
                        .map(|&(_, ns)| ns)
                        .unwrap()
                };
                assert!(at(d) < at(d + 1), "distance {d} vs {} from {origin}", d + 1);
            }
        }
    }

    #[test]
    fn hierarchical_bills_leaders_not_workers() {
        let topo = MachineTopology::try_clustered(16, 4).unwrap(); // 4 nodes
        let costs = CostModel::woodcrest_ib(1_000);
        let h = BoundFabric::new(&topo, BoundPolicy::Hierarchical, 2_000, &costs);
        let i = BoundFabric::new(&topo, BoundPolicy::Immediate, 2_000, &costs);
        assert!(h.submit(5, 0, 100));
        assert!(i.submit(5, 0, 100));
        assert_eq!(h.messages(), 3, "one per remote leader");
        assert_eq!(i.messages(), 12, "one per remote worker");
    }
}
