//! A worker's view of its run's two root registers: the branch-and-bound
//! incumbent ([`GlobalIncumbent`]) and the winner flag ([`WinnerGate`]),
//! each on node 0 with one mirror per shared-memory node that the node's
//! leader alone refreshes over the fabric. Every worker — MaCS or PaCCS —
//! holds one of each. A worker that panics raises every cancel register at
//! once (`poison`).

use std::cell::Cell;
use std::time::Duration;

use macs_gpi::{CellBlock, GlobalCells, Interconnect, World};
use macs_search::steal::LEADER_REFRESH;
use macs_search::{BoundPolicy, RaceRing, RefreshGate};

use crate::processor::Incumbent;

/// Worker-local view of the global branch-and-bound incumbent, with a
/// cache refreshed according to the dissemination policy. Workers on
/// node 0 read the root register locally, everyone else pays the
/// interconnect, which is what makes bound dissemination a scalability
/// concern (paper §VI).
///
/// Under [`BoundPolicy::Hierarchical`] the fabric read is hoisted to the
/// node-leader level of [`macs_search::BroadcastTree`]: submitters
/// `fetch_min` their node's mirror (local) and the root (fabric), members
/// read only the mirror, and the leader refreshes it from the root every
/// [`LEADER_REFRESH`] items — a push relay's staleness, no relay thread.
pub struct GlobalIncumbent<'a> {
    cells: &'a GlobalCells,
    /// The fabric reaching the root register crosses (`None` on node 0).
    via: Option<&'a Interconnect>,
    policy: BoundPolicy,
    /// This run's root-incumbent register (job-block relative).
    root_cell: usize,
    /// This worker's node-mirror register (job-block relative, so
    /// co-scheduled jobs on one machine node never share a mirror).
    node_cell: usize,
    /// Node leaders own the mirror-refresh duty.
    leader: bool,
    cache: Cell<i64>,
    gate: RefreshGate,
    /// Improvements published, and `Periodic` refreshes over the fabric:
    /// what a bound-message bill is derived from.
    improvements: Cell<u64>,
    pulls: Cell<u64>,
}

impl<'a> GlobalIncumbent<'a> {
    pub fn new(
        cells: &'a GlobalCells,
        ic: &'a Interconnect,
        remote: bool,
        policy: BoundPolicy,
        block: CellBlock,
        node: usize,
        leader: bool,
    ) -> Self {
        GlobalIncumbent {
            cells,
            via: remote.then_some(ic),
            policy,
            root_cell: block.incumbent(),
            node_cell: block.node_bound(node),
            leader,
            cache: Cell::new(i64::MAX),
            gate: RefreshGate::new(),
            improvements: Cell::new(0),
            pulls: Cell::new(0),
        }
    }

    /// `(improvements, pulls)`: the improvements this worker published,
    /// and its `Periodic` refreshes that crossed the fabric.
    pub fn bill(&self) -> (u64, u64) {
        (self.improvements.get(), self.pulls.get())
    }

    fn reload(&self) -> i64 {
        let v = self.cells.load_i64_via(self.via, self.root_cell);
        self.cache.set(v);
        v
    }
}

impl Incumbent for GlobalIncumbent<'_> {
    fn get(&self) -> i64 {
        match self.policy {
            BoundPolicy::Immediate => self.reload(),
            BoundPolicy::Periodic { every } => {
                if self.gate.due(every) {
                    self.pulls
                        .set(self.pulls.get() + u64::from(self.via.is_some()));
                    self.reload()
                } else {
                    self.cache.get()
                }
            }
            BoundPolicy::Hierarchical => {
                if self.leader && self.gate.due(LEADER_REFRESH) {
                    let root = self.reload();
                    self.cells.fetch_min_i64(self.node_cell, root);
                }
                // The mirror sits in this node's partition: a local read.
                let v = self.cells.load_i64(self.node_cell);
                v.min(self.cache.get())
            }
        }
    }

    fn submit(&self, value: i64) -> bool {
        if self.policy == BoundPolicy::Hierarchical {
            // Publish into the node mirror first (shared memory), so
            // co-located workers see it before the fabric round trip.
            self.cells.fetch_min_i64(self.node_cell, value);
        }
        let prev = self
            .cells
            .fetch_min_i64_via(self.via, self.root_cell, value);
        self.cache.set(value.min(self.cache.get()));
        let improved = value < prev;
        self.improvements
            .set(self.improvements.get() + u64::from(improved));
        improved
    }
}

/// One worker's end of the winner route: the first-solution race flag
/// (`race`), or the flat cooperative-cancel flag of an exhaustive run.
pub struct WinnerGate<'a> {
    world: &'a World,
    /// This node's cancel/winner mirror register.
    mirror: usize,
    /// The fabric reaching the root registers crosses (`None` on node 0).
    via: Option<&'a Interconnect>,
    /// Node leaders own the mirror refresh (the bound mirror's leader).
    leader: bool,
    race: bool,
    /// Un-raised checks since the leader last read the root flag.
    since_refresh: u32,
    /// Set by [`settle`](Self::settle).
    observed: bool,
}

impl<'a> WinnerGate<'a> {
    pub fn new(world: &'a World, id: usize, race: bool) -> Self {
        let node = world.topology.node_of(id);
        WinnerGate {
            world,
            mirror: world.block.node_cancel(node),
            via: (node != 0).then_some(&world.interconnect),
            leader: id == world.topology.peers_of(id).start,
            race,
            since_refresh: 0,
            observed: false,
        }
    }

    /// Raise the flag. The win instant lands in the `win_ns` register
    /// *before* any flag becomes visible, so whoever sees a raised flag
    /// also sees a win time (the earliest winner's: `fetch_min`). The flag
    /// then spreads like a hierarchical bound: own node mirror directly,
    /// the root for one fabric write, remote nodes at their leader's pace.
    pub fn raise(&self) {
        let (cells, block) = (&self.world.cells, self.world.block);
        cells.fetch_min_i64_via(self.via, block.win_ns(), self.world.elapsed_ns());
        cells.store(self.mirror, 1);
        if let Some(ic) = self.via {
            ic.charge_write(8);
        }
        cells.store(block.cancel(), 1);
    }

    /// Has somebody won? In a race, workers poll their *node's* mirror (a
    /// local load); only the leader — every [`LEADER_REFRESH`] un-raised
    /// checks — pays a fabric read of the root flag and refreshes the
    /// mirror. Exhaustive runs keep the flat, uncharged poll of the root
    /// flag (generic processors may still cancel): no machinery, no cost.
    #[inline]
    pub fn raised(&mut self) -> bool {
        if self.observed {
            return true;
        }
        let (cells, root) = (&self.world.cells, self.world.block.cancel());
        if !self.race {
            return cells.load(root) != 0;
        }
        if cells.load(self.mirror) != 0 {
            return true;
        }
        if self.leader {
            self.since_refresh += 1;
            if self.since_refresh >= LEADER_REFRESH {
                self.since_refresh = 0;
                if let Some(ic) = self.via {
                    ic.charge_read(8);
                }
                if cells.load(root) != 0 {
                    cells.store(self.mirror, 1);
                    return true;
                }
            }
        }
        false
    }

    /// First observation of a raised flag settles `nodes_after_win`: every
    /// item in `ring` *started* after the win instant ran only because the
    /// flag had not reached this worker yet. `None` once settled.
    pub fn settle(&mut self, ring: &RaceRing) -> Option<u64> {
        if std::mem::replace(&mut self.observed, true) {
            return None;
        }
        let win_ns = self.world.block.win_ns();
        Some(ring.count_after(self.world.cells.load_i64_via(self.via, win_ns)))
    }

    /// When the run on `world` was won, from its epoch (`None`: no flag
    /// was ever raised — exhaustive runs, unsatisfiable instances).
    pub fn win_time(world: &World) -> Option<Duration> {
        let ns = world.cells.load_i64(world.block.win_ns());
        (ns != i64::MAX).then(|| Duration::from_nanos(ns as u64))
    }
}

/// Poison a run after one of its workers panicked: raise the cancel flag
/// (the root and every node's mirror), which every worker reads before each
/// item, so busy workers drop their work; and clear the termination flag,
/// the marker every idle, parked or remote-waiting worker reads, so each
/// returns at its next check as it would on termination. Nothing is added
/// to the per-item path.
pub(crate) fn poison(world: &World) {
    let (cells, block) = (&world.cells, world.block);
    cells.store(block.cancel(), 1);
    for node in 0..world.topology.nodes() {
        cells.store(block.node_cancel(node), 1);
    }
    cells.store(block.outstanding(), 0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use macs_gpi::{LatencyModel, MachineTopology};
    use std::sync::Arc;

    /// 2 nodes × 2 cores: worker 2 leads node 1, worker 3 is its member.
    fn world() -> Arc<World> {
        World::new(MachineTopology::clustered(4, 2), LatencyModel::zero(), 16)
    }

    fn reads(w: &World) -> u64 {
        w.interconnect.counters.snapshot().remote_reads
    }

    #[test]
    fn winner_gate_non_leader_never_reads_the_root_flag() {
        let w = world();
        let mut member = WinnerGate::new(&w, 3, true);
        w.cells.store(w.block.cancel(), 1); // root raised, mirror not yet
        for _ in 0..10 * LEADER_REFRESH {
            assert!(!member.raised(), "a member sees only its node's mirror");
        }
        assert_eq!(reads(&w), 0);
        w.cells.store(w.block.node_cancel(1), 1);
        assert!(member.raised());
        assert_eq!(reads(&w), 0);
    }

    #[test]
    fn winner_gate_leader_reads_the_root_flag_every_leader_refresh_calls() {
        let w = world();
        let mut leader = WinnerGate::new(&w, 2, true);
        for call in 1..=5 * LEADER_REFRESH as u64 {
            assert!(!leader.raised());
            assert_eq!(reads(&w), call / LEADER_REFRESH as u64, "call {call}");
        }
        // Raised at the root only: the leader learns of it on its next
        // refresh — not before — and stamps the mirror for its members.
        w.cells.store(w.block.cancel(), 1);
        for _ in 1..LEADER_REFRESH {
            assert!(!leader.raised());
        }
        assert!(leader.raised());
        assert_eq!(reads(&w), 6);
        assert!(WinnerGate::new(&w, 3, true).raised(), "mirror refreshed");
        // A leader on node 0 refreshes too, but its root read is local.
        let (before, mut home) = (reads(&w), WinnerGate::new(&w, 0, true));
        assert!((0..LEADER_REFRESH).any(|_| home.raised()));
        assert_eq!(reads(&w), before);
    }

    #[test]
    fn winner_gate_raise_stamps_the_win_time_before_either_flag() {
        for round in 0..200 {
            let w = world();
            std::thread::scope(|s| {
                // Node 1 watches both flags a raise from node 0 sets, raw
                // and through its gate: whichever it sees first, the win
                // instant must already be there.
                let watcher = s.spawn(|| {
                    let (cells, block) = (&w.cells, w.block);
                    while cells.load(block.node_cancel(0)) == 0 && cells.load(block.cancel()) == 0 {
                        std::hint::spin_loop();
                    }
                    assert_ne!(cells.load_i64(block.win_ns()), i64::MAX, "round {round}");
                });
                let observer = s.spawn(|| {
                    let mut gate = WinnerGate::new(&w, 2, true);
                    while !gate.raised() {
                        std::hint::spin_loop();
                    }
                    assert!(WinnerGate::win_time(&w).is_some(), "round {round}");
                    assert!(gate.settle(&RaceRing::new()).is_some());
                });
                WinnerGate::new(&w, 1, true).raise();
                watcher.join().unwrap();
                observer.join().unwrap();
            });
        }
    }

    #[test]
    fn winner_gate_raise_from_off_node_zero_is_charged() {
        let w = world();
        WinnerGate::new(&w, 3, true).raise();
        let t = w.interconnect.counters.snapshot();
        assert_eq!((t.remote_atomics, t.remote_writes), (1, 1), "stamp + flag");
        assert_eq!(w.cells.load(w.block.node_cancel(1)), 1);
        assert_eq!(w.cells.load(w.block.node_cancel(0)), 0, "others wait");
        let home = world();
        WinnerGate::new(&home, 1, true).raise();
        assert_eq!(home.interconnect.counters.snapshot(), Default::default());
    }

    #[test]
    fn winner_gate_observed_stays_raised_and_reads_nothing() {
        let w = world();
        let mut gate = WinnerGate::new(&w, 2, true);
        WinnerGate::new(&w, 3, true).raise();
        assert!(gate.raised());
        let mut ring = RaceRing::new();
        ring.record(0); // started before any possible win instant
        ring.record(i64::MAX - 1); // started after it
        assert_eq!(gate.settle(&ring), Some(1));
        assert_eq!(gate.settle(&ring), None, "settled once");
        // Even with every register wiped the gate answers from its own
        // state, and touches neither memory nor the fabric counters.
        w.cells.reset_block(w.block, u64::MAX);
        let before = w.interconnect.counters.snapshot();
        for _ in 0..10 * LEADER_REFRESH {
            assert!(gate.raised());
        }
        assert_eq!(w.interconnect.counters.snapshot(), before);
    }

    #[test]
    fn winner_gate_exhaustive_mode_polls_the_root_flag_uncharged() {
        let w = world();
        let mut gate = WinnerGate::new(&w, 3, false);
        for _ in 0..10 * LEADER_REFRESH {
            assert!(!gate.raised());
        }
        w.cells.store(w.block.node_cancel(1), 1);
        assert!(!gate.raised(), "the mirror is race machinery");
        w.cells.store(w.block.cancel(), 1);
        assert!(gate.raised(), "flat poll: seen at once, leader or not");
        assert_eq!(reads(&w), 0);
    }
}
