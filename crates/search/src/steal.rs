//! The MaCS steal rulebook: every load-balancing *decision* of paper §V,
//! written once.
//!
//! The protocol — release, greedy / max-steal local stealing, a one-sided
//! remote scan, a mailbox request and a proxy-filled reply — is sequenced
//! once, by [`WorkerMachine`](crate::machine::WorkerMachine), and performed
//! by two drivers: real threads over atomics (`macs-runtime`'s worker) and
//! one event continuation per virtual worker (`macs-sim`). The decisions
//! live here as pure functions over observations: each takes what the
//! worker saw (pool lengths, a lease width, a surplus probe) and returns a
//! plain value; the drivers keep only "do it, charge it, count it".
//!
//! The rules are numbered R1–R8 in their doc comments below;
//! ARCHITECTURE.md ("Steal protocol: rules and executions") tabulates their
//! inputs and callers, and what each execution alone adds.
//!
//! [`StealPolicy`] holds the seven knobs the rules read; both
//! `RuntimeConfig` and `SimConfig` embed it as their `steal` field, so a
//! threaded and a simulated run of one experiment are configured by the
//! same value.

use macs_topo::{MachineTopology, ScanOrder, VictimOrder};

use crate::batch::{AdaptiveBatch, ChunkPolicy, WorkBatch};

/// Local-steal victim selection (paper §V, "Local Work Stealing"):
/// MaCS ships a cheap *greedy* variant and a better-informed but costlier
/// *max steal* variant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum VictimSelect {
    /// "the first victim found with available work is chosen" (scan starts
    /// at a random peer to avoid convoys).
    #[default]
    Greedy,
    /// "the thief checks all n−1 possible victims and chooses the one with
    /// the largest shared region".
    MaxSteal,
}

/// How often a worker checks its request mailbox (paper §V, "dynamic
/// polling strategy"). Intervals are counted in processed work items.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PollPolicy {
    /// Poll every `n` items.
    Fixed(u32),
    /// Start at `min`; a poll that finds no request doubles the interval
    /// (up to `max`), a poll that finds one halves it (down to `min`) —
    /// "if the poll fails, the polling interval grows …; if a poll
    /// succeeds, the opposite happens".
    Dynamic { min: u32, max: u32 },
}

impl Default for PollPolicy {
    fn default() -> Self {
        // The ceiling must stay low enough that a waiting thief is served
        // within a few node-processing times, or "Wait remote" — negligible
        // in the paper's Fig. 3/5 — starts to dominate at scale.
        PollPolicy::Dynamic { min: 2, max: 64 }
    }
}

impl PollPolicy {
    pub fn initial(&self) -> u32 {
        match *self {
            PollPolicy::Fixed(n) => n.max(1),
            PollPolicy::Dynamic { min, .. } => min.max(1),
        }
    }

    /// Next interval after a poll that found (`hit = true`) or did not find
    /// a pending request.
    pub fn next(&self, current: u32, hit: bool) -> u32 {
        match *self {
            PollPolicy::Fixed(n) => n.max(1),
            PollPolicy::Dynamic { min, max } => {
                let min = min.max(1);
                if hit {
                    (current / 2).max(min)
                } else {
                    current.saturating_mul(2).min(max.max(min))
                }
            }
        }
    }
}

/// When and how much private work a worker publishes into the shared region
/// of its pool. The *interval* is the paper's "work release interval" — the
/// knob that turns MaCS(default) into MaCS(best) on N-Queens.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReleasePolicy {
    /// Attempt a release every `interval` processed items (1 = the paper's
    /// eager default).
    pub interval: u32,
    /// Only lock and move the split pointer when the shared region has
    /// fewer items than this (avoids extraneous releases).
    pub share_target: u64,
}

impl Default for ReleasePolicy {
    fn default() -> Self {
        // The paper's default: release on *every* work-loop iteration,
        // unconditionally — the "extraneous" release operations whose cost
        // §VI identifies as the limiter on N-Queens scalability.
        ReleasePolicy {
            interval: 1,
            share_target: u64::MAX,
        }
    }
}

impl ReleasePolicy {
    /// The tuned variant the paper calls MaCS(best): "simply based on the
    /// reduction of the number of (extraneous) release operations" — an
    /// order of magnitude fewer release operations.
    pub fn tuned() -> Self {
        ReleasePolicy {
            interval: 32,
            share_target: u64::MAX,
        }
    }

    /// A demand-driven variant (only lock when the shared region runs
    /// low) for ablation studies.
    pub fn demand_driven(interval: u32) -> Self {
        ReleasePolicy {
            interval,
            share_target: 4,
        }
    }
}

/// The knobs of the MaCS steal protocol, declared once for both
/// executions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StealPolicy {
    pub release: ReleasePolicy,
    pub poll: PollPolicy,
    pub victim_select: VictimSelect,
    /// Victim ordering: level-by-level (socket before node before
    /// cluster, with last-steal affinity) or the original flat scan.
    pub scan_order: ScanOrder,
    /// Upper bound on items moved by one steal (local or remote). This is
    /// the *static* reference cap; `chunk_policy` maps it and the steal's
    /// topological distance to the effective per-steal cap.
    pub max_steal_chunk: u64,
    /// Steal-chunk granularity: a flat cap (`Static`, the original
    /// behaviour), a distance-scaled reservation (small same-socket
    /// chunks, up to `factor ×` for cross-cluster steals — which the
    /// simulator's per-level latencies and per-byte transfer cost price
    /// honestly), or `Adaptive`, which also tunes `response_batch` online
    /// from reply thinness. See [`ChunkPolicy`].
    pub chunk_policy: ChunkPolicy,
    /// Maximum number of victim pools contributing chunks to one remote
    /// steal response (1 = the original single-chunk reply). The
    /// response's total size stays capped at the per-steal cap; batching
    /// means several co-located pools may *fill* that cap together, so a
    /// thief's round trip delivers full value instead of one pool's thin
    /// chunk. Under [`ChunkPolicy::Adaptive`] this is only the starting
    /// point — each victim's reply-thinness EWMA takes over.
    pub response_batch: u32,
}

impl Default for StealPolicy {
    fn default() -> Self {
        StealPolicy {
            release: ReleasePolicy::default(),
            poll: PollPolicy::default(),
            victim_select: VictimSelect::default(),
            scan_order: ScanOrder::default(),
            max_steal_chunk: 16,
            chunk_policy: ChunkPolicy::default(),
            response_batch: 2,
        }
    }
}

/// R8 — a release never shares below this many private items (keeps the
/// owner fed).
pub const MIN_PRIVATE: u64 = 2;

/// R8 — remote victim *nodes* examined per ring of a remote-steal round.
pub const REMOTE_NODE_ATTEMPTS: usize = 2;

/// R8 — how often (in processed items) a node leader refreshes its node's
/// incumbent and winner mirrors from the root register. One fabric read
/// per node per cadence replaces one per *worker* per item — the leveled
/// cell path, shared by threaded MaCS and threaded PaCCS.
pub const LEADER_REFRESH: u32 = 8;

/// R8 — the idle back-off multiplier after `round` consecutive empty
/// rounds: doubling, capped at 2⁶ so a worker that idled through a long
/// dry spell still notices new work within 64 base intervals.
#[inline]
pub fn backoff_factor(round: u32) -> u64 {
    1 << round.min(6)
}

/// The lease width of a run that is not leased: every worker is in-lease.
pub const UNLEASED: u64 = u64::MAX;

/// R2 — how many shared items worker `w`'s pool must retain under lease
/// width `lease`. In-lease victims keep one item (the retention clamp, so a
/// granted steal never idles the victim); a parked victim retains nothing
/// — it will not process work anyway, and waiving the clamp is what lets
/// active workers drain a shrunken lease's pools down to the last item
/// instead of deadlocking on it.
#[inline]
pub fn retained(w: usize, lease: u64) -> u64 {
    u64::from((w as u64) < lease)
}

/// R2 — the viable surplus of worker `w`'s pool: what a scan may count on
/// being granted from `shared` visible items. A pool holding only what it
/// retains can never be granted from, so scanning it would only buy a
/// failed steal (or, remotely, a guaranteed-refused round trip).
#[inline]
pub fn surplus(shared: u64, w: usize, lease: u64) -> u64 {
    shared.saturating_sub(retained(w, lease))
}

/// R3 — how many of a victim's `shared` items one steal may take under
/// `cap`: the oldest half, rounded up, never the retained item
/// ([`WorkBatch::share_ceil`]) — or, from a pool that retains nothing (a
/// parked victim), everything the cap allows: it is not coming back for it.
/// Local steals, a server's own chunk and its proxy chunks all grant by
/// this one function.
#[inline]
pub fn grant(shared: u64, cap: u64, retained: u64) -> u64 {
    if retained == 0 {
        shared.min(cap)
    } else {
        WorkBatch::share_ceil(shared, cap)
    }
}

/// The pools a served request may draw from, as the reply rule sees them:
/// real `SplitPool`s filling a flat buffer in the threaded worker, virtual
/// pools handing over arena slot ids in the simulator — and a plain table
/// in the rule's unit tests.
pub trait PoolView {
    /// Visible shared items of worker `w`'s pool.
    fn shared_len(&self, w: usize) -> u64;
    /// Move up to `k` of `w`'s oldest shared items into the reply; returns
    /// how many actually moved (a concurrent thief may have been faster).
    fn take(&mut self, w: usize, k: u64) -> u64;
}

/// What a victim scan reads of the other workers (R4, R5): every
/// [`WorkerView`](crate::machine::WorkerView) is one, and so is a plain
/// table in the rules' unit tests.
pub trait ScanView {
    /// Visible shared items of co-located worker `w` (R4).
    fn shared_len(&mut self, w: usize) -> u64;
    /// Remote worker `w`'s shared length, `None` while its mailbox is busy
    /// (R5).
    fn probe_remote(&mut self, w: usize) -> Option<u64>;
    /// `true` only if no pool on node `n` has viable surplus under the
    /// scan's lease: the scans then skip the node without reading a pool
    /// of it. `false` means "unknown" — an execution without a census
    /// reads every pool, as before.
    fn node_dry(&mut self, n: usize) -> bool {
        let _ = n;
        false
    }
}

/// What [`StealPolicy::assemble_reply`] put together.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Reply {
    /// Items in the reply (0 = refuse the request).
    pub items: u64,
    /// Pools that contributed a chunk.
    pub chunks: u64,
    /// Did a pool other than the server's own contribute?
    pub proxy: bool,
    /// The cap the reply's thinness was judged against.
    pub gate_cap: u64,
}

impl Reply {
    /// Grant one chunk of `w`'s `shared` items out of `budget`; `true` if
    /// anything moved.
    #[inline]
    fn take_chunk(
        &mut self,
        pools: &mut impl PoolView,
        w: usize,
        shared: u64,
        lease: u64,
        budget: &mut u64,
    ) -> bool {
        let got = pools.take(w, grant(shared, *budget, retained(w, lease)));
        if got > 0 {
            self.chunks += 1;
            self.items += got;
            *budget -= got;
        }
        got > 0
    }
}

impl StealPolicy {
    /// R1 — publish private work into the shared region when it runs low
    /// (the *release* operation whose frequency the paper tunes): with
    /// `private` items above the floor and the `shared` region under its
    /// target, half the spare private items, at least one.
    #[inline]
    pub fn release_amount(&self, private: u64, shared: u64) -> Option<u64> {
        let pol = &self.release;
        (private > MIN_PRIVATE && shared < pol.share_target)
            .then(|| ((private - MIN_PRIVATE) / 2).max(1))
    }

    /// R3 — the per-steal reservation cap for a victim/thief pair
    /// `distance` levels apart: the chunk policy's decision point.
    #[inline]
    pub fn chunk_cap(&self, topo: &MachineTopology, distance: usize) -> u64 {
        self.chunk_policy
            .cap_for(distance, topo.levels(), self.max_steal_chunk)
    }

    /// R3 — how many items `thief` asks of co-located `victim`'s `shared`
    /// region.
    #[inline]
    pub fn local_grant(
        &self,
        topo: &MachineTopology,
        thief: usize,
        victim: usize,
        shared: u64,
        lease: u64,
    ) -> u64 {
        let cap = self.chunk_cap(topo, topo.distance(thief, victim));
        grant(shared, cap, retained(victim, lease))
    }

    /// R3 for a PaCCS agent — how many of its `queued` items `victim`
    /// grants `thief`'s request: the oldest half, rounded down, under the
    /// cap for their distance ([`WorkBatch::share_floor`]). A PaCCS agent
    /// never releases, so everything it has queued is open to a request;
    /// the item in hand is not queued.
    #[inline]
    pub fn paccs_grant(
        &self,
        topo: &MachineTopology,
        victim: usize,
        thief: usize,
        queued: u64,
    ) -> u64 {
        let cap = self.chunk_cap(topo, topo.distance(victim, thief));
        WorkBatch::share_floor(queued, cap)
    }

    /// R4 — the local victim: walk the thief's rings nearest level first
    /// (affinity victim ahead of its ring) and apply the configured
    /// heuristic within a ring — greedy takes the first pool with viable
    /// surplus, scanning each ring from a random start (`rot_for`, drawn
    /// once per ring visited) to avoid convoys; max-steal reads a whole
    /// ring and takes the largest surplus, affinity breaking ties, and
    /// draws nothing. Returns `(victim, inspected)`.
    ///
    /// A thief whose own node is dry ([`ScanView::node_dry`]) reads no
    /// pool: it finds what the walk would have found — nothing — after the
    /// same count of candidates and the same draws, so the scan's charge
    /// and the random stream do not depend on whether the view keeps a
    /// census.
    #[inline]
    pub fn pick_local(
        &self,
        topo: &MachineTopology,
        order: &VictimOrder,
        lease: u64,
        mut rot_for: impl FnMut(usize) -> usize,
        view: &mut impl ScanView,
    ) -> (Option<usize>, u64) {
        let (scan, me) = (self.scan_order, order.me());
        let rings = (0..).map_while(|ri| scan.local_ring(topo, me, ri));
        let greedy = self.victim_select == VictimSelect::Greedy;
        if view.node_dry(topo.node_of(me)) {
            let mut inspected = 0;
            for ring in rings {
                if greedy {
                    rot_for(ring.len().max(1));
                }
                inspected += ring.len() as u64;
            }
            return (None, inspected);
        }
        let viable = |w| surplus(view.shared_len(w), w, lease);
        if greedy {
            order.pick_first(rings, rot_for, viable)
        } else {
            order.pick_max(rings, viable)
        }
    }

    /// R5 — the remote victim: read the pool state of whole remote nodes
    /// one-sidedly and pick the worker with the largest viable surplus —
    /// "the request is only sent to a worker that has a surplus of work".
    /// Node rings are walked nearest level first, so a same-cluster node
    /// is probed before a cross-cluster one; within a ring the node that
    /// last yielded work (affinity) is probed first, then
    /// [`REMOTE_NODE_ATTEMPTS`] distinct candidates from a random start
    /// (`rot_for`, drawn once per non-empty ring). A node the view knows
    /// is dry ([`ScanView::node_dry`]) counts as probed and yields
    /// nothing, as reading its pools would have. Returns
    /// `(victim, probes)` — `probes` counts nodes scanned.
    #[inline]
    pub fn pick_remote(
        &self,
        topo: &MachineTopology,
        order: &VictimOrder,
        lease: u64,
        rot_for: impl FnMut(usize) -> usize,
        view: &mut impl ScanView,
    ) -> (Option<usize>, u64) {
        let (scan, me) = (self.scan_order, order.me());
        let rings = (0..).map_while(|ri| scan.node_ring(topo, me, ri));
        order.pick_node(topo, rings, REMOTE_NODE_ATTEMPTS, rot_for, |node| {
            if view.node_dry(node) {
                return None;
            }
            let mut best: Option<(u64, usize)> = None;
            for w in topo.workers_on(node) {
                let s = view
                    .probe_remote(w)
                    .map_or(0, |shared| surplus(shared, w, lease));
                if s > best.map_or(0, |(b, _)| b) {
                    best = Some((s, w));
                }
            }
            best.map(|(_, w)| w)
        })
    }

    /// R6 — assemble the reply to `thief`'s request at `server`. One
    /// response carries at most the chunk policy's per-steal cap — static,
    /// or scaled by the thief's topological distance (a far thief's
    /// expensive round trip carries a proportionally bigger reservation) —
    /// and never more than the thief has `room` for (`u64::MAX` where the
    /// execution has no such limit). The server's own chunk goes first
    /// (shrinking its region from the tail, as the paper describes the
    /// reservation); then co-located pools with viable surplus, largest
    /// first, one chunk each — proxy fulfilment — but only while the
    /// reply is *thin* (under [`WorkBatch::thin_threshold`], which never
    /// exceeds the cap) and fewer than the batch ceiling have contributed:
    /// a healthy single-pool chunk ships as-is; a dribble of a reply,
    /// which would send the thief straight back into another round trip,
    /// gets topped up from the node's other pools, all in the one reply
    /// (the round trip is paid per response, not per chunk). With
    /// `response_batch` = 1 the top-up runs only when the own region was
    /// empty — the original single-chunk proxy behaviour; under the
    /// adaptive policy the ceiling follows `adaptive`, this server's own
    /// reply-thinness EWMA, which the served reply then updates.
    ///
    /// The thinness gate stays anchored to the *static* cap even when the
    /// chunk policy grants a far thief a bigger reservation: scaling the
    /// gate with the cap over-exports from the serving node, and the
    /// drained pools' owners then turn remote themselves (measured in
    /// `paper ablation_chunk` — the same failure mode PR 2 found for
    /// aggressive batching).
    ///
    /// Allocates only on the top-up path, for the short list of pools
    /// already asked.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn assemble_reply(
        &self,
        topo: &MachineTopology,
        server: usize,
        thief: usize,
        room: u64,
        lease: u64,
        adaptive: &mut AdaptiveBatch,
        pools: &mut impl PoolView,
    ) -> Reply {
        debug_assert_ne!(server, thief);
        let cap = self.chunk_cap(topo, topo.distance(server, thief));
        let max_chunks = if self.chunk_policy.is_adaptive() {
            adaptive.batch() as u64
        } else {
            self.response_batch.max(1) as u64
        };
        let reply_cap = room.min(cap);
        let gate_cap = reply_cap.min(self.max_steal_chunk);
        let top_up_below = WorkBatch::thin_threshold(gate_cap);
        let mut budget = reply_cap;
        let mut reply = Reply {
            gate_cap,
            ..Reply::default()
        };
        if budget > 0 {
            let own = pools.shared_len(server);
            reply.take_chunk(pools, server, own, lease, &mut budget);
        }
        let mut asked: Vec<usize> = Vec::new();
        while budget > 0
            && (reply.items == 0 || (reply.items < top_up_below && reply.chunks < max_chunks))
        {
            // A lone shared item cannot be granted from an in-lease pool
            // (retention) but drains freely from a parked one.
            let cand = topo
                .peers_of(server)
                .filter(|&w| w != server && w != thief && !asked.contains(&w))
                .map(|w| (surplus(pools.shared_len(w), w, lease), w))
                .filter(|&(viable, _)| viable > 0)
                .max();
            let Some((viable, w)) = cand else {
                break;
            };
            asked.push(w);
            let shared = viable + retained(w, lease);
            reply.proxy |= reply.take_chunk(pools, w, shared, lease, &mut budget);
        }
        if reply.items > 0 && self.chunk_policy.is_adaptive() {
            adaptive.observe(reply.items, gate_cap);
        }
        reply
    }

    /// R7 — a steal's outcome moves the per-ring affinity: success warms
    /// the victim, failure drops an affinity pinned to it (a drained
    /// victim must not be retried first). The flat scan keeps none — it is
    /// the pre-topology baseline.
    #[inline]
    pub fn record_outcome(
        &self,
        topo: &MachineTopology,
        order: &mut VictimOrder,
        victim: usize,
        success: bool,
    ) {
        if self.scan_order == ScanOrder::DistanceAware {
            if success {
                order.record_success(topo, victim);
            } else {
                order.record_failure(topo, victim);
            }
        }
    }

    /// R8 — how many shared items an owner takes back at once when its
    /// private region runs dry: one steal's worth.
    #[inline]
    pub fn reacquire_width(&self) -> u64 {
        self.max_steal_chunk
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    /// A node's pools as a plain table: `shared[w]` visible items each;
    /// `takes` logs every `(pool, asked, got)`.
    struct FakePools {
        shared: Vec<u64>,
        takes: Vec<(usize, u64, u64)>,
    }

    impl FakePools {
        fn new(shared: &[u64]) -> Self {
            FakePools {
                shared: shared.to_vec(),
                takes: Vec::new(),
            }
        }
    }

    impl PoolView for FakePools {
        fn shared_len(&self, w: usize) -> u64 {
            self.shared[w]
        }
        fn take(&mut self, w: usize, k: u64) -> u64 {
            let got = k.min(self.shared[w]);
            self.shared[w] -= got;
            self.takes.push((w, k, got));
            got
        }
    }

    /// What the scans read, as plain tables: `shared[w]` visible items,
    /// `busy[w]` a busy mailbox. With a census (`census = Some(lease)`)
    /// `node_dry` answers truthfully under that lease, else never; `reads`
    /// logs every pool read.
    struct Table<'t> {
        topo: &'t MachineTopology,
        shared: Vec<u64>,
        busy: Vec<bool>,
        census: Option<u64>,
        reads: Vec<usize>,
    }

    impl<'t> Table<'t> {
        fn new(topo: &'t MachineTopology, shared: &[u64]) -> Self {
            Table {
                topo,
                shared: shared.to_vec(),
                busy: vec![false; shared.len()],
                census: None,
                reads: Vec::new(),
            }
        }

        fn dry(&self, n: usize, lease: u64) -> bool {
            let mut on = self.topo.workers_on(n);
            on.all(|w| surplus(self.shared[w], w, lease) == 0)
        }
    }

    impl ScanView for Table<'_> {
        fn shared_len(&mut self, w: usize) -> u64 {
            self.reads.push(w);
            self.shared[w]
        }
        fn probe_remote(&mut self, w: usize) -> Option<u64> {
            self.reads.push(w);
            (!self.busy[w]).then_some(self.shared[w])
        }
        fn node_dry(&mut self, n: usize) -> bool {
            self.census.is_some_and(|lease| self.dry(n, lease))
        }
    }

    /// Two nodes of four: worker 0 serves thief 4 (distance 2 of 2).
    fn topo() -> MachineTopology {
        MachineTopology::try_new(&[2, 4], 1).unwrap()
    }

    /// Serve thief 4 at worker 0 from `shared`; returns the reply and
    /// which pools gave how much.
    fn serve(
        policy: &StealPolicy,
        shared: &[u64],
        room: u64,
        lease: u64,
    ) -> (Reply, Vec<(usize, u64)>) {
        let mut pools = FakePools::new(shared);
        let mut adaptive = AdaptiveBatch::starting_at(policy.response_batch);
        let reply = policy.assemble_reply(&topo(), 0, 4, room, lease, &mut adaptive, &mut pools);
        let gave = pools
            .takes
            .iter()
            .filter(|t| t.2 > 0)
            .map(|t| (t.0, t.2))
            .collect();
        (reply, gave)
    }

    #[test]
    fn reply_assembly_table() {
        let base = StealPolicy::default(); // cap 16, batch 2, thin below 4
        let single = StealPolicy {
            response_batch: 1,
            ..base
        };
        let far = StealPolicy {
            chunk_policy: ChunkPolicy::DistanceScaled {
                base: 16,
                factor: 2,
            },
            ..base
        };
        #[allow(clippy::type_complexity)]
        let cases: &[(&str, &StealPolicy, &[u64], u64, &[(usize, u64)], bool, u64)] = &[
            // A healthy own chunk ships alone.
            (
                "healthy",
                &base,
                &[10, 9, 9, 9],
                u64::MAX,
                &[(0, 5)],
                false,
                16,
            ),
            // A thin own chunk is topped up from the largest peer — once
            // (batch 2), and never from the thief's side of the machine.
            (
                "thin",
                &base,
                &[3, 4, 9, 6],
                u64::MAX,
                &[(0, 2), (2, 5)],
                true,
                16,
            ),
            // Equal peers: the higher id breaks the tie.
            (
                "tie",
                &base,
                &[3, 6, 6, 2],
                u64::MAX,
                &[(0, 2), (2, 3)],
                true,
                16,
            ),
            // response_batch = 1: a thin own chunk still ships alone …
            (
                "single thin",
                &single,
                &[3, 9, 9, 9],
                u64::MAX,
                &[(0, 2)],
                false,
                16,
            ),
            // … and a proxy serves only when the own region is empty.
            (
                "single empty",
                &single,
                &[0, 4, 9, 6],
                u64::MAX,
                &[(2, 5)],
                true,
                16,
            ),
            // A lone own item is retained; the peer's serves instead.
            (
                "lone own",
                &base,
                &[1, 0, 8, 0],
                u64::MAX,
                &[(2, 4)],
                true,
                16,
            ),
            // Nothing viable anywhere (lone items only): refuse.
            ("refuse", &base, &[1, 1, 0, 1], u64::MAX, &[], false, 16),
            // The distance policy doubles a far thief's reservation, but
            // the thinness gate stays at the static cap: 40 → 20 ships
            // alone, and 6 → 3 (< 4) is still topped up.
            (
                "far fat",
                &far,
                &[40, 9, 9, 9],
                u64::MAX,
                &[(0, 20)],
                false,
                16,
            ),
            (
                "far thin",
                &far,
                &[6, 0, 50, 0],
                u64::MAX,
                &[(0, 3), (2, 25)],
                true,
                16,
            ),
            // Thief room under the cap bounds the whole reply and the gate.
            ("room 3", &base, &[10, 9, 9, 9], 3, &[(0, 3)], false, 3),
            (
                "room 3 thin",
                &base,
                &[2, 9, 0, 0],
                3,
                &[(0, 1), (1, 2)],
                true,
                3,
            ),
            ("no room", &base, &[10, 9, 9, 9], 0, &[], false, 0),
        ];
        for &(name, policy, shared, room, gave, proxy, gate_cap) in cases {
            let (reply, got) = serve(policy, shared, room, UNLEASED);
            assert_eq!(got, gave, "{name}: who gave what");
            let items: u64 = gave.iter().map(|g| g.1).sum();
            let want = Reply {
                items,
                chunks: gave.len() as u64,
                proxy,
                gate_cap,
            };
            assert_eq!(reply, want, "{name}");
        }
    }

    #[test]
    fn reply_never_draws_on_the_thief_or_asks_a_pool_twice() {
        // Same-node thief (worker 1) holding the biggest region: the
        // top-up must pass it over. A racing pool (yields nothing) is
        // asked once, then the next candidate is tried.
        struct Racing(FakePools);
        impl PoolView for Racing {
            fn shared_len(&self, w: usize) -> u64 {
                self.0.shared_len(w)
            }
            fn take(&mut self, w: usize, k: u64) -> u64 {
                if w == 2 {
                    self.0.takes.push((w, k, 0));
                    0
                } else {
                    self.0.take(w, k)
                }
            }
        }
        let t = MachineTopology::flat(4);
        let mut pools = Racing(FakePools::new(&[0, 50, 9, 4]));
        let mut adaptive = AdaptiveBatch::new();
        let policy = StealPolicy::default();
        let reply = policy.assemble_reply(&t, 0, 1, u64::MAX, UNLEASED, &mut adaptive, &mut pools);
        let asked: Vec<usize> = pools.0.takes.iter().map(|t| t.0).collect();
        assert_eq!(asked, vec![0, 2, 3], "own, the racing pool once, then 3");
        assert_eq!((reply.items, reply.chunks, reply.proxy), (2, 1, true));
        assert_eq!(pools.0.shared[1], 50, "the thief's own pool is untouched");
    }

    #[test]
    fn a_lone_item_is_granted_only_by_a_parked_pool() {
        let t = topo();
        let policy = StealPolicy::default();
        // R2: worker 1 is in-lease under width 2, parked under width 1.
        assert_eq!((retained(1, 2), retained(1, 1)), (1, 0));
        assert_eq!((surplus(1, 1, 2), surplus(1, 1, 1)), (0, 1));
        assert_eq!(surplus(0, 1, 1), 0);
        // R3 at all three call sites, in-lease then parked: a local
        // steal, the server's own chunk, a proxy chunk.
        assert_eq!(policy.local_grant(&t, 0, 1, 1, UNLEASED), 0);
        assert_eq!(policy.local_grant(&t, 0, 1, 1, 1), 1);
        assert_eq!(serve(&policy, &[1, 0, 0, 0], u64::MAX, UNLEASED).1, vec![]);
        assert_eq!(serve(&policy, &[1, 0, 0, 0], u64::MAX, 0).1, vec![(0, 1)]);
        assert_eq!(serve(&policy, &[0, 1, 0, 0], u64::MAX, UNLEASED).1, vec![]);
        assert_eq!(serve(&policy, &[0, 1, 0, 0], u64::MAX, 1).1, vec![(1, 1)]);
        // A parked pool gives everything the cap allows, not half.
        assert_eq!(grant(9, 16, 0), 9);
        assert_eq!(grant(40, 16, 0), 16);
        assert_eq!(grant(9, 16, 1), 5);
        // The scans agree: a lone item is viable surplus only when parked.
        let order = VictimOrder::new(&t, 0);
        let lone = &mut Table::new(&t, &[0, 1, 0, 0, 0, 0, 0, 0]);
        assert_eq!(policy.pick_local(&t, &order, 2, |_| 0, lone).0, None);
        assert_eq!(policy.pick_local(&t, &order, 1, |_| 0, lone).0, Some(1));
        let lone_far = &mut Table::new(&t, &[0, 0, 0, 0, 0, 1, 0, 0]);
        assert_eq!(policy.pick_remote(&t, &order, 8, |_| 0, lone_far).0, None);
        assert_eq!(
            policy.pick_remote(&t, &order, 5, |_| 0, lone_far).0,
            Some(5)
        );
    }

    #[test]
    fn small_caps_keep_the_thin_gate_under_the_cap() {
        // Caps 1–3: a full reply is never thin, so it is never topped up;
        // an under-full one is.
        for cap in 1..=3u64 {
            let policy = StealPolicy {
                max_steal_chunk: cap,
                response_batch: 4,
                ..StealPolicy::default()
            };
            let (full, gave) = serve(&policy, &[2 * cap + 1, 9, 9, 9], u64::MAX, UNLEASED);
            assert_eq!((full.items, full.gate_cap), (cap, cap), "cap {cap}");
            assert_eq!(gave.len(), 1, "cap {cap}: a full reply ships alone");
        }
        let policy = StealPolicy {
            max_steal_chunk: 3,
            response_batch: 4,
            ..StealPolicy::default()
        };
        let (reply, gave) = serve(&policy, &[2, 9, 0, 0], u64::MAX, UNLEASED);
        assert_eq!(gave, vec![(0, 1), (1, 2)], "1 < thin(3) = 2: topped up");
        assert_eq!(reply.items, 3);
    }

    #[test]
    fn adaptive_ceiling_follows_the_tuner() {
        let policy = StealPolicy {
            chunk_policy: ChunkPolicy::Adaptive,
            response_batch: 1, // ignored: the tuner decides
            ..StealPolicy::default()
        };
        let t = MachineTopology::flat(8);
        // Dribbling pools: every chunk is a single item of two.
        let chunks_at = |adaptive: &mut AdaptiveBatch| {
            let mut pools = FakePools::new(&[2, 0, 2, 2, 2, 2, 2, 2]);
            policy
                .assemble_reply(&t, 0, 1, u64::MAX, UNLEASED, adaptive, &mut pools)
                .chunks
        };
        for start in 1..=AdaptiveBatch::MAX_BATCH {
            let mut adaptive = AdaptiveBatch::starting_at(start);
            assert_eq!(adaptive.batch(), start);
            assert_eq!(chunks_at(&mut adaptive), start as u64, "ceiling = batch()");
        }
        // Served replies are observed: a stream of thin ones (1 item
        // against a thin mark of 4) lifts the ceiling off its start.
        let mut adaptive = AdaptiveBatch::starting_at(1);
        for _ in 0..8 {
            chunks_at(&mut adaptive);
        }
        assert!(adaptive.batch() > 1);
        // A static policy never touches the tuner.
        let mut untouched = AdaptiveBatch::starting_at(1);
        let mut pools = FakePools::new(&[2, 0, 2, 2, 2, 2, 2, 2]);
        StealPolicy::default().assemble_reply(
            &t,
            0,
            1,
            u64::MAX,
            UNLEASED,
            &mut untouched,
            &mut pools,
        );
        assert_eq!(untouched.batch(), 1);
    }

    #[test]
    fn release_rule_matches_the_three_named_policies() {
        let with = |release| StealPolicy {
            release,
            ..StealPolicy::default()
        };
        let eager = with(ReleasePolicy::default());
        assert_eq!(eager.release_amount(2, 0), None, "the floor stays private");
        assert_eq!(eager.release_amount(3, 0), Some(1), "at least one");
        assert_eq!(eager.release_amount(12, 1_000), Some(5), "half the spare");
        let demand = with(ReleasePolicy::demand_driven(1));
        assert_eq!(demand.release_amount(12, 3), Some(5));
        assert_eq!(
            demand.release_amount(12, 4),
            None,
            "shared region is full enough"
        );
    }

    #[test]
    fn remote_pick_takes_the_largest_free_mailbox_within_the_attempts() {
        let t = MachineTopology::try_new(&[4, 2], 1).unwrap(); // nodes {0..4} of 2
        let order = VictimOrder::new(&t, 0);
        let policy = StealPolicy::default(); // 2 attempts per ring
        let shared = [0u64, 0, 3, 7, 9, 9, 2, 2];
        // Rotation 0 probes nodes 1 then 2: node 1 already has surplus.
        let all_free = &mut Table::new(&t, &shared);
        assert_eq!(
            policy.pick_remote(&t, &order, UNLEASED, |_| 0, all_free),
            (Some(3), 1)
        );
        // Worker 3's mailbox is busy: its node-mate is the pick.
        let busy3 = &mut Table::new(&t, &shared);
        busy3.busy[3] = true;
        assert_eq!(
            policy.pick_remote(&t, &order, UNLEASED, |_| 0, busy3),
            (Some(2), 1)
        );
        // A dry first node costs a probe; the second attempt finds work.
        let dry1 = &mut Table::new(&t, &[0, 0, 0, 0, 9, 9, 2, 2]);
        assert_eq!(
            policy.pick_remote(&t, &order, UNLEASED, |_| 0, dry1),
            (Some(4), 2)
        );
        // Two attempts only: nodes 1 and 2 dry, node 3 is never reached.
        let only3 = &mut Table::new(&t, &[0, 0, 0, 0, 0, 0, 2, 2]);
        assert_eq!(
            policy.pick_remote(&t, &order, UNLEASED, |_| 0, only3),
            (None, 2)
        );
        assert_eq!(
            policy.pick_remote(&t, &order, UNLEASED, |_| 2, only3),
            (Some(6), 1)
        );
        // The rotation is drawn once per non-empty ring; none on one node.
        let mut draws = 0;
        let flat = MachineTopology::flat(4);
        let alone = VictimOrder::new(&flat, 0);
        let pick = policy.pick_remote(
            &flat,
            &alone,
            UNLEASED,
            |_| {
                draws += 1;
                0
            },
            &mut Table::new(&flat, &shared[..4]),
        );
        assert_eq!((pick, draws), ((None, 0), 0));
    }

    #[test]
    fn a_truthful_census_changes_no_pick_no_count_and_no_draw() {
        let shapes = [
            MachineTopology::try_new(&[2, 2, 2], 1).unwrap(),
            MachineTopology::try_new(&[2, 2, 2, 2], 2).unwrap(),
            MachineTopology::try_new(&[4, 2], 1).unwrap(),
            MachineTopology::clustered(64, 4),
        ];
        let mut gen = SplitMix64::new(0xD12F);
        let (mut skipped, mut read) = (0, 0);
        for t in &shapes {
            let n = t.total_workers();
            for (scan_order, victim_select) in [
                (ScanOrder::DistanceAware, VictimSelect::Greedy),
                (ScanOrder::DistanceAware, VictimSelect::MaxSteal),
                (ScanOrder::Flat, VictimSelect::Greedy),
                (ScanOrder::Flat, VictimSelect::MaxSteal),
            ] {
                let policy = StealPolicy {
                    scan_order,
                    victim_select,
                    ..StealPolicy::default()
                };
                for table in 0..12 {
                    // Seeded surplus tables: all zero, one viable pool,
                    // lone (retained) items only, then sparse ones.
                    let mut shared = vec![0u64; n];
                    match table {
                        0 => {}
                        1 => shared[gen.below_usize(n)] = 2 + gen.below(6),
                        2 => shared.iter_mut().for_each(|s| *s = gen.below(2)),
                        _ => {
                            for s in &mut shared {
                                if gen.below(4) == 0 {
                                    *s = gen.below(8);
                                }
                            }
                        }
                    }
                    let busy: Vec<bool> = (0..n).map(|_| gen.below(3) == 0).collect();
                    for lease in [UNLEASED, n as u64 / 2] {
                        for me in 0..n {
                            let mut order = VictimOrder::new(t, me);
                            for _ in 0..gen.below(3) {
                                order.record_success(t, gen.below_usize(n));
                            }
                            let seed = gen.next_u64();
                            let scan = |census: bool| {
                                let mut view = Table::new(t, &shared);
                                view.busy.clone_from(&busy);
                                view.census = census.then_some(lease);
                                let mut rng = SplitMix64::new(seed);
                                let local = policy.pick_local(
                                    t,
                                    &order,
                                    lease,
                                    |k| rng.below_usize(k),
                                    &mut view,
                                );
                                let remote = policy.pick_remote(
                                    t,
                                    &order,
                                    lease,
                                    |k| rng.below_usize(k),
                                    &mut view,
                                );
                                (local, remote, rng.next_u64(), view)
                            };
                            let (blind, told) = (scan(false), scan(true));
                            let what =
                                format!("{:?} {policy:?} lease {lease} thief {me}", t.shape());
                            assert_eq!(told.0, blind.0, "{what}: local (victim, inspected)");
                            assert_eq!(told.1, blind.1, "{what}: remote (victim, probes)");
                            assert_eq!(told.2, blind.2, "{what}: the random stream");
                            let view = told.3;
                            for &w in &view.reads {
                                assert!(!view.dry(t.node_of(w), lease), "{what}: read {w}");
                            }
                            skipped += blind.3.reads.len() - view.reads.len();
                            read += view.reads.len();
                        }
                    }
                }
            }
        }
        assert!(
            skipped > read,
            "dry nodes dominate sparse tables: {skipped} vs {read}"
        );
    }

    #[test]
    fn outcomes_move_affinity_only_under_the_distance_aware_scan() {
        let t = topo();
        for (scan_order, warm) in [(ScanOrder::DistanceAware, Some(2)), (ScanOrder::Flat, None)] {
            let policy = StealPolicy {
                scan_order,
                ..StealPolicy::default()
            };
            let mut order = VictimOrder::new(&t, 0);
            policy.record_outcome(&t, &mut order, 2, true);
            assert_eq!(order.affinity_at(1), warm, "{scan_order:?}");
            policy.record_outcome(&t, &mut order, 2, false);
            assert_eq!(order.affinity_at(1), None);
        }
    }

    #[test]
    fn a_paccs_grant_is_the_floor_half_under_the_distance_cap() {
        let t = MachineTopology::try_new(&[2, 2, 2], 1).unwrap();
        let policy = StealPolicy {
            chunk_policy: ChunkPolicy::DistanceScaled { base: 4, factor: 2 },
            ..StealPolicy::default()
        };
        // Caps 4, 6, 8 at distances 1, 2, 3 from agent 0.
        for (thief, cap) in [(1, 4), (2, 6), (4, 8)] {
            for queued in 0..40u64 {
                assert_eq!(
                    policy.paccs_grant(&t, 0, thief, queued),
                    (queued / 2).min(cap),
                    "thief {thief}, {queued} queued"
                );
            }
        }
        assert_eq!(policy.paccs_grant(&t, 0, 4, 1), 0, "a lone item stays");
    }

    #[test]
    fn constants_have_one_home() {
        assert_eq!(LEADER_REFRESH, 8);
        assert_eq!(
            (backoff_factor(0), backoff_factor(6), backoff_factor(40)),
            (1, 64, 64)
        );
        assert_eq!(StealPolicy::default().reacquire_width(), 16);
    }
}
