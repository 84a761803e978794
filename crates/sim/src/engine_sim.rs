//! The discrete-event driver: MaCS and PaCCS balancers in virtual time.
//! Every worker is a [`WorkerMachine`] of its protocol; `Sim::drive`
//! charges each of its actions from the [`CostModel`] and schedules the
//! next step.
//!
//! # The event core, at scale
//!
//! The simulator is built to run 64k–262k virtual workers in minutes, so
//! every per-event and per-worker cost is bounded:
//!
//! * **Two-tier event queue** (`EventQueue`): each worker has at most
//!   one live event, keyed `(time, seq)` with a globally monotone
//!   sequence id — a strict total order with unique keys, so same-time
//!   events fire in schedule order, every same-seed run replays
//!   bit-identically (the `prop_determinism` suite pins this via the
//!   event-trace hash), and the pop sequence does not depend on the
//!   queue's shape. Idle wakes, most events at scale, wait in sorted
//!   FIFO lanes; every other event in an indexed 4-ary min-heap whose
//!   packed keys sit in the heap array itself.
//! * **Slot arena** (`SlotArena`): work items live in one flat `u64`
//!   buffer of fixed `slot_words` slots; pools and steal responses move
//!   `u32` slot ids, not boxed allocations.
//! * **One line per probe** (`Probe`, in `probes.rs`): what other
//!   workers read of a worker — its pool and MaCS mailbox — is a dense
//!   array of line-aligned records beside the (1 KB) per-worker state,
//!   and a per-node census counts the pools with viable surplus. A
//!   failed steal round, nine events in ten at scale, reads a node's
//!   adjacent lines only when its census is non-zero: a dry node is
//!   passed unread, with the same charge and the same random draws.
//! * **Lazy rings**: victim rings are O(1) range views computed from the
//!   topology's mixed-radix arithmetic ([`MachineTopology::peers_at`],
//!   [`MachineTopology::node_ring_at`]) — materialising them per worker
//!   would cost O(workers²) memory, tens of GB at 64k cores.
//! * **Lazy processors**: a worker's real search kernel is only built on
//!   the first node it actually expands; at 64k cores most workers never
//!   touch the (small) tree. A worker without one reports
//!   `P::Output::default()`, which equals what `finish` returns for an
//!   untouched processor.

use std::collections::VecDeque;
use std::rc::Rc;

use macs_runtime::{
    BoundPolicy, MachineTopology, PhaseTimers, ProcCtx, Processor, ScanOrder, Step, WorkSink,
    WorkerState,
};
use macs_search::steal::UNLEASED;
use macs_search::{
    Action, AdaptiveBatch, Outcome, ScanView, StealPolicy, WorkerMachine, WorkerView,
};

use crate::cost::{CostModel, NodeCost};
use crate::fabric::{FabricModel, NetFabric};
use crate::incumbent::{BoundFabric, SimIncumbent};
use crate::probes::{Probes, ReplyPools};
use crate::report::{SimReport, SimWorkerStats};

/// Which balancer protocol to simulate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimMode {
    /// MaCS: split pools, one-sided scans, mailbox + in-place response.
    Macs,
    /// PaCCS: two-sided request/reply served at node granularity,
    /// neighbourhood sweeps, controller-routed bounds.
    Paccs,
}

/// Simulation configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    pub topology: MachineTopology,
    pub costs: CostModel,
    /// The steal protocol's knobs — the same struct `RuntimeConfig`
    /// embeds, read by the one rulebook in [`macs_search::steal`].
    pub steal: StealPolicy,
    /// When incumbent improvements reach other virtual workers:
    /// `Immediate` (flat eager broadcast — the default, and the
    /// pre-hierarchical behaviour), `Periodic` (cached reads), or
    /// `Hierarchical` (node-leader broadcast tree with per-level delivery
    /// delay). See [`crate::incumbent::BoundFabric`].
    pub bound_policy: BoundPolicy,
    /// Flat incumbent visibility delay (`Immediate`/`Periodic`); `None`
    /// derives it from the fabric latency (1× for MaCS' global cell, 2×
    /// for PaCCS' controller hop). `Hierarchical` prices each delivery by
    /// its path through the topology instead.
    pub bound_delay_ns: Option<u64>,
    /// How remote steal-plane messages are priced: flat per-ring latency,
    /// or finite link capacity with FIFO queueing (steal storms pay
    /// backpressure instead of flat latency). See [`FabricModel`].
    pub fabric: FabricModel,
    pub seed: u64,
}

impl SimConfig {
    pub fn new(topology: MachineTopology) -> Self {
        SimConfig {
            topology,
            costs: CostModel::default(),
            steal: StealPolicy::default(),
            bound_policy: BoundPolicy::Immediate,
            bound_delay_ns: None,
            fabric: FabricModel::default(),
            seed: 0x51D,
        }
    }

    /// The paper's cluster shape at `total` virtual cores (4 per node).
    pub fn paper_cluster(total: usize) -> Self {
        SimConfig::new(MachineTopology::clustered(total, 4))
    }

    /// Replace the cost model — typically one loaded from a
    /// `calibrate`-emitted (or hand-written) model file. Every consumer —
    /// node charging, steal pricing, the contention fabric's wire
    /// constants, bound propagation — reads from it; nothing falls back
    /// to the built-in constants.
    pub fn with_cost_model(mut self, costs: CostModel) -> Self {
        self.costs = costs;
        self
    }
}

// ---------------------------------------------------------------------------
// event queue
// ---------------------------------------------------------------------------

const ABSENT: u32 = u32::MAX;

/// `lane_seq` of a worker with no live lane entry (sequence ids start
/// at 1).
const NO_SEQ: u64 = 0;

/// The event queue: one live event per worker, keyed by `(due instant,
/// monotone sequence id)` packed into one `u128`. The sequence id is
/// bumped on every schedule, so keys are unique and `(due, seq)` is a
/// strict total order: the pop sequence is fixed by the keys alone,
/// whatever tier an event waits in (why every trace hash survives a
/// change of queue). Rescheduling a worker supersedes its one pending
/// event wherever it sits.
///
/// Two tiers hold the events:
/// * an indexed **4-ary min-heap** with the key *in* the heap array (a
///   sift compares adjacent words, not `key[heap[i]]`); a re-key moves
///   the worker's slot in place (O(log₄ n));
/// * **idle lanes**: FIFOs of idle wakes, one per offset between a
///   wake's due instant and the instant of the pop that scheduled it.
///   The pops' instants never decrease (every event is scheduled at or
///   after the clock), so a lane receives its keys in increasing order
///   and is sorted as it stands: its front is its minimum, and a wake
///   costs a push and a pop instead of a heap insert and a sift down. A
///   lane entry whose worker was re-keyed since is stale and is dropped
///   when it reaches the front.
///
/// `pop` takes the smaller of the heap top and the lane fronts.
struct EventQueue {
    /// `due << 64 | seq` of each heap event, in heap order.
    keys: Vec<u128>,
    /// `who[i]` = the worker whose event sits in heap slot `i`.
    who: Vec<u32>,
    /// `pos[w]` = heap slot of `w`'s live event, or [`ABSENT`].
    pos: Vec<u32>,
    lanes: Vec<Lane>,
    /// `fronts[l]` = key of lane `l`'s front entry, or `u128::MAX` while
    /// it is empty: what `pop` compares, in one dense array.
    fronts: Vec<u128>,
    /// `lane_seq[w]` = sequence id of `w`'s live lane entry, or
    /// [`NO_SEQ`]: an entry of `w` with any other id is stale.
    lane_seq: Vec<u64>,
    /// Due instant of the last pop; no event is scheduled before it.
    clock: u64,
    /// Events popped from the heap and from the lanes.
    heap_pops: u64,
    lane_pops: u64,
}

/// A FIFO of idle wakes scheduled `offset` after the pop that scheduled
/// them (any offset while it is empty).
struct Lane {
    offset: u64,
    /// `(due << 64 | seq, worker)`, in increasing key order.
    wakes: VecDeque<(u128, u32)>,
}

impl EventQueue {
    const ARITY: usize = 4;

    fn new(n: usize) -> Self {
        assert!(n < ABSENT as usize, "too many workers for the event queue");
        EventQueue {
            keys: Vec::with_capacity(n),
            who: Vec::with_capacity(n),
            pos: vec![ABSENT; n],
            lanes: Vec::new(),
            fronts: Vec::new(),
            lane_seq: vec![NO_SEQ; n],
            clock: 0,
            heap_pops: 0,
            lane_pops: 0,
        }
    }

    /// The packed key of an event at `t` with sequence id `seq`.
    fn key(&self, t: u64, seq: u64) -> u128 {
        // The lanes' order rests on a clock that never goes back.
        assert!(t >= self.clock, "an event before the clock");
        debug_assert_ne!(seq, NO_SEQ);
        (t as u128) << 64 | seq as u128
    }

    /// Insert or reschedule worker `w`'s (single) event in the heap.
    fn schedule(&mut self, w: usize, t: u64, seq: u64) {
        let key = self.key(t, seq);
        self.lane_seq[w] = NO_SEQ;
        let i = match self.pos[w] {
            ABSENT => {
                self.keys.push(key);
                self.who.push(w as u32);
                self.keys.len() - 1
            }
            i => i as usize,
        };
        self.settle(i, key, w as u32);
    }

    /// Schedule worker `w`'s idle wake at `t`, superseding its pending
    /// event: at the back of the lane of its offset from the clock.
    fn schedule_idle(&mut self, w: usize, t: u64, seq: u64) {
        let key = self.key(t, seq);
        if self.pos[w] != ABSENT {
            self.remove(self.pos[w] as usize);
        }
        self.lane_seq[w] = seq;
        let offset = t - self.clock;
        let l = match self.lanes.iter().position(|l| l.offset == offset) {
            Some(l) => l,
            None => match self.lanes.iter().position(|l| l.wakes.is_empty()) {
                Some(l) => l,
                None => {
                    self.lanes.push(Lane {
                        offset,
                        wakes: VecDeque::new(),
                    });
                    self.fronts.push(u128::MAX);
                    self.lanes.len() - 1
                }
            },
        };
        let lane = &mut self.lanes[l];
        lane.offset = offset;
        debug_assert!(lane.wakes.back().is_none_or(|&(k, _)| k < key));
        if lane.wakes.is_empty() {
            self.fronts[l] = key;
        }
        lane.wakes.push_back((key, w as u32));
    }

    /// Take the earliest event: `(due instant, worker)`.
    fn pop(&mut self) -> Option<(u64, usize)> {
        loop {
            // The smallest front: the heap top's key, or a lane's.
            let (mut key, mut lane) = (self.keys.first().copied(), None);
            for (l, &k) in self.fronts.iter().enumerate() {
                if k < key.unwrap_or(u128::MAX) {
                    (key, lane) = (Some(k), Some(l));
                }
            }
            let key = key?;
            let w = match lane {
                None => {
                    let w = self.who[0];
                    self.remove(0);
                    self.heap_pops += 1;
                    w
                }
                Some(l) => {
                    let wakes = &mut self.lanes[l].wakes;
                    let (_, w) = wakes.pop_front()?;
                    self.fronts[l] = wakes.front().map_or(u128::MAX, |&(k, _)| k);
                    if self.lane_seq[w as usize] != key as u64 {
                        continue; // stale: its worker was re-keyed since
                    }
                    self.lane_seq[w as usize] = NO_SEQ;
                    self.lane_pops += 1;
                    w
                }
            };
            self.clock = (key >> 64) as u64;
            return Some((self.clock, w as usize));
        }
    }

    /// Take the event in heap slot `i` out of the heap.
    fn remove(&mut self, i: usize) {
        self.pos[self.who[i] as usize] = ABSENT;
        // The last slot's event fills the hole.
        self.keys.swap_remove(i);
        self.who.swap_remove(i);
        if i < self.keys.len() {
            self.settle(i, self.keys[i], self.who[i]);
        }
    }

    /// Put `(key, w)` into heap slot `i`, sifting whichever way restores
    /// the heap order.
    fn settle(&mut self, i: usize, key: u128, w: u32) {
        if i > 0 && key < self.keys[(i - 1) / Self::ARITY] {
            self.sift_up(i, key, w);
        } else {
            self.sift_down(i, key, w);
        }
    }

    /// Store `(key, w)` in slot `i`.
    #[inline]
    fn place(&mut self, i: usize, key: u128, w: u32) {
        self.keys[i] = key;
        self.who[i] = w;
        self.pos[w as usize] = i as u32;
    }

    /// Move the hole at `i` rootwards past every larger ancestor, then
    /// fill it with `(key, w)`: one store a level.
    fn sift_up(&mut self, mut i: usize, key: u128, w: u32) {
        while i > 0 {
            let p = (i - 1) / Self::ARITY;
            if key >= self.keys[p] {
                break;
            }
            self.place(i, self.keys[p], self.who[p]);
            i = p;
        }
        self.place(i, key, w);
    }

    /// Move the hole at `i` leafwards past its smallest child while that
    /// child is smaller than `key`, then fill it with `(key, w)`.
    fn sift_down(&mut self, mut i: usize, key: u128, w: u32) {
        let n = self.keys.len();
        loop {
            let c = Self::ARITY * i + 1;
            let m = if c + Self::ARITY <= n {
                // A full family: a branch-free tournament (each pick is a
                // conditional move; which child wins is unpredictable).
                let k = &self.keys[c..c + Self::ARITY];
                let a = if k[1] < k[0] { 1 } else { 0 };
                let b = if k[3] < k[2] { 3 } else { 2 };
                c + if k[b] < k[a] { b } else { a }
            } else if c < n {
                (c + 1..n).fold(c, |m, j| if self.keys[j] < self.keys[m] { j } else { m })
            } else {
                break;
            };
            if self.keys[m] >= key {
                break;
            }
            self.place(i, self.keys[m], self.who[m]);
            i = m;
        }
        self.place(i, key, w);
    }
}

// ---------------------------------------------------------------------------
// slot arena
// ---------------------------------------------------------------------------

/// Arena of fixed-size work-item slots (`slot_words` `u64`s each — the
/// `Processor` contract). Pools, mailboxes and steal batches move `u32`
/// slot ids; the only copies are into a slot at stage time and out into
/// the worker's in-hand buffer at adoption.
struct SlotArena {
    words: usize,
    data: Vec<u64>,
    free_ids: Vec<u32>,
    live: u64,
    peak: u64,
}

impl SlotArena {
    fn new(words: usize) -> Self {
        SlotArena {
            words: words.max(1),
            data: Vec::new(),
            free_ids: Vec::new(),
            live: 0,
            peak: 0,
        }
    }

    fn alloc(&mut self, item: &[u64]) -> u32 {
        assert!(item.len() <= self.words, "work item exceeds slot_words");
        let id = match self.free_ids.pop() {
            Some(id) => id,
            None => {
                let id = (self.data.len() / self.words) as u32;
                assert!(id < ABSENT, "slot arena overflow");
                self.data.resize(self.data.len() + self.words, 0);
                id
            }
        };
        let at = id as usize * self.words;
        self.data[at..at + item.len()].copy_from_slice(item);
        self.data[at + item.len()..at + self.words].fill(0);
        self.live += 1;
        self.peak = self.peak.max(self.live);
        id
    }

    #[inline]
    fn get(&self, id: u32) -> &[u64] {
        let at = id as usize * self.words;
        &self.data[at..at + self.words]
    }

    #[inline]
    fn release(&mut self, id: u32) {
        self.live -= 1;
        self.free_ids.push(id);
    }
}

// ---------------------------------------------------------------------------
// shared worker plumbing
// ---------------------------------------------------------------------------

/// A steal reply: the (possibly multi-chunk) batch of arena slot ids —
/// empty for a refusal — and the serving victim, so the thief can account
/// distance and affinity.
struct Resp {
    batch: Vec<u32>,
    victim: usize,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Boot,
    Finish,
    ApplySteal {
        victim: usize,
    },
    Wait,
    /// Injected service wake for a parked PaCCS victim: serve the request
    /// queue, then re-park.
    Serve,
    Idle {
        round: u32,
    },
}

/// Event-trace tag: phase discriminant plus its payload, mixed into the
/// determinism trace hash.
fn phase_tag(p: Phase) -> u64 {
    match p {
        Phase::Boot => 0,
        Phase::Finish => 1,
        Phase::ApplySteal { victim } => 2 | ((victim as u64) << 3),
        Phase::Wait => 3,
        Phase::Serve => 4,
        Phase::Idle { round } => 5 | ((round as u64) << 3),
    }
}

/// FNV-1a's 64-bit offset basis: where every fold of this workspace
/// (event trace, report digests) starts.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// `FNV_PRIME^k` (wrapping) for `k` in `0..=8`.
const FNV_PRIME_POW: [u64; 9] = {
    let mut pow = [1u64; 9];
    let mut k = 1;
    while k < 9 {
        pow[k] = pow[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    pow
};

/// FNV-1a over the eight little-endian bytes of `v`. A zero byte's step
/// is `h * P` (xor with 0 is the identity), so the zero high bytes of a
/// small `v` — most of a worker id, a phase tag, an instant — fold into
/// one multiply by a power of `P`: the textbook value, without the dead
/// dependent multiplies (three folds an event: 24 of them become ~10).
#[inline]
pub fn fnv1a(mut h: u64, mut v: u64) -> u64 {
    let live = (71 - v.leading_zeros() as usize) / 8;
    for _ in 0..live {
        h = (h ^ (v & 0xff)).wrapping_mul(FNV_PRIME);
        v >>= 8;
    }
    h.wrapping_mul(FNV_PRIME_POW[8 - live])
}

struct SimSink<'a> {
    arena: &'a mut SlotArena,
    staged: &'a mut Vec<u32>,
    solutions: &'a mut u64,
    cancelled: &'a mut bool,
}

impl WorkSink for SimSink<'_> {
    fn push(&mut self, item: &[u64]) {
        self.staged.push(self.arena.alloc(item));
    }
    fn solution(&mut self) {
        *self.solutions += 1;
    }
    /// Stage a cancellation request (first-solution race): the winner flag
    /// is raised at this node's virtual *completion* instant, in
    /// [`Sim::finish_node`].
    fn cancel(&mut self) {
        *self.cancelled = true;
    }
}

/// A raised winner flag: the virtual instant the winning node completed
/// and where it ran. Every other worker *observes* it only after the flag
/// has travelled the hierarchical winner route (node leader → remote
/// leaders → their nodes, priced per level like a hierarchical bound
/// update) — nodes started in that window are the race's overhead.
#[derive(Clone, Copy, Debug)]
struct Win {
    t: u64,
}

struct VW<'c, P: Processor> {
    /// The in-hand work item (`slot_words` long; live iff `has_cur`).
    /// Kept as an owned buffer, not an arena slot: `process()` mutates it
    /// in place while the sink allocates new slots from the same arena.
    cur: Box<[u64]>,
    has_cur: bool,
    staged: Vec<u32>,
    staged_step: Step,
    staged_solutions: u64,
    staged_cancel: bool,
    /// The real search kernel — built lazily on the first node this
    /// worker expands (at 64k+ cores most workers never get one).
    proc: Option<P>,
    inc: Rc<SimIncumbent>,
    timers: PhaseTimers,
    stats: SimWorkerStats,
    /// The worker's control flow, MaCS or PaCCS.
    machine: WorkerMachine<'c>,
    phase: Phase,
    charge_state: WorkerState,
    cursor: u64,
    /// PaCCS: a queue of pending requests.
    req_queue: VecDeque<(usize, u64)>,
    inbox: Option<Resp>,
    /// Response-batch tuner for [`ChunkPolicy::Adaptive`] (victim side).
    adaptive: AdaptiveBatch,
}

/// What the victim scans read, for host-time attribution: `Probe` lines
/// read, and nodes passed unread because the census had them dry.
#[derive(Default)]
struct ScanTally {
    probe_reads: u64,
    dry_skips: u64,
}

/// What a virtual worker observes at one instant: the probe lines and
/// their census, and whether the winner flag has reached it. Never
/// leased.
struct SimView<'a> {
    me: usize,
    probes: &'a Probes,
    won: bool,
    tally: &'a mut ScanTally,
}

impl ScanView for SimView<'_> {
    fn shared_len(&mut self, w: usize) -> u64 {
        self.tally.probe_reads += 1;
        self.probes[w].shared() as u64
    }

    fn probe_remote(&mut self, w: usize) -> Option<u64> {
        // An empty pool has no surplus whatever its mailbox holds: skip
        // that second read (most probes at scale end here).
        self.tally.probe_reads += 1;
        let p = &self.probes[w];
        let shared = p.shared() as u64;
        (shared == 0 || p.pending_req.is_none()).then_some(shared)
    }

    fn node_dry(&mut self, n: usize) -> bool {
        let dry = self.probes.dry(n);
        // No message: formatting one here costs the release scan its
        // inlining (measured, in the `debug = true` release profile).
        debug_assert!(self.probes.census_holds(n));
        self.tally.dry_skips += u64::from(dry);
        dry
    }
}

impl WorkerView for SimView<'_> {
    fn own_lens(&mut self) -> (u64, u64) {
        let p = &self.probes[self.me];
        (p.private() as u64, p.shared() as u64)
    }

    fn won(&mut self) -> bool {
        self.won
    }
}

// ---------------------------------------------------------------------------
// the simulator
// ---------------------------------------------------------------------------

struct Sim<'c, P: Processor, F: FnMut(usize) -> P> {
    cfg: &'c SimConfig,
    mode: SimMode,
    slot_words: usize,
    factory: F,
    workers: Vec<VW<'c, P>>,
    /// `probes[w]` = worker `w`'s pool and mailbox (see
    /// [`Probe`](crate::probes::Probe)), with the per-node census.
    probes: Probes,
    tally: ScanTally,
    arena: SlotArena,
    events: EventQueue,
    /// Monotone event sequence — the deterministic tie-break.
    seq: u64,
    outstanding: i64,
    fabric: Rc<BoundFabric>,
    /// The steal-plane message fabric (latency or contention pricing,
    /// plus the conservation books).
    net: NetFabric,
    /// The winner flag of a first-solution race, once raised.
    win: Option<Win>,
    /// Virtual instant at which each worker observes the winner flag
    /// (`u64::MAX` until a win; filled from the hierarchical route's
    /// per-level delivery delay when the flag is raised).
    win_seen: Vec<u64>,
    /// Prices the winner flag's delivery path (always the hierarchical
    /// node-leader route, independent of the *bound* policy under test).
    winner_fabric: BoundFabric,
    /// Work-unit conservation counters (see `SimReport`).
    nodes_after_win: u64,
    abandoned: u64,
    completed: u64,
    end_time: Option<u64>,
    /// Events dispatched (one per queue pop).
    n_events: u64,
    /// FNV-1a fold of `(t, worker, phase tag)` per dispatched event — the
    /// bit-identical replay witness.
    trace: u64,
}

impl<'c, P: Processor, F: FnMut(usize) -> P> Sim<'c, P, F> {
    fn schedule(&mut self, wi: usize, t: u64, state: WorkerState, phase: Phase) {
        // Idle wakes wait in the lanes (`enter_idle`), never in the heap.
        debug_assert!(
            !matches!(phase, Phase::Idle { .. }),
            "idle wake on the heap"
        );
        let seq = self.rekey(wi, state, phase);
        self.events.schedule(wi, t, seq);
    }

    /// Set what `wi` does at its next event and the state its wait is
    /// charged to; returns the event's sequence id.
    fn rekey(&mut self, wi: usize, state: WorkerState, phase: Phase) -> u64 {
        self.workers[wi].charge_state = state;
        self.workers[wi].phase = phase;
        self.seq += 1;
        self.seq
    }

    /// Direct charge: `ns` of `state` at the worker's current instant.
    fn charge(&mut self, wi: usize, state: WorkerState, ns: u64, now: &mut u64) {
        self.workers[wi].stats.state_ns[state as usize] += ns;
        *now += ns;
        self.workers[wi].cursor = *now;
    }

    /// The virtual cost of one node: the model's mean, ± its
    /// deterministic jitter drawn from the worker's own stream.
    fn node_cost(&mut self, wi: usize) -> u64 {
        let NodeCost { ns, jitter_pct } = self.cfg.costs.node;
        if jitter_pct == 0 {
            ns
        } else {
            let j = jitter_pct as u64;
            let f = 100 - j + self.workers[wi].machine.rng().below(2 * j + 1);
            ns * f / 100
        }
    }

    /// Run the real processor on the current item, staging its effects;
    /// schedule the Finish event.
    fn start_node(&mut self, wi: usize, now: u64) {
        let cost = self.node_cost(wi);
        let node_id = self.cfg.topology.node_of(wi);
        let t_bound = now + cost;
        // Stale-expansion reference, snapshotted *before* the node runs so
        // a solution this very step submits does not count its own
        // discovering expansion as stale.
        let ref_min = self.fabric.submitted_min(t_bound);
        let (step, seen) = {
            let Sim {
                workers,
                arena,
                factory,
                ..
            } = self;
            let w = &mut workers[wi];
            let inc = Rc::clone(&w.inc);
            inc.set_now(t_bound);
            debug_assert!(w.has_cur, "start_node without current");
            let step = {
                let mut sink = SimSink {
                    arena,
                    staged: &mut w.staged,
                    solutions: &mut w.staged_solutions,
                    cancelled: &mut w.staged_cancel,
                };
                let mut ctx = ProcCtx::new(wi, node_id, &mut w.timers, &*inc, &mut sink);
                w.proc
                    .get_or_insert_with(|| factory(wi))
                    .process(&mut w.cur, &mut ctx)
            };
            (step, inc.take_last_seen())
        };
        self.workers[wi].staged_step = step;
        // Wasted-work accounting: the node ran under a bound worse than
        // the best value already *submitted* somewhere — an expansion an
        // ideal zero-delay fabric might have pruned.
        if seen > ref_min {
            self.workers[wi].stats.stale_bound_nodes += 1;
        }
        self.schedule(wi, now + cost, WorkerState::Working, Phase::Finish);
    }

    /// Copy an arena item into `wi`'s hand and free the slot.
    fn adopt(&mut self, wi: usize, id: u32) {
        let Sim { workers, arena, .. } = self;
        let w = &mut workers[wi];
        w.cur.copy_from_slice(arena.get(id));
        w.has_cur = true;
        arena.release(id);
    }

    /// Has `wi` seen the winner flag by virtual instant `t`?
    fn observed_win(&self, wi: usize, t: u64) -> bool {
        self.win.is_some() && self.win_seen[wi] <= t
    }

    /// Raise the winner flag at instant `t` from `origin` (first cancel
    /// wins) and price its delivery to every worker over the hierarchical
    /// node-leader route.
    fn publish_win(&mut self, origin: usize, t: u64) {
        if self.win.is_some() {
            return;
        }
        self.win = Some(Win { t });
        for (dest, seen) in self.win_seen.iter_mut().enumerate() {
            *seen = t.saturating_add(self.winner_fabric.delay_ns(origin, dest));
        }
    }

    /// Discard everything `wi` holds (pool + the item in hand): the
    /// abandon path of an observed win. Returns `true` if the whole
    /// computation just ended.
    fn drain_observed(&mut self, wi: usize, now: u64) -> bool {
        let n = self.probes[wi].len() as i64;
        for id in self.probes.clear(wi) {
            self.arena.release(id);
        }
        self.outstanding -= n;
        self.abandoned += n as u64;
        if std::mem::take(&mut self.workers[wi].has_cur) {
            self.outstanding -= 1;
            self.abandoned += 1;
        }
        if self.outstanding == 0 {
            self.end_time = Some(now);
            return true;
        }
        false
    }

    /// Apply the staged node results at its (virtual) completion instant.
    /// Returns `false` if the whole computation just ended.
    fn complete_node(&mut self, wi: usize, now: u64) -> bool {
        {
            let w = &mut self.workers[wi];
            w.stats.items += 1;
            w.stats.solutions += w.staged_solutions;
            w.staged_solutions = 0;
        }
        // A staged cancellation raises the winner flag at this node's
        // completion instant; the winner itself observes immediately.
        if std::mem::take(&mut self.workers[wi].staged_cancel) {
            self.publish_win(wi, now);
        }
        if let Some(win) = self.win {
            if now > win.t {
                // This node was still being expanded when the race was
                // already decided — the dissemination lag's bill.
                self.nodes_after_win += 1;
            }
        }
        let observed = self.observed_win(wi, now);
        let w = &mut self.workers[wi];
        let children = w.staged.len();
        w.stats.pushes += children as u64;
        // `drain` empties the child buffer and keeps its capacity for the
        // next node.
        if observed {
            // Children die before ever entering a pool; the unit in hand
            // completed if it was a leaf, and is abandoned mid-chain
            // otherwise.
            self.abandoned += children as u64;
            for id in w.staged.drain(..) {
                self.arena.release(id);
            }
            if w.staged_step == Step::Leaf {
                self.completed += 1;
            } else {
                self.abandoned += 1;
            }
            w.has_cur = false;
            self.outstanding -= 1;
        } else {
            self.outstanding += children as i64;
            self.probes.extend(wi, w.staged.drain(..));
            if w.staged_step == Step::Leaf {
                w.has_cur = false;
                self.outstanding -= 1;
                self.completed += 1;
            }
        }
        if self.outstanding == 0 {
            self.end_time = Some(now);
            return false;
        }
        true
    }

    /// Idle until `idle_backoff_ns` from now. The cadence is flat: every
    /// wake of a starving worker comes the same backoff after its steal
    /// scan, whatever the idle round its phase records. The wake waits in
    /// the queue's idle lanes, not in its heap.
    fn enter_idle(&mut self, wi: usize, now: u64, round: u32) {
        let backoff = self.cfg.costs.idle_backoff_ns.max(1);
        let seq = self.rekey(wi, WorkerState::Idle, Phase::Idle { round });
        self.events.schedule_idle(wi, now + backoff, seq);
    }

    // ----- message fabric ---------------------------------------------------

    /// One-way propagation latency between two workers, by how many
    /// remote rings the message crosses. The flat scan is distance-blind
    /// (the original single-tier fabric); distance-aware runs charge each
    /// further level.
    fn fabric_latency(&self, a: usize, b: usize) -> u64 {
        if self.cfg.steal.scan_order == ScanOrder::Flat {
            return self.cfg.costs.remote_latency_ns;
        }
        let topo = &self.cfg.topology;
        let rank = topo
            .distance(a, b)
            .saturating_sub(topo.local_distance_max());
        self.cfg.costs.remote_latency_for(rank.max(1))
    }

    /// Send a control message (request / refusal) from `a` to `b` at
    /// `now`; returns the arrival instant (queueing-priced under
    /// contention).
    fn send_ctrl(&mut self, a: usize, b: usize, now: u64) -> u64 {
        let prop = self.fabric_latency(a, b);
        let topo = &self.cfg.topology;
        let (fa, fb) = (topo.node_of(a), topo.node_of(b));
        let bytes = self.net.params().ctrl_bytes;
        self.net.send(fa, fb, bytes, prop, 0, now)
    }

    /// Send a work reply carrying `payload` bytes from `a` to `b` at
    /// `now`; under the flat model this is propagation + the per-byte
    /// transfer cost, under contention the payload serialises on both
    /// link directions.
    fn send_payload(&mut self, a: usize, b: usize, payload: u64, now: u64) -> u64 {
        let prop = self.fabric_latency(a, b);
        let flat = self.cfg.costs.transfer_ns(payload);
        let topo = &self.cfg.topology;
        let (fa, fb) = (topo.node_of(a), topo.node_of(b));
        let bytes = payload + self.net.params().header_bytes;
        self.net.send(fa, fb, bytes, prop, flat, now)
    }

    // ----- the virtual driver of `WorkerMachine` ------------------------------

    /// Step `wi`'s machine from `outcome` at `now`, performing every
    /// action that completes at once and charging it from the cost model,
    /// until one waits on the event queue — a node, a local steal's lock
    /// delay, a remote reply, a back-off — or the computation ends.
    fn drive(&mut self, wi: usize, mut now: u64, mut outcome: Outcome) {
        let cfg = self.cfg;
        let costs = &cfg.costs;
        loop {
            let (me, won) = (wi, self.observed_win(wi, now));
            let view = &mut SimView {
                me,
                won,
                probes: &self.probes,
                tally: &mut self.tally,
            };
            outcome = match self.workers[wi].machine.step(outcome, view) {
                Action::Expand => return self.start_node(wi, now),
                Action::Release(k) => {
                    self.charge(wi, WorkerState::Releasing, costs.release_ns, &mut now);
                    let m = self.probes.release(wi, k as usize);
                    let stats = &mut self.workers[wi].stats;
                    stats.releases += 1;
                    stats.released_items += m as u64;
                    Outcome::Ok
                }
                Action::Poll => Outcome::Polled {
                    hit: self.poll(wi, &mut now),
                },
                Action::AcquireOwn => Outcome::Acquired(self.acquire_own(wi, &mut now)),
                Action::StealLocal(victim) => {
                    self.charge_scan(wi, &mut now);
                    // The lock delay is the race window: the steal applies
                    // later. The flat baseline keeps the original
                    // distance-blind lock cost, mirroring `fabric_latency`.
                    let lock_ns = match cfg.steal.scan_order {
                        ScanOrder::Flat => costs.steal_local_ns,
                        ScanOrder::DistanceAware => {
                            costs.local_steal_ns(cfg.topology.distance(wi, victim))
                        }
                    };
                    let phase = Phase::ApplySteal { victim };
                    return self.schedule(wi, now + lock_ns, WorkerState::Stealing, phase);
                }
                Action::PostRequest(victim) => return self.post_request(wi, victim, now),
                Action::Drain => {
                    if self.drain_observed(wi, now) {
                        return;
                    }
                    Outcome::Ok
                }
                Action::Backoff(round) => {
                    self.charge_scan(wi, &mut now);
                    return self.enter_idle(wi, now, round);
                }
                Action::Park | Action::Done => {
                    unreachable!("a virtual worker is never leased, and stops with the event loop")
                }
            };
        }
    }

    /// Check the mailbox. A MaCS worker serves its one request or pays for
    /// an empty poll; a PaCCS agent pays the MPI progress check, then
    /// serves every request that has arrived. `true` if one was served.
    fn poll(&mut self, wi: usize, now: &mut u64) -> bool {
        let poll_ns = self.cfg.costs.poll_ns;
        if self.mode == SimMode::Paccs {
            self.charge(wi, WorkerState::Poll, poll_ns, now);
            return self.serve_requests_paccs(wi, now);
        }
        let hit = self.serve_request_macs(wi, now);
        if !hit {
            self.charge(wi, WorkerState::Poll, poll_ns, now);
            self.workers[wi].stats.polls += 1;
        }
        hit
    }

    /// Send `wi`'s steal request to `victim` and wait for the reply. MaCS
    /// pays for the scan and posts into the victim's mailbox. PaCCS sends
    /// a two-sided message into the victim's queue — half the post price,
    /// [`CostModel::local_msg_ns`] on node — and wakes a victim that
    /// itself waits on a reply, as a threaded agent serves requests while
    /// it waits.
    fn post_request(&mut self, wi: usize, victim: usize, mut now: u64) {
        let costs = &self.cfg.costs;
        if self.mode == SimMode::Macs {
            self.charge_scan(wi, &mut now);
            self.charge(wi, WorkerState::FindRemote, costs.post_request_ns, &mut now);
            let arrival = self.send_ctrl(wi, victim, now);
            self.probes[victim].pending_req = Some((wi, arrival));
        } else {
            let send_ns = costs.post_request_ns / 2;
            self.charge(wi, WorkerState::FindRemote, send_ns, &mut now);
            let arrival = if self.cfg.topology.is_local(wi, victim) {
                now + costs.local_msg_ns()
            } else {
                self.send_ctrl(wi, victim, now)
            };
            self.workers[victim].req_queue.push_back((wi, arrival));
            let v = &self.workers[victim];
            if v.phase == Phase::Wait && v.inbox.is_none() {
                self.schedule(victim, arrival, WorkerState::WaitRemote, Phase::Serve);
            }
        }
        // The victim's reply will wake us.
        self.workers[wi].phase = Phase::Wait;
        self.workers[wi].charge_state = WorkerState::WaitRemote;
    }

    /// The victim scans' price: a metadata read per local candidate, a
    /// one-sided read per remote node. Pool states cannot change within
    /// one event, so the reads are charged in one sum after the scan.
    fn charge_scan(&mut self, wi: usize, now: &mut u64) {
        let (costs, scan) = (&self.cfg.costs, self.workers[wi].machine.scan());
        let (local, remote) = (
            costs.pool_op_ns * scan.local,
            costs.find_remote_ns * scan.remote,
        );
        self.charge(wi, WorkerState::Searching, local, now);
        self.charge(wi, WorkerState::SearchingRemote, remote, now);
    }

    /// Own private region, then a reacquire of the own shared region (R8);
    /// `true` if an item came to hand. A PaCCS deque never releases, so
    /// this is its LIFO pop.
    fn acquire_own(&mut self, wi: usize, now: &mut u64) -> bool {
        let pool_op = self.cfg.costs.pool_op_ns;
        self.charge(wi, WorkerState::Searching, pool_op, now);
        let mut popped = self.probes.pop_private(wi);
        if popped.is_none() && self.probes[wi].shared() > 0 {
            let release_ns = self.cfg.costs.release_ns;
            self.charge(wi, WorkerState::Searching, release_ns, now);
            let width = self.cfg.steal.reacquire_width() as usize;
            self.probes.reacquire(wi, width);
            popped = self.probes.pop_private(wi);
        }
        popped.map(|id| self.adopt(wi, id)).is_some()
    }

    /// A local steal of `wi` from `v` lands, after its lock delay.
    fn steal_local(&mut self, wi: usize, v: usize, now: &mut u64) -> Outcome {
        let won = self.observed_win(wi, *now);
        let stats = &mut self.workers[wi].stats;
        if won {
            // The winner flag reached this thief during the lock delay:
            // stealing now would only move work its owner is about to
            // discard. Leave the victim's pool alone: a drain, not a steal.
            stats.drain_steals += 1;
            return Outcome::Stole { items: 0, won };
        }
        let cfg = self.cfg;
        let shared = self.probes[v].shared() as u64;
        let want = cfg
            .steal
            .local_grant(&cfg.topology, wi, v, shared, UNLEASED);
        let batch: Vec<u32> = self.probes.steal(v, want as usize).collect();
        if batch.is_empty() {
            // The victim looked loaded at scan time but was drained: a
            // failed local steal (the race the paper counts).
            stats.local_steal_failures += 1;
        } else {
            stats.local_steals += 1;
            stats.local_steal_items += batch.len() as u64;
        }
        let items = self.adopt_batch(wi, v, batch, now);
        Outcome::Stole { items, won }
    }

    /// A steal reply reaches thief `wi` at `now`: live work is adopted and
    /// counted; a reply that raced an observed win is abandoned (its
    /// items stayed outstanding in flight, so the books settle here).
    /// `None` if that ended the computation.
    fn land_reply(&mut self, wi: usize, resp: Resp, now: &mut u64) -> Option<Outcome> {
        let Resp { batch, victim } = resp;
        // Conservation: the reply is consumed here. PaCCS also routes
        // same-node replies through its queue (at poll latency) — those
        // never entered the fabric.
        let local = self.cfg.topology.is_local(wi, victim);
        if !local {
            self.net.deliver();
        }
        let (items, won) = (batch.len() as u64, self.observed_win(wi, *now));
        let stats = &mut self.workers[wi].stats;
        if items == 0 {
            *if local {
                &mut stats.local_steal_failures
            } else {
                &mut stats.remote_steal_failures
            } += 1;
            return Some(Outcome::MISSED);
        }
        if won {
            // The reply raced the winner flag and lost: the steal lands in
            // the drain bucket — not in `remote_steals` or the distance
            // histogram, which count only steals that delivered live work.
            stats.drain_steals += 1;
            self.outstanding -= items as i64;
            self.abandoned += items;
            for id in batch {
                self.arena.release(id);
            }
            if self.outstanding == 0 {
                self.end_time = Some(*now);
                return None;
            }
            return Some(Outcome::Stole { items, won });
        }
        let (steals, stolen) = if local {
            (&mut stats.local_steals, &mut stats.local_steal_items)
        } else {
            (&mut stats.remote_steals, &mut stats.remote_steal_items)
        };
        *steals += 1;
        *stolen += items;
        self.adopt_batch(wi, victim, batch, now);
        Some(Outcome::Stole { items, won: false })
    }

    /// Take a batch stolen from `victim`, if any: the per-item copy is
    /// charged, the distance recorded, the oldest item goes into `wi`'s
    /// hand and the rest into its pool. Returns its length.
    fn adopt_batch(&mut self, wi: usize, victim: usize, ids: Vec<u32>, now: &mut u64) -> u64 {
        let n = ids.len() as u64;
        let mut it = ids.into_iter();
        let Some(first) = it.next() else {
            return 0;
        };
        self.charge(
            wi,
            WorkerState::Stealing,
            self.cfg.costs.per_item_ns * n,
            now,
        );
        let d = self.cfg.topology.distance(wi, victim);
        self.workers[wi].stats.steals_by_distance.record(d);
        self.adopt(wi, first);
        self.probes.extend(wi, it);
        n
    }

    /// Victim side: serve the (single) pending MaCS request, with proxy
    /// fulfilment. Returns true if a request was found.
    fn serve_request_macs(&mut self, wi: usize, now: &mut u64) -> bool {
        let Some((thief, arrival)) = self.probes[wi].pending_req else {
            return false;
        };
        if arrival > *now {
            return false;
        }
        self.probes[wi].pending_req = None;
        self.net.deliver();
        let poll_ns = self.cfg.costs.poll_ns;
        self.charge(wi, WorkerState::Poll, poll_ns, now);
        self.workers[wi].stats.polls += 1;

        // The rulebook assembles the reply (R6); a virtual thief's pool
        // has no capacity limit, so its room is unbounded.
        let cfg = self.cfg;
        let mut adaptive = self.workers[wi].adaptive;
        let mut pools = ReplyPools {
            probes: &mut self.probes,
            ids: Vec::new(),
        };
        let reply = cfg.steal.assemble_reply(
            &cfg.topology,
            wi,
            thief,
            u64::MAX,
            UNLEASED,
            &mut adaptive,
            &mut pools,
        );
        let batch = pools.ids;
        self.workers[wi].adaptive = adaptive;

        let resp_ns = self.cfg.costs.write_response_ns;
        self.charge(wi, WorkerState::Poll, resp_ns, now);
        let stats = &mut self.workers[wi].stats;
        let t = if batch.is_empty() {
            stats.requests_refused += 1;
            self.send_ctrl(wi, thief, *now)
        } else {
            stats.requests_served += 1;
            stats.response_chunks += reply.chunks;
            stats.batched_responses += u64::from(reply.chunks > 1);
            stats.proxy_serves += u64::from(reply.proxy);
            let bytes = (batch.len() * self.slot_words * 8) as u64;
            self.send_payload(wi, thief, bytes, *now)
        };
        self.workers[thief].inbox = Some(Resp { batch, victim: wi });
        self.schedule(thief, t, WorkerState::WaitRemote, Phase::Wait);
        true
    }

    // ----- PaCCS victim side ---------------------------------------------------

    /// PaCCS victim: serve every request that has arrived (replies are
    /// generated only at node-completion or idle instants — the two-sided
    /// granularity MaCS avoids). `true` if one was served.
    fn serve_requests_paccs(&mut self, wi: usize, now: &mut u64) -> bool {
        let mut hit = false;
        loop {
            let Some(&(thief, arrival)) = self.workers[wi].req_queue.front() else {
                return hit;
            };
            if arrival > *now {
                return hit;
            }
            hit = true;
            self.workers[wi].req_queue.pop_front();
            let (cfg, topo) = (self.cfg, &self.cfg.topology);
            let local = topo.is_local(wi, thief);
            if !local {
                self.net.deliver();
            }
            let poll_ns = self.cfg.costs.poll_ns;
            self.charge(wi, WorkerState::Poll, poll_ns, now);
            self.workers[wi].stats.polls += 1;

            let have = self.probes[wi].len() as u64;
            let give = cfg.steal.paccs_grant(topo, wi, thief, have) as usize;
            // The oldest items (a PaCCS deque never releases: no split).
            let batch: Vec<u32> = self.probes.take_oldest(wi, give).collect();
            let bytes = (batch.len() * self.slot_words * 8) as u64;
            let t = if give == 0 {
                self.workers[wi].stats.requests_refused += 1;
                if local {
                    *now + self.cfg.costs.local_msg_ns()
                } else {
                    self.send_ctrl(wi, thief, *now)
                }
            } else {
                self.workers[wi].stats.requests_served += 1;
                self.workers[wi].stats.response_chunks += 1;
                if local {
                    *now + self.cfg.costs.local_msg_ns() + self.cfg.costs.transfer_ns(bytes)
                } else {
                    self.send_payload(wi, thief, bytes, *now)
                }
            };
            // Classify on the thief when the reply arrives.
            self.workers[thief].inbox = Some(Resp { batch, victim: wi });
            self.schedule(thief, t, WorkerState::WaitRemote, Phase::Wait);
        }
    }

    // ----- main loop ----------------------------------------------------------

    fn run(&mut self, roots: &[Vec<u64>]) {
        self.outstanding = roots.len() as i64;
        for r in roots {
            let id = self.arena.alloc(r);
            self.probes.extend(0, [id]);
        }
        for wi in 0..self.workers.len() {
            self.schedule(wi, 0, WorkerState::Barrier, Phase::Boot);
        }
        while self.end_time.is_none() {
            let Some((t, wi)) = self.events.pop() else {
                break;
            };
            self.n_events += 1;
            let phase = self.workers[wi].phase;
            self.trace = fnv1a(fnv1a(fnv1a(self.trace, t), wi as u64), phase_tag(phase));
            // Charge the interval since the worker's last instant to the
            // state it was parked/scheduled in.
            {
                let w = &mut self.workers[wi];
                let dt = t.saturating_sub(w.cursor);
                w.stats.state_ns[w.charge_state as usize] += dt;
                w.cursor = t;
            }
            let mut now = t;
            match phase {
                Phase::Boot => self.drive(wi, t, Outcome::Ok),
                Phase::Finish => {
                    if !self.complete_node(wi, t) {
                        break;
                    }
                    let more = self.workers[wi].has_cur;
                    self.drive(wi, t, Outcome::Expanded { more });
                }
                Phase::ApplySteal { victim } => {
                    let stole = self.steal_local(wi, victim, &mut now);
                    self.drive(wi, now, stole);
                }
                Phase::Wait => {
                    let resp = self.workers[wi].inbox.take();
                    let resp = resp.expect("a wait ends in a reply");
                    if let Some(stole) = self.land_reply(wi, resp, &mut now) {
                        self.drive(wi, now, stole);
                    }
                }
                Phase::Serve => {
                    self.serve_requests_paccs(wi, &mut now);
                    // Re-park: we are still a thief awaiting our own reply.
                    self.workers[wi].phase = Phase::Wait;
                    self.workers[wi].charge_state = WorkerState::WaitRemote;
                }
                Phase::Idle { .. } => {
                    match self.mode {
                        SimMode::Macs => self.serve_request_macs(wi, &mut now),
                        SimMode::Paccs => self.serve_requests_paccs(wi, &mut now),
                    };
                    self.drive(wi, now, Outcome::Ok);
                }
            }
        }
        // Close every worker's clock at the makespan.
        let end = self
            .end_time
            .unwrap_or_else(|| self.workers.iter().map(|w| w.cursor).max().unwrap_or(0));
        self.end_time = Some(end);
        for w in &mut self.workers {
            let dt = end.saturating_sub(w.cursor);
            w.stats.state_ns[w.charge_state as usize] += dt;
            w.cursor = end;
        }
    }

    /// Messages sitting unconsumed in mailboxes/queues at drain time —
    /// the fabric's in-flight count (only messages that actually entered
    /// the fabric: PaCCS same-node traffic never did).
    fn undelivered(&self) -> u64 {
        let topo = &self.cfg.topology;
        let posted = self.probes.iter().filter(|p| p.pending_req.is_some());
        let mut n = posted.count() as u64;
        for (wi, w) in self.workers.iter().enumerate() {
            for &(thief, _) in &w.req_queue {
                if !topo.is_local(wi, thief) {
                    n += 1;
                }
            }
            if let Some(r) = &w.inbox {
                if !topo.is_local(wi, r.victim) {
                    n += 1;
                }
            }
        }
        n
    }
}

// ---------------------------------------------------------------------------
// public entry points
// ---------------------------------------------------------------------------

fn build_and_run<P, F>(
    cfg: &SimConfig,
    mode: SimMode,
    slot_words: usize,
    roots: &[Vec<u64>],
    factory: F,
) -> SimReport<P::Output>
where
    P: Processor,
    P::Output: Default,
    F: FnMut(usize) -> P,
{
    let n = cfg.topology.total_workers();
    assert!(!roots.is_empty());
    // Flat one-way visibility delay (Immediate/Periodic; PaCCS routes
    // through its controller, hence the extra hop). Hierarchical prices
    // deliveries per level instead.
    let flat_delay = cfg.bound_delay_ns.unwrap_or(match mode {
        SimMode::Macs => cfg.costs.remote_latency_ns,
        SimMode::Paccs => 2 * cfg.costs.remote_latency_ns,
    });
    let fabric = Rc::new(BoundFabric::new(
        &cfg.topology,
        cfg.bound_policy,
        flat_delay,
        &cfg.costs,
    ));

    let words = slot_words.max(roots.iter().map(|r| r.len()).max().unwrap_or(0));
    let workers: Vec<VW<P>> = (0..n)
        .map(|wi| VW {
            cur: vec![0u64; words.max(1)].into_boxed_slice(),
            has_cur: false,
            staged: Vec::new(),
            staged_step: Step::Leaf,
            staged_solutions: 0,
            staged_cancel: false,
            proc: None,
            inc: Rc::new(SimIncumbent::new(Rc::clone(&fabric), wi)),
            timers: PhaseTimers::default(),
            stats: SimWorkerStats::default(),
            machine: match mode {
                SimMode::Macs => WorkerMachine::new(wi, &cfg.topology, &cfg.steal, cfg.seed),
                SimMode::Paccs => WorkerMachine::paccs(wi, &cfg.topology, &cfg.steal, cfg.seed),
            },
            phase: Phase::Boot,
            charge_state: WorkerState::Barrier,
            cursor: 0,
            req_queue: VecDeque::new(),
            inbox: None,
            adaptive: AdaptiveBatch::starting_at(cfg.steal.response_batch),
        })
        .collect();

    // The winner flag of a first-solution race always travels the
    // hierarchical node-leader route, whatever bound policy is under
    // test — one flag per remote leader, per-level delivery delay.
    let winner_fabric = BoundFabric::new(
        &cfg.topology,
        BoundPolicy::Hierarchical,
        flat_delay,
        &cfg.costs,
    );

    let mut sim = Sim {
        cfg,
        mode,
        slot_words,
        factory,
        workers,
        probes: Probes::new(&cfg.topology),
        tally: ScanTally::default(),
        arena: SlotArena::new(words),
        events: EventQueue::new(n),
        seq: 0,
        outstanding: 0,
        fabric: Rc::clone(&fabric),
        net: NetFabric::new(cfg.fabric, cfg.topology.nodes(), &cfg.costs),
        win: None,
        win_seen: vec![u64::MAX; n],
        winner_fabric,
        nodes_after_win: 0,
        abandoned: 0,
        completed: 0,
        end_time: None,
        n_events: 0,
        trace: FNV_OFFSET,
    };
    sim.run(roots);
    // The census the scans skipped nodes by must equal a full recount.
    sim.probes.assert_census();

    let makespan_ns = sim.end_time.unwrap_or(0);
    let incumbent = sim.fabric.global_min();
    let bound_msgs = sim.fabric.messages();
    let bound_updates = sim.fabric.updates();
    let first_solution_ns = sim.win.map(|w| w.t);
    let (nodes_after_win, abandoned_items, completed_items) =
        (sim.nodes_after_win, sim.abandoned, sim.completed);
    let fabric_report = sim.net.report(sim.undelivered());
    let (events, trace_hash, peak_live_items) = (sim.n_events, sim.trace, sim.arena.peak);
    let (heap_pops, lane_pops) = (sim.events.heap_pops, sim.events.lane_pops);
    let ScanTally {
        probe_reads,
        dry_skips,
    } = sim.tally;
    // A worker that never expanded a node has no processor: its output
    // is the default, what `finish` returns for an untouched one.
    let (stats, outputs): (Vec<_>, Vec<_>) = sim
        .workers
        .into_iter()
        .map(|w| (w.stats, w.proc.map_or_else(P::Output::default, P::finish)))
        .unzip();
    SimReport {
        makespan_ns,
        workers: stats,
        outputs,
        incumbent,
        bound_msgs,
        bound_updates,
        first_solution_ns,
        nodes_after_win,
        abandoned_items,
        completed_items,
        events,
        heap_pops,
        lane_pops,
        probe_reads,
        dry_skips,
        trace_hash,
        peak_live_items,
        fabric: fabric_report,
    }
}

/// Simulate the MaCS balancer over the real work of `factory`'s
/// processors.
pub fn simulate_macs<P, F>(
    cfg: &SimConfig,
    slot_words: usize,
    roots: &[Vec<u64>],
    factory: F,
) -> SimReport<P::Output>
where
    P: Processor,
    P::Output: Default,
    F: FnMut(usize) -> P,
{
    build_and_run(cfg, SimMode::Macs, slot_words, roots, factory)
}

/// Simulate the PaCCS balancer over the same work.
pub fn simulate_paccs<P, F>(
    cfg: &SimConfig,
    slot_words: usize,
    roots: &[Vec<u64>],
    factory: F,
) -> SimReport<P::Output>
where
    P: Processor,
    P::Output: Default,
    F: FnMut(usize) -> P,
{
    build_and_run(cfg, SimMode::Paccs, slot_words, roots, factory)
}

#[cfg(test)]
mod tests {
    use super::*;
    use macs_runtime::SplitMix64;

    #[test]
    fn a_starving_worker_wakes_at_a_flat_cadence() {
        // One root, a 1 ms leaf, two cores: worker 1 starves for the whole
        // run. Each wake scans its one local victim (`pool_op_ns`, as
        // `Searching`) and idles `idle_backoff_ns` again.
        struct OneLeaf;
        impl Processor for OneLeaf {
            type Output = ();
            fn process(&mut self, _: &mut [u64], _: &mut ProcCtx<'_>) -> Step {
                Step::Leaf
            }
            fn finish(self) {}
        }
        let costs = CostModel {
            node: NodeCost {
                ns: 1_000_000,
                jitter_pct: 0,
            },
            ..CostModel::default()
        };
        let cfg = SimConfig::new(MachineTopology::flat(2)).with_cost_model(costs);
        let report = simulate_macs(&cfg, 1, &[vec![0]], |_| OneLeaf);
        let ns = &report.workers[1].state_ns;
        let (idle, search) = (
            ns[WorkerState::Idle as usize],
            ns[WorkerState::Searching as usize],
        );
        // The boot charges an acquire and a scan; every wake one scan.
        let wakes = search / costs.pool_op_ns - 2;
        assert_eq!(
            idle / costs.idle_backoff_ns,
            wakes,
            "one full backoff a wake"
        );
        // Backoff plus scan, back to back for the whole run: ~1 800 wakes
        // (a doubling backoff capped at ×64 would leave ~30).
        let period = costs.idle_backoff_ns + costs.pool_op_ns;
        let run = report.makespan_ns;
        assert!(
            wakes * period <= run && run < (wakes + 2) * period,
            "{wakes} wakes in {run} ns"
        );
    }

    #[test]
    fn event_heap_pops_in_key_order_with_reschedules() {
        let mut h = EventQueue::new(8);
        // Same time, schedule order breaks the tie.
        for (seq, w) in [(1, 3usize), (2, 1), (3, 5)] {
            h.schedule(w, 100, seq);
        }
        // Worker 1 rescheduled later: supersedes its first event.
        h.schedule(1, 400, 4);
        h.schedule(7, 50, 5);
        let mut out = Vec::new();
        while let Some((t, w)) = h.pop() {
            out.push((t, w));
        }
        assert_eq!(out, vec![(50, 7), (100, 3), (100, 5), (400, 1)]);
    }

    #[test]
    fn event_heap_reschedule_can_move_earlier() {
        let mut h = EventQueue::new(4);
        h.schedule(0, 1_000, 1);
        h.schedule(1, 2_000, 2);
        h.schedule(1, 10, 3); // decrease-key
        assert_eq!(h.pop(), Some((10, 1)));
        assert_eq!(h.pop(), Some((1_000, 0)));
        assert_eq!(h.pop(), None);
    }

    /// Heap: every slot's worker points back at the slot, absent workers
    /// at nothing, and no child is smaller than its parent. Lanes: each is
    /// sorted, and every worker with a live lane wake has exactly one
    /// entry of its sequence id and no heap slot.
    fn assert_heap_consistent(h: &EventQueue) {
        assert_eq!(h.keys.len(), h.who.len());
        for (i, &w) in h.who.iter().enumerate() {
            assert_eq!(h.pos[w as usize], i as u32, "slot {i} ↔ pos[{w}]");
            assert!(i == 0 || h.keys[(i - 1) / EventQueue::ARITY] < h.keys[i]);
        }
        let live = h.pos.iter().filter(|&&p| p != ABSENT).count();
        assert_eq!(live, h.who.len());
        let mut entries = vec![0usize; h.pos.len()];
        for lane in &h.lanes {
            let keys = lane.wakes.iter().map(|&(k, _)| k);
            assert!(keys.clone().zip(keys.skip(1)).all(|(a, b)| a < b));
            for &(k, w) in &lane.wakes {
                entries[w as usize] += usize::from(h.lane_seq[w as usize] == k as u64);
            }
        }
        for (w, &seq) in h.lane_seq.iter().enumerate() {
            let want = usize::from(seq != NO_SEQ);
            assert_eq!(entries[w], want, "live lane entries of {w}");
            assert!(seq == NO_SEQ || h.pos[w] == ABSENT, "{w} in both tiers");
        }
    }

    #[test]
    fn event_heap_matches_a_sorted_model() {
        use std::collections::BTreeSet;
        // 1–6 and 17 cover every partial last family of a 4-ary heap.
        for n in [1usize, 2, 3, 4, 5, 6, 17, 4096] {
            let mut rng = SplitMix64::new(0xE7E27 ^ n as u64);
            let mut h = EventQueue::new(n);
            let mut model: BTreeSet<(u64, u64, usize)> = BTreeSet::new();
            // Each worker's live key, and whether it waits in a lane.
            let mut key_of: Vec<Option<(u64, u64, bool)>> = vec![None; n];
            let (mut seq, mut clock, mut superseded) = (0u64, 0u64, 0u64);
            // Pops the model expects from the heap and from the lanes.
            let mut tiers = (0u64, 0u64);
            for _ in 0..(40 * n).clamp(400, 20_000) {
                let op = rng.below(6);
                if op < 2 {
                    let want = model.pop_first().map(|(t, _, w)| (t, w));
                    if let Some((t, w)) = want {
                        let in_lane = key_of[w].take().is_some_and(|k| k.2);
                        *if in_lane { &mut tiers.1 } else { &mut tiers.0 } += 1;
                        clock = t;
                    }
                    assert_eq!(h.pop(), want, "n={n}");
                } else {
                    // A fresh worker or a re-key, at or after the clock:
                    // an idle wake a few fixed offsets out, or a heap
                    // event earlier, later or at the same time (few
                    // distinct instants: ties broken by `seq`).
                    let w = rng.below_usize(n);
                    let idle = op < 4;
                    let t = match (key_of[w], rng.below(4)) {
                        _ if idle => clock + [0, 10, 20, 500][rng.below_usize(4)],
                        (Some((t, ..)), 0) => t,
                        (Some((t, ..)), 1) => t.saturating_sub(rng.below(50)).max(clock),
                        (Some((t, ..)), 2) => t + rng.below(50),
                        _ => clock + rng.below(1 + n as u64 / 2) * 10,
                    };
                    seq += 1;
                    if let Some((t0, s0, in_lane)) = key_of[w].replace((t, seq, idle)) {
                        model.remove(&(t0, s0, w));
                        superseded += u64::from(in_lane);
                    }
                    model.insert((t, seq, w));
                    if idle {
                        h.schedule_idle(w, t, seq);
                    } else {
                        h.schedule(w, t, seq);
                    }
                }
                assert_heap_consistent(&h);
            }
            while let Some((t, _, w)) = model.pop_first() {
                let in_lane = key_of[w].take().is_some_and(|k| k.2);
                *if in_lane { &mut tiers.1 } else { &mut tiers.0 } += 1;
                assert_eq!(h.pop(), Some((t, w)), "n={n}");
                assert_heap_consistent(&h);
            }
            assert_eq!(h.pop(), None);
            assert!(superseded > 0, "n={n}: no lane wake was ever re-keyed");
            assert!(tiers.0 > 0 && tiers.1 > 0, "n={n}: a tier went unused");
            assert_eq!((h.heap_pops, h.lane_pops), tiers, "n={n}: pops by tier");
        }
    }

    #[test]
    fn fnv1a_is_the_textbook_byte_loop() {
        fn textbook(mut h: u64, v: u64) -> u64 {
            for b in v.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
            }
            h
        }
        let mut values = vec![0, 1, 0xff, 0x100, 1 << 56, u64::MAX];
        for k in 1..8 {
            // Either side of every k-byte boundary, and a zero byte
            // *below* the top one (only the tail may be folded).
            values.extend([(1u64 << (8 * k)) - 1, 1 << (8 * k), 1 << (8 * k + 7)]);
        }
        for &v in &values {
            for h in [0, FNV_OFFSET, u64::MAX] {
                assert_eq!(fnv1a(h, v), textbook(h, v), "h={h:#x} v={v:#x}");
            }
        }
        let mut rng = SplitMix64::new(0xF17A);
        for _ in 0..10_000 {
            // Uniform in the number of live bytes, not in magnitude.
            let (h, v) = (rng.next_u64(), rng.next_u64() >> rng.below(64));
            assert_eq!(fnv1a(h, v), textbook(h, v), "h={h:#x} v={v:#x}");
        }
    }

    #[test]
    fn slot_arena_recycles_slots() {
        let mut a = SlotArena::new(4);
        let x = a.alloc(&[1, 2, 3, 4]);
        let y = a.alloc(&[5, 6, 7, 8]);
        assert_eq!(a.get(x), &[1, 2, 3, 4]);
        assert_eq!(a.get(y), &[5, 6, 7, 8]);
        assert_eq!(a.peak, 2);
        a.release(x);
        let z = a.alloc(&[9, 9]); // short item zero-padded
        assert_eq!(z, x, "freed slot reused");
        assert_eq!(a.get(z), &[9, 9, 0, 0]);
        assert_eq!(a.peak, 2, "peak unchanged by reuse");
        assert_eq!(a.data.len(), 8, "no growth beyond two slots");
    }
}
