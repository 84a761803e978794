//! The MaCS worker: "the main and single entity" of the architecture
//! (paper §IV). There is no controller — each worker solves, balances load,
//! serves remote steal requests, and detects termination. The sequencing is
//! [`WorkerMachine`]'s; this is its threaded driver, performing each action
//! on the real pools, registers and termination board.
//!
//! A PaCCS agent is the same worker under `Protocol::Paccs`: its machine
//! never releases and sweeps requests over its peers nearest first, its
//! mailbox queues one request per peer, and it grants by the PaCCS rule.
//! Pools, termination, panic containment and back-off are shared.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use macs_gpi::{Interconnect, World};
use macs_pool::{SplitPool, RESP_FAIL, RESP_PENDING};
use macs_search::steal::{backoff_factor, PoolView, UNLEASED};
use macs_search::{Action, AdaptiveBatch, Outcome, ScanView, WorkerMachine, WorkerView};

use crate::config::RuntimeConfig;
use crate::processor::{ProcCtx, Processor, Step, WorkSink};
pub use crate::registers::GlobalIncumbent;
use crate::registers::{poison, WinnerGate};
use crate::stats::{RaceRing, WorkerState, WorkerStats};
use crate::term::{TermBoard, TermHandle};

/// Which load-balancing protocol a run's workers follow.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Protocol {
    /// Release, local steals, one-sided remote requests (paper §V).
    Macs,
    /// PaCCS's request/reply stealing: an idle agent asks its peers,
    /// nearest first, and each victim grants part of its own queue.
    Paccs,
}

impl Protocol {
    /// Requests one worker's mailbox must hold at once among `workers`:
    /// MaCS refuses a second concurrent thief; a PaCCS agent queues one
    /// request from every peer, and a thief posts one at a time, so its
    /// mailbox never fills.
    pub(crate) fn mailbox(self, workers: usize) -> usize {
        match self {
            Protocol::Macs => 1,
            Protocol::Paccs => workers.saturating_sub(1).max(1),
        }
    }
}

/// Sink plugged under [`ProcCtx`]: pushes children into the worker's own
/// pool (spilling to a local overflow stack when the ring is full) and
/// counts each one as created before the next release can publish it. A
/// PaCCS agent off node 0 also pays a fabric message per solution, its
/// notice to the root registers.
struct PoolSink<'b, 'a> {
    pool: &'b SplitPool,
    overflow: &'b mut Vec<Box<[u64]>>,
    term: &'b mut TermHandle<'a>,
    gate: &'b WinnerGate<'a>,
    pushes: &'b mut u64,
    spills: &'b mut u64,
    solutions: &'b mut u64,
    notify: Option<&'a Interconnect>,
}

impl WorkSink for PoolSink<'_, '_> {
    fn push(&mut self, item: &[u64]) {
        self.term.create_one();
        *self.pushes += 1;
        if !self.pool.push(item) {
            self.overflow.push(item.to_vec().into_boxed_slice());
            *self.spills += 1;
        }
    }

    fn solution(&mut self) {
        *self.solutions += 1;
        if let Some(ic) = self.notify {
            ic.charge_write(64);
        }
    }

    fn cancel(&mut self) {
        self.gate.raise();
    }
}

/// The reply rule's view of this node's pools: shared lengths read off
/// the real `SplitPool`s, granted items appended to the flat buffer the
/// response is written from.
struct ReplyPools<'b> {
    pools: &'b [SplitPool],
    flat: &'b mut Vec<u64>,
}

impl PoolView for ReplyPools<'_> {
    fn shared_len(&self, w: usize) -> u64 {
        self.pools[w].shared_len()
    }

    fn take(&mut self, w: usize, k: u64) -> u64 {
        let flat = &mut *self.flat;
        self.pools[w].steal(k, |item| flat.extend_from_slice(item))
    }
}

/// The job's current lease width in workers ([`UNLEASED`] when this world
/// is not leased). A local load: the lease register sits in the job's own
/// cell block.
#[inline]
fn lease_width(world: &World) -> u64 {
    if world.leased {
        world.cells.load(world.block.lease())
    } else {
        UNLEASED
    }
}

/// Move overflow spill back into the ring while space is open.
#[inline]
fn drain_overflow(pool: &SplitPool, overflow: &mut Vec<Box<[u64]>>) {
    while overflow.last().is_some_and(|it| pool.push(it)) {
        overflow.pop();
    }
}

/// One worker thread: the threaded driver of its [`WorkerMachine`].
pub(crate) struct Worker<'a, P: Processor> {
    id: usize,
    node: usize,
    protocol: Protocol,
    cfg: &'a RuntimeConfig,
    world: &'a World,
    pools: &'a [SplitPool],
    my_pool: &'a SplitPool,
    processor: P,
    stats: WorkerStats,
    term: TermHandle<'a>,
    incumbent: GlobalIncumbent<'a>,
    /// The item being processed (slot_words long), live iff `have`.
    current: Vec<u64>,
    have: bool,
    /// Local-memory spill stack for ring overflow (items here are already
    /// counted as created but invisible to thieves).
    overflow: Vec<Box<[u64]>>,
    /// Flat buffer for assembling remote steal responses.
    steal_flat: Vec<u64>,
    slot_words: usize,
    /// This worker's end of the winner route (first-solution races).
    gate: WinnerGate<'a>,
    /// Recent item-start instants for `nodes_after_win` accounting.
    race_ring: RaceRing,
    /// Response-batch tuner for [`macs_search::ChunkPolicy::Adaptive`]:
    /// tracks this worker's own served-reply thinness.
    adaptive: AdaptiveBatch,
    /// The fabric a solution notice crosses (PaCCS off node 0 only).
    notify: Option<&'a Interconnect>,
}

impl<'a, P: Processor> Worker<'a, P> {
    pub fn new(
        id: usize,
        protocol: Protocol,
        cfg: &'a RuntimeConfig,
        world: &'a World,
        pools: &'a [SplitPool],
        board: TermBoard<'a>,
        processor: P,
    ) -> Self {
        let topo = &world.topology;
        let node = topo.node_of(id);
        let slot_words = pools[id].slot_words();
        let leader = id == topo.peers_of(id).start;
        Worker {
            id,
            node,
            protocol,
            cfg,
            world,
            pools,
            my_pool: &pools[id],
            processor,
            stats: WorkerStats::new(id, node),
            term: TermHandle::new(board, &world.cells, world.block.outstanding(), id),
            incumbent: GlobalIncumbent::new(
                &world.cells,
                &world.interconnect,
                node != 0,
                cfg.bound_policy,
                world.block,
                node,
                leader,
            ),
            current: vec![0u64; slot_words],
            have: false,
            overflow: Vec::new(),
            steal_flat: Vec::new(),
            slot_words,
            gate: WinnerGate::new(world, id, cfg.mode.is_race()),
            race_ring: RaceRing::new(),
            adaptive: AdaptiveBatch::starting_at(cfg.steal.response_batch),
            notify: (protocol == Protocol::Paccs && node != 0).then_some(&world.interconnect),
        }
    }

    /// The worker, from the start barrier to the end barrier. A panic
    /// inside poisons the run (`registers::poison`) and still meets the end
    /// barrier, so the siblings stop and the payload comes back as `Err`.
    pub fn run(mut self) -> std::thread::Result<(WorkerStats, P::Output)> {
        self.stats.clock.set(WorkerState::Barrier);
        self.world.barrier.wait();
        let body = catch_unwind(AssertUnwindSafe(|| self.work()));
        if body.is_err() {
            poison(self.world);
        }
        self.stats.clock.set(WorkerState::Barrier);
        self.world.barrier.wait();
        body?;
        // Every thief posted before it met the barrier: refuse what is
        // left, so each request gets exactly one reply.
        self.serve_request();
        (self.stats.improvements, self.stats.bound_pulls) = self.incumbent.bill();
        self.stats.clock.finish();
        Ok((self.stats, self.processor.finish()))
    }

    /// The worker main loop: perform each action the machine asks for on
    /// the real pools and registers, and feed back what happened.
    fn work(&mut self) {
        let (world, cfg) = (self.world, self.cfg);
        let (id, topo) = (self.id, &world.topology);
        let mut machine = match self.protocol {
            Protocol::Macs => WorkerMachine::new(id, topo, &cfg.steal, cfg.seed),
            Protocol::Paccs => WorkerMachine::paccs(id, topo, &cfg.steal, cfg.seed),
        };
        let mut outcome = Outcome::Ok;
        loop {
            outcome = match machine.step(outcome, self) {
                Action::Expand => {
                    self.have = self.process_current();
                    Outcome::Expanded {
                        more: self.have && !self.gate.raised(),
                    }
                }
                Action::Release(k) => {
                    self.stats.clock.hot(WorkerState::Releasing);
                    self.release(k);
                    Outcome::Ok
                }
                Action::Poll => Outcome::Polled { hit: self.poll() },
                Action::AcquireOwn => {
                    self.have = self.acquire_local();
                    Outcome::Acquired(self.have)
                }
                Action::StealLocal(victim) => self.steal_local(victim),
                Action::PostRequest(victim) => self.request(victim),
                Action::Drain => {
                    self.drain();
                    Outcome::Ok
                }
                Action::Backoff(round) => self.idle(round),
                Action::Park => self.park(),
                Action::Done => break,
            };
        }
    }

    // ----- inner cycle ------------------------------------------------------

    /// Expand `current`; `true` if it continues (not a leaf).
    fn process_current(&mut self) -> bool {
        self.stats.clock.tick(WorkerState::Working);
        if self.cfg.mode.is_race() {
            self.race_ring.record(self.world.elapsed_ns());
        }
        let mut current = std::mem::take(&mut self.current);
        let step = {
            let mut sink = PoolSink {
                pool: self.my_pool,
                overflow: &mut self.overflow,
                term: &mut self.term,
                gate: &self.gate,
                pushes: &mut self.stats.pushes,
                spills: &mut self.stats.overflow_spills,
                solutions: &mut self.stats.solutions,
                notify: self.notify,
            };
            let mut ctx = ProcCtx {
                worker_id: self.id,
                node_id: self.node,
                phase: &mut self.stats.phase,
                incumbent: &self.incumbent,
                sink: &mut sink,
            };
            self.processor.process(&mut current, &mut ctx)
        };
        self.current = current;
        self.stats.items += 1;
        match step {
            Step::Leaf => {
                self.term.finish_one();
                false
            }
            Step::Continue => true,
        }
    }

    /// Share `k` private items with thieves. The `created` count goes on
    /// the board first, so no item is visible before its creation is.
    fn release(&mut self, k: u64) {
        self.term.publish_created();
        self.stats.releases += 1;
        self.stats.released_items += self.my_pool.release(k);
    }

    /// Check the request mailbox; `true` if a request was served.
    fn poll(&mut self) -> bool {
        let hit = self.my_pool.pending_request().is_some();
        if hit {
            self.serve_request();
        } else {
            self.stats.clock.hot(WorkerState::Poll);
            self.stats.polls += 1;
        }
        hit
    }

    /// Pop from the overflow stack, the private region, or (after a
    /// reacquire) the own shared region.
    fn acquire_local(&mut self) -> bool {
        if let Some(item) = self.overflow.pop() {
            self.current.copy_from_slice(&item);
            return true;
        }
        if self.my_pool.pop_private(&mut self.current) {
            return true;
        }
        if self.my_pool.shared_len() > 0 {
            self.my_pool.reacquire(self.cfg.steal.reacquire_width());
            if self.my_pool.pop_private(&mut self.current) {
                return true;
            }
        }
        false
    }

    /// Cooperative cancellation: discard the item in hand and everything
    /// in the local pool; termination follows once every worker has
    /// drained.
    fn drain(&mut self) {
        let mut dropped = u64::from(std::mem::take(&mut self.have));
        while self.acquire_local() {
            dropped += 1;
        }
        for _ in 0..dropped {
            self.term.finish_one();
        }
        self.stats.abandoned_items += dropped;
    }

    /// Idle: check termination, serve requests, back off for `round`.
    fn idle(&mut self, round: u32) -> Outcome {
        self.stats.clock.set(WorkerState::Idle);
        self.stats.idle_rounds += 1;
        if self.term.terminated() {
            return Outcome::Terminated;
        }
        self.serve_request();
        self.stats.clock.set(WorkerState::Idle);
        Self::backoff(round);
        Outcome::Ok
    }

    fn backoff(round: u32) {
        if round < 8 {
            for _ in 0..backoff_factor(round) {
                std::hint::spin_loop();
            }
        } else {
            std::thread::yield_now();
        }
    }

    // ----- steals -----------------------------------------------------------

    /// Take a grant (R3) from co-located `v`: the oldest item to hand, the
    /// rest into the own pool.
    fn steal_local(&mut self, v: usize) -> Outcome {
        self.stats.clock.set(WorkerState::Stealing);
        let shared = self.pools[v].shared_len();
        let lease = lease_width(self.world);
        let want = self
            .cfg
            .steal
            .local_grant(&self.world.topology, self.id, v, shared, lease);
        let current = &mut self.current;
        let overflow = &mut self.overflow;
        let my_pool = self.my_pool;
        let mut first = true;
        let n = self.pools[v].steal(want, |item| {
            if first {
                current.copy_from_slice(item);
                first = false;
            } else if !my_pool.push(item) {
                overflow.push(item.to_vec().into_boxed_slice());
            }
        });
        self.have = n > 0;
        if n == 0 {
            // The victim looked loaded but the lock-time check found
            // nothing: a failed (local) steal.
            self.stats.local_steal_failures += 1;
            return Outcome::MISSED;
        }
        self.landed(v, n, true)
    }

    /// The fabric between this worker and `peer`: `None` on the same node,
    /// where nothing is charged.
    fn fabric(&self, peer: usize) -> Option<&'a Interconnect> {
        let world = self.world;
        (!world.topology.is_local(self.id, peer)).then_some(&world.interconnect)
    }

    /// Post a request into `v`'s mailbox and wait for the (possibly
    /// proxied) reply, serving the own mailbox meanwhile. MaCS posts only
    /// off node; a PaCCS agent asks any peer.
    fn request(&mut self, v: usize) -> Outcome {
        let via = self.fabric(v);
        self.stats.clock.set(WorkerState::FindRemote);
        self.my_pool.reset_response();
        let t0 = Instant::now();
        if !self.pools[v].try_post_request_remote(via, self.id) {
            // Another thief got there first.
            return Outcome::MISSED;
        }
        self.stats.clock.set(WorkerState::WaitRemote);
        let mut round: u32 = 0;
        loop {
            match self.my_pool.response() {
                RESP_PENDING => {
                    // Serving our own mailbox while waiting avoids mutual
                    // thief/victim waits.
                    if self.my_pool.pending_request().is_some() {
                        self.serve_request();
                        self.stats.clock.set(WorkerState::WaitRemote);
                    }
                    if self.term.terminated() {
                        // The victim refuses it after the end barrier.
                        self.refused(v);
                        return Outcome::Terminated;
                    }
                    // A victim answers between its nodes: wait as an idle
                    // worker backs off, so a long wait yields the core
                    // (perhaps to the victim itself).
                    Self::backoff(round);
                    round = round.saturating_add(1);
                }
                RESP_FAIL => {
                    self.my_pool.reset_response();
                    self.refused(v);
                    return Outcome::MISSED;
                }
                n => {
                    // Items were written in place at our head; the fabric
                    // cannot deliver them faster than one round trip.
                    if let Some(ic) = via {
                        ic.enforce_rtt_floor(t0, n as usize * self.slot_words * 8);
                    }
                    self.my_pool.reset_response();
                    self.my_pool.adopt_written(n);
                    self.have = self.my_pool.pop_private(&mut self.current);
                    debug_assert!(self.have, "adopted items must be poppable");
                    return self.landed(v, n, via.is_none());
                }
            }
        }
    }

    /// `v` refused a request: a failed steal, local or remote by `v`'s
    /// node.
    fn refused(&mut self, v: usize) {
        let s = &mut self.stats;
        *if self.world.topology.is_local(self.id, v) {
            &mut s.local_steal_failures
        } else {
            &mut s.remote_steal_failures
        } += 1;
    }

    /// `n` stolen items arrived from `v`. If the winner flag went up while
    /// they travelled, they are discarded as abandoned and the steal lands
    /// in the drain bucket, not in the steal counts or the histogram.
    fn landed(&mut self, v: usize, n: u64, local: bool) -> Outcome {
        let won = self.gate.raised();
        let s = &mut self.stats;
        if won {
            s.drain_steals += 1;
        } else {
            let d = self.world.topology.distance(self.id, v);
            s.steals_by_distance.record(d);
            let (steals, items) = if local {
                (&mut s.local_steals, &mut s.local_steal_items)
            } else {
                (&mut s.remote_steals, &mut s.remote_steal_items)
            };
            *steals += 1;
            *items += n;
        }
        Outcome::Stole { items: n, won }
    }

    // ----- worker-set leases (multi-tenant service runs) --------------------

    /// The lease shrank below our id. Hand the in-hand item back (it is
    /// already counted as created, so a plain push keeps the termination
    /// invariant — an active worker will steal and finish it), announce
    /// the park — the scheduler's shrink handshake watches the register to
    /// learn when every out-of-lease worker has stopped — and wait until
    /// the lease grows back over our id or the job terminates.
    fn park(&mut self) -> Outcome {
        if std::mem::take(&mut self.have) && !self.my_pool.push(&self.current) {
            self.overflow.push(self.current.clone().into_boxed_slice());
            self.stats.overflow_spills += 1;
        }
        self.stats.parks += 1;
        let parked = self.world.block.parked();
        self.world.cells.fetch_add_i64(parked, 1);
        let resumed = self.park_wait();
        self.world.cells.fetch_add_i64(parked, -1);
        if resumed {
            Outcome::Ok
        } else {
            Outcome::Terminated
        }
    }

    /// Parked: publish everything we hold and serve thieves. The pool keeps
    /// draining monotonically — overflow spill re-enters the ring as
    /// thieves free slots, and every private item is released — so parked
    /// work is always visible to active workers.
    fn park_wait(&mut self) -> bool {
        let mut idle_rounds: u32 = 0;
        loop {
            self.stats.clock.set(WorkerState::Releasing);
            drain_overflow(self.my_pool, &mut self.overflow);
            let private = self.my_pool.private_len();
            if private > 0 {
                self.release(private);
            }
            self.stats.clock.set(WorkerState::Idle);
            if self.term.terminated() {
                return false;
            }
            self.serve_request();
            if (self.id as u64) < lease_width(self.world) {
                return true;
            }
            self.stats.clock.set(WorkerState::Idle);
            Self::backoff(idle_rounds);
            idle_rounds = idle_rounds.saturating_add(1);
        }
    }

    // ----- victim side -------------------------------------------------------

    /// Serve every request that has arrived (a MaCS mailbox holds one):
    /// retire it, let the rulebook size the reply — R6 over this node's
    /// pools, or a PaCCS agent's grant from its own queue — write the items
    /// in place into the thief's pool and notify once, or refuse with
    /// `RESP_FAIL` when there is nothing to give. Retiring first frees the
    /// thief's cell before it can read the reply and post again.
    fn serve_request(&mut self) {
        while let Some(thief) = self.my_pool.pending_request() {
            self.my_pool.clear_request();
            self.stats.clock.set(WorkerState::Poll);
            self.stats.polls += 1;
            let via = self.fabric(thief);
            let thief_pool = &self.pools[thief];

            // How many slots the thief can accept at its head.
            let tm = thief_pool.meta_remote(via);
            let room = thief_pool.room(&tm);
            self.steal_flat.clear();
            let n = match self.protocol {
                Protocol::Macs => self.assemble_reply(thief, room),
                Protocol::Paccs => self.grant_own(thief, room),
            };
            if n > 0 {
                thief_pool.write_slots_remote(via, tm.head, &self.steal_flat);
                thief_pool.write_response_remote(via, n);
                self.stats.requests_served += 1;
            } else {
                thief_pool.write_response_remote(via, RESP_FAIL);
                self.stats.requests_refused += 1;
            }
        }
    }

    /// R6: the reply to `thief`, assembled from this node's pools into the
    /// flat buffer.
    fn assemble_reply(&mut self, thief: usize, room: u64) -> u64 {
        let reply = self.cfg.steal.assemble_reply(
            &self.world.topology,
            self.id,
            thief,
            room,
            lease_width(self.world),
            &mut self.adaptive,
            &mut ReplyPools {
                pools: self.pools,
                flat: &mut self.steal_flat,
            },
        );
        if reply.items > 0 {
            let s = &mut self.stats;
            s.response_chunks += reply.chunks;
            s.batched_responses += u64::from(reply.chunks > 1);
            s.proxy_serves += u64::from(reply.proxy);
        }
        reply.items
    }

    /// A PaCCS grant: the oldest of the own queued items, under the
    /// rulebook's share for `thief`, published, released and taken back
    /// out of the own pool into the flat buffer.
    fn grant_own(&mut self, thief: usize, room: u64) -> u64 {
        let queued = self.my_pool.private_len();
        let topo = &self.world.topology;
        let grant = self.cfg.steal.paccs_grant(topo, self.id, thief, queued);
        let k = grant.min(room);
        if k == 0 {
            return 0;
        }
        self.term.publish_created();
        self.my_pool.release(k);
        let flat = &mut self.steal_flat;
        let n = self.my_pool.steal(k, |item| flat.extend_from_slice(item));
        self.stats.response_chunks += 1;
        n
    }
}

/// What a scan reads: the peers' pools — one-sided through the fabric for
/// remote ones — and no census (every node may hold work). A scan
/// switches the clock to the state it runs in.
impl<P: Processor> ScanView for Worker<'_, P> {
    fn shared_len(&mut self, w: usize) -> u64 {
        self.stats.clock.set(WorkerState::Searching);
        self.pools[w].shared_len()
    }

    fn probe_remote(&mut self, w: usize) -> Option<u64> {
        self.stats.clock.set(WorkerState::SearchingRemote);
        let meta = self.pools[w].meta_remote(&self.world.interconnect);
        (meta.req == 0).then(|| meta.shared_len())
    }
}

/// What the machine observes: the own pool (overflow spill drained back
/// first, so R1 sees everything it may release), the scans' reads, the
/// winner gate and the lease register.
impl<P: Processor> WorkerView for Worker<'_, P> {
    fn own_lens(&mut self) -> (u64, u64) {
        drain_overflow(self.my_pool, &mut self.overflow);
        self.my_pool.lens()
    }

    fn won(&mut self) -> bool {
        if !self.gate.raised() {
            return false;
        }
        // The first observation settles the `nodes_after_win` account.
        if let Some(n) = self.gate.settle(&self.race_ring) {
            self.stats.nodes_after_win = n;
        }
        true
    }

    fn lease(&mut self) -> u64 {
        lease_width(self.world)
    }
}
