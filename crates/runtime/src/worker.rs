//! The MaCS worker: "the main and single entity" of the architecture
//! (paper §IV). There is no controller — each worker solves, balances load,
//! serves remote steal requests, and detects termination.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use macs_gpi::{VictimOrder, World};
use macs_pool::{SplitPool, RESP_FAIL, RESP_PENDING};
use macs_search::steal::{backoff_factor, PoolView, UNLEASED};
use macs_search::AdaptiveBatch;

use crate::config::RuntimeConfig;
use crate::processor::{ProcCtx, Processor, Step, WorkSink};
pub use crate::registers::GlobalIncumbent;
use crate::registers::{poison, WinnerGate};
use crate::rng::SplitMix64;
use crate::stats::{RaceRing, WorkerState, WorkerStats};
use crate::term::{TermBoard, TermHandle};

/// Sink plugged under [`ProcCtx`]: pushes children into the worker's own
/// pool (spilling to a local overflow stack when the ring is full) and
/// counts each one as created before the next release can publish it.
struct PoolSink<'b, 'a> {
    pool: &'b SplitPool,
    overflow: &'b mut Vec<Box<[u64]>>,
    term: &'b mut TermHandle<'a>,
    gate: &'b WinnerGate<'a>,
    pushes: &'b mut u64,
    spills: &'b mut u64,
    solutions: &'b mut u64,
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

/// One worker thread's state.
pub(crate) struct Worker<'a, P: Processor> {
    id: usize,
    node: usize,
    cfg: &'a RuntimeConfig,
    world: &'a World,
    pools: &'a [SplitPool],
    my_pool: &'a SplitPool,
    processor: P,
    stats: WorkerStats,
    rng: SplitMix64,
    term: TermHandle<'a>,
    incumbent: GlobalIncumbent<'a>,
    /// The item being processed (slot_words long).
    current: Vec<u64>,
    /// Local-memory spill stack for ring overflow (items here are already
    /// counted as created but invisible to thieves).
    overflow: Vec<Box<[u64]>>,
    /// Flat buffer for assembling remote steal responses.
    steal_flat: Vec<u64>,
    slot_words: usize,
    since_release: u32,
    since_poll: u32,
    poll_interval: u32,
    /// Last-successful-steal affinity per distance ring.
    victim_order: VictimOrder,
    /// This worker's end of the winner route (first-solution races).
    gate: WinnerGate<'a>,
    /// Recent item-start instants for `nodes_after_win` accounting.
    race_ring: RaceRing,
    /// Response-batch tuner for [`macs_search::ChunkPolicy::Adaptive`]:
    /// tracks this worker's own served-reply thinness.
    adaptive: AdaptiveBatch,
}

impl<'a, P: Processor> Worker<'a, P> {
    pub fn new(
        id: usize,
        cfg: &'a RuntimeConfig,
        world: &'a World,
        pools: &'a [SplitPool],
        board: TermBoard<'a>,
        processor: P,
    ) -> Self {
        let topo = &world.topology;
        let node = topo.node_of(id);
        let slot_words = pools[id].slot_words();
        let victim_order = VictimOrder::new(topo, id);
        let leader = id == topo.peers_of(id).start;
        Worker {
            id,
            node,
            cfg,
            world,
            pools,
            my_pool: &pools[id],
            processor,
            stats: WorkerStats::new(id, node),
            rng: SplitMix64::for_worker(cfg.seed, id),
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
            overflow: Vec::new(),
            steal_flat: Vec::new(),
            slot_words,
            since_release: 0,
            since_poll: 0,
            poll_interval: cfg.steal.poll.initial(),
            victim_order,
            gate: WinnerGate::new(world, id, cfg.mode.is_race()),
            race_ring: RaceRing::new(),
            adaptive: AdaptiveBatch::starting_at(cfg.steal.response_batch),
        }
    }

    // ----- worker-set leases (multi-tenant service runs) --------------------

    /// The job's current lease width in workers ([`UNLEASED`] when this
    /// world is not leased). A local load: the lease register sits in the
    /// job's own cell block.
    #[inline]
    fn lease_width(&self) -> u64 {
        if self.world.leased {
            self.world.cells.load(self.world.block.lease())
        } else {
            UNLEASED
        }
    }

    /// Is this worker parked — outside the job's current lease?
    #[inline]
    fn lease_parked(&self) -> bool {
        (self.id as u64) >= self.lease_width()
    }

    /// Parked: publish everything we hold, serve thieves, and wait until
    /// the lease grows back over our id (`true`) or the job terminates
    /// (`false`). The pool keeps draining monotonically — overflow spill
    /// re-enters the ring as thieves free slots, and every private item
    /// is released — so parked work is always visible to active workers.
    fn park_until_leased(&mut self) -> bool {
        self.stats.parks += 1;
        // Announce the park: the scheduler's shrink handshake watches this
        // register to learn when every out-of-lease worker has actually
        // stopped (pool published, processing ceased).
        self.world.cells.fetch_add_i64(self.world.block.parked(), 1);
        let resumed = self.park_wait();
        self.world
            .cells
            .fetch_add_i64(self.world.block.parked(), -1);
        resumed
    }

    fn park_wait(&mut self) -> bool {
        let mut idle_rounds: u32 = 0;
        loop {
            self.stats.clock.set(WorkerState::Releasing);
            self.drain_overflow();
            let private = self.my_pool.private_len();
            if private > 0 {
                self.release(private);
            }
            self.stats.clock.set(WorkerState::Idle);
            if self.term.terminated() {
                return false;
            }
            self.serve_request();
            if !self.lease_parked() {
                return true;
            }
            self.stats.clock.set(WorkerState::Idle);
            Self::backoff(idle_rounds);
            idle_rounds = idle_rounds.saturating_add(1);
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
        self.stats.clock.finish();
        Ok((self.stats, self.processor.finish()))
    }

    /// The worker main loop (paper §IV: propagate/split under `process`,
    /// plus release, poll and restore around it).
    fn work(&mut self) {
        let mut have = false;
        loop {
            // One lease read per iteration (leased runs; free otherwise).
            let mut parked = self.lease_parked();
            if !have {
                // The worker's own pool first: the common case after a
                // leaf, and no state change — so no clock read.
                if parked || !self.acquire_local() {
                    if !self.restore() {
                        break; // global termination
                    }
                    parked = self.lease_parked();
                }
            }
            if parked {
                // The lease shrank below our id. Hand the in-hand item
                // back (it is already counted as created, so a plain push
                // keeps the termination invariant — an active worker will
                // steal and finish it), publish the pool, and serve
                // thieves until regrown or terminated. At this point
                // `current` always holds an item: either `have` was true
                // or one was just acquired.
                if !self.my_pool.push(&self.current) {
                    self.overflow.push(self.current.clone().into_boxed_slice());
                    self.stats.overflow_spills += 1;
                }
                have = false;
                if self.park_until_leased() {
                    continue;
                }
                break; // the job terminated while we were parked
            }
            if self.gate.raised() {
                // Cooperative cancellation: discard the item in hand and
                // everything in the local pool; termination follows once
                // every worker has drained.
                self.on_win_observed();
                self.term.finish_one();
                self.stats.abandoned_items += 1;
                while self.acquire_local() {
                    self.term.finish_one();
                    self.stats.abandoned_items += 1;
                }
                have = false;
                continue;
            }
            have = self.process_current();

            self.since_release += 1;
            if self.since_release >= self.cfg.steal.release.interval {
                self.since_release = 0;
                self.maybe_release();
            }
            self.since_poll += 1;
            if self.since_poll >= self.poll_interval {
                self.since_poll = 0;
                self.poll();
            }
        }

        // Someone may have posted a request just before we observed
        // termination: refuse it so no thief waits on a dead victim.
        self.serve_request();
    }

    /// First observation of a raised winner flag: settle the
    /// `nodes_after_win` account.
    fn on_win_observed(&mut self) {
        if let Some(n) = self.gate.settle(&self.race_ring) {
            self.stats.nodes_after_win = n;
        }
    }

    // ----- inner cycle ------------------------------------------------------

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

    /// Move overflow spill back into the ring while space is open.
    #[inline]
    fn drain_overflow(&mut self) {
        while self.overflow.last().is_some_and(|it| self.my_pool.push(it)) {
            self.overflow.pop();
        }
    }

    /// The *release* operation, when the rulebook asks for one.
    fn maybe_release(&mut self) {
        self.drain_overflow();
        let (private, shared) = self.my_pool.lens();
        if let Some(k) = self.cfg.steal.release_amount(private, shared) {
            self.stats.clock.hot(WorkerState::Releasing);
            self.release(k);
        }
    }

    /// Share `k` private items with thieves. The `created` count goes on
    /// the board first, so no item is visible before its creation is.
    fn release(&mut self, k: u64) {
        self.term.publish_created();
        self.stats.releases += 1;
        self.stats.released_items += self.my_pool.release(k);
    }

    /// Check the request mailbox, adapting the dynamic polling interval.
    fn poll(&mut self) {
        let hit = self.my_pool.pending_request().is_some();
        if hit {
            self.serve_request();
        } else {
            self.stats.clock.hot(WorkerState::Poll);
            self.stats.polls += 1;
        }
        self.poll_interval = self.cfg.steal.poll.next(self.poll_interval, hit);
    }

    // ----- the restore procedure (§V) ---------------------------------------

    /// Obtain a new work item from somewhere other than the worker's own
    /// pool (the run loop has just found that empty, or the worker
    /// parked); `false` means the whole computation terminated.
    fn restore(&mut self) -> bool {
        let mut idle_rounds: u32 = 0;
        loop {
            // A raced run that is already won has nothing left to steal
            // for: stop raiding other pools (their owners will discard
            // that work anyway) and just drain towards termination. The
            // check also keeps idle node leaders refreshing the winner
            // mirror for their busy peers. A parked worker likewise stops
            // raiding — work it stole would sit unprocessed in an
            // out-of-lease pool — and waits out the lease instead.
            if self.lease_parked() {
                if !self.park_until_leased() {
                    return false;
                }
            } else if self.gate.raised() {
                self.on_win_observed();
            } else {
                // Local steal from a co-located worker.
                if self.try_local_steal() {
                    return true;
                }
                // Remote steal from another node.
                if self.world.topology.nodes() > 1 {
                    match self.try_remote_steal() {
                        RemoteOutcome::Got => return true,
                        RemoteOutcome::Nothing => {}
                        RemoteOutcome::Terminated => return false,
                    }
                }
            }
            // Idle: check termination, serve requests, back off.
            self.stats.clock.set(WorkerState::Idle);
            self.stats.idle_rounds += 1;
            if self.term.terminated() {
                return false;
            }
            self.serve_request();
            self.stats.clock.set(WorkerState::Idle);
            Self::backoff(idle_rounds);
            idle_rounds = idle_rounds.saturating_add(1);
            self.stats.clock.set(WorkerState::Searching);
            if !self.lease_parked() && self.acquire_local() {
                return true;
            }
        }
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

    fn try_local_steal(&mut self) -> bool {
        let topo = &self.world.topology;
        if topo.node_size() < 2 {
            return false;
        }
        self.stats.clock.set(WorkerState::Searching);
        let lease = self.lease_width();
        let (pools, rng) = (self.pools, &mut self.rng);
        let (victim, _) = self.cfg.steal.pick_local(
            topo,
            &self.victim_order,
            lease,
            |n| rng.below_usize(n),
            |w| pools[w].shared_len(),
        );
        let Some(v) = victim else {
            return false;
        };

        self.stats.clock.set(WorkerState::Stealing);
        let shared = self.pools[v].shared_len();
        let want = self.cfg.steal.local_grant(topo, self.id, v, shared, lease);
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
        if n > 0 {
            if self.gate.raised() {
                // The winner flag was raised while we picked and locked
                // the victim: the run loop discards these items as
                // abandoned, so the steal lands in the drain bucket —
                // the same exclusion every other steal path applies.
                self.stats.drain_steals += 1;
            } else {
                self.stats.local_steals += 1;
                self.stats.local_steal_items += n;
                self.count_steal(v, true);
            }
            true
        } else {
            // The victim looked loaded but the lock-time check found
            // nothing: a failed (local) steal.
            self.stats.local_steal_failures += 1;
            self.count_steal(v, false);
            false
        }
    }

    /// Count a settled steal: the distance histogram, and the rulebook's
    /// affinity update.
    fn count_steal(&mut self, victim: usize, success: bool) {
        let topo = &self.world.topology;
        if success {
            self.stats
                .steals_by_distance
                .record(topo.distance(self.id, victim));
        }
        self.cfg
            .steal
            .record_outcome(topo, &mut self.victim_order, victim, success);
    }

    fn try_remote_steal(&mut self) -> RemoteOutcome {
        let topo = &self.world.topology;
        let ic = &self.world.interconnect;
        self.stats.clock.set(WorkerState::SearchingRemote);

        // One-sided scan of remote nodes (each probe pays the fabric).
        // The lease register is read once per round.
        let lease = self.lease_width();
        let (pools, rng) = (self.pools, &mut self.rng);
        let (victim, _) = self.cfg.steal.pick_remote(
            topo,
            &self.victim_order,
            lease,
            |n| rng.below_usize(n),
            |w| {
                let meta = pools[w].meta_remote(ic);
                (meta.req == 0).then(|| meta.shared_len())
            },
        );
        let Some(v) = victim else {
            return RemoteOutcome::Nothing;
        };

        // Claim the victim's mailbox.
        self.stats.clock.set(WorkerState::FindRemote);
        self.my_pool.reset_response();
        let t0 = Instant::now();
        if !self.pools[v].try_post_request_remote(ic, self.id) {
            return RemoteOutcome::Nothing; // another thief got there first
        }

        // Wait for the victim's (possibly proxied) answer.
        self.stats.clock.set(WorkerState::WaitRemote);
        loop {
            match self.my_pool.response() {
                RESP_PENDING => {
                    // Serve our own mailbox while waiting (avoids mutual
                    // thief/victim waits) and abandon on termination.
                    if self.my_pool.pending_request().is_some() {
                        self.serve_request();
                        self.stats.clock.set(WorkerState::WaitRemote);
                    }
                    if self.term.terminated() {
                        return RemoteOutcome::Terminated;
                    }
                    std::hint::spin_loop();
                }
                RESP_FAIL => {
                    self.my_pool.reset_response();
                    self.stats.remote_steal_failures += 1;
                    self.count_steal(v, false);
                    return RemoteOutcome::Nothing;
                }
                n => {
                    // Items were written in place at our head; the fabric
                    // cannot deliver them faster than one round trip.
                    ic.enforce_rtt_floor(t0, n as usize * self.slot_words * 8);
                    self.my_pool.reset_response();
                    self.my_pool.adopt_written(n);
                    if self.gate.raised() {
                        // The reply raced the winner flag and lost: the
                        // run loop discards these items as abandoned, so
                        // counting the steal as *successful* would inflate
                        // the histogram and items-per-remote-steal. It
                        // lands in the separate drain bucket instead.
                        self.stats.drain_steals += 1;
                    } else {
                        self.stats.remote_steals += 1;
                        self.stats.remote_steal_items += n;
                        self.count_steal(v, true);
                    }
                    let got = self.my_pool.pop_private(&mut self.current);
                    debug_assert!(got, "adopted items must be poppable");
                    return RemoteOutcome::Got;
                }
            }
        }
    }

    // ----- victim side -------------------------------------------------------

    /// Serve a pending remote steal request, if any: let the rulebook
    /// assemble the reply from this node's pools, write everything in
    /// place into the thief's pool and notify once — or refuse with
    /// `RESP_FAIL` when nothing can be found anywhere on the node.
    fn serve_request(&mut self) {
        let Some(thief) = self.my_pool.pending_request() else {
            return;
        };
        self.stats.clock.set(WorkerState::Poll);
        self.stats.polls += 1;
        let ic = &self.world.interconnect;
        let thief_pool = &self.pools[thief];

        // How many slots the thief can accept at its head.
        let tm = thief_pool.meta_remote(ic);
        self.steal_flat.clear();
        let reply = self.cfg.steal.assemble_reply(
            &self.world.topology,
            self.id,
            thief,
            thief_pool.room(&tm),
            self.lease_width(),
            &mut self.adaptive,
            &mut ReplyPools {
                pools: self.pools,
                flat: &mut self.steal_flat,
            },
        );
        let (n, chunks) = (reply.items, reply.chunks);

        if n > 0 {
            thief_pool.write_slots_remote(ic, tm.head, &self.steal_flat);
            thief_pool.write_response_remote(ic, n);
            self.stats.requests_served += 1;
            self.stats.response_chunks += chunks;
            if chunks > 1 {
                self.stats.batched_responses += 1;
            }
            if reply.proxy {
                self.stats.proxy_serves += 1;
            }
        } else {
            thief_pool.write_response_remote(ic, RESP_FAIL);
            self.stats.requests_refused += 1;
        }
        self.my_pool.clear_request();
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
}

enum RemoteOutcome {
    Got,
    Nothing,
    Terminated,
}
