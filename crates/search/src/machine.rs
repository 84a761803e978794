//! The worker, written once: a sans-IO state machine that sequences every
//! phase of paper §IV–V — or of a PaCCS agent — and performs none of them.
//!
//! [`WorkerMachine::step`] reads the [`Outcome`] of the [`Action`] it
//! emitted last and returns the next one. A driver performs each action and
//! feeds back what happened: the threaded worker (`macs-runtime`) on atomics
//! and the wall clock, the simulator (`macs-sim`) by charging `CostModel`
//! prices in virtual time and scheduling the continuation on its event
//! heap. The victim scans (R4, R5) run inside `step` over the driver's
//! [`WorkerView`], as the R6 reply runs over a `PoolView`; so the two
//! executions sequence the protocol identically and differ only in price.
//! After a node the decision is two counter compares and a lease compare:
//! no allocation, no dynamic dispatch, no clock read.
//!
//! [`WorkerMachine::paccs`] sequences a PaCCS agent in the same vocabulary:
//! it never releases, polls after every node, and sweeps `PostRequest`s over
//! the distance rings, nearest first.

use macs_topo::{MachineTopology, VictimOrder};

use crate::rng::SplitMix64;
use crate::steal::{PollPolicy, ScanView, StealPolicy, UNLEASED};

/// The idle round saturates here (the simulator's event trace records it;
/// the threaded back-off yields from round 8 on).
pub const MAX_IDLE_ROUND: u32 = 16;

/// What the driver does next, and the [`Outcome`] it answers with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Action {
    /// Expand the item in hand → `Expanded`.
    Expand,
    /// Publish `k` private items (R1) → `Ok`.
    Release(u64),
    /// Serve a request that has arrived in the mailbox → `Polled`.
    Poll,
    /// Take an item from the own overflow, private region or, by a
    /// reacquire (R8), shared region → `Acquired`.
    AcquireOwn,
    /// Take a grant (R3) from co-located worker `v` → `Stole`.
    StealLocal(usize),
    /// Post a request into remote worker `v`'s mailbox (PaCCS: any agent's
    /// queue), await the reply → `Stole`.
    PostRequest(usize),
    /// A won race: discard the item in hand and the own pool → `Ok`.
    Drain,
    /// Idle for round `r`, serving the own mailbox → `Ok` on waking.
    Backoff(u32),
    /// Out of lease: hand back the item in hand, publish the pool, serve
    /// thieves until the lease regrows → `Ok`.
    Park,
    /// The run terminated.
    Done,
}

/// What the scan before the last steal or back-off read, for a driver to
/// price: co-located pools inspected (R4) and remote nodes probed (R5).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Scan {
    pub local: u64,
    pub remote: u64,
}

/// What performing the last [`Action`] produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Nothing to report; also the first step of a run.
    Ok,
    /// `more`: the item in hand continues (a non-leaf not dropped on a win).
    Expanded { more: bool },
    /// `hit`: a request was served.
    Polled { hit: bool },
    /// Did an item come to hand?
    Acquired(bool),
    /// `items` arrived (0: victim drained, request refused or never
    /// posted); `won`: the winner flag was seen as they landed.
    Stole { items: u64, won: bool },
    /// The run terminated while the driver waited.
    Terminated,
}

impl Outcome {
    /// A steal that brought nothing: a drained victim, a refused or an
    /// unposted request.
    pub const MISSED: Outcome = Outcome::Stole {
        items: 0,
        won: false,
    };
}

/// What a worker observes: what its victim scans read of the others
/// ([`ScanView`]: pools, mailboxes, and which nodes are dry), and its own
/// state.
pub trait WorkerView: ScanView {
    /// The own pool's `(private, shared)` lengths (R1).
    fn own_lens(&mut self) -> (u64, u64);
    /// Has the winner flag of a first-solution race reached this worker?
    fn won(&mut self) -> bool;
    /// The lease width, [`UNLEASED`] if none (R2; a worker at or above it
    /// parks).
    fn lease(&mut self) -> u64 {
        UNLEASED
    }
}

/// One worker's control flow: its policy, the last action, the release and
/// poll counters, the idle round, the last scan, the victim affinity (R7),
/// the random stream the scans draw from and, for PaCCS, the sweep. Actions
/// stay two words wide, so the per-item dispatch passes them in registers.
#[derive(Clone, Debug)]
pub struct WorkerMachine<'a> {
    topo: &'a MachineTopology,
    policy: StealPolicy,
    order: VictimOrder,
    rng: SplitMix64,
    last: Action,
    /// Whether the item in hand continues, across a Release and a Poll.
    more: bool,
    round: u32,
    scan: Scan,
    since_release: u32,
    since_poll: u32,
    poll_interval: u32,
    /// PaCCS: the sweep's next victim, an index into the distance rings
    /// flattened nearest first; `None` on a MaCS worker.
    sweep: Option<usize>,
}

impl<'a> WorkerMachine<'a> {
    pub fn new(id: usize, topo: &'a MachineTopology, policy: &StealPolicy, seed: u64) -> Self {
        WorkerMachine {
            topo,
            policy: *policy,
            order: VictimOrder::new(topo, id),
            rng: SplitMix64::for_worker(seed, id),
            // A run starts where a resumed park does: at the own pool.
            last: Action::Park,
            more: false,
            round: 0,
            scan: Scan::default(),
            since_release: 0,
            since_poll: 0,
            poll_interval: policy.poll.initial(),
            sweep: None,
        }
    }

    /// A PaCCS agent: it never releases (its whole deque is open to a
    /// request) and polls after every node.
    pub fn paccs(id: usize, topo: &'a MachineTopology, policy: &StealPolicy, seed: u64) -> Self {
        let mut m = WorkerMachine::new(id, topo, policy, seed);
        (m.policy.release.interval, m.policy.release.share_target) = (u32::MAX, 0);
        (m.policy.poll, m.poll_interval, m.sweep) = (PollPolicy::Fixed(1), 1, Some(0));
        m
    }

    /// The scans' random stream (the simulator draws node jitter from it).
    pub fn rng(&mut self) -> &mut SplitMix64 {
        &mut self.rng
    }

    /// What the scan before the last `StealLocal`, `PostRequest` or
    /// `Backoff` read (zero when none ran).
    pub fn scan(&self) -> Scan {
        self.scan
    }

    /// Read `outcome` as the result of the last action; return the next.
    #[inline]
    pub fn step(&mut self, outcome: Outcome, view: &mut impl WorkerView) -> Action {
        let next = match (self.last, outcome) {
            (Action::Done, _) | (_, Outcome::Terminated) => Action::Done,
            (Action::Expand, Outcome::Expanded { more }) => {
                self.more = more;
                self.since_release += 1;
                if self.since_release >= self.policy.release.interval {
                    self.since_release = 0;
                    let (private, shared) = view.own_lens();
                    if let Some(k) = self.policy.release_amount(private, shared) {
                        self.last = Action::Release(k);
                        return self.last;
                    }
                }
                self.after_release(view)
            }
            (Action::Release(_), Outcome::Ok) => self.after_release(view),
            (Action::Poll, Outcome::Polled { hit }) => {
                self.poll_interval = self.policy.poll.next(self.poll_interval, hit);
                self.next_item(view)
            }
            (Action::AcquireOwn, Outcome::Acquired(true)) => Action::Expand,
            (Action::AcquireOwn, Outcome::Acquired(false)) => self.ladder(0, view),
            (Action::StealLocal(victim), Outcome::Stole { items, won })
            | (Action::PostRequest(victim), Outcome::Stole { items, won }) => {
                if won {
                    self.acquire(view)
                } else if let Some(next) = &mut self.sweep {
                    // PaCCS: expand the stolen work, and resume the next
                    // sweep at this victim; a refusal asks the next one.
                    if items > 0 {
                        Action::Expand
                    } else {
                        *next += 1;
                        self.ladder(0, view)
                    }
                } else {
                    // R7; stolen work is expanded. A failed local steal
                    // rescans, a refused request idles.
                    let (topo, order) = (self.topo, &mut self.order);
                    self.policy.record_outcome(topo, order, victim, items > 0);
                    match (items, self.last) {
                        (1.., _) => Action::Expand,
                        (0, Action::StealLocal(_)) => self.ladder(0, view),
                        _ => self.backoff(0, Scan::default()),
                    }
                }
            }
            (Action::Drain, Outcome::Ok) => self.backoff(0, Scan::default()),
            (Action::Backoff(_), Outcome::Ok) => {
                // A PaCCS wake sweeps again from the nearest peer.
                self.sweep = self.sweep.map(|_| 0);
                self.ladder((self.round + 1).min(MAX_IDLE_ROUND), view)
            }
            (Action::Park, Outcome::Ok) => self.acquire(view),
            (last, outcome) => unreachable!("{outcome:?} does not answer {last:?}"),
        };
        self.last = next;
        next
    }

    /// Poll every `poll_interval` items, then go on with the item in hand.
    #[inline]
    fn after_release(&mut self, view: &mut impl WorkerView) -> Action {
        self.since_poll += 1;
        if self.since_poll >= self.poll_interval {
            self.since_poll = 0;
            return Action::Poll;
        }
        self.next_item(view)
    }

    #[inline]
    fn next_item(&mut self, view: &mut impl WorkerView) -> Action {
        if !self.more {
            self.acquire(view)
        } else if self.parked(view) {
            Action::Park
        } else {
            Action::Expand
        }
    }

    #[inline]
    fn parked(&self, view: &mut impl WorkerView) -> bool {
        self.order.me() as u64 >= view.lease()
    }

    /// The own pool first — unless the lease excludes this worker or a won
    /// race leaves only draining to do.
    fn acquire(&mut self, view: &mut impl WorkerView) -> Action {
        if self.parked(view) {
            Action::Park
        } else if view.won() {
            Action::Drain
        } else {
            Action::AcquireOwn
        }
    }

    /// A local victim (R4), else a remote one (R5), else idle for `round`.
    /// A won race stops raiding: the victims' owners discard that work.
    /// Out of line: the per-item path stays small.
    #[inline(never)]
    fn ladder(&mut self, round: u32, view: &mut impl WorkerView) -> Action {
        if self.parked(view) {
            return Action::Park;
        }
        if view.won() {
            return self.backoff(round, Scan::default());
        }
        if let Some(next) = self.sweep {
            return self.sweep(next, round);
        }
        let lease = view.lease();
        let (policy, topo, order, rng) = (&self.policy, self.topo, &self.order, &mut self.rng);
        let (victim, local) = policy.pick_local(topo, order, lease, |n| rng.below_usize(n), view);
        if let Some(victim) = victim {
            self.scan = Scan { local, remote: 0 };
            return Action::StealLocal(victim);
        }
        let (victim, remote) = policy.pick_remote(topo, order, lease, |n| rng.below_usize(n), view);
        let scan = Scan { local, remote };
        match victim {
            Some(victim) => {
                self.scan = scan;
                Action::PostRequest(victim)
            }
            None => self.backoff(round, scan),
        }
    }

    /// PaCCS: ask the sweep's `next`-th victim; past the last ring (a full
    /// failed sweep, or an agent alone) idle, and start over after.
    fn sweep(&mut self, next: usize, round: u32) -> Action {
        let (topo, me) = (self.topo, self.order.me());
        let mut i = next;
        for d in 1..=topo.levels() {
            let ring = topo.peers_at(me, d);
            if i < ring.len() {
                return Action::PostRequest(ring.get(i));
            }
            i -= ring.len();
        }
        self.sweep = Some(0);
        self.backoff(round, Scan::default())
    }

    fn backoff(&mut self, round: u32, scan: Scan) -> Action {
        (self.round, self.scan) = (round, scan);
        Action::Backoff(round)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::steal::{PollPolicy, ReleasePolicy, UNLEASED};

    /// A scripted world: every pool's `(private, shared)` length, a busy
    /// flag per mailbox, the winner flag and the lease; `reads` logs every
    /// pool a scan looked at.
    struct Fake {
        private: Vec<u64>,
        shared: Vec<u64>,
        busy: Vec<bool>,
        won: bool,
        lease: u64,
        me: usize,
        reads: Vec<usize>,
    }

    impl Fake {
        fn new(n: usize, me: usize) -> Self {
            Fake {
                private: vec![0; n],
                shared: vec![0; n],
                busy: vec![false; n],
                won: false,
                lease: UNLEASED,
                me,
                reads: Vec::new(),
            }
        }
    }

    impl ScanView for Fake {
        fn shared_len(&mut self, w: usize) -> u64 {
            self.reads.push(w);
            self.shared[w]
        }
        fn probe_remote(&mut self, w: usize) -> Option<u64> {
            self.reads.push(w);
            (!self.busy[w]).then_some(self.shared[w])
        }
    }

    impl WorkerView for Fake {
        fn own_lens(&mut self) -> (u64, u64) {
            (self.private[self.me], self.shared[self.me])
        }
        fn won(&mut self) -> bool {
            self.won
        }
        fn lease(&mut self) -> u64 {
            self.lease
        }
    }

    /// Release and poll out of the way, unless a test asks for them.
    fn quiet() -> StealPolicy {
        StealPolicy {
            release: ReleasePolicy {
                interval: u32::MAX,
                share_target: u64::MAX,
            },
            poll: PollPolicy::Fixed(u32::MAX),
            ..StealPolicy::default()
        }
    }

    /// Step `m` and expect a back-off at `round` after a scan that read
    /// `local` pools and probed `remote` nodes.
    fn expect_idle(m: &mut WorkerMachine, o: Outcome, v: &mut Fake, round: u32, scan: (u64, u64)) {
        assert_eq!(m.step(o, v), Action::Backoff(round));
        let (local, remote) = scan;
        assert_eq!(m.scan(), Scan { local, remote });
    }

    #[test]
    fn a_starving_worker_posts_then_backs_off_in_capped_rounds() {
        // Two nodes of two: worker 0's only surplus sits on node 1.
        let topo = MachineTopology::try_new(&[2, 2], 1).unwrap();
        let policy = quiet();
        let mut m = WorkerMachine::new(0, &topo, &policy, 7);
        let mut v = Fake::new(4, 0);
        v.shared[3] = 4;
        assert_eq!(m.step(Outcome::Ok, &mut v), Action::AcquireOwn);
        let post = m.step(Outcome::Acquired(false), &mut v);
        assert_eq!(post, Action::PostRequest(3));
        assert_eq!(
            m.scan(),
            Scan {
                local: 1,
                remote: 1
            }
        );
        // Refused: idle at round 0, no rescan.
        v.shared[3] = 0;
        expect_idle(&mut m, Outcome::MISSED, &mut v, 0, (0, 0));
        // Every wake rescans and idles one round further, up to the cap.
        for round in 1..=MAX_IDLE_ROUND + 3 {
            v.reads.clear();
            expect_idle(
                &mut m,
                Outcome::Ok,
                &mut v,
                round.min(MAX_IDLE_ROUND),
                (1, 1),
            );
            assert_eq!(v.reads, [1, 2, 3], "local peer, then node 1's pools");
        }
        // Work appears: the next wake steals it.
        v.shared[1] = 3;
        assert_eq!(m.step(Outcome::Ok, &mut v), Action::StealLocal(1));
        let got = Outcome::Stole {
            items: 2,
            won: false,
        };
        assert_eq!(m.step(got, &mut v), Action::Expand);
        assert_eq!(m.step(Outcome::Terminated, &mut v), Action::Done);
        assert_eq!(m.step(Outcome::Ok, &mut v), Action::Done);
    }

    #[test]
    fn a_failed_local_steal_restarts_the_ladder_with_a_fresh_scan() {
        let topo = MachineTopology::flat(3);
        let policy = quiet();
        let mut m = WorkerMachine::new(2, &topo, &policy, 1);
        let mut v = Fake::new(3, 2);
        v.shared[0] = 5;
        m.step(Outcome::Ok, &mut v);
        let first = m.step(Outcome::Acquired(false), &mut v);
        assert_eq!(first, Action::StealLocal(0));
        // Drained at lock time; worker 1 has work now.
        v.shared[0] = 0;
        v.shared[1] = 2;
        v.reads.clear();
        assert_eq!(m.step(Outcome::MISSED, &mut v), Action::StealLocal(1));
        assert!(!v.reads.is_empty(), "a fresh local scan");
        // Drained again, nothing left: idle at round 0 (not a retry round)
        // after inspecting both peers.
        v.shared[1] = 0;
        expect_idle(&mut m, Outcome::MISSED, &mut v, 0, (2, 0));
    }

    #[test]
    fn a_win_observed_mid_chain_drains() {
        let topo = MachineTopology::flat(2);
        let policy = quiet();
        let mut m = WorkerMachine::new(0, &topo, &policy, 3);
        let mut v = Fake::new(2, 0);
        m.step(Outcome::Ok, &mut v);
        assert_eq!(m.step(Outcome::Acquired(true), &mut v), Action::Expand);
        let more = Outcome::Expanded { more: true };
        assert_eq!(m.step(more, &mut v), Action::Expand);
        // The winner flag arrives: the driver drops the chain.
        v.won = true;
        let dropped = Outcome::Expanded { more: false };
        assert_eq!(m.step(dropped, &mut v), Action::Drain);
        expect_idle(&mut m, Outcome::Ok, &mut v, 0, (0, 0));
        // A won race stops raiding: idle without scanning.
        v.shared[1] = 9;
        v.reads.clear();
        expect_idle(&mut m, Outcome::Ok, &mut v, 1, (0, 0));
        assert!(v.reads.is_empty());
        // Stolen items that land after the win drain too.
        let mut m = WorkerMachine::new(0, &topo, &policy, 3);
        v.won = false;
        m.step(Outcome::Ok, &mut v);
        m.step(Outcome::Acquired(false), &mut v);
        v.won = true;
        let late = Outcome::Stole {
            items: 3,
            won: true,
        };
        assert_eq!(m.step(late, &mut v), Action::Drain);
    }

    #[test]
    fn a_lease_shrink_parks_the_worker() {
        let topo = MachineTopology::flat(4);
        let policy = quiet();
        let mut m = WorkerMachine::new(2, &topo, &policy, 5);
        let mut v = Fake::new(4, 2);
        m.step(Outcome::Ok, &mut v);
        m.step(Outcome::Acquired(true), &mut v);
        // Shrunk to two workers between two nodes of a chain.
        v.lease = 2;
        let more = Outcome::Expanded { more: true };
        assert_eq!(m.step(more, &mut v), Action::Park);
        // Regrown: back to the own pool (the item was handed back).
        v.lease = 4;
        assert_eq!(m.step(Outcome::Ok, &mut v), Action::AcquireOwn);
        // A shrink seen by an idle worker parks it too.
        expect_idle(&mut m, Outcome::Acquired(false), &mut v, 0, (3, 0));
        v.lease = 1;
        assert_eq!(m.step(Outcome::Ok, &mut v), Action::Park);
        assert_eq!(m.step(Outcome::Terminated, &mut v), Action::Done);
    }

    #[test]
    fn release_and_poll_follow_their_counters() {
        let topo = MachineTopology::flat(2);
        let policy = StealPolicy {
            release: ReleasePolicy::tuned(),
            poll: PollPolicy::Dynamic { min: 2, max: 8 },
            ..StealPolicy::default()
        };
        let mut m = WorkerMachine::new(0, &topo, &policy, 9);
        let mut v = Fake::new(2, 0);
        v.private[0] = 10;
        m.step(Outcome::Ok, &mut v);
        m.step(Outcome::Acquired(true), &mut v);
        let more = Outcome::Expanded { more: true };
        let mut log = Vec::new();
        for _ in 0..32 {
            let mut a = m.step(more, &mut v);
            while a != Action::Expand {
                log.push(a);
                a = match a {
                    Action::Poll => m.step(Outcome::Polled { hit: false }, &mut v),
                    _ => m.step(Outcome::Ok, &mut v),
                };
            }
        }
        // Polls after items 2, 6 and 14, then every 8 (the interval
        // doubles on a miss, up to its ceiling); one release of
        // (10 − 2) / 2, at item 32.
        let polls = log.iter().filter(|&&a| a == Action::Poll).count();
        assert_eq!(polls, 5, "{log:?}");
        assert_eq!(log.last(), Some(&Action::Release(4)), "{log:?}");
    }

    /// A PaCCS agent of `topo`, past its first (empty) acquire.
    fn starving_agent<'a>(
        id: usize,
        topo: &'a MachineTopology,
        policy: &StealPolicy,
        v: &mut Fake,
    ) -> (WorkerMachine<'a>, Action) {
        let mut m = WorkerMachine::paccs(id, topo, policy, 11);
        assert_eq!(m.step(Outcome::Ok, v), Action::AcquireOwn);
        let first = m.step(Outcome::Acquired(false), v);
        (m, first)
    }

    #[test]
    fn a_paccs_sweep_asks_nearest_first_and_restarts_after_a_failed_sweep() {
        // Two nodes of two: agent 0's rings are [1] then [2, 3].
        let topo = MachineTopology::try_new(&[2, 2], 1).unwrap();
        let policy = StealPolicy::default();
        let mut v = Fake::new(4, 0);
        let (mut m, first) = starving_agent(0, &topo, &policy, &mut v);
        assert_eq!(first, Action::PostRequest(1));
        // Each refusal asks the next victim; a full failed sweep idles at
        // round 0 and the wake starts over at the nearest peer.
        assert_eq!(m.step(Outcome::MISSED, &mut v), Action::PostRequest(2));
        assert_eq!(m.step(Outcome::MISSED, &mut v), Action::PostRequest(3));
        expect_idle(&mut m, Outcome::MISSED, &mut v, 0, (0, 0));
        assert_eq!(m.step(Outcome::Ok, &mut v), Action::PostRequest(1));
        assert!(v.reads.is_empty(), "a sweep reads no peer's deque");
    }

    #[test]
    fn a_paccs_sweep_resumes_at_the_victim_that_last_served() {
        let topo = MachineTopology::try_new(&[2, 2], 1).unwrap();
        let policy = StealPolicy::default();
        let mut v = Fake::new(4, 0);
        let (mut m, _) = starving_agent(0, &topo, &policy, &mut v);
        m.step(Outcome::MISSED, &mut v);
        let got = Outcome::Stole {
            items: 2,
            won: false,
        };
        assert_eq!(m.step(got, &mut v), Action::Expand);
        // The work runs out: the next sweep asks victim 2 first.
        let leaf = Outcome::Expanded { more: false };
        assert_eq!(m.step(leaf, &mut v), Action::Poll);
        let polled = Outcome::Polled { hit: false };
        assert_eq!(m.step(polled, &mut v), Action::AcquireOwn);
        let next = m.step(Outcome::Acquired(false), &mut v);
        assert_eq!(next, Action::PostRequest(2));
        assert_eq!(m.step(Outcome::MISSED, &mut v), Action::PostRequest(3));
        expect_idle(&mut m, Outcome::MISSED, &mut v, 0, (0, 0));
        assert_eq!(m.step(Outcome::Ok, &mut v), Action::PostRequest(1));
    }

    #[test]
    fn a_won_paccs_race_drains_then_idles_without_requests() {
        let topo = MachineTopology::try_new(&[2, 2], 1).unwrap();
        let policy = StealPolicy::default();
        let mut v = Fake::new(4, 0);
        let (mut m, _) = starving_agent(0, &topo, &policy, &mut v);
        // Work lands after the winner flag: drain it, then only idle.
        v.won = true;
        let late = Outcome::Stole {
            items: 3,
            won: true,
        };
        assert_eq!(m.step(late, &mut v), Action::Drain);
        expect_idle(&mut m, Outcome::Ok, &mut v, 0, (0, 0));
        for round in 1..=MAX_IDLE_ROUND + 2 {
            expect_idle(
                &mut m,
                Outcome::Ok,
                &mut v,
                round.min(MAX_IDLE_ROUND),
                (0, 0),
            );
        }
    }

    #[test]
    fn a_lone_paccs_agent_never_posts() {
        let topo = MachineTopology::flat(1);
        let policy = StealPolicy::default();
        let mut v = Fake::new(1, 0);
        let (mut m, first) = starving_agent(0, &topo, &policy, &mut v);
        assert_eq!(first, Action::Backoff(0));
        for round in 1..=MAX_IDLE_ROUND + 2 {
            expect_idle(
                &mut m,
                Outcome::Ok,
                &mut v,
                round.min(MAX_IDLE_ROUND),
                (0, 0),
            );
        }
        assert_eq!(m.step(Outcome::Terminated, &mut v), Action::Done);
    }

    #[test]
    fn a_paccs_agent_polls_after_every_node_and_never_releases() {
        // A policy that would release on every node and poll rarely: the
        // PaCCS counters override both.
        let topo = MachineTopology::flat(2);
        let policy = StealPolicy {
            release: ReleasePolicy::default(),
            poll: PollPolicy::Fixed(64),
            ..StealPolicy::default()
        };
        let mut m = WorkerMachine::paccs(0, &topo, &policy, 13);
        let mut v = Fake::new(2, 0);
        v.private[0] = 100;
        m.step(Outcome::Ok, &mut v);
        assert_eq!(m.step(Outcome::Acquired(true), &mut v), Action::Expand);
        // Past the interval a MaCS release would wait for, hit or miss.
        for node in 0..100 {
            let more = Outcome::Expanded { more: true };
            assert_eq!(m.step(more, &mut v), Action::Poll, "node {node}");
            let polled = Outcome::Polled { hit: node % 3 == 0 };
            assert_eq!(m.step(polled, &mut v), Action::Expand, "node {node}");
        }
        let leaf = Outcome::Expanded { more: false };
        assert_eq!(m.step(leaf, &mut v), Action::Poll);
    }
}
