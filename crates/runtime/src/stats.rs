//! Per-worker statistics: the paper's worker-state taxonomy and steal
//! accounting.
//!
//! Figures 3 and 5 of the paper decompose each worker's wall time into ten
//! states; Tables I and II count local/remote steals and their failures.
//! [`WorkerStats`] collects exactly those quantities, plus the
//! propagation/splitting/restoring phase split quoted in §VI.

use std::time::{Duration, Instant};

use macs_gpi::StealHistogram;
use macs_search::SAMPLE_STRIDE;

/// The states a worker can be in, matching the legend of the paper's
/// Fig. 3/5.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum WorkerState {
    /// Processing a work item (propagation + splitting for CP).
    Working = 0,
    /// Scanning local victims, and re-checking the own pool after an idle
    /// round. (Popping the own pool between items is part of the hot loop
    /// and is not a state change.)
    Searching = 1,
    /// Scanning remote nodes' pool metadata for a victim.
    SearchingRemote = 2,
    /// Executing a local steal (victim pool locked, items copied).
    Stealing = 3,
    /// Out of work, backing off between steal rounds.
    Idle = 4,
    /// Moving the split pointer to publish work (the release operation).
    Releasing = 5,
    /// Start/end rendezvous.
    Barrier = 6,
    /// Checking and serving remote steal requests.
    Poll = 7,
    /// Posting a remote steal request (mailbox CAS).
    FindRemote = 8,
    /// Waiting for the victim's response.
    WaitRemote = 9,
}

/// Number of distinct worker states.
pub const NUM_STATES: usize = 10;

impl WorkerState {
    pub const ALL: [WorkerState; NUM_STATES] = [
        WorkerState::Working,
        WorkerState::Searching,
        WorkerState::SearchingRemote,
        WorkerState::Stealing,
        WorkerState::Idle,
        WorkerState::Releasing,
        WorkerState::Barrier,
        WorkerState::Poll,
        WorkerState::FindRemote,
        WorkerState::WaitRemote,
    ];

    pub fn name(self) -> &'static str {
        match self {
            WorkerState::Working => "Working",
            WorkerState::Searching => "Searching",
            WorkerState::SearchingRemote => "Searching remote",
            WorkerState::Stealing => "Stealing",
            WorkerState::Idle => "Idle",
            WorkerState::Releasing => "Releasing",
            WorkerState::Barrier => "Barrier",
            WorkerState::Poll => "Poll",
            WorkerState::FindRemote => "Find remote",
            WorkerState::WaitRemote => "Wait remote",
        }
    }
}

/// Tracks which state a worker is in and for how long — exactly for the
/// rare states, by sampling inside the hot loop.
///
/// `Instant::now()` costs about 30 ns and a work item a few hundred, so a
/// clock that timestamps every `Working → Releasing → Working` round trip
/// is a large part of what it reports. The clock therefore takes two
/// kinds of transition:
///
/// * [`StateClock::set`] is **exact**: it reads the clock and charges the
///   elapsed interval. Everything off the per-item path uses it — victim
///   scans, steals, idling, remote waits, barriers, parking, serving a
///   request.
/// * [`StateClock::tick`] (start the next hot-loop iteration) and
///   [`StateClock::hot`] (move between states inside it) read the clock
///   only on one iteration in [`SAMPLE_STRIDE`], the first included.
///
/// A run of hot transitions between two exact ones is a **hot block**.
/// Its two ends are exact reads, so its length is exact; what the sampled
/// iterations contribute is how that length divides between the hot
/// states. [`StateClock::finish`] splits the summed length of all hot
/// blocks in proportion to the time the sampled iterations saw in each
/// state (all of it to [`WorkerState::Working`] when nothing was sampled).
/// `totals` therefore still sums to the wall time between
/// [`StateClock::start`] and `finish`, to the nanosecond; the shares of
/// the cold states are exact, and only the division *among* the hot
/// states carries sampling error. On a run shorter than one stride that
/// division is the first iteration's alone.
#[derive(Debug)]
pub struct StateClock {
    current: WorkerState,
    /// Start of the open interval: of the current cold state, or — in a
    /// hot block, on a sampled iteration — of the current hot state.
    since: Instant,
    /// Per-state time. Hot-loop states are filled in by
    /// [`StateClock::finish`].
    pub totals: [Duration; NUM_STATES],
    started: Instant,
    /// Start of the open hot block, if there is one.
    block: Option<Instant>,
    /// Summed length of the closed hot blocks.
    hot_total: Duration,
    /// Time the sampled iterations saw in each state of a hot block.
    sampled: [Duration; NUM_STATES],
    /// Is the current hot-loop iteration a sampled one?
    sampling: bool,
    /// Iterations until the next sampled one.
    until_sampled: u32,
    /// `Instant::now()` calls made.
    reads: u64,
}

impl StateClock {
    pub fn start() -> Self {
        let now = Instant::now();
        StateClock {
            current: WorkerState::Barrier,
            since: now,
            totals: [Duration::ZERO; NUM_STATES],
            started: now,
            block: None,
            hot_total: Duration::ZERO,
            sampled: [Duration::ZERO; NUM_STATES],
            sampling: false,
            until_sampled: 1,
            reads: 1,
        }
    }

    #[inline]
    fn now(&mut self) -> Instant {
        self.reads += 1;
        Instant::now()
    }

    /// Exact read at `now`: close the open hot block or charge the open
    /// cold interval.
    #[inline]
    fn close(&mut self, now: Instant) {
        match self.block.take() {
            Some(block) => {
                self.hot_total += now - block;
                if self.sampling {
                    self.sampled[self.current as usize] += now - self.since;
                }
            }
            None => self.totals[self.current as usize] += now - self.since,
        }
        self.since = now;
    }

    /// Exact transition to `state`: reads the clock and charges the
    /// elapsed time to the previous state (ending the hot block, if one is
    /// open). A self-transition outside a hot block just keeps
    /// accumulating.
    #[inline]
    pub fn set(&mut self, state: WorkerState) {
        if state == self.current && self.block.is_none() {
            return;
        }
        let now = self.now();
        self.close(now);
        self.current = state;
    }

    /// Start the next hot-loop iteration, in `state`. Reads the clock when
    /// this iteration or the one it ends is sampled, or when it opens a
    /// hot block.
    #[inline]
    pub fn tick(&mut self, state: WorkerState) {
        let was = self.sampling;
        self.until_sampled -= 1;
        self.sampling = self.until_sampled == 0;
        if self.sampling {
            self.until_sampled = SAMPLE_STRIDE;
        }
        if self.block.is_none() {
            let now = self.now();
            self.close(now);
            self.block = Some(now);
        } else if was || self.sampling {
            let now = self.now();
            if was {
                self.sampled[self.current as usize] += now - self.since;
            }
            self.since = now;
        }
        self.current = state;
    }

    /// Transition to `state` inside a hot-loop iteration: reads the clock
    /// only when the iteration is sampled.
    #[inline]
    pub fn hot(&mut self, state: WorkerState) {
        debug_assert!(self.block.is_some(), "hot transition outside an iteration");
        if self.sampling && state != self.current {
            let now = self.now();
            self.sampled[self.current as usize] += now - self.since;
            self.since = now;
        }
        self.current = state;
    }

    #[inline]
    pub fn current(&self) -> WorkerState {
        self.current
    }

    /// Close the clock: charge the final open interval and divide the hot
    /// blocks' exact total among the hot states by their sampled shares.
    pub fn finish(&mut self) {
        let now = self.now();
        self.close(now);
        let hot = std::mem::take(&mut self.hot_total);
        let seen: u128 = self.sampled.iter().map(Duration::as_nanos).sum();
        let working = WorkerState::Working as usize;
        let mut rest = hot;
        for (i, s) in self.sampled.iter().enumerate() {
            // No sample at all (`seen == 0`): everything stays in `rest`.
            let share = (hot.as_nanos() * s.as_nanos()).checked_div(seen);
            if let Some(share) = share.filter(|_| i != working) {
                let part = Duration::from_nanos(share as u64);
                self.totals[i] += part;
                rest -= part;
            }
        }
        // The remainder, so the parts add up to the blocks' length exactly.
        self.totals[working] += rest;
    }

    pub fn total(&self) -> Duration {
        self.totals.iter().sum()
    }

    /// Wall time from [`StateClock::start`] to the last exact read; after
    /// [`StateClock::finish`] this equals [`StateClock::total`].
    pub fn wall(&self) -> Duration {
        self.since - self.started
    }

    /// `Instant::now()` calls made so far — the clock's own cost, as a
    /// count.
    pub fn reads(&self) -> u64 {
        self.reads
    }
}

/// The solve-phase split the paper quotes in §VI ("propagation takes around
/// 48%, splitting around 10% and restoring takes around 42%").
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTimers {
    pub propagate: Duration,
    pub split: Duration,
    pub restore: Duration,
}

impl PhaseTimers {
    pub fn total(&self) -> Duration {
        self.propagate + self.split + self.restore
    }

    /// (propagate, split, restore) as fractions of their sum.
    pub fn fractions(&self) -> (f64, f64, f64) {
        let t = self.total().as_secs_f64();
        if t == 0.0 {
            return (0.0, 0.0, 0.0);
        }
        (
            self.propagate.as_secs_f64() / t,
            self.split.as_secs_f64() / t,
            self.restore.as_secs_f64() / t,
        )
    }
}

/// Everything one worker reports at the end of a run.
#[derive(Debug)]
pub struct WorkerStats {
    pub id: usize,
    pub node: usize,
    pub clock: StateClock,
    pub phase: PhaseTimers,
    /// Work items processed (the paper's "nodes"/"stores processed").
    pub items: u64,
    /// Children pushed into the pool.
    pub pushes: u64,
    /// Pushes that spilled to the local overflow stack (ring full).
    pub overflow_spills: u64,
    /// Successful local steals (as thief) and items obtained.
    pub local_steals: u64,
    pub local_steal_items: u64,
    /// Local steal attempts that found a victim's shared region empty.
    pub local_steal_failures: u64,
    /// Successful remote steals (as thief) and items obtained.
    pub remote_steals: u64,
    pub remote_steal_items: u64,
    /// Remote requests answered with "no work".
    pub remote_steal_failures: u64,
    /// Release operations and items shared.
    pub releases: u64,
    pub released_items: u64,
    /// Poll operations (request checks) and requests served.
    pub polls: u64,
    pub requests_served: u64,
    /// Requests served out of a co-located worker's pool (proxy
    /// fulfilment).
    pub proxy_serves: u64,
    /// Requests we had to answer with RESP_FAIL.
    pub requests_refused: u64,
    /// Solutions reported by the processor.
    pub solutions: u64,
    /// Successful steals (as thief) by topological distance.
    pub steals_by_distance: StealHistogram,
    /// First-solution races: steals (local grabs or remote replies) that
    /// resolved after the winner flag was raised, delivering items that
    /// were immediately discarded. Kept out of the steal counts and the
    /// distance histogram so they cannot inflate items-per-steal.
    pub drain_steals: u64,
    /// Victim-pool chunks written across all served responses (≥
    /// `requests_served`; the surplus is the batching win).
    pub response_chunks: u64,
    /// Responses that carried more than one victim's chunk.
    pub batched_responses: u64,
    /// First-solution races: items this worker *started* after the winner
    /// flag was raised somewhere — work the flag's dissemination lag
    /// failed to prevent (see [`RaceRing`]).
    pub nodes_after_win: u64,
    /// First-solution races: items this worker discarded unprocessed
    /// (in hand or pooled) once it observed the winner flag.
    pub abandoned_items: u64,
    /// Leased runs: times this worker parked because the lease width
    /// shrank below its id (it published its pool and served thieves
    /// until regrown or terminated).
    pub parks: u64,
    /// Rounds of the restore loop that found nothing to steal and backed
    /// off (each makes a bounded number of exact clock reads).
    pub idle_rounds: u64,
    /// Incumbent improvements this worker published.
    pub improvements: u64,
    /// Fabric reads of the root incumbent on the `Periodic` cadence.
    pub bound_pulls: u64,
}

impl WorkerStats {
    pub fn new(id: usize, node: usize) -> Self {
        WorkerStats {
            id,
            node,
            clock: StateClock::start(),
            phase: PhaseTimers::default(),
            items: 0,
            pushes: 0,
            overflow_spills: 0,
            local_steals: 0,
            local_steal_items: 0,
            local_steal_failures: 0,
            remote_steals: 0,
            remote_steal_items: 0,
            remote_steal_failures: 0,
            releases: 0,
            released_items: 0,
            polls: 0,
            requests_served: 0,
            proxy_serves: 0,
            requests_refused: 0,
            solutions: 0,
            steals_by_distance: StealHistogram::new(),
            drain_steals: 0,
            response_chunks: 0,
            batched_responses: 0,
            nodes_after_win: 0,
            abandoned_items: 0,
            parks: 0,
            idle_rounds: 0,
            improvements: 0,
            bound_pulls: 0,
        }
    }
}

pub use macs_search::mode::RaceRing;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_accumulates_per_state() {
        let mut c = StateClock::start();
        c.set(WorkerState::Working);
        std::thread::sleep(Duration::from_millis(5));
        c.set(WorkerState::Idle);
        std::thread::sleep(Duration::from_millis(2));
        c.set(WorkerState::Working);
        c.finish();
        assert!(c.totals[WorkerState::Working as usize] >= Duration::from_millis(4));
        assert!(c.totals[WorkerState::Idle as usize] >= Duration::from_millis(1));
        assert!(c.total() >= Duration::from_millis(7));
    }

    #[test]
    fn self_transition_is_free() {
        let mut c = StateClock::start();
        c.set(WorkerState::Working);
        for _ in 0..1000 {
            c.set(WorkerState::Working);
        }
        assert_eq!(c.current(), WorkerState::Working);
    }

    fn spin(d: Duration) {
        let t0 = Instant::now();
        while t0.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    /// One hot-loop iteration as the worker drives it: the item, then
    /// `release_every`-th iterations a release.
    fn iteration(c: &mut StateClock, i: u32, release_every: u32) {
        c.tick(WorkerState::Working);
        spin(Duration::from_micros(20));
        if i.is_multiple_of(release_every) {
            c.hot(WorkerState::Releasing);
            spin(Duration::from_micros(20));
        }
    }

    #[test]
    fn hot_loop_reads_the_clock_on_one_iteration_in_a_stride() {
        let mut c = StateClock::start();
        let before = c.reads();
        let strides = 8;
        for i in 0..strides * SAMPLE_STRIDE {
            iteration(&mut c, i, 1);
        }
        // Per sampled iteration: its start (for the first, the read that
        // opens the block), its Working → Releasing, its end.
        assert_eq!(c.reads() - before, 3 * u64::from(strides));
        c.finish();
        assert_eq!(c.total(), c.wall());
    }

    #[test]
    fn totals_sum_to_wall_time_through_hot_and_cold_states() {
        let outer = Instant::now();
        let mut c = StateClock::start();
        let inner = Instant::now();
        for round in 0..3 {
            for i in 0..2 * SAMPLE_STRIDE + 7 {
                iteration(&mut c, i, 3);
            }
            if round == 1 {
                // A served request: exact, from inside the block.
                c.set(WorkerState::Poll);
                spin(Duration::from_micros(200));
            }
            c.set(WorkerState::Searching);
            spin(Duration::from_micros(300));
            c.set(WorkerState::Idle);
            spin(Duration::from_micros(300));
        }
        let inner = inner.elapsed();
        c.finish();
        let outer = outer.elapsed();
        // Nothing leaks and nothing is charged twice.
        assert_eq!(c.total(), c.wall());
        assert!(inner <= c.total() && c.total() <= outer);
        // Cold states are exact...
        let of = |s: WorkerState| c.totals[s as usize];
        assert!(of(WorkerState::Searching) >= Duration::from_micros(900));
        assert!(of(WorkerState::Idle) >= Duration::from_micros(900));
        assert!(of(WorkerState::Poll) >= Duration::from_micros(200));
        // ... and the hot block divides in the sampled proportion: a
        // release as long as the item on every third iteration is a
        // quarter of the block.
        let hot = (of(WorkerState::Working) + of(WorkerState::Releasing)).as_secs_f64();
        let share = of(WorkerState::Releasing).as_secs_f64() / hot;
        assert!((0.1..0.45).contains(&share), "Releasing share {share}");
    }

    #[test]
    fn unsampled_hot_transitions_are_charged_to_working() {
        // Shorter than one stride, and the one sampled iteration (the
        // first) makes no release: the later releases are never seen, so
        // the whole block is Working — the estimator's bias on short runs.
        let mut c = StateClock::start();
        for i in 0..SAMPLE_STRIDE - 1 {
            c.tick(WorkerState::Working);
            if i > 0 {
                c.hot(WorkerState::Releasing);
            }
            spin(Duration::from_micros(5));
        }
        c.finish();
        assert_eq!(c.totals[WorkerState::Releasing as usize], Duration::ZERO);
        assert!(c.totals[WorkerState::Working as usize] >= Duration::from_micros(250));
        assert_eq!(c.total(), c.wall());
    }

    #[test]
    fn phase_fractions_sum_to_one() {
        let p = PhaseTimers {
            propagate: Duration::from_millis(48),
            split: Duration::from_millis(10),
            restore: Duration::from_millis(42),
        };
        let (a, b, c) = p.fractions();
        assert!((a + b + c - 1.0).abs() < 1e-9);
        assert!((a - 0.48).abs() < 0.01);
    }

    #[test]
    fn state_names_cover_paper_legend() {
        let names: Vec<&str> = WorkerState::ALL.iter().map(|s| s.name()).collect();
        for expect in [
            "Working",
            "Searching",
            "Searching remote",
            "Stealing",
            "Idle",
            "Releasing",
            "Barrier",
            "Poll",
            "Find remote",
            "Wait remote",
        ] {
            assert!(names.contains(&expect), "{expect} missing");
        }
    }
}
