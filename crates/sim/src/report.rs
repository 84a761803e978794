//! Simulation results: the same quantities the threaded runtime reports,
//! in virtual time.

use macs_runtime::{StealHistogram, WorkerState, NUM_STATES};

use crate::engine_sim::{fnv1a, FNV_OFFSET};
use crate::fabric::FabricReport;

/// Per-virtual-worker counters and state times (virtual nanoseconds).
#[derive(Clone, Debug, Default)]
pub struct SimWorkerStats {
    pub items: u64,
    pub pushes: u64,
    pub solutions: u64,
    pub local_steals: u64,
    pub local_steal_items: u64,
    pub local_steal_failures: u64,
    pub remote_steals: u64,
    pub remote_steal_items: u64,
    pub remote_steal_failures: u64,
    pub releases: u64,
    pub released_items: u64,
    pub polls: u64,
    pub requests_served: u64,
    pub proxy_serves: u64,
    pub requests_refused: u64,
    /// Successful steals (as thief) by topological distance.
    pub steals_by_distance: StealHistogram,
    /// First-solution races: steals resolved after this worker observed
    /// the winner flag — a drain, not a delivery; kept out of the steal
    /// counts and the distance histogram.
    pub drain_steals: u64,
    /// Victim-pool chunks written across all served responses.
    pub response_chunks: u64,
    /// Responses that carried more than one victim's chunk.
    pub batched_responses: u64,
    /// Node expansions run under a bound worse than the best value already
    /// submitted globally — work an ideal zero-delay bound fabric might
    /// have pruned (the cost side of cheap dissemination).
    pub stale_bound_nodes: u64,
    pub state_ns: [u64; NUM_STATES],
}

/// Everything one simulation produced.
#[derive(Clone, Debug)]
pub struct SimReport<O> {
    /// Virtual wall time from start to the last completed work item.
    pub makespan_ns: u64,
    pub workers: Vec<SimWorkerStats>,
    pub outputs: Vec<O>,
    /// Final incumbent (optimisation; `i64::MAX` otherwise).
    pub incumbent: i64,
    /// Fabric messages spent disseminating bound updates (broadcast
    /// fan-out plus periodic pulls) — the volume axis of the
    /// `paper ablation_bound` trade-off.
    pub bound_msgs: u64,
    /// Incumbent improvements accepted by the bound fabric.
    pub bound_updates: u64,
    /// First-solution races: virtual instant the winning solution
    /// completed (`None` otherwise).
    pub first_solution_ns: Option<u64>,
    /// First-solution races: node expansions that completed after the win
    /// instant — work the winner flag's per-level delivery delay failed
    /// to prevent.
    pub nodes_after_win: u64,
    /// Work units discarded unprocessed once their holder observed the
    /// winner flag (pool drains, in-flight steal batches, mid-chain
    /// continuations).
    pub abandoned_items: u64,
    /// Work units that ran to natural completion (a failed or solved
    /// leaf). Conservation: `roots + Σ pushes == completed_items +
    /// abandoned_items` — no unit is ever lost or double-counted, raced
    /// or not (the `prop_race` suite pins this).
    pub completed_items: u64,
    /// Discrete events dispatched (one per event-heap pop) — the
    /// numerator of the events/sec throughput `perf_record` tracks.
    pub events: u64,
    /// FNV-1a fold of `(time, worker, phase)` over every dispatched
    /// event, in dispatch order. Two same-seed runs must produce the same
    /// hash bit for bit — the determinism witness `prop_determinism`
    /// pins at every scale point.
    pub trace_hash: u64,
    /// Peak number of work items simultaneously live in the slot arena
    /// (pools + staged children + in-flight batches).
    pub peak_live_items: u64,
    /// Steal-plane message conservation and congestion counters.
    pub fabric: FabricReport,
}

impl<O> SimReport<O> {
    pub fn total_items(&self) -> u64 {
        self.workers.iter().map(|w| w.items).sum()
    }

    /// Children pushed across all workers (work units created beyond the
    /// roots; discarded children of an already-won race count too).
    pub fn total_pushes(&self) -> u64 {
        self.workers.iter().map(|w| w.pushes).sum()
    }

    pub fn total_solutions(&self) -> u64 {
        self.workers.iter().map(|w| w.solutions).sum()
    }

    /// Virtual items per second.
    pub fn items_per_sec(&self) -> f64 {
        self.total_items() as f64 / (self.makespan_ns.max(1) as f64 / 1e9)
    }

    /// Fraction of aggregate worker time per state (Fig. 3/5 bars).
    pub fn state_fractions(&self) -> [f64; NUM_STATES] {
        let mut totals = [0.0f64; NUM_STATES];
        let mut sum = 0.0;
        for w in &self.workers {
            for (i, &ns) in w.state_ns.iter().enumerate() {
                totals[i] += ns as f64;
                sum += ns as f64;
            }
        }
        if sum > 0.0 {
            for t in totals.iter_mut() {
                *t /= sum;
            }
        }
        totals
    }

    pub fn overhead_fraction(&self) -> f64 {
        1.0 - self.state_fractions()[WorkerState::Working as usize]
    }

    /// (local ok, local failed, remote ok, remote failed) — Tables I/II.
    pub fn steal_totals(&self) -> (u64, u64, u64, u64) {
        let mut t = (0, 0, 0, 0);
        for w in &self.workers {
            t.0 += w.local_steals;
            t.1 += w.local_steal_failures;
            t.2 += w.remote_steals;
            t.3 += w.remote_steal_failures;
        }
        t
    }

    /// Successful steals by topological distance, over all workers.
    pub fn steal_distance_histogram(&self) -> StealHistogram {
        let mut h = StealHistogram::new();
        for w in &self.workers {
            h.merge(&w.steals_by_distance);
        }
        h
    }

    /// Remote request round trips (each steal attempt that posted a
    /// request costs exactly one, served or refused).
    pub fn remote_round_trips(&self) -> u64 {
        let (_, _, ok, failed) = self.steal_totals();
        ok + failed
    }

    /// Work items delivered per successful remote steal — the quantity
    /// batched responses raise.
    pub fn items_per_remote_steal(&self) -> f64 {
        let (_, _, ok, _) = self.steal_totals();
        if ok == 0 {
            return 0.0;
        }
        let items: u64 = self.workers.iter().map(|w| w.remote_steal_items).sum();
        items as f64 / ok as f64
    }

    /// Node expansions run under a stale bound, over all workers (see
    /// [`SimWorkerStats::stale_bound_nodes`]).
    pub fn stale_expansions(&self) -> u64 {
        self.workers.iter().map(|w| w.stale_bound_nodes).sum()
    }

    /// Race-drain steals over all workers (see
    /// [`SimWorkerStats::drain_steals`]).
    pub fn drain_steals(&self) -> u64 {
        self.workers.iter().map(|w| w.drain_steals).sum()
    }

    /// (responses served, chunks shipped, responses with > 1 chunk).
    pub fn response_batching(&self) -> (u64, u64, u64) {
        let mut t = (0, 0, 0);
        for w in &self.workers {
            t.0 += w.requests_served;
            t.1 += w.response_chunks;
            t.2 += w.batched_responses;
        }
        t
    }

    /// One FNV-1a hash over *everything* deterministic in the report:
    /// every counter, every per-worker stat, every state time, the steal
    /// histograms, the fabric books and the event-trace hash. Two
    /// same-seed runs must agree on this digest bit for bit (generic
    /// outputs and wall-clock time are excluded — outputs are pinned
    /// separately where comparable).
    pub fn digest(&self) -> u64 {
        let mut h = FNV_OFFSET;
        let mut mix = |v: u64| h = fnv1a(h, v);
        mix(self.makespan_ns);
        mix(self.incumbent as u64);
        mix(self.bound_msgs);
        mix(self.bound_updates);
        mix(self.first_solution_ns.map(|t| t + 1).unwrap_or(0));
        mix(self.nodes_after_win);
        mix(self.abandoned_items);
        mix(self.completed_items);
        mix(self.events);
        mix(self.trace_hash);
        mix(self.peak_live_items);
        mix(self.fabric.contention as u64);
        mix(self.fabric.injected);
        mix(self.fabric.delivered);
        mix(self.fabric.in_flight);
        mix(self.fabric.max_link_depth);
        mix(self.fabric.queued_msgs);
        mix(self.fabric.total_queue_ns);
        for w in &self.workers {
            mix(w.items);
            mix(w.pushes);
            mix(w.solutions);
            mix(w.local_steals);
            mix(w.local_steal_items);
            mix(w.local_steal_failures);
            mix(w.remote_steals);
            mix(w.remote_steal_items);
            mix(w.remote_steal_failures);
            mix(w.releases);
            mix(w.released_items);
            mix(w.polls);
            mix(w.requests_served);
            mix(w.proxy_serves);
            mix(w.requests_refused);
            mix(w.drain_steals);
            mix(w.response_chunks);
            mix(w.batched_responses);
            mix(w.stale_bound_nodes);
            for &c in &w.steals_by_distance.counts {
                mix(c);
            }
            for &ns in &w.state_ns {
                mix(ns);
            }
        }
        h
    }
}
