//! The worker loop's instrumentation, held to account on real solves:
//! what the state clock *costs* is a counted invariant (clock reads per
//! item), and what it *reports* is still the paper's Fig. 3/5 split.

use std::time::Duration;

use macs_core::{solve_parallel, SolveOutcome, SolverConfig};
use macs_engine::{CompiledProblem, Model};
use macs_problems::{queens, QueensModel};
use macs_runtime::{ReleasePolicy, WorkerState, WorkerStats};
use macs_search::SAMPLE_STRIDE;

/// Clock reads a sampled hot-loop iteration can make: its start, into
/// `Releasing`, into `Poll`, its end.
const READS_PER_SAMPLED_ITERATION: u64 = 4;
/// Exact reads a trip through the restore loop can make per counted event
/// (a steal attempt, an idle round, a served request): `Searching`,
/// `Stealing`, `Idle`, `Poll`, `Idle` again, and the read that reopens the
/// hot block.
const READS_PER_COLD_EVENT: u64 = 6;
/// Per run: start, the first item's block, the final `Idle`, the end
/// barrier, `finish`, and slack.
const READS_PER_RUN: u64 = 8;

fn solve(prob: &CompiledProblem, workers: usize, release: ReleasePolicy) -> SolveOutcome {
    let mut cfg = SolverConfig::with_workers(workers);
    cfg.runtime.steal.release = release;
    solve_parallel(prob, &cfg)
}

fn hot_budget(w: &WorkerStats) -> u64 {
    READS_PER_SAMPLED_ITERATION * w.items.div_ceil(u64::from(SAMPLE_STRIDE))
}

fn share(w: &WorkerStats, state: WorkerState) -> f64 {
    w.clock.totals[state as usize].as_secs_f64() / w.clock.total().as_secs_f64()
}

#[test]
fn one_worker_reads_the_clock_per_stride_not_per_item() {
    let prob = queens(9, QueensModel::Pairwise);
    let out = solve(&prob, 1, ReleasePolicy::default());
    let w = &out.report.workers[0];
    assert!(w.items > 40 * u64::from(SAMPLE_STRIDE), "{} items", w.items);
    assert!(w.releases > w.items / 4, "the eager default releases");
    // Nobody to steal from: the one cold excursion is the final one.
    assert!(
        w.clock.reads() <= hot_budget(w) + READS_PER_RUN,
        "{} reads for {} items",
        w.clock.reads(),
        w.items
    );
}

#[test]
fn two_workers_pay_exact_reads_only_for_steals_idling_and_served_requests() {
    let prob = queens(9, QueensModel::Pairwise);
    let out = solve(&prob, 2, ReleasePolicy::default());
    for w in &out.report.workers {
        let cold_events = w.local_steals
            + w.local_steal_failures
            + w.drain_steals
            + w.idle_rounds
            + w.requests_served
            + w.requests_refused;
        assert!(
            w.clock.reads() <= hot_budget(w) + READS_PER_COLD_EVENT * cold_events + READS_PER_RUN,
            "worker {}: {} reads, {} items, {cold_events} cold events",
            w.id,
            w.clock.reads(),
            w.items
        );
    }
}

#[test]
fn totals_of_every_worker_sum_to_its_wall_time() {
    let prob = queens(9, QueensModel::Pairwise);
    let out = solve(&prob, 2, ReleasePolicy::default());
    for w in &out.report.workers {
        // To the nanosecond: the hot blocks are exact and their split
        // hands the rounding remainder to `Working`.
        assert_eq!(w.clock.total(), w.clock.wall(), "worker {}", w.id);
        // The clock runs from the worker's construction to the end
        // barrier, inside the run's own wall.
        assert!(w.clock.total() <= out.report.wall);
    }
}

/// Median of a figure over `RUNS` solves. A scaled sample is unbiased but
/// heavy-tailed — an interrupt inside a timed node counts 61 times — and
/// the tests in this file share the host's cores with each other.
fn median_of_runs(mut figure: impl FnMut() -> f64) -> f64 {
    const RUNS: usize = 7;
    let mut v: Vec<f64> = (0..RUNS).map(|_| figure()).collect();
    v.sort_by(f64::total_cmp);
    v[RUNS / 2]
}

#[test]
fn sampled_split_keeps_the_shape_of_fig_3() {
    let prob = queens(10, QueensModel::Pairwise);
    let one = |release| solve(&prob, 1, release).report.workers.remove(0);

    let working = median_of_runs(|| share(&one(ReleasePolicy::default()), WorkerState::Working));
    assert!(working >= 0.9, "Working share {working}");

    // The kernel's own sampled phase timers describe the same time: on
    // this instance propagate + split is nearly all of Working (the loop
    // around the kernel adds a few percent), so the estimate sits near 1
    // with the error of ~165 timed nodes on top; a lost or doubled
    // weight would put it at 0.02 or 2.
    let phase = median_of_runs(|| {
        let w = one(ReleasePolicy::default());
        (w.phase.propagate + w.phase.split).as_secs_f64()
            / w.clock.totals[WorkerState::Working as usize].as_secs_f64()
    });
    assert!((0.6..=1.25).contains(&phase), "phase / Working = {phase}");

    // MaCS(default) vs MaCS(best): releasing on every iteration shows up
    // as Releasing time, releasing every 32nd all but vanishes.
    let (eager, tuned) = (one(ReleasePolicy::default()), one(ReleasePolicy::tuned()));
    assert!(tuned.releases * 8 < eager.releases);
    let eager_share =
        median_of_runs(|| share(&one(ReleasePolicy::default()), WorkerState::Releasing));
    let tuned_share =
        median_of_runs(|| share(&one(ReleasePolicy::tuned()), WorkerState::Releasing));
    assert!(
        eager_share > tuned_share,
        "Releasing: default {eager_share} vs tuned {tuned_share}"
    );
}

#[test]
fn a_run_shorter_than_one_stride_is_all_working() {
    // One node: the root is already a solution. The only sampled
    // iteration is the first and it neither releases nor polls.
    let mut model = Model::new("one-node");
    model.new_var(0, 0);
    let out = solve(&model.compile(), 1, ReleasePolicy::default());
    let w = &out.report.workers[0];
    assert_eq!((out.solutions, w.items), (1, 1));
    assert!(w.clock.totals[WorkerState::Working as usize] > Duration::ZERO);
    assert_eq!(
        w.clock.totals[WorkerState::Releasing as usize],
        Duration::ZERO
    );
    assert_eq!(w.clock.totals[WorkerState::Poll as usize], Duration::ZERO);
    assert_eq!(w.clock.total(), w.clock.wall());
}
