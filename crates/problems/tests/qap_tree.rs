//! The branch-and-bound trees — `esc16e[9]`, the benchmark's `qap_bnb`
//! instance (paper §VI, Figs. 5/6 in small), and golomb-7 — and the
//! alldifferent queens-10 tree, pinned node for node on the sequential
//! oracle and on the search kernel every parallel path drives. All three
//! models post `AllDiffVal`, which compiles into assignment lists.

use std::collections::VecDeque;

use macs_engine::seq::{solve_seq, SeqOptions};
use macs_engine::CompiledProblem;
use macs_problems::{golomb_ruler, qap_model, queens, QapInstance, QueensModel};
use macs_search::{LocalIncumbent, SearchKernel, StepOutcome, WorkItem};

/// Depth-first drive of the kernel: nodes, solutions (improving ones under
/// an objective), the incumbent at the end, propagator executions.
fn on_kernel(p: &CompiledProblem) -> (u64, u64, i64, u64) {
    let mut kernel = SearchKernel::new(p);
    let inc = LocalIncumbent::new();
    let mut stack: VecDeque<WorkItem> = VecDeque::new();
    stack.push_back(kernel.alloc_root());
    let (mut nodes, mut solutions) = (0u64, 0u64);
    while let Some(mut store) = stack.pop_back() {
        nodes += 1;
        match kernel.step(&mut store, &inc) {
            StepOutcome::Failed => {}
            StepOutcome::Solution(s) => solutions += s.improved as u64,
            StepOutcome::Children(_) => kernel.push_children(&mut stack),
        }
        kernel.recycle(store);
    }
    (nodes, solutions, inc.get(), kernel.prop_runs())
}

const ESC9_NODES: u64 = 85_822;
const ESC9_OPTIMUM: i64 = 52;
/// One run per assignment-list entry applied, plus one per queued
/// propagator run (here only the objective pruner). With the alldifferent
/// queued as one propagator the same tree took 171 644 runs.
const ESC9_PROP_RUNS: u64 = 846_454;

#[test]
fn esc16e_9_tree_on_the_sequential_oracle() {
    let p = qap_model(&QapInstance::esc16e().sub_instance(9));
    let r = solve_seq(&p, &SeqOptions::default());
    assert_eq!((r.nodes, r.best_cost), (ESC9_NODES, Some(ESC9_OPTIMUM)));
    assert_eq!(r.prop_runs, ESC9_PROP_RUNS, "assignment-list runs");
}

#[test]
fn esc16e_9_tree_on_the_search_kernel() {
    let p = qap_model(&QapInstance::esc16e().sub_instance(9));
    let (nodes, _, best, prop_runs) = on_kernel(&p);
    assert_eq!((nodes, best), (ESC9_NODES, ESC9_OPTIMUM));
    assert_eq!(prop_runs, ESC9_PROP_RUNS, "assignment-list runs");
}

#[test]
fn golomb_7_tree() {
    let p = golomb_ruler(7, 49);
    let r = solve_seq(&p, &SeqOptions::default());
    assert_eq!((r.nodes, r.best_cost), (868, Some(25)));
    let (nodes, _, best, _) = on_kernel(&p);
    assert_eq!((nodes, best), (868, 25));
}

#[test]
fn queens_10_alldiff_tree() {
    let p = queens(10, QueensModel::AllDiff);
    let r = solve_seq(&p, &SeqOptions::default());
    assert_eq!((r.nodes, r.solutions), (10_071, 724));
    let (nodes, solutions, _, _) = on_kernel(&p);
    assert_eq!((nodes, solutions), (10_071, 724));
}
