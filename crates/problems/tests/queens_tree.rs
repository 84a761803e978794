//! The pairwise queens-11 tree — the size the paper's Figs. 3–6 curves
//! are drawn from in small — pinned node for node on the sequential oracle
//! and on the search kernel every parallel path drives.

use std::collections::VecDeque;

use macs_engine::seq::{solve_seq, SeqOptions};
use macs_problems::{queens, QueensModel};
use macs_search::{LocalIncumbent, SearchKernel, StepOutcome, WorkItem};

const NODES: u64 = 43_420;
const SOLUTIONS: u64 = 2_680;

#[test]
fn queens_11_pairwise_tree_on_the_sequential_oracle() {
    let p = queens(11, QueensModel::Pairwise);
    let r = solve_seq(&p, &SeqOptions::default());
    assert_eq!((r.nodes, r.solutions), (NODES, SOLUTIONS));
}

#[test]
fn queens_11_pairwise_tree_on_the_search_kernel() {
    let p = queens(11, QueensModel::Pairwise);
    let mut kernel = SearchKernel::new(&p);
    let inc = LocalIncumbent::new();
    let mut stack: VecDeque<WorkItem> = VecDeque::new();
    stack.push_back(kernel.alloc_root());
    let (mut nodes, mut solutions) = (0u64, 0u64);
    while let Some(mut store) = stack.pop_back() {
        nodes += 1;
        match kernel.step(&mut store, &inc) {
            StepOutcome::Failed => {}
            StepOutcome::Solution(_) => solutions += 1,
            StepOutcome::Children(_) => kernel.push_children(&mut stack),
        }
        kernel.recycle(store);
    }
    assert_eq!((nodes, solutions), (NODES, SOLUTIONS));
}
