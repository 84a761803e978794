//! The single propagate → (solution | split) kernel.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use macs_domain::{branch_var_of, StoreView, Val};
use macs_engine::{CompiledProblem, Engine, PropOutcome, ScheduleSeed};

use crate::arena::StoreSlab;
use crate::batch::WorkItem;
use crate::incumbent::IncumbentSource;

/// A complete assignment found by the kernel.
#[derive(Clone, Debug)]
pub struct SolutionReport {
    pub assignment: Vec<Val>,
    /// Objective value (optimisation problems only).
    pub cost: Option<i64>,
    /// For optimisation: whether the cost strictly improved the incumbent
    /// at submission time (already offered through the
    /// [`IncumbentSource`]). Always `true` for satisfaction problems.
    pub improved: bool,
}

/// What one kernel step did to the store.
#[derive(Debug)]
pub enum StepOutcome {
    /// Propagation wiped a domain: the store is dead.
    Failed,
    /// Every variable is assigned. The cost (if any) has already been
    /// offered to the incumbent source; the caller decides what to count,
    /// keep, or route to a controller.
    Solution(SolutionReport),
    /// The store split into `n ≥ 1` children, parked inside the kernel in
    /// exploration order. Consume them with
    /// [`SearchKernel::continue_with_first`] or
    /// [`SearchKernel::push_children`].
    Children(usize),
}

/// Accumulated propagate/split wall time (the paper's §VI phase split):
/// an estimate from every [`SAMPLE_STRIDE`]-th node, see
/// [`SearchKernel::take_timers`].
#[derive(Clone, Copy, Debug, Default)]
pub struct KernelTimers {
    pub propagate: Duration,
    pub split: Duration,
}

/// One hot-loop iteration in this many reads the clock: the kernel times
/// the phases of every `SAMPLE_STRIDE`-th node, and the runtime's
/// `StateClock` timestamps the transitions of every `SAMPLE_STRIDE`-th
/// worker-loop iteration. `Instant::now()` costs about 30 ns, a CP node
/// 250–350 ns (queens-11 and esc16e on a 2-vCPU x86-64 host); at four to
/// six reads a node the instrument would be half of what it measured, or
/// more. Prime, so the sample does not lock onto the power-of-two
/// cadences of the loop it observes (release interval 32, poll intervals
/// 2–64): a stride of 64 would see a release on every sampled iteration
/// or on none.
pub const SAMPLE_STRIDE: u32 = 61;

/// Charge the phase that began at `t0` to `timer`, `weight` times over,
/// less what the clock itself took. The window `[t0, t1]` contains one
/// clock read's worth of time (the back half of the read that produced
/// `t0`, the front half of the one producing `t1`); an immediate third
/// read measures exactly that much and is subtracted. Unsubtracted, two
/// ~40 ns reads on a ~1 µs node, scaled by the stride, put the phase sum
/// above the worker's whole `Working` time.
#[inline]
fn charge(timer: &mut Duration, t0: Instant, weight: u32) {
    let t1 = Instant::now();
    let read = t1.elapsed();
    *timer += (t1 - t0).saturating_sub(read) * weight;
}

/// The node-processing kernel: one engine, one scratch buffer, one child
/// staging area, one store arena — everything a worker needs to expand
/// nodes without allocating on the steady-state path.
pub struct SearchKernel<'a> {
    prob: &'a CompiledProblem,
    engine: Engine,
    /// Scratch store the brancher builds each child in.
    scratch: Vec<u64>,
    /// Children of the current split, exploration order.
    children: Vec<WorkItem>,
    slab: StoreSlab,
    timers: KernelTimers,
    /// Whether [`KernelTimers`] are collected. On by default (the phase
    /// aggregation in the processors depends on it) and sampled, so it
    /// costs six `Instant::now` calls per [`SAMPLE_STRIDE`] nodes;
    /// harnesses that time the kernel from outside switch it off to
    /// measure a step with no clock read in it at all.
    timing: bool,
    /// Steps since the last timed one, this one included.
    since_timed: u32,
    /// Steps whose phases were timed.
    timed_nodes: u64,
}

impl<'a> SearchKernel<'a> {
    pub fn new(prob: &'a CompiledProblem) -> Self {
        let words = prob.layout.store_words();
        SearchKernel {
            prob,
            engine: Engine::new(prob),
            scratch: vec![0u64; words],
            children: Vec::new(),
            slab: StoreSlab::new(words),
            timers: KernelTimers::default(),
            timing: true,
            since_timed: 0,
            timed_nodes: 0,
        }
    }

    /// Enable or disable phase-timer collection (see
    /// [`SearchKernel::take_timers`]). With timing off, `take_timers`
    /// returns zeros.
    pub fn set_timing(&mut self, on: bool) {
        self.timing = on;
    }

    /// The root work item of `prob` (a copy of the compiled root store).
    pub fn root_item(prob: &CompiledProblem) -> Vec<u64> {
        prob.root.as_words().to_vec()
    }

    /// The root work item as an arena-tracked buffer.
    pub fn alloc_root(&mut self) -> WorkItem {
        let root = self.prob.root.as_words().to_vec();
        self.slab.alloc_copy(&root)
    }

    pub fn prob(&self) -> &'a CompiledProblem {
        self.prob
    }

    /// Individual propagator executions so far.
    pub fn prop_runs(&self) -> u64 {
        self.engine.runs
    }

    /// Accumulated phase timers, resetting them (drained by callers that
    /// aggregate per-worker statistics). The figures are estimates: the
    /// first node and then every [`SAMPLE_STRIDE`]-th are timed, and each
    /// timed node is charged once for every node since the previous timed
    /// one (itself included). The nodes after the last sample are not
    /// charged, so the sum never exceeds what timing every node would
    /// report and falls short of it by less than one stride of nodes — on
    /// a run shorter than a stride, by all but the first node.
    pub fn take_timers(&mut self) -> KernelTimers {
        std::mem::take(&mut self.timers)
    }

    /// Steps whose phases were timed: `ceil(steps / SAMPLE_STRIDE)` while
    /// timing is on.
    pub fn timed_nodes(&self) -> u64 {
        self.timed_nodes
    }

    /// How many nodes this step's phase times stand for; 0 when the step
    /// is not timed.
    #[inline]
    fn sample_weight(&mut self) -> u32 {
        if !self.timing {
            return 0;
        }
        self.since_timed += 1;
        if self.timed_nodes > 0 && self.since_timed < SAMPLE_STRIDE {
            return 0;
        }
        self.timed_nodes += 1;
        std::mem::take(&mut self.since_timed)
    }

    /// Return a dead store buffer to the kernel's arena.
    #[inline]
    pub fn recycle(&mut self, buf: WorkItem) {
        self.slab.recycle(buf);
    }

    /// The kernel's store arena (diagnostics, tests).
    pub fn slab(&self) -> &StoreSlab {
        &self.slab
    }

    /// Process the store in `buf`: propagate to fixpoint under the bound
    /// from `inc`, then classify the node as failed, a solution (offering
    /// its cost to `inc`), or split into children.
    pub fn step<I: IncumbentSource + ?Sized>(&mut self, buf: &mut [u64], inc: &I) -> StepOutcome {
        let prob = self.prob;
        let layout = &prob.layout;

        // The branch-and-bound bound in force for this store.
        let bound = if prob.objective.is_some() {
            inc.bound()
        } else {
            i64::MAX
        };

        // Stores created by a split carry their branch variable in the
        // header; anything else (root, stolen stores of unknown history)
        // gets a full reschedule.
        let seed = match branch_var_of(buf) {
            Some(v) => ScheduleSeed::Var(v),
            None => ScheduleSeed::All,
        };

        // --- step 1: propagation ------------------------------------------
        let weight = self.sample_weight();
        let t0 = (weight > 0).then(Instant::now);
        let outcome = self.engine.propagate(prob, buf, bound, seed);
        if let Some(t0) = t0 {
            charge(&mut self.timers.propagate, t0, weight);
        }
        if outcome == PropOutcome::Failed {
            return StepOutcome::Failed;
        }

        // --- step 2: splitting (or a solution) -----------------------------
        let t0 = (weight > 0).then(Instant::now);
        let var = prob.brancher.choose_var(layout, buf);
        let Some(var) = var else {
            if let Some(t0) = t0 {
                charge(&mut self.timers.split, t0, weight);
            }
            // All variables assigned: a solution.
            let view = StoreView::new(layout, buf);
            let assignment = view.assignment().expect("complete assignment");
            let (cost, improved) = match prob.objective.cost(view) {
                // The incumbent may have moved since propagation; `offer`
                // re-checks atomically.
                Some(c) => (Some(c), inc.offer(c)),
                None => (None, true),
            };
            return StepOutcome::Solution(SolutionReport {
                assignment,
                cost,
                improved,
            });
        };

        debug_assert!(
            self.children.is_empty(),
            "children of the last split not consumed"
        );
        let slab = &mut self.slab;
        let children = &mut self.children;
        let n = prob.brancher.split(
            prob,
            buf,
            &mut self.scratch,
            |c| children.push(slab.alloc_copy(c)),
            var,
        );
        // Stamp the bound in force into the children (diagnostics).
        for c in children.iter_mut() {
            c[1] = bound as u64;
        }
        if let Some(t0) = t0 {
            charge(&mut self.timers.split, t0, weight);
        }
        debug_assert!(n >= 1);
        StepOutcome::Children(n)
    }

    /// Consume a split depth-first, pool-style: the first child replaces
    /// the parent in `buf` (no pool round-trip for the leftmost child);
    /// the remaining children go to `push` in *reverse* exploration order,
    /// so a LIFO pop visits them in exploration order. Child buffers are
    /// recycled once copied out.
    pub fn continue_with_first(&mut self, buf: &mut [u64], mut push: impl FnMut(&[u64])) {
        debug_assert!(!self.children.is_empty());
        while self.children.len() > 1 {
            let c = self.children.pop().expect("non-empty");
            push(&c);
            self.slab.recycle(c);
        }
        let first = self.children.pop().expect("first child");
        buf.copy_from_slice(&first);
        self.slab.recycle(first);
    }

    /// Consume a split stack-style: move every child onto the back of a
    /// depth-first work queue in reverse exploration order, so
    /// `pop_back()` yields them in exploration order. The buffers stay
    /// arena-tracked — return them with [`SearchKernel::recycle`] after
    /// processing.
    pub fn push_children(&mut self, stack: &mut VecDeque<WorkItem>) {
        while let Some(c) = self.children.pop() {
            stack.push_back(c);
        }
    }

    /// Drop (and recycle) any staged children — cancellation paths.
    pub fn discard_children(&mut self) {
        while let Some(c) = self.children.pop() {
            self.slab.recycle(c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incumbent::{LocalIncumbent, NoBound};
    use macs_engine::{Model, Propag};

    fn tiny_problem() -> CompiledProblem {
        // x, y ∈ 0..=3, x ≠ y: 12 solutions.
        let mut m = Model::new("tiny");
        let x = m.new_var(0, 3);
        let y = m.new_var(0, 3);
        m.post(Propag::NeqOffset { x, y, c: 0 });
        m.compile()
    }

    /// Depth-first drive of the kernel over a whole problem: nodes,
    /// solutions, the solutions kept, propagator executions.
    fn enumerate(prob: &CompiledProblem) -> (u64, u64, Vec<Vec<Val>>, u64) {
        let mut kernel = SearchKernel::new(prob);
        let inc = LocalIncumbent::new();
        let mut stack: VecDeque<WorkItem> = VecDeque::new();
        let root = kernel.alloc_root();
        stack.push_back(root);
        let (mut nodes, mut solutions, mut kept) = (0u64, 0u64, Vec::new());
        while let Some(mut store) = stack.pop_back() {
            nodes += 1;
            match kernel.step(&mut store, &inc) {
                StepOutcome::Failed => {}
                StepOutcome::Solution(sol) => {
                    if sol.cost.is_none() || sol.improved {
                        solutions += 1;
                        kept.push(sol.assignment);
                    }
                }
                StepOutcome::Children(_) => kernel.push_children(&mut stack),
            }
            kernel.recycle(store);
        }
        (nodes, solutions, kept, kernel.prop_runs())
    }

    #[test]
    fn kernel_enumerates_all_solutions() {
        let prob = tiny_problem();
        let (nodes, solutions, kept, _) = enumerate(&prob);
        assert_eq!(solutions, 12);
        assert!(nodes >= 12);
        for a in &kept {
            assert!(prob.check_assignment(a));
        }
    }

    /// Figures from the kernel's last differential run against the two
    /// frozen pre-refactor copies it used to be compared with (a wake-all
    /// engine, an allocate-per-child step), taken when they were deleted.
    #[test]
    fn pinned_trees_and_propagator_count() {
        let queens8 = macs_problems::queens(8, macs_problems::QueensModel::Pairwise);
        let (nodes, solutions, _, prop_runs) = enumerate(&queens8);
        assert_eq!((nodes, solutions), (663, 92), "queens-8 tree");
        // Waking every watcher of a changed variable takes 43 722
        // propagator executions to reach the same 663 fixpoints.
        assert!(prop_runs < 43_722, "filtered runs {prop_runs}");
        // Exactly, as a count: one run per disequality applied from an
        // assignment list.
        assert_eq!(prop_runs, 27_072, "assignment-list runs");

        // x, y ∈ 0..=4, x ≠ y + 1: 25 pairs minus the 4 with x = y + 1.
        let mut m = Model::new("offset");
        let x = m.new_var(0, 4);
        let y = m.new_var(0, 4);
        m.post(Propag::NeqOffset { x, y, c: 1 });
        assert_eq!(enumerate(&m.compile()).1, 21);
    }

    #[test]
    fn kernel_recycles_buffers() {
        let prob = tiny_problem();
        let mut kernel = SearchKernel::new(&prob);
        let mut stack: VecDeque<WorkItem> = VecDeque::new();
        let root = kernel.alloc_root();
        stack.push_back(root);
        while let Some(mut store) = stack.pop_back() {
            if let StepOutcome::Children(_) = kernel.step(&mut store, &NoBound) {
                kernel.push_children(&mut stack);
            }
            kernel.recycle(store);
        }
        let (hits, misses) = kernel.slab().alloc_stats();
        assert!(
            hits > misses,
            "steady state must reuse buffers: {hits} vs {misses}"
        );
    }

    #[test]
    fn continue_with_first_matches_exploration_order() {
        let prob = tiny_problem();
        let mut kernel = SearchKernel::new(&prob);
        let mut buf = SearchKernel::root_item(&prob);
        let StepOutcome::Children(n) = kernel.step(&mut buf, &NoBound) else {
            panic!("root must split");
        };
        assert_eq!(n, 4);
        let mut rest: Vec<Vec<u64>> = Vec::new();
        kernel.continue_with_first(&mut buf, |c| rest.push(c.to_vec()));
        assert_eq!(rest.len(), 3);
        // Reverse exploration order: a LIFO pop yields child 1, 2, 3.
        let view = |w: &[u64]| macs_domain::StoreView::new(&prob.layout, w).value(0);
        assert_eq!(view(&buf), Some(0), "first child continues in place");
        assert_eq!(view(rest.last().unwrap()), Some(1));
    }

    /// The clock-read budget as a count: one node in `SAMPLE_STRIDE` is
    /// timed, the first one included, and none with timing off.
    #[test]
    fn one_node_in_a_stride_is_timed() {
        let queens8 = macs_problems::queens(8, macs_problems::QueensModel::Pairwise);
        let stride = u64::from(SAMPLE_STRIDE);
        for nodes in [1, stride - 1, stride, stride + 1, 663] {
            for timing in [true, false] {
                let mut kernel = SearchKernel::new(&queens8);
                kernel.set_timing(timing);
                let mut stack: VecDeque<WorkItem> = VecDeque::new();
                let root = kernel.alloc_root();
                stack.push_back(root);
                for _ in 0..nodes {
                    let mut store = stack.pop_back().expect("queens-8 has 663 nodes");
                    if let StepOutcome::Children(_) = kernel.step(&mut store, &NoBound) {
                        kernel.push_children(&mut stack);
                    }
                    kernel.recycle(store);
                }
                let want = if timing { nodes.div_ceil(stride) } else { 0 };
                assert_eq!(kernel.timed_nodes(), want, "{nodes} nodes, timing {timing}");
                let t = kernel.take_timers();
                assert_eq!(t.propagate + t.split > Duration::ZERO, timing);
            }
        }
    }

    #[test]
    fn timers_accumulate_and_drain() {
        let prob = tiny_problem();
        let mut kernel = SearchKernel::new(&prob);
        let mut buf = SearchKernel::root_item(&prob);
        let _ = kernel.step(&mut buf, &NoBound);
        kernel.discard_children();
        let t = kernel.take_timers();
        assert!(t.propagate + t.split > Duration::ZERO);
        let t2 = kernel.take_timers();
        assert_eq!(t2.propagate, Duration::ZERO);
    }
}
