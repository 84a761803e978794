//! The per-layer ladder: batched loops through each layer's public
//! function, timed from outside. The loop shapes follow the `calibrate`
//! bin (push/pop, release/reacquire, turn-based steals); the constraint
//! layers run over a *frontier sample* — real stores of the workload's
//! own search, taken at a fixed stride through the sequential tree, each
//! with the bound that was in force when it was expanded.

use std::cell::Cell;
use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use macs::domain::{bits, branch_var_of};
use macs::engine::{CompiledProblem, Engine, PropOutcome, ScheduleSeed};
use macs::gpi::{CellBlock, GlobalCells, Interconnect, LatencyModel};
use macs::pool::SplitPool;
use macs::runtime::worker::GlobalIncumbent;
use macs::runtime::{pin_current_thread, Incumbent, SplitMix64};
use macs::search::{IncumbentSource, LocalIncumbent, SearchKernel, StepOutcome, WorkItem};
use macs::topo::{MachineTopology, VictimOrder};

use crate::workloads::ns_per_op;

/// Batches per micro-loop; each reported figure is their lower quartile.
pub const REPS: usize = 15;

/// Stores sampled from the workload's sequential search.
pub struct Frontier {
    pub words: usize,
    /// `len() == samples * words`.
    stores: Vec<u64>,
    /// Bound in force when each sampled store was expanded.
    bounds: Vec<i64>,
}

impl Frontier {
    pub fn len(&self) -> usize {
        self.bounds.len()
    }

    fn store(&self, i: usize) -> &[u64] {
        &self.stores[i * self.words..(i + 1) * self.words]
    }
}

/// An incumbent that answers with a fixed bound and accepts nothing, so
/// replaying a sampled store prunes exactly as it did in the search.
struct FixedBound(Cell<i64>);

impl IncumbentSource for FixedBound {
    fn bound(&self) -> i64 {
        self.0.get()
    }
    fn offer(&self, _cost: i64) -> bool {
        false
    }
}

/// Walk `prob`'s sequential search tree (kernel + local incumbent, the
/// oracle's exploration order) and copy every `stride`-th store before it
/// is expanded. Returns the sample and the nodes walked.
pub fn sample_frontier(prob: &CompiledProblem, total_nodes: u64, want: usize) -> (Frontier, u64) {
    let words = prob.layout.store_words();
    // An odd stride: an even one samples a binary tree's left or right
    // children only.
    let stride = (total_nodes / want.max(1) as u64) | 1;
    let mut frontier = Frontier {
        words,
        stores: Vec::with_capacity(want * words),
        bounds: Vec::with_capacity(want),
    };
    let mut kernel = SearchKernel::new(prob);
    kernel.set_timing(false);
    let inc = LocalIncumbent::new();
    let mut stack: VecDeque<WorkItem> = VecDeque::new();
    let root = kernel.alloc_root();
    stack.push_back(root);
    let mut nodes = 0u64;
    while let Some(mut buf) = stack.pop_back() {
        if nodes.is_multiple_of(stride) {
            frontier.stores.extend_from_slice(&buf);
            frontier.bounds.push(inc.bound());
        }
        nodes += 1;
        if let StepOutcome::Children(_) = kernel.step(&mut buf, &inc) {
            kernel.push_children(&mut stack);
        }
        kernel.recycle(buf);
    }
    (frontier, nodes)
}

/// Figures of the constraint layers over one frontier sample.
pub struct CpLadder {
    pub store_copy_ns: f64,
    pub intersect_ns_per_word: f64,
    pub propagate_ns_per_node: f64,
    pub fail_share: f64,
    pub step_ns_per_node: f64,
    pub children_per_split: f64,
    /// Share of sampled nodes that split (the rest fail or are solutions).
    pub split_share: f64,
}

pub fn cp_ladder(prob: &CompiledProblem, f: &Frontier) -> CpLadder {
    let n = f.len();
    let mut buf = vec![0u64; f.words];

    let store_copy_ns = ns_per_op(REPS, || {
        for i in 0..n {
            buf.copy_from_slice(f.store(i));
            black_box(&mut buf);
        }
        n as u64
    });

    // bits: intersect each variable's domain of one sampled store with
    // the same variable's domain in the next sample.
    let layout = &prob.layout;
    let wpv = layout.words_per_var();
    let vars = layout.num_vars();
    let intersect_ns = ns_per_op(REPS, || {
        for i in 0..n {
            buf.copy_from_slice(f.store(i));
            let other = f.store((i + 1) % n);
            for v in 0..vars {
                let r = layout.var_range(v);
                black_box(bits::intersect_masked(&mut buf[r.clone()], &other[r]));
            }
        }
        (n * vars) as u64
    });
    // The loop above also pays one store copy per `vars` intersections.
    let intersect_ns_per_word =
        ((intersect_ns - store_copy_ns / vars as f64) / wpv as f64).max(0.0);

    let mut engine = Engine::new(prob);
    let mut fails = 0u64;
    let propagate_total = ns_per_op(REPS, || {
        fails = 0;
        for i in 0..n {
            buf.copy_from_slice(f.store(i));
            let seed = branch_var_of(&buf).map_or(ScheduleSeed::All, ScheduleSeed::Var);
            if engine.propagate(prob, &mut buf, f.bounds[i], seed) == PropOutcome::Failed {
                fails += 1;
            }
        }
        n as u64
    });

    let mut kernel = SearchKernel::new(prob);
    kernel.set_timing(false);
    let bound = FixedBound(Cell::new(i64::MAX));
    let (mut splits, mut children) = (0u64, 0u64);
    let step_total = ns_per_op(REPS, || {
        splits = 0;
        children = 0;
        for i in 0..n {
            buf.copy_from_slice(f.store(i));
            bound.0.set(f.bounds[i]);
            if let StepOutcome::Children(c) = kernel.step(&mut buf, &bound) {
                splits += 1;
                children += c as u64;
                kernel.discard_children();
            }
        }
        n as u64
    });

    CpLadder {
        store_copy_ns,
        intersect_ns_per_word,
        propagate_ns_per_node: (propagate_total - store_copy_ns).max(0.0),
        fail_share: fails as f64 / n as f64,
        step_ns_per_node: (step_total - store_copy_ns).max(0.0),
        children_per_split: children as f64 / splits.max(1) as f64,
        split_share: splits as f64 / n as f64,
    }
}

/// `SplitPool` owner-side costs at the workload's item width.
pub struct PoolLadder {
    /// One push or one pop (half a push/pop pair).
    pub push_pop_ns: f64,
    /// One split-pointer move (half a release/reacquire pair).
    pub release_reacquire_ns: f64,
}

pub fn pool_ladder(slot_words: usize) -> PoolLadder {
    const ITERS: u64 = 200_000;
    let pool = SplitPool::new(1024, slot_words);
    let item = vec![7u64; slot_words];
    let mut out = vec![0u64; slot_words];
    let push_pop_ns = ns_per_op(REPS, || {
        for _ in 0..ITERS {
            pool.push(black_box(&item));
            pool.pop_private(&mut out);
            black_box(&out);
        }
        2 * ITERS
    });
    for _ in 0..64 {
        pool.push(&item);
    }
    let release_reacquire_ns = ns_per_op(REPS, || {
        for _ in 0..ITERS {
            black_box(pool.release(1));
            black_box(pool.reacquire(1));
        }
        2 * ITERS
    });
    PoolLadder {
        push_pop_ns,
        release_reacquire_ns,
    }
}

/// ns per `steal` call of `chunk` items, the thief pinned to
/// `cpu_thief` draining a pool a victim pinned to `cpu_victim` refills
/// in turns (the `calibrate` shape). Two threads alive, the caller
/// blocked.
pub fn steal_ns(cpu_victim: u32, cpu_thief: u32, slot_words: usize, chunk: u64) -> f64 {
    const ROUNDS: u64 = 400;
    const BATCH: u64 = 256;
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let pool = SplitPool::new(4096, slot_words);
            let turn = AtomicU64::new(0); // even: victim's turn, odd: thief's
            let item = vec![3u64; slot_words];
            std::thread::scope(|s| {
                s.spawn(|| {
                    pin_current_thread(cpu_victim);
                    for r in 0..ROUNDS {
                        while turn.load(Ordering::Acquire) != 2 * r {
                            std::hint::spin_loop();
                        }
                        for _ in 0..BATCH {
                            pool.push(&item);
                        }
                        pool.release(BATCH);
                        turn.store(2 * r + 1, Ordering::Release);
                    }
                });
                let thief = s.spawn(|| {
                    pin_current_thread(cpu_thief);
                    let (mut total_ns, mut calls) = (0u64, 0u64);
                    for r in 0..ROUNDS {
                        while turn.load(Ordering::Acquire) != 2 * r + 1 {
                            std::hint::spin_loop();
                        }
                        let mut got = 0;
                        let t0 = Instant::now();
                        while got < BATCH {
                            got += pool.steal(chunk, |it| {
                                black_box(it);
                            });
                            calls += 1;
                        }
                        total_ns += t0.elapsed().as_nanos() as u64;
                        turn.store(2 * r + 2, Ordering::Release);
                    }
                    total_ns as f64 / calls.max(1) as f64
                });
                thief.join().expect("thief thread")
            })
        })
        .collect();
    crate::stats::lower_quartile(&samples).unwrap_or(0.0)
}

/// Global-cell and incumbent read costs (uncontended, one thread).
pub struct GpiLadder {
    pub cell_load_ns: f64,
    /// A non-improving `fetch_min` (the common case of a B&B submit).
    pub cell_fetch_min_ns: f64,
    /// `Incumbent::get` through the threaded runtime's own
    /// `GlobalIncumbent` under its default dissemination policy.
    pub incumbent_read_ns: f64,
}

pub fn gpi_ladder() -> GpiLadder {
    const ITERS: u64 = 1_000_000;
    let block = CellBlock::root(1);
    let cells = GlobalCells::with_node_mirrors(1, 16);
    cells.store_i64(block.incumbent(), 1_000);
    let cell_load_ns = ns_per_op(REPS, || {
        for _ in 0..ITERS {
            black_box(cells.load_i64(black_box(block.incumbent())));
        }
        ITERS
    });
    let cell_fetch_min_ns = ns_per_op(REPS, || {
        for i in 0..ITERS {
            black_box(cells.fetch_min_i64(block.incumbent(), 1_000 + (i & 7) as i64));
        }
        ITERS
    });
    let ic = Interconnect::new(LatencyModel::zero());
    let policy = macs::runtime::RuntimeConfig::default().bound_policy;
    let inc = GlobalIncumbent::new(&cells, &ic, false, policy, block, 0, true);
    let incumbent_read_ns = ns_per_op(REPS, || {
        for _ in 0..ITERS {
            black_box(inc.get());
        }
        ITERS
    });
    GpiLadder {
        cell_load_ns,
        cell_fetch_min_ns,
        incumbent_read_ns,
    }
}

/// ns per `VictimOrder::pick_first` over `workers` flat peers, every
/// candidate reporting surplus (the greedy pick succeeds at once, as it
/// does in a busy run).
pub fn victim_pick_ns(workers: usize) -> f64 {
    const ITERS: u64 = 200_000;
    if workers < 2 {
        return 0.0;
    }
    let topo = MachineTopology::flat(workers);
    let order = VictimOrder::new(&topo, 0);
    let rings = topo.rings(0);
    let mut rng = SplitMix64::new(0xB0B);
    ns_per_op(REPS, || {
        for _ in 0..ITERS {
            black_box(order.pick_first(
                &rings,
                |len| (rng.next_u64() % len as u64) as usize,
                |_| 1,
            ));
        }
        ITERS
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use macs::engine::seq::{solve_seq, SeqOptions};
    use macs::problems::{qap_model, queens, QapInstance, QueensModel};

    #[test]
    fn frontier_walk_visits_exactly_the_oracles_nodes() {
        for prob in [
            queens(7, QueensModel::Pairwise),
            qap_model(&QapInstance::esc16e().sub_instance(6)),
        ] {
            let seq = solve_seq(&prob, &SeqOptions::default());
            let (f, nodes) = sample_frontier(&prob, seq.nodes, 64);
            assert_eq!(nodes, seq.nodes, "{}: same tree as the oracle", prob.name);
            let stride = (seq.nodes / 64) | 1;
            assert_eq!(
                f.len() as u64,
                seq.nodes.div_ceil(stride),
                "one sample per stride"
            );
            assert_eq!(f.store(0), prob.root.as_words(), "first sample is the root");
        }
    }

    #[test]
    fn cp_ladder_replays_the_sample_consistently() {
        let prob = queens(7, QueensModel::Pairwise);
        let seq = solve_seq(&prob, &SeqOptions::default());
        let (f, _) = sample_frontier(&prob, seq.nodes, 10_000); // every node
        let l = cp_ladder(&prob, &f);
        // Every node either fails in propagation, is a solution, or splits.
        let leaves = (seq.nodes as f64 * (1.0 - l.split_share)).round() as u64;
        let failed = (seq.nodes as f64 * l.fail_share).round() as u64;
        assert_eq!(leaves, failed + seq.solutions);
        assert!(l.children_per_split >= 1.0);
        assert!(l.step_ns_per_node > 0.0 && l.propagate_ns_per_node > 0.0);
    }
}
