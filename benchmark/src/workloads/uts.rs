//! `uts_unbalanced`: the Unbalanced Tree Search benchmark on the same
//! runtime and pool, with no constraint engine at all — a node is one
//! SHA-1, so runtime + pool bookkeeping is the whole overhead.

use std::hint::black_box;
use std::time::Instant;

use macs::pool::SplitPool;
use macs::uts::sha1::{child_descriptor, root_descriptor};
use macs::uts::{uts_parallel, uts_sequential, TreeShape, TreeStats, SLOT_WORDS};

use crate::ladder;
use crate::trace::Tracer;
use crate::workloads::{
    measure, ns_per_op, pool_rows, runtime_rows, setup_leg, spawn_join_ms, with_and_without_spans,
    Ctx, Leg, Metrics, RuntimeTotals,
};

/// The tree is fixed — near-critical binomial trees differ several-fold
/// in size and in how well they parallelise from one root seed to the
/// next, so a seed-chosen tree would swamp every timing. `--seed` feeds
/// the runtime's victim/back-off generator only.
pub const ROOT_SEED: u32 = 42;
pub const SHAPE: TreeShape = TreeShape::Binomial {
    root_children: 400,
    m: 4,
    q: 0.249,
};
/// Size of that tree; a different count means the generator changed.
pub const NODES: u64 = 201_685;

fn check_tree(ctx: &mut Ctx, path: &str, got: TreeStats, oracle: TreeStats) {
    ctx.ops.check(if got == oracle {
        Ok(())
    } else {
        Err(format!("UTS via {path}: {got:?}, oracle {oracle:?}"))
    });
}

pub fn run(ctx: &mut Ctx) -> Metrics {
    let host = ctx.host.clone();
    let w = host.w();
    let build = || host.on_first_core(|| uts_sequential(SHAPE, ROOT_SEED));
    let oracle = build();
    ctx.ops.check_eq("UTS tree size", oracle.nodes, NODES);
    ctx.note("nodes.seq", oracle.nodes as f64);
    ctx.note("tree.max_depth", oracle.max_depth as f64);

    let mut wn = RuntimeTotals::default();
    let mut m = {
        let parallel = |ctx: &mut Ctx, workers: usize, round: u64, path: &str| {
            let cfg = ctx.runtime(workers, round);
            let t0 = Instant::now();
            let (stats, report) = uts_parallel(SHAPE, ROOT_SEED, &cfg);
            let secs = t0.elapsed().as_secs_f64();
            check_tree(ctx, path, stats, oracle);
            ctx.ops
                .check_eq("UTS items processed", report.total_items(), oracle.nodes);
            (secs, report)
        };
        let mut legs = [
            setup_leg(build),
            Leg {
                name: "seq_solve_s",
                run: Box::new(|ctx, _| {
                    let (secs, stats) = ctx.host.on_first_core(|| {
                        let t0 = Instant::now();
                        let stats = uts_sequential(SHAPE, ROOT_SEED);
                        (t0.elapsed().as_secs_f64(), stats)
                    });
                    check_tree(ctx, "uts_sequential", stats, oracle);
                    secs
                }),
            },
            Leg {
                name: "macs_w1_solve_s",
                run: Box::new(|ctx, round| parallel(ctx, 1, round, "runtime w1").0),
            },
            Leg {
                name: "macs_wN_solve_s",
                run: Box::new(|ctx, round| {
                    let (secs, report) = parallel(ctx, w, round, "runtime wN");
                    wn.add(&report);
                    secs
                }),
            },
        ];
        measure(ctx, &mut legs)
    };
    if !ctx.traced() {
        return m;
    }

    // --- per-layer rows --------------------------------------------------
    let (seq_s, w1_s, wn_s) = (m["seq_solve_s"], m["macs_w1_solve_s"], m["macs_wN_solve_s"]);
    let nodes = oracle.nodes as f64;
    runtime_rows(&mut m, &wn, [seq_s, w1_s, wn_s], nodes, w);
    m.insert("runtime.spawn_join_ms".into(), spawn_join_ms(ctx));
    m.insert("search.nodes".into(), nodes);
    m.insert("domain.store_words".into(), SLOT_WORDS as f64);

    ctx.tracer.enter("ladder");
    let node_ns = host.on_first_core(node_ns);
    let push_pop_ns = pool_rows(ctx, SLOT_WORDS, &mut m);
    ctx.tracer.exit();
    m.insert("uts.node_ns".into(), node_ns);

    // Every node but the root is created by one SHA-1; every child but
    // the first of its parent is pushed and popped once.
    let internal = (oracle.nodes - oracle.leaves) as f64;
    let pushes_per_node = (nodes - 1.0 - internal) / nodes;
    let sum = node_ns + 2.0 * push_pop_ns * pushes_per_node;
    m.insert("ladder.sum_ns_per_node".into(), sum);
    m.insert(
        "ladder.unexplained_ns_per_node".into(),
        seq_s * 1e9 / nodes - sum,
    );

    let ([plain, traced], overhead) = with_and_without_spans(ctx, dfs);
    ctx.ops.check_eq("UTS nodes via DFS", plain, oracle.nodes);
    ctx.ops
        .check_eq("UTS nodes via traced DFS", traced, oracle.nodes);
    m.insert("trace.overhead_share".into(), overhead);
    m
}

/// ns to create and classify one node: one SHA-1 child descriptor plus
/// the child-count draw, chained so nothing can be hoisted.
fn node_ns() -> f64 {
    const ITERS: u64 = 200_000;
    let mut desc = root_descriptor(ROOT_SEED);
    let mut children = 0u64;
    let ns = ns_per_op(ladder::REPS, || {
        for i in 0..ITERS {
            desc = child_descriptor(&desc, (i & 3) as u32);
            children += u64::from(SHAPE.num_children(1 + i, &desc));
        }
        ITERS
    });
    black_box(children);
    ns
}

/// The benchmark-owned sequential traversal over a `SplitPool` (the
/// threaded worker's push-all-but-first discipline), with a span per
/// node and per layer call when `tracer` is on. Returns wall seconds and
/// the nodes visited.
fn dfs(tracer: &mut Tracer) -> (f64, u64) {
    // The root alone pushes 399 children; depth × (m − 1) more at most.
    let pool = SplitPool::new(4096, SLOT_WORDS);
    let mut item = [0u64; SLOT_WORDS];
    let mut cur = (0u64, root_descriptor(ROOT_SEED));
    let mut kids: Vec<[u8; 20]> = Vec::new();
    let mut nodes = 0u64;
    let t0 = Instant::now();
    let mut live = true;
    while live {
        tracer.enter("dfs.node");
        nodes += 1;
        let (depth, desc) = cur;
        tracer.enter("uts.expand");
        kids.clear();
        kids.extend((0..SHAPE.num_children(depth, &desc)).map(|i| child_descriptor(&desc, i)));
        tracer.exit();
        if let Some((first, rest)) = kids.split_first() {
            cur = (depth + 1, *first);
            tracer.enter("pool.push");
            for c in rest {
                item[0] = depth + 1;
                item[1] = u64::from_le_bytes(c[0..8].try_into().expect("8 bytes"));
                item[2] = u64::from_le_bytes(c[8..16].try_into().expect("8 bytes"));
                item[3] = u64::from(u32::from_le_bytes(c[16..20].try_into().expect("4 bytes")));
                assert!(pool.push(&item), "DFS frontier fits the pool");
            }
            tracer.exit();
        } else {
            tracer.enter("pool.pop");
            live = pool.pop_private(&mut item);
            tracer.exit();
            if live {
                let mut d = [0u8; 20];
                d[0..8].copy_from_slice(&item[1].to_le_bytes());
                d[8..16].copy_from_slice(&item[2].to_le_bytes());
                d[16..20].copy_from_slice(&(item[3] as u32).to_le_bytes());
                cur = (item[0], d);
            }
        }
        tracer.exit();
    }
    (t0.elapsed().as_secs_f64(), nodes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_fixed_tree_is_the_recorded_one() {
        let stats = uts_sequential(SHAPE, ROOT_SEED);
        assert_eq!(stats.nodes, NODES);
        assert_eq!(stats.max_depth, 816);
        // Same seed, same tree: the input is a pure function of constants.
        assert_eq!(stats, uts_sequential(SHAPE, ROOT_SEED));
    }

    #[test]
    fn benchmark_dfs_visits_every_node_once() {
        let mut on = Tracer::new(true, 16);
        let (_, nodes) = dfs(&mut on);
        assert_eq!(nodes, NODES);
        assert_eq!(on.totals()["dfs.node"].count, NODES);
        assert_eq!(dfs(&mut Tracer::new(false, 0)).1, NODES);
    }
}
