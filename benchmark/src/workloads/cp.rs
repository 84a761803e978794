//! `queens_enum` and `qap_bnb`: one constraint problem solved to
//! completion by the sequential oracle, by threaded MaCS on one pinned
//! worker, and by threaded MaCS on all `W` pinned workers. The traced run
//! adds the PaCCS rival, the constraint-layer ladder and a traced DFS.

use std::time::Instant;

use macs::engine::seq::{solve_seq, SeqOptions, SeqResult};
use macs::engine::CompiledProblem;
use macs::paccs::{paccs_solve, PaccsConfig, PaccsOutcome};
use macs::pool::SplitPool;
use macs::problems::{qap_model, queens, QapInstance, QueensModel};
use macs::runtime::WorkerState;
use macs::search::{LocalIncumbent, SearchKernel, StepOutcome};
use macs::solver::{solve_parallel, SolveOutcome, SolverConfig};

use crate::ladder;
use crate::stats::lower_quartile;
use crate::trace::Tracer;
use crate::workloads::{
    measure, ns_per_op, pool_rows, runtime_rows, setup_leg, spawn_join_ms, with_and_without_spans,
    Ctx, Leg, Metrics, Ops, RuntimeTotals,
};

/// The two instances. Both are fixed: `--seed` feeds the runtime's victim
/// and back-off generator only, so every run solves the same tree.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Instance {
    /// N-Queens 11, pairwise model, all 2 680 solutions: 43 420 nodes.
    Queens,
    /// QAPLIB esc16e restricted to its first 9 facilities, proven
    /// optimum 52: 85 822 sequential nodes.
    Qap,
}

impl Instance {
    pub fn build(self) -> CompiledProblem {
        match self {
            Instance::Queens => queens(11, QueensModel::Pairwise),
            Instance::Qap => qap_model(&QapInstance::esc16e().sub_instance(9)),
        }
    }
}

/// PaCCS solves in a traced run.
const PACCS_REPS: usize = 31;

/// What one solve answered: (solutions, nodes, optimum).
type Answer = (u64, u64, Option<i64>);

/// Verdict on one solve against the sequential oracle: the optimum for
/// branch-and-bound, the solution *and* node count for enumeration (an
/// exhaustive tree does not depend on the schedule).
fn verify(
    ops: &mut Ops,
    path: &str,
    prob: &CompiledProblem,
    oracle: &SeqResult,
    (solutions, nodes, best_cost): Answer,
) {
    let verdict = if prob.objective.is_some() {
        (best_cost == oracle.best_cost)
            .then_some(())
            .ok_or_else(|| format!("optimum {best_cost:?}, oracle {:?}", oracle.best_cost))
    } else if solutions != oracle.solutions {
        Err(format!(
            "{solutions} solutions, oracle {}",
            oracle.solutions
        ))
    } else if nodes != oracle.nodes {
        Err(format!("{nodes} nodes, oracle {}", oracle.nodes))
    } else {
        Ok(())
    };
    ops.check(verdict.map_err(|why| format!("{} via {path}: {why}", prob.name)));
}

fn threaded(ctx: &Ctx, prob: &CompiledProblem, workers: usize, round: u64) -> (f64, SolveOutcome) {
    let mut cfg = SolverConfig::with_workers(workers);
    cfg.runtime = ctx.runtime(workers, round);
    let t0 = Instant::now();
    let out = solve_parallel(prob, &cfg);
    (t0.elapsed().as_secs_f64(), out)
}

pub fn run(ctx: &mut Ctx, inst: Instance) -> Metrics {
    let host = ctx.host.clone();
    let w = host.w();
    let build = || {
        let prob = inst.build();
        let oracle = host.on_first_core(|| solve_seq(&prob, &SeqOptions::default()));
        (prob, oracle)
    };
    let (prob, oracle) = build();
    ctx.note("nodes.seq", oracle.nodes as f64);
    ctx.note("store_words", prob.layout.store_words() as f64);

    // Every full-width run's report feeds the runtime.* rows.
    let mut wn_totals = RuntimeTotals::default();
    let mut m = {
        let (prob, oracle) = (&prob, &oracle);
        let mut legs = [
            setup_leg(build),
            Leg {
                name: "seq_solve_s",
                run: Box::new(|ctx, _| {
                    let (secs, r) = ctx.host.on_first_core(|| {
                        let t0 = Instant::now();
                        let r = solve_seq(prob, &SeqOptions::default());
                        (t0.elapsed().as_secs_f64(), r)
                    });
                    verify(
                        &mut ctx.ops,
                        "solve_seq",
                        prob,
                        oracle,
                        (r.solutions, r.nodes, r.best_cost),
                    );
                    secs
                }),
            },
            Leg {
                name: "macs_w1_solve_s",
                run: Box::new(|ctx, round| {
                    let (secs, o) = threaded(ctx, prob, 1, round);
                    verify(
                        &mut ctx.ops,
                        "MaCS w1",
                        prob,
                        oracle,
                        (o.solutions, o.nodes, o.best_cost),
                    );
                    secs
                }),
            },
            Leg {
                name: "macs_wN_solve_s",
                run: Box::new(|ctx, round| {
                    let (secs, o) = threaded(ctx, prob, w, round);
                    verify(
                        &mut ctx.ops,
                        "MaCS wN",
                        prob,
                        oracle,
                        (o.solutions, o.nodes, o.best_cost),
                    );
                    wn_totals.add(&o.report);
                    secs
                }),
            },
        ];
        measure(ctx, &mut legs)
    };
    if ctx.traced() {
        layers(ctx, inst, &prob, &oracle, &mut m, &wn_totals);
    }
    m
}

/// The traced run's per-layer rows.
fn layers(
    ctx: &mut Ctx,
    inst: Instance,
    prob: &CompiledProblem,
    oracle: &SeqResult,
    m: &mut Metrics,
    wn: &RuntimeTotals,
) {
    let host = ctx.host.clone();
    let w = host.w();
    let (seq_s, w1_s, wn_s) = (m["seq_solve_s"], m["macs_w1_solve_s"], m["macs_wN_solve_s"]);
    let nodes = oracle.nodes as f64;
    let words = prob.layout.store_words();

    // --- the rival backend, same kernel --------------------------------
    let mut paccs_s = Vec::new();
    let mut paccs_last: Option<PaccsOutcome> = None;
    for _ in 0..PACCS_REPS {
        ctx.tracer.enter("paccs_solve");
        let cfg = PaccsConfig::with_workers(host.worker_budget(w).expect("W fits"));
        let t0 = Instant::now();
        let o = paccs_solve(prob, &cfg);
        paccs_s.push(t0.elapsed().as_secs_f64());
        ctx.tracer.exit();
        verify(
            &mut ctx.ops,
            "PaCCS wN",
            prob,
            oracle,
            (o.solutions, o.nodes, o.best_cost),
        );
        paccs_last = Some(o);
    }
    let paccs = paccs_last.expect("PACCS_REPS > 0");
    let paccs_s = lower_quartile(&paccs_s).expect("PACCS_REPS > 0");
    m.insert("paccs.wN_solve_s".into(), paccs_s);
    m.insert("paccs.speedup_wN".into(), seq_s / paccs_s);
    m.insert("paccs.steal_msgs".into(), paccs.messages as f64);
    m.insert("paccs.bound_msgs".into(), paccs.bound_msgs as f64);

    // --- the constraint layers over a frontier sample -------------------
    ctx.tracer.enter("ladder");
    let (gpi, cp) = host.on_first_core(|| {
        let (frontier, walked) = ladder::sample_frontier(prob, oracle.nodes, 4096);
        assert_eq!(walked, oracle.nodes, "the kernel walks the oracle's tree");
        (ladder::gpi_ladder(), ladder::cp_ladder(prob, &frontier))
    });
    let push_pop_ns = pool_rows(ctx, words, m);
    ctx.tracer.exit();

    m.insert(
        "domain.intersect_ns_per_word".into(),
        cp.intersect_ns_per_word,
    );
    m.insert("domain.store_copy_ns".into(), cp.store_copy_ns);
    m.insert("domain.store_words".into(), words as f64);
    let runs_per_node = oracle.prop_runs as f64 / nodes;
    m.insert(
        "engine.propagate_ns_per_node".into(),
        cp.propagate_ns_per_node,
    );
    m.insert("engine.prop_runs_per_node".into(), runs_per_node);
    m.insert(
        "engine.ns_per_prop_run".into(),
        cp.propagate_ns_per_node / runs_per_node,
    );
    m.insert("engine.fail_share".into(), cp.fail_share);
    m.insert("search.step_ns_per_node".into(), cp.step_ns_per_node);
    m.insert(
        "search.split_ns_per_node".into(),
        (cp.step_ns_per_node - cp.propagate_ns_per_node).max(0.0),
    );
    m.insert("search.children_per_split".into(), cp.children_per_split);
    m.insert("search.nodes".into(), nodes);
    m.insert("gpi.cell_load_ns".into(), gpi.cell_load_ns);
    m.insert("gpi.cell_fetch_min_ns".into(), gpi.cell_fetch_min_ns);
    m.insert("gpi.incumbent_read_ns".into(), gpi.incumbent_read_ns);
    m.insert("problems.compile_ms".into(), compile_ms(inst));
    runtime_rows(m, wn, [seq_s, w1_s, wn_s], nodes, w);
    m.insert("runtime.spawn_join_ms".into(), spawn_join_ms(ctx));

    // Which of engine/search a threaded change came from (PhaseTimers).
    let busy = wn.seconds_in(WorkerState::Working).max(1e-12);
    m.insert("core.phase_propagate_share".into(), wn.propagate_s / busy);
    m.insert("core.phase_split_share".into(), wn.split_s / busy);

    // --- the ladder against the end-to-end sequential node cost ---------
    // A sequential node is one kernel step, plus a push and a pop for
    // every child but the first of a split, plus (B&B) one bound read.
    let pushes_per_node = cp.split_share * (cp.children_per_split - 1.0).max(0.0);
    let bound_ns = if prob.objective.is_some() {
        gpi.incumbent_read_ns
    } else {
        0.0
    };
    let sum = cp.step_ns_per_node + 2.0 * push_pop_ns * pushes_per_node + bound_ns;
    m.insert("ladder.sum_ns_per_node".into(), sum);
    m.insert(
        "ladder.unexplained_ns_per_node".into(),
        seq_s * 1e9 / nodes - sum,
    );

    // --- self times and the cost of tracing ------------------------------
    // The benchmark-owned DFS runs without and with a span around every
    // node and every layer call; the traced pass leaves its spans (self
    // time per layer) in `ctx.tracer`.
    let (answers, overhead) = with_and_without_spans(ctx, |tracer| dfs(prob, tracer));
    for (path, answer) in ["DFS", "traced DFS"].into_iter().zip(answers) {
        verify(&mut ctx.ops, path, prob, oracle, answer);
    }
    m.insert("trace.overhead_share".into(), overhead);
}

fn compile_ms(inst: Instance) -> f64 {
    ns_per_op(5, || {
        std::hint::black_box(inst.build());
        1
    }) / 1e6
}

/// The benchmark-owned sequential DFS, assembled from the public pieces
/// the threaded worker uses (`SplitPool` + `SearchKernel::step` +
/// `LocalIncumbent`), with a span per node and per layer call when
/// `tracer` is on. Returns wall seconds and the answer.
fn dfs(prob: &CompiledProblem, tracer: &mut Tracer) -> (f64, Answer) {
    let words = prob.layout.store_words();
    let pool = SplitPool::new(4096, words);
    let mut kernel = SearchKernel::new(prob);
    kernel.set_timing(false);
    let inc = LocalIncumbent::new();
    let mut buf = SearchKernel::root_item(prob);
    let (mut solutions, mut nodes) = (0u64, 0u64);
    let t0 = Instant::now();
    let mut live = true;
    while live {
        tracer.enter("dfs.node");
        nodes += 1;
        tracer.enter("search.step");
        let outcome = kernel.step(&mut buf, &inc);
        tracer.exit();
        let leaf = match outcome {
            StepOutcome::Failed => true,
            StepOutcome::Solution(s) => {
                solutions += u64::from(s.improved);
                true
            }
            StepOutcome::Children(_) => {
                tracer.enter("pool.push");
                kernel.continue_with_first(&mut buf, |c| {
                    assert!(pool.push(c), "DFS frontier fits the pool");
                });
                tracer.exit();
                false
            }
        };
        if leaf {
            tracer.enter("pool.pop");
            live = pool.pop_private(&mut buf);
            tracer.exit();
        }
        tracer.exit();
    }
    let secs = t0.elapsed().as_secs_f64();
    let best = (inc.get() != i64::MAX).then(|| inc.get());
    (secs, (solutions, nodes, best))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_dfs_agrees_with_the_oracle_with_and_without_spans() {
        for prob in [
            queens(7, QueensModel::Pairwise),
            qap_model(&QapInstance::esc16e().sub_instance(6)),
        ] {
            let oracle = solve_seq(&prob, &SeqOptions::default());
            let mut on = Tracer::new(true, 100);
            for tracer in [&mut Tracer::new(false, 0), &mut on] {
                let (_, (solutions, nodes, best)) = dfs(&prob, tracer);
                assert_eq!(nodes, oracle.nodes);
                assert_eq!(solutions, oracle.solutions);
                assert_eq!(best, oracle.best_cost);
            }
            let t = on.totals();
            assert_eq!(t["dfs.node"].count, oracle.nodes);
            assert_eq!(t["search.step"].count, oracle.nodes);
            assert!(t["dfs.node"].self_ns <= t["dfs.node"].total_ns);
        }
    }

    #[test]
    fn a_wrong_answer_is_a_failed_op() {
        let prob = queens(6, QueensModel::Pairwise);
        let oracle = solve_seq(&prob, &SeqOptions::default());
        let mut ops = Ops::default();
        verify(
            &mut ops,
            "t",
            &prob,
            &oracle,
            (oracle.solutions, oracle.nodes, None),
        );
        verify(
            &mut ops,
            "t",
            &prob,
            &oracle,
            (oracle.solutions + 1, oracle.nodes, None),
        );
        verify(
            &mut ops,
            "t",
            &prob,
            &oracle,
            (oracle.solutions, oracle.nodes - 1, None),
        );
        assert_eq!((ops.attempted, ops.failed), (3, 2));
    }
}
