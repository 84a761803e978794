//! Optimisation problems across all execution paths: the optimum is an
//! invariant; node counts may differ (parallel B&B explores on stale
//! bounds), which is exactly the paper's COP observation.

use macs::prelude::*;
use macs::problems::knapsack::knapsack_dp;
use macs::solver::CpProcessor;

#[test]
fn qap_optimum_is_invariant() {
    let inst = QapInstance::cube8_like(7);
    let prob = qap_model(&inst);
    let seq = solve_seq(&prob, &SeqOptions::default());
    let expect = seq.best_cost.expect("feasible");

    let threaded = Solver::new(SolverConfig::clustered(4, 2)).solve(&prob);
    assert_eq!(threaded.best_cost, Some(expect));
    let a = threaded.best_assignment.expect("assignment kept");
    assert_eq!(inst.cost(&a[..inst.n]), expect);

    let paccs = paccs_solve(&prob, &PaccsConfig::with_workers(3));
    assert_eq!(paccs.best_cost, Some(expect));

    let root = prob.root.as_words().to_vec();
    let sim = simulate_macs(
        &SimConfig::new(MachineTopology::clustered(8, 4)),
        prob.layout.store_words(),
        &[root],
        |_| CpProcessor::new(&prob, 0, SearchMode::Exhaustive),
    );
    assert_eq!(sim.incumbent, expect);
}

#[test]
fn golomb_optimum_parallel() {
    let prob = golomb_ruler(6, 30);
    let out = Solver::new(SolverConfig::with_workers(4)).solve(&prob);
    assert_eq!(out.best_cost, Some(17), "optimal 6-mark Golomb ruler");
}

#[test]
fn knapsack_matches_dp_in_parallel() {
    let items: Vec<KnapsackItem> = (0..14)
        .map(|i| KnapsackItem {
            weight: (i * 7 + 3) % 19 + 1,
            value: (i * 11 + 5) % 28 + 1,
        })
        .collect();
    let cap = 45;
    let expect = knapsack_dp(&items, cap);
    let total: i64 = items.iter().map(|i| i.value).sum();
    let prob = knapsack(&items, cap);
    for cfg in [SolverConfig::with_workers(2), SolverConfig::clustered(4, 2)] {
        let out = Solver::new(cfg).solve(&prob);
        assert_eq!(total - out.best_cost.unwrap(), expect);
    }
}

#[test]
fn stale_bounds_cannot_change_the_optimum() {
    let inst = QapInstance::cube8_like(11);
    let prob = qap_model(&inst);
    let seq = solve_seq(&prob, &SeqOptions::default());
    let mut cfg = SolverConfig::with_workers(4);
    cfg.runtime.bound_policy = BoundPolicy::Periodic { every: 1024 };
    let out = Solver::new(cfg).solve(&prob);
    assert_eq!(out.best_cost, seq.best_cost);
    // With stale bounds the tree is usually at least as large.
    assert!(out.nodes + 32 >= seq.nodes);
}
