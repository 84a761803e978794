//! Seeded property tests of the first-solution race: termination never
//! loses work, and the reported winner is always a real solution.
//!
//! The discrete-event simulator is deterministic per seed, so these are
//! true properties — every random (shape, problem, seed) cell checks:
//!
//! * **conservation** — every work unit ever created (the root plus every
//!   pushed child) is accounted for as either *completed* (expanded to a
//!   failed/solved leaf) or *abandoned* (discarded after the winner flag
//!   was observed): `roots + pushes == completed + abandoned`;
//! * **validity** — the race's winning assignment passes the sequential
//!   oracle's constraint check, and the race reports a winner exactly
//!   when the instance is satisfiable;
//! * **race ≤ exhaustive** — the race never processes more nodes than
//!   the same-seed exhaustive run (its schedule is a prefix plus the
//!   dissemination lag).

use macs::prelude::*;
use macs::runtime::SplitMix64;
use macs::solver::CpProcessor;
use macs_sim::{simulate_macs, simulate_paccs, SimReport};

/// Random machine shapes, deep and shallow (8..=32 workers).
fn random_topology(rng: &mut SplitMix64) -> MachineTopology {
    match rng.below(4) {
        0 => MachineTopology::try_clustered(8 + 4 * rng.below_usize(7), 4).unwrap(),
        1 => MachineTopology::try_new(&[2 + rng.below_usize(3), 2, 2], 1).unwrap(),
        2 => MachineTopology::try_new(&[2, 2, 2, 2], 2).unwrap(),
        _ => MachineTopology::flat(2 + rng.below_usize(7)),
    }
}

/// Random satisfaction problems: queens, colouring, Langford — sometimes
/// unsatisfiable (queens-3, myciel3 with 3 colours), which a race must
/// also terminate on.
fn random_problem(rng: &mut SplitMix64) -> CompiledProblem {
    match rng.below(6) {
        0 => queens(3, QueensModel::Pairwise), // unsat
        1 => queens(6 + rng.below_usize(3), QueensModel::Pairwise),
        2 => macs::problems::coloring_model(&macs::problems::ColoringInstance::myciel3(), 3), // unsat
        3 => macs::problems::coloring_model(&macs::problems::ColoringInstance::myciel3(), 4),
        4 => macs::problems::coloring_model(&macs::problems::ColoringInstance::queen5_5(), 5),
        _ => langford(5 + rng.below_usize(3)),
    }
}

fn check_run(
    case: u64,
    label: &str,
    prob: &CompiledProblem,
    r: &SimReport<macs::solver::CpOutput>,
    satisfiable: bool,
) {
    // Lost-work invariant: the full frontier is accounted for.
    assert_eq!(
        1 + r.total_pushes(),
        r.completed_items + r.abandoned_items,
        "case {case} {label}: conservation (pushes {}, completed {}, abandoned {})",
        r.total_pushes(),
        r.completed_items,
        r.abandoned_items,
    );
    assert_eq!(
        r.first_solution_ns.is_some(),
        satisfiable,
        "case {case} {label}: a race reports a winner iff the instance is satisfiable"
    );
    if satisfiable {
        let winner = r
            .outputs
            .iter()
            .flat_map(|o| o.kept.iter())
            .next()
            .unwrap_or_else(|| panic!("case {case} {label}: race kept no winner"));
        assert!(
            prob.check_assignment(winner),
            "case {case} {label}: winner fails the oracle's constraint check"
        );
        assert!(
            r.first_solution_ns.unwrap() <= r.makespan_ns,
            "case {case} {label}: win after the end of the run"
        );
    } else {
        assert_eq!(
            r.nodes_after_win, 0,
            "case {case} {label}: no win, no after-win nodes"
        );
        assert_eq!(
            r.abandoned_items, 0,
            "case {case} {label}: unsat race abandons nothing"
        );
    }
}

#[test]
fn race_never_loses_work_on_random_shapes_and_seeds() {
    // ≥ 20 random (shape, problem, seed) cells, both simulated balancers.
    for case in 0..24u64 {
        let mut rng = SplitMix64::for_worker(0x0AC7_5EED, case as usize);
        let topo = random_topology(&mut rng);
        let prob = random_problem(&mut rng);
        let satisfiable = solve_seq(&prob, &SeqOptions::first_solution()).solutions > 0;

        let mut cfg = SimConfig::new(topo.clone());
        cfg.seed = 0x9E37 + case;
        let root = prob.root.as_words().to_vec();

        let race = simulate_macs(
            &cfg,
            prob.layout.store_words(),
            std::slice::from_ref(&root),
            |_| CpProcessor::new(&prob, 1, SearchMode::FirstSolution),
        );
        check_run(case, "sim-macs", &prob, &race, satisfiable);

        let ex = simulate_macs(
            &cfg,
            prob.layout.store_words(),
            std::slice::from_ref(&root),
            |_| CpProcessor::new(&prob, 1, SearchMode::Exhaustive),
        );
        assert!(
            race.total_items() <= ex.total_items(),
            "case {case}: the race expanded more nodes than exhaustive search"
        );
        assert_eq!(
            ex.abandoned_items, 0,
            "case {case}: exhaustive abandons nothing"
        );
        assert_eq!(
            1 + ex.total_pushes(),
            ex.completed_items,
            "case {case}: exhaustive conservation"
        );

        let paccs_race = simulate_paccs(&cfg, prob.layout.store_words(), &[root], |_| {
            CpProcessor::new(&prob, 1, SearchMode::FirstSolution)
        });
        check_run(case, "sim-paccs", &prob, &paccs_race, satisfiable);
    }
}

/// The threaded runtimes race too: the winner is valid and the books
/// (processed + abandoned vs the exhaustive tree) stay consistent.
#[test]
fn threaded_races_return_valid_winners_over_random_seeds() {
    for case in 0..8u64 {
        let mut rng = SplitMix64::for_worker(0x7EAD, case as usize);
        let prob = queens(7 + rng.below_usize(2), QueensModel::Pairwise);
        let full = solve_seq(&prob, &SeqOptions::default());

        let mut cfg = SolverConfig::clustered(4, 2).with_mode(SearchMode::FirstSolution);
        cfg.runtime.seed = 0xAB + case;
        let out = solve_parallel(&prob, &cfg);
        assert!(out.solutions >= 1, "case {case}");
        assert!(prob.check_assignment(out.best_assignment.as_ref().unwrap()));
        assert!(
            out.nodes + out.report.abandoned_items() <= full.nodes,
            "case {case}: processed + abandoned exceeds the full tree"
        );

        let mut pcfg = PaccsConfig::clustered(4, 2);
        pcfg.mode = SearchMode::FirstSolution;
        let pout = paccs_solve(&prob, &pcfg);
        assert!(pout.solutions >= 1, "case {case} (paccs)");
        assert!(prob.check_assignment(pout.best_assignment.as_ref().unwrap()));
    }
}
