//! Cross-crate integration: every execution path — sequential reference,
//! threaded MaCS, threaded PaCCS, simulated MaCS, simulated PaCCS — must
//! agree on solution counts and optima.

use macs::prelude::*;
use macs::solver::CpProcessor;

fn sim_cfg(workers: usize) -> SimConfig {
    let topo = if workers.is_multiple_of(4) {
        MachineTopology::clustered(workers, 4)
    } else {
        MachineTopology::flat(workers)
    };
    SimConfig::new(topo)
}

#[test]
fn queens_counts_agree_everywhere() {
    for n in [6usize, 8] {
        let prob = queens(n, QueensModel::Pairwise);
        let expect = solve_seq(&prob, &SeqOptions::default()).solutions;

        let threaded = Solver::new(SolverConfig::clustered(4, 2)).solve(&prob);
        assert_eq!(threaded.solutions, expect, "threaded MaCS queens-{n}");

        let paccs = paccs_solve(&prob, &PaccsConfig::clustered(4, 2));
        assert_eq!(paccs.solutions, expect, "PaCCS queens-{n}");

        let root = prob.root.as_words().to_vec();
        let sim = simulate_macs(
            &sim_cfg(8),
            prob.layout.store_words(),
            std::slice::from_ref(&root),
            |_| CpProcessor::new(&prob, 0, SearchMode::Exhaustive),
        );
        assert_eq!(sim.total_solutions(), expect, "simulated MaCS queens-{n}");

        let psim = simulate_paccs(&sim_cfg(8), prob.layout.store_words(), &[root], |_| {
            CpProcessor::new(&prob, 0, SearchMode::Exhaustive)
        });
        assert_eq!(psim.total_solutions(), expect, "simulated PaCCS queens-{n}");
    }
}

#[test]
fn alldiff_model_agrees_in_parallel() {
    let prob = queens(8, QueensModel::AllDiff);
    let expect = solve_seq(&prob, &SeqOptions::default()).solutions;
    assert_eq!(expect, 92);
    let out = Solver::new(SolverConfig::with_workers(3)).solve(&prob);
    assert_eq!(out.solutions, 92);
}

#[test]
fn langford_and_magic_agree_in_parallel() {
    let lang = langford(7);
    let expect = solve_seq(&lang, &SeqOptions::default()).solutions;
    assert_eq!(expect, 52, "L(2,7) raw sequence count");
    let out = Solver::new(SolverConfig::clustered(4, 2)).solve(&lang);
    assert_eq!(out.solutions, expect);

    let magic = magic_square(3);
    let out = Solver::new(SolverConfig::with_workers(4)).solve(&magic);
    assert_eq!(out.solutions, 8);
    for a in &out.kept {
        assert!(magic.check_assignment(a));
    }
}

/// Optimisation through every path: the Golomb ruler's known optimum must
/// come out of the sequential oracle, both threaded solvers, and both
/// simulated balancers — all driving the one `SearchKernel`.
#[test]
fn golomb_optimum_agrees_everywhere() {
    let n = 6;
    let expect = 17; // OEIS A003022
    let prob = golomb_ruler(n, 30);

    let seq = solve_seq(&prob, &SeqOptions::default());
    assert_eq!(seq.best_cost, Some(expect), "sequential oracle");

    let threaded = Solver::new(SolverConfig::clustered(4, 2)).solve(&prob);
    assert_eq!(threaded.best_cost, Some(expect), "threaded MaCS");
    assert!(prob.check_assignment(threaded.best_assignment.as_ref().unwrap()));

    let paccs = paccs_solve(&prob, &PaccsConfig::clustered(4, 2));
    assert_eq!(paccs.best_cost, Some(expect), "PaCCS");
    assert!(prob.check_assignment(paccs.best_assignment.as_ref().unwrap()));

    let root = prob.root.as_words().to_vec();
    let sim = simulate_macs(
        &sim_cfg(8),
        prob.layout.store_words(),
        std::slice::from_ref(&root),
        |_| CpProcessor::new(&prob, 0, SearchMode::Exhaustive),
    );
    assert_eq!(sim.incumbent, expect, "simulated MaCS");

    let psim = simulate_paccs(&sim_cfg(8), prob.layout.store_words(), &[root], |_| {
        CpProcessor::new(&prob, 0, SearchMode::Exhaustive)
    });
    assert_eq!(psim.incumbent, expect, "simulated PaCCS");
}

/// Satisfaction through every path: Langford L(2,7) counts.
#[test]
fn langford_counts_agree_everywhere() {
    let prob = langford(7);
    let expect = solve_seq(&prob, &SeqOptions::default()).solutions;
    assert_eq!(expect, 52, "L(2,7) raw sequence count");

    let threaded = Solver::new(SolverConfig::clustered(4, 2)).solve(&prob);
    assert_eq!(threaded.solutions, expect, "threaded MaCS");

    let paccs = paccs_solve(&prob, &PaccsConfig::with_workers(4));
    assert_eq!(paccs.solutions, expect, "PaCCS");

    let root = prob.root.as_words().to_vec();
    let sim = simulate_macs(
        &sim_cfg(8),
        prob.layout.store_words(),
        std::slice::from_ref(&root),
        |_| CpProcessor::new(&prob, 0, SearchMode::Exhaustive),
    );
    assert_eq!(sim.total_solutions(), expect, "simulated MaCS");

    let psim = simulate_paccs(&sim_cfg(8), prob.layout.store_words(), &[root], |_| {
        CpProcessor::new(&prob, 0, SearchMode::Exhaustive)
    });
    assert_eq!(psim.total_solutions(), expect, "simulated PaCCS");
}

/// A 3-level machine (2 nodes × 2 sockets × 2 cores) through every
/// parallel path: distance-aware victim rings, batched responses and the
/// topology-derived PaCCS neighbourhoods must leave counts untouched.
#[test]
fn three_level_machine_agrees_everywhere() {
    let prob = queens(8, QueensModel::Pairwise);
    let expect = solve_seq(&prob, &SeqOptions::default()).solutions;

    let threaded = Solver::new(SolverConfig::hierarchical(&[2, 2, 2], 1).unwrap()).solve(&prob);
    assert_eq!(threaded.solutions, expect, "threaded MaCS @2x2x2");

    let paccs = paccs_solve(&prob, &PaccsConfig::hierarchical(&[2, 2, 2], 1).unwrap());
    assert_eq!(paccs.solutions, expect, "PaCCS @2x2x2");

    let topo = MachineTopology::try_new(&[2, 2, 2], 1).unwrap();
    let root = prob.root.as_words().to_vec();
    let sim = simulate_macs(
        &SimConfig::new(topo.clone()),
        prob.layout.store_words(),
        std::slice::from_ref(&root),
        |_| CpProcessor::new(&prob, 0, SearchMode::Exhaustive),
    );
    assert_eq!(sim.total_solutions(), expect, "simulated MaCS @2x2x2");
    let hist = sim.steal_distance_histogram();
    let (ls, _, rs, _) = sim.steal_totals();
    assert_eq!(
        hist.total(),
        ls + rs,
        "distance histogram covers all steals"
    );

    let psim = simulate_paccs(
        &SimConfig::new(topo),
        prob.layout.store_words(),
        &[root],
        |_| CpProcessor::new(&prob, 0, SearchMode::Exhaustive),
    );
    assert_eq!(psim.total_solutions(), expect, "simulated PaCCS @2x2x2");
}

/// Graph colouring through every path: the chromatic number — k−1
/// colours unsatisfiable, k colours satisfiable with the chromatic
/// polynomial's count — agrees on all five execution paths.
#[test]
fn colouring_chromatic_number_agrees_everywhere() {
    use macs::problems::{chromatic_number, coloring_model, ColoringInstance};

    let g = ColoringInstance::myciel3();
    let chi = chromatic_number(&g, 6).expect("Grötzsch graph is 4-colourable");
    assert_eq!(chi, 4);

    for (k, expect) in [(chi - 1, 0u64), (chi, 12480)] {
        let prob = coloring_model(&g, k);
        assert_eq!(
            solve_seq(&prob, &SeqOptions::default()).solutions,
            expect,
            "sequential oracle, k={k}"
        );

        let threaded = Solver::new(SolverConfig::clustered(4, 2)).solve(&prob);
        assert_eq!(threaded.solutions, expect, "threaded MaCS, k={k}");

        let paccs = paccs_solve(&prob, &PaccsConfig::clustered(4, 2));
        assert_eq!(paccs.solutions, expect, "PaCCS, k={k}");

        let root = prob.root.as_words().to_vec();
        let sim = simulate_macs(
            &sim_cfg(8),
            prob.layout.store_words(),
            std::slice::from_ref(&root),
            |_| CpProcessor::new(&prob, 0, SearchMode::Exhaustive),
        );
        assert_eq!(sim.total_solutions(), expect, "simulated MaCS, k={k}");

        let psim = simulate_paccs(&sim_cfg(8), prob.layout.store_words(), &[root], |_| {
            CpProcessor::new(&prob, 0, SearchMode::Exhaustive)
        });
        assert_eq!(psim.total_solutions(), expect, "simulated PaCCS, k={k}");
    }

    // The clique-dense regime too: queen5_5 has exactly 240 proper
    // 5-colourings, and every parallel path counts them.
    let q = ColoringInstance::queen5_5();
    let prob = coloring_model(&q, 5);
    assert_eq!(
        Solver::new(SolverConfig::clustered(4, 2))
            .solve(&prob)
            .solutions,
        240
    );
    let root = prob.root.as_words().to_vec();
    let sim = simulate_macs(&sim_cfg(8), prob.layout.store_words(), &[root], |_| {
        CpProcessor::new(&prob, 0, SearchMode::Exhaustive)
    });
    assert_eq!(sim.total_solutions(), 240);
}

/// First-solution race through every parallel path: each returns a
/// verified solution and cuts the tree short.
#[test]
fn first_solution_race_agrees_everywhere() {
    use macs::problems::{coloring_model, ColoringInstance};

    let prob = coloring_model(&ColoringInstance::myciel3(), 4);
    let full = solve_seq(&prob, &SeqOptions::default());

    let threaded = Solver::new(SolverConfig::clustered(4, 2).with_mode(SearchMode::FirstSolution))
        .solve(&prob);
    assert!(threaded.solutions >= 1);
    assert!(prob.check_assignment(threaded.best_assignment.as_ref().unwrap()));
    assert!(threaded.nodes < full.nodes, "threaded race cuts the tree");

    let mut pcfg = PaccsConfig::clustered(4, 2);
    pcfg.mode = SearchMode::FirstSolution;
    let paccs = paccs_solve(&prob, &pcfg);
    assert!(paccs.solutions >= 1);
    assert!(prob.check_assignment(paccs.best_assignment.as_ref().unwrap()));

    let root = prob.root.as_words().to_vec();
    for (label, race) in [
        (
            "sim-macs",
            simulate_macs(
                &sim_cfg(8),
                prob.layout.store_words(),
                std::slice::from_ref(&root),
                |_| CpProcessor::new(&prob, 1, SearchMode::FirstSolution),
            ),
        ),
        (
            "sim-paccs",
            simulate_paccs(
                &sim_cfg(8),
                prob.layout.store_words(),
                std::slice::from_ref(&root),
                |_| CpProcessor::new(&prob, 1, SearchMode::FirstSolution),
            ),
        ),
    ] {
        assert!(race.first_solution_ns.is_some(), "{label}: winner time");
        let winner = race
            .outputs
            .iter()
            .flat_map(|o| o.kept.iter())
            .next()
            .unwrap_or_else(|| panic!("{label}: no winner kept"));
        assert!(prob.check_assignment(winner), "{label}: invalid winner");
        assert!(
            race.total_items() < full.nodes,
            "{label}: race cuts the tree"
        );
    }
}

/// UTS geometric-law variants: node/leaf counts (and the visit-once
/// checksum) agree between the threaded runtime, threaded PaCCS and the
/// simulator for every shape law.
#[test]
fn uts_geometric_variants_agree_threaded_vs_simulated() {
    use macs::uts::{
        uts_parallel, uts_sequential, GeoLaw, TreeShape, TreeStats, UtsProcessor, SLOT_WORDS,
    };

    for (law, b0, gen_mx) in [
        (GeoLaw::Linear, 3.0, 7),
        (GeoLaw::Fixed, 2.0, 7),
        (GeoLaw::Cyclic, 3.0, 4),
    ] {
        let shape = TreeShape::geo(law, b0, gen_mx);
        // Cyclic roots have expected branching 1, so scan for a seed
        // whose tree is non-trivial (deterministic per seed).
        let (seed, expect) = (1u32..64)
            .map(|s| (s, uts_sequential(shape, s)))
            .find(|(_, st)| st.nodes > 100 && st.nodes < 500_000)
            .unwrap_or_else(|| panic!("{law}: no non-trivial seed"));

        let (threaded, _) = uts_parallel(shape, seed, &RuntimeConfig::clustered(4, 2));
        assert_eq!(threaded, expect, "{law}: threaded vs sequential");

        let paccs = macs::paccs::run_paccs(
            &PaccsConfig::clustered(4, 2),
            SLOT_WORDS,
            &[UtsProcessor::root_item(seed)],
            |_| UtsProcessor::new(shape),
        );
        let merged = paccs
            .outputs
            .iter()
            .fold(TreeStats::default(), |acc, s| acc.merge(s));
        assert_eq!(merged, expect, "{law}: PaCCS vs sequential");
        assert_eq!(
            paccs.total_items(),
            expect.nodes,
            "{law}: PaCCS, every node once"
        );

        let sim = simulate_macs(
            &sim_cfg(8),
            SLOT_WORDS,
            &[UtsProcessor::root_item(seed)],
            |_| UtsProcessor::new(shape),
        );
        let merged = sim
            .outputs
            .iter()
            .fold(TreeStats::default(), |acc, s| acc.merge(s));
        assert_eq!(merged, expect, "{law}: simulated vs sequential");
        assert_eq!(sim.total_items(), expect.nodes, "{law}: every node once");
    }
}

#[test]
fn unsatisfiable_agrees_everywhere() {
    let prob = queens(3, QueensModel::Pairwise);
    assert_eq!(solve_seq(&prob, &SeqOptions::default()).solutions, 0);
    assert_eq!(
        Solver::new(SolverConfig::with_workers(2))
            .solve(&prob)
            .solutions,
        0
    );
    assert_eq!(
        paccs_solve(&prob, &PaccsConfig::with_workers(2)).solutions,
        0
    );
    let root = prob.root.as_words().to_vec();
    let sim = simulate_macs(&sim_cfg(2), prob.layout.store_words(), &[root], |_| {
        CpProcessor::new(&prob, 0, SearchMode::Exhaustive)
    });
    assert_eq!(sim.total_solutions(), 0);
}
