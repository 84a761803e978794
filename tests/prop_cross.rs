//! Randomised integration tests: random models solved by independent
//! paths must agree. Deterministic seeded random cases (no external
//! property-testing dependency in this build environment).

use macs::prelude::*;
use macs::runtime::SplitMix64;
use macs::solver::CpProcessor;

/// A random binary CSP over `n` variables with domains `0..=max`, built
/// from disequality/offset constraints (always compilable, sometimes
/// unsatisfiable — both outcomes are interesting).
fn random_csp(n: usize, max: u32, edges: &[(usize, usize, i8, bool)]) -> CompiledProblem {
    let mut m = Model::new("random-csp");
    let vars = m.new_vars(n, 0, max);
    for &(a, b, off, eq) in edges {
        let (x, y) = (vars[a % n], vars[b % n]);
        if x == y {
            continue;
        }
        if eq {
            m.post(Propag::EqOffset {
                x,
                y,
                c: off as i64,
            });
        } else {
            m.post(Propag::NeqOffset {
                x,
                y,
                c: off as i64,
            });
        }
    }
    m.compile()
}

fn random_edges(rng: &mut SplitMix64, count: usize) -> Vec<(usize, usize, i8, bool)> {
    (0..count)
        .map(|_| {
            (
                rng.below_usize(6),
                rng.below_usize(6),
                rng.below(7) as i8 - 3,
                rng.below(2) == 0,
            )
        })
        .collect()
}

/// Exhaustive search expands the same tree on every schedule: threaded
/// MaCS and simulated MaCS on one-, two- and three-level shapes count
/// exactly the sequential solver's nodes and solutions.
#[test]
fn parallel_equals_sequential_on_random_csps() {
    let shapes = [
        MachineTopology::flat(3),
        MachineTopology::try_new(&[2, 2], 1).unwrap(),
        MachineTopology::try_new(&[2, 2, 2], 1).unwrap(),
    ];
    for case in 0..24u64 {
        let mut rng = SplitMix64::for_worker(0xC0FFEE, case as usize);
        let n = 3 + rng.below_usize(3);
        let max = 2 + rng.below(3) as u32;
        let n_edges = 1 + rng.below_usize(9);
        let edges = random_edges(&mut rng, n_edges);
        let prob = random_csp(n, max, &edges);
        let seq = solve_seq(&prob, &SeqOptions::default());
        let par = Solver::new(SolverConfig::with_workers(3)).solve(&prob);
        assert_eq!(par.solutions, seq.solutions, "case {case}: {edges:?}");
        assert_eq!(par.nodes, seq.nodes, "case {case}: {edges:?}");
        assert_eq!(par.report.total_items(), seq.nodes, "case {case}");
        for a in &par.kept {
            assert!(prob.check_assignment(a), "case {case}");
        }
        for topo in &shapes {
            let sim = simulate_macs(
                &SimConfig::new(topo.clone()),
                prob.layout.store_words(),
                &[prob.root.as_words().to_vec()],
                |_| CpProcessor::new(&prob, 0, SearchMode::Exhaustive),
            );
            let shape = topo.to_string();
            assert_eq!(sim.total_items(), seq.nodes, "case {case} on {shape}");
            assert_eq!(
                sim.total_solutions(),
                seq.solutions,
                "case {case} on {shape}"
            );
        }
    }
}

/// The same for PaCCS: threaded on a flat pair and on two nodes of two,
/// simulated on the shapes above.
#[test]
fn paccs_equals_sequential_on_random_csps() {
    let shapes = [
        MachineTopology::flat(3),
        MachineTopology::try_new(&[2, 2], 1).unwrap(),
        MachineTopology::try_new(&[2, 2, 2], 1).unwrap(),
    ];
    let threaded = [
        PaccsConfig::with_workers(2),
        PaccsConfig::hierarchical(&[2, 2], 1).unwrap(),
    ];
    for case in 0..24u64 {
        let mut rng = SplitMix64::for_worker(0xBEEF, case as usize);
        let n = 3 + rng.below_usize(3);
        let max = 2 + rng.below(3) as u32;
        let n_edges = 1 + rng.below_usize(7);
        let edges = random_edges(&mut rng, n_edges);
        let prob = random_csp(n, max, &edges);
        let seq = solve_seq(&prob, &SeqOptions::default());
        for cfg in &threaded {
            let out = paccs_solve(&prob, cfg);
            let shape = cfg.topology.to_string();
            assert_eq!(out.solutions, seq.solutions, "case {case} on {shape}");
            assert_eq!(out.nodes, seq.nodes, "case {case} on {shape}");
            assert_eq!(out.report.total_items(), seq.nodes, "case {case}");
        }
        for topo in &shapes {
            let sim = simulate_paccs(
                &SimConfig::new(topo.clone()),
                prob.layout.store_words(),
                &[prob.root.as_words().to_vec()],
                |_| CpProcessor::new(&prob, 0, SearchMode::Exhaustive),
            );
            let shape = topo.to_string();
            assert_eq!(sim.total_items(), seq.nodes, "case {case} on {shape}");
            assert_eq!(
                sim.total_solutions(),
                seq.solutions,
                "case {case} on {shape}"
            );
        }
    }
}

#[test]
fn random_linear_minimisation_agrees() {
    for case in 0..24u64 {
        let mut rng = SplitMix64::for_worker(0x11EA, case as usize);
        // minimise x0 subject to Σ coef·x = k.
        let coefs: Vec<i64> = (0..3).map(|_| 1 + rng.below(4) as i64).collect();
        let k = 6 + rng.below(8) as i64;
        let mut m = Model::new("lin-opt");
        let xs = m.new_vars(3, 0, 9);
        let terms: Vec<(i64, VarId)> = coefs.iter().copied().zip(xs.iter().copied()).collect();
        m.post(Propag::LinearEq { terms, k });
        m.minimize_var(xs[0]);
        let prob = m.compile();
        let seq = solve_seq(&prob, &SeqOptions::default());
        let par = Solver::new(SolverConfig::with_workers(2)).solve(&prob);
        assert_eq!(par.best_cost, seq.best_cost, "case {case}: {coefs:?} = {k}");
        if let Some(a) = &par.best_assignment {
            assert!(prob.check_assignment(a), "case {case}");
        }
    }
}
