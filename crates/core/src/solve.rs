//! High-level solving API.

use std::time::Duration;

use macs_domain::Val;
use macs_engine::CompiledProblem;
use macs_runtime::{run_parallel, RunReport, RuntimeConfig};
use macs_search::SearchMode;

use crate::processor::{CpOutput, CpProcessor};

/// Configuration of a parallel solve: the runtime (topology, stealing,
/// polling, release, bound dissemination) plus solver-level options.
#[derive(Clone, Debug)]
pub struct SolverConfig {
    pub runtime: RuntimeConfig,
    /// Keep at most this many concrete solutions per worker (counting is
    /// unaffected).
    pub keep_solutions: usize,
}

impl SolverConfig {
    /// `n` workers on a single shared-memory node.
    pub fn with_workers(n: usize) -> Self {
        SolverConfig {
            runtime: RuntimeConfig::single_node(n),
            keep_solutions: 16,
        }
    }

    /// The paper's cluster shape: `total` workers in nodes of
    /// `cores_per_node`.
    pub fn clustered(total: usize, cores_per_node: usize) -> Self {
        SolverConfig {
            runtime: RuntimeConfig::clustered(total, cores_per_node),
            ..SolverConfig::with_workers(1)
        }
    }

    /// An N-level machine shape (see
    /// [`RuntimeConfig::hierarchical`]), e.g. `&[2, 2, 4]` with
    /// `node_prefix = 1` for 2 nodes × 2 sockets × 4 cores.
    pub fn hierarchical(
        shape: &[usize],
        node_prefix: usize,
    ) -> Result<Self, macs_runtime::TopoError> {
        Ok(SolverConfig {
            runtime: RuntimeConfig::hierarchical(shape, node_prefix)?,
            ..SolverConfig::with_workers(1)
        })
    }

    /// Builder-style mode switch: exhaustive search, or a first-solution
    /// race (satisfaction problems; the winner flag spreads
    /// hierarchically — see [`macs_search::mode`]).
    pub fn with_mode(mut self, mode: SearchMode) -> Self {
        self.runtime.mode = mode;
        self
    }
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig::with_workers(1)
    }
}

/// Result of a parallel solve.
#[derive(Debug)]
pub struct SolveOutcome {
    /// Solutions found. For optimisation problems this counts *improving*
    /// solutions (each strictly better than the incumbent at the time).
    pub solutions: u64,
    /// Total stores processed across all workers (the paper's "Total
    /// Nodes").
    pub nodes: u64,
    /// Optimal cost (optimisation problems; `None` if unsatisfiable or a
    /// satisfaction problem).
    pub best_cost: Option<i64>,
    /// An optimal (or sample) assignment.
    pub best_assignment: Option<Vec<Val>>,
    /// Collected sample solutions.
    pub kept: Vec<Vec<Val>>,
    /// First-solution races: wall time from run start to the winning
    /// solution (`None` otherwise).
    pub first_solution: Option<Duration>,
    /// First-solution races: nodes whose expansion started after the win
    /// — the measurable dissemination overhead of the race.
    pub nodes_after_win: u64,
    /// Full runtime report (worker states, steal statistics, traffic).
    pub report: RunReport<CpOutput>,
}

/// Solve `prob` on the MaCS runtime according to `cfg`.
pub fn solve_parallel(prob: &CompiledProblem, cfg: &SolverConfig) -> SolveOutcome {
    let report = run_parallel(
        &cfg.runtime,
        prob.layout.store_words(),
        &[CpProcessor::root_item(prob)],
        |_worker| CpProcessor::new(prob, cfg.keep_solutions, cfg.runtime.mode),
    );
    SolveOutcome::from_report(prob, cfg.keep_solutions, report)
}

impl SolveOutcome {
    /// The CP reduction of a run of [`CpProcessor`]s, whichever executor
    /// ran them (threaded MaCS here, threaded PaCCS in `macs-paccs`): sum
    /// the counts, take the optimum from the run's final incumbent and its
    /// assignment from the worker that set it, keep the first
    /// `keep_solutions` assignments.
    pub fn from_report(
        prob: &CompiledProblem,
        keep_solutions: usize,
        report: RunReport<CpOutput>,
    ) -> SolveOutcome {
        let solutions = report.outputs.iter().map(|o| o.solutions).sum();
        let nodes = report.outputs.iter().map(|o| o.nodes).sum();
        let best_cost =
            (prob.objective.is_some() && report.incumbent != i64::MAX).then_some(report.incumbent);
        let kept: Vec<Vec<Val>> = report
            .outputs
            .iter()
            .flat_map(|o| &o.kept)
            .take(keep_solutions)
            .cloned()
            .collect();
        // The worker whose submission set the final incumbent recorded the
        // matching assignment; satisfaction runs answer with a kept one.
        let best_assignment = report
            .outputs
            .iter()
            .find_map(|o| o.best.as_ref().filter(|(c, _)| Some(*c) == best_cost))
            .map(|(_, a)| a.clone())
            .or_else(|| kept.first().cloned());
        SolveOutcome {
            solutions,
            nodes,
            best_cost,
            best_assignment,
            kept,
            first_solution: report.first_solution,
            nodes_after_win: report.nodes_after_win(),
            report,
        }
    }
}

/// Builder-style front end over [`solve_parallel`].
#[derive(Clone, Debug, Default)]
pub struct Solver {
    cfg: SolverConfig,
}

impl Solver {
    pub fn new(cfg: SolverConfig) -> Self {
        Solver { cfg }
    }

    /// Access the configuration for tweaking.
    pub fn config_mut(&mut self) -> &mut SolverConfig {
        &mut self.cfg
    }

    pub fn solve(&self, prob: &CompiledProblem) -> SolveOutcome {
        solve_parallel(prob, &self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use macs_engine::seq::{solve_seq, SeqOptions};
    use macs_engine::{Model, Propag, Val};

    fn queens(n: usize) -> CompiledProblem {
        let mut m = Model::new(format!("queens-{n}"));
        let q = m.new_vars(n, 0, (n - 1) as Val);
        for i in 0..n {
            for j in (i + 1)..n {
                let d = (j - i) as i64;
                m.post(Propag::NeqOffset {
                    x: q[i],
                    y: q[j],
                    c: 0,
                });
                m.post(Propag::NeqOffset {
                    x: q[i],
                    y: q[j],
                    c: d,
                });
                m.post(Propag::NeqOffset {
                    x: q[i],
                    y: q[j],
                    c: -d,
                });
            }
        }
        m.compile()
    }

    /// Minimise total "cost" x+2y subject to x+y ≥ 5, via a linear model.
    fn small_opt() -> CompiledProblem {
        let mut m = Model::new("opt");
        let x = m.new_var(0, 9);
        let y = m.new_var(0, 9);
        let cost = m.new_var(0, 30);
        m.post(Propag::LinearLe {
            terms: vec![(-1, x), (-1, y)],
            k: -5,
        });
        m.post(Propag::LinearEq {
            terms: vec![(1, x), (2, y), (-1, cost)],
            k: 0,
        });
        m.minimize_var(cost);
        m.compile()
    }

    #[test]
    fn parallel_counts_match_sequential_across_topologies() {
        for n in [6usize, 7, 8] {
            let prob = queens(n);
            let seq = solve_seq(&prob, &SeqOptions::default());
            for cfg in [
                SolverConfig::with_workers(1),
                SolverConfig::with_workers(4),
                SolverConfig::clustered(4, 2),
                SolverConfig::clustered(6, 2),
            ] {
                let out = solve_parallel(&prob, &cfg);
                assert_eq!(
                    out.solutions, seq.solutions,
                    "queens-{n} {:?}",
                    cfg.runtime.topology
                );
            }
        }
    }

    #[test]
    fn parallel_optimum_matches_sequential() {
        let prob = small_opt();
        let seq = solve_seq(&prob, &SeqOptions::default());
        assert_eq!(seq.best_cost, Some(5)); // x=5, y=0
        for workers in [1, 2, 4] {
            let out = solve_parallel(&prob, &SolverConfig::with_workers(workers));
            assert_eq!(out.best_cost, Some(5));
            let a = out.best_assignment.as_ref().unwrap();
            assert!(prob.check_assignment(a));
            assert_eq!(a[2] as i64, 5);
        }
    }

    #[test]
    fn first_solution_race_returns_a_valid_solution() {
        let prob = queens(8);
        let cfg = SolverConfig::with_workers(2).with_mode(macs_search::SearchMode::FirstSolution);
        let out = solve_parallel(&prob, &cfg);
        assert!(out.solutions >= 1);
        let a = out.best_assignment.as_ref().expect("one solution kept");
        assert!(prob.check_assignment(a));
        // Early cut: far fewer nodes than the full 8-queens enumeration.
        let full = solve_seq(&prob, &SeqOptions::default());
        assert!(out.nodes < full.nodes);
        assert!(out.first_solution.is_some(), "winner time recorded");
        assert!(out.first_solution.unwrap() <= out.report.wall);
    }

    #[test]
    fn race_on_a_hierarchical_machine_accounts_for_abandoned_work() {
        let prob = queens(9);
        let cfg = SolverConfig::hierarchical(&[2, 2, 2], 1)
            .unwrap()
            .with_mode(macs_search::SearchMode::FirstSolution);
        let out = solve_parallel(&prob, &cfg);
        assert!(out.solutions >= 1);
        assert!(prob.check_assignment(out.best_assignment.as_ref().unwrap()));
        // The race terminated early: processed + abandoned stays below the
        // full enumeration's node count.
        let full = solve_seq(&prob, &SeqOptions::default());
        assert!(out.nodes + out.report.abandoned_items() < full.nodes);
    }

    #[test]
    fn unsat_problem_reports_zero() {
        let prob = queens(3);
        let out = solve_parallel(&prob, &SolverConfig::with_workers(3));
        assert_eq!(out.solutions, 0);
        assert!(out.best_assignment.is_none());
        assert_eq!(out.best_cost, None);
    }

    #[test]
    fn hierarchical_solve_exercises_remote_path() {
        let prob = queens(9);
        let cfg = SolverConfig::clustered(4, 2);
        let out = solve_parallel(&prob, &cfg);
        let seq = solve_seq(&prob, &SeqOptions::default());
        assert_eq!(out.solutions, seq.solutions);
        // Not guaranteed every run steals remotely, but traffic must exist
        // (metadata scans at minimum).
        assert!(out.report.traffic.remote_reads > 0);
    }

    #[test]
    fn phase_split_is_recorded() {
        let prob = queens(8);
        let out = solve_parallel(&prob, &SolverConfig::with_workers(2));
        let phase = out
            .report
            .workers
            .iter()
            .fold(std::time::Duration::ZERO, |acc, w| {
                acc + w.phase.propagate + w.phase.split
            });
        assert!(phase > std::time::Duration::ZERO);
    }
}
