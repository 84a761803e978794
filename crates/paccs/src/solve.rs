//! The CP front end: [`paccs_solve`] is [`run_paccs`] over
//! [`CpProcessor`]s plus the CP reduction threaded MaCS applies too
//! ([`SolveOutcome::from_report`]).

use macs_core::{CpOutput, CpProcessor, SolveOutcome};
use macs_domain::Val;
use macs_engine::CompiledProblem;
use macs_runtime::{RunReport, WorkerStats};
use macs_search::BroadcastTree;

use crate::solver::{run_paccs, PaccsConfig};

/// Result of a PaCCS solve.
#[derive(Debug)]
pub struct PaccsOutcome {
    /// Solutions found (for optimisation: improving solutions), each
    /// noticed to the root registers.
    pub solutions: u64,
    /// Total stores processed.
    pub nodes: u64,
    pub best_cost: Option<i64>,
    pub best_assignment: Option<Vec<Val>>,
    pub kept: Vec<Vec<Val>>,
    /// Total messages exchanged: steal requests, their replies, solution
    /// notices, and one terminate per agent.
    pub messages: u64,
    /// Cross-node messages attributable to bound dissemination (relay
    /// fan-out on improvements, plus periodic refresh pulls).
    pub bound_msgs: u64,
    /// The run: per-agent `WorkerStats` (steals, race accounting, state
    /// clock), wall time, traffic, win instant.
    pub report: RunReport<CpOutput>,
}

/// Requests an agent posted: each ends in exactly one steal, refusal or
/// drain.
pub(crate) fn posts(w: &WorkerStats) -> u64 {
    w.local_steals
        + w.remote_steals
        + w.local_steal_failures
        + w.remote_steal_failures
        + w.drain_steals
}

/// Solve `prob` with the PaCCS architecture.
pub fn paccs_solve(prob: &CompiledProblem, cfg: &PaccsConfig) -> PaccsOutcome {
    let report = run_paccs(
        cfg,
        prob.layout.store_words(),
        &[CpProcessor::root_item(prob)],
        |_agent| CpProcessor::new(prob, cfg.keep_solutions, cfg.mode),
    );
    let tree = BroadcastTree::new(&cfg.topology);
    let (mut messages, mut bound_msgs) = (0, 0);
    for w in &report.workers {
        let replies = w.requests_served + w.requests_refused;
        messages += posts(w) + replies + w.solutions + 1;
        bound_msgs +=
            w.bound_pulls + w.improvements * tree.improvement_msgs(cfg.bound_policy, w.id);
    }
    let SolveOutcome {
        solutions,
        nodes,
        best_cost,
        best_assignment,
        kept,
        report,
        ..
    } = SolveOutcome::from_report(prob, cfg.keep_solutions, report);
    PaccsOutcome {
        solutions,
        nodes,
        best_cost,
        best_assignment,
        kept,
        messages,
        bound_msgs,
        report,
    }
}
