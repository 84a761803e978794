//! The CP front end: [`paccs_solve`] is [`run_paccs`] over
//! [`CpProcessor`]s plus the CP reduction threaded MaCS applies too
//! ([`SolveOutcome::from_report`]).

use macs_core::{CpOutput, CpProcessor, SolveOutcome};
use macs_domain::Val;
use macs_engine::CompiledProblem;
use macs_runtime::RunReport;

use crate::solver::{run_paccs, PaccsConfig};

/// Result of a PaCCS solve.
#[derive(Debug)]
pub struct PaccsOutcome {
    /// Solutions reported to the controller (for optimisation: improving
    /// solutions).
    pub solutions: u64,
    /// Total stores processed.
    pub nodes: u64,
    pub best_cost: Option<i64>,
    pub best_assignment: Option<Vec<Val>>,
    pub kept: Vec<Vec<Val>>,
    /// Total messages exchanged: every agent's sends plus the controller's
    /// one `Terminate` per agent.
    pub messages: u64,
    /// Cross-node messages attributable to bound dissemination (relay
    /// fan-out on improvements, plus periodic refresh pulls).
    pub bound_msgs: u64,
    /// The run: per-agent `WorkerStats` (steals, race accounting, state
    /// clock), wall time, traffic, win instant.
    pub report: RunReport<CpOutput>,
}

/// Solve `prob` with the PaCCS architecture (controller + search agents).
pub fn paccs_solve(prob: &CompiledProblem, cfg: &PaccsConfig) -> PaccsOutcome {
    let report = run_paccs(
        cfg,
        prob.layout.store_words(),
        &[CpProcessor::root_item(prob)],
        |_agent| CpProcessor::new(prob, cfg.keep_solutions, cfg.mode),
    );
    let terminations = report.workers.len() as u64;
    let messages = report.workers.iter().map(|w| w.messages).sum::<u64>() + terminations;
    let bound_msgs = report.workers.iter().map(|w| w.bound_msgs).sum();
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
