//! **PaCCS** — the baseline parallel constraint solver MaCS is compared
//! against (paper §IV, §VI).
//!
//! PaCCS (Pedro, 2012) predates MaCS and is implemented with MPI: "a
//! distinguished process initiates the search, collects solutions, detects
//! termination and returns answers", and load balancing is work stealing
//! where "the idle agent first tries to obtain work from an agent in its
//! immediate neighbourhood, constituted by the agents in the same
//! shared-memory system. Failing that, it then expands the considered
//! neighbourhood until it encompasses the whole parallel search system."
//!
//! This crate reproduces that protocol on the MaCS runtime, so that a
//! threaded MaCS-vs-PaCCS number compares two *work* protocols and nothing
//! else: each agent is a `macs-runtime` worker (same pools, termination
//! counts, bound and winner registers, panic containment, back-off and
//! thread placement) whose [`WorkerMachine::paccs`](macs_search::WorkerMachine::paccs)
//! sequences it the PaCCS way:
//!
//! * an idle agent posts a steal *request* to its peers in neighbourhood
//!   order (same socket, same node, then expanding) and blocks for each
//!   reply — the two-sided hand-shake MaCS' one-sided design removes;
//! * a victim checks its mailbox after every node and serves its queued
//!   requests first come, first served, granting the oldest half of its
//!   own queue under the distance cap
//!   ([`StealPolicy::paccs_grant`](macs_search::StealPolicy::paccs_grant))
//!   — it never releases work ahead of a request;
//! * requests, replies and solution notices that cross nodes are charged
//!   to the same [`Interconnect`](macs_gpi::Interconnect) model MaCS
//!   uses; the distinguished process's state — the best bound, the winner
//!   flag and win instant — is the root register block on node 0, and
//!   termination is detected by the runtime's counts instead of a
//!   controller;
//! * a CP solve ([`paccs_solve`]) runs MaCS's own
//!   [`CpProcessor`](macs_core::CpProcessor) — the paper notes the two
//!   systems share their constraint-propagation implementation, which is
//!   why their sequential performance is comparable.

pub mod solve;
pub mod solver;

pub use solve::{paccs_solve, PaccsOutcome};
pub use solver::{run_paccs, PaccsConfig};
