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
//! This crate reproduces that architecture with two-sided message passing
//! (std `mpsc` channels standing in for MPI, cross-node messages charged to
//! the same [`Interconnect`](macs_gpi::Interconnect) model MaCS uses):
//!
//! * a **controller** is notified of solutions (one billed message each;
//!   the assignments stay in the agents' processor outputs), detects
//!   termination and broadcasts it. The state it *holds* — the best
//!   bound, the first-solution winner flag and win instant — is the root
//!   register block of a [`World`](macs_gpi::World) on node 0, exactly
//!   what a MaCS run keeps there: agents read and publish bounds through the
//!   runtime's [`GlobalIncumbent`](macs_runtime::GlobalIncumbent) and
//!   watch the race through its [`WinnerGate`](macs_runtime::WinnerGate),
//!   so a threaded MaCS-vs-PaCCS number compares two *work* protocols
//!   over one bound fabric, not two bound fabrics;
//! * **search agents** drive the runtime's
//!   [`Processor`](macs_runtime::Processor) contract over a plain private
//!   deque and report in its [`WorkerStats`](macs_runtime::WorkerStats),
//!   as MaCS workers do; a CP solve ([`paccs_solve`]) runs MaCS's own
//!   [`CpProcessor`](macs_core::CpProcessor) — the paper notes the two
//!   systems share their constraint-propagation implementation, which is
//!   why their sequential performance is comparable;
//! * an idle agent sends steal *requests* in neighbourhood order (same
//!   node first, then expanding) and blocks for each reply — the two-sided
//!   protocol whose extra hand-shakes are exactly what MaCS' one-sided
//!   design removes.

pub mod solve;
pub mod solver;

pub use solve::{paccs_solve, PaccsOutcome};
pub use solver::{run_paccs, PaccsConfig};
