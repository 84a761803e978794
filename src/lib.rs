//! **MaCS** — a parallel complete constraint solver with hierarchical work
//! stealing on a PGAS-style runtime.
//!
//! This workspace is a from-scratch Rust reproduction of *"On the
//! Scalability of Constraint Programming on Hierarchical Multiprocessor
//! Systems"* (Machado, Pedro & Abreu, ICPP 2013). This facade crate
//! re-exports the public API of every subsystem:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`domain`] | `macs-domain` | bitmap finite domains, the relocatable [`Store`](domain::Store) |
//! | [`engine`] | `macs-engine` | propagators, fixpoint engine, models, branching, sequential oracle |
//! | [`search`] | `macs-search` | **the** node-processing kernel: [`SearchKernel`](search::SearchKernel), [`IncumbentSource`](search::IncumbentSource), the [`StoreSlab`](search::StoreSlab) arena, and the steal rulebook ([`StealPolicy`](search::StealPolicy), with its share rules in [`WorkBatch`](search::WorkBatch)) every execution runs |
//! | [`topo`] | `macs-topo` | the N-level machine model: [`MachineTopology`](topo::MachineTopology) distances/rings, [`VictimOrder`](topo::VictimOrder) |
//! | [`gpi`] | `macs-gpi` | the simulated GPI/PGAS layer: topology, segments, one-sided ops |
//! | [`pool`] | `macs-pool` | the split private/shared work pool |
//! | [`runtime`] | `macs-runtime` | the generic hierarchical work-stealing runtime, and the root-register views ([`GlobalIncumbent`](runtime::GlobalIncumbent), [`WinnerGate`](runtime::WinnerGate)) both threaded backends share |
//! | [`solver`] | `macs-core` | MaCS itself: the kernel on the work-stealing runtime |
//! | [`paccs`] | `macs-paccs` | the PaCCS baseline (`run_paccs`: the runtime's workers under PaCCS's request/reply protocol) |
//! | [`uts`] | `macs-uts` | the Unbalanced Tree Search benchmark |
//! | [`sim`] | `macs-sim` | discrete-event simulation at 8–512 virtual cores |
//! | [`problems`] | `macs-problems` | N-Queens, QAP/QAPLIB, Golomb, magic squares, Langford, knapsack |
//!
//! Every execution path — sequential oracle, threaded MaCS, threaded
//! PaCCS, simulated MaCS, simulated PaCCS — expands nodes through the one
//! [`SearchKernel`](search::SearchKernel); the paths differ only in how
//! work moves between workers and where the branch-and-bound incumbent
//! lives (an [`IncumbentSource`](search::IncumbentSource) implementation).
//!
//! # Quickstart
//!
//! ```
//! use macs::prelude::*;
//!
//! // Model: 8-queens.
//! let prob = macs::problems::queens(8, QueensModel::Pairwise);
//!
//! // Solve on 2 workers of one shared-memory node.
//! let out = Solver::new(SolverConfig::with_workers(2)).solve(&prob);
//! assert_eq!(out.solutions, 92);
//! ```

pub use macs_core as solver;
pub use macs_domain as domain;
pub use macs_engine as engine;
pub use macs_gpi as gpi;
pub use macs_paccs as paccs;
pub use macs_pool as pool;
pub use macs_problems as problems;
pub use macs_runtime as runtime;
pub use macs_search as search;
pub use macs_service as service;
pub use macs_sim as sim;
pub use macs_topo as topo;
pub use macs_uts as uts;

/// The most common imports in one place.
pub mod prelude {
    pub use macs_core::{
        solve_parallel, solve_seq, SeqOptions, SolveOutcome, Solver, SolverConfig,
    };
    pub use macs_domain::{Store, StoreLayout, StoreView, Val, VarId};
    pub use macs_engine::{
        BranchKind, Brancher, CompiledProblem, CostEval, Model, Propag, ValSelect, VarSelect,
    };
    pub use macs_gpi::LatencyModel;
    pub use macs_paccs::{paccs_solve, PaccsConfig};
    pub use macs_problems::{
        golomb_ruler, knapsack, langford, magic_square, qap_model, queens, KnapsackItem,
        QapInstance, QueensModel,
    };
    pub use macs_runtime::{
        BoundPolicy, PollPolicy, ReleasePolicy, RuntimeConfig, StealPolicy, VictimSelect,
    };
    pub use macs_search::{
        IncumbentSource, LocalIncumbent, SearchKernel, SearchMode, StepOutcome, StoreSlab,
        WorkBatch,
    };
    pub use macs_service::{
        JobScheduler, LeasePolicy, ServiceConfig, ServiceReport, SimBackend, ThreadedBackend,
        WorkloadConfig,
    };
    pub use macs_sim::{simulate_macs, simulate_paccs, CostModel, SimConfig};
    pub use macs_topo::{MachineTopology, ScanOrder, StealHistogram, TopoError, VictimOrder};
    pub use macs_uts::{uts_parallel, uts_sequential, TreeShape};
}
