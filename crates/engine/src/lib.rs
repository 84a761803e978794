//! The MaCS constraint-propagation engine.
//!
//! Implements §II of the paper: a complete finite-domain solver kernel that
//! interleaves **constraint propagation** (pruning domains to a fixpoint at
//! every search-tree node) with **search** (splitting a problem into
//! sub-problems). The kernel is strictly sequential and allocation-free on
//! the hot path; parallelism lives above it (`macs-runtime` / `macs-core`),
//! which matches the paper's observation that load balancing is orthogonal
//! to the problem being solved.
//!
//! * [`model`] — declarative model construction ([`Model`]) compiled into an
//!   immutable, shareable [`CompiledProblem`] (binary disequalities become
//!   per-variable [`AssignLists`], fired on assignment instead of queued);
//! * [`propag`] — the propagator library (disequalities, offset equalities,
//!   alldifferent at two consistency levels, linear arithmetic, element,
//!   plus user-defined [`CustomPropagator`]s);
//! * [`state`] — the mutable propagation view over a store with change
//!   logging and failure short-circuiting;
//! * [`fixpoint`] — the propagation queue and fixpoint loop ([`Engine`]);
//! * [`branch`] — variable/value selection and store splitting;
//! * [`seq`] — a sequential depth-first reference solver used for
//!   correctness oracles and single-core baselines.

pub mod branch;
pub mod fixpoint;
pub mod mode;
pub mod model;
pub mod propag;
pub mod seq;
pub mod state;

pub use branch::{BranchKind, Brancher, ValSelect, VarSelect};
pub use fixpoint::{Engine, PropOutcome, ScheduleSeed};
pub use mode::SearchMode;
pub use model::{AssignLists, CompiledProblem, CostEval, Model, Objective, Watch};
pub use propag::{CustomPropagator, Propag};
pub use state::{ChangeLog, Failed, PropState};

pub use macs_domain::{bits, Store, StoreLayout, StoreView, Val, VarId, HEADER_WORDS};
