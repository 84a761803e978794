//! **The** node-processing search kernel of the workspace.
//!
//! The paper's central claim is that MaCS (PGAS work stealing) and PaCCS
//! (message passing) run the *same* constraint-solving kernel over
//! different communication substrates. This crate is that kernel, extracted
//! so it exists exactly once:
//!
//! * [`SearchKernel`] — the propagate → (solution | split) cycle over one
//!   relocatable store, with per-phase timing and an arena-backed child
//!   buffer ([`StoreSlab`]) that recycles store allocations on the hot
//!   path;
//! * [`IncumbentSource`] — where the branch-and-bound bound comes from:
//!   the GPI global cell for threaded MaCS and PaCCS, the virtual-time
//!   incumbent for the simulator, a [`LocalIncumbent`] for sequential
//!   oracles;
//! * [`bounds`] — *when* the bound reaches other workers: the
//!   [`BoundPolicy`] dissemination vocabulary (immediate / periodic /
//!   hierarchical) and the node-leader [`BroadcastTree`] the hierarchical
//!   policy routes over, shared by all three backends;
//! * [`SearchMode`] — whether a run explores the whole tree or races to
//!   the first solution (the winner flag then travels the same
//!   node-leader tree as a hierarchical bound update);
//! * [`WorkBatch`] — the half-split share rules every grant is sized by;
//! * [`ChunkPolicy`] — *how much* one steal moves: a static cap, a
//!   distance-scaled reservation (small near, large far — matching how
//!   steal cost grows with topological distance), or the adaptive variant
//!   whose [`AdaptiveBatch`] also tunes the response batch online from
//!   reply thinness;
//! * [`steal`] — the MaCS steal rulebook: [`StealPolicy`] (the §V
//!   protocol's knobs, one struct for threaded and simulated runs) and
//!   every protocol decision as a pure function;
//! * [`machine`] — the MaCS worker as a sans-IO [`WorkerMachine`] that
//!   sequences those decisions; the threaded worker and the simulator
//!   only perform and price its actions.
//!
//! Every execution path — `macs-core`'s `CpProcessor` (threaded and
//! simulated MaCS and PaCCS) and the cross-solver tests — drives
//! [`SearchKernel::step`]; adding a propagator, a branching rule or
//! a new backend is a single-site change.
//!
//! # Worked example
//!
//! A depth-first drive of the kernel is a dozen lines — this is exactly
//! the loop every backend wraps in its own scheduling and communication:
//!
//! ```
//! use std::collections::VecDeque;
//! use macs_search::{LocalIncumbent, SearchKernel, StepOutcome, WorkItem};
//!
//! // x, y ∈ 0..=2, x ≠ y — six solutions.
//! let mut m = macs_engine::Model::new("pair");
//! let x = m.new_var(0, 2);
//! let y = m.new_var(0, 2);
//! m.post(macs_engine::Propag::NeqOffset { x, y, c: 0 });
//! let prob = m.compile();
//!
//! let mut kernel = SearchKernel::new(&prob);
//! let inc = LocalIncumbent::new(); // any IncumbentSource
//! let mut stack: VecDeque<WorkItem> = VecDeque::new();
//! stack.push_back(kernel.alloc_root());
//! let mut solutions = 0;
//! while let Some(mut store) = stack.pop_back() {
//!     match kernel.step(&mut store, &inc) {
//!         StepOutcome::Failed => {}
//!         StepOutcome::Solution(_) => solutions += 1,
//!         StepOutcome::Children(_) => kernel.push_children(&mut stack),
//!     }
//!     kernel.recycle(store); // arena-recycled, no steady-state allocation
//! }
//! assert_eq!(solutions, 6);
//! ```

pub mod arena;
pub mod batch;
pub mod bounds;
pub mod incumbent;
pub mod kernel;
pub mod machine;
pub mod mode;
pub mod rng;
pub mod steal;

pub use arena::StoreSlab;
pub use batch::{AdaptiveBatch, ChunkPolicy, WorkBatch, WorkItem};
pub use bounds::{BoundFanout, BoundPath, BoundPolicy, BroadcastTree, RefreshGate};
pub use incumbent::{IncumbentSource, LocalIncumbent, NoBound};
pub use kernel::{KernelTimers, SearchKernel, SolutionReport, StepOutcome, SAMPLE_STRIDE};
pub use machine::{Action, Outcome, Scan, WorkerMachine, WorkerView};
pub use mode::{RaceRing, SearchMode};
pub use rng::SplitMix64;
pub use steal::{PollPolicy, PoolView, ReleasePolicy, Reply, ScanView, StealPolicy, VictimSelect};
