//! Discrete-event simulation of MaCS (and PaCCS) work stealing at
//! arbitrary virtual core counts.
//!
//! The paper's evaluation runs on 8–512 cores of an InfiniBand cluster.
//! This crate regenerates those series on any host: it steps *virtual
//! workers* over a *virtual clock*, processing the **real** search tree
//! (the same [`Processor`](macs_runtime::Processor) implementations the
//! threaded runtime drives — propagation, splitting, branch-and-bound all
//! actually execute), while the pool discipline, release interval, victim
//! selection, request mailboxes, dynamic polling and fabric latencies are
//! modelled by a [`CostModel`] in virtual nanoseconds.
//!
//! What emerges — who steals from whom, how often steals fail, how much
//! time each worker spends per state, how the incumbent's dissemination
//! delay inflates COP trees — is a product of the simulated interleaving,
//! not of scripted formulas, so the *shapes* of the paper's figures
//! (speed-up, efficiency, Mnodes/s, overhead breakdowns, steal tables) can
//! be reproduced at 512 virtual cores on a 2-core laptop — and
//! extrapolated far past the paper's testbed: the event core (an
//! indexed min-heap plus FIFO lanes for idle wakes, both keyed by
//! `(time, monotone seq)`, arena-backed work items, lazy per-worker
//! rings and processors) replays queens-14 at 65 536 virtual cores in
//! under a minute and reaches 262 144 cores in a few minutes of wall
//! time. Same-seed runs are bit-identical at every scale: the queue key
//! is a strict total order, and
//! [`SimReport::digest`] folds every counter plus an event-trace hash
//! so a single reordered event is detectable.
//!
//! The network is a [`FabricModel`] knob: `Latency` prices every hop
//! with a fixed per-ring delay (infinite capacity), `Contention` gives
//! each node a finite-bandwidth uplink and downlink with FIFO queueing,
//! so steal storms pay queueing delay for the links they fight over.
//! The fabric keeps conservation books (injected = delivered +
//! in-flight) surfaced in [`FabricReport`].
//!
//! Two balancer models are provided:
//! * [`simulate_macs`] — the MaCS protocol (split pools, one-sided
//!   metadata scans, request mailbox + in-place response, proxy
//!   fulfilment, dynamic polling);
//! * [`simulate_paccs`] — the PaCCS protocol (two-sided request/reply at
//!   node-completion granularity, neighbourhood sweeps, controller-routed
//!   bounds), used for the comparison series of Fig. 4/6.
//!
//! Branch-and-bound incumbents travel through a [`BoundFabric`] applying
//! the configured [`BoundPolicy`] — flat eager broadcast, cached periodic
//! reads, or the node-leader broadcast tree with per-level delivery delay
//! — and the report counts bound messages and stale-bound expansions, the
//! two sides of the dissemination trade.
//!
//! # Worked example
//!
//! Simulate 16 virtual cores (4 nodes × 2 sockets × 2 cores) solving
//! 8-queens under hierarchical bound dissemination:
//!
//! ```
//! use macs_core::{CpProcessor, SearchMode};
//! use macs_runtime::MachineTopology;
//! use macs_sim::{simulate_macs, BoundPolicy, SimConfig};
//!
//! let prob = macs_problems::queens(8, macs_problems::QueensModel::Pairwise);
//! let mut cfg = SimConfig::new(MachineTopology::try_new(&[4, 2, 2], 1)?);
//! cfg.bound_policy = BoundPolicy::Hierarchical;
//!
//! let report = simulate_macs(
//!     &cfg,
//!     prob.layout.store_words(),
//!     &[prob.root.as_words().to_vec()],
//!     |_worker| CpProcessor::new(&prob, 0, SearchMode::Exhaustive),
//! );
//! assert_eq!(report.total_solutions(), 92);
//! assert!(report.makespan_ns > 0); // virtual wall time at 16 cores
//! # Ok::<(), macs_runtime::TopoError>(())
//! ```

pub mod cost;
pub mod engine_sim;
pub mod fabric;
pub mod incumbent;
mod probes;
pub mod report;

pub use cost::{CostModel, CostModelError, NodeCost, LOCAL_MSG_FLOOR_NS, MAX_PRICE};
pub use engine_sim::{fnv1a, simulate_macs, simulate_paccs, SimConfig, SimMode, FNV_OFFSET};
pub use fabric::{ContentionParams, FabricModel, FabricReport, WireParams};
pub use incumbent::{BoundFabric, SimIncumbent};
pub use macs_search::{BoundPolicy, ChunkPolicy, SearchMode, StealPolicy};
pub use report::{SimReport, SimWorkerStats};
