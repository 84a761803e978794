//! In-process simulation of **GPI** (Global address space Programming
//! Interface), the PGAS API MaCS is built on (paper §III).
//!
//! The real GPI runs on an RDMA cluster: the system is a set of *nodes*
//! (each a shared-memory multiprocessor running one thread per core), every
//! node exposes a partition of *global memory*, and threads access remote
//! partitions with **one-sided**, non-blocking read/write operations that
//! complete without involving the remote CPU.
//!
//! This crate reproduces that programming model inside one process:
//!
//! * [`MachineTopology`] (from `macs-topo`) — the N-level machine
//!   structure (workers on the same node are "close"; others are
//!   "remote");
//! * [`Segment`] — a partition of global memory: a word array supporting
//!   one-sided reads, writes, and atomics, in *local* (plain shared-memory)
//!   and *remote* flavours, the latter charged against the interconnect
//!   model;
//! * [`Interconnect`] — the DMA interconnect: a latency/bandwidth model
//!   with traffic counters; remote operations spin for their modelled
//!   duration, so time-based measurements see realistic local/remote cost
//!   asymmetry (zero-latency by default for functional tests);
//! * [`GlobalCells`] — a tiny register file in global memory (termination
//!   counter, branch-and-bound incumbent, solution counter …);
//! * [`GpiBarrier`] — a sense-reversing barrier (GPI's collective);
//! * [`World`] — a bundle of all of the above for one run.
//!
//! What is simulated vs. real: memory accesses *are* real shared-memory
//! accesses (so all concurrency is genuine); only the *cost* of crossing
//! the interconnect is modelled, by spinning. One-sided transfers become
//! visible word-atomically but without a global order — exactly the
//! guarantee RDMA gives — so higher layers use explicit notification words
//! with acquire/release ordering, as real GPI applications do.

pub mod barrier;
pub mod cells;
pub mod interconnect;
pub mod segment;

pub use barrier::GpiBarrier;
pub use cells::{CellBlock, GlobalCells};
pub use interconnect::{Interconnect, LatencyModel, TrafficCounters};
pub use segment::{Segment, LINE_WORDS};

// The N-level machine model, re-exported so runtime/sim/paccs share one
// set of topology types.
pub use macs_topo::{
    detect_machine, DetectedMachine, MachineTopology, PeerRing, ScanOrder, StealHistogram,
    TopoError, VictimOrder, MAX_LEVELS,
};

use std::sync::Arc;

/// Everything a set of workers needs to communicate: the topology, the
/// interconnect, a global register file and a barrier.
#[derive(Debug)]
pub struct World {
    pub topology: MachineTopology,
    pub interconnect: Interconnect,
    pub cells: Arc<GlobalCells>,
    /// This run's window into `cells` (see [`cells::CellBlock`]). For a
    /// classic single-job world this is the root block, so the well-known
    /// `CELL_*` indices keep working; a multi-tenant service hands each
    /// co-scheduled job its own block of a shared register file.
    pub block: CellBlock,
    /// True when this world runs under a worker-set lease: workers poll
    /// `block.lease()` and park themselves when the lease shrinks below
    /// their id. Single-job worlds skip that poll entirely.
    pub leased: bool,
    pub barrier: GpiBarrier,
    /// The run's epoch: every worker timestamps against this one instant,
    /// so cross-worker times (e.g. the first-solution winner time in
    /// [`cells::CELL_WIN_NS`]) are comparable.
    pub start: std::time::Instant,
}

impl World {
    /// Build a world with at least `cell_count` global registers. The
    /// register file always includes one incumbent mirror per
    /// shared-memory node (see [`cells::CELL_NODE_BOUND_BASE`]),
    /// initialised to "no incumbent", so hierarchical bound dissemination
    /// works on any world.
    pub fn new(topology: MachineTopology, latency: LatencyModel, cell_count: usize) -> Arc<Self> {
        let total = topology.total_workers();
        let nodes = topology.nodes();
        let cells = Arc::new(GlobalCells::with_node_mirrors(nodes, cell_count));
        Arc::new(World {
            topology,
            interconnect: Interconnect::new(latency),
            cells,
            block: CellBlock::root(nodes),
            leased: false,
            barrier: GpiBarrier::new(total),
            start: std::time::Instant::now(),
        })
    }

    /// Build a *leased* world: a job-private view over a **shared**
    /// register file, windowed to `block`. `topology` is the lease
    /// sub-topology (the job's nodes renumbered from 0, inner shape
    /// preserved), so every distance/ring computation stays meaningful
    /// while the job's mirrors stay lease-relative inside its block.
    /// The block is reset for a fresh run with the lease width set to
    /// the sub-topology's full worker count.
    pub fn leased_on(
        topology: MachineTopology,
        latency: LatencyModel,
        cells: Arc<GlobalCells>,
        block: CellBlock,
    ) -> Arc<Self> {
        let total = topology.total_workers();
        assert!(
            topology.nodes() <= block.mirror_nodes(),
            "lease sub-topology has more nodes than the cell block mirrors"
        );
        cells.reset_block(block, total as u64);
        Arc::new(World {
            topology,
            interconnect: Interconnect::new(latency),
            cells,
            block,
            leased: true,
            barrier: GpiBarrier::new(total),
            start: std::time::Instant::now(),
        })
    }

    /// Nanoseconds since the run's epoch, saturating at `i64::MAX` (the
    /// "no winner" sentinel of [`cells::CELL_WIN_NS`]).
    pub fn elapsed_ns(&self) -> i64 {
        i64::try_from(self.start.elapsed().as_nanos()).unwrap_or(i64::MAX - 1)
    }
}
