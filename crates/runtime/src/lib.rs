//! The generic hierarchical work-stealing runtime of MaCS (paper §IV–V).
//!
//! The paper builds MaCS on the observation that "a dynamic and
//! asynchronous load balancing scheme … required by parallel tree search is
//! orthogonal to the problem at hand": the same pool + stealing machinery
//! drives both the constraint solver and the UTS benchmark. This crate *is*
//! that machinery, generic over the work item:
//!
//! * a [`Processor`] turns one fixed-size work item into zero or more child
//!   items (pushed through [`ProcCtx`]) — `macs-core` implements it with
//!   the CP propagate/split cycle, `macs-uts` with UTS node expansion;
//! * every worker owns a [`SplitPool`](macs_pool::SplitPool) in GPI global
//!   memory and runs the **restore procedure**: own private region → own
//!   shared region → **local steal** (greedy or max-steal victim selection)
//!   → **remote steal** (one-sided metadata scan, request mailbox, victim
//!   polling with a **dynamic polling interval**, in-place one-sided
//!   response, proxy fulfilment) → idle;
//! * termination is distributed and controller-free: every worker counts
//!   the items it created and finished on a line only it writes, and an
//!   idle worker whose sum of finishes equals the sum of creations has
//!   proved that no work item exists anywhere, including in flight (see
//!   [`term`]);
//! * per-worker [`stats`] mirror the paper's worker-state taxonomy
//!   (Fig. 3/5) and steal accounting (Tables I/II);
//! * the same workers run the PaCCS baseline's request/reply protocol
//!   ([`run_parallel_paccs`]), so the two protocols share everything
//!   else.

pub mod affinity;
pub mod config;
pub mod processor;
pub mod registers;
pub mod run;
pub mod stats;
pub mod term;
pub mod worker;

pub use affinity::pin_current_thread;
pub use config::{
    BoundPolicy, ChunkPolicy, PollPolicy, ReleasePolicy, RuntimeConfig, StealPolicy, VictimSelect,
};
pub use macs_search::SplitMix64;
pub use processor::{Incumbent, NoIncumbent, ProcCtx, Processor, Step, WorkSink};
pub use registers::{GlobalIncumbent, WinnerGate};
pub use run::{run_parallel, run_parallel_on, run_parallel_paccs, RunReport};
pub use stats::{PhaseTimers, RaceRing, StateClock, WorkerState, WorkerStats, NUM_STATES};

pub use macs_gpi::{
    detect_machine, DetectedMachine, Interconnect, LatencyModel, MachineTopology, ScanOrder,
    StealHistogram, TopoError, VictimOrder, MAX_LEVELS,
};
