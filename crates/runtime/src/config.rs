//! Runtime configuration: topology, the steal protocol's knobs
//! ([`StealPolicy`], shared with the simulator), bound dissemination and
//! thread placement.

use macs_gpi::{LatencyModel, MachineTopology, TopoError};
pub use macs_search::{
    BoundPolicy, ChunkPolicy, PollPolicy, ReleasePolicy, SearchMode, StealPolicy, VictimSelect,
};

/// The threaded runtime's default bound-dissemination policy (paper §VI
/// discussion and future work: "a more efficient dissemination of the
/// bound value could potentially mitigate that growth"). `Immediate` pays
/// an interconnect read per item off node 0; `Periodic` trades staleness
/// for fewer reads; `Hierarchical` routes through per-node mirror cells
/// refreshed by node leaders (see
/// [`macs_search::bounds`] and
/// [`GlobalIncumbent`](crate::registers::GlobalIncumbent)).
pub fn default_bound_policy() -> BoundPolicy {
    BoundPolicy::Periodic { every: 32 }
}

/// Complete configuration of a parallel run.
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// The machine's level structure; stealing inside a node is
    /// shared-memory, across nodes it pays the interconnect, and victim
    /// scans walk the levels nearest-first (see `steal.scan_order`).
    pub topology: MachineTopology,
    /// Interconnect cost model.
    pub latency: LatencyModel,
    /// The steal protocol's knobs — release, poll, victim selection, scan
    /// order, chunking, reply batching — the same struct
    /// `SimConfig` embeds, read by the one rulebook in
    /// [`macs_search::steal`].
    pub steal: StealPolicy,
    /// When incumbent improvements reach other workers (see
    /// [`BoundPolicy`]). The default is `Periodic { every: 32 }` — the
    /// cheap cadence the pre-hierarchical runtime shipped with.
    pub bound_policy: BoundPolicy,
    /// Arms the first-solution race machinery: under
    /// [`SearchMode::FirstSolution`] workers poll their node's winner
    /// mirror (leaders refreshing it from the root flag over the fabric)
    /// and record the per-item timestamps behind `nodes_after_win`.
    /// Under the default `Exhaustive` the runtime keeps the original
    /// flat, uncharged poll of the root cancel flag — generic processors
    /// may still cancel, but no race metrics are paid for. Keep this in
    /// step with the processor's own mode (the solver front ends do).
    pub mode: SearchMode,
    /// PRNG seed (victim selection, backoff jitter).
    pub seed: u64,
    /// Pin each worker thread to one OS CPU (`sched_setaffinity`; a
    /// graceful no-op off-Linux). Off by default — calibration and the
    /// `calibration_gate` turn it on so threaded latencies describe the
    /// cores they claim.
    pub pin_threads: bool,
    /// Worker → OS CPU map used when `pin_threads` is set: worker `w`
    /// pins to `cpu_map[w]` (typically
    /// [`DetectedMachine::cpus`](macs_gpi::DetectedMachine), which skips
    /// hyperthread siblings). `None` = identity (worker `w` → CPU `w`).
    pub cpu_map: Option<Vec<u32>>,
}

impl RuntimeConfig {
    /// A sensible default for `workers` workers on one shared-memory node.
    pub fn single_node(workers: usize) -> Self {
        RuntimeConfig {
            topology: MachineTopology::flat(workers),
            ..Default::default()
        }
    }

    /// The paper's cluster shape: nodes of 4 cores.
    pub fn clustered(total_workers: usize, cores_per_node: usize) -> Self {
        RuntimeConfig {
            topology: MachineTopology::clustered(total_workers, cores_per_node),
            ..Default::default()
        }
    }

    /// An N-level machine, e.g. `&[2, 2, 4]` with `node_prefix = 1` for
    /// 2 nodes of 2 sockets of 4 cores. Shape errors propagate instead of
    /// panicking.
    pub fn hierarchical(shape: &[usize], node_prefix: usize) -> Result<Self, TopoError> {
        Ok(RuntimeConfig {
            topology: MachineTopology::try_new(shape, node_prefix)?,
            ..Default::default()
        })
    }

    pub fn workers(&self) -> usize {
        self.topology.total_workers()
    }
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            topology: MachineTopology::flat(1),
            latency: LatencyModel::zero(),
            steal: StealPolicy::default(),
            bound_policy: default_bound_policy(),
            mode: SearchMode::Exhaustive,
            seed: 0x5EED,
            pin_threads: false,
            cpu_map: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The poll and release policies live in `macs_search::steal`; these
    // three pin them through this crate's re-exported paths.
    #[test]
    fn dynamic_poll_interval_adapts() {
        let p = PollPolicy::Dynamic { min: 2, max: 64 };
        assert_eq!(p.initial(), 2);
        let mut cur = p.initial();
        for _ in 0..10 {
            cur = p.next(cur, false);
        }
        assert_eq!(cur, 64, "misses saturate at max");
        cur = p.next(cur, true);
        assert_eq!(cur, 32);
        for _ in 0..10 {
            cur = p.next(cur, true);
        }
        assert_eq!(cur, 2, "hits saturate at min");
    }

    #[test]
    fn fixed_poll_interval_is_constant() {
        let p = PollPolicy::Fixed(8);
        assert_eq!(p.next(8, true), 8);
        assert_eq!(p.next(8, false), 8);
        assert_eq!(PollPolicy::Fixed(0).initial(), 1, "zero clamps to 1");
    }

    #[test]
    fn tuned_release_is_rarer_than_default() {
        assert!(ReleasePolicy::tuned().interval > ReleasePolicy::default().interval);
    }

    #[test]
    fn config_shapes() {
        let c = RuntimeConfig::clustered(8, 4);
        assert_eq!(c.topology.nodes(), 2);
        assert_eq!(c.workers(), 8);
        let s = RuntimeConfig::single_node(3);
        assert_eq!(s.topology.nodes(), 1);
        let h = RuntimeConfig::hierarchical(&[2, 2, 2], 1).unwrap();
        assert_eq!(h.workers(), 8);
        assert_eq!(h.topology.nodes(), 2);
        assert_eq!(h.topology.levels(), 3);
        assert!(RuntimeConfig::hierarchical(&[0, 2], 1).is_err());
    }
}
