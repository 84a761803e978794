//! Run entry point: build the world, seed the roots, spawn the workers,
//! aggregate the report.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::time::Duration;

use macs_gpi::interconnect::TrafficSnapshot;
use macs_gpi::World;
use macs_pool::SplitPool;

use crate::config::RuntimeConfig;
use crate::processor::Processor;
use crate::registers::{poison, WinnerGate};
use crate::stats::{WorkerState, WorkerStats, NUM_STATES};
use crate::term::TermBoard;
use crate::worker::{Protocol, Worker};

/// Everything a parallel run produced: wall time, per-worker statistics,
/// per-worker processor outputs, and interconnect traffic.
#[derive(Debug)]
pub struct RunReport<O> {
    pub wall: Duration,
    pub workers: Vec<WorkerStats>,
    pub outputs: Vec<O>,
    pub traffic: TrafficSnapshot,
    /// Final global incumbent (optimisation; `i64::MAX` otherwise).
    pub incumbent: i64,
    /// First-solution races: when the winning solution was found,
    /// measured from the run's epoch (`None` when no winner flag was ever
    /// raised — exhaustive runs, unsatisfiable instances).
    pub first_solution: Option<Duration>,
}

impl<O> RunReport<O> {
    /// Total work items processed (the paper's "Total Nodes").
    pub fn total_items(&self) -> u64 {
        self.workers.iter().map(|w| w.items).sum()
    }

    pub fn total_solutions(&self) -> u64 {
        self.workers.iter().map(|w| w.solutions).sum()
    }

    /// First-solution races: items whose expansion *started* after the
    /// win — work the winner flag's dissemination lag failed to prevent.
    pub fn nodes_after_win(&self) -> u64 {
        self.workers.iter().map(|w| w.nodes_after_win).sum()
    }

    /// First-solution races: items discarded unprocessed once workers
    /// observed the winner flag.
    pub fn abandoned_items(&self) -> u64 {
        self.workers.iter().map(|w| w.abandoned_items).sum()
    }

    /// Fraction of aggregate worker time spent in each state (the paper's
    /// Fig. 3/5 bars). Exact for the rare states; the split among
    /// `Working`, `Releasing` and `Poll` is sampled (see
    /// [`StateClock`](crate::stats::StateClock)).
    pub fn state_fractions(&self) -> [f64; NUM_STATES] {
        let mut totals = [0.0f64; NUM_STATES];
        let mut sum = 0.0;
        for w in &self.workers {
            for (i, d) in w.clock.totals.iter().enumerate() {
                totals[i] += d.as_secs_f64();
                sum += d.as_secs_f64();
            }
        }
        if sum > 0.0 {
            for t in totals.iter_mut() {
                *t /= sum;
            }
        }
        totals
    }

    /// Everything that is not `Working`, as a fraction (the paper's
    /// "Overhead" line).
    pub fn overhead_fraction(&self) -> f64 {
        1.0 - self.state_fractions()[WorkerState::Working as usize]
    }

    /// Aggregate items per second.
    pub fn items_per_sec(&self) -> f64 {
        self.total_items() as f64 / self.wall.as_secs_f64().max(1e-12)
    }

    /// Summed steal statistics:
    /// (local ok, local failed, remote ok, remote failed).
    pub fn steal_totals(&self) -> (u64, u64, u64, u64) {
        let mut t = (0, 0, 0, 0);
        for w in &self.workers {
            t.0 += w.local_steals;
            t.1 += w.local_steal_failures;
            t.2 += w.remote_steals;
            t.3 += w.remote_steal_failures;
        }
        t
    }
}

/// Run `roots` through per-worker processors created by `factory` (called
/// once per worker, from that worker's thread).
///
/// Every root and every work item is `slot_words` u64s. Returns when every
/// item (transitively) has been processed. A panicking worker (or factory)
/// ends the run: the others stop, all are joined, and the first panic is
/// re-raised.
pub fn run_parallel<P, F>(
    cfg: &RuntimeConfig,
    slot_words: usize,
    roots: &[Vec<u64>],
    factory: F,
) -> RunReport<P::Output>
where
    P: Processor,
    F: Fn(usize) -> P + Sync,
    P::Output: Send,
{
    run_fresh(Protocol::Macs, cfg, slot_words, roots, factory)
}

/// [`run_parallel`] under PaCCS's request/reply protocol: an idle agent
/// asks its peers for work, nearest first, and blocks for each reply; a
/// victim grants part of its own queue. Pools, termination, bounds, the
/// winner flag and panic containment are the MaCS run's.
pub fn run_parallel_paccs<P, F>(
    cfg: &RuntimeConfig,
    slot_words: usize,
    roots: &[Vec<u64>],
    factory: F,
) -> RunReport<P::Output>
where
    P: Processor,
    F: Fn(usize) -> P + Sync,
    P::Output: Send,
{
    run_fresh(Protocol::Paccs, cfg, slot_words, roots, factory)
}

fn run_fresh<P, F>(
    protocol: Protocol,
    cfg: &RuntimeConfig,
    slot_words: usize,
    roots: &[Vec<u64>],
    factory: F,
) -> RunReport<P::Output>
where
    P: Processor,
    F: Fn(usize) -> P + Sync,
    P::Output: Send,
{
    let pools = build_seeded_pools(protocol, cfg, slot_words, roots);
    // The world is created last, just before the workers spawn, so its
    // `start` instant is the one epoch for *both* the run's wall clock
    // and the race's win timestamps — `first_solution ≤ wall` by
    // construction, with no setup time leaking into either.
    let world = World::new(cfg.topology.clone(), cfg.latency, 16);
    run_on_pools(protocol, &world, cfg, pools, roots.len() as u64, factory)
}

/// [`run_parallel`] against a caller-supplied [`World`] — the multi-tenant
/// entry point. The caller builds the world over the job's *lease
/// sub-topology* (typically with [`World::leased_on`], windowing a shared
/// register file to the job's own [`macs_gpi::CellBlock`]); `cfg.topology`
/// must be that same sub-topology, since it drives the worker count and
/// victim rings.
pub fn run_parallel_on<P, F>(
    world: &World,
    cfg: &RuntimeConfig,
    slot_words: usize,
    roots: &[Vec<u64>],
    factory: F,
) -> RunReport<P::Output>
where
    P: Processor,
    F: Fn(usize) -> P + Sync,
    P::Output: Send,
{
    assert_eq!(
        cfg.workers(),
        world.topology.total_workers(),
        "config topology must match the world's"
    );
    let pools = build_seeded_pools(Protocol::Macs, cfg, slot_words, roots);
    run_on_pools(
        Protocol::Macs,
        world,
        cfg,
        pools,
        roots.len() as u64,
        factory,
    )
}

/// Slots per worker pool (a power of two).
const POOL_CAPACITY: usize = 4096;

/// One pool per worker, the roots seeded as worker 0's private work — one
/// worker "initiates the search" (paper §IV) and thieves pull everyone
/// else in.
fn build_seeded_pools(
    protocol: Protocol,
    cfg: &RuntimeConfig,
    slot_words: usize,
    roots: &[Vec<u64>],
) -> Vec<SplitPool> {
    let n_workers = cfg.workers();
    assert!(!roots.is_empty(), "need at least one root work item");
    for r in roots {
        assert_eq!(r.len(), slot_words, "root size must match slot_words");
    }

    let requests = protocol.mailbox(n_workers);
    let pools: Vec<SplitPool> = (0..n_workers)
        .map(|_| SplitPool::with_mailbox(POOL_CAPACITY, slot_words, requests))
        .collect();
    for r in roots {
        assert!(pools[0].push(r), "root seed overflowed pool 0");
    }
    pools
}

fn run_on_pools<P, F>(
    protocol: Protocol,
    world: &World,
    cfg: &RuntimeConfig,
    pools: Vec<SplitPool>,
    n_roots: u64,
    factory: F,
) -> RunReport<P::Output>
where
    P: Processor,
    F: Fn(usize) -> P + Sync,
    P::Output: Send,
{
    let n_workers = cfg.workers();
    let block = world.block;
    let board = TermBoard::new(&pools, n_roots);
    world.cells.store(block.outstanding(), 1);
    world.cells.store_i64(block.incumbent(), i64::MAX);
    let joined: Vec<_> = std::thread::scope(|s| {
        let pools = &pools[..];
        let factory = &factory;
        let handles: Vec<_> = (0..n_workers)
            .map(|w| {
                s.spawn(move || {
                    if cfg.pin_threads {
                        // Worker w → cpu_map[w] (or CPU w when no map).
                        // Failure means "run unpinned" — a cgroup cpuset
                        // or non-Linux host must not kill the run.
                        let cpu = match &cfg.cpu_map {
                            Some(map) => map.get(w).copied().unwrap_or(w as u32),
                            None => w as u32,
                        };
                        crate::affinity::pin_current_thread(cpu);
                    }
                    let built = catch_unwind(AssertUnwindSafe(|| {
                        Worker::new(w, protocol, cfg, world, pools, board, factory(w))
                    }));
                    match built {
                        Ok(worker) => worker.run(),
                        Err(payload) => {
                            // Dead before the start barrier: poison the
                            // run, then meet both barriers the siblings
                            // wait at.
                            poison(world);
                            world.barrier.wait();
                            world.barrier.wait();
                            Err(payload)
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(Err))
            .collect()
    });
    let wall = world.start.elapsed();
    // Every worker is joined; a panic in any of them ends the run here.
    let results: Vec<_> = joined
        .into_iter()
        .collect::<std::thread::Result<_>>()
        .unwrap_or_else(|payload| resume_unwind(payload));

    // Conservation, in every build: the threaded twin of the simulator's
    // `roots + pushes == completed + abandoned`. A miscount is a clean
    // abort naming the totals, not a silently wrong answer.
    let (finished, created) = board.totals();
    let left = pools.iter().filter(|p| !p.is_empty()).count();
    assert!(
        finished == created && left == 0,
        "termination conservation violated: {created} items created (roots included), \
         {finished} finished, {left} pools not drained"
    );

    let incumbent = world.cells.load_i64(block.incumbent());
    let (workers, outputs) = results.into_iter().unzip();
    RunReport {
        wall,
        workers,
        outputs,
        traffic: world.interconnect.counters.snapshot(),
        incumbent,
        first_solution: WinnerGate::win_time(world),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PollPolicy, ReleasePolicy, VictimSelect};
    use crate::processor::{ProcCtx, Step};
    use macs_gpi::LatencyModel;

    /// Synthetic tree task: item = [depth, path]; nodes below `max_depth`
    /// expand into `branch(path)` children; leaves are counted.
    struct TreeProc {
        max_depth: u64,
        uniform_branch: Option<u64>,
        leaves: u64,
        checksum: u64,
    }

    impl TreeProc {
        fn branch(&self, path: u64) -> u64 {
            match self.uniform_branch {
                Some(b) => b,
                // Unbalanced: mix of 0–3 children derived from the path.
                None => {
                    let h = path
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .rotate_left(17)
                        .wrapping_mul(0xBF58_476D_1CE4_E5B9);
                    h % 4
                }
            }
        }
    }

    impl Processor for TreeProc {
        type Output = (u64, u64); // (leaves, checksum)

        fn process(&mut self, buf: &mut [u64], ctx: &mut ProcCtx<'_>) -> Step {
            let (depth, path) = (buf[0], buf[1]);
            let b = if depth >= self.max_depth {
                0
            } else {
                self.branch(path)
            };
            if b == 0 {
                self.leaves += 1;
                self.checksum = self.checksum.wrapping_add(path | 1);
                ctx.solution();
                return Step::Leaf;
            }
            for i in 1..b {
                ctx.push(&[depth + 1, path.wrapping_mul(31).wrapping_add(i)]);
            }
            buf[0] = depth + 1;
            buf[1] = path.wrapping_mul(31);
            Step::Continue
        }

        fn finish(self) -> (u64, u64) {
            (self.leaves, self.checksum)
        }
    }

    fn run_tree(
        cfg: &RuntimeConfig,
        max_depth: u64,
        uniform: Option<u64>,
    ) -> (RunReport<(u64, u64)>, u64, u64) {
        let report = run_parallel(cfg, 2, &[vec![0u64, 1u64]], |_w| TreeProc {
            max_depth,
            uniform_branch: uniform,
            leaves: 0,
            checksum: 0,
        });
        let leaves: u64 = report.outputs.iter().map(|o| o.0).sum();
        let checksum = report.outputs.iter().fold(0u64, |a, o| a.wrapping_add(o.1));
        (report, leaves, checksum)
    }

    #[test]
    fn single_worker_counts_exactly() {
        let cfg = RuntimeConfig::single_node(1);
        let (report, leaves, _) = run_tree(&cfg, 8, Some(3));
        assert_eq!(leaves, 3u64.pow(8));
        assert_eq!(report.total_solutions(), 3u64.pow(8));
        // Interior nodes: (3^8 − 1) / 2 … plus the leaves.
        let interior = (3u64.pow(8) - 1) / 2;
        assert_eq!(report.total_items(), interior + 3u64.pow(8));
    }

    #[test]
    fn pinned_run_agrees_with_unpinned() {
        // pin_threads changes where threads run, never what they compute
        // — and a cpu_map shorter than the worker count or full of
        // nonsense CPUs must degrade to "unpinned", not crash.
        let cfg_seq = RuntimeConfig::single_node(1);
        let (_, leaves1, sum1) = run_tree(&cfg_seq, 9, Some(3));
        let mut cfg = RuntimeConfig::single_node(4);
        cfg.pin_threads = true;
        let (_, leaves4, sum4) = run_tree(&cfg, 9, Some(3));
        assert_eq!((leaves4, sum4), (leaves1, sum1));
        cfg.cpu_map = Some(vec![0, 9999]); // short + out of range
        let (_, leaves4, sum4) = run_tree(&cfg, 9, Some(3));
        assert_eq!((leaves4, sum4), (leaves1, sum1));
    }

    #[test]
    fn multi_worker_single_node_agrees_with_sequential() {
        let cfg_seq = RuntimeConfig::single_node(1);
        let cfg = RuntimeConfig::single_node(4);
        // Work distribution is timing-dependent: on a loaded host one
        // worker can race through a small tree before the other threads
        // are even scheduled. Retry with a deeper tree each time — the
        // widening race window makes a steal-free run vanishingly
        // unlikely — while the counts must agree on every attempt.
        let mut stole = false;
        for depth in 9..=13 {
            let (_, leaves1, sum1) = run_tree(&cfg_seq, depth, Some(3));
            let (report, leaves4, sum4) = run_tree(&cfg, depth, Some(3));
            assert_eq!(leaves4, leaves1);
            assert_eq!(sum4, sum1, "every leaf processed exactly once");
            let (ls, _, _, _) = report.steal_totals();
            if ls > 0 {
                stole = true;
                break;
            }
        }
        assert!(stole, "expected local steals on a shared-memory node");
    }

    #[test]
    fn hierarchical_topology_uses_remote_steals() {
        let cfg_seq = RuntimeConfig::single_node(1);
        let mut cfg = RuntimeConfig::clustered(4, 2); // 2 nodes × 2 cores
        cfg.steal.poll = PollPolicy::Dynamic { min: 2, max: 64 };
        // As in the single-node agreement test: retry with a deeper tree
        // until the off-node workers were scheduled in time to steal.
        for depth in 10..=13 {
            let (_, leaves1, sum1) = run_tree(&cfg_seq, depth, Some(3));
            let (report, leaves, sum) = run_tree(&cfg, depth, Some(3));
            assert_eq!(leaves, leaves1);
            assert_eq!(sum, sum1);
            let (_, _, rs, _) = report.steal_totals();
            if rs > 0 {
                assert!(report.traffic.remote_reads > 0);
                assert!(report.traffic.bytes_written > 0);
                return;
            }
        }
        panic!("expected remote steals across nodes");
    }

    #[test]
    fn unbalanced_tree_is_conserved() {
        let cfg_seq = RuntimeConfig::single_node(1);
        let (_, leaves1, sum1) = run_tree(&cfg_seq, 22, None);
        assert!(leaves1 > 1_000, "tree should be non-trivial: {leaves1}");
        for topo in [
            RuntimeConfig::single_node(3),
            RuntimeConfig::clustered(4, 2),
            RuntimeConfig::clustered(6, 3),
        ] {
            let (_, leaves, sum) = run_tree(&topo, 22, None);
            assert_eq!(leaves, leaves1);
            assert_eq!(sum, sum1);
        }
    }

    #[test]
    fn latency_model_slows_but_preserves_results() {
        let mut cfg = RuntimeConfig::clustered(4, 2);
        cfg.latency = LatencyModel::infiniband_ddr();
        let (report, leaves, _) = run_tree(&cfg, 9, Some(3));
        assert_eq!(leaves, 3u64.pow(9));
        assert!(report.traffic.remote_reads > 0);
    }

    #[test]
    fn max_steal_and_tuned_release_work() {
        let mut cfg = RuntimeConfig::single_node(4);
        cfg.steal.victim_select = VictimSelect::MaxSteal;
        cfg.steal.release = ReleasePolicy::tuned();
        let (report, leaves, _) = run_tree(&cfg, 9, Some(3));
        assert_eq!(leaves, 3u64.pow(9));
        let releases: u64 = report.workers.iter().map(|w| w.releases).sum();
        assert!(releases > 0);
    }

    #[test]
    fn three_level_topology_agrees_and_records_distances() {
        use macs_gpi::StealHistogram;
        let cfg_seq = RuntimeConfig::single_node(1);
        let (_, leaves1, sum1) = run_tree(&cfg_seq, 10, Some(3));
        // 2 nodes × 2 sockets × 2 cores: local rings at distance 1 and 2,
        // one remote ring at distance 3.
        let cfg = RuntimeConfig::hierarchical(&[2, 2, 2], 1).unwrap();
        let (report, leaves, sum) = run_tree(&cfg, 10, Some(3));
        assert_eq!(leaves, leaves1);
        assert_eq!(sum, sum1);
        let mut hist = StealHistogram::new();
        for w in &report.workers {
            hist.merge(&w.steals_by_distance);
        }
        let (ls, _, rs, _) = report.steal_totals();
        assert_eq!(hist.total(), ls + rs, "histogram counts every steal");
        // Local steals land in the intra-node buckets, remote beyond.
        let local_part: u64 = hist.counts[1..=2].iter().sum();
        assert_eq!(local_part, ls);
        assert_eq!(hist.counts[3], rs);
    }

    #[test]
    fn flat_scan_order_still_agrees() {
        use macs_gpi::ScanOrder;
        let cfg_seq = RuntimeConfig::single_node(1);
        let (_, leaves1, sum1) = run_tree(&cfg_seq, 10, Some(3));
        let mut cfg = RuntimeConfig::hierarchical(&[2, 2, 2], 1).unwrap();
        cfg.steal.scan_order = ScanOrder::Flat;
        let (_, leaves, sum) = run_tree(&cfg, 10, Some(3));
        assert_eq!(leaves, leaves1);
        assert_eq!(sum, sum1);
    }

    #[test]
    fn single_chunk_responses_still_agree() {
        let cfg_seq = RuntimeConfig::single_node(1);
        let (_, leaves1, sum1) = run_tree(&cfg_seq, 10, Some(3));
        let mut cfg = RuntimeConfig::clustered(6, 3);
        cfg.steal.response_batch = 1;
        let (report, leaves, sum) = run_tree(&cfg, 10, Some(3));
        assert_eq!(leaves, leaves1);
        assert_eq!(sum, sum1);
        let chunks: u64 = report.workers.iter().map(|w| w.response_chunks).sum();
        let served: u64 = report.workers.iter().map(|w| w.requests_served).sum();
        assert_eq!(chunks, served, "1 chunk per served response");
        assert_eq!(
            report
                .workers
                .iter()
                .map(|w| w.batched_responses)
                .sum::<u64>(),
            0
        );
    }

    #[test]
    fn tiny_workload_many_workers_terminates() {
        // More workers than work: most workers never get an item and must
        // terminate cleanly via the counter.
        let cfg = RuntimeConfig::clustered(8, 2);
        let (report, leaves, _) = run_tree(&cfg, 1, Some(2));
        assert_eq!(leaves, 2);
        assert_eq!(report.total_items(), 3);
    }

    #[test]
    fn shrunken_lease_drains_and_agrees() {
        use macs_gpi::cells::CellBlock;
        use macs_gpi::GlobalCells;
        use std::sync::Arc;

        let cfg_seq = RuntimeConfig::single_node(1);
        let (_, leaves1, sum1) = run_tree(&cfg_seq, 20, None);

        // 4 workers on 2 nodes, but the lease is shrunk to 2 before the
        // run even starts and never regrown: workers 2 and 3 must park
        // immediately, and the active pair must be able to drain every
        // item — including the last one in a parked pool (the retention
        // waiver) — or the run would never terminate.
        let cfg = RuntimeConfig::clustered(4, 2);
        let nodes = cfg.topology.nodes();
        let cells = Arc::new(GlobalCells::with_job_blocks(2, nodes));
        let block = CellBlock::for_job(1, nodes);
        let world = World::leased_on(cfg.topology.clone(), cfg.latency, Arc::clone(&cells), block);
        cells.store(block.lease(), 2);
        let report = run_parallel_on(&world, &cfg, 2, &[vec![0u64, 1u64]], |_w| TreeProc {
            max_depth: 20,
            uniform_branch: None,
            leaves: 0,
            checksum: 0,
        });
        let leaves: u64 = report.outputs.iter().map(|o| o.0).sum();
        let sum = report.outputs.iter().fold(0u64, |a, o| a.wrapping_add(o.1));
        assert_eq!(leaves, leaves1);
        assert_eq!(sum, sum1);
        let parks: u64 = report.workers.iter().map(|w| w.parks).sum();
        assert!(parks >= 2, "both out-of-lease workers must park: {parks}");
        // Parked workers never process items under a never-regrown lease.
        assert_eq!(report.workers[2].items, 0);
        assert_eq!(report.workers[3].items, 0);
    }

    #[test]
    fn lease_regrow_resumes_parked_workers() {
        use macs_gpi::cells::CellBlock;
        use macs_gpi::GlobalCells;
        use std::sync::Arc;

        let cfg_seq = RuntimeConfig::single_node(1);
        let (_, leaves1, sum1) = run_tree(&cfg_seq, 12, Some(3));

        let cfg = RuntimeConfig::clustered(4, 2);
        let nodes = cfg.topology.nodes();
        let cells = Arc::new(GlobalCells::with_job_blocks(1, nodes));
        let block = CellBlock::for_job(0, nodes);
        let world = World::leased_on(cfg.topology.clone(), cfg.latency, Arc::clone(&cells), block);
        cells.store(block.lease(), 2);
        // Pre-arm the flag so the grower cannot mistake the not-yet-
        // started run (reset leaves the flag at 0) for a finished one.
        cells.store(block.outstanding(), 1);
        // Regrow the lease to the full width once the shrink handshake
        // confirms both out-of-lease workers parked; they must resume and
        // the totals must still be exact — no item lost or duplicated
        // across the park/unpark edge. The handshake makes the test
        // deterministic even on a single-core host: the regrow cannot
        // outrace the parks it asserts on. If the run terminates first,
        // the parked count drops back to 0 and the grower gives up.
        let grower = {
            let cells = Arc::clone(&cells);
            std::thread::spawn(move || loop {
                if cells.load_i64(block.parked()) >= 2 {
                    cells.store(block.lease(), 4);
                    return true;
                }
                if cells.load(block.outstanding()) == 0 {
                    return false; // run ended before both parks were seen
                }
                std::thread::yield_now();
            })
        };
        let report = run_parallel_on(&world, &cfg, 2, &[vec![0u64, 1u64]], |_w| TreeProc {
            max_depth: 12,
            uniform_branch: Some(3),
            leaves: 0,
            checksum: 0,
        });
        grower.join().unwrap();
        let leaves: u64 = report.outputs.iter().map(|o| o.0).sum();
        let sum = report.outputs.iter().fold(0u64, |a, o| a.wrapping_add(o.1));
        assert_eq!(leaves, leaves1);
        assert_eq!(sum, sum1);
        let parks: u64 = report.workers.iter().map(|w| w.parks).sum();
        assert!(parks >= 2, "workers 2 and 3 parked before the regrow");
    }

    /// A binary tree of 8 191 nodes, numbered in heap order; the node
    /// `panic_at` panics instead of expanding.
    struct Faulty {
        panic_at: u64,
    }

    impl Processor for Faulty {
        type Output = ();

        fn process(&mut self, buf: &mut [u64], ctx: &mut ProcCtx<'_>) -> Step {
            let (depth, index) = (buf[0], buf[1]);
            if index == self.panic_at {
                std::panic::panic_any(("injected", index));
            }
            if depth == 12 {
                return Step::Leaf;
            }
            ctx.push(&[depth + 1, 2 * index + 1]);
            buf.copy_from_slice(&[depth + 1, 2 * index]);
            Step::Continue
        }

        fn finish(self) {}
    }

    /// Run `run` on a detached thread; its panic payload, or `None` when it
    /// returned normally. A run still going after 10 s fails the test.
    fn payload_within_10s(
        label: &str,
        run: impl FnOnce() + Send + 'static,
    ) -> Option<Box<dyn std::any::Any + Send>> {
        let (done, watchdog) = std::sync::mpsc::channel();
        // Detached on purpose: a hung run cannot be joined, only timed out.
        std::thread::spawn(move || {
            let _ = done.send(catch_unwind(AssertUnwindSafe(run)).err());
        });
        watchdog
            .recv_timeout(Duration::from_secs(10))
            .unwrap_or_else(|_| panic!("{label}: the run hung"))
    }

    #[test]
    fn a_panicking_worker_unwinds_the_run_instead_of_hanging_it() {
        for seed in 1..=20u64 {
            // Spread the fault over the tree: near the root, deep, early
            // and late in the depth-first order.
            let at = 1 + (seed * 2_654_435_761) % 8191;
            let payload = payload_within_10s(&format!("seed {seed}"), move || {
                let cfg = RuntimeConfig::clustered(4, 2);
                run_parallel(&cfg, 2, &[vec![0, 1]], |_| Faulty { panic_at: at });
            })
            .unwrap_or_else(|| panic!("seed {seed}: node {at} never ran"));
            let got = payload.downcast_ref::<(&str, u64)>();
            assert_eq!(got, Some(&("injected", at)), "seed {seed}");
        }
    }

    #[test]
    fn a_panicking_factory_unwinds_the_run_instead_of_hanging_it() {
        let payload = payload_within_10s("factory", || {
            let cfg = RuntimeConfig::clustered(4, 2);
            run_parallel(&cfg, 2, &[vec![0, 1]], |w| {
                if w == 2 {
                    std::panic::panic_any("no processor for worker 2");
                }
                Faulty { panic_at: 0 }
            });
        })
        .expect("the factory panicked");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"no processor for worker 2")
        );
    }

    #[test]
    fn report_aggregations_are_consistent() {
        let cfg = RuntimeConfig::single_node(2);
        let (report, _, _) = run_tree(&cfg, 8, Some(3));
        let fr = report.state_fractions();
        let sum: f64 = fr.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "state fractions sum to 1: {sum}");
        assert!(report.overhead_fraction() >= 0.0 && report.overhead_fraction() <= 1.0);
        assert!(report.items_per_sec() > 0.0);
    }
}
